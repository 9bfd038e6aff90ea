//! Integration tests of the paper's *qualitative claims* at test scale,
//! using the deterministic instrumented metrics (FLOPs, peak memory, graph
//! size, simulated cache misses) rather than flaky wall-clock assertions.

use kg::synthetic::SyntheticKgBuilder;
use kg::{BatchPlan, UniformSampler};
use sptransx::{
    DenseTorusE, DenseTransE, DenseTransH, DenseTransR, KgeModel, SpTorusE, SpTransE, SpTransH,
    SpTransR, TrainConfig, Trainer,
};

fn dataset() -> kg::Dataset {
    SyntheticKgBuilder::new(2_000, 30)
        .triples(12_000)
        .seed(55)
        .build()
}

fn config() -> TrainConfig {
    TrainConfig {
        epochs: 2,
        batch_size: 2048,
        dim: 32,
        rel_dim: 16,
        lr: 0.01,
        ..Default::default()
    }
}

fn reports<S: KgeModel, D: KgeModel>(
    sparse: S,
    dense: D,
) -> (sptransx::TrainReport, sptransx::TrainReport) {
    let ds = dataset();
    let cfg = config();
    let rs = Trainer::new(sparse, &ds, &cfg).unwrap().run().unwrap();
    let rd = Trainer::new(dense, &ds, &cfg).unwrap().run().unwrap();
    (rs, rd)
}

/// Gate for the claim that compares `TrainReport`'s peak-memory field: it
/// is a delta of process-global counters, so a sibling test training
/// concurrently inflates it. (Flops and SpMM calls are sums of the run's own
/// per-op rows and need no gate.) Called
/// first thing with the test's name, it re-runs the test binary with that
/// name as an `--exact` filter, asserts the child passed and returns `false`
/// (the caller returns); in the child, which sees the marker variable, it
/// returns `true` and the test body runs with the process to itself.
fn alone_in_process(test: &str) -> bool {
    const MARKER: &str = "SPTX_TEST_ALONE_IN_PROCESS";
    if std::env::var_os(MARKER).is_some() {
        return true;
    }
    let exe = std::env::current_exe().expect("path of the running test binary");
    let out = std::process::Command::new(exe)
        .args([test, "--exact", "--test-threads=1"])
        .env(MARKER, "1")
        .output()
        .expect("re-running the test binary");
    let stdout = String::from_utf8_lossy(&out.stdout);
    // "1 passed" guards against a stale `test` name filtering to nothing.
    assert!(
        out.status.success() && stdout.contains("1 passed"),
        "{test} failed alone in its process:\n{stdout}\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    false
}

/// Table 6's claim: the sparse schedule executes fewer floating-point
/// operations for every model.
#[test]
fn sparse_uses_fewer_flops_all_models() {
    let ds = dataset();
    let cfg = config();
    macro_rules! pair {
        ($sp:ident, $de:ident, $name:literal) => {{
            let (rs, rd) = reports(
                $sp::from_config(&ds, &cfg).unwrap(),
                $de::from_config(&ds, &cfg).unwrap(),
            );
            assert!(
                rs.flops() < rd.flops(),
                "{}: sparse {} !< dense {}",
                $name,
                rs.flops(),
                rd.flops()
            );
        }};
    }
    pair!(SpTransE, DenseTransE, "TransE");
    pair!(SpTorusE, DenseTorusE, "TorusE");
    pair!(SpTransR, DenseTransR, "TransR");
    pair!(SpTransH, DenseTransH, "TransH");
}

/// Table 5's claim: the sparse schedule allocates less peak tensor memory.
#[test]
fn sparse_uses_less_peak_memory_all_models() {
    if !alone_in_process("sparse_uses_less_peak_memory_all_models") {
        return;
    }
    let ds = dataset();
    let cfg = config();
    macro_rules! pair {
        ($sp:ident, $de:ident, $name:literal) => {{
            // Runs must be serialized: peak-memory tracking is global.
            let rs = Trainer::new($sp::from_config(&ds, &cfg).unwrap(), &ds, &cfg)
                .unwrap()
                .run()
                .unwrap();
            let rd = Trainer::new($de::from_config(&ds, &cfg).unwrap(), &ds, &cfg)
                .unwrap()
                .run()
                .unwrap();
            assert!(
                rs.peak_memory_bytes <= rd.peak_memory_bytes,
                "{}: sparse {} !<= dense {}",
                $name,
                rs.peak_memory_bytes,
                rd.peak_memory_bytes
            );
        }};
    }
    pair!(SpTransE, DenseTransE, "TransE");
    pair!(SpTorusE, DenseTorusE, "TorusE");
    pair!(SpTransR, DenseTransR, "TransR");
    pair!(SpTransH, DenseTransH, "TransH");
}

/// §6.2.5's claim: the sparse formulation does not change the optimization —
/// losses coincide epoch by epoch when init and batch order are shared.
#[test]
fn accuracy_parity_loss_trajectories_match() {
    let ds = dataset();
    let cfg = TrainConfig {
        epochs: 3,
        ..config()
    };
    macro_rules! pair {
        ($sp:ident, $de:ident, $name:literal, $tol:expr) => {{
            let rs = Trainer::new($sp::from_config(&ds, &cfg).unwrap(), &ds, &cfg)
                .unwrap()
                .run()
                .unwrap();
            let rd = Trainer::new($de::from_config(&ds, &cfg).unwrap(), &ds, &cfg)
                .unwrap()
                .run()
                .unwrap();
            for (a, b) in rs.epoch_losses.iter().zip(&rd.epoch_losses) {
                assert!((a - b).abs() < $tol, "{}: {a} vs {b}", $name);
            }
        }};
    }
    pair!(SpTransE, DenseTransE, "TransE", 1e-3);
    pair!(SpTorusE, DenseTorusE, "TorusE", 1e-3);
    pair!(SpTransR, DenseTransR, "TransR", 2e-3);
    pair!(SpTransH, DenseTransH, "TransH", 2e-3);
}

/// Table 7's claim, via the cache simulator: the SpMM pipeline's miss rate
/// does not exceed the gather/scatter pipeline's.
#[test]
fn spmm_cache_behaviour_not_worse() {
    let ds = dataset();
    let sampler = UniformSampler::new(ds.num_entities);
    let plan = BatchPlan::build(&ds.train, &ds.all_known(), &sampler, 2048, 3);
    let b = plan.batch(0);
    let incidence = sparse::incidence::hrt(
        ds.num_entities,
        ds.num_relations,
        b.pos.heads(),
        b.pos.rels(),
        b.pos.tails(),
        sparse::incidence::TailSign::Negative,
    )
    .unwrap();
    let cmp = simcache::trace::compare_kernels(&incidence, 64);
    assert!(
        cmp.spmm_miss_rate <= cmp.gather_scatter_miss_rate + 1e-9,
        "spmm {} vs gather/scatter {}",
        cmp.spmm_miss_rate,
        cmp.gather_scatter_miss_rate
    );
}

/// §6.2.2's mechanism: the dense TransH computational graph materializes
/// more nodes (and the sparse one fewer intermediates), which is where the
/// memory gap comes from.
#[test]
fn sparse_graphs_are_smaller() {
    let ds = dataset();
    let cfg = config();
    let sampler = UniformSampler::new(ds.num_entities);
    let plan = BatchPlan::build(&ds.train, &ds.all_known(), &sampler, 2048, 3);

    macro_rules! graph_sizes {
        ($sp:ident, $de:ident) => {{
            let mut sp = $sp::from_config(&ds, &cfg).unwrap();
            sp.attach_plan(&plan).unwrap();
            let mut de = $de::from_config(&ds, &cfg).unwrap();
            de.attach_plan(&plan).unwrap();
            let mut g1 = tensor::Graph::new();
            sp.score_batch(&mut g1, 0);
            let mut g2 = tensor::Graph::new();
            de.score_batch(&mut g2, 0);
            (g1.len(), g2.len())
        }};
    }
    let (s, d) = graph_sizes!(SpTransE, DenseTransE);
    assert!(s < d, "TransE: sparse graph {s} !< dense graph {d}");
    let (s, d) = graph_sizes!(SpTransH, DenseTransH);
    assert!(s < d, "TransH: sparse graph {s} !< dense graph {d}");
    let (s, d) = graph_sizes!(SpTransR, DenseTransR);
    assert!(s < d, "TransR: sparse graph {s} !< dense graph {d}");
}

/// The paper's Appendix G: backward-of-SpMM is transpose-SpMM, so the number
/// of SpMM kernel calls in sparse TransE training is exactly
/// `epochs × batches × 2 sides × 2 (fwd + bwd)`.
#[test]
fn spmm_call_count_matches_formula() {
    let ds = dataset();
    let cfg = config();
    let mut trainer = Trainer::new(SpTransE::from_config(&ds, &cfg).unwrap(), &ds, &cfg).unwrap();
    let batches = trainer.num_batches();
    let report = trainer.run().unwrap();
    let expected = (cfg.epochs * batches * 4) as u64;
    assert_eq!(report.spmm_calls(), expected);
}
