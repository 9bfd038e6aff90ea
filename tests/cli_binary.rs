//! The `sptx` binary as a process: what only an exit status, a pipe or a
//! second invocation can see.

use std::path::PathBuf;
use std::process::{Command, Stdio};

use kg::eval::TripleScorer;
use kg::stream::RowFile;
use kg::synthetic::SyntheticKgBuilder;
use sptransx::serve::{top_k, Direction, IvfConfig, IvfIndex, Query, ServeEngine, ServeModel};
use sptransx::{KgeModel, Norm, SpTorusE, TrainConfig};
use sptransx_repro::cli::FLAGS;
use xparallel::PoolHandle;

fn sptx() -> Command {
    Command::new(env!("CARGO_BIN_EXE_sptx"))
}

/// A fresh scratch directory holding a generated 300-entity KG.
fn kg_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("sptx-cli-binary-{name}-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let out = sptx()
        .args(["generate", "--entities", "300", "--relations", "6"])
        .args(["--triples", "3000", "--out"])
        .arg(&dir)
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    dir
}

/// `sptx help` names the kernels this CPU runs on one line, `kernels: avx2`
/// or `kernels: baseline`, and it is the dispatch's own answer.
#[test]
fn help_names_the_kernels_this_cpu_runs() {
    let out = sptx().arg("help").output().unwrap();
    assert!(out.status.success());
    let text = String::from_utf8(out.stdout).unwrap();
    let kernels: Vec<&str> = text.lines().filter(|l| l.starts_with("kernels:")).collect();
    let name = xparallel::Isa::detected().name();
    assert_eq!(kernels, [format!("kernels: {name}")], "{text}");
    assert!(["avx2", "baseline"].contains(&name));
}

/// `sptx … | head`: the reader hangs up before the report is written (the
/// pipe is closed while the child still trains), every line of the report
/// hits a broken pipe, and the run still exits 0 with nothing on stderr —
/// it used to be `println!`'s panic, exit 101 and a backtrace.
#[test]
fn a_closed_stdout_pipe_is_a_quiet_exit_zero() {
    let dir = kg_dir("pipe");
    let mut child = sptx()
        .args(["train", "--epochs", "3", "--threads", "1", "--train"])
        .arg(dir.join("train.tsv"))
        .arg("--out")
        .arg(dir.join("e.bin"))
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .unwrap();
    drop(child.stdout.take());
    let out = child.wait_with_output().unwrap();
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(0), "{stderr}");
    assert!(stderr.is_empty(), "{stderr}");
    std::fs::remove_dir_all(&dir).ok();
}

/// A TorusE dump is served under its own metric: `serve --norm torus-l1`
/// answers (here: reports recall 1 at full probe against its exact arm, and
/// names the norm), the exact arm under `Norm::TorusL1` ranks a training
/// triple's tails exactly as `SpTorusE::score_tails` does on the same
/// parameters, and an unknown `--norm` is a usage error naming all four.
#[test]
fn a_toruse_dump_is_served_under_the_torus_metric() {
    let dir = kg_dir("torus");
    let (train, emb) = (dir.join("train.tsv"), dir.join("torus.bin"));
    let run = |args: &[&str]| {
        let out = sptx()
            .args(args)
            .args(["--threads", "1", "--train"])
            .arg(&train)
            .output()
            .unwrap();
        let text = String::from_utf8_lossy(&out.stdout).into_owned()
            + &String::from_utf8_lossy(&out.stderr);
        (out.status.code(), text)
    };
    let emb_arg = emb.to_str().unwrap();
    let (code, text) = run(&[
        "train", "--model", "toruse", "--norm", "l1", "--epochs", "3", "--dim", "16", "--out",
        emb_arg,
    ]);
    assert_eq!(code, Some(0), "{text}");

    let serve = [
        "serve",
        "--queries",
        "50",
        "--clusters",
        "8",
        "--nprobe",
        "8",
        "--emb",
        emb_arg,
    ];
    let (code, text) = run(&[&serve[..], &["--norm", "torus-l1", "--min-recall", "1"]].concat());
    assert_eq!(code, Some(0), "{text}");
    assert!(
        text.contains("norm torus-l1") && !text.contains("WARNING"),
        "{text}"
    );
    let (code, text) = run(&[&serve[..], &["--norm", "torus"]].concat());
    assert_eq!(code, Some(2), "{text}");
    assert!(text.contains("(l1|l2|torus-l1|torus-l2)"), "{text}");

    // The exact arm's ranking is SpTorusE's own. Both get the dump's rows;
    // the file's first triple is a training triple whose head and relation
    // the vocabulary interned as entity 0 and relation 0.
    let mut store = RowFile::open(&emb).unwrap();
    let (rows, dim) = (store.rows(), store.cols());
    let stack = store.read_rows(0, rows).unwrap();
    let (n, r) = (rows - 6, 6);
    let ds = SyntheticKgBuilder::new(n, r).triples(10).build();
    let cfg = TrainConfig {
        dim,
        norm: Norm::L1,
        ..Default::default()
    };
    let mut model = SpTorusE::from_config(&ds, &cfg).unwrap();
    assert_eq!(model.metric(), Norm::TorusL1);
    let id = model.store().lookup("embeddings").unwrap();
    let table = model.store_mut().value_mut(id);
    table.as_mut_slice().copy_from_slice(&stack);
    let serve = ServeModel::from_stacked(stack, n, r, dim, Norm::TorusL1).unwrap();
    let index = IvfIndex::build(
        serve.embeddings(),
        n,
        dim,
        &IvfConfig::default(),
        &PoolHandle::global(),
    )
    .unwrap();
    let query = Query {
        dir: Direction::Tail,
        entity: 0,
        rel: 0,
    };
    let got = ServeEngine::new(serve, index)
        .unwrap()
        .answer_exact(&query, n);
    assert_eq!(got, top_k((0u32..).zip(model.score_tails(0, 0)), n));
    std::fs::remove_dir_all(&dir).ok();
}

/// Out-of-range flag values are usage errors naming the flag (exit 2), not
/// panics (exit 101) from the library asserts they used to reach (the query
/// cache's simcache replay, the Zipf workload, the synthetic-KG builder, the
/// dataset split). The cases are generated: every value `Kind::refused`
/// offers, for every row of [`FLAGS`], under every subcommand that reads it
/// — so no flag ships without one — plus the rules that span two flags.
/// Every case gets files that work, so only the flag is wrong.
#[test]
fn out_of_range_flags_are_usage_errors_naming_the_flag() {
    let dir = kg_dir("bad-flags");
    let train = dir.join("train.tsv");
    let (train, emb) = (train.to_str().unwrap(), dir.join("e.bin"));
    let emb = emb.to_str().unwrap();
    let trained = sptx()
        .args([
            "train", "--epochs", "1", "--dim", "8", "--train", train, "--out", emb,
        ])
        .output()
        .unwrap();
    assert!(trained.status.success());
    let gen_out = dir.join("generated");
    let gen_out = gen_out.to_str().unwrap();
    let serve = ["serve", "--queries", "20", "--emb", emb, "--train", train];
    let train_cmd = [
        "train", "--epochs", "1", "--dim", "8", "--train", train, "--out", emb,
    ];
    let stats = ["stats", "--train", train];
    let generate = ["generate", "--out", gen_out];
    let working = |command: &str| -> &[&str] {
        match command {
            "serve" => &serve,
            "train" => &train_cmd,
            "stats" => &stats,
            "generate" => &generate,
            _ => &["help"],
        }
    };
    let mut cases: Vec<(&[&str], Vec<String>, String)> = Vec::new();
    for flag in FLAGS {
        for command in flag.commands {
            for bad in flag.kind.refused() {
                let named = format!("--{}", flag.name);
                cases.push((working(command), vec![named.clone(), bad], named));
            }
        }
    }
    assert!(cases.len() >= 80, "{} generated cases", cases.len());
    #[rustfmt::skip]
    let rules: [(&[&str], &[&str], &str); 5] = [
        (&serve, &["--cache-rows", "5"], "--cache-rows"),
        (&train_cmd, &["--cache-rows", "7"], "--cache-rows"),
        (&train_cmd, &["--store", "ram", "--cache-rows", "7"], "--cache-rows"),
        (&train_cmd, &["--workers", "2"], "--workers"),
        (&stats, &["--valid-frac", "0.6", "--test-frac", "0.5"], "--valid-frac"),
    ];
    for (command, flags, named) in rules {
        let flags = flags.iter().map(|s| s.to_string()).collect();
        cases.push((command, flags, named.to_string()));
    }
    for (command, flags, named) in cases {
        let out = sptx().args(command).args(&flags).output().unwrap();
        let stderr = String::from_utf8_lossy(&out.stderr);
        let what = format!("sptx {} {}: {stderr}", command[0], flags.join(" "));
        assert_eq!(out.status.code(), Some(2), "{what}");
        assert!(stderr.contains(&named), "{what}");
        assert!(!stderr.contains("panicked"), "{what}");
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// `--threads` sizes the pool of a fresh process, so a thread-count
/// comparison needs two: DistMult on a graph with a self-loop triple (`e3 r2
/// e3`, one merged entity column in its incidence row) dumps the same bytes
/// at 1 and 4 threads.
#[test]
fn distmult_with_a_self_loop_dumps_the_same_bytes_at_1_and_4_threads() {
    let dir = kg_dir("self-loop");
    let train = dir.join("train.tsv");
    let mut tsv = std::fs::read_to_string(&train).unwrap();
    tsv.push_str("e3\tr2\te3\n");
    std::fs::write(&train, tsv).unwrap();
    let dump = |threads: &str| {
        let emb = dir.join(format!("emb_{threads}.bin"));
        let out = sptx()
            .args([
                "train", "--model", "distmult", "--epochs", "2", "--dim", "8",
            ])
            .args(["--batch-size", "64", "--threads", threads, "--train"])
            .arg(&train)
            .arg("--out")
            .arg(&emb)
            .output()
            .unwrap();
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(0), "{stderr}");
        std::fs::read(&emb).unwrap()
    };
    assert_eq!(dump("1"), dump("4"), "1 vs 4 threads");
    std::fs::remove_dir_all(&dir).ok();
}

/// `f32::max(NaN, 0.0)` is `0.0`: at `--lr 1e30` the hinge hid the NaN
/// scores, the run printed `loss … -> 0.0000`, exited 0 and dumped a table
/// of NaN. A diverged run is a failed run (exit 1) that says where.
#[test]
fn a_diverged_run_exits_1_naming_the_epoch_and_batch() {
    let dir = std::env::temp_dir().join(format!("sptx-cli-binary-nan-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let out = sptx()
        .args(["generate", "--entities", "300", "--relations", "6"])
        .args(["--triples", "3000", "--seed", "11", "--out"])
        .arg(&dir)
        .output()
        .unwrap();
    assert!(out.status.success());
    let out = sptx()
        .args(["train", "--model", "transh", "--epochs", "3", "--dim", "16"])
        .args(["--batch-size", "256", "--lr", "1e30", "--train"])
        .arg(dir.join("train.tsv"))
        .arg("--out")
        .arg(dir.join("e.bin"))
        .output()
        .unwrap();
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "{stderr}");
    assert!(
        stderr.contains("training diverged")
            && stderr.contains("epoch ")
            && stderr.contains("batch "),
        "{stderr}"
    );
    assert!(!stderr.contains("panicked"), "{stderr}");
    std::fs::remove_dir_all(&dir).ok();
}

/// A dump with one non-finite coordinate is refused with the row and column
/// that hold it (exit 2), instead of being clustered into an index whose NaN
/// centroid holds only that row while another cluster empties.
#[test]
fn a_non_finite_dump_is_refused_naming_its_row() {
    let dir = kg_dir("nan-dump");
    let (train, emb) = (dir.join("train.tsv"), dir.join("e.bin"));
    let trained = sptx()
        .args(["train", "--epochs", "1", "--dim", "8", "--train"])
        .arg(&train)
        .arg("--out")
        .arg(&emb)
        .output()
        .unwrap();
    assert!(trained.status.success());
    let mut store = RowFile::open(&emb).unwrap();
    let (rows, dim) = (store.rows(), store.cols());
    let mut table = store.read_rows(0, rows).unwrap();
    table[5 * dim + 3] = f32::NAN;
    let bad = dir.join("nan.bin");
    RowFile::write(&bad, rows, dim, |r, out| {
        out.copy_from_slice(&table[r * dim..(r + 1) * dim]);
    })
    .unwrap();
    let out = sptx()
        .args(["serve", "--queries", "20", "--train"])
        .arg(&train)
        .arg("--emb")
        .arg(&bad)
        .output()
        .unwrap();
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{stderr}");
    assert!(stderr.contains("entity row 5 column 3 is NaN"), "{stderr}");
    std::fs::remove_dir_all(&dir).ok();
}
