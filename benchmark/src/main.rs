//! End-to-end benchmark of the SparseTransX reproduction.
//!
//! `sptx-benchmark --workload <name> [--seed S] [--seconds N] [--trace [0|1]]`
//! runs one workload, prints every metric by name and unit, checks the
//! program's outputs, and ends with one JSON line for the driver. See
//! `README.md` beside this crate for the measurement rules and the workloads.

mod check;
mod json;
mod quiet;
mod run;
mod serve;
mod sys;
mod trace;
mod train;

use std::process::ExitCode;
use std::time::Instant;

use json::Metric;
use run::{Ctx, EndToEnd, Res, NOMINAL_SECONDS};
use train::{ModelKind, Residency, TrainWorkload, ALL_MODELS, KG_LARGE, KG_SMALL};

/// The workloads, as named in `BENCHMARK.json`.
const WORKLOADS: [&str; 5] = [
    "train_resident",
    "train_models",
    "train_paged_hot",
    "train_paged_cold",
    "serve_ann",
];

const TRANSE: &[ModelKind] = &[ModelKind::TransE];

fn train_workload(name: &str) -> Option<TrainWorkload> {
    let (spec, models, residency, rounds) = match name {
        "train_resident" => (KG_LARGE, TRANSE, Residency::Resident, 36),
        "train_models" => (KG_SMALL, &ALL_MODELS[..], Residency::Resident, 20),
        "train_paged_hot" => (
            KG_LARGE,
            TRANSE,
            Residency::Paged {
                budget_percent: 100,
            },
            28,
        ),
        "train_paged_cold" => (KG_LARGE, TRANSE, Residency::Paged { budget_percent: 10 }, 8),
        _ => return None,
    };
    Some(TrainWorkload {
        spec,
        models,
        residency,
        rounds,
    })
}

#[derive(Debug, PartialEq)]
struct Args {
    workload: &'static str,
    seed: u64,
    seconds: f64,
    trace: bool,
}

const USAGE: &str = "usage: sptx-benchmark --workload <train_resident|train_models|train_paged_hot|train_paged_cold|serve_ann> [--seed <u64>] [--seconds <1..=60>] [--trace [0|1]]";

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = 1u64;
    let mut seconds = NOMINAL_SECONDS;
    let mut trace = false;
    let mut it = args.iter().peekable();
    while let Some(flag) = it.next() {
        let mut value = |what: &str| {
            it.next()
                .ok_or_else(|| format!("{flag} needs {what}\n{USAGE}"))
        };
        match flag.as_str() {
            "--workload" => {
                let name = value("a workload name")?;
                workload = Some(
                    *WORKLOADS
                        .iter()
                        .find(|w| *w == name)
                        .ok_or_else(|| format!("unknown workload '{name}'\n{USAGE}"))?,
                );
            }
            "--seed" => {
                let v = value("an unsigned integer")?;
                seed = v
                    .parse()
                    .map_err(|_| format!("--seed '{v}' is not an unsigned integer"))?;
            }
            "--seconds" => {
                let v = value("a number of seconds")?;
                seconds = v
                    .parse()
                    .ok()
                    .filter(|s: &f64| (1.0..=60.0).contains(s))
                    .ok_or_else(|| format!("--seconds '{v}' is not a number in 1..=60"))?;
            }
            "--trace" => {
                // `--trace 0|1` (the driver's form) or a bare `--trace`.
                trace = match it.peek().map(|s| s.as_str()) {
                    Some("0") => {
                        it.next();
                        false
                    }
                    Some("1") => {
                        it.next();
                        true
                    }
                    _ => true,
                };
            }
            other => return Err(format!("unknown argument '{other}'\n{USAGE}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or_else(|| format!("--workload is required\n{USAGE}"))?,
        seed,
        seconds,
        trace,
    })
}

fn run_workload(ctx: &mut Ctx, name: &str) -> Res<EndToEnd> {
    match train_workload(name) {
        Some(w) => train::run(ctx, &w),
        None => serve::run(ctx),
    }
}

fn print_table(metrics: &[Metric]) {
    for m in metrics {
        println!("  {:<28} {:>22} {}", m.name, json::number(m.value), m.unit);
    }
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(msg) => {
            eprintln!("{msg}");
            return ExitCode::from(2);
        }
    };
    // R1: one compute thread. The second core of the box this was designed
    // on absorbs the OS and the harness; thread scaling is out of scope.
    xparallel::set_num_threads(1);

    let wall = Instant::now();
    let mut ctx = match Ctx::new(args.workload, args.seed, args.seconds, args.trace) {
        Ok(c) => c,
        Err(e) => {
            eprintln!(
                "workload {}: cannot create scratch directory: {e}",
                args.workload
            );
            return ExitCode::FAILURE;
        }
    };
    ctx.tracer.set_on(args.trace);
    ctx.tracer.begin("run", 0);
    ctx.tracer.set_on(false);
    let outcome = run_workload(&mut ctx, args.workload);
    ctx.tracer.set_on(args.trace);
    ctx.tracer.end();

    let end_to_end = match outcome {
        Ok(e) => e,
        Err(e) => {
            // A failed operation: no result line, a message, a non-zero code.
            eprintln!("workload {}: operation failed: {e}", args.workload);
            return ExitCode::FAILURE;
        }
    };

    println!(
        "workload {} seed {} seconds {} trace {} compute threads {} (available parallelism {})",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        xparallel::current_num_threads(),
        std::thread::available_parallelism().map_or(0, |n| n.get()),
    );
    for note in &ctx.notes {
        println!("  {note}");
    }
    let l = end_to_end.latency_ms;
    println!(
        "  latency over {} per-item minima; latency_p99_ms is taken at p{:.1} ({} samples beyond it)",
        l.n,
        l.tail_p * 100.0,
        l.n - quiet::supported_tail_rank(l.n, 0.99),
    );
    println!("end-to-end:");
    let e2e = end_to_end.metrics();
    print_table(&e2e);

    let metrics = if args.trace {
        ctx.layers.set("run.wall_s", wall.elapsed().as_secs_f64());
        let per_layer = ctx.layers.metrics();
        println!("per-layer:");
        print_table(&per_layer);
        let path = sys::out_dir().join(format!("trace-{}.json", args.workload));
        match std::fs::write(&path, ctx.tracer.to_chrome_json(args.workload)) {
            Ok(()) => println!(
                "trace: {} spans written to {}",
                ctx.tracer.spans().len(),
                path.display()
            ),
            Err(e) => ctx.checks.check("trace file written", false, || {
                format!("{}: {e}", path.display())
            }),
        }
        per_layer
    } else {
        e2e
    };
    for m in &metrics {
        ctx.checks.check(
            &format!("{} is finite", m.name),
            m.value.is_finite(),
            || format!("{}", m.value),
        );
    }

    for msg in ctx.checks.messages() {
        eprintln!("{msg}");
    }
    let (attempted, failed) = (ctx.checks.attempted(), ctx.checks.failed());
    println!("operations: {attempted} attempted, {failed} failed");
    println!(
        "{}",
        json::result_line(failed == 0, attempted, failed, &metrics)
    );
    if failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn parses_the_drivers_command_line() {
        let a = parse_args(&args(
            "--workload serve_ann --seed 7 --seconds 20 --trace 1",
        ))
        .unwrap();
        assert_eq!(
            a,
            Args {
                workload: "serve_ann",
                seed: 7,
                seconds: 20.0,
                trace: true
            }
        );
        let a = parse_args(&args("--workload train_models --trace 0")).unwrap();
        assert!(!a.trace);
        assert_eq!((a.seed, a.seconds), (1, NOMINAL_SECONDS));
        // The bare flag of the README.
        assert!(
            parse_args(&args("--trace --workload train_models"))
                .unwrap()
                .trace
        );
    }

    #[test]
    fn rejects_bad_input_with_a_message() {
        for bad in [
            "",
            "--workload nope",
            "--workload",
            "--workload serve_ann --seed -1",
            "--workload serve_ann --seconds 0",
            "--workload serve_ann --seconds 61",
            "--workload serve_ann --frobnicate",
        ] {
            let err = parse_args(&args(bad)).unwrap_err();
            assert!(!err.is_empty(), "{bad}");
        }
    }

    #[test]
    fn every_workload_is_routed() {
        for w in WORKLOADS {
            assert_eq!(train_workload(w).is_none(), w == "serve_ann", "{w}");
        }
    }
}
