//! Regenerates the paper's figures and tables:
//! `paper <artifact>|all|list` (see `sptx_bench::paper`). A usage error —
//! an unknown artifact, or `SPTX_SCALE` or `SPTX_EPOCHS` set to anything but
//! a positive integer — exits 2.

use std::process::ExitCode;

use sptx_bench::paper::{select, Sweep, ARTIFACTS};

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let [arg] = args.as_slice() else {
        eprintln!("usage: paper <artifact>|all|list");
        return ExitCode::from(2);
    };
    if arg == "list" {
        for artifact in &ARTIFACTS {
            println!("{:<8} {}", artifact.name, artifact.caption);
        }
        return ExitCode::SUCCESS;
    }
    let chosen = select(arg).and_then(|chosen| Ok((chosen, Sweep::from_env()?)));
    let (artifacts, mut sweep) = match chosen {
        Ok(chosen) => chosen,
        Err(msg) => {
            eprintln!("paper: {msg}");
            return ExitCode::from(2);
        }
    };
    for (i, artifact) in artifacts.iter().enumerate() {
        if i > 0 {
            println!();
        }
        (artifact.run)(&mut sweep);
    }
    ExitCode::SUCCESS
}
