//! `sptx` — command-line trainer for SparseTransX models.
//!
//! See `sptx help` for usage.

use std::io::{ErrorKind, Write};

use sptransx_repro::cli;

fn main() {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let result = cli::parse_args(&raw).and_then(|args| cli::run(&args));
    match result {
        Ok(message) => {
            // `sptx … | head`: a reader that hangs up early got what it
            // wanted — a quiet exit 0, not `println!`'s panic.
            let mut out = std::io::stdout().lock();
            match writeln!(out, "{message}").and_then(|()| out.flush()) {
                Err(e) if e.kind() != ErrorKind::BrokenPipe => {
                    eprintln!("sptx: cannot write the report: {e}");
                    std::process::exit(1);
                }
                _ => {}
            }
        }
        Err(e) => {
            eprintln!("{e}");
            std::process::exit(2);
        }
    }
}
