//! The `paper` binary as a process: its exit status and messages.

use std::process::{Command, Output};

use sptx_bench::paper::ARTIFACTS;

fn paper(arg: &str, env: &[(&str, &str)]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_paper"))
        .arg(arg)
        .env_remove("SPTX_SCALE")
        .env_remove("SPTX_EPOCHS")
        .envs(env.iter().copied())
        .output()
        .unwrap()
}

#[test]
fn list_prints_the_twelve_artifacts_and_exits_0() {
    let out = paper("list", &[]);
    assert_eq!(out.status.code(), Some(0));
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert_eq!(stdout.lines().count(), 12, "{stdout}");
    assert!(stdout.starts_with("figure2 "), "{stdout}");
}

#[test]
fn an_unknown_artifact_exits_2_listing_the_valid_names() {
    let out = paper("table4", &[]);
    assert_eq!(out.status.code(), Some(2));
    let stderr = String::from_utf8(out.stderr).unwrap();
    assert!(stderr.contains("\"table4\""), "{stderr}");
    for artifact in &ARTIFACTS {
        assert!(stderr.contains(artifact.name), "{stderr}");
    }
    assert!(out.stdout.is_empty());
}

#[test]
fn a_bad_setting_exits_2_naming_the_variable_and_the_value() {
    for (var, value) in [
        ("SPTX_SCALE", "0"),
        ("SPTX_SCALE", "abc"),
        ("SPTX_SCALE", ""),
        ("SPTX_EPOCHS", "-1"),
        ("SPTX_EPOCHS", "1.5"),
    ] {
        let out = paper("table7", &[(var, value)]);
        assert_eq!(out.status.code(), Some(2), "{var}={value}");
        let stderr = String::from_utf8(out.stderr).unwrap();
        assert!(
            stderr.contains(var) && stderr.contains(&format!("\"{value}\"")),
            "{stderr}"
        );
        assert!(out.stdout.is_empty(), "{var}={value} ran");
    }
}

/// Figure 2 lists every op of each model's run, ordered by share of time:
/// the order may change between runs, the set of `(op, calls)` pairs may
/// not.
#[test]
fn figure2_lists_the_same_ops_on_every_run() {
    let ops = || {
        let out = paper("figure2", &[("SPTX_SCALE", "2000"), ("SPTX_EPOCHS", "1")]);
        assert_eq!(out.status.code(), Some(0));
        let (mut table, mut rows) = (String::new(), Vec::new());
        for line in String::from_utf8(out.stdout).unwrap().lines() {
            if let Some(title) = line.strip_prefix("## ") {
                table = title.to_string();
            }
            let cells: Vec<&str> = line.split('|').map(str::trim).collect();
            if let [_, op, _, calls, _] = cells[..] {
                if op.starts_with("op::") {
                    rows.push((table.clone(), op.to_string(), calls.to_string()));
                }
            }
        }
        rows.sort();
        rows
    };
    let first = ops();
    assert!(first.len() > 8 * 5, "{first:?}");
    assert_eq!(first, ops());
}
