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
