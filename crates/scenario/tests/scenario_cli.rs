//! Front-door tests for the `scenario` binary: `--help` prints the usage on
//! stdout and succeeds, and every kind of bad invocation exits 2 with a
//! one-line message on stderr instead of the whole usage or a panic. None
//! of these invocations runs a simulation.

use std::path::PathBuf;
use std::process::{Command, Output};

fn scenario(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_scenario"))
        .args(args)
        .output()
        .expect("spawn scenario")
}

fn stderr(out: &Output) -> String {
    String::from_utf8_lossy(&out.stderr).into_owned()
}

#[test]
fn help_prints_usage_and_exits_zero() {
    for flag in ["--help", "-h"] {
        let out = scenario(&[flag]);
        assert_eq!(out.status.code(), Some(0), "{flag}: {}", stderr(&out));
        let text = String::from_utf8_lossy(&out.stdout);
        assert!(text.starts_with("usage: scenario"), "{flag}: {text}");
        assert!(out.stderr.is_empty(), "{flag}: {}", stderr(&out));
    }
}

#[test]
fn bad_input_exits_2_with_one_stderr_line() {
    let malformed: PathBuf = [env!("CARGO_TARGET_TMPDIR"), "scenario_cli_malformed.json"]
        .iter()
        .collect();
    std::fs::write(&malformed, "{\"name\": ").expect("write malformed plan");
    let malformed = malformed.to_str().expect("utf-8 temp path");
    let missing = "scenario_cli_no_such_plan.json";
    let cases: &[&[&str]] = &[
        &["--bogus", "plan.json"],
        &["-x"],
        &["--jobs", "0", "plan.json"],
        &["--jobs", "x", "plan.json"],
        &["--jobs"],
        &["--out"],
        &[],
        &["--print-spec"],
        &[missing],
        &[malformed],
        &["--print-spec", malformed],
    ];
    for args in cases {
        let out = scenario(args);
        let err = stderr(&out);
        assert_eq!(out.status.code(), Some(2), "{args:?}: {err}");
        assert!(!err.contains("panicked"), "{args:?}: {err}");
        assert_eq!(err.lines().count(), 1, "{args:?}: {err}");
        assert!(err.starts_with("scenario: "), "{args:?}: {err}");
        assert!(err.contains("(see scenario --help)"), "{args:?}: {err}");
        assert!(out.stdout.is_empty(), "{args:?} wrote to stdout");
    }
}
