//! Front-door tests for the `diag` binary: `--help` prints the usage and
//! succeeds, and every kind of bad input exits 2 with a one-line message on
//! stderr instead of a panic. None of these invocations runs a simulation.

use std::process::{Command, Output};

fn diag(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_diag"))
        .args(args)
        .env_remove("DSM_FABRIC")
        .output()
        .expect("spawn diag")
}

fn stderr(out: &Output) -> String {
    String::from_utf8_lossy(&out.stderr).into_owned()
}

#[test]
fn help_prints_usage_and_exits_zero() {
    for flag in ["--help", "-h"] {
        let out = diag(&[flag]);
        assert_eq!(out.status.code(), Some(0), "{flag}: {}", stderr(&out));
        let text = String::from_utf8_lossy(&out.stdout);
        assert!(text.starts_with("usage: diag"), "{flag}: {text}");
        assert!(!stderr(&out).contains("panicked"), "{flag}");
    }
}

#[test]
fn bad_input_exits_2_with_one_stderr_line() {
    let cases: &[&[&str]] = &[
        &["nosuchapp"],
        &["lu", "nosuchproto"],
        &["lu", "sc", "100"],
        &["lu", "sc", "4"],
        &["lu", "sc", "0"],
        &["lu", "sc", "big"],
        &["lu", "sc", "64", "--bogus"],
        &["-x"],
        &["lu", "sc", "64", "extra"],
        &["--sweep", "nosuchapp"],
    ];
    for args in cases {
        let out = diag(args);
        let err = stderr(&out);
        assert_eq!(out.status.code(), Some(2), "{args:?}: {err}");
        assert!(!err.contains("panicked"), "{args:?}: {err}");
        assert_eq!(err.lines().count(), 1, "{args:?}: {err}");
        assert!(out.stdout.is_empty(), "{args:?} wrote to stdout");
    }
}
