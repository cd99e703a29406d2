//! Front-door tests for the `probe` binary: `--help` prints the usage and
//! succeeds, and an unknown application or flag exits 2 with a one-line
//! message on stderr instead of a panic. None of these invocations runs a
//! simulation.

use std::process::{Command, Output};

fn probe(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_probe"))
        .args(args)
        .output()
        .expect("spawn probe")
}

fn stderr(out: &Output) -> String {
    String::from_utf8_lossy(&out.stderr).into_owned()
}

#[test]
fn help_prints_usage_and_exits_zero() {
    for flag in ["--help", "-h"] {
        let out = probe(&[flag]);
        assert_eq!(out.status.code(), Some(0), "{flag}: {}", stderr(&out));
        let text = String::from_utf8_lossy(&out.stdout);
        assert!(text.starts_with("usage: probe"), "{flag}: {text}");
        assert!(!stderr(&out).contains("panicked"), "{flag}");
    }
}

#[test]
fn bad_input_exits_2_with_one_stderr_line() {
    let cases: &[&[&str]] = &[
        &["nosuchapp"],
        &["lu", "nosuchapp"],
        &["--json", "nosuchapp"],
        &["--bogus"],
        &["-x"],
        &["lu", "--bogus"],
    ];
    for args in cases {
        let out = probe(args);
        let err = stderr(&out);
        assert_eq!(out.status.code(), Some(2), "{args:?}: {err}");
        assert!(!err.contains("panicked"), "{args:?}: {err}");
        assert_eq!(err.lines().count(), 1, "{args:?}: {err}");
        assert!(out.stdout.is_empty(), "{args:?} wrote to stdout");
    }
}
