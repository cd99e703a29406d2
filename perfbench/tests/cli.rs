//! Bad command lines print a message and exit 2, without a panic and
//! without a result line.

use std::process::Command;

fn run(args: &[&str]) -> (Option<i32>, String, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args(args)
        .output()
        .expect("the benchmark binary starts");
    (
        out.status.code(),
        String::from_utf8_lossy(&out.stdout).into_owned(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
    )
}

#[test]
fn bad_input_exits_2_with_a_message() {
    for (args, needle) in [
        (&["--workload", "nope"][..], "unknown workload"),
        (&["--workload", "cell", "--bogus"][..], "unknown argument"),
        (
            &["--workload", "cell", "--seed", "x"][..],
            "non-negative integer",
        ),
        (
            &["--workload", "cell", "--seconds", "-1"][..],
            "non-negative integer",
        ),
        (&["--workload"][..], "needs a value"),
        (&[][..], "--workload is required"),
    ] {
        let (code, stdout, stderr) = run(args);
        assert_eq!(code, Some(2), "{args:?}: {stderr}");
        assert!(stderr.contains(needle), "{args:?}: {stderr}");
        assert!(stderr.contains("usage:"), "{args:?}: {stderr}");
        assert!(!stderr.contains("panicked"), "{args:?}: {stderr}");
        assert!(stdout.is_empty(), "{args:?}: {stdout}");
    }
}

#[test]
fn help_prints_usage_and_succeeds() {
    let (code, stdout, _) = run(&["--help"]);
    assert_eq!(code, Some(0));
    assert!(stdout.contains("--workload"));
}
