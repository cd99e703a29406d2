//! `scenario` — run declarative JSON scenario plans.
//!
//! ```text
//! scenario [--jobs N] [--out FILE] [--print-spec] PLAN.json [PLAN.json ...]
//! scenario --help
//! ```
//!
//! Each plan is parsed strictly (syntax errors name the line/column, shape
//! errors a field path), executed over the bench worker pool, and emitted
//! as schema-versioned JSONL on stdout (or `--out`): a header record, one
//! record per repetition, and a mean/min/max aggregate. Progress goes to
//! stderr. `--help` prints the synopsis. Exit status: 0 when every
//! repetition of every plan verified with zero checker violations, 1 on any
//! verification failure or violation, 2 on bad usage (an unknown flag, a
//! bad `--jobs`, a missing `--out` value, no plan, or a plan that is
//! missing or does not parse), reported on one stderr line.

use std::process::ExitCode;

use dsm_scenario::{run_scenario, ScenarioSpec};

const USAGE: &str = "\
usage: scenario [--jobs N] [--out FILE] [--print-spec] PLAN.json [PLAN.json ...]
       scenario --help

--jobs N       worker-pool width for repetitions (default: DSM_BENCH_JOBS
               or the machine's available parallelism)
--out FILE     write the JSONL to FILE instead of stdout
--print-spec   parse + validate only; print each plan's canonical JSON";

/// Report a bad invocation on one stderr line and exit 2.
fn usage_error(msg: &str) -> ExitCode {
    eprintln!("scenario: {msg} (see scenario --help)");
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let mut jobs = dsm_bench::default_jobs();
    let mut out_path: Option<String> = None;
    let mut print_spec = false;
    let mut files: Vec<String> = Vec::new();

    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--jobs" => match args.next().and_then(|v| v.parse::<usize>().ok()) {
                Some(n) if n >= 1 => jobs = n,
                _ => return usage_error("--jobs requires a positive integer"),
            },
            "--out" => match args.next() {
                Some(p) => out_path = Some(p),
                None => return usage_error("--out requires a file path"),
            },
            "--print-spec" => print_spec = true,
            "--help" | "-h" => {
                println!("{USAGE}");
                return ExitCode::SUCCESS;
            }
            flag if flag.starts_with('-') => return usage_error(&format!("unknown flag {flag:?}")),
            _ => files.push(a),
        }
    }
    if files.is_empty() {
        return usage_error("no plan files given");
    }

    // Parse every plan up front so a typo in the last file fails before
    // hours of simulation on the first.
    let mut specs: Vec<ScenarioSpec> = Vec::new();
    for f in &files {
        let text = match std::fs::read_to_string(f) {
            Ok(t) => t,
            Err(e) => return usage_error(&format!("{f}: {e}")),
        };
        match ScenarioSpec::parse(&text) {
            Ok(s) => specs.push(s),
            Err(e) => return usage_error(&format!("{f}: {e}")),
        }
    }

    let mut output = String::new();
    let mut all_ok = true;
    for (f, spec) in files.iter().zip(&specs) {
        if print_spec {
            output.push_str(&spec.to_json().to_string());
            output.push('\n');
            continue;
        }
        eprintln!(
            "scenario {}: {} x{} on {} nodes ({} jobs) ...",
            spec.name, spec.app.name, spec.reps, spec.nodes, jobs
        );
        let out = match run_scenario(spec, jobs) {
            Ok(o) => o,
            Err(e) => {
                eprintln!("scenario: {f}: {e}");
                return ExitCode::from(2);
            }
        };
        let failed = out.reps.iter().filter(|r| r.check_err.is_some()).count();
        let violations: usize = out.reps.iter().map(|r| r.violations).sum();
        eprintln!(
            "scenario {}: {} rep(s), {} check failure(s), {} violation(s)",
            spec.name,
            out.reps.len(),
            failed,
            violations
        );
        for r in out.reps.iter().filter(|r| !r.violation_details.is_empty()) {
            for d in &r.violation_details {
                eprintln!("  rep {} seed {:#x}: {d}", r.rep, r.seed);
            }
        }
        all_ok &= out.ok();
        output.push_str(&out.jsonl());
    }

    match &out_path {
        Some(p) => {
            if let Err(e) = std::fs::write(p, &output) {
                eprintln!("scenario: {p}: {e}");
                return ExitCode::from(2);
            }
        }
        None => print!("{output}"),
    }
    if all_ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
