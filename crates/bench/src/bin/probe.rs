//! Quick probe: speedups for a few apps across protocols/granularities.
//!
//! ```text
//! probe [--json] [APP ...]
//! probe --help
//! ```
//!
//! Human-readable tables by default; `--json` emits one schema-versioned
//! `"cell"` record per (app, protocol, granularity) cell, in the same
//! JSON-Lines dialect as `diag --json` (every record is self-describing
//! via `type` and `schema` fields). Cell schema v2 adds the Tardis lease
//! counters (`lease_renewals`, `lease_expiries`, `wts_bumps`) as typed
//! fields; they are zero under the other protocols. An unknown application
//! or flag prints one line on stderr and exits 2.
use dsm_apps::registry::app;
use dsm_core::{run_experiment, Protocol, RunConfig};
use dsm_json::Value;
use std::time::Instant;

const USAGE: &str = "\
usage: probe [--json] [APP ...]
       probe --help
APP defaults to lu, ocean-rowwise and volrend-original.";

/// Report a bad invocation on one stderr line and exit 2.
fn usage_error(msg: &str) -> ! {
    eprintln!("probe: {msg} (see probe --help)");
    std::process::exit(2);
}

fn main() {
    let mut json = false;
    let mut names: Vec<String> = Vec::new();
    for a in std::env::args().skip(1) {
        match a.as_str() {
            "--help" | "-h" => {
                println!("{USAGE}");
                return;
            }
            "--json" => json = true,
            flag if flag.starts_with('-') => usage_error(&format!("unknown flag {flag:?}")),
            _ => names.push(a),
        }
    }
    // Reject every unknown name before the first (long) simulation runs.
    if let Some(bad) = names.iter().find(|n| app(n).is_none()) {
        usage_error(&format!("unknown application {bad:?}"));
    }
    if names.is_empty() {
        names = vec![
            "lu".to_string(),
            "ocean-rowwise".into(),
            "volrend-original".into(),
        ];
    }
    for name in names {
        if !json {
            println!("== {name} ==");
        }
        for p in Protocol::ALL {
            let mut row = format!("{:8}", p.name());
            for g in [64usize, 256, 1024, 4096] {
                let t0 = Instant::now();
                let program = app(&name).expect("application validated above");
                let r = run_experiment(&RunConfig::new(p, g), program);
                let elapsed = t0.elapsed().as_secs_f64();
                if json {
                    let t = r.stats.totals();
                    let mut v = Value::obj();
                    v.set("type", "cell");
                    v.set("schema", 2u32);
                    v.set("app", name.as_str());
                    v.set("protocol", p.name());
                    v.set("block", g);
                    v.set("speedup", r.speedup());
                    v.set("check_ok", r.check.is_ok());
                    v.set("parallel_time_ns", r.stats.parallel_time_ns);
                    v.set("sequential_time_ns", r.stats.sequential_time_ns);
                    v.set("lease_renewals", t.lease_renewals);
                    v.set("lease_expiries", t.lease_expiries);
                    v.set("wts_bumps", t.wts_bumps);
                    v.set("host_seconds", elapsed);
                    println!("{v}");
                } else {
                    let ok = if r.check.is_ok() { "" } else { "!ERR" };
                    row += &format!("  {:5.2}{}({:.1}s)", r.speedup(), ok, elapsed);
                }
            }
            if !json {
                println!("{row}");
            }
        }
    }
}
