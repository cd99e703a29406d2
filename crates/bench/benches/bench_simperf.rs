//! Simulator performance harness: events/sec as a tracked metric.
//!
//! Measures host-side simulator throughput on a fixed workload and compares
//! it against the committed baseline in `BENCH_simperf.json` at the repo
//! root, failing on a regression of more than the tolerance (default: 25%
//! below baseline events/sec). Five measurements:
//!
//! * **single cell** — LU / HLRC @ 4096 (standard size), best of three
//!   runs: the simulation hot path (event queue, diffing, protocol tables)
//!   with no sweep-executor effects;
//! * **single cell, observability on** — the same cell with event
//!   recording, causal span tracing and windowed series enabled: the
//!   recorder/span overhead, reported as a percentage (and asserted
//!   bit-identical in modeled behavior — same event count);
//! * **single cell, Tardis** — LU / Tardis @ 4096 (standard size), best of
//!   three: the timestamp-lease hot path (lease renewals, wts bumps,
//!   recall/ack serialization), tracked as `tardis_events_per_sec` so
//!   lease-machinery regressions show up separately from the diff path;
//! * **mini-sweep serial** — 24 cells (lu, fft, water-nsquared × all four
//!   protocols × {256, 4096} bytes) on one worker;
//! * **mini-sweep parallel** — the same 24 cells on the default worker
//!   count, asserted bit-identical to the serial results.
//!
//! Usage:
//!
//! ```text
//! cargo bench --bench bench_simperf                 # measure + guard
//! DSM_SIMPERF_WRITE=1 cargo bench --bench bench_simperf   # refresh baseline
//! DSM_SIMPERF_TOLERANCE=0.5 ...                     # loosen the guard
//! ```
//!
//! Events/sec counts processed simulation events (deterministic per
//! configuration), so the baseline is stable across refactors that do not
//! change modeled behavior; wall time and cells/minute are reported for
//! context but not guarded (they swing with host load and core count).

use std::time::Instant;

use dsm_apps::AppSize;
use dsm_bench::sweep::{default_jobs, run_cell_fresh, run_cells_fresh, CellSpec};
use dsm_core::Protocol;
use dsm_json::Value;

/// The mini-sweep grid: 24 cells.
fn mini_sweep_specs() -> Vec<CellSpec> {
    let mut specs = Vec::new();
    for app in ["lu", "fft", "water-nsquared"] {
        for &p in &Protocol::ALL {
            for g in [256usize, 4096] {
                specs.push(CellSpec::new(app, p, g));
            }
        }
    }
    specs
}

fn baseline_path() -> std::path::PathBuf {
    let mut p = std::path::PathBuf::from(env!("CARGO_MANIFEST_DIR"));
    p.pop();
    p.pop();
    p.push("BENCH_simperf.json");
    p
}

fn main() {
    println!("== Simulator performance (events/sec) ==\n");

    // Single cell: best of three (first run warms allocator and page cache).
    let spec = CellSpec::new("lu", Protocol::Hlrc, 4096);
    let mut best_secs = f64::INFINITY;
    let mut events = 0u64;
    for _ in 0..3 {
        let t0 = Instant::now();
        let cell = run_cell_fresh(&spec, AppSize::Standard);
        let secs = t0.elapsed().as_secs_f64();
        assert!(cell.check_err.is_none(), "single cell failed verification");
        events = cell.stats.sim_events;
        best_secs = best_secs.min(secs);
    }
    let single_eps = events as f64 / best_secs;
    println!(
        "single cell (lu/HLRC@4096): {events} events in {best_secs:.3}s best-of-3 \
         = {single_eps:.0} events/sec"
    );

    // The same cell with the full observability stack on (recorder + spans
    // + series). The hooks must never change modeled behavior, so the event
    // count is asserted identical; the throughput delta is the honest cost
    // of leaving observability enabled.
    let mut obs_best_secs = f64::INFINITY;
    for _ in 0..3 {
        let cfg = dsm_core::RunConfig::new(Protocol::Hlrc, 4096)
            .with_recording()
            .with_spans()
            .with_series(1_000_000);
        let program = dsm_apps::app_sized("lu", AppSize::Standard).unwrap();
        let t0 = Instant::now();
        let r = dsm_core::run_experiment(&cfg, program);
        let secs = t0.elapsed().as_secs_f64();
        assert!(r.check.is_ok(), "obs-on cell failed verification");
        assert_eq!(
            r.stats.sim_events, events,
            "observability hooks changed the simulation event count"
        );
        assert!(
            r.obs.spans.as_ref().is_some_and(|s| !s.is_empty()),
            "spans enabled but none recorded"
        );
        obs_best_secs = obs_best_secs.min(secs);
    }
    let obs_eps = events as f64 / obs_best_secs;
    let obs_overhead_pct = 100.0 * (obs_best_secs / best_secs - 1.0);
    println!(
        "single cell, observability on: {events} events in {obs_best_secs:.3}s best-of-3 \
         = {obs_eps:.0} events/sec ({obs_overhead_pct:+.1}% vs off, bit-identical events)"
    );

    // The same workload under the timestamp-lease protocol. Tracked (not
    // guarded) so regressions on the Tardis hot path — lease renewals,
    // wts bumps, the recall/ack serialization — are visible separately
    // from the HLRC twin/diff path the guarded cell exercises.
    let td_spec = CellSpec::new("lu", Protocol::Tardis, 4096);
    let mut td_best_secs = f64::INFINITY;
    let mut td_events = 0u64;
    for _ in 0..3 {
        let t0 = Instant::now();
        let cell = run_cell_fresh(&td_spec, AppSize::Standard);
        let secs = t0.elapsed().as_secs_f64();
        assert!(cell.check_err.is_none(), "tardis cell failed verification");
        td_events = cell.stats.sim_events;
        td_best_secs = td_best_secs.min(secs);
    }
    let tardis_eps = td_events as f64 / td_best_secs;
    println!(
        "single cell, Tardis (lu/Tardis@4096): {td_events} events in {td_best_secs:.3}s \
         best-of-3 = {tardis_eps:.0} events/sec"
    );

    // Mini-sweep, serial then parallel; must be bit-identical.
    let specs = mini_sweep_specs();
    let t0 = Instant::now();
    let serial = run_cells_fresh(&specs, 1, AppSize::Standard);
    let serial_secs = t0.elapsed().as_secs_f64();
    let jobs = default_jobs();
    let t0 = Instant::now();
    let parallel = run_cells_fresh(&specs, jobs, AppSize::Standard);
    let parallel_secs = t0.elapsed().as_secs_f64();
    for (a, b) in serial.iter().zip(&parallel) {
        assert!(
            a.check_err.is_none(),
            "{} {}@{} failed",
            a.app,
            a.protocol,
            a.block
        );
        assert_eq!(
            a.stats.to_json().to_string(),
            b.stats.to_json().to_string(),
            "parallel sweep diverged from serial on {} {}@{}",
            a.app,
            a.protocol,
            a.block
        );
    }
    let sweep_events: u64 = serial.iter().map(|c| c.stats.sim_events).sum();
    let sweep_eps = sweep_events as f64 / serial_secs;
    let cells_per_min = specs.len() as f64 * 60.0 / parallel_secs;
    println!(
        "mini-sweep ({} cells, {sweep_events} events): serial {serial_secs:.3}s \
         = {sweep_eps:.0} events/sec",
        specs.len()
    );
    println!(
        "mini-sweep parallel ({jobs} jobs): {parallel_secs:.3}s = {cells_per_min:.1} cells/min \
         (speedup {:.2}x, results bit-identical)",
        serial_secs / parallel_secs
    );

    // Emit / guard against the committed baseline.
    let mut out = Value::obj();
    out.set("single_cell", "lu/HLRC@4096 standard, best of 3");
    out.set("single_cell_events", events);
    out.set("single_cell_secs", format!("{best_secs:.3}").as_str());
    out.set("single_cell_events_per_sec", single_eps as u64);
    out.set("obs_on_events_per_sec", obs_eps as u64);
    out.set(
        "obs_overhead_pct",
        format!("{obs_overhead_pct:.1}").as_str(),
    );
    out.set("tardis_cell", "lu/Tardis@4096 standard, best of 3");
    out.set("tardis_cell_events", td_events);
    out.set("tardis_events_per_sec", tardis_eps as u64);
    out.set("mini_sweep_cells", specs.len() as u64);
    out.set("mini_sweep_events", sweep_events);
    out.set(
        "mini_sweep_serial_secs",
        format!("{serial_secs:.3}").as_str(),
    );
    out.set(
        "mini_sweep_parallel_secs",
        format!("{parallel_secs:.3}").as_str(),
    );
    out.set("mini_sweep_jobs", jobs as u64);
    out.set("mini_sweep_events_per_sec", sweep_eps as u64);
    out.set("cells_per_minute", cells_per_min as u64);

    let path = baseline_path();
    if std::env::var("DSM_SIMPERF_WRITE").is_ok() {
        std::fs::write(&path, format!("{out}\n")).expect("write baseline");
        println!("\nwrote new baseline to {}", path.display());
        return;
    }
    let tolerance: f64 = std::env::var("DSM_SIMPERF_TOLERANCE")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(0.75);
    match std::fs::read_to_string(&path)
        .ok()
        .and_then(|t| Value::parse(&t).ok())
    {
        Some(base) => {
            let base_eps =
                base.u64_field("single_cell_events_per_sec")
                    .expect("baseline missing single_cell_events_per_sec") as f64;
            println!(
                "\nguard: {single_eps:.0} events/sec vs baseline {base_eps:.0} \
                 (floor {:.0} = {tolerance} x baseline)",
                base_eps * tolerance
            );
            assert!(
                single_eps >= base_eps * tolerance,
                "simulator throughput regressed: {single_eps:.0} events/sec is below \
                 {:.0} ({tolerance} x committed baseline {base_eps:.0}); if the drop is \
                 expected, refresh with DSM_SIMPERF_WRITE=1",
                base_eps * tolerance
            );
            println!("guard: ok");
        }
        None => {
            println!(
                "\nno baseline at {} — run with DSM_SIMPERF_WRITE=1 to create it",
                path.display()
            );
        }
    }
}
