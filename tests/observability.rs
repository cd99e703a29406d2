//! Invariant tests for the observability layer: the per-node execution-time
//! breakdown must partition each node's measured virtual wall time, the
//! event stream must agree with the protocol counters, both exporters must
//! produce valid output, and a ledger of fully instrumented cells pins every
//! exported byte.

use dsm::sim::rng::StableHasher;
use dsm::{run_experiment, FabricConfig, Notify, Protocol, RunConfig};
use dsm_apps::registry::{app_sized, AppSize};
use dsm_json::Value;
use dsm_obs::{chrome_trace, critical_path, jsonl_metrics, series_jsonl, EventKind, TimeBreakdown};

/// Run one (app, protocol) cell with recording on and check every
/// observability invariant.
fn check_cell(app: &str, p: Protocol, block: usize) {
    let program = app_sized(app, AppSize::Small).unwrap();
    let cfg = RunConfig::new(p, block).with_recording();
    let nodes = cfg.nodes;
    let r = run_experiment(&cfg, program);
    assert!(r.check.is_ok(), "{app} {p:?}@{block}: {:?}", r.check);
    assert!(
        r.obs.recorded,
        "{app} {p:?}@{block}: recording was requested"
    );
    assert_eq!(r.obs.nodes.len(), nodes);

    for (i, (obs, c)) in r.obs.nodes.iter().zip(&r.stats.per_node).enumerate() {
        // Breakdown components partition the node's measured wall time
        // (within 1% to absorb rounding at component boundaries).
        let wall = obs.wall_ns();
        assert!(
            wall > 0,
            "{app} {p:?}@{block} node {i}: empty measured region"
        );
        let b = TimeBreakdown::from_counters(c, wall);
        let residual = b.residual_ns().unsigned_abs();
        assert!(
            residual <= wall / 100,
            "{app} {p:?}@{block} node {i}: wall {wall} != accounted {} \
             (residual {residual})\n{}",
            b.accounted_ns(),
            b.render(),
        );
        // The event stream agrees with the protocol counters: every counted
        // action produced exactly one event of its kind (counts are immune
        // to ring overflow, so this is exact).
        let pairs = [
            (EventKind::IDX_MSG_SEND, c.msgs_sent, "msgs_sent"),
            (EventKind::IDX_TWIN_CREATE, c.twins_created, "twins_created"),
            (EventKind::IDX_DIFF_CREATE, c.diffs_created, "diffs_created"),
            (EventKind::IDX_DIFF_APPLY, c.diffs_applied, "diffs_applied"),
            (EventKind::IDX_INVALIDATE, c.invalidations, "invalidations"),
            (
                EventKind::IDX_LEASE_RENEW,
                c.lease_renewals,
                "lease_renewals",
            ),
            (
                EventKind::IDX_LEASE_EXPIRE,
                c.lease_expiries,
                "lease_expiries",
            ),
            (
                EventKind::IDX_LOCAL_FAULT,
                c.local_write_faults,
                "local_write_faults",
            ),
            (EventKind::IDX_LOCK_WAIT, c.lock_acquires, "lock_acquires"),
            (
                EventKind::IDX_FAULT_BEGIN,
                obs.counts[EventKind::IDX_FAULT_END],
                "FaultEnd events",
            ),
        ];
        for (idx, counter, name) in pairs {
            assert_eq!(
                obs.counts[idx],
                counter,
                "{app} {p:?}@{block} node {i}: {} events != {name}",
                EventKind::NAMES[idx],
            );
        }
        // Every remote fault begins once; SC additionally counts a read
        // fault (with no new FaultBegin) for each retry of a read grant
        // poisoned by an in-flight invalidation.
        let begins = obs.counts[EventKind::IDX_FAULT_BEGIN];
        let faults = c.read_faults + c.write_faults;
        if p == Protocol::Sc {
            assert!(
                begins <= faults,
                "{app} {p:?}@{block} node {i}: {begins} FaultBegin > {faults} faults",
            );
        } else {
            assert_eq!(
                begins, faults,
                "{app} {p:?}@{block} node {i}: FaultBegin events != read+write faults",
            );
        }
    }

    // The run produced events worth exporting (any app at small block sizes
    // communicates), and the fault histogram agrees with the fault counter.
    let total_sends: u64 = r
        .obs
        .nodes
        .iter()
        .map(|n| n.counts[EventKind::IDX_MSG_SEND])
        .sum();
    assert!(total_sends > 0, "{app} {p:?}@{block}: no messages recorded");

    // Chrome trace: valid JSON, every record carries ph/pid/name, timed
    // records carry ts/tid, and each node got its own track.
    let trace = chrome_trace(&r.obs);
    let v = Value::parse(&trace).expect("chrome trace must be valid JSON");
    let events = v.get("traceEvents").unwrap().as_arr().unwrap();
    let mut tids = std::collections::BTreeSet::new();
    for ev in events {
        let ph = ev.get("ph").unwrap().as_str().unwrap();
        assert!(ev.get("pid").unwrap().as_u64().is_some());
        assert!(ev.get("name").unwrap().as_str().is_some());
        if ph != "M" {
            assert!(ev.get("ts").unwrap().as_f64().is_some());
            tids.insert(ev.u64_field("tid").unwrap());
        }
    }
    let expect: std::collections::BTreeSet<u64> = (0..nodes as u64).collect();
    assert_eq!(
        tids, expect,
        "{app} {p:?}@{block}: one trace track per node"
    );

    // JSONL metrics: every line parses, one node record per node plus the
    // run record, and the run record's speedup matches the stats.
    let metrics = jsonl_metrics(&r.obs, &r.stats);
    let lines: Vec<Value> = metrics
        .lines()
        .map(|l| Value::parse(l).expect("each JSONL line must parse"))
        .collect();
    assert_eq!(lines.len(), nodes + 1);
    for (i, line) in lines.iter().take(nodes).enumerate() {
        assert_eq!(line.get("type").unwrap().as_str(), Some("node"));
        assert_eq!(line.u64_field("node"), Some(i as u64));
        assert_eq!(
            line.get("breakdown").unwrap().u64_field("wall_ns"),
            Some(r.obs.nodes[i].wall_ns()),
        );
    }
    let run = &lines[nodes];
    assert_eq!(run.get("type").unwrap().as_str(), Some("run"));
    assert_eq!(
        run.u64_field("parallel_time_ns"),
        Some(r.stats.parallel_time_ns)
    );
}

#[test]
fn breakdown_partitions_wall_time_lu() {
    for p in Protocol::ALL {
        check_cell("lu", p, 1024);
    }
}

#[test]
fn breakdown_partitions_wall_time_fft() {
    for p in Protocol::ALL {
        check_cell("fft", p, 1024);
    }
}

#[test]
fn breakdown_partitions_wall_time_barnes_original() {
    // 64-byte blocks: Barnes-Original's false sharing makes the larger
    // granularities much slower to simulate (the paper's point).
    for p in Protocol::ALL {
        check_cell("barnes-original", p, 64);
    }
}

/// A disabled recorder stays disabled end to end: no events stored, but the
/// wall-clock bracketing still feeds the time breakdown.
#[test]
fn default_config_records_no_events() {
    let program = app_sized("lu", AppSize::Small).unwrap();
    let cfg = RunConfig::new(Protocol::Hlrc, 1024);
    let r = run_experiment(&cfg, program);
    assert!(r.check.is_ok());
    assert!(!r.obs.recorded);
    for (obs, c) in r.obs.nodes.iter().zip(&r.stats.per_node) {
        assert!(obs.events.is_empty());
        assert_eq!(obs.counts, [0; EventKind::COUNT]);
        // Bracketing works even without event recording.
        let b = TimeBreakdown::from_counters(c, obs.wall_ns());
        assert!(b.residual_ns().unsigned_abs() <= b.wall_ns / 100);
    }
}

/// The observability ledger's cells: every channel on (checker, event
/// recording, spans, 100 us series, seeded faulty fabric), one cell under
/// interrupts. Together they exercise every [`EventKind`].
const LEDGER_CELLS: [(&str, Protocol, usize, Notify); 5] = [
    ("fft", Protocol::Hlrc, 256, Notify::Polling),
    ("raytrace", Protocol::Hlrc, 1024, Notify::Polling),
    ("water-nsquared", Protocol::Tardis, 256, Notify::Polling),
    ("water-nsquared", Protocol::Sc, 1024, Notify::Interrupt),
    ("lu", Protocol::SwLrc, 1024, Notify::Polling),
];

/// Hashed outputs per ledger cell, in this order.
const LEDGER_OUTPUTS: [&str; 5] = [
    "chrome_trace",
    "jsonl_metrics",
    "series_jsonl",
    "critical_path",
    "violations",
];

/// `StableHasher` fingerprints of each ledger cell's outputs. A change here
/// means an exported byte changed: the run's modeled behaviour or the
/// instrumentation moved.
const LEDGER: [[u64; 5]; 5] = [
    [
        0x2562e920e8e6d1d3,
        0xe260ed0c0ef5b97e,
        0xf9ba312beb869e7c,
        0x5bb5609f64768589,
        0x238275bc38fcbe91,
    ],
    [
        0x167e9c979d62ae14,
        0x9fe861a5e281bffc,
        0xe6113e5b94a9c97b,
        0x2e41ad994668b548,
        0x238275bc38fcbe91,
    ],
    [
        0x6e7dcf1f03edb1d6,
        0x852c554d732820a9,
        0x82951632e4b1aaf2,
        0x238c6b34f5d84a53,
        0x238275bc38fcbe91,
    ],
    [
        0x23208b32a75bf5e0,
        0x6f14d9c0fed37b6d,
        0x6cc1804d8aea2bcf,
        0x3579479d65687831,
        0x238275bc38fcbe91,
    ],
    [
        0x1688585873b158b1,
        0xa69f39b5d9c4697b,
        0x7cc94e89d70caeb1,
        0x24022a37ebefd1ae,
        0x238275bc38fcbe91,
    ],
];

#[test]
fn observability_ledger_pins_every_export() {
    let mut kinds = [0u64; EventKind::COUNT];
    let mut actual = Vec::new();
    for (app, p, block, notify) in LEDGER_CELLS {
        let program = app_sized(app, AppSize::Small).unwrap();
        let cfg = RunConfig::new(p, block)
            .with_notify(notify)
            .with_check()
            .with_recording()
            .with_spans()
            .with_series(100_000)
            .with_fabric(FabricConfig::faulty(3));
        let r = run_experiment(&cfg, program);
        assert!(r.check.is_ok(), "{app} {p:?}@{block}: {:?}", r.check);
        for n in &r.obs.nodes {
            for (k, c) in kinds.iter_mut().zip(&n.counts) {
                *k += c;
            }
        }
        let critpath = critical_path(&r.obs, r.stats.parallel_time_ns)
            .map(|cp| cp.to_json(10).to_string())
            .unwrap_or_default();
        actual.push([
            StableHasher::fingerprint(&chrome_trace(&r.obs)),
            StableHasher::fingerprint(&jsonl_metrics(&r.obs, &r.stats)),
            StableHasher::fingerprint(&series_jsonl(&r.obs)),
            StableHasher::fingerprint(&critpath),
            StableHasher::fingerprint(&r.violations),
        ]);
    }
    let missing: Vec<&str> = (0..EventKind::COUNT)
        .filter(|&i| kinds[i] == 0)
        .map(|i| EventKind::NAMES[i])
        .collect();
    assert!(
        missing.is_empty(),
        "no ledger cell produced {missing:?} events"
    );
    let mut mismatches = String::new();
    for (c, (got, want)) in actual.iter().zip(&LEDGER).enumerate() {
        let (app, p, block, notify) = LEDGER_CELLS[c];
        for (o, name) in LEDGER_OUTPUTS.iter().enumerate() {
            if got[o] != want[o] {
                mismatches += &format!(
                    "  {app} {p:?}@{block} {notify:?}: {name} {:#018x} != {:#018x}\n",
                    got[o], want[o]
                );
            }
        }
    }
    if !mismatches.is_empty() {
        let mut table = String::from("const LEDGER: [[u64; 5]; 5] = [\n");
        for row in &actual {
            let cells: Vec<String> = row.iter().map(|h| format!("{h:#018x}")).collect();
            table += &format!("    [{}],\n", cells.join(", "));
        }
        table += "];";
        panic!("observability ledger mismatch:\n{mismatches}actual table:\n{table}");
    }
}
