//! The four workloads, their set-up, and one timed pass over each.
//!
//! Every cell runs with an explicitly built [`RunConfig`] (16 nodes, serial
//! engine, polling, default platform costs), so no environment variable can
//! change what is measured. Cells run one at a time, except in `sweep`,
//! which fans them out over `dsm_bench::pool_map` at `nproc` workers.

use std::str::FromStr;
use std::sync::Arc;
use std::time::Instant;

use dsm_apps::{
    app_sized, AppSize, Barnes, BarnesVariant, Fft, KvZipf, Lu, OceanOriginal, PageRank, RandomDrf,
    VolrendOriginal, WaterNsq,
};
use dsm_core::{
    run_parallel, run_sequential, CostModel, Counters, FabricConfig, LatencyModel, MemImage,
    Notify, Program, Protocol, RunConfig,
};
use dsm_mc::program::{lock_pingpong, msg_pass, MicroProgram};
use dsm_mc::{explore, McConfig, McReport};

use crate::alloc::{self, Allocs};
use crate::digest::{stats_digest, Expected};
use crate::host::{self, Cpu};
use crate::trace::{thread_ordinal, Tracer};

/// The seed picks one of this many input classes for the seeded generators
/// (kv-zipf, pagerank, random-drf and the fault plan), so that the modeled
/// results of every class can be pinned in the committed digest table.
pub const SEED_CLASSES: u64 = 16;

/// Set-up runs this many times per run; `setup_s` is the median.
pub const SETUP_REPEATS: usize = 5;

/// Virtual-time window of the instrumented cells' time series (100 µs).
const SERIES_WINDOW_NS: u64 = 100_000;

/// A benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Long single cells, one at a time, all instrumentation off.
    Cell,
    /// The full app × protocol × granularity grid at Small size.
    Sweep,
    /// Cells from `cell` with checker, recording, spans, series and a
    /// seeded faulty fabric.
    Instrumented,
    /// Exhaustive model checking of two micro-programs on all protocols.
    Mc,
}

impl Workload {
    /// Every workload, in documentation order.
    pub const ALL: [Workload; 4] = [
        Workload::Cell,
        Workload::Sweep,
        Workload::Instrumented,
        Workload::Mc,
    ];

    /// Command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Cell => "cell",
            Workload::Sweep => "sweep",
            Workload::Instrumented => "instrumented",
            Workload::Mc => "mc",
        }
    }
}

impl FromStr for Workload {
    type Err = String;

    fn from_str(s: &str) -> Result<Workload, String> {
        Workload::ALL
            .into_iter()
            .find(|w| w.name() == s)
            .ok_or_else(|| {
                let names: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
                format!(
                    "unknown workload {s:?} (expected one of {})",
                    names.join(", ")
                )
            })
    }
}

/// The benchmark's cell configuration, every field set here.
fn plain_config(protocol: Protocol, block_size: usize) -> RunConfig {
    RunConfig {
        nodes: 16,
        block_size,
        protocol,
        region_policies: Vec::new(),
        profile: false,
        notify: Notify::Polling,
        cost: CostModel::default(),
        latency: LatencyModel::default(),
        first_touch: true,
        obs: Default::default(),
        fabric: FabricConfig::ideal(),
        check: false,
        mutation: None,
        sim_threads: 1,
    }
}

/// `plain_config` with checker, event recording, spans, series and the
/// seeded faulty fabric.
fn instrumented_config(protocol: Protocol, block_size: usize, fault_seed: u64) -> RunConfig {
    plain_config(protocol, block_size)
        .with_check()
        .with_recording()
        .with_spans()
        .with_series(SERIES_WINDOW_NS)
        .with_fabric(FabricConfig::faulty(fault_seed))
}

/// One cell: a program under one configuration, with its digest-table key.
#[derive(Clone)]
pub struct CellSpec {
    /// `<workload>/<app>/<protocol>/<block>`, plus `/s<class>` when the
    /// inputs depend on the seed.
    pub key: String,
    /// The application.
    pub program: Program,
    /// How to run it.
    pub cfg: RunConfig,
}

impl CellSpec {
    fn new(workload: Workload, program: Program, cfg: RunConfig, class: Option<u64>) -> CellSpec {
        let mut key = format!(
            "{}/{}/{}/{}",
            workload.name(),
            program.name(),
            cfg.protocol.name(),
            cfg.block_size
        );
        if let Some(c) = class {
            key.push_str(&format!("/s{c}"));
        }
        CellSpec { key, program, cfg }
    }
}

fn standard(name: &str) -> Program {
    app_sized(name, AppSize::Standard).expect("registered application")
}

fn small(name: &str) -> Program {
    app_sized(name, AppSize::Small).expect("registered application")
}

/// `cell`: eight cells covering every protocol and granularity. lu/HLRC@4096
/// is the Standard-size north-star cell; the others use mid sizes so that a
/// pass takes a few seconds and several passes fit one run. The first cell
/// is the set-up warm-up.
fn cell_specs(class: u64) -> Vec<CellSpec> {
    let w = Workload::Cell;
    let cell = |p: Program, proto, block| CellSpec::new(w, p, plain_config(proto, block), None);
    vec![
        cell(Arc::new(Lu::new(256, 16)), Protocol::Tardis, 4096),
        cell(standard("lu"), Protocol::Hlrc, 4096),
        cell(Arc::new(Fft::new(64)), Protocol::Sc, 64),
        cell(Arc::new(WaterNsq::new(192, 1)), Protocol::SwLrc, 256),
        cell(Arc::new(OceanOriginal::new(128, 3)), Protocol::SwLrc, 1024),
        cell(Arc::new(VolrendOriginal::new(48)), Protocol::Tardis, 256),
        cell(
            Arc::new(Barnes::new(256, 1, BarnesVariant::Partree)),
            Protocol::Hlrc,
            1024,
        ),
        CellSpec::new(
            w,
            Arc::new(KvZipf::new(class + 1, 512, 8_000, 4, 99, 70)),
            plain_config(Protocol::Sc, 256),
            Some(class),
        ),
    ]
}

/// `instrumented`: five of the `cell` cells (all four protocols) with every
/// hook on and the fault plan seeded from the class. The first is the
/// warm-up.
fn instrumented_specs(class: u64) -> Vec<CellSpec> {
    let w = Workload::Instrumented;
    let cell = |p: Program, proto, block| {
        CellSpec::new(
            w,
            p,
            instrumented_config(proto, block, class + 1),
            Some(class),
        )
    };
    vec![
        cell(Arc::new(Fft::new(64)), Protocol::Sc, 64),
        cell(Arc::new(WaterNsq::new(192, 1)), Protocol::SwLrc, 256),
        cell(Arc::new(VolrendOriginal::new(48)), Protocol::Tardis, 256),
        cell(
            Arc::new(Barnes::new(256, 1, BarnesVariant::Partree)),
            Protocol::Hlrc,
            1024,
        ),
        cell(
            Arc::new(KvZipf::new(class + 1, 512, 8_000, 4, 99, 70)),
            Protocol::Sc,
            256,
        ),
    ]
}

/// Cell of the sweep grid used as the set-up warm-up.
const SWEEP_WARMUP: &str = "sweep/barnes-partree/HLRC/1024";

/// `sweep`: the twelve paper apps and the three modern apps (at the Small
/// shapes of `dsm_apps::app_sized`, seeded from the class) × 4 protocols ×
/// 4 granularities.
fn sweep_specs(class: u64) -> Vec<CellSpec> {
    let seed = class + 1;
    let mut apps: Vec<(Program, Option<u64>)> = dsm_apps::all_app_names()
        .into_iter()
        .map(|name| (small(name), None))
        .collect();
    apps.push((
        Arc::new(KvZipf::new(seed, 256, 4_000, 4, 99, 70)),
        Some(class),
    ));
    apps.push((Arc::new(PageRank::new(seed, 96, 4, 3)), Some(class)));
    apps.push((Arc::new(RandomDrf::new(seed, 64, 3, 2)), Some(class)));
    let mut specs = Vec::new();
    for (program, c) in apps {
        for protocol in Protocol::ALL {
            for block in dsm_bench::GRANULARITIES {
                let cfg = plain_config(protocol, block);
                specs.push(CellSpec::new(Workload::Sweep, Arc::clone(&program), cfg, c));
            }
        }
    }
    specs
}

/// The cells of a workload for one seed class (empty for `mc`).
pub fn specs(workload: Workload, class: u64) -> Vec<CellSpec> {
    match workload {
        Workload::Cell => cell_specs(class),
        Workload::Sweep => sweep_specs(class),
        Workload::Instrumented => instrumented_specs(class),
        Workload::Mc => Vec::new(),
    }
}

/// One model-checking job.
pub struct McJob {
    /// `<program>/<protocol>`.
    pub name: String,
    /// Search options.
    pub cfg: McConfig,
    /// The program explored.
    pub program: MicroProgram,
}

/// `mc`: {msg-pass faults=3, lock-pingpong rounds=2 faults=2} × 4 protocols,
/// default DPOR, dedup and checker.
fn mc_jobs() -> Vec<McJob> {
    let mut jobs = Vec::new();
    for (prog_name, program, faults) in [
        ("msg-pass", msg_pass(), 3),
        ("lock-pingpong", lock_pingpong(2), 2),
    ] {
        for protocol in Protocol::ALL {
            jobs.push(McJob {
                name: format!("{prog_name}/{}", protocol.name()),
                cfg: McConfig::new(protocol).with_faults(faults),
                program: program.clone(),
            });
        }
    }
    jobs
}

/// Counts of checked operations and of those that failed a check.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Tally {
    /// Operations whose outputs were checked.
    pub attempted: u64,
    /// Operations that failed a check.
    pub failed: u64,
}

impl Tally {
    fn note(&mut self, ok: bool) {
        self.attempted += 1;
        self.failed += u64::from(!ok);
    }

    /// Field-wise sum.
    pub fn add(&mut self, o: Tally) {
        self.attempted += o.attempted;
        self.failed += o.failed;
    }
}

/// A program's sequential reference result.
pub struct SeqRef {
    image: MemImage,
    time_ns: u64,
}

fn seq_ref(program: &Program) -> SeqRef {
    let (image, time_ns) = run_sequential(program.as_ref());
    SeqRef { image, time_ns }
}

/// What one cell produced.
pub struct CellOutcome {
    /// All checks passed.
    pub ok: bool,
    /// Digest of the modeled results.
    pub digest: u64,
    /// Simulator events.
    pub events: u64,
    /// Host seconds in `run_parallel`.
    pub engine_s: f64,
    /// Counters summed over nodes.
    pub totals: Counters,
}

/// Run one cell and check it: `DsmProgram::check` against the sequential
/// reference (computed here unless given), zero checker violations, and,
/// when a table is given, the digest of its `RunStats`.
pub fn run_cell(
    spec: &CellSpec,
    reference: Option<&SeqRef>,
    expected: Option<&Expected>,
    tracer: &Tracer,
    parent: Option<u64>,
    index: usize,
) -> CellOutcome {
    let cell = Some(index);
    let computed;
    let reference = match reference {
        Some(r) => r,
        None => {
            computed = tracer.span("core.run_sequential", parent, cell, |_| {
                seq_ref(&spec.program)
            });
            &computed
        }
    };
    let t = Instant::now();
    let mut out = tracer.engine_span("core.run_parallel", parent, cell, |_| {
        run_parallel(&spec.cfg, Arc::clone(&spec.program))
    });
    let engine_s = t.elapsed().as_secs_f64();
    out.stats.sequential_time_ns = reference.time_ns;
    let check = tracer.span("core.check", parent, cell, |_| {
        spec.program.check(&reference.image, &out.image)
    });
    let (digest, verdict) = tracer.span("harness.digest", parent, cell, |_| {
        let d = stats_digest(&out.stats);
        (d, expected.map_or(Ok(()), |e| e.verify(&spec.key, d)))
    });
    let problem = match (check, out.violations.first()) {
        (Err(e), _) => Some(format!(
            "parallel image differs from the sequential one: {e}"
        )),
        (Ok(()), Some(v)) => Some(format!(
            "{} checker violation(s), first: {v}",
            out.violations.len()
        )),
        (Ok(()), None) => verdict.err(),
    };
    if let Some(p) = &problem {
        eprintln!("perfbench: FAIL {}: {p}", spec.key);
    }
    CellOutcome {
        ok: problem.is_none(),
        digest,
        events: out.stats.sim_events,
        engine_s,
        totals: out.stats.totals(),
    }
}

/// Run one model-checking job; it passes when the search completed with no
/// violation of any kind.
fn run_mc(job: &McJob, tracer: &Tracer, index: usize) -> (bool, McReport) {
    let report = tracer.span("mc.explore", None, Some(index), |_| {
        explore(&job.cfg, &job.program)
    });
    let ok = report.complete && report.clean();
    if !ok {
        eprintln!(
            "perfbench: FAIL mc/{}: complete={} violations={:?}",
            job.name, report.complete, report.violation_counts
        );
    }
    (ok, report)
}

/// Model-checker totals over a pass.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct McSums {
    /// Completed schedules.
    pub schedules: u64,
    /// Executions started (completed + pruned).
    pub executions: u64,
    /// Distinct commit points expanded.
    pub states: u64,
    /// Executions pruned by sleep sets.
    pub pruned_sleep: u64,
    /// Executions pruned at a visited state.
    pub pruned_dedup: u64,
}

impl McSums {
    fn add(&mut self, r: &McReport) {
        self.schedules += r.schedules;
        self.executions += r.executions();
        self.states += r.states;
        self.pruned_sleep += r.pruned_sleep;
        self.pruned_dedup += r.pruned_dedup;
    }
}

/// Worker-pool occupancy over a sweep pass.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct PoolStats {
    /// Cell seconds over (workers × pool wall seconds).
    pub busy_frac: f64,
    /// Per worker, pool end minus the end of its last cell, summed.
    pub tail_idle_s: f64,
}

/// Everything one timed pass measured.
#[derive(Debug, Clone, Default)]
pub struct PassStats {
    /// Wall seconds.
    pub wall_s: f64,
    /// Process CPU over the pass.
    pub cpu: Cpu,
    /// Pass start and end on the pass tracer's clock.
    pub from_ns: u64,
    /// See `from_ns`.
    pub to_ns: u64,
    /// Checked operations.
    pub tally: Tally,
    /// Simulator events (cell workloads).
    pub events: u64,
    /// Host seconds inside `run_parallel`, summed over cells.
    pub engine_s: f64,
    /// Counters summed over every cell.
    pub totals: Counters,
    /// Model-checker totals (`mc`).
    pub mc: McSums,
    /// Host seconds inside `explore`, summed over jobs.
    pub mc_s: f64,
    /// Pool occupancy (`sweep`).
    pub pool: PoolStats,
    /// Allocations over the pass (counted only when tracing).
    pub allocs: Allocs,
}

impl PassStats {
    fn add_cell(&mut self, o: &CellOutcome) {
        self.tally.note(o.ok);
        self.events += o.events;
        self.engine_s += o.engine_s;
        self.totals.add(&o.totals);
    }
}

/// A workload after set-up: programs built, references computed.
pub struct Bench {
    workload: Workload,
    cells: Vec<CellSpec>,
    references: Vec<SeqRef>,
    mc: Vec<McJob>,
    jobs: usize,
    expected: Expected,
}

impl Bench {
    /// Build the workload's programs (and, for `cell` and `instrumented`,
    /// their sequential references), then run one warm-up cell or job.
    /// Returns the bench and the warm-up's check tally.
    pub fn setup(workload: Workload, seed: u64, jobs: usize, expected: Expected) -> (Bench, Tally) {
        let class = seed % SEED_CLASSES;
        let cells = specs(workload, class);
        let references = match workload {
            Workload::Cell | Workload::Instrumented => {
                cells.iter().map(|s| seq_ref(&s.program)).collect()
            }
            Workload::Sweep | Workload::Mc => Vec::new(),
        };
        let bench = Bench {
            workload,
            cells,
            references,
            mc: mc_jobs(),
            jobs,
            expected,
        };
        let off = Tracer::new(false);
        let mut tally = Tally::default();
        match workload {
            Workload::Cell | Workload::Instrumented => {
                let o = run_cell(
                    &bench.cells[0],
                    Some(&bench.references[0]),
                    Some(&bench.expected),
                    &off,
                    None,
                    0,
                );
                tally.note(o.ok);
            }
            Workload::Sweep => {
                let i = bench
                    .cells
                    .iter()
                    .position(|s| s.key == SWEEP_WARMUP)
                    .expect("the sweep grid holds its warm-up cell");
                let o = run_cell(&bench.cells[i], None, Some(&bench.expected), &off, None, i);
                tally.note(o.ok);
            }
            Workload::Mc => {
                let warm = McJob {
                    name: "warm-up msg-pass/SC".to_string(),
                    cfg: McConfig::new(Protocol::Sc).with_faults(2),
                    program: msg_pass(),
                };
                tally.note(run_mc(&warm, &off, 0).0);
            }
        }
        (bench, tally)
    }

    /// One pass over the workload's cells or jobs.
    pub fn pass(&self, tracer: &Tracer) -> PassStats {
        alloc::set_counting(tracer.is_on());
        let a0 = alloc::snapshot();
        let cpu0 = host::process_cpu();
        let t0 = Instant::now();
        let mut p = PassStats {
            from_ns: tracer.now_ns(),
            ..PassStats::default()
        };
        match self.workload {
            Workload::Cell | Workload::Instrumented => {
                for (i, (spec, r)) in self.cells.iter().zip(&self.references).enumerate() {
                    let o = run_cell(spec, Some(r), Some(&self.expected), tracer, None, i);
                    p.add_cell(&o);
                }
            }
            Workload::Sweep => self.sweep_pass(tracer, &mut p),
            Workload::Mc => {
                for (i, job) in self.mc.iter().enumerate() {
                    let t = Instant::now();
                    let (ok, report) = run_mc(job, tracer, i);
                    p.mc_s += t.elapsed().as_secs_f64();
                    p.tally.note(ok);
                    p.mc.add(&report);
                }
            }
        }
        p.to_ns = tracer.now_ns();
        p.wall_s = t0.elapsed().as_secs_f64();
        p.cpu = host::process_cpu().since(cpu0);
        p.allocs = alloc::snapshot().since(a0);
        alloc::set_counting(false);
        p
    }

    fn sweep_pass(&self, tracer: &Tracer, p: &mut PassStats) {
        let start = Instant::now();
        let results = tracer.span("bench.pool_map", None, None, |pool| {
            dsm_bench::pool_map(self.cells.len(), self.jobs, |i| {
                let from = start.elapsed().as_secs_f64();
                let o = run_cell(
                    &self.cells[i],
                    None,
                    Some(&self.expected),
                    tracer,
                    Some(pool),
                    i,
                );
                (o, thread_ordinal(), from, start.elapsed().as_secs_f64())
            })
        });
        let pool_s = start.elapsed().as_secs_f64();
        let mut last_end: Vec<(u64, f64)> = Vec::new();
        let mut busy_s = 0.0;
        for (o, thread, from, to) in &results {
            p.add_cell(o);
            busy_s += to - from;
            match last_end.iter_mut().find(|(t, _)| t == thread) {
                Some(e) => e.1 = e.1.max(*to),
                None => last_end.push((*thread, *to)),
            }
        }
        let workers = self.jobs.clamp(1, self.cells.len().max(1));
        p.pool = PoolStats {
            busy_frac: busy_s / (workers as f64 * pool_s),
            tail_idle_s: last_end.iter().map(|(_, end)| pool_s - end).sum(),
        };
    }

    /// `instrumented` only: rerun every cell fully instrumented, with the
    /// checker off, and with checker and observability off (the fault plan
    /// stays), timing `run_parallel` each way. Returns the summed checker
    /// and observability costs in seconds and the reruns' check tally
    /// (modeled results must not depend on the hooks, so every rerun must
    /// match the cell's digest).
    pub fn hook_costs(&self) -> (f64, f64, Tally) {
        let off = Tracer::new(false);
        let mut tally = Tally::default();
        let (mut check_s, mut obs_s) = (0.0, 0.0);
        for (i, (spec, r)) in self.cells.iter().zip(&self.references).enumerate() {
            let mut no_check = spec.clone();
            no_check.cfg.check = false;
            let mut plain = no_check.clone();
            plain.cfg.obs = Default::default();
            let mut time = |s: &CellSpec| {
                let o = run_cell(s, Some(r), Some(&self.expected), &off, None, i);
                tally.note(o.ok);
                o.engine_s
            };
            let (full_s, no_check_s, plain_s) = (time(spec), time(&no_check), time(&plain));
            check_s += full_s - no_check_s;
            obs_s += no_check_s - plain_s;
        }
        (check_s, obs_s, tally)
    }
}

/// Run every cell of every seed class once, without digest checks, and
/// return the digest table. Fails if any cell fails its other checks.
pub fn record_digests(jobs: usize) -> Result<Vec<String>, String> {
    let mut table = Expected::default();
    let mut lines = Vec::new();
    let off = Tracer::new(false);
    for workload in [Workload::Cell, Workload::Sweep, Workload::Instrumented] {
        for class in 0..SEED_CLASSES {
            let todo: Vec<CellSpec> = specs(workload, class)
                .into_iter()
                .filter(|s| !table.contains(&s.key))
                .collect();
            let outs = dsm_bench::pool_map(todo.len(), jobs, |i| {
                run_cell(&todo[i], None, None, &off, None, i)
            });
            for (spec, o) in todo.iter().zip(outs) {
                if !o.ok {
                    return Err(format!("{} failed its checks", spec.key));
                }
                table.insert(&spec.key, o.digest);
                lines.push(crate::digest::table_line(&spec.key, o.digest));
            }
        }
    }
    Ok(lines)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn workload_names_round_trip() {
        for w in Workload::ALL {
            assert_eq!(w.name().parse::<Workload>(), Ok(w));
        }
        assert!("cells".parse::<Workload>().is_err());
    }

    #[test]
    fn keys_are_unique_and_seed_classes_differ_only_in_seeded_cells() {
        for w in [Workload::Cell, Workload::Sweep, Workload::Instrumented] {
            let a: Vec<String> = specs(w, 0).into_iter().map(|s| s.key).collect();
            let b: Vec<String> = specs(w, 1).into_iter().map(|s| s.key).collect();
            let mut sorted = a.clone();
            sorted.sort();
            sorted.dedup();
            assert_eq!(sorted.len(), a.len(), "{} keys repeat", w.name());
            for (x, y) in a.iter().zip(&b) {
                assert_eq!(x == y, !x.ends_with("/s0"), "{x} vs {y}");
            }
        }
        assert_eq!(specs(Workload::Sweep, 0).len(), 15 * 4 * 4);
    }

    #[test]
    fn every_cell_config_is_pinned() {
        for w in [Workload::Cell, Workload::Sweep, Workload::Instrumented] {
            for s in specs(w, 3) {
                assert_eq!(s.cfg.sim_threads, 1, "{}", s.key);
                assert_eq!(s.cfg.check, w == Workload::Instrumented, "{}", s.key);
                assert_eq!(s.cfg.obs.spans, w == Workload::Instrumented, "{}", s.key);
                assert_eq!(s.cfg.fabric.is_ideal(), w != Workload::Instrumented);
            }
        }
    }

    fn tiny_cell() -> CellSpec {
        CellSpec::new(
            Workload::Cell,
            small("lu"),
            plain_config(Protocol::Hlrc, 4096),
            None,
        )
    }

    #[test]
    fn an_altered_expected_digest_counts_as_failed() {
        let spec = tiny_cell();
        let off = Tracer::new(false);
        let digest = run_cell(&spec, None, None, &off, None, 0).digest;
        let mut table = Expected::default();
        table.insert(&spec.key, digest);
        assert!(run_cell(&spec, None, Some(&table), &off, None, 0).ok);
        table.insert(&spec.key, digest ^ 1);
        assert!(!run_cell(&spec, None, Some(&table), &off, None, 0).ok);
        assert!(!run_cell(&spec, None, Some(&Expected::default()), &off, None, 0).ok);
    }
}
