//! Run harness: execute a program on the simulated cluster (or
//! sequentially) and collect results.

use std::sync::Arc;

use dsm_fabric::FabricConfig;
use dsm_mem::Layout;
use dsm_net::{CostModel, LatencyModel, Notify};
use dsm_obs::{ObsConfig, ObsReport, SharingProfile};
use dsm_proto::{final_image, ProtoConfig, ProtoWorld, Protocol};
use dsm_sim::engine::{run_cluster_counted, NodeBody, NodeCtx};
use dsm_stats::{RegionCounters, RunStats};

use crate::api::Dsm;
use crate::image::MemImage;
use crate::seq::SeqDsm;
use crate::thread::DsmThread;
use crate::{DsmProgram, Program};

/// The coherence policy assigned to one named region in a mixed-mode run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RegionPolicy {
    /// Region name (matched against the program's [`crate::RegionHint`]s).
    pub name: String,
    /// Consistency protocol for the region.
    pub protocol: Protocol,
    /// Coherence granularity for the region, in bytes.
    pub block: usize,
}

impl RegionPolicy {
    /// Convenience constructor.
    pub fn new(name: &str, protocol: Protocol, block: usize) -> Self {
        RegionPolicy {
            name: name.to_string(),
            protocol,
            block,
        }
    }
}

/// Configuration of one parallel run.
#[derive(Debug, Clone)]
pub struct RunConfig {
    /// Cluster size (the paper's testbed: 16).
    pub nodes: usize,
    /// Coherence granularity in bytes (64 / 256 / 1024 / 4096).
    pub block_size: usize,
    /// Consistency protocol.
    pub protocol: Protocol,
    /// Per-region policy overrides. Empty = uniform run: one region under
    /// (`protocol`, `block_size`). Non-empty = mixed mode: the program's
    /// region hints become layout regions, each under its matching policy
    /// (unmatched regions fall back to the run's defaults).
    pub region_policies: Vec<RegionPolicy>,
    /// Record a complete per-64-byte-unit sharing profile (used by the
    /// adaptive runtime's profiling pass).
    pub profile: bool,
    /// Message notification mechanism.
    pub notify: Notify,
    /// Platform cost constants.
    pub cost: CostModel,
    /// Network latency model.
    pub latency: LatencyModel,
    /// First-touch home migration (paper policy). False = static homes.
    pub first_touch: bool,
    /// Observability: event recording configuration.
    pub obs: ObsConfig,
    /// Network fabric model: NI occupancy, contention, fault injection and
    /// retransmission. The default ([`FabricConfig::ideal`]) reproduces the
    /// analytic fire-and-forget network bit-for-bit.
    pub fabric: FabricConfig,
    /// Install the happens-before race detector and protocol invariant
    /// checker (`dsm-check`) on the run. Defaults to the `DSM_CHECK`
    /// environment variable; off means zero checking cost and bit-identical
    /// results to a build without the checker.
    pub check: bool,
    /// Deliberate protocol mutation for checker self-tests: which mutation
    /// and the seed selecting the occurrence. The mutation *sites* are only
    /// compiled under the `mutate` feature; without it this field is inert.
    pub mutation: Option<(dsm_proto::Mutation, u64)>,
    /// Simulator worker-thread count. The engine is serial-only, so this
    /// must be 1 (the default); any other value is rejected when the run
    /// starts. Kept as a field so configurations written as struct literals
    /// stay valid.
    pub sim_threads: usize,
}

impl RunConfig {
    /// 16 nodes, polling, default platform parameters.
    pub fn new(protocol: Protocol, block_size: usize) -> Self {
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
            obs: ObsConfig {
                spans: std::env::var("DSM_SPANS").is_ok_and(|v| !v.is_empty() && v != "0"),
                ..ObsConfig::default()
            },
            fabric: FabricConfig::ideal(),
            check: std::env::var("DSM_CHECK").is_ok_and(|v| !v.is_empty() && v != "0"),
            mutation: None,
            sim_threads: 1,
        }
    }

    /// Same configuration with per-region policy overrides (mixed mode).
    pub fn with_region_policies(mut self, policies: Vec<RegionPolicy>) -> Self {
        self.region_policies = policies;
        self
    }

    /// Same configuration with sharing-profile collection enabled.
    pub fn with_profile(mut self) -> Self {
        self.profile = true;
        self
    }

    /// Same configuration with static (non-migrating) homes.
    pub fn with_static_homes(mut self) -> Self {
        self.first_touch = false;
        self
    }

    /// Same configuration with a different cluster size.
    pub fn with_nodes(mut self, nodes: usize) -> Self {
        self.nodes = nodes;
        self
    }

    /// Same configuration with a different notification mechanism.
    pub fn with_notify(mut self, notify: Notify) -> Self {
        self.notify = notify;
        self
    }

    /// Same configuration with full event recording enabled.
    pub fn with_recording(mut self) -> Self {
        let spans = self.obs.spans;
        let series_window_ns = self.obs.series_window_ns;
        self.obs = ObsConfig {
            spans,
            series_window_ns,
            ..ObsConfig::recording()
        };
        self
    }

    /// Same configuration with causal span tracing enabled (also settable
    /// via the `DSM_SPANS` environment variable). Spans never charge
    /// virtual time: results stay bit-identical to a spans-off run.
    pub fn with_spans(mut self) -> Self {
        self.obs.spans = true;
        self
    }

    /// Same configuration with windowed time-series collection enabled at
    /// the given window width (virtual nanoseconds).
    pub fn with_series(mut self, window_ns: u64) -> Self {
        self.obs.series_window_ns = window_ns;
        self
    }

    /// Same configuration with a different network fabric model.
    pub fn with_fabric(mut self, fabric: FabricConfig) -> Self {
        self.fabric = fabric;
        self
    }

    /// Same configuration with the race detector and invariant checker on.
    pub fn with_check(mut self) -> Self {
        self.check = true;
        self
    }

    /// Same configuration with a deliberate protocol mutation installed
    /// (checker self-tests; requires the `mutate` feature to have effect).
    pub fn with_mutation(mut self, m: dsm_proto::Mutation, seed: u64) -> Self {
        self.mutation = Some((m, seed));
        self
    }
}

/// What one region looked like in a finished run: its layout, its policy,
/// and the counters attributed to it.
#[derive(Debug, Clone)]
pub struct RegionReport {
    /// Region name.
    pub name: String,
    /// Start address within the shared space.
    pub start: usize,
    /// Region length in bytes.
    pub len: usize,
    /// Coherence granularity used, in bytes.
    pub block: usize,
    /// Protocol used.
    pub protocol: Protocol,
    /// Faults / invalidations / traffic attributed to the region (summed
    /// over nodes).
    pub counters: RegionCounters,
}

/// Everything a parallel run produces.
#[derive(Debug)]
pub struct RunOutcome {
    /// Per-node counters and timings. `sequential_time_ns` is zero here;
    /// [`run_experiment`] fills it in.
    pub stats: RunStats,
    /// Final authoritative memory image.
    pub image: MemImage,
    /// Per-node event streams, histograms, and measured wall intervals.
    pub obs: ObsReport,
    /// Per-region layout, policy, and counters (one entry per layout
    /// region; a uniform run has a single `"shared"` region).
    pub regions: Vec<RegionReport>,
    /// Complete sharing profile, present when [`RunConfig::profile`] is set.
    pub profile: Option<SharingProfile>,
    /// Checker findings, when [`RunConfig::check`] was set (empty on a
    /// clean run and always empty with the checker off).
    pub violations: Vec<dsm_proto::Violation>,
}

/// The region spans a mixed-mode run would carve the shared space into,
/// given an alignment: `(name, start, len)` triples covering the whole
/// (rounded-up) space in address order.
///
/// Region starts are snapped *down* to `align` so every span is a multiple
/// of every candidate granularity; hints that collapse onto the same
/// boundary are superseded by the later one, and a leading uncovered range
/// becomes an implicit `"head"` region. This is the exact carving
/// [`run_parallel`] performs, exposed so policy engines can aggregate
/// profile data over the same spans.
pub fn planned_regions(program: &dyn DsmProgram, align: usize) -> Vec<(String, usize, usize)> {
    let size = program.shared_bytes().div_ceil(align) * align;
    let mut hints = program.regions();
    hints.sort_by_key(|h| h.addr);
    let mut cuts: Vec<(usize, String)> = Vec::new();
    for h in &hints {
        let start = h.addr / align * align;
        if start >= size {
            continue;
        }
        match cuts.last_mut() {
            Some(last) if last.0 == start => last.1 = h.name.clone(),
            _ => cuts.push((start, h.name.clone())),
        }
    }
    if cuts.first().is_none_or(|c| c.0 != 0) {
        cuts.insert(0, (0, "head".to_string()));
    }
    (0..cuts.len())
        .map(|i| {
            let end = cuts.get(i + 1).map_or(size, |c| c.0);
            (cuts[i].1.clone(), cuts[i].0, end - cuts[i].0)
        })
        .collect()
}

/// Build the run's memory layout and the per-region protocol list from the
/// program's region hints and the configured policies.
///
/// The carving is [`planned_regions`] at the largest block size in play
/// (at least 4096); each span gets its matching policy's protocol and
/// granularity, or the run's defaults when no policy names it.
fn build_layout(cfg: &RunConfig, program: &dyn DsmProgram) -> (Layout, Vec<Protocol>) {
    if cfg.region_policies.is_empty() {
        return (
            Layout::new(program.shared_bytes(), cfg.block_size),
            Vec::new(),
        );
    }
    let align = cfg
        .region_policies
        .iter()
        .map(|p| p.block)
        .chain([cfg.block_size, 4096])
        .max()
        .unwrap();
    let spans = planned_regions(program, align);
    let size = program.shared_bytes().div_ceil(align) * align;
    let mut parts: Vec<(String, usize, usize)> = Vec::new();
    let mut protos: Vec<Protocol> = Vec::new();
    for (name, start, _len) in &spans {
        let (protocol, block) = match cfg.region_policies.iter().find(|p| &p.name == name) {
            Some(p) => (p.protocol, p.block),
            None => (cfg.protocol, cfg.block_size),
        };
        parts.push((name.clone(), *start, block));
        protos.push(protocol);
    }
    (Layout::with_regions(size, &parts), protos)
}

/// Run `program` once under the model checker's controlled scheduler.
///
/// Identical to [`run_parallel`] except that the engine runs strictly
/// serial with `hook` deciding every commit-point tie, and `fault_oracle`
/// (when given) replaces the fabric's seeded fault dice with explicit
/// per-transmission decisions. The hook may abort the run mid-schedule by
/// returning `None`, which panics with [`dsm_sim::MC_PRUNE`]; callers are
/// expected to wrap this in `catch_unwind`.
pub fn run_parallel_mc(
    cfg: &RunConfig,
    program: Program,
    hook: Box<dyn dsm_sim::McHook<ProtoWorld>>,
    fault_oracle: Option<dsm_fabric::FaultOracle>,
) -> RunOutcome {
    run_parallel_inner(cfg, program, Some((hook, fault_oracle)))
}

/// Run `program` on the simulated cluster under `cfg`.
pub fn run_parallel(cfg: &RunConfig, program: Program) -> RunOutcome {
    run_parallel_inner(cfg, program, None)
}

type McDrive = (
    Box<dyn dsm_sim::McHook<ProtoWorld>>,
    Option<dsm_fabric::FaultOracle>,
);

fn run_parallel_inner(cfg: &RunConfig, program: Program, mc: Option<McDrive>) -> RunOutcome {
    assert_eq!(
        cfg.sim_threads, 1,
        "RunConfig::sim_threads must be 1: the simulation engine is serial-only"
    );
    let (layout, region_protocols) = build_layout(cfg, program.as_ref());
    let size = layout.size();
    let pcfg = ProtoConfig {
        nodes: cfg.nodes,
        layout,
        protocol: cfg.protocol,
        region_protocols,
        profile: cfg.profile,
        notify: cfg.notify,
        cost: cfg.cost.clone(),
        latency: cfg.latency.clone(),
        poll_inflation_pct: program.poll_inflation_pct(),
        first_touch: cfg.first_touch,
        obs: cfg.obs.clone(),
        fabric: cfg.fabric.clone(),
        mutation: cfg.mutation,
    };
    let mut world = ProtoWorld::new(pcfg);
    if cfg.check {
        world.sink.check = Some(Box::new(dsm_check::RunChecker::new(
            &program.name(),
            cfg.nodes,
            world.cfg.layout.clone(),
            world.region_proto.clone(),
            cfg.fabric.reliable(),
        )));
    }
    let mut golden = MemImage::new(size);
    program.init(&mut golden);
    world.load_golden(golden.bytes());

    let inflation = match cfg.notify {
        Notify::Polling => program.poll_inflation_pct(),
        Notify::Interrupt => 0,
    };
    let bodies: Vec<NodeBody<ProtoWorld>> = (0..cfg.nodes)
        .map(|_| {
            let prog = Arc::clone(&program);
            Box::new(move |ctx: &mut NodeCtx<ProtoWorld>| {
                let mut t = DsmThread::new(ctx, inflation);
                prog.warmup(&mut t);
                t.barrier(WARMUP_BARRIER);
                t.begin_measurement();
                prog.run(&mut t);
                t.flush();
                let me = ctx.node();
                ctx.world(move |w, s| w.sink.obs.note_end(me, s.now()));
            }) as NodeBody<ProtoWorld>
        })
        .collect();

    let (mut world, end, sim_events) = match mc {
        Some((hook, oracle)) => {
            if let Some(o) = oracle {
                world.fabric.set_fault_oracle(o);
            }
            let install = dsm_sim::McInstall {
                hook,
                msg_hash: Box::new(|to, pkt: &dsm_proto::Packet| {
                    dsm_sim::rng::StableHasher::fingerprint(&(to, pkt))
                }),
            };
            dsm_sim::run_cluster_mc(world, bodies, install)
        }
        None => run_cluster_counted(world, bodies),
    };
    // Under a reliable fabric the engine keeps advancing through drained
    // retransmission timers after the last node finishes; the application
    // quiesced at the last App delivery, not at the engine's end time.
    let end = if cfg.fabric.reliable() {
        world.quiesce.max(world.measure_start).min(end)
    } else {
        end
    };
    let obs = world.sink.obs.take_report();
    let regions = world
        .cfg
        .layout
        .regions()
        .iter()
        .enumerate()
        .map(|(i, r)| RegionReport {
            name: r.name().to_string(),
            start: r.start(),
            len: r.len(),
            block: r.block_size(),
            protocol: world.region_proto[i],
            counters: world.sink.region_stats[i].clone(),
        })
        .collect();
    let profile = world.sink.profile.take();
    let violations = world.sink.take_violations(end);
    RunOutcome {
        stats: RunStats {
            per_node: world.sink.stats.clone(),
            parallel_time_ns: end.saturating_sub(world.measure_start),
            sequential_time_ns: 0,
            sim_events,
        },
        image: MemImage::from_bytes(final_image(&world)),
        obs,
        regions,
        profile,
        violations,
    }
}

/// Run `program` sequentially (one node, plain memory). Returns the final
/// image and the modeled execution time.
pub fn run_sequential(program: &dyn DsmProgram) -> (MemImage, u64) {
    let layout = Layout::new(program.shared_bytes(), 4096);
    let mut golden = MemImage::new(layout.size());
    program.init(&mut golden);
    let mut d = SeqDsm::new(golden);
    program.warmup(&mut d);
    d.begin_measurement();
    program.run(&mut d);
    let t = d.time_ns();
    (d.into_image(), t)
}

/// Barrier id reserved for the warm-up/measurement boundary.
pub const WARMUP_BARRIER: usize = 990_001;

/// A complete experiment: parallel run + sequential baseline + verification.
#[derive(Debug)]
pub struct ExperimentResult {
    /// Program name.
    pub name: String,
    /// The configuration used.
    pub config: RunConfig,
    /// Statistics with the sequential baseline filled in.
    pub stats: RunStats,
    /// Result of checking the parallel image against the sequential one.
    pub check: Result<(), String>,
    /// Observability report from the parallel run.
    pub obs: ObsReport,
    /// Per-region layout, policy, and counters.
    pub regions: Vec<RegionReport>,
    /// Sharing profile, when [`RunConfig::profile`] was set.
    pub profile: Option<SharingProfile>,
    /// Checker findings, when [`RunConfig::check`] was set.
    pub violations: Vec<dsm_proto::Violation>,
}

impl ExperimentResult {
    /// Parallel speedup over the sequential baseline.
    pub fn speedup(&self) -> f64 {
        self.stats.speedup()
    }
}

/// Run the full experiment for one (program, configuration) pair.
pub fn run_experiment(cfg: &RunConfig, program: Program) -> ExperimentResult {
    let (seq_img, seq_t) = run_sequential(program.as_ref());
    let mut out = run_parallel(cfg, Arc::clone(&program));
    out.stats.sequential_time_ns = seq_t;
    let check = program.check(&seq_img, &out.image);
    ExperimentResult {
        name: program.name(),
        config: cfg.clone(),
        stats: out.stats,
        check,
        obs: out.obs,
        regions: out.regions,
        profile: out.profile,
        violations: out.violations,
    }
}

/// Convenience: assert-checked experiment used across the test suite.
pub fn run_checked(cfg: &RunConfig, program: Program) -> ExperimentResult {
    let r = run_experiment(cfg, program);
    if let Err(e) = &r.check {
        panic!(
            "{} under {:?}@{}: parallel result mismatch: {e}",
            r.name, cfg.protocol, cfg.block_size
        );
    }
    if !r.violations.is_empty() {
        panic!(
            "{} under {:?}@{}: checker reported {} violation(s), first: {:?}",
            r.name,
            cfg.protocol,
            cfg.block_size,
            r.violations.len(),
            r.violations[0]
        );
    }
    r
}
