//! `perfbench`: the repository benchmark.
//!
//! ```text
//! perfbench --workload <cell|sweep|instrumented|mc> [--seed N] [--seconds N] [--trace 0|1]
//! perfbench --record-digests
//! ```
//!
//! One run sets the workload up `SETUP_REPEATS` times, then repeats timed
//! passes over it until the next pass would overrun `--seconds` (at least
//! one pass). Every output is checked. The last line of standard output is
//! one JSON object: `correct`, `attempted`, `failed` and `metrics`, where
//! `--trace 0` reports the end-to-end metrics and `--trace 1` the per-layer
//! ones. A traced run alternates untraced and traced passes, so it also
//! reports the tracing overhead, and writes its spans as JSONL under
//! `.bench_trace/`. See `perfbench/README.md`.

mod alloc;
mod digest;
mod host;
mod trace;
mod workload;

use std::io::Write;
use std::process::ExitCode;
use std::time::{Duration, Instant};

use digest::Expected;
use host::Fingerprint;
use trace::Tracer;
use workload::{Bench, PassStats, Tally, Workload, SETUP_REPEATS};

#[global_allocator]
static ALLOC: alloc::Counting = alloc::Counting;

const USAGE: &str = "usage: perfbench --workload <cell|sweep|instrumented|mc> \
[--seed N] [--seconds N] [--trace 0|1]\n       perfbench --record-digests";

const MIB: f64 = 1024.0 * 1024.0;

/// Where traced runs write their spans, relative to the working directory.
const TRACE_DIR: &str = ".bench_trace";

#[derive(Debug, PartialEq)]
struct Opts {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

#[derive(Debug, PartialEq)]
enum Cmd {
    Run(Opts),
    RecordDigests,
    Help,
}

fn parse_args(args: &[String]) -> Result<Cmd, String> {
    let mut workload = None;
    let (mut seed, mut seconds, mut trace) = (0, 10, false);
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let flag = flag.as_str();
        match flag {
            "-h" | "--help" => return Ok(Cmd::Help),
            "--record-digests" if args.len() == 1 => return Ok(Cmd::RecordDigests),
            "--workload" | "--seed" | "--seconds" | "--trace" => {
                let v = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
                let number = || {
                    v.parse::<u64>()
                        .map_err(|_| format!("{flag} takes a non-negative integer, got {v:?}"))
                };
                match flag {
                    "--workload" => workload = Some(v.parse::<Workload>()?),
                    "--seed" => seed = number()?,
                    "--seconds" => seconds = number()?,
                    _ => {
                        trace = match v.as_str() {
                            "0" => false,
                            "1" => true,
                            _ => return Err(format!("--trace takes 0 or 1, got {v:?}")),
                        }
                    }
                }
            }
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    Ok(Cmd::Run(Opts {
        workload,
        seed,
        seconds,
        trace,
    }))
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match parse_args(&args) {
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            ExitCode::from(2)
        }
        Ok(Cmd::Help) => {
            println!("{USAGE}");
            ExitCode::SUCCESS
        }
        Ok(Cmd::RecordDigests) => match workload::record_digests(host::nproc()) {
            Ok(lines) => {
                println!("# Modeled-result digests: <workload>/<app>/<protocol>/<block>[/s<seed class>] <FNV-1a of RunStats JSON>");
                println!("# Regenerate with: cargo run --release --manifest-path perfbench/Cargo.toml -- --record-digests > perfbench/digests.txt");
                for l in lines {
                    println!("{l}");
                }
                ExitCode::SUCCESS
            }
            Err(e) => {
                eprintln!("perfbench: {e}");
                ExitCode::FAILURE
            }
        },
        Ok(Cmd::Run(opts)) => run(&opts),
    }
}

fn median(mut v: Vec<f64>) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// `num / den`, or 0 when the denominator is 0 (a layer that did no work).
fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// Ordered `(name, value, unit)` metrics.
type Metrics = Vec<(&'static str, f64, &'static str)>;

fn run(opts: &Opts) -> ExitCode {
    // Pin what the library would otherwise read from the environment: the
    // event firehose filter is process-global and read lazily, so clear it
    // before any simulation starts. Every RunConfig is built explicitly.
    std::env::remove_var("DSM_TRACE");
    let host = Fingerprint::measure();
    println!(
        "host: nproc={} cpu={:?} calib_ns_per_iter={}",
        host.nproc, host.cpu_model, host.calib_ns_per_iter
    );

    let mut tally = Tally::default();
    let mut setup_s = Vec::new();
    let mut bench = None;
    for _ in 0..SETUP_REPEATS {
        let t = Instant::now();
        let (b, warm) = Bench::setup(
            opts.workload,
            opts.seed,
            host.nproc,
            Expected::committed().clone(),
        );
        setup_s.push(t.elapsed().as_secs_f64());
        tally.add(warm);
        bench = Some(b);
    }
    let bench = bench.expect("set-up ran at least once");

    let budget = Duration::from_secs(opts.seconds);
    let start = Instant::now();
    let (mut plain, mut traced) = (Vec::new(), Vec::new());
    let mut peak_heap_mb = None;
    loop {
        let round = Instant::now();
        let p = bench.pass(&Tracer::new(false));
        report_pass(opts.workload, "pass", &p);
        tally.add(p.tally);
        plain.push(p);
        // Peak memory over a fixed amount of work (set-up plus one pass), so
        // that it does not grow with the number of passes a faster host fits.
        peak_heap_mb.get_or_insert_with(|| alloc::peak_live_bytes() as f64 / MIB);
        if opts.trace {
            let tracer = Tracer::new(true);
            let p = bench.pass(&tracer);
            report_pass(opts.workload, "traced pass", &p);
            tally.add(p.tally);
            traced.push((p, tracer));
        }
        if start.elapsed() + round.elapsed() > budget {
            break;
        }
    }

    let mut correct = true;
    let metrics = if opts.trace {
        let (check_s, obs_s, hooks) = if opts.workload == Workload::Instrumented {
            bench.hook_costs()
        } else {
            (0.0, 0.0, Tally::default())
        };
        tally.add(hooks);
        let (metrics, exact) = layer_metrics(&host, &plain, &traced, check_s, obs_s);
        if !exact {
            eprintln!("perfbench: layer self times do not sum to the pass wall time");
            correct = false;
        }
        write_trace(opts, &host, &traced, &metrics);
        metrics
    } else {
        let heap = peak_heap_mb.expect("at least one pass ran");
        end_to_end_metrics(&setup_s, &plain, heap, &tally)
    };
    correct &= tally.failed == 0;
    println!("{}", result_json(correct, tally, &metrics));
    ExitCode::SUCCESS
}

fn report_pass(w: Workload, what: &str, p: &PassStats) {
    eprintln!(
        "perfbench: {} {what}: wall {:.3} s, cpu {:.3} s, {} checked, {} failed",
        w.name(),
        p.wall_s,
        p.cpu.total_s(),
        p.tally.attempted,
        p.tally.failed
    );
}

/// Work items per host second inside the engine: simulator events per
/// second of `run_parallel`, or, on `mc`, executions per second of
/// `explore`.
fn throughput(p: &PassStats) -> f64 {
    if p.mc.executions > 0 {
        ratio(p.mc.executions as f64, p.mc_s)
    } else {
        ratio(p.events as f64, p.engine_s)
    }
}

fn end_to_end_metrics(
    setup_s: &[f64],
    passes: &[PassStats],
    peak_heap_mb: f64,
    tally: &Tally,
) -> Metrics {
    let per = |f: fn(&PassStats) -> f64| median(passes.iter().map(f).collect());
    vec![
        ("setup_s", median(setup_s.to_vec()), "s"),
        ("wall_s", per(|p| p.wall_s), "s"),
        ("cpu_s", per(|p| p.cpu.total_s()), "s"),
        ("events_per_s", per(throughput), "1/s"),
        ("peak_heap_mb", peak_heap_mb, "MiB"),
        (
            "ok_frac",
            1.0 - ratio(tally.failed as f64, tally.attempted as f64),
            "1",
        ),
    ]
}

/// Per-layer metrics from the traced pass of median wall time. Also returns
/// whether its layer self times and uncovered remainder sum to its wall
/// time.
fn layer_metrics(
    host: &Fingerprint,
    plain: &[PassStats],
    traced: &[(PassStats, Tracer)],
    check_s: f64,
    obs_s: f64,
) -> (Metrics, bool) {
    let mut order: Vec<&(PassStats, Tracer)> = traced.iter().collect();
    order.sort_by(|a, b| a.0.wall_s.total_cmp(&b.0.wall_s));
    let (p, tracer) = order[order.len() / 2];
    let layers = trace::attribute(&tracer.spans(), p.from_ns, p.to_ns);
    let traced_wall = (p.to_ns - p.from_ns) as f64 / 1e9;
    let exact = (layers.total_s() - traced_wall).abs() <= 1e-6 * traced_wall.max(1.0);
    let plain_wall = median(plain.iter().map(|p| p.wall_s).collect());
    let sim_cpu = tracer.engine_cpu();
    let t = &p.totals;
    let metrics = vec![
        ("core.run_parallel_s", layers.get("core.run_parallel"), "s"),
        (
            "core.run_sequential_s",
            layers.get("core.run_sequential"),
            "s",
        ),
        ("core.check_s", layers.get("core.check"), "s"),
        ("bench.pool_map_s", layers.get("bench.pool_map"), "s"),
        ("mc.explore_s", layers.get("mc.explore"), "s"),
        ("harness.digest_s", layers.get("harness.digest"), "s"),
        ("uncovered_s", layers.uncovered_s, "s"),
        (
            "trace.overhead_frac",
            ratio(p.wall_s, plain_wall) - 1.0,
            "1",
        ),
        ("sim.events", p.events as f64, "count"),
        (
            "sim.ns_per_event",
            ratio(p.engine_s * 1e9, p.events as f64),
            "ns",
        ),
        ("sim.user_cpu_s", sim_cpu.user_s, "s"),
        ("sim.sys_cpu_s", sim_cpu.sys_s, "s"),
        ("check.self_s", check_s, "s"),
        ("obs.self_s", obs_s, "s"),
        ("fabric.frames", t.fabric_frames as f64, "count"),
        ("fabric.retries", t.fabric_retries as f64, "count"),
        ("fabric.drops", t.fabric_drops as f64, "count"),
        ("fabric.dups", t.fabric_dups as f64, "count"),
        (
            "fabric.useful_frac",
            ratio(
                t.fabric_frames.saturating_sub(t.fabric_retries) as f64,
                t.fabric_frames as f64,
            ),
            "1",
        ),
        ("bench.pool_busy_frac", p.pool.busy_frac, "1"),
        ("bench.tail_idle_s", p.pool.tail_idle_s, "s"),
        ("mc.schedules", p.mc.schedules as f64, "count"),
        ("mc.executions", p.mc.executions as f64, "count"),
        ("mc.states", p.mc.states as f64, "count"),
        ("mc.pruned_sleep", p.mc.pruned_sleep as f64, "count"),
        ("mc.pruned_dedup", p.mc.pruned_dedup as f64, "count"),
        (
            "mc.ms_per_execution",
            ratio(p.mc_s * 1e3, p.mc.executions as f64),
            "ms",
        ),
        ("proto.msgs", t.msgs_sent as f64, "count"),
        ("proto.bytes", t.total_traffic() as f64, "B"),
        (
            "proto.remote_faults",
            (t.read_faults + t.write_faults) as f64,
            "count",
        ),
        ("proto.diffs", t.diffs_created as f64, "count"),
        ("proto.diff_bytes", t.diff_bytes as f64, "B"),
        ("proto.write_notices", t.write_notices_sent as f64, "count"),
        ("proto.lease_renewals", t.lease_renewals as f64, "count"),
        ("alloc.count", p.allocs.count as f64, "count"),
        ("alloc.bytes", p.allocs.bytes as f64, "B"),
        ("mem.peak_rss_mb", host::peak_rss_mb(), "MiB"),
        ("host.calib_ns", host.calib_ns_per_iter, "ns"),
    ];
    (metrics, exact)
}

fn number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_string()
    }
}

fn result_json(correct: bool, tally: Tally, metrics: &Metrics) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, v, unit)| {
            format!(
                "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                number(*v)
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        tally.attempted,
        tally.failed,
        body.join(", ")
    )
}

/// Write the median traced pass's spans, the host fingerprint and the layer
/// metrics as JSONL. A write failure is reported and does not fail the run.
fn write_trace(opts: &Opts, host: &Fingerprint, traced: &[(PassStats, Tracer)], metrics: &Metrics) {
    let path = format!(
        "{TRACE_DIR}/{}-seed{}.jsonl",
        opts.workload.name(),
        opts.seed
    );
    let write = || -> std::io::Result<()> {
        std::fs::create_dir_all(TRACE_DIR)?;
        let mut out = std::io::BufWriter::new(std::fs::File::create(&path)?);
        writeln!(
            out,
            "{{\"type\":\"host\",\"nproc\":{},\"cpu_model\":{:?},\"calib_ns_per_iter\":{}}}",
            host.nproc,
            host.cpu_model,
            number(host.calib_ns_per_iter)
        )?;
        for (pass, (p, tracer)) in traced.iter().enumerate() {
            writeln!(
                out,
                "{{\"type\":\"pass\",\"pass\":{pass},\"from_ns\":{},\"to_ns\":{}}}",
                p.from_ns, p.to_ns
            )?;
            for s in tracer.spans() {
                writeln!(out, "{}", trace::span_json(&s))?;
            }
        }
        writeln!(out, "{}", result_json(true, Tally::default(), metrics))?;
        out.flush()
    };
    if let Err(e) = write() {
        eprintln!("perfbench: could not write {path}: {e}");
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn parses_the_driver_command_line() {
        let cmd = parse_args(&args("--workload sweep --seed 7 --seconds 3 --trace 1"));
        assert_eq!(
            cmd,
            Ok(Cmd::Run(Opts {
                workload: Workload::Sweep,
                seed: 7,
                seconds: 3,
                trace: true
            }))
        );
    }

    #[test]
    fn rejects_bad_input_with_a_message() {
        for bad in [
            "--workload nope",
            "--workload cell --seed x",
            "--workload cell --bogus",
            "--workload cell --trace 2",
            "--workload",
            "--seed 3",
            "--workload cell --record-digests",
        ] {
            let e = parse_args(&args(bad)).expect_err(bad);
            assert!(!e.is_empty());
        }
    }

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(vec![3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(vec![4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(Vec::new()), 0.0);
    }

    #[test]
    fn result_line_has_the_contract_keys() {
        let line = result_json(
            true,
            Tally {
                attempted: 3,
                failed: 0,
            },
            &vec![("wall_s", 1.5, "s"), ("bad", f64::NAN, "s")],
        );
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": \
             {\"wall_s\": {\"value\": 1.5, \"unit\": \"s\"}, \"bad\": {\"value\": null, \"unit\": \"s\"}}}"
        );
    }
}
