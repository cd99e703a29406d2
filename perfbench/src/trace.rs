//! Host-time spans recorded around each call into a repository layer.
//!
//! A span has a name, start and end (ns since the tracer's epoch), a parent
//! span, the cell it belongs to, the recording thread, and the allocations
//! made process-wide while it was open. Spans stay in memory; the run writes
//! them as JSONL when it ends. With tracing off, [`Tracer::span`] just calls
//! its closure.
//!
//! [`attribute`] splits a pass's wall time exactly across layers: each
//! instant goes in equal shares to the open spans with no open child (the
//! innermost work on each busy thread), or to the uncovered remainder when
//! no span is open. Layer self times plus the remainder therefore sum to
//! the pass's wall time, also when pool workers run cells concurrently.

use std::cell::Cell;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

use crate::alloc;
use crate::host::{self, Cpu};

/// One recorded span.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Unique within the tracer, starting at 1.
    pub id: u64,
    /// Enclosing span, if any (may live on another thread).
    pub parent: Option<u64>,
    /// Layer call, e.g. `core.run_parallel`.
    pub name: &'static str,
    /// Index of the cell (or model-checking job) within its pass.
    pub cell: Option<usize>,
    /// Small per-process ordinal of the recording thread.
    pub thread: u64,
    /// Start, ns since the tracer epoch.
    pub start_ns: u64,
    /// End, ns since the tracer epoch.
    pub end_ns: u64,
    /// Allocations made process-wide while the span was open.
    pub allocs: alloc::Allocs,
}

/// Process CPU consumed while at least one engine span was open, sampled at
/// every engine-span boundary.
#[derive(Debug, Default)]
struct EngineCpu {
    open: usize,
    last: Cpu,
    total: Cpu,
}

impl EngineCpu {
    fn boundary(&mut self, opening: bool) {
        let now = host::process_cpu();
        if self.open > 0 {
            let d = now.since(self.last);
            self.total.user_s += d.user_s;
            self.total.sys_s += d.sys_s;
        }
        self.last = now;
        if opening {
            self.open += 1;
        } else {
            self.open -= 1;
        }
    }
}

/// Span recorder; disabled tracers record nothing.
#[derive(Debug)]
pub struct Tracer {
    on: bool,
    epoch: Instant,
    next_id: AtomicU64,
    spans: Mutex<Vec<Span>>,
    engine_cpu: Mutex<EngineCpu>,
}

/// Small per-process ordinal of the calling thread, assigned on first use.
pub fn thread_ordinal() -> u64 {
    static NEXT: AtomicU64 = AtomicU64::new(1);
    thread_local!(static ORD: Cell<u64> = const { Cell::new(0) });
    ORD.with(|o| {
        if o.get() == 0 {
            o.set(NEXT.fetch_add(1, Ordering::Relaxed));
        }
        o.get()
    })
}

impl Tracer {
    /// A tracer that records (`on`) or does nothing.
    pub fn new(on: bool) -> Tracer {
        Tracer {
            on,
            epoch: Instant::now(),
            next_id: AtomicU64::new(1),
            spans: Mutex::new(Vec::new()),
            engine_cpu: Mutex::new(EngineCpu::default()),
        }
    }

    /// Whether spans are recorded.
    pub fn is_on(&self) -> bool {
        self.on
    }

    /// ns since this tracer's epoch.
    pub fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Run `f` inside a span. `f` receives the span's id (0 when tracing is
    /// off) so that work it hands to other threads can name it as parent.
    pub fn span<T>(
        &self,
        name: &'static str,
        parent: Option<u64>,
        cell: Option<usize>,
        f: impl FnOnce(u64) -> T,
    ) -> T {
        if !self.on {
            return f(0);
        }
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let a0 = alloc::snapshot();
        let start_ns = self.now_ns();
        let out = f(id);
        let end_ns = self.now_ns();
        let span = Span {
            id,
            parent,
            name,
            cell,
            thread: thread_ordinal(),
            start_ns,
            end_ns,
            allocs: alloc::snapshot().since(a0),
        };
        self.spans
            .lock()
            .expect("span log lock poisoned by a panicking recorder")
            .push(span);
        out
    }

    /// [`Tracer::span`] that also accounts process CPU to the engine.
    pub fn engine_span<T>(
        &self,
        name: &'static str,
        parent: Option<u64>,
        cell: Option<usize>,
        f: impl FnOnce(u64) -> T,
    ) -> T {
        if !self.on {
            return f(0);
        }
        let boundary = |opening| {
            self.engine_cpu
                .lock()
                .expect("engine CPU lock poisoned by a panicking recorder")
                .boundary(opening)
        };
        boundary(true);
        let out = self.span(name, parent, cell, f);
        boundary(false);
        out
    }

    /// Everything recorded so far.
    pub fn spans(&self) -> Vec<Span> {
        self.spans
            .lock()
            .expect("span log lock poisoned by a panicking recorder")
            .clone()
    }

    /// Process CPU consumed while an engine span was open.
    pub fn engine_cpu(&self) -> Cpu {
        self.engine_cpu
            .lock()
            .expect("engine CPU lock poisoned by a panicking recorder")
            .total
    }
}

/// Wall time of one interval split across layers.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Attribution {
    /// Self seconds per span name.
    pub self_s: BTreeMap<&'static str, f64>,
    /// Seconds in which no span was open.
    pub uncovered_s: f64,
}

impl Attribution {
    /// Self seconds of one layer (0 when it never ran).
    pub fn get(&self, name: &str) -> f64 {
        self.self_s.get(name).copied().unwrap_or(0.0)
    }

    /// Sum of every layer's self time plus the uncovered remainder.
    pub fn total_s(&self) -> f64 {
        self.self_s.values().sum::<f64>() + self.uncovered_s
    }
}

/// Split `[from_ns, to_ns)` across the spans (see the module docs).
pub fn attribute(spans: &[Span], from_ns: u64, to_ns: u64) -> Attribution {
    let clip = |t: u64| t.clamp(from_ns, to_ns);
    let mut cuts: Vec<u64> = spans
        .iter()
        .flat_map(|s| [clip(s.start_ns), clip(s.end_ns)])
        .chain([from_ns, to_ns])
        .collect();
    cuts.sort_unstable();
    cuts.dedup();
    let mut out = Attribution::default();
    let mut open: Vec<&Span> = Vec::new();
    for w in cuts.windows(2) {
        let (a, b) = (w[0], w[1]);
        open.clear();
        open.extend(spans.iter().filter(|s| s.start_ns <= a && s.end_ns >= b));
        let leaves: Vec<&Span> = open
            .iter()
            .filter(|s| !open.iter().any(|c| c.parent == Some(s.id)))
            .copied()
            .collect();
        let dt = (b - a) as f64 / 1e9;
        if leaves.is_empty() {
            out.uncovered_s += dt;
        } else {
            let share = dt / leaves.len() as f64;
            for s in leaves {
                *out.self_s.entry(s.name).or_insert(0.0) += share;
            }
        }
    }
    out
}

/// One span as a JSONL record.
pub fn span_json(s: &Span) -> String {
    let opt = |v: Option<u64>| v.map_or("null".to_string(), |v| v.to_string());
    format!(
        "{{\"type\":\"span\",\"id\":{},\"parent\":{},\"name\":\"{}\",\"cell\":{},\"thread\":{},\"start_ns\":{},\"end_ns\":{},\"alloc_count\":{},\"alloc_bytes\":{}}}",
        s.id,
        opt(s.parent),
        s.name,
        opt(s.cell.map(|c| c as u64)),
        s.thread,
        s.start_ns,
        s.end_ns,
        s.allocs.count,
        s.allocs.bytes
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u64, parent: Option<u64>, name: &'static str, start: u64, end: u64) -> Span {
        Span {
            id,
            parent,
            name,
            cell: None,
            thread: 1,
            start_ns: start,
            end_ns: end,
            allocs: alloc::Allocs::default(),
        }
    }

    #[test]
    fn self_times_plus_uncovered_sum_to_wall() {
        // A pool span with two overlapping worker cells (each with a nested
        // engine call), a gap, and a span reaching past the interval end.
        let spans = vec![
            span(1, None, "bench.pool_map", 100, 900),
            span(2, Some(1), "core.run_sequential", 120, 300),
            span(3, Some(1), "core.run_parallel", 150, 700),
            span(4, Some(1), "core.check", 310, 320),
            span(5, None, "harness.digest", 950, 1_300),
        ];
        let a = attribute(&spans, 0, 1_000);
        assert!((a.total_s() - 1_000e-9).abs() < 1e-18);
        // Alone from 300 to 310 and 320 to 700; shared with the other
        // worker's spans over 150..300 and 310..320.
        let rp = 390e-9 + (150e-9 + 10e-9) / 2.0;
        assert!((a.get("core.run_parallel") - rp).abs() < 1e-18);
        assert!((a.get("bench.pool_map") - 220e-9).abs() < 1e-18);
        assert!((a.uncovered_s - 150e-9).abs() < 1e-18);
        assert!((a.get("harness.digest") - 50e-9).abs() < 1e-18);
    }

    #[test]
    fn recorded_spans_attribute_exactly_to_the_traced_interval() {
        let t = Tracer::new(true);
        let from = t.now_ns();
        t.span("outer", None, Some(0), |id| {
            std::thread::scope(|s| {
                for _ in 0..2 {
                    s.spawn(|| t.span("inner", Some(id), Some(1), |_| vec![0u8; 1 << 16]));
                }
            });
        });
        let to = t.now_ns();
        let a = attribute(&t.spans(), from, to);
        let wall = (to - from) as f64 / 1e9;
        assert!((a.total_s() - wall).abs() <= wall * 1e-9);
        assert_eq!(t.spans().len(), 3);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let t = Tracer::new(false);
        assert_eq!(t.span("x", None, None, |id| id), 0);
        assert_eq!(t.engine_span("y", None, None, |_| 7), 7);
        assert!(t.spans().is_empty());
        assert_eq!(t.engine_cpu(), Cpu::default());
    }
}
