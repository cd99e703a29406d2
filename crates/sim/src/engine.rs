//! The discrete-event engine: event queue, node scheduling, thread hand-off.
//!
//! One calendar queue ([`BucketQueue`]) holds every pending event, popped in
//! global `(time, seq)` order by a single drive loop. Two drive modes share
//! it:
//!
//! * **Serial** ([`run_cluster`]): exactly one logical entity runs at any
//!   instant; whichever node thread is active drives the event loop and
//!   hands control over via condvars.
//! * **Model-checked** ([`run_cluster_mc`]): the same loop, except that every
//!   set of events tied at the head virtual time is offered to an
//!   [`McHook`], which picks the one that commits.
//!
//! A run that cannot finish ends with a [`SimError`]: the first failure
//! recorded wins, every node thread leaves its body by a silent unwind, and
//! the caller gets the error after all threads are joined.

use std::fmt;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};

use crate::queue::BucketQueue;
use crate::rng::fold64;
use crate::time::Time;
use crate::NodeId;

/// Why a run ended without every node body returning.
#[derive(Debug, PartialEq, Eq)]
pub enum SimError {
    /// The event queue ran dry while some node was still waiting.
    Deadlock {
        /// Virtual time at which the queue ran dry.
        at: Time,
        /// Every node's scheduling status at that point, by node id.
        statuses: Vec<Status>,
    },
    /// A model-checker hook abandoned the execution ([`McHook::choose`]
    /// returned `None`).
    Pruned,
    /// A node body, or a message handler it was driving, panicked.
    NodePanic {
        /// The node whose thread raised the panic.
        node: NodeId,
        /// The panic message (empty if the payload was not a string).
        message: String,
    },
}

impl fmt::Display for SimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SimError::Deadlock { statuses, .. } => write!(
                f,
                "simulation deadlock: event queue empty, node states {statuses:?}"
            ),
            SimError::Pruned => f.write_str("simulation pruned by the model-checker hook"),
            SimError::NodePanic { node, message } => write!(f, "node {node} panicked: {message}"),
        }
    }
}

impl std::error::Error for SimError {}

/// Unwind payload that takes a node thread out of its body once the run has
/// failed. Raised with `resume_unwind`, so no panic hook sees it.
struct Abort;

impl Abort {
    fn unwind(self) -> ! {
        resume_unwind(Box::new(self))
    }
}

/// One co-enabled event offered to a model-checker hook at a commit point.
pub struct McChoice<'a, M> {
    /// Stable event identity: the global queue sequence number assigned at
    /// push time. Identical across replays of the same decision prefix
    /// (the engine is deterministic), so hooks can use it to recognize an
    /// event across sibling executions.
    pub key: u64,
    /// The event itself.
    pub event: McEvent<'a, M>,
}

/// The two kinds of schedulable event, as seen by a model-checker hook.
pub enum McEvent<'a, M> {
    /// A node resumes from its compute segment or a wake.
    Resume {
        /// The resuming node.
        node: NodeId,
    },
    /// A message delivery.
    Msg {
        /// The destination node.
        to: NodeId,
        /// The message (borrowed; it is still queued).
        msg: &'a M,
    },
}

/// A controlled scheduler plugged into the serial engine by
/// [`run_cluster_mc`]: every commit point where more than zero events are
/// co-enabled at the head virtual time becomes an explicit choice.
///
/// The hook is called at *every* commit point, singletons included, so it
/// can maintain replay position, sleep sets, and step bounds uniformly.
/// Returning `None` abandons the execution: the run ends with
/// [`SimError::Pruned`].
pub trait McHook<W: World>: Send {
    /// Pick which of `choices` (all tied at virtual time `at`) commits.
    ///
    /// `engine_hash` folds the scheduler-visible state (head time, node
    /// statuses and generations, and the queue multiset including the
    /// offered choices); combined with a world fingerprint it identifies
    /// the global state at this commit point.
    fn choose(
        &mut self,
        world: &W,
        engine_hash: u64,
        at: Time,
        choices: &[McChoice<'_, W::Msg>],
    ) -> Option<usize>;
}

/// Content hash of a queued message addressed at a node, used to fingerprint
/// the pending-event multiset in model-checked runs. Must be a pure function
/// of the message so replays fingerprint identically.
pub type McMsgHash<M> = Box<dyn Fn(NodeId, &M) -> u64 + Send>;

/// Everything [`run_cluster_mc`] installs on the engine: the controlling
/// hook plus a content hash for queued messages (feeding the queue-multiset
/// part of `engine_hash`).
pub struct McInstall<W: World> {
    /// The controlled scheduler.
    pub hook: Box<dyn McHook<W>>,
    /// Content hash of a queued message addressed at a node.
    pub msg_hash: McMsgHash<W::Msg>,
}

/// Shared mutable state plugged into the engine: the protocol world.
///
/// The engine is generic over the world so that the protocol layer can define
/// its own message type and delivery semantics. `deliver` is invoked exactly
/// once per posted message, at the message's scheduled arrival time, with a
/// [`Sched`] handle for posting follow-up messages, waking blocked nodes, or
/// charging occupancy delays to busy nodes.
pub trait World: Send + 'static {
    /// Message type routed through the event queue.
    type Msg: Send + 'static;

    /// Handle a message arriving at node `to` at the current virtual time.
    fn deliver(&mut self, sched: &mut Sched<Self::Msg>, to: NodeId, msg: Self::Msg);

    /// Observe a node advancing its local clock over `[from, to)` (compute
    /// or local protocol work). Called from [`NodeCtx::advance`] before the
    /// segment is scheduled; occupancy charged into the segment later via
    /// [`Sched::delay`] is not included. Default: no-op.
    fn on_advance(&mut self, _node: NodeId, _from: Time, _to: Time) {}
}

/// Scheduling status of a node thread.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Status {
    /// Currently executing (at most one node at a time).
    Running,
    /// Will resume at the given virtual time (it is computing until then).
    Ready {
        /// The resume time.
        at: Time,
    },
    /// Parked until a handler calls [`Sched::wake`].
    Blocked,
    /// Node body returned.
    Done,
}

enum EventKind<M> {
    /// Hand control back to a node. `gen` guards against stale entries left
    /// in the queue after the node's resume time was pushed back.
    Resume { node: NodeId, gen: u64 },
    /// Deliver a message to the world, addressed at a node.
    Msg { to: NodeId, msg: M },
}

struct NodeSlot {
    status: Status,
    /// Generation of the valid Resume event for this node.
    gen: u64,
    /// A wake that arrived before the node blocked (its completion message
    /// is "sitting in the receive queue"); consumed by the next block().
    pending_wake: Option<Time>,
}

/// Event queue plus node scheduling state: the handle given to
/// [`World::deliver`] and [`NodeCtx::world`] closures for interacting with
/// the event queue.
pub struct Sched<M> {
    now: Time,
    queue: BucketQueue<EventKind<M>>,
    nodes: Vec<NodeSlot>,
    /// Events popped and processed (resumes, stale resumes, deliveries) —
    /// the simulator's native unit of work, deterministic per run.
    events: u64,
    /// Model-checked runs only: the delivery target of the message handler
    /// currently running, used to assert handler footprints (a handler may
    /// only wake/delay its own delivery target).
    exec: Option<NodeId>,
    /// Model-checked runs only: content hash for queued messages. Doubles as
    /// the "mc mode" flag on the scheduler side.
    mc_msg_hash: Option<McMsgHash<M>>,
    /// Model-checked runs only: XOR of [`Sched::mc_event_hash`] over
    /// every event currently in the queue — an incremental, order-independent
    /// fingerprint of the pending-event multiset.
    queue_hash: u64,
}

impl<M> Sched<M> {
    /// Standalone scheduler for unit-testing message handlers outside the
    /// engine: events accumulate in the queue and can be drained with
    /// [`Sched::take_events`]; nodes start `Ready` so wakes on them
    /// are recorded as pending.
    pub fn for_testing(n: usize) -> Self {
        let mut s = Self::new(n);
        for node in 0..n {
            s.nodes[node].status = Status::Blocked;
        }
        s
    }

    /// Test helper: pop every queued event, returning `(time, to, msg)` for
    /// messages and `None` payloads for resumes.
    pub fn take_events(&mut self) -> Vec<(Time, NodeId, Option<M>)> {
        let mut out = Vec::new();
        while let Some((at, kind)) = self.queue.pop() {
            match kind {
                EventKind::Msg { to, msg } => out.push((at, to, Some(msg))),
                EventKind::Resume { node, .. } => out.push((at, node, None)),
            }
        }
        out
    }

    /// Test helper: advance the notion of "now" directly.
    pub fn set_now_for_testing(&mut self, t: Time) {
        debug_assert!(t >= self.now);
        self.now = t;
    }

    fn new(n: usize) -> Self {
        Sched {
            now: 0,
            queue: BucketQueue::new(),
            nodes: (0..n)
                .map(|_| NodeSlot {
                    status: Status::Blocked, // set properly at start
                    gen: 0,
                    pending_wake: None,
                })
                .collect(),
            events: 0,
            exec: None,
            mc_msg_hash: None,
            queue_hash: 0,
        }
    }

    /// Current virtual time.
    pub fn now(&self) -> Time {
        self.now
    }

    /// Number of simulated nodes.
    pub fn num_nodes(&self) -> usize {
        self.nodes.len()
    }

    /// Total events processed so far (deterministic for a given program).
    pub fn events_processed(&self) -> u64 {
        self.events
    }

    /// Seq-independent fingerprint of one queued event (model-checked runs):
    /// replays push the same events in potentially different seq order, so
    /// the multiset hash must not depend on insertion order.
    fn mc_event_hash(&self, at: Time, kind: &EventKind<M>) -> u64 {
        match kind {
            EventKind::Resume { node, gen } => fold64(fold64(fold64(1, *node as u64), *gen), at),
            EventKind::Msg { to, msg } => {
                let h = (self.mc_msg_hash.as_ref().expect("mc msg hasher"))(*to, msg);
                fold64(fold64(fold64(2, *to as u64), h), at)
            }
        }
    }

    fn push(&mut self, at: Time, kind: EventKind<M>) {
        if self.mc_msg_hash.is_some() {
            let h = self.mc_event_hash(at, &kind);
            self.queue_hash ^= h;
        }
        self.queue.push(at, kind);
    }

    /// Pop the next event, counting it as processed simulator work.
    fn next_event(&mut self) -> Option<(Time, EventKind<M>)> {
        let ev = self.queue.pop();
        if ev.is_some() {
            self.events += 1;
        }
        ev
    }

    /// Post a message for delivery to node `to` at virtual time `at`.
    ///
    /// `at` is clamped to the current time (messages cannot arrive in the
    /// past).
    pub fn post(&mut self, to: NodeId, at: Time, msg: M) {
        let at = at.max(self.now);
        self.push(at, EventKind::Msg { to, msg });
    }

    /// Wake a blocked node so that it resumes at time `at`.
    ///
    /// Panics if the node is not blocked: waking a computing or finished node
    /// indicates a protocol bug.
    pub fn wake(&mut self, node: NodeId, at: Time) {
        // Model-checked runs assert the footprint the DPOR layer relies on:
        // a message handler only ever wakes its own delivery target.
        debug_assert!(
            self.mc_msg_hash.is_none() || self.exec.is_none() || self.exec == Some(node),
            "mc: handler at {:?} woke node {node}",
            self.exec
        );
        let at = at.max(self.now);
        let slot = &mut self.nodes[node];
        match slot.status {
            Status::Blocked => {
                slot.status = Status::Ready { at };
                slot.gen += 1;
                let gen = slot.gen;
                self.push(at, EventKind::Resume { node, gen });
            }
            Status::Ready { .. } | Status::Running => {
                // The node has not blocked yet (e.g. it is still charging
                // local time before parking): remember the wake, consumed by
                // its next block().
                let w = slot.pending_wake.get_or_insert(at);
                *w = (*w).max(at);
            }
            Status::Done => panic!("wake({node}) called on a finished node"),
        }
    }

    /// Push back the resume time of a computing node to at least `until`,
    /// modeling occupancy stolen from it (e.g. servicing a remote protocol
    /// request). No-op for blocked or finished nodes, or if the node already
    /// resumes later than `until`.
    pub fn delay(&mut self, node: NodeId, until: Time) {
        debug_assert!(
            self.mc_msg_hash.is_none() || self.exec.is_none() || self.exec == Some(node),
            "mc: handler at {:?} delayed node {node}",
            self.exec
        );
        let until = until.max(self.now);
        let slot = &mut self.nodes[node];
        if let Status::Ready { at } = slot.status {
            if at < until {
                slot.status = Status::Ready { at: until };
                slot.gen += 1;
                let gen = slot.gen;
                self.push(until, EventKind::Resume { node, gen });
            }
        }
    }

    /// True if the node is parked waiting for a wake (so it can service an
    /// incoming request immediately: it is spinning on message arrival).
    pub fn is_blocked(&self, node: NodeId) -> bool {
        self.nodes[node].status == Status::Blocked
    }

    /// The time at which the node becomes available to service an
    /// asynchronous request: now if it is blocked (it polls while waiting) or
    /// done, otherwise the end of its current compute segment is irrelevant —
    /// with polling it services at the next backedge, so availability is also
    /// ~now. This helper returns the node's scheduled resume time for models
    /// that want it.
    pub fn resume_at(&self, node: NodeId) -> Option<Time> {
        match self.nodes[node].status {
            Status::Ready { at } => Some(at),
            _ => None,
        }
    }
}

struct SimState<W: World> {
    sched: Sched<W::Msg>,
    /// Taken out while a handler runs so `deliver` can borrow world and
    /// scheduler simultaneously.
    world: Option<W>,
    /// The run's first failure. Once set, every node thread leaves its body
    /// and the run returns it.
    failure: Option<SimError>,
    /// Model-checker hook controlling every commit point.
    mc: Option<Box<dyn McHook<W>>>,
}

struct Shared<W: World> {
    state: Mutex<SimState<W>>,
    /// One condvar per node for hand-off.
    node_cvs: Vec<Condvar>,
}

impl<W: World> Shared<W> {
    /// Lock the engine state, ignoring lock poisoning: a panic under the
    /// lock is recorded in `failure` by its catch site, and once `failure`
    /// is set nothing reads the rest of the state.
    fn lock(&self) -> MutexGuard<'_, SimState<W>> {
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Record `err` unless an earlier failure already won, and wake every
    /// parked node so it leaves its body.
    fn fail(&self, g: &mut SimState<W>, err: SimError) {
        g.failure.get_or_insert(err);
        for cv in &self.node_cvs {
            cv.notify_all();
        }
    }

    /// Wait until a driver hands `me` control (`Ok`) or the run fails.
    fn park(&self, mut g: MutexGuard<'_, SimState<W>>, me: NodeId) -> Result<(), Abort> {
        loop {
            if g.failure.is_some() {
                return Err(Abort);
            }
            if g.sched.nodes[me].status == Status::Running {
                return Ok(());
            }
            g = self.node_cvs[me]
                .wait(g)
                .unwrap_or_else(PoisonError::into_inner);
        }
    }
}

/// A node's program: one closure per simulated node.
pub type NodeBody<W> = Box<dyn FnOnce(&mut NodeCtx<W>) + Send>;

/// Per-node handle passed to each node body closure.
///
/// All methods lock the engine internally; node bodies hold no lock between
/// DSM operations.
pub struct NodeCtx<W: World> {
    shared: Arc<Shared<W>>,
    node: NodeId,
}

impl<W: World> NodeCtx<W> {
    /// This node's id.
    pub fn node(&self) -> NodeId {
        self.node
    }

    /// Number of nodes in the cluster.
    pub fn num_nodes(&self) -> usize {
        self.shared.node_cvs.len()
    }

    /// Current virtual time.
    pub fn now(&self) -> Time {
        self.lock().sched.now
    }

    fn lock(&self) -> MutexGuard<'_, SimState<W>> {
        let g = self.shared.lock();
        if g.failure.is_some() {
            drop(g);
            Abort.unwind();
        }
        g
    }

    /// Advance this node's virtual clock by `dt` nanoseconds of computation.
    ///
    /// Events that fall inside the interval are processed; message handlers
    /// may charge extra occupancy to this node via [`Sched::delay`], pushing
    /// the effective resume time further out.
    pub fn advance(&mut self, dt: Time) {
        let mut g = self.lock();
        let at = g.sched.now + dt;
        if dt > 0 {
            let from = g.sched.now;
            let world = g.world.as_mut().expect("world re-entrancy");
            world.on_advance(self.node, from, at);
        }
        let slot = &mut g.sched.nodes[self.node];
        debug_assert_eq!(slot.status, Status::Running);
        slot.status = Status::Ready { at };
        slot.gen += 1;
        let gen = slot.gen;
        g.sched.push(
            at,
            EventKind::Resume {
                node: self.node,
                gen,
            },
        );
        drive_serial(&self.shared, g, Some(self.node)).unwrap_or_else(|a| a.unwind());
    }

    /// Park this node until a message handler calls [`Sched::wake`] for it.
    pub fn block(&mut self) {
        let mut g = self.lock();
        let now = g.sched.now;
        let slot = &mut g.sched.nodes[self.node];
        debug_assert_eq!(slot.status, Status::Running);
        if let Some(at) = slot.pending_wake.take() {
            // The completion we were about to wait for already arrived.
            let at = at.max(now);
            slot.status = Status::Ready { at };
            slot.gen += 1;
            let gen = slot.gen;
            g.sched.push(
                at,
                EventKind::Resume {
                    node: self.node,
                    gen,
                },
            );
        } else {
            slot.status = Status::Blocked;
        }
        drive_serial(&self.shared, g, Some(self.node)).unwrap_or_else(|a| a.unwind());
    }

    /// Run `f` with exclusive access to the world and the scheduler.
    ///
    /// This is how node-side protocol code mutates shared protocol state and
    /// posts messages. The closure runs at the node's current virtual time.
    pub fn world<R>(&mut self, f: impl FnOnce(&mut W, &mut Sched<W::Msg>) -> R) -> R {
        let mut g = self.lock();
        let mut world = g.world.take().expect("world re-entrancy");
        let r = f(&mut world, &mut g.sched);
        g.world = Some(world);
        r
    }

    /// Mark this node finished and keep the event loop alive for others.
    fn finish(&self) {
        let mut g = self.lock();
        let slot = &mut g.sched.nodes[self.node];
        debug_assert_eq!(slot.status, Status::Running);
        slot.status = Status::Done;
        // Drive until control is handed to another node. Once every node is
        // done this drains the in-flight messages instead, so their effects
        // (stats, traffic) are accounted for.
        drive_serial(&self.shared, g, None).unwrap_or_else(|a| a.unwind());
    }
}

/// A popped event, `None` when the queue is exhausted, or
/// [`SimError::Pruned`] when the hook abandoned the execution.
type Popped<M> = Result<Option<(Time, EventKind<M>)>, SimError>;

/// Pop the next event, routing the choice through the model-checker hook
/// when one is installed: gather every event tied at the head virtual time,
/// drop stale resumes (they are not real choices — the plain pop skips them
/// identically), and let the hook pick which one commits. Unchosen events
/// are restored with their original `(time, seq)` keys, so the order among
/// them is untouched.
fn mc_next_event<W: World>(st: &mut SimState<W>) -> Popped<W::Msg> {
    if st.mc.is_none() {
        return Ok(st.sched.next_event());
    }
    loop {
        let Some((head, _)) = st.sched.queue.peek_key() else {
            return Ok(None);
        };
        let mut tied: Vec<(Time, u64, EventKind<W::Msg>)> = Vec::new();
        while st.sched.queue.peek_key().is_some_and(|(t, _)| t == head) {
            let (at, key, kind) = st.sched.queue.pop_entry().expect("head implies an event");
            if let EventKind::Resume { node: rn, gen } = &kind {
                if st.sched.nodes[*rn].gen != *gen {
                    // Superseded by a later delay/wake: skip it, counting it
                    // exactly as the plain loop would.
                    st.sched.events += 1;
                    let h = st.sched.mc_event_hash(at, &kind);
                    st.sched.queue_hash ^= h;
                    continue;
                }
            }
            tied.push((at, key, kind));
        }
        if tied.is_empty() {
            continue; // the whole tie was stale; move to the next head time
        }
        // Scheduler-visible fingerprint: head time, node slots, and the
        // pending-event multiset (the tied events above are still counted
        // in `queue_hash` — they are logically queued until one commits).
        let mut eh = fold64(0, head);
        for s in &st.sched.nodes {
            let (tag, t) = match s.status {
                Status::Running => (0u64, 0),
                Status::Ready { at } => (1, at),
                Status::Blocked => (2, 0),
                Status::Done => (3, 0),
            };
            eh = fold64(eh, tag);
            eh = fold64(eh, t);
            eh = fold64(eh, s.gen);
            eh = fold64(eh, s.pending_wake.map_or(u64::MAX, |w| w));
        }
        eh = fold64(eh, st.sched.queue_hash);
        let choices: Vec<McChoice<'_, W::Msg>> = tied
            .iter()
            .map(|&(_, key, ref kind)| McChoice {
                key,
                event: match kind {
                    EventKind::Resume { node, .. } => McEvent::Resume { node: *node },
                    EventKind::Msg { to, msg } => McEvent::Msg { to: *to, msg },
                },
            })
            .collect();
        let world = st.world.as_ref().expect("world re-entrancy");
        let pick = st
            .mc
            .as_mut()
            .expect("mc hook")
            .choose(world, eh, head, &choices);
        drop(choices);
        let Some(pick) = pick else {
            return Err(SimError::Pruned);
        };
        assert!(pick < tied.len(), "mc hook chose {pick} of {}", tied.len());
        let mut chosen = None;
        for (i, (at, key, kind)) in tied.into_iter().enumerate() {
            if i == pick {
                chosen = Some((at, kind));
            } else {
                // Restore under the original key: same `(time, seq)` slot.
                st.sched.queue.push_with_seq(at, key, kind);
            }
        }
        let (at, kind) = chosen.expect("pick is in range");
        let h = st.sched.mc_event_hash(at, &kind);
        st.sched.queue_hash ^= h;
        st.sched.events += 1;
        return Ok(Some((at, kind)));
    }
}

/// The drive loop: pop and execute events in global `(time, seq)` order
/// until `me`'s own resume commits (`Some`), or until control is handed to
/// another node's thread (`None` — the startup kick-off and finishing nodes
/// hand off and return; the last node to finish drains the queue).
/// `Err` means the run has failed and the caller must leave its body.
fn drive_serial<W: World>(
    shared: &Shared<W>,
    mut g: MutexGuard<'_, SimState<W>>,
    me: Option<NodeId>,
) -> Result<(), Abort> {
    loop {
        let (at, kind) = match mc_next_event(&mut g) {
            Ok(Some(ev)) => ev,
            Ok(None) => {
                // Nothing left to do. A driving node is itself blocked or
                // ready, so an empty queue is a deadlock; a finishing node
                // (`me == None`) returns cleanly when every other node is
                // done too.
                let any_blocked = g.sched.nodes.iter().any(|s| s.status == Status::Blocked);
                if me.is_none() && !any_blocked {
                    return Ok(());
                }
                let at = g.sched.now;
                let statuses = g.sched.nodes.iter().map(|s| s.status).collect();
                shared.fail(&mut g, SimError::Deadlock { at, statuses });
                return Err(Abort);
            }
            Err(e) => {
                shared.fail(&mut g, e);
                return Err(Abort);
            }
        };
        debug_assert!(at >= g.sched.now);
        match kind {
            EventKind::Msg { to, msg } => {
                g.sched.now = at;
                let mc_on = g.sched.mc_msg_hash.is_some();
                if mc_on {
                    g.sched.exec = Some(to); // footprint assert in wake/delay
                }
                let mut world = g.world.take().expect("world re-entrancy");
                world.deliver(&mut g.sched, to, msg);
                g.world = Some(world);
                if mc_on {
                    g.sched.exec = None;
                }
            }
            EventKind::Resume { node, gen } => {
                if g.sched.nodes[node].gen != gen {
                    continue; // superseded by a later delay/wake
                }
                match g.sched.nodes[node].status {
                    Status::Ready { at: r } => debug_assert_eq!(r, at),
                    other => panic!("resume for node {node} in state {other:?}"),
                }
                g.sched.now = at;
                g.sched.nodes[node].status = Status::Running;
                if me == Some(node) {
                    return Ok(());
                }
                // Hand off to the resumed node's thread.
                shared.node_cvs[node].notify_one();
                // Park until a future driver resumes us.
                return match me {
                    Some(me) => shared.park(g, me),
                    None => Ok(()),
                };
            }
        }
    }
}

/// Run a simulated cluster to completion and return the final world.
///
/// `bodies` supplies one closure per node; all nodes start at virtual time 0.
/// Returns the world, the final virtual time (the maximum over all node
/// completion times and message deliveries) and the number of simulator
/// events processed, or the run's first failure.
pub fn run_cluster<W: World>(
    world: W,
    bodies: Vec<NodeBody<W>>,
) -> Result<(W, Time, u64), SimError> {
    run_cluster_inner(world, bodies, None)
}

/// Run a cluster under a model-checker hook: fully serialized, with every
/// commit point routed through [`McHook::choose`]. A pruned execution (the
/// hook returned `None`) ends with [`SimError::Pruned`].
pub fn run_cluster_mc<W: World>(
    world: W,
    bodies: Vec<NodeBody<W>>,
    mc: McInstall<W>,
) -> Result<(W, Time, u64), SimError> {
    run_cluster_inner(world, bodies, Some(mc))
}

/// The text of a panic payload, if it is a string.
fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    payload
        .downcast_ref::<&'static str>()
        .map(|s| s.to_string())
        .or_else(|| payload.downcast_ref::<String>().cloned())
        .unwrap_or_default()
}

fn run_cluster_inner<W: World>(
    world: W,
    bodies: Vec<NodeBody<W>>,
    mc: Option<McInstall<W>>,
) -> Result<(W, Time, u64), SimError> {
    let n = bodies.len();
    assert!(n > 0, "cluster needs at least one node");
    let mut sched = Sched::new(n);
    let (hook, msg_hash) = match mc {
        Some(m) => (Some(m.hook), Some(m.msg_hash)),
        None => (None, None),
    };
    // Install the hasher before the startup pushes so the initial n-way
    // resume tie is fingerprinted too.
    sched.mc_msg_hash = msg_hash;
    // Every node starts Ready at t=0; node 0's Resume is pushed first so it
    // runs first (deterministic startup order by node id).
    for node in 0..n {
        sched.nodes[node].status = Status::Ready { at: 0 };
        sched.nodes[node].gen = 1;
        sched.push(0, EventKind::Resume { node, gen: 1 });
    }
    let shared = Arc::new(Shared::<W> {
        state: Mutex::new(SimState {
            sched,
            world: Some(world),
            failure: None,
            mc: hook,
        }),
        node_cvs: (0..n).map(|_| Condvar::new()).collect(),
    });

    let handles: Vec<_> = bodies
        .into_iter()
        .enumerate()
        .map(|(node, body)| {
            let shared = Arc::clone(&shared);
            std::thread::Builder::new()
                .name(format!("dsm-node-{node}"))
                .spawn(move || {
                    let mut ctx = NodeCtx { shared, node };
                    let run = catch_unwind(AssertUnwindSafe(|| {
                        // Wait for our first Resume.
                        ctx.shared
                            .park(ctx.shared.lock(), node)
                            .unwrap_or_else(|a| a.unwind());
                        body(&mut ctx);
                        ctx.finish();
                    }));
                    // An `Abort` unwind only follows a failure already
                    // recorded; anything else is this node's own panic.
                    if let Err(payload) = run {
                        if !payload.is::<Abort>() {
                            let message = panic_message(payload.as_ref());
                            let err = SimError::NodePanic { node, message };
                            ctx.shared.fail(&mut ctx.shared.lock(), err);
                        }
                    }
                })
                .expect("spawn node thread")
        })
        .collect();

    // Kick off node 0: it is Ready at t=0 at the head of the queue, but no
    // thread is driving yet. Drive until the first hand-off; a failure at
    // that first commit point is recorded like any other.
    let _ = drive_serial(&shared, shared.lock(), None);
    for h in handles {
        h.join().expect("node threads catch their own panics");
    }

    let mut g = shared.lock();
    if let Some(err) = g.failure.take() {
        return Err(err);
    }
    let t = g.sched.now;
    let events = g.sched.events;
    Ok((g.world.take().expect("world"), t, events))
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A world that records message deliveries and can wake nodes.
    struct TestWorld {
        log: Vec<(Time, NodeId, u32)>,
        wake_on: Vec<Option<u32>>, // node -> tag that wakes it
    }

    impl World for TestWorld {
        type Msg = u32;
        fn deliver(&mut self, sched: &mut Sched<u32>, to: NodeId, msg: u32) {
            self.log.push((sched.now(), to, msg));
            if self.wake_on.get(to).copied().flatten() == Some(msg) && sched.is_blocked(to) {
                let now = sched.now();
                sched.wake(to, now);
            }
        }
    }

    #[test]
    fn advances_virtual_time_per_node() {
        let world = TestWorld {
            log: vec![],
            wake_on: vec![None, None],
        };
        let (_, t, _) = run_cluster(
            world,
            vec![
                Box::new(|ctx: &mut NodeCtx<TestWorld>| {
                    ctx.advance(100);
                    assert_eq!(ctx.now(), 100);
                    ctx.advance(50);
                    assert_eq!(ctx.now(), 150);
                }),
                Box::new(|ctx: &mut NodeCtx<TestWorld>| {
                    ctx.advance(500);
                    assert_eq!(ctx.now(), 500);
                }),
            ],
        )
        .unwrap();
        assert_eq!(t, 500);
    }

    #[test]
    fn messages_deliver_at_posted_time() {
        let world = TestWorld {
            log: vec![],
            wake_on: vec![None, Some(7)],
        };
        let (w, _, _) = run_cluster(
            world,
            vec![
                Box::new(|ctx: &mut NodeCtx<TestWorld>| {
                    ctx.world(|_, s| s.post(1, 250, 7));
                    ctx.advance(10);
                }),
                Box::new(|ctx: &mut NodeCtx<TestWorld>| {
                    ctx.block(); // until msg 7 arrives at t=250
                    assert_eq!(ctx.now(), 250);
                }),
            ],
        )
        .unwrap();
        assert_eq!(w.log, vec![(250, 1, 7)]);
    }

    #[test]
    fn post_done_drain_follows_event_chains() {
        // After every node body has returned, in-flight messages are still
        // delivered — including messages that deliveries themselves post
        // (retransmission-timer chains in the fabric depend on this).
        struct ChainWorld {
            log: Vec<(Time, u32)>,
        }
        impl World for ChainWorld {
            type Msg = u32;
            fn deliver(&mut self, sched: &mut Sched<u32>, _to: NodeId, msg: u32) {
                self.log.push((sched.now(), msg));
                if msg < 3 {
                    let at = sched.now() + 100;
                    sched.post(0, at, msg + 1);
                }
            }
        }
        let (w, t, _) = run_cluster(
            ChainWorld { log: vec![] },
            vec![Box::new(|ctx: &mut NodeCtx<ChainWorld>| {
                // Post the chain's head and return immediately: the whole
                // chain runs in the post-Done drain.
                ctx.world(|_, s| s.post(0, 1_000, 0));
            })],
        )
        .unwrap();
        assert_eq!(w.log, vec![(1_000, 0), (1_100, 1), (1_200, 2), (1_300, 3)]);
        assert_eq!(t, 1_300, "drain must advance the clock through the chain");
    }

    #[test]
    fn delay_pushes_back_compute_segment() {
        struct DelayWorld;
        impl World for DelayWorld {
            type Msg = ();
            fn deliver(&mut self, sched: &mut Sched<()>, to: NodeId, _msg: ()) {
                // Charge 100ns of occupancy beyond the target's scheduled
                // resume time.
                let until = sched.resume_at(to).unwrap_or(sched.now()) + 100;
                sched.delay(to, until);
            }
        }
        let (_, t, _) = run_cluster(
            DelayWorld,
            vec![
                Box::new(|ctx: &mut NodeCtx<DelayWorld>| {
                    ctx.world(|_, s| s.post(1, 50, ()));
                    ctx.advance(1);
                }),
                Box::new(|ctx: &mut NodeCtx<DelayWorld>| {
                    // Computing until 200; the message at t=50 charges 100ns
                    // beyond our scheduled resume, so we resume at 300.
                    ctx.advance(200);
                    assert_eq!(ctx.now(), 300);
                }),
            ],
        )
        .unwrap();
        assert_eq!(t, 300);
    }

    #[test]
    fn deterministic_event_order_across_runs() {
        fn run_once() -> Vec<(Time, NodeId, u32)> {
            let world = TestWorld {
                log: vec![],
                wake_on: vec![None; 4],
            };
            type TestBody = Box<dyn FnOnce(&mut NodeCtx<TestWorld>) + Send>;
            let bodies: Vec<TestBody> = (0..4)
                .map(|i| {
                    Box::new(move |ctx: &mut NodeCtx<TestWorld>| {
                        for k in 0..10u32 {
                            let target = ((i + 1) % 4) as NodeId;
                            ctx.world(|_, s| {
                                let at = s.now() + 37;
                                s.post(target, at, k * 10 + i as u32)
                            });
                            ctx.advance(13 + i as u64);
                        }
                    }) as TestBody
                })
                .collect();
            run_cluster(world, bodies).unwrap().0.log
        }
        let a = run_once();
        let b = run_once();
        assert_eq!(a, b);
        assert_eq!(a.len(), 40);
    }

    #[test]
    fn blocked_forever_is_a_deadlock() {
        let world = TestWorld {
            log: vec![],
            wake_on: vec![None],
        };
        let err = run_cluster(
            world,
            vec![Box::new(|ctx: &mut NodeCtx<TestWorld>| {
                ctx.advance(10);
                ctx.block();
            })],
        )
        .err()
        .expect("a node blocked forever must fail the run");
        assert_eq!(
            err,
            SimError::Deadlock {
                at: 10,
                statuses: vec![Status::Blocked]
            }
        );
        assert_eq!(
            err.to_string(),
            "simulation deadlock: event queue empty, node states [Blocked]"
        );
    }

    #[test]
    fn body_panic_is_reported_with_its_node() {
        let world = TestWorld {
            log: vec![],
            wake_on: vec![None; 3],
        };
        let err = run_cluster(
            world,
            vec![
                Box::new(|ctx: &mut NodeCtx<TestWorld>| ctx.block()),
                Box::new(|ctx: &mut NodeCtx<TestWorld>| {
                    ctx.advance(5);
                    panic!("node one gives up at {}", ctx.now());
                }),
                Box::new(|ctx: &mut NodeCtx<TestWorld>| ctx.advance(1_000)),
            ],
        )
        .err()
        .expect("a panicking body must fail the run");
        match err {
            SimError::NodePanic { node, message } => {
                assert_eq!(node, 1);
                assert!(message.contains("node one gives up at 5"), "{message}");
            }
            other => panic!("expected a node panic, got {other:?}"),
        }
    }

    #[test]
    fn pending_wake_is_consumed_by_next_block() {
        // A wake that lands while the node is still computing must not be
        // lost: the node's next block() returns immediately at (or after)
        // the wake time.
        struct WakeEarly;
        impl World for WakeEarly {
            type Msg = ();
            fn deliver(&mut self, sched: &mut Sched<()>, to: NodeId, _msg: ()) {
                let now = sched.now();
                sched.wake(to, now + 5);
            }
        }
        let (_, t, _) = run_cluster(
            WakeEarly,
            vec![
                Box::new(|ctx: &mut NodeCtx<WakeEarly>| {
                    ctx.world(|_, s| s.post(1, 10, ()));
                    ctx.advance(1);
                }),
                Box::new(|ctx: &mut NodeCtx<WakeEarly>| {
                    // Compute past the wake at t=15, then block: the stored
                    // wake releases us instantly instead of deadlocking.
                    ctx.advance(100);
                    ctx.block();
                    assert_eq!(ctx.now(), 100);
                }),
            ],
        )
        .unwrap();
        assert_eq!(t, 100);
    }

    #[test]
    fn delay_ignores_blocked_nodes() {
        struct DelayBlocked;
        impl World for DelayBlocked {
            type Msg = u8;
            fn deliver(&mut self, sched: &mut Sched<u8>, to: NodeId, msg: u8) {
                match msg {
                    0 => {
                        // Try to delay a blocked node: must be a no-op.
                        let until = sched.now() + 1_000_000;
                        sched.delay(to, until);
                        let now = sched.now();
                        sched.wake(to, now + 1);
                    }
                    _ => unreachable!(),
                }
            }
        }
        let (_, t, _) = run_cluster(
            DelayBlocked,
            vec![
                Box::new(|ctx: &mut NodeCtx<DelayBlocked>| {
                    ctx.world(|_, s| s.post(1, 50, 0));
                    ctx.advance(1);
                }),
                Box::new(|ctx: &mut NodeCtx<DelayBlocked>| {
                    ctx.block();
                    // Woken at 51, not delayed to 1ms.
                    assert_eq!(ctx.now(), 51);
                }),
            ],
        )
        .unwrap();
        assert_eq!(t, 51);
    }

    #[test]
    fn post_in_the_past_clamps_to_now() {
        struct PastPost {
            got: Vec<Time>,
        }
        impl World for PastPost {
            type Msg = bool;
            fn deliver(&mut self, sched: &mut Sched<bool>, _to: NodeId, msg: bool) {
                if msg {
                    // Attempt to post 100ns in the past.
                    let target = sched.now().saturating_sub(100);
                    sched.post(0, target, false);
                } else {
                    self.got.push(sched.now());
                }
            }
        }
        let (w, _, _) = run_cluster(
            PastPost { got: vec![] },
            vec![Box::new(|ctx: &mut NodeCtx<PastPost>| {
                ctx.world(|_, s| s.post(0, 500, true));
                ctx.advance(1_000);
            })],
        )
        .unwrap();
        assert_eq!(w.got, vec![500]);
    }

    #[test]
    fn ties_break_by_post_order() {
        let world = TestWorld {
            log: vec![],
            wake_on: vec![None, None],
        };
        let (w, _, _) = run_cluster(
            world,
            vec![
                Box::new(|ctx: &mut NodeCtx<TestWorld>| {
                    ctx.world(|_, s| {
                        s.post(1, 100, 1);
                        s.post(1, 100, 2);
                        s.post(1, 100, 3);
                    });
                    ctx.advance(1);
                }),
                Box::new(|ctx: &mut NodeCtx<TestWorld>| {
                    ctx.advance(200);
                }),
            ],
        )
        .unwrap();
        let tags: Vec<u32> = w.log.iter().map(|&(_, _, m)| m).collect();
        assert_eq!(tags, vec![1, 2, 3]);
    }

    /// Test hook: delegates every choice to a closure over
    /// `(number of choices, engine hash)`.
    struct PickHook<F: FnMut(usize, u64) -> Option<usize> + Send>(F);
    impl<W: World, F: FnMut(usize, u64) -> Option<usize> + Send> McHook<W> for PickHook<F> {
        fn choose(
            &mut self,
            _world: &W,
            engine_hash: u64,
            _at: Time,
            choices: &[McChoice<'_, W::Msg>],
        ) -> Option<usize> {
            (self.0)(choices.len(), engine_hash)
        }
    }

    fn tie_bodies() -> Vec<NodeBody<TestWorld>> {
        vec![
            Box::new(|ctx: &mut NodeCtx<TestWorld>| {
                ctx.world(|_, s| {
                    s.post(1, 100, 1);
                    s.post(1, 100, 2);
                    s.post(1, 100, 3);
                });
                ctx.advance(1);
            }),
            Box::new(|ctx: &mut NodeCtx<TestWorld>| {
                ctx.advance(200);
            }),
        ]
    }

    #[test]
    fn mc_hook_reverses_tie_order() {
        let world = TestWorld {
            log: vec![],
            wake_on: vec![None, None],
        };
        let (w, _, _) = run_cluster_mc(
            world,
            tie_bodies(),
            McInstall {
                hook: Box::new(PickHook(|n: usize, _| Some(n - 1))),
                msg_hash: Box::new(|_, m: &u32| u64::from(*m)),
            },
        )
        .unwrap();
        let tags: Vec<u32> = w.log.iter().map(|&(_, _, m)| m).collect();
        assert_eq!(tags, vec![3, 2, 1], "picking last reverses the tie");
    }

    #[test]
    fn mc_first_choice_matches_serial_and_hashes_replay() {
        fn mc_run() -> (Vec<(Time, NodeId, u32)>, Vec<u64>, u64) {
            let hashes = Arc::new(Mutex::new(Vec::new()));
            let sink = Arc::clone(&hashes);
            let world = TestWorld {
                log: vec![],
                wake_on: vec![None, None],
            };
            let (w, _, ev) = run_cluster_mc(
                world,
                tie_bodies(),
                McInstall {
                    hook: Box::new(PickHook(move |_, eh| {
                        sink.lock().unwrap().push(eh);
                        Some(0)
                    })),
                    msg_hash: Box::new(|to, m: &u32| fold64(u64::from(*m), to as u64)),
                },
            )
            .unwrap();
            let hs = hashes.lock().unwrap().clone();
            (w.log, hs, ev)
        }
        let serial = run_cluster(
            TestWorld {
                log: vec![],
                wake_on: vec![None, None],
            },
            tie_bodies(),
        )
        .unwrap()
        .0
        .log;
        let (log_a, hashes_a, ev_a) = mc_run();
        let (log_b, hashes_b, ev_b) = mc_run();
        assert_eq!(log_a, serial, "always-first replays the serial schedule");
        assert_eq!(log_a, log_b);
        assert_eq!(ev_a, ev_b);
        assert!(!hashes_a.is_empty());
        assert_eq!(hashes_a, hashes_b, "engine hashes are replay-stable");
    }

    #[test]
    fn mc_prune_is_reported_as_pruned() {
        let world = TestWorld {
            log: vec![],
            wake_on: vec![None, None],
        };
        let mut steps = 0u32;
        let r = run_cluster_mc(
            world,
            tie_bodies(),
            McInstall {
                hook: Box::new(PickHook(move |_, _| {
                    steps += 1;
                    if steps > 2 {
                        None
                    } else {
                        Some(0)
                    }
                })),
                msg_hash: Box::new(|_, m: &u32| u64::from(*m)),
            },
        );
        assert_eq!(r.err(), Some(SimError::Pruned));
    }

    #[test]
    fn mc_prune_at_the_first_commit_point() {
        // The kick-off commit point runs on the calling thread, before any
        // node body starts: a prune there ends the run the same way.
        let r = run_cluster_mc(
            TestWorld {
                log: vec![],
                wake_on: vec![None, None],
            },
            tie_bodies(),
            McInstall {
                hook: Box::new(PickHook(|_, _| None)),
                msg_hash: Box::new(|_, m: &u32| u64::from(*m)),
            },
        );
        assert_eq!(r.err(), Some(SimError::Pruned));
    }
}
