#![warn(missing_docs)]

//! Deterministic discrete-event simulation engine for the DSM reproduction.
//!
//! The engine runs one OS thread per simulated cluster node. Execution is
//! fully serialized: exactly one logical entity (a node thread or an
//! in-flight message handler) runs at any instant, under a single global
//! lock. All pending events sit in one calendar queue, ordered by
//! `(virtual time, sequence number)`, where the sequence number is assigned
//! at enqueue time, so a given program produces exactly the same event
//! order — and therefore the same statistics — on every run. The model
//! checker ([`run_cluster_mc`]) drives the same loop but picks among events
//! tied at the head time.
//!
//! Node threads interact with the engine through [`NodeCtx`]:
//!
//! * [`NodeCtx::advance`] moves the node's virtual clock forward (modeling
//!   computation), processing any intervening events;
//! * [`NodeCtx::block`] parks the node until some message handler wakes it;
//! * [`NodeCtx::world`] gives exclusive access to the shared protocol state
//!   plus a [`Sched`] handle for posting messages and waking nodes.
//!
//! Messages posted with [`Sched::post`] are delivered by calling
//! [`World::deliver`] at their arrival time; the handler runs inline on
//! whichever thread is currently driving the event loop.
//!
//! A run either completes or ends with one [`SimError`]: a deadlock (the
//! queue ran dry with a node still waiting), a model-checker prune, or a
//! node panic. The first failure recorded wins; the other node threads
//! leave their bodies by a silent unwind that no panic hook sees, and the
//! error is returned only after every thread has been joined.

pub mod engine;
pub mod queue;
pub mod rng;
pub mod time;

pub use engine::{
    run_cluster, run_cluster_mc, McChoice, McEvent, McHook, McInstall, NodeCtx, Sched, SimError,
    World,
};
pub use time::{Time, MICROS, MILLIS, SECS};

/// Index of a simulated cluster node, `0..nodes`.
pub type NodeId = usize;
