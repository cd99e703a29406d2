#![warn(missing_docs)]

//! The paper's core contribution: three software coherence protocols —
//! sequential consistency (SC), single-writer lazy release consistency
//! (SW-LRC) and home-based lazy release consistency (HLRC) — plus the
//! timestamp-lease Tardis protocol as a fourth peer, running at a
//! configurable coherence granularity over the simulated cluster.
//!
//! The crate exposes:
//!
//! * [`ProtoWorld`] — all shared protocol state, pluggable into the
//!   simulation engine as its [`dsm_sim::World`];
//! * [`ops`] — node-side access-check and fault entry points;
//! * [`sync`] — protocol-aware locks and barriers;
//! * [`Protocol`] / [`ProtoConfig`] — run configuration;
//! * [`history`] — the execution history every counter, trace, profile
//!   and checker reads, and the run-time checker interface;
//! * [`mutate`] — feature-gated protocol mutations for checker self-tests.

pub mod config;
pub mod diff;
pub mod history;
pub mod hlrc;
pub mod lrc;
pub mod msg;
pub mod mutate;
pub mod ops;
pub mod pool;
pub mod sc;
pub mod swlrc;
pub mod sync;
pub mod tardis;
pub mod vt;
pub mod world;

pub use config::{ProtoConfig, Protocol};
pub use diff::Diff;
pub use history::{Checker, History, Sink, Violation};
pub use msg::{Envelope, FaultKind, Notice, Packet, ProtoMsg};
pub use mutate::{MutFabric, MutRt, Mutation, MutationSpec, MUTATIONS};
pub use ops::Attempt;
pub use vt::VClock;
pub use world::{final_image, ProtoWorld};
