//! A threaded in-process OpenNF runtime.
//!
//! The simulator (`opennf-controller`) gives deterministic virtual-time
//! experiments; this crate runs the *same southbound protocol* under real
//! OS-thread concurrency, mirroring the paper's deployment shape (§7):
//!
//! * each NF instance runs on its own thread, wrapping the same
//!   [`opennf_nf::EventedNf`] harness the simulator uses;
//! * "The controller and NFs exchange JSON messages to invoke southbound
//!   functions, provide function results, and send events" — the channel
//!   payloads here are literally JSON strings ([`wire`]);
//! * a software switch ([`router::Router`]) steers generator traffic to
//!   instances through an atomically-updated rule table.
//!
//! The runtime demonstrates that the loss-free move protocol holds under
//! genuine races (threads, not virtual time): packets keep flowing while
//! state moves, and every packet is processed exactly once.

//!
//! Failures are first-class: NF panics are caught inside the worker and
//! reported as [`WireEvent::NfFailed`], channel deaths and reply timeouts
//! surface as typed [`RtError`]s, and the controller never panics because
//! an instance died. The [`faults`] module extends the simulator's seeded
//! [`opennf_util::FaultPlan`] to these channels, so the JSON southbound
//! path can be soak-tested under the same replayable failure schedules as
//! the simulator.

pub mod controller;
pub mod engine;
pub mod error;
pub mod faults;
pub mod router;
pub mod shards;
#[cfg(test)]
pub(crate) mod testutil;
pub mod wire;
pub mod worker;

pub use controller::{MoveStats, RtController};
pub use engine::OpSpec;
pub use error::RtError;
pub use faults::{worker_node, FaultLedger, FaultyChannel, RtFaults, CTRL_NODE, ROUTER_NODE};
pub use router::Router;
pub use shards::ShardedRt;
pub use wire::{WireCall, WireEvent, WireMsg, WireReply};
pub use worker::{spawn_worker, spawn_worker_faulty, PeerMesh, WorkerHandle};

// The rt controller journals through the same ledger types the simulator's
// controller uses; re-exported so harnesses need only one import path.
pub use opennf_controller::{JournalPhase, JournalRecord, OpJournal, OpReport};

// The scheduling subsystem the engine's admission delegates to;
// re-exported so harnesses can pick a policy without a direct dep.
pub use opennf_sched::{OpClass, SchedConfig, SchedPolicy};
