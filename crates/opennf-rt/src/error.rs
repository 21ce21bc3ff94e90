//! Typed failures of the threaded runtime.
//!
//! Channel sends/receives, wire parsing, and worker health all surface
//! here instead of panicking: a dead NF thread must never poison the
//! controller — it becomes an [`RtError`] the caller can act on (the
//! failover pattern of Figure 9).

use std::fmt;

/// What can go wrong in the threaded runtime.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RtError {
    /// The worker's channel is closed: its thread has exited (shut down,
    /// or died after reporting [`NfFailed`](RtError::NfFailed)).
    WorkerGone {
        /// Worker index.
        worker: usize,
    },
    /// The controller-bound channel is closed: every worker is gone.
    ChannelClosed,
    /// No reply to a southbound request within the reply timeout.
    Timeout {
        /// Correlation id of the unanswered request.
        id: u64,
    },
    /// A malformed wire message or an error reply from a worker.
    Wire(String),
    /// A worker's NF panicked while processing; the worker reported the
    /// failure and exited instead of poisoning its channels.
    NfFailed {
        /// Worker index.
        worker: usize,
        /// The panic payload (or failure description).
        reason: String,
    },
    /// The controller crashed between two op-journal phase transitions
    /// (test hook: [`crate::RtController::crash_after`]). Every in-flight
    /// op fails with this; [`crate::RtController::recover`] then drives
    /// each one to a terminal phase from its journal.
    CtrlCrashed,
    /// A submitted op the controller cannot run — its source and
    /// destination are the same worker, or it names a worker that does not
    /// exist. Rejected before it gets an op id; nothing is journaled.
    InvalidOp(String),
}

impl fmt::Display for RtError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RtError::WorkerGone { worker } => write!(f, "worker {worker} is gone"),
            RtError::ChannelClosed => write!(f, "controller channel closed (all workers gone)"),
            RtError::Timeout { id } => write!(f, "no reply to request {id} within the timeout"),
            RtError::Wire(msg) => write!(f, "wire error: {msg}"),
            RtError::NfFailed { worker, reason } => {
                write!(f, "NF at worker {worker} failed: {reason}")
            }
            RtError::CtrlCrashed => write!(f, "controller crashed mid-operation"),
            RtError::InvalidOp(why) => write!(f, "invalid op: {why}"),
        }
    }
}

impl std::error::Error for RtError {}
