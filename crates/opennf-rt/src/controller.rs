//! The threaded controller: executes loss-free moves over the JSON wire
//! protocol while traffic keeps flowing from generator threads.
//!
//! Every controller → worker message leaves through one of two functions:
//! `RtController::send` for southbound calls and
//! `RtController::replay` for buffered packets. Every call is fenced
//! ([`WireMsg::Request`]): it carries the request floor, so a worker
//! applies it at most once and never after its op has ended, whatever the
//! network does to it.
//!
//! Every southbound exchange is failure-aware: sends to dead workers,
//! missing replies, malformed wire messages, and NF panics all surface as
//! [`RtError`] instead of panicking the controller thread. A worker that
//! dies mid-operation produces [`RtError::NfFailed`] (its final
//! [`WireEvent::NfFailed`] report) or [`RtError::WorkerGone`], and the
//! caller — like the simulator's failover app — decides how to recover.

use std::collections::{HashMap, VecDeque};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use crossbeam::channel::{unbounded, Receiver, RecvTimeoutError, Sender};
use opennf_controller::{JournalPhase, JournalRecord, OpId, OpJournal, OpReport};
use opennf_nf::{EventedNf, NetworkFunction};
use opennf_packet::{Filter, FlowId};
use opennf_telemetry::Telemetry;

use crate::engine::{check_workers, OpSpec};
use crate::error::RtError;
use crate::faults::{worker_node, FaultyChannel, RtFaults, CTRL_NODE, ROUTER_NODE};
use crate::router::Router;
use crate::wire::{decode_frame, FrameBuf, WireCall, WireEvent, WireMsg, WireReply};
use crate::worker::{spawn_worker_full, WorkerHandle};
use opennf_util::FaultPlan;

/// Replayed packets are coalesced into frames of at most this many
/// messages: one channel send (and one fault verdict) per frame instead of
/// per packet, without unbounded frame sizes.
const REPLAY_BATCH: usize = 64;

/// How long the controller waits for any single southbound reply before
/// declaring the request dead.
const REPLY_TIMEOUT: Duration = Duration::from_secs(5);

/// Outcome of a threaded loss-free move.
#[derive(Debug, Clone)]
pub struct MoveStats {
    /// Flows moved (chunks).
    pub chunks: usize,
    /// Bytes of state moved.
    pub bytes: usize,
    /// Events buffered during the move and replayed to the destination.
    pub events_replayed: usize,
    /// Wall-clock duration of the operation.
    pub duration: std::time::Duration,
}

/// What recovery needs to finish or roll back an op, beyond the journal's
/// report snapshots: the op's spec, its transfer progress, and the
/// buffered-packet events the controller has collected but not yet
/// replayed. Written at admission — before the op's first journal
/// record — and removed when the op reaches a terminal phase. Like the
/// journal, this lives on the controller struct — the crash model is a
/// recovered process (the sim's model too), so struct fields are the
/// durable store while in-flight messages and timers die.
/// Spooling events here as they arrive is what keeps a crash from
/// silently losing a packet that was dropped at the source on the
/// controller's own instruction.
#[derive(Debug, Clone)]
pub(crate) struct OpResidue {
    /// The op as submitted: recovery rebuilds its task from this.
    pub(crate) spec: OpSpec,
    /// Flows shipped toward (or confirmed at) the destination so far: the
    /// rollback's purge list there, the fail-forward's delete list at the
    /// source.
    pub(crate) put_flows: Vec<FlowId>,
    /// Buffered-packet events collected but not yet replayed.
    pub(crate) events: Vec<WireEvent>,
    /// The op's first request id — reset to the next id by recovery, which
    /// abandons every earlier request. The oldest live op's is the request
    /// floor ([`RtController::floor`]).
    pub(crate) first_id: u64,
    /// P2P moves: the latest transfer round's correlation id (see
    /// [`OpResidue::purge_call`]).
    pub(crate) p2p_through: Option<u64>,
}

impl OpResidue {
    pub(crate) fn new(spec: OpSpec, first_id: u64) -> Self {
        OpResidue { spec, put_flows: Vec::new(), events: Vec::new(), first_id, p2p_through: None }
    }

    /// The call that rolls the partial import back at the destination,
    /// if there is anything to roll back. A relayed op's puts travel the
    /// controller link, so a plain delete queued behind them covers them
    /// all; a P2P move's chunk batches travel worker → worker, so its
    /// rounds are tombstoned as well — a batch still in flight cannot
    /// resurrect the deleted state. The engine's abort path sends exactly
    /// this — for a recovered op too.
    pub(crate) fn purge_call(&self) -> Option<WireCall> {
        let flow_ids = self.put_flows.clone();
        match self.p2p_through {
            Some(through_id) => Some(WireCall::AbortTransfer { flow_ids, through_id }),
            None if flow_ids.is_empty() => None,
            None => Some(WireCall::DelPerflow { flow_ids }),
        }
    }
}

/// The controller: owns the workers and the router.
pub struct RtController {
    pub(crate) workers: Vec<WorkerHandle>,
    /// The shared rule table generators route through.
    pub router: Arc<Router>,
    /// Worker → shard, as [`RtController::build`] partitioned the workers
    /// (all 0 for a single shard). A shard is an ownership domain, not a
    /// second engine: the partition decides which worker channels a fault
    /// plan shims and which ops are marked as crossing the east-west
    /// boundary, nothing else.
    pub(crate) shard_of: Vec<usize>,
    /// [`Router::lookups`] as last sampled, and when it was last seen to
    /// have moved — the origin of the post-flip quiet window. A change
    /// noticed late is stamped late, which only lengthens the window.
    lookups_seen: u64,
    lookups_seen_at: Instant,
    from_workers: Receiver<String>,
    to_ctrl: Sender<String>,
    pub(crate) next_id: u64,
    /// Controller → worker links (shimmed when a fault plan is armed).
    ctrl_links: Vec<FaultyChannel>,
    /// Router → worker links (what fault-aware generators send through).
    data_links: Vec<FaultyChannel>,
    /// Workers whose `NfFailed` report has been received: their threads
    /// are exiting, so nothing more is posted to them (see `post`).
    dead: Vec<bool>,
    pub(crate) reply_timeout: Duration,
    /// Packet uids the last aborted move could not replay (its explicit
    /// loss accounting, mirroring the simulator's `abort_lost`).
    pub(crate) last_abort_lost: Vec<u64>,
    /// Messages decoded from a coalesced frame but not yet consumed: a
    /// frame's messages drain in order before the channel is polled again.
    inbox: VecDeque<WireMsg>,
    /// The run's telemetry (wall clock). Workers share it; its counters
    /// below are resolved once so the hot paths never touch the registry.
    pub(crate) tel: Telemetry,
    c_frames_decoded: Arc<AtomicU64>,
    c_frames_encoded: Arc<AtomicU64>,
    pub(crate) c_events_pumped: Arc<AtomicU64>,
    /// Write-ahead op journal: the same [`JournalPhase`] ledger shape the
    /// sim controller keeps, appended at every op phase boundary.
    /// [`RtController::recover`] resumes each op from its last record
    /// (the rt's own rule, not yet the sim's — see ROADMAP item 1).
    pub(crate) journal: OpJournal,
    /// Mint for op ids.
    next_op: u64,
    /// Per-op recovery residue, keyed by raw op id.
    pub(crate) residue: HashMap<u64, OpResidue>,
    /// Test hook: "crash" the controller immediately after the next
    /// journal append of this phase (fires once).
    pub(crate) crash_after: Option<JournalPhase>,
    /// Set when the crash hook fired; cleared by [`RtController::recover`].
    pub(crate) crashed: bool,
    /// The op scheduler: admission policy plus per-source export
    /// bandwidth accounting. FIFO with a bottomless bucket by default —
    /// byte-identical to the engine before the scheduler existed.
    pub(crate) sched: opennf_sched::OpScheduler,
}

/// Where a controller → worker message travels.
#[derive(Clone, Copy, PartialEq, Eq)]
pub(crate) enum Via {
    /// The controller link (shimmed when the worker is in a fault domain).
    Link,
    /// The management channel: the raw, unshimmed worker inbox, standing
    /// in for the reliable control connection — teardown must not be
    /// droppable.
    Mgmt,
}

/// What one controller-side receive produced.
pub(crate) enum Recv {
    /// The next message (possibly popped out of a coalesced frame).
    Msg(WireMsg),
    /// An undecodable channel payload, already counted and recorded.
    Bad,
    /// Nothing arrived within the timeout.
    Timeout,
    /// Every sender is gone.
    Disconnected,
}

impl RtController {
    /// [`RtController::build`] with one shard, no fault plan and `tel`
    /// (keep a clone to read spans/metrics during and after the run). Kept
    /// beside `build` because the repo benchmark constructs through it.
    pub fn new_with_telemetry(nfs: Vec<Box<dyn NetworkFunction>>, tel: Telemetry) -> Self {
        Self::build(vec![nfs], None, tel).0
    }

    /// The one constructor: spawns one worker per NF behind a rule table
    /// holding the default route to worker 0. Each inner vector of
    /// `shards` is one shard's NFs; workers are numbered shard-major
    /// (shard 0's first, then shard 1's, …), and that global index is the
    /// one every other method takes. A single shard is `vec![nfs]`.
    ///
    /// With `faults = Some((plan, k))`, shard `k` is the fault domain:
    /// every channel of its workers (uplink, controller link, data link,
    /// P2P dials) runs through a [`FaultyChannel`] armed with `plan`, each
    /// addressed as [`worker_node`] of its global index, and injected
    /// faults land in the flight recorder as `fault.*` events. A
    /// worker-less fault shard leaves the plan inert. Returns the shared
    /// [`RtFaults`] ledger (read it, and join its delay pump after
    /// shutdown) when a plan was given.
    ///
    /// An op whose endpoints lie in different shards is an ordinary engine
    /// op, marked `ew.handoff` at admission and `ew.release` next to its
    /// terminal journal record — what the happens-before oracle pairs.
    pub fn build(
        shards: Vec<Vec<Box<dyn NetworkFunction>>>,
        faults: Option<(FaultPlan, usize)>,
        tel: Telemetry,
    ) -> (Self, Option<Arc<RtFaults>>) {
        assert!(!shards.is_empty(), "at least one shard");
        let shard_of: Vec<usize> = shards
            .iter()
            .enumerate()
            .flat_map(|(k, nfs)| std::iter::repeat_n(k, nfs.len()))
            .collect();
        // The fault domain: the fault shard's range of global indices.
        let (plan, domain) = match faults {
            Some((plan, k)) => {
                assert!(k < shards.len(), "fault shard exists");
                let first = shard_of.partition_point(|&s| s < k);
                (Some(plan), first..first + shards[k].len())
            }
            None => (None, 0..0),
        };
        let nfs: Vec<Box<dyn NetworkFunction>> = shards.into_iter().flatten().collect();
        let faults = plan.map(|plan| {
            let (faults, pump) = RtFaults::arm(plan);
            faults.set_telemetry(tel.clone());
            (faults, pump)
        });
        // The shim for worker `i`'s channels, if it is in the fault domain.
        let shim_of = |i: usize| faults.clone().filter(|_| domain.contains(&i));
        let router = Arc::new(Router::new());
        router.install(0, Filter::any(), 0);
        let (to_ctrl, from_workers) = unbounded();
        // Every inbox exists before any worker spawns, so each worker gets
        // the whole mesh at spawn; it dials worker j's inbox on its first
        // P2P transfer to j, through its own shim, so a plan can drop or
        // delay chunk batches on the direct path too.
        let inboxes: Vec<(Sender<String>, Receiver<String>)> =
            nfs.iter().map(|_| unbounded()).collect();
        let peers: Vec<Sender<String>> = inboxes.iter().map(|(tx, _)| tx.clone()).collect();
        let workers: Vec<WorkerHandle> = nfs
            .into_iter()
            .zip(inboxes)
            .enumerate()
            .map(|(i, (nf, inbox))| {
                let (up, peers) = (to_ctrl.clone(), peers.clone());
                spawn_worker_full(i, nf, inbox, up, peers, shim_of(i), tel.clone())
            })
            .collect();
        let link =
            |i: usize, src| FaultyChannel::new(peers[i].clone(), src, worker_node(i), shim_of(i));
        let ctrl_links = (0..peers.len()).map(|i| link(i, CTRL_NODE)).collect();
        let data_links = (0..peers.len()).map(|i| link(i, ROUTER_NODE)).collect();
        let c_frames_decoded = tel.counter("rt.frames.decoded");
        let c_frames_encoded = tel.counter("rt.frames.encoded");
        let c_events_pumped = tel.counter("rt.events.pumped");
        let ctrl = RtController {
            workers,
            lookups_seen: router.lookups(),
            lookups_seen_at: Instant::now(),
            router,
            shard_of,
            from_workers,
            to_ctrl,
            next_id: 1,
            dead: vec![false; peers.len()],
            ctrl_links,
            data_links,
            reply_timeout: REPLY_TIMEOUT,
            last_abort_lost: Vec::new(),
            inbox: VecDeque::new(),
            tel,
            c_frames_decoded,
            c_frames_encoded,
            c_events_pumped,
            journal: OpJournal::new(),
            next_op: 1,
            residue: HashMap::new(),
            crash_after: None,
            crashed: false,
            sched: opennf_sched::OpScheduler::new(opennf_sched::SchedPolicy::Fifo),
        };
        (ctrl, faults.map(|(f, _)| f))
    }

    /// Swaps the op-scheduling policy (fresh policy state, default
    /// config). Takes effect for the next [`RtController::run_ops`] call.
    pub fn set_sched_policy(&mut self, policy: opennf_sched::SchedPolicy) {
        self.sched = opennf_sched::OpScheduler::new(policy);
    }

    /// Swaps the op-scheduling policy with explicit tunables (DRR
    /// quantum/costs, aging, token bucket, put window).
    pub fn set_sched_config(
        &mut self,
        policy: opennf_sched::SchedPolicy,
        cfg: opennf_sched::SchedConfig,
    ) {
        self.sched = opennf_sched::OpScheduler::with_config(policy, cfg);
    }

    /// The active op-scheduling policy.
    pub fn sched_policy(&self) -> opennf_sched::SchedPolicy {
        self.sched.policy()
    }

    /// The run's telemetry handle.
    pub fn telemetry(&self) -> &Telemetry {
        &self.tel
    }

    /// Pops the next controller-bound wire message, decoding coalesced
    /// frames as they arrive.
    pub(crate) fn recv_msg(&mut self, timeout: Duration) -> Recv {
        loop {
            if let Some(m) = self.inbox.pop_front() {
                if let WireMsg::Event { worker, ev: WireEvent::NfFailed { .. } } = m {
                    if let Some(dead) = self.dead.get_mut(worker) {
                        *dead = true;
                    }
                }
                return Recv::Msg(m);
            }
            match self.from_workers.recv_timeout(timeout) {
                Ok(raw) => match decode_frame(&raw) {
                    Ok(msgs) => {
                        self.c_frames_decoded.fetch_add(1, Ordering::Relaxed);
                        self.inbox.extend(msgs);
                    }
                    Err(e) => {
                        // Visible in the flight recorder, not just to the
                        // one caller that happens to be receiving.
                        self.tel.counter("rt.frames.bad").fetch_add(1, Ordering::Relaxed);
                        self.tel.event("wire.bad_frame", Some(e.to_string()));
                        return Recv::Bad;
                    }
                },
                Err(RecvTimeoutError::Timeout) => return Recv::Timeout,
                Err(RecvTimeoutError::Disconnected) => return Recv::Disconnected,
            }
        }
    }

    /// Overrides the per-reply southbound timeout (fault soaks use a short
    /// one so a dropped request fails the operation quickly).
    pub fn with_reply_timeout(mut self, timeout: Duration) -> Self {
        self.reply_timeout = timeout;
        self
    }

    /// Injects a packet through the router (what generator threads do via
    /// a clone of [`RtController::router`] and worker senders — this
    /// method is the single-threaded convenience). Fails if the routed-to
    /// worker is dead. Runs through the router → worker fault shim.
    pub fn inject(&self, pkt: opennf_packet::Packet) -> Result<(), RtError> {
        if let Some(w) = self.router.route(&pkt) {
            self.data_links[w]
                .send(&WireMsg::Packet { packet: pkt })
                .map_err(|_| RtError::WorkerGone { worker: w })?;
        }
        Ok(())
    }

    /// Samples the data plane's lookup count and returns when it was last
    /// seen to move.
    pub(crate) fn observe_lookups(&mut self) -> Instant {
        let n = self.router.lookups();
        if n != self.lookups_seen {
            self.lookups_seen = n;
            self.lookups_seen_at = Instant::now();
        }
        self.lookups_seen_at
    }

    /// Flips `filter` to `worker` and returns the origin of the post-flip
    /// quiet window
    /// ([`flip_settled`](crate::engine::flip_settled)): when the data plane
    /// was last seen looking a route up. Sampled *after* the install, so
    /// every lookup that read the old table is in the sample.
    pub(crate) fn flip_route(&mut self, filter: Filter, worker: usize) -> Instant {
        self.router.install(10, filter, worker);
        self.observe_lookups()
    }

    /// A clone of worker `i`'s channel (for generator threads).
    pub fn worker_tx(&self, i: usize) -> Sender<String> {
        self.workers[i].tx.clone()
    }

    /// The router → worker `i` link, fault shim included (what generator
    /// threads in fault-armed runs should send packets through).
    pub fn data_tx(&self, i: usize) -> FaultyChannel {
        self.data_links[i].clone()
    }

    /// Sender for controller-bound messages (used by tests to emulate
    /// extra event sources).
    pub fn ctrl_tx(&self) -> Sender<String> {
        self.to_ctrl.clone()
    }

    /// Synchronization barrier: returns once worker `worker` has drained
    /// every message queued on its channel before this call (FIFO
    /// ordering), and re-homes the events those messages raised
    /// (`RtController::home_event`). Fails only because of `worker`:
    /// another worker's failure or an undecodable frame does not end the
    /// wait. Benchmarks use this to keep preload processing out of a
    /// measured move window. A worker that does not exist is
    /// [`RtError::InvalidOp`].
    pub fn quiesce(&mut self, worker: usize) -> Result<(), RtError> {
        check_workers(&format!("quiesce {worker}"), &[worker], self.workers.len())?;
        let id = self.send(worker, WireCall::DelPerflow { flow_ids: Vec::new() }, Via::Link, 0)?;
        Self::expect_done(self.await_reply(worker, id)?)
    }

    /// The request floor: the first request id of the oldest live op (one
    /// with a residue), or the next id when none is live. It moves only
    /// when an op is admitted, finalized or recovered — never with reply
    /// timing — so a single op's request bytes repeat from run to run.
    fn floor(&self) -> u64 {
        self.residue.values().map(|r| r.first_id).min().unwrap_or(self.next_id)
    }

    /// Sends `call` to worker `worker` via `via` as a fenced request and
    /// returns its correlation id. `span` (0 = none) is the raw id of the
    /// controller span issuing it, so the worker's frame-decode span links
    /// back across the thread boundary; a shimmed link is never stamped,
    /// because span ids are allocated racily across threads and a fault
    /// verdict keyed on rerun-varying bytes would break ledger
    /// determinism. An injected drop is a *successful* send — the message
    /// just never arrives, exactly as on a real network.
    pub(crate) fn send(
        &mut self,
        worker: usize,
        call: WireCall,
        via: Via,
        span: u64,
    ) -> Result<u64, RtError> {
        let (id, floor) = (self.next_id, self.floor());
        self.next_id += 1;
        let shimmed = via == Via::Link && self.ctrl_links[worker].is_shimmed();
        let span = (span != 0 && !shimmed).then_some(span);
        let json = WireMsg::Request { id, floor, call, span }.to_json();
        if self.post(worker, via, json) {
            Ok(id)
        } else {
            Err(RtError::WorkerGone { worker })
        }
    }

    /// Hands one channel payload to worker `worker` via `via`; `false`
    /// when the worker is gone or has reported its NF failed. A dying
    /// worker's inbox may outlive its report for a moment; nothing posted
    /// there is served, so a send to it fails at once as `WorkerGone`
    /// instead of waiting out a reply timeout, and a replay to it counts
    /// its packets lost instead of released.
    fn post(&self, worker: usize, via: Via, json: String) -> bool {
        if self.dead[worker] {
            return false;
        }
        match via {
            Via::Link => self.ctrl_links[worker].send_json(json).is_ok(),
            Via::Mgmt => self.workers[worker].tx.send(json).is_ok(),
        }
    }

    /// Waits for worker `worker`'s response to `id`, re-homing any events
    /// that arrive in the meantime ([`RtController::home_event`]). Only
    /// `worker`'s own [`WireEvent::NfFailed`] report aborts the wait —
    /// that reply is never coming; another worker's failure, like an
    /// undecodable frame ([`RtController::recv_msg`] counted and recorded
    /// it), is not this wait's to report.
    fn await_reply(&mut self, worker: usize, id: u64) -> Result<WireReply, RtError> {
        loop {
            match self.recv_msg(self.reply_timeout) {
                Recv::Timeout => return Err(RtError::Timeout { id }),
                Recv::Disconnected => return Err(RtError::ChannelClosed),
                Recv::Msg(WireMsg::Response { id: rid, reply }) if rid == id => return Ok(reply),
                Recv::Msg(WireMsg::Event { worker: w, ev: WireEvent::NfFailed { reason } }) => {
                    if w == worker {
                        return Err(RtError::NfFailed { worker, reason });
                    }
                }
                Recv::Msg(WireMsg::Event { worker, ev }) => {
                    self.c_events_pumped.fetch_add(1, Ordering::Relaxed);
                    self.home_event(worker, ev);
                }
                Recv::Msg(_) | Recv::Bad => {}
            }
        }
    }

    /// Delivers an event no running op claims. If `worker` is the armed
    /// source of a live op (one with a residue — e.g. crashed and not yet
    /// recovered), the packet was dropped on that op's instruction and
    /// spools into its residue for the op's replay; otherwise it goes
    /// wherever the rule table points now.
    pub(crate) fn home_event(&mut self, worker: usize, ev: WireEvent) {
        let owner = self
            .residue
            .values_mut()
            .find(|r| r.spec.src == worker && r.spec.kind != opennf_sched::OpClass::Copy);
        if let Some(res) = owner {
            res.events.push(ev);
        } else if let WireEvent::PacketReceived { ref packet } = ev {
            if let Some(w) = self.router.lookup(packet) {
                let (_, lost) = self.replay(w, vec![ev], Via::Link);
                self.last_abort_lost.extend(lost);
            }
        }
    }

    /// Checks a reply that should be a plain completion.
    fn expect_done(reply: WireReply) -> Result<(), RtError> {
        match reply {
            WireReply::Done => Ok(()),
            WireReply::Error { message } => Err(RtError::Wire(message)),
            other => Err(RtError::Wire(format!("unexpected reply: {other:?}"))),
        }
    }

    /// Replays buffered event packets to `dst` via `via`, marked
    /// do-not-buffer / do-not-drop (§4.3), coalesced into frames of at
    /// most [`REPLAY_BATCH`] packets — one channel send per frame instead
    /// of per packet. A shimmed link gets one packet per send instead:
    /// how many events are buffered at replay time is timing-dependent,
    /// and a frame whose composition varies between reruns would get
    /// rerun-varying content-addressed fault verdicts. Returns how many
    /// packets were handed over and the uids of those that could not be
    /// (the worker is gone), for the caller's loss accounting.
    pub(crate) fn replay(&self, dst: usize, events: Vec<WireEvent>, via: Via) -> (usize, Vec<u64>) {
        let per_packet = via == Via::Link && self.ctrl_links[dst].is_shimmed();
        let (mut msgs, mut uids) = (Vec::new(), Vec::new());
        for ev in events {
            if let WireEvent::PacketReceived { mut packet } = ev {
                packet.do_not_buffer = true;
                packet.do_not_drop = true;
                uids.push(packet.uid);
                msgs.push(WireMsg::Packet { packet });
            }
        }
        let batch = if per_packet { 1 } else { REPLAY_BATCH };
        let (mut sent, mut lost, mut buf) = (0usize, Vec::new(), FrameBuf::new());
        for (run, uids) in msgs.chunks(batch).zip(uids.chunks(batch)) {
            let json = if per_packet {
                run[0].to_json()
            } else {
                run.iter().for_each(|m| buf.push(m));
                self.c_frames_encoded.fetch_add(1, Ordering::Relaxed);
                buf.finish().expect("a run is never empty")
            };
            if self.post(dst, via, json) {
                sent += run.len();
            } else {
                lost.extend_from_slice(uids);
            }
        }
        lost.sort_unstable();
        lost.dedup();
        (sent, lost)
    }

    // ---- op journal & recovery ----

    /// Mints the next op id.
    pub(crate) fn mint_op(&mut self) -> OpId {
        let id = OpId(self.next_op);
        self.next_op += 1;
        id
    }

    /// Appends one phase boundary for `op` to the rt op journal, then runs
    /// the crash hook: returns `true` when the controller "crashed" right
    /// after this append. The caller must stop driving the op — its
    /// in-flight messages and timers die, while the journal and residue
    /// (struct fields, the durable store under the recovered-process crash
    /// model) survive for [`RtController::recover`].
    pub(crate) fn jlog(&mut self, op: OpId, phase: JournalPhase, report: &OpReport) -> bool {
        self.journal.append(JournalRecord {
            op,
            phase,
            t_ns: self.tel.now_ns(),
            report: report.clone(),
        });
        if self.crash_after == Some(phase) && !self.crashed {
            self.crash_after = None;
            self.crashed = true;
            self.tel.event("ctrl.crash", Some(format!("after={phase:?}")));
        }
        self.crashed
    }

    /// The shards of an op's endpoints when they differ, i.e. when the op
    /// crosses the east-west boundary (never on a standalone controller).
    fn ew_shards(&self, src: usize, dst: usize) -> Option<(usize, usize)> {
        let (a, b) = (*self.shard_of.get(src)?, *self.shard_of.get(dst)?);
        (a != b).then_some((a, b))
    }

    /// Marks a cross-shard op's admission. The happens-before oracle pairs
    /// this with the op's [`RtController::ew_release`] per peer shard.
    pub(crate) fn ew_handoff(&self, op: OpId, src: usize, dst: usize) {
        if let Some((a, b)) = self.ew_shards(src, dst) {
            self.tel
                .event("ew.handoff", Some(format!("op={} {src}->{dst} shard={a} peer={b}", op.0)));
        }
    }

    /// Marks a cross-shard op's terminal journal record: the peer shard
    /// learns the outcome.
    pub(crate) fn ew_release(&self, op: OpId, src: usize, dst: usize, committed: bool) {
        if let Some((_, b)) = self.ew_shards(src, dst) {
            self.tel
                .event("ew.release", Some(format!("op={} committed={committed} shard={b}", op.0)));
        }
    }

    /// The rt op journal (the same ledger shape the sim controller keeps).
    pub fn journal(&self) -> &OpJournal {
        &self.journal
    }

    /// The journal serialized the way soak dumps expect.
    pub fn journal_json(&self) -> String {
        self.journal.to_json()
    }

    /// Test hook: "crash" the controller immediately after the next
    /// journal append of `phase` (fires once). Every op in flight at that
    /// instant fails with [`RtError::CtrlCrashed`] and stays journaled
    /// non-terminal until [`RtController::recover`] runs.
    pub fn crash_after(&mut self, phase: JournalPhase) {
        self.crash_after = Some(phase);
    }

    /// Whether the crash hook has fired and recovery has not yet run.
    pub fn is_crashed(&self) -> bool {
        self.crashed
    }

    /// Runs one op: the one-element [`RtController::run_ops`], so a single
    /// op and a k-op batch take exactly the same admitted, journaled path.
    /// On failure the error names the faulty worker; the router still
    /// points wherever it pointed before the failing step, so the caller
    /// can re-route (failover) or retry.
    pub fn run_op(&mut self, spec: OpSpec) -> Result<MoveStats, RtError> {
        self.run_ops(vec![spec]).pop().expect("one spec in, one result out")
    }

    /// Uids the last move explicitly gave up on (abort accounting).
    pub fn abort_lost(&self) -> &[u64] {
        &self.last_abort_lost
    }

    /// `run_op(OpSpec::mv_p2p(src, dst, filter))`, kept because the repo
    /// benchmark calls it.
    pub fn move_flows_p2p(
        &mut self,
        src: usize,
        dst: usize,
        filter: Filter,
    ) -> Result<MoveStats, RtError> {
        self.run_op(OpSpec::mv_p2p(src, dst, filter))
    }

    /// Shuts all workers down and returns their harnesses in index order.
    /// Shutdown bypasses the fault shim — teardown must not be droppable.
    pub fn shutdown(self) -> Vec<EventedNf> {
        // Drop the shimmed links first so the delay pump can drain and
        // exit once the workers join.
        drop(self.ctrl_links);
        drop(self.data_links);
        self.workers.into_iter().map(WorkerHandle::shutdown).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::{PanicAt, PanicNf};
    use opennf_nfs::AssetMonitor;
    use opennf_packet::{FlowKey, Packet, TcpFlags};
    use std::sync::atomic::{AtomicU64, Ordering};

    fn pkt(uid: u64, flow: u16) -> Packet {
        Packet::builder(
            uid,
            FlowKey::tcp("10.0.0.1".parse().unwrap(), 2000 + flow, "1.1.1.1".parse().unwrap(), 80),
        )
        .flags(if uid <= 40 { TcpFlags::SYN } else { TcpFlags::ACK })
        .build()
    }

    fn wall(nfs: Vec<Box<dyn NetworkFunction>>) -> RtController {
        RtController::new_with_telemetry(nfs, Telemetry::wall())
    }

    fn conn_counts(harnesses: &[EventedNf]) -> Vec<usize> {
        harnesses
            .iter()
            .map(|h| {
                let any: &dyn std::any::Any = h.nf();
                any.downcast_ref::<AssetMonitor>().unwrap().conn_count()
            })
            .collect()
    }

    /// Either transfer mode, under live traffic: every packet is processed
    /// exactly once (drops at the source are replayed to the destination
    /// via events), and the destination ends up with all the state.
    #[test]
    fn move_under_live_traffic_is_loss_free_in_both_modes() {
        for (mode, mv) in [("relayed", OpSpec::mv as fn(_, _, _) -> _), ("p2p", OpSpec::mv_p2p)] {
            let mut ctrl =
                wall(vec![Box::new(AssetMonitor::new()), Box::new(AssetMonitor::new())]);

            // Generator thread: 2000 packets over 40 flows, ~50 µs apart,
            // routing through the shared router the whole time.
            let router = ctrl.router.clone();
            let txs = [ctrl.worker_tx(0), ctrl.worker_tx(1)];
            let sent = Arc::new(AtomicU64::new(0));
            let sent_gen = sent.clone();
            let gen = std::thread::spawn(move || {
                for uid in 1..=2_000u64 {
                    let p = pkt(uid, (uid % 40) as u16);
                    if let Some(w) = router.route(&p) {
                        let _ = txs[w].send(WireMsg::Packet { packet: p }.to_json());
                    }
                    sent_gen.store(uid, Ordering::Release);
                    std::thread::sleep(std::time::Duration::from_micros(50));
                }
            });

            // Rendezvous on packets actually sent, not wall time: once 200
            // packets are enqueued, every flow's SYN is queued ahead of the
            // move's first southbound request (the channel is FIFO), so
            // all 40 flows have state at the source when the export runs.
            while sent.load(Ordering::Acquire) < 200 {
                std::thread::sleep(std::time::Duration::from_millis(1));
            }
            let stats = ctrl.run_op(mv(0, 1, Filter::any())).expect("move succeeds");
            assert_eq!(stats.chunks, 40, "{mode}: all 40 flows moved");
            assert!(stats.bytes > 0);

            gen.join().unwrap();
            // Allow the last packets to drain.
            std::thread::sleep(std::time::Duration::from_millis(50));
            let harnesses = ctrl.shutdown();
            let (h0, h1) = (&harnesses[0], &harnesses[1]);
            let mut all: Vec<u64> =
                h0.processed_log().iter().chain(h1.processed_log()).copied().collect();
            all.sort_unstable();
            all.dedup();
            assert_eq!(
                all.len(),
                h0.processed_log().len() + h1.processed_log().len(),
                "{mode}: no packet processed twice"
            );
            assert_eq!(all.len(), 2_000, "{mode}: every packet processed exactly once");
            assert!(!h1.processed_log().is_empty(), "{mode}: destination took over");
            // Copy-then-delete completed: the source holds nothing, the
            // destination holds all 40 flows.
            assert_eq!(conn_counts(&harnesses), [0, 40], "{mode}");
        }
    }

    #[test]
    fn p2p_mesh_dials_lazily_and_counts_dials() {
        // Four workers could mean a 16-link mesh; one P2P move must dial
        // exactly one link (src → dst), observable via the dial counter.
        let tel = Telemetry::wall();
        let mut ctrl = RtController::new_with_telemetry(
            (0..4).map(|_| Box::new(AssetMonitor::new()) as Box<dyn NetworkFunction>).collect(),
            tel.clone(),
        );
        for uid in 1..=40u64 {
            ctrl.inject(pkt(uid, (uid % 8) as u16)).unwrap();
        }
        ctrl.quiesce(0).unwrap();
        let dials = tel.counter("rt.p2p.dials");
        ctrl.move_flows_p2p(0, 1, Filter::any()).expect("p2p move succeeds");
        assert_eq!(dials.load(Ordering::Relaxed), 1, "only the src → dst link is dialed");
        assert!(
            tel.counter("rt.p2p.batches").load(Ordering::Relaxed) >= 1,
            "at least one chunk batch shipped on the dialed link"
        );
        // A link is dialed once per ordered pair: a second 0 → 1 move
        // reuses it, the first 1 → 0 move dials its own.
        ctrl.move_flows_p2p(0, 1, Filter::any()).expect("second p2p move succeeds");
        assert_eq!(dials.load(Ordering::Relaxed), 1, "0 → 1 is dialed once");
        ctrl.move_flows_p2p(1, 0, Filter::any()).expect("reverse p2p move succeeds");
        assert_eq!(dials.load(Ordering::Relaxed), 2, "1 → 0 is a link of its own");
        ctrl.shutdown();
    }

    #[test]
    fn lossfree_move_emits_canonical_span_sequence() {
        let tel = Telemetry::wall();
        let mut ctrl = RtController::new_with_telemetry(
            vec![Box::new(AssetMonitor::new()), Box::new(AssetMonitor::new())],
            tel.clone(),
        );
        for uid in 1..=20u64 {
            ctrl.inject(pkt(uid, (uid % 4) as u16)).unwrap();
        }
        ctrl.quiesce(0).unwrap();
        ctrl.run_op(OpSpec::mv(0, 1, Filter::any())).expect("move succeeds");
        assert_eq!(
            tel.span_sequence("move."),
            ["move.export", "move.transfer", "move.import", "move.flush", "move.fwd_update"],
            "the five phases tile the move in protocol order"
        );
        ctrl.shutdown();
    }

    #[test]
    fn move_surfaces_source_nf_failure_as_typed_error() {
        let mut ctrl =
            wall(vec![Box::new(PanicNf::new(PanicAt::Packet(7))), Box::new(AssetMonitor::new())]);
        // The faulting packet is queued ahead of the move's requests, so
        // the source dies before (or while) answering them.
        for uid in 1..=7u64 {
            ctrl.inject(pkt(uid, (uid % 4) as u16)).expect("worker alive at enqueue time");
        }
        let started = Instant::now();
        let res = ctrl.run_op(OpSpec::mv(0, 1, Filter::any()));
        // The teardown sends nothing to the dead source, so the error
        // comes well inside one reply timeout.
        let took = started.elapsed();
        assert!(took < Duration::from_secs(1), "failed after {took:?}");
        match res {
            Err(RtError::NfFailed { worker: 0, reason }) => {
                assert!(reason.contains("injected NF bug"), "reason: {reason}");
            }
            // The worker may already have torn down its channel by the
            // time the first request is sent.
            Err(RtError::WorkerGone { worker: 0 }) => {}
            other => panic!("expected a source-failure error, got {other:?}"),
        }
        // The controller is not poisoned: the surviving worker still
        // answers southbound calls.
        let id = ctrl.send(1, WireCall::GetAllflows, Via::Link, 0).unwrap();
        assert!(matches!(ctrl.await_reply(1, id), Ok(WireReply::Chunks { .. })));
    }

    /// A P2P move whose destination NF panics importing a chunk batch fails
    /// with that worker's `NfFailed` well inside one reply timeout, and
    /// both workers still hand their harnesses back.
    #[test]
    fn p2p_import_panic_fails_the_move_with_the_destination_named() {
        let mut ctrl =
            wall(vec![Box::new(AssetMonitor::new()), Box::new(PanicNf::new(PanicAt::PutPerflow))])
                .with_reply_timeout(Duration::from_secs(1));
        for uid in 1..=20u64 {
            ctrl.inject(pkt(uid, uid as u16)).unwrap();
        }
        ctrl.quiesce(0).unwrap();
        let started = Instant::now();
        let res = ctrl.run_op(OpSpec::mv_p2p(0, 1, Filter::any()));
        let took = started.elapsed();
        match res {
            Err(RtError::NfFailed { worker: 1, reason }) => {
                assert!(reason.contains("injected NF bug"), "reason: {reason}");
            }
            other => panic!("expected worker 1's NfFailed, got {other:?}"),
        }
        assert!(took < Duration::from_secs(1), "failed after {took:?}");
        assert_eq!(ctrl.shutdown().len(), 2, "both harnesses come back");
    }

    /// Packets a source dropped under a move's events, held at the
    /// controller when that source's NF dies, cannot go back to it: every
    /// one is accounted in `abort_lost` and none counts as released, even
    /// if the replay runs while the dying thread's inbox is still open.
    /// The dropped packets' events are queued on the controller channel
    /// ahead of the move, so the op buffers all of them before the
    /// source's export panics.
    #[test]
    fn packets_held_for_a_source_that_dies_are_accounted_lost() {
        let mut ctrl =
            wall(vec![Box::new(PanicNf::new(PanicAt::GetPerflow)), Box::new(AssetMonitor::new())]);
        let events = ctrl.ctrl_tx();
        for uid in 1..=10u64 {
            let ev = WireEvent::PacketReceived { packet: pkt(uid, uid as u16) };
            events.send(WireMsg::Event { worker: 0, ev }.to_json()).unwrap();
        }
        match ctrl.run_op(OpSpec::mv(0, 1, Filter::any())) {
            Err(RtError::NfFailed { worker: 0, .. }) => {}
            other => panic!("expected worker 0's NfFailed, got {other:?}"),
        }
        let lost: Vec<u64> = (1..=10).collect();
        assert_eq!(ctrl.abort_lost(), lost);
        let last = ctrl.journal().records.last().expect("the op is journaled");
        assert_eq!(last.phase, JournalPhase::Aborted);
        assert_eq!(last.report.abort_lost, lost);
        assert_eq!((last.report.events_buffered, last.report.events_released), (10, 0));
        assert_eq!(ctrl.shutdown().len(), 2, "both harnesses come back");
    }

    /// The worker's fence forgets what the request floor passes: over 200
    /// alternating moves its applied-id set stays within one op's
    /// requests, instead of growing with every op.
    #[test]
    fn fence_window_stays_within_one_op() {
        let tel = Telemetry::wall();
        let mut ctrl = RtController::new_with_telemetry(
            vec![Box::new(AssetMonitor::new()), Box::new(AssetMonitor::new())],
            tel.clone(),
        );
        for uid in 1..=20u64 {
            ctrl.inject(pkt(uid, uid as u16)).unwrap();
        }
        ctrl.quiesce(0).unwrap();
        let windows = || {
            let gauges = tel.registry().gauges();
            let at = |w: usize| {
                let name = format!("rt.fence.window.w{w}");
                gauges.iter().find(|(n, _)| *n == name).map_or(0, |&(_, v)| v)
            };
            [at(0), at(1)]
        };
        let (mut per_op, mut at_10) = (0u64, [0; 2]);
        for op in 1..=200u64 {
            let (src, dst) = if op % 2 == 1 { (0, 1) } else { (1, 0) };
            let first = ctrl.next_id;
            let stats = ctrl.run_op(OpSpec::mv(src, dst, Filter::any())).expect("move succeeds");
            assert_eq!(stats.chunks, 20, "op {op} moves every flow");
            per_op = per_op.max(ctrl.next_id - first);
            if op == 10 {
                at_10 = windows();
            }
        }
        let at_200 = windows();
        for w in 0..2 {
            assert!(at_10[w] >= 1, "worker {w} reports its fence window");
            assert!(
                at_200[w] <= at_10[w] && at_200[w] <= per_op,
                "worker {w}: window {} after op 200, {} after op 10, {per_op} requests per op",
                at_200[w],
                at_10[w]
            );
        }
        ctrl.shutdown();
    }

    #[test]
    fn engine_timeout_names_the_unanswered_request() {
        // Worker 0's uplink is cut, so the copy's export stream — its
        // first request — is the one that never answers.
        let plan = FaultPlan::new(1).sever(
            worker_node(0),
            CTRL_NODE,
            opennf_util::Time::ZERO,
            opennf_util::Time(u64::MAX),
        );
        let (ctrl, faults) = RtController::build(
            vec![vec![Box::new(AssetMonitor::new()), Box::new(AssetMonitor::new())]],
            Some((plan, 0)),
            Telemetry::wall(),
        );
        let mut ctrl = ctrl.with_reply_timeout(Duration::from_millis(100));
        let faults = faults.expect("a plan was given");
        let stream_id = ctrl.next_id;
        let res = ctrl.run_op(OpSpec::copy(0, 1, Filter::any()));
        assert_eq!(res.unwrap_err(), RtError::Timeout { id: stream_id });
        ctrl.shutdown();
        faults.join_pump();
    }

    /// Specs the controller cannot run are turned away at submission with
    /// a typed error and no op id; a valid move in the same batch commits.
    #[test]
    fn invalid_specs_are_rejected_and_the_rest_of_the_batch_runs() {
        let mut ctrl = wall(vec![Box::new(AssetMonitor::new()), Box::new(AssetMonitor::new())]);
        for uid in 1..=20u64 {
            ctrl.inject(pkt(uid, uid as u16)).unwrap();
        }
        ctrl.quiesce(0).unwrap();
        let cases = [
            ("self-move", OpSpec::mv(0, 0, Filter::any()), false),
            ("self-copy", OpSpec::copy(0, 0, Filter::any()), false),
            ("valid move", OpSpec::mv(0, 1, Filter::any()), true),
            ("missing destination", OpSpec::mv(0, 5, Filter::any()), false),
            ("missing source", OpSpec::mv_p2p(7, 1, Filter::any()), false),
            ("self-share", OpSpec::share(1, 1, Filter::any()), false),
        ];
        let results = ctrl.run_ops(cases.iter().map(|&(_, spec, _)| spec).collect());
        for (&(case, _, valid), res) in cases.iter().zip(&results) {
            match res {
                Ok(stats) => assert!(valid && stats.chunks == 20, "{case}: {stats:?}"),
                Err(e) => assert!(!valid && matches!(e, RtError::InvalidOp(_)), "{case}: {e}"),
            }
        }
        // The same bound holds where a barrier names a worker.
        match ctrl.quiesce(5) {
            Err(RtError::InvalidOp(why)) => assert!(why.contains("quiesce 5"), "{why}"),
            other => panic!("quiesce of a missing worker: {other:?}"),
        }
        let ops: Vec<(OpId, JournalPhase)> =
            ctrl.journal().records.iter().map(|r| (r.op, r.phase)).collect();
        assert!(ops.iter().all(|&(op, _)| op == OpId(1)), "only the valid move has an op id");
        assert_eq!(ops.last(), Some(&(OpId(1), JournalPhase::Committed)));
        let counts = conn_counts(&ctrl.shutdown());
        assert_eq!(counts, [0, 20], "the state moved once, and nothing deleted it");
    }

    /// Three shards of one, no and one worker, with a drop-everything plan
    /// on shard `fault_shard`.
    fn drop_all_on(fault_shard: usize) -> (RtController, Arc<RtFaults>) {
        let plan = FaultPlan::new(1).link(
            None,
            None,
            opennf_util::Time::ZERO,
            opennf_util::Time(u64::MAX),
            1000,
            opennf_util::FaultKind::Drop,
        );
        let monitor = || Box::new(AssetMonitor::new()) as Box<dyn NetworkFunction>;
        let shards = vec![vec![monitor()], vec![], vec![monitor()]];
        let (ctrl, faults) =
            RtController::build(shards, Some((plan, fault_shard)), Telemetry::wall());
        (ctrl, faults.expect("a plan was given"))
    }

    #[test]
    fn fault_domain_is_the_fault_shards_global_workers() {
        // Shard 2 holds global worker 1: only its links are shimmed.
        let (mut ctrl, faults) = drop_all_on(2);
        assert!(!ctrl.ctrl_links[0].is_shimmed() && !ctrl.data_links[0].is_shimmed());
        assert!(ctrl.ctrl_links[1].is_shimmed() && ctrl.data_links[1].is_shimmed());
        for (w, uid) in [(0, 1), (1, 2)] {
            ctrl.data_tx(w).send(&WireMsg::Packet { packet: pkt(uid, 0) }).unwrap();
        }
        ctrl.send(1, WireCall::GetAllflows, Via::Link, 0).unwrap();
        ctrl.quiesce(0).expect("worker 0 is outside the fault domain");
        let ledger = faults.ledger();
        let w1 = worker_node(1);
        let dropped: Vec<_> = ledger
            .log
            .iter()
            .map(|ev| match *ev {
                opennf_util::FaultEvent::Dropped { src, dst, .. } => (src, dst),
                ref other => panic!("only drops were planned: {other:?}"),
            })
            .collect();
        assert_eq!(dropped, [(ROUTER_NODE, w1), (CTRL_NODE, w1)], "drops on worker 1's links");
        assert_eq!(ledger.lost_sorted(), [2]);
        let harnesses = ctrl.shutdown();
        faults.join_pump();
        assert_eq!(harnesses[0].processed_log(), [1]);
        assert!(harnesses[1].processed_log().is_empty());
    }

    #[test]
    fn a_worker_less_fault_shard_leaves_the_plan_inert() {
        let (mut ctrl, faults) = drop_all_on(1);
        assert!(ctrl.ctrl_links.iter().chain(&ctrl.data_links).all(|l| !l.is_shimmed()));
        for uid in 1..=20u64 {
            ctrl.inject(pkt(uid, uid as u16)).unwrap();
        }
        ctrl.quiesce(0).unwrap();
        let stats = ctrl.run_op(OpSpec::mv(0, 1, Filter::any())).expect("the move commits");
        assert_eq!(stats.chunks, 20);
        ctrl.shutdown();
        faults.join_pump();
        assert!(faults.ledger().log.is_empty(), "nothing was injected");
    }

    #[test]
    fn quiesce_ignores_an_undecodable_frame() {
        let mut ctrl = wall(vec![Box::new(AssetMonitor::new())]);
        ctrl.ctrl_tx().send("not a frame".into()).unwrap();
        ctrl.quiesce(0).expect("a frame no one can claim does not fail the barrier");
        assert_eq!(ctrl.tel.counter("rt.frames.bad").load(Ordering::Relaxed), 1);
        ctrl.shutdown();
    }

    #[test]
    fn quiesce_fails_only_for_its_own_worker() {
        let mut ctrl =
            wall(vec![Box::new(AssetMonitor::new()), Box::new(PanicNf::new(PanicAt::Packet(1)))]);
        ctrl.worker_tx(1).send(WireMsg::Packet { packet: pkt(1, 0) }.to_json()).unwrap();
        // Worker 1 reports its failure and exits, closing its channel:
        // its report is queued for the controller before worker 0 is asked.
        while ctrl.send(1, WireCall::GetAllflows, Via::Link, 0).is_ok() {
            std::thread::sleep(Duration::from_millis(1));
        }
        ctrl.quiesce(0).expect("worker 1's failure is not worker 0's");
        let id = ctrl.send(0, WireCall::GetAllflows, Via::Link, 0).unwrap();
        assert!(matches!(ctrl.await_reply(0, id), Ok(WireReply::Chunks { .. })));
    }
}
