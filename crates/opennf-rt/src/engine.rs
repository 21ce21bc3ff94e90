//! The concurrent northbound op engine: k simultaneous ops on disjoint
//! scopes progress in parallel on one dispatch thread.
//!
//! The synchronous controller drove one move at a time, blocking on every
//! southbound reply. Here each op is a per-op state machine ([`OpTask`])
//! and a single event-dispatch loop routes replies and events to
//! whichever op issued them: while one op waits for a put ack its
//! neighbours keep streaming, so aggregate throughput scales with the
//! number of disjoint src/dst pairs.
//!
//! A task owns its outstanding requests: it holds their correlation ids
//! (the one awaited reply, the export stream or P2P round, the puts in
//! flight), and the loop hands each response to the task holding its id,
//! found by scanning the in-flight tasks. Consuming a reply clears its
//! id, so a response no task holds — a duplicate of one already consumed,
//! a failed op's still-streaming batches, a pre-crash echo — is stale and
//! dropped before it is looked at: it can neither advance an op nor fail
//! it. Commit and abort end the same way: the source is disarmed
//! (`Settling`), then one `finalize` replays the teardown flush to the
//! destination iff the route flipped and journals `Committed`, or
//! `Aborted` if the op failed.
//!
//! Three op kinds are first-class ([`opennf_sched::OpClass`]):
//!
//! * **move** — the loss-free move (§5.1.1): exclusive on both endpoints,
//!   destructive at the source (copy-then-delete), events armed and
//!   replayed to the destination, route flipped at the end.
//! * **copy** — non-destructive state clone: shared-read at the source
//!   (several copies may stream from one NF concurrently, bounded by the
//!   scheduler's stream cap), exclusive at the destination, no event
//!   arming, no delete, no route change.
//! * **share** — state replication setup: shared-read at the source,
//!   events armed for the initial sync and replayed back *to the source*
//!   once the replica is seeded, so no update raised during the sync is
//!   lost.
//!
//! Admission is owned by the pluggable scheduler ([`opennf_sched`]):
//! every dispatch iteration the pending set is described to the active
//! policy (FIFO by default — byte-identical to the engine's original
//! hard-coded sweep), which picks the next op whose endpoint locks admit
//! it. The scheduler also accounts observed export bytes per source into
//! a token bucket, and the engine consults the resulting backpressure
//! signal ([`opennf_sched::OpScheduler::put_window`]) instead of a
//! hard-coded put window: a source whose bucket runs dry degrades to
//! stop-and-wait puts and strictly serialized streams until it refills.
//!
//! Within one op the state transfer is *pipelined*: the source streams
//! its export as bounded [`WireReply::ChunkBatch`] frames
//! ([`WireCall::GetPerflowChunked`]), and the engine forwards each batch
//! to the destination as a `putPerflow` while later batches are still
//! being serialized at the source. The per-op window of outstanding puts
//! gives double buffering without unbounded queueing; batches beyond the
//! window wait in a backlog.
//!
//! A move has a second *transfer mode* ([`OpSpec::mv_p2p`], footnote 10):
//! the source streams its chunk batches straight to the destination over
//! the worker ↔ worker mesh and both ends summarize to the controller,
//! which reconciles the two summaries and re-requests any unconfirmed
//! flows in up to three narrowing rounds. Only the `Streaming`
//! state differs: admission, journaling, the copy-then-delete release,
//! the flush, the route flip, the straggler drain, abort, and recovery are
//! the one spine both modes share.
//!
//! Every phase transition is journaled through the same
//! [`JournalPhase`] ledger shape the simulator's controller keeps. A
//! controller crash between any two transitions is recovered by resuming
//! the engine ([`RtController::recover`]): every op that left a residue
//! becomes an [`OpTask`] again at the continuation of its last journal
//! record and runs through the same dispatch loop. The rt's rule, for all
//! three op kinds: fail forward once every chunk is confirmed at the
//! destination (`Transferred` and later), roll back before that, always
//! with explicit loss accounting. The simulator's move fails forward only
//! from `Flushed`, so the two rules still differ (ROADMAP item 1).
//!
//! Telemetry under interleaving: each op opens a root span named for its
//! kind with *no* stack parent and parents its canonical phase spans
//! (`move.export` … `move.fwd_update`, `copy.export`/`copy.import`,
//! `share.arm`/`share.init_sync`) under that root explicitly —
//! thread-local stack attribution would staple one op's phases under
//! another's root the moment two ops interleave. Oracles group with
//! [`opennf_telemetry::Telemetry::span_sequences_by_parent`].

use std::collections::{HashMap, HashSet, VecDeque};
use std::sync::atomic::Ordering;
use std::time::{Duration, Instant};

use opennf_controller::{JournalPhase, OpId, OpReport};
use opennf_nf::Chunk;
use opennf_packet::{Filter, FlowId};
use opennf_sched::{OpClass, PendingOp};
use opennf_telemetry::SpanId;

use crate::controller::{MoveStats, OpResidue, Recv, RtController};
use crate::error::RtError;
use crate::wire::{WireAction, WireCall, WireEvent, WireMsg, WireReply};

/// Chunks per streamed export batch (one `ChunkBatch` frame, one put).
const STREAM_BATCH: usize = 64;

/// Dispatch-loop poll granularity: how long one `recv` blocks before the
/// loop re-checks per-op deadlines.
const POLL: Duration = Duration::from_millis(5);

/// Hard ceiling on the post-flip straggler drain.
const FWD_DRAIN: Duration = Duration::from_millis(200);

/// Early exit: no straggler for this long means the flip has settled
/// (keeps single-move latency at the synchronous controller's level).
const FWD_IDLE: Duration = Duration::from_millis(20);

/// The post-flip quiet window.
/// A packet *enqueued* at the source before the flip needs no
/// timer: the worker inbox is FIFO and the fenced `disableEvents` travels
/// it, so the packet raises its event before the ack and is replayed at
/// the ack. The window covers the one remaining race — a generator that
/// looked the route up under the old table and has not enqueued yet — so
/// it counts from the data plane's last activity: the latest straggler
/// event or, before any, the last lookup observed up to the flip
/// ([`RtController::flip_route`]). `ceiling` bounds it under traffic that
/// never pauses.
fn flip_settled(now: Instant, last_activity: Instant, ceiling: Instant) -> bool {
    now >= ceiling || now >= last_activity + FWD_IDLE
}

/// Rounds a P2P transfer gets to confirm every exported flow at the
/// destination before the move aborts.
const P2P_ATTEMPTS: u32 = 3;

/// One requested op: state matching `filter` is moved, copied, or shared
/// from worker `src` to worker `dst`.
#[derive(Debug, Clone, Copy)]
pub struct OpSpec {
    /// Source worker index.
    pub src: usize,
    /// Destination worker index.
    pub dst: usize,
    /// Which flows the op covers.
    pub filter: Filter,
    /// What kind of op this is (admission locking and the state machine
    /// both key off it).
    pub kind: OpClass,
    /// Moves only: the state travels directly worker → worker instead of
    /// relaying through the controller. Crate-private so that
    /// [`OpSpec::mv_p2p`] is the only way to set it.
    pub(crate) p2p: bool,
}

impl OpSpec {
    /// A loss-free move of `filter` from `src` to `dst`.
    pub fn mv(src: usize, dst: usize, filter: Filter) -> Self {
        OpSpec { src, dst, filter, kind: OpClass::Move, p2p: false }
    }

    /// A loss-free move whose bulk state transfer goes directly from
    /// `src` to `dst` (footnote 10); the controller only reconciles the
    /// two ends' summaries.
    pub fn mv_p2p(src: usize, dst: usize, filter: Filter) -> Self {
        OpSpec { p2p: true, ..Self::mv(src, dst, filter) }
    }

    /// A non-destructive copy of `filter` from `src` to `dst`.
    pub fn copy(src: usize, dst: usize, filter: Filter) -> Self {
        OpSpec { src, dst, filter, kind: OpClass::Copy, p2p: false }
    }

    /// A share (replication setup) of `filter` from `src` to `dst`.
    pub fn share(src: usize, dst: usize, filter: Filter) -> Self {
        OpSpec { src, dst, filter, kind: OpClass::Share, p2p: false }
    }

    /// The op's name in its [`OpReport`].
    fn label(&self) -> &'static str {
        match self.kind {
            OpClass::Move if self.p2p => "move[LF PL+P2P]",
            OpClass::Move => "move[LF PL]",
            OpClass::Copy => "copy",
            OpClass::Share => "share",
        }
    }
}

/// Endpoint occupancy under the reader/writer admission rule: a move
/// writes both endpoints; a copy or share reads its source (several may
/// stream from one NF at once, up to the scheduler's per-source stream
/// cap) and writes its destination.
#[derive(Default)]
struct Locks {
    writers: HashSet<usize>,
    readers: HashMap<usize, usize>,
}

impl Locks {
    fn readers_at(&self, w: usize) -> usize {
        self.readers.get(&w).copied().unwrap_or(0)
    }

    /// Whether `p` can start now, given at most `stream_cap` concurrent
    /// readers on its source.
    fn admits(&self, p: &PendingOp, stream_cap: usize) -> bool {
        let dst_free = !self.writers.contains(&p.dst) && self.readers_at(p.dst) == 0;
        match p.class {
            OpClass::Move => {
                !self.writers.contains(&p.src) && self.readers_at(p.src) == 0 && dst_free
            }
            OpClass::Copy | OpClass::Share => {
                !self.writers.contains(&p.src)
                    && self.readers_at(p.src) < stream_cap.max(1)
                    && dst_free
            }
        }
    }

    fn acquire(&mut self, s: &OpSpec) {
        match s.kind {
            OpClass::Move => {
                self.writers.insert(s.src);
                self.writers.insert(s.dst);
            }
            OpClass::Copy | OpClass::Share => {
                *self.readers.entry(s.src).or_insert(0) += 1;
                self.writers.insert(s.dst);
            }
        }
    }

    fn release(&mut self, s: &OpSpec) {
        match s.kind {
            OpClass::Move => {
                self.writers.remove(&s.src);
                self.writers.remove(&s.dst);
            }
            OpClass::Copy | OpClass::Share => {
                if let Some(n) = self.readers.get_mut(&s.src) {
                    *n = n.saturating_sub(1);
                    if *n == 0 {
                        self.readers.remove(&s.src);
                    }
                }
                self.writers.remove(&s.dst);
            }
        }
    }
}

/// Where one op's state machine stands.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum St {
    /// Waiting for admission: the scheduler has not picked it yet (an
    /// endpoint is busy, or the policy favours another op).
    Pending,
    /// `enableEvents(drop)` in flight at the source (move/share only).
    WaitEnable,
    /// Chunk batches streaming out of the source, puts pipelined into
    /// the destination (stays here until the last batch *and* every put
    /// ack have landed). In P2P mode: transfer rounds running worker →
    /// worker (stays here until a round's two summaries reconcile with
    /// nothing unconfirmed).
    Streaming,
    /// All state confirmed at the destination; `delPerflow` in flight at
    /// the source (move's copy-then-delete release).
    Deleting,
    /// Route flipped; draining straggler events raised by packets that
    /// were already queued toward the source (move only). Awaits no
    /// reply: `deadline` is the quiet window's ceiling.
    FwdWait,
    /// Abort: fenced purge of already-shipped flows in flight at the
    /// destination ([`OpResidue::purge_call`]).
    AbortPurge,
    /// The source's disarm — fenced `disableEvents` — in flight;
    /// collecting the teardown flush. Every armed op, committing or
    /// aborting, ends here.
    Settling,
    /// Terminal (result recorded).
    Done,
}

/// A P2P move's reconcile state across transfer rounds.
#[derive(Default)]
struct P2pRounds {
    /// Rounds started so far.
    round: u32,
    /// The current round's source summary (`TransferExported`) landed.
    exported: bool,
    /// The current round's destination summary (`TransferDone`) landed.
    done: bool,
    /// Flows the destination has acknowledged, over all of this op's
    /// rounds (the destination itself reports per round): its
    /// `TransferDone` summaries plus batch-granular `TransferProgress`
    /// receipts. The receipts are what make a half-confirmed round cheap
    /// — when the final summary itself is lost, the retry re-requests
    /// only the flows no batch ever confirmed.
    confirmed: HashSet<FlowId>,
    /// Dedup of [`OpTask::flow_ids`]: a retry can re-export flows an
    /// earlier round already listed.
    listed: HashSet<FlowId>,
}

/// One in-flight op: everything the dispatch loop needs to route a
/// reply or event back to the right op and advance it. The task holds
/// the ids of its outstanding requests; a reply is live exactly while
/// some task holds its id ([`OpTask::owns`]).
struct OpTask {
    spec: OpSpec,
    op: OpId,
    report: OpReport,
    st: St,
    /// Per-op root span; the canonical phase spans parent under it
    /// explicitly.
    root: Option<SpanId>,
    /// The currently open phase span.
    phase: Option<SpanId>,
    /// When the spec entered the engine's admission queue (queue wait =
    /// admission time − this).
    submitted: Instant,
    /// The same instant on the telemetry clock (what the scheduler's
    /// deadline policy compares).
    submitted_ns: u64,
    /// Submission index: the total order admission ties break on.
    seq: u64,
    start: Instant,
    /// Watchdog for the outstanding request(s), reset on every ack or
    /// batch; in `FwdWait`, the ceiling of the post-flip quiet window
    /// ([`flip_settled`]).
    deadline: Instant,
    /// The single-reply request awaited in WaitEnable, Deleting,
    /// AbortPurge or Settling.
    wait_id: Option<u64>,
    /// The streamed export's correlation id (all its batches share it);
    /// in P2P mode the current transfer round's (both ends answer under
    /// it).
    get_id: Option<u64>,
    /// Next expected batch seq — a gap means the channel lost a batch.
    next_seq: u64,
    /// The `last` batch has arrived.
    export_done: bool,
    /// Outstanding put correlation ids (≤ the scheduler's put window).
    put_ids: HashSet<u64>,
    /// Batches received but not yet put (window full).
    backlog: VecDeque<Vec<Chunk>>,
    /// Every flow id exported so far (the delete list).
    flow_ids: Vec<FlowId>,
    p2p: P2pRounds,
    chunks: usize,
    bytes: usize,
    replayed: usize,
    flipped: bool,
    /// What the post-flip quiet window counts from: the op's latest
    /// event, or at the flip the data plane's last observed lookup.
    last_event: Instant,
    duration: Duration,
    err: Option<RtError>,
}

impl OpTask {
    /// A task that has not started: `Pending` until admission, or until
    /// recovery resumes it.
    fn new(spec: OpSpec, op: OpId, report: OpReport, seq: u64, now: Instant, now_ns: u64) -> Self {
        OpTask {
            spec,
            op,
            report,
            st: St::Pending,
            root: None,
            phase: None,
            submitted: now,
            submitted_ns: now_ns,
            seq,
            start: now,
            deadline: now,
            wait_id: None,
            get_id: None,
            next_seq: 0,
            export_done: false,
            put_ids: HashSet::new(),
            backlog: VecDeque::new(),
            flow_ids: Vec::new(),
            p2p: P2pRounds::default(),
            chunks: 0,
            bytes: 0,
            replayed: 0,
            flipped: false,
            last_event: now,
            duration: Duration::ZERO,
            err: None,
        }
    }

    /// Whether `id` answers one of this task's outstanding requests.
    fn owns(&self, id: u64) -> bool {
        self.wait_id == Some(id) || self.get_id == Some(id) || self.put_ids.contains(&id)
    }

    /// Ops in these states own their source's event stream. Copies never
    /// arm events, so they never own one (see `route_event`).
    fn active(&self) -> bool {
        !matches!(self.st, St::Pending | St::Done)
    }

    /// This task as the scheduler sees it.
    fn pending(&self) -> PendingOp {
        PendingOp {
            op: self.op.0,
            src: self.spec.src,
            dst: self.spec.dst,
            class: self.spec.kind,
            armed_ns: self.submitted_ns,
            seq: self.seq,
        }
    }
}

impl RtController {
    /// Runs `specs` concurrently, one [`OpTask`] per spec, and returns
    /// each op's outcome in spec order. Which pending op starts when an
    /// endpoint frees up is the active scheduling policy's call
    /// ([`RtController::set_sched_policy`]); under the default FIFO
    /// policy ops admit in submission order, exactly as before the
    /// scheduler existed. Each op journals its phase boundaries, so a
    /// crash mid-batch leaves a recoverable ledger
    /// ([`RtController::recover`]) for moves, copies, and shares alike.
    pub fn run_ops(&mut self, specs: Vec<OpSpec>) -> Vec<Result<MoveStats, RtError>> {
        self.last_abort_lost.clear();
        let now = Instant::now();
        let now_ns = self.tel.now_ns();
        let mut tasks: Vec<OpTask> = specs
            .into_iter()
            .enumerate()
            .map(|(i, spec)| {
                let op = self.mint_op();
                self.tel.event(
                    "engine.op_submitted",
                    Some(format!(
                        "op={} kind={} src={} dst={}",
                        op.0,
                        spec.kind.name(),
                        spec.src,
                        spec.dst
                    )),
                );
                // The queue-depth gauge moves on submission too, not just
                // inside the admission sweep, so a burst of submits is
                // visible even before anything is admitted.
                self.tel.gauge_set("engine.queue_depth", i as u64 + 1);
                let report = OpReport::new(op, spec.label().into(), self.tel.now_ns());
                OpTask::new(spec, op, report, i as u64, now, now_ns)
            })
            .collect();
        self.drive(&mut tasks, &mut Locks::default());
        tasks
            .into_iter()
            .map(|t| match t.err {
                Some(e) => Err(e),
                None => Ok(MoveStats {
                    chunks: t.chunks,
                    bytes: t.bytes,
                    events_replayed: t.replayed,
                    duration: t.duration,
                }),
            })
            .collect()
    }

    /// Recovery pass after a crash: bumps the fencing epoch, then resumes
    /// every op that left a residue — admitted and not terminal, whether
    /// or not it journaled — as an engine task at the continuation of its
    /// last journal record, and drives them through the one dispatch
    /// loop. Ops at or past [`JournalPhase::Transferred`] (every flow
    /// confirmed at the destination) fail *forward* through the rest of
    /// the spine: a move deletes at the source, flushes, flips the route,
    /// drains stragglers and only then disarms the source; a copy commits;
    /// a share disarms. Earlier ops take the abort path: fenced purge at
    /// the destination (P2P rounds tombstoned), fenced disarm at the
    /// source, buffered events replayed to the source with any loss in
    /// `abort_lost`. Queued messages in the worker → controller channel
    /// are *not* discarded — the channel models a network that lost
    /// nothing in the crash; a pre-crash response answers no resumed
    /// task's request and is ignored, and events go to whichever op owns
    /// their worker. Returns each recovered op with its terminal phase,
    /// in op-id order.
    pub fn recover(&mut self) -> Vec<(OpId, JournalPhase)> {
        self.crashed = false;
        self.crash_after = None;
        self.last_abort_lost.clear();
        self.fence_epoch += 1;
        self.journal.epoch = self.fence_epoch;
        let sp = self.tel.begin("recovery.rt");
        let (now, now_ns) = (Instant::now(), self.tel.now_ns());
        let mut ids: Vec<u64> = self.residue.keys().copied().collect();
        ids.sort_unstable();
        let (mut tasks, mut locks) = (Vec::new(), Locks::default());
        for (seq, id) in ids.into_iter().enumerate() {
            let (op, spec) = (OpId(id), self.residue[&id].spec);
            let last = self.journal.records.iter().rev().find(|r| r.op == op);
            let durable = last.map(|r| r.phase);
            let report = last.map_or_else(
                || OpReport::new(op, spec.label().into(), now_ns),
                |r| r.report.clone(),
            );
            let mut t = OpTask::new(spec, op, report, seq as u64, now, now_ns);
            t.flow_ids = self.residue[&id].put_flows.clone();
            t.root = Some(self.tel.begin_under(sp, spec.kind.name()));
            locks.acquire(&spec);
            match durable {
                Some(p) if p >= JournalPhase::Transferred => match p {
                    JournalPhase::Imported => self.flush(&mut t, &mut locks),
                    JournalPhase::Flushed => self.flip(&mut t),
                    _ => self.release(&mut t, &mut locks),
                },
                _ => self.fail_op(&mut t, RtError::CtrlCrashed, &mut locks),
            }
            tasks.push(t);
        }
        self.drive(&mut tasks, &mut locks);
        self.tel.end(sp);
        let terminal = |t: &OpTask| match t.err {
            Some(_) => JournalPhase::Aborted,
            None => JournalPhase::Committed,
        };
        tasks.iter().map(|t| (t.op, terminal(t))).collect()
    }

    /// The dispatch loop: admits pending tasks as the scheduler picks
    /// them, hands every reply to the task that holds its request id and
    /// every event to the task that owns its worker, and fires
    /// time-driven transitions, until every task is `Done` or the
    /// controller crashes.
    fn drive(&mut self, tasks: &mut [OpTask], locks: &mut Locks) {
        let mut last_depth = u64::MAX;
        loop {
            // Data-plane activity is stamped when it is seen, so look often.
            self.observe_lookups();
            if self.is_crashed() {
                // The "process" died at a journal append: in-flight work
                // dies where it stands — no teardown, no further sends
                // (checked before admission, so no new op starts either).
                // Journal + residue (the struct fields) survive for
                // recover(); events already live in the residue.
                for t in tasks.iter_mut() {
                    if t.st != St::Done {
                        t.err = Some(RtError::CtrlCrashed);
                        self.set_st(t, St::Done);
                    }
                }
                break;
            }
            // Admission: the scheduler picks from the pending set until
            // nothing feasible remains. The feasibility predicate is the
            // engine's lock state plus the per-source stream cap the
            // bandwidth accountant allows right now.
            loop {
                let now_ns = self.tel.now_ns();
                let mut idxs: Vec<usize> = Vec::new();
                let mut pending: Vec<PendingOp> = Vec::new();
                for (ti, t) in tasks.iter().enumerate() {
                    if t.st == St::Pending {
                        idxs.push(ti);
                        pending.push(t.pending());
                    }
                }
                if pending.is_empty() {
                    break;
                }
                let mut caps: HashMap<usize, usize> = HashMap::new();
                for p in &pending {
                    caps.entry(p.src).or_insert_with(|| self.sched.stream_cap(p.src, now_ns));
                }
                let picked = {
                    let locks = &*locks;
                    let caps = &caps;
                    self.sched.pick(&pending, &mut |p| {
                        locks.admits(p, caps.get(&p.src).copied().unwrap_or(1))
                    })
                };
                let Some(pi) = picked else { break };
                let t = &mut tasks[idxs[pi]];
                let p = pending[pi];
                locks.acquire(&t.spec);
                self.sched.on_admitted(&p);
                if self.tel.enabled() {
                    let wait = t.submitted.elapsed().as_nanos() as u64;
                    let depth = pending.len() as u64 - 1;
                    self.tel.observe(&format!("engine.admission_wait.w{}", p.src), wait);
                    self.tel.event(
                        "engine.op_admitted",
                        Some(format!("op={} wait_ns={wait} depth={depth}", p.op)),
                    );
                    self.tel.event(
                        "sched.decision",
                        Some(format!(
                            "op={} policy={} class={} src={}",
                            p.op,
                            self.sched.policy().name(),
                            p.class.name(),
                            p.src
                        )),
                    );
                }
                if let Err(e) = self.start_op(t) {
                    self.fail_op(t, e, locks);
                }
            }
            // Queue-depth gauge: ops still waiting for a free endpoint
            // after this admission sweep (set only on change — the loop
            // spins once per message).
            let depth = tasks.iter().filter(|t| t.st == St::Pending).count() as u64;
            if depth != last_depth {
                self.tel.gauge_set("engine.queue_depth", depth);
                last_depth = depth;
            }
            if tasks.iter().all(|t| t.st == St::Done) {
                break;
            }
            match self.recv_msg(POLL) {
                Recv::Msg(WireMsg::Response { id, reply }) => {
                    // A reply no task holds the id of is stale — a
                    // duplicate of one already consumed, a failed op's
                    // still-streaming batches, a pre-crash echo — and is
                    // ignored.
                    if let Some(t) = tasks.iter_mut().find(|t| t.owns(id)) {
                        self.on_reply(t, id, reply, locks);
                    }
                }
                Recv::Msg(WireMsg::Event { worker, ev: WireEvent::NfFailed { reason } }) => {
                    // The NF is gone: every admitted op touching it dies.
                    // Pending ops fail naturally at admission (their first
                    // send returns WorkerGone).
                    for t in tasks.iter_mut() {
                        if t.active() && (t.spec.src == worker || t.spec.dst == worker) {
                            let e = RtError::NfFailed { worker, reason: reason.clone() };
                            self.fail_op(t, e, locks);
                        }
                    }
                }
                Recv::Msg(WireMsg::Event { worker, ev }) => {
                    self.c_events_pumped.fetch_add(1, Ordering::Relaxed);
                    self.route_event(tasks, worker, ev);
                }
                // An undecodable frame was counted and recorded where it
                // was received; no op can claim it.
                Recv::Msg(_) | Recv::Bad | Recv::Timeout => {}
                Recv::Disconnected => {
                    // Every worker is gone: nothing left to send teardown
                    // to — finalize all survivors as aborted.
                    for t in tasks.iter_mut() {
                        if t.st != St::Done {
                            t.err.get_or_insert(RtError::ChannelClosed);
                            self.finalize(t, locks);
                        }
                    }
                }
            }
            self.tick(tasks, locks);
        }
    }

    /// Applies a state transition, recording it as a point event
    /// (`engine.op_state`, with the op id) so the trace analyzer can
    /// replay each op's lifecycle with timestamps.
    fn set_st(&self, t: &mut OpTask, st: St) {
        if self.tel.enabled() && t.st != st {
            self.tel.event(
                "engine.op_state",
                Some(format!("op={} from={:?} to={:?}", t.op.0, t.st, st)),
            );
        }
        t.st = st;
    }

    /// Enters `st` awaiting the single reply to request `id`.
    fn wait_for(&self, t: &mut OpTask, id: u64, st: St) {
        t.wait_id = Some(id);
        t.deadline = Instant::now() + self.reply_timeout;
        self.set_st(t, st);
    }

    /// Admits one op: opens its root span and takes the kind's first
    /// step. Moves and shares arm the drop filter at the source (Armed
    /// lands on the enable ack); copies never arm events, so they journal
    /// Armed immediately and go straight to streaming.
    fn start_op(&mut self, t: &mut OpTask) -> Result<(), RtError> {
        t.start = Instant::now();
        t.report.start_ns = self.tel.now_ns();
        self.residue.insert(t.op.0, OpResidue::new(t.spec));
        self.ew_handoff(t.op, t.spec.src, t.spec.dst);
        let root = self.tel.begin_linked_arg(
            0,
            t.spec.kind.name(),
            Some(format!("op={} src={} dst={}", t.op.0, t.spec.src, t.spec.dst)),
        );
        t.root = Some(root);
        match t.spec.kind {
            OpClass::Move | OpClass::Share => {
                let phase = if t.spec.kind == OpClass::Move { "move.export" } else { "share.arm" };
                let sp = self.tel.begin_under(root, phase);
                t.phase = Some(sp);
                let id = self.call_linked(
                    t.spec.src,
                    WireCall::EnableEvents { filter: t.spec.filter, action: WireAction::Drop },
                    sp.raw(),
                )?;
                self.wait_for(t, id, St::WaitEnable);
            }
            OpClass::Copy => {
                if self.jlog(t.op, JournalPhase::Armed, &t.report) {
                    return Ok(());
                }
                t.phase = Some(self.tel.begin_under(root, "copy.export"));
                self.stream_export(t)?;
                self.set_st(t, St::Streaming);
            }
        }
        Ok(())
    }

    /// Asks the source for its streamed export, linked to the open phase
    /// span: batches flow back under one id while the puts pipeline them
    /// into the destination.
    fn stream_export(&mut self, t: &mut OpTask) -> Result<(), RtError> {
        let id = self.call_linked(
            t.spec.src,
            WireCall::GetPerflowChunked { filter: t.spec.filter, batch: STREAM_BATCH },
            t.phase.expect("stream span open").raw(),
        )?;
        t.get_id = Some(id);
        t.deadline = Instant::now() + self.reply_timeout;
        Ok(())
    }

    /// Advances `t` on a reply to request `id`, which `t` holds (the
    /// dispatch loop checked, so liveness is decided before an error
    /// reply can fail the op). Consuming a reply clears its id — a
    /// stream's at its last batch — so a second copy finds no owner.
    fn on_reply(&mut self, t: &mut OpTask, id: u64, reply: WireReply, locks: &mut Locks) {
        if self.is_crashed() {
            return;
        }
        if let WireReply::Error { message } = reply {
            return self.fail_op(t, RtError::Wire(message), locks);
        }
        if t.put_ids.remove(&id) {
            t.deadline = Instant::now() + self.reply_timeout;
            return self.pump_and_finish(t, locks);
        }
        if t.get_id == Some(id) {
            return if t.spec.p2p {
                self.on_round_reply(t, reply, locks)
            } else {
                self.on_batch(t, id, reply, locks)
            };
        }
        t.wait_id = None;
        match t.st {
            St::WaitEnable => {
                if self.jlog(t.op, JournalPhase::Armed, &t.report) {
                    return;
                }
                let root = t.root.expect("root span open");
                // The arm round-trip is its own canonical phase for a
                // share (the initial sync streams under the next one) and
                // for a P2P move (whose export *is* the transfer).
                let next_phase = match t.spec.kind {
                    OpClass::Share => Some("share.init_sync"),
                    OpClass::Move if t.spec.p2p => Some("move.transfer"),
                    _ => None,
                };
                if let Some(name) = next_phase {
                    if let Some(sp) = t.phase.take() {
                        self.tel.end(sp);
                    }
                    t.phase = Some(self.tel.begin_under(root, name));
                }
                let started = if t.spec.p2p {
                    self.p2p_round(t, Vec::new())
                } else {
                    self.stream_export(t)
                };
                match started {
                    Ok(()) => self.set_st(t, St::Streaming),
                    Err(e) => self.fail_op(t, e, locks),
                }
            }
            St::Deleting => {
                if let Some(sp) = t.phase.take() {
                    self.tel.end(sp);
                }
                if !self.jlog(t.op, JournalPhase::Imported, &t.report) {
                    self.flush(t, locks);
                }
            }
            St::AbortPurge => self.disarm(t, locks),
            St::Settling => self.finalize(t, locks),
            _ => {}
        }
    }

    /// One reply of the current P2P round: the source's export summary,
    /// the destination's, or a batch receipt. Once both summaries are in,
    /// the round reconciles.
    fn on_round_reply(&mut self, t: &mut OpTask, reply: WireReply, locks: &mut Locks) {
        match reply {
            // A second summary for the round is a duplicate.
            WireReply::TransferExported { flow_ids, bytes } if !t.p2p.exported => {
                t.p2p.exported = true;
                t.bytes += bytes as usize;
                self.on_export_bytes(t.spec.src, bytes);
                let new: Vec<FlowId> =
                    flow_ids.into_iter().filter(|f| t.p2p.listed.insert(*f)).collect();
                if let Some(res) = self.residue.get_mut(&t.op.0) {
                    res.put_flows.extend(&new);
                }
                t.flow_ids.extend(new);
            }
            WireReply::TransferDone { imported } => {
                t.p2p.done = true;
                t.p2p.confirmed.extend(imported);
            }
            WireReply::TransferProgress { flow_ids, .. } => {
                t.p2p.confirmed.extend(flow_ids);
            }
            _ => {}
        }
        if t.p2p.exported && t.p2p.done {
            self.p2p_reconcile(t, locks);
        }
    }

    /// One batch of a relayed export stream. The channel is FIFO, so a
    /// seq behind the expected one repeats a batch already taken and is
    /// ignored, while one ahead of it means a batch was dropped on the
    /// wire: the export is no longer known to be complete — abort rather
    /// than move a silent subset.
    fn on_batch(&mut self, t: &mut OpTask, id: u64, reply: WireReply, locks: &mut Locks) {
        let WireReply::ChunkBatch { seq, last, chunks } = reply else {
            let e = RtError::Wire(format!("unexpected stream reply for {id}"));
            return self.fail_op(t, e, locks);
        };
        if seq < t.next_seq {
            return;
        }
        if seq > t.next_seq {
            let e = RtError::Wire(format!(
                "chunk batch gap at src {}: got seq {seq}, expected {}",
                t.spec.src, t.next_seq
            ));
            return self.fail_op(t, e, locks);
        }
        t.next_seq += 1;
        t.deadline = Instant::now() + self.reply_timeout;
        let batch_bytes = chunks.iter().map(|c| c.len()).sum::<usize>();
        t.chunks += chunks.len();
        t.bytes += batch_bytes;
        self.on_export_bytes(t.spec.src, batch_bytes as u64);
        t.flow_ids.extend(chunks.iter().map(|c| c.flow_id));
        if let Some(res) = self.residue.get_mut(&t.op.0) {
            res.put_flows.extend(chunks.iter().map(|c| c.flow_id));
        }
        if !chunks.is_empty() {
            t.backlog.push_back(chunks);
        }
        if last {
            t.get_id = None;
            t.export_done = true;
            // share.init_sync spans the whole stream + put pipeline; it
            // stays open until the sync settles.
            let next_phase = match t.spec.kind {
                OpClass::Move => Some("move.transfer"),
                OpClass::Copy => Some("copy.import"),
                OpClass::Share => None,
            };
            if let Some(name) = next_phase {
                if let Some(sp) = t.phase.take() {
                    self.tel.end(sp);
                }
                let root = t.root.expect("root span open");
                t.phase = Some(self.tel.begin_under(root, name));
            }
            if self.jlog(t.op, JournalPhase::ExportDone, &t.report) {
                return;
            }
        }
        self.pump_and_finish(t, locks);
    }

    /// Feeds the bandwidth accountant with bytes a source just exported:
    /// this is what eventually dries the source's bucket and tightens its
    /// put window and stream cap.
    fn on_export_bytes(&mut self, src: usize, bytes: u64) {
        let now_ns = self.tel.now_ns();
        self.sched.on_bytes(src, bytes, now_ns);
        if self.tel.enabled() {
            let toks = self.sched.tokens(src, now_ns);
            self.tel.gauge_set(&format!("sched.tokens.w{src}"), toks);
        }
    }

    /// Starts one P2P transfer round: the source exports the flows in
    /// `only` (empty = everything matching the filter) straight to the
    /// destination; both ends answer under the round's correlation id.
    /// The round's deadline runs from here and is not extended by
    /// receipts — when it passes, whatever was confirmed is reconciled.
    fn p2p_round(&mut self, t: &mut OpTask, only: Vec<FlowId>) -> Result<(), RtError> {
        let id = self.call_linked(
            t.spec.src,
            WireCall::TransferPerflow { filter: t.spec.filter, peer: t.spec.dst, only },
            t.phase.expect("transfer span open").raw(),
        )?;
        t.get_id = Some(id);
        t.p2p.round += 1;
        t.p2p.exported = false;
        t.p2p.done = false;
        // From here on a rollback must tombstone this round too.
        if let Some(res) = self.residue.get_mut(&t.op.0) {
            res.p2p_through = Some(id);
        }
        t.deadline = Instant::now() + self.reply_timeout;
        Ok(())
    }

    /// Closes a P2P round — both summaries landed, or its deadline passed
    /// with one missing — and reconciles what the source says it shipped
    /// against what the destination confirmed: done, one narrower round
    /// for the gap (a dropped batch costs a round, not the move), or out
    /// of attempts.
    fn p2p_reconcile(&mut self, t: &mut OpTask, locks: &mut Locks) {
        let xfer = t.get_id.take().unwrap_or_default();
        let gap: Vec<FlowId> =
            t.flow_ids.iter().filter(|f| !t.p2p.confirmed.contains(f)).copied().collect();
        // Complete only when this round's *both* summaries landed and
        // every exported flow is confirmed — a missing summary retries
        // even with an empty gap, because the export list is then possibly
        // incomplete.
        if t.p2p.exported && t.p2p.done && gap.is_empty() {
            t.export_done = true;
            t.chunks = t.flow_ids.len();
            if !self.jlog(t.op, JournalPhase::ExportDone, &t.report) {
                self.finish_transfer(t, locks);
            }
            return;
        }
        self.tel.event("move.p2p_round", Some(format!("xfer={xfer} missing={}", gap.len())));
        if t.p2p.round == P2P_ATTEMPTS {
            let e = RtError::Wire(format!(
                "P2P transfer incomplete after {P2P_ATTEMPTS} attempts ({} flows unconfirmed)",
                gap.len()
            ));
            t.report.p2p_inflight = gap;
            self.fail_op(t, e, locks);
            return;
        }
        self.tel.counter("rt.p2p.retry_rounds").fetch_add(1, Ordering::Relaxed);
        self.tel.counter("rt.p2p.refetch_flows").fetch_add(gap.len() as u64, Ordering::Relaxed);
        t.report.retries += 1;
        if let Err(e) = self.p2p_round(t, gap) {
            self.fail_op(t, e, locks);
        }
    }

    /// Issues queued put batches up to the backpressure window the
    /// scheduler currently allows for this op's source, then — once the
    /// last batch and every put ack are in — ends the transfer phase.
    fn pump_and_finish(&mut self, t: &mut OpTask, locks: &mut Locks) {
        let window = self.sched.put_window(t.spec.src, self.tel.now_ns());
        while t.put_ids.len() < window {
            let Some(chunks) = t.backlog.pop_front() else { break };
            match self.call(t.spec.dst, WireCall::PutPerflow { chunks }) {
                Ok(id) => {
                    t.put_ids.insert(id);
                    t.deadline = Instant::now() + self.reply_timeout;
                }
                Err(e) => {
                    self.fail_op(t, e, locks);
                    return;
                }
            }
        }
        if t.export_done && t.put_ids.is_empty() && t.backlog.is_empty() {
            self.finish_transfer(t, locks);
        }
    }

    /// Every exported flow is confirmed at the destination: journal
    /// `Transferred` and take the kind's release step. A move deletes at
    /// the source (copy-then-delete — the source keeps its copy until this
    /// point, so any earlier abort rolls back without loss); a copy is
    /// simply done; a share tears its sync filter down and replays the
    /// buffered updates back to the source.
    fn finish_transfer(&mut self, t: &mut OpTask, locks: &mut Locks) {
        if let Some(sp) = t.phase.take() {
            self.tel.end(sp);
        }
        t.report.chunks = t.chunks;
        t.report.bytes = t.bytes as u64;
        if !self.jlog(t.op, JournalPhase::Transferred, &t.report) {
            self.release(t, locks);
        }
    }

    /// The kind's release step once every flow is confirmed at the
    /// destination (`Transferred`): a move deletes at the source; a copy
    /// or share goes straight to the disarm, which a copy — never armed —
    /// passes through, and which replays a share's buffered updates to
    /// the *source*, so nothing raised during the sync is lost.
    fn release(&mut self, t: &mut OpTask, locks: &mut Locks) {
        if t.spec.kind != OpClass::Move {
            return self.disarm(t, locks);
        }
        let root = t.root.expect("root span open");
        t.phase = Some(self.tel.begin_under(root, "move.import"));
        // An empty delete still round-trips: it doubles as the barrier
        // proving the source processed everything up to here.
        match self.call(t.spec.src, WireCall::DelPerflow { flow_ids: t.flow_ids.clone() }) {
            Ok(id) => self.wait_for(t, id, St::Deleting),
            Err(e) => self.fail_op(t, e, locks),
        }
    }

    /// A move's source copy is released (`Imported`): replay everything
    /// buffered so far to the destination, journal `Flushed`, flip.
    fn flush(&mut self, t: &mut OpTask, locks: &mut Locks) {
        let sp = self.tel.begin_under(t.root.expect("root span open"), "move.flush");
        let events = self
            .residue
            .get_mut(&t.op.0)
            .map(|r| std::mem::take(&mut r.events))
            .unwrap_or_default();
        let replayed = self.replay_now(t.spec.dst, events.into_iter());
        self.tel.end(sp);
        match replayed {
            Ok(n) => t.replayed += n,
            Err(e) => return self.fail_op(t, e, locks),
        }
        if !self.jlog(t.op, JournalPhase::Flushed, &t.report) {
            self.flip(t);
        }
    }

    /// A move is flushed (`Flushed`): flip the route to the destination
    /// and open the post-flip quiet window; the source stays armed until
    /// the window closes.
    fn flip(&mut self, t: &mut OpTask) {
        t.phase = Some(self.tel.begin_under(t.root.expect("root span open"), "move.fwd_update"));
        t.last_event = self.flip_route(t.spec.filter, t.spec.dst);
        t.flipped = true;
        t.deadline = Instant::now() + FWD_DRAIN;
        self.set_st(t, St::FwdWait);
    }

    /// Hands an event to the op that owns the raising worker, or re-homes
    /// it when no op does ([`RtController::home_event`]; a straggler from
    /// an op that already finished). Copies never arm events, so they
    /// never own a stream — an event raised at a copy's source belongs to
    /// no one and routes on.
    fn route_event(&mut self, tasks: &mut [OpTask], worker: usize, ev: WireEvent) {
        let now = Instant::now();
        if let Some(t) = tasks
            .iter_mut()
            .find(|t| t.active() && t.spec.src == worker && t.spec.kind != OpClass::Copy)
        {
            t.last_event = now;
            if t.st == St::FwdWait {
                // Past the flush: stragglers replay straight to the
                // destination instead of queueing for another flush.
                let uid = match &ev {
                    WireEvent::PacketReceived { packet } => Some(packet.uid),
                    _ => None,
                };
                match self.replay_one(t.spec.dst, ev) {
                    Ok(n) => t.replayed += n,
                    Err(_) => {
                        // The destination died under us: the packet is
                        // gone, and the loss is accounted, not silent.
                        if let Some(uid) = uid {
                            self.last_abort_lost.push(uid);
                            t.report.abort_lost.push(uid);
                        }
                    }
                }
            } else {
                t.report.events_buffered += 1;
                if let Some(res) = self.residue.get_mut(&t.op.0) {
                    res.events.push(ev);
                }
            }
            return;
        }
        self.home_event(worker, ev);
    }

    /// Time-driven transitions: straggler-drain windows closing and reply
    /// watchdogs firing.
    fn tick(&mut self, tasks: &mut [OpTask], locks: &mut Locks) {
        if self.is_crashed() {
            return;
        }
        let now = Instant::now();
        for t in tasks.iter_mut() {
            match t.st {
                St::FwdWait if flip_settled(now, t.last_event, t.deadline) => {
                    if let Some(sp) = t.phase.take() {
                        self.tel.end(sp);
                    }
                    self.disarm(t, locks);
                }
                // A P2P round that ran out of time is an outcome to
                // reconcile, not an op failure.
                St::Streaming if t.spec.p2p && now >= t.deadline => {
                    self.p2p_reconcile(t, locks);
                }
                St::WaitEnable | St::Streaming | St::Deleting if now >= t.deadline => {
                    // Name the unanswered request: the awaited reply, else
                    // the export stream, else the oldest put.
                    let put = t.put_ids.iter().min().copied();
                    let id = t.wait_id.or(t.get_id).or(put).unwrap_or_default();
                    self.fail_op(t, RtError::Timeout { id }, locks);
                }
                // Best-effort teardown: a worker that won't ack its purge
                // or disable doesn't pin the op forever.
                St::AbortPurge if now >= t.deadline => {
                    t.wait_id = None;
                    self.disarm(t, locks);
                }
                St::Settling if now >= t.deadline => {
                    t.wait_id = None;
                    self.finalize(t, locks);
                }
                _ => {}
            }
        }
    }

    /// Starts tearing a failed op down: drops every outstanding request
    /// (a late reply to one is stale from here on) and, before the flip,
    /// first purges the partial import at the destination
    /// ([`OpResidue::purge_call`]).
    fn fail_op(&mut self, t: &mut OpTask, e: RtError, locks: &mut Locks) {
        let abort_ev = match t.spec.kind {
            OpClass::Move => "move.abort",
            OpClass::Copy => "copy.abort",
            OpClass::Share => "share.abort",
        };
        self.tel.event(abort_ev, Some(format!("op={} {e}", t.op.0)));
        if let Some(sp) = t.phase.take() {
            self.tel.end(sp);
        }
        t.wait_id = None;
        t.get_id = None;
        t.put_ids.clear();
        t.backlog.clear();
        t.err = Some(e);
        let purge =
            self.residue.get(&t.op.0).and_then(OpResidue::purge_call).filter(|_| !t.flipped);
        if let Some(purge) = purge {
            if let Ok(id) = self.call_fenced(t.spec.dst, purge) {
                return self.wait_for(t, id, St::AbortPurge);
            }
        }
        self.disarm(t, locks);
    }

    /// Restores a quiescent source — fenced `disableEvents` over the
    /// management channel; whatever the teardown flushes out replays at
    /// the ack — on commit and abort alike. A copy never armed a filter,
    /// and a source that is gone took its filter (and any still-buffered
    /// events) with it: both finalize at once.
    fn disarm(&mut self, t: &mut OpTask, locks: &mut Locks) {
        if t.spec.kind == OpClass::Copy {
            return self.finalize(t, locks);
        }
        let (src, filter) = (t.spec.src, t.spec.filter);
        match self.send_fenced_mgmt(src, WireCall::DisableEvents { filter }) {
            Ok(id) => self.wait_for(t, id, St::Settling),
            Err(_) => self.finalize(t, locks),
        }
    }

    /// Ends an op: replays the teardown flush to wherever the route
    /// points (the destination iff the route flipped), accounts every
    /// packet that could not be delivered, journals `Committed` — or
    /// `Aborted` when the op failed — and releases the endpoints.
    fn finalize(&mut self, t: &mut OpTask, locks: &mut Locks) {
        let events = self
            .residue
            .remove(&t.op.0)
            .map(|r| r.events)
            .unwrap_or_default();
        let replay_to = if t.flipped { t.spec.dst } else { t.spec.src };
        let (replayed, lost) = self.replay_events_to(replay_to, events);
        t.replayed += replayed;
        if let Some(e) = &t.err {
            t.report.abort(e.to_string(), None);
        }
        t.report.abort_lost.extend(lost.iter().copied());
        self.last_abort_lost.extend(lost);
        t.report.events_released = t.replayed;
        t.report.end_ns = self.tel.now_ns();
        let committed = t.err.is_none();
        let phase = if committed { JournalPhase::Committed } else { JournalPhase::Aborted };
        self.jlog(t.op, phase, &t.report);
        self.ew_release(t.op, t.spec.src, t.spec.dst, committed);
        if let Some(root) = t.root.take() {
            self.tel.end(root);
        }
        t.duration = t.start.elapsed();
        self.set_st(t, St::Done);
        locks.release(&t.spec);
        let done = t.pending();
        self.sched.on_completed(&done);
    }
}
