//! A sharded threaded control plane: one [`RtController`] per shard, a
//! shared global rule table, and an east-west message channel between
//! shards — the runtime mirror of the simulator's sharded controller.
//!
//! Each shard owns a contiguous run of workers and runs the ordinary
//! single-controller protocol against them. A move whose source and
//! destination live in the *same* shard is submitted to that shard's
//! op engine unchanged. A move that *crosses* shards executes as a
//! two-shard handoff: the owning shard (the source's) drives the §5.1
//! phase sequence, and everything destined for the peer shard — imported
//! chunks, buffered-event replays, the commit/abort release — travels as
//! serialized [`EwMsg`] frames over the east-west link, never by touching
//! the peer's workers directly. That boundary is the point: a shard only
//! ever talks southbound to its own workers.
//!
//! Cross-shard transfers relay through the controllers: the P2P mesh is
//! a per-shard resource, so a direct NF → NF stream across the shard
//! boundary would bypass the ownership model the sharding exists to
//! enforce. The relay rides the same machinery as the in-shard op engine
//! (`opennf-rt::engine`): the source streams bounded `ChunkBatch` frames
//! that are forwarded east-west while later batches are still exporting,
//! the source's copy is deleted only after the peer confirms the import
//! (safe because `enableEvents(drop)` already quiesced the source), and
//! every phase boundary is journaled through the owning shard's
//! [`opennf_controller::JournalPhase`] ledger.

use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::{Duration, Instant};

use crossbeam::channel::{unbounded, Receiver, Sender};
use opennf_controller::{JournalPhase, OpId, OpReport};
use opennf_nf::{Chunk, EventedNf, NetworkFunction};
use opennf_packet::{Filter, FlowId, Packet};
use opennf_sched::OpClass;
use opennf_telemetry::Telemetry;
use opennf_util::FaultPlan;
use serde::{Deserialize, Serialize};

use crate::controller::{MoveStats, RtController};
use crate::engine::{flip_settled, OpSpec};
use crate::error::RtError;
use crate::faults::{FaultyChannel, RtFaults};
use crate::router::Router;
use crate::wire::{WireAction, WireCall, WireEvent, WireMsg, WireReply};

/// Replayed packets are coalesced into east-west frames of at most this
/// many packets, mirroring the southbound replay batching.
const EW_BATCH: usize = 64;

/// Ceiling on how long the owning shard polls its own workers for
/// straggler events after the global route flips.
const STRAGGLER_WINDOW: Duration = Duration::from_millis(200);

/// One poll of that loop.
const STRAGGLER_POLL: Duration = Duration::from_millis(5);

/// The east-west vocabulary between shard controllers. Every message is
/// serialized to JSON on the sending shard and parsed on the receiving
/// one — same cost profile as the southbound wire. The three messages
/// mirror the simulator's `EwWatch`/`EwForward`/`EwRelease` handoff.
#[derive(Debug, Clone, Serialize, Deserialize)]
#[serde(tag = "ew", rename_all = "snake_case")]
pub enum EwMsg {
    /// Imported state for a cross-shard move: the receiving shard applies
    /// `putPerflow(chunks)` at its local `worker`.
    PutChunks {
        /// Cross-shard operation id (for journaling/diagnostics).
        op: u64,
        /// Local worker index *within the receiving shard*.
        worker: usize,
        /// The state being handed over.
        chunks: Vec<Chunk>,
    },
    /// Buffered packets harvested on the owning shard, to be replayed at
    /// the receiving shard's local `worker` marked do-not-buffer /
    /// do-not-drop.
    Replay {
        /// Cross-shard operation id.
        op: u64,
        /// Local worker index within the receiving shard.
        worker: usize,
        /// The packets, in buffer order.
        packets: Vec<Packet>,
    },
    /// Abort purge for a cross-shard op: the receiving shard deletes the
    /// listed flows at its local `worker` — partial imports from a failed
    /// handoff must not survive as shadow state.
    DelFlows {
        /// Cross-shard operation id.
        op: u64,
        /// Local worker index within the receiving shard.
        worker: usize,
        /// Flows to purge.
        flow_ids: Vec<FlowId>,
    },
    /// Terminal release for a cross-shard op: the peer learns the outcome
    /// and drops any armed watch state.
    Release {
        /// Cross-shard operation id.
        op: u64,
        /// `true` for commit, `false` for abort.
        committed: bool,
    },
}

/// The sharded control plane: one [`RtController`] per shard plus the
/// global router and the east-west links.
///
/// Worker indices on this type are *global* (shard-major: shard 0's
/// workers first, then shard 1's, …); the internal map translates to
/// `(shard, local)` pairs.
pub struct ShardedRt {
    shards: Vec<RtController>,
    /// Global worker index → (shard, local worker index).
    map: Vec<(usize, usize)>,
    /// The global rule table generators route through. Rules installed
    /// here carry *global* worker indices.
    pub router: Arc<Router>,
    ew_tx: Vec<Sender<String>>,
    ew_rx: Vec<Receiver<String>>,
    tel: Telemetry,
    last_abort_lost: Vec<u64>,
}

impl ShardedRt {
    /// Spawns one [`RtController`] per entry of `shard_nfs` (each inner
    /// vector is one shard's workers) and installs a global default route
    /// to global worker 0. Wall-clock telemetry.
    pub fn new(shard_nfs: Vec<Vec<Box<dyn NetworkFunction>>>) -> Self {
        Self::new_with_telemetry(shard_nfs, Telemetry::wall())
    }

    /// Like [`ShardedRt::new`] with a caller-supplied telemetry handle,
    /// shared by every shard (keep a clone to read spans/metrics).
    pub fn new_with_telemetry(
        shard_nfs: Vec<Vec<Box<dyn NetworkFunction>>>,
        tel: Telemetry,
    ) -> Self {
        Self::build(shard_nfs, None, tel).0
    }

    /// Like [`ShardedRt::new_with_telemetry`], with shard `fault_shard`'s
    /// channels (only) running through a [`FaultyChannel`] armed with
    /// `plan`. Faults stay confined to one shard: the plan's node ids name
    /// that shard's *local* workers, and mapping them across shard
    /// boundaries would silently re-target them. Returns the shared
    /// [`RtFaults`] ledger.
    pub fn new_with_faults_on(
        shard_nfs: Vec<Vec<Box<dyn NetworkFunction>>>,
        plan: FaultPlan,
        fault_shard: usize,
        tel: Telemetry,
    ) -> (Self, Arc<RtFaults>) {
        assert!(fault_shard < shard_nfs.len(), "fault shard exists");
        let (me, faults) = Self::build(shard_nfs, Some((plan, fault_shard)), tel);
        (me, faults.expect("fault plan was supplied"))
    }

    fn build(
        shard_nfs: Vec<Vec<Box<dyn NetworkFunction>>>,
        plan: Option<(FaultPlan, usize)>,
        tel: Telemetry,
    ) -> (Self, Option<Arc<RtFaults>>) {
        assert!(!shard_nfs.is_empty(), "at least one shard");
        let mut map = Vec::new();
        for (k, nfs) in shard_nfs.iter().enumerate() {
            for l in 0..nfs.len() {
                map.push((k, l));
            }
        }
        // One rule table for the whole control plane: every shard's engine
        // flips and watches the table the generators actually consult.
        let router = RtController::default_router();
        let mut shards = Vec::with_capacity(shard_nfs.len());
        let mut faults_out = None;
        let mut route_base = 0;
        for (k, nfs) in shard_nfs.into_iter().enumerate() {
            let n = nfs.len();
            let plan = plan.as_ref().filter(|(_, fault_shard)| k == *fault_shard);
            let (ctrl, faults) = RtController::build(
                nfs,
                plan.map(|(plan, _)| plan.clone()),
                tel.clone(),
                router.clone(),
                route_base,
            );
            shards.push(ctrl);
            faults_out = faults_out.or(faults);
            route_base += n;
        }
        let mut ew_tx = Vec::new();
        let mut ew_rx = Vec::new();
        for _ in 0..shards.len() {
            let (tx, rx) = unbounded::<String>();
            ew_tx.push(tx);
            ew_rx.push(rx);
        }
        let me = Self {
            shards,
            map,
            router,
            ew_tx,
            ew_rx,
            tel,
            last_abort_lost: Vec::new(),
        };
        (me, faults_out)
    }

    /// Applies a southbound reply timeout to every shard.
    pub fn with_reply_timeout(mut self, timeout: Duration) -> Self {
        self.shards =
            self.shards.into_iter().map(|s| s.with_reply_timeout(timeout)).collect();
        self
    }

    /// Applies an op-scheduling policy to every shard's engine
    /// ([`RtController::set_sched_policy`]).
    pub fn set_sched_policy(&mut self, policy: opennf_sched::SchedPolicy) {
        for s in &mut self.shards {
            s.set_sched_policy(policy);
        }
    }

    /// Number of shards.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// Total number of workers across all shards.
    pub fn worker_count(&self) -> usize {
        self.map.len()
    }

    /// The shared telemetry handle.
    pub fn telemetry(&self) -> &Telemetry {
        &self.tel
    }

    /// Packet uids the last move could not replay (dead-worker frames),
    /// mirroring [`RtController::abort_lost`].
    pub fn abort_lost(&self) -> &[u64] {
        &self.last_abort_lost
    }

    /// Data-plane sender toward *global* worker `g` (fault-shimmed on
    /// the fault shard when a plan is armed).
    pub fn data_tx(&self, g: usize) -> FaultyChannel {
        let (k, l) = self.map[g];
        self.shards[k].data_tx(l)
    }

    /// Routes `pkt` through the global rule table and delivers it to the
    /// matching worker, if any.
    pub fn inject(&self, pkt: Packet) -> Result<(), RtError> {
        if let Some(g) = self.router.route(&pkt) {
            let (k, l) = self.map[g];
            self.shards[k]
                .data_tx(l)
                .send(&WireMsg::Packet { packet: pkt })
                .map_err(|_| RtError::WorkerGone { worker: g })?;
        }
        Ok(())
    }

    /// Drains global worker `g`'s data queue (see
    /// [`RtController::quiesce`]).
    pub fn quiesce(&mut self, g: usize) -> Result<(), RtError> {
        let (k, l) = self.map[g];
        self.shards[k].quiesce(l)
    }

    /// Shard `k`'s controller (fault hooks, crash/recovery test knobs).
    pub fn shard_mut(&mut self, k: usize) -> &mut RtController {
        &mut self.shards[k]
    }

    /// Shard `k`'s op journal: each shard keeps the same
    /// [`opennf_controller::JournalPhase`] ledger a single controller
    /// does, so a sharded soak can audit every shard's op history.
    pub fn journal(&self, k: usize) -> &opennf_controller::OpJournal {
        self.shards[k].journal()
    }

    /// Every shard's journal as JSON, newline-joined — the same capture
    /// shape the sim's sharded control plane exposes.
    pub fn journal_json(&self) -> String {
        self.shards.iter().map(|s| s.journal_json()).collect::<Vec<_>>().join("\n")
    }

    /// Shuts every shard down, shard-major — harness order matches the
    /// global worker order.
    pub fn shutdown(self) -> Vec<EventedNf> {
        self.shards.into_iter().flat_map(RtController::shutdown).collect()
    }

    /// Runs one op whose `src`/`dst` are *global* worker indices.
    ///
    /// * Same shard: the spec is translated to that shard's local indices
    ///   and submitted to its engine ([`RtController::run_ops`]) as is —
    ///   any kind, either transfer mode; the engine flips the global table
    ///   itself.
    /// * Cross shard (moves only): the source's shard drives the
    ///   five-phase handoff; chunks and replays reach the destination's
    ///   shard as [`EwMsg`] frames. The spec's transfer mode is ignored:
    ///   the transfer always relays through the controllers, because the
    ///   shard boundary owns connectivity.
    pub fn move_flows_cross(&mut self, spec: OpSpec) -> Result<MoveStats, RtError> {
        let OpSpec { src, dst, filter, kind, .. } = spec;
        let (sa, a_l) = self.map[src];
        let (sb, b_l) = self.map[dst];
        self.last_abort_lost.clear();
        if sa == sb {
            let r = self.shards[sa]
                .run_ops(vec![OpSpec { src: a_l, dst: b_l, ..spec }])
                .pop()
                .expect("one spec in, one result out");
            self.last_abort_lost = self.shards[sa].abort_lost().to_vec();
            return r;
        }
        if kind != OpClass::Move {
            return Err(RtError::Wire(format!(
                "cross-shard {} is not supported: only moves hand off east-west",
                kind.name()
            )));
        }

        // The op id comes from the owning shard's mint so the handoff's
        // journal records share one id space with that shard's in-shard
        // ops; it also tags the east-west frames.
        let op = self.shards[sa].mint_op();
        // The handoff runs outside the engine's dispatch loop: look at the
        // data plane now, so activity before this point is not stamped as
        // late as the flip.
        self.shards[sa].observe_lookups();
        // Shard-tagged so the happens-before oracle can pair this with the
        // peer's `ew.release` per shard pair and bound transport latency.
        self.tel.event(
            "ew.handoff",
            Some(format!("op={} {src}->{dst} shard={sa} peer={sb}", op.0)),
        );
        let mut report = OpReport::new(op, "move[LF ew]".into(), self.tel.now_ns());

        let mut events: Vec<WireEvent> = Vec::new();
        let mut flipped = false;
        // Flows already forwarded east-west, and whether the source's copy
        // was deleted: an abort in between purges the peer's partial
        // import so the state never exists in two places.
        let mut shipped: Vec<FlowId> = Vec::new();
        let mut deleted = false;
        let r = self.try_cross(
            op, &mut report, sa, a_l, sb, b_l, dst, filter, &mut events, &mut flipped,
            &mut shipped, &mut deleted,
        );
        match r {
            Ok(mut stats) => {
                // Settle: tear the event filter down at the source, ship
                // the tail east-west, release the peer.
                let tail = self.shards[sa].settle_collect(a_l, filter);
                events.extend(tail);
                let (extra, lost) = self.ew_replay(op.0, sb, b_l, std::mem::take(&mut events))?;
                stats.events_replayed += extra;
                self.last_abort_lost = lost;
                self.ew_send(sb, &EwMsg::Release { op: op.0, committed: true });
                self.drain_ew(sb)?;
                report.events_released = stats.events_replayed;
                report.end_ns = self.tel.now_ns();
                self.shards[sa].jlog(op, JournalPhase::Committed, &report);
                Ok(stats)
            }
            // A journal crash hook fired mid-handoff: stop driving — no
            // more sends — and leave the op non-terminal for recovery.
            Err(RtError::CtrlCrashed) => Err(RtError::CtrlCrashed),
            Err(e) => {
                self.tel.event("move.abort", Some(e.to_string()));
                // Purge: batches the peer already imported are deleted
                // there — the route still points at the source, which
                // kept its copy until the peer confirmed.
                if !shipped.is_empty() && !deleted {
                    self.ew_send(
                        sb,
                        &EwMsg::DelFlows { op: op.0, worker: b_l, flow_ids: shipped },
                    );
                    let _ = self.drain_ew(sb);
                }
                let tail = self.shards[sa].settle_collect(a_l, filter);
                events.extend(tail);
                let lost = if flipped {
                    let (_, lost) = self.ew_replay(op.0, sb, b_l, std::mem::take(&mut events))?;
                    lost
                } else {
                    let (_, lost) =
                        self.shards[sa].replay_events_to(a_l, std::mem::take(&mut events));
                    lost
                };
                self.last_abort_lost = lost.clone();
                self.ew_send(sb, &EwMsg::Release { op: op.0, committed: false });
                self.drain_ew(sb)?;
                report.abort(e.to_string(), None);
                report.abort_lost.extend(lost);
                report.end_ns = self.tel.now_ns();
                self.shards[sa].jlog(op, JournalPhase::Aborted, &report);
                Err(e)
            }
        }
    }

    /// The happy path of a cross-shard move: the same five phases (and
    /// span names) as the in-shard op engine, with the transfer leg
    /// crossing the east-west link. Journal phases are appended through
    /// the owning shard's ledger at each boundary; a fired crash hook
    /// stops the handoff with [`RtError::CtrlCrashed`].
    #[allow(clippy::too_many_arguments)]
    fn try_cross(
        &mut self,
        op: OpId,
        report: &mut OpReport,
        sa: usize,
        a_l: usize,
        sb: usize,
        b_l: usize,
        dst_global: usize,
        filter: Filter,
        events: &mut Vec<WireEvent>,
        flipped: &mut bool,
        shipped: &mut Vec<FlowId>,
        deleted: &mut bool,
    ) -> Result<MoveStats, RtError> {
        let start = Instant::now();

        // Export: quiesce the source, then stream bounded chunk batches —
        // each one forwarded east-west as it lands, while later batches
        // are still exporting (the engine's pipelining, stretched across
        // the shard boundary).
        let sp = self.tel.begin("move.export");
        let id = self.shards[sa]
            .call(a_l, WireCall::EnableEvents { filter, action: WireAction::Drop })?;
        RtController::expect_done(self.shards[sa].await_reply(id, events)?)?;
        if self.shards[sa].jlog(op, JournalPhase::Armed, report) {
            return Err(RtError::CtrlCrashed);
        }
        let id = self.shards[sa]
            .call(a_l, WireCall::GetPerflowChunked { filter, batch: crate::engine::STREAM_BATCH })?;
        let mut n_chunks = 0usize;
        let mut bytes = 0usize;
        let mut next_seq = 0u64;
        loop {
            match self.shards[sa].await_reply(id, events)? {
                WireReply::ChunkBatch { seq, last, chunks } => {
                    // A sequence gap means a dropped batch: abort rather
                    // than hand over a silently partial export.
                    if seq != next_seq {
                        return Err(RtError::Wire(format!(
                            "chunk batch gap: got seq {seq}, expected {next_seq}"
                        )));
                    }
                    next_seq += 1;
                    n_chunks += chunks.len();
                    bytes += chunks.iter().map(|c| c.len()).sum::<usize>();
                    shipped.extend(chunks.iter().map(|c| c.flow_id));
                    if !chunks.is_empty() {
                        self.ew_send(sb, &EwMsg::PutChunks { op: op.0, worker: b_l, chunks });
                    }
                    if last {
                        break;
                    }
                }
                WireReply::Error { message } => return Err(RtError::Wire(message)),
                other => return Err(RtError::Wire(format!("unexpected reply: {other:?}"))),
            }
        }
        self.tel.end(sp);
        report.chunks = n_chunks;
        report.bytes = bytes as u64;
        if self.shards[sa].jlog(op, JournalPhase::ExportDone, report) {
            return Err(RtError::CtrlCrashed);
        }

        // Transfer: the peer shard applies the queued frames southbound.
        let sp = self.tel.begin("move.transfer");
        self.drain_ew(sb)?;
        self.tel.end(sp);
        if self.shards[sa].jlog(op, JournalPhase::Transferred, report) {
            return Err(RtError::CtrlCrashed);
        }

        // Import boundary: only now — with the peer's copy confirmed —
        // delete at the source. No double-processing window: the source
        // has been buffer-and-dropping since enableEvents.
        let sp = self.tel.begin("move.import");
        let id = self.shards[sa].call(a_l, WireCall::DelPerflow { flow_ids: shipped.clone() })?;
        RtController::expect_done(self.shards[sa].await_reply(id, events)?)?;
        *deleted = true;
        self.tel.end(sp);
        if self.shards[sa].jlog(op, JournalPhase::Imported, report) {
            return Err(RtError::CtrlCrashed);
        }

        let sp = self.tel.begin("move.flush");
        let (mut replayed, mut lost) = self.ew_replay(op.0, sb, b_l, std::mem::take(events))?;
        self.tel.end(sp);
        if self.shards[sa].jlog(op, JournalPhase::Flushed, report) {
            return Err(RtError::CtrlCrashed);
        }

        let sp = self.tel.begin("move.fwd_update");
        let mut last_activity = self.shards[sa].flip_route(filter, dst_global);
        *flipped = true;
        // Stragglers: packets routed toward the source before the flip
        // still raise events there — the engine's post-flip quiet window,
        // under this site's ceiling. Ship each batch east-west *as it
        // surfaces* — waiting out the whole window first would queue the
        // replays behind the live tail at the destination, processing
        // old-ingress packets last.
        let deadline = Instant::now() + STRAGGLER_WINDOW;
        while !flip_settled(Instant::now(), last_activity, deadline) {
            let tail = self.shards[sa].drain_events(STRAGGLER_POLL)?;
            if tail.is_empty() {
                continue;
            }
            last_activity = Instant::now();
            let (r, l) = self.ew_replay(op.0, sb, b_l, tail)?;
            replayed += r;
            lost.extend(l);
        }
        self.tel.end(sp);

        if !lost.is_empty() {
            lost.sort_unstable();
            lost.dedup();
            self.last_abort_lost = lost;
        }
        Ok(MoveStats { chunks: n_chunks, bytes, events_replayed: replayed, duration: start.elapsed() })
    }

    /// Serializes `msg` onto shard `k`'s east-west mailbox.
    fn ew_send(&self, k: usize, msg: &EwMsg) {
        let frame = serde_json::to_string(msg).expect("EwMsg serializes");
        self.tel.counter("rt.ew.frames").fetch_add(1, Ordering::Relaxed);
        self.tel.counter("rt.ew.bytes").fetch_add(frame.len() as u64, Ordering::Relaxed);
        let _ = self.ew_tx[k].send(frame);
    }

    /// Processes every east-west frame queued at shard `k`, acting as that
    /// shard's controller: imports land as `putPerflow` at the named local
    /// worker, replays go out marked do-not-buffer/do-not-drop, releases
    /// are journaled to telemetry. Returns `(replayed, lost_uids)`.
    fn drain_ew(&mut self, k: usize) -> Result<(usize, Vec<u64>), RtError> {
        let mut replayed = 0usize;
        let mut lost = Vec::new();
        while let Ok(frame) = self.ew_rx[k].try_recv() {
            let msg: EwMsg =
                serde_json::from_str(&frame).map_err(|e| RtError::Wire(e.to_string()))?;
            match msg {
                EwMsg::PutChunks { worker, chunks, .. } => {
                    let sh = &mut self.shards[k];
                    let id = sh.call(worker, WireCall::PutPerflow { chunks })?;
                    let mut evs = Vec::new();
                    RtController::expect_done(sh.await_reply(id, &mut evs)?)?;
                    let (r, l) = sh.replay_events_to(worker, evs);
                    replayed += r;
                    lost.extend(l);
                }
                EwMsg::DelFlows { worker, flow_ids, .. } => {
                    let sh = &mut self.shards[k];
                    let id = sh.call(worker, WireCall::DelPerflow { flow_ids })?;
                    let mut evs = Vec::new();
                    RtController::expect_done(sh.await_reply(id, &mut evs)?)?;
                    let (r, l) = sh.replay_events_to(worker, evs);
                    replayed += r;
                    lost.extend(l);
                }
                EwMsg::Replay { worker, packets, .. } => {
                    let evs: Vec<WireEvent> = packets
                        .into_iter()
                        .map(|packet| WireEvent::PacketReceived { packet })
                        .collect();
                    let (r, l) = self.shards[k].replay_events_to(worker, evs);
                    replayed += r;
                    lost.extend(l);
                }
                EwMsg::Release { op, committed } => {
                    self.tel.event(
                        "ew.release",
                        Some(format!("op={op} committed={committed} shard={k}")),
                    );
                }
            }
        }
        Ok((replayed, lost))
    }

    /// Ships the packet events in `events` east-west to shard `k` as
    /// [`EwMsg::Replay`] frames of at most [`EW_BATCH`] packets, then
    /// drains the peer so they are applied. Returns `(replayed,
    /// lost_uids)`.
    fn ew_replay(
        &mut self,
        op: u64,
        k: usize,
        worker: usize,
        events: Vec<WireEvent>,
    ) -> Result<(usize, Vec<u64>), RtError> {
        let mut batch: Vec<Packet> = Vec::new();
        for ev in events {
            if let WireEvent::PacketReceived { packet } = ev {
                batch.push(packet);
                if batch.len() >= EW_BATCH {
                    self.ew_send(k, &EwMsg::Replay { op, worker, packets: std::mem::take(&mut batch) });
                }
            }
        }
        if !batch.is_empty() {
            self.ew_send(k, &EwMsg::Replay { op, worker, packets: batch });
        }
        self.drain_ew(k)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use opennf_nfs::AssetMonitor;
    use opennf_packet::{FlowKey, TcpFlags};
    use std::sync::atomic::{AtomicU64, Ordering};

    fn pkt(uid: u64, flow: u16) -> Packet {
        Packet::builder(
            uid,
            FlowKey::tcp("10.0.0.1".parse().unwrap(), 2000 + flow, "1.1.1.1".parse().unwrap(), 80),
        )
        .flags(if uid <= 40 { TcpFlags::SYN } else { TcpFlags::ACK })
        .build()
    }

    fn two_shards() -> ShardedRt {
        ShardedRt::new(vec![
            vec![Box::new(AssetMonitor::new()) as Box<dyn NetworkFunction>],
            vec![Box::new(AssetMonitor::new()) as Box<dyn NetworkFunction>],
        ])
    }

    #[test]
    fn cross_shard_move_under_live_traffic_is_loss_free() {
        let mut ctrl = two_shards();
        let router = ctrl.router.clone();
        let txs = [ctrl.data_tx(0), ctrl.data_tx(1)];
        let sent = Arc::new(AtomicU64::new(0));
        let sent_gen = sent.clone();
        let gen = std::thread::spawn(move || {
            for uid in 1..=2_000u64 {
                let p = pkt(uid, (uid % 40) as u16);
                if let Some(w) = router.route(&p) {
                    let _ = txs[w].send(&WireMsg::Packet { packet: p });
                }
                sent_gen.store(uid, Ordering::Release);
                std::thread::sleep(Duration::from_micros(50));
            }
        });
        while sent.load(Ordering::Acquire) < 200 {
            std::thread::sleep(Duration::from_millis(1));
        }
        let stats = ctrl.move_flows_cross(OpSpec::mv(0, 1, Filter::any())).expect("handoff succeeds");
        assert_eq!(stats.chunks, 40, "all 40 flows handed over");
        assert!(stats.bytes > 0);
        assert!(
            ctrl.telemetry().counter("rt.ew.frames").load(Ordering::Relaxed) > 0,
            "state crossed the east-west link"
        );

        gen.join().unwrap();
        std::thread::sleep(Duration::from_millis(50));
        assert!(ctrl.abort_lost().is_empty(), "no replay frames lost");
        let harnesses = ctrl.shutdown();
        let (h0, h1) = (&harnesses[0], &harnesses[1]);
        let mut all: Vec<u64> =
            h0.processed_log().iter().chain(h1.processed_log()).copied().collect();
        all.sort_unstable();
        all.dedup();
        assert_eq!(
            all.len(),
            h0.processed_log().len() + h1.processed_log().len(),
            "no packet processed twice"
        );
        assert_eq!(all.len(), 2_000, "every packet processed exactly once");
        let any: &dyn std::any::Any = h0.nf();
        assert_eq!(any.downcast_ref::<AssetMonitor>().unwrap().conn_count(), 0, "source deleted");
        let any: &dyn std::any::Any = h1.nf();
        assert_eq!(any.downcast_ref::<AssetMonitor>().unwrap().conn_count(), 40);
    }

    #[test]
    fn cross_shard_move_emits_canonical_span_sequence() {
        let tel = Telemetry::wall();
        let mut ctrl = ShardedRt::new_with_telemetry(
            vec![
                vec![Box::new(AssetMonitor::new()) as Box<dyn NetworkFunction>],
                vec![Box::new(AssetMonitor::new()) as Box<dyn NetworkFunction>],
            ],
            tel.clone(),
        );
        for uid in 1..=20u64 {
            ctrl.inject(pkt(uid, (uid % 4) as u16)).unwrap();
        }
        ctrl.quiesce(0).unwrap();
        ctrl.move_flows_cross(OpSpec::mv_p2p(0, 1, Filter::any())).expect("handoff succeeds");
        assert_eq!(
            tel.span_sequence("move."),
            ["move.export", "move.transfer", "move.import", "move.flush", "move.fwd_update"],
            "the cross-shard handoff tiles the same five phases"
        );
        ctrl.shutdown();
    }

    #[test]
    fn same_shard_move_flips_the_one_global_table() {
        // Shard 1 owns global workers 1 and 2, so its local indices differ
        // from the global ones.
        let mut ctrl = ShardedRt::new(vec![
            vec![Box::new(AssetMonitor::new()) as Box<dyn NetworkFunction>],
            vec![
                Box::new(AssetMonitor::new()) as Box<dyn NetworkFunction>,
                Box::new(AssetMonitor::new()) as Box<dyn NetworkFunction>,
            ],
        ]);
        for k in 0..2 {
            let shard_router = ctrl.shard_mut(k).router.clone();
            assert!(Arc::ptr_eq(&ctrl.router, &shard_router), "shard {k} holds the global table");
        }
        for uid in 1..=20u64 {
            ctrl.data_tx(1).send(&WireMsg::Packet { packet: pkt(uid, (uid % 4) as u16) }).unwrap();
        }
        ctrl.quiesce(1).unwrap();
        // There and back and there again: the engine flips the global
        // table itself, to the *global* index, and keeps one rule.
        for (src, dst) in [(1, 2), (2, 1), (1, 2)] {
            let spec = OpSpec::mv_p2p(src, dst, Filter::any());
            let stats = ctrl.move_flows_cross(spec).expect("move succeeds");
            assert_eq!(stats.chunks, 4);
            assert_eq!(ctrl.router.route(&pkt(99, 1)), Some(dst));
            assert_eq!(ctrl.router.len(), 2, "the default route plus one rule for the filter");
        }
        // A packet injected now follows the table into shard 1.
        ctrl.inject(pkt(21, 1)).unwrap();
        ctrl.quiesce(2).unwrap();
        let harnesses = ctrl.shutdown();
        assert_eq!(harnesses[2].processed_log().last(), Some(&21));
        let any: &dyn std::any::Any = harnesses[2].nf();
        assert_eq!(any.downcast_ref::<AssetMonitor>().unwrap().conn_count(), 4);
    }

    #[test]
    fn quiet_cross_shard_move_does_not_sit_out_the_straggler_window() {
        let mut ctrl = two_shards();
        for uid in 1..=20u64 {
            ctrl.data_tx(0).send(&WireMsg::Packet { packet: pkt(uid, (uid % 4) as u16) }).unwrap();
        }
        ctrl.quiesce(0).unwrap();
        // No lookup since construction, and construction is long enough ago.
        std::thread::sleep(Duration::from_millis(30));
        let t0 = Instant::now();
        let stats =
            ctrl.move_flows_cross(OpSpec::mv(0, 1, Filter::any())).expect("handoff succeeds");
        let took = t0.elapsed();
        assert_eq!(stats.chunks, 4);
        assert!(took < STRAGGLER_WINDOW / 2, "quiet handoff took {took:?}");
        assert_eq!(ctrl.router.route(&pkt(99, 1)), Some(1));
        ctrl.shutdown();
    }
}
