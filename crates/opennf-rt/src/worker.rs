//! NF worker threads: each wraps an [`EventedNf`] and speaks the JSON wire
//! protocol over crossbeam channels.
//!
//! Workers are failure-contained: every message a worker serves — a packet,
//! a southbound call, a P2P chunk batch, a transfer tombstone — runs under
//! one panic guard. A panic inside the NF is reported to the controller as
//! [`WireEvent::NfFailed`] and the thread exits cleanly, handing its
//! harness back — it never unwinds across the channel and never leaves the
//! controller blocked on a reply that will not come.
//!
//! The worker ↔ worker mesh for P2P bulk transfer is complete at spawn:
//! each worker is handed every peer's inbox. The link to a peer — the
//! inbox behind the fault shim, if one is armed — is dialed when a
//! transfer first targets it, so `rt.p2p.dials` counts the ordered pairs
//! a run actually used.
//!
//! Every request is fenced ([`WireMsg::Request`]): the worker keeps the
//! highest request floor it has seen and the ids at or above it that it
//! has applied, and drops a request below the floor or already applied.
//! Applied ids below a new floor are forgotten, so the fence's memory is
//! bounded by the requests of the ops still live; its size is the
//! `rt.fence.window.w<i>` gauge.

use std::collections::HashSet;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;

use crossbeam::channel::{unbounded, Receiver, Sender};
use opennf_nf::{Chunk, EventedNf, NetworkFunction, NfEvent, StateError};
use opennf_packet::{Filter, FlowId};
use opennf_telemetry::Telemetry;

use crate::error::RtError;
use crate::faults::{worker_node, FaultyChannel, PumpJob, RtFaults, CTRL_NODE};
use crate::wire::{decode_frame, FrameBuf, WireCall, WireEvent, WireMsg, WireReply};

/// Chunks per direct worker → worker frame in a P2P bulk transfer.
const P2P_BATCH_CHUNKS: usize = 64;

/// Handle to a running worker.
pub struct WorkerHandle {
    /// Worker index (used in events it raises).
    pub index: usize,
    /// Channel into the worker (JSON strings).
    pub tx: Sender<String>,
    join: Option<JoinHandle<EventedNf>>,
}

impl WorkerHandle {
    /// Sends a wire message to the worker. Fails with
    /// [`RtError::WorkerGone`] when the worker thread has exited (shut
    /// down, or dead after an NF failure).
    pub fn send(&self, msg: &WireMsg) -> Result<(), RtError> {
        self.tx
            .send(msg.to_json())
            .map_err(|_| RtError::WorkerGone { worker: self.index })
    }

    /// Shuts the worker down and returns its harness (for inspection).
    /// Also the way to recover the harness of a worker that already died:
    /// the failed thread still hands its state back.
    pub fn shutdown(mut self) -> EventedNf {
        // If the thread already exited, the send fails — that's fine.
        let _ = self.tx.send(WireMsg::Shutdown.to_json());
        self.join.take().expect("not yet joined").join().expect("worker thread")
    }
}

/// Spawns a worker thread for `nf`. All controller-bound traffic
/// (responses and events) goes to `to_ctrl` as JSON — a plain sender,
/// unshimmed. No peers: P2P transfer requests fail.
pub fn spawn_worker(
    index: usize,
    nf: Box<dyn NetworkFunction>,
    to_ctrl: Sender<String>,
) -> WorkerHandle {
    spawn_worker_full(index, nf, unbounded(), to_ctrl, Vec::new(), None, Telemetry::disabled())
}

/// Spawns worker `index` on its inbox `(tx, rx)`. `peers` holds every
/// worker's inbox by index (this one's included — self-transfers are
/// rejected upstream); the uplink to `to_ctrl` and each peer link run
/// through `shim` when the worker is in a fault domain. Hot-path counters
/// go to `tel`.
pub(crate) fn spawn_worker_full(
    index: usize,
    nf: Box<dyn NetworkFunction>,
    (tx, rx): (Sender<String>, Receiver<String>),
    to_ctrl: Sender<String>,
    peers: Vec<Sender<String>>,
    shim: Option<(Arc<RtFaults>, Sender<PumpJob>)>,
    tel: Telemetry,
) -> WorkerHandle {
    let up = FaultyChannel::new(to_ctrl, worker_node(index), CTRL_NODE, shim.clone());
    let join = std::thread::Builder::new()
        .name(format!("nf-worker-{index}"))
        .spawn(move || {
            // Built on the worker's own thread, like everything the NF
            // allocates later.
            let worker = Worker {
                index,
                harness: EventedNf::new(nf),
                up,
                peers: Peers {
                    links: vec![None; peers.len()],
                    inboxes: peers,
                    shim,
                    dials: tel.counter("rt.p2p.dials"),
                },
                p2p: P2pIn::default(),
                floor: 0,
                applied: HashSet::new(),
                ev_buf: FrameBuf::new(),
                counters: WorkerCounters::resolve(&tel, index),
                tel,
            };
            worker.run(rx)
        })
        .expect("spawn worker");
    WorkerHandle { index, tx, join: Some(join) }
}

/// Counter handles a worker resolves once at startup so the hot loop never
/// touches the registry (one relaxed `fetch_add` per count).
struct WorkerCounters {
    frames_encoded: Arc<AtomicU64>,
    frames_decoded: Arc<AtomicU64>,
    p2p_batches: Arc<AtomicU64>,
    fenced_dropped: Arc<AtomicU64>,
    /// Applied ids the fence holds (absent when telemetry is disabled).
    fence_window: Option<Arc<AtomicU64>>,
}

impl WorkerCounters {
    fn resolve(tel: &Telemetry, index: usize) -> Self {
        WorkerCounters {
            frames_encoded: tel.counter("rt.frames.encoded"),
            frames_decoded: tel.counter("rt.frames.decoded"),
            p2p_batches: tel.counter("rt.p2p.batches"),
            fenced_dropped: tel.counter("rt.fenced.dropped"),
            fence_window: tel
                .enabled()
                .then(|| tel.registry().gauge(&format!("rt.fence.window.w{index}"))),
        }
    }
}

/// A worker's direct links to its peers, each dialed on first use.
struct Peers {
    /// Every worker's inbox, by index; none for a worker spawned outside a
    /// controller.
    inboxes: Vec<Sender<String>>,
    /// The fault shim every dialed link runs through, if a plan is armed
    /// on this worker.
    shim: Option<(Arc<RtFaults>, Sender<PumpJob>)>,
    links: Vec<Option<FaultyChannel>>,
    /// The shared `rt.p2p.dials` counter.
    dials: Arc<AtomicU64>,
}

impl Peers {
    /// The link from worker `src` (this one) to `peer`, dialing it on
    /// first use.
    fn link(&mut self, src: usize, peer: usize) -> Result<&FaultyChannel, String> {
        let Some(inbox) = self.inboxes.get(peer) else {
            return Err(format!("no peer link to worker {peer}"));
        };
        Ok(self.links[peer].get_or_insert_with(|| {
            self.dials.fetch_add(1, Ordering::Relaxed);
            let (src, dst) = (worker_node(src), worker_node(peer));
            FaultyChannel::new(inbox.clone(), src, dst, self.shim.clone())
        }))
    }
}

/// Stringifies a panic payload (`&str` and `String` payloads cover
/// `panic!`; anything else gets a generic description).
fn panic_reason(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "NF panicked with a non-string payload".to_string()
    }
}

/// The reply to a call that either completes or fails on the NF's state.
fn done(res: Result<(), StateError>) -> WireReply {
    match res {
        Ok(()) => WireReply::Done,
        Err(e) => WireReply::Error { message: e.to_string() },
    }
}

/// Cuts `chunks` into batches of at most `size` (at least one), in order,
/// as `(seq, last, batch)`. The final batch carries `last` and comes even
/// when there is nothing to ship, so a stream always terminates.
fn batches(chunks: Vec<Chunk>, size: usize) -> impl Iterator<Item = (u64, bool, Vec<Chunk>)> {
    let size = size.max(1);
    let count = chunks.len().div_ceil(size).max(1);
    let mut chunks = chunks.into_iter();
    (0..count).map(move |seq| (seq as u64, seq + 1 == count, chunks.by_ref().take(size).collect()))
}

/// Destination-side bookkeeping of a P2P bulk transfer: the current
/// round's imports (what `TransferDone` reports).
#[derive(Default)]
struct P2pIn {
    /// The round `imported`/`seen` belong to. Correlation ids only grow,
    /// so a larger one starts a new round with nothing imported — what an
    /// earlier round, or an earlier op, landed here confirms nothing for
    /// it — and a smaller one is a leftover of a round that has ended or
    /// was aborted (an abort moves `round` past the rounds it tombstones).
    round: u64,
    imported: Vec<FlowId>,
    seen: HashSet<FlowId>,
}

impl P2pIn {
    /// Moves on to round `id` (no-op for a round already passed): batches
    /// of earlier rounds are discarded from here on.
    fn advance_to(&mut self, id: u64) {
        if id > self.round {
            *self = P2pIn { round: id, ..P2pIn::default() };
        }
    }
}

/// One worker thread's state.
struct Worker {
    index: usize,
    harness: EventedNf,
    /// The worker → controller link.
    up: FaultyChannel,
    peers: Peers,
    p2p: P2pIn,
    /// The request fence: the highest floor seen and the ids at or above
    /// it already applied.
    floor: u64,
    applied: HashSet<u64>,
    /// Reused assembler for event frames.
    ev_buf: FrameBuf,
    counters: WorkerCounters,
    tel: Telemetry,
}

impl Worker {
    /// Serves the inbox until shutdown or an NF panic, and hands the
    /// harness back either way.
    fn run(mut self, rx: Receiver<String>) -> EventedNf {
        'recv: while let Ok(raw) = rx.recv() {
            // A payload may frame several messages (batched packets/chunks);
            // process them in frame order.
            let msgs = match decode_frame(&raw) {
                Ok(m) => {
                    self.counters.frames_decoded.fetch_add(1, Ordering::Relaxed);
                    m
                }
                Err(e) => {
                    let _ = self.up.send(&WireMsg::Response {
                        id: 0,
                        reply: WireReply::Error { message: e.to_string() },
                    });
                    continue;
                }
            };
            // Span link: if the frame carries a request stamped with the
            // sending controller span's id, open a decode span under that
            // parent — the cross-boundary tie the trace viewer follows from a
            // controller phase into the worker that served it. Packet frames
            // carry no link, so the hot path never pays for this.
            let tel = &self.tel;
            let frame_span = msgs
                .iter()
                .find_map(|m| match m {
                    WireMsg::Request { span, .. } => *span,
                    _ => None,
                })
                .filter(|_| tel.enabled())
                .map(|link| {
                    tel.begin_linked_arg(link, "rt.frame.decode", Some(format!("link={link}")))
                });
            for msg in msgs {
                if let WireMsg::Request { id, floor, .. } = msg {
                    if floor > self.floor {
                        self.floor = floor;
                        self.applied.retain(|&a| a >= floor);
                    }
                    if id < self.floor || !self.applied.insert(id) {
                        self.counters.fenced_dropped.fetch_add(1, Ordering::Relaxed);
                        // Point event for the happens-before oracle: a
                        // request carries no op id, so the analyzer
                        // attributes by time window.
                        let arg = format!("worker={} id={id} floor={}", self.index, self.floor);
                        self.tel.event("fence.dup", Some(arg));
                        continue;
                    }
                    if let Some(g) = &self.counters.fence_window {
                        g.store(self.applied.len() as u64, Ordering::Relaxed);
                    }
                }
                match catch_unwind(AssertUnwindSafe(|| self.serve(msg))) {
                    Ok(true) => {}
                    Ok(false) => break 'recv,
                    Err(payload) => {
                        let ev = WireEvent::NfFailed { reason: panic_reason(payload) };
                        let _ = self.up.send(&WireMsg::Event { worker: self.index, ev });
                        break 'recv;
                    }
                }
            }
            if let Some(sp) = frame_span {
                self.tel.end(sp);
            }
        }
        self.harness
    }

    /// Serves one message that passed the fence, answering the controller
    /// where the protocol says to; `false` once it was the shutdown. Runs
    /// under the loop's one panic guard.
    fn serve(&mut self, msg: WireMsg) -> bool {
        let (id, reply) = match msg {
            WireMsg::Shutdown => return false,
            WireMsg::Packet { packet } => {
                let (_outcome, events) = self.harness.handle_packet(&packet);
                self.send_events(events);
                return true;
            }
            WireMsg::Request { id, call, .. } => {
                let nf = self.harness.nf_mut();
                let reply = match call {
                    WireCall::GetPerflow { filter } => {
                        WireReply::Chunks { chunks: nf.get_perflow(&filter) }
                    }
                    WireCall::PutPerflow { chunks } => done(nf.put_perflow(chunks)),
                    WireCall::DelPerflow { flow_ids } => {
                        nf.del_perflow(&flow_ids);
                        WireReply::Done
                    }
                    WireCall::GetMultiflow { filter } => {
                        WireReply::Chunks { chunks: nf.get_multiflow(&filter) }
                    }
                    WireCall::PutMultiflow { chunks } => done(nf.put_multiflow(chunks)),
                    WireCall::GetAllflows => WireReply::Chunks { chunks: nf.get_allflows() },
                    WireCall::PutAllflows { chunks } => done(nf.put_allflows(chunks)),
                    WireCall::EnableEvents { filter, action } => {
                        self.harness.enable_events(filter, action.into());
                        WireReply::Done
                    }
                    WireCall::DisableEvents { filter } => {
                        self.harness.disable_events(&filter);
                        WireReply::Done
                    }
                    // Streams the export as `ChunkBatch` responses, all
                    // under the request's correlation id.
                    WireCall::GetPerflowChunked { filter, batch } => {
                        for (seq, last, chunks) in batches(nf.get_perflow(&filter), batch) {
                            let reply = WireReply::ChunkBatch { seq, last, chunks };
                            let _ = self.up.send(&WireMsg::Response { id, reply });
                        }
                        return true;
                    }
                    WireCall::TransferPerflow { filter, peer, only } => {
                        self.transfer(id, &filter, peer, &only)
                    }
                    WireCall::AbortTransfer { flow_ids, through_id } => {
                        // Tombstone: a batch of these rounds still in
                        // flight must not resurrect the deleted state.
                        self.p2p.advance_to(through_id.saturating_add(1));
                        nf.del_perflow(&flow_ids);
                        WireReply::Done
                    }
                };
                (id, reply)
            }
            WireMsg::P2pChunks { id, seq, last, chunks } => {
                if id < self.p2p.round {
                    // Straggler from an aborted round (the state it
                    // carries was already rolled back at the source) or
                    // from a round that has ended: what it carries was
                    // either confirmed already or is re-shipped by the
                    // round that superseded it.
                    return true;
                }
                self.p2p.advance_to(id);
                let ids: Vec<FlowId> = chunks.iter().map(|c| c.flow_id).collect();
                let reply = match self.harness.nf_mut().put_perflow(chunks) {
                    Err(e) => WireReply::Error { message: e.to_string() },
                    Ok(()) => {
                        for f in &ids {
                            if self.p2p.seen.insert(*f) {
                                self.p2p.imported.push(*f);
                            }
                        }
                        if last {
                            WireReply::TransferDone { imported: self.p2p.imported.clone() }
                        } else {
                            // Batch-granular progress ack: even if the
                            // round's final TransferDone is lost, the
                            // controller knows these flows landed and a
                            // retry re-requests only the rest.
                            WireReply::TransferProgress { seq, flow_ids: ids }
                        }
                    }
                };
                (id, reply)
            }
            // Workers never receive responses or events.
            WireMsg::Response { .. } | WireMsg::Event { .. } => return true,
        };
        let _ = self.up.send(&WireMsg::Response { id, reply });
        true
    }

    /// Ships every event one packet raised as a single coalesced frame (one
    /// channel send, one fault verdict), through the reused assembler.
    fn send_events(&mut self, events: Vec<NfEvent>) {
        for ev in events {
            let ev = match ev {
                NfEvent::Received(packet) => WireEvent::PacketReceived { packet },
                NfEvent::Processed(packet) => WireEvent::PacketProcessed { packet },
            };
            self.ev_buf.push(&WireMsg::Event { worker: self.index, ev });
        }
        if let Some(frame) = self.ev_buf.finish() {
            self.counters.frames_encoded.fetch_add(1, Ordering::Relaxed);
            let _ = self.up.send_json(frame);
        }
    }

    /// Source side of a P2P transfer: export the matching per-flow state
    /// and stream it to `peer` in chunk batches, then summarize for the
    /// controller. The state is NOT deleted here — copy-then-delete means
    /// the controller sends `DelPerflow` only after the destination
    /// confirmed every flow.
    fn transfer(&mut self, id: u64, filter: &Filter, peer: usize, only: &[FlowId]) -> WireReply {
        let link = match self.peers.link(self.index, peer) {
            Ok(link) => link,
            Err(message) => return WireReply::Error { message },
        };
        let mut chunks = self.harness.nf_mut().get_perflow(filter);
        if !only.is_empty() {
            let keep: HashSet<FlowId> = only.iter().copied().collect();
            chunks.retain(|c| keep.contains(&c.flow_id));
        }
        let mut flow_ids = Vec::new();
        let mut listed = HashSet::new();
        let mut bytes = 0u64;
        for c in &chunks {
            bytes += c.len() as u64;
            if listed.insert(c.flow_id) {
                flow_ids.push(c.flow_id);
            }
        }
        // The final batch goes out even when there is nothing to ship, so
        // the destination always acks. A dead peer is not the source's
        // problem: the controller sees the missing TransferDone and
        // retries or aborts.
        for (seq, last, chunks) in batches(chunks, P2P_BATCH_CHUNKS) {
            self.counters.p2p_batches.fetch_add(1, Ordering::Relaxed);
            let _ = link.send(&WireMsg::P2pChunks { id, seq, last, chunks });
        }
        WireReply::TransferExported { flow_ids, bytes }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::{PanicAt, PanicNf};
    use opennf_nfs::AssetMonitor;
    use opennf_packet::{FlowKey, Packet, TcpFlags};

    fn pkt(uid: u64) -> Packet {
        Packet::builder(
            uid,
            FlowKey::tcp("10.0.0.1".parse().unwrap(), 4000, "1.1.1.1".parse().unwrap(), 80),
        )
        .flags(TcpFlags::SYN)
        .build()
    }

    #[test]
    fn worker_processes_and_exports() {
        let (to_ctrl, from_workers) = unbounded();
        let w = spawn_worker(0, Box::new(AssetMonitor::new()), to_ctrl);
        w.send(&WireMsg::Packet { packet: pkt(1) }).unwrap();
        w.send(&WireMsg::Request {
            id: 5,
            floor: 5,
            call: WireCall::GetPerflow { filter: Filter::any() },
            span: None,
        })
        .unwrap();
        let resp = WireMsg::from_json(&from_workers.recv().unwrap()).unwrap();
        match resp {
            WireMsg::Response { id: 5, reply: WireReply::Chunks { chunks } } => {
                assert_eq!(chunks.len(), 1);
            }
            other => panic!("unexpected {other:?}"),
        }
        let harness = w.shutdown();
        assert_eq!(harness.processed_log(), &[1]);
    }

    #[test]
    fn worker_raises_events_for_drop_filter() {
        let (to_ctrl, from_workers) = unbounded();
        let w = spawn_worker(3, Box::new(AssetMonitor::new()), to_ctrl);
        w.send(&WireMsg::Request {
            id: 1,
            floor: 1,
            call: WireCall::EnableEvents {
                filter: Filter::any(),
                action: crate::wire::WireAction::Drop,
            },
            span: None,
        })
        .unwrap();
        let _ack = from_workers.recv().unwrap();
        w.send(&WireMsg::Packet { packet: pkt(9) }).unwrap();
        // The event pump frames its sends, so decode with the
        // framing-aware path rather than the bare single-message parser.
        let ev = crate::wire::decode_frame(&from_workers.recv().unwrap()).unwrap().remove(0);
        match ev {
            WireMsg::Event { worker: 3, ev: WireEvent::PacketReceived { packet } } => {
                assert_eq!(packet.uid, 9)
            }
            other => panic!("unexpected {other:?}"),
        }
        let harness = w.shutdown();
        assert_eq!(harness.drop_count(), 1);
    }

    #[test]
    fn requests_below_the_floor_or_already_applied_are_dropped() {
        let (to_ctrl, from_workers) = unbounded();
        let w = spawn_worker(0, Box::new(AssetMonitor::new()), to_ctrl);
        let get = |id: u64, floor: u64| WireMsg::Request {
            id,
            floor,
            call: WireCall::GetPerflow { filter: Filter::any() },
            span: None,
        };
        w.send(&get(4, 1)).unwrap();
        // Exact duplicate: already applied.
        w.send(&get(4, 1)).unwrap();
        // Raises the floor to 6 (and forgets id 4).
        w.send(&get(6, 6)).unwrap();
        // Below the floor: its op has ended.
        w.send(&get(5, 1)).unwrap();
        w.send(&get(7, 6)).unwrap();
        // Only 4, 6 and 7 answer, in order — the duplicate and the
        // below-floor request were dropped between them.
        for want in [4, 6, 7] {
            match WireMsg::from_json(&from_workers.recv().unwrap()).unwrap() {
                WireMsg::Response { id, .. } => assert_eq!(id, want),
                other => panic!("unexpected {other:?}"),
            }
        }
        w.shutdown();
        assert!(from_workers.try_recv().is_err(), "no reply to a dropped request");
    }

    #[test]
    fn malformed_json_yields_error_response() {
        let (to_ctrl, from_workers) = unbounded();
        let w = spawn_worker(0, Box::new(AssetMonitor::new()), to_ctrl);
        w.tx.send("garbage".to_string()).unwrap();
        let resp = WireMsg::from_json(&from_workers.recv().unwrap()).unwrap();
        assert!(matches!(resp, WireMsg::Response { reply: WireReply::Error { .. }, .. }));
        w.shutdown();
    }

    /// Every message a worker serves runs under the one panic guard: an NF
    /// panicking in any call is reported exactly once, answers nothing,
    /// and the worker still hands its harness back.
    #[test]
    fn panicking_nf_reports_failure_and_hands_back_state() {
        let request = |call| WireMsg::Request { id: 1, floor: 1, call, span: None };
        let transfer = WireCall::TransferPerflow { filter: Filter::any(), peer: 0, only: vec![] };
        let rows = [
            ("packet", PanicAt::Packet(5), WireMsg::Packet { packet: pkt(5) }),
            ("PutPerflow", PanicAt::PutPerflow, request(WireCall::PutPerflow { chunks: vec![] })),
            (
                "GetPerflowChunked",
                PanicAt::GetPerflow,
                request(WireCall::GetPerflowChunked { filter: Filter::any(), batch: 64 }),
            ),
            ("TransferPerflow", PanicAt::GetPerflow, request(transfer)),
            (
                "P2pChunks",
                PanicAt::PutPerflow,
                WireMsg::P2pChunks { id: 1, seq: 0, last: true, chunks: vec![] },
            ),
            (
                "AbortTransfer",
                PanicAt::DelPerflow,
                request(WireCall::AbortTransfer { flow_ids: vec![], through_id: 1 }),
            ),
        ];
        for (row, at, msg) in rows {
            let (to_ctrl, from_workers) = unbounded();
            // One peer inbox, so a transfer gets as far as its export.
            let (peer, _peer_rx) = unbounded();
            let nf = Box::new(PanicNf::new(at));
            let tel = Telemetry::disabled();
            let w = spawn_worker_full(2, nf, unbounded(), to_ctrl, vec![peer], None, tel);
            w.send(&WireMsg::Packet { packet: pkt(1) }).unwrap();
            w.send(&msg).unwrap();
            // Bounded, so a worker that dies silently fails the row
            // instead of hanging it.
            let first = from_workers.recv_timeout(std::time::Duration::from_secs(5));
            match first.map(|raw| WireMsg::from_json(&raw)) {
                Ok(Ok(WireMsg::Event { worker: 2, ev: WireEvent::NfFailed { reason } })) => {
                    assert!(reason.contains("injected NF bug"), "{row}: reason: {reason}");
                }
                other => panic!("{row}: expected NfFailed, got {other:?}"),
            }
            // The dead worker's harness is still recoverable (it processed
            // everything before the faulting message).
            let harness = w.shutdown();
            assert_eq!(harness.processed_log(), &[1], "{row}");
            assert!(from_workers.try_recv().is_err(), "{row}: one report and no response");
        }
    }

    #[test]
    fn batches_end_with_one_last_batch_even_when_empty() {
        let chunk = |i: u8| Chunk {
            flow_id: FlowId::default(),
            scope: opennf_nf::Scope::PerFlow,
            kind: String::new(),
            data: vec![i],
        };
        let shape = |n: u8, size| -> Vec<(u64, bool, Vec<u8>)> {
            batches((0..n).map(chunk).collect(), size)
                .map(|(seq, last, b)| (seq, last, b.iter().map(|c| c.data[0]).collect()))
                .collect()
        };
        assert_eq!(shape(0, 64), [(0, true, vec![])]);
        assert_eq!(shape(3, 0), [(0, false, vec![0]), (1, false, vec![1]), (2, true, vec![2])]);
        assert_eq!(
            shape(5, 2),
            [(0, false, vec![0, 1]), (1, false, vec![2, 3]), (2, true, vec![4])]
        );
        assert_eq!(shape(4, 2), [(0, false, vec![0, 1]), (1, true, vec![2, 3])]);
    }

    #[test]
    fn send_to_dead_worker_is_a_typed_error() {
        let (to_ctrl, _from_workers) = unbounded();
        let w = spawn_worker(1, Box::new(AssetMonitor::new()), to_ctrl);
        w.send(&WireMsg::Shutdown).unwrap();
        // The channel stays writable until the thread drops its receiver;
        // poll until the death is observable.
        let mut err = None;
        for _ in 0..2_000 {
            if let Err(e) = w.send(&WireMsg::Packet { packet: pkt(1) }) {
                err = Some(e);
                break;
            }
            std::thread::sleep(std::time::Duration::from_millis(1));
        }
        assert_eq!(err, Some(RtError::WorkerGone { worker: 1 }));
        w.shutdown();
    }
}
