//! NF worker threads: each wraps an [`EventedNf`] and speaks the JSON wire
//! protocol over crossbeam channels.
//!
//! Workers are failure-contained: a panic inside the NF is caught per
//! message, reported to the controller as [`WireEvent::NfFailed`], and the
//! thread exits cleanly — it never unwinds across the channel and never
//! leaves the controller blocked on a reply that will not come.
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
use std::sync::{Arc, OnceLock};
use std::thread::JoinHandle;

use crossbeam::channel::{unbounded, Receiver, Sender};
use opennf_nf::{Chunk, EventedNf, NetworkFunction, NfEvent};
use opennf_packet::{Filter, FlowId};
use opennf_telemetry::Telemetry;

use crate::error::RtError;
use crate::faults::{worker_node, FaultyChannel, PumpJob, RtFaults};
use crate::wire::{decode_frame, FrameBuf, WireCall, WireEvent, WireMsg, WireReply};

/// Chunks per direct worker → worker frame in a P2P bulk transfer.
const P2P_BATCH_CHUNKS: usize = 64;

/// The ingredients for dialing a direct worker → worker link, installed by
/// the controller once every worker inbox exists.
struct MeshWiring {
    /// The worker this mesh belongs to (fault plans address links by
    /// source node).
    src: usize,
    /// Every worker's inbox, by index (including our own — self-transfers
    /// are rejected upstream).
    peer_txs: Vec<Sender<String>>,
    /// Fault shim to thread each dialed link through, if a plan is armed.
    faults: Option<(Arc<RtFaults>, Sender<PumpJob>)>,
}

/// Lazily dialed direct worker → worker links for P2P bulk transfer.
///
/// The controller installs the wiring (inboxes + fault shim) after
/// spawning every worker, but no link exists until a transfer actually
/// targets that peer: the first use dials it (constructing the possibly
/// shimmed channel) and every dial is counted, so an O(n²) mesh is never
/// materialized for workloads that move state between a handful of peers.
pub struct PeerMesh {
    wiring: OnceLock<MeshWiring>,
    links: Vec<OnceLock<FaultyChannel>>,
    dials: Arc<AtomicU64>,
}

impl PeerMesh {
    /// A mesh over `n` workers whose dials increment `dials` (the shared
    /// `rt.p2p.dials` telemetry counter).
    pub fn new(n: usize, dials: Arc<AtomicU64>) -> Arc<Self> {
        Arc::new(PeerMesh {
            wiring: OnceLock::new(),
            links: (0..n).map(|_| OnceLock::new()).collect(),
            dials,
        })
    }

    /// A mesh that was never wired: every transfer request fails (workers
    /// spawned outside a controller have no peers).
    pub fn unwired() -> Arc<Self> {
        Self::new(0, Arc::new(AtomicU64::new(0)))
    }

    /// Installs the dialing ingredients. Called once by the controller
    /// after all workers are spawned; later calls are ignored.
    pub fn wire(
        &self,
        src: usize,
        peer_txs: Vec<Sender<String>>,
        faults: Option<(Arc<RtFaults>, Sender<PumpJob>)>,
    ) {
        let _ = self.wiring.set(MeshWiring { src, peer_txs, faults });
    }

    /// The link to `peer`, dialing it on first use.
    fn link(&self, peer: usize) -> Result<&FaultyChannel, String> {
        let Some(w) = self.wiring.get() else {
            return Err("peer links not wired (no P2P mesh)".into());
        };
        let Some(cell) = self.links.get(peer) else {
            return Err(format!("no peer link to worker {peer}"));
        };
        Ok(cell.get_or_init(|| {
            self.dials.fetch_add(1, Ordering::Relaxed);
            match &w.faults {
                Some((f, pump)) => FaultyChannel::shimmed(
                    w.peer_txs[peer].clone(),
                    worker_node(w.src),
                    worker_node(peer),
                    f.clone(),
                    pump.clone(),
                ),
                None => FaultyChannel::passthrough(w.peer_txs[peer].clone()),
            }
        }))
    }

    /// How many peer links this mesh has dialed so far.
    pub fn dials(&self) -> u64 {
        self.dials.load(Ordering::Relaxed)
    }
}

/// Shared handle to a worker's peer mesh.
pub type PeerLinks = Arc<PeerMesh>;

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
/// unshimmed. No peer links: P2P transfer requests fail.
pub fn spawn_worker(
    index: usize,
    nf: Box<dyn NetworkFunction>,
    to_ctrl: Sender<String>,
) -> WorkerHandle {
    let up = FaultyChannel::passthrough(to_ctrl);
    spawn_worker_full(index, nf, up, PeerMesh::unwired(), Telemetry::disabled())
}

/// Spawns a worker with a (late-bound) peer mesh for P2P bulk transfer and
/// a telemetry handle for its hot-path counters.
pub(crate) fn spawn_worker_full(
    index: usize,
    nf: Box<dyn NetworkFunction>,
    to_ctrl: FaultyChannel,
    peers: PeerLinks,
    tel: Telemetry,
) -> WorkerHandle {
    let (tx, rx): (Sender<String>, Receiver<String>) = unbounded();
    let join = std::thread::Builder::new()
        .name(format!("nf-worker-{index}"))
        .spawn(move || worker_loop(index, nf, rx, to_ctrl, peers, tel))
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

/// Ships every event one packet raised as a single coalesced frame (one
/// channel send, one fault verdict), through the reused assembler.
fn send_events(
    index: usize,
    to_ctrl: &FaultyChannel,
    buf: &mut FrameBuf,
    events: Vec<NfEvent>,
    frames_encoded: &AtomicU64,
) {
    for ev in events {
        let wire = match ev {
            NfEvent::Received(packet) => WireEvent::PacketReceived { packet },
            NfEvent::Processed(packet) => WireEvent::PacketProcessed { packet },
        };
        buf.push(&WireMsg::Event { worker: index, ev: wire });
    }
    if let Some(frame) = buf.finish() {
        frames_encoded.fetch_add(1, Ordering::Relaxed);
        let _ = to_ctrl.send_json(frame);
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

/// Source side of a P2P transfer: export the matching per-flow state and
/// stream it to the peer in chunk batches, then summarize for the
/// controller. The state is NOT deleted here — copy-then-delete means the
/// controller sends `DelPerflow` only after the destination confirmed
/// every flow.
fn do_transfer(
    harness: &mut EventedNf,
    peers: &PeerLinks,
    id: u64,
    filter: &Filter,
    peer: usize,
    only: &[FlowId],
    p2p_batches: &AtomicU64,
) -> WireReply {
    let link = match peers.link(peer) {
        Ok(link) => link,
        Err(message) => return WireReply::Error { message },
    };
    let mut chunks = harness.nf_mut().get_perflow(filter);
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
    // Ship in bounded batches; the final one carries `last` (and goes out
    // even when there is nothing to ship, so the destination always acks).
    let mut seq = 0u64;
    let mut remaining = chunks;
    loop {
        let rest = if remaining.len() > P2P_BATCH_CHUNKS {
            remaining.split_off(P2P_BATCH_CHUNKS)
        } else {
            Vec::new()
        };
        let last = rest.is_empty();
        // A dead peer is not the source's problem: the controller sees the
        // missing TransferDone and retries or aborts.
        p2p_batches.fetch_add(1, Ordering::Relaxed);
        let _ = link.send(&WireMsg::P2pChunks { id, seq, last, chunks: remaining });
        seq += 1;
        if last {
            break;
        }
        remaining = rest;
    }
    WireReply::TransferExported { flow_ids, bytes }
}

fn worker_loop(
    index: usize,
    nf: Box<dyn NetworkFunction>,
    rx: Receiver<String>,
    to_ctrl: FaultyChannel,
    peers: PeerLinks,
    tel: Telemetry,
) -> EventedNf {
    let mut harness = EventedNf::new(nf);
    let mut ev_buf = FrameBuf::new();
    let mut p2p = P2pIn::default();
    let counters = WorkerCounters::resolve(&tel, index);
    // The request fence: the highest floor seen and the ids at or above
    // it already applied.
    let mut floor = 0u64;
    let mut applied: HashSet<u64> = HashSet::new();
    'recv: while let Ok(raw) = rx.recv() {
        // A payload may frame several messages (batched packets/chunks);
        // process them in frame order.
        let msgs = match decode_frame(&raw) {
            Ok(m) => {
                counters.frames_decoded.fetch_add(1, Ordering::Relaxed);
                m
            }
            Err(e) => {
                let _ = to_ctrl.send(&WireMsg::Response {
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
            if let WireMsg::Request { id, floor: f, .. } = msg {
                if f > floor {
                    floor = f;
                    applied.retain(|&a| a >= floor);
                }
                if id < floor || !applied.insert(id) {
                    counters.fenced_dropped.fetch_add(1, Ordering::Relaxed);
                    // Point event for the happens-before oracle: a request
                    // carries no op id, so the analyzer attributes by time
                    // window.
                    tel.event("fence.dup", Some(format!("worker={index} id={id} floor={floor}")));
                    continue;
                }
                if let Some(g) = &counters.fence_window {
                    g.store(applied.len() as u64, Ordering::Relaxed);
                }
            }
            match msg {
                WireMsg::Shutdown => break 'recv,
                WireMsg::Packet { packet } => {
                    match catch_unwind(AssertUnwindSafe(|| harness.handle_packet(&packet))) {
                        Ok((_outcome, events)) => send_events(
                            index,
                            &to_ctrl,
                            &mut ev_buf,
                            events,
                            &counters.frames_encoded,
                        ),
                        Err(payload) => {
                            let reason = panic_reason(payload);
                            let _ = to_ctrl
                                .send(&WireMsg::Event { worker: index, ev: WireEvent::NfFailed { reason } });
                            break 'recv;
                        }
                    }
                }
                WireMsg::Request {
                    id,
                    call: WireCall::GetPerflowChunked { filter, batch },
                    ..
                } => {
                    match catch_unwind(AssertUnwindSafe(|| harness.nf_mut().get_perflow(&filter)))
                    {
                        Ok(chunks) => {
                            stream_chunks(index, &to_ctrl, id, chunks, batch);
                        }
                        Err(payload) => {
                            let reason = panic_reason(payload);
                            let _ = to_ctrl
                                .send(&WireMsg::Event { worker: index, ev: WireEvent::NfFailed { reason } });
                            break 'recv;
                        }
                    }
                }
                WireMsg::Request {
                    id, call: WireCall::TransferPerflow { filter, peer, only }, ..
                } => {
                    let reply = match catch_unwind(AssertUnwindSafe(|| {
                        do_transfer(&mut harness, &peers, id, &filter, peer, &only, &counters.p2p_batches)
                    })) {
                        Ok(reply) => reply,
                        Err(payload) => {
                            let reason = panic_reason(payload);
                            let _ = to_ctrl
                                .send(&WireMsg::Event { worker: index, ev: WireEvent::NfFailed { reason } });
                            break 'recv;
                        }
                    };
                    let _ = to_ctrl.send(&WireMsg::Response { id, reply });
                }
                WireMsg::Request {
                    id, call: WireCall::AbortTransfer { flow_ids, through_id }, ..
                } => {
                    // Tombstone: a batch of these rounds still in flight
                    // must not resurrect the deleted state.
                    p2p.advance_to(through_id.saturating_add(1));
                    harness.nf_mut().del_perflow(&flow_ids);
                    let _ = to_ctrl.send(&WireMsg::Response { id, reply: WireReply::Done });
                }
                WireMsg::Request { id, call, .. } => {
                    match catch_unwind(AssertUnwindSafe(|| handle_call(&mut harness, call))) {
                        Ok(reply) => {
                            let _ = to_ctrl.send(&WireMsg::Response { id, reply });
                        }
                        Err(payload) => {
                            let reason = panic_reason(payload);
                            let _ = to_ctrl
                                .send(&WireMsg::Event { worker: index, ev: WireEvent::NfFailed { reason } });
                            break 'recv;
                        }
                    }
                }
                WireMsg::P2pChunks { id, seq, last, chunks } => {
                    if id < p2p.round {
                        // Straggler from an aborted round (the state it
                        // carries was already rolled back at the source)
                        // or from a round that has ended: what it carries
                        // was either confirmed already or is re-shipped by
                        // the round that superseded it.
                        continue;
                    }
                    p2p.advance_to(id);
                    let ids: Vec<FlowId> = chunks.iter().map(|c| c.flow_id).collect();
                    match harness.nf_mut().put_perflow(chunks) {
                        Ok(()) => {
                            for f in &ids {
                                if p2p.seen.insert(*f) {
                                    p2p.imported.push(*f);
                                }
                            }
                            if last {
                                let _ = to_ctrl.send(&WireMsg::Response {
                                    id,
                                    reply: WireReply::TransferDone {
                                        imported: p2p.imported.clone(),
                                    },
                                });
                            } else {
                                // Batch-granular progress ack: even if the
                                // round's final TransferDone is lost, the
                                // controller knows these flows landed and a
                                // retry re-requests only the rest.
                                let _ = to_ctrl.send(&WireMsg::Response {
                                    id,
                                    reply: WireReply::TransferProgress { seq, flow_ids: ids },
                                });
                            }
                        }
                        Err(e) => {
                            let _ = to_ctrl.send(&WireMsg::Response {
                                id,
                                reply: WireReply::Error { message: e.to_string() },
                            });
                        }
                    }
                }
                // Workers never receive responses or events.
                WireMsg::Response { .. } | WireMsg::Event { .. } => {}
            }
        }
        if let Some(sp) = frame_span {
            tel.end(sp);
        }
    }
    harness
}

/// Streams an export as [`WireReply::ChunkBatch`] responses of at most
/// `batch` chunks, all under one correlation id; the final batch carries
/// `last` and goes out even when empty, so the stream always terminates.
fn stream_chunks(
    _index: usize,
    to_ctrl: &FaultyChannel,
    id: u64,
    chunks: Vec<Chunk>,
    batch: usize,
) {
    let batch = batch.max(1);
    let mut seq = 0u64;
    let mut remaining = chunks;
    loop {
        let rest =
            if remaining.len() > batch { remaining.split_off(batch) } else { Vec::new() };
        let last = rest.is_empty();
        let _ = to_ctrl.send(&WireMsg::Response {
            id,
            reply: WireReply::ChunkBatch { seq, last, chunks: remaining },
        });
        seq += 1;
        if last {
            break;
        }
        remaining = rest;
    }
}

fn handle_call(harness: &mut EventedNf, call: WireCall) -> WireReply {
    match call {
        WireCall::GetPerflow { filter } => {
            WireReply::Chunks { chunks: harness.nf_mut().get_perflow(&filter) }
        }
        WireCall::PutPerflow { chunks } => match harness.nf_mut().put_perflow(chunks) {
            Ok(()) => WireReply::Done,
            Err(e) => WireReply::Error { message: e.to_string() },
        },
        WireCall::DelPerflow { flow_ids } => {
            harness.nf_mut().del_perflow(&flow_ids);
            WireReply::Done
        }
        WireCall::GetMultiflow { filter } => {
            WireReply::Chunks { chunks: harness.nf_mut().get_multiflow(&filter) }
        }
        WireCall::PutMultiflow { chunks } => match harness.nf_mut().put_multiflow(chunks) {
            Ok(()) => WireReply::Done,
            Err(e) => WireReply::Error { message: e.to_string() },
        },
        WireCall::GetAllflows => WireReply::Chunks { chunks: harness.nf_mut().get_allflows() },
        WireCall::PutAllflows { chunks } => match harness.nf_mut().put_allflows(chunks) {
            Ok(()) => WireReply::Done,
            Err(e) => WireReply::Error { message: e.to_string() },
        },
        WireCall::EnableEvents { filter, action } => {
            harness.enable_events(filter, action.into());
            WireReply::Done
        }
        WireCall::DisableEvents { filter } => {
            harness.disable_events(&filter);
            WireReply::Done
        }
        // Intercepted in `worker_loop` (they need the peer links, the
        // per-transfer bookkeeping, or the streaming reply channel).
        WireCall::TransferPerflow { .. }
        | WireCall::AbortTransfer { .. }
        | WireCall::GetPerflowChunked { .. } => {
            WireReply::Error { message: "streaming calls are handled by the worker loop".into() }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::PanicNf;
    use opennf_nfs::AssetMonitor;
    use opennf_packet::{Filter, FlowKey, Packet, TcpFlags};

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

    #[test]
    fn panicking_nf_reports_failure_and_hands_back_state() {
        let (to_ctrl, from_workers) = unbounded();
        let w = spawn_worker(2, Box::new(PanicNf::new(5)), to_ctrl);
        w.send(&WireMsg::Packet { packet: pkt(1) }).unwrap();
        w.send(&WireMsg::Packet { packet: pkt(5) }).unwrap();
        // The panic is caught, reported, and the thread exits — no
        // unwinding across the channel.
        match WireMsg::from_json(&from_workers.recv().unwrap()).unwrap() {
            WireMsg::Event { worker: 2, ev: WireEvent::NfFailed { reason } } => {
                assert!(reason.contains("injected NF bug"), "reason: {reason}");
            }
            other => panic!("unexpected {other:?}"),
        }
        // The dead worker's harness is still recoverable (it processed
        // everything before the faulting packet).
        let harness = w.shutdown();
        assert_eq!(harness.processed_log(), &[1]);
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
