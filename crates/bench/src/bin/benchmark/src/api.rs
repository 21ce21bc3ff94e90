//! The one adapter between the benchmark and the repository's crates.
//!
//! Every call into an `opennf-*` crate is made in this file, through the
//! crates' *public* functions only. The list of `use` items below and the
//! functions that follow are therefore the exact surface the benchmark
//! pins: a PR that renames, merges or removes one of them needs a
//! follow-up in this file and nowhere else in the benchmark.

use std::sync::Arc;

use opennf_controller::{
    Command, JournalPhase, JournalRecord, MoveProps, OpId, OpJournal, OpReport, Scenario,
    ScenarioBuilder, ScopeSet,
};
use opennf_net::{Action, FlowTable, PortRef};
use opennf_nf::EventAction;
use opennf_nfs::AssetMonitor;
use opennf_rt::wire::{decode_frame, encode_frames};
use opennf_rt::{OpSpec, RtController, SchedPolicy, WireEvent};
use opennf_sim::Dur;

pub use opennf_nf::{Chunk, CostModel, EventedNf, LogRecord, NetworkFunction, NfFault, StateError};
pub use opennf_packet::{Filter, FlowId, FlowKey, Ipv4Prefix, Packet, TcpFlags};
pub use opennf_rt::wire::FrameBuf;
pub use opennf_rt::{MoveStats, Router, RtError, WireMsg};
pub use opennf_telemetry::Telemetry;
pub use opennf_util::SimRng;

// ---------------------------------------------------------------------
// Threaded runtime (opennf-rt): controller, engine, router, worker.
// ---------------------------------------------------------------------

/// What an op in a batch does.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OpKind {
    Move,
    Copy,
    Share,
}

/// One op of a `run_ops` batch.
#[derive(Debug, Clone, Copy)]
pub struct Op {
    pub kind: OpKind,
    pub src: usize,
    pub dst: usize,
    pub filter: Filter,
}

impl Op {
    pub fn mv(src: usize, dst: usize, filter: Filter) -> Op {
        Op {
            kind: OpKind::Move,
            src,
            dst,
            filter,
        }
    }

    fn spec(self) -> OpSpec {
        match self.kind {
            OpKind::Move => OpSpec::mv(self.src, self.dst, self.filter),
            OpKind::Copy => OpSpec::copy(self.src, self.dst, self.filter),
            OpKind::Share => OpSpec::share(self.src, self.dst, self.filter),
        }
    }
}

/// A sender of data-plane packets to one worker, usable from the
/// generator thread (what `RtController::worker_tx` hands out).
pub struct PacketTx(crossbeam::channel::Sender<String>);

impl PacketTx {
    /// Encodes and sends one packet; false when the worker is gone.
    pub fn send(&self, pkt: Packet) -> bool {
        self.send_encoded(encode_packet(pkt))
    }

    /// Sends a frame [`encode_packet`] made; false when the worker is gone.
    pub fn send_encoded(&self, frame: String) -> bool {
        self.0.send(frame).is_ok()
    }
}

/// One data-plane packet as the channel payload the runtime ships.
#[inline]
pub fn encode_packet(pkt: Packet) -> String {
    WireMsg::Packet { packet: pkt }.to_json()
}

/// The threaded runtime under test: `n` worker threads behind a router,
/// driven by the controller on the calling thread.
pub struct Rt {
    ctrl: RtController,
}

impl Rt {
    /// Spawns one worker per NF with the given telemetry handle
    /// (`Telemetry::disabled()` for every end-to-end measurement).
    pub fn new(nfs: Vec<Box<dyn NetworkFunction>>, tel: Telemetry) -> Rt {
        Rt {
            ctrl: RtController::new_with_telemetry(nfs, tel),
        }
    }

    pub fn packet_tx(&self, worker: usize) -> PacketTx {
        PacketTx(self.ctrl.worker_tx(worker))
    }

    /// Routes `pkt` through the router and sends it to the worker it names.
    pub fn inject(&self, pkt: Packet) -> Result<(), RtError> {
        self.ctrl.inject(pkt)
    }

    /// Returns once `worker` has drained everything queued before the call.
    pub fn quiesce(&mut self, worker: usize) -> Result<(), RtError> {
        self.ctrl.quiesce(worker)
    }

    /// One engine batch; results in spec order.
    pub fn run_ops(&mut self, ops: &[Op]) -> Vec<Result<MoveStats, RtError>> {
        self.ctrl.run_ops(ops.iter().map(|o| o.spec()).collect())
    }

    pub fn move_flows_p2p(
        &mut self,
        src: usize,
        dst: usize,
        filter: Filter,
    ) -> Result<MoveStats, RtError> {
        self.ctrl.move_flows_p2p(src, dst, filter)
    }

    /// Switches admission between FIFO (the default) and weighted-fair.
    pub fn set_weighted_fair(&mut self, on: bool) {
        self.ctrl.set_sched_policy(if on {
            SchedPolicy::WeightedFair
        } else {
            SchedPolicy::Fifo
        });
    }

    pub fn router(&self) -> Arc<Router> {
        self.ctrl.router.clone()
    }

    pub fn journal_len(&self) -> usize {
        self.ctrl.journal().len()
    }

    /// Serializes the journal at its current size; returns the text length.
    pub fn journal_to_json_len(&self) -> usize {
        self.ctrl.journal().to_json().len()
    }

    /// Packet uids the last op gave up on (must stay empty).
    pub fn abort_lost(&self) -> usize {
        self.ctrl.abort_lost().len()
    }

    /// Stops every worker, joins it and returns the harnesses in index order.
    pub fn shutdown(self) -> Vec<EventedNf> {
        self.ctrl.shutdown()
    }
}

pub fn router_new() -> Router {
    Router::new()
}

pub fn router_install(r: &Router, priority: u16, filter: Filter, worker: usize) {
    r.install(priority, filter, worker);
}

#[inline]
pub fn router_route(r: &Router, pkt: &Packet) -> Option<usize> {
    r.route(pkt)
}

pub fn router_len(r: &Router) -> usize {
    r.len()
}

// ---------------------------------------------------------------------
// NF side (opennf-nf, opennf-nfs, opennf-packet).
// ---------------------------------------------------------------------

pub fn monitor() -> AssetMonitor {
    AssetMonitor::new()
}

pub fn evented(nf: Box<dyn NetworkFunction>) -> EventedNf {
    EventedNf::new(nf)
}

/// Arms a drop-action event filter, as a move does at its source.
pub fn evented_arm(h: &mut EventedNf, filter: Filter) {
    h.enable_events(filter, EventAction::Drop);
}

/// Runs the NF packet loop once; returns how many events it raised.
#[inline]
pub fn evented_handle(h: &mut EventedNf, pkt: &Packet) -> usize {
    h.handle_packet(pkt).1.len()
}

pub fn processed_log(h: &EventedNf) -> &[u64] {
    h.processed_log()
}

/// Per-flow states an instance holds (`conn_count` through the trait, so
/// it also works behind the benchmark's stamping wrapper).
pub fn perflow_count(h: &EventedNf) -> usize {
    h.nf().list_perflow(&Filter::any()).len()
}

#[inline]
pub fn nf_process(nf: &mut impl NetworkFunction, pkt: &Packet) {
    nf.process_packet(pkt)
        .expect("the asset monitor never faults");
}

pub fn nf_get(nf: &mut impl NetworkFunction, filter: &Filter) -> Vec<Chunk> {
    nf.get_perflow(filter)
}

pub fn nf_put(nf: &mut impl NetworkFunction, chunks: Vec<Chunk>) {
    nf.put_perflow(chunks)
        .expect("the monitor imports its own chunks");
}

pub fn nf_del(nf: &mut impl NetworkFunction, flow_ids: &[FlowId]) {
    nf.del_perflow(flow_ids);
}

#[inline]
pub fn filter_matches(f: &Filter, pkt: &Packet) -> bool {
    f.matches_packet(pkt)
}

pub fn src_prefix_filter(a: u8, b: u8, len: u8) -> Filter {
    Filter::from_src(Ipv4Prefix::new(std::net::Ipv4Addr::new(a, b, 0, 0), len))
}

// ---------------------------------------------------------------------
// Wire codec (opennf-rt::wire).
// ---------------------------------------------------------------------

pub fn wire_packet_msg(pkt: Packet) -> WireMsg {
    WireMsg::Packet { packet: pkt }
}

pub fn wire_event_msg(worker: usize, pkt: Packet) -> WireMsg {
    WireMsg::Event {
        worker,
        ev: WireEvent::PacketReceived { packet: pkt },
    }
}

/// A worker → worker chunk batch, as a P2P transfer ships it.
pub fn wire_p2p_chunks_msg(chunks: Vec<Chunk>) -> WireMsg {
    WireMsg::P2pChunks {
        id: 1,
        seq: 0,
        last: false,
        chunks,
    }
}

#[inline]
pub fn wire_to_json(m: &WireMsg) -> String {
    m.to_json()
}

/// One message through the reusable frame assembler.
#[inline]
pub fn wire_frame_one(buf: &mut FrameBuf, m: &WireMsg) -> String {
    buf.push(m);
    buf.finish().expect("one message was pushed")
}

pub fn frame_buf() -> FrameBuf {
    FrameBuf::new()
}

#[inline]
pub fn wire_encode_frames(msgs: &[WireMsg], batch: usize) -> Vec<String> {
    encode_frames(msgs, batch)
}

/// Decodes one channel payload; returns the number of messages it framed.
#[inline]
pub fn wire_decode_frame(raw: &str) -> usize {
    decode_frame(raw)
        .expect("benchmark-encoded frame decodes")
        .len()
}

// ---------------------------------------------------------------------
// Switch flow table (opennf-net).
// ---------------------------------------------------------------------

pub struct Table(FlowTable);

/// A table of one exact-match rule per packet plus a wildcard default —
/// what the simulated switch holds after per-flow routes are installed.
pub fn flowtable_exact(pkts: &[Packet]) -> Table {
    let mut t = FlowTable::new();
    for p in pkts {
        t.install(
            10,
            Filter::from_flow_id(p.flow_id()),
            Action::Forward(vec![PortRef::Port(1)].into()),
        );
    }
    t.install(
        0,
        Filter::any(),
        Action::Forward(vec![PortRef::Port(9)].into()),
    );
    Table(t)
}

#[inline]
pub fn flowtable_apply(t: &mut Table, pkt: &Packet) -> bool {
    t.0.apply(pkt).is_some()
}

// ---------------------------------------------------------------------
// Op journal (opennf-controller::journal).
// ---------------------------------------------------------------------

pub struct Journal(OpJournal, OpReport);

pub fn journal_new() -> Journal {
    Journal(
        OpJournal::new(),
        OpReport::new(OpId(1), "move[LF PL]".into(), 0),
    )
}

/// Appends one record carrying a report snapshot, as every phase
/// boundary of an op does.
#[inline]
pub fn journal_append(j: &mut Journal, i: u64) {
    j.0.append(JournalRecord {
        op: OpId(i),
        phase: JournalPhase::Armed,
        t_ns: i,
        report: j.1.clone(),
    });
}

// ---------------------------------------------------------------------
// Telemetry and profiler (opennf-telemetry, opennf-prof).
// ---------------------------------------------------------------------

pub fn telemetry_off() -> Telemetry {
    Telemetry::disabled()
}

pub fn telemetry_wall(capacity: usize) -> Telemetry {
    Telemetry::wall_with_capacity(capacity)
}

#[inline]
pub fn telemetry_span(tel: &Telemetry) {
    let sp = tel.begin("bench.ladder");
    tel.end(sp);
}

/// What the flight recorder says about one op: admission wait and the
/// service time of each canonical phase span, by exact timestamps.
pub struct OpPhases {
    pub kind: &'static str,
    pub queue_wait_ns: u64,
    pub phases: Vec<(String, u64)>,
}

/// The traced pass's view of the program's own spans and counters.
pub struct ProgramTrace {
    pub ops: Vec<OpPhases>,
    pub frames: u64,
    pub events_pumped: u64,
    pub p2p_dials: u64,
    pub dropped_records: u64,
    pub jsonl: String,
}

pub fn program_trace(tel: &Telemetry) -> ProgramTrace {
    let trace = opennf_prof::Trace::from_telemetry(tel);
    let profile = opennf_prof::profile(&trace);
    ProgramTrace {
        ops: profile
            .ops
            .into_iter()
            .map(|o| OpPhases {
                kind: o.kind,
                queue_wait_ns: o.queue_wait_ns,
                phases: o.phases,
            })
            .collect(),
        frames: trace.counter("rt.frames.encoded") + trace.counter("rt.frames.decoded"),
        events_pumped: trace.counter("rt.events.pumped"),
        p2p_dials: trace.counter("rt.p2p.dials"),
        dropped_records: tel.dropped_records(),
        jsonl: tel.export_jsonl(),
    }
}

// ---------------------------------------------------------------------
// Simulator (opennf-sim engine, opennf-controller op state machines,
// opennf-net flow table, opennf-trace traffic).
// ---------------------------------------------------------------------

pub type TimedPackets = Vec<(u64, Packet)>;

/// `flows` established flows, then data at `pps` until `dur_ms`.
pub fn sim_traffic(flows: u32, pps: u64, dur_ms: u64, seed: u64) -> TimedPackets {
    opennf_trace::warmed_flows(flows, pps, Dur::millis(dur_ms), seed)
}

pub struct Sim(Scenario);

/// Two asset monitors behind one switch, everything routed to the first,
/// and a loss-free parallel move of every flow issued at t = 200 ms.
pub fn sim_build(traffic: TimedPackets, seed: u64, tel: Telemetry) -> Sim {
    let mut s = ScenarioBuilder::new()
        .seed(seed)
        .telemetry(tel)
        .nf("prads1", Box::new(AssetMonitor::new()))
        .nf("prads2", Box::new(AssetMonitor::new()))
        .host(traffic)
        .route(0, Filter::any(), 0)
        .build();
    let (src, dst) = (s.instances[0], s.instances[1]);
    s.issue_at(
        Dur::millis(200),
        Command::Move {
            src,
            dst,
            filter: Filter::any(),
            scope: ScopeSet::per_flow(),
            props: MoveProps::lf_pl(),
        },
    );
    Sim(s)
}

#[inline]
pub fn sim_run(s: &mut Sim) {
    s.0.run_to_completion();
}

/// What one simulated run did, read after it finished.
pub struct SimOutcome {
    /// The move completed and the oracle found no lost or duplicated packet.
    pub loss_free: bool,
    /// Packets the switch forwarded.
    pub forwarded: usize,
    /// Of those, not processed exactly once.
    pub bad_packets: usize,
    /// Messages the simulation engine delivered.
    pub events: u64,
    /// Virtual duration of the move (a property of the model, not a speed).
    pub move_virtual_ms: f64,
}

pub fn sim_outcome(s: &Sim) -> SimOutcome {
    let report = s.0.controller().reports.first();
    let oracle = s.0.oracle().check();
    SimOutcome {
        loss_free: report.is_some() && oracle.is_loss_free(),
        forwarded: oracle.forwarded,
        bad_packets: oracle.lost.len() + oracle.duplicated.len(),
        events: s.0.engine.delivered(),
        move_virtual_ms: report.map_or(0.0, |r| r.duration_ms()),
    }
}
