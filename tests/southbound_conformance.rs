//! Southbound API conformance: every NF in the workspace must obey the
//! §4.2 contract. The same suite runs over all of them:
//!
//! * `get_perflow(filter)` returns exactly the state whose flow ids match;
//! * `get → del → put` relocates state losslessly (move semantics);
//! * `put_multiflow` merges rather than replaces;
//! * exports are deserializable by a fresh instance of the same NF;
//! * `list_*` agrees with `get_*`.

use opennf::nf::NetworkFunction;
use opennf::nfs::ids::{Ids, IdsConfig};
use opennf::nfs::{AssetMonitor, Nat, Proxy, ReDecoder};
use opennf::prelude::*;

/// Each entry: a factory plus a packet feeder that installs state for
/// flows from the given client IP.
type Factory = fn() -> Box<dyn NetworkFunction>;

fn factories() -> Vec<(&'static str, Factory)> {
    vec![
        ("ids", || Box::new(Ids::new(IdsConfig::default()))),
        ("monitor", || Box::new(AssetMonitor::new())),
        ("nat", || Box::new(Nat::new("200.0.0.1".parse().unwrap()))),
        ("proxy", || Box::new(Proxy::new())),
        ("re_decoder", || Box::new(ReDecoder::new())),
    ]
}

/// Feeds `n` flows from `client_octet` (10.0.0.x) into the NF. Uses a
/// packet shape every NF accepts (TCP SYN + data toward port 80/3128).
fn feed_flows(nf: &mut dyn NetworkFunction, client_octet: u8, n: u16) {
    for i in 0..n {
        let dst_port = if nf.nf_type() == "proxy" { 3128 } else { 80 };
        let key = FlowKey::tcp(
            format!("10.0.0.{client_octet}").parse().unwrap(),
            3_000 + i,
            "93.184.216.34".parse().unwrap(),
            dst_port,
        );
        let syn = Packet::builder(1 + i as u64 * 3, key)
            .flags(TcpFlags::SYN)
            .seq(i as u32)
            .ingress_ns(1000)
            .build();
        nf.process_packet(&syn).unwrap();
        let payload = if nf.nf_type() == "proxy" {
            format!("GET /c{client_octet}obj{i}?size=1000 HTTP/1.1\r\n\r\n").into_bytes()
        } else {
            b"data-data-data".to_vec()
        };
        let data = Packet::builder(2 + i as u64 * 3, key)
            .flags(TcpFlags::PSH.union(TcpFlags::ACK))
            .seq(i as u32 + 1)
            .payload(payload)
            .ingress_ns(2000)
            .build();
        nf.process_packet(&data).unwrap();
    }
    let _ = nf.drain_logs();
}

fn client_filter(octet: u8) -> Filter {
    Filter::from_src(Ipv4Prefix::host(format!("10.0.0.{octet}").parse().unwrap())).bidi()
}

#[test]
fn get_perflow_respects_filter() {
    for (name, mk) in factories() {
        let mut nf = mk();
        feed_flows(nf.as_mut(), 1, 4);
        feed_flows(nf.as_mut(), 2, 3);
        let total = nf.get_perflow(&Filter::any()).len();
        let c1 = nf.get_perflow(&client_filter(1)).len();
        let c2 = nf.get_perflow(&client_filter(2)).len();
        if name == "re_decoder" {
            assert_eq!(total, 0, "{name}: RE has no per-flow state");
            continue;
        }
        assert_eq!(c1 + c2, total, "{name}: filters partition the state");
        assert!(c1 >= 4 - 1, "{name}: client 1 flows found ({c1})");
        assert!(c1 > c2, "{name}: 4 vs 3 flows ({c1} vs {c2})");
        // Every exported chunk's flow id matches the filter it was
        // selected by.
        for chunk in nf.get_perflow(&client_filter(1)) {
            assert!(
                client_filter(1).matches_flow_id(&chunk.flow_id),
                "{name}: chunk {} escapes its filter",
                chunk.flow_id
            );
        }
    }
}

#[test]
fn list_agrees_with_get() {
    for (name, mk) in factories() {
        let mut nf = mk();
        feed_flows(nf.as_mut(), 1, 5);
        let listed = nf.list_perflow(&Filter::any());
        let got = nf.get_perflow(&Filter::any());
        assert_eq!(listed.len(), got.len(), "{name}");
        let got_ids: Vec<FlowId> = got.iter().map(|c| c.flow_id).collect();
        for id in &listed {
            assert!(got_ids.contains(id), "{name}: listed {id} but not exported");
        }
    }
}

#[test]
fn move_semantics_get_del_put() {
    for (name, mk) in factories() {
        let mut src = mk();
        let mut dst = mk();
        feed_flows(src.as_mut(), 1, 5);
        let before = src.list_perflow(&Filter::any()).len();
        let chunks = src.get_perflow(&Filter::any());
        let ids: Vec<FlowId> = chunks.iter().map(|c| c.flow_id).collect();
        src.del_perflow(&ids);
        assert_eq!(src.list_perflow(&Filter::any()).len(), 0, "{name}: deleted at src");
        dst.put_perflow(chunks).unwrap_or_else(|e| panic!("{name}: put failed: {e}"));
        assert_eq!(
            dst.list_perflow(&Filter::any()).len(),
            before,
            "{name}: state relocated losslessly"
        );
    }
}

#[test]
fn multiflow_put_merges() {
    // The NFs with multi-flow state must merge, not replace.
    for (name, mk) in factories() {
        let mut a = mk();
        let mut b = mk();
        feed_flows(a.as_mut(), 1, 3);
        feed_flows(b.as_mut(), 1, 3);
        let a_before = a.get_multiflow(&Filter::any());
        if a_before.is_empty() {
            continue; // nat / re: no multi-flow state
        }
        let from_b = b.get_multiflow(&Filter::any());
        a.put_multiflow(from_b).unwrap_or_else(|e| panic!("{name}: {e}"));
        // Merging must not shrink the table.
        let after = a.get_multiflow(&Filter::any()).len();
        assert!(after >= a_before.len(), "{name}: merge shrank state");
    }
}

#[test]
fn exports_decode_on_fresh_instances() {
    for (name, mk) in factories() {
        let mut src = mk();
        feed_flows(src.as_mut(), 1, 2);
        let per = src.get_perflow(&Filter::any());
        let multi = src.get_multiflow(&Filter::any());
        let all = src.get_allflows();
        let mut fresh = mk();
        fresh.put_perflow(per).unwrap_or_else(|e| panic!("{name} per: {e}"));
        fresh.put_multiflow(multi).unwrap_or_else(|e| panic!("{name} multi: {e}"));
        fresh.put_allflows(all).unwrap_or_else(|e| panic!("{name} all: {e}"));
    }
}

#[test]
fn unknown_chunk_kinds_are_rejected_not_panicking() {
    for (name, mk) in factories() {
        let mut nf = mk();
        let bogus = Chunk {
            flow_id: FlowId::default(),
            scope: Scope::PerFlow,
            kind: "definitely-unknown".into(),
            data: vec![0xFF; 8],
        };
        assert!(nf.put_perflow(vec![bogus]).is_err(), "{name} must reject unknown kinds");
    }
}

// ===== Cross-backend conformance =====
//
// The contract above is exercised through direct `NetworkFunction` calls.
// In deployment the same calls arrive through two different front ends:
// the simulator's in-process [`EventedNf`] harness and the threaded
// runtime's JSON worker. One scripted body runs against a `Southbound`
// driver trait with an implementation for each backend, and the two
// backends must produce identical observations — state counts, raised
// events, processed/dropped logs.

use crossbeam::channel::{unbounded, Receiver};
use opennf::nf::{EventedNf, NfEvent};
use opennf::rt::wire::WireAction;
use opennf::rt::{spawn_worker, WireCall, WireEvent, WireMsg, WireReply, WorkerHandle};
use std::time::Duration;

trait Southbound {
    fn packet(&mut self, pkt: Packet);
    fn get(&mut self, scope: Scope, filter: &Filter) -> Vec<Chunk>;
    fn put(&mut self, scope: Scope, chunks: Vec<Chunk>) -> Result<(), String>;
    fn del_perflow(&mut self, ids: Vec<FlowId>);
    fn enable_events(&mut self, filter: Filter, action: EventAction);
    fn disable_events(&mut self, filter: Filter);
    /// Uids of every packet-in (`Received`) event raised so far, in order.
    fn event_uids(&mut self) -> Vec<u64>;
    fn finish(self: Box<Self>) -> EventedNf;
}

/// Simulator backend: the harness the sim's NF node embeds, driven
/// directly.
struct SimBackend {
    h: EventedNf,
    events: Vec<u64>,
}

impl SimBackend {
    fn new(nf: Box<dyn NetworkFunction>) -> Self {
        SimBackend { h: EventedNf::new(nf), events: Vec::new() }
    }
}

impl Southbound for SimBackend {
    fn packet(&mut self, pkt: Packet) {
        let (_outcome, events) = self.h.handle_packet(&pkt);
        for ev in events {
            if let NfEvent::Received(p) = ev {
                self.events.push(p.uid);
            }
        }
    }
    fn get(&mut self, scope: Scope, filter: &Filter) -> Vec<Chunk> {
        match scope {
            Scope::PerFlow => self.h.nf_mut().get_perflow(filter),
            Scope::MultiFlow => self.h.nf_mut().get_multiflow(filter),
            Scope::AllFlows => self.h.nf_mut().get_allflows(),
        }
    }
    fn put(&mut self, scope: Scope, chunks: Vec<Chunk>) -> Result<(), String> {
        let r = match scope {
            Scope::PerFlow => self.h.nf_mut().put_perflow(chunks),
            Scope::MultiFlow => self.h.nf_mut().put_multiflow(chunks),
            Scope::AllFlows => self.h.nf_mut().put_allflows(chunks),
        };
        r.map_err(|e| e.to_string())
    }
    fn del_perflow(&mut self, ids: Vec<FlowId>) {
        self.h.nf_mut().del_perflow(&ids);
    }
    fn enable_events(&mut self, filter: Filter, action: EventAction) {
        self.h.enable_events(filter, action);
    }
    fn disable_events(&mut self, filter: Filter) {
        self.h.disable_events(&filter);
    }
    fn event_uids(&mut self) -> Vec<u64> {
        self.events.clone()
    }
    fn finish(self: Box<Self>) -> EventedNf {
        self.h
    }
}

/// Threaded-runtime backend: a real worker thread behind the JSON wire
/// protocol. Requests synchronize on their correlation id; events arriving
/// in between are collected in order (the worker's inbox is FIFO, so a
/// barrier request flushes every event raised before it).
struct RtBackend {
    w: Option<WorkerHandle>,
    rx: Receiver<String>,
    next_id: u64,
    events: Vec<u64>,
}

impl RtBackend {
    fn new(nf: Box<dyn NetworkFunction>) -> Self {
        let (to_ctrl, rx) = unbounded();
        RtBackend { w: Some(spawn_worker(0, nf, to_ctrl)), rx, next_id: 0, events: Vec::new() }
    }

    fn request(&mut self, call: WireCall) -> WireReply {
        self.next_id += 1;
        let id = self.next_id;
        self.w.as_ref().unwrap().send(&WireMsg::Request { id, floor: id, call, span: None }).unwrap();
        loop {
            let raw = self.rx.recv_timeout(Duration::from_secs(5)).expect("worker reply");
            // The worker frames its event sends as netstring runs; one
            // payload may carry several messages.
            for msg in opennf::rt::wire::decode_frame(&raw).unwrap() {
                match msg {
                    WireMsg::Event { ev: WireEvent::PacketReceived { packet }, .. } => {
                        self.events.push(packet.uid);
                    }
                    WireMsg::Event { ev: WireEvent::NfFailed { reason }, .. } => {
                        panic!("worker died: {reason}");
                    }
                    WireMsg::Event { .. } => {}
                    WireMsg::Response { id: rid, reply } if rid == id => return reply,
                    other => panic!("unexpected wire message: {other:?}"),
                }
            }
        }
    }

    fn expect_chunks(&mut self, call: WireCall) -> Vec<Chunk> {
        match self.request(call) {
            WireReply::Chunks { chunks } => chunks,
            other => panic!("expected chunks, got {other:?}"),
        }
    }
}

impl Southbound for RtBackend {
    fn packet(&mut self, pkt: Packet) {
        self.w.as_ref().unwrap().send(&WireMsg::Packet { packet: pkt }).unwrap();
    }
    fn get(&mut self, scope: Scope, filter: &Filter) -> Vec<Chunk> {
        let call = match scope {
            Scope::PerFlow => WireCall::GetPerflow { filter: *filter },
            Scope::MultiFlow => WireCall::GetMultiflow { filter: *filter },
            Scope::AllFlows => WireCall::GetAllflows,
        };
        self.expect_chunks(call)
    }
    fn put(&mut self, scope: Scope, chunks: Vec<Chunk>) -> Result<(), String> {
        let call = match scope {
            Scope::PerFlow => WireCall::PutPerflow { chunks },
            Scope::MultiFlow => WireCall::PutMultiflow { chunks },
            Scope::AllFlows => WireCall::PutAllflows { chunks },
        };
        match self.request(call) {
            WireReply::Done => Ok(()),
            WireReply::Error { message } => Err(message),
            other => panic!("expected done/error, got {other:?}"),
        }
    }
    fn del_perflow(&mut self, ids: Vec<FlowId>) {
        match self.request(WireCall::DelPerflow { flow_ids: ids }) {
            WireReply::Done => {}
            other => panic!("expected done, got {other:?}"),
        }
    }
    fn enable_events(&mut self, filter: Filter, action: EventAction) {
        let action = match action {
            EventAction::Process => WireAction::Process,
            EventAction::Buffer => WireAction::Buffer,
            EventAction::Drop => WireAction::Drop,
        };
        match self.request(WireCall::EnableEvents { filter, action }) {
            WireReply::Done => {}
            other => panic!("expected done, got {other:?}"),
        }
    }
    fn disable_events(&mut self, filter: Filter) {
        match self.request(WireCall::DisableEvents { filter }) {
            WireReply::Done => {}
            other => panic!("expected done, got {other:?}"),
        }
    }
    fn event_uids(&mut self) -> Vec<u64> {
        // Barrier: any request's response flushes all events before it.
        let _ = self.expect_chunks(WireCall::GetAllflows);
        self.events.clone()
    }
    fn finish(mut self: Box<Self>) -> EventedNf {
        self.w.take().unwrap().shutdown()
    }
}

/// The packets `feed_flows` would send, as a list (so drivers can send
/// them through their own front door).
fn flow_packets(nf_type: &str, client_octet: u8, n: u16, uid_base: u64) -> Vec<Packet> {
    let mut out = Vec::new();
    for i in 0..n {
        let dst_port = if nf_type == "proxy" { 3128 } else { 80 };
        let key = FlowKey::tcp(
            format!("10.0.0.{client_octet}").parse().unwrap(),
            3_000 + i,
            "93.184.216.34".parse().unwrap(),
            dst_port,
        );
        out.push(
            Packet::builder(uid_base + i as u64 * 2, key)
                .flags(TcpFlags::SYN)
                .seq(i as u32)
                .ingress_ns(1000)
                .build(),
        );
        let payload = if nf_type == "proxy" {
            format!("GET /c{client_octet}obj{i}?size=1000 HTTP/1.1\r\n\r\n").into_bytes()
        } else {
            b"data-data-data".to_vec()
        };
        out.push(
            Packet::builder(uid_base + i as u64 * 2 + 1, key)
                .flags(TcpFlags::PSH.union(TcpFlags::ACK))
                .seq(i as u32 + 1)
                .payload(payload)
                .ingress_ns(2000)
                .build(),
        );
    }
    out
}

/// Everything the script observes; the two backends must agree on all of
/// it.
#[derive(Debug, PartialEq, Eq)]
struct Observed {
    per_c1: usize,
    per_total: usize,
    multi: usize,
    all: usize,
    src_after_del: usize,
    dst_after_move: usize,
    drop_stage_events: Vec<u64>,
    post_disable_events: Vec<u64>,
    buffer_stage_events: Vec<u64>,
    processed_log: Vec<u64>,
    dropped_uids: Vec<u64>,
}

/// The shared script: state install → multi-flow/all-flows export →
/// per-flow move (get → del → put) → enableEvents(drop) → disableEvents →
/// enableEvents(buffer) + release.
fn run_script(
    nf_type: &str,
    mut src: Box<dyn Southbound>,
    mut dst: Box<dyn Southbound>,
) -> Observed {
    // Install state: 4 flows from client 1, 3 from client 2.
    for p in flow_packets(nf_type, 1, 4, 1) {
        src.packet(p);
    }
    for p in flow_packets(nf_type, 2, 3, 101) {
        src.packet(p);
    }
    let per_c1 = src.get(Scope::PerFlow, &client_filter(1)).len();
    let per = src.get(Scope::PerFlow, &Filter::any());
    let per_total = per.len();
    let multi = src.get(Scope::MultiFlow, &Filter::any()).len();
    let all = src.get(Scope::AllFlows, &Filter::any()).len();

    // Relocate everything: get → del at src, put at dst.
    let ids: Vec<FlowId> = per.iter().map(|c| c.flow_id).collect();
    src.del_perflow(ids);
    let src_after_del = src.get(Scope::PerFlow, &Filter::any()).len();
    dst.put(Scope::PerFlow, per).unwrap_or_else(|e| panic!("{nf_type}: put per: {e}"));
    let dst_after_move = dst.get(Scope::PerFlow, &Filter::any()).len();

    // Drop-action events: client-1 packets raise events and are dropped,
    // client-2 packets pass untouched.
    dst.enable_events(client_filter(1), EventAction::Drop);
    for p in flow_packets(nf_type, 1, 1, 201) {
        dst.packet(p);
    }
    for p in flow_packets(nf_type, 2, 1, 211) {
        dst.packet(p);
    }
    let drop_stage_events = dst.event_uids();

    // After disable, the same traffic is processed silently.
    dst.disable_events(client_filter(1));
    for p in flow_packets(nf_type, 1, 1, 221) {
        dst.packet(p);
    }
    let post_disable_events = dst.event_uids();

    // Buffer-action events: held on arrival, processed on disable.
    dst.enable_events(client_filter(2), EventAction::Buffer);
    for p in flow_packets(nf_type, 2, 1, 231) {
        dst.packet(p);
    }
    let buffer_stage_events = dst.event_uids();
    dst.disable_events(client_filter(2));

    let h = dst.finish();
    drop(src.finish());
    Observed {
        per_c1,
        per_total,
        multi,
        all,
        src_after_del,
        dst_after_move,
        drop_stage_events,
        post_disable_events,
        buffer_stage_events,
        processed_log: h.processed_log().to_vec(),
        dropped_uids: h.dropped_uids().to_vec(),
    }
}

/// The same script, over every NF, on both backends — identical
/// observations, plus spot-checks that the script exercised what it
/// claims (events raised, drops recorded, buffered release processed).
#[test]
fn rt_json_worker_matches_sim_harness_on_full_southbound_script() {
    for (name, mk) in factories() {
        let sim = run_script(name, Box::new(SimBackend::new(mk())), Box::new(SimBackend::new(mk())));
        let rt = run_script(name, Box::new(RtBackend::new(mk())), Box::new(RtBackend::new(mk())));
        assert_eq!(sim, rt, "{name}: backends disagree");

        // Non-vacuity spot checks (on the sim copy; rt is equal).
        assert_eq!(sim.src_after_del, 0, "{name}: del cleared the source");
        assert_eq!(sim.dst_after_move, sim.per_total, "{name}: move lossless");
        assert_eq!(
            sim.drop_stage_events,
            vec![201, 202],
            "{name}: drop filter raised client-1 events only"
        );
        assert_eq!(
            sim.post_disable_events,
            vec![201, 202],
            "{name}: no events after disable"
        );
        assert_eq!(
            sim.buffer_stage_events,
            vec![201, 202, 231, 232],
            "{name}: buffer filter raised events on arrival"
        );
        for uid in [201, 202] {
            assert!(sim.dropped_uids.contains(&uid), "{name}: {uid} dropped");
            assert!(!sim.processed_log.contains(&uid), "{name}: {uid} not processed");
        }
        for uid in [211, 212, 221, 222, 231, 232] {
            assert!(sim.processed_log.contains(&uid), "{name}: {uid} processed");
        }
    }
}
