//! A duplicated reply is stale, not a fault of the op.
//!
//! Every frame a worker sends the controller arrives twice. The second
//! copy of a reply — an ack, a chunk batch, a transfer summary — answers
//! a request the op has already consumed, so it must neither advance the
//! op nor fail it: in particular a repeated `ChunkBatch` is not a gap in
//! the stream, and a repeated transfer summary is not counted twice. Each
//! op kind must commit exactly once, report the same state bytes as every
//! other kind, and leave its state whole where the kind puts it.

use std::net::Ipv4Addr;
use std::time::Duration;

use opennf_controller::{JournalPhase, OpId};
use opennf_nf::{EventedNf, NetworkFunction};
use opennf_nfs::AssetMonitor;
use opennf_packet::{Filter, FlowKey, Packet, TcpFlags};
use opennf_rt::{OpSpec, RtController, CTRL_NODE};
use opennf_util::{Dur, FaultKind, FaultPlan, Time};

/// Several 64-chunk batches per export, so a batch can repeat mid-stream.
const FLOWS: u32 = 300;

fn pkt(uid: u64, flow: u32) -> Packet {
    let key = FlowKey::tcp(
        Ipv4Addr::new(10, 0, (flow >> 8) as u8, flow as u8),
        2000 + (flow % 60_000) as u16,
        Ipv4Addr::new(93, 184, 216, 34),
        80,
    );
    Packet::builder(uid, key).flags(TcpFlags::SYN).build()
}

fn conn_count(h: &EventedNf) -> usize {
    let any: &dyn std::any::Any = h.nf();
    any.downcast_ref::<AssetMonitor>().unwrap().conn_count()
}

#[test]
fn duplicated_uplink_frames_never_fail_an_op() {
    let cases: [(&str, OpSpec, (usize, usize)); 4] = [
        ("mv", OpSpec::mv(0, 1, Filter::any()), (0, FLOWS as usize)),
        ("mv_p2p", OpSpec::mv_p2p(0, 1, Filter::any()), (0, FLOWS as usize)),
        ("copy", OpSpec::copy(0, 1, Filter::any()), (FLOWS as usize, FLOWS as usize)),
        ("share", OpSpec::share(0, 1, Filter::any()), (FLOWS as usize, FLOWS as usize)),
    ];
    let mut bytes = Vec::new();
    for (name, spec, (want_src, want_dst)) in cases {
        // Every worker → controller frame is delivered a second time.
        let plan = FaultPlan::new(7).link(
            None,
            Some(CTRL_NODE),
            Time::ZERO,
            Time(u64::MAX),
            1000,
            FaultKind::Duplicate(Dur::ZERO),
        );
        let (ctrl, faults) = RtController::new_with_faults_and_telemetry(
            vec![
                Box::new(AssetMonitor::new()) as Box<dyn NetworkFunction>,
                Box::new(AssetMonitor::new()),
            ],
            plan,
            opennf_telemetry::Telemetry::wall(),
        );
        let mut ctrl = ctrl.with_reply_timeout(Duration::from_secs(2));
        for f in 0..FLOWS {
            ctrl.inject(pkt(f as u64 + 1, f)).expect("worker alive");
        }
        ctrl.quiesce(0).expect("worker alive");

        let res = ctrl.run_ops(vec![spec]).pop().expect("one result");
        let stats = res.unwrap_or_else(|e| panic!("{name}: op failed: {e}"));
        assert_eq!(stats.chunks, FLOWS as usize, "{name}: every flow transferred once");
        bytes.push((name, stats.bytes));
        let phases: Vec<JournalPhase> =
            ctrl.journal().records.iter().filter(|r| r.op == OpId(1)).map(|r| r.phase).collect();
        let terminal: Vec<JournalPhase> =
            phases.iter().copied().filter(|p| p.is_terminal()).collect();
        assert_eq!(terminal, [JournalPhase::Committed], "{name}: one terminal record: {phases:?}");
        assert!(
            !faults.ledger().log.is_empty(),
            "{name}: the plan must actually have duplicated frames"
        );

        let harnesses = ctrl.shutdown();
        faults.join_pump();
        assert_eq!(
            (conn_count(&harnesses[0]), conn_count(&harnesses[1])),
            (want_src, want_dst),
            "{name}: state whole at the right endpoint"
        );
    }
    assert!(bytes.iter().all(|&(_, b)| b == bytes[0].1), "bytes counted once: {bytes:?}");
}
