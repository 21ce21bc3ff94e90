//! A duplicated request is applied once.
//!
//! Every frame the controller sends worker 0 arrives a second time,
//! 300 ms after the first — long after the op that sent it has committed.
//! A move away from worker 0 and a P2P move back run inside that gap, so
//! the late copies of the first move's requests reach worker 0 after the
//! state has come home: a second `DelPerflow` would delete the imported
//! state, a second `TransferPerflow` would ship it to worker 1 again, and
//! a second `EnableEvents` would re-arm the drop filter. The worker must
//! drop each late copy (the request fence), so the state ends whole at
//! worker 0 and a packet sent there afterwards raises no event.

use std::net::Ipv4Addr;
use std::sync::atomic::Ordering;
use std::time::Duration;

use opennf_nf::{EventedNf, NetworkFunction};
use opennf_nfs::AssetMonitor;
use opennf_packet::{Filter, FlowKey, Packet, TcpFlags};
use opennf_rt::{worker_node, OpSpec, RtController, CTRL_NODE};
use opennf_telemetry::Telemetry;
use opennf_util::{Dur, FaultKind, FaultPlan, Time};

const FLOWS: u32 = 300;

fn pkt(uid: u64, flow: u32, flags: TcpFlags) -> Packet {
    let key = FlowKey::tcp(
        Ipv4Addr::new(10, 0, (flow >> 8) as u8, flow as u8),
        2000 + (flow % 60_000) as u16,
        Ipv4Addr::new(93, 184, 216, 34),
        80,
    );
    Packet::builder(uid, key).flags(flags).build()
}

fn conn_count(h: &EventedNf) -> usize {
    let any: &dyn std::any::Any = h.nf();
    any.downcast_ref::<AssetMonitor>().unwrap().conn_count()
}

type Mv = fn(usize, usize, Filter) -> OpSpec;

#[test]
fn duplicated_downlink_requests_are_applied_once() {
    for (name, first) in [("mv", OpSpec::mv as Mv), ("mv_p2p", OpSpec::mv_p2p)] {
        let plan = FaultPlan::new(11).link(
            Some(CTRL_NODE),
            Some(worker_node(0)),
            Time::ZERO,
            Time(u64::MAX),
            1000,
            FaultKind::Duplicate(Dur::millis(300)),
        );
        let tel = Telemetry::wall();
        let monitor = || Box::new(AssetMonitor::new()) as Box<dyn NetworkFunction>;
        let (ctrl, faults) =
            RtController::build(vec![vec![monitor(), monitor()]], Some((plan, 0)), tel.clone());
        let faults = faults.expect("a plan was given");
        let mut ctrl = ctrl.with_reply_timeout(Duration::from_secs(2));
        for f in 0..FLOWS {
            ctrl.inject(pkt(f as u64 + 1, f, TcpFlags::SYN)).expect("worker alive");
        }
        ctrl.quiesce(0).expect("worker alive");

        let res = ctrl.run_op(first(0, 1, Filter::any()));
        assert!(res.is_ok(), "{name}: first op commits: {:?}", res);
        let res = ctrl.run_op(OpSpec::mv_p2p(1, 0, Filter::any()));
        assert!(res.is_ok(), "{name}: move back commits: {:?}", res);

        // Every late copy has landed by now.
        std::thread::sleep(Duration::from_millis(500));
        ctrl.quiesce(0).expect("worker alive");
        ctrl.quiesce(1).expect("worker alive");
        let pumped = tel.counter("rt.events.pumped");
        let before = pumped.load(Ordering::Relaxed);
        ctrl.inject(pkt(10_000, 0, TcpFlags::ACK)).expect("worker alive");
        ctrl.quiesce(0).expect("worker alive");
        assert_eq!(
            pumped.load(Ordering::Relaxed),
            before,
            "{name}: worker 0 is disarmed, so the late packet raises no event"
        );
        assert!(
            tel.counter("rt.fenced.dropped").load(Ordering::Relaxed) > 0,
            "{name}: the worker dropped the duplicated requests"
        );

        let harnesses = ctrl.shutdown();
        faults.join_pump();
        assert_eq!(
            (conn_count(&harnesses[0]), conn_count(&harnesses[1])),
            (FLOWS as usize, 0),
            "{name}: state whole at worker 0, where the route points"
        );
    }
}
