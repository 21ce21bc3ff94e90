//! Crash-tolerance of the threaded controller: the op engine is killed
//! right after each journal append of an in-flight move, and
//! [`RtController::recover`] must drive the op to the correct terminal
//! phase — forward to `Committed` once every flow is confirmed at the
//! destination (`Transferred` and later), rollback to `Aborted` before
//! that — leaving the flow state whole at exactly one endpoint and the
//! controller healthy enough to run the next move.
//!
//! This mirrors `opennf-controller/tests/recovery.rs` (the simulator's
//! restart path) under the rt crash model: the struct — and with it the
//! journal and residue — survives, in-flight requests and timers die.

use std::net::Ipv4Addr;

use opennf_controller::JournalPhase;
use opennf_nf::{EventedNf, NetworkFunction};
use opennf_nfs::AssetMonitor;
use opennf_packet::{Filter, FlowKey, Packet, TcpFlags};
use opennf_rt::{OpSpec, RtController, RtError, ShardedRt, WireMsg};

const FLOWS: u32 = 30;

fn pkt(uid: u64, flow: u32) -> Packet {
    let key = FlowKey::tcp(
        Ipv4Addr::new(10, 0, (flow >> 8) as u8, flow as u8),
        2000 + (flow % 60_000) as u16,
        Ipv4Addr::new(93, 184, 216, 34),
        80,
    );
    Packet::builder(uid, key).flags(TcpFlags::SYN).build()
}

fn monitor() -> Box<dyn NetworkFunction> {
    Box::new(AssetMonitor::new())
}

fn load(ctrl: &mut RtController) {
    for f in 0..FLOWS {
        ctrl.inject(pkt(f as u64 + 1, f)).expect("worker alive");
    }
    ctrl.quiesce(0).expect("worker alive");
}

fn loaded_controller() -> RtController {
    let mut ctrl = RtController::new(vec![monitor(), monitor()]);
    load(&mut ctrl);
    ctrl
}

/// The two loaded monitors under either control plane: one standalone
/// controller, or one worker in each of two shards.
enum Topo {
    Single(RtController),
    Sharded(ShardedRt),
}

impl Topo {
    fn loaded(sharded: bool) -> Topo {
        if sharded {
            let mut ctrl = ShardedRt::new(vec![vec![monitor()], vec![monitor()]]);
            load(&mut ctrl);
            Topo::Sharded(ctrl)
        } else {
            Topo::Single(loaded_controller())
        }
    }

    fn ctrl(&mut self) -> &mut RtController {
        match self {
            Topo::Single(c) => c,
            Topo::Sharded(s) => s,
        }
    }

    fn shutdown(self) -> Vec<EventedNf> {
        match self {
            Topo::Single(c) => c.shutdown(),
            Topo::Sharded(s) => s.shutdown(),
        }
    }
}

fn conn_counts(harnesses: Vec<EventedNf>) -> (usize, usize) {
    let count = |i: usize| {
        let any: &dyn std::any::Any = harnesses[i].nf();
        any.downcast_ref::<AssetMonitor>().unwrap().conn_count()
    };
    (count(0), count(1))
}

/// Crash the engine right after each of the five non-terminal journal
/// appends, in both transfer modes, within one shard and across a shard
/// boundary. Every run must surface `CtrlCrashed`, recover to the phase's
/// mandated terminal (fail forward at `Transferred`+, roll back before)
/// with nothing left in flight, and leave all 30 flows intact at exactly
/// the endpoint that terminal implies, with the source's drop filter gone —
/// then complete a fresh move, proving the controller is not poisoned. A
/// rollback must also leave nothing behind at the destination: at
/// `ExportDone` a P2P move has already landed every flow there worker →
/// worker, so an empty destination means recovery's `AbortTransfer` purge
/// ran. The cross-shard op is marked with one `ew.handoff` and, from
/// recovery, one later `ew.release`; the in-shard op with neither.
#[test]
fn crash_at_every_phase_recovers_to_the_mandated_terminal() {
    let phases = [
        (JournalPhase::Armed, false),
        (JournalPhase::ExportDone, false),
        (JournalPhase::Transferred, true),
        (JournalPhase::Imported, true),
        (JournalPhase::Flushed, true),
    ];
    for sharded in [false, true] {
        for (mode, mv) in [("relayed", OpSpec::mv as Mv), ("p2p", OpSpec::mv_p2p)] {
            for (phase, forward) in phases {
                crash_and_recover(sharded, mode, mv, phase, forward);
            }
        }
    }
}

type Mv = fn(usize, usize, Filter) -> OpSpec;

fn crash_and_recover(sharded: bool, mode: &str, mv: Mv, phase: JournalPhase, forward: bool) {
    const PROBE: u64 = 9_999;
    let case = format!("{mode} {phase:?}{}", if sharded { " cross-shard" } else { "" });
    let crashed_and_recovered = || {
        let mut topo = Topo::loaded(sharded);
        let ctrl = topo.ctrl();
        ctrl.crash_after(phase);
        let res = ctrl.run_ops(vec![mv(0, 1, Filter::any())]);
        assert!(
            matches!(res[0], Err(RtError::CtrlCrashed)),
            "{case}: crashed op must fail with CtrlCrashed, got {:?}",
            res[0]
        );
        assert!(ctrl.is_crashed(), "{case}: crash hook fired");

        let outcomes = ctrl.recover();
        let expected = if forward { JournalPhase::Committed } else { JournalPhase::Aborted };
        assert_eq!(outcomes.len(), 1, "{case}: one op recovered");
        assert_eq!(outcomes[0].1, expected, "{case}: terminal phase");
        let last = ctrl.journal().records.last().expect("journal non-empty");
        assert_eq!(last.phase, expected, "{case}: journal ends terminal");
        assert!(ctrl.journal().in_flight().is_empty(), "{case}: nothing left in flight");
        assert!(!ctrl.is_crashed(), "{case}: recovery clears the crash flag");

        let recs = ctrl.telemetry().records();
        let marks: Vec<_> = recs
            .iter()
            .filter(|r| r.name.starts_with("ew."))
            .map(|r| (r.name, r.arg.as_deref().unwrap_or("")))
            .collect();
        if sharded {
            let release = format!("op=1 committed={forward} shard=1");
            assert_eq!(
                marks,
                [("ew.handoff", "op=1 0->1 shard=0 peer=1"), ("ew.release", &*release)],
                "{case}: handoff, then recovery's release"
            );
        } else {
            assert!(marks.is_empty(), "{case}: nothing crossed a shard");
        }
        topo
    };

    // Where recovery itself left the state — and the source's event
    // filter is gone: a packet of a new flow sent there is processed.
    let mut topo = crashed_and_recovered();
    let ctrl = topo.ctrl();
    ctrl.worker_tx(0)
        .send(WireMsg::Packet { packet: pkt(PROBE, FLOWS) }.to_json())
        .expect("worker alive");
    ctrl.quiesce(0).expect("worker alive");
    let harnesses = topo.shutdown();
    assert!(
        harnesses[0].processed_log().contains(&PROBE),
        "{case}: the source processes packets again"
    );
    let expected = if forward { (1, FLOWS as usize) } else { (FLOWS as usize + 1, 0) };
    assert_eq!(
        conn_counts(harnesses),
        expected,
        "{case}: state whole at exactly one endpoint after recovery (plus the probe's flow)"
    );

    // The controller survives recovery: the follow-up move (from
    // wherever recovery left the state) completes normally.
    let mut topo = crashed_and_recovered();
    let (src, dst) = if forward { (1, 0) } else { (0, 1) };
    let stats = topo
        .ctrl()
        .run_ops(vec![mv(src, dst, Filter::any())])
        .remove(0)
        .unwrap_or_else(|e| panic!("{case}: post-recovery move failed: {e}"));
    assert_eq!(stats.chunks, FLOWS as usize, "{case}: post-recovery move is whole");

    // The follow-up move put everything at `dst`; nothing was lost
    // or duplicated by the crash + recovery + re-move sequence.
    let (m0, m1) = conn_counts(topo.shutdown());
    let (at_dst, at_src) = if dst == 1 { (m1, m0) } else { (m0, m1) };
    assert_eq!(at_dst, FLOWS as usize, "{case}: all flows at final dst");
    assert_eq!(at_src, 0, "{case}: final src fully released");
}

/// A copy journals three boundaries — `Armed`, `ExportDone`,
/// `Transferred` (nothing is deleted and no route flips, so there is no
/// import or flush) — and the engine must crash-recover at each exactly
/// like a move: roll back before `Transferred` (purging the partial
/// clone), fail forward at it. Either way the copy is non-destructive:
/// the source keeps all 30 flows.
#[test]
fn copy_crash_at_each_boundary_recovers_nondestructively() {
    let phases = [
        (JournalPhase::Armed, false),
        (JournalPhase::ExportDone, false),
        (JournalPhase::Transferred, true),
    ];
    for (phase, forward) in phases {
        let mut ctrl = loaded_controller();
        ctrl.crash_after(phase);
        let res = ctrl.run_ops(vec![OpSpec::copy(0, 1, Filter::any())]);
        assert!(
            matches!(res[0], Err(RtError::CtrlCrashed)),
            "{phase:?}: crashed copy must fail with CtrlCrashed, got {:?}",
            res[0]
        );

        let outcomes = ctrl.recover();
        let expected = if forward { JournalPhase::Committed } else { JournalPhase::Aborted };
        assert_eq!(outcomes.len(), 1, "{phase:?}: one op recovered");
        assert_eq!(outcomes[0].1, expected, "{phase:?}: terminal phase");
        assert!(!ctrl.is_crashed(), "{phase:?}: recovery clears the crash flag");

        // The controller survives: a fresh full copy completes.
        let stats = ctrl
            .copy_flows(0, 1, Filter::any())
            .unwrap_or_else(|e| panic!("{phase:?}: post-recovery copy failed: {e}"));
        assert_eq!(stats.chunks, FLOWS as usize, "{phase:?}: post-recovery copy is whole");

        // Non-destructive at every boundary: the source never lost a
        // flow, and the destination holds the (re-)copied clone.
        let (m0, m1) = conn_counts(ctrl.shutdown());
        assert_eq!(m0, FLOWS as usize, "{phase:?}: source kept every flow");
        assert_eq!(m1, FLOWS as usize, "{phase:?}: destination holds the clone");
    }
}

/// A share's journal boundaries match a move's transfer leg (`Armed` on
/// the enable ack, `ExportDone`, `Transferred` when the initial sync
/// lands). Recovery must tear the sync filter down, purge a partial
/// replica on rollback, keep it on fail-forward — and never touch the
/// source's state.
#[test]
fn share_crash_at_each_boundary_recovers_nondestructively() {
    let phases = [
        (JournalPhase::Armed, false),
        (JournalPhase::ExportDone, false),
        (JournalPhase::Transferred, true),
    ];
    for (phase, forward) in phases {
        let mut ctrl = loaded_controller();
        ctrl.crash_after(phase);
        let res = ctrl.run_ops(vec![OpSpec::share(0, 1, Filter::any())]);
        assert!(
            matches!(res[0], Err(RtError::CtrlCrashed)),
            "{phase:?}: crashed share must fail with CtrlCrashed, got {:?}",
            res[0]
        );

        let outcomes = ctrl.recover();
        let expected = if forward { JournalPhase::Committed } else { JournalPhase::Aborted };
        assert_eq!(outcomes.len(), 1, "{phase:?}: one op recovered");
        assert_eq!(outcomes[0].1, expected, "{phase:?}: terminal phase");
        let last = ctrl.journal().records.last().expect("journal non-empty");
        assert_eq!(last.phase, expected, "{phase:?}: journal ends terminal");

        // The event filter is torn down either way: a follow-up move
        // (which arms its own filter at the same source) runs clean.
        let stats = ctrl
            .run_ops(vec![OpSpec::mv(0, 1, Filter::any())])
            .remove(0)
            .unwrap_or_else(|e| panic!("{phase:?}: post-recovery move failed: {e}"));
        assert_eq!(stats.chunks, FLOWS as usize, "{phase:?}: post-recovery move is whole");

        // The move put everything at worker 1; a committed share's
        // replica held the same flows, so state is exactly-once per
        // endpoint view either way.
        let (m0, m1) = conn_counts(ctrl.shutdown());
        assert_eq!(m0, 0, "{phase:?}: source released by the follow-up move");
        assert_eq!(m1, FLOWS as usize, "{phase:?}: destination holds every flow");
    }
}

/// A crash with two ops in flight: recovery settles *both* — each to the
/// terminal its own journal prefix mandates — in op-id order.
#[test]
fn crash_with_two_inflight_ops_recovers_both() {
    let mut ctrl = RtController::new(
        (0..4).map(|_| Box::new(AssetMonitor::new()) as Box<dyn NetworkFunction>).collect(),
    );
    // Two disjoint flow populations, one per source worker.
    for f in 0..FLOWS {
        let tx0 = ctrl.worker_tx(0);
        tx0.send(opennf_rt::WireMsg::Packet { packet: pkt(f as u64 + 1, f) }.to_json())
            .expect("worker alive");
        let tx1 = ctrl.worker_tx(1);
        tx1.send(
            opennf_rt::WireMsg::Packet { packet: pkt(1_000 + f as u64, 256 + f) }.to_json(),
        )
        .expect("worker alive");
    }
    ctrl.quiesce(0).expect("worker alive");
    ctrl.quiesce(1).expect("worker alive");

    // The first Armed append kills the engine: both admitted ops die
    // mid-flight (the second may not even have journaled yet).
    ctrl.crash_after(JournalPhase::Armed);
    let specs = vec![
        OpSpec::mv(
            0,
            2,
            Filter::from_src(opennf_packet::Ipv4Prefix::new(Ipv4Addr::new(10, 0, 0, 0), 24)),
        ),
        OpSpec::mv(
            1,
            3,
            Filter::from_src(opennf_packet::Ipv4Prefix::new(Ipv4Addr::new(10, 0, 1, 0), 24)),
        ),
    ];
    let res = ctrl.run_ops(specs);
    assert!(res.iter().all(|r| matches!(r, Err(RtError::CtrlCrashed))));

    let outcomes = ctrl.recover();
    assert!(!outcomes.is_empty(), "at least the journaled op recovers");
    assert!(
        outcomes.iter().all(|(_, t)| t.is_terminal()),
        "every recovered op reaches a terminal phase: {outcomes:?}"
    );
    // Whatever mix of commit/rollback recovery chose, no flow state may
    // be lost or duplicated across the four instances.
    let harnesses = ctrl.shutdown();
    let total: usize = harnesses
        .iter()
        .map(|h| {
            let any: &dyn std::any::Any = h.nf();
            any.downcast_ref::<AssetMonitor>().unwrap().conn_count()
        })
        .sum();
    assert_eq!(total, 2 * FLOWS as usize, "flow state conserved across recovery");
}
