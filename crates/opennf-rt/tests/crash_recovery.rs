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
//! Recovery resumes the op engine itself, so every recovered op must also
//! look like an engine op: a journal that climbs through the phases to one
//! terminal record, and engine state transitions that end in `Done`.

use std::net::Ipv4Addr;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

use opennf_controller::{JournalPhase, OpId};
use opennf_nf::{EventedNf, NetworkFunction};
use opennf_nfs::AssetMonitor;
use opennf_packet::{Filter, FlowKey, Packet, TcpFlags};
use opennf_rt::{OpSpec, RtController, RtError, WireMsg};
use opennf_telemetry::Telemetry;

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

/// The two loaded monitors in one shard, or one in each of two shards.
fn loaded(sharded: bool) -> RtController {
    let shards = if sharded {
        vec![vec![monitor()], vec![monitor()]]
    } else {
        vec![vec![monitor(), monitor()]]
    };
    let mut ctrl = RtController::build(shards, None, Telemetry::wall()).0;
    for f in 0..FLOWS {
        ctrl.inject(pkt(f as u64 + 1, f)).expect("worker alive");
    }
    ctrl.quiesce(0).expect("worker alive");
    ctrl
}

/// A recovered op is an engine op: its journal records climb strictly
/// through the phases to exactly one terminal record (a move failing
/// forward also journals `Imported` and `Flushed`), and after recovery
/// starts the trace holds the engine's state transitions for it, the last
/// one into `Done`.
fn assert_resumed_by_engine(ctrl: &RtController, op: u64, move_forward: bool, case: &str) {
    let phases: Vec<JournalPhase> =
        ctrl.journal().records.iter().filter(|r| r.op == OpId(op)).map(|r| r.phase).collect();
    assert!(phases.windows(2).all(|w| w[0] < w[1]), "{case}: journal phases climb: {phases:?}");
    assert_eq!(
        phases.iter().filter(|p| p.is_terminal()).count(),
        1,
        "{case}: exactly one terminal record: {phases:?}"
    );
    if move_forward {
        assert!(
            phases.contains(&JournalPhase::Imported) && phases.contains(&JournalPhase::Flushed),
            "{case}: a move failing forward runs the rest of the spine: {phases:?}"
        );
    }
    let recs = ctrl.telemetry().records();
    let start = recs.iter().position(|r| r.name == "recovery.rt").expect("recovery span");
    let prefix = format!("op={op} ");
    let states: Vec<&str> = recs[start..]
        .iter()
        .filter(|r| r.name == "engine.op_state")
        .filter_map(|r| r.arg.as_deref())
        .filter(|a| a.starts_with(&prefix))
        .collect();
    assert!(
        states.last().is_some_and(|s| s.ends_with("to=Done")),
        "{case}: the engine drove op {op} to Done: {states:?}"
    );
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
        let mut ctrl = loaded(sharded);
        ctrl.crash_after(phase);
        let res = ctrl.run_op(mv(0, 1, Filter::any()));
        assert!(
            matches!(res, Err(RtError::CtrlCrashed)),
            "{case}: crashed op must fail with CtrlCrashed, got {:?}",
            res
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
        assert_resumed_by_engine(&ctrl, 1, forward, &case);

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
        ctrl
    };

    // Where recovery itself left the state — and the source's event
    // filter is gone: a packet of a new flow sent there is processed.
    let mut ctrl = crashed_and_recovered();
    ctrl.worker_tx(0)
        .send(WireMsg::Packet { packet: pkt(PROBE, FLOWS) }.to_json())
        .expect("worker alive");
    ctrl.quiesce(0).expect("worker alive");
    let harnesses = ctrl.shutdown();
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
    let mut ctrl = crashed_and_recovered();
    let (src, dst) = if forward { (1, 0) } else { (0, 1) };
    let stats = ctrl
        .run_op(mv(src, dst, Filter::any()))
        .unwrap_or_else(|e| panic!("{case}: post-recovery move failed: {e}"));
    assert_eq!(stats.chunks, FLOWS as usize, "{case}: post-recovery move is whole");

    // The follow-up move put everything at `dst`; nothing was lost
    // or duplicated by the crash + recovery + re-move sequence.
    let (m0, m1) = conn_counts(ctrl.shutdown());
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
        let mut ctrl = loaded(false);
        ctrl.crash_after(phase);
        let res = ctrl.run_op(OpSpec::copy(0, 1, Filter::any()));
        assert!(
            matches!(res, Err(RtError::CtrlCrashed)),
            "{phase:?}: crashed copy must fail with CtrlCrashed, got {:?}",
            res
        );

        let outcomes = ctrl.recover();
        let expected = if forward { JournalPhase::Committed } else { JournalPhase::Aborted };
        assert_eq!(outcomes.len(), 1, "{phase:?}: one op recovered");
        assert_eq!(outcomes[0].1, expected, "{phase:?}: terminal phase");
        assert!(!ctrl.is_crashed(), "{phase:?}: recovery clears the crash flag");
        assert_resumed_by_engine(&ctrl, 1, false, &format!("copy {phase:?}"));

        // The controller survives: a fresh full copy completes.
        let stats = ctrl
            .run_op(OpSpec::copy(0, 1, Filter::any()))
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
        let mut ctrl = loaded(false);
        ctrl.crash_after(phase);
        let res = ctrl.run_op(OpSpec::share(0, 1, Filter::any()));
        assert!(
            matches!(res, Err(RtError::CtrlCrashed)),
            "{phase:?}: crashed share must fail with CtrlCrashed, got {:?}",
            res
        );

        let outcomes = ctrl.recover();
        let expected = if forward { JournalPhase::Committed } else { JournalPhase::Aborted };
        assert_eq!(outcomes.len(), 1, "{phase:?}: one op recovered");
        assert_eq!(outcomes[0].1, expected, "{phase:?}: terminal phase");
        let last = ctrl.journal().records.last().expect("journal non-empty");
        assert_eq!(last.phase, expected, "{phase:?}: journal ends terminal");
        assert_resumed_by_engine(&ctrl, 1, false, &format!("share {phase:?}"));

        // The event filter is torn down either way: a follow-up move
        // (which arms its own filter at the same source) runs clean.
        let stats = ctrl
            .run_op(OpSpec::mv(0, 1, Filter::any()))
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

/// A crash with two ops in flight: recovery settles *both* in op-id
/// order — including the one whose enable ack never landed, so it has a
/// residue but no journal record. Both roll back, and both sources are
/// disarmed: a probe matching each op's filter is processed there.
#[test]
fn crash_with_two_inflight_ops_recovers_both() {
    let mut ctrl =
        RtController::new_with_telemetry((0..4).map(|_| monitor()).collect(), Telemetry::wall());
    // Two disjoint flow populations, one per source worker.
    for f in 0..FLOWS {
        let tx0 = ctrl.worker_tx(0);
        tx0.send(WireMsg::Packet { packet: pkt(f as u64 + 1, f) }.to_json())
            .expect("worker alive");
        let tx1 = ctrl.worker_tx(1);
        tx1.send(WireMsg::Packet { packet: pkt(1_000 + f as u64, 256 + f) }.to_json())
            .expect("worker alive");
    }
    ctrl.quiesce(0).expect("worker alive");
    ctrl.quiesce(1).expect("worker alive");

    // The first Armed append kills the engine: both admitted ops die
    // mid-flight, the second before it journaled anything.
    ctrl.crash_after(JournalPhase::Armed);
    let prefix = |third: u8| {
        Filter::from_src(opennf_packet::Ipv4Prefix::new(Ipv4Addr::new(10, 0, third, 0), 24))
    };
    let res = ctrl.run_ops(vec![OpSpec::mv(0, 2, prefix(0)), OpSpec::mv(1, 3, prefix(1))]);
    assert!(res.iter().all(|r| matches!(r, Err(RtError::CtrlCrashed))));

    let outcomes = ctrl.recover();
    assert_eq!(
        outcomes,
        [(OpId(1), JournalPhase::Aborted), (OpId(2), JournalPhase::Aborted)],
        "both admitted ops roll back, journaled or not"
    );
    assert!(ctrl.journal().in_flight().is_empty(), "nothing left in flight");

    // Each probe matches its op's filter (10.0.0.200, 10.0.1.200).
    let probes = [(0, 9_000, 200), (1, 9_001, 256 + 200)];
    for (w, uid, flow) in probes {
        ctrl.worker_tx(w)
            .send(WireMsg::Packet { packet: pkt(uid, flow) }.to_json())
            .expect("worker alive");
        ctrl.quiesce(w).expect("worker alive");
    }
    let harnesses = ctrl.shutdown();
    for (w, uid, _) in probes {
        assert!(harnesses[w].processed_log().contains(&uid), "source {w} is disarmed");
    }
    // No flow state lost or duplicated across the four instances.
    let total: usize = harnesses
        .iter()
        .map(|h| {
            let any: &dyn std::any::Any = h.nf();
            any.downcast_ref::<AssetMonitor>().unwrap().conn_count()
        })
        .sum();
    assert_eq!(total, 2 * FLOWS as usize + 2, "flow state conserved across recovery");
}

/// Failing forward must keep the engine's order — flip the route, drain
/// stragglers, only then disarm the source — while traffic keeps flowing:
/// a packet of a new flow that reaches an unarmed source before the flip
/// would leave state there. A generator routes new-flow packets through
/// the rule table every ~20 µs while `recover()` runs; afterwards the
/// source holds no state and every generated packet was processed exactly
/// once across the two workers.
#[test]
fn fail_forward_under_live_traffic_leaves_the_source_empty() {
    const GEN_BASE: u64 = 100_000;
    let phases = [JournalPhase::Transferred, JournalPhase::Imported, JournalPhase::Flushed];
    for (mode, mv) in [("relayed", OpSpec::mv as Mv), ("p2p", OpSpec::mv_p2p)] {
        for phase in phases {
            let case = format!("{mode} {phase:?}");
            let mut ctrl = loaded(false);
            ctrl.crash_after(phase);
            let res = ctrl.run_op(mv(0, 1, Filter::any()));
            assert!(matches!(res, Err(RtError::CtrlCrashed)), "{case}: {:?}", res);

            let stop = Arc::new(AtomicBool::new(false));
            let gen = {
                let (stop, router) = (stop.clone(), ctrl.router.clone());
                let txs = [ctrl.data_tx(0), ctrl.data_tx(1)];
                std::thread::spawn(move || {
                    let mut sent = 0u64;
                    while !stop.load(Ordering::Relaxed) {
                        let p = pkt(GEN_BASE + sent, FLOWS + sent as u32);
                        if let Some(w) = router.route(&p) {
                            txs[w].send(&WireMsg::Packet { packet: p }).expect("worker alive");
                        }
                        sent += 1;
                        std::thread::sleep(Duration::from_micros(20));
                    }
                    sent
                })
            };
            let outcomes = ctrl.recover();
            stop.store(true, Ordering::Relaxed);
            let sent = gen.join().unwrap();
            assert_eq!(outcomes, [(OpId(1), JournalPhase::Committed)], "{case}: fails forward");

            ctrl.quiesce(0).expect("worker alive");
            ctrl.quiesce(1).expect("worker alive");
            let harnesses = ctrl.shutdown();
            let mut seen: Vec<u64> = harnesses
                .iter()
                .flat_map(|h| h.processed_log().iter().copied())
                .filter(|&uid| uid >= GEN_BASE)
                .collect();
            seen.sort_unstable();
            let want: Vec<u64> = (GEN_BASE..GEN_BASE + sent).collect();
            assert!(seen == want, "{case}: {} of {sent} generated packets processed", seen.len());
            assert_eq!(conn_counts(harnesses).0, 0, "{case}: the source holds no state");
        }
    }
}

/// A packet the armed source drops between the crash and `recover()`
/// raises an event. A `quiesce` that sees the event must hand it to the
/// crashed op's residue, so recovery replays it: to the source on
/// rollback, to the destination on fail-forward — processed exactly once,
/// nothing in `abort_lost`.
#[test]
fn events_seen_by_quiesce_after_a_crash_are_replayed() {
    const PROBE: u64 = 7_777;
    let phases = [
        (JournalPhase::Armed, false),
        (JournalPhase::ExportDone, false),
        (JournalPhase::Transferred, true),
    ];
    for (phase, forward) in phases {
        let mut ctrl = loaded(false);
        ctrl.crash_after(phase);
        let res = ctrl.run_op(OpSpec::mv(0, 1, Filter::any()));
        assert!(matches!(res, Err(RtError::CtrlCrashed)), "{phase:?}: {:?}", res);
        ctrl.worker_tx(0)
            .send(WireMsg::Packet { packet: pkt(PROBE, 0) }.to_json())
            .expect("worker alive");
        ctrl.quiesce(0).expect("worker alive");

        let outcomes = ctrl.recover();
        let expected = if forward { JournalPhase::Committed } else { JournalPhase::Aborted };
        assert_eq!(outcomes, [(OpId(1), expected)], "{phase:?}: terminal phase");
        assert!(ctrl.abort_lost().is_empty(), "{phase:?}: nothing given up");
        ctrl.quiesce(0).expect("worker alive");
        ctrl.quiesce(1).expect("worker alive");
        let harnesses = ctrl.shutdown();
        let at = |w: usize| harnesses[w].processed_log().iter().filter(|&&u| u == PROBE).count();
        let want = if forward { (0, 1) } else { (1, 0) };
        assert_eq!((at(0), at(1)), want, "{phase:?}: the probe is processed exactly once");
    }
}

/// A flush takes the spooled events out of the residue, so a flush that
/// cannot reach the destination must account for every one of them: a
/// packet the armed source dropped on the op's instruction is either
/// replayed or named in `abort_lost`, never silently gone. The engine is
/// crashed after `Imported`, 20 packets are dropped at the still-armed
/// source and spooled by `quiesce`, then the destination shuts down
/// before `recover()` resumes the op at its flush.
#[test]
fn flush_to_a_dead_destination_accounts_every_spooled_packet() {
    const LATE: u64 = 5_000;
    let mut ctrl = RtController::new_with_telemetry(vec![monitor(), monitor()], Telemetry::wall());
    for f in 0..50 {
        ctrl.inject(pkt(f as u64 + 1, f)).expect("worker alive");
    }
    ctrl.quiesce(0).expect("worker alive");
    ctrl.crash_after(JournalPhase::Imported);
    let res = ctrl.run_op(OpSpec::mv(0, 1, Filter::any()));
    assert!(matches!(res, Err(RtError::CtrlCrashed)), "{:?}", res);
    for i in 0..20 {
        ctrl.inject(pkt(LATE + i, i as u32)).expect("worker alive");
    }
    ctrl.quiesce(0).expect("worker alive");
    // Shut the destination down and wait until its inbox is closed.
    while ctrl.worker_tx(1).send(WireMsg::Shutdown.to_json()).is_ok() {
        std::thread::sleep(Duration::from_millis(1));
    }

    let outcomes = ctrl.recover();
    assert_eq!(outcomes, [(OpId(1), JournalPhase::Aborted)], "the flush cannot complete");
    let want: Vec<u64> = (LATE..LATE + 20).collect();
    assert_eq!(ctrl.abort_lost(), want, "every spooled packet is accounted");
    let last = ctrl.journal().records.last().expect("journal non-empty");
    let mut lost = last.report.abort_lost.clone();
    lost.sort_unstable();
    assert_eq!(lost, want, "the op's report names them too");
    assert_eq!(last.report.events_released, 0, "nothing was replayed");
    ctrl.shutdown();
}
