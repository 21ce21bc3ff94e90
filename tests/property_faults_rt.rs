//! Property-based fault injection for the threaded runtime: random seeded
//! `FaultPlan`s through the `FaultyChannel` shim must (a) keep the
//! end-to-end exactly-once-or-accounted oracle intact, and (b) reconcile
//! exactly at the channel level — every message is delivered once,
//! twice-with-a-duplicate-record, or zero-times-with-a-loss-record — with
//! the delay pump shutting down cleanly afterwards.

use crossbeam::channel::unbounded;
use opennf::prelude::*;
use opennf::rt::{FaultyChannel, RtFaults, WireMsg};
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig { cases: 6, ..ProptestConfig::default() })]

    /// End-to-end: a random `(seed, mask)` spec — the same generator the
    /// soak binary iterates — run through the threaded runtime alone.
    /// Whatever the plan injects, every packet must be processed exactly
    /// once or excused by the fault ledger / abort accounting, and the
    /// run must shut down cleanly (worker joins hand back their state).
    #[test]
    fn random_fault_specs_hold_the_rt_oracle(
        seed in 1u64..10_000,
        mask in 0u32..256,
    ) {
        let spec = conformance::Spec::from_seed(seed, mask);
        let r = conformance::run_rt(&spec);
        prop_assert!(r.ok, "{} (repro: {})", r.detail, spec.repro());
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 16, ..ProptestConfig::default() })]

    /// Channel-level: K packets through one shimmed link reconcile
    /// exactly against the ledger — received count is 0 for a recorded
    /// loss, 2 for a recorded duplicate, 1 otherwise — and `join_pump`
    /// returns once every channel clone is dropped (no leaked delay
    /// threads).
    #[test]
    fn shimmed_link_reconciles_exactly_against_its_ledger(
        plan_seed in 1u64..100_000,
        n_msgs in 20u64..120,
        drop_pm in 0u16..300,
        dup_pm in 0u16..200,
        delay_pm in 0u16..200,
        reorder_pm in 0u16..200,
    ) {
        let src = NodeId(10);
        let dst = NodeId(11);
        let always = (Time(0), Time(u64::MAX));
        let plan = FaultPlan::new(plan_seed)
            .link(Some(src), Some(dst), always.0, always.1, drop_pm, FaultKind::Drop)
            .link(Some(src), Some(dst), always.0, always.1, dup_pm,
                  FaultKind::Duplicate(Dur::micros(200)))
            .link(Some(src), Some(dst), always.0, always.1, delay_pm,
                  FaultKind::Delay(Dur::millis(5)))
            .link(Some(src), Some(dst), always.0, always.1, reorder_pm,
                  FaultKind::Reorder(Dur::millis(3)));
        let (faults, pump) = RtFaults::arm(plan);
        let (tx, rx) = unbounded();
        let ch = FaultyChannel::new(tx, src, dst, Some((faults.clone(), pump)));

        for uid in 1..=n_msgs {
            let key = FlowKey::tcp(
                "10.0.0.1".parse().unwrap(),
                4_000 + (uid % 50) as u16,
                "1.1.1.1".parse().unwrap(),
                80,
            );
            let pkt = Packet::builder(uid, key).flags(TcpFlags::SYN).build();
            ch.send(&WireMsg::Packet { packet: pkt }).unwrap();
        }

        // Dropping every channel clone lets the pump drain its queued
        // delays and exit; join_pump returning IS the clean-shutdown
        // assertion (a leaked delivery thread would hang the test here).
        drop(ch);
        faults.join_pump();

        let mut counts = vec![0u32; n_msgs as usize + 1];
        while let Ok(raw) = rx.try_recv() {
            match WireMsg::from_json(&raw).unwrap() {
                WireMsg::Packet { packet } => counts[packet.uid as usize] += 1,
                other => prop_assert!(false, "unexpected message: {other:?}"),
            }
        }
        let ledger = faults.ledger();
        let lost = ledger.lost_sorted();
        let dup = ledger.duplicated_sorted();
        for uid in 1..=n_msgs {
            let expect = if lost.binary_search(&uid).is_ok() {
                0
            } else if dup.binary_search(&uid).is_ok() {
                2
            } else {
                1
            };
            prop_assert_eq!(
                counts[uid as usize], expect,
                "uid {} (lost={:?} dup={:?} seed={})", uid, lost, dup, plan_seed
            );
        }
    }
}
