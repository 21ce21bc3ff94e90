//! Differential fault conformance: the same scenario and the same seeded
//! `FaultPlan` run through the discrete-event simulator and the threaded
//! runtime, and both must satisfy the exactly-once-or-accounted oracle.
//! On fault-free specs they must also agree on final NF state digests and
//! processed counts; under faults, each side must at least be
//! rerun-deterministic (sim: byte-identical; rt: ledger-identical).

use conformance::{
    differential, run_rt, run_sim, Spec, M_ALL_FAULTS, M_DEFAULT, M_DROP_DATA, M_DROP_UP,
    M_DUP_DATA, M_FULL_LOAD, M_NO_MOVE, M_P2P,
};

/// With no faults the two runtimes are observationally equivalent: the
/// same packets are processed, and the final per-flow state (every chunk
/// of both instances) hashes identically.
#[test]
fn fault_free_runs_agree_on_state_digest_and_processed_count() {
    for seed in [1u64, 42, 1337] {
        let spec = Spec::from_seed(seed, M_FULL_LOAD);
        assert!(spec.is_fault_free());
        let r = differential(&spec);
        assert!(r.ok, "seed {seed}: {} (repro: {})", r.detail, spec.repro());
        assert_eq!(r.sim.digest, r.rt.digest, "seed {seed} digests");
        assert_eq!(r.sim.processed, r.rt.processed, "seed {seed} processed");
    }
}

/// The full fault cocktail — drops, delays, duplicates, reorders, a
/// source crash + restart, a destination stall — injected into both
/// runtimes from the same plan. Both sides must account for every packet.
#[test]
fn same_fault_plan_drives_both_runtimes_and_both_account_for_every_packet() {
    for seed in [2u64, 8] {
        let spec = Spec::from_seed(seed, M_ALL_FAULTS | M_FULL_LOAD);
        assert!(!spec.is_fault_free());
        let r = differential(&spec);
        assert!(r.ok, "seed {seed}: {} (repro: {})", r.detail, spec.repro());
        // The plan really fired in both runtimes (the oracle is not
        // vacuous): each side's canonical fault record is non-trivial.
        assert_ne!(r.sim.fault_canonical, "none", "sim injected nothing");
        assert!(!r.rt.fault_canonical.is_empty(), "rt injected nothing");
    }
}

/// Rerunning the same `(seed, mask)` is deterministic on each side:
/// the simulator replays byte-identically (canonical fault record and
/// state digest), and the threaded runtime's content-addressed dice make
/// its injected-fault ledger rerun-identical despite thread scheduling.
///
/// The rt guarantee is "same per-link message set ⇒ same ledger", so the
/// spec must keep the message set schedule-determined: `M_NO_MOVE`. With
/// a move in flight, the route flip races the generator thread, and a
/// packet that lands on the faulted link in one run may miss it in the
/// next — the ledger then legitimately differs (moves under faults are
/// exercised by the oracle tests above, which don't compare ledgers).
#[test]
fn same_seed_reruns_are_deterministic_per_runtime() {
    let spec = Spec::from_seed(4, M_DROP_DATA | M_DUP_DATA | M_DROP_UP | M_FULL_LOAD | M_NO_MOVE);
    let (a, b) = (run_sim(&spec), run_sim(&spec));
    assert_eq!(a.fault_canonical, b.fault_canonical, "sim fault record replays");
    assert_eq!(a.digest, b.digest, "sim state digest replays");
    assert_eq!(a.processed, b.processed, "sim processed count replays");

    let (a, b) = (run_rt(&spec), run_rt(&spec));
    assert_eq!(a.fault_canonical, b.fault_canonical, "rt ledger is rerun-identical");
}

/// The P2P bulk-transfer move variant (source streams chunk batches
/// directly to the destination) is observationally equivalent to the
/// controller-mediated move on fault-free specs: both runtimes complete
/// the move and agree on final state digests and processed counts.
#[test]
fn p2p_move_fault_free_agrees_across_runtimes() {
    for seed in [6u64, 21] {
        let spec = Spec::from_seed(seed, M_FULL_LOAD | M_P2P);
        assert!(spec.is_fault_free(), "bare M_P2P must not arm any fault");
        let r = differential(&spec);
        assert!(r.ok, "seed {seed}: {} (repro: {})", r.detail, spec.repro());
        assert_eq!(r.sim.digest, r.rt.digest, "seed {seed} digests");
        assert_eq!(r.sim.processed, r.rt.processed, "seed {seed} processed");
        assert!(r.sim.move_completed && r.rt.move_completed, "seed {seed} move completed");
    }
}

/// P2P under the full fault cocktail — including drops on the direct
/// src → dst chunk-batch link — must still satisfy the
/// exactly-once-or-accounted oracle on both sides: a dropped batch costs
/// a narrower retry round (or an accounted abort), never silent loss.
#[test]
fn p2p_move_under_faults_accounts_for_every_packet() {
    for seed in [9u64, 11] {
        let spec = Spec::from_seed(seed, M_DEFAULT | M_P2P);
        assert!(!spec.is_fault_free());
        let r = differential(&spec);
        assert!(r.ok, "seed {seed}: {} (repro: {})", r.detail, spec.repro());
    }
}

/// The default soak mask (what CI iterates) holds on its first seeds.
#[test]
fn default_soak_mask_first_seeds_pass() {
    for seed in [3u64, 5] {
        let spec = Spec::from_seed(seed, M_DEFAULT);
        let r = differential(&spec);
        assert!(r.ok, "seed {seed}: {} (repro: {})", r.detail, spec.repro());
    }
}

/// Telemetry span links cross the controller → worker runtime boundary:
/// a southbound request frame carries the id of the controller phase span
/// that sent it, and the worker's `rt.frame.decode` span opens *under*
/// that id — on a different thread. The trace viewer can therefore walk
/// from a controller `move.export` span into the worker that served it.
#[test]
fn worker_decode_spans_link_to_the_controller_phase_span() {
    use opennf_telemetry::{Kind, Telemetry};

    let tel = Telemetry::wall();
    let mut ctrl = opennf_rt::RtController::new_with_telemetry(
        vec![
            Box::new(opennf_nfs::AssetMonitor::new()) as Box<dyn opennf_nf::NetworkFunction>,
            Box::new(opennf_nfs::AssetMonitor::new()),
        ],
        tel.clone(),
    );
    for uid in 1..=20u64 {
        let key = opennf_packet::FlowKey::tcp(
            format!("10.0.0.{}", uid % 8 + 1).parse().unwrap(),
            2000 + (uid % 8) as u16,
            "93.184.216.34".parse().unwrap(),
            80,
        );
        let pkt = opennf_packet::Packet::builder(uid, key)
            .flags(opennf_packet::TcpFlags::SYN)
            .build();
        ctrl.inject(pkt).expect("worker alive");
    }
    ctrl.quiesce(0).expect("worker alive");
    ctrl.run_op(opennf_rt::OpSpec::mv(0, 1, opennf_packet::Filter::any()))
        .expect("move succeeds");
    ctrl.shutdown();

    let recs = tel.records();
    let phase_begins: Vec<_> = recs
        .iter()
        .filter(|r| r.kind == Kind::Begin && r.name.starts_with("move."))
        .collect();
    let decode_begins: Vec<_> = recs
        .iter()
        .filter(|r| r.kind == Kind::Begin && r.name == "rt.frame.decode")
        .collect();
    assert!(!decode_begins.is_empty(), "linked requests open worker decode spans");
    // Every decode span hangs off a real controller phase span, recorded
    // by a different thread — the link is cross-runtime, not a local
    // parent that happens to share an id.
    for d in &decode_begins {
        let parent = phase_begins
            .iter()
            .find(|p| p.id == d.parent)
            .unwrap_or_else(|| panic!("decode span parent {} is a controller phase span", d.parent));
        assert_ne!(parent.tid, d.tid, "link crosses the thread boundary");
    }
    // The export phase specifically is linked: its request frames
    // (EnableEvents, GetPerflowChunked) carry the span id southbound.
    let export = phase_begins.iter().find(|p| p.name == "move.export").expect("export span");
    assert!(
        decode_begins.iter().any(|d| d.parent == export.id),
        "at least one worker decode span links to move.export"
    );
}
