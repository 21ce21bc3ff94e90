//! P2P as a transfer mode of the engine's move.
//!
//! Partial recovery: when the destination's batch acks are lost on the
//! worker → controller uplink, the retry round must re-request only the
//! flows no `TransferProgress` receipt ever confirmed — not the whole
//! population — and the move must still land every flow exactly once.
//!
//! Engine citizenship: a P2P move is admitted, rooted under its own
//! `move` span, and runs alongside other ops of one batch.

use std::net::Ipv4Addr;
use std::sync::atomic::Ordering;
use std::time::Duration;

use opennf_nf::NetworkFunction;
use opennf_nfs::AssetMonitor;
use opennf_packet::{Filter, FlowKey, Packet, TcpFlags};
use opennf_rt::{worker_node, OpSpec, RtController, WireMsg, CTRL_NODE};
use opennf_telemetry::{Kind, Telemetry};
use opennf_util::{FaultKind, FaultPlan, Time};

/// More than one 64-chunk batch frame, so mid-round `TransferProgress`
/// receipts exist to survive a lost final summary.
const FLOWS: u32 = 200;

fn pkt(uid: u64, flow: u32) -> Packet {
    let key = FlowKey::tcp(
        Ipv4Addr::new(10, 0, (flow >> 8) as u8, flow as u8),
        2000 + (flow % 60_000) as u16,
        Ipv4Addr::new(93, 184, 216, 34),
        80,
    );
    Packet::builder(uid, key).flags(TcpFlags::SYN).build()
}

/// Verdicts are a pure function of `(seed, link, bytes)`, so whether a
/// given seed drops an ack frame is fixed but not chosen by us: search a
/// bounded seed range for a run where the destination's summary was lost
/// mid-round, then assert the retry was partial.
#[test]
fn dropped_batch_ack_retries_only_unconfirmed_flows() {
    for seed in 0..32u64 {
        // Drop ~25% of frames on the dst-worker → controller uplink only:
        // `TransferProgress` receipts and the final `TransferDone` ride
        // that link; the source's summaries and all southbound calls are
        // untouched.
        let plan = FaultPlan::new(seed).link(
            Some(worker_node(1)),
            Some(CTRL_NODE),
            Time::ZERO,
            Time(u64::MAX),
            250,
            FaultKind::Drop,
        );
        let tel = Telemetry::wall();
        let (ctrl, faults) = RtController::new_with_faults_and_telemetry(
            vec![
                Box::new(AssetMonitor::new()) as Box<dyn NetworkFunction>,
                Box::new(AssetMonitor::new()),
            ],
            plan,
            tel.clone(),
        );
        let mut ctrl = ctrl.with_reply_timeout(Duration::from_millis(400));
        for f in 0..FLOWS {
            ctrl.inject(pkt(f as u64 + 1, f)).expect("worker alive");
        }
        ctrl.quiesce(0).expect("worker alive");

        let res = ctrl.move_flows_p2p(0, 1, Filter::any());
        let retries = tel.counter("rt.p2p.retry_rounds").load(Ordering::Relaxed);
        let refetched = tel.counter("rt.p2p.refetch_flows").load(Ordering::Relaxed);
        let hit = res.is_ok() && retries >= 1 && refetched >= 1;
        if !hit {
            // This seed either dropped nothing relevant (clean round) or
            // lost every ack three rounds running (accounted abort);
            // neither exercises the partial-retry path — next seed.
            ctrl.shutdown();
            faults.join_pump();
            continue;
        }

        let stats = res.expect("checked Ok above");
        assert_eq!(stats.chunks, FLOWS as usize, "seed {seed}: every flow transferred");
        // The retry narrowed to the unconfirmed gap: strictly fewer flows
        // were re-requested than the population, because the batch-granular
        // receipts that did arrive count as confirmed.
        assert!(
            refetched < FLOWS as u64 * retries,
            "seed {seed}: refetched {refetched} over {retries} round(s) — not partial"
        );
        assert!(
            !faults.ledger().log.is_empty(),
            "seed {seed}: the plan must actually have fired"
        );
        // The retry ran inside the engine: the op was admitted and has
        // its own root span.
        assert!(
            tel.records().iter().any(|r| r.kind == Kind::Begin && r.name == "move"),
            "seed {seed}: the P2P op opened a `move` root span"
        );
        assert!(
            tel.hist_snapshot("engine.admission_wait.w0").is_some_and(|h| h.count == 1),
            "seed {seed}: the P2P op went through admission"
        );

        // Copy-then-delete completed exactly once despite the retry.
        let harnesses = ctrl.shutdown();
        faults.join_pump();
        let count = |i: usize| {
            let any: &dyn std::any::Any = harnesses[i].nf();
            any.downcast_ref::<AssetMonitor>().unwrap().conn_count()
        };
        assert_eq!(count(0), 0, "seed {seed}: source released");
        assert_eq!(count(1), FLOWS as usize, "seed {seed}: destination holds all flows");
        return;
    }
    panic!("no seed in 0..32 produced a dropped ack with a successful partial retry");
}

/// The destination's import bookkeeping belongs to one transfer round, not
/// to the worker: a flow set that an earlier P2P move already landed at
/// worker 1 moves back and then in again, and this time a chunk batch is
/// dropped on the direct link. What worker 1 imported the first time must
/// not confirm the dropped batch — the reconcile has to see the gap,
/// re-request it, and only then release the source.
#[test]
fn an_earlier_p2p_move_into_the_same_worker_confirms_nothing() {
    // The peer link starts dropping once the first two moves are done.
    let drops_from = Time(400_000_000);
    for seed in 0..32u64 {
        let plan = FaultPlan::new(seed).link(
            Some(worker_node(0)),
            Some(worker_node(1)),
            drops_from,
            Time(u64::MAX),
            250,
            FaultKind::Drop,
        );
        let tel = Telemetry::wall();
        let (ctrl, faults) = RtController::new_with_faults_and_telemetry(
            vec![
                Box::new(AssetMonitor::new()) as Box<dyn NetworkFunction>,
                Box::new(AssetMonitor::new()),
            ],
            plan,
            tel.clone(),
        );
        let reply_timeout = Duration::from_millis(400);
        let mut ctrl = ctrl.with_reply_timeout(reply_timeout);
        for f in 0..FLOWS {
            ctrl.inject(pkt(f as u64 + 1, f)).expect("worker alive");
        }
        ctrl.quiesce(0).expect("worker alive");

        let first = ctrl.move_flows_p2p(0, 1, Filter::any()).expect("clean first move");
        assert_eq!(first.chunks, FLOWS as usize);
        ctrl.move_flows_lossfree(1, 0, Filter::any()).expect("clean move back");
        assert_eq!(tel.counter("rt.p2p.retry_rounds").load(Ordering::Relaxed), 0);
        while faults.now() < drops_from {
            std::thread::sleep(Duration::from_millis(5));
        }

        let t0 = std::time::Instant::now();
        let res = ctrl.move_flows_p2p(0, 1, Filter::any());
        let took = t0.elapsed();
        let refetched = tel.counter("rt.p2p.refetch_flows").load(Ordering::Relaxed);
        // The case under test: a batch other than the last was dropped, so
        // the round closed on its two summaries (not on its deadline) with
        // the destination's summary short of the export — and the narrower
        // round that followed got through.
        let hit = res.is_ok() && refetched >= 1 && took < reply_timeout;
        let harnesses = ctrl.shutdown();
        faults.join_pump();
        if !hit {
            continue;
        }

        assert_eq!(res.expect("checked Ok above").chunks, FLOWS as usize);
        assert!(refetched < FLOWS as u64, "seed {seed}: only the gap was re-requested");
        let count = |i: usize| {
            let any: &dyn std::any::Any = harnesses[i].nf();
            any.downcast_ref::<AssetMonitor>().unwrap().conn_count()
        };
        assert_eq!(count(0), 0, "seed {seed}: source released");
        assert_eq!(count(1), FLOWS as usize, "seed {seed}: destination holds every flow");
        return;
    }
    panic!("no seed in 0..32 dropped a non-final batch of the second move and retried it");
}

/// One batch of a P2P move, a relayed move and a copy on disjoint worker
/// pairs: all three commit, every flow ends up exactly where its op puts
/// it, and the P2P op's root span overlaps the other two in time — it
/// shares the dispatch loop with them instead of blocking it. An
/// undecodable frame queued on the uplink ahead of the batch disturbs none
/// of them and shows up in the flight recorder with the decoder's reason.
#[test]
fn p2p_move_overlaps_a_relayed_move_and_a_copy_in_one_batch() {
    const PER_SRC: u32 = 30;
    let tel = Telemetry::wall();
    let mut ctrl = RtController::new_with_telemetry(
        (0..6).map(|_| Box::new(AssetMonitor::new()) as Box<dyn NetworkFunction>).collect(),
        tel.clone(),
    );
    for src in [0usize, 2, 4] {
        let tx = ctrl.worker_tx(src);
        for f in 0..PER_SRC {
            let flow = src as u32 * 256 + f;
            tx.send(WireMsg::Packet { packet: pkt(flow as u64 + 1, flow) }.to_json())
                .expect("worker alive");
        }
        ctrl.quiesce(src).expect("worker alive");
    }

    ctrl.ctrl_tx().send("#18446744073709551615:{}".into()).expect("controller alive");
    let results = ctrl.run_ops(vec![
        OpSpec::mv_p2p(0, 1, Filter::any()),
        OpSpec::mv(2, 3, Filter::any()),
        OpSpec::copy(4, 5, Filter::any()),
    ]);
    for (i, r) in results.iter().enumerate() {
        let stats = r.as_ref().unwrap_or_else(|e| panic!("op {i} failed: {e}"));
        assert_eq!(stats.chunks, PER_SRC as usize, "op {i} covered its whole population");
    }

    let recs = tel.records();
    assert_eq!(tel.counter("rt.frames.bad").load(Ordering::Relaxed), 1);
    let bad = recs.iter().find(|r| r.name == "wire.bad_frame").expect("bad frame recorded");
    assert_eq!(bad.arg.as_deref(), Some("netstring truncated"));

    // Root spans are the parentless `move`/`copy` spans; their arg names
    // the op's endpoints.
    let root_window = |src: usize| {
        let begin = recs
            .iter()
            .find(|r| {
                r.kind == Kind::Begin
                    && r.parent == 0
                    && r.arg.as_deref().is_some_and(|a| a.contains(&format!(" src={src} ")))
            })
            .unwrap_or_else(|| panic!("op from worker {src} has a root span"));
        let end = recs
            .iter()
            .find(|r| r.kind == Kind::End && r.id == begin.id)
            .expect("root span closed");
        (begin.t_ns, end.t_ns)
    };
    let p2p = root_window(0);
    for other in [root_window(2), root_window(4)] {
        assert!(
            other.0 < p2p.1 && p2p.0 < other.1,
            "P2P op {p2p:?} overlaps its batch neighbour {other:?}"
        );
    }

    let harnesses = ctrl.shutdown();
    let counts: Vec<usize> = harnesses
        .iter()
        .map(|h| {
            let any: &dyn std::any::Any = h.nf();
            any.downcast_ref::<AssetMonitor>().unwrap().conn_count()
        })
        .collect();
    let n = PER_SRC as usize;
    assert_eq!(counts, [0, n, 0, n, n, n], "moves released their sources, the copy kept its");
}
