//! One controller whose workers are partitioned into shards
//! ([`RtController::build`]). A shard is an ownership domain, not a
//! second event loop: an op whose endpoints lie in different shards is an
//! ordinary engine op — admitted, overlapped with its batch, root-spanned,
//! journaled, any kind, either transfer mode — marked with `ew.handoff`
//! at admission and `ew.release` next to its terminal journal record.
//!
//! What the simulator's sharded control plane models and this does not:
//! shard controllers as separate nodes with a `ctrl_to_ctrl` latency,
//! independent controller crashes, and the `EwWatch`/`EwForward`/
//! `EwRelease` messages between them. In one process whose crash model is
//! "the struct survives" there is one ledger to recover from.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use opennf_nf::{EventedNf, NetworkFunction};
use opennf_nfs::AssetMonitor;
use opennf_packet::{Filter, FlowKey, Packet, TcpFlags};
use opennf_rt::{OpSpec, RtController, WireMsg};
use opennf_telemetry::{Kind, Rec, Telemetry};

fn pkt(uid: u64, flow: u16) -> Packet {
    Packet::builder(
        uid,
        FlowKey::tcp("10.0.0.1".parse().unwrap(), 2000 + flow, "1.1.1.1".parse().unwrap(), 80),
    )
    .flags(if uid <= 40 { TcpFlags::SYN } else { TcpFlags::ACK })
    .build()
}

fn monitors(n: usize) -> Vec<Box<dyn NetworkFunction>> {
    (0..n).map(|_| Box::new(AssetMonitor::new()) as Box<dyn NetworkFunction>).collect()
}

/// One controller over , wall-clock telemetry, no fault plan.
fn sharded(shards: Vec<Vec<Box<dyn NetworkFunction>>>) -> RtController {
    RtController::build(shards, None, Telemetry::wall()).0
}

fn two_shards() -> RtController {
    sharded(vec![monitors(1), monitors(1)])
}

fn conn_counts(harnesses: &[EventedNf]) -> Vec<usize> {
    harnesses
        .iter()
        .map(|h| {
            let any: &dyn std::any::Any = h.nf();
            any.downcast_ref::<AssetMonitor>().unwrap().conn_count()
        })
        .collect()
}

/// The `ew.*` markers in `recs`, in record order.
fn ew_marks(recs: &[Rec]) -> Vec<(&'static str, &str)> {
    recs.iter()
        .filter(|r| r.name.starts_with("ew."))
        .map(|r| (r.name, r.arg.as_deref().unwrap_or("")))
        .collect()
}

/// Begin/end times of the parentless root span of the op leaving `src`.
fn root_window(recs: &[Rec], src: usize) -> (u64, u64) {
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
}

#[test]
fn cross_shard_move_under_live_traffic_is_loss_free() {
    let mut ctrl = two_shards();
    let router = ctrl.router.clone();
    let txs = [ctrl.data_tx(0), ctrl.data_tx(1)];
    let sent = Arc::new(AtomicU64::new(0));
    let sent_gen = sent.clone();
    let gen = std::thread::spawn(move || {
        for uid in 1..=2_000u64 {
            let p = pkt(uid, (uid % 40) as u16);
            if let Some(w) = router.route(&p) {
                let _ = txs[w].send(&WireMsg::Packet { packet: p });
            }
            sent_gen.store(uid, Ordering::Release);
            std::thread::sleep(Duration::from_micros(50));
        }
    });
    while sent.load(Ordering::Acquire) < 200 {
        std::thread::sleep(Duration::from_millis(1));
    }
    let stats = ctrl.run_op(OpSpec::mv(0, 1, Filter::any())).expect("cross-shard move succeeds");
    assert_eq!(stats.chunks, 40, "all 40 flows handed over");
    assert!(stats.bytes > 0);

    // An ordinary engine op, marked as crossing the boundary.
    let recs = ctrl.telemetry().records();
    assert_eq!(
        ew_marks(&recs),
        [
            ("ew.handoff", "op=1 0->1 shard=0 peer=1"),
            ("ew.release", "op=1 committed=true shard=1"),
        ]
    );
    assert!(recs.iter().any(|r| r.kind == Kind::Begin && r.parent == 0 && r.name == "move"));
    assert!(recs.iter().any(|r| r.name == "engine.op_admitted"));

    gen.join().unwrap();
    std::thread::sleep(Duration::from_millis(50));
    assert!(ctrl.abort_lost().is_empty(), "no replay frames lost");
    let harnesses = ctrl.shutdown();
    let (h0, h1) = (&harnesses[0], &harnesses[1]);
    let mut all: Vec<u64> =
        h0.processed_log().iter().chain(h1.processed_log()).copied().collect();
    all.sort_unstable();
    all.dedup();
    assert_eq!(
        all.len(),
        h0.processed_log().len() + h1.processed_log().len(),
        "no packet processed twice"
    );
    assert_eq!(all.len(), 2_000, "every packet processed exactly once");
    assert_eq!(conn_counts(&harnesses), [0, 40], "source deleted, destination whole");
}

#[test]
fn cross_shard_move_emits_canonical_span_sequence() {
    let tel = Telemetry::wall();
    let mut ctrl = RtController::build(vec![monitors(1), monitors(1)], None, tel.clone()).0;
    for uid in 1..=20u64 {
        ctrl.inject(pkt(uid, (uid % 4) as u16)).unwrap();
    }
    ctrl.quiesce(0).unwrap();
    ctrl.move_flows_p2p(0, 1, Filter::any()).expect("cross-shard move succeeds");
    assert_eq!(
        tel.span_sequence("move."),
        ["move.export", "move.transfer", "move.import", "move.flush", "move.fwd_update"],
        "a cross-shard move tiles the same five phases"
    );
    assert_eq!(
        tel.counter("rt.p2p.dials").load(Ordering::Relaxed),
        1,
        "the transfer mode is honoured across the boundary"
    );
    ctrl.shutdown();
}

#[test]
fn same_shard_move_flips_the_one_global_table() {
    // Shard 1 owns global workers 1 and 2.
    let mut ctrl = sharded(vec![monitors(1), monitors(2)]);
    for uid in 1..=20u64 {
        ctrl.data_tx(1).send(&WireMsg::Packet { packet: pkt(uid, (uid % 4) as u16) }).unwrap();
    }
    ctrl.quiesce(1).unwrap();
    // There and back and there again: the table is flipped to the
    // global index and keeps one rule.
    for (src, dst) in [(1, 2), (2, 1), (1, 2)] {
        let stats = ctrl.move_flows_p2p(src, dst, Filter::any()).expect("move succeeds");
        assert_eq!(stats.chunks, 4);
        assert_eq!(ctrl.router.route(&pkt(99, 1)), Some(dst));
        assert_eq!(ctrl.router.len(), 2, "the default route plus one rule for the filter");
    }
    assert!(ew_marks(&ctrl.telemetry().records()).is_empty(), "nothing crossed a shard");
    // A packet injected now follows the table into shard 1.
    ctrl.inject(pkt(21, 1)).unwrap();
    ctrl.quiesce(2).unwrap();
    let harnesses = ctrl.shutdown();
    assert_eq!(harnesses[2].processed_log().last(), Some(&21));
    assert_eq!(conn_counts(&harnesses), [0, 0, 4]);
}

#[test]
fn quiet_cross_shard_move_does_not_sit_out_the_straggler_window() {
    let mut ctrl = two_shards();
    for uid in 1..=20u64 {
        ctrl.data_tx(0).send(&WireMsg::Packet { packet: pkt(uid, (uid % 4) as u16) }).unwrap();
    }
    ctrl.quiesce(0).unwrap();
    // No lookup since construction, and construction is long enough ago.
    std::thread::sleep(Duration::from_millis(30));
    let t0 = Instant::now();
    let stats = ctrl.run_op(OpSpec::mv(0, 1, Filter::any())).expect("cross-shard move succeeds");
    let took = t0.elapsed();
    assert_eq!(stats.chunks, 4);
    assert!(took < Duration::from_millis(100), "quiet cross-shard move took {took:?}");
    assert_eq!(ctrl.router.route(&pkt(99, 1)), Some(1));
    ctrl.shutdown();
}

/// Three shards of two workers, one batch of a relayed move, a P2P move
/// and a copy, every one across a shard boundary: all commit, every
/// flow ends up exactly where its op puts it, the ops overlap in time,
/// and each carries its own handoff/release pair.
#[test]
fn cross_shard_batch_of_mixed_ops_overlaps_and_commits() {
    const PER_SRC: u64 = 30;
    let tel = Telemetry::wall();
    let mut ctrl =
        RtController::build(vec![monitors(2), monitors(2), monitors(2)], None, tel.clone()).0;
    for src in [0usize, 3, 1] {
        for f in 0..PER_SRC {
            let flow = src as u64 * 256 + f;
            let packet = pkt(flow + 1, flow as u16);
            ctrl.data_tx(src).send(&WireMsg::Packet { packet }).unwrap();
        }
        ctrl.quiesce(src).unwrap();
    }
    let results = ctrl.run_ops(vec![
        OpSpec::mv(0, 2, Filter::any()),
        OpSpec::mv_p2p(3, 4, Filter::any()),
        OpSpec::copy(1, 5, Filter::any()),
    ]);
    for (i, r) in results.iter().enumerate() {
        let stats = r.as_ref().unwrap_or_else(|e| panic!("op {i} failed: {e}"));
        assert_eq!(stats.chunks, PER_SRC as usize, "op {i} covered its whole population");
    }

    let recs = tel.records();
    let mut marks = ew_marks(&recs);
    marks.sort_unstable();
    assert_eq!(
        marks,
        [
            ("ew.handoff", "op=1 0->2 shard=0 peer=1"),
            ("ew.handoff", "op=2 3->4 shard=1 peer=2"),
            ("ew.handoff", "op=3 1->5 shard=0 peer=2"),
            ("ew.release", "op=1 committed=true shard=1"),
            ("ew.release", "op=2 committed=true shard=2"),
            ("ew.release", "op=3 committed=true shard=2"),
        ]
    );
    let windows = [0, 3, 1].map(|src| root_window(&recs, src));
    for (i, a) in windows.iter().enumerate() {
        for b in &windows[i + 1..] {
            assert!(a.0 < b.1 && b.0 < a.1, "root spans {a:?} and {b:?} overlap");
        }
    }

    let n = PER_SRC as usize;
    assert_eq!(
        conn_counts(&ctrl.shutdown()),
        [0, n, n, 0, n, n],
        "moves released their sources, the copy kept its"
    );
}
