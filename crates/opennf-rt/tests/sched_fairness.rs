//! Timing of the op engine, measured end-to-end.
//!
//! Fairness of the op scheduler: four copies contending on one source
//! under `WeightedFair` must be admitted with comparable waits — the
//! `engine.admission_wait.*` histogram's exact min/max bound the spread.
//!
//! The post-flip quiet window: a move waits out `FWD_IDLE` after the route
//! flip only when the data plane looked a route up within `FWD_IDLE` of
//! it; packets already queued at the source are covered by the FIFO
//! teardown alone.

use std::net::Ipv4Addr;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use opennf_nf::NetworkFunction;
use opennf_nfs::AssetMonitor;
use opennf_packet::{Filter, FlowKey, Ipv4Prefix, Packet, TcpFlags};
use opennf_rt::{
    JournalPhase, OpSpec, RtController, SchedConfig, SchedPolicy, WireEvent, WireMsg,
};
use opennf_telemetry::Telemetry;

const FLOWS: u32 = 30;

/// The engine's `FWD_IDLE`.
const FWD_IDLE: Duration = Duration::from_millis(20);

fn pkt(uid: u64, flow: u32) -> Packet {
    let key = FlowKey::tcp(
        Ipv4Addr::new(10, 0, (flow >> 8) as u8, flow as u8),
        2000 + (flow % 60_000) as u16,
        Ipv4Addr::new(93, 184, 216, 34),
        80,
    );
    Packet::builder(uid, key).flags(TcpFlags::SYN).build()
}

/// A move holds the write lock on worker 0 while four copies from that
/// same source queue behind it. When the move commits, the scheduler
/// admits all four in the same sweep (the default stream cap allows four
/// concurrent readers), so each copy's admission wait is dominated by the
/// same blocking-move duration: max/min ≤ 2 is the fairness bound the
/// subsystem promises, with lots of headroom over scheduling jitter.
#[test]
fn four_contending_copies_admit_with_bounded_wait_spread() {
    let tel = Telemetry::wall();
    let mut ctrl = RtController::new_with_telemetry(
        (0..6).map(|_| Box::new(AssetMonitor::new()) as Box<dyn NetworkFunction>).collect(),
        tel.clone(),
    );
    // Equal op-class costs: the first DRR pass admits the move (submitted
    // first, so its source heads the rotation) before any copy — with the
    // default costs a 64-cost move never fits the first 32-deficit pass
    // and the copies would jump the queue instead of contending.
    let cfg = SchedConfig { move_cost: 32, copy_cost: 32, share_cost: 32, ..SchedConfig::default() };
    ctrl.set_sched_config(SchedPolicy::WeightedFair, cfg);

    // Load both endpoints of the blocking move so it streams real state
    // (the longer it runs, the more the four waits converge relatively).
    for f in 0..FLOWS {
        let tx0 = ctrl.worker_tx(0);
        tx0.send(opennf_rt::WireMsg::Packet { packet: pkt(f as u64 + 1, f) }.to_json())
            .expect("worker alive");
        let tx1 = ctrl.worker_tx(1);
        tx1.send(opennf_rt::WireMsg::Packet { packet: pkt(1_000 + f as u64, 256 + f) }.to_json())
            .expect("worker alive");
    }
    ctrl.quiesce(0).expect("worker alive");
    ctrl.quiesce(1).expect("worker alive");

    // One batch: the move (1 → 0) write-locks worker 0; the four copies
    // (0 → 2..=5) all need a read lock on it and must wait it out.
    let specs = vec![
        OpSpec::mv(1, 0, Filter::any()),
        OpSpec::copy(0, 2, Filter::any()),
        OpSpec::copy(0, 3, Filter::any()),
        OpSpec::copy(0, 4, Filter::any()),
        OpSpec::copy(0, 5, Filter::any()),
    ];
    let results = ctrl.run_ops(specs);
    for (i, r) in results.iter().enumerate() {
        assert!(r.is_ok(), "op {i} failed: {r:?}");
    }

    // The four copies observe into the source's wait histogram (the move
    // observes into w1's); exact extremes bound the spread.
    let snap = tel.hist_snapshot("engine.admission_wait.w0").expect("histogram recorded");
    assert_eq!(snap.count, 4, "all four copies admitted");
    assert!(snap.min > 0, "every copy waited out the blocking move");
    let ratio = snap.max as f64 / snap.min as f64;
    assert!(
        ratio <= 2.0,
        "admission-wait spread under WeightedFair: max={} min={} ratio={ratio:.3}",
        snap.max,
        snap.min
    );

    // All five ops really ran: every destination holds its clone, and the
    // move emptied worker 1 into worker 0.
    let harnesses = ctrl.shutdown();
    let count = |i: usize| {
        let any: &dyn std::any::Any = harnesses[i].nf();
        any.downcast_ref::<AssetMonitor>().unwrap().conn_count()
    };
    assert_eq!(count(1), 0, "move released its source");
    for w in 2..6 {
        assert_eq!(count(w), 2 * FLOWS as usize, "copy destination {w} holds the merged clone");
    }
}

/// `n` asset monitors with [`FLOWS`] flows preloaded at worker 0 *without*
/// touching the router, left alone until the data plane counts as quiet.
fn quiet_controller(n: usize, tel: &Telemetry) -> RtController {
    let mut ctrl = RtController::new_with_telemetry(
        (0..n).map(|_| Box::new(AssetMonitor::new()) as Box<dyn NetworkFunction>).collect(),
        tel.clone(),
    );
    let tx = ctrl.worker_tx(0);
    for f in 0..FLOWS {
        tx.send(WireMsg::Packet { packet: pkt(f as u64 + 1, f) }.to_json()).expect("worker alive");
    }
    ctrl.quiesce(0).expect("worker alive");
    std::thread::sleep(FWD_IDLE + Duration::from_millis(5));
    ctrl
}

/// The longest `move.fwd_update` span recorded so far.
fn fwd_update_max(tel: &Telemetry) -> Duration {
    Duration::from_nanos(tel.hist_snapshot("move.fwd_update").expect("span recorded").max)
}

/// On a quiet data plane the flip settles at once: `move.fwd_update` is
/// shorter than `FWD_IDLE`, while the spans and journal phases are the
/// ones every move has. The controller's own re-homing lookup (an event
/// no op owns, routed on by `route_event`) is not data-plane activity.
#[test]
fn quiet_move_skips_the_post_flip_wait() {
    let tel = Telemetry::wall();
    let mut ctrl = quiet_controller(3, &tel);
    // A straggler event from worker 2, which no op owns: the engine looks
    // its packet up and delivers it where the table says (back to 2).
    let elsewhere = Ipv4Addr::new(11, 0, 0, 1);
    ctrl.router.install(20, Filter::from_src(Ipv4Prefix::new(elsewhere, 32)), 2);
    let key = FlowKey::tcp(elsewhere, 2000, Ipv4Addr::new(93, 184, 216, 34), 80);
    let stray = WireMsg::Event {
        worker: 2,
        ev: WireEvent::PacketReceived { packet: Packet::builder(9_000, key).build() },
    };
    ctrl.ctrl_tx().send(stray.to_json()).expect("controller alive");

    let stats = ctrl.run_op(OpSpec::mv(0, 1, Filter::any())).expect("move succeeds");
    assert_eq!(stats.chunks, FLOWS as usize);
    let fwd = fwd_update_max(&tel);
    assert!(fwd < FWD_IDLE, "quiet flip settled in {fwd:?}");
    assert_eq!(
        tel.span_sequence("move."),
        ["move.export", "move.transfer", "move.import", "move.flush", "move.fwd_update"],
    );
    let phases: Vec<JournalPhase> = ctrl.journal().records.iter().map(|r| r.phase).collect();
    assert_eq!(
        phases,
        [
            JournalPhase::Armed,
            JournalPhase::ExportDone,
            JournalPhase::Transferred,
            JournalPhase::Imported,
            JournalPhase::Flushed,
            JournalPhase::Committed
        ],
    );
    let harnesses = ctrl.shutdown();
    assert_eq!(harnesses[2].processed_log(), [9_000], "the stray event was re-homed");
}

/// One data-plane lookup right before the move and the window is back:
/// the op cannot finish sooner than `FWD_IDLE` after it.
#[test]
fn a_lookup_before_the_move_keeps_the_post_flip_wait() {
    let tel = Telemetry::wall();
    let mut ctrl = quiet_controller(2, &tel);
    assert_eq!(ctrl.router.route(&pkt(1, 0)), Some(0));
    let t0 = Instant::now();
    ctrl.run_op(OpSpec::mv(0, 1, Filter::any())).expect("move succeeds");
    let took = t0.elapsed();
    assert!(took >= FWD_IDLE, "move after a lookup took only {took:?}");
}

/// The FIFO barrier that makes the quiet exit safe: a thread blasts
/// packets straight into the source's inbox (no router, so the data plane
/// stays quiet) throughout the move. Whatever the source dropped while its
/// filter was armed — every such packet was enqueued before the teardown —
/// is replayed at the destination; nothing is processed twice or lost.
#[test]
fn packets_queued_at_the_source_survive_a_quiet_move() {
    let tel = Telemetry::wall();
    let mut ctrl = quiet_controller(2, &tel);
    let tx = ctrl.worker_tx(0);
    let stop = Arc::new(AtomicBool::new(false));
    let sent = Arc::new(AtomicU64::new(0));
    let (gen_stop, gen_sent) = (stop.clone(), sent.clone());
    let gen = std::thread::spawn(move || {
        let mut uid = 10_000u64;
        while !gen_stop.load(Ordering::Acquire) {
            uid += 1;
            let p = pkt(uid, (uid % FLOWS as u64) as u32);
            tx.send(WireMsg::Packet { packet: p }.to_json()).expect("worker alive");
            gen_sent.store(uid - 10_000, Ordering::Release);
            std::thread::sleep(Duration::from_micros(20));
        }
        uid - 10_000
    });
    while sent.load(Ordering::Acquire) < 50 {
        std::thread::sleep(Duration::from_millis(1));
    }
    let stats = ctrl.run_op(OpSpec::mv(0, 1, Filter::any())).expect("move succeeds");
    stop.store(true, Ordering::Release);
    let blasted = gen.join().expect("generator");
    assert!(fwd_update_max(&tel) < FWD_IDLE, "the move took the quiet exit");
    assert!(ctrl.abort_lost().is_empty());
    ctrl.quiesce(0).expect("worker alive");
    ctrl.quiesce(1).expect("worker alive");

    let harnesses = ctrl.shutdown();
    let (h0, h1) = (&harnesses[0], &harnesses[1]);
    let mut all: Vec<u64> = h0.processed_log().iter().chain(h1.processed_log()).copied().collect();
    let processed = all.len();
    all.sort_unstable();
    all.dedup();
    assert_eq!(all.len(), processed, "no packet processed twice");
    assert_eq!(processed as u64, FLOWS as u64 + blasted, "every packet processed");
    let dropped = h0.dropped_uids();
    assert!(!dropped.is_empty(), "packets reached the source while its filter was armed");
    assert!(
        dropped.iter().all(|uid| h1.processed_log().contains(uid)),
        "every packet the source dropped was replayed at the destination"
    );
    assert_eq!(stats.events_replayed, dropped.len(), "each as a do-not-buffer replay");
}
