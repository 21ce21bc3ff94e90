//! A sharded threaded control plane: one [`RtController`] whose workers
//! are partitioned into shards.
//!
//! A shard here is an *ownership domain*, not a second event loop: it says
//! which fault domain a worker belongs to ([`ShardedRt::new_with_faults_on`]
//! shims one shard's channels only) and which side of the east-west
//! boundary it is on. Everything else is the one controller: one engine,
//! one scheduler, one journal, one op-id mint, one rule table. Workers are
//! numbered shard-major (shard 0's first, then shard 1's, …), so a global
//! worker index *is* the controller's index and [`ShardedRt`] derefs to its
//! [`RtController`] — `run_ops`, `inject`, `journal`, `crash_after`,
//! `recover` and the rest take global indices unchanged.
//!
//! An op whose endpoints lie in different shards is therefore an ordinary
//! engine op — admitted, overlapped with its batch, root-spanned, journaled
//! with a recovery residue, any kind, either transfer mode. The controller
//! marks it with `ew.handoff` at admission and `ew.release` next to its
//! terminal journal record, which is what the happens-before oracle pairs.
//!
//! What the simulator's sharded control plane models and this does not:
//! shard controllers as separate nodes with a `ctrl_to_ctrl` latency,
//! independent controller crashes, and the `EwWatch`/`EwForward`/
//! `EwRelease` messages between them. In one process whose crash model is
//! "the struct survives" there is one ledger to recover from.

use std::ops::{Deref, DerefMut};
use std::sync::Arc;
use std::time::Duration;

use opennf_nf::{EventedNf, NetworkFunction};
use opennf_telemetry::Telemetry;
use opennf_util::FaultPlan;

use crate::controller::RtController;
use crate::faults::RtFaults;

/// One [`RtController`] plus the partition of its workers into shards.
/// Worker indices are global (shard-major).
pub struct ShardedRt {
    ctrl: RtController,
    shards: usize,
}

impl ShardedRt {
    /// Spawns one worker per NF — each inner vector of `shard_nfs` is one
    /// shard's — and installs a default route to global worker 0.
    /// Wall-clock telemetry.
    pub fn new(shard_nfs: Vec<Vec<Box<dyn NetworkFunction>>>) -> Self {
        Self::new_with_telemetry(shard_nfs, Telemetry::wall())
    }

    /// Like [`ShardedRt::new`] with a caller-supplied telemetry handle
    /// (keep a clone to read spans/metrics).
    pub fn new_with_telemetry(
        shard_nfs: Vec<Vec<Box<dyn NetworkFunction>>>,
        tel: Telemetry,
    ) -> Self {
        Self::build(shard_nfs, None, tel).0
    }

    /// Like [`ShardedRt::new_with_telemetry`], with shard `fault_shard` as
    /// the fault domain: the channels of its workers (only) run through a
    /// [`FaultyChannel`](crate::FaultyChannel) armed with `plan`. Each is
    /// addressed as [`worker_node`](crate::worker_node) of its *global*
    /// index — the node the plan and the simulator mean — so with the
    /// destination's shard as the domain it is the plan's destination-side
    /// rules that bite. A worker-less fault shard leaves the plan inert.
    /// Returns the [`RtFaults`] ledger.
    pub fn new_with_faults_on(
        shard_nfs: Vec<Vec<Box<dyn NetworkFunction>>>,
        plan: FaultPlan,
        fault_shard: usize,
        tel: Telemetry,
    ) -> (Self, Arc<RtFaults>) {
        assert!(fault_shard < shard_nfs.len(), "fault shard exists");
        let (me, faults) = Self::build(shard_nfs, Some((plan, fault_shard)), tel);
        (me, faults.expect("fault plan was supplied"))
    }

    fn build(
        shard_nfs: Vec<Vec<Box<dyn NetworkFunction>>>,
        plan: Option<(FaultPlan, usize)>,
        tel: Telemetry,
    ) -> (Self, Option<Arc<RtFaults>>) {
        assert!(!shard_nfs.is_empty(), "at least one shard");
        let shards = shard_nfs.len();
        let shard_of: Vec<usize> = shard_nfs
            .iter()
            .enumerate()
            .flat_map(|(k, nfs)| std::iter::repeat_n(k, nfs.len()))
            .collect();
        let plan = plan.map(|(plan, k)| {
            let first = shard_of.partition_point(|&s| s < k);
            (plan, first..first + shard_nfs[k].len())
        });
        let nfs = shard_nfs.into_iter().flatten().collect();
        let (mut ctrl, faults) = RtController::build(nfs, plan, tel);
        ctrl.shard_of = shard_of;
        (Self { ctrl, shards }, faults)
    }

    /// Applies a southbound reply timeout
    /// ([`RtController::with_reply_timeout`]).
    pub fn with_reply_timeout(mut self, timeout: Duration) -> Self {
        self.ctrl = self.ctrl.with_reply_timeout(timeout);
        self
    }

    /// Number of shards (worker-less ones included).
    pub fn shard_count(&self) -> usize {
        self.shards
    }

    /// Total number of workers across all shards.
    pub fn worker_count(&self) -> usize {
        self.ctrl.shard_of.len()
    }

    /// Shuts every worker down; harnesses come back in global worker order.
    pub fn shutdown(self) -> Vec<EventedNf> {
        self.ctrl.shutdown()
    }
}

impl Deref for ShardedRt {
    type Target = RtController;

    fn deref(&self) -> &RtController {
        &self.ctrl
    }
}

impl DerefMut for ShardedRt {
    fn deref_mut(&mut self) -> &mut RtController {
        &mut self.ctrl
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::OpSpec;
    use crate::wire::WireMsg;
    use opennf_nfs::AssetMonitor;
    use opennf_packet::{Filter, FlowKey, Packet, TcpFlags};
    use opennf_telemetry::{Kind, Rec};
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::time::Instant;

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

    fn two_shards() -> ShardedRt {
        ShardedRt::new(vec![monitors(1), monitors(1)])
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
        let stats =
            ctrl.move_flows_lossfree(0, 1, Filter::any()).expect("cross-shard move succeeds");
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
        let mut ctrl =
            ShardedRt::new_with_telemetry(vec![monitors(1), monitors(1)], tel.clone());
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
        let mut ctrl = ShardedRt::new(vec![monitors(1), monitors(2)]);
        assert_eq!((ctrl.shard_count(), ctrl.worker_count()), (2, 3));
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
        let stats =
            ctrl.move_flows_lossfree(0, 1, Filter::any()).expect("cross-shard move succeeds");
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
        let mut ctrl = ShardedRt::new_with_telemetry(
            vec![monitors(2), monitors(2), monitors(2)],
            tel.clone(),
        );
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
}
