//! Fault-shim overhead: the threaded runtime routes every message through
//! a [`FaultyChannel`], so the shim's cost in the common cases — no plan
//! armed, armed but no matching rule, and a rolled-but-never-firing rule —
//! bounds the tax fault-conformance testing puts on a fault-free
//! deployment. Not a paper artifact; it guards the cross-runtime fault
//! model (DESIGN.md) against regressions in the hot path.

use std::time::Instant;

use crossbeam::channel::unbounded;
use opennf_packet::{FlowKey, Packet, TcpFlags};
use opennf_rt::{FaultyChannel, RtFaults, WireMsg};
use opennf_sim::{FaultKind, FaultPlan, NodeId, Time};
use opennf_util::{Dur, Summary};

/// One shim configuration's per-send cost.
#[derive(Debug, Clone)]
pub struct FaultShimRow {
    /// Configuration label.
    pub mode: &'static str,
    /// Mean nanoseconds per `send` (serialize + shim + channel push).
    pub mean_ns: f64,
    /// 99th percentile, same unit.
    pub p99_ns: f64,
}

/// The full sweep.
#[derive(Debug, Clone)]
pub struct FaultShimReport {
    /// One row per configuration.
    pub rows: Vec<FaultShimRow>,
    /// Messages timed per configuration.
    pub msgs: u64,
}

impl FaultShimReport {
    /// Renders the rows plus the headline overhead ratio.
    pub fn print(&self) {
        println!("== fault-shim overhead ({} msgs/row) ==", self.msgs);
        println!("{:<24} {:>12} {:>12}", "mode", "mean ns/send", "p99 ns/send");
        for r in &self.rows {
            println!("{:<24} {:>12.0} {:>12.0}", r.mode, r.mean_ns, r.p99_ns);
        }
        if let (Some(base), Some(armed)) = (
            self.rows.iter().find(|r| r.mode == "passthrough"),
            self.rows.iter().find(|r| r.mode == "armed, rule rolled"),
        ) {
            println!(
                "armed-with-dice vs passthrough: {:.2}x mean",
                armed.mean_ns / base.mean_ns.max(1.0)
            );
        }
        println!();
    }
}

fn sample_packet(uid: u64) -> Packet {
    let key = FlowKey::tcp(
        "10.0.0.1".parse().unwrap(),
        4_000 + (uid % 64) as u16,
        "1.1.1.1".parse().unwrap(),
        80,
    );
    Packet::builder(uid, key).flags(TcpFlags::SYN).seq(uid as u32).build()
}

/// Times `msgs` sends through `ch`, draining the receiver as it goes so
/// the channel never grows unboundedly.
fn time_sends(
    mode: &'static str,
    ch: FaultyChannel,
    rx: &crossbeam::channel::Receiver<String>,
    msgs: u64,
) -> FaultShimRow {
    let mut lat = Summary::new();
    for uid in 1..=msgs {
        let msg = WireMsg::Packet { packet: sample_packet(uid) };
        let t0 = Instant::now();
        ch.send(&msg).expect("receiver alive");
        lat.record(t0.elapsed().as_nanos() as f64);
        while rx.try_recv().is_ok() {}
    }
    drop(ch);
    while rx.try_recv().is_ok() {}
    FaultShimRow { mode, mean_ns: lat.mean(), p99_ns: lat.quantile(0.99) }
}

/// Runs the sweep: `msgs` timed sends per configuration.
pub fn run(msgs: u64) -> FaultShimReport {
    let src = NodeId(1);
    let dst = NodeId(2);
    let mut rows = Vec::new();

    // Passthrough: the fault-free deployment path.
    {
        let (tx, rx) = unbounded();
        rows.push(time_sends("passthrough", FaultyChannel::new(tx, src, dst, None), &rx, msgs));
    }

    // Armed, but this link has no rules: the plan-scan short-circuits.
    {
        let plan = FaultPlan::new(1).sever(NodeId(8), NodeId(9), Time(0), Time(u64::MAX));
        let (faults, pump) = RtFaults::arm(plan);
        let (tx, rx) = unbounded();
        let ch = FaultyChannel::new(tx, src, dst, Some((faults.clone(), pump)));
        rows.push(time_sends("armed, no match", ch, &rx, msgs));
        faults.join_pump();
    }

    // Armed with a matching rule at 0 per-mille: the dice roll every
    // send but never fire — the full shim cost minus injection itself.
    {
        let plan = FaultPlan::new(1).link(
            Some(src),
            Some(dst),
            Time(0),
            Time(u64::MAX),
            0,
            FaultKind::Delay(Dur::millis(1)),
        );
        let (faults, pump) = RtFaults::arm(plan);
        let (tx, rx) = unbounded();
        let ch = FaultyChannel::new(tx, src, dst, Some((faults.clone(), pump)));
        rows.push(time_sends("armed, rule rolled", ch, &rx, msgs));
        faults.join_pump();
    }

    FaultShimReport { rows, msgs }
}
