//! The threaded runtime: real OS threads, the paper's JSON southbound
//! protocol, a live loss-free move.
//!
//! The other examples run in the deterministic simulator; this one runs
//! the same `EventedNf` harness and southbound protocol (§7: "The
//! controller and NFs exchange JSON messages") under genuine concurrency —
//! a generator thread keeps pushing packets through the shared router
//! while the controller moves all per-flow state between worker threads.
//!
//! ```sh
//! cargo run --example threaded_runtime
//! ```

use opennf::nfs::AssetMonitor;
use opennf::prelude::*;
use opennf::rt::{OpSpec, RtController, WireMsg};
use opennf_telemetry::Telemetry;

fn main() {
    let mut ctrl = RtController::new_with_telemetry(
        vec![Box::new(AssetMonitor::new()), Box::new(AssetMonitor::new())],
        Telemetry::wall(),
    );

    const PACKETS: u64 = 5_000;
    const FLOWS: u64 = 100;

    // Generator thread: 5 000 packets over 100 flows, ~40 µs apart,
    // consulting the shared router for every packet.
    let router = ctrl.router.clone();
    let txs = [ctrl.worker_tx(0), ctrl.worker_tx(1)];
    let gen = std::thread::spawn(move || {
        for uid in 1..=PACKETS {
            let flow = uid % FLOWS;
            let key = FlowKey::tcp(
                format!("10.0.0.{}", flow % 250 + 1).parse().unwrap(),
                2_000 + flow as u16,
                "93.184.216.34".parse().unwrap(),
                80,
            );
            let flags = if uid <= FLOWS { TcpFlags::SYN } else { TcpFlags::ACK };
            let pkt = Packet::builder(uid, key).flags(flags).build();
            if let Some(w) = router.route(&pkt) {
                let _ = txs[w].send(WireMsg::Packet { packet: pkt }.to_json());
            }
            std::thread::sleep(std::time::Duration::from_micros(40));
        }
    });

    // Let state accumulate, then move everything, live.
    std::thread::sleep(std::time::Duration::from_millis(40));
    let stats = ctrl.run_op(OpSpec::mv(0, 1, Filter::any())).expect("loss-free move");
    println!("moved     : {} flows, {} bytes of state", stats.chunks, stats.bytes);
    println!("replayed  : {} event packets to the destination", stats.events_replayed);
    println!("wall time : {:?}", stats.duration);

    gen.join().expect("generator");
    std::thread::sleep(std::time::Duration::from_millis(50));
    let harnesses = ctrl.shutdown();

    let processed: Vec<usize> = harnesses.iter().map(|h| h.processed_log().len()).collect();
    let mut all: Vec<u64> = harnesses
        .iter()
        .flat_map(|h| h.processed_log().iter().copied())
        .collect();
    all.sort_unstable();
    let before = all.len();
    all.dedup();
    println!("processed : {} at worker-0, {} at worker-1", processed[0], processed[1]);
    println!(
        "loss-free : {} of {PACKETS} packets processed exactly once (duplicates: {})",
        all.len(),
        before - all.len()
    );
    assert_eq!(all.len() as u64, PACKETS, "every packet processed");
    assert_eq!(before, all.len(), "no packet processed twice");
    let any: &dyn std::any::Any = harnesses[1].nf();
    let m = any.downcast_ref::<AssetMonitor>().unwrap();
    assert_eq!(m.conn_count() as u64, FLOWS, "destination holds all flow state");
    println!("verdict   : loss-free under real thread concurrency");
}
