//! Seeded input generation and the open-loop pacer.
//!
//! Everything the program under test receives — 5-tuples, which flow a
//! packet belongs to, payload bytes — is drawn here from the run's
//! `--seed`, so the same seed gives the same inputs and the program only
//! ever sees generated packets and op specs.

use std::net::Ipv4Addr;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

use crate::api::{FlowKey, Packet, SimRng, TcpFlags};

/// `n` distinct flows whose sources lie in `10.<group>.0.0/16`, in seeded
/// random order, with seeded source ports and servers.
pub fn flow_keys(rng: &mut SimRng, group: u8, n: usize) -> Vec<FlowKey> {
    assert!(n <= 1 << 16, "a /16 holds at most 65536 sources");
    // Partial Fisher–Yates over the /16's host numbers: distinct hosts,
    // so distinct connections whatever ports are drawn.
    let mut hosts: Vec<u16> = (0..=u16::MAX).collect();
    (0..n)
        .map(|i| {
            let j = i + rng.below((hosts.len() - i) as u64) as usize;
            hosts.swap(i, j);
            let h = hosts[i];
            FlowKey::tcp(
                Ipv4Addr::new(10, group, (h >> 8) as u8, h as u8),
                1024 + rng.below(60_000) as u16,
                Ipv4Addr::new(93, 184, rng.below(256) as u8, 1 + rng.below(250) as u8),
                80,
            )
        })
        .collect()
}

/// The packet that creates a flow's state at an instance.
pub fn syn(uid: u64, key: FlowKey) -> Packet {
    Packet::builder(uid, key)
        .flags(TcpFlags::SYN)
        .seq(uid as u32)
        .build()
}

/// A minimum-size data packet (headers only).
pub fn ack(uid: u64, key: FlowKey) -> Packet {
    Packet::builder(uid, key).flags(TcpFlags::ACK).build()
}

/// A data packet carrying `template`'s payload, due at `due_ns` on the
/// benchmark's epoch.
pub fn data(uid: u64, key: FlowKey, template: &Packet, due_ns: u64) -> Packet {
    Packet::builder(uid, key)
        .flags(TcpFlags::ACK)
        .payload(template.payload.clone())
        .ingress_ns(due_ns)
        .build()
}

/// A packet whose only purpose is to own `len` seeded payload bytes that
/// data packets then share.
pub fn payload_template(rng: &mut SimRng, len: usize) -> Packet {
    let bytes: Vec<u8> = (0..len).map(|_| rng.below(256) as u8).collect();
    Packet::builder(
        0,
        FlowKey::tcp(Ipv4Addr::UNSPECIFIED, 0, Ipv4Addr::UNSPECIFIED, 0),
    )
    .payload(bytes)
    .build()
}

/// What the open-loop generator did.
pub struct GenReport {
    pub sent: u64,
    pub elapsed: Duration,
    /// How late each tick fired, in microseconds.
    pub late_us: Vec<f64>,
}

impl GenReport {
    pub fn sent_per_s(&self) -> f64 {
        self.sent as f64 / self.elapsed.as_secs_f64()
    }
}

/// Open-loop pacer: every `tick`, calls `send(due_ns)` `per_tick` times,
/// where `due_ns` is the tick's scheduled time on `epoch` — not the time
/// the call happens — so a stall shows up as latency of the packets it
/// delayed. A late generator does not skip ticks; it catches up. Runs
/// until `stop` is set.
pub fn open_loop(
    epoch: Instant,
    stop: &AtomicBool,
    per_tick: u32,
    tick: Duration,
    mut send: impl FnMut(u64),
) -> GenReport {
    let start = Instant::now();
    let mut late_us = Vec::new();
    let mut sent = 0u64;
    let mut k = 0u32;
    while !stop.load(Ordering::Relaxed) {
        let due = start + tick * k;
        if let Some(wait) = due.checked_duration_since(Instant::now()) {
            std::thread::sleep(wait);
        }
        late_us.push(Instant::now().saturating_duration_since(due).as_secs_f64() * 1e6);
        let due_ns = due.duration_since(epoch).as_nanos() as u64;
        for _ in 0..per_tick {
            send(due_ns);
            sent += 1;
        }
        k += 1;
    }
    GenReport {
        sent,
        elapsed: start.elapsed(),
        late_us,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_flows_and_all_distinct() {
        let a = flow_keys(&mut SimRng::new(7), 3, 500);
        let b = flow_keys(&mut SimRng::new(7), 3, 500);
        let c = flow_keys(&mut SimRng::new(8), 3, 500);
        assert_eq!(a, b);
        assert_ne!(a, c);
        let mut srcs: Vec<_> = a.iter().map(|k| k.src_ip).collect();
        srcs.sort();
        srcs.dedup();
        assert_eq!(srcs.len(), 500);
        assert!(a.iter().all(|k| k.src_ip.octets()[..2] == [10, 3]));
    }

    #[test]
    fn pacer_stamps_due_times_not_send_times() {
        let epoch = Instant::now();
        let stop = AtomicBool::new(false);
        let mut dues = Vec::new();
        let rep = open_loop(epoch, &stop, 2, Duration::from_millis(1), |due| {
            dues.push(due);
            if dues.len() == 10 {
                stop.store(true, Ordering::Relaxed);
            }
        });
        assert_eq!(rep.sent, 10);
        assert_eq!(rep.late_us.len(), 5);
        // Two packets per tick share a due time; ticks are exactly 1 ms apart.
        assert_eq!(dues[0], dues[1]);
        assert_eq!(dues[2] - dues[0], 1_000_000);
        assert_eq!(dues[8] - dues[0], 4_000_000);
    }
}
