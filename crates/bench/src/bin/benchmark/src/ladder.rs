//! The function-timing ladder: each layer's public function timed on its
//! own, on inputs generated from the run's seed. Every value is the
//! median over at least 30 batches of the time per call.

use std::hint::black_box;
use std::time::Instant;

use crate::api::{self, Chunk, Filter, Op, Packet, Rt, SimRng};
use crate::gen;
use crate::metrics::median;

const BATCHES: usize = 30;

/// Median over `BATCHES` batches of `f()`'s wall time divided by `per`.
fn time_per(per: usize, unit_ns: f64, mut f: impl FnMut()) -> f64 {
    let samples: Vec<f64> = (0..BATCHES)
        .map(|_| {
            let t0 = Instant::now();
            f();
            t0.elapsed().as_nanos() as f64 / unit_ns / per as f64
        })
        .collect();
    median(&samples)
}

fn ns_per(per: usize, f: impl FnMut()) -> f64 {
    time_per(per, 1.0, f)
}

/// Runs the whole ladder. `rules_end` is the workload's end-of-run router
/// rule count, so `router.route_ns` is timed on a table that size.
pub fn run(seed: u64, smoke: bool, rules_end: usize) -> Vec<(&'static str, f64)> {
    let n = if smoke { 200 } else { 2_000 };
    let mut rng = SimRng::new(seed);
    let keys = gen::flow_keys(&mut rng, 0, n);
    let template = gen::payload_template(&mut rng, 256);
    let small: Vec<Packet> = keys
        .iter()
        .enumerate()
        .map(|(i, k)| gen::ack(i as u64 + 1, *k))
        .collect();
    let big: Vec<Packet> = keys
        .iter()
        .enumerate()
        .map(|(i, k)| gen::data(i as u64 + 1, *k, &template, 0))
        .collect();
    let syns: Vec<Packet> = keys
        .iter()
        .enumerate()
        .map(|(i, k)| gen::syn(i as u64 + 1, *k))
        .collect();
    let mut out = Vec::new();

    // opennf-packet, opennf-rt::router
    let prefix = api::src_prefix_filter(10, 0, 16);
    out.push((
        "packet.filter_match_ns",
        ns_per(n, || {
            for p in &small {
                black_box(api::filter_matches(&prefix, p));
            }
        }),
    ));
    let router = api::router_new();
    api::router_install(&router, 0, Filter::any(), 0);
    for i in 1..rules_end {
        // Each move adds one priority-10 rule in front, as the engine does.
        api::router_install(&router, 10, Filter::any(), i % 2);
    }
    out.push((
        "router.route_ns",
        ns_per(n, || {
            for p in &small {
                black_box(api::router_route(&router, p));
            }
        }),
    ));

    // opennf-net
    for (apply, rules) in [
        ("net.flowtable_apply_ns_1k", 1_000),
        ("net.flowtable_apply_ns_4k", 4_000),
    ] {
        let rules = if smoke { rules / 20 } else { rules };
        let pkts: Vec<Packet> = gen::flow_keys(&mut rng, 1, rules)
            .into_iter()
            .enumerate()
            .map(|(i, k)| gen::ack(i as u64 + 1, k))
            .collect();
        let t0 = Instant::now();
        let mut table = api::flowtable_exact(&pkts);
        if apply.ends_with("1k") {
            out.push((
                "net.flowtable_install_us_1k",
                t0.elapsed().as_secs_f64() * 1e6 / rules as f64,
            ));
        }
        out.push((
            apply,
            ns_per(pkts.len(), || {
                for p in &pkts {
                    black_box(api::flowtable_apply(&mut table, p));
                }
            }),
        ));
    }

    // opennf-rt::wire
    for (enc, dec, pkts) in [
        ("wire.encode_pkt_ns", "wire.decode_pkt_ns", &small),
        ("wire.encode_pkt_256B_ns", "wire.decode_pkt_256B_ns", &big),
    ] {
        let msgs: Vec<_> = pkts
            .iter()
            .map(|p| api::wire_packet_msg(p.clone()))
            .collect();
        let mut frames = Vec::new();
        out.push((
            enc,
            ns_per(n, || {
                frames.clear();
                frames.extend(msgs.iter().map(api::wire_to_json));
            }),
        ));
        out.push((
            dec,
            ns_per(n, || {
                for f in &frames {
                    black_box(api::wire_decode_frame(f));
                }
            }),
        ));
    }

    // Real AssetMonitor chunks, 64 to a frame, as a P2P transfer ships them.
    let mut nf = api::monitor();
    for p in &syns {
        api::nf_process(&mut nf, p);
    }
    let chunks = api::nf_get(&mut nf, &Filter::any());
    let batches: Vec<_> = chunks
        .chunks(64)
        .map(|c| api::wire_p2p_chunks_msg(c.to_vec()))
        .collect();
    let mut buf = api::frame_buf();
    let mut frames = Vec::new();
    out.push((
        "wire.encode_chunk_ns",
        ns_per(chunks.len(), || {
            frames.clear();
            frames.extend(batches.iter().map(|m| api::wire_frame_one(&mut buf, m)));
        }),
    ));
    out.push((
        "wire.chunk_bytes",
        frames.iter().map(String::len).sum::<usize>() as f64 / chunks.len() as f64,
    ));
    out.push((
        "wire.decode_chunk_ns",
        ns_per(chunks.len(), || {
            for f in &frames {
                black_box(api::wire_decode_frame(f));
            }
        }),
    ));

    let events: Vec<_> = big
        .iter()
        .map(|p| api::wire_event_msg(0, p.clone()))
        .collect();
    let mut frames = Vec::new();
    out.push((
        "wire.encode_event_ns",
        ns_per(n, || frames = api::wire_encode_frames(&events, 32)),
    ));
    out.push((
        "wire.decode_event_ns",
        ns_per(n, || {
            for f in &frames {
                black_box(api::wire_decode_frame(f));
            }
        }),
    ));

    // opennf-nf, opennf-nfs
    let mut plain = api::evented(Box::new(api::monitor()));
    out.push((
        "nf.handle_packet_ns",
        ns_per(n, || {
            for p in &small {
                black_box(api::evented_handle(&mut plain, p));
            }
        }),
    ));
    let mut armed = api::evented(Box::new(api::monitor()));
    api::evented_arm(&mut armed, Filter::any());
    out.push((
        "nf.handle_packet_armed_ns",
        ns_per(n, || {
            for p in &big {
                black_box(api::evented_handle(&mut armed, p));
            }
        }),
    ));
    out.push((
        "nfs.monitor_process_ns",
        ns_per(n, || {
            for p in &small {
                api::nf_process(&mut nf, p);
            }
        }),
    ));
    let ids: Vec<_> = chunks.iter().map(|c| c.flow_id).collect();
    let mut exported: Vec<Chunk> = Vec::new();
    out.push((
        "nfs.monitor_get_ns",
        ns_per(n, || exported = api::nf_get(&mut nf, &Filter::any())),
    ));
    // del and put alternate so each runs on a full (del) or empty (put) table.
    let mut del = Vec::new();
    let mut put = Vec::new();
    for _ in 0..BATCHES {
        let t0 = Instant::now();
        api::nf_del(&mut nf, &ids);
        del.push(t0.elapsed().as_nanos() as f64 / n as f64);
        let again = exported.clone();
        let t0 = Instant::now();
        api::nf_put(&mut nf, again);
        put.push(t0.elapsed().as_nanos() as f64 / n as f64);
    }
    out.push(("nfs.monitor_put_ns", median(&put)));
    out.push(("nfs.monitor_del_ns", median(&del)));

    // opennf-controller::journal, opennf-telemetry
    let mut journal = api::journal_new();
    let mut i = 0;
    out.push((
        "journal.append_ns",
        ns_per(n, || {
            for _ in 0..n {
                i += 1;
                api::journal_append(&mut journal, i);
            }
        }),
    ));
    for (name, tel) in [
        ("telemetry.span_ns", api::telemetry_wall(4_096)),
        ("telemetry.span_disabled_ns", api::telemetry_off()),
    ] {
        out.push((
            name,
            ns_per(n, || {
                for _ in 0..n {
                    api::telemetry_span(&tel);
                }
            }),
        ));
    }

    // opennf-rt worker and engine: one southbound round trip, and one
    // move whose filter matches no flow (the fixed cost of an op).
    let nfs = (0..2)
        .map(|_| Box::new(api::monitor()) as Box<dyn api::NetworkFunction>)
        .collect();
    let mut rt = Rt::new(nfs, api::telemetry_off());
    let tx = rt.packet_tx(0);
    for p in &syns {
        tx.send(p.clone());
    }
    rt.quiesce(0).expect("ladder worker alive");
    out.push((
        "worker.roundtrip_us",
        time_per(20, 1e3, || {
            for _ in 0..20 {
                rt.quiesce(0).expect("ladder worker alive");
            }
        }),
    ));
    let nothing = api::src_prefix_filter(11, 0, 16);
    let mut at = 0;
    out.push((
        "engine.op_fixed_ms",
        time_per(1, 1e6, || {
            let r = rt
                .run_ops(&[Op::mv(at, 1 - at, nothing)])
                .pop()
                .expect("one op, one result");
            assert_eq!(r.expect("empty move succeeds").chunks, 0);
            at = 1 - at;
        }),
    ));
    drop(rt.shutdown());
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ladder_reports_every_rung_with_a_positive_value() {
        let rungs = run(5, true, 3);
        let mut names: Vec<_> = rungs.iter().map(|r| r.0).collect();
        for (name, v) in &rungs {
            assert!(*v > 0.0, "{name} = {v}");
        }
        names.sort_unstable();
        let n = names.len();
        names.dedup();
        assert_eq!(names.len(), n, "a rung is reported twice");
        for name in names {
            assert!(
                crate::metrics::PER_LAYER.iter().any(|m| m.name == name),
                "{name} is not declared"
            );
        }
    }
}
