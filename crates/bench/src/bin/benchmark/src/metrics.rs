//! The benchmark's vocabulary — workload and metric names, units,
//! directions and bounds — plus the statistics and the result line.
//!
//! `BENCHMARK.json` at the repository root must say exactly what the
//! tables here say; a unit test compares the two.

/// Direction in which a metric improves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

pub struct Workload {
    pub name: &'static str,
    /// What one unit of work (one latency sample) is.
    pub unit_of_work: &'static str,
    /// What `items_per_s` counts.
    pub item: &'static str,
    pub why: &'static str,
}

pub const WORKLOADS: [Workload; 7] = [
    Workload {
        name: "move_small_idle",
        unit_of_work: "engine move of 2000 flows",
        item: "flow moved",
        why: "no traffic, 2000 flows: fixed per-op cost (dispatch, round trips, journal, post-flip drain) dominates, codec and NF export do little",
    },
    Workload {
        name: "move_bulk_p2p",
        unit_of_work: "P2P move of 12000 flows",
        item: "flow moved",
        why: "no traffic, 12000 flows moved worker to worker: per-flow cost (chunk codec, channel hops, NF get/put) dominates, engine admission is bypassed",
    },
    Workload {
        name: "move_live",
        unit_of_work: "engine move of 2000 flows under traffic",
        item: "flow moved",
        why: "engine moves under an open loop of 5000 pkt/s: op latency with events buffered, pumped and replayed, which idle moves never do",
    },
    Workload {
        name: "move_live_pkts",
        unit_of_work: "packet that was event-buffered and replayed",
        item: "packet processed",
        why: "the move_live scenario seen from the traffic: due-to-processed latency of the packets a move buffers and replays (the paper's Fig. 10b)",
    },
    Workload {
        name: "ops_mixed_k4",
        unit_of_work: "run_ops batch of 2 moves, 1 copy, 1 share",
        item: "flow moved, copied or shared",
        why: "8 workers, one batch of two moves, a copy and a share at once: admission, scheduler and k streams sharing the controller thread",
    },
    Workload {
        name: "dataplane_steady",
        unit_of_work: "burst of 4096 minimum-size packets routed, encoded, sent and drained",
        item: "packet processed",
        why: "no ops, closed loop of bursts of minimum-size packets: route, encode, channel hop, decode, NF; bypasses engine, scheduler and journal",
    },
    Workload {
        name: "sim_move",
        unit_of_work: "simulated loss-free move, run to completion",
        item: "simulated packet forwarded",
        why: "wall clock of the deterministic simulator running a loss-free move: sim engine, controller state machines and flow table, no threads",
    },
];

pub fn workload(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the baseline median by which the metric may worsen before
    /// it counts as a regression; also the limit two sets of runs of the
    /// same code must agree within.
    pub bound: f64,
}

/// Reported by every workload on every `--trace 0` run.
pub const END_TO_END: [EndToEnd; 5] = [
    EndToEnd {
        name: "op_ms_p50",
        unit: "ms",
        better: Better::Lower,
        bound: 0.15,
    },
    EndToEnd {
        name: "op_ms_p90",
        unit: "ms",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "items_per_s",
        unit: "1/s",
        better: Better::Higher,
        bound: 0.15,
    },
    EndToEnd {
        name: "peak_rss_mb",
        unit: "MB",
        better: Better::Lower,
        bound: 0.20,
    },
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
    },
];

pub struct PerLayer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
}

const fn lower(name: &'static str, unit: &'static str) -> PerLayer {
    PerLayer {
        name,
        unit,
        better: Better::Lower,
    }
}

const fn higher(name: &'static str, unit: &'static str) -> PerLayer {
    PerLayer {
        name,
        unit,
        better: Better::Higher,
    }
}

/// Reported by every workload on every `--trace 1` run; 0 where the
/// workload does not exercise the layer.
pub const PER_LAYER: [PerLayer; 64] = [
    // Function-timing ladder.
    lower("packet.filter_match_ns", "ns"),
    lower("router.route_ns", "ns"),
    lower("router.rules_end", "count"),
    lower("net.flowtable_apply_ns_1k", "ns"),
    lower("net.flowtable_apply_ns_4k", "ns"),
    lower("net.flowtable_install_us_1k", "us"),
    lower("wire.encode_pkt_ns", "ns"),
    lower("wire.decode_pkt_ns", "ns"),
    lower("wire.encode_pkt_256B_ns", "ns"),
    lower("wire.decode_pkt_256B_ns", "ns"),
    lower("wire.encode_chunk_ns", "ns"),
    lower("wire.decode_chunk_ns", "ns"),
    lower("wire.chunk_bytes", "bytes"),
    lower("wire.encode_event_ns", "ns"),
    lower("wire.decode_event_ns", "ns"),
    lower("nf.handle_packet_ns", "ns"),
    lower("nf.handle_packet_armed_ns", "ns"),
    lower("nfs.monitor_process_ns", "ns"),
    lower("nfs.monitor_get_ns", "ns"),
    lower("nfs.monitor_put_ns", "ns"),
    lower("nfs.monitor_del_ns", "ns"),
    lower("worker.roundtrip_us", "us"),
    lower("engine.op_fixed_ms", "ms"),
    lower("journal.append_ns", "ns"),
    lower("telemetry.span_ns", "ns"),
    lower("telemetry.span_disabled_ns", "ns"),
    // Read off the untraced reference pass of the workload.
    lower("bench.ref_op_ms_p50", "ms"),
    higher("bench.ref_samples", "count"),
    lower("op_fail_share", "share"),
    lower("pkt_bad_share", "share"),
    lower("pkt_affected_ms_p50", "ms"),
    lower("pkt_affected_ms_p90", "ms"),
    lower("worker.pkt_hop_us_p50", "us"),
    lower("engine.events_per_op", "count"),
    lower("engine.move_ms_p50", "ms"),
    lower("engine.copy_ms_p50", "ms"),
    lower("engine.share_ms_p50", "ms"),
    higher("engine.batch_speedup_k4", "x"),
    lower("sched.wfair_delta_pct", "%"),
    lower("journal.records_end", "count"),
    lower("journal.to_json_us", "us"),
    higher("sim.events_per_s", "1/s"),
    lower("sim.events_per_run", "count"),
    lower("controller.sim_move_virtual_ms", "ms"),
    lower("gen.late_us_p50", "us"),
    lower("gen.late_us_p99", "us"),
    higher("gen.sent_pps", "1/s"),
    // Traced pass: the program's own spans and counters, reconciled
    // against the benchmark's span around the call.
    lower("bench.op_traced_ms", "ms"),
    lower("engine.drift_ratio", "x"),
    lower("engine.phase.export_ms", "ms"),
    lower("engine.phase.transfer_ms", "ms"),
    lower("engine.phase.import_ms", "ms"),
    lower("engine.phase.flush_ms", "ms"),
    lower("engine.phase.fwd_update_ms", "ms"),
    lower("engine.phase.other_ms", "ms"),
    lower("engine.admission_wait_ms", "ms"),
    lower("engine.unexplained_ms", "ms"),
    lower("rt.frames_per_op", "count"),
    lower("rt.events_pumped_per_op", "count"),
    lower("rt.p2p_dials", "count"),
    lower("telemetry.overhead_pct", "%"),
    lower("telemetry.dropped_records", "count"),
    lower("telemetry.records_per_op", "count"),
    lower("bench.spans", "count"),
];

/// A latency sample set too small for a p90 is refused, not estimated.
pub const MIN_SAMPLES: usize = 100;

fn sorted(samples: &[f64]) -> Vec<f64> {
    let mut v = samples.to_vec();
    v.sort_by(|a, b| a.total_cmp(b));
    v
}

/// Median (mean of the two middle values for an even count); 0 when empty.
pub fn median(samples: &[f64]) -> f64 {
    let v = sorted(samples);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// Nearest-rank percentile: the smallest sample with at least `q` of the
/// set at or below it. `None` when empty.
pub fn percentile(samples: &[f64], q: f64) -> Option<f64> {
    let v = sorted(samples);
    let rank = ((q * v.len() as f64).ceil() as usize).clamp(1, v.len().max(1));
    v.get(rank - 1).copied()
}

/// The p90 — the highest percentile that still has ten samples beyond it
/// at [`MIN_SAMPLES`]. Refused (`None`) below that count.
pub fn p90(samples: &[f64]) -> Option<f64> {
    if samples.len() < MIN_SAMPLES {
        return None;
    }
    percentile(samples, 0.90)
}

/// Quartiles as Python's `statistics.quantiles(v, n=4)` gives them.
pub fn quartiles(samples: &[f64]) -> Option<[f64; 3]> {
    let v = sorted(samples);
    let n = v.len();
    if n < 2 {
        return None;
    }
    Some([1usize, 2, 3].map(|k| {
        let j = (k * (n + 1) / 4).clamp(1, n - 1);
        let delta = ((k * (n + 1)) as f64 - (j * 4) as f64) / 4.0;
        v[j - 1] + (v[j] - v[j - 1]) * delta
    }))
}

/// Peak resident set size of this process so far, in MB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            let line = s.lines().find(|l| l.starts_with("VmHWM:"))?;
            line.split_whitespace().nth(1)?.parse::<f64>().ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// One run's result: what the last line of standard output carries.
#[derive(Debug, Clone, Default)]
pub struct RunResult {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    /// `(name, value, unit)` in table order.
    pub metrics: Vec<(&'static str, f64, &'static str)>,
}

impl RunResult {
    pub fn get(&self, name: &str) -> Option<f64> {
        self.metrics.iter().find(|m| m.0 == name).map(|m| m.1)
    }

    /// The result line. Values are printed with every digit measured.
    pub fn to_json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(name, value, unit)| {
                let value = if value.is_finite() { *value } else { 0.0 };
                format!("\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct,
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }

    /// Parses a result line back (the full-set and `--check` modes read
    /// their children's output with this).
    pub fn from_json(line: &str) -> Result<RunResult, String> {
        let v = serde_json::Value::parse_json(line)?;
        let field = |k: &str| v.get(k).ok_or_else(|| format!("result line lacks '{k}'"));
        let mut out = RunResult {
            correct: field("correct")?
                .as_bool()
                .ok_or("'correct' is not a bool")?,
            attempted: field("attempted")?
                .as_u64()
                .ok_or("'attempted' is not a count")?,
            failed: field("failed")?.as_u64().ok_or("'failed' is not a count")?,
            metrics: Vec::new(),
        };
        for (name, m) in field("metrics")?
            .as_object()
            .ok_or("'metrics' is not an object")?
        {
            let value = m
                .get("value")
                .and_then(|x| x.as_f64())
                .ok_or("metric lacks a value")?;
            // Only names from the tables are kept, with the tables' units.
            if let Some((n, u)) = known_metric(name) {
                out.metrics.push((n, value, u));
            } else {
                return Err(format!("unknown metric '{name}'"));
            }
        }
        Ok(out)
    }
}

fn known_metric(name: &str) -> Option<(&'static str, &'static str)> {
    END_TO_END
        .iter()
        .map(|m| (m.name, m.unit))
        .chain(PER_LAYER.iter().map(|m| (m.name, m.unit)))
        .find(|(n, _)| *n == name)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn well_formed(name: &str) -> bool {
        let ok = |c: char| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-');
        !name.is_empty()
            && name.len() <= 64
            && name.chars().all(ok)
            && name
                .chars()
                .next()
                .is_some_and(|c| c.is_ascii_alphanumeric())
    }

    #[test]
    fn names_are_well_formed_and_unique() {
        let mut names: Vec<&str> = WORKLOADS
            .iter()
            .map(|w| w.name)
            .chain(END_TO_END.iter().map(|m| m.name))
            .chain(PER_LAYER.iter().map(|m| m.name))
            .collect();
        assert!(names.iter().all(|n| well_formed(n)), "{names:?}");
        let n = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), n, "a name is used twice");
        let unit_ok = |u: &str| {
            !u.is_empty()
                && u.len() <= 16
                && u.chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
        };
        assert!(END_TO_END.iter().all(|m| unit_ok(m.unit)));
        assert!(PER_LAYER.iter().all(|m| unit_ok(m.unit)));
        assert!(WORKLOADS
            .iter()
            .all(|w| w.why.len() <= 200 && !w.why.contains('\n')));
        assert!(END_TO_END.iter().all(|m| m.bound > 0.0 && m.bound <= 0.25));
    }

    #[test]
    fn p90_is_nearest_rank_and_refused_below_100_samples() {
        let v: Vec<f64> = (1..=100).rev().map(f64::from).collect();
        // 100 samples: the 90th smallest, with ten samples beyond it.
        assert_eq!(p90(&v), Some(90.0));
        assert_eq!(p90(&v[..99]), None);
        let w: Vec<f64> = (1..=250).map(f64::from).collect();
        assert_eq!(p90(&w), Some(225.0));
        assert_eq!(percentile(&[], 0.9), None);
        assert_eq!(percentile(&[5.0], 0.9), Some(5.0));
    }

    #[test]
    fn median_and_quartiles_match_python_statistics() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), Some([2.75, 5.5, 8.25]));
        // statistics.quantiles([1, 2, 4, 8, 16], n=4) == [1.5, 4.0, 12.0]
        assert_eq!(
            quartiles(&[16.0, 1.0, 8.0, 2.0, 4.0]),
            Some([1.5, 4.0, 12.0])
        );
        assert_eq!(quartiles(&[1.0]), None);
    }

    #[test]
    fn result_line_round_trips_through_the_vendored_json_parser() {
        let r = RunResult {
            correct: true,
            attempted: 321,
            failed: 0,
            metrics: vec![
                ("op_ms_p50", 37.251_903, "ms"),
                ("setup_s", 0.012_345_678_9, "s"),
            ],
        };
        let line = r.to_json();
        assert!(!line.contains('\n'));
        let back = RunResult::from_json(&line).unwrap();
        assert_eq!(back.attempted, 321);
        assert!(back.correct);
        assert_eq!(back.get("op_ms_p50"), Some(37.251_903));
        assert_eq!(back.get("setup_s"), Some(0.012_345_678_9));
        assert!(RunResult::from_json("{\"correct\": true}").is_err());
    }

    #[test]
    fn peak_rss_reads_something() {
        assert!(peak_rss_mb() > 0.0);
    }
}
