//! The traced pass: the benchmark's own spans around every call into the
//! runtime, the program's phase spans read back through the profiler, and
//! the reconciliation of the two.
//!
//! Spans are kept in memory and written, together with the program's
//! flight-recorder dump, to `<target dir>/benchmark/trace-<workload>.jsonl`
//! when the run ends.

use std::fmt::Write as _;
use std::path::PathBuf;

use crate::api::{ProgramTrace, Telemetry};
use crate::metrics::median;

/// One benchmark-side span.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub t0_ns: u64,
    pub t1_ns: u64,
    /// Index + 1 of the enclosing span; 0 at the root.
    pub parent: usize,
    /// Index of the unit of work the span belongs to.
    pub op: u64,
}

impl Span {
    pub fn ms(&self) -> f64 {
        self.t1_ns.saturating_sub(self.t0_ns) as f64 / 1e6
    }
}

/// In-memory span recorder. Off (every call a no-op) on all end-to-end
/// measurements; on for the traced pass, clocked by the same telemetry
/// handle the program records with, so both streams share a time base.
pub struct Spans {
    clock: Option<Telemetry>,
    pub recs: Vec<Span>,
    stack: Vec<usize>,
}

impl Spans {
    pub fn off() -> Spans {
        Spans {
            clock: None,
            recs: Vec::new(),
            stack: Vec::new(),
        }
    }

    pub fn on(clock: Telemetry) -> Spans {
        Spans {
            clock: Some(clock),
            recs: Vec::new(),
            stack: Vec::new(),
        }
    }

    /// Runs `f` inside a span named `name` belonging to unit of work `op`.
    pub fn span<T>(&mut self, name: &'static str, op: u64, f: impl FnOnce(&mut Spans) -> T) -> T {
        let Some(t0_ns) = self.clock.as_ref().map(Telemetry::now_ns) else {
            return f(self);
        };
        let idx = self.recs.len();
        let parent = self.stack.last().map_or(0, |p| p + 1);
        self.recs.push(Span {
            name,
            t0_ns,
            t1_ns: t0_ns,
            parent,
            op,
        });
        self.stack.push(idx);
        let out = f(self);
        self.stack.pop();
        self.recs[idx].t1_ns = self.clock.as_ref().map_or(t0_ns, Telemetry::now_ns);
        out
    }

    fn to_jsonl(&self) -> String {
        let mut s = String::new();
        for (i, r) in self.recs.iter().enumerate() {
            let _ = writeln!(
                s,
                "{{\"bench_span\": {}, \"name\": \"{}\", \"t0_ns\": {}, \"t1_ns\": {}, \"parent\": {}, \"op\": {}}}",
                i + 1,
                r.name,
                r.t0_ns,
                r.t1_ns,
                r.parent,
                r.op
            );
        }
        s
    }
}

/// The five move phases in protocol order, with the metric each feeds.
const MOVE_PHASES: [(&str, &str); 5] = [
    ("move.export", "engine.phase.export_ms"),
    ("move.transfer", "engine.phase.transfer_ms"),
    ("move.import", "engine.phase.import_ms"),
    ("move.flush", "engine.phase.flush_ms"),
    ("move.fwd_update", "engine.phase.fwd_update_ms"),
];

/// Per-layer values of the traced pass.
///
/// `unit_span` names the benchmark span around one unit of work
/// (`bench.op` or `bench.batch`). Phase values are means per *move* op;
/// `engine.phase.other_ms` is the mean phase time of a copy or share op.
/// `engine.unexplained_ms` is, per unit of work, the benchmark's span
/// minus the longest (admission wait + Σ phases) among the ops the unit
/// ran: what the program's own spans do not account for.
pub fn reconcile(
    spans: &Spans,
    unit_span: &str,
    program: &ProgramTrace,
    untraced_p50_ms: f64,
) -> Vec<(&'static str, f64)> {
    let units: Vec<&Span> = spans.recs.iter().filter(|s| s.name == unit_span).collect();
    let n_units = units.len().max(1) as f64;
    let unit_ms = units.iter().map(|s| s.ms()).sum::<f64>() / n_units;
    let unit_all: Vec<f64> = units.iter().map(|s| s.ms()).collect();
    let unit_p50 = median(&unit_all);
    // Last quarter of the pass against its first: growth that does not
    // stop (router rules, journal) shows as a ratio that keeps above 1.
    // Read here, not off the reference pass, because that one starts the
    // process cold and its first second is slow for that reason alone.
    let n = unit_all.len();
    let drift = if n >= 8 {
        median(&unit_all[n - n / 4..]) / median(&unit_all[..n / 4])
    } else {
        0.0
    };

    let overhead = if untraced_p50_ms > 0.0 && !units.is_empty() {
        (unit_p50 - untraced_p50_ms) / untraced_p50_ms * 100.0
    } else {
        0.0
    };
    let mut out: Vec<(&'static str, f64)> = vec![
        ("bench.op_traced_ms", unit_ms),
        ("telemetry.overhead_pct", overhead),
        ("telemetry.dropped_records", program.dropped_records as f64),
        ("bench.spans", spans.recs.len() as f64),
        ("engine.drift_ratio", drift),
    ];
    // Only engine ops have wall-clock phase spans to reconcile: the data
    // plane records none, and the simulator's spans are in virtual time.
    if !matches!(unit_span, "bench.op" | "bench.batch") || program.ops.is_empty() {
        return out;
    }
    let moves: Vec<_> = program.ops.iter().filter(|o| o.kind == "move").collect();
    let n_moves = moves.len().max(1) as f64;
    for (phase, metric) in MOVE_PHASES {
        let total: u64 = moves
            .iter()
            .flat_map(|o| o.phases.iter())
            .filter(|(name, _)| name == phase)
            .map(|(_, ns)| *ns)
            .sum();
        out.push((metric, total as f64 / 1e6 / n_moves));
    }
    let others: Vec<_> = program.ops.iter().filter(|o| o.kind != "move").collect();
    let other_ns: u64 = others
        .iter()
        .flat_map(|o| o.phases.iter())
        .map(|(_, ns)| *ns)
        .sum();
    out.push((
        "engine.phase.other_ms",
        other_ns as f64 / 1e6 / others.len().max(1) as f64,
    ));

    let n_ops = program.ops.len().max(1) as f64;
    let wait_ns: u64 = program.ops.iter().map(|o| o.queue_wait_ns).sum();
    out.push(("engine.admission_wait_ms", wait_ns as f64 / 1e6 / n_ops));

    // Ops are profiled in start order and every unit of work starts the
    // same number of them, so consecutive runs of ops belong to one unit.
    let per_unit = (program.ops.len() / units.len().max(1)).max(1);
    let explained_ms: f64 = program
        .ops
        .chunks(per_unit)
        .map(|ops| {
            ops.iter()
                .map(|o| o.queue_wait_ns + o.phases.iter().map(|(_, ns)| *ns).sum::<u64>())
                .max()
                .unwrap_or(0) as f64
                / 1e6
        })
        .sum::<f64>()
        / n_units;
    out.push(("engine.unexplained_ms", unit_ms - explained_ms));
    out.push(("rt.frames_per_op", program.frames as f64 / n_ops));
    out.push((
        "rt.events_pumped_per_op",
        program.events_pumped as f64 / n_ops,
    ));
    out.push(("rt.p2p_dials", program.p2p_dials as f64));
    out.push((
        "telemetry.records_per_op",
        program.jsonl.lines().count() as f64 / n_ops,
    ));
    out
}

/// Where trace files go: under the build's target directory, which the
/// root `.gitignore` already covers.
pub fn trace_path(workload: &str) -> PathBuf {
    let target =
        std::env::var_os("CARGO_TARGET_DIR").map_or_else(|| "target".into(), PathBuf::from);
    target
        .join("benchmark")
        .join(format!("trace-{workload}.jsonl"))
}

/// Writes the benchmark's spans followed by the program's flight-recorder
/// JSONL. Returns the path written.
pub fn write_trace(
    workload: &str,
    spans: &Spans,
    program: &ProgramTrace,
) -> std::io::Result<PathBuf> {
    let path = trace_path(workload);
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    std::fs::write(&path, spans.to_jsonl() + &program.jsonl)?;
    Ok(path)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::api::{self, OpPhases};

    #[test]
    fn spans_nest_and_are_free_when_off() {
        let mut off = Spans::off();
        assert_eq!(off.span("bench.op", 0, |_| 7), 7);
        assert!(off.recs.is_empty());

        let mut on = Spans::on(api::telemetry_wall(16));
        on.span("bench.op", 3, |s| s.span("bench.quiesce", 3, |_| ()));
        assert_eq!(on.recs.len(), 2);
        assert_eq!((on.recs[0].parent, on.recs[1].parent), (0, 1));
        assert!(on.recs[0].t1_ns >= on.recs[1].t1_ns && on.recs[1].t0_ns >= on.recs[0].t0_ns);
        assert_eq!(on.to_jsonl().lines().count(), 2);
        assert!(serde_json::Value::parse_json(on.to_jsonl().lines().next().unwrap()).is_ok());
    }

    #[test]
    fn reconciliation_subtracts_the_slowest_op_of_each_unit() {
        let mut spans = Spans::off();
        for i in 0..2 {
            spans.recs.push(Span {
                name: "bench.batch",
                t0_ns: 0,
                t1_ns: 10_000_000,
                parent: 0,
                op: i,
            });
        }
        let op = |kind, wait, phases: &[(&str, u64)]| OpPhases {
            kind,
            queue_wait_ns: wait,
            phases: phases.iter().map(|(n, d)| (n.to_string(), *d)).collect(),
        };
        let program = ProgramTrace {
            ops: vec![
                op(
                    "move",
                    0,
                    &[("move.export", 2_000_000), ("move.fwd_update", 6_000_000)],
                ),
                op("copy", 1_000_000, &[("copy.export", 3_000_000)]),
                op(
                    "move",
                    0,
                    &[("move.export", 4_000_000), ("move.fwd_update", 5_000_000)],
                ),
                op("copy", 1_000_000, &[("copy.export", 3_000_000)]),
            ],
            frames: 40,
            events_pumped: 0,
            p2p_dials: 0,
            dropped_records: 0,
            jsonl: String::new(),
        };
        let m = reconcile(&spans, "bench.batch", &program, 8.0);
        let get = |k: &str| m.iter().find(|x| x.0 == k).unwrap().1;
        assert_eq!(get("engine.phase.export_ms"), 3.0);
        assert_eq!(get("engine.phase.fwd_update_ms"), 5.5);
        assert_eq!(get("engine.phase.other_ms"), 3.0);
        assert_eq!(get("engine.admission_wait_ms"), 0.5);
        // Units explain 8 ms and 9 ms of their 10 ms: 1.5 ms unexplained.
        assert_eq!(get("engine.unexplained_ms"), 1.5);
        assert_eq!(get("rt.frames_per_op"), 10.0);
        assert_eq!(get("telemetry.overhead_pct"), 25.0);
    }
}
