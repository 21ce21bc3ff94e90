//! Exporters: JSONL (one record per line, grep-friendly) and the Chrome
//! `chrome://tracing` / Perfetto trace-event format.
//!
//! Both are built through `serde_json::Value` so the output is guaranteed
//! to be syntactically valid JSON — the Chrome file in particular must
//! round-trip through a strict parser or the viewer silently shows an
//! empty timeline.

use serde_json::Value;

use crate::metrics::{HistSnapshot, Registry};
use crate::recorder::{Kind, Rec};

fn obj(fields: Vec<(&'static str, Value)>) -> Value {
    Value::Object(fields.into_iter().map(|(k, v)| (k.into(), v)).collect())
}

fn rec_value(r: &Rec) -> Value {
    let mut fields = vec![
        ("t_ns", Value::UInt(r.t_ns)),
        (
            "kind",
            Value::Str(
                match r.kind {
                    Kind::Begin => "begin",
                    Kind::End => "end",
                    Kind::Event => "event",
                }
                .into(),
            ),
        ),
        ("name", Value::Str(r.name.to_string().into())),
        ("id", Value::UInt(r.id)),
        ("parent", Value::UInt(r.parent)),
        ("tid", Value::UInt(r.tid)),
    ];
    if let Some(arg) = &r.arg {
        fields.push(("arg", Value::Str(arg.clone().into())));
    }
    obj(fields)
}

fn hist_value(s: &HistSnapshot) -> Value {
    obj(vec![
        ("count", Value::UInt(s.count)),
        ("sum", Value::UInt(s.sum)),
        ("p50", Value::UInt(s.p50)),
        ("p95", Value::UInt(s.p95)),
        ("p99", Value::UInt(s.p99)),
        ("min", Value::UInt(s.min)),
        ("max", Value::UInt(s.max)),
    ])
}

/// One line per record, oldest first, then one `{"counters":…}` summary
/// line with every counter, gauge, and histogram snapshot.
pub fn jsonl(records: &[Rec], registry: &Registry, dropped: u64) -> String {
    let mut out = String::new();
    for r in records {
        rec_value(r).encode_json_into(&mut out);
        out.push('\n');
    }
    let summary = obj(vec![
        ("dropped_records", Value::UInt(dropped)),
        (
            "counters",
            Value::Object(
                registry.counters().into_iter().map(|(k, v)| (k.into(), Value::UInt(v))).collect(),
            ),
        ),
        (
            "gauges",
            Value::Object(
                registry.gauges().into_iter().map(|(k, v)| (k.into(), Value::UInt(v))).collect(),
            ),
        ),
        (
            "hists",
            Value::Object(
                registry.hists().into_iter().map(|(k, s)| (k.into(), hist_value(&s))).collect(),
            ),
        ),
    ]);
    summary.encode_json_into(&mut out);
    out.push('\n');
    out
}

/// A flight-recorder record with an owned name, as re-imported from a
/// JSONL dump. Field-for-field identical to [`Rec`] except that the name
/// is a `String` (the `&'static str` interning is lost across the file
/// boundary).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct OwnedRec {
    /// Timestamp (ns on the exporting run's clock).
    pub t_ns: u64,
    /// Begin / end / instant.
    pub kind: Kind,
    /// Span id (0 for events).
    pub id: u64,
    /// Parent span id (0 = no parent).
    pub parent: u64,
    /// Recording thread.
    pub tid: u64,
    /// Span or event name.
    pub name: String,
    /// Formatted attributes.
    pub arg: Option<String>,
}

impl From<&Rec> for OwnedRec {
    fn from(r: &Rec) -> Self {
        OwnedRec {
            t_ns: r.t_ns,
            kind: r.kind,
            id: r.id,
            parent: r.parent,
            tid: r.tid,
            name: r.name.to_string(),
            arg: r.arg.clone(),
        }
    }
}

/// The metrics summary line a JSONL dump ends with.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct JsonlSummary {
    /// Records the ring evicted before the dump.
    pub dropped_records: u64,
    /// Counter name → value.
    pub counters: Vec<(String, u64)>,
    /// Gauge name → last value.
    pub gauges: Vec<(String, u64)>,
    /// Histogram name → snapshot.
    pub hists: Vec<(String, HistSnapshot)>,
}

fn parse_u64(v: &Value, key: &str) -> Result<u64, String> {
    v.get(key).and_then(Value::as_u64).ok_or_else(|| format!("missing or non-integer `{key}`"))
}

fn parse_name_u64_map(v: Option<&Value>) -> Vec<(String, u64)> {
    v.and_then(Value::as_object)
        .map(|o| {
            o.iter()
                .filter_map(|(k, v)| v.as_u64().map(|n| (k.to_string(), n)))
                .collect()
        })
        .unwrap_or_default()
}

/// Re-imports a [`crate::Telemetry::export_jsonl`] dump: the inverse of the
/// exporter, so a dump can be analyzed offline with the same tooling that
/// reads a live recorder. Returns the record stream (oldest first) and,
/// when present, the final summary line. Blank lines are skipped; a
/// malformed line is an error.
pub fn parse_jsonl(text: &str) -> Result<(Vec<OwnedRec>, Option<JsonlSummary>), String> {
    let mut records = Vec::new();
    let mut summary = None;
    for (ln, line) in text.lines().enumerate() {
        let line = line.trim();
        if line.is_empty() {
            continue;
        }
        let v = Value::parse_json(line).map_err(|e| format!("line {}: {e:?}", ln + 1))?;
        if v.get("kind").is_some() {
            let kind = match v.get("kind").and_then(Value::as_str) {
                Some("begin") => Kind::Begin,
                Some("end") => Kind::End,
                Some("event") => Kind::Event,
                other => return Err(format!("line {}: bad kind {other:?}", ln + 1)),
            };
            records.push(OwnedRec {
                t_ns: parse_u64(&v, "t_ns").map_err(|e| format!("line {}: {e}", ln + 1))?,
                kind,
                id: parse_u64(&v, "id").map_err(|e| format!("line {}: {e}", ln + 1))?,
                parent: parse_u64(&v, "parent").map_err(|e| format!("line {}: {e}", ln + 1))?,
                tid: parse_u64(&v, "tid").map_err(|e| format!("line {}: {e}", ln + 1))?,
                name: v
                    .get("name")
                    .and_then(Value::as_str)
                    .ok_or_else(|| format!("line {}: missing `name`", ln + 1))?
                    .to_string(),
                arg: v.get("arg").and_then(Value::as_str).map(str::to_string),
            });
        } else if v.get("counters").is_some() {
            let hists = v
                .get("hists")
                .and_then(Value::as_object)
                .map(|o| {
                    o.iter()
                        .filter_map(|(k, h)| {
                            Some((
                                k.to_string(),
                                HistSnapshot {
                                    count: h.get("count").and_then(Value::as_u64)?,
                                    sum: h.get("sum").and_then(Value::as_u64)?,
                                    p50: h.get("p50").and_then(Value::as_u64)?,
                                    p95: h.get("p95").and_then(Value::as_u64)?,
                                    p99: h.get("p99").and_then(Value::as_u64)?,
                                    // Dumps from before min/max existed
                                    // re-import as 0 extremes.
                                    min: h.get("min").and_then(Value::as_u64).unwrap_or(0),
                                    max: h.get("max").and_then(Value::as_u64).unwrap_or(0),
                                },
                            ))
                        })
                        .collect()
                })
                .unwrap_or_default();
            summary = Some(JsonlSummary {
                dropped_records: v.get("dropped_records").and_then(Value::as_u64).unwrap_or(0),
                counters: parse_name_u64_map(v.get("counters")),
                gauges: parse_name_u64_map(v.get("gauges")),
                hists,
            });
        } else {
            return Err(format!("line {}: neither record nor summary", ln + 1));
        }
    }
    Ok((records, summary))
}

/// Chrome trace-event JSON (`{"traceEvents": […]}`): load the file via
/// `chrome://tracing` or <https://ui.perfetto.dev>. Timestamps are
/// microseconds (the format's unit); span begin/end map to `"B"`/`"E"`
/// phases on the recording thread's track, instants to `"i"`.
pub fn chrome_trace(records: &[Rec]) -> String {
    let events: Vec<Value> = records
        .iter()
        .map(|r| {
            let mut fields = vec![
                ("name", Value::Str(r.name.to_string().into())),
                ("ph", Value::Str(r.kind.phase().to_string().into())),
                ("ts", Value::Float(r.t_ns as f64 / 1_000.0)),
                ("pid", Value::UInt(1)),
                ("tid", Value::UInt(r.tid)),
            ];
            if r.kind == Kind::Event {
                fields.push(("s", Value::Str("t".into())));
            }
            if let Some(arg) = &r.arg {
                fields.push(("args", obj(vec![("arg", Value::Str(arg.clone().into()))])));
            }
            obj(fields)
        })
        .collect();
    obj(vec![
        ("traceEvents", Value::Array(events)),
        ("displayTimeUnit", Value::Str("ms".into())),
    ])
    .encode_json()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn recs() -> Vec<Rec> {
        vec![
            Rec {
                t_ns: 1_000,
                kind: Kind::Begin,
                id: 1,
                parent: 0,
                tid: 0,
                name: "move.export",
                arg: Some("flows=3".into()),
            },
            Rec { t_ns: 2_000, kind: Kind::Event, id: 0, parent: 1, tid: 0, name: "fault.drop", arg: None },
            Rec { t_ns: 5_000, kind: Kind::End, id: 1, parent: 0, tid: 0, name: "move.export", arg: None },
        ]
    }

    #[test]
    fn jsonl_lines_each_parse() {
        let reg = Registry::default();
        reg.counter("c").fetch_add(2, std::sync::atomic::Ordering::Relaxed);
        reg.hist("h").record(42);
        let text = jsonl(&recs(), &reg, 7);
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 4, "3 records + 1 summary");
        for line in &lines {
            Value::parse_json(line).expect("every JSONL line is valid JSON");
        }
        let summary = Value::parse_json(lines[3]).unwrap();
        assert_eq!(summary.get("dropped_records").and_then(Value::as_u64), Some(7));
        assert_eq!(
            summary.get("counters").and_then(|c| c.get("c")).and_then(Value::as_u64),
            Some(2)
        );
    }

    #[test]
    fn jsonl_round_trips_records_and_summary() {
        let reg = Registry::default();
        reg.counter("rt.fenced.dropped").fetch_add(3, std::sync::atomic::Ordering::Relaxed);
        reg.gauge("engine.queue_depth").store(2, std::sync::atomic::Ordering::Relaxed);
        reg.hist("move.export").record(1_500);
        let text = jsonl(&recs(), &reg, 7);
        let (back, summary) = parse_jsonl(&text).expect("re-import parses");
        let want: Vec<OwnedRec> = recs().iter().map(OwnedRec::from).collect();
        assert_eq!(back, want, "record stream survives the round trip unchanged");
        let summary = summary.expect("summary line present");
        assert_eq!(summary.dropped_records, 7);
        assert_eq!(summary.counters, vec![("rt.fenced.dropped".to_string(), 3)]);
        assert_eq!(summary.gauges, vec![("engine.queue_depth".to_string(), 2)]);
        assert_eq!(summary.hists.len(), 1);
        assert_eq!(summary.hists[0].0, "move.export");
        assert_eq!(summary.hists[0].1.count, 1);
    }

    #[test]
    fn jsonl_round_trips_escaped_and_non_ascii_fault_payloads() {
        // Fault events carry free-form reason strings: quotes, backslashes,
        // newlines, control chars, and non-ASCII text all must survive the
        // JSON escape/unescape cycle byte-for-byte.
        let nasty = vec![
            Rec {
                t_ns: 10,
                kind: Kind::Event,
                id: 0,
                parent: 0,
                tid: 1,
                name: "fault.crash_loss",
                arg: Some("reason=\"broken \\ pipe\"\nline2\ttab\u{1}".into()),
            },
            Rec {
                t_ns: 20,
                kind: Kind::Event,
                id: 0,
                parent: 0,
                tid: 1,
                name: "fault.drop",
                arg: Some("ствол упал — 故障注入 — ω≠0 🚨".into()),
            },
        ];
        let text = jsonl(&nasty, &Registry::default(), 0);
        let (back, _) = parse_jsonl(&text).expect("escaped payloads re-import");
        let want: Vec<OwnedRec> = nasty.iter().map(OwnedRec::from).collect();
        assert_eq!(back, want);
    }

    #[test]
    fn parse_jsonl_rejects_garbage_lines() {
        assert!(parse_jsonl("{\"kind\":\"wat\"}").is_err());
        assert!(parse_jsonl("not json").is_err());
        assert!(parse_jsonl("{\"neither\":1}").is_err());
        // Blank lines are tolerated (trailing newline in dumps).
        let (recs, summary) = parse_jsonl("\n\n").unwrap();
        assert!(recs.is_empty() && summary.is_none());
    }

    #[test]
    fn chrome_trace_round_trips_and_balances_phases() {
        let text = chrome_trace(&recs());
        let v = Value::parse_json(&text).expect("chrome trace is valid JSON");
        let events = v.get("traceEvents").and_then(Value::as_array).expect("traceEvents array");
        assert_eq!(events.len(), 3);
        let phases: Vec<&str> =
            events.iter().filter_map(|e| e.get("ph").and_then(Value::as_str)).collect();
        assert_eq!(phases, vec!["B", "i", "E"]);
        // ts is microseconds.
        assert_eq!(events[0].get("ts").and_then(Value::as_f64), Some(1.0));
    }
}
