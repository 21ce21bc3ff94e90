//! The repository benchmark. See `README.md` beside `Cargo.toml` for the
//! workloads, the metrics and how to read them.
//!
//! ```text
//! benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1>
//!     one run of one workload; the last line of standard output is the
//!     result as one JSON object (what BENCHMARK.json's driver reads)
//! benchmark [--seed <n>] [--seconds <s>]
//!     every workload, untraced then traced, each in a child process;
//!     prints every metric by name with its unit
//! benchmark --check [--seed <n>] [--seconds <s>]
//!     two sets of three untraced runs per workload with the same seed;
//!     fails, naming metric and workload, when the sets' medians of an
//!     end-to-end metric differ by more than its bound
//! benchmark --smoke
//!     every workload at about 1/20 size, in this process, checks only
//! benchmark --benchmark-json
//!     prints BENCHMARK.json as the tables in `metrics.rs` define it
//! ```

mod api;
mod gen;
mod ladder;
mod metrics;
mod stamp;
mod trace;
mod workloads;

use std::process::{Command, ExitCode};
use std::time::Instant;

use metrics::{
    median, p90, percentile, quartiles, Better, RunResult, END_TO_END, MIN_SAMPLES, PER_LAYER,
    WORKLOADS,
};
use trace::Spans;
use workloads::{measure, Config, Finish, Pass};

/// Set-ups timed per run; `setup_s` is their median.
const SETUPS: usize = 5;
/// Flight-recorder capacity of the traced pass: far above what a third of
/// a run records, so nothing is evicted (`telemetry.dropped_records`
/// reports it if that ever stops being true). The ring grows on demand.
const TRACE_CAPACITY: usize = 1 << 20;

struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
    smoke: bool,
    check: bool,
    benchmark_json: bool,
}

impl Default for Args {
    fn default() -> Args {
        Args {
            workload: None,
            seed: 1,
            seconds: f64::from(RUN_SECONDS),
            trace: false,
            smoke: false,
            check: false,
            benchmark_json: false,
        }
    }
}

impl Args {
    fn smoke() -> Args {
        Args {
            seconds: 0.1,
            smoke: true,
            ..Args::default()
        }
    }
}

fn parse_args() -> Result<Args, String> {
    let mut a = Args::default();
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => a.workload = Some(value()?),
            "--seed" => a.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => a.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?,
            "--trace" => a.trace = matches!(value()?.as_str(), "1" | "true"),
            "--smoke" => a.smoke = true,
            "--check" => a.check = true,
            "--benchmark-json" => a.benchmark_json = true,
            other => return Err(format!("unknown argument '{other}'")),
        }
    }
    if !(a.seconds > 0.0 && a.seconds <= 60.0) {
        return Err("--seconds must be in (0, 60]".into());
    }
    Ok(a)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("benchmark: {e}");
            return ExitCode::from(2);
        }
    };
    let ok = match &args.workload {
        Some(name) if metrics::workload(name).is_none() => {
            eprintln!("benchmark: unknown workload '{name}'");
            return ExitCode::from(2);
        }
        Some(name) => {
            let result = if args.trace {
                run_traced(name, &args)
            } else {
                run_untraced(name, &args)
            };
            println!("{}", result.to_json());
            result.correct
        }
        None if args.benchmark_json => {
            print!("{}", benchmark_json());
            true
        }
        None if args.smoke => smoke(args.seed),
        None if args.check => check(&args),
        None => full_set(&args),
    };
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// How long one driver run measures, and the command it runs.
const RUN_SECONDS: u32 = 15;
const COMMAND: [&str; 8] = [
    "cargo",
    "run",
    "--release",
    "--offline",
    "--quiet",
    "--manifest-path",
    "crates/bench/src/bin/benchmark/Cargo.toml",
    "--",
];

/// `BENCHMARK.json`, generated from the tables so the two cannot drift.
fn benchmark_json() -> String {
    let list = |rows: Vec<String>| format!("[\n    {}\n  ]", rows.join(",\n    "));
    let command: Vec<String> = COMMAND.iter().map(|c| format!("\"{c}\"")).collect();
    format!(
        "{{\n  \"command\": [{}],\n  \"paths\": [\"crates/bench/src/bin/benchmark\"],\n  \"run_seconds\": {RUN_SECONDS},\n  \"workloads\": {},\n  \"end_to_end\": {},\n  \"per_layer\": {}\n}}\n",
        command.join(", "),
        list(WORKLOADS.iter().map(|w| format!("{{\"name\": \"{}\", \"why\": \"{}\"}}", w.name, w.why)).collect()),
        list(
            END_TO_END
                .iter()
                .map(|m| {
                    format!(
                        "{{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\", \"bound\": {}}}",
                        m.name,
                        m.unit,
                        m.better.as_str(),
                        m.bound
                    )
                })
                .collect()
        ),
        list(
            PER_LAYER
                .iter()
                .map(|m| format!("{{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\"}}", m.name, m.unit, m.better.as_str()))
                .collect()
        ),
    )
}

fn floor(smoke: bool) -> usize {
    if smoke {
        3
    } else {
        MIN_SAMPLES
    }
}

fn report_checks(workload: &str, pass: &Pass, fin: &Finish) -> bool {
    let mut ok = pass.failed == 0;
    if pass.failed > 0 {
        println!(
            "FAILED  {workload}: {} of {} units of work failed",
            pass.failed, pass.attempted
        );
    }
    for c in &fin.checks {
        if !c.ok {
            println!("FAILED  {workload}: check {}: {}", c.name, c.detail);
            ok = false;
        }
    }
    ok
}

/// `--trace 0`: the end-to-end metrics, program telemetry disabled, no
/// benchmark spans.
fn run_untraced(name: &str, args: &Args) -> RunResult {
    describe(name);
    let cfg = Config {
        seed: args.seed,
        smoke: args.smoke,
        tel: api::telemetry_off(),
        extras: false,
    };
    let mut spans = Spans::off();
    let mut setup_s = Vec::new();
    let mut built = None;
    for _ in 0..SETUPS {
        if let Some(previous) = built.take() {
            let _: Finish = workloads::Workload::finish(previous);
        }
        let t0 = Instant::now();
        built = workloads::setup(name, &cfg, &mut spans);
        setup_s.push(t0.elapsed().as_secs_f64());
    }
    let mut w = built.expect("main checked the workload's name");
    let pass = measure(w.as_mut(), args.seconds, floor(args.smoke), &mut spans);
    let fin = w.finish();
    let mut correct = report_checks(name, &pass, &fin);

    let (samples, items_per_s, attempted, failed) = match fin.samples {
        Some(s) => (s.ms, s.items_per_s, s.attempted, s.failed + pass.failed),
        None => {
            let items_per_s = pass.items as f64 / pass.busy_s();
            (pass.samples_ms, items_per_s, pass.attempted, pass.failed)
        }
    };
    let tail = p90(&samples).or_else(|| {
        if !args.smoke {
            println!(
                "FAILED  {name}: {} samples, a p90 needs {MIN_SAMPLES}",
                samples.len()
            );
            correct = false;
        }
        percentile(&samples, 0.90)
    });
    let result = RunResult {
        correct,
        attempted: attempted.max(1),
        failed,
        metrics: vec![
            ("op_ms_p50", median(&samples), "ms"),
            ("op_ms_p90", tail.unwrap_or(0.0), "ms"),
            ("items_per_s", items_per_s, "1/s"),
            ("peak_rss_mb", pass.rss_at_floor_mb, "MB"),
            ("setup_s", median(&setup_s), "s"),
        ],
    };
    println!(
        "{name}: {} samples, {} units attempted, {} failed",
        samples.len(),
        pass.attempted,
        pass.failed
    );
    if let Some([q1, q2, q3]) = quartiles(&samples) {
        println!("{name}: per-sample quartiles {q1:.3} {q2:.3} {q3:.3} ms");
    }
    print_metrics(&result);
    result
}

/// `--trace 1`: the per-layer metrics. An untraced reference pass, the
/// function ladder, then a traced pass with benchmark spans on — each a
/// third of `--seconds`.
fn run_traced(name: &str, args: &Args) -> RunResult {
    describe(name);
    let third = args.seconds / 3.0;
    let mut values: Vec<(&'static str, f64)> = Vec::new();

    let cfg = Config {
        seed: args.seed,
        smoke: args.smoke,
        tel: api::telemetry_off(),
        extras: true,
    };
    let mut w =
        workloads::setup(name, &cfg, &mut Spans::off()).expect("main checked the workload's name");
    let reference = measure(
        w.as_mut(),
        third,
        floor(args.smoke).min(30),
        &mut Spans::off(),
    );
    let fin = w.finish();
    let mut correct = report_checks(name, &reference, &fin);
    let ref_p50 = median(&reference.samples_ms);
    values.push(("bench.ref_op_ms_p50", ref_p50));
    values.push(("bench.ref_samples", reference.samples_ms.len() as f64));
    values.push((
        "op_fail_share",
        reference.failed as f64 / reference.attempted.max(1) as f64,
    ));
    values.push((
        "pkt_bad_share",
        fin.packets.bad as f64 / fin.packets.sent.max(1) as f64,
    ));
    let rules_end = fin
        .layer
        .iter()
        .find(|l| l.0 == "router.rules_end")
        .map_or(1, |l| l.1 as usize);
    values.extend(fin.layer);

    values.extend(ladder::run(args.seed, args.smoke, rules_end));

    let tel = api::telemetry_wall(TRACE_CAPACITY);
    let mut spans = Spans::on(tel.clone());
    let cfg = Config {
        tel: tel.clone(),
        extras: false,
        ..cfg
    };
    let mut w = workloads::setup(name, &cfg, &mut spans).expect("main checked the workload's name");
    let unit_span = w.unit_span();
    let traced = measure(w.as_mut(), third, floor(args.smoke).min(30), &mut spans);
    let fin = w.finish();
    correct &= report_checks(name, &traced, &fin);
    let program = api::program_trace(&tel);
    let recon = trace::reconcile(&spans, unit_span, &program, ref_p50);
    match trace::write_trace(name, &spans, &program) {
        Ok(path) => println!("{name}: trace written to {}", path.display()),
        Err(e) => {
            println!("FAILED  {name}: cannot write the trace file: {e}");
            correct = false;
        }
    }
    if program.dropped_records > 0 {
        println!(
            "{name}: TRUNCATED trace, {} records evicted",
            program.dropped_records
        );
    }
    let get = |k: &str| recon.iter().find(|r| r.0 == k).map_or(0.0, |r| r.1);
    let phases: f64 = recon
        .iter()
        .filter(|r| r.0.starts_with("engine.phase.") && r.0 != "engine.phase.other_ms")
        .map(|r| r.1)
        .sum();
    println!(
        "{name}: reconciliation per {unit_span}: wall {:.3} ms = admission wait {:.3} + move phases {:.3} (other kinds {:.3}) + unexplained {:.3}",
        get("bench.op_traced_ms"),
        get("engine.admission_wait_ms"),
        phases,
        get("engine.phase.other_ms"),
        get("engine.unexplained_ms"),
    );
    values.extend(recon);

    let result = RunResult {
        correct,
        attempted: (reference.attempted + traced.attempted).max(1),
        failed: reference.failed + traced.failed,
        metrics: PER_LAYER
            .iter()
            .map(|m| {
                (
                    m.name,
                    values.iter().find(|v| v.0 == m.name).map_or(0.0, |v| v.1),
                    m.unit,
                )
            })
            .collect(),
    };
    print_metrics(&result);
    result
}

fn print_metrics(r: &RunResult) {
    for (name, value, unit) in &r.metrics {
        println!("  {name:<34} {value:>16.4} {unit}");
    }
}

fn describe(name: &str) {
    if let Some(w) = metrics::workload(name) {
        println!(
            "{name}: one sample per {}; items_per_s counts {}s",
            w.unit_of_work, w.item
        );
        println!("{name}: {}", w.why);
    }
}

/// Every workload at about 1/20 size in this process: correctness only.
fn smoke(seed: u64) -> bool {
    let args = Args {
        seed,
        ..Args::smoke()
    };
    WORKLOADS
        .iter()
        .all(|w| run_untraced(w.name, &args).correct && run_traced(w.name, &args).correct)
}

/// Runs one workload in a child process, so peak memory and set-up time
/// are the workload's own, and parses the child's result line.
fn child(name: &str, args: &Args, trace: bool) -> Result<RunResult, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find own executable: {e}"))?;
    let out = Command::new(exe)
        .args(["--workload", name, "--seed", &args.seed.to_string()])
        .args([
            "--seconds",
            &args.seconds.to_string(),
            "--trace",
            if trace { "1" } else { "0" },
        ])
        .output()
        .map_err(|e| format!("cannot run {name}: {e}"))?;
    let text = String::from_utf8_lossy(&out.stdout);
    // Failures, the per-sample spread and the trace reconciliation are
    // worth reading in the parent's output too.
    let notable = ["FAILED", "TRUNCATED", "quartiles", "reconciliation"];
    for line in text
        .lines()
        .filter(|l| notable.iter().any(|n| l.contains(n)))
    {
        println!("{line}");
    }
    let last = text
        .lines()
        .last()
        .ok_or_else(|| format!("{name}: the run printed nothing"))?;
    let result = RunResult::from_json(last).map_err(|e| format!("{name}: {e}"))?;
    if !out.status.success() && result.correct {
        return Err(format!("{name}: exited with {}", out.status));
    }
    Ok(result)
}

type Column = (&'static str, &'static str, Better);

fn print_table(title: &str, rows: &[(&str, RunResult)], names: impl Iterator<Item = Column>) {
    println!("\n== {title} ==");
    print!("{:<34} {:>6} {:>6}", "metric", "unit", "better");
    for (w, _) in rows {
        print!(" {:>17}", w);
    }
    println!();
    for (name, unit, better) in names {
        print!("{name:<34} {unit:>6} {:>6}", better.as_str());
        for (_, r) in rows {
            print!(" {:>17.4}", r.get(name).unwrap_or(0.0));
        }
        println!();
    }
}

fn run_set(args: &Args, trace: bool) -> Option<Vec<(&'static str, RunResult)>> {
    let mut rows = Vec::new();
    for w in &WORKLOADS {
        let t0 = Instant::now();
        match child(w.name, args, trace) {
            Ok(r) => {
                eprintln!(
                    "{:<18} trace={} {:>5.1} s  {} attempted, {} failed, {}",
                    w.name,
                    trace as u8,
                    t0.elapsed().as_secs_f64(),
                    r.attempted,
                    r.failed,
                    if r.correct { "correct" } else { "INCORRECT" }
                );
                rows.push((w.name, r));
            }
            Err(e) => {
                println!("FAILED  {e}");
                return None;
            }
        }
    }
    Some(rows)
}

/// Every workload, untraced then traced; every metric by name and unit.
fn full_set(args: &Args) -> bool {
    let Some(e2e) = run_set(args, false) else {
        return false;
    };
    print_table(
        "end to end (tracing off)",
        &e2e,
        END_TO_END.iter().map(|m| (m.name, m.unit, m.better)),
    );
    let Some(layers) = run_set(args, true) else {
        return false;
    };
    print_table(
        "per layer (ladder, reference pass, traced pass)",
        &layers,
        PER_LAYER.iter().map(|m| (m.name, m.unit, m.better)),
    );
    let ok = e2e
        .iter()
        .chain(&layers)
        .all(|(_, r)| r.correct && r.failed == 0);
    println!(
        "\n{}",
        if ok {
            "all correctness checks passed"
        } else {
            "FAILED  a correctness check failed (see above)"
        }
    );
    ok
}

/// Runs per workload in each set of `--check`; a set's value is their median.
const CHECK_RUNS: usize = 3;

/// The median, per workload and end-to-end metric, over `CHECK_RUNS`
/// untraced sets.
fn median_set(args: &Args) -> Option<Vec<(&'static str, RunResult)>> {
    let sets: Vec<_> = (0..CHECK_RUNS)
        .map(|_| run_set(args, false))
        .collect::<Option<_>>()?;
    let rows = WORKLOADS.iter().enumerate().map(|(i, w)| {
        let runs: Vec<&RunResult> = sets.iter().map(|set| &set[i].1).collect();
        let merged = RunResult {
            correct: runs.iter().all(|r| r.correct),
            attempted: runs.iter().map(|r| r.attempted).sum(),
            failed: runs.iter().map(|r| r.failed).sum(),
            metrics: END_TO_END
                .iter()
                .map(|m| {
                    let values: Vec<f64> = runs.iter().filter_map(|r| r.get(m.name)).collect();
                    (m.name, median(&values), m.unit)
                })
                .collect(),
        };
        (w.name, merged)
    });
    Some(rows.collect())
}

/// Two sets of untraced runs with one seed must agree within every
/// metric's bound.
fn check(args: &Args) -> bool {
    let (Some(first), Some(second)) = (median_set(args), median_set(args)) else {
        return false;
    };
    let columns = || END_TO_END.iter().map(|m| (m.name, m.unit, m.better));
    print_table(
        &format!("first set (medians of {CHECK_RUNS} runs)"),
        &first,
        columns(),
    );
    print_table(
        &format!("second set (medians of {CHECK_RUNS} runs)"),
        &second,
        columns(),
    );
    let mut ok = first
        .iter()
        .chain(&second)
        .all(|(_, r)| r.correct && r.failed == 0);
    println!("\n== second set against first ==");
    for ((w, a), (_, b)) in first.iter().zip(&second) {
        for m in &END_TO_END {
            let (x, y) = (a.get(m.name).unwrap_or(0.0), b.get(m.name).unwrap_or(0.0));
            let worse = match m.better {
                Better::Lower => (y - x) / x,
                Better::Higher => (x - y) / x,
            };
            let verdict = if worse.abs() > m.bound {
                "OUT OF BOUND"
            } else {
                "ok"
            };
            println!(
                "{w:<18} {:<12} {x:>14.4} {y:>14.4} {:>+7.2}% of ±{:.0}%  {verdict}",
                m.name,
                worse * 100.0,
                m.bound * 100.0
            );
            ok &= worse.abs() <= m.bound;
        }
    }
    println!(
        "\n{}",
        if ok {
            "sets agree within every bound"
        } else {
            "FAILED  sets disagree (see OUT OF BOUND rows)"
        }
    );
    ok
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `BENCHMARK.json` must be what the tables in `metrics.rs` generate,
    /// and a run must emit exactly the metrics it declares.
    #[test]
    fn benchmark_json_and_emitted_metrics_match_the_tables() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../../../../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        assert_eq!(
            text,
            benchmark_json(),
            "regenerate with `benchmark --benchmark-json > BENCHMARK.json`"
        );
        let v = serde_json::Value::parse_json(&text).expect("BENCHMARK.json parses");
        let mut keys: Vec<&str> = v
            .as_object()
            .unwrap()
            .iter()
            .map(|(k, _)| k.as_ref())
            .collect();
        keys.sort_unstable();
        assert_eq!(
            keys,
            [
                "command",
                "end_to_end",
                "paths",
                "per_layer",
                "run_seconds",
                "workloads"
            ]
        );
        assert!(text.len() < 64 * 1024);

        // One smoke-size run of each kind emits exactly the declared names.
        let args = Args {
            seed: 2,
            ..Args::smoke()
        };
        let line = run_untraced("move_small_idle", &args).to_json();
        let emitted = RunResult::from_json(&line).expect("the result line parses");
        assert_eq!(
            emitted.metrics.iter().map(|m| m.0).collect::<Vec<_>>(),
            END_TO_END.iter().map(|m| m.name).collect::<Vec<_>>()
        );
        assert!(emitted.correct && emitted.metrics.iter().all(|m| m.1 > 0.0));
        let line = run_traced("move_small_idle", &args).to_json();
        let emitted = RunResult::from_json(&line).expect("the result line parses");
        assert_eq!(
            emitted.metrics.iter().map(|m| m.0).collect::<Vec<_>>(),
            PER_LAYER.iter().map(|m| m.name).collect::<Vec<_>>()
        );
        assert!(emitted.correct);
    }
}
