//! Machine-readable hot-path benchmarks: per-packet classification,
//! southbound serialization, and bulk per-flow move throughput.
//!
//! Unlike the paper-artifact experiments this module measures *wall
//! clock* of the repro's own hot paths, and writes the numbers to a
//! `BENCH_<n>.json` in the working directory so the repo accumulates a
//! perf trajectory across PRs. `compare` checks a run against a
//! checked-in baseline and fails on >25% regression of any shared key
//! (all keys are lower-is-better latencies).

use opennf_controller::msg::MoveProps;
use opennf_net::{Action, FlowTable, PortRef};
use opennf_nf::NetworkFunction;
use opennf_nfs::AssetMonitor;
use opennf_packet::{Filter, FlowKey, Ipv4Prefix, Packet, TcpFlags};
use opennf_rt::{wire, OpSpec, RtController, SchedPolicy, WireEvent, WireMsg};
use opennf_telemetry::Telemetry;
use std::net::Ipv4Addr;
use std::path::PathBuf;
use std::time::Instant;

/// One measured experiment.
#[derive(Debug, Clone)]
pub struct Row {
    /// Stable key used for cross-run comparison.
    pub key: String,
    /// Unit of `median`/`p95` (always a lower-is-better latency).
    pub unit: &'static str,
    /// Median over samples.
    pub median: f64,
    /// 95th percentile over samples.
    pub p95: f64,
    /// Derived items-per-second throughput (informational).
    pub throughput: f64,
    /// What one throughput item is ("lookup", "flow", "msg", …).
    pub item: &'static str,
}

/// Per-phase latency percentiles harvested from the telemetry
/// histograms the bulk-move runs feed (one histogram per `move.*` span
/// name, values in nanoseconds, log2 buckets → factor-of-two accuracy).
#[derive(Debug, Clone)]
pub struct PhaseRow {
    /// Span name ("move.export", "move.transfer", …).
    pub name: &'static str,
    /// Spans recorded across all bulk-move samples.
    pub count: u64,
    /// Median phase latency, ms.
    pub p50_ms: f64,
    /// 95th-percentile phase latency, ms.
    pub p95_ms: f64,
    /// 99th-percentile phase latency, ms.
    pub p99_ms: f64,
}

/// All rows from one run.
pub struct PerfReport {
    /// Measured rows.
    pub rows: Vec<Row>,
    /// Per-phase percentile breakdown of the bulk moves (empty when no
    /// telemetry-enabled experiment ran).
    pub phases: Vec<PhaseRow>,
    /// Whether the run used the reduced quick parameters.
    pub quick: bool,
}

fn quantiles(samples: &mut [f64]) -> (f64, f64) {
    samples.sort_by(|a, b| a.partial_cmp(b).unwrap());
    let median = samples[samples.len() / 2];
    let p95 = samples[((samples.len() as f64 * 0.95) as usize).min(samples.len() - 1)];
    (median, p95)
}

fn key(i: u32) -> FlowKey {
    let src = Ipv4Addr::new(10, (i >> 8) as u8, i as u8, 2);
    FlowKey::tcp(src, 1024 + (i % 20_000) as u16, Ipv4Addr::new(93, 184, 216, 34), 80)
}

fn pkt(uid: u64, i: u32) -> Packet {
    Packet::builder(uid, key(i)).flags(TcpFlags::ACK).build()
}

/// Per-packet classification with 1k exact-match rules + a wildcard
/// default — the `FlowTable::apply` hot path the switch runs per packet.
fn flowtable_lookup_1k(quick: bool) -> Row {
    let mut table = FlowTable::new();
    let pkts: Vec<Packet> = (0..1000u32).map(|i| pkt(i as u64 + 1, i)).collect();
    for p in &pkts {
        table.install(
            10,
            Filter::from_flow_id(p.flow_id()),
            Action::Forward(vec![PortRef::Port(1)].into()),
        );
    }
    table.install(0, Filter::any(), Action::Forward(vec![PortRef::Port(9)].into()));

    let (batches, per_batch) = if quick { (30, 5_000) } else { (150, 10_000) };
    let mut samples = Vec::with_capacity(batches);
    let mut hits = 0u64;
    for b in 0..batches {
        let t0 = Instant::now();
        for j in 0..per_batch {
            let p = &pkts[(b * 7 + j * 13) % pkts.len()];
            if table.apply(p).is_some() {
                hits += 1;
            }
        }
        samples.push(t0.elapsed().as_nanos() as f64 / per_batch as f64);
    }
    std::hint::black_box(hits);
    let (median, p95) = quantiles(&mut samples);
    Row {
        key: "flowtable_lookup_1k".into(),
        unit: "ns/lookup",
        median,
        p95,
        throughput: 1e9 / median,
        item: "lookup",
    }
}

/// Southbound event serialization: encode 256 packet events into channel
/// payloads exactly the way the runtime ships them.
fn sb_encode_256(quick: bool) -> Row {
    let msgs: Vec<WireMsg> = (0..256u32)
        .map(|i| WireMsg::Event {
            worker: 0,
            ev: WireEvent::PacketProcessed { packet: pkt(i as u64 + 1, i) },
        })
        .collect();
    let iters = if quick { 60 } else { 300 };
    let mut samples = Vec::with_capacity(iters);
    let mut bytes = 0usize;
    for _ in 0..iters {
        let t0 = Instant::now();
        let frames = wire::encode_frames(&msgs, 32);
        samples.push(t0.elapsed().as_nanos() as f64 / 1_000.0);
        bytes += frames.iter().map(String::len).sum::<usize>();
    }
    std::hint::black_box(bytes);
    let (median, p95) = quantiles(&mut samples);
    Row {
        key: "sb_encode_256_events".into(),
        unit: "us/256 msgs",
        median,
        p95,
        throughput: 256.0 * 1e6 / median,
        item: "msg",
    }
}

/// Waits until a freshly built, preloaded controller counts as idle. The
/// engine's post-flip quiet window counts from the data plane's last
/// activity and construction counts as activity, so a move timed sooner
/// than this after `new` would measure the rest of that window instead of
/// the move. Preload through `worker_tx` — it is not a route lookup.
fn let_go_idle() {
    std::thread::sleep(std::time::Duration::from_millis(30));
}

fn rt_move_sample(flows: u32, p2p: bool, tel: &Telemetry) -> (f64, f64) {
    let mut ctrl = RtController::new_with_telemetry(
        vec![Box::new(AssetMonitor::new()), Box::new(AssetMonitor::new())],
        tel.clone(),
    );
    let tx = ctrl.worker_tx(0);
    for f in 0..flows {
        let p = Packet::builder(f as u64 + 1, key(f)).flags(TcpFlags::SYN).build();
        tx.send(WireMsg::Packet { packet: p }.to_json()).expect("worker alive");
    }
    // The worker channel is FIFO: quiesce returns only after every
    // preloaded packet above has been processed, so the move's measured
    // window covers the transfer itself, not the preload drain.
    ctrl.quiesce(0).expect("worker alive");
    let_go_idle();
    let stats = if p2p {
        ctrl.move_flows_p2p(0, 1, Filter::any()).expect("p2p move succeeds")
    } else {
        ctrl.move_flows_lossfree(0, 1, Filter::any()).expect("move succeeds")
    };
    assert_eq!(stats.chunks, flows as usize, "every preloaded flow moved");
    ctrl.shutdown();
    let ms = stats.duration.as_secs_f64() * 1e3;
    (ms, flows as f64 / stats.duration.as_secs_f64())
}

/// Bulk per-flow move throughput on the threaded runtime: move N
/// preloaded flows between two live AssetMonitor workers.
///
/// The headline `rt_bulk_move_<n>` key tracks the direct src → dst
/// transfer (footnote 10), the `_lossfree` key the controller-relayed
/// one. Both are the same engine op ([`RtController::run_ops`]: admitted,
/// journaled, root-spanned) in its two transfer modes, so the pair
/// isolates the transport.
///
/// Every sample runs with the flight recorder and span clocks *enabled*
/// (`tel` is shared across samples so per-phase histograms accumulate):
/// the checked-in baseline predates telemetry, so the regression gate
/// doubles as the telemetry-overhead budget.
fn rt_bulk_move(quick: bool, p2p: bool, tel: &Telemetry) -> Row {
    let flows = if quick { 500 } else { 2_000 };
    let runs = if quick { 3 } else { 5 };
    let mut samples = Vec::with_capacity(runs);
    let mut tput = Vec::with_capacity(runs);
    for _ in 0..runs {
        let (ms, fps) = rt_move_sample(flows, p2p, tel);
        samples.push(ms);
        tput.push(fps);
    }
    let (median, p95) = quantiles(&mut samples);
    tput.sort_by(|a, b| a.partial_cmp(b).unwrap());
    Row {
        key: if p2p {
            format!("rt_bulk_move_{flows}")
        } else {
            format!("rt_bulk_move_{flows}_lossfree")
        },
        unit: "ms/move",
        median,
        p95,
        throughput: tput[tput.len() / 2],
        item: "flow",
    }
}

/// The fixed cost of one engine move: `run_ops([mv])` whose filter
/// matches no flow, on a controller whose data plane is idle — dispatch,
/// six round trips, the journal appends and the route flip, with nothing
/// to export and (the data plane being quiet) no post-flip wait.
fn rt_move_fixed(quick: bool) -> Row {
    let mut ctrl = RtController::new(vec![
        Box::new(AssetMonitor::new()),
        Box::new(AssetMonitor::new()),
    ]);
    let nothing = Filter::from_src(Ipv4Prefix::new(Ipv4Addr::new(192, 0, 2, 0), 24));
    let_go_idle();
    let runs = if quick { 20 } else { 100 };
    let mut samples = Vec::with_capacity(runs);
    for i in 0..runs {
        let t0 = Instant::now();
        let spec = OpSpec::mv(i % 2, 1 - i % 2, nothing);
        let r = ctrl.run_ops(vec![spec]).pop().expect("one result");
        samples.push(t0.elapsed().as_secs_f64() * 1e3);
        assert_eq!(r.expect("move succeeds").chunks, 0);
    }
    ctrl.shutdown();
    let (median, p95) = quantiles(&mut samples);
    Row {
        key: "rt_move_fixed_ms".into(),
        unit: "ms/move",
        median,
        p95,
        throughput: 1e3 / median,
        item: "move",
    }
}

/// One batch of `k` disjoint moves on an 8-worker runtime, measured
/// end-to-end. Op `j` owns the `10.j.0.0/16` source subnet (500 preloaded
/// flows) and moves worker `j` → worker `4+j`, so scopes and endpoints
/// are pairwise disjoint. `engine` admits the whole batch into one
/// dispatch-loop run ([`RtController::run_ops`]); otherwise the same
/// ops run one at a time — the serial baseline the concurrent op engine
/// is measured against.
fn rt_parallel_moves_sample(k: usize, flows: u32, engine: bool, policy: SchedPolicy) -> f64 {
    let nfs: Vec<Box<dyn NetworkFunction>> =
        (0..8).map(|_| Box::new(AssetMonitor::new()) as Box<dyn NetworkFunction>).collect();
    let mut ctrl = RtController::new(nfs);
    ctrl.set_sched_policy(policy);
    for j in 0..k {
        let tx = ctrl.worker_tx(j);
        for f in 0..flows {
            let fk = FlowKey::tcp(
                Ipv4Addr::new(10, j as u8, (f >> 8) as u8, f as u8),
                1024 + (f % 20_000) as u16,
                Ipv4Addr::new(93, 184, 216, 34),
                80,
            );
            let p = Packet::builder(((j as u64) << 32) | (f as u64 + 1), fk)
                .flags(TcpFlags::SYN)
                .build();
            tx.send(WireMsg::Packet { packet: p }.to_json()).expect("worker alive");
        }
    }
    for j in 0..k {
        ctrl.quiesce(j).expect("worker alive");
    }
    let_go_idle();
    let spec = |j: usize| {
        OpSpec::mv(j, 4 + j, Filter::from_src(Ipv4Prefix::new(Ipv4Addr::new(10, j as u8, 0, 0), 16)))
    };
    let t0 = Instant::now();
    if engine {
        for r in ctrl.run_ops((0..k).map(spec).collect()) {
            assert_eq!(r.expect("move succeeds").chunks, flows as usize);
        }
    } else {
        for j in 0..k {
            let r = ctrl.run_ops(vec![spec(j)]).pop().expect("one result");
            assert_eq!(r.expect("move succeeds").chunks, flows as usize);
        }
    }
    let ms = t0.elapsed().as_secs_f64() * 1e3;
    ctrl.shutdown();
    ms
}

/// Aggregate k-move throughput, serial vs engine — the concurrency
/// dividend of the op engine. Flow count stays fixed (500/op) so the
/// `rt_parallel_moves_k<k>_{serial,engine}` keys are comparable across
/// quick and full runs; `--quick` only trims repetitions.
fn rt_parallel_moves(k: usize, engine: bool, quick: bool) -> Row {
    rt_parallel_moves_with(k, engine, quick, SchedPolicy::Fifo)
}

/// Same batch, admitted through a non-default scheduler policy. The key
/// grows a `_<policy>` suffix so the default-policy keys keep their
/// baseline history.
fn rt_parallel_moves_with(k: usize, engine: bool, quick: bool, policy: SchedPolicy) -> Row {
    let flows = 500u32;
    let runs = if quick { 2 } else { 3 };
    let mut samples = Vec::with_capacity(runs);
    for _ in 0..runs {
        samples.push(rt_parallel_moves_sample(k, flows, engine, policy));
    }
    let (median, p95) = quantiles(&mut samples);
    let mode = if engine { "engine" } else { "serial" };
    let suffix = match policy {
        SchedPolicy::Fifo => "",
        SchedPolicy::WeightedFair => "_wfair",
        SchedPolicy::Deadline => "_deadline",
    };
    Row {
        key: format!("rt_parallel_moves_k{k}_{mode}{suffix}"),
        unit: "ms/batch",
        median,
        p95,
        throughput: k as f64 * 1e3 / median,
        item: "move",
    }
}

/// Simulated loss-free parallel move of 500 flows under live traffic
/// (fig10's LF PL cell): virtual move latency end to end.
fn sim_move_500() -> Row {
    let runs = 3;
    let mut samples = Vec::with_capacity(runs);
    let mut tput = Vec::with_capacity(runs);
    for seed in 1..=runs as u64 {
        let out = crate::run_prads_move(500, 2_500, MoveProps::lf_pl(), seed);
        samples.push(out.total_ms);
        tput.push(500.0 / (out.total_ms / 1e3));
    }
    let (median, p95) = quantiles(&mut samples);
    tput.sort_by(|a, b| a.partial_cmp(b).unwrap());
    Row {
        key: "sim_move_500_lf_pl".into(),
        unit: "virtual ms/move",
        median,
        p95,
        throughput: tput[tput.len() / 2],
        item: "flow",
    }
}

/// The five move phases in protocol order — same names both runtimes
/// emit, same order `span_sequence` checks in conformance.
const MOVE_PHASES: [&str; 5] =
    ["move.export", "move.transfer", "move.import", "move.flush", "move.fwd_update"];

/// Reads the per-phase latency histograms the bulk-move samples fed.
fn collect_phases(tel: &Telemetry) -> Vec<PhaseRow> {
    MOVE_PHASES
        .iter()
        .filter_map(|&name| {
            tel.hist_snapshot(name).map(|h| PhaseRow {
                name,
                count: h.count,
                p50_ms: h.p50 as f64 / 1e6,
                p95_ms: h.p95 as f64 / 1e6,
                p99_ms: h.p99 as f64 / 1e6,
            })
        })
        .collect()
}

/// Runs every hot-path benchmark.
pub fn run(quick: bool) -> PerfReport {
    let tel = Telemetry::wall();
    let mut rows = vec![
        flowtable_lookup_1k(quick),
        sb_encode_256(quick),
        rt_bulk_move(quick, true, &tel),
        rt_bulk_move(quick, false, &tel),
        rt_move_fixed(quick),
        sim_move_500(),
    ];
    for k in 1..=4usize {
        rows.push(rt_parallel_moves(k, false, quick));
        rows.push(rt_parallel_moves(k, true, quick));
    }
    rows.push(rt_parallel_moves_with(4, true, quick, SchedPolicy::WeightedFair));
    PerfReport { rows, phases: collect_phases(&tel), quick }
}

/// perfguard: ceiling on `rt_move_fixed_ms`.
const MOVE_FIXED_MAX_MS: f64 = 5.0;

/// perfguard: a k=4 engine batch's aggregate throughput over the same
/// four moves issued one at a time. On idle moves there is no wait left to
/// overlap, only CPU work, and one relayed move already keeps three
/// threads busy: two cores give 0.94–1.4x run to run, more cores more.
/// What holds on every machine is that batching does not cost.
const PARALLEL_DIVIDEND_MIN: f64 = 0.8;

/// CI perf gate: the full-size (2000-flow) bulk moves, flight recorder
/// on, compared against a checked-in baseline at a 10% budget. Unlike
/// `--quick` runs (whose 500-flow keys have no baseline counterpart and
/// are skipped by `compare`), this always exercises the exact keys the
/// baseline holds, so a telemetry-overhead regression cannot slip
/// through unkeyed.
pub fn perfguard(baseline_path: &str) -> Result<(), String> {
    let tel = Telemetry::wall();
    let rows = vec![
        rt_bulk_move(false, true, &tel),
        rt_bulk_move(false, false, &tel),
        rt_move_fixed(false),
        rt_parallel_moves(4, false, false),
        rt_parallel_moves(4, true, false),
        rt_parallel_moves_with(4, true, false, SchedPolicy::WeightedFair),
    ];
    let rep = PerfReport { rows, phases: collect_phases(&tel), quick: false };
    rep.print();
    let row = |key: &str| rep.rows.iter().find(|r| r.key == key).expect("row was measured");
    // A move of nothing on an idle controller is round trips and journal
    // appends; a sleep creeping back into the op's path shows here first.
    let fixed = row("rt_move_fixed_ms");
    if fixed.median >= MOVE_FIXED_MAX_MS {
        return Err(format!(
            "fixed per-move cost {:.2} ms is not under {MOVE_FIXED_MAX_MS} ms",
            fixed.median
        ));
    }
    // The concurrency dividend is gated within-run (machine-independent):
    // a k=4 batch must not lose to the same four moves issued serially,
    // whatever policy admits it — the scheduler must not tax a disjoint
    // batch. The 2x and more of earlier BENCH files was four post-flip
    // sleeps overlapping, which idle moves no longer take (EXPERIMENTS.md).
    let serial = row("rt_parallel_moves_k4_serial");
    for (policy, key) in [
        ("fifo", "rt_parallel_moves_k4_engine"),
        ("weighted-fair", "rt_parallel_moves_k4_engine_wfair"),
    ] {
        let engine = row(key);
        let dividend = engine.throughput / serial.throughput;
        println!(
            "parallel-move dividend ({policy}): {dividend:.2}x ({:.1} vs serial {:.1} moves/s)",
            engine.throughput, serial.throughput
        );
        if dividend < PARALLEL_DIVIDEND_MIN {
            return Err(format!(
                "parallel-move dividend under {policy} below {PARALLEL_DIVIDEND_MIN}x: \
                 engine {:.1} moves/s vs serial {:.1} moves/s",
                engine.throughput, serial.throughput
            ));
        }
    }
    compare(&rep, baseline_path, 10.0)
}

impl PerfReport {
    /// Renders the rows as a table.
    pub fn print(&self) {
        println!("\n== perf: hot-path benchmarks{} ==", if self.quick { " (quick)" } else { "" });
        println!("{:<28} {:>14} {:>12} {:>12} {:>16}", "experiment", "unit", "median", "p95", "throughput");
        for r in &self.rows {
            println!(
                "{:<28} {:>14} {:>12.2} {:>12.2} {:>12.0}/s {}",
                r.key, r.unit, r.median, r.p95, r.throughput, r.item
            );
        }
        if !self.phases.is_empty() {
            println!("\n-- per-phase latency over all bulk moves (ms) --");
            println!("{:<20} {:>8} {:>10} {:>10} {:>10}", "phase", "count", "p50", "p95", "p99");
            for p in &self.phases {
                println!(
                    "{:<20} {:>8} {:>10.3} {:>10.3} {:>10.3}",
                    p.name, p.count, p.p50_ms, p.p95_ms, p.p99_ms
                );
            }
        }
    }

    /// Serializes the report as JSON text.
    pub fn to_json(&self) -> String {
        let mut s = String::from("{\n  \"schema\": \"opennf-bench-v1\",\n");
        s.push_str(&format!("  \"quick\": {},\n  \"results\": {{\n", self.quick));
        for (i, r) in self.rows.iter().enumerate() {
            s.push_str(&format!(
                "    \"{}\": {{\"unit\": \"{}\", \"median\": {:.3}, \"p95\": {:.3}, \"throughput_per_s\": {:.1}, \"item\": \"{}\"}}{}\n",
                r.key,
                r.unit,
                r.median,
                r.p95,
                r.throughput,
                r.item,
                if i + 1 == self.rows.len() { "" } else { "," }
            ));
        }
        s.push_str("  },\n  \"phases\": {\n");
        for (i, p) in self.phases.iter().enumerate() {
            s.push_str(&format!(
                "    \"{}\": {{\"count\": {}, \"p50_ms\": {:.3}, \"p95_ms\": {:.3}, \"p99_ms\": {:.3}}}{}\n",
                p.name,
                p.count,
                p.p50_ms,
                p.p95_ms,
                p.p99_ms,
                if i + 1 == self.phases.len() { "" } else { "," }
            ));
        }
        s.push_str("  }\n}\n");
        s
    }

    /// Writes `BENCH_<n>.json` (first free n in the working directory),
    /// or to `$BENCH_OUT` when set. Returns the path written.
    pub fn write_json(&self) -> std::io::Result<PathBuf> {
        let path = match std::env::var_os("BENCH_OUT") {
            Some(p) => PathBuf::from(p),
            None => (0..)
                .map(|n| PathBuf::from(format!("BENCH_{n}.json")))
                .find(|p| !p.exists())
                .unwrap(),
        };
        std::fs::write(&path, self.to_json())?;
        Ok(path)
    }
}

/// Compares `current` against a checked-in baseline JSON. Prints each
/// shared key's delta and returns `Err` listing any key whose median
/// regressed by more than `max_regress_pct`.
pub fn compare(current: &PerfReport, baseline_path: &str, max_regress_pct: f64) -> Result<(), String> {
    let text = std::fs::read_to_string(baseline_path)
        .map_err(|e| format!("cannot read baseline {baseline_path}: {e}"))?;
    let v = serde_json::Value::parse_json(&text)
        .map_err(|e| format!("cannot parse baseline {baseline_path}: {e}"))?;
    let results = v.get("results").ok_or("baseline has no 'results' object")?;
    let mut regressions = Vec::new();
    println!("\n== perf: vs baseline {baseline_path} (fail >{max_regress_pct:.0}% regression) ==");
    for r in &current.rows {
        let Some(base) = results.get(&r.key).and_then(|b| b.get("median")).and_then(|m| m.as_f64())
        else {
            println!("{:<28} (new key, no baseline)", r.key);
            continue;
        };
        let ratio = r.median / base;
        println!(
            "{:<28} baseline {:>10.2} now {:>10.2} {} ({:+.1}%)",
            r.key,
            base,
            r.median,
            r.unit,
            (ratio - 1.0) * 100.0
        );
        if ratio > 1.0 + max_regress_pct / 100.0 {
            regressions.push(format!("{}: {:.2} -> {:.2} {} ({:+.1}%)", r.key, base, r.median, r.unit, (ratio - 1.0) * 100.0));
        }
    }
    if regressions.is_empty() {
        Ok(())
    } else {
        Err(format!("perf regressions beyond {max_regress_pct:.0}%:\n  {}", regressions.join("\n  ")))
    }
}
