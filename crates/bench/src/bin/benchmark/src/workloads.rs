//! The seven workloads: what each sets up, what one unit of work is, and
//! what is checked when it ends.
//!
//! Every op workload ping-pongs (`0→1`, then `1→0`, …) so state never has
//! to be rebuilt between samples. A failed unit of work is counted, never
//! panicked on, and contributes no latency sample.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use crate::api::{self, Filter, FlowKey, Op, OpKind, Packet, Rt, SimRng, Telemetry};
use crate::gen::{self, GenReport};
use crate::metrics::{median, peak_rss_mb, percentile};
use crate::stamp::{not_exactly_once, StampLog, Stamped};
use crate::trace::Spans;

/// Open-loop traffic of `move_live`: 5 packets every 1 ms tick.
const LIVE_PER_TICK: u32 = 5;
const LIVE_TICK: Duration = Duration::from_millis(1);
const LIVE_PPS: f64 = 5_000.0;
const LIVE_PAYLOAD: usize = 256;

/// How a workload is built.
#[derive(Clone)]
pub struct Config {
    pub seed: u64,
    /// `--smoke`: about 1/20 of every size.
    pub smoke: bool,
    /// The handle the program records with (disabled for end-to-end runs).
    pub tel: Telemetry,
    /// Also take the workload's slower side measurements when it ends
    /// (`ops_mixed_k4`: serial and weighted-fair rounds).
    pub extras: bool,
}

impl Config {
    fn size(&self, full: usize) -> usize {
        if self.smoke {
            (full / 20).max(2)
        } else {
            full
        }
    }
}

/// One unit of work, done.
pub struct Step {
    pub ms: f64,
    /// How many of the workload's items the unit completed.
    pub items: u64,
    pub ok: bool,
}

/// One end-of-run correctness check.
pub struct Check {
    pub name: &'static str,
    pub ok: bool,
    pub detail: String,
}

fn check(name: &'static str, ok: bool, detail: String) -> Check {
    Check { name, ok, detail }
}

/// Packets generated, and how many were not processed exactly once.
pub struct Packets {
    pub sent: u64,
    pub bad: u64,
}

/// Set by a workload whose latency samples are not its units of work:
/// `move_live_pkts` samples the packets its moves buffered and replayed.
pub struct Samples {
    pub ms: Vec<f64>,
    pub items_per_s: f64,
    pub attempted: u64,
    pub failed: u64,
}

/// What a workload reports when it ends.
pub struct Finish {
    pub checks: Vec<Check>,
    /// Workload-specific per-layer values.
    pub layer: Vec<(&'static str, f64)>,
    pub packets: Packets,
    /// `None`: the pass's own per-unit samples are the workload's samples.
    pub samples: Option<Samples>,
}

pub trait Workload {
    /// Called once, right before the first measured unit of work.
    fn start(&mut self) {}
    fn step(&mut self, spans: &mut Spans) -> Step;
    /// Tears down (joining every thread) and verifies.
    fn finish(self: Box<Self>) -> Finish;
    /// The benchmark span that wraps one unit of work.
    fn unit_span(&self) -> &'static str;
}

/// Builds a workload by name: generates its inputs from the seed, spawns
/// the runtime, preloads state and waits until it is quiet.
pub fn setup(name: &str, cfg: &Config, spans: &mut Spans) -> Option<Box<dyn Workload>> {
    Some(match name {
        "move_small_idle" => Box::new(MoveLoop::setup(cfg, spans, Mode::Idle, 2_000)),
        "move_bulk_p2p" => Box::new(MoveLoop::setup(cfg, spans, Mode::BulkP2p, 12_000)),
        "move_live" => Box::new(MoveLoop::setup(
            cfg,
            spans,
            Mode::Live { by_packet: false },
            2_000,
        )),
        "move_live_pkts" => Box::new(MoveLoop::setup(
            cfg,
            spans,
            Mode::Live { by_packet: true },
            2_000,
        )),
        "ops_mixed_k4" => Box::new(MixedK4::setup(cfg, spans)),
        "dataplane_steady" => Box::new(Dataplane::setup(cfg, spans)),
        "sim_move" => Box::new(SimMove::setup(cfg, spans)),
        _ => return None,
    })
}

/// One measured pass over a workload.
pub struct Pass {
    pub samples_ms: Vec<f64>,
    pub items: u64,
    pub attempted: u64,
    pub failed: u64,
    /// `VmHWM` when the `floor`-th unit of work completed: the same work
    /// has been done by then whatever the speed, so the value compares
    /// across commits (the peak at exit would grow with ops completed).
    pub rss_at_floor_mb: f64,
}

impl Pass {
    pub fn busy_s(&self) -> f64 {
        self.samples_ms.iter().sum::<f64>() / 1e3
    }
}

/// Unmeasured units of work before the first sample, so allocator growth
/// and lazily dialed links are paid before timing starts.
const WARM_UP: usize = 2;

/// Runs units of work back to back (closed loop, one in flight) until
/// `seconds` have passed *and* `floor` samples exist.
pub fn measure(w: &mut dyn Workload, seconds: f64, floor: usize, spans: &mut Spans) -> Pass {
    let mut pass = Pass {
        samples_ms: Vec::new(),
        items: 0,
        attempted: 0,
        failed: 0,
        rss_at_floor_mb: 0.0,
    };
    // A run that cannot reach the floor (every op failing on a timeout)
    // must still end well inside the driver's limit.
    let give_up = Duration::from_secs_f64(seconds * 4.0 + 20.0);
    w.start();
    for _ in 0..WARM_UP {
        pass.attempted += 1;
        pass.failed += u64::from(!w.step(spans).ok);
    }
    let t0 = Instant::now();
    loop {
        let s = w.step(spans);
        pass.attempted += 1;
        if s.ok {
            pass.samples_ms.push(s.ms);
            pass.items += s.items;
        } else {
            pass.failed += 1;
        }
        if pass.samples_ms.len() + pass.failed as usize == floor {
            pass.rss_at_floor_mb = peak_rss_mb();
        }
        let elapsed = t0.elapsed();
        if (elapsed.as_secs_f64() >= seconds && pass.samples_ms.len() >= floor) || elapsed > give_up
        {
            return pass;
        }
    }
}

// ---------------------------------------------------------------------
// move_small_idle, move_bulk_p2p, move_live(_pkts)
// ---------------------------------------------------------------------

#[derive(Clone, Copy, PartialEq, Eq)]
enum Mode {
    Idle,
    BulkP2p,
    /// Under open-loop traffic; `by_packet` makes the buffered-and-replayed
    /// packets, not the ops, the workload's samples.
    Live {
        by_packet: bool,
    },
}

struct LiveTraffic {
    epoch: Instant,
    stop: Arc<AtomicBool>,
    logs: Vec<StampLog>,
    keys: Arc<Vec<FlowKey>>,
    template: Packet,
    seed: u64,
    gen: Option<JoinHandle<GenReport>>,
}

/// Two asset monitors; every flow preloaded at worker 0; each unit of
/// work moves all of them to the other worker.
struct MoveLoop {
    mode: Mode,
    rt: Rt,
    flows: usize,
    holder: usize,
    probe: Packet,
    ops: u64,
    abort_lost: usize,
    events_replayed: u64,
    live: Option<LiveTraffic>,
}

impl MoveLoop {
    fn setup(cfg: &Config, spans: &mut Spans, mode: Mode, flows: usize) -> MoveLoop {
        let flows = cfg.size(flows);
        let mut rng = SimRng::new(cfg.seed);
        let keys = gen::flow_keys(&mut rng, 0, flows);
        let epoch = Instant::now();
        let mut logs = Vec::new();
        let nfs = (0..2)
            .map(|_| -> Box<dyn api::NetworkFunction> {
                if matches!(mode, Mode::Live { .. }) {
                    let (nf, log) = Stamped::new(api::monitor(), epoch);
                    logs.push(log);
                    Box::new(nf)
                } else {
                    Box::new(api::monitor())
                }
            })
            .collect();
        let mut rt = Rt::new(nfs, cfg.tel.clone());
        spans.span("bench.preload", 0, |spans| {
            let tx = rt.packet_tx(0);
            for (i, key) in keys.iter().enumerate() {
                tx.send(gen::syn(i as u64 + 1, *key));
            }
            spans.span("bench.quiesce", 0, |_| {
                rt.quiesce(0).expect("worker 0 alive after preload")
            });
        });
        let live = matches!(mode, Mode::Live { .. }).then(|| LiveTraffic {
            epoch,
            stop: Arc::new(AtomicBool::new(false)),
            logs,
            template: gen::payload_template(&mut rng, LIVE_PAYLOAD),
            seed: rng.next_u64_raw(),
            keys: Arc::new(keys.clone()),
            gen: None,
        });
        MoveLoop {
            mode,
            rt,
            flows,
            holder: 0,
            probe: gen::ack(0, keys[0]),
            ops: 0,
            abort_lost: 0,
            events_replayed: 0,
            live,
        }
    }
}

impl Workload for MoveLoop {
    fn start(&mut self) {
        let Some(live) = &mut self.live else { return };
        let (epoch, stop, keys) = (live.epoch, live.stop.clone(), live.keys.clone());
        let template = live.template.clone();
        let mut rng = SimRng::new(live.seed);
        let router = self.rt.router();
        let txs = [self.rt.packet_tx(0), self.rt.packet_tx(1)];
        let mut uid = self.flows as u64;
        let gen = std::thread::Builder::new()
            .name("bench-gen".into())
            .spawn(move || {
                gen::open_loop(epoch, &stop, LIVE_PER_TICK, LIVE_TICK, |due_ns| {
                    uid += 1;
                    let key = keys[rng.below(keys.len() as u64) as usize];
                    let pkt = gen::data(uid, key, &template, due_ns);
                    if let Some(w) = api::router_route(&router, &pkt) {
                        txs[w].send(pkt);
                    }
                })
            })
            .expect("spawn the generator thread");
        live.gen = Some(gen);
    }

    fn step(&mut self, spans: &mut Spans) -> Step {
        let (src, dst) = (self.holder, 1 - self.holder);
        let t0 = Instant::now();
        let result = spans.span("bench.op", self.ops, |_| {
            if self.mode == Mode::BulkP2p {
                self.rt.move_flows_p2p(src, dst, Filter::any())
            } else {
                self.rt
                    .run_ops(&[Op::mv(src, dst, Filter::any())])
                    .pop()
                    .expect("one op, one result")
            }
        });
        let ms = t0.elapsed().as_secs_f64() * 1e3;
        self.ops += 1;
        self.abort_lost += self.rt.abort_lost();
        let ok = match result {
            Ok(stats) => {
                self.events_replayed += stats.events_replayed as u64;
                // The route flipped even if the chunk count is off.
                self.holder = dst;
                stats.chunks == self.flows
            }
            Err(_) => false,
        };
        Step {
            ms,
            items: self.flows as u64,
            ok,
        }
    }

    fn finish(mut self: Box<Self>) -> Finish {
        let gen_report = self.live.as_mut().and_then(|live| {
            live.stop.store(true, Ordering::Relaxed);
            live.gen
                .take()
                .map(|h| h.join().expect("generator thread does not panic"))
        });
        let drained = self.rt.quiesce(0).is_ok() && self.rt.quiesce(1).is_ok();
        let routed = api::router_route(&self.rt.router(), &self.probe);
        let mut layer = vec![
            (
                "router.rules_end",
                api::router_len(&self.rt.router()) as f64,
            ),
            ("journal.records_end", self.rt.journal_len() as f64),
            (
                "engine.events_per_op",
                self.events_replayed as f64 / self.ops.max(1) as f64,
            ),
        ];
        let t0 = Instant::now();
        std::hint::black_box(self.rt.journal_to_json_len());
        layer.push(("journal.to_json_us", t0.elapsed().as_secs_f64() * 1e6));

        let harnesses = self.rt.shutdown();
        let sent = self.flows as u64 + gen_report.as_ref().map_or(0, |g| g.sent);
        let logs: Vec<&[u64]> = harnesses.iter().map(api::processed_log).collect();
        let bad = not_exactly_once(sent, &logs);
        let held: Vec<usize> = harnesses.iter().map(api::perflow_count).collect();
        let mut checks = vec![
            check(
                "workers_drained",
                drained,
                "quiesce after the last op".into(),
            ),
            check(
                "exactly_once",
                bad == 0,
                format!("{bad} of {sent} uids not processed exactly once"),
            ),
            check(
                "state_at_last_dst",
                held[self.holder] == self.flows && held[1 - self.holder] == 0,
                format!(
                    "per-flow states held {held:?}, expected {} at worker {}",
                    self.flows, self.holder
                ),
            ),
            check(
                "abort_lost_empty",
                self.abort_lost == 0,
                format!("{} uids given up", self.abort_lost),
            ),
            check(
                "route_at_last_dst",
                routed == Some(self.holder),
                format!(
                    "router sends the probe to {routed:?}, last dst is {}",
                    self.holder
                ),
            ),
        ];

        let by_packet = self.mode == Mode::Live { by_packet: true };
        let samples = self.live.take().zip(gen_report).and_then(|(live, g)| {
            let preload = self.flows as u64;
            let stamps: Vec<_> = live
                .logs
                .iter()
                .flat_map(|l| l.lock().expect("workers are joined").clone())
                .filter(|s| s.uid > preload)
                .collect();
            let affected_ms: Vec<f64> = stamps
                .iter()
                .filter(|s| s.replayed)
                .map(|s| s.latency_ns as f64 / 1e6)
                .collect();
            let hop_us: Vec<f64> = stamps
                .iter()
                .filter(|s| !s.replayed)
                .map(|s| s.latency_ns as f64 / 1e3)
                .collect();
            let processed: usize = logs.iter().map(|l| l.len()).sum();
            checks.push(check(
                "stamps_match_processed_log",
                stamps.len() as u64 + preload == processed as u64,
                format!(
                    "{} live stamps + {preload} preloaded vs {processed} processed",
                    stamps.len()
                ),
            ));
            // A generator that cannot keep its rate makes the run invalid,
            // not slow: the offered load was not the one the names promise.
            let pps = g.sent_per_s();
            checks.push(check(
                "generator_kept_rate",
                pps >= 0.95 * LIVE_PPS,
                format!("sent {pps:.0} pkt/s of {LIVE_PPS:.0}"),
            ));
            layer.push(("gen.sent_pps", pps));
            layer.push(("gen.late_us_p50", median(&g.late_us)));
            layer.push((
                "gen.late_us_p99",
                percentile(&g.late_us, 0.99).unwrap_or(0.0),
            ));
            layer.push(("worker.pkt_hop_us_p50", median(&hop_us)));
            layer.push(("pkt_affected_ms_p50", median(&affected_ms)));
            layer.push((
                "pkt_affected_ms_p90",
                percentile(&affected_ms, 0.90).unwrap_or(0.0),
            ));
            by_packet.then(|| Samples {
                items_per_s: stamps.len() as f64 / g.elapsed.as_secs_f64(),
                ms: affected_ms,
                attempted: sent,
                failed: bad,
            })
        });
        Finish {
            checks,
            layer,
            packets: Packets { sent, bad },
            samples,
        }
    }

    fn unit_span(&self) -> &'static str {
        "bench.op"
    }
}

// ---------------------------------------------------------------------
// ops_mixed_k4
// ---------------------------------------------------------------------

const K4_FLOWS: usize = 2_000;
/// Side measurements: rounds per policy, interleaved.
const K4_EXTRA_ROUNDS: usize = 10;

/// Eight asset monitors; group `j` (sources in `10.j.0.0/16`) is
/// preloaded at worker `j`. One unit of work is one batch: groups 0 and 1
/// move between workers `j` and `4+j`, group 2 is copied 2→6, group 3 is
/// shared 3→7.
struct MixedK4 {
    rt: Rt,
    flows: usize,
    rounds: u64,
    probes: [Packet; 2],
    kind_ms: [Vec<f64>; 3],
    extras: bool,
}

impl MixedK4 {
    fn setup(cfg: &Config, spans: &mut Spans) -> MixedK4 {
        let flows = cfg.size(K4_FLOWS);
        let mut rng = SimRng::new(cfg.seed);
        let groups: Vec<Vec<FlowKey>> =
            (0..4).map(|j| gen::flow_keys(&mut rng, j, flows)).collect();
        let nfs = (0..8)
            .map(|_| Box::new(api::monitor()) as Box<dyn api::NetworkFunction>)
            .collect();
        let mut rt = Rt::new(nfs, cfg.tel.clone());
        spans.span("bench.preload", 0, |spans| {
            let mut uid = 0;
            for (j, keys) in groups.iter().enumerate() {
                let tx = rt.packet_tx(j);
                for key in keys {
                    uid += 1;
                    tx.send(gen::syn(uid, *key));
                }
            }
            spans.span("bench.quiesce", 0, |_| {
                for j in 0..4 {
                    rt.quiesce(j).expect("worker alive after preload");
                }
            });
        });
        MixedK4 {
            rt,
            flows,
            rounds: 0,
            probes: [gen::ack(0, groups[0][0]), gen::ack(0, groups[1][0])],
            kind_ms: Default::default(),
            extras: cfg.extras,
        }
    }

    fn group_filter(j: u8) -> Filter {
        api::src_prefix_filter(10, j, 16)
    }

    /// Where the two moving groups are now: worker `j` or `4 + j`.
    fn offset(&self) -> usize {
        if self.rounds.is_multiple_of(2) {
            0
        } else {
            4
        }
    }

    fn batch(&self) -> [Op; 4] {
        let (a, b) = (self.offset(), 4 - self.offset());
        [
            Op::mv(a, b, Self::group_filter(0)),
            Op::mv(a + 1, b + 1, Self::group_filter(1)),
            Op {
                kind: OpKind::Copy,
                src: 2,
                dst: 6,
                filter: Self::group_filter(2),
            },
            Op {
                kind: OpKind::Share,
                src: 3,
                dst: 7,
                filter: Self::group_filter(3),
            },
        ]
    }

    /// Runs the round's four ops, all in one batch or one `run_ops` each;
    /// true when every op succeeded with the full chunk count.
    fn round(&mut self, batched: bool, record_kinds: bool) -> bool {
        let ops = self.batch();
        let results = if batched {
            self.rt.run_ops(&ops)
        } else {
            ops.iter()
                .flat_map(|op| self.rt.run_ops(std::slice::from_ref(op)))
                .collect()
        };
        self.rounds += 1;
        let mut ok = results.len() == ops.len();
        for (op, r) in ops.iter().zip(&results) {
            match r {
                Ok(stats) => {
                    ok &= stats.chunks == self.flows;
                    if record_kinds {
                        self.kind_ms[op.kind as usize].push(stats.duration.as_secs_f64() * 1e3);
                    }
                }
                Err(_) => ok = false,
            }
        }
        ok
    }

    /// Serial and weighted-fair rounds against batched FIFO ones,
    /// interleaved so drift hits all three alike.
    fn side_measurements(&mut self, layer: &mut Vec<(&'static str, f64)>) {
        let mut ms: [Vec<f64>; 3] = Default::default();
        for _ in 0..K4_EXTRA_ROUNDS {
            for (i, (batched, wfair)) in [(true, false), (false, false), (true, true)]
                .iter()
                .enumerate()
            {
                self.rt.set_weighted_fair(*wfair);
                let t0 = Instant::now();
                if self.round(*batched, false) {
                    ms[i].push(t0.elapsed().as_secs_f64() * 1e3);
                }
            }
        }
        self.rt.set_weighted_fair(false);
        let [fifo, serial, wfair] = ms.map(|v| median(&v));
        if fifo > 0.0 {
            layer.push(("engine.batch_speedup_k4", serial / fifo));
            layer.push(("sched.wfair_delta_pct", (wfair - fifo) / fifo * 100.0));
        }
    }
}

impl Workload for MixedK4 {
    fn step(&mut self, spans: &mut Spans) -> Step {
        let t0 = Instant::now();
        let ok = spans.span("bench.batch", self.rounds, |_| self.round(true, true));
        Step {
            ms: t0.elapsed().as_secs_f64() * 1e3,
            items: 4 * self.flows as u64,
            ok,
        }
    }

    fn finish(mut self: Box<Self>) -> Finish {
        let mut layer = vec![
            (
                "engine.move_ms_p50",
                median(&self.kind_ms[OpKind::Move as usize]),
            ),
            (
                "engine.copy_ms_p50",
                median(&self.kind_ms[OpKind::Copy as usize]),
            ),
            (
                "engine.share_ms_p50",
                median(&self.kind_ms[OpKind::Share as usize]),
            ),
        ];
        if self.extras {
            self.side_measurements(&mut layer);
        }
        let abort_lost = self.rt.abort_lost();
        let drained = (0..8).all(|w| self.rt.quiesce(w).is_ok());
        let router = self.rt.router();
        let off = self.offset();
        let routed = [
            api::router_route(&router, &self.probes[0]),
            api::router_route(&router, &self.probes[1]),
        ];
        // Groups 0 and 1 start behind the default route (worker 0); the
        // route is theirs only once a move has flipped it.
        let route_ok = self.rounds == 0 || routed == [Some(off), Some(off + 1)];
        layer.push(("router.rules_end", api::router_len(&router) as f64));
        layer.push(("journal.records_end", self.rt.journal_len() as f64));
        let t0 = Instant::now();
        std::hint::black_box(self.rt.journal_to_json_len());
        layer.push(("journal.to_json_us", t0.elapsed().as_secs_f64() * 1e6));

        let harnesses = self.rt.shutdown();
        let sent = 4 * self.flows as u64;
        let logs: Vec<&[u64]> = harnesses.iter().map(api::processed_log).collect();
        let bad = not_exactly_once(sent, &logs);
        let held: Vec<usize> = harnesses.iter().map(api::perflow_count).collect();
        let mut expect = [0; 8];
        expect[off] = self.flows;
        expect[off + 1] = self.flows;
        expect[2] = self.flows;
        expect[3] = self.flows;
        if self.rounds > 0 {
            expect[6] = self.flows;
            expect[7] = self.flows;
        }
        let checks = vec![
            check(
                "workers_drained",
                drained,
                "quiesce after the last batch".into(),
            ),
            check(
                "exactly_once",
                bad == 0,
                format!("{bad} of {sent} uids not processed exactly once"),
            ),
            check(
                "state_where_ops_left_it",
                held == expect,
                format!("held {held:?}, expected {expect:?}"),
            ),
            check(
                "abort_lost_empty",
                abort_lost == 0,
                format!("{abort_lost} uids given up"),
            ),
            check(
                "routes_at_last_dst",
                route_ok,
                format!("probes routed to {routed:?}, groups at {off}"),
            ),
        ];
        Finish {
            checks,
            layer,
            packets: Packets { sent, bad },
            samples: None,
        }
    }

    fn unit_span(&self) -> &'static str {
        "bench.batch"
    }
}

// ---------------------------------------------------------------------
// dataplane_steady
// ---------------------------------------------------------------------

const DATAPLANE_FLOWS: usize = 2_000;
const DATAPLANE_WINDOW: usize = 4_096;

/// Two asset monitors behind a two-rule split. One unit of work is a
/// burst of minimum-size packets taken through the whole per-packet path:
/// route and encode every packet, send each frame to the worker its route
/// names, wait until both workers are quiet.
///
/// The burst is encoded *before* it is sent, as a store-and-forward hop
/// would. Sending each packet as it is encoded makes the sender the
/// slower side of the pipeline, so the workers keep running dry and every
/// send has to wake a sleeping thread; the cost of that wake-up is a
/// property of the host (where the two vCPUs sit, how it idles them), and
/// the same binary then reads 9.6 or 13.2 ms per window from one minute to
/// the next. Encoded first, the frames arrive faster than a worker drains
/// them, the worker does not sleep inside a window, and the window's time
/// is CPU work: encode on the main thread, then decode and process on a
/// worker.
///
/// Bursts alternate between the two halves of the split, so one worker
/// drains at a time. When both drain at once, the kernel now and then
/// wakes both on the same core while the other idles, and the same window
/// takes 10 or 13 ms at random.
struct Dataplane {
    rt: Rt,
    txs: [api::PacketTx; 2],
    keys: Vec<FlowKey>,
    rng: SimRng,
    uid: u64,
    window: usize,
    windows: u64,
}

impl Dataplane {
    fn setup(cfg: &Config, spans: &mut Spans) -> Dataplane {
        let per_worker = cfg.size(DATAPLANE_FLOWS) / 2;
        let mut rng = SimRng::new(cfg.seed);
        let mut keys = gen::flow_keys(&mut rng, 0, per_worker);
        keys.extend(gen::flow_keys(&mut rng, 1, per_worker));
        let nfs = (0..2)
            .map(|_| Box::new(api::monitor()) as Box<dyn api::NetworkFunction>)
            .collect();
        let mut rt = Rt::new(nfs, cfg.tel.clone());
        for w in 0..2 {
            api::router_install(&rt.router(), 10, api::src_prefix_filter(10, w as u8, 16), w);
        }
        let mut uid = 0;
        spans.span("bench.preload", 0, |spans| {
            for key in &keys {
                uid += 1;
                rt.inject(gen::syn(uid, *key))
                    .expect("workers alive during preload");
            }
            spans.span("bench.quiesce", 0, |_| {
                for w in 0..2 {
                    rt.quiesce(w).expect("worker alive after preload");
                }
            });
        });
        let txs = [rt.packet_tx(0), rt.packet_tx(1)];
        Dataplane {
            rt,
            txs,
            keys,
            rng,
            uid,
            window: cfg.size(DATAPLANE_WINDOW),
            windows: 0,
        }
    }
}

impl Workload for Dataplane {
    fn step(&mut self, spans: &mut Spans) -> Step {
        let t0 = Instant::now();
        let mut ok = true;
        let router = self.rt.router();
        spans.span("bench.window", self.windows, |spans| {
            let frames: Vec<(Option<usize>, String)> =
                spans.span("bench.route_encode", self.windows, |_| {
                    let half = self.keys.len() / 2;
                    let base = (self.windows % 2) as usize * half;
                    (0..self.window)
                        .map(|_| {
                            self.uid += 1;
                            let key = self.keys[base + self.rng.below(half as u64) as usize];
                            let pkt = gen::ack(self.uid, key);
                            (api::router_route(&router, &pkt), api::encode_packet(pkt))
                        })
                        .collect()
                });
            spans.span("bench.send", self.windows, |_| {
                for (worker, frame) in frames {
                    ok &= worker.is_some_and(|w| self.txs[w].send_encoded(frame));
                }
            });
            spans.span("bench.quiesce", self.windows, |_| {
                ok &= self.rt.quiesce(0).is_ok() && self.rt.quiesce(1).is_ok();
            });
        });
        self.windows += 1;
        Step {
            ms: t0.elapsed().as_secs_f64() * 1e3,
            items: self.window as u64,
            ok,
        }
    }

    fn finish(self: Box<Self>) -> Finish {
        let router = self.rt.router();
        let routed: Vec<_> = [0, self.keys.len() / 2]
            .iter()
            .map(|&i| api::router_route(&router, &gen::ack(0, self.keys[i])))
            .collect();
        let journal = self.rt.journal_len();
        let layer = vec![
            ("router.rules_end", api::router_len(&router) as f64),
            ("journal.records_end", journal as f64),
        ];
        let harnesses = self.rt.shutdown();
        let logs: Vec<&[u64]> = harnesses.iter().map(api::processed_log).collect();
        let bad = not_exactly_once(self.uid, &logs);
        let held: Vec<usize> = harnesses.iter().map(api::perflow_count).collect();
        let half = self.keys.len() / 2;
        let checks = vec![
            check(
                "exactly_once",
                bad == 0,
                format!("{bad} of {} uids not processed exactly once", self.uid),
            ),
            check(
                "state_split_by_route",
                held == [half, half],
                format!("held {held:?}, expected {half} each"),
            ),
            check(
                "split_routes_hold",
                routed == [Some(0), Some(1)],
                format!("probes routed to {routed:?}"),
            ),
            check(
                "no_engine_or_journal_call",
                journal == 0,
                format!("{journal} journal records"),
            ),
        ];
        Finish {
            checks,
            layer,
            packets: Packets {
                sent: self.uid,
                bad,
            },
            samples: None,
        }
    }

    fn unit_span(&self) -> &'static str {
        "bench.window"
    }
}

// ---------------------------------------------------------------------
// sim_move
// ---------------------------------------------------------------------

const SIM_FLOWS: usize = 2_000;
const SIM_PPS: u64 = 10_000;
const SIM_TRAFFIC_MS: u64 = 1_500;
/// Distinct traffic traces (seeds `seed`, `seed + 1`, …) a run cycles over.
const SIM_TRACES: usize = 16;

/// The simulator: two asset monitors, established flows, a loss-free
/// parallel move at t = 200 ms. One unit of work is one
/// `run_to_completion()`; building the scenario is not timed.
struct SimMove {
    traces: Vec<api::TimedPackets>,
    seed: u64,
    tel: Telemetry,
    runs: u64,
    events: u64,
    run_s: f64,
    forwarded: u64,
    bad: u64,
    /// Virtual duration of the move on each trace, first time round.
    virtual_ms: Vec<f64>,
    virtual_repeats: bool,
}

impl SimMove {
    fn setup(cfg: &Config, spans: &mut Spans) -> SimMove {
        let flows = cfg.size(SIM_FLOWS) as u32;
        let pps = if cfg.smoke { SIM_PPS / 5 } else { SIM_PPS };
        let n = if cfg.smoke { 2 } else { SIM_TRACES };
        let traces = spans.span("bench.preload", 0, |_| {
            (0..n as u64)
                .map(|i| api::sim_traffic(flows, pps, SIM_TRAFFIC_MS, cfg.seed + i))
                .collect()
        });
        SimMove {
            traces,
            seed: cfg.seed,
            tel: cfg.tel.clone(),
            runs: 0,
            events: 0,
            run_s: 0.0,
            forwarded: 0,
            bad: 0,
            virtual_ms: Vec::new(),
            virtual_repeats: true,
        }
    }
}

impl Workload for SimMove {
    fn step(&mut self, spans: &mut Spans) -> Step {
        let i = self.runs as usize % self.traces.len();
        let mut sim = api::sim_build(
            self.traces[i].clone(),
            self.seed + i as u64,
            self.tel.clone(),
        );
        let t0 = Instant::now();
        spans.span("bench.sim_run", self.runs, |_| api::sim_run(&mut sim));
        let s = t0.elapsed().as_secs_f64();
        let out = api::sim_outcome(&sim);
        self.runs += 1;
        self.events += out.events;
        self.run_s += s;
        self.forwarded += out.forwarded as u64;
        self.bad += out.bad_packets as u64;
        match self.virtual_ms.get(i) {
            Some(&first) => self.virtual_repeats &= first == out.move_virtual_ms,
            None => self.virtual_ms.push(out.move_virtual_ms),
        }
        Step {
            ms: s * 1e3,
            items: out.forwarded as u64,
            ok: out.loss_free,
        }
    }

    fn finish(self: Box<Self>) -> Finish {
        let runs = self.runs.max(1) as f64;
        let layer = vec![
            (
                "sim.events_per_s",
                if self.run_s > 0.0 {
                    self.events as f64 / self.run_s
                } else {
                    0.0
                },
            ),
            ("sim.events_per_run", self.events as f64 / runs),
            (
                "controller.sim_move_virtual_ms",
                self.virtual_ms.first().copied().unwrap_or(0.0),
            ),
        ];
        let checks = vec![
            check(
                "exactly_once",
                self.bad == 0,
                format!(
                    "{} of {} forwarded packets not processed exactly once",
                    self.bad, self.forwarded
                ),
            ),
            check(
                "model_repeats_per_seed",
                self.virtual_repeats,
                "the move's virtual duration differed between two runs of one seed".into(),
            ),
        ];
        Finish {
            checks,
            layer,
            packets: Packets {
                sent: self.forwarded,
                bad: self.bad,
            },
            samples: None,
        }
    }

    fn unit_span(&self) -> &'static str {
        "bench.sim_run"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::WORKLOADS;

    /// `--smoke`: every workload at about 1/20 size, a handful of units
    /// of work each, every correctness check on.
    #[test]
    fn smoke_run_of_every_workload_passes_its_checks() {
        for w in &WORKLOADS {
            let cfg = Config {
                seed: 3,
                smoke: true,
                tel: api::telemetry_off(),
                extras: false,
            };
            let mut spans = Spans::off();
            let mut wl = setup(w.name, &cfg, &mut spans).expect("every listed workload builds");
            let pass = measure(wl.as_mut(), 0.05, 3, &mut spans);
            let fin = wl.finish();
            assert_eq!(pass.failed, 0, "{}: a unit of work failed", w.name);
            assert!(pass.samples_ms.len() >= 3, "{}", w.name);
            for c in &fin.checks {
                assert!(c.ok, "{}: check {} failed: {}", w.name, c.name, c.detail);
            }
            assert_eq!(fin.packets.bad, 0, "{}", w.name);
            assert!(fin.packets.sent > 0, "{}", w.name);
            if w.name.starts_with("move_live") {
                let affected = fin.layer.iter().find(|l| l.0 == "pkt_affected_ms_p50");
                assert!(
                    affected.is_some_and(|l| l.1 > 0.0),
                    "moves buffered some traffic"
                );
                assert_eq!(fin.samples.is_some(), w.name == "move_live_pkts");
            }
        }
    }

    #[test]
    fn unknown_workload_is_refused() {
        let cfg = Config {
            seed: 1,
            smoke: true,
            tel: api::telemetry_off(),
            extras: false,
        };
        assert!(setup("no_such_workload", &cfg, &mut Spans::off()).is_none());
    }
}
