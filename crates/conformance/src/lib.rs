//! Cross-runtime fault conformance.
//!
//! The simulator (`opennf-controller` on `opennf-sim`) and the threaded
//! runtime (`opennf-rt`) implement the same southbound protocol and the
//! same loss-free move. This crate is the differential driver that holds
//! them to it: one [`Spec`] — a traffic trace, a move command, and a
//! seeded [`FaultPlan`] — runs through **both** runtimes, and each side
//! must independently satisfy the exactly-once-or-accounted oracle:
//!
//! > every generated packet is processed exactly once, or its loss /
//! > duplication is explained by the injected-fault record or by an
//! > abort's explicit accounting.
//!
//! On fault-free specs the two sides must additionally agree on the
//! *final NF state digest* (an MD5 over every per-flow chunk) and on the
//! processed-packet count. Under faults the runtimes legitimately diverge
//! in *which* packets a probabilistic rule hits (the simulator rolls one
//! dice stream in delivery order; the runtime rolls content-addressed
//! dice per message — see `opennf-rt::faults`), so only the oracle and
//! rerun-determinism are compared there.
//!
//! Everything derives from `(seed, mask)`: the mask enables/disables
//! fault-plan components bit by bit, which is also the shrinking
//! dimension the soak binary walks when a seed fails.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

use opennf_controller::{
    Command, MoveProps, NetConfig, Scenario, ScenarioBuilder, ScopeSet,
};
use opennf_nf::{Chunk, NetworkFunction};
use opennf_nfs::AssetMonitor;
use opennf_packet::Filter;
use opennf_rt::{OpSpec, RtController, RtFaults, WireMsg};
use opennf_telemetry::Telemetry;
use opennf_trace::{steady_flows, TimedPacket};
use opennf_util::{Dur, FaultEvent, FaultKind, FaultPlan, Md5, NodeId, SimRng, Time};

/// Mask bit: drop packets on the router → source-worker link.
pub const M_DROP_DATA: u32 = 1 << 0;
/// Mask bit: drop events/replies on the source-worker → controller link.
pub const M_DROP_UP: u32 = 1 << 1;
/// Mask bit: delay packets on the router → source-worker link.
pub const M_DELAY_DATA: u32 = 1 << 2;
/// Mask bit: duplicate packets on the router → source-worker link.
pub const M_DUP_DATA: u32 = 1 << 3;
/// Mask bit: reorder packets on the router → source-worker link.
pub const M_REORDER_DATA: u32 = 1 << 4;
/// Mask bit: crash + restart the source worker mid-run.
pub const M_CRASH_SRC: u32 = 1 << 5;
/// Mask bit: stall window on the destination worker.
pub const M_STALL_DST: u32 = 1 << 6;
/// Mask bit: full traffic load (cleared = halved flows and rate).
pub const M_FULL_LOAD: u32 = 1 << 7;
/// Mask bit: use the P2P bulk-transfer move variant (the source streams
/// chunk batches directly to the destination; the controller only sees
/// begin/ack) instead of the controller-mediated loss-free move.
pub const M_P2P: u32 = 1 << 8;
/// Mask bit: issue no move at all — traffic only. Used by determinism
/// checks: without a mid-run route flip, every packet's path (and so the
/// per-link message set the content-addressed dice see) is fully
/// schedule-determined, making the threaded runtime's injected-fault
/// ledger strictly rerun-identical.
pub const M_NO_MOVE: u32 = 1 << 9;

/// Mask bit: crash + restart the *controller* mid-move. The sim drops
/// every delivery to the controller (timers included) inside the window;
/// on restart the op journal replays and drives in-flight ops to a
/// deterministic outcome via epoch-fenced reissue. The threaded runtime
/// has no separate controller process to kill — its fault shim already
/// drops worker → controller messages during NodeId(0) crash windows,
/// which the retry/abort machinery must absorb.
pub const M_CTRL_CRASH: u32 = 1 << 10;

/// Mask bit: multi-switch chain topology under a *sharded* controller.
/// The sim builds a 2–4 switch chain split across two shard controllers
/// (source instance on the ingress switch, destination on the last), so
/// the move is a cross-shard two-controller handoff; the threaded runtime
/// mirrors it with one [`RtController`] built over that many shards — one
/// worker in the first and one in the last, so the move is an engine op
/// marked as crossing the east-west boundary. Every sim run
/// additionally answers to the path-consistency oracle: after a committed
/// move, no switch may deliver a later-ingress packet to the old instance.
pub const M_MULTI_SW: u32 = 1 << 11;

/// Mask bit: draw an op-admission policy (FIFO, weighted-fair, or
/// deadline from `opennf-sched`) and run *both* runtimes under it. The
/// conformance trace issues one move per spec, so any policy admits it
/// identically — digests, spans, and oracle verdicts must not budge
/// regardless of which policy the seed draws. This is the subsystem's
/// no-op-equivalence soak: a policy bug that reorders, delays, or drops
/// a solitary op shows up as a differential failure.
pub const M_SCHED: u32 = 1 << 12;

/// Every fault bit (no load bit).
pub const M_ALL_FAULTS: u32 =
    M_DROP_DATA | M_DROP_UP | M_DELAY_DATA | M_DUP_DATA | M_REORDER_DATA | M_CRASH_SRC | M_STALL_DST;
/// The default soak mask: all faults, full load.
pub const M_DEFAULT: u32 = M_ALL_FAULTS | M_FULL_LOAD;

/// Shared node layout (see `opennf-rt::faults`): controller 0, switch 1,
/// then instances.
const SRC_NODE: NodeId = NodeId(2);
const DST_NODE: NodeId = NodeId(3);

/// One differential case: a two-monitor topology, steady traffic, a
/// loss-free move at `move_at`, and a fault plan — all derived from
/// `(seed, mask)`.
#[derive(Debug, Clone)]
pub struct Spec {
    /// Derivation seed (traffic seed; the plan seed mixes it).
    pub seed: u64,
    /// Enabled-component mask (`M_*` bits).
    pub mask: u32,
    /// Concurrent flows in the trace.
    pub flows: u32,
    /// Per-flow packet rate.
    pub pps: u64,
    /// Trace length.
    pub duration: Dur,
    /// When the move is issued.
    pub move_at: Dur,
    /// The fault plan both runtimes consume.
    pub plan: FaultPlan,
    /// Switch-chain length: 1 (the classic Figure 4 topology, single
    /// controller) unless [`M_MULTI_SW`] is set, then 2–4 switches under
    /// a sharded control plane.
    pub switches: usize,
    /// Shard-controller count: 1 on single-switch specs, 2–3 under
    /// [`M_MULTI_SW`] (never more than the chain has switches, so every
    /// shard owns at least one).
    pub shards: usize,
    /// Which shard's workers the threaded runtime arms the fault plan on
    /// (each under its global node id, as the plan and the sim name it).
    /// Always 0 on single-switch specs; any shard under [`M_MULTI_SW`].
    pub fault_shard: usize,
    /// Op-admission policy both runtimes run under. FIFO (the dispatch
    /// behaviour every earlier spec had) unless [`M_SCHED`] draws
    /// another.
    pub sched_policy: opennf_rt::SchedPolicy,
}

impl Spec {
    /// Derives a spec from `(seed, mask)`. Same inputs, same spec.
    pub fn from_seed(seed: u64, mask: u32) -> Spec {
        let mut rng = SimRng::new(seed ^ 0x5bec_5bec_5bec_5bec);
        let mut flows = 6 + rng.below(10) as u32; // 6..16
        let mut pps = 800 + rng.below(1200); // 800..2000 per flow
        if mask & M_FULL_LOAD == 0 {
            flows = (flows / 2).max(2);
            pps = (pps / 2).max(200);
        }
        let duration = Dur::millis(150 + rng.below(100)); // 150..250 ms
        let move_at = Dur::millis(50 + rng.below(60)); // 50..110 ms
        // Probabilistic link rules use the full-run window [0, ∞): the
        // threaded runtime's verdicts are content-addressed, so unbounded
        // windows keep its ledger rerun-identical even though wall-clock
        // send times jitter (a bounded window could flip edge-straddling
        // packets between runs). Crash/stall windows are inherently
        // time-edged; their rt reruns are identical up to that edge.
        let mut plan = FaultPlan::new(seed ^ 0xfa17_0000_0000_0001);
        if mask & M_DROP_DATA != 0 {
            let pm = 20 + rng.below(80) as u16;
            plan = plan.link(Some(NodeId(1)), Some(SRC_NODE), Time(0), Time(u64::MAX), pm, FaultKind::Drop);
        }
        if mask & M_DROP_UP != 0 {
            let pm = 10 + rng.below(60) as u16;
            plan = plan.link(Some(SRC_NODE), Some(NodeId(0)), Time(0), Time(u64::MAX), pm, FaultKind::Drop);
        }
        if mask & M_DELAY_DATA != 0 {
            let pm = 30 + rng.below(100) as u16;
            let by = Dur::millis(1 + rng.below(15));
            plan = plan.link(Some(NodeId(1)), Some(SRC_NODE), Time(0), Time(u64::MAX), pm, FaultKind::Delay(by));
        }
        if mask & M_DUP_DATA != 0 {
            let pm = 20 + rng.below(60) as u16;
            let gap = Dur::millis(1 + rng.below(5));
            plan = plan.link(Some(NodeId(1)), Some(SRC_NODE), Time(0), Time(u64::MAX), pm, FaultKind::Duplicate(gap));
        }
        if mask & M_REORDER_DATA != 0 {
            let pm = 30 + rng.below(100) as u16;
            let win = Dur::millis(1 + rng.below(4));
            plan = plan.link(Some(NodeId(1)), Some(SRC_NODE), Time(0), Time(u64::MAX), pm, FaultKind::Reorder(win));
        }
        if mask & M_CRASH_SRC != 0 {
            // Crash the source around the move window, restart well before
            // the run ends so the runtimes can converge.
            let crash_at = move_at + Dur::millis(rng.below(20));
            let back_at = crash_at + Dur::millis(20 + rng.below(40));
            plan = plan.crash(SRC_NODE, Time(0) + crash_at).restart(SRC_NODE, Time(0) + back_at);
        }
        if mask & M_STALL_DST != 0 {
            let from = Dur::millis(30 + rng.below(40));
            let until = from + Dur::millis(10 + rng.below(30));
            plan = plan.stall(DST_NODE, Time(0) + from, Time(0) + until);
        }
        if mask & M_P2P != 0 && mask & M_DROP_DATA != 0 {
            // Exercise the direct src → dst transfer path under loss: chunk
            // batches (and only them — nothing else crosses that link) get
            // dropped, forcing the reconcile-and-retry machinery. Gated on
            // M_DROP_DATA so a bare M_P2P spec stays fault-free and its
            // digests stay comparable across runtimes.
            let pm = 40 + rng.below(120) as u16;
            plan = plan.link(Some(SRC_NODE), Some(DST_NODE), Time(0), Time(u64::MAX), pm, FaultKind::Drop);
        }
        if mask & M_CTRL_CRASH != 0 {
            // Crash the controller inside the move window; restart soon
            // enough that journal recovery can re-drive the op before the
            // trace ends. This rng block sits last so every pre-existing
            // (seed, mask) derivation stays byte-identical.
            let crash_at = move_at + Dur::millis(rng.below(20));
            let back_at = crash_at + Dur::millis(20 + rng.below(40));
            plan = plan.crash_restart(NodeId(0), Time(0) + crash_at, Time(0) + back_at);
        }
        // The M_MULTI_SW rng block sits after every other block so every
        // pre-existing (seed, mask) derivation stays byte-identical.
        let mut switches = 1usize;
        if mask & M_MULTI_SW != 0 {
            switches = 2 + rng.below(3) as usize; // 2..=4
        }
        // Trailing draws (same append-only discipline): shard counts
        // beyond two on longer chains, and which shard the threaded
        // runtime arms the fault plan on — non-zero shards included, so
        // the plan's destination-side rules also bite there.
        let mut shards = 1usize;
        let mut fault_shard = 0usize;
        if mask & M_MULTI_SW != 0 {
            shards = 2 + rng.below((switches as u64 - 1).min(2)) as usize; // 2..=3, ≤ switches
            fault_shard = rng.below(shards as u64) as usize;
        }
        // Trailing M_SCHED draw (append-only, after every other block):
        // which admission policy both runtimes run under.
        let mut sched_policy = opennf_rt::SchedPolicy::Fifo;
        if mask & M_SCHED != 0 {
            let all = opennf_rt::SchedPolicy::all();
            sched_policy = all[rng.below(all.len() as u64) as usize];
        }
        Spec {
            seed,
            mask,
            flows,
            pps,
            duration,
            move_at,
            plan,
            switches,
            shards,
            fault_shard,
            sched_policy,
        }
    }

    /// True when no fault component is enabled: state digests and
    /// processed counts must then match across runtimes.
    pub fn is_fault_free(&self) -> bool {
        self.plan.links.is_empty()
            && self.plan.crashes.is_empty()
            && self.plan.restarts.is_empty()
            && self.plan.stalls.is_empty()
    }

    /// The one-command reproduction line for this spec.
    pub fn repro(&self) -> String {
        format!("cargo run --release --example soak -- --seed {} --mask 0x{:x}", self.seed, self.mask)
    }
}

/// What one runtime reports for one spec — the comparable surface.
#[derive(Debug, Clone)]
pub struct SideReport {
    /// Oracle verdict.
    pub ok: bool,
    /// Human-readable failure detail (empty when `ok`).
    pub detail: String,
    /// Packets processed (all instances, replays included).
    pub processed: usize,
    /// Canonical injected-fault summary (per-kind counts + sorted uids);
    /// rerun-stable within a runtime, not comparable across runtimes.
    pub fault_canonical: String,
    /// Every injected fault, in injection order (the rt shim's ledger, the
    /// sim's fault record): which link each one hit.
    pub fault_log: Vec<FaultEvent>,
    /// MD5 over the final per-flow state of every instance.
    pub digest: String,
    /// Whether the move completed (vs aborted).
    pub move_completed: bool,
    /// Begin-ordered `move.*` span names from the run's telemetry. On
    /// fault-free specs with a move both runtimes must emit the identical
    /// sequence (export → transfer → import → flush → fwd_update).
    pub move_spans: Vec<String>,
    /// The same spans relaxed to *per-op* order: one group per parent
    /// span, each group begin-ordered, groups by first appearance. With
    /// the rt side's concurrent op engine the global interleaving of
    /// phase spans is timing-dependent, but each op's phases must still
    /// begin in protocol order under that op's root span — this is what
    /// the differential compares.
    pub move_span_groups: Vec<Vec<String>>,
    /// Flight-recorder dump (JSONL, metrics summary included) — what the
    /// soak writes next to the repro line when a spec fails.
    pub flight_jsonl: String,
    /// The same recorder as a Chrome trace-event JSON document (open in
    /// `chrome://tracing` or Perfetto).
    pub flight_chrome: String,
    /// The controller's op journal as JSON — in the sim every shard's,
    /// newline-joined. Both runtimes keep one (the rt op engine journals
    /// through the same [`opennf_rt::JournalPhase`] ledger); only the sim's
    /// is rerun-identical (the rt journal stamps wall-clock times). Written
    /// next to the flight-recorder dump when a crash-recovery spec fails or
    /// is archived.
    pub journal_json: String,
    /// One-line verdict of the happens-before oracle (`opennf-prof`): the
    /// causal-graph invariants checked over this side's flight recorder
    /// and journal. An unexcused violation also clears `ok`.
    pub hb_summary: String,
}

/// [`Telemetry::span_sequences_by_parent`] with the parent ids dropped:
/// the cross-runtime comparable surface is each op's phase order, not the
/// runtime-specific span numbering.
fn span_groups(tel: &Telemetry) -> Vec<Vec<String>> {
    tel.span_sequences_by_parent("move.").into_iter().map(|(_, names)| names).collect()
}

/// What this spec's fault plan can excuse in the happens-before oracle
/// (public so the soak's post-failure analyzer applies the same ledger).
pub fn spec_excuses(spec: &Spec) -> opennf_prof::Excuses {
    if spec.is_fault_free() {
        return opennf_prof::Excuses::none();
    }
    let crashy = !spec.plan.crashes.is_empty() || !spec.plan.restarts.is_empty();
    let mut kinds = Vec::new();
    if !spec.plan.links.is_empty() {
        kinds.push("link".to_string());
    }
    if !spec.plan.stalls.is_empty() {
        kinds.push("stall".to_string());
    }
    if crashy {
        kinds.push("crash".to_string());
    }
    opennf_prof::Excuses::faulty(crashy, kinds)
}

/// Runs the happens-before oracle over one side's flight recorder and
/// journal, then folds an unexcused violation into the side verdict.
fn apply_hb_oracle(
    spec: &Spec,
    tel: &Telemetry,
    journal_json: &str,
    ok: &mut bool,
    detail: &mut String,
) -> String {
    let trace = opennf_prof::Trace::from_telemetry(tel);
    let report = opennf_prof::check(&trace, Some(journal_json), &spec_excuses(spec));
    if !report.ok() {
        *ok = false;
        if !detail.is_empty() {
            detail.push_str("; ");
        }
        detail.push_str(&report.detail());
    }
    report.summary()
}

fn digest_chunks(mut chunks: Vec<Chunk>) -> String {
    chunks.sort_by(|a, b| {
        (format!("{:?}", a.flow_id), &a.kind).cmp(&(format!("{:?}", b.flow_id), &b.kind))
    });
    let mut md5 = Md5::new();
    for c in &chunks {
        md5.update(format!("{:?}|{}|", c.flow_id, c.kind).as_bytes());
        md5.update(&c.data);
        md5.update(b";");
    }
    md5.hex_digest()
}

/// Runs the spec through the discrete-event simulator.
pub fn run_sim(spec: &Spec) -> SideReport {
    let tel = Telemetry::manual();
    let trace = steady_flows(spec.flows, spec.pps, spec.duration, spec.seed);
    let mut b = ScenarioBuilder::new()
        .config(NetConfig::default())
        .seed(spec.seed)
        .telemetry(tel.clone())
        .sched_policy(spec.sched_policy);
    b = if spec.switches > 1 {
        // Multi-switch chain under `spec.shards` shard controllers:
        // source on the ingress switch, destination on the last — the
        // move crosses the shard boundary.
        b.switches(spec.switches)
            .shards(spec.shards)
            .nf_at("src", Box::new(AssetMonitor::new()), 0)
            .nf_at("dst", Box::new(AssetMonitor::new()), spec.switches - 1)
    } else {
        b.nf("src", Box::new(AssetMonitor::new())).nf("dst", Box::new(AssetMonitor::new()))
    };
    let mut b = b.host(trace).route(0, Filter::any(), 0);
    if !spec.is_fault_free() {
        b = b.fault_plan(spec.plan.clone());
    }
    let mut s = b.build();
    if spec.mask & M_NO_MOVE == 0 {
        let cmd = Command::Move {
            src: s.instances[0],
            dst: s.instances[1],
            filter: Filter::any(),
            scope: ScopeSet::per_flow(),
            props: if spec.mask & M_P2P != 0 {
                MoveProps::lf_pl_p2p()
            } else {
                MoveProps::lf_pl()
            },
        };
        s.issue_at(spec.move_at, cmd);
    }
    s.run_to_completion();

    let check = s.oracle_with_faults().check();
    // Every sim run also answers to the path-consistency oracle: after a
    // committed move, no switch may deliver a later-ingress packet to the
    // old instance (trivially satisfied when no move commits).
    let path_viol = s.path_violations();
    let ok = check.is_exactly_once_or_accounted() && path_viol.is_empty();
    let detail = if ok {
        String::new()
    } else {
        let mut parts = Vec::new();
        if !check.is_exactly_once_or_accounted() {
            parts.push(format!(
                "sim oracle: unaccounted lost={:?} dup={:?}",
                check.lost, check.duplicated
            ));
        }
        if !path_viol.is_empty() {
            parts.push(format!("sim path oracle: stale deliveries {path_viol:?}"));
        }
        parts.join("; ")
    };
    let processed: usize = (0..2).map(|i| s.nf(i).records.len()).sum();
    let move_completed = s
        .controller()
        .reports_of("move")
        .first()
        .map(|r| !r.outcome.is_aborted())
        .unwrap_or(false);
    let fault_canonical = sim_fault_canonical(&s);
    let fault_log = s.engine.fault().map(|f| f.log.clone()).unwrap_or_default();
    let digest = sim_digest(&mut s);
    // Every shard's journal (a single controller is one shard).
    let journal_json = (0..s.ctrls.len())
        .map(|k| s.controller_of(k).journal_json())
        .collect::<Vec<_>>()
        .join("\n");
    let mut ok = ok;
    let mut detail = detail;
    let hb_summary = apply_hb_oracle(spec, &tel, &journal_json, &mut ok, &mut detail);
    SideReport {
        ok,
        detail,
        processed,
        fault_canonical,
        fault_log,
        digest,
        move_completed,
        move_spans: tel.span_sequence("move."),
        move_span_groups: span_groups(&tel),
        flight_jsonl: tel.export_jsonl(),
        flight_chrome: tel.export_chrome(),
        journal_json,
        hb_summary,
    }
}

fn sim_digest(s: &mut Scenario) -> String {
    let mut chunks = Vec::new();
    for i in 0..2 {
        chunks.extend(s.nf_mut(i).harness_mut().nf_mut().get_perflow(&Filter::any()));
    }
    digest_chunks(chunks)
}

fn sim_fault_canonical(s: &Scenario) -> String {
    match s.engine.fault() {
        None => String::from("none"),
        Some(f) => {
            let mut kinds = std::collections::BTreeMap::new();
            for ev in &f.log {
                let d = format!("{ev:?}");
                let name = d.split([' ', '{']).next().unwrap_or("?").to_string();
                *kinds.entry(name).or_insert(0usize) += 1;
            }
            let mut lost: Vec<u64> =
                f.lost.iter().filter_map(|(_, _, _, m)| m.packet_uid()).collect();
            lost.sort_unstable();
            let mut dup: Vec<u64> =
                f.duplicated.iter().filter_map(|(_, _, _, m)| m.packet_uid()).collect();
            dup.sort_unstable();
            format!("kinds={kinds:?} lost={lost:?} dup={dup:?}")
        }
    }
}

/// The spec's move as the rt engine takes it: worker 0 → worker 1, every
/// flow, in the transfer mode the mask draws.
fn rt_move_spec(spec: &Spec) -> OpSpec {
    let mv = if spec.mask & M_P2P != 0 { OpSpec::mv_p2p } else { OpSpec::mv };
    mv(0, 1, Filter::any())
}

/// Runs the spec through the threaded runtime. The same `steady_flows`
/// trace is replayed wall-clock-paced through the fault-shimmed router →
/// worker links; virtual plan time maps 1:1 onto nanoseconds since the
/// controller armed the shim.
///
/// A multi-switch spec runs on an [`RtController`] built over
/// `spec.shards` shards — source NF in shard 0, destination in the last,
/// the shards in between (chains longer than the shard count) own only
/// trunk switches and so carry no workers — which makes the move a
/// cross-shard op, the runtime mirror of the sim's sharded topology. The
/// plan is armed on `spec.fault_shard` only, so on specs that draw a
/// worker-less middle shard it is inert. That is acceptable for the differential: under
/// faults only each side's own oracle and rerun-determinism are compared;
/// fault-free specs — where digests and span sequences must agree — are
/// unaffected.
pub fn run_rt(spec: &Spec) -> SideReport {
    let trace = steady_flows(spec.flows, spec.pps, spec.duration, spec.seed);
    let uids: Vec<u64> = trace.iter().map(|(_, p)| p.uid).collect();

    let tel = Telemetry::wall();
    let monitor = || Box::new(AssetMonitor::new()) as Box<dyn NetworkFunction>;
    // One shard of two workers, or a multi-switch chain's shards with the
    // source NF in the first and the destination in the last.
    let (shards, fault_shard) = if spec.switches > 1 {
        let n_shards = spec.shards.max(2);
        let mut shards: Vec<Vec<Box<dyn NetworkFunction>>> =
            (0..n_shards).map(|_| Vec::new()).collect();
        shards[0].push(monitor());
        shards[n_shards - 1].push(monitor());
        (shards, spec.fault_shard.min(n_shards - 1))
    } else {
        (vec![vec![monitor(), monitor()]], 0)
    };
    let plan = Some((spec.plan.clone(), fault_shard));
    let (ctrl, faults) = RtController::build(shards, plan, tel.clone());
    let faults = faults.expect("a plan was given");
    let mut ctrl = ctrl.with_reply_timeout(Duration::from_millis(400));
    let driven = rt_drive(spec, &mut ctrl, &faults, trace);
    let harnesses = ctrl.shutdown();
    faults.join_pump();
    let (move_completed, mut excused, journal_json) = driven;

    let ledger = faults.ledger();
    excused.extend(ledger.lost_sorted());
    excused.extend(ledger.duplicated_sorted());
    excused.sort_unstable();
    excused.dedup();

    // Exactly-once-or-accounted over the merged processed logs.
    let mut counts = std::collections::HashMap::new();
    let mut processed = 0usize;
    for h in &harnesses {
        for &uid in h.processed_log() {
            *counts.entry(uid).or_insert(0usize) += 1;
            processed += 1;
        }
    }
    let mut bad = Vec::new();
    for &uid in &uids {
        let n = counts.get(&uid).copied().unwrap_or(0);
        if n != 1 && excused.binary_search(&uid).is_err() {
            bad.push((uid, n));
        }
    }
    let mut ok = bad.is_empty();
    let mut detail = if ok {
        String::new()
    } else {
        bad.truncate(16);
        format!("rt oracle: unaccounted (uid, times-processed)={bad:?}")
    };

    let mut chunks = Vec::new();
    for mut h in harnesses {
        chunks.extend(h.nf_mut().get_perflow(&Filter::any()));
    }
    let hb_summary = apply_hb_oracle(spec, &tel, &journal_json, &mut ok, &mut detail);
    SideReport {
        ok,
        detail,
        processed,
        fault_canonical: format!("{:?}", ledger.canonical()),
        fault_log: ledger.log,
        digest: digest_chunks(chunks),
        move_completed,
        move_spans: tel.span_sequence("move."),
        move_span_groups: span_groups(&tel),
        flight_jsonl: tel.export_jsonl(),
        flight_chrome: tel.export_chrome(),
        journal_json,
        hb_summary,
    }
}

/// The live part of [`run_rt`], the same for a standalone controller and
/// for a sharded one (which derefs to its controller): generator thread,
/// the move at its virtual time, drain. Returns whether the move
/// completed, the uids its abort accounting gave up on, and the journal.
fn rt_drive(
    spec: &Spec,
    ctrl: &mut RtController,
    faults: &Arc<RtFaults>,
    trace: Vec<TimedPacket>,
) -> (bool, Vec<u64>, String) {
    ctrl.set_sched_policy(spec.sched_policy);

    // Generator thread: replay the trace against the shared router,
    // stamping each packet's ingress with its *scheduled* time — exactly
    // what the simulator's host node stamps — so fault-free final state
    // digests are byte-comparable across runtimes.
    let router = ctrl.router.clone();
    let links = [ctrl.data_tx(0), ctrl.data_tx(1)];
    let gen_faults = faults.clone();
    let done = Arc::new(AtomicBool::new(false));
    let gen_done = done.clone();
    let gen = std::thread::spawn(move || {
        for (t, mut pkt) in trace {
            while gen_faults.now() < Time(t) {
                std::thread::sleep(Duration::from_micros(200));
            }
            pkt.ingress_ns = t;
            if let Some(w) = router.route(&pkt) {
                let _ = links[w].send(&WireMsg::Packet { packet: pkt });
            }
        }
        gen_done.store(true, Ordering::SeqCst);
    });

    // Issue the move at its virtual time (unless this is a traffic-only
    // determinism spec).
    let (move_completed, excused) = if spec.mask & M_NO_MOVE != 0 {
        (false, Vec::new())
    } else {
        while faults.now() < Time(0) + spec.move_at {
            std::thread::sleep(Duration::from_micros(500));
        }
        let move_result = ctrl.run_op(rt_move_spec(spec));
        (move_result.is_ok(), ctrl.abort_lost().to_vec())
    };

    // Let the trace finish plus a margin wide enough for every delayed /
    // duplicated / stalled delivery (plan delays are bounded well below
    // this) to land before teardown.
    while !done.load(Ordering::SeqCst) {
        std::thread::sleep(Duration::from_millis(5));
    }
    std::thread::sleep(Duration::from_millis(120));
    gen.join().expect("generator");

    (move_completed, excused, ctrl.journal_json())
}

/// The cross-runtime verdict for one spec.
#[derive(Debug, Clone)]
pub struct DiffReport {
    /// Simulator side.
    pub sim: SideReport,
    /// Threaded-runtime side.
    pub rt: SideReport,
    /// Overall verdict.
    pub ok: bool,
    /// What disagreed (empty when `ok`).
    pub detail: String,
}

/// Runs `spec` through both runtimes and compares.
pub fn differential(spec: &Spec) -> DiffReport {
    let sim = run_sim(spec);
    let rt = run_rt(spec);
    let mut problems = Vec::new();
    if !sim.ok {
        problems.push(sim.detail.clone());
    }
    if !rt.ok {
        problems.push(rt.detail.clone());
    }
    if spec.is_fault_free() {
        if sim.digest != rt.digest {
            problems.push(format!("state digest mismatch: sim={} rt={}", sim.digest, rt.digest));
        }
        if sim.processed != rt.processed {
            problems
                .push(format!("processed mismatch: sim={} rt={}", sim.processed, rt.processed));
        }
        // Both runtimes tile a fault-free move with the same ordered
        // phase spans — a protocol-shape check on top of the state check.
        // Compared per op (grouped by parent span) rather than as one
        // flat sequence: the rt op engine may interleave phases of
        // concurrent ops globally, but each op's own order is invariant.
        if spec.mask & M_NO_MOVE == 0 && sim.move_span_groups != rt.move_span_groups {
            problems.push(format!(
                "move span sequence mismatch (per op): sim={:?} rt={:?}",
                sim.move_span_groups, rt.move_span_groups
            ));
        }
    }
    let ok = problems.is_empty();
    DiffReport { sim, rt, ok, detail: problems.join("; ") }
}

/// Shrinks a failing `(seed, mask)` by greedily clearing mask bits while
/// the failure persists; returns the minimal failing mask. `check` runs
/// the case and returns true when it still fails.
pub fn shrink_mask(mask: u32, mut still_fails: impl FnMut(u32) -> bool) -> u32 {
    let mut cur = mask;
    loop {
        let mut improved = false;
        for bit in 0..32 {
            let b = 1u32 << bit;
            if cur & b != 0 {
                let candidate = cur & !b;
                if still_fails(candidate) {
                    cur = candidate;
                    improved = true;
                }
            }
        }
        if !improved {
            return cur;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spec_derivation_is_deterministic() {
        let a = Spec::from_seed(7, M_DEFAULT);
        let b = Spec::from_seed(7, M_DEFAULT);
        assert_eq!(format!("{a:?}"), format!("{b:?}"));
        assert!(!a.is_fault_free());
        let c = Spec::from_seed(7, M_FULL_LOAD);
        assert!(c.is_fault_free());
    }

    #[test]
    fn mask_bits_gate_plan_components() {
        let s = Spec::from_seed(3, M_CRASH_SRC | M_FULL_LOAD);
        assert!(s.plan.links.is_empty());
        assert_eq!(s.plan.crashes.len(), 1);
        assert_eq!(s.plan.restarts.len(), 1);
        let s = Spec::from_seed(3, M_DROP_DATA | M_FULL_LOAD);
        assert_eq!(s.plan.links.len(), 1);
        assert!(s.plan.crashes.is_empty());
    }

    #[test]
    fn ctrl_crash_bit_gates_a_controller_crash_and_keeps_other_specs_stable() {
        let s = Spec::from_seed(3, M_CTRL_CRASH | M_FULL_LOAD);
        assert_eq!(s.plan.crashes, vec![(NodeId(0), s.plan.crashes[0].1)]);
        assert_eq!(s.plan.restarts.len(), 1);
        assert!(!s.is_fault_free());
        // The M_CTRL_CRASH rng block sits after every other block, so
        // derivations that don't set the bit are unchanged by its
        // existence: identical fields with and without trailing draws.
        let a = Spec::from_seed(3, M_DEFAULT);
        let b = Spec::from_seed(3, M_DEFAULT);
        assert_eq!(format!("{a:?}"), format!("{b:?}"));
    }

    #[test]
    fn ctrl_crash_sim_recovery_is_accounted_and_rerun_identical() {
        let spec = Spec::from_seed(5, M_FULL_LOAD | M_CTRL_CRASH);
        let a = run_sim(&spec);
        let b = run_sim(&spec);
        assert!(a.ok, "sim oracle under controller crash: {}", a.detail);
        assert_eq!(a.digest, b.digest, "recovery must be deterministic");
        assert_eq!(a.journal_json, b.journal_json, "journal must be rerun-identical");
        assert!(a.journal_json.contains("Armed"), "the move must have journaled its phases");
    }

    #[test]
    fn shrink_reaches_a_minimal_mask() {
        // Pretend the failure only needs M_DROP_UP.
        let minimal = shrink_mask(M_DEFAULT, |m| m & M_DROP_UP != 0);
        assert_eq!(minimal, M_DROP_UP);
    }

    #[test]
    fn fault_free_move_emits_same_span_sequence_in_both_runtimes() {
        let canonical =
            ["move.export", "move.transfer", "move.import", "move.flush", "move.fwd_update"];
        let spec = Spec::from_seed(11, M_FULL_LOAD);
        assert!(spec.is_fault_free());
        let report = differential(&spec);
        assert!(report.ok, "differential failed: {}", report.detail);
        assert_eq!(report.sim.move_spans, canonical, "sim phase order");
        assert_eq!(report.rt.move_spans, canonical, "rt phase order");
        assert!(!report.sim.flight_jsonl.is_empty());
        assert!(!report.rt.flight_jsonl.is_empty());
    }

    #[test]
    fn multi_sw_bit_gates_topology_and_keeps_other_specs_stable() {
        let s = Spec::from_seed(3, M_MULTI_SW | M_FULL_LOAD);
        assert!((2..=4).contains(&s.switches), "2–4 switch chain: {}", s.switches);
        assert!(s.is_fault_free(), "bare M_MULTI_SW adds no fault component");
        // The M_MULTI_SW rng block sits after every other block, so
        // derivations without the bit draw nothing extra and stay
        // byte-identical — and always describe the single-switch topology.
        let a = Spec::from_seed(3, M_DEFAULT);
        assert_eq!(a.switches, 1);
        let b = Spec::from_seed(3, M_DEFAULT);
        assert_eq!(format!("{a:?}"), format!("{b:?}"));
    }

    #[test]
    fn multi_sw_draws_shard_counts_and_fault_shards() {
        // The trailing draws must produce shard counts beyond two and
        // fault plans targeting non-zero shards somewhere in a seed
        // window — and never an invalid combination.
        let (mut saw_three, mut saw_nonzero_fault) = (false, false);
        for seed in 0..64u64 {
            let s = Spec::from_seed(seed, M_DEFAULT | M_MULTI_SW);
            assert!((2..=3).contains(&s.shards), "shard range: {}", s.shards);
            assert!(s.shards <= s.switches, "every shard owns a switch");
            assert!(s.fault_shard < s.shards, "fault shard exists");
            saw_three |= s.shards == 3;
            saw_nonzero_fault |= s.fault_shard > 0;
            // Single-switch specs never shard and always fault shard 0.
            let t = Spec::from_seed(seed, M_DEFAULT);
            assert_eq!((t.shards, t.fault_shard), (1, 0));
        }
        assert!(saw_three, "some spec draws a third shard");
        assert!(saw_nonzero_fault, "some spec arms faults on a non-zero shard");
    }

    #[test]
    fn sched_bit_gates_policy_and_keeps_other_specs_stable() {
        // The M_SCHED draw is append-only: derivations without the bit
        // draw nothing extra, stay byte-identical, and always run FIFO.
        let a = Spec::from_seed(7, M_DEFAULT);
        assert_eq!(a.sched_policy, opennf_rt::SchedPolicy::Fifo);
        let b = Spec::from_seed(7, M_DEFAULT);
        assert_eq!(format!("{a:?}"), format!("{b:?}"));
        // Somewhere in a seed window the bit draws every policy.
        let mut seen = std::collections::HashSet::new();
        for seed in 0..64u64 {
            seen.insert(Spec::from_seed(seed, M_DEFAULT | M_SCHED).sched_policy.name());
        }
        assert_eq!(seen.len(), 3, "all three policies drawn: {seen:?}");
    }

    #[test]
    fn sched_policy_is_digest_neutral_on_single_op_specs() {
        // A conformance spec issues one op, so every admission policy
        // admits it identically: the sim digest under a drawn non-FIFO
        // policy must equal the digest of the same seed without M_SCHED.
        let seed = (0..64u64)
            .find(|s| {
                Spec::from_seed(*s, M_FULL_LOAD | M_SCHED).sched_policy
                    != opennf_rt::SchedPolicy::Fifo
            })
            .expect("a non-FIFO seed exists");
        let with = Spec::from_seed(seed, M_FULL_LOAD | M_SCHED);
        let without = Spec::from_seed(seed, M_FULL_LOAD);
        assert!(with.is_fault_free());
        let a = run_sim(&with);
        let b = run_sim(&without);
        assert!(a.ok, "sim oracle under {}: {}", with.sched_policy.name(), a.detail);
        assert_eq!(a.digest, b.digest, "policy {} changed the digest", with.sched_policy.name());
        assert_eq!(a.move_spans, b.move_spans, "policy changed phase order");
    }

    #[test]
    fn fault_free_differential_agrees_under_drawn_policy() {
        let seed = (0..64u64)
            .find(|s| {
                Spec::from_seed(*s, M_FULL_LOAD | M_SCHED).sched_policy
                    != opennf_rt::SchedPolicy::Fifo
            })
            .expect("a non-FIFO seed exists");
        let spec = Spec::from_seed(seed, M_FULL_LOAD | M_SCHED);
        assert!(spec.is_fault_free());
        let report = differential(&spec);
        assert!(
            report.ok,
            "differential under {} failed: {}",
            spec.sched_policy.name(),
            report.detail
        );
        assert!(report.sim.move_completed && report.rt.move_completed);
    }

    #[test]
    fn fault_free_three_shard_differential_agrees() {
        // Deterministically pick the first seed that draws three shards.
        let seed = (0..256u64)
            .find(|s| Spec::from_seed(*s, M_FULL_LOAD | M_MULTI_SW).shards == 3)
            .expect("a three-shard seed exists");
        let spec = Spec::from_seed(seed, M_FULL_LOAD | M_MULTI_SW);
        assert!(spec.is_fault_free());
        let report = differential(&spec);
        assert!(report.ok, "three-shard differential failed: {}", report.detail);
        assert!(report.sim.move_completed && report.rt.move_completed);
        // Both sides journal the cross-shard move to its commit.
        assert!(report.sim.journal_json.contains("Committed"));
        assert!(report.rt.journal_json.contains("Committed"));
    }

    #[test]
    fn rt_fault_plan_arms_on_a_non_zero_shard() {
        // First seed that arms the plan on the destination's shard with a
        // stall window covering the move's first puts. The threaded
        // runtime must still satisfy its own oracle, and the destination
        // is addressed as the plan's DST_NODE there: the stall bites and
        // lands in the ledger.
        let spec = (0..256u64)
            .map(|s| Spec::from_seed(s, M_DEFAULT | M_MULTI_SW))
            .find(|s| {
                let (_, from, until) = s.plan.stalls[0];
                let move_at = Time(0) + s.move_at;
                s.fault_shard == s.shards - 1 && from <= move_at && move_at + Dur::millis(15) < until
            })
            .expect("a seed stalls the destination's shard across the move");
        let rt = run_rt(&spec);
        assert!(rt.ok, "rt oracle with faults on shard {}: {}", spec.fault_shard, rt.detail);
        assert!(
            !rt.fault_canonical.contains("(\"stalled\", 0)"),
            "stall(DST_NODE) bites on shard {}: {}",
            spec.fault_shard,
            rt.fault_canonical
        );
    }

    #[test]
    fn rt_journal_records_the_move_and_groups_spans_per_op() {
        let spec = Spec::from_seed(11, M_FULL_LOAD);
        assert!(spec.is_fault_free());
        let rt = run_rt(&spec);
        assert!(rt.ok, "rt oracle: {}", rt.detail);
        // The op engine journals the move through the same ledger the
        // sim controller keeps…
        for phase in ["Armed", "Transferred", "Committed"] {
            assert!(rt.journal_json.contains(phase), "journal records {phase}");
        }
        // …and its five phase spans sit under one per-op root span.
        let canonical =
            ["move.export", "move.transfer", "move.import", "move.flush", "move.fwd_update"];
        assert_eq!(rt.move_span_groups, vec![canonical.map(String::from).to_vec()]);
    }

    #[test]
    fn fault_free_multi_switch_differential_agrees() {
        let canonical =
            ["move.export", "move.transfer", "move.import", "move.flush", "move.fwd_update"];
        let spec = Spec::from_seed(11, M_FULL_LOAD | M_MULTI_SW);
        assert!(spec.is_fault_free());
        assert!(spec.switches > 1);
        let report = differential(&spec);
        assert!(report.ok, "multi-switch differential failed: {}", report.detail);
        assert!(report.sim.move_completed, "sim cross-shard move committed");
        assert!(report.rt.move_completed, "rt cross-shard move committed");
        assert_eq!(report.sim.move_spans, canonical, "sim phase order");
        assert_eq!(report.rt.move_spans, canonical, "rt phase order");
        // Both shard journals are captured, newline-joined.
        assert!(report.sim.journal_json.contains('\n'), "two shard journals");
    }

    #[test]
    fn fault_free_multi_switch_p2p_differential_agrees() {
        let spec = Spec::from_seed(13, M_FULL_LOAD | M_MULTI_SW | M_P2P);
        assert!(spec.is_fault_free());
        let report = differential(&spec);
        assert!(report.ok, "multi-switch P2P differential failed: {}", report.detail);
        assert!(report.sim.move_completed && report.rt.move_completed);
    }

    #[test]
    fn multi_switch_ctrl_crash_sim_is_accounted_and_rerun_identical() {
        // The soak lane's mask: a sharded multi-switch topology with the
        // owning shard's controller crashing mid-move.
        let spec = Spec::from_seed(5, M_FULL_LOAD | M_MULTI_SW | M_CTRL_CRASH);
        let a = run_sim(&spec);
        let b = run_sim(&spec);
        assert!(a.ok, "sim oracle under sharded controller crash: {}", a.detail);
        assert_eq!(a.digest, b.digest, "sharded recovery must be deterministic");
        assert_eq!(a.journal_json, b.journal_json, "journals must be rerun-identical");
    }

    #[test]
    fn fault_free_p2p_move_emits_same_span_sequence_in_both_runtimes() {
        let canonical =
            ["move.export", "move.transfer", "move.import", "move.flush", "move.fwd_update"];
        let spec = Spec::from_seed(11, M_FULL_LOAD | M_P2P);
        assert!(spec.is_fault_free(), "bare M_P2P stays fault-free");
        let report = differential(&spec);
        assert!(report.ok, "differential failed: {}", report.detail);
        assert_eq!(report.sim.move_spans, canonical, "sim phase order");
        assert_eq!(report.rt.move_spans, canonical, "rt phase order");
    }
}
