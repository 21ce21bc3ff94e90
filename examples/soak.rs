//! Differential fault soak: iterate random `(seed, mask)` specs through
//! both runtimes (simulator + threaded) and stop at the first oracle or
//! conformance violation, shrinking it to a minimal failing mask and
//! printing a one-command reproduction.
//!
//! ```text
//! cargo run --release --example soak                      # 100 seeds, default mask
//! cargo run --release --example soak -- --seeds 500       # longer pass
//! cargo run --release --example soak -- --start 1000      # different seed range
//! cargo run --release --example soak -- --seed 7          # one specific case
//! cargo run --release --example soak -- --seed 7 --mask 0x21   # exact repro
//! ```
//!
//! Exit status: 0 when every case passed, 1 on the first failure (after
//! printing `REPRO: cargo run --release --example soak -- --seed S --mask M`).

use conformance::{
    differential, shrink_mask, spec_excuses, DiffReport, Spec, M_CTRL_CRASH, M_DEFAULT, M_NO_MOVE,
    M_P2P, M_SCHED,
};
use opennf_prof::{check, profile, render, Trace};

struct Args {
    seeds: u64,
    start: u64,
    single: Option<u64>,
    mask: u32,
}

fn parse_args() -> Args {
    let mut args = Args { seeds: 100, start: 1, single: None, mask: M_DEFAULT };
    let mut it = std::env::args().skip(1);
    while let Some(a) = it.next() {
        let mut val = |name: &str| {
            it.next().unwrap_or_else(|| panic!("{name} needs a value"))
        };
        match a.as_str() {
            "--seeds" => args.seeds = val("--seeds").parse().expect("--seeds: u64"),
            "--start" => args.start = val("--start").parse().expect("--start: u64"),
            "--seed" => args.single = Some(val("--seed").parse().expect("--seed: u64")),
            "--mask" => {
                let v = val("--mask");
                args.mask = if let Some(hex) = v.strip_prefix("0x") {
                    u32::from_str_radix(hex, 16).expect("--mask: hex u32")
                } else {
                    v.parse().expect("--mask: u32")
                };
            }
            "--help" | "-h" => {
                println!(
                    "usage: soak [--seeds N] [--start S0] [--seed S] [--mask M]\n\
                     default: seeds 1..=100, mask 0x{M_DEFAULT:x} (all faults + full load)"
                );
                std::process::exit(0);
            }
            other => panic!("unknown argument: {other}"),
        }
    }
    args
}

/// Runs one spec; on a pass, whether each side's move committed
/// (`(sim, rt)`).
fn run_case(seed: u64, mask: u32) -> Result<(bool, bool), Box<DiffReport>> {
    let spec = Spec::from_seed(seed, mask);
    let r = differential(&spec);
    if r.ok {
        Ok((r.sim.move_completed, r.rt.move_completed))
    } else {
        Err(Box::new(r))
    }
}

/// Writes the failing run's flight recorders next to the repro line:
/// JSONL dumps for both runtimes, a Chrome/Perfetto trace of the
/// threaded side, and the simulator controller's op journal (the phase
/// ledger a recovered run replayed). CI uploads these as artifacts when
/// the soak fails.
fn dump_flight(report: &DiffReport) {
    for (path, content) in [
        ("soak-flight.jsonl", &report.rt.flight_jsonl),
        ("soak-flight-sim.jsonl", &report.sim.flight_jsonl),
        ("soak-trace.json", &report.rt.flight_chrome),
        ("soak-journal.json", &report.sim.journal_json),
    ] {
        match std::fs::write(path, content) {
            Ok(()) => println!("flight recorder: wrote {path}"),
            Err(e) => println!("flight recorder: could not write {path}: {e}"),
        }
    }
    // Sharded (multi-switch) specs capture one journal per shard,
    // newline-joined; split them out so a cross-shard handoff failure
    // shows each controller's phase ledger side by side.
    let journals: Vec<&str> =
        report.sim.journal_json.lines().filter(|l| !l.is_empty()).collect();
    if journals.len() > 1 {
        for (k, j) in journals.iter().enumerate() {
            let path = format!("soak-journal-shard{k}.json");
            match std::fs::write(&path, j) {
                Ok(()) => println!("flight recorder: wrote {path}"),
                Err(e) => println!("flight recorder: could not write {path}: {e}"),
            }
        }
    }
}

/// Runs the causal trace analyzer over the failing run's flight
/// recorders and writes `soak-profile.txt`: the critical-path profile
/// and the happens-before verdict for both runtimes, with the spec's
/// own fault plan as the excuse ledger. CI uploads it alongside the
/// flight dumps.
fn dump_profile(spec: &Spec, report: &DiffReport) {
    let excuses = spec_excuses(spec);
    let mut out = String::new();
    for (side, flight, journal) in [
        ("rt", &report.rt.flight_jsonl, &report.rt.journal_json),
        ("sim", &report.sim.flight_jsonl, &report.sim.journal_json),
    ] {
        out.push_str(&format!("==== {side} ====\n"));
        match Trace::from_jsonl(flight) {
            Ok(trace) => {
                out.push_str(&render(&profile(&trace)));
                out.push_str(&check(&trace, Some(journal), &excuses).detail());
                out.push('\n');
            }
            Err(e) => out.push_str(&format!("(unparseable flight dump: {e})\n")),
        }
    }
    match std::fs::write("soak-profile.txt", &out) {
        Ok(()) => println!("flight recorder: wrote soak-profile.txt"),
        Err(e) => println!("flight recorder: could not write soak-profile.txt: {e}"),
    }
}

fn main() {
    let args = parse_args();
    // `M_NO_MOVE` issues no op, so a lane that also sets a bit that only
    // acts on an op would soak plain traffic while claiming more.
    let needs_a_move = args.mask & (M_CTRL_CRASH | M_P2P | M_SCHED);
    if args.mask & M_NO_MOVE != 0 && needs_a_move != 0 {
        eprintln!(
            "mask 0x{:x}: bit 9 (M_NO_MOVE) issues no op, so 0x{needs_a_move:x} \
             (M_CTRL_CRASH / M_P2P / M_SCHED) has nothing to act on; clear one or the other",
            args.mask
        );
        std::process::exit(2);
    }
    let seeds: Vec<u64> = match args.single {
        Some(s) => vec![s],
        None => (args.start..args.start + args.seeds).collect(),
    };
    let total = seeds.len();
    let (mut passed, mut sim_committed, mut rt_committed) = (0usize, 0usize, 0usize);
    for (i, seed) in seeds.into_iter().enumerate() {
        match run_case(seed, args.mask) {
            Ok((sim, rt)) => {
                passed += 1;
                sim_committed += usize::from(sim);
                rt_committed += usize::from(rt);
                if (i + 1) % 10 == 0 || i + 1 == total {
                    println!("[{}/{}] ok through seed {}", i + 1, total, seed);
                }
            }
            Err(report) => {
                println!("FAIL seed={} mask=0x{:x}: {}", seed, args.mask, report.detail);
                // Always summarize the *original* failing run's injected
                // faults — shrinking re-derives narrower specs, so this is
                // the only place the ledger that actually failed is
                // reported (previously it was skipped whenever shrinking
                // succeeded immediately).
                println!("rt fault ledger:  {}", report.rt.fault_canonical);
                println!("sim fault record: {}", report.sim.fault_canonical);
                dump_flight(&report);
                dump_profile(&Spec::from_seed(seed, args.mask), &report);
                // Shrink: greedily clear mask bits while the failure holds,
                // then try the reduced-load variant of the survivor.
                println!("shrinking...");
                let minimal = shrink_mask(args.mask, |m| run_case(seed, m).is_err());
                let spec = Spec::from_seed(seed, minimal);
                println!(
                    "minimal failing mask: 0x{:x} ({} link rules, {} crashes, {} stalls)",
                    minimal,
                    spec.plan.links.len(),
                    spec.plan.crashes.len(),
                    spec.plan.stalls.len()
                );
                println!("REPRO: {}", spec.repro());
                std::process::exit(1);
            }
        }
    }
    // A lane where one runtime aborts what the other commits shows here.
    println!(
        "soak clean: {passed}/{total} specs passed (mask 0x{:x}); moves committed: \
         sim {sim_committed}/{total}, rt {rt_committed}/{total}",
        args.mask
    );
}
