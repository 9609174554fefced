//! Performance evidence for the scale-out sharded enforcement plane:
//! hierarchical (auto-partitioned multigrid) vs flat LP allocation at
//! n ∈ {128, 512, 1000} principals.
//!
//! The economy is the grown ISP case study ([`ScaleConfig::isp`]): full
//! sharing inside regional groups of 8, 25% mutual backup between ring
//! neighbours. The request mix cycles every principal as requester with
//! amounts that mostly stay inside the home group but periodically
//! overflow into the coarse + fine path, so both multigrid tiers are
//! exercised.
//!
//! Writes `BENCH_PR5.json` (or the path given as the first argument).
//! `--check` runs reduced volumes, asserts the correctness invariant
//! (hierarchical admit/deny verdicts match the flat level-1 LP oracle on
//! a uniform-block economy), and writes nothing — CI's bench-smoke job
//! runs that mode.
//!
//! The committed `BENCH_PR5.json` also carries `hier_parallel` rows,
//! measured with the parallel fine-solve mode this binary no longer has.
//!
//! `--telemetry-out PATH` runs one extra *untimed* instrumented pass at
//! n = 512 and writes its snapshot (hier.* counters + LP solve-span
//! histogram) to PATH. The timed passes always run with the disabled
//! sink. A summary of the same histogram is embedded in the JSON either
//! way.
//!
//! Run from the repository root:
//!
//! ```text
//! cargo run --release -p agreements-experiments --bin bench_pr5
//! ```

use agreements_flow::{PartitionOptions, TransitiveFlow};
use agreements_sched::hierarchy::HierarchicalScheduler;
use agreements_sched::{AllocationSolver, SchedError, SystemState};
use agreements_telemetry::{HistKind, Telemetry, DEFAULT_EVENT_CAPACITY};
use agreements_trace::ScaleConfig;
use std::sync::Arc;
use std::time::Instant;

/// Principal counts swept.
const SIZES: [usize; 3] = [128, 512, 1000];

/// Request amounts cycled across solves. Per-principal pools are 6 and
/// groups hold 8 members (pool 48), so 2–6 stay in the home group while
/// 80 overflows it and forces the coarse + fine path (reach is
/// 48 + 4 neighbour groups × 25% × 48 = 96).
const AMOUNTS: [f64; 4] = [2.0, 4.0, 6.0, 80.0];

struct AllocRow {
    n: usize,
    mode: &'static str,
    solves: usize,
    seconds: f64,
    allocations_per_sec: f64,
    mean_latency_us: f64,
}

fn row(n: usize, mode: &'static str, solves: usize, seconds: f64) -> AllocRow {
    AllocRow {
        n,
        mode,
        solves,
        seconds,
        allocations_per_sec: solves as f64 / seconds,
        mean_latency_us: seconds / solves as f64 * 1e6,
    }
}

/// Deterministic request cycle: requester walks a coprime stride so every
/// group appears; amounts cycle [`AMOUNTS`].
fn request_at(k: usize, n: usize) -> (usize, f64) {
    ((k * 13) % n, AMOUNTS[k % AMOUNTS.len()])
}

fn time_hier(sched: &HierarchicalScheduler, avail: &[f64], solves: usize) -> f64 {
    let n = avail.len();
    // Warm-up pass over one amount cycle.
    for k in 0..AMOUNTS.len() {
        let (r, x) = request_at(k, n);
        std::hint::black_box(sched.allocate(avail, r, x).expect("in capacity"));
    }
    let start = Instant::now();
    let mut acc = 0.0;
    for k in 0..solves {
        let (r, x) = request_at(k, n);
        acc += sched.allocate(avail, r, x).expect("in capacity").theta;
    }
    std::hint::black_box(acc);
    start.elapsed().as_secs_f64()
}

fn time_flat(solver: &mut AllocationSolver, state: &SystemState, solves: usize) -> f64 {
    let n = state.n();
    for k in 0..AMOUNTS.len().min(solves) {
        let (r, x) = request_at(k, n);
        std::hint::black_box(solver.allocate(state, r, x).expect("in capacity"));
    }
    let start = Instant::now();
    let mut acc = 0.0;
    for k in 0..solves {
        let (r, x) = request_at(k, n);
        acc += solver.allocate(state, r, x).expect("in capacity").theta;
    }
    std::hint::black_box(acc);
    start.elapsed().as_secs_f64()
}

fn bench_size(n: usize, check: bool) -> Vec<AllocRow> {
    let cfg = ScaleConfig::isp(n, 0, 20_000);
    let s = cfg.agreements().expect("economy");
    let avail = vec![cfg.base_availability; n];

    let seq = HierarchicalScheduler::auto(&s, &PartitionOptions::default(), 1).expect("auto");
    assert_eq!(seq.num_groups(), cfg.num_groups(), "auto partition must recover the regions");

    // The flat oracle pays for the full n-principal LP per request; keep
    // its solve count small at large n (a single n = 1000 solve is ~10⁵×
    // a home-group fine solve).
    let (hier_solves, flat_solves) = if check {
        (64, 4)
    } else {
        match n {
            128 => (20_000, 400),
            512 => (20_000, 40),
            _ => (10_000, 8),
        }
    };

    let seq_secs = time_hier(&seq, &avail, hier_solves);

    let flow = Arc::new(TransitiveFlow::compute(&s, 1));
    let state = SystemState::new(flow, None, avail.clone()).expect("state");
    let mut flat = AllocationSolver::reduced();
    let flat_secs = time_flat(&mut flat, &state, flat_solves);

    vec![
        row(n, "hier_sequential", hier_solves, seq_secs),
        row(n, "flat_lp", flat_solves, flat_secs),
    ]
}

/// Differential oracle spot-check (the proptest suite runs the full
/// randomized version): on a uniform-block economy with intra share 1.0,
/// hierarchical admit/deny verdicts match the flat level-1 LP.
fn check_differential() {
    let cfg = ScaleConfig::isp(32, 0, 7);
    let s = cfg.agreements().expect("economy");
    let sched = HierarchicalScheduler::auto(&s, &PartitionOptions::default(), 1).expect("auto");
    let flow = Arc::new(TransitiveFlow::compute(&s, 1));
    let mut flat = AllocationSolver::reduced();
    let avail = vec![cfg.base_availability; 32];
    let state = SystemState::new(flow, None, avail.clone()).expect("state");
    for k in 0..64 {
        let r = (k * 5) % 32;
        let x = 0.5 + (k as f64) * 2.3;
        let hier_ok = sched.allocate(&avail, r, x).is_ok();
        let flat_ok = match flat.allocate(&state, r, x) {
            Ok(_) => true,
            Err(SchedError::InsufficientCapacity { .. }) => false,
            Err(e) => panic!("flat oracle failed: {e}"),
        };
        assert_eq!(hier_ok, flat_ok, "verdict diverged at requester {r}, x={x:.2}");
    }
    eprintln!("check: hierarchical verdicts match the flat LP oracle (64 spot requests)");
}

/// One untimed pass at n = 512 with a live recorder; returns the solve
/// histogram summary (and the full snapshot for `--telemetry-out`).
fn instrumented_pass() -> agreements_telemetry::Snapshot {
    let (telemetry, recorder) = Telemetry::recorder(DEFAULT_EVENT_CAPACITY);
    let n = 512;
    let cfg = ScaleConfig::isp(n, 0, 20_000);
    let s = cfg.agreements().expect("economy");
    let mut sched = HierarchicalScheduler::auto(&s, &PartitionOptions::default(), 1).expect("auto");
    sched.set_telemetry(telemetry);
    let avail = vec![cfg.base_availability; n];
    for k in 0..512 {
        let (r, x) = request_at(k, n);
        sched.allocate(&avail, r, x).expect("in capacity");
    }
    recorder.snapshot()
}

fn main() {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    let telemetry_out = agreements_experiments::take_telemetry_out(&mut args);
    let check = args.iter().any(|a| a == "--check");
    let out_path = args
        .iter()
        .find(|a| !a.starts_with("--"))
        .cloned()
        .unwrap_or_else(|| "BENCH_PR5.json".to_string());

    check_differential();

    let mut rows: Vec<AllocRow> = Vec::new();
    for n in SIZES {
        rows.extend(bench_size(n, check));
        let base = rows.len() - 2;
        let speedup = rows[base].allocations_per_sec / rows[base + 1].allocations_per_sec;
        for r in &rows[base..] {
            eprintln!(
                "allocate {:<16} n={:<5} {:>6} solves: {:>10.0}/s ({:>9.1} µs/alloc)",
                r.mode, r.n, r.solves, r.allocations_per_sec, r.mean_latency_us
            );
        }
        eprintln!("         hierarchical vs flat at n={n}: {speedup:.1}x");
    }

    let snapshot = instrumented_pass();
    if let Some(path) = &telemetry_out {
        agreements_experiments::write_snapshot(path, &snapshot);
    }
    let solve_hist = snapshot
        .histograms
        .iter()
        .find(|h| h.name == HistKind::LpSolveSeconds.name())
        .expect("solve histogram recorded");

    if check {
        eprintln!("check mode: all invariants hold; no baseline written");
        return;
    }

    let alloc_json: Vec<String> = rows
        .iter()
        .map(|r| {
            format!(
                "    {{ \"n\": {}, \"mode\": \"{}\", \"solves\": {}, \
                 \"seconds\": {:.4}, \"allocations_per_sec\": {:.1}, \
                 \"mean_latency_us\": {:.2} }}",
                r.n, r.mode, r.solves, r.seconds, r.allocations_per_sec, r.mean_latency_us
            )
        })
        .collect();
    let speedups: Vec<String> = SIZES
        .iter()
        .map(|&n| {
            let hier =
                rows.iter().find(|r| r.n == n && r.mode == "hier_sequential").expect("hier row");
            let flat = rows.iter().find(|r| r.n == n && r.mode == "flat_lp").expect("flat row");
            format!(
                "    {{ \"n\": {n}, \"hier_vs_flat\": {:.1} }}",
                hier.allocations_per_sec / flat.allocations_per_sec
            )
        })
        .collect();
    let buckets: Vec<String> = solve_hist
        .buckets
        .iter()
        .enumerate()
        .filter(|(_, &c)| c > 0)
        .map(|(i, &c)| format!("      {{ \"bucket\": {i}, \"count\": {c} }}"))
        .collect();
    let json = format!(
        "{{\n  \"bench\": \"pr5_sharded_enforcement\",\n  \
         \"economy\": \"isp_blocks_of_8_ring_span_2\",\n  \
         \"allocate_throughput\": [\n{}\n  ],\n  \
         \"speedup\": [\n{}\n  ],\n  \
         \"solve_span_histogram\": {{\n    \"name\": \"{}\",\n    \
         \"count\": {},\n    \"mean_seconds\": {:.9},\n    \
         \"min_seconds\": {:.9},\n    \"max_seconds\": {:.9},\n    \
         \"nonzero_buckets\": [\n{}\n    ]\n  }}\n}}\n",
        alloc_json.join(",\n"),
        speedups.join(",\n"),
        solve_hist.name,
        solve_hist.count,
        solve_hist.mean(),
        solve_hist.min,
        solve_hist.max,
        buckets.join(",\n"),
    );
    std::fs::write(&out_path, json)
        .unwrap_or_else(|e| panic!("writing baseline to {out_path}: {e}"));
    eprintln!("wrote {out_path}");
}
