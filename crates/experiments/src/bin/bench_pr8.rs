//! Performance evidence for the pipelined, group-committed federation:
//! does dropping call-by-call lockstep actually buy the promised
//! throughput?
//!
//! Spawns the sibling `federation` binary (orchestrator + daemon +
//! workers over UDS) for every cell of mode ∈ {sequenced, pipelined,
//! nonseq} × fsync ∈ {everyop, batched:32} × n ∈ {64, 256, 1000} and
//! records events/s from its `--json-out`. The headline ratio is
//! non-sequenced + group commit at n = 1000 against the sequenced +
//! everyop cell — the configuration the first networked federation
//! shipped as its baseline (~190 events/s on this class of host).
//!
//! The committed `BENCH_PR8.json` also carries `warm_admission` rows,
//! measured with the batched warm-start admission path this binary no
//! longer has.
//!
//! Writes `BENCH_PR8.json` (or the path given as the first argument).
//! `--check` runs a reduced matrix with the federation harness's own
//! `--check` verifiers enabled (bit-for-bit replay for sequenced and
//! pipelined, the order-insensitive battery for nonseq), asserts
//! pipelined ≥ sequenced events/s on multi-core hosts (skipped with a notice on one core),
//! and writes nothing — CI's bench-smoke job runs that mode.
//!
//! Run from the repository root:
//!
//! ```text
//! cargo run --release -p agreements-experiments --bin bench_pr8
//! ```

use std::path::{Path, PathBuf};
use std::process::Command;

/// Principal counts swept through the federation matrix.
const FED_SIZES: [usize; 3] = [64, 256, 1000];

#[derive(Debug, Clone)]
struct Cell {
    mode: &'static str,
    fsync: &'static str,
    n: usize,
    requests: usize,
    events: u64,
    seconds: f64,
    per_sec: f64,
}

/// Minimal field extractor for the federation harness's flat JSON —
/// every value is a bare number, string, or bool on its own line.
fn json_field(doc: &str, key: &str) -> String {
    let pat = format!("\"{key}\":");
    let at = doc.find(&pat).unwrap_or_else(|| panic!("field {key} missing in {doc}"));
    let rest = &doc[at + pat.len()..];
    let end = rest.find([',', '\n', '}']).unwrap_or(rest.len());
    rest[..end].trim().trim_matches('"').to_string()
}

fn json_f64(doc: &str, key: &str) -> f64 {
    json_field(doc, key).parse().unwrap_or_else(|e| panic!("field {key} not a number: {e}"))
}

/// The federation harness lives next to this binary in the target dir.
fn federation_bin() -> PathBuf {
    let me = std::env::current_exe().expect("current_exe");
    let bin = me.parent().expect("target dir").join("federation");
    assert!(
        bin.exists(),
        "federation binary not built next to bench_pr8 ({}): build the \
         agreements-experiments binaries first",
        bin.display()
    );
    bin
}

/// Run one federation cell end to end (daemon + workers + orchestrator
/// checks when `check`) and parse its throughput from `--json-out`.
#[allow(clippy::too_many_arguments)]
fn run_cell(
    fed: &Path,
    scratch: &Path,
    idx: usize,
    mode: &'static str,
    fsync: &'static str,
    n: usize,
    requests: usize,
    workers: usize,
    check: bool,
) -> Cell {
    let json_out = scratch.join(format!("cell-{idx}.json"));
    let dir = scratch.join(format!("fed-{idx}"));
    let mut cmd = Command::new(fed);
    cmd.arg("--mode").arg(mode);
    cmd.arg("--fsync").arg(fsync);
    cmd.arg("--n").arg(n.to_string());
    cmd.arg("--requests").arg(requests.to_string());
    cmd.arg("--workers").arg(workers.to_string());
    cmd.arg("--dir").arg(&dir);
    cmd.arg("--json-out").arg(&json_out);
    if check {
        cmd.arg("--check");
    }
    eprintln!("--- federation cell: mode={mode} fsync={fsync} n={n} requests={requests}");
    let status = cmd.status().expect("spawn federation");
    assert!(status.success(), "federation cell failed: mode={mode} fsync={fsync} n={n}");
    let doc = std::fs::read_to_string(&json_out).expect("cell json");
    Cell {
        mode,
        fsync,
        n,
        requests,
        events: json_f64(&doc, "events") as u64,
        seconds: json_f64(&doc, "elapsed_s"),
        per_sec: json_f64(&doc, "events_per_sec"),
    }
}

fn find<'a>(cells: &'a [Cell], mode: &str, fsync: &str, n: usize) -> &'a Cell {
    cells
        .iter()
        .find(|c| c.mode == mode && c.fsync == fsync && c.n == n)
        .unwrap_or_else(|| panic!("missing cell {mode}/{fsync}/n={n}"))
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let check = args.iter().any(|a| a == "--check");
    let out_path = args
        .iter()
        .find(|a| !a.starts_with("--"))
        .cloned()
        .unwrap_or_else(|| "BENCH_PR8.json".to_string());

    let cores = std::thread::available_parallelism().map(|c| c.get()).unwrap_or(1);
    eprintln!("host parallelism: {cores}");

    let fed = federation_bin();
    let scratch = std::env::temp_dir().join(format!("agreements-bench-pr8-{}", std::process::id()));
    std::fs::create_dir_all(&scratch).expect("scratch dir");

    let mut cells: Vec<Cell> = Vec::new();
    let mut idx = 0;
    if check {
        // Reduced matrix with the harness's own verifiers on: bit-for-bit
        // replay for the ordered modes, the order-insensitive battery for
        // nonseq. The gates here are correctness plus the pipelined-vs-
        // sequenced direction; the committed baseline carries the ratios.
        for (mode, fsync) in [
            ("sequenced", "batched:32"),
            ("pipelined", "batched:32"),
            ("nonseq", "batched:32"),
            ("sequenced", "everyop"),
        ] {
            cells.push(run_cell(&fed, &scratch, idx, mode, fsync, 64, 256, 4, true));
            idx += 1;
        }
        let seq = find(&cells, "sequenced", "batched:32", 64);
        let pipe = find(&cells, "pipelined", "batched:32", 64);
        if cores >= 2 {
            assert!(
                pipe.per_sec >= seq.per_sec,
                "pipelined federation slower than sequenced at n=64: {:.0}/s vs {:.0}/s",
                pipe.per_sec,
                seq.per_sec
            );
        } else {
            eprintln!(
                "check: single-core host, pipelining can't overlap the daemon with the \
                 workers; pipelined >= sequenced gate skipped"
            );
        }
        let _ = std::fs::remove_dir_all(&scratch);
        eprintln!("check mode: all invariants hold; no baseline written");
        return;
    }

    // Full matrix. The n=1000 cells use PR 7's shipped request volume
    // (2048) so the sequenced+everyop row *is* the PR 7 baseline the
    // headline divides by — a smaller volume would pad the stream with
    // cheap report events and flatter the baseline. The LP-bound
    // sequenced cells dominate the wall clock (~30 s each).
    for n in FED_SIZES {
        let requests = match n {
            1000 => 2048,
            _ => 1024,
        };
        for mode in ["sequenced", "pipelined", "nonseq"] {
            for fsync in ["everyop", "batched:32"] {
                cells.push(run_cell(&fed, &scratch, idx, mode, fsync, n, requests, 8, false));
                idx += 1;
            }
        }
    }
    let _ = std::fs::remove_dir_all(&scratch);

    for c in &cells {
        eprintln!(
            "federation n={:>4} {:>9}/{:<10} {:>6} events in {:>7.2}s = {:>8.0} events/s",
            c.n, c.mode, c.fsync, c.events, c.seconds, c.per_sec
        );
    }

    // Headline: the non-sequenced group-committed configuration against
    // PR 7's shipped configuration (sequenced, fsync-per-op), n=1000.
    let baseline = find(&cells, "sequenced", "everyop", 1000);
    let headline = find(&cells, "nonseq", "batched:32", 1000);
    let speedup = headline.per_sec / baseline.per_sec;
    eprintln!(
        "headline n=1000: nonseq+batched {:.0}/s vs sequenced+everyop {:.0}/s = {speedup:.1}x",
        headline.per_sec, baseline.per_sec
    );
    assert!(
        speedup >= 25.0,
        "acceptance: nonseq+batched must be >= 25x the PR 7 sequenced baseline at n=1000, \
         measured {speedup:.1}x"
    );

    let fed_json: Vec<String> = cells
        .iter()
        .map(|c| {
            format!(
                "    {{ \"mode\": \"{}\", \"fsync\": \"{}\", \"n\": {}, \"requests\": {}, \
                 \"events\": {}, \"seconds\": {:.4}, \"events_per_sec\": {:.1} }}",
                c.mode, c.fsync, c.n, c.requests, c.events, c.seconds, c.per_sec
            )
        })
        .collect();
    let ratio_json: Vec<String> = FED_SIZES
        .iter()
        .map(|&n| {
            let seq = find(&cells, "sequenced", "batched:32", n);
            let pipe = find(&cells, "pipelined", "batched:32", n);
            let non = find(&cells, "nonseq", "batched:32", n);
            let every = find(&cells, "sequenced", "everyop", n);
            format!(
                "    {{ \"n\": {n}, \"pipelined_vs_sequenced\": {:.3}, \
                 \"nonseq_vs_sequenced\": {:.3}, \"group_commit_vs_everyop\": {:.3} }}",
                pipe.per_sec / seq.per_sec,
                non.per_sec / seq.per_sec,
                seq.per_sec / every.per_sec
            )
        })
        .collect();
    let json = format!(
        "{{\n  \"bench\": \"pr8_pipelined_federation\",\n  \
         \"economy\": \"isp_blocks_of_8_ring_span_2\",\n  \
         \"host_parallelism\": {cores},\n  \
         \"federation_throughput\": [\n{}\n  ],\n  \
         \"mode_ratios_batched32\": [\n{}\n  ],\n  \
         \"headline_n1000\": {{ \"sequenced_everyop_events_per_sec\": {:.1}, \
         \"nonseq_batched32_events_per_sec\": {:.1}, \"speedup\": {:.1} }}\n}}\n",
        fed_json.join(",\n"),
        ratio_json.join(",\n"),
        baseline.per_sec,
        headline.per_sec,
        speedup,
    );
    std::fs::write(&out_path, json)
        .unwrap_or_else(|e| panic!("writing baseline to {out_path}: {e}"));
    eprintln!("wrote {out_path}");
}
