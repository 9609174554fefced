//! Loss-window curves for the group-committed TCP federation: when the
//! journal batches fsyncs, how many settled-but-unsynced records are at
//! risk at the moment a crash lands, and what does that window cost or
//! buy in throughput?
//!
//! Each fsync the syncer issues retires the journal's unsynced tail;
//! the daemon's `group_commit_records` histogram observes that tail's
//! size per fsync, so its mean/max *are* the loss window — the records
//! a kill -9 between fsyncs would force back through dedup replay. The
//! listener's syncer is self-clocked (it fsyncs as soon as anything is
//! unsynced, so a group is whatever lands during one fsync, and the
//! `batched` policy has no knob to sweep); this bench runs it under two
//! link latencies:
//!
//!   latency ∈ {0, 1000} µs  (deterministic injected jitter)
//!
//! over the pipelined TCP federation (n=64, 4 workers, 1024 requests).
//! Every cell routes worker traffic through the bidirectional fault
//! proxy (that is what `--transport tcp` does), so the latency cells
//! measure the group-commit plane under a link that actually stalls
//! frame delivery rather than an idealized loopback.
//!
//! Writes `BENCH_PR9.json` (or the path given as the first argument).
//! `--check` runs a reduced matrix with the federation's bit-for-bit
//! replay verifier on, plus one fully chaotic cell (seeded drop + dup +
//! hold + delay on both directions, checker-gated), and writes nothing
//! — CI's bench-smoke job runs that mode.
//!
//! Run from the repository root:
//!
//! ```text
//! cargo run --release -p agreements-experiments --bin bench_pr9
//! ```

use std::path::{Path, PathBuf};
use std::process::Command;

/// Injected per-frame latency caps swept, in microseconds.
const LATENCY_US: [u64; 2] = [0, 1000];

const N: usize = 64;
const WORKERS: usize = 4;
const REQUESTS: usize = 1024;

#[derive(Debug, Clone)]
struct Cell {
    latency_us: u64,
    events: u64,
    per_sec: f64,
    group_fsyncs: u64,
    records_mean: f64,
    records_max: f64,
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
        "federation binary not built next to bench_pr9 ({}): build the \
         agreements-experiments binaries first",
        bin.display()
    );
    bin
}

/// Run one pipelined-TCP federation cell and parse its throughput and
/// group-commit telemetry from `--json-out`.
fn run_cell(
    fed: &Path,
    scratch: &Path,
    idx: usize,
    latency_us: u64,
    chaos: Option<u64>,
    requests: usize,
    check: bool,
) -> Cell {
    let json_out = scratch.join(format!("cell-{idx}.json"));
    let dir = scratch.join(format!("fed-{idx}"));
    let mut cmd = Command::new(fed);
    cmd.arg("--mode").arg("pipelined");
    cmd.arg("--transport").arg("tcp");
    cmd.arg("--fsync").arg("batched");
    cmd.arg("--n").arg(N.to_string());
    cmd.arg("--workers").arg(WORKERS.to_string());
    cmd.arg("--requests").arg(requests.to_string());
    cmd.arg("--dir").arg(&dir);
    cmd.arg("--json-out").arg(&json_out);
    if latency_us > 0 {
        cmd.arg("--latency").arg(latency_us.to_string());
    }
    if let Some(seed) = chaos {
        cmd.arg("--chaos").arg(seed.to_string());
    }
    if check {
        cmd.arg("--check");
    }
    eprintln!(
        "--- loss-window cell: latency={latency_us}us{}",
        chaos.map(|s| format!(" chaos={s}")).unwrap_or_default()
    );
    let status = cmd.status().expect("spawn federation");
    assert!(status.success(), "federation cell failed: latency={latency_us}us");
    let doc = std::fs::read_to_string(&json_out).expect("cell json");
    Cell {
        latency_us,
        events: json_f64(&doc, "events") as u64,
        per_sec: json_f64(&doc, "events_per_sec"),
        group_fsyncs: json_f64(&doc, "group_fsyncs") as u64,
        records_mean: json_f64(&doc, "group_records_mean"),
        records_max: json_f64(&doc, "group_records_max"),
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let check = args.iter().any(|a| a == "--check");
    let out_path = args
        .iter()
        .find(|a| !a.starts_with("--"))
        .cloned()
        .unwrap_or_else(|| "BENCH_PR9.json".to_string());

    let cores = std::thread::available_parallelism().map(|c| c.get()).unwrap_or(1);
    eprintln!("host parallelism: {cores}");

    let fed = federation_bin();
    let scratch = std::env::temp_dir().join(format!("agreements-bench-pr9-{}", std::process::id()));
    std::fs::create_dir_all(&scratch).expect("scratch dir");

    if check {
        // Reduced volume, bit-for-bit verifier on: both latencies, then
        // one fully chaotic cell. Gates are correctness; the committed
        // baseline carries the curves.
        let mut idx = 0;
        for lat in LATENCY_US {
            let c = run_cell(&fed, &scratch, idx, lat, None, 256, true);
            assert!(c.group_fsyncs >= 1, "no group commits recorded in check cell {idx}");
            idx += 1;
        }
        let chaotic = run_cell(&fed, &scratch, idx, 0, Some(9), 256, true);
        assert!(chaotic.group_fsyncs >= 1, "no group commits under chaos");
        let _ = std::fs::remove_dir_all(&scratch);
        eprintln!("check mode: all cells checker-clean; no baseline written");
        return;
    }

    let cells: Vec<Cell> = LATENCY_US
        .iter()
        .enumerate()
        .map(|(idx, &lat)| run_cell(&fed, &scratch, idx, lat, None, REQUESTS, false))
        .collect();
    let _ = std::fs::remove_dir_all(&scratch);

    for c in &cells {
        eprintln!(
            "loss window latency={:>4}us: {:>7.0} events/s, \
             {:>4} fsyncs, {:>6.1} mean / {:>4.0} max records at risk",
            c.latency_us, c.per_sec, c.group_fsyncs, c.records_mean, c.records_max
        );
    }

    // Shape gates. The curves themselves are the deliverable; these only
    // pin the directions that must hold for the loss-window story to be
    // coherent on any host.
    for c in &cells {
        assert!(c.group_fsyncs >= 1, "cell recorded no group commits: {c:?}");
        // Every fsync retires at least the record that woke the syncer.
        assert!(c.records_mean >= 1.0, "fsync retired fewer than one record on average: {c:?}");
        assert!(c.records_max >= c.records_mean, "largest group below the mean: {c:?}");
    }

    let rows: Vec<String> = cells
        .iter()
        .map(|c| {
            format!(
                "    {{ \"fsync\": \"batched\", \"latency_us\": {}, \
                 \"events\": {}, \"events_per_sec\": {:.1}, \"group_fsyncs\": {}, \
                 \"records_per_fsync_mean\": {:.3}, \"records_per_fsync_max\": {:.1} }}",
                c.latency_us, c.events, c.per_sec, c.group_fsyncs, c.records_mean, c.records_max
            )
        })
        .collect();

    let json = format!(
        "{{\n  \"bench\": \"pr9_loss_window_curves\",\n  \
         \"economy\": \"isp_blocks_of_8_ring_span_2\",\n  \
         \"transport\": \"tcp\",\n  \"mode\": \"pipelined\",\n  \
         \"n\": {N},\n  \"workers\": {WORKERS},\n  \"requests\": {REQUESTS},\n  \
         \"host_parallelism\": {cores},\n  \
         \"loss_window_curves\": [\n{}\n  ]\n}}\n",
        rows.join(",\n"),
    );
    std::fs::write(&out_path, json)
        .unwrap_or_else(|e| panic!("writing baseline to {out_path}: {e}"));
    eprintln!("wrote {out_path}");
}
