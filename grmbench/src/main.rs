//! One benchmark for the GRM daemon and the paper's proxy day.
//!
//! ```text
//! grmbench --workload fed-hier|fed-lp|fed-multires|paper-day
//!          --seed N --seconds S --trace 0|1
//! ```
//!
//! Every workload is generated here from `--seed`; the program under test
//! only sees the generated events. The three `fed-*` workloads serve the
//! GRM behind a real Unix-domain socket and an on-disk `DurableJournal`
//! inside this process and load it from two client threads over two
//! connections, closed loop. `paper-day` runs the §4 ten-ISP day with
//! fluctuating agreements through `Simulator`, single-threaded.
//!
//! With `--trace 0` the last stdout line carries the end-to-end metrics;
//! with `--trace 1` it carries the per-layer metrics, taken from spans the
//! benchmark records around calls into each crate (see `spans.rs`). The
//! line before it is a report with the host record and sample counts.
//! Every run checks the program's outputs; a failed check prints
//! `"correct": false` and exits with status 1.

mod day;
mod fed;
mod host;
mod spans;
mod stats;

use std::fmt::Write as _;
use std::path::PathBuf;
use std::time::Duration;

/// Seed of the reference runs whose outputs are pinned (the figure seed).
pub const DEFAULT_SEED: u64 = 20000;
/// A second pinned seed, never used while the workloads were sized.
pub const HELD_OUT_SEED: u64 = 777;

/// Where a run keeps its journal, socket and span files, relative to the
/// working directory (a relative socket path stays under `sun_path`).
pub const WORK_DIR: &str = ".grmbench";

/// How many times a run builds its set-up; `setup_s` is their median.
pub const SETUPS: usize = 5;

#[derive(Debug, Clone)]
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: Duration,
    pub trace: bool,
}

/// One named metric value with its unit.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

pub fn metric(name: &'static str, value: f64, unit: &'static str) -> Metric {
    Metric { name, value, unit }
}

/// Every per-layer metric a traced run prints, in print order, with its
/// unit. A metric a workload has no layer for reads 0 (see README.md for
/// which workload each one is measured on).
pub const PER_LAYER: &[(&str, &str)] = &[
    ("wire.req_encode_ns", "ns"),
    ("wire.req_decode_ns", "ns"),
    ("wire.resp_encode_ns", "ns"),
    ("wire.resp_decode_ns", "ns"),
    ("wire.bytes_per_decision", "B"),
    ("listener.group_fsyncs", "count"),
    ("listener.records_per_fsync", "count"),
    ("listener.undecodable_frames", "count"),
    ("journal.append_us", "us"),
    ("journal.fsync_us_p50", "us"),
    ("journal.fsync_us_p99", "us"),
    ("journal.compactions", "count"),
    ("journal.compact_ms", "ms"),
    ("journal.bytes_per_decision", "B"),
    ("client.errors", "count"),
    ("rpc.p999_us", "us"),
    ("rpc.unattributed_us", "us"),
    ("grm.decide_us_p50", "us"),
    ("grm.decide_us_p99", "us"),
    ("grm.queue_wait_us", "us"),
    ("grm.drain_us", "us"),
    ("grm.batch_size", "count"),
    ("grm.duplicates", "count"),
    ("grm.grant_frac", "ratio"),
    ("sched.allocate_us_p50", "us"),
    ("sched.allocate_us_p99", "us"),
    ("sched.home_hit_frac", "ratio"),
    ("sched.coarse_solves", "count"),
    ("sched.fine_solves", "count"),
    ("sched.executor_fallbacks", "count"),
    ("lp.solves", "count"),
    ("lp.warm_frac", "ratio"),
    ("lp.skeleton_rebuilds", "count"),
    ("lp.solve_us", "us"),
    ("flow.repair_ms", "ms"),
    ("flow.rows_recomputed", "count"),
    ("flow.build_ms", "ms"),
    ("flow.partition_ms", "ms"),
    ("sim.consultations", "count"),
    ("sim.consult_us", "us"),
    ("sim.loop_s", "s"),
    ("trace.generate_ms", "ms"),
    ("trace.overhead_frac", "ratio"),
    ("disk.fsync_us", "us"),
];

/// A per-layer value; its unit comes from [`PER_LAYER`].
pub fn layer(name: &'static str, value: f64) -> Metric {
    let unit = PER_LAYER
        .iter()
        .find(|(n, _)| *n == name)
        .unwrap_or_else(|| panic!("{name} is not a listed per-layer metric"))
        .1;
    Metric { name, value, unit }
}

/// What a workload run hands back to `main`.
pub struct Outcome {
    /// Operations attempted (decisions, or simulated requests).
    pub attempted: u64,
    /// Operations that failed (not capacity denials).
    pub failed: u64,
    /// Output-check violations; empty means every check passed.
    pub violations: Vec<String>,
    pub metrics: Vec<Metric>,
    /// Extra report fields (sample counts, notes), as JSON members.
    pub report: Vec<(String, String)>,
}

fn parse_args() -> Result<Args, String> {
    let mut args = std::env::args().skip(1);
    let mut workload = None;
    let mut seed = DEFAULT_SEED;
    let mut seconds = 10u64;
    let mut trace = false;
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = value.parse().map_err(|_| format!("bad --seed {value}"))?,
            "--seconds" => {
                seconds = value.parse().map_err(|_| format!("bad --seconds {value}"))?;
                if seconds == 0 {
                    return Err("--seconds must be at least 1".into());
                }
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("bad --trace {value} (0 | 1)")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    Ok(Args { workload, seed, seconds: Duration::from_secs(seconds), trace })
}

fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".into()
    }
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("grmbench: {e}");
            std::process::exit(2);
        }
    };
    host::flush_dirty_pages();
    let run_dir = PathBuf::from(WORK_DIR).join(format!("run-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&run_dir);
    std::fs::create_dir_all(&run_dir).expect("create the run directory");

    let outcome = match args.workload.as_str() {
        "fed-hier" => fed::run(fed::Kind::Hier, &args, &run_dir),
        "fed-lp" => fed::run(fed::Kind::Lp, &args, &run_dir),
        "fed-multires" => fed::run(fed::Kind::Multi, &args, &run_dir),
        "paper-day" => day::run(&args),
        other => {
            eprintln!("grmbench: unknown workload {other}");
            let _ = std::fs::remove_dir_all(&run_dir);
            std::process::exit(2);
        }
    };

    // The host record: measured after the timed phase so the probe never
    // lands inside it.
    let host = host::record(&run_dir);
    let _ = std::fs::remove_dir_all(&run_dir);

    let metrics = if args.trace {
        let mut measured = outcome.metrics;
        measured.push(layer("disk.fsync_us", host.fsync_p50_us));
        PER_LAYER
            .iter()
            .map(|&(name, unit)| Metric {
                name,
                unit,
                value: measured.iter().find(|m| m.name == name).map_or(0.0, |m| m.value),
            })
            .collect()
    } else {
        let mut m = outcome.metrics;
        m.push(metric("peak_rss_mb", host::peak_rss_mb(), "MB"));
        m
    };

    let mut report = String::new();
    write!(
        report,
        "{{\"report\": {{\"workload\": \"{}\", \"seed\": {}, \"seconds\": {}, \"trace\": {}, \
         \"host\": {{\"host_parallelism\": {}, \"journal_fs\": \"{}\", \"disk.fsync_us_p50\": {}, \
         \"disk.fsync_us_p99\": {}, \"fsync_probes\": {}}}",
        args.workload,
        args.seed,
        args.seconds.as_secs(),
        args.trace,
        host.parallelism,
        host.fs_type,
        json_num(host.fsync_p50_us),
        json_num(host.fsync_p99_us),
        host.probes,
    )
    .expect("write to string");
    for (k, v) in &outcome.report {
        write!(report, ", \"{k}\": {v}").expect("write to string");
    }
    if !outcome.violations.is_empty() {
        let list: Vec<String> =
            outcome.violations.iter().map(|v| format!("\"{}\"", v.replace('"', "'"))).collect();
        write!(report, ", \"violations\": [{}]", list.join(", ")).expect("write to string");
    }
    report.push_str("}}");
    println!("{report}");

    let correct = outcome.violations.is_empty();
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name,
                json_num(m.value),
                m.unit
            )
        })
        .collect();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        outcome.attempted.max(1),
        outcome.failed,
        body.join(", ")
    );
    if !correct {
        for v in &outcome.violations {
            eprintln!("CHECK FAILED: {v}");
        }
        std::process::exit(1);
    }
}
