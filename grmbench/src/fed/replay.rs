//! The traced run of a socket workload, in two parts.
//!
//! 1. The socket run again, on a daemon whose telemetry plane is a
//!    recorder, with a client span per request (`client.rpc`).
//! 2. An in-process replay of the same events, in seq order, through the
//!    daemon's steps in the daemon's order: request encode, request
//!    decode, decide (`GrmHandle`), append and sync (`DurableJournal`),
//!    response encode, response decode. A mirror engine on the
//!    benchmark's own pools times the scheduler alone (`sched.allocate`).
//!    Replaying the steps splits a request's latency into stages without
//!    touching program code.

use agreements_flow::{auto_partition, TransitiveFlow};
use agreements_grm::GrmHandle;
use agreements_net::frame::{encode_frame, FrameDecoder};
use agreements_net::journal::{DecisionBody, JournalRecord};
use agreements_net::wire::{RequestFrame, ResponseFrame, WireRequest, WireResponse};
use agreements_sched::{AllocationSolver, SystemState};
use agreements_telemetry::{HistKind, Snapshot as TelemetrySnapshot};

use super::*;
use crate::spans::{Recorder, SpanId, NO_PARENT};
use crate::{layer, Metric};

/// The replay stops after this share of `--seconds`.
const REPLAY_SHARE: f64 = 0.5;
/// Compactions of the traced run's final snapshot timed in the replay.
const COMPACT_SAMPLES: usize = 3;

/// The benchmark's own copy of the decision engine, fed the same events.
enum Mirror {
    Hier(HierarchicalScheduler, Vec<f64>),
    Lp(AllocationSolver, SystemState),
    Multi(MultiAdmission, Vec<Vec<f64>>),
}

impl Mirror {
    fn new(w: &Workload) -> Mirror {
        match w.kind {
            Kind::Hier => {
                let mut sched =
                    HierarchicalScheduler::auto(&w.matrix, &PartitionOptions::default(), LEVEL)
                        .expect("partition scale agreements");
                sched.set_parallel_auto();
                sched.set_warm_runs(true);
                Mirror::Hier(sched, vec![0.0; w.n])
            }
            Kind::Lp => {
                let flow = TransitiveFlow::compute(&w.matrix, LEVEL);
                let state = SystemState::new(flow, None, vec![0.0; w.n]).expect("mirror state");
                Mirror::Lp(AllocationSolver::reduced(), state)
            }
            Kind::Multi => Mirror::Multi(multi_admission(w), vec![vec![0.0; w.n]; 3]),
        }
    }

    fn report(&mut self, p: usize, pools: &[f64]) {
        match self {
            Mirror::Hier(_, avail) => avail[p] = pools[0],
            Mirror::Lp(_, state) => state.availability[p] = pools[0],
            Mirror::Multi(_, lanes) => {
                for (lane, &v) in lanes.iter_mut().zip(pools) {
                    lane[p] = v;
                }
            }
        }
    }

    /// Decide and commit one request on the mirror pools.
    fn allocate(&mut self, lrm: usize, amounts: &[f64]) {
        let commit = |avail: &mut [f64], draws: &[f64]| {
            for (v, d) in avail.iter_mut().zip(draws) {
                *v = (*v - d).max(0.0);
            }
        };
        match self {
            Mirror::Hier(sched, avail) => {
                if let Ok(a) = sched.allocate(avail, lrm, amounts[0]) {
                    commit(avail, &a.draws);
                }
            }
            Mirror::Lp(solver, state) => {
                if let Ok(a) = solver.allocate(state, lrm, amounts[0]) {
                    commit(&mut state.availability, &a.draws);
                }
            }
            Mirror::Multi(adm, lanes) => {
                let _ = adm.admit_one(lanes, lrm, amounts);
            }
        }
    }
}

/// Samples the replay collects.
struct Replayed {
    spans: Recorder,
    decisions: u64,
    frame_bytes: Vec<f64>,
    journal_bytes: u64,
    mirror: Mirror,
    compact_ms: Vec<f64>,
}

/// Wire request for event `seq`.
fn wire_request(w: &Workload, seq: u64) -> WireRequest {
    match w.event(seq) {
        Ev::Report(p) if w.kind == Kind::Multi => {
            WireRequest::ReportMulti { lrm: p as u64, available: w.pools_of(p) }
        }
        Ev::Report(p) => WireRequest::Report { lrm: p as u64, available: w.base[0][p] },
        Ev::Request(i) => {
            let (lrm, ref amounts) = w.demands[i];
            let req_id = Some(request_id(seq));
            if w.kind == Kind::Multi {
                WireRequest::RequestMulti { lrm: lrm as u64, amounts: amounts.clone(), req_id }
            } else {
                WireRequest::Request { lrm: lrm as u64, amount: amounts[0], req_id }
            }
        }
    }
}

fn framed(payload: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(payload.len() + 16);
    encode_frame(payload, &mut out).expect("frame fits");
    out
}

/// Decide one decoded request on the in-process daemon engine, returning
/// the reply and the journal record the listener would append.
fn decide(
    h: &GrmHandle,
    req: &WireRequest,
    seq: Option<u64>,
) -> (WireResponse, Option<JournalRecord>) {
    match req {
        WireRequest::Report { lrm, available } => {
            let res = h.report(*lrm as usize, *available);
            let rec = res.is_ok().then_some(JournalRecord::Report {
                seq,
                lrm: *lrm,
                available: *available,
            });
            (WireResponse::Unit(res), rec)
        }
        WireRequest::ReportMulti { lrm, available } => {
            (WireResponse::Unit(h.report_multi(*lrm as usize, available.clone())), None)
        }
        WireRequest::Request { lrm, amount, req_id } => {
            let id = req_id.expect("benchmark requests carry ids");
            let res = h.request_idempotent(*lrm as usize, *amount, id);
            let rec = JournalRecord::Decision {
                seq,
                id: *req_id,
                body: DecisionBody::Grant(res.clone()),
            };
            (WireResponse::Grant(res), Some(rec))
        }
        WireRequest::RequestMulti { lrm, amounts, req_id } => {
            let id = req_id.expect("benchmark requests carry ids");
            let res = h.request_multi_idempotent(*lrm as usize, amounts, id);
            let rec = JournalRecord::Decision {
                seq,
                id: *req_id,
                body: DecisionBody::GrantMulti(res.clone()),
            };
            (WireResponse::GrantMulti(res), Some(rec))
        }
        other => unreachable!("the benchmark sends no {other:?}"),
    }
}

fn replay(
    w: &Workload,
    spec: &Spec,
    events: u64,
    budget: Duration,
    dir: &Path,
    final_snapshot: &Snapshot,
) -> Replayed {
    let _ = std::fs::remove_dir_all(dir);
    let snapshot = fresh_snapshot(w);
    let recovered = RecoveredState::from_snapshot(&snapshot);
    let server = spawn_engine(w, &recovered, Telemetry::disabled());
    let h = server.handle();
    // Fsyncs are issued here, per the workload's policy, not by the journal.
    let mut journal = DurableJournal::create(
        dir,
        &snapshot,
        FsyncPolicy::Batched { max_pending: usize::MAX },
        Telemetry::disabled(),
    )
    .expect("create the replay journal");
    let group = match spec.fsync {
        FsyncPolicy::EveryOp => 1,
        FsyncPolicy::Batched { max_pending } => max_pending,
    };
    let mut mirror = Mirror::new(w);
    let mut spans = Recorder::new(Instant::now());
    let (mut to_daemon, mut to_client) = (FrameDecoder::new(), FrameDecoder::new());
    let (mut decisions, mut unsynced, mut journal_bytes) = (0u64, 0usize, 0u64);
    let mut frame_bytes = Vec::new();
    let started = Instant::now();
    for seq in 0..events {
        let is_request = matches!(w.event(seq), Ev::Request(_));
        if is_request && started.elapsed() >= budget {
            break;
        }
        let replay_seq = spec.sequenced.then_some(seq);
        let req = wire_request(w, seq);
        if !is_request {
            // Reports keep the engine's pools in step; they are not timed.
            let (_, rec) = decide(&h, &req, replay_seq);
            if let Some(rec) = rec {
                journal.append_wal(&rec).expect("journal append");
                unsynced += 1;
            }
            if let Ev::Report(p) = w.event(seq) {
                mirror.report(p, &w.pools_of(p));
            }
            continue;
        }
        decisions += 1;
        let root: SpanId = spans.open("replay.decision", seq, NO_PARENT);
        let bytes = spans.span("wire.req_encode", seq, root, || {
            framed(&RequestFrame { corr: seq, replay_seq, req }.encode())
        });
        let decoded = spans.span("wire.req_decode", seq, root, || {
            to_daemon.push(&bytes);
            let payload = to_daemon.next_frame().expect("intact frame").expect("whole frame");
            RequestFrame::decode(&payload).expect("decodable request")
        });
        let (resp, rec) =
            spans.span("grm.decide", seq, root, || decide(&h, &decoded.req, replay_seq));
        if let Ev::Request(i) = w.event(seq) {
            let (lrm, ref amounts) = w.demands[i];
            spans.span("sched.allocate", seq, root, || mirror.allocate(lrm, amounts));
        }
        if let Some(rec) = rec {
            let before = journal.bytes_written();
            spans.span("journal.append", seq, root, || {
                journal.append_wal(&rec).expect("journal append")
            });
            journal_bytes += journal.bytes_written() - before;
            unsynced += 1;
        }
        if unsynced >= group {
            spans.span("journal.fsync", seq, root, || journal.sync().expect("journal fsync"));
            unsynced = 0;
        }
        let reply = spans.span("wire.resp_encode", seq, root, || {
            framed(&ResponseFrame { corr: seq, resp }.encode())
        });
        spans.span("wire.resp_decode", seq, root, || {
            to_client.push(&reply);
            let payload = to_client.next_frame().expect("intact frame").expect("whole frame");
            ResponseFrame::decode(&payload).expect("decodable response")
        });
        spans.finish(root);
        frame_bytes.push((bytes.len() + reply.len()) as f64);
    }
    journal.sync().expect("journal fsync");
    let mut compact_ms = Vec::with_capacity(COMPACT_SAMPLES);
    for _ in 0..COMPACT_SAMPLES {
        let t = Instant::now();
        journal.compact(final_snapshot).expect("journal compaction");
        compact_ms.push(t.elapsed().as_secs_f64() * 1e3);
    }
    server.shutdown();
    Replayed { spans, decisions, frame_bytes, journal_bytes, mirror, compact_ms }
}

/// Highest segment index in a journal directory: each compaction rolls
/// to a fresh segment, so this counts the compactions since creation.
fn compactions(journal_dir: &Path) -> u64 {
    std::fs::read_dir(journal_dir)
        .map(|entries| {
            entries
                .filter_map(|e| {
                    let name = e.ok()?.file_name().into_string().ok()?;
                    name.strip_prefix("segment-")?.strip_suffix(".log")?.parse::<u64>().ok()
                })
                .max()
                .unwrap_or(0)
        })
        .unwrap_or(0)
}

fn hist_mean(snap: &TelemetrySnapshot, kind: HistKind, scale: f64) -> f64 {
    snap.histogram(kind).map_or(0.0, |h| h.mean() * scale)
}

fn p(samples: &mut [f64], q: f64) -> f64 {
    let v = stats::quantile(samples, q);
    if v.is_nan() {
        0.0
    } else {
        v
    }
}

/// The traced run: per-layer metrics, report fields, and violations.
pub(super) fn per_layer(
    kind: Kind,
    spec: &Spec,
    args: &Args,
    dir: &Path,
    untraced_rate: f64,
    setups: &[SetupTimes],
) -> (Vec<Metric>, Vec<(String, String)>, Vec<String>) {
    let (telemetry, recorder) = Telemetry::recorder(0);
    let (w, d, _) = setup(kind, spec, args.seed, &dir.join("traced"), telemetry);
    let (phase, figs, violations) = measure(&w, spec, &d, args.seconds);
    let (group_fsyncs, group_records) = d.listener.group_commit_stats();
    let undecodable = d.listener.undecodable_frames();
    let final_snapshot = d.listener.mirror_snapshot();
    let grm_stats = d.clients[0].stats().ok();
    let segments = compactions(&d.journal_dir);
    teardown(d);
    let tele = recorder.snapshot();

    let events =
        if w.kind == Kind::Lp { phase.cut } else { phase.round_pools.len() as u64 * w.round_len() };
    let budget = args.seconds.mul_f64(REPLAY_SHARE);
    let Replayed {
        spans: replayed,
        decisions: replayed_decisions,
        frame_bytes,
        journal_bytes,
        mirror,
        mut compact_ms,
    } = replay(&w, spec, events, budget, &dir.join("replay-journal"), &final_snapshot);

    // Client spans of the socket run, then the replay's, in one file.
    let mut spans = Recorder::new(Instant::now());
    for &(seq, start_ns, end_ns) in &figs.rpc_spans {
        spans.push(crate::spans::Span {
            name: "client.rpc",
            seq,
            parent: NO_PARENT,
            start_ns,
            end_ns,
        });
    }
    spans.absorb(replayed);
    let span_file = PathBuf::from(crate::WORK_DIR)
        .join("spans")
        .join(format!("{}-seed{}.csv", args.workload, args.seed));
    let _ = spans.write_csv(&span_file);

    let us = |name: &str| spans.durations_us(name);
    let mut req_enc = us("wire.req_encode");
    let mut req_dec = us("wire.req_decode");
    let mut resp_enc = us("wire.resp_encode");
    let mut resp_dec = us("wire.resp_decode");
    let mut append = us("journal.append");
    let mut fsync = us("journal.fsync");
    let mut decide = us("grm.decide");
    let mut alloc = us("sched.allocate");
    let mut rpc = figs.latencies_us.clone();
    let rpc_p50 = p(&mut rpc, 0.5);
    let stage_sum = p(&mut req_enc, 0.5)
        + p(&mut req_dec, 0.5)
        + p(&mut decide, 0.5)
        + p(&mut append, 0.5)
        + p(&mut fsync, 0.5)
        + p(&mut resp_enc, 0.5)
        + p(&mut resp_dec, 0.5);
    let decisions = figs.decisions.max(1) as f64;
    let traced_rate = figs.decisions as f64 / figs.elapsed_s;
    let counter = |name: &str| tele.counter(name) as f64;
    let (lp_warm, lp_rebuilds) = match &mirror {
        Mirror::Lp(solver, _) => {
            let s = solver.stats();
            (s.warm_hits as f64 / s.solves.max(1) as f64, s.skeleton_rebuilds as f64)
        }
        _ => (0.0, 0.0),
    };
    let t = Instant::now();
    let _ = auto_partition(&w.matrix, &PartitionOptions::default()).expect("partition");
    let partition_ms = t.elapsed().as_secs_f64() * 1e3;
    let t = Instant::now();
    match w.kind {
        Kind::Lp => drop(TransitiveFlow::compute(&w.matrix, LEVEL)),
        Kind::Hier => drop(Mirror::new(&w)),
        Kind::Multi => drop(multi_admission(&w)),
    }
    let build_ms = t.elapsed().as_secs_f64() * 1e3;
    let mut generate: Vec<f64> = setups.iter().map(|s| s.generate_s * 1e3).collect();

    let metrics = vec![
        layer("wire.req_encode_ns", p(&mut req_enc, 0.5) * 1e3),
        layer("wire.req_decode_ns", p(&mut req_dec, 0.5) * 1e3),
        layer("wire.resp_encode_ns", p(&mut resp_enc, 0.5) * 1e3),
        layer("wire.resp_decode_ns", p(&mut resp_dec, 0.5) * 1e3),
        layer("wire.bytes_per_decision", stats::mean(&frame_bytes)),
        layer("listener.group_fsyncs", group_fsyncs as f64),
        layer(
            "listener.records_per_fsync",
            if group_fsyncs > 0 { group_records as f64 / group_fsyncs as f64 } else { 0.0 },
        ),
        layer("listener.undecodable_frames", undecodable as f64),
        layer("journal.append_us", p(&mut append, 0.5)),
        layer("journal.fsync_us_p50", p(&mut fsync, 0.5)),
        layer("journal.fsync_us_p99", p(&mut fsync, 0.99)),
        layer("journal.compactions", segments as f64),
        layer("journal.compact_ms", stats::median(&mut compact_ms)),
        layer(
            "journal.bytes_per_decision",
            journal_bytes as f64 / replayed_decisions.max(1) as f64,
        ),
        layer("client.errors", figs.failed as f64),
        layer("rpc.p999_us", p(&mut rpc, 0.999)),
        layer("rpc.unattributed_us", rpc_p50 - stage_sum),
        layer("grm.decide_us_p50", p(&mut decide, 0.5)),
        layer("grm.decide_us_p99", p(&mut decide, 0.99)),
        layer("grm.queue_wait_us", hist_mean(&tele, HistKind::QueueWaitSeconds, 1e6)),
        layer("grm.drain_us", hist_mean(&tele, HistKind::ServeDrainSeconds, 1e6)),
        layer("grm.batch_size", hist_mean(&tele, HistKind::BatchSize, 1.0)),
        layer("grm.duplicates", grm_stats.map_or(0.0, |s| s.duplicate_requests as f64)),
        layer("grm.grant_frac", figs.grants as f64 / decisions),
        layer("sched.allocate_us_p50", p(&mut alloc, 0.5)),
        layer("sched.allocate_us_p99", p(&mut alloc, 0.99)),
        // Every lane of a multi request tries its home group once.
        layer("sched.home_hit_frac", counter("hier.home_hits") / (decisions * w.base.len() as f64)),
        layer("sched.coarse_solves", counter("hier.coarse_solves")),
        layer("sched.fine_solves", counter("hier.fine_solves")),
        layer(
            "sched.executor_fallbacks",
            grm_stats.map_or(0.0, |s| s.executor_fallbacks_sequential as f64),
        ),
        layer(
            "lp.solves",
            tele.histogram(HistKind::LpSolveSeconds).map_or(0.0, |h| h.count as f64),
        ),
        layer("lp.warm_frac", lp_warm),
        layer("lp.skeleton_rebuilds", lp_rebuilds),
        layer("lp.solve_us", hist_mean(&tele, HistKind::LpSolveSeconds, 1e6)),
        layer("flow.build_ms", build_ms),
        layer("flow.partition_ms", partition_ms),
        layer("trace.generate_ms", stats::median(&mut generate)),
        layer("trace.overhead_frac", (untraced_rate - traced_rate) / untraced_rate),
    ];
    let report = vec![
        ("traced_decisions_per_s".to_string(), format!("{traced_rate}")),
        ("traced_decision_p50_us".to_string(), format!("{rpc_p50}")),
        ("replayed_decisions".to_string(), replayed_decisions.to_string()),
        ("span_file".to_string(), format!("\"{}\"", span_file.display())),
    ];
    (metrics, report, violations)
}
