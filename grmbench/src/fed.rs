//! The three socket workloads: a GRM daemon served in-process behind a
//! Unix-domain socket and an on-disk `DurableJournal`, built the way the
//! `federation` daemon role (`fed-hier`) and `agreements serve`
//! (`fed-lp`) build it, loaded closed-loop by two client threads over two
//! connections.
//!
//! Every workload runs in rounds. A round refreshes all `n` pools (each
//! connection reports its half) and then issues `round_requests`
//! allocation requests, so reports and decisions keep a fixed ratio.
//! Event `seq` belongs to connection `seq % 2`; its `RequestId` is
//! `(CLIENT, seq)`. The timed phase ends at the first round boundary
//! (`fed-hier`, `fed-multires`) or the first agreed sequence cut
//! (`fed-lp`) after `--seconds`.

use std::collections::VecDeque;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Barrier, Mutex};
use std::time::{Duration, Instant};

use agreements_experiments::checker::{
    check_order_insensitive, CheckEvent, CheckInputs, CheckOutcome, REL_TOL,
};
use agreements_flow::{AgreementMatrix, PartitionOptions};
use agreements_grm::{GrmError, GrmServer, RequestId};
use agreements_net::journal::{DurableJournal, FsyncPolicy, RecoveredState, Snapshot};
use agreements_net::listener::{GrmListener, ListenerConfig};
use agreements_net::NetGrmClient;
use agreements_sched::multires::MultiAdmission;
use agreements_sched::{Allocation, HierarchicalScheduler, MultiAllocation, SchedError};
use agreements_telemetry::Telemetry;
use agreements_trace::{MultiScaleConfig, ScaleConfig};
use crossbeam::channel::Receiver;

use crate::{metric, stats, Args, Outcome, SETUPS};

mod replay;

/// `RequestId::client` of every benchmark request.
const CLIENT: u64 = 0xBE7C;
/// Transitivity level of the scale economies (as in `federation`).
const LEVEL: usize = 1;
/// Per-RPC deadline; far above any latency a healthy run sees.
const RPC_DEADLINE: Duration = Duration::from_secs(10);

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    Hier,
    Lp,
    Multi,
}

/// A workload's fixed shape. See `grmbench/README.md` for why each value
/// sits where it does; none may be moved to win on a threshold.
struct Spec {
    n: usize,
    /// Demands generated per seed (the stream wraps around after them).
    demands: usize,
    /// Allocation requests per round; each round first refreshes all pools.
    round_requests: usize,
    /// Calls each connection keeps in flight (1 = lockstep).
    window: usize,
    fsync: FsyncPolicy,
    sequenced: bool,
    compact_every: u64,
}

impl Kind {
    fn spec(self) -> Spec {
        match self {
            // 2 × 12 = 24 in flight stays off the group-commit threshold of
            // 32 (a total equal to it made runs bimodal).
            Kind::Hier => Spec {
                n: 1000,
                demands: 100_000,
                round_requests: 3000,
                window: 12,
                fsync: FsyncPolicy::Batched { max_pending: 32 },
                sequenced: false,
                compact_every: 16_384,
            },
            Kind::Lp => Spec {
                n: 256,
                demands: 20_000,
                round_requests: 1024,
                window: 4,
                fsync: FsyncPolicy::EveryOp,
                sequenced: true,
                compact_every: 8192,
            },
            Kind::Multi => Spec {
                n: 256,
                demands: 40_000,
                round_requests: 1024,
                window: 1,
                fsync: FsyncPolicy::EveryOp,
                sequenced: false,
                compact_every: 8192,
            },
        }
    }
}

/// The generated inputs: the economy, each lane's base pools, and the
/// demand stream.
struct Workload {
    kind: Kind,
    n: usize,
    round_requests: usize,
    matrix: AgreementMatrix,
    /// `[lane][principal]`.
    base: Vec<Vec<f64>>,
    /// `(requester, per-lane amounts)`.
    demands: Vec<(usize, Vec<f64>)>,
    multi_cfg: Option<MultiScaleConfig>,
}

#[derive(Debug, Clone, Copy, PartialEq)]
enum Ev {
    Report(usize),
    Request(usize),
}

impl Workload {
    fn generate(kind: Kind, spec: &Spec, seed: u64) -> Workload {
        let (matrix, base, demands, multi_cfg) = match kind {
            Kind::Multi => {
                let cfg = MultiScaleConfig::isp_multi(spec.n, spec.demands, seed);
                let w = cfg.generate();
                let demands = w.demands.into_iter().map(|d| (d.requester, d.amounts)).collect();
                let matrix = cfg.base.agreements().expect("valid scale agreements");
                (matrix, w.availability, demands, Some(cfg))
            }
            _ => {
                let cfg = ScaleConfig::isp(spec.n, spec.demands, seed);
                let w = cfg.generate();
                let demands =
                    w.demands.into_iter().map(|d| (d.requester, vec![d.amount])).collect();
                let matrix = cfg.agreements().expect("valid scale agreements");
                (matrix, vec![w.availability], demands, None)
            }
        };
        Workload {
            kind,
            n: spec.n,
            round_requests: spec.round_requests,
            matrix,
            base,
            demands,
            multi_cfg,
        }
    }

    fn round_len(&self) -> u64 {
        (self.n + self.round_requests) as u64
    }

    fn event(&self, seq: u64) -> Ev {
        let (round, off) = (seq / self.round_len(), (seq % self.round_len()) as usize);
        if off < self.n {
            Ev::Report(off)
        } else {
            let i = round as usize * self.round_requests + (off - self.n);
            Ev::Request(i % self.demands.len())
        }
    }

    fn pools_of(&self, p: usize) -> Vec<f64> {
        self.base.iter().map(|lane| lane[p]).collect()
    }
}

fn request_id(seq: u64) -> RequestId {
    RequestId { client: CLIENT, seq }
}

/// A capacity denial is a decision; every other error is a failure.
fn is_denial(e: &GrmError) -> bool {
    matches!(e, GrmError::Sched(SchedError::InsufficientCapacity { .. }))
}

/// FNV-1a over a draw vector's bit patterns (as `federation --check`).
fn draws_fingerprint(draws: &[f64]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for d in draws {
        for b in d.to_bits().to_le_bytes() {
            h ^= b as u64;
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

fn sparse(draws: &[f64]) -> Vec<(u32, f64)> {
    draws.iter().enumerate().filter(|(_, &d)| d != 0.0).map(|(p, &d)| (p as u32, d)).collect()
}

/// One lane of a grant: the amount, the fingerprint of the full draw
/// vector, and its nonzero draws.
#[derive(Debug, Clone)]
struct LaneGrant {
    amount: f64,
    fingerprint: u64,
    draws: Vec<(u32, f64)>,
}

impl LaneGrant {
    fn of(a: &Allocation) -> LaneGrant {
        LaneGrant {
            amount: a.amount,
            fingerprint: draws_fingerprint(&a.draws),
            draws: sparse(&a.draws),
        }
    }
}

/// One settled allocation request.
#[derive(Debug, Clone)]
enum Settled {
    Grant(Vec<LaneGrant>),
    Denied,
    Failed(String),
}

fn settle_single(r: Result<Allocation, GrmError>) -> Settled {
    match r {
        Ok(a) => Settled::Grant(vec![LaneGrant::of(&a)]),
        Err(e) if is_denial(&e) => Settled::Denied,
        Err(e) => Settled::Failed(e.to_string()),
    }
}

fn settle_multi(r: Result<MultiAllocation, GrmError>) -> Settled {
    match r {
        Ok(m) => Settled::Grant(m.lanes.iter().map(LaneGrant::of).collect()),
        Err(e) if is_denial(&e) => Settled::Denied,
        Err(e) => Settled::Failed(e.to_string()),
    }
}

// ---------------------------------------------------------------------
// Set-up
// ---------------------------------------------------------------------

struct Daemon {
    listener: GrmListener,
    clients: [NetGrmClient; 2],
    journal_dir: PathBuf,
}

/// Timings of one set-up, for the per-layer metrics.
#[derive(Clone, Copy)]
struct SetupTimes {
    total_s: f64,
    generate_s: f64,
}

fn fresh_snapshot(w: &Workload) -> Snapshot {
    Snapshot {
        matrix: w.matrix.clone(),
        level: LEVEL,
        availability: vec![0.0; w.n],
        next_seq: 0,
        dedup: Vec::new(),
    }
}

/// The engine each workload serves, built as its daemon builds it.
fn spawn_engine(w: &Workload, recovered: &RecoveredState, telemetry: Telemetry) -> GrmServer {
    let server = match w.kind {
        Kind::Hier => {
            let mut sched =
                HierarchicalScheduler::auto(&recovered.matrix, &PartitionOptions::default(), LEVEL)
                    .expect("partition scale agreements");
            sched.set_parallel_auto();
            sched.set_warm_runs(true);
            GrmServer::spawn_hierarchical_with_telemetry(sched, telemetry)
        }
        Kind::Lp => {
            GrmServer::spawn_with_telemetry(recovered.matrix.clone(), recovered.level, telemetry)
        }
        Kind::Multi => {
            GrmServer::spawn_multi_hierarchical_with_telemetry(multi_admission(w), telemetry)
        }
    };
    recovered.respawn_with(server).expect("respawn GRM from journal")
}

fn multi_admission(w: &Workload) -> MultiAdmission {
    agreements_experiments::multires::build_admission(w.multi_cfg.as_ref().expect("multi config"))
}

fn setup(
    kind: Kind,
    spec: &Spec,
    seed: u64,
    dir: &Path,
    telemetry: Telemetry,
) -> (Workload, Daemon, SetupTimes) {
    let started = Instant::now();
    let w = Workload::generate(kind, spec, seed);
    let generate_s = started.elapsed().as_secs_f64();
    let _ = std::fs::remove_dir_all(dir);
    std::fs::create_dir_all(dir).expect("create daemon directory");
    let journal_dir = dir.join("journal");
    let snapshot = fresh_snapshot(&w);
    let (journal, recovered) = DurableJournal::open_or_create(
        &journal_dir,
        move || snapshot,
        spec.fsync,
        telemetry.clone(),
    )
    .expect("create agreement journal");
    let server = spawn_engine(&w, &recovered, telemetry.clone());
    let config = ListenerConfig {
        sequenced: spec.sequenced,
        compact_every: spec.compact_every,
        max_hold: Duration::from_millis(2),
        telemetry,
    };
    let sock = dir.join("grm.sock");
    let listener = GrmListener::bind_uds(&sock, server, journal, recovered, config)
        .expect("bind the daemon socket");
    let clients = [0, 1].map(|_| NetGrmClient::uds(&sock).with_rpc_deadline(RPC_DEADLINE));
    for c in &clients {
        c.stats().expect("connect to the daemon");
    }
    let d = Daemon { listener, clients, journal_dir };
    initial_reports(&w, &d);
    let total_s = started.elapsed().as_secs_f64();
    (w, d, SetupTimes { total_s, generate_s })
}

/// Round 0's pool reports (seqs `0..n`), part of set-up.
fn initial_reports(w: &Workload, d: &Daemon) {
    match w.kind {
        Kind::Multi => {
            for p in 0..w.n {
                d.clients[p % 2].report_multi(p, w.pools_of(p)).expect("initial report");
            }
            for c in &d.clients {
                c.availability_multi().expect("report barrier");
            }
        }
        Kind::Hier | Kind::Lp => {
            let pending: Vec<Receiver<Result<(), GrmError>>> = (0..w.n)
                .map(|p| {
                    let c = &d.clients[p % 2];
                    let v = w.base[0][p];
                    let sent = if w.kind == Kind::Lp {
                        c.report_seq_async(p as u64, p, v)
                    } else {
                        c.report_acked_async(p, v)
                    };
                    sent.expect("send initial report").0
                })
                .collect();
            for rx in pending {
                rx.recv().expect("initial report reply").expect("initial report accepted");
            }
        }
    }
}

fn teardown(d: Daemon) {
    drop(d.clients);
    d.listener.shutdown();
}

// ---------------------------------------------------------------------
// The timed phase
// ---------------------------------------------------------------------

/// What one connection thread observed.
#[derive(Default)]
struct ConnLog {
    /// `(seq, outcome)` of every request this connection issued.
    settled: Vec<(u64, Settled)>,
    /// `(seq, issue ns, reply ns)` from the phase epoch, per request.
    rpc: Vec<(u64, u64, u64)>,
    reports: u64,
    report_failures: Vec<String>,
}

struct Ctx<'a> {
    w: &'a Workload,
    window: usize,
    seconds: Duration,
    epoch: Instant,
    barrier: Barrier,
    stop: AtomicBool,
    /// Round-end pools, `[round][lane][principal]` (nonseq workloads).
    round_pools: Mutex<Vec<Vec<Vec<f64>>>>,
    /// Sequenced cut: `(stop, highest issued + 1)`.
    cut: Mutex<(u64, u64)>,
}

fn ns(epoch: Instant) -> u64 {
    epoch.elapsed().as_nanos() as u64
}

enum Rx {
    Grant(Receiver<Result<Allocation, GrmError>>),
    Unit(Receiver<Result<(), GrmError>>),
}

struct InFlight {
    seq: u64,
    issued_ns: u64,
    rx: Rx,
}

/// Issue one single-resource event on `client` (sequenced or not).
fn issue(ctx: &Ctx, client: &NetGrmClient, seq: u64, log: &mut ConnLog) -> Option<InFlight> {
    let issued_ns = ns(ctx.epoch);
    let sequenced = ctx.w.kind == Kind::Lp;
    let sent = match ctx.w.event(seq) {
        Ev::Report(p) => {
            let v = ctx.w.base[0][p];
            let r = if sequenced {
                client.report_seq_async(seq, p, v)
            } else {
                client.report_acked_async(p, v)
            };
            r.map(|(rx, _)| Rx::Unit(rx))
        }
        Ev::Request(i) => {
            let (lrm, ref amounts) = ctx.w.demands[i];
            let r = if sequenced {
                client.request_seq_async(seq, lrm, amounts[0], request_id(seq))
            } else {
                client.request_acked_async(lrm, amounts[0], request_id(seq))
            };
            r.map(|(rx, _)| Rx::Grant(rx))
        }
    };
    match sent {
        Ok(rx) => Some(InFlight { seq, issued_ns, rx }),
        Err(e) => {
            record_failure(ctx, seq, e.to_string(), issued_ns, log);
            None
        }
    }
}

fn record_failure(ctx: &Ctx, seq: u64, e: String, issued_ns: u64, log: &mut ConnLog) {
    match ctx.w.event(seq) {
        Ev::Report(_) => log.report_failures.push(e),
        Ev::Request(_) => {
            log.rpc.push((seq, issued_ns, ns(ctx.epoch)));
            log.settled.push((seq, Settled::Failed(e)));
        }
    }
}

fn harvest(ctx: &Ctx, f: InFlight, log: &mut ConnLog) {
    match f.rx {
        Rx::Grant(rx) => {
            let r = rx.recv().unwrap_or(Err(GrmError::ConnectionReset));
            log.rpc.push((f.seq, f.issued_ns, ns(ctx.epoch)));
            log.settled.push((f.seq, settle_single(r)));
        }
        Rx::Unit(rx) => {
            log.reports += 1;
            if let Err(e) = rx.recv().unwrap_or(Err(GrmError::ConnectionReset)) {
                log.report_failures.push(e.to_string());
            }
        }
    }
}

/// Keep `window` calls in flight over `seqs`, harvesting in issue order.
fn windowed(ctx: &Ctx, client: &NetGrmClient, seqs: impl Iterator<Item = u64>, log: &mut ConnLog) {
    let mut inflight = VecDeque::with_capacity(ctx.window);
    for seq in seqs {
        if inflight.len() == ctx.window {
            harvest(ctx, inflight.pop_front().expect("full window"), log);
        }
        if let Some(f) = issue(ctx, client, seq, log) {
            inflight.push_back(f);
        }
    }
    while let Some(f) = inflight.pop_front() {
        harvest(ctx, f, log);
    }
}

/// The lockstep multi-resource calls of one phase.
fn lockstep_multi(
    ctx: &Ctx,
    client: &NetGrmClient,
    seqs: impl Iterator<Item = u64>,
    log: &mut ConnLog,
) {
    let mut reported = false;
    for seq in seqs {
        match ctx.w.event(seq) {
            Ev::Report(p) => {
                reported = true;
                log.reports += 1;
                if let Err(e) = client.report_multi(p, ctx.w.pools_of(p)) {
                    log.report_failures.push(e.to_string());
                }
            }
            Ev::Request(i) => {
                let (lrm, ref amounts) = ctx.w.demands[i];
                let issued_ns = ns(ctx.epoch);
                let r = client.request_multi_idempotent(lrm, amounts, request_id(seq));
                log.rpc.push((seq, issued_ns, ns(ctx.epoch)));
                log.settled.push((seq, settle_multi(r)));
            }
        }
    }
    // Multi reports are fire-and-forget: a read on the same connection
    // returns only after the daemon has applied them.
    if reported {
        if let Err(e) = client.availability_multi() {
            log.report_failures.push(e.to_string());
        }
    }
}

/// Non-sequenced rounds: reports, barrier, requests, barrier; the leader
/// records the round-end pools and decides whether another round runs.
fn conn_rounds(ctx: &Ctx, c: usize, client: &NetGrmClient) -> ConnLog {
    let mut log = ConnLog::default();
    let len = ctx.w.round_len();
    let n = ctx.w.n as u64;
    let mine = move |lo: u64, hi: u64| (lo..hi).filter(move |s| s % 2 == c as u64);
    for round in 0u64.. {
        let start = round * len;
        if round > 0 {
            let seqs = mine(start, start + n);
            if ctx.w.kind == Kind::Multi {
                lockstep_multi(ctx, client, seqs, &mut log);
            } else {
                windowed(ctx, client, seqs, &mut log);
            }
        }
        ctx.barrier.wait();
        let seqs = mine(start + n, start + len);
        if ctx.w.kind == Kind::Multi {
            lockstep_multi(ctx, client, seqs, &mut log);
        } else {
            windowed(ctx, client, seqs, &mut log);
        }
        if ctx.barrier.wait().is_leader() {
            let pools = match ctx.w.kind {
                Kind::Multi => client.availability_multi(),
                _ => client.availability().map(|v| vec![v]),
            };
            match pools {
                Ok(p) => ctx.round_pools.lock().expect("round pools").push(p),
                Err(e) => log.report_failures.push(format!("round-end availability: {e}")),
            }
            if ctx.epoch.elapsed() >= ctx.seconds {
                ctx.stop.store(true, Ordering::SeqCst);
            }
        }
        ctx.barrier.wait();
        if ctx.stop.load(Ordering::SeqCst) {
            break;
        }
    }
    log
}

/// Sequenced pipelining: each connection issues its residue class in
/// ascending order. Once the deadline passes, the cut is set to one past
/// the highest seq issued so far; every seq below it still gets issued
/// by its owner, so the daemon's sequencer never waits on a gap.
fn conn_sequenced(ctx: &Ctx, c: usize, client: &NetGrmClient) -> ConnLog {
    let mut log = ConnLog::default();
    let n = ctx.w.n as u64;
    let mut next = n + ((c as u64 + 2 - n % 2) % 2);
    let mut inflight = VecDeque::with_capacity(ctx.window);
    loop {
        while inflight.len() < ctx.window {
            let go = {
                let mut cut = ctx.cut.lock().expect("sequence cut");
                if cut.0 == u64::MAX && ctx.epoch.elapsed() >= ctx.seconds {
                    cut.0 = cut.1;
                }
                if next >= cut.0 {
                    false
                } else {
                    cut.1 = cut.1.max(next + 1);
                    true
                }
            };
            if !go {
                break;
            }
            if let Some(f) = issue(ctx, client, next, &mut log) {
                inflight.push_back(f);
            }
            next += 2;
        }
        match inflight.pop_front() {
            Some(f) => harvest(ctx, f, &mut log),
            None => break,
        }
    }
    log
}

struct Phase {
    elapsed_s: f64,
    logs: Vec<ConnLog>,
    round_pools: Vec<Vec<Vec<f64>>>,
    /// Sequenced workloads: every seq below this was issued.
    cut: u64,
}

fn timed_phase(w: &Workload, spec: &Spec, d: &Daemon, seconds: Duration) -> Phase {
    let ctx = Ctx {
        w,
        window: spec.window,
        seconds,
        epoch: Instant::now(),
        barrier: Barrier::new(2),
        stop: AtomicBool::new(false),
        round_pools: Mutex::new(Vec::new()),
        cut: Mutex::new((u64::MAX, w.n as u64)),
    };
    let logs: Vec<ConnLog> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..2)
            .map(|c| {
                let ctx = &ctx;
                let client = &d.clients[c];
                s.spawn(move || {
                    if w.kind == Kind::Lp {
                        conn_sequenced(ctx, c, client)
                    } else {
                        conn_rounds(ctx, c, client)
                    }
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("client thread panicked")).collect()
    });
    let elapsed_s = ctx.epoch.elapsed().as_secs_f64();
    let cut = ctx.cut.lock().expect("sequence cut").0;
    Phase { elapsed_s, logs, round_pools: ctx.round_pools.into_inner().expect("round pools"), cut }
}

// ---------------------------------------------------------------------
// Output checks
// ---------------------------------------------------------------------

fn close(got: f64, want: f64) -> bool {
    (got - want).abs() <= REL_TOL * want.abs().max(1.0)
}

/// Settled requests by seq; flags a seq settled twice.
fn merged(phase: &Phase, violations: &mut Vec<String>) -> std::collections::BTreeMap<u64, Settled> {
    let mut all = std::collections::BTreeMap::new();
    for log in &phase.logs {
        for (seq, s) in &log.settled {
            if all.insert(*seq, s.clone()).is_some() {
                violations.push(format!("request seq {seq} answered twice"));
            }
        }
    }
    all
}

/// Request seqs of round `r`.
fn round_requests(w: &Workload, r: usize) -> impl Iterator<Item = u64> {
    let start = r as u64 * w.round_len() + w.n as u64;
    start..start + w.round_requests as u64
}

/// `fed-hier`: the order-insensitive battery per round, plus the
/// daemon's granted-units counter against the log.
fn check_hier(w: &Workload, phase: &Phase, granted_units: f64, violations: &mut Vec<String>) {
    let all = merged(phase, violations);
    let mut total = 0.0;
    let mut expected_count = 0;
    for (r, pools) in phase.round_pools.iter().enumerate() {
        let expected: Vec<u64> = round_requests(w, r).collect();
        expected_count += expected.len();
        let events: Vec<CheckEvent> = expected
            .iter()
            .filter_map(|seq| {
                let requester = match w.event(*seq) {
                    Ev::Request(i) => w.demands[i].0,
                    Ev::Report(_) => unreachable!("request seqs only"),
                };
                let outcome = match all.get(seq)? {
                    Settled::Grant(lanes) => {
                        total += lanes[0].amount;
                        CheckOutcome::Granted {
                            amount: lanes[0].amount,
                            draws: lanes[0].draws.iter().map(|&(p, d)| (p as usize, d)).collect(),
                        }
                    }
                    Settled::Denied => CheckOutcome::Denied,
                    Settled::Failed(_) => return None,
                };
                Some(CheckEvent { seq: *seq, requester, outcome })
            })
            .collect();
        for v in check_order_insensitive(&CheckInputs {
            base: &w.base[0],
            expected: &expected,
            events: &events,
            final_availability: &pools[0],
            granted_units: None,
        }) {
            violations.push(format!("round {r}: {v}"));
        }
    }
    if all.len() != expected_count {
        violations.push(format!("{} requests settled, {expected_count} expected", all.len()));
    }
    if !close(granted_units, total) {
        violations.push(format!(
            "granted-units accounting: daemon counter {granted_units}, log total {total}"
        ));
    }
}

/// `fed-multires`: per round and lane, no grant exceeds the reported
/// pools, lane draws sum to lane amounts, the round-end pools equal the
/// reported pools minus the draws, and every request is answered once.
fn check_multi(w: &Workload, phase: &Phase, violations: &mut Vec<String>) {
    let all = merged(phase, violations);
    let lanes = w.base.len();
    let mut expected_count = 0;
    for (r, pools) in phase.round_pools.iter().enumerate() {
        let mut drawn = vec![vec![0.0f64; w.n]; lanes];
        for seq in round_requests(w, r) {
            expected_count += 1;
            match all.get(&seq) {
                None => violations.push(format!("round {r}: request seq {seq} never answered")),
                Some(Settled::Grant(g)) => {
                    if g.len() != lanes {
                        violations.push(format!("seq {seq}: {} lanes granted", g.len()));
                        continue;
                    }
                    for (l, lane) in g.iter().enumerate() {
                        let sum: f64 = lane.draws.iter().map(|&(_, d)| d).sum();
                        if !close(sum, lane.amount) || lane.draws.iter().any(|&(_, d)| d < 0.0) {
                            violations
                                .push(format!("seq {seq} lane {l}: draws do not sum to the grant"));
                        }
                        for &(p, d) in &lane.draws {
                            drawn[l][p as usize] += d;
                        }
                    }
                }
                Some(_) => {}
            }
        }
        if pools.len() != lanes {
            violations.push(format!("round {r}: {} lanes reported back", pools.len()));
            continue;
        }
        for l in 0..lanes {
            let over = (0..w.n)
                .filter(|&p| drawn[l][p] > w.base[l][p] * (1.0 + REL_TOL) + REL_TOL)
                .count();
            if over > 0 {
                violations.push(format!(
                    "round {r} lane {l}: grants exceed the reported pool of {over} principals"
                ));
            }
            let diverged =
                (0..w.n).filter(|&p| !close(pools[l][p], w.base[l][p] - drawn[l][p])).count();
            if diverged > 0 {
                violations.push(format!("round {r} lane {l}: {diverged} pools do not conserve"));
            }
        }
    }
    if all.len() != expected_count {
        violations.push(format!("{} requests settled, {expected_count} expected", all.len()));
    }
}

/// `fed-lp`: every outcome and the final pools, bit for bit, against an
/// in-process fold of the same sequenced stream (`federation --check`).
fn check_lp(w: &Workload, phase: &Phase, final_pools: &[f64], violations: &mut Vec<String>) {
    let all = merged(phase, violations);
    let server = GrmServer::spawn(w.matrix.clone(), LEVEL);
    let h = server.handle();
    let mut diverged = 0usize;
    let mut expected = 0usize;
    for seq in 0..phase.cut {
        match w.event(seq) {
            Ev::Report(p) => h.report(p, w.base[0][p]).expect("reference report"),
            Ev::Request(i) => {
                expected += 1;
                let (lrm, ref amounts) = w.demands[i];
                let want = settle_single(h.request_idempotent(lrm, amounts[0], request_id(seq)));
                let same = match (all.get(&seq), &want) {
                    (Some(Settled::Grant(a)), Settled::Grant(b)) => {
                        a[0].amount.to_bits() == b[0].amount.to_bits()
                            && a[0].fingerprint == b[0].fingerprint
                    }
                    (Some(Settled::Denied), Settled::Denied) => true,
                    _ => false,
                };
                if !same {
                    if diverged == 0 {
                        violations.push(format!(
                            "seq {seq}: got {:?}, reference {want:?}",
                            all.get(&seq)
                        ));
                    }
                    diverged += 1;
                }
            }
        }
    }
    let reference = h.availability().expect("reference availability");
    server.shutdown();
    if diverged > 1 {
        violations.push(format!("{diverged} decisions diverge from the reference"));
    }
    if all.len() != expected {
        violations.push(format!("{} requests settled, {expected} expected", all.len()));
    }
    if reference.len() != final_pools.len()
        || reference.iter().zip(final_pools).any(|(a, b)| a.to_bits() != b.to_bits())
    {
        violations.push("final availability differs from the reference".into());
        return;
    }
    // The fold runs the daemon's own engine; pool conservation does not:
    // each pool is its last report minus what grants drew from it since.
    let mut last_report = vec![0u64; w.n];
    for seq in 0..phase.cut {
        if let Ev::Report(p) = w.event(seq) {
            last_report[p] = seq;
        }
    }
    let mut drawn = vec![0.0f64; w.n];
    for (seq, s) in &all {
        if let Settled::Grant(g) = s {
            for &(p, d) in &g[0].draws {
                if *seq > last_report[p as usize] {
                    drawn[p as usize] += d;
                }
            }
        }
    }
    let diverged = (0..w.n).filter(|&p| !close(final_pools[p], w.base[0][p] - drawn[p])).count();
    if diverged > 0 {
        violations
            .push(format!("pool conservation: {diverged} pools differ from reports minus draws"));
    }
}

// ---------------------------------------------------------------------
// One run
// ---------------------------------------------------------------------

/// End-to-end figures of one timed phase.
struct Figures {
    decisions: u64,
    failed: u64,
    reports: u64,
    elapsed_s: f64,
    latencies_us: Vec<f64>,
    grants: u64,
    rpc_spans: Vec<(u64, u64, u64)>,
}

/// Figures of each timed round after the first, whose reports ran in
/// set-up; a round the cut left short is dropped. A round runs from the
/// last reply of the round before to its own last reply, so it covers
/// its pool refresh, its requests and the barriers between them.
#[derive(Default)]
struct Rounds {
    decisions_per_s: Vec<f64>,
    /// Decisions plus pool reports.
    events_per_s: Vec<f64>,
    p50_us: Vec<f64>,
    /// Each round has at least 1024 requests, so ten samples lie beyond
    /// its p99.
    p99_us: Vec<f64>,
}

fn per_round(w: &Workload, rpc: &[(u64, u64, u64)]) -> Rounds {
    let mut by_round: std::collections::BTreeMap<u64, (u64, Vec<f64>)> = Default::default();
    for &(seq, start, end) in rpc {
        let round = by_round.entry(seq / w.round_len()).or_default();
        round.0 = round.0.max(end);
        round.1.push((end - start) as f64 / 1e3);
    }
    let mut out = Rounds::default();
    let mut prev: Option<(u64, u64)> = None;
    for (r, (end, mut lat)) in by_round {
        if lat.len() < w.round_requests {
            break;
        }
        if let Some((_, prev_end)) = prev.filter(|&(prev_r, _)| prev_r + 1 == r) {
            let secs = (end - prev_end) as f64 / 1e9;
            out.decisions_per_s.push(w.round_requests as f64 / secs);
            out.events_per_s.push(w.round_len() as f64 / secs);
            out.p50_us.push(stats::quantile(&mut lat, 0.5));
            out.p99_us.push(stats::quantile(&mut lat, 0.99));
        }
        prev = Some((r, end));
    }
    out
}

fn figures(phase: &Phase) -> Figures {
    let mut f = Figures {
        decisions: 0,
        failed: 0,
        reports: 0,
        elapsed_s: phase.elapsed_s,
        latencies_us: Vec::new(),
        grants: 0,
        rpc_spans: Vec::new(),
    };
    for log in &phase.logs {
        f.reports += log.reports;
        f.failed += log.report_failures.len() as u64;
        for (_, s) in &log.settled {
            match s {
                Settled::Grant(_) => {
                    f.decisions += 1;
                    f.grants += 1;
                }
                Settled::Denied => f.decisions += 1,
                Settled::Failed(_) => f.failed += 1,
            }
        }
        f.latencies_us.extend(log.rpc.iter().map(|&(_, a, b)| (b - a) as f64 / 1e3));
        f.rpc_spans.extend(log.rpc.iter().copied());
    }
    f
}

/// Run the timed phase on a built daemon and check its outputs.
fn measure(
    w: &Workload,
    spec: &Spec,
    d: &Daemon,
    seconds: Duration,
) -> (Phase, Figures, Vec<String>) {
    let phase = timed_phase(w, spec, d, seconds);
    let figs = figures(&phase);
    let mut violations = Vec::new();
    for log in &phase.logs {
        if let Some(e) = log.report_failures.first() {
            violations.push(format!("{} report(s) failed, e.g. {e}", log.report_failures.len()));
        }
        if let Some((seq, Settled::Failed(e))) =
            log.settled.iter().find(|(_, s)| matches!(s, Settled::Failed(_)))
        {
            violations.push(format!("request seq {seq} failed: {e}"));
        }
    }
    let undecodable = d.listener.undecodable_frames();
    if undecodable > 0 {
        violations.push(format!("{undecodable} frames the daemon could not decode"));
    }
    match w.kind {
        Kind::Hier => {
            let units = d.clients[0].stats().map(|s| s.granted_units).unwrap_or(f64::NAN);
            check_hier(w, &phase, units, &mut violations);
        }
        Kind::Multi => check_multi(w, &phase, &mut violations),
        Kind::Lp => {
            let pools = d.clients[0].availability().unwrap_or_default();
            check_lp(w, &phase, &pools, &mut violations);
        }
    }
    (phase, figs, violations)
}

pub fn run(kind: Kind, args: &Args, run_dir: &Path) -> Outcome {
    let spec = kind.spec();
    let daemon_dir = run_dir.join("daemon");
    // Set up several times; the last set-up serves the timed phase.
    let mut setups = Vec::with_capacity(SETUPS);
    let mut built = None;
    for i in 0..SETUPS {
        let (w, d, t) = setup(kind, &spec, args.seed, &daemon_dir, Telemetry::disabled());
        setups.push(t);
        if i + 1 < SETUPS {
            teardown(d);
        } else {
            built = Some((w, d));
        }
    }
    let (w, d) = built.expect("at least one set-up");
    let (_, figs, mut violations) = measure(&w, &spec, &d, args.seconds);
    teardown(d);
    let mut setup_s: Vec<f64> = setups.iter().map(|t| t.total_s).collect();
    let setup_s = stats::median(&mut setup_s);

    let mut lat = figs.latencies_us.clone();
    let beyond = stats::beyond(&mut lat, 0.99);
    if beyond < 10 {
        violations.push(format!("only {beyond} latency samples beyond p99 (need 10)"));
    }
    let mut rounds = per_round(&w, &figs.rpc_spans);
    if rounds.decisions_per_s.is_empty() {
        violations.push("no complete round after the first was timed".into());
    }
    let overall_rate = figs.decisions as f64 / figs.elapsed_s;
    let mut report = vec![
        ("decisions".to_string(), figs.decisions.to_string()),
        ("grants".to_string(), figs.grants.to_string()),
        ("reports".to_string(), figs.reports.to_string()),
        ("latency_samples".to_string(), lat.len().to_string()),
        ("samples_beyond_p99".to_string(), beyond.to_string()),
        ("overall_decisions_per_s".to_string(), format!("{overall_rate}")),
        ("overall_p50_us".to_string(), format!("{}", stats::quantile(&mut lat, 0.5))),
        ("overall_p99_us".to_string(), format!("{}", stats::quantile(&mut lat, 0.99))),
        ("timed_s".to_string(), format!("{}", figs.elapsed_s)),
        ("rounds_in_medians".to_string(), rounds.decisions_per_s.len().to_string()),
        ("in_flight_total".to_string(), (2 * spec.window).to_string()),
        (
            "error_frac".to_string(),
            format!("{}", figs.failed as f64 / (figs.decisions + figs.failed).max(1) as f64),
        ),
    ];

    let metrics = if args.trace {
        let (layers, extra, traced_violations) =
            replay::per_layer(kind, &spec, args, &daemon_dir, overall_rate, &setups);
        report.extend(extra);
        violations.extend(traced_violations);
        layers
    } else {
        vec![
            metric("decisions_per_s", stats::median(&mut rounds.decisions_per_s), "1/s"),
            metric("decision_p50_us", stats::median(&mut rounds.p50_us), "us"),
            metric("decision_p99_us", stats::median(&mut rounds.p99_us), "us"),
            metric("sim_requests_per_s", stats::median(&mut rounds.events_per_s), "1/s"),
            metric("setup_s", setup_s, "s"),
        ]
    };
    Outcome {
        attempted: figs.decisions + figs.failed,
        failed: figs.failed,
        violations,
        metrics,
        report,
    }
}
