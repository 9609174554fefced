//! Shared replay harness for the multi-resource scaled experiment: one
//! implementation drives both the `multires_scale` binary and the golden
//! checksum test in `tests/paper_shapes.rs`.
//!
//! The day is replayed exactly like the single-resource `scale` binary —
//! per-lane pools refresh at the top of each hour, grants draw them
//! down, denials leave them untouched — but admission goes through
//! [`MultiAdmission`]: a request is granted only when **every** resource
//! lane admits it, and a capacity rejection names the binding lane.
//! Each hour is also a fairness epoch: the per-principal granted amounts
//! feed an [`EpochLog`], [`analyze_epoch`] summarizes it (dominant
//! shares, envy pairs, justified complaints), and in check mode
//! [`check_fairness`] audits every report before it is folded into the
//! fairness checksum. Aggregate envy counts are exported through the
//! telemetry plane as the `fairness.envy_pairs`,
//! `fairness.justified_complaints`, and `fairness.epochs` counters, so a
//! `--telemetry-out` snapshot carries the day's fairness verdict
//! alongside the scheduler's own counters.
//!
//! Determinism: the replay is a pure fold over the (seeded) workload, so
//! both checksums are reproducible bit-for-bit — `tests/paper_shapes.rs`
//! pins them at n = 100.

use crate::fairness::{analyze_epoch, check_fairness, EpochLog, FairnessReport};
use agreements_flow::PartitionOptions;
use agreements_sched::hierarchy::HierarchicalScheduler;
use agreements_sched::{MultiAdmission, SchedError};
use agreements_telemetry::Telemetry;
use agreements_trace::{MultiScaleConfig, MultiScaleWorkload, RESOURCE_NAMES};

const HOUR: f64 = 3600.0;
const FNV_BASIS: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

#[inline]
fn fold(h: u64, bits: u64) -> u64 {
    (h ^ bits).wrapping_mul(FNV_PRIME)
}

/// One hour of the multi-resource replay.
#[derive(Debug, Clone)]
pub struct MultiHourRow {
    /// Hour of day (0-based).
    pub hour: usize,
    /// Demand events that arrived this hour.
    pub demands: usize,
    /// Demands admitted (every lane granted).
    pub admitted: usize,
    /// Units granted this hour, summed across lanes.
    pub granted_units: f64,
}

/// The replayed day: hourly series, per-lane rejection attribution, the
/// per-epoch fairness reports, and the two determinism fingerprints.
#[derive(Debug, Clone)]
pub struct MultiRunResult {
    /// Hourly admission series.
    pub hours: Vec<MultiHourRow>,
    /// Total demands admitted.
    pub admitted: usize,
    /// Total demands denied for capacity.
    pub denied: usize,
    /// Denials attributed to each binding resource lane.
    pub denied_by_lane: Vec<usize>,
    /// Units granted across the day, summed over lanes.
    pub granted_units: f64,
    /// FNV-1a over the bit patterns of every granted draw vector, every
    /// lane, in decision order.
    pub draws_checksum: u64,
    /// FNV-1a over every epoch's dominant-share bit patterns and envy
    /// counts, in epoch order.
    pub fairness_checksum: u64,
    /// One fairness report per hourly epoch.
    pub epochs: Vec<FairnessReport>,
}

/// Build the multi-resource admission stack for a config: one
/// auto-partitioned [`HierarchicalScheduler`] per resource lane, all
/// over the *same* agreement economy (the paper's agreements govern the
/// principals, not any single resource), under the standard lane names.
pub fn build_admission(cfg: &MultiScaleConfig) -> MultiAdmission {
    let s = cfg.base.agreements().expect("economy");
    let lanes: Vec<HierarchicalScheduler> = RESOURCE_NAMES
        .iter()
        .map(|_| HierarchicalScheduler::auto(&s, &PartitionOptions::default(), 1).expect("auto"))
        .collect();
    MultiAdmission::new(RESOURCE_NAMES.to_vec(), lanes).expect("lanes agree")
}

/// Accumulating state of one fairness epoch.
struct Epoch {
    allocated: Vec<Vec<f64>>,
    rejected: Vec<bool>,
}

impl Epoch {
    fn new(n: usize, rk: usize) -> Self {
        Epoch { allocated: vec![vec![0.0; rk]; n], rejected: vec![false; n] }
    }

    /// Close the epoch: summarize, audit (check mode), fold the
    /// fingerprint, export counters, and reset for the next hour.
    fn finish(
        &mut self,
        capacity: &[f64],
        telemetry: &Telemetry,
        checksum: &mut u64,
        reports: &mut Vec<FairnessReport>,
        check: bool,
    ) {
        let log = EpochLog {
            capacity: capacity.to_vec(),
            allocated: std::mem::take(&mut self.allocated),
            rejected: self
                .rejected
                .iter()
                .enumerate()
                .filter_map(|(p, &r)| r.then_some(p))
                .collect(),
        };
        let report = analyze_epoch(&log);
        if check {
            let v = check_fairness(&log, &report);
            assert!(v.is_empty(), "fairness audit failed: {v:?}");
        }
        for &s in &report.dominant_shares {
            *checksum = fold(*checksum, s.to_bits());
        }
        *checksum = fold(*checksum, report.envy_pairs as u64);
        *checksum = fold(*checksum, report.justified_complaints as u64);
        telemetry.add("fairness.epochs", 1);
        telemetry.add("fairness.envy_pairs", report.envy_pairs as u64);
        telemetry.add("fairness.justified_complaints", report.justified_complaints as u64);
        reports.push(report);
        let n = log.allocated.len();
        let rk = log.capacity.len();
        self.allocated = vec![vec![0.0; rk]; n];
        self.rejected.iter_mut().for_each(|r| *r = false);
    }
}

/// Replay the day's multi-resource demand stream through the admission
/// stack. Per-lane availability refreshes each hour; each hour is one
/// fairness epoch. In check mode, conservation and the fairness audit
/// are asserted inline.
pub fn run_multi_day(
    adm: &MultiAdmission,
    workload: &MultiScaleWorkload,
    telemetry: &Telemetry,
    check: bool,
) -> MultiRunResult {
    let rk = adm.num_resources();
    let n = adm.num_principals();
    assert_eq!(workload.availability.len(), rk, "workload lanes");
    let mut avail: Vec<Vec<f64>> = workload.availability.clone();
    let base = &workload.availability;
    let capacity: Vec<f64> = base.iter().map(|lane| lane.iter().sum()).collect();

    let mut hour = 0usize;
    let mut hours: Vec<MultiHourRow> = Vec::new();
    let mut cur = MultiHourRow { hour: 0, demands: 0, admitted: 0, granted_units: 0.0 };
    let (mut admitted, mut denied, mut granted_units) = (0usize, 0usize, 0.0f64);
    let mut denied_by_lane = vec![0usize; rk];
    let mut draws_checksum = FNV_BASIS;
    let mut fairness_checksum = FNV_BASIS;
    let mut epochs: Vec<FairnessReport> = Vec::new();
    let mut epoch = Epoch::new(n, rk);

    for d in &workload.demands {
        while d.t >= (hour + 1) as f64 * HOUR {
            epoch.finish(&capacity, telemetry, &mut fairness_checksum, &mut epochs, check);
            hours.push(std::mem::replace(
                &mut cur,
                MultiHourRow { hour: hour + 1, demands: 0, admitted: 0, granted_units: 0.0 },
            ));
            hour += 1;
            for (lane, b) in avail.iter_mut().zip(base) {
                lane.copy_from_slice(b);
            }
        }
        cur.demands += 1;
        match adm.admit_one(&mut avail, d.requester, &d.amounts) {
            Ok(alloc) => {
                for (r, lane) in alloc.lanes.iter().enumerate() {
                    let mut drawn = 0.0;
                    for &dr in &lane.draws {
                        drawn += dr;
                        draws_checksum = fold(draws_checksum, dr.to_bits());
                    }
                    if check {
                        assert!(
                            (drawn - lane.amount).abs() < 1e-6,
                            "lane {r} conservation: drew {drawn}, granted {}",
                            lane.amount
                        );
                        assert!(
                            avail[r].iter().all(|&v| v > -1e-9),
                            "negative availability in lane {r} after a grant"
                        );
                    }
                    epoch.allocated[d.requester][r] += lane.amount;
                    granted_units += lane.amount;
                    cur.granted_units += lane.amount;
                }
                admitted += 1;
                cur.admitted += 1;
            }
            Err(SchedError::InsufficientCapacity { resource, .. }) => {
                denied += 1;
                epoch.rejected[d.requester] = true;
                let lane = resource
                    .and_then(|name| adm.names().iter().position(|&l| l == name))
                    .expect("multi-path rejections name a lane");
                denied_by_lane[lane] += 1;
            }
            Err(e) => panic!("multi-resource admission failed: {e}"),
        }
    }
    epoch.finish(&capacity, telemetry, &mut fairness_checksum, &mut epochs, check);
    hours.push(cur);

    MultiRunResult {
        hours,
        admitted,
        denied,
        denied_by_lane,
        granted_units,
        draws_checksum,
        fairness_checksum,
        epochs,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use agreements_sched::STANDARD_RESOURCES;
    use agreements_telemetry::{Telemetry, DEFAULT_EVENT_CAPACITY};

    /// The trace crate's lane schema and the scheduler's standard schema
    /// are the same object in two crates that cannot depend on each
    /// other; this harness depends on both, so the sync check lives here.
    #[test]
    fn lane_schemas_agree_across_crates() {
        assert_eq!(RESOURCE_NAMES, STANDARD_RESOURCES);
    }

    #[test]
    fn small_day_is_deterministic_and_audited() {
        let cfg = MultiScaleConfig::isp_multi(24, 600, 77);
        let workload = cfg.generate();
        let adm = build_admission(&cfg);
        let (telemetry, recorder) = Telemetry::recorder(DEFAULT_EVENT_CAPACITY);
        let a = run_multi_day(&adm, &workload, &telemetry, true);
        let b = run_multi_day(&adm, &workload, &Telemetry::default(), false);
        assert_eq!(a.draws_checksum, b.draws_checksum, "re-run diverged");
        assert_eq!(a.fairness_checksum, b.fairness_checksum);
        assert_eq!(a.admitted + a.denied, workload.demands.len());
        assert_eq!(a.denied_by_lane.iter().sum::<usize>(), a.denied);
        assert_eq!(a.epochs.len(), a.hours.len());
        let snap = recorder.snapshot();
        assert_eq!(snap.counter("fairness.epochs"), a.epochs.len() as u64);
        assert_eq!(
            snap.counter("fairness.envy_pairs"),
            a.epochs.iter().map(|e| e.envy_pairs as u64).sum::<u64>()
        );
        assert_eq!(
            snap.counter("fairness.justified_complaints"),
            a.epochs.iter().map(|e| e.justified_complaints as u64).sum::<u64>()
        );
    }

    #[test]
    fn tight_bandwidth_lane_binds_under_pressure() {
        // The ISP preset's bandwidth pool is 60% of CPU while class-1
        // principals demand 3x there: with enough load, some denials
        // must cite bandwidth.
        let cfg = MultiScaleConfig::isp_multi(24, 2_000, 9);
        let workload = cfg.generate();
        let adm = build_admission(&cfg);
        let r = run_multi_day(&adm, &workload, &Telemetry::default(), false);
        assert!(r.denied > 0, "workload must produce rejections");
        let bw = RESOURCE_NAMES.iter().position(|&l| l == "bandwidth").unwrap();
        assert!(r.denied_by_lane[bw] > 0, "bandwidth never bound: {:?}", r.denied_by_lane);
    }
}
