//! Differential test oracle for the scale-out sharded enforcement plane.
//!
//! On *uniform-block* economies — complete sharing at 1.0 inside each
//! block, a mutual share β < 0.5 between every cross-block pair — the
//! auto-partitioned hierarchical scheduler is exactly equivalent to the
//! flat level-1 LP: the home fine solve sees the same full-intra pool
//! the flat LP sees, and each coarse inter-group aggregate β·A_G equals
//! the flat LP's per-member sum Σ β·V_m. Every property below holds with
//! closed-form reach `home + β·(total − home)`, so admit/deny verdicts
//! and conservation are checkable against first principles.
//!
//! β stays below the 0.5 mutual-share partition threshold so
//! `auto_partition` recovers exactly the blocks, and requests keep a
//! multiplicative margin from the reach boundary so FP noise cannot flip
//! a verdict.

use agreements_flow::{AgreementMatrix, PartitionOptions, TransitiveFlow};
use agreements_sched::hierarchy::HierarchicalScheduler;
use agreements_sched::{AllocationSolver, SchedError, SystemState};
use proptest::prelude::*;
use std::sync::Arc;

#[derive(Debug, Clone)]
struct ScaleScenario {
    num_groups: usize,
    group_size: usize,
    beta: f64,
    avail: Vec<f64>,
    requester: usize,
    frac: f64,
    over: bool,
}

/// Randomized hierarchical-taxonomy systems, n ≤ 64.
fn arb_scale() -> impl Strategy<Value = ScaleScenario> {
    (2usize..=8, 2usize..=8).prop_flat_map(|(num_groups, group_size)| {
        let n = num_groups * group_size;
        (
            proptest::collection::vec(0u32..=40, n),
            0.05f64..0.45,
            0usize..n,
            0.05f64..0.95,
            any::<bool>(),
        )
            .prop_map(move |(avail, beta, requester, frac, over)| ScaleScenario {
                num_groups,
                group_size,
                beta,
                avail: avail.iter().map(|&a| a as f64).collect(),
                requester,
                frac,
                over,
            })
    })
}

fn economy(sc: &ScaleScenario) -> AgreementMatrix {
    let n = sc.num_groups * sc.group_size;
    let mut s = AgreementMatrix::zeros(n);
    for i in 0..n {
        for j in 0..n {
            if i == j {
                continue;
            }
            if i / sc.group_size == j / sc.group_size {
                s.set(i, j, 1.0).unwrap();
            } else {
                s.set(i, j, sc.beta).unwrap();
            }
        }
    }
    s
}

/// Closed-form reach of `requester` in the uniform-block economy: the
/// whole home block plus β of everything else.
fn reach(sc: &ScaleScenario) -> f64 {
    let home = sc.requester / sc.group_size;
    let home_avail: f64 = sc.avail[home * sc.group_size..(home + 1) * sc.group_size].iter().sum();
    let total: f64 = sc.avail.iter().sum();
    home_avail + sc.beta * (total - home_avail)
}

/// The request amount: a fraction of reach (admit side) or reach plus a
/// ≥ 1.0 margin (deny side) — never near the boundary.
fn amount(sc: &ScaleScenario) -> f64 {
    let r = reach(sc);
    if sc.over {
        r + 1.0 + sc.frac
    } else {
        r * sc.frac
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// The differential oracle: auto-partitioned hierarchical allocation
    /// agrees with the flat level-1 LP on every admit/deny verdict.
    #[test]
    fn hierarchical_verdicts_match_flat_lp(sc in arb_scale()) {
        let s = economy(&sc);
        let sched = HierarchicalScheduler::auto(&s, &PartitionOptions::default(), 1).unwrap();
        prop_assert_eq!(sched.num_groups(), sc.num_groups,
            "auto partition failed to recover the blocks");

        let flow = Arc::new(TransitiveFlow::compute(&s, 1));
        let state = SystemState::new(flow, None, sc.avail.clone()).unwrap();
        let mut flat = AllocationSolver::reduced();

        let x = amount(&sc);
        prop_assume!(x > 1e-9);
        let hier_ok = match sched.allocate(&sc.avail, sc.requester, x) {
            Ok(_) => true,
            Err(SchedError::InsufficientCapacity { .. }) => false,
            Err(e) => return Err(TestCaseError::fail(format!("hier failed: {e}"))),
        };
        let flat_ok = match flat.allocate(&state, sc.requester, x) {
            Ok(_) => true,
            Err(SchedError::InsufficientCapacity { .. }) => false,
            Err(e) => return Err(TestCaseError::fail(format!("flat oracle failed: {e}"))),
        };
        prop_assert_eq!(hier_ok, flat_ok,
            "verdict diverged: requester {}, x {:.6}, reach {:.6}",
            sc.requester, x, reach(&sc));
        // Both sides must match the closed-form reach too.
        prop_assert_eq!(hier_ok, !sc.over, "verdict contradicts closed-form reach");
    }

    /// Admitted allocations conserve the pool: draws sum to the grant,
    /// no member goes below zero or above its availability.
    #[test]
    fn admitted_draws_conserve_pool_totals(sc in arb_scale()) {
        let s = economy(&sc);
        let sched = HierarchicalScheduler::auto(&s, &PartitionOptions::default(), 1).unwrap();
        let x = reach(&sc) * sc.frac;
        prop_assume!(x > 1e-9);
        let alloc = sched.allocate(&sc.avail, sc.requester, x).unwrap();
        let drawn: f64 = alloc.draws.iter().sum();
        prop_assert!((drawn - x).abs() < 1e-6, "drew {drawn}, granted {x}");
        let mut after = sc.avail.clone();
        for (v, &d) in after.iter_mut().zip(&alloc.draws) {
            prop_assert!(d >= -1e-12, "negative draw {d}");
            *v -= d;
            prop_assert!(*v > -1e-9, "member oversubscribed by {v}");
        }
        let before: f64 = sc.avail.iter().sum();
        let remaining: f64 = after.iter().sum();
        prop_assert!((remaining + drawn - before).abs() < 1e-6,
            "pool total not conserved: {remaining} + {drawn} != {before}");
    }
}

// ---------------------------------------------------------------------
// Per-resource differential oracle: the multi-resource hierarchical
// verdict must be the *conjunction* of per-resource flat-LP verdicts —
// admitted iff every resource's flat level-1 LP admits its lane — and a
// rejection must name the first denying lane in resource order. All on
// the same uniform-block economies, so each lane's verdict is also
// checkable against the closed-form reach.
// ---------------------------------------------------------------------

use agreements_sched::MultiAdmission;

#[derive(Debug, Clone)]
struct MultiScaleScenario {
    num_groups: usize,
    group_size: usize,
    beta: f64,
    requester: usize,
    /// One (availability, request fraction, deny?) triple per resource.
    lanes: Vec<(Vec<f64>, f64, bool)>,
}

fn arb_multi_scale() -> impl Strategy<Value = MultiScaleScenario> {
    (2usize..=6, 2usize..=6, 2usize..=3).prop_flat_map(|(num_groups, group_size, rk)| {
        let n = num_groups * group_size;
        (
            0.05f64..0.45,
            0usize..n,
            proptest::collection::vec(
                (proptest::collection::vec(0u32..=40, n), 0.05f64..0.95, any::<bool>()),
                rk,
            ),
        )
            .prop_map(move |(beta, requester, lanes)| MultiScaleScenario {
                num_groups,
                group_size,
                beta,
                requester,
                lanes: lanes
                    .into_iter()
                    .map(|(avail, frac, over)| {
                        (avail.iter().map(|&a| a as f64).collect(), frac, over)
                    })
                    .collect(),
            })
    })
}

fn base_of(sc: &MultiScaleScenario, avail: &[f64], frac: f64, over: bool) -> ScaleScenario {
    ScaleScenario {
        num_groups: sc.num_groups,
        group_size: sc.group_size,
        beta: sc.beta,
        avail: avail.to_vec(),
        requester: sc.requester,
        frac,
        over,
    }
}

const LANE_NAMES: [&str; 3] = ["cpu", "bandwidth", "storage"];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Multi-resource hierarchical verdict ≡ conjunction of per-resource
    /// flat-LP verdicts; rejections name the first denying resource; and
    /// grants conserve each resource's pool independently.
    #[test]
    fn multi_verdict_is_conjunction_of_flat_lane_verdicts(sc in arb_multi_scale()) {
        let s = economy(&base_of(&sc, &sc.lanes[0].0, 0.5, false));
        let rk = sc.lanes.len();
        let schedulers: Vec<_> = (0..rk)
            .map(|_| HierarchicalScheduler::auto(&s, &PartitionOptions::default(), 1).unwrap())
            .collect();
        let multi = MultiAdmission::new(LANE_NAMES[..rk].to_vec(), schedulers).unwrap();

        let flow = Arc::new(TransitiveFlow::compute(&s, 1));
        let mut amounts = Vec::with_capacity(rk);
        let mut flat_verdicts = Vec::with_capacity(rk);
        for (avail, frac, over) in &sc.lanes {
            let lane_sc = base_of(&sc, avail, *frac, *over);
            let x = amount(&lane_sc);
            prop_assume!(x > 1e-9);
            amounts.push(x);
            let state = SystemState::new(flow.clone(), None, avail.clone()).unwrap();
            let mut flat = AllocationSolver::reduced();
            let ok = match flat.allocate(&state, sc.requester, x) {
                Ok(_) => true,
                Err(SchedError::InsufficientCapacity { .. }) => false,
                Err(e) => return Err(TestCaseError::fail(format!("flat oracle failed: {e}"))),
            };
            // The flat verdict itself must match the closed-form reach.
            prop_assert_eq!(ok, !*over, "flat verdict contradicts closed-form reach");
            flat_verdicts.push(ok);
        }

        let mut avail: Vec<Vec<f64>> =
            sc.lanes.iter().map(|(a, _, _)| a.clone()).collect();
        let before: Vec<f64> = avail.iter().map(|a| a.iter().sum()).collect();
        match multi.admit_one(&mut avail, sc.requester, &amounts) {
            Ok(grant) => {
                prop_assert!(flat_verdicts.iter().all(|&v| v),
                    "multi admitted but a flat lane denies: {:?}", flat_verdicts);
                // Per-resource pool conservation.
                prop_assert_eq!(grant.lanes.len(), rk);
                for (r, alloc) in grant.lanes.iter().enumerate() {
                    let drawn: f64 = alloc.draws.iter().sum();
                    prop_assert!((drawn - amounts[r]).abs() < 1e-6,
                        "lane {}: drew {}, granted {}", r, drawn, amounts[r]);
                    let remaining: f64 = avail[r].iter().sum();
                    prop_assert!((remaining + drawn - before[r]).abs() < 1e-6,
                        "lane {}: pool not conserved", r);
                    for (m, &v) in avail[r].iter().enumerate() {
                        prop_assert!(v > -1e-9, "lane {} member {} oversubscribed", r, m);
                    }
                }
            }
            Err(SchedError::InsufficientCapacity { resource, .. }) => {
                let first_deny = flat_verdicts.iter().position(|&v| !v);
                prop_assert!(first_deny.is_some(),
                    "multi denied but every flat lane admits");
                prop_assert_eq!(resource, Some(LANE_NAMES[first_deny.unwrap()]),
                    "rejection names the wrong binding resource");
                // A rejection must leave every lane's pool untouched.
                for (r, (start, _, _)) in sc.lanes.iter().enumerate() {
                    let now: f64 = avail[r].iter().sum();
                    let was: f64 = start.iter().sum();
                    prop_assert!((now - was).abs() == 0.0, "lane {} moved on rejection", r);
                }
            }
            Err(e) => return Err(TestCaseError::fail(format!("multi failed: {e}"))),
        }
    }
}
