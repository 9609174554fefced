//! Degeneracy oracle for the multi-resource admission path.
//!
//! A single-resource config routed through [`MultiAdmission`] with one
//! lane must be **bit-identical** to the single-resource path —
//! [`HierarchicalScheduler::allocate`] followed by the GRM's
//! `(v − d).max(0.0)` commit — in verdicts, grants (amount, theta, every
//! draw), and the availability vector left behind. The one sanctioned
//! difference: multi-path capacity
//! rejections carry `resource: Some("cpu")` where the single path says
//! `None` — the payload is otherwise identical, which is exactly what
//! these properties check after substituting the tag out.
//!
//! The same contract holds on the flat path: a one-lane [`MultiSolver`]
//! behind [`first_binding_resource`] decides exactly as the
//! single-resource [`AllocationSolver`] behind
//! [`admission_bound`]/[`exceeds_bound`] — the pairing the GRM server's
//! flat engine relies on when it serves single-resource requests as its
//! one untagged lane.
//!
//! This mirrors the invariant `tests/multires_consistency.rs` pins for
//! the proxysim, now at the scaled enforcement layer: the multi-resource
//! machinery must not perturb single-resource behavior at all.

use agreements_flow::{AgreementMatrix, TransitiveFlow};
use agreements_sched::{
    admission_bound, exceeds_bound, first_binding_resource, Allocation, AllocationSolver,
    HierarchicalScheduler, MultiAdmission, MultiAllocation, MultiSolver, SchedError, SystemState,
};
use proptest::prelude::*;

#[derive(Debug, Clone)]
struct DegenScenario {
    num_groups: usize,
    group_size: usize,
    beta: f64,
    avail: Vec<f64>,
    /// (requester, amount) stream; requesters past `n` cover the
    /// unknown-principal path, negative amounts the invalid path.
    reqs: Vec<(usize, f64)>,
}

fn arb_degen() -> impl Strategy<Value = DegenScenario> {
    (2usize..=5, 1usize..=5).prop_flat_map(|(num_groups, group_size)| {
        let n = num_groups * group_size;
        (
            proptest::collection::vec(0u32..=20, n),
            0.05f64..0.45,
            proptest::collection::vec((0usize..n + 2, -2.0f64..40.0), 1..=24),
        )
            .prop_map(move |(avail, beta, reqs)| DegenScenario {
                num_groups,
                group_size,
                beta,
                avail: avail.iter().map(|&a| a as f64).collect(),
                reqs,
            })
    })
}

fn build_sched(sc: &DegenScenario) -> HierarchicalScheduler {
    let g = sc.num_groups;
    let mut inter = AgreementMatrix::zeros(g);
    for i in 0..g {
        for j in 0..g {
            if i != j {
                inter.set(i, j, sc.beta).unwrap();
            }
        }
    }
    let groups: Vec<Vec<usize>> =
        (0..g).map(|gi| (gi * sc.group_size..(gi + 1) * sc.group_size).collect()).collect();
    HierarchicalScheduler::new(groups, &inter, 1).unwrap()
}

fn build_multi(sc: &DegenScenario) -> MultiAdmission {
    MultiAdmission::new(vec!["cpu"], vec![build_sched(sc)]).unwrap()
}

/// The single-resource path: allocate, then commit the draws with the
/// GRM's `(v − d).max(0.0)` expression. Errors leave `avail` untouched.
fn admit_single(
    sched: &HierarchicalScheduler,
    avail: &mut [f64],
    requester: usize,
    amount: f64,
) -> Result<Allocation, SchedError> {
    let alloc = sched.allocate(avail, requester, amount)?;
    for (v, d) in avail.iter_mut().zip(&alloc.draws) {
        *v = (*v - *d).max(0.0);
    }
    Ok(alloc)
}

fn bits(v: &[f64]) -> Vec<u64> {
    v.iter().map(|x| x.to_bits()).collect()
}

/// Strip the binding-resource tag so multi-path errors can be compared
/// against single-path errors, after asserting the tag is the one the
/// single lane must carry.
fn untag(e: &SchedError) -> Result<SchedError, TestCaseError> {
    Ok(match e {
        SchedError::InsufficientCapacity { requester, capacity, requested, resource } => {
            prop_assert_eq!(*resource, Some("cpu"), "single-lane rejections must cite cpu");
            SchedError::InsufficientCapacity {
                requester: *requester,
                capacity: *capacity,
                requested: *requested,
                resource: None,
            }
        }
        other => other.clone(),
    })
}

/// Bitwise comparison of a single-resource decision stream against a
/// one-lane multi-resource stream.
fn assert_degenerate_identical(
    single: &[Result<Allocation, SchedError>],
    multi: &[Result<MultiAllocation, SchedError>],
) -> Result<(), TestCaseError> {
    prop_assert_eq!(single.len(), multi.len());
    for (i, (a, b)) in single.iter().zip(multi).enumerate() {
        match (a, b) {
            (Ok(x), Ok(y)) => {
                prop_assert_eq!(y.lanes.len(), 1, "slot {}", i);
                let y = &y.lanes[0];
                prop_assert_eq!(x.requester, y.requester, "slot {}", i);
                prop_assert_eq!(x.amount.to_bits(), y.amount.to_bits(), "slot {}", i);
                prop_assert_eq!(x.theta.to_bits(), y.theta.to_bits(), "slot {}", i);
                prop_assert_eq!(bits(&x.draws), bits(&y.draws), "slot {}", i);
            }
            (Err(x), Err(y)) => {
                let y = untag(y)?;
                prop_assert_eq!(format!("{x:?}"), format!("{y:?}"), "slot {}", i);
            }
            (a, b) => {
                return Err(TestCaseError::fail(format!(
                    "slot {i}: verdicts diverge: single {a:?} vs multi {b:?}"
                )));
            }
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// admit_one through one lane ≡ the single-resource allocate and
    /// commit, request for request.
    #[test]
    fn single_lane_admit_one_is_bit_identical(sc in arb_degen()) {
        let single = build_sched(&sc);
        let multi = build_multi(&sc);
        let mut avail_s = sc.avail.clone();
        let mut avail_m = vec![sc.avail.clone()];
        for &(requester, amount) in &sc.reqs {
            let s = admit_single(&single, &mut avail_s, requester, amount);
            let m = multi.admit_one(&mut avail_m, requester, &[amount]);
            assert_degenerate_identical(
                std::slice::from_ref(&s),
                std::slice::from_ref(&m),
            )?;
            prop_assert_eq!(bits(&avail_s), bits(&avail_m[0]), "availability diverged");
        }
    }
}

#[derive(Debug, Clone)]
struct FlatScenario {
    n: usize,
    level: usize,
    /// Agreement edges `(from, to, share)`; diagonal ones are skipped.
    edges: Vec<(usize, usize, f64)>,
    avail: Vec<f64>,
    /// (requester, amount) stream over zero, negative, NaN, infinite,
    /// over-capacity and ordinary amounts.
    reqs: Vec<(usize, f64)>,
}

fn arb_flat() -> impl Strategy<Value = FlatScenario> {
    (2usize..=7).prop_flat_map(|n| {
        (
            1usize..n,
            proptest::collection::vec((0usize..n, 0usize..n, 0.05f64..0.6), 0..=3 * n),
            proptest::collection::vec(0u32..=20, n),
            proptest::collection::vec((0usize..n, 0u8..12, 0.0f64..40.0), 1..=24),
        )
            .prop_map(move |(level, edges, avail, reqs)| FlatScenario {
                n,
                level,
                edges,
                avail: avail.iter().map(|&a| a as f64).collect(),
                reqs: reqs
                    .into_iter()
                    .map(|(r, kind, x)| {
                        let amount = match kind {
                            0 => 0.0,
                            1 => -x - 0.5,
                            2 => f64::NAN,
                            3 => f64::INFINITY,
                            4 => 1e6 + x,
                            _ => x,
                        };
                        (r, amount)
                    })
                    .collect(),
            })
    })
}

fn flat_state(sc: &FlatScenario) -> SystemState {
    let mut s = AgreementMatrix::zeros(sc.n);
    for &(i, j, share) in &sc.edges {
        if i != j {
            s.set(i, j, share).unwrap();
        }
    }
    SystemState::new(TransitiveFlow::compute(&s, sc.level), None, sc.avail.clone()).unwrap()
}

/// The GRM's `(v − d).max(0.0)` commit.
fn commit(avail: &mut [f64], draws: &[f64]) {
    for (v, d) in avail.iter_mut().zip(draws) {
        *v = (*v - *d).max(0.0);
    }
}

/// The single-resource flat decision: the capacity fast reject for a
/// positive finite amount, then the solver, then the commit.
fn flat_single(
    solver: &mut AllocationSolver,
    state: &mut SystemState,
    bound: &mut Vec<f64>,
    requester: usize,
    amount: f64,
) -> Result<Allocation, SchedError> {
    if amount.is_finite() && amount > 0.0 {
        let reachable = admission_bound(state, requester, bound);
        if exceeds_bound(amount, reachable) {
            return Err(SchedError::InsufficientCapacity {
                requester,
                capacity: reachable,
                requested: amount,
                resource: None,
            });
        }
    }
    let alloc = solver.allocate(state, requester, amount)?;
    commit(&mut state.availability, &alloc.draws);
    Ok(alloc)
}

/// The lane decision: the lane fast reject when every amount is valid,
/// then the lane solver, then the commit of every lane.
fn flat_lanes(
    solver: &mut MultiSolver,
    states: &mut [SystemState],
    bound: &mut Vec<f64>,
    requester: usize,
    amounts: &[f64],
) -> Result<MultiAllocation, SchedError> {
    if amounts.iter().all(|a| a.is_finite() && *a >= 0.0) {
        if let Some((lane, reachable)) = first_binding_resource(states, requester, amounts, bound) {
            return Err(SchedError::InsufficientCapacity {
                requester,
                capacity: reachable,
                requested: amounts[lane],
                resource: Some(solver.names()[lane]),
            });
        }
    }
    let alloc = solver.allocate(states, requester, amounts)?;
    for (st, lane) in states.iter_mut().zip(&alloc.lanes) {
        commit(&mut st.availability, &lane.draws);
    }
    Ok(alloc)
}

/// An error's payload with every float as its bit pattern (so NaN and
/// signed zeros compare exactly) and the lane tag checked, then dropped.
fn error_key(e: &SchedError, tag: Option<&'static str>) -> Result<String, TestCaseError> {
    Ok(match e {
        SchedError::InsufficientCapacity { requester, capacity, requested, resource } => {
            prop_assert_eq!(*resource, tag);
            format!("capacity {requester} {:#x} {:#x}", capacity.to_bits(), requested.to_bits())
        }
        SchedError::InvalidRequest { amount } => format!("invalid {:#x}", amount.to_bits()),
        other => format!("{other:?}"),
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// One flat lane behind `first_binding_resource` ≡ the
    /// single-resource solver behind `admission_bound`/`exceeds_bound`,
    /// request for request: verdicts, draws, theta, amount, capacity and
    /// the availability left behind, bit for bit.
    #[test]
    fn single_flat_lane_is_bit_identical(sc in arb_flat()) {
        let mut state_s = flat_state(&sc);
        let mut states_m = vec![flat_state(&sc)];
        let (mut single, mut multi) = (AllocationSolver::reduced(), MultiSolver::reduced(vec!["cpu"]));
        let (mut bound_s, mut bound_m) = (Vec::new(), Vec::new());
        for (i, &(requester, amount)) in sc.reqs.iter().enumerate() {
            let s = flat_single(&mut single, &mut state_s, &mut bound_s, requester, amount);
            let m = flat_lanes(&mut multi, &mut states_m, &mut bound_m, requester, &[amount]);
            match (&s, &m) {
                (Ok(x), Ok(y)) => {
                    prop_assert_eq!(y.lanes.len(), 1);
                    let y = &y.lanes[0];
                    prop_assert_eq!(x.requester, y.requester, "slot {}", i);
                    prop_assert_eq!(x.amount.to_bits(), y.amount.to_bits(), "slot {}", i);
                    prop_assert_eq!(x.theta.to_bits(), y.theta.to_bits(), "slot {}", i);
                    prop_assert_eq!(bits(&x.draws), bits(&y.draws), "slot {}", i);
                }
                (Err(x), Err(y)) => {
                    prop_assert_eq!(error_key(x, None)?, error_key(y, Some("cpu"))?, "slot {}", i);
                }
                _ => {
                    return Err(TestCaseError::fail(format!(
                        "slot {i}: verdicts diverge: single {s:?} vs lane {m:?}"
                    )));
                }
            }
            prop_assert_eq!(
                bits(&state_s.availability),
                bits(&states_m[0].availability),
                "availability diverged at slot {}",
                i
            );
        }
    }
}

/// Deterministic regression case: a mixed stream (fine grants, a coarse
/// overflow, an unknown principal, an invalid amount, a capacity
/// rejection, a zero request) through both engines.
#[test]
fn degeneracy_regression_case() {
    let sc = DegenScenario {
        num_groups: 2,
        group_size: 3,
        beta: 0.5,
        avail: vec![4.0, 3.0, 2.0, 8.0, 8.0, 8.0],
        reqs: vec![
            (0, 2.0),
            (4, 3.0),
            (1, 4.5),
            (2, 9.0),  // overflows onto the coarse path
            (9, 1.0),  // unknown principal
            (5, -1.0), // invalid amount
            (3, 2.0),
            (0, 100.0), // rejection: beyond reach
            (5, 0.0),
        ],
    };
    let single = build_sched(&sc);
    let multi = build_multi(&sc);
    let mut avail_s = sc.avail.clone();
    let s: Vec<_> =
        sc.reqs.iter().map(|&(r, x)| admit_single(&single, &mut avail_s, r, x)).collect();
    let mut avail_m = vec![sc.avail.clone()];
    let m: Vec<_> = sc.reqs.iter().map(|&(r, x)| multi.admit_one(&mut avail_m, r, &[x])).collect();

    assert_degenerate_identical(&s, &m).unwrap();
    assert_eq!(bits(&avail_s), bits(&avail_m[0]));
    // The stream exercises every decision class.
    assert!(s.iter().filter(|d| d.is_ok()).count() >= 5);
    assert!(matches!(s[4], Err(SchedError::UnknownPrincipal { .. })));
    assert!(matches!(s[5], Err(SchedError::InvalidRequest { .. })));
    assert!(matches!(s[7], Err(SchedError::InsufficientCapacity { .. })));
    assert!(matches!(m[7], Err(SchedError::InsufficientCapacity { resource: Some("cpu"), .. })));
}
