//! Multi-resource admission at scale (paper §3.2, scaled path).
//!
//! The flat §3.2 machinery in [`crate::multi`] handles vector requests
//! against one [`SystemState`] whose availability is a single pool. This
//! module instead runs **one full enforcement lane per resource** —
//! CPU, bandwidth, storage — each with its own agreement-derived state
//! and warm LP solver, and admits a request iff *every* resource's LP
//! admits it. A rejection names the **binding resource**: the first
//! lane, in resource order, whose admission failed.
//!
//! Two front doors mirror the single-resource stack:
//!
//! - [`MultiSolver`] — flat per-lane [`AllocationSolver`]s over a slice
//!   of [`SystemState`]s (the GRM server's engine).
//! - [`MultiAdmission`] — per-lane [`HierarchicalScheduler`]s (the
//!   scaled engine), deciding one request at a time.
//!
//! # Degeneracy contract
//!
//! With a single lane, [`MultiAdmission::admit_one`] reduces to the
//! exact single-resource algorithm: the same
//! [`HierarchicalScheduler::allocate`] call followed by the same
//! `(v − d).max(0.0)` commit, so decisions and availability are
//! **bit-identical** to the single-resource path — the only difference
//! is that `InsufficientCapacity` rejections carry `resource:
//! Some(name)` instead of `None`. `tests/proptest_multires.rs` pins this.

use crate::error::SchedError;
use crate::hierarchy::HierarchicalScheduler;
use crate::solver::AllocationSolver;
use crate::state::{Allocation, SystemState};
use agreements_telemetry::Telemetry;

/// The standard three-resource schema, in lane order.
pub const STANDARD_RESOURCES: [&str; 3] = ["cpu", "bandwidth", "storage"];

/// A per-resource amount vector in lane order (CPU, bandwidth, storage
/// under [`STANDARD_RESOURCES`]; any arity is allowed).
#[derive(Debug, Clone, PartialEq)]
pub struct ResourceVector(pub Vec<f64>);

impl ResourceVector {
    /// The standard three-resource vector.
    pub fn cpu_bandwidth_storage(cpu: f64, bandwidth: f64, storage: f64) -> Self {
        ResourceVector(vec![cpu, bandwidth, storage])
    }

    /// The same amount in every one of `k` lanes.
    pub fn uniform(amount: f64, k: usize) -> Self {
        ResourceVector(vec![amount; k])
    }

    /// Number of resource lanes.
    pub fn len(&self) -> usize {
        self.0.len()
    }

    /// Whether the vector has no lanes.
    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }

    /// The amounts as a slice, lane order.
    pub fn as_slice(&self) -> &[f64] {
        &self.0
    }

    /// Sum across lanes (total units requested, all resources).
    pub fn total(&self) -> f64 {
        self.0.iter().sum()
    }
}

impl From<Vec<f64>> for ResourceVector {
    fn from(v: Vec<f64>) -> Self {
        ResourceVector(v)
    }
}

impl std::ops::Index<usize> for ResourceVector {
    type Output = f64;
    fn index(&self, r: usize) -> &f64 {
        &self.0[r]
    }
}

/// A granted multi-resource request: one [`Allocation`] per lane, in
/// resource order. Grants are atomic — every lane admitted, or the
/// whole request was rejected and no lane's availability moved.
#[derive(Debug, Clone, PartialEq)]
pub struct MultiAllocation {
    /// Per-resource allocations, lane order.
    pub lanes: Vec<Allocation>,
}

impl MultiAllocation {
    /// Total units granted across all lanes.
    pub fn total(&self) -> f64 {
        self.lanes.iter().map(|a| a.amount).sum()
    }
}

/// Stamp the binding-resource name onto a capacity rejection; other
/// error kinds (validation, LP trouble) pass through untouched.
fn tag(e: SchedError, name: &'static str) -> SchedError {
    match e {
        SchedError::InsufficientCapacity { requester, capacity, requested, .. } => {
            SchedError::InsufficientCapacity {
                requester,
                capacity,
                requested,
                resource: Some(name),
            }
        }
        other => other,
    }
}

/// Flat per-resource admission: one warm [`AllocationSolver`] per lane
/// over caller-owned [`SystemState`]s. This is the multi-resource
/// analogue of the GRM server's single cached solver.
#[derive(Debug)]
pub struct MultiSolver {
    names: Vec<&'static str>,
    solvers: Vec<AllocationSolver>,
}

impl MultiSolver {
    /// One warm reduced-form solver per named resource lane.
    pub fn reduced(names: Vec<&'static str>) -> Self {
        let solvers = names.iter().map(|_| AllocationSolver::reduced()).collect();
        MultiSolver { names, solvers }
    }

    /// The resource names, lane order.
    pub fn names(&self) -> &[&'static str] {
        &self.names
    }

    /// Number of resource lanes.
    pub fn num_resources(&self) -> usize {
        self.names.len()
    }

    /// Attach a telemetry plane to every lane's solver.
    pub fn set_telemetry(&mut self, telemetry: Telemetry) {
        for s in &mut self.solvers {
            s.set_telemetry(telemetry.clone());
        }
    }

    /// Evaluate every lane in resource order and return the per-lane
    /// allocations iff all admit. The first lane to refuse decides the
    /// verdict, with capacity rejections tagged by that lane's name.
    /// States are not mutated — the caller commits grants.
    pub fn allocate(
        &mut self,
        states: &[SystemState],
        requester: usize,
        amounts: &[f64],
    ) -> Result<MultiAllocation, SchedError> {
        let k = self.names.len();
        if states.len() != k {
            return Err(SchedError::DimensionMismatch { expected: k, got: states.len() });
        }
        if amounts.len() != k {
            return Err(SchedError::DimensionMismatch { expected: k, got: amounts.len() });
        }
        let mut lanes = Vec::with_capacity(k);
        for (r, (state, solver)) in states.iter().zip(&mut self.solvers).enumerate() {
            match solver.allocate(state, requester, amounts[r]) {
                Ok(a) => lanes.push(a),
                Err(e) => return Err(tag(e, self.names[r])),
            }
        }
        Ok(MultiAllocation { lanes })
    }
}

/// Multi-resource admission over one [`HierarchicalScheduler`] per
/// resource lane (see module docs for the single-lane degeneracy
/// contract). All lanes must share the same
/// principal partition; availability is one vector per lane.
#[derive(Debug)]
pub struct MultiAdmission {
    names: Vec<&'static str>,
    lanes: Vec<HierarchicalScheduler>,
}

impl MultiAdmission {
    /// Wrap one scheduler per named resource. Fails with
    /// [`SchedError::DimensionMismatch`] if names and lanes disagree in
    /// count, no lanes are given, or the lanes' group partitions differ
    /// (the lanes govern one set of principals).
    pub fn new(
        names: Vec<&'static str>,
        lanes: Vec<HierarchicalScheduler>,
    ) -> Result<Self, SchedError> {
        if names.len() != lanes.len() {
            return Err(SchedError::DimensionMismatch { expected: names.len(), got: lanes.len() });
        }
        if lanes.is_empty() {
            return Err(SchedError::DimensionMismatch { expected: 1, got: 0 });
        }
        for lane in &lanes[1..] {
            if lane.groups() != lanes[0].groups() {
                return Err(SchedError::DimensionMismatch {
                    expected: lanes[0].num_principals(),
                    got: lane.num_principals(),
                });
            }
        }
        Ok(MultiAdmission { names, lanes })
    }

    /// The resource names, lane order.
    pub fn names(&self) -> &[&'static str] {
        &self.names
    }

    /// Number of resource lanes.
    pub fn num_resources(&self) -> usize {
        self.names.len()
    }

    /// Number of principals (identical across lanes).
    pub fn num_principals(&self) -> usize {
        self.lanes[0].num_principals()
    }

    /// The scheduler driving resource lane `r`.
    pub fn lane(&self, r: usize) -> &HierarchicalScheduler {
        &self.lanes[r]
    }

    /// Attach a telemetry plane to every lane.
    pub fn set_telemetry(&mut self, telemetry: Telemetry) {
        for lane in &mut self.lanes {
            lane.set_telemetry(telemetry.clone());
        }
    }

    /// Renegotiate one inter-group agreement in every lane; returns the
    /// coarse rows recomputed in the last lane (identical counts, the
    /// partitions being shared).
    pub fn set_inter(
        &mut self,
        from_group: usize,
        to_group: usize,
        share: f64,
    ) -> Result<usize, SchedError> {
        let mut rows = 0;
        for lane in &mut self.lanes {
            rows = lane.set_inter(from_group, to_group, share)?;
        }
        Ok(rows)
    }

    /// Admit a single multi-resource request: evaluate every lane in
    /// resource order against its availability vector (no mutation),
    /// and only if all admit, commit each lane's draws with the GRM's
    /// `(v − d).max(0.0)` expression. The first refusing lane decides
    /// the verdict; capacity rejections are tagged with that lane's
    /// name. Errors leave every availability vector untouched.
    pub fn admit_one(
        &self,
        availability: &mut [Vec<f64>],
        requester: usize,
        amounts: &[f64],
    ) -> Result<MultiAllocation, SchedError> {
        let k = self.lanes.len();
        if availability.len() != k {
            return Err(SchedError::DimensionMismatch { expected: k, got: availability.len() });
        }
        if amounts.len() != k {
            return Err(SchedError::DimensionMismatch { expected: k, got: amounts.len() });
        }
        let mut lanes = Vec::with_capacity(k);
        for r in 0..k {
            match self.lanes[r].allocate(&availability[r], requester, amounts[r]) {
                Ok(a) => lanes.push(a),
                Err(e) => return Err(tag(e, self.names[r])),
            }
        }
        for (avail, alloc) in availability.iter_mut().zip(&lanes) {
            for (v, d) in avail.iter_mut().zip(&alloc.draws) {
                *v = (*v - *d).max(0.0);
            }
        }
        Ok(MultiAllocation { lanes })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use agreements_flow::AgreementMatrix;

    /// 2 groups of 3; groups share 50% each way.
    fn lane() -> HierarchicalScheduler {
        let groups = vec![vec![0, 1, 2], vec![3, 4, 5]];
        let mut inter = AgreementMatrix::zeros(2);
        inter.set(0, 1, 0.5).unwrap();
        inter.set(1, 0, 0.5).unwrap();
        HierarchicalScheduler::new(groups, &inter, 1).unwrap()
    }

    fn multi(rk: usize) -> MultiAdmission {
        let names: Vec<&'static str> = STANDARD_RESOURCES[..rk].to_vec();
        MultiAdmission::new(names, (0..rk).map(|_| lane()).collect()).unwrap()
    }

    #[test]
    fn rejection_names_the_binding_resource() {
        let m = multi(3);
        // Plenty of CPU and storage; bandwidth pool nearly empty.
        let mut avail = vec![vec![8.0; 6], vec![0.1; 6], vec![8.0; 6]];
        let err = m.admit_one(&mut avail, 0, &[2.0, 2.0, 2.0]).unwrap_err();
        match err {
            SchedError::InsufficientCapacity { resource, .. } => {
                assert_eq!(resource, Some("bandwidth"));
            }
            other => panic!("expected capacity rejection, got {other:?}"),
        }
        // Rejection left every lane untouched (atomicity).
        assert!(avail[0].iter().all(|&v| v == 8.0));
        assert!(avail[2].iter().all(|&v| v == 8.0));
    }

    #[test]
    fn grant_commits_every_lane() {
        let m = multi(2);
        let mut avail = vec![vec![4.0; 6], vec![4.0; 6]];
        let got = m.admit_one(&mut avail, 1, &[3.0, 1.0]).unwrap();
        assert_eq!(got.lanes.len(), 2);
        assert!((got.total() - 4.0).abs() < 1e-9);
        let cpu_left: f64 = avail[0].iter().sum();
        let bw_left: f64 = avail[1].iter().sum();
        assert!((cpu_left - 21.0).abs() < 1e-9, "cpu pool {cpu_left}");
        assert!((bw_left - 23.0).abs() < 1e-9, "bandwidth pool {bw_left}");
    }

    #[test]
    fn mismatched_partitions_are_refused() {
        let a = lane();
        let groups = vec![vec![0, 1], vec![2, 3, 4, 5]];
        let mut inter = AgreementMatrix::zeros(2);
        inter.set(0, 1, 0.5).unwrap();
        let b = HierarchicalScheduler::new(groups, &inter, 1).unwrap();
        assert!(matches!(
            MultiAdmission::new(vec!["cpu", "bandwidth"], vec![a, b]),
            Err(SchedError::DimensionMismatch { .. })
        ));
    }

    #[test]
    fn flat_multi_solver_names_binding_lane() {
        use agreements_flow::TransitiveFlow;
        let mut s = AgreementMatrix::zeros(2);
        s.set(0, 1, 0.5).unwrap();
        s.set(1, 0, 0.5).unwrap();
        let flow = TransitiveFlow::compute(&s, 1);
        let states = vec![
            SystemState::new(flow.clone(), None, vec![5.0, 5.0]).unwrap(),
            SystemState::new(flow, None, vec![0.5, 0.5]).unwrap(),
        ];
        let mut solver = MultiSolver::reduced(vec!["cpu", "bandwidth"]);
        let got = solver.allocate(&states, 0, &[2.0, 0.5]).unwrap();
        assert_eq!(got.lanes.len(), 2);
        let err = solver.allocate(&states, 0, &[2.0, 3.0]).unwrap_err();
        match err {
            SchedError::InsufficientCapacity { resource, .. } => {
                assert_eq!(resource, Some("bandwidth"));
            }
            other => panic!("expected capacity rejection, got {other:?}"),
        }
    }
}
