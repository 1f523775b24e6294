//! Allocation policies: which machine gets the task.
//!
//! The second half of the paper's *dual problem* of scheduling (C7) is
//! allocating tasks to already-provisioned resources. These policies cover
//! the classic spectrum — first/best/worst-fit bin packing, random, least
//! loaded — plus the heterogeneity-aware fastest-machine policy that C4
//! motivates.

use mcs_infra::cluster::Cluster;
use mcs_infra::machine::{Machine, MachineId};
use mcs_infra::resource::ResourceVector;
use mcs_simcore::rng::RngStream;
use std::cmp::Ordering;

/// The machine-selection policies available to the scheduler.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AllocationPolicy {
    /// First machine (by id) that fits.
    FirstFit,
    /// Feasible machine with the least remaining capacity (tight packing).
    BestFit,
    /// Feasible machine with the most remaining capacity (load spreading).
    WorstFit,
    /// Uniformly random feasible machine.
    Random,
    /// Feasible machine with the lowest dominant-share utilization.
    LeastLoaded,
    /// Feasible machine with the highest speed-up for this request
    /// (heterogeneity-aware, C4).
    FastestFirst,
}

impl AllocationPolicy {
    /// All policies, for sweeps and portfolio construction.
    pub const ALL: [AllocationPolicy; 6] = [
        AllocationPolicy::FirstFit,
        AllocationPolicy::BestFit,
        AllocationPolicy::WorstFit,
        AllocationPolicy::Random,
        AllocationPolicy::LeastLoaded,
        AllocationPolicy::FastestFirst,
    ];

    /// A short stable name for reports.
    pub fn name(&self) -> &'static str {
        match self {
            AllocationPolicy::FirstFit => "first-fit",
            AllocationPolicy::BestFit => "best-fit",
            AllocationPolicy::WorstFit => "worst-fit",
            AllocationPolicy::Random => "random",
            AllocationPolicy::LeastLoaded => "least-loaded",
            AllocationPolicy::FastestFirst => "fastest-first",
        }
    }

    /// Selects a machine for `req` in `cluster`, or `None` when nothing fits.
    ///
    /// One pass over the feasible machines, with no allocation: the
    /// minimizing policies keep the first of equal keys and the maximizing
    /// ones the last (the tie rules of `Iterator::min_by`/`max_by`), and
    /// `Random` counts the feasible machines before its single draw.
    pub fn select(
        &self,
        cluster: &Cluster,
        req: &ResourceVector,
        rng: &mut RngStream,
    ) -> Option<MachineId> {
        let mut feasible = cluster.feasible_machines(req);
        let chosen = match self {
            AllocationPolicy::FirstFit => feasible.next(),
            AllocationPolicy::BestFit => min_by_key(feasible, |m| remaining_after(m, req)),
            AllocationPolicy::WorstFit => max_by_key(feasible, |m| remaining_after(m, req)),
            AllocationPolicy::Random => {
                let n = feasible.count();
                if n == 0 {
                    return None;
                }
                cluster.feasible_machines(req).nth(rng.uniform_usize(n))
            }
            AllocationPolicy::LeastLoaded => min_by_key(feasible, Machine::utilization),
            AllocationPolicy::FastestFirst => max_by_key(feasible, |m| m.speedup_for(req)),
        };
        chosen.map(Machine::id)
    }
}

/// The first machine with the smallest `key`; incomparable keys count as
/// equal, as in `min_by` over `partial_cmp().unwrap_or(Equal)`.
pub(crate) fn min_by_key<'a>(
    machines: impl Iterator<Item = &'a Machine>,
    key: impl Fn(&Machine) -> f64,
) -> Option<&'a Machine> {
    machines
        .map(|m| (m, key(m)))
        .reduce(|best, next| {
            if best.1.partial_cmp(&next.1) == Some(Ordering::Greater) { next } else { best }
        })
        .map(|(m, _)| m)
}

/// The last machine with the largest `key`; incomparable keys count as
/// equal, as in `max_by` over `partial_cmp().unwrap_or(Equal)`.
fn max_by_key<'a>(
    machines: impl Iterator<Item = &'a Machine>,
    key: impl Fn(&Machine) -> f64,
) -> Option<&'a Machine> {
    machines
        .map(|m| (m, key(m)))
        .reduce(|best, next| {
            if best.1.partial_cmp(&next.1) == Some(Ordering::Greater) { best } else { next }
        })
        .map(|(m, _)| m)
}

/// Scalar "how much room is left after placing req": the sum of normalized
/// residuals over the dimensions the request actually uses, lower = tighter
/// fit. Ignoring unrequested dimensions keeps a GPU box from looking "empty"
/// to a CPU-only task.
pub(crate) fn remaining_after(m: &Machine, req: &ResourceVector) -> f64 {
    let avail = m.available();
    let cap = m.capacity();
    let resid = avail - *req;
    let norm = |want: f64, v: f64, c: f64| if want > 0.0 && c > 0.0 { v / c } else { 0.0 };
    norm(req.cpu_cores, resid.cpu_cores, cap.cpu_cores)
        + norm(req.memory_gb, resid.memory_gb, cap.memory_gb)
        + norm(req.accelerators, resid.accelerators, cap.accelerators)
}

#[cfg(test)]
mod tests {
    use super::*;
    use mcs_infra::cluster::ClusterId;
    use mcs_infra::machine::MachineSpec;

    fn mixed_cluster() -> Cluster {
        let mut c = Cluster::new(ClusterId(0), "mixed");
        c.add_machine(MachineSpec::commodity("small", 4.0, 16.0)); // m0
        c.add_machine(MachineSpec::commodity("big", 16.0, 64.0)); // m1
        c.add_machine(MachineSpec::gpu("gpu", 8.0, 32.0, 2.0)); // m2
        c
    }

    #[test]
    fn first_fit_takes_lowest_id() {
        let c = mixed_cluster();
        let mut rng = RngStream::new(1, "alloc");
        let id = AllocationPolicy::FirstFit
            .select(&c, &ResourceVector::new(2.0, 4.0), &mut rng)
            .unwrap();
        assert_eq!(id, MachineId(0));
    }

    #[test]
    fn best_fit_packs_tightly() {
        let c = mixed_cluster();
        let mut rng = RngStream::new(1, "alloc");
        // 4 cores fits exactly on the small machine: best fit.
        let id = AllocationPolicy::BestFit
            .select(&c, &ResourceVector::new(4.0, 16.0), &mut rng)
            .unwrap();
        assert_eq!(id, MachineId(0));
    }

    #[test]
    fn worst_fit_spreads() {
        let c = mixed_cluster();
        let mut rng = RngStream::new(1, "alloc");
        let id = AllocationPolicy::WorstFit
            .select(&c, &ResourceVector::new(1.0, 1.0), &mut rng)
            .unwrap();
        assert_eq!(id, MachineId(1)); // the big machine has most residual
    }

    #[test]
    fn least_loaded_avoids_busy_machines() {
        let mut c = mixed_cluster();
        c.machine_mut(MachineId(0)).try_allocate(&ResourceVector::new(3.0, 1.0));
        c.machine_mut(MachineId(1)).try_allocate(&ResourceVector::new(2.0, 1.0));
        let mut rng = RngStream::new(1, "alloc");
        let id = AllocationPolicy::LeastLoaded
            .select(&c, &ResourceVector::new(1.0, 1.0), &mut rng)
            .unwrap();
        assert_eq!(id, MachineId(2)); // empty GPU box
    }

    #[test]
    fn fastest_first_prefers_accelerators_for_accel_work() {
        let c = mixed_cluster();
        let mut rng = RngStream::new(1, "alloc");
        let req = ResourceVector::new(1.0, 1.0).with_accelerators(1.0);
        let id = AllocationPolicy::FastestFirst.select(&c, &req, &mut rng).unwrap();
        assert_eq!(id, MachineId(2));
    }

    #[test]
    fn none_when_nothing_fits() {
        let c = mixed_cluster();
        let mut rng = RngStream::new(1, "alloc");
        assert!(AllocationPolicy::FirstFit
            .select(&c, &ResourceVector::new(64.0, 1.0), &mut rng)
            .is_none());
    }

    #[test]
    fn random_is_feasible_and_varied() {
        let c = mixed_cluster();
        let mut rng = RngStream::new(2, "alloc");
        let mut seen = std::collections::HashSet::new();
        for _ in 0..100 {
            let id = AllocationPolicy::Random
                .select(&c, &ResourceVector::new(1.0, 1.0), &mut rng)
                .unwrap();
            seen.insert(id);
        }
        assert_eq!(seen.len(), 3);
    }

    #[test]
    fn all_policies_have_names() {
        for p in AllocationPolicy::ALL {
            assert!(!p.name().is_empty());
        }
    }
}
