//! Max-min fair-share bandwidth allocation (progressive filling).
//!
//! Given the set of active flows (each a list of links it crosses) and the
//! current per-link capacities, the allocator answers: *what rate does each
//! flow get right now?* It implements the classic water-filling scheme from
//! the flow-level simulation tradition (SimGrid lineage, PAPERS.md): find
//! the most contended link, freeze every flow crossing it at that link's
//! fair share, subtract what they consume everywhere, repeat.
//!
//! Like SimGrid's solver, [`MaxMin`] touches only the constraints the active
//! flows use: each call registers the links some flow crosses, scans only
//! those in each round, and resets what it touched on exit, so a call costs
//! time in the flows and their links, not in the size of the fabric. Its
//! scratch buffers persist across calls, so a reused solver allocates
//! nothing once they have grown to the largest call seen. The network actor
//! keeps one solver and feeds it the topology's cached capacities.
//!
//! The computation is pure and deterministic: links are scanned in id order
//! and ties break toward the lowest id, flows are frozen in the order given,
//! so equal inputs produce bit-equal rates — the property the scenario
//! determinism gates rely on.

use crate::topology::LinkId;

/// Tolerance for "capacity exhausted" comparisons, bytes/sec.
const CAP_EPS: f64 = 1e-9;

/// A reusable max-min solver.
///
/// Between calls every `load` entry is zero and `loaded` and `unfrozen` are
/// empty; `remaining` is only read for links registered by the current call.
#[derive(Debug, Default)]
pub struct MaxMin {
    /// Capacity not yet handed out, per link id.
    remaining: Vec<f64>,
    /// Unfrozen flows crossing each link, per link id.
    load: Vec<u32>,
    /// The links some flow crosses, in ascending id order; links whose load
    /// dropped to zero are pruned as the rounds scan them.
    loaded: Vec<LinkId>,
    /// Indices of the flows not yet frozen, in the order given.
    unfrozen: Vec<u32>,
}

impl MaxMin {
    /// Writes max-min fair rates (bytes/sec) for `flows` into `rates`, one
    /// per flow, where each flow is the list of links it crosses and
    /// `capacity[l]` is the current capacity of link `l`. Flows crossing a
    /// zero-capacity (cut) link get rate `0.0`.
    ///
    /// Every flow must cross at least one link; node-local transfers never
    /// reach the allocator.
    ///
    /// # Panics
    /// Panics if a flow crosses a link outside `capacity`.
    pub fn solve<P: AsRef<[LinkId]>>(
        &mut self,
        flows: &[P],
        capacity: &[f64],
        rates: &mut Vec<f64>,
    ) {
        rates.clear();
        rates.resize(flows.len(), 0.0);
        if flows.is_empty() {
            return;
        }
        let MaxMin {
            remaining,
            load,
            loaded,
            unfrozen,
        } = self;
        if load.len() < capacity.len() {
            load.resize(capacity.len(), 0);
            remaining.resize(capacity.len(), 0.0);
        }
        for (i, path) in flows.iter().enumerate() {
            let path = path.as_ref();
            debug_assert!(!path.is_empty(), "node-local flows must not be allocated");
            for &l in path {
                let li = l as usize;
                if load[li] == 0 {
                    remaining[li] = capacity[li];
                    loaded.push(l);
                }
                load[li] += 1;
            }
            unfrozen.push(i as u32);
        }
        loaded.sort_unstable();

        while !unfrozen.is_empty() {
            // The bottleneck: the loaded link offering the smallest fair share.
            let mut bottleneck = usize::MAX;
            let mut share = f64::INFINITY;
            loaded.retain(|&l| {
                let li = l as usize;
                let n = load[li];
                if n == 0 {
                    return false;
                }
                let s = (remaining[li].max(0.0)) / f64::from(n);
                if s < share {
                    share = s;
                    bottleneck = li;
                }
                true
            });
            if bottleneck == usize::MAX {
                break; // no loaded links left (all paths drained)
            }
            // Freeze every unfrozen flow crossing the bottleneck at `share` and
            // charge its consumption to every link it touches.
            unfrozen.retain(|&i| {
                let path = flows[i as usize].as_ref();
                if !path.contains(&(bottleneck as LinkId)) {
                    return true;
                }
                rates[i as usize] = share;
                for &l in path {
                    let li = l as usize;
                    remaining[li] = (remaining[li] - share).max(0.0);
                    load[li] -= 1;
                }
                false
            });
            // The bottleneck is exhausted for anyone still crossing it.
            if remaining[bottleneck] < CAP_EPS {
                remaining[bottleneck] = 0.0;
            }
        }
        // Links pruned above already have zero load; flows left unfrozen (a
        // link whose share never fell below infinity) still hold theirs.
        for &l in loaded.iter() {
            load[l as usize] = 0;
        }
        loaded.clear();
        unfrozen.clear();
    }
}

/// Computes max-min fair rates (bytes/sec) for `flows` with a fresh
/// [`MaxMin`]; see [`MaxMin::solve`]. Callers that allocate repeatedly
/// should keep one solver instead.
pub fn max_min_rates(flows: &[Vec<LinkId>], capacity: &[f64]) -> Vec<f64> {
    let mut rates = Vec::with_capacity(flows.len());
    MaxMin::default().solve(flows, capacity, &mut rates);
    rates
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_flow_gets_path_bottleneck() {
        let rates = max_min_rates(&[vec![0, 2]], &[100.0, 400.0, 40.0]);
        assert_eq!(rates, vec![40.0]);
    }

    #[test]
    fn equal_flows_split_a_shared_link_evenly() {
        let flows = vec![vec![0], vec![0], vec![0], vec![0]];
        let rates = max_min_rates(&flows, &[100.0]);
        assert!(rates.iter().all(|&r| (r - 25.0).abs() < 1e-9), "{rates:?}");
    }

    #[test]
    fn water_filling_gives_leftover_to_unconstrained_flows() {
        // Flow 0 crosses links 0 and 1; flow 1 crosses only link 1.
        // Link 0 (cap 10) bottlenecks flow 0 at 10; flow 1 then gets the
        // remaining 90 of link 1 — not a naive 50/50 split.
        let flows = vec![vec![0, 1], vec![1]];
        let rates = max_min_rates(&flows, &[10.0, 100.0]);
        assert!((rates[0] - 10.0).abs() < 1e-9, "{rates:?}");
        assert!((rates[1] - 90.0).abs() < 1e-9, "{rates:?}");
    }

    #[test]
    fn cut_links_starve_their_flows_only() {
        let flows = vec![vec![0], vec![1]];
        let rates = max_min_rates(&flows, &[0.0, 50.0]);
        assert_eq!(rates[0], 0.0);
        assert!((rates[1] - 50.0).abs() < 1e-9);
    }

    #[test]
    fn no_link_is_oversubscribed() {
        // A dense cross-traffic pattern over a small fabric.
        let caps = [30.0, 20.0, 10.0, 25.0];
        let flows = vec![
            vec![0, 1],
            vec![1, 2],
            vec![2, 3],
            vec![0, 3],
            vec![0, 1, 2, 3],
            vec![3],
        ];
        let rates = max_min_rates(&flows, &caps);
        for (l, &cap) in caps.iter().enumerate() {
            let used: f64 = flows
                .iter()
                .zip(&rates)
                .filter(|(path, _)| path.contains(&(l as LinkId)))
                .map(|(_, &r)| r)
                .sum();
            assert!(used <= cap + 1e-6, "link {l}: {used} > {cap}");
        }
        // Work conservation: with all-positive capacities every flow moves.
        assert!(rates.iter().all(|&r| r > 0.0), "{rates:?}");
    }

    #[test]
    fn deterministic_for_equal_inputs() {
        let flows = vec![vec![0, 2], vec![1, 2], vec![0, 1]];
        let caps = [17.0, 23.0, 11.0];
        assert_eq!(max_min_rates(&flows, &caps), max_min_rates(&flows, &caps));
    }
}
