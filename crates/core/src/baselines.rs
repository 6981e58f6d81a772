//! The comparison baselines of Section V-A.

use nnmodel::Delegate;

use crate::profile::TaskProfile;

/// The systems compared in the evaluation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Baseline {
    /// The paper's framework (Algorithm 1).
    Hbo,
    /// Static Match Quality: HBO's triangle distribution and ratio, but
    /// the static best-isolated-latency allocation.
    Smq,
    /// Static Match Latency: static allocation; the triangle ratio is
    /// swept down until the average latency matches HBO's.
    Sml,
    /// Bayesian No Triangle: HBO's allocation heuristic driven by a
    /// latency-only BO cost, triangle ratio pinned at 1.
    Bnt,
    /// All-NNAPI: every compatible task on the NNAPI delegate, objects at
    /// full quality (the state-of-practice operator-level scheduler).
    AllN,
}

impl Baseline {
    /// All baselines in the order the paper's figures list them.
    pub const ALL: [Baseline; 5] = [
        Baseline::Hbo,
        Baseline::Smq,
        Baseline::Sml,
        Baseline::Bnt,
        Baseline::AllN,
    ];

    /// The label used in the paper's figures.
    pub fn label(self) -> &'static str {
        match self {
            Baseline::Hbo => "HBO",
            Baseline::Smq => "SMQ",
            Baseline::Sml => "SML",
            Baseline::Bnt => "BNT",
            Baseline::AllN => "AllN",
        }
    }
}

impl std::fmt::Display for Baseline {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

/// The static allocation used by SMQ and SML: each task on the resource
/// with the lowest latency when profiled in isolation (Table I
/// affinities).
pub fn static_best_allocation(profiles: &[TaskProfile]) -> Vec<Delegate> {
    profiles.iter().map(|p| p.best().0).collect()
}

/// The AllN allocation: every task on NNAPI when compatible; incompatible
/// tasks (NA in Table I) fall back to their best supported resource, as
/// the Android runtime would refuse the delegate.
pub fn all_nnapi_allocation(profiles: &[TaskProfile]) -> Vec<Delegate> {
    profiles
        .iter()
        .map(|p| {
            if p.supports(Delegate::Nnapi) {
                Delegate::Nnapi
            } else {
                p.best().0
            }
        })
        .collect()
}

/// Local-only baseline for edge scenarios: each task on its best
/// *on-device* resource, ignoring any edge-offload capability. For
/// on-device-only profiles this coincides with
/// [`static_best_allocation`].
pub fn best_local_allocation(profiles: &[TaskProfile]) -> Vec<Delegate> {
    profiles.iter().map(|p| p.best_on_device().0).collect()
}

/// Edge-only baseline: every edge-capable task offloads; tasks without an
/// edge profile fall back to their best on-device resource. Greedy
/// offloading is the natural "the server is faster, use it" policy — and
/// the one that collapses when N clients contend for the same uplink and
/// worker lanes.
pub fn edge_only_allocation(profiles: &[TaskProfile]) -> Vec<Delegate> {
    profiles
        .iter()
        .zip(best_local_allocation(profiles))
        .map(|(p, local)| {
            if p.supports(Delegate::Edge) {
                Delegate::Edge
            } else {
                local
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn profiles() -> Vec<TaskProfile> {
        vec![
            TaskProfile::new("gpu-pref", [Some(25.0), Some(12.0), Some(40.0)]),
            TaskProfile::new("nnapi-pref", [Some(40.0), Some(30.0), Some(10.0)]),
            TaskProfile::new("no-nnapi", [Some(8.0), Some(20.0), None]),
        ]
    }

    #[test]
    fn static_allocation_follows_affinity() {
        assert_eq!(
            static_best_allocation(&profiles()),
            vec![Delegate::Gpu, Delegate::Nnapi, Delegate::Cpu]
        );
    }

    #[test]
    fn alln_respects_na() {
        assert_eq!(
            all_nnapi_allocation(&profiles()),
            vec![Delegate::Nnapi, Delegate::Nnapi, Delegate::Cpu]
        );
    }

    #[test]
    fn local_baseline_ignores_edge() {
        let profiles: Vec<TaskProfile> = profiles()
            .into_iter()
            .map(|p| p.with_edge(1.0)) // edge faster than everything
            .collect();
        assert_eq!(
            best_local_allocation(&profiles),
            vec![Delegate::Gpu, Delegate::Nnapi, Delegate::Cpu]
        );
    }

    #[test]
    fn edge_only_offloads_capable_tasks() {
        let mut profiles = profiles();
        profiles[0] = profiles[0].clone().with_edge(50.0); // even a slow edge is used
        assert_eq!(
            edge_only_allocation(&profiles),
            vec![Delegate::Edge, Delegate::Nnapi, Delegate::Cpu]
        );
    }

    #[test]
    fn labels_match_figures() {
        let labels: Vec<&str> = Baseline::ALL.iter().map(|b| b.label()).collect();
        assert_eq!(labels, vec!["HBO", "SMQ", "SML", "BNT", "AllN"]);
        assert_eq!(Baseline::AllN.to_string(), "AllN");
    }
}
