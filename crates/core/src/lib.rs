//! HBO — the paper's core contribution.
//!
//! This crate implements the *Heuristic Bayesian Optimization* framework of
//! Section IV: the cost formulation (Eq. 3–5), Algorithm 1 (Bayesian
//! suggestion → proportion rounding → priority-queue greedy per-task
//! allocation → sensitivity-weighted triangle distribution → measurement →
//! database update), the event-based activation policy (Section IV-E), the
//! four comparison baselines of Section V-A (SMQ, SML, BNT, AllN), and the
//! lookup-table extension sketched as future work in Section VI.
//!
//! The crate is *environment-agnostic*: it produces configurations
//! ([`HboPoint`]: resource-usage vector `c`, triangle ratio `x`, concrete
//! per-task allocation) and consumes measurements (average quality `Q`,
//! normalized latency `ε`). Driving a (simulated or real) MAR app with
//! those configurations is the `marsim` crate's job.
//!
//! # Example
//!
//! ```
//! use hbo_core::{HboConfig, HboController, TaskProfile};
//! use nnmodel::Delegate;
//! use simcore::rand::SeedableRng;
//!
//! // Two tasks with static per-resource latencies (CPU, GPU, NNAPI).
//! let profiles = vec![
//!     TaskProfile::new("a", [Some(40.0), Some(30.0), Some(10.0)]),
//!     TaskProfile::new("b", [Some(20.0), Some(15.0), Some(25.0)]),
//! ];
//! let mut hbo = HboController::new(profiles, HboConfig::default());
//! let mut rng = simcore::rand::StdRng::seed_from_u64(1);
//! for _ in 0..10 {
//!     let point = hbo.next_point(&mut rng);
//!     // ... apply `point.allocation` and `point.x`, measure (Q, eps) ...
//!     let (q, eps) = (0.9, 0.5);
//!     hbo.observe(point, q, eps);
//! }
//! assert!(hbo.best().is_some());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod activation;
mod algorithm;
mod alloc;
mod baselines;
mod cost;
mod lookup;
mod profile;
mod warm;

pub use activation::{ActivationDecision, ActivationPolicy, ActivationReason, PeriodicPolicy};
pub use algorithm::{CostMode, HboConfig, HboController, HboPoint, IterationRecord};
pub use alloc::{allocate_tasks, round_proportions};
pub use baselines::{
    all_nnapi_allocation, best_local_allocation, edge_only_allocation, static_best_allocation,
    Baseline,
};
pub use bayesopt::BoConfig;
pub use cost::{cost, normalized_latency, reward};
pub use lookup::{LookupKey, LookupTable, StoredConfig, DEFAULT_LOOKUP_CAPACITY};
pub use profile::TaskProfile;
pub use warm::{ScenarioSignature, WarmCache, DEFAULT_WARM_CAPACITY};
