//! # HBO reproduction suite
//!
//! Umbrella crate re-exporting every layer of the reproduction of
//! *"Joint AI Task Allocation and Virtual Object Quality Manipulation for
//! Improved MAR App Performance"* (Didar & Brocanelli, ICDCS 2024).
//!
//! The workspace is organized bottom-up:
//!
//! | crate | role |
//! |---|---|
//! | [`simcore`] | discrete-event simulation engine |
//! | [`soc`] | heterogeneous mobile SoC substrate (CPU / GPU / NPU) |
//! | [`nnmodel`] | AI model zoo + delegate partitioning (TFLite stand-in) |
//! | [`arscene`] | virtual objects, decimation, quality model (Eq. 1–2) |
//! | [`bayesopt`] | Gaussian-process Bayesian optimization (Matérn 5/2 + EI) |
//! | [`hbo_core`] | the paper's contribution: Algorithm 1, activation, baselines |
//! | [`marsim`] | MAR app runtime simulation + experiment orchestration |
//!
//! See `README.md` for a quickstart and `DESIGN.md` for the per-experiment
//! index mapping every table/figure of the paper to a bench target.

#![forbid(unsafe_code)]

pub use arscene;
pub use bayesopt;
pub use hbo_core;
pub use marsim;
pub use nnmodel;
pub use simcore;
pub use soc;

/// Commonly used items, importable with a single `use hbo_suite::prelude::*`.
pub mod prelude {
    pub use arscene::{Scene, VirtualObject};
    pub use hbo_core::{Baseline, HboConfig, HboController};
    pub use marsim::{ExperimentResult, MarApp, ScenarioSpec};
    pub use nnmodel::{Delegate, ModelZoo};
    pub use soc::DeviceProfile;
}
