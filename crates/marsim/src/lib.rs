//! MAR application runtime simulation and experiment orchestration.
//!
//! This crate plays the role of the paper's Android prototype: it wires the
//! simulated SoC ([`soc`]), the AI taskset ([`nnmodel`]), and the virtual
//! object scene ([`arscene`]) into a running MAR app, drives HBO and the
//! baselines ([`hbo_core`]) against it, and packages the measurement loops
//! behind the experiment entry points the bench harness calls.
//!
//! * [`MarApp`] — the live app: AI streams + render loop on one `SocSim`,
//!   with object placement, user movement, allocation and triangle-ratio
//!   control, and windowed measurement of `(Q, ε)`.
//! * [`isolated`] — offline profiling (Table I): each task alone on each
//!   delegate, no objects.
//! * [`experiment`] — full HBO activations and baseline evaluations
//!   (Figs. 4–7, Tables III–IV).
//! * [`timeline`] — scripted event sequences (Fig. 2's motivation study,
//!   Fig. 8's activation study).
//! * [`runner`] — the deterministic parallel experiment runner: flat
//!   scenario × config × replicate job lists on `simcore::pool` workers,
//!   with per-job seed streams and order-independent metric merging, so
//!   `--threads N` is bit-identical to `--threads 1`.
//! * [`edge`] — multi-client edge offloading: [`EdgeWorld`] couples the
//!   app to a shared wireless link + edge server ([`edgelink`]) and makes
//!   Edge a fourth HBO allocation target.
//! * [`fleet`] — fleet-scale serving: heterogeneous churning session
//!   populations ([`fleet::FleetSpec`]) served by a multi-server cluster
//!   ([`edgelink::ClusterSim`]) under pluggable routing policies.
//! * [`userstudy`] — the simulated 7-participant panel of Fig. 9.
//!
//! # Example
//!
//! ```
//! use marsim::{MarApp, ScenarioSpec};
//!
//! let scenario = ScenarioSpec::sc1_cf1();
//! let mut app = MarApp::new(&scenario);
//! app.place_all_objects();
//! let m = app.measure_for_secs(2.0);
//! assert!(m.epsilon >= 0.0 && m.quality > 0.0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod app;
pub mod edge;
pub mod experiment;
pub mod fleet;
pub mod isolated;
pub mod load;
pub mod rows;
pub mod runner;
mod scenario;
pub mod synth;
pub mod telemetry;
pub mod timeline;
pub mod userstudy;

pub use app::{MarApp, Measurement, TASK_GAP_MS, TASK_JITTER_MS, TASK_PERIOD_MS};
pub use edge::{
    run_edge_hbo_warm, stadium_cell, EdgeMeasurement, EdgeSpec, EdgeSystemOutcome, EdgeWorld,
};
pub use experiment::{
    run_hbo_warm, scenario_signature, BaselineOutcome, ExperimentResult, HboRunResult,
    WarmRunResult,
};
pub use fleet::{
    run_class_plan, run_fleet_cell, run_fleet_cell_traced, run_mobility_cell, DeviceClass,
    FleetCellResult, FleetPlanResult, FleetSpec,
};
pub use rows::JsonRow;
pub use runner::{RunnerReport, SweepJob, SweepOutcome, SweepResult};
pub use scenario::{cf1_tasks, cf2_tasks, ScenarioSpec, TaskSpec};
pub use telemetry::{ProcessorTelemetry, TelemetrySummary};
