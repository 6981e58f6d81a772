//! AR scene substrate: virtual objects, their triangle budgets, and the
//! virtual-object quality model of the paper (Eq. 1–2).
//!
//! * [`quality`] — eAR's degradation model: per-object
//!   `D_err = (a R² + b R + c) / D^d` (Eq. 1) and the scene average
//!   quality `Q` (Eq. 2).
//! * [`Scene`] — the live scene: objects with triangle budgets, user
//!   distance, backface-cull visibility (what the render loop actually
//!   draws), and the sensitivity-weighted triangle distribution used by
//!   HBO's `TD` function (Algorithm 1, line 23).
//! * [`scenarios`] — Table II: the SC1 (heavy) and SC2 (light) object
//!   sets.
//!
//! # Example
//!
//! ```
//! use arscene::{Scene, scenarios};
//!
//! let mut scene = scenarios::sc1();
//! scene.set_user_distance(2.0);
//! let q_full = scene.average_quality();
//! scene.distribute_triangles(0.5); // give the scene half its triangles
//! assert!(scene.average_quality() <= q_full + 1e-12);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod quality;
pub mod scenarios;
mod scene;

pub use quality::{DegradationModel, QualityParams};
pub use scene::{ObjectId, Scene, VirtualObject};
