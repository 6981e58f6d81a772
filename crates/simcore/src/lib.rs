//! Discrete-event simulation engine underpinning the HBO reproduction.
//!
//! The paper evaluates HBO on real Android phones; this workspace replaces
//! the phone with a simulated SoC. `simcore` provides the generic machinery
//! that the `soc` substrate builds on:
//!
//! * [`SimTime`] / [`SimDuration`] — integer-nanosecond simulated time with
//!   total ordering (no floating-point heap keys).
//! * [`EventQueue`] — the deterministic future-event list, a binary heap:
//!   ties in time are broken by insertion sequence, so replays are
//!   bit-identical.
//! * [`Simulator`] — a thin driver that pops events and hands them to a
//!   user-supplied handler together with a scheduling context.
//! * [`rand`] — an in-tree deterministic PRNG (xoshiro256++) with the
//!   slice of the `rand`-crate API the workspace calls, so it builds
//!   hermetically with no registry dependencies.
//! * [`rng`] — named, independently seeded RNG streams (so that adding a
//!   new random consumer does not perturb existing ones), seed mixing,
//!   and the workspace's one FNV-1a hash.
//! * [`check`] — a seeded property-testing mini-framework (case
//!   generation, shrinking, failure-seed reporting) replacing `proptest`.
//! * [`pool`] — a dependency-free scoped worker-thread pool whose
//!   parallel `map` is bit-identical to the serial one, backing the
//!   deterministic experiment runner in `marsim`.
//! * [`stats`] — online statistics (Welford mean/variance, time-weighted
//!   averages, log-bucket histograms) used by the metric collectors.
//! * [`trace`] — deterministic span/counter tracing with Chrome
//!   trace-event (Perfetto-loadable) export; zero overhead when the
//!   [`trace::Tracer`] handle is disabled.
//! * [`metrics`] — bounded streaming aggregation over the trace stream:
//!   per-span-series duration statistics, fixed-capacity downsampling
//!   time series for counters, deterministic head-sampling for fleets,
//!   and a Prometheus-style text exposition.
//!
//! # Example
//!
//! ```
//! use simcore::{EventQueue, SimTime, SimDuration};
//!
//! let mut q = EventQueue::new();
//! q.schedule(SimTime::ZERO + SimDuration::from_millis_f64(2.0), "b");
//! q.schedule(SimTime::ZERO + SimDuration::from_millis_f64(1.0), "a");
//! let (t, e) = q.pop().unwrap();
//! assert_eq!(e, "a");
//! assert!((t.as_secs_f64() - 0.001).abs() < 1e-12);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod check;
pub mod metrics;
pub mod pool;
mod queue;
pub mod rand;
pub mod rng;
pub mod stats;
mod time;
pub mod trace;

pub use queue::{EventQueue, QueueKind, Scheduler, Simulator};
pub use time::{SimDuration, SimTime};
