//! Heterogeneous mobile SoC substrate.
//!
//! The paper's measurements all hinge on *contention*: AI inference ops and
//! AR render work queue on the same processors (CPU cluster, GPU, NPU), so
//! the latency of an AI task depends on the whole taskset and on how many
//! triangles the GPU is rasterizing. This crate reproduces that mechanism
//! with a discrete-event simulation of a mobile SoC:
//!
//! * [`Topology`] describes the processors. CPU clusters and NPUs are
//!   multi-slot/single-slot FIFO servers; the GPU is an egalitarian
//!   processor-sharing server (all resident work progresses at rate `1/n`),
//!   mirroring how a mobile GPU interleaves render passes and compute
//!   dispatches.
//! * [`SocSim`] executes **streams** (back-to-back AI inference chains,
//!   each a sequence of [`Stage`]s on processors, with host↔accelerator
//!   copy delays) and **sources** (the render loop: one multi-stage frame
//!   job per vsync period, with frame skipping under overload).
//! * [`DeviceProfile`] provides calibrated topologies for the two phones of
//!   the paper (Samsung Galaxy S22, Google Pixel 7).
//!
//! # Example
//!
//! ```
//! use simcore::{SimDuration, SimTime};
//! use soc::{ServicePolicy, SocSim, Stage, StreamSpec, Topology};
//!
//! let mut topo = Topology::new();
//! let cpu = topo.add_processor("cpu", ServicePolicy::Fifo { slots: 4 });
//! let mut sim = SocSim::new(topo);
//! let stream = sim.add_stream(StreamSpec::new(
//!     vec![Stage::compute(cpu, SimDuration::from_millis_f64(10.0))],
//!     SimDuration::from_millis_f64(1.0),
//! ));
//! sim.run_until(SimTime::from_secs_f64(1.0));
//! let m = sim.stream_metrics(stream);
//! assert!(m.completed() > 50);
//! assert!((m.latency_overall().mean() - 10.0).abs() < 0.5);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod job;
pub mod power;
pub mod profiles;
mod server;
mod sim;
mod topology;

pub use job::{SourceId, SourceSpec, Stage, StageSeq, StreamId, StreamSpec};
pub use power::{EnergyReport, PowerModel, ProcessorPower};
pub use profiles::{DeviceProfile, RenderCost, SocProcs};
pub use server::{FifoServer, FifoStart, PsServer, ServicePolicy};
pub use sim::{ProcessorMetrics, SocSim, SourceMetrics, StreamMetrics};
pub use topology::{ProcId, ProcessorSpec, Topology};
