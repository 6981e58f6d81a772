//! Experiment harness: regenerates every table and figure of the paper.
//!
//! Each binary in `src/bin/` reproduces one table/figure (see `DESIGN.md`
//! for the full index); this library holds the shared plumbing — fixed
//! seeds, text-table and series renderers, and comparison summaries that
//! are written into `EXPERIMENTS.md`.
//!
//! | binary | reproduces |
//! |---|---|
//! | `table1` | Table I — isolated model latencies on both devices |
//! | `fig2` | Fig. 2 — contention time-series under allocation changes |
//! | `table2` | Table II — scenario inventories |
//! | `fig4_table3` | Fig. 4 + Table III — HBO across four scenarios |
//! | `fig5_table4` | Fig. 5 + Table IV — HBO vs the four baselines |
//! | `fig6` | Fig. 6 — convergence detail on SC1-CF1 |
//! | `fig7` | Fig. 7 — robustness across six seeded runs |
//! | `fig8` | Fig. 8 — event-based vs periodic activation |
//! | `fig9` | Fig. 9 — simulated user study |
//! | `run_all` | all of the above, in order |

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod args;
pub mod harness;
pub mod render;
pub mod seeds;

pub use render::{Series, Table};
