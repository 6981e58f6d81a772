//! Bayesian optimization over Gaussian-process surrogates, from scratch.
//!
//! The paper implements its optimizer with scikit-optimize (`skopt`); this
//! crate is the Rust equivalent, built exactly to the paper's
//! configuration (Section IV-C):
//!
//! * a Gaussian-process surrogate with the **Matérn 5/2** kernel (Eq. 7,
//!   length scale `ℓ = 1`),
//! * the **Expected Improvement** acquisition function (with probability
//!   of improvement and lower confidence bound also available, which the
//!   paper evaluated and rejected),
//! * known constraints (8)–(10): the resource-usage vector `c` lives on
//!   the probability simplex and the triangle ratio `x` in
//!   `[R_min, 1]` — handled by the constrained sample spaces in
//!   [`space`].
//!
//! Like skopt, each suggestion scores the whole candidate cloud and takes
//! the argmax, keeping the first of any tied maxima. The cloud is drawn,
//! scored and discarded in one pass over small reused blocks of
//! row-major candidates: [`SampleSpace::sample_into`] /
//! [`SampleSpace::perturb_into`] fill a block, one batched posterior
//! pass ([`GaussianProcess::predict_batch`]) and one acquisition score
//! per row follow, and a running argmax copies out the best row. No
//! candidate gets its own allocation. The scan runs on one thread:
//! parallelism lives one level up, in the experiment runner, which runs
//! whole activations side by side.
//!
//! The numerical core is a private linear-algebra module: one packed
//! Cholesky factor that grows a row at a time (a full factorization is
//! the same row loop from the empty factor), and the triangular solves
//! against it — no external math dependencies. The kernel keeps its
//! configured length scale; no hyperparameter is fitted to the data,
//! matching the paper's fixed `ℓ = 1`. A fit that fails even at the
//! largest diagonal jitter returns [`NotPositiveDefinite`].
//!
//! # Example
//!
//! ```
//! use bayesopt::{BoConfig, BoOptimizer, space::BoxSpace};
//! use simcore::rand::SeedableRng;
//!
//! // Minimize (z - 0.3)^2 on [0, 1].
//! let space = BoxSpace::new(vec![(0.0, 1.0)]);
//! let mut bo = BoOptimizer::new(space, BoConfig::default(), 5);
//! let mut rng = simcore::rand::StdRng::seed_from_u64(7);
//! for _ in 0..25 {
//!     let z = bo.suggest(&mut rng);
//!     let cost = (z[0] - 0.3) * (z[0] - 0.3);
//!     bo.observe(z, cost);
//! }
//! let (best, _) = bo.best().unwrap();
//! assert!((best[0] - 0.3).abs() < 0.15);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod acquisition;
pub mod gp;
pub mod kernel;
mod linalg;
mod optimizer;
pub mod space;

pub use acquisition::Acquisition;
pub use gp::GaussianProcess;
pub use kernel::Kernel;
pub use linalg::NotPositiveDefinite;
pub use optimizer::{BoConfig, BoOptimizer};
pub use space::SampleSpace;
