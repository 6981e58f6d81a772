//! Walltime benchmarks of the algorithmic kernels HBO runs at every
//! activation: the per-iteration costs the paper's Section IV-D complexity
//! analysis talks about (`O(K³ + MN log(MN) + L log(L))`), plus the
//! substrates (discrete-event simulation).
//!
//! Runs on the in-tree `hbo_bench::harness` (median-of-N walltime, JSON
//! lines on stdout) — no external benchmarking crate.

use bayesopt::SampleSpace;
use hbo_bench::harness::Harness;
use simcore::rand::{Rng, SeedableRng, StdRng};
use simcore::trace::{observe, Tracer};
use std::hint::black_box;

/// Seed for every GP/BO fixture below: history growth and the timed call
/// continue one RNG stream, so the timed suggestion always sees the same
/// surrogate state.
const BO_BENCH_SEED: u64 = 7;

/// The `des_hold_512` hold model: pending tokens, the exclusive bound of
/// each token's uniform delay, and the seed of the delay stream.
const DES_HOLD_TOKENS: usize = 512;
const DES_HOLD_MAX_NS: u64 = 2_000_000;
const DES_HOLD_SEED: u64 = 23;

/// The HBO joint space: a 3-simplex resource vector `c` plus the triangle
/// ratio `x` — 4-D total. The synthetic cost reads `z[0]` and `z[3]`, so
/// it is only meaningful at exactly this dimensionality.
const HBO_SPACE_DIM: usize = 4;

fn hbo_space() -> bayesopt::space::SimplexBoxSpace {
    let space = bayesopt::space::SimplexBoxSpace::new(3, 0.2, 1.0);
    assert_eq!(
        space.dim(),
        HBO_SPACE_DIM,
        "bench fixture assumes simplex(3) + ratio = 4-D; update the synthetic cost"
    );
    space
}

/// Synthetic cost over the 4-D HBO space: favors low `c₁`, high `x`.
fn synthetic_cost(z: &[f64]) -> f64 {
    assert_eq!(z.len(), HBO_SPACE_DIM, "cost needs a 4-D HBO point");
    z[0] - z[3]
}

/// A BO optimizer grown to `k` observations, together with the RNG stream
/// it was grown under (so the timed call continues the same stream).
fn grown_bo(
    k: usize,
) -> (
    bayesopt::BoOptimizer<bayesopt::space::SimplexBoxSpace>,
    StdRng,
) {
    grown_bo_with(k, bayesopt::BoConfig::default())
}

/// [`grown_bo`] with a custom optimizer config (the warm variant).
fn grown_bo_with(
    k: usize,
    config: bayesopt::BoConfig,
) -> (
    bayesopt::BoOptimizer<bayesopt::space::SimplexBoxSpace>,
    StdRng,
) {
    let mut bo = bayesopt::BoOptimizer::new(hbo_space(), config, 5);
    let mut r = StdRng::seed_from_u64(BO_BENCH_SEED);
    for _ in 0..k {
        let z = bo.suggest(&mut r);
        let cost = synthetic_cost(&z);
        bo.observe(z, cost);
    }
    (bo, r)
}

fn bench_gp(h: &mut Harness) {
    // GP fit at the paper's dataset size (20 observations, 4-D inputs).
    let mut rng = StdRng::seed_from_u64(1);
    let space = hbo_space();
    let points: Vec<Vec<f64>> = (0..21).map(|_| space.sample(&mut rng)).collect();
    h.bench_batched(
        "gp_fit_20x4",
        || {
            let mut gp = bayesopt::GaussianProcess::new(bayesopt::Kernel::paper_default(), 1e-3);
            for (i, p) in points.iter().take(20).enumerate() {
                gp.add_observation(p.clone(), (i as f64).sin());
            }
            gp
        },
        |mut gp| gp.fit().unwrap(),
    );
    // Incremental refit: one new observation lands on an already-fitted
    // 20-point surrogate — the factor is extended, not rebuilt.
    h.bench_batched(
        "gp_fit_incremental",
        || {
            let mut gp = bayesopt::GaussianProcess::new(bayesopt::Kernel::paper_default(), 1e-3);
            for (i, p) in points.iter().take(20).enumerate() {
                gp.add_observation(p.clone(), (i as f64).sin());
            }
            gp.fit().unwrap();
            gp.add_observation(points[20].clone(), 0.25);
            gp
        },
        |mut gp| gp.fit().unwrap(),
    );
    // Batched posterior over a full acquisition candidate cloud, as flat
    // row-major rows, into a reused output buffer.
    let candidates: Vec<f64> = {
        let mut r = StdRng::seed_from_u64(2);
        (0..1280).flat_map(|_| space.sample(&mut r)).collect()
    };
    let mut posterior = Vec::with_capacity(1280);
    h.bench_batched(
        "gp_predict_batch_1280",
        || {
            let mut gp = bayesopt::GaussianProcess::new(bayesopt::Kernel::paper_default(), 1e-3);
            for (i, p) in points.iter().take(20).enumerate() {
                gp.add_observation(p.clone(), (i as f64).sin());
            }
            gp.fit().unwrap();
            gp
        },
        |mut gp| {
            gp.predict_batch(&candidates, &mut posterior);
            black_box(&posterior);
        },
    );
    // One full BO suggestion (refit + 1280 candidate generations + scores)
    // on a surrogate grown under the same seed as the timed call.
    h.bench_batched(
        "bo_suggest_k20",
        || grown_bo(20),
        |(mut bo, mut r)| black_box(bo.suggest(&mut r)),
    );
    // The warm-start steady-state suggestion: the 4×-smaller candidate
    // cloud (256 global + 64 local) a cache-seeded session runs with.
    h.bench_batched(
        "bo_suggest_warm_k20",
        || grown_bo_with(20, bayesopt::BoConfig::warm_default()),
        |(mut bo, mut r)| black_box(bo.suggest(&mut r)),
    );
}

fn bench_allocation(h: &mut Harness) {
    let profiles: Vec<hbo_core::TaskProfile> = (0..6)
        .map(|i| {
            hbo_core::TaskProfile::new(
                format!("t{i}"),
                [Some(10.0 + i as f64), Some(20.0 - i as f64), Some(15.0)],
            )
        })
        .collect();
    h.bench("allocate_tasks_m6", || {
        black_box(hbo_core::allocate_tasks(&[0.4, 0.1, 0.5], &profiles))
    });
    let scene = arscene::scenarios::sc1();
    h.bench_batched(
        "td_distribute_sc1",
        || scene.clone(),
        |mut s| s.distribute_triangles(0.72),
    );
}

fn bench_substrates(h: &mut Harness) {
    // Event-list throughput alone, the classic hold model: 512 tokens stay
    // pending, and each dispatch reschedules its token at now plus a
    // seeded uniform delay in [0, 2 ms), about 512k pop/schedule pairs per
    // simulated second. No handler work, so this row is the DES dispatch
    // layer (`Simulator::run_until` over `EventQueue`) and nothing else.
    // Delays under 2^21 ns keep nearly every entry on the queue's levels
    // 0-3 (bits 0-23 of its 6-bit digits), so an entry is relinked at
    // most three times before it pops, unless the base sits just below a
    // higher digit boundary.
    h.bench_sim(
        "des_hold_512",
        1.0,
        || {
            let mut rng = StdRng::seed_from_u64(DES_HOLD_SEED);
            let mut sim = simcore::Simulator::new();
            for _ in 0..DES_HOLD_TOKENS {
                sim.schedule(
                    simcore::SimTime::from_nanos(rng.gen_range(0..DES_HOLD_MAX_NS)),
                    (),
                );
            }
            (sim, rng)
        },
        |(mut sim, mut rng)| {
            sim.run_until(simcore::SimTime::from_secs_f64(1.0), |sched, ()| {
                let delay = rng.gen_range(0..DES_HOLD_MAX_NS);
                sched.schedule_after(simcore::SimDuration::from_nanos(delay), ());
            })
        },
    );

    // DES throughput: one simulated second of the full SC1-CF1 app.
    // `sims_per_wall_sec` is the headline metric (simulated seconds per
    // wall-clock second).
    h.bench_sim(
        "socsim_sc1cf1_1s",
        1.0,
        || {
            let mut app = marsim::MarApp::new(&marsim::ScenarioSpec::sc1_cf1());
            app.place_all_objects();
            app
        },
        |mut app| app.run_for_secs(1.0),
    );

    // Tracing overhead on the same one-second SC1-CF1 workload, all four
    // observer configurations in one run so their deltas are
    // same-conditions:
    //
    // * `disabled` — no tracer in scope, the same path as
    //   `socsim_sc1cf1_1s` above. Their delta is the noise floor; any
    //   eager work sneaking in ahead of an `is_enabled` check shows up
    //   here (EXPERIMENTS.md requires ≤ 2%).
    // * `null` — an observer with neither output is in scope, so every
    //   instrumentation site fires and builds its names and arguments,
    //   and the observer drops the event: the instrumentation cost alone.
    // * `chrome` — full in-memory buffering of every span/counter.
    // * `agg` — the streaming aggregator ([`simcore::metrics`]): every
    //   event folds into bounded per-series statistics instead of being
    //   buffered, so it must land well below `chrome` (EXPERIMENTS.md
    //   tracks the ratio).
    //
    // Each routine returns the tracer, so dropping what the observer
    // collected is timed too.
    h.bench_batched(
        "trace_overhead_disabled_1s",
        || {
            let mut app = marsim::MarApp::new(&marsim::ScenarioSpec::sc1_cf1());
            app.place_all_objects();
            app
        },
        |mut app| app.run_for_secs(1.0),
    );
    for (name, chrome, metrics) in [
        ("trace_overhead_null_1s", false, false),
        ("trace_overhead_chrome_1s", true, false),
        ("trace_overhead_agg_1s", false, true),
    ] {
        h.bench_batched(
            name,
            || {
                let tracer = Tracer::observing(chrome, metrics);
                let mut app = observe(tracer.clone(), || {
                    marsim::MarApp::new(&marsim::ScenarioSpec::sc1_cf1())
                });
                app.place_all_objects();
                (app, tracer)
            },
            |(mut app, tracer)| {
                app.run_for_secs(1.0);
                tracer
            },
        );
    }

    // Wireless link + edge server DES: one simulated second of eight
    // closed-loop clients against a 2-lane server.
    h.bench_sim(
        "edgesim_8c_1s",
        1.0,
        || {
            let specs: Vec<edgelink::ClientSpec> = (0..8)
                .map(|i| edgelink::ClientSpec::mar_default(format!("c{i}")))
                .collect();
            let (params, sessions) = edgelink::one_server(
                edgelink::LinkParams::wifi(),
                edgelink::ServerParams::small(),
                None,
                specs,
                11,
            );
            edgelink::ClusterSim::new(params, sessions, simcore::QueueKind::Heap)
        },
        |mut sim| {
            sim.run_for_secs(1.0);
            black_box(sim.server_counters(0))
        },
    );

    // Shared-medium radio DES: one simulated second of 32 closed-loop
    // clients contending for one stadium cell. Every flow arrival/
    // departure re-solves the fair-share water-fill over the whole cell,
    // so this measures the progress-based reallocation control plane on
    // top of the one-server event loop.
    h.bench_sim(
        "mediumsim_32c_1s",
        1.0,
        || {
            let specs: Vec<edgelink::ClientSpec> = (0..32)
                .map(|i| edgelink::ClientSpec::mar_default(format!("c{i}")))
                .collect();
            let (params, sessions) = edgelink::one_server(
                edgelink::LinkParams::wifi(),
                edgelink::ServerParams::small(),
                Some(edgelink::SharedCell::stadium()),
                specs,
                11,
            );
            edgelink::ClusterSim::new(params, sessions, simcore::QueueKind::Heap)
        },
        |mut sim| {
            sim.run_for_secs(1.0);
            black_box(sim.server_counters(0))
        },
    );

    // Fleet-scale cluster DES: one simulated second of a 256-session
    // heterogeneous churning population routed across the fixed
    // four-server cluster by join-shortest-queue, built under `tracer`.
    // Setup (population synthesis + sim construction) is untimed; the
    // routine measures only the event loop.
    let fleet_256c = |tracer: Tracer| {
        let sessions = marsim::FleetSpec::mar_default(256).sessions(17);
        let params = marsim::fleet::mar_cluster(
            edgelink::LinkParams::wifi(),
            edgelink::RoutePolicy::ShortestQueue,
        );
        let sim = observe(tracer.clone(), || {
            edgelink::ClusterSim::new(params, sessions, simcore::QueueKind::Heap)
        });
        (sim, tracer)
    };
    // Unobserved, under an observer that keeps nothing (the cost of the
    // instrumented sites alone), and with the streaming aggregator
    // attached: fleet-scale observability cost with memory bounded by the
    // aggregator's configuration, not by the event count.
    for (name, tracer) in [
        ("fleet_256c_1s", Tracer::disabled as fn() -> Tracer),
        ("fleet_256c_null_1s", || Tracer::observing(false, false)),
        ("fleet_256c_agg_1s", || Tracer::observing(false, true)),
    ] {
        h.bench_sim(
            name,
            1.0,
            || fleet_256c(tracer()),
            |(mut sim, tracer)| {
                sim.run_for_secs(1.0);
                black_box((sim.metrics().completed(), tracer))
            },
        );
    }
}

fn main() {
    let mut gp = Harness::from_args("bayesopt");
    bench_gp(&mut gp);
    let mut core = Harness::from_args("hbo_core");
    bench_allocation(&mut core);
    let mut substrates = Harness::from_args("substrates");
    bench_substrates(&mut substrates);
}
