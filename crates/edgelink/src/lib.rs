//! edgelink — wireless link + multi-client edge inference server for the
//! HBO reproduction.
//!
//! The paper's decision space assumes every AI task runs on the device
//! (CPU / GPU / NNAPI). This crate models the fourth option — offloading
//! the task over a wireless link to a shared edge server — so HBO can
//! treat **Edge** as one more allocation target rather than a separate
//! system (see `DESIGN.md` §6 for the rationale).
//!
//! Four layers, from pure to orchestrated:
//!
//! - [`link`] — a parametric uplink/downlink model: serialization at the
//!   configured bandwidth, lognormal propagation jitter around `rtt/2`,
//!   and loss handled as bounded retransmission. Transfer plans are pure
//!   functions of `(params, direction, bytes, flow seed, sequence
//!   number)`, so the simulation plans each transfer once, carries the
//!   plan in the transfer's event instead of storing it, and determinism
//!   is free.
//! - [`server`] — an edge inference server: K worker lanes (reusing
//!   [`soc::FifoServer`]) behind a *bounded* admission queue that NACKs
//!   overload instead of buffering it.
//! - [`medium`] — [`medium::Medium`], the shared-bandwidth radio layer:
//!   contended cells whose flows fair-share capacity with progress-based
//!   reallocation, distance-dependent rate caps, waypoint mobility, and
//!   mid-session handover. The simulator below runs every session on it
//!   or on a private radio pair, as its [`cluster::ClusterRadio`] says.
//! - [`cluster`] — [`cluster::ClusterSim`], the one edge simulator:
//!   closed-loop sessions contend for the link profile and for servers
//!   that a pluggable load-balancing policy ([`cluster::RoutePolicy`])
//!   routes requests across. [`cluster::one_server`] configures it as
//!   the single-server edge world of `marsim`'s `EdgeWorld`; `marsim`'s
//!   fleet cells run it on a churning multi-server deployment.
//!
//! Everything is deterministic under [`simcore::rng`] streams: a fixed
//! master seed produces bit-identical traces regardless of host or
//! thread count (the property tests below and the `edge_offload` golden
//! test pin this).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cluster;
pub mod link;
pub mod medium;
pub mod server;

pub use cluster::{
    one_server, ClientLabel, ClientSpec, ClusterMetrics, ClusterParams, ClusterRadio, ClusterSim,
    RoutePolicy, ServerSpec, SessionSpec, SharedMedium,
};
pub use link::{ByteCounters, Direction, LinkParams, TransferPlan};
pub use medium::{CellParams, Medium, MediumParams, Mobility, SharedCell};
pub use server::{Admission, EdgeServer, ServerParams};

#[cfg(test)]
mod properties {
    //! Property tests of the link invariants and of the simulator's
    //! closed-loop identities, each run on the one-server edge world and
    //! on a four-server cluster with private and with shared radios.

    use simcore::check::{self, f64s, u64s, usizes};
    use simcore::rng::mix;
    use simcore::{prop_assert, prop_assert_eq, QueueKind, SimDuration};

    use crate::cluster::{
        one_server, ClientSpec, ClusterParams, ClusterRadio, ClusterSim, RoutePolicy, ServerSpec,
        SessionSpec,
    };
    use crate::link::{plan_transfer, Direction, LinkParams};
    use crate::{ServerParams, SharedCell};

    /// The deployments every simulator property runs on.
    #[derive(Debug, Clone, Copy)]
    enum Shape {
        /// [`one_server`]: one small server, unbounded admission retries.
        OneServer,
        /// The four-server, two-zone fleet cluster (lanes 4/2/2/1, speeds
        /// 1.25/1/1/0.75, two admission retries) on private radios.
        FourPrivate,
        /// The same cluster with every session parked in the stadium cell.
        FourShared,
    }

    const SHAPES: [Shape; 3] = [Shape::OneServer, Shape::FourPrivate, Shape::FourShared];

    fn four_servers(link: LinkParams, policy: RoutePolicy, radio: ClusterRadio) -> ClusterParams {
        let server = |worker_lanes, queue_capacity, zone, speed| ServerSpec {
            params: ServerParams {
                worker_lanes,
                queue_capacity,
            },
            zone,
            speed,
        };
        ClusterParams {
            link,
            servers: vec![
                server(4, 32, 0, 1.25),
                server(2, 16, 0, 1.0),
                server(2, 16, 1, 1.0),
                server(1, 8, 1, 0.75),
            ],
            policy,
            cross_zone_ms: 8.0,
            max_admission_retries: 2,
            radio,
            keep_samples: true,
            edge_master_seed: None,
        }
    }

    /// `clients` on `shape`, every draw derived from `seed`; the
    /// four-server shapes route with `policy`.
    fn world(
        shape: Shape,
        seed: u64,
        clients: Vec<ClientSpec>,
        link: LinkParams,
        policy: RoutePolicy,
    ) -> ClusterSim {
        let (params, sessions) = match shape {
            Shape::OneServer => one_server(link, ServerParams::small(), None, clients, seed),
            Shape::FourPrivate | Shape::FourShared => {
                let radio = match shape {
                    Shape::FourShared => ClusterRadio::Cell(SharedCell::stadium()),
                    _ => ClusterRadio::Private,
                };
                let sessions = clients
                    .into_iter()
                    .enumerate()
                    .map(|(i, client)| SessionSpec {
                        client,
                        zone: i % 2,
                        arrive_secs: 0.0,
                        depart_secs: 1e3,
                        seed: mix(seed, i as u64),
                    })
                    .collect();
                (four_servers(link, policy, radio), sessions)
            }
        };
        ClusterSim::new(params, sessions, QueueKind::Heap)
    }

    fn mar_clients(n: usize) -> Vec<ClientSpec> {
        (0..n)
            .map(|i| ClientSpec::mar_default(format!("c{i}")))
            .collect()
    }

    /// End-to-end latency is strictly positive and finite for every
    /// delivery, under any seed, client count, bandwidth, and jitter.
    #[test]
    fn latency_is_positive_and_finite() {
        check::check(
            "edgelink_latency_positive",
            (
                u64s(..),
                usizes(1..=6),
                f64s(2.0..200.0),
                f64s(0.0..1.5),
                usizes(0..4),
            ),
            |&(seed, n, mbps, sigma, policy)| {
                let link = LinkParams {
                    uplink_mbps: mbps,
                    downlink_mbps: mbps * 2.0,
                    jitter_sigma: sigma,
                    ..LinkParams::wifi()
                };
                for shape in SHAPES {
                    let policy = RoutePolicy::ALL[policy];
                    let mut sim = world(shape, seed, mar_clients(n), link, policy);
                    sim.run_for_secs(5.0);
                    for c in 0..n {
                        let samples = sim.session_samples(c);
                        prop_assert!(
                            !samples.is_empty(),
                            "{shape:?} client {c} completed nothing"
                        );
                        for &(_, lat) in samples {
                            prop_assert!(
                                lat.is_finite() && lat > 0.0,
                                "{shape:?} client {c}: bad latency {lat}"
                            );
                        }
                    }
                }
                Ok(())
            },
        );
    }

    /// Deliveries stay FIFO per flow despite propagation jitter: delivery
    /// timestamps never go backwards, and the simulator's internal
    /// sequence-order assertion (which would panic on reordering) holds
    /// even with violent jitter.
    #[test]
    fn fifo_per_flow_despite_jitter() {
        check::check(
            "edgelink_fifo_per_flow",
            (u64s(..), usizes(1..=5), f64s(0.5..2.5), usizes(0..4)),
            |&(seed, n, sigma, policy)| {
                let link = LinkParams {
                    jitter_sigma: sigma,
                    ..LinkParams::wifi()
                };
                for shape in SHAPES {
                    let policy = RoutePolicy::ALL[policy];
                    let mut sim = world(shape, seed, mar_clients(n), link, policy);
                    sim.run_for_secs(8.0);
                    for c in 0..n {
                        let samples = sim.session_samples(c);
                        prop_assert!(
                            samples.len() > 1,
                            "{shape:?} client {c}: too few deliveries"
                        );
                        for w in samples.windows(2) {
                            prop_assert!(
                                w[0].0 <= w[1].0,
                                "{shape:?} client {c}: delivery times went backwards"
                            );
                        }
                    }
                }
                Ok(())
            },
        );
    }

    /// Byte conservation across retransmits: nothing is created or lost.
    /// Offered bytes either arrive or belong to the (at most one per
    /// flow) in-flight request; the air carries at least every delivered
    /// byte and at most `max_attempts` copies of each offered one.
    #[test]
    fn bytes_conserved_across_retransmits() {
        check::check(
            "edgelink_byte_conservation",
            (u64s(..), usizes(1..=5), f64s(0.0..0.8), usizes(0..4)),
            |&(seed, n, loss, policy)| {
                let link = LinkParams {
                    loss_prob: loss,
                    ..LinkParams::wifi()
                };
                let spec = ClientSpec::mar_default("x");
                for shape in SHAPES {
                    let policy = RoutePolicy::ALL[policy];
                    let mut sim = world(shape, seed, mar_clients(n), link, policy);
                    sim.run_for_secs(10.0);
                    for c in 0..n {
                        for (dir, bytes) in [
                            (Direction::Up, spec.request_bytes),
                            (Direction::Down, spec.response_bytes),
                        ] {
                            let b = sim.session_bytes(c, dir);
                            prop_assert!(
                                b.delivered <= b.offered,
                                "{shape:?} client {c} {dir:?}: delivered {} > offered {}",
                                b.delivered,
                                b.offered
                            );
                            // Closed loop: at most one request in flight
                            // per flow, so at most one payload is
                            // unaccounted.
                            prop_assert!(
                                b.offered - b.delivered <= bytes,
                                "{shape:?} client {c} {dir:?}: lost bytes ({} offered, {} delivered)",
                                b.offered,
                                b.delivered
                            );
                            prop_assert!(
                                b.transmitted >= b.delivered,
                                "{shape:?} client {c} {dir:?}: transmitted < delivered"
                            );
                            prop_assert!(
                                b.transmitted <= b.offered * link.max_attempts as u64,
                                "{shape:?} client {c} {dir:?}: more copies than max_attempts allows"
                            );
                        }
                        prop_assert_eq!(
                            sim.session_bytes(c, Direction::Up).offered % spec.request_bytes,
                            0,
                            "{shape:?} client {c}: offered uplink bytes not a whole number of requests"
                        );
                    }
                }
                Ok(())
            },
        );
    }

    /// Operational laws, independent of any pinned output. With one
    /// service time `S` per server (homogeneous clients), the busy-lane
    /// integral of each server is the work of its completions plus at
    /// most one partial service per lane:
    /// `0 ≤ avg_busy_lanes·T − completed·S ≤ lanes·S` (utilization law).
    /// Cell-wide, every submitted request is completed, dropped, or still
    /// in flight.
    #[test]
    fn operational_laws_hold_per_server_and_per_cell() {
        check::check(
            "edgelink_operational_laws",
            (
                u64s(..),
                usizes(1..=12),
                f64s(2.0..60.0),
                f64s(20.0..150.0),
                usizes(0..4),
            ),
            |&(seed, n, infer_ms, period_ms, policy)| {
                let clients: Vec<ClientSpec> = (0..n)
                    .map(|i| ClientSpec {
                        infer_ms,
                        period_ms,
                        ..ClientSpec::mar_default(format!("c{i}"))
                    })
                    .collect();
                for shape in SHAPES {
                    let policy = RoutePolicy::ALL[policy];
                    let mut sim = world(shape, seed, clients.clone(), LinkParams::wifi(), policy);
                    sim.run_for_secs(4.0);
                    let t_ms = (sim.now() - simcore::SimTime::ZERO).as_millis_f64();
                    let speeds: Vec<f64> = match shape {
                        Shape::OneServer => vec![1.0],
                        _ => vec![1.25, 1.0, 1.0, 0.75],
                    };
                    let lanes: Vec<usize> = match shape {
                        Shape::OneServer => vec![ServerParams::small().worker_lanes],
                        _ => vec![4, 2, 2, 1],
                    };
                    for s in 0..sim.server_count() {
                        let service =
                            SimDuration::from_millis_f64(infer_ms / speeds[s]).as_millis_f64();
                        let (_, _, completed) = sim.server_counters(s);
                        let slack =
                            sim.server_avg_busy_lanes(s) * t_ms - completed as f64 * service;
                        let eps = 1e-9 * t_ms * lanes[s] as f64;
                        prop_assert!(
                            slack >= -eps && slack <= lanes[s] as f64 * service + eps,
                            "{shape:?} server {s}: busy − completed·S = {slack} ms outside [0, {}·{service}]",
                            lanes[s]
                        );
                    }
                    let m = sim.metrics();
                    prop_assert_eq!(
                        m.submitted,
                        m.completed() + m.dropped + sim.in_flight() as u64,
                        "{shape:?}: submitted ≠ completed + dropped + in flight"
                    );
                }
                Ok(())
            },
        );
    }

    /// Transfer plans are pure: the same identity always yields the same
    /// plan, and distinct flows draw from independent streams.
    #[test]
    fn transfer_plans_are_pure_functions_of_identity() {
        check::check(
            "edgelink_plan_purity",
            (u64s(..), u64s(1..100_000), f64s(0.0..0.9)),
            |&(flow_seed, seq, loss)| {
                let link = LinkParams {
                    loss_prob: loss,
                    ..LinkParams::wifi()
                };
                let a = plan_transfer(&link, Direction::Up, 4096, flow_seed, seq);
                let b = plan_transfer(&link, Direction::Up, 4096, flow_seed, seq);
                prop_assert_eq!(a.attempts, b.attempts);
                prop_assert_eq!(a.occupancy, b.occupancy);
                prop_assert_eq!(a.propagation, b.propagation);
                prop_assert!(a.attempts >= 1 && a.attempts <= link.max_attempts);
                Ok(())
            },
        );
    }
}
