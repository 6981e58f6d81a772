//! Edge offloading: the [`EdgeWorld`] couples N copies of the MAR app to
//! one shared wireless link profile and edge inference server, making
//! **Edge** a fourth allocation target for HBO (DESIGN.md §6).
//!
//! # World model
//!
//! The fleet is symmetric: every client runs the same scenario on the
//! same device and applies the same HBO configuration, as a venue full of
//! identical MAR users would. Locally the clients do not contend with
//! each other (each has its own SoC), so one [`MarApp`] instance stands
//! in for all of them; what they *do* share is the edge server and the
//! link profile, modeled by a one-server [`edgelink::ClusterSim`]
//! ([`edgelink::one_server`]) carrying one flow per `(client,
//! edge-allocated task)`. A task allocated to Edge leaves
//! only a small serialization stub on the SoC
//! (`MarApp::set_offloaded`); its latency is measured from the edge
//! simulation instead.
//!
//! The optimizer is unchanged: HBO sees Edge as one more simplex
//! coordinate and one more latency column in the task profiles, and the
//! edge cost (uplink serialization + queueing + inference + downlink)
//! reaches it the same way SoC contention does — through the measured
//! `(Q, ε)` of each control period.

pub use edgelink::{Direction, LinkParams, ServerParams, SharedCell};

use edgelink::{one_server, ClientLabel, ClientSpec, ClusterSim};
use hbo_core::{best_local_allocation, edge_only_allocation, HboConfig, HboPoint, WarmCache};
use nnmodel::Delegate;
use simcore::rng::mix;
use simcore::stats::Running;
use simcore::trace::{observe, Tracer};
use simcore::{QueueKind, SimTime};

use crate::app::{task_period_ms, MarApp, TASK_GAP_MS, TASK_JITTER_MS};
use crate::experiment::{
    run_activation, run_warm, scenario_signature, HboRunResult, Plant, WarmRunResult,
    CONTROL_PERIOD_SECS, WARMUP_SECS,
};
use crate::rows::{fmt_opt_ms, JsonRow};
use crate::scenario::ScenarioSpec;
use crate::telemetry::TelemetrySummary;

/// The edge deployment a scenario offloads to: link profile, server
/// sizing, fleet size, and per-request payloads.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EdgeSpec {
    /// Per-client wireless link parameters.
    pub link: LinkParams,
    /// Shared edge inference server sizing.
    pub server: ServerParams,
    /// Number of identical clients sharing the server.
    pub clients: usize,
    /// Request payload per inference (input tensors), in bytes.
    pub request_bytes: u64,
    /// Response payload per inference (detections/labels), in bytes.
    pub response_bytes: u64,
    /// Edge inference time as a fraction of the task's best on-device
    /// latency (server GPUs are faster than phone accelerators).
    pub server_speedup: f64,
    /// On-device serialization/compression cost per offloaded inference,
    /// in milliseconds (the stub left on the SoC).
    pub client_overhead_ms: f64,
    /// When set, all clients contend for this shared cell instead of
    /// owning private radio pairs; `link` keeps supplying the per-transfer
    /// loss/jitter/propagation profile.
    pub shared: Option<SharedCell>,
}

impl EdgeSpec {
    /// A Wi-Fi deployment with a small shared server and `clients` users.
    pub fn wifi(clients: usize) -> Self {
        EdgeSpec {
            link: LinkParams::wifi(),
            server: ServerParams::small(),
            clients,
            request_bytes: 32 * 1024,
            response_bytes: 4 * 1024,
            server_speedup: 0.15,
            client_overhead_ms: 0.5,
            shared: None,
        }
    }

    /// Sets the uplink bandwidth (downlink follows at 2×, the usual
    /// asymmetry) — the knob the `edge_offload` sweep turns.
    pub fn with_uplink_mbps(mut self, mbps: f64) -> Self {
        self.link.uplink_mbps = mbps;
        self.link.downlink_mbps = 2.0 * mbps;
        self
    }

    /// Switches the fleet onto a shared contended cell. HBO's `τ^e`
    /// estimate then plans with the effective per-client bandwidth at the
    /// current population instead of the private link rate.
    pub fn with_shared_cell(mut self, cell: SharedCell) -> Self {
        self.shared = Some(cell);
        self
    }

    /// Edge inference time for a task whose best on-device latency is
    /// `best_local_ms` (floored so trivial models still pay a kernel
    /// launch).
    pub fn infer_ms(&self, best_local_ms: f64) -> f64 {
        (best_local_ms * self.server_speedup).max(0.5)
    }

    /// The link profile HBO plans with: the private link as-is, or — on a
    /// shared cell — the same profile with both bandwidths replaced by the
    /// effective per-client share at this fleet size.
    pub(crate) fn planning_link(&self) -> LinkParams {
        match self.shared {
            None => self.link,
            Some(cell) => LinkParams {
                uplink_mbps: cell.effective_client_mbps(Direction::Up, self.clients),
                downlink_mbps: cell.effective_client_mbps(Direction::Down, self.clients),
                ..self.link
            },
        }
    }

    /// Unloaded offload latency for such a task — the Edge `τ^e`.
    pub(crate) fn offload_estimate_ms(&self, best_local_ms: f64) -> f64 {
        self.planning_link().unloaded_offload_ms(
            self.request_bytes,
            self.response_bytes,
            self.infer_ms(best_local_ms),
        )
    }
}

/// Edge-side observations of one measurement window (absent when no task
/// was allocated to Edge).
#[derive(Debug, Clone, PartialEq)]
pub struct EdgeStats {
    /// p95 round-trip latency over all flows' completions, in ms.
    /// `None` when the window completed no round trip — a saturated or
    /// fully-rejecting window has no latency distribution, and reporting
    /// `0.0` would be indistinguishable from an impossibly fast one.
    pub p95_ms: Option<f64>,
    /// Mean round-trip latency over all flows' completions, in ms.
    /// `None` when `completed == 0` (same rationale as `p95_ms`).
    pub mean_ms: Option<f64>,
    /// Round trips completed across the fleet.
    pub completed: u64,
    /// Admission rejections across the fleet.
    pub rejected: u64,
    /// Time-weighted average busy server lanes.
    pub avg_busy_lanes: f64,
}

/// A fleet measurement over one control period: the on-device
/// [`crate::Measurement`] with edge-allocated tasks' latencies replaced
/// by the shared-edge round-trip times.
#[derive(Debug, Clone, PartialEq)]
pub struct EdgeMeasurement {
    /// Average virtual-object quality `Q`.
    pub quality: f64,
    /// Average normalized AI latency `ε`, with Edge tasks measured over
    /// the shared link + server.
    pub epsilon: f64,
    /// Mean per-task latency (fleet mean for Edge tasks), in task order.
    pub per_task_ms: Vec<f64>,
    /// Edge-side stats, when any task was offloaded.
    pub edge: Option<EdgeStats>,
    /// Simulated time at the end of the window.
    pub at: SimTime,
}

impl EdgeMeasurement {
    /// The reward `B = Q − w ε`.
    pub fn reward(&self, w: f64) -> f64 {
        hbo_core::reward(self.quality, self.epsilon, w)
    }
}

/// A multi-client MAR session with edge offloading (module docs for the
/// world model).
#[derive(Debug)]
pub struct EdgeWorld {
    edge: EdgeSpec,
    app: MarApp,
    expected_ms: Vec<f64>,
    /// Edge inference time per task.
    infer_ms: Vec<f64>,
    /// Fallback latency per task when a window completes no round trip.
    estimate_ms: Vec<f64>,
    /// Best on-device delegate per task (placeholder under the stub).
    local_best: Vec<Delegate>,
    /// The allocation currently applied (may contain [`Delegate::Edge`]).
    alloc: Vec<Delegate>,
    master_seed: u64,
    /// Measurement windows completed (advances the edge RNG stream).
    epoch: u64,
    /// The tracer in scope when the world was built (shared with the
    /// app); each per-window edge sim is built in a nested scope holding
    /// it with a window-start time offset, so their events land on the
    /// app timeline.
    tracer: Tracer,
    /// Edge totals merged across every measurement window (each window
    /// runs a fresh [`ClusterSim`] which is dropped afterwards).
    edge_telemetry: TelemetrySummary,
}

impl EdgeWorld {
    /// Builds the fleet for a scenario with an [`EdgeSpec`].
    ///
    /// The tracer in scope when the world is built
    /// ([`simcore::trace::observe`]) records the on-device app and every
    /// per-window edge sim (radio and server-lane spans land on the app
    /// timeline via a window-start offset).
    ///
    /// # Panics
    ///
    /// Panics if `spec.edge` is `None` or names no clients.
    pub fn new(spec: &ScenarioSpec, seed: u64) -> Self {
        let edge = spec
            .edge
            .expect("EdgeWorld requires ScenarioSpec::with_edge");
        assert!(edge.clients >= 1, "need at least one client");
        let profiles = spec.profiles();
        let infer_ms: Vec<f64> = profiles
            .iter()
            .map(|p| edge.infer_ms(p.best_on_device().1))
            .collect();
        let estimate_ms: Vec<f64> = profiles
            .iter()
            .map(|p| edge.offload_estimate_ms(p.best_on_device().1))
            .collect();
        let app = MarApp::new(spec);
        let alloc = app.allocation();
        EdgeWorld {
            edge,
            expected_ms: profiles.iter().map(|p| p.expected_latency()).collect(),
            infer_ms,
            estimate_ms,
            local_best: best_local_allocation(&profiles),
            alloc,
            app,
            master_seed: seed,
            epoch: 0,
            tracer: Tracer::current(),
            edge_telemetry: TelemetrySummary::default(),
        }
    }

    /// The on-device app shared by every (locally independent) client.
    pub fn app(&self) -> &MarApp {
        &self.app
    }

    /// Places every pending virtual object.
    pub fn place_all_objects(&mut self) {
        self.app.place_all_objects();
    }

    /// Advances the on-device simulation (edge flows only run inside
    /// measurement windows).
    pub fn run_for_secs(&mut self, secs: f64) {
        self.app.run_for_secs(secs);
    }

    /// The allocation currently applied, in task order.
    pub fn allocation(&self) -> Vec<Delegate> {
        self.alloc.clone()
    }

    /// Applies a full HBO configuration. Edge-allocated tasks leave a
    /// serialization stub on the SoC; everything else is a plain
    /// [`MarApp::apply`].
    pub fn apply(&mut self, point: &HboPoint) {
        // set_allocation rejects Edge entries, so Edge tasks first get
        // their best local delegate as a placeholder plan...
        let local: Vec<Delegate> = point
            .allocation
            .iter()
            .enumerate()
            .map(|(i, &d)| {
                if d == Delegate::Edge {
                    self.local_best[i]
                } else {
                    d
                }
            })
            .collect();
        self.app.set_allocation(&local);
        // ...then the placeholder is overwritten by the offload stub.
        for (i, &d) in point.allocation.iter().enumerate() {
            if d == Delegate::Edge {
                self.app.set_offloaded(i, self.edge.client_overhead_ms);
            }
        }
        self.app.set_triangle_ratio(point.x);
        self.alloc = point.allocation.clone();
    }

    /// Runs one control period on both simulations and measures the fleet
    /// `(Q, ε)` over it. Each window's edge flows draw from a fresh
    /// `(master seed, epoch)` stream, so a world is deterministic given
    /// its call sequence.
    pub fn measure_for_secs(&mut self, secs: f64) -> EdgeMeasurement {
        let edge_tasks: Vec<usize> = self
            .alloc
            .iter()
            .enumerate()
            .filter(|(_, d)| **d == Delegate::Edge)
            .map(|(i, _)| i)
            .collect();
        let window_start = self.app.now();
        let base = self.app.measure_for_secs(secs);
        let mut per_task_ms = base.per_task_ms;
        let mut edge_stats = None;
        if !edge_tasks.is_empty() {
            let mut flows = Vec::new();
            for client in 0..self.edge.clients {
                for &t in &edge_tasks {
                    flows.push(ClientSpec {
                        label: ClientLabel::Name(format!("c{client}/t{t}")),
                        request_bytes: self.edge.request_bytes,
                        response_bytes: self.edge.response_bytes,
                        infer_ms: self.infer_ms[t],
                        gap_ms: TASK_GAP_MS,
                        period_ms: task_period_ms(t),
                        jitter_ms: TASK_JITTER_MS,
                    });
                }
            }
            let seed = mix(self.master_seed, self.epoch);
            // The edge sim's clock starts at zero each window; building it
            // under the world's tracer shifted by the window start puts its
            // spans on the app timeline (and the observer's track dedup
            // keeps one set of radio/lane tracks across windows).
            let window_tracer = self.tracer.offset_by(window_start - SimTime::ZERO);
            let (params, sessions) = one_server(
                self.edge.link,
                self.edge.server,
                self.edge.shared,
                flows,
                seed,
            );
            let mut esim = observe(window_tracer, || {
                ClusterSim::new(params, sessions, QueueKind::Heap)
            });
            esim.run_for_secs(secs);

            // Fleet-mean latency per edge task (flows are laid out
            // client-major, task-minor).
            let k = edge_tasks.len();
            for (j, &t) in edge_tasks.iter().enumerate() {
                let mut sum = 0.0;
                let mut n = 0u64;
                for client in 0..self.edge.clients {
                    let samples = esim.session_samples(client * k + j);
                    if !samples.is_empty() {
                        let mut flow = Running::new();
                        for &(_, l) in samples {
                            flow.record(l);
                        }
                        sum += flow.mean();
                        n += 1;
                    }
                }
                per_task_ms[t] = if n > 0 {
                    sum / n as f64
                } else {
                    self.estimate_ms[t]
                };
            }

            // Pooled fleet latency distribution for the reported p95.
            let mut pooled: Vec<f64> = (0..esim.session_count())
                .flat_map(|c| esim.session_samples(c).iter().map(|&(_, l)| l))
                .collect();
            pooled.sort_by(|a, b| a.partial_cmp(b).expect("finite latencies"));
            let (_, rejected, _) = esim.server_counters(0);
            self.edge_telemetry
                .merge(&TelemetrySummary::of_cluster(&esim));
            edge_stats = Some(EdgeStats {
                p95_ms: percentile(&pooled, 0.95),
                mean_ms: if pooled.is_empty() {
                    None
                } else {
                    Some(pooled.iter().sum::<f64>() / pooled.len() as f64)
                },
                completed: pooled.len() as u64,
                rejected,
                avg_busy_lanes: esim.server_avg_busy_lanes(0),
            });
        }
        self.epoch += 1;
        let epsilon = hbo_core::normalized_latency(&per_task_ms, &self.expected_ms);
        EdgeMeasurement {
            quality: base.quality,
            epsilon,
            per_task_ms,
            edge: edge_stats,
            at: base.at,
        }
    }

    /// Telemetry totals for the whole session: the on-device summary
    /// ([`MarApp::telemetry`]) merged with the edge totals of every
    /// measurement window. The one server retries every rejection until
    /// it is admitted, so the edge drops nothing and its rejections are
    /// the server's.
    pub fn telemetry(&self) -> TelemetrySummary {
        let mut telemetry = self.app.telemetry();
        telemetry.merge(&self.edge_telemetry);
        telemetry
    }
}

impl Plant for EdgeWorld {
    fn app(&self) -> &MarApp {
        &self.app
    }
    fn app_mut(&mut self) -> &mut MarApp {
        &mut self.app
    }
    fn allocation(&self) -> Vec<Delegate> {
        EdgeWorld::allocation(self)
    }
    fn apply(&mut self, point: &HboPoint) {
        EdgeWorld::apply(self, point)
    }
    fn measure(&mut self, secs: f64) -> (f64, f64, SimTime) {
        let m = self.measure_for_secs(secs);
        (m.quality, m.epsilon, m.at)
    }
    fn telemetry(&self) -> TelemetrySummary {
        EdgeWorld::telemetry(self)
    }
}

/// Nearest-rank percentile of an ascending-sorted slice; `None` when the
/// slice is empty (an empty sample set has no percentile — fabricating
/// `0.0` here would make a fully-rejecting window look infinitely fast,
/// and the `clamp(1, len)` below needs `len >= 1` to be well-formed).
fn percentile(sorted: &[f64], q: f64) -> Option<f64> {
    if sorted.is_empty() {
        return None;
    }
    let idx = ((sorted.len() as f64 * q).ceil() as usize).clamp(1, sorted.len()) - 1;
    Some(sorted[idx])
}

/// One full HBO activation on an [`EdgeWorld`]: [`crate::experiment::run_hbo`]
/// with Edge in the decision space and the fleet measurement in the
/// loop. Under a tracer ([`simcore::trace::observe`]), SoC spans,
/// per-window radio/server-lane spans, `"hbo"` control-window spans, and
/// BO per-suggest spans all land in one buffer, and the result stays
/// bit-identical.
///
/// # Panics
///
/// Panics if `spec.edge` is `None`.
pub fn run_edge_hbo(spec: &ScenarioSpec, config: &HboConfig, seed: u64) -> HboRunResult {
    run_activation(spec, config, seed, activation_world(spec, seed), None)
}

/// [`run_edge_hbo`] with the fleet-wide warm-start cache in the loop
/// (as [`crate::experiment::run_hbo_warm`], with the edge dimension in
/// the signature and a 4-simplex seed guard).
///
/// # Panics
///
/// Panics if `spec.edge` is `None`.
pub fn run_edge_hbo_warm(
    spec: &ScenarioSpec,
    config: &HboConfig,
    seed: u64,
    cache: &mut WarmCache,
) -> WarmRunResult {
    let signature = scenario_signature(spec);
    run_warm(
        spec,
        config,
        seed,
        cache,
        signature,
        activation_world(spec, seed),
    )
}

/// The world an activation with run seed `seed` drives; its edge streams
/// derive from a tag of that seed.
fn activation_world(spec: &ScenarioSpec, seed: u64) -> EdgeWorld {
    EdgeWorld::new(spec, mix(seed, 0xED6E_0001))
}

/// The measured outcome of one system on an edge scenario.
#[derive(Debug, Clone)]
pub struct EdgeSystemOutcome {
    /// `"local-only"`, `"edge-only"`, or `"hbo-joint"`.
    pub system: &'static str,
    /// Final allocation, in task order.
    pub allocation: Vec<Delegate>,
    /// Final triangle ratio.
    pub x: f64,
    /// Fleet measurement under the final configuration.
    pub measurement: EdgeMeasurement,
}

impl EdgeSystemOutcome {
    /// The reward `B = Q − w ε`.
    pub fn reward(&self, w: f64) -> f64 {
        self.measurement.reward(w)
    }
}

/// Applies a fixed configuration to a fresh fleet and measures it over an
/// extended window. The re-measurement is never traced: it runs in an
/// explicitly disabled scope, since its spans would overlap the
/// activation's tracks at the same simulated times.
pub(crate) fn evaluate_fixed_edge(
    spec: &ScenarioSpec,
    allocation: &[Delegate],
    x: f64,
    seed: u64,
) -> EdgeMeasurement {
    observe(Tracer::disabled(), || {
        let mut world = EdgeWorld::new(spec, seed);
        world.place_all_objects();
        let point = HboPoint {
            z: Vec::new(),
            c: Vec::new(),
            x,
            allocation: allocation.to_vec(),
        };
        world.apply(&point);
        world.run_for_secs(WARMUP_SECS);
        world.measure_for_secs(2.0 * CONTROL_PERIOD_SECS)
    })
}

/// Compares the three edge-aware systems on one scenario:
///
/// - **local-only** — every task on its best on-device resource, full
///   quality (the no-edge status quo);
/// - **edge-only** — every edge-capable task offloaded, full quality
///   (naive "the cloud is faster" policy);
/// - **hbo-joint** — HBO optimizing allocation (including Edge) and the
///   triangle ratio jointly.
///
/// Also returns the activation's telemetry totals. Under a tracer only
/// the HBO activation is recorded ([`evaluate_fixed_edge`] is untraced).
///
/// # Panics
///
/// Panics if `spec.edge` is `None`.
pub(crate) fn compare_edge_systems(
    spec: &ScenarioSpec,
    config: &HboConfig,
    seed: u64,
) -> (Vec<EdgeSystemOutcome>, TelemetrySummary) {
    let profiles = spec.profiles();
    let local = best_local_allocation(&profiles);
    let edge_only = edge_only_allocation(&profiles);
    let hbo_run = run_edge_hbo(spec, config, seed);
    let eval_seed = mix(seed, 0xED6E_0002);
    let outcomes = vec![
        EdgeSystemOutcome {
            system: "local-only",
            measurement: evaluate_fixed_edge(spec, &local, 1.0, eval_seed),
            allocation: local,
            x: 1.0,
        },
        EdgeSystemOutcome {
            system: "edge-only",
            measurement: evaluate_fixed_edge(spec, &edge_only, 1.0, eval_seed),
            allocation: edge_only,
            x: 1.0,
        },
        EdgeSystemOutcome {
            system: "hbo-joint",
            measurement: evaluate_fixed_edge(
                spec,
                &hbo_run.best.point.allocation,
                hbo_run.best.point.x,
                eval_seed,
            ),
            allocation: hbo_run.best.point.allocation.clone(),
            x: hbo_run.best.point.x,
        },
    ];
    (outcomes, hbo_run.telemetry)
}

/// Renders the nested edge-stats object shared by the `edge_offload` and
/// `stadium_sweep` rows (`null` when no task was offloaded).
fn edge_stats_json(edge: &Option<EdgeStats>) -> String {
    match edge {
        Some(e) => format!(
            "{{\"p95_ms\":{},\"mean_ms\":{},\"completed\":{},\"rejected\":{},\"avg_busy_lanes\":{:.6}}}",
            fmt_opt_ms(e.p95_ms),
            fmt_opt_ms(e.mean_ms),
            e.completed,
            e.rejected,
            e.avg_busy_lanes
        ),
        None => "null".to_owned(),
    }
}

/// Renders one sweep row as a JSON line (hand-rolled; hermetic build).
pub(crate) fn row_json(
    scenario: &str,
    clients: usize,
    uplink_mbps: f64,
    outcome: &EdgeSystemOutcome,
    w: f64,
) -> String {
    let alloc: String = outcome.allocation.iter().map(|d| d.letter()).collect();
    let edge = edge_stats_json(&outcome.measurement.edge);
    JsonRow::new("edge_offload")
        .str("scenario", scenario)
        .u64("clients", clients as u64)
        .f64("uplink_mbps", uplink_mbps, 3)
        .str("system", outcome.system)
        .str("alloc", &alloc)
        .f64("x", outcome.x, 6)
        .f64("quality", outcome.measurement.quality, 6)
        .f64("epsilon", outcome.measurement.epsilon, 6)
        .f64("reward", outcome.reward(w), 6)
        .raw("edge", &edge)
        .finish()
}

/// Runs one `(clients, uplink bandwidth)` cell of the `edge_offload`
/// sweep and renders its three system rows — shared by the bench binary
/// and the golden regression test. Also returns the activation's
/// telemetry totals; the rows are byte-identical under any tracer.
pub fn sweep_cell(
    base: &ScenarioSpec,
    clients: usize,
    uplink_mbps: f64,
    config: &HboConfig,
    seed: u64,
) -> (Vec<String>, TelemetrySummary) {
    let spec = base
        .clone()
        .with_edge(EdgeSpec::wifi(clients).with_uplink_mbps(uplink_mbps));
    let (outcomes, telemetry) = compare_edge_systems(&spec, config, seed);
    let rows = outcomes
        .iter()
        .map(|o| row_json(&spec.name, clients, uplink_mbps, o, config.w))
        .collect();
    (rows, telemetry)
}

/// Runs one population cell of the `stadium_sweep`: `clients` users share
/// one contended cell, HBO optimizes the fleet (planning with the
/// effective per-client bandwidth), and the best configuration is
/// re-measured on a fresh fleet. The row reports HBO's edge-allocation
/// share next to the effective bandwidth, so the sweep shows the flip
/// back to local inference as the cell fills up. Under a tracer only the
/// HBO activation is recorded (the re-measurement is untraced).
pub fn stadium_cell(
    base: &ScenarioSpec,
    cell: SharedCell,
    clients: usize,
    config: &HboConfig,
    seed: u64,
) -> (String, TelemetrySummary) {
    let spec = base
        .clone()
        .with_edge(EdgeSpec::wifi(clients).with_shared_cell(cell));
    let hbo_run = run_edge_hbo(&spec, config, seed);
    let best = &hbo_run.best.point;
    let measurement = evaluate_fixed_edge(&spec, &best.allocation, best.x, mix(seed, 0xED6E_0002));
    let alloc: String = best.allocation.iter().map(|d| d.letter()).collect();
    let edge_tasks = best
        .allocation
        .iter()
        .filter(|&&d| d == Delegate::Edge)
        .count();
    let row = JsonRow::new("stadium_sweep")
        .str("scenario", &spec.name)
        .u64("clients", clients as u64)
        .f64(
            "eff_uplink_mbps",
            cell.effective_client_mbps(Direction::Up, clients),
            3,
        )
        .f64(
            "eff_downlink_mbps",
            cell.effective_client_mbps(Direction::Down, clients),
            3,
        )
        .str("alloc", &alloc)
        .u64("edge_tasks", edge_tasks as u64)
        .u64("tasks", best.allocation.len() as u64)
        .f64("x", best.x, 6)
        .f64("quality", measurement.quality, 6)
        .f64("epsilon", measurement.epsilon, 6)
        .f64("reward", measurement.reward(config.w), 6)
        .raw("edge", &edge_stats_json(&measurement.edge))
        .finish();
    (row, hbo_run.telemetry)
}

#[cfg(test)]
mod tests {
    use super::*;
    use simcore::metrics::with_observers;

    fn quick_config() -> HboConfig {
        HboConfig {
            n_initial: 3,
            iterations: 5,
            ..HboConfig::default()
        }
    }

    fn edge_spec(clients: usize, mbps: f64) -> EdgeSpec {
        EdgeSpec::wifi(clients).with_uplink_mbps(mbps)
    }

    #[test]
    fn edge_profiles_extend_tau_e() {
        let spec = ScenarioSpec::sc2_cf2().with_edge(edge_spec(2, 50.0));
        for p in spec.profiles() {
            assert!(p.supports(Delegate::Edge), "{} lacks Edge", p.name());
            assert!(p.latency_on(Delegate::Edge).unwrap() > 0.0);
        }
    }

    #[test]
    fn edge_world_measures_offloaded_tasks_from_the_shared_sim() {
        let spec = ScenarioSpec::sc2_cf2().with_edge(edge_spec(2, 50.0));
        let mut world = EdgeWorld::new(&spec, 11);
        world.place_all_objects();
        world.run_for_secs(WARMUP_SECS);
        let profiles = spec.profiles();
        let point = HboPoint {
            z: Vec::new(),
            c: Vec::new(),
            x: 1.0,
            allocation: edge_only_allocation(&profiles),
        };
        world.apply(&point);
        let m = world.measure_for_secs(2.0);
        let e = m.edge.expect("edge tasks ran");
        assert!(e.completed > 0);
        let (p95, mean) = (e.p95_ms.unwrap(), e.mean_ms.unwrap());
        assert!(p95 >= mean * 0.5);
        // Offloaded latencies carry at least the RTT.
        for (i, &ms) in m.per_task_ms.iter().enumerate() {
            assert!(
                ms >= spec.edge.unwrap().link.rtt_ms * 0.5,
                "task {i}: {ms} ms is below the link floor"
            );
        }
        // The window's cluster totals reach the world's telemetry: its
        // rejections are the one server's, and a server that retries
        // every rejection drops nothing.
        let t = world.telemetry();
        assert_eq!(t.edge_rejected, e.rejected);
        assert_eq!(t.cluster_dropped, 0);
    }

    #[test]
    fn fleet_p95_is_monotone_in_client_count() {
        // Fixed bandwidth, edge-only allocation, one server lane: more
        // clients must mean a worse fleet p95.
        let mut p95s = Vec::new();
        for clients in [1usize, 4, 8] {
            let mut edge = edge_spec(clients, 50.0);
            edge.server = ServerParams {
                worker_lanes: 1,
                queue_capacity: 32,
            };
            let spec = ScenarioSpec::sc2_cf2().with_edge(edge);
            let alloc = edge_only_allocation(&spec.profiles());
            let m = evaluate_fixed_edge(&spec, &alloc, 1.0, 23);
            p95s.push(m.edge.expect("edge stats").p95_ms.expect("completions"));
        }
        assert!(
            p95s[0] < p95s[1] && p95s[1] < p95s[2],
            "fleet p95 not monotone: {p95s:?}"
        );
    }

    #[test]
    fn percentile_of_empty_is_none() {
        // Regression: this used to fabricate 0.0 for an empty sample set
        // (and the nearest-rank clamp is only well-formed for len >= 1).
        assert_eq!(percentile(&[], 0.95), None);
        assert_eq!(percentile(&[3.0], 0.5), Some(3.0));
        assert_eq!(percentile(&[1.0, 2.0, 3.0, 4.0], 0.95), Some(4.0));
    }

    #[test]
    fn zero_completion_window_reports_null_stats_not_zero_ms() {
        // Regression: a window where nothing completes (here: an uplink so
        // slow one request outlives the window) used to report
        // `mean_ms: 0.0` with `completed: 0`, indistinguishable from an
        // impossibly fast fleet. It must surface "no completions".
        let edge = edge_spec(1, 0.01); // 32 KiB request ≈ 26 s serialization
        let spec = ScenarioSpec::sc2_cf2().with_edge(edge);
        let alloc = edge_only_allocation(&spec.profiles());
        let mut world = EdgeWorld::new(&spec, 7);
        world.place_all_objects();
        let point = HboPoint {
            z: Vec::new(),
            c: Vec::new(),
            x: 1.0,
            allocation: alloc.clone(),
        };
        world.apply(&point);
        let m = world.measure_for_secs(1.0);
        let e = m.edge.clone().expect("edge tasks were allocated");
        assert_eq!(e.completed, 0);
        assert_eq!(e.p95_ms, None);
        assert_eq!(e.mean_ms, None);
        // The JSON row must say null, not 0.000000.
        let outcome = EdgeSystemOutcome {
            system: "edge-only",
            allocation: alloc,
            x: 1.0,
            measurement: m,
        };
        let row = row_json(&spec.name, 1, 0.01, &outcome, 0.5);
        assert!(row.contains("\"p95_ms\":null"), "row: {row}");
        assert!(row.contains("\"mean_ms\":null"), "row: {row}");
        assert!(row.contains("\"completed\":0"), "row: {row}");
    }

    #[test]
    fn edge_world_is_deterministic() {
        let spec = ScenarioSpec::sc2_cf2().with_edge(edge_spec(3, 25.0));
        let alloc = edge_only_allocation(&spec.profiles());
        let a = evaluate_fixed_edge(&spec, &alloc, 1.0, 5);
        let b = evaluate_fixed_edge(&spec, &alloc, 1.0, 5);
        assert_eq!(a, b);
    }

    #[test]
    fn traced_edge_run_covers_all_four_layers_and_matches_untraced() {
        let spec = ScenarioSpec::sc1_cf2().with_edge(edge_spec(2, 5.0));
        let config = quick_config();
        let (traced, buf, _) = with_observers(true, false, |_| run_edge_hbo(&spec, &config, 17));
        let plain = run_edge_hbo(&spec, &config, 17);
        assert_eq!(plain.best.point, traced.best.point);
        assert_eq!(plain.best_cost_trace, traced.best_cost_trace);
        assert_eq!(plain.telemetry, traced.telemetry);
        let buf = buf.expect("chrome buffering is on");
        for cat in ["soc", "edgelink", "hbo", "bo"] {
            assert!(
                buf.records.iter().any(|r| r.cat == cat),
                "no {cat} events in the trace"
            );
        }
    }

    #[test]
    fn hbo_joint_dominates_both_baselines_in_some_regime() {
        // Heavy scene (SC1), small taskset: at some bandwidth HBO's joint
        // allocation + decimation must beat both fixed policies.
        let config = quick_config();
        let mut dominated = false;
        for mbps in [5.0, 50.0] {
            let spec = ScenarioSpec::sc1_cf2().with_edge(edge_spec(4, mbps));
            let (outcomes, _) = compare_edge_systems(&spec, &config, 17);
            let reward = |name: &str| {
                outcomes
                    .iter()
                    .find(|o| o.system == name)
                    .expect("system present")
                    .reward(config.w)
            };
            if reward("hbo-joint") > reward("local-only")
                && reward("hbo-joint") > reward("edge-only")
            {
                dominated = true;
            }
        }
        assert!(dominated, "hbo-joint never dominated both baselines");
    }
}
