//! Fleet-scale edge serving: heterogeneous client populations with
//! session churn, routed across a multi-server cluster (ROADMAP item 1,
//! DESIGN.md §10).
//!
//! Where [`crate::edge`] mirrors one `MarApp` N ways against a single
//! server, this module generates a *population*: sessions drawn
//! deterministically from a [`FleetSpec`] — mixed device profiles,
//! models, frame rates, zones — arriving and departing by a Poisson
//! process on the existing seeded RNG streams, and served by an
//! [`edgelink::ClusterSim`] behind a pluggable [`RoutePolicy`].
//!
//! # Seed derivation
//!
//! One cell seed fans out as:
//!
//! ```text
//! cell seed ──mix(·, 0xF1EE_0001)──▶ churn stream (class / zone /
//!                                    arrival / duration draws)
//!          └─mix(mix(·, 0xF1EE_0002), i)──▶ session i's private seed
//!                                    (submit jitter, link randomness,
//!                                    power-of-two picks)
//! ```
//!
//! Session behavior is keyed solely off the session's private seed, so
//! permuting the generated vector relabels sessions without changing
//! any of them (pinned by the cluster relabeling tests).

use arscene::scenarios::{sc2_catalog, DEFAULT_USER_DISTANCE};
use edgelink::cluster::{ClusterParams, ClusterRadio, ClusterSim, ServerSpec, SessionSpec};
use edgelink::medium::{CellParams, MediumParams};
use edgelink::{ClientSpec, LinkParams, RoutePolicy, ServerParams, SharedMedium};
use hbo_core::{HboConfig, LookupKey, ScenarioSignature, TaskProfile, WarmCache};
use nnmodel::ModelZoo;
use simcore::rand::{Rng, SeedableRng, StdRng};
use simcore::rng::mix;
use simcore::trace::Tracer;
use simcore::QueueKind;
use soc::DeviceProfile;

use crate::app::{TASK_GAP_MS, TASK_JITTER_MS};
use crate::experiment::run_hbo_warm_keyed;
use crate::rows::JsonRow;
use crate::scenario::{ScenarioSpec, TaskSpec};
use crate::telemetry::TelemetrySummary;

/// One kind of client in the fleet: a device running one offloaded model
/// at one frame rate.
#[derive(Debug, Clone, PartialEq)]
pub struct DeviceClass {
    /// Class label (rendered into session labels).
    pub name: &'static str,
    /// Relative population share (normalized across classes).
    pub weight: f64,
    /// The phone (selects the calibrated model zoo).
    pub device: DeviceProfile,
    /// The offloaded model, by zoo name.
    pub model: String,
    /// Offload request rate, in frames per second.
    pub fps: f64,
    /// Request payload per inference, in bytes.
    pub request_bytes: u64,
    /// Response payload per inference, in bytes.
    pub response_bytes: u64,
    /// Mean session length for this class, in seconds (exponential).
    pub mean_session_secs: f64,
}

/// The fleet recipe: who the clients are, how many are live at once, and
/// how long the experiment runs.
#[derive(Debug, Clone, PartialEq)]
pub struct FleetSpec {
    /// Per-session wireless link profile.
    pub link: LinkParams,
    /// The population mix.
    pub classes: Vec<DeviceClass>,
    /// Number of zones sessions are spread over (uniformly).
    pub zones: usize,
    /// Target concurrent sessions. Little's law sets the Poisson arrival
    /// rate: `λ = target_sessions / mean session length`.
    pub target_sessions: usize,
    /// Simulated horizon per cell, in seconds.
    pub horizon_secs: f64,
    /// Edge inference time as a fraction of a model's best on-device
    /// latency, on a `speed == 1.0` server (mirrors
    /// [`crate::edge::EdgeSpec::server_speedup`]).
    pub server_speedup: f64,
    /// Floor on drawn session lengths, in seconds.
    pub min_session_secs: f64,
    /// Ignored: there is only one future-event list. Kept because the
    /// `perfbench` harness passes it to `ClusterSim::new`; see
    /// [`QueueKind`].
    pub queue: QueueKind,
}

impl FleetSpec {
    /// The default MAR fleet mix: flagship / midrange / budget classes
    /// across two zones, targeting `target_sessions` concurrent clients.
    pub fn mar_default(target_sessions: usize) -> Self {
        FleetSpec {
            link: LinkParams::wifi(),
            classes: vec![
                DeviceClass {
                    name: "flagship",
                    weight: 0.3,
                    device: DeviceProfile::pixel7(),
                    model: "efficientclass-lite0".to_owned(),
                    fps: 15.0,
                    request_bytes: 32 * 1024,
                    response_bytes: 4 * 1024,
                    mean_session_secs: 25.0,
                },
                DeviceClass {
                    name: "midrange",
                    weight: 0.5,
                    device: DeviceProfile::galaxy_s22(),
                    model: "mobilenet-v1".to_owned(),
                    fps: 10.0,
                    request_bytes: 24 * 1024,
                    response_bytes: 4 * 1024,
                    mean_session_secs: 20.0,
                },
                DeviceClass {
                    name: "budget",
                    weight: 0.2,
                    device: DeviceProfile::pixel7(),
                    model: "mobilenetDetv1".to_owned(),
                    fps: 5.0,
                    request_bytes: 16 * 1024,
                    response_bytes: 2 * 1024,
                    mean_session_secs: 15.0,
                },
            ],
            zones: 2,
            target_sessions,
            horizon_secs: 30.0,
            server_speedup: 0.15,
            min_session_secs: 2.0,
            queue: QueueKind::Heap,
        }
    }

    /// Sets the simulated horizon.
    pub fn with_horizon(mut self, secs: f64) -> Self {
        self.horizon_secs = secs;
        self
    }

    /// Edge inference time for one class on a `speed == 1.0` server,
    /// derived from the class device's calibrated zoo.
    ///
    /// # Panics
    ///
    /// Panics if the class model is missing from the device's zoo.
    pub fn infer_ms(&self, class: &DeviceClass) -> f64 {
        let zoo = ModelZoo::for_device(&class.device.name);
        let model = zoo
            .get(&class.model)
            .unwrap_or_else(|| panic!("model {:?} not in zoo", class.model));
        let (_, best_local_ms) = TaskProfile::from_model(model).best();
        (best_local_ms * self.server_speedup).max(0.5)
    }

    /// The [`ClientSpec`] a class's sessions run.
    fn client_spec(&self, class: &DeviceClass, session: u64) -> ClientSpec {
        ClientSpec {
            label: format!("{}{}", class.name, session),
            request_bytes: class.request_bytes,
            response_bytes: class.response_bytes,
            infer_ms: self.infer_ms(class),
            gap_ms: TASK_GAP_MS,
            period_ms: 1000.0 / class.fps,
            jitter_ms: TASK_JITTER_MS,
        }
    }

    /// Generates the churning session population for one cell,
    /// deterministically from `seed`.
    ///
    /// The population starts warm — `target_sessions` sessions are live
    /// near `t = 0` (staggered arrivals inside the first half second,
    /// exponential residual lifetimes, valid by memorylessness) — and
    /// churns with Poisson arrivals at the Little's-law rate
    /// `λ = target_sessions / E[session length]`, so concurrency hovers
    /// around the target instead of ramping from empty.
    ///
    /// # Panics
    ///
    /// Panics if the spec has no classes, non-positive weights, or no
    /// zones.
    pub fn sessions(&self, seed: u64) -> Vec<SessionSpec> {
        assert!(!self.classes.is_empty(), "need at least one device class");
        assert!(self.zones >= 1, "need at least one zone");
        let total_weight: f64 = self.classes.iter().map(|c| c.weight).sum();
        assert!(
            total_weight > 0.0 && self.classes.iter().all(|c| c.weight > 0.0),
            "class weights must be positive"
        );
        // Per-class client templates (zoo lookups once, not per session).
        let templates: Vec<ClientSpec> = self
            .classes
            .iter()
            .map(|c| self.client_spec(c, 0))
            .collect();
        let mean_session: f64 = self
            .classes
            .iter()
            .map(|c| c.weight / total_weight * c.mean_session_secs)
            .sum();
        let lambda = self.target_sessions as f64 / mean_session;
        let mut rng = StdRng::seed_from_u64(mix(seed, 0xF1EE_0001));
        let mut out = Vec::new();
        let push = |rng: &mut StdRng, out: &mut Vec<SessionSpec>, arrive: f64| {
            let class = draw_class(rng, &self.classes, total_weight);
            let i = out.len() as u64;
            let mut client = templates[class].clone();
            client.label = format!("{}{}", self.classes[class].name, i);
            let dur =
                exp_draw(rng, self.classes[class].mean_session_secs).max(self.min_session_secs);
            out.push(SessionSpec {
                client,
                zone: rng.gen_range(0..self.zones),
                arrive_secs: arrive,
                depart_secs: arrive + dur,
                seed: mix(mix(seed, 0xF1EE_0002), i),
            });
        };
        // Warm start: the steady-state population is already there.
        for _ in 0..self.target_sessions {
            let arrive = rng.gen::<f64>() * 0.5;
            push(&mut rng, &mut out, arrive);
        }
        // Poisson churn over the horizon.
        let mut t = 0.0;
        loop {
            t += exp_draw(&mut rng, 1.0 / lambda);
            if t >= self.horizon_secs {
                break;
            }
            push(&mut rng, &mut out, t);
        }
        out
    }

    /// Total client-windows of a generated population: summed active
    /// session-seconds inside the horizon.
    pub fn client_windows(&self, sessions: &[SessionSpec]) -> f64 {
        sessions
            .iter()
            .map(|s| (s.depart_secs.min(self.horizon_secs) - s.arrive_secs).max(0.0))
            .sum()
    }
}

/// Exponential draw with the given mean (inverse-CDF on one uniform).
fn exp_draw(rng: &mut StdRng, mean: f64) -> f64 {
    let u: f64 = rng.gen();
    -mean * (1.0 - u).ln()
}

/// Weighted class index draw.
fn draw_class(rng: &mut StdRng, classes: &[DeviceClass], total_weight: f64) -> usize {
    let mut u: f64 = rng.gen::<f64>() * total_weight;
    for (i, c) in classes.iter().enumerate() {
        u -= c.weight;
        if u < 0.0 {
            return i;
        }
    }
    classes.len() - 1
}

/// The fixed heterogeneous cluster the `fleet_sweep` cells run against:
/// four servers of mixed lane counts and speeds across two zones. Kept
/// constant across fleet sizes so the sweep shows the load curve of one
/// deployment, not a re-provisioned one.
pub fn mar_cluster(link: LinkParams, policy: RoutePolicy) -> ClusterParams {
    ClusterParams {
        link,
        servers: vec![
            // Zone 0: one big fast box plus a small one.
            ServerSpec {
                params: ServerParams {
                    worker_lanes: 4,
                    queue_capacity: 32,
                },
                zone: 0,
                speed: 1.25,
            },
            ServerSpec {
                params: ServerParams {
                    worker_lanes: 2,
                    queue_capacity: 16,
                },
                zone: 0,
                speed: 1.0,
            },
            // Zone 1: a mid box plus an older slow one.
            ServerSpec {
                params: ServerParams {
                    worker_lanes: 2,
                    queue_capacity: 16,
                },
                zone: 1,
                speed: 1.0,
            },
            ServerSpec {
                params: ServerParams {
                    worker_lanes: 1,
                    queue_capacity: 8,
                },
                zone: 1,
                speed: 0.75,
            },
        ],
        policy,
        cross_zone_ms: 8.0,
        max_admission_retries: 2,
        radio: ClusterRadio::Private,
    }
}

/// The outcome of one `(fleet size × policy)` cell.
#[derive(Debug, Clone)]
pub struct FleetCellResult {
    /// The rendered JSON row.
    pub row: String,
    /// Cluster totals folded into the shared telemetry shape
    /// (`edge_*` counters; no on-device processors at fleet scale).
    pub telemetry: TelemetrySummary,
    /// Completed round trips (the runner's per-cell metric).
    pub completed: u64,
    /// Pooled mean latency in ms, when anything completed.
    pub mean_ms: Option<f64>,
}

/// Runs one fleet cell: generate the population from `seed`, serve it
/// with `policy` for the spec's horizon, and pool cluster-level stats.
pub fn run_fleet_cell(spec: &FleetSpec, policy: RoutePolicy, seed: u64) -> FleetCellResult {
    run_fleet_cell_traced(spec, policy, seed, Tracer::disabled())
}

/// [`run_fleet_cell`] with a tracer on the cluster (per-server queue
/// depth and busy-lane counters; per-cell utilization when the radio is
/// shared). A disabled tracer reproduces [`run_fleet_cell`]
/// bit-identically.
pub fn run_fleet_cell_traced(
    spec: &FleetSpec,
    policy: RoutePolicy,
    seed: u64,
    tracer: Tracer,
) -> FleetCellResult {
    let sessions = spec.sessions(seed);
    let session_count = sessions.len();
    let client_windows = spec.client_windows(&sessions);
    let params = mar_cluster(spec.link, policy);
    let server_count = params.servers.len();
    let mut sim = ClusterSim::new_traced(params, sessions, tracer);
    sim.run_for_secs(spec.horizon_secs);
    let m = sim.metrics();
    let mut servers = String::from("[");
    for s in 0..server_count {
        if s > 0 {
            servers.push(',');
        }
        let (admitted, rejected, completed) = sim.server_counters(s);
        servers.push_str(&format!(
            "{{\"admitted\":{},\"rejected\":{},\"completed\":{},\"avg_busy_lanes\":{:.6}}}",
            admitted,
            rejected,
            completed,
            sim.server_avg_busy_lanes(s)
        ));
    }
    servers.push(']');
    let row = JsonRow::new("fleet_sweep")
        .str("policy", policy.name())
        .u64("fleet", spec.target_sessions as u64)
        .u64("sessions", session_count as u64)
        .f64("client_windows", client_windows, 3)
        .u64("submitted", m.submitted)
        .u64("completed", m.completed())
        .u64("dropped", m.dropped)
        .u64("rejects", m.reject_events)
        .opt_ms("reject_rate", m.reject_rate())
        .opt_ms("p50_ms", m.quantile_ms(0.50))
        .opt_ms("p95_ms", m.quantile_ms(0.95))
        .opt_ms("p99_ms", m.quantile_ms(0.99))
        .opt_ms("mean_ms", m.mean_ms())
        .u64("retransmits", m.retransmits)
        .u64("peak_queue", sim.peak_queue() as u64)
        .f64("busy_lanes", sim.total_avg_busy_lanes(), 6)
        .raw("servers", &servers)
        .finish();
    let telemetry = TelemetrySummary {
        edge_rejected: m.reject_events,
        edge_retransmits: m.retransmits,
        edge_peak_queue: sim.peak_queue(),
        cluster_dropped: m.dropped,
        cluster_handovers: sim.handovers(),
        medium_reallocs: sim.medium_reallocs(),
        ..TelemetrySummary::default()
    };
    FleetCellResult {
        row,
        completed: m.completed(),
        mean_ms: m.mean_ms(),
        telemetry,
    }
}

/// The two-cell walking deployment the stadium sweep's mobility cell
/// runs on: cells 120 m apart, sessions walking at 12 m/s across the
/// span, so every session crosses the handover boundary several times
/// per minute.
pub fn mobility_medium() -> SharedMedium {
    let mut medium = MediumParams::single_cell(120.0, 240.0);
    medium.cells.push(CellParams {
        x_m: 120.0,
        y_m: 0.0,
        uplink_mbps: 120.0,
        downlink_mbps: 240.0,
        cross: None,
    });
    SharedMedium {
        medium,
        walk_speed_mps: 12.0,
        area_m: 120.0,
    }
}

/// Runs the stadium sweep's mobility/handover cell: the fleet population
/// walks across [`mobility_medium`]'s two cells while offloading, and the
/// row reports handovers next to the usual latency stats.
pub fn run_mobility_cell(spec: &FleetSpec, seed: u64) -> FleetCellResult {
    run_mobility_cell_traced(spec, seed, Tracer::disabled())
}

/// [`run_mobility_cell`] with a tracer on the cluster (per-cell
/// utilization and active-flow counters land in the trace). A disabled
/// tracer reproduces [`run_mobility_cell`] bit-identically.
pub fn run_mobility_cell_traced(spec: &FleetSpec, seed: u64, tracer: Tracer) -> FleetCellResult {
    let sessions = spec.sessions(seed);
    let session_count = sessions.len();
    let mut params = mar_cluster(spec.link, RoutePolicy::ShortestQueue);
    params.radio = ClusterRadio::Shared(mobility_medium());
    let mut sim = ClusterSim::new_traced(params, sessions, tracer);
    sim.run_for_secs(spec.horizon_secs);
    let m = sim.metrics();
    let row = JsonRow::new("stadium_mobility")
        .u64("fleet", spec.target_sessions as u64)
        .u64("sessions", session_count as u64)
        .u64("handovers", sim.handovers())
        .u64("submitted", m.submitted)
        .u64("completed", m.completed())
        .u64("dropped", m.dropped)
        .u64("rejects", m.reject_events)
        .opt_ms("p50_ms", m.quantile_ms(0.50))
        .opt_ms("p95_ms", m.quantile_ms(0.95))
        .opt_ms("mean_ms", m.mean_ms())
        .u64("retransmits", m.retransmits)
        .finish();
    let telemetry = TelemetrySummary {
        edge_rejected: m.reject_events,
        edge_retransmits: m.retransmits,
        edge_peak_queue: sim.peak_queue(),
        cluster_dropped: m.dropped,
        cluster_handovers: sim.handovers(),
        medium_reallocs: sim.medium_reallocs(),
        ..TelemetrySummary::default()
    };
    FleetCellResult {
        row,
        completed: m.completed(),
        mean_ms: m.mean_ms(),
        telemetry,
    }
}

/// The fleet-cache identity of one device class: device fingerprint, its
/// single offloaded model, the class frame rate as the offered-load
/// scalar, and no edge dimension (the plan optimizes the *on-device*
/// share of the class workload). Keyed on the class's operating point —
/// not the fleet size — so later sweep epochs hit the cache warm.
pub fn class_signature(class: &DeviceClass) -> ScenarioSignature {
    ScenarioSignature::quantize(
        &class.device.name,
        std::iter::once(class.model.as_str()),
        class.fps,
        false,
    )
}

/// The per-class planning scenario: the class device running its one
/// offloaded model against the moderate SC2 object set. Small on purpose
/// — the plan is a control-plane step, not a serving simulation.
fn plan_scenario(class: &DeviceClass) -> ScenarioSpec {
    ScenarioSpec {
        name: format!("plan-{}", class.name),
        device: class.device.clone(),
        objects: sc2_catalog(),
        tasks: vec![TaskSpec::new(class.model.clone(), 1)],
        user_distance: DEFAULT_USER_DISTANCE,
        edge: None,
    }
}

/// The small HBO budget one planning pass spends (a full activation
/// would dwarf the serving simulation it plans for).
fn plan_config() -> HboConfig {
    HboConfig {
        n_initial: 3,
        iterations: 6,
        ..HboConfig::default()
    }
}

/// The outcome of one per-class planning pass.
#[derive(Debug, Clone)]
pub struct FleetPlanResult {
    /// The rendered JSON plan row.
    pub row: String,
    /// The planning activation's telemetry (BO suggest and warm-start
    /// counters; merged into the sweep report).
    pub telemetry: TelemetrySummary,
    /// The job's shadow cache: the epoch-start snapshot plus this class's
    /// stored plan. The caller merges shadows in class order.
    pub shadow: WarmCache,
}

/// Runs the HBO planning pass for one device class against a snapshot of
/// the fleet-wide warm cache.
///
/// The plan seed derives from the class *name* (not its slot index), and
/// the cache key from the class's operating point, so permuting the class
/// list permutes the plan rows without changing any of them — and the
/// shadow caches merge to the same master either way.
pub fn run_class_plan(
    spec: &FleetSpec,
    class_idx: usize,
    seed_base: u64,
    snapshot: &WarmCache,
) -> FleetPlanResult {
    let class = &spec.classes[class_idx];
    let scenario = plan_scenario(class);
    let seed = mix(
        seed_base,
        LookupKey::fingerprint_taskset(std::iter::once(class.name)),
    );
    let mut shadow = snapshot.clone();
    let result = run_hbo_warm_keyed(
        &scenario,
        &plan_config(),
        seed,
        &mut shadow,
        class_signature(class),
    );
    let run = &result.run;
    let alloc: String = run
        .best
        .point
        .allocation
        .iter()
        .map(|d| d.letter())
        .collect();
    let row = JsonRow::new("fleet_plan")
        .str("class", &class.name)
        .u64("fleet", spec.target_sessions as u64)
        .bool("warm", result.warm_hit)
        .u64("windows", run.records.len() as u64)
        .u64("converged_at", run.iterations_to_converge() as u64)
        .u64("suggests", run.telemetry.bo_suggests as u64)
        .str("alloc", &alloc)
        .f64("x", run.best.point.x, 6)
        .f64("cost", run.best.cost, 6)
        .finish();
    FleetPlanResult {
        row,
        telemetry: run.telemetry.clone(),
        shadow,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_spec() -> FleetSpec {
        FleetSpec::mar_default(12).with_horizon(5.0)
    }

    #[test]
    fn population_is_deterministic_and_heterogeneous() {
        let spec = small_spec();
        let a = spec.sessions(42);
        let b = spec.sessions(42);
        assert_eq!(a, b);
        assert!(a.len() >= spec.target_sessions);
        // Churn happened: someone arrives after t=0.5.
        assert!(a.iter().any(|s| s.arrive_secs > 0.5));
        // Heterogeneity: more than one period and more than one payload.
        let periods: std::collections::BTreeSet<u64> =
            a.iter().map(|s| s.client.period_ms.to_bits()).collect();
        assert!(periods.len() > 1, "all sessions share one frame rate");
        let payloads: std::collections::BTreeSet<u64> =
            a.iter().map(|s| s.client.request_bytes).collect();
        assert!(payloads.len() > 1, "all sessions share one payload");
        // Zones are actually used.
        assert!(a.iter().any(|s| s.zone == 0) && a.iter().any(|s| s.zone == 1));
        // Sessions are well-formed.
        for s in &a {
            assert!(s.depart_secs > s.arrive_secs);
            assert!(s.client.infer_ms >= 0.5);
        }
        // Distinct seeds per session.
        let seeds: std::collections::BTreeSet<u64> = a.iter().map(|s| s.seed).collect();
        assert_eq!(seeds.len(), a.len());
    }

    #[test]
    fn different_seeds_give_different_populations() {
        let spec = small_spec();
        assert_ne!(spec.sessions(1), spec.sessions(2));
    }

    #[test]
    fn client_windows_counts_active_seconds() {
        let spec = small_spec();
        let sessions = spec.sessions(7);
        let cw = spec.client_windows(&sessions);
        // At least the warm-start population × most of the horizon.
        assert!(
            cw > spec.target_sessions as f64 * 1.0,
            "client-windows {cw}"
        );
        // Bounded by every session spanning the whole horizon.
        assert!(cw <= sessions.len() as f64 * spec.horizon_secs);
    }

    #[test]
    fn fleet_cell_serves_and_reports() {
        let r = run_fleet_cell(&small_spec(), RoutePolicy::PowerOfTwo, 42);
        assert!(r.completed > 100, "only {} completions", r.completed);
        assert!(r
            .row
            .starts_with("{\"sweep\":\"fleet_sweep\",\"policy\":\"p2c\""));
        assert!(r.row.contains("\"p95_ms\":"));
        assert!(!r.row.contains("\"p50_ms\":null"));
        assert!(r.row.ends_with("}]}"));
        assert!(r.mean_ms.unwrap() > 0.0);
    }

    #[test]
    fn fleet_cell_is_deterministic_per_policy() {
        for policy in RoutePolicy::ALL {
            let a = run_fleet_cell(&small_spec(), policy, 9);
            let b = run_fleet_cell(&small_spec(), policy, 9);
            assert_eq!(a.row, b.row, "{} diverged", policy.name());
            assert_eq!(a.telemetry, b.telemetry);
        }
    }

    /// One planning epoch: clone the master into per-class shadows, plan
    /// every class (optionally on a thread pool), merge shadows back in
    /// class order.
    fn plan_epoch(
        spec: &FleetSpec,
        seed_base: u64,
        master: &mut WarmCache,
        threads: usize,
    ) -> Vec<FleetPlanResult> {
        let idxs: Vec<usize> = (0..spec.classes.len()).collect();
        let snapshot = master.clone();
        let (plans, _) = crate::runner::run_map("plan", threads, &idxs, |_, &i| {
            run_class_plan(spec, i, seed_base, &snapshot)
        });
        for plan in &plans {
            master.merge(&plan.shadow);
        }
        plans
    }

    #[test]
    fn second_plan_epoch_runs_warm_with_fewer_windows() {
        let spec = small_spec();
        let mut cache = WarmCache::new();
        let cold = plan_epoch(&spec, 42, &mut cache, 1);
        assert!(cold.iter().all(|p| p.telemetry.warm_misses == 1));
        // Epoch 2 (same classes, any fleet size): every class hits.
        let warm = plan_epoch(&spec, 43, &mut cache, 1);
        for (c, w) in cold.iter().zip(&warm) {
            assert_eq!(w.telemetry.warm_hits, 1, "row: {}", w.row);
            assert!(
                w.telemetry.bo_suggests < c.telemetry.bo_suggests,
                "warm plan should spend fewer suggests: {} vs {}",
                w.telemetry.bo_suggests,
                c.telemetry.bo_suggests
            );
        }
    }

    #[test]
    fn plan_epochs_are_bit_identical_across_thread_counts() {
        let spec = small_spec();
        let mut reference: Option<(Vec<String>, WarmCache)> = None;
        for threads in [1usize, 2, 4] {
            let mut cache = WarmCache::new();
            let mut rows = Vec::new();
            for (epoch, seed) in [42u64, 43].into_iter().enumerate() {
                let plans = plan_epoch(&spec, seed, &mut cache, threads);
                rows.extend(plans.into_iter().map(|p| format!("e{epoch} {}", p.row)));
            }
            match &reference {
                None => reference = Some((rows, cache)),
                Some((r_rows, r_cache)) => {
                    assert_eq!(&rows, r_rows, "--threads {threads} changed plan rows");
                    assert_eq!(&cache, r_cache, "--threads {threads} changed the cache");
                }
            }
        }
    }

    #[test]
    fn relabeling_classes_permutes_plans_without_changing_them() {
        let spec = small_spec();
        let mut permuted = spec.clone();
        permuted.classes.rotate_left(1);
        let mut cache_a = WarmCache::new();
        let mut cache_b = WarmCache::new();
        let plans_a = plan_epoch(&spec, 42, &mut cache_a, 1);
        let plans_b = plan_epoch(&permuted, 42, &mut cache_b, 1);
        // Matched by class name, each plan row is identical.
        for (i, class) in spec.classes.iter().enumerate() {
            let j = permuted
                .classes
                .iter()
                .position(|c| c.name == class.name)
                .unwrap();
            assert_eq!(
                plans_a[i].row, plans_b[j].row,
                "{} plan changed",
                class.name
            );
        }
        // And the merged master cache is the same either way.
        assert_eq!(cache_a, cache_b);
    }

    #[test]
    fn policies_actually_differ() {
        // Same population, different routing: the rows must not all be
        // identical (otherwise the policy knob is dead).
        let rows: std::collections::BTreeSet<String> = RoutePolicy::ALL
            .iter()
            .map(|&p| {
                let r = run_fleet_cell(&small_spec(), p, 11);
                // Strip the policy name so only measured behavior counts.
                r.row.replace(p.name(), "")
            })
            .collect();
        assert!(rows.len() > 1, "all policies produced identical behavior");
    }
}
