//! The four workloads: their unit pools, the untraced unit (one call of a
//! public entry point), the traced unit (the same loop replayed through
//! each layer's public functions, one span per call), set-up timing and
//! the per-unit output checks.
//!
//! A unit pool is a fixed list of inputs derived from the benchmark seed;
//! unit `i` runs input `i % pool length`. Every input's outputs are
//! deterministic, so each repetition must reproduce the first one, and
//! at the default seed every input's digest is pinned in `golden.txt`.

use std::hint::black_box;
use std::time::Instant;

use edgelink::{ClusterParams, ClusterRadio, ClusterSim, RoutePolicy, SharedCell};
use hbo_core::{
    BoConfig, HboConfig, HboController, HboPoint, IterationRecord, StoredConfig, TaskProfile,
    WarmCache,
};
use marsim::experiment::{run_hbo, CONTROL_PERIOD_SECS};
use marsim::fleet::{mar_cluster, mobility_medium};
use marsim::{
    run_edge_hbo_warm, run_fleet_cell, run_fleet_cell_traced, run_mobility_cell,
    scenario_signature, EdgeSpec, EdgeWorld, FleetCellResult, FleetSpec, MarApp, ScenarioSpec,
};
use nnmodel::Delegate;
use simcore::rand::{SeedableRng, StdRng};
use simcore::rng::mix;

use crate::spans::Recorder;

/// Simulated warm-up `run_hbo` and `run_edge_hbo_warm` run before the
/// first measured window.
const WARMUP_SECS: f64 = 1.0;
/// Tag `run_edge_hbo_warm` derives its `EdgeWorld` seed with.
const EDGE_WORLD_TAG: u64 = 0xED6E_0001;
/// Tag of the cold activation that primes the `edge_stadium` cache.
const PRIME_TAG: u64 = 0xBE4C_0001;
/// Simulated seconds of one fleet or mobility cell; the traced run steps
/// it one simulated second at a time.
const CELL_SECS: usize = 2;
/// Concurrent sessions of a `fleet_private` cell: the knee of the
/// cluster's capacity, so queueing, rejects and retries are all active.
const FLEET_SESSIONS: usize = 512;
/// Concurrent walking sessions of a `mobility_shared` cell.
const MOBILITY_SESSIONS: usize = 64;
/// Client populations of the `edge_stadium` pool.
const STADIUM_CLIENTS: [usize; 5] = [2, 4, 8, 16, 32];

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    HboActivation,
    EdgeStadium,
    FleetPrivate,
    MobilityShared,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::HboActivation,
        Workload::EdgeStadium,
        Workload::FleetPrivate,
        Workload::MobilityShared,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::HboActivation => "hbo_activation",
            Workload::EdgeStadium => "edge_stadium",
            Workload::FleetPrivate => "fleet_private",
            Workload::MobilityShared => "mobility_shared",
        }
    }

    /// Nominal host seconds of one untraced pass over the pool, about what
    /// it takes on a 2-vCPU 2.0 GHz Xeon VM. An untraced run of
    /// `--seconds s` makes `s / pass_secs` passes, so its length follows
    /// the host's speed while its repetition count does not.
    pub fn pass_secs(self) -> f64 {
        match self {
            Workload::HboActivation => 1.5,
            Workload::EdgeStadium => 1.3,
            Workload::FleetPrivate => 2.5,
            Workload::MobilityShared => 1.4,
        }
    }

    pub fn parse(s: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == s)
    }
}

enum Input {
    Scenario {
        spec: Box<ScenarioSpec>,
        profiles: Vec<TaskProfile>,
    },
    Cell {
        spec: FleetSpec,
        policy: RoutePolicy,
    },
}

struct Unit {
    input: Input,
    seed: u64,
    /// `edge_stadium` only: the cache a cold activation of this input
    /// (under another seed) left behind. Each run of the unit starts from
    /// a copy, so every unit is a warm hit and its outputs depend on its
    /// own input alone.
    primed: WarmCache,
}

/// What one unit produced.
pub struct UnitOut {
    /// The deterministic outputs the pinned digest covers: every iteration
    /// record of an activation, the row JSON of a cell.
    pub text: String,
    /// The outputs the traced replay must reproduce exactly.
    pub facts: String,
    pub sim_secs: f64,
    /// Output-check failures.
    pub problems: Vec<String>,
}

/// Deterministic work counts gathered by the traced run.
#[derive(Default)]
pub struct Tally {
    /// Simulated seconds driven directly through `MarApp`.
    pub app_sim_secs: f64,
    pub soc_completions: u64,
    pub warm_hits: u64,
    /// Simulated seconds inside `EdgeWorld::measure_for_secs`.
    pub edge_sim_secs: f64,
    pub edge_requests: u64,
    pub edge_medium_reallocs: u64,
    /// Simulated seconds stepped through `ClusterSim::run_for_secs`.
    pub cell_sim_secs: f64,
    pub submitted: u64,
    pub completed: u64,
    pub rejects: u64,
    pub medium_reallocs: u64,
    pub handovers: u64,
    pub peak_queue: usize,
    pub footprint_bytes: usize,
}

pub struct Bench {
    pub workload: Workload,
    units: Vec<Unit>,
    config: HboConfig,
}

impl Bench {
    /// Builds the unit pool for `seed` (and primes the warm caches).
    pub fn new(workload: Workload, seed: u64) -> Bench {
        let scenario = |spec: ScenarioSpec| Input::Scenario {
            profiles: spec.profiles(),
            spec: Box::new(spec),
        };
        // Pools hold 100 inputs, so that ten lie beyond the p90 taken over
        // them; more inputs would leave fewer repetitions of each in a run.
        let inputs: Vec<Input> = match workload {
            Workload::HboActivation => (0..25)
                .flat_map(|_| ScenarioSpec::all_four())
                .map(scenario)
                .collect(),
            Workload::EdgeStadium => (0..20)
                .flat_map(|_| STADIUM_CLIENTS)
                .map(|n| {
                    let edge = EdgeSpec::wifi(n).with_shared_cell(SharedCell::stadium());
                    scenario(ScenarioSpec::sc1_cf2().with_edge(edge))
                })
                .collect(),
            Workload::FleetPrivate => (0..25)
                .flat_map(|_| RoutePolicy::ALL)
                .map(|policy| Input::Cell {
                    spec: FleetSpec::mar_default(FLEET_SESSIONS).with_horizon(CELL_SECS as f64),
                    policy,
                })
                .collect(),
            Workload::MobilityShared => (0..100)
                .map(|_| Input::Cell {
                    spec: FleetSpec::mar_default(MOBILITY_SESSIONS).with_horizon(CELL_SECS as f64),
                    policy: RoutePolicy::ShortestQueue,
                })
                .collect(),
        };
        let config = HboConfig::default();
        let units: Vec<Unit> = inputs
            .into_iter()
            .enumerate()
            .map(|(j, input)| {
                let seed = mix(seed, j as u64);
                let mut primed = WarmCache::new();
                if let (Workload::EdgeStadium, Input::Scenario { spec, .. }) = (workload, &input) {
                    run_edge_hbo_warm(spec, &config, mix(seed, PRIME_TAG), &mut primed);
                }
                Unit {
                    input,
                    seed,
                    primed,
                }
            })
            .collect();
        Bench {
            workload,
            units,
            config,
        }
    }

    pub fn pool_len(&self) -> usize {
        self.units.len()
    }

    /// Runs unit `j` of the pool through the program's public entry point.
    pub fn run_entry(&self, j: usize) -> UnitOut {
        let Unit {
            input,
            seed,
            primed,
        } = &self.units[j];
        match (self.workload, input) {
            (Workload::HboActivation, Input::Scenario { spec, profiles }) => {
                let run = run_hbo(spec, &self.config, *seed);
                self.activation_out(profiles, &run.records, None)
            }
            (Workload::EdgeStadium, Input::Scenario { spec, profiles }) => {
                let mut cache = primed.clone();
                let warm = run_edge_hbo_warm(spec, &self.config, *seed, &mut cache);
                self.activation_out(profiles, &warm.run.records, Some(warm.warm_hit))
            }
            (Workload::FleetPrivate, Input::Cell { spec, policy }) => {
                cell_out(&run_fleet_cell(spec, *policy, *seed))
            }
            (Workload::MobilityShared, Input::Cell { spec, .. }) => {
                cell_out(&run_mobility_cell(spec, *seed))
            }
            _ => unreachable!("pool inputs match their workload"),
        }
    }

    /// `fleet_private` only: unit `j` with an aggregating metrics observer
    /// attached, as `--metrics` users run it. Returns the row.
    pub fn run_observed(&self, j: usize) -> String {
        let Unit { input, seed, .. } = &self.units[j];
        let Input::Cell { spec, policy } = input else {
            unreachable!("observed units are fleet cells")
        };
        simcore::metrics::with_observers(false, true, |t| {
            run_fleet_cell_traced(spec, *policy, *seed, t)
        })
        .0
        .row
    }

    /// Host time of building unit `j`'s inputs and simulators only.
    pub fn setup_secs(&self, j: usize) -> f64 {
        let Unit { input, seed, .. } = &self.units[j];
        match input {
            Input::Scenario { spec, .. } => {
                let start = Instant::now();
                let built = if self.workload == Workload::EdgeStadium {
                    let mut world = EdgeWorld::new(spec, mix(*seed, EDGE_WORLD_TAG));
                    world.place_all_objects();
                    let hbo = HboController::new(spec.profiles(), warm_variant(&self.config));
                    (None, Some(world), hbo)
                } else {
                    let mut app = MarApp::new(spec);
                    app.place_all_objects();
                    let hbo = HboController::new(spec.profiles(), self.config.clone());
                    (Some(app), None, hbo)
                };
                let secs = start.elapsed().as_secs_f64();
                black_box(built);
                secs
            }
            Input::Cell { spec, policy } => {
                let start = Instant::now();
                let sessions = spec.sessions(*seed);
                let sim = ClusterSim::new(self.cluster_params(spec, *policy), sessions, spec.queue);
                let secs = start.elapsed().as_secs_f64();
                black_box(sim);
                secs
            }
        }
    }

    fn cluster_params(&self, spec: &FleetSpec, policy: RoutePolicy) -> ClusterParams {
        let mut params = mar_cluster(spec.link, policy);
        if self.workload == Workload::MobilityShared {
            params.radio = ClusterRadio::Shared(mobility_medium());
        }
        params
    }

    /// Replays unit number `unit` (pool input `unit % pool length`) through
    /// the layers' public functions inside spans, adding its work counts to
    /// `tally`. The result must match [`Self::run_entry`]'s `facts`.
    pub fn run_traced(&self, unit: u64, rec: &mut Recorder, tally: &mut Tally) -> UnitOut {
        let Unit {
            input,
            seed,
            primed,
        } = &self.units[unit as usize % self.units.len()];
        let root = rec.begin("unit", unit);
        let out = match input {
            Input::Scenario { spec, profiles } if self.workload == Workload::EdgeStadium => {
                let stored = primed
                    .find(&scenario_signature(spec))
                    .filter(|s| s.c.len() == simplex_dim(profiles))
                    .cloned();
                let config = match stored {
                    Some(_) => warm_variant(&self.config),
                    None => self.config.clone(),
                };
                let mut world = rec.time("marsim.edge.world_new", || {
                    EdgeWorld::new(spec, mix(*seed, EDGE_WORLD_TAG))
                });
                rec.time("marsim.edge.place_all_objects", || {
                    world.place_all_objects()
                });
                rec.time("marsim.edge.run_for_secs", || {
                    world.run_for_secs(WARMUP_SECS)
                });
                let mut hbo = rec.time("hbo_core.new", || {
                    HboController::new(spec.profiles(), config)
                });
                let names = ("marsim.edge.apply", "edgelink.sim.measure_for_secs");
                let records = replay_activation(
                    rec,
                    &mut world,
                    names,
                    &mut hbo,
                    *seed,
                    stored.as_ref(),
                    &mut tally.edge_requests,
                );
                tally.warm_hits += u64::from(stored.is_some());
                tally.edge_sim_secs += records.len() as f64 * CONTROL_PERIOD_SECS;
                tally.edge_medium_reallocs += world.telemetry().medium_reallocs;
                let mut out = self.activation_out(profiles, &records, Some(stored.is_some()));
                check_clock(&mut out, world.app().now().as_secs_f64());
                out
            }
            Input::Scenario { spec, profiles } => {
                let mut app = rec.time("marsim.app.new", || MarApp::new(spec));
                rec.time("marsim.app.place_all_objects", || app.place_all_objects());
                rec.time("soc.run_for_secs", || app.run_for_secs(WARMUP_SECS));
                let mut hbo = rec.time("hbo_core.new", || {
                    HboController::new(spec.profiles(), self.config.clone())
                });
                let names = ("marsim.app.apply", "soc.measure_for_secs");
                let mut no_requests = 0;
                let records = replay_activation(
                    rec,
                    &mut app,
                    names,
                    &mut hbo,
                    *seed,
                    None,
                    &mut no_requests,
                );
                let mut out = self.activation_out(profiles, &records, None);
                check_clock(&mut out, app.now().as_secs_f64());
                tally.app_sim_secs += out.sim_secs;
                tally.soc_completions += app
                    .telemetry()
                    .processors
                    .iter()
                    .map(|p| p.completed)
                    .sum::<u64>();
                out
            }
            Input::Cell { spec, policy } => {
                let sessions = rec.time("marsim.fleet.sessions", || spec.sessions(*seed));
                let params = self.cluster_params(spec, *policy);
                let mut sim = rec.time("edgelink.cluster.new", || {
                    ClusterSim::new(params, sessions, spec.queue)
                });
                for _ in 0..CELL_SECS {
                    rec.time("edgelink.cluster.step", || sim.run_for_secs(1.0));
                }
                let m = sim.metrics();
                tally.cell_sim_secs += CELL_SECS as f64;
                tally.submitted += m.submitted;
                tally.completed += m.completed();
                tally.rejects += m.reject_events;
                tally.medium_reallocs += sim.medium_reallocs();
                tally.handovers += sim.handovers();
                tally.peak_queue = tally.peak_queue.max(sim.peak_queue());
                if let Some(medium) = sim.medium() {
                    tally.footprint_bytes = tally.footprint_bytes.max(medium.footprint_bytes());
                }
                let facts = CellFacts {
                    submitted: m.submitted,
                    completed: m.completed(),
                    dropped: m.dropped,
                    rejects: m.reject_events,
                    retransmits: m.retransmits,
                    peak_queue: sim.peak_queue(),
                    handovers: sim.handovers(),
                    reallocs: sim.medium_reallocs(),
                    mean_ms: m.mean_ms(),
                }
                .render();
                UnitOut {
                    text: facts.clone(),
                    facts,
                    sim_secs: CELL_SECS as f64,
                    problems: Vec::new(),
                }
            }
        };
        rec.end(root);
        out
    }

    fn activation_out(
        &self,
        profiles: &[TaskProfile],
        records: &[IterationRecord],
        warm_hit: Option<bool>,
    ) -> UnitOut {
        let mut text = String::new();
        let mut problems = Vec::new();
        for (k, r) in records.iter().enumerate() {
            let alloc: String = r.point.allocation.iter().map(|d| d.letter()).collect();
            text += &format!(
                "{alloc} c={:?} x={:?} q={:?} e={:?} cost={:?}\n",
                r.point.c, r.point.x, r.quality, r.epsilon, r.cost
            );
            if !(r.quality.is_finite() && r.epsilon.is_finite() && r.cost.is_finite()) {
                problems.push(format!("iteration {k}: non-finite Q, epsilon or cost"));
            }
            if !(self.config.r_min - 1e-6..=1.0 + 1e-6).contains(&r.point.x) {
                problems.push(format!(
                    "iteration {k}: x = {} outside [r_min, 1]",
                    r.point.x
                ));
            }
            let applicable = r.point.allocation.len() == profiles.len()
                && r.point
                    .allocation
                    .iter()
                    .zip(profiles)
                    .all(|(&d, p)| p.supports(d));
            if !applicable {
                problems.push(format!("iteration {k}: a task sits on an NA delegate"));
            }
        }
        if records.is_empty() {
            problems.push("activation produced no records".to_owned());
        }
        if let Some(hit) = warm_hit {
            text += &format!("warm_hit={hit}\n");
            if !hit {
                problems.push("warm activation missed the primed cache".to_owned());
            }
        }
        UnitOut {
            facts: text.clone(),
            text,
            sim_secs: WARMUP_SECS + records.len() as f64 * CONTROL_PERIOD_SECS,
            problems,
        }
    }
}

/// An activation's simulated seconds are derived from its record count,
/// not reported by the entry point; the replay checks the derivation
/// against the simulated clock and diverges when they disagree.
fn check_clock(out: &mut UnitOut, clock_secs: f64) {
    if clock_secs != out.sim_secs {
        out.facts += &format!("clock {clock_secs:?} s != derived {:?} s\n", out.sim_secs);
    }
}

/// Cluster outputs both the entry point and the stepped replay expose.
struct CellFacts {
    submitted: u64,
    completed: u64,
    dropped: u64,
    rejects: u64,
    retransmits: u64,
    peak_queue: usize,
    handovers: u64,
    reallocs: u64,
    mean_ms: Option<f64>,
}

impl CellFacts {
    fn render(&self) -> String {
        format!(
            "submitted={} completed={} dropped={} rejects={} retransmits={} peak_queue={} \
             handovers={} reallocs={} mean_ms={:?}\n",
            self.submitted,
            self.completed,
            self.dropped,
            self.rejects,
            self.retransmits,
            self.peak_queue,
            self.handovers,
            self.reallocs,
            self.mean_ms
        )
    }
}

fn cell_out(cell: &FleetCellResult) -> UnitOut {
    let t = &cell.telemetry;
    let submitted = simcore::trace::parse_json(&cell.row)
        .ok()
        .and_then(|row| row.get("submitted")?.as_num())
        .map(|n| n as u64);
    let facts = CellFacts {
        submitted: submitted.unwrap_or(0),
        completed: cell.completed,
        dropped: t.cluster_dropped,
        rejects: t.edge_rejected,
        retransmits: t.edge_retransmits,
        peak_queue: t.edge_peak_queue,
        handovers: t.cluster_handovers,
        reallocs: t.medium_reallocs,
        mean_ms: cell.mean_ms,
    };
    let mut problems = Vec::new();
    if cell.row.contains("NaN") || cell.row.contains("inf") {
        problems.push("row holds a non-finite value".to_owned());
    }
    if cell.mean_ms.is_some_and(|m| !m.is_finite()) {
        problems.push("non-finite mean latency".to_owned());
    }
    match submitted {
        Some(s) if facts.completed + facts.dropped <= s => {}
        Some(s) => problems.push(format!(
            "completed {} + dropped {} > submitted {s}",
            facts.completed, facts.dropped
        )),
        None => problems.push("row does not parse or has no submitted count".to_owned()),
    }
    UnitOut {
        text: cell.row.clone(),
        facts: facts.render(),
        sim_secs: CELL_SECS as f64,
        problems,
    }
}

/// What the activation loop needs from the simulated world it drives.
trait Plant {
    fn allocation(&self) -> Vec<Delegate>;
    fn ratio(&self) -> f64;
    fn apply(&mut self, point: &HboPoint);
    /// Measures one window: `(Q, ε, edge requests served or refused)`.
    fn measure(&mut self, secs: f64) -> (f64, f64, u64);
}

impl Plant for MarApp {
    fn allocation(&self) -> Vec<Delegate> {
        MarApp::allocation(self)
    }
    fn ratio(&self) -> f64 {
        self.scene().overall_ratio().min(1.0)
    }
    fn apply(&mut self, point: &HboPoint) {
        MarApp::apply(self, point)
    }
    fn measure(&mut self, secs: f64) -> (f64, f64, u64) {
        let m = self.measure_for_secs(secs);
        (m.quality, m.epsilon, 0)
    }
}

impl Plant for EdgeWorld {
    fn allocation(&self) -> Vec<Delegate> {
        EdgeWorld::allocation(self)
    }
    fn ratio(&self) -> f64 {
        self.app().scene().overall_ratio().min(1.0)
    }
    fn apply(&mut self, point: &HboPoint) {
        EdgeWorld::apply(self, point)
    }
    fn measure(&mut self, secs: f64) -> (f64, f64, u64) {
        let m = self.measure_for_secs(secs);
        let requests = m.edge.map_or(0, |e| e.completed + e.rejected);
        (m.quality, m.epsilon, requests)
    }
}

/// The control loop of one activation (incumbent window, optional warm
/// seed window, then suggest/apply/measure/observe until done), as the
/// entry points run it. `names` are the apply and measure span names.
fn replay_activation<P: Plant>(
    rec: &mut Recorder,
    plant: &mut P,
    names: (&'static str, &'static str),
    hbo: &mut HboController,
    seed: u64,
    warm_seed: Option<&StoredConfig>,
    requests: &mut u64,
) -> Vec<IterationRecord> {
    let mut rng = StdRng::seed_from_u64(seed);
    let incumbent = rec.time("hbo_core.incumbent_point", || {
        hbo.incumbent_point(plant.allocation(), plant.ratio())
    });
    let mut window = |rec: &mut Recorder, hbo: &mut HboController, point: HboPoint| {
        rec.time(names.0, || plant.apply(&point));
        let (q, e, n) = rec.time(names.1, || plant.measure(CONTROL_PERIOD_SECS));
        *requests += n;
        rec.time("hbo_core.observe", || hbo.observe(point, q, e));
    };
    window(rec, hbo, incumbent);
    if let Some(stored) = warm_seed {
        let mut z = stored.c.clone();
        z.push(stored.x);
        let point = HboPoint {
            z,
            c: stored.c.clone(),
            x: stored.x,
            allocation: stored.allocation.clone(),
        };
        window(rec, hbo, point);
    }
    while !hbo.is_done() {
        let point = rec.time("hbo_core.next_point", || hbo.next_point(&mut rng));
        window(rec, hbo, point);
    }
    hbo.records().to_vec()
}

/// Dimension of the resource simplex a controller builds for `profiles`.
fn simplex_dim(profiles: &[TaskProfile]) -> usize {
    if profiles.iter().any(|p| p.supports(Delegate::Edge)) {
        Delegate::COUNT
    } else {
        Delegate::COUNT - 1
    }
}

/// The configuration a warm-started activation runs with: the cold one
/// with `BoConfig::warm_default`'s candidate cloud and pruning, and a
/// random design cut to two points.
fn warm_variant(config: &HboConfig) -> HboConfig {
    let warm = BoConfig::warm_default();
    let mut out = config.clone();
    out.bo.n_candidates = warm.n_candidates;
    out.bo.n_local = warm.n_local;
    out.bo.prune = warm.prune;
    out.n_initial = out.n_initial.min(2);
    out
}
