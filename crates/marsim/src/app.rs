//! The live MAR application: AI streams plus a render loop on one
//! simulated SoC, with the control surface HBO manipulates.

use arscene::Scene;
use hbo_core::HboPoint;
use nnmodel::{Delegate, ModelZoo};
use simcore::{SimDuration, SimTime};
use soc::{
    DeviceProfile, SocProcs, SocSim, SourceId, SourceSpec, Stage, StageSeq, StreamId, StreamSpec,
};

use crate::load::{inflate_stages, inflated_plan, render_utilization};
use crate::scenario::ScenarioSpec;

/// Think time between consecutive inferences of one task (camera frame
/// hand-off, pre/post-processing outside the accelerators).
pub const TASK_GAP_MS: f64 = 2.0;

/// Target start-to-start period of every AI task: MAR apps drive their
/// detectors/classifiers from the camera preview at ~10 Hz, so tasks are
/// rate-anchored rather than back-to-back (they only saturate a resource
/// when contention pushes latency past the period).
pub const TASK_PERIOD_MS: f64 = 100.0;

/// Maximum deterministic start jitter per inference: real camera/inference
/// loops never align perfectly, and the jitter keeps same-period tasks
/// from phase-locking into worst-case (or best-case) collision patterns.
pub const TASK_JITTER_MS: f64 = 5.0;

/// Per-task detuning of the inference period (fraction per step): tasks
/// run at 94/97/100/103/106 ms rather than in lockstep, so resource
/// collisions sweep through every phase instead of recurring in bursts —
/// which is also how independently-scheduled Android threads behave.
pub const TASK_PERIOD_DETUNE: f64 = 0.03;

/// The detuned period of the `index`-th task.
pub(crate) fn task_period_ms(index: usize) -> f64 {
    let step = (index % 5) as f64 - 2.0;
    TASK_PERIOD_MS * (1.0 + TASK_PERIOD_DETUNE * step)
}

/// One AI task instance running in the app.
#[derive(Debug)]
struct TaskRuntime {
    name: String,
    model: String,
    stream: StreamId,
    delegate: Delegate,
    /// Base (uninflated) custom execution plan, when the task was pinned
    /// to one via [`MarApp::set_custom_plan`] — used by the fine-grained
    /// per-operator baseline; `None` means the plan derives from
    /// `delegate`.
    custom_plan: Option<StageSeq>,
}

/// A windowed measurement of app performance (one control period).
#[derive(Debug, Clone, PartialEq)]
pub struct Measurement {
    /// Average virtual-object quality `Q` — Eq. (2).
    pub quality: f64,
    /// Average normalized AI latency `ε` — Eq. (4).
    pub epsilon: f64,
    /// Mean per-task latency over the window, in milliseconds, in task
    /// order.
    pub per_task_ms: Vec<f64>,
    /// Simulated time at the end of the window.
    pub at: SimTime,
}

impl Measurement {
    /// The reward `B = Q − w ε` for a given weight.
    pub fn reward(&self, w: f64) -> f64 {
        hbo_core::reward(self.quality, self.epsilon, w)
    }
}

/// The simulated MAR app. See the crate docs for an example.
#[derive(Debug)]
pub struct MarApp {
    device: DeviceProfile,
    procs: SocProcs,
    sim: SocSim,
    scene: Scene,
    zoo: ModelZoo,
    tasks: Vec<TaskRuntime>,
    render_source: SourceId,
    /// Objects from the scenario not yet placed on screen.
    pending: Vec<arscene::VirtualObject>,
    expected_ms: Vec<f64>,
    /// The triangle ratio currently enforced by the controller; newly
    /// placed objects are decimated into it (the control component of
    /// Fig. 3 keeps enforcing the chosen configuration).
    target_x: Option<f64>,
}

impl MarApp {
    /// Builds the app for a scenario: all AI tasks running (allocated to
    /// their static best resources), no objects placed yet.
    ///
    /// The underlying [`SocSim`] records into the tracer in scope when
    /// the app is built ([`simcore::trace::observe`]): every processor
    /// slot gets a span track and every queue a counter series. Tracing
    /// never changes the simulation.
    ///
    /// # Panics
    ///
    /// Panics if the scenario references models missing from the device's
    /// zoo.
    pub fn new(spec: &ScenarioSpec) -> Self {
        let device = spec.device.clone();
        let (topo, procs) = device.topology();
        let mut sim = SocSim::new(topo);
        let zoo = spec.zoo();

        // Render loop: starts with an empty scene (prep only).
        let scene = Scene::new(spec.user_distance);
        let render_source = sim.add_source(
            SourceSpec::new(
                render_stages(&device, procs, &scene),
                device.frame_period,
                device.max_frames_in_flight,
            )
            .with_label("render"),
        );

        let profiles = spec.profiles();
        let expected_ms: Vec<f64> = profiles.iter().map(|p| p.expected_latency()).collect();
        let utilization = render_utilization(&device, scene.render_triangles());
        let mut tasks = Vec::new();
        for (i, (name, model)) in spec
            .task_names()
            .into_iter()
            .zip(spec.task_models())
            .enumerate()
        {
            let m = zoo.get(&model).expect("scenario model in zoo");
            let (delegate, _) = m.best_delegate();
            let plan = inflated_plan(m, delegate, &device, procs, utilization)
                .expect("best delegate always has a plan");
            let stream = sim.add_stream(
                StreamSpec::new(plan, SimDuration::from_millis_f64(TASK_GAP_MS))
                    .with_period(SimDuration::from_millis_f64(task_period_ms(i)))
                    .with_jitter(SimDuration::from_millis_f64(TASK_JITTER_MS))
                    .with_label(name.clone()),
            );
            tasks.push(TaskRuntime {
                name,
                model,
                stream,
                delegate,
                custom_plan: None,
            });
        }

        // Objects wait un-placed so timelines can add them one by one.
        let mut pending: Vec<arscene::VirtualObject> = Vec::new();
        for entry in &spec.objects {
            for i in 0..entry.count {
                pending.push(arscene::VirtualObject::new(
                    format!("{}_{}", entry.name, i + 1),
                    entry.triangles,
                    entry.params,
                    entry.distance_factor,
                ));
            }
        }

        MarApp {
            device,
            procs,
            sim,
            scene,
            zoo,
            tasks,
            render_source,
            pending,
            expected_ms,
            target_x: None,
        }
    }

    /// Current simulated time.
    pub fn now(&self) -> SimTime {
        self.sim.now()
    }

    /// The scene as currently rendered.
    pub fn scene(&self) -> &Scene {
        &self.scene
    }

    /// Task names, in task order.
    pub fn task_names(&self) -> Vec<&str> {
        self.tasks.iter().map(|t| t.name.as_str()).collect()
    }

    /// Current allocation, in task order.
    pub fn allocation(&self) -> Vec<Delegate> {
        self.tasks.iter().map(|t| t.delegate).collect()
    }

    /// Expected (isolated best) latency per task — `τ^e`.
    pub fn expected_latencies(&self) -> &[f64] {
        &self.expected_ms
    }

    /// Places the next pending object at full quality. Returns `false`
    /// when nothing is left to place.
    pub fn place_next_object(&mut self) -> bool {
        let Some(obj) = self.pending.pop() else {
            return false;
        };
        self.scene.add_object(obj);
        if let Some(x) = self.target_x {
            self.scene.distribute_triangles(x);
        }
        self.refresh_render_load();
        true
    }

    /// Places every remaining object.
    pub fn place_all_objects(&mut self) {
        while self.place_next_object() {}
    }

    /// Moves the user (changes every user-object distance and therefore
    /// both the render load and the quality model).
    pub fn set_user_distance(&mut self, distance: f64) {
        self.scene.set_user_distance(distance);
        self.refresh_render_load();
    }

    /// Re-allocates each task; takes effect at each task's next inference
    /// (as reloading a TFLite interpreter with a new delegate would).
    ///
    /// # Panics
    ///
    /// Panics if `allocation` has the wrong length or assigns a task to an
    /// incompatible (NA) delegate.
    pub fn set_allocation(&mut self, allocation: &[Delegate]) {
        assert_eq!(
            allocation.len(),
            self.tasks.len(),
            "one delegate per task required"
        );
        let utilization = self.render_utilization();
        for (task, &delegate) in self.tasks.iter_mut().zip(allocation) {
            if task.delegate == delegate && task.custom_plan.is_none() {
                continue;
            }
            task.custom_plan = None;
            let model = self.zoo.get(&task.model).expect("model in zoo");
            let plan = inflated_plan(model, delegate, &self.device, self.procs, utilization)
                .unwrap_or_else(|| panic!("task {} cannot run on {delegate}", task.name));
            self.sim.update_stream(task.stream, plan);
            task.delegate = delegate;
        }
    }

    /// Marks a task as offloaded to the edge: its on-device footprint
    /// collapses to a small serialization/compression stage on the render
    /// CPU core, and its end-to-end latency is measured by the edge world
    /// ([`crate::edge::EdgeWorld`]) instead of the SoC. The task's
    /// delegate reads back as [`Delegate::Edge`]; any later
    /// [`Self::set_allocation`] with an on-device delegate restores a
    /// normal execution plan.
    ///
    /// # Panics
    ///
    /// Panics if `task` is out of range or `client_overhead_ms` is not
    /// positive and finite.
    pub(crate) fn set_offloaded(&mut self, task: usize, client_overhead_ms: f64) {
        assert!(
            client_overhead_ms.is_finite() && client_overhead_ms > 0.0,
            "invalid client overhead: {client_overhead_ms}"
        );
        let stub = StageSeq::new(vec![Stage::compute(
            self.procs.cpu_render,
            SimDuration::from_millis_f64(client_overhead_ms),
        )]);
        self.set_custom_plan(task, stub);
        self.tasks[task].delegate = Delegate::Edge;
    }

    /// Pins a task to an arbitrary execution plan (e.g. a fine-grained
    /// per-operator schedule), bypassing the delegate-based plans until the
    /// next [`Self::set_allocation`]. The plan is still subject to the
    /// bandwidth coupling as the render load changes.
    ///
    /// # Panics
    ///
    /// Panics if `task` is out of range.
    pub fn set_custom_plan(&mut self, task: usize, plan: StageSeq) {
        let utilization = self.render_utilization();
        let t = &mut self.tasks[task];
        self.sim
            .update_stream(t.stream, inflate_stages(&plan, self.procs, utilization));
        t.custom_plan = Some(plan);
    }

    /// Current GPU render utilization (drives the bandwidth coupling).
    pub fn render_utilization(&self) -> f64 {
        render_utilization(&self.device, self.scene.render_triangles())
    }

    /// Applies a triangle ratio through HBO's `TD` distribution and
    /// refreshes the render load.
    ///
    /// # Panics
    ///
    /// Panics if `x` is outside `[0, 1]`.
    pub fn set_triangle_ratio(&mut self, x: f64) {
        self.scene.distribute_triangles(x);
        self.target_x = Some(x);
        self.refresh_render_load();
    }

    /// Uniform per-object decimation (every object at ratio `x`) — the
    /// naive reduction the SML baseline sweeps, without HBO's
    /// sensitivity-weighted distribution.
    ///
    /// # Panics
    ///
    /// Panics if `x` is outside `[0, 1]`.
    pub fn set_uniform_ratio(&mut self, x: f64) {
        self.scene.set_uniform_ratio(x);
        self.target_x = None; // uniform baselines bypass TD enforcement
        self.refresh_render_load();
    }

    /// Applies a full HBO configuration (allocation + triangle ratio).
    pub fn apply(&mut self, point: &HboPoint) {
        self.set_allocation(&point.allocation);
        self.set_triangle_ratio(point.x);
    }

    /// Advances the simulation.
    pub fn run_for_secs(&mut self, secs: f64) {
        let deadline = self.sim.now() + SimDuration::from_secs_f64(secs);
        self.sim.run_until(deadline);
    }

    /// Runs one control period and measures `(Q, ε)` over it (lines 24–25
    /// of Algorithm 1).
    ///
    /// Tasks that complete no inference inside the window fall back to
    /// their most recent latency, or to their expected latency if they
    /// have never completed (only possible in the first instants of a
    /// run).
    pub fn measure_for_secs(&mut self, secs: f64) -> Measurement {
        let start = self.sim.now();
        self.run_for_secs(secs);
        let per_task_ms: Vec<f64> = self
            .tasks
            .iter()
            .enumerate()
            .map(|(i, t)| {
                let m = self.sim.stream_metrics(t.stream);
                m.mean_since(start)
                    .or_else(|| m.last_latency_ms())
                    .unwrap_or(self.expected_ms[i])
            })
            .collect();
        let epsilon = hbo_core::normalized_latency(&per_task_ms, &self.expected_ms);
        Measurement {
            quality: self.scene.average_quality(),
            epsilon,
            per_task_ms,
            at: self.sim.now(),
        }
    }

    /// Approximate latency percentile per task over every completion so
    /// far (log-bucketed), in task order. `None` for tasks that have not
    /// completed any inference yet.
    ///
    /// # Panics
    ///
    /// Panics if `q` is outside `[0, 1]`.
    pub fn per_task_percentile_ms(&self, q: f64) -> Vec<Option<f64>> {
        self.tasks
            .iter()
            .map(|t| self.sim.stream_metrics(t.stream).latency_percentile_ms(q))
            .collect()
    }

    /// Energy consumed by the SoC since the app started, under a power
    /// model (see [`soc::PowerModel`]).
    pub fn energy_report(&self, model: &soc::PowerModel) -> soc::EnergyReport {
        self.sim.energy_report(model)
    }

    /// On-device telemetry totals since the app started: per-processor
    /// completions and peak queue depths plus rendered/dropped frame
    /// counts (edge counters stay zero — [`crate::edge::EdgeWorld`]
    /// fills them in).
    pub fn telemetry(&self) -> crate::telemetry::TelemetrySummary {
        let processors = self
            .sim
            .topology()
            .iter()
            .map(|(id, _)| {
                let m = self.sim.processor_metrics(id);
                crate::telemetry::ProcessorTelemetry {
                    name: m.name,
                    completed: m.completed,
                    peak_queue: self.sim.peak_queue(id),
                }
            })
            .collect();
        let frames = self.sim.source_metrics(self.render_source);
        crate::telemetry::TelemetrySummary {
            processors,
            frames_rendered: frames.completed(),
            frames_skipped: frames.skipped,
            ..Default::default()
        }
    }

    /// Pushes the scene's current render load into the render source and
    /// re-derives every task's bandwidth-inflated execution plan (effective
    /// at each task's next inference).
    fn refresh_render_load(&mut self) {
        self.sim.update_source(
            self.render_source,
            render_stages(&self.device, self.procs, &self.scene),
        );
        let utilization = self.render_utilization();
        for task in &self.tasks {
            let plan = match &task.custom_plan {
                Some(base) => inflate_stages(base, self.procs, utilization),
                None => {
                    let model = self.zoo.get(&task.model).expect("model in zoo");
                    inflated_plan(model, task.delegate, &self.device, self.procs, utilization)
                        .expect("current delegate is compatible")
                }
            };
            self.sim.update_stream(task.stream, plan);
        }
    }
}

/// Builds the per-frame stage sequence for the current scene.
fn render_stages(device: &DeviceProfile, procs: SocProcs, scene: &Scene) -> StageSeq {
    StageSeq::new(vec![
        Stage::compute(procs.cpu_render, device.render.cpu_frame(scene.len())),
        Stage::compute(procs.gpu, device.render.gpu_frame(scene.render_triangles())),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::ScenarioSpec;

    #[test]
    fn tasks_start_on_their_best_delegates() {
        let app = MarApp::new(&ScenarioSpec::sc1_cf1());
        let alloc = app.allocation();
        // Pixel 7 CF1: mnist + model-metadata x2 GPU, the rest NNAPI.
        let names = app.task_names();
        for (name, d) in names.iter().zip(&alloc) {
            if name.starts_with("mnist") || name.starts_with("model-metadata") {
                assert_eq!(*d, Delegate::Gpu, "{name}");
            } else {
                assert_eq!(*d, Delegate::Nnapi, "{name}");
            }
        }
    }

    #[test]
    fn measurement_without_objects_is_near_expected() {
        let mut app = MarApp::new(&ScenarioSpec::sc2_cf2());
        app.run_for_secs(1.0); // warm-up
        let m = app.measure_for_secs(2.0);
        assert_eq!(m.quality, 1.0); // empty scene
                                    // Three tasks on three different-ish resources with no render
                                    // load: epsilon should be small.
        assert!(m.epsilon < 0.6, "epsilon = {}", m.epsilon);
    }

    #[test]
    fn placing_heavy_objects_raises_epsilon() {
        let mut app = MarApp::new(&ScenarioSpec::sc1_cf1());
        app.run_for_secs(1.0);
        let before = app.measure_for_secs(2.0);
        app.place_all_objects();
        let after = app.measure_for_secs(2.0);
        assert!(
            after.epsilon > before.epsilon + 0.2,
            "epsilon {} -> {}",
            before.epsilon,
            after.epsilon
        );
        assert!(after.quality >= 0.99); // full quality objects
    }

    #[test]
    fn reducing_triangles_reduces_epsilon() {
        let mut app = MarApp::new(&ScenarioSpec::sc1_cf1());
        app.place_all_objects();
        app.run_for_secs(1.0);
        let full = app.measure_for_secs(2.0);
        app.set_triangle_ratio(0.3);
        app.run_for_secs(0.5);
        let decimated = app.measure_for_secs(2.0);
        assert!(
            decimated.epsilon < full.epsilon,
            "epsilon {} -> {}",
            full.epsilon,
            decimated.epsilon
        );
        assert!(decimated.quality < full.quality);
    }

    #[test]
    fn reallocation_changes_latencies() {
        let mut app = MarApp::new(&ScenarioSpec::sc2_cf2());
        app.run_for_secs(1.0);
        // Move everything to the CPU.
        let all_cpu = vec![Delegate::Cpu; 3];
        app.set_allocation(&all_cpu);
        assert_eq!(app.allocation(), all_cpu);
        app.run_for_secs(1.0);
        let m = app.measure_for_secs(2.0);
        // mobilenetDetv1 on CPU is 48.9 ms vs expected 18.1 — epsilon
        // must reflect the CPU penalty.
        assert!(m.epsilon > 0.5, "epsilon = {}", m.epsilon);
    }

    #[test]
    fn moving_away_lightens_render_load() {
        let mut app = MarApp::new(&ScenarioSpec::sc1_cf1());
        app.place_all_objects();
        app.run_for_secs(1.0);
        let near = app.measure_for_secs(2.0);
        app.set_user_distance(5.0);
        app.run_for_secs(0.5);
        let far = app.measure_for_secs(2.0);
        assert!(
            far.epsilon < near.epsilon,
            "{} -> {}",
            near.epsilon,
            far.epsilon
        );
    }

    #[test]
    fn fps_degrades_under_heavy_scene() {
        let mut app = MarApp::new(&ScenarioSpec::sc1_cf1());
        app.place_all_objects();
        app.run_for_secs(3.0);
        // Achieved render frame rate over the trailing second.
        let now = app.sim.now();
        let since = SimTime::from_secs_f64(now.as_secs_f64() - 1.0);
        let fps = app
            .sim
            .source_metrics(app.render_source)
            .rate_since(since, now);
        assert!(fps > 10.0 && fps <= 61.0, "fps = {fps}");
    }

    #[test]
    fn reward_combines_quality_and_epsilon() {
        let m = Measurement {
            quality: 0.9,
            epsilon: 0.2,
            per_task_ms: vec![],
            at: SimTime::ZERO,
        };
        assert!((m.reward(2.5) - 0.4).abs() < 1e-12);
    }

    #[test]
    fn offloading_frees_the_soc_and_reads_back_as_edge() {
        let mut app = MarApp::new(&ScenarioSpec::sc1_cf1());
        app.place_all_objects();
        app.run_for_secs(1.0);
        let loaded = app.measure_for_secs(2.0);
        // Offload every AI task: only the tiny serialization stubs remain
        // on the SoC, so on-device latencies collapse.
        for i in 0..app.task_names().len() {
            app.set_offloaded(i, 0.5);
        }
        assert!(app.allocation().iter().all(|&d| d == Delegate::Edge));
        app.run_for_secs(0.5);
        let stubbed = app.measure_for_secs(2.0);
        assert!(
            stubbed.epsilon < loaded.epsilon,
            "epsilon {} -> {}",
            loaded.epsilon,
            stubbed.epsilon
        );
        // Bringing the tasks back on-device restores real plans.
        let all_cpu = vec![Delegate::Cpu; app.task_names().len()];
        app.set_allocation(&all_cpu);
        assert_eq!(app.allocation(), all_cpu);
        app.run_for_secs(0.5);
        let back = app.measure_for_secs(2.0);
        assert!(
            back.epsilon > stubbed.epsilon,
            "epsilon {} -> {}",
            stubbed.epsilon,
            back.epsilon
        );
    }

    #[test]
    #[should_panic(expected = "cannot run on")]
    fn na_allocation_panics() {
        // deeplabv3 on Pixel 7 NNAPI is NA.
        let spec = ScenarioSpec {
            name: "custom".to_owned(),
            tasks: vec![crate::scenario::TaskSpec::new("deeplabv3", 1)],
            ..ScenarioSpec::sc1_cf1()
        };
        let mut app = MarApp::new(&spec);
        app.set_allocation(&[Delegate::Nnapi]);
    }
}
