//! Scripted time-series experiments: the motivation study of Fig. 2
//! (manual allocation changes and object additions) and the activation
//! study of Fig. 8 (event-based vs periodic policy over a long session).

use hbo_core::{
    ActivationDecision, ActivationPolicy, ActivationReason, HboConfig, HboController,
    PeriodicPolicy,
};
use nnmodel::{Delegate, ModelZoo};
use simcore::rand::SeedableRng;
use simcore::trace::Tracer;
use simcore::{SimDuration, SimTime};
use soc::{DeviceProfile, SocSim, SourceSpec, Stage, StageSeq, StreamId, StreamSpec};

use crate::app::MarApp;
use crate::experiment::{activate, CONTROL_PERIOD_SECS};
use crate::load::{inflated_plan, render_utilization};
use crate::scenario::ScenarioSpec;

/// An event in a Fig. 2-style script.
#[derive(Debug, Clone, PartialEq)]
pub enum ScriptEvent {
    /// Start a new instance of `model` on `delegate`.
    StartTask {
        /// Model name in the zoo.
        model: String,
        /// Initial delegate.
        delegate: Delegate,
    },
    /// Move the `task`-th started task to `delegate` (the C/G/N dots of
    /// Fig. 2).
    MoveTask {
        /// Index into the started tasks, in start order.
        task: usize,
        /// New delegate.
        delegate: Delegate,
    },
    /// Set the render load (the red crosses of Fig. 2): `visible_tris`
    /// triangles across `objects` objects.
    SetRenderLoad {
        /// Visible triangles per frame.
        visible_tris: f64,
        /// On-screen object count (drives CPU prep cost).
        objects: usize,
    },
}

/// A `(time, event)` script entry.
#[derive(Debug, Clone, PartialEq)]
pub struct ScriptPoint {
    /// When the event fires, in seconds.
    pub at_secs: f64,
    /// What happens.
    pub event: ScriptEvent,
}

/// The latency trace of one scripted task.
#[derive(Debug, Clone, PartialEq)]
pub struct TaskTrace {
    /// Task label, e.g. `"deeplabv3_5"`.
    pub name: String,
    /// `(time, delegate)` allocation changes, including the initial one.
    pub delegate_changes: Vec<(f64, Delegate)>,
    /// Mean latency (ms) per sample window, `None` before the task starts
    /// or when no inference completed in the window.
    pub latency_ms: Vec<Option<f64>>,
}

/// The output of [`run_script`]: per-task latency series on a common
/// sampling grid — everything needed to re-plot Fig. 2.
#[derive(Debug, Clone, PartialEq)]
pub struct ContentionTrace {
    /// Sample timestamps (seconds).
    pub sample_secs: Vec<f64>,
    /// Per-task traces, in start order.
    pub tasks: Vec<TaskTrace>,
    /// `(time, label)` markers for render-load events.
    pub markers: Vec<(f64, String)>,
}

/// Runs a Fig. 2-style script on a bare simulated SoC.
///
/// Each event is applied at its exact `at_secs` (the sim runs up to that
/// instant first); the latency trace is sampled every `sample_secs`, with
/// the final window clamped to `total_secs` when the horizon is not a
/// multiple of the sample period. Events scheduled at or beyond
/// `total_secs` never fire.
///
/// # Panics
///
/// Panics if the script references unknown models, out-of-range task
/// indices, or incompatible delegates.
pub fn run_script(
    device: &DeviceProfile,
    zoo: &ModelZoo,
    script: &[ScriptPoint],
    total_secs: f64,
    sample_secs: f64,
) -> ContentionTrace {
    assert!(sample_secs > 0.0 && total_secs > 0.0, "invalid horizon");
    let (topo, procs) = device.topology();
    let mut sim = SocSim::new(topo);
    // Render source present from the start with negligible load.
    let render = sim.add_source(
        SourceSpec::new(
            StageSeq::new(vec![Stage::compute(
                procs.cpu_render,
                SimDuration::from_micros_f64(50.0),
            )]),
            device.frame_period,
            device.max_frames_in_flight,
        )
        .with_label("render"),
    );

    let mut script: Vec<ScriptPoint> = script.to_vec();
    script.sort_by(|a, b| a.at_secs.total_cmp(&b.at_secs));

    struct Running {
        name: String,
        model: String,
        stream: StreamId,
        changes: Vec<(f64, Delegate)>,
    }
    let mut tasks: Vec<Running> = Vec::new();
    let mut markers = Vec::new();
    let mut instance_counter: std::collections::HashMap<String, usize> =
        std::collections::HashMap::new();

    let mut utilization = 0.0;
    let mut next_event = 0;
    let mut sample_times = Vec::new();
    let mut samples: Vec<Vec<Option<f64>>> = Vec::new(); // per sample, per task

    let steps = (total_secs / sample_secs).ceil() as usize;
    for step in 1..=steps {
        // The final window is clamped so the sim never runs past the
        // requested horizon when it is not a multiple of `sample_secs`.
        let t_end = (step as f64 * sample_secs).min(total_secs);
        let window_start = sim.now();
        // Run the sim to each due event's exact time before applying it;
        // events scheduled at or beyond `total_secs` never fire.
        while next_event < script.len() && script[next_event].at_secs < t_end {
            sim.run_until(SimTime::from_secs_f64(
                script[next_event].at_secs.max(sim.now().as_secs_f64()),
            ));
            let point = &script[next_event];
            let now_secs = sim.now().as_secs_f64();
            match &point.event {
                ScriptEvent::StartTask { model, delegate } => {
                    let m = zoo
                        .get(model)
                        .unwrap_or_else(|| panic!("model {model:?} not in zoo"));
                    let plan = inflated_plan(m, *delegate, device, procs, utilization)
                        .unwrap_or_else(|| panic!("{model} cannot run on {delegate}"));
                    let n = instance_counter.entry(model.clone()).or_insert(0);
                    *n += 1;
                    let name = format!("{model}_{n}");
                    let stream = sim.add_stream(
                        StreamSpec::new(plan, SimDuration::from_millis_f64(2.0))
                            .with_period(SimDuration::from_millis_f64(crate::app::task_period_ms(
                                tasks.len(),
                            )))
                            .with_jitter(SimDuration::from_millis_f64(crate::app::TASK_JITTER_MS))
                            .with_label(name.clone()),
                    );
                    tasks.push(Running {
                        name,
                        model: model.clone(),
                        stream,
                        changes: vec![(now_secs, *delegate)],
                    });
                }
                ScriptEvent::MoveTask { task, delegate } => {
                    let t = tasks
                        .get_mut(*task)
                        .unwrap_or_else(|| panic!("task index {task} out of range"));
                    let m = zoo.get(&t.model).expect("started model in zoo");
                    let plan = inflated_plan(m, *delegate, device, procs, utilization)
                        .unwrap_or_else(|| panic!("{} cannot run on {delegate}", t.model));
                    sim.update_stream(t.stream, plan);
                    t.changes.push((now_secs, *delegate));
                }
                ScriptEvent::SetRenderLoad {
                    visible_tris,
                    objects,
                } => {
                    sim.update_source(
                        render,
                        StageSeq::new(vec![
                            Stage::compute(procs.cpu_render, device.render.cpu_frame(*objects)),
                            Stage::compute(procs.gpu, device.render.gpu_frame(*visible_tris)),
                        ]),
                    );
                    utilization = render_utilization(device, *visible_tris);
                    // Re-derive every running task's plan under the new
                    // bandwidth pressure.
                    for t in &tasks {
                        let m = zoo.get(&t.model).expect("started model in zoo");
                        let current = t.changes.last().expect("task has a delegate").1;
                        let plan = inflated_plan(m, current, device, procs, utilization)
                            .expect("current delegate is compatible");
                        sim.update_stream(t.stream, plan);
                    }
                    markers.push((now_secs, format!("{objects} objects")));
                }
            }
            next_event += 1;
        }
        sim.run_until(SimTime::from_secs_f64(t_end));
        sample_times.push(t_end);
        samples.push(
            tasks
                .iter()
                .map(|t| sim.stream_metrics(t.stream).mean_since(window_start))
                .collect(),
        );
    }

    // Transpose into per-task traces (earlier windows predate some tasks).
    let traces = tasks
        .iter()
        .enumerate()
        .map(|(i, t)| TaskTrace {
            name: t.name.clone(),
            delegate_changes: t.changes.clone(),
            latency_ms: samples
                .iter()
                .map(|row| row.get(i).copied().flatten())
                .collect(),
        })
        .collect();

    ContentionTrace {
        sample_secs: sample_times,
        tasks: traces,
        markers,
    }
}

/// Which activation policy drives [`run_activation_study`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum PolicyKind {
    /// The paper's event-based policy (Section IV-E).
    EventBased,
    /// Periodic activation every `interval_secs` (Fig. 8b).
    Periodic {
        /// Seconds between forced activations.
        interval_secs: f64,
    },
    /// The Section VI extension: event-based triggering, but a lookup
    /// table memoizing `(taskset, T_max, distance)` → configuration is
    /// consulted first — familiar conditions reuse the stored solution
    /// instead of paying for a fresh Bayesian exploration.
    LookupAssisted,
}

/// One reward sample of the activation study.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RewardSample {
    /// Sample time (seconds).
    pub t_secs: f64,
    /// Live reward `B_t`.
    pub reward: f64,
    /// True if the sample was taken while Algorithm 1 was exploring.
    pub during_activation: bool,
}

/// The output of [`run_activation_study`] — everything plotted in Fig. 8.
#[derive(Debug, Clone, PartialEq)]
pub struct ActivationTrace {
    /// Reward samples on the monitoring grid.
    pub samples: Vec<RewardSample>,
    /// `(time, reason)` of each full (exploring) activation.
    pub activations: Vec<(f64, ActivationReason)>,
    /// Times at which a stored configuration was reused instead of
    /// activating (only with [`PolicyKind::LookupAssisted`]).
    pub reuses: Vec<f64>,
    /// Times at which an object was placed (the O signs).
    pub placements: Vec<f64>,
    /// Times at which the user's distance changed inside the run.
    pub distance_changes: Vec<f64>,
}

/// Runs the Fig. 8 experiment: objects placed on a schedule, the user
/// stepping away late in the run, the chosen policy deciding when to
/// re-run Algorithm 1.
///
/// `placement_secs` lists when each pending object is placed;
/// `distance_changes` moves the user to a new distance at given times
/// (sorted by time). The run stays inside `total_secs`: it takes a
/// monitoring sample only when its window ends by then, and acts on a
/// reuse or an activation only when every window the action runs (the
/// exploration's control windows, the settling window and the reference
/// windows) ends by then; otherwise it holds.
pub fn run_activation_study(
    spec: &ScenarioSpec,
    config: &HboConfig,
    policy: PolicyKind,
    placement_secs: &[f64],
    distance_changes: &[(f64, f64)],
    total_secs: f64,
    seed: u64,
) -> ActivationTrace {
    let monitor_period = 2.0; // the paper monitors B_t at 2 s intervals

    // After an action the app settles for one monitoring window; a reuse
    // then measures one window, an activation (after exploring) several.
    let reference_windows = 3;
    let reuse_secs = 2.0 * monitor_period;
    let activation_secs = (config.n_initial + config.iterations) as f64 * CONTROL_PERIOD_SECS
        + (1 + reference_windows) as f64 * monitor_period;
    let mut app = MarApp::new(spec);
    let hbo_track = Tracer::current().register_track("hbo", "hbo control");
    let mut hbo = HboController::new(spec.profiles(), config.clone());
    let mut event_policy = ActivationPolicy::paper_default();
    let mut periodic = match policy {
        PolicyKind::Periodic { interval_secs } => Some(PeriodicPolicy::new(
            (interval_secs / monitor_period).round().max(1.0) as usize,
        )),
        PolicyKind::EventBased | PolicyKind::LookupAssisted => None,
    };
    let mut rng = simcore::rand::StdRng::seed_from_u64(seed);

    let mut samples = Vec::new();
    let mut activations = Vec::new();
    let mut reuses = Vec::new();
    let mut placements = Vec::new();
    let mut distance_done = Vec::new();
    let mut next_placement = 0;
    let mut next_distance = 0;
    let w = config.w;
    let mut lookup = hbo_core::LookupTable::new();
    let use_lookup = policy == PolicyKind::LookupAssisted;
    // The policy sees a short trailing mean rather than one raw window:
    // the paper monitors B_t every 2 s; smoothing over three samples keeps
    // single-window measurement noise from masquerading as a real change.
    let mut recent: std::collections::VecDeque<f64> = std::collections::VecDeque::new();
    let smoothed = |r: f64, recent: &mut std::collections::VecDeque<f64>| -> f64 {
        recent.push_back(r);
        if recent.len() > 3 {
            recent.pop_front();
        }
        recent.iter().sum::<f64>() / recent.len() as f64
    };
    // A steady-state (not exploring) sample taken now.
    let steady = |app: &MarApp, reward: f64| RewardSample {
        t_secs: app.now().as_secs_f64(),
        reward,
        during_activation: false,
    };

    while app.now().as_secs_f64() + monitor_period <= total_secs {
        let now = app.now().as_secs_f64();
        // Scene events due now.
        while next_placement < placement_secs.len() && placement_secs[next_placement] <= now {
            if app.place_next_object() {
                placements.push(now);
            }
            next_placement += 1;
        }
        while next_distance < distance_changes.len() && distance_changes[next_distance].0 <= now {
            app.set_user_distance(distance_changes[next_distance].1);
            distance_done.push(now);
            next_distance += 1;
        }

        // One monitoring sample.
        let m = app.measure_for_secs(monitor_period);
        let reward = m.reward(w);
        samples.push(steady(&app, reward));
        let policy_reward = smoothed(reward, &mut recent);

        // Policy decision — never before the first object is on screen.
        let decision = if app.scene().is_empty() {
            ActivationDecision::Hold
        } else {
            match &mut periodic {
                Some(p) => p.check(),
                None => event_policy.check(policy_reward),
            }
        };

        if let ActivationDecision::Activate(reason) = decision {
            let secs_left = total_secs - app.now().as_secs_f64();
            // Lookup-assisted mode: reuse a stored configuration when the
            // current conditions approximately match a past activation.
            let lookup_key = lookup_key_now(&app);
            if use_lookup {
                if let Some(stored) = lookup.find_similar(&lookup_key).cloned() {
                    if reuse_secs > secs_left {
                        continue;
                    }
                    app.set_allocation(&stored.allocation);
                    app.set_triangle_ratio(stored.x);
                    app.run_for_secs(monitor_period);
                    let m = app.measure_for_secs(monitor_period);
                    event_policy.set_reference(m.reward(w));
                    recent.clear();
                    reuses.push(app.now().as_secs_f64());
                    samples.push(steady(&app, m.reward(w)));
                    continue;
                }
            }
            if activation_secs > secs_left {
                continue;
            }
            activations.push((app.now().as_secs_f64(), reason));
            hbo.reset_activation();
            let ratio = app.scene().overall_ratio().clamp(config.r_min, 1.0);
            activate(
                &mut app,
                &mut hbo,
                &mut rng,
                ratio,
                None,
                hbo_track,
                |end, rec| {
                    samples.push(RewardSample {
                        t_secs: end.as_secs_f64(),
                        reward: hbo_core::reward(rec.quality, rec.epsilon, w),
                        during_activation: true,
                    })
                },
            );
            let best = hbo.best().expect("activation ran").clone();
            app.apply(&best.point);
            // Let the new plans take effect (streams pick up the new
            // configuration at their next inference), then average several
            // monitoring windows to form a faithful reference reward.
            app.run_for_secs(monitor_period);
            let mut reference = 0.0;
            for _ in 0..reference_windows {
                let m = app.measure_for_secs(monitor_period);
                reference += m.reward(w);
                samples.push(steady(&app, m.reward(w)));
            }
            let reference = reference / reference_windows as f64;
            event_policy.set_reference(reference);
            recent.clear();
            if use_lookup {
                lookup.store(
                    lookup_key_now(&app),
                    hbo_core::StoredConfig {
                        c: best.point.c.clone(),
                        x: best.point.x,
                        allocation: best.point.allocation.clone(),
                        reward: reference,
                    },
                );
            }
        }
    }

    ActivationTrace {
        samples,
        activations,
        reuses,
        placements,
        distance_changes: distance_done,
    }
}

/// The memoization key for the app's current conditions.
fn lookup_key_now(app: &MarApp) -> hbo_core::LookupKey {
    hbo_core::LookupKey::quantize(
        hbo_core::LookupKey::fingerprint_taskset(app.task_names().into_iter()),
        app.scene().total_max_triangles().max(1),
        app.scene().user_distance(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn s22() -> (DeviceProfile, ModelZoo) {
        (DeviceProfile::galaxy_s22(), ModelZoo::galaxy_s22())
    }

    #[test]
    fn script_reproduces_fig2_reversal_mechanism() {
        // Miniature Fig. 2b: three deeplabv3 on NNAPI, objects appear,
        // then one task moves to the CPU and everyone improves.
        let (device, zoo) = s22();
        let start = |at_secs| ScriptPoint {
            at_secs,
            event: ScriptEvent::StartTask {
                model: "deeplabv3".to_owned(),
                delegate: Delegate::Nnapi,
            },
        };
        let script = vec![
            start(0.0),
            start(2.0),
            start(4.0),
            ScriptPoint {
                at_secs: 8.0,
                event: ScriptEvent::SetRenderLoad {
                    visible_tris: 500_000.0,
                    objects: 6,
                },
            },
            ScriptPoint {
                at_secs: 16.0,
                event: ScriptEvent::MoveTask {
                    task: 2,
                    delegate: Delegate::Cpu,
                },
            },
        ];
        let trace = run_script(&device, &zoo, &script, 24.0, 1.0);
        assert_eq!(trace.tasks.len(), 3);
        assert_eq!(trace.sample_secs.len(), 24);
        assert_eq!(trace.markers.len(), 1);

        let mean_at = |task: usize, from: usize, to: usize| -> f64 {
            let vals: Vec<f64> = trace.tasks[task].latency_ms[from..to]
                .iter()
                .flatten()
                .copied()
                .collect();
            vals.iter().sum::<f64>() / vals.len().max(1) as f64
        };
        // Objects raise task 0's latency (NNAPI rides the loaded GPU)...
        let before_objects = mean_at(0, 6, 8);
        let with_objects = mean_at(0, 12, 16);
        assert!(
            with_objects > before_objects * 1.1,
            "objects should hurt NNAPI: {before_objects} -> {with_objects}"
        );
        // ...and moving task 2 to the CPU helps the ones left on NNAPI.
        let after_move = mean_at(0, 20, 24);
        assert!(
            after_move < with_objects,
            "CPU relocation should relieve NNAPI: {with_objects} -> {after_move}"
        );
    }

    #[test]
    fn events_fire_at_their_exact_time_not_the_window_boundary() {
        // Regression: any event with `at_secs < t_end` used to be applied
        // at the *previous* window boundary — a mid-window move at t=7.5
        // was recorded (and took effect) at t=7.0.
        let (device, zoo) = s22();
        let script = vec![
            ScriptPoint {
                at_secs: 0.0,
                event: ScriptEvent::StartTask {
                    model: "deeplabv3".to_owned(),
                    delegate: Delegate::Nnapi,
                },
            },
            ScriptPoint {
                at_secs: 7.5,
                event: ScriptEvent::MoveTask {
                    task: 0,
                    delegate: Delegate::Cpu,
                },
            },
            ScriptPoint {
                at_secs: 8.25,
                event: ScriptEvent::SetRenderLoad {
                    visible_tris: 300_000.0,
                    objects: 4,
                },
            },
        ];
        let trace = run_script(&device, &zoo, &script, 10.0, 1.0);
        let changes = &trace.tasks[0].delegate_changes;
        assert_eq!(changes.len(), 2);
        assert!(
            (changes[1].0 - 7.5).abs() < 1e-9,
            "move applied at {} instead of 7.5",
            changes[1].0
        );
        assert!(
            (trace.markers[0].0 - 8.25).abs() < 1e-9,
            "render-load marker at {} instead of 8.25",
            trace.markers[0].0
        );
    }

    #[test]
    fn non_divisible_horizon_clamps_the_final_window() {
        // Regression: the ceil-derived grid silently ran the sim to 3.0 s
        // for a 2.5 s horizon, and events inside the overshoot (t=2.8)
        // fired even though they lie beyond the requested horizon.
        let (device, zoo) = s22();
        let script = vec![
            ScriptPoint {
                at_secs: 0.0,
                event: ScriptEvent::StartTask {
                    model: "deeplabv3".to_owned(),
                    delegate: Delegate::Cpu,
                },
            },
            ScriptPoint {
                at_secs: 2.8,
                event: ScriptEvent::MoveTask {
                    task: 0,
                    delegate: Delegate::Nnapi,
                },
            },
        ];
        let trace = run_script(&device, &zoo, &script, 2.5, 1.0);
        assert_eq!(trace.sample_secs, vec![1.0, 2.0, 2.5]);
        assert_eq!(
            trace.tasks[0].delegate_changes.len(),
            1,
            "event beyond the horizon must not fire"
        );
    }

    #[test]
    fn task_names_number_instances() {
        let (device, zoo) = s22();
        let script = vec![
            ScriptPoint {
                at_secs: 0.0,
                event: ScriptEvent::StartTask {
                    model: "deeplabv3".to_owned(),
                    delegate: Delegate::Cpu,
                },
            },
            ScriptPoint {
                at_secs: 1.0,
                event: ScriptEvent::StartTask {
                    model: "deeplabv3".to_owned(),
                    delegate: Delegate::Nnapi,
                },
            },
        ];
        let trace = run_script(&device, &zoo, &script, 3.0, 1.0);
        assert_eq!(trace.tasks[0].name, "deeplabv3_1");
        assert_eq!(trace.tasks[1].name, "deeplabv3_2");
        // Delegate change log includes the initial allocation.
        assert_eq!(trace.tasks[0].delegate_changes[0].1, Delegate::Cpu);
    }

    #[test]
    fn activation_study_event_policy_fires_sparsely() {
        let spec = ScenarioSpec::sc2_cf1();
        let config = HboConfig {
            n_initial: 2,
            iterations: 2,
            ..HboConfig::default()
        };
        let placements: Vec<f64> = (0..7).map(|i| 4.0 + 8.0 * i as f64).collect();
        let trace = run_activation_study(
            &spec,
            &config,
            PolicyKind::EventBased,
            &placements,
            &[(70.0, 4.0)],
            100.0,
            3,
        );
        assert!(!trace.samples.is_empty());
        assert_eq!(trace.placements.len(), 7);
        assert!(
            !trace.activations.is_empty(),
            "first placement must trigger an activation"
        );
        // Event-based: far fewer activations than monitoring samples.
        assert!(trace.activations.len() < 10);
    }

    #[test]
    fn periodic_policy_fires_more_often_than_event_based() {
        let spec = ScenarioSpec::sc2_cf2();
        let config = HboConfig {
            n_initial: 2,
            iterations: 4,
            ..HboConfig::default()
        };
        let placements = [2.0, 10.0];
        let event = run_activation_study(
            &spec,
            &config,
            PolicyKind::EventBased,
            &placements,
            &[],
            90.0,
            4,
        );
        let periodic = run_activation_study(
            &spec,
            &config,
            PolicyKind::Periodic { interval_secs: 4.0 },
            &placements,
            &[],
            90.0,
            4,
        );
        assert!(
            periodic.activations.len() > event.activations.len(),
            "periodic {} vs event {}",
            periodic.activations.len(),
            event.activations.len()
        );
    }
}
