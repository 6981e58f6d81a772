//! Cross-crate integration tests exercising seams between the substrates:
//! controller ↔ app, scene ↔ render load, policy ↔ timeline.

use hbo_core::{HboConfig, HboController};
use hbo_suite::prelude::*;
use simcore::rand::SeedableRng;

#[test]
fn controller_points_are_always_applicable_to_the_app() {
    // Whatever the BO suggests, the heuristic allocation must be
    // compatible with the app (no NA assignments), and applying it must
    // never panic — across many suggestions.
    let spec = ScenarioSpec::sc1_cf1();
    let mut app = MarApp::new(&spec);
    app.place_all_objects();
    let mut hbo = HboController::new(spec.profiles(), HboConfig::default());
    let mut rng = simcore::rand::StdRng::seed_from_u64(123);
    for _ in 0..30 {
        let point = hbo.next_point(&mut rng);
        app.apply(&point);
        let m = app.measure_for_secs(0.5);
        hbo.observe(point, m.quality, m.epsilon);
    }
    assert_eq!(hbo.completed_iterations(), 30);
}

#[test]
fn quality_reported_by_app_matches_scene_model() {
    let spec = ScenarioSpec::sc2_cf2();
    let mut app = MarApp::new(&spec);
    app.place_all_objects();
    app.set_triangle_ratio(0.6);
    let m = app.measure_for_secs(1.0);
    // Recompute from a fresh scene with the same distribution.
    let mut scene = spec.scene();
    scene.distribute_triangles(0.6);
    assert!((m.quality - scene.average_quality()).abs() < 1e-9);
}

#[test]
fn render_load_follows_the_scene_through_the_app() {
    let spec = ScenarioSpec::sc1_cf1();
    let mut app = MarApp::new(&spec);
    assert_eq!(
        app.render_utilization(),
        soc::DeviceProfile::pixel7().render.gpu_base_ms / 16.7
    );
    app.place_all_objects();
    let full = app.render_utilization();
    app.set_triangle_ratio(0.3);
    let decimated = app.render_utilization();
    assert!(full > decimated, "{full} vs {decimated}");
    // Walking away also reduces the load (distance attenuation).
    app.set_user_distance(4.0);
    assert!(app.render_utilization() < decimated);
}

#[test]
fn placements_respect_the_enforced_ratio() {
    let spec = ScenarioSpec::sc1_cf1();
    let mut app = MarApp::new(&spec);
    app.place_next_object();
    app.set_triangle_ratio(0.5);
    let before = app.scene().overall_ratio();
    // Newly placed objects are decimated into the enforced budget rather
    // than arriving pristine.
    app.place_all_objects();
    let after = app.scene().overall_ratio();
    assert!((before - 0.5).abs() < 0.02);
    assert!((after - 0.5).abs() < 0.02, "after = {after}");
}

#[test]
fn stream_metrics_survive_many_reconfigurations() {
    // Rapid allocation flapping must not lose or corrupt latency samples.
    let spec = ScenarioSpec::sc2_cf2();
    let mut app = MarApp::new(&spec);
    app.place_all_objects();
    use nnmodel::Delegate::*;
    let allocations = [
        vec![Cpu, Nnapi, Nnapi],
        vec![Gpu, Cpu, Nnapi],
        vec![Nnapi, Gpu, Cpu],
        vec![Cpu, Cpu, Cpu],
        vec![Gpu, Gpu, Gpu],
    ];
    for alloc in allocations.iter().cycle().take(20) {
        app.set_allocation(alloc);
        let m = app.measure_for_secs(0.5);
        assert_eq!(m.per_task_ms.len(), 3);
        for l in &m.per_task_ms {
            assert!(l.is_finite() && *l > 0.0);
        }
    }
}

#[test]
fn lookup_table_round_trips_controller_output() {
    let spec = ScenarioSpec::sc2_cf1();
    let run = marsim::experiment::run_hbo(
        &spec,
        &HboConfig {
            n_initial: 2,
            iterations: 3,
            ..HboConfig::default()
        },
        5,
    );
    let mut table = hbo_core::LookupTable::new();
    let key = hbo_core::LookupKey::quantize(1, 29_246, 1.0);
    table.store(
        key,
        hbo_core::StoredConfig {
            c: run.best.point.c.clone(),
            x: run.best.point.x,
            allocation: run.best.point.allocation.clone(),
            reward: -run.best.cost,
        },
    );
    let stored = table.find_similar(&key).expect("stored config");
    // The stored allocation applies cleanly to a fresh app.
    let mut app = MarApp::new(&spec);
    app.place_all_objects();
    app.set_allocation(&stored.allocation);
    app.set_triangle_ratio(stored.x);
    let m = app.measure_for_secs(1.0);
    assert!(m.quality > 0.0);
}
