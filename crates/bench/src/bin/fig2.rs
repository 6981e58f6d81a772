//! Regenerates **Figure 2**: AI task latency time-series under manual
//! allocation changes and virtual-object additions on the Galaxy S22.
//!
//! Three sub-experiments, scripted after the paper's narration:
//!
//! * **(a)** four deconv-munet instances shuffled between CPU and GPU,
//! * **(b)** five deeplabv3 instances on NNAPI/CPU with two batches of
//!   virtual objects added mid-run (the paper's fully narrated case),
//! * **(c)** a mixed taskset on GPU/NNAPI.
//!
//! The three scripted timelines run concurrently on the deterministic
//! parallel runner (`--threads N` / `HBO_THREADS`); printing happens
//! afterwards, in figure order.
//!
//! The printed per-task series should show the paper's qualitative
//! reversals: adding tasks to one delegate degrades everyone on it;
//! adding objects inflates NNAPI latencies; relocating a task to the CPU
//! *helps* once the load is high, and piling further tasks onto the CPU
//! hurts the CPU residents.

use hbo_bench::{harness, Series};
use marsim::runner;
use marsim::timeline::{run_script, ContentionTrace, ScriptEvent, ScriptPoint};
use nnmodel::{Delegate, ModelZoo};
use soc::DeviceProfile;

fn start(at_secs: f64, model: &str, delegate: Delegate) -> ScriptPoint {
    ScriptPoint {
        at_secs,
        event: ScriptEvent::StartTask {
            model: model.to_owned(),
            delegate,
        },
    }
}

fn mv(at_secs: f64, task: usize, delegate: Delegate) -> ScriptPoint {
    ScriptPoint {
        at_secs,
        event: ScriptEvent::MoveTask { task, delegate },
    }
}

fn objects(at_secs: f64, visible_tris: f64, objects: usize) -> ScriptPoint {
    ScriptPoint {
        at_secs,
        event: ScriptEvent::SetRenderLoad {
            visible_tris,
            objects,
        },
    }
}

fn print_trace(title: &str, trace: &ContentionTrace) {
    println!("== {title} ==");
    for (t, label) in &trace.markers {
        println!("   marker t={t:.0}s: {label}");
    }
    for task in &trace.tasks {
        let changes: Vec<String> = task
            .delegate_changes
            .iter()
            .map(|(t, d)| format!("{}@{t:.0}s", d.letter()))
            .collect();
        let mut series = Series::new(format!("{} [{}]", task.name, changes.join(" ")));
        for (t, l) in trace.sample_secs.iter().zip(&task.latency_ms) {
            if let Some(l) = l {
                series.push(*t, *l);
            }
        }
        print!("{}", series.render_summary());
    }
    // Windowed means make the reversal quantitative.
    println!();
}

fn window_mean(trace: &ContentionTrace, task: usize, from: f64, to: f64) -> f64 {
    let vals: Vec<f64> = trace
        .sample_secs
        .iter()
        .zip(&trace.tasks[task].latency_ms)
        .filter(|(t, _)| **t > from && **t <= to)
        .filter_map(|(_, l)| *l)
        .collect();
    vals.iter().sum::<f64>() / vals.len().max(1) as f64
}

/// One scripted sub-figure: label, script, and horizon.
struct SubFigure {
    script: Vec<ScriptPoint>,
    total_secs: f64,
}

fn fig2a_script() -> SubFigure {
    // deconv-munet: GPU-affine on the S22 (18 GPU / 33 NNAPI / 58 CPU).
    SubFigure {
        script: vec![
            start(0.0, "deconv-munet", Delegate::Cpu),
            mv(15.0, 0, Delegate::Gpu),
            start(30.0, "deconv-munet", Delegate::Gpu),
            start(45.0, "deconv-munet", Delegate::Gpu),
            start(60.0, "deconv-munet", Delegate::Gpu),
            // Heavy objects: the GPU-resident tasks now fight the renderer.
            objects(80.0, 450_000.0, 7),
            // Move one back to the CPU: it escapes the render contention.
            mv(100.0, 3, Delegate::Cpu),
        ],
        total_secs: 120.0,
    }
}

fn fig2b_script() -> SubFigure {
    // The paper's narrated experiment: five deeplabv3 instances.
    SubFigure {
        script: vec![
            start(0.0, "deeplabv3", Delegate::Cpu),    // C1
            mv(25.0, 0, Delegate::Nnapi),              // N1 at t=25
            start(40.0, "deeplabv3", Delegate::Nnapi), // N2
            start(55.0, "deeplabv3", Delegate::Nnapi), // N3
            start(75.0, "deeplabv3", Delegate::Nnapi), // N4
            start(95.0, "deeplabv3", Delegate::Nnapi), // N5
            mv(120.0, 4, Delegate::Cpu),               // C5: relief without objects
            mv(140.0, 4, Delegate::Nnapi),             // N5: back
            objects(150.0, 250_000.0, 4),              // first object batch
            objects(180.0, 500_000.0, 8),              // second object batch
            mv(200.0, 4, Delegate::Cpu),               // C5: now a big win for all
            mv(215.0, 3, Delegate::Cpu),               // C4: second CPU resident fits
            mv(230.0, 2, Delegate::Cpu),               // C3: third CPU resident queues
        ],
        total_secs: 250.0,
    }
}

fn fig2c_script() -> SubFigure {
    // Mixed classification taskset across GPU/NNAPI.
    SubFigure {
        script: vec![
            start(0.0, "mobilenet-v1", Delegate::Nnapi),
            start(15.0, "inception-v1-q", Delegate::Nnapi),
            start(30.0, "mobilenet-v1", Delegate::Gpu),
            start(45.0, "inception-v1-q", Delegate::Gpu),
            objects(60.0, 350_000.0, 5),
            mv(75.0, 2, Delegate::Nnapi),
            mv(95.0, 3, Delegate::Cpu),
        ],
        total_secs: 110.0,
    }
}

fn main() {
    let device = DeviceProfile::galaxy_s22();
    let zoo = ModelZoo::galaxy_s22();
    let threads = runner::threads_or_exit();

    let figures = [fig2a_script(), fig2b_script(), fig2c_script()];
    let (traces, report) = runner::run_map("fig2", threads, &figures, |_, f| {
        run_script(&device, &zoo, &f.script, f.total_secs, 1.0)
    });

    let a = &traces[0];
    print_trace("Fig. 2a — deconv-munet on CPU/GPU", a);
    let gpu_before = window_mean(a, 0, 70.0, 80.0);
    let gpu_after = window_mean(a, 0, 90.0, 100.0);
    println!(
        "   [check] objects inflate GPU-delegate latency: {gpu_before:.1} -> {gpu_after:.1} ms\n"
    );

    let b = &traces[1];
    print_trace("Fig. 2b — deeplabv3 x5 on NNAPI/CPU with objects", b);
    let isolated_nnapi = window_mean(b, 0, 30.0, 40.0);
    let five_on_nnapi = window_mean(b, 0, 110.0, 120.0);
    let with_objects = window_mean(b, 0, 190.0, 200.0);
    let after_c5 = window_mean(b, 0, 205.0, 215.0);
    let cpu_pair = window_mean(b, 4, 220.0, 230.0);
    let cpu_trio = window_mean(b, 4, 240.0, 250.0);
    println!("   [check] N1 alone:                 {isolated_nnapi:.1} ms (Table I: 27)");
    println!("   [check] five instances on NNAPI:  {five_on_nnapi:.1} ms (queueing)");
    println!("   [check] + objects:                {with_objects:.1} ms (render steals bandwidth)");
    println!("   [check] after C5 relocation:      {after_c5:.1} ms (relief for NNAPI residents)");
    println!("   [check] CPU residents, 2 on CPU:  {cpu_pair:.1} ms (two lanes fit)");
    println!("   [check] CPU residents, 3 on CPU:  {cpu_trio:.1} ms (CPU lanes saturate)\n");

    print_trace("Fig. 2c — mixed classifiers on GPU/NNAPI", &traces[2]);
    harness::emit_runner_report(&report);
}
