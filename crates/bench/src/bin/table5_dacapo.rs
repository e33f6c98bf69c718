//! Regenerates paper Table 5 (synthetic DaCapo-like applications under
//! Original / FullAdap(R_time) / FullAdap(R_alloc) / InstanceAdap) and the
//! §5.3 overhead configuration.
//!
//! ```text
//! cargo run --release -p cs-bench --bin table5_dacapo [scale] [--overhead]
//! ```
//!
//! `T` is the median wall time over repetitions; `M` is the peak of tracked
//! collection bytes. Percentages are improvements over the Original run
//! (positive = better), matching the paper's sign convention.

use std::time::Duration;

use cs_bench::{improvement_pct, mib, scale_arg};
use cs_core::SelectionRule;
use cs_workloads::{
    apps,
    runner::{run_app, Mode, RunResult},
    AppSpec,
};

const REPS: u64 = 5; // paper: 30 measured runs

fn median_time(app: &AppSpec, mode: &Mode) -> Duration {
    let mut times: Vec<Duration> = (0..REPS)
        .map(|i| run_app(app, mode.clone(), 42 + i).wall_time)
        .collect();
    times.sort();
    times[times.len() / 2]
}

fn one_run(app: &AppSpec, mode: &Mode) -> RunResult {
    run_app(app, mode.clone(), 42)
}

fn main() {
    let scale = scale_arg(3);
    let overhead = std::env::args().any(|a| a == "--overhead");

    if overhead {
        run_overhead_experiment(scale);
        return;
    }

    println!("# Table 5: synthetic DaCapo-like applications, scale {scale}, median of {REPS} runs");
    println!(
        "bench     | original          | FullAdap R_time    | FullAdap R_alloc   | InstanceAdap"
    );
    println!(
        "          | T(ms)    M(MB)   | dT       dM        | dT       dM        | dT       dM"
    );
    for app in apps::all_apps(scale) {
        let orig_t = median_time(&app, &Mode::Original);
        let orig = one_run(&app, &Mode::Original);

        let cell = |mode: Mode| -> (f64, f64) {
            let t = median_time(&app, &mode);
            let r = one_run(&app, &mode);
            (
                improvement_pct(orig_t.as_secs_f64(), t.as_secs_f64()),
                improvement_pct(orig.peak_bytes as f64, r.peak_bytes as f64),
            )
        };

        let (t_rt, m_rt) = cell(Mode::FullAdap(SelectionRule::r_time()));
        let (t_ra, m_ra) = cell(Mode::FullAdap(SelectionRule::r_alloc()));
        let (t_ia, m_ia) = cell(Mode::InstanceAdap);

        println!(
            "{:9} | {:8.1} {:7.2} | {:+7.1}% {:+8.1}% | {:+7.1}% {:+8.1}% | {:+7.1}% {:+8.1}%",
            app.name,
            orig_t.as_secs_f64() * 1e3,
            mib(orig.peak_bytes),
            t_rt,
            m_rt,
            t_ra,
            m_ra,
            t_ia,
            m_ia,
        );
    }
    println!();
    println!("# positive = improvement over Original (paper sign convention)");
}

/// The paper's §5.3 configuration: FullAdap with an impossible rule — the
/// entire monitoring/analysis pipeline runs but no transition can fire, so
/// the difference to Original is pure framework overhead.
fn run_overhead_experiment(scale: usize) {
    println!("# §5.3 overhead: FullAdap with impossible rule vs Original, scale {scale}");
    println!("bench     | original T(ms) | disabled-rule T(ms) | overhead");
    for app in apps::all_apps(scale) {
        let orig = median_time(&app, &Mode::Original);
        let disabled = median_time(&app, &Mode::FullAdap(SelectionRule::impossible()));
        let over = (disabled.as_secs_f64() / orig.as_secs_f64() - 1.0) * 100.0;
        println!(
            "{:9} | {:13.1} | {:18.1} | {:+6.1}%",
            app.name,
            orig.as_secs_f64() * 1e3,
            disabled.as_secs_f64() * 1e3,
            over,
        );
    }
}
