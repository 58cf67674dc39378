//! The solver counters count lane-steps actually integrated: padding
//! lanes of a ragged last block and lanes frozen past the barrier add
//! nothing to `llgs.steps` or `llgs.thermal_draws`.
//!
//! One test per binary: the telemetry recorder is process-global.

use mramsim_dynamics::{run_ensemble, EnsemblePlan, MacrospinParams};
use mramsim_mtj::{presets, SwitchDirection};
use mramsim_numerics::pool::WorkerPool;
use mramsim_telemetry::{self as telemetry, MetricsRecorder};
use mramsim_units::{Kelvin, Nanometer};
use std::sync::Arc;

#[test]
fn solver_counters_count_only_integrated_lane_steps() {
    let device = presets::imec_like(Nanometer::new(35.0)).unwrap();
    let params =
        MacrospinParams::from_device(&device, SwitchDirection::PToAp, Kelvin::new(300.0)).unwrap();
    let pool = WorkerPool::new(2);
    let counts = |current: f64, plan: &EnsemblePlan| {
        let metrics = Arc::new(MetricsRecorder::new());
        let guard = telemetry::install(metrics.clone() as Arc<dyn telemetry::Recorder>);
        let _ = run_ensemble(&params, current, 6e-9, plan, &pool);
        drop(guard);
        let snap = metrics.snapshot();
        (
            snap.counter("llgs.steps"),
            snap.counter("llgs.thermal_draws"),
        )
    };

    // Zero drive never freezes: 21 replicas (one full block plus five
    // live lanes of a padded one) take 3000 steps each.
    let plan = EnsemblePlan::new(21, 3, 2e-12).unwrap();
    assert_eq!(counts(0.0, &plan), (21 * 3000, 21 * 3000));
    let deterministic = plan.with_thermal(false);
    assert_eq!(counts(0.0, &deterministic), (21 * 3000, 0));

    // A 4·Ic drive switches every replica well inside a 6 ns pulse,
    // and frozen lanes stop counting.
    let (steps, draws) = counts(4.0 * params.critical_current(), &plan);
    assert_eq!(steps, draws);
    assert!(steps < 21 * 3000 / 2, "{steps} lane-steps");
}
