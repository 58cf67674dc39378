//! Validation: the Monte-Carlo WER converges to the analytic Butler
//! model (`mtj::wer::write_error_rate`) within statistical tolerance in
//! the regime where that model is quantitatively accurate.
//!
//! The Butler closed form assumes a pure exponential angle growth up to
//! `θ = π/2`; a true s-LLGS trajectory follows the nonlinear `tan(θ/2)`
//! solution and sees the thermal bath *during* the pulse, so the two
//! agree only at moderately over-critical drive (Imamura & Matsumoto,
//! arXiv:1906.00593, is exactly about this divergence). The tests below
//! pin the agreement point; the `wer-mc` engine scenario defaults to
//! the same regime. A fluctuation–dissipation check pins the thermal
//! bath's amplitude independently of any drive.

use mramsim_dynamics::{run_ensemble, wer_monte_carlo, EnsemblePlan, MacrospinParams};
use mramsim_mtj::{presets, SwitchDirection};
use mramsim_numerics::pool::WorkerPool;
use mramsim_units::{Kelvin, Nanometer};

/// The operating temperature that puts the imec-like device's intrinsic
/// `Δ0(T)` at ≈ 60 — the "moderate Δ" regime of the acceptance
/// criterion.
const T_DELTA60: Kelvin = Kelvin::new(253.0);

fn params_at_delta60() -> MacrospinParams {
    let device = presets::imec_like(Nanometer::new(35.0)).unwrap();
    MacrospinParams::from_device(&device, SwitchDirection::PToAp, T_DELTA60).unwrap()
}

/// Pulse width putting the *analytic* WER at `target`:
/// `τ = (τD/2)·ln((π²Δ/4)/(−ln(1−target)))`.
fn pulse_for_analytic_wer(p: &MacrospinParams, drive: f64, target: f64) -> f64 {
    let tau_d = p.tau_d(drive);
    let lambda = -(1.0 - target).ln();
    0.5 * tau_d * ((core::f64::consts::PI.powi(2) * p.delta_init() / 4.0) / lambda).ln()
}

/// Exploratory scan over the overdrive ratio, used to pick (and to
/// re-check, with `--ignored --nocapture`) the agreement point asserted
/// by `mc_wer_matches_butler_at_moderate_delta_and_overdrive`.
#[test]
#[ignore = "tuning harness, run manually with --ignored --nocapture"]
fn scan_overdrive_for_butler_agreement() {
    let p = params_at_delta60();
    let pool = WorkerPool::with_default_parallelism();
    let ic = p.critical_current();
    println!(
        "delta_init = {:.2}, Ic = {:.1} uA",
        p.delta_init(),
        ic * 1e6
    );
    for thermal in [true, false] {
        for over in [2.0, 2.5, 3.0, 3.5, 4.0, 4.5, 5.0, 5.5, 6.0, 7.0] {
            let drive = over * ic;
            let pulse = pulse_for_analytic_wer(&p, drive, 0.30);
            let plan = EnsemblePlan::new(4096, 7, 1e-12)
                .unwrap()
                .with_thermal(thermal);
            let est = wer_monte_carlo(&p, drive, pulse, &plan, &pool);
            let analytic = p.butler_wer(drive, pulse);
            println!(
                "thermal={thermal} over={over:.1} pulse={:.2}ns mc={:.4} analytic={:.4} diff/sigma={:+.2}",
                pulse * 1e9,
                est.wer,
                analytic,
                (est.wer - analytic) / est.std_error,
            );
        }
    }
}

#[test]
fn mc_wer_matches_butler_at_moderate_delta_and_overdrive() {
    let p = params_at_delta60();
    assert!(
        (p.delta_init() - 60.0).abs() < 1.5,
        "delta = {}",
        p.delta_init()
    );
    let pool = WorkerPool::with_default_parallelism();
    let ic = p.critical_current();
    let drive = 5.0 * ic;
    let pulse = pulse_for_analytic_wer(&p, drive, 0.30);
    let plan = EnsemblePlan::new(1024, 7, 1e-12).unwrap();
    let est = wer_monte_carlo(&p, drive, pulse, &plan, &pool);
    let analytic = p.butler_wer(drive, pulse);
    assert!(
        est.agrees_with(analytic, 3.0),
        "mc {} ± {} vs analytic {}",
        est.wer,
        est.std_error,
        analytic
    );
}

/// `⟨1 − m_z²⟩·Δ` after 10 ns of undriven relaxation at temperature
/// `t`, with the in-pulse thermal field on or off.
fn equilibrium_transverse_spread(t: Kelvin, thermal: bool, pool: &WorkerPool) -> (f64, f64) {
    let device = presets::imec_like(Nanometer::new(35.0)).unwrap();
    let p = MacrospinParams::from_device(&device, SwitchDirection::PToAp, t).unwrap();
    let plan = EnsemblePlan::new(2048, 11, 2e-12)
        .unwrap()
        .with_thermal(thermal);
    let out = run_ensemble(&p, 0.0, 10e-9, &plan, pool);
    let spread = out
        .iter()
        .map(|o| 1.0 - o.final_m.z * o.final_m.z)
        .sum::<f64>()
        / out.len() as f64;
    (spread * p.delta_init(), p.delta_init())
}

/// Fluctuation–dissipation: with no drive, the thermal field must hold
/// the macrospin in the Boltzmann distribution of its well, where
/// `⟨1 − m_z²⟩ = ⟨sin²θ⟩ ≈ 1/Δ`. This checks the noise *amplitude*
/// (diffusion `D` and the sampler's variance) end to end: the
/// relaxation over 10 ns spans many damping times, so without the bath
/// the spread collapses to zero.
#[test]
fn thermal_field_holds_the_boltzmann_spread_at_zero_drive() {
    let pool = WorkerPool::with_default_parallelism();
    for (t, delta) in [(300.0, 45.5), (253.0, 60.0)] {
        let (scaled, delta_init) = equilibrium_transverse_spread(Kelvin::new(t), true, &pool);
        assert!(
            (delta_init - delta).abs() < 1.5,
            "T = {t} K: delta = {delta_init}"
        );
        assert!(
            (scaled - 1.0).abs() < 0.10,
            "T = {t} K: <1 - mz^2>·delta = {scaled}"
        );
    }
    let (frozen, _) = equilibrium_transverse_spread(Kelvin::new(300.0), false, &pool);
    assert!(frozen < 0.05, "thermal off: <1 - mz^2>·delta = {frozen}");
}
