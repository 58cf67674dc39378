//! The absorbing freeze of the s-LLGS stepper must never change an
//! outcome. `record_trajectory` steps replica 0 of a seed without ever
//! freezing, so it is the reference: for every seed, replica 0 of
//! `run_ensemble` must agree with it on `switched` and on the first
//! crossing time, while its final vector may differ (it stopped where
//! it froze).
//!
//! The cases are the write-campaign point — the 35 nm device at 300 K
//! driven at 0.8 V for 8 ns in 2 ps steps — in both write directions,
//! under a hostile and a helpful stray field, plus a 3·Ic drive. A
//! differing flag means the freeze level is wrong, not that the test is
//! too strict.

use mramsim_dynamics::{record_trajectory, run_ensemble, EnsemblePlan, MacrospinParams};
use mramsim_mtj::{presets, SwitchDirection};
use mramsim_numerics::pool::WorkerPool;
use mramsim_units::{Kelvin, Nanometer, Oersted, Volt};

const PULSE: f64 = 8e-9;
const DT: f64 = 2e-12;

/// One operating point: calibrated parameters and the drive current.
struct Case {
    name: &'static str,
    params: MacrospinParams,
    current: f64,
}

fn cases() -> Vec<Case> {
    let device = presets::imec_like(Nanometer::new(35.0)).unwrap();
    let params = |direction, hz: f64| {
        MacrospinParams::from_device(&device, direction, Kelvin::new(300.0))
            .unwrap()
            .with_applied_hz(Oersted::new(hz))
    };
    let at_0v8 = |direction: SwitchDirection| {
        device
            .electrical()
            .current(direction.initial_state(), Volt::new(0.8), device.area())
            .value()
    };
    let ap2p = SwitchDirection::ApToP;
    let p2ap = SwitchDirection::PToAp;
    // A negative Hz raises Ic for AP→P and lowers it for P→AP.
    let three_ic = 3.0 * params(ap2p, 0.0).critical_current();
    vec![
        Case {
            name: "AP->P 0.8 V, hostile -370 Oe",
            params: params(ap2p, -370.0),
            current: at_0v8(ap2p),
        },
        Case {
            name: "AP->P 0.8 V, helpful +370 Oe",
            params: params(ap2p, 370.0),
            current: at_0v8(ap2p),
        },
        Case {
            name: "P->AP 0.8 V, hostile +340 Oe",
            params: params(p2ap, 340.0),
            current: at_0v8(p2ap),
        },
        Case {
            name: "P->AP 0.8 V, helpful -340 Oe",
            params: params(p2ap, -340.0),
            current: at_0v8(p2ap),
        },
        Case {
            name: "AP->P 3 Ic",
            params: params(ap2p, 0.0),
            current: three_ic,
        },
    ]
}

/// What one seed showed: whether replica 0 froze before the pulse
/// ended, and whether its outcome differed from the reference.
#[derive(Default)]
struct Tally {
    seeds: usize,
    frozen: usize,
    switched: usize,
    mismatches: Vec<String>,
}

fn compare(case: &Case, seed: u64, tally: &mut Tally) {
    let plan = EnsemblePlan::new(1, seed, DT).unwrap();
    let got = run_ensemble(
        &case.params,
        case.current,
        PULSE,
        &plan,
        &WorkerPool::new(1),
    )[0];
    let reference = record_trajectory(&case.params, case.current, PULSE, DT, true, seed, 1);
    let dest = case.params.stt_sign();
    let crossing = reference
        .iter()
        .find(|(_, m)| m.z * dest > 0.0)
        .map(|&(t, _)| t);
    let (_, last) = *reference.last().unwrap();
    let switched = last.z * dest > 0.0;
    tally.seeds += 1;
    tally.switched += usize::from(switched);
    tally.frozen += usize::from(got.final_m != last);
    if got.switched != switched || got.crossing_time != crossing {
        tally.mismatches.push(format!(
            "{} seed {seed}: switched {} vs {switched}, crossing {:?} vs {crossing:?}",
            case.name, got.switched, got.crossing_time
        ));
    }
}

/// Runs `seeds` seeds per case (split over the default pool) and
/// asserts zero outcome differences; returns the per-case tallies.
fn check(seeds: u64) -> Vec<(&'static str, Tally)> {
    let pool = WorkerPool::with_default_parallelism();
    let chunks: Vec<(usize, u64)> = (0..cases().len())
        .flat_map(|c| (0..seeds).step_by(64).map(move |first| (c, first)))
        .collect();
    let cases = cases();
    let partial = pool.scoped_map(&chunks, |_, &(c, first)| {
        let mut tally = Tally::default();
        for seed in first..(first + 64).min(seeds) {
            compare(&cases[c], seed, &mut tally);
        }
        (c, tally)
    });
    let mut tallies: Vec<(&'static str, Tally)> =
        cases.iter().map(|c| (c.name, Tally::default())).collect();
    for (c, t) in partial {
        let total = &mut tallies[c].1;
        total.seeds += t.seeds;
        total.frozen += t.frozen;
        total.switched += t.switched;
        total.mismatches.extend(t.mismatches);
    }
    let mismatches: Vec<&String> = tallies
        .iter()
        .flat_map(|(_, t)| t.mismatches.iter())
        .collect();
    assert!(
        mismatches.is_empty(),
        "the freeze changed {} outcome(s):\n{mismatches:#?}",
        mismatches.len()
    );
    tallies
}

#[test]
fn freeze_keeps_every_outcome_of_the_unfrozen_reference() {
    for (name, tally) in check(64) {
        // The comparison means something only where lanes froze.
        assert!(tally.frozen > 0, "{name}: no replica froze");
    }
}

/// 2·10⁴ seeds × 5 cases = 10⁵ trajectories; run with
/// `cargo test --release -p mramsim-dynamics -- --ignored freeze`.
#[test]
#[ignore = "10^5 trajectories: run in release with --ignored freeze"]
fn freeze_keeps_every_outcome_over_1e5_trajectories() {
    for (name, tally) in check(20_000) {
        println!(
            "{name}: {} seeds, {} switched, {} frozen, 0 outcomes changed",
            tally.seeds, tally.switched, tally.frozen
        );
        assert!(tally.frozen > 0, "{name}: no replica froze");
    }
}
