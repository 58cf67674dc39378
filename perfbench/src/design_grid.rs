//! `design-grid`: a cold design sweep through `Engine::sweep`, then the
//! ten paper figures.
//!
//! Each repetition starts from a fresh engine and an empty stray-field
//! kernel cache, runs the coarse pass (fig4b point mode, fig4a and
//! fig4c over eCD × a seeded pitch grid × loop segments), a refinement
//! pass around each eCD's Ψ = 2 % pitch as found by `explore`, and the
//! figures at the golden suite's reduced points. No LLGS runs at all.

use crate::common::{
    flip_first_number, median, peak_rss_mb, quantile, stratified, tail_quantile, Checks, Report,
    SeedRng, WORKERS,
};
use crate::golden;
use crate::trace::Tracer;
use mramsim_array::clear_kernel_cache;
use mramsim_engine::{Engine, JobEvent, ParamSet, SweepOptions, SweepPlan};
use std::sync::Mutex;
use std::time::Instant;

pub const ECDS: [f64; 4] = [20.0, 35.0, 55.0, 90.0];
pub const SEGMENTS: [f64; 3] = [64.0, 256.0, 1024.0];
/// Coarse pitches per eCD, stratified over `[1.55, 6] × eCD`.
const COARSE_PITCHES: usize = 10;
/// fig4c upper pitch bounds per eCD.
const FIG4C_BOUNDS: usize = 3;
/// Refinement points per eCD, of which [`REFINE_REPEATS`] repeat the
/// coarse pitches nearest the Ψ = 2 % pitch (memory-cache hits).
const REFINE_POINTS: usize = 12;
const REFINE_REPEATS: usize = 3;
/// Half-width of the refinement window around the Ψ = 2 % pitch.
const REFINE_SPAN: f64 = 0.15;
const PSI_TARGET: f64 = 0.02;

/// The seeded inputs: pitch grids and refinement offsets. Their shape
/// (counts, ranges, repeat share) is the same for every seed.
#[derive(Debug, Clone)]
pub struct Inputs {
    pub coarse: Vec<Vec<f64>>,
    pub fig4c_max: Vec<Vec<f64>>,
    /// Relative offsets of the fresh refinement points, in
    /// `[-REFINE_SPAN, REFINE_SPAN]`.
    pub refine_offsets: Vec<f64>,
    /// Flip one golden-compared CSV cell (benchmark self-test).
    pub corrupt: bool,
}

impl Inputs {
    pub fn generate(seed: u64) -> Self {
        let mut rng = SeedRng::new(seed, "design-grid");
        let coarse = ECDS
            .iter()
            .map(|&ecd| stratified(&mut rng, 1.55 * ecd, 6.0 * ecd, COARSE_PITCHES))
            .collect();
        let fig4c_max = ECDS
            .iter()
            .map(|&ecd| stratified(&mut rng, 3.0 * ecd, 6.0 * ecd, FIG4C_BOUNDS))
            .collect();
        let refine_offsets = stratified(
            &mut rng,
            -REFINE_SPAN,
            REFINE_SPAN,
            REFINE_POINTS - REFINE_REPEATS,
        );
        Self {
            coarse,
            fig4c_max,
            refine_offsets,
            corrupt: false,
        }
    }

    pub fn repeat_share() -> f64 {
        REFINE_REPEATS as f64 / REFINE_POINTS as f64
    }
}

/// What one repetition produced.
#[derive(Debug, Default)]
pub struct Pass {
    /// Every output CSV, labelled, in a fixed order.
    pub csvs: Vec<(String, String)>,
    /// Coarse fig4b points: `(eCD index, segments, pitch, Ψ)`.
    pub coarse_psi: Vec<(usize, f64, f64, f64)>,
    /// `explore`'s Ψ = 2 % pitch per eCD.
    pub explore_pitch: Vec<f64>,
    /// Refinement points per eCD: `(pitch, Ψ)`.
    pub refined: Vec<Vec<(f64, f64)>>,
    pub jobs: usize,
    pub computed: usize,
    pub errors: usize,
    /// Per-job latency (seconds), sweep jobs and single runs.
    pub latencies: Vec<f64>,
    /// Wall time of the measured part (seconds).
    pub wall_s: f64,
}

/// Builds the engine a repetition runs on: a fresh engine and an empty
/// process-wide kernel cache (the set-up being timed).
pub fn setup() -> Engine {
    clear_kernel_cache();
    Engine::standard().with_workers(WORKERS)
}

/// Runs `plan`, returning each job's axis values and Ψ (when the
/// scenario reports one).
fn sweep(engine: &Engine, plan: &SweepPlan, pass: &mut Pass) -> Vec<(Vec<f64>, Option<f64>)> {
    let latencies = Mutex::new(Vec::new());
    let record = |event: &JobEvent<'_>| {
        latencies
            .lock()
            .expect("latency log poisoned")
            .push(event.duration.as_secs_f64());
    };
    let options = SweepOptions {
        on_done: Some(&record),
        ..SweepOptions::default()
    };
    let Ok(outcome) = engine.sweep_with(plan, &options) else {
        pass.jobs += plan.len();
        pass.errors += plan.len();
        return Vec::new();
    };
    pass.latencies
        .extend(latencies.into_inner().expect("latency log poisoned"));
    pass.jobs += outcome.jobs.len();
    pass.computed += outcome.jobs.len() - outcome.cache_hits;
    pass.errors += outcome.errors;
    outcome
        .jobs
        .iter()
        .map(|job| {
            let axes = job.point.iter().map(|(_, v)| *v).collect();
            let psi = job.result.as_ref().ok().and_then(|output| {
                pass.csvs.push((
                    format!("{} {:?}", plan.scenario(), job.point),
                    output.to_csv(),
                ));
                output.scalar("psi")
            });
            (axes, psi)
        })
        .collect()
}

fn run(engine: &Engine, id: &str, params: &ParamSet, pass: &mut Pass) -> Option<f64> {
    pass.jobs += 1;
    match engine.run(id, params) {
        Ok(outcome) => {
            pass.computed += usize::from(!outcome.cache_hit);
            pass.latencies.push(outcome.duration.as_secs_f64());
            pass.csvs.push((id.to_owned(), outcome.output.to_csv()));
            outcome.output.scalar("recommended_pitch_nm")
        }
        Err(_) => {
            pass.errors += 1;
            None
        }
    }
}

/// One repetition on `engine`, timed between `tracer.begin()` and
/// `tracer.end()`.
pub fn run_pass(engine: &Engine, inputs: &Inputs, tracer: &mut Tracer) -> Pass {
    let mut pass = Pass::default();
    tracer.begin();
    let start = Instant::now();
    // Coarse pass.
    for (e, &ecd) in ECDS.iter().enumerate() {
        let pitches = &inputs.coarse[e];
        let fig4b = SweepPlan::new("fig4b")
            .fix("ecd", ecd)
            .axis("pitch", pitches.clone())
            .axis("segments", SEGMENTS.to_vec());
        for (axes, psi) in sweep(engine, &fig4b, &mut pass) {
            if let (&[pitch, segments], Some(psi)) = (axes.as_slice(), psi) {
                pass.coarse_psi.push((e, segments, pitch, psi));
            }
        }
        let fig4a = SweepPlan::new("fig4a")
            .fix("ecd", ecd)
            .axis("pitch", pitches.clone())
            .axis("segments", SEGMENTS.to_vec());
        sweep(engine, &fig4a, &mut pass);
        let fig4c = SweepPlan::new("fig4c")
            .fix("ecd", ecd)
            .fix("min_pitch", 1.5 * ecd)
            .fix("points", 9.0)
            .axis("max_pitch", inputs.fig4c_max[e].clone());
        sweep(engine, &fig4c, &mut pass);
    }
    // Refinement pass around each eCD's Ψ = 2 % pitch.
    for (e, &ecd) in ECDS.iter().enumerate() {
        let explore = ParamSet::new()
            .with("ecd", ecd)
            .with("psi_target", PSI_TARGET);
        let Some(target) = run(engine, "explore", &explore, &mut pass) else {
            pass.explore_pitch.push(f64::NAN);
            pass.refined.push(Vec::new());
            continue;
        };
        pass.explore_pitch.push(target);
        let mut nearest = inputs.coarse[e].clone();
        nearest.sort_by(|a, b| (a - target).abs().total_cmp(&(b - target).abs()));
        let pitches: Vec<f64> = inputs
            .refine_offsets
            .iter()
            .map(|f| target * (1.0 + f))
            .chain(nearest.into_iter().take(REFINE_REPEATS))
            .collect();
        let plan = SweepPlan::new("fig4b")
            .fix("ecd", ecd)
            .axis("pitch", pitches);
        let mut refined: Vec<(f64, f64)> = sweep(engine, &plan, &mut pass)
            .into_iter()
            .filter_map(|(axes, psi)| Some((*axes.first()?, psi?)))
            .collect();
        refined.sort_by(|a, b| a.0.total_cmp(&b.0));
        pass.refined.push(refined);
    }
    // The ten figures.
    for (id, params) in golden::cases() {
        run(engine, id, &params, &mut pass);
    }
    pass.wall_s = start.elapsed().as_secs_f64();
    tracer.end();
    pass
}

/// Output checks on one repetition: golden figures, grid invariants,
/// and the refinement's Ψ = 2 % crossing against `explore`.
pub fn check_pass(pass: &mut Pass, inputs: &Inputs, checks: &mut Checks) {
    checks.count(pass.jobs as u64, pass.errors as u64, "design points");
    if inputs.corrupt {
        if let Some((_, csv)) = pass.csvs.iter_mut().find(|(label, _)| label == "fig4a") {
            *csv = flip_first_number(csv);
        }
    }
    for (id, _) in golden::cases() {
        let actual = pass
            .csvs
            .iter()
            .rev()
            .find(|(label, _)| label == id)
            .map(|(_, csv)| csv.as_str());
        let verdict = match (golden::load(id), actual) {
            (Ok(expected), Some(actual)) => golden::compare(&expected, actual),
            (Err(e), _) => Err(format!("cannot read golden: {e}")),
            (_, None) => Err("figure did not run".to_owned()),
        };
        checks.check(verdict.is_ok(), || {
            format!("{id}: {}", verdict.err().unwrap_or_default())
        });
    }
    for (e, &ecd) in ECDS.iter().enumerate() {
        for segments in SEGMENTS {
            let mut curve: Vec<(f64, f64)> = pass
                .coarse_psi
                .iter()
                .filter(|p| p.0 == e && p.1 == segments)
                .map(|p| (p.2, p.3))
                .collect();
            curve.sort_by(|a, b| a.0.total_cmp(&b.0));
            let decreasing =
                curve.len() == COARSE_PITCHES && curve.windows(2).all(|w| w[1].1 < w[0].1);
            checks.check(decreasing, || {
                format!("Ψ does not decrease with pitch at eCD {ecd} nm, {segments} segments")
            });
        }
        let target = pass.explore_pitch.get(e).copied().unwrap_or(f64::NAN);
        let crossing = pass.refined.get(e).and_then(|r| crossing(r, PSI_TARGET));
        // Linear interpolation between refinement points a few percent
        // apart agrees with explore's bisection to well within 1 %.
        let agrees = crossing.is_some_and(|c| (c - target).abs() <= 0.01 * target);
        checks.check(agrees, || {
            format!("eCD {ecd} nm: refined 2 % crossing {crossing:?} vs explore {target:.3} nm")
        });
    }
}

/// The pitch where Ψ(pitch) crosses `psi`, linearly interpolated.
fn crossing(points: &[(f64, f64)], psi: f64) -> Option<f64> {
    points.windows(2).find_map(|w| {
        let ((p0, v0), (p1, v1)) = (w[0], w[1]);
        (v0 >= psi && v1 <= psi && v0 > v1).then(|| p0 + (p1 - p0) * (v0 - psi) / (v0 - v1))
    })
}

/// Runs repetitions until `seconds` of measured time have been spent.
pub fn measure(seed: u64, seconds: f64, inputs: Option<Inputs>) -> Report {
    let inputs = inputs.unwrap_or_else(|| Inputs::generate(seed));
    let mut report = Report::default();
    let (mut setup_s, mut measured, mut latencies) = (Vec::new(), 0.0, Vec::new());
    let (mut computed, mut jobs) = (0usize, 0usize);
    // Per-repetition rates; the reported rates are their medians.
    let (mut point_rates, mut job_rates) = (Vec::new(), Vec::new());
    let mut reference: Option<Vec<(String, String)>> = None;
    let mut peak_rss = f64::NAN;
    while measured < seconds || reference.is_none() {
        let t = Instant::now();
        let engine = setup();
        setup_s.push(t.elapsed().as_secs_f64());
        let mut pass = run_pass(&engine, &inputs, &mut Tracer::off());
        measured += pass.wall_s;
        computed += pass.computed;
        jobs += pass.jobs;
        point_rates.push(pass.computed as f64 / pass.wall_s);
        job_rates.push(pass.jobs as f64 / pass.wall_s);
        latencies.append(&mut pass.latencies);
        match &reference {
            None => {
                // One repetition's footprint: later repetitions rebuild
                // the same state, while the benchmark's own latency log
                // grows with the run.
                peak_rss = peak_rss_mb();
                check_pass(&mut pass, &inputs, &mut report.checks);
                reference = Some(std::mem::take(&mut pass.csvs));
            }
            Some(first) => {
                report
                    .checks
                    .count(pass.jobs as u64, pass.errors as u64, "design points");
                report.checks.check(&pass.csvs == first, || {
                    "a repetition's outputs differ from the first repetition's".to_owned()
                });
            }
        }
    }
    latencies.sort_by(f64::total_cmp);
    let tail = tail_quantile(latencies.len());
    report.note(format!(
        "design-grid: {} repetitions, {jobs} jobs ({computed} computed, refinement repeat share {:.2}), \
         {} latency samples, tail percentile p{:.1}",
        setup_s.len(),
        Inputs::repeat_share(),
        latencies.len(),
        100.0 * tail
    ));
    report.metric("design_points_per_s", median(&point_rates), "1/s");
    report.metric("served_req_per_s", median(&job_rates), "1/s");
    report.metric("served_p50_ms", 1e3 * quantile(&latencies, 0.5), "ms");
    report.metric("served_p99_ms", 1e3 * quantile(&latencies, tail), "ms");
    report.metric("setup_s", median(&setup_s), "s");
    report.metric("peak_rss_mb", peak_rss, "MB");
    report
}
