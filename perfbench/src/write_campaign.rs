//! `write-campaign`: an `array-wer-shard` campaign driven the way
//! `mramsim campaign` drives it — an engine with a disk cache in a
//! fresh directory, a sweep journal, and `sweep_with` over the shard
//! axis — for the 35 nm device at a low write voltage over the pitch
//! axis {1.5, 2, 3} × eCD, on a 256×256 checkerboard with seeded
//! stuck-cell defects.

use crate::common::{
    flip_first_number, median, peak_rss_mb, quantile, tail_quantile, Checks, Report, SeedRng,
    WorkDir, WORKERS,
};
use crate::trace::Tracer;
use mramsim_array::clear_kernel_cache;
use mramsim_dynamics::{wer_campaign, CellDrive, EnsemblePlan, MacrospinParams};
use mramsim_engine::{Engine, JobEvent, ParamSet, SweepJournal, SweepOptions, SweepPlan};
use mramsim_mtj::{presets, MtjDevice, SwitchDirection};
use mramsim_numerics::pool::WorkerPool;
use mramsim_units::{Kelvin, Nanometer, Oersted, Volt};
use std::sync::Mutex;
use std::time::Instant;

pub const ECD: f64 = 35.0;
pub const PITCHES: [f64; 3] = [52.5, 70.0, 105.0];
pub const VOLTAGE: f64 = 0.8;
pub const PULSE_NS: f64 = 8.0;
pub const TRAJECTORIES: usize = 16;
pub const DT_PS: f64 = 2.0;
pub const MAX_RADIUS: usize = 4;
pub const FIELD_TOL_OE: f64 = 25.0;

/// Grid shape: the same for every seed.
#[derive(Debug, Clone, Copy)]
pub struct Shape {
    pub rows: usize,
    pub cols: usize,
    pub shard_rows: usize,
    /// Stuck cells per shard, half on each checkerboard phase.
    pub defects_per_shard: usize,
}

pub const FULL: Shape = Shape {
    rows: 256,
    cols: 256,
    shard_rows: 64,
    defects_per_shard: 10,
};

/// Re-estimated classes and the family-wise false-alarm rate of the
/// dense cross-check.
const CROSS_CHECK_CLASSES: usize = 8;
const CROSS_CHECK_TRAJECTORIES: usize = 256;
const CROSS_CHECK_ALPHA: f64 = 1e-3;

/// The seeded inputs.
#[derive(Debug, Clone)]
pub struct Inputs {
    pub shape: Shape,
    /// `row,col=P|AP;…` as the scenario's `defects` parameter.
    pub defects: String,
    pub mc_seed: u64,
    pub check_seed: u64,
    /// Write pulse width; the self-tests shorten it.
    pub pulse_ns: f64,
    /// Corrupt one repetition's output (benchmark self-test).
    pub corrupt: bool,
}

impl Inputs {
    /// Stuck cells whose radius-`MAX_RADIUS` windows lie wholly inside
    /// one shard, never overlap each other, never reach the window of a
    /// cell that also sees the grid edge, and always flip the
    /// checkerboard bit they sit on: every seed yields the same window
    /// classes, up to which cells they cover.
    pub fn generate(seed: u64, shape: Shape) -> Self {
        let mut rng = SeedRng::new(seed, "write-campaign");
        let r = MAX_RADIUS;
        let mut defects: Vec<(usize, usize)> = Vec::new();
        let shards = shape.rows / shape.shard_rows;
        for shard in 0..shards {
            let lo = (shard * shape.shard_rows + r).max(2 * r);
            let hi = ((shard + 1) * shape.shard_rows - r).min(shape.rows - 2 * r);
            for k in 0..shape.defects_per_shard {
                let phase = k % 2;
                loop {
                    let row = lo + rng.below(hi - lo);
                    let col = 2 * r + rng.below(shape.cols - 4 * r);
                    let clear = defects
                        .iter()
                        .all(|&(dr, dc)| dr.abs_diff(row).max(dc.abs_diff(col)) > 2 * r);
                    if (row + col) % 2 == phase && clear {
                        defects.push((row, col));
                        break;
                    }
                }
            }
        }
        defects.sort_unstable();
        let defects = defects
            .iter()
            // Checkerboard stores AP where row + col is odd: store the
            // complement.
            .map(|&(row, col)| {
                let state = if (row + col) % 2 == 1 { "P" } else { "AP" };
                format!("{row},{col}={state}")
            })
            .collect::<Vec<_>>()
            .join(";");
        Self {
            shape,
            defects,
            mc_seed: rng.next_u64() >> 32,
            check_seed: rng.next_u64(),
            pulse_ns: PULSE_NS,
            corrupt: false,
        }
    }

    pub fn plan(&self) -> SweepPlan {
        let shards = self.shape.rows.div_ceil(self.shape.shard_rows);
        SweepPlan::new("array-wer-shard")
            .fix("ecd", ECD)
            .fix("rows", self.shape.rows as f64)
            .fix("cols", self.shape.cols as f64)
            .fix("pattern", "checkerboard")
            .fix("defects", self.defects.as_str())
            .fix("shard_rows", self.shape.shard_rows as f64)
            .fix("max_radius", MAX_RADIUS as f64)
            .fix("field_tol", FIELD_TOL_OE)
            .fix("voltage_v", VOLTAGE)
            .fix("pulse_ns", self.pulse_ns)
            .fix("trajectories", TRAJECTORIES as f64)
            .fix("dt_ps", DT_PS)
            .fix("seed", self.mc_seed as f64)
            .axis("pitch", PITCHES.to_vec())
            .axis("shard", (0..shards).map(|s| s as f64).collect())
    }

    pub fn cells(&self) -> usize {
        PITCHES.len() * self.shape.rows * self.shape.cols
    }
}

/// A campaign ready to run: engine over a fresh disk cache, journal
/// created.
pub struct Setup {
    pub engine: Engine,
    pub journal: SweepJournal,
    // Dropped last: the directory holding the store and the journal.
    _dir: WorkDir,
}

pub fn setup(plan: &SweepPlan) -> Result<Setup, String> {
    let dir = WorkDir::new("campaign").map_err(|e| e.to_string())?;
    clear_kernel_cache();
    let engine = Engine::standard()
        .with_workers(WORKERS)
        .with_disk_cache(dir.path().join("cache"))
        .map_err(|e| e.to_string())?;
    let run_id = SweepJournal::run_id(plan);
    let journal = SweepJournal::create(SweepJournal::path_for(dir.path(), &run_id), plan)
        .map_err(|e| e.to_string())?;
    Ok(Setup {
        engine,
        journal,
        _dir: dir,
    })
}

/// What one campaign produced.
#[derive(Debug, Default)]
pub struct Pass {
    /// Every shard's output CSV under a `pitch,shard` label line, in
    /// plan order.
    pub csv: String,
    /// Cells reported per pitch.
    pub cells_per_pitch: Vec<f64>,
    /// Class rows: `(pitch, direction, hz_oe, failures)`.
    pub classes: Vec<(f64, String, f64, usize)>,
    pub jobs: usize,
    pub computed: usize,
    pub errors: usize,
    pub latencies: Vec<f64>,
    pub wall_s: f64,
}

pub fn run_pass(setup: &Setup, plan: &SweepPlan, tracer: &mut Tracer) -> Pass {
    let latencies = Mutex::new(Vec::new());
    let record = |event: &JobEvent<'_>| {
        if event.ok {
            setup.journal.record(event.index, event.key);
        }
        latencies
            .lock()
            .expect("latency log poisoned")
            .push(event.duration.as_secs_f64());
    };
    let options = SweepOptions {
        on_done: Some(&record),
        ..SweepOptions::default()
    };
    tracer.begin();
    let start = Instant::now();
    let outcome = setup.engine.sweep_with(plan, &options);
    let wall_s = start.elapsed().as_secs_f64();
    tracer.end();
    let mut pass = Pass {
        wall_s,
        latencies: latencies.into_inner().expect("latency log poisoned"),
        cells_per_pitch: vec![0.0; PITCHES.len()],
        ..Pass::default()
    };
    let Ok(outcome) = outcome else {
        pass.jobs = plan.len();
        pass.errors = plan.len();
        return pass;
    };
    pass.jobs = outcome.jobs.len();
    pass.computed = outcome.jobs.len() - outcome.cache_hits;
    pass.errors = outcome.errors;
    for job in &outcome.jobs {
        let pitch = job.point[0].1;
        pass.csv.push_str(&format!("{:?}\n", job.point));
        let Ok(output) = &job.result else { continue };
        let csv = output.to_csv();
        pass.csv.push_str(&csv);
        if let Some(i) = PITCHES.iter().position(|&p| p == pitch) {
            pass.cells_per_pitch[i] += output.scalar("cells").unwrap_or(0.0);
        }
        pass.classes
            .extend(class_rows(&csv).map(|(d, hz, f)| (pitch, d, hz, f)));
    }
    pass
}

/// `(direction, hz_oe, failures)` of every row of the window-class
/// table in one shard's CSV.
fn class_rows(csv: &str) -> impl Iterator<Item = (String, f64, usize)> + '_ {
    let mut columns: Vec<&str> = Vec::new();
    csv.lines().filter_map(move |line| {
        if line.starts_with("window_key,") {
            columns = line.split(',').collect();
            return None;
        }
        if columns.is_empty() || line.is_empty() {
            return None;
        }
        let cells: Vec<&str> = line.split(',').collect();
        let at = |name: &str| columns.iter().position(|c| *c == name).map(|i| cells[i]);
        Some((
            at("direction")?.to_owned(),
            at("hz_oe")?.parse().ok()?,
            at("failures")?.parse().ok()?,
        ))
    })
}

/// Wilson score interval of `k` successes in `n` trials.
pub fn wilson(k: usize, n: usize, z: f64) -> (f64, f64) {
    let n = n as f64;
    let p = k as f64 / n;
    let z2 = z * z;
    let centre = (p + z2 / (2.0 * n)) / (1.0 + z2 / n);
    let half = z / (1.0 + z2 / n) * (p * (1.0 - p) / n + z2 / (4.0 * n * n)).sqrt();
    (centre - half, centre + half)
}

/// Upper standard-normal quantile by bisection on the error function.
fn normal_upper_quantile(tail: f64) -> f64 {
    let (mut lo, mut hi) = (0.0f64, 10.0f64);
    for _ in 0..100 {
        let mid = 0.5 * (lo + hi);
        if 0.5 * (1.0 - mramsim_numerics::special::erf(mid / std::f64::consts::SQRT_2)) > tail {
            lo = mid;
        } else {
            hi = mid;
        }
    }
    0.5 * (lo + hi)
}

/// The dense cross-check: a seeded sample of classes re-estimated
/// through the per-cell campaign path (`dynamics::wer_campaign`) at the
/// class's stray field, with an independent seed and more trajectories.
/// A class fails when the two Wilson intervals, each at confidence
/// `1 - alpha/m`, are disjoint — a family-wise false-alarm rate of at
/// most `alpha` when both estimators are unbiased.
pub fn cross_check(pass: &Pass, inputs: &Inputs, checks: &mut Checks) {
    let device: MtjDevice =
        presets::imec_like(Nanometer::new(ECD)).expect("the 35 nm preset is valid");
    let mut rng = SeedRng::new(inputs.check_seed, "cross-check");
    let mut picks: Vec<usize> = (0..pass.classes.len()).collect();
    rng.shuffle(&mut picks);
    picks.truncate(CROSS_CHECK_CLASSES);
    let mut cells = Vec::new();
    for &i in &picks {
        let (_, direction, hz, _) = &pass.classes[i];
        let direction = if direction == "AP->P" {
            SwitchDirection::ApToP
        } else {
            SwitchDirection::PToAp
        };
        let params = MacrospinParams::from_device(&device, direction, Kelvin::new(300.0))
            .expect("the preset calibrates")
            .with_applied_hz(Oersted::new(*hz));
        let current = device
            .electrical()
            .current(direction.initial_state(), Volt::new(VOLTAGE), device.area())
            .value();
        cells.push(CellDrive { params, current });
    }
    let plan = EnsemblePlan::new(CROSS_CHECK_TRAJECTORIES, rng.next_u64(), DT_PS * 1e-12)
        .expect("valid ensemble plan");
    let dense = wer_campaign(
        &cells,
        inputs.pulse_ns * 1e-9,
        &plan,
        &WorkerPool::new(WORKERS),
    );
    let z = normal_upper_quantile(CROSS_CHECK_ALPHA / (2.0 * picks.len().max(1) as f64));
    for (&i, estimate) in picks.iter().zip(&dense) {
        let (pitch, direction, hz, failures) = &pass.classes[i];
        let (a_lo, a_hi) = wilson(*failures, TRAJECTORIES, z);
        let (b_lo, b_hi) = wilson(estimate.failures, estimate.trajectories, z);
        checks.check(a_lo <= b_hi && b_lo <= a_hi, || {
            format!(
                "class at pitch {pitch} nm ({direction}, {hz} Oe): sparse {failures}/{TRAJECTORIES} \
                 vs dense {}/{} failures",
                estimate.failures, estimate.trajectories
            )
        });
    }
}

/// Checks on the first campaign: cell accounting and the dense
/// cross-check.
pub fn check_first(pass: &Pass, inputs: &Inputs, checks: &mut Checks) {
    checks.count(pass.jobs as u64, pass.errors as u64, "campaign shards");
    let expected = (inputs.shape.rows * inputs.shape.cols) as f64;
    for (pitch, cells) in PITCHES.iter().zip(&pass.cells_per_pitch) {
        checks.check(*cells == expected, || {
            format!("pitch {pitch} nm: {cells} cells reported, grid has {expected}")
        });
    }
    cross_check(pass, inputs, checks);
}

/// Campaigns until `seconds` of measured time have been spent.
pub fn measure(seed: u64, seconds: f64, inputs: Option<Inputs>) -> Result<Report, String> {
    let inputs = inputs.unwrap_or_else(|| Inputs::generate(seed, FULL));
    let plan = inputs.plan();
    let mut report = Report::default();
    let (mut setup_s, mut measured, mut latencies) = (Vec::new(), 0.0, Vec::new());
    let mut classes = 0;
    // Per-campaign rates; the reported rates are their medians.
    let (mut point_rates, mut job_rates) = (Vec::new(), Vec::new());
    let mut first: Option<String> = None;
    let mut peak_rss = f64::NAN;
    while measured < seconds || first.is_none() {
        let t = Instant::now();
        let campaign = setup(&plan)?;
        setup_s.push(t.elapsed().as_secs_f64());
        let mut pass = run_pass(&campaign, &plan, &mut Tracer::off());
        drop(campaign);
        measured += pass.wall_s;
        point_rates.push(pass.computed as f64 / pass.wall_s);
        job_rates.push(pass.jobs as f64 / pass.wall_s);
        latencies.append(&mut pass.latencies);
        match &first {
            None => {
                // One campaign's footprint, before the checks.
                peak_rss = peak_rss_mb();
                check_first(&pass, &inputs, &mut report.checks);
                classes = pass.classes.len();
                first = Some(std::mem::take(&mut pass.csv));
            }
            Some(reference) => {
                if inputs.corrupt {
                    pass.csv = flip_first_number(&pass.csv);
                }
                report
                    .checks
                    .count(pass.jobs as u64, pass.errors as u64, "campaign shards");
                report.checks.check(&pass.csv == reference, || {
                    "a campaign's CSV differs from the first campaign's".to_owned()
                });
            }
        }
    }
    latencies.sort_by(f64::total_cmp);
    let tail = tail_quantile(latencies.len());
    let campaigns = setup_s.len();
    let cells = (campaigns * inputs.cells()) as f64;
    report.note(format!(
        "write-campaign: {campaigns} campaigns of {} cells ({} pitches × {}×{}), {classes} window classes \
         ({:.1} cells per class), {TRAJECTORIES} trajectories at dt {DT_PS} ps; \
         campaign_cells_per_s = {:.1}; {} shard latencies, tail percentile p{:.1}; \
         campaign rates {:.3?}/s",
        inputs.cells(),
        PITCHES.len(),
        inputs.shape.rows,
        inputs.shape.cols,
        inputs.cells() as f64 / classes.max(1) as f64,
        cells / measured,
        latencies.len(),
        100.0 * tail,
        point_rates,
    ));
    report.metric("design_points_per_s", median(&point_rates), "1/s");
    report.metric("served_req_per_s", median(&job_rates), "1/s");
    report.metric("served_p50_ms", 1e3 * quantile(&latencies, 0.5), "ms");
    report.metric("served_p99_ms", 1e3 * quantile(&latencies, tail), "ms");
    report.metric("setup_s", median(&setup_s), "s");
    report.metric("peak_rss_mb", peak_rss, "MB");
    Ok(report)
}

/// The campaign's operating point as scenario parameters (one pitch,
/// one shard), for the layer probes.
pub fn point_params(inputs: &Inputs, pitch: f64, shard: usize) -> ParamSet {
    let mut params = ParamSet::new();
    for (name, value) in inputs.plan().fixed().iter() {
        params.insert(name, value.clone());
    }
    params.with("pitch", pitch).with("shard", shard as f64)
}
