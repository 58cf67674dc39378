//! Per-layer probes: timed calls into each crate's public functions at
//! a workload's own operating point. They run after the traced pass,
//! outside it, so they neither appear in its span tree nor change its
//! counters.

use crate::common::{http, median, time_median, Report, WorkDir, WORKERS};
use mramsim_array::{
    clear_kernel_cache, CellArray, HierarchicalKernel, PatternGrid, StrayFieldKernel,
};
use mramsim_dynamics::{run_ensemble, wer_campaign, CellDrive, EnsemblePlan, MacrospinParams};
use mramsim_engine::cache::ResultCache;
use mramsim_engine::serve::{ServeConfig, Server};
use mramsim_engine::{Engine, ParamSet, ScenarioOutput, SweepJournal, SweepPlan};
use mramsim_faults::{
    array_wer_campaign, shard_wer_campaign, ArrayWerConfig, ShardPlan, SparseWerConfig,
};
use mramsim_magnetics::{FieldSource, LoopSource};
use mramsim_mtj::{presets, MtjDevice, SwitchDirection};
use mramsim_numerics::dist::standard_normal_pair;
use mramsim_numerics::pool::WorkerPool;
use mramsim_numerics::Vec3;
use mramsim_telemetry::Json;
use mramsim_units::{Kelvin, Nanometer, Nanosecond, Oersted, Volt};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

/// A workload's operating point, as the layer probes see it.
pub struct Point {
    pub ecd: f64,
    pub pitches: Vec<f64>,
    pub segments: Vec<usize>,
    /// Write drive of the LLGS and campaign probes.
    pub voltage: f64,
    pub pulse_ns: f64,
    pub trajectories: usize,
    pub dt_ps: f64,
    /// The grid the class-extraction and shard probes walk.
    pub grid: PatternGrid,
    pub shard_rows: usize,
    pub max_radius: usize,
    pub field_tol_oe: f64,
    /// The dense array of the per-cell campaign probes.
    pub dense: (usize, usize),
    /// The scenario a job of this workload runs, and its parameters
    /// for the `i`-th distinct point (engine, store and serve probes).
    pub scenario: &'static str,
    pub params: Box<dyn Fn(usize) -> ParamSet>,
}

impl Point {
    fn device(&self) -> MtjDevice {
        presets::imec_like(Nanometer::new(self.ecd)).expect("preset devices are valid")
    }

    fn pitch(&self) -> f64 {
        self.pitches[self.pitches.len() / 2]
    }

    fn config(&self) -> ArrayWerConfig {
        ArrayWerConfig {
            voltage: Volt::new(self.voltage),
            pulse: Nanosecond::new(self.pulse_ns),
            trajectories: self.trajectories,
            dt: self.dt_ps * 1e-12,
            ..ArrayWerConfig::default()
        }
    }

    /// The AP→P write of one cell under the mid-pitch ring-1 field.
    fn drive(&self) -> (MacrospinParams, f64) {
        let device = self.device();
        let direction = SwitchDirection::ApToP;
        let params = MacrospinParams::from_device(&device, direction, Kelvin::new(300.0))
            .expect("preset calibrates");
        let current = device
            .electrical()
            .current(
                direction.initial_state(),
                Volt::new(self.voltage),
                device.area(),
            )
            .value();
        (params, current)
    }

    /// The dense array's cell drives, as the per-cell campaign builds
    /// them.
    fn cell_drives(&self) -> Vec<CellDrive> {
        let device = self.device();
        let data = CellArray::checkerboard(self.dense.0, self.dense.1).expect("valid array");
        let fields = mramsim_array::cell_field_map(&device, Nanometer::new(self.pitch()), &data)
            .expect("valid pitch");
        fields
            .iter()
            .map(|f| {
                let direction = match f.state {
                    mramsim_mtj::MtjState::AntiParallel => SwitchDirection::ApToP,
                    mramsim_mtj::MtjState::Parallel => SwitchDirection::PToAp,
                };
                let params = MacrospinParams::from_device(&device, direction, Kelvin::new(300.0))
                    .expect("preset calibrates")
                    .with_applied_hz(f.hz_oe());
                let current = device
                    .electrical()
                    .current(
                        direction.initial_state(),
                        Volt::new(self.voltage),
                        device.area(),
                    )
                    .value();
                CellDrive { params, current }
            })
            .collect()
    }
}

/// Runs every probe; `budget_s` bounds the time spent repeating each.
pub fn probe_all(point: &Point, budget_s: f64, report: &mut Report) -> Result<(), String> {
    numerics(point, budget_s, report);
    magnetics(point, budget_s, report);
    array(point, budget_s, report)?;
    dynamics(point, budget_s, report);
    faults(point, budget_s, report)?;
    engine(point, budget_s, report)?;
    serve(point, budget_s, report)?;
    Ok(())
}

fn numerics(point: &Point, budget_s: f64, report: &mut Report) {
    const PAIRS: usize = 1 << 18;
    let mut rng = StdRng::seed_from_u64(7);
    let per_call = time_median(budget_s, 3, || {
        let mut acc = 0.0;
        for _ in 0..PAIRS {
            let (a, b) = standard_normal_pair(&mut rng);
            acc += a + b;
        }
        black_box(acc);
    });
    report.metric(
        "numerics.dist.normal_draws_per_s",
        2.0 * PAIRS as f64 / per_call,
        "1/s",
    );
    let (params, current) = point.drive();
    let plan = EnsemblePlan::new(256, 11, point.dt_ps * 1e-12).expect("valid plan");
    let duration = point.pulse_ns.min(2.0) * 1e-9;
    let time_on = |workers: usize| {
        let pool = WorkerPool::new(workers);
        time_median(budget_s / 2.0, 3, || {
            black_box(run_ensemble(&params, current, duration, &plan, &pool));
        })
    };
    let one = time_on(1);
    let many = time_on(WORKERS);
    report.metric(
        "numerics.pool.scaling_efficiency",
        one / (WORKERS as f64 * many),
        "ratio",
    );
}

fn magnetics(point: &Point, budget_s: f64, report: &mut Report) {
    let radius = 0.5 * point.ecd * 1e-9;
    let pitch = point.pitch() * 1e-9;
    // The victim neighbourhood: points across the 3×3 ring at the
    // free-layer plane, as the kernel builds sample them.
    let points: Vec<Vec3> = (0..256)
        .map(|i| {
            let (gx, gy) = ((i % 16) as f64 / 15.0 - 0.5, (i / 16) as f64 / 15.0 - 0.5);
            Vec3::new(2.0 * pitch * gx, 2.0 * pitch * gy, 1e-9)
        })
        .collect();
    let mut out = vec![Vec3::new(0.0, 0.0, 0.0); points.len()];
    let (mut evals, mut seconds) = (0.0, 0.0);
    for &segments in &point.segments {
        let source =
            LoopSource::new(Vec3::new(0.0, 0.0, 0.0), radius, 1e-4, segments).expect("valid loop");
        let per_call = time_median(budget_s / point.segments.len() as f64, 3, || {
            source.h_field_many(&points, &mut out);
            black_box(&out);
        });
        evals += points.len() as f64;
        seconds += per_call;
    }
    report.metric("magnetics.loop_field_evals_per_s", evals / seconds, "1/s");
}

fn array(point: &Point, budget_s: f64, report: &mut Report) -> Result<(), String> {
    let err = |e: mramsim_array::ArrayError| e.to_string();
    let mut builds = Vec::new();
    for &segments in &point.segments {
        let device = presets::imec_like_with(Nanometer::new(point.ecd), segments, false)
            .map_err(|e| e.to_string())?;
        let pitch = Nanometer::new(point.pitch());
        builds.push(time_median(
            budget_s / point.segments.len() as f64,
            3,
            || {
                black_box(StrayFieldKernel::compute(&device, pitch).expect("valid pitch"));
            },
        ));
    }
    report.metric("array.kernel.build_us", 1e6 * median(&builds), "us");

    let device = point.device();
    let tol = Oersted::new(point.field_tol_oe);
    let mut hierarchy = Vec::new();
    for &pitch in &point.pitches {
        clear_kernel_cache();
        let t = Instant::now();
        HierarchicalKernel::shared_for_tolerance(
            &device,
            Nanometer::new(pitch),
            tol,
            point.max_radius,
        )
        .map_err(err)?;
        hierarchy.push(t.elapsed().as_secs_f64());
    }
    report.metric("array.hierarchy.build_ms", 1e3 * median(&hierarchy), "ms");

    let shards = point.grid.rows().div_ceil(point.shard_rows);
    let radius = point.max_radius;
    let mut classes = 0usize;
    let per_pass = time_median(budget_s, 3, || {
        classes = (0..shards)
            .map(|s| {
                let hi = ((s + 1) * point.shard_rows).min(point.grid.rows());
                point
                    .grid
                    .shard_classes(s * point.shard_rows, hi, radius)
                    .map_or(0, |c| c.len())
            })
            .sum();
    });
    let cells = (point.grid.rows() * point.grid.cols()) as f64;
    report.metric(
        "array.grid.class_extraction_cells_per_s",
        cells / per_pass,
        "1/s",
    );
    report.metric(
        "array.grid.cells_per_class",
        cells / classes.max(1) as f64,
        "ratio",
    );
    Ok(())
}

fn dynamics(point: &Point, budget_s: f64, report: &mut Report) {
    let (params, current) = point.drive();
    let pool = WorkerPool::new(1);
    let duration = point.pulse_ns * 1e-9;
    let rate = |thermal: bool| {
        let plan = EnsemblePlan::new(64, 13, point.dt_ps * 1e-12)
            .expect("valid plan")
            .with_thermal(thermal);
        let steps = (plan.trajectories * plan.steps_for(duration)) as f64;
        let per_call = time_median(budget_s / 2.0, 3, || {
            black_box(run_ensemble(&params, current, duration, &plan, &pool));
        });
        steps / per_call
    };
    let thermal = rate(true);
    let deterministic = rate(false);
    report.metric("dynamics.llgs.thermal_steps_per_s", thermal, "1/s");
    report.metric(
        "dynamics.llgs.deterministic_steps_per_s",
        deterministic,
        "1/s",
    );
    report.metric(
        "dynamics.llgs.noise_share",
        1.0 - thermal / deterministic,
        "ratio",
    );
    let cells = point.cell_drives();
    let plan = EnsemblePlan::new(point.trajectories, 17, point.dt_ps * 1e-12).expect("valid plan");
    let pool = WorkerPool::new(WORKERS);
    let per_call = time_median(budget_s, 3, || {
        black_box(wer_campaign(&cells, duration, &plan, &pool));
    });
    report.metric(
        "dynamics.campaign.trajectories_per_s",
        (cells.len() * point.trajectories) as f64 / per_call,
        "1/s",
    );
}

fn faults(point: &Point, budget_s: f64, report: &mut Report) -> Result<(), String> {
    let device = point.device();
    let pool = WorkerPool::new(WORKERS);
    let pitch = Nanometer::new(point.pitch());
    let plan = ShardPlan::new(point.grid.rows(), point.shard_rows).map_err(|e| e.to_string())?;
    let config = SparseWerConfig {
        base: point.config(),
        max_radius: point.max_radius,
        field_tol: Oersted::new(point.field_tol_oe),
    };
    let shard = plan.n_shards() / 2;
    let per_shard = time_median(budget_s, 1, || {
        black_box(
            shard_wer_campaign(&device, pitch, &point.grid, &plan, shard, &config, &pool)
                .expect("valid shard"),
        );
    });
    report.metric("faults.sharded.shard_ms", 1e3 * per_shard, "ms");
    let data = CellArray::checkerboard(point.dense.0, point.dense.1).map_err(|e| e.to_string())?;
    let config = point.config();
    let per_array = time_median(budget_s, 1, || {
        black_box(array_wer_campaign(&device, pitch, &data, &config, &pool).expect("valid array"));
    });
    report.metric(
        "faults.mc.dense_cell_ms",
        1e3 * per_array / (point.dense.0 * point.dense.1) as f64,
        "ms",
    );
    Ok(())
}

fn engine(point: &Point, budget_s: f64, report: &mut Report) -> Result<(), String> {
    let err = |e: mramsim_engine::EngineError| e.to_string();
    let dir = WorkDir::new("probe-engine").map_err(|e| e.to_string())?;
    let engine = Engine::standard()
        .with_workers(WORKERS)
        .with_disk_cache(dir.path().join("cache"))
        .map_err(err)?;
    let params = (point.params)(0);
    let cold = engine.run(point.scenario, &params).map_err(err)?;
    let warm = time_median(budget_s / 3.0, 100, || {
        black_box(engine.run(point.scenario, &params).expect("cached run"));
    });
    report.metric("engine.cache.warm_run_us", 1e6 * warm, "us");

    let resolved = engine.resolve(point.scenario, &params).map_err(err)?;
    let key = ResultCache::key(point.scenario, &resolved.fingerprint());
    let load = time_median(budget_s / 3.0, 20, || {
        engine.clear_cache();
        black_box(engine.lookup(key).expect("stored result"));
    });
    report.metric("engine.store.disk_load_us", 1e6 * load, "us");
    let store = engine.store().ok_or("no disk store")?;
    let output: &ScenarioOutput = &cold.output;
    let mut next = key;
    let save = time_median(budget_s / 3.0, 20, || {
        next = next.wrapping_add(0x9E37_79B9_7F4A_7C15);
        store.save(next, output);
    });
    report.metric("engine.store.disk_save_us", 1e6 * save, "us");
    let stats = engine.disk_stats().unwrap_or_default();
    report.metric(
        "engine.store.bytes_per_entry",
        stats.bytes_written as f64 / stats.writes.max(1) as f64,
        "B",
    );

    let plan = SweepPlan::new(point.scenario).axis("pitch", point.pitches.clone());
    let journal = SweepJournal::create(dir.path().join("probe.journal"), &plan).map_err(err)?;
    let mut index = 0;
    let record = time_median(budget_s / 3.0, 50, || {
        journal.record(index % plan.len().max(1), key);
        index += 1;
    });
    report.metric("engine.journal.record_us", 1e6 * record, "us");
    Ok(())
}

fn serve(point: &Point, budget_s: f64, report: &mut Report) -> Result<(), String> {
    let dir = WorkDir::new("probe-serve").map_err(|e| e.to_string())?;
    let engine = Arc::new(
        Engine::standard()
            .with_workers(WORKERS)
            .with_disk_cache(dir.path().join("cache"))
            .map_err(|e| e.to_string())?,
    );
    let config = ServeConfig {
        addr: "127.0.0.1:0".to_owned(),
        max_inflight: 4,
        cache_dir: Some(dir.path().to_path_buf()),
    };
    let server = Server::bind(engine, &config).map_err(|e| e.to_string())?;
    let addr = server.local_addr();
    let thread = std::thread::spawn(move || server.run());
    let result = (|| -> Result<(), String> {
        let get = |path: &str| {
            let r = http(addr, "GET", path, "").map_err(|e| e.to_string())?;
            (r.status == 200)
                .then_some(r.body)
                .ok_or_else(|| format!("GET {path}: HTTP {}", r.status))
        };
        let healthz = time_median(budget_s / 4.0, 50, || {
            black_box(get("/healthz").expect("healthz answers"));
        });
        report.metric("engine.serve.healthz_rtt_us", 1e6 * healthz, "us");
        let submit = |i: usize| -> Result<(f64, String), String> {
            let params = (point.params)(i);
            let fields: Vec<String> = params
                .iter()
                .map(|(name, value)| {
                    let value = match value {
                        mramsim_engine::ParamValue::Number(v) => format!("{v}"),
                        mramsim_engine::ParamValue::Text(t) => Json::Str(t.clone()).render(),
                        mramsim_engine::ParamValue::List(l) => format!("{l:?}"),
                    };
                    format!("\"{name}\":{value}")
                })
                .collect();
            let body = format!(
                r#"{{"scenario":"{}","params":{{{}}}}}"#,
                point.scenario,
                fields.join(",")
            );
            let t = Instant::now();
            let r = http(addr, "POST", "/runs", &body).map_err(|e| e.to_string())?;
            let progress = Json::parse(&r.body)
                .and_then(|j| j.get("progress").and_then(Json::as_str).map(str::to_owned))
                .ok_or_else(|| format!("submit: HTTP {} {}", r.status, r.body))?;
            let stream = get(&progress)?;
            let elapsed = t.elapsed().as_secs_f64();
            let key = stream
                .lines()
                .filter_map(Json::parse)
                .find_map(|j| j.get("key").and_then(Json::as_str).map(str::to_owned))
                .ok_or("no key streamed")?;
            Ok((elapsed, key))
        };
        let mut cold = Vec::new();
        let mut key = String::new();
        let start = Instant::now();
        while cold.len() < 3 || (start.elapsed().as_secs_f64() < budget_s / 4.0 && cold.len() < 50)
        {
            let (elapsed, k) = submit(1 + cold.len())?;
            cold.push(elapsed);
            key = k;
        }
        report.metric("engine.serve.submit_cold_ms", 1e3 * median(&cold), "ms");
        let mut warm = Vec::new();
        let start = Instant::now();
        while warm.len() < 5 || (start.elapsed().as_secs_f64() < budget_s / 4.0 && warm.len() < 200)
        {
            warm.push(submit(1)?.0);
        }
        report.metric("engine.serve.submit_warm_ms", 1e3 * median(&warm), "ms");
        let fetch = time_median(budget_s / 4.0, 50, || {
            black_box(get(&format!("/results/{key}")).expect("cached result"));
        });
        report.metric("engine.serve.result_fetch_rtt_us", 1e6 * fetch, "us");
        Ok(())
    })();
    let _ = http(addr, "POST", "/shutdown", "");
    thread
        .join()
        .map_err(|_| "probe server panicked".to_owned())?;
    result
}

/// The per-workload operating points.
pub mod points {
    use super::Point;
    use crate::{design_grid, served_mix, write_campaign};
    use mramsim_array::{DataPattern, Defect, PatternGrid};
    use mramsim_engine::ParamSet;

    pub fn served_mix(seed: u64) -> Point {
        let inputs = served_mix::Inputs::generate(seed, served_mix::FULL);
        Point {
            ecd: served_mix::ECD,
            pitches: vec![60.0, 80.0, 100.0],
            segments: vec![256],
            voltage: 0.9,
            pulse_ns: served_mix::PULSE_NS,
            trajectories: served_mix::TRAJECTORIES,
            dt_ps: 2.0,
            grid: PatternGrid::new(
                served_mix::CELLS,
                served_mix::CELLS,
                DataPattern::Checkerboard,
            )
            .expect("valid grid"),
            shard_rows: served_mix::CELLS,
            max_radius: 4,
            field_tol_oe: 25.0,
            dense: (served_mix::CELLS, served_mix::CELLS),
            scenario: "array-wer",
            params: Box::new(move |i| inputs.params(80.0 + i as f64 * 1e-3)),
        }
    }

    /// Design-grid runs no LLGS and no campaign: those probes reuse the
    /// served-mix operating point.
    pub fn design_grid(seed: u64) -> Point {
        let inputs = design_grid::Inputs::generate(seed);
        let pitches = inputs.coarse[1].clone();
        Point {
            ecd: 35.0,
            segments: design_grid::SEGMENTS.iter().map(|&s| s as usize).collect(),
            params: Box::new(move |i| {
                ParamSet::new()
                    .with("ecd", 35.0)
                    .with("pitch", pitches[0] + i as f64 * 1e-3)
            }),
            pitches: inputs.coarse[1].clone(),
            scenario: "fig4b",
            ..served_mix(seed)
        }
    }

    pub fn write_campaign(seed: u64) -> Point {
        let inputs = write_campaign::Inputs::generate(seed, write_campaign::FULL);
        let shape = inputs.shape;
        let grid = PatternGrid::new(shape.rows, shape.cols, DataPattern::Checkerboard)
            .and_then(|g| g.with_defects(Defect::parse_list(&inputs.defects)?))
            .expect("generated defects are valid");
        Point {
            ecd: write_campaign::ECD,
            pitches: write_campaign::PITCHES.to_vec(),
            segments: vec![256],
            voltage: write_campaign::VOLTAGE,
            pulse_ns: write_campaign::PULSE_NS,
            trajectories: write_campaign::TRAJECTORIES,
            dt_ps: write_campaign::DT_PS,
            grid,
            shard_rows: shape.shard_rows,
            max_radius: write_campaign::MAX_RADIUS,
            field_tol_oe: write_campaign::FIELD_TOL_OE,
            dense: (served_mix::CELLS, served_mix::CELLS),
            scenario: "array-wer-shard",
            params: Box::new(move |i| {
                write_campaign::point_params(&inputs, 70.0 + i as f64 * 1e-3, 1)
            }),
        }
    }
}
