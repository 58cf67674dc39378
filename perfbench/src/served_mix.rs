//! `served-mix`: a closed loop of two client threads, one connection
//! at a time, against an in-process `serve::Server` whose engine has a
//! disk cache and a memory tier smaller than the mix's key working set.
//!
//! Each client repeats a fixed cycle of twelve requests in a seeded
//! order: one cold `POST /sweeps` of a small dense `array-wer` plan
//! (3×3 cells, 16 trajectories, 4 ns, a unique pitch), two warm
//! resubmissions of plans in the working set, seven `GET /results/<key>`
//! fetches over the working set, one `/healthz` and one `/metrics`.

use crate::common::{
    flip_first_number, http, median, peak_rss_mb, quantile, tail_quantile, Checks, Report, SeedRng,
    WorkDir, WORKERS,
};
use crate::trace::Tracer;
use mramsim_array::clear_kernel_cache;
use mramsim_engine::cache::ResultCache;
use mramsim_engine::serve::{ServeConfig, Server};
use mramsim_engine::{Engine, ParamSet};
use mramsim_numerics::hash::{fnv1a, key_hex};
use mramsim_telemetry::Json;
use std::collections::{BTreeMap, BTreeSet, VecDeque};
use std::net::SocketAddr;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::Instant;

pub const ECD: f64 = 35.0;
pub const CELLS: usize = 3;
pub const TRAJECTORIES: usize = 16;
pub const PULSE_NS: f64 = 4.0;
pub const CLIENTS: usize = 2;
/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 3;
/// Equal time slices of a mix; each reported metric is the median of
/// its per-slice values, so a stall confined to one slice does not
/// move it.
const SLICES: usize = 5;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Op {
    Cold,
    Warm,
    Fetch,
    Healthz,
    Metrics,
}

/// The fixed request proportions of one client cycle.
const CYCLE: [Op; 12] = [
    Op::Cold,
    Op::Warm,
    Op::Warm,
    Op::Fetch,
    Op::Fetch,
    Op::Fetch,
    Op::Fetch,
    Op::Fetch,
    Op::Fetch,
    Op::Fetch,
    Op::Healthz,
    Op::Metrics,
];

/// Sizes that stay fixed across seeds.
#[derive(Debug, Clone, Copy)]
pub struct Shape {
    /// Plans (one key each) in the working set fetches and warm
    /// resubmissions draw from: the most recent ones.
    pub working_set: usize,
    /// Memory-tier capacity, half the working set, so a steady share
    /// of fetches reaches the disk store.
    pub capacity: usize,
}

impl Shape {
    /// Plans computed during set-up: a full working set, split evenly
    /// over the clients.
    fn prefill(&self) -> usize {
        self.working_set.div_ceil(CLIENTS) * CLIENTS
    }
}

pub const FULL: Shape = Shape {
    working_set: 64,
    capacity: 32,
};

#[derive(Debug, Clone)]
pub struct Inputs {
    pub shape: Shape,
    /// Unique pitches for cold plans, in submission order.
    pub pitches: Vec<f64>,
    pub mc_seed: u64,
    pub client_seeds: Vec<u64>,
    /// Corrupt one served body before the comparison (self-test).
    pub corrupt: bool,
}

impl Inputs {
    pub fn generate(seed: u64, shape: Shape) -> Self {
        let mut rng = SeedRng::new(seed, "served-mix");
        // Pitches on a 1 pm lattice over [60, 100) nm, never repeated.
        let mut seen = BTreeSet::new();
        let mut pitches = Vec::new();
        while pitches.len() < 20_000 {
            let k = rng.below(40_000);
            if seen.insert(k) {
                pitches.push(60.0 + k as f64 * 1e-3);
            }
        }
        Self {
            shape,
            pitches,
            mc_seed: rng.next_u64() >> 32,
            client_seeds: (0..CLIENTS).map(|_| rng.next_u64()).collect(),
            corrupt: false,
        }
    }

    /// The scenario parameters of the plan at `pitch`.
    pub fn params(&self, pitch: f64) -> ParamSet {
        ParamSet::new()
            .with("ecd", ECD)
            .with("rows", CELLS as f64)
            .with("cols", CELLS as f64)
            .with("trajectories", TRAJECTORIES as f64)
            .with("pulse_ns", PULSE_NS)
            .with("seed", self.mc_seed as f64)
            .with("pitch", pitch)
    }

    fn body(&self, pitch: f64) -> String {
        format!(
            r#"{{"scenario":"array-wer","params":{{"ecd":{ECD},"rows":{CELLS},"cols":{CELLS},"trajectories":{TRAJECTORIES},"pulse_ns":{PULSE_NS},"seed":{}}},"axes":{{"pitch":[{pitch}]}}}}"#,
            self.mc_seed
        )
    }
}

/// A running server over a fresh disk cache.
pub struct Served {
    pub engine: Arc<Engine>,
    pub addr: SocketAddr,
    /// The working set left by the prefill, where the mix starts.
    window: Mutex<VecDeque<(f64, String)>>,
    thread: Option<JoinHandle<()>>,
    _dir: WorkDir,
}

impl Served {
    /// Starts a server the way a fresh `mramsim serve` process starts:
    /// empty kernel cache, new cache directory.
    pub fn start(capacity: usize) -> Result<Self, String> {
        let dir = WorkDir::new("serve").map_err(|e| e.to_string())?;
        clear_kernel_cache();
        let engine = Arc::new(
            Engine::standard()
                .with_workers(WORKERS)
                .with_cache_capacity(capacity)
                .with_disk_cache(dir.path().join("cache"))
                .map_err(|e| e.to_string())?,
        );
        let config = ServeConfig {
            addr: "127.0.0.1:0".to_owned(),
            max_inflight: 2 * CLIENTS,
            cache_dir: Some(dir.path().to_path_buf()),
        };
        let server = Server::bind(Arc::clone(&engine), &config).map_err(|e| e.to_string())?;
        let addr = server.local_addr();
        let thread = std::thread::spawn(move || server.run());
        // The first answered request also means `run` has installed
        // the server's metrics recorder.
        match http(addr, "GET", "/healthz", "") {
            Ok(r) if r.status == 200 => {}
            other => return Err(format!("server did not come up: {other:?}")),
        }
        Ok(Self {
            engine,
            addr,
            window: Mutex::new(VecDeque::new()),
            thread: Some(thread),
            _dir: dir,
        })
    }

    /// Drains the server and joins its thread.
    pub fn stop(mut self) -> Result<(), String> {
        let drained = http(self.addr, "POST", "/shutdown", "").map_err(|e| e.to_string());
        if let Some(thread) = self.thread.take() {
            thread
                .join()
                .map_err(|_| "server thread panicked".to_owned())?;
        }
        drained.map(|_| ())
    }
}

impl Drop for Served {
    fn drop(&mut self) {
        if let Some(thread) = self.thread.take() {
            let _ = http(self.addr, "POST", "/shutdown", "");
            let _ = thread.join();
        }
    }
}

/// What one submission reported.
struct Submitted {
    keys: Vec<String>,
    /// The submission joined a job already in flight for the same plan
    /// (whose cache behaviour then is that job's).
    joined: bool,
    /// Every point was served from a cache tier.
    all_cached: bool,
}

/// Submits the plan at `pitch` and follows its progress stream to the
/// end.
fn submit(addr: SocketAddr, inputs: &Inputs, pitch: f64) -> Result<Submitted, String> {
    let response = http(addr, "POST", "/sweeps", &inputs.body(pitch)).map_err(|e| e.to_string())?;
    if response.status != 202 && response.status != 200 {
        return Err(format!(
            "submit: HTTP {} {}",
            response.status, response.body
        ));
    }
    let accepted = Json::parse(&response.body).ok_or("submit: malformed response")?;
    let progress = accepted
        .get("progress")
        .and_then(Json::as_str)
        .ok_or("submit: no progress path")?;
    let joined = accepted.get("joined") == Some(&Json::Bool(true));
    let stream = http(addr, "GET", progress, "").map_err(|e| e.to_string())?;
    if stream.status != 200 {
        return Err(format!("progress: HTTP {}", stream.status));
    }
    let mut keys = Vec::new();
    for line in stream.body.lines().filter(|l| !l.is_empty()) {
        let json = Json::parse(line).ok_or("progress: malformed line")?;
        if let Some(key) = json.get("key").and_then(Json::as_str) {
            keys.push(key.to_owned());
        }
        if let Some(status) = json.get("status").and_then(Json::as_str) {
            let number = |name: &str| json.get(name).and_then(Json::as_f64).unwrap_or(-1.0);
            if status != "done" || number("errors") != 0.0 {
                return Err(format!("job ended `{status}`: {line}"));
            }
            return Ok(Submitted {
                keys,
                joined,
                all_cached: number("cache_hits") == number("jobs"),
            });
        }
    }
    Err("progress stream ended without a summary".to_owned())
}

/// State the clients share.
struct Shared<'a> {
    inputs: &'a Inputs,
    addr: SocketAddr,
    next_pitch: AtomicUsize,
    /// The working set: most recent `(pitch, key)` plans.
    window: Mutex<VecDeque<(f64, String)>>,
    /// Hash of the first body served per key: `key → (pitch, hash)`.
    fetched: Mutex<BTreeMap<String, (f64, u64)>>,
    mismatched_fetches: AtomicUsize,
    warm_recomputes: AtomicUsize,
    cold_plans: AtomicUsize,
}

impl Shared<'_> {
    fn cold(&self) -> Result<(), String> {
        let i = self.next_pitch.fetch_add(1, Ordering::Relaxed);
        let pitch = *self.inputs.pitches.get(i).ok_or("out of unique pitches")?;
        let submitted = submit(self.addr, self.inputs, pitch)?;
        let key = submitted
            .keys
            .into_iter()
            .next()
            .ok_or("cold plan streamed no key")?;
        self.cold_plans.fetch_add(1, Ordering::Relaxed);
        let mut window = self.window.lock().expect("window poisoned");
        window.push_back((pitch, key));
        while window.len() > self.inputs.shape.working_set {
            window.pop_front();
        }
        Ok(())
    }

    fn pick(&self, rng: &mut SeedRng) -> Option<(f64, String)> {
        let window = self.window.lock().expect("window poisoned");
        (!window.is_empty()).then(|| window[rng.below(window.len())].clone())
    }

    fn op(&self, op: Op, rng: &mut SeedRng) -> Result<(), String> {
        let get = |path: &str| match http(self.addr, "GET", path, "") {
            Ok(r) if r.status == 200 => Ok(r.body),
            Ok(r) => Err(format!("GET {path}: HTTP {}", r.status)),
            Err(e) => Err(format!("GET {path}: {e}")),
        };
        match op {
            Op::Cold => self.cold(),
            Op::Warm => {
                let (pitch, _) = self.pick(rng).ok_or("empty working set")?;
                let submitted = submit(self.addr, self.inputs, pitch)?;
                // A resubmission racing the end of another job for the
                // same plan joins it and sees that job's cache misses.
                if !submitted.joined && !submitted.all_cached {
                    self.warm_recomputes.fetch_add(1, Ordering::Relaxed);
                }
                Ok(())
            }
            Op::Fetch => {
                let (pitch, key) = self.pick(rng).ok_or("empty working set")?;
                let body = get(&format!("/results/{key}"))?;
                let csv = Json::parse(&body)
                    .and_then(|j| j.get("csv").and_then(Json::as_str).map(str::to_owned))
                    .ok_or("result body without csv")?;
                let mut fetched = self.fetched.lock().expect("fetch log poisoned");
                let csv = if self.inputs.corrupt && fetched.is_empty() {
                    flip_first_number(&csv)
                } else {
                    csv
                };
                let hash = fnv1a(csv.as_bytes());
                match fetched.get(&key) {
                    Some((_, first)) if *first != hash => {
                        self.mismatched_fetches.fetch_add(1, Ordering::Relaxed);
                    }
                    Some(_) => {}
                    None => {
                        fetched.insert(key, (pitch, hash));
                    }
                }
                Ok(())
            }
            Op::Healthz => get("/healthz").map(drop),
            Op::Metrics => get("/metrics").map(drop),
        }
    }
}

/// How long the clients run.
#[derive(Debug, Clone, Copy)]
pub enum Budget {
    Seconds(f64),
    Cycles(usize),
}

/// One finished request.
#[derive(Debug, Clone, Copy)]
pub struct Sample {
    /// Completion time since the mix started, and latency (seconds).
    pub end_s: f64,
    pub latency_s: f64,
    /// A cold submission that succeeded.
    pub cold: bool,
}

/// What one mix produced.
#[derive(Debug, Default)]
pub struct Pass {
    pub samples: Vec<Sample>,
    pub requests: usize,
    pub failed_requests: usize,
    pub cold_points: usize,
    pub fetched: BTreeMap<String, (f64, u64)>,
    pub mismatched_fetches: usize,
    pub warm_recomputes: usize,
    pub memory_hit_share: f64,
    pub disk_served_share: f64,
    /// Disk writes over set-up and mix, against distinct keys computed.
    pub disk_writes: u64,
    pub keys_computed: usize,
    pub wall_s: f64,
    pub problems: Vec<String>,
}

/// Computes the prefill plans (part of set-up): the working set the
/// mix starts from.
pub fn prefill(served: &Served, inputs: &Inputs) -> Result<(), String> {
    let shared = shared(served, inputs, 0);
    let per_client = inputs.shape.prefill() / CLIENTS;
    std::thread::scope(|scope| {
        let workers: Vec<_> = (0..CLIENTS)
            .map(|_| scope.spawn(|| (0..per_client).try_for_each(|_| shared.cold())))
            .collect();
        workers
            .into_iter()
            .try_for_each(|w| w.join().map_err(|_| "prefill client panicked".to_owned())?)
    })?;
    *served.window.lock().expect("window poisoned") =
        shared.window.into_inner().expect("window poisoned");
    Ok(())
}

fn shared<'a>(served: &Served, inputs: &'a Inputs, next_pitch: usize) -> Shared<'a> {
    Shared {
        inputs,
        addr: served.addr,
        next_pitch: AtomicUsize::new(next_pitch),
        window: Mutex::new(VecDeque::new()),
        fetched: Mutex::new(BTreeMap::new()),
        mismatched_fetches: AtomicUsize::new(0),
        warm_recomputes: AtomicUsize::new(0),
        cold_plans: AtomicUsize::new(0),
    }
}

/// Runs the closed-loop mix on a prefilled server.
pub fn run_mix(served: &Served, inputs: &Inputs, budget: Budget, tracer: &mut Tracer) -> Pass {
    let mut shared = shared(served, inputs, inputs.shape.prefill());
    shared.window = Mutex::new(served.window.lock().expect("window poisoned").clone());
    let cache_before = served.engine.cache_stats();
    let disk_before = served.engine.disk_stats().unwrap_or_default();
    tracer.begin();
    let start = Instant::now();
    let logs: Vec<Vec<(Sample, Result<(), String>)>> = std::thread::scope(|scope| {
        let clients: Vec<_> = inputs
            .client_seeds
            .iter()
            .map(|&seed| {
                let shared = &shared;
                scope.spawn(move || {
                    let mut rng = SeedRng::new(seed, "client");
                    let mut samples = Vec::new();
                    let mut cycle = CYCLE;
                    for n in 0.. {
                        let done = match budget {
                            Budget::Seconds(s) => start.elapsed().as_secs_f64() >= s,
                            Budget::Cycles(c) => n >= c,
                        };
                        if done {
                            break;
                        }
                        rng.shuffle(&mut cycle);
                        for op in cycle {
                            let t = Instant::now();
                            let result = shared.op(op, &mut rng);
                            let sample = Sample {
                                end_s: start.elapsed().as_secs_f64(),
                                latency_s: t.elapsed().as_secs_f64(),
                                cold: op == Op::Cold && result.is_ok(),
                            };
                            samples.push((sample, result));
                        }
                    }
                    samples
                })
            })
            .collect();
        clients
            .into_iter()
            .map(|c| c.join().expect("client thread panicked"))
            .collect()
    });
    let wall_s = start.elapsed().as_secs_f64();
    tracer.end();
    let cache_after = served.engine.cache_stats();
    let disk_after = served.engine.disk_stats().unwrap_or_default();
    let memory_hits = (cache_after.hits - cache_before.hits) as f64;
    let memory_misses = (cache_after.misses - cache_before.misses) as f64;
    let disk_hits = (disk_after.hits - disk_before.hits) as f64;
    let mut pass = Pass {
        wall_s,
        memory_hit_share: memory_hits / (memory_hits + memory_misses).max(1.0),
        disk_served_share: disk_hits / (memory_hits + disk_hits).max(1.0),
        disk_writes: disk_after.writes,
        ..Pass::default()
    };
    for (sample, result) in logs.into_iter().flatten() {
        pass.requests += 1;
        pass.samples.push(sample);
        if let Err(problem) = result {
            pass.failed_requests += 1;
            if pass.problems.len() < 5 {
                pass.problems.push(problem);
            }
        }
    }
    pass.cold_points = shared.cold_plans.load(Ordering::Relaxed);
    pass.keys_computed = inputs.shape.prefill() + pass.cold_points;
    pass.mismatched_fetches = shared.mismatched_fetches.load(Ordering::Relaxed);
    pass.warm_recomputes = shared.warm_recomputes.load(Ordering::Relaxed);
    pass.fetched = shared.fetched.into_inner().expect("fetch log poisoned");
    pass
}

/// Output checks: request outcomes, cache behaviour, exactly-once disk
/// writes, and every served body against the same plan run through
/// `Engine::run` on a separate engine.
pub fn check_pass(pass: &mut Pass, inputs: &Inputs, checks: &mut Checks) {
    checks.count(
        pass.requests as u64,
        pass.failed_requests as u64,
        "requests",
    );
    checks.problems.append(&mut pass.problems);
    checks.check(pass.warm_recomputes == 0, || {
        format!("{} warm resubmissions recomputed", pass.warm_recomputes)
    });
    checks.check(pass.mismatched_fetches == 0, || {
        format!(
            "{} fetches served a different body",
            pass.mismatched_fetches
        )
    });
    checks.check(pass.disk_writes == pass.keys_computed as u64, || {
        format!(
            "{} disk writes for {} distinct keys",
            pass.disk_writes, pass.keys_computed
        )
    });
    let reference = Engine::standard();
    let fetched: Vec<(&String, &(f64, u64))> = pass.fetched.iter().collect();
    let verdicts: Vec<Result<(), String>> = std::thread::scope(|scope| {
        let workers: Vec<_> = fetched
            .chunks(fetched.len().div_ceil(WORKERS).max(1))
            .map(|chunk| {
                let reference = &reference;
                scope.spawn(move || {
                    chunk
                        .iter()
                        .map(|(key, (pitch, hash))| {
                            let params = inputs.params(*pitch);
                            let resolved = reference
                                .resolve("array-wer", &params)
                                .map_err(|e| e.to_string())?;
                            let expected_key =
                                key_hex(ResultCache::key("array-wer", &resolved.fingerprint()));
                            let run = reference
                                .run("array-wer", &params)
                                .map_err(|e| e.to_string())?;
                            if **key != expected_key {
                                return Err(format!("key {key} vs {expected_key} at {pitch} nm"));
                            }
                            if fnv1a(run.output.to_csv().as_bytes()) != *hash {
                                return Err(format!(
                                    "served body of {key} differs from Engine::run"
                                ));
                            }
                            Ok(())
                        })
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        workers
            .into_iter()
            .flat_map(|w| w.join().expect("reference worker panicked"))
            .collect()
    });
    for verdict in verdicts {
        checks.check(verdict.is_ok(), || verdict.err().unwrap_or_default());
    }
}

/// Rates and latency percentiles of one time slice of a mix.
struct SliceMetrics {
    req_per_s: f64,
    cold_per_s: f64,
    p50_s: f64,
    tail_s: f64,
}

fn slice_metrics(samples: &[Sample], wall_s: f64) -> Vec<SliceMetrics> {
    let width = wall_s / SLICES as f64;
    (0..SLICES)
        .map(|k| {
            let (lo, hi) = (k as f64 * width, (k + 1) as f64 * width);
            let inside: Vec<&Sample> = samples
                .iter()
                .filter(|s| s.end_s >= lo && (s.end_s < hi || k + 1 == SLICES))
                .collect();
            let mut latencies: Vec<f64> = inside.iter().map(|s| s.latency_s).collect();
            latencies.sort_by(f64::total_cmp);
            SliceMetrics {
                req_per_s: inside.len() as f64 / width,
                cold_per_s: inside.iter().filter(|s| s.cold).count() as f64 / width,
                p50_s: quantile(&latencies, 0.5),
                tail_s: quantile(&latencies, tail_quantile(latencies.len())),
            }
        })
        .collect()
}

/// Set-up: server over a fresh disk cache, bound, and prefilled.
pub fn setup(inputs: &Inputs) -> Result<Served, String> {
    let served = Served::start(inputs.shape.capacity)?;
    prefill(&served, inputs)?;
    Ok(served)
}

pub fn measure(seed: u64, seconds: f64, inputs: Option<Inputs>) -> Result<Report, String> {
    let inputs = inputs.unwrap_or_else(|| Inputs::generate(seed, FULL));
    let mut report = Report::default();
    let mut setup_s = Vec::new();
    let mut served = None;
    for _ in 0..SETUPS {
        if let Some(previous) = served.take() {
            Served::stop(previous)?;
        }
        let t = Instant::now();
        served = Some(setup(&inputs)?);
        setup_s.push(t.elapsed().as_secs_f64());
    }
    let served = served.expect("at least one set-up");
    let mut pass = run_mix(
        &served,
        &inputs,
        Budget::Seconds(seconds),
        &mut Tracer::off(),
    );
    served.stop()?;
    // Before the checks, whose reference engine is not part of the mix.
    let peak_rss_mb = peak_rss_mb();
    check_pass(&mut pass, &inputs, &mut report.checks);
    let slices = slice_metrics(&pass.samples, pass.wall_s);
    let per_slice = |f: fn(&SliceMetrics) -> f64| median(&slices.iter().map(f).collect::<Vec<_>>());
    let samples_per_slice = pass.requests / SLICES;
    report.note(format!(
        "served-mix: {} requests from {CLIENTS} closed-loop clients ({} cold plans, {} keys checked); \
         medians over {SLICES} slices of about {samples_per_slice} requests, tail percentile \
         p{:.1}; memory-tier hit share {:.3}, disk-served share of cache hits {:.3}",
        pass.requests,
        pass.cold_points,
        pass.fetched.len(),
        100.0 * tail_quantile(samples_per_slice),
        pass.memory_hit_share,
        pass.disk_served_share,
    ));
    report.metric("design_points_per_s", per_slice(|s| s.cold_per_s), "1/s");
    report.metric("served_req_per_s", per_slice(|s| s.req_per_s), "1/s");
    report.metric("served_p50_ms", 1e3 * per_slice(|s| s.p50_s), "ms");
    report.metric("served_p99_ms", 1e3 * per_slice(|s| s.tail_s), "ms");
    report.metric("setup_s", median(&setup_s), "s");
    report.metric("peak_rss_mb", peak_rss_mb, "MB");
    Ok(report)
}
