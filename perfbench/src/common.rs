//! Shared pieces of the benchmark: seeded input generation, timing and
//! order statistics, result bookkeeping, scratch directories, and a
//! minimal HTTP/1.1 client for the served workload.

use mramsim_telemetry::Json;
use std::collections::BTreeMap;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Instant;

/// Engine workers and client threads: the load is sized for two cores.
pub const WORKERS: usize = 2;

/// SplitMix64: the benchmark's own input generator, so the inputs a
/// seed produces never depend on the program under test.
#[derive(Debug, Clone)]
pub struct SeedRng(u64);

impl SeedRng {
    pub fn new(seed: u64, stream: &str) -> Self {
        let mut state = seed ^ 0x6d72_616d_7369_6d00;
        for byte in stream.bytes() {
            state = (state ^ u64::from(byte)).wrapping_mul(0x0100_0000_01b3);
        }
        Self(state)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform index in `0..n`.
    pub fn below(&mut self, n: usize) -> usize {
        (self.unit() * n as f64) as usize % n.max(1)
    }

    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            let j = self.below(i + 1);
            items.swap(i, j);
        }
    }
}

/// `n` points stratified over `[lo, hi]`: one per equal sub-interval,
/// placed at a seeded position inside its middle 80 %. The count and
/// the coverage stay fixed across seeds; only the positions move.
pub fn stratified(rng: &mut SeedRng, lo: f64, hi: f64, n: usize) -> Vec<f64> {
    let width = (hi - lo) / n as f64;
    (0..n)
        .map(|k| lo + width * (k as f64 + 0.1 + 0.8 * rng.unit()))
        .collect()
}

/// Linear-interpolation quantile of an ascending slice.
pub fn quantile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return f64::NAN;
    }
    let pos = q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

pub fn median(values: &[f64]) -> f64 {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    quantile(&sorted, 0.5)
}

/// The highest percentile (at most p99) that leaves at least ten
/// samples beyond it, never below the median.
pub fn tail_quantile(samples: usize) -> f64 {
    (1.0 - 10.0 / samples.max(1) as f64).clamp(0.5, 0.99)
}

/// Median seconds per call of `f`, repeated until `budget_s` has been
/// spent and at least `min_reps` calls were made.
pub fn time_median(budget_s: f64, min_reps: usize, mut f: impl FnMut()) -> f64 {
    let start = Instant::now();
    let mut samples = Vec::new();
    while samples.len() < min_reps || start.elapsed().as_secs_f64() < budget_s {
        let t = Instant::now();
        f();
        samples.push(t.elapsed().as_secs_f64());
    }
    median(&samples)
}

/// Peak resident set size (VmHWM) in MiB.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
            line.split_whitespace().nth(1)?.parse::<f64>().ok()
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// One reported metric.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

/// Output checks: every check is one attempt, every failed check one
/// failure, each with a line saying what went wrong.
#[derive(Debug, Default)]
pub struct Checks {
    pub attempted: u64,
    pub failed: u64,
    pub problems: Vec<String>,
}

impl Checks {
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            if self.problems.len() < 20 {
                self.problems.push(what());
            }
        }
    }

    /// Counts `n` operations of which `bad` failed (errored points,
    /// non-2xx responses).
    pub fn count(&mut self, n: u64, bad: u64, what: &str) {
        self.attempted += n;
        self.failed += bad;
        if bad > 0 && self.problems.len() < 20 {
            self.problems.push(format!("{bad} of {n} {what} failed"));
        }
    }
}

/// What one run of a workload reports.
#[derive(Debug, Default)]
pub struct Report {
    pub checks: Checks,
    pub metrics: Vec<Metric>,
    /// Human-readable lines printed above the JSON result.
    pub notes: Vec<String>,
}

impl Report {
    pub fn metric(&mut self, name: &str, value: f64, unit: &'static str) {
        self.metrics.push(Metric {
            name: name.to_owned(),
            value,
            unit,
        });
    }

    pub fn note(&mut self, line: String) {
        self.notes.push(line);
    }

    /// The result line: `correct`, `attempted`, `failed`, `metrics`.
    pub fn result_json(&self) -> String {
        let metrics: BTreeMap<String, Json> = self
            .metrics
            .iter()
            .map(|m| {
                let mut obj = BTreeMap::new();
                obj.insert("value".to_owned(), Json::Num(m.value));
                obj.insert("unit".to_owned(), Json::Str(m.unit.to_owned()));
                (m.name.clone(), Json::Obj(obj))
            })
            .collect();
        let mut obj = BTreeMap::new();
        obj.insert(
            "correct".to_owned(),
            Json::Bool(self.checks.failed == 0 && self.checks.attempted > 0),
        );
        obj.insert(
            "attempted".to_owned(),
            Json::Num(self.checks.attempted.max(1) as f64),
        );
        obj.insert("failed".to_owned(), Json::Num(self.checks.failed as f64));
        obj.insert("metrics".to_owned(), Json::Obj(metrics));
        Json::Obj(obj).render()
    }
}

/// A scratch directory under `.bench_work/` in the working directory,
/// removed again on drop.
#[derive(Debug)]
pub struct WorkDir(PathBuf);

impl WorkDir {
    pub fn new(tag: &str) -> std::io::Result<Self> {
        static NEXT: AtomicUsize = AtomicUsize::new(0);
        let path = PathBuf::from(".bench_work").join(format!(
            "{tag}-{}-{}",
            std::process::id(),
            NEXT.fetch_add(1, Ordering::Relaxed)
        ));
        std::fs::create_dir_all(&path)?;
        Ok(Self(path))
    }

    pub fn path(&self) -> &Path {
        &self.0
    }
}

impl Drop for WorkDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
        // Succeeds only once the last scratch directory is gone.
        let _ = std::fs::remove_dir(".bench_work");
    }
}

/// One HTTP response: status code and decoded body.
#[derive(Debug)]
pub struct Response {
    pub status: u16,
    pub body: String,
}

/// One request over a fresh connection (the server closes every
/// connection after its response). Chunked bodies are decoded.
pub fn http(addr: SocketAddr, method: &str, path: &str, body: &str) -> std::io::Result<Response> {
    let mut stream = TcpStream::connect(addr)?;
    write!(
        stream,
        "{method} {path} HTTP/1.1\r\nHost: perfbench\r\nContent-Length: {}\r\n\
         Connection: close\r\n\r\n{body}",
        body.len()
    )?;
    let mut raw = String::new();
    stream.read_to_string(&mut raw)?;
    let bad = || std::io::Error::new(std::io::ErrorKind::InvalidData, "malformed HTTP response");
    let (head, rest) = raw.split_once("\r\n\r\n").ok_or_else(bad)?;
    let status = head
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .ok_or_else(bad)?;
    let body = if head
        .to_ascii_lowercase()
        .contains("transfer-encoding: chunked")
    {
        dechunk(rest).ok_or_else(bad)?
    } else {
        rest.to_owned()
    };
    Ok(Response { status, body })
}

fn dechunk(mut rest: &str) -> Option<String> {
    let mut out = String::new();
    loop {
        let (size, tail) = rest.split_once("\r\n")?;
        let size = usize::from_str_radix(size.trim(), 16).ok()?;
        if size == 0 {
            return Some(out);
        }
        out.push_str(tail.get(..size)?);
        rest = tail.get(size + 2..)?;
    }
}

/// Replaces the first numeric data cell of a CSV with a different
/// value: the deliberately corrupted output of the self-tests.
pub fn flip_first_number(csv: &str) -> String {
    let mut lines: Vec<String> = csv.lines().map(str::to_owned).collect();
    for line in lines.iter_mut().skip(1) {
        let mut cells: Vec<String> = line.split(',').map(str::to_owned).collect();
        if let Some(cell) = cells.iter_mut().find(|c| c.parse::<f64>().is_ok()) {
            let value: f64 = cell.parse().unwrap_or(0.0);
            *cell = format!("{}", value + 1.0);
            *line = cells.join(",");
            break;
        }
    }
    lines.join("\n") + "\n"
}

/// Formats a number for the human-readable tables.
pub fn fmt_value(value: f64) -> String {
    let magnitude = value.abs();
    if value == 0.0 {
        "0".to_owned()
    } else if !(1e-3..1e6).contains(&magnitude) {
        format!("{value:.4e}")
    } else if magnitude >= 100.0 {
        format!("{value:.1}")
    } else {
        format!("{value:.4}")
    }
}
