//! The traced pass: a JSONL run log plus in-memory metrics recorded
//! through the program's existing telemetry (`telemetry::install`), and
//! the attribution of the pass's wall time to the span tree.

use crate::common::{Report, WorkDir};
use mramsim_telemetry::{
    self as telemetry, Clock, Fanout, InstallGuard, JsonlRecorder, MetricsRecorder,
    MetricsSnapshot, Recorder, TelemetryLog,
};
use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Instant;

/// Span names whose self time the traced run reports.
pub const SPANS: [&str; 11] = [
    "sweep",
    "job",
    "compute",
    "disk.load",
    "disk.store",
    "kernel.build",
    "campaign.shard",
    "wer.campaign",
    "llgs.ensemble",
    "journal.flush",
    "pool_job",
];

/// Program counters printed by the traced run.
pub const COUNTERS: [&str; 15] = [
    "llgs.steps",
    "llgs.thermal_draws",
    "llgs.trajectories",
    "campaign.cells",
    "campaign.classes",
    "cache.memory_hits",
    "cache.memory_misses",
    "cache.disk_hits",
    "cache.disk_writes",
    "cache.disk_bytes_written",
    "journal.records",
    "pool.steals",
    "serve.requests",
    "serve.rejected",
    "serve.submitted",
];

/// Brackets one measured pass. Untraced, it only times the pass;
/// traced, it also installs a recorder for exactly that interval.
/// Workloads call [`Tracer::begin`] and [`Tracer::end`] around the part
/// that is measured (after set-up, before the output checks).
pub struct Tracer {
    sink: Option<(WorkDir, Arc<JsonlRecorder>, Arc<MetricsRecorder>)>,
    guard: Option<InstallGuard>,
    started: Option<Instant>,
    pub wall_s: f64,
}

impl Tracer {
    pub fn off() -> Self {
        Self {
            sink: None,
            guard: None,
            started: None,
            wall_s: 0.0,
        }
    }

    pub fn traced() -> std::io::Result<Self> {
        let dir = WorkDir::new("trace")?;
        let jsonl = Arc::new(JsonlRecorder::create(
            dir.path().join("pass.telemetry"),
            Clock::system(),
        )?);
        Ok(Self {
            sink: Some((dir, jsonl, Arc::new(MetricsRecorder::new()))),
            guard: None,
            started: None,
            wall_s: 0.0,
        })
    }

    pub fn begin(&mut self) {
        if let Some((_, jsonl, metrics)) = &self.sink {
            let fanout: Vec<Arc<dyn Recorder>> = vec![metrics.clone(), jsonl.clone()];
            self.guard = Some(telemetry::install(Arc::new(Fanout(fanout))));
            telemetry::event("perfbench.begin", &[]);
        }
        self.started = Some(Instant::now());
    }

    pub fn end(&mut self) {
        if let Some(started) = self.started.take() {
            self.wall_s += started.elapsed().as_secs_f64();
        }
        if let Some((_, jsonl, metrics)) = &self.sink {
            if self.guard.is_some() {
                telemetry::event("perfbench.end", &[]);
                jsonl.write_snapshot(&metrics.snapshot());
            }
        }
        self.guard = None;
    }

    /// The recorded log and metrics of a traced pass.
    pub fn finish(mut self) -> Result<(TelemetryLog, MetricsSnapshot), String> {
        self.end();
        let (dir, _, metrics) = self.sink.take().ok_or("the pass was not traced")?;
        let log = TelemetryLog::load(dir.path().join("pass.telemetry"))?;
        Ok((log, metrics.snapshot()))
    }
}

/// Wall-time attribution of the traced passes: each instant between a
/// pass's begin and end markers is split equally among the innermost
/// spans open at that instant (on any thread); instants with no span
/// open go to `unattributed`. The shares therefore sum to exactly 1.
pub fn self_shares(log: &TelemetryLog) -> (BTreeMap<String, f64>, f64) {
    let markers = |name: &str| -> Vec<u64> {
        log.events
            .iter()
            .filter(|e| e.name == name)
            .map(|e| e.t_ns)
            .collect()
    };
    let tree = log.span_tree();
    let parent_of: Vec<Option<usize>> = {
        let index: BTreeMap<u64, usize> = tree
            .spans
            .iter()
            .enumerate()
            .map(|(i, s)| (s.id, i))
            .collect();
        tree.spans
            .iter()
            .map(|s| index.get(&s.parent).copied())
            .collect()
    };
    let mut shares: BTreeMap<String, f64> = BTreeMap::new();
    let (mut unattributed, mut wall) = (0.0, 0.0);
    for (lo, hi) in markers("perfbench.begin")
        .into_iter()
        .zip(markers("perfbench.end"))
    {
        // (time, +1 begin / -1 end, span index); ends sort before
        // begins at equal times.
        let mut edges: Vec<(u64, i8, usize)> = Vec::new();
        for (i, span) in tree.spans.iter().enumerate() {
            let end = span.end_ns.unwrap_or(hi);
            if span.begin_ns < hi && end > lo {
                edges.push((span.begin_ns.max(lo), 1, i));
                edges.push((end.min(hi), -1, i));
            }
        }
        edges.sort_by_key(|&(t, kind, i)| (t, kind, i));
        let mut open_children = vec![0usize; tree.spans.len()];
        let mut open = vec![false; tree.spans.len()];
        let mut leaves: Vec<usize> = Vec::new();
        let mut now = lo;
        for (t, kind, i) in edges {
            if t > now {
                let dt = (t - now) as f64;
                if leaves.is_empty() {
                    unattributed += dt;
                } else {
                    let each = dt / leaves.len() as f64;
                    for &leaf in &leaves {
                        *shares.entry(tree.spans[leaf].name.clone()).or_default() += each;
                    }
                }
                now = t;
            }
            let parent = parent_of[i].filter(|&p| open[p]);
            if kind > 0 {
                open[i] = true;
                if let Some(p) = parent {
                    open_children[p] += 1;
                    leaves.retain(|&l| l != p);
                }
                leaves.push(i);
            } else if open[i] {
                open[i] = false;
                leaves.retain(|&l| l != i);
                if let Some(p) = parent {
                    open_children[p] -= 1;
                    if open_children[p] == 0 {
                        leaves.push(p);
                    }
                }
            }
        }
        unattributed += hi.saturating_sub(now) as f64;
        wall += hi.saturating_sub(lo) as f64;
    }
    let wall = wall.max(1.0);
    for value in shares.values_mut() {
        *value /= wall;
    }
    (shares, unattributed / wall)
}

/// Adds the span self-time table, the counters, and the pool idle
/// share of a traced pass to `report`.
pub fn report_trace(report: &mut Report, log: &TelemetryLog, metrics: &MetricsSnapshot) {
    let (shares, unattributed) = self_shares(log);
    let mut total = unattributed;
    let mut other = 0.0;
    for (name, share) in &shares {
        if !SPANS.contains(&name.as_str()) {
            other += share;
        }
    }
    for name in SPANS {
        let share = shares.get(name).copied().unwrap_or(0.0);
        total += share;
        report.metric(&format!("span.{name}.self_share"), share, "ratio");
    }
    total += other;
    report.metric("span.other.self_share", other, "ratio");
    report.metric("span.unattributed.self_share", unattributed, "ratio");
    report.note(format!(
        "span self-time shares + unattributed sum to {:.3}% of the traced wall",
        100.0 * total
    ));
    for name in COUNTERS {
        report.metric(name, metrics.counter(name) as f64, "count");
    }
    let hist_sum = |name: &str| metrics.histograms.get(name).map_or(0.0, |h| h.sum);
    let idle = hist_sum("pool.worker_idle_s");
    let busy = hist_sum("pool.worker_busy_s");
    report.metric(
        "numerics.pool.idle_share",
        if idle + busy > 0.0 {
            idle / (idle + busy)
        } else {
            0.0
        },
        "ratio",
    );
}

/// Sweep overhead per job: the worker time sweeps held (sweep wall ×
/// workers) minus the time spent in `compute` spans under them, per
/// job. With every job computed this is the sweep wall × workers ÷
/// jobs minus the mean `compute` span; cache-served jobs add their
/// (small) cost without a compute span.
pub fn job_overhead_us(log: &TelemetryLog) -> f64 {
    let tree = log.span_tree();
    let horizon = log.horizon_ns();
    let (mut worker_ns, mut compute_ns, mut jobs) = (0.0, 0.0, 0.0);
    let mut starts = log.events.iter().filter(|e| e.name == "sweep.start");
    for span in tree.spans.iter().filter(|s| s.name == "sweep") {
        let Some(start) = starts.next() else { break };
        worker_ns += span.duration_ns(horizon) as f64 * start.u64("workers").unwrap_or(1) as f64;
        jobs += start.u64("jobs").unwrap_or(0) as f64;
        let mut stack = span.children.clone();
        while let Some(i) = stack.pop() {
            let child = &tree.spans[i];
            if child.name == "compute" {
                compute_ns += child.duration_ns(horizon) as f64;
            } else {
                stack.extend(&child.children);
            }
        }
    }
    if jobs == 0.0 {
        return 0.0;
    }
    (worker_ns - compute_ns) / jobs / 1e3
}

#[cfg(test)]
mod tests {
    use super::*;

    fn log(lines: &[(&str, u64, &str)]) -> TelemetryLog {
        let text: String = lines
            .iter()
            .map(|(name, t, fields)| {
                format!("{{\"kind\":\"event\",\"t_ns\":{t},\"lane\":1,\"name\":\"{name}\",\"fields\":{fields}}}\n")
            })
            .collect();
        TelemetryLog::parse(&text).expect("valid log")
    }

    #[test]
    fn shares_split_concurrent_leaves_and_sum_to_one() {
        let log = log(&[
            ("perfbench.begin", 0, "{}"),
            ("span.begin", 10, r#"{"span":"sweep","id":1,"parent":0}"#),
            ("span.begin", 20, r#"{"span":"job","id":2,"parent":1}"#),
            ("span.begin", 20, r#"{"span":"job","id":3,"parent":1}"#),
            ("span.begin", 30, r#"{"span":"compute","id":4,"parent":2}"#),
            ("span.end", 50, r#"{"id":4}"#),
            ("span.end", 60, r#"{"id":2}"#),
            ("span.end", 60, r#"{"id":3}"#),
            ("span.end", 90, r#"{"id":1}"#),
            ("perfbench.end", 100, "{}"),
            // A second pass: one compute span over half of it.
            ("perfbench.begin", 200, "{}"),
            ("span.begin", 250, r#"{"span":"compute","id":5,"parent":0}"#),
            ("span.end", 300, r#"{"id":5}"#),
            ("perfbench.end", 300, "{}"),
        ]);
        let (shares, unattributed) = self_shares(&log);
        // Pass one (100 ns): 0-10 and 90-100 idle; sweep alone 10-20
        // and 60-90; two jobs 20-30; compute + job 30-50; two jobs
        // 50-60. Pass two (100 ns): idle 200-250, compute 250-300.
        assert!((unattributed - 70.0 / 200.0).abs() < 1e-12);
        assert!((shares["sweep"] - 40.0 / 200.0).abs() < 1e-12);
        assert!((shares["job"] - 30.0 / 200.0).abs() < 1e-12);
        assert!((shares["compute"] - 60.0 / 200.0).abs() < 1e-12);
        let total: f64 = shares.values().sum::<f64>() + unattributed;
        assert!((total - 1.0).abs() < 1e-12);
    }
}
