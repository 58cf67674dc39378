//! The mramsim benchmark: three workloads driven in-process through the
//! workspace crates' public APIs.
//!
//! ```console
//! $ python3 perfbench/run.py --workload <design-grid|write-campaign|served-mix> \
//!       --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! `--trace 0` measures the end-to-end metrics with telemetry off;
//! `--trace 1` runs a fixed pass of the workload once untraced and once
//! traced, attributes the traced wall time to the program's spans, and
//! probes each layer at the workload's operating point. Every run
//! checks its outputs; the last stdout line is the JSON result.

mod common;
mod design_grid;
mod golden;
mod layers;
mod served_mix;
mod trace;
mod write_campaign;

use common::{fmt_value, Report};
use layers::points;
use mramsim_array::kernel_cache_stats;
use mramsim_telemetry::{MetricsSnapshot, TelemetryLog};
use std::process::ExitCode;
use trace::Tracer;

const USAGE: &str = "usage: mramsim-perfbench --workload <design-grid|write-campaign|served-mix> \
                     --seed <n> --seconds <s> --trace <0|1>";

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Workload {
    DesignGrid,
    WriteCampaign,
    ServedMix,
}

#[derive(Debug)]
struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(mut args: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or(format!("`{flag}` needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(match value.as_str() {
                    "design-grid" => Workload::DesignGrid,
                    "write-campaign" => Workload::WriteCampaign,
                    "served-mix" => Workload::ServedMix,
                    _ => return Err(format!("unknown workload `{value}`")),
                });
            }
            "--seed" => seed = Some(value.parse().map_err(|_| "`--seed` takes an integer")?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|_| "`--seconds` takes a number")?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err("`--seconds` must be in (0, 600]".to_owned());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("`--trace` takes 0 or 1".to_owned()),
                });
            }
            _ => return Err(format!("unknown flag `{flag}`")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("`--workload` is required")?,
        seed: seed.ok_or("`--seed` is required")?,
        seconds: seconds.ok_or("`--seconds` is required")?,
        trace: trace.unwrap_or(false),
    })
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    match run(&args) {
        Ok(report) => {
            print_report(&args, &report);
            println!("{}", report.result_json());
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}

fn run(args: &Args) -> Result<Report, String> {
    // The design-grid checks read the committed golden figures; fail
    // before measuring when the source tree is incomplete.
    golden::load("fig2a").map_err(|e| format!("golden figures unavailable: {e}"))?;
    if args.trace {
        return traced(args.workload, args.seed, args.seconds);
    }
    match args.workload {
        Workload::DesignGrid => Ok(design_grid::measure(args.seed, args.seconds, None)),
        Workload::WriteCampaign => write_campaign::measure(args.seed, args.seconds, None),
        Workload::ServedMix => served_mix::measure(args.seed, args.seconds, None),
    }
}

fn print_report(args: &Args, report: &Report) {
    println!(
        "mramsim perfbench: workload {:?}, seed {}, {} s, trace {}",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    for note in &report.notes {
        println!("  {note}");
    }
    let checks = &report.checks;
    println!(
        "  output checks: {} attempted, {} failed, failed_share {}",
        checks.attempted,
        checks.failed,
        fmt_value(checks.failed as f64 / checks.attempted.max(1) as f64)
    );
    for problem in &checks.problems {
        println!("    FAILED: {problem}");
    }
    for m in &report.metrics {
        println!("  {:<46} {:>14} {}", m.name, fmt_value(m.value), m.unit);
    }
}

/// Process-wide kernel-cache traffic during the traced passes.
#[derive(Default)]
struct KernelTraffic {
    hits: u64,
    misses: u64,
    entries: usize,
}

impl KernelTraffic {
    fn add_since(&mut self, before: mramsim_array::KernelCacheStats) {
        let after = kernel_cache_stats();
        self.hits += after.hits - before.hits;
        self.misses += after.misses - before.misses;
        self.entries = after.entries;
    }
}

fn traced(workload: Workload, seed: u64, seconds: f64) -> Result<Report, String> {
    let mut report = Report::default();
    let mut untraced = Tracer::off();
    let mut traced = Tracer::traced().map_err(|e| e.to_string())?;
    let mut kernel = KernelTraffic::default();
    let point = match workload {
        Workload::DesignGrid => {
            let inputs = design_grid::Inputs::generate(seed);
            for i in 0..5 {
                let pass = design_grid::run_pass(&design_grid::setup(), &inputs, &mut untraced);
                report
                    .checks
                    .count(pass.jobs as u64, pass.errors as u64, "design points");
                let engine = design_grid::setup();
                let before = kernel_cache_stats();
                let mut pass = design_grid::run_pass(&engine, &inputs, &mut traced);
                kernel.add_since(before);
                if i == 0 {
                    design_grid::check_pass(&mut pass, &inputs, &mut report.checks);
                } else {
                    report
                        .checks
                        .count(pass.jobs as u64, pass.errors as u64, "design points");
                }
            }
            points::design_grid(seed)
        }
        Workload::WriteCampaign => {
            let inputs = write_campaign::Inputs::generate(seed, write_campaign::FULL);
            let plan = inputs.plan();
            let mut reference: Option<String> = None;
            for i in 0..2 {
                let untraced_pass =
                    write_campaign::run_pass(&write_campaign::setup(&plan)?, &plan, &mut untraced);
                let campaign = write_campaign::setup(&plan)?;
                let before = kernel_cache_stats();
                let pass = write_campaign::run_pass(&campaign, &plan, &mut traced);
                kernel.add_since(before);
                if i == 0 {
                    write_campaign::check_first(&pass, &inputs, &mut report.checks);
                }
                let first = reference.get_or_insert_with(|| untraced_pass.csv.clone());
                for csv in [&untraced_pass.csv, &pass.csv] {
                    report.checks.check(csv == first, || {
                        "a traced or untraced campaign's CSV differs from the first".to_owned()
                    });
                }
            }
            points::write_campaign(seed)
        }
        Workload::ServedMix => {
            const CYCLES: usize = 25;
            let inputs = served_mix::Inputs::generate(seed, served_mix::FULL);
            let served = served_mix::setup(&inputs)?;
            let budget = served_mix::Budget::Cycles(CYCLES);
            let reference = served_mix::run_mix(&served, &inputs, budget, &mut untraced);
            served.stop()?;
            let served = served_mix::setup(&inputs)?;
            let before = kernel_cache_stats();
            let mut pass = served_mix::run_mix(&served, &inputs, budget, &mut traced);
            kernel.add_since(before);
            served.stop()?;
            served_mix::check_pass(&mut pass, &inputs, &mut report.checks);
            report.checks.count(
                reference.requests as u64,
                reference.failed_requests as u64,
                "requests",
            );
            points::served_mix(seed)
        }
    };
    let repeat_share = match workload {
        Workload::DesignGrid => design_grid::Inputs::repeat_share(),
        Workload::WriteCampaign | Workload::ServedMix => 0.0,
    };
    report.metric("design.refine_repeat_share", repeat_share, "ratio");
    let walls = (untraced.wall_s, traced.wall_s);
    let (log, metrics) = traced.finish()?;
    layer_table(&mut report, &kernel, walls, &log, &metrics);
    // Each of the dozen probes repeats for about this long, so the
    // probes take roughly `seconds` in all.
    let budget = (seconds / 15.0).max(0.05);
    layers::probe_all(&point, budget, &mut report)?;
    Ok(report)
}

/// The per-layer rows that come from the traced pass itself.
fn layer_table(
    report: &mut Report,
    kernel: &KernelTraffic,
    (untraced_s, traced_s): (f64, f64),
    log: &TelemetryLog,
    metrics: &MetricsSnapshot,
) {
    trace::report_trace(report, log, metrics);
    report.metric("telemetry.overhead_ratio", traced_s / untraced_s, "ratio");
    // Cells with a WER estimate: every cell a sparse shard covers, plus
    // the dense path's per-cell estimates (the sparse path counts its
    // class estimates under the same counter).
    let cells = (metrics.counter("campaign.cells") + metrics.counter("llgs.wer_estimates"))
        .saturating_sub(metrics.counter("campaign.classes"));
    report.metric("campaign_cells_per_s", cells as f64 / untraced_s, "1/s");
    report.metric(
        "engine.sweep.job_overhead_us",
        trace::job_overhead_us(log),
        "us",
    );
    let share = |a: u64, b: u64| a as f64 / (a + b).max(1) as f64;
    report.metric(
        "array.kernel.cache_hit_share",
        share(kernel.hits, kernel.misses),
        "ratio",
    );
    report.metric(
        "array.kernel.cached_kernels",
        kernel.entries as f64,
        "count",
    );
    let memory_hits = metrics.counter("cache.memory_hits");
    let disk_hits = metrics.counter("cache.disk_hits");
    report.metric(
        "engine.cache.memory_hit_share",
        share(memory_hits, metrics.counter("cache.memory_misses")),
        "ratio",
    );
    report.metric(
        "engine.store.disk_served_share",
        share(disk_hits, memory_hits),
        "ratio",
    );
    let submitted = metrics.counter("serve.submitted");
    let rejected = metrics.counter("serve.rejected");
    report.metric(
        "engine.serve.rejected_share",
        share(rejected, submitted),
        "ratio",
    );
}

/// Benchmark self-tests: reduced-size passes of each workload.
#[cfg(test)]
mod tests {
    use super::*;
    use mramsim_telemetry::Json;
    use std::sync::{Mutex, MutexGuard, PoisonError};

    /// The workloads share process-wide state (the telemetry recorder,
    /// the kernel cache): run one at a time.
    fn serial() -> MutexGuard<'static, ()> {
        static SERIAL: Mutex<()> = Mutex::new(());
        SERIAL.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// `(name, unit)` of every metric `BENCHMARK.json` lists under `kind`.
    fn declared(kind: &str) -> Vec<(String, String)> {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        let json = Json::parse(&text).expect("BENCHMARK.json parses");
        json.get(kind)
            .and_then(Json::as_arr)
            .expect("metric list")
            .iter()
            .map(|m| {
                let field = |k: &str| m.get(k).and_then(Json::as_str).expect("name and unit");
                (field("name").to_owned(), field("unit").to_owned())
            })
            .collect()
    }

    /// Every declared metric is reported once, finite, with its unit.
    fn assert_complete(report: &Report, kind: &str) {
        for (name, unit) in declared(kind) {
            let found: Vec<_> = report.metrics.iter().filter(|m| m.name == name).collect();
            assert_eq!(found.len(), 1, "{kind} metric `{name}` reported once");
            assert!(found[0].value.is_finite(), "`{name}` is finite");
            assert_eq!(found[0].unit, unit, "`{name}` carries its unit");
        }
        assert_eq!(
            report.metrics.len(),
            declared(kind).len(),
            "no undeclared metrics"
        );
    }

    fn assert_clean(report: &Report) {
        assert!(report.checks.attempted > 0);
        assert_eq!(report.checks.failed, 0, "{:?}", report.checks.problems);
    }

    fn campaign_inputs(corrupt: bool) -> write_campaign::Inputs {
        let shape = write_campaign::Shape {
            rows: 32,
            cols: 32,
            shard_rows: 16,
            defects_per_shard: 1,
        };
        write_campaign::Inputs {
            pulse_ns: 0.2,
            corrupt,
            ..write_campaign::Inputs::generate(3, shape)
        }
    }

    fn served_inputs(corrupt: bool) -> served_mix::Inputs {
        let shape = served_mix::Shape {
            working_set: 8,
            capacity: 4,
        };
        served_mix::Inputs {
            corrupt,
            ..served_mix::Inputs::generate(3, shape)
        }
    }

    #[test]
    fn design_grid_reports_every_metric_and_catches_a_flipped_cell() {
        let _serial = serial();
        let report = design_grid::measure(3, 0.05, None);
        assert_complete(&report, "end_to_end");
        assert_clean(&report);
        let inputs = design_grid::Inputs {
            corrupt: true,
            ..design_grid::Inputs::generate(3)
        };
        let corrupted = design_grid::measure(3, 0.05, Some(inputs));
        assert!(corrupted.checks.failed >= 1);
    }

    #[test]
    fn write_campaign_reports_every_metric_and_catches_a_flipped_cell() {
        let _serial = serial();
        let report =
            write_campaign::measure(3, 0.2, Some(campaign_inputs(false))).expect("campaign runs");
        assert_complete(&report, "end_to_end");
        assert_clean(&report);
        let corrupted =
            write_campaign::measure(3, 0.2, Some(campaign_inputs(true))).expect("campaign runs");
        assert!(corrupted.checks.failed >= 1);
    }

    #[test]
    fn served_mix_reports_every_metric_and_catches_a_wrong_body() {
        let _serial = serial();
        let report = served_mix::measure(3, 0.3, Some(served_inputs(false))).expect("server runs");
        assert_complete(&report, "end_to_end");
        assert_clean(&report);
        let corrupted =
            served_mix::measure(3, 0.3, Some(served_inputs(true))).expect("server runs");
        assert!(corrupted.checks.failed >= 1);
    }

    #[test]
    fn traced_run_reports_every_layer_metric_and_a_full_wall() {
        let _serial = serial();
        let report = traced(Workload::DesignGrid, 3, 1.0).expect("traced run");
        assert_complete(&report, "per_layer");
        assert_clean(&report);
        let share: f64 = report
            .metrics
            .iter()
            .filter(|m| m.name.starts_with("span.") && m.name.ends_with(".self_share"))
            .map(|m| m.value)
            .sum();
        assert!((share - 1.0).abs() < 1e-9, "span shares sum to {share}");
    }

    #[test]
    fn arguments_are_validated() {
        let parse = |line: &str| parse_args(line.split_whitespace().map(str::to_owned));
        let args = parse("--workload served-mix --seed 4 --seconds 2 --trace 1").unwrap();
        assert_eq!(args.workload, Workload::ServedMix);
        assert!(args.trace);
        assert!(parse("--workload other --seed 4 --seconds 2").is_err());
        assert!(parse("--workload served-mix --seconds 2").is_err());
        assert!(parse("--workload served-mix --seed 1 --seconds 0").is_err());
        assert!(parse("--workload served-mix --seed 1 --seconds 2 --trace 2").is_err());
    }
}
