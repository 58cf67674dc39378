//! Golden-figure regression suite: every figure scenario re-runs with a
//! fixed seed and reduced grids, and its CSV output is compared against
//! a committed golden within per-column tolerances. The seeded
//! Monte-Carlo scenarios (`wer-mc`, `switch-traj`, `array-wer`,
//! `array-wer-shard`) are pinned the same way but compared exactly:
//! their per-replica streams are a determinism contract, so any change
//! to a printed cell is a change to the stepper.
//!
//! Regenerate after an intentional model change with
//!
//! ```console
//! $ GOLDEN_REGENERATE=1 cargo test -p mramsim-engine --test golden_figures
//! ```
//!
//! and commit the updated files under `tests/golden/`. On mismatch the
//! actual output is written to `target/golden-diff/<id>.csv` (uploaded
//! as a CI artifact) so a failure can be inspected — or promoted to the
//! new golden — without re-running the suite.

use mramsim_engine::{Engine, ParamSet};
use std::fs;
use std::path::PathBuf;

/// One figure scenario pinned to a small, fully seeded parameter point.
struct GoldenCase {
    id: &'static str,
    overrides: ParamSet,
    /// Per-column `(relative, absolute)` tolerance overrides; every
    /// other numeric column uses [`DEFAULT_TOL`].
    column_tolerances: &'static [(&'static str, (f64, f64))],
}

/// Printed CSV cells are rounded to a few decimals, so bit-identical
/// runs compare exactly; the default tolerance only forgives
/// last-printed-digit jitter from FP-level refactors.
const DEFAULT_TOL: (f64, f64) = (1e-6, 1e-9);

/// The Monte-Carlo cases forgive nothing.
const EXACT: (f64, f64) = (0.0, 0.0);

fn cases() -> Vec<GoldenCase> {
    vec![
        GoldenCase {
            id: "fig2a",
            overrides: ParamSet::new(),
            column_tolerances: &[],
        },
        GoldenCase {
            id: "fig2b",
            overrides: ParamSet::new()
                .with("devices_per_size", 2.0)
                .with("sim_grid", vec![20.0, 55.0, 175.0]),
            column_tolerances: &[],
        },
        GoldenCase {
            id: "fig3c",
            overrides: ParamSet::new().with("grid", 7.0),
            column_tolerances: &[],
        },
        GoldenCase {
            id: "fig3d",
            overrides: ParamSet::new()
                .with("ecds", vec![35.0, 90.0])
                .with("samples", 9.0),
            column_tolerances: &[],
        },
        GoldenCase {
            id: "fig4a",
            overrides: ParamSet::new(),
            column_tolerances: &[],
        },
        GoldenCase {
            id: "fig4b",
            overrides: ParamSet::new()
                .with("ecds", vec![35.0, 55.0])
                .with("points", 6.0),
            column_tolerances: &[],
        },
        GoldenCase {
            id: "fig4c",
            overrides: ParamSet::new().with("points", 7.0),
            column_tolerances: &[],
        },
        GoldenCase {
            id: "fig5",
            overrides: ParamSet::new()
                .with("pitch_factors", vec![2.0, 1.5])
                .with("points", 6.0),
            column_tolerances: &[],
        },
        GoldenCase {
            id: "fig6a",
            overrides: ParamSet::new().with("temps_c", vec![0.0, 50.0, 100.0, 150.0]),
            column_tolerances: &[],
        },
        GoldenCase {
            id: "fig6b",
            overrides: ParamSet::new()
                .with("pitch_factors", vec![3.0, 1.5])
                .with("temps_c", vec![25.0, 85.0, 145.0]),
            column_tolerances: &[],
        },
    ]
}

/// The seeded Monte-Carlo scenarios, each at a point where the s-LLGS
/// ensembles both switch and fail, sized for a debug-build test run.
fn mc_cases() -> Vec<GoldenCase> {
    vec![
        GoldenCase {
            id: "wer-mc",
            overrides: ParamSet::new(),
            column_tolerances: &[],
        },
        GoldenCase {
            id: "switch-traj",
            overrides: ParamSet::new(),
            column_tolerances: &[],
        },
        GoldenCase {
            id: "switch-traj@0.7v",
            overrides: ParamSet::new()
                .with("trajectories", 256.0)
                .with("span_ns", 60.0)
                .with("voltage_v", 0.7),
            column_tolerances: &[],
        },
        GoldenCase {
            id: "array-wer",
            overrides: ParamSet::new()
                .with("rows", 4.0)
                .with("cols", 4.0)
                .with("trajectories", 48.0)
                .with("voltage_v", 0.8)
                .with("pitch", 52.5),
            column_tolerances: &[],
        },
        GoldenCase {
            id: "array-wer-shard",
            overrides: ParamSet::new()
                .with("rows", 32.0)
                .with("cols", 32.0)
                .with("shard_rows", 16.0)
                .with("shard", 1.0)
                .with("defects", "20,5=P;27,13=AP")
                .with("max_radius", 2.0)
                .with("field_tol", 60.0)
                .with("trajectories", 24.0)
                .with("voltage_v", 0.8),
            column_tolerances: &[],
        },
    ]
}

/// The scenario a case runs: ids are `<scenario>` or
/// `<scenario>@<variant>` for a second golden of the same scenario.
fn scenario_of(id: &str) -> &str {
    id.split_once('@').map_or(id, |(scenario, _)| scenario)
}

fn golden_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/golden")
}

fn diff_dir() -> PathBuf {
    // The workspace target directory, where CI collects artifacts.
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../target/golden-diff")
}

/// Compares two CSV bodies line-by-line: numeric cells within the
/// column's tolerance, everything else exactly. Table header lines
/// (tracked as the first line and any line after a blank) name the
/// columns for the tolerance lookup.
fn compare_csv(
    golden: &str,
    actual: &str,
    tolerances: &[(&str, (f64, f64))],
    default_tol: (f64, f64),
) -> Result<(), String> {
    let g_lines: Vec<&str> = golden.lines().collect();
    let a_lines: Vec<&str> = actual.lines().collect();
    if g_lines.len() != a_lines.len() {
        return Err(format!(
            "line count changed: golden {} vs actual {}",
            g_lines.len(),
            a_lines.len()
        ));
    }
    let mut columns: Vec<String> = Vec::new();
    let mut at_header = true;
    for (n, (g, a)) in g_lines.iter().zip(&a_lines).enumerate() {
        if g.is_empty() || a.is_empty() {
            if g != a {
                return Err(format!("line {}: `{a}` vs golden `{g}`", n + 1));
            }
            at_header = true; // a blank line separates tables
            continue;
        }
        if at_header {
            if g != a {
                return Err(format!("header line {}: `{a}` vs golden `{g}`", n + 1));
            }
            columns = g.split(',').map(str::to_owned).collect();
            at_header = false;
            continue;
        }
        let g_cells: Vec<&str> = g.split(',').collect();
        let a_cells: Vec<&str> = a.split(',').collect();
        if g_cells.len() != a_cells.len() {
            return Err(format!("line {}: `{a}` vs golden `{g}`", n + 1));
        }
        for (i, (gc, ac)) in g_cells.iter().zip(&a_cells).enumerate() {
            let column = columns.get(i).map_or("", String::as_str);
            match (gc.parse::<f64>(), ac.parse::<f64>()) {
                (Ok(gv), Ok(av)) => {
                    let (rtol, atol) = tolerances
                        .iter()
                        .find(|(name, _)| *name == column)
                        .map_or(default_tol, |(_, t)| *t);
                    let limit = atol + rtol * gv.abs().max(av.abs());
                    if !((gv - av).abs() <= limit) {
                        return Err(format!(
                            "line {}, column `{column}`: {av} vs golden {gv} \
                             (|diff| = {:.3e} > {limit:.3e})",
                            n + 1,
                            (gv - av).abs()
                        ));
                    }
                }
                _ => {
                    if gc != ac {
                        return Err(format!(
                            "line {}, column `{column}`: `{ac}` vs golden `{gc}`",
                            n + 1
                        ));
                    }
                }
            }
        }
    }
    Ok(())
}

/// Runs every case and compares it with its golden (or rewrites the
/// golden under `GOLDEN_REGENERATE`); numeric cells without a column
/// override use `default_tol`.
fn check_goldens(cases: Vec<GoldenCase>, default_tol: (f64, f64)) {
    let regenerate = std::env::var_os("GOLDEN_REGENERATE").is_some();
    let engine = Engine::standard();
    let mut failures = Vec::new();
    for case in cases {
        let outcome = engine
            .run(scenario_of(case.id), &case.overrides)
            .unwrap_or_else(|e| panic!("{} failed to run: {e}", case.id));
        let actual = outcome.output.to_csv();
        let path = golden_dir().join(format!("{}.csv", case.id));
        if regenerate {
            fs::create_dir_all(golden_dir()).unwrap();
            fs::write(&path, &actual).unwrap();
            continue;
        }
        let golden = fs::read_to_string(&path)
            .unwrap_or_else(|e| panic!("missing golden {}: {e}", path.display()));
        if let Err(reason) = compare_csv(&golden, &actual, case.column_tolerances, default_tol) {
            fs::create_dir_all(diff_dir()).unwrap();
            let diff_path = diff_dir().join(format!("{}.csv", case.id));
            fs::write(&diff_path, &actual).unwrap();
            failures.push(format!(
                "{}: {reason}\n  actual output written to {}",
                case.id,
                diff_path.display()
            ));
        }
    }
    assert!(
        failures.is_empty(),
        "golden mismatches (regenerate intentional changes with \
         GOLDEN_REGENERATE=1):\n{}",
        failures.join("\n")
    );
}

#[test]
fn figure_scenarios_match_their_goldens() {
    check_goldens(cases(), DEFAULT_TOL);
}

#[test]
fn monte_carlo_scenarios_match_their_goldens_exactly() {
    check_goldens(mc_cases(), EXACT);
}

#[test]
fn golden_suite_covers_all_ten_figures() {
    let ids: Vec<&str> = cases().iter().map(|c| c.id).collect();
    assert_eq!(
        ids,
        ["fig2a", "fig2b", "fig3c", "fig3d", "fig4a", "fig4b", "fig4c", "fig5", "fig6a", "fig6b"]
    );
    // Every golden is committed.
    for id in ids {
        assert!(
            golden_dir().join(format!("{id}.csv")).exists(),
            "golden for {id} is missing — run GOLDEN_REGENERATE=1"
        );
    }
}

#[test]
fn csv_comparator_enforces_per_column_tolerances() {
    let golden = "a,b\n1.00,2.00\n\nq,v\nname,3.0\n";
    // Identical passes.
    assert!(compare_csv(golden, golden, &[], DEFAULT_TOL).is_ok());
    // Inside a loose per-column tolerance passes, outside fails.
    let close = "a,b\n1.00,2.01\n\nq,v\nname,3.0\n";
    assert!(compare_csv(golden, close, &[("b", (0.0, 0.05))], DEFAULT_TOL).is_ok());
    assert!(compare_csv(golden, close, &[], DEFAULT_TOL).is_err());
    // Exact mode rejects even last-digit jitter.
    let jitter = "a,b\n1.00,2.000000000001\n\nq,v\nname,3.0\n";
    assert!(compare_csv(golden, jitter, &[], DEFAULT_TOL).is_ok());
    assert!(compare_csv(golden, jitter, &[], EXACT).is_err());
    // Text changes and shape changes always fail.
    assert!(compare_csv(
        golden,
        "a,b\n1.00,2.00\n\nq,v\nother,3.0\n",
        &[],
        DEFAULT_TOL
    )
    .is_err());
    assert!(compare_csv(golden, "a,b\n1.00,2.00\n", &[], DEFAULT_TOL).is_err());
    // A changed header is a contract change, not a numeric drift.
    assert!(compare_csv(
        golden,
        "a,c\n1.00,2.00\n\nq,v\nname,3.0\n",
        &[],
        DEFAULT_TOL
    )
    .is_err());
}
