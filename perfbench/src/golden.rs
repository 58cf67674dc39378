//! The ten paper figures at the golden-figure suite's reduced parameter
//! points, and the comparison against the committed golden CSVs at
//! that suite's tolerances (every column uses its default: the suite
//! sets no per-column overrides).

use mramsim_engine::ParamSet;
use std::path::PathBuf;

/// `(relative, absolute)`: printed cells compare exactly up to
/// last-digit jitter.
const TOLERANCE: (f64, f64) = (1e-6, 1e-9);

/// The figure ids and overrides of the golden suite, in its order.
pub fn cases() -> Vec<(&'static str, ParamSet)> {
    vec![
        ("fig2a", ParamSet::new()),
        (
            "fig2b",
            ParamSet::new()
                .with("devices_per_size", 2.0)
                .with("sim_grid", vec![20.0, 55.0, 175.0]),
        ),
        ("fig3c", ParamSet::new().with("grid", 7.0)),
        (
            "fig3d",
            ParamSet::new()
                .with("ecds", vec![35.0, 90.0])
                .with("samples", 9.0),
        ),
        ("fig4a", ParamSet::new()),
        (
            "fig4b",
            ParamSet::new()
                .with("ecds", vec![35.0, 55.0])
                .with("points", 6.0),
        ),
        ("fig4c", ParamSet::new().with("points", 7.0)),
        (
            "fig5",
            ParamSet::new()
                .with("pitch_factors", vec![2.0, 1.5])
                .with("points", 6.0),
        ),
        (
            "fig6a",
            ParamSet::new().with("temps_c", vec![0.0, 50.0, 100.0, 150.0]),
        ),
        (
            "fig6b",
            ParamSet::new()
                .with("pitch_factors", vec![3.0, 1.5])
                .with("temps_c", vec![25.0, 85.0, 145.0]),
        ),
    ]
}

/// The committed golden CSV of figure `id`.
pub fn load(id: &str) -> std::io::Result<String> {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("../crates/engine/tests/golden")
        .join(format!("{id}.csv"));
    std::fs::read_to_string(path)
}

/// Compares two CSV bodies line by line: numeric cells within the
/// tolerance, everything else (headers, text cells, shape) exactly.
pub fn compare(golden: &str, actual: &str) -> Result<(), String> {
    let g_lines: Vec<&str> = golden.lines().collect();
    let a_lines: Vec<&str> = actual.lines().collect();
    if g_lines.len() != a_lines.len() {
        return Err(format!(
            "line count {} vs golden {}",
            a_lines.len(),
            g_lines.len()
        ));
    }
    let mut at_header = true;
    for (n, (g, a)) in g_lines.iter().zip(&a_lines).enumerate() {
        if g.is_empty() || a.is_empty() || at_header {
            if g != a {
                return Err(format!("line {}: `{a}` vs golden `{g}`", n + 1));
            }
            at_header = g.is_empty();
            continue;
        }
        let g_cells: Vec<&str> = g.split(',').collect();
        let a_cells: Vec<&str> = a.split(',').collect();
        if g_cells.len() != a_cells.len() {
            return Err(format!("line {}: `{a}` vs golden `{g}`", n + 1));
        }
        for (gc, ac) in g_cells.iter().zip(&a_cells) {
            let same = match (gc.parse::<f64>(), ac.parse::<f64>()) {
                (Ok(gv), Ok(av)) => {
                    let (rtol, atol) = TOLERANCE;
                    (gv - av).abs() <= atol + rtol * gv.abs().max(av.abs())
                }
                _ => gc == ac,
            };
            if !same {
                return Err(format!("line {}: `{ac}` vs golden `{gc}`", n + 1));
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn comparator_tolerates_jitter_and_rejects_changes() {
        let golden = "a,b\n1.00,2.00\n\nq,v\nname,3.0\n";
        assert!(compare(golden, golden).is_ok());
        assert!(compare(golden, "a,b\n1.00,2.0000000001\n\nq,v\nname,3.0\n").is_ok());
        assert!(compare(golden, "a,b\n1.00,2.01\n\nq,v\nname,3.0\n").is_err());
        assert!(compare(golden, "a,b\n1.00,2.00\n\nq,v\nother,3.0\n").is_err());
        assert!(compare(golden, "a,c\n1.00,2.00\n\nq,v\nname,3.0\n").is_err());
        assert!(compare(golden, "a,b\n1.00,2.00\n").is_err());
    }
}
