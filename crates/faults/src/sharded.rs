//! Sparse, sharded megabit write campaigns.
//!
//! The dense [`crate::array_wer_campaign`] evaluates one write site
//! *per cell* — fine at 64 cells, hopeless at a megabit. This module
//! feeds the same write evaluator ([`crate::mc`]) far fewer sites by
//! exploiting two structural facts of large patterned arrays:
//!
//! 1. **Equivalence classes.** A cell's WER is a pure function of its
//!    stored-state window (stray field) and its ensemble seed. Seeding
//!    each class from its *window content* ([`class_seed`]) makes the
//!    estimate a pure function of the environment too, so the million
//!    interior cells of a checkerboard collapse into a handful of
//!    sites — `O(radius² + defects)` work, with defect sites and edge
//!    bands explicit.
//! 2. **Row sharding.** [`ShardPlan`] slices the grid into fixed-height
//!    row bands evaluated independently; a shard's peak memory is its
//!    class list, never the grid. Shards are embarrassingly parallel
//!    and — because class results are position-independent — their
//!    reports are bit-identical however the grid is partitioned. The
//!    property tests in `tests/props.rs` check this over random shard
//!    heights and defect sets, and check that the classes agree with
//!    the dense per-cell campaign.
//!
//! The stray field comes from the ring-truncated
//! [`HierarchicalKernel`], grown to the caller's `field_tol` accuracy
//! (up to `max_radius`); the report carries the radius actually used
//! and the a-priori tail bound so truncation is never silent.

use crate::mc::{evaluate_writes, validate_campaign, WriteSite};
use crate::{ArrayWerConfig, FaultsError, WerTotals, WriteWer};
use mramsim_array::{array_density_bits_per_um2, HierarchicalKernel, PatternGrid};
use mramsim_mtj::MtjDevice;
use mramsim_numerics::hash::{fnv1a, Fnv1a};
use mramsim_numerics::pool::WorkerPool;
use mramsim_telemetry as telemetry;
use mramsim_units::constants::OERSTED_PER_AMPERE_PER_METER;
use mramsim_units::{Nanometer, Oersted};

/// How a grid's rows are cut into independently evaluated shards.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShardPlan {
    rows: usize,
    shard_rows: usize,
}

impl ShardPlan {
    /// Cuts `rows` into bands of `shard_rows` (the last may be short).
    ///
    /// # Errors
    ///
    /// [`FaultsError::InvalidParameter`] when either count is zero.
    pub fn new(rows: usize, shard_rows: usize) -> Result<Self, FaultsError> {
        if rows == 0 || shard_rows == 0 {
            return Err(FaultsError::InvalidParameter {
                name: "shard_rows",
                message: format!("rows ({rows}) and shard_rows ({shard_rows}) must be positive"),
            });
        }
        Ok(Self { rows, shard_rows })
    }

    /// Total grid rows covered.
    #[must_use]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Rows per shard.
    #[must_use]
    pub fn shard_rows(&self) -> usize {
        self.shard_rows
    }

    /// Number of shards in the plan.
    #[must_use]
    pub fn n_shards(&self) -> usize {
        self.rows.div_ceil(self.shard_rows)
    }

    /// The `[row_lo, row_hi)` band of shard `shard`.
    ///
    /// # Errors
    ///
    /// [`FaultsError::InvalidParameter`] for a shard index out of range.
    pub fn range(&self, shard: usize) -> Result<(usize, usize), FaultsError> {
        if shard >= self.n_shards() {
            return Err(FaultsError::InvalidParameter {
                name: "shard",
                message: format!("shard {shard} out of range (plan has {})", self.n_shards()),
            });
        }
        let lo = shard * self.shard_rows;
        Ok((lo, (lo + self.shard_rows).min(self.rows)))
    }
}

/// A sparse campaign's accuracy and budget knobs on top of the dense
/// [`ArrayWerConfig`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SparseWerConfig {
    /// Write conditions and Monte-Carlo budget.
    pub base: ArrayWerConfig,
    /// Hard cap on the hierarchical kernel radius (rings).
    pub max_radius: usize,
    /// Requested truncation accuracy: rings grow until the a-priori
    /// tail bound drops below this (or `max_radius` stops them).
    pub field_tol: Oersted,
}

impl Default for SparseWerConfig {
    fn default() -> Self {
        Self {
            base: ArrayWerConfig::default(),
            max_radius: 4,
            // A quarter of the ~80 Oe ring-1 swing at the paper's
            // high-density point — radius 4 at 90 nm pitch.
            field_tol: Oersted::new(25.0),
        }
    }
}

/// The deterministic ensemble seed of an equivalence class: an FNV-1a
/// mix of the base seed with the class's *window content*. Identical
/// environments get identical seeds — and therefore bit-identical
/// estimates — in every shard, order, and grid size; the domain tag
/// keeps class streams off the per-cell [`mramsim_dynamics::cell_seed`]
/// streams.
#[must_use]
pub fn class_seed(seed: u64, window: &[u8]) -> u64 {
    let mut h = Fnv1a::new();
    h.field(b"campaign-class");
    h.field(&seed.to_le_bytes());
    h.update(window);
    h.finish()
}

/// The Monte-Carlo write result of one equivalence class — the sparse
/// analogue of [`crate::CellWer`], standing for `count` cells at once.
#[derive(Debug, Clone, PartialEq)]
pub struct SparseClassWer {
    /// FNV-1a digest of the window content — the class's stable
    /// identity across shards, partitions, and grid sizes (two
    /// mirror-symmetric windows can share `np` *and* field, but never
    /// a key).
    pub window_key: u64,
    /// The first member in row-major order.
    pub representative: (usize, usize),
    /// Cells sharing this window within the shard.
    pub count: usize,
    /// The class's write result (shared by all `count` cells; the
    /// field is summed to the kernel radius).
    pub write: WriteWer,
}

/// The outcome of one shard of a sparse campaign.
#[derive(Debug, Clone, PartialEq)]
pub struct ShardWerReport {
    /// The shard index within the plan.
    pub shard: usize,
    /// First row of the band (inclusive).
    pub row_lo: usize,
    /// End row of the band (exclusive).
    pub row_hi: usize,
    /// Full grid rows.
    pub rows: usize,
    /// Full grid columns.
    pub cols: usize,
    /// Array pitch.
    pub pitch: Nanometer,
    /// The density this pitch realises \[bits/µm²\].
    pub density_bits_per_um2: f64,
    /// The WER budget classes were judged against.
    pub wer_budget: f64,
    /// Kernel radius actually used (rings).
    pub radius: usize,
    /// A-priori bound on the stray field ignored beyond `radius`.
    pub tail_bound: Oersted,
    /// Whether the bound met the requested `field_tol`.
    pub tol_met: bool,
    /// Per-class results, ordered by window content (deterministic
    /// across shard partitions and worker counts).
    pub classes: Vec<SparseClassWer>,
}

impl WerTotals for ShardWerReport {
    fn weighted(&self) -> impl Iterator<Item = (&WriteWer, usize)> {
        self.classes.iter().map(|c| (&c.write, c.count))
    }
}

/// Runs one shard of a sparse write campaign: extracts the band's
/// window equivalence classes, evaluates one field + one Monte-Carlo
/// ensemble per class, and reports per-class results standing for every
/// member cell.
///
/// # Errors
///
/// * [`FaultsError::InvalidParameter`] for invalid write conditions
///   (as [`crate::array_wer_campaign`], with classes in place of
///   cells), accuracy knobs, or a shard index / plan inconsistent with
///   `grid`.
/// * Propagated device / array / dynamics failures.
///
/// # Examples
///
/// ```
/// use mramsim_array::{DataPattern, PatternGrid};
/// use mramsim_faults::{shard_wer_campaign, ShardPlan, SparseWerConfig, WerTotals};
/// use mramsim_mtj::presets;
/// use mramsim_numerics::pool::WorkerPool;
/// use mramsim_units::Nanometer;
///
/// let device = presets::imec_like(Nanometer::new(35.0))?;
/// let grid = PatternGrid::new(256, 256, DataPattern::Checkerboard)?;
/// let plan = ShardPlan::new(256, 64)?;
/// let config = SparseWerConfig {
///     base: mramsim_faults::ArrayWerConfig {
///         trajectories: 24,
///         ..Default::default()
///     },
///     ..Default::default()
/// };
/// let report = shard_wer_campaign(
///     &device, Nanometer::new(70.0), &grid, &plan, 1, &config, &WorkerPool::new(2))?;
/// // 64 rows × 256 cols, but only a handful of window classes.
/// assert_eq!(report.cells(), 64 * 256);
/// assert!(report.classes.len() < 40);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
pub fn shard_wer_campaign(
    device: &MtjDevice,
    pitch: Nanometer,
    grid: &PatternGrid,
    plan: &ShardPlan,
    shard: usize,
    config: &SparseWerConfig,
    pool: &WorkerPool,
) -> Result<ShardWerReport, FaultsError> {
    // The class count is known only after extraction; the evaluator
    // checks it then.
    validate_campaign(&config.base, 0)?;
    if plan.rows() != grid.rows() {
        return Err(FaultsError::InvalidParameter {
            name: "shard_rows",
            message: format!(
                "shard plan covers {} rows but the grid has {}",
                plan.rows(),
                grid.rows()
            ),
        });
    }
    let (row_lo, row_hi) = plan.range(shard)?;

    // The shard span covers kernel build, class extraction, and the
    // whole Monte-Carlo campaign; it nests under the dispatching job
    // span when the shard runs inside a sweep.
    let mut shard_span = None;
    if telemetry::enabled() {
        shard_span = Some(telemetry::span_tree_with(
            "campaign.shard",
            &[
                ("shard", telemetry::Value::U64(shard as u64)),
                ("row_lo", telemetry::Value::U64(row_lo as u64)),
                ("row_hi", telemetry::Value::U64(row_hi as u64)),
            ],
        ));
    }
    let _shard_span = shard_span;

    let kernel = HierarchicalKernel::shared_for_tolerance(
        device,
        pitch,
        config.field_tol,
        config.max_radius,
    )?;
    let classes = grid.shard_classes(row_lo, row_hi, kernel.radius())?;

    let sites: Vec<WriteSite> = classes
        .iter()
        .map(|class| WriteSite {
            stored: class.stored(),
            np: class.np(),
            hz_stray: Oersted::new(
                kernel.total_hz_window(&|di, dj| class.state_at(di, dj))
                    * OERSTED_PER_AMPERE_PER_METER,
            ),
            seed: class_seed(config.base.seed, &class.window),
        })
        .collect();
    let rows_out = classes
        .iter()
        .zip(evaluate_writes(device, &config.base, &sites, pool)?)
        .map(|(class, write)| SparseClassWer {
            window_key: fnv1a(&class.window),
            representative: class.representative,
            count: class.count,
            write,
        })
        .collect();

    let report = ShardWerReport {
        shard,
        row_lo,
        row_hi,
        rows: grid.rows(),
        cols: grid.cols(),
        pitch,
        density_bits_per_um2: array_density_bits_per_um2(pitch),
        wer_budget: config.base.wer_budget,
        radius: kernel.radius(),
        tail_bound: kernel.tail_bound(),
        tol_met: kernel.tol_met(config.field_tol),
        classes: rows_out,
    };
    if telemetry::enabled() {
        telemetry::counter_add("campaign.shards", 1);
        telemetry::counter_add("campaign.cells", report.cells() as u64);
        telemetry::counter_add("campaign.classes", report.classes.len() as u64);
        telemetry::gauge_set("kernel.radius", report.radius as f64);
        telemetry::gauge_set("kernel.tail_bound_oe", report.tail_bound.value());
        // Per-class estimator health, keyed by the content-derived
        // window key so the same environment is comparable across
        // shards, grids, and runs.
        for class in &report.classes {
            class.write.mc.emit_health(
                "class_wer",
                &[
                    (
                        "window_key",
                        telemetry::Value::Text(format!("{:016x}", class.window_key)),
                    ),
                    ("cells", telemetry::Value::U64(class.count as u64)),
                    ("shard", telemetry::Value::U64(shard as u64)),
                ],
            );
        }
    }
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use mramsim_array::DataPattern;
    use mramsim_mtj::{presets, MtjState, SwitchDirection};
    use mramsim_units::{Nanosecond, Volt};

    fn device() -> MtjDevice {
        presets::imec_like(Nanometer::new(35.0)).unwrap()
    }

    fn config(trajectories: usize) -> SparseWerConfig {
        SparseWerConfig {
            base: ArrayWerConfig {
                voltage: Volt::new(0.95),
                pulse: Nanosecond::new(8.0),
                trajectories,
                ..ArrayWerConfig::default()
            },
            max_radius: 2,
            field_tol: Oersted::new(60.0),
        }
    }

    #[test]
    fn shard_plan_partitions_rows() {
        let plan = ShardPlan::new(100, 32).unwrap();
        assert_eq!(plan.n_shards(), 4);
        assert_eq!(plan.range(0).unwrap(), (0, 32));
        assert_eq!(plan.range(3).unwrap(), (96, 100));
        assert!(plan.range(4).is_err());
        assert!(ShardPlan::new(0, 32).is_err());
        assert!(ShardPlan::new(100, 0).is_err());
    }

    #[test]
    fn shard_reports_cover_the_band_sparsely() {
        let dev = device();
        let grid = PatternGrid::new(128, 96, DataPattern::Checkerboard).unwrap();
        let plan = ShardPlan::new(128, 48).unwrap();
        let report = shard_wer_campaign(
            &dev,
            Nanometer::new(70.0),
            &grid,
            &plan,
            1,
            &config(24),
            &WorkerPool::new(4),
        )
        .unwrap();
        assert_eq!((report.row_lo, report.row_hi), (48, 96));
        assert_eq!(report.cells(), 48 * 96);
        // Sparse: orders of magnitude fewer ensembles than cells.
        assert!(report.classes.len() < 40, "{}", report.classes.len());
        assert!(report.radius >= 1 && report.tail_bound.value() > 0.0);
        assert!(report.worst_wer() >= report.mean_wer());
    }

    #[test]
    fn class_results_are_partition_invariant() {
        // The same window class must carry the identical estimate
        // whether the grid is cut into 2 shards or evaluated whole —
        // the resume-safety invariant.
        let dev = device();
        let grid = PatternGrid::new(64, 48, DataPattern::Checkerboard).unwrap();
        let cfg = config(24);
        let pitch = Nanometer::new(70.0);
        let whole = shard_wer_campaign(
            &dev,
            pitch,
            &grid,
            &ShardPlan::new(64, 64).unwrap(),
            0,
            &cfg,
            &WorkerPool::new(2),
        )
        .unwrap();
        let plan = ShardPlan::new(64, 32).unwrap();
        for shard in 0..2 {
            let part =
                shard_wer_campaign(&dev, pitch, &grid, &plan, shard, &cfg, &WorkerPool::new(5))
                    .unwrap();
            for class in &part.classes {
                let full = whole
                    .classes
                    .iter()
                    .find(|c| c.window_key == class.window_key)
                    .expect("every shard window exists in the whole-grid extraction");
                assert_eq!(
                    full.write.mc, class.write.mc,
                    "shard {shard} at {:?}",
                    class.representative
                );
                assert_eq!(full.write.hz_stray, class.write.hz_stray);
            }
        }
        let cells: usize = (0..2)
            .map(|s| {
                shard_wer_campaign(&dev, pitch, &grid, &plan, s, &cfg, &WorkerPool::new(1))
                    .unwrap()
                    .cells()
            })
            .sum();
        assert_eq!(cells, whole.cells());
    }

    #[test]
    fn defects_surface_as_explicit_classes() {
        let dev = device();
        let grid = PatternGrid::new(32, 32, DataPattern::Zeros)
            .unwrap()
            .with_defects(vec![mramsim_array::Defect {
                row: 16,
                col: 16,
                state: MtjState::AntiParallel,
            }])
            .unwrap();
        let plan = ShardPlan::new(32, 32).unwrap();
        let report = shard_wer_campaign(
            &dev,
            Nanometer::new(70.0),
            &grid,
            &plan,
            0,
            &config(16),
            &WorkerPool::new(2),
        )
        .unwrap();
        let stuck = report
            .classes
            .iter()
            .find(|c| c.representative == (16, 16))
            .expect("defect class present");
        assert_eq!(stuck.count, 1);
        assert_eq!(stuck.write.stored, MtjState::AntiParallel);
        assert_eq!(stuck.write.direction, SwitchDirection::ApToP);
    }

    #[test]
    fn invalid_inputs_are_rejected() {
        let dev = device();
        let grid = PatternGrid::new(16, 16, DataPattern::Zeros).unwrap();
        let pool = WorkerPool::new(1);
        let plan = ShardPlan::new(16, 8).unwrap();
        // Plan/grid mismatch.
        let wrong = ShardPlan::new(32, 8).unwrap();
        assert!(shard_wer_campaign(
            &dev,
            Nanometer::new(70.0),
            &grid,
            &wrong,
            0,
            &config(8),
            &pool
        )
        .is_err());
        // Bad accuracy knobs.
        let mut bad = config(8);
        bad.field_tol = Oersted::new(0.0);
        assert!(
            shard_wer_campaign(&dev, Nanometer::new(70.0), &grid, &plan, 0, &bad, &pool).is_err()
        );
        let mut capped = config(8);
        capped.max_radius = 0;
        assert!(
            shard_wer_campaign(&dev, Nanometer::new(70.0), &grid, &plan, 0, &capped, &pool)
                .is_err()
        );
        // Bad write conditions surface through the shared validation.
        let mut volts = config(8);
        volts.base.voltage = Volt::new(0.0);
        assert!(
            shard_wer_campaign(&dev, Nanometer::new(70.0), &grid, &plan, 0, &volts, &pool).is_err()
        );
    }

    #[test]
    fn class_seeds_depend_on_window_content_only() {
        assert_eq!(class_seed(7, &[1, 2, 3]), class_seed(7, &[1, 2, 3]));
        assert_ne!(class_seed(7, &[1, 2, 3]), class_seed(7, &[1, 2, 4]));
        assert_ne!(class_seed(7, &[1, 2, 3]), class_seed(8, &[1, 2, 3]));
        // Off the per-cell stream domain.
        assert_ne!(
            class_seed(7, &0u64.to_le_bytes()),
            mramsim_dynamics::cell_seed(7, 0)
        );
    }
}
