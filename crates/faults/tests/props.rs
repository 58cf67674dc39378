//! Property tests for the two write campaigns, which share one write
//! evaluator and differ only in how they produce write sites.
//!
//! * Sparse vs dense: on random small arrays, every dense cell's
//!   deterministic fields equal those of its window class bit for bit,
//!   and the two Monte-Carlo estimates (on different seeds) agree
//!   within their Wilson intervals.
//! * Partition invariance: class results are bit-identical however the
//!   grid is cut into row shards.

use mramsim_array::{DataPattern, Defect, PatternGrid};
use mramsim_dynamics::WerEstimate;
use mramsim_faults::{
    array_wer_campaign, shard_wer_campaign, ArrayWerConfig, CellArray, ShardPlan, SparseWerConfig,
    WerTotals,
};
use mramsim_mtj::{presets, MtjDevice, MtjState};
use mramsim_numerics::pool::WorkerPool;
use mramsim_units::{Nanometer, Nanosecond, Oersted, Volt};
use proptest::prelude::*;

/// Cases of the sparse-vs-dense property.
const AGREEMENT_CASES: u32 = 6;

/// Largest array side the sparse-vs-dense property draws.
const MAX_SIDE: usize = 6;

/// The Wilson-interval quantile for a family-wise α of 1e-3 over every
/// comparison the sparse-vs-dense property can make
/// (`AGREEMENT_CASES · MAX_SIDE²` = 216 cell pairs, two intervals
/// each): the two-sided normal quantile at α = 1e-3 / 432 is 4.724.
const Z: f64 = 4.73;

fn device() -> MtjDevice {
    presets::imec_like(Nanometer::new(35.0)).unwrap()
}

/// A write point that leaves the WER between the extremes for some
/// neighbourhoods, so the interval comparison is not vacuous.
fn write_point(trajectories: usize, seed: u64) -> ArrayWerConfig {
    ArrayWerConfig {
        voltage: Volt::new(0.8),
        pulse: Nanosecond::new(3.0),
        trajectories,
        seed,
        ..ArrayWerConfig::default()
    }
}

/// The Wilson score interval at `z`.
fn wilson(est: &WerEstimate, z: f64) -> (f64, f64) {
    let n = est.trajectories as f64;
    let center = (est.wer + z * z / (2.0 * n)) / (1.0 + z * z / n);
    let half = est.wilson_halfwidth(z);
    (center - half, center + half)
}

/// Row-major AP sites of a `rows × cols` array from the low bits of
/// `mask`.
fn ap_sites(rows: usize, cols: usize, mask: u64) -> Vec<(usize, usize)> {
    (0..rows * cols)
        .filter(|i| mask >> i & 1 == 1)
        .map(|i| (i / cols, i % cols))
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(AGREEMENT_CASES))]

    /// The sparse campaign at radius 1 as one shard stands for the
    /// dense per-cell campaign: deterministic fields bit-identical,
    /// Monte-Carlo estimates statistically equal.
    #[test]
    fn sparse_classes_agree_with_the_dense_cells(
        rows in 1usize..=MAX_SIDE,
        cols in 1usize..=MAX_SIDE,
        mask in 0u64..=u64::MAX,
        pitch in 52.5f64..105.0,
        seed in 0u64..1000,
    ) {
        let dev = device();
        let pitch = Nanometer::new(pitch);
        let aps = ap_sites(rows, cols, mask);
        let data = CellArray::from_fn(rows, cols, |r, c| {
            MtjState::from_bit(aps.contains(&(r, c)))
        })
        .unwrap();
        let defects = aps
            .iter()
            .map(|&(row, col)| Defect { row, col, state: MtjState::AntiParallel })
            .collect();
        let grid = PatternGrid::new(rows, cols, DataPattern::Zeros)
            .unwrap()
            .with_defects(defects)
            .unwrap();
        let base = write_point(48, seed);
        let pool = WorkerPool::new(2);
        let dense = array_wer_campaign(&dev, pitch, &data, &base, &pool).unwrap();
        let sparse_config = SparseWerConfig {
            base,
            max_radius: 1,
            field_tol: Oersted::new(25.0),
        };
        let plan = ShardPlan::new(rows, rows).unwrap();
        let sparse =
            shard_wer_campaign(&dev, pitch, &grid, &plan, 0, &sparse_config, &pool).unwrap();
        prop_assert_eq!(sparse.radius, 1);
        prop_assert_eq!(sparse.cells(), dense.cells());

        for cell in &dense.cells {
            let dense_write = &cell.write;
            let class = sparse
                .classes
                .iter()
                .find(|c| (c.write.stored, c.write.np) == (dense_write.stored, dense_write.np))
                .expect("every dense cell has a window class");
            let sparse_write = &class.write;
            let at = (cell.row, cell.col);
            prop_assert_eq!(sparse_write.hz_stray.value().to_bits(), dense_write.hz_stray.value().to_bits(), "hz at {:?}", at);
            prop_assert_eq!(sparse_write.direction, dense_write.direction, "direction at {:?}", at);
            prop_assert_eq!(sparse_write.drive_ua.to_bits(), dense_write.drive_ua.to_bits(), "drive at {:?}", at);
            prop_assert_eq!(sparse_write.ic_ua.to_bits(), dense_write.ic_ua.to_bits(), "Ic at {:?}", at);
            prop_assert_eq!(sparse_write.analytic.to_bits(), dense_write.analytic.to_bits(), "analytic at {:?}", at);
            let (d_lo, d_hi) = wilson(&dense_write.mc, Z);
            let (s_lo, s_hi) = wilson(&sparse_write.mc, Z);
            prop_assert!(
                d_lo <= s_hi && s_lo <= d_hi,
                "cell {:?}: dense {:?} [{}, {}] vs class {:?} [{}, {}]",
                at, dense_write.mc, d_lo, d_hi, sparse_write.mc, s_lo, s_hi
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// A class's result depends on its window content only: the same
    /// window carries the identical record whether the grid runs as one
    /// shard or in bands of any height, and every band's counts add up
    /// to the whole grid's.
    #[test]
    fn class_results_are_partition_invariant(
        rows in 4usize..=20,
        cols in 3usize..=12,
        pattern in 0usize..3,
        shard_rows in 1usize..=20,
        defect_draws in prop::collection::vec((0usize..20, 0usize..12, 0u8..2), 0..5),
        workers in 1usize..=3,
    ) {
        let dev = device();
        let pitch = Nanometer::new(70.0);
        let pattern = [DataPattern::Zeros, DataPattern::Ones, DataPattern::Checkerboard][pattern];
        let mut defects: Vec<Defect> = Vec::new();
        for (row, col, ap) in defect_draws {
            let (row, col) = (row % rows, col % cols);
            if !defects.iter().any(|d| (d.row, d.col) == (row, col)) {
                defects.push(Defect { row, col, state: MtjState::from_bit(ap == 1) });
            }
        }
        let grid = PatternGrid::new(rows, cols, pattern)
            .unwrap()
            .with_defects(defects)
            .unwrap();
        let config = SparseWerConfig {
            base: ArrayWerConfig {
                pulse: Nanosecond::new(2.0),
                trajectories: 8,
                ..ArrayWerConfig::default()
            },
            max_radius: 2,
            field_tol: Oersted::new(60.0),
        };
        let pool = WorkerPool::new(workers);
        let whole_plan = ShardPlan::new(rows, rows).unwrap();
        let whole = shard_wer_campaign(&dev, pitch, &grid, &whole_plan, 0, &config, &pool).unwrap();
        let plan = ShardPlan::new(rows, shard_rows.min(rows)).unwrap();
        let mut counts = vec![0usize; whole.classes.len()];
        for shard in 0..plan.n_shards() {
            let part = shard_wer_campaign(&dev, pitch, &grid, &plan, shard, &config, &pool).unwrap();
            for class in &part.classes {
                let i = whole
                    .classes
                    .iter()
                    .position(|c| c.window_key == class.window_key)
                    .expect("every shard window exists in the whole-grid extraction");
                prop_assert_eq!(&whole.classes[i].write, &class.write, "shard {} at {:?}", shard, class.representative);
                counts[i] += class.count;
            }
        }
        let whole_counts: Vec<usize> = whole.classes.iter().map(|c| c.count).collect();
        prop_assert_eq!(counts, whole_counts);
    }
}
