//! Monte-Carlo write campaigns: the write evaluator both campaigns
//! share, and the dense per-cell campaign.
//!
//! The analytic classifier ([`crate::classify_write_faults`]) asks
//! "does Sun's switching time fit the pulse?" per neighbourhood class;
//! a campaign *simulates* the write instead. A write site is a stored
//! state, its ring-1 neighbourhood, its total stray field and its
//! ensemble seed. The evaluator gives each site one s-LLGS WER ensemble
//! ([`mramsim_dynamics::wer_campaign_seeded`]), the analytic WER at the
//! same operating point, and a budget verdict ([`WriteWer`]). The
//! campaigns differ only in their sites:
//!
//! * [`array_wer_campaign`]: one per cell of a [`CellArray`], field
//!   from [`cell_field_map`], seed [`cell_seed`]`(seed, index)`;
//! * [`crate::shard_wer_campaign`]: one per window class of a row band,
//!   field from the hierarchical kernel, seed [`crate::class_seed`].

use crate::{FaultsError, WriteFault};
use mramsim_array::{
    array_density_bits_per_um2, cell_field_map, CellArray, NeighborhoodPattern, PatternClass,
};
use mramsim_dynamics::{
    cell_seed, wer_campaign_seeded, CellDrive, EnsemblePlan, MacrospinParams, WerEstimate,
};
use mramsim_mtj::wer::write_error_rate_saturating;
use mramsim_mtj::{MtjDevice, MtjState, SwitchDirection};
use mramsim_numerics::pool::WorkerPool;
use mramsim_units::{Kelvin, Nanometer, Nanosecond, Oersted, Volt};
use std::collections::BTreeMap;

/// Most simulated trajectories (`sites × trajectories`) one campaign
/// evaluation admits (2²⁶). The ensemble work list is allocated up
/// front, so the product is bounded before it.
pub const MAX_CAMPAIGN_TRAJECTORIES: usize = 1 << 26;

/// Write conditions and Monte-Carlo budget of one campaign.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ArrayWerConfig {
    /// Write pulse amplitude.
    pub voltage: Volt,
    /// Write pulse width.
    pub pulse: Nanosecond,
    /// Operating temperature.
    pub temperature: Kelvin,
    /// Monte-Carlo replicas per cell.
    pub trajectories: usize,
    /// Campaign base seed (cell `c` runs on
    /// [`mramsim_dynamics::cell_seed`]`(seed, c)`).
    pub seed: u64,
    /// Integrator time step \[s\].
    pub dt: f64,
    /// Whether the thermal bath acts during the pulse.
    pub thermal: bool,
    /// A cell whose Monte-Carlo WER exceeds this budget is a fault.
    pub wer_budget: f64,
}

impl Default for ArrayWerConfig {
    fn default() -> Self {
        Self {
            voltage: Volt::new(0.9),
            pulse: Nanosecond::new(10.0),
            temperature: Kelvin::new(300.0),
            trajectories: 256,
            seed: 7,
            dt: 2e-12,
            thermal: true,
            wer_budget: 0.01,
        }
    }
}

/// The Monte-Carlo write result of one site: one cell of a dense
/// campaign, or one window class standing for many cells of a sparse
/// one.
#[derive(Debug, Clone, PartialEq)]
pub struct WriteWer {
    /// The stored state (the write targets its complement — the
    /// hardest realistic operation per cell).
    pub stored: MtjState,
    /// The simulated transition.
    pub direction: SwitchDirection,
    /// The ring-1 neighbourhood pattern under the campaign data.
    pub np: NeighborhoodPattern,
    /// Total stray field at the FL (intra + inter).
    pub hz_stray: Oersted,
    /// Drive current through the cell \[µA\].
    pub drive_ua: f64,
    /// The field-shifted critical current \[µA\].
    pub ic_ua: f64,
    /// The Monte-Carlo estimate.
    pub mc: WerEstimate,
    /// The analytic (Butler, saturating below threshold) WER at the
    /// identical operating point.
    pub analytic: f64,
    /// Whether the Monte-Carlo WER exceeds the configured budget.
    pub faulty: bool,
}

/// The Monte-Carlo write result of one cell of a dense campaign.
#[derive(Debug, Clone, PartialEq)]
pub struct CellWer {
    /// Cell row.
    pub row: usize,
    /// Cell column.
    pub col: usize,
    /// The cell's write result.
    pub write: WriteWer,
}

/// Count-weighted aggregates over a campaign report's rows, shared by
/// the dense report (every cell a row of count 1) and the sparse one.
pub trait WerTotals {
    /// Every evaluated write with the number of cells it stands for.
    fn weighted(&self) -> impl Iterator<Item = (&WriteWer, usize)>;

    /// Cells covered.
    fn cells(&self) -> usize {
        self.weighted().map(|(_, n)| n).sum()
    }

    /// Cells over the WER budget.
    fn faulty_cells(&self) -> usize {
        self.weighted()
            .filter(|(w, _)| w.faulty)
            .map(|(_, n)| n)
            .sum()
    }

    /// The worst Monte-Carlo WER of any row.
    fn worst_wer(&self) -> f64 {
        self.weighted().map(|(w, _)| w.mc.wer).fold(0.0, f64::max)
    }

    /// The worst analytic WER of any row.
    fn worst_analytic(&self) -> f64 {
        self.weighted().map(|(w, _)| w.analytic).fold(0.0, f64::max)
    }

    /// The count-weighted mean per-cell Monte-Carlo WER.
    fn mean_wer(&self) -> f64 {
        let sum: f64 = self.weighted().map(|(w, n)| w.mc.wer * n as f64).sum();
        sum / self.cells().max(1) as f64
    }
}

/// Per-class aggregation of a campaign: the Monte-Carlo counterpart of
/// the analytic classifier's `(direction, class)` verdicts.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ClassWer {
    /// The write transition.
    pub direction: SwitchDirection,
    /// The neighbourhood class.
    pub class: PatternClass,
    /// Cells of this (direction, class) in the campaign.
    pub cells: usize,
    /// The worst Monte-Carlo WER observed in the class.
    pub worst_wer: f64,
    /// Whether any cell of the class broke the budget.
    pub faulty: bool,
}

impl ClassWer {
    /// Renders the class as the analytic classifier's fault record
    /// (`required_ns = None`: the MC path measures error rate, not a
    /// required pulse).
    #[must_use]
    pub fn as_write_fault(&self) -> WriteFault {
        WriteFault {
            direction: self.direction,
            class: self.class,
            required_ns: None,
        }
    }
}

/// The outcome of one array write campaign.
#[derive(Debug, Clone, PartialEq)]
pub struct ArrayWerReport {
    /// Array rows.
    pub rows: usize,
    /// Array columns.
    pub cols: usize,
    /// Array pitch.
    pub pitch: Nanometer,
    /// The density this pitch realises \[bits/µm²\].
    pub density_bits_per_um2: f64,
    /// The WER budget cells were judged against.
    pub wer_budget: f64,
    /// Per-cell results, row-major.
    pub cells: Vec<CellWer>,
    /// Per-(direction, class) aggregation, direction-major.
    pub classes: Vec<ClassWer>,
}

impl WerTotals for ArrayWerReport {
    fn weighted(&self) -> impl Iterator<Item = (&WriteWer, usize)> {
        self.cells.iter().map(|c| (&c.write, 1))
    }
}

impl ArrayWerReport {
    /// The classes that broke the budget, as analytic-style fault
    /// records (feeds the same reporting as
    /// [`crate::classify_write_faults`]).
    #[must_use]
    pub fn faults(&self) -> Vec<WriteFault> {
        self.classes
            .iter()
            .filter(|c| c.faulty)
            .map(ClassWer::as_write_fault)
            .collect()
    }

    /// An ASCII fault map: `.` within budget, `#` over it, row-major.
    #[must_use]
    pub fn fault_map(&self) -> String {
        let mut out = String::with_capacity((self.cols + 1) * self.rows);
        for row in self.cells.chunks(self.cols) {
            for cell in row {
                out.push(if cell.write.faulty { '#' } else { '.' });
            }
            out.push('\n');
        }
        out
    }
}

/// The transition a campaign write performs on a cell storing `stored`:
/// always to the complement — the single place the stored-state →
/// direction mapping lives.
fn write_direction(stored: MtjState) -> SwitchDirection {
    match stored {
        MtjState::AntiParallel => SwitchDirection::ApToP,
        MtjState::Parallel => SwitchDirection::PToAp,
    }
}

/// One write a campaign evaluates: the stored state (the write
/// targets its complement), its ring-1 neighbourhood, the total stray
/// field at its FL, and its ensemble seed.
#[derive(Debug, Clone, Copy)]
pub(crate) struct WriteSite {
    pub(crate) stored: MtjState,
    pub(crate) np: NeighborhoodPattern,
    pub(crate) hz_stray: Oersted,
    pub(crate) seed: u64,
}

/// Checks a campaign of `sites` writes under `config` — write
/// conditions, budget, ensemble plan, step count, and total trajectory
/// count — and returns its ensemble plan. Campaigns call it before any
/// kernel build or allocation.
pub(crate) fn validate_campaign(
    config: &ArrayWerConfig,
    sites: usize,
) -> Result<EnsemblePlan, FaultsError> {
    if !(config.pulse.value() > 0.0) || !config.pulse.value().is_finite() {
        return Err(FaultsError::InvalidParameter {
            name: "pulse",
            message: format!("must be positive and finite, got {:?}", config.pulse),
        });
    }
    if !(config.voltage.value() > 0.0) || !config.voltage.value().is_finite() {
        return Err(FaultsError::InvalidParameter {
            name: "voltage",
            message: format!("must be positive and finite, got {:?}", config.voltage),
        });
    }
    if !(config.wer_budget > 0.0 && config.wer_budget <= 1.0) {
        return Err(FaultsError::InvalidParameter {
            name: "wer_budget",
            message: format!("must be in (0, 1], got {}", config.wer_budget),
        });
    }
    let plan = EnsemblePlan::new(config.trajectories, config.seed, config.dt)?
        .with_thermal(config.thermal);
    plan.checked_steps(config.pulse.to_second().value())?;
    if sites
        .checked_mul(config.trajectories)
        .is_none_or(|total| total > MAX_CAMPAIGN_TRAJECTORIES)
    {
        return Err(FaultsError::InvalidParameter {
            name: "trajectories",
            message: format!(
                "{sites} sites x {} trajectories exceed the limit \
                 MAX_CAMPAIGN_TRAJECTORIES = {MAX_CAMPAIGN_TRAJECTORIES} (2^26)",
                config.trajectories
            ),
        });
    }
    Ok(plan)
}

/// The write evaluator both campaigns share. Per site, in order: one
/// s-LLGS ensemble on the site's own seed from the calibrated operating
/// point of its transition, shifted by its stray field; the analytic
/// WER at the same point; and the budget verdict. Each write is judged
/// against the static background pattern, like the analytic classifier.
pub(crate) fn evaluate_writes(
    device: &MtjDevice,
    config: &ArrayWerConfig,
    sites: &[WriteSite],
    pool: &WorkerPool,
) -> Result<Vec<WriteWer>, FaultsError> {
    let plan = validate_campaign(config, sites.len())?;
    let point = |direction: SwitchDirection| -> Result<CellDrive, FaultsError> {
        Ok(CellDrive {
            params: MacrospinParams::from_device(device, direction, config.temperature)?,
            current: device
                .electrical()
                .current(direction.initial_state(), config.voltage, device.area())
                .value(),
        })
    };
    let (ap2p, p2ap) = (
        point(SwitchDirection::ApToP)?,
        point(SwitchDirection::PToAp)?,
    );
    let drives: Vec<CellDrive> = sites
        .iter()
        .map(|site| {
            let base = match write_direction(site.stored) {
                SwitchDirection::ApToP => &ap2p,
                SwitchDirection::PToAp => &p2ap,
            };
            CellDrive {
                params: base.params.clone().with_applied_hz(site.hz_stray),
                current: base.current,
            }
        })
        .collect();
    let seeds: Vec<u64> = sites.iter().map(|site| site.seed).collect();
    let pulse = config.pulse.to_second().value();
    let estimates = wer_campaign_seeded(&drives, &seeds, pulse, &plan, pool);
    sites
        .iter()
        .zip(&drives)
        .zip(estimates)
        .map(|((site, drive), mc)| {
            let direction = write_direction(site.stored);
            Ok(WriteWer {
                stored: site.stored,
                direction,
                np: site.np,
                hz_stray: site.hz_stray,
                drive_ua: 1e6 * drive.current,
                ic_ua: 1e6 * drive.params.critical_current(),
                mc,
                analytic: write_error_rate_saturating(
                    device,
                    direction,
                    config.voltage,
                    site.hz_stray,
                    config.temperature,
                    config.pulse,
                )?,
                faulty: mc.wer > config.wer_budget,
            })
        })
        .collect()
}

/// Runs one Monte-Carlo write campaign: every cell of `data` is written
/// to the complement of its stored state under the stray field of its
/// actual neighbourhood, one s-LLGS WER ensemble per cell on
/// [`cell_seed`]`(config.seed, index)`.
///
/// Each write is evaluated against the static background pattern (like
/// the analytic classifier) — writes do not mutate `data`.
///
/// # Errors
///
/// * [`FaultsError::InvalidParameter`] for a non-positive pulse or
///   voltage, a WER budget outside `(0, 1]`, more than
///   [`MAX_CAMPAIGN_TRAJECTORIES`] cells × trajectories, or a pulse of
///   more than [`mramsim_dynamics::MAX_STEPS`] steps.
/// * Propagated device / array / dynamics failures (a sub-critical
///   drive is a *finding* — WER saturates at 1 — not an error).
///
/// # Examples
///
/// ```
/// use mramsim_faults::{array_wer_campaign, ArrayWerConfig, CellArray, WerTotals};
/// use mramsim_mtj::presets;
/// use mramsim_numerics::pool::WorkerPool;
/// use mramsim_units::{Nanometer, Nanosecond, Volt};
///
/// let device = presets::imec_like(Nanometer::new(35.0))?;
/// let data = CellArray::checkerboard(4, 4)?;
/// let config = ArrayWerConfig {
///     voltage: Volt::new(1.0),
///     pulse: Nanosecond::new(18.0),
///     trajectories: 24,
///     ..ArrayWerConfig::default()
/// };
/// let report = array_wer_campaign(
///     &device, Nanometer::new(70.0), &data, &config, &WorkerPool::new(2))?;
/// assert_eq!(report.cells.len(), 16);
/// // A healthy corner: the generous pulse writes every cell.
/// assert_eq!(report.faulty_cells(), 0);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
pub fn array_wer_campaign(
    device: &MtjDevice,
    pitch: Nanometer,
    data: &CellArray,
    config: &ArrayWerConfig,
    pool: &WorkerPool,
) -> Result<ArrayWerReport, FaultsError> {
    validate_campaign(config, data.len())?;

    // The kernel-to-cell adapter: one stray field per cell, all served
    // from the shared kernel cache.
    let fields = cell_field_map(device, pitch, data)?;
    let sites: Vec<WriteSite> = fields
        .iter()
        .zip(0u64..)
        .map(|(field, index)| WriteSite {
            stored: field.state,
            np: field.np,
            hz_stray: field.hz_oe(),
            seed: cell_seed(config.seed, index),
        })
        .collect();
    let cells: Vec<CellWer> = fields
        .iter()
        .zip(evaluate_writes(device, config, &sites, pool)?)
        .map(|(field, write)| CellWer {
            row: field.row,
            col: field.col,
            write,
        })
        .collect();

    let mut by_class: BTreeMap<(u8, PatternClass), ClassWer> = BTreeMap::new();
    for CellWer { write, .. } in &cells {
        let dir_key = u8::from(write.direction == SwitchDirection::PToAp);
        let entry = by_class
            .entry((dir_key, write.np.class()))
            .or_insert(ClassWer {
                direction: write.direction,
                class: write.np.class(),
                cells: 0,
                worst_wer: 0.0,
                faulty: false,
            });
        entry.cells += 1;
        entry.worst_wer = entry.worst_wer.max(write.mc.wer);
        entry.faulty |= write.faulty;
    }

    Ok(ArrayWerReport {
        rows: data.rows(),
        cols: data.cols(),
        pitch,
        density_bits_per_um2: array_density_bits_per_um2(pitch),
        wer_budget: config.wer_budget,
        cells,
        classes: by_class.into_values().collect(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use mramsim_mtj::presets;

    fn device() -> MtjDevice {
        presets::imec_like(Nanometer::new(35.0)).unwrap()
    }

    fn config(voltage: f64, pulse: f64, trajectories: usize) -> ArrayWerConfig {
        ArrayWerConfig {
            voltage: Volt::new(voltage),
            pulse: Nanosecond::new(pulse),
            trajectories,
            ..ArrayWerConfig::default()
        }
    }

    #[test]
    fn campaign_is_worker_count_invariant() {
        let dev = device();
        let data = CellArray::checkerboard(4, 4).unwrap();
        let cfg = config(0.95, 8.0, 48);
        let one = array_wer_campaign(&dev, Nanometer::new(70.0), &data, &cfg, &WorkerPool::new(1))
            .unwrap();
        let many = array_wer_campaign(&dev, Nanometer::new(70.0), &data, &cfg, &WorkerPool::new(8))
            .unwrap();
        assert_eq!(one, many);
    }

    #[test]
    fn healthy_corner_is_fault_free_and_aggressive_corner_is_not() {
        let dev = device();
        let data = CellArray::checkerboard(4, 4).unwrap();
        let pool = WorkerPool::new(4);
        let healthy = array_wer_campaign(
            &dev,
            Nanometer::new(70.0),
            &data,
            &config(1.0, 20.0, 32),
            &pool,
        )
        .unwrap();
        assert_eq!(healthy.faulty_cells(), 0);
        assert!(healthy.fault_map().chars().all(|c| c != '#'));
        // Sub-critical drive: every transition write fails — a finding,
        // not a panic (the analytic path saturates at WER = 1 too).
        let broken = array_wer_campaign(
            &dev,
            Nanometer::new(70.0),
            &data,
            &config(0.3, 20.0, 16),
            &pool,
        )
        .unwrap();
        assert!(broken.faulty_cells() > 0);
        for cell in broken
            .cells
            .iter()
            .filter(|c| c.write.direction == SwitchDirection::ApToP)
        {
            assert_eq!(
                cell.write.analytic, 1.0,
                "sub-critical analytic WER saturates"
            );
            assert_eq!(cell.write.mc.wer, 1.0, "sub-critical MC WER saturates");
        }
    }

    #[test]
    fn denser_arrays_have_no_better_worst_case() {
        let dev = device();
        let data = CellArray::checkerboard(4, 4).unwrap();
        let pool = WorkerPool::new(4);
        let cfg = config(0.9, 8.0, 32);
        let sparse = array_wer_campaign(&dev, Nanometer::new(105.0), &data, &cfg, &pool).unwrap();
        let dense = array_wer_campaign(&dev, Nanometer::new(52.5), &data, &cfg, &pool).unwrap();
        assert!(dense.density_bits_per_um2 > sparse.density_bits_per_um2);
        // The paper's density claim, time-domain edition: tighter pitch
        // must not improve the analytic worst case.
        assert!(dense.worst_analytic() >= sparse.worst_analytic());
    }

    #[test]
    fn single_cell_and_report_bookkeeping() {
        let dev = device();
        let data = CellArray::filled(1, 1, MtjState::Parallel).unwrap();
        let report = array_wer_campaign(
            &dev,
            Nanometer::new(70.0),
            &data,
            &config(1.0, 20.0, 16),
            &WorkerPool::new(2),
        )
        .unwrap();
        assert_eq!((report.rows, report.cols, report.cells.len()), (1, 1, 1));
        assert_eq!(report.cells[0].write.direction, SwitchDirection::PToAp);
        assert_eq!(report.classes.len(), 1);
        assert_eq!(report.classes[0].cells, 1);
        assert_eq!(report.fault_map().lines().count(), 1);
        assert!(report.worst_wer() >= report.mean_wer());
    }

    #[test]
    fn invalid_configs_are_rejected() {
        let dev = device();
        let data = CellArray::checkerboard(2, 2).unwrap();
        let pool = WorkerPool::new(1);
        for bad in [
            config(0.0, 10.0, 8),
            config(1.0, 0.0, 8),
            config(1.0, f64::NAN, 8),
        ] {
            assert!(array_wer_campaign(&dev, Nanometer::new(70.0), &data, &bad, &pool).is_err());
        }
        let bad_budget = ArrayWerConfig {
            wer_budget: 0.0,
            ..config(1.0, 10.0, 8)
        };
        assert!(array_wer_campaign(&dev, Nanometer::new(70.0), &data, &bad_budget, &pool).is_err());
        // Zero trajectories surfaces the EnsemblePlan error, not a panic.
        let no_mc = config(1.0, 10.0, 0);
        assert!(array_wer_campaign(&dev, Nanometer::new(70.0), &data, &no_mc, &pool).is_err());
    }

    #[test]
    fn campaign_limits_sit_exactly_at_their_caps() {
        let cfg = config(1.0, 10.0, 1024);
        let at_cap = MAX_CAMPAIGN_TRAJECTORIES / 1024;
        assert!(validate_campaign(&cfg, at_cap).is_ok());
        let err = validate_campaign(&cfg, at_cap + 1).unwrap_err();
        assert!(
            err.to_string().contains("MAX_CAMPAIGN_TRAJECTORIES"),
            "{err}"
        );
        assert!(validate_campaign(&cfg, usize::MAX).is_err(), "overflow");
        // A 10 ns pulse at exactly MAX_STEPS steps passes; one step more
        // fails.
        let steps = mramsim_dynamics::MAX_STEPS as f64;
        let at_step_cap = ArrayWerConfig {
            dt: 10e-9 / steps,
            ..config(1.0, 10.0, 8)
        };
        assert!(validate_campaign(&at_step_cap, 1).is_ok());
        let past_step_cap = ArrayWerConfig {
            dt: 10e-9 / (steps + 1.0),
            ..config(1.0, 10.0, 8)
        };
        let err = validate_campaign(&past_step_cap, 1).unwrap_err();
        assert!(err.to_string().contains("MAX_STEPS"), "{err}");
        // 9 cells × 2²³ trajectories: each plan is valid, the campaign
        // is not, and it fails before any field or ensemble work.
        let data = CellArray::checkerboard(3, 3).unwrap();
        let too_many = config(1.0, 10.0, 1 << 23);
        let err = array_wer_campaign(
            &device(),
            Nanometer::new(70.0),
            &data,
            &too_many,
            &WorkerPool::new(1),
        )
        .unwrap_err();
        assert!(
            err.to_string().contains("MAX_CAMPAIGN_TRAJECTORIES"),
            "{err}"
        );
    }

    #[test]
    fn class_report_covers_every_cell_once() {
        let dev = device();
        let data = CellArray::checkerboard(4, 4).unwrap();
        let report = array_wer_campaign(
            &dev,
            Nanometer::new(70.0),
            &data,
            &config(0.95, 10.0, 16),
            &WorkerPool::new(2),
        )
        .unwrap();
        let total: usize = report.classes.iter().map(|c| c.cells).sum();
        assert_eq!(total, 16);
        assert_eq!(
            report.faults().len(),
            report.classes.iter().filter(|c| c.faulty).count()
        );
    }
}
