//! Calibrated device presets.
//!
//! # The "imec-like" preset
//!
//! All defaults are chosen so that the paper's *quoted* numbers hold
//! simultaneously (derivation in `DESIGN.md` §6):
//!
//! | quantity | value | anchors |
//! |---|---|---|
//! | FL `Ms·t` | 2.3 mA | 15 Oe / 5 Oe direct/diagonal steps (Fig. 4a) |
//! | RL net stray moment | +0.07 mA at −3.0 nm | Fig. 2b shape + Fig. 4a midpoint |
//! | HL net stray moment | −1.43 mA at −7.85 nm | `Hz_s_intra(35 nm) ≈ −366 Oe` (±7 % Ic) |
//! | RA | 4.5 Ω·µm² | §III blanket measurement |
//! | TMR0 / Vh | 1.5 / 1.1 V | Fig. 5 drive window 5–25 ns |
//! | `Hk` | 4646.8 Oe | §V-A median |
//! | `Δ0` | 45.5 | §V-A median |
//! | α / η / P | 0.01 / 0.2 / 0.35 | `Ic0 = 57.2 µA` identity + Fig. 5 window |
//! | `Hc` | 2.2 kOe | §IV-B; emerges from Sharrock at 0.1 ms dwell |

use crate::{
    ElectricalParams, LoopBackend, MtjDevice, MtjError, MtjStack, SharrockModel, SwitchingParams,
    ThermalModel,
};
use mramsim_units::{Nanometer, Oersted, ResistanceArea, Volt};

/// The paper's measured device coercivity (2.2 kOe), used to normalise
/// the inter-cell coupling factor Ψ.
pub const MEASURED_HC: Oersted = Oersted::new(2200.0);

/// The paper's extracted median anisotropy field for eCD = 35 nm.
pub const MEASURED_HK: Oersted = Oersted::new(4646.8);

/// The paper's extracted median intrinsic thermal stability factor.
pub const MEASURED_DELTA0: f64 = 45.5;

/// Builds the calibrated "imec-like" device at the given eCD.
///
/// # Errors
///
/// Propagates construction errors (only for a non-positive `ecd`).
///
/// # Examples
///
/// ```
/// use mramsim_mtj::presets;
/// use mramsim_units::Nanometer;
///
/// let dev = presets::imec_like(Nanometer::new(55.0))?;
/// assert_eq!(dev.ecd().value(), 55.0);
/// # Ok::<(), mramsim_mtj::MtjError>(())
/// ```
pub fn imec_like(ecd: Nanometer) -> Result<MtjDevice, MtjError> {
    let stack = MtjStack::builder().build_imec_like()?;
    imec_like_on(ecd, stack)
}

/// [`imec_like`] with explicit field-model knobs: the Biot–Savart
/// `segments` count and, when `exact` is set, the elliptic-integral
/// [`LoopBackend::Analytic`] backend instead of polygonal loops.
///
/// This is the accuracy/speed ablation entry point the `mramsim` CLI
/// exposes as `--segments` / `--exact`.
///
/// # Errors
///
/// Propagates construction errors (non-positive `ecd`, or a `segments`
/// count below 8 or above [`mramsim_magnetics::MAX_SEGMENTS`] when a
/// loop is eventually built).
///
/// # Examples
///
/// ```
/// use mramsim_mtj::presets;
/// use mramsim_units::Nanometer;
///
/// let coarse = presets::imec_like_with(Nanometer::new(35.0), 32, false)?;
/// let exact = presets::imec_like_with(Nanometer::new(35.0), 32, true)?;
/// let a = coarse.intra_hz_at_fl_center()?.value();
/// let b = exact.intra_hz_at_fl_center()?.value();
/// // Even 32 segments stay within a percent of the exact backend.
/// assert!((a - b).abs() < 0.01 * b.abs());
/// # Ok::<(), mramsim_mtj::MtjError>(())
/// ```
pub fn imec_like_with(ecd: Nanometer, segments: usize, exact: bool) -> Result<MtjDevice, MtjError> {
    let mut builder = MtjStack::builder();
    builder.segments(segments);
    if exact {
        builder.backend(LoopBackend::Analytic);
    }
    let stack = builder.build_imec_like()?;
    imec_like_on(ecd, stack)
}

fn imec_like_on(ecd: Nanometer, stack: MtjStack) -> Result<MtjDevice, MtjError> {
    let electrical = ElectricalParams::new(ResistanceArea::new(4.5), 1.5, Volt::new(1.1))?;
    let switching = SwitchingParams::new(
        MEASURED_HK,
        MEASURED_DELTA0,
        0.01,
        0.2,
        0.35,
        ThermalModel::default(),
    )?;
    MtjDevice::new(ecd, stack, electrical, switching)
}

/// The Sharrock field-switching model matching the imec-like preset
/// (`Hk = 4646.8 Oe`, `Δ0 = 45.5`); with a 0.1 ms per-point dwell it
/// reproduces the measured `Hc ≈ 2.2 kOe`.
///
/// # Errors
///
/// Never fails for the built-in constants; the `Result` mirrors
/// [`SharrockModel::new`].
pub fn imec_like_sharrock() -> Result<SharrockModel, MtjError> {
    SharrockModel::new(MEASURED_HK, MEASURED_DELTA0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::SwitchDirection;
    use mramsim_units::Kelvin;

    #[test]
    fn preset_reproduces_the_ic_anchor() {
        let dev = imec_like(Nanometer::new(35.0)).unwrap();
        let ic = dev.switching().critical_current(
            SwitchDirection::ApToP,
            Oersted::ZERO,
            Kelvin::new(300.0),
        );
        assert!((ic.value() - 57.2).abs() < 0.15, "Ic0 = {ic}");
    }

    #[test]
    fn preset_reproduces_the_intra_field_anchor() {
        let dev = imec_like(Nanometer::new(35.0)).unwrap();
        let hz = dev.intra_hz_at_fl_center().unwrap();
        assert!((hz.value() + 366.0).abs() < 12.0, "Hz_s_intra = {hz}");
    }

    #[test]
    fn preset_sharrock_reproduces_the_coercivity() {
        let m = imec_like_sharrock().unwrap();
        let hc = m
            .median_switching_field(mramsim_units::Second::new(1e-4))
            .unwrap();
        assert!(
            (hc.value() - MEASURED_HC.value()).abs() < 150.0,
            "Hc = {hc}"
        );
    }

    #[test]
    fn preset_scales_across_paper_sizes() {
        for ecd in [20.0, 35.0, 55.0, 90.0, 175.0] {
            let dev = imec_like(Nanometer::new(ecd)).unwrap();
            let hz = dev.intra_hz_at_fl_center().unwrap();
            assert!(hz.value() < 0.0, "eCD {ecd}: {hz}");
        }
    }
}
