//! The shared stray-field kernel: per-`(device, pitch)` precomputed
//! aggressor fields, memoised in a content-addressed cache.
//!
//! Every array-level quantity — the Fig. 4a pattern table, the Ψ-vs-pitch
//! sweeps, the coupling-aware fault simulator — needs the same three
//! numbers per aggressor offset: the fixed-layer (RL + HL) `Hz` at the
//! victim FL centre and the FL `Hz` for the P and AP data states. Those
//! numbers cost a full Biot–Savart superposition each (hundreds of
//! segments per loop), but depend only on the device stack, the eCD and
//! the relative offset. [`StrayFieldKernel`] computes them once and a
//! process-wide table keyed by an FNV-1a content address (the same
//! hashing approach as the engine's result cache) serves every later
//! analyzer, simulator, and sweep point for free. The hierarchical
//! outer-ring kernels use the same memo table type.

use crate::{diagonal_neighbor_offsets, direct_neighbor_offsets, ArrayError, HierarchicalKernel};
use mramsim_magnetics::FieldSource;
use mramsim_mtj::{MtjDevice, MtjState};
use mramsim_numerics::hash::fnv1a;
use mramsim_numerics::Vec3;
use mramsim_units::Nanometer;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, LazyLock, RwLock};

/// The three per-offset field contributions of one aggressor cell, all
/// in A/m at the victim FL centre.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OffsetField {
    /// Relative aggressor offset `(x, y)` in metres.
    pub offset: (f64, f64),
    /// Fixed-layer (RL + HL) contribution — data-independent.
    pub fixed_hz: f64,
    /// FL contribution when the aggressor stores P.
    pub fl_p_hz: f64,
    /// FL contribution when the aggressor stores AP.
    pub fl_ap_hz: f64,
}

/// Hit/miss counters of the process-wide kernel cache.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct KernelCacheStats {
    /// Kernels served from the cache.
    pub hits: u64,
    /// Kernels that had to be computed.
    pub misses: u64,
    /// Kernels currently stored.
    pub entries: usize,
}

/// Precomputed stray-field data for one `(device, pitch)` pair: the
/// victim's own intra-cell field plus one [`OffsetField`] per
/// representative ring-1 offset (one direct, one diagonal — the other
/// six follow by the square-lattice symmetry).
///
/// # Examples
///
/// ```
/// use mramsim_array::StrayFieldKernel;
/// use mramsim_mtj::presets;
/// use mramsim_units::Nanometer;
///
/// let device = presets::imec_like(Nanometer::new(55.0))?;
/// let kernel = StrayFieldKernel::shared(&device, Nanometer::new(90.0))?;
/// // A second request for the same design point is a cache hit
/// // returning the same allocation.
/// let again = StrayFieldKernel::shared(&device, Nanometer::new(90.0))?;
/// assert!(std::sync::Arc::ptr_eq(&kernel, &again));
/// # Ok::<(), mramsim_array::ArrayError>(())
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct StrayFieldKernel {
    intra_hz: f64,
    direct: OffsetField,
    diagonal: OffsetField,
}

impl StrayFieldKernel {
    /// Computes the kernel directly, bypassing the cache.
    ///
    /// # Errors
    ///
    /// * [`ArrayError::InvalidParameter`] when `pitch < eCD` (cells would
    ///   overlap) or is non-finite.
    /// * [`ArrayError::Device`] if loop construction fails.
    pub fn compute(device: &MtjDevice, pitch: Nanometer) -> Result<Self, ArrayError> {
        if !pitch.is_finite() || pitch.value() < device.ecd().value() {
            return Err(ArrayError::InvalidParameter {
                name: "pitch",
                message: format!(
                    "pitch {pitch:?} must be at least the device eCD {:?}",
                    device.ecd()
                ),
            });
        }
        // Only actual builds get a span — cache hits in `shared` never
        // reach here, so traces show real kernel work, not lookups.
        let _span = mramsim_telemetry::span_tree("kernel.build");
        let (dx, dy) = direct_neighbor_offsets(pitch)[0];
        let (gx, gy) = diagonal_neighbor_offsets(pitch)[0];
        Ok(Self {
            intra_hz: device
                .stack()
                .intra_hz_at(device.ecd(), Vec3::ZERO)?
                .value(),
            direct: offset_field_at(device, dx, dy)?,
            diagonal: offset_field_at(device, gx, gy)?,
        })
    }

    /// The memoised kernel for a `(device, pitch)` pair: served from the
    /// process-wide content-addressed table when present, computed and
    /// inserted otherwise.
    ///
    /// # Errors
    ///
    /// Same contract as [`StrayFieldKernel::compute`].
    pub fn shared(device: &MtjDevice, pitch: Nanometer) -> Result<Arc<Self>, ArrayError> {
        KERNELS.get_or_try_insert(fingerprint(device, pitch), || Self::compute(device, pitch))
    }

    /// The victim's own intra-cell field `Hz_s_intra` at the FL centre
    /// (A/m).
    #[must_use]
    pub fn intra_hz(&self) -> f64 {
        self.intra_hz
    }

    /// The representative *direct* aggressor contribution.
    #[must_use]
    pub fn direct(&self) -> OffsetField {
        self.direct
    }

    /// The representative *diagonal* aggressor contribution.
    #[must_use]
    pub fn diagonal(&self) -> OffsetField {
        self.diagonal
    }

    /// `Hz_s_inter` \[A/m\] for a symmetry class: the fixed-layer
    /// baseline of all 8 aggressors plus the data-dependent FL terms.
    ///
    /// This is the one place the NP8 → field arithmetic lives;
    /// `CouplingAnalyzer` and the dynamics' kernel-pattern applied
    /// fields both delegate here, so the analytic and Monte-Carlo
    /// paths see bit-identical stray fields.
    #[must_use]
    pub fn inter_hz_class(&self, class: crate::PatternClass) -> f64 {
        let nd = f64::from(class.direct_ones);
        let ng = f64::from(class.diagonal_ones);
        4.0 * (self.direct.fixed_hz + self.diagonal.fixed_hz)
            + nd * self.direct.fl_ap_hz
            + (4.0 - nd) * self.direct.fl_p_hz
            + ng * self.diagonal.fl_ap_hz
            + (4.0 - ng) * self.diagonal.fl_p_hz
    }

    /// `Hz_s_inter` \[A/m\] for a full neighbourhood pattern.
    #[must_use]
    pub fn inter_hz(&self, np: crate::NeighborhoodPattern) -> f64 {
        self.inter_hz_class(np.class())
    }

    /// The total stray field \[A/m\] at a victim's FL centre under one
    /// neighbourhood pattern: `Hz_s_intra + Hz_s_inter(NP8)` — the
    /// Eq. 2 / Eq. 5 input.
    #[must_use]
    pub fn total_hz(&self, np: crate::NeighborhoodPattern) -> f64 {
        self.intra_hz + self.inter_hz(np)
    }
}

/// The three field contributions of one aggressor at relative offset
/// `(x, y)` metres — one full Biot–Savart superposition per layer kind.
/// Shared by the ring-1 kernel above and the hierarchical outer-ring
/// tables, so every radius uses the identical arithmetic.
pub(crate) fn offset_field_at(
    device: &MtjDevice,
    x: f64,
    y: f64,
) -> Result<OffsetField, ArrayError> {
    let victim = Vec3::ZERO;
    let ecd = device.ecd();
    let stack = device.stack();
    let fixed_hz: f64 = stack
        .fixed_kinds_at(ecd, x, y)?
        .iter()
        .map(|s| s.hz(victim))
        .sum();
    let fl_p_hz = stack.fl_kind_at(ecd, x, y, MtjState::Parallel)?.hz(victim);
    let fl_ap_hz = stack
        .fl_kind_at(ecd, x, y, MtjState::AntiParallel)?
        .hz(victim);
    Ok(OffsetField {
        offset: (x, y),
        fixed_hz,
        fl_p_hz,
        fl_ap_hz,
    })
}

/// Canonical, bit-exact fingerprint of everything the kernel depends on:
/// pitch, eCD, the field-model knobs (segments, backend) and every layer
/// of the stack.
pub(crate) fn fingerprint(device: &MtjDevice, pitch: Nanometer) -> String {
    use std::fmt::Write as _;
    let stack = device.stack();
    let mut fp = String::with_capacity(160);
    let bits = |out: &mut String, x: f64| {
        write!(out, "{:016x};", x.to_bits()).expect("string write");
    };
    fp.push_str("pitch=");
    bits(&mut fp, pitch.value());
    fp.push_str("ecd=");
    bits(&mut fp, device.ecd().value());
    write!(fp, "segments={};", stack.segments()).expect("string write");
    write!(fp, "backend={};", stack.backend().tag()).expect("string write");
    fp.push_str("fl=");
    bits(&mut fp, stack.fl_ms_t().value());
    bits(&mut fp, stack.fl_thickness().value());
    for layer in stack.fixed_layers() {
        write!(fp, "layer={};", layer.name()).expect("string write");
        bits(&mut fp, layer.signed_sheet_current());
        bits(&mut fp, layer.z_center().value());
        bits(&mut fp, layer.thickness().value());
    }
    fp
}

/// A process-wide memo table of one kind of field precomputation: an
/// FNV-1a digest of the canonical fingerprint maps to the fingerprint
/// itself and the value.
pub(crate) struct KernelMemo<T> {
    map: RwLock<HashMap<u64, (String, Arc<T>)>>,
    hits: AtomicU64,
    misses: AtomicU64,
}

impl<T> KernelMemo<T> {
    fn new() -> Self {
        Self {
            map: RwLock::new(HashMap::new()),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
        }
    }

    /// The entry for `fingerprint`: served from the table when present,
    /// computed and inserted otherwise.
    pub(crate) fn get_or_try_insert<E>(
        &self,
        fingerprint: String,
        compute: impl FnOnce() -> Result<T, E>,
    ) -> Result<Arc<T>, E> {
        let key = fnv1a(fingerprint.as_bytes());
        if let Some((found_fp, found)) = self.map.read().expect("kernel cache poisoned").get(&key) {
            // Guard against an FNV collision: the hit must carry the
            // exact fingerprint, not just the same 64-bit digest.
            if *found_fp == fingerprint {
                self.hits.fetch_add(1, Ordering::Relaxed);
                return Ok(Arc::clone(found));
            }
        }
        self.misses.fetch_add(1, Ordering::Relaxed);
        let value = Arc::new(compute()?);
        self.map
            .write()
            .expect("kernel cache poisoned")
            .insert(key, (fingerprint, Arc::clone(&value)));
        Ok(value)
    }

    fn stats(&self) -> KernelCacheStats {
        KernelCacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            entries: self.map.read().expect("kernel cache poisoned").len(),
        }
    }

    fn clear(&self) {
        self.map.write().expect("kernel cache poisoned").clear();
    }
}

/// The ring-1 kernels.
static KERNELS: LazyLock<KernelMemo<StrayFieldKernel>> = LazyLock::new(KernelMemo::new);

/// The hierarchical outer-ring kernels.
pub(crate) static HIERARCHIES: LazyLock<KernelMemo<HierarchicalKernel>> =
    LazyLock::new(KernelMemo::new);

/// Current counters of the process-wide kernel caches — the ring-1
/// table plus the hierarchical outer-ring table, reported as one pool
/// (both are `(device, pitch)`-keyed field precomputations).
#[must_use]
pub fn kernel_cache_stats() -> KernelCacheStats {
    let (ring1, outer) = (KERNELS.stats(), HIERARCHIES.stats());
    KernelCacheStats {
        hits: ring1.hits + outer.hits,
        misses: ring1.misses + outer.misses,
        entries: ring1.entries + outer.entries,
    }
}

/// Drops every memoised kernel — ring-1 and hierarchical (counters keep
/// accumulating). Used by cold-cache benchmarks and long-running
/// services that change device populations wholesale.
pub fn clear_kernel_cache() {
    KERNELS.clear();
    HIERARCHIES.clear();
}

#[cfg(test)]
mod tests {
    use super::*;
    use mramsim_mtj::presets;

    fn device(ecd: f64) -> MtjDevice {
        presets::imec_like(Nanometer::new(ecd)).unwrap()
    }

    #[test]
    fn kernel_matches_direct_stack_evaluation() {
        let dev = device(55.0);
        let pitch = Nanometer::new(90.0);
        let kernel = StrayFieldKernel::compute(&dev, pitch).unwrap();
        let (dx, dy) = direct_neighbor_offsets(pitch)[0];
        let fixed: f64 = dev
            .stack()
            .fixed_kinds_at(dev.ecd(), dx, dy)
            .unwrap()
            .iter()
            .map(|s| s.hz(Vec3::ZERO))
            .sum();
        assert_eq!(kernel.direct().fixed_hz, fixed);
        assert_eq!(
            kernel.intra_hz(),
            dev.stack()
                .intra_hz_at(dev.ecd(), Vec3::ZERO)
                .unwrap()
                .value()
        );
    }

    #[test]
    fn shared_kernel_is_memoised_per_design_point() {
        clear_kernel_cache();
        let dev = device(35.0);
        let before = kernel_cache_stats();
        let a = StrayFieldKernel::shared(&dev, Nanometer::new(75.0)).unwrap();
        let b = StrayFieldKernel::shared(&dev, Nanometer::new(75.0)).unwrap();
        assert!(Arc::ptr_eq(&a, &b));
        let after = kernel_cache_stats();
        assert!(after.hits > before.hits);
        assert!(after.misses > before.misses);
    }

    #[test]
    fn distinct_design_points_get_distinct_kernels() {
        let dev = device(35.0);
        let a = StrayFieldKernel::shared(&dev, Nanometer::new(75.0)).unwrap();
        let b = StrayFieldKernel::shared(&dev, Nanometer::new(76.0)).unwrap();
        assert!(!Arc::ptr_eq(&a, &b));
        let at = |device: &MtjDevice| fingerprint(device, Nanometer::new(75.0));
        assert_ne!(at(&dev), fingerprint(&dev, Nanometer::new(76.0)));
        // Different field-model knobs are different cache entries too.
        let coarse = presets::imec_like_with(Nanometer::new(35.0), 64, false).unwrap();
        let exact = presets::imec_like_with(Nanometer::new(35.0), 64, true).unwrap();
        let c = StrayFieldKernel::shared(&coarse, Nanometer::new(75.0)).unwrap();
        let d = StrayFieldKernel::shared(&exact, Nanometer::new(75.0)).unwrap();
        assert!(!Arc::ptr_eq(&c, &d));
        assert_ne!(at(&coarse), at(&exact));
        assert_ne!(at(&dev), at(&coarse));
    }

    #[test]
    fn overlapping_pitch_is_rejected() {
        let dev = device(55.0);
        assert!(matches!(
            StrayFieldKernel::compute(&dev, Nanometer::new(50.0)),
            Err(ArrayError::InvalidParameter { .. })
        ));
        assert!(StrayFieldKernel::shared(&dev, Nanometer::new(f64::NAN)).is_err());
    }
}
