//! Random sampling for process variation and thermal stochasticity.
//!
//! Implemented on top of `rand`'s uniform source rather than pulling in
//! `rand_distr`: the distributions are part of the scientific substrate
//! this reproduction is asked to build, and the dependency budget stays
//! minimal.
//!
//! Two standard-normal samplers coexist:
//!
//! * the Box–Muller transform ([`standard_normal`],
//!   [`standard_normal_pair`]) behind [`Normal`] and [`LogNormal`] —
//!   the process-variation and VSM draws whose seeded streams the
//!   golden figures pin;
//! * a 256-layer Marsaglia–Tsang ziggurat
//!   ([`standard_normal_ziggurat`]) for the s-LLGS thermal field, where
//!   the draw dominates the stepper: most draws cost one `u64`, a table
//!   lookup and a compare, with no `ln`, `sqrt` or `sin_cos`.

use crate::{NumericsError, Result};
use rand::Rng;
use std::sync::OnceLock;

/// A normal (Gaussian) distribution `N(mean, std_dev²)`.
///
/// # Examples
///
/// ```
/// use mramsim_numerics::dist::Normal;
/// use rand::SeedableRng;
///
/// let mut rng = rand::rngs::StdRng::seed_from_u64(7);
/// let ecd_variation = Normal::new(55.0, 1.5)?; // nm, device-to-device
/// let sample = ecd_variation.sample(&mut rng);
/// assert!((sample - 55.0).abs() < 10.0);
/// # Ok::<(), mramsim_numerics::NumericsError>(())
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Normal {
    mean: f64,
    std_dev: f64,
}

impl Normal {
    /// Creates a normal distribution.
    ///
    /// # Errors
    ///
    /// Returns [`NumericsError::InvalidDomain`] for a negative or
    /// non-finite standard deviation, or a non-finite mean.
    pub fn new(mean: f64, std_dev: f64) -> Result<Self> {
        if !mean.is_finite() || !std_dev.is_finite() || std_dev < 0.0 {
            return Err(NumericsError::InvalidDomain {
                routine: "Normal::new",
                message: format!("mean = {mean}, std_dev = {std_dev}"),
            });
        }
        Ok(Self { mean, std_dev })
    }

    /// The distribution mean.
    #[must_use]
    pub fn mean(&self) -> f64 {
        self.mean
    }

    /// The distribution standard deviation.
    #[must_use]
    pub fn std_dev(&self) -> f64 {
        self.std_dev
    }

    /// Draws one sample (Box–Muller; one of the pair is discarded for
    /// statelessness).
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> f64 {
        self.mean + self.std_dev * standard_normal(rng)
    }

    /// Draws `n` samples.
    pub fn sample_n<R: Rng + ?Sized>(&self, rng: &mut R, n: usize) -> Vec<f64> {
        (0..n).map(|_| self.sample(rng)).collect()
    }
}

/// A log-normal distribution: `exp(N(mu, sigma²))`.
///
/// Used for strictly positive quantities such as `RA` spreads.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LogNormal {
    log_mean: f64,
    log_std: f64,
}

impl LogNormal {
    /// Creates a log-normal from the parameters of the underlying normal.
    ///
    /// # Errors
    ///
    /// Returns [`NumericsError::InvalidDomain`] for non-finite input or
    /// negative `log_std`.
    pub fn new(log_mean: f64, log_std: f64) -> Result<Self> {
        if !log_mean.is_finite() || !log_std.is_finite() || log_std < 0.0 {
            return Err(NumericsError::InvalidDomain {
                routine: "LogNormal::new",
                message: format!("log_mean = {log_mean}, log_std = {log_std}"),
            });
        }
        Ok(Self { log_mean, log_std })
    }

    /// Creates a log-normal whose *median* is `median` and whose
    /// multiplicative spread is `exp(log_std)`.
    ///
    /// # Errors
    ///
    /// Returns [`NumericsError::InvalidDomain`] for a non-positive median.
    pub fn from_median(median: f64, log_std: f64) -> Result<Self> {
        if !(median > 0.0) {
            return Err(NumericsError::InvalidDomain {
                routine: "LogNormal::from_median",
                message: format!("median = {median} must be positive"),
            });
        }
        Self::new(median.ln(), log_std)
    }

    /// Draws one sample (always positive).
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> f64 {
        (self.log_mean + self.log_std * standard_normal(rng)).exp()
    }
}

/// One standard-normal variate via the Box–Muller transform.
pub fn standard_normal<R: Rng + ?Sized>(rng: &mut R) -> f64 {
    standard_normal_pair(rng).0
}

/// Two independent standard-normal variates from one Box–Muller
/// transform: both halves of the pair, two uniforms per two normals.
/// Noise-bound inner loops should prefer [`standard_normal_ziggurat`].
///
/// The first element is exactly what [`standard_normal`] returns for the
/// same RNG state.
pub fn standard_normal_pair<R: Rng + ?Sized>(rng: &mut R) -> (f64, f64) {
    // u1 ∈ (0, 1] avoids ln(0).
    let u1: f64 = 1.0 - rng.gen::<f64>();
    let u2: f64 = rng.gen();
    let r = (-2.0 * u1.ln()).sqrt();
    let (s, c) = (2.0 * core::f64::consts::PI * u2).sin_cos();
    (r * c, r * s)
}

/// Layers of the ziggurat: the low 8 bits of a draw pick one.
const ZIGGURAT_LAYERS: usize = 256;

/// Right edge `R` of the 256-layer normal ziggurat's base layer
/// (Marsaglia & Tsang, J. Stat. Softw. 5(8), 2000). The common layer
/// area `V` follows from it.
const ZIGGURAT_R: f64 = 3.654_152_885_361_009;

/// The ziggurat tables over the unnormalised density
/// `f(x) = exp(−x²/2)`, built once (see [`ziggurat`]).
///
/// Layer `i ≥ 1` is the rectangle `[0, x[i]] × [f[i], f[i+1]]`; layer 0
/// is the base rectangle `[0, R] × [0, f(R)]` plus the tail beyond `R`,
/// stretched into the equal-area rectangle of width `x[0] = V/f(R)`.
/// Every layer has area `V`.
struct Ziggurat {
    /// Layer edges: `x[0] = V/f(R)`, `x[1] = R`, decreasing to
    /// `x[256] = 0`.
    x: [f64; ZIGGURAT_LAYERS + 1],
    /// `f[i] = exp(−x[i]²/2)`, increasing to `f[256] = 1`.
    f: [f64; ZIGGURAT_LAYERS + 1],
}

impl Ziggurat {
    fn build() -> Self {
        let density = |x: f64| (-0.5 * x * x).exp();
        let r = ZIGGURAT_R;
        let v = r * density(r) + upper_tail_integral(r);
        let mut x = [0.0; ZIGGURAT_LAYERS + 1];
        x[0] = v / density(r);
        x[1] = r;
        // Each layer's top edge puts its area at exactly V:
        // x[i]·(f(x[i+1]) − f(x[i])) = V.
        for i in 1..ZIGGURAT_LAYERS - 1 {
            x[i + 1] = (-2.0 * (v / x[i] + density(x[i])).ln()).sqrt();
        }
        x[ZIGGURAT_LAYERS] = 0.0;
        Self {
            x,
            f: x.map(density),
        }
    }

    /// The slow path for layer `i` when the abscissa `x` fell outside
    /// the layer's inner rectangle: the tail (layer 0) or the wedge
    /// under the density (layers 1…255). `None` rejects the draw.
    #[cold]
    fn edge<R: Rng + ?Sized>(&self, rng: &mut R, i: usize, x: f64) -> Option<f64> {
        if i == 0 {
            // Marsaglia (1964): exact sampling of the tail beyond R.
            // Uniforms in (0, 1] avoid ln(0).
            let r = ZIGGURAT_R;
            loop {
                let t = -(1.0 - rng.gen::<f64>()).ln() / r;
                let e = -(1.0 - rng.gen::<f64>()).ln();
                if 2.0 * e >= t * t {
                    return Some((r + t).copysign(x));
                }
            }
        }
        let y = self.f[i] + (self.f[i + 1] - self.f[i]) * rng.gen::<f64>();
        (y < (-0.5 * x * x).exp()).then_some(x)
    }
}

/// The process-wide ziggurat tables, built on first use.
fn ziggurat() -> &'static Ziggurat {
    static TABLES: OnceLock<Ziggurat> = OnceLock::new();
    TABLES.get_or_init(Ziggurat::build)
}

/// `∫ₓ^∞ exp(−t²/2) dt` for `x ≳ 2`, via the continued fraction of the
/// Mills ratio, `exp(−x²/2) / (x + 1/(x + 2/(x + 3/(x + …))))`,
/// evaluated bottom-up (converged to machine precision at `x = R`).
fn upper_tail_integral(x: f64) -> f64 {
    let mut t = x;
    for k in (1..=200).rev() {
        t = x + f64::from(k) / t;
    }
    (-0.5 * x * x).exp() / t
}

/// One standard-normal variate by the 256-layer Marsaglia–Tsang
/// ziggurat.
///
/// One `u64` serves about 98.5 % of draws: its low 8 bits pick the
/// layer and its high 52 bits give the signed abscissa, accepted when
/// it falls inside the layer's inner rectangle. The wedge and tail
/// cases draw extra uniforms. A given RNG state always yields the same
/// variate, but the stream differs from [`standard_normal`]'s.
///
/// # Examples
///
/// ```
/// use mramsim_numerics::dist::standard_normal_ziggurat;
/// use rand::SeedableRng;
///
/// let mut rng = rand::rngs::StdRng::seed_from_u64(7);
/// let n = 10_000;
/// let mean = (0..n).map(|_| standard_normal_ziggurat(&mut rng)).sum::<f64>() / n as f64;
/// assert!(mean.abs() < 0.05);
/// ```
#[inline]
pub fn standard_normal_ziggurat<R: Rng + ?Sized>(rng: &mut R) -> f64 {
    let z = ziggurat();
    loop {
        let bits = rng.next_u64();
        let i = (bits & 0xff) as usize;
        // (m + ½)·2⁻⁵¹ − 1 for the 52-bit m: symmetric in (−1, 1) and
        // exact in f64.
        let u = ((bits >> 12) as f64 + 0.5) * (1.0 / (1u64 << 51) as f64) - 1.0;
        let x = u * z.x[i];
        if x.abs() < z.x[i + 1] {
            return x;
        }
        if let Some(x) = z.edge(rng, i, x) {
            return x;
        }
    }
}

/// The thermal-equilibrium initial-angle distribution of a macrospin in
/// a uniaxial well of stability factor `Δ`.
///
/// The Boltzmann density over the polar angle is
/// `p(θ) ∝ sin θ · exp(−Δ·sin²θ)`; for the `Δ ≳ 20` regime of STT-MRAM
/// free layers this is the small-angle Maxwell–Boltzmann form
/// `p(θ) ∝ θ · exp(−Δ·θ²)`, which inverts in closed form:
/// `θ = sqrt(−ln(1−u)/Δ)` for `u` uniform in `[0, 1)`. Samples are
/// clamped to `π/2` (the well boundary).
///
/// This seeds the `mramsim-dynamics` Monte-Carlo ensembles: the write
/// error rate is dominated by the thermally distributed initial angle.
///
/// # Examples
///
/// ```
/// use mramsim_numerics::dist::InitialAngle;
/// use rand::SeedableRng;
///
/// let mut rng = rand::rngs::StdRng::seed_from_u64(7);
/// let dist = InitialAngle::new(60.0)?;
/// let theta = dist.sample(&mut rng);
/// // Typical angles sit near 1/sqrt(Δ) ≈ 0.13 rad.
/// assert!(theta > 0.0 && theta < 0.6);
/// # Ok::<(), mramsim_numerics::NumericsError>(())
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct InitialAngle {
    delta: f64,
}

impl InitialAngle {
    /// Creates the sampler for thermal stability factor `delta`.
    ///
    /// # Errors
    ///
    /// Returns [`NumericsError::InvalidDomain`] for a non-positive or
    /// non-finite `delta`.
    pub fn new(delta: f64) -> Result<Self> {
        if !(delta > 0.0) || !delta.is_finite() {
            return Err(NumericsError::InvalidDomain {
                routine: "InitialAngle::new",
                message: format!("delta = {delta} must be positive and finite"),
            });
        }
        Ok(Self { delta })
    }

    /// The stability factor `Δ`.
    #[must_use]
    pub fn delta(&self) -> f64 {
        self.delta
    }

    /// Draws one polar angle in `(0, π/2]` by inverse CDF.
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> f64 {
        // u ∈ (0, 1] avoids ln(0); the clamp keeps pathological
        // low-Δ draws inside the well.
        let u: f64 = 1.0 - rng.gen::<f64>();
        (-u.ln() / self.delta)
            .sqrt()
            .min(core::f64::consts::FRAC_PI_2)
    }

    /// Draws `n` angles.
    pub fn sample_n<R: Rng + ?Sized>(&self, rng: &mut R, n: usize) -> Vec<f64> {
        (0..n).map(|_| self.sample(rng)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn normal_moments_match_parameters() {
        let mut rng = StdRng::seed_from_u64(42);
        let d = Normal::new(10.0, 2.0).unwrap();
        let xs = d.sample_n(&mut rng, 40_000);
        let m = stats::mean(&xs).unwrap();
        let s = stats::std_dev(&xs).unwrap();
        assert!((m - 10.0).abs() < 0.05, "mean = {m}");
        assert!((s - 2.0).abs() < 0.05, "std = {s}");
    }

    #[test]
    fn zero_sigma_is_deterministic() {
        let mut rng = StdRng::seed_from_u64(1);
        let d = Normal::new(3.5, 0.0).unwrap();
        for _ in 0..10 {
            assert_eq!(d.sample(&mut rng), 3.5);
        }
    }

    #[test]
    fn standard_normal_tail_fractions() {
        let mut rng = StdRng::seed_from_u64(7);
        let n = 60_000;
        let beyond_2sigma = (0..n)
            .filter(|_| standard_normal(&mut rng).abs() > 2.0)
            .count();
        let frac = beyond_2sigma as f64 / f64::from(n);
        // True value 4.55 %.
        assert!((frac - 0.0455).abs() < 0.01, "frac = {frac}");
    }

    #[test]
    fn lognormal_is_positive_with_right_median() {
        let mut rng = StdRng::seed_from_u64(3);
        let d = LogNormal::from_median(4.5, 0.05).unwrap();
        let xs: Vec<f64> = (0..20_000).map(|_| d.sample(&mut rng)).collect();
        assert!(xs.iter().all(|&x| x > 0.0));
        let med = stats::median(&xs).unwrap();
        assert!((med - 4.5).abs() < 0.05, "median = {med}");
    }

    #[test]
    fn invalid_parameters_are_rejected() {
        assert!(Normal::new(f64::NAN, 1.0).is_err());
        assert!(Normal::new(0.0, -1.0).is_err());
        assert!(LogNormal::from_median(0.0, 0.1).is_err());
        assert!(LogNormal::new(0.0, -0.1).is_err());
    }

    #[test]
    fn seeded_rng_reproduces_sequences() {
        let d = Normal::new(0.0, 1.0).unwrap();
        let a: Vec<f64> = d.sample_n(&mut StdRng::seed_from_u64(99), 16);
        let b: Vec<f64> = d.sample_n(&mut StdRng::seed_from_u64(99), 16);
        assert_eq!(a, b);
    }

    #[test]
    fn normal_pair_halves_are_independent_standard_normals() {
        let mut rng = StdRng::seed_from_u64(11);
        let n = 30_000;
        let mut firsts = Vec::with_capacity(n);
        let mut seconds = Vec::with_capacity(n);
        let mut cross = 0.0;
        for _ in 0..n {
            let (a, b) = standard_normal_pair(&mut rng);
            cross += a * b;
            firsts.push(a);
            seconds.push(b);
        }
        for xs in [&firsts, &seconds] {
            assert!(stats::mean(xs).unwrap().abs() < 0.02);
            assert!((stats::std_dev(xs).unwrap() - 1.0).abs() < 0.02);
        }
        // Sine and cosine halves of one Box–Muller draw are uncorrelated.
        assert!((cross / n as f64).abs() < 0.02);
    }

    #[test]
    fn normal_pair_first_half_is_standard_normal() {
        let a = standard_normal(&mut StdRng::seed_from_u64(5));
        let (b, _) = standard_normal_pair(&mut StdRng::seed_from_u64(5));
        assert_eq!(a.to_bits(), b.to_bits());
    }

    #[test]
    fn initial_angle_moments_match_small_angle_theory() {
        // For p(θ) ∝ θ·exp(−Δθ²): E[θ²] = 1/Δ and E[θ] = √(π/(4Δ)).
        let mut rng = StdRng::seed_from_u64(42);
        let delta = 60.0;
        let dist = InitialAngle::new(delta).unwrap();
        let xs = dist.sample_n(&mut rng, 50_000);
        assert!(xs
            .iter()
            .all(|&t| t > 0.0 && t <= core::f64::consts::FRAC_PI_2));
        let mean = stats::mean(&xs).unwrap();
        let mean_sq = stats::mean(&xs.iter().map(|t| t * t).collect::<Vec<_>>()).unwrap();
        let mean_theory = (core::f64::consts::PI / (4.0 * delta)).sqrt();
        assert!((mean / mean_theory - 1.0).abs() < 0.02, "mean = {mean}");
        assert!(
            (mean_sq * delta - 1.0).abs() < 0.03,
            "E[θ²]Δ = {}",
            mean_sq * delta
        );
    }

    #[test]
    fn initial_angle_rejects_bad_delta() {
        assert!(InitialAngle::new(0.0).is_err());
        assert!(InitialAngle::new(-3.0).is_err());
        assert!(InitialAngle::new(f64::NAN).is_err());
    }

    /// `P(|Z| > x)` for a standard normal `Z`, `x ≳ 2`.
    fn two_sided_tail(x: f64) -> f64 {
        2.0 * upper_tail_integral(x) / (2.0 * core::f64::consts::PI).sqrt()
    }

    /// 2²⁰ seeded ziggurat draws, shared by the distribution tests.
    fn ziggurat_sample() -> Vec<f64> {
        let mut rng = StdRng::seed_from_u64(2024);
        (0..1 << 20)
            .map(|_| standard_normal_ziggurat(&mut rng))
            .collect()
    }

    #[test]
    fn ziggurat_tables_hold_their_invariants() {
        let z = ziggurat();
        assert_eq!(z.x[1], ZIGGURAT_R);
        assert_eq!(z.x[ZIGGURAT_LAYERS], 0.0);
        assert_eq!(z.f[ZIGGURAT_LAYERS], 1.0);
        assert!(z.x.windows(2).all(|w| w[0] > w[1]), "edges must decrease");
        // V is the base layer's area: rectangle plus tail, which its
        // equal-area stretch to width x[0] must keep.
        let v = ZIGGURAT_R * z.f[1] + upper_tail_integral(ZIGGURAT_R);
        assert!((z.x[0] * z.f[1] / v - 1.0).abs() < 1e-12);
        for i in 1..ZIGGURAT_LAYERS {
            let area = z.x[i] * (z.f[i + 1] - z.f[i]);
            assert!(
                (area / v - 1.0).abs() < 1e-12,
                "layer {i}: area {area} vs V = {v}"
            );
        }
    }

    #[test]
    fn upper_tail_integral_matches_quadrature() {
        for x in [2.5, ZIGGURAT_R, 4.0, 5.0] {
            let quad =
                crate::integrate::adaptive_simpson(|t| (-0.5 * t * t).exp(), x, x + 15.0, 1e-16)
                    .unwrap();
            let cf = upper_tail_integral(x);
            assert!((cf / quad - 1.0).abs() < 1e-10, "x = {x}: {cf} vs {quad}");
        }
    }

    #[test]
    fn ziggurat_moments_and_ks_match_the_standard_normal() {
        let mut xs = ziggurat_sample();
        let n = xs.len() as f64;
        let mean = xs.iter().sum::<f64>() / n;
        let m2 = xs.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / n;
        let m4 = xs.iter().map(|x| (x - mean).powi(4)).sum::<f64>() / n;
        let excess_kurtosis = m4 / (m2 * m2) - 3.0;
        // Five standard errors: σ/√n, √(2/n) and √(24/n).
        assert!(mean.abs() < 5.0 / n.sqrt(), "mean = {mean}");
        assert!((m2 - 1.0).abs() < 5.0 * (2.0 / n).sqrt(), "var = {m2}");
        assert!(
            excess_kurtosis.abs() < 5.0 * (24.0 / n).sqrt(),
            "excess kurtosis = {excess_kurtosis}"
        );
        // Kolmogorov–Smirnov at α = 1 %: √n·D < 1.63.
        xs.sort_by(f64::total_cmp);
        let d = xs
            .iter()
            .enumerate()
            .map(|(i, &x)| {
                let cdf = crate::special::normal_cdf(x);
                (cdf - i as f64 / n).max((i + 1) as f64 / n - cdf)
            })
            .fold(0.0, f64::max);
        assert!(n.sqrt() * d < 1.63, "sqrt(n)·D = {}", n.sqrt() * d);
    }

    #[test]
    fn ziggurat_tail_masses_match_the_normal() {
        // |x| > R comes only from the tail branch; the wedge branches
        // shape everything between the inner rectangles and the curve.
        let xs = ziggurat_sample();
        let n = xs.len() as f64;
        for cut in [ZIGGURAT_R, 4.0] {
            let p = two_sided_tail(cut);
            let count = xs.iter().filter(|x| x.abs() > cut).count() as f64;
            let sigma = (n * p * (1.0 - p)).sqrt();
            assert!(
                (count - n * p).abs() < 4.0 * sigma,
                "beyond {cut}: {count} draws, expected {:.1} ± {sigma:.1}",
                n * p
            );
        }
    }

    #[test]
    fn ziggurat_takes_one_u64_on_the_fast_path() {
        /// Counts the raw words drawn.
        struct Counting(StdRng, u64);
        impl Rng for Counting {
            fn next_u64(&mut self) -> u64 {
                self.1 += 1;
                self.0.next_u64()
            }
        }
        let z = ziggurat();
        // P(fast path) = Σᵢ x[i+1]/x[i] / 256.
        let expected = z.x.windows(2).map(|w| w[1] / w[0]).sum::<f64>() / 256.0;
        let mut rng = Counting(StdRng::seed_from_u64(9), 0);
        let n = 1 << 20;
        let mut single = 0u32;
        for _ in 0..n {
            let before = rng.1;
            standard_normal_ziggurat(&mut rng);
            single += u32::from(rng.1 - before == 1);
        }
        let share = f64::from(single) / f64::from(n);
        let sigma = (expected * (1.0 - expected) / f64::from(n)).sqrt();
        assert!((expected - 0.985).abs() < 1e-3, "expected = {expected}");
        assert!((share - expected).abs() < 5.0 * sigma, "share = {share}");
    }

    #[test]
    fn ziggurat_seeded_sequences_reproduce() {
        let draw = |seed| -> Vec<u64> {
            let mut rng = StdRng::seed_from_u64(seed);
            (0..64)
                .map(|_| standard_normal_ziggurat(&mut rng).to_bits())
                .collect()
        };
        assert_eq!(draw(99), draw(99));
        assert_ne!(draw(99), draw(100));
        // Pinned values: a change here changes every thermal s-LLGS
        // result, which must bump the engine's store schema version.
        let mut rng = StdRng::seed_from_u64(42);
        let head: Vec<f64> = (0..4).map(|_| standard_normal_ziggurat(&mut rng)).collect();
        let pinned = [
            0.834_397_546_845_870_6,
            -0.514_962_928_148_376_5,
            1.407_727_573_122_544,
            0.464_454_861_226_875_2,
        ];
        for (got, want) in head.iter().zip(pinned) {
            assert!((got - want).abs() < 1e-12, "{head:?}");
        }
    }
}
