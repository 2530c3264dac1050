//! Confidence intervals for Laplace-mechanism releases.
//!
//! A released count is `true + Lap(b)` with known `b = Δ/ε`, so an exact
//! two-sided confidence interval for the true value is the released value
//! ± the Laplace quantile. (For *post-processed* estimates like `S̄`/`H̄`
//! the noise is no longer Laplace; Sec. 3.2 cites Hwang & Peddada for
//! order-restricted intervals — here we expose the exact pre-inference
//! interval, which remains valid though conservative after projection,
//! since projection onto a convex set containing the truth cannot move the
//! estimate further from it.)

use hc_noise::Laplace;

use crate::NoisyOutput;

/// A two-sided confidence interval `[lo, hi]` at some confidence level.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ConfidenceInterval {
    /// Lower endpoint.
    pub lo: f64,
    /// Upper endpoint.
    pub hi: f64,
    /// The confidence level the interval was built for, e.g. `0.95`.
    pub level: f64,
}

impl ConfidenceInterval {
    /// Interval width.
    pub fn width(&self) -> f64 {
        self.hi - self.lo
    }

    /// Whether a value lies inside.
    pub fn contains(&self, value: f64) -> bool {
        self.lo <= value && value <= self.hi
    }
}

/// The half-width of an exact two-sided Laplace interval at `level` for
/// noise scale `b`: `−b · ln(1 − level)`.
pub fn laplace_half_width(noise_scale: f64, level: f64) -> f64 {
    assert!(
        (0.0..1.0).contains(&level),
        "confidence level must be in [0, 1)"
    );
    assert!(noise_scale > 0.0, "noise scale must be positive");
    let d = Laplace::centered(noise_scale).expect("positive scale");
    // P(|X| <= q) = level  ⇔  q = quantile((1 + level)/2).
    d.quantile((1.0 + level) / 2.0)
}

impl NoisyOutput {
    /// The exact confidence interval for the true answer at position `i`.
    pub fn confidence_interval(&self, i: usize, level: f64) -> ConfidenceInterval {
        let half = laplace_half_width(self.noise_scale(), level);
        let center = self.values()[i];
        ConfidenceInterval {
            lo: center - half,
            hi: center + half,
            level,
        }
    }

    /// Confidence intervals for every answer in the release.
    pub fn confidence_intervals(&self, level: f64) -> Vec<ConfidenceInterval> {
        let half = laplace_half_width(self.noise_scale(), level);
        self.values()
            .iter()
            .map(|&center| ConfidenceInterval {
                lo: center - half,
                hi: center + half,
                level,
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Epsilon, LaplaceMechanism, UnitQuery};
    use hc_data::{Domain, Histogram};
    use hc_noise::rng_from_seed;

    #[test]
    fn half_width_matches_quantile_identity() {
        // At level 0.5 the half-width is the Laplace upper quartile b·ln 2.
        let hw = laplace_half_width(2.0, 0.5);
        assert!((hw - 2.0 * (2.0f64).ln()).abs() < 1e-12);
        // Wider levels give wider intervals.
        assert!(laplace_half_width(2.0, 0.99) > laplace_half_width(2.0, 0.9));
    }

    #[test]
    fn empirical_coverage_matches_nominal() {
        let h = Histogram::from_counts(Domain::new("x", 4).unwrap(), vec![7; 4]);
        let mech = LaplaceMechanism::new(Epsilon::new(0.5).unwrap());
        let mut rng = rng_from_seed(17);
        let level = 0.9;
        let trials = 5000;
        let mut covered = 0usize;
        for _ in 0..trials {
            let out = mech.release(&UnitQuery, &h, &mut rng);
            if out.confidence_interval(0, level).contains(7.0) {
                covered += 1;
            }
        }
        let coverage = covered as f64 / trials as f64;
        assert!(
            (coverage - level).abs() < 0.02,
            "coverage {coverage} vs nominal {level}"
        );
    }

    #[test]
    fn intervals_scale_with_sensitivity_and_epsilon() {
        let h = Histogram::from_counts(Domain::new("x", 4).unwrap(), vec![1; 4]);
        let mut rng = rng_from_seed(18);
        let strong =
            LaplaceMechanism::new(Epsilon::new(1.0).unwrap()).release(&UnitQuery, &h, &mut rng);
        let weak =
            LaplaceMechanism::new(Epsilon::new(0.1).unwrap()).release(&UnitQuery, &h, &mut rng);
        let w_strong = strong.confidence_interval(0, 0.95).width();
        let w_weak = weak.confidence_interval(0, 0.95).width();
        assert!((w_weak / w_strong - 10.0).abs() < 1e-9);
    }

    #[test]
    fn all_positions_get_identical_widths() {
        let h = Histogram::from_counts(Domain::new("x", 8).unwrap(), vec![3; 8]);
        let mech = LaplaceMechanism::new(Epsilon::new(0.3).unwrap());
        let mut rng = rng_from_seed(19);
        let out = mech.release(&UnitQuery, &h, &mut rng);
        let cis = out.confidence_intervals(0.8);
        assert_eq!(cis.len(), 8);
        let w0 = cis[0].width();
        assert!(cis.iter().all(|ci| (ci.width() - w0).abs() < 1e-12));
    }

    #[test]
    #[should_panic(expected = "confidence level")]
    fn rejects_invalid_level() {
        let _ = laplace_half_width(1.0, 1.0);
    }
}
