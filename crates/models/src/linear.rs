//! Single-feature linear regression — the work-horse leaf model.
//!
//! The paper (§3.6) observes that "a closed form solution exists for
//! linear multi-variate models … and they can be trained in a single pass
//! over the sorted data", and §3.7.1 finds that "for the second stage,
//! simple, linear models had the best performance". This module is that
//! model: `predict(x) = slope · x + intercept`, fitted by ordinary least
//! squares in one division-free pass over sums shifted by the first point
//! (keys can be as large as 2⁶⁴, so naive Σx² overflows the mantissa).

use crate::Model;

/// `y = slope · x + intercept`, fitted by least squares.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LinearModel {
    slope: f64,
    intercept: f64,
}

impl LinearModel {
    /// A model with explicit coefficients.
    pub fn new(slope: f64, intercept: f64) -> Self {
        Self { slope, intercept }
    }

    /// The identity-ish degenerate model mapping everything to `0`.
    pub fn constant(value: f64) -> Self {
        Self {
            slope: 0.0,
            intercept: value,
        }
    }

    /// Fit by OLS over `(x, y)` pairs produced by the iterator.
    ///
    /// One pass, O(1) memory. For zero points the model predicts 0; for
    /// one point, a constant; for degenerate x-variance (all x equal),
    /// the mean of y.
    pub fn fit(mut pairs: impl Iterator<Item = (f64, f64)>) -> Self {
        let Some((x0, y0)) = pairs.next() else {
            return Self::constant(0.0);
        };
        // Sums of offsets from the first point: shifting keeps them
        // small for huge key magnitudes (keys can be as large as 2⁶⁴),
        // and the loop needs no division, only independent adds.
        let (mut n, mut sx, mut sy, mut sxx, mut sxy) = (1.0f64, 0.0f64, 0.0f64, 0.0f64, 0.0f64);
        for (x, y) in pairs {
            let (dx, dy) = (x - x0, y - y0);
            n += 1.0;
            sx += dx;
            sy += dy;
            sxx += dx * dx;
            sxy += dx * dy;
        }
        let (mean_dx, mean_dy) = (sx / n, sy / n);
        let mean_y = y0 + mean_dy;
        // Σ (x - mean_x)² and Σ (x - mean_x)(y - mean_y).
        let var_x = sxx - sx * mean_dx;
        let cov_xy = sxy - sx * mean_dy;
        if var_x <= 0.0 || !var_x.is_finite() {
            return Self::constant(mean_y);
        }
        let slope = cov_xy / var_x;
        let intercept = mean_y - slope * (x0 + mean_dx);
        if !slope.is_finite() || !intercept.is_finite() {
            return Self::constant(mean_y);
        }
        Self { slope, intercept }
    }

    /// Fit over a sorted key slice where `y` is the index: the exact
    /// "model of the CDF scaled by N" (§2.2) used by RMI stages.
    pub fn fit_keys(keys: &[f64]) -> Self {
        Self::fit(keys.iter().enumerate().map(|(i, &k)| (k, i as f64)))
    }

    /// Slope coefficient.
    pub fn slope(&self) -> f64 {
        self.slope
    }

    /// Intercept coefficient.
    pub fn intercept(&self) -> f64 {
        self.intercept
    }
}

impl Model for LinearModel {
    #[inline(always)]
    fn predict(&self, x: f64) -> f64 {
        // One multiply-add: the paper's headline "simple linear model …
        // a single multiplication and addition" (§2).
        self.slope * x + self.intercept
    }

    fn size_bytes(&self) -> usize {
        2 * std::mem::size_of::<f64>()
    }

    fn op_count(&self) -> usize {
        2
    }

    fn is_monotonic(&self) -> bool {
        self.slope >= 0.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exact_fit_on_affine_data() {
        // The paper's §2 example: keys 1M..2M stored at positions 0..1M —
        // a single linear model predicts perfectly.
        let keys: Vec<f64> = (0..1000).map(|i| 1_000_000.0 + i as f64).collect();
        let m = LinearModel::fit_keys(&keys);
        for (i, &k) in keys.iter().enumerate() {
            assert!((m.predict(k) - i as f64).abs() < 1e-6);
        }
        assert!(m.is_monotonic());
    }

    #[test]
    fn empty_and_single_point() {
        let m = LinearModel::fit(std::iter::empty());
        assert_eq!(m.predict(123.0), 0.0);
        let m = LinearModel::fit([(5.0, 7.0)].into_iter());
        assert_eq!(m.predict(0.0), 7.0);
        assert_eq!(m.predict(100.0), 7.0);
    }

    #[test]
    fn degenerate_x_gives_mean_of_y() {
        let m = LinearModel::fit([(2.0, 1.0), (2.0, 3.0), (2.0, 5.0)].into_iter());
        assert!((m.predict(2.0) - 3.0).abs() < 1e-12);
        assert_eq!(m.slope(), 0.0);
    }

    #[test]
    fn huge_key_magnitudes_stay_stable() {
        // Keys near 2^63 with spacing above the f64 ulp (2048 at 9e18);
        // naive Σx² accumulation would still lose all precision here.
        let base = 9.0e18;
        let keys: Vec<f64> = (0..10_000).map(|i| base + (i * 4096) as f64).collect();
        let m = LinearModel::fit_keys(&keys);
        let mut worst = 0.0f64;
        for (i, &k) in keys.iter().enumerate() {
            worst = worst.max((m.predict(k) - i as f64).abs());
        }
        assert!(worst < 1.0, "worst abs error {worst}");
    }

    /// The least-squares line over `(key, index)` by the centred
    /// two-pass formula, with the centring done in integers: `x` is
    /// measured from the first key, and the mean is an exact `i128`
    /// sum. Returns `(slope, mean_dx, mean_y)` in that frame.
    fn two_pass(keys: &[u64]) -> (f64, f64, f64) {
        let n = keys.len() as f64;
        let dev = |k: u64| i128::from(k) - i128::from(keys[0]);
        let mean_dx = keys.iter().map(|&k| dev(k)).sum::<i128>() as f64 / n;
        let mean_y = (n - 1.0) / 2.0;
        let (mut var_x, mut cov_xy) = (0.0f64, 0.0f64);
        for (i, &k) in keys.iter().enumerate() {
            let dx = dev(k) as f64 - mean_dx;
            var_x += dx * dx;
            cov_xy += dx * (i as f64 - mean_y);
        }
        let slope = if var_x > 0.0 { cov_xy / var_x } else { 0.0 };
        (slope, mean_dx, mean_y)
    }

    /// `fit_keys` predicts what the two-pass line predicts at every
    /// key, up to the rounding of evaluating `slope · x + intercept`
    /// in f64 at that key's magnitude.
    fn assert_matches_two_pass(keys: &[u64], what: &str) {
        let xs: Vec<f64> = keys.iter().map(|&k| k as f64).collect();
        let m = LinearModel::fit_keys(&xs);
        let (slope, mean_dx, mean_y) = two_pass(keys);
        assert!(
            (m.slope() - slope).abs() <= 1e-9 * slope.abs(),
            "{what}: slope {} vs two-pass {slope}",
            m.slope()
        );
        for (&k, &x) in keys.iter().zip(&xs) {
            let want = mean_y + slope * ((i128::from(k) - i128::from(keys[0])) as f64 - mean_dx);
            let got = m.predict(x);
            let rounding = 4.0 * f64::EPSILON * ((m.slope() * x).abs() + m.intercept().abs());
            assert!(
                (got - want).abs() <= 1e-6 + rounding,
                "{what}: at key {k} fit {got} vs two-pass {want}"
            );
        }
    }

    #[test]
    fn fit_matches_the_two_pass_reference() {
        let mut rng = crate::rng::SplitMix64::new(11);
        let n = 20_000;
        // Keys near 2^63 and near u64::MAX, on a 4096 grid above the
        // f64 ulp there (2048), so every key converts exactly.
        let mut near_2_63: Vec<u64> = Vec::with_capacity(n);
        let mut k = 1u64 << 63;
        for _ in 0..n {
            k += 4096 * (1 + rng.below(16) as u64);
            near_2_63.push(k);
        }
        assert_matches_two_pass(&near_2_63, "near 2^63");
        let last = near_2_63[n - 1];
        let top: Vec<u64> = near_2_63
            .iter()
            .map(|&k| u64::MAX - 4095 - (last - k))
            .collect();
        assert_matches_two_pass(&top, "near u64::MAX");
        // Lognormal keys: a skewed CDF, dense at the bottom.
        let mut lognormal: Vec<u64> = (0..n)
            .map(|_| (1e9 * (2.0 * rng.normal()).exp()) as u64)
            .collect();
        lognormal.sort_unstable();
        lognormal.dedup();
        assert_matches_two_pass(&lognormal, "lognormal");
        // A dense cluster and one far outlier, both ways round.
        let mut cluster: Vec<u64> = (0..1000).map(|i| 1_000_000 + 3 * i).collect();
        cluster.push(1 << 60);
        assert_matches_two_pass(&cluster, "outlier last");
        let mut cluster: Vec<u64> = (0..1000).map(|i| (1 << 60) + 768 * i).collect();
        cluster.insert(0, 7);
        assert_matches_two_pass(&cluster, "outlier first");
    }

    #[test]
    fn all_equal_x_gives_the_two_pass_mean() {
        let pairs: Vec<(f64, f64)> = (0..100).map(|i| (9.0e18, (i * i) as f64)).collect();
        let m = LinearModel::fit(pairs.iter().copied());
        let mean_y = pairs.iter().map(|p| p.1).sum::<f64>() / 100.0;
        assert_eq!(m.slope(), 0.0);
        assert!((m.intercept() - mean_y).abs() < 1e-9, "{m:?} vs {mean_y}");
    }

    #[test]
    fn least_squares_beats_endpoint_interpolation_on_noisy_data() {
        // y = 2x + noise; OLS slope should approach 2.
        let mut rng = crate::rng::SplitMix64::new(5);
        let pairs: Vec<(f64, f64)> = (0..5000)
            .map(|i| (i as f64, 2.0 * i as f64 + rng.normal() * 10.0))
            .collect();
        let m = LinearModel::fit(pairs.iter().copied());
        assert!((m.slope() - 2.0).abs() < 0.01, "slope {}", m.slope());
    }

    #[test]
    fn negative_slope_is_not_monotonic() {
        let m = LinearModel::fit([(0.0, 10.0), (10.0, 0.0)].into_iter());
        assert!(!m.is_monotonic());
    }

    #[test]
    fn model_trait_metadata() {
        let m = LinearModel::new(1.0, 0.0);
        assert_eq!(m.size_bytes(), 16);
        assert_eq!(m.op_count(), 2);
    }
}
