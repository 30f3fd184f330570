//! Search strategies for learned range indexes (§3.4).
//!
//! "Learned indexes might have an advantage here: the models actually
//! predict the position of the key, not just the region." The strategies:
//!
//! * [`SearchStrategy::ModelBiasedBinary`] — "our default search
//!   strategy, which only varies from traditional binary search in that
//!   the first middle point is set to the value predicted by the model".
//! * [`SearchStrategy::BiasedQuaternary`] — three initial split points
//!   `pos − σ, pos, pos + σ` so the hardware can prefetch all three,
//!   then classic quaternary search.
//! * [`SearchStrategy::Exponential`] — gallop outward from the
//!   prediction; needs no stored error bounds.
//! * [`SearchStrategy::FullBinary`] — ignore the prediction inside the
//!   error window (the "traditional" control).
//!
//! All strategies search within the min-/max-error window recorded at
//! training time. Because RMI models need not be monotonic, the window
//! can be wrong for *non-stored* keys; [`search_with_widening`]
//! implements the paper's fix — "if the found upper (lower) bound key is
//! on the boundary of the search area … we incrementally adjust the
//! search area" — which makes every lookup exact regardless of model
//! quality.

use li_btree::search::{exponential_search, lower_bound};

/// Last-mile search strategy used after the model prediction.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SearchStrategy {
    /// Binary search whose first probe is the model prediction.
    #[default]
    ModelBiasedBinary,
    /// Quaternary search seeded at `pos − σ, pos, pos + σ`.
    BiasedQuaternary,
    /// Exponential (galloping) search from the prediction.
    Exponential,
    /// Plain binary search over the error window.
    FullBinary,
}

impl SearchStrategy {
    /// All strategies, for grid sweeps and ablation benches.
    pub const ALL: [SearchStrategy; 4] = [
        SearchStrategy::ModelBiasedBinary,
        SearchStrategy::BiasedQuaternary,
        SearchStrategy::Exponential,
        SearchStrategy::FullBinary,
    ];

    /// Short display name.
    pub fn name(&self) -> &'static str {
        match self {
            SearchStrategy::ModelBiasedBinary => "biased-binary",
            SearchStrategy::BiasedQuaternary => "biased-quaternary",
            SearchStrategy::Exponential => "exponential",
            SearchStrategy::FullBinary => "binary",
        }
    }

    /// Stable on-disk tag for the persistence format (v1). Tags are
    /// append-only: existing values never change meaning.
    pub fn to_tag(self) -> u8 {
        match self {
            SearchStrategy::ModelBiasedBinary => 0,
            SearchStrategy::BiasedQuaternary => 1,
            SearchStrategy::Exponential => 2,
            SearchStrategy::FullBinary => 3,
        }
    }

    /// Inverse of [`SearchStrategy::to_tag`]; `None` for unknown tags
    /// (a newer writer or a corrupt manifest).
    pub fn from_tag(tag: u8) -> Option<Self> {
        match tag {
            0 => Some(SearchStrategy::ModelBiasedBinary),
            1 => Some(SearchStrategy::BiasedQuaternary),
            2 => Some(SearchStrategy::Exponential),
            3 => Some(SearchStrategy::FullBinary),
            _ => None,
        }
    }

    /// Find the lower bound of `key` within `data[lo..hi]`, exploiting
    /// the model's position estimate `pos` and error std `sigma`.
    /// Result is only locally correct; callers use
    /// [`search_with_widening`] for global correctness.
    #[inline]
    pub fn search(
        &self,
        data: &[u64],
        key: u64,
        pos: usize,
        sigma: usize,
        lo: usize,
        hi: usize,
    ) -> usize {
        debug_assert!(lo <= hi && hi <= data.len());
        match self {
            SearchStrategy::ModelBiasedBinary => biased_binary(data, key, pos, lo, hi),
            SearchStrategy::BiasedQuaternary => biased_quaternary(data, key, pos, sigma, lo, hi),
            SearchStrategy::Exponential => {
                // The gallop itself establishes a correct bracket inside
                // [0, n), so it ignores the window by design (§3.4: "not
                // requiring to store any min- and max-errors").
                exponential_search(data, key, pos)
            }
            SearchStrategy::FullBinary => lower_bound(data, key, lo, hi),
        }
    }
}

/// Binary search with the first middle point at the model prediction.
#[inline]
fn biased_binary(data: &[u64], key: u64, pos: usize, mut lo: usize, mut hi: usize) -> usize {
    // First probe at the prediction: if the model is good this halves the
    // remaining window to ~error rather than ~(hi-lo)/2.
    if lo < hi {
        let mid = pos.clamp(lo, hi - 1);
        if data[mid] < key {
            lo = mid + 1;
        } else {
            hi = mid;
        }
    }
    lower_bound(data, key, lo, hi)
}

/// Quaternary search seeded with `pos − σ, pos, pos + σ` (the paper's
/// "we make a guess that most of our predictions are accurate and focus
/// our attention first around the position estimate").
#[inline]
fn biased_quaternary(
    data: &[u64],
    key: u64,
    pos: usize,
    sigma: usize,
    mut lo: usize,
    mut hi: usize,
) -> usize {
    let sigma = sigma.max(1);
    // Initial three probes (conceptually prefetched together).
    if lo < hi {
        let p1 = pos.saturating_sub(sigma).clamp(lo, hi - 1);
        let p2 = pos.clamp(lo, hi - 1);
        let p3 = (pos + sigma).clamp(lo, hi - 1);
        // Narrow [lo, hi) using the three probes.
        if data[p1] >= key {
            hi = p1;
        } else if data[p2] >= key {
            lo = p1 + 1;
            hi = p2;
        } else if data[p3] >= key {
            lo = p2 + 1;
            hi = p3;
        } else {
            lo = p3 + 1;
        }
    }
    // Continue with classic quaternary: three split points per round.
    while hi - lo > 3 {
        let q = (hi - lo) / 4;
        let (m1, m2, m3) = (lo + q, lo + 2 * q, lo + 3 * q);
        if data[m1] >= key {
            hi = m1;
        } else if data[m2] >= key {
            lo = m1 + 1;
            hi = m2;
        } else if data[m3] >= key {
            lo = m2 + 1;
            hi = m3;
        } else {
            lo = m3 + 1;
        }
    }
    lower_bound(data, key, lo, hi)
}

/// Exact lower bound using a strategy plus the §3.4 automatic
/// search-area adjustment: if the local result lies on a window boundary
/// that cannot be certified against the neighboring element, the window
/// is doubled and the search retried. Converges in O(log n) widenings;
/// with a monotonic model it never widens for stored keys.
#[inline]
pub fn search_with_widening(
    data: &[u64],
    key: u64,
    strategy: SearchStrategy,
    pos: usize,
    sigma: usize,
    mut lo: usize,
    mut hi: usize,
) -> usize {
    let n = data.len();
    lo = lo.min(n);
    hi = hi.min(n);
    if lo > hi {
        std::mem::swap(&mut lo, &mut hi);
    }
    loop {
        let r = strategy.search(data, key, pos, sigma, lo, hi);
        // Certify the boundaries:
        //  - r > lo: some element in-window is < key, left edge is safe.
        //    r == lo is also safe when lo == 0 or data[lo-1] < key.
        let left_ok = r > lo || lo == 0 || data[lo - 1] < key;
        //  - r < hi: some in-window element >= key, right edge safe.
        //    r == hi is also safe when hi == n or data[hi] >= key (then
        //    hi itself is the first >= key).
        let right_ok = r < hi || hi == n || data[hi] >= key;
        if left_ok && right_ok {
            return r;
        }
        // Widen: double the window around the prediction.
        let width = (hi - lo).max(8);
        lo = if left_ok {
            lo
        } else {
            lo.saturating_sub(width)
        };
        hi = if right_ok { hi } else { (hi + width).min(n) };
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn oracle(data: &[u64], key: u64) -> usize {
        data.partition_point(|&k| k < key)
    }

    fn data_sets() -> Vec<Vec<u64>> {
        vec![
            vec![],
            vec![10],
            (0..100u64).map(|i| i * 3).collect(),
            (0..1000u64).map(|i| i * i / 7 + i).collect(),
        ]
    }

    #[test]
    fn all_strategies_exact_with_correct_window() {
        for data in data_sets() {
            let n = data.len();
            for strategy in SearchStrategy::ALL {
                for q in (0..3100u64).step_by(7) {
                    let ans = oracle(&data, q);
                    // Window centered on the truth with slack.
                    let lo = ans.saturating_sub(5);
                    let hi = (ans + 5).min(n);
                    let r = search_with_widening(&data, q, strategy, ans.min(n), 3, lo, hi);
                    assert_eq!(r, ans, "{} q={q} n={n}", strategy.name());
                }
            }
        }
    }

    #[test]
    fn widening_recovers_from_arbitrarily_wrong_windows() {
        let data: Vec<u64> = (0..5000u64).map(|i| i * 2 + 1).collect();
        for strategy in SearchStrategy::ALL {
            for q in [0u64, 1, 4999, 5000, 9999, 10_001, 100_000] {
                let ans = oracle(&data, q);
                // Deliberately wrong windows.
                for (pos, lo, hi) in [
                    (0usize, 0usize, 1usize),
                    (4999, 4999, 5000),
                    (2500, 2400, 2401),
                    (0, 0, 0),
                    (4999, 5000, 5000),
                ] {
                    let r = search_with_widening(&data, q, strategy, pos, 2, lo, hi);
                    assert_eq!(r, ans, "{} q={q} window=({lo},{hi})", strategy.name());
                }
            }
        }
    }

    #[test]
    fn biased_binary_first_probe_helps_exact_predictions() {
        // With pos == answer the first probe immediately certifies one
        // side; correctness is what we check here.
        let data: Vec<u64> = (0..1000u64).map(|i| i * 10).collect();
        for q in (0..10_000u64).step_by(11) {
            let ans = oracle(&data, q);
            let r = search_with_widening(
                &data,
                q,
                SearchStrategy::ModelBiasedBinary,
                ans.min(data.len().saturating_sub(1)),
                1,
                0,
                data.len(),
            );
            assert_eq!(r, ans);
        }
    }

    #[test]
    fn quaternary_handles_degenerate_sigma_and_windows() {
        let data: Vec<u64> = (0..50u64).collect();
        for q in 0..55u64 {
            let ans = oracle(&data, q);
            for sigma in [0usize, 1, 100] {
                let r = search_with_widening(
                    &data,
                    q,
                    SearchStrategy::BiasedQuaternary,
                    25,
                    sigma,
                    0,
                    data.len(),
                );
                assert_eq!(r, ans, "q={q} sigma={sigma}");
            }
        }
    }

    #[test]
    fn empty_data_returns_zero() {
        for strategy in SearchStrategy::ALL {
            assert_eq!(search_with_widening(&[], 5, strategy, 0, 1, 0, 0), 0);
        }
    }

    #[test]
    fn inverted_window_is_repaired() {
        let data: Vec<u64> = (0..100u64).collect();
        let r = search_with_widening(&data, 42, SearchStrategy::FullBinary, 42, 1, 80, 20);
        assert_eq!(r, 42);
    }
}
