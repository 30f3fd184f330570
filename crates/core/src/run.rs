//! Immutable sorted runs — the middle tier of the LSM-style write path.
//!
//! When a [`DeltaIndex`](crate::delta::DeltaIndex) buffer fills in tiered
//! mode it is *sealed* into a [`SortedRun`] instead of being merged into
//! the base: the keys are frozen as-is and a cheap linear mini-model is
//! fitted over them in one O(run) pass. Sealing never retrains the base
//! RMI — that cost is deferred to background compaction, which folds many
//! runs into the base with a single retrain. This is exactly the
//! memtable-flush / SSTable split LSM-trees use, applied to the paper's
//! delta-buffer insert path (Appendix D.1).
//!
//! A run's mini-model is a [`LinearModel`] over (key → index) with a
//! certified maximum error, so point and lower-bound probes search only a
//! `±(max_err + 1)` window — the same bounded-search contract the full
//! RMI provides, at a fraction of the fit cost. Fitting a run does **not**
//! count as a training event ([`crate::rmi::train_count`] stays flat), so
//! the persistence layer can refit mini-models on load while still
//! proving the base was never retrained.

use std::sync::Arc;

use li_models::{LinearModel, Model};

/// An immutable sorted unique key run with a linear mini-model.
///
/// Runs are born from sealing a full delta buffer and are shared via
/// `Arc` between the live index and its snapshots, which is what makes
/// multi-tier snapshots torn-free: once sealed, a run never changes.
///
/// # Examples
/// ```
/// use li_core::run::SortedRun;
///
/// let run = SortedRun::seal(vec![10u64, 20, 30, 40]);
/// assert_eq!(run.len(), 4);
/// assert!(run.contains(30));
/// assert_eq!(run.lower_bound(25), 2);
/// assert_eq!(run.range(15, 35), &[20, 30]);
/// ```
#[derive(Debug, Clone)]
pub struct SortedRun {
    keys: Arc<[u64]>,
    model: LinearModel,
    max_err: usize,
}

impl SortedRun {
    /// Seal sorted unique `keys` into an immutable run, fitting the
    /// linear mini-model and certifying its maximum absolute error in
    /// one extra pass. O(keys) total — never a base retrain, and not a
    /// training event for [`crate::rmi::train_count`].
    ///
    /// # Panics
    /// In debug builds, if `keys` is not strictly sorted.
    ///
    /// # Examples
    /// ```
    /// use li_core::run::SortedRun;
    ///
    /// let before = li_core::train_count();
    /// let run = SortedRun::seal(vec![1u64, 5, 9]);
    /// assert_eq!(li_core::train_count(), before, "sealing never trains");
    /// assert_eq!(run.as_slice(), &[1, 5, 9]);
    /// ```
    pub fn seal(keys: impl Into<Arc<[u64]>>) -> Self {
        let keys: Arc<[u64]> = keys.into();
        debug_assert!(
            keys.windows(2).all(|w| w[0] < w[1]),
            "a run must be sorted unique"
        );
        let model = LinearModel::fit_positions([(0, &keys[..])]);
        let mut max_err = 0usize;
        for (i, &k) in keys.iter().enumerate() {
            let pred = clamp_pred(model.predict(k as f64), keys.len());
            max_err = max_err.max(pred.abs_diff(i));
        }
        Self {
            keys,
            model,
            max_err,
        }
    }

    /// Number of keys in the run.
    pub fn len(&self) -> usize {
        self.keys.len()
    }

    /// Whether the run holds no keys.
    pub fn is_empty(&self) -> bool {
        self.keys.is_empty()
    }

    /// The run's keys, sorted unique.
    pub fn as_slice(&self) -> &[u64] {
        &self.keys
    }

    /// The certified maximum absolute error of the mini-model: every
    /// key's true index is within `max_err` of its prediction.
    pub fn max_err(&self) -> usize {
        self.max_err
    }

    /// Index of the first key `>= key` (the run-local lower-bound rank).
    ///
    /// The mini-model predicts a position and only the certified
    /// `±(max_err + 1)` window is binary-searched; a boundary check
    /// widens the window exponentially in the (never observed in
    /// practice) case where an off-window query key defeats the linear
    /// error bound, so the answer is exact for every input.
    ///
    /// # Examples
    /// ```
    /// use li_core::run::SortedRun;
    ///
    /// let run = SortedRun::seal(vec![10u64, 20, 30]);
    /// assert_eq!(run.lower_bound(0), 0);
    /// assert_eq!(run.lower_bound(20), 1);
    /// assert_eq!(run.lower_bound(21), 2);
    /// assert_eq!(run.lower_bound(u64::MAX), 3);
    /// ```
    pub fn lower_bound(&self, key: u64) -> usize {
        let n = self.keys.len();
        if n == 0 {
            return 0;
        }
        let pred = clamp_pred(self.model.predict(key as f64), n);
        let pad = self.max_err + 1;
        let mut lo = pred.saturating_sub(pad);
        let mut hi = (pred + pad).min(n);
        // Widen until the window brackets the answer: the result index r
        // satisfies lo <= r iff keys[lo-1] < key (or lo == 0), and
        // r <= hi iff keys[hi] >= key (or hi == n).
        let mut step = pad;
        while lo > 0 && self.keys[lo - 1] >= key {
            lo = lo.saturating_sub(step);
            step = step.saturating_mul(2);
        }
        let mut step = pad;
        while hi < n && self.keys[hi] < key {
            hi = (hi + step).min(n);
            step = step.saturating_mul(2);
        }
        lo + self.keys[lo..hi].partition_point(|&k| k < key)
    }

    /// Whether `key` is in the run (one mini-model-windowed probe).
    pub fn contains(&self, key: u64) -> bool {
        let at = self.lower_bound(key);
        self.keys.get(at) == Some(&key)
    }

    /// All run keys in `[lo, hi)` as a sorted subslice (zero-copy).
    pub fn range(&self, lo: u64, hi: u64) -> &[u64] {
        if lo >= hi {
            return &[];
        }
        let a = self.lower_bound(lo);
        let b = self.lower_bound(hi);
        &self.keys[a..b]
    }
}

/// Clamp a raw model prediction to a valid index in `[0, n)`, mapping
/// NaN/negative/overflow predictions to in-range positions.
fn clamp_pred(pred: f64, n: usize) -> usize {
    if !pred.is_finite() {
        return n / 2;
    }
    // `n >= 1` at every call site (empty runs return early).
    pred.max(0.0).min((n - 1) as f64) as usize
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seal_probes_exactly() {
        let keys: Vec<u64> = (0..500u64).map(|i| i * i * 7 + 3).collect();
        let run = SortedRun::seal(keys.clone());
        assert_eq!(run.len(), 500);
        for (i, &k) in keys.iter().enumerate() {
            assert_eq!(run.lower_bound(k), i, "key {k}");
            assert!(run.contains(k));
            assert!(!run.contains(k + 1) || keys.binary_search(&(k + 1)).is_ok());
        }
    }

    #[test]
    fn lower_bound_matches_partition_point_for_arbitrary_queries() {
        let keys: Vec<u64> = (0..300u64).map(|i| i * 1000 + (i % 7) * 13).collect();
        let run = SortedRun::seal(keys.clone());
        for q in (0..310_000u64).step_by(311) {
            assert_eq!(
                run.lower_bound(q),
                keys.partition_point(|&k| k < q),
                "q={q}"
            );
        }
        assert_eq!(run.lower_bound(u64::MAX), keys.len());
        assert_eq!(run.lower_bound(0), 0);
    }

    #[test]
    fn empty_and_singleton_runs() {
        let empty = SortedRun::seal(Vec::<u64>::new());
        assert!(empty.is_empty());
        assert_eq!(empty.lower_bound(5), 0);
        assert!(!empty.contains(5));
        assert_eq!(empty.range(0, u64::MAX), &[] as &[u64]);

        let one = SortedRun::seal(vec![42u64]);
        assert_eq!(one.lower_bound(41), 0);
        assert_eq!(one.lower_bound(42), 0);
        assert_eq!(one.lower_bound(43), 1);
        assert!(one.contains(42) && !one.contains(43));
    }

    #[test]
    fn extreme_keys_stay_exact() {
        let keys = vec![0u64, 1, u64::MAX - 1, u64::MAX];
        let run = SortedRun::seal(keys.clone());
        for (i, &k) in keys.iter().enumerate() {
            assert_eq!(run.lower_bound(k), i, "key {k}");
            assert!(run.contains(k));
        }
        assert_eq!(run.lower_bound(2), 2);
        assert!(!run.contains(2));
    }

    #[test]
    fn range_is_a_correct_subslice() {
        let keys: Vec<u64> = (0..100u64).map(|i| i * 10).collect();
        let run = SortedRun::seal(keys);
        assert_eq!(run.range(15, 45), &[20, 30, 40]);
        assert_eq!(run.range(0, 1), &[0]);
        assert_eq!(run.range(995, u64::MAX), &[]);
        assert_eq!(run.range(50, 50), &[]);
        assert_eq!(run.range(60, 50), &[]);
    }

    #[test]
    fn sealing_is_not_a_training_event() {
        let before = crate::rmi::train_count();
        let _run = SortedRun::seal((0..10_000u64).collect::<Vec<_>>());
        assert_eq!(crate::rmi::train_count(), before);
    }

    #[test]
    fn mini_model_window_is_tight_on_smooth_data() {
        let keys: Vec<u64> = (0..10_000u64).map(|i| i * 17).collect();
        let run = SortedRun::seal(keys);
        assert!(run.max_err() <= 1, "max_err {}", run.max_err());
    }
}
