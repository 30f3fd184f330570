//! Seeded input generation and input fingerprints.
//!
//! Every input is a pure function of a seed, so two runs with one
//! `--seed` measure the same keys and the same operation stream; the
//! fingerprints printed with each run prove it.

use li_data::{Dataset, Gauntlet, SplitMix64};

/// Keys of the base structure in every workload.
pub const BASE_KEYS: usize = 2_000_000;

/// Independent generator streams derived from one seed.
pub fn rng(seed: u64, stream: u64) -> SplitMix64 {
    SplitMix64::new(seed ^ stream.wrapping_mul(0x9E37_79B9_7F4A_7C15))
}

/// Sorted unique lognormal keys (the paper's synthetic dataset).
pub fn lognormal(n: usize, seed: u64) -> Vec<u64> {
    Dataset::Lognormal.generate(n, seed).keys().to_vec()
}

/// Existing keys drawn uniformly with replacement, in scrambled order.
pub fn uniform_existing(keys: &[u64], n: usize, seed: u64) -> Vec<u64> {
    let mut r = rng(seed, 1);
    (0..n).map(|_| keys[r.below(keys.len())]).collect()
}

/// The five gauntlet families laid end to end in disjoint key ranges,
/// `n / 5` keys each (the duplicate-heavy family keeps its duplicates).
pub fn gauntlet(n: usize, seed: u64) -> Vec<u64> {
    let per = n / Gauntlet::ALL.len();
    let mut out: Vec<u64> = Vec::with_capacity(n);
    for (i, g) in Gauntlet::ALL.iter().enumerate() {
        let part = g.generate(per, seed.wrapping_add(i as u64));
        // Shift the family so it starts just above the previous one.
        let base = out.last().map_or(0, |&k| k + 1);
        let lo = part[0];
        out.extend(part.iter().map(|&k| base + (k - lo)));
    }
    out
}

/// Existing keys drawn from a hot set of `hot` keys picked uniformly
/// at random (so it spans every shard), with Zipf(`s`) popularity over
/// the hot set's ranks.
pub fn zipf_existing(keys: &[u64], n: usize, hot: usize, s: f64, seed: u64) -> Vec<u64> {
    let mut r = rng(seed, 2);
    let set: Vec<u64> = (0..hot).map(|_| keys[r.below(keys.len())]).collect();
    let mut cdf = Vec::with_capacity(hot);
    let mut acc = 0.0f64;
    for rank in 0..hot {
        acc += 1.0 / ((rank + 1) as f64).powf(s);
        cdf.push(acc);
    }
    (0..n)
        .map(|_| {
            let u = r.next_f64() * acc;
            set[cdf.partition_point(|&c| c < u).min(hot - 1)]
        })
        .collect()
}

/// `n` distinct keys absent from sorted `keys`, drawn uniformly below
/// the largest key, in random order.
pub fn fresh_keys(keys: &[u64], n: usize, seed: u64) -> Vec<u64> {
    let top = keys.last().copied().unwrap_or(u64::MAX);
    let mut r = rng(seed, 3);
    let mut seen = std::collections::HashSet::with_capacity(n);
    let mut out = Vec::with_capacity(n);
    while out.len() < n {
        let k = r.next_u64() % top;
        if keys.binary_search(&k).is_err() && seen.insert(k) {
            out.push(k);
        }
    }
    out
}

/// FNV-1a 64 over a sequence of `u64`s.
pub fn fingerprint(values: impl IntoIterator<Item = u64>) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for v in values {
        for b in v.to_le_bytes() {
            h ^= b as u64;
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn inputs_are_a_function_of_the_seed() {
        let keys = lognormal(10_000, 5);
        assert_eq!(keys, lognormal(10_000, 5));
        assert_ne!(keys, lognormal(10_000, 6));
        assert_eq!(
            fingerprint(uniform_existing(&keys, 100, 5)),
            fingerprint(uniform_existing(&keys, 100, 5))
        );
        assert_ne!(
            fingerprint(zipf_existing(&keys, 100, 64, 0.99, 5)),
            fingerprint(zipf_existing(&keys, 100, 64, 0.99, 6))
        );
    }

    #[test]
    fn gauntlet_families_are_sorted_and_disjoint() {
        let keys = gauntlet(50_000, 3);
        assert_eq!(keys.len(), 50_000);
        assert!(keys.windows(2).all(|w| w[0] <= w[1]));
        assert!(
            keys.windows(2).any(|w| w[0] == w[1]),
            "heavy-dup keeps duplicates"
        );
        assert!(*keys.last().unwrap() < 1u64 << 53, "f64-exact key range");
    }

    #[test]
    fn full_size_gauntlet_stays_f64_exact() {
        let keys = gauntlet(BASE_KEYS, 1);
        assert_eq!(keys.len(), BASE_KEYS);
        assert!(
            *keys.last().unwrap() < 1u64 << 53,
            "max {}",
            keys.last().unwrap()
        );
    }

    #[test]
    fn fresh_keys_are_new_and_distinct() {
        let keys = lognormal(10_000, 1);
        let fresh = fresh_keys(&keys, 5_000, 1);
        let mut sorted = fresh.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), fresh.len());
        assert!(fresh.iter().all(|k| keys.binary_search(k).is_err()));
    }

    #[test]
    fn zipf_stays_in_a_skewed_hot_set() {
        let keys: Vec<u64> = (0..100_000u64).collect();
        let q = zipf_existing(&keys, 50_000, 1000, 0.99, 9);
        let mut distinct = q.clone();
        distinct.sort_unstable();
        distinct.dedup();
        assert!(distinct.len() <= 1000);
        let mut counts = std::collections::HashMap::new();
        for &k in &q {
            *counts.entry(k).or_insert(0usize) += 1;
        }
        // The top rank carries ~13% of Zipf(0.99) mass over 1000 ranks.
        let top = counts.values().copied().max().unwrap();
        assert!(top > q.len() / 20, "top key drew {top} of {}", q.len());
    }
}
