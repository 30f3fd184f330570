//! Property suite for RMI training and buffer merges. Training routes
//! the sorted keys once per stage (galloping where routing is provably
//! monotone), fits every model with the lane-parallel position fit and
//! measures each leaf's error envelope over its runs of keys. Over many
//! key shapes and leaf counts:
//!
//! - every leaf's key count and exact error envelope equal what routing
//!   each key on its own through `leaf_for` and `predict` gives, so the
//!   runs training used are the runs a per-key scan finds;
//! - the top model and every leaf model match the exact two-pass
//!   least-squares line over their keys;
//! - a merged `DeltaIndex` holds the oracle's keys and the very model a
//!   fresh `Rmi::build` over them trains.

use std::collections::{BTreeSet, HashMap};

use learned_indexes::data::{Dataset, Gauntlet};
use learned_indexes::rmi::{DeltaIndex, LeafModelParams, LeafParams, Rmi, RmiConfig, TopModel};
use learned_indexes::RangeIndex;
use proptest::prelude::*;

/// A sorted unique key set of one of nine shapes: lognormal, each
/// gauntlet family, a cluster with outliers at both ends, keys within
/// 2^11 of `u64::MAX` above a dense run, and uniform u64s.
fn keyset(shape: usize, n: usize, seed: u64) -> Vec<u64> {
    if n == 0 {
        return Vec::new();
    }
    let mut keys = match shape {
        0 => Dataset::Lognormal.generate(n, seed).keys().to_vec(),
        1..=5 => Gauntlet::ALL[shape - 1].generate(n, seed),
        6 => {
            let mut keys: Vec<u64> = (0..n as u64).map(|i| (1 << 40) + 5 * i).collect();
            keys.extend([1, seed % 1000 + 2, 1 << 62, u64::MAX]);
            keys
        }
        7 => {
            let mut keys: Vec<u64> = (0..n as u64).map(|i| seed + 11 * i).collect();
            keys.extend((0..n.min(2048) as u64).map(|i| u64::MAX - 2047 + i));
            keys
        }
        _ => {
            let mut x = seed | 1;
            (0..n)
                .map(|_| {
                    x ^= x << 13;
                    x ^= x >> 7;
                    x ^= x << 17;
                    x
                })
                .collect()
        }
    };
    keys.sort_unstable();
    keys.dedup();
    keys
}

/// The least-squares line through `(key as f64, first + i)` by the
/// centred two-pass formula, centred in integers (every f64 key is an
/// integer): returns the line as a predictor, and its slope.
fn two_pass(keys: &[u64], first: usize) -> (impl Fn(u64) -> f64, f64) {
    let n = keys.len() as f64;
    let x0 = keys[0] as f64 as i128;
    let dev = move |k: u64| (k as f64 as i128 - x0) as f64;
    let mean_dx = keys.iter().map(|&k| k as f64 as i128 - x0).sum::<i128>() as f64 / n;
    let mean_y = first as f64 + (n - 1.0) / 2.0;
    let (mut var_x, mut cov_xy) = (0.0f64, 0.0f64);
    for (i, &k) in keys.iter().enumerate() {
        let dx = dev(k) - mean_dx;
        var_x += dx * dx;
        cov_xy += dx * ((first + i) as f64 - mean_y);
    }
    let slope = if var_x > 0.0 { cov_xy / var_x } else { 0.0 };
    (move |k: u64| mean_y + slope * (dev(k) - mean_dx), slope)
}

/// `(slope, intercept)` predicts what the two-pass line over `keys` at
/// positions `first..` predicts, up to f64 rounding at each key.
fn assert_fit_matches(
    keys: &[u64],
    first: usize,
    (slope, intercept): (f64, f64),
    what: &str,
) -> Result<(), TestCaseError> {
    let (want, want_slope) = two_pass(keys, first);
    prop_assert!(
        (slope - want_slope).abs() <= 1e-9 * want_slope.abs(),
        "{}: slope {} vs two-pass {}",
        what,
        slope,
        want_slope
    );
    for &k in keys {
        let x = k as f64;
        let got = slope * x + intercept;
        let rounding = 4.0 * f64::EPSILON * ((slope * x).abs() + intercept.abs());
        prop_assert!(
            (got - want(k)).abs() <= 1e-6 + rounding,
            "{}: at key {} fit {} vs two-pass {}",
            what,
            k,
            got,
            want(k)
        );
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Leaf key counts and error envelopes equal a per-key routing of
    /// every key: a two-stage linear RMI (galloped routing) and a
    /// three-stage one (scanned routing).
    #[test]
    fn leaves_match_a_per_key_routing(
        shape in 0usize..9,
        n in 0usize..6_000,
        seed in any::<u64>(),
        leaves in 1usize..3_000,
    ) {
        let keys = keyset(shape, n, seed);
        let configs = [
            RmiConfig::two_stage(TopModel::Linear, leaves),
            RmiConfig { stages: vec![leaves / 64 + 1, leaves], ..RmiConfig::default() },
        ];
        for cfg in &configs {
            let rmi = Rmi::build(keys.clone(), cfg);
            // Route every key on its own, grouping the keys by the leaf
            // they reach: each group must be exactly what training
            // recorded in that leaf.
            let mut groups: HashMap<*const LeafParams, (&LeafParams, i64, i64, u64)> =
                HashMap::new();
            for (i, &k) in keys.iter().enumerate() {
                let leaf = rmi.leaf_for(k);
                let e = i as i64 - rmi.predict(k).pos as i64;
                let g = groups
                    .entry(std::ptr::from_ref(leaf))
                    .or_insert((leaf, i64::MAX, i64::MIN, 0));
                *g = (leaf, g.1.min(e), g.2.max(e), g.3 + 1);
            }
            for (leaf, min_err, max_err, count) in groups.values() {
                prop_assert_eq!(leaf.n_keys, *count, "shape {}: {:?}", shape, leaf);
                prop_assert_eq!((leaf.min_err, leaf.max_err), (*min_err, *max_err), "shape {}: {:?}", shape, leaf);
            }
            // The groups hold every key, so no leaf counts keys that
            // route elsewhere.
            let with_keys = rmi.to_params().expect("linear top").leaves.iter().filter(|l| l.n_keys > 0).count();
            prop_assert_eq!(groups.len(), with_keys, "shape {}", shape);
        }
    }

    /// The top model and every leaf model of a two-stage linear RMI
    /// match the exact two-pass least-squares line over their keys.
    #[test]
    fn models_match_the_two_pass_reference(
        shape in 0usize..9,
        n in 2usize..6_000,
        seed in any::<u64>(),
        leaves in 1usize..500,
    ) {
        let keys = keyset(shape, n, seed);
        let rmi = Rmi::build(keys.clone(), &RmiConfig::two_stage(TopModel::Linear, leaves));
        let params = rmi.to_params().expect("linear top");
        assert_fit_matches(&keys, 0, params.top, "top")?;
        // Monotone routing: each leaf's keys are one contiguous run, in
        // leaf order.
        let mut first = 0usize;
        for (j, leaf) in params.leaves.iter().enumerate() {
            let count = leaf.n_keys as usize;
            if count > 0 {
                let LeafModelParams::Linear { slope, intercept } = leaf.model else {
                    unreachable!("no hybrid leaves");
                };
                let run = &keys[first..first + count];
                assert_fit_matches(run, first, (slope, intercept), &format!("leaf {j}"))?;
            }
            first += count;
        }
        prop_assert_eq!(first, keys.len());
    }

    /// A merge hands `Rmi::build` exactly the oracle's keys: the merged
    /// index holds them and carries the parameters of a fresh build.
    #[test]
    fn merged_index_is_a_fresh_build_over_the_oracle(
        shape in 0usize..9,
        n in 0usize..3_000,
        seed in any::<u64>(),
        inserts in prop::collection::vec(any::<u64>(), 0..400),
        near_keys in 0usize..200,
    ) {
        let base = keyset(shape, n, seed);
        let cfg = RmiConfig::two_stage(TopModel::Linear, 64);
        let mut idx = DeltaIndex::new(base.clone(), cfg.clone(), 1 << 20);
        let mut oracle: BTreeSet<u64> = base.iter().copied().collect();
        // Arbitrary keys, the domain ends, and keys right beside base
        // keys (adjacent to each other and to the base).
        let mut stream = inserts;
        stream.extend([0, 1, u64::MAX - 1, u64::MAX]);
        stream.extend(base.iter().take(near_keys).flat_map(|&k| [k.wrapping_add(1), k.wrapping_add(2)]));
        for k in stream {
            prop_assert_eq!(idx.insert(k), oracle.insert(k), "insert {}", k);
        }
        idx.merge();
        let want: Vec<u64> = oracle.into_iter().collect();
        prop_assert_eq!(&idx.export_keys(), &want);
        let fresh = Rmi::build(want.clone(), &cfg);
        prop_assert_eq!(idx.snapshot().base_index().to_params(), fresh.to_params());
        for q in want.iter().step_by(7).flat_map(|&k| [k.saturating_sub(1), k, k.saturating_add(1)]) {
            prop_assert_eq!(idx.rank(q), want.partition_point(|&k| k < q), "q={}", q);
        }
    }
}
