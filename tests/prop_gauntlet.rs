//! Property suite: the adaptive backend selector on the adversarial
//! gauntlet. Whatever backend mix `Backend::Auto` picks — per shard,
//! per distribution — the resulting structure must be observationally
//! identical to a flat sorted array / `BTreeSet` oracle: selection is
//! an optimization, never a semantics change. Runs every gauntlet
//! distribution (`li_data::gauntlet`) × shard counts {1, 4, 8}, plus
//! the degenerate keysets (empty, single, all-duplicate, `u64::MAX`).
//!
//! `PROPTEST_CASES` deepens the sweep (CI runs a 256-case pass).

use std::collections::BTreeSet;

use learned_indexes::data::Gauntlet;
use learned_indexes::serve::{
    Backend, RangeIndex, RebalanceConfig, ShardedIndex, ShardedWritable, ShardedWritableConfig,
};
use proptest::prelude::*;

const SHARD_COUNTS: [usize; 3] = [1, 4, 8];

fn oracle_lower_bound(data: &[u64], q: u64) -> usize {
    data.partition_point(|&k| k < q)
}

/// Probe keys that stress boundaries: every 7th key ± 1, the global
/// extremes, and shard-boundary neighborhoods.
fn probes(data: &[u64]) -> Vec<u64> {
    let mut qs = vec![0u64, 1, u64::MAX, u64::MAX - 1];
    for &k in data.iter().step_by(7) {
        qs.extend_from_slice(&[k.saturating_sub(1), k, k.saturating_add(1)]);
    }
    if let (Some(&first), Some(&last)) = (data.first(), data.last()) {
        qs.extend_from_slice(&[first, last, last.saturating_add(1)]);
    }
    qs
}

fn assert_index_matches_oracle(
    idx: &ShardedIndex,
    data: &[u64],
    ctx: &str,
) -> Result<(), TestCaseError> {
    for q in probes(data) {
        prop_assert_eq!(
            idx.lower_bound(q),
            oracle_lower_bound(data, q),
            "{} q={}",
            ctx,
            q
        );
    }
    Ok(())
}

/// A write-path config that exercises the selector: low thresholds so
/// inserts trigger merges, splits and (tiered) compactions — each of
/// which re-runs selection under `Backend::Auto`.
fn auto_write_config() -> ShardedWritableConfig {
    ShardedWritableConfig {
        merge_threshold: 32,
        leaf_fraction: 1.0 / 16.0,
        check_interval: 64,
        backend: Backend::Auto,
        rebalance: RebalanceConfig {
            max_shard_len: 4096,
            merge_max_len: 16,
            max_mean_err: None,
            max_shards: 12,
        },
        ..ShardedWritableConfig::default()
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Read tier: an auto-selected `ShardedIndex` over every gauntlet
    /// distribution answers `lower_bound` exactly like the flat sorted
    /// array, at every shard count.
    #[test]
    fn auto_sharded_index_matches_the_flat_oracle(
        seed in any::<u64>(),
        n in 1usize..3000,
    ) {
        for dist in Gauntlet::ALL {
            let data = dist.generate(n, seed);
            for shards in SHARD_COUNTS {
                let idx = ShardedIndex::build(data.clone(), shards, &Backend::Auto);
                assert_index_matches_oracle(
                    &idx,
                    &data,
                    &format!("{} n={n} shards={shards} seed={seed}", dist.name()),
                )?;
            }
        }
    }

    /// Write tier: a `Backend::Auto` `ShardedWritable` seeded from a
    /// gauntlet distribution and fed a fresh insert stream answers
    /// `contains`/`rank`/`len` exactly like a `BTreeSet`, at every
    /// shard count — across the merges/splits the stream provokes
    /// (each of which re-runs selection).
    #[test]
    fn auto_sharded_writable_matches_a_btreeset_oracle(
        seed in any::<u64>(),
        n in 1usize..600,
        inserts in prop::collection::vec(any::<u64>(), 0..150),
    ) {
        for dist in Gauntlet::ALL {
            // The write tier is a set: dedup the seed keyset.
            let mut data = dist.generate(n, seed);
            data.dedup();
            for shards in SHARD_COUNTS {
                let sw = ShardedWritable::new(data.clone(), shards, auto_write_config());
                let mut oracle: BTreeSet<u64> = data.iter().copied().collect();
                for &k in &inserts {
                    prop_assert_eq!(sw.insert(k), oracle.insert(k), "insert {}", k);
                }
                prop_assert_eq!(sw.len(), oracle.len());
                for q in probes(&data).into_iter().chain(inserts.iter().copied()) {
                    prop_assert_eq!(
                        sw.contains(q),
                        oracle.contains(&q),
                        "{} contains {} shards={} seed={}", dist.name(), q, shards, seed
                    );
                    prop_assert_eq!(
                        sw.rank(q),
                        oracle.range(..q).count(),
                        "{} rank {} shards={} seed={}", dist.name(), q, shards, seed
                    );
                }
            }
        }
    }
}

/// Degenerate keysets the selector must survive at every shard count:
/// empty, single key, all-duplicate, and `u64::MAX`-adjacent.
#[test]
fn auto_handles_degenerate_keysets() {
    let cases: Vec<(&str, Vec<u64>)> = vec![
        ("empty", vec![]),
        ("single", vec![42]),
        ("single-max", vec![u64::MAX]),
        ("all-duplicate", vec![7; 500]),
        ("max-adjacent", vec![0, 1, u64::MAX - 1, u64::MAX]),
        (
            "dup-run-and-max",
            (0..300u64)
                .map(|i| (i / 50) * 1000)
                .chain([u64::MAX])
                .collect(),
        ),
    ];
    for (name, data) in &cases {
        for shards in SHARD_COUNTS {
            let idx = ShardedIndex::build(data.clone(), shards, &Backend::Auto);
            for q in probes(data) {
                assert_eq!(
                    idx.lower_bound(q),
                    oracle_lower_bound(data, q),
                    "{name} shards={shards} q={q}"
                );
            }
        }
    }
}

/// The write tier's degenerate cases (unique keysets only — it is a
/// set): growth from empty through the selector's whole lifecycle.
#[test]
fn auto_writable_grows_from_degenerate_seeds() {
    for seed_keys in [vec![], vec![42], vec![0, u64::MAX]] {
        for shards in SHARD_COUNTS {
            let sw = ShardedWritable::new(seed_keys.clone(), shards, auto_write_config());
            let mut oracle: BTreeSet<u64> = seed_keys.iter().copied().collect();
            // A stream long enough to trip merges (threshold 32).
            for i in 0..200u64 {
                let k = i.wrapping_mul(0x9e37_79b9_7f4a_7c15);
                assert_eq!(sw.insert(k), oracle.insert(k), "insert {k}");
            }
            assert_eq!(sw.len(), oracle.len());
            for &k in oracle.iter().step_by(3) {
                assert!(sw.contains(k), "lost {k} shards={shards}");
            }
            assert!(
                sw.metrics()
                    .counter("li_backend_selections_total")
                    .is_some_and(|n| n > 0),
                "auto writable must have run selection at least once"
            );
        }
    }
}
