//! Property suite: persistence round trips. For arbitrary keysets and
//! pending-insert streams, `save → drop → load` must yield a structure
//! observationally identical to the original (oracle equivalence for
//! `contains`/`rank`/`range_keys` and `lower_bound`), with the load
//! provably *not* retraining any model (`train_count` is flat) and the
//! read tier serving its keys zero-copy from the mapped snapshot.
//! Corrupt files are rejected with an error — never a panic, never a
//! silently wrong structure.

use std::collections::BTreeSet;

use learned_indexes::rmi::train_count;
use learned_indexes::serve::{
    PersistError, RangeIndex, RebalanceConfig, RmiShardBuilder, ShardedIndex, ShardedWritable,
    ShardedWritableConfig,
};
use proptest::prelude::*;

fn tmp_path(tag: &str) -> std::path::PathBuf {
    // One file per (process, thread): property cases run sequentially
    // within a test thread, so reuse is safe and cleanup is local.
    std::env::temp_dir().join(format!(
        "li-prop-persist-{}-{:?}-{tag}.lidx",
        std::process::id(),
        std::thread::current().id()
    ))
}

/// Remove the snapshot file when the case ends, pass or fail.
struct Cleanup(std::path::PathBuf);
impl Drop for Cleanup {
    fn drop(&mut self) {
        let _ = std::fs::remove_file(&self.0);
    }
}

fn sorted_unique(mut keys: Vec<u64>) -> Vec<u64> {
    keys.sort_unstable();
    keys.dedup();
    keys
}

/// A write-path configuration with a merge threshold high enough that
/// the pending stream below stays buffered — the round trip must carry
/// live delta state, not only trained bases.
fn cfg_with_pending_room() -> ShardedWritableConfig {
    ShardedWritableConfig {
        merge_threshold: 64,
        leaf_fraction: 1.0 / 8.0,
        check_interval: 32,
        rebalance: RebalanceConfig {
            max_shard_len: 256,
            merge_max_len: 64,
            max_mean_err: None,
            max_shards: 12,
        },
        ..ShardedWritableConfig::default()
    }
}

/// A tiered write-path configuration: small buffers seal quickly, the
/// run-stack bound is roomy enough that streams below leave sealed runs
/// *pending* at save time, and rebalancing is quiet (nothing may fold
/// the tiers behind the test's back).
fn tiered_cfg() -> ShardedWritableConfig {
    ShardedWritableConfig {
        merge_threshold: 16,
        leaf_fraction: 1.0 / 8.0,
        check_interval: 0,
        max_runs: 4,
        rebalance: RebalanceConfig {
            max_shard_len: 4096,
            merge_max_len: 64,
            max_mean_err: None,
            max_shards: 12,
        },
        ..ShardedWritableConfig::default()
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Read tier: build → save → drop → load ≡ oracle, zero training,
    /// mapped zero-copy backing.
    #[test]
    fn sharded_index_round_trip_is_oracle_equivalent(
        keys in prop::collection::vec(any::<u64>(), 1..400),
        shards in 1usize..6,
    ) {
        let path = tmp_path("si");
        let _guard = Cleanup(path.clone());
        let data = sorted_unique(keys);
        let original = ShardedIndex::build(data.clone(), shards, &RmiShardBuilder::new());
        original.save(&path).map_err(|e| TestCaseError::fail(e.to_string()))?;
        drop(original);

        let before = train_count();
        let loaded = ShardedIndex::load(&path).map_err(|e| TestCaseError::fail(e.to_string()))?;
        prop_assert_eq!(train_count(), before, "load must not train");

        // Zero-copy witness: every shard shares the mapped region.
        prop_assert!(loaded.key_store().is_mapped());
        for s in 0..loaded.shard_count() {
            prop_assert!(loaded.shard(s).key_store().ptr_eq(loaded.key_store()));
        }

        // Oracle equivalence around every key and the domain extremes.
        let mut probes: Vec<u64> = vec![0, 1, u64::MAX - 1, u64::MAX];
        probes.extend(data.iter().flat_map(|&k| [k.saturating_sub(1), k, k.saturating_add(1)]));
        for q in probes {
            prop_assert_eq!(
                loaded.lower_bound(q),
                data.partition_point(|&k| k < q),
                "q={}", q
            );
        }
    }

    /// Write tier: build → insert (some pending) → save → drop → load ≡
    /// oracle, zero training; pending deltas survive; the loaded
    /// structure keeps accepting writes.
    #[test]
    fn sharded_writable_round_trip_is_oracle_equivalent(
        initial in prop::collection::vec(any::<u64>(), 0..200),
        pending in prop::collection::vec(any::<u64>(), 0..48),
        post in prop::collection::vec(any::<u64>(), 0..32),
        shards in 1usize..5,
    ) {
        let path = tmp_path("sw");
        let _guard = Cleanup(path.clone());
        let init = sorted_unique(initial);
        let sw = ShardedWritable::new(init.clone(), shards, cfg_with_pending_room());
        let mut oracle: BTreeSet<u64> = init.iter().copied().collect();
        for &k in &pending {
            prop_assert_eq!(sw.insert(k), oracle.insert(k));
        }
        sw.save(&path).map_err(|e| TestCaseError::fail(e.to_string()))?;
        drop(sw);

        let before = train_count();
        let loaded = ShardedWritable::load(&path).map_err(|e| TestCaseError::fail(e.to_string()))?;
        prop_assert_eq!(train_count(), before, "load must not train");

        prop_assert_eq!(loaded.len(), oracle.len());
        let mut want: Vec<u64> = oracle.iter().copied().collect();
        let max_present = want.last() == Some(&u64::MAX);
        if max_present {
            want.pop(); // range_keys is hi-exclusive
        }
        prop_assert_eq!(loaded.range_keys(0, u64::MAX), want);
        prop_assert_eq!(loaded.contains(u64::MAX), max_present);
        let snap = loaded.snapshot();
        for &k in oracle.iter() {
            prop_assert!(loaded.contains(k), "lost k={}", k);
            prop_assert_eq!(snap.rank(k), oracle.range(..k).count(), "rank k={}", k);
        }

        // Still live: post-load inserts behave exactly like the oracle.
        for &k in &post {
            prop_assert_eq!(loaded.insert(k), oracle.insert(k), "post-load insert {}", k);
        }
        prop_assert_eq!(loaded.len(), oracle.len());
    }

    /// Tiered write tier: whatever tier state the random stream leaves
    /// behind (pending buffers, sealed runs, freshly compacted bases —
    /// in any per-shard mixture), `save → drop → load` preserves it
    /// exactly: same key set, same run/sealed accounting, zero
    /// training, and the loaded structure keeps sealing on new writes.
    #[test]
    fn tiered_round_trip_preserves_arbitrary_tier_states(
        initial in prop::collection::vec(any::<u64>(), 0..200),
        stream in prop::collection::vec(any::<u64>(), 0..120),
        shards in 1usize..4,
    ) {
        let path = tmp_path("sw-tiered");
        let _guard = Cleanup(path.clone());
        let init = sorted_unique(initial);
        let sw = ShardedWritable::new(init.clone(), shards, tiered_cfg());
        let mut oracle: BTreeSet<u64> = init.iter().copied().collect();
        for &k in &stream {
            prop_assert_eq!(sw.insert(k), oracle.insert(k));
        }
        let (runs_before, sealed_before, pending_before) =
            (sw.run_count(), sw.sealed_keys(), sw.pending());
        sw.save(&path).map_err(|e| TestCaseError::fail(e.to_string()))?;
        drop(sw);

        let before = train_count();
        let loaded = ShardedWritable::load(&path).map_err(|e| TestCaseError::fail(e.to_string()))?;
        prop_assert_eq!(train_count(), before, "load must not train");

        // Tier-for-tier identical, not merely key-equivalent: sealed
        // runs come back as sealed runs, pending stays pending.
        prop_assert_eq!(loaded.run_count(), runs_before);
        prop_assert_eq!(loaded.sealed_keys(), sealed_before);
        prop_assert_eq!(loaded.pending(), pending_before);
        prop_assert_eq!(loaded.len(), oracle.len());
        for &k in oracle.iter() {
            prop_assert!(loaded.contains(k), "lost k={}", k);
        }

        // Still live and still tiered: post-load writes behave like the
        // oracle (and, with 64 fresh keys against a 16-key buffer, keep
        // sealing/compacting without breaking it).
        for k in 0..64u64 {
            let key = k.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
            prop_assert_eq!(loaded.insert(key), oracle.insert(key), "post-load insert {}", key);
        }
        prop_assert_eq!(loaded.len(), oracle.len());
    }

    /// Corruption: flipping any single byte of a valid snapshot makes
    /// `load` return an error (checksums, magic, or structural checks)
    /// — it must never panic and never produce a structure silently.
    #[test]
    fn corrupting_any_byte_is_rejected_not_misloaded(
        flip_seed in any::<u64>(),
    ) {
        let path = tmp_path("corrupt");
        let _guard = Cleanup(path.clone());
        let data: Vec<u64> = (0..256u64).map(|i| i * 3).collect();
        let idx = ShardedIndex::build(data, 2, &RmiShardBuilder::new());
        idx.save(&path).map_err(|e| TestCaseError::fail(e.to_string()))?;

        let mut bytes = std::fs::read(&path).unwrap();
        let pos = (flip_seed as usize) % bytes.len();
        let bit = 1u8 << ((flip_seed >> 32) % 8);
        bytes[pos] ^= bit;
        std::fs::write(&path, &bytes).unwrap();

        match ShardedIndex::load(&path) {
            Err(_) => {} // rejected: good
            Ok(loaded) => {
                // The only survivable flips are inside the header's
                // zero padding (bytes 48..4096 are reserved); anywhere
                // else must have been caught by a checksum.
                prop_assert!(
                    (48..4096).contains(&pos),
                    "a flip at byte {} (outside the reserved padding) loaded successfully",
                    pos
                );
                // And even then the structure must answer correctly.
                prop_assert_eq!(loaded.lower_bound(300), 100);
            }
        }
    }
}

/// A snapshot with a guaranteed NON-empty run stack round-trips: the
/// sealed runs come back as sealed runs (not merged into the base, not
/// dropped), `train_count` stays flat across the load, and reads are
/// identical.
#[test]
fn nonempty_run_stacks_round_trip_identically() {
    let path = tmp_path("run-stack");
    let _guard = Cleanup(path.clone());
    // One shard, threshold 16, max_runs 4: 40 fresh odd keys → two
    // sealed runs + 8 pending, stack below the compaction bound.
    let init: Vec<u64> = (0..100u64).map(|i| i * 2).collect();
    let sw = ShardedWritable::new(init.clone(), 1, tiered_cfg());
    for k in 0..40u64 {
        assert!(sw.insert(k * 2 + 1));
    }
    assert_eq!(sw.run_count(), 2, "the setup must leave sealed runs");
    assert_eq!(sw.sealed_keys(), 32);
    assert_eq!(sw.pending(), 8);
    assert_eq!(sw.metrics().counter("li_compactions_total"), Some(0));
    sw.save(&path).unwrap();

    let before = train_count();
    let loaded = ShardedWritable::load(&path).unwrap();
    assert_eq!(
        train_count(),
        before,
        "run mini-model refits are not training events"
    );
    assert_eq!(loaded.run_count(), 2);
    assert_eq!(loaded.sealed_keys(), 32);
    assert_eq!(loaded.pending(), 8);
    assert_eq!(loaded.len(), sw.len());
    assert_eq!(loaded.range_keys(0, u64::MAX), sw.range_keys(0, u64::MAX));
    for q in 0..=240u64 {
        assert_eq!(loaded.contains(q), sw.contains(q), "q={q}");
        assert_eq!(loaded.rank(q), sw.rank(q), "q={q}");
    }
}

/// Flipping a byte inside a saved run's key payload (which lives in
/// the manifest, at the tail of the file) must surface as a typed
/// [`PersistError`] — the manifest checksum catches it before any
/// structural check runs.
#[test]
fn corrupt_run_payload_is_rejected_with_a_typed_error() {
    let path = tmp_path("run-corrupt");
    let _guard = Cleanup(path.clone());
    let sw = ShardedWritable::new(
        (0..100u64).map(|i| i * 2).collect::<Vec<_>>(),
        1,
        tiered_cfg(),
    );
    for k in 0..40u64 {
        sw.insert(k * 2 + 1);
    }
    assert!(sw.run_count() >= 1, "the setup must leave sealed runs");
    sw.save(&path).unwrap();

    // The run stacks are the last per-shard manifest section, so the
    // file's tail bytes are run keys; corrupt one.
    let mut bytes = std::fs::read(&path).unwrap();
    let at = bytes.len() - 12;
    bytes[at] ^= 0x20;
    std::fs::write(&path, &bytes).unwrap();
    match ShardedWritable::load(&path) {
        Err(PersistError::Format(msg)) => {
            assert!(msg.contains("checksum"), "unexpected rejection: {msg}")
        }
        Err(e) => panic!("unexpected error variant: {e}"),
        Ok(_) => panic!("corrupt run payload must be rejected"),
    }
}

/// Loading garbage, a truncated file, or a missing file is an error —
/// and the error variants are the documented ones.
#[test]
fn malformed_files_yield_typed_errors() {
    let path = tmp_path("malformed");
    let _guard = Cleanup(path.clone());

    assert!(matches!(
        ShardedIndex::load(&path),
        Err(PersistError::Io(_))
    ));

    std::fs::write(&path, b"short").unwrap();
    assert!(matches!(
        ShardedIndex::load(&path),
        Err(PersistError::Format(_))
    ));

    let data: Vec<u64> = (0..128u64).collect();
    let idx = ShardedIndex::build(data, 2, &RmiShardBuilder::new());
    idx.save(&path).unwrap();
    // Kind confusion: a read-tier snapshot is not a write-tier one.
    assert!(matches!(
        ShardedWritable::load(&path),
        Err(PersistError::Format(_))
    ));
}

/// Mixed-backend topologies (what `Backend::Auto` produces) round-trip
/// **backend-for-backend**: every loaded shard rebuilds as the same
/// concrete type the original selected, with `train_count` flat and
/// answers oracle-equivalent. Also covers each uniform tree backend so
/// every shard tag (RMI=0, B-Tree=1, interp=2, FAST=3) round-trips.
#[test]
fn mixed_backend_topologies_round_trip_backend_for_backend() {
    use learned_indexes::data::Gauntlet;
    use learned_indexes::serve::Backend;

    // 3 dense near-linear shards (selection keeps RMI) + 1 stepped
    // shard (selection picks a tree family): a genuinely mixed
    // topology out of one Auto build.
    let mut keys: Vec<u64> = (0..90_000u64).map(|i| i * 3).collect();
    keys.extend(
        Gauntlet::Stepped
            .generate(30_000, 7)
            .into_iter()
            .map(|k| k + (1u64 << 40)),
    );
    let cases: Vec<(&str, Backend, Vec<u64>)> = vec![
        ("auto-mixed", Backend::Auto, keys),
        (
            "btree",
            Backend::BTree,
            (0..4_000u64).map(|i| i * 7).collect(),
        ),
        (
            "interp",
            Backend::Interp,
            (0..4_000u64).map(|i| i * 7).collect(),
        ),
        (
            "fast",
            Backend::Fast,
            (0..4_000u64).map(|i| i * 7).collect(),
        ),
    ];
    for (tag, backend, data) in cases {
        let path = tmp_path(&format!("mixed-{tag}"));
        let _guard = Cleanup(path.clone());
        let original = ShardedIndex::build(data.clone(), 4, &backend);
        let names: Vec<String> = (0..4).map(|s| original.shard(s).name()).collect();
        if tag == "auto-mixed" {
            let families: std::collections::BTreeSet<&str> =
                names.iter().map(|n| n.split('(').next().unwrap()).collect();
            assert!(
                families.len() >= 2,
                "the composite keyset must produce a mixed topology, got {names:?}"
            );
        }
        original.save(&path).unwrap();
        drop(original);

        let before = train_count();
        let loaded = ShardedIndex::load(&path).unwrap();
        assert_eq!(train_count(), before, "{tag}: load must not train");
        for (s, want) in names.iter().enumerate() {
            assert_eq!(
                &loaded.shard(s).name(),
                want,
                "{tag}: shard {s} came back as a different backend"
            );
        }
        for &q in data.iter().step_by(37) {
            assert_eq!(
                loaded.lower_bound(q),
                data.partition_point(|&k| k < q),
                "{tag}: q={q}"
            );
        }
    }
}

/// FNV-1a (64-bit), bit-identical to the snapshot format's checksum —
/// used below to re-seal a file after a *semantic* corruption, so the
/// load failure proves the typed validation path, not the checksum.
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// A corrupted backend-tag byte — re-sealed with valid checksums so it
/// reaches the decoder — is rejected with a typed `Format` error
/// naming the tag, never a panic and never a silently wrong backend.
#[test]
fn corrupt_backend_tag_is_a_typed_format_error() {
    use learned_indexes::serve::Backend;

    let path = tmp_path("bad-tag");
    let _guard = Cleanup(path.clone());
    let n_keys = 256usize;
    let data: Vec<u64> = (0..n_keys as u64).collect();
    ShardedIndex::build(data, 2, &Backend::Fast)
        .save(&path)
        .unwrap();

    let mut bytes = std::fs::read(&path).unwrap();
    const HEADER_LEN: usize = 4096;
    let keys_end = HEADER_LEN + n_keys * 8;
    // Manifest layout: str "fast" (8-byte len + 4 bytes) · shard count
    // (8) · 3 offsets (24) · then shard 0's one-byte backend tag.
    let tag_pos = keys_end + 8 + 4 + 8 + 24;
    assert_eq!(bytes[tag_pos], 3, "expected the FAST tag where computed");
    bytes[tag_pos] = 9; // no such backend

    // Re-seal: manifest checksum (header bytes 40..48), then the
    // header checksum over bytes 0..56 (bytes 56..64).
    let manifest_sum = fnv1a(&bytes[keys_end..]);
    bytes[40..48].copy_from_slice(&manifest_sum.to_le_bytes());
    let header_sum = fnv1a(&bytes[0..56]);
    bytes[56..64].copy_from_slice(&header_sum.to_le_bytes());
    std::fs::write(&path, &bytes).unwrap();

    match ShardedIndex::load(&path) {
        Err(PersistError::Format(msg)) => {
            assert!(msg.contains("backend tag"), "unexpected rejection: {msg}")
        }
        Err(e) => panic!("expected a Format error, got {e}"),
        Ok(_) => panic!("a corrupt backend tag must not load"),
    }
}

/// Re-seal a snapshot after a semantic edit: the key payload checksum
/// (header bytes 32..40), the manifest checksum (40..48), then the
/// header checksum over bytes 0..56 (56..64). The load then fails, if
/// at all, on the decoder's own checks.
fn reseal(bytes: &mut [u8], n_keys: usize) {
    const HEADER_LEN: usize = 4096;
    let keys_end = HEADER_LEN + n_keys * 8;
    let keys_sum = fnv1a(&bytes[HEADER_LEN..keys_end]);
    bytes[32..40].copy_from_slice(&keys_sum.to_le_bytes());
    let manifest_sum = fnv1a(&bytes[keys_end..]);
    bytes[40..48].copy_from_slice(&manifest_sum.to_le_bytes());
    let header_sum = fnv1a(&bytes[0..56]);
    bytes[56..64].copy_from_slice(&header_sum.to_le_bytes());
}

/// An Auto topology over duplicate-heavy keys saves a multiset key
/// payload (the selector puts multiset shards on a duplicate-exact
/// tree). It loads backend-for-backend with `train_count` flat, and
/// every lower bound, on duplicates the first occurrence, matches the
/// oracle.
#[test]
fn auto_multiset_topology_round_trips_backend_for_backend() {
    use learned_indexes::data::Gauntlet;
    use learned_indexes::serve::Backend;

    let mut data = Gauntlet::HeavyDup.generate(40_000, 3);
    assert!(
        data.windows(2).any(|w| w[0] == w[1]),
        "keys need duplicates"
    );
    // Unique near-linear keys above them, so that the topology mixes
    // RMI shards with the multiset ones.
    let above = data[data.len() - 1] + 1;
    data.extend((0..60_000u64).map(|i| above + 3 * i));
    let path = tmp_path("auto-multiset");
    let _guard = Cleanup(path.clone());
    let original = ShardedIndex::build(data.clone(), 4, &Backend::Auto);
    let names: Vec<String> = (0..4).map(|s| original.shard(s).name()).collect();
    assert!(
        names.iter().any(|n| n.starts_with("rmi")),
        "no RMI shard: {names:?}"
    );
    assert!(
        names.iter().any(|n| !n.starts_with("rmi")),
        "no tree shard: {names:?}"
    );
    original.save(&path).unwrap();
    drop(original);

    let before = train_count();
    let loaded = ShardedIndex::load(&path).unwrap();
    assert_eq!(train_count(), before, "load must not train");
    for (s, want) in names.iter().enumerate() {
        assert_eq!(&loaded.shard(s).name(), want, "shard {s} changed backend");
    }
    let mut probes: Vec<u64> = vec![0, u64::MAX];
    probes.extend(data.iter().flat_map(|&k| [k.saturating_sub(1), k, k + 1]));
    for q in probes {
        assert_eq!(
            loaded.lower_bound(q),
            data.partition_point(|&k| k < q),
            "q={q}"
        );
    }
}

/// An unsorted key payload, and duplicate keys inside an RMI shard, are
/// typed `Format` errors even with valid checksums.
#[test]
fn unsorted_payloads_and_duplicate_rmi_keys_are_typed_format_errors() {
    let n_keys = 1_000usize;
    let data: Vec<u64> = (0..n_keys as u64).map(|i| 10 * i).collect();
    // Both shards are RMI shards.
    let path = tmp_path("bad-order");
    let _guard = Cleanup(path.clone());
    ShardedIndex::build(data, 2, &RmiShardBuilder::new())
        .save(&path)
        .unwrap();
    let saved = std::fs::read(&path).unwrap();
    const HEADER_LEN: usize = 4096;
    let key_at = |i: usize| HEADER_LEN + 8 * i;

    let cases: [(&str, usize, u64, &str); 2] = [
        // Key 100 smaller than key 99: the payload is out of order.
        ("unsorted", 100, 5, "must be sorted"),
        // Key 100 equal to key 99, inside shard 0 (keys 0..500).
        (
            "duplicate in an RMI shard",
            100,
            990,
            "must be sorted and unique",
        ),
    ];
    for (what, i, value, want) in cases {
        let mut bytes = saved.clone();
        bytes[key_at(i)..key_at(i + 1)].copy_from_slice(&value.to_le_bytes());
        reseal(&mut bytes, n_keys);
        std::fs::write(&path, &bytes).unwrap();
        match ShardedIndex::load(&path) {
            Err(PersistError::Format(msg)) => {
                assert!(msg.contains(want), "{what}: unexpected rejection: {msg}")
            }
            Err(e) => panic!("{what}: expected a Format error, got {e}"),
            Ok(_) => panic!("{what}: the payload must not load"),
        }
    }
}
