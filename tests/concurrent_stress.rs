//! Multi-threaded stress: concurrent readers must always observe a
//! consistent snapshot while a writer drives inserts through multiple
//! merge/retrain cycles.
//!
//! Two pressure points:
//!
//! 1. **Read path** — many threads hammer one `ShardedIndex` (scalar,
//!    batched and parallel-batched) while comparing every answer to the
//!    flat sorted-array oracle. The index is immutable, so any torn
//!    answer would be a `Send`/`Sync` violation in a backend.
//! 2. **Write path** — a writer drives `WritableShard::insert` through
//!    at least two merge+retrain cycles while readers take
//!    `DeltaSnapshot`s and check internal consistency with no lock
//!    held: ranks monotone in the key, no torn rank (base swapped
//!    mid-read would break `rank(∞) == len`), and the initial keyset
//!    permanently visible.
//! 3. **Sharded write path** — concurrent writers drive a
//!    `ShardedWritable` through at least one shard *merge* and one
//!    shard *split* while readers take cross-shard snapshots and
//!    verify they are never torn: router and shard vector always pair
//!    (each shard's keys inside its ownership range), lengths
//!    monotone, the initial keyset permanently visible, and every
//!    snapshot's bookkeeping exactly self-consistent.
//! 4. **Tiered write path** — with tiering on and a worker attached,
//!    writers seal runs while the worker compacts full stacks into
//!    the base. Readers validate the three-tier bookkeeping of every
//!    snapshot (base + sealed runs + pending buffer partition the
//!    keyset) with no lock held; compaction is proven worker-only by
//!    matching the worker's own pass tallies against the registry
//!    totals.
//! 5. **Metrics recording** — writers storm inserts while reader
//!    threads continuously take `metrics()` snapshots and render the
//!    text exposition. Every observed counter and histogram total
//!    must be monotone non-decreasing across successive snapshots
//!    (never torn backwards), the per-shard gauge family must always
//!    pair with the shard-count gauge taken under the same topology
//!    read, and the final totals must equal the exact op oracle.
//! 6. **Adaptive selection under storm** — with `Backend::Auto` and a
//!    worker attached, a writer storm drives splits and compactions,
//!    each of which re-runs backend selection; the selection counter
//!    must equal the structural event tally exactly, at least one
//!    rebuild must *switch* a shard's backend family, and the final
//!    topology must prove it structurally (a mix of RMI and
//!    tree-family shards).
//! 7. **Inline passes under storm** — with no worker, concurrent
//!    writers trip the rebalance pass on their own threads; passes are
//!    serialized, so the selection counter still equals the structural
//!    tally (no shard rebuilt twice) and every published split or merge
//!    is one off-lock rebuild.

use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Duration;

use learned_indexes::rmi::{RmiConfig, TopModel};
use learned_indexes::serve::{
    Backend, RebalanceConfig, RebalanceWorker, RmiShardBuilder, ShardedIndex, ShardedWritable,
    ShardedWritableConfig, WritableShard,
};
use learned_indexes::{KeyStore, RangeIndex};

fn cfg() -> RmiConfig {
    RmiConfig::two_stage(TopModel::Linear, 64)
}

/// A registry counter by name — the structure's only counter API.
fn count(sw: &ShardedWritable, name: &str) -> usize {
    sw.metrics().counter(name).expect("registered") as usize
}

#[test]
fn concurrent_readers_agree_with_the_oracle() {
    let data: Vec<u64> = (0..60_000u64).map(|i| i * 3).collect();
    let store = KeyStore::new(data.clone());
    let idx = ShardedIndex::build(store, 8, &RmiShardBuilder::new());

    let readers = 4;
    std::thread::scope(|scope| {
        for t in 0..readers {
            let idx = &idx;
            let data = &data;
            scope.spawn(move || {
                // Each reader probes a different stride so the threads
                // cover different shards at the same time.
                let queries: Vec<u64> = (0..4000u64)
                    .map(|i| (i * 37 + t as u64 * 13) % 200_000)
                    .collect();
                let mut batch = vec![0usize; queries.len()];
                idx.lower_bound_batch(&queries, &mut batch);
                for (&q, &got) in queries.iter().zip(&batch) {
                    assert_eq!(got, data.partition_point(|&k| k < q), "t={t} q={q}");
                    assert_eq!(idx.lower_bound(q), got, "t={t} q={q}");
                }
            });
        }
        // Main thread runs the parallel path concurrently with the
        // scalar/batched readers above.
        let queries: Vec<u64> = (0..8000u64).map(|i| i * 23 % 200_000).collect();
        let mut out = vec![0usize; queries.len()];
        idx.lower_bound_batch_parallel(&queries, &mut out, 4);
        for (&q, &got) in queries.iter().zip(&out) {
            assert_eq!(got, data.partition_point(|&k| k < q), "parallel q={q}");
        }
    });
}

#[test]
fn writer_through_merge_cycles_never_tears_reader_snapshots() {
    // Initial keys: even numbers. The writer inserts odd keys, so any
    // even key's membership is an invariant of every snapshot.
    let initial = 20_000usize;
    let inserts = 4_000u64;
    let threshold = 512usize; // 4_000 / 512 -> at least 7 merges
    let base: Vec<u64> = (0..initial as u64).map(|i| i * 2).collect();
    let shard = WritableShard::new(base, cfg(), threshold);

    let done = AtomicBool::new(false);
    let snapshots_checked = AtomicUsize::new(0);

    std::thread::scope(|scope| {
        let shard_ref = &shard;
        let done_ref = &done;
        let checked_ref = &snapshots_checked;

        // Readers: grab a snapshot, verify internal consistency with no
        // lock held, repeat until the writer finishes.
        for t in 0..3 {
            scope.spawn(move || {
                let mut last_len = 0usize;
                loop {
                    let finished = done_ref.load(Ordering::Acquire);
                    let snap = shard_ref.snapshot();

                    // No torn length: rank over the whole domain plus
                    // the MAX-key membership must equal len() exactly —
                    // a base swap observed halfway would break this.
                    let total = snap.rank(u64::MAX) + usize::from(snap.contains(u64::MAX));
                    assert_eq!(total, snap.len(), "t={t}: torn snapshot length");

                    // Snapshot lengths are monotone per reader (inserts
                    // only ever add keys).
                    assert!(
                        snap.len() >= last_len,
                        "t={t}: len went backwards {last_len} -> {}",
                        snap.len()
                    );
                    assert!(
                        snap.len() <= initial + inserts as usize,
                        "t={t}: impossible len {}",
                        snap.len()
                    );
                    last_len = snap.len();

                    // Monotone lower-bound ranks across the key space,
                    // and rank deltas bounded by key-range population.
                    let mut prev = 0usize;
                    for q in (0..initial as u64 * 2 + 4).step_by(997) {
                        let r = snap.rank(q);
                        assert!(
                            r >= prev,
                            "t={t}: rank not monotone at q={q}: {prev} -> {r}"
                        );
                        prev = r;
                    }

                    // The initial (even) keys are permanently visible.
                    for k in (0..initial as u64).step_by(1013) {
                        assert!(snap.contains(k * 2), "t={t}: lost initial key {}", k * 2);
                    }

                    // Range scans come back sorted and in-bounds.
                    let lo = 1000u64;
                    let hi = 3000u64;
                    let scan = snap.range_keys(lo, hi);
                    assert!(
                        scan.windows(2).all(|w| w[0] <= w[1]),
                        "t={t}: unsorted scan"
                    );
                    assert!(
                        scan.iter().all(|&k| (lo..hi).contains(&k)),
                        "t={t}: scan out of bounds"
                    );

                    checked_ref.fetch_add(1, Ordering::Relaxed);
                    if finished {
                        break;
                    }
                    std::thread::yield_now();
                }
            });
        }

        // Writer: odd keys, spread over the domain, through >= 2 merge
        // cycles (asserted below).
        scope.spawn(move || {
            for i in 0..inserts {
                shard_ref.insert((i * 13 % (initial as u64 * 2)) | 1);
            }
            // Flush the tail so the final state is fully merged.
            shard_ref.merge();
            done_ref.store(true, Ordering::Release);
        });
    });

    assert!(
        shard.merges() >= 2,
        "writer must run through at least two merge/retrain cycles, got {}",
        shard.merges()
    );
    assert!(
        snapshots_checked.load(Ordering::Relaxed) > 0,
        "readers must have validated at least one snapshot"
    );

    // Final state: every initial key plus every distinct odd insert.
    let distinct_odd: std::collections::BTreeSet<u64> = (0..inserts)
        .map(|i| (i * 13 % (initial as u64 * 2)) | 1)
        .collect();
    assert_eq!(shard.len(), initial + distinct_odd.len());
    assert_eq!(shard.pending(), 0);
    for &k in distinct_odd.iter().step_by(97) {
        assert!(shard.contains(k), "lost inserted key {k}");
    }
}

/// The sharded write path under concurrent writers + snapshot readers,
/// across at least one shard merge cycle and at least one shard split
/// cycle. Readers validate every snapshot with no lock held; any torn
/// topology (router from one generation, shards from another) would
/// break the per-shard ownership checks or the length bookkeeping.
#[test]
fn sharded_writers_through_split_and_merge_cycles_never_tear_snapshots() {
    // Start with a deliberately cold 8-shard topology (4 keys per
    // shard, adjacent pairs inside the merge budget) so the first
    // rebalance *merges*; then concurrent writers push the keyspace
    // past the split threshold so later rebalances *split*.
    let initial: Vec<u64> = (0..32u64).map(|i| i * 1024).collect();
    let writers = 4u64;
    let per_writer = 600u64;
    let config = ShardedWritableConfig {
        merge_threshold: 32,
        leaf_fraction: 1.0 / 32.0,
        check_interval: 64,
        rebalance: RebalanceConfig {
            max_shard_len: 256,
            merge_max_len: 16,
            max_mean_err: None,
            max_shards: 24,
        },
        ..ShardedWritableConfig::default()
    };
    let sw = ShardedWritable::new(initial.clone(), 8, config);
    assert_eq!(sw.shard_count(), 8);

    // Provoke the merge cycle before the writers heat the topology up.
    sw.rebalance();
    assert!(
        count(&sw, "li_shard_merges_total") >= 1,
        "cold topology must merge first"
    );

    let done = AtomicBool::new(false);
    let snapshots_checked = AtomicUsize::new(0);

    std::thread::scope(|scope| {
        let sw_ref = &sw;
        let done_ref = &done;
        let checked_ref = &snapshots_checked;
        let initial_ref = &initial;

        // Readers: take a cross-shard snapshot, validate it lock-free.
        for t in 0..3 {
            scope.spawn(move || {
                let mut last_len = 0usize;
                loop {
                    let finished = done_ref.load(Ordering::Acquire);
                    let snap = sw_ref.snapshot();

                    // Router ↔ shard-vector pairing from one topology.
                    let bounds = snap.router().boundaries();
                    assert_eq!(
                        snap.shard_count(),
                        bounds.len() + 1,
                        "t={t}: router paired with a different shard vector"
                    );
                    assert!(
                        bounds.windows(2).all(|w| w[0] <= w[1]),
                        "t={t}: unsorted bounds"
                    );

                    // No torn length: per-shard sums, prefix
                    // bookkeeping and rank(∞) must all agree.
                    let per_shard: usize = snap.shard_snapshots().iter().map(|s| s.len()).sum();
                    assert_eq!(per_shard, snap.len(), "t={t}: torn shard lengths");
                    let total = snap.rank(u64::MAX) + usize::from(snap.contains(u64::MAX));
                    assert_eq!(total, snap.len(), "t={t}: torn rank bookkeeping");

                    // Ownership: every shard's keys inside its range —
                    // a mixed-generation snapshot would misplace whole
                    // key runs.
                    for (s, shard) in snap.shard_snapshots().iter().enumerate() {
                        let lo = if s == 0 { 0 } else { bounds[s - 1] };
                        assert_eq!(
                            shard.rank(lo),
                            0,
                            "t={t}: shard {s} holds keys below its range"
                        );
                        if s < bounds.len() {
                            assert_eq!(
                                shard.rank(bounds[s]),
                                shard.len(),
                                "t={t}: shard {s} holds keys above its range"
                            );
                        }
                    }

                    // Monotone growth, initial keys permanently there.
                    assert!(
                        snap.len() >= last_len,
                        "t={t}: len went backwards {last_len} -> {}",
                        snap.len()
                    );
                    last_len = snap.len();
                    for &k in initial_ref.iter().step_by(7) {
                        assert!(snap.contains(k), "t={t}: lost initial key {k}");
                    }

                    // Scans sorted, in-bounds, rank-consistent.
                    let scan = snap.range_keys(1000, 20_000);
                    assert!(scan.windows(2).all(|w| w[0] < w[1]), "t={t}: bad scan");
                    assert!(scan.iter().all(|&k| (1000..20_000).contains(&k)));
                    assert_eq!(scan.len(), snap.rank(20_000) - snap.rank(1000));

                    checked_ref.fetch_add(1, Ordering::Relaxed);
                    if finished {
                        break;
                    }
                    std::thread::yield_now();
                }
            });
        }

        // Writers: disjoint key stripes spread over (and past) the
        // initial domain, enough to force splits.
        scope.spawn(move || {
            std::thread::scope(|inner| {
                for w in 0..writers {
                    inner.spawn(move || {
                        for i in 0..per_writer {
                            sw_ref.insert((w * per_writer + i) * 37 + 1);
                        }
                    });
                }
            });
            done_ref.store(true, Ordering::Release);
        });
    });

    let splits = count(&sw, "li_shard_splits_total");
    assert!(
        splits >= 1,
        "writer load must run through at least one split cycle, got {splits}"
    );
    assert!(
        snapshots_checked.load(Ordering::Relaxed) > 0,
        "readers must have validated at least one snapshot"
    );

    // Final exact state: initial keys + every distinct insert.
    let mut expect: std::collections::BTreeSet<u64> = initial.into_iter().collect();
    for w in 0..writers {
        for i in 0..per_writer {
            expect.insert((w * per_writer + i) * 37 + 1);
        }
    }
    assert_eq!(sw.len(), expect.len());
    let dump = sw.range_keys(0, u64::MAX);
    assert_eq!(dump.len(), expect.len());
    assert!(dump.iter().eq(expect.iter()), "final contents diverged");
    // The generation trail accounts for every topology publication.
    assert_eq!(
        sw.generation(),
        (splits + count(&sw, "li_shard_merges_total")) as u64
    );
}

/// The writer-storm scenario for **background** rebalancing: with a
/// `RebalanceWorker` attached, inserting threads never rebalance — they
/// only signal. The storm must drive at least one shard *merge* and at
/// least one shard *split*, and both must be executed by the worker
/// thread (asserted by matching what the worker's own passes applied
/// against the registry totals — in background mode nobody else may
/// publish a topology). Readers validate cross-shard snapshots
/// lock-free throughout: a torn topology — or a key lost in the
/// worker's off-lock rebuild / straggler hand-off — fails loudly.
#[test]
fn writer_storm_is_rebalanced_by_the_background_worker_only() {
    // Cold 12-shard start (3-ish keys per shard, adjacent pairs inside
    // the merge budget) so the worker's first pass merges; the storm
    // then pushes the keyspace far past the split threshold.
    let initial: Vec<u64> = (0..40u64).map(|i| i * 1024).collect();
    let writers = 4u64;
    let per_writer = 700u64;
    let config = ShardedWritableConfig {
        merge_threshold: 32,
        leaf_fraction: 1.0 / 32.0,
        check_interval: 64,
        rebalance: RebalanceConfig {
            max_shard_len: 256,
            merge_max_len: 16,
            max_mean_err: None,
            max_shards: 24,
        },
        ..ShardedWritableConfig::default()
    };
    let sw = Arc::new(ShardedWritable::new(initial.clone(), 12, config));
    assert_eq!(sw.shard_count(), 12);
    let worker = RebalanceWorker::spawn(Arc::clone(&sw));

    // Drain the cold topology first: merges happen on the worker
    // thread (nothing else is allowed to rebalance in this mode).
    worker.kick();
    assert!(
        worker.wait_until_stable(Duration::from_secs(60)),
        "worker failed to quiesce the cold topology"
    );
    assert!(worker.applied().merges >= 1, "cold neighbors must merge");

    let done = AtomicBool::new(false);
    let snapshots_checked = AtomicUsize::new(0);

    std::thread::scope(|scope| {
        let sw_ref = &*sw;
        let done_ref = &done;
        let checked_ref = &snapshots_checked;
        let initial_ref = &initial;

        // Readers: cross-shard snapshots validated with no lock held,
        // racing the writers AND the worker's topology publications.
        for t in 0..2 {
            scope.spawn(move || {
                let mut last_len = 0usize;
                loop {
                    let finished = done_ref.load(Ordering::Acquire);
                    let snap = sw_ref.snapshot();

                    // Router ↔ shard vector pairing from one topology.
                    let bounds = snap.router().boundaries();
                    assert_eq!(snap.shard_count(), bounds.len() + 1, "t={t}: torn topology");

                    // Length bookkeeping: per-shard sums, prefix and
                    // rank(∞) must all agree.
                    let per_shard: usize = snap.shard_snapshots().iter().map(|s| s.len()).sum();
                    assert_eq!(per_shard, snap.len(), "t={t}: torn shard lengths");
                    let total = snap.rank(u64::MAX) + usize::from(snap.contains(u64::MAX));
                    assert_eq!(total, snap.len(), "t={t}: torn rank bookkeeping");

                    // Ownership: every shard's keys inside its range.
                    for (s, shard) in snap.shard_snapshots().iter().enumerate() {
                        let lo = if s == 0 { 0 } else { bounds[s - 1] };
                        assert_eq!(shard.rank(lo), 0, "t={t}: shard {s} leaks low");
                        if s < bounds.len() {
                            assert_eq!(
                                shard.rank(bounds[s]),
                                shard.len(),
                                "t={t}: shard {s} leaks high"
                            );
                        }
                    }

                    // Monotone growth; the initial keys never vanish
                    // (an off-lock rebuild that dropped stragglers or
                    // lost a racing insert would break these).
                    assert!(snap.len() >= last_len, "t={t}: len went backwards");
                    last_len = snap.len();
                    for &k in initial_ref.iter().step_by(7) {
                        assert!(snap.contains(k), "t={t}: lost initial key {k}");
                    }

                    checked_ref.fetch_add(1, Ordering::Relaxed);
                    if finished {
                        break;
                    }
                    std::thread::yield_now();
                }
            });
        }

        // The storm: disjoint writer stripes spread over (and past) the
        // initial domain — with scalar AND batched inserts in the mix,
        // both of which only signal the worker in background mode.
        // Stripe keys are odd by construction (74k + 1) while the
        // initial keys are even (i * 1024), so every stripe key is
        // fresh — the all-true flag assertion below relies on it.
        scope.spawn(move || {
            std::thread::scope(|inner| {
                for w in 0..writers {
                    inner.spawn(move || {
                        let keys: Vec<u64> = (0..per_writer)
                            .map(|i| (w * per_writer + i) * 74 + 1)
                            .collect();
                        // Half the stripe scalar, half batched.
                        let half = keys.len() / 2;
                        for &k in &keys[..half] {
                            sw_ref.insert(k);
                        }
                        for chunk in keys[half..].chunks(64) {
                            let flags = sw_ref.insert_batch(chunk);
                            assert!(flags.iter().all(|&f| f), "w={w}: stripe keys are fresh");
                        }
                    });
                }
            });
            done_ref.store(true, Ordering::Release);
        });
    });

    assert!(
        worker.wait_until_stable(Duration::from_secs(60)),
        "worker failed to quiesce after the storm"
    );
    let applied = worker.applied();
    assert!(
        applied.splits >= 1,
        "storm must drive at least one background split, got {}",
        applied.splits
    );
    assert!(snapshots_checked.load(Ordering::Relaxed) > 0);

    // EVERY topology change was executed by the worker thread: the
    // inserting threads only signaled. The tally comes from the worker's
    // own pass results, so any inline pass would make the registry
    // totals exceed it.
    let (splits, merges) = (
        count(&sw, "li_shard_splits_total"),
        count(&sw, "li_shard_merges_total"),
    );
    assert_eq!(applied.splits, splits, "a non-worker thread split");
    assert_eq!(applied.merges, merges, "a non-worker thread merged");
    assert_eq!(sw.generation(), (splits + merges) as u64);

    // Quiesced means within budget.
    for len in sw.shard_lens() {
        assert!(len <= 256, "unsplit hot shard survived: len {len}");
    }

    // Exact final contents: initial keys + every distinct storm key.
    let mut expect: std::collections::BTreeSet<u64> = initial.into_iter().collect();
    for w in 0..writers {
        for i in 0..per_writer {
            expect.insert((w * per_writer + i) * 74 + 1);
        }
    }
    assert_eq!(sw.len(), expect.len());
    let dump = sw.range_keys(0, u64::MAX);
    assert_eq!(dump.len(), expect.len());
    assert!(dump.iter().eq(expect.iter()), "final contents diverged");
}

/// The tiered write path under a writer storm with a background
/// worker attached: inserting threads seal runs (cheap mini-model
/// fits) but never compact — the worker folds every full run stack
/// into the learned base. Readers validate cross-shard snapshots
/// lock-free throughout, including the three-tier bookkeeping: in any
/// snapshot each shard's base, sealed runs and pending buffer
/// partition that shard's keyset exactly, every run is sorted-unique,
/// and `rank`/`contains` stay coherent mid-compaction. Worker-only
/// compaction is proven by matching the folds the worker's own passes
/// applied against the registry totals (an inline compaction would
/// break it), and with `max_runs = 2` every fold must consume at least
/// two runs.
#[test]
fn writer_storm_compactions_run_on_the_worker_and_never_tear_snapshots() {
    // Rebalance thresholds set far out of reach so the only background
    // activity is compaction: seals every 8 fresh keys per shard, a
    // fold due at 2 runs.
    let initial: Vec<u64> = (0..2_000u64).map(|i| i * 64).collect();
    let writers = 4u64;
    let per_writer = 800u64;
    let config = ShardedWritableConfig {
        merge_threshold: 8,
        check_interval: 0,
        max_runs: 2,
        rebalance: RebalanceConfig {
            max_shard_len: 1_000_000,
            merge_max_len: 0,
            max_mean_err: None,
            max_shards: 8,
        },
        ..ShardedWritableConfig::default()
    };
    let sw = Arc::new(ShardedWritable::new(initial.clone(), 4, config));
    let worker = RebalanceWorker::spawn(Arc::clone(&sw));

    let done = AtomicBool::new(false);
    let snapshots_checked = AtomicUsize::new(0);

    std::thread::scope(|scope| {
        let sw_ref = &*sw;
        let done_ref = &done;
        let checked_ref = &snapshots_checked;
        let initial_ref = &initial;

        // Readers: validate the tier bookkeeping of every snapshot
        // while the writers seal and the worker compacts.
        for t in 0..2 {
            scope.spawn(move || {
                let mut last_len = 0usize;
                loop {
                    let finished = done_ref.load(Ordering::Acquire);
                    let snap = sw_ref.snapshot();

                    // No torn length: per-shard sums and rank(∞) agree.
                    let per_shard: usize = snap.shard_snapshots().iter().map(|s| s.len()).sum();
                    assert_eq!(per_shard, snap.len(), "t={t}: torn shard lengths");
                    let total = snap.rank(u64::MAX) + usize::from(snap.contains(u64::MAX));
                    assert_eq!(total, snap.len(), "t={t}: torn rank bookkeeping");

                    // Three-tier accounting: base + sealed runs +
                    // pending buffer partition each shard's keyset. A
                    // compaction observed halfway (runs folded into the
                    // base but still counted, or vice versa) breaks the
                    // sum; a torn run vector breaks the sortedness.
                    for (s, shard) in snap.shard_snapshots().iter().enumerate() {
                        let base_len = shard.base_index().key_store().len();
                        let run_keys: usize = shard.runs().iter().map(|r| r.len()).sum();
                        assert_eq!(
                            base_len + run_keys + shard.delta_keys().len(),
                            shard.len(),
                            "t={t}: shard {s} tiers do not partition the keyset"
                        );
                        for run in shard.runs() {
                            assert!(!run.is_empty(), "t={t}: shard {s} empty sealed run");
                            assert!(
                                run.as_slice().windows(2).all(|w| w[0] < w[1]),
                                "t={t}: shard {s} torn run"
                            );
                        }
                    }

                    // Monotone growth; initial keys permanently there.
                    assert!(snap.len() >= last_len, "t={t}: len went backwards");
                    last_len = snap.len();
                    for &k in initial_ref.iter().step_by(131) {
                        assert!(snap.contains(k), "t={t}: lost initial key {k}");
                    }

                    // Scans sorted, deduplicated, rank-consistent even
                    // when the window spans all three tiers.
                    let scan = snap.range_keys(5_000, 40_000);
                    assert!(scan.windows(2).all(|w| w[0] < w[1]), "t={t}: bad scan");
                    assert_eq!(scan.len(), snap.rank(40_000) - snap.rank(5_000));

                    checked_ref.fetch_add(1, Ordering::Relaxed);
                    if finished {
                        break;
                    }
                    std::thread::yield_now();
                }
            });
        }

        // Writers: disjoint stripes of fresh odd keys (initial keys
        // are even) driving seal after seal in every shard.
        scope.spawn(move || {
            std::thread::scope(|inner| {
                for w in 0..writers {
                    inner.spawn(move || {
                        for i in 0..per_writer {
                            sw_ref.insert((w * per_writer + i) * 37 + 1);
                        }
                    });
                }
            });
            done_ref.store(true, Ordering::Release);
        });
    });

    assert!(
        worker.wait_until_stable(Duration::from_secs(60)),
        "worker failed to quiesce after the storm"
    );
    assert!(snapshots_checked.load(Ordering::Relaxed) > 0);

    // The storm sealed far more runs than one stack: the worker must
    // have compacted, and every fold consumed a full (>= max_runs)
    // stack in ONE retrain.
    let applied = worker.applied();
    assert!(
        applied.compactions >= 1,
        "storm must drive at least one background compaction"
    );
    assert!(
        applied.runs_folded >= 2 * applied.compactions,
        "each fold must consume at least max_runs = 2 runs, got {} runs over {} folds",
        applied.runs_folded,
        applied.compactions
    );

    // EVERY compaction was executed by the worker thread — while a
    // worker is attached the inserting threads only signal, so the
    // registry totals must match the worker's own pass tallies exactly.
    assert_eq!(
        applied.compactions,
        count(&sw, "li_compactions_total"),
        "a non-worker thread compacted"
    );
    assert_eq!(
        applied.runs_folded,
        count(&sw, "li_runs_compacted_total"),
        "a non-worker thread folded runs"
    );
    // And compaction is not a topology event: the quiet rebalance
    // thresholds mean no split or merge ever published.
    assert_eq!(count(&sw, "li_shard_splits_total"), 0);
    assert_eq!(count(&sw, "li_shard_merges_total"), 0);
    assert_eq!(sw.generation(), 0);

    // Quiesced means no shard still owes a fold.
    assert!(
        sw.run_count() < 2 * sw.shard_count(),
        "a full run stack survived quiescence"
    );

    // Exact final contents: initial keys + every distinct storm key.
    let mut expect: std::collections::BTreeSet<u64> = initial.into_iter().collect();
    for w in 0..writers {
        for i in 0..per_writer {
            expect.insert((w * per_writer + i) * 37 + 1);
        }
    }
    assert_eq!(sw.len(), expect.len());
    let dump = sw.range_keys(0, u64::MAX);
    assert_eq!(dump.len(), expect.len());
    assert!(dump.iter().eq(expect.iter()), "final contents diverged");
}

/// Case 5: metrics readers vs writer storm. Renderers scrape
/// `metrics()` / `render_text()` lock-free while three writers flood
/// inserts through splits and merges; every scraped total must be
/// monotone, internally consistent, and exact once the storm settles.
#[test]
fn metrics_snapshots_stay_monotone_and_untorn_under_writer_storm() {
    let initial: Vec<u64> = (0..4_000u64).map(|i| i * 8).collect();
    let writers = 3usize;
    let per_writer = 6_000u64;
    let sw = Arc::new(ShardedWritable::new(
        initial.clone(),
        2,
        ShardedWritableConfig {
            merge_threshold: 256,
            check_interval: 64,
            rebalance: RebalanceConfig {
                max_shard_len: 4_000,
                merge_max_len: 500,
                ..RebalanceConfig::default()
            },
            ..ShardedWritableConfig::default()
        },
    ));

    let done = AtomicBool::new(false);
    std::thread::scope(|scope| {
        for w in 0..writers {
            let sw = Arc::clone(&sw);
            scope.spawn(move || {
                // Disjoint fresh keys per writer: every insert is a
                // key-adding op, so the oracle is exact.
                for i in 0..per_writer {
                    sw.insert((w as u64 * per_writer + i) * 8 + 1 + w as u64);
                }
            });
        }
        for _ in 0..2 {
            let sw = Arc::clone(&sw);
            let done = &done;
            scope.spawn(move || {
                let mut last_inserts = 0u64;
                let mut last_splits = 0u64;
                let mut last_hist = 0u64;
                let mut last_seq = 0u64;
                while !done.load(Ordering::Relaxed) {
                    let snap = sw.metrics();
                    // Counters only ever grow: a torn read (or a
                    // snapshot served from a half-reset registry)
                    // would run one of these backwards.
                    let inserts = snap.counter("li_inserts_total").expect("registered");
                    let splits = snap.counter("li_shard_splits_total").expect("registered");
                    let hist = snap.histogram("li_insert_ns").expect("registered").count();
                    assert!(inserts >= last_inserts, "{inserts} < {last_inserts}");
                    assert!(splits >= last_splits, "{splits} < {last_splits}");
                    assert!(hist >= last_hist, "{hist} < {last_hist}");
                    (last_inserts, last_splits, last_hist) = (inserts, splits, hist);
                    // Gauges are refreshed under one topology read:
                    // every per-shard family matches the shard count.
                    let shards = snap.gauge("li_shard_count").expect("registered") as usize;
                    for fam in ["li_shard_len", "li_shard_runs", "li_shard_pending"] {
                        assert_eq!(
                            snap.gauge_set(fam).map(<[u64]>::len),
                            Some(shards),
                            "{fam} torn vs shard count"
                        );
                    }
                    // The event tail is whole and ordered; rendering
                    // the exposition never panics mid-storm.
                    let events = snap.ring("li_events").expect("registered");
                    assert!(events.windows(2).all(|w| w[0].seq < w[1].seq));
                    if let Some(e) = events.last() {
                        assert!(e.seq >= last_seq);
                        last_seq = e.seq;
                    }
                    let text = snap.render_text();
                    assert!(text.contains(&format!("li_inserts_total {inserts}")));
                    std::thread::yield_now();
                }
            });
        }
        // Writer threads join when the non-reader spawns finish; flip
        // the flag from a watchdog scope instead: simplest is to wait
        // for the writers by joining them via a nested scope.
        scope.spawn({
            let sw = Arc::clone(&sw);
            let done = &done;
            let total = initial.len() + writers * per_writer as usize;
            move || {
                // Watchdog: writers are done exactly when every key
                // landed. Bounded by the suite timeout.
                while sw.len() < total {
                    std::thread::sleep(Duration::from_millis(1));
                }
                done.store(true, Ordering::Relaxed);
            }
        });
    });

    // Exact final accounting: every scalar insert was counted once.
    let snap = sw.metrics();
    let expected = (writers * per_writer as usize) as u64;
    assert_eq!(snap.counter("li_inserts_total"), Some(expected));
    // The storm provoked structure: splits recorded as both counter
    // and ring events, and the snapshot's generation gauge accounts for
    // every split and merge counted in the same snapshot.
    let splits = snap.counter("li_shard_splits_total").expect("registered");
    let merges = snap.counter("li_shard_merges_total").expect("registered");
    assert!(splits >= 1, "storm must split");
    assert_eq!(snap.gauge("li_generation"), Some((splits + merges) as i64));
    let events = snap.ring("li_events").expect("registered");
    assert!(events.iter().any(|e| e.name == "shard_split"), "{events:?}");
    // Sampled latency saw roughly 1-in-8 inserts (exact per stripe;
    // allow generous slack for stripe boundaries).
    let sampled = snap.histogram("li_insert_ns").expect("registered").count();
    assert!(
        sampled >= expected / 16 && sampled <= expected,
        "sampled {sampled} of {expected}"
    );
}

#[test]
fn snapshot_taken_before_merges_serves_the_old_state_forever() {
    let shard = WritableShard::new((0..1000u64).map(|i| i * 2).collect::<Vec<_>>(), cfg(), 64);
    let before = shard.snapshot();
    assert_eq!(before.len(), 1000);

    // Two full merge cycles after the snapshot.
    for k in 0..200u64 {
        shard.insert(k * 2 + 1);
    }
    assert!(shard.merges() >= 2, "merges {}", shard.merges());

    assert_eq!(before.len(), 1000, "snapshot must be frozen");
    assert!(!before.contains(1));
    assert_eq!(before.rank(u64::MAX), 1000);
    assert_eq!(shard.len(), 1200);
}

/// Case 6: adaptive backend selection under a writer storm. The
/// structure starts with four dense near-linear shards (which the
/// selector provably keeps on RMI), and the storm lands entirely in
/// shard 0's range, driving it through sealed runs, compactions and at
/// least one split — every one of which re-runs selection on the
/// worker. The split halves are small enough that the cost model
/// provably prefers the FAST tree, so the storm must flip at least one
/// shard's backend family; the quiet shards must keep theirs. The
/// selection counter is then provable exactly from the structural
/// event counters: one grid search per shard built.
#[test]
fn writer_storm_reselects_backends_on_worker_rebuilds() {
    // 4 × 24_000 dense keys on a stride-64 grid: retuned RMI error is
    // ~0, so selection keeps RMI everywhere at build time.
    let initial: Vec<u64> = (0..96_000u64).map(|i| i * 64).collect();
    let writers = 4u64;
    let per_writer = 800u64;
    let config = ShardedWritableConfig {
        merge_threshold: 256, // seal every 256 fresh keys per shard
        check_interval: 0,
        max_runs: 2, // compaction due at 2 sealed runs
        backend: Backend::Auto,
        rebalance: RebalanceConfig {
            max_shard_len: 26_000, // shard 0 starts at 24_000: in reach
            merge_max_len: 0,      // merges off — splits only
            max_mean_err: None,
            max_shards: 16,
        },
        ..ShardedWritableConfig::default()
    };
    let sw = Arc::new(ShardedWritable::new(initial.clone(), 4, config));
    assert_eq!(
        count(&sw, "li_backend_selections_total"),
        4,
        "initial build must run one selection per shard"
    );
    assert_eq!(
        sw.hybrid_shards(),
        0,
        "dense linear shards must start on RMI"
    );
    let worker = RebalanceWorker::spawn(Arc::clone(&sw));

    let done = AtomicBool::new(false);
    let snapshots_checked = AtomicUsize::new(0);

    std::thread::scope(|scope| {
        let sw_ref = &*sw;
        let done_ref = &done;
        let checked_ref = &snapshots_checked;
        let initial_ref = &initial;

        // Readers: every snapshot stays consistent while shard 0's
        // backend family changes underneath them.
        for t in 0..2 {
            scope.spawn(move || {
                let mut last_len = 0usize;
                loop {
                    let finished = done_ref.load(Ordering::Acquire);
                    let snap = sw_ref.snapshot();

                    let per_shard: usize = snap.shard_snapshots().iter().map(|s| s.len()).sum();
                    assert_eq!(per_shard, snap.len(), "t={t}: torn shard lengths");
                    let total = snap.rank(u64::MAX) + usize::from(snap.contains(u64::MAX));
                    assert_eq!(total, snap.len(), "t={t}: torn rank bookkeeping");

                    assert!(snap.len() >= last_len, "t={t}: len went backwards");
                    last_len = snap.len();
                    for &k in initial_ref.iter().step_by(7919) {
                        assert!(snap.contains(k), "t={t}: lost initial key {k}");
                    }

                    let scan = snap.range_keys(1_000, 60_000);
                    assert!(scan.windows(2).all(|w| w[0] < w[1]), "t={t}: bad scan");
                    assert_eq!(scan.len(), snap.rank(60_000) - snap.rank(1_000));

                    checked_ref.fetch_add(1, Ordering::Relaxed);
                    if finished {
                        break;
                    }
                    std::thread::yield_now();
                }
            });
        }

        // Writers: disjoint stripes of fresh odd keys interleaving the
        // stride-64 grid inside shard 0's range only (max key
        // 3200·64+1 ≪ shard 0's initial upper bound 24_000·64).
        scope.spawn(move || {
            std::thread::scope(|inner| {
                for w in 0..writers {
                    inner.spawn(move || {
                        for i in 0..per_writer {
                            sw_ref.insert((w * per_writer + i) * 64 + 1);
                        }
                    });
                }
            });
            done_ref.store(true, Ordering::Release);
        });
    });

    assert!(
        worker.wait_until_stable(Duration::from_secs(60)),
        "worker failed to quiesce after the storm"
    );
    assert!(snapshots_checked.load(Ordering::Relaxed) > 0);

    // The storm must have driven shard 0 over its split threshold and
    // through at least one full run stack.
    let applied = worker.applied();
    assert!(applied.splits >= 1, "storm must split shard 0");
    assert!(
        applied.compactions >= 1,
        "storm must drive at least one compaction"
    );
    let (splits, merges, compactions) = (
        count(&sw, "li_shard_splits_total"),
        count(&sw, "li_shard_merges_total"),
        count(&sw, "li_compactions_total"),
    );
    assert_eq!(merges, 0, "merges are disabled");

    // THE invariant: one grid search per shard built, ever. Initial
    // build selects once per shard; every split builds two shards;
    // every merge and every compaction builds one.
    assert_eq!(
        count(&sw, "li_backend_selections_total"),
        4 + 2 * splits + merges + compactions,
        "selection counter diverged from the structural event tally \
         (splits={splits}, merges={merges}, compactions={compactions})"
    );
    // Every rebuild after the initial build was the worker's own.
    assert_eq!(
        (applied.splits, applied.merges, applied.compactions),
        (splits, merges, compactions),
        "a non-worker thread rebuilt a shard"
    );

    // At least one rebuild flipped a family: shard 0's split halves
    // (~13k dense keys each) sit below the RMI/FAST crossover, while
    // it started on RMI.
    assert!(
        count(&sw, "li_backend_switches_total") >= 1,
        "the storm must switch at least one shard's backend family"
    );

    // Structural proof, not just counters: the hot region's shards are
    // now tree-family, the three untouched dense shards still RMI.
    let hybrid = sw.hybrid_shards();
    assert!(hybrid >= 1, "no tree-family shard after the storm");
    assert!(
        hybrid <= sw.shard_count() - 3,
        "untouched dense shards must stay on RMI (hybrid={hybrid} of {})",
        sw.shard_count()
    );

    // Exact final contents: initial keys + every storm key.
    let mut expect: std::collections::BTreeSet<u64> = initial.into_iter().collect();
    for w in 0..writers {
        for i in 0..per_writer {
            expect.insert((w * per_writer + i) * 64 + 1);
        }
    }
    assert_eq!(sw.len(), expect.len());
    let dump = sw.range_keys(0, u64::MAX);
    assert!(dump.iter().eq(expect.iter()), "final contents diverged");
}

/// Case 7: the inline driver under a writer storm. With no worker
/// attached, every writer whose insert trips a trigger runs the
/// rebalance pass on its own thread — so while shard 0 sits over its
/// split threshold, all four writers trip it at once. Passes are
/// serialized: the first rebuilds the shard off-lock, the rest wait and
/// then find the topology stable. A shard rebuilt twice (two passes
/// racing on the same hot shard, the loser's rebuild discarded) would
/// show as selections, trainings or pass retrains the structural tally
/// does not account for.
#[test]
fn inline_writer_storm_rebuilds_each_shard_exactly_once() {
    // The Auto storm's shape: four dense shards, a storm confined to
    // shard 0 that seals runs, compacts stacks and splits the shard.
    let initial: Vec<u64> = (0..96_000u64).map(|i| i * 64).collect();
    let writers = 4u64;
    let per_writer = 800u64;
    let config = ShardedWritableConfig {
        merge_threshold: 256,
        check_interval: 0,
        max_runs: 2,
        backend: Backend::Auto,
        rebalance: RebalanceConfig {
            max_shard_len: 26_000,
            merge_max_len: 0,
            max_mean_err: None,
            max_shards: 16,
        },
        ..ShardedWritableConfig::default()
    };
    let sw = ShardedWritable::new(initial.clone(), 4, config);
    std::thread::scope(|scope| {
        for w in 0..writers {
            let sw = &sw;
            scope.spawn(move || {
                for i in 0..per_writer {
                    sw.insert((w * per_writer + i) * 64 + 1);
                }
            });
        }
    });
    assert!(!sw.has_background_worker());

    let (splits, merges, compactions) = (
        count(&sw, "li_shard_splits_total"),
        count(&sw, "li_shard_merges_total"),
        count(&sw, "li_compactions_total"),
    );
    assert!(splits >= 1, "the storm must split shard 0 inline");
    assert!(compactions >= 1, "the storm must compact inline");
    assert_eq!(merges, 0, "merges are disabled");

    // One grid search and one training per shard built: the initial
    // four, two per split, one per merge and per compaction (tiered
    // shards seal instead of merging their buffers, so nothing else
    // trains).
    let built = 4 + 2 * splits + merges + compactions;
    assert_eq!(
        count(&sw, "li_backend_selections_total"),
        built,
        "a shard was selected twice (splits={splits}, compactions={compactions})"
    );
    assert_eq!(
        count(&sw, "li_trainings_total"),
        built,
        "a shard was trained twice"
    );
    // Every inline split ran the one off-lock step: one timed rebuild
    // per published split or merge, none discarded.
    let m = sw.metrics();
    let retrains = m.histogram("li_pass_retrain_ns").expect("registered");
    assert_eq!(retrains.count(), (splits + merges) as u64);
    assert_eq!(sw.generation(), (splits + merges) as u64);

    // Exact final contents: initial keys + every storm key.
    let mut expect: std::collections::BTreeSet<u64> = initial.into_iter().collect();
    for w in 0..writers {
        for i in 0..per_writer {
            expect.insert((w * per_writer + i) * 64 + 1);
        }
    }
    assert_eq!(sw.len(), expect.len());
    let dump = sw.range_keys(0, u64::MAX);
    assert!(dump.iter().eq(expect.iter()), "final contents diverged");
}
