//! Live observability: watch a serving tier measure itself while a
//! background writer storm reshapes it.
//!
//! ```sh
//! cargo run --release --example live_stats
//! ```
//!
//! A writer thread floods a [`ShardedWritable`] with fresh keys (with
//! a background [`RebalanceWorker`] attached, so splits, merges and
//! compactions happen off the insert path) while the main thread
//! periodically scrapes [`ShardedWritable::render_text`] — exactly
//! what a Prometheus endpoint would serve — and prints the deltas: op
//! counters, per-shard gauges, sampled latency quantiles, and the
//! structural-event tail from the lock-free trace ring. The final
//! dump demonstrates the accounting is exact: every insert counted
//! once, and every split/merge/compaction the worker's passes applied
//! is in the registry's counters.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

use learned_indexes::data::Dataset;
use learned_indexes::serve::{
    RebalanceConfig, RebalanceWorker, ShardedWritable, ShardedWritableConfig,
};

fn main() {
    run(learned_indexes::scale::keys_from_env(200_000));
}

/// The example body, parameterized by key count so the example smoke
/// tests (`tests/examples_smoke.rs`) can run it at tiny scale.
pub fn run(n: usize) {
    let keyset = Dataset::Lognormal.generate(n, 42);
    let keys = keyset.keys();
    let (initial, fresh) = keys.split_at(keys.len() / 2);
    println!(
        "dataset: {} lognormal keys ({} seeded, {} arriving live)",
        keys.len(),
        initial.len(),
        fresh.len()
    );

    // Tiered write path under real split pressure, so the storm
    // provokes seals, compactions and topology changes for the
    // metrics to see.
    let shards = 4;
    let max_shard_len = (initial.len() * 3 / (2 * shards)).max(1024);
    let sw = Arc::new(ShardedWritable::new(
        initial.to_vec(),
        shards,
        ShardedWritableConfig {
            merge_threshold: 1_000,
            max_runs: 4,
            rebalance: RebalanceConfig {
                max_shard_len,
                merge_max_len: (max_shard_len / 4).max(1),
                ..RebalanceConfig::default()
            },
            ..ShardedWritableConfig::default()
        },
    ));
    let worker = RebalanceWorker::spawn(Arc::clone(&sw));

    // Background writer storm + periodic scrapes of the same registry.
    let done = AtomicBool::new(false);
    std::thread::scope(|scope| {
        let writer = {
            let sw = Arc::clone(&sw);
            let done = &done;
            scope.spawn(move || {
                for chunk in fresh.chunks(512) {
                    sw.insert_batch(chunk);
                }
                done.store(true, Ordering::Release);
            })
        };

        let mut scrape = 0usize;
        while !done.load(Ordering::Acquire) {
            std::thread::sleep(Duration::from_millis(20));
            scrape += 1;
            let snap = sw.metrics();
            println!(
                "scrape {scrape}: inserts={} shards={} splits={} seals={} compactions={}",
                snap.counter("li_batch_insert_keys_total").unwrap_or(0),
                snap.gauge("li_shard_count").unwrap_or(0),
                snap.counter("li_shard_splits_total").unwrap_or(0),
                snap.counter("li_buffer_seals_total").unwrap_or(0),
                snap.counter("li_compactions_total").unwrap_or(0),
            );
        }
        writer.join().expect("writer panicked");
    });
    worker.wait_until_stable(Duration::from_secs(30));

    // The full text exposition — what a /metrics endpoint would serve.
    println!("\n--- render_text() ---");
    print!("{}", sw.render_text());

    // The accounting is exact: every live key was counted exactly once
    // by the batch-insert counter.
    let snap = sw.metrics();
    assert_eq!(
        snap.counter("li_batch_insert_keys_total"),
        Some(fresh.len() as u64),
        "every batched key counted once"
    );
    // Only the worker rebalanced: the registry totals are exactly what
    // its own passes applied.
    let applied = worker.applied();
    let count = |name| snap.counter(name).unwrap_or(0) as usize;
    assert_eq!(count("li_shard_splits_total"), applied.splits);
    assert_eq!(count("li_shard_merges_total"), applied.merges);
    assert_eq!(count("li_compactions_total"), applied.compactions);
    // The per-shard gauge families always match the final topology.
    assert_eq!(
        snap.gauge_set("li_shard_len").map(<[u64]>::len),
        Some(sw.shard_count())
    );
    println!(
        "\nfinal: {} keys, {} shards, {} splits / {} merges / {} compactions (worker == registry)",
        sw.len(),
        sw.shard_count(),
        applied.splits,
        applied.merges,
        applied.compactions,
    );
}
