//! Multi-thread serving scaling: the sharded index under concurrent
//! batched load.
//!
//! The ROADMAP's north star is a serving system, and serving is where
//! partitioned learned indexes earn their keep ("Learned Indexes for a
//! Google-scale Disk-based Database" partitions exactly this way). This
//! experiment measures a [`ShardedIndex`] over the Lognormal dataset at
//! every shard count in [`SHARD_GRID`]: the scalar path, the bucketed
//! batch path, and the parallel batch path fanned across 1/2/4/8
//! scoped threads — all in ns per query, so the columns compare
//! directly.
//!
//! Parallel speedup is bounded by the physical cores the host exposes
//! (reported in the table notes); on a single-core container the
//! 1→4-thread column shows contention, not scaling, while the shard
//! and batch columns still show the partitioning/bucketing effects.

use crate::harness::{mb, time_batch_chunked_ns, time_batch_ns, BenchConfig};
use crate::table::Table;
use li_data::Dataset;
use li_index::{KeyStore, RangeIndex};
use li_serve::{RmiShardBuilder, ShardedIndex};
use std::time::Instant;

/// Queries per batch call (matches fig4's batched column).
pub const BATCH_CHUNK: usize = 1024;

/// Shard counts measured.
pub const SHARD_GRID: [usize; 4] = [1, 4, 8, 16];

/// Thread counts for the parallel-batched path.
pub const THREAD_GRID: [usize; 4] = [1, 2, 4, 8];

/// One measured shard configuration.
#[derive(Debug, Clone)]
pub struct ScalingRow {
    /// Shard count.
    pub shards: usize,
    /// Index overhead in bytes (shards + router).
    pub size_bytes: usize,
    /// Mean scalar `lower_bound` ns per query.
    pub scalar_ns: f64,
    /// Mean bucketed `lower_bound_batch` ns per query (chunks of
    /// [`BATCH_CHUNK`]).
    pub batch_ns: f64,
    /// `(threads, ns per query)` for the parallel-batched path, one
    /// entry per [`THREAD_GRID`] value.
    pub parallel_ns: Vec<(usize, f64)>,
}

/// Time the parallel path: whole-workload passes through
/// `lower_bound_batch_parallel` at `threads`, mean ns per query (one
/// warm-up pass precedes the measured passes).
fn time_parallel_ns(idx: &ShardedIndex, queries: &[u64], threads: usize) -> f64 {
    let mut out = vec![0usize; queries.len()];
    idx.lower_bound_batch_parallel(queries, &mut out, threads);
    const PASSES: usize = 3;
    let t0 = Instant::now();
    for _ in 0..PASSES {
        idx.lower_bound_batch_parallel(queries, &mut out, threads);
    }
    let elapsed = t0.elapsed();
    std::hint::black_box(&out);
    elapsed.as_nanos() as f64 / (queries.len() * PASSES) as f64
}

/// Run the scaling grid on the Lognormal dataset.
pub fn run(cfg: &BenchConfig) -> Vec<ScalingRow> {
    let keyset = Dataset::Lognormal.generate(cfg.keys, cfg.seed);
    let queries = keyset.sample_existing(cfg.queries, cfg.seed ^ 0x5EED);
    let store = KeyStore::from(keyset.keys());
    let builder = RmiShardBuilder::new();

    SHARD_GRID
        .iter()
        .map(|&shards| {
            let idx = ShardedIndex::build(store.clone(), shards, &builder);
            let scalar_ns = time_batch_ns(&queries, |q| idx.lower_bound(q));
            let batch_ns = time_batch_chunked_ns(&queries, BATCH_CHUNK, |chunk, out| {
                idx.lower_bound_batch(chunk, out)
            });
            let parallel_ns = THREAD_GRID
                .iter()
                .map(|&t| (t, time_parallel_ns(&idx, &queries, t)))
                .collect();
            ScalingRow {
                shards: idx.shard_count(),
                size_bytes: idx.size_bytes(),
                scalar_ns,
                batch_ns,
                parallel_ns,
            }
        })
        .collect()
}

/// Render the scaling table.
pub fn print(rows: &[ScalingRow], keys: usize) {
    let mut header: Vec<String> = vec![
        "Shards".into(),
        "Size (MB)".into(),
        "Scalar (ns)".into(),
        "Batched (ns)".into(),
    ];
    header.extend(THREAD_GRID.iter().map(|t| format!("Par@{t} (ns)")));
    let header_refs: Vec<&str> = header.iter().map(|s| s.as_str()).collect();

    let mut t = Table::new(
        &format!("Serving scaling — ShardedIndex on Lognormal ({keys} keys)"),
        &header_refs,
    );
    for r in rows {
        let mut cells = vec![
            r.shards.to_string(),
            format!("{:.2}", mb(r.size_bytes)),
            format!("{:.0}", r.scalar_ns),
            format!(
                "{:.0} ({:.2}x vs scalar)",
                r.batch_ns,
                r.scalar_ns / r.batch_ns.max(1e-9)
            ),
        ];
        let par1 = r.parallel_ns.first().map(|&(_, ns)| ns).unwrap_or(f64::NAN);
        for &(_, ns) in &r.parallel_ns {
            cells.push(format!("{:.0} ({:.2}x vs 1T)", ns, par1 / ns.max(1e-9)));
        }
        t.row(&cells);
    }
    let cores = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    t.note(&format!(
        "parallel = lower_bound_batch_parallel over the whole workload; host exposes {cores} core(s) — speedup is bounded by that"
    ));
    t.note("batched = per-shard bucketed lower_bound_batch in chunks of 1024 (phase-split within each shard)");
    t.print();
    println!();
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smoke_run_covers_the_grid() {
        let rows = run(&BenchConfig::smoke());
        assert_eq!(rows.len(), SHARD_GRID.len());
        for r in &rows {
            assert!(r.scalar_ns > 0.0 && r.batch_ns > 0.0, "shards={}", r.shards);
            assert_eq!(r.parallel_ns.len(), THREAD_GRID.len());
            for &(t, ns) in &r.parallel_ns {
                assert!(ns > 0.0, "shards={} threads={t}", r.shards);
                // Sanity bound, not a perf assertion: the parallel path
                // must stay within two orders of magnitude of scalar
                // even on a loaded single-core CI runner.
                assert!(
                    ns < r.scalar_ns * 100.0 + 10_000.0,
                    "shards={} threads={t}: {ns} vs scalar {}",
                    r.shards,
                    r.scalar_ns
                );
            }
        }
    }

    #[test]
    fn parallel_results_equal_sequential_results() {
        let cfg = BenchConfig::smoke();
        let keyset = Dataset::Lognormal.generate(cfg.keys, cfg.seed);
        let queries = keyset.sample_existing(2000, 99);
        let idx = ShardedIndex::build(KeyStore::from(keyset.keys()), 8, &RmiShardBuilder::new());
        let mut seq = vec![0usize; queries.len()];
        idx.lower_bound_batch(&queries, &mut seq);
        for threads in THREAD_GRID {
            let mut par = vec![usize::MAX; queries.len()];
            idx.lower_bound_batch_parallel(&queries, &mut par, threads);
            assert_eq!(par, seq, "threads={threads}");
        }
    }
}
