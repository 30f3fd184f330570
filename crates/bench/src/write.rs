//! Write-path throughput: the sharded concurrent write path under
//! insert load, with lookup latency measured *while the writes run* —
//! across four write strategies per configuration:
//!
//! * **Scalar / inline** — one [`ShardedWritable::insert`] per key;
//!   the insert that trips a trigger runs the rebalance pass itself
//!   (off-lock rebuild, brief publish) and pays its latency.
//! * **Batched / inline** — [`ShardedWritable::insert_batch`] in
//!   [`INSERT_BATCH`]-key chunks: one topology-lock acquisition and one
//!   per-shard lock handoff per chunk instead of per key.
//! * **Scalar / background** — scalar inserts with a
//!   [`RebalanceWorker`] attached: inserts only signal; the same
//!   rebalance pass runs on the worker thread, off the insert path.
//! * **Tiered** — scalar inserts with `max_runs =` [`TIERED_MAX_RUNS`]
//!   and a worker attached: full buffers *seal* into immutable sorted
//!   runs (O(buffer), no retrain) and the worker folds full run stacks
//!   into the base with one retrain per [`TIERED_MAX_RUNS`] buffers —
//!   the LSM-style write path, so the hot insert path never pays a
//!   base retrain.
//!
//! The paper's Appendix D.1 sketches the buffer-and-retrain insert
//! strategy; "Learned Indexes for a Google-scale Disk-based Database"
//! shows that sustaining it under concurrent traffic is where the
//! engineering lives. For every configuration in [`WRITE_SHARD_GRID`] ×
//! [`MERGE_THRESHOLDS`] a writer thread floods fresh keys while the
//! measuring thread samples point-lookup latency: inserts per second,
//! p99 lookup-under-writes latency, and the rebalance activity the
//! load provoked.
//!
//! On a single-core host the writer, the measuring reader and (in the
//! background rows) the worker contend for the same CPU, so the
//! absolute numbers measure interleaving, not parallel capacity — the
//! table prints `available_parallelism` so the reader can judge
//! (EXPERIMENTS.md records the caveat).

use crate::harness::{BenchConfig, LatencySummary};
use crate::table::Table;
use li_data::Dataset;
use li_obs::Histogram;
use li_serve::{RebalanceConfig, RebalanceWorker, ShardedWritable, ShardedWritableConfig};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Initial shard counts measured.
pub const WRITE_SHARD_GRID: [usize; 3] = [1, 4, 8];

/// Per-shard delta merge thresholds measured.
pub const MERGE_THRESHOLDS: [usize; 2] = [1_000, 16_000];

/// Chunk size for the batched write mode. Sized like the read path's
/// batch experiments: big enough to amortize the topology lock and to
/// give the per-shard phase-split base probes real memory-level
/// parallelism, small enough to stay cache-resident.
pub const INSERT_BATCH: usize = 4096;

/// Run-stack bound for the tiered mode: one base retrain per this many
/// sealed buffers (vs one per buffer in the untiered modes). Four
/// balances the retrain amortization (insert throughput) against the
/// lookup fan-out — every read probes the stack before the base, so a
/// deeper stack trades write speed for lookup tail latency.
pub const TIERED_MAX_RUNS: usize = 4;

/// How the writer drives its inserts for one measured sub-run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WriteMode {
    /// One `insert` per key; inline rebalancing.
    Scalar,
    /// `insert_batch` in [`INSERT_BATCH`]-key chunks; inline
    /// rebalancing.
    Batched,
    /// One `insert` per key; a background [`RebalanceWorker`] owns
    /// rebalancing.
    Background,
    /// One `insert` per key with `max_runs =` [`TIERED_MAX_RUNS`] and a
    /// background worker: buffers seal into runs, the worker compacts.
    Tiered,
}

impl WriteMode {
    /// All modes, in measurement (and table-column) order.
    pub const ALL: [WriteMode; 4] = [
        WriteMode::Scalar,
        WriteMode::Batched,
        WriteMode::Background,
        WriteMode::Tiered,
    ];

    /// The CLI / table name of the mode.
    pub fn name(self) -> &'static str {
        match self {
            WriteMode::Scalar => "scalar",
            WriteMode::Batched => "batched",
            WriteMode::Background => "bg",
            WriteMode::Tiered => "tiered",
        }
    }

    /// Parse a CLI mode name (as listed by [`WriteMode::name`]).
    ///
    /// # Examples
    /// ```
    /// use li_bench::write::WriteMode;
    ///
    /// assert_eq!(WriteMode::parse("tiered"), Some(WriteMode::Tiered));
    /// assert_eq!(WriteMode::parse("bg"), Some(WriteMode::Background));
    /// assert_eq!(WriteMode::parse("nope"), None);
    /// ```
    pub fn parse(s: &str) -> Option<WriteMode> {
        WriteMode::ALL.into_iter().find(|m| m.name() == s)
    }
}

/// Stats of one measured (configuration, mode) sub-run.
#[derive(Debug, Clone)]
pub struct ModeStats {
    /// Distinct keys the writer newly inserted (mode-independent: all
    /// three modes drive the same stream, so this must agree across
    /// them — the smoke test asserts it).
    pub inserted: usize,
    /// Newly inserted keys per second sustained by the writer.
    pub inserts_per_sec: f64,
    /// Mean point-lookup ns while the writer ran.
    pub mean_lookup_ns: f64,
    /// p99 point-lookup ns while the writer ran.
    pub p99_lookup_ns: f64,
    /// Shard splits the load provoked.
    pub splits: usize,
    /// Shard merges the load provoked.
    pub shard_merges: usize,
    /// Run-stack compactions the load provoked (tiered mode only;
    /// always 0 elsewhere).
    pub compactions: usize,
    /// Final shard count after the load.
    pub final_shards: usize,
}

/// One measured write configuration: the requested modes side by side
/// (`None` = mode filtered out by [`run_modes`]).
#[derive(Debug, Clone)]
pub struct WriteRow {
    /// Initial shard count.
    pub shards: usize,
    /// Per-shard delta merge threshold.
    pub merge_threshold: usize,
    /// Scalar inserts, inline rebalancing (the baseline).
    pub scalar: Option<ModeStats>,
    /// Batched inserts, inline rebalancing.
    pub batched: Option<ModeStats>,
    /// Scalar inserts, background rebalance worker.
    pub background: Option<ModeStats>,
    /// Scalar inserts, sealed-run tiering + background compaction.
    pub tiered: Option<ModeStats>,
}

impl WriteRow {
    /// The stats measured for `mode`, if that mode ran.
    pub fn mode(&self, mode: WriteMode) -> Option<&ModeStats> {
        match mode {
            WriteMode::Scalar => self.scalar.as_ref(),
            WriteMode::Batched => self.batched.as_ref(),
            WriteMode::Background => self.background.as_ref(),
            WriteMode::Tiered => self.tiered.as_ref(),
        }
    }
}

/// Greatest common divisor (for choosing a permutation stride).
fn gcd(mut a: usize, mut b: usize) -> usize {
    while b != 0 {
        (a, b) = (b, a % b);
    }
    a
}

/// Run one (configuration, mode) sub-run: the writer floods `inserts`
/// fresh keys (scalar or batched) while the measuring thread samples
/// lookups; in background mode a worker owns rebalancing for the
/// duration.
fn run_one(
    initial: &[u64],
    inserts: &[u64],
    lookups: &[u64],
    shards: usize,
    merge_threshold: usize,
    mode: WriteMode,
) -> ModeStats {
    // Split pressure scaled so the grid provokes real rebalancing:
    // the keyset doubles over the run, and a shard splits once it
    // outgrows its initial fair share by 1.5x — so every configuration
    // pays the topology-maintenance cost it would pay in production.
    let max_shard_len = (initial.len() * 3 / (2 * shards.max(1))).max(1024);
    let config = ShardedWritableConfig {
        merge_threshold,
        max_runs: if mode == WriteMode::Tiered {
            TIERED_MAX_RUNS
        } else {
            0
        },
        rebalance: RebalanceConfig {
            max_shard_len,
            merge_max_len: (max_shard_len / 4).max(1),
            ..RebalanceConfig::default()
        },
        ..ShardedWritableConfig::default()
    };
    let sw = Arc::new(ShardedWritable::new(initial.to_vec(), shards, config));
    let worker = matches!(mode, WriteMode::Background | WriteMode::Tiered)
        .then(|| RebalanceWorker::spawn(Arc::clone(&sw)));

    let done = AtomicBool::new(false);
    // Every sampled lookup lands in the shared li-obs histogram; the
    // mean/p99 columns come from its snapshot (same quantile engine as
    // the serving tier's own metrics).
    let lookup_hist = Histogram::new();
    let mut write_secs = 0.0f64;
    let mut inserted = 0usize;

    std::thread::scope(|scope| {
        let sw_ref = &*sw;
        let done_ref = &done;
        let writer = scope.spawn(move || {
            let t0 = Instant::now();
            let mut n = 0usize;
            match mode {
                WriteMode::Scalar | WriteMode::Background | WriteMode::Tiered => {
                    for &k in inserts {
                        n += usize::from(sw_ref.insert(k));
                    }
                }
                WriteMode::Batched => {
                    for chunk in inserts.chunks(INSERT_BATCH) {
                        n += sw_ref.insert_batch(chunk).iter().filter(|&&f| f).count();
                    }
                }
            }
            let secs = t0.elapsed().as_secs_f64();
            done_ref.store(true, Ordering::Release);
            (n, secs)
        });

        // Measuring loop: sample lookups until the writer finishes,
        // then keep cycling so every configured lookup gets a sample
        // even if the writer is quick.
        let mut acc = 0usize;
        for (i, &q) in lookups.iter().cycle().enumerate() {
            if i >= lookups.len() && done.load(Ordering::Acquire) {
                break;
            }
            let t0 = Instant::now();
            acc += usize::from(sw.contains(q));
            lookup_hist.record_since(t0);
        }
        std::hint::black_box(acc);

        let (n, secs) = writer.join().expect("writer panicked");
        inserted = n;
        write_secs = secs;
    });

    if let Some(worker) = &worker {
        // Let the worker finish any in-flight rebuild so the final
        // split/merge counters are settled before we read them.
        worker.wait_until_stable(Duration::from_secs(30));
    }
    drop(worker);

    let lat = LatencySummary::of(&lookup_hist);
    let metrics = sw.metrics();
    let count = |name| metrics.counter(name).unwrap_or(0) as usize;
    ModeStats {
        inserted,
        inserts_per_sec: inserted as f64 / write_secs.max(1e-9),
        mean_lookup_ns: lat.mean_ns,
        p99_lookup_ns: lat.p99_ns as f64,
        splits: count("li_shard_splits_total"),
        shard_merges: count("li_shard_merges_total"),
        compactions: count("li_compactions_total"),
        final_shards: sw.shard_count(),
    }
}

/// Run the full write grid (all of [`WriteMode::ALL`]); see
/// [`run_modes`] to measure a subset.
pub fn run(cfg: &BenchConfig) -> Vec<WriteRow> {
    run_modes(cfg, &WriteMode::ALL)
}

/// Run the write grid on the Lognormal dataset: half the keys seed the
/// structure, the other half arrive as concurrent inserts — one
/// measured sub-run per requested mode per configuration (modes not in
/// `modes` stay `None` in every [`WriteRow`]).
pub fn run_modes(cfg: &BenchConfig, modes: &[WriteMode]) -> Vec<WriteRow> {
    let keyset = Dataset::Lognormal.generate(cfg.keys, cfg.seed);
    let keys = keyset.keys();
    // Even positions seed the structure; odd positions are the insert
    // stream (shuffled order via stride so inserts hit every shard).
    let initial: Vec<u64> = keys.iter().copied().step_by(2).collect();
    let mut inserts: Vec<u64> = keys.iter().copied().skip(1).step_by(2).collect();
    // Deterministic de-clustering: remap the sorted insert stream by a
    // stride *coprime* with its length, so `i -> (i * stride) % n` is a
    // permutation — every key inserted exactly once, in shuffled order.
    let n = inserts.len();
    if n > 1 {
        let mut stride = (n / 2) | 1;
        while gcd(stride, n) != 1 {
            stride += 2;
        }
        inserts = (0..n).map(|i| inserts[(i * stride) % n]).collect();
    }
    let lookups = keyset.sample_existing(cfg.queries.clamp(1, 20_000), cfg.seed ^ 0x5712);

    WRITE_SHARD_GRID
        .iter()
        .flat_map(|&shards| {
            MERGE_THRESHOLDS
                .iter()
                .map(move |&mt| (shards, mt))
                .collect::<Vec<_>>()
        })
        .map(|(shards, mt)| {
            let measure = |mode: WriteMode| {
                modes
                    .contains(&mode)
                    .then(|| run_one(&initial, &inserts, &lookups, shards, mt, mode))
            };
            WriteRow {
                shards,
                merge_threshold: mt,
                scalar: measure(WriteMode::Scalar),
                batched: measure(WriteMode::Batched),
                background: measure(WriteMode::Background),
                tiered: measure(WriteMode::Tiered),
            }
        })
        .collect()
}

/// Render the write-path table. Modes not measured print `-`.
pub fn print(rows: &[WriteRow], keys: usize) {
    let ips = |m: Option<&ModeStats>| {
        m.map_or_else(|| "-".into(), |m| format!("{:.0}", m.inserts_per_sec))
    };
    let p99 =
        |m: Option<&ModeStats>| m.map_or_else(|| "-".into(), |m| format!("{:.0}", m.p99_lookup_ns));
    let ratio = |m: Option<&ModeStats>, base: Option<&ModeStats>| match (m, base) {
        (Some(m), Some(b)) => format!("{:.2}", m.inserts_per_sec / b.inserts_per_sec.max(1e-9)),
        _ => "-".into(),
    };
    let mut t = Table::new(
        &format!(
            "Write path — ShardedWritable on Lognormal ({keys} keys, half inserted live; batch = {INSERT_BATCH}; tiered max_runs = {TIERED_MAX_RUNS})"
        ),
        &[
            "Shards",
            "Merge thr.",
            "Scalar ins/s",
            "Batched ins/s",
            "Batch x",
            "BG ins/s",
            "Tiered ins/s",
            "Tiered x",
            "p99 scalar (ns)",
            "p99 BG (ns)",
            "p99 tiered (ns)",
            "Rebal (s/m, BG)",
            "Compactions",
            "Final shards",
        ],
    );
    for r in rows {
        let (sc, ba, bg, ti) = (
            r.scalar.as_ref(),
            r.batched.as_ref(),
            r.background.as_ref(),
            r.tiered.as_ref(),
        );
        t.row(&[
            r.shards.to_string(),
            r.merge_threshold.to_string(),
            ips(sc),
            ips(ba),
            ratio(ba, sc),
            ips(bg),
            ips(ti),
            ratio(ti, sc),
            p99(sc),
            p99(bg),
            p99(ti),
            bg.map_or_else(
                || "-".into(),
                |m| format!("{}/{}", m.splits, m.shard_merges),
            ),
            ti.map_or_else(|| "-".into(), |m| m.compactions.to_string()),
            [ti, bg, ba, sc]
                .into_iter()
                .flatten()
                .next()
                .map_or_else(|| "-".into(), |m| m.final_shards.to_string()),
        ]);
    }
    let cores = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    t.note(&format!(
        "lookups sampled concurrently with the insert stream; host exposes {cores} core(s) — on 1 core the numbers measure interleaving, not parallel capacity"
    ));
    t.note("mean/p99 lookup latency comes from an li-obs log-linear histogram (bounded-error quantiles, same engine as the serving tier's metrics)");
    t.note("Scalar/Batched run the rebalance pass on the inserting thread that trips a trigger; BG and Tiered rows attach a RebalanceWorker that runs the same pass off the insert path (either way, rebuilds run with no topology lock held and publish with a straggler drain)");
    t.note("Tiered rows seal full buffers into sorted runs (no retrain) and the worker folds full stacks into the base — one retrain per max_runs buffers; Compactions counts those folds");
    t.note("splits/merges = rebalance actions the load provoked (a shard splits at 1.5x its initial fair share; the keyset doubles over the run)");
    t.print();
    println!();
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smoke_run_covers_the_grid_and_modes() {
        let rows = run(&BenchConfig {
            keys: 6_000,
            queries: 500,
            seed: 7,
        });
        assert_eq!(rows.len(), WRITE_SHARD_GRID.len() * MERGE_THRESHOLDS.len());
        for r in &rows {
            for mode in WriteMode::ALL {
                let m = r.mode(mode).expect("run() measures every mode");
                let label = mode.name();
                assert!(m.inserts_per_sec > 0.0, "{label}: {m:?}");
                // No relationship asserted between mean and p99: the
                // latency distribution is heavy-tailed (a lookup landing
                // behind a whole-base retrain costs milliseconds), so the
                // mean can legitimately exceed p99 on a loaded host.
                assert!(m.mean_lookup_ns > 0.0 && m.p99_lookup_ns > 0.0, "{label}");
                assert!(m.final_shards >= 1, "{label}");
                // Only the tiered mode ever compacts.
                if mode != WriteMode::Tiered {
                    assert_eq!(m.compactions, 0, "{label}");
                }
            }
            // All modes drive the same insert stream, so they must
            // agree on how many keys were newly inserted (throughput
            // differs, semantics must not — a mode that dropped or
            // double-counted keys fails here).
            let scalar = r.scalar.as_ref().unwrap();
            assert!(scalar.inserted > 0, "{r:?}");
            for mode in [WriteMode::Batched, WriteMode::Background, WriteMode::Tiered] {
                assert_eq!(scalar.inserted, r.mode(mode).unwrap().inserted, "{r:?}");
            }
        }
    }

    #[test]
    fn run_modes_filters_to_the_requested_subset() {
        let rows = run_modes(
            &BenchConfig {
                keys: 4_000,
                queries: 200,
                seed: 11,
            },
            &[WriteMode::Scalar, WriteMode::Tiered],
        );
        for r in &rows {
            assert!(r.scalar.is_some() && r.tiered.is_some(), "{r:?}");
            assert!(r.batched.is_none() && r.background.is_none(), "{r:?}");
            // The tiered stream inserts the same keyset and — at the
            // 1k threshold — seals instead of merging, provoking
            // worker-side compactions under sustained load.
            assert_eq!(
                r.scalar.as_ref().unwrap().inserted,
                r.tiered.as_ref().unwrap().inserted
            );
        }
    }

    #[test]
    fn mode_names_round_trip() {
        for mode in WriteMode::ALL {
            assert_eq!(WriteMode::parse(mode.name()), Some(mode));
        }
        assert_eq!(WriteMode::parse("Scalar"), None, "names are lowercase");
    }

    #[test]
    fn declustering_stride_is_a_permutation() {
        // Regression: n ≡ 2 (mod 4) made the old stride share a factor
        // with n, collapsing the stream onto 2 distinct keys.
        for n in [1usize, 2, 7, 50_002, 100_000, 99_999] {
            let mut stride = (n / 2) | 1;
            while gcd(stride, n) != 1 {
                stride += 2;
            }
            let mut seen = vec![false; n];
            for i in 0..n {
                seen[(i * stride) % n] = true;
            }
            assert!(seen.iter().all(|&s| s), "n={n} stride={stride}");
        }
    }
}
