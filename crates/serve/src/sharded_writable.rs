//! The sharded concurrent write path: N [`WritableShard`]s behind an
//! `Arc`-swapped topology, with dynamic rebalancing.
//!
//! # Architecture
//!
//! A [`ShardedWritable`] owns an immutable **topology** — the ownership
//! boundary keys, a [`ShardRouter`] fitted over them, and one
//! [`WritableShard`] per ownership range — behind
//! `RwLock<Arc<Topology>>`:
//!
//! * **Inserts** take the topology *read* lock (so many writers run
//!   concurrently), route the key to its owner shard with
//!   [`ShardRouter::route_owner`], and insert there; each shard
//!   serializes its own writes and runs its own Appendix-D.1
//!   buffer-merge-retrain cycle independently.
//! * **Snapshots** ([`ShardedWritable::snapshot`]) also take the read
//!   lock, clone the router and capture one [`DeltaSnapshot`] per shard
//!   — a consistent router + snapshot-vector *pair* from a single
//!   topology. All subsequent reads on the [`ShardedSnapshot`] are
//!   lock-free.
//! * **Rebalancing** takes the topology *write* lock: with all inserts
//!   excluded, a hot shard is split at its balanced
//!   [`li_index::partition::split_point`] (handing the upper half of
//!   its keys to a new sibling), or two cold neighbors are merged; the
//!   boundary vector is updated, the router rebuilt, and the whole
//!   topology published as one new `Arc`. A snapshot therefore always
//!   observes a *pre-* or *post-*rebalance topology, never a torn
//!   mixture — the property the stress and property suites pin down.
//!
//! # Ownership invariant
//!
//! Shard `s` holds exactly the keys in `[bounds[s-1], bounds[s])` (see
//! `li_index::partition::route_owner_binary` for the composition
//! proof). Inserts preserve it because routing picks the owner; splits
//! and merges preserve it because they only subdivide or concatenate
//! ownership ranges. It is what makes every global query — `contains`,
//! `rank`, `range_keys` — a one-shard (plus O(1) bookkeeping) affair,
//! and what keeps cross-shard concatenation globally sorted.
//!
//! # Tiered write path
//!
//! With [`ShardedWritableConfig::max_runs`] `> 0` every shard runs the
//! LSM-style tiered cycle instead of merge-at-threshold: a full buffer
//! is *sealed* into an immutable [`li_core::SortedRun`] (O(buffer), no
//! base retrain), and once `max_runs` runs stack up the shard is
//! *compacted* — all runs folded into the base with ONE retrain. The
//! insert that fills a run stack never compacts inline while a
//! [`crate::RebalanceWorker`] is attached; it only signals, and the
//! worker folds the stack off the insert path (with no worker
//! attached, the insert compacts inline — the same owner-driven
//! fallback as inline rebalancing).
//!
//! # Per-shard retuning
//!
//! Every shard (re)build sizes its RMI leaf count from the shard's
//! actual key count (`leaf_fraction`), then *retunes* through the same
//! loop the read path's `RmiShardBuilder::with_retune` uses: while the
//! trained base's error stats exceed the configured
//! [`RetunePolicy`], the build retries with doubled leaf density — so
//! a skewed key region gets a denser model instead of a permanently
//! mispredicting one. Between rebuilds, a shard whose region turned
//! hot anyway is caught by the error-triggered split in
//! [`crate::rebalance::plan`].

use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, RwLock};
use std::time::Instant;

use li_core::delta::{DeltaIndex, DeltaSnapshot};
use li_core::rmi::{RmiConfig, TopModel};
use li_index::partition::{boundaries, even_offsets, split_point};
use li_index::KeyStore;
use li_obs::MetricsSnapshot;

use crate::builder::{retune_rmi, RetunePolicy};
use crate::obs::{events, ServeMetrics};
use crate::persist::PersistError;
use crate::rebalance::{plan, RebalanceAction, RebalanceConfig};
use crate::rebalance_worker::WorkerLink;
use crate::router::ShardRouter;
use crate::select::{train_selected, Backend};
use crate::wal::{self, Wal, WalOp, WalSyncPolicy};
use crate::writable::WritableShard;

/// Configuration of a [`ShardedWritable`].
///
/// # Examples
/// ```
/// use li_serve::{RebalanceConfig, ShardedWritable, ShardedWritableConfig};
///
/// let config = ShardedWritableConfig {
///     merge_threshold: 256, // buffered inserts per shard between retrains
///     check_interval: 512,  // periodic rebalance scan cadence
///     rebalance: RebalanceConfig {
///         max_shard_len: 4096, // split a shard beyond this
///         merge_max_len: 1024, // merge neighbors at/below this combined
///         ..RebalanceConfig::default()
///     },
///     ..ShardedWritableConfig::default()
/// };
/// let sw = ShardedWritable::new((0..10_000u64).collect::<Vec<_>>(), 4, config);
/// assert_eq!(sw.shard_count(), 4);
/// ```
#[derive(Debug, Clone)]
pub struct ShardedWritableConfig {
    /// Per-shard delta-buffer capacity between merge+retrain cycles.
    pub merge_threshold: usize,
    /// RMI leaf models per key when (re)building a shard (min 1 leaf).
    pub leaf_fraction: f64,
    /// Per-shard retuning on every shard (re)build — the same policy
    /// vocabulary (and the same loop) as
    /// [`crate::builder::RmiShardBuilder::with_retune`].
    pub retune: RetunePolicy,
    /// Run a full rebalance scan every this many successful inserts
    /// (in addition to the immediate check when an insert pushes its
    /// shard over the split threshold). `0` disables periodic scans.
    pub check_interval: usize,
    /// LSM-style tiering bound: `0` (the default) keeps the classic
    /// merge-at-threshold write path; `> 0` makes every shard seal a
    /// full buffer into an immutable sorted run (O(buffer), no base
    /// retrain) and schedules a compaction — all runs folded into the
    /// base with ONE retrain — once this many runs have stacked up.
    /// Compaction runs on the attached [`crate::RebalanceWorker`] when
    /// there is one, inline otherwise.
    pub max_runs: usize,
    /// How every shard (re)build trains its base (default
    /// [`Backend::Rmi`] — the retuned RMI, exactly the pre-adaptive
    /// behavior). [`Backend::Auto`] re-runs the adaptive grid search
    /// (`crate::select`) on every shard build, split, merge and
    /// compaction, so each shard's backend family follows its own
    /// drifting key distribution; [`Backend::BTree`] pins every shard
    /// to the all-B-Tree-leaf hybrid. The write tier's delta base must
    /// stay an RMI structurally, so `Interp`/`Fast` are rejected by
    /// validation here (they remain read-tier backends).
    pub backend: Backend,
    /// Hot-path observability (default `true`): count every insert and
    /// latency-sample 1-in-N of them into the structure's
    /// [`ServeMetrics`]. `false` strips the per-op instrumentation from
    /// the insert fast path (one branch remains) — the `repro stats`
    /// overhead benchmark compares the two. Structural metrics (splits,
    /// merges, compactions, WAL and worker activity) record regardless:
    /// they are cold-path and double as the structure's own counters.
    pub observe: bool,
    /// Split/merge thresholds.
    pub rebalance: RebalanceConfig,
}

impl Default for ShardedWritableConfig {
    fn default() -> Self {
        Self {
            merge_threshold: 1024,
            leaf_fraction: 1.0 / 200.0,
            retune: RetunePolicy::default(),
            check_interval: 1024,
            max_runs: 0,
            backend: Backend::Rmi,
            observe: true,
            rebalance: RebalanceConfig::default(),
        }
    }
}

impl ShardedWritableConfig {
    fn validate(&self) {
        assert!(self.merge_threshold > 0, "merge_threshold must be > 0");
        assert!(
            self.leaf_fraction > 0.0 && self.leaf_fraction.is_finite(),
            "leaf_fraction must be positive and finite"
        );
        assert!(
            self.retune.max_mean_err >= 0.0 && self.retune.max_mean_err.is_finite(),
            "retune.max_mean_err must be finite and >= 0"
        );
        assert!(
            matches!(self.backend, Backend::Auto | Backend::Rmi | Backend::BTree),
            "the write tier's delta base must be an RMI (plain or hybrid): \
             backend must be Auto, Rmi or BTree"
        );
        self.rebalance.validate();
    }
}

/// One immutable shard topology: ownership bounds, the router fitted
/// over them, and the shard handles. Published atomically as a whole —
/// readers and writers always see bounds, router and shards that agree.
#[derive(Debug)]
struct Topology {
    /// Ownership-range lower bounds of shards `1..N` (sorted).
    bounds: Vec<u64>,
    router: ShardRouter,
    shards: Vec<Arc<WritableShard>>,
    /// Bumped on every rebalance publication.
    generation: u64,
}

/// A fully sharded concurrent write path: concurrent inserts routed by
/// key ownership, lock-free snapshot reads, and dynamic shard
/// rebalancing with per-shard model retuning. See the module docs (and
/// `ARCHITECTURE.md` at the repository root) for the architecture.
///
/// Rebalancing runs in one of two modes:
///
/// * **Inline** (the default): the insert that pushes a shard over its
///   threshold — or that crosses the periodic scan cadence — runs
///   [`ShardedWritable::rebalance`] itself, paying the shard-rebuild
///   latency under the topology write lock.
/// * **Background**: with a [`crate::RebalanceWorker`] attached,
///   inserts only record pressure into lock-free counters and signal
///   the worker; splits and merges are rebuilt *off* the insert path
///   and published under a brief write lock (see
///   `rebalance_step_background`).
///
/// # Examples
/// ```
/// use li_serve::{ShardedWritable, ShardedWritableConfig};
///
/// let data: Vec<u64> = (0..1000u64).collect();
/// let sw = ShardedWritable::new(data, 4, ShardedWritableConfig::default());
/// assert!(sw.insert(5000));
///
/// // The batched write path: one topology-lock acquisition, one lock
/// // handoff per touched shard, per-key newly-inserted flags back.
/// let flags = sw.insert_batch(&[5000, 6000, 6000]);
/// assert_eq!(flags, vec![false, true, false]);
///
/// // Reads compose over a consistent lock-free snapshot.
/// let snap = sw.snapshot();
/// assert_eq!(snap.len(), 1002);
/// assert!(snap.contains(6000));
/// assert_eq!(snap.rank(1000), 1000);
/// ```
#[derive(Debug)]
pub struct ShardedWritable {
    topo: RwLock<Arc<Topology>>,
    config: ShardedWritableConfig,
    /// Successful (key-adding) inserts, for the periodic rebalance
    /// scan. Kept as a plain global atomic (not an `li-obs` striped
    /// counter) because the scan trigger needs an exact before/after
    /// pair from one `fetch_add` — control logic, not telemetry.
    inserts: AtomicUsize,
    /// The observability bundle: op counters, latency histograms, the
    /// structural-event ring, and the **single source of truth** for
    /// the split/merge/compaction counters behind
    /// [`ShardedWritable::splits`] and friends. Shared (via `Arc`
    /// clones) with every shard, the WAL and the background worker.
    obs: Arc<ServeMetrics>,
    /// Link to an attached background rebalance worker. `None` (the
    /// default) means inserts rebalance inline; `Some` means inserts
    /// only record pressure and signal — the worker owns rebalancing.
    worker: RwLock<Option<Arc<WorkerLink>>>,
    /// The attached write-ahead log, when this structure is durable
    /// (see [`ShardedWritable::enable_wal`] /
    /// [`ShardedWritable::recover`]). Writers hold this mutex across
    /// *append + in-memory apply* and `save` holds it across *cut +
    /// publish + truncate*, so the snapshot LSN provably bounds the
    /// cut — the lock order (WAL mutex, then topology lock) is the
    /// same everywhere.
    wal: Mutex<Option<Wal>>,
    /// Fast-path flag mirroring `wal.is_some()`: the non-durable
    /// insert path stays exactly as lock-free as before a WAL existed
    /// (one relaxed-ish atomic load, no mutex touched).
    durable: AtomicBool,
}

impl ShardedWritable {
    /// Build over initial sorted unique `data`, range-partitioned into
    /// `shards` balanced shards (clamped to at least 1 and at most one
    /// shard per key; the rebalancer grows the topology as load
    /// arrives). The initial partition is zero-copy: every shard's base
    /// is a [`KeyStore::slice`] of the caller's allocation.
    pub fn new(data: impl Into<KeyStore>, shards: usize, config: ShardedWritableConfig) -> Self {
        config.validate();
        let obs = Arc::new(ServeMetrics::new());
        let store: KeyStore = data.into();
        let n = shards.clamp(1, store.len().max(1));
        let offsets = even_offsets(store.len(), n);
        let bounds = boundaries(&store, &offsets);
        let shard_vec: Vec<Arc<WritableShard>> = offsets
            .windows(2)
            .map(|w| Arc::new(build_retuned_shard(store.slice(w[0]..w[1]), &config, &obs)))
            .collect();
        let router = ShardRouter::fit(bounds.clone());
        Self {
            topo: RwLock::new(Arc::new(Topology {
                bounds,
                router,
                shards: shard_vec,
                generation: 0,
            })),
            config,
            inserts: AtomicUsize::new(0),
            obs,
            worker: RwLock::new(None),
            wal: Mutex::new(None),
            durable: AtomicBool::new(false),
        }
    }

    /// Insert a key, returning whether it was newly inserted (`false`
    /// for duplicates). Routes to the owner shard under the topology
    /// read lock — concurrent inserts to different shards proceed in
    /// parallel. When the owner runs hot or the periodic scan comes
    /// due, either rebalances inline or (with a
    /// [`crate::RebalanceWorker`] attached) signals the background
    /// worker.
    ///
    /// With a WAL attached the key is logged **before** it touches the
    /// in-memory tiers. This signature stays infallible: a WAL I/O
    /// failure is *latched* (the write is still applied and
    /// acknowledged in memory, but is no longer durable) and surfaces
    /// on the next [`ShardedWritable::try_insert`],
    /// [`ShardedWritable::wal_sync`] or via
    /// [`ShardedWritable::wal_failure`] — the same window group commit
    /// already leaves open between sync points. Durable pipelines that
    /// must not acknowledge non-durable writes use
    /// [`ShardedWritable::try_insert`].
    pub fn insert(&self, key: u64) -> bool {
        // Observability: count every insert and decide the 1-in-N
        // latency sample with ONE relaxed striped add (`incr_sampled`),
        // so the two `Instant::now` calls never dominate the hot path
        // (see `crate::obs`).
        if self.config.observe && self.obs.inserts.incr_sampled(crate::obs::INSERT_SAMPLE) {
            let t = Instant::now();
            let r = self.insert_logged(key);
            self.obs.insert_ns.record_since(t);
            return r;
        }
        self.insert_logged(key)
    }

    /// The WAL-then-memory insert body behind [`ShardedWritable::insert`].
    fn insert_logged(&self, key: u64) -> bool {
        if self.durable.load(Ordering::Acquire) {
            let mut slot = self.wal.lock().unwrap_or_else(|e| e.into_inner());
            if let Some(w) = slot.as_mut() {
                // Failure latched inside the Wal; see the doc above.
                let _ = w.append_insert(key);
                if self.config.observe {
                    self.obs.durable_inserts.incr();
                }
                return self.insert_unlogged(key);
            }
        }
        self.insert_unlogged(key)
    }

    /// [`ShardedWritable::insert`] with WAL errors surfaced instead of
    /// latched: the write is applied (and acknowledged) only after its
    /// record is accepted by the log, so an `Err` means the key was
    /// **not** inserted. Identical to `insert` when no WAL is attached.
    pub fn try_insert(&self, key: u64) -> Result<bool, PersistError> {
        if self.config.observe {
            self.obs.inserts.incr();
        }
        if self.durable.load(Ordering::Acquire) {
            let mut slot = self.wal.lock().unwrap_or_else(|e| e.into_inner());
            if let Some(w) = slot.as_mut() {
                w.append_insert(key)?;
                if self.config.observe {
                    self.obs.durable_inserts.incr();
                }
                return Ok(self.insert_unlogged(key));
            }
        }
        Ok(self.insert_unlogged(key))
    }

    /// The WAL-free insert body shared by every scalar write path.
    fn insert_unlogged(&self, key: u64) -> bool {
        let obs = {
            // The read *guard* (not just the topology Arc) must live
            // across the shard insert: it is what excludes a concurrent
            // rebalance from exporting this shard's keys and publishing
            // a replacement topology while the key lands in the old,
            // about-to-be-discarded shard — a silently lost insert.
            let guard = self.topo.read().unwrap_or_else(|e| e.into_inner());
            let s = guard.router.route_owner(key);
            guard.shards[s].insert_observed(key)
            // Guard drops here, before any inline rebalance or
            // compaction takes further locks.
        };
        if obs.inserted || obs.needs_compaction {
            self.note_inserts(
                usize::from(obs.inserted),
                if obs.inserted { obs.len } else { 0 },
                obs.needs_compaction,
            );
        }
        obs.inserted
    }

    /// Insert a whole batch, returning one newly-inserted flag per key
    /// in input order (`false` for keys already present and for the
    /// second and later occurrences of a key duplicated within the
    /// batch — exactly the flags N scalar [`ShardedWritable::insert`]
    /// calls would return).
    ///
    /// The batch is bucketed per owner shard (mirroring the read path's
    /// `lower_bound_batch` plan): the topology read lock is taken
    /// **once** for the whole batch, and each touched shard gets **one**
    /// write-lock handoff and at most one merge+retrain, instead of one
    /// of each per key. Rebalance pressure is accounted once at the
    /// end, so a batch triggers at most one inline rebalance (or one
    /// worker signal).
    ///
    /// With a WAL attached the whole batch is logged as **one atomic
    /// record** before any key touches the in-memory tiers (same
    /// latched-failure semantics as [`ShardedWritable::insert`];
    /// [`ShardedWritable::try_insert_batch`] surfaces errors instead).
    ///
    /// # Examples
    /// ```
    /// use li_serve::{ShardedWritable, ShardedWritableConfig};
    ///
    /// let sw = ShardedWritable::new(vec![10u64, 20, 30], 2, ShardedWritableConfig::default());
    /// let flags = sw.insert_batch(&[5, 20, 25, 5]);
    /// assert_eq!(flags, vec![true, false, true, false]);
    /// assert_eq!(sw.len(), 5);
    /// ```
    pub fn insert_batch(&self, keys: &[u64]) -> Vec<bool> {
        // One timer pair amortized over the whole batch: count every
        // key, record the per-key average latency.
        if self.config.observe && !keys.is_empty() {
            self.obs.batch_inserts.add(keys.len() as u64);
            let t = Instant::now();
            let flags = self.insert_batch_logged(keys);
            let per_key = t.elapsed().as_nanos() as u64 / keys.len() as u64;
            self.obs.batch_insert_ns.record(per_key);
            return flags;
        }
        self.insert_batch_logged(keys)
    }

    /// The WAL-then-memory batch body behind
    /// [`ShardedWritable::insert_batch`].
    fn insert_batch_logged(&self, keys: &[u64]) -> Vec<bool> {
        if self.durable.load(Ordering::Acquire) && !keys.is_empty() {
            let mut slot = self.wal.lock().unwrap_or_else(|e| e.into_inner());
            if let Some(w) = slot.as_mut() {
                let _ = w.append_batch(keys); // failure latched inside
                if self.config.observe {
                    self.obs.durable_inserts.add(keys.len() as u64);
                }
                return self.insert_batch_unlogged(keys);
            }
        }
        self.insert_batch_unlogged(keys)
    }

    /// [`ShardedWritable::insert_batch`] with WAL errors surfaced
    /// instead of latched: on `Err` **no key of the batch** was
    /// applied (the batch record is all-or-nothing in the log, so the
    /// in-memory apply is too). Identical to `insert_batch` when no
    /// WAL is attached.
    pub fn try_insert_batch(&self, keys: &[u64]) -> Result<Vec<bool>, PersistError> {
        if self.config.observe && !keys.is_empty() {
            self.obs.batch_inserts.add(keys.len() as u64);
        }
        if self.durable.load(Ordering::Acquire) && !keys.is_empty() {
            let mut slot = self.wal.lock().unwrap_or_else(|e| e.into_inner());
            if let Some(w) = slot.as_mut() {
                w.append_batch(keys)?;
                if self.config.observe {
                    self.obs.durable_inserts.add(keys.len() as u64);
                }
                return Ok(self.insert_batch_unlogged(keys));
            }
        }
        Ok(self.insert_batch_unlogged(keys))
    }

    /// The WAL-free batch body shared by every write path (recovery
    /// replay uses it directly — replayed records must not re-log).
    fn insert_batch_unlogged(&self, keys: &[u64]) -> Vec<bool> {
        let mut flags = vec![false; keys.len()];
        if keys.is_empty() {
            return flags;
        }
        let (newly, max_owner_len, compaction_due) = {
            // Same guard discipline as `insert`: hold the read lock
            // across every shard handoff so no rebalance can swap the
            // topology mid-batch.
            let guard = self.topo.read().unwrap_or_else(|e| e.into_inner());
            let n = guard.shards.len();
            let mut newly = 0usize;
            let mut max_owner_len = 0usize;
            let mut compaction_due = false;
            if n == 1 {
                let (shard_flags, obs) = guard.shards[0].insert_batch_observed(keys);
                flags = shard_flags;
                newly = flags.iter().filter(|&&f| f).count();
                if newly > 0 {
                    max_owner_len = obs.len;
                }
                compaction_due = obs.needs_compaction;
            } else {
                // Bucket per owner shard, remembering each key's slot
                // so the flags scatter back in input order.
                let mut bucket_keys: Vec<Vec<u64>> = vec![Vec::new(); n];
                let mut bucket_slots: Vec<Vec<usize>> = vec![Vec::new(); n];
                for (slot, &k) in keys.iter().enumerate() {
                    let s = guard.router.route_owner(k);
                    bucket_keys[s].push(k);
                    bucket_slots[s].push(slot);
                }
                for ((bkeys, bslots), shard) in bucket_keys
                    .iter()
                    .zip(&bucket_slots)
                    .zip(guard.shards.iter())
                {
                    if bkeys.is_empty() {
                        continue;
                    }
                    let (shard_flags, obs) = shard.insert_batch_observed(bkeys);
                    let added = shard_flags.iter().filter(|&&f| f).count();
                    if added > 0 {
                        newly += added;
                        max_owner_len = max_owner_len.max(obs.len);
                    }
                    compaction_due |= obs.needs_compaction;
                    for (&slot, &f) in bslots.iter().zip(&shard_flags) {
                        flags[slot] = f;
                    }
                }
            }
            (newly, max_owner_len, compaction_due)
        };
        if newly > 0 || compaction_due {
            self.note_inserts(newly, max_owner_len, compaction_due);
        }
        flags
    }

    /// Shared post-insert accounting for the scalar and batched write
    /// paths: bump the global insert counter, then either record
    /// pressure on the attached background worker's lock-free board
    /// (signaling it when a shard ran hot, a run stack filled, or the
    /// periodic scan cadence was crossed) or run the inline rebalancer
    /// and compactor for the same triggers.
    fn note_inserts(&self, newly: usize, max_owner_len: usize, compaction_due: bool) {
        let before = self.inserts.fetch_add(newly, Ordering::Relaxed);
        let after = before + newly;
        let owner_hot = max_owner_len > self.config.rebalance.max_shard_len;
        let periodic = self.config.check_interval > 0
            && before / self.config.check_interval != after / self.config.check_interval;
        // Poison-tolerant: the slot is a plain Option pointer, valid
        // even if a panicking thread died while holding the lock.
        if let Some(link) = self
            .worker
            .read()
            .unwrap_or_else(|e| e.into_inner())
            .as_ref()
        {
            link.record(newly, max_owner_len, owner_hot);
            if owner_hot || periodic || compaction_due {
                link.signal();
            }
            return;
        }
        if compaction_due {
            self.compact_pending();
        }
        if owner_hot || periodic {
            self.rebalance();
        }
    }

    /// Compact every shard whose run stack is at its tiering bound:
    /// each one's base is retrained ONCE over base + runs with no
    /// topology lock held (only the shard's own brief read/write locks
    /// — see [`WritableShard::compact`]), so concurrent inserts and
    /// snapshots keep flowing. Returns `(shards compacted, runs
    /// folded)`. This is the single compaction entry point for both
    /// modes — the attached [`crate::RebalanceWorker`] calls it on its
    /// passes, the insert path calls it inline when no worker is
    /// attached — so the global [`ShardedWritable::compactions`]
    /// counter accounts every compaction exactly once.
    pub(crate) fn compact_pending(&self) -> (usize, usize) {
        // The Arc (not the guard) suffices: compaction never touches
        // the topology, and a shard orphaned by a concurrent rebalance
        // is merely wasted work, never lost keys.
        let topo = self.read_topo();
        let mut compacted = 0usize;
        let mut folded = 0usize;
        for shard in topo.shards.iter() {
            if shard.needs_compaction() {
                // Under Backend::Auto a compaction is also a
                // re-decision point: the fold retrains the base anyway,
                // so the selector gets to change the shard's backend
                // family for free (drifted-hard shards go hybrid,
                // smoothed-out shards go back to a plain RMI).
                let (runs, selection) = match self.config.backend {
                    Backend::Auto => {
                        shard.compact_selected(self.config.leaf_fraction, &self.config.retune)
                    }
                    _ => (shard.compact(), None),
                };
                if runs > 0 {
                    compacted += 1;
                    folded += runs;
                    self.obs.compactions.incr();
                    self.obs.runs_compacted.add(runs as u64);
                    self.obs
                        .event(events::COMPACT_FOLD, runs as u64, shard.len() as u64);
                    if let Some((choice, switched)) = selection {
                        self.obs.backend_selections.incr();
                        self.obs
                            .event(events::BACKEND_SELECT, choice.code(), shard.len() as u64);
                        if switched {
                            self.obs.backend_switches.incr();
                        }
                    }
                }
            }
        }
        (compacted, folded)
    }

    /// Attach a background worker's link: from now on inserts record
    /// pressure and signal instead of rebalancing inline. Panics if a
    /// worker is already attached.
    pub(crate) fn attach_worker(&self, link: Arc<WorkerLink>) {
        let mut slot = self.worker.write().unwrap_or_else(|e| e.into_inner());
        if slot.is_some() {
            // Release (don't poison) the lock before panicking, so the
            // existing worker's Drop can still detach cleanly.
            drop(slot);
            panic!("a RebalanceWorker is already attached to this ShardedWritable");
        }
        *slot = Some(link);
    }

    /// Detach the background worker's link: inserts rebalance inline
    /// again. Runs from `RebalanceWorker::drop`, so it must never
    /// panic (poison-tolerant).
    pub(crate) fn detach_worker(&self) {
        *self.worker.write().unwrap_or_else(|e| e.into_inner()) = None;
    }

    /// Whether a background rebalance worker currently owns
    /// rebalancing (inserts then only record pressure and signal).
    pub fn has_background_worker(&self) -> bool {
        self.worker
            .read()
            .unwrap_or_else(|e| e.into_inner())
            .is_some()
    }

    /// Whether `key` currently exists (owner-shard probe).
    pub fn contains(&self, key: u64) -> bool {
        let topo = self.read_topo();
        let s = topo.router.route_owner(key);
        topo.shards[s].contains(key)
    }

    /// Total keys across all shards. Each shard's count is read
    /// consistently; under concurrent inserts the sum is a moment-close
    /// approximation — take a [`ShardedWritable::snapshot`] for a
    /// single-topology consistent view.
    pub fn len(&self) -> usize {
        self.read_topo().shards.iter().map(|s| s.len()).sum()
    }

    /// Whether the structure holds no keys.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Number of keys `< key` (consistent snapshot rank).
    pub fn rank(&self, key: u64) -> usize {
        self.snapshot().rank(key)
    }

    /// All keys in `[lo, hi)`, sorted (consistent snapshot scan).
    pub fn range_keys(&self, lo: u64, hi: u64) -> Vec<u64> {
        self.snapshot().range_keys(lo, hi)
    }

    /// Current shard count.
    pub fn shard_count(&self) -> usize {
        self.read_topo().shards.len()
    }

    /// Current per-shard key counts (diagnostics and tests).
    pub fn shard_lens(&self) -> Vec<usize> {
        self.read_topo().shards.iter().map(|s| s.len()).collect()
    }

    /// Current ownership boundary keys (one per shard beyond the
    /// first).
    pub fn bounds(&self) -> Vec<u64> {
        self.read_topo().bounds.clone()
    }

    /// Topology generation: bumped on every published rebalance.
    pub fn generation(&self) -> u64 {
        self.read_topo().generation
    }

    /// The structure's observability bundle — shared (by `Arc` clone)
    /// with its shards, WAL and background worker. Hand it to a
    /// [`crate::ShardedIndex::attach_metrics`] to fold a read-only
    /// structure's lookups into the same registry, or walk it directly
    /// for typed access to individual counters and histograms.
    pub fn metrics_handle(&self) -> &Arc<ServeMetrics> {
        &self.obs
    }

    /// A consistent point-in-time [`MetricsSnapshot`] of every op
    /// counter, latency histogram, gauge and the structural-event tail.
    ///
    /// The per-shard gauge sets (`li_shard_len{shard="i"}`,
    /// `li_shard_runs`, `li_shard_pending`) and the topology gauges are
    /// refreshed under the topology read lock, and the registry is
    /// snapshotted **while that guard is held** — so the gauges always
    /// describe the same topology generation the snapshot reports.
    ///
    /// # Examples
    /// ```
    /// use li_serve::{ShardedWritable, ShardedWritableConfig};
    ///
    /// let sw = ShardedWritable::new(vec![1u64, 2, 3], 2, ShardedWritableConfig::default());
    /// sw.insert(10);
    /// let snap = sw.metrics();
    /// assert_eq!(snap.counter("li_inserts_total"), Some(1));
    /// assert_eq!(snap.gauge("li_shard_count"), Some(2));
    /// assert!(snap.render_text().contains("li_shard_len{shard=\"0\"}"));
    /// ```
    pub fn metrics(&self) -> MetricsSnapshot {
        let guard = self.topo.read().unwrap_or_else(|e| e.into_inner());
        let lens: Vec<u64> = guard.shards.iter().map(|s| s.len() as u64).collect();
        let runs: Vec<u64> = guard.shards.iter().map(|s| s.run_count() as u64).collect();
        let pending: Vec<u64> = guard.shards.iter().map(|s| s.pending() as u64).collect();
        self.obs.shard_len.set_all(&lens);
        self.obs.shard_runs.set_all(&runs);
        self.obs.shard_pending.set_all(&pending);
        self.obs.shard_count.set(guard.shards.len() as i64);
        self.obs.generation.set(guard.generation as i64);
        self.obs.registry().snapshot()
    }

    /// The Prometheus-style text exposition of
    /// [`ShardedWritable::metrics`] (counters, gauges, summary
    /// quantiles per histogram, and the event tail as comments).
    pub fn render_text(&self) -> String {
        self.metrics().render_text()
    }

    /// How many shard splits have been applied. A thin read of the
    /// metrics registry's `li_shard_splits_total` counter — the single
    /// source of truth both this accessor and
    /// [`ShardedWritable::metrics`] report from, so they can never
    /// drift apart.
    pub fn splits(&self) -> usize {
        self.obs.splits.value() as usize
    }

    /// How many shard merges have been applied (thin read of
    /// `li_shard_merges_total`; see [`ShardedWritable::splits`]).
    pub fn shard_merges(&self) -> usize {
        self.obs.shard_merges.value() as usize
    }

    /// How many run-stack compactions have been applied (shards whose
    /// sealed runs were folded into the base with one retrain). Always
    /// `0` when `max_runs == 0`. While a [`crate::RebalanceWorker`] is
    /// attached, every compaction happens on the worker, so this equals
    /// the worker's own compaction counter. (Thin read of
    /// `li_compactions_total`; see [`ShardedWritable::splits`].)
    pub fn compactions(&self) -> usize {
        self.obs.compactions.value() as usize
    }

    /// How many adaptive backend selections have run (thin read of
    /// `li_backend_selections_total`). Under [`Backend::Auto`] every
    /// shard (re)build — initial construction, each half of a split,
    /// each merge, each compaction fold — runs exactly one selection;
    /// under a pinned backend this stays 0.
    pub fn backend_selections(&self) -> usize {
        self.obs.backend_selections.value() as usize
    }

    /// How many of those selections *changed* the shard's backend
    /// family from what it was before the rebuild (thin read of
    /// `li_backend_switches_total`).
    pub fn backend_switches(&self) -> usize {
        self.obs.backend_switches.value() as usize
    }

    /// How many shards currently serve from an all-B-Tree-leaf hybrid
    /// base (the write tier's tree family) rather than a plain RMI —
    /// the structural ground truth the selection counters are checked
    /// against in the stress suite.
    pub fn hybrid_shards(&self) -> usize {
        self.read_topo()
            .shards
            .iter()
            .filter(|s| s.is_hybrid())
            .count()
    }

    /// Sealed runs currently stacked across all shards, awaiting
    /// compaction.
    pub fn run_count(&self) -> usize {
        self.read_topo().shards.iter().map(|s| s.run_count()).sum()
    }

    /// Keys held in sealed runs across all shards (between the mutable
    /// buffers and the learned bases).
    pub fn sealed_keys(&self) -> usize {
        self.read_topo()
            .shards
            .iter()
            .map(|s| s.sealed_keys())
            .sum()
    }

    /// Keys waiting in delta buffers across all shards.
    pub fn pending(&self) -> usize {
        self.read_topo().shards.iter().map(|s| s.pending()).sum()
    }

    /// Force a delta merge + retrain on every shard now.
    pub fn merge_all(&self) {
        for shard in self.read_topo().shards.iter() {
            shard.merge();
        }
    }

    /// A consistent point-in-time view: the router and one
    /// [`DeltaSnapshot`] per shard, captured from a *single* topology
    /// (the topology read lock is held across the capture, so a
    /// concurrent rebalance can never hand this snapshot shards from
    /// two generations). All reads on the returned snapshot are
    /// lock-free.
    pub fn snapshot(&self) -> ShardedSnapshot {
        // Hold the read guard (not just the Arc) across the capture:
        // it excludes a concurrent rebalance, so the shard views below
        // all come from the topology the router describes.
        let topo = self.topo.read().unwrap_or_else(|e| e.into_inner());
        let snaps: Vec<DeltaSnapshot> = topo.shards.iter().map(|s| s.snapshot()).collect();
        let mut prefix = Vec::with_capacity(snaps.len() + 1);
        let mut at = 0usize;
        prefix.push(0);
        for s in &snaps {
            at += s.len();
            prefix.push(at);
        }
        ShardedSnapshot {
            router: topo.router.clone(),
            snaps,
            prefix,
            generation: topo.generation,
        }
    }

    /// Run the rebalancer until the topology is stable: repeatedly ask
    /// [`plan`] for the next action (split the hottest overloaded or
    /// mispredicting shard / merge the coldest adjacent pair), apply it
    /// under the topology write lock, and publish the new topology
    /// atomically. Returns the actions applied (empty when already
    /// stable).
    ///
    /// Safe to call from any thread at any time; inserts block only for
    /// the duration of the shard rebuilds actually performed.
    pub fn rebalance(&self) -> Vec<RebalanceAction> {
        let mut guard = self.topo.write().unwrap_or_else(|e| e.into_inner());
        let mut applied = Vec::new();
        // The hysteresis in `plan` prevents oscillation; the explicit
        // bound is a backstop so a policy bug cannot hold the write
        // lock forever.
        let budget = self.rebalance_budget();
        for _ in 0..budget {
            let topo = &**guard;
            let (lens, err_hot) = self.observe(topo);
            let Some(action) = plan(&lens, &err_hot, &self.config.rebalance) else {
                break;
            };
            let Some(next) = (match action {
                RebalanceAction::Split { shard } => self.apply_split(topo, shard),
                RebalanceAction::Merge { left } => Some(self.apply_merge(topo, left)),
            }) else {
                // Unsplittable in practice (e.g. a single giant
                // duplicate-free run shorter than 2 keys cannot occur,
                // but stay defensive): stop rather than spin.
                break;
            };
            *guard = Arc::new(next);
            self.note_rebalance(&action, &guard);
            applied.push(action);
        }
        applied
    }

    /// One **background** rebalance step, designed to be driven by a
    /// [`crate::RebalanceWorker`] so that inserts never pay shard
    /// rebuild latency:
    ///
    /// 1. **Observe** under the read lock: snapshot lens/error stats,
    ///    ask [`plan`] for the next action, remember the topology
    ///    generation. Inserts keep flowing.
    /// 2. **Rebuild off-lock**: export the affected shard(s) and
    ///    retrain the replacement(s) with *no* topology lock held —
    ///    writes racing into the old shard(s) keep landing there.
    /// 3. **Publish + drain** under a brief write lock: if the
    ///    generation still matches (else [`BackgroundStep::Raced`] —
    ///    the caller re-plans), diff each rebuilt shard's current
    ///    contents against its export and re-route the stragglers into
    ///    the replacement shards by the *new* topology's ownership
    ///    bounds, then swap in the new `Arc<Topology>`.
    ///
    /// The write lock is never held for the rebuild — that is the
    /// whole point of the background mode. When no writes raced in
    /// (shard lengths unchanged — the common case), the drain is a
    /// pair of O(1) length checks; otherwise it re-exports the touched
    /// shard for a linear diff plus the buffered straggler re-inserts.
    pub(crate) fn rebalance_step_background(&self) -> BackgroundStep {
        // Every phase below is timed into its own histogram
        // (`li_pass_*_ns`) unconditionally — this is the cold worker
        // path, where a pair of clock reads per phase is noise against
        // an export + retrain, and the phase breakdown is exactly the
        // tail-latency story the background mode exists to tell.

        // Phase 1 — observe (read lock, released immediately).
        let t_observe = Instant::now();
        let topo = self.read_topo();
        let (lens, err_hot) = self.observe(&topo);
        self.obs.pass_observe_ns.record_since(t_observe);
        let t_plan = Instant::now();
        let planned = plan(&lens, &err_hot, &self.config.rebalance);
        self.obs.pass_plan_ns.record_since(t_plan);
        let Some(action) = planned else {
            return BackgroundStep::Stable;
        };
        let gen0 = topo.generation;

        match action {
            RebalanceAction::Split { shard: s } => {
                // Phase 2 — rebuild off-lock. The export is kept (as a
                // zero-copy KeyStore the two halves slice) for the
                // phase-3 straggler diff.
                let t_retrain = Instant::now();
                let exported = KeyStore::new(topo.shards[s].export_keys());
                let Some(m) = split_point(exported.as_slice()) else {
                    // Fewer than two distinct keys: nothing to split.
                    return BackgroundStep::Stable;
                };
                let boundary = exported[m];
                let was_hybrid = Some(topo.shards[s].is_hybrid());
                let left =
                    build_selected_shard(exported.slice(0..m), &self.config, &self.obs, was_hybrid);
                let right = build_selected_shard(
                    exported.slice(m..exported.len()),
                    &self.config,
                    &self.obs,
                    was_hybrid,
                );
                self.obs.pass_retrain_ns.record_since(t_retrain);

                // Phase 3 — publish + drain.
                let t_publish = Instant::now();
                let mut guard = self.topo.write().unwrap_or_else(|e| e.into_inner());
                if guard.generation != gen0 {
                    return BackgroundStep::Raced;
                }
                // Writers are excluded now: whatever raced into the old
                // shard since the export is re-routed by the NEW
                // boundary (left owns [old_lo, boundary), right owns
                // [boundary, old_hi) — both subsets of the old range,
                // so every straggler has exactly one home). Keys are
                // never removed, so an unchanged length means nothing
                // raced in and the O(shard) re-export is skipped.
                if guard.shards[s].len() > exported.len() {
                    let t_drain = Instant::now();
                    for k in straggler_diff(&guard.shards[s].export_keys(), exported.as_slice()) {
                        let target = if k < boundary { &left } else { &right };
                        target.insert(k);
                    }
                    self.obs.pass_drain_ns.record_since(t_drain);
                }
                let next = split_topology(&guard, s, boundary, Arc::new(left), Arc::new(right));
                *guard = Arc::new(next);
                self.note_rebalance(&action, &guard);
                self.obs.pass_publish_ns.record_since(t_publish);
                BackgroundStep::Applied(action)
            }
            RebalanceAction::Merge { left: l } => {
                // Phase 2 — rebuild off-lock. Adjacent ownership ranges:
                // the concatenated exports are already globally sorted.
                let t_retrain = Instant::now();
                let mut keys = topo.shards[l].export_keys();
                let left_len = keys.len();
                keys.extend(topo.shards[l + 1].export_keys());
                let exported = KeyStore::new(keys);
                let merged = build_selected_shard(
                    exported.clone(),
                    &self.config,
                    &self.obs,
                    Some(topo.shards[l].is_hybrid()),
                );
                self.obs.pass_retrain_ns.record_since(t_retrain);

                // Phase 3 — publish + drain.
                let t_publish = Instant::now();
                let mut guard = self.topo.write().unwrap_or_else(|e| e.into_inner());
                if guard.generation != gen0 {
                    return BackgroundStep::Raced;
                }
                // Stragglers from either old shard belong to the merged
                // shard's (concatenated) ownership range. Same O(1)
                // unchanged-length skip as the split path, per shard.
                let (left_exp, right_exp) = exported.as_slice().split_at(left_len);
                if guard.shards[l].len() > left_exp.len()
                    || guard.shards[l + 1].len() > right_exp.len()
                {
                    let t_drain = Instant::now();
                    if guard.shards[l].len() > left_exp.len() {
                        for k in straggler_diff(&guard.shards[l].export_keys(), left_exp) {
                            merged.insert(k);
                        }
                    }
                    if guard.shards[l + 1].len() > right_exp.len() {
                        for k in straggler_diff(&guard.shards[l + 1].export_keys(), right_exp) {
                            merged.insert(k);
                        }
                    }
                    self.obs.pass_drain_ns.record_since(t_drain);
                }
                let next = merge_topology(&guard, l, Arc::new(merged));
                *guard = Arc::new(next);
                self.note_rebalance(&action, &guard);
                self.obs.pass_publish_ns.record_since(t_publish);
                BackgroundStep::Applied(action)
            }
        }
    }

    /// Account a just-published split or merge: bump the registry
    /// counter (the single source of truth behind
    /// [`ShardedWritable::splits`] / [`ShardedWritable::shard_merges`])
    /// and trace the event with the new generation and shard count.
    /// Called with the topology write guard still held, right after the
    /// `Arc` swap, so the payload describes exactly the published
    /// topology.
    fn note_rebalance(&self, action: &RebalanceAction, topo: &Topology) {
        let (generation, n) = (topo.generation, topo.shards.len() as u64);
        match action {
            RebalanceAction::Split { .. } => {
                self.obs.splits.incr();
                self.obs.event(events::SHARD_SPLIT, generation, n);
            }
            RebalanceAction::Merge { .. } => {
                self.obs.shard_merges.incr();
                self.obs.event(events::SHARD_MERGE, generation, n);
            }
        }
    }

    /// Per-shard observations the planner consumes: current lengths
    /// and the error-hot flags (when error splits are enabled).
    fn observe(&self, topo: &Topology) -> (Vec<usize>, Vec<bool>) {
        let lens: Vec<usize> = topo.shards.iter().map(|s| s.len()).collect();
        let err_hot: Vec<bool> = match self.config.rebalance.max_mean_err {
            Some(t) => topo
                .shards
                .iter()
                .map(|s| s.base_stats().mean_abs_err > t)
                .collect(),
            None => vec![false; lens.len()],
        };
        (lens, err_hot)
    }

    /// Backstop iteration bound for a rebalance pass (inline loop or
    /// one background worker pass): generous enough for any cascade the
    /// hysteresis admits, small enough that a policy bug cannot spin
    /// forever.
    pub(crate) fn rebalance_budget(&self) -> usize {
        2 * self.config.rebalance.max_shards + 4
    }

    /// Split shard `s` at its balanced split point: the upper half of
    /// its keys becomes a new sibling shard whose ownership range
    /// starts at the recomputed boundary key. `None` when the shard has
    /// no valid split point (fewer than two distinct keys). Runs under
    /// the topology write lock (the inline path — the background path
    /// rebuilds off-lock in `rebalance_step_background`).
    fn apply_split(&self, topo: &Topology, s: usize) -> Option<Topology> {
        let mut keys = topo.shards[s].export_keys();
        let m = split_point(&keys)?;
        let right_keys = keys.split_off(m);
        let boundary = right_keys[0];
        let was_hybrid = Some(topo.shards[s].is_hybrid());
        let left = Arc::new(build_selected_shard(
            keys,
            &self.config,
            &self.obs,
            was_hybrid,
        ));
        let right = Arc::new(build_selected_shard(
            right_keys,
            &self.config,
            &self.obs,
            was_hybrid,
        ));
        Some(split_topology(topo, s, boundary, left, right))
    }

    /// Merge shards `left` and `left + 1`. Their ownership ranges are
    /// adjacent, so concatenating their exports is already globally
    /// sorted. Runs under the topology write lock (the inline path).
    fn apply_merge(&self, topo: &Topology, left: usize) -> Topology {
        let mut keys = topo.shards[left].export_keys();
        keys.extend(topo.shards[left + 1].export_keys());
        debug_assert!(keys.windows(2).all(|w| w[0] < w[1]), "merge tore order");
        let merged = Arc::new(build_selected_shard(
            keys,
            &self.config,
            &self.obs,
            Some(topo.shards[left].is_hybrid()),
        ));
        merge_topology(topo, left, merged)
    }

    // Poison recovery (all `self.topo` lock sites): the only mutation
    // any code performs under the topology write lock is the final
    // `*guard = Arc::new(next)` — a pointer-sized swap of a *fully
    // constructed* replacement topology. Every fallible step (planning,
    // key export, shard retraining) runs before that assignment, so at
    // every possible panic point the published `Arc<Topology>` is
    // internally consistent. A poisoned flag therefore carries no
    // information about data validity here; recovering with
    // `into_inner` keeps readers and writers alive instead of turning
    // one panicking thread into a process-wide outage. (The `worker`
    // slot makes the same argument for its plain `Option` pointer.)
    fn read_topo(&self) -> Arc<Topology> {
        Arc::clone(&self.topo.read().unwrap_or_else(|e| e.into_inner()))
    }

    /// Everything the persistence layer needs, captured under one read
    /// guard so a concurrent rebalance cannot tear it: the ownership
    /// bounds plus each shard's (snapshot, retrain config, merge
    /// threshold) triple.
    pub(crate) fn persist_parts(&self) -> (Vec<u64>, Vec<(DeltaSnapshot, RmiConfig, usize)>) {
        let guard = self.topo.read().unwrap_or_else(|e| e.into_inner());
        let states = guard.shards.iter().map(|s| s.persist_state()).collect();
        (guard.bounds.clone(), states)
    }

    /// Reassemble a structure from loaded state: per-shard
    /// [`WritableShard`]s already populated with their trained bases
    /// and replayed deltas, plus the ownership bounds they were saved
    /// under. The router is rebuilt over the bounds (no model, nothing
    /// trains); counters restart at zero and
    /// the generation at 0, matching a fresh build.
    pub(crate) fn from_loaded(
        bounds: Vec<u64>,
        shards: Vec<Arc<WritableShard>>,
        config: ShardedWritableConfig,
    ) -> Self {
        config.validate();
        assert_eq!(bounds.len() + 1, shards.len(), "one bound per extra shard");
        let obs = Arc::new(ServeMetrics::new());
        for shard in &shards {
            shard.attach_obs(Arc::clone(&obs));
        }
        let router = ShardRouter::fit(bounds.clone());
        Self {
            topo: RwLock::new(Arc::new(Topology {
                bounds,
                router,
                shards,
                generation: 0,
            })),
            config,
            inserts: AtomicUsize::new(0),
            obs,
            worker: RwLock::new(None),
            wal: Mutex::new(None),
            durable: AtomicBool::new(false),
        }
    }

    /// The configuration this structure was built with.
    pub(crate) fn config(&self) -> &ShardedWritableConfig {
        &self.config
    }

    // -----------------------------------------------------------------
    // Durability: WAL attachment, checkpointing, recovery
    // -----------------------------------------------------------------

    /// The WAL slot, for the persistence layer's checkpoint protocol
    /// ([`ShardedWritable::save`] holds it across cut + publish +
    /// truncate).
    pub(crate) fn wal_slot(&self) -> &Mutex<Option<Wal>> {
        &self.wal
    }

    /// Attach a fresh write-ahead log at `wal_path`: every subsequent
    /// [`ShardedWritable::insert`] / [`ShardedWritable::insert_batch`]
    /// is logged **before** it touches the in-memory tiers, made
    /// durable per `policy`, and the log is truncated at every
    /// [`ShardedWritable::save`].
    ///
    /// The log starts empty and covers only writes made *after* this
    /// call — state already in memory is not logged. Callers with
    /// pre-existing state must therefore [`ShardedWritable::save`] a
    /// snapshot right after enabling (or build via
    /// [`ShardedWritable::recover`], which composes the two), or a
    /// crash before the first save recovers only the logged suffix.
    ///
    /// Errors if a WAL is already attached.
    pub fn enable_wal(
        &self,
        wal_path: impl AsRef<Path>,
        policy: WalSyncPolicy,
    ) -> Result<(), PersistError> {
        let mut slot = self.wal.lock().unwrap_or_else(|e| e.into_inner());
        if slot.is_some() {
            return Err(PersistError::Format(
                "a WAL is already attached to this ShardedWritable".into(),
            ));
        }
        let mut w = Wal::create(wal_path, policy)?;
        w.set_obs(Arc::clone(&self.obs));
        *slot = Some(w);
        self.durable.store(true, Ordering::Release);
        Ok(())
    }

    /// Whether a WAL is attached (writes are being logged).
    pub fn wal_attached(&self) -> bool {
        self.durable.load(Ordering::Acquire)
    }

    /// Force a WAL sync point now: every write acknowledged so far
    /// becomes durable. A no-op without a WAL. Surfaces any latched
    /// append failure (see [`ShardedWritable::insert`]).
    pub fn wal_sync(&self) -> Result<(), PersistError> {
        let mut slot = self.wal.lock().unwrap_or_else(|e| e.into_inner());
        match slot.as_mut() {
            Some(w) => Ok(w.sync()?),
            None => Ok(()),
        }
    }

    /// The WAL's latched failure, if an append or sync has failed
    /// since the last snapshot truncation (`None` = healthy or no WAL
    /// attached).
    pub fn wal_failure(&self) -> Option<String> {
        self.wal
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .as_ref()
            .and_then(|w| w.failure().map(str::to_owned))
    }

    /// Highest LSN the WAL has assigned (0 without a WAL or before the
    /// first logged write).
    pub fn wal_last_lsn(&self) -> u64 {
        self.wal
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .as_ref()
            .map_or(0, |w| w.last_lsn())
    }

    /// Number of `fsync` sync points the WAL has issued (0 without a
    /// WAL) — the group-commit diagnostic `repro wal` reports per
    /// [`WalSyncPolicy`].
    pub fn wal_sync_count(&self) -> u64 {
        self.wal
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .as_ref()
            .map_or(0, |w| w.sync_count())
    }

    /// Recover a durable structure from its snapshot + WAL pair with
    /// the default configuration for first boots; see
    /// [`ShardedWritable::recover_with_config`] (which also returns
    /// the [`RecoveryReport`]) for the full contract.
    pub fn recover(
        snapshot_path: impl AsRef<Path>,
        wal_path: impl AsRef<Path>,
        policy: WalSyncPolicy,
    ) -> Result<Self, PersistError> {
        Self::recover_with_config(
            snapshot_path,
            wal_path,
            policy,
            ShardedWritableConfig::default(),
        )
        .map(|(sw, _report)| sw)
    }

    /// Recover a durable structure after a crash (or a clean
    /// shutdown — the protocol does not distinguish):
    ///
    /// 1. **Load the snapshot** at `snapshot_path` if one exists
    ///    (zero training, exactly [`ShardedWritable::load`]) and read
    ///    the snapshot LSN from its header. With no snapshot (first
    ///    boot, or a crash before the first save) start empty with
    ///    `config` — the passed `config` is used *only* in that case;
    ///    an existing snapshot carries its own.
    /// 2. **Scan the WAL** at `wal_path`: decode records up to the
    ///    first torn or checksum-failing one and truncate the invalid
    ///    tail (a missing file scans as an empty log).
    /// 3. **Replay** every record with `lsn > snapshot_lsn`: their
    ///    keys are gathered into one list, in log order, and applied
    ///    through the normal routed batch insert path (unlogged —
    ///    replay must not re-append) in chunks of `REPLAY_CHUNK`
    ///    (65,536) keys. Each shard then buffers, and merges and
    ///    retrains, about once per chunk instead of once per
    ///    `merge_threshold` records, and rebalance pressure is still
    ///    checked between chunks, so an overloaded shard splits during
    ///    replay. Inserts are idempotent, so records the snapshot
    ///    already covers (impossible by the LSN bound) or a previous
    ///    half-finished recovery already applied (possible — replay
    ///    mutates only memory) are harmless duplicates.
    /// 4. **Re-attach** the WAL for appending, positioned after the
    ///    valid prefix, with LSNs continuing from the last valid one.
    ///
    /// The result: exactly the acknowledged-durable write prefix
    /// survives. Recovery never panics on garbage log bytes and is
    /// idempotent — killed mid-replay and re-run, it produces the same
    /// state, because the only file mutation is the tail truncation
    /// (which only removes bytes the scan already refused to decode).
    pub fn recover_with_config(
        snapshot_path: impl AsRef<Path>,
        wal_path: impl AsRef<Path>,
        policy: WalSyncPolicy,
        config: ShardedWritableConfig,
    ) -> Result<(Self, RecoveryReport), PersistError> {
        let snapshot_path = snapshot_path.as_ref();
        let (sw, snapshot_lsn, snapshot_loaded) = if snapshot_path.exists() {
            let (sw, lsn) = Self::load_with_lsn(snapshot_path)?;
            sw.obs.event(events::SNAPSHOT_LOAD, sw.len() as u64, lsn);
            (sw, lsn, true)
        } else {
            (Self::new(Vec::new(), 1, config), 0, false)
        };

        let found = wal::scan(wal_path.as_ref())?;
        let truncated_bytes = found.torn_bytes();
        let mut replayed = 0usize;
        let mut skipped = 0usize;
        let mut keys = Vec::new();
        for record in &found.records {
            if record.lsn <= snapshot_lsn {
                skipped += 1;
                continue;
            }
            match &record.op {
                WalOp::Insert(key) => keys.push(*key),
                WalOp::InsertBatch(batch) => keys.extend_from_slice(batch),
            }
            replayed += 1;
        }
        for chunk in keys.chunks(REPLAY_CHUNK) {
            sw.insert_batch_unlogged(chunk);
        }

        let mut wal = Wal::open_after_recovery(wal_path.as_ref(), policy, &found, snapshot_lsn)?;
        wal.set_obs(Arc::clone(&sw.obs));
        sw.obs.wal_replayed.add(replayed as u64);
        sw.obs
            .event(events::RECOVERY_REPLAY, replayed as u64, truncated_bytes);
        let report = RecoveryReport {
            snapshot_loaded,
            snapshot_lsn,
            replayed,
            skipped,
            truncated_bytes,
            last_lsn: found.last_lsn.max(snapshot_lsn),
        };
        *sw.wal.lock().unwrap_or_else(|e| e.into_inner()) = Some(wal);
        sw.durable.store(true, Ordering::Release);
        Ok((sw, report))
    }
}

/// Keys per batch insert during WAL replay (see
/// [`ShardedWritable::recover_with_config`], step 3).
const REPLAY_CHUNK: usize = 1 << 16;

/// What [`ShardedWritable::recover_with_config`] found and did.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RecoveryReport {
    /// Whether a snapshot file existed and was loaded (false = first
    /// boot or crash-before-first-save: recovery started empty).
    pub snapshot_loaded: bool,
    /// The snapshot's LSN watermark — WAL records at or below it were
    /// already covered by the snapshot and skipped.
    pub snapshot_lsn: u64,
    /// Valid WAL records replayed into memory.
    pub replayed: usize,
    /// Valid WAL records skipped as already covered by the snapshot.
    pub skipped: usize,
    /// Torn/corrupt tail bytes truncated off the log.
    pub truncated_bytes: u64,
    /// The LSN the re-attached log continues from.
    pub last_lsn: u64,
}

/// Outcome of one [`ShardedWritable::rebalance_step_background`] call.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum BackgroundStep {
    /// An action was applied and a new topology published.
    Applied(RebalanceAction),
    /// The topology generation changed between observe and publish
    /// (e.g. a manual [`ShardedWritable::rebalance`] call won the
    /// race); the rebuild was discarded — observe again and re-plan.
    Raced,
    /// The policy proposes nothing: the topology is stable.
    Stable,
}

/// Keys in `now` but not in `then` — the writes that raced into a shard
/// while the background path was rebuilding it. Both inputs are sorted
/// unique, and `then ⊆ now` because inserts only ever add keys.
fn straggler_diff(now: &[u64], then: &[u64]) -> Vec<u64> {
    debug_assert!(now.len() >= then.len(), "shards never shrink mid-rebuild");
    let mut out = Vec::with_capacity(now.len() - then.len());
    let mut j = 0usize;
    for &k in now {
        if j < then.len() && then[j] == k {
            j += 1;
        } else {
            out.push(k);
        }
    }
    debug_assert_eq!(j, then.len(), "exported keys must persist in the shard");
    out
}

/// The topology after splitting shard `s` at `boundary` into `left` and
/// `right`: boundary vector grown, router refitted, generation bumped.
fn split_topology(
    topo: &Topology,
    s: usize,
    boundary: u64,
    left: Arc<WritableShard>,
    right: Arc<WritableShard>,
) -> Topology {
    let mut bounds = topo.bounds.clone();
    bounds.insert(s, boundary);
    let mut shards = topo.shards.clone();
    shards[s] = left;
    shards.insert(s + 1, right);
    Topology {
        router: ShardRouter::fit(bounds.clone()),
        bounds,
        shards,
        generation: topo.generation + 1,
    }
}

/// The topology after merging shards `left_idx` and `left_idx + 1` into
/// `merged`: boundary removed, router refitted, generation bumped.
fn merge_topology(topo: &Topology, left_idx: usize, merged: Arc<WritableShard>) -> Topology {
    let mut bounds = topo.bounds.clone();
    bounds.remove(left_idx);
    let mut shards = topo.shards.clone();
    shards[left_idx] = merged;
    shards.remove(left_idx + 1);
    Topology {
        router: ShardRouter::fit(bounds.clone()),
        bounds,
        shards,
        generation: topo.generation + 1,
    }
}

/// Build a shard over `keys` according to the configured
/// [`ShardedWritableConfig::backend`]:
///
/// * [`Backend::Rmi`] — the shared [`crate::builder::retune_rmi`] loop
///   sizes and densifies the model for this shard's actual keys
///   (exactly the pre-adaptive behavior);
/// * [`Backend::Auto`] — the adaptive selector
///   ([`crate::select::train_selected`]) probes, grid-searches and
///   materializes the winner, recording the decision as a
///   `li_backend_selections_total` increment plus a `backend_select`
///   event; when `prev_hybrid` carries the backend family the shard
///   had before this rebuild (splits, merges), a family change also
///   bumps `li_backend_switches_total`;
/// * [`Backend::BTree`] — every shard pinned to the all-B-Tree-leaf
///   hybrid at the reference page size.
///
/// Either way the shard keeps the chosen configuration for its future
/// delta merge retrains, so the decision sticks until the next rebuild.
fn build_retuned_shard(
    keys: impl Into<KeyStore>,
    config: &ShardedWritableConfig,
    obs: &Arc<ServeMetrics>,
) -> WritableShard {
    build_selected_shard(keys, config, obs, None)
}

/// [`build_retuned_shard`] with the pre-rebuild backend family (`None`
/// = fresh build, nothing to switch *from*).
fn build_selected_shard(
    keys: impl Into<KeyStore>,
    config: &ShardedWritableConfig,
    obs: &Arc<ServeMetrics>,
    prev_hybrid: Option<bool>,
) -> WritableShard {
    let keys: KeyStore = keys.into();
    let started = Instant::now();
    let (rmi, cfg) = match config.backend {
        Backend::Auto => {
            let (rmi, cfg, choice) = train_selected(&keys, config.leaf_fraction, &config.retune);
            obs.backend_selections.incr();
            obs.event(events::BACKEND_SELECT, choice.code(), keys.len() as u64);
            if prev_hybrid.is_some_and(|was| was != cfg.hybrid_threshold.is_some()) {
                obs.backend_switches.incr();
            }
            (rmi, cfg)
        }
        Backend::BTree => {
            // One leaf per ~4 pages: the leaf models only partition the
            // key space; the pages inside each leaf do the searching.
            let leaves = (keys.len() / 512).clamp(1, keys.len().max(1));
            let cfg = RmiConfig::two_stage(TopModel::Linear, leaves).with_hybrid(0);
            (li_core::rmi::Rmi::build(keys.clone(), &cfg), cfg)
        }
        _ => retune_rmi(
            &keys,
            &TopModel::Linear,
            config.leaf_fraction,
            Some(&config.retune),
        ),
    };
    obs.trained(keys.len(), started);
    let shard = WritableShard::from_delta(
        DeltaIndex::from_trained(rmi, cfg, config.merge_threshold).with_tiering(config.max_runs),
    );
    shard.attach_obs(Arc::clone(obs));
    shard
}

/// A consistent, lock-free point-in-time view of a [`ShardedWritable`]:
/// the router and one [`DeltaSnapshot`] per shard, all captured from
/// one topology generation. Reads compose exactly like the live
/// structure's (ownership routing + per-shard snapshot queries), with
/// no lock taken.
#[derive(Debug, Clone)]
pub struct ShardedSnapshot {
    router: ShardRouter,
    snaps: Vec<DeltaSnapshot>,
    /// `prefix[s]` = keys in shards `0..s` at capture time;
    /// `prefix[shard_count]` = total.
    prefix: Vec<usize>,
    generation: u64,
}

impl ShardedSnapshot {
    /// Whether `key` existed when the snapshot was taken.
    pub fn contains(&self, key: u64) -> bool {
        self.snaps[self.router.route_owner(key)].contains(key)
    }

    /// Number of keys `< key` at capture time (global lower-bound
    /// rank): the owner shard's local rank plus the lengths of every
    /// shard below it (all of whose keys are `< key` by the ownership
    /// invariant).
    pub fn rank(&self, key: u64) -> usize {
        let s = self.router.route_owner(key);
        self.prefix[s] + self.snaps[s].rank(key)
    }

    /// Total keys at capture time.
    #[allow(clippy::len_without_is_empty)]
    pub fn len(&self) -> usize {
        // Invariant (constructor-enforced, not an I/O or config state):
        // `snapshot()` seeds `prefix` with an unconditional `push(0)`
        // before appending one entry per shard, so `prefix.len() ==
        // snaps.len() + 1 >= 1` on every constructed value and `last()`
        // cannot be `None`.
        self.prefix.last().copied().unwrap_or(0)
    }

    /// Whether the snapshot holds no keys.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Number of shards in the captured topology.
    pub fn shard_count(&self) -> usize {
        self.snaps.len()
    }

    /// Topology generation this snapshot was captured from.
    pub fn generation(&self) -> u64 {
        self.generation
    }

    /// The captured per-shard views (for cross-shard assertions in
    /// tests: each shard's keys must lie inside its ownership range).
    pub fn shard_snapshots(&self) -> &[DeltaSnapshot] {
        &self.snaps
    }

    /// The captured router (its boundaries are the ownership bounds).
    pub fn router(&self) -> &ShardRouter {
        &self.router
    }

    /// All keys in `[lo, hi)` at capture time, sorted: per-shard scans
    /// over the owner range of `lo..=hi`, concatenated (globally sorted
    /// by the ownership invariant).
    pub fn range_keys(&self, lo: u64, hi: u64) -> Vec<u64> {
        if hi <= lo {
            return Vec::new();
        }
        let s_lo = self.router.route_owner(lo);
        let s_hi = self.router.route_owner(hi);
        let mut out = Vec::new();
        for s in s_lo..=s_hi {
            out.extend(self.snaps[s].range_keys(lo, hi));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_cfg() -> ShardedWritableConfig {
        ShardedWritableConfig {
            merge_threshold: 8,
            leaf_fraction: 1.0 / 16.0,
            check_interval: 16,
            rebalance: RebalanceConfig {
                max_shard_len: 64,
                merge_max_len: 16,
                max_mean_err: None,
                max_shards: 16,
            },
            ..ShardedWritableConfig::default()
        }
    }

    fn tiered_cfg(max_runs: usize) -> ShardedWritableConfig {
        ShardedWritableConfig {
            max_runs,
            ..small_cfg()
        }
    }

    #[test]
    fn tiered_inserts_seal_runs_and_compact_inline_without_a_worker() {
        // Threshold 8, max_runs 2: every 8 fresh keys seal a run, every
        // second seal fills the stack — with no worker attached the
        // same insert compacts inline.
        let data: Vec<u64> = (0..64u64).map(|i| i * 100).collect();
        let sw = ShardedWritable::new(data.clone(), 2, tiered_cfg(2));
        let mut oracle: std::collections::BTreeSet<u64> = data.iter().copied().collect();
        for k in 0..400u64 {
            let key = k * 7 + 1;
            assert_eq!(sw.insert(key), oracle.insert(key), "key {key}");
        }
        assert!(sw.compactions() >= 1, "full stacks must compact inline");
        // Nothing is ever left over-stacked: the insert that fills a
        // stack compacts it before returning.
        assert!(sw.run_count() < 2 * sw.shard_count());
        let want: Vec<u64> = oracle.iter().copied().collect();
        assert_eq!(sw.range_keys(0, u64::MAX), want);
        assert_eq!(sw.len(), want.len());
        for &k in want.iter().step_by(17) {
            assert!(sw.contains(k), "k={k}");
        }
        // Tier accounting: base keys + sealed runs + pending buffers
        // partition the keyset exactly.
        let snap = sw.snapshot();
        let base_total: usize = snap
            .shard_snapshots()
            .iter()
            .map(|s| {
                use li_index::RangeIndex as _;
                s.base_index().key_store().len()
            })
            .sum();
        assert_eq!(base_total + sw.sealed_keys() + sw.pending(), want.len());
    }

    #[test]
    fn untiered_mode_never_seals_or_compacts() {
        let sw = ShardedWritable::new(vec![0u64], 1, small_cfg());
        for k in 1..=300u64 {
            sw.insert(k * 2);
        }
        assert_eq!(sw.run_count(), 0);
        assert_eq!(sw.sealed_keys(), 0);
        assert_eq!(sw.compactions(), 0);
    }

    #[test]
    fn builds_and_serves_like_the_oracle() {
        let data: Vec<u64> = (0..200u64).map(|i| i * 3).collect();
        let sw = ShardedWritable::new(data.clone(), 4, small_cfg());
        assert_eq!(sw.shard_count(), 4);
        assert_eq!(sw.len(), 200);
        for q in [0u64, 1, 3, 299, 300, 597, 600, u64::MAX] {
            assert_eq!(sw.contains(q), data.binary_search(&q).is_ok(), "q={q}");
            assert_eq!(sw.rank(q), data.partition_point(|&k| k < q), "q={q}");
        }
    }

    #[test]
    fn inserts_route_to_owner_shards_and_preserve_order() {
        let data: Vec<u64> = (0..100u64).map(|i| i * 10).collect();
        let sw = ShardedWritable::new(data, 5, small_cfg());
        assert!(sw.insert(501));
        assert!(!sw.insert(501), "duplicate reports false");
        assert!(!sw.insert(500), "existing key reports false");
        assert!(sw.contains(501));
        // The full scan is globally sorted (ownership invariant).
        let all = sw.range_keys(0, u64::MAX);
        assert!(all.windows(2).all(|w| w[0] < w[1]));
        assert_eq!(all.len(), 101);
    }

    #[test]
    fn boundary_keys_have_exactly_one_home() {
        let data: Vec<u64> = (0..90u64).collect();
        let sw = ShardedWritable::new(data, 3, small_cfg());
        for b in sw.bounds() {
            assert!(!sw.insert(b), "boundary key {b} already owned exactly once");
        }
        assert_eq!(sw.len(), 90, "no duplicate slipped across a boundary");
    }

    #[test]
    fn load_triggered_split_grows_the_topology() {
        let cfg = small_cfg();
        let sw = ShardedWritable::new(vec![0u64], 1, cfg.clone());
        for k in 1..=300u64 {
            sw.insert(k * 2);
        }
        assert!(sw.splits() >= 1, "expected at least one split");
        assert!(sw.shard_count() > 1);
        assert_eq!(
            sw.generation(),
            sw.splits() as u64 + sw.shard_merges() as u64
        );
        // Every shard within budget after rebalancing settles.
        sw.rebalance();
        for len in sw.shard_lens() {
            assert!(len <= cfg.rebalance.max_shard_len, "shard len {len}");
        }
        assert_eq!(sw.len(), 301);
        for k in (0..=300u64).step_by(13) {
            assert!(sw.contains(k * 2), "lost key {}", k * 2);
        }
    }

    #[test]
    fn cold_neighbors_merge() {
        // 8 tiny shards over 16 keys: every adjacent pair is far below
        // merge_max_len, so rebalance collapses the topology.
        let data: Vec<u64> = (0..16u64).map(|i| i * 5).collect();
        let sw = ShardedWritable::new(data.clone(), 8, small_cfg());
        assert_eq!(sw.shard_count(), 8);
        let actions = sw.rebalance();
        assert!(!actions.is_empty());
        assert!(sw.shard_merges() >= 1);
        assert!(sw.shard_count() < 8);
        // Nothing lost or duplicated.
        assert_eq!(sw.range_keys(0, u64::MAX), data);
    }

    #[test]
    fn snapshots_are_consistent_across_rebalances() {
        let data: Vec<u64> = (0..128u64).map(|i| i * 2).collect();
        let sw = ShardedWritable::new(data, 2, small_cfg());
        let before = sw.snapshot();
        let gen_before = before.generation();
        // Drive splits.
        for k in 0..200u64 {
            sw.insert(k * 2 + 1);
        }
        assert!(sw.splits() >= 1);
        let after = sw.snapshot();
        assert!(after.generation() > gen_before);
        // The old snapshot still serves its pre-rebalance state.
        assert_eq!(before.len(), 128);
        assert!(!before.contains(1));
        assert_eq!(before.rank(u64::MAX), 128);
        // The new one sees everything.
        assert_eq!(after.len(), 328);
        assert!(after.contains(1));
        // Shard/prefix bookkeeping agrees on both.
        for snap in [&before, &after] {
            let total = snap.rank(u64::MAX) + usize::from(snap.contains(u64::MAX));
            assert_eq!(total, snap.len());
            assert_eq!(snap.shard_count(), snap.shard_snapshots().len());
        }
    }

    #[test]
    fn error_triggered_split_fires_on_skewed_regions() {
        // Two regimes: a dense linear run then huge steps — one linear
        // leaf models it badly at coarse density.
        let mut data: Vec<u64> = (0..600u64).collect();
        data.extend((1..=600u64).map(|i| 1_000_000 + i * i * 1000));
        let cfg = ShardedWritableConfig {
            merge_threshold: 64,
            leaf_fraction: 1.0 / 4096.0, // 1 leaf: forced mispredictions
            retune: RetunePolicy {
                max_rounds: 0, // retuning disabled: the error must stay hot
                ..RetunePolicy::default()
            },
            check_interval: 0,
            max_runs: 0,
            backend: Backend::Rmi,
            observe: true,
            rebalance: RebalanceConfig {
                max_shard_len: 1 << 20, // never length-split
                merge_max_len: 8,
                max_mean_err: Some(4.0),
                max_shards: 32,
            },
        };
        let sw = ShardedWritable::new(data.clone(), 1, cfg);
        assert_eq!(sw.shard_count(), 1);
        let actions = sw.rebalance();
        assert!(
            actions
                .iter()
                .any(|a| matches!(a, RebalanceAction::Split { .. })),
            "error-hot shard must split, got {actions:?}"
        );
        assert_eq!(sw.range_keys(0, u64::MAX), data);
    }

    #[test]
    fn retuning_densifies_skewed_shards() {
        // Step-heavy keys: at the base density the mean error is large;
        // the retune loop must densify until under the threshold (or
        // out of rounds) — asserted via the resulting error.
        let mut data: Vec<u64> = Vec::new();
        let mut v = 0u64;
        for i in 0..4000u64 {
            v += if (i / 100) % 2 == 0 { 1 } else { 100_000 };
            data.push(v);
        }
        let loose = ShardedWritableConfig {
            leaf_fraction: 1.0 / 2000.0,
            retune: RetunePolicy {
                max_mean_err: 4.0,
                max_rounds: 0,
                ..RetunePolicy::default()
            },
            ..ShardedWritableConfig::default()
        };
        let tuned = ShardedWritableConfig {
            retune: RetunePolicy {
                max_rounds: 6,
                ..loose.retune
            },
            ..loose.clone()
        };
        let obs = Arc::new(ServeMetrics::new());
        let coarse = build_retuned_shard(data.clone(), &loose, &obs);
        let dense = build_retuned_shard(data, &tuned, &obs);
        assert!(
            dense.base_stats().mean_abs_err < coarse.base_stats().mean_abs_err,
            "retuned {} vs coarse {}",
            dense.base_stats().mean_abs_err,
            coarse.base_stats().mean_abs_err
        );
        assert!(dense.base_stats().leaves > coarse.base_stats().leaves);
    }

    #[test]
    fn empty_and_tiny_initial_sets() {
        let cfg = small_cfg();
        let empty = ShardedWritable::new(Vec::<u64>::new(), 4, cfg.clone());
        assert_eq!(empty.shard_count(), 1, "clamped");
        assert!(empty.is_empty());
        assert!(!empty.contains(0));
        assert!(empty.insert(42));
        assert_eq!(empty.len(), 1);
        assert_eq!(empty.rank(u64::MAX), 1);

        let single = ShardedWritable::new(vec![9u64], 4, cfg);
        assert_eq!(single.shard_count(), 1);
        assert!(single.contains(9));
        assert_eq!(single.rank(9), 0);
        assert_eq!(single.rank(10), 1);
    }

    #[test]
    fn max_key_round_trips() {
        let sw = ShardedWritable::new(vec![0u64, 5, u64::MAX - 1], 3, small_cfg());
        assert!(sw.insert(u64::MAX));
        assert!(sw.contains(u64::MAX));
        assert!(!sw.insert(u64::MAX));
        let snap = sw.snapshot();
        assert_eq!(snap.rank(u64::MAX), 3);
        assert_eq!(snap.len(), 4);
        assert_eq!(snap.range_keys(u64::MAX - 1, u64::MAX), vec![u64::MAX - 1]);
    }

    #[test]
    fn initial_partition_is_zero_copy() {
        let store = KeyStore::new((0..1000u64).collect());
        let sw = ShardedWritable::new(store.clone(), 8, ShardedWritableConfig::default());
        // 1 caller handle + at least one per shard base.
        assert!(store.strong_count() >= 9, "count {}", store.strong_count());
        drop(sw);
        assert_eq!(store.strong_count(), 1);
    }

    #[test]
    fn topology_poison_does_not_take_down_readers_or_writers() {
        let data: Vec<u64> = (0..200u64).map(|i| i * 5).collect();
        let sw = ShardedWritable::new(data, 3, small_cfg());
        // A thread dies holding the topology write lock *before* any
        // mutation — exactly the state every real panic site leaves
        // behind (the only write under this lock is the final
        // fully-built `Arc` swap; see the poison-recovery note on
        // `read_topo`).
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _guard = sw.topo.write().unwrap();
            panic!("rebalancer dies mid-critical-section");
        }));
        assert!(result.is_err());
        assert!(sw.topo.is_poisoned(), "the lock really was poisoned");

        // Reads, writes, snapshots and rebalancing all keep working.
        assert!(sw.contains(5));
        assert!(sw.insert(7));
        assert!(sw.contains(7));
        let snap = sw.snapshot();
        assert_eq!(snap.len(), 201);
        assert_eq!(sw.range_keys(0, 11), vec![0, 5, 7, 10]);
        sw.rebalance();
        assert!(sw.insert(8));
        assert_eq!(sw.len(), 202);
    }

    fn tmp(name: &str) -> std::path::PathBuf {
        std::env::temp_dir().join(format!("li-serve-swdur-{}-{name}", std::process::id()))
    }

    struct Cleanup(std::path::PathBuf);
    impl Drop for Cleanup {
        fn drop(&mut self) {
            let _ = std::fs::remove_file(&self.0);
        }
    }

    #[test]
    fn durable_writes_recover_after_a_simulated_crash() {
        let snap = tmp("crash.lidx");
        let wal_path = tmp("crash.wal");
        let (_g1, _g2) = (Cleanup(snap.clone()), Cleanup(wal_path.clone()));
        let sw = ShardedWritable::new(
            (0..100u64).map(|i| i * 4).collect::<Vec<_>>(),
            2,
            small_cfg(),
        );
        sw.enable_wal(&wal_path, WalSyncPolicy::PerRecord).unwrap();
        sw.save(&snap).unwrap(); // checkpoint the pre-WAL state
        assert!(sw.insert(1001));
        assert!(sw.insert(1003));
        assert_eq!(
            sw.insert_batch(&[1005, 1003, 1007]),
            vec![true, false, true]
        );
        assert_eq!(sw.wal_last_lsn(), 3);
        assert!(sw.wal_failure().is_none());
        // Crash: drop without saving. Memory is gone; files survive.
        drop(sw);

        let (rec, report) = ShardedWritable::recover_with_config(
            &snap,
            &wal_path,
            WalSyncPolicy::PerRecord,
            small_cfg(),
        )
        .unwrap();
        assert!(report.snapshot_loaded);
        assert_eq!(report.replayed, 3);
        assert_eq!(report.skipped, 0);
        assert_eq!(report.truncated_bytes, 0);
        assert_eq!(rec.len(), 104);
        for k in [1001u64, 1003, 1005, 1007] {
            assert!(rec.contains(k), "lost durable write {k}");
        }
        // The recovered structure keeps logging: a second crash cycle
        // (including a save, which truncates the log and re-stamps the
        // LSN watermark) still loses nothing.
        assert!(rec.insert(2001));
        rec.save(&snap).unwrap();
        assert!(rec.insert(2003));
        drop(rec);
        let again = ShardedWritable::recover(&snap, &wal_path, WalSyncPolicy::PerRecord).unwrap();
        assert!(again.contains(2001), "covered by the second snapshot");
        assert!(again.contains(2003), "replayed from the post-save log");
        assert_eq!(again.len(), 106);
    }

    #[test]
    fn recover_without_snapshot_replays_the_whole_log() {
        let snap = tmp("firstboot.lidx");
        let wal_path = tmp("firstboot.wal");
        let (_g1, _g2) = (Cleanup(snap.clone()), Cleanup(wal_path.clone()));
        let sw = ShardedWritable::new(Vec::new(), 1, small_cfg());
        sw.enable_wal(&wal_path, WalSyncPolicy::EveryN(1)).unwrap();
        for k in 0..20u64 {
            assert!(sw.try_insert(k * 3).unwrap());
        }
        drop(sw); // crash before the first save

        let (rec, report) = ShardedWritable::recover_with_config(
            &snap,
            &wal_path,
            WalSyncPolicy::EveryN(1),
            small_cfg(),
        )
        .unwrap();
        assert!(!report.snapshot_loaded);
        assert_eq!(report.replayed, 20);
        assert_eq!(rec.len(), 20);
        assert_eq!(
            rec.range_keys(0, u64::MAX),
            (0..20u64).map(|k| k * 3).collect::<Vec<_>>()
        );
    }

    /// `small_cfg` with rebalancing off, so that the only retrains are
    /// the two shard builds and what the buffers trigger.
    fn steady_cfg(merge_threshold: usize, max_runs: usize) -> ShardedWritableConfig {
        ShardedWritableConfig {
            merge_threshold,
            max_runs,
            check_interval: 0,
            rebalance: RebalanceConfig {
                max_shard_len: usize::MAX,
                merge_max_len: 0,
                max_mean_err: None,
                max_shards: 16,
            },
            ..small_cfg()
        }
    }

    /// `(li_trainings_total, li_train_ns samples, train events)`.
    fn trainings(sw: &ShardedWritable) -> (u64, u64, usize) {
        let m = sw.metrics();
        let events = m.ring("li_events").expect("ring registered");
        (
            m.counter("li_trainings_total").expect("registered"),
            m.histogram("li_train_ns").expect("registered").count(),
            events.iter().filter(|e| e.name == "train").count(),
        )
    }

    #[test]
    fn every_merge_and_compaction_counts_one_training() {
        let data: Vec<u64> = (0..1000u64).map(|i| i * 8).collect();
        let sw = ShardedWritable::new(data.clone(), 2, steady_cfg(16, 0));
        assert_eq!(trainings(&sw), (2, 2, 2), "one training per shard build");
        for k in 0..300u64 {
            sw.insert(k * 8 + 3);
        }
        sw.insert_batch(&(0..100u64).map(|k| k * 8 + 5).collect::<Vec<_>>());
        let merges = sw.metrics().counter("li_buffer_merges_total").unwrap();
        assert!(merges > 0, "the stream must fill buffers");
        let n = 2 + merges;
        assert_eq!(trainings(&sw), (n, n, n as usize));

        let tiered = ShardedWritable::new(data, 2, steady_cfg(16, 2));
        for k in 0..300u64 {
            tiered.insert(k * 8 + 3);
        }
        let folds = tiered.compactions() as u64;
        assert!(folds > 0, "full run stacks must compact");
        assert_eq!(trainings(&tiered).0, 2 + folds, "a seal is not a training");
    }

    #[test]
    fn loads_and_roomy_recoveries_train_nothing() {
        let snap = tmp("trainings.lidx");
        let wal_path = tmp("trainings.wal");
        let (_g1, _g2) = (Cleanup(snap.clone()), Cleanup(wal_path.clone()));
        let sw = ShardedWritable::new(
            (0..1000u64).map(|i| i * 8).collect::<Vec<_>>(),
            2,
            steady_cfg(4096, 0),
        );
        sw.save(&snap).unwrap();
        sw.enable_wal(&wal_path, WalSyncPolicy::PerRecord).unwrap();
        for k in 0..100u64 {
            sw.insert(k * 8 + 3);
        }
        sw.insert_batch(&(0..100u64).map(|k| k * 8 + 5).collect::<Vec<_>>());
        drop(sw);
        assert_eq!(trainings(&ShardedWritable::load(&snap).unwrap()), (0, 0, 0));
        let (rec, report) = ShardedWritable::recover_with_config(
            &snap,
            &wal_path,
            WalSyncPolicy::PerRecord,
            steady_cfg(4096, 0),
        )
        .unwrap();
        assert_eq!(report.replayed, 101);
        assert_eq!(rec.len(), 1200);
        assert_eq!(trainings(&rec), (0, 0, 0));
    }

    #[test]
    fn enabling_a_second_wal_is_refused() {
        let wal_path = tmp("double.wal");
        let _g = Cleanup(wal_path.clone());
        let sw = ShardedWritable::new(vec![1u64], 1, small_cfg());
        assert!(!sw.wal_attached());
        sw.enable_wal(&wal_path, WalSyncPolicy::default()).unwrap();
        assert!(sw.wal_attached());
        assert!(sw.enable_wal(&wal_path, WalSyncPolicy::default()).is_err());
        sw.wal_sync().unwrap();
    }

    #[test]
    fn concurrent_inserts_across_threads_settle_exactly() {
        let data: Vec<u64> = (0..2000u64).map(|i| i * 10).collect();
        let sw = ShardedWritable::new(data, 4, small_cfg());
        std::thread::scope(|scope| {
            for t in 0..4u64 {
                let sw = &sw;
                scope.spawn(move || {
                    for i in 0..500u64 {
                        sw.insert((t * 500 + i) * 10 + 3);
                    }
                });
            }
        });
        assert_eq!(sw.len(), 4000);
        assert!(sw.splits() >= 1, "inserts must have driven splits");
        let all = sw.range_keys(0, u64::MAX);
        assert!(all.windows(2).all(|w| w[0] < w[1]));
        assert_eq!(all.len(), 4000);
    }
}
