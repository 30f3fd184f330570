//! # li-serve — the sharded concurrent serving layer
//!
//! The paper frames learned indexes as read-heavy serving structures;
//! this crate is the workspace's answer to serving them at scale: one
//! shared sorted key array, range-partitioned into N zero-copy shards,
//! each served by whatever index backend fits it best, with concurrent
//! batched reads and a snapshot-consistent write path.
//!
//! * [`ShardedIndex`] — the tentpole: partitions one [`KeyStore`] into
//!   N `KeyStore::slice` views (no key copied), builds a pluggable
//!   [`ShardBuilder`] backend per shard, and routes every lookup
//!   through a binary search over the shard boundary keys. It
//!   implements [`RangeIndex`] itself, so
//!   every existing harness and property suite works against it
//!   unchanged.
//! * [`ShardRouter`] — the read and ownership routing rules over the
//!   shard boundary keys.
//! * [`ShardedIndex::lower_bound_batch_parallel`] — the concurrent read
//!   path: scoped threads fan contiguous sub-batches out, each running
//!   the per-shard bucketed batch plan.
//! * [`WritableShard`] — the single-shard write path: a `DeltaIndex`
//!   (Appendix D.1) behind an `RwLock`; merges retrain and swap the
//!   whole base behind an `Arc`, so readers on a [`DeltaSnapshot`] are
//!   never torn across a retrain.
//! * [`ShardedWritable`] — the *sharded* write path: N
//!   [`WritableShard`]s behind an `Arc`-swapped topology (ownership
//!   bounds + router + shards published as one unit), with concurrent
//!   key-routed inserts (scalar and batched —
//!   [`ShardedWritable::insert_batch`] takes the topology lock once and
//!   hands each touched shard its whole bucket), consistent cross-shard
//!   snapshots ([`ShardedSnapshot`]), and a dynamic rebalancer
//!   ([`rebalance`]) that splits hot shards, merges cold neighbors,
//!   and retunes each rebuilt shard's model density to its keys.
//! * [`select`] — adaptive per-shard backend selection:
//!   [`Backend::Auto`] probes each shard with a retuned RMI,
//!   grid-searches backend × tuning over the probe's `RmiStats` under
//!   a fitted cost model, and builds the winner — so a hard-to-learn
//!   shard becomes a B-Tree and a smooth one stays an RMI, per shard,
//!   automatically. The write tier re-runs selection on every shard
//!   rebuild; every decision is counted and traced.
//! * [`persist`] — the persistence tier: save a trained
//!   [`ShardedIndex`] or [`ShardedWritable`] to one page-aligned
//!   snapshot file (coefficients + key payload, checksummed, published
//!   atomically) and load it back with the key array **mapped** and
//!   zero models retrained — a warm restart.
//! * [`RebalanceWorker`] — background rebalancing: a dedicated thread
//!   that runs the structure's one rebalance pass while attached, so
//!   inserts only signal over a channel; the same off-lock rebuilds and
//!   incremental straggler hand-off an inline pass runs happen off the
//!   insert path ([`rebalance_worker`]).
//! * [`obs`] — the observability surface: every structure owns a
//!   [`ServeMetrics`] bundle of `li-obs` striped counters, latency
//!   histograms and a structural-event trace ring;
//!   [`ShardedWritable::metrics`] reads it all back as one consistent
//!   [`MetricsSnapshot`] and `render_text` renders the Prometheus-style
//!   exposition.
//! * [`wal`] — the durability tier for *live* writes: a per-structure
//!   append-only write-ahead log (checksummed records, group-commit
//!   [`WalSyncPolicy`]) that acknowledged writes hit before the
//!   in-memory tiers, truncated at every snapshot publish.
//!   [`ShardedWritable::recover`] loads the snapshot (zero training),
//!   replays the WAL tail, and truncates torn records — no
//!   acknowledged-durable write is ever lost.
//!
//! The partition arithmetic (balanced offsets, boundary keys, the
//! duplicates-safe routing proof, ownership routing and split points)
//! lives in `li_index::partition`, so any future partitioned structure
//! shares the exact same semantics. The full read-path / write-path /
//! rebalance-lifecycle walkthrough lives in `ARCHITECTURE.md` at the
//! repository root.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod builder;
pub mod obs;
pub mod persist;
pub mod rebalance;
pub mod rebalance_worker;
pub mod router;
pub mod select;
pub mod sharded;
pub mod sharded_writable;
pub mod wal;
pub mod writable;

pub use builder::{
    BTreeShardBuilder, FastShardBuilder, InterpShardBuilder, RetunePolicy, RmiShardBuilder,
    ShardBuilder,
};
pub use li_core::delta::DeltaSnapshot;
pub use li_index::{KeyStore, MappedFile, Prediction, RangeIndex};
pub use li_obs::{MetricsRegistry, MetricsSnapshot};
pub use obs::ServeMetrics;
pub use persist::PersistError;
pub use rebalance::{RebalanceAction, RebalanceConfig};
pub use rebalance_worker::{RebalanceWorker, WorkerTally};
pub use router::ShardRouter;
pub use select::{choose, choose_multiset, AutoShardBuilder, Backend, BackendChoice};
pub use sharded::ShardedIndex;
pub use sharded_writable::{
    RecoveryReport, ShardedSnapshot, ShardedWritable, ShardedWritableConfig,
};
pub use wal::{Wal, WalError, WalSyncPolicy};
pub use writable::WritableShard;
