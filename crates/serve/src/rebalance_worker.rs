//! Background rebalancing: the rebalance pass on a dedicated thread.
//!
//! A [`ShardedWritable`] has one rebalance pass — fold full run stacks,
//! then split or merge until the topology is stable — and every split or
//! merge in it rebuilds the replacement shards with no topology lock
//! held, then publishes them under a brief write lock. Without a worker,
//! the insert that trips a trigger runs that pass itself and pays the
//! rebuild latency. Both *Benchmarking Learned Indexes* (Marcus et al.)
//! and Google's disk-based learned-index deployment report that
//! background reorganization, not steady-state lookup, is where
//! write-heavy deployments spend their tail latency.
//!
//! [`RebalanceWorker`] moves the pass to a dedicated thread:
//!
//! ```text
//!  insert(k) ──▶ owner shard           (topology READ lock only)
//!      │
//!      └─ hot, stack full or periodic? ──▶ signal()   (mpsc wake, collapsed
//!                                             │        to one in-flight msg)
//!                                             ▼
//!                                   rebalance worker thread, per wake:
//!                                     ShardedWritable::rebalance_pass
//!                                     0. compact full run stacks (tiered
//!                                        mode: K sealed runs → base, ONE
//!                                        retrain, no topology lock)
//!                                     1. observe + plan      (read lock)
//!                                     2. export + retrain    (NO lock —
//!                                        inserts keep flowing into the
//!                                        old shards)
//!                                     3. publish + drain     (brief write
//!                                        lock: re-route the writes that
//!                                        raced in by the NEW bounds, swap
//!                                        the Arc<Topology>)
//! ```
//!
//! While the worker is attached, inserts never run the pass: they only
//! send one wake message (rarely — when a shard runs hot, a run stack
//! fills or the periodic cadence is crossed). Passes stay serialized
//! with any manual [`ShardedWritable::rebalance`] call. Dropping the
//! worker detaches the link, joins the thread, and returns the
//! structure to inline passes.
//!
//! The worker's own tallies ([`RebalanceWorker::applied`]) come from
//! the results of its passes; the structure's totals, whoever ran them,
//! live in its metrics registry ([`ShardedWritable::metrics`]).

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{Receiver, Sender};
use std::sync::{mpsc, Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use crate::rebalance::RebalanceAction;
use crate::sharded_writable::{Pass, ShardedWritable};

/// Wake-channel message from inserters (or the handle) to the worker.
enum Wake {
    /// A trigger fired; run a rebalance pass.
    Work,
    /// The handle is shutting down; exit the loop.
    Shutdown,
}

/// The wake channel linking a [`ShardedWritable`]'s inserters to the
/// background worker. Inserters send at most one wake message per
/// worker pass ([`WorkerLink::signal`] collapses signal storms with a
/// flag swap).
#[derive(Debug)]
pub(crate) struct WorkerLink {
    /// Whether a wake message is already in flight (collapses storms).
    signaled: AtomicBool,
    /// Set once, when the worker thread exits (shutdown or panic).
    /// `wait_idle` checks it so nobody blocks on a worker that will
    /// never finish another pass.
    dead: AtomicBool,
    /// Test hook: make the worker panic at the start of its next pass.
    #[cfg(test)]
    pub(crate) fail_next_pass: AtomicBool,
    tx: Sender<Wake>,
    /// Worker idleness: true iff the worker finished a pass and no new
    /// signal has arrived since. Guarded by `idle`'s mutex together
    /// with the `signaled` flag (see `signal`/`finish_pass`).
    idle: Mutex<bool>,
    idle_cv: Condvar,
}

impl WorkerLink {
    fn new(tx: Sender<Wake>) -> Self {
        Self {
            signaled: AtomicBool::new(false),
            dead: AtomicBool::new(false),
            #[cfg(test)]
            fail_next_pass: AtomicBool::new(false),
            tx,
            idle: Mutex::new(true),
            idle_cv: Condvar::new(),
        }
    }

    /// Wake the worker. At most one message is in flight at a time: the
    /// first signaler after a pass starts sends, the rest see the flag
    /// already set and return immediately.
    pub(crate) fn signal(&self) {
        if !self.signaled.swap(true, Ordering::AcqRel) {
            // Order matters: mark not-idle BEFORE sending, so a
            // `wait_until_stable` caller can never observe idle=true
            // while a wake message is queued.
            *self.idle_lock() = false;
            // A send error means the worker already exited (handle
            // dropped mid-signal); the wake is then simply dropped —
            // the structure is back in inline mode for future inserts.
            let _ = self.tx.send(Wake::Work);
        }
    }

    /// Worker-side: start a pass. Re-arms the signal flag, so a trigger
    /// that fires *during* the pass sends a fresh wake message and is
    /// never lost.
    fn begin_pass(&self) {
        self.signaled.store(false, Ordering::Release);
    }

    /// Worker-side: end a pass. Marks the link idle unless a new signal
    /// arrived while the pass ran (checked under the idle mutex, which
    /// `signal` also takes — so the flag and the mutex agree).
    fn finish_pass(&self) {
        let mut idle = self.idle_lock();
        if !self.signaled.load(Ordering::Acquire) {
            *idle = true;
            self.idle_cv.notify_all();
        }
    }

    /// Worker-side: the thread is exiting (shutdown or panic). Every
    /// current and future `wait_idle` caller must return instead of
    /// blocking on a pass that will never finish. Taken under the idle
    /// mutex so a waiter between its flag check and its `cv.wait` can't
    /// miss the wake-up.
    pub(crate) fn mark_dead(&self) {
        let _idle = self.idle_lock();
        self.dead.store(true, Ordering::Release);
        self.idle_cv.notify_all();
    }

    /// Block until the worker is idle (pass finished, no signal
    /// pending) or the deadline passes. Returns whether it became idle;
    /// returns `false` immediately if the worker thread is dead (it
    /// will never become idle again).
    fn wait_idle(&self, timeout: Duration) -> bool {
        let deadline = Instant::now() + timeout;
        let mut idle = self.idle_lock();
        while !*idle {
            if self.dead.load(Ordering::Acquire) {
                return false;
            }
            let now = Instant::now();
            if now >= deadline {
                return false;
            }
            let (guard, _) = self
                .idle_cv
                .wait_timeout(idle, deadline - now)
                .unwrap_or_else(|e| e.into_inner());
            idle = guard;
        }
        true
    }

    // Poison tolerance: the idle mutex guards a single `bool`, which
    // cannot be left in a torn state by a panicking holder — every
    // critical section is one load/store. A panic elsewhere on the
    // worker thread (caught in `worker_loop`'s catch_unwind) must not
    // turn every later `signal`/`wait_idle` into a second panic.
    fn idle_lock(&self) -> std::sync::MutexGuard<'_, bool> {
        self.idle.lock().unwrap_or_else(|e| e.into_inner())
    }
}

/// What a [`RebalanceWorker`]'s own passes applied since it attached,
/// taken from each pass's result: a split, merge or fold run by any
/// other driver (an inline trigger, a manual
/// [`ShardedWritable::rebalance`]) never shows up here. The structure's
/// totals, whoever ran them, are the registry counters behind
/// [`ShardedWritable::metrics`] (`li_shard_splits_total`, …).
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct WorkerTally {
    /// Shard splits published.
    pub splits: usize,
    /// Shard merges published.
    pub merges: usize,
    /// Run-stack compactions (shards whose sealed runs were folded into
    /// the base with one retrain).
    pub compactions: usize,
    /// Sealed runs those compactions consumed.
    pub runs_folded: usize,
}

impl WorkerTally {
    fn add(&mut self, pass: &Pass) {
        for action in &pass.actions {
            match action {
                RebalanceAction::Split { .. } => self.splits += 1,
                RebalanceAction::Merge { .. } => self.merges += 1,
            }
        }
        self.compactions += pass.compactions;
        self.runs_folded += pass.runs_folded;
    }
}

/// What the worker thread publishes for the handle: only what the
/// worker alone knows.
#[derive(Debug, Default)]
struct WorkerStats {
    /// Running sum of the worker's pass results. Poison-tolerant: the
    /// critical section is one add of plain integers.
    applied: Mutex<WorkerTally>,
    /// Set if the worker thread panicked (the panic is contained: the
    /// worker detaches itself so the structure returns to inline
    /// rebalancing, and waiters are woken instead of hanging).
    panicked: AtomicBool,
}

/// A dedicated background rebalance thread for a [`ShardedWritable`].
///
/// While the worker is attached, inserts only signal it over a channel
/// and the worker runs the structure's rebalance pass *off* the insert
/// path: split/merge topologies are rebuilt off-lock and published with
/// an incremental hand-off (writes that raced into a shard mid-rebuild
/// are re-routed by the new topology's ownership bounds). Dropping the
/// handle shuts the thread down, joins it, and re-enables inline
/// passes.
///
/// # Examples
/// ```
/// use std::sync::Arc;
/// use std::time::Duration;
/// use li_serve::{RebalanceWorker, ShardedWritable, ShardedWritableConfig};
///
/// let sw = Arc::new(ShardedWritable::new(
///     (0..256u64).collect::<Vec<_>>(),
///     2,
///     ShardedWritableConfig::default(),
/// ));
/// let worker = RebalanceWorker::spawn(Arc::clone(&sw));
/// assert!(sw.has_background_worker());
///
/// for k in 256..1024u64 {
///     sw.insert(k); // signals the worker when a trigger fires
/// }
/// worker.kick(); // force a scan now rather than waiting for a trigger
/// assert!(worker.wait_until_stable(Duration::from_secs(10)));
///
/// drop(worker); // detach: rebalancing is inline again
/// assert!(!sw.has_background_worker());
/// ```
#[derive(Debug)]
pub struct RebalanceWorker {
    sw: Arc<ShardedWritable>,
    link: Arc<WorkerLink>,
    stats: Arc<WorkerStats>,
    handle: Option<JoinHandle<()>>,
}

impl RebalanceWorker {
    /// Spawn the worker thread and attach it to `sw`. From this moment
    /// until the handle is dropped, inserts on `sw` never run the
    /// rebalance pass inline.
    ///
    /// # Panics
    /// If another worker is already attached to `sw`.
    pub fn spawn(sw: Arc<ShardedWritable>) -> Self {
        let (tx, rx) = mpsc::channel();
        let link = Arc::new(WorkerLink::new(tx));
        sw.attach_worker(Arc::clone(&link));
        let stats = Arc::new(WorkerStats::default());
        let spawned = {
            let sw = Arc::clone(&sw);
            let link = Arc::clone(&link);
            let stats = Arc::clone(&stats);
            std::thread::Builder::new()
                .name("li-rebalance".into())
                .spawn(move || {
                    // Contain panics to this thread: a worker that dies
                    // mid-pass must hand rebalancing back to the insert
                    // path (self-detach) and wake anyone blocked in
                    // `wait_until_stable` (mark_dead) — never strand
                    // the structure with a phantom worker attached.
                    // AssertUnwindSafe is sound here: the structures
                    // the closure borrows are the lock-protected
                    // `ShardedWritable` (whose guards recover from
                    // poison because every critical section leaves the
                    // data valid), atomics and the tally mutex.
                    let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                        worker_loop(&sw, &link, &rx, &stats);
                    }));
                    if result.is_err() {
                        stats.panicked.store(true, Ordering::Release);
                        sw.detach_worker();
                    }
                    link.mark_dead();
                })
        };
        let handle = match spawned {
            Ok(handle) => handle,
            Err(e) => {
                // Detach before unwinding: otherwise the structure
                // would signal a worker that never existed and neither
                // rebalance mode would ever run again.
                sw.detach_worker();
                panic!("failed to spawn the rebalance worker thread: {e}");
            }
        };
        Self {
            sw,
            link,
            stats,
            handle: Some(handle),
        }
    }

    /// Signal the worker to run a pass now, without waiting for an
    /// insert to trigger one (e.g. to drain a cold initial topology).
    pub fn kick(&self) {
        self.link.signal();
    }

    /// Block until the worker has finished a pass with no signal
    /// pending (the topology was stable when it last looked), or the
    /// timeout expires. Returns whether it quiesced in time — `false`
    /// immediately (no hang) if the worker thread has died.
    pub fn wait_until_stable(&self, timeout: Duration) -> bool {
        self.link.wait_idle(timeout)
    }

    /// Whether the worker thread panicked. A panicked worker has
    /// already detached itself — inserts rebalance inline again — and
    /// [`wait_until_stable`](Self::wait_until_stable) returns `false`
    /// rather than blocking on it.
    pub fn panicked(&self) -> bool {
        self.stats.panicked.load(Ordering::Acquire)
    }

    /// What this worker's own passes have applied since it attached
    /// (see [`WorkerTally`]).
    pub fn applied(&self) -> WorkerTally {
        *self.stats.applied.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// The structure this worker rebalances.
    pub fn target(&self) -> &Arc<ShardedWritable> {
        &self.sw
    }
}

impl Drop for RebalanceWorker {
    fn drop(&mut self) {
        // Detach first: inserts fall back to inline rebalancing and no
        // new Work messages are produced; then unblock the thread. A
        // panicked worker already detached itself — `detach_worker` is
        // a plain slot clear, so the second call is a no-op.
        self.sw.detach_worker();
        let _ = self.link.tx.send(Wake::Shutdown);
        if let Some(handle) = self.handle.take() {
            // A join error means the thread panicked outside the
            // pass-level catch_unwind (it shouldn't — the whole loop is
            // wrapped — but belt and braces). Record it; never
            // propagate a panic out of Drop, which would abort the
            // process if the handle is itself dropped during a panic.
            if handle.join().is_err() {
                self.stats.panicked.store(true, Ordering::Release);
            }
        }
    }
}

/// The worker thread body: sleep on the channel, and per wake run one
/// rebalance pass, adding its result to the worker's tally.
fn worker_loop(sw: &ShardedWritable, link: &WorkerLink, rx: &Receiver<Wake>, stats: &WorkerStats) {
    while let Ok(Wake::Work) = rx.recv() {
        link.begin_pass();
        #[cfg(test)]
        if link.fail_next_pass.swap(false, Ordering::Relaxed) {
            panic!("injected rebalance-worker panic (test)");
        }
        let pass = sw.rebalance_pass();
        stats
            .applied
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .add(&pass);
        if !pass.stable {
            // The step budget ran out with work remaining (a giant
            // backlog): re-signal ourselves so the backlog resumes on
            // the next wake instead of stranding an over-budget
            // topology as "idle" until some future insert happens to
            // signal. Each resumed pass applies real actions, so this
            // converges — it is a continuation, not a spin.
            link.signal();
        }
        link.finish_pass();
    }
    // Shutdown (or every sender gone): fall off and let the thread end.
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rebalance::RebalanceConfig;
    use crate::sharded_writable::ShardedWritableConfig;

    /// A registry counter by name — the structure's only counter API.
    fn count(sw: &ShardedWritable, name: &str) -> usize {
        sw.metrics().counter(name).expect("registered") as usize
    }

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

    #[test]
    fn worker_splits_hot_shards_off_the_insert_path() {
        let sw = Arc::new(ShardedWritable::new(vec![0u64], 1, small_cfg()));
        let worker = RebalanceWorker::spawn(Arc::clone(&sw));
        for k in 1..=400u64 {
            sw.insert(k * 3);
        }
        assert!(worker.wait_until_stable(Duration::from_secs(30)));
        let applied = worker.applied();
        assert!(applied.splits >= 1, "worker must have split");
        // In background mode ONLY the worker rebalances: the registry
        // totals are exactly what the worker's own passes applied.
        assert_eq!(applied.splits, count(&sw, "li_shard_splits_total"));
        assert_eq!(applied.merges, count(&sw, "li_shard_merges_total"));
        // Stability means every shard is within budget.
        for len in sw.shard_lens() {
            assert!(len <= small_cfg().rebalance.max_shard_len, "len {len}");
        }
        assert_eq!(sw.len(), 401);
    }

    #[test]
    fn worker_merges_cold_topologies_on_kick() {
        let data: Vec<u64> = (0..16u64).map(|i| i * 7).collect();
        let sw = Arc::new(ShardedWritable::new(data.clone(), 8, small_cfg()));
        let worker = RebalanceWorker::spawn(Arc::clone(&sw));
        worker.kick();
        assert!(worker.wait_until_stable(Duration::from_secs(30)));
        assert!(worker.applied().merges >= 1, "cold neighbors must merge");
        assert!(sw.shard_count() < 8);
        assert_eq!(sw.range_keys(0, u64::MAX), data);
    }

    #[test]
    fn drop_detaches_and_restores_inline_rebalancing() {
        let sw = Arc::new(ShardedWritable::new(vec![0u64], 1, small_cfg()));
        {
            let worker = RebalanceWorker::spawn(Arc::clone(&sw));
            assert!(sw.has_background_worker());
            worker.kick();
            assert!(worker.wait_until_stable(Duration::from_secs(30)));
        }
        assert!(!sw.has_background_worker());
        // Inline mode again: this load runs the rebalance pass on the
        // inserting thread.
        for k in 1..=300u64 {
            sw.insert(k * 2);
        }
        assert!(count(&sw, "li_shard_splits_total") >= 1);
    }

    #[test]
    #[should_panic(expected = "already attached")]
    fn double_attach_panics() {
        let sw = Arc::new(ShardedWritable::new(vec![0u64], 1, small_cfg()));
        let _a = RebalanceWorker::spawn(Arc::clone(&sw));
        let _b = RebalanceWorker::spawn(Arc::clone(&sw));
    }

    #[test]
    fn manual_rebalance_races_are_absorbed() {
        // Manual rebalance() calls compete with the worker's passes;
        // the passes serialize, and neither driver may publish over a
        // newer topology or lose a key.
        let sw = Arc::new(ShardedWritable::new(vec![0u64], 1, small_cfg()));
        let worker = RebalanceWorker::spawn(Arc::clone(&sw));
        std::thread::scope(|scope| {
            let sw_ref = &sw;
            scope.spawn(move || {
                for k in 1..=500u64 {
                    sw_ref.insert(k * 5);
                    if k.is_multiple_of(100) {
                        // Deliberately compete with the worker.
                        sw_ref.rebalance();
                    }
                }
            });
        });
        assert!(worker.wait_until_stable(Duration::from_secs(30)));
        // Exact contents survived the races.
        assert_eq!(sw.len(), 501);
        let all = sw.range_keys(0, u64::MAX);
        assert!(all.windows(2).all(|w| w[0] < w[1]));
        assert_eq!(all.len(), 501);
        // Every publication is accounted for exactly once.
        assert_eq!(
            sw.generation(),
            (count(&sw, "li_shard_splits_total") + count(&sw, "li_shard_merges_total")) as u64,
            "torn generation accounting"
        );
    }

    #[test]
    fn worker_panic_is_contained_and_restores_inline_mode() {
        let sw = Arc::new(ShardedWritable::new(
            (0..64u64).map(|i| i * 3).collect::<Vec<_>>(),
            2,
            small_cfg(),
        ));
        let worker = RebalanceWorker::spawn(Arc::clone(&sw));
        assert!(!worker.panicked());

        // Arm the injection and wake the worker: its next pass dies.
        worker.link.fail_next_pass.store(true, Ordering::Relaxed);
        worker.kick();

        // A dead worker must make this RETURN false, not hang forever.
        assert!(
            !worker.wait_until_stable(Duration::from_secs(30)),
            "wait_until_stable must report failure for a dead worker"
        );
        assert!(worker.panicked());
        // The dying worker detached itself: rebalancing is inline again
        // even though the handle is still alive.
        assert!(!sw.has_background_worker());

        // The structure itself is unharmed and rebalances inline.
        for k in 0..=300u64 {
            sw.insert(k * 2 + 1);
        }
        assert!(
            count(&sw, "li_shard_splits_total") >= 1,
            "inline splitting must have resumed"
        );
        assert!(sw.contains(601));
        for len in sw.shard_lens() {
            assert!(len <= small_cfg().rebalance.max_shard_len, "len {len}");
        }

        // Dropping the handle after the panic must also be safe.
        drop(worker);
        assert!(!sw.has_background_worker());
    }

    #[test]
    fn dead_link_unblocks_waiters() {
        let (tx, _rx) = mpsc::channel();
        let link = WorkerLink::new(tx);
        // Pretend a pass started (idle=false) and the worker then died
        // without finishing it.
        link.signal();
        link.mark_dead();
        let start = Instant::now();
        assert!(!link.wait_idle(Duration::from_secs(30)));
        assert!(
            start.elapsed() < Duration::from_secs(5),
            "dead flag must short-circuit the wait, not ride out the timeout"
        );
    }
}
