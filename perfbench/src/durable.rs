//! The `durable-mix` workload: a `ShardedWritable` with a write-ahead
//! log on the host disk, driven by one client that alternates fresh-key
//! inserts with `contains` lookups, then synced, dropped without a save
//! and recovered.
//!
//! A run repeats whole cycles (set-up, the fixed operation stream,
//! recovery) until `--seconds` have passed. Every cycle replays the same
//! stream into a fresh structure, so with one client and no background
//! worker the structural counts (merges, WAL appends and syncs, replayed
//! records) repeat exactly from cycle to cycle and run to run.

use std::hint::black_box;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use li_index::RangeIndex;
use li_serve::{
    MetricsSnapshot, ShardRouter, ShardedSnapshot, ShardedWritable, ShardedWritableConfig,
    WalSyncPolicy,
};

use crate::gen;
use crate::oracle::Tally;
use crate::read::{
    bsearch, btree_control, last_mile, percentiles, setup_reference, slowest_shard, traced_passes,
    write_spans, Rounds, SHARDS,
};
use crate::report::Metrics;
use crate::stats::{describe, median, quantile, supports};
use crate::trace::{ticks, Clock, ROOT};

/// Fresh-key inserts per cycle (each followed by one `contains`).
pub const INSERTS: usize = 1 << 16;
/// A recent-key lookup picks one of the last this-many inserted keys.
const RECENT: usize = 4096;
/// Operations per block: latency percentiles are taken per block and
/// the medians over all blocks reported, so a burst of interference
/// from other tenants of the host moves a few blocks, not the result.
const BLOCK: usize = 8192;
/// Cycles per run at least, whatever `--seconds` says.
const MIN_CYCLES: usize = 3;
/// Lookups in the traced tier pass.
const TRACED: usize = 50_000;

pub struct DurableWorkload {
    pub base: Vec<u64>,
    /// Keys inserted, in order; none is in `base`.
    pub fresh: Vec<u64>,
    /// `lookups[i]` follows `insert(fresh[i])`: odd `i` asks for a key
    /// inserted at most `RECENT` inserts ago, even `i` for a base key.
    pub lookups: Vec<u64>,
}

impl DurableWorkload {
    pub fn generate(seed: u64) -> Self {
        let base = gen::lognormal(gen::BASE_KEYS, seed);
        let fresh = gen::fresh_keys(&base, INSERTS, seed);
        let mut r = gen::rng(seed, 4);
        let lookups = (0..INSERTS)
            .map(|i| {
                if i % 2 == 1 {
                    fresh[i - r.below((i + 1).min(RECENT))]
                } else {
                    base[r.below(base.len())]
                }
            })
            .collect();
        Self {
            base,
            fresh,
            lookups,
        }
    }

    pub fn ops_fingerprint(&self) -> u64 {
        gen::fingerprint(self.fresh.iter().chain(&self.lookups).copied())
    }
}

/// What one cycle measured apart from its lookups.
struct Cycle {
    setup_s: f64,
    /// [`setup_reference`] timed right after the set-up.
    setup_reference_s: f64,
    build_s: f64,
    save_s: f64,
    /// Wall time of the timed insert + `contains` stream.
    stream_s: f64,
    /// The reference binary search over the stream's lookup keys.
    reference_s: f64,
    /// Every insert latency in ticks, for the pooled p99.99.
    insert_ticks: Vec<u64>,
    /// Insert p50 and p99 per block, in ticks.
    insert_blocks: Vec<[f64; 2]>,
    recover_s: f64,
}

pub fn run(w: &DurableWorkload, seconds: u64, trace: bool, m: &mut Metrics, tally: &mut Tally) {
    let dir = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("out")
        .join(format!("durable-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create the run directory");
    let files = Files {
        snapshot: dir.join("snapshot.li"),
        wal: dir.join("wal.log"),
        reference: dir.join("reference.bin"),
    };

    let deadline = Instant::now() + Duration::from_secs(seconds);
    let clock = Clock::start();
    let mut lookups = Rounds::default();
    let mut cycles = Vec::new();
    while cycles.len() < MIN_CYCLES || Instant::now() < deadline {
        match cycle(w, &files, cycles.is_empty(), trace, &mut lookups, m, tally) {
            Some(c) => cycles.push(c),
            None => break,
        }
    }
    std::fs::remove_dir_all(&dir).expect("remove the run directory");
    if cycles.is_empty() {
        return;
    }

    let ns = clock.ns_per_tick();
    let per = |f: &dyn Fn(&Cycle) -> f64| median(&cycles.iter().map(f).collect::<Vec<_>>());
    let n = cycles.len();
    let note = format!(
        "median of {n} cycles: build {} keys + WAL + snapshot save",
        w.base.len()
    );
    m.set("setup_s", per(&|c| c.setup_s), &note);
    m.set(
        "setup_vs_reference",
        per(&|c| c.setup_s / c.setup_reference_s),
        &note,
    );
    m.set(
        "ops_time_vs_bsearch",
        per(&|c| (c.stream_s + c.recover_s) / c.reference_s),
        &format!("insert + contains stream and recovery over the reference: median of {n} cycles"),
    );
    assert!(supports(BLOCK, 0.99), "too few samples per block");
    let blocks = n * INSERTS.div_ceil(BLOCK);
    let note = format!("median of {blocks} blocks, each {}", describe(BLOCK));
    lookups.report(
        m,
        ns,
        &format!("contains between inserts: {note}"),
        &format!("median of {blocks} untimed passes over a block's contains"),
    );
    m.set(
        "insert_kops",
        per(&|c| INSERTS as f64 / (c.insert_ticks.iter().sum::<u64>() as f64 * ns / 1e9) / 1e3),
        &format!("median of {n} cycles of {INSERTS}"),
    );
    let insert_blocks: Vec<[f64; 2]> = cycles
        .iter()
        .flat_map(|c| c.insert_blocks.iter().copied())
        .collect();
    for (i, name) in ["insert_p50_ns", "insert_p99_ns"].into_iter().enumerate() {
        let values: Vec<f64> = insert_blocks.iter().map(|b| b[i] * ns).collect();
        m.set(name, median(&values), &format!("durable inserts: {note}"));
    }
    let mut inserts: Vec<u64> = cycles
        .iter()
        .flat_map(|c| c.insert_ticks.iter().copied())
        .collect();
    inserts.sort_unstable();
    assert!(supports(inserts.len(), 0.9999), "too few insert samples");
    m.set(
        "insert_p9999_ns",
        quantile(&inserts, 0.9999) as f64 * ns,
        &format!(
            "durable inserts pooled over {n} cycles: {}",
            describe(inserts.len())
        ),
    );
    m.set(
        "recover_s",
        per(&|c| c.recover_s),
        &format!("median of {n}: snapshot load + replay of {INSERTS} records"),
    );
    if trace {
        m.set(
            "build.train_s",
            per(&|c| c.build_s),
            "ShardedWritable::new, median",
        );
        m.set(
            "persist.save_s",
            per(&|c| c.save_s),
            "first snapshot save, median",
        );
    }
}

/// The files of one run.
struct Files {
    snapshot: PathBuf,
    wal: PathBuf,
    /// Written by [`setup_reference`].
    reference: PathBuf,
}

/// One cycle; `None` after a failure that ends the run. The first
/// cycle also reports the exact counts, and in a traced run the layers.
fn cycle(
    w: &DurableWorkload,
    files: &Files,
    first: bool,
    trace: bool,
    lookups: &mut Rounds,
    m: &mut Metrics,
    tally: &mut Tally,
) -> Option<Cycle> {
    let (snap_path, wal_path) = (&files.snapshot, &files.wal);
    let _ = std::fs::remove_file(snap_path);
    let _ = std::fs::remove_file(wal_path);
    let policy = WalSyncPolicy::default();
    let config = ShardedWritableConfig::default();

    let data = w.base.clone();
    let t = Instant::now();
    let sw = ShardedWritable::new(data, SHARDS, config.clone());
    let build_s = t.elapsed().as_secs_f64();
    let durable = sw.enable_wal(wal_path, policy).map_err(|e| e.to_string());
    tally.check(durable.is_ok(), || format!("enable_wal: {durable:?}"));
    let t_save = Instant::now();
    let saved = sw.save(snap_path).map_err(|e| e.to_string());
    let save_s = t_save.elapsed().as_secs_f64();
    let setup_s = t.elapsed().as_secs_f64();
    tally.check(saved.is_ok(), || format!("save: {saved:?}"));
    if durable.is_err() || saved.is_err() {
        return None;
    }
    let setup_reference_s = setup_reference(&w.base, Some(&files.reference));

    // Blocks of the operation stream; after each block, outside the
    // timed operations, the reference binary search is timed over the
    // block's lookup keys and both sides run one untimed pass over them.
    let mut insert_ticks = Vec::with_capacity(INSERTS);
    let mut insert_blocks = Vec::new();
    let mut lookup_ticks = vec![0u64; BLOCK];
    let mut added = vec![false; BLOCK];
    let mut found = vec![false; BLOCK];
    let (mut stream_s, mut stream_reference_s) = (0.0, 0.0);
    for (fresh, looks) in w.fresh.chunks(BLOCK).zip(w.lookups.chunks(BLOCK)) {
        let len = fresh.len();
        let stream = Instant::now();
        for i in 0..len {
            let t = ticks();
            added[i] = sw.insert(black_box(fresh[i]));
            let u = ticks();
            found[i] = sw.contains(black_box(looks[i]));
            lookup_ticks[i] = ticks() - u;
            insert_ticks.push(u - t);
        }
        stream_s += stream.elapsed().as_secs_f64();
        for i in 0..len {
            let (k, q) = (fresh[i], looks[i]);
            tally.check(added[i], || format!("insert({k}) not newly inserted"));
            tally.check(found[i], || format!("contains({q}) missed"));
        }
        let mut block = insert_ticks[insert_ticks.len() - len..].to_vec();
        insert_blocks.push(percentiles(&mut block));
        let program = percentiles(&mut lookup_ticks[..len]);
        for (l, &q) in lookup_ticks.iter_mut().zip(looks) {
            let t = ticks();
            black_box(bsearch(&w.base, black_box(q)));
            *l = ticks() - t;
        }
        let reference = percentiles(&mut lookup_ticks[..len]);

        let t = Instant::now();
        for (f, &q) in found.iter_mut().zip(looks) {
            *f = sw.contains(black_box(q));
        }
        let program_s = t.elapsed().as_secs_f64();
        let t = Instant::now();
        for &q in looks {
            black_box(bsearch(&w.base, black_box(q)));
        }
        let reference_s = t.elapsed().as_secs_f64();
        stream_reference_s += reference_s;
        for (&f, &q) in found.iter().zip(looks) {
            tally.check(f, || format!("contains({q}) missed in the untimed pass"));
        }
        lookups.push(program, reference, program_s, reference_s, len);
    }

    let snap = sw.snapshot();
    if first {
        m.set(
            "index_bytes_per_key",
            structure_bytes(&snap) as f64 / snap.len() as f64,
            &format!(
                "models, router and delta buffers over {} live keys",
                snap.len()
            ),
        );
    }
    let registry = sw.metrics();
    let expect = INSERTS as u64;
    let count = |name: &str| registry.counter(name).unwrap_or(0);
    tally.count("li_inserts_total", count("li_inserts_total"), expect);
    tally.count(
        "li_wal_appends_total",
        count("li_wal_appends_total"),
        expect,
    );
    let trace = first && trace;
    if trace {
        layers(w, &sw, &snap, &registry, m, tally);
    }

    let synced = sw.wal_sync().map_err(|e| e.to_string());
    tally.check(synced.is_ok(), || format!("wal_sync: {synced:?}"));
    let wal_bytes = std::fs::metadata(wal_path).map_or(0, |f| f.len());
    drop(snap);
    drop(sw);

    let t = Instant::now();
    let recovered =
        ShardedWritable::recover_with_config(snap_path, wal_path, policy, config.clone());
    let recover_s = t.elapsed().as_secs_f64();
    let (sw, report) = match recovered {
        Ok(r) => r,
        Err(e) => {
            tally.check(false, || format!("recover: {e}"));
            return None;
        }
    };
    tally.count("recover.replayed", report.replayed as u64, expect);
    for &k in &w.fresh {
        tally.check(sw.contains(k), || {
            format!("acknowledged key {k} lost in recovery")
        });
    }
    tally.count(
        "recovered len",
        sw.len() as u64,
        (w.base.len() + INSERTS) as u64,
    );
    drop(sw);

    if trace {
        let t = Instant::now();
        let loaded = ShardedWritable::load(snap_path);
        let load_s = t.elapsed().as_secs_f64();
        tally.check(loaded.is_ok(), || "snapshot load failed".into());
        m.set("recover.load_s", load_s, "snapshot load alone");
        m.set(
            "recover.replay_s",
            (recover_s - load_s).max(0.0),
            "recover_s minus load",
        );
        m.set("recover.replayed", report.replayed as f64, "records");
        m.set(
            "wal.bytes_per_key",
            wal_bytes as f64 / INSERTS as f64,
            "log bytes per insert",
        );
        let snap_bytes = std::fs::metadata(snap_path).map_or(0, |f| f.len());
        m.set(
            "persist.snapshot_bytes_per_key",
            snap_bytes as f64 / w.base.len() as f64,
            "first snapshot file",
        );
    }

    Some(Cycle {
        setup_s,
        setup_reference_s,
        build_s,
        save_s,
        stream_s,
        reference_s: stream_reference_s,
        insert_ticks,
        insert_blocks,
        recover_s,
    })
}

/// Bytes of structure beyond the base key arrays: every base model, the
/// sealed runs and delta buffers (8 B per key), and the router.
fn structure_bytes(snap: &ShardedSnapshot) -> usize {
    snap.router().size_bytes()
        + snap
            .shard_snapshots()
            .iter()
            .map(|s| {
                s.base_index().size_bytes()
                    + 8 * (s.runs().iter().map(|r| r.len()).sum::<usize>() + s.delta_keys().len())
            })
            .sum::<usize>()
}

/// Per-layer metrics of the write tier (from its own registry) and the
/// traced tier fan-out of `contains` (from spans around each tier probe
/// of a snapshot).
fn layers(
    w: &DurableWorkload,
    sw: &ShardedWritable,
    snap: &ShardedSnapshot,
    reg: &MetricsSnapshot,
    m: &mut Metrics,
    tally: &mut Tally,
) {
    let count = |name: &str| reg.counter(name).unwrap_or(0) as f64;
    let hist_ms = |name: &str| reg.histogram(name).map_or(0.0, |h| h.sum() as f64 / 1e6);
    m.set(
        "writable.merges",
        count("li_buffer_merges_total"),
        "repeats exactly",
    );
    m.set("writable.merge_busy_ms", hist_ms("li_merge_ns"), "");
    m.set(
        "writable.seals",
        count("li_buffer_seals_total"),
        "repeats exactly",
    );
    m.set(
        "writable.compactions",
        count("li_compactions_total"),
        "repeats exactly",
    );
    m.set(
        "writable.compact_busy_ms",
        hist_ms("li_compact_train_ns"),
        "",
    );
    m.set(
        "rebalance.splits",
        count("li_shard_splits_total"),
        "repeats exactly",
    );
    m.set(
        "rebalance.shard_merges",
        count("li_shard_merges_total"),
        "repeats exactly",
    );
    m.set(
        "wal.appends",
        count("li_wal_appends_total"),
        "repeats exactly; = inserts",
    );
    m.set("wal.syncs", count("li_wal_syncs_total"), "repeats exactly");
    m.set(
        "wal.append_p50_ns",
        reg.histogram("li_wal_append_ns")
            .map_or(0.0, |h| h.value_at_quantile(0.5) as f64),
        "",
    );
    m.set("wal.sync_busy_ms", hist_ms("li_wal_sync_ns"), "");

    let shards = snap.shard_count();
    let hybrid = sw.hybrid_shards();
    m.set("select.rmi_shards", (shards - hybrid) as f64, "");
    m.set(
        "select.btree_shards",
        hybrid as f64,
        "all-B-Tree-leaf hybrid bases",
    );
    m.set(
        "tier.runs_per_shard",
        sw.run_count() as f64 / shards as f64,
        "",
    );
    let t = Instant::now();
    black_box(ShardRouter::fit(sw.bounds()));
    m.set("router.fit_s", t.elapsed().as_secs_f64(), "");

    // `contains` on the snapshot, one tier at a time, in the order
    // `DeltaSnapshot::contains` probes them.
    let qs = &w.lookups[..TRACED];
    let mut hits = vec![false; TRACED];
    let mut plain = vec![false; TRACED];
    let mut probes = 0usize;
    let mut windows: Vec<(usize, usize)> = Vec::new();
    let (tr, _) = traced_passes(
        TRACED,
        7,
        |tr| {
            probes = 0;
            windows.clear();
            for (i, &q) in qs.iter().enumerate() {
                let req = i as u32;
                let root = tr.open("contains", req, ROOT);
                let r = tr.open("router.route", req, root);
                let s = snap.router().route_owner(q);
                tr.close(r);
                let ds = &snap.shard_snapshots()[s];
                let b = tr.open("tier.buffer_probe", req, root);
                let mut hit = ds.delta_keys().binary_search(&q).is_ok();
                tr.close(b);
                probes += 1;
                if !hit {
                    let r = tr.open("tier.run_probe", req, root);
                    for run in ds.runs().iter().rev() {
                        probes += 1;
                        if run.contains(q) {
                            hit = true;
                            break;
                        }
                    }
                    tr.close(r);
                }
                if !hit {
                    let b = tr.open("tier.base_probe", req, root);
                    let base = ds.base_index();
                    let lb = tr.open("shard.lower_bound", req, b);
                    let p = tr.open("shard.predict", req, lb);
                    let pred = base.predict(q);
                    tr.close(p);
                    let local = last_mile(base, q, pred);
                    tr.close(lb);
                    hit = base.data().get(local) == Some(&q);
                    tr.close(b);
                    probes += 1;
                    windows.push((pred.hi - pred.lo, pred.pos.abs_diff(local)));
                }
                tr.close(root);
                hits[i] = hit;
            }
        },
        || {
            for (h, &q) in plain.iter_mut().zip(qs) {
                *h = snap.contains(black_box(q));
            }
        },
        m,
    );
    for (&h, &q) in hits.iter().zip(qs) {
        tally.check(h, || format!("traced contains({q}) missed"));
    }
    for (&h, &q) in plain.iter().zip(qs) {
        tally.check(h, || format!("contains({q}) missed in the traced run"));
    }
    let totals = tr.totals();
    let mean = |name: &str| totals.get(name).map_or(0.0, |t| t.mean_ns());
    let self_ns = |name: &str| totals.get(name).map_or(0.0, |t| t.mean_self_ns());
    m.set(
        "tier.buffer_probe_ns",
        mean("tier.buffer_probe"),
        "per probe",
    );
    m.set(
        "tier.run_probe_ns",
        mean("tier.run_probe"),
        "per probe of the run stack",
    );
    m.set("tier.base_probe_ns", mean("tier.base_probe"), "per probe");
    m.set(
        "tier.probes_per_hit",
        probes as f64 / TRACED as f64,
        "tiers probed per found key",
    );
    m.set(
        "router.route_ns",
        self_ns("router.route"),
        "self time, route_owner",
    );
    m.set(
        "shard.predict_ns",
        self_ns("shard.predict"),
        "self time, base model",
    );
    m.set(
        "shard.search_ns",
        self_ns("shard.lower_bound"),
        "self time, base last-mile search",
    );
    m.set("lookup.traced_ns", mean("contains"), "mean contains span");
    m.set(
        "lookup.layers_ns",
        mean("contains") - self_ns("contains"),
        "route + tier probes per contains",
    );
    let n = windows.len().max(1) as f64;
    m.set(
        "shard.log2_window",
        windows
            .iter()
            .map(|&(w, _)| ((w + 1) as f64).log2())
            .sum::<f64>()
            / n,
        "base probes",
    );
    m.set(
        "shard.log2_err",
        windows
            .iter()
            .map(|&(_, e)| ((e + 1) as f64).log2())
            .sum::<f64>()
            / n,
        "base probes",
    );
    write_spans(&tr, "durable-mix");

    let per_shard = slowest_shard(
        qs,
        snap.shard_count(),
        |q| snap.router().route_owner(q),
        |s, q| snap.shard_snapshots()[s].contains(black_box(q)) as usize,
        m,
        "mean ns/contains of the slowest shard",
    );
    for (bucket, found) in &per_shard {
        let hits = found.iter().sum::<usize>() as u64;
        tally.count("shard contains hits", hits, bucket.len() as u64);
    }
    btree_control(&w.base, qs, m, tally, "B-Tree(page=128) over the base keys");
}
