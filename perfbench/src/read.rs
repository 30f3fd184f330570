//! The read-only workloads, `read-uniform` and `adversarial-auto`: a
//! `ShardedIndex` built once per setup and queried by one client with
//! scalar and batched `lower_bound`s.

use std::hint::black_box;
use std::io::Write;
use std::path::Path;
use std::time::{Duration, Instant};

use li_btree::BTreeIndex;
use li_core::rmi::Rmi;
use li_core::search::search_with_widening;
use li_index::partition::{boundaries, even_offsets};
use li_index::{KeyStore, Prediction, RangeIndex};
use li_serve::{AutoShardBuilder, ShardBuilder, ShardRouter, ShardedIndex};

use crate::oracle::Tally;
use crate::report::Metrics;
use crate::stats::{describe, median, quantile, supports};
use crate::trace::{ticks, Clock, Tracer, ROOT};

pub const SHARDS: usize = 8;
/// Builds per run; `setup_s` and `setup_vs_reference` are medians over
/// them.
const SETUP_REPS: usize = 9;
/// Lookups timed one by one per round, for the latency percentiles.
const TIMED_BLOCK: usize = 50_000;
/// Lookups per round in the untimed scalar and batched throughput loops.
const RATE_BLOCK: usize = 250_000;
/// Queries per `lower_bound_batch` call.
const BATCH_CHUNK: usize = 1024;
/// Lookups in the traced pass.
const TRACED: usize = 50_000;
/// Traced/untraced pass pairs; the overhead is the ratio of medians.
const TRACE_REPS: usize = 5;

/// Query array length: a whole number of rounds' blocks.
pub const QUERIES: usize = 4 * RATE_BLOCK;

pub struct ReadWorkload {
    pub name: &'static str,
    pub keys: Vec<u64>,
    pub queries: Vec<u64>,
    pub builder: Box<dyn ShardBuilder>,
    /// Whether the builder runs per-shard backend selection.
    pub selects: bool,
}

pub fn run(w: &ReadWorkload, seconds: u64, trace: bool, m: &mut Metrics, tally: &mut Tally) {
    assert_eq!(w.queries.len() % RATE_BLOCK, 0);
    let n = w.keys.len();

    let (mut setups, mut setup_rel) = (Vec::new(), Vec::new());
    let mut built = None;
    for _ in 0..SETUP_REPS {
        drop(built.take());
        let data = w.keys.clone();
        let t = Instant::now();
        let idx = ShardedIndex::build(data, SHARDS, w.builder.as_ref());
        let setup_s = t.elapsed().as_secs_f64();
        setups.push(setup_s);
        setup_rel.push(setup_s / setup_reference(&w.keys, None));
        built = Some(idx);
    }
    let idx = built.expect("at least one build");
    let note = format!("median of {SETUP_REPS} builds of {n} keys into {SHARDS} shards");
    m.set("setup_s", median(&setups), &note);
    m.set("setup_vs_reference", median(&setup_rel), &note);
    m.set(
        "index_bytes_per_key",
        idx.size_bytes() as f64 / n as f64,
        &format!("{} B of models, nodes and router", idx.size_bytes()),
    );

    // Warm the caches and branch predictors before timing.
    let mut answers = vec![0usize; RATE_BLOCK];
    for (a, &q) in answers.iter_mut().zip(&w.queries[..RATE_BLOCK]) {
        *a = idx.lower_bound(q);
    }

    // Per round: the p50 and p99 of the program's one-by-one timed
    // lookups and the rate of an untimed loop, each beside the same
    // measure of the reference binary search over the same queries, and
    // the batched rate. Each metric is the median over rounds, so a
    // burst of interference from other tenants of the host moves a few
    // rounds, not the result; the ratios to the reference also cancel
    // the slower drift of the host's speed.
    let clock = Clock::start();
    let mut latencies = vec![0u64; TIMED_BLOCK];
    let mut p = Rounds::default();
    let (mut batch, mut ops_rel) = (Vec::new(), Vec::new());
    let deadline = Instant::now() + Duration::from_secs(seconds);
    let mut at = 0usize;
    while Instant::now() < deadline || batch.len() < 3 {
        let qs = &w.queries[at..at + RATE_BLOCK];
        at = (at + RATE_BLOCK) % w.queries.len();
        let timed = &qs[..TIMED_BLOCK];

        for ((a, l), &q) in answers.iter_mut().zip(&mut latencies).zip(timed) {
            let t = ticks();
            *a = idx.lower_bound(black_box(q));
            *l = ticks() - t;
        }
        tally.lower_bounds("lookup", &w.keys, timed, &answers[..TIMED_BLOCK]);
        let program = percentiles(&mut latencies);
        for (l, &q) in latencies.iter_mut().zip(timed) {
            let t = ticks();
            black_box(bsearch(&w.keys, black_box(q)));
            *l = ticks() - t;
        }
        let reference = percentiles(&mut latencies);

        let t = Instant::now();
        for (a, &q) in answers.iter_mut().zip(qs) {
            *a = idx.lower_bound(black_box(q));
        }
        let program_s = t.elapsed().as_secs_f64();
        let t = Instant::now();
        for &q in qs {
            black_box(bsearch(&w.keys, black_box(q)));
        }
        let reference_s = t.elapsed().as_secs_f64();
        tally.lower_bounds("lookup", &w.keys, qs, &answers);
        p.push(program, reference, program_s, reference_s, qs.len());

        let t = Instant::now();
        for (qc, ac) in qs.chunks(BATCH_CHUNK).zip(answers.chunks_mut(BATCH_CHUNK)) {
            idx.lower_bound_batch(black_box(qc), ac);
        }
        let batch_s = t.elapsed().as_secs_f64();
        batch.push(qs.len() as f64 / batch_s / 1e6);
        ops_rel.push((program_s + batch_s) / (2.0 * reference_s));
        tally.lower_bounds("batch lookup", &w.keys, qs, &answers);
    }

    assert!(
        supports(TIMED_BLOCK, 0.99),
        "too few latency samples per round"
    );
    let rounds = batch.len();
    p.report(
        m,
        clock.ns_per_tick(),
        &format!("median of {rounds} rounds, each {}", describe(TIMED_BLOCK)),
        &format!("median of {rounds} rounds of {RATE_BLOCK}"),
    );
    m.set(
        "batch_lookup_mops",
        median(&batch),
        &format!("median of {rounds} rounds of {RATE_BLOCK}, {BATCH_CHUNK} per call"),
    );
    m.set(
        "ops_time_vs_bsearch",
        median(&ops_rel),
        &format!("scalar + batched loops over twice the reference loop: median of {rounds} rounds"),
    );

    if trace {
        traced(w, &idx, m, tally);
    }
}

/// The reference the lookup ratios divide by: a plain binary search of
/// the sorted key array, which no change to the program can move. Timed
/// beside the program's lookups, it tracks how fast the host runs at the
/// moment.
#[inline]
pub fn bsearch(keys: &[u64], q: u64) -> usize {
    keys.partition_point(|&k| k < q)
}

/// The reference `setup_vs_reference` divides by, in seconds: a
/// least-squares line through (key, position) over the whole key array,
/// one streaming pass of the kind model training makes, and, given a
/// file, the raw keys written to it and synced, as a durable set-up
/// saves its snapshot. Compiled into the benchmark, so no change to the
/// program can move it; timed beside each set-up, it tracks how fast the
/// host runs at the moment.
pub fn setup_reference(keys: &[u64], file: Option<&Path>) -> f64 {
    let t = Instant::now();
    let (mut sx, mut sy, mut sxx, mut sxy) = (0.0f64, 0.0f64, 0.0f64, 0.0f64);
    for (i, &k) in keys.iter().enumerate() {
        let (x, y) = (k as f64, i as f64);
        sx += x;
        sy += y;
        sxx += x * x;
        sxy += x * y;
    }
    black_box((sx, sy, sxx, sxy));
    if let Some(path) = file {
        let bytes: Vec<u8> = keys.iter().flat_map(|k| k.to_le_bytes()).collect();
        let mut f = std::fs::File::create(path).expect("create the reference file");
        f.write_all(&bytes).expect("write the reference file");
        f.sync_all().expect("sync the reference file");
    }
    t.elapsed().as_secs_f64()
}

/// p50 and p99 of `ticks`, which it sorts.
pub fn percentiles(ticks: &mut [u64]) -> [f64; 2] {
    ticks.sort_unstable();
    [quantile(ticks, 0.5) as f64, quantile(ticks, 0.99) as f64]
}

/// Per-round lookup measures of the program and of the reference.
#[derive(Default)]
pub struct Rounds {
    /// Program p50 and p99, in ticks.
    p50: Vec<f64>,
    p99: Vec<f64>,
    /// Program over reference: p50, p99, and time of the untimed loop.
    p50_rel: Vec<f64>,
    p99_rel: Vec<f64>,
    time_rel: Vec<f64>,
    mops: Vec<f64>,
    /// Reference nanoseconds per lookup in the untimed loop.
    reference_ns: Vec<f64>,
}

impl Rounds {
    /// Record one round: per-lookup percentiles (ticks) of program and
    /// reference, and the seconds each took for the same `n` lookups.
    pub fn push(
        &mut self,
        program: [f64; 2],
        reference: [f64; 2],
        program_s: f64,
        reference_s: f64,
        n: usize,
    ) {
        self.p50.push(program[0]);
        self.p99.push(program[1]);
        self.p50_rel.push(program[0] / reference[0]);
        self.p99_rel.push(program[1] / reference[1]);
        self.time_rel.push(program_s / reference_s);
        self.mops.push(n as f64 / program_s / 1e6);
        self.reference_ns.push(reference_s * 1e9 / n as f64);
    }

    /// Set the lookup metrics to the medians over rounds.
    pub fn report(&self, m: &mut Metrics, ns_per_tick: f64, latency: &str, rate: &str) {
        m.set("lookup_p50_vs_bsearch", median(&self.p50_rel), latency);
        m.set("lookup_p99_vs_bsearch", median(&self.p99_rel), latency);
        m.set("lookup_time_vs_bsearch", median(&self.time_rel), rate);
        m.set("lookup_p50_ns", median(&self.p50) * ns_per_tick, latency);
        m.set("lookup_p99_ns", median(&self.p99) * ns_per_tick, latency);
        m.set("lookup_mops", median(&self.mops), rate);
        m.set("binsearch.lookup_ns", median(&self.reference_ns), rate);
    }
}

/// Last-mile search inside a shard, given its prediction: the search an
/// RMI runs after its model (with its own strategy), or a plain binary
/// search of the predicted window for the tree backends, whose window
/// always holds the answer.
pub fn last_mile(shard: &dyn RangeIndex, q: u64, p: Prediction) -> usize {
    let data = shard.data();
    match shard.as_any().and_then(|a| a.downcast_ref::<Rmi>()) {
        Some(rmi) => search_with_widening(data, q, rmi.search_strategy(), p.pos, 0, p.lo, p.hi),
        None => li_btree::search::lower_bound(data, q, p.lo, p.hi),
    }
}

/// The traced run: setup and lookups split into spans per layer, plus
/// per-shard and B-Tree control timings.
fn traced(w: &ReadWorkload, idx: &ShardedIndex, m: &mut Metrics, tally: &mut Tally) {
    let n = w.keys.len();
    // Setup, layer by layer: the same partition, builds and router fit
    // `ShardedIndex::build` runs, called one at a time.
    let store = KeyStore::new(w.keys.clone());
    let offsets = even_offsets(n, SHARDS);
    let mut st = Tracer::with_capacity(64);
    let root = st.open("setup", 0, ROOT);
    let selector = AutoShardBuilder::new();
    for win in offsets.windows(2) {
        if w.selects {
            let s = st.open("select.decide", 0, root);
            black_box(selector.decide(&store.slice(win[0]..win[1])));
            st.close(s);
        }
        let s = st.open("build.train", 0, root);
        let shard = w.builder.build(store.slice(win[0]..win[1]));
        st.close(s);
        drop(shard);
    }
    let s = st.open("router.fit", 0, root);
    black_box(ShardRouter::fit(boundaries(&store, &offsets)));
    st.close(s);
    st.close(root);
    write_spans(&st, &format!("{}-setup", w.name));
    let setup = st.totals();
    let secs = |name: &str| setup.get(name).map_or(0.0, |t| t.total_ns as f64 / 1e9);
    m.set("build.train_s", secs("build.train"), "sum over shards");
    m.set("router.fit_s", secs("router.fit"), "");
    m.set("select.decide_s", secs("select.decide"), "sum over shards");

    let mut families = [0usize; 4];
    for s in 0..idx.shard_count() {
        let name = idx.shard(s).name();
        let family = ["rmi", "btree", "fast", "interp"]
            .iter()
            .position(|f| name.starts_with(f))
            .unwrap_or_else(|| panic!("unknown backend {name}"));
        families[family] += 1;
    }
    m.set("select.rmi_shards", families[0] as f64, "");
    m.set("select.btree_shards", families[1] as f64, "");
    m.set("select.fast_shards", families[2] as f64, "");
    m.set("select.interp_shards", families[3] as f64, "");

    // Lookups: traced and untraced passes over the same queries.
    let qs = &w.queries[..TRACED];
    let mut answers = vec![0usize; TRACED];
    let mut plain = vec![0usize; TRACED];
    let mut windows = vec![(0usize, 0usize, 0usize); TRACED];
    let (tr, added_ns) = traced_passes(
        TRACED,
        4,
        |tr| {
            for (i, &q) in qs.iter().enumerate() {
                let req = i as u32;
                let root = tr.open("lookup", req, ROOT);
                let r = tr.open("router.route", req, root);
                let s = idx.router().route(q);
                tr.close(r);
                let lb = tr.open("shard.lower_bound", req, root);
                let shard = idx.shard(s);
                let p = tr.open("shard.predict", req, lb);
                let pred = shard.predict(q);
                tr.close(p);
                let local = last_mile(shard, q, pred);
                tr.close(lb);
                tr.close(root);
                answers[i] = idx.shard_offset(s) + local;
                windows[i] = (pred.lo, pred.hi, pred.pos.abs_diff(local));
            }
        },
        || {
            for (a, &q) in plain.iter_mut().zip(qs) {
                *a = idx.lower_bound(black_box(q));
            }
        },
        m,
    );
    tally.lower_bounds("traced lookup", &w.keys, qs, &answers);
    tally.lower_bounds("lookup", &w.keys, qs, &plain);
    let totals = tr.totals();
    let self_ns = |name: &str| totals.get(name).map_or(0.0, |t| t.mean_self_ns());
    let (route, predict, search) = (
        self_ns("router.route"),
        self_ns("shard.predict"),
        self_ns("shard.lower_bound"),
    );
    let note = format!("self time, {TRACED} traced lookups");
    m.set("router.route_ns", route, &note);
    m.set("shard.predict_ns", predict, &note);
    m.set(
        "shard.search_ns",
        search,
        &format!("{note}: shard.lower_bound minus predict"),
    );
    m.set(
        "lookup.traced_ns",
        totals["lookup"].mean_ns(),
        "mean lookup span",
    );
    m.set(
        "lookup.layers_ns",
        route + predict + search,
        "route + predict + search self times",
    );
    let unaccounted = totals["lookup"].mean_ns() - (route + predict + search);
    println!(
        "  layers: route + predict + search leave {unaccounted:.1} ns of the lookup span \
         outside them, {} the {added_ns:.1} ns tracing adds per lookup",
        if unaccounted <= added_ns {
            "within"
        } else {
            "MORE than"
        },
    );
    let log2_mean = |f: &dyn Fn(&(usize, usize, usize)) -> usize| {
        windows
            .iter()
            .map(|x| ((f(x) + 1) as f64).log2())
            .sum::<f64>()
            / TRACED as f64
    };
    m.set(
        "shard.log2_window",
        log2_mean(&|&(lo, hi, _)| hi - lo),
        "mean log2(hi - lo + 1)",
    );
    m.set(
        "shard.log2_err",
        log2_mean(&|&(_, _, err)| err),
        "mean log2(|predicted - true| + 1)",
    );
    write_spans(&tr, w.name);

    let per_shard = slowest_shard(
        qs,
        idx.shard_count(),
        |q| idx.router().route(q),
        |s, q| idx.shard_offset(s) + idx.shard(s).lower_bound(black_box(q)),
        m,
        "mean ns/lookup of the slowest shard",
    );
    for (bucket, global) in &per_shard {
        tally.lower_bounds("shard lookup", &w.keys, bucket, global);
    }
    btree_control(&w.keys, qs, m, tally, "B-Tree(page=128) control");
}

/// Alternate `TRACE_REPS` traced and untraced passes over the same `n`
/// requests and set `trace.overhead_frac` from the median time of each.
/// Returns the spans of the last traced pass and the nanoseconds the
/// tracing adds per request.
pub fn traced_passes(
    n: usize,
    spans_per_request: usize,
    mut traced: impl FnMut(&mut Tracer),
    mut untraced: impl FnMut(),
    m: &mut Metrics,
) -> (Tracer, f64) {
    let (mut traced_ns, mut untraced_ns) = (Vec::new(), Vec::new());
    let mut tr = Tracer::with_capacity(0);
    for _ in 0..TRACE_REPS {
        tr = Tracer::with_capacity(n * spans_per_request);
        let t = Instant::now();
        traced(&mut tr);
        traced_ns.push(t.elapsed().as_nanos() as f64 / n as f64);
        let t = Instant::now();
        untraced();
        untraced_ns.push(t.elapsed().as_nanos() as f64 / n as f64);
    }
    let (traced, untraced) = (median(&traced_ns), median(&untraced_ns));
    m.set(
        "trace.overhead_frac",
        traced / untraced - 1.0,
        &format!("traced vs untraced loop, median of {TRACE_REPS} pairs"),
    );
    (tr, traced - untraced)
}

/// Time each shard alone on the queries `route` sends it, with `lookup`
/// (shard, query), and set `shard.lookup_ns_max` to the slowest shard's
/// mean per query: the slowest shard sets the tail. Returns each
/// non-empty shard's queries and answers, for checking.
pub fn slowest_shard(
    qs: &[u64],
    shards: usize,
    route: impl Fn(u64) -> usize,
    lookup: impl Fn(usize, u64) -> usize,
    m: &mut Metrics,
    note: &str,
) -> Vec<(Vec<u64>, Vec<usize>)> {
    let mut buckets: Vec<Vec<u64>> = vec![Vec::new(); shards];
    for &q in qs {
        buckets[route(q)].push(q);
    }
    let mut slowest = 0.0f64;
    let mut out = Vec::new();
    for (s, bucket) in buckets.into_iter().enumerate() {
        if bucket.is_empty() {
            continue;
        }
        let mut answers = vec![0usize; bucket.len()];
        let t = Instant::now();
        for (a, &q) in answers.iter_mut().zip(&bucket) {
            *a = lookup(s, q);
        }
        slowest = slowest.max(t.elapsed().as_nanos() as f64 / bucket.len() as f64);
        out.push((bucket, answers));
    }
    m.set("shard.lookup_ns_max", slowest, note);
    out
}

/// Control: a B-Tree(page=128) over `keys`, timed on the same queries
/// (`btree.lookup_ns`), its answers checked. No change to the program
/// should move it.
pub fn btree_control(keys: &[u64], qs: &[u64], m: &mut Metrics, tally: &mut Tally, note: &str) {
    let btree = BTreeIndex::new(keys.to_vec(), 128);
    let mut answers = vec![0usize; qs.len()];
    let t = Instant::now();
    for (a, &q) in answers.iter_mut().zip(qs) {
        *a = btree.lower_bound(black_box(q));
    }
    m.set(
        "btree.lookup_ns",
        t.elapsed().as_nanos() as f64 / qs.len() as f64,
        note,
    );
    tally.lower_bounds("btree lookup", keys, qs, &answers);
}

/// Write the kept spans under the benchmark's `out/` directory.
pub fn write_spans(tr: &Tracer, workload: &str) {
    let path = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("out")
        .join(format!("trace-{workload}.tsv"));
    match tr.write_tsv(&path) {
        Ok(()) => println!(
            "  spans: {} written to {}",
            tr.spans().len(),
            path.display()
        ),
        Err(e) => panic!("writing spans to {}: {e}", path.display()),
    }
}
