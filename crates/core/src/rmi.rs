//! The Recursive Model Index (§3.2) with hybrid training (Algorithm 1).
//!
//! An RMI is "a hierarchy of models, where at each stage the model takes
//! the key as an input and based on it picks another model, until the
//! final stage predicts the position". Stage 0 is one model (linear,
//! multivariate, or a small ReLU net); inner stages and leaves are simple
//! linear models — §3.7.1 found "for the second stage, simple, linear
//! models, had the best performance".
//!
//! Training is stage-wise, exactly Algorithm 1 of the paper:
//!
//! 1. train the stage-0 model on all `(key, position)` pairs;
//! 2. route every key through the *trained* prefix of stages —
//!    `model = ⌊M · f(x) / N⌋` — collecting per-model training subsets;
//! 3. train each next-stage model on its subset;
//! 4. at the last stage, record each model's min-, max- and standard
//!    error over its keys, and (hybrid mode) replace any model whose
//!    absolute error exceeds `threshold` with a B-Tree over its range.
//!
//! Lookups run the model cascade (no search between stages — "the output
//! of Model 1.1 is directly used to pick the model in the next stage"),
//! then do a §3.4 last-mile search inside `[pos + min_err, pos +
//! max_err]`, with automatic window widening so non-monotonic models are
//! still exact for every query.

use crate::search::{search_with_widening, SearchStrategy};
use li_btree::BTreeIndex;
use li_index::{KeyStore, Prediction, RangeIndex};
use li_models::{FeatureMap, LinearModel, Mlp, MlpConfig, Model, MultivariateLinear};
use std::cell::Cell;

/// Stage-0 model family (§3.3's model zoo).
#[derive(Debug, Clone, PartialEq)]
pub enum TopModel {
    /// Simple linear regression (a 0-hidden-layer NN).
    Linear,
    /// Multivariate linear regression over engineered features
    /// (key, log key, key², √key) — the Figure-5 configuration.
    Multivariate(FeatureMap),
    /// Multivariate linear regression with automatic feature selection.
    MultivariateAuto,
    /// Fully-connected ReLU net with `hidden` hidden layers of `width`
    /// neurons (§3.3: 0–2 layers, width ≤ 32).
    Mlp {
        /// Hidden layer count (1 or 2; use `Linear` for 0).
        hidden: usize,
        /// Neurons per hidden layer.
        width: usize,
    },
}

impl TopModel {
    fn fit(&self, keys: &[f64]) -> TrainedTop {
        match *self {
            TopModel::Linear => TrainedTop::Linear(LinearModel::fit_keys(keys)),
            TopModel::Multivariate(fm) => {
                TrainedTop::Multivariate(Box::new(MultivariateLinear::fit_keys(fm, keys)))
            }
            TopModel::MultivariateAuto => {
                let ys: Vec<f64> = (0..keys.len()).map(|i| i as f64).collect();
                TrainedTop::Multivariate(Box::new(MultivariateLinear::fit_select(keys, &ys)))
            }
            TopModel::Mlp { hidden, width } => {
                let cfg = MlpConfig::new(hidden, width);
                TrainedTop::Mlp(Box::new(Mlp::fit_keys(&cfg, keys)))
            }
        }
    }

    /// Short display name, e.g. `"mlp(2x16)"`.
    pub fn name(&self) -> String {
        match self {
            TopModel::Linear => "linear".into(),
            TopModel::Multivariate(_) => "multivariate".into(),
            TopModel::MultivariateAuto => "multivariate-auto".into(),
            TopModel::Mlp { hidden, width } => format!("mlp({hidden}x{width})"),
        }
    }
}

/// A trained stage-0 model.
#[derive(Debug, Clone)]
enum TrainedTop {
    Linear(LinearModel),
    Multivariate(Box<MultivariateLinear>),
    Mlp(Box<Mlp>),
}

impl TrainedTop {
    fn size_bytes(&self) -> usize {
        // Deployment accounting: f32 weights, as LIF code-generation
        // would emit (§3.1). Stored training form is f64.
        (match self {
            TrainedTop::Linear(m) => m.size_bytes(),
            TrainedTop::Multivariate(m) => m.size_bytes(),
            TrainedTop::Mlp(m) => m.size_bytes(),
        }) / 2
    }

    fn op_count(&self) -> usize {
        match self {
            TrainedTop::Linear(m) => m.op_count(),
            TrainedTop::Multivariate(m) => m.op_count(),
            TrainedTop::Mlp(m) => m.op_count(),
        }
    }
}

/// Configuration of an [`Rmi`].
#[derive(Debug, Clone)]
pub struct RmiConfig {
    /// Stage-0 model.
    pub top: TopModel,
    /// Models per stage after stage 0. The last entry is the leaf count
    /// (the paper's "second stage size": 10k–200k); earlier entries are
    /// optional intermediate linear stages.
    pub stages: Vec<usize>,
    /// Last-mile search strategy (§3.4).
    pub search: SearchStrategy,
    /// Hybrid threshold (Algorithm 1 line 13): replace a leaf with a
    /// B-Tree when its max absolute error exceeds this. `None` disables
    /// hybrid mode.
    pub hybrid_threshold: Option<u32>,
    /// Page size for hybrid B-Tree leaves.
    pub hybrid_page_size: usize,
}

impl Default for RmiConfig {
    fn default() -> Self {
        Self {
            top: TopModel::Linear,
            stages: vec![1024],
            search: SearchStrategy::ModelBiasedBinary,
            hybrid_threshold: None,
            hybrid_page_size: 128,
        }
    }
}

impl RmiConfig {
    /// Two-stage RMI with `leaves` linear leaf models — the paper's
    /// work-horse configuration.
    pub fn two_stage(top: TopModel, leaves: usize) -> Self {
        Self {
            top,
            stages: vec![leaves],
            ..Self::default()
        }
    }

    /// Set the search strategy.
    pub fn with_search(mut self, s: SearchStrategy) -> Self {
        self.search = s;
        self
    }

    /// Enable hybrid B-Tree fallback at the given error threshold.
    pub fn with_hybrid(mut self, threshold: u32) -> Self {
        self.hybrid_threshold = Some(threshold);
        self
    }
}

/// Summary statistics of a trained RMI.
#[derive(Debug, Clone)]
pub struct RmiStats {
    /// Keys the index was trained over.
    pub keys: usize,
    /// Leaf-model count (the "2nd stage size").
    pub leaves: usize,
    /// Leaves replaced by B-Trees (hybrid mode).
    pub btree_leaves: usize,
    /// Mean absolute prediction error over all keys.
    pub mean_abs_err: f64,
    /// Largest absolute prediction error over all keys.
    pub max_abs_err: u64,
    /// Index size in bytes (deployment accounting; excludes data).
    pub size_bytes: usize,
    /// Arithmetic ops for one stage-0 + leaf prediction.
    pub op_count: usize,
}

/// The serializable parameters of one trained leaf (see [`RmiParams`]).
#[derive(Debug, Clone, PartialEq)]
pub struct LeafParams {
    /// The leaf model.
    pub model: LeafModelParams,
    /// Worst under-prediction recorded at training time.
    pub min_err: i64,
    /// Worst over-prediction recorded at training time.
    pub max_err: i64,
    /// Standard deviation of the prediction error.
    pub std_err: f64,
    /// Keys routed to this leaf at training time.
    pub n_keys: u64,
}

/// The serializable model of one leaf (see [`RmiParams`]).
#[derive(Debug, Clone, PartialEq)]
pub enum LeafModelParams {
    /// A linear leaf: `position ≈ slope · key + intercept`.
    Linear {
        /// Fitted slope.
        slope: f64,
        /// Fitted intercept.
        intercept: f64,
    },
    /// A hybrid B-Tree leaf over `data[offset .. offset + len]`. The
    /// tree itself is *structure*, not learned parameters — it is
    /// rebuilt from the mapped key slice on load (no training).
    BTree {
        /// Global position of the first covered key.
        offset: u64,
        /// Number of covered keys.
        len: u64,
        /// Page size the tree was built with.
        page_size: u64,
    },
}

/// Everything a trained [`Rmi`] knows beyond the key array itself: the
/// fitted coefficients of every stage plus per-leaf error envelopes.
/// This is what the persistence layer writes into a snapshot manifest —
/// warm restart is "map the key file, deserialize these, rebuild
/// structure" with **no retraining** ([`Rmi::from_params`] never fits a
/// model; [`train_count`] witnesses that).
///
/// Format v1 covers linear-top RMIs (the workspace's serving default);
/// [`Rmi::to_params`] returns `None` for multivariate/MLP tops, which
/// save paths surface as an unsupported-backend error.
#[derive(Debug, Clone, PartialEq)]
pub struct RmiParams {
    /// Stage-0 linear model as `(slope, intercept)`.
    pub top: (f64, f64),
    /// Intermediate linear stages as `(slope, intercept)` lists.
    pub mids: Vec<Vec<(f64, f64)>>,
    /// Per-leaf parameters.
    pub leaves: Vec<LeafParams>,
    /// Last-mile search strategy.
    pub search: SearchStrategy,
}

/// Deployment bytes accounted per linear leaf: two f32 parameters, the
/// error pair packed as two i16s, and an f32 σ — the compact form a LIF
/// code generator emits. (10k leaves ≈ 0.16MB, matching Figure 4's
/// "2nd stage models: 10k → 0.15MB" row.)
const LEAF_DEPLOY_BYTES: usize = 4 + 4 + 2 + 2 + 4;

thread_local! {
    /// This thread's count of RMI training runs (see [`train_count`]).
    static TRAIN_EVENTS: Cell<u64> = const { Cell::new(0) };
}

/// The number of RMI training runs ([`Rmi::build`] calls) the *calling
/// thread* has executed so far. [`Rmi::from_params`] does not bump it —
/// that is the warm-restart guarantee the persistence suite asserts:
/// take the count, load or recover, take it again, assert equal.
///
/// The count is per thread, so training on other threads (concurrent
/// tests, background compaction workers) never moves it between the two
/// reads. Snapshot loads and WAL replay run on the caller's thread, so a
/// model fitted by either would still show up in the caller's count.
pub fn train_count() -> u64 {
    TRAIN_EVENTS.with(Cell::get)
}

/// One routing model with its coefficients pre-multiplied by `m / n`,
/// so that Algorithm 1's `⌊m · f(x) / n⌋` is a single multiply-add and
/// a saturating clamp into `[0, m)`.
#[derive(Debug, Clone, Copy)]
struct Hop {
    slope: f64,
    intercept: f64,
}

impl Hop {
    /// `position ≈ slope · y + intercept` over `n` keys, rescaled to
    /// pick one of `m` next-stage models.
    fn scaled(slope: f64, intercept: f64, m: usize, n: usize) -> Self {
        let scale = if n == 0 { 0.0 } else { m as f64 / n as f64 };
        Self {
            slope: slope * scale,
            intercept: intercept * scale,
        }
    }

    /// The picked model index, at most `last`. The float-to-int cast
    /// saturates, so negative and NaN predictions pick model 0.
    #[inline]
    fn pick(self, y: f64, last: usize) -> usize {
        ((self.slope * y + self.intercept) as usize).min(last)
    }
}

/// An inner stage of the cascade: its models and the largest index they
/// may pick in the stage after it.
#[derive(Debug, Clone)]
struct Stage {
    hops: Box<[Hop]>,
    last: usize,
}

/// [`Slot::tree`] of a linear leaf.
const LINEAR_LEAF: u32 = u32::MAX;

/// The hot state of one leaf: everything a lookup reads after routing,
/// in 32 bytes aligned to 32 so that a slot never straddles a cache line.
#[repr(C, align(32))]
#[derive(Debug, Clone, Copy)]
struct Slot {
    slope: f64,
    intercept: f64,
    /// The error envelope saturated to `i32`. A window the saturation
    /// leaves too narrow is repaired by the widening search.
    min_err: i32,
    max_err: i32,
    /// `⌈σ⌉`, at least 1: the biased-quaternary probe offset.
    sigma: u32,
    /// Index into [`LookupPlan::trees`] for a hybrid leaf, or
    /// [`LINEAR_LEAF`].
    tree: u32,
}

const _: () = assert!(std::mem::size_of::<Slot>() == 32);

/// The flat lookup plan: the routing cascade with pre-scaled
/// coefficients and one contiguous slot table of leaves. Every lookup
/// reads it, and training routes keys through the same
/// [`LookupPlan::leaf`], so a stored key always lands in the leaf whose
/// error envelope was measured over it.
#[derive(Debug, Clone)]
struct LookupPlan {
    /// The stage-0 model. Only a non-linear top is evaluated at lookup;
    /// a linear one is folded into `top_hop`.
    top: TrainedTop,
    /// Stage 0's pick: over the key itself for a linear top, over the
    /// top model's output otherwise.
    top_hop: Hop,
    top_last: usize,
    mids: Vec<Stage>,
    slots: Box<[Slot]>,
    /// Hybrid B-Tree leaves, each with the global position of its first
    /// key.
    trees: Vec<(usize, BTreeIndex)>,
}

impl LookupPlan {
    /// A cascade of just `top`, whose picks index a first stage of `m`
    /// models over `n` keys.
    fn new(top: TrainedTop, m: usize, n: usize) -> Self {
        let top_hop = match &top {
            TrainedTop::Linear(l) => Hop::scaled(l.slope(), l.intercept(), m, n),
            _ => Hop::scaled(1.0, 0.0, m, n),
        };
        Self {
            top,
            top_hop,
            top_last: m - 1,
            mids: Vec::new(),
            slots: Box::new([]),
            trees: Vec::new(),
        }
    }

    /// Append an inner stage of linear `(slope, intercept)` models whose
    /// picks index a next stage of `m` models.
    fn push_stage(&mut self, models: &[(f64, f64)], m: usize, n: usize) {
        self.mids.push(Stage {
            hops: models
                .iter()
                .map(|&(s, i)| Hop::scaled(s, i, m, n))
                .collect(),
            last: m - 1,
        });
    }

    /// Route `x` through the cascade (Algorithm 1 line 9 at every
    /// stage): the index of its model in the stage after the last one
    /// pushed, which is its leaf once the plan is complete.
    #[inline]
    fn leaf(&self, x: f64) -> usize {
        let y = match &self.top {
            TrainedTop::Linear(_) => x,
            TrainedTop::Multivariate(m) => m.predict(x),
            TrainedTop::Mlp(m) => m.predict(x),
        };
        let mut i = self.top_hop.pick(y, self.top_last);
        for stage in &self.mids {
            i = stage.hops[i].pick(x, stage.last);
        }
        i
    }

    /// The last-mile search plan `(pos, lo, hi, sigma)` for `key` over
    /// `n > 0` keys.
    #[inline]
    fn window(&self, key: u64, n: usize) -> (usize, usize, usize, usize) {
        let x = key as f64;
        let slot = &self.slots[self.leaf(x)];
        if slot.tree != LINEAR_LEAF {
            // The leaf B-Tree answers exactly for keys inside its range;
            // boundary results are certified globally by the widening
            // search (handles keys mis-routed to this leaf).
            let (offset, tree) = &self.trees[slot.tree as usize];
            let pos = (offset + tree.lower_bound(key)).min(n);
            return (pos, pos, pos, 1);
        }
        let pos = leaf_position(slot.slope, slot.intercept, x, n);
        let lo = pos.saturating_add_signed(slot.min_err as isize).min(n);
        let hi = (pos.saturating_add_signed(slot.max_err as isize) + 1).min(n);
        (pos, lo, hi, slot.sigma as usize)
    }
}

/// A linear leaf's position prediction for `x` over `n > 0` keys,
/// clamped into `[0, n)`; negative and NaN predictions give 0.
#[inline]
fn leaf_position(slope: f64, intercept: f64, x: f64, n: usize) -> usize {
    ((slope * x + intercept) as usize).min(n - 1)
}

/// `e` clamped into the `i32` range.
fn saturate(e: i64) -> i32 {
    e.clamp(i32::MIN.into(), i32::MAX.into()) as i32
}

/// The Recursive Model Index over a sorted `u64` array.
#[derive(Debug, Clone)]
pub struct Rmi {
    data: KeyStore,
    plan: LookupPlan,
    /// Unscaled inner-stage coefficients, for [`Rmi::to_params`].
    mids: Vec<Vec<(f64, f64)>>,
    /// The cold side of every leaf: model, exact errors, σ and key
    /// count, for statistics, [`Rmi::leaf_for`] and [`Rmi::to_params`].
    leaves: Vec<LeafParams>,
    search: SearchStrategy,
    stats_cache: RmiStats,
}

impl Rmi {
    /// Train an RMI over `data` (sorted ascending, unique) — Algorithm 1.
    /// Accepts anything convertible to a [`KeyStore`]; pass a `KeyStore`
    /// clone to train over an array shared with other indexes at zero
    /// copy.
    pub fn build(data: impl Into<KeyStore>, config: &RmiConfig) -> Self {
        TRAIN_EVENTS.with(|c| c.set(c.get() + 1));
        let data: KeyStore = data.into();
        let stages = &config.stages;
        assert!(!stages.is_empty(), "need at least one stage after stage 0");
        assert!(stages.iter().all(|&m| m > 0));
        debug_assert!(
            data.windows(2).all(|w| w[0] < w[1]),
            "data must be sorted unique"
        );

        let n = data.len();
        let keys_f64: Vec<f64> = data.iter().map(|&k| k as f64).collect();

        // Stage 0 (Algorithm 1 line 6, i = 1): train on everything.
        let mut plan = LookupPlan::new(config.top.fit(&keys_f64), stages[0], n);

        // Inner stages: route with the trained prefix, then fit linear
        // models per member (lines 4-10).
        let mut mids = Vec::new();
        for s in 0..stages.len() - 1 {
            let mut buckets: Vec<Vec<(f64, f64)>> = vec![Vec::new(); stages[s]];
            for (i, &x) in keys_f64.iter().enumerate() {
                buckets[plan.leaf(x)].push((x, i as f64));
            }
            let stage: Vec<(f64, f64)> = buckets
                .into_iter()
                .map(|b| {
                    let m = LinearModel::fit(b.into_iter());
                    (m.slope(), m.intercept())
                })
                .collect();
            plan.push_stage(&stage, stages[s + 1], n);
            mids.push(stage);
        }

        // Leaf stage: fit, then compute error envelopes (lines 11-12).
        let mut buckets: Vec<Vec<(f64, usize)>> = vec![Vec::new(); stages[stages.len() - 1]];
        for (i, &x) in keys_f64.iter().enumerate() {
            buckets[plan.leaf(x)].push((x, i));
        }
        // Empty leaves predict the boundary position of the nearest
        // preceding non-empty leaf, so predictions stay roughly monotone
        // across leaves and mis-routed queries widen minimally.
        let mut boundary = 0usize;
        let leaves = buckets
            .iter()
            .map(|bucket| {
                // Positions were pushed in ascending order.
                let (Some(&(_, first)), Some(&(_, last))) = (bucket.first(), bucket.last()) else {
                    return LeafParams {
                        model: LeafModelParams::Linear {
                            slope: 0.0,
                            intercept: boundary as f64,
                        },
                        min_err: 0,
                        max_err: 0,
                        std_err: 0.0,
                        n_keys: 0,
                    };
                };
                boundary = last + 1;
                let m = LinearModel::fit(bucket.iter().map(|&(x, y)| (x, y as f64)));
                let (slope, intercept) = (m.slope(), m.intercept());
                let mut min_err = i64::MAX;
                let mut max_err = i64::MIN;
                let mut sum_sq = 0.0f64;
                for &(x, y) in bucket {
                    let e = y as i64 - leaf_position(slope, intercept, x, n) as i64;
                    min_err = min_err.min(e);
                    max_err = max_err.max(e);
                    sum_sq += (e as f64) * (e as f64);
                }
                // Hybrid replacement (lines 13-14). The leaf B-Tree
                // indexes a zero-copy slice view of the shared key array.
                let abs_err = min_err.unsigned_abs().max(max_err.unsigned_abs());
                let model = match config.hybrid_threshold {
                    Some(t) if abs_err > t as u64 => LeafModelParams::BTree {
                        offset: first as u64,
                        len: (last + 1 - first) as u64,
                        page_size: config.hybrid_page_size as u64,
                    },
                    _ => LeafModelParams::Linear { slope, intercept },
                };
                LeafParams {
                    model,
                    min_err,
                    max_err,
                    std_err: (sum_sq / bucket.len() as f64).sqrt(),
                    n_keys: bucket.len() as u64,
                }
            })
            .collect();
        Self::assemble(data, plan, mids, leaves, config.search)
            .expect("hybrid_page_size must be at least 2")
    }

    /// Complete `plan` with the slot table of `leaves` (building hybrid
    /// B-Tree leaves over zero-copy slices of `data`) and wrap it up.
    /// `None` when a B-Tree leaf is out of bounds or has `page_size < 2`.
    fn assemble(
        data: KeyStore,
        mut plan: LookupPlan,
        mids: Vec<Vec<(f64, f64)>>,
        leaves: Vec<LeafParams>,
        search: SearchStrategy,
    ) -> Option<Self> {
        let n = data.len();
        let mut slots = Vec::with_capacity(leaves.len());
        for leaf in &leaves {
            let (slope, intercept, tree) = match leaf.model {
                LeafModelParams::Linear { slope, intercept } => (slope, intercept, LINEAR_LEAF),
                LeafModelParams::BTree {
                    offset,
                    len,
                    page_size,
                } => {
                    let offset = usize::try_from(offset).ok()?;
                    let len = usize::try_from(len).ok()?;
                    let page_size = usize::try_from(page_size).ok()?;
                    if page_size < 2 || offset.checked_add(len)? > n {
                        return None;
                    }
                    let tree = u32::try_from(plan.trees.len())
                        .ok()
                        .filter(|&t| t != LINEAR_LEAF)?;
                    let btree = BTreeIndex::new(data.slice(offset..offset + len), page_size);
                    plan.trees.push((offset, btree));
                    (0.0, 0.0, tree)
                }
            };
            slots.push(Slot {
                slope,
                intercept,
                min_err: saturate(leaf.min_err),
                max_err: saturate(leaf.max_err),
                sigma: (leaf.std_err.ceil() as u32).max(1),
                tree,
            });
        }
        plan.slots = slots.into();
        let stats_cache = compute_stats(n, &plan, &leaves);
        Some(Self {
            data,
            plan,
            mids,
            leaves,
            search,
            stats_cache,
        })
    }

    /// The parameters of the leaf a key routes to (for inspection and
    /// tests).
    pub fn leaf_for(&self, key: u64) -> &LeafParams {
        &self.leaves[self.plan.leaf(key as f64)]
    }

    /// Summary statistics.
    pub fn stats(&self) -> &RmiStats {
        &self.stats_cache
    }

    /// The configured search strategy.
    pub fn search_strategy(&self) -> SearchStrategy {
        self.search
    }

    /// Change the search strategy (no retraining required — §3.4's
    /// strategies all consume the same stored error envelope).
    pub fn set_search_strategy(&mut self, s: SearchStrategy) {
        self.search = s;
    }

    /// Extract the serializable parameters of this trained index (for
    /// the persistence layer). Returns `None` when the stage-0 model is
    /// not linear — format v1 does not encode multivariate/MLP tops.
    pub fn to_params(&self) -> Option<RmiParams> {
        let TrainedTop::Linear(top) = &self.plan.top else {
            return None;
        };
        Some(RmiParams {
            top: (top.slope(), top.intercept()),
            mids: self.mids.clone(),
            leaves: self.leaves.clone(),
            search: self.search,
        })
    }

    /// Reassemble a trained index from its serialized parameters and
    /// the key array it was trained over — the warm-restart path. No
    /// model is fitted (the caller's [`train_count`] does not move);
    /// hybrid B-Tree leaves are rebuilt *structurally* over zero-copy
    /// slices of `data`, exactly as training left them.
    ///
    /// Returns `None` when the parameters cannot describe a valid index
    /// over `data`: no leaves, an empty inner stage, a B-Tree leaf range
    /// out of bounds, or a `page_size < 2`.
    pub fn from_params(data: impl Into<KeyStore>, params: &RmiParams) -> Option<Self> {
        let data: KeyStore = data.into();
        let n = data.len();
        if params.leaves.is_empty() || params.mids.iter().any(Vec::is_empty) {
            return None;
        }
        // Model count of stage `s` after stage 0 (the leaves last).
        let size = |s: usize| params.mids.get(s).map_or(params.leaves.len(), Vec::len);
        let top = TrainedTop::Linear(LinearModel::new(params.top.0, params.top.1));
        let mut plan = LookupPlan::new(top, size(0), n);
        for (s, stage) in params.mids.iter().enumerate() {
            plan.push_stage(stage, size(s + 1), n);
        }
        Self::assemble(
            data,
            plan,
            params.mids.clone(),
            params.leaves.clone(),
            params.search,
        )
    }
}

/// Summary statistics of an index over `n` keys.
fn compute_stats(n: usize, plan: &LookupPlan, leaves: &[LeafParams]) -> RmiStats {
    let mut sum_abs = 0.0f64;
    let mut max_abs = 0u64;
    for leaf in leaves {
        let worst = leaf.min_err.unsigned_abs().max(leaf.max_err.unsigned_abs());
        max_abs = max_abs.max(worst);
        sum_abs += leaf.std_err * leaf.n_keys as f64;
    }
    let size_bytes = plan.top.size_bytes()
        + plan
            .mids
            .iter()
            .map(|s| s.hops.len() * (4 + 4))
            .sum::<usize>()
        + leaves.len() * LEAF_DEPLOY_BYTES
        + plan
            .trees
            .iter()
            .map(|(_, t)| t.size_bytes())
            .sum::<usize>();
    RmiStats {
        keys: n,
        leaves: leaves.len(),
        btree_leaves: plan.trees.len(),
        mean_abs_err: if n == 0 { 0.0 } else { sum_abs / n as f64 },
        max_abs_err: max_abs,
        size_bytes,
        op_count: plan.top.op_count() + 2 + plan.mids.len() * 4,
    }
}

impl RangeIndex for Rmi {
    fn key_store(&self) -> &KeyStore {
        &self.data
    }

    #[inline]
    fn predict(&self, key: u64) -> Prediction {
        let n = self.data.len();
        if n == 0 {
            return Prediction {
                pos: 0,
                lo: 0,
                hi: 0,
            };
        }
        let (pos, lo, hi, _) = self.plan.window(key, n);
        Prediction { pos, lo, hi }
    }

    #[inline]
    fn lower_bound(&self, key: u64) -> usize {
        let data: &[u64] = &self.data;
        if data.is_empty() {
            return 0;
        }
        let (pos, lo, hi, sigma) = self.plan.window(key, data.len());
        search_with_widening(data, key, self.search, pos, sigma, lo, hi)
    }

    /// Phase-split batched lookup: run the model cascade for *every*
    /// query first (pure arithmetic over the small model tables), then
    /// resolve every last-mile search against the data array. The
    /// loop fission keeps the data-array cache misses of different
    /// queries independent, so the hardware can overlap them instead of
    /// waiting out predict→search serially per query.
    fn lower_bound_batch(&self, queries: &[u64], out: &mut [usize]) {
        assert_eq!(
            queries.len(),
            out.len(),
            "lower_bound_batch: queries and out must have equal length"
        );
        let data: &[u64] = &self.data;
        if data.is_empty() {
            out.fill(0);
            return;
        }
        // Phase 1: model execution for all queries.
        let plans: Vec<(usize, usize, usize, usize)> = queries
            .iter()
            .map(|&q| self.plan.window(q, data.len()))
            .collect();
        // Phase 2: all last-mile searches.
        for ((o, &q), &(pos, lo, hi, sigma)) in out.iter_mut().zip(queries).zip(&plans) {
            *o = search_with_widening(data, q, self.search, pos, sigma, lo, hi);
        }
    }

    fn size_bytes(&self) -> usize {
        self.stats_cache.size_bytes
    }

    fn name(&self) -> String {
        let hybrid = if self.stats_cache.btree_leaves > 0 {
            format!(",hybrid={}", self.stats_cache.btree_leaves)
        } else {
            String::new()
        };
        format!(
            "rmi({},leaves={}{hybrid},{})",
            match &self.plan.top {
                TrainedTop::Linear(_) => "linear".to_string(),
                TrainedTop::Multivariate(_) => "multivariate".to_string(),
                TrainedTop::Mlp(m) => format!("mlp({}h)", m.hidden_layers()),
            },
            self.leaves.len(),
            self.search.name(),
        )
    }

    fn as_any(&self) -> Option<&dyn std::any::Any> {
        Some(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn oracle(data: &[u64], key: u64) -> usize {
        data.partition_point(|&k| k < key)
    }

    fn check_exact(data: Vec<u64>, cfg: &RmiConfig) {
        let rmi = Rmi::build(data.clone(), cfg);
        let mut queries: Vec<u64> = vec![0, 1, u64::MAX];
        for &k in data.iter().step_by(3) {
            queries.extend_from_slice(&[k.saturating_sub(1), k, k.saturating_add(1)]);
        }
        for q in queries {
            assert_eq!(rmi.lower_bound(q), oracle(&data, q), "{} q={q}", rmi.name());
        }
    }

    fn linear_data(n: u64) -> Vec<u64> {
        (0..n).map(|i| 1_000_000 + i).collect()
    }

    fn quadratic_data(n: u64) -> Vec<u64> {
        (0..n).map(|i| i * i + 7).collect()
    }

    #[test]
    fn exact_on_linear_data_all_strategies() {
        for s in SearchStrategy::ALL {
            check_exact(
                linear_data(2000),
                &RmiConfig::two_stage(TopModel::Linear, 64).with_search(s),
            );
        }
    }

    #[test]
    fn exact_on_quadratic_data() {
        check_exact(
            quadratic_data(3000),
            &RmiConfig::two_stage(TopModel::Linear, 128),
        );
    }

    #[test]
    fn exact_with_multivariate_top() {
        check_exact(
            quadratic_data(2000),
            &RmiConfig::two_stage(TopModel::Multivariate(FeatureMap::FULL), 64),
        );
    }

    #[test]
    fn exact_with_mlp_top() {
        check_exact(
            quadratic_data(1500),
            &RmiConfig::two_stage(
                TopModel::Mlp {
                    hidden: 1,
                    width: 8,
                },
                32,
            ),
        );
    }

    #[test]
    fn exact_with_three_stages() {
        let cfg = RmiConfig {
            top: TopModel::Linear,
            stages: vec![16, 256],
            ..Default::default()
        };
        check_exact(quadratic_data(2500), &cfg);
    }

    #[test]
    fn tiny_inputs() {
        check_exact(vec![], &RmiConfig::default());
        check_exact(vec![5], &RmiConfig::default());
        check_exact(vec![5, 9], &RmiConfig::two_stage(TopModel::Linear, 4));
    }

    #[test]
    fn linear_data_has_near_zero_error() {
        // §2's promise: a linear pattern is learned perfectly.
        let rmi = Rmi::build(
            linear_data(10_000),
            &RmiConfig::two_stage(TopModel::Linear, 16),
        );
        assert!(
            rmi.stats().max_abs_err <= 1,
            "max err {}",
            rmi.stats().max_abs_err
        );
    }

    #[test]
    fn more_leaves_shrink_error() {
        let data = quadratic_data(20_000);
        let small = Rmi::build(data.clone(), &RmiConfig::two_stage(TopModel::Linear, 16));
        let large = Rmi::build(data, &RmiConfig::two_stage(TopModel::Linear, 1024));
        assert!(
            large.stats().mean_abs_err < small.stats().mean_abs_err / 2.0,
            "large {} small {}",
            large.stats().mean_abs_err,
            small.stats().mean_abs_err
        );
    }

    #[test]
    fn hybrid_replaces_bad_leaves_with_btrees() {
        // A step-heavy distribution defeats per-leaf linear models at a
        // coarse leaf count, triggering hybrid replacement.
        let mut data: Vec<u64> = Vec::new();
        let mut v = 0u64;
        for i in 0..5000u64 {
            v += if (i / 100) % 2 == 0 { 1 } else { 10_000 };
            data.push(v);
        }
        let cfg = RmiConfig::two_stage(TopModel::Linear, 8).with_hybrid(10);
        let rmi = Rmi::build(data.clone(), &cfg);
        assert!(rmi.stats().btree_leaves > 0, "expected hybrid leaves");
        // Still exact everywhere.
        for &k in data.iter().step_by(7) {
            assert_eq!(rmi.lower_bound(k), oracle(&data, k));
        }
        for q in (0..60_000u64).step_by(101) {
            assert_eq!(rmi.lower_bound(q), oracle(&data, q));
        }
    }

    #[test]
    fn hybrid_threshold_zero_degenerates_to_all_btrees() {
        // §3.3: "in the case of an extremely difficult to learn data
        // distribution, all models would be automatically replaced by
        // B-Trees, making it virtually an entire B-Tree."
        let data = quadratic_data(2000);
        let cfg = RmiConfig::two_stage(TopModel::Linear, 4).with_hybrid(0);
        let rmi = Rmi::build(data.clone(), &cfg);
        let nonempty = rmi.leaves.iter().filter(|l| l.n_keys > 0).count();
        assert_eq!(rmi.stats().btree_leaves, nonempty);
        check_exact(data, &cfg);
    }

    #[test]
    fn error_envelope_contains_all_stored_keys() {
        let data = quadratic_data(5000);
        let rmi = Rmi::build(data.clone(), &RmiConfig::two_stage(TopModel::Linear, 64));
        for (i, &k) in data.iter().enumerate() {
            let p = rmi.predict(k);
            assert!(
                (p.lo..p.hi.max(p.lo + 1)).contains(&i),
                "key {k} at {i} outside window {}..{}",
                p.lo,
                p.hi
            );
        }
    }

    #[test]
    fn size_accounting_matches_paper_scale() {
        // Figure 4: 10k second-stage models ≈ 0.15MB.
        let data = linear_data(50_000);
        let rmi = Rmi::build(data, &RmiConfig::two_stage(TopModel::Linear, 10_000));
        let mb = rmi.size_bytes() as f64 / (1024.0 * 1024.0);
        assert!((0.1..0.25).contains(&mb), "size {mb} MB");
    }

    #[test]
    fn stats_and_name_are_consistent() {
        let rmi = Rmi::build(
            linear_data(1000),
            &RmiConfig::two_stage(TopModel::Linear, 32),
        );
        assert_eq!(rmi.stats().leaves, 32);
        assert!(rmi.name().contains("leaves=32"));
        assert_eq!(rmi.search_strategy(), SearchStrategy::ModelBiasedBinary);
    }

    #[test]
    fn set_search_strategy_keeps_results_identical() {
        let data = quadratic_data(3000);
        let mut rmi = Rmi::build(data.clone(), &RmiConfig::two_stage(TopModel::Linear, 64));
        let base: Vec<usize> = data.iter().map(|&k| rmi.lower_bound(k)).collect();
        for s in SearchStrategy::ALL {
            rmi.set_search_strategy(s);
            for (&k, &expect) in data.iter().zip(&base) {
                assert_eq!(rmi.lower_bound(k), expect, "{}", s.name());
            }
        }
    }

    #[test]
    fn batched_lookup_matches_scalar_for_all_strategies() {
        let data = quadratic_data(3000);
        let queries: Vec<u64> = (0..4000u64).map(|i| i * i / 2 + 3).collect();
        for s in SearchStrategy::ALL {
            let rmi = Rmi::build(
                data.clone(),
                &RmiConfig::two_stage(TopModel::Linear, 64).with_search(s),
            );
            let mut out = vec![0usize; queries.len()];
            rmi.lower_bound_batch(&queries, &mut out);
            for (&q, &got) in queries.iter().zip(&out) {
                assert_eq!(got, rmi.lower_bound(q), "{} q={q}", s.name());
            }
        }
    }

    #[test]
    fn batched_lookup_matches_scalar_with_hybrid_leaves() {
        let mut data: Vec<u64> = Vec::new();
        let mut v = 0u64;
        for i in 0..3000u64 {
            v += if (i / 100) % 2 == 0 { 1 } else { 10_000 };
            data.push(v);
        }
        let rmi = Rmi::build(
            data.clone(),
            &RmiConfig::two_stage(TopModel::Linear, 8).with_hybrid(10),
        );
        assert!(rmi.stats().btree_leaves > 0);
        let queries: Vec<u64> = (0..50_000u64).step_by(17).collect();
        let mut out = vec![0usize; queries.len()];
        rmi.lower_bound_batch(&queries, &mut out);
        for (&q, &got) in queries.iter().zip(&out) {
            assert_eq!(got, rmi.lower_bound(q), "q={q}");
        }
    }

    #[test]
    fn hybrid_leaves_share_the_key_store() {
        // The B-Tree fallback leaves must be views into the RMI's own
        // key array, not per-leaf copies.
        let mut data: Vec<u64> = Vec::new();
        let mut v = 0u64;
        for i in 0..3000u64 {
            v += if (i / 100) % 2 == 0 { 1 } else { 10_000 };
            data.push(v);
        }
        let store = KeyStore::new(data);
        let rmi = Rmi::build(
            store.clone(),
            &RmiConfig::two_stage(TopModel::Linear, 8).with_hybrid(10),
        );
        assert!(rmi.key_store().ptr_eq(&store));
        assert!(!rmi.plan.trees.is_empty());
        for (_, tree) in &rmi.plan.trees {
            assert!(tree.key_store().ptr_eq(&store), "leaf copied the keys");
        }
    }

    #[test]
    fn leaf_for_reports_routing() {
        let data = linear_data(1000);
        let rmi = Rmi::build(data.clone(), &RmiConfig::two_stage(TopModel::Linear, 8));
        let leaf = rmi.leaf_for(data[0]);
        assert!(leaf.n_keys > 0);
    }

    #[test]
    fn params_round_trip_is_exact_and_trains_nothing() {
        // Hybrid config so the round trip covers B-Tree leaves too.
        let data = quadratic_data(3000);
        let cfg = RmiConfig::two_stage(TopModel::Linear, 32).with_hybrid(8);
        let store = KeyStore::new(data.clone());
        let rmi = Rmi::build(store.clone(), &cfg);
        let params = rmi.to_params().expect("linear top is serializable");

        let before = crate::rmi::train_count();
        let back = Rmi::from_params(store.clone(), &params).expect("valid params");
        assert_eq!(
            crate::rmi::train_count(),
            before,
            "from_params must not train"
        );
        assert!(back.key_store().ptr_eq(&store), "rebuild shares the store");
        assert_eq!(back.to_params().as_ref(), Some(&params), "exact round trip");
        assert_eq!(back.stats().btree_leaves, rmi.stats().btree_leaves);
        for q in data.iter().flat_map(|&k| [k - 1, k, k + 1]) {
            assert_eq!(back.lower_bound(q), rmi.lower_bound(q), "q={q}");
        }
    }

    #[test]
    fn params_reject_non_linear_tops_and_bad_ranges() {
        let data = linear_data(500);
        let mlp = Rmi::build(
            data.clone(),
            &RmiConfig::two_stage(
                TopModel::Mlp {
                    hidden: 1,
                    width: 4,
                },
                8,
            ),
        );
        assert!(mlp.to_params().is_none(), "v1 cannot encode an MLP top");

        let rmi = Rmi::build(data.clone(), &RmiConfig::two_stage(TopModel::Linear, 8));
        let mut params = rmi.to_params().unwrap();
        params.leaves[0].model = LeafModelParams::BTree {
            offset: 400,
            len: 200, // out of bounds for 500 keys
            page_size: 16,
        };
        assert!(Rmi::from_params(data.clone(), &params).is_none());
        params.leaves[0].model = LeafModelParams::BTree {
            offset: 0,
            len: 10,
            page_size: 1, // BTreeIndex requires >= 2
        };
        assert!(Rmi::from_params(data, &params).is_none());
    }

    #[test]
    fn training_on_another_thread_leaves_the_callers_count_flat() {
        let before = train_count();
        let trained = std::thread::spawn(|| {
            let start = train_count();
            Rmi::build(linear_data(1000), &RmiConfig::default());
            train_count() - start
        })
        .join()
        .expect("training thread");
        assert_eq!(trained, 1, "the training thread counts its own build");
        assert_eq!(
            train_count(),
            before,
            "another thread's training moved the count"
        );
        Rmi::build(linear_data(1000), &RmiConfig::default());
        assert_eq!(train_count(), before + 1);
    }

    /// Every stored key lies inside the window `predict` gives it, so no
    /// stored key's lookup widens: training routed it through the same
    /// plan that lookups read.
    fn assert_stored_keys_inside_windows(keys: &[u64], cfg: &RmiConfig, what: &str) {
        let rmi = Rmi::build(keys.to_vec(), cfg);
        for (i, &k) in keys.iter().enumerate() {
            let p = rmi.predict(k);
            assert!(
                p.lo <= i && i < p.hi,
                "{what}: key {k} at {i} outside {}..{}",
                p.lo,
                p.hi
            );
        }
    }

    #[test]
    fn stored_keys_never_widen_on_lognormal_and_gauntlet_data() {
        let configs = [
            RmiConfig::two_stage(TopModel::Linear, 256),
            RmiConfig {
                stages: vec![16, 256],
                ..Default::default()
            },
        ];
        let lognormal = li_data::Dataset::Lognormal.generate(50_000, 3);
        for cfg in &configs {
            assert_stored_keys_inside_windows(lognormal.keys(), cfg, "lognormal");
            for family in li_data::Gauntlet::ALL {
                let mut keys = family.generate(20_000, 5);
                keys.dedup(); // an RMI indexes unique keys
                assert_stored_keys_inside_windows(&keys, cfg, family.name());
            }
        }
    }

    #[test]
    fn params_round_trip_keeps_every_prediction() {
        let data = li_data::Dataset::Lognormal
            .generate(20_000, 9)
            .keys()
            .to_vec();
        let configs = [
            RmiConfig::two_stage(TopModel::Linear, 128),
            RmiConfig {
                stages: vec![8, 128],
                ..Default::default()
            },
            RmiConfig::two_stage(TopModel::Linear, 16).with_hybrid(4),
        ];
        let mut probes: Vec<u64> = vec![0, 1, u64::MAX];
        probes.extend(data.iter().flat_map(|&k| [k - 1, k, k + 1]));
        for cfg in &configs {
            let rmi = Rmi::build(data.clone(), cfg);
            let back = Rmi::from_params(data.clone(), &rmi.to_params().unwrap()).unwrap();
            for &q in &probes {
                assert_eq!(back.predict(q), rmi.predict(q), "{} q={q}", rmi.name());
            }
        }
    }

    #[test]
    fn errors_beyond_i32_saturate_and_widen_to_exact_answers() {
        let data = quadratic_data(3000);
        let rmi = Rmi::build(data.clone(), &RmiConfig::two_stage(TopModel::Linear, 32));
        let mut params = rmi.to_params().unwrap();
        const BIG: i64 = 1 << 40;
        // Wider than the array, and entirely above or below every
        // prediction: the saturated windows are empty at an array end.
        let envelopes = [
            (-BIG, BIG),
            (BIG, 2 * BIG),
            (-2 * BIG, -BIG),
            (i64::MIN, i64::MAX),
        ];
        for (leaf, &(lo, hi)) in params.leaves.iter_mut().zip(envelopes.iter().cycle()) {
            leaf.min_err = lo;
            leaf.max_err = hi;
        }
        let mut probes: Vec<u64> = vec![0, u64::MAX];
        probes.extend(data.iter().flat_map(|&k| [k - 1, k, k + 1]));
        for s in SearchStrategy::ALL {
            params.search = s;
            let odd = Rmi::from_params(data.clone(), &params).unwrap();
            assert_eq!(
                odd.to_params().as_ref(),
                Some(&params),
                "cold errors stay exact"
            );
            for &q in &probes {
                let p = odd.predict(q);
                assert!(p.lo <= p.hi && p.hi <= data.len(), "{s:?} q={q} {p:?}");
                assert_eq!(odd.lower_bound(q), oracle(&data, q), "{s:?} q={q}");
            }
        }
    }
}
