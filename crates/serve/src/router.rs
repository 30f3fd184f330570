//! The shard router: a binary search over the shard boundary keys.
//!
//! Routing is itself a tiny lower-bound problem — "which shard's first
//! key is the last one `< q`?" — but over a handful of boundary keys
//! that sit in one or two cache lines. A `partition_point` over them
//! costs a few predictable compares, less than evaluating and checking
//! a model would, so the router is the plain reference rule of
//! `li_index::partition`, exact for every key including those above
//! 2^53 and duplicate boundaries.

use li_index::partition::{route_binary, route_owner_binary};

/// Routes a query key to the shard whose position range contains its
/// global lower bound.
///
/// Built from the shard boundary keys (first key of every shard except
/// shard 0, see `li_index::partition::boundaries`). Two routing rules:
///
/// * [`ShardRouter::route`] — the *read* rule: the shard whose position
///   range contains `lower_bound(key)` (`boundaries[r-1] < key <=
///   boundaries[r]`).
/// * [`ShardRouter::route_owner`] — the *ownership* rule of the
///   writable path: the unique shard whose half-open range
///   `[boundaries[s-1], boundaries[s])` contains the key
///   (`boundaries[r-1] <= key < boundaries[r]`), so every key has
///   exactly one home to insert into.
///
/// # Examples
/// ```
/// use li_serve::ShardRouter;
///
/// // Three shards: [0, 100), [100, 200), [200, u64::MAX].
/// let router = ShardRouter::fit(vec![100, 200]);
/// assert_eq!(router.shards(), 3);
/// assert_eq!(router.route_owner(99), 0);
/// // A boundary key is OWNED by the shard it opens…
/// assert_eq!(router.route_owner(100), 1);
/// // …while the read rule sends lower_bound(100) to the shard that
/// // precedes it (the first stored key >= 100 could sit at the end of
/// // shard 0's position range).
/// assert_eq!(router.route(100), 0);
/// assert_eq!(router.route_owner(u64::MAX), 2);
/// ```
#[derive(Debug, Clone)]
pub struct ShardRouter {
    boundaries: Vec<u64>,
}

impl ShardRouter {
    /// A router over the boundary keys (must be sorted; one entry per
    /// shard beyond the first). After a topology change (shard
    /// split/merge), build a new one over the updated boundary vector.
    pub fn fit(boundaries: Vec<u64>) -> Self {
        debug_assert!(
            boundaries.windows(2).all(|w| w[0] <= w[1]),
            "ShardRouter::fit: boundary keys must be sorted ascending"
        );
        Self { boundaries }
    }

    /// The boundary keys this router was built over (one per shard
    /// beyond the first — for a writable topology, the ownership-range
    /// lower bounds of shards `1..N`).
    pub fn boundaries(&self) -> &[u64] {
        &self.boundaries
    }

    /// Number of shards this router serves.
    pub fn shards(&self) -> usize {
        self.boundaries.len() + 1
    }

    /// The shard whose position range contains `lower_bound(key)` of
    /// the full array.
    #[inline]
    pub fn route(&self, key: u64) -> usize {
        route_binary(&self.boundaries, key)
    }

    /// The shard that *owns* `key` under half-open ownership ranges
    /// (`[boundaries[s-1], boundaries[s])` — see
    /// `li_index::partition::route_owner_binary`): the routing rule of
    /// the writable sharded path, where every key must have exactly one
    /// home shard.
    #[inline]
    pub fn route_owner(&self, key: u64) -> usize {
        route_owner_binary(&self.boundaries, key)
    }

    /// Router overhead in bytes (boundary keys + the router itself).
    pub fn size_bytes(&self) -> usize {
        self.boundaries.len() * std::mem::size_of::<u64>() + std::mem::size_of::<Self>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn probe_set(boundaries: &[u64]) -> Vec<u64> {
        let mut qs = vec![0u64, 1, u64::MAX - 1, u64::MAX];
        for &b in boundaries {
            qs.extend_from_slice(&[b.saturating_sub(1), b, b.saturating_add(1)]);
        }
        qs
    }

    fn boundary_sets() -> Vec<Vec<u64>> {
        vec![
            vec![],
            vec![100],
            (1..50u64).map(|i| i * 1000).collect(),
            (1..50u64).map(|i| i * i * 7919).collect(), // quadratic spacing
            vec![5, 5, 5, 5],                           // duplicate boundaries
            vec![0, 1, u64::MAX - 1, u64::MAX],         // extreme spread
            (0..100u64).map(|i| i / 10).collect(),      // long runs
            // A dense cluster and one far outlier.
            (0..20u64).chain([u64::MAX]).collect(),
        ]
    }

    #[test]
    fn read_route_matches_route_binary() {
        for bounds in boundary_sets() {
            let router = ShardRouter::fit(bounds.clone());
            assert_eq!(router.shards(), bounds.len() + 1);
            for q in probe_set(&bounds) {
                assert_eq!(
                    router.route(q),
                    route_binary(&bounds, q),
                    "bounds={bounds:?} q={q}"
                );
            }
        }
    }

    #[test]
    fn owner_route_matches_route_owner_binary() {
        for bounds in boundary_sets() {
            let router = ShardRouter::fit(bounds.clone());
            for q in probe_set(&bounds) {
                assert_eq!(
                    router.route_owner(q),
                    route_owner_binary(&bounds, q),
                    "bounds={bounds:?} q={q}"
                );
            }
        }
    }

    #[test]
    fn owner_and_read_routes_differ_only_on_boundary_keys() {
        let bounds: Vec<u64> = (1..32u64).map(|i| i * 500).collect();
        let router = ShardRouter::fit(bounds.clone());
        for q in probe_set(&bounds) {
            let read = router.route(q);
            let owner = router.route_owner(q);
            if bounds.binary_search(&q).is_ok() {
                assert_eq!(owner, read + 1, "boundary key q={q}");
            } else {
                assert_eq!(owner, read, "q={q}");
            }
        }
    }

    #[test]
    fn boundaries_accessor_round_trips() {
        let bounds = vec![3u64, 9, 27];
        let router = ShardRouter::fit(bounds.clone());
        assert_eq!(router.boundaries(), &bounds[..]);
    }

    #[test]
    fn degenerate_boundaries_route_like_binary() {
        for bounds in [vec![], vec![42], vec![7, 7, 7]] {
            let router = ShardRouter::fit(bounds.clone());
            for q in probe_set(&bounds) {
                assert_eq!(router.route(q), route_binary(&bounds, q), "q={q}");
                assert_eq!(
                    router.route_owner(q),
                    route_owner_binary(&bounds, q),
                    "q={q}"
                );
            }
        }
    }

    #[test]
    fn router_size_is_small() {
        let bounds: Vec<u64> = (1..16u64).map(|i| i * 100).collect();
        let router = ShardRouter::fit(bounds);
        assert!(router.size_bytes() < 1024);
    }

    /// Boundary sets that stress `f64` precision: distinct u64 keys at
    /// and above 2^53 collapse to identical f64 values. Routing compares
    /// integers, so every route must match the reference exactly.
    fn high_precision_boundary_sets() -> Vec<Vec<u64>> {
        const P53: u64 = 1 << 53;
        vec![
            // Consecutive keys right at the precision cliff: f64 can no
            // longer represent the gaps.
            (0..64u64).map(|i| P53 + i).collect(),
            // A tight cluster hugging u64::MAX.
            (0..64u64).map(|i| u64::MAX - 63 + i).collect(),
            // Uniform spread across [2^53, u64::MAX].
            (0..64u64)
                .map(|i| P53 + i * ((u64::MAX - P53) / 64))
                .collect(),
            // Huge nearly-equal keys with one outlier.
            vec![P53, u64::MAX - 2, u64::MAX - 1, u64::MAX],
            // Mixed magnitudes: tiny keys and 2^53+ keys in one set.
            vec![1, 2, 3, P53, P53 + 1, u64::MAX - 1, u64::MAX],
            // Adjacent f64-equal pairs (2^53 + 2k and + 2k+1 round to
            // the same f64 for small k).
            (0..32u64)
                .flat_map(|i| [P53 + 2 * i, P53 + 2 * i + 1])
                .collect(),
        ]
    }

    #[test]
    fn routes_above_2_pow_53_match_binary_exactly() {
        for bounds in high_precision_boundary_sets() {
            let router = ShardRouter::fit(bounds.clone());
            for q in probe_set(&bounds) {
                assert_eq!(
                    router.route(q),
                    route_binary(&bounds, q),
                    "bounds[0]={} n={} q={q}",
                    bounds[0],
                    bounds.len(),
                );
                assert_eq!(
                    router.route_owner(q),
                    route_owner_binary(&bounds, q),
                    "owner: bounds[0]={} n={} q={q}",
                    bounds[0],
                    bounds.len(),
                );
            }
        }
    }
}
