//! The cost model: access-path selection (§4) and the join comparison
//! counts of §3.3.4.
//!
//! The paper's conclusion: *"query optimization in MM-DBMS should be
//! simpler than in conventional database systems, as the cost formulas
//! are less complicated … there is a more definite ordering of
//! preference: a hash lookup (exact match only) is always faster than a
//! tree lookup which is always faster than a sequential scan; a
//! precomputed join is always faster than the other join methods; and a
//! Tree Merge join is nearly always preferred when the T Tree indices
//! already exist."*
//!
//! The selection ordering is encoded verbatim ([`choose_select_path`]).
//! The join preferences are not rules here: they fall out of the
//! [`JoinPlanner`] formulas, which the [`Planner`](super::Planner) minimises
//! over the feasible methods.

/// What indices exist on a join column (the default: none).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct IndexAvailability {
    /// A T-Tree (order-preserving) index already exists.
    pub ttree: bool,
    /// A hash index already exists.
    pub hash: bool,
}

/// Selection access paths, in the §4 preference order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SelectPath {
    /// Hash lookup (exact match only) — always fastest.
    HashLookup,
    /// Tree lookup — point or range.
    TreeLookup,
    /// Sequential scan through an unrelated index.
    SequentialScan,
}

/// Pick the access path for a selection.
///
/// `exact_match` is true for equality predicates; range predicates can
/// never use a hash index.
#[must_use]
pub fn choose_select_path(avail: IndexAvailability, exact_match: bool) -> SelectPath {
    if exact_match && avail.hash {
        SelectPath::HashLookup
    } else if avail.ttree {
        SelectPath::TreeLookup
    } else {
        SelectPath::SequentialScan
    }
}

/// Join methods (§3.3.2 + §2.1).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JoinMethod {
    /// Follow foreign-key tuple pointers (§2.1).
    Precomputed,
    /// Merge two existing T-Trees.
    TreeMerge,
    /// Probe an existing T-Tree on the inner relation.
    TreeJoin,
    /// Build a chained-bucket table on the inner relation and probe it.
    HashJoin,
    /// Build and sort array indexes on both sides, then merge.
    SortMerge,
    /// O(N²) scan — never chosen, present for completeness.
    NestedLoops,
}

/// Planner inputs for one equijoin.
#[derive(Debug, Clone, Copy)]
pub struct JoinPlanner {
    /// Outer cardinality |R1|.
    pub outer_card: usize,
    /// Inner cardinality |R2|.
    pub inner_card: usize,
    /// Indices available on the inner join column.
    pub inner: IndexAvailability,
}

/// The fixed hash-probe cost `k` of §3.3.4 Test 1 ("much smaller than
/// log₂(|R2|) but larger than 2"), in comparison units.
pub const HASH_PROBE_COST: f64 = 3.0;

/// Weight of one Sort Merge *sort* comparison relative to the generic
/// comparison unit the other formulas count in.
///
/// The paper's §3.3.4 formula charges the sort's `n·log₂ n` at full
/// price because its Sort Merge sorts tuple pointers and dereferences a
/// tuple per comparison. The cache-conscious kernel sorts compact
/// `(u64 tag, row)` pairs in L2-sized runs instead, so a sort comparison
/// is an L1-resident integer compare while Tree Join and Hash Join
/// comparisons still chase tuple pointers. Re-fit against the measured
/// quick-mode kernels at 4k×4k (`BENCH_baseline.json`):
/// sort_merge/hash_join ≈ 2.3×, and sort_merge now runs *faster* than
/// tree_join. With this weight the model gives SortMerge ≈ 11.6 units/row
/// vs HashJoin 5 and TreeJoin 13 at 4k — both ratios in line with the
/// measurements (the paper's full-price model had SortMerge at 2×
/// TreeJoin, inverting the real ordering).
pub const SORT_CMP_WEIGHT: f64 = 0.4;

impl JoinPlanner {
    /// §3.3.4's comparison-count estimate for a method (build costs
    /// included where the paper charges them).
    #[must_use]
    pub fn estimated_comparisons(&self, method: JoinMethod) -> f64 {
        let r1 = self.outer_card as f64;
        let r2 = self.inner_card as f64;
        let lg = |x: f64| if x > 1.0 { x.log2() } else { 1.0 };
        match method {
            JoinMethod::Precomputed => r1,
            JoinMethod::TreeMerge => r1 + 2.0 * r2,
            JoinMethod::TreeJoin => r1 + r1 * lg(r2),
            JoinMethod::HashJoin => {
                // Probe cost |R1|·k plus the build (hash one entry per
                // inner tuple) unless a hash index already exists.
                let build = if self.inner.hash { 0.0 } else { r2 };
                r1 + r1 * HASH_PROBE_COST + build
            }
            JoinMethod::SortMerge => {
                // Tag-pair run sort: the n·log n comparisons are cheap
                // integer compares (see [`SORT_CMP_WEIGHT`]); the final
                // merge still walks both inputs at full price.
                SORT_CMP_WEIGHT * (r1 * lg(r1) + r2 * lg(r2)) + r1 + r2
            }
            JoinMethod::NestedLoops => r1 * r2,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn planner(outer_card: usize, inner_card: usize) -> JoinPlanner {
        JoinPlanner {
            outer_card,
            inner_card,
            inner: IndexAvailability::default(),
        }
    }

    #[test]
    fn select_path_preference_order() {
        let all = IndexAvailability {
            ttree: true,
            hash: true,
        };
        assert_eq!(choose_select_path(all, true), SelectPath::HashLookup);
        // Hash indices cannot serve range predicates.
        assert_eq!(choose_select_path(all, false), SelectPath::TreeLookup);
        assert_eq!(
            choose_select_path(IndexAvailability { hash: false, ..all }, true),
            SelectPath::TreeLookup
        );
        assert_eq!(
            choose_select_path(IndexAvailability::default(), true),
            SelectPath::SequentialScan
        );
    }

    #[test]
    fn cost_formulas_reproduce_test1_ordering() {
        // Graph 4's ordering at |R1| = |R2| = 30k, with one deliberate
        // departure: the cache-conscious tag sort moves Sort Merge below
        // Tree Join (the paper's pointer-sorting Sort Merge was the
        // slowest fair method; ours measures faster than Tree Join, and
        // the re-fit [`SORT_CMP_WEIGHT`] model agrees):
        // TreeMerge < HashJoin < SortMerge < TreeJoin ≪ NestedLoops.
        let p = planner(30_000, 30_000);
        let tm = p.estimated_comparisons(JoinMethod::TreeMerge);
        let hj = p.estimated_comparisons(JoinMethod::HashJoin);
        let tj = p.estimated_comparisons(JoinMethod::TreeJoin);
        let sm = p.estimated_comparisons(JoinMethod::SortMerge);
        let nl = p.estimated_comparisons(JoinMethod::NestedLoops);
        assert!(tm < hj, "{tm} < {hj}");
        assert!(hj < sm, "{hj} < {sm}");
        assert!(sm < tj, "{sm} < {tj}");
        assert!(tj < nl / 100.0, "{tj} ≪ {nl}");
    }

    #[test]
    fn refit_sort_merge_tracks_measured_kernel_ratios() {
        // The quick-mode bench at 4k×4k measures sort_merge ≈ 1.9–2.7×
        // hash_join; the re-fit model must land in that band (the paper's
        // full-price sort term put it at 5.2×).
        let p = planner(4_096, 4_096);
        let hj = p.estimated_comparisons(JoinMethod::HashJoin);
        let sm = p.estimated_comparisons(JoinMethod::SortMerge);
        let ratio = sm / hj;
        assert!(
            (1.5..=3.0).contains(&ratio),
            "sort_merge/hash_join model ratio {ratio}"
        );
    }

    #[test]
    fn existing_hash_index_removes_build_cost() {
        let mut with_index = planner(30_000, 30_000);
        with_index.inner.hash = true;
        let without = planner(30_000, 30_000);
        assert!(
            with_index.estimated_comparisons(JoinMethod::HashJoin)
                < without.estimated_comparisons(JoinMethod::HashJoin)
        );
    }

    #[test]
    fn test3_crossover_tree_join_vs_hash_join_costs() {
        // Graph 6's shape: for small |R1| Tree Join is cheaper than Hash
        // Join (which must build a 30k-entry table); as |R1| grows, Hash
        // Join wins.
        let small = planner(1_000, 30_000);
        assert!(
            small.estimated_comparisons(JoinMethod::TreeJoin)
                < small.estimated_comparisons(JoinMethod::HashJoin)
        );
        let large = planner(30_000, 30_000);
        assert!(
            large.estimated_comparisons(JoinMethod::HashJoin)
                < large.estimated_comparisons(JoinMethod::TreeJoin)
        );
    }
}
