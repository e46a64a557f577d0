//! The cost-based physical planner.
//!
//! Consumes a [`LogicalPlan`] plus [`PlanCatalog`] facts and produces a
//! [`PlannedQuery`]: an annotated physical-plan tree with a chosen access
//! path per selection (§4), a chosen method per join, filter placement,
//! and join order. Estimates are §3.3.4 *comparison counts* via
//! [`JoinPlanner::estimated_comparisons`], with the Sort Merge sort term
//! re-fit to the cache-conscious tag-sort kernel (see
//! [`crate::plan::cost::SORT_CMP_WEIGHT`]): its `n·log n` comparisons are
//! L1-resident integer compares, cheaper than the tuple-dereferencing
//! comparisons the other methods count.
//!
//! Method choice is **cost-minimal over feasible methods**, with the §4
//! preference order (Precomputed < TreeMerge < TreeJoin < HashJoin <
//! SortMerge < NestedLoops) as the tie-break. This subsumes the §3.3.5
//! rules: the precomputed short-circuit falls out of its `|R1|` cost, Tree
//! Merge wins whenever both T-Trees cover full inputs, and the Tree Join
//! vs. Hash Join crossover of Test 3 falls out of the formulas instead of
//! the paper's fixed `|R1| < |R2|/2` approximation of it.
//!
//! Cardinality heuristics (no value-distribution statistics exist yet):
//! equality predicates keep 1/10 of their input and range predicates 1/3
//! (the System R defaults), and each surviving outer row is assumed to
//! match one inner tuple — the foreign-key shape of the paper's §3.3
//! workloads.

use crate::plan::catalog::{AttrInfo, PlanCatalog};
use crate::plan::cost::{choose_select_path, JoinMethod, JoinPlanner, SelectPath, HASH_PROBE_COST};
use crate::plan::logical::LogicalPlan;
use crate::select::Predicate;

/// Identifies one operator in a planned query; pre-order, root = 0.
pub type NodeId = usize;

/// Planner toggles (all on by default).
#[derive(Debug, Clone, Copy)]
pub struct PlannerOptions {
    /// Push filters below joins, into the filtered table's access path.
    /// Off = naive as-written placement (filters run where typed, against
    /// the already-joined temp list).
    pub pushdown: bool,
    /// Greedy join reordering by estimated comparisons. Only applies when
    /// `pushdown` is on (reordering around in-place filters is unsound);
    /// off = joins execute in written order.
    pub reorder: bool,
    /// Force every join to use this method (tests, benchmarks). The
    /// planner still checks feasibility and errors if the method cannot
    /// run (e.g. Tree Merge without both T-Trees).
    pub forced_join: Option<JoinMethod>,
}

impl Default for PlannerOptions {
    fn default() -> Self {
        PlannerOptions {
            pushdown: true,
            reorder: true,
            forced_join: None,
        }
    }
}

impl PlannerOptions {
    /// Naive as-written execution: no pushdown, no reordering.
    #[must_use]
    pub fn naive() -> Self {
        PlannerOptions {
            pushdown: false,
            reorder: false,
            forced_join: None,
        }
    }
}

/// Planning failures (all map to bad-query errors at the API surface).
#[derive(Debug, Clone, PartialEq)]
pub enum PlanError {
    /// A referenced table does not exist.
    UnknownTable(String),
    /// A referenced attribute does not exist on its table.
    UnknownAttr {
        /// Table name.
        table: String,
        /// Attribute name.
        attr: String,
    },
    /// A filter, join source, or projection references a table the
    /// pipeline has not bound (at that point in written order).
    Unbound {
        /// The unbound table.
        table: String,
        /// Tables bound at that point.
        bound: Vec<String>,
    },
    /// Two filters target the same table (one access path per table).
    DuplicateFilter(String),
    /// A forced join method cannot execute on these inputs.
    Infeasible {
        /// The infeasible method.
        method: JoinMethod,
        /// Why it cannot run.
        reason: String,
    },
}

impl std::fmt::Display for PlanError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PlanError::UnknownTable(t) => write!(f, "unknown table {t}"),
            PlanError::UnknownAttr { table, attr } => {
                write!(f, "unknown attribute {table}.{attr}")
            }
            PlanError::Unbound { table, bound } => {
                write!(f, "table {table} is not bound (have: {})", bound.join(", "))
            }
            PlanError::DuplicateFilter(t) => {
                write!(f, "more than one filter on table {t}")
            }
            PlanError::Infeasible { method, reason } => {
                write!(f, "join method {method:?} is infeasible: {reason}")
            }
        }
    }
}

impl std::error::Error for PlanError {}

/// One operator in the physical-plan tree, annotated with estimates.
#[derive(Debug, Clone)]
pub struct PlanNode {
    /// Pre-order id (root = 0); indexes runtime stats in `ExecContext`.
    pub id: NodeId,
    /// What the operator is.
    pub kind: PlanNodeKind,
    /// Estimated output rows.
    pub est_rows: f64,
    /// Estimated comparisons (§3.3.4 units).
    pub est_comparisons: f64,
    /// Input subtrees. Scans/selects are leaves; a join's first child is
    /// its outer input, and a second child (present only for methods that
    /// consume an explicit inner tuple list) materialises the inner side.
    pub children: Vec<PlanNode>,
}

/// Physical operator kinds.
#[derive(Debug, Clone)]
pub enum PlanNodeKind {
    /// Full scan of a table (every live tuple).
    Scan {
        /// Table name.
        table: String,
    },
    /// Filtered access to a table through the best §4 path.
    Select {
        /// Table name.
        table: String,
        /// Filtered attribute.
        attr: String,
        /// The predicate.
        pred: Predicate,
        /// Chosen access path.
        path: SelectPath,
    },
    /// In-place filter over the joined temp list (naive placement only).
    PostFilter {
        /// Table whose attribute is tested.
        table: String,
        /// Attribute name.
        attr: String,
        /// The predicate.
        pred: Predicate,
        /// Temp-list column holding that table's tuple ids.
        src_col: usize,
    },
    /// Equijoin widening the temp list by one column.
    Join {
        /// Chosen method.
        method: JoinMethod,
        /// Bound table supplying outer join values.
        source_table: String,
        /// Outer join attribute.
        outer_attr: String,
        /// The relation joined in.
        inner_table: String,
        /// Inner join attribute.
        inner_attr: String,
        /// Temp-list column of `source_table`.
        src_col: usize,
        /// Feasible alternatives the planner rejected, with their §3.3.4
        /// estimates, in preference order.
        rejected: Vec<(JoinMethod, f64)>,
    },
    /// Output-column selection (values are extracted at materialisation;
    /// this node carries the descriptor and passes rows through).
    Project {
        /// Output columns as `(table, attr)`.
        cols: Vec<(String, String)>,
    },
    /// Hash-based duplicate elimination over the projected columns
    /// (§3.4's winner).
    Distinct,
    /// A subtree replaced by a reuse-cache hit (see `crate::cache`). The
    /// node is a leaf: it reads the memoised temp list instead of
    /// recomputing. It carries the logical work it absorbed so plan
    /// invariants (every written filter/join appears exactly once) remain
    /// checkable on the substituted tree.
    Cached {
        /// Stable fingerprint of the absorbed subtree's canonical form.
        fingerprint: u64,
        /// The canonical form itself (the fingerprint's preimage).
        canonical: String,
        /// Tables the absorbed subtree had bound, in temp-list column
        /// order (the cached rows' arity equals this length).
        tables: Vec<String>,
        /// Filters absorbed from the replaced subtree, as
        /// `(table, attr, pred)`.
        filters: Vec<(String, String, Predicate)>,
        /// Joins absorbed from the replaced subtree, as
        /// `(source_table, outer_attr, inner_table, inner_attr)`.
        joins: Vec<(String, String, String, String)>,
        /// How the cache serves this node (the §3.3.5 alternative the
        /// cost comparison picked).
        mode: CachedMode,
    },
}

/// The reuse alternative chosen for a [`PlanNodeKind::Cached`] node.
/// Each variant costs differently under the §3.3.4 formulas, and each
/// renders distinctly in explain (`[cached]`, `[cached⊆ refilter]`,
/// `[cached+Δ]`).
#[derive(Debug, Clone)]
pub enum CachedMode {
    /// Exact fingerprint hit on a fresh entry: serve the rows as-is
    /// (zero comparisons).
    Exact,
    /// Served from a *subsuming* entry over the same `(table, attr)`
    /// whose predicate interval contains this node's: the cached rows
    /// are re-filtered with the node's own predicate (`filters[0]`).
    Subsumed {
        /// Fingerprint of the subsuming entry.
        entry_fingerprint: u64,
        /// Canonical form of the subsuming entry (its preimage).
        entry_canonical: String,
        /// The subsuming entry's predicate — the invariant checker
        /// verifies its interval contains the node's residual predicate.
        entry_pred: Predicate,
    },
    /// Exact hit on a stale-but-maintained entry: the pending delta log
    /// exactly covers the version gap, so the rows are patched at read
    /// time instead of recomputed.
    Delta {
        /// Pending delta records at plan time (the cost driver).
        pending: usize,
    },
}

/// A planned query: the annotated operator tree plus binding metadata.
#[derive(Debug, Clone)]
pub struct PlannedQuery {
    /// Root of the physical-plan tree.
    pub root: PlanNode,
    /// Total operator count (`ExecContext` sizing; ids are `0..count`).
    pub node_count: usize,
    /// Bound tables in temp-list column order (base first, then each
    /// join's inner table in *execution* order).
    pub tables: Vec<String>,
    /// Resolved output columns as `(table, attr)`.
    pub columns: Vec<(String, String)>,
    /// Whether duplicate elimination runs.
    pub distinct: bool,
}

impl PlannedQuery {
    /// Re-assign pre-order ids (root = 0) and refresh `node_count` after
    /// a structural rewrite (e.g. reuse-cache subtree substitution).
    pub fn renumber(&mut self) {
        let mut next = 0;
        assign_ids(&mut self.root, &mut next);
        self.node_count = next;
    }
}

/// Equality predicates keep 1/10 of their input (System R default).
pub const EQ_SELECTIVITY: f64 = 0.1;
/// Range predicates keep 1/3 of their input (System R default).
pub const RANGE_SELECTIVITY: f64 = 1.0 / 3.0;

/// Estimated fraction of input rows a predicate keeps.
#[must_use]
pub fn selectivity(pred: &Predicate) -> f64 {
    match pred {
        Predicate::Eq(_) => EQ_SELECTIVITY,
        Predicate::Range { .. } => RANGE_SELECTIVITY,
    }
}

/// The §4 preference order, used to break cost ties and to order the
/// rejected-alternatives list.
const PREFERENCE: [JoinMethod; 6] = [
    JoinMethod::Precomputed,
    JoinMethod::TreeMerge,
    JoinMethod::TreeJoin,
    JoinMethod::HashJoin,
    JoinMethod::SortMerge,
    JoinMethod::NestedLoops,
];

fn preference_rank(m: JoinMethod) -> usize {
    #[allow(clippy::unwrap_used)] // PREFERENCE enumerates every variant.
    PREFERENCE.iter().position(|p| *p == m).unwrap()
}

fn lg(x: f64) -> f64 {
    if x > 1.0 {
        x.log2()
    } else {
        1.0
    }
}

/// One pending filter during planning (borrowed from the logical plan).
#[derive(Clone, Copy)]
struct FilterFact<'l> {
    table: &'l str,
    attr: &'l str,
    pred: &'l Predicate,
    /// Catalog facts for `table.attr`, resolved once during validation.
    info: AttrInfo,
}

/// One pending join during planning (borrowed from the logical plan).
#[derive(Clone, Copy)]
struct JoinFact<'l> {
    source_table: &'l str,
    outer_attr: &'l str,
    inner_table: &'l str,
    inner_attr: &'l str,
    /// Catalog facts for both join attributes, resolved once during
    /// validation.
    outer: AttrInfo,
    inner: AttrInfo,
    /// Original written position (reorder tie-break).
    written: usize,
}

/// The cost-based planner (stateless; all context is passed in).
pub struct Planner;

impl Planner {
    /// Plan `logical` against `catalog` under `options`.
    ///
    /// # Errors
    /// [`PlanError`] when a reference does not resolve, a join source or
    /// projected table is unbound, a table is filtered twice, or a forced
    /// method is infeasible.
    pub fn plan(
        logical: &LogicalPlan,
        catalog: &dyn PlanCatalog,
        options: &PlannerOptions,
    ) -> Result<PlannedQuery, PlanError> {
        let base = logical.base();
        if catalog.cardinality(base).is_none() {
            return Err(PlanError::UnknownTable(base.to_string()));
        }

        // Resolve and validate every reference in written order.
        let mut filters: Vec<FilterFact> = Vec::new();
        let mut joins: Vec<JoinFact> = Vec::new();
        {
            let mut written_bound = vec![base];
            // Interleave filters and joins exactly as written: walk the
            // linear spine bottom-up.
            let mut steps: Vec<Result<FilterFact, JoinFact>> = Vec::new();
            collect_steps(logical, &mut steps);
            for (pos, step) in steps.into_iter().enumerate() {
                match step {
                    Ok(mut filt) => {
                        filt.info = resolve(catalog, filt.table, filt.attr)?;
                        if !written_bound.contains(&filt.table) {
                            return Err(unbound(filt.table, &written_bound));
                        }
                        if filters.iter().any(|f| f.table == filt.table) {
                            return Err(PlanError::DuplicateFilter(filt.table.to_string()));
                        }
                        filters.push(filt);
                    }
                    Err(mut join) => {
                        join.outer = resolve(catalog, join.source_table, join.outer_attr)?;
                        join.inner = resolve(catalog, join.inner_table, join.inner_attr)?;
                        if !written_bound.contains(&join.source_table) {
                            return Err(unbound(join.source_table, &written_bound));
                        }
                        written_bound.push(join.inner_table);
                        join.written = pos;
                        joins.push(join);
                    }
                }
            }
        }

        let state = PlanState {
            catalog,
            options,
            base,
            filters,
        };
        let (root, tables) = state.build(joins, logical)?;

        // Projection / distinct wrappers.
        let columns: Vec<(String, String)> = logical
            .projection()
            .map(<[(String, String)]>::to_vec)
            .unwrap_or_default();
        for (t, a) in &columns {
            resolve(catalog, t, a)?;
            if !tables.contains(t) {
                return Err(PlanError::Unbound {
                    table: t.clone(),
                    bound: tables.clone(),
                });
            }
        }
        let distinct = logical.is_distinct();
        let mut root = if columns.is_empty() {
            root
        } else {
            let est_rows = root.est_rows;
            PlanNode {
                id: 0,
                kind: PlanNodeKind::Project {
                    cols: columns.clone(),
                },
                est_rows,
                est_comparisons: 0.0,
                children: vec![root],
            }
        };
        if distinct {
            let est_rows = root.est_rows;
            root = PlanNode {
                id: 0,
                kind: PlanNodeKind::Distinct,
                est_rows,
                // One hash per input row (§3.4: table size |R|/2, ~O(1)
                // probes).
                est_comparisons: est_rows,
                children: vec![root],
            };
        }

        let mut next = 0;
        assign_ids(&mut root, &mut next);
        Ok(PlannedQuery {
            root,
            node_count: next,
            tables,
            columns,
            distinct,
        })
    }
}

/// Shared planning context for the join pipeline.
struct PlanState<'c> {
    catalog: &'c dyn PlanCatalog,
    options: &'c PlannerOptions,
    base: &'c str,
    filters: Vec<FilterFact<'c>>,
}

impl<'c> PlanState<'c> {
    fn filter_on(&self, table: &str) -> Option<&FilterFact<'c>> {
        self.filters.iter().find(|f| f.table == table)
    }

    /// Build the access node for reading `table` (the base, or a
    /// materialised join-inner side), applying `filter` if given.
    fn access_node(&self, table: &str, filter: Option<&FilterFact>) -> (PlanNode, f64) {
        let card = self.catalog.cardinality(table).unwrap_or(0) as f64;
        match filter {
            None => (
                PlanNode {
                    id: 0,
                    kind: PlanNodeKind::Scan {
                        table: table.to_string(),
                    },
                    est_rows: card,
                    est_comparisons: 0.0,
                    children: Vec::new(),
                },
                card,
            ),
            Some(f) => {
                let exact = matches!(f.pred, Predicate::Eq(_));
                let path = choose_select_path(f.info.avail, exact);
                let est_rows = card * selectivity(f.pred);
                let est_comparisons = match path {
                    SelectPath::HashLookup => HASH_PROBE_COST,
                    SelectPath::TreeLookup => lg(card),
                    SelectPath::SequentialScan => card,
                };
                (
                    PlanNode {
                        id: 0,
                        kind: PlanNodeKind::Select {
                            table: table.to_string(),
                            attr: f.attr.to_string(),
                            pred: f.pred.clone(),
                            path,
                        },
                        est_rows,
                        est_comparisons,
                        children: Vec::new(),
                    },
                    est_rows,
                )
            }
        }
    }

    /// Build the join pipeline and return `(root, bound tables in
    /// execution order)`.
    fn build(
        &self,
        mut pending: Vec<JoinFact>,
        logical: &LogicalPlan,
    ) -> Result<(PlanNode, Vec<String>), PlanError> {
        let pushdown = self.options.pushdown;
        let reorder = self.options.reorder && pushdown;

        // Base access. Under naive placement the base filter still runs
        // first when it was written before any join — that is the written
        // order. A base filter written *after* a join becomes a
        // PostFilter below.
        let base_filter = self
            .filter_on(self.base)
            .filter(|_| pushdown || filter_written_before_joins(logical, self.base));
        let (mut tree, mut cur_rows) = self.access_node(self.base, base_filter);
        let base_filtered = base_filter.is_some();

        // Per-table estimated distinct cardinality once bound.
        let mut tables = vec![self.base];
        let mut est_card: Vec<f64> = vec![cur_rows];

        // Naive placement: filters not applied at the base run as
        // PostFilter at their written position (relative to the joins).
        let mut post_filters: Vec<&FilterFact> = if pushdown {
            Vec::new()
        } else {
            self.filters
                .iter()
                .filter(|f| !(f.table == self.base && base_filtered))
                .collect()
        };

        let mut joins_done = 0usize;
        while !pending.is_empty() {
            // Candidates whose source is already bound.
            let mut best: Option<(usize, JoinChoice)> = None;
            for (i, j) in pending.iter().enumerate() {
                let Some(src_col) = tables.iter().position(|t| *t == j.source_table) else {
                    continue;
                };
                let choice = self.choose_join(
                    j,
                    src_col,
                    est_card[src_col].min(cur_rows),
                    joins_done == 0 && !base_filtered && j.source_table == self.base,
                    pushdown,
                )?;
                let better = match &best {
                    None => true,
                    Some((bi, b)) => {
                        reorder
                            && (choice.cost < b.cost
                                || (choice.cost == b.cost
                                    && pending[i].written < pending[*bi].written))
                    }
                };
                if better {
                    best = Some((i, choice));
                }
                if !reorder {
                    break; // written order: only the first bound candidate.
                }
            }
            let Some((idx, choice)) = best else {
                // No pending join's source is bound.
                return Err(unbound(pending[0].source_table, &tables));
            };
            // In written order the *first* pending join must be the one
            // taken; a later-bound candidate means the first is unbound.
            if !reorder && idx != 0 {
                return Err(unbound(pending[0].source_table, &tables));
            }
            let j = pending.remove(idx);

            // Naive placement: flush filters written before this join.
            if !pushdown {
                let upto = j.written;
                post_filters.retain(|f| {
                    if filter_written_pos(logical, f) < upto {
                        let (node, rows) =
                            self.post_filter_node(f, &tables, tree.clone(), cur_rows);
                        tree = node;
                        cur_rows = rows;
                        false
                    } else {
                        true
                    }
                });
            }

            let mut children = vec![std::mem::replace(
                &mut tree,
                PlanNode {
                    id: 0,
                    kind: PlanNodeKind::Distinct, // placeholder, replaced below
                    est_rows: 0.0,
                    est_comparisons: 0.0,
                    children: Vec::new(),
                },
            )];
            let mut inner_est = self.catalog.cardinality(j.inner_table).unwrap_or(0) as f64;
            if choice.materialise_inner {
                let inner_filter = if pushdown {
                    self.filter_on(j.inner_table)
                } else {
                    None
                };
                let (inner_node, rows) = self.access_node(j.inner_table, inner_filter);
                inner_est = rows;
                children.push(inner_node);
            } else if pushdown {
                if let Some(f) = self.filter_on(j.inner_table) {
                    // Index-based inner access cannot honour a pushed
                    // filter; the planner only chooses such methods when
                    // the inner is unfiltered, so reaching here means the
                    // filter exists but the method ignores it — scale the
                    // estimate anyway for the output row count.
                    inner_est *= selectivity(f.pred);
                }
            }
            // One-match-per-outer heuristic, scaled by any inner filter.
            let inner_card_raw = self.catalog.cardinality(j.inner_table).unwrap_or(0) as f64;
            let match_frac = if inner_card_raw > 0.0 {
                inner_est / inner_card_raw
            } else {
                0.0
            };
            cur_rows *= match_frac.clamp(0.0, 1.0);
            let est_rows = cur_rows;

            tree = PlanNode {
                id: 0,
                kind: PlanNodeKind::Join {
                    method: choice.method,
                    source_table: j.source_table.to_string(),
                    outer_attr: j.outer_attr.to_string(),
                    inner_table: j.inner_table.to_string(),
                    inner_attr: j.inner_attr.to_string(),
                    src_col: choice.src_col,
                    rejected: choice.rejected,
                },
                est_rows,
                est_comparisons: choice.cost,
                children,
            };
            tables.push(j.inner_table);
            est_card.push(inner_est);
            joins_done += 1;
        }

        // Naive placement: any remaining post filters run last.
        for f in post_filters {
            let (node, rows) = self.post_filter_node(f, &tables, tree, cur_rows);
            tree = node;
            cur_rows = rows;
        }

        Ok((tree, tables.iter().map(ToString::to_string).collect()))
    }

    fn post_filter_node(
        &self,
        f: &FilterFact,
        tables: &[&str],
        input: PlanNode,
        cur_rows: f64,
    ) -> (PlanNode, f64) {
        // Written-order validation already guaranteed boundness.
        let src_col = tables.iter().position(|t| *t == f.table).unwrap_or(0);
        let est_rows = cur_rows * selectivity(f.pred);
        (
            PlanNode {
                id: 0,
                kind: PlanNodeKind::PostFilter {
                    table: f.table.to_string(),
                    attr: f.attr.to_string(),
                    pred: f.pred.clone(),
                    src_col,
                },
                est_rows,
                est_comparisons: cur_rows,
                children: vec![input],
            },
            est_rows,
        )
    }

    /// Choose the method for one join (§3.3.4 cost-minimal over feasible,
    /// §4 preference order as tie-break).
    fn choose_join(
        &self,
        j: &JoinFact,
        src_col: usize,
        outer_card: f64,
        outer_full: bool,
        pushdown: bool,
    ) -> Result<JoinChoice, PlanError> {
        let (outer_info, inner_info) = (j.outer, j.inner);
        let inner_filter = if pushdown {
            self.filter_on(j.inner_table)
        } else {
            None
        };
        let inner_full = inner_filter.is_none();
        let inner_card_raw = self.catalog.cardinality(j.inner_table).unwrap_or(0) as f64;
        let inner_card = match inner_filter {
            Some(f) => inner_card_raw * selectivity(f.pred),
            None => inner_card_raw,
        };
        let planner = JoinPlanner {
            outer_card: outer_card.round() as usize,
            inner_card: inner_card.round().max(0.0) as usize,
            inner: inner_info.avail,
        };
        let feasible = |m: JoinMethod| -> bool {
            match m {
                JoinMethod::Precomputed => outer_info.pointer && inner_full,
                JoinMethod::TreeMerge => {
                    outer_info.avail.ttree && inner_info.avail.ttree && outer_full && inner_full
                }
                JoinMethod::TreeJoin => inner_info.avail.ttree && inner_full,
                JoinMethod::HashJoin | JoinMethod::SortMerge | JoinMethod::NestedLoops => true,
            }
        };
        let method = match self.options.forced_join {
            Some(m) => {
                if !feasible(m) {
                    return Err(PlanError::Infeasible {
                        method: m,
                        reason: format!(
                            "{}.{} = {}.{} (required index missing or input not full)",
                            j.source_table, j.outer_attr, j.inner_table, j.inner_attr
                        ),
                    });
                }
                m
            }
            None => {
                let mut best = JoinMethod::NestedLoops;
                let mut best_cost = f64::INFINITY;
                for &m in &PREFERENCE {
                    if !feasible(m) {
                        continue;
                    }
                    let cost = planner.estimated_comparisons(m);
                    if cost < best_cost
                        || (cost == best_cost && preference_rank(m) < preference_rank(best))
                    {
                        best = m;
                        best_cost = cost;
                    }
                }
                best
            }
        };
        let rejected: Vec<(JoinMethod, f64)> = PREFERENCE
            .iter()
            .filter(|m| **m != method && feasible(**m))
            .map(|m| (*m, planner.estimated_comparisons(*m)))
            .collect();
        // Methods probing indexes or following pointers read the inner
        // through the index; the rest consume an explicit inner tid list.
        let materialise_inner = matches!(
            method,
            JoinMethod::HashJoin | JoinMethod::SortMerge | JoinMethod::NestedLoops
        );
        Ok(JoinChoice {
            method,
            cost: planner.estimated_comparisons(method),
            rejected,
            src_col,
            materialise_inner,
        })
    }
}

struct JoinChoice {
    method: JoinMethod,
    cost: f64,
    rejected: Vec<(JoinMethod, f64)>,
    src_col: usize,
    materialise_inner: bool,
}

fn unbound(table: &str, bound: &[&str]) -> PlanError {
    PlanError::Unbound {
        table: table.to_string(),
        bound: bound.iter().map(ToString::to_string).collect(),
    }
}

fn resolve(catalog: &dyn PlanCatalog, table: &str, attr: &str) -> Result<AttrInfo, PlanError> {
    if catalog.cardinality(table).is_none() {
        return Err(PlanError::UnknownTable(table.to_string()));
    }
    catalog
        .resolve_attr(table, attr)
        .ok_or_else(|| PlanError::UnknownAttr {
            table: table.to_string(),
            attr: attr.to_string(),
        })
}

/// Flatten the linear spine into written-order steps
/// (`Ok` = filter, `Err` = join — just a cheap two-variant carrier).
fn collect_steps<'l>(node: &'l LogicalPlan, out: &mut Vec<Result<FilterFact<'l>, JoinFact<'l>>>) {
    match node {
        LogicalPlan::Scan { .. } => {}
        LogicalPlan::Filter {
            input,
            table,
            attr,
            pred,
        } => {
            collect_steps(input, out);
            out.push(Ok(FilterFact {
                table,
                attr,
                pred,
                info: AttrInfo::default(),
            }));
        }
        LogicalPlan::Join {
            input,
            source_table,
            outer_attr,
            inner_table,
            inner_attr,
        } => {
            collect_steps(input, out);
            out.push(Err(JoinFact {
                source_table,
                outer_attr,
                inner_table,
                inner_attr,
                outer: AttrInfo::default(),
                inner: AttrInfo::default(),
                written: 0,
            }));
        }
        LogicalPlan::Project { input, .. } | LogicalPlan::Distinct { input } => {
            collect_steps(input, out);
        }
    }
}

/// Was `table`'s filter written before every join? (Decides whether naive
/// placement may still use the base access path for it.)
fn filter_written_before_joins(logical: &LogicalPlan, table: &str) -> bool {
    let mut steps = Vec::new();
    collect_steps(logical, &mut steps);
    for step in steps {
        match step {
            Ok(f) if f.table == table => return true,
            Ok(_) => {}
            Err(_) => return false,
        }
    }
    false
}

/// Written position of a filter in the step list.
fn filter_written_pos(logical: &LogicalPlan, filt: &FilterFact) -> usize {
    let mut steps = Vec::new();
    collect_steps(logical, &mut steps);
    steps
        .iter()
        .position(|s| matches!(s, Ok(f) if f.table == filt.table && f.attr == filt.attr))
        .unwrap_or(usize::MAX)
}

fn assign_ids(node: &mut PlanNode, next: &mut usize) {
    node.id = *next;
    *next += 1;
    for c in &mut node.children {
        assign_ids(c, next);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::catalog::MemCatalog;
    use mmdb_storage::KeyValue;

    fn scan(t: &str) -> Box<LogicalPlan> {
        Box::new(LogicalPlan::Scan {
            table: t.to_string(),
        })
    }

    fn join(input: Box<LogicalPlan>, s: &str, oa: &str, i: &str, ia: &str) -> Box<LogicalPlan> {
        Box::new(LogicalPlan::Join {
            input,
            source_table: s.to_string(),
            outer_attr: oa.to_string(),
            inner_table: i.to_string(),
            inner_attr: ia.to_string(),
        })
    }

    fn find_joins(node: &PlanNode, out: &mut Vec<PlanNode>) {
        if matches!(node.kind, PlanNodeKind::Join { .. }) {
            out.push(node.clone());
        }
        for c in &node.children {
            find_joins(c, out);
        }
    }

    #[test]
    fn cost_minimal_beats_the_rule_of_thumb() {
        // §3.3.5's |R1| < |R2|/2 rule would pick TreeJoin here, but the
        // §3.3.4 formulas say HashJoin is cheaper — the tree planner goes
        // by cost.
        let mut cat = MemCatalog::new();
        cat.table("r1", 10_000, &["pk", "jcol"]);
        cat.table("r2", 30_000, &["pk", "jcol"])
            .with_ttree("r2", "jcol");
        let logical = join(scan("r1"), "r1", "jcol", "r2", "jcol");
        let planned = Planner::plan(&logical, &cat, &PlannerOptions::default()).unwrap();
        let mut joins = Vec::new();
        find_joins(&planned.root, &mut joins);
        assert_eq!(joins.len(), 1);
        let PlanNodeKind::Join {
            method, rejected, ..
        } = &joins[0].kind
        else {
            unreachable!()
        };
        assert_eq!(*method, JoinMethod::HashJoin);
        // The chosen method never estimates more than a rejected one.
        for (m, est) in rejected {
            assert!(
                joins[0].est_comparisons <= *est,
                "{method:?} {} vs {m:?} {est}",
                joins[0].est_comparisons
            );
        }
        assert!(rejected.iter().any(|(m, _)| *m == JoinMethod::TreeJoin));
    }

    #[test]
    fn small_outer_picks_tree_join() {
        let mut cat = MemCatalog::new();
        cat.table("r1", 1_000, &["pk", "jcol"]);
        cat.table("r2", 30_000, &["pk", "jcol"])
            .with_ttree("r2", "jcol");
        let logical = join(scan("r1"), "r1", "jcol", "r2", "jcol");
        let planned = Planner::plan(&logical, &cat, &PlannerOptions::default()).unwrap();
        let mut joins = Vec::new();
        find_joins(&planned.root, &mut joins);
        let PlanNodeKind::Join { method, .. } = &joins[0].kind else {
            unreachable!()
        };
        assert_eq!(*method, JoinMethod::TreeJoin);
    }

    #[test]
    fn precomputed_short_circuits_everything() {
        let mut cat = MemCatalog::new();
        cat.table("emp", 30_000, &["ename", "dept_ref"])
            .with_pointer("emp", "dept_ref")
            .with_ttree("emp", "dept_ref");
        cat.table("dept", 30_000, &["dname", "id"])
            .with_ttree("dept", "id");
        let logical = join(scan("emp"), "emp", "dept_ref", "dept", "id");
        let planned = Planner::plan(&logical, &cat, &PlannerOptions::default()).unwrap();
        let mut joins = Vec::new();
        find_joins(&planned.root, &mut joins);
        let PlanNodeKind::Join { method, .. } = &joins[0].kind else {
            unreachable!()
        };
        assert_eq!(*method, JoinMethod::Precomputed);
    }

    #[test]
    fn pushdown_moves_filter_into_inner_access() {
        let mut cat = MemCatalog::new();
        cat.table("emp", 1_000, &["ename", "dept_id"]);
        cat.table("dept", 100, &["dname", "id", "floor"])
            .with_ttree("dept", "id");
        let logical = Box::new(LogicalPlan::Filter {
            input: join(scan("emp"), "emp", "dept_id", "dept", "id"),
            table: "dept".to_string(),
            attr: "floor".to_string(),
            pred: Predicate::Eq(KeyValue::Int(2)),
        });
        let planned = Planner::plan(&logical, &cat, &PlannerOptions::default()).unwrap();
        let mut joins = Vec::new();
        find_joins(&planned.root, &mut joins);
        let j = &joins[0];
        // The filtered inner disables index probing; the join must consume
        // a materialised, filtered inner list.
        let PlanNodeKind::Join { method, .. } = &j.kind else {
            unreachable!()
        };
        assert!(matches!(
            method,
            JoinMethod::HashJoin | JoinMethod::SortMerge | JoinMethod::NestedLoops
        ));
        assert_eq!(j.children.len(), 2, "materialised inner access");
        assert!(
            matches!(&j.children[1].kind, PlanNodeKind::Select { table, .. } if table == "dept")
        );

        // Naive placement instead applies the filter over the joined list.
        let naive = Planner::plan(&logical, &cat, &PlannerOptions::naive()).unwrap();
        fn has_postfilter(n: &PlanNode) -> bool {
            matches!(n.kind, PlanNodeKind::PostFilter { .. })
                || n.children.iter().any(has_postfilter)
        }
        assert!(has_postfilter(&naive.root));
    }

    #[test]
    fn greedy_reorder_takes_cheaper_join_first() {
        // Written order joins the huge table first; the planner should
        // reorder to bind the tiny dimension first.
        let mut cat = MemCatalog::new();
        cat.table("fact", 1_000, &["pk", "big_id", "small_id"]);
        cat.table("big", 50_000, &["pk", "id"]);
        cat.table("small", 10, &["pk", "id"]);
        let logical = join(
            join(scan("fact"), "fact", "big_id", "big", "id"),
            "fact",
            "small_id",
            "small",
            "id",
        );
        let planned = Planner::plan(&logical, &cat, &PlannerOptions::default()).unwrap();
        assert_eq!(
            planned.tables,
            vec!["fact".to_string(), "small".into(), "big".into()],
            "small joined first"
        );
        // Without reordering, written order is preserved.
        let opts = PlannerOptions {
            reorder: false,
            ..PlannerOptions::default()
        };
        let naive = Planner::plan(&logical, &cat, &opts).unwrap();
        assert_eq!(
            naive.tables,
            vec!["fact".to_string(), "big".into(), "small".into()]
        );
    }

    #[test]
    fn forced_method_feasibility_is_checked() {
        let mut cat = MemCatalog::new();
        cat.table("r1", 100, &["pk", "jcol"]);
        cat.table("r2", 100, &["pk", "jcol"]);
        let logical = join(scan("r1"), "r1", "jcol", "r2", "jcol");
        let opts = PlannerOptions {
            forced_join: Some(JoinMethod::TreeMerge),
            ..PlannerOptions::default()
        };
        let err = Planner::plan(&logical, &cat, &opts).unwrap_err();
        assert!(matches!(err, PlanError::Infeasible { .. }));
        let opts = PlannerOptions {
            forced_join: Some(JoinMethod::NestedLoops),
            ..PlannerOptions::default()
        };
        let planned = Planner::plan(&logical, &cat, &opts).unwrap();
        let mut joins = Vec::new();
        find_joins(&planned.root, &mut joins);
        let PlanNodeKind::Join { method, .. } = &joins[0].kind else {
            unreachable!()
        };
        assert_eq!(*method, JoinMethod::NestedLoops);
    }

    #[test]
    fn validation_errors() {
        let mut cat = MemCatalog::new();
        cat.table("r1", 100, &["pk", "jcol"]);
        cat.table("r2", 100, &["pk", "jcol"]);
        let opts = PlannerOptions::default();
        // Unknown table.
        let logical = join(scan("r1"), "r1", "jcol", "nope", "jcol");
        assert!(matches!(
            Planner::plan(&logical, &cat, &opts).unwrap_err(),
            PlanError::UnknownTable(t) if t == "nope"
        ));
        // Unknown attribute.
        let logical = join(scan("r1"), "r1", "nope", "r2", "jcol");
        assert!(matches!(
            Planner::plan(&logical, &cat, &opts).unwrap_err(),
            PlanError::UnknownAttr { .. }
        ));
        // Unbound join source.
        let logical = join(scan("r1"), "r2", "jcol", "r2", "jcol");
        assert!(matches!(
            Planner::plan(&logical, &cat, &opts).unwrap_err(),
            PlanError::Unbound { .. }
        ));
        // Duplicate filter.
        let logical = Box::new(LogicalPlan::Filter {
            input: Box::new(LogicalPlan::Filter {
                input: scan("r1"),
                table: "r1".to_string(),
                attr: "pk".to_string(),
                pred: Predicate::Eq(KeyValue::Int(1)),
            }),
            table: "r1".to_string(),
            attr: "jcol".to_string(),
            pred: Predicate::Eq(KeyValue::Int(2)),
        });
        assert!(matches!(
            Planner::plan(&logical, &cat, &opts).unwrap_err(),
            PlanError::DuplicateFilter(_)
        ));
        // Unbound projection.
        let logical = Box::new(LogicalPlan::Project {
            input: scan("r1"),
            cols: vec![("r2".to_string(), "pk".to_string())],
        });
        assert!(matches!(
            Planner::plan(&logical, &cat, &opts).unwrap_err(),
            PlanError::Unbound { .. }
        ));
    }

    #[test]
    fn node_ids_are_preorder_contiguous() {
        let mut cat = MemCatalog::new();
        cat.table("r1", 100, &["pk", "jcol"]);
        cat.table("r2", 100, &["pk", "jcol"]);
        let logical = Box::new(LogicalPlan::Distinct {
            input: Box::new(LogicalPlan::Project {
                input: join(scan("r1"), "r1", "jcol", "r2", "jcol"),
                cols: vec![("r1".to_string(), "pk".to_string())],
            }),
        });
        let planned = Planner::plan(&logical, &cat, &PlannerOptions::default()).unwrap();
        fn collect(n: &PlanNode, out: &mut Vec<usize>) {
            out.push(n.id);
            for c in &n.children {
                collect(c, out);
            }
        }
        let mut ids = Vec::new();
        collect(&planned.root, &mut ids);
        assert_eq!(ids, (0..planned.node_count).collect::<Vec<_>>());
        assert_eq!(planned.root.id, 0);
        assert!(planned.distinct);
        assert_eq!(planned.columns.len(), 1);
    }
}
