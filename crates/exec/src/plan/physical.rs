//! The instrumented operator engine.
//!
//! A bound physical plan is a tree of [`Operator`] trait objects — one
//! abstraction covering every kernel in the crate: serial and parallel
//! scans, all six join methods (via [`JoinKernel`]), projection, and
//! duplicate elimination. Each operator materialises its output temp
//! list (the paper's operators all materialise — tuple *pointers*, never
//! tuple copies) and records per-operator runtime actuals into the shared
//! [`ExecContext`], keyed by plan-node id.

use crate::error::ExecError;
use crate::parallel::{parallel_project_hash, parallel_select_scan, ExecConfig};
use crate::plan::kernels::JoinKernel;
use crate::plan::planner::NodeId;
use crate::select::{select_hash_index, select_tree_index, Predicate};
use crate::{HashTupleAdapter, TupleAdapter};
use mmdb_index::stats::Snapshot;
use mmdb_index::traits::{OrderedIndex, UnorderedIndex};
use mmdb_storage::{KeyValue, Relation, ResultDescriptor, TempList, TupleId};
use std::collections::HashMap;
use std::marker::PhantomData;
use std::time::{Duration, Instant};

/// Runtime actuals for one operator, indexed by plan-node id.
#[derive(Debug, Clone, Copy, Default)]
pub struct OpActuals {
    /// Whether the operator ran (stays false if an ancestor failed).
    pub executed: bool,
    /// Rows consumed from the input subtree (0 for leaves).
    pub rows_in: usize,
    /// Rows produced.
    pub rows_out: usize,
    /// Operation counters attributable to this operator alone.
    pub stats: Snapshot,
    /// Wall-clock self time (children excluded).
    pub elapsed: Duration,
}

/// Shared execution state: the config plus per-operator actuals.
#[derive(Debug)]
pub struct ExecContext {
    /// Execution config (degree of parallelism etc.) seen by every
    /// operator.
    pub cfg: ExecConfig,
    /// Actuals slot per plan node, indexed by [`NodeId`].
    pub actuals: Vec<OpActuals>,
}

impl ExecContext {
    /// A context with `node_count` zeroed actuals slots.
    #[must_use]
    pub fn new(cfg: ExecConfig, node_count: usize) -> Self {
        ExecContext {
            cfg,
            actuals: vec![OpActuals::default(); node_count],
        }
    }

    /// Record one operator's actuals (grows the table if the plan was
    /// bound with more nodes than declared).
    pub fn record(
        &mut self,
        id: NodeId,
        rows_in: usize,
        rows_out: usize,
        stats: Snapshot,
        elapsed: Duration,
    ) {
        if id >= self.actuals.len() {
            self.actuals.resize(id + 1, OpActuals::default());
        }
        self.actuals[id] = OpActuals {
            executed: true,
            rows_in,
            rows_out,
            stats,
            elapsed,
        };
    }
}

/// A bound physical operator: executes, materialises its output temp
/// list, and records actuals under its plan-node id.
pub trait Operator {
    /// Run this operator (and its inputs).
    ///
    /// # Errors
    /// [`ExecError`] on storage faults or kernel-level plan mismatches.
    fn execute(&mut self, ctx: &mut ExecContext) -> Result<TempList, ExecError>;
}

/// A boxed operator borrowing relations/indices for `'a`.
pub type BoxedOperator<'a> = Box<dyn Operator + 'a>;

/// Full scan: every live tuple of a relation, as an arity-1 list.
pub struct FullScanOp<'a> {
    /// Plan-node id.
    pub id: NodeId,
    /// The scanned relation.
    pub rel: &'a Relation,
}

impl Operator for FullScanOp<'_> {
    fn execute(&mut self, ctx: &mut ExecContext) -> Result<TempList, ExecError> {
        let t = Instant::now();
        let out = TempList::from_tids(self.rel.tids());
        ctx.record(self.id, 0, out.len(), Snapshot::default(), t.elapsed());
        Ok(out)
    }
}

/// Sequential-scan selection (§4's path of last resort), parallelised
/// over partitions when the config allows.
pub struct SeqFilterOp<'a> {
    /// Plan-node id.
    pub id: NodeId,
    /// The filtered relation.
    pub rel: &'a Relation,
    /// Filtered attribute index.
    pub attr: usize,
    /// The predicate.
    pub pred: Predicate,
}

impl Operator for SeqFilterOp<'_> {
    fn execute(&mut self, ctx: &mut ExecContext) -> Result<TempList, ExecError> {
        let t = Instant::now();
        let rows_in = self.rel.len();
        let out = parallel_select_scan(self.rel, self.attr, &self.pred, ctx.cfg)?;
        // The scan path tests every live tuple exactly once.
        let stats = Snapshot {
            comparisons: rows_in as u64,
            ..Snapshot::default()
        };
        ctx.record(self.id, rows_in, out.len(), stats, t.elapsed());
        Ok(out)
    }
}

/// T-Tree lookup selection (point or range).
pub struct TreeLookupOp<'a, A: TupleAdapter, O: OrderedIndex<A>> {
    /// Plan-node id.
    pub id: NodeId,
    /// The order-preserving index probed.
    pub index: &'a O,
    /// The predicate.
    pub pred: Predicate,
    /// Adapter marker.
    pub _adapter: PhantomData<A>,
}

impl<A: TupleAdapter, O: OrderedIndex<A>> Operator for TreeLookupOp<'_, A, O> {
    fn execute(&mut self, ctx: &mut ExecContext) -> Result<TempList, ExecError> {
        let before = self.index.stats();
        let t = Instant::now();
        let out = select_tree_index(self.index, &self.pred);
        let stats = self.index.stats().since(&before);
        ctx.record(self.id, 0, out.len(), stats, t.elapsed());
        Ok(out)
    }
}

/// Hash lookup selection (exact match only — §4's fastest path).
pub struct HashLookupOp<'a, A: HashTupleAdapter, U: UnorderedIndex<A>> {
    /// Plan-node id.
    pub id: NodeId,
    /// The hash index probed.
    pub index: &'a U,
    /// The probed key.
    pub key: KeyValue,
    /// Adapter marker.
    pub _adapter: PhantomData<A>,
}

impl<A: HashTupleAdapter, U: UnorderedIndex<A>> Operator for HashLookupOp<'_, A, U> {
    fn execute(&mut self, ctx: &mut ExecContext) -> Result<TempList, ExecError> {
        let before = self.index.stats();
        let t = Instant::now();
        let out = select_hash_index(self.index, &self.key);
        let stats = self.index.stats().since(&before);
        ctx.record(self.id, 0, out.len(), stats, t.elapsed());
        Ok(out)
    }
}

/// In-place filter over an already-joined temp list (naive predicate
/// placement): tests `rel.attr` of the tuple in column `src_col`.
pub struct PostFilterOp<'a> {
    /// Plan-node id.
    pub id: NodeId,
    /// The input subtree.
    pub child: BoxedOperator<'a>,
    /// Relation whose attribute is tested.
    pub rel: &'a Relation,
    /// Tested attribute index.
    pub attr: usize,
    /// The predicate.
    pub pred: Predicate,
    /// Temp-list column holding `rel`'s tuple ids.
    pub src_col: usize,
    /// Planner row estimate for this node, used to pre-size the output.
    pub est_rows: usize,
}

impl Operator for PostFilterOp<'_> {
    fn execute(&mut self, ctx: &mut ExecContext) -> Result<TempList, ExecError> {
        let input = self.child.execute(ctx)?;
        let t = Instant::now();
        let mut out = TempList::with_capacity(input.arity(), self.est_rows.min(input.len()));
        for i in 0..input.len() {
            let row = input.row(i);
            let v = self.rel.field(row[self.src_col], self.attr)?;
            if self.pred.matches(&v) {
                out.push(row)?;
            }
        }
        let stats = Snapshot {
            comparisons: input.len() as u64,
            ..Snapshot::default()
        };
        ctx.record(self.id, input.len(), out.len(), stats, t.elapsed());
        Ok(out)
    }
}

/// Equijoin: dedups the outer column, runs a [`JoinKernel`], and widens
/// every input row with its matching inner tuple pointers.
pub struct JoinOp<'a> {
    /// Plan-node id.
    pub id: NodeId,
    /// The outer input subtree.
    pub child: BoxedOperator<'a>,
    /// Materialised inner access (only for tid-consuming methods).
    pub inner: Option<BoxedOperator<'a>>,
    /// Temp-list column supplying outer tuple ids.
    pub src_col: usize,
    /// The bound join kernel.
    pub kernel: Box<dyn JoinKernel + 'a>,
    /// Planner row estimate for this node, used to pre-size the output.
    pub est_rows: usize,
}

impl Operator for JoinOp<'_> {
    fn execute(&mut self, ctx: &mut ExecContext) -> Result<TempList, ExecError> {
        let input = self.child.execute(ctx)?;
        let inner_tids: Option<Vec<TupleId>> = match &mut self.inner {
            Some(op) => Some(op.execute(ctx)?.column(0)),
            None => None,
        };
        let t = Instant::now();
        // The kernel joins each distinct outer tuple once; widening
        // re-expands per input row below.
        let mut outer_tids = input.column(self.src_col);
        outer_tids.sort_unstable();
        outer_tids.dedup();
        let jout = self
            .kernel
            .run(&outer_tids, inner_tids.as_deref(), ctx.cfg)?;
        let mut matches: HashMap<TupleId, Vec<TupleId>> = HashMap::with_capacity(outer_tids.len());
        for pair in jout.pairs.iter() {
            matches.entry(pair[0]).or_default().push(pair[1]);
        }
        // Pair count bounds the output when outer rows are distinct; the
        // planner estimate covers the duplicated-outer expansion.
        let mut out = TempList::with_capacity(
            input.arity() + 1,
            jout.pairs.len().max(self.est_rows).min(65_536),
        );
        let mut widened = Vec::with_capacity(input.arity() + 1);
        for i in 0..input.len() {
            let row = input.row(i);
            if let Some(ms) = matches.get(&row[self.src_col]) {
                for m in ms {
                    widened.clear();
                    widened.extend_from_slice(row);
                    widened.push(*m);
                    out.push(&widened)?;
                }
            }
        }
        ctx.record(self.id, input.len(), out.len(), jout.stats, t.elapsed());
        Ok(out)
    }
}

/// Output-column selection. Width reduction never happens physically
/// (§2.3 — result descriptors define the visible fields), so this is a
/// pass-through that records row counts for the profile.
pub struct ProjectOp<'a> {
    /// Plan-node id.
    pub id: NodeId,
    /// The input subtree.
    pub child: BoxedOperator<'a>,
}

impl Operator for ProjectOp<'_> {
    fn execute(&mut self, ctx: &mut ExecContext) -> Result<TempList, ExecError> {
        let input = self.child.execute(ctx)?;
        let t = Instant::now();
        let n = input.len();
        ctx.record(self.id, n, n, Snapshot::default(), t.elapsed());
        Ok(input)
    }
}

/// Duplicate elimination by hashing (§3.4's winner) over the projected
/// columns, parallelised when the config allows.
pub struct DistinctOp<'a> {
    /// Plan-node id.
    pub id: NodeId,
    /// The input subtree.
    pub child: BoxedOperator<'a>,
    /// Projected output columns (dedup key).
    pub desc: ResultDescriptor,
    /// Source relation per temp-list column.
    pub sources: Vec<&'a Relation>,
}

impl Operator for DistinctOp<'_> {
    fn execute(&mut self, ctx: &mut ExecContext) -> Result<TempList, ExecError> {
        let input = self.child.execute(ctx)?;
        let t = Instant::now();
        let out = parallel_project_hash(&input, &self.desc, &self.sources, ctx.cfg)?;
        ctx.record(self.id, input.len(), out.rows.len(), out.stats, t.elapsed());
        Ok(out.rows)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::join::fixtures::rel_with_values;
    use crate::plan::cost::JoinMethod;
    use crate::plan::kernels::SidesKernel;
    use mmdb_storage::OutputField;

    #[test]
    fn operator_tree_executes_and_records_actuals() {
        let (orel, _otids) = rel_with_values("outer", &[1, 2, 2, 5, 9]);
        let (irel, _itids) = rel_with_values("inner", &[2, 2, 3, 5, 5, 7]);
        // scan(outer) -> filter(jcol in [2,5]) -> hash join inner
        // -> project [outer.jcol] -> distinct
        let scan: BoxedOperator<'_> = Box::new(FullScanOp { id: 4, rel: &orel });
        let filter: BoxedOperator<'_> = Box::new(PostFilterOp {
            id: 3,
            child: scan,
            rel: &orel,
            attr: 1,
            pred: Predicate::between(KeyValue::Int(2), KeyValue::Int(5)),
            src_col: 0,
            est_rows: 3,
        });
        let inner_scan: BoxedOperator<'_> = Box::new(FullScanOp { id: 5, rel: &irel });
        let join: BoxedOperator<'_> = Box::new(JoinOp {
            id: 2,
            child: filter,
            inner: Some(inner_scan),
            src_col: 0,
            kernel: Box::new(SidesKernel {
                outer_rel: &orel,
                outer_attr: 1,
                inner_rel: &irel,
                inner_attr: 1,
                method: JoinMethod::HashJoin,
            }),
            est_rows: 6,
        });
        let project: BoxedOperator<'_> = Box::new(ProjectOp { id: 1, child: join });
        let desc = ResultDescriptor::new(vec![OutputField::new(0, 1, "jcol")]);
        let mut distinct = DistinctOp {
            id: 0,
            child: project,
            desc,
            sources: vec![&orel, &irel],
        };
        let mut ctx = ExecContext::new(ExecConfig::serial(), 6);
        let out = distinct.execute(&mut ctx).unwrap();
        // Outer survivors: jcol ∈ {2, 2, 5}. Joins: 2→two matches each,
        // 5→two matches. Widened rows: 2*2 + 2*2 + 1*2 = wait — outers
        // [2,2,5]; each 2 matches two inner tuples (4 rows), 5 matches
        // two (2 rows) → 6 rows; distinct on outer.jcol → {2, 5}.
        assert_eq!(out.len(), 2);
        assert!(ctx.actuals.iter().all(|a| a.executed));
        let join_act = ctx.actuals[2];
        assert_eq!(join_act.rows_in, 3);
        assert_eq!(join_act.rows_out, 6);
        let filt_act = ctx.actuals[3];
        assert_eq!(filt_act.rows_in, 5);
        assert_eq!(filt_act.rows_out, 3);
        assert_eq!(filt_act.stats.comparisons, 5);
        let dist_act = ctx.actuals[0];
        assert_eq!(dist_act.rows_in, 6);
        assert_eq!(dist_act.rows_out, 2);
        assert!(dist_act.stats.hash_calls > 0);
    }

    #[test]
    fn index_lookup_operators_record_index_stats() {
        use mmdb_index::{ChainedBucketHash, TTree, TTreeConfig};
        use mmdb_storage::AttrAdapter;
        let (rel, tids) = rel_with_values("r", &[4, 8, 15, 16, 23, 42]);
        let mut ttree = TTree::new(AttrAdapter::new(&rel, 1), TTreeConfig::with_node_size(4));
        let mut hash = ChainedBucketHash::with_capacity(AttrAdapter::new(&rel, 1), 16);
        for t in &tids {
            ttree.insert(*t);
            hash.insert(*t);
        }
        let mut ctx = ExecContext::new(ExecConfig::serial(), 2);
        let mut tree_op = TreeLookupOp {
            id: 0,
            index: &ttree,
            pred: Predicate::greater(KeyValue::Int(15)),
            _adapter: PhantomData,
        };
        let out = tree_op.execute(&mut ctx).unwrap();
        assert_eq!(out.len(), 3, "16, 23, 42");
        let mut hash_op = HashLookupOp {
            id: 1,
            index: &hash,
            key: KeyValue::Int(23),
            _adapter: PhantomData,
        };
        let out = hash_op.execute(&mut ctx).unwrap();
        assert_eq!(out.len(), 1);
        assert!(ctx.actuals[0].executed && ctx.actuals[1].executed);
        assert_eq!(ctx.actuals[0].rows_out, 3);
        assert_eq!(ctx.actuals[1].rows_out, 1);
    }
}
