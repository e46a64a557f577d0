//! Plan profiles: the planner's estimates zipped with runtime actuals,
//! rendered as a stable indented explain.
//!
//! [`PlanProfile::assemble`] walks a [`PlannedQuery`] pre-order and joins
//! each node with its [`OpActuals`] slot. [`PlanProfile::render`] is the
//! explain text — deliberately free of wall-clock times so snapshots are
//! stable; elapsed times stay available on each [`OpProfile`].

use crate::plan::cost::JoinMethod;
use crate::plan::physical::{ExecContext, OpActuals};
use crate::plan::planner::{CachedMode, NodeId, PlanNode, PlanNodeKind, PlannedQuery};
use mmdb_index::stats::Snapshot;
use std::time::Duration;

/// One operator's estimates and actuals.
#[derive(Debug, Clone)]
pub struct OpProfile {
    /// Plan-node id (pre-order).
    pub id: NodeId,
    /// Tree depth (root = 0) — drives explain indentation.
    pub depth: usize,
    /// Stable human-readable operator label.
    pub label: String,
    /// Planner-estimated output rows.
    pub est_rows: f64,
    /// Planner-estimated comparisons (§3.3.4 units).
    pub est_comparisons: f64,
    /// Whether the operator actually ran.
    pub executed: bool,
    /// Actual rows consumed.
    pub rows_in: usize,
    /// Actual rows produced.
    pub rows_out: usize,
    /// Actual operation counters.
    pub stats: Snapshot,
    /// Actual wall-clock self time.
    pub elapsed: Duration,
    /// Chosen join method (join nodes only).
    pub method: Option<JoinMethod>,
    /// Feasible alternatives the planner rejected, with estimates.
    pub rejected: Vec<(JoinMethod, f64)>,
}

/// The full per-operator profile of one executed (or merely planned)
/// query.
#[derive(Debug, Clone, Default)]
pub struct PlanProfile {
    /// Operators in pre-order (parents before children).
    pub ops: Vec<OpProfile>,
    /// Reuse-cache counters at the time the profile was assembled
    /// (all-zero when the cache is off). Deliberately absent from
    /// [`PlanProfile::render`] so explain snapshots stay stable.
    pub cache: crate::cache::CacheReport,
}

impl PlanProfile {
    /// Zip `planned`'s estimates with the actuals recorded in `ctx`.
    #[must_use]
    pub fn assemble(planned: &PlannedQuery, ctx: &ExecContext) -> PlanProfile {
        let mut ops = Vec::with_capacity(planned.node_count);
        walk(&planned.root, 0, &ctx.actuals, &mut ops);
        PlanProfile {
            ops,
            cache: crate::cache::CacheReport::default(),
        }
    }

    /// Profile of an unexecuted plan (estimates only).
    #[must_use]
    pub fn estimates(planned: &PlannedQuery) -> PlanProfile {
        let mut ops = Vec::with_capacity(planned.node_count);
        walk(&planned.root, 0, &[], &mut ops);
        PlanProfile {
            ops,
            cache: crate::cache::CacheReport::default(),
        }
    }

    /// Stable indented rendering: one line per operator with estimated
    /// vs. actual rows and comparisons (`-` before execution), plus a
    /// `rejected:` line under each join that had feasible alternatives.
    /// Never includes wall-clock times.
    #[must_use]
    pub fn render(&self) -> String {
        let mut out = String::new();
        for op in &self.ops {
            let indent = "  ".repeat(op.depth);
            let est_rows = op.est_rows.round() as u64;
            let est_cmp = op.est_comparisons.round() as u64;
            if op.executed {
                out.push_str(&format!(
                    "{indent}{}  [est_rows={est_rows} act_rows={} est_cmp={est_cmp} act_cmp={}]\n",
                    op.label, op.rows_out, op.stats.comparisons
                ));
            } else {
                out.push_str(&format!(
                    "{indent}{}  [est_rows={est_rows} act_rows=- est_cmp={est_cmp} act_cmp=-]\n",
                    op.label
                ));
            }
            if !op.rejected.is_empty() {
                let alts: Vec<String> = op
                    .rejected
                    .iter()
                    .map(|(m, est)| format!("{m:?} est_cmp={}", est.round() as u64))
                    .collect();
                out.push_str(&format!("{indent}    rejected: {}\n", alts.join(", ")));
            }
        }
        out
    }

    /// Field-wise sum of every operator's actual counters.
    #[must_use]
    pub fn total_stats(&self) -> Snapshot {
        self.ops
            .iter()
            .fold(Snapshot::default(), |acc, op| acc.plus(&op.stats))
    }

    /// Sum of every operator's actual self time.
    #[must_use]
    pub fn total_elapsed(&self) -> Duration {
        self.ops.iter().map(|op| op.elapsed).sum()
    }

    /// The join operators, in pre-order.
    #[must_use]
    pub fn joins(&self) -> Vec<&OpProfile> {
        self.ops.iter().filter(|op| op.method.is_some()).collect()
    }
}

/// The stable label for a plan node.
#[must_use]
pub fn node_label(kind: &PlanNodeKind) -> String {
    match kind {
        PlanNodeKind::Scan { table } => format!("scan {table}"),
        PlanNodeKind::Select {
            table,
            attr,
            pred,
            path,
        } => format!("select {table}.{attr} {pred} via {path:?}"),
        PlanNodeKind::PostFilter {
            table, attr, pred, ..
        } => format!("filter {table}.{attr} {pred}"),
        PlanNodeKind::Join {
            method,
            source_table,
            outer_attr,
            inner_table,
            inner_attr,
            ..
        } => format!("join[{method:?}] {source_table}.{outer_attr} = {inner_table}.{inner_attr}"),
        PlanNodeKind::Project { cols } => {
            let names: Vec<String> = cols.iter().map(|(t, a)| format!("{t}.{a}")).collect();
            format!("project [{}]", names.join(", "))
        }
        PlanNodeKind::Distinct => "distinct[Hash]".to_string(),
        PlanNodeKind::Cached {
            canonical, mode, ..
        } => match mode {
            CachedMode::Exact => format!("[cached] {canonical}"),
            CachedMode::Subsumed {
                entry_canonical, ..
            } => format!("[cached⊆ refilter] {canonical} from {entry_canonical}"),
            CachedMode::Delta { pending } => format!("[cached+Δ] {canonical} (pending={pending})"),
        },
    }
}

fn walk(node: &PlanNode, depth: usize, actuals: &[OpActuals], out: &mut Vec<OpProfile>) {
    let act = actuals.get(node.id).copied().unwrap_or_default();
    let (method, rejected) = match &node.kind {
        PlanNodeKind::Join {
            method, rejected, ..
        } => (Some(*method), rejected.clone()),
        _ => (None, Vec::new()),
    };
    out.push(OpProfile {
        id: node.id,
        depth,
        label: node_label(&node.kind),
        est_rows: node.est_rows,
        est_comparisons: node.est_comparisons,
        executed: act.executed,
        rows_in: act.rows_in,
        rows_out: act.rows_out,
        stats: act.stats,
        elapsed: act.elapsed,
        method,
        rejected,
    });
    for c in &node.children {
        walk(c, depth + 1, actuals, out);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::catalog::MemCatalog;
    use crate::plan::logical::LogicalPlan;
    use crate::plan::planner::{Planner, PlannerOptions};
    use crate::select::Predicate;
    use mmdb_storage::KeyValue;

    fn sample_plan() -> PlannedQuery {
        let mut cat = MemCatalog::new();
        cat.table("emp", 1_000, &["ename", "age", "dept_id"])
            .with_ttree("emp", "age");
        cat.table("dept", 100, &["dname", "id"])
            .with_ttree("dept", "id");
        let logical = LogicalPlan::Project {
            cols: vec![("emp".to_string(), "ename".to_string())],
            input: Box::new(LogicalPlan::Join {
                source_table: "emp".to_string(),
                outer_attr: "dept_id".to_string(),
                inner_table: "dept".to_string(),
                inner_attr: "id".to_string(),
                input: Box::new(LogicalPlan::Filter {
                    table: "emp".to_string(),
                    attr: "age".to_string(),
                    pred: Predicate::greater(KeyValue::Int(65)),
                    input: Box::new(LogicalPlan::Scan {
                        table: "emp".to_string(),
                    }),
                }),
            }),
        };
        #[allow(clippy::unwrap_used)]
        Planner::plan(&logical, &cat, &PlannerOptions::default()).unwrap()
    }

    #[test]
    fn estimates_render_is_stable_and_marks_unexecuted() {
        let planned = sample_plan();
        let profile = PlanProfile::estimates(&planned);
        let text = profile.render();
        assert!(text.contains("project [emp.ename]"), "{text}");
        assert!(
            text.contains("select emp.age > 65 via TreeLookup"),
            "{text}"
        );
        assert!(text.contains("act_rows=-"), "{text}");
        assert!(text.contains("rejected:"), "{text}");
        // Pre-order: project before join before select.
        let p = text.find("project").unwrap();
        let j = text.find("join[").unwrap();
        let s = text.find("select emp.age").unwrap();
        assert!(p < j && j < s);
        // Depth increases down the spine.
        assert_eq!(profile.ops[0].depth, 0);
        assert!(profile.ops.iter().any(|op| op.depth == 2));
        // Join profile exposes the choice for cost assertions.
        let joins = profile.joins();
        assert_eq!(joins.len(), 1);
        for (_, est) in &joins[0].rejected {
            assert!(joins[0].est_comparisons <= *est);
        }
    }
}
