//! Two-phase query compilation (the tentpole of the query layer).
//!
//! A query is first a [`LogicalPlan`] — *what* was asked, in written
//! order. The cost-based [`Planner`] then consults a [`PlanCatalog`] and
//! the §3.3.4 comparison formulas to produce a [`PlannedQuery`]: access
//! paths chosen per §4's selection preference, one join method per join
//! (cost-minimal over feasible methods, §4 preference order as the
//! tie-break), filters pushed below joins, and joins greedily reordered.
//! The catalog layer binds that spec to concrete relations and indices as
//! a tree of [`Operator`]s — one abstraction over every kernel in this
//! crate — which execute against an [`ExecContext`] that records
//! per-operator actuals. [`PlanProfile`] zips estimates with actuals into
//! a stable explain rendering.

pub mod catalog;
pub mod cost;
pub mod kernels;
pub mod logical;
pub mod physical;
pub mod planner;
pub mod profile;

pub use catalog::{AttrInfo, MemCatalog, PlanCatalog};
pub use kernels::{JoinKernel, PrecomputedKernel, SidesKernel, TreeJoinKernel, TreeMergeKernel};
pub use logical::LogicalPlan;
pub use physical::{
    BoxedOperator, DistinctOp, ExecContext, FullScanOp, HashLookupOp, JoinOp, OpActuals, Operator,
    PostFilterOp, ProjectOp, SeqFilterOp, TreeLookupOp,
};
pub use planner::{
    selectivity, CachedMode, NodeId, PlanError, PlanNode, PlanNodeKind, PlannedQuery, Planner,
    PlannerOptions, EQ_SELECTIVITY, RANGE_SELECTIVITY,
};
pub use profile::{node_label, OpProfile, PlanProfile};
