//! Query processing operators for the MM-DBMS (§3–§4 of Lehman & Carey,
//! SIGMOD 1986).
//!
//! * **Selection** ([`select`]): the three §4 access paths — hash lookup,
//!   tree lookup (point and range), and sequential scan through an
//!   unrelated index.
//! * **Join** ([`join`]): all the methods of §3.3.2 — Nested Loops, Hash
//!   Join (builds a Chained Bucket table on the inner), Tree Join (uses an
//!   existing T-Tree), Sort Merge (builds and sorts array indexes), Tree
//!   Merge (merges two existing T-Trees), and the §2.1 precomputed
//!   pointer join.
//! * **Projection** ([`project`]): duplicate elimination by Hashing
//!   \[DKO84\] (table size |R|/2) and by Sort Scan \[BBD83\].
//! * **Partition-parallel execution** ([`parallel`]): morsel-style
//!   multicore variants of the scan, join, and dedup hot paths, bit-
//!   identical to their serial counterparts ([`parallel::ExecConfig`]).
//! * **Two-phase query compilation** ([`plan`]): typed logical plans, a
//!   cost-based planner over the §3.3.4 formulas (pushdown, join
//!   reordering, method choice) with the §4 access-path preference
//!   ordering ([`plan::cost`]), and an instrumented operator engine
//!   with per-operator estimates-vs-actuals profiles.
//! * **Intermediate-result reuse** ([`cache`]): bounded plan-keyed
//!   memoisation of selection/join temp lists with per-partition
//!   version-stamp invalidation and cost-weighted LRU eviction.
//!
//! Every operator consumes and produces §2.3 temporary lists — tuple
//! pointers only; attribute values are extracted exactly when compared and
//! never copied into results.

#![warn(missing_docs)]
#![forbid(unsafe_code)]
#![cfg_attr(test, allow(clippy::unwrap_used, clippy::expect_used))]

pub mod cache;
pub mod error;
pub mod join;
pub mod parallel;
pub mod plan;
pub mod project;
pub mod select;

use mmdb_index::adapter::{Adapter, HashAdapter};
use mmdb_storage::{KeyValue, TupleId};

/// Any adapter that indexes tuple pointers by a [`KeyValue`]-comparable
/// attribute — the shape every MM-DBMS index adapter has (§2.2). Blanket
/// implemented; used as a bound by the index-typed operators.
pub trait TupleAdapter: Adapter<Entry = TupleId, Key = KeyValue> {}
impl<T: Adapter<Entry = TupleId, Key = KeyValue>> TupleAdapter for T {}

/// [`TupleAdapter`] that can also hash its keys (hash-index operators).
pub trait HashTupleAdapter: HashAdapter<Entry = TupleId, Key = KeyValue> {}
impl<T: HashAdapter<Entry = TupleId, Key = KeyValue>> HashTupleAdapter for T {}

pub use cache::{
    apply_cache, covers, CacheEntry, CacheReport, CachedReadOp, DeltaApplyOp, DeltaEvent, DeltaRec,
    DeltaView, MemoizeOp, RefilterOp, ReuseCache, ReuseKey, StoreTicket, VersionSource,
    DELTA_BUDGET,
};
pub use error::ExecError;
pub use join::{
    hash_join, nested_loops_join, precomputed_join, sort_merge_join, theta_nested_loops_join,
    tree_ineq_join, tree_join, tree_merge_join, IneqOp, JoinOutput, JoinSide, ThetaOp,
};
pub use parallel::{
    merge_indexed, parallel_hash_join, parallel_nested_loops_join, parallel_project_hash,
    parallel_select_scan, parallel_theta_join, run_tasks, ExecConfig,
};
pub use plan::cost::{IndexAvailability, JoinMethod, SelectPath};
pub use plan::{
    CachedMode, ExecContext, LogicalPlan, PlanError, PlanProfile, PlannedQuery, Planner,
    PlannerOptions,
};
pub use project::{project_hash, project_hash_sized, project_sort, ProjectOutput};
pub use select::{select_hash_index, select_scan, select_scan_iter, select_tree_index, Predicate};
