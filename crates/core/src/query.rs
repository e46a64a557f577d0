//! The fluent query layer over [`Database`]: filter → join… →
//! project(distinct) pipelines, compiled in two phases. The builder
//! lowers to a typed [`LogicalPlan`]; the cost-based
//! [`Planner`](mmdb_exec::Planner) picks access paths, join methods,
//! predicate placement, and join order from the §3.3.4 comparison
//! formulas; and the bound operator tree executes with per-operator
//! instrumentation. Every [`QueryOutput`] carries the full
//! estimates-vs-actuals [`PlanProfile`].
//!
//! ```
//! # use mmdb_core::{Database, IndexKind};
//! # use mmdb_storage::{AttrType, KeyValue, Schema};
//! # use mmdb_exec::Predicate;
//! # let mut db = Database::in_memory();
//! # db.create_table("emp", Schema::of(&[("name", AttrType::Str), ("age", AttrType::Int), ("dept_id", AttrType::Int)])).unwrap();
//! # db.create_index("e1", "emp", "age", IndexKind::TTree).unwrap();
//! # db.create_table("dept", Schema::of(&[("dname", AttrType::Str), ("id", AttrType::Int)])).unwrap();
//! # db.create_index("d1", "dept", "id", IndexKind::TTree).unwrap();
//! # let mut t = db.begin();
//! # db.insert(&mut t, "dept", vec!["Toy".into(), 1i64.into()]).unwrap();
//! # db.insert(&mut t, "emp", vec!["Dave".into(), 70i64.into(), 1i64.into()]).unwrap();
//! # db.commit(t).unwrap();
//! let result = db
//!     .query("emp")
//!     .filter("age", Predicate::greater(KeyValue::Int(65)))
//!     .join("dept_id", "dept", "id")
//!     .project(&[("emp", "name"), ("dept", "dname")])
//!     .run()
//!     .unwrap();
//! assert_eq!(result.rows.len(), 1);
//! println!("{}", result.profile.render());
//! ```

use crate::db::Database;
use crate::error::DbError;
use mmdb_exec::plan::{LogicalPlan, NodeId, PlanProfile, PlannedQuery, Planner, PlannerOptions};
use mmdb_exec::{ExecConfig, ExecContext, JoinMethod, Predicate, StoreTicket};
use mmdb_recovery::StableStore;
use mmdb_storage::{OutputField, OwnedValue, Relation, ResultDescriptor, TempList};
use std::collections::HashMap;

/// One written pipeline step (order matters for naive placement).
enum Step {
    Filter {
        table: String,
        attr: String,
        pred: Predicate,
    },
    Join {
        source_table: String,
        outer_attr: String,
        inner_table: String,
        inner_attr: String,
    },
}

/// A query under construction (see the module docs for the shape).
pub struct QueryBuilder<'a, S: StableStore> {
    db: &'a Database<S>,
    base: String,
    steps: Vec<Step>,
    projection: Vec<(String, String)>,
    distinct: bool,
    dop: Option<usize>,
    pushdown: bool,
    reorder: bool,
    forced_join: Option<JoinMethod>,
    cache: Option<bool>,
}

/// A finished query: materialized rows plus the per-operator profile
/// that produced them.
#[derive(Debug)]
pub struct QueryOutput {
    /// Output column names (`table.attr`).
    pub columns: Vec<String>,
    /// Materialized rows (the single copy the engine ever makes).
    pub rows: Vec<Vec<OwnedValue>>,
    /// Per-operator estimates and actuals; `profile.render()` is the
    /// explain text.
    pub profile: PlanProfile,
}

/// A query after plan → bind → execute: the result temp list plus what
/// materialising it needs. The relations stay read-locked while it lives.
struct Executed<'r> {
    planned: PlannedQuery,
    list: TempList,
    desc: ResultDescriptor,
    rels: &'r [&'r Relation],
    ctx: ExecContext,
}

impl<S: StableStore> Database<S> {
    /// Start a fluent query rooted at `table`.
    pub fn query(&self, table: &str) -> QueryBuilder<'_, S> {
        QueryBuilder {
            db: self,
            base: table.to_string(),
            steps: Vec::new(),
            projection: Vec::new(),
            distinct: false,
            dop: None,
            pushdown: true,
            reorder: true,
            forced_join: None,
            cache: None,
        }
    }

    /// Selection with the §4 preference ordering: hash lookup, then tree
    /// lookup, then sequential scan. This is the planner's single-table
    /// path — `query(table).filter(attr, pred)` without the
    /// materialisation — so it returns the same tuples in the same order.
    pub fn select(&self, table: &str, attr: &str, pred: &Predicate) -> Result<TempList, DbError> {
        let logical = LogicalPlan::Filter {
            input: Box::new(LogicalPlan::Scan {
                table: table.to_string(),
            }),
            table: table.to_string(),
            attr: attr.to_string(),
            pred: pred.clone(),
        };
        let cfg = self.exec_config();
        self.execute(
            &logical,
            &PlannerOptions::default(),
            cfg,
            cfg.cache,
            |done| Ok(done.list),
        )
    }

    /// Plan `logical`. With `use_cache`, fresh cached results substitute
    /// for plan subtrees, and the returned tickets mark the cacheable
    /// subtrees a run should retain.
    fn plan(
        &self,
        logical: &LogicalPlan,
        options: &PlannerOptions,
        use_cache: bool,
    ) -> Result<(PlannedQuery, HashMap<NodeId, StoreTicket>), DbError> {
        let mut planned =
            Planner::plan(logical, self, options).map_err(|e| DbError::BadQuery(e.to_string()))?;
        let tickets = if use_cache {
            mmdb_exec::apply_cache(&mut planned, &mut self.reuse_cache().lock(), self)
        } else {
            HashMap::new()
        };
        Ok((planned, tickets))
    }

    /// Plan `logical`, bind the plan to this database's relations and
    /// indices, execute it, and hand the result to `finish` while the
    /// relations are still read-locked.
    fn execute<R>(
        &self,
        logical: &LogicalPlan,
        options: &PlannerOptions,
        cfg: ExecConfig,
        use_cache: bool,
        finish: impl FnOnce(Executed<'_>) -> Result<R, DbError>,
    ) -> Result<R, DbError> {
        // Cache substitution is sound because `&self` is held until
        // execution finishes: no write can move the stamped versions in
        // between.
        let (planned, tickets) = self.plan(logical, options, use_cache)?;

        #[cfg(feature = "check")]
        {
            // Checked *after* substitution: the invariants must hold for
            // the plan we actually execute, absorbed work included.
            let report = mmdb_check::plan_checks::check_plans(logical, &planned, self);
            if let Err(msg) = report.into_result() {
                return Err(DbError::BadQuery(format!("plan invariants: {msg}")));
            }
        }

        // Projection descriptor over the plan's binding order.
        let mut fields = Vec::with_capacity(planned.columns.len());
        for (t, a) in &planned.columns {
            let source =
                planned.tables.iter().position(|s| s == t).ok_or_else(|| {
                    DbError::BadQuery(format!("projected table {t} is not bound"))
                })?;
            let attr = self.with_relation(t, |r| r.schema().index_of(a))??;
            fields.push(OutputField::new(source, attr, &format!("{t}.{a}")));
        }
        let desc = ResultDescriptor::new(fields);

        // Bind the operator tree to borrowed relations and execute.
        let handles: Vec<_> = planned
            .tables
            .iter()
            .map(|t| self.relation_handle(t))
            .collect::<Result<_, _>>()?;
        let guards: Vec<_> = handles.iter().map(|h| h.read()).collect();
        let rels: Vec<&Relation> = guards.iter().map(|r| &**r).collect();
        let mut root = self.bind_plan(&planned.root, &planned.tables, &rels, &desc, &tickets)?;
        let mut ctx = ExecContext::new(cfg, planned.node_count);
        let list = root.execute(&mut ctx)?;
        drop(root);
        finish(Executed {
            planned,
            list,
            desc,
            rels: &rels,
            ctx,
        })
    }
}

impl<S: StableStore> QueryBuilder<'_, S> {
    /// Filter the base table on one attribute (through the best §4
    /// access path).
    #[must_use]
    pub fn filter(self, attr: &str, pred: Predicate) -> Self {
        let base = self.base.clone();
        self.filter_on(&base, attr, pred)
    }

    /// Filter any bound table on one attribute. The planner pushes the
    /// predicate below later joins into that table's access path (unless
    /// [`pushdown`](Self::pushdown) is disabled, in which case it runs
    /// where written, against the joined temp list).
    #[must_use]
    pub fn filter_on(mut self, table: &str, attr: &str, pred: Predicate) -> Self {
        self.steps.push(Step::Filter {
            table: table.to_string(),
            attr: attr.to_string(),
            pred,
        });
        self
    }

    /// Equijoin `base.outer_attr = inner_table.inner_attr`.
    #[must_use]
    pub fn join(self, outer_attr: &str, inner_table: &str, inner_attr: &str) -> Self {
        let base = self.base.clone();
        self.join_from(&base, outer_attr, inner_table, inner_attr)
    }

    /// Equijoin from any already-bound table in the pipeline (chained
    /// joins: `a ⋈ b` then `b ⋈ c`).
    #[must_use]
    pub fn join_from(
        mut self,
        source_table: &str,
        outer_attr: &str,
        inner_table: &str,
        inner_attr: &str,
    ) -> Self {
        self.steps.push(Step::Join {
            source_table: source_table.to_string(),
            outer_attr: outer_attr.to_string(),
            inner_table: inner_table.to_string(),
            inner_attr: inner_attr.to_string(),
        });
        self
    }

    /// Choose output columns as `(table, attr)` pairs. Without a
    /// projection, the base table's full schema is returned.
    #[must_use]
    pub fn project(mut self, cols: &[(&str, &str)]) -> Self {
        self.projection = cols
            .iter()
            .map(|(t, a)| ((*t).to_string(), (*a).to_string()))
            .collect();
        self
    }

    /// Eliminate duplicate output rows (hash-based, §3.4's winner).
    #[must_use]
    pub fn distinct(mut self) -> Self {
        self.distinct = true;
        self
    }

    /// Degree of parallelism for this query only. Overrides just the
    /// `dop` of the database-level [`mmdb_exec::ExecConfig`] — every
    /// other field (e.g. the parallel threshold) is kept. `dop = 1`
    /// forces the serial code paths.
    #[must_use]
    pub fn parallelism(mut self, dop: usize) -> Self {
        self.dop = Some(dop);
        self
    }

    /// Enable/disable pushing filters below joins (default on). Off =
    /// naive as-written placement; disabling it also disables
    /// reordering (reordering around in-place filters is unsound).
    #[must_use]
    pub fn pushdown(mut self, on: bool) -> Self {
        self.pushdown = on;
        self
    }

    /// Enable/disable greedy join reordering by estimated comparisons
    /// (default on). Off = joins execute in written order.
    #[must_use]
    pub fn reorder(mut self, on: bool) -> Self {
        self.reorder = on;
        self
    }

    /// Force every join to use `method` (tests, benchmarks). Planning
    /// fails if the method is infeasible on these inputs.
    #[must_use]
    pub fn force_join_method(mut self, method: JoinMethod) -> Self {
        self.forced_join = Some(method);
        self
    }

    /// Consult (and populate) the intermediate-result reuse cache for
    /// this query only, overriding [`mmdb_exec::ExecConfig::cache`].
    /// Fresh cached subtrees substitute into the plan (shown as
    /// `[cached]` in the explain text); any write to an input table
    /// since the entry was stored makes it unservable.
    #[must_use]
    pub fn cache(mut self, on: bool) -> Self {
        self.cache = Some(on);
        self
    }

    /// Lower the builder state to a logical plan (projection resolved).
    fn logical(&self) -> Result<LogicalPlan, DbError> {
        let projection: Vec<(String, String)> = if self.projection.is_empty() {
            self.db.with_relation(&self.base, |r| {
                r.schema()
                    .attrs()
                    .iter()
                    .map(|a| (self.base.clone(), a.name.clone()))
                    .collect()
            })?
        } else {
            self.projection.clone()
        };
        let mut node = LogicalPlan::Scan {
            table: self.base.clone(),
        };
        for step in &self.steps {
            node = match step {
                Step::Filter { table, attr, pred } => LogicalPlan::Filter {
                    input: Box::new(node),
                    table: table.clone(),
                    attr: attr.clone(),
                    pred: pred.clone(),
                },
                Step::Join {
                    source_table,
                    outer_attr,
                    inner_table,
                    inner_attr,
                } => LogicalPlan::Join {
                    input: Box::new(node),
                    source_table: source_table.clone(),
                    outer_attr: outer_attr.clone(),
                    inner_table: inner_table.clone(),
                    inner_attr: inner_attr.clone(),
                },
            };
        }
        node = LogicalPlan::Project {
            input: Box::new(node),
            cols: projection,
        };
        if self.distinct {
            node = LogicalPlan::Distinct {
                input: Box::new(node),
            };
        }
        Ok(node)
    }

    fn options(&self) -> PlannerOptions {
        PlannerOptions {
            pushdown: self.pushdown,
            reorder: self.reorder,
            forced_join: self.forced_join,
        }
    }

    /// Plan the query without executing it, returning the stable explain
    /// rendering (estimates only; actuals show `-`). With caching on,
    /// fresh cached subtrees substitute in and render as `[cached]`.
    pub fn explain(&self) -> Result<String, DbError> {
        let use_cache = self.cache.unwrap_or(self.db.exec_config().cache);
        let (planned, _) = self.db.plan(&self.logical()?, &self.options(), use_cache)?;
        Ok(PlanProfile::estimates(&planned).render())
    }

    /// Execute the pipeline: plan, bind, run, materialize.
    pub fn run(self) -> Result<QueryOutput, DbError> {
        let db = self.db;
        let cfg = match self.dop {
            Some(d) => db.exec_config().override_dop(d),
            None => db.exec_config(),
        };
        let use_cache = self.cache.unwrap_or(cfg.cache);
        let logical = self.logical()?;
        db.execute(&logical, &self.options(), cfg, use_cache, |done| {
            // Materialize (the only copy the engine ever makes).
            let mut rows = Vec::with_capacity(done.list.len());
            for i in 0..done.list.len() {
                let vals = done.list.materialize_row(i, &done.desc, done.rels)?;
                rows.push(
                    vals.iter()
                        .map(mmdb_storage::Value::to_owned_value)
                        .collect(),
                );
            }
            let mut profile = PlanProfile::assemble(&done.planned, &done.ctx);
            profile.cache = db.cache_report();
            Ok(QueryOutput {
                columns: done
                    .desc
                    .column_names()
                    .iter()
                    .map(|s| (*s).to_string())
                    .collect(),
                rows,
                profile,
            })
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::db::IndexKind;
    use mmdb_storage::{AttrType, KeyValue, Schema};

    fn company_db() -> Database {
        let mut db = Database::in_memory();
        db.create_table(
            "dept",
            Schema::of(&[("dname", AttrType::Str), ("id", AttrType::Int)]),
        )
        .unwrap();
        db.create_index("dept_id", "dept", "id", IndexKind::TTree)
            .unwrap();
        db.create_table(
            "emp",
            Schema::of(&[
                ("ename", AttrType::Str),
                ("age", AttrType::Int),
                ("dept_id", AttrType::Int),
            ]),
        )
        .unwrap();
        db.create_index("emp_age", "emp", "age", IndexKind::TTree)
            .unwrap();
        db.create_index("emp_dept", "emp", "dept_id", IndexKind::TTree)
            .unwrap();
        db.create_table(
            "project",
            Schema::of(&[("pname", AttrType::Str), ("dept_id", AttrType::Int)]),
        )
        .unwrap();
        db.create_index("proj_dept", "project", "dept_id", IndexKind::TTree)
            .unwrap();
        let mut txn = db.begin();
        for (d, i) in [("Toy", 1i64), ("Shoe", 2), ("Linen", 3)] {
            db.insert(&mut txn, "dept", vec![d.into(), i.into()])
                .unwrap();
        }
        for (e, a, d) in [
            ("Dave", 24i64, 1i64),
            ("Suzan", 70, 1),
            ("Yaman", 54, 2),
            ("Jane", 71, 2),
            ("Cindy", 22, 3),
        ] {
            db.insert(&mut txn, "emp", vec![e.into(), a.into(), d.into()])
                .unwrap();
        }
        for (p, d) in [("Blocks", 1i64), ("Sneaker", 2), ("Sandal", 2)] {
            db.insert(&mut txn, "project", vec![p.into(), d.into()])
                .unwrap();
        }
        db.commit(txn).unwrap();
        db
    }

    #[test]
    fn filter_join_project() {
        let db = company_db();
        let out = db
            .query("emp")
            .filter("age", Predicate::greater(KeyValue::Int(60)))
            .join("dept_id", "dept", "id")
            .project(&[("emp", "ename"), ("dept", "dname")])
            .run()
            .unwrap();
        assert_eq!(out.columns, vec!["emp.ename", "dept.dname"]);
        let mut got: Vec<(String, String)> = out
            .rows
            .iter()
            .map(|r| match (&r[0], &r[1]) {
                (OwnedValue::Str(a), OwnedValue::Str(b)) => (a.clone(), b.clone()),
                _ => unreachable!(),
            })
            .collect();
        got.sort();
        assert_eq!(
            got,
            vec![
                ("Jane".to_string(), "Shoe".to_string()),
                ("Suzan".to_string(), "Toy".to_string())
            ]
        );
        let text = out.profile.render();
        assert!(text.contains("via TreeLookup"), "{text}");
    }

    #[test]
    fn bare_scan_returns_full_schema() {
        let db = company_db();
        let out = db.query("dept").run().unwrap();
        assert_eq!(out.columns, vec!["dept.dname", "dept.id"]);
        assert_eq!(out.rows.len(), 3);
    }

    #[test]
    fn chained_joins() {
        let db = company_db();
        // emp → dept → project (via dept_id on dept's side).
        let out = db
            .query("emp")
            .join("dept_id", "dept", "id")
            .join_from("dept", "id", "project", "dept_id")
            .project(&[("emp", "ename"), ("project", "pname")])
            .run()
            .unwrap();
        // Toy: Dave, Suzan × Blocks = 2; Shoe: Yaman, Jane × 2 projects = 4.
        assert_eq!(out.rows.len(), 6);
    }

    #[test]
    fn distinct_dedups_projection() {
        let db = company_db();
        let out = db
            .query("emp")
            .project(&[("emp", "dept_id")])
            .distinct()
            .run()
            .unwrap();
        assert_eq!(out.rows.len(), 3, "three distinct departments");
        let with_dups = db
            .query("emp")
            .project(&[("emp", "dept_id")])
            .run()
            .unwrap();
        assert_eq!(with_dups.rows.len(), 5);
    }

    #[test]
    fn filtered_join_avoids_tree_merge() {
        let db = company_db();
        let out = db
            .query("emp")
            .filter("age", Predicate::greater(KeyValue::Int(60)))
            .join("dept_id", "dept", "id")
            .run()
            .unwrap();
        // The filtered outer list must not claim a full-relation merge.
        let joins = out.profile.joins();
        assert_eq!(joins.len(), 1);
        assert_ne!(
            joins[0].method,
            Some(JoinMethod::TreeMerge),
            "filtered outer cannot tree-merge: {}",
            joins[0].label
        );
    }

    #[test]
    fn parallelism_knob_leaves_results_identical() {
        let mut db = company_db();
        let run = |db: &Database, dop: usize| {
            db.query("emp")
                .filter("age", Predicate::greater(KeyValue::Int(20)))
                .join("dept_id", "dept", "id")
                .project(&[("dept", "dname")])
                .distinct()
                .parallelism(dop)
                .run()
                .unwrap()
        };
        let serial = run(&db, 1);
        assert_eq!(serial.rows.len(), 3);
        for dop in [2, 4, 8] {
            let par = run(&db, dop);
            assert_eq!(par.rows, serial.rows, "dop={dop}");
            assert_eq!(par.columns, serial.columns);
        }
        // The database-level knob feeds queries that don't set their own.
        db.set_parallelism(4);
        assert_eq!(db.exec_config().dop, 4);
        let out = db
            .query("emp")
            .filter("age", Predicate::greater(KeyValue::Int(20)))
            .join("dept_id", "dept", "id")
            .project(&[("dept", "dname")])
            .distinct()
            .run()
            .unwrap();
        assert_eq!(out.rows, serial.rows);
    }

    #[test]
    fn unbound_references_error() {
        let db = company_db();
        let err = db
            .query("emp")
            .join_from("nope", "x", "dept", "id")
            .run()
            .unwrap_err();
        assert!(matches!(err, DbError::BadQuery(_)));
        let err = db
            .query("emp")
            .project(&[("dept", "dname")])
            .run()
            .unwrap_err();
        assert!(matches!(err, DbError::BadQuery(_)));
    }

    #[test]
    fn explain_before_and_profile_after() {
        let db = company_db();
        let builder = || {
            db.query("emp")
                .filter("age", Predicate::greater(KeyValue::Int(60)))
                .join("dept_id", "dept", "id")
                .join_from("dept", "id", "project", "dept_id")
                .project(&[("emp", "ename"), ("project", "pname")])
        };
        let explained = builder().explain().unwrap();
        assert!(explained.contains("act_rows=-"), "{explained}");
        assert!(explained.contains("est_cmp="), "{explained}");
        let out = builder().run().unwrap();
        let text = out.profile.render();
        // Same plan shape, now with actuals.
        assert!(!text.contains("act_rows=-"), "{text}");
        for op in &out.profile.ops {
            assert!(op.executed, "{} did not run", op.label);
        }
        // Estimated and actual comparisons both present for joins, and
        // the chosen method never estimates above a rejected one.
        for j in out.profile.joins() {
            for (m, est) in &j.rejected {
                assert!(
                    j.est_comparisons <= *est,
                    "{:?} ({}) worse than rejected {m:?} ({est})",
                    j.method,
                    j.est_comparisons
                );
            }
        }
    }

    fn names(out: &QueryOutput) -> Vec<String> {
        let mut v: Vec<String> = out
            .rows
            .iter()
            .map(|r| match &r[0] {
                OwnedValue::Str(s) => s.clone(),
                other => panic!("expected string, got {other:?}"),
            })
            .collect();
        v.sort();
        v
    }

    #[test]
    fn reuse_cache_serves_and_invalidates() {
        let mut db = company_db();
        let run = |db: &Database| {
            db.query("emp")
                .filter("age", Predicate::greater(KeyValue::Int(60)))
                .join("dept_id", "dept", "id")
                .project(&[("emp", "ename"), ("dept", "dname")])
                .cache(true)
                .run()
                .unwrap()
        };

        let cold = run(&db);
        assert_eq!(cold.rows.len(), 2);
        assert_eq!(cold.profile.cache.hits, 0);
        assert!(cold.profile.cache.entries > 0, "cold run populates");
        assert!(!cold.profile.render().contains("[cached]"));

        let warm = run(&db);
        assert_eq!(warm.rows, cold.rows, "cache hit must be bit-identical");
        assert!(warm.profile.cache.hits > 0, "{:?}", warm.profile.cache);
        let text = warm.profile.render();
        assert!(text.contains("[cached]"), "{text}");
        #[cfg(feature = "check")]
        assert!(db.deep_check().is_ok());

        // A committed write to an input table moves its partition
        // versions: the next run recomputes and sees the new row.
        let mut txn = db.begin();
        db.insert(
            &mut txn,
            "emp",
            vec!["Elder".into(), 80i64.into(), 1i64.into()],
        )
        .unwrap();
        db.commit(txn).unwrap();
        let after = run(&db);
        assert_eq!(after.rows.len(), 3, "recomputed, not served stale");
        assert!(!after.profile.render().contains("[cached]"));

        // Cache off by default: the same query without the knob ignores
        // (and does not populate beyond) the cache.
        let plain = db
            .query("emp")
            .filter("age", Predicate::greater(KeyValue::Int(60)))
            .join("dept_id", "dept", "id")
            .project(&[("emp", "ename"), ("dept", "dname")])
            .run()
            .unwrap();
        assert_eq!(plain.rows, after.rows);

        db.clear_cache();
        assert_eq!(db.cache_report().entries, 0);
    }

    #[test]
    fn cached_explain_matches_cached_run() {
        let db = company_db();
        let builder = || {
            db.query("emp")
                .filter("age", Predicate::greater(KeyValue::Int(60)))
                .project(&[("emp", "ename")])
                .cache(true)
        };
        let _ = builder().run().unwrap();
        let explained = builder().explain().unwrap();
        assert!(explained.contains("[cached]"), "{explained}");
        let out = builder().run().unwrap();
        assert_eq!(out.rows.len(), 2);
    }

    #[test]
    fn forced_method_and_naive_mode_match_planned_results() {
        let db = company_db();
        let shoe_emps = || {
            db.query("emp")
                .join("dept_id", "dept", "id")
                .filter_on("dept", "dname", Predicate::Eq(KeyValue::from("Shoe")))
                .project(&[("emp", "ename")])
        };
        let want = names(&shoe_emps().run().unwrap());
        assert_eq!(want, vec!["Jane".to_string(), "Yaman".to_string()]);
        // Naive placement: the dept filter runs where written — as a
        // post-filter over the joined list — instead of being pushed
        // into dept's access path.
        let naive = shoe_emps().pushdown(false).reorder(false).run().unwrap();
        assert_eq!(names(&naive), want);
        // Forced methods all agree.
        for m in [
            JoinMethod::HashJoin,
            JoinMethod::SortMerge,
            JoinMethod::NestedLoops,
        ] {
            let forced = shoe_emps().force_join_method(m).run().unwrap();
            assert_eq!(names(&forced), want, "{m:?}");
        }
    }
}
