//! Property tests for the cost-based planner: over random workloads,
//! the planned execution is tuple-for-tuple identical to every forced
//! join method and to fully serial execution, and the chosen join
//! method never estimates more comparisons than any alternative the
//! planner rejected. `Database::select` and `Session::select` return
//! exactly the planned selection's tuples, on every access path.

#![allow(clippy::unwrap_used, clippy::expect_used)]

use mmdb_core::{Database, IndexKind, TxnEngine};
use mmdb_exec::{JoinMethod, Predicate, SelectPath};
use mmdb_storage::{AttrType, KeyValue, OwnedValue, Schema, Value};
use proptest::prelude::*;

/// Three tables with T-Trees on every join attribute, loaded from the
/// generated value vectors. `r1.jcol` joins `r2.jcol`; `r2.jcol` joins
/// `r3.jcol` (chained). `h` and `u` repeat `jcol` behind a hash index
/// and no index, so each §4 access path has an attribute.
fn build_db(r1: &[i64], r2: &[i64], r3: &[i64]) -> Database {
    let mut db = Database::in_memory();
    for t in ["r1", "r2", "r3"] {
        db.create_table(
            t,
            Schema::of(&[
                ("pk", AttrType::Int),
                ("jcol", AttrType::Int),
                ("h", AttrType::Int),
                ("u", AttrType::Int),
            ]),
        )
        .unwrap();
        db.create_index(&format!("{t}_pk"), t, "pk", IndexKind::TTree)
            .unwrap();
        db.create_index(&format!("{t}_jcol"), t, "jcol", IndexKind::TTree)
            .unwrap();
        db.create_index(&format!("{t}_h"), t, "h", IndexKind::Hash)
            .unwrap();
    }
    let mut txn = db.begin();
    for (t, vals) in [("r1", r1), ("r2", r2), ("r3", r3)] {
        for (i, v) in vals.iter().enumerate() {
            let v = OwnedValue::Int(*v);
            db.insert(
                &mut txn,
                t,
                vec![OwnedValue::Int(i as i64), v.clone(), v.clone(), v],
            )
            .unwrap();
        }
    }
    db.commit(txn).unwrap();
    db
}

/// Canonical multiset of output rows for order-insensitive comparison.
fn canonical(rows: &[Vec<OwnedValue>]) -> Vec<String> {
    let mut rows: Vec<String> = rows.iter().map(|r| format!("{r:?}")).collect();
    rows.sort();
    rows
}

fn values_strategy(max_len: usize) -> impl Strategy<Value = Vec<i64>> {
    // Small key space forces duplication and overlap across tables.
    prop::collection::vec(-6i64..6, 1..max_len)
}

/// Methods that stay feasible on any shape this workload produces (no
/// pointer fields; every join attribute T-Tree indexed, inners never
/// filtered — so TreeJoin is feasible too).
const FORCIBLE: [JoinMethod; 4] = [
    JoinMethod::HashJoin,
    JoinMethod::SortMerge,
    JoinMethod::NestedLoops,
    JoinMethod::TreeJoin,
];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn planned_equals_forced_and_serial(
        v1 in values_strategy(30),
        v2 in values_strategy(30),
        v3 in values_strategy(30),
        lo in -6i64..6,
    ) {
        let db = build_db(&v1, &v2, &v3);
        let query = || {
            db.query("r1")
                .filter("jcol", Predicate::greater(KeyValue::Int(lo)))
                .join("jcol", "r2", "jcol")
                .join_from("r2", "jcol", "r3", "jcol")
                .project(&[("r1", "pk"), ("r2", "pk"), ("r3", "pk")])
        };

        let planned = query().run().unwrap();
        let want = canonical(&planned.rows);

        // Fully serial execution is tuple-for-tuple identical (same
        // order, not just the same multiset).
        let serial = query().parallelism(1).run().unwrap();
        prop_assert_eq!(&serial.rows, &planned.rows);

        // Every forced method yields the same multiset of rows.
        for m in FORCIBLE {
            let forced = query().force_join_method(m).run().unwrap();
            prop_assert_eq!(canonical(&forced.rows), want.clone(), "{:?}", m);
        }

        // Naive as-written placement agrees too.
        let naive = query().pushdown(false).reorder(false).run().unwrap();
        prop_assert_eq!(canonical(&naive.rows), want.clone());

        // The chosen method never estimates more comparisons than any
        // rejected alternative.
        for join in planned.profile.joins() {
            for (m, est) in &join.rejected {
                prop_assert!(
                    join.est_comparisons <= *est,
                    "{:?} (est {}) lost to rejected {:?} (est {}) in {}",
                    join.method,
                    join.est_comparisons,
                    m,
                    est,
                    join.label
                );
            }
        }

        // Single-table selections: Eq and range over a T-Tree, a hash
        // and an unindexed attribute cover all three access paths.
        let selections = [
            ("jcol", Predicate::Eq(KeyValue::Int(lo)), SelectPath::TreeLookup),
            ("jcol", Predicate::greater(KeyValue::Int(lo)), SelectPath::TreeLookup),
            ("h", Predicate::Eq(KeyValue::Int(lo)), SelectPath::HashLookup),
            ("h", Predicate::greater(KeyValue::Int(lo)), SelectPath::SequentialScan),
            ("u", Predicate::Eq(KeyValue::Int(lo)), SelectPath::SequentialScan),
            ("u", Predicate::greater(KeyValue::Int(lo)), SelectPath::SequentialScan),
        ];
        let mut selected = Vec::new();
        for (attr, pred, path) in &selections {
            let query = || db.query("r1").filter(attr, pred.clone()).project(&[("r1", "pk")]);
            let explained = query().explain().unwrap();
            prop_assert!(explained.contains(&format!("via {path:?}")), "{}", explained);
            let planned = query().run().unwrap();
            let serial = query().parallelism(1).run().unwrap();
            prop_assert_eq!(&serial.rows, &planned.rows);
            let naive = query().pushdown(false).reorder(false).run().unwrap();
            prop_assert_eq!(&naive.rows, &planned.rows);
            let brute: Vec<Vec<OwnedValue>> = v1
                .iter()
                .enumerate()
                .filter(|(_, v)| pred.matches(&Value::Int(**v)))
                .map(|(i, _)| vec![OwnedValue::Int(i as i64)])
                .collect();
            prop_assert_eq!(canonical(&planned.rows), canonical(&brute));
            // The wrapper returns the planned tuples in the planned order.
            let tids = db.select("r1", attr, pred).unwrap().column(0);
            prop_assert_eq!(&db.fetch("r1", &tids, &["pk"]).unwrap(), &planned.rows);
            selected.push(tids);
        }
        let engine = TxnEngine::new(db);
        let session = engine.session();
        let mut txn = session.begin();
        for ((attr, pred, _), want) in selections.iter().zip(&selected) {
            let got = session.select(&mut txn, "r1", attr, pred).unwrap().column(0);
            prop_assert_eq!(&got, want, "{} {}", attr, pred);
        }
        session.commit(txn).unwrap();
    }

    #[test]
    fn dop_never_changes_results(
        v1 in values_strategy(40),
        v2 in values_strategy(40),
    ) {
        let db = build_db(&v1, &v2, &[0]);
        let run = |dop: usize| {
            db.query("r1")
                .join("jcol", "r2", "jcol")
                .project(&[("r1", "pk"), ("r2", "pk")])
                .distinct()
                .parallelism(dop)
                .run()
                .unwrap()
        };
        let serial = run(1);
        for dop in [2, 4, 8] {
            let par = run(dop);
            prop_assert_eq!(&par.rows, &serial.rows, "dop={}", dop);
        }
    }
}
