//! Cross-crate integration: the full MM-DBMS pipeline — generated
//! workload → storage → indexes → query processing → recovery.

#![allow(clippy::unwrap_used, clippy::expect_used)]

use mmdb_core::{Database, IndexKind};
use mmdb_exec::{JoinMethod, Predicate};
use mmdb_storage::{AttrType, KeyValue, OwnedValue, Schema};
use mmdb_workload::{RelationSpec, ValueSet};

fn load_values(db: &mut Database, table: &str, values: &[i64]) {
    let mut txn = db.begin();
    for (i, v) in values.iter().enumerate() {
        db.insert(
            &mut txn,
            table,
            vec![OwnedValue::Int(i as i64), OwnedValue::Int(*v)],
        )
        .unwrap();
    }
    db.commit(txn).unwrap();
}

fn two_table_db(outer_vals: &[i64], inner_vals: &[i64]) -> Database {
    let mut db = Database::in_memory();
    for t in ["r1", "r2"] {
        db.create_table(
            t,
            Schema::of(&[("pk", AttrType::Int), ("jcol", AttrType::Int)]),
        )
        .unwrap();
        db.create_index(&format!("{t}_pk"), t, "pk", IndexKind::Hash)
            .unwrap();
        db.create_index(&format!("{t}_jcol"), t, "jcol", IndexKind::TTree)
            .unwrap();
    }
    load_values(&mut db, "r1", outer_vals);
    load_values(&mut db, "r2", inner_vals);
    db
}

#[test]
fn generated_workload_through_the_full_stack() {
    let spec = RelationSpec {
        cardinality: 2000,
        duplicate_pct: 40.0,
        sigma: 0.4,
        seed: 1,
    };
    let outer = ValueSet::generate(&spec);
    let inner = ValueSet::generate_matching(&RelationSpec { seed: 2, ..spec }, &outer, 60.0);
    let db = two_table_db(&outer.values, &inner.values);
    db.validate_indexes().unwrap();
    assert_eq!(db.len("r1").unwrap(), 2000);

    // Reference join count.
    let mut expect = 0usize;
    let mut counts = std::collections::HashMap::new();
    for v in &inner.values {
        *counts.entry(*v).or_insert(0usize) += 1;
    }
    for v in &outer.values {
        expect += counts.get(v).copied().unwrap_or(0);
    }

    // Every join method produces the reference count.
    let join = || {
        db.query("r1")
            .join("jcol", "r2", "jcol")
            .project(&[("r1", "pk"), ("r2", "pk")])
    };
    for m in [
        JoinMethod::TreeMerge,
        JoinMethod::HashJoin,
        JoinMethod::TreeJoin,
        JoinMethod::SortMerge,
    ] {
        let out = join().force_join_method(m).run().unwrap();
        assert_eq!(out.rows.len(), expect, "{m:?}");
    }
    // The planner picks Tree Merge (both T-Trees exist).
    let planned = join().run().unwrap();
    assert_eq!(
        planned.profile.joins()[0].method,
        Some(JoinMethod::TreeMerge)
    );
}

#[test]
fn selection_paths_agree_on_results() {
    let spec = RelationSpec {
        cardinality: 1500,
        duplicate_pct: 70.0,
        sigma: 0.1,
        seed: 7,
    };
    let vals = ValueSet::generate(&spec);
    let db = two_table_db(&vals.values, &[1]);
    // Pick a duplicated value and check hash/tree/scan agree.
    let probe = vals.unique[0];
    let tree_hits = db
        .select("r1", "jcol", &Predicate::Eq(KeyValue::Int(probe)))
        .unwrap();
    let expect = vals.values.iter().filter(|v| **v == probe).count();
    assert_eq!(tree_hits.len(), expect);
    // Range via T-Tree vs manual filter.
    let lo = probe - 1000;
    let hi = probe + 1000;
    let range_hits = db
        .select(
            "r1",
            "jcol",
            &Predicate::between(KeyValue::Int(lo), KeyValue::Int(hi)),
        )
        .unwrap();
    let expect_range = vals
        .values
        .iter()
        .filter(|v| **v >= lo && **v <= hi)
        .count();
    assert_eq!(range_hits.len(), expect_range);
}

#[test]
fn transactional_churn_with_validation() {
    let mut db = Database::in_memory();
    db.create_table(
        "t",
        Schema::of(&[("k", AttrType::Int), ("v", AttrType::Str)]),
    )
    .unwrap();
    db.create_index("t_k", "t", "k", IndexKind::TTree).unwrap();
    db.create_index("t_v", "t", "v", IndexKind::Hash).unwrap();

    let mut live: std::collections::BTreeMap<i64, mmdb_storage::TupleId> =
        std::collections::BTreeMap::new();
    let mut seed = 12345u64;
    let mut rand = move || {
        seed ^= seed >> 12;
        seed ^= seed << 25;
        seed ^= seed >> 27;
        seed.wrapping_mul(0x2545_F491_4F6C_DD1D)
    };
    for round in 0..50 {
        let mut txn = db.begin();
        let mut staged_inserts = Vec::new();
        for _ in 0..20 {
            let k = (rand() % 500) as i64;
            if rand() % 3 == 0 {
                if let Some(tid) = live.remove(&k) {
                    db.delete(&mut txn, "t", tid).unwrap();
                    continue;
                }
            }
            if !live.contains_key(&k) && !staged_inserts.iter().any(|(kk, _)| *kk == k) {
                db.insert(
                    &mut txn,
                    "t",
                    vec![OwnedValue::Int(k), OwnedValue::Str(format!("v{k}"))],
                )
                .unwrap();
                staged_inserts.push((k, ()));
            }
        }
        if round % 7 == 3 {
            // Abort sometimes: staged inserts must vanish, deletes undone
            // logically (we re-add them to `live` since nothing happened).
            let n_before = db.len("t").unwrap();
            db.abort(txn);
            assert_eq!(db.len("t").unwrap(), n_before);
            // Rebuild `live` from the database (aborted deletes survive).
            live = rebuild_live(&db);
        } else {
            let tids = db.commit(txn).unwrap();
            for ((k, ()), tid) in staged_inserts.into_iter().zip(tids) {
                live.insert(k, tid);
            }
            live = rebuild_live(&db);
        }
        db.validate_indexes().unwrap();
        assert_eq!(db.len("t").unwrap(), live.len());
    }
}

fn rebuild_live(db: &Database) -> std::collections::BTreeMap<i64, mmdb_storage::TupleId> {
    let mut m = std::collections::BTreeMap::new();
    for tid in db.tids("t").unwrap() {
        let k = match db.fetch("t", &[tid], &["k"]).unwrap()[0][0] {
            OwnedValue::Int(i) => i,
            _ => unreachable!(),
        };
        m.insert(k, tid);
    }
    m
}

#[test]
fn crash_recovery_of_bulk_data_across_partitions() {
    let mut db = Database::in_memory();
    db.create_table(
        "big",
        Schema::of(&[("k", AttrType::Int), ("pad", AttrType::Str)]),
    )
    .unwrap();
    db.create_index("big_k", "big", "k", IndexKind::TTree)
        .unwrap();
    // Enough tuples to span several 64 KB partitions.
    let n = 20_000usize;
    let mut txn = db.begin();
    for k in 0..n {
        db.insert(
            &mut txn,
            "big",
            vec![
                OwnedValue::Int(k as i64),
                OwnedValue::Str(format!("pad-{k}")),
            ],
        )
        .unwrap();
    }
    db.commit(txn).unwrap();
    let parts = db.with_relation("big", |r| r.partition_count()).unwrap();
    assert!(parts > 2, "need multiple partitions, got {parts}");
    db.run_log_device().unwrap();

    // More committed churn after the checkpointing flush.
    let tids = db.tids("big").unwrap();
    let mut txn = db.begin();
    for tid in tids.iter().take(100) {
        db.update(&mut txn, "big", *tid, "k", OwnedValue::Int(1_000_000))
            .unwrap();
    }
    db.commit(txn).unwrap();

    let crashed = db.crash();
    let ws: Vec<(&str, u32)> = vec![("big", 0), ("big", 1)];
    let (db2, report) = crashed.recover(&ws).unwrap();
    assert_eq!(db2.len("big").unwrap(), n);
    db2.validate_indexes().unwrap();
    assert_eq!(report.loaded.len(), parts);
    assert_eq!(report.loaded[0].1, 0);
    assert_eq!(report.loaded[1].1, 1);
    let bumped = db2
        .select("big", "k", &Predicate::Eq(KeyValue::Int(1_000_000)))
        .unwrap();
    assert_eq!(bumped.len(), 100, "post-flush committed updates recovered");
}

#[test]
fn projection_through_templists() {
    use mmdb_exec::{project_hash, project_sort};
    use mmdb_storage::{OutputField, ResultDescriptor, TempList};
    let spec = RelationSpec {
        cardinality: 3000,
        duplicate_pct: 80.0,
        sigma: 0.8,
        seed: 99,
    };
    let vals = ValueSet::generate(&spec);
    let db = two_table_db(&vals.values, &[1]);
    let tids = db.tids("r1").unwrap();
    let list = TempList::from_tids(tids);
    let desc = ResultDescriptor::new(vec![OutputField::new(0, 1, "jcol")]);
    db.with_relation("r1", |rel| {
        let h = project_hash(&list, &desc, &[rel]).unwrap();
        let s = project_sort(&list, &desc, &[rel]).unwrap();
        assert_eq!(h.rows.len(), vals.unique.len());
        assert_eq!(s.rows.len(), vals.unique.len());
    })
    .unwrap();
}
