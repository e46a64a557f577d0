//! The paper's §2.1 worked example, verbatim: foreign keys become tuple
//! pointers, enabling **precomputed joins** (Query 1) and **pointer
//! comparison joins** (Query 2).
//!
//! > Query 1: Retrieve the Employee name, Employee age, and Department
//! > name for all employees over age 65.
//! >
//! > Query 2: Retrieve the names of all employees who work in the Toy or
//! > Shoe Departments.
//!
//! ```sh
//! cargo run --example employee_department
//! ```

#![allow(clippy::unwrap_used, clippy::expect_used, clippy::print_stdout)]

use mmdb_core::{Database, IndexKind};
use mmdb_exec::Predicate;
use mmdb_storage::{AttrType, KeyValue, OwnedValue, Schema, TupleId};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let mut db = Database::in_memory();

    db.create_table(
        "department",
        Schema::of(&[("name", AttrType::Str), ("id", AttrType::Int)]),
    )?;
    db.create_index("dept_name", "department", "name", IndexKind::Hash)?;
    db.create_index("dept_id", "department", "id", IndexKind::TTree)?;

    // Employee.dept is declared as a *pointer* attribute: the MM-DBMS
    // "will substitute a Department tuple pointer in its place".
    db.create_table(
        "employee",
        Schema::of(&[
            ("name", AttrType::Str),
            ("id", AttrType::Int),
            ("age", AttrType::Int),
            ("dept", AttrType::Ptr),
        ]),
    )?;
    db.create_index("emp_age", "employee", "age", IndexKind::TTree)?;
    db.create_index("emp_dept", "employee", "dept", IndexKind::Hash)?;

    // Departments first; their TupleIds become the employees' FK values.
    let mut txn = db.begin();
    for (name, id) in [
        ("Toy", 459i64),
        ("Shoe", 409),
        ("Linen", 411),
        ("Paint", 455),
    ] {
        db.insert(&mut txn, "department", vec![name.into(), id.into()])?;
    }
    let dept_tids = db.commit(txn)?;
    let dept_by_name = |db: &Database, n: &str| -> TupleId {
        db.select("department", "name", &Predicate::Eq(KeyValue::from(n)))
            .unwrap()
            .column(0)[0]
    };
    let toy = dept_by_name(&db, "Toy");
    let shoe = dept_by_name(&db, "Shoe");
    let linen = dept_by_name(&db, "Linen");
    assert_eq!(dept_tids.len(), 4);

    let mut txn = db.begin();
    for (name, id, age, dept) in [
        ("Dave", 23i64, 24i64, toy),
        ("Suzan", 12, 27, toy),
        ("Yaman", 44, 54, linen),
        ("Jane", 43, 71, linen),
        ("Cindy", 22, 22, shoe),
        ("Henry", 99, 68, shoe),
    ] {
        db.insert(
            &mut txn,
            "employee",
            vec![
                name.into(),
                id.into(),
                age.into(),
                OwnedValue::Ptr(Some(dept)),
            ],
        )?;
    }
    db.commit(txn)?;

    // ---- Query 1 --------------------------------------------------------
    // "the MM-DBMS can then simply perform the selection on the Employee
    // relation, following the Department pointer of each result tuple" —
    // no join operation at all.
    println!("Query 1: employees over 65, with department names");
    let over65 = db.select("employee", "age", &Predicate::greater(KeyValue::Int(65)))?;
    for &etid in &over65.column(0) {
        let emp = db.fetch("employee", &[etid], &["name", "age", "dept"])?;
        let OwnedValue::Ptr(Some(dtid)) = emp[0][2] else {
            continue;
        };
        let dept = db.fetch("department", &[dtid], &["name"])?;
        println!("  {:?}, {:?} → {:?}", emp[0][0], emp[0][1], dept[0][0]);
    }
    // The planner knows employee.dept is precomputed:
    let plan = db
        .query("employee")
        .join("dept", "department", "name")
        .explain()?;
    assert!(plan.contains("join[Precomputed]"), "{plan}");

    // ---- Query 2 --------------------------------------------------------
    // Selection on Department, then a join whose comparisons are on tuple
    // POINTERS, not on data values ("it could lead to a significant cost
    // savings if the join columns were string values instead").
    println!("Query 2: employees in the Toy or Shoe departments");
    for dept_name in ["Toy", "Shoe"] {
        let dtid = dept_by_name(&db, dept_name);
        // Probe the employees' hash index on the pointer attribute with a
        // pointer key.
        let emps = db.select("employee", "dept", &Predicate::Eq(KeyValue::Ptr(dtid)))?;
        for row in db.fetch("employee", &emps.column(0), &["name"])? {
            println!("  {:?} ({dept_name})", row[0]);
        }
    }

    // The full precomputed join, §3.3.5's "beats every method".
    let result = db
        .query("employee")
        .join("dept", "department", "name")
        .run()?;
    let join = result.profile.joins()[0];
    println!(
        "precomputed join produced {} pairs via {:?} in {} comparisons",
        result.rows.len(),
        join.method.expect("join nodes carry their method"),
        join.stats.comparisons
    );
    Ok(())
}
