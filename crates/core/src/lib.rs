//! The MM-DBMS facade: the full system of §2 assembled.
//!
//! [`Database`] ties together every substrate crate:
//!
//! * partitioned relations with stable tuple pointers (`mmdb-storage`);
//! * the two dynamic index structures the design selects (§2.2): the
//!   **T-Tree** for ordered data and **Modified Linear Hashing** for
//!   unordered data (`mmdb-index`);
//! * query processing with the §4 preference ordering (`mmdb-exec`);
//! * partition-granularity strict 2PL (`mmdb-lock`);
//! * redo-only logging with an active log device and working-set-first
//!   restart (`mmdb-recovery`).
//!
//! Transactions buffer their writes and apply them at commit — the §2.4
//! discipline in which *"if the transaction aborts, then the log entry is
//! removed and no undo is needed"*. Reads observe committed state.
//!
//! ```
//! use mmdb_core::{Database, IndexKind};
//! use mmdb_storage::{AttrType, KeyValue, OwnedValue, Schema};
//! use mmdb_exec::Predicate;
//!
//! let mut db = Database::in_memory();
//! db.create_table("emp", Schema::of(&[("name", AttrType::Str), ("age", AttrType::Int)])).unwrap();
//! db.create_index("emp_age", "emp", "age", IndexKind::TTree).unwrap();
//! let mut txn = db.begin();
//! db.insert(&mut txn, "emp", vec![OwnedValue::from("Dave"), OwnedValue::from(66i64)]).unwrap();
//! db.insert(&mut txn, "emp", vec![OwnedValue::from("Cindy"), OwnedValue::from(22i64)]).unwrap();
//! db.commit(txn).unwrap();
//! let over_65 = db.select("emp", "age", &Predicate::greater(KeyValue::Int(65))).unwrap();
//! assert_eq!(over_65.len(), 1);
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]
#![cfg_attr(test, allow(clippy::unwrap_used, clippy::expect_used))]

pub mod catalog;
pub mod checkpoint;
pub mod db;
pub mod engine;
pub mod error;
pub mod query;
pub mod shared;
pub mod txn;

pub use checkpoint::{CheckpointReport, Checkpointer};
pub use db::{
    CrashedDatabase, Database, IndexKind, IndexRebuildStat, RecoveryReport, RecoveryTimings,
    TableId, APPEND_FENCE,
};
pub use engine::{GroupCommitStats, Session, Txn, TxnEngine, TxnError};
pub use error::DbError;
pub use query::{QueryBuilder, QueryOutput};
pub use shared::SharedAdapter;
pub use txn::Transaction;
