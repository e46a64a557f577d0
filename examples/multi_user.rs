//! Multiple users, one memory-resident database (§2.4, §2.5): a
//! bank-teller workload from eight client threads, each with its own
//! [`Session`] on one shared [`TxnEngine`]. Partition locks isolate the
//! transfers (strict 2PL), and `with_retry` re-runs a deadlock victim
//! from the top.
//!
//! ```sh
//! cargo run --release --example multi_user
//! ```

#![allow(clippy::unwrap_used, clippy::expect_used, clippy::print_stdout)]

use mmdb_core::{Database, IndexKind, Session, Txn, TxnEngine, TxnError};
use mmdb_exec::Predicate;
use mmdb_storage::{AttrType, KeyValue, OwnedValue, Schema, TupleId};
use std::time::Instant;

const ACCOUNTS: i64 = 64;
const CLIENTS: usize = 8;
const TXNS_PER_CLIENT: usize = 500;
/// Attempts per transfer before giving up; a deadlock victim retries.
const ATTEMPTS: usize = 1_000;

/// Read one account's tuple id and balance inside `txn`.
fn account(s: &Session, txn: &mut Txn, owner: i64) -> Result<(TupleId, i64), TxnError> {
    s.read(txn, &["acct"], |db| {
        let hit = db.select("acct", "owner", &Predicate::Eq(KeyValue::Int(owner)))?;
        let tid = hit.column(0)[0];
        let bal = match db.fetch("acct", &[tid], &["balance"])?[0][0] {
            OwnedValue::Int(v) => v,
            _ => unreachable!(),
        };
        Ok((tid, bal))
    })
}

fn main() {
    let engine = TxnEngine::new(Database::in_memory());
    engine.with_db(|db| {
        db.create_table(
            "acct",
            Schema::of(&[("owner", AttrType::Int), ("balance", AttrType::Int)]),
        )
        .unwrap();
        db.create_index("acct_owner", "acct", "owner", IndexKind::Hash)
            .unwrap();
        let mut txn = db.begin();
        for owner in 0..ACCOUNTS {
            db.insert(&mut txn, "acct", vec![owner.into(), 1000i64.into()])
                .unwrap();
        }
        db.commit(txn).unwrap();
    });

    let start = Instant::now();
    let threads: Vec<_> = (0..CLIENTS)
        .map(|c| {
            let session = engine.session();
            std::thread::spawn(move || {
                let mut seed = (c as u64 + 1) * 0x9E37_79B9;
                let mut attempts = 0usize;
                for _ in 0..TXNS_PER_CLIENT {
                    seed ^= seed << 13;
                    seed ^= seed >> 7;
                    seed ^= seed << 17;
                    let from = (seed % ACCOUNTS as u64) as i64;
                    let to = ((seed >> 8) % ACCOUNTS as u64) as i64;
                    if from == to {
                        continue;
                    }
                    // One short transfer transaction.
                    session
                        .with_retry(ATTEMPTS, |s, txn| {
                            attempts += 1;
                            let (ftid, fbal) = account(s, txn, from)?;
                            let (ttid, tbal) = account(s, txn, to)?;
                            s.update(txn, "acct", ftid, "balance", OwnedValue::Int(fbal - 10))?;
                            s.update(txn, "acct", ttid, "balance", OwnedValue::Int(tbal + 10))
                        })
                        .unwrap();
                }
                attempts
            })
        })
        .collect();
    let attempts: usize = threads.into_iter().map(|t| t.join().unwrap()).sum();
    let elapsed = start.elapsed();

    let stats = engine.group_commit_stats();
    let balances = engine.with_db(|db| {
        db.fetch("acct", &db.tids("acct").unwrap(), &["balance"])
            .unwrap()
    });
    let n = balances.len();
    let total: i64 = balances
        .iter()
        .map(|row| match row[0] {
            OwnedValue::Int(v) => v,
            _ => unreachable!(),
        })
        .sum();
    println!(
        "{} clients × {} transfer txns in {:.3}s ({:.0} commits/s)",
        CLIENTS,
        TXNS_PER_CLIENT,
        elapsed.as_secs_f64(),
        stats.commits as f64 / elapsed.as_secs_f64()
    );
    println!(
        "{} commits in {} group-commit batches; {} deadlock retries",
        stats.commits,
        stats.batches,
        attempts as u64 - stats.commits
    );
    println!("accounts: {n}, total balance: {total}");
    assert_eq!(total, ACCOUNTS * 1000, "money is conserved");
    println!("money conserved under concurrent multi-user execution ✓");
}
