//! Reuse-cache invariants: every resident entry's fingerprint re-derives
//! from its canonical form, stamp bookkeeping is internally consistent,
//! no entry whose inputs have changed can be served, and both entry
//! indexes are exactly what the resident entries call for: the
//! per-table reader index files every entry under each table it reads,
//! and the subsumption-candidate index files the order-safe keyed
//! entries under their `(table, attr)`.
//!
//! The staleness judgement here is *independent* of the cache's own
//! freshness test: [`check_cache`] recomputes "did any input move?" from
//! the entry's stamps and the live [`VersionSource`], then asserts the
//! cache's serving decision ([`ReuseCache::would_serve`]) agrees. A bug
//! in either side surfaces as a named violation instead of a stale row.

use crate::report::Report;
use mmdb_exec::cache::{fingerprint, DeltaEvent, ReuseCache, VersionSource, DELTA_BUDGET};
use std::collections::BTreeSet;

const STRUCTURE: &str = "reuse cache";

/// Componentwise `a <= b` for partition-version vectors, tolerating
/// growth (a later vector may have more partitions, never fewer).
fn versions_le(a: &[u64], b: &[u64]) -> bool {
    a.len() <= b.len() && a.iter().zip(b).all(|(x, y)| x <= y)
}

/// Validate every resident entry of `cache` against `live`.
#[must_use]
pub fn check_cache(cache: &ReuseCache, live: &dyn VersionSource) -> Report {
    let mut report = Report::new();
    for e in cache.entries() {
        let loc = || format!("entry {:#x} ({})", e.fingerprint, e.canonical);

        // The key is a pure function of the canonical form.
        let derived = fingerprint(&e.canonical);
        if e.fingerprint != derived {
            report.fail(
                STRUCTURE,
                loc(),
                "the fingerprint re-derives identically from the canonical form",
                format!("stored {:#x}, derived {derived:#x}", e.fingerprint),
            );
        }

        // Stamp bookkeeping: one stamp vector per table, rows arity
        // matching the bound-table count.
        if e.tables.is_empty() {
            report.fail(
                STRUCTURE,
                loc(),
                "an entry covers at least one table",
                "tables list is empty".to_string(),
            );
        }
        if e.tables.len() != e.stamps.len() {
            report.fail(
                STRUCTURE,
                loc(),
                "one version-stamp vector per covered table",
                format!(
                    "{} tables, {} stamp vectors",
                    e.tables.len(),
                    e.stamps.len()
                ),
            );
        }
        if e.rows.arity() != e.tables.len() {
            report.fail(
                STRUCTURE,
                loc(),
                "cached rows carry one column per covered table",
                format!("arity {}, {} tables", e.rows.arity(), e.tables.len()),
            );
        }

        // Independent staleness judgement: an entry is fresh iff the
        // epoch matches and every covered table's live version vector
        // equals the stamp taken at compute time.
        let fresh = e.epoch == live.catalog_epoch()
            && e.tables.len() == e.stamps.len()
            && e.tables
                .iter()
                .zip(&e.stamps)
                .all(|(t, stamp)| live.table_versions(t).as_deref() == Some(stamp.as_slice()));
        let derivable = e.fingerprint == derived;
        let served = cache.would_serve(e.fingerprint, &e.canonical, live);
        if fresh && derivable && !served {
            report.fail(
                STRUCTURE,
                loc(),
                "a fresh entry is servable",
                "stamps match the live versions but would_serve is false".to_string(),
            );
        }
        if !fresh && served {
            report.fail(
                STRUCTURE,
                loc(),
                "stamped versions match or the entry is unreachable",
                "an input version moved but the entry would still serve".to_string(),
            );
        }

        // Structured-key consistency: a keyed entry is a single-table
        // arity-1 selection whose canonical form re-derives from the key
        // (so subsumption matching and fingerprint matching can never
        // disagree about what the rows mean).
        if let Some(k) = &e.key {
            let derived_canon = format!("sel({}.{} {})", k.table, k.attr, k.pred);
            if e.canonical != derived_canon {
                report.fail(
                    STRUCTURE,
                    loc(),
                    "a keyed entry's canonical form re-derives from its reuse key",
                    format!("stored {:?}, derived {derived_canon:?}", e.canonical),
                );
            }
            if e.tables.as_slice() != [k.table.clone()] {
                report.fail(
                    STRUCTURE,
                    loc(),
                    "a keyed entry covers exactly its key's table",
                    format!("tables {:?}, key table {:?}", e.tables, k.table),
                );
            }
            if k.maintainable && !k.order_safe {
                report.fail(
                    STRUCTURE,
                    loc(),
                    "maintainable entries are order-safe (sequential scan order)",
                    "maintainable flag set on an order-unsafe key".to_string(),
                );
            }
        }

        // Delta-chain invariants.
        if !e.deltas.is_empty() {
            let maintainable = e.key.as_ref().is_some_and(|k| k.maintainable);
            if !maintainable {
                report.fail(
                    STRUCTURE,
                    loc(),
                    "only maintainable selection entries accrue deltas",
                    format!(
                        "{} pending deltas on an unmaintainable entry",
                        e.deltas.len()
                    ),
                );
            }
            if e.deltas.len() > DELTA_BUDGET {
                report.fail(
                    STRUCTURE,
                    loc(),
                    "a delta chain never outgrows the budget",
                    format!("{} > {DELTA_BUDGET}", e.deltas.len()),
                );
            }
            if e.deltas.iter().any(|d| d.event == DeltaEvent::Barrier) {
                report.fail(
                    STRUCTURE,
                    loc(),
                    "relocation barriers evict, they are never stored",
                    "a Barrier record is resident in a delta chain".to_string(),
                );
            }
            // The chain must walk monotonically from the compute-time
            // stamp to `delta_stamps`: stamps[0] <= rec1 <= ... <= tip.
            let mut prev: &[u64] = e.stamps.first().map_or(&[], Vec::as_slice);
            let mut monotone = true;
            for d in &e.deltas {
                monotone &= versions_le(prev, &d.versions_after);
                prev = &d.versions_after;
            }
            monotone &= prev == &e.delta_stamps[..];
            if !monotone {
                report.fail(
                    STRUCTURE,
                    loc(),
                    "the delta chain walks the version lattice upward to delta_stamps",
                    format!(
                        "stamps {:?} -> chain {:?} -> delta_stamps {:?}",
                        e.stamps.first(),
                        e.deltas
                            .iter()
                            .map(|d| &d.versions_after)
                            .collect::<Vec<_>>(),
                        e.delta_stamps
                    ),
                );
            }

            // Gap coverage: the cache may serve this entry via patching
            // iff the chain's tip *is* the live vector — the deltas then
            // exactly cover the version gap between the entry's stamps
            // and the live table. Judged independently of the cache's
            // own `would_serve_delta`.
            let gap_covered = !fresh
                && maintainable
                && e.epoch == live.catalog_epoch()
                && e.tables.len() == 1
                && live.table_versions(&e.tables[0]).as_deref() == Some(&e.delta_stamps[..]);
            let delta_served = cache.would_serve_delta(e.fingerprint, &e.canonical, live);
            if gap_covered && derivable && !delta_served {
                report.fail(
                    STRUCTURE,
                    loc(),
                    "a gap-covering delta chain is delta-servable",
                    "chain tip equals the live versions but would_serve_delta is false".to_string(),
                );
            }
            if !gap_covered && delta_served {
                report.fail(
                    STRUCTURE,
                    loc(),
                    "deltas served only when they exactly cover the version gap",
                    "would_serve_delta is true but the chain tip is not the live vector"
                        .to_string(),
                );
            }
        } else if !e.delta_stamps.is_empty()
            && e.stamps.first().map(Vec::as_slice) != Some(&e.delta_stamps[..])
        {
            // An empty chain means "no pending maintenance": the tip
            // must sit exactly at the compute-time stamp.
            report.fail(
                STRUCTURE,
                loc(),
                "an empty delta chain keeps delta_stamps at the compute-time stamp",
                format!(
                    "stamps {:?}, delta_stamps {:?}",
                    e.stamps.first(),
                    e.delta_stamps
                ),
            );
        }
    }

    // The candidate index is derived state: it must file exactly the
    // resident order-safe keyed entries, each under its own key's
    // (table, attr). A missing filing hides a subsumer from probes; a
    // stray one points probes at an entry that is gone or was re-keyed.
    let derived: BTreeSet<(&str, &str, u64)> = cache
        .entries()
        .filter_map(|e| {
            e.key
                .as_ref()
                .filter(|k| k.order_safe)
                .map(|k| (k.table.as_str(), k.attr.as_str(), e.fingerprint))
        })
        .collect();
    let filed: BTreeSet<(&str, &str, u64)> = cache.candidates().iter().collect();
    for (t, a, fp) in derived.difference(&filed) {
        report.fail(
            STRUCTURE,
            format!("candidate index ({t}, {a})"),
            "every resident order-safe keyed entry is filed under its (table, attr)",
            format!("entry {fp:#x} is not filed"),
        );
    }
    for (t, a, fp) in filed.difference(&derived) {
        report.fail(
            STRUCTURE,
            format!("candidate index ({t}, {a})"),
            "the candidate index files only resident order-safe keyed entries",
            format!("{fp:#x} is filed but no such entry is resident"),
        );
    }

    // The reader index is derived state too: a write visits only the
    // entries filed under its table, so a missing filing would leave a
    // dead entry resident.
    let derived: BTreeSet<(&str, u64)> = cache
        .entries()
        .flat_map(|e| e.tables.iter().map(move |t| (t.as_str(), e.fingerprint)))
        .collect();
    let filed: BTreeSet<(&str, u64)> = cache.readers().collect();
    for (t, fp) in derived.symmetric_difference(&filed) {
        report.fail(
            STRUCTURE,
            format!("reader index ({t})"),
            "the reader index files each resident entry under exactly the tables it reads",
            format!(
                "{fp:#x} is {}",
                if filed.contains(&(t, *fp)) {
                    "filed but does not read the table"
                } else {
                    "not filed"
                }
            ),
        );
    }

    // Occupancy accounting must agree with the per-entry bytes.
    let sum: usize = cache.entries().map(|e| e.bytes).sum();
    let r = cache.report();
    if r.bytes != sum {
        report.fail(
            STRUCTURE,
            "occupancy".to_string(),
            "retained-bytes counter equals the sum of entry sizes",
            format!("counter {}, sum {sum}", r.bytes),
        );
    }
    if r.bytes > cache.capacity_bytes() {
        report.fail(
            STRUCTURE,
            "occupancy".to_string(),
            "retained bytes stay within the configured budget",
            format!("{} > {}", r.bytes, cache.capacity_bytes()),
        );
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use mmdb_exec::cache::{DeltaRec, ReuseKey, StoreTicket};
    use mmdb_exec::Predicate;
    use mmdb_storage::{KeyValue, TempList, TupleId};
    use std::collections::HashMap;
    use std::sync::Arc;

    struct MemVersions(HashMap<String, Vec<u64>>);

    impl VersionSource for MemVersions {
        fn table_versions(&self, table: &str) -> Option<Vec<u64>> {
            self.0.get(table).cloned()
        }
    }

    fn live(v: u64) -> MemVersions {
        MemVersions(HashMap::from([("emp".to_string(), vec![v])]))
    }

    fn ticket(v: u64) -> StoreTicket {
        let canonical = "sel(emp.age = 30)".to_string();
        StoreTicket {
            fingerprint: fingerprint(&canonical),
            canonical,
            tables: vec!["emp".to_string()],
            stamps: vec![vec![v]],
            epoch: 0,
            cost: 100.0,
            key: None,
        }
    }

    fn keyed_ticket(v: u64) -> StoreTicket {
        let mut t = ticket(v);
        t.key = Some(ReuseKey {
            table: "emp".to_string(),
            attr: "age".to_string(),
            pred: Predicate::Eq(KeyValue::Int(30)),
            order_safe: true,
            maintainable: true,
        });
        t
    }

    fn rows() -> TempList {
        TempList::from_tids(vec![TupleId::new(0, 1), TupleId::new(0, 3)])
    }

    #[test]
    fn healthy_cache_passes() {
        let mut cache = ReuseCache::default();
        cache.insert(&ticket(5), &rows());
        assert!(check_cache(&cache, &live(5)).is_ok());
        // Stale-but-resident is fine too: a write that bypassed the log
        // leaves the entry resident, the invariant is only that it
        // cannot serve.
        assert!(check_cache(&cache, &live(6)).is_ok());
    }

    #[test]
    fn tampered_fingerprint_is_caught() {
        let mut cache = ReuseCache::default();
        cache.insert(&ticket(5), &rows());
        for e in cache.entries_mut() {
            e.fingerprint ^= 0xdead_beef;
        }
        // NB: the entry is keyed by the old fingerprint, so would_serve
        // also goes false — the re-derivation check is what fires.
        let report = check_cache(&cache, &live(5));
        assert!(!report.is_ok());
        let err = format!("{:?}", report.into_result());
        assert!(err.contains("re-derives"), "{err}");
    }

    #[test]
    fn tampered_canonical_is_caught() {
        let mut cache = ReuseCache::default();
        cache.insert(&ticket(5), &rows());
        for e in cache.entries_mut() {
            e.canonical = "sel(emp.age = 99)".to_string();
        }
        assert!(!check_cache(&cache, &live(5)).is_ok());
    }

    #[test]
    fn tampered_stamps_must_not_serve() {
        let mut cache = ReuseCache::default();
        cache.insert(&ticket(5), &rows());
        // Pretend the entry was computed at a future version: live says
        // 5, the stamp says 9 — the entry must be unservable.
        for e in cache.entries_mut() {
            e.stamps = vec![vec![9]];
        }
        let report = check_cache(&cache, &live(5));
        assert!(report.is_ok(), "stale entries may linger unservable");
        assert!(!cache.would_serve(ticket(5).fingerprint, "sel(emp.age = 30)", &live(5)));
    }

    #[test]
    fn arity_mismatch_is_caught() {
        let mut cache = ReuseCache::default();
        let mut t = ticket(5);
        t.tables.push("dept".to_string());
        t.stamps.push(vec![1]);
        cache.insert(&t, &rows()); // arity-1 rows against two tables
        assert!(!check_cache(&cache, &live(5)).is_ok());
    }

    #[test]
    fn missing_stamp_vector_is_caught() {
        let mut cache = ReuseCache::default();
        cache.insert(&ticket(5), &rows());
        for e in cache.entries_mut() {
            e.stamps.clear();
        }
        assert!(!check_cache(&cache, &live(5)).is_ok());
    }

    /// Put a maintained keyed entry with one pending delta into `cache`
    /// (hot, chain `[5] -> [6]`).
    fn maintained_entry(cache: &mut ReuseCache) {
        cache.insert(&keyed_ticket(5), &rows());
        let t = keyed_ticket(5);
        // Heat the entry so note_write maintains it instead of skipping.
        assert!(cache
            .lookup(t.fingerprint, &t.canonical, &live(5))
            .is_some());
        cache.note_write("emp", DeltaEvent::Insert(TupleId::new(0, 7)), &[6]);
        assert_eq!(cache.entries().next().unwrap().deltas.len(), 1);
    }

    #[test]
    fn healthy_maintained_entry_passes_and_gap_coverage_agrees() {
        let mut cache = ReuseCache::default();
        maintained_entry(&mut cache);
        let t = keyed_ticket(5);
        // At live [6] the chain exactly covers the gap.
        assert!(check_cache(&cache, &live(6)).is_ok());
        assert!(cache.would_serve_delta(t.fingerprint, &t.canonical, &live(6)));
        // At live [7] it does not (an unlogged write slipped past):
        // still consistent — just not servable.
        assert!(check_cache(&cache, &live(7)).is_ok());
        assert!(!cache.would_serve_delta(t.fingerprint, &t.canonical, &live(7)));
    }

    #[test]
    fn tampered_delta_chain_is_caught() {
        let mut cache = ReuseCache::default();
        maintained_entry(&mut cache);
        // Break monotonicity: the chain claims the write *lowered* a
        // version counter.
        for e in cache.entries_mut() {
            e.deltas[0].versions_after = Arc::from([4]);
            e.delta_stamps = Arc::from([4]);
        }
        let report = check_cache(&cache, &live(6));
        let err = format!("{:?}", report.into_result());
        assert!(err.contains("version lattice"), "{err}");
    }

    #[test]
    fn tampered_chain_tip_is_caught() {
        let mut cache = ReuseCache::default();
        maintained_entry(&mut cache);
        // delta_stamps disagrees with the last record's vector.
        for e in cache.entries_mut() {
            e.delta_stamps = Arc::from([9]);
        }
        assert!(!check_cache(&cache, &live(6)).is_ok());
    }

    #[test]
    fn widened_key_predicate_is_caught() {
        let mut cache = ReuseCache::default();
        cache.insert(&keyed_ticket(5), &rows());
        // Widen the key's interval without touching the canonical form:
        // subsumption would now hand these rows to queries they don't
        // answer — the key/canonical re-derivation must fire.
        for e in cache.entries_mut() {
            e.key.as_mut().unwrap().pred = Predicate::less(KeyValue::Int(1000));
        }
        let report = check_cache(&cache, &live(5));
        let err = format!("{:?}", report.into_result());
        assert!(err.contains("re-derives from its reuse key"), "{err}");
    }

    #[test]
    fn deltas_on_unmaintainable_entry_are_caught() {
        let mut cache = ReuseCache::default();
        cache.insert(&ticket(5), &rows()); // no key: exact-only entry
        for e in cache.entries_mut() {
            e.deltas.push(DeltaRec {
                event: DeltaEvent::Insert(TupleId::new(0, 7)),
                versions_after: Arc::from([6]),
            });
            e.delta_stamps = Arc::from([6]);
        }
        let report = check_cache(&cache, &live(6));
        let err = format!("{:?}", report.into_result());
        assert!(err.contains("maintainable"), "{err}");
    }

    #[test]
    fn stored_barrier_is_caught() {
        let mut cache = ReuseCache::default();
        maintained_entry(&mut cache);
        for e in cache.entries_mut() {
            e.deltas.push(DeltaRec {
                event: DeltaEvent::Barrier,
                versions_after: Arc::from([7]),
            });
            e.delta_stamps = Arc::from([7]);
        }
        let report = check_cache(&cache, &live(7));
        let err = format!("{:?}", report.into_result());
        assert!(err.contains("Barrier"), "{err}");
    }

    #[test]
    fn unfiled_candidate_is_caught() {
        let mut cache = ReuseCache::default();
        cache.insert(&keyed_ticket(5), &rows());
        assert!(check_cache(&cache, &live(5)).is_ok());
        // Drop the filing: probes would no longer see this subsumer.
        let fp = keyed_ticket(5).fingerprint;
        cache.candidates_mut().remove("emp", "age", fp);
        let err = format!("{:?}", check_cache(&cache, &live(5)).into_result());
        assert!(err.contains("is not filed"), "{err}");
    }

    #[test]
    fn stray_candidate_is_caught() {
        let mut cache = ReuseCache::default();
        cache.insert(&keyed_ticket(5), &rows());
        // File the entry under an attribute it does not select on, and
        // a fingerprint no entry has.
        let fp = keyed_ticket(5).fingerprint;
        cache.candidates_mut().add("emp", "salary", fp);
        cache.candidates_mut().add("emp", "age", fp ^ 1);
        let err = format!("{:?}", check_cache(&cache, &live(5)).into_result());
        assert!(err.contains("(emp, salary)"), "{err}");
        assert!(err.contains(&format!("{:#x}", fp ^ 1)), "{err}");
    }

    #[test]
    fn rekeyed_entry_is_caught_by_the_index_check() {
        let mut cache = ReuseCache::default();
        cache.insert(&keyed_ticket(5), &rows());
        // Flip the entry to hash order behind the index's back: it is
        // still filed, but can no longer answer a narrower query.
        for e in cache.entries_mut() {
            let k = e.key.as_mut().unwrap();
            k.order_safe = false;
            k.maintainable = false;
        }
        let err = format!("{:?}", check_cache(&cache, &live(5)).into_result());
        assert!(err.contains("files only resident order-safe"), "{err}");
    }

    #[test]
    fn retabled_entry_is_caught_by_the_reader_index_check() {
        let mut cache = ReuseCache::default();
        cache.insert(&ticket(5), &rows());
        // Point the entry at another table behind the index's back: a
        // write to `emp` would no longer visit it.
        for e in cache.entries_mut() {
            e.tables = vec!["dept".to_string()];
        }
        let err = format!("{:?}", check_cache(&cache, &live(5)).into_result());
        assert!(err.contains("reader index (dept)"), "{err}");
        assert!(err.contains("reader index (emp)"), "{err}");
    }

    #[test]
    fn drained_chain_with_moved_tip_is_caught() {
        let mut cache = ReuseCache::default();
        cache.insert(&keyed_ticket(5), &rows());
        // Empty chain but a tip that wandered off the compute stamp.
        for e in cache.entries_mut() {
            e.delta_stamps = Arc::from([8]);
        }
        let report = check_cache(&cache, &live(5));
        let err = format!("{:?}", report.into_result());
        assert!(err.contains("compute-time stamp"), "{err}");
    }
}
