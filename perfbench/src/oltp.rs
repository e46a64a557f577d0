//! `oltp`: two sessions share one `TxnEngine` over a 100k-row `acct`
//! table in a closed loop.
//!
//! Modified Linear Hashing indexes the key `id`; a T-Tree indexes `grp`,
//! drawn by the paper's generator with Graph 3's skew (99% duplicates,
//! σ = 0.1), so the cost of maintaining a heavily duplicated T-Tree shows
//! in proportion. Keys are uniform. The mix is 70% read-only point
//! transactions (`select_values`), 25% read-modify-write (`select`, then
//! `update` of `grp`) and 5% inserts, all through `with_retry`. The
//! planner, the join kernels and the reuse cache are never called.
//!
//! At the end, the row count must equal the loaded rows plus every
//! committed insert, every inserted row must be readable, and every
//! updated key must hold its loaded value or one the benchmark committed
//! for it.

use crate::disk::{CountingDisk, DiskCounters, DiskSnapshot};
use crate::report::{EndToEnd, Report};
use crate::stats::{overhead_frac, ratio, windowed_rate, Summary, Windowed};
use crate::{int_row, set_up, trace, Config};
use mmdb_core::{Database, IndexKind, Session, TxnEngine, TxnError};
use mmdb_exec::Predicate;
use mmdb_storage::{AttrType, KeyValue, OwnedValue, Schema};
use mmdb_workload::{RelationSpec, TruncatedNormal, ValueSet};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::HashMap;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Client threads: no more than the 2 CPUs of the machine the workload
/// was sized on.
pub const CLIENTS: usize = 2;
const ACCT_ROWS: usize = 100_000;
/// Graph 3's skewed duplicates: 1,000 distinct `grp` values.
const GRP_DUP_PCT: f64 = 99.0;
const GRP_SIGMA: f64 = 0.1;
/// Mix, in percent: read-only, read-modify-write, the rest inserts.
const READ_PCT: u32 = 70;
const RMW_PCT: u32 = 25;
/// `with_retry` attempts before a transaction counts as failed.
const ATTEMPTS: usize = 64;
/// Rows per commit while loading.
const LOAD_BATCH: usize = 2_000;
/// Transactions each client runs to warm up, at the end of set-up.
const WARMUP_TXNS: usize = 1_000;
/// User bytes: 8 per `Int`; an update carries its key and new value.
const ROW_BYTES: u64 = 24;
const UPDATE_BYTES: u64 = 16;
/// First id of rows inserted by client `c`: `INSERT_BASE * (c + 1)`.
const INSERT_BASE: i64 = 1 << 40;
/// Traced and untraced slices alternate at this period.
const SLICE: Duration = Duration::from_millis(200);
/// Throughput is tallied per window of the timed phase.
const WINDOW: Duration = Duration::from_secs(1);
const COLS: [&str; 3] = ["id", "bal", "grp"];

type Engine = TxnEngine<CountingDisk>;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Kind {
    Read,
    Rmw,
    Insert,
}

/// What the clients committed, for the final checks.
#[derive(Debug, Default)]
struct Committed {
    /// Every `grp` value committed per updated id.
    updates: HashMap<i64, Vec<i64>>,
    /// Inserted `(id, grp)` rows.
    inserts: Vec<(i64, i64)>,
    user_bytes: u64,
}

/// One client's tallies.
#[derive(Debug, Default)]
struct ClientOut {
    committed: Committed,
    read_ms: Windowed,
    write_ms: Windowed,
    commits: u64,
    write_commits: u64,
    attempts: u64,
    attempted: u64,
    failed: u64,
    /// `[untraced, traced]` commits and time inside transactions.
    ops: [u64; 2],
    busy: [Duration; 2],
    traced_requests: u64,
    /// Commits per `WINDOW` of the timed phase.
    window_commits: Vec<u64>,
    read_call_us: Vec<f64>,
    buffer_call_us: Vec<f64>,
    commit_call_us: Vec<f64>,
}

impl ClientOut {
    fn merge(&mut self, mut o: ClientOut) {
        for (k, v) in o.committed.updates {
            self.committed.updates.entry(k).or_default().extend(v);
        }
        self.committed.inserts.extend(o.committed.inserts);
        self.committed.user_bytes += o.committed.user_bytes;
        self.read_ms.append(&mut o.read_ms);
        self.write_ms.append(&mut o.write_ms);
        self.commits += o.commits;
        self.write_commits += o.write_commits;
        self.attempts += o.attempts;
        self.attempted += o.attempted;
        self.failed += o.failed;
        for i in 0..2 {
            self.ops[i] += o.ops[i];
            self.busy[i] += o.busy[i];
        }
        self.traced_requests += o.traced_requests;
        if self.window_commits.len() < o.window_commits.len() {
            self.window_commits.resize(o.window_commits.len(), 0);
        }
        for (a, b) in self.window_commits.iter_mut().zip(&o.window_commits) {
            *a += b;
        }
        self.read_call_us.extend(o.read_call_us);
        self.buffer_call_us.extend(o.buffer_call_us);
        self.commit_call_us.extend(o.commit_call_us);
    }
}

/// Times one engine call into `sink` (only while tracing) under a span.
fn call<R>(name: &'static str, sink: &mut Vec<f64>, f: impl FnOnce() -> R) -> R {
    let _s = trace::span(name);
    let t0 = Instant::now();
    let out = f();
    if trace::enabled() {
        sink.push(t0.elapsed().as_secs_f64() * 1e6);
    }
    out
}

/// The span and start of a `Session::commit` call issued by `with_retry`
/// after the body returns; it ends when the next attempt's body starts
/// or `with_retry` returns, as nothing else runs in between.
struct PendingCommit(Option<(trace::Guard, Instant)>);

impl PendingCommit {
    fn open(&mut self) {
        self.0 = Some((trace::span("core.engine.commit_call"), Instant::now()));
    }

    fn close(&mut self, sink: Option<&mut Vec<f64>>) {
        if let Some((guard, t0)) = self.0.take() {
            let us = t0.elapsed().as_secs_f64() * 1e6;
            drop(guard);
            if let Some(s) = sink.filter(|_| trace::enabled()) {
                s.push(us);
            }
        }
    }
}

/// A client: its session, random stream and id counter.
struct Client {
    session: Session<CountingDisk>,
    rng: StdRng,
    /// Transactions target the loaded ids `0..keys`.
    keys: i64,
    next_id: i64,
    grp_values: Arc<Vec<i64>>,
}

impl Client {
    fn new(engine: &Engine, c: usize, seed: u64, keys: usize, grp_values: Arc<Vec<i64>>) -> Client {
        Client {
            session: engine.session(),
            keys: keys as i64,
            rng: StdRng::seed_from_u64(seed ^ (0xC11E_0000 + c as u64)),
            next_id: INSERT_BASE * (c as i64 + 1),
            grp_values,
        }
    }

    fn draw_grp(&mut self) -> i64 {
        let i = TruncatedNormal::new(GRP_SIGMA).sample_index(&mut self.rng, self.grp_values.len());
        self.grp_values[i]
    }

    /// Run one transaction; returns its kind, whether it committed with a
    /// correct answer, and its wall time.
    fn txn(&mut self, out: &mut ClientOut) -> (Kind, bool, Duration) {
        let p = self.rng.gen_range(0..100u32);
        let kind = if p < READ_PCT {
            Kind::Read
        } else if p < READ_PCT + RMW_PCT {
            Kind::Rmw
        } else {
            Kind::Insert
        };
        let key = self.rng.gen_range(0..self.keys);
        let grp = self.draw_grp();
        let id = self.next_id;
        let bal = self.rng.gen_range(0..1_000_000i64);
        let mut pending = PendingCommit(None);
        let mut attempts = 0u64;
        let (read_call, buffer_call, commit_call) = (
            &mut out.read_call_us,
            &mut out.buffer_call_us,
            &mut out.commit_call_us,
        );
        let t0 = Instant::now();
        let res = self.session.with_retry(ATTEMPTS, |s, txn| {
            attempts += 1;
            pending.close(None);
            let ok = match kind {
                Kind::Read => {
                    let rows = call("core.engine.read_call", read_call, || {
                        s.select_values(
                            txn,
                            "acct",
                            "id",
                            &Predicate::Eq(KeyValue::Int(key)),
                            &COLS,
                        )
                    })?;
                    rows.len() == 1 && rows[0][0] == OwnedValue::Int(key)
                }
                Kind::Rmw => {
                    let tids = call("core.engine.read_call", read_call, || {
                        s.select(txn, "acct", "id", &Predicate::Eq(KeyValue::Int(key)))
                    })?;
                    if tids.len() == 1 {
                        let tid = tids.row(0)[0];
                        call("core.engine.buffer_call", buffer_call, || {
                            s.update(txn, "acct", tid, "grp", OwnedValue::Int(grp))
                        })?;
                    }
                    tids.len() == 1
                }
                Kind::Insert => {
                    let row = int_row(&[id, bal, grp]);
                    call("core.engine.buffer_call", buffer_call, || {
                        s.insert(txn, "acct", row)
                    })?;
                    true
                }
            };
            pending.open();
            Ok::<bool, TxnError>(ok)
        });
        pending.close((kind != Kind::Read).then_some(commit_call));
        let wall = t0.elapsed();
        out.attempts += attempts;
        let ok = matches!(res, Ok((true, _)));
        if res.is_ok() {
            out.commits += 1;
            match kind {
                Kind::Read => {}
                Kind::Rmw => {
                    out.write_commits += 1;
                    out.committed.updates.entry(key).or_default().push(grp);
                    out.committed.user_bytes += UPDATE_BYTES;
                }
                Kind::Insert => {
                    out.write_commits += 1;
                    out.committed.inserts.push((id, grp));
                    out.committed.user_bytes += ROW_BYTES;
                    self.next_id += 1;
                }
            }
        }
        (kind, ok, wall)
    }

    /// Run transactions until `deadline` (timed) or for `count` (warm-up).
    fn run(&mut self, start: Instant, until: Until, trace_slices: bool) -> ClientOut {
        let mut out = ClientOut::default();
        let mut done = 0usize;
        loop {
            match until {
                Until::Count(n) if done >= n => break,
                Until::Elapsed(d) if start.elapsed() >= d => break,
                _ => {}
            }
            done += 1;
            let traced = trace_slices && (start.elapsed().as_nanos() / SLICE.as_nanos()) % 2 == 1;
            trace::set_enabled(traced);
            let (kind, ok, wall) = {
                let req = trace::request("bench.request");
                out.traced_requests += u64::from(req.id() != 0);
                self.txn(&mut out)
            };
            let slot = usize::from(traced);
            out.attempted += 1;
            if ok {
                let w = (start.elapsed().as_nanos() / WINDOW.as_nanos()) as usize;
                if out.window_commits.len() <= w {
                    out.window_commits.resize(w + 1, 0);
                }
                out.window_commits[w] += 1;
                out.ops[slot] += 1;
                out.busy[slot] += wall;
                let ms = wall.as_secs_f64() * 1e3;
                if kind == Kind::Read {
                    out.read_ms.push(w, ms);
                } else {
                    out.write_ms.push(w, ms);
                }
            } else {
                out.failed += 1;
            }
        }
        trace::set_enabled(false);
        out
    }
}

#[derive(Debug, Clone, Copy)]
enum Until {
    Count(usize),
    Elapsed(Duration),
}

struct State {
    engine: Engine,
    /// Rows loaded at set-up (ids `0..loaded`).
    loaded: usize,
    disk: Arc<DiskCounters>,
    clients: Vec<Client>,
    /// Loaded `grp` per id.
    initial_grp: Vec<i64>,
    committed: Committed,
}

fn setup(seed: u64, rows: usize, warmup_txns: usize) -> State {
    let grp = ValueSet::generate(&RelationSpec {
        cardinality: rows,
        duplicate_pct: GRP_DUP_PCT,
        sigma: GRP_SIGMA,
        seed,
    });
    let mut rng = StdRng::seed_from_u64(seed ^ 0xACC7);
    let (disk, counters) = CountingDisk::new();
    let mut db = Database::with_disk(disk);
    db.create_table(
        "acct",
        Schema::of(&[
            ("id", AttrType::Int),
            ("bal", AttrType::Int),
            ("grp", AttrType::Int),
        ]),
    )
    .expect("create acct");
    db.create_index("acct_id", "acct", "id", IndexKind::Hash)
        .expect("index acct.id");
    for (c, chunk) in grp.values.chunks(LOAD_BATCH).enumerate() {
        let mut txn = db.begin();
        for (i, g) in chunk.iter().enumerate() {
            let id = (c * LOAD_BATCH + i) as i64;
            let row = int_row(&[id, rng.gen_range(0..1_000_000), *g]);
            db.insert(&mut txn, "acct", row).expect("buffer acct row");
        }
        db.commit(txn).expect("load acct");
    }
    db.create_index("acct_grp", "acct", "grp", IndexKind::TTree)
        .expect("index acct.grp");
    db.checkpoint().expect("checkpoint the loaded database");
    let engine = TxnEngine::new(db);
    let grp_values = Arc::new(grp.unique.clone());
    let mut clients: Vec<Client> = (0..CLIENTS)
        .map(|c| Client::new(&engine, c, seed, rows, Arc::clone(&grp_values)))
        .collect();
    let mut warm = ClientOut::default();
    let start = Instant::now();
    std::thread::scope(|s| {
        let handles: Vec<_> = clients
            .iter_mut()
            .map(|c| s.spawn(move || c.run(start, Until::Count(warmup_txns), false)))
            .collect();
        for h in handles {
            warm.merge(h.join().expect("warm-up client panicked"));
        }
    });
    assert_eq!(warm.failed, 0, "warm-up transactions failed");
    State {
        engine,
        loaded: rows,
        disk: counters,
        clients,
        initial_grp: grp.values,
        committed: warm.committed,
    }
}

/// The end-of-run checks; each counts one attempted operation.
fn final_checks(state: &State, report: &mut Report) {
    let c = &state.committed;
    state.engine.with_db(|db| {
        let len = db.len("acct").unwrap_or(0);
        report.check(len == state.loaded + c.inserts.len());
        report.check(db.validate_indexes().is_ok());
        let grp_of = |id: i64| -> Option<Vec<i64>> {
            let tids = db
                .select("acct", "id", &Predicate::Eq(KeyValue::Int(id)))
                .ok()?;
            let flat: Vec<_> = tids.iter().map(|r| r[0]).collect();
            let rows = db.fetch("acct", &flat, &["grp"]).ok()?;
            Some(
                rows.iter()
                    .map(|r| match r[0] {
                        OwnedValue::Int(g) => g,
                        _ => i64::MIN,
                    })
                    .collect(),
            )
        };
        for (id, g) in &c.inserts {
            report.check(grp_of(*id) == Some(vec![*g]));
        }
        let mut keys: Vec<&i64> = c.updates.keys().collect();
        keys.sort_unstable();
        for id in keys {
            report.check(update_is_committed(
                grp_of(*id).as_deref(),
                state.initial_grp[*id as usize],
                &c.updates[id],
            ));
        }
    });
}

/// An updated key must hold exactly one row whose value is the loaded one
/// or one the benchmark committed for that key.
fn update_is_committed(found: Option<&[i64]>, initial: i64, committed: &[i64]) -> bool {
    match found {
        Some([g]) => *g == initial || committed.contains(g),
        _ => false,
    }
}

/// Run the workload.
pub fn run(cfg: &Config) -> Report {
    let mut report = Report::default();
    let (mut state, setups) = set_up(|| setup(cfg.seed, ACCT_ROWS, WARMUP_TXNS));
    let setup_s = report.setup_times("oltp", &setups);

    let disk_before = state.disk.snapshot();
    let locks_before = state.engine.lock_request_count();
    let group_before = state.engine.group_commit_stats();
    let device_before = state.engine.with_db(|db| db.log_device_counters());
    let mut all = ClientOut::default();
    let start = Instant::now();
    std::thread::scope(|s| {
        let handles: Vec<_> = state
            .clients
            .iter_mut()
            .map(|c| s.spawn(move || c.run(start, Until::Elapsed(cfg.run), cfg.trace)))
            .collect();
        for h in handles {
            all.merge(h.join().expect("client panicked"));
        }
    });
    let wall = start.elapsed();
    let disk: DiskSnapshot = state.disk.snapshot().since(&disk_before);
    let lock_requests = state.engine.lock_request_count() - locks_before;
    let group = state.engine.group_commit_stats();
    let device = state.engine.with_db(|db| db.log_device_counters());
    report.attempted += all.attempted;
    report.failed += all.failed;
    let user_bytes = all.committed.user_bytes;
    let c = std::mem::take(&mut all.committed);
    for (k, v) in c.updates {
        state.committed.updates.entry(k).or_default().extend(v);
    }
    state.committed.inserts.extend(c.inserts);
    final_checks(&state, &mut report);
    let live_rows = state.loaded + state.committed.inserts.len();
    let stored = ratio(
        disk.stored_bytes as f64,
        (live_rows as u64 * ROW_BYTES) as f64,
    );

    let r = all.read_ms.summary(990);
    let w = all.write_ms.summary(990);
    let mut txn_ms = all.read_ms;
    txn_ms.append(&mut all.write_ms);
    let t = txn_ms.summary(950);
    let window_s: Vec<f64> = (0..all.window_commits.len())
        .map(|i| (wall.as_secs_f64() - i as f64 * WINDOW.as_secs_f64()).min(WINDOW.as_secs_f64()))
        .collect();
    let ops_per_s = windowed_rate(&all.window_commits, &window_s);
    let wc = all.write_commits as f64;
    if cfg.trace {
        report.traced_requests = all.traced_requests;
        for (name, v) in [
            ("core.engine.read_call_us", &all.read_call_us),
            ("core.engine.buffer_call_us", &all.buffer_call_us),
            ("core.engine.commit_call_us", &all.commit_call_us),
        ] {
            let s = Summary::of(v, 990);
            report.set(&format!("{name}.p50"), s.p50);
            report.set(&format!("{name}.tail"), s.tail);
        }
        report.set(
            "core.engine.attempts_per_commit",
            ratio(all.attempts as f64, all.commits as f64),
        );
        report.set(
            "core.engine.txns_per_batch",
            ratio(
                (group.commits - group_before.commits) as f64,
                (group.batches - group_before.batches) as f64,
            ),
        );
        report.set(
            "lock.requests_per_txn",
            ratio(lock_requests as f64, all.commits as f64),
        );
        report.set(
            "recovery.device.flushes_per_commit",
            ratio((device.1 - device_before.1) as f64, wc),
        );
        report.set(
            "recovery.disk.writes_per_commit",
            ratio(disk.writes as f64, wc),
        );
        report.set(
            "recovery.disk.bytes_per_commit",
            ratio(disk.bytes_written as f64, wc),
        );
        report.set(
            "recovery.disk.write_amp",
            ratio(disk.bytes_written as f64, user_bytes as f64),
        );
        report.set(
            "recovery.disk.write_share",
            ratio(
                trace::recorded_ns("recovery.disk.write") as f64,
                trace::recorded_ns("core.engine.commit_call") as f64,
            ),
        );
        report.set("trace.overhead_frac", overhead_frac(all.ops, all.busy));
    } else {
        report.end_to_end(&EndToEnd {
            setup_s,
            ops_per_s,
            request: t,
            write_p50_ms: w.p50,
            stored_bytes_per_user_byte: stored,
        });
    }

    report.line(format!(
        "oltp ops_per_s {ops_per_s:?} 1/s (median over {WINDOW:?} windows; {} commits, {} of them writes, by {CLIENTS} clients in {:.3} s)",
        all.commits,
        all.write_commits,
        wall.as_secs_f64()
    ));
    report.line(format!(
        "oltp commits per {WINDOW:?} window: {:?}",
        all.window_commits
    ));
    report.line(format!(
        "oltp txn_p50_ms {:?} ms, txn_{}_ms {:?} ms (n={}; medians over windows, as below)",
        t.p50,
        t.tail_label(),
        t.tail,
        t.n
    ));
    report.line(format!(
        "oltp read_txn_p50_us {:?} us (n={})",
        r.p50 * 1e3,
        r.n
    ));
    report.line(format!(
        "oltp read_txn_{}_us {:?} us (n={})",
        r.tail_label(),
        r.tail * 1e3,
        r.n
    ));
    report.line(format!(
        "oltp write_txn_p50_us {:?} us (n={})",
        w.p50 * 1e3,
        w.n
    ));
    report.line(format!(
        "oltp write_txn_{}_us {:?} us (n={})",
        w.tail_label(),
        w.tail * 1e3,
        w.n
    ));
    report.line(format!(
        "oltp stored_bytes_per_user_byte {stored:?} ratio ({} B stored for {live_rows} rows of {ROW_BYTES} B)",
        disk.stored_bytes
    ));
    report.line(format!(
        "oltp attempts {} for {} commits; {} lock requests; group commit {} txns in {} batches; disk {} writes, {} B written for {} user B",
        all.attempts,
        all.commits,
        lock_requests,
        group.commits - group_before.commits,
        group.batches - group_before.batches,
        disk.writes,
        disk.bytes_written,
        user_bytes
    ));
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn update_check_rejects_values_never_committed() {
        assert!(update_is_committed(Some(&[7]), 7, &[]));
        assert!(update_is_committed(Some(&[9]), 7, &[3, 9]));
        // Tampered: a value nobody committed for this key.
        assert!(!update_is_committed(Some(&[5]), 7, &[3, 9]));
        // Tampered: the row vanished or was duplicated.
        assert!(!update_is_committed(None, 7, &[3]));
        assert!(!update_is_committed(Some(&[]), 7, &[3]));
        assert!(!update_is_committed(Some(&[7, 7]), 7, &[3]));
    }

    /// The end-of-run checks pass on an honest run and count a failure
    /// for each kind of tampering behind the benchmark's back.
    #[test]
    fn final_checks_count_tampered_state() {
        let mut state = setup(3, 2_000, 150);
        let mut r = Report::default();
        final_checks(&state, &mut r);
        assert!(r.attempted > 2 && r.failed == 0, "{r:?}");
        assert!(!state.committed.updates.is_empty() && !state.committed.inserts.is_empty());

        // A value nobody committed for an updated key.
        let (&key, _) = state.committed.updates.iter().next().unwrap();
        state.engine.with_db(|db| {
            let tid = db
                .select("acct", "id", &Predicate::Eq(KeyValue::Int(key)))
                .unwrap()
                .row(0)[0];
            let mut txn = db.begin();
            db.update(&mut txn, "acct", tid, "grp", OwnedValue::Int(-42))
                .unwrap();
            db.commit(txn).unwrap();
        });
        let mut r = Report::default();
        final_checks(&state, &mut r);
        assert_eq!(r.failed, 1);

        // An acknowledged insert the benchmark has no record of: the row
        // count no longer adds up.
        let lost = state.committed.inserts.pop().unwrap();
        let mut r = Report::default();
        final_checks(&state, &mut r);
        assert_eq!(r.failed, 2);

        // An acknowledged insert that is missing from the table.
        state.committed.inserts.push(lost);
        state.committed.inserts.push((-7, 0));
        let mut r = Report::default();
        final_checks(&state, &mut r);
        assert_eq!(r.failed, 3);
    }
}
