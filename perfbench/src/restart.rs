//! `restart`: one thread and one 200k-row table, with a hash index and a
//! T-Tree index, over the counting disk, crashed and restarted at least
//! 100 times.
//!
//! Each cycle commits a burst of single-row updates and inserts, runs the
//! log device (and a checkpoint every `CHECKPOINT_EVERY`-th cycle),
//! crashes, restarts with `recover_with` and a one-partition working set,
//! and checks that every write acknowledged in the cycle (plus a sample of
//! older ones) reads back, that the row count holds, and that
//! `validate_indexes()` passes. No queries and no sessions run.

use crate::disk::{CountingDisk, DiskCounters};
use crate::report::{EndToEnd, Report};
use crate::stats::{median, overhead_frac, ratio, Summary};
use crate::{int_row, set_up, trace, Config};
use mmdb_core::Database;
use mmdb_core::IndexKind;
use mmdb_exec::{ExecConfig, Predicate};
use mmdb_storage::{AttrType, KeyValue, OwnedValue, Schema};
use mmdb_workload::{RelationSpec, ValueSet};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::HashMap;
use std::sync::Arc;
use std::time::{Duration, Instant};

type Db = Database<CountingDisk>;

const ROWS: usize = 200_000;
/// Restart cycles a run makes at least, so that p90 leaves ten beyond.
const MIN_CYCLES: usize = 100;
/// Single-row transactions per cycle; one in `INSERT_ONE_IN` inserts.
const BURST: usize = 20;
const INSERT_ONE_IN: u32 = 4;
/// A full checkpoint runs every this many cycles.
const CHECKPOINT_EVERY: usize = 5;
/// Older acknowledged keys re-read after each restart.
const OLD_SAMPLE: usize = 32;
const LOAD_BATCH: usize = 2_000;
/// User bytes: 8 per `Int`; an update carries its key and new value.
const ROW_BYTES: u64 = 24;
const UPDATE_BYTES: u64 = 16;

/// The benchmark's copy: `k -> [v, w]` for every acknowledged row.
type Model = HashMap<i64, [i64; 2]>;

struct State {
    db: Option<Db>,
    disk: Arc<DiskCounters>,
    model: Model,
    /// Keys of `model`, for uniform choice.
    keys: Vec<i64>,
    next_key: i64,
    rng: StdRng,
}

fn setup(seed: u64, rows: usize) -> State {
    let v = ValueSet::generate(&RelationSpec {
        cardinality: rows,
        duplicate_pct: 50.0,
        sigma: 0.4,
        seed,
    });
    let (disk, counters) = CountingDisk::new();
    let mut db = Database::with_disk(disk);
    db.create_table(
        "t",
        Schema::of(&[
            ("k", AttrType::Int),
            ("v", AttrType::Int),
            ("w", AttrType::Int),
        ]),
    )
    .expect("create t");
    db.create_index("t_k", "t", "k", IndexKind::Hash)
        .expect("index t.k");
    let mut model = Model::with_capacity(rows + rows / 10);
    for (c, chunk) in v.values.chunks(LOAD_BATCH).enumerate() {
        let mut txn = db.begin();
        for (i, val) in chunk.iter().enumerate() {
            let k = (c * LOAD_BATCH + i) as i64;
            db.insert(&mut txn, "t", int_row(&[k, *val, 0]))
                .expect("buffer row");
            model.insert(k, [*val, 0]);
        }
        db.commit(txn).expect("load t");
    }
    db.create_index("t_v", "t", "v", IndexKind::TTree)
        .expect("index t.v");
    db.checkpoint().expect("checkpoint the loaded database");
    let mut state = State {
        db: Some(db),
        disk: counters,
        keys: (0..rows as i64).collect(),
        model,
        next_key: rows as i64,
        rng: StdRng::seed_from_u64(seed ^ 0x4E57),
    };
    // Warm up with one full cycle.
    let mut report = Report::default();
    let mut t = Tally::default();
    cycle(&mut state, 0, &mut report, &mut t);
    assert_eq!(report.failed, 0, "warm-up cycle failed");
    state
}

/// Per-run tallies.
#[derive(Default)]
struct Tally {
    commits: u64,
    user_bytes: u64,
    write_ms: Vec<f64>,
    restart_ms: Vec<f64>,
    /// `[catalog, working_set, background, index_rebuild]` per restart.
    phases_ms: [Vec<f64>; 4],
    bytes_read: Vec<f64>,
    checkpoint_ms: Vec<f64>,
    checkpoint_images: Vec<f64>,
    /// `[untraced, traced]` commits and system time (checks excluded).
    ops: [u64; 2],
    busy: [Duration; 2],
    traced_requests: u64,
}

/// One crash-restart cycle. Returns `false` when the database was lost
/// (restart failed), which ends the run.
fn cycle(state: &mut State, n: usize, report: &mut Report, t: &mut Tally) -> bool {
    let traced = trace::enabled();
    let slot = usize::from(traced);
    let Some(mut db) = state.db.take() else {
        return false;
    };
    let req = trace::request("bench.request");
    t.traced_requests += u64::from(req.id() != 0);
    let mut busy = Duration::ZERO;
    let mut written: Vec<i64> = Vec::with_capacity(BURST);
    for _ in 0..BURST {
        let insert = state.rng.gen_range(0..INSERT_ONE_IN) == 0;
        let t0 = Instant::now();
        let (key, row, acked) = if insert {
            let k = state.next_key;
            let v = state.rng.gen_range(0..1_000_000i64);
            let ok = {
                let _s = trace::span("core.db.commit");
                let mut txn = db.begin();
                db.insert(&mut txn, "t", int_row(&[k, v, 1])).is_ok() && db.commit(txn).is_ok()
            };
            (k, [v, 1], ok)
        } else {
            let k = state.keys[state.rng.gen_range(0..state.keys.len())];
            let w = state.rng.gen_range(1..1_000_000i64);
            let tid = {
                let _s = trace::span("core.db.select");
                db.select("t", "k", &Predicate::Eq(KeyValue::Int(k)))
                    .ok()
                    .filter(|l| l.len() == 1)
                    .map(|l| l.row(0)[0])
            };
            let ok = tid.is_some_and(|tid| {
                let _s = trace::span("core.db.commit");
                let mut txn = db.begin();
                db.update(&mut txn, "t", tid, "w", OwnedValue::Int(w))
                    .is_ok()
                    && db.commit(txn).is_ok()
            });
            (k, [state.model.get(&k).map_or(0, |r| r[0]), w], ok)
        };
        let wall = t0.elapsed();
        busy += wall;
        report.check(acked);
        if acked {
            t.write_ms.push(wall.as_secs_f64() * 1e3);
            t.commits += 1;
            t.ops[slot] += 1;
            if insert {
                state.next_key += 1;
                state.keys.push(key);
                t.user_bytes += ROW_BYTES;
            } else {
                t.user_bytes += UPDATE_BYTES;
            }
            state.model.insert(key, row);
            written.push(key);
        }
    }
    let t0 = Instant::now();
    let device = {
        let _s = trace::span("recovery.device.run");
        db.run_log_device()
    };
    busy += t0.elapsed();
    report.check(device.is_ok());
    if n % CHECKPOINT_EVERY == CHECKPOINT_EVERY - 1 {
        let t0 = Instant::now();
        let ckpt = {
            let _s = trace::span("core.checkpoint.run");
            db.checkpoint()
        };
        let ms = t0.elapsed();
        busy += ms;
        report.check(ckpt.is_ok());
        if let Ok(r) = ckpt {
            t.checkpoint_ms.push(ms.as_secs_f64() * 1e3);
            t.checkpoint_images.push(r.images_written as f64);
        }
    }
    let read_before = state.disk.snapshot().bytes_read;
    let t0 = Instant::now();
    let crashed = {
        let _s = trace::span("core.db.crash");
        db.crash()
    };
    let recovered = {
        let s = trace::span("core.recover.recover_with");
        let _ambient = trace::ambient(&s);
        let r0 = Instant::now();
        let out = crashed.recover_with(&[("t", 0)], ExecConfig::default());
        (out, r0.elapsed())
    };
    busy += t0.elapsed();
    t.busy[slot] += busy;
    drop(req);
    let (out, wall) = recovered;
    let Ok((db, rep)) = out else {
        report.check(false);
        return false;
    };
    t.restart_ms.push(wall.as_secs_f64() * 1e3);
    t.bytes_read
        .push((state.disk.snapshot().bytes_read - read_before) as f64);
    let tm = rep.timings;
    let phases = [tm.catalog, tm.working_set, tm.background, tm.index_rebuild];
    for (v, d) in t.phases_ms.iter_mut().zip(phases) {
        v.push(d.as_secs_f64() * 1e3);
    }
    // The four phases lie inside the call.
    let restart_ok = phases.iter().sum::<Duration>() <= wall
        && db.validate_indexes().is_ok()
        && db.len("t").ok() == Some(state.model.len());
    report.check(restart_ok);
    for _ in 0..OLD_SAMPLE {
        written.push(state.keys[state.rng.gen_range(0..state.keys.len())]);
    }
    for k in written {
        report.check(row_matches(&db, k, state.model.get(&k)));
    }
    state.db = Some(db);
    true
}

/// Does key `k` read back as exactly the acknowledged row?
fn row_matches(db: &Db, k: i64, want: Option<&[i64; 2]>) -> bool {
    let Some(want) = want else {
        return false;
    };
    let Ok(tids) = db.select("t", "k", &Predicate::Eq(KeyValue::Int(k))) else {
        return false;
    };
    let flat: Vec<_> = tids.iter().map(|r| r[0]).collect();
    let Ok(rows) = db.fetch("t", &flat, &["k", "v", "w"]) else {
        return false;
    };
    rows == [int_row(&[k, want[0], want[1]])]
}

/// Run the workload.
pub fn run(cfg: &Config) -> Report {
    let mut report = Report::default();
    let (mut state, setups) = set_up(|| setup(cfg.seed, ROWS));
    let setup_s = report.setup_times("restart", &setups);

    let disk_before = state.disk.snapshot();
    let mut t = Tally::default();
    let start = Instant::now();
    let mut n = 0;
    while n < MIN_CYCLES || start.elapsed() < cfg.run {
        trace::set_enabled(cfg.trace && n % 2 == 1);
        let alive = cycle(&mut state, n, &mut report, &mut t);
        trace::set_enabled(false);
        n += 1;
        if !alive {
            break;
        }
    }
    let disk = state.disk.snapshot().since(&disk_before);
    let stored = ratio(
        disk.stored_bytes as f64,
        (state.model.len() as u64 * ROW_BYTES) as f64,
    );
    let r = Summary::of(&t.restart_ms, 900);
    let w = Summary::of(&t.write_ms, 990);
    let total_busy = t.busy[0] + t.busy[1];
    let ops_per_s = ratio(t.commits as f64, total_busy.as_secs_f64());
    let commits = t.commits as f64;
    if cfg.trace {
        report.traced_requests = t.traced_requests;
        report.set("core.checkpoint.ms", median(&t.checkpoint_ms));
        report.set("core.checkpoint.images", median(&t.checkpoint_images));
        for (name, v) in [
            "core.recover.catalog_ms",
            "core.recover.working_set_ms",
            "core.recover.background_ms",
            "core.recover.index_rebuild_ms",
        ]
        .iter()
        .zip(&t.phases_ms)
        {
            report.set(name, median(v));
        }
        report.set(
            "recovery.disk.bytes_read_per_restart",
            median(&t.bytes_read),
        );
        report.set(
            "recovery.disk.writes_per_commit",
            ratio(disk.writes as f64, commits),
        );
        report.set(
            "recovery.disk.bytes_per_commit",
            ratio(disk.bytes_written as f64, commits),
        );
        report.set(
            "recovery.disk.write_amp",
            ratio(disk.bytes_written as f64, t.user_bytes as f64),
        );
        report.set("trace.overhead_frac", overhead_frac(t.ops, t.busy));
    } else {
        report.end_to_end(&EndToEnd {
            setup_s,
            ops_per_s,
            request: r,
            write_p50_ms: w.p50,
            stored_bytes_per_user_byte: stored,
        });
    }

    report.line(format!(
        "restart ops_per_s {ops_per_s:?} 1/s ({} commits in {n} cycles, {:.3} s of system time)",
        t.commits,
        total_busy.as_secs_f64()
    ));
    report.line(format!("restart restart_p50_ms {:?} ms (n={})", r.p50, r.n));
    report.line(format!(
        "restart restart_{}_ms {:?} ms (n={})",
        r.tail_label(),
        r.tail,
        r.n
    ));
    report.line(format!(
        "restart commit_p50_ms {:?} ms, commit_{}_ms {:?} ms (n={})",
        w.p50,
        w.tail_label(),
        w.tail,
        w.n
    ));
    report.line(format!(
        "restart stored_bytes_per_user_byte {stored:?} ratio ({} B stored for {} rows of {ROW_BYTES} B)",
        disk.stored_bytes,
        state.model.len()
    ));
    let phase_names = ["catalog", "working_set", "background", "index_rebuild"];
    let phases: Vec<String> = phase_names
        .iter()
        .zip(&t.phases_ms)
        .map(|(p, v)| format!("{p} {:.3} ms", median(v)))
        .collect();
    report.line(format!(
        "restart phases (medians): {}; {:.0} B read per restart; checkpoints {} (median {:.3} ms, {} images); disk {} writes, {} B for {} user B",
        phases.join(", "),
        median(&t.bytes_read),
        t.checkpoint_ms.len(),
        median(&t.checkpoint_ms),
        median(&t.checkpoint_images),
        disk.writes,
        disk.bytes_written,
        t.user_bytes
    ));
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Honest cycles pass every check; a lost or altered acknowledged
    /// write is caught by the read-back check.
    #[test]
    fn restart_checks_count_lost_and_altered_writes() {
        let mut state = setup(5, 3_000);
        let mut report = Report::default();
        let mut t = Tally::default();
        for n in 0..CHECKPOINT_EVERY {
            assert!(cycle(&mut state, n, &mut report, &mut t));
        }
        assert_eq!(report.failed, 0);
        assert_eq!(t.restart_ms.len(), CHECKPOINT_EVERY);
        assert_eq!(t.checkpoint_ms.len(), 1);

        let db = state.db.as_ref().unwrap();
        let (&k, &row) = state.model.iter().next().unwrap();
        assert!(row_matches(db, k, Some(&row)));
        // An acknowledged value that did not survive.
        assert!(!row_matches(db, k, Some(&[row[0], row[1] + 1])));
        // An acknowledged insert that is missing after restart.
        assert!(!row_matches(db, state.next_key + 99, Some(&[0, 1])));
        // A row the benchmark never acknowledged.
        assert!(!row_matches(db, k, None));
    }
}
