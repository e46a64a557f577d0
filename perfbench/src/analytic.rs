//! `analytic`: one client runs planner queries with the reuse cache on,
//! over a 200k-row `fact` and a 20k-row `dim` built by the paper's
//! generator (§3.3.1), with about one operation in 50 replaced by a
//! single-row update committed through `Database::commit`.
//!
//! Six query shapes: point select and range select on the T-Tree over
//! `fact.pk`, an unindexed scan filter on `fact.val`, a small-outer join
//! (`dim` slice probing the T-Tree on `fact.jcol`: the TreeJoin side of
//! the §3.3.4 crossover), a large-outer join (`fact` slice against the
//! 20k-row `dim`: the HashJoin side) and a distinct projection. Each
//! shape draws its parameter from a small hot set (a repeat), from inside
//! a hot range (a nest), or uniformly from its whole domain, so the hot
//! results fit in the default 16 MiB reuse cache while the domain does
//! not. A seeded sample of answers is compared with a brute-force
//! evaluation over the benchmark's own copy of the rows.

use crate::disk::{CountingDisk, DiskCounters};
use crate::report::{self, EndToEnd, Report};
use crate::stats::{median, overhead_frac, ratio, windowed_rate, Summary, Windowed};
use crate::{int_row, set_up, trace, Config};
use mmdb_core::{Database, IndexKind, QueryBuilder, QueryOutput};
use mmdb_exec::{CacheReport, JoinMethod, Predicate};
use mmdb_storage::{AttrType, KeyValue, OwnedValue, Schema, TupleId};
use mmdb_workload::{RelationSpec, ValueSet};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::{HashMap, HashSet};
use std::sync::Arc;
use std::time::{Duration, Instant};

type Db = Database<CountingDisk>;

const FACT_ROWS: usize = 200_000;
const DIM_ROWS: usize = 20_000;
/// 90% duplicates: 20k distinct `fact.jcol` values, about 10 rows each.
const FACT_DUP_PCT: f64 = 90.0;
/// `fact.val` is uniform over `0..VAL_DOMAIN`.
const VAL_DOMAIN: i64 = 1_000_000;
/// Bytes of user data per row: 8 per `Int` attribute.
const FACT_ROW_BYTES: u64 = 24;
const DIM_ROW_BYTES: u64 = 16;
/// Rows per commit while loading.
const LOAD_BATCH: usize = 2_000;
/// One operation in this many is a single-row update.
const WRITE_ONE_IN: u64 = 50;
/// One query in this many is checked against the brute-force answer.
const CHECK_ONE_IN: u64 = 16;
/// Hot parameters per shape.
const HOT_PARAMS: usize = 32;
/// Parameter draw: a hot parameter below `HOT_P`, a range nested inside
/// a hot one below `NEST_P` (ranged shapes), uniform otherwise.
const HOT_P: f64 = 0.5;
const NEST_P: f64 = 0.65;
/// Warm-up operations at the end of set-up (fill the reuse cache).
const WARMUP_OPS: usize = 300;
/// Traced and untraced slices alternate at this period.
const SLICE: Duration = Duration::from_millis(200);
/// Latency and throughput are summarised per window of the timed phase.
const WINDOW: Duration = Duration::from_secs(2);
/// One traced join query in this many is re-run with every feasible
/// forced join method.
const JOIN_PROBE_ONE_IN: u64 = 4;
/// Allowed excess of the operators' summed self time over `run()`'s wall
/// time (timer granularity).
const PROFILE_TOLERANCE: Duration = Duration::from_micros(20);

#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
enum Shape {
    Point,
    Range,
    Scan,
    SmallJoin,
    LargeJoin,
    Distinct,
}

const SHAPES: [Shape; 6] = [
    Shape::Point,
    Shape::Range,
    Shape::Scan,
    Shape::SmallJoin,
    Shape::LargeJoin,
    Shape::Distinct,
];

impl Shape {
    fn name(self) -> &'static str {
        match self {
            Shape::Point => "point",
            Shape::Range => "range",
            Shape::Scan => "scan_filter",
            Shape::SmallJoin => "small_outer_join",
            Shape::LargeJoin => "large_outer_join",
            Shape::Distinct => "distinct",
        }
    }

    /// Relative frequency in the mix: no shape takes much more than a
    /// third of the query time, and the median query falls inside the
    /// range-select population rather than at the edge between two
    /// shapes, where it would jump between them from run to run.
    fn weight(self) -> u32 {
        match self {
            Shape::Point => 35,
            Shape::Range => 25,
            Shape::Scan => 8,
            Shape::SmallJoin => 15,
            Shape::LargeJoin => 7,
            Shape::Distinct => 10,
        }
    }

    /// Parameter domain `0..domain` and range width (1 = point).
    fn domain_and_width(self) -> (i64, i64) {
        match self {
            Shape::Point => (FACT_ROWS as i64, 1),
            Shape::Range => (FACT_ROWS as i64, 200),
            Shape::Scan => (VAL_DOMAIN, 2_000),
            Shape::SmallJoin => (DIM_ROWS as i64, 16),
            Shape::LargeJoin => (FACT_ROWS as i64, 4_000),
            Shape::Distinct => (FACT_ROWS as i64, 4_000),
        }
    }

    fn is_join(self) -> bool {
        matches!(self, Shape::SmallJoin | Shape::LargeJoin)
    }
}

/// The benchmark's own copy of the generated rows.
#[derive(Debug, Clone)]
struct Model {
    /// `fact[pk] = [pk, jcol, val]`.
    fact: Vec<[i64; 3]>,
    /// `dim[pk] = [pk, jcol]`.
    dim: Vec<[i64; 2]>,
    fact_by_jcol: HashMap<i64, Vec<i64>>,
    dim_by_jcol: HashMap<i64, Vec<i64>>,
}

impl Model {
    fn generate(seed: u64) -> Model {
        let fact_vs = ValueSet::generate(&RelationSpec {
            cardinality: FACT_ROWS,
            duplicate_pct: FACT_DUP_PCT,
            sigma: 0.8,
            seed,
        });
        let dim_vs = ValueSet::generate_matching(
            &RelationSpec::unique(DIM_ROWS, seed.wrapping_add(1)),
            &fact_vs,
            100.0,
        );
        let mut rng = StdRng::seed_from_u64(seed ^ 0xFAC7);
        let fact: Vec<[i64; 3]> = fact_vs
            .values
            .iter()
            .enumerate()
            .map(|(pk, &j)| [pk as i64, j, rng.gen_range(0..VAL_DOMAIN)])
            .collect();
        let dim: Vec<[i64; 2]> = dim_vs
            .values
            .iter()
            .enumerate()
            .map(|(pk, &j)| [pk as i64, j])
            .collect();
        Model::index(fact, dim)
    }

    fn index(fact: Vec<[i64; 3]>, dim: Vec<[i64; 2]>) -> Model {
        let mut fact_by_jcol: HashMap<i64, Vec<i64>> = HashMap::new();
        for r in &fact {
            fact_by_jcol.entry(r[1]).or_default().push(r[0]);
        }
        let mut dim_by_jcol: HashMap<i64, Vec<i64>> = HashMap::new();
        for r in &dim {
            dim_by_jcol.entry(r[1]).or_default().push(r[0]);
        }
        Model {
            fact,
            dim,
            fact_by_jcol,
            dim_by_jcol,
        }
    }

    fn fact_range(&self, lo: i64, hi: i64) -> impl Iterator<Item = &[i64; 3]> {
        self.fact.iter().filter(move |r| (lo..=hi).contains(&r[0]))
    }

    /// The brute-force answer, rows sorted.
    fn expected(&self, shape: Shape, lo: i64, hi: i64) -> Vec<Vec<i64>> {
        let mut rows: Vec<Vec<i64>> = match shape {
            Shape::Point | Shape::Range => self.fact_range(lo, hi).map(|r| r.to_vec()).collect(),
            Shape::Scan => self
                .fact
                .iter()
                .filter(|r| (lo..=hi).contains(&r[2]))
                .map(|r| r.to_vec())
                .collect(),
            Shape::SmallJoin => self
                .dim
                .iter()
                .filter(|d| (lo..=hi).contains(&d[0]))
                .flat_map(|d| {
                    let facts = self.fact_by_jcol.get(&d[1]).map_or(&[][..], Vec::as_slice);
                    facts.iter().map(move |f| vec![d[0], *f])
                })
                .collect(),
            Shape::LargeJoin => self
                .fact_range(lo, hi)
                .flat_map(|f| {
                    let dims = self.dim_by_jcol.get(&f[1]).map_or(&[][..], Vec::as_slice);
                    dims.iter().map(move |d| vec![f[0], *d])
                })
                .collect(),
            Shape::Distinct => {
                let set: HashSet<i64> = self.fact_range(lo, hi).map(|r| r[1]).collect();
                set.into_iter().map(|j| vec![j]).collect()
            }
        };
        rows.sort_unstable();
        rows
    }

    fn user_bytes(&self) -> u64 {
        self.fact.len() as u64 * FACT_ROW_BYTES + self.dim.len() as u64 * DIM_ROW_BYTES
    }
}

/// Does `rows` (as returned) equal `expected` (sorted) as a multiset?
fn answer_matches(rows: &[Vec<OwnedValue>], expected: &[Vec<i64>]) -> bool {
    let got: Option<Vec<Vec<i64>>> = rows
        .iter()
        .map(|r| {
            r.iter()
                .map(|v| match v {
                    OwnedValue::Int(i) => Some(*i),
                    _ => None,
                })
                .collect()
        })
        .collect();
    let Some(mut got) = got else {
        return false;
    };
    got.sort_unstable();
    got == expected
}

fn query<'a>(db: &'a Db, shape: Shape, lo: i64, hi: i64) -> QueryBuilder<'a, CountingDisk> {
    let range = Predicate::between(KeyValue::Int(lo), KeyValue::Int(hi));
    match shape {
        Shape::Point => db
            .query("fact")
            .filter("pk", Predicate::Eq(KeyValue::Int(lo))),
        Shape::Range => db.query("fact").filter("pk", range),
        Shape::Scan => db.query("fact").filter("val", range),
        Shape::SmallJoin => db
            .query("dim")
            .filter("pk", range)
            .join("jcol", "fact", "jcol")
            .project(&[("dim", "pk"), ("fact", "pk")]),
        Shape::LargeJoin => db
            .query("fact")
            .filter("pk", range)
            .join("jcol", "dim", "jcol")
            .project(&[("fact", "pk"), ("dim", "pk")]),
        Shape::Distinct => db
            .query("fact")
            .filter("pk", range)
            .project(&[("fact", "jcol")])
            .distinct(),
    }
}

/// Parameter source: hot sets per shape plus what has run so far, to
/// measure the share of queries that repeat or nest an earlier one.
struct Params {
    hot: HashMap<Shape, Vec<(i64, i64)>>,
    seen: HashSet<(Shape, i64, i64)>,
    repeats_or_nests: u64,
    drawn: u64,
}

impl Params {
    fn new(seed: u64) -> Params {
        let mut rng = StdRng::seed_from_u64(seed ^ 0x407);
        let hot = SHAPES
            .iter()
            .map(|&s| {
                let v = (0..HOT_PARAMS).map(|_| uniform(&mut rng, s)).collect();
                (s, v)
            })
            .collect();
        Params {
            hot,
            seen: HashSet::new(),
            repeats_or_nests: 0,
            drawn: 0,
        }
    }

    fn draw(&mut self, rng: &mut StdRng, shape: Shape) -> (i64, i64) {
        let (_, width) = shape.domain_and_width();
        let hot = &self.hot[&shape];
        let h = hot[rng.gen_range(0..hot.len())];
        let p: f64 = rng.gen_range(0.0..1.0);
        let (lo, hi, nested_in) = if p < HOT_P {
            (h.0, h.1, None)
        } else if p < NEST_P && width > 2 {
            let a = rng.gen_range(0..width / 2);
            let b = rng.gen_range(0..width / 2);
            (h.0 + a, h.1 - b, Some(h))
        } else {
            let (lo, hi) = uniform(rng, shape);
            (lo, hi, None)
        };
        self.drawn += 1;
        let nested = nested_in.is_some_and(|(a, b)| self.seen.contains(&(shape, a, b)));
        if !self.seen.insert((shape, lo, hi)) || nested {
            self.repeats_or_nests += 1;
        }
        (lo, hi)
    }
}

fn uniform(rng: &mut StdRng, shape: Shape) -> (i64, i64) {
    let (domain, width) = shape.domain_and_width();
    let lo = rng.gen_range(0..domain - width + 1);
    (lo, lo + width - 1)
}

fn pick_shape(rng: &mut StdRng) -> Shape {
    let total: u32 = SHAPES.iter().map(|s| s.weight()).sum();
    let mut x = rng.gen_range(0..total);
    for s in SHAPES {
        if x < s.weight() {
            return s;
        }
        x -= s.weight();
    }
    Shape::Point
}

struct State {
    db: Db,
    disk: Arc<DiskCounters>,
    model: Model,
    /// `fact_tids[pk]`: where each fact row lives.
    fact_tids: Vec<TupleId>,
    /// Parameter source; remembers the warm-up's queries too.
    params: Params,
}

/// Generate, load, index, checkpoint and warm up.
fn setup(seed: u64) -> State {
    let model = Model::generate(seed);
    let (disk, counters) = CountingDisk::new();
    let mut db = Database::with_disk(disk);
    let int3 = Schema::of(&[
        ("pk", AttrType::Int),
        ("jcol", AttrType::Int),
        ("val", AttrType::Int),
    ]);
    db.create_table("fact", int3).expect("create fact");
    db.create_index("fact_pk", "fact", "pk", IndexKind::TTree)
        .expect("index fact.pk");
    let mut fact_tids = Vec::with_capacity(FACT_ROWS);
    for chunk in model.fact.chunks(LOAD_BATCH) {
        let mut txn = db.begin();
        for r in chunk {
            db.insert(&mut txn, "fact", int_row(r))
                .expect("buffer fact row");
        }
        fact_tids.extend(db.commit(txn).expect("load fact"));
    }
    db.create_index("fact_jcol", "fact", "jcol", IndexKind::TTree)
        .expect("index fact.jcol");
    db.create_table(
        "dim",
        Schema::of(&[("pk", AttrType::Int), ("jcol", AttrType::Int)]),
    )
    .expect("create dim");
    db.create_index("dim_jcol", "dim", "jcol", IndexKind::Hash)
        .expect("index dim.jcol");
    for chunk in model.dim.chunks(LOAD_BATCH) {
        let mut txn = db.begin();
        for r in chunk {
            db.insert(&mut txn, "dim", int_row(r))
                .expect("buffer dim row");
        }
        db.commit(txn).expect("load dim");
    }
    db.checkpoint().expect("checkpoint the loaded database");
    let mut state = State {
        db,
        disk: counters,
        model,
        fact_tids,
        params: Params::new(seed),
    };
    let mut rng = StdRng::seed_from_u64(seed ^ 0x3A53);
    for _ in 0..WARMUP_OPS {
        let shape = pick_shape(&mut rng);
        let (lo, hi) = state.params.draw(&mut rng, shape);
        query(&state.db, shape, lo, hi)
            .cache(true)
            .run()
            .expect("warm-up query");
    }
    state
}

/// Update one random fact row's `val`, mirrored into the model. Returns
/// the call's wall time, or `None` when the commit failed.
fn update(state: &mut State, rng: &mut StdRng) -> Option<Duration> {
    let pk = rng.gen_range(0..FACT_ROWS);
    let val = rng.gen_range(0..VAL_DOMAIN);
    let tid = state.fact_tids[pk];
    let _req = trace::request("bench.request");
    let t0 = Instant::now();
    let mut txn = state.db.begin();
    let buffered = {
        let _s = trace::span("core.db.update");
        state
            .db
            .update(&mut txn, "fact", tid, "val", OwnedValue::Int(val))
    };
    let ok = buffered.is_ok() && {
        let _s = trace::span("core.db.commit");
        state.db.commit(txn).is_ok()
    };
    let wall = t0.elapsed();
    ok.then(|| {
        state.model.fact[pk][2] = val;
        wall
    })
}

/// Per-layer tallies of the traced slices.
#[derive(Default)]
struct Layers {
    queries: u64,
    requests: u64,
    outside_us: Vec<f64>,
    explain_us: Vec<f64>,
    op_self: HashMap<&'static str, Duration>,
    rows_in: u64,
    rows_out: u64,
    comparisons: u64,
    regret: HashMap<Shape, Vec<f64>>,
}

fn op_kind(label: &str) -> &'static str {
    report::OP_KINDS
        .iter()
        .copied()
        .find(|k| label.starts_with(k) || (*k == "cached" && label.starts_with("[cached")))
        .unwrap_or("scan")
}

/// Elapsed time of the (single) join operator of a profiled query.
fn join_time(out: &QueryOutput) -> Option<Duration> {
    out.profile.joins().first().map(|op| op.elapsed)
}

/// Time of the planner's join ÷ time of the fastest forced join method,
/// all with the reuse cache off.
fn join_regret(db: &Db, shape: Shape, lo: i64, hi: i64) -> Option<f64> {
    let chosen = join_time(&query(db, shape, lo, hi).cache(false).run().ok()?)?;
    let fastest = [
        JoinMethod::TreeJoin,
        JoinMethod::HashJoin,
        JoinMethod::SortMerge,
        JoinMethod::TreeMerge,
    ]
    .iter()
    .filter_map(|m| {
        let out = query(db, shape, lo, hi)
            .cache(false)
            .force_join_method(*m)
            .run()
            .ok()?;
        join_time(&out)
    })
    .min()?;
    Some(chosen.as_secs_f64() / fastest.as_secs_f64().max(1e-9))
}

fn cache_delta(after: &CacheReport, before: &CacheReport) -> CacheReport {
    CacheReport {
        hits: after.hits - before.hits,
        misses: after.misses - before.misses,
        invalidations: after.invalidations - before.invalidations,
        evictions: after.evictions - before.evictions,
        subsumed_hits: after.subsumed_hits - before.subsumed_hits,
        delta_applies: after.delta_applies - before.delta_applies,
        delta_overflow_evictions: after.delta_overflow_evictions - before.delta_overflow_evictions,
        entries: after.entries,
        bytes: after.bytes,
    }
}

/// Run the workload.
pub fn run(cfg: &Config) -> Report {
    let mut report = Report::default();
    let (mut state, setups) = set_up(|| setup(cfg.seed));
    let setup_s = report.setup_times("analytic", &setups);

    let mut rng = StdRng::seed_from_u64(cfg.seed ^ 0xA11A);
    let (drawn_before, reused_before) = (state.params.drawn, state.params.repeats_or_nests);
    let mut query_ms = Windowed::default();
    // Operations and busy seconds per window.
    let mut window_ops: Vec<u64> = Vec::new();
    let mut window_busy: Vec<f64> = Vec::new();
    let mut write_ms: Vec<f64> = Vec::new();
    let mut shape_time: HashMap<Shape, (u64, Duration)> = HashMap::new();
    // [untraced, traced] operations and busy time, for the overhead.
    let mut ops = [0u64; 2];
    let mut busy = [Duration::ZERO; 2];
    let mut layers = Layers::default();
    let cache_before = state.db.cache_report();

    let start = Instant::now();
    while start.elapsed() < cfg.run {
        let window = (start.elapsed().as_nanos() / WINDOW.as_nanos()) as usize;
        if window_ops.len() <= window {
            window_ops.resize(window + 1, 0);
            window_busy.resize(window + 1, 0.0);
        }
        let traced = cfg.trace && (start.elapsed().as_nanos() / SLICE.as_nanos()) % 2 == 1;
        trace::set_enabled(traced);
        let slot = usize::from(traced);
        if rng.gen_range(0..WRITE_ONE_IN) == 0 {
            let wall = update(&mut state, &mut rng);
            report.check(wall.is_some());
            if let Some(w) = wall {
                write_ms.push(w.as_secs_f64() * 1e3);
                window_ops[window] += 1;
                window_busy[window] += w.as_secs_f64();
                busy[slot] += w;
                ops[slot] += 1;
                layers.requests += u64::from(traced);
            }
            continue;
        }
        let shape = pick_shape(&mut rng);
        let (lo, hi) = state.params.draw(&mut rng, shape);
        let checked = rng.gen_range(0..CHECK_ONE_IN) == 0;
        let (out, wall) = {
            let q = query(&state.db, shape, lo, hi).cache(true);
            let t0 = Instant::now();
            let out = {
                let _req = trace::request("bench.request");
                let _s = trace::span("core.query.run");
                q.run()
            };
            (out, t0.elapsed())
        };
        trace::set_enabled(false);
        busy[slot] += wall;
        ops[slot] += 1;
        query_ms.push(window, wall.as_secs_f64() * 1e3);
        window_ops[window] += 1;
        window_busy[window] += wall.as_secs_f64();
        let e = shape_time.entry(shape).or_default();
        e.0 += 1;
        e.1 += wall;
        let Ok(out) = out else {
            report.check(false);
            continue;
        };
        let mut ok = !checked || answer_matches(&out.rows, &state.model.expected(shape, lo, hi));
        if traced {
            layers.queries += 1;
            layers.requests += 1;
            let ops_total = out.profile.total_elapsed();
            ok &= ops_total <= wall + PROFILE_TOLERANCE;
            layers
                .outside_us
                .push(wall.saturating_sub(ops_total).as_secs_f64() * 1e6);
            for op in &out.profile.ops {
                *layers.op_self.entry(op_kind(&op.label)).or_default() += op.elapsed;
                layers.rows_in += op.rows_in as u64;
            }
            layers.rows_out += out.rows.len() as u64;
            layers.comparisons += out.profile.total_stats().comparisons;
            trace::set_enabled(true);
            let q = query(&state.db, shape, lo, hi).cache(false);
            let t0 = Instant::now();
            let explained = {
                let _req = trace::request("bench.probe");
                let _s = trace::span("exec.plan.explain");
                q.explain()
            };
            layers.explain_us.push(t0.elapsed().as_secs_f64() * 1e6);
            ok &= explained.is_ok();
            trace::set_enabled(false);
            if shape.is_join() && layers.queries % JOIN_PROBE_ONE_IN == 0 {
                if let Some(r) = join_regret(&state.db, shape, lo, hi) {
                    layers.regret.entry(shape).or_default().push(r);
                }
            }
        }
        report.check(ok);
    }
    trace::set_enabled(false);
    let cache = cache_delta(&state.db.cache_report(), &cache_before);
    let queries = query_ms.len() as u64;
    let q = query_ms.summary(950);
    let q99 = query_ms.summary(990);
    let w = Summary::of(&write_ms, 900);
    let total_busy = busy[0] + busy[1];
    let ops_per_s = windowed_rate(&window_ops, &window_busy);
    let stored = ratio(
        state.disk.snapshot().stored_bytes as f64,
        state.model.user_bytes() as f64,
    );
    let repeat_share = ratio(
        (state.params.repeats_or_nests - reused_before) as f64,
        (state.params.drawn - drawn_before) as f64,
    );

    if cfg.trace {
        report.traced_requests = layers.requests;
        let per_q = layers.queries.max(1) as f64;
        report.set("exec.plan.explain_us", median(&layers.explain_us));
        report.set("core.query.outside_ops_us", median(&layers.outside_us));
        for kind in report::OP_KINDS {
            let t = layers.op_self.get(kind).copied().unwrap_or_default();
            report.set(
                &format!("exec.op.{kind}.self_ms"),
                t.as_secs_f64() * 1e3 / per_q,
            );
        }
        report.set(
            "exec.rows_examined_per_row",
            ratio(layers.rows_in as f64, layers.rows_out as f64),
        );
        report.set(
            "index.comparisons_per_query",
            layers.comparisons as f64 / per_q,
        );
        for (shape, name) in [
            (Shape::SmallJoin, "exec.plan.join_regret.small_outer"),
            (Shape::LargeJoin, "exec.plan.join_regret.large_outer"),
        ] {
            let r = layers.regret.get(&shape).map_or(0.0, |v| median(v));
            report.set(name, r);
        }
        report.set(
            "exec.cache.hit_ratio",
            ratio(cache.hits as f64, (cache.hits + cache.misses) as f64),
        );
        report.set("exec.cache.evictions", cache.evictions as f64);
        report.set("exec.cache.delta_applies", cache.delta_applies as f64);
        report.set("exec.cache.invalidations", cache.invalidations as f64);
        report.set("exec.cache.repeat_share", repeat_share);
        report.set("trace.overhead_frac", overhead_frac(ops, busy));
    } else {
        report.end_to_end(&EndToEnd {
            setup_s,
            ops_per_s,
            request: q,
            write_p50_ms: w.p50,
            stored_bytes_per_user_byte: stored,
        });
    }

    report.line(format!(
        "analytic ops_per_s {ops_per_s:?} 1/s (median over {WINDOW:?} windows; {} queries + {} updates in {:.3} s busy)",
        queries,
        write_ms.len(),
        total_busy.as_secs_f64()
    ));
    report.line(format!(
        "analytic query_p50_ms {:?} ms (n={}; medians over {WINDOW:?} windows, as below)",
        q.p50, q.n
    ));
    report.line(format!(
        "analytic query_{}_ms {:?} ms, query_{}_ms {:?} ms (n={})",
        q.tail_label(),
        q.tail,
        q99.tail_label(),
        q99.tail,
        q.n
    ));
    report.line(format!(
        "analytic update_p50_ms {:?} ms, update_{}_ms {:?} ms (n={})",
        w.p50,
        w.tail_label(),
        w.tail,
        w.n
    ));
    report.line(format!(
        "analytic stored_bytes_per_user_byte {stored:?} ratio"
    ));
    report.line(format!(
        "analytic repeat_or_nest_share {repeat_share:?} ratio; cache hits {} (subsumed {}, delta applies {}) of {} lookups, {} evictions, {} invalidations",
        cache.hits,
        cache.subsumed_hits,
        cache.delta_applies,
        cache.hits + cache.misses,
        cache.evictions,
        cache.invalidations
    ));
    let total_q: Duration = shape_time.values().map(|(_, t)| *t).sum();
    for s in SHAPES {
        let (n, t) = shape_time.get(&s).copied().unwrap_or_default();
        report.line(format!(
            "analytic shape {} n={n} mean_ms={:.4} time_share={:.3}",
            s.name(),
            ratio(t.as_secs_f64() * 1e3, n as f64),
            ratio(t.as_secs_f64(), total_q.as_secs_f64())
        ));
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_model() -> Model {
        let fact = (0..40).map(|pk| [pk, pk % 7, (pk * 37) % 100]).collect();
        let dim = (0..7).map(|pk| [pk, pk]).collect();
        Model::index(fact, dim)
    }

    fn owned(rows: &[Vec<i64>]) -> Vec<Vec<OwnedValue>> {
        rows.iter().map(|r| int_row(r)).collect()
    }

    #[test]
    fn brute_force_check_rejects_tampered_answers() {
        let m = tiny_model();
        for shape in SHAPES {
            let (lo, hi) = match shape {
                Shape::Point => (5, 5),
                Shape::Scan => (10, 60),
                Shape::SmallJoin => (1, 3),
                _ => (3, 20),
            };
            let expected = m.expected(shape, lo, hi);
            assert!(!expected.is_empty(), "{shape:?}");
            let mut rows = owned(&expected);
            rows.reverse();
            assert!(
                answer_matches(&rows, &expected),
                "{shape:?} order-insensitive"
            );

            let mut dropped = rows.clone();
            dropped.pop();
            assert!(
                !answer_matches(&dropped, &expected),
                "{shape:?} missing row"
            );
            let mut changed = rows.clone();
            changed[0][0] = OwnedValue::Int(-1);
            assert!(
                !answer_matches(&changed, &expected),
                "{shape:?} wrong value"
            );
            let mut extra = rows.clone();
            extra.push(rows[0].clone());
            assert!(
                !answer_matches(&extra, &expected),
                "{shape:?} duplicate row"
            );
            let mut typed = rows;
            typed[0][0] = OwnedValue::Str("x".into());
            assert!(!answer_matches(&typed, &expected), "{shape:?} wrong type");
        }
    }

    #[test]
    fn join_answers_follow_the_join_column() {
        let m = tiny_model();
        // dim pk 2 has jcol 2: fact rows 2, 9, 16, 23, 30, 37.
        let got = m.expected(Shape::SmallJoin, 2, 2);
        let want: Vec<Vec<i64>> = [2, 9, 16, 23, 30, 37].iter().map(|f| vec![2, *f]).collect();
        assert_eq!(got, want);
    }

    #[test]
    fn nested_and_repeated_parameters_are_counted() {
        let mut p = Params::new(1);
        let mut rng = StdRng::seed_from_u64(2);
        for _ in 0..2_000 {
            let s = pick_shape(&mut rng);
            let (lo, hi) = p.draw(&mut rng, s);
            let (domain, width) = s.domain_and_width();
            assert!(
                0 <= lo && lo <= hi && hi < domain && hi - lo < width,
                "{s:?}"
            );
        }
        let share = p.repeats_or_nests as f64 / p.drawn as f64;
        assert!((0.4..0.8).contains(&share), "share {share}");
    }
}
