//! In-memory span recorder for the traced run.
//!
//! Spans are recorded only from this benchmark's own files, around each
//! call into a layer of the library (and, through [`crate::disk`], around
//! the disk copy's reads and writes). A span's parent is the innermost
//! span open on the same thread; a span opened on a thread with nothing
//! open (a library worker thread) takes the *ambient* span, which the
//! single-threaded restart loop sets around `recover_with`. Spans stay in
//! memory until [`take`] and are written out at the end of the run.
//!
//! With tracing off, [`span`] returns an inert guard after one relaxed
//! load, so the untraced run pays nothing measurable.

use std::cell::RefCell;
use std::collections::HashMap;
use std::io::Write;
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

/// One closed span. Times are nanoseconds since the recorder's epoch; ids
/// start at 1 and `parent == 0` marks a root.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// Unique id.
    pub id: u64,
    /// Enclosing span, 0 for a root.
    pub parent: u64,
    /// Request the span belongs to (its root's id).
    pub request: u64,
    /// `layer.call` name; the layer is everything before the last dot.
    pub name: &'static str,
    /// Start, ns since the epoch.
    pub start_ns: u64,
    /// End, ns since the epoch.
    pub end_ns: u64,
}

impl Span {
    /// The span's layer: its name without the last component.
    #[must_use]
    pub fn layer(&self) -> &'static str {
        self.name.rsplit_once('.').map_or(self.name, |(l, _)| l)
    }

    /// Duration in ns.
    #[must_use]
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

static ENABLED: AtomicBool = AtomicBool::new(false);
static NEXT_ID: AtomicU64 = AtomicU64::new(1);
static AMBIENT: Mutex<Option<(u64, u64)>> = Mutex::new(None);
static SPANS: Mutex<Vec<Span>> = Mutex::new(Vec::new());
static EPOCH: OnceLock<Instant> = OnceLock::new();

thread_local! {
    /// Open spans on this thread, innermost last: `(id, request)`.
    static OPEN: RefCell<Vec<(u64, u64)>> = const { RefCell::new(Vec::new()) };
}

fn now_ns(t: Instant) -> u64 {
    let epoch = *EPOCH.get_or_init(Instant::now);
    u64::try_from(t.saturating_duration_since(epoch).as_nanos()).unwrap_or(u64::MAX)
}

/// Turn recording on or off for spans opened from now on.
pub fn set_enabled(on: bool) {
    EPOCH.get_or_init(Instant::now);
    ENABLED.store(on, Ordering::Relaxed);
}

/// Is recording on?
#[must_use]
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// An open span; closing happens on drop.
#[must_use = "a span closes when its guard drops"]
pub struct Guard {
    open: Option<(u64, u64, u64, &'static str, Instant)>,
}

impl Guard {
    /// This span's id (0 when tracing is off).
    #[must_use]
    pub fn id(&self) -> u64 {
        self.open.map_or(0, |o| o.0)
    }
}

impl Drop for Guard {
    fn drop(&mut self) {
        let Some((id, parent, request, name, start)) = self.open.take() else {
            return;
        };
        let end = Instant::now();
        OPEN.with(|s| {
            let mut s = s.borrow_mut();
            if let Some(pos) = s.iter().rposition(|(open, _)| *open == id) {
                s.remove(pos);
            }
        });
        push(Span {
            id,
            parent,
            request,
            name,
            start_ns: now_ns(start),
            end_ns: now_ns(end),
        });
    }
}

fn push(span: Span) {
    SPANS
        .lock()
        .expect("span store poisoned by a panicking thread")
        .push(span);
}

fn open(name: &'static str, root: bool) -> Guard {
    if !enabled() {
        return Guard { open: None };
    }
    let id = NEXT_ID.fetch_add(1, Ordering::Relaxed);
    let (parent, request) = if root {
        (0, id)
    } else {
        OPEN.with(|s| s.borrow().last().copied())
            .or_else(|| *AMBIENT.lock().expect("ambient span poisoned"))
            .unwrap_or((0, id))
    };
    OPEN.with(|s| s.borrow_mut().push((id, request)));
    Guard {
        open: Some((id, parent, request, name, Instant::now())),
    }
}

/// Open a span under the innermost open span of this thread (or the
/// ambient span, or as a root when there is neither).
pub fn span(name: &'static str) -> Guard {
    open(name, false)
}

/// Open the root span of a new request.
pub fn request(name: &'static str) -> Guard {
    open(name, true)
}

/// Make `g` the parent of spans opened on threads with no open span, for
/// as long as the returned token lives.
pub fn ambient(g: &Guard) -> AmbientToken {
    if let Some((id, _, request, _, _)) = g.open {
        *AMBIENT.lock().expect("ambient span poisoned") = Some((id, request));
    }
    AmbientToken
}

/// Clears the ambient span on drop.
pub struct AmbientToken;

impl Drop for AmbientToken {
    fn drop(&mut self) {
        if let Ok(mut a) = AMBIENT.lock() {
            *a = None;
        }
    }
}

/// Remove and return every recorded span.
#[must_use]
pub fn take() -> Vec<Span> {
    std::mem::take(&mut *SPANS.lock().expect("span store poisoned"))
}

/// Self time of every span: its duration minus the part of its interval
/// that its children cover (overlapping children count once).
#[must_use]
pub fn self_times(spans: &[Span]) -> HashMap<u64, u64> {
    let mut children: HashMap<u64, Vec<(u64, u64)>> = HashMap::new();
    for s in spans.iter().filter(|s| s.parent != 0) {
        children
            .entry(s.parent)
            .or_default()
            .push((s.start_ns, s.end_ns));
    }
    spans
        .iter()
        .map(|s| {
            let covered = children
                .get_mut(&s.id)
                .map_or(0, |c| covered_ns(c, s.start_ns, s.end_ns));
            (s.id, s.duration_ns().saturating_sub(covered))
        })
        .collect()
}

/// Length of the union of `intervals`, clipped to `[lo, hi]`.
fn covered_ns(intervals: &mut [(u64, u64)], lo: u64, hi: u64) -> u64 {
    intervals.sort_unstable();
    let mut total = 0;
    let mut reach = lo;
    for &(s, e) in intervals.iter() {
        let (s, e) = (s.max(reach), e.min(hi));
        if e > s {
            total += e - s;
            reach = e;
        }
    }
    total
}

/// Total self time per layer, in ns.
#[must_use]
pub fn self_by_layer(spans: &[Span]) -> HashMap<&'static str, u64> {
    let selfs = self_times(spans);
    let mut out: HashMap<&'static str, u64> = HashMap::new();
    for s in spans {
        *out.entry(s.layer()).or_default() += selfs.get(&s.id).copied().unwrap_or(0);
    }
    out
}

/// Total duration of the spans named `name`, in ns.
#[must_use]
pub fn total_ns(spans: &[Span], name: &str) -> u64 {
    spans
        .iter()
        .filter(|s| s.name == name)
        .map(Span::duration_ns)
        .sum()
}

/// Total duration of the recorded spans named `name`, in ns.
#[must_use]
pub fn recorded_ns(name: &str) -> u64 {
    total_ns(&SPANS.lock().expect("span store poisoned"), name)
}

/// Write spans as tab-separated `id parent request name start_ns end_ns`
/// lines.
pub fn write_tsv(spans: &[Span], path: &Path) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    writeln!(out, "id\tparent\trequest\tname\tstart_ns\tend_ns")?;
    for s in spans {
        writeln!(
            out,
            "{}\t{}\t{}\t{}\t{}\t{}",
            s.id, s.parent, s.request, s.name, s.start_ns, s.end_ns
        )?;
    }
    out.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sp(id: u64, parent: u64, name: &'static str, start_ns: u64, end_ns: u64) -> Span {
        Span {
            id,
            parent,
            request: 1,
            name,
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        // root [0,100]
        //   a [10,40]      b [30,60] (overlaps a)     c [90,130] (runs past root)
        //     a1 [15,25]
        let spans = vec![
            sp(1, 0, "bench.request", 0, 100),
            sp(2, 1, "core.engine.read_call", 10, 40),
            sp(3, 1, "core.engine.commit_call", 30, 60),
            sp(4, 1, "recovery.disk.write", 90, 130),
            sp(5, 2, "recovery.disk.read", 15, 25),
        ];
        let selfs = self_times(&spans);
        // Children cover [10,60] and [90,100] of the root: 60 ns.
        assert_eq!(selfs[&1], 40);
        assert_eq!(selfs[&2], 20);
        assert_eq!(selfs[&3], 30);
        assert_eq!(selfs[&4], 40);
        assert_eq!(selfs[&5], 10);
        let layers = self_by_layer(&spans);
        assert_eq!(layers["bench"], 40);
        assert_eq!(layers["core.engine"], 50);
        assert_eq!(layers["recovery.disk"], 50);
        assert_eq!(total_ns(&spans, "recovery.disk.write"), 40);
    }

    #[test]
    fn nested_children_only_count_against_their_parent() {
        let spans = vec![
            sp(1, 0, "bench.request", 0, 50),
            sp(2, 1, "core.query.run", 0, 50),
            sp(3, 2, "recovery.disk.read", 10, 20),
        ];
        let selfs = self_times(&spans);
        assert_eq!((selfs[&1], selfs[&2], selfs[&3]), (0, 40, 10));
        let total: u64 = selfs.values().sum();
        assert_eq!(total, 50, "self times partition the root's interval");
    }
}
