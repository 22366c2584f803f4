//! The span API: RAII phase timing with thread-safe aggregation.
//!
//! A [`Span`] names one unit of pipeline work (`"lower"`, `"emit"`,
//! `"intersect"`, `"check:C1"`, …) and times it from construction to
//! drop on a monotonic clock. Spans nest: each thread keeps a stack of
//! open span names, so every exit structurally matches the innermost
//! open span (guards are `!Send` and drop in LIFO order — the
//! well-formedness property `crates/obs/tests/properties.rs` checks on
//! the recorded event stream).
//!
//! Collection has three modes:
//!
//! - [`Mode::Off`] (default): `Span::enter` is one relaxed atomic
//!   load; nothing else happens.
//! - [`Mode::Aggregate`]: each exit folds `(count, total, max)` into a
//!   per-name table ([`phases`]) — what the CLI's `--stats` phase
//!   rows read. No per-event memory.
//! - [`Mode::Full`]: aggregation plus a retained event buffer
//!   ([`events`]) for the Chrome-trace sink.

use std::cell::{Cell, RefCell};
use std::collections::BTreeMap;
use std::marker::PhantomData;
use std::sync::atomic::{AtomicU64, AtomicU8, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Instant;

use crate::metrics;

/// Global collection mode. See the [module docs](self).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    /// Collection disabled (the default); spans cost one atomic load.
    Off,
    /// Per-phase aggregates only (`--stats`).
    Aggregate,
    /// Aggregates plus the full event stream (`--trace-json`).
    Full,
}

static MODE: AtomicU8 = AtomicU8::new(0);

/// Sets the process-wide collection mode.
pub fn set_mode(mode: Mode) {
    let v = match mode {
        Mode::Off => 0,
        Mode::Aggregate => 1,
        Mode::Full => 2,
    };
    // Make sure the epoch exists before any span can observe an
    // enabled mode, so timestamps are always relative to it.
    if mode != Mode::Off {
        let _ = collector();
    }
    MODE.store(v, Ordering::Relaxed);
}

/// The current collection mode.
#[inline]
pub fn mode() -> Mode {
    match MODE.load(Ordering::Relaxed) {
        0 => Mode::Off,
        1 => Mode::Aggregate,
        _ => Mode::Full,
    }
}

/// What kind of trace event a [`SpanEvent`] records.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EventKind {
    /// A completed span (Chrome phase `"X"`: has a duration).
    Span,
    /// A point-in-time marker (Chrome phase `"i"`), e.g. a budget
    /// exhaustion.
    Instant,
}

/// One recorded trace event.
#[derive(Debug, Clone)]
pub struct SpanEvent {
    /// Phase name (static: the instrumentation vocabulary is fixed).
    pub name: &'static str,
    /// Free-form detail (entry path, nonterminal name, check id, …).
    pub detail: String,
    /// Small per-thread id, stable within the process.
    pub tid: u64,
    /// Nesting depth at entry (0 = top of this thread's stack).
    pub depth: u32,
    /// Microseconds since the collector epoch.
    pub start_us: u64,
    /// Duration in microseconds (0 for instants).
    pub dur_us: u64,
    /// Span or instant.
    pub kind: EventKind,
}

/// Aggregated timing for one phase name.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PhaseStat {
    /// Phase name.
    pub name: &'static str,
    /// Completed spans folded in.
    pub count: u64,
    /// Sum of span durations, microseconds.
    pub total_us: u64,
    /// Longest single span, microseconds.
    pub max_us: u64,
}

#[derive(Default)]
struct PhaseAgg {
    count: u64,
    total_us: u64,
    max_us: u64,
}

type PhaseTable = BTreeMap<&'static str, PhaseAgg>;

struct Collector {
    epoch: Instant,
    events: Mutex<Vec<SpanEvent>>,
    /// One aggregation table per thread that has ever closed a span.
    /// The span-drop path locks only its own thread's table, so that
    /// lock is uncontended (the parallel hotspot workers would
    /// otherwise serialize on a shared table); [`phases`] and
    /// [`reset`] walk this list and take each lock briefly. A thread's
    /// table outlives the thread — the registry holds an `Arc` — so
    /// aggregates from finished workers stay visible.
    thread_phases: Mutex<Vec<Arc<Mutex<PhaseTable>>>>,
    next_tid: AtomicU64,
}

fn collector() -> &'static Collector {
    static COLLECTOR: OnceLock<Collector> = OnceLock::new();
    COLLECTOR.get_or_init(|| Collector {
        epoch: Instant::now(),
        events: Mutex::new(Vec::new()),
        thread_phases: Mutex::new(Vec::new()),
        next_tid: AtomicU64::new(0),
    })
}

thread_local! {
    static TID: Cell<u64> = const { Cell::new(u64::MAX) };
    static STACK: RefCell<Vec<&'static str>> = const { RefCell::new(Vec::new()) };
    static LOCAL_PHASES: RefCell<Option<Arc<Mutex<PhaseTable>>>> = const { RefCell::new(None) };
}

/// Folds one completed span into the calling thread's phase table,
/// registering the table with the collector on first use.
fn record_phase(name: &'static str, dur_us: u64) {
    LOCAL_PHASES.with(|local| {
        let mut local = local.borrow_mut();
        let table = local.get_or_insert_with(|| {
            let table = Arc::new(Mutex::new(PhaseTable::new()));
            collector()
                .thread_phases
                .lock()
                .unwrap_or_else(|p| p.into_inner())
                .push(Arc::clone(&table));
            table
        });
        let mut table = table.lock().unwrap_or_else(|p| p.into_inner());
        let agg = table.entry(name).or_default();
        agg.count += 1;
        agg.total_us += dur_us;
        agg.max_us = agg.max_us.max(dur_us);
    });
}

fn thread_id() -> u64 {
    TID.with(|tid| {
        let v = tid.get();
        if v != u64::MAX {
            return v;
        }
        let v = collector().next_tid.fetch_add(1, Ordering::Relaxed);
        tid.set(v);
        v
    })
}

/// Clears every collected event and aggregate (mode is unchanged).
/// Call at the start of a run whose trace should stand alone.
pub fn reset() {
    let c = collector();
    c.events.lock().unwrap_or_else(|p| p.into_inner()).clear();
    let threads = c.thread_phases.lock().unwrap_or_else(|p| p.into_inner());
    for table in threads.iter() {
        table.lock().unwrap_or_else(|p| p.into_inner()).clear();
    }
}

/// Snapshot of the per-phase aggregates, merged across threads and
/// sorted by name.
pub fn phases() -> Vec<PhaseStat> {
    let c = collector();
    let threads = c.thread_phases.lock().unwrap_or_else(|p| p.into_inner());
    let mut merged = PhaseTable::new();
    for table in threads.iter() {
        let table = table.lock().unwrap_or_else(|p| p.into_inner());
        for (name, agg) in table.iter() {
            let m = merged.entry(name).or_default();
            m.count += agg.count;
            m.total_us += agg.total_us;
            m.max_us = m.max_us.max(agg.max_us);
        }
    }
    merged
        .iter()
        .map(|(name, agg)| PhaseStat {
            name,
            count: agg.count,
            total_us: agg.total_us,
            max_us: agg.max_us,
        })
        .collect()
}

/// Snapshot of the retained event stream (only populated in
/// [`Mode::Full`]), in completion order.
pub fn events() -> Vec<SpanEvent> {
    let c = collector();
    c.events.lock().unwrap_or_else(|p| p.into_inner()).clone()
}

/// An open span: RAII guard that records its phase timing on drop.
///
/// `!Send` by construction — a guard must be dropped on the thread
/// that opened it, which is what keeps each thread's span stack
/// well-formed (exits always match the innermost open span).
#[derive(Debug)]
pub struct Span {
    active: Option<Active>,
    _not_send: PhantomData<*const ()>,
}

#[derive(Debug)]
struct Active {
    name: &'static str,
    detail: String,
    start: Instant,
    depth: u32,
}

impl Span {
    /// Opens a span named `name` with free-form `detail`. When
    /// collection is [`Mode::Off`] this is one atomic load and the
    /// returned guard is inert.
    #[inline]
    pub fn enter(name: &'static str, detail: &str) -> Span {
        if mode() == Mode::Off {
            return Span { active: None, _not_send: PhantomData };
        }
        Span::enter_enabled(name, || detail.to_owned())
    }

    /// Like [`Span::enter`], building the detail string only when the
    /// event stream will retain it — for call sites where rendering
    /// the detail is itself measurable work.
    #[inline]
    pub fn enter_with(name: &'static str, detail: impl FnOnce() -> String) -> Span {
        if mode() == Mode::Off {
            return Span { active: None, _not_send: PhantomData };
        }
        Span::enter_enabled(name, detail)
    }

    /// Replaces the detail of an open span, for details only known
    /// partway through it. Like [`Span::enter_with`], the closure runs
    /// only when the event stream will retain the detail.
    pub fn set_detail(&mut self, detail: impl FnOnce() -> String) {
        if let Some(active) = &mut self.active {
            if mode() == Mode::Full {
                active.detail = detail();
            }
        }
    }

    fn enter_enabled(name: &'static str, detail: impl FnOnce() -> String) -> Span {
        // Only the Full event stream consumes the detail; Aggregate
        // must not pay its allocation on every span.
        let detail = if mode() == Mode::Full { detail() } else { String::new() };
        let depth = STACK.with(|s| {
            let mut s = s.borrow_mut();
            let depth = s.len() as u32;
            s.push(name);
            depth
        });
        Span {
            active: Some(Active { name, detail, start: Instant::now(), depth }),
            _not_send: PhantomData,
        }
    }
}

impl Drop for Span {
    fn drop(&mut self) {
        let Some(active) = self.active.take() else { return };
        let end = Instant::now();
        STACK.with(|s| {
            let mut s = s.borrow_mut();
            debug_assert_eq!(
                s.last().copied(),
                Some(active.name),
                "span exit must match the innermost open span"
            );
            s.pop();
        });
        record_phase(
            active.name,
            end.duration_since(active.start).as_micros() as u64,
        );
        if mode() == Mode::Full {
            let c = collector();
            // Both endpoints are truncated against the same epoch, so a
            // child's `start_us + dur_us` never passes its parent's.
            let start_us = active.start.duration_since(c.epoch).as_micros() as u64;
            let end_us = end.duration_since(c.epoch).as_micros() as u64;
            let event = SpanEvent {
                name: active.name,
                detail: active.detail,
                tid: thread_id(),
                depth: active.depth,
                start_us,
                dur_us: end_us - start_us,
                kind: EventKind::Span,
            };
            c.events.lock().unwrap_or_else(|p| p.into_inner()).push(event);
        }
    }
}

/// How many charge units accumulate thread-locally before being
/// flushed into the global `budget.charges` counter.
const CHARGE_FLUSH: u64 = 8192;

/// Thread-local pending charge units; the `Drop` flushes the remainder
/// when the owning thread exits (hotspot workers end with their scope).
struct PendingCharges(Cell<u64>);

impl Drop for PendingCharges {
    fn drop(&mut self) {
        let n = self.0.get();
        if n > 0 {
            metrics::global().counter("budget.charges").add(n);
        }
    }
}

thread_local! {
    static PENDING_CHARGES: PendingCharges = const { PendingCharges(Cell::new(0)) };
}

/// True when budget charges are being counted. `Budget` caches this at
/// construction so the uncounted per-charge path stays one branch on a
/// plain bool.
///
/// Charge counting is [`Mode::Full`]-only by design. The charge path
/// is the hottest in the engine — one call per worklist pop, realized
/// triple, and Earley item, hundreds of thousands per page — and even
/// a thread-local batched bump there is measurable against
/// [`Mode::Aggregate`]'s 5% overhead contract (`scripts/overhead.sh`).
/// Full mode already accepts per-event cost for fidelity; that is
/// where per-unit work accounting belongs.
pub fn budget_charges_enabled() -> bool {
    mode() == Mode::Full
}

/// Counts `n` units of budgeted work toward the global
/// `budget.charges` counter (no-op outside [`Mode::Full`] — see
/// [`budget_charges_enabled`]).
///
/// Even in Full mode a per-call atomic add would dominate the hot
/// loops, so charges batch in a thread-local cell and fold into the
/// shared counter every `CHARGE_FLUSH` units and at thread exit; the
/// counter trails live threads by at most `CHARGE_FLUSH - 1` units
/// each, which is noise at the scale the counter exists to show.
#[inline]
pub fn budget_charge(n: u64) {
    if mode() != Mode::Full {
        return;
    }
    PENDING_CHARGES.with(|p| {
        let total = p.0.get().saturating_add(n);
        if total >= CHARGE_FLUSH {
            metrics::global().counter("budget.charges").add(total);
            p.0.set(0);
        } else {
            p.0.set(total);
        }
    });
}

/// Records a budget exhaustion: bumps the global
/// `budget.exhausted.<resource>` counter attributed to the innermost
/// open phase, and (in [`Mode::Full`]) drops an instant event carrying
/// the whole open-span path — the phase breakdown that led to the
/// `BudgetExhausted` finding, without touching the finding itself.
pub fn budget_exhausted(resource: &'static str) {
    if mode() == Mode::Off {
        return;
    }
    let path = STACK.with(|s| s.borrow().join("/"));
    let phase = path.rsplit('/').next().unwrap_or("").to_owned();
    let name = if phase.is_empty() {
        format!("budget.exhausted.{resource}")
    } else {
        format!("budget.exhausted.{resource}.{phase}")
    };
    metrics::global().counter(&name).inc();
    if mode() == Mode::Full {
        let c = collector();
        let start_us = Instant::now().duration_since(c.epoch).as_micros() as u64;
        let event = SpanEvent {
            name: "budget_exhausted",
            detail: if path.is_empty() {
                resource.to_owned()
            } else {
                format!("{resource} in {path}")
            },
            tid: thread_id(),
            depth: STACK.with(|s| s.borrow().len() as u32),
            start_us,
            dur_us: 0,
            kind: EventKind::Instant,
        };
        c.events.lock().unwrap_or_else(|p| p.into_inner()).push(event);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    // Unit tests share the process-global collector; serialize them.
    fn serial() -> std::sync::MutexGuard<'static, ()> {
        static LOCK: Mutex<()> = Mutex::new(());
        LOCK.lock().unwrap_or_else(|p| p.into_inner())
    }

    #[test]
    fn off_mode_records_nothing() {
        let _guard = serial();
        set_mode(Mode::Off);
        reset();
        {
            let _s = Span::enter("emit", "a.php");
        }
        assert!(phases().is_empty());
        assert!(events().is_empty());
    }

    #[test]
    fn aggregate_mode_counts_without_events() {
        let _guard = serial();
        set_mode(Mode::Aggregate);
        reset();
        for _ in 0..3 {
            let _s = Span::enter("lower", "");
        }
        let p = phases();
        assert_eq!(p.len(), 1);
        assert_eq!(p[0].name, "lower");
        assert_eq!(p[0].count, 3);
        assert!(p[0].total_us >= p[0].max_us);
        assert!(events().is_empty(), "aggregate mode retains no events");
        set_mode(Mode::Off);
    }

    #[test]
    fn full_mode_retains_nested_events_with_depths() {
        let _guard = serial();
        set_mode(Mode::Full);
        reset();
        {
            let _outer = Span::enter("page", "a.php");
            let _inner = Span::enter("emit", "a.php");
        }
        let ev = events();
        assert_eq!(ev.len(), 2);
        // Events complete inner-first.
        assert_eq!(ev[0].name, "emit");
        assert_eq!(ev[0].depth, 1);
        assert_eq!(ev[1].name, "page");
        assert_eq!(ev[1].depth, 0);
        assert!(ev[1].dur_us >= ev[0].dur_us);
        set_mode(Mode::Off);
    }

    #[test]
    fn exhaustion_marks_phase_and_counter() {
        let _guard = serial();
        set_mode(Mode::Full);
        reset();
        metrics::global().reset();
        {
            let _s = Span::enter("intersect", "q");
            budget_exhausted("fuel");
        }
        let ev = events();
        let instant = ev
            .iter()
            .find(|e| e.kind == EventKind::Instant)
            .expect("instant event recorded");
        assert_eq!(instant.name, "budget_exhausted");
        assert!(instant.detail.contains("fuel in intersect"), "{}", instant.detail);
        let snap = metrics::global().snapshot();
        assert!(snap
            .iter()
            .any(|(name, v)| name == "budget.exhausted.fuel.intersect"
                && matches!(v, crate::MetricSnapshot::Counter(1))));
        set_mode(Mode::Off);
    }

    #[test]
    fn budget_charges_batch_and_flush() {
        let _guard = serial();
        set_mode(Mode::Off);
        assert!(!budget_charges_enabled());
        budget_charge(1_000_000); // dropped: collection is off
        set_mode(Mode::Aggregate);
        assert!(!budget_charges_enabled(), "charge counting is Full-only");
        budget_charge(1_000_000); // dropped: aggregate mode stays cheap
        set_mode(Mode::Full);
        assert!(budget_charges_enabled());
        let before = metrics::global().counter("budget.charges").get();
        // A batch at or above the flush threshold reaches the shared
        // counter immediately (plus whatever was pending on this
        // thread, hence >=).
        budget_charge(2 * CHARGE_FLUSH);
        let after = metrics::global().counter("budget.charges").get();
        assert!(after >= before + 2 * CHARGE_FLUSH, "{after} vs {before}");
        set_mode(Mode::Off);
    }
}
