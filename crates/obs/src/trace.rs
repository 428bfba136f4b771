//! Tracing: thread-local span stacks, RAII guards, a bounded global
//! collector, and the wire-propagated trace context.
//!
//! ## Span model
//!
//! A *trace* is a tree of spans sharing one `trace_id`. Each thread
//! carries at most one active trace (a thread-local stack of open span
//! ids); [`span`] opens a child of the innermost open span and is
//! **inert** — one thread-local check — when no trace is active, which
//! is what keeps the overhead of instrumented hot paths below the
//! noise floor when tracing is off.
//!
//! Roots come from three places:
//!
//! * [`Trace::start`] — an explicit, always-sampled root (tests, CLI);
//! * [`client_span`] — the `RemoteService` hook: a child if a trace is
//!   active; otherwise, with the global sampling flag on, a root for
//!   one in [`sample_interval`] calls per thread (Dapper-style ambient
//!   sampling — per-trace cost is irreducible, so always-on overhead is
//!   bought down by tracing a fraction of requests); inert otherwise;
//! * [`adopt_span`] — the server hook: continues a trace whose
//!   [`TraceContext`] arrived over the wire, parenting the new span
//!   under the remote caller's span id. Adoption is driven by the
//!   context's own `sampled` flag, so a traced request is traced on
//!   every node it touches regardless of each node's local flag.
//!
//! Closed spans land in a bounded, sharded ring buffer (drop-oldest,
//! so a long-running process never grows without bound; one shard per
//! pushing thread group, so guard drops on different threads don't
//! serialize on one mutex); [`render_trace`] dumps one trace as an
//! indented tree with per-span durations.
//!
//! Asynchronous handoffs (a WAL frame written under a trace, shipped to
//! a replica later by a different thread) stitch via [`note_handoff`] /
//! [`take_handoff_below`], keyed by LSN.

use std::cell::RefCell;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::OnceLock;
use std::time::Instant;

use parking_lot::Mutex;
use quaestor_common::lock_rank;

/// Spans the collector retains across all shards; beyond this the
/// oldest are dropped.
const RING_CAP: usize = 65_536;
/// Collector shards. Spans are pushed from `SpanGuard::drop` on every
/// instrumented thread; a single ring would serialize all of them on
/// one mutex (and one cache line). Threads are assigned round-robin.
const SHARDS: usize = 16;
/// Pending async handoff contexts retained (drop-oldest).
const HANDOFF_CAP: usize = 4_096;

/// The 17-byte wire trace context: who the caller is inside a trace.
/// Piggybacked on request frames as an additive body-prefix tag (see
/// `quaestor_net::codec`), so untraced peers skip it untouched.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceContext {
    /// The trace every span of this request joins.
    pub trace_id: u64,
    /// The caller's open span — the parent of the callee's root span.
    pub span_id: u64,
    /// Whether the callee should record spans for this request.
    pub sampled: bool,
}

/// One closed span.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpanRecord {
    /// Trace this span belongs to.
    pub trace_id: u64,
    /// This span's id.
    pub span_id: u64,
    /// Parent span id; 0 for a root with no known parent.
    pub parent: u64,
    /// Static layer name (`"client.call"`, `"wal.append"`, …).
    pub name: &'static str,
    /// Start, µs since the process trace epoch.
    pub start_us: u64,
    /// Duration, µs.
    pub dur_us: u64,
}

/// Per-thread trace state. `trace_id == 0` means no trace is active;
/// the stack `Vec`'s allocation is kept across traces so opening a
/// root on a warm thread allocates nothing.
struct ActiveTrace {
    trace_id: u64,
    stack: Vec<u64>,
}

impl ActiveTrace {
    fn tracing(&self) -> bool {
        self.trace_id != 0
    }
}

thread_local! {
    static ACTIVE: RefCell<ActiveTrace> = const {
        RefCell::new(ActiveTrace { trace_id: 0, stack: Vec::new() })
    };
}

static SAMPLING: AtomicBool = AtomicBool::new(false);

/// With ambient sampling on, [`client_span`] roots a trace for one in
/// this many untraced outgoing requests (per calling thread). Tracing a
/// *fraction* of requests is how production tracing systems keep the
/// cost of always-on tracing below the noise floor — per-trace work is
/// irreducible, so overhead is bought down by tracing fewer of them.
/// Explicit roots ([`Trace::start`]) and adoption of a sampled wire
/// context ([`adopt_span`]) always trace regardless of the interval.
const DEFAULT_SAMPLE_INTERVAL: u64 = 8;

static SAMPLE_INTERVAL: AtomicU64 = AtomicU64::new(DEFAULT_SAMPLE_INTERVAL);

/// Turn ambient sampling on or off: with it on, [`client_span`] starts a
/// root trace for one in [`sample_interval`] outgoing requests that are
/// not already traced.
pub fn set_sampling(on: bool) {
    SAMPLING.store(on, Ordering::Relaxed);
}

/// Whether ambient sampling is on.
pub fn sampling_enabled() -> bool {
    SAMPLING.load(Ordering::Relaxed)
}

/// Set the ambient sampling interval: 1 traces every untraced request,
/// `n` traces one in `n` per thread (0 is clamped to 1). The first
/// request of each thread is always eligible, so short-lived callers
/// still produce traces.
pub fn set_sample_interval(n: u64) {
    SAMPLE_INTERVAL.store(n.max(1), Ordering::Relaxed);
}

/// The current ambient sampling interval.
pub fn sample_interval() -> u64 {
    SAMPLE_INTERVAL.load(Ordering::Relaxed)
}

/// Per-thread 1-in-N decision for ambient sampling; only consulted when
/// the sampling flag is on and no trace is active.
fn ambient_sample_due() -> bool {
    use std::cell::Cell;
    thread_local! {
        static SEEN: Cell<u64> = const { Cell::new(0) };
    }
    SEEN.with(|seen| {
        let n = seen.get();
        seen.set(n.wrapping_add(1));
        n % SAMPLE_INTERVAL.load(Ordering::Relaxed).max(1) == 0
    })
}

fn epoch() -> Instant {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    *EPOCH.get_or_init(Instant::now)
}

fn now_us() -> u64 {
    epoch().elapsed().as_micros() as u64
}

/// Non-zero process-unique ids (splitmix64 over a global counter).
fn next_id() -> u64 {
    static NEXT: AtomicU64 = AtomicU64::new(1);
    let mut z = NEXT
        .fetch_add(1, Ordering::Relaxed)
        .wrapping_mul(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    (z ^ (z >> 31)) | 1
}

struct Collector {
    /// One bounded ring per shard; all share the `obs.trace.collector`
    /// rank (same-name classes are exempt from the order check, and the
    /// shards are only ever locked one at a time).
    span_ring: Vec<Mutex<VecDeque<SpanRecord>>>,
}

fn collector() -> &'static Collector {
    static C: OnceLock<Collector> = OnceLock::new();
    C.get_or_init(|| Collector {
        span_ring: (0..SHARDS)
            .map(|_| {
                Mutex::with_rank(
                    VecDeque::new(),
                    lock_rank::OBS_TRACE_COLLECTOR.0,
                    lock_rank::OBS_TRACE_COLLECTOR.1,
                )
            })
            .collect(),
    })
}

/// The collector shard this thread pushes to (round-robin at first use).
fn shard() -> usize {
    thread_local! {
        static IDX: usize = {
            static NEXT: std::sync::atomic::AtomicUsize =
                std::sync::atomic::AtomicUsize::new(0);
            NEXT.fetch_add(1, Ordering::Relaxed) % SHARDS
        };
    }
    IDX.with(|i| *i)
}

fn push_record(record: SpanRecord) {
    let mut ring = collector().span_ring[shard()].lock();
    if ring.len() >= RING_CAP / SHARDS {
        ring.pop_front();
    }
    ring.push_back(record);
}

/// All collected spans of one trace, ordered by start time.
pub fn spans_for(trace_id: u64) -> Vec<SpanRecord> {
    let mut spans: Vec<SpanRecord> = collector()
        .span_ring
        .iter()
        .flat_map(|shard| {
            shard
                .lock()
                .iter()
                .filter(|s| s.trace_id == trace_id)
                .copied()
                .collect::<Vec<_>>()
        })
        .collect();
    spans.sort_by_key(|s| s.start_us);
    spans
}

/// Drop every collected span, returning how many there were
/// (benchmarks isolate runs with this).
pub fn clear_collector() -> usize {
    let mut n = 0;
    for shard in &collector().span_ring {
        let mut ring = shard.lock();
        n += ring.len();
        ring.clear();
    }
    n
}

struct SpanInner {
    trace_id: u64,
    span_id: u64,
    parent: u64,
    name: &'static str,
    start_us: u64,
    ends_trace: bool,
}

/// RAII span guard: records the span into the collector on drop. An
/// inert guard (no active trace) does nothing at all.
#[must_use = "a span measures the scope it lives in; dropping it immediately records nothing useful"]
pub struct SpanGuard {
    inner: Option<SpanInner>,
}

impl SpanGuard {
    const INERT: SpanGuard = SpanGuard { inner: None };

    /// The context a callee should adopt to continue this span's trace;
    /// `None` for an inert guard.
    pub fn context(&self) -> Option<TraceContext> {
        self.inner.as_ref().map(|s| TraceContext {
            trace_id: s.trace_id,
            span_id: s.span_id,
            sampled: true,
        })
    }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        let Some(s) = self.inner.take() else { return };
        let dur_us = now_us().saturating_sub(s.start_us);
        ACTIVE.with(|slot| {
            let mut t = slot.borrow_mut();
            if s.ends_trace {
                t.trace_id = 0;
                t.stack.clear();
            } else {
                t.stack.pop();
            }
        });
        push_record(SpanRecord {
            trace_id: s.trace_id,
            span_id: s.span_id,
            parent: s.parent,
            name: s.name,
            start_us: s.start_us,
            dur_us,
        });
    }
}

fn child_of(t: &mut ActiveTrace, name: &'static str) -> SpanGuard {
    let id = next_id();
    let parent = t.stack.last().copied().unwrap_or(0);
    t.stack.push(id);
    SpanGuard {
        inner: Some(SpanInner {
            trace_id: t.trace_id,
            span_id: id,
            parent,
            name,
            start_us: now_us(),
            ends_trace: false,
        }),
    }
}

fn install_root(t: &mut ActiveTrace, trace_id: u64, parent: u64, name: &'static str) -> SpanGuard {
    let id = next_id();
    t.trace_id = trace_id;
    t.stack.clear();
    t.stack.push(id);
    SpanGuard {
        inner: Some(SpanInner {
            trace_id,
            span_id: id,
            parent,
            name,
            start_us: now_us(),
            ends_trace: true,
        }),
    }
}

/// Open a child span of the current trace; inert if no trace is active.
pub fn span(name: &'static str) -> SpanGuard {
    ACTIVE.with(|slot| {
        let mut t = slot.borrow_mut();
        if t.tracing() {
            child_of(&mut t, name)
        } else {
            SpanGuard::INERT
        }
    })
}

/// The `RemoteService` hook: child if a trace is active; with ambient
/// sampling on, a fresh root for one in [`sample_interval`] untraced
/// calls per thread; inert otherwise.
pub fn client_span(name: &'static str) -> SpanGuard {
    ACTIVE.with(|slot| {
        let mut t = slot.borrow_mut();
        if t.tracing() {
            child_of(&mut t, name)
        } else if sampling_enabled() && ambient_sample_due() {
            install_root(&mut t, next_id(), 0, name)
        } else {
            SpanGuard::INERT
        }
    })
}

/// The server hook: continue the wire-propagated trace `ctx` under the
/// caller's span. Driven by `ctx.sampled` alone — deterministic on the
/// serving node whatever its local sampling flag says. If this thread is
/// somehow already tracing, degrades to a child of that trace.
pub fn adopt_span(ctx: Option<TraceContext>, name: &'static str) -> SpanGuard {
    let Some(ctx) = ctx else {
        return SpanGuard::INERT;
    };
    if !ctx.sampled {
        return SpanGuard::INERT;
    }
    ACTIVE.with(|slot| {
        let mut t = slot.borrow_mut();
        if t.tracing() {
            child_of(&mut t, name)
        } else {
            install_root(&mut t, ctx.trace_id, ctx.span_id, name)
        }
    })
}

/// An explicit trace handle for tests and tools.
pub struct Trace;

impl Trace {
    /// Force-start a sampled root span regardless of the ambient
    /// sampling flag (a child span if a trace is already active).
    pub fn start(name: &'static str) -> SpanGuard {
        ACTIVE.with(|slot| {
            let mut t = slot.borrow_mut();
            if t.tracing() {
                child_of(&mut t, name)
            } else {
                install_root(&mut t, next_id(), 0, name)
            }
        })
    }
}

/// The context a callee should propagate right now, if any.
pub fn current_context() -> Option<TraceContext> {
    ACTIVE.with(|slot| {
        let t = slot.borrow();
        t.tracing().then(|| TraceContext {
            trace_id: t.trace_id,
            span_id: t.stack.last().copied().unwrap_or(0),
            sampled: true,
        })
    })
}

struct HandoffMap {
    handoffs: Mutex<Vec<(u64, TraceContext)>>,
}

fn handoff() -> &'static HandoffMap {
    static H: OnceLock<HandoffMap> = OnceLock::new();
    H.get_or_init(|| HandoffMap {
        handoffs: Mutex::with_rank(
            Vec::new(),
            lock_rank::OBS_HANDOFF.0,
            lock_rank::OBS_HANDOFF.1,
        ),
    })
}

/// Note that asynchronous work keyed by `key` (a WAL LSN) belongs to the
/// currently active trace. No-op when untraced.
pub fn note_handoff(key: u64) {
    let Some(ctx) = current_context() else { return };
    let mut map = handoff().handoffs.lock();
    if map.len() >= HANDOFF_CAP {
        map.remove(0);
    }
    map.push((key, ctx));
}

/// Claim the newest handoff context with key ≤ `key`, dropping every
/// entry at or below it (a replication session shipping frames up to
/// LSN `key` adopts the latest trace that produced one of them).
pub fn take_handoff_below(key: u64) -> Option<TraceContext> {
    let mut map = handoff().handoffs.lock();
    let best = map
        .iter()
        .filter(|(k, _)| *k <= key)
        .max_by_key(|(k, _)| *k)
        .map(|(_, ctx)| *ctx);
    map.retain(|(k, _)| *k > key);
    best
}

/// Render one trace as an indented tree with per-span durations — the
/// text flame view. Children are ordered by start time.
pub fn render_trace(trace_id: u64) -> String {
    let spans = spans_for(trace_id);
    if spans.is_empty() {
        return format!("trace {trace_id:016x}: no spans collected\n");
    }
    let ids: std::collections::HashSet<u64> = spans.iter().map(|s| s.span_id).collect();
    let mut children: std::collections::HashMap<u64, Vec<&SpanRecord>> =
        std::collections::HashMap::new();
    let mut roots: Vec<&SpanRecord> = Vec::new();
    for s in &spans {
        if s.parent != 0 && ids.contains(&s.parent) {
            children.entry(s.parent).or_default().push(s);
        } else {
            roots.push(s);
        }
    }
    for v in children.values_mut() {
        v.sort_by_key(|s| s.start_us);
    }
    roots.sort_by_key(|s| s.start_us);
    let mut out = format!("trace {trace_id:016x} ({} spans)\n", spans.len());
    fn emit(
        out: &mut String,
        s: &SpanRecord,
        depth: usize,
        children: &std::collections::HashMap<u64, Vec<&SpanRecord>>,
    ) {
        out.push_str(&format!(
            "{:indent$}{} {}us\n",
            "",
            s.name,
            s.dur_us,
            indent = 2 + depth * 2
        ));
        if let Some(kids) = children.get(&s.span_id) {
            for k in kids {
                emit(out, k, depth + 1, children);
            }
        }
    }
    for r in &roots {
        emit(&mut out, r, 0, &children);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn collected() -> usize {
        collector().span_ring.iter().map(|s| s.lock().len()).sum()
    }

    #[test]
    fn inert_when_no_trace_active() {
        // Tests run in parallel and share the collector, so count only
        // the span name this test opens.
        let named = || {
            collector()
                .span_ring
                .iter()
                .map(|s| s.lock().iter().filter(|r| r.name == "inert").count())
                .sum::<usize>()
        };
        {
            let _s = span("inert");
        }
        assert_eq!(named(), 0);
        assert!(current_context().is_none());
    }

    #[test]
    fn forced_root_stitches_nested_spans() {
        let trace_id;
        {
            let root = Trace::start("root");
            trace_id = root.context().unwrap().trace_id;
            {
                let _a = span("layer.a");
                let _b = span("layer.b");
            }
            let _c = span("layer.c");
        }
        let spans = spans_for(trace_id);
        assert_eq!(spans.len(), 4);
        let names: Vec<&str> = spans.iter().map(|s| s.name).collect();
        assert!(names.contains(&"root") && names.contains(&"layer.b"));
        // Every non-root span's parent is in the same trace.
        let ids: Vec<u64> = spans.iter().map(|s| s.span_id).collect();
        for s in &spans {
            if s.name != "root" {
                assert!(ids.contains(&s.parent), "{} parent missing", s.name);
            }
        }
        // After the root dropped, the thread is clean.
        assert!(current_context().is_none());
        let dump = render_trace(trace_id);
        assert!(dump.contains("root"), "{dump}");
        assert!(dump.contains("    layer.a"), "indented child: {dump}");
    }

    #[test]
    fn adopt_continues_a_remote_trace() {
        let ctx = TraceContext {
            trace_id: 0xDEAD_BEEF,
            span_id: 0x1234,
            sampled: true,
        };
        {
            let _server = adopt_span(Some(ctx), "net.server");
            let _inner = span("service.query");
        }
        let spans = spans_for(0xDEAD_BEEF);
        assert_eq!(spans.len(), 2);
        let server = spans.iter().find(|s| s.name == "net.server").unwrap();
        assert_eq!(server.parent, 0x1234, "parented under the remote span");
        let inner = spans.iter().find(|s| s.name == "service.query").unwrap();
        assert_eq!(inner.parent, server.span_id);
        // Unsampled and absent contexts are ignored entirely.
        let inert = adopt_span(
            Some(TraceContext {
                trace_id: 7,
                span_id: 7,
                sampled: false,
            }),
            "net.server",
        );
        assert!(inert.context().is_none());
        assert!(adopt_span(None, "net.server").context().is_none());
    }

    #[test]
    fn client_span_roots_only_when_sampling() {
        // Off: inert.
        set_sampling(false);
        assert!(client_span("client.call").context().is_none());
        // On: a sampled root.
        set_sampling(true);
        let g = client_span("client.call");
        let ctx = g
            .context()
            .expect("a thread's first sampled call must open a root");
        assert!(ctx.sampled);
        drop(g);
        // 1-in-N ambient sampling: with interval 4 (and this thread's
        // counter at 1 after the root above) the next three untraced
        // calls are inert and the fourth roots again.
        set_sample_interval(4);
        for _ in 0..3 {
            assert!(client_span("client.call").context().is_none());
        }
        assert!(client_span("client.call").context().is_some());
        set_sample_interval(DEFAULT_SAMPLE_INTERVAL);
        assert_eq!(sample_interval(), DEFAULT_SAMPLE_INTERVAL);
        set_sampling(false);
        // Inside an explicit trace the flag is irrelevant: still a child.
        let root = Trace::start("outer");
        let child = client_span("client.call");
        assert_eq!(
            child.context().unwrap().trace_id,
            root.context().unwrap().trace_id
        );
    }

    #[test]
    fn handoff_round_trip() {
        {
            let _root = Trace::start("writer");
            note_handoff(41);
            note_handoff(42);
        }
        let ctx = take_handoff_below(100).expect("latest handoff claimed");
        assert!(ctx.sampled);
        assert!(take_handoff_below(100).is_none(), "claimed entries drained");
        // Untraced notes are dropped silently.
        note_handoff(7);
        assert!(take_handoff_below(100).is_none());
    }

    #[test]
    fn ring_is_bounded() {
        // Everything pushed from one thread lands in one shard, which is
        // capped at its share of RING_CAP.
        for i in 0..(RING_CAP + 100) {
            push_record(SpanRecord {
                trace_id: 0xF1,
                span_id: i as u64 + 1,
                parent: 0,
                name: "fill",
                start_us: 0,
                dur_us: 0,
            });
        }
        assert!(collected() <= RING_CAP);
        assert!(spans_for(0xF1).len() <= RING_CAP / SHARDS);
    }
}
