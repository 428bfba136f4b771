//! Observability substrate for the Quaestor workspace.
//!
//! Two pillars, both dependency-free (vendored `parking_lot` only):
//!
//! * [`trace`] — thread-local span stacks with RAII guards, a bounded
//!   ring-buffer collector, and a 17-byte wire context
//!   ([`TraceContext`]) that lets one client request stitch into a
//!   single trace across `RemoteService` → `NetServer` → middleware →
//!   planner → WAL → replication ship.
//! * [`metrics`] — named counters/gauges/histograms behind a
//!   [`Registry`], snapshotted into a [`MetricsSnapshot`] with a stable
//!   text exposition format. Every series lives on its owner's registry
//!   (one per server, one per `MetricsLayer`) and is read through that
//!   owner's `Request::Metrics` answer.
//!
//! Tracing is **inert by default**: when sampling is off and no trace is
//! active, a [`span!`](span) guard is one thread-local check. See
//! `DESIGN.md` for the span model and propagation rules.

pub mod metrics;
pub mod trace;

pub use metrics::{Counter, Gauge, HistogramHandle, HistogramSummary, MetricsSnapshot, Registry};
pub use trace::{
    adopt_span, clear_collector, client_span, current_context, note_handoff, render_trace,
    sample_interval, sampling_enabled, set_sample_interval, set_sampling, span, spans_for,
    take_handoff_below, SpanGuard, SpanRecord, Trace, TraceContext,
};
