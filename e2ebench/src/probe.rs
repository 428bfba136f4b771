//! The benchmark's two `Service` wrappers.
//!
//! [`OriginProbe`] sits between a session and `RemoteService` and counts
//! every call that leaves the session for the origin; in the traced run
//! it also times each call. [`ServerProbe`] sits between `NetServer` and
//! `QuaestorServer` in the traced run and times the service itself. The
//! two are paired per traced call to split transport from service time.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

use parking_lot::Mutex;
use quaestor_common::Result;
use quaestor_core::{Request, Response, Service};

/// Request kinds the per-layer metrics distinguish; every write kind
/// folds into `"write"`.
pub fn kind_label(req: &Request) -> &'static str {
    if req.is_write() {
        "write"
    } else {
        req.kind()
    }
}

/// One timed call.
#[derive(Debug, Clone, Copy)]
pub struct Call {
    /// Trace the call belonged to (0 when untraced).
    pub trace_id: u64,
    /// Request kind (see [`kind_label`]).
    pub kind: &'static str,
    /// Wall time of the call in nanoseconds.
    pub ns: u64,
}

/// What the session-side probe records in the traced run.
#[derive(Debug, Default)]
pub struct OriginLog {
    /// Every call, in issue order.
    pub calls: Vec<Call>,
    /// Nanoseconds spent inside calls since the last [`OriginProbe::take_op`].
    pub op_call_ns: u64,
    /// Bookkeeping nanoseconds since the last `take_op`, to be left out
    /// of the op's latency.
    pub op_overhead_ns: u64,
    /// TTLs (ms) of origin record responses.
    pub record_ttls: Vec<u64>,
    /// TTLs (ms) of origin query responses.
    pub query_ttls: Vec<u64>,
    /// Encoded response bytes over all calls.
    pub response_bytes: u64,
}

/// One op's share of a session's calls.
#[derive(Debug, Default, Clone, Copy)]
pub struct OpCalls {
    /// Nanoseconds inside origin calls.
    pub call_ns: u64,
    /// Probe bookkeeping nanoseconds, to be left out of the op's latency.
    pub overhead_ns: u64,
    /// Version the op's write was stored at.
    pub written: Option<u64>,
}

/// The session-side wrapper.
pub struct OriginProbe {
    inner: Arc<dyn Service>,
    calls: AtomicU64,
    /// Version the last acknowledged write since the last `take_op` was
    /// stored at (0: none). Kept in every run: the replicated workload
    /// checks each acknowledged write against the replica.
    written: AtomicU64,
    /// `Some` in the traced run only, so the timed run pays one relaxed
    /// increment per call and nothing else.
    log: Option<Mutex<OriginLog>>,
}

impl OriginProbe {
    /// Wrap `inner`; `traced` turns on per-call timing.
    pub fn new(inner: Arc<dyn Service>, traced: bool) -> Arc<OriginProbe> {
        Arc::new(OriginProbe {
            inner,
            calls: AtomicU64::new(0),
            written: AtomicU64::new(0),
            log: traced.then(|| Mutex::new(OriginLog::default())),
        })
    }

    /// Calls that reached the origin so far.
    pub fn calls(&self) -> u64 {
        self.calls.load(Ordering::Relaxed)
    }

    /// What the current op's calls cost and wrote, since the previous
    /// take (the costs are zero in the timed run).
    pub fn take_op(&self) -> OpCalls {
        let written = match self.written.swap(0, Ordering::Relaxed) {
            0 => None,
            v => Some(v),
        };
        match &self.log {
            Some(log) => {
                let mut log = log.lock();
                OpCalls {
                    call_ns: std::mem::take(&mut log.op_call_ns),
                    overhead_ns: std::mem::take(&mut log.op_overhead_ns),
                    written,
                }
            }
            None => OpCalls {
                written,
                ..OpCalls::default()
            },
        }
    }

    /// The traced run's log (empty in the timed run).
    pub fn take_log(&self) -> OriginLog {
        self.log
            .as_ref()
            .map(|log| std::mem::take(&mut *log.lock()))
            .unwrap_or_default()
    }
}

impl Service for OriginProbe {
    fn call(&self, req: Request) -> Result<Response> {
        self.calls.fetch_add(1, Ordering::Relaxed);
        let Some(log) = &self.log else {
            let result = self.inner.call(req);
            if let Ok(Response::Written { version, .. }) = &result {
                self.written.store(*version, Ordering::Relaxed);
            }
            return result;
        };
        let kind = kind_label(&req);
        let trace_id = quaestor_obs::current_context().map_or(0, |c| c.trace_id);
        let started = Instant::now();
        let result = self.inner.call(req);
        let ns = started.elapsed().as_nanos() as u64;
        let book = Instant::now();
        let mut log = log.lock();
        log.calls.push(Call { trace_id, kind, ns });
        log.op_call_ns += ns;
        if let Ok(resp) = &result {
            match resp {
                Response::Record(r) => log.record_ttls.push(r.ttl_ms),
                Response::Query(q) => log.query_ttls.push(q.ttl_ms),
                Response::Written { version, .. } => {
                    self.written.store(*version, Ordering::Relaxed)
                }
                _ => {}
            }
            log.response_bytes += quaestor_net::codec::encode_response(resp).len() as u64;
        }
        log.op_overhead_ns += book.elapsed().as_nanos() as u64;
        result
    }
}

/// The server-side wrapper (traced run only).
pub struct ServerProbe {
    inner: Arc<dyn Service>,
    calls: Mutex<Vec<Call>>,
}

impl ServerProbe {
    /// Wrap the origin service.
    pub fn new(inner: Arc<dyn Service>) -> Arc<ServerProbe> {
        Arc::new(ServerProbe {
            inner,
            calls: Mutex::new(Vec::new()),
        })
    }

    /// Every call served so far, in service order.
    pub fn take_calls(&self) -> Vec<Call> {
        std::mem::take(&mut *self.calls.lock())
    }
}

impl Service for ServerProbe {
    fn call(&self, req: Request) -> Result<Response> {
        let kind = kind_label(&req);
        // The event loop has adopted the caller's trace by now, so the
        // active context names the traced op this call belongs to.
        let trace_id = quaestor_obs::current_context().map_or(0, |c| c.trace_id);
        let started = Instant::now();
        let result = self.inner.call(req);
        let ns = started.elapsed().as_nanos() as u64;
        self.calls.lock().push(Call { trace_id, kind, ns });
        result
    }
}
