//! Seeded fault-injection middleware for [`Service`] call paths.
//!
//! [`FaultInjector`] wraps any `Service` and perturbs traffic the way an
//! unreliable network would, with every decision drawn from a seeded
//! RNG so a failing run replays exactly:
//!
//! * **drop (request)** — the call never reaches the inner service; the
//!   caller sees a transport error. Models a lost request packet.
//! * **drop (response)** — the inner service executes the call but the
//!   caller still sees a transport error. Models a lost response: the
//!   operation *happened* without being acknowledged, the case that
//!   separates at-most-once from exactly-once thinking.
//! * **duplicate** — the call is delivered twice (the duplicate's result
//!   is discarded, the caller sees the first). Models a retransmit;
//!   whatever sits below must be idempotent or version-guarded.
//! * **delay** — the call is held for a sampled interval before
//!   delivery. Models congestion; shakes out timeout tuning.
//! * **sever** — a manual (or sampled) switch that fails *every* call
//!   until healed. Models a partition; this is what drives a client-side
//!   router into failover.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use parking_lot::Mutex;
use quaestor_common::{Error, Result};
use quaestor_core::{Request, Response, Service};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Per-call fault probabilities (each in `[0, 1]`, checked independently
/// in the order: sever-trip, drop-request, delay, duplicate,
/// drop-response).
#[derive(Debug, Clone, Copy)]
pub struct FaultPlan {
    /// P(request is dropped before delivery).
    pub drop_request: f64,
    /// P(response is dropped after the inner call executed).
    pub drop_response: f64,
    /// P(call is delivered twice).
    pub duplicate: f64,
    /// P(call is delayed by a sample from `delay_ms`).
    pub delay: f64,
    /// Uniform delay range `[min, max]`, milliseconds.
    pub delay_ms: (u64, u64),
    /// P(the link severs itself at this call; it stays severed until
    /// [`FaultInjector::heal`]). `0.0` leaves severing fully manual.
    pub sever: f64,
}

impl Default for FaultPlan {
    fn default() -> FaultPlan {
        FaultPlan {
            drop_request: 0.0,
            drop_response: 0.0,
            duplicate: 0.0,
            delay: 0.0,
            delay_ms: (1, 5),
            sever: 0.0,
        }
    }
}

impl FaultPlan {
    /// A mildly hostile network: a few percent of everything.
    pub fn flaky() -> FaultPlan {
        FaultPlan {
            drop_request: 0.02,
            drop_response: 0.02,
            duplicate: 0.02,
            delay: 0.05,
            delay_ms: (1, 10),
            sever: 0.0,
        }
    }
}

/// Counters for what the injector actually did.
#[derive(Debug, Clone, Copy, Default)]
pub struct FaultStats {
    /// Calls that reached the inner service (including duplicates).
    pub delivered: u64,
    /// Requests dropped before delivery.
    pub dropped_requests: u64,
    /// Responses dropped after delivery.
    pub dropped_responses: u64,
    /// Calls delivered twice.
    pub duplicated: u64,
    /// Calls delayed.
    pub delayed: u64,
    /// Calls rejected while severed.
    pub severed_rejections: u64,
}

/// The middleware. See the module docs.
pub struct FaultInjector {
    inner: Arc<dyn Service>,
    plan: FaultPlan,
    rng: Mutex<StdRng>,
    severed: AtomicBool,
    delivered: AtomicU64,
    dropped_requests: AtomicU64,
    dropped_responses: AtomicU64,
    duplicated: AtomicU64,
    delayed: AtomicU64,
    severed_rejections: AtomicU64,
}

impl std::fmt::Debug for FaultInjector {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FaultInjector")
            .field("severed", &self.severed.load(Ordering::Relaxed))
            .field("stats", &self.stats())
            .finish()
    }
}

impl FaultInjector {
    /// Wrap `inner` with `plan`, all randomness derived from `seed`.
    pub fn new(inner: Arc<dyn Service>, plan: FaultPlan, seed: u64) -> Arc<FaultInjector> {
        Arc::new(FaultInjector {
            inner,
            plan,
            rng: Mutex::new(StdRng::seed_from_u64(seed)),
            severed: AtomicBool::new(false),
            delivered: AtomicU64::new(0),
            dropped_requests: AtomicU64::new(0),
            dropped_responses: AtomicU64::new(0),
            duplicated: AtomicU64::new(0),
            delayed: AtomicU64::new(0),
            severed_rejections: AtomicU64::new(0),
        })
    }

    /// Cut the link: every call fails until [`heal`](Self::heal).
    pub fn sever(&self) {
        self.severed.store(true, Ordering::SeqCst);
    }

    /// Restore a severed link.
    pub fn heal(&self) {
        self.severed.store(false, Ordering::SeqCst);
    }

    /// Is the link currently severed?
    pub fn is_severed(&self) -> bool {
        self.severed.load(Ordering::SeqCst)
    }

    /// Snapshot of the injector's counters.
    pub fn stats(&self) -> FaultStats {
        FaultStats {
            delivered: self.delivered.load(Ordering::Relaxed),
            dropped_requests: self.dropped_requests.load(Ordering::Relaxed),
            dropped_responses: self.dropped_responses.load(Ordering::Relaxed),
            duplicated: self.duplicated.load(Ordering::Relaxed),
            delayed: self.delayed.load(Ordering::Relaxed),
            severed_rejections: self.severed_rejections.load(Ordering::Relaxed),
        }
    }

    /// One seeded decision set for a call, drawn under the RNG lock and
    /// applied outside it (delays must not serialize other callers).
    fn decide(&self) -> Decision {
        let mut rng = self.rng.lock();
        let plan = &self.plan;
        Decision {
            sever: plan.sever > 0.0 && rng.gen_bool(plan.sever),
            drop_request: plan.drop_request > 0.0 && rng.gen_bool(plan.drop_request),
            delay: if plan.delay > 0.0 && rng.gen_bool(plan.delay) {
                let (lo, hi) = plan.delay_ms;
                Some(Duration::from_millis(rng.gen_range(lo..=hi.max(lo))))
            } else {
                None
            },
            duplicate: plan.duplicate > 0.0 && rng.gen_bool(plan.duplicate),
            drop_response: plan.drop_response > 0.0 && rng.gen_bool(plan.drop_response),
        }
    }
}

struct Decision {
    sever: bool,
    drop_request: bool,
    delay: Option<Duration>,
    duplicate: bool,
    drop_response: bool,
}

impl FaultInjector {
    /// Apply one seeded decision set to `req`, delivering it (once, or
    /// twice for a duplicate) through `deliver`.
    fn perturb(
        &self,
        req: Request,
        deliver: impl Fn(&dyn Service, Request) -> Result<Response>,
    ) -> Result<Response> {
        let d = self.decide();
        if d.sever {
            self.severed.store(true, Ordering::SeqCst);
        }
        if self.severed.load(Ordering::SeqCst) {
            self.severed_rejections.fetch_add(1, Ordering::Relaxed);
            return Err(Error::Net("fault: link severed".into()));
        }
        if d.drop_request {
            self.dropped_requests.fetch_add(1, Ordering::Relaxed);
            return Err(Error::Net("fault: request dropped".into()));
        }
        if let Some(pause) = d.delay {
            self.delayed.fetch_add(1, Ordering::Relaxed);
            std::thread::sleep(pause);
        }
        let result = deliver(&*self.inner, req.clone());
        self.delivered.fetch_add(1, Ordering::Relaxed);
        if d.duplicate {
            // A retransmit: deliver again, discard the second answer. The
            // caller sees the first; the layer below sees the call twice.
            self.duplicated.fetch_add(1, Ordering::Relaxed);
            self.delivered.fetch_add(1, Ordering::Relaxed);
            let _ = deliver(&*self.inner, req);
        }
        if d.drop_response {
            self.dropped_responses.fetch_add(1, Ordering::Relaxed);
            return Err(Error::Net(
                "fault: response dropped (the call may have executed)".into(),
            ));
        }
        result
    }
}

impl Service for FaultInjector {
    fn call(&self, req: Request) -> Result<Response> {
        self.perturb(req, |inner, req| inner.call(req))
    }

    /// The same faults, with every delivery made through the inner
    /// service's `call_if_reachable`.
    fn call_if_reachable(&self, req: Request) -> Result<Response> {
        self.perturb(req, |inner, req| inner.call_if_reachable(req))
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use quaestor_common::ManualClock;
    use quaestor_core::{QuaestorServer, ServiceExt};
    use quaestor_document::doc;

    /// Answers every request with an error naming the method it came in
    /// through, and counts the calls.
    #[derive(Default)]
    pub(crate) struct MethodProbe {
        pub(crate) calls: AtomicU64,
    }

    impl Service for MethodProbe {
        fn call(&self, _req: Request) -> Result<Response> {
            self.calls.fetch_add(1, Ordering::Relaxed);
            Err(Error::Internal("call".into()))
        }

        fn call_if_reachable(&self, _req: Request) -> Result<Response> {
            self.calls.fetch_add(1, Ordering::Relaxed);
            Err(Error::Internal("call_if_reachable".into()))
        }
    }

    #[test]
    fn call_if_reachable_is_forwarded_with_its_faults() {
        let probe = Arc::new(MethodProbe::default());
        let plan = FaultPlan {
            duplicate: 1.0,
            ..FaultPlan::default()
        };
        let svc = FaultInjector::new(probe.clone(), plan, 7);
        let got = svc.call_if_reachable(Request::ReplicationStatus);
        assert_eq!(
            got.unwrap_err(),
            Error::Internal("call_if_reachable".into())
        );
        assert_eq!(probe.calls.load(Ordering::Relaxed), 2, "the duplicate too");
        assert_eq!(svc.stats().duplicated, 1);
        assert_eq!(
            svc.call(Request::ReplicationStatus).unwrap_err(),
            Error::Internal("call".into())
        );
        svc.sever();
        assert!(matches!(
            svc.call_if_reachable(Request::ReplicationStatus),
            Err(Error::Net(_))
        ));
        assert_eq!(probe.calls.load(Ordering::Relaxed), 4);
    }

    fn origin() -> Arc<QuaestorServer> {
        QuaestorServer::with_defaults(ManualClock::new())
    }

    #[test]
    fn clean_plan_passes_everything_through() {
        let svc = FaultInjector::new(origin(), FaultPlan::default(), 1);
        for i in 0..50 {
            svc.insert("t", &format!("r{i}"), doc! { "n" => i as i64 })
                .unwrap();
        }
        let st = svc.stats();
        assert_eq!(st.delivered, 50);
        assert_eq!(
            st.dropped_requests + st.dropped_responses + st.duplicated + st.delayed,
            0
        );
    }

    #[test]
    fn seeded_runs_replay_identically() {
        let plan = FaultPlan::flaky();
        let observe = |seed| {
            let svc = FaultInjector::new(origin(), plan, seed);
            let outcomes: Vec<bool> = (0..200)
                .map(|i| svc.insert("t", &format!("r{i}"), doc! {}).is_ok())
                .collect();
            (outcomes, svc.stats().dropped_requests)
        };
        let (a, da) = observe(42);
        let (b, db) = observe(42);
        let (c, _) = observe(43);
        assert_eq!(a, b, "same seed, same faults");
        assert_eq!(da, db);
        assert_ne!(a, c, "different seed, different faults");
    }

    #[test]
    fn dropped_response_executes_but_reports_failure() {
        let plan = FaultPlan {
            drop_response: 1.0,
            ..FaultPlan::default()
        };
        let server = origin();
        let svc = FaultInjector::new(server.clone(), plan, 7);
        assert!(svc.insert("t", "a", doc! { "n" => 1 }).is_err());
        // The write happened underneath — the unacknowledged-but-applied
        // case a crash audit has to tolerate.
        assert!(server.get_record("t", "a").is_ok());
        assert_eq!(svc.stats().dropped_responses, 1);
    }

    #[test]
    fn duplicates_are_absorbed_by_version_guards() {
        let plan = FaultPlan {
            duplicate: 1.0,
            ..FaultPlan::default()
        };
        let server = origin();
        let svc = FaultInjector::new(server.clone(), plan, 7);
        // The duplicated insert's second delivery fails underneath
        // (AlreadyExists) — the caller still sees the first, a success.
        svc.insert("t", "a", doc! { "n" => 1 }).unwrap();
        assert_eq!(svc.stats().duplicated, 1);
        let rec = server.get_record("t", "a").unwrap();
        assert_eq!(rec.etag, 1, "the duplicate did not double-apply");
    }

    #[test]
    fn severed_link_fails_everything_until_healed() {
        let svc = FaultInjector::new(origin(), FaultPlan::default(), 7);
        svc.insert("t", "a", doc! { "n" => 1 }).unwrap();
        svc.sever();
        assert!(svc.get_record("t", "a").is_err());
        assert!(svc.insert("t", "b", doc! {}).is_err());
        assert!(svc.is_severed());
        svc.heal();
        svc.get_record("t", "a").unwrap();
        assert_eq!(svc.stats().severed_rejections, 2);
    }

    #[test]
    fn delay_holds_the_call() {
        let plan = FaultPlan {
            delay: 1.0,
            delay_ms: (5, 5),
            ..FaultPlan::default()
        };
        let svc = FaultInjector::new(origin(), plan, 7);
        let start = std::time::Instant::now();
        svc.insert("t", "a", doc! {}).unwrap();
        assert!(start.elapsed() >= Duration::from_millis(5));
        assert_eq!(svc.stats().delayed, 1);
    }
}
