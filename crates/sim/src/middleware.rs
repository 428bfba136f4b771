//! `Service` middleware that injects the simulated origin round-trip.
//!
//! Every [`Service::call`] reaching the origin corresponds to a WAN round
//! trip in the paper's deployment (client↔origin 145 ms, §6.1). The
//! [`LatencyInjector`] samples that RTT from the [`LatencyModel`], records
//! it in a latency [`Histogram`], and — when driven by a virtual clock —
//! advances time by the sampled amount, so TTLs and EBF ages respond to
//! load exactly as they would over a real network.

use std::sync::Arc;

use parking_lot::Mutex;
use quaestor_common::{Histogram, ManualClock, Result};
use quaestor_core::{Request, Response, Service};
use quaestor_webcache::ServedBy;
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::latency::LatencyModel;

struct InjectorState {
    rng: StdRng,
    observed: Histogram,
    total_ms: u64,
}

/// Middleware that charges every origin call one simulated round trip.
pub struct LatencyInjector {
    inner: Arc<dyn Service>,
    model: LatencyModel,
    clock: Option<Arc<ManualClock>>,
    state: Mutex<InjectorState>,
}

impl std::fmt::Debug for LatencyInjector {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let state = self.state.lock();
        f.debug_struct("LatencyInjector")
            .field("calls", &state.observed.count())
            .field("total_ms", &state.total_ms)
            .finish()
    }
}

impl LatencyInjector {
    /// Wrap `inner`, sampling origin RTTs with a deterministic seed. Time
    /// is only *recorded*, not advanced.
    pub fn new(inner: Arc<dyn Service>, model: LatencyModel, seed: u64) -> Arc<LatencyInjector> {
        Self::build(inner, model, seed, None)
    }

    /// Wrap `inner` and additionally advance the shared virtual clock by
    /// each sampled RTT — the discrete-event variant: wall time passes
    /// while the request is in flight.
    pub fn with_clock(
        inner: Arc<dyn Service>,
        model: LatencyModel,
        seed: u64,
        clock: Arc<ManualClock>,
    ) -> Arc<LatencyInjector> {
        Self::build(inner, model, seed, Some(clock))
    }

    fn build(
        inner: Arc<dyn Service>,
        model: LatencyModel,
        seed: u64,
        clock: Option<Arc<ManualClock>>,
    ) -> Arc<LatencyInjector> {
        Arc::new(LatencyInjector {
            inner,
            model,
            clock,
            state: Mutex::new(InjectorState {
                rng: StdRng::seed_from_u64(seed),
                observed: Histogram::new(),
                total_ms: 0,
            }),
        })
    }

    /// Distribution of simulated RTTs charged so far.
    pub fn observed(&self) -> Histogram {
        self.state.lock().observed.clone()
    }

    /// Sum of all simulated RTTs, in ms.
    pub fn total_simulated_ms(&self) -> u64 {
        self.state.lock().total_ms
    }
}

impl LatencyInjector {
    /// Sample, record and (with a clock) spend one origin round trip.
    fn charge_round_trip(&self) {
        let rtt = {
            let mut state = self.state.lock();
            let rtt = self.model.sample(&mut state.rng, ServedBy::Origin);
            state.observed.record(rtt);
            state.total_ms += rtt;
            rtt
        };
        if let Some(clock) = &self.clock {
            clock.advance(rtt);
        }
    }
}

impl Service for LatencyInjector {
    fn call(&self, req: Request) -> Result<Response> {
        self.charge_round_trip();
        self.inner.call(req)
    }

    fn call_if_reachable(&self, req: Request) -> Result<Response> {
        self.charge_round_trip();
        self.inner.call_if_reachable(req)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use quaestor_common::Clock;
    use quaestor_core::{QuaestorServer, ServiceExt};
    use quaestor_document::doc;

    #[test]
    fn call_if_reachable_is_charged_and_forwarded() {
        use crate::fault::tests::MethodProbe;
        use quaestor_common::Error;
        let probe = Arc::new(MethodProbe::default());
        let svc = LatencyInjector::new(probe.clone(), LatencyModel::default(), 7);
        assert_eq!(
            svc.call_if_reachable(Request::ReplicationStatus)
                .unwrap_err(),
            Error::Internal("call_if_reachable".into())
        );
        assert_eq!(
            svc.call(Request::ReplicationStatus).unwrap_err(),
            Error::Internal("call".into())
        );
        assert_eq!(svc.observed().count(), 2, "both calls paid a round trip");
    }

    #[test]
    fn records_origin_rtts() {
        let clock = ManualClock::new();
        let server = QuaestorServer::with_defaults(clock.clone());
        let svc = LatencyInjector::new(server, LatencyModel::default(), 7);
        for i in 0..50 {
            svc.insert("t", &format!("r{i}"), doc! { "n" => i as i64 })
                .unwrap();
        }
        let h = svc.observed();
        assert_eq!(h.count(), 50);
        // 145 ms ± 5% jitter.
        assert!((130..=160).contains(&h.min()), "{}", h.min());
        assert!((130..=160).contains(&h.max()), "{}", h.max());
        assert!(svc.total_simulated_ms() >= 50 * 130);
    }

    #[test]
    fn with_clock_advances_virtual_time() {
        let clock = ManualClock::new();
        let server = QuaestorServer::with_defaults(clock.clone());
        let svc = LatencyInjector::with_clock(
            server,
            LatencyModel {
                jitter: 0.0,
                ..LatencyModel::default()
            },
            1,
            clock.clone(),
        );
        let before = clock.now();
        svc.insert("t", "a", doc! { "n" => 1 }).unwrap();
        svc.get_record("t", "a").unwrap();
        assert_eq!(clock.now().since(before), 2 * 145);
    }

    #[test]
    fn batches_pay_one_round_trip() {
        let clock = ManualClock::new();
        let server = QuaestorServer::with_defaults(clock.clone());
        let svc = LatencyInjector::new(server, LatencyModel::default(), 3);
        let ops = (0..20)
            .map(|i| quaestor_core::Request::Insert {
                table: "t".into(),
                id: format!("r{i}"),
                doc: doc! { "n" => i as i64 },
            })
            .collect();
        svc.batch(ops).unwrap();
        assert_eq!(
            svc.observed().count(),
            1,
            "a batch is one wire round trip, its ops are not charged individually"
        );
    }
}
