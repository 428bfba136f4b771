//! Server-side metrics.

use quaestor_obs::{Counter, Registry};
use quaestor_store::QueryStats;

/// Counters for everything the evaluation section reports about server
/// behaviour.
///
/// Every field is a [`Counter`] registered on a per-server [`Registry`]
/// under a `server.*` name. The registry also holds the store planner's
/// [`QueryStats`] counters, bound at construction; the InvaliDB grid
/// totals are added to the scrape by `QuaestorServer::metrics_snapshot`.
#[derive(Debug)]
pub struct ServerMetrics {
    /// Record reads answered by the origin (cache misses + revalidations).
    pub record_reads: Counter,
    /// Query evaluations answered by the origin.
    pub query_reads: Counter,
    /// Write operations processed.
    pub writes: Counter,
    /// Record invalidations added to the EBF.
    pub record_invalidations: Counter,
    /// Query invalidations (from InvaliDB notifications) added to the EBF.
    pub query_invalidations: Counter,
    /// Purges dispatched to invalidation-based caches.
    pub purges: Counter,
    /// EBF snapshots served to clients.
    pub ebf_snapshots: Counter,
    /// Queries rejected by the capacity manager (served uncacheable).
    pub capacity_rejections: Counter,
    /// Transactions committed.
    pub tx_commits: Counter,
    /// Transactions aborted at validation.
    pub tx_aborts: Counter,
    registry: Registry,
}

impl ServerMetrics {
    /// Fresh counters on a new registry that also carries `planner`'s
    /// counters as `server.query_*`.
    pub fn new(planner: &QueryStats) -> ServerMetrics {
        let registry = Registry::new();
        for (name, counter) in [
            ("server.query_index_probes", &planner.index_probes),
            ("server.query_range_scans", &planner.range_scans),
            ("server.query_full_scans", &planner.full_scans),
            (
                "server.query_topk_short_circuits",
                &planner.topk_short_circuits,
            ),
            ("server.query_card_estimated", &planner.card_estimated),
            ("server.query_card_actual", &planner.card_actual),
        ] {
            registry.bind_counter(name, counter);
        }
        ServerMetrics {
            record_reads: registry.counter("server.record_reads"),
            query_reads: registry.counter("server.query_reads"),
            writes: registry.counter("server.writes"),
            record_invalidations: registry.counter("server.record_invalidations"),
            query_invalidations: registry.counter("server.query_invalidations"),
            purges: registry.counter("server.purges"),
            ebf_snapshots: registry.counter("server.ebf_snapshots"),
            capacity_rejections: registry.counter("server.capacity_rejections"),
            tx_commits: registry.counter("server.tx_commits"),
            tx_aborts: registry.counter("server.tx_aborts"),
            registry,
        }
    }

    /// The registry holding every `server.*` series of this instance.
    pub fn registry(&self) -> &Registry {
        &self.registry
    }

    /// Total origin reads (records + queries) — the backend load a cache
    /// layer is supposed to absorb.
    pub fn origin_reads(&self) -> u64 {
        self.record_reads.get() + self.query_reads.get()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_snapshot_reflects_the_fields() {
        let planner = QueryStats::default();
        let m = ServerMetrics::new(&planner);
        m.writes.add(2);
        planner.card_estimated.add(10);
        planner.card_actual.add(8);
        let snap = m.registry().snapshot();
        assert_eq!(snap.counter("server.writes"), Some(2));
        assert_eq!(snap.counter("server.query_card_estimated"), Some(10));
        assert_eq!(snap.counter("server.query_card_actual"), Some(8));
        assert_eq!(m.origin_reads(), 0);
    }
}
