//! Server configuration.

use quaestor_bloom::BloomParams;
use quaestor_invalidb::ClusterConfig;
use quaestor_ttl::{CostModel, EstimatorConfig};

/// All tunables of a Quaestor deployment.
#[derive(Debug, Clone, Copy)]
pub struct ServerConfig {
    /// EBF geometry (per-table partitions all share it so the union
    /// works). Default: the 14.6 KB / one-TCP-congestion-window filter.
    pub bloom: BloomParams,
    /// TTL estimation tunables (quantile, EWMA α, clamps).
    pub estimator: EstimatorConfig,
    /// id-list vs object-list pricing.
    pub cost: CostModel,
    /// InvaliDB grid geometry and capacity.
    pub invalidb: ClusterConfig,
    /// Admission slots for actively matched queries (the capacity
    /// management model of §4.1).
    pub max_cached_queries: usize,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            bloom: BloomParams::PAPER_DEFAULT,
            estimator: EstimatorConfig::default(),
            cost: CostModel::default(),
            invalidb: ClusterConfig::default(),
            max_cached_queries: 50_000,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_are_coherent() {
        let c = ServerConfig::default();
        assert_eq!(c.bloom.byte_size(), 14_600);
        assert!(c.estimator.min_ttl_ms <= c.estimator.max_ttl_ms);
    }
}
