//! Statistical TTL estimation — contribution (3) of the paper (§4.2).
//!
//! > "Our mechanism is based on the insight that any cached record should
//! > ideally expire right before its next update occurs, thus achieving
//! > maximum cache hit rates while avoiding unnecessary invalidations."
//!
//! The pieces:
//!
//! * [`WriteRateSampler`] — approximates per-record write rates λ_w by
//!   sampling incoming updates in a sliding window.
//! * [`TtlEstimator`] — the dual strategy: records get the quantile of an
//!   exponential inter-arrival distribution (Eq. 1:
//!   `F⁻¹(p, λ) = −ln(1−p)/λ`); query results start from the
//!   minimum-of-exponentials bound (`λ_min = Σ λ_wi` over the result set)
//!   and are then refined by an EWMA towards observed invalidation-derived
//!   TTLs (Eq. 2: `TTL ← α·TTL_old + (1−α)·TTL_actual`).
//! * [`ActiveList`] — "the current TTL estimate for a query is kept in a
//!   shared partitioned data structure called the active list, which is
//!   accessed by all Quaestor nodes."
//! * [`CapacityManager`] — "through a capacity management model only
//!   queries that are sufficiently cachable are admitted and prioritized
//!   based on the costs of maintaining them" (§4.1).
//! * [`cost`] — the cost-based id-list vs object-list representation
//!   decision ("Quaestor employs a cost-based decision model in order to
//!   weigh fewer invalidations against fewer round-trips").

pub mod active_list;
pub mod capacity;
pub mod cost;
pub mod estimator;
pub mod rate;

pub use active_list::{ActiveList, QueryState};
pub use capacity::{AdmissionDecision, CapacityManager};
pub use cost::{CostModel, Representation};
pub use estimator::{EstimatorConfig, TtlEstimator};
pub use rate::WriteRateSampler;
