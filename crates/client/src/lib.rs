//! The Quaestor client SDK (§3.1–§3.3 client side).
//!
//! "Quaestor's client SDK abstracts from this by transparently performing
//! the EBF lookup for each query executing the freshness policy in the
//! background." (§3.3)
//!
//! [`QuaestorClient`] owns a private browser cache, shares CDN layers with
//! other clients through a `CacheHierarchy`, and implements:
//!
//! * **Δ-bounded staleness**: the EBF is fetched on connect and refreshed
//!   every Δ ms (piggybacked on the first request after Δ); before every
//!   read the EBF decides *cached load* vs *revalidation*.
//! * **Differential whitelisting**: "every query and record that has been
//!   revalidated since the last EBF update is added to a whitelist and
//!   considered fresh until the next EBF renewal."
//! * **Read-your-writes**: own writes are cached locally.
//! * **Monotonic reads**: the client tracks the highest record version
//!   seen and refuses to step backwards, revalidating if needed.
//! * **Opt-in causal and strong consistency** per §3.2 (Figure 4).
//!
//! Origin responses carry documents; the [`body`] module renders the
//! bodies cache layers store and parses the ones they serve.

pub mod body;
pub mod client;
pub mod config;
pub mod failover;
pub mod outcome;
pub mod session;

pub use client::QuaestorClient;
pub use config::{ClientConfig, Consistency};
pub use failover::ReplicatedService;
pub use outcome::{QueryOutcome, ReadOutcome};
pub use session::SessionState;
