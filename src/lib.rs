//! # Quaestor — query web caching for Database-as-a-Service providers
//!
//! A from-scratch Rust reproduction of *Gessert, Schaarschmidt, Wingerath,
//! Witt, Yoneki, Ritter: "Quaestor: Query Web Caching for
//! Database-as-a-Service Providers", VLDB 2017 (PVLDB 10(12))*.
//!
//! Quaestor caches **dynamic query results and records in ordinary HTTP
//! web caches** — browser caches, ISP proxies, CDNs — with tunable
//! consistency guarantees, using three mechanisms:
//!
//! 1. an **Expiring Bloom Filter** ([`bloom`]) that tells clients which
//!    cached entries are potentially stale,
//! 2. **InvaliDB** ([`invalidb`]), a partitioned real-time matching
//!    pipeline that detects when writes change cached query results, and
//! 3. a **statistical TTL estimator** ([`ttl`]) that predicts how long a
//!    result will stay fresh.
//!
//! The client and the server tier are joined by a typed protocol: every
//! data operation is a [`core::Request`] answered with a
//! [`core::Response`] through the [`core::Service`] trait. Deployment
//! topology lives behind that seam — a single [`QuaestorServer`], a
//! [`core::ShardRouter`] hash-partitioning tables across shared-nothing
//! nodes, or middleware such as [`core::MetricsLayer`] and
//! [`sim::LatencyInjector`] — and the client code is identical for all of
//! them.
//!
//! ## Quickstart
//!
//! ```
//! use quaestor::prelude::*;
//! use std::sync::Arc;
//!
//! // Virtual time makes everything deterministic; use SystemClock::shared()
//! // in real deployments.
//! let clock = ManualClock::new();
//! let server = QuaestorServer::with_defaults(clock.clone());
//! let cdn = Arc::new(InvalidationCache::new("cdn-edge", 100_000));
//! server.register_cdn(cdn.clone());
//!
//! // A client with a private browser cache behind the shared CDN.
//! let client = QuaestorClient::connect(
//!     server.clone(), &[cdn], ClientConfig::default(), clock.clone());
//!
//! client.insert("posts", "p1", doc! {
//!     "title" => "First Post", "tags" => vec!["example", "music"]
//! }).unwrap();
//!
//! // SELECT * FROM posts WHERE tags CONTAINS 'example'
//! let q = Query::table("posts").filter(Filter::contains("tags", "example"));
//! let first = client.query(&q).unwrap();   // origin (cache miss)
//! let second = client.query(&q).unwrap();  // browser cache hit
//! assert_eq!(second.docs.len(), 1);
//! assert_eq!(second.served_by, ServedBy::Layer(0));
//! ```
//!
//! ## Scale-out: the same client against a sharded cluster
//!
//! ```
//! use quaestor::prelude::*;
//! use std::sync::Arc;
//!
//! let clock = ManualClock::new();
//! // Two shared-nothing origin nodes; tables are hash-partitioned.
//! let nodes: Vec<Arc<dyn Service>> = (0..2)
//!     .map(|_| QuaestorServer::with_defaults(clock.clone()) as Arc<dyn Service>)
//!     .collect();
//! let cluster = ShardRouter::new(nodes);
//!
//! // Identical client code — only the connect target changes.
//! let client = QuaestorClient::connect_service(
//!     cluster, &[], ClientConfig::default(), clock.clone());
//! client.insert("posts", "p1", doc! { "n" => 1 }).unwrap();
//! client.insert("users", "u1", doc! { "name" => "ada" }).unwrap();
//! assert_eq!(client.read_record("users", "u1").unwrap().doc["name"],
//!            Value::str("ada"));
//!
//! // Batches cross shard boundaries transparently and amortize the
//! // write-path overhead on each shard.
//! let results = client.batch((0..10).map(|i| Request::Insert {
//!     table: "posts".into(),
//!     id: format!("batch-{i}"),
//!     doc: doc! { "i" => i },
//! }).collect()).unwrap();
//! assert!(results.iter().all(|r| r.is_ok()));
//! ```
//!
//! ## Crate map
//!
//! | module | contents |
//! |---|---|
//! | [`core`] | the Quaestor middleware server (origin) + the `Service` protocol |
//! | [`client`] | the client SDK: EBF usage, session consistency |
//! | [`bloom`] | Bloom / Counting / **Expiring** Bloom filters, per-table EBF |
//! | [`invalidb`] | the real-time query invalidation pipeline |
//! | [`ttl`] | TTL estimation, active list, capacity, cost model |
//! | [`webcache`] | expiration & invalidation web-cache substrate |
//! | [`store`] | document store substrate (MongoDB stand-in) |
//! | [`kv`] | publish/subscribe fan-out bus (Redis message-queue stand-in) |
//! | [`net`] | binary wire protocol, TCP server, remote `Service` client |
//! | [`obs`] | unified metrics registry + cross-layer distributed tracing |
//! | [`query`] | MongoDB-style query language + normalization |
//! | [`document`] | nested document model + update operators + canonical JSON bodies |
//! | [`sim`] | Monte Carlo simulation of the whole stack |
//! | [`workload`] | YCSB-style workload generation |

pub use quaestor_bloom as bloom;
pub use quaestor_client as client;
pub use quaestor_common as common;
pub use quaestor_core as core;
pub use quaestor_document as document;
pub use quaestor_durability as durability;
pub use quaestor_invalidb as invalidb;
pub use quaestor_kv as kv;
pub use quaestor_net as net;
pub use quaestor_obs as obs;
pub use quaestor_query as query;
pub use quaestor_sim as sim;
pub use quaestor_store as store;
pub use quaestor_ttl as ttl;
pub use quaestor_webcache as webcache;
pub use quaestor_workload as workload;

pub use quaestor_document::{doc, varray};

/// The common imports for applications built on Quaestor.
pub mod prelude {
    pub use quaestor_bloom::{BloomFilter, BloomParams, ExpiringBloomFilter};
    pub use quaestor_client::{ClientConfig, Consistency, QuaestorClient};
    pub use quaestor_common::{Clock, ManualClock, SystemClock, Timestamp};
    pub use quaestor_core::{
        MetricsLayer, QuaestorServer, Request, Response, ServerConfig, Service, ServiceExt,
        ShardRouter, Transaction,
    };
    pub use quaestor_document::{doc, varray, Document, Update, Value};
    pub use quaestor_durability::{DurabilityConfig, FsyncPolicy};
    pub use quaestor_net::{NetServer, RemoteService, RemoteServiceConfig};
    pub use quaestor_query::{Filter, Order, Query, QueryKey};
    pub use quaestor_sim::LatencyInjector;
    pub use quaestor_webcache::{Cache, ExpirationCache, InvalidationCache, ServedBy};
}
