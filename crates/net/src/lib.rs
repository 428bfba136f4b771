//! `quaestor-net` — the network subsystem: a binary wire protocol, a
//! multithreaded TCP server, and a remote [`Service`] client.
//!
//! The paper's deployment is inherently distributed: "clients access
//! their database through a REST API exposed by the DBaaS" (§2) — the
//! SDK, the web-cache tiers and the Quaestor middleware talk over the
//! network. This crate makes the workspace's [`Service`] seam remote
//! with zero external dependencies (std::net + threads), so every
//! composition that works in-process — [`ShardRouter`] over N nodes,
//! [`MetricsLayer`] middleware, the client SDK — works unchanged across
//! processes:
//!
//! * [`wire`] — length-prefixed, CRC32-checksummed, versioned frames
//!   carrying a request id for pipelining (the WAL frame format of the
//!   durability crate, extended for duplex sockets);
//! * [`codec`] — binary encoding of every `Request`/`Response`/`Error`
//!   variant, sharing the durability crate's document codec;
//! * [`poll`] — a vendored mio-style readiness poller (direct epoll
//!   syscalls on Linux, `poll(2)` elsewhere on unix);
//! * [`NetServer`] — an accept thread feeding per-core event-loop
//!   shards over any `Arc<dyn Service>`, with graceful shutdown;
//! * [`RemoteService`] — a pooled, pipelined client that *is* a
//!   `Service`: callers read their own replies and route each other's
//!   by request id (no thread per connection), reconnect with backoff,
//!   timeouts surfaced as [`Error::Net`](quaestor_common::Error::Net),
//!   and change streams materialized from server pushes.
//!
//! ```no_run
//! use std::sync::Arc;
//! use quaestor_common::SystemClock;
//! use quaestor_core::{QuaestorServer, Service, ServiceExt};
//! use quaestor_net::{NetServer, RemoteService, RemoteServiceConfig};
//!
//! let origin = QuaestorServer::with_defaults(SystemClock::shared());
//! let server = NetServer::bind("127.0.0.1:0", origin).unwrap();
//! let svc = RemoteService::connect(server.local_addr(), RemoteServiceConfig::default()).unwrap();
//! svc.insert("posts", "p1", quaestor_document::doc! { "n" => 1 }).unwrap();
//! assert_eq!(svc.get_record("posts", "p1").unwrap().etag, 1);
//! server.shutdown();
//! ```
//!
//! [`Service`]: quaestor_core::Service
//! [`ShardRouter`]: quaestor_core::ShardRouter
//! [`MetricsLayer`]: quaestor_core::MetricsLayer

pub mod client;
pub mod codec;
mod evloop;
pub mod poll;
pub mod server;
pub mod wire;

pub use client::{RemoteService, RemoteServiceConfig};
pub use server::{AcceptBackoff, NetServer, NetServerConfig};
