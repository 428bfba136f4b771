//! Publish/subscribe channels.
//!
//! The paper uses Redis message queues between Quaestor and InvaliDB
//! (§4.1) and serves clients' query change streams over websockets
//! (§3.2). [`PubSub`] is the in-process fan-out bus that stands in for
//! them: it carries the server's per-query change streams and the remote
//! client's materialised stream subscriptions.

pub mod pubsub;

pub use pubsub::{PubSub, Subscription};
