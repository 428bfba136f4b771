//! quaestor-repl — WAL-shipped replication with epoch-fenced failover.
//!
//! The paper's consistency story is built entirely on *bounded
//! staleness*: every cached copy in the system may lag the origin, and
//! the Expiring Bloom Filter (EBF) bounds by how much. Replication slots
//! into that story without new machinery — a replica is one more cache
//! whose age is its replication lag:
//!
//! * the **primary** tails its own write-ahead log and ships frames to
//!   each replica over `quaestor-net` framing (one batch in flight per
//!   session, advancing on durable acks);
//! * a **replica** appends each shipped batch to its own WAL through an
//!   LSN gate (duplicates and reconnection re-sends are refused, hence
//!   never applied) with one write and one fsync, then replays it into
//!   served state through the same version-keyed path crash recovery
//!   uses, and acks;
//! * replicas serve reads as full [`Service`](quaestor_core::Service)
//!   endpoints and reject writes with a recognizable error, so a client
//!   router can fail over;
//! * **failover** elects the live replica with the highest
//!   `(epoch, last_lsn)` (a replica's log end is always fsynced),
//!   promotes it, and fences the old primary:
//!   its unreplicated WAL suffix is truncated when it rejoins as a
//!   replica (see [`protocol::Lineage`]).
//!
//! See `DESIGN.md` in this crate for the wire protocol, the LSN ack
//! flow, the election rule, and the EBF-bounds-replica-staleness
//! argument; `crates/client`'s `ReplicatedService` is the client-side
//! router that drives failover.

pub mod epoch;
pub mod node;
pub mod protocol;

pub use node::{ReplConfig, ReplNode};
pub use protocol::{Ack, Hello, HelloAck, Lineage};
