//! The event-loop TCP server: a blocking accept thread feeding N
//! readiness event-loop shards, serving any [`Service`] over the wire
//! protocol.
//!
//! Threading model (still zero external dependencies — the poller is a
//! vendored epoll shim, see [`crate::poll`]):
//!
//! * one **accept thread** owns the listener and round-robins accepted
//!   sockets across the shards (EMFILE and other accept errors back off
//!   with doubling delays instead of spinning a starved core);
//! * N **event-loop shards** (default: one per core), each owning a
//!   shared-nothing slab of connection states. A shard reads frames as
//!   readiness arrives, dispatches them to the wrapped service *in
//!   arrival order* (the pipelining contract: responses to one
//!   connection preserve request order, so a client may correlate by
//!   order or by id), and stages responses onto a per-connection write
//!   queue flushed with a single `write` syscall per burst;
//! * `Subscribe` streams ride the same loop: publishes poke the owning
//!   shard through a pubsub notify hook and the loop enqueues
//!   `StreamPush` frames — no forwarder threads, which is what lifts
//!   the connection ceiling from "a few thousand threads" to C10k.
//!
//! Backpressure is a bounded per-connection write queue
//! ([`NetServerConfig::max_write_buffer`]): a peer that stops reading
//! while traffic (pushes, pipelined responses) keeps accumulating is
//! dropped rather than allowed to wedge its shard. Nothing buffers
//! unboundedly, and the loop never blocks on one connection's window.
//!
//! Shutdown is graceful and idempotent: stop accepting, signal every
//! shard, force-close every connection socket *from outside the loops*
//! (so clients blocked on a wedged handler are released immediately),
//! then join the shard threads. In-flight requests finish; their
//! responses may or may not reach the client, whose pending calls
//! surface [`Error::Net`](quaestor_common::Error::Net).

use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

use parking_lot::Mutex;
use quaestor_common::{lock_rank, Error, Result};
use quaestor_core::Service;

use crate::evloop::{self, ShardCtx, ShardHandle, Task};
use crate::wire;

/// Tunables for a [`NetServer`]. Accepted sockets always run with
/// Nagle's algorithm off: pipelined request/response traffic is
/// latency-bound on small writes.
#[derive(Debug, Clone)]
pub struct NetServerConfig {
    /// Event-loop shard count; `0` means one per available core.
    pub shards: usize,
    /// Slow-consumer bound: a connection whose staged write queue still
    /// exceeds this many bytes after a flush attempt is dropped. The
    /// default leaves room for one maximum-size frame plus headroom, so
    /// any single legal response is always deliverable.
    pub max_write_buffer: usize,
}

impl Default for NetServerConfig {
    fn default() -> Self {
        NetServerConfig {
            shards: 0,
            max_write_buffer: wire::MAX_FRAME_PAYLOAD as usize + 64 * 1024,
        }
    }
}

fn net_err(context: &str, e: impl std::fmt::Display) -> Error {
    Error::Net(format!("{context}: {e}"))
}

/// Escalating accept-error backoff: EMFILE and friends start at 20ms
/// and double up to 500ms, resetting on the next successful accept.
/// Without a pause the accept loop would spin a core exactly when the
/// system is starved of fds; without escalation a sustained exhaustion
/// still burns 50 wakeups a second.
#[derive(Debug, Clone, Copy)]
pub struct AcceptBackoff {
    next: Duration,
}

impl AcceptBackoff {
    const FLOOR: Duration = Duration::from_millis(20);
    const CEIL: Duration = Duration::from_millis(500);

    /// A backoff at its floor delay.
    pub fn new() -> AcceptBackoff {
        AcceptBackoff { next: Self::FLOOR }
    }

    /// The delay to sleep for this failure; doubles for the next one.
    pub fn next_delay(&mut self) -> Duration {
        let delay = self.next;
        self.next = (self.next * 2).min(Self::CEIL);
        delay
    }

    /// An accept succeeded: fall back to the floor.
    pub fn reset(&mut self) {
        self.next = Self::FLOOR;
    }
}

impl Default for AcceptBackoff {
    fn default() -> Self {
        AcceptBackoff::new()
    }
}

/// A running TCP server. Dropping it shuts it down.
pub struct NetServer {
    shared: Arc<Shared>,
    local_addr: SocketAddr,
    /// Resolved once at bind time (a wildcard bind address is not
    /// connectable, so the loopback of the same family stands in);
    /// shutdown aims its accept-thread wake-up connection here instead
    /// of re-deriving the address on every call.
    wake_addr: SocketAddr,
    accept: Mutex<Option<JoinHandle<()>>>,
}

struct Shared {
    shutdown: AtomicBool,
    shards: Vec<ShardHandle>,
    /// Shard loop threads, joined by shutdown.
    workers: Mutex<Vec<JoinHandle<()>>>,
    requests_served: Arc<AtomicU64>,
    connections_accepted: AtomicU64,
    next_shard: AtomicUsize,
}

impl std::fmt::Debug for NetServer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("NetServer")
            .field("local_addr", &self.local_addr)
            .field("shards", &self.shared.shards.len())
            .field(
                "requests_served",
                &self.shared.requests_served.load(Ordering::Relaxed),
            )
            .finish()
    }
}

impl NetServer {
    /// Bind `addr` (e.g. `"127.0.0.1:0"` for an OS-assigned port) and
    /// start serving `service`.
    pub fn bind(addr: impl ToSocketAddrs, service: Arc<dyn Service>) -> Result<NetServer> {
        NetServer::bind_with(addr, service, NetServerConfig::default())
    }

    /// [`bind`](Self::bind) with explicit tunables.
    pub fn bind_with(
        addr: impl ToSocketAddrs,
        service: Arc<dyn Service>,
        config: NetServerConfig,
    ) -> Result<NetServer> {
        let listener = TcpListener::bind(addr).map_err(|e| net_err("bind", e))?;
        let local_addr = listener
            .local_addr()
            .map_err(|e| net_err("local_addr", e))?;
        let wake_addr = wake_addr_for(local_addr);
        let shard_count = if config.shards == 0 {
            std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1)
        } else {
            config.shards
        };
        let requests_served = Arc::new(AtomicU64::new(0));
        let mut shards = Vec::with_capacity(shard_count);
        let mut workers = Vec::with_capacity(shard_count);
        for index in 0..shard_count {
            let ctx = ShardCtx {
                service: service.clone(),
                max_write_buffer: config.max_write_buffer,
                requests_served: requests_served.clone(),
            };
            match evloop::spawn_shard(index, ctx) {
                Ok((handle, join)) => {
                    shards.push(handle);
                    workers.push(join);
                }
                Err(e) => {
                    // Unwind the shards already running before failing
                    // the bind, or they would block in `wait` forever.
                    for shard in &shards {
                        shard.begin_shutdown();
                    }
                    for join in workers {
                        let _ = join.join();
                    }
                    return Err(net_err("spawn event-loop shard", e));
                }
            }
        }
        let shared = Arc::new(Shared {
            shutdown: AtomicBool::new(false),
            shards,
            workers: Mutex::with_rank(
                workers,
                lock_rank::NET_SERVER_WORKERS.0,
                lock_rank::NET_SERVER_WORKERS.1,
            ),
            requests_served,
            connections_accepted: AtomicU64::new(0),
            next_shard: AtomicUsize::new(0),
        });
        let accept_shared = shared.clone();
        let accept = std::thread::Builder::new()
            .name(format!("qnet-accept-{local_addr}"))
            .spawn(move || accept_loop(listener, accept_shared))
            .map_err(|e| net_err("spawn accept thread", e))?;
        Ok(NetServer {
            shared,
            local_addr,
            wake_addr,
            accept: Mutex::with_rank(
                Some(accept),
                lock_rank::NET_SERVER_ACCEPT.0,
                lock_rank::NET_SERVER_ACCEPT.1,
            ),
        })
    }

    /// The bound address (with the OS-assigned port resolved).
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// Total requests dispatched to the wrapped service (top-level
    /// frames; batch sub-requests count as one).
    pub fn requests_served(&self) -> u64 {
        self.shared.requests_served.load(Ordering::Relaxed)
    }

    /// Total connections ever accepted.
    pub fn connections_accepted(&self) -> u64 {
        self.shared.connections_accepted.load(Ordering::Relaxed)
    }

    /// Gracefully stop: close the listener, tear down every connection,
    /// and join the shard threads. Safe to call more than once, from
    /// more than one thread.
    pub fn shutdown(&self) {
        let mut woke = true;
        if !self.shared.shutdown.swap(true, Ordering::SeqCst) {
            // Wake the blocking accept() with a throwaway connection
            // aimed at the address cached at bind time.
            woke = TcpStream::connect_timeout(&self.wake_addr, Duration::from_millis(250)).is_ok();
        }
        if let Some(handle) = self.accept.lock().take() {
            if woke {
                let _ = handle.join();
            }
            // If the wake-up failed (firewalled loopback, fd exhaustion),
            // dropping the handle leaks the accept thread until process
            // exit — strictly better than deadlocking the caller (Drop
            // runs this path too). The shutdown flag makes the thread
            // exit on its next accepted connection.
        }
        for shard in &self.shared.shards {
            shard.begin_shutdown();
        }
        // Sever every connection from outside the loops: a client whose
        // request is wedged inside `Service::call` must see its socket
        // die now, not when the handler deigns to return.
        for shard in &self.shared.shards {
            shard.force_close_all();
        }
        let workers = std::mem::take(&mut *self.shared.workers.lock());
        for join in workers {
            let _ = join.join();
        }
    }
}

impl Drop for NetServer {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// The wake-up target for `shutdown`: the bound address itself, unless
/// it is a wildcard — those are not connectable, so the loopback of the
/// same family stands in.
fn wake_addr_for(local_addr: SocketAddr) -> SocketAddr {
    let mut wake_addr = local_addr;
    if wake_addr.ip().is_unspecified() {
        wake_addr.set_ip(match wake_addr {
            SocketAddr::V4(_) => std::net::IpAddr::V4(std::net::Ipv4Addr::LOCALHOST),
            SocketAddr::V6(_) => std::net::IpAddr::V6(std::net::Ipv6Addr::LOCALHOST),
        });
    }
    wake_addr
}

fn accept_loop(listener: TcpListener, shared: Arc<Shared>) {
    let mut backoff = AcceptBackoff::new();
    loop {
        let (stream, _peer) = match listener.accept() {
            Ok(pair) => pair,
            Err(_) if shared.shutdown.load(Ordering::SeqCst) => return,
            Err(_) => {
                // Persistent accept errors (EMFILE under fd exhaustion)
                // return immediately; pause with escalation instead of
                // spinning a core exactly when the system is starved.
                std::thread::sleep(backoff.next_delay());
                continue;
            }
        };
        backoff.reset();
        if shared.shutdown.load(Ordering::SeqCst) {
            // The wake-up connection (or a late arrival) during shutdown.
            let _ = stream.shutdown(Shutdown::Both);
            return;
        }
        shared.connections_accepted.fetch_add(1, Ordering::Relaxed);
        let _ = stream.set_nodelay(true);
        let index = shared.next_shard.fetch_add(1, Ordering::Relaxed) % shared.shards.len();
        shared.shards[index].send(Task::Accept(stream));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accept_backoff_doubles_to_the_ceiling_and_resets() {
        let mut b = AcceptBackoff::new();
        assert_eq!(b.next_delay(), Duration::from_millis(20));
        assert_eq!(b.next_delay(), Duration::from_millis(40));
        assert_eq!(b.next_delay(), Duration::from_millis(80));
        assert_eq!(b.next_delay(), Duration::from_millis(160));
        assert_eq!(b.next_delay(), Duration::from_millis(320));
        assert_eq!(b.next_delay(), Duration::from_millis(500), "capped");
        assert_eq!(b.next_delay(), Duration::from_millis(500), "stays capped");
        b.reset();
        assert_eq!(b.next_delay(), Duration::from_millis(20), "reset to floor");
    }

    #[test]
    fn wake_addr_passes_through_concrete_and_fixes_wildcards() {
        let concrete: SocketAddr = "127.0.0.1:4100".parse().unwrap();
        assert_eq!(wake_addr_for(concrete), concrete);
        let v4_any: SocketAddr = "0.0.0.0:4100".parse().unwrap();
        assert_eq!(wake_addr_for(v4_any), "127.0.0.1:4100".parse().unwrap());
        let v6_any: SocketAddr = "[::]:4100".parse().unwrap();
        assert_eq!(wake_addr_for(v6_any), "[::1]:4100".parse().unwrap());
    }
}
