//! The event-loop shards behind [`crate::server::NetServer`].
//!
//! Each shard is one thread owning a [`Poller`](crate::poll::Poller)
//! and a shared-nothing slab of connection states — no connection is
//! ever touched by two shards, so the hot path takes no locks at all.
//! The only cross-thread seams are:
//!
//! * the **inbox** (`net.server.shard.inbox`, rank 68): a task queue
//!   the accept thread (new sockets) and pubsub notify hooks (stream
//!   readiness) push into, paired with a poller wake;
//! * the **force-close registry** (`net.server.shard.conns`, rank 69):
//!   token → raw fd, so [`ShardHandle::force_close_all`] can sever
//!   connections from the shutdown path even while a wedged
//!   `Service::call` still holds the loop thread. Raw fds, not dup'd
//!   socket clones: at C10k a dup per connection would double the
//!   server's descriptor footprint.
//!
//! Scheduling is level-triggered: handlers may leave bytes unread or
//! unflushed and the next `wait` re-reports. Reads are bounded per
//! event (`MAX_READS_PER_EVENT`) so one firehose connection cannot
//! starve its shard siblings. Writes stage into a per-connection
//! `BytesMut` queue flushed with one `write` syscall per burst —
//! responses parsed from one read burst and push fan-out alike — which
//! preserves PR 4's pipelining economics without a thread per stream.
//!
//! Backpressure is explicit where the old thread-per-connection server
//! used the socket: a connection whose staged write queue exceeds
//! `max_write_buffer` after a flush attempt is dropped (slow consumer),
//! because blocking the loop on one peer's TCP window would stall every
//! connection on the shard.

use std::io::{Read, Write};
use std::net::{Shutdown, TcpStream};
use std::os::unix::io::{AsRawFd, RawFd};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;

use bytes::BytesMut;
use parking_lot::Mutex;
use quaestor_common::{lock_rank, Error, FxHashMap};
use quaestor_core::{Request, Response, Service};

use crate::codec;
use crate::poll::{Event, Interest, Poller};
use crate::wire::{self, FrameDecode, FrameKind};

/// Per-event read bound: one connection may pull at most this many
/// [`wire::READ_CHUNK`]s before yielding to its shard siblings (level
/// triggering re-reports the remainder).
const MAX_READS_PER_EVENT: usize = 16;

/// Work handed to a shard from another thread.
pub(crate) enum Task {
    /// A freshly accepted socket (nodelay already applied).
    Accept(TcpStream),
    /// A subscription on connection `token` (stream id `request_id`)
    /// has pending messages to forward as `StreamPush` frames.
    Notify { token: u64, request_id: u64 },
}

/// What a shard needs from the server that owns it.
pub(crate) struct ShardCtx {
    pub service: Arc<dyn Service>,
    pub max_write_buffer: usize,
    pub requests_served: Arc<AtomicU64>,
}

/// The cross-thread face of one shard.
#[derive(Clone)]
pub(crate) struct ShardHandle {
    inbox: Arc<Mutex<Vec<Task>>>,
    poller: Arc<Poller>,
    conn_registry: Arc<Mutex<FxHashMap<u64, RawFd>>>,
    stop: Arc<AtomicBool>,
}

impl ShardHandle {
    /// Enqueue a task and wake the loop. Callable from any thread; the
    /// pubsub notify path runs this under `kv.pubsub.channels` (60), so
    /// the inbox rank (68) must stay above it.
    pub(crate) fn send(&self, task: Task) {
        self.inbox.lock().push(task);
        let _ = self.poller.wake();
    }

    /// Ask the loop to exit at its next iteration.
    pub(crate) fn begin_shutdown(&self) {
        self.stop.store(true, Ordering::SeqCst);
        let _ = self.poller.wake();
    }

    /// Sever every live connection from outside the loop. This is the
    /// shutdown path's guarantee to blocked clients: even if a handler
    /// is wedged inside `Service::call` on the loop thread, their
    /// sockets die now.
    pub(crate) fn force_close_all(&self) {
        for fd in self.conn_registry.lock().values() {
            shutdown_fd(*fd);
        }
    }
}

/// `shutdown(2)` both directions of a borrowed fd. The registry holds
/// raw fds rather than dup'd clones (descriptor economy at C10k); this
/// is safe against fd recycling because every entry is removed — under
/// the registry lock — strictly before its fd is closed, so a
/// registered fd always still names the connection that registered it.
fn shutdown_fd(fd: RawFd) {
    extern "C" {
        fn shutdown(fd: i32, how: i32) -> i32;
    }
    const SHUT_RDWR: i32 = 2;
    let _ = unsafe { shutdown(fd, SHUT_RDWR) };
}

/// Spawn one event-loop shard thread.
pub(crate) fn spawn_shard(
    index: usize,
    ctx: ShardCtx,
) -> std::io::Result<(ShardHandle, JoinHandle<()>)> {
    let handle = ShardHandle {
        inbox: Arc::new(Mutex::with_rank(
            Vec::new(),
            lock_rank::NET_SHARD_INBOX.0,
            lock_rank::NET_SHARD_INBOX.1,
        )),
        poller: Arc::new(Poller::new()?),
        conn_registry: Arc::new(Mutex::with_rank(
            FxHashMap::default(),
            lock_rank::NET_SHARD_CONNS.0,
            lock_rank::NET_SHARD_CONNS.1,
        )),
        stop: Arc::new(AtomicBool::new(false)),
    };
    let loop_handle = handle.clone();
    let join = std::thread::Builder::new()
        .name(format!("qnet-loop-{index}"))
        .spawn(move || Shard::new(loop_handle, ctx).run())?;
    Ok((handle, join))
}

/// One registered connection's state, owned by exactly one shard.
struct Conn {
    stream: TcpStream,
    /// Accumulated unparsed inbound bytes.
    rbuf: BytesMut,
    /// Staged outbound frames (responses and stream pushes), flushed on
    /// writability with one syscall per burst.
    wbuf: BytesMut,
    /// Whether `WRITABLE` interest is currently registered — flipped
    /// only on transitions to avoid an `epoll_ctl` per flush.
    wants_write: bool,
    /// Live server-side subscriptions by subscribing request id; the
    /// entry's drop (on `StreamCancel` or connection close) releases
    /// the origin stream.
    streams: FxHashMap<u64, quaestor_kv::Subscription>,
}

/// Slot/generation token packing: low 32 bits index the slab, high 32
/// bits carry a generation bumped on every release, so a stale event or
/// notify for a recycled slot resolves to nothing.
fn pack_token(slot: usize, gen: u32) -> u64 {
    slot as u64 | (u64::from(gen) << 32)
}

struct Shard {
    handle: ShardHandle,
    ctx: ShardCtx,
    slots: Vec<Option<Conn>>,
    gens: Vec<u32>,
    free: Vec<usize>,
    /// Shard-level scratch read buffer — deliberately not per-connection
    /// (10k connections × 64 KiB chunks would pin 640 MB).
    chunk: Vec<u8>,
    /// Scratch frame-encode buffer.
    out: Vec<u8>,
}

impl Shard {
    fn new(handle: ShardHandle, ctx: ShardCtx) -> Shard {
        let chunk = vec![0u8; wire::READ_CHUNK];
        Shard {
            handle,
            ctx,
            slots: Vec::new(),
            gens: Vec::new(),
            free: Vec::new(),
            chunk,
            out: Vec::new(),
        }
    }

    fn run(mut self) {
        let mut events: Vec<Event> = Vec::new();
        loop {
            let tasks = std::mem::take(&mut *self.handle.inbox.lock());
            for task in tasks {
                match task {
                    Task::Accept(stream) => self.install(stream),
                    Task::Notify { token, request_id } => self.on_notify(token, request_id),
                }
            }
            if self.handle.stop.load(Ordering::SeqCst) {
                break;
            }
            if self.handle.poller.wait(&mut events, None).is_err() {
                break;
            }
            for &ev in &events {
                self.on_event(ev);
            }
        }
        // Teardown: drop every connection (closing sockets, releasing
        // subscriptions), pulling each from the force-close registry
        // *before* its fd closes so a concurrent `force_close_all`
        // never touches a recycled descriptor.
        for slot in 0..self.slots.len() {
            if let Some(conn) = self.slots[slot].take() {
                let token = pack_token(slot, self.gens[slot]);
                self.handle.conn_registry.lock().remove(&token);
                let _ = conn.stream.shutdown(Shutdown::Both);
            }
        }
    }

    /// Adopt a freshly accepted socket into the slab.
    fn install(&mut self, stream: TcpStream) {
        if stream.set_nonblocking(true).is_err() {
            let _ = stream.shutdown(Shutdown::Both);
            return;
        }
        let slot = self.free.pop().unwrap_or_else(|| {
            self.slots.push(None);
            self.gens.push(0);
            self.slots.len() - 1
        });
        let token = pack_token(slot, self.gens[slot]);
        if self
            .handle
            .poller
            .register(stream.as_raw_fd(), token, Interest::READABLE)
            .is_err()
        {
            let _ = stream.shutdown(Shutdown::Both);
            self.free.push(slot);
            return;
        }
        self.handle
            .conn_registry
            .lock()
            .insert(token, stream.as_raw_fd());
        self.slots[slot] = Some(Conn {
            stream,
            rbuf: BytesMut::new(),
            wbuf: BytesMut::new(),
            wants_write: false,
            streams: FxHashMap::default(),
        });
    }

    /// Map an event/notify token back to a live slot, rejecting stale
    /// generations.
    fn resolve(&self, token: u64) -> Option<usize> {
        let slot = (token & u64::from(u32::MAX)) as usize;
        let gen = (token >> 32) as u32;
        if slot < self.slots.len() && self.gens[slot] == gen && self.slots[slot].is_some() {
            Some(slot)
        } else {
            None
        }
    }

    /// Release a connection: deregister, close, bump the generation.
    /// Dropping `conn` drops its subscriptions, which releases the
    /// server-side streams.
    fn teardown(&mut self, slot: usize, conn: Conn) {
        let token = pack_token(slot, self.gens[slot]);
        let _ = self.handle.poller.deregister(conn.stream.as_raw_fd());
        let _ = conn.stream.shutdown(Shutdown::Both);
        self.handle.conn_registry.lock().remove(&token);
        self.gens[slot] = self.gens[slot].wrapping_add(1);
        self.free.push(slot);
    }

    fn on_event(&mut self, ev: Event) {
        let Some(slot) = self.resolve(ev.token) else {
            return;
        };
        let Some(mut conn) = self.slots[slot].take() else {
            return;
        };
        let mut keep = true;
        if ev.readable {
            keep = self.drive_read(&mut conn, ev.token);
        }
        if keep && ev.writable {
            keep = self.flush(&mut conn, ev.token);
        }
        if keep && ev.error && !ev.readable && !ev.writable {
            keep = false;
        }
        if keep && conn.wbuf.len() > self.ctx.max_write_buffer {
            keep = false; // slow consumer: never block the loop on one peer
        }
        if keep {
            self.slots[slot] = Some(conn);
        } else {
            self.teardown(slot, conn);
        }
    }

    /// Pull bytes (bounded per event), dispatch complete frames, flush
    /// the staged responses. Returns whether the connection survives.
    fn drive_read(&mut self, conn: &mut Conn, token: u64) -> bool {
        let mut eof = false;
        for _ in 0..MAX_READS_PER_EVENT {
            match conn.stream.read(&mut self.chunk) {
                Ok(0) => {
                    eof = true;
                    break;
                }
                Ok(n) => {
                    conn.rbuf.extend_from_slice(&self.chunk[..n]);
                    if n < self.chunk.len() {
                        break;
                    }
                }
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
                Err(_) => return false,
            }
        }
        if !self.process_frames(conn, token) {
            return false;
        }
        // Flush even on EOF: frames that arrived with the FIN were
        // dispatched and their responses deserve a best-effort write
        // (mirrors the old worker, which wrote before noticing EOF).
        let flushed = self.flush(conn, token);
        flushed && !eof
    }

    /// Dispatch every complete frame in `rbuf`. Returns `false` on
    /// framing loss or protocol violation (connection must close).
    fn process_frames(&mut self, conn: &mut Conn, token: u64) -> bool {
        let Conn {
            ref mut rbuf,
            ref mut wbuf,
            ref mut streams,
            ..
        } = *conn;
        loop {
            let advance = match wire::decode_frame(rbuf) {
                FrameDecode::Incomplete => break,
                FrameDecode::Corrupt(_) => return false, // framing lost
                FrameDecode::Frame(frame) => {
                    match frame.kind {
                        FrameKind::Request => {
                            self.handle_request(token, frame.request_id, frame.body, wbuf, streams);
                        }
                        FrameKind::StreamCancel => {
                            // The client dropped its end: releasing the
                            // subscription here lets the publisher prune
                            // the server-side stream.
                            streams.remove(&frame.request_id);
                        }
                        _ => return false, // protocol violation: only clients send
                    }
                    frame.size
                }
            };
            rbuf.advance(advance);
        }
        true
    }

    /// Decode and dispatch one request frame, staging the response (and
    /// any immediate stream backlog) onto `wbuf`.
    fn handle_request(
        &mut self,
        token: u64,
        request_id: u64,
        body: &[u8],
        wbuf: &mut BytesMut,
        streams: &mut FxHashMap<u64, quaestor_kv::Subscription>,
    ) {
        self.ctx.requests_served.fetch_add(1, Ordering::Relaxed);
        let (ctx, req) = match codec::decode_request_traced(body) {
            Ok(decoded) => decoded,
            Err(e) => {
                // The frame was CRC-valid, so framing is intact — answer
                // the bad request and keep the connection.
                let err = Error::BadRequest(format!("undecodable request: {e}"));
                self.stage(
                    FrameKind::ResponseErr,
                    request_id,
                    &codec::encode_error(&err),
                    wbuf,
                );
                return;
            }
        };
        // Continue the caller's trace across the wire: the span adopts
        // the remote parent and every span below (service, planner, WAL)
        // nests under it in the stitched trace.
        let _span = quaestor_obs::adopt_span(ctx, "net.server");
        let is_subscribe = matches!(req, Request::Subscribe { .. });
        match self.ctx.service.call(req) {
            Ok(Response::Stream(subscription)) => {
                // Accept the stream, then forward messages as push frames
                // tagged with this request's id. The notify hook replaces
                // PR 4's forwarder thread: publishes poke this shard's
                // inbox, the loop drains with `try_recv`.
                self.stage(
                    FrameKind::ResponseOk,
                    request_id,
                    &codec::encode_stream_marker(),
                    wbuf,
                );
                let hook = self.handle.clone();
                // Install the hook *before* draining the backlog: a
                // message published in between is then at worst notified
                // twice (hooks coalesce), never lost.
                subscription.set_notify(move || hook.send(Task::Notify { token, request_id }));
                while let Some(message) = subscription.try_recv() {
                    self.stage_push(request_id, &message, wbuf);
                }
                streams.insert(request_id, subscription);
            }
            Ok(resp) => {
                debug_assert!(!is_subscribe || matches!(resp, Response::Stream(_)));
                let body = codec::encode_response(&resp);
                if wire::frame_fits(body.len()) {
                    self.stage(FrameKind::ResponseOk, request_id, &body, wbuf);
                } else {
                    // An unframeable frame would be rejected as Corrupt
                    // and kill the connection for every pipelined caller;
                    // answer with a typed error instead.
                    let err = Error::Net(format!(
                        "response too large for one frame ({} bytes > {} cap); \
                         narrow the query or split the batch",
                        body.len(),
                        wire::MAX_FRAME_PAYLOAD
                    ));
                    self.stage(
                        FrameKind::ResponseErr,
                        request_id,
                        &codec::encode_error(&err),
                        wbuf,
                    );
                }
            }
            Err(e) => {
                self.stage(
                    FrameKind::ResponseErr,
                    request_id,
                    &codec::encode_error(&e),
                    wbuf,
                );
            }
        }
    }

    /// Encode one frame into the scratch buffer and stage it on `wbuf`.
    fn stage(&mut self, kind: FrameKind, request_id: u64, body: &[u8], wbuf: &mut BytesMut) {
        self.out.clear();
        wire::encode_frame(kind, request_id, body, &mut self.out);
        wbuf.extend_from_slice(&self.out);
    }

    /// Stage one `StreamPush`, skipping unframeable messages (drop
    /// rather than corrupt, as the forwarder threads did).
    fn stage_push(&mut self, request_id: u64, message: &[u8], wbuf: &mut BytesMut) {
        if !wire::frame_fits(message.len()) {
            return;
        }
        self.stage(FrameKind::StreamPush, request_id, message, wbuf);
    }

    /// A subscription has pending messages: stage and flush them.
    fn on_notify(&mut self, token: u64, request_id: u64) {
        let Some(slot) = self.resolve(token) else {
            return; // connection already gone; the hook outlived it briefly
        };
        let Some(mut conn) = self.slots[slot].take() else {
            return;
        };
        {
            let Conn {
                ref mut wbuf,
                ref streams,
                ..
            } = conn;
            if let Some(subscription) = streams.get(&request_id) {
                while let Some(message) = subscription.try_recv() {
                    self.stage_push(request_id, &message, wbuf);
                }
            }
        }
        let keep = self.flush(&mut conn, token) && conn.wbuf.len() <= self.ctx.max_write_buffer;
        if keep {
            self.slots[slot] = Some(conn);
        } else {
            self.teardown(slot, conn);
        }
    }

    /// Write as much of the staged queue as the socket accepts — one
    /// syscall per burst in the common case — and keep `WRITABLE`
    /// interest registered exactly while a remainder exists.
    fn flush(&mut self, conn: &mut Conn, token: u64) -> bool {
        while !conn.wbuf.is_empty() {
            match conn.stream.write(&conn.wbuf) {
                Ok(0) => return false,
                Ok(n) => conn.wbuf.advance(n),
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
                Err(_) => return false,
            }
        }
        let want_write = !conn.wbuf.is_empty();
        if want_write != conn.wants_write {
            let interest = if want_write {
                Interest::BOTH
            } else {
                Interest::READABLE
            };
            if self
                .handle
                .poller
                .reregister(conn.stream.as_raw_fd(), token, interest)
                .is_err()
            {
                return false;
            }
            conn.wants_write = want_write;
        }
        true
    }
}
