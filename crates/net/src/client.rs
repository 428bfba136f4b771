//! The remote [`Service`] client: a pooled, pipelined connection set
//! that makes a [`NetServer`](crate::NetServer) indistinguishable from a
//! local `Arc<dyn Service>`.
//!
//! * **Pooling** — `pool_size` connections, picked round-robin per call.
//!   Concurrent callers naturally pipeline: many requests can be in
//!   flight on one connection, correlated by request id.
//! * **Callers read their own replies** (Leader/Followers) — each
//!   connection has one reader token: an atomic word taken by
//!   compare-and-swap. The caller that holds it reads and decodes frames
//!   until its own reply arrives. On the way it drops other callers'
//!   replies into their waiter slots and publishes `StreamPush` frames
//!   into a process-local [`PubSub`], from which [`Response::Stream`]
//!   subscriptions are materialized. Then it hands the token to one
//!   waiting caller, or frees it. A caller that finds the token taken
//!   parks on its thread's waiter slot until its reply lands there or it
//!   is handed the token. So a round trip wakes the server and the
//!   caller and nothing else, and a call allocates no channel: the slot
//!   and the request frame buffer are reused per thread.
//! * **Streams** — pushes arrive while no call is in flight, so a
//!   connection that has carried a `Subscribe` gets one reader thread,
//!   which runs the same loop and keeps the token for good. A connection
//!   that never subscribed has no thread.
//! * **Failure** — connect/read/write errors, timeouts, and servers that
//!   die mid-request all surface as [`Error::Net`]; a dead connection is
//!   re-established lazily with exponential backoff on the next call
//!   that lands on its pool slot (`call_if_reachable` makes one connect
//!   attempt and fails at once). A connection the server closed while
//!   idle is found dead by a non-blocking peek before the next request
//!   is written, so that request reconnects. A caller whose request may
//!   have reached the wire is *never* silently retried — writes are not
//!   idempotent, so the ambiguity is the caller's to resolve (the
//!   `Error::Net` docs say exactly that).

use std::cell::{RefCell, UnsafeCell};
use std::io::{ErrorKind, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread::Thread;
use std::time::{Duration, Instant};

use bytes::{Bytes, BytesMut};
use parking_lot::Mutex;
use quaestor_common::{lock_rank, Error, FxHashMap, Result};
use quaestor_core::{Request, Response, Service};
use quaestor_kv::PubSub;

use crate::codec::{self, WireResponse};
use crate::wire::{self, FrameDecode, FrameKind};

/// Tunables for a [`RemoteService`]. Connections always run with
/// Nagle's algorithm off, for pipelined latency.
#[derive(Debug, Clone)]
pub struct RemoteServiceConfig {
    /// Number of pooled connections. Calls are spread round-robin; any
    /// number of calls can be in flight per connection (pipelining), so
    /// this bounds sockets, not concurrency.
    pub pool_size: usize,
    /// TCP connect timeout per attempt.
    pub connect_timeout: Duration,
    /// End-to-end deadline for one call, including any reconnect
    /// attempts. Expiry surfaces as [`Error::Net`].
    pub request_timeout: Duration,
    /// Initial delay between reconnect attempts; doubles per failure.
    pub reconnect_backoff: Duration,
    /// Ceiling for the reconnect backoff.
    pub max_backoff: Duration,
    /// Seed for the reconnect backoff jitter. Every sleep is scaled by a
    /// factor uniform in `[0.5, 1.5)` so N clients failing over together
    /// don't hammer a recovering server in lockstep. `None` (the
    /// default) draws a random per-pool seed; tests pin it for
    /// reproducible schedules.
    pub reconnect_jitter_seed: Option<u64>,
}

impl Default for RemoteServiceConfig {
    fn default() -> Self {
        RemoteServiceConfig {
            pool_size: 2,
            connect_timeout: Duration::from_secs(2),
            request_timeout: Duration::from_secs(10),
            reconnect_backoff: Duration::from_millis(20),
            max_backoff: Duration::from_secs(1),
            reconnect_jitter_seed: None,
        }
    }
}

fn net_err(context: &str, e: impl std::fmt::Display) -> Error {
    Error::Net(format!("{context}: {e}"))
}

fn in_flight_err() -> Error {
    Error::Net(
        "connection closed with the request in flight; \
         it may or may not have executed"
            .into(),
    )
}

/// A holder blocks in `read` at most this long before it looks at its
/// deadline again.
const READ_SLICE: Duration = Duration::from_millis(50);

/// Request frame buffers above this capacity are not kept for reuse.
const KEPT_FRAME_CAPACITY: usize = 64 * 1024;

/// The registration key of a connection's stream reader thread. Request
/// ids start at 1, so no reply ever carries it.
const STREAM_READER: u64 = 0;

/// `Conn::token` bit: someone holds the reader token.
const HELD: usize = 1;
/// `Conn::token` unit: one registered caller not yet done waiting.
const WAITER: usize = 2;

/// A `Service` whose implementation lives across a TCP connection pool.
pub struct RemoteService {
    addr: SocketAddr,
    config: RemoteServiceConfig,
    slots: Vec<Mutex<Option<Arc<Conn>>>>,
    next_slot: AtomicUsize,
    next_id: AtomicU64,
    /// Local bus that remote change streams are materialized from:
    /// `StreamPush` frames publish into `stream-<request id>` channels.
    bus: Arc<PubSub>,
    /// Resolved jitter seed (config's, or a random per-pool draw).
    jitter_seed: u64,
    /// Monotone draw counter: each backoff sleep mixes it with the seed,
    /// so the jitter sequence is deterministic per pool yet never repeats.
    jitter_seq: AtomicU64,
}

impl std::fmt::Debug for RemoteService {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RemoteService")
            .field("addr", &self.addr)
            .field("pool_size", &self.config.pool_size)
            .finish()
    }
}

/// One pooled connection.
struct Conn {
    stream: TcpStream,
    /// Serializes writes, and holds the registrations of callers that
    /// wait for a reply someone else reads. A caller registers in the
    /// same critical section that writes its request, so a reply can
    /// never arrive for a caller the token holder cannot find.
    writer: Mutex<Outbox>,
    /// The reader token ([`HELD`]) and the number of registered callers
    /// still waiting ([`WAITER`] each), in one word.
    token: AtomicUsize,
    /// The read side: only the token holder touches it.
    inbox: UnsafeCell<Inbox>,
    alive: AtomicBool,
    /// Set once a `Subscribe` went out: the stream reader thread exists.
    streaming: AtomicBool,
    bus: Arc<PubSub>,
}

// SAFETY: every field but `inbox` is `Sync`. `inbox` is reached only
// through a `ReaderToken`, and the token word admits one holder at a
// time: it is taken with a SeqCst read-modify-write and passed on with
// a SeqCst write (or a SeqCst compare-and-swap on the new holder's
// slot), so the holder's accesses are ordered exactly as under a mutex.
unsafe impl Sync for Conn {}

struct Outbox {
    /// Callers waiting for a reply someone else reads, by request id.
    waiting: FxHashMap<u64, Waiter>,
    /// Set by teardown: nothing is written or registered after it.
    closed: bool,
}

struct Inbox {
    buf: BytesMut,
    chunk: Vec<u8>,
    /// The socket's read timeout as last set (`None`: block).
    read_timeout: Option<Duration>,
}

/// A thread's waiter slot, reused by every call the thread makes. The
/// state word holds a call generation and a tag; a holder completes a
/// registration only while its generation still matches, so a late
/// reply to a call that timed out never reaches the thread's next call.
struct WaiterSlot {
    state: AtomicU64,
    reply: UnsafeCell<Option<Result<WireResponse>>>,
    thread: Thread,
}

// SAFETY: `state` is atomic and `thread` is `Sync`. `reply` is written
// only by the holder whose compare-and-swap moved the state from
// `WAITING` to `CLAIMED` for the current generation, and read only by
// the owning thread after it observes `REPLY` (release/acquire) for that
// generation; the value it moves between them, `Result<WireResponse>`,
// is `Send`.
unsafe impl Sync for WaiterSlot {}

/// Tag bits of a [`WaiterSlot`] state; the generation sits above them.
const TAG_BITS: u32 = 3;
const TAG_MASK: u64 = (1 << TAG_BITS) - 1;
/// Registered; waiting for a reply or the token.
const WAITING: u64 = 0;
/// A holder is writing the reply.
const CLAIMED: u64 = 1;
/// The reply is in the slot.
const REPLY: u64 = 2;
/// The token was handed to this caller.
const TOKEN: u64 = 3;
/// The call gave up waiting (timeout), or reads its own reply.
const DONE: u64 = 4;

const fn slot_word(generation: u64, tag: u64) -> u64 {
    (generation << TAG_BITS) | tag
}

thread_local! {
    static SLOT: Arc<WaiterSlot> = Arc::new(WaiterSlot {
        state: AtomicU64::new(slot_word(0, DONE)),
        reply: UnsafeCell::new(None),
        thread: std::thread::current(),
    });
    static FRAME: RefCell<Vec<u8>> = const { RefCell::new(Vec::new()) };
}

/// One registration: a waiter slot at one generation.
#[derive(Clone)]
struct Waiter {
    slot: Arc<WaiterSlot>,
    generation: u64,
}

impl Waiter {
    /// Open a new generation of this thread's slot.
    fn begin() -> Waiter {
        let slot = SLOT.with(Arc::clone);
        let generation = (slot.state.load(Ordering::Acquire) >> TAG_BITS) + 1;
        slot.state
            .store(slot_word(generation, WAITING), Ordering::SeqCst);
        Waiter { slot, generation }
    }

    fn tag(&self) -> u64 {
        self.slot.state.load(Ordering::Acquire) & TAG_MASK
    }

    /// Leave `WAITING` for `tag`; false if the registration already left
    /// it (completed, handed the token, or stale).
    fn transition(&self, tag: u64) -> bool {
        self.slot
            .state
            .compare_exchange(
                slot_word(self.generation, WAITING),
                slot_word(self.generation, tag),
                Ordering::SeqCst,
                Ordering::SeqCst,
            )
            .is_ok()
    }

    /// Complete the registration with `result` and wake its caller. A
    /// stale registration drops the result.
    fn complete(&self, result: Result<WireResponse>) {
        if self.transition(CLAIMED) {
            // SAFETY: the CLAIMED transition makes this the only access.
            unsafe { *self.slot.reply.get() = Some(result) };
            self.slot
                .state
                .store(slot_word(self.generation, REPLY), Ordering::Release);
            self.slot.thread.unpark();
        }
    }

    /// Hand the reader token to this caller; false if it no longer waits.
    fn hand_token(&self) -> bool {
        let handed = self.transition(TOKEN);
        if handed {
            self.slot.thread.unpark();
        }
        handed
    }

    /// The reply, once the tag reads `REPLY`.
    fn take_reply(&self) -> Result<WireResponse> {
        // SAFETY: REPLY was observed with acquire ordering, and no holder
        // writes the slot again before the owner opens a new generation.
        unsafe { (*self.slot.reply.get()).take() }
            .unwrap_or_else(|| Err(Error::Net("reply slot was empty".into())))
    }
}

/// How a holder's read loop ended.
enum ReadEnd {
    /// The caller's own reply.
    Reply(Result<WireResponse>),
    /// The caller's deadline passed first.
    TimedOut,
    /// The connection died; every registered caller was failed.
    Closed,
}

/// Proof of holding a connection's reader token. Dropping it hands the
/// token to one waiting caller, or frees it.
struct ReaderToken {
    conn: Arc<Conn>,
}

impl Conn {
    /// Take the reader token if nobody holds it.
    fn try_take_token(self: &Arc<Conn>) -> Option<ReaderToken> {
        (self.token.fetch_or(HELD, Ordering::SeqCst) & HELD == 0)
            .then(|| ReaderToken { conn: self.clone() })
    }

    /// As a registered waiter: take the token if it is free, leaving
    /// the waiter count in the same step.
    fn take_free_token(self: &Arc<Conn>) -> Option<ReaderToken> {
        let mut word = self.token.load(Ordering::SeqCst);
        while word & HELD == 0 {
            match self.token.compare_exchange_weak(
                word,
                (word | HELD) - WAITER,
                Ordering::SeqCst,
                Ordering::SeqCst,
            ) {
                Ok(_) => return Some(ReaderToken { conn: self.clone() }),
                Err(now) => word = now,
            }
        }
        None
    }

    /// Write one request frame, registering `waiter` under the same lock
    /// first. Fails without writing once the connection is torn down.
    fn write(&self, frame: &[u8], waiter: Option<(u64, &Waiter)>) -> std::io::Result<()> {
        let mut out = self.writer.lock();
        if out.closed {
            return Err(std::io::Error::new(
                ErrorKind::NotConnected,
                "connection torn down",
            ));
        }
        if let Some((request_id, w)) = waiter {
            out.waiting.insert(request_id, w.clone());
        }
        let written = (&self.stream).write_all(frame);
        if let (Err(_), Some((request_id, _))) = (&written, waiter) {
            out.waiting.remove(&request_id);
        }
        written
    }

    /// True if the peer has closed or reset the connection: a
    /// non-blocking one-byte peek finds end-of-stream rather than data
    /// or nothing. Only meaningful while no call is in flight.
    fn peer_closed(&self) -> bool {
        #[cfg(unix)]
        {
            use std::os::unix::io::AsRawFd;
            extern "C" {
                fn recv(fd: i32, buf: *mut u8, len: usize, flags: i32) -> isize;
            }
            const MSG_PEEK: i32 = 0x2;
            #[cfg(target_os = "linux")]
            const MSG_DONTWAIT: i32 = 0x40;
            #[cfg(not(target_os = "linux"))]
            const MSG_DONTWAIT: i32 = 0x80;
            let mut byte = 0u8;
            // SAFETY: one writable byte, on a descriptor this connection owns.
            let n = unsafe {
                recv(
                    self.stream.as_raw_fd(),
                    &mut byte,
                    1,
                    MSG_PEEK | MSG_DONTWAIT,
                )
            };
            n == 0
                || (n < 0
                    && !matches!(
                        std::io::Error::last_os_error().kind(),
                        ErrorKind::WouldBlock | ErrorKind::Interrupted
                    ))
        }
        #[cfg(not(unix))]
        {
            false
        }
    }

    /// Close the connection and fail every registered caller now; no
    /// caller registers after it. Idempotent.
    fn teardown(&self) {
        if self.alive.swap(false, Ordering::SeqCst) {
            let _ = self.stream.shutdown(Shutdown::Both);
        }
        let waiting = {
            let mut out = self.writer.lock();
            out.closed = true;
            std::mem::take(&mut out.waiting)
        };
        for (_, w) in waiting {
            w.complete(Err(in_flight_err()));
        }
    }

    /// As the token holder: tear the connection down, failing every
    /// registered caller, and drop what is left unread.
    fn close(&self, inbox: &mut Inbox) -> ReadEnd {
        self.teardown();
        inbox.buf.clear();
        ReadEnd::Closed
    }

    /// Drop the registration for `request_id`, if it is still there.
    fn forget(&self, request_id: u64) {
        self.writer.lock().waiting.remove(&request_id);
    }

    /// Complete the caller registered for `request_id`. A reply with no
    /// registration answers a call that already gave up: drop it.
    fn deliver(&self, request_id: u64, result: Result<WireResponse>) {
        let waiter = self.writer.lock().waiting.remove(&request_id);
        if let Some(w) = waiter {
            w.complete(result);
        }
    }

    /// Publish a pushed stream message to its local subscription. With
    /// no subscriber left (the caller dropped it, or the subscribe call
    /// failed), tell the server to release its end, bounding the
    /// per-subscribe cost to one orphan push.
    fn publish(&self, request_id: u64, body: &[u8]) {
        let delivered = self.bus.publish(
            &RemoteService::stream_channel(request_id),
            Bytes::from(body.to_vec()),
        );
        if delivered == 0 {
            let mut cancel = Vec::new();
            wire::encode_frame(FrameKind::StreamCancel, request_id, &[], &mut cancel);
            let _ = self.write(&cancel, None);
        }
    }

    /// Give the token to a registered caller that still waits,
    /// preferring the stream reader; false if there is none. Once the
    /// token is handed, the inbox belongs to its new holder: handing it
    /// is the last thing the old holder does.
    fn hand_token(&self) -> bool {
        let mut out = self.writer.lock();
        loop {
            let request_id = if out.waiting.contains_key(&STREAM_READER) {
                STREAM_READER
            } else {
                match out.waiting.keys().next() {
                    Some(&id) => id,
                    None => return false,
                }
            };
            // An entry that does not take the token is stale: its caller
            // stopped waiting (it timed out), or its thread moved on to a
            // new generation.
            if let Some(w) = out.waiting.remove(&request_id) {
                if w.hand_token() {
                    return true;
                }
            }
        }
    }

    /// Start the stream reader thread, once per connection.
    fn start_stream_reader(self: &Arc<Conn>) -> Result<()> {
        if self.streaming.swap(true, Ordering::SeqCst) {
            return Ok(());
        }
        let conn = self.clone();
        std::thread::Builder::new()
            .name("qnet-client-reader".to_owned())
            .spawn(move || conn.run_stream_reader())
            .map(|_| ())
            .map_err(|e| {
                self.streaming.store(false, Ordering::SeqCst);
                net_err("spawn stream reader thread", e)
            })
    }

    /// The stream reader: wait for the token like any caller, then keep
    /// it and read until the connection dies.
    fn run_stream_reader(self: Arc<Conn>) {
        let mut token = match self.try_take_token() {
            Some(token) => token,
            None => {
                let me = Waiter::begin();
                {
                    let mut out = self.writer.lock();
                    if out.closed {
                        return;
                    }
                    out.waiting.insert(STREAM_READER, me.clone());
                }
                self.token.fetch_add(WAITER, Ordering::SeqCst);
                match self.await_turn(&me, STREAM_READER, None) {
                    Turn::Token(token) => token,
                    // Only a teardown completes the stream reader.
                    Turn::Reply(_) | Turn::TimedOut => return,
                }
            }
        };
        let _ = token.read_until(None, None);
    }

    /// Park a registered caller until its reply arrives, it is handed
    /// the token (or finds it free), or its deadline passes.
    fn await_turn(
        self: &Arc<Conn>,
        me: &Waiter,
        request_id: u64,
        deadline: Option<Instant>,
    ) -> Turn {
        loop {
            match me.tag() {
                REPLY => {
                    self.token.fetch_sub(WAITER, Ordering::SeqCst);
                    return Turn::Reply(me.take_reply());
                }
                TOKEN => {
                    self.token.fetch_sub(WAITER, Ordering::SeqCst);
                    return Turn::Token(ReaderToken { conn: self.clone() });
                }
                CLAIMED => {
                    // The holder is between claiming and filling the slot.
                    std::thread::yield_now();
                    continue;
                }
                _ => {}
            }
            if let Some(token) = self.take_free_token() {
                if me.transition(DONE) {
                    self.forget(request_id);
                    return Turn::Token(token);
                }
                // Completed meanwhile: by the holder that freed the
                // token, or by a teardown.
                while me.tag() == CLAIMED {
                    std::thread::yield_now();
                }
                return Turn::Reply(me.take_reply());
            }
            match deadline {
                None => std::thread::park(),
                Some(deadline) => {
                    let now = Instant::now();
                    if now >= deadline {
                        if me.transition(DONE) {
                            self.forget(request_id);
                            self.token.fetch_sub(WAITER, Ordering::SeqCst);
                            return Turn::TimedOut;
                        }
                        continue;
                    }
                    std::thread::park_timeout(deadline - now);
                }
            }
        }
    }
}

/// Where a registered caller's wait ended.
enum Turn {
    Reply(Result<WireResponse>),
    Token(ReaderToken),
    TimedOut,
}

impl ReaderToken {
    /// The connection, and its inbox for as long as `self` is borrowed.
    fn parts(&mut self) -> (&Conn, &mut Inbox) {
        let conn = &*self.conn;
        // SAFETY: the token admits one holder at a time, and the `&mut
        // self` borrow admits one inbox reference per holder.
        (conn, unsafe { &mut *conn.inbox.get() })
    }

    /// Read and route frames until the reply to `own` arrives, `deadline`
    /// passes, or the connection dies. Frames already buffered are all
    /// routed before the own reply is returned.
    fn read_until(&mut self, own: Option<u64>, deadline: Option<Instant>) -> ReadEnd {
        let (conn, inbox) = self.parts();
        let mut mine = None;
        loop {
            loop {
                let size = match wire::decode_frame(&inbox.buf) {
                    FrameDecode::Incomplete => break,
                    FrameDecode::Corrupt(_) => return conn.close(inbox),
                    FrameDecode::Frame(frame) => {
                        let result = match frame.kind {
                            FrameKind::ResponseOk => codec::decode_response(frame.body)
                                .map_err(|e| Error::Net(format!("undecodable response: {e}"))),
                            FrameKind::ResponseErr => match codec::decode_error(frame.body) {
                                Ok(e) => Err(e),
                                Err(e) => {
                                    Err(Error::Net(format!("undecodable error response: {e}")))
                                }
                            },
                            FrameKind::StreamPush => {
                                conn.publish(frame.request_id, frame.body);
                                inbox.buf.advance(frame.size);
                                continue;
                            }
                            // Servers don't ask, and replication frames
                            // only travel on dedicated replication
                            // connections.
                            FrameKind::Request
                            | FrameKind::StreamCancel
                            | FrameKind::ReplHello
                            | FrameKind::ReplHelloAck
                            | FrameKind::ReplFrames
                            | FrameKind::ReplAck => return conn.close(inbox),
                        };
                        if own == Some(frame.request_id) {
                            mine = Some(result);
                        } else {
                            conn.deliver(frame.request_id, result);
                        }
                        frame.size
                    }
                };
                inbox.buf.advance(size);
            }
            if let Some(result) = mine {
                return ReadEnd::Reply(result);
            }
            let timeout = match deadline {
                None => None,
                Some(deadline) => {
                    let left = deadline.saturating_duration_since(Instant::now());
                    if left.is_zero() {
                        return ReadEnd::TimedOut;
                    }
                    // A zero timeout would mean "block forever".
                    Some(left.min(READ_SLICE).max(Duration::from_millis(1)))
                }
            };
            if inbox.read_timeout != timeout && conn.stream.set_read_timeout(timeout).is_ok() {
                inbox.read_timeout = timeout;
            }
            match (&conn.stream).read(&mut inbox.chunk) {
                Ok(0) => return conn.close(inbox),
                Ok(n) => inbox.buf.extend_from_slice(&inbox.chunk[..n]),
                Err(e)
                    if matches!(
                        e.kind(),
                        ErrorKind::WouldBlock | ErrorKind::TimedOut | ErrorKind::Interrupted
                    ) => {}
                Err(_) => return conn.close(inbox),
            }
        }
    }

    /// Tear the connection down and fail every registered caller now.
    fn close(&mut self) {
        let (conn, inbox) = self.parts();
        conn.close(inbox);
    }
}

impl Drop for ReaderToken {
    fn drop(&mut self) {
        let conn = &*self.conn;
        loop {
            let word = conn.token.load(Ordering::SeqCst);
            if word >= WAITER && conn.hand_token() {
                return;
            }
            // A caller that registers after the scan changes the word,
            // so the release fails and the scan runs again.
            if conn
                .token
                .compare_exchange(word, word & !HELD, Ordering::SeqCst, Ordering::SeqCst)
                .is_ok()
            {
                return;
            }
        }
    }
}

/// How a request left: its caller holds the reader token, or waits
/// registered for someone else to read its reply.
enum Sent {
    Holder(ReaderToken),
    Waiter(Arc<Conn>, Waiter),
}

impl RemoteService {
    /// Connect a pool to `addr`. The first connection is established
    /// eagerly so misconfiguration fails here rather than on first use;
    /// the rest are opened lazily.
    pub fn connect(
        addr: impl ToSocketAddrs,
        config: RemoteServiceConfig,
    ) -> Result<Arc<RemoteService>> {
        let svc = RemoteService::connect_lazy(addr, config)?;
        let conn = svc.open_conn()?;
        *svc.slots[0].lock() = Some(conn);
        Ok(svc)
    }

    /// Like [`connect`](Self::connect), but without touching the network:
    /// every connection is established on first use (with backoff). For
    /// targets that are expected to come up later.
    pub fn connect_lazy(
        addr: impl ToSocketAddrs,
        config: RemoteServiceConfig,
    ) -> Result<Arc<RemoteService>> {
        let addr = addr
            .to_socket_addrs()
            .map_err(|e| net_err("resolve", e))?
            .next()
            .ok_or_else(|| Error::Net("address resolved to nothing".into()))?;
        assert!(config.pool_size > 0, "pool_size must be at least 1");
        Ok(Arc::new(RemoteService {
            addr,
            slots: (0..config.pool_size)
                .map(|_| {
                    Mutex::with_rank(
                        None,
                        lock_rank::NET_CLIENT_SLOT.0,
                        lock_rank::NET_CLIENT_SLOT.1,
                    )
                })
                .collect(),
            next_slot: AtomicUsize::new(0),
            next_id: AtomicU64::new(1),
            bus: PubSub::new(),
            jitter_seed: config.reconnect_jitter_seed.unwrap_or_else(|| {
                use std::hash::{BuildHasher, Hasher};
                std::collections::hash_map::RandomState::new()
                    .build_hasher()
                    .finish()
            }),
            jitter_seq: AtomicU64::new(0),
            config,
        }))
    }

    /// The server address this pool targets.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Close every pooled connection now. Pending calls fail with
    /// [`Error::Net`]; subsequent calls reconnect with backoff. (Useful
    /// for failover drills and tests; normal use never needs it.)
    pub fn disconnect_all(&self) {
        for slot in &self.slots {
            if let Some(conn) = slot.lock().take() {
                conn.teardown();
            }
        }
    }

    /// Open one connection. No thread starts: callers read it.
    fn open_conn(&self) -> Result<Arc<Conn>> {
        let stream = TcpStream::connect_timeout(&self.addr, self.config.connect_timeout)
            .map_err(|e| net_err("connect", e))?;
        let _ = stream.set_nodelay(true);
        Ok(Arc::new(Conn {
            stream,
            writer: Mutex::with_rank(
                Outbox {
                    waiting: FxHashMap::default(),
                    closed: false,
                },
                lock_rank::NET_CLIENT_WRITER.0,
                lock_rank::NET_CLIENT_WRITER.1,
            ),
            token: AtomicUsize::new(0),
            inbox: UnsafeCell::new(Inbox {
                buf: BytesMut::with_capacity(wire::READ_CHUNK),
                chunk: vec![0; wire::READ_CHUNK],
                read_timeout: None,
            }),
            alive: AtomicBool::new(true),
            streaming: AtomicBool::new(false),
            bus: self.bus.clone(),
        }))
    }

    /// Round-robin to a live connection, reconnecting its slot with
    /// exponential backoff while the deadline allows (or, unless `wait`,
    /// with one connect attempt). The flag is true if this call opened
    /// the connection.
    ///
    /// The slot mutex is held only for the check-and-install moments,
    /// never across a connect attempt or a backoff sleep — callers that
    /// share a dead slot reconnect concurrently (and `disconnect_all`
    /// never stalls behind a retry loop). If two callers race to
    /// repopulate a slot, the loser's connection is torn down and the
    /// winner's is shared.
    fn get_conn(&self, deadline: Instant, wait: bool) -> Result<(Arc<Conn>, bool)> {
        let idx = self.next_slot.fetch_add(1, Ordering::Relaxed) % self.slots.len();
        let slot = &self.slots[idx];
        let mut backoff = self.config.reconnect_backoff;
        loop {
            {
                let mut guard = slot.lock();
                if let Some(conn) = &*guard {
                    if conn.alive.load(Ordering::Acquire) {
                        return Ok((conn.clone(), false));
                    }
                    conn.teardown();
                    *guard = None;
                }
            }
            match self.open_conn() {
                Ok(conn) => {
                    let mut guard = slot.lock();
                    if let Some(existing) = &*guard {
                        if existing.alive.load(Ordering::Acquire) {
                            // Someone repopulated the slot while we were
                            // connecting; share theirs, discard ours.
                            conn.teardown();
                            return Ok((existing.clone(), false));
                        }
                        existing.teardown();
                    }
                    *guard = Some(conn.clone());
                    return Ok((conn, true));
                }
                Err(e) => {
                    let delay = self.jittered(backoff);
                    if !wait || Instant::now() + delay >= deadline {
                        return Err(e);
                    }
                    std::thread::sleep(delay);
                    backoff = (backoff * 2).min(self.config.max_backoff);
                }
            }
        }
    }

    /// Scale one backoff by a seeded factor uniform in `[0.5, 1.5)`.
    /// Exponential backoff alone synchronizes: every client that lost the
    /// same primary at the same moment retries on the same schedule,
    /// stampeding the node that is trying to come back. Jitter spreads
    /// the herd while keeping the expected delay unchanged.
    fn jittered(&self, backoff: Duration) -> Duration {
        let n = self.jitter_seq.fetch_add(1, Ordering::Relaxed);
        // splitmix64 over (seed, draw index): cheap, seedable, and good
        // enough to decorrelate sleep schedules — not used for secrets.
        let mut z = self
            .jitter_seed
            .wrapping_add(n.wrapping_mul(0x9E37_79B9_7F4A_7C15));
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^= z >> 31;
        let frac = (z >> 11) as f64 / (1u64 << 53) as f64;
        backoff.mul_f64(0.5 + frac)
    }

    fn stream_channel(request_id: u64) -> String {
        format!("stream-{request_id}")
    }

    /// Write one request frame. A write that fails before the frame
    /// reaches the wire is safe to retry on a fresh connection — the
    /// server never saw it — and so is a request whose connection turns
    /// out to be closed before it is written. Once the write succeeds,
    /// retries stop being safe.
    fn send(
        &self,
        frame: &[u8],
        request_id: u64,
        subscribe: bool,
        deadline: Instant,
        wait: bool,
    ) -> Result<Sent> {
        loop {
            let (conn, fresh) = self.get_conn(deadline, wait)?;
            if subscribe {
                // Pushes may follow the answer while no call is in flight.
                conn.start_stream_reader()?;
            }
            let failed = match conn.try_take_token() {
                Some(mut token) => {
                    if conn.peer_closed() {
                        token.close();
                        // A pooled connection the server closed while it
                        // sat idle: retire it and try the next slot,
                        // which reconnects once every stale one is gone.
                        // A server that closes the connection this call
                        // just opened is refusing service.
                        if fresh || Instant::now() >= deadline {
                            return Err(Error::Net(
                                "the server closed the connection before the request \
                                 was written; it did not execute"
                                    .into(),
                            ));
                        }
                        continue;
                    }
                    match conn.write(frame, None) {
                        Ok(()) => return Ok(Sent::Holder(token)),
                        Err(e) => {
                            token.close();
                            e
                        }
                    }
                }
                None => {
                    let me = Waiter::begin();
                    match conn.write(frame, Some((request_id, &me))) {
                        Ok(()) => {
                            conn.token.fetch_add(WAITER, Ordering::SeqCst);
                            return Ok(Sent::Waiter(conn, me));
                        }
                        Err(e) => {
                            conn.teardown();
                            e
                        }
                    }
                }
            };
            if Instant::now() >= deadline {
                return Err(net_err("send", failed));
            }
        }
    }
}

impl Drop for RemoteService {
    fn drop(&mut self) {
        self.disconnect_all();
    }
}

impl Service for RemoteService {
    fn call(&self, req: Request) -> Result<Response> {
        self.call_with(req, true)
    }

    /// One connect attempt, no backoff: a refused or timed-out connect
    /// fails the call at once.
    fn call_if_reachable(&self, req: Request) -> Result<Response> {
        self.call_with(req, false)
    }
}

impl RemoteService {
    /// One request; `wait` lets a dead connection reconnect with backoff
    /// until the request deadline.
    fn call_with(&self, req: Request, wait: bool) -> Result<Response> {
        let deadline = Instant::now() + self.config.request_timeout;
        let request_id = self.next_id.fetch_add(1, Ordering::Relaxed);

        // Child span when a trace is active (or a sampled root when
        // client-side sampling is on); its context rides the frame as a
        // body-prefix tag so the server stitches into the same trace.
        let span = quaestor_obs::client_span("client.call");
        let send_span = quaestor_obs::span("net.client.send");

        // For subscriptions: open the local endpoint *before* the request
        // leaves, so no push can slip past between response and subscribe.
        let subscribe = matches!(req, Request::Subscribe { .. });
        let mut local_sub =
            subscribe.then(|| self.bus.subscribe(&Self::stream_channel(request_id)));

        let mut frame = FRAME.with(RefCell::take);
        if let Err(size) = codec::encode_request_frame(request_id, &req, span.context(), &mut frame)
        {
            return Err(Error::Net(format!(
                "request too large for one frame ({size} bytes > {} cap); split the batch",
                wire::MAX_FRAME_PAYLOAD
            )));
        }
        let sent = self.send(&frame, request_id, subscribe, deadline, wait);
        if frame.capacity() <= KEPT_FRAME_CAPACITY {
            FRAME.with(|kept| kept.replace(frame));
        }
        let sent = sent?;
        drop(send_span);

        let recv_span = quaestor_obs::span("net.client.recv");
        let read = match sent {
            Sent::Holder(mut token) => token.read_until(Some(request_id), Some(deadline)),
            Sent::Waiter(conn, me) => match conn.await_turn(&me, request_id, Some(deadline)) {
                Turn::Reply(result) => ReadEnd::Reply(result),
                Turn::Token(mut token) => token.read_until(Some(request_id), Some(deadline)),
                Turn::TimedOut => ReadEnd::TimedOut,
            },
        };
        drop(recv_span);
        let outcome = match read {
            ReadEnd::Reply(result) => result,
            ReadEnd::TimedOut => {
                return Err(Error::Net(format!(
                    "request timed out after {:?}; it may or may not have executed",
                    self.config.request_timeout
                )))
            }
            ReadEnd::Closed => return Err(in_flight_err()),
        };
        match outcome? {
            WireResponse::Plain(resp) => Ok(resp),
            WireResponse::Stream => match local_sub.take() {
                Some(sub) => Ok(Response::Stream(sub)),
                None => Err(Error::Net(
                    "protocol violation: stream response to a non-subscribe request".into(),
                )),
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pool(seed: Option<u64>) -> Arc<RemoteService> {
        RemoteService::connect_lazy(
            "127.0.0.1:1", // never dialed by these tests
            RemoteServiceConfig {
                reconnect_jitter_seed: seed,
                ..RemoteServiceConfig::default()
            },
        )
        .unwrap()
    }

    #[test]
    fn jitter_stays_within_half_to_one_and_a_half() {
        let svc = pool(Some(7));
        let base = Duration::from_millis(100);
        let mut distinct = std::collections::HashSet::new();
        for _ in 0..256 {
            let d = svc.jittered(base);
            assert!(d >= base / 2, "{d:?} below 0.5x");
            assert!(d < base + base / 2, "{d:?} at or above 1.5x");
            distinct.insert(d.as_nanos());
        }
        assert!(
            distinct.len() > 200,
            "draws must vary, got {}",
            distinct.len()
        );
    }

    #[test]
    fn pinned_seeds_replay_and_differ_across_pools() {
        let base = Duration::from_millis(20);
        let a1: Vec<_> = {
            let svc = pool(Some(42));
            (0..16).map(|_| svc.jittered(base)).collect()
        };
        let a2: Vec<_> = {
            let svc = pool(Some(42));
            (0..16).map(|_| svc.jittered(base)).collect()
        };
        assert_eq!(a1, a2, "same seed must replay the same schedule");
        let b: Vec<_> = {
            let svc = pool(Some(43));
            (0..16).map(|_| svc.jittered(base)).collect()
        };
        assert_ne!(a1, b, "different seeds must not reconnect in lockstep");
    }
}
