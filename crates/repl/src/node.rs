//! The replication node: one process-local actor that owns a durable
//! [`QuaestorServer`], ships (or follows) the WAL, and answers client
//! traffic as a [`Service`].
//!
//! ## Roles
//!
//! A [`ReplNode`] opens in one of two roles and may change role once, by
//! promotion:
//!
//! * **Primary** ([`ReplNode::open_primary`]) — serves reads *and*
//!   writes; every accepted replication connection gets a session thread
//!   that follows the WAL with a [`WalTail`](quaestor_durability::wal::WalTail)
//!   cursor and ships its raw frames in batches, one batch in flight,
//!   advancing on the replica's durable ack.
//! * **Replica** ([`ReplNode::open_replica`]) — serves reads (rejecting
//!   writes with a recognizable `BadRequest`), while a follower thread
//!   group-commits each shipped batch: check every frame's CRC, run the
//!   batch through the LSN gate of `append_replicated`, which stages the
//!   accepted frames byte for byte and writes them with one `write` and
//!   one fsync, then apply them to served state through
//!   `apply_replicated`, then ack. The LSN gate is what makes duplicate
//!   delivery and reconnection re-sends no-ops — a frame the log refuses
//!   is not applied either — and a batch with a gap or a bad frame is
//!   refused whole, before any of it is staged.
//!
//! Replica lag is cache age: a replica's state is exactly the primary's
//! state as of `durable_lsn` (a replica reports the lower of its durable
//! and its applied LSN, so a batch fsynced but not yet applied does not
//! count; an election ranks replicas by `last_lsn` instead, the log's
//! end, which the follower fsyncs before anyone can read it), so the
//! paper's Expiring Bloom Filter bound
//! governs replica-read staleness verbatim — stale reads are *bounded*,
//! not prevented, which is the same contract every web cache in the
//! system already has.
//!
//! Every blocking wait has a waker; `DESIGN.md` lists each one.
//!
//! ## Fencing
//!
//! Promotion appends `(epoch, last_lsn)` to the node's persisted
//! [`Lineage`] — epoch `e` owns the LSNs above its entry's `start_lsn`.
//! A rejoining node introduces itself with its adopted epoch; if that
//! epoch is stale, the handshake answer fences it at the start of the
//! first newer epoch, and [`ReplNode::open_replica`] truncates the
//! node's WAL suffix above the fence *before* recovery rebuilds served
//! state — the unreplicated suffix of a deposed primary is retracted,
//! never served.

use std::io::{Read as _, Write as _};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, OnceLock, Weak};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use parking_lot::{Condvar, Mutex};
use quaestor_common::{lock_rank, Error, Result, SystemClock};
use quaestor_core::{
    QuaestorServer, ReplRole, ReplicationStatus, Request, Response, ServerConfig, Service,
};
use quaestor_durability::{truncate_above, DurabilityConfig, DurabilityEngine};
use quaestor_net::wire::{decode_frame, encode_frame, FrameDecode, FrameKind};
use quaestor_net::NetServer;

use crate::epoch::{load_lineage, store_lineage};
use crate::protocol::{decode_batch, Ack, Hello, HelloAck, Lineage};

/// Connect timeout for replication sockets.
const CONNECT_TIMEOUT: Duration = Duration::from_secs(1);
/// How long either side waits for the handshake to complete.
const HANDSHAKE_TIMEOUT: Duration = Duration::from_secs(10);
/// How long the primary waits for a batch ack before declaring the
/// replica dead and closing the session (it will reconnect and resume).
const SESSION_ACK_TIMEOUT: Duration = Duration::from_secs(30);
/// Socket write timeout — a peer that cannot drain a batch in this long
/// is as good as gone.
const WRITE_TIMEOUT: Duration = Duration::from_secs(10);
/// Max WAL frames per shipped batch.
const BATCH_MAX: usize = 256;

/// Tunables for a [`ReplNode`].
#[derive(Debug, Clone, Copy)]
pub struct ReplConfig {
    /// Configuration for the embedded [`QuaestorServer`].
    pub server: ServerConfig,
    /// Durability configuration. The zero-acked-write-loss failover
    /// guarantee needs `FsyncPolicy::Always` (the default): a replica's
    /// ack covers exactly what it fsynced.
    pub durability: DurabilityConfig,
    /// Follower reconnect delay after a failed or dropped session.
    pub reconnect_backoff: Duration,
    /// Writes are acked only after this many replicas have durably
    /// acked the write's LSN (semi-synchronous replication). `0` (the
    /// default) acks on local durability alone — replication is then
    /// fully asynchronous and an acked-but-unshipped suffix dies with
    /// the primary.
    pub ack_replicas: usize,
    /// Max wait for the semi-sync gate before the write errors (the
    /// write is still applied and logged locally).
    pub ack_timeout: Duration,
}

impl Default for ReplConfig {
    fn default() -> ReplConfig {
        ReplConfig {
            server: ServerConfig::default(),
            durability: DurabilityConfig::default(),
            reconnect_backoff: Duration::from_millis(50),
            ack_replicas: 0,
            ack_timeout: Duration::from_secs(5),
        }
    }
}

fn net_err(context: &str, e: impl std::fmt::Display) -> Error {
    Error::Net(format!("replication: {context}: {e}"))
}

/// A replication connection: blocking frame reads against a deadline,
/// frame writes. Request ids are unused on replication connections (no
/// pipelining — one batch in flight), so every frame carries id 0.
struct FrameConn {
    sock: TcpStream,
    inbox: Vec<u8>,
}

impl FrameConn {
    fn new(sock: TcpStream) -> Result<FrameConn> {
        sock.set_nodelay(true)
            .map_err(|e| net_err("set_nodelay", e))?;
        sock.set_write_timeout(Some(WRITE_TIMEOUT))
            .map_err(|e| net_err("set_write_timeout", e))?;
        Ok(FrameConn {
            sock,
            inbox: Vec::new(),
        })
    }

    fn connect(addr: SocketAddr) -> Result<FrameConn> {
        FrameConn::new(
            TcpStream::connect_timeout(&addr, CONNECT_TIMEOUT)
                .map_err(|e| net_err("connect", e))?,
        )
    }

    fn send(&mut self, kind: FrameKind, body: &[u8]) -> Result<()> {
        let mut out = Vec::with_capacity(body.len() + 32);
        encode_frame(kind, 0, body, &mut out);
        self.sock.write_all(&out).map_err(|e| net_err("send", e))
    }

    /// Block until the next frame arrives and return its body; it must
    /// be of kind `want`. `deadline` bounds the wait (`None`: until the
    /// peer closes, or the socket is shut down to cut the wait).
    fn recv(&mut self, want: FrameKind, deadline: Option<Instant>) -> Result<Vec<u8>> {
        loop {
            match decode_frame(&self.inbox) {
                FrameDecode::Frame(f) if f.kind == want => {
                    let (body, size) = (f.body.to_vec(), f.size);
                    self.inbox.drain(..size);
                    return Ok(body);
                }
                FrameDecode::Frame(f) => {
                    return Err(net_err(
                        "protocol",
                        format!("expected {want:?}, got {:?}", f.kind),
                    ))
                }
                FrameDecode::Incomplete => {}
                FrameDecode::Corrupt(e) => return Err(net_err("frame", e)),
            }
            let timeout = match deadline {
                Some(d) => match d.checked_duration_since(Instant::now()) {
                    Some(left) if !left.is_zero() => Some(left),
                    _ => return Err(net_err("timeout", format!("waiting for {want:?}"))),
                },
                None => None,
            };
            self.sock
                .set_read_timeout(timeout)
                .map_err(|e| net_err("set_read_timeout", e))?;
            let mut buf = [0u8; 16 * 1024];
            match self.sock.read(&mut buf) {
                Ok(0) => return Err(net_err("recv", "peer closed")),
                Ok(n) => self.inbox.extend_from_slice(&buf[..n]),
                // Timed out (the next deadline check ends the wait) or
                // interrupted.
                Err(e)
                    if matches!(
                        e.kind(),
                        std::io::ErrorKind::WouldBlock
                            | std::io::ErrorKind::TimedOut
                            | std::io::ErrorKind::Interrupted
                    ) => {}
                Err(e) => return Err(net_err("recv", e)),
            }
        }
    }
}

/// Introduce this node's log to a primary and read where it must
/// resume: the one handshake, for `open_replica` and the follower.
fn handshake(conn: &mut FrameConn, hello: Hello) -> Result<HelloAck> {
    conn.send(FrameKind::ReplHello, &hello.encode())?;
    HelloAck::decode(&conn.recv(
        FrameKind::ReplHelloAck,
        Some(Instant::now() + HANDSHAKE_TIMEOUT),
    )?)
}

/// Role and epoch lineage, under one lock so promotion is atomic.
struct NodeRole {
    role: ReplRole,
    lineage: Lineage,
}

/// Primary-side state shared with one replica session thread.
struct SessionShared {
    /// A clone of the session socket, for shutdown-on-kill.
    sock: TcpStream,
    /// Highest LSN this replica has durably acked.
    acked: AtomicU64,
    /// Cleared when the session thread exits.
    alive: AtomicBool,
}

struct Session {
    shared: Arc<SessionShared>,
    handle: JoinHandle<()>,
}

/// The follower's link to its primary. The count of cuts (`kill`,
/// `promote`, `refollow`) shares its lock, so that a follower connecting
/// or backing off cannot miss one.
struct FollowLink {
    target: SocketAddr,
    /// A clone of the live session's socket, shut down to cut it.
    sock: Option<TcpStream>,
    cuts: u64,
}

/// The node's client endpoint and threads, taken apart by `kill`.
#[derive(Default)]
struct NodeThreads {
    net: Option<NetServer>,
    accept: Option<JoinHandle<()>>,
    follower: Option<JoinHandle<()>>,
}

/// Why a follower session ended.
enum FollowExit {
    /// Shutdown, promotion or divergence: stop following for good.
    Stop,
    /// Connection-level trouble: back off and reconnect.
    Retry,
}

/// A replication-aware node. See the module docs for the protocol.
pub struct ReplNode {
    dir: PathBuf,
    cfg: ReplConfig,
    server: Arc<QuaestorServer>,
    engine: Arc<DurabilityEngine>,
    role_state: Mutex<NodeRole>,
    shutdown: AtomicBool,
    /// Set when the follower found its live state on an abandoned
    /// timeline; the node must be reopened via
    /// [`open_replica`](Self::open_replica) to rejoin.
    diverged: AtomicBool,
    repl_addr: SocketAddr,
    client_addr: OnceLock<SocketAddr>,
    node_threads: Mutex<NodeThreads>,
    follow_link: Mutex<FollowLink>,
    /// Notified (under `follow_link`) on every cut: wakes the follower's
    /// reconnect backoff and the accept loop's error backoff.
    cut: Condvar,
    sessions: Mutex<Vec<Session>>,
    /// Notified (under `sessions`) on every replica ack and on `kill`:
    /// wakes semi-sync writers.
    acked: Condvar,
    /// Highest LSN applied to served state: the recovered log at open,
    /// then every frame the follower applies.
    applied_lsn: AtomicU64,
    /// Runs after a replicated batch is durable, before each of its
    /// frames is applied.
    #[cfg(test)]
    before_apply: OnceLock<Box<dyn Fn(u64) + Send + Sync>>,
}

impl std::fmt::Debug for ReplNode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let status = self.status();
        f.debug_struct("ReplNode")
            .field("dir", &self.dir)
            .field("status", &status)
            .finish()
    }
}

/// The `Service` handed to the embedded [`NetServer`]: a weak handle, so
/// the net server (owned by the node) does not create a strong reference
/// cycle through it.
struct NodeService(Weak<ReplNode>);

impl Service for NodeService {
    fn call(&self, req: Request) -> Result<Response> {
        match self.0.upgrade() {
            Some(node) => node.call(req),
            None => Err(Error::Closed("replication node is gone".into())),
        }
    }
}

impl ReplNode {
    /// Open (or re-open) a primary on `dir`: recover, adopt the
    /// persisted epoch lineage (bootstrapping epoch 1 on first open),
    /// serve clients on a loopback port, and accept replication
    /// sessions on another.
    pub fn open_primary(dir: impl AsRef<Path>, cfg: ReplConfig) -> Result<Arc<ReplNode>> {
        let dir = dir.as_ref().to_path_buf();
        let server =
            QuaestorServer::open_with(&dir, cfg.server, cfg.durability, SystemClock::shared())?;
        let engine = match server.durability() {
            Some(e) => e.clone(),
            None => return Err(Error::Internal("durable server has no engine".into())),
        };
        let mut lineage = load_lineage(&dir)?;
        if lineage.0.is_empty() {
            lineage = Lineage::bootstrap();
            store_lineage(&dir, &lineage)?;
        }
        Self::finish_open(dir, cfg, server, engine, ReplRole::Primary, lineage, None)
    }

    /// Open a replica on `dir`, following the primary's replication
    /// endpoint at `primary`.
    ///
    /// Before recovery serves anything, the node handshakes with the
    /// primary: if its persisted log carries a suffix from an abandoned
    /// epoch (it is a deposed primary rejoining), that suffix is
    /// truncated on disk *first*, then recovery rebuilds served state
    /// from what remains. An unreachable primary is not an error — the
    /// node opens with what it has and the follower thread keeps
    /// retrying.
    pub fn open_replica(
        dir: impl AsRef<Path>,
        primary: SocketAddr,
        cfg: ReplConfig,
    ) -> Result<Arc<ReplNode>> {
        let dir = dir.as_ref().to_path_buf();
        let mut lineage = load_lineage(&dir)?;
        let mut truncated = false;
        let (server, engine, lineage) = loop {
            let server = QuaestorServer::open_replica_with(
                &dir,
                cfg.server,
                cfg.durability,
                SystemClock::shared(),
            )?;
            let engine = match server.durability() {
                Some(e) => e.clone(),
                None => return Err(Error::Internal("durable server has no engine".into())),
            };
            let hello = Hello {
                epoch: lineage.current_epoch(),
                last_lsn: engine.last_lsn(),
            };
            match FrameConn::connect(primary).and_then(|mut conn| handshake(&mut conn, hello)) {
                Ok(ack) => {
                    if ack.resume_from < engine.last_lsn() {
                        if truncated {
                            return Err(Error::Internal(format!(
                                "replication: handshake still demands truncation to {} \
                                 after truncating (log at {})",
                                ack.resume_from,
                                engine.last_lsn()
                            )));
                        }
                        truncated = true;
                        lineage = ack.lineage;
                        let resume = ack.resume_from;
                        // Release the directory (engine lock) before
                        // rewriting the log, then re-open: recovery must
                        // never have seen the fenced suffix.
                        drop(engine);
                        drop(server);
                        truncate_above(&dir, resume)?;
                        store_lineage(&dir, &lineage)?;
                        continue;
                    }
                    store_lineage(&dir, &ack.lineage)?;
                    break (server, engine, ack.lineage);
                }
                // Unreachable primary: open with local state; the
                // follower thread will handshake when it can.
                Err(_) => break (server, engine, lineage),
            }
        };
        Self::finish_open(
            dir,
            cfg,
            server,
            engine,
            ReplRole::Replica,
            lineage,
            Some(primary),
        )
    }

    fn finish_open(
        dir: PathBuf,
        cfg: ReplConfig,
        server: Arc<QuaestorServer>,
        engine: Arc<DurabilityEngine>,
        role: ReplRole,
        lineage: Lineage,
        primary: Option<SocketAddr>,
    ) -> Result<Arc<ReplNode>> {
        let listener = TcpListener::bind("127.0.0.1:0").map_err(|e| net_err("bind repl", e))?;
        let repl_addr = listener
            .local_addr()
            .map_err(|e| net_err("local_addr", e))?;
        let applied_lsn = AtomicU64::new(engine.last_lsn());
        let node = Arc::new(ReplNode {
            dir,
            cfg,
            server,
            engine,
            role_state: Mutex::with_rank(
                NodeRole { role, lineage },
                lock_rank::REPL_NODE_ROLE.0,
                lock_rank::REPL_NODE_ROLE.1,
            ),
            shutdown: AtomicBool::new(false),
            diverged: AtomicBool::new(false),
            repl_addr,
            client_addr: OnceLock::new(),
            node_threads: Mutex::with_rank(
                NodeThreads::default(),
                lock_rank::REPL_THREADS.0,
                lock_rank::REPL_THREADS.1,
            ),
            follow_link: Mutex::with_rank(
                FollowLink {
                    target: primary.unwrap_or(repl_addr),
                    sock: None,
                    cuts: 0,
                },
                lock_rank::REPL_THREADS.0,
                lock_rank::REPL_THREADS.1,
            ),
            cut: Condvar::new(),
            sessions: Mutex::with_rank(
                Vec::new(),
                lock_rank::REPL_SESSIONS.0,
                lock_rank::REPL_SESSIONS.1,
            ),
            acked: Condvar::new(),
            applied_lsn,
            #[cfg(test)]
            before_apply: OnceLock::new(),
        });
        let net = NetServer::bind(
            "127.0.0.1:0",
            Arc::new(NodeService(Arc::downgrade(&node))) as Arc<dyn Service>,
        )?;
        let _ = node.client_addr.set(net.local_addr());
        node.node_threads.lock().net = Some(net);
        let accept_node = Arc::downgrade(&node);
        let accept = std::thread::Builder::new()
            .name(format!("qrepl-accept-{repl_addr}"))
            .spawn(move || accept_loop(listener, accept_node))
            .map_err(|e| net_err("spawn accept thread", e))?;
        node.node_threads.lock().accept = Some(accept);
        if primary.is_some() {
            let follower_node = Arc::downgrade(&node);
            let follower = std::thread::Builder::new()
                .name("qrepl-follower".into())
                .spawn(move || follower_loop(follower_node))
                .map_err(|e| net_err("spawn follower thread", e))?;
            node.node_threads.lock().follower = Some(follower);
        }
        Ok(node)
    }

    /// Address clients connect to (a `quaestor-net` endpoint; pair with
    /// `RemoteService`). Unspecified after [`kill`](Self::kill).
    pub fn client_addr(&self) -> SocketAddr {
        self.client_addr
            .get()
            .copied()
            .unwrap_or_else(|| SocketAddr::from(([127, 0, 0, 1], 0)))
    }

    /// Address replicas connect to for WAL shipping.
    pub fn repl_addr(&self) -> SocketAddr {
        self.repl_addr
    }

    /// The embedded server (direct in-process access for tests and the
    /// simulator; remote traffic goes through [`client_addr`](Self::client_addr)).
    pub fn server(&self) -> &Arc<QuaestorServer> {
        &self.server
    }

    /// This node's current role.
    pub fn role(&self) -> ReplRole {
        self.role_state.lock().role
    }

    /// True if the follower gave up because its live state sits on an
    /// abandoned timeline; rejoin via [`open_replica`](Self::open_replica).
    pub fn is_diverged(&self) -> bool {
        self.diverged.load(Ordering::Acquire)
    }

    /// Where this node stands in the replicated log.
    pub fn status(&self) -> ReplicationStatus {
        let (role, epoch) = {
            let rs = self.role_state.lock();
            (rs.role, rs.lineage.current_epoch())
        };
        let mut durable_lsn = self.engine.durable_lsn();
        if role == ReplRole::Replica {
            // The follower makes a batch durable before it applies it.
            durable_lsn = durable_lsn.min(self.applied_lsn.load(Ordering::Acquire));
        }
        ReplicationStatus {
            role,
            epoch,
            last_lsn: self.engine.last_lsn(),
            durable_lsn,
        }
    }

    /// Highest LSN durably acked by any connected replica session —
    /// `status().last_lsn - max_session_ack()` is the shipping lag.
    pub fn max_session_ack(&self) -> u64 {
        self.sessions
            .lock()
            .iter()
            .filter(|s| s.shared.alive.load(Ordering::Acquire))
            .map(|s| s.shared.acked.load(Ordering::Acquire))
            .max()
            .unwrap_or(0)
    }

    /// Promote this node to primary for `epoch` (which must exceed every
    /// epoch in its lineage): persist the new lineage entry, attach the
    /// durability sink so local writes continue the LSN sequence, and
    /// cut the follower session loose.
    pub fn promote(&self, epoch: u64) -> Result<ReplicationStatus> {
        {
            let mut rs = self.role_state.lock();
            let mut lineage = rs.lineage.clone();
            lineage.push(epoch, self.engine.last_lsn())?;
            store_lineage(&self.dir, &lineage)?;
            rs.lineage = lineage;
            rs.role = ReplRole::Primary;
            self.server.promote();
        }
        self.cut_follower(None);
        self.diverged.store(false, Ordering::Release);
        Ok(self.status())
    }

    /// Re-point this replica's follower at a different primary (after a
    /// failover promoted one of its peers). The current session is cut;
    /// the follower reconnects to `primary`, handshakes, and adopts the
    /// new epoch lineage. Errors on a primary — a primary follows no one.
    pub fn refollow(&self, primary: SocketAddr) -> Result<()> {
        if self.role() == ReplRole::Primary {
            return Err(Error::BadRequest(
                "refollow: this node is a primary; demote it by reopening as a replica".into(),
            ));
        }
        self.cut_follower(Some(primary));
        Ok(())
    }

    /// Cut the follower's session or backoff short (retargeting it, if
    /// asked), and wake the accept loop's error backoff.
    fn cut_follower(&self, target: Option<SocketAddr>) {
        let mut link = self.follow_link.lock();
        if let Some(target) = target {
            link.target = target;
        }
        link.cuts += 1;
        if let Some(sock) = link.sock.take() {
            let _ = sock.shutdown(Shutdown::Both);
        }
        drop(link);
        self.cut.notify_all();
    }

    /// Block until `deadline`, or until a cut after `seen`.
    fn pause(&self, seen: u64, deadline: Instant) {
        let mut link = self.follow_link.lock();
        while link.cuts == seen {
            if self.cut.wait_until(&mut link, deadline).timed_out() {
                return;
            }
        }
    }

    /// Abrupt stop: tear down the replication listener, every session,
    /// the client endpoint, and the follower. Served and durable state
    /// is left exactly as-is (this is the simulator's crash model); the
    /// directory can be re-opened afterwards.
    ///
    /// Replication stops first: by the time a client sees this node
    /// fail, it ships nothing more, so an election that client runs
    /// reads each replica's final log, and a replica that has not
    /// received a frame yet cannot receive it after losing that
    /// election (and diverge from the winner). Semi-sync writers are
    /// woken only then, so none answers before the sessions are gone,
    /// and none holds the client endpoint's shutdown up.
    ///
    /// `kill` is the node's teardown API and must be called explicitly:
    /// session and follower threads hold the node alive, so there is no
    /// useful `Drop`-based teardown.
    pub fn kill(&self) {
        self.shutdown.store(true, Ordering::SeqCst);
        // Take the threads out first, *then* stop them: the rank-88 guard
        // must not be held across `NetServer::shutdown`, which takes
        // `net.server.accept` (rank 65).
        let threads = std::mem::take(&mut *self.node_threads.lock());
        // Wake the follower, the accept loop's backoff and the sessions.
        self.cut_follower(None);
        self.engine.stop_tails();
        if let Some(handle) = threads.accept {
            // Wake the blocking accept with a throwaway connection (the
            // listener is loopback, so this only fails if the machine is
            // out of fds — then the thread leaks until process exit,
            // which beats deadlocking the caller).
            let woke = TcpStream::connect_timeout(&self.repl_addr, CONNECT_TIMEOUT).is_ok();
            if woke {
                join_not_self(handle);
            }
        }
        // The accept loop is gone, so no session starts after this.
        let sessions = std::mem::take(&mut *self.sessions.lock());
        for s in &sessions {
            let _ = s.shared.sock.shutdown(Shutdown::Both);
        }
        for s in sessions {
            join_not_self(s.handle);
        }
        self.acked.notify_all();
        if let Some(net) = threads.net {
            net.shutdown();
        }
        if let Some(handle) = threads.follower {
            join_not_self(handle);
        }
    }

    /// Record a replica's durable ack and wake the semi-sync writers.
    fn note_ack(&self, shared: &SessionShared, lsn: u64) {
        shared.acked.fetch_max(lsn, Ordering::AcqRel);
        // Ordered before or after each writer's check by the lock.
        drop(self.sessions.lock());
        self.acked.notify_all();
    }

    /// Block until `cfg.ack_replicas` replicas have durably acked `lsn`.
    fn wait_replicated(&self, lsn: u64) -> Result<()> {
        let deadline = Instant::now() + self.cfg.ack_timeout;
        let mut sessions = self.sessions.lock();
        loop {
            let acked = sessions
                .iter()
                .filter(|s| s.shared.acked.load(Ordering::Acquire) >= lsn)
                .count();
            if acked >= self.cfg.ack_replicas {
                return Ok(());
            }
            if self.shutdown.load(Ordering::SeqCst) {
                return Err(Error::Closed("replication: node stopping".into()));
            }
            if Instant::now() >= deadline {
                return Err(Error::Net(format!(
                    "replication: lsn {lsn} not durably acked by {} replica(s) within {:?} \
                     (the write is applied and logged locally)",
                    self.cfg.ack_replicas, self.cfg.ack_timeout
                )));
            }
            self.acked.wait_until(&mut sessions, deadline);
        }
    }
}

impl Service for ReplNode {
    fn call(&self, req: Request) -> Result<Response> {
        let req = match req {
            Request::ReplicationStatus => return Ok(Response::Replication(self.status())),
            Request::Promote { epoch } => return self.promote(epoch).map(Response::Replication),
            req => req,
        };
        let is_write = contains_write(&req);
        if is_write && self.role() == ReplRole::Replica {
            return Err(Error::BadRequest(
                "not primary: this node is a replica; writes must go to the replication primary"
                    .into(),
            ));
        }
        let resp = self.server.call(req)?;
        if is_write && self.cfg.ack_replicas > 0 {
            // Semi-sync gate: the client's ack then implies the write is
            // durable on enough replicas to survive losing this node. Its
            // frame may sit in the group-commit buffer: write it out.
            let lsn = self.engine.write_out()?;
            self.wait_replicated(lsn)?;
        }
        Ok(resp)
    }
}

/// True if `req` mutates state anywhere inside (batches recurse).
fn contains_write(req: &Request) -> bool {
    match req {
        Request::Batch(inner) => inner.iter().any(contains_write),
        _ => req.is_write(),
    }
}

/// Join a thread handle unless it is the current thread (a `Drop` on the
/// last `Arc` can run *on* a node thread; joining yourself deadlocks).
fn join_not_self(handle: JoinHandle<()>) {
    if handle.thread().id() != std::thread::current().id() {
        let _ = handle.join();
    }
}

/// Accept loop on the replication listener; one session thread per
/// replica connection. Holds only a weak node handle; `kill` wakes it
/// with a throwaway connection.
fn accept_loop(listener: TcpListener, node: Weak<ReplNode>) {
    // Same escalating EMFILE/accept-error policy as the client-facing
    // net server: pause, don't spin, when the box is starved of fds.
    let mut backoff = quaestor_net::AcceptBackoff::new();
    loop {
        let (sock, _peer) = match listener.accept() {
            Ok(pair) => pair,
            Err(_) => {
                let Some(n) = node.upgrade() else { return };
                let seen = n.follow_link.lock().cuts;
                if n.shutdown.load(Ordering::SeqCst) {
                    return;
                }
                n.pause(seen, Instant::now() + backoff.next_delay());
                continue;
            }
        };
        backoff.reset();
        let Some(n) = node.upgrade() else { return };
        if n.shutdown.load(Ordering::SeqCst) {
            let _ = sock.shutdown(Shutdown::Both);
            return;
        }
        let Ok(sock_clone) = sock.try_clone() else {
            continue;
        };
        let shared = Arc::new(SessionShared {
            sock: sock_clone,
            acked: AtomicU64::new(0),
            alive: AtomicBool::new(true),
        });
        let session_node = node.clone();
        let session_shared = shared.clone();
        let Ok(handle) = std::thread::Builder::new()
            .name("qrepl-session".into())
            .spawn(move || {
                if let Some(n) = session_node.upgrade() {
                    let _ = run_session(&n, sock, &session_shared);
                }
                session_shared.alive.store(false, Ordering::Release);
            })
        else {
            continue;
        };
        // Sweep finished sessions, then register the new one.
        let mut sessions = n.sessions.lock();
        let mut kept = Vec::with_capacity(sessions.len() + 1);
        for s in sessions.drain(..) {
            if s.shared.alive.load(Ordering::Acquire) {
                kept.push(s);
            } else {
                join_not_self(s.handle);
            }
        }
        kept.push(Session { shared, handle });
        *sessions = kept;
    }
}

/// Primary side of one replication session: handshake, then ship raw
/// WAL frames in batches, one in flight, advancing on the replica's
/// durable ack. A caught-up session blocks until the log writes a frame
/// out; `kill` stops it there.
fn run_session(node: &Arc<ReplNode>, sock: TcpStream, shared: &SessionShared) -> Result<()> {
    let mut conn = FrameConn::new(sock)?;
    let hello = Hello::decode(&conn.recv(
        FrameKind::ReplHello,
        Some(Instant::now() + HANDSHAKE_TIMEOUT),
    )?)?;
    let (resume, ack) = {
        let rs = node.role_state.lock();
        if rs.role != ReplRole::Primary {
            return Err(Error::BadRequest(
                "replication: this node is not the primary".into(),
            ));
        }
        let my_epoch = rs.lineage.current_epoch();
        if hello.epoch > my_epoch {
            // The replica has adopted a newer epoch than ours: *we* are
            // the deposed primary. Refuse the session rather than feed
            // it an abandoned timeline.
            return Err(Error::BadRequest(format!(
                "replication: peer epoch {} is newer than ours ({my_epoch}); \
                 this node must rejoin as a replica",
                hello.epoch
            )));
        }
        let resume = if hello.epoch == my_epoch {
            hello.last_lsn
        } else {
            // Stale peer: fence it at the start of the first epoch newer
            // than what it has adopted.
            rs.lineage
                .fence_for(hello.epoch)
                .unwrap_or(0)
                .min(hello.last_lsn)
        };
        (
            resume,
            HelloAck {
                lineage: rs.lineage.clone(),
                resume_from: resume,
            },
        )
    };
    conn.send(FrameKind::ReplHelloAck, &ack.encode())?;
    let lag = node.server.metrics().registry().gauge("repl.lag_frames");
    let mut tail = node.engine.tail(resume)?;
    let mut batch = Vec::new();
    loop {
        batch.clear();
        let last = node.engine.read_tail(&mut tail, BATCH_MAX, &mut batch)?;
        // Stitch shipping into the trace of the write that staged the
        // newest frame in this batch (parked at WAL-append time).
        let ship_span =
            quaestor_obs::adopt_span(quaestor_obs::take_handoff_below(last), "repl.ship");
        // The log's own bytes: `ReplFrames` bodies are on-disk frames.
        conn.send(FrameKind::ReplFrames, &batch)?;
        let ack_body = conn.recv(
            FrameKind::ReplAck,
            Some(Instant::now() + SESSION_ACK_TIMEOUT),
        )?;
        drop(ship_span);
        let a = Ack::decode(&ack_body)?;
        node.note_ack(shared, a.durable_lsn);
        lag.set(last.saturating_sub(a.durable_lsn));
    }
}

/// Replica-side follower: keep a session to the primary alive, replay
/// what it ships, reconnect with backoff when it drops. The target is
/// re-read every attempt so `refollow` takes effect on reconnect.
fn follower_loop(node: Weak<ReplNode>) {
    loop {
        let Some(n) = node.upgrade() else { return };
        let (target, seen) = {
            let link = n.follow_link.lock();
            (link.target, link.cuts)
        };
        if n.shutdown.load(Ordering::SeqCst) || n.role() == ReplRole::Primary {
            return;
        }
        match follow_once(&n, target, seen) {
            FollowExit::Stop => return,
            FollowExit::Retry => n.pause(seen, Instant::now() + n.cfg.reconnect_backoff),
        }
    }
}

/// One follower session against `primary`, unless a cut since `seen`
/// (read together with `primary`) makes it stale before it starts.
fn follow_once(node: &Arc<ReplNode>, primary: SocketAddr, seen: u64) -> FollowExit {
    let Ok(conn) = FrameConn::connect(primary) else {
        return FollowExit::Retry;
    };
    let Ok(sock) = conn.sock.try_clone() else {
        return FollowExit::Retry;
    };
    {
        let mut link = node.follow_link.lock();
        if link.cuts != seen {
            return FollowExit::Retry;
        }
        link.sock = Some(sock);
    }
    let exit = run_follow(node, conn).unwrap_or(FollowExit::Retry);
    node.follow_link.lock().sock = None;
    exit
}

fn run_follow(node: &Arc<ReplNode>, mut conn: FrameConn) -> Result<FollowExit> {
    let hello = Hello {
        epoch: node.role_state.lock().lineage.current_epoch(),
        last_lsn: node.engine.last_lsn(),
    };
    let ack = handshake(&mut conn, hello)?;
    if ack.resume_from < node.engine.last_lsn() {
        // Our live suffix sits on an abandoned timeline. Served state
        // already includes it and cannot be retracted in place — stop
        // following; rejoining goes through `open_replica`, which
        // truncates on disk before recovery.
        node.diverged.store(true, Ordering::Release);
        return Ok(FollowExit::Stop);
    }
    {
        let mut rs = node.role_state.lock();
        if rs.role == ReplRole::Primary {
            return Ok(FollowExit::Stop);
        }
        rs.lineage = ack.lineage.clone();
    }
    store_lineage(&node.dir, &ack.lineage)?;
    let batches = node.server.metrics().registry().counter("repl.batches");
    loop {
        // No deadline: an idle primary ships nothing for as long as it
        // likes; `kill`, `promote` and `refollow` cut the socket.
        let body = conn.recv(FrameKind::ReplFrames, None)?;
        if node.role() == ReplRole::Primary {
            return Ok(FollowExit::Stop);
        }
        // Every frame's CRC is checked and its record decoded before any
        // frame is staged: a bad frame refuses the whole batch.
        let frames = decode_batch(&body)?;
        // The LSN gate is the idempotency mechanism: a frame the log
        // refuses (duplicate delivery, reconnection re-send) must not be
        // applied either — version-keyed replay alone would resurrect a
        // record whose delete came later. A gap errors before anything is
        // staged, dropping the session; the reconnect handshake
        // re-synchronizes. The accepted frames are durable (one write,
        // one fsync) before the first of them is applied.
        for f in node.engine.append_replicated(&frames)? {
            #[cfg(test)]
            if let Some(hook) = node.before_apply.get() {
                hook(f.lsn);
            }
            node.server.apply_replicated(&f.record)?;
            node.applied_lsn.fetch_max(f.lsn, Ordering::AcqRel);
        }
        batches.inc();
        conn.send(
            FrameKind::ReplAck,
            &Ack {
                durable_lsn: node.engine.durable_lsn(),
            }
            .encode(),
        )?;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use quaestor_common::scratch_dir;
    use quaestor_core::ServiceExt;
    use quaestor_document::doc;
    use quaestor_durability::{FsyncPolicy, WalRecord};

    use crate::protocol::encode_batch;

    fn cfg() -> ReplConfig {
        ReplConfig {
            reconnect_backoff: Duration::from_millis(20),
            ..ReplConfig::default()
        }
    }

    fn wait_until(what: &str, mut cond: impl FnMut() -> bool) {
        let deadline = Instant::now() + Duration::from_secs(10);
        while !cond() {
            assert!(Instant::now() < deadline, "timed out waiting for {what}");
            std::thread::sleep(Duration::from_millis(5));
        }
    }

    fn caught_up(primary: &ReplNode, replica: &ReplNode) -> bool {
        replica.status().durable_lsn == primary.status().last_lsn
    }

    #[test]
    fn primary_ships_and_replica_serves_reads() {
        let pdir = scratch_dir("repl-ship-p");
        let rdir = scratch_dir("repl-ship-r");
        let primary = ReplNode::open_primary(&pdir, cfg()).unwrap();
        for i in 0..20 {
            primary
                .insert("posts", &format!("p{i}"), doc! { "n" => i })
                .unwrap();
        }
        primary.delete("posts", "p3").unwrap();
        let replica = ReplNode::open_replica(&rdir, primary.repl_addr(), cfg()).unwrap();
        wait_until("replica catch-up", || caught_up(&primary, &replica));
        // Reads on the replica see the replicated state...
        let rec = replica.get_record("posts", "p7").unwrap();
        assert_eq!(rec.doc["n"], quaestor_document::Value::Int(7));
        assert!(
            replica.get_record("posts", "p3").is_err(),
            "delete replicated"
        );
        // ...and new writes keep flowing.
        primary.insert("posts", "late", doc! { "n" => 99 }).unwrap();
        wait_until("late write", || replica.get_record("posts", "late").is_ok());
        // Roles and epochs are reported faithfully.
        let ps = primary.replication_status().unwrap();
        let rs = replica.replication_status().unwrap();
        assert_eq!(ps.role, ReplRole::Primary);
        assert_eq!(rs.role, ReplRole::Replica);
        assert_eq!(ps.epoch, 1);
        assert_eq!(rs.epoch, 1);
        // Writes on the replica are fenced with a recognizable error.
        match replica.insert("posts", "nope", doc! { "n" => 0 }) {
            Err(Error::BadRequest(msg)) => assert!(msg.contains("not primary"), "{msg}"),
            other => panic!("replica accepted a write: {other:?}"),
        }
        replica.kill();
        primary.kill();
    }

    #[test]
    fn a_replica_never_reports_durable_a_frame_it_does_not_serve_yet() {
        let pdir = scratch_dir("repl-applied-p");
        let rdir = scratch_dir("repl-applied-r");
        let primary = ReplNode::open_primary(&pdir, cfg()).unwrap();
        primary.insert("posts", "a", doc! { "n" => 1 }).unwrap();
        let replica = ReplNode::open_replica(&rdir, primary.repl_addr(), cfg()).unwrap();
        wait_until("replica catch-up", || caught_up(&primary, &replica));
        // Hold the follower after it appended (and, under
        // `FsyncPolicy::Always`, fsynced) the next frame, before it
        // applies that frame.
        let held = Arc::new((AtomicU64::new(0), AtomicBool::new(false)));
        let hook = held.clone();
        let installed = replica.before_apply.set(Box::new(move |lsn| {
            hook.0.store(lsn, Ordering::SeqCst);
            // Bounded, so a failing assertion below cannot wedge teardown.
            let until = Instant::now() + Duration::from_secs(10);
            while !hook.1.load(Ordering::SeqCst) && Instant::now() < until {
                std::thread::sleep(Duration::from_millis(1));
            }
        }));
        assert!(installed.is_ok());
        primary.insert("posts", "b", doc! { "n" => 2 }).unwrap();
        let lsn = primary.status().last_lsn;
        wait_until("the follower to hold the frame", || {
            held.0.load(Ordering::SeqCst) == lsn
        });
        assert!(replica.engine.durable_lsn() >= lsn, "the frame is durable");
        assert!(
            replica.get_record("posts", "b").is_err(),
            "and not yet served"
        );
        assert!(
            replica.status().durable_lsn < lsn,
            "a replica reported LSN {lsn} durable before serving it"
        );
        held.1.store(true, Ordering::SeqCst);
        wait_until("replica catch-up", || caught_up(&primary, &replica));
        assert_eq!(
            replica.get_record("posts", "b").unwrap().doc["n"],
            quaestor_document::Value::Int(2)
        );
        replica.kill();
        primary.kill();
    }

    #[test]
    fn semi_sync_write_waits_for_replica_ack() {
        let pdir = scratch_dir("repl-sync-p");
        let rdir = scratch_dir("repl-sync-r");
        let mut pc = cfg();
        pc.ack_replicas = 1;
        pc.ack_timeout = Duration::from_millis(300);
        let primary = ReplNode::open_primary(&pdir, pc).unwrap();
        // No replica connected: the write applies locally but the ack
        // times out with a recognizable error.
        match primary.insert("t", "a", doc! { "n" => 1 }) {
            Err(Error::Net(msg)) => assert!(msg.contains("not durably acked"), "{msg}"),
            other => panic!("unacked write should error: {other:?}"),
        }
        let replica = ReplNode::open_replica(&rdir, primary.repl_addr(), cfg()).unwrap();
        wait_until("replica catch-up", || caught_up(&primary, &replica));
        // With a live replica the gate opens.
        primary.insert("t", "b", doc! { "n" => 2 }).unwrap();
        assert!(
            replica.get_record("t", "b").is_ok(),
            "acked implies shipped"
        );
        replica.kill();
        primary.kill();
    }

    /// Satellite: duplicate frame delivery and out-of-order LSNs, driven
    /// through a scripted fake primary so the replica's real follower
    /// path handles them.
    #[test]
    fn replica_survives_duplicate_and_out_of_order_delivery() {
        let rdir = scratch_dir("repl-dup-r");
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();

        fn frames(range: std::ops::Range<u64>) -> Vec<(u64, WalRecord)> {
            range
                .map(|lsn| {
                    (
                        lsn,
                        WalRecord::Write {
                            table: "t".into(),
                            id: format!("r{lsn}"),
                            kind: quaestor_store::WriteKind::Insert,
                            image: doc! { "lsn" => lsn as i64 },
                            version: 1,
                            seq: lsn,
                            at: 0,
                        },
                    )
                })
                .collect()
        }

        let hellos = Arc::new(AtomicU64::new(0));
        let script_hellos = hellos.clone();
        let fake_primary = std::thread::spawn(move || {
            let mut last_acked = 0;
            // Serve two sessions: the replica's pre-open probe and the
            // follower's first session (which we poison with a gap), then
            // the follower's reconnect session.
            for session in 0..3 {
                let (sock, _) = listener.accept().unwrap();
                let mut conn = FrameConn::new(sock).unwrap();
                let deadline = || Some(Instant::now() + HANDSHAKE_TIMEOUT);
                let body = conn.recv(FrameKind::ReplHello, deadline()).unwrap();
                let hello = Hello::decode(&body).unwrap();
                script_hellos.fetch_add(1, Ordering::SeqCst);
                let ack = HelloAck {
                    lineage: Lineage::bootstrap(),
                    resume_from: hello.last_lsn,
                };
                conn.send(FrameKind::ReplHelloAck, &ack.encode()).unwrap();
                match session {
                    0 => {} // the probe disconnects after the handshake
                    1 => {
                        assert_eq!(hello.last_lsn, 0);
                        // Ship 1..=3, then the SAME batch again
                        // (duplicate delivery), then a gap (5 without 4).
                        conn.send(FrameKind::ReplFrames, &encode_batch(&frames(1..4)))
                            .unwrap();
                        let a = conn.recv(FrameKind::ReplAck, deadline()).unwrap();
                        assert_eq!(Ack::decode(&a).unwrap().durable_lsn, 3);
                        conn.send(FrameKind::ReplFrames, &encode_batch(&frames(1..4)))
                            .unwrap();
                        let a = conn.recv(FrameKind::ReplAck, deadline()).unwrap();
                        // Duplicates are refused by the LSN gate; the ack
                        // stands at 3 and nothing was re-applied.
                        assert_eq!(Ack::decode(&a).unwrap().durable_lsn, 3);
                        // Out-of-order: LSN 5 with 4 missing must drop
                        // the session (no ack), not corrupt the log.
                        conn.send(FrameKind::ReplFrames, &encode_batch(&frames(5..6)))
                            .unwrap();
                    }
                    _ => {
                        // Reconnect after the poisoned batch: the replica
                        // still stands at 3 and resyncs cleanly.
                        assert_eq!(hello.last_lsn, 3);
                        conn.send(FrameKind::ReplFrames, &encode_batch(&frames(4..6)))
                            .unwrap();
                        let a = conn.recv(FrameKind::ReplAck, deadline()).unwrap();
                        last_acked = Ack::decode(&a).unwrap().durable_lsn;
                    }
                }
            }
            last_acked
        });

        let replica = ReplNode::open_replica(&rdir, addr, cfg()).unwrap();
        wait_until("scripted session", || hellos.load(Ordering::SeqCst) >= 3);
        let last_acked = fake_primary.join().unwrap();
        assert_eq!(last_acked, 5);
        wait_until("all five records", || {
            (1..=5).all(|i| replica.get_record("t", &format!("r{i}")).is_ok())
        });
        assert_eq!(replica.status().last_lsn, 5);
        replica.kill();
    }

    /// A batch whose middle frame has a bad CRC, or whose frames skip an
    /// LSN, is refused whole: the replica's log and its served state both
    /// stay where the previous batch left them, and its next session
    /// resumes from there.
    #[test]
    fn a_batch_with_a_bad_middle_frame_leaves_log_and_served_state_agreeing() {
        let rdir = scratch_dir("repl-badmid-r");
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let batch = |range: std::ops::Range<u64>| {
            let frames: Vec<_> = range
                .map(|lsn| {
                    let record = WalRecord::CreateTable {
                        table: format!("t{lsn}"),
                    };
                    (lsn, record)
                })
                .collect();
            encode_batch(&frames)
        };
        // 4 and 6 with a corrupt 5 between them; then 4 and 6 alone.
        let mut corrupt = batch(5..6);
        let last = corrupt.len() - 1;
        corrupt[last] ^= 0x01;
        let bad_crc = [batch(4..5), corrupt, batch(6..7)].concat();
        let gapped = [batch(4..5), batch(6..7)].concat();

        let (refused, refused_rx) = std::sync::mpsc::channel::<u64>();
        let (go, go_rx) = std::sync::mpsc::channel::<()>();
        let fake_primary = std::thread::spawn(move || {
            let deadline = || Some(Instant::now() + HANDSHAKE_TIMEOUT);
            // The pre-open probe, three follower sessions: a good batch
            // then the bad-CRC batch, the gapped batch, a clean resend.
            for session in 0..4 {
                let (sock, _) = listener.accept().unwrap();
                let mut conn = FrameConn::new(sock).unwrap();
                let hello =
                    Hello::decode(&conn.recv(FrameKind::ReplHello, deadline()).unwrap()).unwrap();
                let ack = HelloAck {
                    lineage: Lineage::bootstrap(),
                    resume_from: hello.last_lsn,
                };
                conn.send(FrameKind::ReplHelloAck, &ack.encode()).unwrap();
                let poisoned = match session {
                    0 => continue,
                    1 => {
                        conn.send(FrameKind::ReplFrames, &batch(1..4)).unwrap();
                        let a = conn.recv(FrameKind::ReplAck, deadline()).unwrap();
                        assert_eq!(Ack::decode(&a).unwrap().durable_lsn, 3);
                        &bad_crc
                    }
                    2 => &gapped,
                    _ => {
                        conn.send(FrameKind::ReplFrames, &batch(4..7)).unwrap();
                        let a = conn.recv(FrameKind::ReplAck, deadline()).unwrap();
                        return (hello.last_lsn, Ack::decode(&a).unwrap().durable_lsn);
                    }
                };
                // The replica drops the session instead of acking.
                conn.send(FrameKind::ReplFrames, poisoned).unwrap();
                assert!(conn.recv(FrameKind::ReplAck, deadline()).is_err());
                refused.send(hello.last_lsn).unwrap();
                go_rx.recv().unwrap();
            }
            unreachable!("the last session returns")
        });

        let replica = ReplNode::open_replica(&rdir, addr, cfg()).unwrap();
        for (poisoned, began_at) in [("bad crc", 0), ("gap", 3)] {
            assert_eq!(refused_rx.recv().unwrap(), began_at, "{poisoned}");
            assert_eq!(replica.status().last_lsn, 3, "{poisoned}: nothing staged");
            assert_eq!(replica.engine.durable_lsn(), 3, "{poisoned}");
            let tables = replica.server().database().table_names();
            assert!(tables.contains(&"t3".to_string()), "{poisoned}");
            assert!(
                !tables.contains(&"t4".to_string()),
                "{poisoned}: 4 not served"
            );
            go.send(()).unwrap();
        }
        let (resumed_at, acked) = fake_primary.join().unwrap();
        assert_eq!((resumed_at, acked), (3, 6));
        wait_until("frames 4..=6 served", || {
            replica.server().database().table_names().len() == 6
        });
        assert_eq!(replica.status().durable_lsn, 6);
        replica.kill();
    }

    /// Counters scraped from `node` through `Request::Metrics` on its
    /// client endpoint.
    fn scrape(node: &ReplNode) -> quaestor_obs::MetricsSnapshot {
        quaestor_net::RemoteService::connect(
            node.client_addr(),
            quaestor_net::RemoteServiceConfig::default(),
        )
        .unwrap()
        .node_metrics()
        .unwrap()
    }

    /// The bytes of every WAL segment under a node directory, in LSN order.
    fn log_bytes(dir: &Path) -> Vec<u8> {
        quaestor_durability::wal::list_segments(&dir.join("wal"))
            .unwrap()
            .iter()
            .flat_map(|(_, path)| std::fs::read(path).unwrap())
            .collect()
    }

    /// A replica group-commits each shipped batch (one fsync each, read
    /// through `Request::Metrics`), a flush with nothing new costs none,
    /// and its log holds the primary's frames byte for byte.
    #[test]
    fn a_replica_fsyncs_once_per_batch_and_logs_the_primarys_bytes() {
        let pdir = scratch_dir("repl-gc-p");
        let rdir = scratch_dir("repl-gc-r");
        let primary = ReplNode::open_primary(&pdir, cfg()).unwrap();
        // A create-table frame and 599 inserts: batches of 256, 256, 88.
        for i in 0..599 {
            primary
                .insert("t", &format!("r{i}"), doc! { "n" => i })
                .unwrap();
        }
        let replica = ReplNode::open_replica(&rdir, primary.repl_addr(), cfg()).unwrap();
        // The replica acks a batch after it counted it.
        let acked = |lsn| primary.max_session_ack() == lsn;
        wait_until("replica catch-up", || acked(600));
        let m = scrape(&replica);
        assert_eq!(m.counter("repl.batches"), Some(3));
        assert_eq!(m.counter("durability.fsyncs"), Some(3), "one per batch");
        assert_eq!(m.counter("durability.frames_written"), Some(600));
        // One more write ships as one more batch, with one more fsync.
        primary.insert("t", "late", doc! { "n" => -1 }).unwrap();
        wait_until("late write", || acked(601));
        let remote = quaestor_net::RemoteService::connect(
            replica.client_addr(),
            quaestor_net::RemoteServiceConfig::default(),
        )
        .unwrap();
        assert_eq!(remote.flush().unwrap(), 601, "nothing new to flush");
        let m = scrape(&replica);
        assert_eq!(m.counter("repl.batches"), Some(4));
        assert_eq!(m.counter("durability.fsyncs"), Some(4));
        assert_eq!(log_bytes(&rdir), log_bytes(&pdir));
        replica.kill();
        primary.kill();
    }

    /// Satellite: a torn tail on the replica's *own* WAL (crash mid-ack)
    /// is truncated by recovery, and the handshake re-ships the cut
    /// frames — the replica converges instead of erroring.
    #[test]
    fn replica_recovers_from_torn_tail_on_its_own_wal() {
        let pdir = scratch_dir("repl-torn-p");
        let rdir = scratch_dir("repl-torn-r");
        let primary = ReplNode::open_primary(&pdir, cfg()).unwrap();
        for i in 0..10 {
            primary
                .insert("t", &format!("r{i}"), doc! { "n" => i })
                .unwrap();
        }
        let replica = ReplNode::open_replica(&rdir, primary.repl_addr(), cfg()).unwrap();
        wait_until("replica catch-up", || caught_up(&primary, &replica));
        replica.kill();
        drop(replica);
        // Tear the tail of the replica's newest WAL segment: chop a few
        // bytes off the last frame, as a crash mid-write would.
        let wal_dir = rdir.join("wal");
        let segs = quaestor_durability::wal::list_segments(&wal_dir).unwrap();
        let (_, last_seg) = segs.last().unwrap();
        let len = std::fs::metadata(last_seg).unwrap().len();
        let f = std::fs::OpenOptions::new()
            .write(true)
            .open(last_seg)
            .unwrap();
        f.set_len(len - 5).unwrap();
        drop(f);
        // Reopen: recovery truncates the torn frame, the handshake
        // reports the shorter log, and the primary re-ships the rest.
        let replica = ReplNode::open_replica(&rdir, primary.repl_addr(), cfg()).unwrap();
        wait_until("re-converged", || caught_up(&primary, &replica));
        for i in 0..10 {
            assert!(replica.get_record("t", &format!("r{i}")).is_ok(), "r{i}");
        }
        replica.kill();
        primary.kill();
    }

    /// Satellite + tentpole: the deposed primary rejoins as a replica
    /// and its unreplicated suffix is fenced off (truncated), while the
    /// new primary's post-promotion writes replace it.
    #[test]
    fn rejoining_old_primary_truncates_unreplicated_suffix() {
        let adir = scratch_dir("repl-fence-a");
        let bdir = scratch_dir("repl-fence-b");
        let a = ReplNode::open_primary(&adir, cfg()).unwrap();
        for i in 0..5 {
            a.insert("t", &format!("shared{i}"), doc! { "n" => i })
                .unwrap();
        }
        let b = ReplNode::open_replica(&bdir, a.repl_addr(), cfg()).unwrap();
        wait_until("b catch-up", || caught_up(&a, &b));
        let replicated_lsn = b.status().durable_lsn;
        // Partition: b stops hearing from a; a keeps acking writes that
        // never replicate (the async-replication hazard).
        b.kill();
        drop(b);
        for i in 0..3 {
            a.insert("t", &format!("lost{i}"), doc! { "n" => i })
                .unwrap();
        }
        let a_suffix_lsn = a.status().last_lsn;
        assert!(a_suffix_lsn > replicated_lsn);
        a.kill();
        drop(a);
        // Failover: b comes back (its primary is gone) and is promoted.
        let b = ReplNode::open_replica(&bdir, "127.0.0.1:9".parse().unwrap(), cfg()).unwrap();
        b.promote(2).unwrap();
        assert_eq!(b.role(), ReplRole::Primary);
        for i in 0..4 {
            b.insert("t", &format!("new{i}"), doc! { "n" => i })
                .unwrap();
        }
        // The deposed primary rejoins as a replica: the pre-open
        // handshake fences it at epoch 2's start, truncating `lost*`.
        let a = ReplNode::open_replica(&adir, b.repl_addr(), cfg()).unwrap();
        wait_until("a re-catch-up", || caught_up(&b, &a));
        let st = a.replication_status().unwrap();
        assert_eq!(st.role, ReplRole::Replica);
        assert_eq!(st.epoch, 2, "adopted the new epoch");
        for i in 0..5 {
            assert!(
                a.get_record("t", &format!("shared{i}")).is_ok(),
                "shared{i}"
            );
        }
        for i in 0..4 {
            assert!(a.get_record("t", &format!("new{i}")).is_ok(), "new{i}");
        }
        for i in 0..3 {
            assert!(
                a.get_record("t", &format!("lost{i}")).is_err(),
                "lost{i} must be fenced off with the abandoned timeline"
            );
        }
        assert!(!a.is_diverged());
        a.kill();
        b.kill();
    }

    /// A semi-sync write under `durability` must ack within a short
    /// `ack_timeout`, though its frame would sit in the group-commit
    /// buffer until more writes filled it.
    fn semi_sync_acks_under(tag: &str, durability: DurabilityConfig) {
        let node_cfg = ReplConfig {
            durability,
            ..cfg()
        };
        let primary = ReplNode::open_primary(
            scratch_dir(&format!("repl-{tag}-p")),
            ReplConfig {
                ack_replicas: 1,
                ack_timeout: Duration::from_secs(2),
                ..node_cfg
            },
        )
        .unwrap();
        let replica = ReplNode::open_replica(
            scratch_dir(&format!("repl-{tag}-r")),
            primary.repl_addr(),
            node_cfg,
        )
        .unwrap();
        for i in 0..3 {
            let id = format!("r{i}");
            let started = Instant::now();
            if let Err(e) = primary.insert("t", &id, doc! { "n" => i }) {
                panic!("semi-sync write {i} under {durability:?} was not acked: {e}");
            }
            // Woken by the ack, not by the gate's deadline.
            let took = started.elapsed();
            assert!(
                took < Duration::from_secs(1),
                "semi-sync write {i} took {took:?}"
            );
            assert!(
                replica.get_record("t", &id).is_ok(),
                "acked implies shipped"
            );
        }
        replica.kill();
        primary.kill();
    }

    #[test]
    fn semi_sync_write_acks_under_os_default_with_the_default_group_commit() {
        semi_sync_acks_under(
            "osdefault",
            DurabilityConfig {
                fsync: FsyncPolicy::OsDefault,
                ..DurabilityConfig::default()
            },
        );
    }

    #[test]
    fn semi_sync_write_acks_under_every_n_with_a_group_of_64() {
        semi_sync_acks_under(
            "everyn",
            DurabilityConfig {
                fsync: FsyncPolicy::EveryN(8),
                group_commit: 64,
                ..DurabilityConfig::default()
            },
        );
    }

    /// `kill` returns within `bound`: run on a helper thread, so a wait
    /// nothing wakes fails the test instead of hanging it.
    fn kill_within(node: &Arc<ReplNode>, bound: Duration) {
        let (done, killed) = std::sync::mpsc::channel();
        let node = node.clone();
        std::thread::spawn(move || {
            node.kill();
            let _ = done.send(());
        });
        assert!(
            killed.recv_timeout(bound).is_ok(),
            "kill did not return within {bound:?}"
        );
    }

    /// `kill` wakes every wait: a caught-up session blocked on the log, a
    /// semi-sync writer blocked on acks that cannot come, and a follower
    /// in a long reconnect backoff.
    #[test]
    fn kill_wakes_every_wait() {
        let primary = ReplNode::open_primary(
            scratch_dir("repl-wake-p"),
            ReplConfig {
                ack_replicas: 2,
                ack_timeout: Duration::from_secs(60),
                ..cfg()
            },
        )
        .unwrap();
        let replica =
            ReplNode::open_replica(scratch_dir("repl-wake-r"), primary.repl_addr(), cfg()).unwrap();
        let writer = {
            let primary = primary.clone();
            std::thread::spawn(move || primary.insert("t", "a", doc! { "n" => 1 }))
        };
        wait_until("the replica to ack the write", || {
            primary.server().get_record("t", "a").is_ok()
                && primary.max_session_ack() == primary.status().last_lsn
        });
        kill_within(&primary, Duration::from_secs(5));
        match writer.join().unwrap() {
            Err(Error::Closed(_)) => {}
            other => panic!("a killed node's semi-sync writer must see Closed: {other:?}"),
        }
        replica.kill();
        // A follower whose primary is gone waits out its backoff; `kill`
        // cuts it short.
        let orphan = ReplNode::open_replica(
            scratch_dir("repl-wake-o"),
            "127.0.0.1:9".parse().unwrap(),
            ReplConfig {
                reconnect_backoff: Duration::from_secs(60),
                ..cfg()
            },
        )
        .unwrap();
        std::thread::sleep(Duration::from_millis(50));
        kill_within(&orphan, Duration::from_secs(5));
    }

    #[test]
    fn lag_gauge_is_scraped_per_node() {
        let shipping = ReplNode::open_primary(scratch_dir("repl-lag-a"), cfg()).unwrap();
        let alone = ReplNode::open_primary(scratch_dir("repl-lag-b"), cfg()).unwrap();
        let replica =
            ReplNode::open_replica(scratch_dir("repl-lag-r"), shipping.repl_addr(), cfg()).unwrap();
        shipping.insert("t", "a", doc! { "n" => 1 }).unwrap();
        alone.insert("t", "a", doc! { "n" => 1 }).unwrap();
        wait_until("replica catch-up", || caught_up(&shipping, &replica));
        assert!(scrape(&shipping).gauge("repl.lag_frames").is_some());
        assert_eq!(scrape(&alone).gauge("repl.lag_frames"), None);
        replica.kill();
        alone.kill();
        shipping.kill();
    }

    #[test]
    fn promote_refuses_stale_epochs() {
        let dir = scratch_dir("repl-promote");
        let primary = ReplNode::open_primary(&dir, cfg()).unwrap();
        assert!(primary.promote(1).is_err(), "epoch 1 is already taken");
        let st = primary.promote(3).unwrap();
        assert_eq!(st.epoch, 3);
        assert!(primary.promote(2).is_err(), "epochs only move forward");
        primary.kill();
    }

    #[test]
    fn batch_write_is_fenced_on_replicas_and_replication_status_flows_remotely() {
        let pdir = scratch_dir("repl-remote-p");
        let primary = ReplNode::open_primary(&pdir, cfg()).unwrap();
        // Remote access through the embedded net endpoint.
        let remote = quaestor_net::RemoteService::connect(
            primary.client_addr(),
            quaestor_net::RemoteServiceConfig::default(),
        )
        .unwrap();
        let st = remote.replication_status().unwrap();
        assert_eq!(st.role, ReplRole::Primary);
        drop(remote);
        primary.kill();
        // A nested write inside a batch is still recognized as a write.
        let rdir = scratch_dir("repl-remote-r");
        let replica = ReplNode::open_replica(&rdir, "127.0.0.1:9".parse().unwrap(), cfg()).unwrap();
        let nested = Request::Batch(vec![Request::Batch(vec![Request::Insert {
            table: "t".into(),
            id: "x".into(),
            doc: doc! { "n" => 1 },
        }])]);
        assert!(matches!(replica.call(nested), Err(Error::BadRequest(_))));
        let read_batch = Request::Batch(vec![Request::GetRecord {
            table: "t".into(),
            id: "missing".into(),
        }]);
        // A read-only batch passes the fence (and fails only per-op).
        assert!(matches!(replica.call(read_batch), Ok(Response::Batch(_))));
        replica.kill();
    }
}
