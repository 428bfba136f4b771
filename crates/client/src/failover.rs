//! Client-side replication router: primary-aware request routing with
//! automatic failover.
//!
//! [`ReplicatedService`] fronts a fixed set of [`Service`] endpoints — one
//! replication group — and routes:
//!
//! * **writes** (and other primary-only requests) to the endpoint it
//!   believes is the primary;
//! * **reads** round-robin across *all* endpoints, skipping dead ones
//!   without waiting for them to come back, so reads keep flowing while
//!   the primary is down. A replica's answer may lag by its replication
//!   lag, which the EBF bounds exactly like any other cache age —
//!   bounded staleness is the contract reads already have.
//!
//! ## Failover
//!
//! When a write fails in a way that implicates the primary (transport
//! error, or the endpoint answers "not primary" because it was demoted),
//! the router runs an election: it probes every endpoint's
//! `ReplicationStatus` (an endpoint it cannot reach is counted dead at
//! once, not waited for), and among the live replicas picks the highest
//! `(epoch, last_lsn)` — a replica's log end is always fsynced, so that
//! is the node that durably holds everything any acked write could have
//! reached (with `ack_replicas >= 1` on the primary, that is *every*
//! acked write). If no live node is already primary, the winner is
//! promoted with an epoch one above the highest epoch observed, writes
//! re-point to it, and the request is retried once. The deposed primary is fenced when it rejoins: it re-enters as a
//! replica and its unreplicated WAL suffix is truncated by the handshake
//! (see `quaestor-repl`'s `Lineage`).

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use parking_lot::Mutex;
use quaestor_common::{lock_rank, Error, Result};
use quaestor_core::{ReplRole, ReplicationStatus, Request, Response, Service, ServiceExt};
use quaestor_obs::Counter;

/// True if `req` mutates state anywhere inside (batches recurse).
fn contains_write(req: &Request) -> bool {
    match req {
        Request::Batch(reqs) => reqs.iter().any(contains_write),
        other => other.is_write(),
    }
}

/// True if `req` must be answered by the primary even though it does not
/// mutate table state.
fn primary_only(req: &Request) -> bool {
    matches!(
        req,
        Request::Flush | Request::Promote { .. } | Request::Subscribe { .. }
    )
}

/// An endpoint's replication status, failing at once if it cannot be
/// reached: an election does not wait for a dead node to come back.
fn probe(endpoint: &dyn Service) -> Result<ReplicationStatus> {
    match endpoint.call_if_reachable(Request::ReplicationStatus)? {
        Response::Replication(st) => Ok(st),
        other => Err(Error::Net(format!(
            "failover probe: expected a replication status, got {other:?}"
        ))),
    }
}

/// Did this error implicate the *endpoint* rather than the request?
/// Transport failures and demotion fences are grounds for failover;
/// application errors (`NotFound`, `VersionMismatch`, ...) are answers.
fn implicates_endpoint(e: &Error) -> bool {
    match e {
        Error::Net(_) | Error::Closed(_) | Error::Io(_) => true,
        Error::BadRequest(msg) => msg.contains("not primary"),
        _ => false,
    }
}

/// Router state: which endpoint writes go to.
struct RouterState {
    /// Index into `endpoints` of the believed primary.
    primary: usize,
}

/// A [`Service`] that fronts one replication group. See the module docs.
pub struct ReplicatedService {
    endpoints: Vec<Arc<dyn Service>>,
    /// Serializes elections. Two concurrent probe-and-promote passes can
    /// crown two primaries when one's probe of the true winner fails
    /// transiently (a timeout under load) — with a single primary-less
    /// group left behind, every semi-sync write then times out. Held
    /// across endpoint probes, so it ranks below the net client locks.
    election: Mutex<()>,
    route: Mutex<RouterState>,
    /// Round-robin read cursor (relaxed; it only spreads load).
    cursor: AtomicU64,
    /// How many failovers this router has executed.
    failovers: Counter,
}

impl std::fmt::Debug for ReplicatedService {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ReplicatedService")
            .field("endpoints", &self.endpoints.len())
            .field("primary", &self.route.lock().primary)
            .field("failovers", &self.failovers.get())
            .finish()
    }
}

impl ReplicatedService {
    /// Build a router over `endpoints`, probing each for its role to find
    /// the current primary. If none answers as primary (all down, or all
    /// replicas mid-failover), writes start at endpoint 0 and the first
    /// write failure triggers an election.
    pub fn new(endpoints: Vec<Arc<dyn Service>>) -> Result<Arc<ReplicatedService>> {
        if endpoints.is_empty() {
            return Err(Error::BadRequest(
                "ReplicatedService needs at least one endpoint".into(),
            ));
        }
        let primary = endpoints
            .iter()
            .position(|ep| {
                matches!(
                    ep.replication_status(),
                    Ok(st) if st.role == ReplRole::Primary || st.role == ReplRole::Standalone
                )
            })
            .unwrap_or(0);
        Ok(Arc::new(ReplicatedService {
            endpoints,
            election: Mutex::with_rank(
                (),
                lock_rank::CLIENT_FAILOVER_ELECTION.0,
                lock_rank::CLIENT_FAILOVER_ELECTION.1,
            ),
            route: Mutex::with_rank(
                RouterState { primary },
                lock_rank::CLIENT_FAILOVER_ROUTER.0,
                lock_rank::CLIENT_FAILOVER_ROUTER.1,
            ),
            cursor: AtomicU64::new(0),
            failovers: Counter::default(),
        }))
    }

    /// Index of the endpoint writes currently go to.
    pub fn primary_index(&self) -> usize {
        self.route.lock().primary
    }

    /// How many failovers this router has executed.
    pub fn failover_count(&self) -> u64 {
        self.failovers.get()
    }

    /// Probe the believed primary. `Ok` means it is reachable *and* still
    /// answers as primary; any other outcome is a reason to
    /// [`fail_over`](Self::fail_over).
    pub fn health_check(&self) -> Result<ReplicationStatus> {
        let primary = self.route.lock().primary;
        let st = self.endpoints[primary].replication_status()?;
        if st.role == ReplRole::Replica {
            return Err(Error::Net(format!(
                "endpoint {primary} was demoted to replica (epoch {})",
                st.epoch
            )));
        }
        Ok(st)
    }

    /// Run the election: probe every endpoint, pick the live primary
    /// with the highest `(epoch, durable_lsn)` or, if there is none, the
    /// live replica with the highest `(epoch, last_lsn)`, promote it if
    /// it is not already primary, and re-point writes. Returns the new
    /// primary's endpoint index.
    pub fn fail_over(&self) -> Result<usize> {
        let _one_at_a_time = self.election.lock();
        // An election that finished while we waited for the guard may
        // already have re-pointed writes: if the believed primary now
        // answers healthy, adopt it instead of electing again.
        let believed = self.route.lock().primary;
        if let Ok(st) = probe(&*self.endpoints[believed]) {
            if st.role == ReplRole::Primary || st.role == ReplRole::Standalone {
                return Ok(believed);
            }
        }
        let statuses: Vec<(usize, ReplicationStatus)> = self
            .endpoints
            .iter()
            .enumerate()
            .filter_map(|(i, ep)| probe(&**ep).ok().map(|st| (i, st)))
            .collect();
        // An existing live primary wins outright — promoting a second one
        // would fork the timeline. Replicas rank by their log's end, which
        // is fsynced before any of it is applied: their `durable_lsn`
        // also waits for the apply, and would rank a replica that is
        // applying a batch below a shorter log.
        let winner = statuses
            .iter()
            .filter(|(_, st)| st.role == ReplRole::Primary || st.role == ReplRole::Standalone)
            .max_by_key(|(_, st)| (st.epoch, st.durable_lsn))
            .or_else(|| {
                statuses
                    .iter()
                    .max_by_key(|(_, st)| (st.epoch, st.last_lsn))
            });
        let Some(&(index, st)) = winner else {
            return Err(Error::Net(
                "failover: no replication endpoint is reachable".into(),
            ));
        };
        if st.role == ReplRole::Replica {
            let max_epoch = statuses.iter().map(|(_, s)| s.epoch).max().unwrap_or(0);
            self.endpoints[index].promote(max_epoch + 1)?;
        }
        self.route.lock().primary = index;
        self.failovers.inc();
        Ok(index)
    }

    /// Route a primary-only request, failing over and retrying once if
    /// the primary is implicated in the failure.
    fn call_primary(&self, req: Request) -> Result<Response> {
        let primary = self.route.lock().primary;
        match self.endpoints[primary].call(req.clone()) {
            Err(e) if implicates_endpoint(&e) => {
                let next = self.fail_over()?;
                self.endpoints[next].call(req)
            }
            other => other,
        }
    }

    /// Route a read: try every endpoint once, starting at the round-robin
    /// cursor. Transport failures rotate to the next endpoint, and an
    /// endpoint that cannot be reached is skipped without waiting for it
    /// (only the last one tried may wait); an application-level error is
    /// an answer and returns immediately.
    fn call_read(&self, req: Request) -> Result<Response> {
        let n = self.endpoints.len();
        let start = self.cursor.fetch_add(1, Ordering::Relaxed) as usize;
        let mut last_err = None;
        for k in 0..n {
            let endpoint = &self.endpoints[(start + k) % n];
            let reply = if k + 1 < n {
                endpoint.call_if_reachable(req.clone())
            } else {
                endpoint.call(req.clone())
            };
            match reply {
                Err(e) if implicates_endpoint(&e) => last_err = Some(e),
                other => return other,
            }
        }
        Err(last_err.unwrap_or_else(|| Error::Net("no replication endpoint is reachable".into())))
    }
}

impl Service for ReplicatedService {
    fn call(&self, req: Request) -> Result<Response> {
        if contains_write(&req) || primary_only(&req) {
            self.call_primary(req)
        } else {
            self.call_read(req)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicBool;

    /// A scriptable endpoint: a role flag, a durable LSN (the log's end),
    /// how many of its frames are not applied yet, a liveness switch, and
    /// counters for how it was used.
    struct FakeNode {
        name: &'static str,
        role: Mutex<ReplRole>,
        epoch: AtomicU64,
        durable_lsn: AtomicU64,
        unapplied: AtomicU64,
        alive: AtomicBool,
        writes: AtomicU64,
        reads: AtomicU64,
        /// Calls that, dead, would wait out a reconnect backoff.
        waited: AtomicU64,
    }

    impl FakeNode {
        fn new(name: &'static str, role: ReplRole, epoch: u64, lsn: u64) -> Arc<FakeNode> {
            Arc::new(FakeNode {
                name,
                role: Mutex::new(role),
                epoch: AtomicU64::new(epoch),
                durable_lsn: AtomicU64::new(lsn),
                unapplied: AtomicU64::new(0),
                alive: AtomicBool::new(true),
                writes: AtomicU64::new(0),
                reads: AtomicU64::new(0),
                waited: AtomicU64::new(0),
            })
        }

        fn status(&self) -> ReplicationStatus {
            let lsn = self.durable_lsn.load(Ordering::SeqCst);
            ReplicationStatus {
                role: *self.role.lock(),
                epoch: self.epoch.load(Ordering::SeqCst),
                last_lsn: lsn,
                durable_lsn: lsn - self.unapplied.load(Ordering::SeqCst),
            }
        }
    }

    impl Service for FakeNode {
        fn call(&self, req: Request) -> Result<Response> {
            if !self.alive.load(Ordering::SeqCst) {
                self.waited.fetch_add(1, Ordering::SeqCst);
            }
            self.call_if_reachable(req)
        }

        fn call_if_reachable(&self, req: Request) -> Result<Response> {
            if !self.alive.load(Ordering::SeqCst) {
                return Err(Error::Net(format!("{}: connection refused", self.name)));
            }
            match req {
                Request::ReplicationStatus => Ok(Response::Replication(self.status())),
                Request::Promote { epoch } => {
                    *self.role.lock() = ReplRole::Primary;
                    self.epoch.store(epoch, Ordering::SeqCst);
                    Ok(Response::Replication(self.status()))
                }
                req if req.is_write() => {
                    if *self.role.lock() != ReplRole::Primary {
                        return Err(Error::BadRequest(format!(
                            "not primary: {} is a replica",
                            self.name
                        )));
                    }
                    self.writes.fetch_add(1, Ordering::SeqCst);
                    let v = self.durable_lsn.fetch_add(1, Ordering::SeqCst) + 1;
                    Ok(Response::Written {
                        version: v,
                        image: Arc::new(quaestor_document::Document::default()),
                    })
                }
                _ => {
                    self.reads.fetch_add(1, Ordering::SeqCst);
                    Ok(Response::Flushed { lsn: 0 })
                }
            }
        }
    }

    fn insert(i: u64) -> Request {
        Request::Insert {
            table: "t".into(),
            id: format!("k{i}"),
            doc: quaestor_document::Document::default(),
        }
    }

    fn read() -> Request {
        Request::GetRecord {
            table: "t".into(),
            id: "k0".into(),
        }
    }

    #[test]
    fn probes_for_the_primary_and_routes_writes_to_it() {
        let a = FakeNode::new("a", ReplRole::Replica, 1, 10);
        let b = FakeNode::new("b", ReplRole::Primary, 1, 10);
        let router = ReplicatedService::new(vec![a.clone(), b.clone()]).unwrap();
        assert_eq!(router.primary_index(), 1);
        router.call(insert(1)).unwrap();
        assert_eq!(b.writes.load(Ordering::SeqCst), 1);
        assert_eq!(a.writes.load(Ordering::SeqCst), 0);
    }

    #[test]
    fn reads_round_robin_and_skip_dead_endpoints() {
        let a = FakeNode::new("a", ReplRole::Primary, 1, 10);
        let b = FakeNode::new("b", ReplRole::Replica, 1, 10);
        let c = FakeNode::new("c", ReplRole::Replica, 1, 10);
        let router = ReplicatedService::new(vec![a.clone(), b.clone(), c.clone()]).unwrap();
        for _ in 0..6 {
            router.call(read()).unwrap();
        }
        assert_eq!(a.reads.load(Ordering::SeqCst), 2);
        assert_eq!(b.reads.load(Ordering::SeqCst), 2);
        assert_eq!(c.reads.load(Ordering::SeqCst), 2);
        // Reads keep flowing when the primary dies — the whole point.
        a.alive.store(false, Ordering::SeqCst);
        for _ in 0..6 {
            router.call(read()).unwrap();
        }
        assert_eq!(a.reads.load(Ordering::SeqCst), 2);
        assert_eq!(
            b.reads.load(Ordering::SeqCst) + c.reads.load(Ordering::SeqCst),
            10
        );
    }

    #[test]
    fn write_failure_elects_highest_durable_lsn_and_retries() {
        let a = FakeNode::new("a", ReplRole::Primary, 1, 20);
        let behind = FakeNode::new("behind", ReplRole::Replica, 1, 15);
        let ahead = FakeNode::new("ahead", ReplRole::Replica, 1, 20);
        let router =
            ReplicatedService::new(vec![a.clone(), behind.clone(), ahead.clone()]).unwrap();
        a.alive.store(false, Ordering::SeqCst);
        // The write fails over transparently: election promotes the
        // replica with the highest durable LSN at epoch max+1.
        router.call(insert(1)).unwrap();
        assert_eq!(router.primary_index(), 2);
        assert_eq!(router.failover_count(), 1);
        assert_eq!(*ahead.role.lock(), ReplRole::Primary);
        assert_eq!(ahead.epoch.load(Ordering::SeqCst), 2);
        assert_eq!(ahead.writes.load(Ordering::SeqCst), 1);
        assert_eq!(*behind.role.lock(), ReplRole::Replica);
        // Subsequent writes go straight to the new primary.
        router.call(insert(2)).unwrap();
        assert_eq!(ahead.writes.load(Ordering::SeqCst), 2);
    }

    #[test]
    fn election_ranks_replicas_by_their_fsynced_log_end() {
        let a = FakeNode::new("a", ReplRole::Primary, 1, 20);
        let shorter = FakeNode::new("shorter", ReplRole::Replica, 1, 18);
        let applying = FakeNode::new("applying", ReplRole::Replica, 1, 20);
        // `applying` holds frames 1..=20 fsynced and serves up to 12.
        applying.unapplied.store(8, Ordering::SeqCst);
        let router =
            ReplicatedService::new(vec![a.clone(), shorter.clone(), applying.clone()]).unwrap();
        a.alive.store(false, Ordering::SeqCst);
        router.call(insert(1)).unwrap();
        assert_eq!(router.primary_index(), 2, "the longer log wins");
        assert_eq!(*shorter.role.lock(), ReplRole::Replica);
    }

    #[test]
    fn probes_and_reads_do_not_wait_for_a_dead_endpoint() {
        let a = FakeNode::new("a", ReplRole::Primary, 1, 6);
        let b = FakeNode::new("b", ReplRole::Replica, 1, 6);
        let c = FakeNode::new("c", ReplRole::Replica, 1, 5);
        let router = ReplicatedService::new(vec![a.clone(), b.clone(), c.clone()]).unwrap();
        a.alive.store(false, Ordering::SeqCst);
        // The write to the dead primary waits; its election's probes of
        // `a` do not.
        router.call(insert(1)).unwrap();
        assert_eq!(router.primary_index(), 1);
        assert_eq!(a.waited.load(Ordering::SeqCst), 1);
        // Reads that start at `a` skip it at once.
        for _ in 0..6 {
            router.call(read()).unwrap();
        }
        assert_eq!(a.waited.load(Ordering::SeqCst), 1);
        // With nowhere else to go, the last endpoint tried may wait.
        b.alive.store(false, Ordering::SeqCst);
        c.alive.store(false, Ordering::SeqCst);
        assert!(router.call(read()).is_err());
        assert_eq!(
            [&a, &b, &c]
                .iter()
                .map(|n| n.waited.load(Ordering::SeqCst))
                .sum::<u64>(),
            2
        );
    }

    #[test]
    fn demoted_primary_answer_also_triggers_failover() {
        let a = FakeNode::new("a", ReplRole::Primary, 1, 5);
        let b = FakeNode::new("b", ReplRole::Replica, 1, 5);
        let router = ReplicatedService::new(vec![a.clone(), b.clone()]).unwrap();
        // `a` is demoted behind the router's back (say it rejoined after
        // a partition); its fence error re-routes the write.
        *a.role.lock() = ReplRole::Replica;
        *b.role.lock() = ReplRole::Primary;
        b.epoch.store(2, Ordering::SeqCst);
        router.call(insert(1)).unwrap();
        assert_eq!(router.primary_index(), 1);
        assert_eq!(b.writes.load(Ordering::SeqCst), 1);
    }

    #[test]
    fn health_check_reports_demotion() {
        let a = FakeNode::new("a", ReplRole::Primary, 1, 5);
        let router = ReplicatedService::new(vec![a.clone()]).unwrap();
        assert!(router.health_check().is_ok());
        *a.role.lock() = ReplRole::Replica;
        assert!(router.health_check().is_err());
    }

    #[test]
    fn batch_with_nested_write_routes_to_primary() {
        let a = FakeNode::new("a", ReplRole::Primary, 1, 0);
        let b = FakeNode::new("b", ReplRole::Replica, 1, 0);
        let router = ReplicatedService::new(vec![a.clone(), b.clone()]).unwrap();
        let nested = Request::Batch(vec![Request::Batch(vec![insert(1)])]);
        // FakeNode answers writes per-request, not batches; what matters
        // here is only the routing target.
        let _ = router.call(nested);
        let read_batch = Request::Batch(vec![read()]);
        for _ in 0..4 {
            let _ = router.call(read_batch.clone());
        }
        assert!(
            b.reads.load(Ordering::SeqCst) >= 1,
            "read batches reach replicas"
        );
    }

    #[test]
    fn no_live_endpoint_is_an_error_not_a_hang() {
        let a = FakeNode::new("a", ReplRole::Primary, 1, 0);
        let router = ReplicatedService::new(vec![a.clone()]).unwrap();
        a.alive.store(false, Ordering::SeqCst);
        assert!(matches!(router.call(insert(1)), Err(Error::Net(_))));
        assert!(matches!(router.call(read()), Err(Error::Net(_))));
    }
}
