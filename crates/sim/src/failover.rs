//! Kill-the-primary-mid-workload scenario: the end-to-end failover
//! audit.
//!
//! A replication group (one primary, N replicas, semi-synchronous acks:
//! `ack_replicas = 1`, `FsyncPolicy::Always`) serves a concurrent write
//! workload through the client-side [`ReplicatedService`] router, over
//! real TCP. Mid-run the primary is killed abruptly — threads torn down,
//! nothing flushed, exactly the simulator's crash model. The router's
//! next write fails over: it probes the survivors, promotes the replica
//! with the highest durable LSN, and retries. A controller then
//! re-points the remaining replicas at the new primary
//! ([`ReplNode::refollow`]), and finally the deposed primary rejoins as
//! a replica, its unreplicated WAL suffix fenced off by the epoch
//! handshake.
//!
//! The audit holds the whole transition to two properties:
//!
//! * **zero acked-write loss** — every write acknowledged to a writer
//!   thread, before or after the kill, must be present on the new
//!   primary (and on the rejoined old primary after it catches up).
//!   Semi-sync acks make this sound: an acked write is durable on at
//!   least one replica, and the election maximizes durable LSN.
//! * **reads survive the outage** — the router keeps answering reads
//!   from replicas for the whole window between the kill and the first
//!   post-failover write ack.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use parking_lot::Mutex;
use quaestor_client::ReplicatedService;
use quaestor_core::{ReplRole, Service, ServiceExt};
use quaestor_document::doc;
use quaestor_net::{RemoteService, RemoteServiceConfig};
use quaestor_repl::{ReplConfig, ReplNode};

use crate::fault::{FaultInjector, FaultPlan};

/// Scenario knobs.
#[derive(Debug, Clone, Copy)]
pub struct FailoverConfig {
    /// Replica count (the group is `replicas + 1` nodes).
    pub replicas: usize,
    /// Concurrent writer threads.
    pub writers: usize,
    /// Acked writes after which the primary is killed.
    pub kill_after_acked: usize,
    /// Total acked writes the workload drives (across the kill).
    pub total_writes: usize,
    /// Optional fault plan applied to every client↔node link.
    pub faults: Option<FaultPlan>,
    /// Seed for the fault injectors.
    pub seed: u64,
}

impl Default for FailoverConfig {
    fn default() -> FailoverConfig {
        FailoverConfig {
            replicas: 2,
            writers: 2,
            kill_after_acked: 120,
            total_writes: 360,
            faults: None,
            seed: 7,
        }
    }
}

impl FailoverConfig {
    /// CI-sized run: same shape, fewer operations.
    pub fn quick() -> FailoverConfig {
        FailoverConfig {
            kill_after_acked: 30,
            total_writes: 90,
            ..FailoverConfig::default()
        }
    }
}

/// Outcome of the scenario.
#[derive(Debug, Clone)]
pub struct FailoverReport {
    /// Writes acknowledged to writer threads (these are audited).
    pub acked_writes: usize,
    /// Write attempts that errored (in-flight at the kill, ack-gate
    /// timeouts, injected faults); legitimate, but not audited.
    pub write_errors: usize,
    /// Acked writes missing on the **new** primary. The headline: 0.
    pub lost: usize,
    /// Failovers the router executed. At least 1; concurrent writers
    /// can each run the election (later ones find the already-promoted
    /// primary and only re-point).
    pub failovers: u64,
    /// Endpoint index the router elected.
    pub new_primary: usize,
    /// Milliseconds from the kill to the first post-failover write ack.
    pub outage_ms: u128,
    /// Reads served during that window.
    pub reads_during_outage: usize,
    /// Reads failed during that window. Expected: 0 — the router skips
    /// the dead endpoint and replicas keep serving.
    pub read_failures_during_outage: usize,
    /// Epoch the rejoined old primary adopted (expected: the new
    /// primary's epoch).
    pub rejoined_epoch: u64,
    /// Whether the rejoined old primary fully caught up to the new
    /// primary's log.
    pub rejoined_caught_up: bool,
    /// Acked writes missing on the rejoined old primary.
    pub rejoined_lost: usize,
}

impl FailoverReport {
    /// The acceptance property: no acknowledged write was lost anywhere
    /// across the failover, including on the fenced-and-rejoined node.
    pub fn zero_acked_loss(&self) -> bool {
        self.lost == 0 && self.rejoined_lost == 0
    }
}

fn node_config() -> ReplConfig {
    ReplConfig {
        // Semi-sync: a write is acked only once a replica has fsynced
        // it. This is what makes "zero acked-write loss" achievable at
        // all — with async shipping, acked-but-unshipped writes die with
        // the primary's buffer.
        ack_replicas: 1,
        ack_timeout: Duration::from_secs(10),
        reconnect_backoff: Duration::from_millis(25),
        ..ReplConfig::default()
    }
}

fn client_config() -> RemoteServiceConfig {
    RemoteServiceConfig {
        // Generous connect timeout: an election probe that times out on a
        // *live* node under CPU contention (the full test suite runs this
        // scenario alongside heavy sims) would elect the wrong node.
        connect_timeout: Duration::from_secs(1),
        request_timeout: Duration::from_secs(2),
        max_backoff: Duration::from_millis(100),
        ..RemoteServiceConfig::default()
    }
}

/// Hard wall-clock bound on the workload phase. A scenario that cannot
/// finish by then reports what it has (and fails its assertions) instead
/// of grinding through write-retry timeouts for half an hour.
const WORKLOAD_DEADLINE: Duration = Duration::from_secs(60);

/// Run the kill-primary scenario under `dir` (isolated per run, like
/// `crash_recovery`). Panics on infrastructure failures — this is a test
/// harness, not a production path.
pub fn kill_primary_failover(dir: &Path, config: FailoverConfig) -> FailoverReport {
    static RUN: AtomicUsize = AtomicUsize::new(0);
    let dir = dir.join(format!("run-{}", RUN.fetch_add(1, Ordering::Relaxed)));
    let node_dir = |i: usize| -> PathBuf { dir.join(format!("node-{i}")) };

    // The group: node 0 is the initial primary. No handle to it may
    // outlive the `nodes` vec — rejoining its directory later requires
    // its engine (and directory LOCK) to drop.
    let primary = ReplNode::open_primary(node_dir(0), node_config()).expect("open primary");
    let primary_repl_addr = primary.repl_addr();
    let mut nodes = vec![primary];
    for i in 1..=config.replicas.max(1) {
        nodes.push(
            ReplNode::open_replica(node_dir(i), primary_repl_addr, node_config())
                .expect("open replica"),
        );
    }

    // Client endpoints (TCP), optionally behind fault injectors.
    let endpoints: Vec<Arc<dyn Service>> = nodes
        .iter()
        .enumerate()
        .map(|(i, n)| {
            let remote = RemoteService::connect_lazy(n.client_addr(), client_config())
                .expect("endpoint") as Arc<dyn Service>;
            match config.faults {
                Some(plan) => {
                    FaultInjector::new(remote, plan, config.seed ^ (i as u64)) as Arc<dyn Service>
                }
                None => remote,
            }
        })
        .collect();
    let router = ReplicatedService::new(endpoints).expect("router");

    // The sentinel read target; also synchronizes the group (the insert
    // acks only after a replica has it).
    router
        .insert("audit", "sentinel", doc! { "kind" => "sentinel" })
        .expect("sentinel write");

    let acked_count = AtomicUsize::new(0);
    let done = AtomicBool::new(false);
    let outage = AtomicBool::new(false);
    let killed_at: Mutex<Option<Instant>> = Mutex::new(None);
    let recovered_at: Mutex<Option<Instant>> = Mutex::new(None);
    let reads_ok = AtomicUsize::new(0);
    let reads_failed = AtomicUsize::new(0);

    let (acked, write_errors) = std::thread::scope(|s| {
        // Writers: fresh key per attempt, so an applied-but-unacked write
        // (in flight at the kill) never collides with a retry.
        let writer_handles: Vec<_> = (0..config.writers.max(1))
            .map(|w| {
                let router = &router;
                let acked_count = &acked_count;
                let outage = &outage;
                let recovered_at = &recovered_at;
                s.spawn(move || {
                    let mut acked: Vec<String> = Vec::new();
                    let mut errors = 0usize;
                    let give_up = Instant::now() + WORKLOAD_DEADLINE;
                    for attempt in 0..config.total_writes * 10 {
                        if acked_count.load(Ordering::SeqCst) >= config.total_writes
                            || Instant::now() >= give_up
                        {
                            break;
                        }
                        let key = format!("w{w}-a{attempt}");
                        match router.insert("audit", &key, doc! { "writer" => w as i64 }) {
                            Ok(_) => {
                                acked.push(key);
                                acked_count.fetch_add(1, Ordering::SeqCst);
                                if outage.swap(false, Ordering::SeqCst) {
                                    *recovered_at.lock() = Some(Instant::now());
                                }
                            }
                            Err(_) => errors += 1,
                        }
                    }
                    (acked, errors)
                })
            })
            .collect();

        // Reader: hammers the sentinel; during the outage window every
        // answer (or failure) is scored.
        let reader = {
            let router = &router;
            let done = &done;
            let outage = &outage;
            let reads_ok = &reads_ok;
            let reads_failed = &reads_failed;
            s.spawn(move || {
                while !done.load(Ordering::SeqCst) {
                    let in_outage = outage.load(Ordering::SeqCst);
                    let ok = router.get_record("audit", "sentinel").is_ok();
                    if in_outage {
                        if ok {
                            reads_ok.fetch_add(1, Ordering::SeqCst);
                        } else {
                            reads_failed.fetch_add(1, Ordering::SeqCst);
                        }
                    }
                    std::thread::sleep(Duration::from_millis(1));
                }
            })
        };

        // Controller: kill the primary at the threshold, then re-point
        // the surviving replicas once the router has elected.
        let controller = {
            let router = &router;
            let nodes = &nodes;
            let acked_count = &acked_count;
            let done = &done;
            let outage = &outage;
            let killed_at = &killed_at;
            s.spawn(move || {
                while acked_count.load(Ordering::SeqCst) < config.kill_after_acked {
                    if done.load(Ordering::SeqCst) {
                        return;
                    }
                    std::thread::sleep(Duration::from_millis(1));
                }
                *killed_at.lock() = Some(Instant::now());
                nodes[0].kill();
                // Flag the outage only once the node is down: acks are
                // impossible now until failover completes, so the flag
                // cannot be cleared prematurely by a pre-kill ack.
                outage.store(true, Ordering::SeqCst);
                // Re-point survivors whenever the router's believed
                // primary changes (not just once: a probe that failed
                // transiently can move the election to the other
                // replica, and a survivor still following the old
                // target would starve the semi-sync gate forever).
                let mut pointed_at: Option<usize> = None;
                while !done.load(Ordering::SeqCst) {
                    let new_primary = router.primary_index();
                    if new_primary != 0 && pointed_at != Some(new_primary) {
                        for (i, node) in nodes.iter().enumerate().skip(1) {
                            if i != new_primary {
                                let _ = node.refollow(nodes[new_primary].repl_addr());
                            }
                        }
                        pointed_at = Some(new_primary);
                    }
                    std::thread::sleep(Duration::from_millis(2));
                }
            })
        };

        let collected: Vec<(Vec<String>, usize)> = writer_handles
            .into_iter()
            .map(|h| h.join().expect("writer thread"))
            .collect();
        done.store(true, Ordering::SeqCst);
        reader.join().expect("reader thread");
        controller.join().expect("controller thread");
        let mut acked = Vec::new();
        let mut errors = 0;
        for (keys, errs) in collected {
            acked.extend(keys);
            errors += errs;
        }
        (acked, errors)
    });

    // Audit on the elected primary, via direct node access (the audit
    // must not be subject to injected faults).
    let new_primary = router.primary_index();
    assert_ne!(new_primary, 0, "the router should have left the dead node");
    let elected = nodes[new_primary].clone();
    assert_eq!(elected.role(), ReplRole::Primary);
    let lost = acked
        .iter()
        .filter(|key| elected.get_record("audit", key).is_err())
        .count();

    let outage_ms = match (*killed_at.lock(), *recovered_at.lock()) {
        (Some(k), Some(r)) => r.duration_since(k).as_millis(),
        _ => 0,
    };

    // Rejoin the deposed primary: the epoch handshake fences its
    // unreplicated suffix, then it follows the new timeline. The dead
    // node's last handle must drop first — its durability engine holds
    // the directory LOCK until then.
    drop(nodes.remove(0));
    let rejoined =
        ReplNode::open_replica(node_dir(0), elected.repl_addr(), node_config()).expect("rejoin");
    let deadline = Instant::now() + Duration::from_secs(15);
    let mut rejoined_caught_up = false;
    while Instant::now() < deadline {
        if rejoined.status().durable_lsn == elected.status().last_lsn {
            rejoined_caught_up = true;
            break;
        }
        std::thread::sleep(Duration::from_millis(5));
    }
    let rejoined_status = rejoined.status();
    let rejoined_lost = acked
        .iter()
        .filter(|key| rejoined.get_record("audit", key).is_err())
        .count();

    for node in &nodes {
        node.kill();
    }
    rejoined.kill();

    FailoverReport {
        acked_writes: acked.len(),
        write_errors,
        lost,
        failovers: router.failover_count(),
        new_primary,
        outage_ms,
        reads_during_outage: reads_ok.load(Ordering::SeqCst),
        read_failures_during_outage: reads_failed.load(Ordering::SeqCst),
        rejoined_epoch: rejoined_status.epoch,
        rejoined_caught_up,
        rejoined_lost,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use quaestor_common::scratch_dir;

    #[test]
    fn kill_primary_loses_no_acked_write_and_reads_survive() {
        let dir = scratch_dir("sim-failover");
        let report = kill_primary_failover(&dir, FailoverConfig::quick());
        assert!(report.acked_writes >= 90, "{report:?}");
        assert!(
            report.zero_acked_loss(),
            "lost {} acked writes (rejoined: {}): {report:?}",
            report.lost,
            report.rejoined_lost
        );
        assert!(report.failovers >= 1, "{report:?}");
        assert!(report.reads_during_outage > 0, "{report:?}");
        assert_eq!(report.read_failures_during_outage, 0, "{report:?}");
        assert_eq!(report.rejoined_epoch, 2, "{report:?}");
        assert!(report.rejoined_caught_up, "{report:?}");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn failover_holds_under_injected_faults() {
        let dir = scratch_dir("sim-failover-faults");
        let config = FailoverConfig {
            faults: Some(FaultPlan {
                delay: 0.05,
                delay_ms: (1, 3),
                duplicate: 0.02,
                ..FaultPlan::default()
            }),
            ..FailoverConfig::quick()
        };
        let report = kill_primary_failover(&dir, config);
        assert!(
            report.zero_acked_loss(),
            "lost {} acked writes (rejoined: {}): {report:?}",
            report.lost,
            report.rejoined_lost
        );
        assert!(report.rejoined_caught_up, "{report:?}");
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
