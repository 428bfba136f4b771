//! Building and tearing down the real stack, in one process:
//!
//! sessions (`QuaestorClient`, each with a private browser cache and EBF)
//! → one shared CDN `InvalidationCache` → `RemoteService` → loopback TCP
//! → event-loop `NetServer` (default config) → durable `QuaestorServer`
//! (every write appended to the WAL file before its ack, no fsync; see
//! [`serving_durability`]).
//!
//! The `replicated` workload swaps the origin for a primary `ReplNode`
//! (its own `NetServer` and durable server, default durability: fsync on
//! every write) with one in-process replica and `ack_replicas = 1`.

use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

use quaestor_client::{ClientConfig, QuaestorClient};
use quaestor_common::{ClockRef, Error, ManualClock, Result, Timestamp};
use quaestor_core::{IndexKind, QuaestorServer, ServerConfig, Service};
use quaestor_durability::{DurabilityConfig, FsyncPolicy};
use quaestor_net::{NetServer, RemoteService, RemoteServiceConfig};
use quaestor_repl::{ReplConfig, ReplNode};
use quaestor_webcache::InvalidationCache;
use quaestor_workload::{WorkloadConfig, WorkloadGenerator};
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::probe::{OriginProbe, ServerProbe};
use crate::workload::Spec;

/// CDN capacity in entries: above every workload's working set (about
/// 101k record and query keys for the paper's dataset), so the CDN never
/// evicts and only purges and expiry cost it hits.
const CDN_CAPACITY: usize = 262_144;

/// Logical start time; any value well clear of zero works.
const CLOCK_START_MS: u64 = 1_000_000;

/// How long set-up waits for the replica to catch up with the loaded
/// dataset before giving up.
const CATCH_UP_TIMEOUT: Duration = Duration::from_secs(60);

/// Durability of a local origin while it serves: each write's WAL frame
/// goes to the segment file before the write is acknowledged (a
/// group-commit batch of one, as under the default `FsyncPolicy::Always`),
/// but nothing is fsynced. An fsync waits on a disk that other machines
/// share: with it, `read-heavy`'s `write_p50_us` spread up to 0.26 over
/// ten seeds, past its 0.25 bound, and `update-heavy`'s throughput (half
/// its ops are writes) 0.28, so a run measured the neighbours, not the
/// code.
/// The replicated origin keeps the default (fsync on every write); its
/// writes wait on the replica's acknowledgement far longer than that.
fn serving_durability() -> DurabilityConfig {
    DurabilityConfig {
        fsync: FsyncPolicy::OsDefault,
        group_commit: 1,
        ..DurabilityConfig::default()
    }
}

/// A scratch data directory inside the working directory, removed on drop.
#[derive(Debug)]
pub struct DataDir(PathBuf);

impl DataDir {
    /// A fresh, empty directory under `root`.
    pub fn create(root: &Path, name: &str) -> Result<DataDir> {
        let dir = root.join(name);
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir)
            .map_err(|e| Error::Io(format!("create {}: {e}", dir.display())))?;
        Ok(DataDir(dir))
    }

    /// The directory.
    pub fn path(&self) -> &Path {
        &self.0
    }

    /// A fresh, empty directory beside this one, its name extended by
    /// `suffix`.
    pub fn sibling(&self, suffix: &str) -> Result<DataDir> {
        let parent = self.0.parent().unwrap_or(&self.0);
        let name = self
            .0
            .file_name()
            .and_then(|n| n.to_str())
            .unwrap_or("data");
        DataDir::create(parent, &format!("{name}{suffix}"))
    }
}

impl Drop for DataDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// One session: a client and the probe under it.
pub struct Session {
    /// The client.
    pub client: QuaestorClient,
    /// The probe between the client and the connection.
    pub probe: Arc<OriginProbe>,
}

/// What serves the sessions' connections.
enum Origin {
    /// A plain event-loop server in front of the durable server.
    Local(NetServer),
    /// A primary and its replica, killed (replica first) on drop.
    Replicated {
        primary: Arc<ReplNode>,
        replica: Arc<ReplNode>,
    },
}

impl Drop for Origin {
    fn drop(&mut self) {
        if let Origin::Replicated { primary, replica } = self {
            replica.kill();
            primary.kill();
        }
    }
}

/// A running stack; dropping it stops it and removes its directories.
/// Field order is drop order: sessions and connections go before the
/// server they talk to, and the directories go last.
pub struct Stack {
    /// `sessions[thread][i]`; the sessions of one thread share one
    /// connection.
    pub sessions: Vec<Vec<Session>>,
    /// The shared CDN (cached workloads only).
    pub cdn: Option<Arc<InvalidationCache>>,
    /// The origin's listener, held so that dropping the stack stops it.
    origin: Origin,
    /// Server-side probe (traced run of a local origin only).
    pub server_probe: Option<Arc<ServerProbe>>,
    /// The origin (the primary when replicated), for scrapes and ground
    /// truth outside any op.
    pub server: Arc<QuaestorServer>,
    /// The logical clock shared by the server and every session.
    pub clock: Arc<ManualClock>,
    /// Backing directories, held so that dropping the stack removes them.
    _dirs: Vec<DataDir>,
}

impl Stack {
    /// Load `spec`'s dataset into a fresh durable server under `dir`,
    /// recover it with [`serving_durability`], declare the hash
    /// index on `category`, bind the net server (or open the primary and
    /// let its replica catch up) and connect the sessions.
    pub fn build(spec: &Spec, seed: u64, dir: DataDir, traced: bool) -> Result<Stack> {
        let clock = ManualClock::starting_at(Timestamp::from_millis(CLOCK_START_MS));
        let clock_ref: ClockRef = clock.clone();
        load(spec, seed, dir.path(), clock_ref.clone())?;
        let mut server_probe = None;
        let mut dirs = vec![dir];
        let (origin, server) = if spec.replicated {
            let (origin, server, replica_dir) = replicated(&dirs[0])?;
            dirs.push(replica_dir);
            (origin, server)
        } else {
            let server = QuaestorServer::open_with(
                dirs[0].path(),
                ServerConfig::default(),
                serving_durability(),
                clock_ref.clone(),
            )?;
            let origin: Arc<dyn Service> = server.clone();
            server_probe = traced.then(|| ServerProbe::new(origin.clone()));
            let served: Arc<dyn Service> = match &server_probe {
                Some(p) => p.clone(),
                None => origin,
            };
            (
                Origin::Local(NetServer::bind("127.0.0.1:0", served)?),
                server,
            )
        };
        for t in 0..spec.data.tables {
            server.declare_index(&WorkloadConfig::table_name(t), "category", IndexKind::Hash);
        }
        let addr = match &origin {
            Origin::Local(net) => net.local_addr(),
            Origin::Replicated { primary, .. } => primary.client_addr(),
        };
        let cdn = spec.caches.then(|| {
            let cdn = Arc::new(InvalidationCache::new("cdn", CDN_CAPACITY));
            server.register_cdn(cdn.clone());
            cdn
        });
        let config = ClientConfig {
            use_browser_cache: spec.caches,
            use_ebf: spec.caches,
            ..ClientConfig::default()
        };
        let cdns: Vec<Arc<InvalidationCache>> = cdn.iter().cloned().collect();
        let mut sessions = Vec::new();
        for _ in 0..spec.threads {
            let remote = RemoteService::connect(
                addr,
                RemoteServiceConfig {
                    pool_size: 1,
                    reconnect_jitter_seed: Some(seed),
                    ..RemoteServiceConfig::default()
                },
            )?;
            let mut mine = Vec::new();
            for _ in 0..spec.sessions {
                let probe = OriginProbe::new(remote.clone(), traced);
                let client = QuaestorClient::try_connect_service(
                    probe.clone(),
                    &cdns,
                    config,
                    clock_ref.clone(),
                )?;
                mine.push(Session { client, probe });
            }
            sessions.push(mine);
        }
        Ok(Stack {
            sessions,
            cdn,
            origin,
            server_probe,
            server,
            clock,
            _dirs: dirs,
        })
    }

    /// The replica's server, on the replicated workload.
    pub fn replica(&self) -> Option<&Arc<QuaestorServer>> {
        match &self.origin {
            Origin::Local(_) => None,
            Origin::Replicated { replica, .. } => Some(replica.server()),
        }
    }
}

/// Open the loaded directory as a primary with `ack_replicas = 1`, open
/// an empty replica beside it (other `ReplConfig` fields at their
/// defaults) and wait until the replica has durably acked the whole
/// dataset. Both nodes run on the system clock; with caches off nothing
/// measured depends on it.
fn replicated(dir: &DataDir) -> Result<(Origin, Arc<QuaestorServer>, DataDir)> {
    let replica_dir = dir.sibling("-replica")?;
    let primary = ReplNode::open_primary(
        dir.path(),
        ReplConfig {
            ack_replicas: 1,
            ..ReplConfig::default()
        },
    )?;
    let replica = match ReplNode::open_replica(
        replica_dir.path(),
        primary.repl_addr(),
        ReplConfig::default(),
    ) {
        Ok(r) => r,
        Err(e) => {
            primary.kill();
            return Err(e);
        }
    };
    let server = primary.server().clone();
    // From here on, dropping `origin` on an error kills both nodes.
    let origin = Origin::Replicated {
        primary: primary.clone(),
        replica,
    };
    let target = primary.status().last_lsn;
    let deadline = Instant::now() + CATCH_UP_TIMEOUT;
    while primary.max_session_ack() < target {
        if Instant::now() >= deadline {
            return Err(Error::Internal(format!(
                "the replica acked LSN {} of {target} within {CATCH_UP_TIMEOUT:?}",
                primary.max_session_ack()
            )));
        }
        std::thread::sleep(Duration::from_millis(1));
    }
    Ok((origin, server, replica_dir))
}

/// Bulk-load the dataset through the store into the WAL, syncing in
/// large groups so that no dirty page of the load is left for the kernel
/// to write back during the timed phase; the server that serves then
/// recovers it like any restart.
fn load(spec: &Spec, seed: u64, dir: &Path, clock: ClockRef) -> Result<()> {
    let loader = QuaestorServer::open_with(
        dir,
        ServerConfig::default(),
        DurabilityConfig {
            fsync: FsyncPolicy::EveryN(4_096),
            group_commit: 4_096,
            ..DurabilityConfig::default()
        },
        clock,
    )?;
    let generator = WorkloadGenerator::new(spec.data);
    for (table, id, doc) in generator.dataset(&mut StdRng::seed_from_u64(seed)) {
        loader.database().create_table(&table).insert(&id, doc)?;
    }
    loader.flush()?;
    Ok(())
}
