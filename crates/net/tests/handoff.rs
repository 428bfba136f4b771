//! Reader-token handoff on one pooled connection: the caller holding a
//! connection's token reads for everyone, hands the token on when it
//! leaves, and fails every waiter at once when the connection dies.
//! Most tests pin `pool_size: 1`, so all of their calls share one socket.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use crossbeam::channel::{unbounded, Receiver, Sender};
use quaestor_common::{Error, ManualClock, Result};
use quaestor_core::{QuaestorServer, Request, Response, Service, ServiceExt};
use quaestor_document::{doc, Value};
use quaestor_kv::PubSub;
use quaestor_net::{NetServer, RemoteService, RemoteServiceConfig};
use quaestor_query::QueryKey;

/// Tests that start a stream reader thread, and the test that counts
/// those threads, run one at a time.
static STREAM_THREADS: parking_lot::Mutex<()> = parking_lot::Mutex::new(());

/// Answers `GetRecord { id: "<n>" }` with `Flushed { lsn: n }`, so every
/// reply names its request. Ids `wedge-<n>` block the serving event loop
/// until the gate's sender is dropped; with a seed, every other request
/// sleeps a delay drawn from it first. `Subscribe` streams from `bus`.
struct Echo {
    gate: Receiver<()>,
    wedged: AtomicUsize,
    bus: Arc<PubSub>,
    seed: Option<u64>,
}

impl Echo {
    fn new(seed: Option<u64>) -> (Arc<Echo>, Sender<()>) {
        let (open, gate) = unbounded();
        let echo = Echo {
            gate,
            wedged: AtomicUsize::new(0),
            bus: PubSub::new(),
            seed,
        };
        (Arc::new(echo), open)
    }
}

impl Service for Echo {
    fn call(&self, req: Request) -> Result<Response> {
        match req {
            Request::GetRecord { id, .. } => {
                let n = match id.strip_prefix("wedge-") {
                    Some(n) => {
                        self.wedged.fetch_add(1, Ordering::SeqCst);
                        let _ = self.gate.recv_timeout(Duration::from_secs(30));
                        n
                    }
                    None => id.as_str(),
                };
                let n: u64 = n
                    .parse()
                    .map_err(|_| Error::BadRequest(format!("not a number: {id}")))?;
                if let Some(seed) = self.seed {
                    std::thread::sleep(delay(seed, n));
                }
                Ok(Response::Flushed { lsn: n })
            }
            Request::Subscribe { key } => Ok(Response::Stream(self.bus.subscribe(key.as_str()))),
            _ => Err(Error::BadRequest(
                "echo answers reads and subscribes".into(),
            )),
        }
    }
}

fn splitmix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// One request in 33 stalls the loop past every timeout the schedule
/// test draws; the rest take up to 1.5 ms.
fn delay(seed: u64, n: u64) -> Duration {
    let r = splitmix(seed ^ splitmix(n));
    if r.is_multiple_of(33) {
        Duration::from_millis(60)
    } else {
        Duration::from_micros(r % 1500)
    }
}

fn echo(svc: &RemoteService, id: &str) -> Result<u64> {
    match svc.call(Request::GetRecord {
        table: "t".into(),
        id: id.into(),
    })? {
        Response::Flushed { lsn } => Ok(lsn),
        other => panic!("unexpected response {other:?}"),
    }
}

fn one_connection(server: &NetServer, request_timeout: Duration) -> Arc<RemoteService> {
    RemoteService::connect(
        server.local_addr(),
        RemoteServiceConfig {
            pool_size: 1,
            request_timeout,
            ..Default::default()
        },
    )
    .expect("connect")
}

fn wait_for(what: &str, cond: impl Fn() -> bool) {
    let deadline = Instant::now() + Duration::from_secs(10);
    while !cond() {
        assert!(Instant::now() < deadline, "timed out waiting for {what}");
        std::thread::sleep(Duration::from_millis(5));
    }
}

fn timed<T: Send + 'static>(
    f: impl FnOnce() -> T + Send + 'static,
) -> std::thread::JoinHandle<(T, Duration)> {
    std::thread::spawn(move || {
        let started = Instant::now();
        let out = f();
        (out, started.elapsed())
    })
}

#[test]
fn a_holder_that_times_out_hands_the_token_to_the_waiting_caller() {
    let (service, gate) = Echo::new(None);
    let server = NetServer::bind("127.0.0.1:0", service.clone()).expect("bind");
    let svc = one_connection(&server, Duration::from_millis(1500));
    // The first caller holds the token while the server is wedged on its
    // request; the second registers behind it and waits.
    let holder = {
        let svc = svc.clone();
        timed(move || echo(&svc, "wedge-1"))
    };
    wait_for("the wedged request", || {
        service.wedged.load(Ordering::SeqCst) == 1
    });
    std::thread::sleep(Duration::from_millis(700));
    let waiter = {
        let svc = svc.clone();
        timed(move || echo(&svc, "2"))
    };
    let (held, held_for) = holder.join().unwrap();
    match held {
        Err(Error::Net(msg)) => assert!(msg.contains("timed out"), "{msg}"),
        other => panic!("the holder must time out, got {other:?}"),
    }
    assert!(held_for < Duration::from_secs(5), "{held_for:?}");
    // Unwedge: the late reply to the holder's request arrives first and
    // must be dropped; the waiter, now holding the token, reads its own.
    drop(gate);
    let (waited, _) = waiter.join().unwrap();
    assert_eq!(waited.unwrap(), 2);
    server.shutdown();
}

#[test]
fn a_dying_server_fails_the_holder_and_every_waiter_at_once() {
    let (service, gate) = Echo::new(None);
    let server = NetServer::bind("127.0.0.1:0", service.clone()).expect("bind");
    let svc = one_connection(&server, Duration::from_secs(20));
    let first = {
        let svc = svc.clone();
        timed(move || echo(&svc, "wedge-0"))
    };
    wait_for("the first wedged request", || {
        service.wedged.load(Ordering::SeqCst) == 1
    });
    // Five more callers register behind the first.
    let callers: Vec<_> = (1..6)
        .map(|i| {
            let svc = svc.clone();
            timed(move || echo(&svc, &format!("wedge-{i}")))
        })
        .collect();
    std::thread::sleep(Duration::from_millis(300));
    // Let one request through. Its caller hands the token to one of the
    // waiters before it returns; the server wedges on the next request.
    gate.send(()).unwrap();
    assert_eq!(first.join().unwrap().0.unwrap(), 0);
    wait_for("the second wedged request", || {
        service.wedged.load(Ordering::SeqCst) == 2
    });
    // Shutdown closes the sockets before it joins the wedged loop.
    let shutdown = std::thread::spawn(move || server.shutdown());
    for caller in callers {
        let (result, elapsed) = caller.join().unwrap();
        match result {
            Err(Error::Net(msg)) => assert!(msg.contains("in flight"), "{msg}"),
            other => panic!("expected Error::Net, got {other:?}"),
        }
        assert!(
            elapsed < Duration::from_secs(10),
            "released by the teardown, not the 20 s timeout ({elapsed:?})"
        );
    }
    drop(gate);
    shutdown.join().unwrap();
}

#[test]
fn a_late_reply_never_reaches_the_next_call_of_the_thread_that_gave_up() {
    let _streams = STREAM_THREADS.lock();
    let (service, gate) = Echo::new(None);
    let server = NetServer::bind("127.0.0.1:0", service.clone()).expect("bind");
    let svc = one_connection(&server, Duration::from_millis(800));
    // The subscription gives the connection its stream reader, which
    // keeps the token: every call below waits on this thread's slot.
    let _sub = svc
        .subscribe(&QueryKey::record("t", "s"))
        .expect("subscribe");
    match echo(&svc, "wedge-1") {
        Err(Error::Net(msg)) => assert!(msg.contains("timed out"), "{msg}"),
        other => panic!("the wedged call must time out, got {other:?}"),
    }
    // Unwedge while this thread's next call waits on the same slot: the
    // reply to request 1 arrives first.
    let unwedge = std::thread::spawn(move || {
        std::thread::sleep(Duration::from_millis(200));
        drop(gate);
    });
    assert_eq!(
        echo(&svc, "2").unwrap(),
        2,
        "the late reply to the timed-out call was handed to the next one"
    );
    unwedge.join().unwrap();
    server.shutdown();
}

/// Fill a pool of `pool_size` connections, restart the server on the
/// same address while every one of them sits idle, and call again
/// without `disconnect_all`.
fn restart_under_an_idle_pool(pool_size: usize) {
    let origin = QuaestorServer::with_defaults(ManualClock::new());
    let server = NetServer::bind("127.0.0.1:0", origin.clone()).expect("bind");
    let addr = server.local_addr();
    let svc = RemoteService::connect(
        addr,
        RemoteServiceConfig {
            pool_size,
            ..Default::default()
        },
    )
    .expect("connect");
    // Round-robin: these calls open every pooled connection.
    svc.insert("t", "a", doc! { "n" => 1 }).unwrap();
    for _ in 1..pool_size {
        svc.get_record("t", "a").unwrap();
    }
    assert_eq!(server.connections_accepted(), pool_size as u64);
    // The server goes away while the pooled connections are idle, and
    // comes back on the same address; nobody calls `disconnect_all`.
    server.shutdown();
    let deadline = Instant::now() + Duration::from_secs(10);
    let server2 = loop {
        match NetServer::bind(addr, origin.clone()) {
            Ok(s) => break s,
            Err(e) => {
                assert!(Instant::now() < deadline, "rebind {addr}: {e}");
                std::thread::sleep(Duration::from_millis(50));
            }
        }
    };
    // Every call finds its connection closed at most once per slot and
    // reconnects; none of them fails.
    for call in 0..2 * pool_size {
        let rec = svc
            .get_record("t", "a")
            .unwrap_or_else(|e| panic!("call {call} after the restart: {e}"));
        assert_eq!(rec.doc["n"], Value::Int(1));
    }
    assert_eq!(server2.connections_accepted(), pool_size as u64);
    server2.shutdown();
}

#[test]
fn an_idle_connection_the_server_closed_reconnects_on_the_next_call() {
    restart_under_an_idle_pool(1);
}

#[test]
fn every_idle_connection_of_a_default_pool_the_server_closed_reconnects() {
    assert_eq!(RemoteServiceConfig::default().pool_size, 2);
    restart_under_an_idle_pool(RemoteServiceConfig::default().pool_size);
}

#[test]
fn pushes_arrive_on_an_idle_subscribed_connection_and_between_other_calls() {
    let _streams = STREAM_THREADS.lock();
    let (service, _gate) = Echo::new(None);
    let server = NetServer::bind("127.0.0.1:0", service.clone()).expect("bind");
    let svc = one_connection(&server, Duration::from_secs(10));
    let key = QueryKey::record("t", "feed");
    let sub = svc.subscribe(&key).expect("subscribe");
    // No call in flight: only the stream reader is reading.
    service.bus.publish(key.as_str(), &b"idle"[..]);
    let got = sub.recv_timeout(Duration::from_secs(5)).expect("idle push");
    assert_eq!(got.to_vec(), b"idle".to_vec());
    // Calls from four threads share the connection while pushes stream.
    let callers: Vec<_> = (0..4u64)
        .map(|c| {
            let svc = svc.clone();
            std::thread::spawn(move || {
                for j in 0..50 {
                    let n = c * 1000 + j;
                    assert_eq!(echo(&svc, &n.to_string()).unwrap(), n);
                }
            })
        })
        .collect();
    for m in 0..100 {
        service
            .bus
            .publish(key.as_str(), format!("m{m}").into_bytes());
    }
    for m in 0..100 {
        let got = sub.recv_timeout(Duration::from_secs(5)).expect("push");
        assert_eq!(got.to_vec(), format!("m{m}").into_bytes());
    }
    for c in callers {
        c.join().unwrap();
    }
    server.shutdown();
}

/// Live threads of this process named like the stream reader (`comm`
/// holds the first 15 bytes of a thread's name).
#[cfg(target_os = "linux")]
fn stream_reader_threads() -> usize {
    let Ok(tasks) = std::fs::read_dir("/proc/self/task") else {
        return 0;
    };
    tasks
        .filter_map(|task| std::fs::read_to_string(task.ok()?.path().join("comm")).ok())
        .filter(|comm| comm.trim_end() == "qnet-client-rea")
        .count()
}

#[cfg(target_os = "linux")]
#[test]
fn a_pool_that_never_subscribed_runs_no_reader_thread() {
    let _streams = STREAM_THREADS.lock();
    wait_for("earlier stream readers to exit", || {
        stream_reader_threads() == 0
    });
    let origin = QuaestorServer::with_defaults(ManualClock::new());
    let server = NetServer::bind("127.0.0.1:0", origin).expect("bind");
    let svc = RemoteService::connect(
        server.local_addr(),
        RemoteServiceConfig {
            pool_size: 2,
            ..Default::default()
        },
    )
    .expect("connect");
    let callers: Vec<_> = (0..4)
        .map(|c| {
            let svc = svc.clone();
            std::thread::spawn(move || {
                for j in 0..25 {
                    let id = format!("r{c}-{j}");
                    svc.insert("t", &id, doc! { "j" => j }).unwrap();
                    assert_eq!(svc.get_record("t", &id).unwrap().doc["j"], Value::Int(j));
                }
            })
        })
        .collect();
    for c in callers {
        c.join().unwrap();
    }
    assert_eq!(
        stream_reader_threads(),
        0,
        "request/response traffic needs no reader thread"
    );
    // A subscription starts one, for its own connection only.
    let sub = svc.subscribe(&QueryKey::record("t", "x")).unwrap();
    wait_for("the stream reader", || stream_reader_threads() == 1);
    svc.flush().unwrap();
    assert_eq!(stream_reader_threads(), 1);
    drop(sub);
    drop(svc);
    wait_for("the stream reader to exit with its pool", || {
        stream_reader_threads() == 0
    });
    server.shutdown();
}

#[test]
fn a_seeded_random_schedule_gives_each_caller_its_own_reply_or_a_net_error() {
    let (mut answered, mut failed) = (0, 0);
    for seed in [11u64, 12, 13] {
        let (service, _gate) = Echo::new(Some(seed));
        let server = NetServer::bind("127.0.0.1:0", service).expect("bind");
        let timeout = Duration::from_millis([20, 30, 40][(splitmix(seed) % 3) as usize]);
        let svc = one_connection(&server, timeout);
        let (done, tallies) = unbounded();
        let callers: Vec<_> = (0..8u64)
            .map(|c| {
                let svc = svc.clone();
                let done = done.clone();
                std::thread::spawn(move || {
                    let (mut ok, mut net) = (0, 0);
                    for j in 0..25 {
                        let n = c * 1000 + j;
                        match echo(&svc, &n.to_string()) {
                            Ok(got) => {
                                assert_eq!(got, n, "caller {c} was handed another call's reply");
                                ok += 1;
                            }
                            Err(Error::Net(_)) => net += 1,
                            Err(e) => panic!("caller {c}: unexpected error {e:?}"),
                        }
                    }
                    let _ = done.send((ok, net));
                })
            })
            .collect();
        drop(done);
        let deadline = Instant::now() + Duration::from_secs(60);
        for _ in 0..callers.len() {
            let left = deadline.saturating_duration_since(Instant::now());
            let (ok, net) = tallies
                .recv_timeout(left)
                .unwrap_or_else(|_| panic!("seed {seed}: a caller hung or panicked"));
            answered += ok;
            failed += net;
        }
        for c in callers {
            c.join().unwrap();
        }
        server.shutdown();
    }
    assert!(answered > 0, "no call was answered");
    assert!(
        failed > 0,
        "no call timed out: the schedule exercised no handoff"
    );
}
