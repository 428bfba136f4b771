//! Loopback integration tests: a real `NetServer` on `127.0.0.1:0`, a
//! real `RemoteService` pool, every protocol path exercised over an
//! actual socket.

use std::io::Write;
use std::sync::Arc;
use std::time::{Duration, Instant};

use quaestor_common::{Error, ManualClock, Result};
use quaestor_core::{MetricsLayer, QuaestorServer, Request, Response, Service, ServiceExt};
use quaestor_document::{doc, Update, Value};
use quaestor_net::{NetServer, RemoteService, RemoteServiceConfig};
use quaestor_query::{Filter, Query, QueryKey};

fn serve() -> (NetServer, Arc<RemoteService>) {
    let clock = ManualClock::new();
    let origin = QuaestorServer::with_defaults(clock);
    let server = NetServer::bind("127.0.0.1:0", origin).expect("bind");
    let svc = RemoteService::connect(server.local_addr(), RemoteServiceConfig::default())
        .expect("connect");
    (server, svc)
}

#[test]
fn every_request_variant_round_trips_over_the_socket() {
    let (server, svc) = serve();
    // Insert / get / update / replace / delete.
    let (v, image) = svc.insert("t", "a", doc! { "n" => 1 }).unwrap();
    assert_eq!(v, 1);
    assert_eq!(image["n"], Value::Int(1));
    let rec = svc.get_record("t", "a").unwrap();
    assert_eq!(rec.etag, 1);
    assert_eq!(rec.doc["n"], Value::Int(1));
    assert!(rec.ttl_ms > 0);
    let (v2, _) = svc.update("t", "a", &Update::new().inc("n", 1.0)).unwrap();
    assert_eq!(v2, 2);
    let (v3, image) = svc.replace("t", "a", doc! { "n" => 9 }).unwrap();
    assert_eq!(v3, 3);
    assert_eq!(image["n"], Value::Int(9));
    // Query.
    let q = Query::table("t").filter(Filter::eq("n", 9));
    let qr = svc.query(&q).unwrap();
    assert_eq!(qr.ids, vec!["a"]);
    assert_eq!(qr.docs.len(), 1);
    // EBF, flat and partitioned.
    let (flat, _at) = svc.fetch_ebf().unwrap();
    assert!(!flat.contains(b"never-inserted"));
    let (_part, _at) = svc.fetch_ebf_partition("t").unwrap();
    // Batch with a mid-batch failure.
    let results = svc
        .batch(vec![
            Request::Insert {
                table: "t".into(),
                id: "b".into(),
                doc: doc! { "n" => 5 },
            },
            Request::Delete {
                table: "t".into(),
                id: "missing".into(),
            },
            Request::GetRecord {
                table: "t".into(),
                id: "b".into(),
            },
        ])
        .unwrap();
    assert!(matches!(
        results[0],
        Ok(Response::Written { version: 1, .. })
    ));
    assert!(matches!(results[1], Err(Error::NotFound { .. })));
    assert!(matches!(results[2], Ok(Response::Record(_))));
    // Flush (in-memory origin: LSN 0).
    assert_eq!(svc.flush().unwrap(), 0);
    // Delete + typed error for a read of the deleted record.
    assert_eq!(svc.delete("t", "a").unwrap(), 3);
    match svc.get_record("t", "a") {
        Err(Error::NotFound { table, id }) => {
            assert_eq!((table.as_str(), id.as_str()), ("t", "a"));
        }
        other => panic!("expected typed NotFound over the wire, got {other:?}"),
    }
    assert!(server.requests_served() >= 10);
    server.shutdown();
}

#[test]
fn subscriptions_stream_pushes_across_the_socket() {
    let (server, svc) = serve();
    svc.insert("posts", "p1", doc! { "tag" => "hot" }).unwrap();
    let q = Query::table("posts").filter(Filter::eq("tag", "hot"));
    // Register the query at the origin (subscription channels carry
    // notifications for *registered* queries), then subscribe remotely.
    svc.query(&q).unwrap();
    let sub = svc.subscribe(&QueryKey::of(&q)).unwrap();
    // A write that changes the result must reach the remote subscriber.
    svc.update("posts", "p1", &Update::new().set("tag", "cold"))
        .unwrap();
    let message = sub
        .recv_timeout(Duration::from_secs(5))
        .expect("push arrives over the socket");
    assert!(!message.is_empty());
    server.shutdown();
}

#[test]
fn pipelined_concurrent_callers_share_one_connection() {
    let clock = ManualClock::new();
    let origin = QuaestorServer::with_defaults(clock);
    let server = NetServer::bind("127.0.0.1:0", origin).expect("bind");
    let svc = RemoteService::connect(
        server.local_addr(),
        RemoteServiceConfig {
            pool_size: 1, // force everything through one socket
            ..Default::default()
        },
    )
    .expect("connect");
    svc.insert("t", "seed", doc! { "n" => 0 }).unwrap();
    let threads: Vec<_> = (0..8)
        .map(|i| {
            let svc = svc.clone();
            std::thread::spawn(move || {
                for j in 0..50 {
                    let id = format!("r{i}-{j}");
                    svc.insert("t", &id, doc! { "i" => i, "j" => j }).unwrap();
                    let rec = svc.get_record("t", &id).unwrap();
                    assert_eq!(rec.doc["j"], Value::Int(j));
                }
            })
        })
        .collect();
    for t in threads {
        t.join().unwrap();
    }
    assert_eq!(
        server.connections_accepted(),
        1,
        "all 800 calls must share the single pooled connection"
    );
    server.shutdown();
}

/// A service that blocks until told to finish — the "server wedged while
/// my request is in flight" scenario.
struct Slow {
    release: crossbeam::channel::Receiver<()>,
}

impl Service for Slow {
    fn call(&self, _req: Request) -> Result<Response> {
        let _ = self.release.recv_timeout(Duration::from_secs(30));
        Ok(Response::Flushed { lsn: 0 })
    }
}

#[test]
fn killing_the_server_mid_request_returns_net_error_not_a_hang() {
    let (release_tx, release_rx) = crossbeam::channel::unbounded();
    let server = NetServer::bind(
        "127.0.0.1:0",
        Arc::new(Slow {
            release: release_rx,
        }),
    )
    .expect("bind");
    let svc = RemoteService::connect(
        server.local_addr(),
        RemoteServiceConfig {
            request_timeout: Duration::from_secs(20), // far beyond the test budget
            ..Default::default()
        },
    )
    .expect("connect");
    let svc2 = svc.clone();
    let caller = std::thread::spawn(move || {
        let started = Instant::now();
        let result = svc2.call(Request::Flush);
        (result, started.elapsed())
    });
    // Let the request reach the (wedged) server, then kill the server.
    // Shutdown closes the connection sockets *before* joining workers,
    // so the client is released even though the handler is still stuck;
    // run the join-half of shutdown on the side.
    std::thread::sleep(Duration::from_millis(200));
    let shutdown = std::thread::spawn(move || server.shutdown());
    let (result, elapsed) = caller.join().unwrap();
    match result {
        Err(Error::Net(msg)) => assert!(msg.contains("in flight"), "got: {msg}"),
        other => panic!("expected Error::Net, got {other:?}"),
    }
    assert!(
        elapsed < Duration::from_secs(10),
        "the caller must be released by the connection teardown, not the timeout ({elapsed:?})"
    );
    // Unwedge the handler so the worker (and shutdown) can finish.
    drop(release_tx);
    shutdown.join().unwrap();
}

#[test]
fn client_reconnects_with_backoff_after_server_restart() {
    let clock = ManualClock::new();
    let origin = QuaestorServer::with_defaults(clock.clone());
    let server = NetServer::bind("127.0.0.1:0", origin.clone()).expect("bind");
    let addr = server.local_addr();
    let svc = RemoteService::connect(addr, RemoteServiceConfig::default()).expect("connect");
    svc.insert("t", "a", doc! { "n" => 1 }).unwrap();
    // Close client side first (client sockets take the TIME_WAIT), then
    // stop the server and rebind the same port.
    svc.disconnect_all();
    server.shutdown();
    // While the address is dead, a call fails with Error::Net after its
    // (shortened) deadline.
    let quick = RemoteService::connect_lazy(
        addr,
        RemoteServiceConfig {
            request_timeout: Duration::from_millis(300),
            connect_timeout: Duration::from_millis(100),
            ..Default::default()
        },
    )
    .expect("lazy handles never fail on a resolvable address");
    match quick.call(Request::Flush) {
        Err(Error::Net(_)) => {}
        other => panic!("expected Error::Net while the server is down, got {other:?}"),
    }
    // Restart on the same address; the original pool reconnects lazily.
    let server2 = loop {
        match NetServer::bind(addr, origin.clone()) {
            Ok(s) => break s,
            Err(_) => std::thread::sleep(Duration::from_millis(50)),
        }
    };
    let rec = svc.get_record("t", "a").unwrap();
    assert_eq!(rec.doc["n"], Value::Int(1), "data survives: same origin");
    server2.shutdown();
}

#[test]
fn corrupt_frames_close_the_connection_but_not_the_server() {
    let (server, svc) = serve();
    svc.insert("t", "a", doc! { "n" => 1 }).unwrap();
    // A raw socket speaking garbage: the server must drop it...
    let mut raw = std::net::TcpStream::connect(server.local_addr()).unwrap();
    raw.write_all(&[0xFF; 64]).unwrap();
    let mut buf = [0u8; 16];
    raw.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
    let n = std::io::Read::read(&mut raw, &mut buf).unwrap_or(0);
    assert_eq!(n, 0, "server must close the corrupt connection");
    // ...while existing healthy connections keep serving.
    assert_eq!(svc.get_record("t", "a").unwrap().etag, 1);
    server.shutdown();
}

/// Read one complete frame from a raw socket, consuming it from `buf`.
fn read_raw_frame(
    raw: &mut std::net::TcpStream,
    buf: &mut Vec<u8>,
) -> (quaestor_net::wire::FrameKind, u64, Vec<u8>) {
    use quaestor_net::wire::{decode_frame, FrameDecode};
    let mut chunk = [0u8; 1024];
    loop {
        match decode_frame(buf) {
            FrameDecode::Frame(f) => {
                let out = (f.kind, f.request_id, f.body.to_vec());
                let size = f.size;
                buf.drain(..size);
                return out;
            }
            FrameDecode::Incomplete => {}
            FrameDecode::Corrupt(e) => panic!("corrupt reply: {e}"),
        }
        let n = std::io::Read::read(raw, &mut chunk).unwrap();
        assert!(n > 0, "server must answer, not close");
        buf.extend_from_slice(&chunk[..n]);
    }
}

#[test]
fn undecodable_request_body_is_answered_not_fatal() {
    use quaestor_net::wire::{encode_frame, FrameKind};
    let (server, _svc) = serve();
    // Hand-build a CRC-valid frame whose body is not a request.
    let mut frame = Vec::new();
    encode_frame(FrameKind::Request, 99, &[0xEE, 0xEE, 0xEE], &mut frame);
    let mut raw = std::net::TcpStream::connect(server.local_addr()).unwrap();
    raw.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
    raw.write_all(&frame).unwrap();
    let mut buf = Vec::new();
    let (kind, id, body) = read_raw_frame(&mut raw, &mut buf);
    assert_eq!(kind, FrameKind::ResponseErr);
    assert_eq!(id, 99, "the error correlates to the bad request's id");
    match quaestor_net::codec::decode_error(&body) {
        Ok(Error::BadRequest(msg)) => assert!(msg.contains("undecodable"), "{msg}"),
        other => panic!("expected BadRequest, got {other:?}"),
    }
    // And the same connection keeps serving afterwards.
    let mut ok_frame = Vec::new();
    encode_frame(
        FrameKind::Request,
        100,
        &quaestor_net::codec::encode_request(&Request::Flush),
        &mut ok_frame,
    );
    raw.write_all(&ok_frame).unwrap();
    let (kind, id, _body) = read_raw_frame(&mut raw, &mut buf);
    assert_eq!(kind, FrameKind::ResponseOk);
    assert_eq!(id, 100);
    server.shutdown();
}

/// A service exposing its own PubSub so the test can observe server-side
/// subscription lifetimes.
struct StreamingEcho {
    bus: Arc<quaestor_kv::PubSub>,
}

impl Service for StreamingEcho {
    fn call(&self, req: Request) -> Result<Response> {
        match req {
            Request::Subscribe { key } => Ok(Response::Stream(self.bus.subscribe(key.as_str()))),
            Request::Flush => Ok(Response::Flushed { lsn: 0 }),
            _ => Err(Error::BadRequest("echo only streams".into())),
        }
    }
}

#[test]
fn dropping_a_remote_subscription_releases_the_server_side_stream() {
    let bus = quaestor_kv::PubSub::new();
    let server =
        NetServer::bind("127.0.0.1:0", Arc::new(StreamingEcho { bus: bus.clone() })).expect("bind");
    let svc = RemoteService::connect(server.local_addr(), RemoteServiceConfig::default())
        .expect("connect");
    let key = QueryKey::record("t", "x");
    let sub = svc.subscribe(&key).unwrap();
    assert_eq!(bus.subscriber_count(key.as_str()), 1, "server-side live");
    // Stream works while held.
    bus.publish(key.as_str(), &b"m1"[..]);
    assert!(sub.recv_timeout(Duration::from_secs(5)).is_some());
    // Drop the client end; the next push finds no local subscriber, the
    // client sends StreamCancel, and the server forwarder releases the
    // origin subscription.
    drop(sub);
    let deadline = Instant::now() + Duration::from_secs(5);
    loop {
        bus.publish(key.as_str(), &b"poke"[..]);
        if bus.subscriber_count(key.as_str()) == 0 {
            break; // released
        }
        assert!(
            Instant::now() < deadline,
            "server kept the stream alive after the client dropped it"
        );
        std::thread::sleep(Duration::from_millis(20));
    }
    // The connection itself is still healthy.
    assert_eq!(svc.flush().unwrap(), 0);
    server.shutdown();
}

#[test]
fn metrics_layer_times_calls_on_every_pooled_connection() {
    let clock = ManualClock::new();
    let origin = QuaestorServer::with_defaults(clock);
    let server = NetServer::bind("127.0.0.1:0", origin).expect("bind");
    let svc = RemoteService::connect(
        server.local_addr(),
        RemoteServiceConfig {
            pool_size: 3,
            ..Default::default()
        },
    )
    .expect("connect");
    let layer = MetricsLayer::new(svc.clone());
    for i in 0..30 {
        layer
            .insert("t", &format!("r{i}"), doc! { "i" => i })
            .unwrap();
    }
    let inserts = || {
        *layer
            .metrics()
            .registry()
            .snapshot()
            .histogram("service.latency.insert")
            .unwrap()
    };
    let h = inserts();
    assert_eq!(h.count, 30);
    assert!(h.p50 <= h.p99);
    assert!(h.max > 0, "a real socket round trip takes > 1us");
    // Calls on reconnected slots are timed too.
    svc.disconnect_all();
    layer.insert("t", "after", doc! { "i" => 30 }).unwrap();
    assert_eq!(inserts().count, 31);
    server.shutdown();
}
