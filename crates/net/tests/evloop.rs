//! Event-loop-specific integration tests: slow-consumer backpressure,
//! multi-connection push fan-out, and shutdown idempotency across the
//! shards. The protocol conformance suite lives in `loopback.rs` and is
//! deliberately untouched by the event-loop rewrite — these tests cover
//! the behaviors that only exist *because* of it.

use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::Arc;
use std::time::{Duration, Instant};

use quaestor_common::{Error, Result};
use quaestor_core::{Request, Response, Service, ServiceExt};
use quaestor_net::wire::{decode_frame, encode_frame, FrameDecode, FrameKind};
use quaestor_net::{codec, NetServer, NetServerConfig, RemoteService, RemoteServiceConfig};
use quaestor_query::QueryKey;

/// A service exposing its own PubSub so tests can publish directly and
/// observe server-side subscription lifetimes.
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

/// Write one `Subscribe` request frame for `key` under `request_id`.
fn send_subscribe(raw: &mut TcpStream, request_id: u64, key: &QueryKey) {
    let mut frame = Vec::new();
    encode_frame(
        FrameKind::Request,
        request_id,
        &codec::encode_request(&Request::Subscribe { key: key.clone() }),
        &mut frame,
    );
    raw.write_all(&frame).unwrap();
}

/// Read one complete frame from a raw socket, consuming it from `buf`.
fn read_raw_frame(raw: &mut TcpStream, buf: &mut Vec<u8>) -> (FrameKind, u64, Vec<u8>) {
    let mut chunk = [0u8; 4096];
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
        let n = raw.read(&mut chunk).unwrap();
        assert!(n > 0, "server closed mid-frame");
        buf.extend_from_slice(&chunk[..n]);
    }
}

#[test]
fn slow_consumer_is_dropped_while_the_shard_keeps_serving() {
    let bus = quaestor_kv::PubSub::new();
    let server = NetServer::bind_with(
        "127.0.0.1:0",
        Arc::new(StreamingEcho { bus: bus.clone() }),
        NetServerConfig {
            shards: 1, // both connections on one shard: the drop must not stall it
            max_write_buffer: 64 * 1024,
        },
    )
    .expect("bind");
    let key = QueryKey::record("t", "slow");

    // The slow consumer: subscribes, reads the stream marker, then stops
    // reading forever.
    let mut slow = TcpStream::connect(server.local_addr()).unwrap();
    slow.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
    let mut slow_buf = Vec::new();
    send_subscribe(&mut slow, 1, &key);
    let (kind, id, _) = read_raw_frame(&mut slow, &mut slow_buf);
    assert_eq!((kind, id), (FrameKind::ResponseOk, 1));
    assert_eq!(bus.subscriber_count(key.as_str()), 1);

    // A healthy caller sharing the same shard.
    let healthy =
        RemoteService::connect(server.local_addr(), RemoteServiceConfig::default()).unwrap();
    assert_eq!(healthy.flush().unwrap(), 0);

    // Firehose the stream: far more than the socket buffers plus the
    // 64 KiB staged-write bound can absorb while nobody reads.
    let payload = vec![0x5a_u8; 1024];
    for _ in 0..8192 {
        bus.publish(key.as_str(), &payload[..]);
    }

    // The slow consumer's subscription must be released (connection
    // dropped), observed via publisher-side pruning.
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        bus.publish(key.as_str(), &payload[..]);
        if bus.subscriber_count(key.as_str()) == 0 {
            break;
        }
        assert!(
            Instant::now() < deadline,
            "slow consumer never dropped; staged queue should have tripped the bound"
        );
        std::thread::sleep(Duration::from_millis(20));
    }

    // And the shard it lived on is still fully responsive.
    let started = Instant::now();
    assert_eq!(healthy.flush().unwrap(), 0);
    assert!(
        started.elapsed() < Duration::from_secs(2),
        "shard wedged by the slow consumer"
    );
    server.shutdown();
}

#[test]
fn a_push_burst_fans_out_to_every_subscribed_connection() {
    let bus = quaestor_kv::PubSub::new();
    let server = NetServer::bind_with(
        "127.0.0.1:0",
        Arc::new(StreamingEcho { bus: bus.clone() }),
        NetServerConfig {
            shards: 2, // exercise cross-shard fan-out from one publish
            ..NetServerConfig::default()
        },
    )
    .expect("bind");
    let key = QueryKey::record("t", "fan");
    const CONNS: usize = 64;

    let mut conns: Vec<(TcpStream, Vec<u8>)> = (0..CONNS)
        .map(|_| {
            let mut raw = TcpStream::connect(server.local_addr()).unwrap();
            raw.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
            let mut buf = Vec::new();
            send_subscribe(&mut raw, 7, &key);
            let (kind, id, _) = read_raw_frame(&mut raw, &mut buf);
            assert_eq!((kind, id), (FrameKind::ResponseOk, 7));
            (raw, buf)
        })
        .collect();
    assert_eq!(bus.subscriber_count(key.as_str()), CONNS);

    // One write burst: three messages, fanned out to every connection.
    for msg in [&b"m1"[..], &b"m2"[..], &b"m3"[..]] {
        assert_eq!(bus.publish(key.as_str(), msg), CONNS);
    }
    for (raw, buf) in &mut conns {
        for expect in [b"m1", b"m2", b"m3"] {
            let (kind, id, body) = read_raw_frame(raw, buf);
            assert_eq!((kind, id), (FrameKind::StreamPush, 7));
            assert_eq!(body, expect, "pushes arrive in publish order");
        }
    }
    server.shutdown();
}

#[test]
fn shutdown_is_idempotent_across_shards_and_threads() {
    let bus = quaestor_kv::PubSub::new();
    let server = Arc::new(
        NetServer::bind_with(
            "127.0.0.1:0",
            Arc::new(StreamingEcho { bus: bus.clone() }),
            NetServerConfig {
                shards: 3,
                ..NetServerConfig::default()
            },
        )
        .expect("bind"),
    );
    // Live connections on every shard, one holding a subscription.
    let key = QueryKey::record("t", "x");
    let mut raw = TcpStream::connect(server.local_addr()).unwrap();
    raw.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
    let mut buf = Vec::new();
    send_subscribe(&mut raw, 1, &key);
    let _ = read_raw_frame(&mut raw, &mut buf);
    let svc = RemoteService::connect(server.local_addr(), RemoteServiceConfig::default()).unwrap();
    assert_eq!(svc.flush().unwrap(), 0);

    // Two concurrent shutdowns plus two sequential ones: exactly one
    // does the teardown, none hang, none panic.
    let s1 = server.clone();
    let s2 = server.clone();
    let t1 = std::thread::spawn(move || s1.shutdown());
    let t2 = std::thread::spawn(move || s2.shutdown());
    t1.join().unwrap();
    t2.join().unwrap();
    server.shutdown();
    server.shutdown();

    // The subscription died with its connection.
    let deadline = Instant::now() + Duration::from_secs(5);
    loop {
        bus.publish(key.as_str(), &b"poke"[..]);
        if bus.subscriber_count(key.as_str()) == 0 {
            break;
        }
        assert!(Instant::now() < deadline, "stream outlived shutdown");
        std::thread::sleep(Duration::from_millis(20));
    }
    // New connections are refused.
    assert!(
        TcpStream::connect_timeout(&server.local_addr(), Duration::from_millis(500)).is_err() || {
            // Some OSes accept into the dead listener's backlog; a
            // read then sees immediate EOF instead.
            let mut s =
                TcpStream::connect_timeout(&server.local_addr(), Duration::from_millis(500))
                    .unwrap();
            s.set_read_timeout(Some(Duration::from_secs(2))).unwrap();
            let mut one = [0u8; 1];
            matches!(s.read(&mut one), Ok(0) | Err(_))
        }
    );
}
