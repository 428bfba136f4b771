//! The `net` reproduce experiment: throughput and latency of the wire
//! protocol — in-process control vs real loopback TCP — swept over
//! connection count and pipeline depth.
//!
//! The paper's evaluation drives its systems with thousands of
//! concurrent HTTP connections (§6.1); this experiment measures the
//! transport our reproduction would serve them through. Pipeline depth
//! N means N concurrent callers share each pooled connection, keeping up
//! to N requests in flight — the server answers each read burst with a
//! single write, which is what makes deep pipelines pay.

use std::io::BufRead;
use std::path::Path;
use std::process::{Command, Stdio};

use quaestor_common::{raise_fd_limit, SystemClock};
use quaestor_core::{QuaestorServer, ServiceExt};
use quaestor_document::doc;
use quaestor_net::NetServer;
use quaestor_query::{Filter, Query};
use quaestor_sim::{net_loopback, NetLoopConfig};

use crate::experiments::Scale;

/// Connections the C10k soak holds (each with a live subscription).
pub const C10K_CONNECTIONS: usize = 10_000;
/// Matching writes in the soak's fan-out burst.
pub const C10K_BURST: usize = 3;

/// The continuous query the C10k swarm subscribes to. Built identically
/// by the server-side harness and the `--c10k-client` child process, so
/// the subscription key stays in sync without crossing the process
/// boundary.
pub fn c10k_query() -> Query {
    Query::table("c10k").filter(Filter::eq("tag", "burst"))
}

/// One measured configuration.
#[derive(Debug, Clone)]
pub struct NetBenchRow {
    /// `"in-process"` (control) or `"loopback"` (real sockets).
    pub mode: &'static str,
    /// Pooled connections.
    pub connections: usize,
    /// Concurrent callers per connection.
    pub pipeline_depth: usize,
    /// Completed operations (90% reads, 10% inserts).
    pub ops: usize,
    /// Wall-clock of the measured phase (µs).
    pub wall_us: u128,
    /// Operations per second.
    pub throughput: f64,
    /// Median per-op latency (µs).
    pub p50_us: u64,
    /// 99th-percentile per-op latency (µs).
    pub p99_us: u64,
}

/// Sweep `(connections, pipeline_depth)`; every configuration yields an
/// in-process row and a loopback row driven by the identical workload.
pub fn net_sweep(scale: Scale) -> Vec<NetBenchRow> {
    let (configs, ops_per_caller): (&[(usize, usize)], usize) = match scale {
        Scale::Quick => (&[(1, 1), (1, 16), (2, 16), (4, 16), (4, 32)], 300),
        Scale::Full => (
            &[(1, 1), (1, 16), (2, 16), (4, 16), (4, 32), (8, 32), (8, 64)],
            1_500,
        ),
    };
    // One discarded round first, so that the first row does not pay for
    // a cold process (its depth-1 p50 spread over 2x without it).
    net_loopback(NetLoopConfig {
        connections: 1,
        pipeline_depth: 1,
        ops_per_caller,
        write_every: 10,
    });
    let mut rows = Vec::new();
    for &(connections, pipeline_depth) in configs {
        let (local, remote) = net_loopback(NetLoopConfig {
            connections,
            pipeline_depth,
            ops_per_caller,
            write_every: 10,
        });
        for report in [local, remote] {
            rows.push(NetBenchRow {
                mode: report.mode,
                connections: report.connections,
                pipeline_depth: report.pipeline_depth,
                ops: report.ops,
                wall_us: report.wall_us,
                throughput: report.throughput(),
                p50_us: report.p50_us(),
                p99_us: report.p99_us(),
            });
        }
    }
    rows
}

/// Outcome of the two-process C10k soak.
#[derive(Debug, Clone)]
pub struct C10kRow {
    /// Connections requested of the client swarm.
    pub connections: usize,
    /// Connections whose subscribe handshake completed.
    pub subscribed: usize,
    /// `subscribed × burst`: the pushes the fan-out owes.
    pub expected: usize,
    /// `StreamPush` frames the swarm actually read back.
    pub delivered: usize,
    /// Client wall time to connect + subscribe the swarm (µs).
    pub connect_wall_us: u128,
    /// Client wall time from swarm-ready to last push read (µs) —
    /// includes the burst writes themselves.
    pub fanout_wall_us: u128,
}

impl C10kRow {
    /// Pushes delivered per second during the fan-out drain.
    pub fn push_rate(&self) -> f64 {
        if self.fanout_wall_us == 0 {
            0.0
        } else {
            self.delivered as f64 / (self.fanout_wall_us as f64 / 1e6)
        }
    }
}

/// Run the C10k soak: an event-loop server in this process, the 10k
/// subscriber swarm in a child (`<client_exe> --c10k-client <addr>
/// <conns>` — the reproduce binary re-execs itself). Two processes
/// because the soak needs ~10k fds on *each* side of the socket; one
/// process would breach a 20k `RLIMIT_NOFILE` ceiling that each half
/// fits under comfortably.
///
/// Protocol on the child's stdout: `ready <subscribed>` once the swarm
/// holds its subscriptions (the parent then fires the burst), then
/// `done <delivered> <connect_wall_us> <fanout_wall_us>`.
pub fn net_c10k(client_exe: &Path) -> std::io::Result<C10kRow> {
    raise_fd_limit();
    let to_io = |e: quaestor_common::Error| std::io::Error::other(e);
    let origin = QuaestorServer::with_defaults(SystemClock::shared());
    let server = NetServer::bind("127.0.0.1:0", origin.clone()).map_err(to_io)?;
    origin.query(&c10k_query()).map_err(to_io)?;

    let mut child = Command::new(client_exe)
        .arg("--c10k-client")
        .arg(server.local_addr().to_string())
        .arg(C10K_CONNECTIONS.to_string())
        .stdout(Stdio::piped())
        .spawn()?;
    let result = (|| -> std::io::Result<C10kRow> {
        let stdout = child.stdout.take().ok_or(std::io::ErrorKind::BrokenPipe)?;
        let mut lines = std::io::BufReader::new(stdout).lines();
        let mut next_fields = |tag: &str| -> std::io::Result<Vec<u128>> {
            let line = lines.next().ok_or(std::io::ErrorKind::UnexpectedEof)??;
            let mut parts = line.split_whitespace();
            if parts.next() != Some(tag) {
                return Err(std::io::Error::new(
                    std::io::ErrorKind::InvalidData,
                    format!("expected '{tag} ...' from c10k client, got '{line}'"),
                ));
            }
            parts
                .map(|p| {
                    p.parse::<u128>().map_err(|e| {
                        std::io::Error::new(std::io::ErrorKind::InvalidData, e.to_string())
                    })
                })
                .collect()
        };
        let ready = next_fields("ready")?;
        let subscribed = *ready.first().ok_or(std::io::ErrorKind::InvalidData)? as usize;
        // The swarm is holding its subscriptions: fire the burst. Every
        // insert enters the registered result set (an `Add`
        // notification), so each write is one push to every subscriber.
        for b in 0..C10K_BURST {
            origin
                .insert(
                    "c10k",
                    &format!("burst-{b}"),
                    doc! { "tag" => "burst", "b" => b as i64 },
                )
                .map_err(to_io)?;
        }
        let done = next_fields("done")?;
        let [delivered, connect_wall_us, fanout_wall_us] = done[..] else {
            return Err(std::io::Error::new(
                std::io::ErrorKind::InvalidData,
                "malformed 'done' line from c10k client",
            ));
        };
        Ok(C10kRow {
            connections: C10K_CONNECTIONS,
            subscribed,
            expected: subscribed * C10K_BURST,
            delivered: delivered as usize,
            connect_wall_us,
            fanout_wall_us,
        })
    })();
    let _ = child.wait();
    server.shutdown();
    result
}

/// Render the machine-readable `BENCH_net.json` payload (hand-rolled
/// like `matchidx_json`; the vendored serde stand-in has no derive).
pub fn net_json(rows: &[NetBenchRow]) -> String {
    let mut out = String::from("{\n  \"experiment\": \"net\",\n  \"rows\": [\n");
    for (i, r) in rows.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"mode\": \"{}\", \"connections\": {}, \"pipeline_depth\": {}, \
             \"ops\": {}, \"wall_us\": {}, \"req_per_s\": {:.0}, \
             \"p50_us\": {}, \"p99_us\": {}}}{}\n",
            r.mode,
            r.connections,
            r.pipeline_depth,
            r.ops,
            r.wall_us,
            r.throughput,
            r.p50_us,
            r.p99_us,
            if i + 1 == rows.len() { "" } else { "," }
        ));
    }
    out.push_str("  ]\n}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn net_json_is_valid_and_complete() {
        let rows = vec![
            NetBenchRow {
                mode: "in-process",
                connections: 1,
                pipeline_depth: 16,
                ops: 1000,
                wall_us: 5000,
                throughput: 200_000.0,
                p50_us: 3,
                p99_us: 20,
            },
            NetBenchRow {
                mode: "loopback",
                connections: 1,
                pipeline_depth: 16,
                ops: 1000,
                wall_us: 12_000,
                throughput: 83_333.0,
                p50_us: 90,
                p99_us: 400,
            },
        ];
        let json = net_json(&rows);
        let parsed: serde_json::Value = serde_json::from_str(&json).expect("valid json");
        let obj = parsed.as_object().unwrap();
        let arr = obj.get("rows").unwrap().as_array().unwrap();
        assert_eq!(arr.len(), 2);
        let second = arr[1].as_object().unwrap();
        assert_eq!(second.get("mode").unwrap().as_str().unwrap(), "loopback");
        assert_eq!(second.get("p99_us").unwrap().as_i64().unwrap(), 400);
        let first = arr[0].as_object().unwrap();
        assert_eq!(first.get("req_per_s").unwrap().as_i64().unwrap(), 200_000);
    }

    #[test]
    fn c10k_row_reports_push_rate() {
        let row = C10kRow {
            connections: 10_000,
            subscribed: 10_000,
            expected: 30_000,
            delivered: 30_000,
            connect_wall_us: 2_000_000,
            fanout_wall_us: 1_500_000,
        };
        assert!((row.push_rate() - 20_000.0).abs() < 1.0);
        assert_eq!(
            C10kRow {
                fanout_wall_us: 0,
                ..row
            }
            .push_rate(),
            0.0
        );
    }

    #[test]
    fn tiny_sweep_produces_paired_rows() {
        // A minimal real sweep (not Scale::Quick — keep unit tests fast).
        let (local, remote) = net_loopback(NetLoopConfig {
            connections: 1,
            pipeline_depth: 2,
            ops_per_caller: 25,
            write_every: 5,
        });
        assert_eq!(local.mode, "in-process");
        assert_eq!(remote.mode, "loopback");
        assert_eq!(local.ops, remote.ops);
    }
}
