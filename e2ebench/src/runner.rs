//! The closed loop: each load thread issues its stream's operations one
//! at a time, round-robin over its sessions, waiting for every reply.

use std::collections::{BTreeMap, HashMap, HashSet};
use std::sync::atomic::Ordering;
use std::time::Instant;

use parking_lot::Mutex;
use quaestor_client::{QueryOutcome, ReadOutcome};
use quaestor_core::{Request, Response, Service};
use quaestor_document::Value;
use quaestor_obs::MetricsSnapshot;
use quaestor_webcache::ServedBy;

use crate::probe::Call;
use crate::stack::{Session, Stack};
use crate::stats::{self_times, Staleness};
use crate::workload::{Catalog, Op, Spec, Stream, STEP_MS};

/// In the traced run, the first load thread roots a trace for one op in
/// this many, picked by a hash of the op's index so that every session
/// gets traced ops; the other threads stay untraced so the collector only
/// ever holds spans of the op in hand.
const TRACE_EVERY: u64 = 4;

/// Ops between samples of the EBF's fill ratio in the traced run.
const FILL_SAMPLE_EVERY: usize = 1_000;

/// Spans whose self time the per-layer metrics use.
const LAYER_SPANS: [&str; 3] = ["store.plan", "store.query", "wal.append"];

/// Spans whose whole duration the `repl` metrics use, for writes on the
/// replicated workload: the primary's `net.server` span (which holds the
/// semi-sync wait) and the shipping of the write's frames.
const REPL_SPANS: [&str; 2] = ["net.server", "repl.ship"];

/// Which part of a run a stream segment belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Phase {
    /// Untimed warm-up, part of set-up.
    Warmup,
    /// The measured phase, untraced.
    Timed,
    /// The replay of the timed stream with tracing on.
    Traced,
}

/// Counts that must repeat exactly when a single-thread stream is
/// replayed on an identical stack.
#[derive(Debug, Default, Clone, PartialEq, Eq)]
pub struct Counts {
    pub reads: u64,
    pub queries: u64,
    pub writes: u64,
    /// Reads and queries by who answered them.
    pub browser_served: u64,
    pub cdn_served: u64,
    pub origin_served: u64,
    /// Calls that left a session for the origin.
    pub origin_calls: u64,
    /// Revalidations and EBF refreshes, from the sessions' `ClientMetrics`.
    pub revalidations: u64,
    pub ebf_refreshes: u64,
}

/// Counter deltas over a phase, from the server's `Request::Metrics`
/// scrape and the caches', EBF's and WAL's own counters.
#[derive(Debug, Default, Clone)]
pub struct Scrape {
    pub origin_queries: u64,
    pub index_probes: u64,
    pub full_scans: u64,
    pub match_evaluations: u64,
    pub match_pruned: u64,
    pub query_invalidations: u64,
    pub cdn_purges: u64,
    pub browser_evictions: u64,
    pub ebf_inserts: u64,
    pub wal_frames: u64,
}

/// What only the traced replay measures.
#[derive(Debug, Default)]
pub struct Layers {
    /// Per op: latency minus time inside origin calls.
    pub client_self_ns: Vec<u64>,
    /// Per traced call: session-side call time minus server-side service time.
    pub transport_ns: Vec<u64>,
    /// Server-side service time by request kind.
    pub service_ns: BTreeMap<&'static str, Vec<u64>>,
    /// Self time (µs) of the layer spans, by span name.
    pub span_self_us: BTreeMap<&'static str, Vec<u64>>,
    /// Whole duration (µs) of the replication spans of writes, by name.
    pub repl_span_us: BTreeMap<&'static str, Vec<u64>>,
    pub record_ttls: Vec<u64>,
    pub query_ttls: Vec<u64>,
    pub response_bytes: u64,
    pub calls: u64,
    /// Reads and queries the EBF turned into revalidations, and those that
    /// came back with the version the session already held.
    pub revalidated_ops: u64,
    pub useless_revalidations: u64,
    pub ebf_fill_mean: f64,
    /// Mean latency of the first thread's untraced ops over that of its
    /// traced ops, in the same replay: traced ops/s over untraced ops/s.
    pub trace_overhead_ratio: f64,
    pub stale_read_ratio: f64,
    pub delta_violation_ratio: f64,
    pub staleness_counts: (u64, u64, u64, u64, u64),
}

/// Everything one phase measured.
#[derive(Debug, Default)]
pub struct PhaseResult {
    pub attempted: u64,
    pub completed: u64,
    pub failed: u64,
    pub first_error: Option<String>,
    /// Wall time from the first op issued to the last reply, all threads.
    pub wall_s: f64,
    /// Latencies in ns, sorted.
    pub read_ns: Vec<u64>,
    pub query_ns: Vec<u64>,
    pub write_ns: Vec<u64>,
    pub counts: Counts,
    pub scrape: Scrape,
    pub layers: Layers,
}

/// What a finished op handed back.
enum Done {
    Read(ReadOutcome),
    Query(QueryOutcome),
    Write,
}

/// Per-thread results, merged by [`drive`].
#[derive(Default)]
struct ThreadResult {
    attempted: u64,
    failed: u64,
    first_error: Option<String>,
    /// `(sum ns, ops)` of untraced and traced ops in the traced replay.
    untraced: (u64, u64),
    traced: (u64, u64),
    read_ns: Vec<u64>,
    query_ns: Vec<u64>,
    write_ns: Vec<u64>,
    counts: Counts,
    client_self_ns: Vec<u64>,
    span_self_us: BTreeMap<&'static str, Vec<u64>>,
    repl_span_us: BTreeMap<&'static str, Vec<u64>>,
    /// Acknowledged writes as (table, id, version), on the replicated
    /// workload only.
    acked: Vec<(u16, String, u64)>,
    revalidated_ops: u64,
    useless_revalidations: u64,
    fill_sum: f64,
    fill_samples: u64,
}

impl ThreadResult {
    /// Count an op that completed but failed a check.
    fn fail(&mut self, e: String) {
        self.failed += 1;
        self.first_error.get_or_insert(e);
    }
}

/// Run one phase of every load thread's stream on `stack`.
pub fn drive(
    stack: &Stack,
    spec: &Spec,
    streams: &[Stream],
    catalog: &Catalog,
    phase: Phase,
) -> Result<PhaseResult, String> {
    if phase == Phase::Traced {
        // Drop what set-up and warm-up left in the probes and collector.
        for session in stack.sessions.iter().flatten() {
            session.probe.take_log();
            session.probe.take_op();
        }
        if let Some(p) = &stack.server_probe {
            p.take_calls();
        }
        quaestor_obs::clear_collector();
    }
    let before = Snapshot::take(stack)?;
    let staleness = Mutex::new(Staleness::new(
        quaestor_client::ClientConfig::default().ebf_refresh_ms,
    ));
    let started = Instant::now();
    let results: Vec<ThreadResult> = std::thread::scope(|scope| {
        let handles: Vec<_> = streams
            .iter()
            .enumerate()
            .map(|(t, stream)| {
                let staleness = &staleness;
                scope.spawn(move || {
                    let ops = match phase {
                        Phase::Warmup => &stream.warmup,
                        Phase::Timed | Phase::Traced => &stream.timed,
                    };
                    thread_loop(stack, spec, catalog, stream, ops, t, phase, staleness)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("load thread panicked"))
            .collect()
    });
    let wall_s = started.elapsed().as_secs_f64();
    let after = Snapshot::take(stack)?;

    let mut out = PhaseResult {
        wall_s,
        scrape: after.scrape_since(&before),
        ..PhaseResult::default()
    };
    out.counts.origin_calls = after.origin_calls - before.origin_calls;
    out.counts.revalidations = after.revalidations - before.revalidations;
    out.counts.ebf_refreshes = after.ebf_refreshes - before.ebf_refreshes;
    let (mut fill_sum, mut fill_samples) = (0.0, 0);
    let (mut untraced, mut traced) = ((0, 0), (0, 0));
    let mut acked = Vec::new();
    for r in results {
        out.attempted += r.attempted;
        out.failed += r.failed;
        if out.first_error.is_none() {
            out.first_error = r.first_error;
        }
        untraced = (untraced.0 + r.untraced.0, untraced.1 + r.untraced.1);
        traced = (traced.0 + r.traced.0, traced.1 + r.traced.1);
        out.read_ns.extend(r.read_ns);
        out.query_ns.extend(r.query_ns);
        out.write_ns.extend(r.write_ns);
        let c = &mut out.counts;
        c.reads += r.counts.reads;
        c.queries += r.counts.queries;
        c.writes += r.counts.writes;
        c.browser_served += r.counts.browser_served;
        c.cdn_served += r.counts.cdn_served;
        c.origin_served += r.counts.origin_served;
        let l = &mut out.layers;
        l.client_self_ns.extend(r.client_self_ns);
        for (name, v) in r.span_self_us {
            l.span_self_us.entry(name).or_default().extend(v);
        }
        for (name, v) in r.repl_span_us {
            l.repl_span_us.entry(name).or_default().extend(v);
        }
        acked.extend(r.acked);
        l.revalidated_ops += r.revalidated_ops;
        l.useless_revalidations += r.useless_revalidations;
        fill_sum += r.fill_sum;
        fill_samples += r.fill_samples;
    }
    if let Some(replica) = stack.replica() {
        check_replica(replica, catalog, &acked, &mut out);
    }
    out.completed = out.attempted - out.failed;
    out.read_ns.sort_unstable();
    out.query_ns.sort_unstable();
    out.write_ns.sort_unstable();
    if phase == Phase::Warmup && out.failed > 0 {
        return Err(format!(
            "{} warm-up operations failed (first: {})",
            out.failed,
            out.first_error.unwrap_or_default()
        ));
    }
    if phase == Phase::Traced {
        let l = &mut out.layers;
        l.ebf_fill_mean = if fill_samples == 0 {
            0.0
        } else {
            fill_sum / fill_samples as f64
        };
        let mean = |(ns, n): (u64, u64)| ns as f64 / n.max(1) as f64;
        l.trace_overhead_ratio = mean(untraced) / mean(traced).max(f64::MIN_POSITIVE);
        let s = staleness.into_inner();
        l.stale_read_ratio = s.stale_read_ratio();
        l.delta_violation_ratio = s.delta_violation_ratio();
        l.staleness_counts = s.counts();
        collect_calls(stack, l);
    }
    Ok(out)
}

/// Fold the probes' call logs into TTLs, bytes, service times and the
/// transport split (session-side call time minus server-side service
/// time, paired in order within each traced op).
fn collect_calls(stack: &Stack, l: &mut Layers) {
    let mut client: HashMap<u64, Vec<Call>> = HashMap::new();
    for session in stack.sessions.iter().flatten() {
        let log = session.probe.take_log();
        l.record_ttls.extend(log.record_ttls);
        l.query_ttls.extend(log.query_ttls);
        l.response_bytes += log.response_bytes;
        l.calls += log.calls.len() as u64;
        for call in log.calls.into_iter().filter(|c| c.trace_id != 0) {
            client.entry(call.trace_id).or_default().push(call);
        }
    }
    let mut server: HashMap<u64, Vec<Call>> = HashMap::new();
    for call in stack.server_probe.iter().flat_map(|p| p.take_calls()) {
        l.service_ns.entry(call.kind).or_default().push(call.ns);
        if call.trace_id != 0 {
            server.entry(call.trace_id).or_default().push(call);
        }
    }
    for (trace, calls) in client {
        let Some(served) = server.get(&trace) else {
            continue;
        };
        for (c, s) in calls.iter().zip(served) {
            if c.kind == s.kind {
                l.transport_ns.push(c.ns.saturating_sub(s.ns));
            }
        }
    }
}

#[allow(clippy::too_many_arguments)]
fn thread_loop(
    stack: &Stack,
    spec: &Spec,
    catalog: &Catalog,
    stream: &Stream,
    ops: &[Op],
    t: usize,
    phase: Phase,
    staleness: &Mutex<Staleness>,
) -> ThreadResult {
    let sessions = &stack.sessions[t];
    let traced = phase == Phase::Traced;
    // With one load thread nothing writes between an op and the check
    // after it, so an origin answer must equal the store's current state.
    let exact = spec.threads == 1;
    let mut r = ThreadResult::default();
    // Per session: the last version (record) or ETag (query) it was handed.
    let mut held: Vec<HashMap<(bool, u16, u32), u64>> = vec![HashMap::new(); sessions.len()];
    for (i, op) in ops.iter().enumerate() {
        let s = i % sessions.len();
        let session = &sessions[s];
        let now = stack.clock.advance(STEP_MS).as_millis();
        let sampled = traced && t == 0 && spread(i as u64).is_multiple_of(TRACE_EVERY);
        let started = Instant::now();
        let root = sampled.then(|| quaestor_obs::Trace::start("bench.op"));
        let result = exec(session, op, catalog, stream);
        let trace_id = root.as_ref().and_then(|g| g.context()).map(|c| c.trace_id);
        drop(root);
        let mut ns = started.elapsed().as_nanos() as u64;
        r.attempted += 1;
        let calls = session.probe.take_op();
        if traced {
            ns = ns.saturating_sub(calls.overhead_ns);
            r.client_self_ns.push(ns.saturating_sub(calls.call_ns));
            if let Some(trace_id) = trace_id {
                let spans = quaestor_obs::spans_for(trace_id);
                quaestor_obs::clear_collector();
                for (name, us) in self_times(&spans) {
                    if LAYER_SPANS.contains(&name) {
                        r.span_self_us.entry(name).or_default().push(us);
                    }
                }
                if spec.replicated && !op.is_read() {
                    for span in spans.iter().filter(|s| REPL_SPANS.contains(&s.name)) {
                        r.repl_span_us
                            .entry(span.name)
                            .or_default()
                            .push(span.dur_us);
                    }
                }
            }
            if t == 0 && i % FILL_SAMPLE_EVERY == 0 {
                r.fill_sum += stack.server.ebf().union_snapshot().0.load();
                r.fill_samples += 1;
            }
        }
        if traced && t == 0 {
            let bucket = if sampled {
                &mut r.traced
            } else {
                &mut r.untraced
            };
            *bucket = (bucket.0 + ns, bucket.1 + 1);
        }
        let done = match result.and_then(|d| check(op, catalog, d)) {
            Ok(d) => d,
            Err(e) => {
                r.fail(format!("op {i} of thread {t} ({op:?}): {e}"));
                continue;
            }
        };
        let table_name = |table: u16| catalog.tables[table as usize].as_str();
        match (op, &done) {
            (Op::Read { table, doc }, Done::Read(o)) => {
                r.read_ns.push(ns);
                r.counts.reads += 1;
                serve(&mut r.counts, spec.caches, o.served_by);
                if traced {
                    let prev = held[s].insert((false, *table, *doc), o.version);
                    note_revalidation(&mut r, o.revalidated, prev, o.version);
                    let id = &catalog.doc_ids[*doc as usize];
                    if exact && o.served_by == ServedBy::Origin {
                        // Nothing wrote since the origin answered.
                        let truth = stack
                            .server
                            .database()
                            .table(table_name(*table))
                            .ok()
                            .and_then(|t| t.get(id))
                            .map(|rec| rec.version);
                        if truth != Some(o.version) {
                            r.fail(format!(
                                "origin read of {id} returned version {}, the store holds \
                                 {truth:?}",
                                o.version
                            ));
                        }
                    }
                    staleness
                        .lock()
                        .read(table_name(*table), id, o.version, now);
                }
            }
            (Op::Query { table, query }, Done::Query(o)) => {
                r.query_ns.push(ns);
                r.counts.queries += 1;
                serve(&mut r.counts, spec.caches, o.served_by);
                if traced {
                    let prev = held[s].insert((true, *table, *query as u32), o.etag);
                    note_revalidation(&mut r, o.revalidated, prev, o.etag);
                    let q = &catalog.queries[*table as usize][*query as usize];
                    // Ground truth straight from the in-process origin,
                    // outside the op's timing and trace.
                    match ground_truth(stack, q) {
                        Ok((truth, ids)) => {
                            staleness.lock().query(o.etag, truth);
                            if exact && o.served_by == ServedBy::Origin {
                                // Nothing wrote since the origin answered,
                                // so its answer is the current result.
                                let mut got: Vec<&str> = o
                                    .docs
                                    .iter()
                                    .filter_map(|d| d.get("_id").and_then(Value::as_str))
                                    .collect();
                                got.sort_unstable();
                                if o.etag != truth || got != ids {
                                    r.fail(format!(
                                        "origin answer to {q:?}: ETag {} and {} members, the \
                                         store has ETag {truth} and {} members",
                                        o.etag,
                                        got.len(),
                                        ids.len()
                                    ));
                                }
                            }
                        }
                        Err(e) => r.fail(format!("ground truth of {q:?}: {e}")),
                    }
                }
            }
            (_, Done::Write) => {
                r.write_ns.push(ns);
                r.counts.writes += 1;
                let Some(version) = calls.written else {
                    continue;
                };
                if traced || spec.replicated {
                    let (table, id) = write_target(op, catalog, stream);
                    if traced {
                        if let Op::Update { doc, .. } = op {
                            held[s].insert((false, table, *doc), version);
                        }
                        staleness.lock().write(table_name(table), &id, version, now);
                    }
                    if spec.replicated {
                        r.acked.push((table, id, version));
                    }
                }
            }
            _ => unreachable!("exec answers each op with its own kind"),
        }
    }
    r
}

/// A fixed bijective mix of an op index (splitmix64's finaliser).
fn spread(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

fn serve(c: &mut Counts, caches: bool, served_by: ServedBy) {
    match served_by {
        ServedBy::Origin => c.origin_served += 1,
        // With caches on, layer 0 is the browser cache and layer 1 the CDN.
        ServedBy::Layer(0) if caches => c.browser_served += 1,
        ServedBy::Layer(_) => c.cdn_served += 1,
    }
}

fn note_revalidation(r: &mut ThreadResult, revalidated: bool, prev: Option<u64>, got: u64) {
    if revalidated {
        r.revalidated_ops += 1;
        if prev == Some(got) {
            r.useless_revalidations += 1;
        }
    }
}

/// Issue one op through `session`.
fn exec(
    session: &Session,
    op: &Op,
    catalog: &Catalog,
    stream: &Stream,
) -> quaestor_common::Result<Done> {
    let client = &session.client;
    let table = |t: u16| catalog.tables[t as usize].as_str();
    match *op {
        Op::Read { table: t, doc } => client
            .read_record(table(t), &catalog.doc_ids[doc as usize])
            .map(Done::Read),
        Op::Query { table: t, query } => client
            .query(&catalog.queries[t as usize][query as usize])
            .map(Done::Query),
        Op::Insert { table: t, n } => {
            let (id, doc) = &stream.inserts[n as usize];
            client.insert(table(t), id, doc.clone())
        }
        .map(|()| Done::Write),
        Op::Update {
            table: t,
            doc,
            category,
        } => {
            let update = match category {
                None => &catalog.bump,
                Some(c) => &catalog.moves[c as usize],
            };
            client
                .update(table(t), &catalog.doc_ids[doc as usize], update)
                .map(|()| Done::Write)
        }
    }
}

/// Check an op's output: a read returns the record asked for; every
/// document of a query result carried inline matches the query; an
/// id-list result assembled record by record holds distinct records, each
/// matching the query unless some stream moves it to another category
/// (the member may then be newer than the list, which Δ-atomicity allows).
fn check(op: &Op, catalog: &Catalog, done: Done) -> quaestor_common::Result<Done> {
    let bad = |m: String| Err(quaestor_common::Error::Internal(m));
    match (op, &done) {
        (Op::Read { doc, .. }, Done::Read(o)) => {
            let want = catalog.doc_ids[*doc as usize].as_str();
            let got = o.doc.get("_id").and_then(Value::as_str);
            if got != Some(want) || o.version == 0 {
                return bad(format!(
                    "read of {want} returned {got:?} at version {}",
                    o.version
                ));
            }
        }
        (Op::Query { table, query }, Done::Query(o)) => {
            let q = &catalog.queries[*table as usize][*query as usize];
            // Id-list results are assembled from records fetched one by one,
            // which may be newer than the list; inline results are one
            // snapshot and must match as a whole.
            let inline = o.record_fetches.is_empty();
            if !inline && o.docs.len() != o.record_fetches.len() {
                return bad(format!(
                    "query {q:?} assembled {} documents from {} fetches",
                    o.docs.len(),
                    o.record_fetches.len()
                ));
            }
            let mut seen = HashSet::new();
            for d in &o.docs {
                let id = d.get("_id").and_then(Value::as_str);
                if !id.is_some_and(|id| seen.insert(id)) {
                    return bad(format!(
                        "query {q:?} returned {id:?} without an id or twice"
                    ));
                }
                let movable = !inline && id.is_some_and(|id| catalog.moved(*table, id));
                if !movable && !quaestor_query::matches(&q.filter, d) {
                    return bad(format!("query {q:?} returned non-matching {d:?}"));
                }
            }
        }
        _ => {}
    }
    Ok(done)
}

/// The table and id an insert or update writes.
fn write_target(op: &Op, catalog: &Catalog, stream: &Stream) -> (u16, String) {
    match *op {
        Op::Insert { table, n } => (table, stream.inserts[n as usize].0.clone()),
        Op::Update { table, doc, .. } => (table, catalog.doc_ids[doc as usize].clone()),
        Op::Read { .. } | Op::Query { .. } => unreachable!("not a write: {op:?}"),
    }
}

/// The current ETag and sorted member ids of `q`, read in-process.
fn ground_truth(
    stack: &Stack,
    q: &quaestor_query::Query,
) -> quaestor_common::Result<(u64, Vec<String>)> {
    let etag = stack.server.current_query_etag(q)?;
    let mut ids: Vec<String> = stack
        .server
        .database()
        .query(q)?
        .iter()
        .filter_map(|d| d.get("_id").and_then(Value::as_str).map(str::to_owned))
        .collect();
    ids.sort_unstable();
    Ok((etag, ids))
}

/// Every acknowledged write must be on the replica, at its acknowledged
/// version or a later one: with `ack_replicas = 1` the primary acks only
/// after the replica has applied and fsynced it. Each missing write
/// counts as a failed operation.
fn check_replica(
    replica: &quaestor_core::QuaestorServer,
    catalog: &Catalog,
    acked: &[(u16, String, u64)],
    out: &mut PhaseResult,
) {
    for (table, id, version) in acked {
        let name = &catalog.tables[*table as usize];
        let held = replica
            .database()
            .table(name)
            .ok()
            .and_then(|t| t.get(id))
            .map(|rec| rec.version);
        if held.is_none_or(|v| v < *version) {
            out.failed += 1;
            out.first_error.get_or_insert(format!(
                "the replica holds {name}/{id} at {held:?}, acknowledged at version {version}"
            ));
        }
    }
    println!("replica check: {} acknowledged writes", acked.len());
}

/// Counter readings at one instant.
struct Snapshot {
    metrics: MetricsSnapshot,
    origin_calls: u64,
    revalidations: u64,
    ebf_refreshes: u64,
    cdn_purges: u64,
    browser_evictions: u64,
    ebf_inserts: u64,
    wal_lsn: u64,
}

impl Snapshot {
    fn take(stack: &Stack) -> Result<Snapshot, String> {
        // The scrape path an operator would use, answered in-process so
        // it is neither an origin call of a session nor part of any op.
        let metrics = match stack.server.call(Request::Metrics) {
            Ok(Response::Metrics(m)) => m,
            other => return Err(format!("metrics scrape failed: {other:?}")),
        };
        let sessions = || stack.sessions.iter().flatten();
        Ok(Snapshot {
            metrics,
            origin_calls: sessions().map(|s| s.probe.calls()).sum(),
            revalidations: sessions()
                .map(|s| s.client.metrics().revalidations.load(Ordering::Relaxed))
                .sum(),
            ebf_refreshes: sessions()
                .map(|s| s.client.metrics().ebf_refreshes.load(Ordering::Relaxed))
                .sum(),
            cdn_purges: stack.cdn.as_ref().map_or(0, |c| c.stats().purges),
            browser_evictions: sessions()
                .map(|s| s.client.browser_cache().stats().evictions)
                .sum(),
            ebf_inserts: stack.server.ebf().stats().inserted,
            wal_lsn: stack.server.durability().map_or(0, |d| d.last_lsn()),
        })
    }

    fn counter(&self, name: &str) -> u64 {
        self.metrics.counter(name).unwrap_or(0)
    }

    fn scrape_since(&self, before: &Snapshot) -> Scrape {
        let d = |name: &str| self.counter(name) - before.counter(name);
        Scrape {
            origin_queries: d("server.query_reads"),
            index_probes: d("server.query_index_probes"),
            full_scans: d("server.query_full_scans"),
            match_evaluations: d("server.match_evaluations"),
            match_pruned: d("server.match_evaluations_pruned"),
            query_invalidations: d("server.query_invalidations"),
            cdn_purges: self.cdn_purges - before.cdn_purges,
            browser_evictions: self.browser_evictions - before.browser_evictions,
            ebf_inserts: self.ebf_inserts - before.ebf_inserts,
            wal_frames: self.wal_lsn - before.wal_lsn,
        }
    }
}
