//! The benchmark's workloads and their seeded operation streams.
//!
//! Each stream is generated in full before anything is timed, from the
//! seed alone, as compact index records; the documents, queries and
//! updates they point at are built once up front, so the timed loop only
//! dispatches.

use std::collections::HashSet;

use quaestor_document::{Document, Update};
use quaestor_query::Query;
use quaestor_workload::{OpKind, OperationMix, WorkloadConfig, Zipfian};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Logical milliseconds the shared clock advances per operation: 1 000
/// operations per default Δ of one second, whatever the machine's speed.
pub const STEP_MS: u64 = 1;

/// One benchmark workload.
#[derive(Debug, Clone, Copy)]
pub struct Spec {
    /// Name on the command line.
    pub name: &'static str,
    /// Dataset and operation mix.
    pub data: WorkloadConfig,
    /// Browser caches, EBF and CDN on (`false`: every op goes to origin).
    pub caches: bool,
    /// Load threads, each with its own connection.
    pub threads: usize,
    /// Sessions per load thread, served round-robin.
    pub sessions: usize,
    /// Timed operations per `--seconds` second, sized so that one run
    /// measures about `--seconds` on a 2-core box.
    pub ops_per_second: usize,
    /// Length of the untimed stretch of the stream before the timed
    /// phase. Warm-up issues only its reads and queries: they fill the
    /// caches as well, and set-up then waits on no fsync'd write (on
    /// `update-heavy`, ~2 000 of them made `setup_s` spread 0.39 over ten
    /// seeds) and no semi-sync ack.
    pub warmup_ops: usize,
    /// Serve through a primary `ReplNode` with one in-process replica and
    /// `ack_replicas = 1` instead of a plain `NetServer`.
    pub replicated: bool,
}

/// The workloads, in the order `BENCHMARK.json` lists them.
pub fn specs() -> [Spec; 4] {
    let paper = WorkloadConfig::default();
    // One table of 2 000 documents and 100 queries: small enough that
    // each browser cache holds it whole, and that the replication tail,
    // which re-reads its WAL segment from the start on every poll, stays
    // cheap on the replicated workload.
    let small = WorkloadConfig {
        tables: 1,
        docs_per_table: 2_000,
        queries_per_table: 100,
        ..paper
    };
    [
        Spec {
            name: "read-heavy",
            data: paper,
            caches: true,
            threads: 1,
            sessions: 8,
            ops_per_second: 25_000,
            warmup_ops: 16_000,
            replicated: false,
        },
        Spec {
            name: "uncached",
            data: paper,
            caches: false,
            threads: 2,
            sessions: 1,
            ops_per_second: 16_000,
            warmup_ops: 4_000,
            replicated: false,
        },
        Spec {
            name: "update-heavy",
            data: WorkloadConfig {
                mix: OperationMix::with_update_rate(0.5),
                ..small
            },
            caches: true,
            threads: 1,
            sessions: 8,
            ops_per_second: 10_000,
            warmup_ops: 4_000,
            replicated: false,
        },
        Spec {
            name: "replicated",
            data: small,
            caches: false,
            threads: 2,
            sessions: 1,
            ops_per_second: 4_000,
            warmup_ops: 4_000,
            replicated: true,
        },
    ]
}

/// One operation, as indices into [`Catalog`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Op {
    /// Read record `doc` of `table`.
    Read { table: u16, doc: u32 },
    /// Run query `query` of `table`.
    Query { table: u16, query: u16 },
    /// Insert the `n`-th new document of this thread's stream.
    Insert { table: u16, n: u32 },
    /// Bump `doc`'s counter (`category: None`) or move it to `category`.
    Update {
        table: u16,
        doc: u32,
        category: Option<u32>,
    },
}

impl Op {
    /// Whether the op is a record read or a query.
    pub fn is_read(&self) -> bool {
        matches!(self, Op::Read { .. } | Op::Query { .. })
    }
}

/// Everything the ops point at, built before timing.
#[derive(Debug)]
pub struct Catalog {
    /// Table names.
    pub tables: Vec<String>,
    /// Document ids of the initial dataset.
    pub doc_ids: Vec<String>,
    /// `queries[table][q]`.
    pub queries: Vec<Vec<Query>>,
    /// The counter bump.
    pub bump: Update,
    /// `moves[c]` sets `category` to `c`.
    pub moves: Vec<Update>,
    /// `(table, doc)` of every document some stream moves to another
    /// category, warm-up included.
    pub moved: HashSet<(u16, u32)>,
}

impl Catalog {
    /// Build the catalog of a dataset and the streams that run on it.
    pub fn new(data: &WorkloadConfig, streams: &[Stream]) -> Catalog {
        let moved = streams
            .iter()
            .flat_map(|s| s.warmup.iter().chain(&s.timed))
            .filter_map(|op| match *op {
                Op::Update {
                    table,
                    doc,
                    category: Some(_),
                } => Some((table, doc)),
                _ => None,
            })
            .collect();
        Catalog {
            tables: (0..data.tables).map(WorkloadConfig::table_name).collect(),
            doc_ids: (0..data.docs_per_table)
                .map(WorkloadConfig::doc_id)
                .collect(),
            queries: (0..data.tables)
                .map(|t| {
                    (0..data.queries_per_table)
                        .map(|q| data.make_query(t, q))
                        .collect()
                })
                .collect(),
            bump: Update::new().inc("counter", 1.0),
            moves: (0..data.category_domain())
                .map(|c| Update::new().set("category", c as i64))
                .collect(),
            moved,
        }
    }

    /// Whether some stream moves document `id` of `table` to another
    /// category.
    pub fn moved(&self, table: u16, id: &str) -> bool {
        self.doc_ids
            .binary_search_by(|d| d.as_str().cmp(id))
            .is_ok_and(|doc| self.moved.contains(&(table, doc as u32)))
    }
}

/// The operations one load thread issues: warm-up first, then the timed
/// phase. Inserted documents are pre-built alongside.
#[derive(Debug, Clone)]
pub struct Stream {
    /// Warm-up operations.
    pub warmup: Vec<Op>,
    /// Timed operations.
    pub timed: Vec<Op>,
    /// `inserts[n]` is the id and document of `Op::Insert { n, .. }`;
    /// ids carry the thread's number, so threads never collide.
    pub inserts: Vec<(String, Document)>,
}

/// The seeded streams of every load thread of `spec`, `timed_ops` timed
/// operations in total.
pub fn streams(spec: &Spec, seed: u64, timed_ops: usize) -> Vec<Stream> {
    (0..spec.threads)
        .map(|t| {
            let mut rng = StdRng::seed_from_u64(seed ^ (0x9E37_79B9_7F4A_7C15 * (t as u64 + 1)));
            let mut gen = Generator::new(&spec.data);
            let warmup = (0..spec.warmup_ops / spec.threads)
                .map(|_| gen.next(&mut rng))
                .filter(Op::is_read)
                .collect();
            let timed = (0..timed_ops / spec.threads)
                .map(|_| gen.next(&mut rng))
                .collect();
            let inserts = gen
                .inserts
                .into_iter()
                .enumerate()
                .map(|(n, doc)| (format!("ins{t}-{n:07}"), doc))
                .collect();
            Stream {
                warmup,
                timed,
                inserts,
            }
        })
        .collect()
}

/// Samples ops the way `quaestor_workload::WorkloadGenerator::next_op`
/// does (Zipf over tables, scrambled Zipf over keys, Zipf over queries;
/// updates alternate counter bumps and category moves), but as compact
/// indices into [`Catalog`] rather than owned `Operation`s: a stream of
/// 500k owned operations would dominate `peak_rss_mib`, and insert ids
/// must be unique per load thread, which `next_op`'s single counter is not.
struct Generator {
    data: WorkloadConfig,
    table_chooser: Zipfian,
    key_chooser: Zipfian,
    query_chooser: Zipfian,
    inserts: Vec<Document>,
}

impl Generator {
    fn new(data: &WorkloadConfig) -> Generator {
        Generator {
            data: *data,
            table_chooser: Zipfian::new(data.tables, data.zipf_theta),
            key_chooser: Zipfian::scrambled(data.docs_per_table, data.zipf_theta),
            query_chooser: Zipfian::new(data.queries_per_table, data.zipf_theta),
            inserts: Vec::new(),
        }
    }

    fn next(&mut self, rng: &mut StdRng) -> Op {
        let kind = self.data.mix.sample(rng);
        let table = self.table_chooser.sample(rng) as u16;
        match kind {
            OpKind::Read => Op::Read {
                table,
                doc: self.key_chooser.sample(rng) as u32,
            },
            OpKind::Query => Op::Query {
                table,
                query: self.query_chooser.sample(rng) as u16,
            },
            OpKind::Insert => {
                let n = self.inserts.len();
                let doc = self.data.make_doc(self.data.docs_per_table + n + 1, rng);
                self.inserts.push(doc);
                Op::Insert { table, n: n as u32 }
            }
            OpKind::Update | OpKind::Delete => {
                let doc = self.key_chooser.sample(rng) as u32;
                let category = if rng.gen_bool(0.5) {
                    None
                } else {
                    Some(rng.gen_range(0..self.data.category_domain()) as u32)
                };
                Op::Update {
                    table,
                    doc,
                    category,
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn streams_are_a_function_of_the_seed() {
        let spec = specs()[2];
        let a = streams(&spec, 7, 2_000);
        let b = streams(&spec, 7, 2_000);
        let c = streams(&spec, 8, 2_000);
        assert_eq!(a[0].timed, b[0].timed);
        assert_eq!(a[0].warmup, b[0].warmup);
        assert_ne!(a[0].timed, c[0].timed);
        let writes = a[0]
            .timed
            .iter()
            .filter(|op| matches!(op, Op::Update { .. }))
            .count();
        assert!(
            (800..1_200).contains(&writes),
            "update-heavy is half writes: {writes}"
        );
    }

    #[test]
    fn threads_get_distinct_streams_and_insert_ids() {
        let spec = specs()[1];
        let s = streams(&spec, 1, 20_000);
        assert_eq!(s.len(), 2);
        assert_ne!(s[0].timed, s[1].timed);
        assert_ne!(s[0].inserts[0].0, s[1].inserts[0].0);
        let inserts = s[0]
            .timed
            .iter()
            .filter(|op| matches!(op, Op::Insert { .. }))
            .count();
        assert!(inserts > 0 && inserts <= s[0].inserts.len());
    }
}
