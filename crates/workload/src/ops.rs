//! Dataset population and request sampling.

use quaestor_document::{Document, Update, Value};
use quaestor_query::{Filter, Query};
use rand::Rng;

use crate::mix::{OpKind, OperationMix};
use crate::zipf::Zipfian;

/// One sampled request.
#[derive(Debug, Clone)]
pub enum Operation {
    /// Key-based record read.
    Read {
        /// Target table.
        table: String,
        /// Primary key.
        id: String,
    },
    /// Query execution.
    Query(Query),
    /// Insert a fresh record.
    Insert {
        /// Target table.
        table: String,
        /// Primary key.
        id: String,
        /// Document body.
        document: Document,
    },
    /// Partial update.
    Update {
        /// Target table.
        table: String,
        /// Primary key.
        id: String,
        /// Update operators.
        update: Update,
    },
    /// Delete.
    Delete {
        /// Target table.
        table: String,
        /// Primary key.
        id: String,
    },
}

/// Dataset & sampling configuration, defaulting to the paper's layout.
#[derive(Debug, Clone, Copy)]
pub struct WorkloadConfig {
    /// Number of tables ("10 database tables").
    pub tables: usize,
    /// Documents per table ("each with 10,000 documents").
    pub docs_per_table: usize,
    /// Distinct queries per table ("100 distinct queries per table").
    pub queries_per_table: usize,
    /// Average result cardinality ("initially return on average 10
    /// documents"); controls the category-value domain.
    pub avg_result_size: usize,
    /// Zipf skew for key/query/table choice.
    pub zipf_theta: f64,
    /// Operation mix.
    pub mix: OperationMix,
}

impl Default for WorkloadConfig {
    fn default() -> Self {
        WorkloadConfig {
            tables: 10,
            docs_per_table: 10_000,
            queries_per_table: 100,
            avg_result_size: 10,
            zipf_theta: 0.8,
            mix: OperationMix::read_heavy(),
        }
    }
}

impl WorkloadConfig {
    /// Category domain size: with `docs_per_table` docs uniformly
    /// assigned to this many categories, each category holds
    /// `avg_result_size` docs on average.
    pub fn category_domain(&self) -> usize {
        (self.docs_per_table / self.avg_result_size).max(1)
    }

    /// Table name for index `i`.
    pub fn table_name(i: usize) -> String {
        format!("table{i}")
    }

    /// Document id for index `i`.
    pub fn doc_id(i: usize) -> String {
        format!("doc{i:07}")
    }

    /// The document for id `i`: a category field (queried), a counter, a
    /// tag list and some payload.
    pub fn make_doc<R: Rng + ?Sized>(&self, i: usize, rng: &mut R) -> Document {
        let category = (i % self.category_domain()) as i64;
        // Room for the `_id` the store adds, so the record is stored in
        // this allocation.
        let mut d = Document::with_capacity(5);
        d.insert("category", Value::Int(category));
        d.insert("counter", Value::Int(0));
        d.insert("payload", Value::str(format!("{:032x}", rng.gen::<u128>())));
        d.insert(
            "tags",
            Value::array([
                Value::str(format!("tag{}", i % 50)),
                Value::str(format!("tag{}", (i / 7) % 50)),
            ]),
        );
        d
    }

    /// The `q`-th query of a table: an equality match on `category`
    /// (values `0..queries_per_table`, each holding ~`avg_result_size`
    /// documents).
    pub fn make_query(&self, table: usize, q: usize) -> Query {
        Query::table(Self::table_name(table))
            .filter(Filter::eq("category", (q % self.category_domain()) as i64))
    }
}

/// Samples [`Operation`]s per the config; owns the Zipfian choosers.
#[derive(Debug, Clone)]
pub struct WorkloadGenerator {
    config: WorkloadConfig,
    table_chooser: Zipfian,
    key_chooser: Zipfian,
    query_chooser: Zipfian,
    insert_counter: usize,
}

impl WorkloadGenerator {
    /// Build choosers for a config.
    pub fn new(config: WorkloadConfig) -> WorkloadGenerator {
        WorkloadGenerator {
            table_chooser: Zipfian::new(config.tables, config.zipf_theta),
            key_chooser: Zipfian::scrambled(config.docs_per_table, config.zipf_theta),
            query_chooser: Zipfian::new(config.queries_per_table, config.zipf_theta),
            insert_counter: 0,
            config,
        }
    }

    /// The config in use.
    pub fn config(&self) -> &WorkloadConfig {
        &self.config
    }

    /// All `(table, id, doc)` triples of the initial dataset
    /// (deterministic given the RNG).
    pub fn dataset<R: Rng + ?Sized>(
        &self,
        rng: &mut R,
    ) -> impl Iterator<Item = (String, String, Document)> + '_ {
        let docs: Vec<(String, String, Document)> = (0..self.config.tables)
            .flat_map(|t| (0..self.config.docs_per_table).map(move |i| (t, i)))
            .map(|(t, i)| {
                (
                    WorkloadConfig::table_name(t),
                    WorkloadConfig::doc_id(i),
                    self.config.make_doc(i, rng),
                )
            })
            .collect();
        docs.into_iter()
    }

    /// Sample the next operation.
    pub fn next_op<R: Rng + ?Sized>(&mut self, rng: &mut R) -> Operation {
        let kind = self.config.mix.sample(rng);
        let table_idx = self.table_chooser.sample(rng);
        let table = WorkloadConfig::table_name(table_idx);
        match kind {
            OpKind::Read => Operation::Read {
                table,
                id: WorkloadConfig::doc_id(self.key_chooser.sample(rng)),
            },
            OpKind::Query => {
                let q = self.query_chooser.sample(rng);
                Operation::Query(self.config.make_query(table_idx, q))
            }
            OpKind::Insert => {
                self.insert_counter += 1;
                let i = self.config.docs_per_table + self.insert_counter;
                Operation::Insert {
                    table,
                    id: format!("ins{:07}", self.insert_counter),
                    document: self.config.make_doc(i, rng),
                }
            }
            OpKind::Update => {
                let id = WorkloadConfig::doc_id(self.key_chooser.sample(rng));
                // Partial updates alternate between a counter bump (pure
                // change event) and a category move (membership change).
                let update = if rng.gen_bool(0.5) {
                    Update::new().inc("counter", 1.0)
                } else {
                    let cat = rng.gen_range(0..self.config.category_domain()) as i64;
                    Update::new().set("category", cat)
                };
                Operation::Update { table, id, update }
            }
            OpKind::Delete => Operation::Delete {
                table,
                id: WorkloadConfig::doc_id(self.key_chooser.sample(rng)),
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    #[test]
    fn dataset_matches_paper_layout() {
        let cfg = WorkloadConfig {
            tables: 2,
            docs_per_table: 100,
            ..Default::default()
        };
        let gen = WorkloadGenerator::new(cfg);
        let mut rng = rand::rngs::StdRng::seed_from_u64(1);
        let all: Vec<_> = gen.dataset(&mut rng).collect();
        assert_eq!(all.len(), 200);
        assert!(all.iter().any(|(t, _, _)| t == "table0"));
        assert!(all.iter().any(|(t, _, _)| t == "table1"));
    }

    #[test]
    fn queries_return_avg_result_size() {
        let cfg = WorkloadConfig {
            tables: 1,
            docs_per_table: 1_000,
            queries_per_table: 100,
            avg_result_size: 10,
            ..Default::default()
        };
        // 1000 docs / 10 = 100 categories, each with exactly 10 docs
        // (deterministic i % 100 assignment).
        assert_eq!(cfg.category_domain(), 100);
        let mut rng = rand::rngs::StdRng::seed_from_u64(2);
        let gen = WorkloadGenerator::new(cfg);
        let docs: Vec<_> = gen.dataset(&mut rng).collect();
        let q = cfg.make_query(0, 7);
        let matches = docs
            .iter()
            .filter(|(_, _, d)| quaestor_query::matches(&q.filter, d))
            .count();
        assert_eq!(matches, 10);
    }

    #[test]
    fn op_stream_is_mostly_reads_for_read_heavy() {
        let mut gen = WorkloadGenerator::new(WorkloadConfig::default());
        let mut rng = rand::rngs::StdRng::seed_from_u64(3);
        let mut writes = 0;
        let n = 20_000;
        for _ in 0..n {
            match gen.next_op(&mut rng) {
                Operation::Insert { .. } | Operation::Update { .. } | Operation::Delete { .. } => {
                    writes += 1
                }
                _ => {}
            }
        }
        let frac = writes as f64 / n as f64;
        assert!((frac - 0.01).abs() < 0.005, "write fraction {frac}");
    }

    #[test]
    fn inserts_use_fresh_ids() {
        let cfg = WorkloadConfig {
            mix: OperationMix {
                read: 0.0,
                query: 0.0,
                insert: 1.0,
                update: 0.0,
                delete: 0.0,
            },
            ..WorkloadConfig::default()
        };
        let mut gen = WorkloadGenerator::new(cfg);
        let mut rng = rand::rngs::StdRng::seed_from_u64(4);
        let mut ids = std::collections::HashSet::new();
        for _ in 0..100 {
            match gen.next_op(&mut rng) {
                Operation::Insert { id, .. } => assert!(ids.insert(id), "duplicate insert id"),
                _ => unreachable!(),
            }
        }
    }
}
