//! Re-registering a live stateless query takes an in-place path: its
//! matching set is overwritten with the fresh initial ids and only the
//! buffered events after the mark are replayed. This property drives two
//! clusters through the same operations; one re-registers by
//! `deregister_query` + `register_query` (a full rebuild), the other by
//! `register_query` alone (in place). Every observable must agree.

use std::sync::Arc;

use proptest::prelude::*;
use quaestor_document::{doc, Document};
use quaestor_invalidb::matching::write_event;
use quaestor_invalidb::{InvaliDbCluster, Notification, REPLAY_WINDOW};
use quaestor_query::{Filter, Query, QueryKey};
use quaestor_store::WriteKind;

/// Record ids `r0..r{RECORDS}`.
const RECORDS: usize = 8;

/// Writes in one [`Op::Burst`]: more than the replay window holds, so a
/// later registration can hold a mark older than every buffered event.
const BURST: usize = REPLAY_WINDOW + 44;

#[derive(Debug, Clone)]
enum Op {
    /// (Re-)register query `q` with the records whose bit is set in
    /// `members` as its initial result, replaying the events ingested
    /// after `ingest_mark() - behind`.
    Register {
        q: usize,
        members: u8,
        behind: u64,
    },
    Deregister(usize),
    Write {
        id: usize,
        tag: u8,
        n: i64,
    },
    Delete(usize),
    /// [`BURST`] writes cycling over the records, starting at `from`.
    Burst(usize),
}

/// Stateless queries: two served by the equality index, one residual
/// range, and a conjunction filed under its equality conjunct.
fn queries() -> Vec<Query> {
    vec![
        Query::table("t").filter(Filter::eq("tag", "a")),
        Query::table("t").filter(Filter::eq("tag", "b")),
        Query::table("t").filter(Filter::gt("n", 5)),
        Query::table("t").filter(Filter::and([Filter::eq("tag", "a"), Filter::lt("n", 3)])),
    ]
}

fn arb_op() -> BoxedStrategy<Op> {
    prop_oneof![
        (
            0usize..4,
            any::<u8>(),
            // Marks just behind the present, and marks around the edge of
            // the replay window.
            prop_oneof![0u64..10, (BURST as u64 - 60)..(BURST as u64 + 20)],
        )
            .prop_map(|(q, members, behind)| Op::Register { q, members, behind }),
        (0usize..4).prop_map(Op::Deregister),
        (0..RECORDS, 0u8..3, 0i64..10).prop_map(|(id, tag, n)| Op::Write { id, tag, n }),
        (0..RECORDS).prop_map(Op::Delete),
        (0..RECORDS).prop_map(Op::Burst),
    ]
}

fn record(id: usize, tag: u8, n: i64) -> Document {
    doc! { "_id" => format!("r{id}"), "tag" => ["a", "b", "c"][tag as usize], "n" => n }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn in_place_reregistration_equals_rebuild(
        ops in proptest::collection::vec(arb_op(), 1..80),
    ) {
        let queries = queries();
        let keys: Vec<QueryKey> = queries.iter().map(QueryKey::of).collect();
        let rebuilt = InvaliDbCluster::default();
        let in_place = InvaliDbCluster::default();
        let mut store: Vec<Option<Document>> = vec![None; RECORDS];
        let mut seq = 0;
        let write = |store: &mut Vec<Option<Document>>, seq: &mut u64, id: usize, tag: u8, n: i64| {
            *seq += 1;
            let kind = if store[id].is_some() { WriteKind::Update } else { WriteKind::Insert };
            let image = record(id, tag, n);
            store[id] = Some(image.clone());
            let event = write_event("t", &format!("r{id}"), kind, image, *seq);
            (rebuilt.on_write(&event), in_place.on_write(&event))
        };
        for op in ops {
            let (a, b): (Vec<Notification>, Vec<Notification>) = match op {
                Op::Register { q, members, behind } => {
                    let initial: Vec<Arc<Document>> = (0..RECORDS)
                        .filter(|i| members & (1 << i) != 0)
                        .map(|i| Arc::new(doc! { "_id" => format!("r{i}") }))
                        .collect();
                    let mark = rebuilt.ingest_mark().saturating_sub(behind);
                    prop_assert_eq!(mark, in_place.ingest_mark().saturating_sub(behind));
                    rebuilt.deregister_query(&keys[q]);
                    let a = rebuilt.register_query(&queries[q], &keys[q], &initial, mark);
                    let b = in_place.register_query(&queries[q], &keys[q], &initial, mark);
                    prop_assert_eq!(a.overrun, b.overrun);
                    (a.raced, b.raced)
                }
                Op::Deregister(q) => {
                    prop_assert_eq!(
                        rebuilt.deregister_query(&keys[q]),
                        in_place.deregister_query(&keys[q])
                    );
                    (Vec::new(), Vec::new())
                }
                Op::Write { id, tag, n } => write(&mut store, &mut seq, id, tag, n),
                Op::Delete(id) => match store[id].take() {
                    Some(before) => {
                        seq += 1;
                        let event = write_event("t", &format!("r{id}"), WriteKind::Delete, before, seq);
                        (rebuilt.on_write(&event), in_place.on_write(&event))
                    }
                    None => (Vec::new(), Vec::new()),
                },
                Op::Burst(from) => {
                    let (mut a, mut b) = (Vec::new(), Vec::new());
                    for i in 0..BURST {
                        let id = (from + i) % RECORDS;
                        let (x, y) = write(&mut store, &mut seq, id, (i % 3) as u8, (i % 10) as i64);
                        a.extend(x);
                        b.extend(y);
                    }
                    (a, b)
                }
            };
            prop_assert_eq!(a, b);
            prop_assert_eq!(rebuilt.query_count(), in_place.query_count());
            prop_assert_eq!(rebuilt.total_evaluations(), in_place.total_evaluations());
            prop_assert_eq!(
                rebuilt.total_evaluations_skipped(),
                in_place.total_evaluations_skipped()
            );
        }
    }
}
