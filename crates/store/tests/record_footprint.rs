//! Memory per stored record and allocations per parsed cache hit,
//! counted by a counting global allocator (its own test binary; only the
//! allocations of a thread that switched counting on count).
//!
//! Loads 10 000 documents of the paper's workload (`_id`, `category`,
//! `counter`, a 32-character `payload`, two short `tags`; 116 bytes of
//! canonical JSON) through `Table::insert` and bounds the heap bytes the
//! store holds per record: the record map's share, the interned id, the
//! `Arc`'d document and its field vector, strings and arrays. Then bounds
//! the allocations of decoding a cached 10-member object-list body, the
//! client's work on a query cache hit. `crates/store/DESIGN.md` ("Memory
//! per record") has the numbers.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use quaestor_document::{decode_value, Value};
use quaestor_store::Database;
use quaestor_workload::WorkloadConfig;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Counts, per thread, the heap bytes live and the allocations made
/// while that thread has counting on; tests run on threads of their own,
/// so each counts only its own work.
struct Counting;

thread_local! {
    static COUNTING: Cell<bool> = const { Cell::new(false) };
    static LIVE_BYTES: Cell<isize> = const { Cell::new(0) };
    static ALLOCATIONS: Cell<usize> = const { Cell::new(0) };
}

fn count(bytes: isize, allocations: usize) {
    if COUNTING.with(Cell::get) {
        LIVE_BYTES.with(|c| c.set(c.get() + bytes));
        ALLOCATIONS.with(|c| c.set(c.get() + allocations));
    }
}

/// Run `f` with counting on; returns its result, the heap bytes it left
/// live and the allocations it made.
fn counted<T>(f: impl FnOnce() -> T) -> (T, isize, usize) {
    let (bytes, allocations) = (LIVE_BYTES.with(Cell::get), ALLOCATIONS.with(Cell::get));
    COUNTING.with(|c| c.set(true));
    let out = f();
    COUNTING.with(|c| c.set(false));
    (
        out,
        LIVE_BYTES.with(Cell::get) - bytes,
        ALLOCATIONS.with(Cell::get) - allocations,
    )
}

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged; the counters only observe, in const-initialized thread
// locals that never allocate.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size() as isize, 1);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        count(-(layout.size() as isize), 0);
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size as isize - layout.size() as isize, 1);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

const RECORDS: usize = 10_000;

/// Heap bytes the store holds per workload record. The sorted field
/// vector with inline short strings measures 515; the `BTreeMap` document
/// it replaced, 918.
const MAX_BYTES_PER_RECORD: usize = 560;

#[test]
fn a_stored_workload_record_stays_small() {
    let config = WorkloadConfig::default();
    let mut rng = StdRng::seed_from_u64(7);
    let ((_db, table), bytes, allocations) = counted(|| {
        let db = Database::new();
        let table = db.create_table(&WorkloadConfig::table_name(0));
        for i in 0..RECORDS {
            let doc = config.make_doc(i, &mut rng);
            table.insert(&WorkloadConfig::doc_id(i), doc).unwrap();
        }
        (db, table)
    });
    let (bytes, allocations) = (bytes as usize / RECORDS, allocations / RECORDS);
    println!("{bytes} heap bytes and {allocations} allocations per record");
    assert_eq!(table.len(), RECORDS);
    assert!(
        bytes <= MAX_BYTES_PER_RECORD,
        "{bytes} heap bytes per record, above {MAX_BYTES_PER_RECORD}"
    );
}

/// Allocations of one decode of a cached 10-member object-list body. It
/// measures 33: the decoder's two element stacks, the list, and per member
/// its field vector, its payload and its tag array. The `BTreeMap`
/// document needed 113.
const MAX_ALLOCATIONS_PER_PARSE: usize = 36;

#[test]
fn parsing_a_cached_ten_member_body_allocates_little() {
    let config = WorkloadConfig::default();
    let mut rng = StdRng::seed_from_u64(7);
    let members = (0..10)
        .map(|i| {
            let mut d = config.make_doc(i, &mut rng);
            d.insert("_id", Value::str(WorkloadConfig::doc_id(i)));
            Value::Object(d)
        })
        .collect::<Vec<_>>();
    // An object-list body is the canonical rendering of its members.
    let body = Value::Array(members).canonical();
    let (parsed, _, allocations) = counted(|| decode_value(body.as_bytes()).unwrap());
    println!(
        "{allocations} allocations to parse a {} byte body",
        body.len()
    );
    assert_eq!(parsed.canonical(), body);
    assert!(
        allocations <= MAX_ALLOCATIONS_PER_PARSE,
        "{allocations} allocations, above {MAX_ALLOCATIONS_PER_PARSE}"
    );
}
