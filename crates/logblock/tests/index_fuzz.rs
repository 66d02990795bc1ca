//! Seeded mutation fuzzing of the index members the builder's writers
//! emit, read the way a query reads them: open the block, then look terms
//! up in every inverted and full-text index and query every BKD tree.
//!
//! The index members of one column of a built object — its inverted or
//! BKD dictionary (`index.<i>`), its postings / leaves (`index.<i>.data`),
//! or both — are bit-flipped, truncated, have a large varint spliced in,
//! have their leading count forged, or have bits flipped inside the posting
//! list of the column's most frequent term (a bitset over the block's rows
//! from a few dozen rows on), and the object is re-packed around them under
//! a fresh manifest checksum, so that every edit reaches the index parsers.
//!
//! The object's `tenant_id` and `ts` are out of order from its second row
//! on, as a merge of overlapping blocks is: a column sorted in its block
//! carries no BKD, and these two keep theirs.
//! Every lookup must return `Err` or a result, and none may panic or make
//! an allocation larger than [`ALLOCATION_PER_BYTE`] times the object's
//! length (plus a fixed 64 KiB): an allocation sized by an unchecked count
//! in the bytes fails the case.
//!
//! This file is its own test binary, with one test, because it counts the
//! allocations of the whole process.

use logstore_codec::varint::{put_uvarint, read_uvarint};
use logstore_codec::Compression;
use logstore_index::{InvertedDictReader, RowIdSet, TermKind};
use logstore_logblock::meta::{index_data_member, index_member};
use logstore_logblock::{LogBlockBuilder, LogBlockReader, PackManifest, PackWriter};
use logstore_types::{IndexKind, TableSchema, Value};
use proptest::prelude::*;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

/// The system allocator, keeping the largest request made while armed.
struct Largest;

/// The largest allocation requested while armed; `usize::MAX` when not.
static LARGEST: AtomicUsize = AtomicUsize::new(usize::MAX);
/// Past this, an armed request is refused (and the process aborts):
/// nothing this file builds needs a tenth of it.
const REFUSE: usize = 1 << 30;

/// What a lookup may allocate per byte of the object: a parsed dictionary
/// entry is at most 56 bytes and takes at least one byte of the member.
const ALLOCATION_PER_BYTE: usize = 64;

// SAFETY: every call forwards to `System` with the caller's layout; the
// only addition is a relaxed atomic update that allocates nothing.
unsafe impl GlobalAlloc for Largest {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        if !note(layout.size()) {
            return std::ptr::null_mut();
        }
        // SAFETY: the caller's contract for `alloc` is `System`'s.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` with this layout.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        if !note(new_size) {
            return std::ptr::null_mut();
        }
        // SAFETY: the caller's contract for `realloc` is `System`'s.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOCATOR: Largest = Largest;

/// Records a request of `size` bytes; false if it must be refused.
fn note(size: usize) -> bool {
    let armed = LARGEST.load(Ordering::Relaxed) != usize::MAX;
    if armed {
        LARGEST.fetch_max(size, Ordering::Relaxed);
    }
    !armed || size <= REFUSE
}

/// Runs `f` armed and returns the largest allocation it requested.
fn largest_allocation(f: impl FnOnce()) -> usize {
    LARGEST.store(0, Ordering::Relaxed);
    f();
    LARGEST.swap(usize::MAX, Ordering::Relaxed)
}

/// A LogBlock of `rows` rows with NULLs in every nullable column.
fn object(rows: usize, block_rows: usize) -> Vec<u8> {
    let mut builder =
        LogBlockBuilder::with_options(TableSchema::request_log(), Compression::LzFast, block_rows);
    for i in 0..rows {
        let null_every = |n: usize, v: Value| if i % n == 0 { Value::Null } else { v };
        builder
            .add_row(&[
                Value::U64((i ^ 1) as u64 % 3),
                Value::I64(1_000 + (i ^ 1) as i64 * 7),
                null_every(5, Value::from(format!("10.0.0.{}", i % 9))),
                null_every(7, Value::from(["/a", "/b/c", "/d"][i % 3])),
                null_every(4, Value::I64(i as i64 * 13 % 500)),
                null_every(6, Value::Bool(i % 2 == 0)),
                null_every(11, Value::from(format!("request {i} took {}ms", i % 97))),
            ])
            .unwrap();
    }
    builder.finish().unwrap()
}

/// The indexed columns of `request_log`.
const INDEXED: [usize; 5] = [0, 1, 2, 3, 6];

/// One mutation of an index member.
#[derive(Debug, Clone)]
enum Mutation {
    /// Flip bit `bit` of the byte at each position.
    Flip(Vec<(usize, u8)>),
    /// Keep only the first `at` bytes.
    Truncate(usize),
    /// Overwrite the bytes at `at` with the varint of `value`.
    Splice { at: usize, value: u64 },
    /// Replace the member's leading varint — a term, point or posting
    /// count in every index member — with `value`.
    Count(u64),
    /// Flip bit `bit` of the byte at each position inside the posting list
    /// of the column's most frequent term ([`FREQUENT`]); the whole member
    /// where the column has no such list.
    InList(Vec<(usize, u8)>),
}

/// The most frequent term of each inverted and full-text column.
const FREQUENT: [(usize, TermKind, &str); 3] = [
    (2, TermKind::Exact, "10.0.0.4"),
    (3, TermKind::Exact, "/b/c"),
    (6, TermKind::Token, "request"),
];

/// Where the posting list of column `col`'s most frequent term lies in its
/// `index.<col>.data` member, if the object's dictionary parses and has it.
fn frequent_list(bytes: &Vec<u8>, col: usize) -> Option<(usize, usize)> {
    let (_, kind, term) = FREQUENT.iter().find(|(c, ..)| *c == col)?;
    let dict =
        PackManifest::read(bytes).ok()?.read_member_shared(bytes, &index_member(col)).ok()?;
    InvertedDictReader::open(&dict).ok()?.lookup_range(*kind, term)
}

/// True when the posting list at `range` of `data` is a bitset.
fn is_bitset(data: &[u8], (offset, _): (usize, usize)) -> bool {
    let mut pos = 0;
    read_uvarint(&data[offset..], &mut pos).is_ok_and(|head| head & 1 == 1)
}

fn mutation() -> impl Strategy<Value = Mutation> {
    let large = || (any::<u64>(), 0u32..64).prop_map(|(v, shift)| v >> shift);
    prop_oneof![
        collection::vec((any::<usize>(), 0u8..8), 1..8).prop_map(Mutation::Flip),
        any::<usize>().prop_map(Mutation::Truncate),
        (any::<usize>(), large()).prop_map(|(at, value)| Mutation::Splice { at, value }),
        large().prop_map(Mutation::Count),
        collection::vec((any::<usize>(), 0u8..8), 1..4).prop_map(Mutation::InList),
    ]
}

/// `bytes` mutated; `list` is where the frequent term's posting list lies
/// in them.
fn mutate(mut bytes: Vec<u8>, mutation: &Mutation, list: Option<(usize, usize)>) -> Vec<u8> {
    let len = bytes.len().max(1);
    let varint = |value| {
        let mut varint = Vec::new();
        put_uvarint(&mut varint, value);
        varint
    };
    match *mutation {
        Mutation::Flip(ref flips) if !bytes.is_empty() => {
            flips.iter().for_each(|&(at, bit)| bytes[at % len] ^= 1 << bit)
        }
        Mutation::Flip(_) => {}
        Mutation::InList(ref flips) => {
            let (start, n) =
                list.filter(|&(o, n)| n > 0 && o + n <= bytes.len()).unwrap_or((0, len));
            if !bytes.is_empty() {
                flips.iter().for_each(|&(at, bit)| bytes[start + at % n] ^= 1 << bit)
            }
        }
        Mutation::Truncate(at) => bytes.truncate(at % len),
        Mutation::Splice { at, value } => {
            let (at, varint) = (at % len, varint(value));
            let end = (at + varint.len()).min(bytes.len());
            bytes.splice(at.min(bytes.len())..end, varint);
        }
        Mutation::Count(value) => {
            let mut end = 0;
            let leading = read_uvarint(&bytes, &mut end).map_or(0, |_| end);
            bytes.splice(..leading, varint(value));
        }
    }
    bytes
}

/// `bytes` with member `name` replaced by `member`, re-packed.
fn repack(bytes: &Vec<u8>, name: &str, member: Vec<u8>) -> Vec<u8> {
    let manifest = PackManifest::read(bytes).unwrap();
    let mut pack = PackWriter::new();
    for entry in manifest.members() {
        let data = match entry.name == name {
            true => member.clone(),
            false => manifest.read_member_shared(bytes, &entry.name).unwrap().to_vec(),
        };
        pack.add(entry.name.clone(), data).unwrap();
    }
    pack.finish()
}

/// A query's index reads of every indexed column: exact terms and tokens
/// on the inverted and full-text indexes, ranges on the BKD trees. Returns
/// how many lookups succeeded and the row ids they found.
fn look_up(bytes: Vec<u8>) -> logstore_types::Result<(usize, Vec<RowIdSet>)> {
    let reader = LogBlockReader::open(bytes)?;
    let (mut ok, mut found) = (0, Vec::new());
    for col in INDEXED {
        let lookups: Vec<logstore_types::Result<RowIdSet>> = match reader.meta().columns[col].index
        {
            IndexKind::Inverted | IndexKind::FullText => vec![
                reader.index_lookup_exact(col, "10.0.0.4"),
                reader.index_lookup_exact(col, "/b/c"),
                reader.index_lookup_token(col, "request"),
                reader.index_lookup_token(col, "0"),
            ],
            IndexKind::Bkd => vec![
                reader.index_query_range(col, i64::MIN, i64::MAX),
                reader.index_query_range(col, 1, 1_100),
            ],
            IndexKind::None => Vec::new(),
        };
        for lookup in lookups.into_iter().flatten() {
            ok += 1;
            found.push(lookup);
        }
    }
    Ok((ok, found))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(1024))]

    #[test]
    fn prop_mutated_index_members_fail_or_answer_without_unchecked_allocations(
        rows in 2usize..300,
        block_rows in 1usize..64,
        col in 0usize..INDEXED.len(),
        mutations in collection::vec((any::<bool>(), mutation()), 1..3),
    ) {
        let built = object(rows, block_rows);
        let (ok, _) = look_up(built.clone()).unwrap();
        prop_assert!(ok > 0, "the built object answers");
        let reader = LogBlockReader::open(built.clone()).unwrap();
        let kinds: Vec<IndexKind> = INDEXED.iter().map(|&c| reader.meta().columns[c].index).collect();
        prop_assert_eq!(kinds, reader.schema().columns.iter().map(|c| c.index).filter(|&k| k != IndexKind::None).collect::<Vec<_>>(), "every indexed column keeps its index");
        let col = INDEXED[col];
        let list = frequent_list(&built, col);
        if rows >= 64 && col == 6 {
            let data = PackManifest::read(&built).unwrap().read_member_shared(&built, &index_data_member(col)).unwrap();
            prop_assert!(list.is_some_and(|list| is_bitset(&data, list)), "a bitset list to mutate");
        }
        let mut bytes = built;
        for (data, mutation) in &mutations {
            let name = if *data { index_data_member(col) } else { index_member(col) };
            let member = PackManifest::read(&bytes)
                .unwrap()
                .read_member_shared(&bytes, &name)
                .unwrap()
                .to_vec();
            let list = list.filter(|_| *data);
            bytes = repack(&bytes, &name, mutate(member, mutation, list));
        }
        let bound = ALLOCATION_PER_BYTE * bytes.len() + (64 << 10);
        let largest = largest_allocation(|| drop(look_up(bytes)));
        prop_assert!(largest <= bound, "{largest} bytes allocated, over {bound}: {:?}", mutations);
    }
}
