//! Seeded mutation fuzzing of whole LogBlock objects, read the way
//! compaction reads a source it fetched from object storage: open the
//! handle (prologue, manifest, meta), then decode every column block of
//! every column into one reused batch per column.
//!
//! A built object is bit-flipped, truncated, has a large varint spliced in,
//! has its manifest edited and re-sealed with a fresh checksum, or has one
//! column — its data member and its meta — taken from the same rows built
//! at another block size, so that its column blocks are cut elsewhere than
//! column 0's, or has its meta name an index for a column the pack holds
//! no index members of (a sorted column — `ts` here — carries none in the
//! meta the builder writes). Every
//! case must return `Err` or decode — block `i` of each column holding
//! that block's rows — and none may panic or make an allocation larger
//! than the decoders' own bounds allow for an object of its size: an
//! allocation sized by an unchecked count in the bytes fails the case.
//!
//! This file is its own test binary, with one test, because it counts the
//! allocations of the whole process.

use logstore_codec::crc::crc32c;
use logstore_codec::varint::put_uvarint;
use logstore_codec::Compression;
use logstore_logblock::meta::{col_member, index_data_member, index_member, META_MEMBER};
use logstore_logblock::pack::PROLOGUE_LEN;
use logstore_logblock::{
    ColumnVec, LogBlockBuilder, LogBlockHandle, LogBlockReader, PackManifest, PackWriter,
};
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

/// A LogBlock of `rows` rows with NULLs in every nullable column, cut
/// every `block_rows` rows.
fn object(rows: usize, block_rows: usize, compression: Compression) -> Vec<u8> {
    let mut builder =
        LogBlockBuilder::with_options(TableSchema::request_log(), compression, block_rows);
    for i in 0..rows {
        let null_every = |n: usize, v: Value| if i % n == 0 { Value::Null } else { v };
        builder
            .add_row(&[
                Value::U64(i as u64 % 3),
                Value::I64(1_000 + i as i64 * 7),
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

/// One mutation of a built object.
#[derive(Debug, Clone)]
enum Mutation {
    /// Flip bit `bit` of the byte at each position.
    Flip(Vec<(usize, u8)>),
    /// Keep only the first `at` bytes.
    Truncate(usize),
    /// Overwrite the bytes at `at` with the varint of `value`.
    Splice { at: usize, value: u64 },
    /// Overwrite a manifest byte and re-seal the manifest's checksum, so
    /// the edit reaches the member table.
    Reseal { at: usize, byte: u8 },
    /// Take column `col` from the same rows built at `block_rows`.
    Relayout { col: usize, block_rows: usize },
    /// Name the schema's index of column `col` in the meta and leave its
    /// index members out of the pack.
    ForgeIndex { col: usize },
}

fn mutation() -> impl Strategy<Value = Mutation> {
    prop_oneof![
        collection::vec((any::<usize>(), 0u8..8), 1..8).prop_map(Mutation::Flip),
        any::<usize>().prop_map(Mutation::Truncate),
        (any::<usize>(), any::<u64>(), 0u32..64)
            .prop_map(|(at, v, shift)| Mutation::Splice { at, value: v >> shift }),
        (any::<usize>(), any::<u8>()).prop_map(|(at, byte)| Mutation::Reseal { at, byte }),
        (1usize..7, 1usize..64)
            .prop_map(|(col, block_rows)| Mutation::Relayout { col, block_rows }),
        (0usize..7).prop_map(|col| Mutation::ForgeIndex { col }),
    ]
}

/// Member `name` of the pack `bytes`.
fn member(bytes: &Vec<u8>, name: &str) -> Vec<u8> {
    PackManifest::read(bytes).unwrap().read_member_shared(bytes, name).unwrap().to_vec()
}

/// `into` with column `col` — its data member and its meta — taken from
/// `from`, an object of the same rows, re-packed.
fn transplant(into: Vec<u8>, from: Vec<u8>, col: usize) -> Vec<u8> {
    let mut meta = LogBlockHandle::open(&into).unwrap().meta().clone();
    meta.columns[col] = LogBlockHandle::open(&from).unwrap().meta().columns[col].clone();
    let mut pack = PackWriter::new();
    for entry in PackManifest::read(&into).unwrap().members() {
        let bytes = match entry.name.as_str() {
            META_MEMBER => meta.serialize(),
            name if name == col_member(col) => member(&from, name),
            name => member(&into, name),
        };
        pack.add(entry.name.clone(), bytes).unwrap();
    }
    pack.finish()
}

fn mutate(mut bytes: Vec<u8>, mutation: &Mutation, rebuild: impl Fn(usize) -> Vec<u8>) -> Vec<u8> {
    let len = bytes.len();
    match *mutation {
        Mutation::Flip(ref flips) => {
            flips.iter().for_each(|&(at, bit)| bytes[at % len] ^= 1 << bit)
        }
        Mutation::Truncate(at) => bytes.truncate(at % len),
        Mutation::Splice { at, value } => {
            let mut varint = Vec::new();
            put_uvarint(&mut varint, value);
            let at = at % len;
            bytes.splice(at..(at + varint.len()).min(len), varint);
        }
        Mutation::Reseal { at, byte } => {
            let manifest_len = u32::from_le_bytes(bytes[5..9].try_into().unwrap()) as usize;
            let start = PROLOGUE_LEN as usize;
            let crc_at = start + manifest_len - 4;
            bytes[start + at % (manifest_len - 4)] = byte;
            let crc = crc32c(&bytes[start..crc_at]);
            bytes[crc_at..crc_at + 4].copy_from_slice(&crc.to_le_bytes());
        }
        Mutation::Relayout { col, block_rows } => {
            bytes = transplant(bytes, rebuild(block_rows), col)
        }
        Mutation::ForgeIndex { col } => bytes = forge_index(bytes, col),
    }
    bytes
}

/// `bytes` with a meta that names the schema's index for column `col` and
/// a pack without that column's index members.
fn forge_index(bytes: Vec<u8>, col: usize) -> Vec<u8> {
    let mut meta = LogBlockHandle::open(&bytes).unwrap().meta().clone();
    meta.columns[col].index = meta.schema.columns[col].index;
    let mut pack = PackWriter::new();
    let dropped = [index_member(col), index_data_member(col)];
    for entry in PackManifest::read(&bytes).unwrap().members() {
        let data = match entry.name.as_str() {
            META_MEMBER => meta.serialize(),
            name if dropped.iter().any(|d| d == name) => continue,
            name => member(&bytes, name),
        };
        pack.add(entry.name.clone(), data).unwrap();
    }
    pack.finish()
}

/// Compaction's read of one source: every column block of every column,
/// block `i` of each column side by side, each cell read. Returns the
/// first error.
fn read_like_compaction(bytes: Vec<u8>) -> logstore_types::Result<u64> {
    let handle = std::sync::Arc::new(LogBlockHandle::open(&bytes)?);
    let reader = LogBlockReader::with_handle(bytes, handle);
    let width = reader.meta().columns.len();
    let mut batches = vec![ColumnVec::default(); width];
    let mut cells = 0;
    for (block, meta) in
        reader.meta().columns.first().map_or(&[][..], |c| &c.blocks).iter().enumerate()
    {
        for (col, batch) in batches.iter_mut().enumerate() {
            reader.read_block_vec(col, block, batch)?;
            assert_eq!(batch.len(), meta.row_count as usize, "column {col} block {block}");
        }
        for i in 0..meta.row_count as usize {
            cells += batches.iter().filter(|batch| !batch.cell(i).is_null()).count() as u64;
        }
    }
    Ok(cells)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn prop_mutated_objects_fail_or_decode_without_unchecked_allocations(
        rows in 1usize..300,
        block_rows in 1usize..64,
        codec in 0u8..4,
        mutation in mutation(),
    ) {
        let codec = Compression::from_tag(codec).unwrap();
        let built = object(rows, block_rows, codec);
        prop_assert!(read_like_compaction(built.clone()).is_ok(), "the built object decodes");
        let ts = LogBlockHandle::open(&built).unwrap().meta().columns[1].index;
        prop_assert_eq!(ts, IndexKind::None, "ts is sorted in its block: no BKD");
        let bytes = mutate(built, &mutation, |block_rows| object(rows, block_rows, codec));
        if let Mutation::ForgeIndex { col } = mutation {
            let named = TableSchema::request_log().columns[col].index != IndexKind::None;
            prop_assert_eq!(read_like_compaction(bytes.clone()).is_err(), named, "{:?}", mutation);
        }
        // What a decoder may size from an object of this length: an LZ
        // frame expands at most 255×, and a decoded row takes at most
        // eight bytes of index per byte of frame.
        let bound = 2048 * bytes.len() + (1 << 20);
        let largest = largest_allocation(|| drop(read_like_compaction(bytes)));
        prop_assert!(largest <= bound, "{largest} bytes allocated, over {bound}: {:?}", mutation);
    }
}
