//! Golden byte fingerprints of everything the write path leaves behind.
//!
//! The constants below were recorded at commit `5ba10d4` (PR 18), *before*
//! the inverted-index writer, CRC32C, batch encoder and LogBlock builder
//! were rewritten for speed. They are the tier-1 proof that those rewrites
//! changed no byte on OSS or in the WAL — and therefore that
//! `oss_bytes_per_user_byte` cannot move. A kernel that drifts (a different
//! dictionary order, a different varint, a different CRC) fails here with
//! the object that changed.
//!
//! The row generator is local to this file on purpose: nothing outside it
//! (the workload crate, the `rand` stub) can shift the inputs.

use logstore_codec::crc::crc32c;
use logstore_codec::Compression;
use logstore_core::compactor::run_compaction;
use logstore_core::databuilder::{build_and_upload, BuildConfig};
use logstore_core::{CompactionConfig, MetadataStore, NoopHooks};
use logstore_oss::{MemoryStore, ObjectStore};
use logstore_types::{LogRecord, TableSchema, TenantId, Timestamp, Value};
use logstore_wal::{ShardStore, WalConfig};
use std::path::PathBuf;

/// `(name, byte length, crc32c)` of one object or file.
type Fingerprint = (String, usize, u32);

/// xorshift64*: the whole source of randomness of this file.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 ^= self.0 >> 12;
        self.0 ^= self.0 << 25;
        self.0 ^= self.0 >> 27;
        self.0.wrapping_mul(0x2545_f491_4f6c_dd1d)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }
}

const APIS: [&str; 6] =
    ["/api/v1/users", "/API/v1/Orders", "/api/v2/metrics", "/healthz", "/api/v1/login", "/søk/ü"];
const WORDS: [&str; 8] =
    ["ok", "accepted", "cached", "TIMEOUT", "refused", "Error", "naïve—café", "ошибка"];

/// 5 000 `request_log` rows over three tenants (roughly 60/30/10 %),
/// timestamps mostly ascending with some disorder and ties, and every
/// shape the kernels special-case: NULLs in each nullable column, mixed
/// case, multi-byte separators, a cell longer than the exact-term cap and
/// a token longer than the term cap.
fn rows() -> Vec<LogRecord> {
    let mut rng = Rng(0x5ba1_0d46_6ccb_6862);
    let long_token = "x".repeat(150);
    (0..5000i64)
        .map(|i| {
            let tenant = match rng.below(10) {
                0..=5 => 1,
                6..=8 => 2,
                _ => 3,
            };
            let ts = 1_600_000_000_000 + i * 37 - rng.below(4) as i64 * 50;
            let ip = format!("10.{tenant}.{}.{}", rng.below(4), rng.below(250) + 1);
            let api = APIS[rng.below(APIS.len() as u64) as usize];
            let latency =
                (1 + rng.below(20) + if rng.below(20) == 0 { rng.below(2000) } else { 0 }) as i64;
            let fail = rng.below(50) == 0;
            let word = WORDS[rng.below(WORDS.len() as u64) as usize];
            let mut log = format!(
                "{} {api} from {ip} in {latency}ms status={word} req-{:x}",
                if fail { "FAIL" } else { "GET" },
                rng.below(4096)
            );
            if rng.below(200) == 0 {
                log.push(' ');
                log.push_str(&long_token);
            }
            let nullable =
                |v: Value, rng: &mut Rng| if rng.below(97) == 0 { Value::Null } else { v };
            let api = if rng.below(300) == 0 {
                format!("{api}?q={}", "a/b-".repeat(20)) // > MAX_EXACT_LEN
            } else {
                api.to_string()
            };
            LogRecord::new(
                TenantId(tenant),
                Timestamp(ts),
                vec![
                    nullable(Value::Str(ip), &mut rng),
                    nullable(Value::Str(api), &mut rng),
                    nullable(Value::I64(latency), &mut rng),
                    nullable(Value::Bool(fail), &mut rng),
                    nullable(Value::Str(log), &mut rng),
                ],
            )
        })
        .collect()
}

fn build_config() -> BuildConfig {
    BuildConfig { compression: Compression::LzHigh, block_rows: 512, max_rows_per_logblock: 1024 }
}

/// Small segments, so the sequence rotates and the fingerprint covers
/// several files.
fn wal_config() -> WalConfig {
    WalConfig { max_segment_bytes: 128 << 10, ..WalConfig::default() }
}

fn store_fingerprints(store: &MemoryStore) -> Vec<Fingerprint> {
    let mut paths = store.list("").unwrap();
    paths.sort();
    paths
        .into_iter()
        .map(|path| {
            let bytes = store.get(&path).unwrap();
            (path, bytes.len(), crc32c(&bytes))
        })
        .collect()
}

fn assert_fingerprints(what: &str, got: &[Fingerprint], want: &[(&str, usize, u32)]) {
    let got: Vec<(&str, usize, u32)> = got.iter().map(|(n, l, c)| (n.as_str(), *l, *c)).collect();
    assert_eq!(got, want, "{what}: bytes drifted from the recorded parent-commit fingerprints");
}

#[test]
fn drained_logblocks_and_their_compaction_are_byte_identical_to_the_parent() {
    let (store, metadata) = (MemoryStore::new(), MetadataStore::new());
    let schema = TableSchema::request_log();
    let outcome = build_and_upload(rows(), &schema, &build_config(), &store, &metadata);
    assert!(outcome.is_complete(), "{:?}", outcome.error);
    let built = store_fingerprints(&store);
    assert_fingerprints("drain", &built, GOLDEN_DRAIN);

    // Merge the blocks of tenants 1 and 2 (decode → rebuild through the
    // same builder; tenant 3 has a single block) and fingerprint what the
    // compactor added.
    let config = CompactionConfig { small_block_rows: 4096, min_run: 2, max_merged_rows: 4096 };
    let report =
        run_compaction(&store, &metadata, &schema, &build_config(), &config, &NoopHooks, None)
            .unwrap();
    assert_eq!((report.runs_committed, report.rows_rewritten), (2, 4501));
    let merged: Vec<Fingerprint> =
        store_fingerprints(&store).into_iter().filter(|f| !built.contains(f)).collect();
    assert_fingerprints("compaction", &merged, GOLDEN_COMPACTED);
}

#[test]
fn wal_segments_are_byte_identical_to_the_parent() {
    let dir: PathBuf =
        std::env::temp_dir().join(format!("logstore-golden-wal-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    {
        // Batches of 64 (the benchmark's ingest batch), a whole-shard drain
        // intent, more batches, a one-tenant drain intent, a tail of
        // batches left buffered.
        let shard =
            ShardStore::open(&dir, wal_config(), TableSchema::request_log().into()).unwrap();
        let all = rows();
        let append = |records: &[LogRecord]| shard.append(records.to_vec()).unwrap();
        all[..1280].chunks(64).for_each(append);
        let (lsn, drained) = shard.drain_all(0).unwrap().unwrap();
        assert_eq!((lsn, drained.len()), (Some(21), 1280), "the intent follows 20 batches");
        all[1280..1920].chunks(64).for_each(append);
        let (_, moved) = shard.drain_tenant(TenantId(2)).unwrap().unwrap();
        assert!(!moved.is_empty());
        all[1920..2000].chunks(64).for_each(append);
    }
    let mut names: Vec<String> = std::fs::read_dir(&dir)
        .unwrap()
        .map(|e| e.unwrap().file_name().into_string().unwrap())
        .filter(|n| n.ends_with(".log"))
        .collect();
    names.sort();
    let segments: Vec<Fingerprint> = names
        .into_iter()
        .map(|name| {
            let bytes = std::fs::read(dir.join(&name)).unwrap();
            (name, bytes.len(), crc32c(&bytes))
        })
        .collect();
    // The head must also *replay* what the parent's bytes say.
    let reopened = ShardStore::open(&dir, wal_config(), TableSchema::request_log().into()).unwrap();
    assert_eq!(reopened.buffered_rows(), 2000);
    drop(reopened);
    let _ = std::fs::remove_dir_all(&dir);
    assert_fingerprints("wal", &segments, GOLDEN_WAL);
}

const GOLDEN_DRAIN: &[(&str, usize, u32)] = &[
    ("tenants/1/blk-000000000001.pack", 79128, 2160778358),
    ("tenants/1/blk-000000000002.pack", 79274, 1055912920),
    ("tenants/1/blk-000000000003.pack", 75708, 2947609981),
    ("tenants/2/blk-000000000004.pack", 79976, 334943535),
    ("tenants/2/blk-000000000005.pack", 39543, 3340079414),
    ("tenants/3/blk-000000000006.pack", 42670, 557773890),
];
const GOLDEN_COMPACTED: &[(&str, usize, u32)] = &[
    ("tenants/1/blk-000000000007.pack", 207129, 326827125),
    ("tenants/2/blk-000000000008.pack", 110715, 886711032),
];
/// Re-recorded when segments were named by their first LSN (1, 21, 22) and
/// a drain intent lost its two seq varints (the intent's LSN names the
/// drain): the segments holding an intent shrank by exactly 2 bytes each,
/// the first is byte-identical, and no boundary moved.
const GOLDEN_WAL: &[(&str, usize, u32)] = &[
    ("wal-0000000000000001.log", 131363, 4294754263),
    ("wal-0000000000000021.log", 131118, 1481871828),
    ("wal-0000000000000022.log", 93746, 1279580537),
];
