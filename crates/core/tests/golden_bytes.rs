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
        // Batches of 64 (the benchmark's ingest batch), a whole-shard take
        // whose settle folds every row back, more batches, a second
        // whole-shard take, a tail of batches left buffered. The second
        // drain is not acked, so a reopen restores it.
        let shard =
            ShardStore::open(&dir, wal_config(), TableSchema::request_log().into()).unwrap();
        let all = rows();
        let append = |records: &[LogRecord]| shard.append(records.to_vec()).unwrap();
        all[..1280].chunks(64).for_each(append);
        let (lsn, drained) = shard.take(0).unwrap().unwrap();
        assert_eq!((lsn, drained.len()), (Some(21), 1280), "the intent follows 20 batches");
        shard.settle(|| ((), Some(drained)));
        shard.settled();
        all[1280..1920].chunks(64).for_each(append);
        let (_, moved) = shard.take(0).unwrap().unwrap();
        assert_eq!(moved.len(), 1920);
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

/// Re-recorded, with `GOLDEN_COMPACTED`, as a format change: a numeric
/// column sorted in its block (a drained chunk's `ts` and its one-tenant
/// `tenant_id`) carries no BKD tree, and a posting list is delta-varints
/// or a bitset over the block's rows, whichever is smaller, behind a
/// `count << 1 | container` head. Column blocks are unchanged.
const GOLDEN_DRAIN: &[(&str, usize, u32)] = &[
    ("tenants/1/blk-000000000001.pack", 61395, 3242110038),
    ("tenants/1/blk-000000000002.pack", 61488, 204482520),
    ("tenants/1/blk-000000000003.pack", 58604, 3468213218),
    ("tenants/2/blk-000000000004.pack", 61798, 4161938097),
    ("tenants/2/blk-000000000005.pack", 31568, 3947101617),
    ("tenants/3/blk-000000000006.pack", 33756, 3544415725),
];
const GOLDEN_COMPACTED: &[(&str, usize, u32)] = &[
    ("tenants/1/blk-000000000007.pack", 153015, 460924945),
    ("tenants/2/blk-000000000008.pack", 84373, 3954618026),
];
/// Re-recorded when segments were named by their first LSN (1, 21, 22) and
/// a drain intent lost its two seq varints (the intent's LSN names the
/// drain), when each drain intent became a checkpoint of the shard, and
/// again when batches and checkpoints came to carry column runs as LogBlock
/// column blocks instead of self-describing rows: the twenty batches are
/// smaller, so the first segment has not reached its size when the
/// whole-shard checkpoint (21) is logged, and the second (22) holds
/// everything after it. Re-recorded again when a checkpoint lost its
/// kept-runs list and the one-tenant drain became a second whole-shard
/// drain (32), and again when a checkpoint lost its list of open drains
/// (the first checkpoint is one byte shorter) and the first drain's settle
/// came to fold its rows back before the second take: that checkpoint
/// (32) holds all 1 920 rows and fills the second segment, so the tail's
/// batches open a third (33).
const GOLDEN_WAL: &[(&str, usize, u32)] = &[
    ("wal-0000000000000001.log", 232429, 3455913005),
    ("wal-0000000000000022.log", 233217, 891303798),
    ("wal-0000000000000033.log", 7467, 515479916),
];
