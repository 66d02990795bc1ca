//! Whole-format property test: arbitrary valid rows survive the complete
//! build → pack → open → scan → fetch pipeline byte-for-byte, and the
//! data-skipping scanner agrees with a naive row filter on arbitrary
//! conjunctions.

use logstore_codec::Compression;
use logstore_logblock::column::encode_block;
use logstore_logblock::meta::col_member;
use logstore_logblock::scan::{evaluate_predicates, ScanStats};
use logstore_logblock::{LogBlockBuilder, LogBlockHandle, LogBlockReader};
use logstore_types::{
    Cell, CmpOp, ColumnPredicate, LogRecord, TableSchema, TenantId, Timestamp, Value,
};
use proptest::prelude::*;

fn arb_row() -> impl Strategy<Value = Vec<Value>> {
    (
        0u64..4,
        -1000i64..1000,
        prop_oneof![3 => "[a-c.]{1,10}".prop_map(Value::Str), 1 => Just(Value::Null)],
        prop_oneof!["/api/a", "/api/b", "/healthz"].prop_map(Value::from),
        prop_oneof![3 => (-50i64..500).prop_map(Value::I64), 1 => Just(Value::Null)],
        prop_oneof![3 => any::<bool>().prop_map(Value::Bool), 1 => Just(Value::Null)],
        "[a-e ]{0,20}".prop_map(Value::Str),
    )
        .prop_map(|(t, ts, ip, api, latency, fail, log)| {
            vec![
                Value::U64(t),
                Value::I64(ts),
                ip,
                Value::Str(api.as_str().unwrap().into()),
                latency,
                fail,
                log,
            ]
        })
}

fn arb_predicate() -> impl Strategy<Value = ColumnPredicate> {
    prop_oneof![
        ((-1000i64..1000), 0usize..6).prop_map(|(v, op)| {
            let ops = [CmpOp::Eq, CmpOp::Ne, CmpOp::Lt, CmpOp::Le, CmpOp::Gt, CmpOp::Ge];
            ColumnPredicate::new("ts", ops[op], v)
        }),
        ((-100i64..600), 0usize..6).prop_map(|(v, op)| {
            let ops = [CmpOp::Eq, CmpOp::Ne, CmpOp::Lt, CmpOp::Le, CmpOp::Gt, CmpOp::Ge];
            ColumnPredicate::new("latency", ops[op], v)
        }),
        "[a-c.]{1,6}".prop_map(|s| ColumnPredicate::new("ip", CmpOp::Eq, s)),
        "[a-e]{1,4}".prop_map(|s| ColumnPredicate::new("log", CmpOp::Contains, s)),
        any::<bool>().prop_map(|b| ColumnPredicate::new("fail", CmpOp::Eq, b)),
        (0u64..5).prop_map(|t| ColumnPredicate::new("tenant_id", CmpOp::Eq, t)),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn rows_roundtrip_through_the_format(
        rows in proptest::collection::vec(arb_row(), 1..120),
        block_rows in 1usize..40,
        codec_tag in 0u8..4,
    ) {
        let codec = Compression::from_tag(codec_tag).unwrap();
        let mut builder = LogBlockBuilder::with_options(
            TableSchema::request_log(),
            codec,
            block_rows,
        );
        for row in &rows {
            builder.add_row(row).unwrap();
        }
        let reader = LogBlockReader::open(builder.finish().unwrap()).unwrap();
        prop_assert_eq!(reader.row_count() as usize, rows.len());
        // Full-width fetch of every row.
        let all_ids: Vec<u32> = (0..rows.len() as u32).collect();
        let got = reader.read_rows(&all_ids, &(0..7).collect::<Vec<_>>()).unwrap();
        prop_assert_eq!(&got, &rows);
    }

    /// The builder's pending column buffers and `column::encode_block` are
    /// one encoder: every column block inside a built pack is the bytes
    /// `encode_block` gives for that block's cells — whether the rows came
    /// in as slices of values or as the cells of records read in place.
    #[test]
    fn builder_column_bytes_are_encode_block_bytes(
        rows in proptest::collection::vec(arb_row(), 1..120),
        block_rows in 1usize..40,
        codec_tag in 0u8..4,
    ) {
        let codec = Compression::from_tag(codec_tag).unwrap();
        let schema = TableSchema::request_log();
        let mut by_row = LogBlockBuilder::with_options(schema.clone(), codec, block_rows);
        let mut by_cells = LogBlockBuilder::with_options(schema.clone(), codec, block_rows);
        for row in &rows {
            by_row.add_row(row).unwrap();
            let (tenant, ts) = (row[0].as_u64().unwrap(), row[1].as_i64().unwrap());
            let record = LogRecord::new(TenantId(tenant), Timestamp(ts), row[2..].to_vec());
            by_cells.add_cells(&record.cells().collect::<Vec<Cell>>()).unwrap();
        }
        let pack = by_row.finish().unwrap();
        prop_assert_eq!(&by_cells.finish().unwrap(), &pack);

        let handle = LogBlockHandle::open(&pack).unwrap();
        for (c, (col, meta)) in schema.columns.iter().zip(&handle.meta().columns).enumerate() {
            let (start, _) = handle.manifest().member_object_range(&col_member(c)).unwrap();
            for block in &meta.blocks {
                let cells: Vec<Value> = rows
                    [block.row_start as usize..(block.row_start + block.row_count) as usize]
                    .iter()
                    .map(|row| row[c].clone())
                    .collect();
                let from = (start + block.offset) as usize;
                prop_assert_eq!(
                    &pack[from..from + block.len as usize],
                    &encode_block(col.data_type, &cells, codec).unwrap()[..],
                    "column {} block at row {}", c, block.row_start
                );
            }
        }
    }

    #[test]
    fn scanner_agrees_with_naive_filter(
        rows in proptest::collection::vec(arb_row(), 1..100),
        preds in proptest::collection::vec(arb_predicate(), 0..4),
        block_rows in 1usize..32,
    ) {
        let schema = TableSchema::request_log();
        let mut builder = LogBlockBuilder::with_options(
            schema.clone(),
            Compression::LzHigh,
            block_rows,
        );
        for row in &rows {
            builder.add_row(row).unwrap();
        }
        let reader = LogBlockReader::open(builder.finish().unwrap()).unwrap();

        let expect: Vec<u32> = rows
            .iter()
            .enumerate()
            .filter(|(_, row)| {
                preds.iter().all(|p| {
                    let c = schema.column_index(&p.column).unwrap();
                    p.matches(&row[c])
                })
            })
            .map(|(i, _)| i as u32)
            .collect();

        for skipping in [true, false] {
            let mut stats = ScanStats::default();
            let got = evaluate_predicates(&reader, &preds, skipping, &mut stats).unwrap();
            prop_assert_eq!(
                got.to_vec(), expect.clone(),
                "skipping={} preds={:?}", skipping, preds
            );
            // read_rows materializes exactly the matched rows.
            let log = schema.column_index("log").unwrap();
            let fetched = reader.read_rows(&got.to_vec(), &[log]).unwrap();
            prop_assert_eq!(fetched.len(), expect.len());
        }
    }
}
