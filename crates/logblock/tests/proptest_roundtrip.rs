//! Whole-format property test: arbitrary valid rows survive the complete
//! build → pack → open → scan → fetch pipeline byte-for-byte, and the
//! data-skipping scanner agrees with a naive row filter on arbitrary
//! conjunctions.

use logstore_codec::Compression;
use logstore_logblock::column::{whole_batch, ColumnEncoder};
use logstore_logblock::meta::col_member;
use logstore_logblock::scan::{evaluate_predicates, ScanStats};
use logstore_logblock::{ColumnVec, LogBlockBuilder, LogBlockHandle, LogBlockReader};
use logstore_types::{CmpOp, ColumnPredicate, ColumnSchema, DataType, TableSchema, Value};
use proptest::prelude::*;

/// `values` as one column block, through the encoder the WAL uses: the
/// reference the builder's blocks are held to.
fn encode_block(dtype: DataType, values: &[Value], codec: Compression) -> Vec<u8> {
    let mut column = ColumnVec::empty(dtype);
    values.iter().for_each(|v| assert!(column.push_exact(v.cell())));
    ColumnEncoder::default().encode(&column, codec).to_vec()
}

/// `rows` of `schema` as one column batch.
fn batch(schema: &TableSchema, rows: &[Vec<Value>]) -> Vec<ColumnVec> {
    let column = |(c, col): (usize, &ColumnSchema)| {
        let mut batch = ColumnVec::empty(col.data_type);
        rows.iter().for_each(|row| assert!(batch.push_exact(row[c].cell())));
        batch
    };
    schema.columns.iter().enumerate().map(column).collect()
}

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
    /// in one by one as values or as one column batch.
    #[test]
    fn builder_column_bytes_are_encode_block_bytes(
        rows in proptest::collection::vec(arb_row(), 1..120),
        block_rows in 1usize..40,
        codec_tag in 0u8..4,
    ) {
        let codec = Compression::from_tag(codec_tag).unwrap();
        let schema = TableSchema::request_log();
        let mut by_row = LogBlockBuilder::with_options(schema.clone(), codec, block_rows);
        for row in &rows {
            by_row.add_row(row).unwrap();
        }
        let mut by_batch = LogBlockBuilder::with_options(schema.clone(), codec, block_rows);
        by_batch.add(&[&batch(&schema, &rows)], &whole_batch(rows.len())).unwrap();
        let pack = by_row.finish().unwrap();
        prop_assert_eq!(&by_batch.finish().unwrap(), &pack);

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
                    &encode_block(col.data_type, &cells, codec)[..],
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

/// A nullable column of every type behind the two NOT NULL keys, and every
/// index kind: BKD on the integers, inverted on `s`, full text on `t`.
fn every_type() -> TableSchema {
    let key = |name, dtype| ColumnSchema::new(name, dtype).not_null();
    let columns = vec![
        key("tenant_id", DataType::UInt64),
        key("ts", DataType::Int64),
        ColumnSchema::new("i", DataType::Int64),
        ColumnSchema::new("u", DataType::UInt64),
        ColumnSchema::new("s", DataType::String),
        ColumnSchema::new("t", DataType::String).full_text(),
        ColumnSchema::new("b", DataType::Bool),
    ];
    TableSchema::new("every_type", columns).unwrap()
}

/// A row of [`every_type`], NULLs possible in every nullable column.
fn arb_every_type_row() -> impl Strategy<Value = Vec<Value>> {
    let or_null = |cell: BoxedStrategy<Value>| prop_oneof![Just(Value::Null), cell];
    (
        0u64..3,
        -5i64..20,
        or_null(any::<i64>().prop_map(Value::I64).boxed()),
        or_null(any::<u64>().prop_map(Value::U64).boxed()),
        or_null("[a-cé]{0,4}".prop_map(Value::Str).boxed()),
        or_null("[a-c é]{0,12}".prop_map(Value::Str).boxed()),
        or_null(any::<bool>().prop_map(Value::Bool).boxed()),
    )
        .prop_map(|(t, ts, i, u, s, text, b)| vec![Value::U64(t), Value::I64(ts), i, u, s, text, b])
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// A drain chunk's input — a ts-sorted selection that interleaves runs
    /// and skips rows, split over two calls — builds the bytes and the
    /// range of one contiguous batch of the same rows and of those rows
    /// added one by one, wherever the column blocks cut the runs.
    #[test]
    fn prop_a_selection_builds_the_bytes_of_a_contiguous_batch(
        runs in proptest::collection::vec(
            proptest::collection::vec((arb_every_type_row(), any::<bool>()), 1..30),
            1..6,
        ),
        block_rows in 1usize..17,
        split in 0usize..150,
        codec_tag in 0u8..4,
    ) {
        let schema = every_type();
        let codec = Compression::from_tag(codec_tag).unwrap();
        let run_rows = |run: &Vec<(Vec<Value>, bool)>| -> Vec<Vec<Value>> {
            run.iter().map(|(row, _)| row.clone()).collect()
        };
        let batches: Vec<Vec<ColumnVec>> =
            runs.iter().map(|run| batch(&schema, &run_rows(run))).collect();
        let batches: Vec<&[ColumnVec]> = batches.iter().map(Vec::as_slice).collect();
        let row = |&(b, r): &(u32, u32)| &runs[b as usize][r as usize].0;
        let mut selection: Vec<(u32, u32)> = Vec::new();
        for (b, run) in runs.iter().enumerate() {
            let picked = run.iter().enumerate().filter(|(_, (_, picked))| *picked);
            selection.extend(picked.map(|(r, _)| (b as u32, r as u32)));
        }
        selection.sort_by_key(|pair| (row(pair)[1].as_i64(), *pair));
        let rows: Vec<Vec<Value>> = selection.iter().map(|pair| row(pair).clone()).collect();

        let build = |fill: &dyn Fn(&mut LogBlockBuilder)| {
            let mut builder = LogBlockBuilder::with_options(schema.clone(), codec, block_rows);
            fill(&mut builder);
            let (bytes, range, _) = builder.finish_timed().unwrap();
            (bytes, range)
        };
        let selected = build(&|builder| {
            let (first, rest) = selection.split_at(split.min(selection.len()));
            builder.add(&batches, first).unwrap();
            builder.add(&batches, rest).unwrap();
        });
        let contiguous = build(&|builder| {
            builder.add(&[&batch(&schema, &rows)], &whole_batch(rows.len())).unwrap()
        });
        let by_row = build(&|builder| rows.iter().for_each(|row| builder.add_row(row).unwrap()));
        prop_assert_eq!(&selected, &contiguous);
        prop_assert_eq!(&selected, &by_row);
        let reader = LogBlockReader::open(selected.0).unwrap();
        let all: Vec<u32> = (0..rows.len() as u32).collect();
        prop_assert_eq!(reader.read_rows(&all, &(0..7).collect::<Vec<_>>()).unwrap(), rows);
    }
}
