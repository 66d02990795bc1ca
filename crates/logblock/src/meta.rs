//! LogBlock metadata: Figure 4's header ①, column meta ② and column-block
//! headers ④, serialized into the pack's `meta` member.

use logstore_codec::varint::{put_str, put_uvarint, read_str, read_uvarint};
use logstore_codec::Compression;
use logstore_index::Sma;
use logstore_types::{
    ColumnSchema, DataType, Error, IndexKind, Result, TableSchema, TimeRange, Timestamp,
};

/// Magic bytes of the meta member.
pub const META_MAGIC: &[u8; 4] = b"LSB1";

/// Name of the meta member inside the pack.
pub const META_MEMBER: &str = "meta";

/// Pack member name of column `i`'s index dictionary (term dictionary /
/// BKD fences — small, read eagerly at lookup time).
pub fn index_member(col: usize) -> String {
    format!("index.{col}")
}

/// Pack member name of column `i`'s index payload (posting lists / BKD
/// leaves — large, range-read per lookup).
pub fn index_data_member(col: usize) -> String {
    format!("index.{col}.data")
}

/// Pack member name of column `i`'s data blocks.
pub fn col_member(col: usize) -> String {
    format!("col.{col}")
}

/// Header of one column block (Fig 4 ④): where the block's bytes live
/// inside the column member, how many rows it holds, and its SMA.
#[derive(Debug, Clone, PartialEq)]
pub struct BlockMeta {
    /// Row id of the block's first row.
    pub row_start: u32,
    /// Number of rows in the block.
    pub row_count: u32,
    /// Min/max/null statistics of the block.
    pub sma: Sma,
    /// Byte offset of the block within the column member.
    pub offset: u64,
    /// Byte length of the block within the column member.
    pub len: u64,
}

/// Metadata of one column (Fig 4 ②).
#[derive(Debug, Clone, PartialEq)]
pub struct ColumnMeta {
    /// Compression used for this column's data frames.
    pub compression: Compression,
    /// Column-level SMA (merge of all block SMAs).
    pub sma: Sma,
    /// Which index the column carries in this LogBlock: the schema's, or
    /// `None` where the builder found the index would answer nothing the
    /// SMAs do not (a numeric column sorted in its block).
    pub index: IndexKind,
    /// Column block headers, in row order.
    pub blocks: Vec<BlockMeta>,
}

/// The full meta member (Fig 4 ① + ② + ④).
#[derive(Debug, Clone, PartialEq)]
pub struct LogBlockMeta {
    /// Embedded table schema (self-contained blocks).
    pub schema: TableSchema,
    /// Total number of rows.
    pub row_count: u32,
    /// Per-column metadata, aligned with `schema.columns`.
    pub columns: Vec<ColumnMeta>,
}

impl LogBlockMeta {
    /// The min/max timestamp range covered by this block, taken from the
    /// `ts` column SMA (used by the LogBlock map for pruning).
    pub fn time_range(&self) -> Option<TimeRange> {
        time_range(&self.schema, &self.columns)
    }

    /// Serializes the meta member.
    pub fn serialize(&self) -> Vec<u8> {
        Self::serialize_parts(&self.schema, self.row_count, &self.columns)
    }

    /// [`LogBlockMeta::serialize`] over borrowed parts, so the builder can
    /// emit the meta member of a schema it only shares.
    pub(crate) fn serialize_parts(
        schema: &TableSchema,
        row_count: u32,
        columns: &[ColumnMeta],
    ) -> Vec<u8> {
        let mut out = Vec::new();
        out.extend_from_slice(META_MAGIC);
        put_str(&mut out, &schema.name);
        put_uvarint(&mut out, schema.columns.len() as u64);
        for c in &schema.columns {
            put_str(&mut out, &c.name);
            out.push(c.data_type.tag());
            out.push(u8::from(c.nullable));
            out.push(c.index.tag());
        }
        put_uvarint(&mut out, u64::from(row_count));
        for cm in columns {
            out.push(cm.compression.tag());
            out.extend_from_slice(&cm.sma.serialize());
            out.push(cm.index.tag());
            put_uvarint(&mut out, cm.blocks.len() as u64);
            for b in &cm.blocks {
                put_uvarint(&mut out, u64::from(b.row_start));
                put_uvarint(&mut out, u64::from(b.row_count));
                out.extend_from_slice(&b.sma.serialize());
                put_uvarint(&mut out, b.offset);
                put_uvarint(&mut out, b.len);
            }
        }
        out
    }

    /// Parses a meta member.
    pub fn deserialize(data: &[u8]) -> Result<Self> {
        if data.len() < 4 || &data[0..4] != META_MAGIC {
            return Err(Error::corruption("bad logblock meta magic"));
        }
        let mut pos = 4;
        let table_name = read_str(data, &mut pos)?.to_string();
        let n_cols = read_uvarint(data, &mut pos)? as usize;
        if n_cols > 4096 {
            return Err(Error::corruption("column count implausible"));
        }
        let mut cols = Vec::with_capacity(n_cols);
        for _ in 0..n_cols {
            let name = read_str(data, &mut pos)?.to_string();
            let dtype = DataType::from_tag(next_byte(data, &mut pos)?)
                .ok_or_else(|| Error::corruption("bad data type tag"))?;
            let nullable = next_byte(data, &mut pos)? != 0;
            let index = IndexKind::from_tag(next_byte(data, &mut pos)?)
                .ok_or_else(|| Error::corruption("bad index tag"))?;
            cols.push(ColumnSchema { name, data_type: dtype, nullable, index });
        }
        let schema =
            TableSchema::new(table_name, cols).map_err(|e| Error::corruption(e.to_string()))?;
        let row_count = read_uvarint(data, &mut pos)?;
        if row_count > u64::from(u32::MAX) {
            return Err(Error::corruption("row count overflow"));
        }
        let mut columns: Vec<ColumnMeta> = Vec::with_capacity(n_cols);
        for _ in 0..n_cols {
            let compression = Compression::from_tag(next_byte(data, &mut pos)?)
                .ok_or_else(|| Error::corruption("bad compression tag"))?;
            let sma = Sma::deserialize(data, &mut pos)?;
            let index = IndexKind::from_tag(next_byte(data, &mut pos)?)
                .filter(|&index| {
                    index == IndexKind::None || index == schema.columns[columns.len()].index
                })
                .ok_or_else(|| Error::corruption("bad index tag"))?;
            let n_blocks = read_uvarint(data, &mut pos)? as usize;
            if n_blocks > row_count as usize + 1 {
                return Err(Error::corruption("block count implausible"));
            }
            // Every block takes several bytes: a count past the bytes left
            // sizes nothing.
            let mut blocks = Vec::with_capacity(n_blocks.min(data.len() - pos));
            // One block layout per LogBlock: each column's blocks tile the
            // rows in order, cut where column 0's are, so a reader can
            // decode block `i` of every column side by side.
            let mut next = 0; // the row the column's next block starts at
            for i in 0..n_blocks {
                let row_start = read_uvarint(data, &mut pos)?;
                let block_rows = read_uvarint(data, &mut pos)?;
                let bsma = Sma::deserialize(data, &mut pos)?;
                let offset = read_uvarint(data, &mut pos)?;
                let len = read_uvarint(data, &mut pos)?;
                let end = row_start
                    .checked_add(block_rows)
                    .filter(|&end| row_start == next && end > next && end <= row_count);
                let cut_as_column_0 = columns.first().is_none_or(|first| {
                    first.blocks.get(i).is_some_and(|b| u64::from(b.row_count) == block_rows)
                });
                match end {
                    Some(end) if cut_as_column_0 => next = end,
                    _ => {
                        return Err(Error::corruption("column blocks do not tile the rows in step"))
                    }
                }
                blocks.push(BlockMeta {
                    row_start: row_start as u32,
                    row_count: block_rows as u32,
                    sma: bsma,
                    offset,
                    len,
                });
            }
            if next != row_count {
                return Err(Error::corruption("column blocks do not cover the rows"));
            }
            columns.push(ColumnMeta { compression, sma, index, blocks });
        }
        Ok(LogBlockMeta { schema, row_count: row_count as u32, columns })
    }
}

/// [`LogBlockMeta::time_range`] over borrowed parts, so the builder can
/// return the range of the meta it emits.
pub(crate) fn time_range(schema: &TableSchema, columns: &[ColumnMeta]) -> Option<TimeRange> {
    let sma = &columns.get(schema.column_index("ts")?)?.sma;
    let lo = sma.min.as_ref()?.as_i64()?;
    let hi = sma.max.as_ref()?.as_i64()?;
    Some(TimeRange::new(Timestamp(lo), Timestamp(hi)))
}

fn next_byte(data: &[u8], pos: &mut usize) -> Result<u8> {
    let b = *data.get(*pos).ok_or_else(|| Error::corruption("meta truncated"))?;
    *pos += 1;
    Ok(b)
}

#[cfg(test)]
mod tests {
    use super::*;
    use logstore_types::Value;

    fn sample_meta() -> LogBlockMeta {
        let schema = TableSchema::request_log();
        let mut columns = Vec::new();
        for (i, _) in schema.columns.iter().enumerate() {
            let mut sma = Sma::new();
            sma.update(&Value::I64(i as i64));
            sma.update(&Value::I64(100 + i as i64));
            let block =
                BlockMeta { row_start: 0, row_count: 2, sma: sma.clone(), offset: 0, len: 64 };
            columns.push(ColumnMeta {
                compression: Compression::LzHigh,
                sma,
                index: schema.columns[i].index,
                blocks: vec![block],
            });
        }
        LogBlockMeta { schema, row_count: 2, columns }
    }

    #[test]
    fn roundtrip() {
        let m = sample_meta();
        let bytes = m.serialize();
        assert_eq!(LogBlockMeta::deserialize(&bytes).unwrap(), m);
    }

    #[test]
    fn bad_magic_rejected() {
        let mut bytes = sample_meta().serialize();
        bytes[0] = b'x';
        assert!(LogBlockMeta::deserialize(&bytes).is_err());
        assert!(LogBlockMeta::deserialize(&[]).is_err());
    }

    #[test]
    fn truncation_rejected_everywhere() {
        let bytes = sample_meta().serialize();
        for cut in [5, 10, bytes.len() / 2, bytes.len() - 1] {
            assert!(LogBlockMeta::deserialize(&bytes[..cut]).is_err(), "cut at {cut} should fail");
        }
    }

    /// A meta of one `UInt64` column of `row_count` rows whose column
    /// declares `n_blocks` blocks, of which one is written: rows
    /// `row_start..row_start + 1`.
    fn forged(row_count: u64, n_blocks: u64, row_start: u64) -> Vec<u8> {
        let mut out = META_MAGIC.to_vec();
        put_str(&mut out, "t");
        put_uvarint(&mut out, 1);
        put_str(&mut out, "tenant_id");
        out.extend([DataType::UInt64.tag(), 0, IndexKind::None.tag()]);
        put_uvarint(&mut out, row_count);
        out.push(Compression::None.tag());
        out.extend_from_slice(&Sma::new().serialize());
        out.push(IndexKind::None.tag());
        put_uvarint(&mut out, n_blocks);
        for field in [row_start, 1] {
            put_uvarint(&mut out, field);
        }
        out.extend_from_slice(&Sma::new().serialize());
        put_uvarint(&mut out, 0);
        put_uvarint(&mut out, 8);
        out
    }

    #[test]
    fn a_forged_meta_is_well_formed() {
        let meta = LogBlockMeta::deserialize(&forged(1, 1, 0)).unwrap();
        assert_eq!((meta.row_count, meta.columns[0].blocks[0].row_count), (1, 1));
    }

    #[test]
    fn a_block_row_start_that_overflows_is_corruption() {
        // `row_start + block_rows` past u64: no overflow, no truncation.
        let err = LogBlockMeta::deserialize(&forged(10, 1, u64::MAX)).unwrap_err();
        assert!(matches!(err, Error::Corruption(_)), "{err}");
    }

    #[test]
    fn a_block_count_past_the_bytes_left_sizes_nothing() {
        // u32::MAX blocks of a u32::MAX-row column, in a few dozen bytes:
        // the count must not size the block list.
        let bytes = forged(u64::from(u32::MAX), u64::from(u32::MAX), 0);
        let err = LogBlockMeta::deserialize(&bytes).unwrap_err();
        assert!(matches!(err, Error::Corruption(_)), "{err}");
    }

    /// A meta of `layouts.len()` `UInt64` columns and `row_count` rows,
    /// column `c` holding the blocks `layouts[c]` as `(row_start, rows)`.
    fn laid_out(row_count: u64, layouts: &[&[(u64, u64)]]) -> Vec<u8> {
        let mut out = META_MAGIC.to_vec();
        put_str(&mut out, "t");
        put_uvarint(&mut out, layouts.len() as u64);
        for c in 0..layouts.len() {
            put_str(&mut out, &format!("c{c}"));
            out.extend([DataType::UInt64.tag(), 0, IndexKind::None.tag()]);
        }
        put_uvarint(&mut out, row_count);
        for blocks in layouts {
            out.push(Compression::None.tag());
            out.extend_from_slice(&Sma::new().serialize());
            out.push(IndexKind::None.tag());
            put_uvarint(&mut out, blocks.len() as u64);
            for &(row_start, rows) in blocks.iter() {
                put_uvarint(&mut out, row_start);
                put_uvarint(&mut out, rows);
                out.extend_from_slice(&Sma::new().serialize());
                put_uvarint(&mut out, 0);
                put_uvarint(&mut out, 8);
            }
        }
        out
    }

    #[test]
    fn column_blocks_that_do_not_tile_the_rows_in_step_are_corruption() {
        let tiled: &[(u64, u64)] = &[(0, 2), (2, 2)];
        let meta = LogBlockMeta::deserialize(&laid_out(4, &[tiled, tiled])).unwrap();
        assert_eq!(meta.columns[1].blocks.len(), 2);
        assert!(LogBlockMeta::deserialize(&laid_out(0, &[&[], &[]])).is_ok(), "no rows, no blocks");
        for (what, layouts) in [
            ("overlapping", &[&[(0, 3), (2, 2)][..]][..]),
            ("a gap", &[&[(0, 1), (2, 2)]]),
            ("out of order", &[&[(2, 2), (0, 2)]]),
            ("an empty block", &[&[(0, 0), (0, 4)]]),
            ("short of the rows", &[&[(0, 2)]]),
            ("cut elsewhere in column 1", &[tiled, &[(0, 3), (3, 1)]]),
            ("fewer blocks in column 1", &[tiled, &[(0, 4)]]),
            ("more blocks in column 1", &[&[(0, 4)], tiled]),
        ] {
            let err = LogBlockMeta::deserialize(&laid_out(4, layouts)).unwrap_err();
            assert!(matches!(err, Error::Corruption(_)), "{what}: {err}");
        }
    }

    #[test]
    fn duplicate_column_names_are_corruption() {
        let mut bytes = META_MAGIC.to_vec();
        put_str(&mut bytes, "t");
        put_uvarint(&mut bytes, 2);
        for _ in 0..2 {
            put_str(&mut bytes, "c");
            bytes.extend([DataType::Int64.tag(), 1, IndexKind::None.tag()]);
        }
        let err = LogBlockMeta::deserialize(&bytes).unwrap_err();
        assert!(matches!(err, Error::Corruption(_)), "{err}");
    }

    proptest::proptest! {
        /// A valid meta with bytes overwritten, a large varint spliced in,
        /// or a tail cut off, or a forged one whose block count or first
        /// block's row range is as large as it likes, parses or is
        /// corruption: never a panic, an overflow or an allocation sized by
        /// a forged count.
        #[test]
        fn prop_mutated_metas_parse_or_are_corruption(
            at in 0usize..1024,
            edit in 0u8..4,
            bytes in proptest::collection::vec(proptest::prelude::any::<u8>(), 1..6),
            big in proptest::prelude::any::<u64>(),
            rows in proptest::prelude::any::<u32>(),
        ) {
            let mut meta = sample_meta().serialize();
            let at = at % meta.len();
            match edit {
                0 => meta.iter_mut().skip(at).zip(&bytes).for_each(|(b, new)| *b = *new),
                1 => {
                    let mut varint = Vec::new();
                    put_uvarint(&mut varint, big >> (big % 64));
                    meta.splice(at..(at + varint.len()).min(meta.len()), varint);
                }
                2 => meta.truncate(at),
                _ => {
                    let rows = u64::from(rows);
                    meta = forged(rows, [rows, 1][at % 2], [u64::MAX, big][at / 2 % 2]);
                }
            }
            match LogBlockMeta::deserialize(&meta) {
                Ok(_) | Err(Error::Corruption(_)) => {}
                Err(e) => proptest::prop_assert!(false, "not corruption: {e}"),
            }
        }
    }

    #[test]
    fn time_range_from_ts_sma() {
        let mut m = sample_meta();
        let ts_idx = m.schema.column_index("ts").unwrap();
        let mut sma = Sma::new();
        sma.update(&Value::I64(1000));
        sma.update(&Value::I64(2000));
        m.columns[ts_idx].sma = sma;
        let r = m.time_range().unwrap();
        assert_eq!(r.start, Timestamp(1000));
        assert_eq!(r.end, Timestamp(2000));
    }

    #[test]
    fn member_names() {
        assert_eq!(index_member(3), "index.3");
        assert_eq!(col_member(0), "col.0");
    }
}
