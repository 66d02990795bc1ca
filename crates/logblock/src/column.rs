//! Column block encoding (Fig 4 ⑤: bitset + compressed data).
//!
//! Each column block stores a null bitset followed by the type-specific
//! value encoding, both in compression frames:
//!
//! ```text
//! varint bitset_frame_len | bitset frame (RLE) | data frame (column codec)
//! ```
//!
//! Null slots keep a placeholder in the value encoding (0 / empty string)
//! so row ids stay positional; the bitset is authoritative for NULL-ness.

use logstore_codec::varint::{put_uvarint, read_uvarint};
use logstore_codec::{decompress, delta, Compression, Compressor};
use logstore_types::{Cell, ColumnData, ColumnVec, DataType, Error, Result, Value};

/// Hard cap for a decoded data frame (decompression-bomb guard).
const MAX_DATA_BYTES: usize = 1 << 30;

/// One column block being accumulated, in the layout its encoding reads:
/// the null bitset and the codec's typed input (for strings, the
/// length-prefixed bytes of the data frame), every buffer reused. The one
/// column encoder: [`PendingBlock::gather`] is its one input, for the
/// builder and for [`ColumnEncoder`] (the WAL's runs).
#[derive(Debug)]
pub(crate) struct PendingBlock {
    len: usize,
    /// Bit `i` set ⇒ row `i` is NULL.
    nulls: Vec<u8>,
    data: PendingData,
    /// The null bitset's frame, whose length precedes it in the block, and
    /// then the delta stream of an integer block.
    scratch: Vec<u8>,
}

/// Typed values of a [`PendingBlock`] (placeholder 0 / false / empty in
/// NULL slots, so row ids stay positional).
#[derive(Debug)]
enum PendingData {
    I64(Vec<i64>),
    U64(Vec<u64>),
    /// Bit-packed, bit `i` = row `i`.
    Bool(Vec<u8>),
    /// `uvarint len ++ bytes` per row.
    Str(Vec<u8>),
}

/// What a gather shows of each cell it appends, by the cell's position in
/// the selection: the builder folds SMAs and feeds index writers from it.
pub(crate) trait Visit<'a> {
    /// A cell that is not a string, or a NULL.
    fn cell(&mut self, _row: usize, _cell: Cell<'a>) {}
    /// A string cell's bytes (UTF-8 in every batch the crates build).
    fn bytes(&mut self, _row: usize, _bytes: &'a [u8]) {}
}

impl Visit<'_> for () {}

/// Sets bit `i` of `bits`.
fn set_bit(bits: &mut [u8], i: usize) {
    bits[i / 8] |= 1 << (i % 8);
}

impl PendingBlock {
    pub(crate) fn new(dtype: DataType) -> Self {
        let data = match dtype {
            DataType::Int64 => PendingData::I64(Vec::new()),
            DataType::UInt64 => PendingData::U64(Vec::new()),
            DataType::Bool => PendingData::Bool(Vec::new()),
            DataType::String => PendingData::Str(Vec::new()),
        };
        PendingBlock { len: 0, nulls: Vec::new(), data, scratch: Vec::new() }
    }

    /// Rows gathered since the last [`PendingBlock::encode_into`].
    pub(crate) fn len(&self) -> usize {
        self.len
    }

    /// Appends column `col` of the selected `rows`, each a `(batch, row)`
    /// pair into `batches`, and shows each appended cell to `visit`. The
    /// caller has checked that every pair is in bounds; a cell of another
    /// type than the block's is read as NULL, and a NULL slot takes the
    /// placeholder whatever the batch holds there.
    pub(crate) fn gather<'a>(
        &mut self,
        batches: &[&'a [ColumnVec]],
        col: usize,
        rows: &[(u32, u32)],
        visit: &mut impl Visit<'a>,
    ) {
        let (start, len) = (self.len, self.len + rows.len());
        self.len = len;
        self.nulls.resize(len.div_ceil(8), 0);
        if let PendingData::Bool(bits) = &mut self.data {
            bits.resize(len.div_ceil(8), 0);
        }
        for (k, &(batch, row)) in rows.iter().enumerate() {
            let column: &'a ColumnVec = &batches[batch as usize][col];
            let row = row as usize;
            let null = column.has_nulls() && column.is_null(row);
            match (&mut self.data, column.data()) {
                (PendingData::I64(out), ColumnData::I64(vals)) if !null => {
                    out.push(vals[row]);
                    visit.cell(k, Cell::I64(vals[row]));
                }
                (PendingData::U64(out), ColumnData::U64(vals)) if !null => {
                    out.push(vals[row]);
                    visit.cell(k, Cell::U64(vals[row]));
                }
                (PendingData::Bool(out), ColumnData::Bool(bits)) if !null => {
                    let value = bits[row / 8] & (1 << (row % 8)) != 0;
                    if value {
                        set_bit(out, start + k);
                    }
                    visit.cell(k, Cell::Bool(value));
                }
                (PendingData::Str(out), ColumnData::Str { data, ranges }) if !null => {
                    let bytes = &data[ranges[row].0 as usize..ranges[row].1 as usize];
                    put_uvarint(out, bytes.len() as u64);
                    out.extend_from_slice(bytes);
                    visit.bytes(k, bytes);
                }
                (pending, _) => {
                    match pending {
                        PendingData::I64(out) => out.push(0),
                        PendingData::U64(out) => out.push(0),
                        PendingData::Bool(_) => {}
                        PendingData::Str(out) => out.push(0),
                    }
                    set_bit(&mut self.nulls, start + k);
                    visit.cell(k, Cell::Null);
                }
            }
        }
    }

    /// Encodes the gathered rows as one column block, appended to `out`,
    /// and empties the block, keeping its buffers. The data frame is
    /// written in place; only the small null-bitset frame passes through
    /// scratch, because its length precedes it.
    pub(crate) fn encode_into(
        &mut self,
        compression: Compression,
        compressor: &mut Compressor,
        out: &mut Vec<u8>,
    ) {
        self.scratch.clear();
        compressor.compress_into(Compression::Rle, &self.nulls, &mut self.scratch);
        put_uvarint(out, self.scratch.len() as u64);
        out.extend_from_slice(&self.scratch);
        self.scratch.clear();
        let data = match &self.data {
            PendingData::I64(nums) => {
                delta::encode_i64_into(nums, &mut self.scratch);
                &self.scratch
            }
            PendingData::U64(nums) => {
                delta::encode_u64_into(nums, &mut self.scratch);
                &self.scratch
            }
            PendingData::Bool(bytes) | PendingData::Str(bytes) => bytes,
        };
        compressor.compress_into(compression, data, out);
        self.len = 0;
        self.nulls.clear();
        match &mut self.data {
            PendingData::I64(nums) => nums.clear(),
            PendingData::U64(nums) => nums.clear(),
            PendingData::Bool(bytes) | PendingData::Str(bytes) => bytes.clear(),
        }
    }
}

/// The selection of every row of batch 0, in order: how a contiguous
/// batch (a decoded block, a WAL run, a tool's rows) is read.
pub fn whole_batch(rows: usize) -> Vec<(u32, u32)> {
    (0..rows as u32).map(|row| (0, row)).collect()
}

/// Encodes whole column batches one block at a time through one set of
/// buffers — a pending block per type, the compressor, the block — so
/// that encoding allocates only while a batch is larger than any before.
#[derive(Debug, Default)]
pub struct ColumnEncoder {
    pending: Vec<(DataType, PendingBlock)>,
    compressor: Compressor,
    block: Vec<u8>,
    whole: Vec<(u32, u32)>,
}

impl ColumnEncoder {
    /// `column` as one column block, borrowed until the next call.
    pub fn encode(&mut self, column: &ColumnVec, compression: Compression) -> &[u8] {
        let n = column.len();
        if self.whole.len() < n {
            self.whole = whole_batch(n);
        }
        let dtype = column.data_type();
        let at = self.pending.iter().position(|(held, _)| *held == dtype).unwrap_or_else(|| {
            self.pending.push((dtype, PendingBlock::new(dtype)));
            self.pending.len() - 1
        });
        let pending = &mut self.pending[at].1;
        pending.gather(&[std::slice::from_ref(column)], 0, &self.whole[..n], &mut ());
        self.block.clear();
        pending.encode_into(compression, &mut self.compressor, &mut self.block);
        &self.block
    }
}

/// Splits a column block of `n` rows of `dtype` into its null bitset
/// (decoded, one bit per row) and its decoded data frame. The data frame
/// comes first and must be able to hold `n` rows — an int or string row
/// takes at least a byte, bools exactly a bit — so a forged row count
/// sizes nothing.
fn split_block(dtype: DataType, bytes: &[u8], n: usize) -> Result<(Vec<u8>, Vec<u8>)> {
    let mut pos = 0;
    let bitset_len = read_uvarint(bytes, &mut pos)? as usize;
    let bitset_end = pos
        .checked_add(bitset_len)
        .filter(|end| *end <= bytes.len())
        .ok_or_else(|| Error::corruption("bitset frame truncated"))?;
    let data = decompress(&bytes[bitset_end..], MAX_DATA_BYTES)?;
    let holds = match dtype {
        DataType::Bool => data.len() == n.div_ceil(8),
        DataType::Int64 | DataType::UInt64 | DataType::String => n <= data.len(),
    };
    if !holds {
        return Err(Error::corruption(format!("{dtype} block cannot hold {n} rows")));
    }
    let bitset = decompress(&bytes[pos..bitset_end], n.div_ceil(8))?;
    if bitset.len() != n.div_ceil(8) {
        return Err(Error::corruption("bitset length mismatch"));
    }
    Ok((bitset, data))
}

/// Decodes one column block into positional values: one boxed [`Value`]
/// per row. The row-at-a-time oracle of [`decode_block_into`]; no shipped
/// read path calls it.
pub fn decode_block(dtype: DataType, bytes: &[u8], row_count: u32) -> Result<Vec<Value>> {
    let n = row_count as usize;
    let (bitset, data) = split_block(dtype, bytes, n)?;
    let is_null = |i: usize| bitset[i / 8] & (1 << (i % 8)) != 0;

    let mut out = Vec::with_capacity(n);
    match dtype {
        DataType::Int64 => {
            let nums = delta::decode_i64(&data, n)?;
            if nums.len() != n {
                return Err(Error::corruption("int64 block row count mismatch"));
            }
            for (i, v) in nums.into_iter().enumerate() {
                out.push(if is_null(i) { Value::Null } else { Value::I64(v) });
            }
        }
        DataType::UInt64 => {
            let nums = delta::decode_u64(&data, n)?;
            if nums.len() != n {
                return Err(Error::corruption("uint64 block row count mismatch"));
            }
            for (i, v) in nums.into_iter().enumerate() {
                out.push(if is_null(i) { Value::Null } else { Value::U64(v) });
            }
        }
        DataType::Bool => {
            for i in 0..n {
                out.push(if is_null(i) {
                    Value::Null
                } else {
                    Value::Bool(data[i / 8] & (1 << (i % 8)) != 0)
                });
            }
        }
        DataType::String => {
            let mut dpos = 0;
            for i in 0..n {
                let len = read_uvarint(&data, &mut dpos)? as usize;
                let end = dpos
                    .checked_add(len)
                    .ok_or_else(|| Error::corruption("string length overflow"))?;
                let s = data
                    .get(dpos..end)
                    .ok_or_else(|| Error::corruption("string block truncated"))?;
                dpos = end;
                if is_null(i) {
                    out.push(Value::Null);
                } else {
                    let s = std::str::from_utf8(s)
                        .map_err(|_| Error::corruption("invalid utf-8 in string block"))?;
                    out.push(Value::Str(s.to_string()));
                }
            }
            if dpos != data.len() {
                return Err(Error::corruption("trailing bytes in string block"));
            }
        }
    }
    Ok(out)
}

/// Decodes one column block into `out`, reusing its buffers when the typed
/// variant already matches: the one way a shipped read path decodes a
/// column block.
pub fn decode_block_into(
    dtype: DataType,
    bytes: &[u8],
    row_count: u32,
    out: &mut ColumnVec,
) -> Result<()> {
    let n = row_count as usize;
    let (bitset, data) = split_block(dtype, bytes, n)?;

    // `out` is empty from here until the block is whole: a failed decode
    // leaves no half-written batch readable.
    let (_, buffers) = std::mem::take(out).into_parts();
    let decoded = match dtype {
        DataType::Int64 => {
            let mut vals = if let ColumnData::I64(vals) = buffers { vals } else { Vec::new() };
            delta::decode_i64_into(&data, n, &mut vals)?;
            if vals.len() != n {
                return Err(Error::corruption("int64 block row count mismatch"));
            }
            ColumnData::I64(vals)
        }
        DataType::UInt64 => {
            let mut vals = if let ColumnData::U64(vals) = buffers { vals } else { Vec::new() };
            delta::decode_u64_into(&data, n, &mut vals)?;
            if vals.len() != n {
                return Err(Error::corruption("uint64 block row count mismatch"));
            }
            ColumnData::U64(vals)
        }
        DataType::Bool => ColumnData::Bool(data),
        DataType::String => {
            let mut ranges = match buffers {
                ColumnData::Str { mut ranges, .. } => {
                    ranges.clear();
                    ranges
                }
                _ => Vec::new(),
            };
            ranges.reserve(n);
            // One pass over the frame instead of one per row: short rows
            // have one-byte (ASCII) lengths, so the frame is usually text
            // as a whole, and then a row is valid exactly when it begins
            // and ends on a character boundary. A frame that is not (a
            // long row's length bytes, a stray byte in a NULL slot) is
            // checked row by row.
            let text = std::str::from_utf8(&data);
            let mut dpos = 0;
            for i in 0..n {
                let len = read_uvarint(&data, &mut dpos)? as usize;
                let end = dpos
                    .checked_add(len)
                    .ok_or_else(|| Error::corruption("string length overflow"))?;
                let s = data
                    .get(dpos..end)
                    .ok_or_else(|| Error::corruption("string block truncated"))?;
                let is_null = bitset[i / 8] & (1 << (i % 8)) != 0;
                let valid = match text {
                    Ok(text) => text.is_char_boundary(dpos) && text.is_char_boundary(end),
                    Err(_) => std::str::from_utf8(s).is_ok(),
                };
                if !is_null && !valid {
                    return Err(Error::corruption("invalid utf-8 in string block"));
                }
                ranges.push((dpos as u32, end as u32));
                dpos = end;
            }
            if dpos != data.len() {
                return Err(Error::corruption("trailing bytes in string block"));
            }
            ColumnData::Str { data, ranges }
        }
    };
    *out = ColumnVec::from_parts(n, bitset, decoded)?;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use logstore_codec::compress;
    use proptest::prelude::*;

    /// Encodes `values` as one column block: the reference the builder's
    /// blocks are held to. A value that is not of `dtype` (or NULL) is
    /// `InvalidArgument`.
    fn encode_block(
        dtype: DataType,
        values: &[Value],
        compression: Compression,
    ) -> Result<Vec<u8>> {
        let mut column = ColumnVec::empty(dtype);
        if !values.iter().all(|v| column.push_exact(v.cell())) {
            return Err(Error::invalid(format!("a value that is not {dtype} in a {dtype} column")));
        }
        Ok(ColumnEncoder::default().encode(&column, compression).to_vec())
    }

    fn roundtrip(dtype: DataType, values: Vec<Value>) {
        // One ColumnVec across codecs/types exercises buffer reuse.
        let mut batch = ColumnVec::default();
        for c in Compression::all() {
            let enc = encode_block(dtype, &values, c).unwrap();
            let dec = decode_block(dtype, &enc, values.len() as u32).unwrap();
            assert_eq!(dec, values, "codec {c}");
            decode_block_into(dtype, &enc, values.len() as u32, &mut batch).unwrap();
            assert_eq!(batch.len(), values.len(), "codec {c}");
            let cells: Vec<Value> = (0..batch.len()).map(|i| batch.value(i)).collect();
            assert_eq!(cells, values, "vectorized decode mismatch, codec {c}");
        }
    }

    #[test]
    fn int64_with_nulls() {
        roundtrip(
            DataType::Int64,
            vec![Value::I64(5), Value::Null, Value::I64(-10), Value::I64(i64::MAX)],
        );
    }

    #[test]
    fn uint64_with_nulls() {
        roundtrip(DataType::UInt64, vec![Value::U64(u64::MAX), Value::Null, Value::U64(0)]);
    }

    #[test]
    fn bool_with_nulls() {
        roundtrip(
            DataType::Bool,
            vec![Value::Bool(true), Value::Null, Value::Bool(false), Value::Bool(true)],
        );
    }

    #[test]
    fn strings_with_nulls_and_empties() {
        roundtrip(
            DataType::String,
            vec![Value::from("hello"), Value::Null, Value::from(""), Value::from("wörld ünïcode")],
        );
    }

    #[test]
    fn empty_block() {
        roundtrip(DataType::Int64, vec![]);
        roundtrip(DataType::String, vec![]);
    }

    #[test]
    fn type_mismatch_rejected() {
        assert!(encode_block(DataType::Int64, &[Value::from("x")], Compression::None).is_err());
        assert!(encode_block(DataType::Bool, &[Value::I64(1)], Compression::None).is_err());
        assert!(encode_block(DataType::String, &[Value::Bool(true)], Compression::None).is_err());
    }

    #[test]
    fn wrong_row_count_rejected() {
        let values = vec![Value::I64(1), Value::I64(2)];
        let enc = encode_block(DataType::Int64, &values, Compression::None).unwrap();
        assert!(decode_block(DataType::Int64, &enc, 3).is_err());
    }

    #[test]
    fn corrupted_block_rejected() {
        let values = vec![Value::from("abc"); 50];
        let enc = encode_block(DataType::String, &values, Compression::LzHigh).unwrap();
        assert!(decode_block(DataType::String, &enc[..enc.len() / 2], 50).is_err());
        assert!(decode_block(DataType::String, &[], 50).is_err());
    }

    #[test]
    fn bitset_length_that_overflows_the_offset_is_corruption_not_a_panic() {
        // A ten-byte varint of u64::MAX where the bitset frame length goes:
        // `pos + bitset_len` must not be computed unchecked.
        let mut forged = Vec::new();
        put_uvarint(&mut forged, u64::MAX);
        forged.extend_from_slice(&[0, 0, 0]);
        let mut batch = ColumnVec::default();
        for dtype in [DataType::Int64, DataType::String] {
            assert!(matches!(decode_block(dtype, &forged, 8), Err(Error::Corruption(_))));
            assert!(matches!(
                decode_block_into(dtype, &forged, 8, &mut batch),
                Err(Error::Corruption(_))
            ));
        }
    }

    /// A block of a bitset frame and a data frame, both as given.
    fn framed(bitset_frame: &[u8], data_frame: &[u8]) -> Vec<u8> {
        let mut block = Vec::new();
        put_uvarint(&mut block, bitset_frame.len() as u64);
        block.extend_from_slice(bitset_frame);
        block.extend_from_slice(data_frame);
        block
    }

    /// An RLE bitset frame of `bytes` zero bytes, in one repeat token.
    fn zero_bitset(bytes: u64) -> Vec<u8> {
        let mut frame = vec![Compression::Rle.tag()];
        put_uvarint(&mut frame, bytes * 2 + 1);
        frame.push(0);
        frame
    }

    const TYPES: [DataType; 4] =
        [DataType::Int64, DataType::UInt64, DataType::Bool, DataType::String];

    #[test]
    fn a_row_count_the_data_frame_cannot_hold_sizes_nothing() {
        // 2^31 rows in ten bytes: a valid all-zero bitset of 256 MiB and
        // an empty raw data frame. Neither the bitset nor the values may
        // be sized by the row count before the data frame is read.
        let n = 1u32 << 31;
        let block = framed(&zero_bitset(u64::from(n) / 8), &[Compression::None.tag()]);
        let mut batch = ColumnVec::default();
        for dtype in TYPES {
            assert!(matches!(decode_block(dtype, &block, n), Err(Error::Corruption(_))));
            let decoded = decode_block_into(dtype, &block, n, &mut batch);
            assert!(matches!(decoded, Err(Error::Corruption(_))), "{dtype}");
        }
    }

    /// A string block of `rows.len()` non-null rows around a hand-made
    /// data frame.
    fn string_block(rows: usize, data: &[u8]) -> Vec<u8> {
        let bitset = compress(Compression::Rle, &vec![0u8; rows.div_ceil(8)]);
        let mut block = Vec::new();
        put_uvarint(&mut block, bitset.len() as u64);
        block.extend_from_slice(&bitset);
        block.extend_from_slice(&compress(Compression::None, data));
        block
    }

    #[test]
    fn string_rows_are_validated_one_by_one_even_when_the_frame_is_text() {
        // Long rows (two-byte lengths, so the frame as a whole is not
        // UTF-8) and multi-byte text roundtrip.
        roundtrip(
            DataType::String,
            vec![Value::from("ü".repeat(100)), Value::Null, Value::from("x".repeat(300))],
        );
        let mut batch = ColumnVec::default();
        // An invalid byte inside a row.
        let bad_row = string_block(2, &[2, b'o', b'k', 1, 0xff]);
        assert!(decode_block(DataType::String, &bad_row, 2).is_err());
        assert!(decode_block_into(DataType::String, &bad_row, 2, &mut batch).is_err());
        // A frame that is valid text as a whole while its first row is not:
        // the row ends on the lead byte of an 'é' whose second byte is the
        // first length byte of the next row (0xa9 0x01 = 169).
        let mut split = vec![2, b'a', 0xc3, 0xa9, 0x01];
        split.extend(std::iter::repeat_n(b'z', 169));
        assert!(std::str::from_utf8(&split).is_ok());
        let split = string_block(2, &split);
        assert!(decode_block(DataType::String, &split, 2).is_err());
        assert!(decode_block_into(DataType::String, &split, 2, &mut batch).is_err());
    }

    fn arb_typed(dtype: DataType) -> impl Strategy<Value = Value> {
        match dtype {
            DataType::Int64 => prop_oneof![
                3 => any::<i64>().prop_map(Value::I64),
                1 => Just(Value::Null)
            ]
            .boxed(),
            DataType::UInt64 => prop_oneof![
                3 => any::<u64>().prop_map(Value::U64),
                1 => Just(Value::Null)
            ]
            .boxed(),
            DataType::Bool => prop_oneof![
                3 => any::<bool>().prop_map(Value::Bool),
                1 => Just(Value::Null)
            ]
            .boxed(),
            DataType::String => prop_oneof![
                3 => "[a-z0-9 /=.]{0,24}".prop_map(Value::Str),
                1 => Just(Value::Null)
            ]
            .boxed(),
        }
    }

    fn arb_typed_block() -> impl Strategy<Value = (DataType, Vec<Value>)> {
        (0usize..4).prop_flat_map(|dt_idx| {
            let dtype =
                [DataType::Int64, DataType::UInt64, DataType::Bool, DataType::String][dt_idx];
            proptest::collection::vec(arb_typed(dtype), 0..200)
                .prop_map(move |values| (dtype, values))
        })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]
        #[test]
        fn prop_all_types_roundtrip(case in arb_typed_block()) {
            let (dtype, values) = case;
            roundtrip(dtype, values);
        }
    }

    /// `column` with junk in every NULL slot: what a decoded block may
    /// hold there.
    fn junk_in_null_slots(column: &ColumnVec) -> ColumnVec {
        let (n, nulls) = (column.len(), |row| column.is_null(row));
        let (bitset, data) = column.clone().into_parts();
        let data = match data {
            ColumnData::I64(vals) => {
                ColumnData::I64((0..n).map(|r| if nulls(r) { 7 } else { vals[r] }).collect())
            }
            ColumnData::U64(vals) => {
                ColumnData::U64((0..n).map(|r| if nulls(r) { 7 } else { vals[r] }).collect())
            }
            ColumnData::Bool(mut bits) => {
                (0..n).filter(|&r| nulls(r)).for_each(|r| bits[r / 8] |= 1 << (r % 8));
                ColumnData::Bool(bits)
            }
            ColumnData::Str { mut data, mut ranges } => {
                data.extend_from_slice(b"junk");
                let end = data.len() as u32;
                (0..n).filter(|&r| nulls(r)).for_each(|r| ranges[r] = (end - 4, end));
                ColumnData::Str { data, ranges }
            }
        };
        ColumnVec::from_parts(n, bitset, data).unwrap()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]
        /// A batch encodes to the bytes its cells pushed one by one, as
        /// the builder pushes them, encode to — junk in a NULL slot
        /// included.
        #[test]
        fn prop_column_bytes_are_encode_block_bytes(case in arb_typed_block(), tag in 0u8..4) {
            let (dtype, values) = case;
            let compression = Compression::from_tag(tag).unwrap();
            let mut column = ColumnVec::empty(dtype);
            values.iter().for_each(|v| assert!(column.push_exact(v.cell())));
            let want = encode_block(dtype, &values, compression).unwrap();
            let mut encoder = ColumnEncoder::default();
            for column in [junk_in_null_slots(&column), column] {
                prop_assert_eq!(encoder.encode(&column, compression), &want[..]);
            }
        }
    }

    /// Bytes a column block may be forged from, and whether they are to be
    /// framed as the raw data frame beside a valid bitset of the claimed
    /// rows: arbitrary bytes, or a valid block of another length or type.
    fn hostile_block() -> impl Strategy<Value = (bool, Vec<u8>)> {
        let bytes = || proptest::collection::vec(any::<u8>(), 0..48);
        prop_oneof![
            (any::<bool>(), bytes()),
            arb_typed_block().prop_map(|(dtype, values)| {
                (false, encode_block(dtype, &values, Compression::None).unwrap())
            }),
        ]
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]
        /// Whatever the bytes and the row count claimed, a decode is a
        /// batch of that many rows or corruption: never a panic, and
        /// never an allocation the bytes do not back.
        #[test]
        fn prop_hostile_blocks_decode_or_are_corruption(
            dtype in (0usize..4).prop_map(|i| TYPES[i]),
            forged in hostile_block(),
            rows in prop_oneof![0u32..64, any::<u32>()],
        ) {
            let (sized, bytes) = forged;
            let block = match sized {
                true => {
                    let data = [vec![Compression::None.tag()], bytes].concat();
                    framed(&zero_bitset(u64::from(rows).div_ceil(8)), &data)
                }
                false => bytes,
            };
            let mut batch = ColumnVec::default();
            match decode_block_into(dtype, &block, rows, &mut batch) {
                Ok(()) => prop_assert_eq!(batch.len(), rows as usize),
                Err(e) => prop_assert!(matches!(e, Error::Corruption(_)), "{e}"),
            }
        }
    }
}
