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

/// One column block being accumulated, already in the layout its encoding
/// reads: the null bitset, and the values as the typed buffer the column
/// codec takes (for strings, the length-prefixed bytes that *are* the data
/// frame's input). Cells are copied in by reference — no [`Value`] is
/// cloned or kept — and the buffers are reused from block to block.
///
/// This is the one column encoder: [`crate::LogBlockBuilder`] pushes cells
/// as rows arrive, [`encode_block`] pushes a slice of them, and
/// [`encode_column_into`] fills it from a typed batch in bulk (the WAL's
/// runs).
#[derive(Debug)]
pub(crate) struct PendingBlock {
    len: usize,
    /// Bit `i` set ⇒ row `i` is NULL.
    nulls: Vec<u8>,
    data: PendingData,
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

impl PendingBlock {
    pub(crate) fn new(dtype: DataType) -> Self {
        let data = match dtype {
            DataType::Int64 => PendingData::I64(Vec::new()),
            DataType::UInt64 => PendingData::U64(Vec::new()),
            DataType::Bool => PendingData::Bool(Vec::new()),
            DataType::String => PendingData::Str(Vec::new()),
        };
        PendingBlock { len: 0, nulls: Vec::new(), data }
    }

    /// Rows pushed since the last [`PendingBlock::encode`].
    pub(crate) fn len(&self) -> usize {
        self.len
    }

    /// Appends one cell. A value of the wrong type is rejected and leaves
    /// the block as it was.
    pub(crate) fn push(&mut self, v: Cell<'_>) -> Result<()> {
        // Bitsets grow a byte at a time, when a row opens a new one.
        let (byte, bit) = (self.len / 8, 1u8 << (self.len % 8));
        let opens_byte = self.len.is_multiple_of(8);
        match (&mut self.data, v) {
            (PendingData::I64(nums), Cell::Null) => nums.push(0),
            (PendingData::I64(nums), v) => nums
                .push(v.as_i64().ok_or_else(|| Error::invalid("non-int64 value in int64 column"))?),
            (PendingData::U64(nums), Cell::Null) => nums.push(0),
            (PendingData::U64(nums), v) => nums.push(
                v.as_u64().ok_or_else(|| Error::invalid("non-uint64 value in uint64 column"))?,
            ),
            (PendingData::Bool(bits), Cell::Bool(_) | Cell::Null) => {
                if opens_byte {
                    bits.push(0);
                }
                if v == Cell::Bool(true) {
                    bits[byte] |= bit;
                }
            }
            (PendingData::Bool(_), _) => {
                return Err(Error::invalid("non-bool value in bool column"))
            }
            (PendingData::Str(buf), Cell::Null) => put_uvarint(buf, 0),
            (PendingData::Str(buf), Cell::Str(s)) => {
                put_uvarint(buf, s.len() as u64);
                buf.extend_from_slice(s.as_bytes());
            }
            (PendingData::Str(_), _) => {
                return Err(Error::invalid("non-string value in string column"))
            }
        }
        if opens_byte {
            self.nulls.push(0);
        }
        if v.is_null() {
            self.nulls[byte] |= bit;
        }
        self.len += 1;
        Ok(())
    }

    /// A block of every row of `column`, filled in bulk: the rows
    /// [`PendingBlock::push`] appends for its cells one by one, a NULL slot
    /// taking the placeholder whatever the batch holds there.
    fn of_column(column: &ColumnVec) -> Self {
        let n = column.len();
        let null = |row| column.has_nulls() && column.is_null(row);
        let bits = |on: &dyn Fn(usize) -> bool| {
            let mut bits = vec![0u8; n.div_ceil(8)];
            (0..n).filter(|&row| on(row)).for_each(|row| bits[row / 8] |= 1 << (row % 8));
            bits
        };
        let data = match column.data() {
            ColumnData::I64(vals) => {
                PendingData::I64((0..n).map(|row| if null(row) { 0 } else { vals[row] }).collect())
            }
            ColumnData::U64(vals) => {
                PendingData::U64((0..n).map(|row| if null(row) { 0 } else { vals[row] }).collect())
            }
            ColumnData::Bool(vals) => {
                PendingData::Bool(bits(&|row| !null(row) && vals[row / 8] & (1 << (row % 8)) != 0))
            }
            ColumnData::Str { data, ranges } => {
                let mut buf = Vec::with_capacity(data.len() + n);
                for (row, &(start, end)) in ranges.iter().enumerate() {
                    let s = if null(row) { &[][..] } else { &data[start as usize..end as usize] };
                    put_uvarint(&mut buf, s.len() as u64);
                    buf.extend_from_slice(s);
                }
                PendingData::Str(buf)
            }
        };
        PendingBlock { len: n, nulls: bits(&null), data }
    }

    /// Encodes the pushed rows as one column block, appended to `out`, and
    /// empties the block, keeping its buffers. The data frame is written
    /// in place; only the small null-bitset frame passes through a
    /// scratch buffer, because its length precedes it.
    pub(crate) fn encode_into(
        &mut self,
        compression: Compression,
        compressor: &mut Compressor,
        out: &mut Vec<u8>,
    ) {
        let mut bitset_frame = Vec::new();
        compressor.compress_into(Compression::Rle, &self.nulls, &mut bitset_frame);
        put_uvarint(out, bitset_frame.len() as u64);
        out.extend_from_slice(&bitset_frame);
        match &self.data {
            PendingData::I64(nums) => {
                compressor.compress_into(compression, &delta::encode_i64(nums), out)
            }
            PendingData::U64(nums) => {
                compressor.compress_into(compression, &delta::encode_u64(nums), out)
            }
            PendingData::Bool(bytes) | PendingData::Str(bytes) => {
                compressor.compress_into(compression, bytes, out)
            }
        }
        self.len = 0;
        self.nulls.clear();
        match &mut self.data {
            PendingData::I64(nums) => nums.clear(),
            PendingData::U64(nums) => nums.clear(),
            PendingData::Bool(bytes) | PendingData::Str(bytes) => bytes.clear(),
        }
    }
}

/// Encodes one column block.
pub fn encode_block(
    dtype: DataType,
    values: &[Value],
    compression: Compression,
) -> Result<Vec<u8>> {
    let mut block = PendingBlock::new(dtype);
    for v in values {
        block.push(v.cell())?;
    }
    let mut out = Vec::new();
    block.encode_into(compression, &mut Compressor::default(), &mut out);
    Ok(out)
}

/// Encodes `column` as one column block appended to `out`: the bytes
/// [`encode_block`] writes for its cells.
pub fn encode_column_into(column: &ColumnVec, compression: Compression, out: &mut Vec<u8>) {
    PendingBlock::of_column(column).encode_into(compression, &mut Compressor::default(), out);
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
            for column in [junk_in_null_slots(&column), column] {
                let mut got = vec![0xa5];
                encode_column_into(&column, compression, &mut got);
                prop_assert_eq!(&got[1..], &want[..]);
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
