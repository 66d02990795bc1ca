//! Shared record-batch payload codec.
//!
//! Every path that carries whole batches — the per-shard WAL and the
//! benchmark's Raft probe — uses the same wire format: a leading uvarint
//! record count followed by that many serialized rows ([`crate::valser`]).
//! Centralizing the pair here keeps the paths byte-compatible and gives
//! them the same corruption guards: an implausible record count cannot
//! trigger an unbounded allocation, and a payload with trailing bytes after
//! the last record is rejected instead of silently dropping a suffix.
//!
//! Records are written by reference — each row is framed exactly as
//! [`crate::valser::put_row`] would frame the expanded
//! [`LogRecord::to_row`], without building that row — and decoded values
//! move into their record.

use crate::valser::{put_cells, read_row};
use crate::varint::{put_uvarint, read_uvarint};
use logstore_types::{Error, LogRecord, Result};

/// Serializes records into a WAL/Raft batch payload.
pub fn encode_batch(records: &[LogRecord]) -> Vec<u8> {
    let mut out = Vec::new();
    encode_batch_into(&mut out, records);
    out
}

/// Appends the [`encode_batch`] payload of `records` to `out`, so a caller
/// that frames the batch (a tag, a drain seq) builds one buffer instead of
/// copying the payload into a second.
pub fn encode_batch_into(out: &mut Vec<u8>, records: &[LogRecord]) {
    put_uvarint(out, records.len() as u64);
    for r in records {
        put_cells(out, r.width(), r.cells());
    }
}

/// Decodes a payload written by [`encode_batch`].
pub fn decode_batch(payload: &[u8]) -> Result<Vec<LogRecord>> {
    let mut pos = 0;
    let out = read_batch(payload, &mut pos)?;
    if pos != payload.len() {
        return Err(Error::corruption("trailing bytes after batch"));
    }
    Ok(out)
}

/// Decodes one [`encode_batch`] payload starting at `*pos`, advancing
/// `*pos` past it: for a payload that frames a batch among other fields.
pub fn read_batch(buf: &[u8], pos: &mut usize) -> Result<Vec<LogRecord>> {
    let n = read_uvarint(buf, pos)? as usize;
    // Every record costs at least one byte on the wire, so a count larger
    // than the remaining payload is corrupt — and must not size-hint an
    // allocation.
    if n > buf.len() - *pos {
        return Err(Error::corruption("batch count implausible"));
    }
    let mut out = Vec::with_capacity(n);
    for _ in 0..n {
        out.push(LogRecord::from_row(read_row(buf, pos)?)?);
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::valser::put_row;
    use logstore_types::{TenantId, Timestamp, Value};

    fn rec(t: u64, ts: i64) -> LogRecord {
        LogRecord::new(
            TenantId(t),
            Timestamp(ts),
            vec![Value::from("ip"), Value::I64(7), Value::Bool(true), Value::from("line")],
        )
    }

    #[test]
    fn roundtrip() {
        let records = vec![rec(1, 5), rec(2, 6), rec(1, 7)];
        let payload = encode_batch(&records);
        assert_eq!(decode_batch(&payload).unwrap(), records);
    }

    #[test]
    fn empty_batch_roundtrips() {
        let payload = encode_batch(&[]);
        assert!(decode_batch(&payload).unwrap().is_empty());
    }

    #[test]
    fn implausible_count_rejected_without_allocation() {
        let mut payload = Vec::new();
        put_uvarint(&mut payload, u64::MAX);
        let err = decode_batch(&payload).unwrap_err();
        assert!(err.to_string().contains("implausible"), "{err}");
    }

    #[test]
    fn trailing_bytes_rejected() {
        let mut payload = encode_batch(&[rec(1, 1)]);
        payload.push(0);
        let err = decode_batch(&payload).unwrap_err();
        assert!(err.to_string().contains("trailing"), "{err}");
    }

    #[test]
    fn truncated_payload_rejected() {
        let payload = encode_batch(&[rec(1, 1), rec(2, 2)]);
        assert!(decode_batch(&payload[..payload.len() - 1]).is_err());
    }

    mod props {
        use super::*;
        use proptest::prelude::*;

        fn value_strategy() -> BoxedStrategy<Value> {
            prop_oneof![
                Just(Value::Null),
                any::<i64>().prop_map(Value::I64),
                any::<u64>().prop_map(Value::U64),
                ".{0,24}".prop_map(Value::Str),
                any::<bool>().prop_map(Value::Bool),
            ]
            .boxed()
        }

        fn batch_strategy() -> BoxedStrategy<Vec<LogRecord>> {
            let record = (any::<u64>(), any::<i64>(), collection::vec(value_strategy(), 0..6))
                .prop_map(|(t, ts, fields)| LogRecord::new(TenantId(t), Timestamp(ts), fields));
            collection::vec(record, 0..12).boxed()
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(64))]
            #[test]
            fn prop_batches_roundtrip(batch in batch_strategy()) {
                let payload = encode_batch(&batch);
                prop_assert_eq!(decode_batch(&payload).unwrap(), batch);
            }

            // The by-reference encoder writes the bytes of the row-shaped
            // framing it replaced, appended after whatever the buffer held.
            #[test]
            fn prop_encoding_is_the_put_row_framing(batch in batch_strategy()) {
                let mut want = vec![0xa5];
                put_uvarint(&mut want, batch.len() as u64);
                for r in &batch {
                    put_row(&mut want, &r.to_row());
                }
                let mut got = vec![0xa5];
                encode_batch_into(&mut got, &batch);
                prop_assert_eq!(&got, &want);
                prop_assert_eq!(encode_batch(&batch), &want[1..]);
            }

            // Any strict truncation must surface as corruption — never a
            // panic, and never a silently shorter batch (the leading count
            // pins the expected record total).
            #[test]
            fn prop_truncation_is_detected(batch in batch_strategy(), cut in 1usize..32) {
                let payload = encode_batch(&batch);
                let cut = cut.min(payload.len());
                prop_assert!(decode_batch(&payload[..payload.len() - cut]).is_err());
            }
        }
    }
}
