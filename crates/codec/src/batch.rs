//! The record-batch payload of the benchmark's probes.
//!
//! A row-major, self-describing encoding: a leading uvarint record count
//! followed by that many serialized rows ([`crate::valser`]), one tag per
//! cell. The benchmark's codec and Raft probes encode sub-batches with it;
//! no engine path writes or reads it — the WAL logs a sub-batch as the
//! LogBlock column blocks of its staged runs. It goes with those probes
//! (ROADMAP 1(a)).
//!
//! Records are written by reference: no [`LogRecord::to_row`] is built.

use crate::valser::put_cells;
use crate::varint::put_uvarint;
use logstore_types::LogRecord;

/// Serializes records into a batch payload.
pub fn encode_batch(records: &[LogRecord]) -> Vec<u8> {
    let mut out = Vec::new();
    put_uvarint(&mut out, records.len() as u64);
    for r in records {
        put_cells(&mut out, r.width(), r.cells());
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::valser::tests::{put_row, read_row};
    use crate::varint::read_uvarint;
    use logstore_types::{Error, Result, TenantId, Timestamp, Value};

    /// Decodes a payload written by [`encode_batch`]: its round-trip
    /// reference.
    fn decode_batch(payload: &[u8]) -> Result<Vec<LogRecord>> {
        let pos = &mut 0;
        let n = read_uvarint(payload, pos)? as usize;
        // Every record costs at least one byte on the wire, so a count
        // larger than the remaining payload is corrupt — and must not
        // size-hint an allocation.
        if n > payload.len() - *pos {
            return Err(Error::corruption("batch count implausible"));
        }
        let mut out = Vec::with_capacity(n);
        for _ in 0..n {
            let mut row = read_row(payload, pos)?.into_iter();
            let (Some(Value::U64(tenant)), Some(Value::I64(ts))) = (row.next(), row.next()) else {
                return Err(Error::corruption("a row without its keys"));
            };
            out.push(LogRecord::new(TenantId(tenant), Timestamp(ts), row.collect()));
        }
        if *pos != payload.len() {
            return Err(Error::corruption("trailing bytes after batch"));
        }
        Ok(out)
    }

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
            // framing it replaced.
            #[test]
            fn prop_encoding_is_the_put_row_framing(batch in batch_strategy()) {
                let mut want = Vec::new();
                put_uvarint(&mut want, batch.len() as u64);
                for r in &batch {
                    put_row(&mut want, &r.to_row());
                }
                prop_assert_eq!(encode_batch(&batch), want);
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
