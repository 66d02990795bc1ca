//! CRC32C (Castagnoli) checksums.
//!
//! Used to frame WAL records and to protect LogBlock sections against
//! corruption on (simulated) object storage. Every WAL byte is hashed at
//! least twice on its way to disk (group frame, then segment frame) and
//! again on replay, so the routine is **slicing-by-8**: eight 256-entry
//! tables built at compile time let one step fold eight input bytes with
//! eight independent lookups instead of eight dependent ones. It is safe
//! Rust over `chunks_exact(8)`; the tail (and any input under eight bytes)
//! takes the classic byte-at-a-time step on table 0. The values are those
//! of the bytewise definition for every input and every
//! [`crc32c_append`] split — the test module keeps that loop as the
//! oracle.

/// The CRC32C (Castagnoli) polynomial, reversed representation.
const POLY: u32 = 0x82f6_3b78;

/// `TABLES[0]` is the classic bytewise table; `TABLES[k][b]` is the CRC
/// state after byte `b` followed by `k` zero bytes.
static TABLES: [[u32; 256]; 8] = {
    const fn build() -> [[u32; 256]; 8] {
        let mut tables = [[0u32; 256]; 8];
        let mut i = 0;
        while i < 256 {
            let mut crc = i as u32;
            let mut j = 0;
            while j < 8 {
                crc = if crc & 1 != 0 { (crc >> 1) ^ POLY } else { crc >> 1 };
                j += 1;
            }
            tables[0][i] = crc;
            i += 1;
        }
        let mut k = 1;
        while k < 8 {
            let mut i = 0;
            while i < 256 {
                let prev = tables[k - 1][i];
                tables[k][i] = (prev >> 8) ^ tables[0][(prev & 0xff) as usize];
                i += 1;
            }
            k += 1;
        }
        tables
    }
    build()
};

/// Computes the CRC32C of `data`.
pub fn crc32c(data: &[u8]) -> u32 {
    crc32c_append(0, data)
}

/// Continues a CRC computation: `crc32c_append(crc32c(a), b) == crc32c(a ++ b)`.
pub fn crc32c_append(crc: u32, data: &[u8]) -> u32 {
    let mut crc = !crc;
    let mut chunks = data.chunks_exact(8);
    for c in &mut chunks {
        let lo = crc ^ u32::from_le_bytes([c[0], c[1], c[2], c[3]]);
        let hi = u32::from_le_bytes([c[4], c[5], c[6], c[7]]);
        crc = TABLES[7][(lo & 0xff) as usize]
            ^ TABLES[6][((lo >> 8) & 0xff) as usize]
            ^ TABLES[5][((lo >> 16) & 0xff) as usize]
            ^ TABLES[4][(lo >> 24) as usize]
            ^ TABLES[3][(hi & 0xff) as usize]
            ^ TABLES[2][((hi >> 8) & 0xff) as usize]
            ^ TABLES[1][((hi >> 16) & 0xff) as usize]
            ^ TABLES[0][(hi >> 24) as usize];
    }
    for &b in chunks.remainder() {
        crc = (crc >> 8) ^ TABLES[0][((crc ^ u32::from(b)) & 0xff) as usize];
    }
    !crc
}

/// A masked CRC in the style of LevelDB/RocksDB: storing a CRC of data that
/// itself contains CRCs can produce pathological collisions, so stored CRCs
/// are rotated and offset.
pub fn mask(crc: u32) -> u32 {
    crc.rotate_right(15).wrapping_add(0xa282_ead8)
}

/// Inverse of [`mask`].
pub fn unmask(masked: u32) -> u32 {
    masked.wrapping_sub(0xa282_ead8).rotate_left(15)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The bytewise table, built at run time from the definition.
    fn make_table() -> [u32; 256] {
        let mut table = [0u32; 256];
        for (i, slot) in table.iter_mut().enumerate() {
            let mut crc = i as u32;
            for _ in 0..8 {
                crc = if crc & 1 != 0 { (crc >> 1) ^ POLY } else { crc >> 1 };
            }
            *slot = crc;
        }
        table
    }

    /// The reference: one table lookup per byte, as shipped before
    /// slicing-by-8.
    fn bytewise_append(crc: u32, data: &[u8]) -> u32 {
        let table = make_table();
        let mut crc = !crc;
        for &b in data {
            crc = (crc >> 8) ^ table[((crc ^ u32::from(b)) & 0xff) as usize];
        }
        !crc
    }

    #[test]
    fn known_vectors() {
        // Standard CRC32C test vectors.
        assert_eq!(crc32c(b""), 0);
        assert_eq!(crc32c(b"123456789"), 0xe306_9283);
        assert_eq!(crc32c(&[0u8; 32]), 0x8a91_36aa);
        assert_eq!(crc32c(&[0xffu8; 32]), 0x62a8_ab43);
    }

    #[test]
    fn runtime_table_matches_const_table() {
        assert_eq!(make_table(), TABLES[0]);
    }

    /// Every length around the 8-byte step, at every alignment of the
    /// slice within its buffer, from a zero and a non-zero starting state.
    #[test]
    fn slicing_matches_bytewise_for_every_short_length_and_offset() {
        let mut state = 0x9e37_79b9_7f4a_7c15u64;
        let buf: Vec<u8> = (0..80)
            .map(|_| {
                state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                (state >> 56) as u8
            })
            .collect();
        for offset in 0..8 {
            for len in 0..=64 {
                let data = &buf[offset..offset + len];
                assert_eq!(crc32c(data), bytewise_append(0, data), "offset {offset} len {len}");
                assert_eq!(
                    crc32c_append(0xdead_beef, data),
                    bytewise_append(0xdead_beef, data),
                    "offset {offset} len {len} (continued)"
                );
            }
        }
    }

    #[test]
    fn append_is_concatenation() {
        let a = b"hello ";
        let b = b"world";
        let whole = crc32c(b"hello world");
        assert_eq!(crc32c_append(crc32c(a), b), whole);
    }

    #[test]
    fn single_bit_flip_detected() {
        let data = b"the quick brown fox";
        let base = crc32c(data);
        let mut corrupted = data.to_vec();
        corrupted[3] ^= 0x01;
        assert_ne!(crc32c(&corrupted), base);
    }

    proptest! {
        #[test]
        fn prop_mask_roundtrip(v in any::<u32>()) {
            prop_assert_eq!(unmask(mask(v)), v);
        }

        #[test]
        fn prop_append_split(data in proptest::collection::vec(any::<u8>(), 0..256),
                             split in 0usize..256) {
            let split = split.min(data.len());
            let (a, b) = data.split_at(split);
            prop_assert_eq!(crc32c_append(crc32c(a), b), crc32c(&data));
            prop_assert_eq!(crc32c(&data), bytewise_append(0, &data));
        }
    }
}
