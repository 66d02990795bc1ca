//! Self-describing compression frames.
//!
//! A frame is `[compression tag: u8][payload]`; the payload of the LZ
//! codecs already carries its own uncompressed length, and the RLE/None
//! payloads are bounded by the caller-supplied limit. LogBlock column blocks
//! and WAL segments store these frames.

use crate::{lz, rle};
use logstore_types::{Error, Result};
use std::fmt;
use std::str::FromStr;

/// The compression menu (paper §3.2: Snappy, LZ4, ZSTD — ZSTD default).
///
/// `LzFast` stands in for LZ4/Snappy; `LzHigh` stands in for ZSTD. See the
/// crate docs for the substitution rationale.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Compression {
    /// Store bytes verbatim.
    None,
    /// Run-length encoding.
    Rle,
    /// Greedy LZ77 ("LZ4-class": fastest, lower ratio).
    LzFast,
    /// Lazy hash-chain LZ77 ("ZSTD-class": slower, best ratio). Default,
    /// matching the paper's choice of ZSTD.
    #[default]
    LzHigh,
}

impl Compression {
    /// Stable one-byte tag used in frames.
    pub fn tag(self) -> u8 {
        match self {
            Compression::None => 0,
            Compression::Rle => 1,
            Compression::LzFast => 2,
            Compression::LzHigh => 3,
        }
    }

    /// Inverse of [`Compression::tag`].
    pub fn from_tag(tag: u8) -> Option<Self> {
        Some(match tag {
            0 => Compression::None,
            1 => Compression::Rle,
            2 => Compression::LzFast,
            3 => Compression::LzHigh,
            _ => return None,
        })
    }

    /// All supported codecs (useful for benchmarks).
    pub fn all() -> [Compression; 4] {
        [Compression::None, Compression::Rle, Compression::LzFast, Compression::LzHigh]
    }
}

impl fmt::Display for Compression {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            Compression::None => "none",
            Compression::Rle => "rle",
            Compression::LzFast => "lz-fast",
            Compression::LzHigh => "lz-high",
        };
        f.write_str(s)
    }
}

impl FromStr for Compression {
    type Err = Error;

    fn from_str(s: &str) -> Result<Self> {
        match s {
            "none" => Ok(Compression::None),
            "rle" => Ok(Compression::Rle),
            "lz-fast" | "fast" => Ok(Compression::LzFast),
            "lz-high" | "high" => Ok(Compression::LzHigh),
            other => Err(Error::invalid(format!("unknown compression '{other}'"))),
        }
    }
}

/// Compresses `data` into a self-describing frame.
pub fn compress(compression: Compression, data: &[u8]) -> Vec<u8> {
    let mut out = Vec::new();
    Compressor::default().compress_into(compression, data, &mut out);
    out
}

/// Compression state kept from frame to frame. A caller that compresses
/// many frames in a row (the LogBlock builder: every column block) keeps
/// one, so the high profile's match finder is allocated once, not per
/// frame; [`compress`] makes a fresh one per call. The bytes are the same
/// either way.
#[derive(Debug, Default)]
pub struct Compressor {
    finder: lz::ChainFinder,
}

impl Compressor {
    /// Appends the frame of `data` to `out`: the bytes [`compress`]
    /// returns, written in place.
    pub fn compress_into(&mut self, compression: Compression, data: &[u8], out: &mut Vec<u8>) {
        let start = out.len();
        out.push(compression.tag());
        match compression {
            Compression::None => out.extend_from_slice(data),
            Compression::Rle => rle::compress_into(data, out),
            Compression::LzFast => lz::compress_fast_into(data, out),
            Compression::LzHigh => lz::compress_high_into(&mut self.finder, data, out),
        }
        // If a codec expands the data (incompressible input), fall back to
        // the raw representation — the frame tag records what actually
        // happened.
        let payload = out.len() - start - 1;
        if compression != Compression::None && payload >= data.len() {
            out.truncate(start);
            out.push(Compression::None.tag());
            out.extend_from_slice(data);
        }
    }
}

/// Decompresses a frame produced by [`compress`].
///
/// `max_len` bounds the decoded size (bomb guard).
pub fn decompress(frame: &[u8], max_len: usize) -> Result<Vec<u8>> {
    let (&tag, payload) =
        frame.split_first().ok_or_else(|| Error::corruption("empty compression frame"))?;
    let compression = Compression::from_tag(tag)
        .ok_or_else(|| Error::corruption(format!("unknown compression tag {tag}")))?;
    match compression {
        Compression::None => {
            if payload.len() > max_len {
                return Err(Error::corruption("raw frame exceeds limit"));
            }
            Ok(payload.to_vec())
        }
        Compression::Rle => rle::decompress(payload, max_len),
        Compression::LzFast | Compression::LzHigh => lz::decompress(payload, max_len),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn every_codec_roundtrips() {
        let data: Vec<u8> =
            b"api=/v1/users status=200 ".iter().copied().cycle().take(4096).collect();
        for c in Compression::all() {
            let f = compress(c, &data);
            assert_eq!(decompress(&f, data.len()).unwrap(), data, "codec {c}");
        }
    }

    #[test]
    fn incompressible_falls_back_to_raw() {
        // 16 random-ish distinct bytes cannot be LZ/RLE compressed.
        let data: Vec<u8> = (0..16u8).collect();
        let f = compress(Compression::LzHigh, &data);
        assert_eq!(f[0], Compression::None.tag());
        assert_eq!(decompress(&f, data.len()).unwrap(), data);
    }

    #[test]
    fn empty_frame_rejected() {
        assert!(decompress(&[], 10).is_err());
    }

    #[test]
    fn unknown_tag_rejected() {
        assert!(decompress(&[99, 1, 2], 10).is_err());
    }

    #[test]
    fn parse_and_display_names() {
        for c in Compression::all() {
            assert_eq!(c.to_string().parse::<Compression>().unwrap(), c);
        }
        assert!("zstd".parse::<Compression>().is_err());
    }

    #[test]
    fn default_is_high_ratio() {
        assert_eq!(Compression::default(), Compression::LzHigh);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]
        #[test]
        fn prop_frames_roundtrip(
            data in proptest::collection::vec(any::<u8>(), 0..2048),
            tag in 0u8..4,
        ) {
            let c = Compression::from_tag(tag).unwrap();
            let f = compress(c, &data);
            prop_assert_eq!(decompress(&f, data.len()).unwrap(), data);
        }
    }
}
