//! WAL segment files.
//!
//! A segment is a sequence of frames:
//!
//! ```text
//! frame := len u32le | masked_crc32c u32le | payload (len bytes)
//! ```
//!
//! The CRC is masked (LevelDB-style) because payloads themselves often
//! contain CRCs. A torn final frame (crash mid-write) is detected and
//! treated as the end of the log; corruption *before* the tail is an error.

use logstore_codec::crc::{crc32c, mask, unmask};
use logstore_codec::varint::read_u32_le;
use logstore_types::{Error, Result};
use std::fs::{File, OpenOptions};
use std::io::{BufWriter, Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};

/// Frame header size (length + crc).
pub const FRAME_HEADER: usize = 8;
/// Maximum payload size per frame (guards corrupt length fields).
pub const MAX_PAYLOAD: usize = 64 << 20;

/// Builds the file name of the segment whose first record is `first_lsn`.
pub fn segment_file_name(first_lsn: u64) -> String {
    format!("wal-{first_lsn:016}.log")
}

/// Parses a segment's first LSN from its file name.
pub fn parse_segment_lsn(name: &str) -> Option<u64> {
    let rest = name.strip_prefix("wal-")?.strip_suffix(".log")?;
    rest.parse().ok()
}

/// An open segment being appended to.
#[derive(Debug)]
pub struct SegmentWriter {
    path: PathBuf,
    writer: BufWriter<File>,
    bytes_written: u64,
}

impl SegmentWriter {
    /// Creates (or truncates) a segment file.
    pub fn create(path: impl AsRef<Path>) -> Result<Self> {
        let path = path.as_ref().to_path_buf();
        let file = OpenOptions::new().create(true).write(true).truncate(true).open(&path)?;
        Ok(SegmentWriter { path, writer: BufWriter::new(file), bytes_written: 0 })
    }

    /// Opens an existing segment for appending after `valid_len` bytes
    /// (recovery truncates torn tails).
    pub fn open_for_append(path: impl AsRef<Path>, valid_len: u64) -> Result<Self> {
        let path = path.as_ref().to_path_buf();
        let mut file = OpenOptions::new().write(true).open(&path)?;
        file.set_len(valid_len)?;
        file.seek(SeekFrom::Start(valid_len))?;
        Ok(SegmentWriter { path, writer: BufWriter::new(file), bytes_written: valid_len })
    }

    /// Appends one frame. Returns the frame's end offset.
    pub fn append(&mut self, payload: &[u8]) -> Result<u64> {
        if payload.len() > MAX_PAYLOAD {
            return Err(Error::invalid("wal payload exceeds frame limit"));
        }
        let crc = mask(crc32c(payload));
        self.writer.write_all(&(payload.len() as u32).to_le_bytes())?;
        self.writer.write_all(&crc.to_le_bytes())?;
        self.writer.write_all(payload)?;
        self.bytes_written += (FRAME_HEADER + payload.len()) as u64;
        Ok(self.bytes_written)
    }

    /// Flushes buffered frames to the OS.
    pub fn flush(&mut self) -> Result<()> {
        self.writer.flush()?;
        Ok(())
    }

    /// Flushes and fsyncs.
    pub fn sync(&mut self) -> Result<()> {
        self.writer.flush()?;
        self.writer.get_ref().sync_data()?;
        Ok(())
    }

    /// Bytes written so far (including headers).
    pub fn len(&self) -> u64 {
        self.bytes_written
    }

    /// True if nothing has been appended.
    pub fn is_empty(&self) -> bool {
        self.bytes_written == 0
    }

    /// The segment's path.
    pub fn path(&self) -> &Path {
        &self.path
    }
}

/// Result of replaying one segment.
#[derive(Debug)]
pub struct SegmentReplay {
    /// Payloads in order.
    pub payloads: Vec<Vec<u8>>,
    /// Length of the valid prefix (excludes any torn tail).
    pub valid_len: u64,
    /// True if a torn (incomplete) final frame was discarded.
    pub torn_tail: bool,
}

/// Reads every intact frame of a segment.
///
/// A truncated final frame is tolerated (crash during append); a CRC
/// mismatch on a complete frame is corruption and errors out.
pub fn replay_segment(path: impl AsRef<Path>) -> Result<SegmentReplay> {
    let mut data = Vec::new();
    File::open(path.as_ref())?.read_to_end(&mut data)?;
    let mut payloads = Vec::new();
    let mut pos = 0usize;
    let torn_tail = loop {
        if pos == data.len() {
            break false;
        }
        if data.len() - pos < FRAME_HEADER {
            break true;
        }
        let mut header = pos;
        let len = read_u32_le(&data, &mut header)? as usize;
        let stored_crc = read_u32_le(&data, &mut header)?;
        if len > MAX_PAYLOAD {
            return Err(Error::corruption("wal frame length implausible"));
        }
        let body_start = pos + FRAME_HEADER;
        let body_end = body_start + len;
        if body_end > data.len() {
            break true;
        }
        let payload = &data[body_start..body_end];
        if crc32c(payload) != unmask(stored_crc) {
            return Err(Error::corruption(format!("wal crc mismatch at offset {pos}")));
        }
        payloads.push(payload.to_vec());
        pos = body_end;
    };
    Ok(SegmentReplay { payloads, valid_len: pos as u64, torn_tail })
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn temp_file(tag: &str) -> PathBuf {
        std::env::temp_dir().join(format!(
            "logstore-seg-{tag}-{}-{:?}.log",
            std::process::id(),
            std::thread::current().id()
        ))
    }

    #[test]
    fn append_and_replay() {
        let path = temp_file("basic");
        let mut w = SegmentWriter::create(&path).unwrap();
        w.append(b"one").unwrap();
        w.append(b"").unwrap();
        w.append(&[9u8; 1000]).unwrap();
        w.sync().unwrap();
        let r = replay_segment(&path).unwrap();
        assert_eq!(r.payloads, vec![b"one".to_vec(), Vec::new(), vec![9u8; 1000]]);
        assert!(!r.torn_tail);
        assert_eq!(r.valid_len, w.len());
        let _ = std::fs::remove_file(path);
    }

    #[test]
    fn torn_tail_tolerated() {
        let path = temp_file("torn");
        let mut w = SegmentWriter::create(&path).unwrap();
        w.append(b"keep").unwrap();
        w.append(b"lost-in-crash").unwrap();
        w.flush().unwrap();
        drop(w);
        // Simulate a crash mid-frame: chop the last 5 bytes.
        let len = std::fs::metadata(&path).unwrap().len();
        let f = OpenOptions::new().write(true).open(&path).unwrap();
        f.set_len(len - 5).unwrap();
        drop(f);
        let r = replay_segment(&path).unwrap();
        assert_eq!(r.payloads, vec![b"keep".to_vec()]);
        assert!(r.torn_tail);
        let _ = std::fs::remove_file(path);
    }

    #[test]
    fn mid_file_corruption_is_error() {
        let path = temp_file("corrupt");
        let mut w = SegmentWriter::create(&path).unwrap();
        w.append(b"aaaa").unwrap();
        w.append(b"bbbb").unwrap();
        w.flush().unwrap();
        drop(w);
        let mut data = std::fs::read(&path).unwrap();
        data[FRAME_HEADER] ^= 0xff; // corrupt first payload byte
        std::fs::write(&path, &data).unwrap();
        assert!(replay_segment(&path).is_err());
        let _ = std::fs::remove_file(path);
    }

    #[test]
    fn append_after_recovery() {
        let path = temp_file("recover");
        let mut w = SegmentWriter::create(&path).unwrap();
        w.append(b"first").unwrap();
        w.flush().unwrap();
        drop(w);
        let r = replay_segment(&path).unwrap();
        let mut w = SegmentWriter::open_for_append(&path, r.valid_len).unwrap();
        w.append(b"second").unwrap();
        w.flush().unwrap();
        drop(w);
        let r = replay_segment(&path).unwrap();
        assert_eq!(r.payloads, vec![b"first".to_vec(), b"second".to_vec()]);
        let _ = std::fs::remove_file(path);
    }

    #[test]
    fn segment_names_roundtrip() {
        assert_eq!(segment_file_name(42), "wal-0000000000000042.log");
        assert_eq!(parse_segment_lsn("wal-0000000000000042.log"), Some(42));
        assert_eq!(parse_segment_lsn("other.log"), None);
        assert_eq!(parse_segment_lsn("wal-x.log"), None);
    }

    #[test]
    fn oversized_payload_rejected() {
        let path = temp_file("oversize");
        let mut w = SegmentWriter::create(&path).unwrap();
        let huge = vec![0u8; MAX_PAYLOAD + 1];
        assert!(w.append(&huge).is_err());
        let _ = std::fs::remove_file(path);
    }

    proptest! {
        /// A single flipped bit anywhere in a segment file is caught by the
        /// frame CRC or, when it lengthens the last frame past the end of
        /// the file, read as a torn tail: replay never hands back a payload
        /// that was not written.
        #[test]
        fn flipped_bit_is_detected(
            frames in proptest::collection::vec(
                proptest::collection::vec(any::<u8>(), 1..100), 1..20),
            pos in 0usize..4000,
            bit in 0u8..8,
        ) {
            let path = temp_file("flip");
            let mut w = SegmentWriter::create(&path).unwrap();
            for frame in &frames {
                w.append(frame).unwrap();
            }
            w.flush().unwrap();
            drop(w);
            let mut data = std::fs::read(&path).unwrap();
            let idx = pos % data.len();
            data[idx] ^= 1 << bit;
            std::fs::write(&path, &data).unwrap();
            let replay = replay_segment(&path);
            let _ = std::fs::remove_file(&path);
            match replay {
                Err(e) => prop_assert!(matches!(e, Error::Corruption(_)), "{e}"),
                Ok(r) => {
                    prop_assert!(r.torn_tail && r.payloads.len() < frames.len());
                    prop_assert_eq!(&r.payloads[..], &frames[..r.payloads.len()]);
                }
            }
        }
    }
}
