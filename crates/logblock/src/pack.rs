//! The pack container: many small files in one seekable object.
//!
//! The paper packs each LogBlock's small files (metadata, indexes, data
//! blocks) into one large tar file whose header carries a manifest, so that
//! "subsequent read operations \[can\] seek and read any part of the tar
//! file" while backup/migration/expiration deal with one object. This
//! module is the from-scratch equivalent:
//!
//! ```text
//! magic "LSPK" | version u8 | manifest_len u32le
//! manifest: varint n, n * (name str, varint offset, varint len), crc32c u32le
//! payload:  member bytes, concatenated in manifest order
//! ```
//!
//! Member offsets are relative to the end of the manifest, so a reader can
//! fetch the fixed 9-byte prologue, then the manifest, then any member —
//! three small range reads instead of downloading the object.

use logstore_codec::crc::crc32c;
use logstore_codec::varint::{put_str, put_uvarint, read_str, read_u32_le, read_uvarint};
use logstore_types::{Error, Result};

/// Magic bytes of a pack object.
pub const MAGIC: &[u8; 4] = b"LSPK";
/// Current format version.
pub const VERSION: u8 = 1;
/// Size of the fixed prologue (magic + version + manifest length).
pub const PROLOGUE_LEN: u64 = 9;

/// Random access over a packed object (in-memory buffer, OSS object behind
/// a cache, a local file, ...).
pub trait RangeSource {
    /// Reads `len` bytes at `offset`. Must error (not truncate) on
    /// out-of-range reads.
    fn read_at(&self, offset: u64, len: u64) -> Result<Vec<u8>>;

    /// Reads `len` bytes at `offset` into a shared buffer. Cached sources
    /// override this to hand out the cache's own `Arc` for block-aligned
    /// reads (zero-copy); the default just wraps [`RangeSource::read_at`].
    fn read_at_shared(&self, offset: u64, len: u64) -> Result<std::sync::Arc<Vec<u8>>> {
        self.read_at(offset, len).map(std::sync::Arc::new)
    }

    /// Total size in bytes.
    fn size(&self) -> u64;
}

impl RangeSource for Vec<u8> {
    fn read_at(&self, offset: u64, len: u64) -> Result<Vec<u8>> {
        let end = offset.checked_add(len).ok_or_else(|| Error::invalid("range overflow"))?;
        self.get(offset as usize..end as usize)
            .map(<[u8]>::to_vec)
            .ok_or_else(|| Error::invalid(format!("range {offset}+{len} beyond {}", self.len())))
    }

    fn size(&self) -> u64 {
        self.len() as u64
    }
}

impl<T: RangeSource + ?Sized> RangeSource for std::sync::Arc<T> {
    fn read_at(&self, offset: u64, len: u64) -> Result<Vec<u8>> {
        (**self).read_at(offset, len)
    }
    fn read_at_shared(&self, offset: u64, len: u64) -> Result<std::sync::Arc<Vec<u8>>> {
        (**self).read_at_shared(offset, len)
    }
    fn size(&self) -> u64 {
        (**self).size()
    }
}

/// Accumulates members and serializes a pack object.
#[derive(Debug, Default)]
pub struct PackWriter {
    members: Vec<(String, Vec<u8>)>,
}

impl PackWriter {
    /// Creates an empty writer.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds a member. Names must be unique.
    pub fn add(&mut self, name: impl Into<String>, data: Vec<u8>) -> Result<()> {
        let name = name.into();
        if name.is_empty() || name.len() > 255 {
            return Err(Error::invalid("member name must be 1..=255 bytes"));
        }
        if self.members.iter().any(|(n, _)| *n == name) {
            return Err(Error::invalid(format!("duplicate member '{name}'")));
        }
        self.members.push((name, data));
        Ok(())
    }

    /// Serializes the pack.
    pub fn finish(self) -> Vec<u8> {
        let mut manifest = Vec::new();
        put_uvarint(&mut manifest, self.members.len() as u64);
        let mut offset = 0u64;
        for (name, data) in &self.members {
            put_str(&mut manifest, name);
            put_uvarint(&mut manifest, offset);
            put_uvarint(&mut manifest, data.len() as u64);
            offset += data.len() as u64;
        }
        let crc = crc32c(&manifest);
        manifest.extend_from_slice(&crc.to_le_bytes());

        let payload_len: usize = self.members.iter().map(|(_, d)| d.len()).sum();
        let mut out = Vec::with_capacity(PROLOGUE_LEN as usize + manifest.len() + payload_len);
        out.extend_from_slice(MAGIC);
        out.push(VERSION);
        out.extend_from_slice(&(manifest.len() as u32).to_le_bytes());
        out.extend_from_slice(&manifest);
        for (_, data) in &self.members {
            out.extend_from_slice(data);
        }
        out
    }
}

/// One manifest entry.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MemberEntry {
    /// Member name.
    pub name: String,
    /// Offset within the payload area.
    pub offset: u64,
    /// Member length in bytes.
    pub len: u64,
}

/// Checks the fixed prologue (length, magic, version) and returns the
/// manifest length it announces.
fn parse_prologue(prologue: &[u8]) -> Result<u64> {
    if prologue.len() as u64 != PROLOGUE_LEN {
        return Err(Error::corruption("short pack prologue"));
    }
    let (magic, rest) = prologue.split_at(MAGIC.len());
    if magic != MAGIC {
        return Err(Error::corruption("bad pack magic"));
    }
    if rest[0] != VERSION {
        return Err(Error::corruption(format!("unsupported pack version {}", rest[0])));
    }
    read_u32_le(&rest[1..], &mut 0).map(u64::from)
}

/// The parsed manifest of one pack: where every member lives inside the
/// object. Holds no source, so one parsed manifest serves every reader of
/// the same (immutable) object.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PackManifest {
    members: Vec<MemberEntry>,
    payload_start: u64,
}

impl PackManifest {
    /// Fetches the prologue and manifest of `source`, verifying magic,
    /// version, checksum and that every member lies inside the object.
    pub fn read<S: RangeSource + ?Sized>(source: &S) -> Result<Self> {
        let manifest_len = parse_prologue(&source.read_at(0, PROLOGUE_LEN)?)?;
        if manifest_len < 8 || PROLOGUE_LEN + manifest_len > source.size() {
            return Err(Error::corruption("pack manifest length out of range"));
        }
        let manifest = source.read_at(PROLOGUE_LEN, manifest_len)?;
        if manifest.len() as u64 != manifest_len {
            return Err(Error::corruption("short pack manifest"));
        }
        let (body, crc_bytes) = manifest.split_at(manifest.len() - 4);
        if crc32c(body) != read_u32_le(crc_bytes, &mut 0)? {
            return Err(Error::corruption("pack manifest checksum mismatch"));
        }

        let mut pos = 0;
        let n = read_uvarint(body, &mut pos)? as usize;
        if n > body.len() {
            return Err(Error::corruption("pack member count implausible"));
        }
        let payload_start = PROLOGUE_LEN + manifest_len;
        let payload_size = source.size() - payload_start;
        let mut members = Vec::with_capacity(n);
        for _ in 0..n {
            let name = read_str(body, &mut pos)?.to_string();
            let offset = read_uvarint(body, &mut pos)?;
            let len = read_uvarint(body, &mut pos)?;
            if offset.checked_add(len).is_none_or(|end| end > payload_size) {
                return Err(Error::corruption(format!("member '{name}' exceeds payload")));
            }
            members.push(MemberEntry { name, offset, len });
        }
        Ok(PackManifest { members, payload_start })
    }

    /// Manifest entries in pack order.
    pub fn members(&self) -> &[MemberEntry] {
        &self.members
    }

    /// Finds a member entry by name.
    pub fn entry(&self, name: &str) -> Option<&MemberEntry> {
        self.members.iter().find(|m| m.name == name)
    }

    fn require(&self, name: &str) -> Result<&MemberEntry> {
        self.entry(name).ok_or_else(|| Error::NotFound(format!("pack member '{name}'")))
    }

    /// Object offset of the first payload byte — also the size of the
    /// prologue plus manifest this struct was parsed from.
    pub fn payload_start(&self) -> u64 {
        self.payload_start
    }

    /// The absolute byte range `(offset, len)` of a member within the pack
    /// object — what a fetch plan is made of.
    pub fn member_object_range(&self, name: &str) -> Option<(u64, u64)> {
        self.entry(name).map(|e| (self.payload_start + e.offset, e.len))
    }

    /// Reads a whole member into a shared buffer — zero-copy when the
    /// source is cached and the member happens to be block-aligned.
    pub fn read_member_shared<S: RangeSource + ?Sized>(
        &self,
        source: &S,
        name: &str,
    ) -> Result<std::sync::Arc<Vec<u8>>> {
        let entry = self.require(name)?;
        source.read_at_shared(self.payload_start + entry.offset, entry.len)
    }

    /// Reads a byte range inside a member.
    pub fn read_member_range<S: RangeSource + ?Sized>(
        &self,
        source: &S,
        name: &str,
        offset: u64,
        len: u64,
    ) -> Result<Vec<u8>> {
        let entry = self.require(name)?;
        if offset.checked_add(len).is_none_or(|end| end > entry.len) {
            return Err(Error::invalid(format!(
                "range {offset}+{len} exceeds member '{name}' of {} bytes",
                entry.len
            )));
        }
        source.read_at(self.payload_start + entry.offset + offset, len)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_pack() -> Vec<u8> {
        let mut w = PackWriter::new();
        w.add("meta", b"schema-bytes".to_vec()).unwrap();
        w.add("index.0", b"idx0".to_vec()).unwrap();
        w.add("col.0", vec![7u8; 1000]).unwrap();
        w.add("empty", Vec::new()).unwrap();
        w.finish()
    }

    #[test]
    fn write_read_roundtrip() {
        let bytes = sample_pack();
        let m = PackManifest::read(&bytes).unwrap();
        assert_eq!(m.members().len(), 4);
        assert_eq!(*m.read_member_shared(&bytes, "meta").unwrap(), b"schema-bytes");
        assert_eq!(*m.read_member_shared(&bytes, "index.0").unwrap(), b"idx0");
        assert_eq!(*m.read_member_shared(&bytes, "col.0").unwrap(), vec![7u8; 1000]);
        assert_eq!(*m.read_member_shared(&bytes, "empty").unwrap(), Vec::<u8>::new());
    }

    #[test]
    fn member_range_reads() {
        let bytes = sample_pack();
        let m = PackManifest::read(&bytes).unwrap();
        assert_eq!(m.read_member_range(&bytes, "meta", 0, 6).unwrap(), b"schema");
        assert_eq!(m.read_member_range(&bytes, "meta", 7, 5).unwrap(), b"bytes");
        assert!(m.read_member_range(&bytes, "meta", 10, 10).is_err());
    }

    #[test]
    fn missing_member() {
        let bytes = sample_pack();
        let m = PackManifest::read(&bytes).unwrap();
        assert!(matches!(m.read_member_shared(&bytes, "nope"), Err(Error::NotFound(_))));
    }

    #[test]
    fn duplicate_member_rejected() {
        let mut w = PackWriter::new();
        w.add("a", vec![]).unwrap();
        assert!(w.add("a", vec![]).is_err());
    }

    #[test]
    fn corrupted_magic_rejected() {
        let mut bytes = sample_pack();
        bytes[0] = b'X';
        assert!(PackManifest::read(&bytes).is_err());
    }

    #[test]
    fn corrupted_manifest_rejected() {
        let mut bytes = sample_pack();
        bytes[12] ^= 0xff; // inside the manifest body
        assert!(PackManifest::read(&bytes).is_err());
    }

    #[test]
    fn truncated_object_rejected() {
        let bytes = sample_pack();
        assert!(PackManifest::read(&bytes[..PROLOGUE_LEN as usize].to_vec()).is_err());
        assert!(PackManifest::read(&bytes[..4].to_vec()).is_err());
    }

    #[test]
    fn a_source_that_returns_short_reads_is_corruption_not_a_panic() {
        /// Breaks the `RangeSource` contract: truncates every read.
        struct Short(Vec<u8>, usize);
        impl RangeSource for Short {
            fn read_at(&self, offset: u64, len: u64) -> Result<Vec<u8>> {
                let mut bytes = self.0.read_at(offset, len)?;
                bytes.truncate(self.1);
                Ok(bytes)
            }
            fn size(&self) -> u64 {
                self.0.size()
            }
        }
        for keep in [0, 3, 8] {
            let err = PackManifest::read(&Short(sample_pack(), keep)).unwrap_err();
            assert!(matches!(err, Error::Corruption(_)), "keep {keep}: {err}");
        }
        // A full prologue but a truncated manifest.
        let err = PackManifest::read(&Short(sample_pack(), 9)).unwrap_err();
        assert!(matches!(err, Error::Corruption(_)), "{err}");
    }

    #[test]
    fn member_beyond_payload_rejected() {
        // Craft a manifest that claims a member longer than the payload.
        let mut w = PackWriter::new();
        w.add("a", vec![1, 2, 3]).unwrap();
        let mut bytes = w.finish();
        bytes.truncate(bytes.len() - 2); // shrink payload under the claim
        assert!(PackManifest::read(&bytes).is_err());
    }

    #[test]
    fn object_range_maps_to_absolute_offsets() {
        let bytes = sample_pack();
        let m = PackManifest::read(&bytes).unwrap();
        let (off, len) = m.member_object_range("col.0").unwrap();
        assert_eq!(len, 1000);
        assert_eq!(&bytes[off as usize..(off + 4) as usize], &[7u8; 4]);
    }
}
