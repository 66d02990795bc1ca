//! The [`ObjectStore`] trait.

use logstore_types::{Error, Result};
use std::sync::Arc;

/// The object-storage operations LogStore uses.
///
/// Objects are immutable: `put` of an existing path overwrites atomically
/// (matching OSS semantics), there is no append. LogBlocks rely on
/// `get_range` to read individual members of a packed block without
/// downloading the whole object.
pub trait ObjectStore: Send + Sync {
    /// Stores `data` under `path`, replacing any existing object.
    fn put(&self, path: &str, data: &[u8]) -> Result<()>;

    /// Fetches a whole object.
    fn get(&self, path: &str) -> Result<Vec<u8>>;

    /// Fetches `len` bytes starting at `offset`. Errors if the range exceeds
    /// the object (OSS-style strict ranges keep corruption loud).
    fn get_range(&self, path: &str, offset: u64, len: u64) -> Result<Vec<u8>>;

    /// Returns the object's size in bytes.
    fn head(&self, path: &str) -> Result<u64>;

    /// Lists object paths with the given prefix, in lexicographic order.
    fn list(&self, prefix: &str) -> Result<Vec<String>>;

    /// Deletes an object. Deleting a missing object is not an error
    /// (idempotent deletes simplify the expiration task).
    fn delete(&self, path: &str) -> Result<()>;

    /// Fetches a *contiguous run* of block ranges — `blocks[i+1]` must
    /// start where `blocks[i]` ends — with **one** range request, and
    /// splits the payload back into one buffer per requested block.
    ///
    /// This is the transport half of the cache's read coalescing: under a
    /// per-request latency model, fetching k adjacent cold blocks this way
    /// costs one round-trip instead of k.
    fn get_block_run(&self, path: &str, blocks: &[(u64, u64)]) -> Result<Vec<Vec<u8>>> {
        let Some(&(start, first_len)) = blocks.first() else {
            return Ok(Vec::new());
        };
        let mut end =
            start.checked_add(first_len).ok_or_else(|| Error::invalid("range overflow"))?;
        for pair in blocks.windows(2) {
            let (prev, next) = (pair[0], pair[1]);
            if next.0 != end {
                return Err(Error::invalid(format!(
                    "block run not contiguous: {}+{} then {}",
                    prev.0, prev.1, next.0
                )));
            }
            end = next.0.checked_add(next.1).ok_or_else(|| Error::invalid("range overflow"))?;
        }
        let payload = self.get_range(path, start, end - start)?;
        if payload.len() as u64 != end - start {
            return Err(Error::corruption(format!(
                "range {start}+{} of '{path}' returned {} bytes",
                end - start,
                payload.len()
            )));
        }
        let mut out = Vec::with_capacity(blocks.len());
        let mut cursor = 0usize;
        for (_, len) in blocks {
            let next = cursor + *len as usize;
            out.push(payload[cursor..next].to_vec());
            cursor = next;
        }
        Ok(out)
    }
}

impl<T: ObjectStore + ?Sized> ObjectStore for Arc<T> {
    fn put(&self, path: &str, data: &[u8]) -> Result<()> {
        (**self).put(path, data)
    }
    fn get(&self, path: &str) -> Result<Vec<u8>> {
        (**self).get(path)
    }
    fn get_range(&self, path: &str, offset: u64, len: u64) -> Result<Vec<u8>> {
        (**self).get_range(path, offset, len)
    }
    fn head(&self, path: &str) -> Result<u64> {
        (**self).head(path)
    }
    fn list(&self, prefix: &str) -> Result<Vec<String>> {
        (**self).list(prefix)
    }
    fn delete(&self, path: &str) -> Result<()> {
        (**self).delete(path)
    }
    fn get_block_run(&self, path: &str, blocks: &[(u64, u64)]) -> Result<Vec<Vec<u8>>> {
        (**self).get_block_run(path, blocks)
    }
}

/// Validates an object path: non-empty, relative, slash-separated segments
/// without `.`/`..`, printable ASCII. Shared by every backend so path bugs
/// surface identically everywhere.
pub fn validate_path(path: &str) -> Result<()> {
    if path.is_empty() || path.len() > 1024 {
        return Err(Error::invalid("object path must be 1..=1024 bytes"));
    }
    if path.starts_with('/') || path.ends_with('/') {
        return Err(Error::invalid(format!("object path '{path}' must not begin or end with '/'")));
    }
    for seg in path.split('/') {
        if seg.is_empty() {
            return Err(Error::invalid(format!("object path '{path}' has an empty segment")));
        }
        if seg == "." || seg == ".." {
            return Err(Error::invalid(format!("object path '{path}' contains '{seg}'")));
        }
        if !seg.bytes().all(|b| b.is_ascii_alphanumeric() || matches!(b, b'-' | b'_' | b'.' | b'='))
        {
            return Err(Error::invalid(format!("object path segment '{seg}' has invalid bytes")));
        }
    }
    Ok(())
}

/// Checks a `(offset, len)` range against an object size.
pub fn check_range(path: &str, size: u64, offset: u64, len: u64) -> Result<()> {
    let end = offset.checked_add(len).ok_or_else(|| Error::invalid("range overflow"))?;
    if end > size {
        return Err(Error::invalid(format!(
            "range {offset}+{len} exceeds object '{path}' of {size} bytes"
        )));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn valid_paths() {
        for p in ["a", "tenants/42/block-0001.pack", "x/y/z.meta", "a=b/c_d-e.f"] {
            assert!(validate_path(p).is_ok(), "{p} should be valid");
        }
    }

    #[test]
    fn invalid_paths() {
        for p in ["", "/abs", "trailing/", "a//b", "a/../b", "./a", "sp ace", "uni\u{00e9}"] {
            assert!(validate_path(p).is_err(), "{p} should be invalid");
        }
        assert!(validate_path(&"x".repeat(2000)).is_err());
    }

    #[test]
    fn range_checks() {
        assert!(check_range("p", 10, 0, 10).is_ok());
        assert!(check_range("p", 10, 9, 1).is_ok());
        assert!(check_range("p", 10, 9, 2).is_err());
        assert!(check_range("p", 10, u64::MAX, 2).is_err());
        assert!(check_range("p", 0, 0, 0).is_ok());
    }

    #[test]
    fn block_run_splits_one_get() {
        let store = crate::MemoryStore::new();
        let object: Vec<u8> = (0..=255u8).cycle().take(1000).collect();
        store.put("obj", &object).unwrap();
        let parts = store.get_block_run("obj", &[(100, 300), (400, 300), (700, 100)]).unwrap();
        assert_eq!(parts.len(), 3);
        assert_eq!(parts[0], object[100..400]);
        assert_eq!(parts[1], object[400..700]);
        assert_eq!(parts[2], object[700..800]);
        assert_eq!(store.get_block_run("obj", &[]).unwrap(), Vec::<Vec<u8>>::new());
    }

    /// Delegates to a [`crate::MemoryStore`] but drops the last byte of
    /// every range reply.
    struct ShortRanges(crate::MemoryStore);

    impl ObjectStore for ShortRanges {
        fn put(&self, path: &str, data: &[u8]) -> Result<()> {
            self.0.put(path, data)
        }
        fn get(&self, path: &str) -> Result<Vec<u8>> {
            self.0.get(path)
        }
        fn get_range(&self, path: &str, offset: u64, len: u64) -> Result<Vec<u8>> {
            let mut reply = self.0.get_range(path, offset, len)?;
            reply.pop();
            Ok(reply)
        }
        fn head(&self, path: &str) -> Result<u64> {
            self.0.head(path)
        }
        fn list(&self, prefix: &str) -> Result<Vec<String>> {
            self.0.list(prefix)
        }
        fn delete(&self, path: &str) -> Result<()> {
            self.0.delete(path)
        }
    }

    #[test]
    fn a_short_range_reply_is_corruption_not_a_panic() {
        let store = ShortRanges(crate::MemoryStore::new());
        store.put("obj", &[7u8; 100]).unwrap();
        let err = store.get_block_run("obj", &[(0, 40), (40, 60)]).unwrap_err();
        assert!(matches!(err, Error::Corruption(_)), "{err}");
    }

    #[test]
    fn block_run_rejects_gaps_and_overflow() {
        let store = crate::MemoryStore::new();
        store.put("obj", &[0u8; 100]).unwrap();
        assert!(store.get_block_run("obj", &[(0, 10), (20, 10)]).is_err(), "gap");
        assert!(store.get_block_run("obj", &[(0, 10), (5, 10)]).is_err(), "overlap");
        assert!(store.get_block_run("obj", &[(u64::MAX, 2)]).is_err(), "overflow");
    }
}
