//! Inverted index: term → posting list.
//!
//! Each string column in a LogBlock gets one inverted index. Two kinds of
//! terms are stored side by side in a single sorted dictionary:
//!
//! * **Exact** terms — the whole cell value, supporting `col = 'literal'`
//!   without decompressing the column.
//! * **Token** terms — lowercased alphanumeric runs, supporting full-text
//!   `col CONTAINS 'term'` (the paper's headline retrieval feature).
//!
//! Layout — two pack members, so a lookup on object storage fetches the
//! dictionary plus *one* posting list instead of the whole index:
//!
//! ```text
//! dictionary: varint n_terms
//!             n_terms * (kind u8, term str, varint offset, varint len)   -- sorted
//! postings:   the concatenated posting lists the dictionary points into
//! ```
//!
//! Each posting list is delta-varints or a bitset over the block's rows,
//! whichever is smaller ([`crate::postings`]), so the writer needs the
//! block's row count when it finishes.
//!
//! The dictionary is parsed eagerly at open (it is small); posting lists are
//! range-read and decoded on demand.
//!
//! # Building
//!
//! Full-column indexing is the largest CPU stage of a LogBlock build, and
//! almost every token of every row is a term the writer has already seen
//! (≈ 250 k tokens but ≈ 1 500 distinct terms in one drain). So
//! [`InvertedIndexWriter`] allocates only on a term's *first* sighting,
//! and resolves a term to its id in two steps:
//!
//! 1. **The memo**: a direct-mapped table of `MEMO_SLOTS` (1 024) term ids,
//!    indexed by a cheap unkeyed hash of `(kind, term as written)` — no
//!    lowercasing, no keyed hash. A slot is a guess: it also holds 32
//!    other bits of the hash, which turn most misses away, and the term it
//!    names is compared with the one being pushed; a hit is only taken
//!    when they are the same term.
//! 2. **The map**, on a memo miss: the token is lowercased and clamped
//!    into one reused scratch key `kind ++ term`, looked up by borrow in a
//!    hash map from key to term id, and the memo slot is pointed at the
//!    result.
//!
//! The map is the authority and its hasher is keyed — std's
//! `RandomState`, one key per writer — because tenants choose their
//! tokens and builds run on shared threads: a fixed public hash would let
//! one tenant aim collisions at everyone's build. The memo's hash is
//! public, and that is safe: tokens aimed at one memo slot only evict each
//! other, so each push costs one failed comparison plus the map probe it
//! would have paid without the memo — never a longer probe sequence.
//!
//! A whole cell short enough for an exact term (`ip`, `api`) repeats far
//! more often than it is new, and its tokens are a function of it: the
//! writer records the token ids of each exact term at its first sighting
//! and, on every later one, pushes the row to the exact term and those
//! ids without tokenizing the cell again.
//!
//! Nothing here decides bytes. Ids are positions in first-sighting order
//! and are never written; [`finish_split`] sorts the terms by key (bytewise
//! order of `kind ++ term` is the dictionary's `(kind, term)` order), so
//! the output depends neither on a hasher nor on what the memo held.
//!
//! [`finish_split`]: InvertedIndexWriter::finish_split

use crate::postings;
use crate::rowset::RowIdSet;
use crate::tokenizer::{clamp_term, token_ranges, MAX_TERM_LEN};
use logstore_codec::varint::{put_str, put_uvarint, read_str, read_uvarint};
use logstore_types::{Error, Result};
use std::collections::HashMap;

/// Distinguishes whole-value terms from tokenized terms.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum TermKind {
    /// Whole cell value (supports equality lookup).
    Exact,
    /// Tokenized term (supports CONTAINS lookup).
    Token,
}

impl TermKind {
    fn tag(self) -> u8 {
        match self {
            TermKind::Exact => 0,
            TermKind::Token => 1,
        }
    }

    fn from_tag(tag: u8) -> Option<Self> {
        Some(match tag {
            0 => TermKind::Exact,
            1 => TermKind::Token,
            _ => return None,
        })
    }
}

/// Maximum cell length for which a whole-value **exact** term is indexed.
/// Longer values (free-text log lines) would duplicate the entire column
/// inside the term dictionary — the Lucene keyword-vs-text distinction.
/// Equality lookups for longer literals fall back to the scan path; the
/// scanner applies the same constant so index and scan stay consistent.
pub const MAX_EXACT_LEN: usize = 64;

/// Slots of the writer's memo (a power of two).
const MEMO_SLOTS: usize = 1024;

/// The memo hash of `term` of `kind`, as written (before lowercasing): a
/// multiplicative hash over eight-byte words, the last one read where it
/// ends. Its top bits pick the slot ([`memo_slot`]), its low 32 bits are
/// the slot's check. Unkeyed on purpose — see the module docs for why a
/// collision costs nothing.
#[inline]
fn memo_hash(kind: TermKind, b: &[u8]) -> u64 {
    const K: u64 = 0x9e37_79b9_7f4a_7c15;
    let word = |at: usize| u64::from_le_bytes(b[at..at + 8].try_into().expect("eight bytes"));
    let half = |at: usize| u64::from(u32::from_le_bytes(b[at..at + 4].try_into().expect("four")));
    let mut h = (u64::from(kind.tag()) | (b.len() as u64) << 8).wrapping_mul(K);
    let mut at = 0;
    while at + 8 < b.len() {
        h = (h ^ word(at)).wrapping_mul(K).rotate_left(23);
        at += 8;
    }
    let last = match b.len() {
        8.. => word(b.len() - 8),
        4..=7 => half(0) << 32 | half(b.len() - 4),
        n => b[..n].iter().fold(0, |w, &x| w << 8 | u64::from(x)),
    };
    h = (h ^ last).wrapping_mul(K);
    (h ^ h >> 29).wrapping_mul(K)
}

/// [`clamp_term`] over a token's bytes: ASCII, so any cut is a char
/// boundary.
fn clamp(token: &[u8]) -> &[u8] {
    &token[..token.len().min(MAX_TERM_LEN)]
}

/// The memo slot of `term` of `kind`, as written.
pub fn memo_slot(kind: TermKind, term: &str) -> usize {
    (memo_hash(kind, term.as_bytes()) >> (64 - MEMO_SLOTS.trailing_zeros())) as usize
}

/// One distinct term.
#[derive(Debug)]
struct Term {
    /// `kind ++ term`, lowercased for tokens. The kind tags are ASCII, so
    /// a key is itself valid UTF-8 and stays a `str` from cell to
    /// dictionary.
    key: Box<str>,
    /// Ascending row ids.
    rows: Vec<u32>,
    /// For an exact term: its cell's token ids, a range of
    /// `InvertedIndexWriter::cell_tokens`.
    tokens: (u32, u32),
}

impl Term {
    /// True when this is the term `raw` of `kind` resolves to.
    #[inline]
    fn is(&self, kind: TermKind, raw: &[u8]) -> bool {
        let (tag, term) = self.key.as_bytes().split_at(1);
        tag[0] == kind.tag()
            && match kind {
                TermKind::Exact => term == raw,
                // `term` is lowercase: equal ignoring ASCII case is equal
                // after the writer's lowercasing.
                TermKind::Token => term.eq_ignore_ascii_case(raw),
            }
    }

    #[inline]
    fn push(&mut self, row_id: u32) {
        if self.rows.last() != Some(&row_id) {
            self.rows.push(row_id);
        }
    }
}

/// Accumulates terms while a LogBlock column is being built.
#[derive(Debug)]
pub struct InvertedIndexWriter {
    /// `kind ++ term` → index into `terms`: the authority, keyed hasher.
    ids: HashMap<Box<str>, u32>,
    /// Distinct terms in first-sighting order.
    terms: Vec<Term>,
    /// Memo slot → (term id + 1, check): 0 is empty, and the check (the
    /// low half of the memo hash) turns most misses away before the term
    /// is read.
    memo: Box<[(u32, u32)]>,
    /// Token ids of the exact terms' cells, back to back.
    cell_tokens: Vec<u32>,
    /// The key being looked up, reused across pushes.
    key: String,
}

impl Default for InvertedIndexWriter {
    fn default() -> Self {
        InvertedIndexWriter {
            ids: HashMap::new(),
            terms: Vec::new(),
            memo: vec![(0, 0); MEMO_SLOTS].into_boxed_slice(),
            cell_tokens: Vec::new(),
            key: String::new(),
        }
    }
}

impl InvertedIndexWriter {
    /// Creates an empty writer.
    pub fn new() -> Self {
        Self::default()
    }

    /// Indexes one cell. Row ids must arrive in ascending order (they do:
    /// the builder feeds rows sequentially). A cell is its bytes, UTF-8
    /// unless the caller broke its own contract: a cell that is not is not
    /// indexed whole, only its (ASCII) tokens are.
    pub fn add(&mut self, row_id: u32, value: impl AsRef<[u8]>) {
        let value = value.as_ref();
        if value.len() > MAX_EXACT_LEN {
            return self.add_text(row_id, value);
        }
        let Some((id, new)) = self.resolve(TermKind::Exact, value) else {
            return self.add_text(row_id, value);
        };
        self.terms[id].push(row_id);
        if new {
            let start = self.cell_tokens.len() as u32;
            for run in token_ranges(value) {
                if let Some((token, _)) = self.resolve(TermKind::Token, clamp(&value[run])) {
                    self.terms[token].push(row_id);
                    self.cell_tokens.push(token as u32);
                }
            }
            self.terms[id].tokens = (start, self.cell_tokens.len() as u32);
        } else {
            let (start, end) = self.terms[id].tokens;
            for &token in &self.cell_tokens[start as usize..end as usize] {
                self.terms[token as usize].push(row_id);
            }
        }
    }

    /// Indexes one cell as free text: tokens only, no exact term (used for
    /// `IndexKind::FullText` columns, where whole log lines as dictionary
    /// keys would duplicate the column).
    pub fn add_text(&mut self, row_id: u32, value: impl AsRef<[u8]>) {
        let value = value.as_ref();
        for run in token_ranges(value) {
            if let Some((id, _)) = self.resolve(TermKind::Token, clamp(&value[run])) {
                self.terms[id].push(row_id);
            }
        }
    }

    /// The id of `term` of `kind` (as written; tokens are lowercased
    /// here), and whether this sighting created it; `None` for a term that
    /// is not UTF-8.
    #[inline]
    fn resolve(&mut self, kind: TermKind, term: &[u8]) -> Option<(usize, bool)> {
        let hash = memo_hash(kind, term);
        let (slot, check) = ((hash >> (64 - MEMO_SLOTS.trailing_zeros())) as usize, hash as u32);
        let (cached, cached_check) = self.memo[slot];
        if let Some(id) = cached.checked_sub(1) {
            if cached_check == check && self.terms[id as usize].is(kind, term) {
                return Some((id as usize, false));
            }
        }
        self.key.clear();
        self.key.push(char::from(kind.tag()));
        self.key.push_str(std::str::from_utf8(term).ok()?);
        if kind == TermKind::Token {
            self.key[1..].make_ascii_lowercase();
        }
        let (id, new) = match self.ids.get(self.key.as_str()) {
            Some(&id) => (id as usize, false),
            None => {
                let id = self.terms.len();
                let key: Box<str> = self.key.as_str().into();
                self.ids.insert(key.clone(), id as u32);
                self.terms.push(Term { key, rows: Vec::new(), tokens: (0, 0) });
                (id, true)
            }
        };
        self.memo[slot] = (id as u32 + 1, check);
        Some((id, new))
    }

    /// Number of distinct terms.
    pub fn term_count(&self) -> usize {
        self.terms.len()
    }

    /// Serializes the index of a block of `rows` rows as two parts: the
    /// term dictionary (small, read eagerly) and the postings blob (large,
    /// range-read per term). Storing them as separate pack members lets a
    /// lookup on object storage fetch the dictionary plus *one* posting
    /// list instead of the whole index.
    pub fn finish_split(self, rows: u32) -> (Vec<u8>, Vec<u8>) {
        let mut terms = self.terms;
        terms.sort_unstable_by(|a, b| a.key.cmp(&b.key));
        let mut dict = Vec::new();
        let mut blob = Vec::new();
        put_uvarint(&mut dict, terms.len() as u64);
        for term in &terms {
            let start = blob.len();
            postings::encode_into(&mut blob, &term.rows, rows);
            let (kind, text) = term.key.split_at(1);
            dict.extend_from_slice(kind.as_bytes());
            put_str(&mut dict, text);
            put_uvarint(&mut dict, start as u64);
            put_uvarint(&mut dict, (blob.len() - start) as u64);
        }
        (dict, blob)
    }
}

/// The parsed term dictionary: resolves a term to its posting-list range
/// within the postings blob.
#[derive(Debug)]
pub struct InvertedDictReader {
    // (kind tag, term, offset, len) sorted — mirrors the writer's order.
    dict: Vec<(u8, String, usize, usize)>,
}

impl InvertedDictReader {
    /// Parses a dictionary produced by [`InvertedIndexWriter::finish_split`].
    pub fn open(data: &[u8]) -> Result<Self> {
        let mut pos = 0;
        let n = read_uvarint(data, &mut pos)? as usize;
        if n > data.len() {
            return Err(Error::corruption("inverted dictionary count implausible"));
        }
        let mut dict = Vec::with_capacity(n);
        for _ in 0..n {
            let kind = *data.get(pos).ok_or_else(|| Error::corruption("term kind truncated"))?;
            pos += 1;
            TermKind::from_tag(kind).ok_or_else(|| Error::corruption("unknown term kind"))?;
            let term = read_str(data, &mut pos)?.to_string();
            let offset = read_uvarint(data, &mut pos)? as usize;
            let len = read_uvarint(data, &mut pos)? as usize;
            dict.push((kind, term, offset, len));
        }
        if !dict.windows(2).all(|w| (w[0].0, &w[0].1) <= (w[1].0, &w[1].1)) {
            return Err(Error::corruption("inverted dictionary not sorted"));
        }
        if pos != data.len() {
            return Err(Error::corruption("trailing bytes after inverted dictionary"));
        }
        Ok(InvertedDictReader { dict })
    }

    /// Number of terms.
    pub fn term_count(&self) -> usize {
        self.dict.len()
    }

    /// The `(offset, len)` of a term's posting list in the blob, if present.
    pub fn lookup_range(&self, kind: TermKind, term: &str) -> Option<(usize, usize)> {
        let term = clamp_term(term);
        let key = (kind.tag(), term);
        self.dict
            .binary_search_by(|(k, t, _, _)| (*k, t.as_str()).cmp(&key))
            .ok()
            .map(|i| (self.dict[i].2, self.dict[i].3))
    }

    /// Decodes a posting list fetched from the blob of a block of `rows`
    /// rows.
    pub fn decode_postings(bytes: &[u8], rows: u32) -> Result<RowIdSet> {
        postings::decode(bytes, rows)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tokenizer::tokenize;
    use proptest::prelude::*;

    /// A split index held in memory, read the way a LogBlock reads it:
    /// dictionary lookup, then a range of the postings member.
    struct Index {
        dict: InvertedDictReader,
        blob: Vec<u8>,
        max_row: u32,
    }

    impl Index {
        fn lookup(&self, kind: TermKind, term: &str) -> Result<Vec<u32>> {
            match self.dict.lookup_range(kind, term) {
                Some((offset, len)) => Ok(InvertedDictReader::decode_postings(
                    &self.blob[offset..offset + len],
                    self.max_row,
                )?
                .to_vec()),
                None => Ok(Vec::new()),
            }
        }

        fn lookup_exact(&self, value: &str) -> Result<Vec<u32>> {
            self.lookup(TermKind::Exact, value)
        }

        fn lookup_token(&self, token: &str) -> Result<Vec<u32>> {
            self.lookup(TermKind::Token, &token.to_ascii_lowercase())
        }
    }

    fn build(values: &[&str]) -> Index {
        let mut w = InvertedIndexWriter::new();
        for (i, v) in values.iter().enumerate() {
            w.add(i as u32, v);
        }
        let (dict, blob) = w.finish_split(values.len() as u32);
        let dict = InvertedDictReader::open(&dict).unwrap();
        Index { dict, blob, max_row: values.len() as u32 }
    }

    #[test]
    fn exact_and_token_lookup() {
        let r = build(&["GET /api/users", "POST /api/orders", "GET /healthz"]);
        assert_eq!(r.lookup_exact("GET /api/users").unwrap(), vec![0]);
        assert_eq!(r.lookup_exact("get /api/users").unwrap(), Vec::<u32>::new());
        assert_eq!(r.lookup_token("get").unwrap(), vec![0, 2]);
        assert_eq!(r.lookup_token("API").unwrap(), vec![0, 1]);
        assert_eq!(r.lookup_token("missing").unwrap(), Vec::<u32>::new());
    }

    #[test]
    fn repeated_tokens_in_one_row_dedup() {
        let r = build(&["err err err"]);
        assert_eq!(r.lookup_token("err").unwrap(), vec![0]);
    }

    #[test]
    fn empty_index() {
        let r = build(&[]);
        assert_eq!(r.dict.term_count(), 0);
        assert!(r.blob.is_empty());
        assert_eq!(r.lookup_token("x").unwrap(), Vec::<u32>::new());
    }

    #[test]
    fn long_values_skip_exact_terms_but_keep_tokens() {
        let long = "x".repeat(500);
        let r = build(&[long.as_str()]);
        // No exact term for a value beyond MAX_EXACT_LEN — the scanner
        // routes such equality predicates to the scan path instead.
        assert_eq!(r.lookup_exact(&long).unwrap(), Vec::<u32>::new());
        // Tokens are still indexed (clamped).
        assert_eq!(r.lookup_token(&long).unwrap(), vec![0]);
        // At the boundary the exact term is present.
        let edge = "y".repeat(MAX_EXACT_LEN);
        let r = build(&[edge.as_str()]);
        assert_eq!(r.lookup_exact(&edge).unwrap(), vec![0]);
    }

    #[test]
    fn corrupted_bytes_rejected() {
        let mut w = InvertedIndexWriter::new();
        w.add(0, "hello world");
        let (dict, blob) = w.finish_split(100);
        assert!(InvertedDictReader::open(&dict[..dict.len() / 2]).is_err());
        assert!(InvertedDictReader::open(&[]).is_err());
        // The dictionary is a whole pack member: nothing may follow it.
        let mut padded = dict.clone();
        padded.push(0);
        assert!(InvertedDictReader::open(&padded).is_err());
        // A posting list cut short, or naming a row the block lacks.
        let (offset, len) = InvertedDictReader::open(&dict)
            .unwrap()
            .lookup_range(TermKind::Token, "hello")
            .unwrap();
        let list = &blob[offset..offset + len];
        assert!(InvertedDictReader::decode_postings(&list[..len - 1], 1).is_err());
        assert!(InvertedDictReader::decode_postings(list, 0).is_err());
    }

    /// The writer this module shipped before the allocation-free one, kept
    /// as the byte-level oracle: a `String` per token, a second per
    /// dictionary probe, a `BTreeMap` walk per push.
    #[derive(Default)]
    struct BTreeWriter {
        terms: std::collections::BTreeMap<(u8, String), Vec<u32>>,
    }

    impl BTreeWriter {
        fn tokens(text: &str) -> impl Iterator<Item = String> + '_ {
            text.split(|c: char| !c.is_ascii_alphanumeric())
                .filter(|t| !t.is_empty())
                .map(|t| t.to_ascii_lowercase())
        }

        fn add(&mut self, row_id: u32, value: &str) {
            if value.len() <= MAX_EXACT_LEN {
                self.push(TermKind::Exact, value, row_id);
            }
            self.add_text(row_id, value);
        }

        fn add_text(&mut self, row_id: u32, value: &str) {
            for tok in Self::tokens(value) {
                self.push(TermKind::Token, clamp_term(&tok), row_id);
            }
        }

        fn push(&mut self, kind: TermKind, term: &str, row_id: u32) {
            let list = self.terms.entry((kind.tag(), term.to_string())).or_default();
            if list.last() != Some(&row_id) {
                list.push(row_id);
            }
        }

        fn finish_split(self, rows: u32) -> (Vec<u8>, Vec<u8>) {
            let mut dict = Vec::new();
            let mut blob = Vec::new();
            put_uvarint(&mut dict, self.terms.len() as u64);
            for ((kind, term), ids) in &self.terms {
                let start = blob.len();
                blob.extend_from_slice(&postings::encode(ids, rows));
                dict.push(*kind);
                put_str(&mut dict, term);
                put_uvarint(&mut dict, start as u64);
                put_uvarint(&mut dict, (blob.len() - start) as u64);
            }
            (dict, blob)
        }
    }

    /// Distinct terms of `kind` that all land in one memo slot, spelled
    /// `{prefix}{n}`: a writer fed them evicts itself on every push.
    fn memo_colliding(kind: TermKind, prefix: &str, count: usize) -> Vec<String> {
        let target = memo_slot(kind, &format!("{prefix}0"));
        (0..)
            .map(|n| format!("{prefix}{n}"))
            .filter(|t| memo_slot(kind, t) == target)
            .take(count)
            .collect()
    }

    /// Tokens that collide in the memo as written in lower case, others
    /// that collide in upper case (each also in the other case), and exact
    /// cells that collide, plus a token spelled like one of the cells.
    fn colliding_pool() -> &'static [String] {
        static POOL: std::sync::OnceLock<Vec<String>> = std::sync::OnceLock::new();
        POOL.get_or_init(|| {
            let mut pool = memo_colliding(TermKind::Token, "tok", 6);
            pool.extend(memo_colliding(TermKind::Token, "TOK", 6));
            let other_case: Vec<String> = pool
                .iter()
                .map(|t| if t.starts_with('t') { t.to_uppercase() } else { t.to_lowercase() })
                .collect();
            pool.extend(other_case);
            let exact = memo_colliding(TermKind::Exact, "ip-", 6);
            pool.extend(exact);
            // An exact cell and its upper-case spelling in one slot, and a
            // cell whose exact term and token share their text and slot.
            let pair = (0..)
                .map(|n| format!("Ab-{n}"))
                .find(|t| {
                    memo_slot(TermKind::Exact, t) == memo_slot(TermKind::Exact, &t.to_uppercase())
                })
                .expect("a colliding pair exists");
            pool.push(pair.to_uppercase());
            pool.push(pair);
            let same_text = (0..)
                .map(|n| format!("k{n}"))
                .find(|t| memo_slot(TermKind::Exact, t) == memo_slot(TermKind::Token, t))
                .expect("a colliding cell exists");
            pool.push(same_text);
            // Two terms of each kind with the whole memo hash in common:
            // same slot and same check word, so only the term comparison
            // tells them apart.
            for kind in [TermKind::Exact, TermKind::Token] {
                let (a, b) = memo_twins(kind);
                pool.push(a);
                pool.push(b);
            }
            pool
        })
    }

    /// Two distinct 16-byte alphanumeric terms of `kind` with equal memo
    /// hashes. For this length the hash reads the first word, then the
    /// second, so a first word for the twin fixes the second word it
    /// needs; the search keeps the first twin whose second word is
    /// alphanumeric too.
    fn memo_twins(kind: TermKind) -> (String, String) {
        const K: u64 = 0x9e37_79b9_7f4a_7c15;
        let word = |s: &[u8]| u64::from_le_bytes(s.try_into().expect("eight bytes"));
        let first = |w: u64| {
            let h = (u64::from(kind.tag()) | 16 << 8).wrapping_mul(K);
            (h ^ w).wrapping_mul(K).rotate_left(23)
        };
        let a = "memoTwinAlphaOne";
        let target = first(word(&a.as_bytes()[..8])) ^ word(&a.as_bytes()[8..]);
        let alnum = b"0123456789abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ";
        for n in 0u64.. {
            let mut head = [b'0'; 8];
            let mut k = n;
            // The first byte is the word's lowest, which a product
            // spreads furthest: it varies fastest.
            for byte in head.iter_mut() {
                *byte = alnum[(k % 62) as usize];
                k /= 62;
            }
            let tail = (target ^ first(word(&head))).to_le_bytes();
            if tail.iter().all(u8::is_ascii_alphanumeric) {
                let b = String::from_utf8([head, tail].concat()).expect("ascii");
                assert_eq!(memo_hash(kind, a.as_bytes()), memo_hash(kind, b.as_bytes()));
                if !b.eq_ignore_ascii_case(a) {
                    return (a.to_string(), b);
                }
            }
        }
        unreachable!("the search is unbounded")
    }

    #[test]
    fn memo_collisions_are_real() {
        let pool = colliding_pool();
        let slots = |kind| pool.iter().map(|t| memo_slot(kind, t)).collect::<Vec<_>>();
        let tokens = slots(TermKind::Token);
        assert!(tokens[..6].iter().all(|&s| s == tokens[0]));
        assert!(tokens[6..12].iter().all(|&s| s == tokens[6]));
        let exact = slots(TermKind::Exact);
        assert!(exact[24..30].iter().all(|&s| s == exact[24]));
        assert_eq!(exact[30], exact[31]);
        assert_ne!(pool[30], pool[31]);
        assert_eq!(exact[32], tokens[32]);
        let hash = |kind, t: &String| memo_hash(kind, t.as_bytes());
        assert_eq!(hash(TermKind::Exact, &pool[33]), hash(TermKind::Exact, &pool[34]));
        assert_eq!(hash(TermKind::Token, &pool[35]), hash(TermKind::Token, &pool[36]));
        assert!(pool[33] != pool[34] && !pool[35].eq_ignore_ascii_case(&pool[36]));
        assert!(memo_slot(TermKind::Token, "abc") < MEMO_SLOTS);
    }

    #[test]
    fn memo_collisions_change_no_byte() {
        // Every colliding term right after each other one, as a whole
        // cell and as free text.
        let pool = colliding_pool();
        let (mut new, mut old) = (InvertedIndexWriter::new(), BTreeWriter::default());
        let mut row = 0;
        for a in pool {
            for b in pool {
                for cell in [a, b] {
                    new.add(row, cell);
                    old.add(row, cell);
                    new.add_text(row + 1, cell);
                    old.add_text(row + 1, cell);
                    row += 2;
                }
            }
        }
        assert_eq!(new.term_count(), old.terms.len());
        assert_eq!(new.finish_split(row), old.finish_split(row));
    }

    /// Cells that reach every branch of the writer: arbitrary Unicode
    /// (multi-byte separators, mixed case), tokens repeated within a row,
    /// empty cells, cells past `MAX_EXACT_LEN`, tokens past `MAX_TERM_LEN`
    /// that differ only beyond the clamp, and terms that collide in the
    /// memo — whole exact cells and tokens in either case.
    fn cell_strategy() -> BoxedStrategy<String> {
        let word = prop_oneof![Just("err"), Just("ERR"), Just("Err"), Just("ok"), Just("é")];
        let pool = colliding_pool();
        let colliding = move || (0..pool.len()).prop_map(move |i| pool[i].clone());
        prop_oneof![
            ".{0,40}".boxed(),
            "[a-cA-C0-1 /=é—]{0,90}".boxed(),
            proptest::collection::vec(word, 0..6).prop_map(|words| words.join(" ")).boxed(),
            ("[xX]{120,140}", "[a-b]{0,12}")
                .prop_map(|(long, tail)| format!("{long}{tail} z"))
                .boxed(),
            Just(String::new()).boxed(),
            colliding().boxed(),
            proptest::collection::vec(colliding(), 1..5).prop_map(|ws| ws.join(" ")).boxed(),
        ]
        .boxed()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(96))]
        #[test]
        fn prop_writer_emits_the_bytes_of_the_btree_writer(
            cells in proptest::collection::vec((cell_strategy(), any::<bool>()), 0..60)
        ) {
            let (mut new, mut old) = (InvertedIndexWriter::new(), BTreeWriter::default());
            for (row_id, (cell, text_only)) in cells.iter().enumerate() {
                if *text_only {
                    new.add_text(row_id as u32, cell);
                    old.add_text(row_id as u32, cell);
                } else {
                    new.add(row_id as u32, cell);
                    old.add(row_id as u32, cell);
                }
            }
            prop_assert_eq!(new.term_count(), old.terms.len());
            let rows = cells.len() as u32;
            let (dict, blob) = new.finish_split(rows);
            // Sorted, nothing trailing: the reader's own checks.
            prop_assert!(InvertedDictReader::open(&dict).is_ok());
            prop_assert_eq!((dict, blob), old.finish_split(rows));
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]
        #[test]
        fn prop_every_indexed_token_is_found(
            values in proptest::collection::vec("[a-c ]{0,20}", 1..40)
        ) {
            let refs: Vec<&str> = values.iter().map(String::as_str).collect();
            let r = build(&refs);
            for (i, v) in refs.iter().enumerate() {
                prop_assert!(r.lookup_exact(v).unwrap().contains(&(i as u32)));
                for tok in tokenize(v) {
                    prop_assert!(r.lookup_token(tok).unwrap().contains(&(i as u32)));
                }
            }
        }
    }
}
