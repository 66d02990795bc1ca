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
//! The dictionary is parsed eagerly at open (it is small); posting lists are
//! range-read and decoded on demand.
//!
//! # Building
//!
//! Full-column indexing is the largest CPU stage of a LogBlock build, and
//! almost every token of every row is a term the writer has already seen
//! (≈ 250 k tokens but ≈ 1 500 distinct terms in one drain). So
//! [`InvertedIndexWriter`] allocates only on a term's *first* sighting:
//! each token is lowercased and clamped into one reused scratch key
//! `kind ++ term`, resolved by a borrowed lookup in a hash map from key to
//! term id, and the row id is pushed onto that term's list. The map is
//! only ever probed, never iterated for output: [`finish_split`] sorts the
//! keys (bytewise order of `kind ++ term` is the dictionary's
//! `(kind, term)` order), so the bytes written do not depend on the
//! hasher. Tenants choose their tokens and builds run on shared threads,
//! so the hasher must be keyed — std's `RandomState`, one key per writer;
//! never a fixed public hash a tenant could aim collisions at.
//!
//! [`finish_split`]: InvertedIndexWriter::finish_split

use crate::postings;
use crate::tokenizer::{clamp_term, tokenize};
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

/// Accumulates terms while a LogBlock column is being built.
#[derive(Debug, Default)]
pub struct InvertedIndexWriter {
    /// `kind ++ term` → index into `lists`. The kind tags are ASCII, so a
    /// key is itself valid UTF-8 and stays a `str` from cell to dictionary.
    ids: HashMap<Box<str>, u32>,
    /// Ascending row ids per term, in first-sighting order.
    lists: Vec<Vec<u32>>,
    /// The key being looked up, reused across pushes.
    key: String,
}

impl InvertedIndexWriter {
    /// Creates an empty writer.
    pub fn new() -> Self {
        Self::default()
    }

    /// Indexes one cell. Row ids must arrive in ascending order (they do:
    /// the builder feeds rows sequentially).
    pub fn add(&mut self, row_id: u32, value: &str) {
        if value.len() <= MAX_EXACT_LEN {
            self.push(TermKind::Exact, value, row_id);
        }
        self.add_text(row_id, value);
    }

    /// Indexes one cell as free text: tokens only, no exact term (used for
    /// `IndexKind::FullText` columns, where whole log lines as dictionary
    /// keys would duplicate the column).
    pub fn add_text(&mut self, row_id: u32, value: &str) {
        for tok in tokenize(value) {
            self.push(TermKind::Token, clamp_term(tok), row_id);
        }
    }

    fn push(&mut self, kind: TermKind, term: &str, row_id: u32) {
        self.key.clear();
        self.key.push(char::from(kind.tag()));
        self.key.push_str(term);
        if kind == TermKind::Token {
            self.key[1..].make_ascii_lowercase();
        }
        let id = match self.ids.get(self.key.as_str()) {
            Some(&id) => id as usize,
            None => {
                let id = self.lists.len();
                self.ids.insert(self.key.as_str().into(), id as u32);
                self.lists.push(Vec::new());
                id
            }
        };
        let list = &mut self.lists[id];
        if list.last() != Some(&row_id) {
            list.push(row_id);
        }
    }

    /// Number of distinct terms.
    pub fn term_count(&self) -> usize {
        self.lists.len()
    }

    /// Serializes the index as two parts: the term dictionary (small, read
    /// eagerly) and the postings blob (large, range-read per term). Storing
    /// them as separate pack members lets a lookup on object storage fetch
    /// the dictionary plus *one* posting list instead of the whole index.
    pub fn finish_split(self) -> (Vec<u8>, Vec<u8>) {
        let mut terms: Vec<(Box<str>, u32)> = self.ids.into_iter().collect();
        terms.sort_unstable();
        let mut dict = Vec::new();
        let mut blob = Vec::new();
        put_uvarint(&mut dict, terms.len() as u64);
        for (key, id) in &terms {
            let start = blob.len();
            blob.extend_from_slice(&postings::encode(&self.lists[*id as usize]));
            let (kind, term) = key.split_at(1);
            dict.extend_from_slice(kind.as_bytes());
            put_str(&mut dict, term);
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

    /// Decodes a posting list fetched from the blob.
    pub fn decode_postings(bytes: &[u8], max_row: u32) -> Result<Vec<u32>> {
        postings::decode(bytes, max_row)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
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
                Some((offset, len)) => InvertedDictReader::decode_postings(
                    &self.blob[offset..offset + len],
                    self.max_row,
                ),
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
        let (dict, blob) = w.finish_split();
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
        let (dict, blob) = w.finish_split();
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

        fn finish_split(self) -> (Vec<u8>, Vec<u8>) {
            let mut dict = Vec::new();
            let mut blob = Vec::new();
            put_uvarint(&mut dict, self.terms.len() as u64);
            for ((kind, term), ids) in &self.terms {
                let start = blob.len();
                blob.extend_from_slice(&postings::encode(ids));
                dict.push(*kind);
                put_str(&mut dict, term);
                put_uvarint(&mut dict, start as u64);
                put_uvarint(&mut dict, (blob.len() - start) as u64);
            }
            (dict, blob)
        }
    }

    /// Cells that reach every branch of the writer: arbitrary Unicode
    /// (multi-byte separators, mixed case), tokens repeated within a row,
    /// empty cells, cells past `MAX_EXACT_LEN`, tokens past `MAX_TERM_LEN`
    /// that differ only beyond the clamp.
    fn cell_strategy() -> BoxedStrategy<String> {
        let word = prop_oneof![Just("err"), Just("ERR"), Just("Err"), Just("ok"), Just("é")];
        prop_oneof![
            ".{0,40}".boxed(),
            "[a-cA-C0-1 /=é—]{0,90}".boxed(),
            proptest::collection::vec(word, 0..6).prop_map(|words| words.join(" ")).boxed(),
            ("[xX]{120,140}", "[a-b]{0,12}")
                .prop_map(|(long, tail)| format!("{long}{tail} z"))
                .boxed(),
            Just(String::new()).boxed(),
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
            let (dict, blob) = new.finish_split();
            // Sorted, nothing trailing: the reader's own checks.
            prop_assert!(InvertedDictReader::open(&dict).is_ok());
            prop_assert_eq!((dict, blob), old.finish_split());
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
