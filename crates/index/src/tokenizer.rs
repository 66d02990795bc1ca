//! Text tokenization for the inverted index.
//!
//! The tokenizer mirrors [`logstore_types::predicate::contains_term`]:
//! terms are maximal ASCII-alphanumeric runs, compared case-insensitively
//! (the index stores them lowercased). This keeps index-accelerated
//! `CONTAINS` evaluation exactly consistent with the scan fallback.

/// Iterates the terms of `text` as borrowed runs: maximal
/// ASCII-alphanumeric byte runs, in their original case. The index writer
/// lowercases each run into its own scratch key, so tokenizing allocates
/// nothing. Scanning bytes finds the same runs as splitting on `char`s:
/// every byte of a multi-byte UTF-8 sequence is ≥ 0x80, hence a separator,
/// and a run starts and ends next to ASCII bytes — on char boundaries.
pub fn tokenize(text: &str) -> impl Iterator<Item = &str> + '_ {
    token_ranges(text.as_bytes()).map(|run| &text[run])
}

/// The byte ranges of [`tokenize`]'s runs in `bytes`, which need not be
/// text: the runs are ASCII, whatever surrounds them.
pub fn token_ranges(bytes: &[u8]) -> impl Iterator<Item = std::ops::Range<usize>> + '_ {
    let mut pos = 0;
    std::iter::from_fn(move || {
        while !bytes.get(pos)?.is_ascii_alphanumeric() {
            pos += 1;
        }
        let start = pos;
        while bytes.get(pos).is_some_and(u8::is_ascii_alphanumeric) {
            pos += 1;
        }
        Some(start..pos)
    })
}

/// Maximum term length stored in the dictionary; longer terms are truncated
/// on both the index and query sides so they still match each other.
pub const MAX_TERM_LEN: usize = 128;

/// Truncates a term to [`MAX_TERM_LEN`] bytes (terms are ASCII after
/// tokenization, so byte truncation is char-safe).
pub fn clamp_term(term: &str) -> &str {
    &term[..term.len().min(MAX_TERM_LEN)]
}

#[cfg(test)]
mod tests {
    use super::*;
    use logstore_types::predicate::contains_term;
    use proptest::prelude::*;

    #[test]
    fn splits_on_non_alphanumeric() {
        let toks: Vec<&str> = tokenize("GET /api/v1/users?id=42 HTTP/1.1").collect();
        assert_eq!(toks, vec!["GET", "api", "v1", "users", "id", "42", "HTTP", "1", "1"]);
    }

    #[test]
    fn multi_byte_characters_separate_runs() {
        let toks: Vec<&str> = tokenize("naïve—café ошибка42x é").collect();
        assert_eq!(toks, vec!["na", "ve", "caf", "42x"]);
    }

    #[test]
    fn empty_and_symbol_only() {
        assert_eq!(tokenize("").count(), 0);
        assert_eq!(tokenize("!!! ---").count(), 0);
    }

    #[test]
    fn clamp_is_noop_for_short_terms() {
        assert_eq!(clamp_term("abc"), "abc");
        let long = "a".repeat(300);
        assert_eq!(clamp_term(&long).len(), MAX_TERM_LEN);
    }

    proptest! {
        /// The tokenizer and the scan-side `contains_term` must agree:
        /// every token produced for a text matches CONTAINS on that text,
        /// and the byte scan finds the runs the `char` split finds.
        #[test]
        fn prop_tokens_match_contains(text in ".{0,64}") {
            for tok in tokenize(&text) {
                prop_assert!(contains_term(&text, tok),
                    "token {tok:?} of {text:?} not found by contains_term");
            }
            let by_char: Vec<&str> = text
                .split(|c: char| !c.is_ascii_alphanumeric())
                .filter(|t| !t.is_empty())
                .collect();
            prop_assert_eq!(tokenize(&text).collect::<Vec<_>>(), by_char);
        }
    }
}
