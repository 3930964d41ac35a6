//! Property-based tests for the lexer and the rule engine.
//!
//! The lexer's two contracts are *totality* (no input panics it — the
//! linter must survive every file in the tree, including half-written
//! ones) and *tiling* (tokens are contiguous and exhaustive: offsets
//! start at 0, each token begins where the previous one ended, and the
//! last token ends at `src.len()`). Every rule reads `Token::text`
//! slices, so a tiling bug would silently skip or double-count source
//! bytes — the fuzz pins it down harder than the unit tests can.

use crate::lexer::{lex, TokenKind};
use crate::rules::{lint_file, rule_exists};
use proptest::prelude::*;

/// Syntax fragments chosen to collide interestingly when concatenated:
/// every delimiter that changes lexing mode, halves of multi-char
/// tokens, and the literal forms the lexer special-cases.
const FRAGMENTS: &[&str] = &[
    "fn main() { ",
    "}",
    "\"",
    "\\\"",
    "\"str\"",
    "r#\"",
    "\"#",
    "r##\"raw\"##",
    "b\"bytes\"",
    "br#\"raw bytes\"#",
    "r#ident",
    "'a",
    "'a'",
    "'\\n'",
    "b'x'",
    "// line comment\n",
    "/*",
    "*/",
    "/* nested /* deep */ */",
    "//! doc\n",
    "/// doc\n",
    "0x1f",
    "1_000.5e-3",
    "2.",
    "0..10",
    "x.unwrap()",
    "HashMap::new()",
    "println!(\"{:.3}\")",
    // suu-lint: allow(schema-literal, "lexer fuzz fragment exercising the schema-id scanner; never emitted as protocol bytes")
    "suu-results/v2",
    "\n",
    " ",
    "\t",
    "let x = ",
    "#[cfg(test)]",
    "mod tests {",
    "é",
    "→",
    "\u{0}",
];

/// Characters for the unstructured soup: mode-switching bytes at high
/// density, so truncated literals and stray fences are common.
const PALETTE: &[char] = &[
    '"', '\'', '#', 'r', 'b', '/', '*', '\\', '\n', ' ', 'a', '0', '.', '{', '}', '(', ')', ':',
    '!', '_', 'é', '→',
];

/// Tokens tile `src`: contiguous, exhaustive, with sane line numbers.
fn assert_tiling(src: &str) {
    let tokens = lex(src);
    if src.is_empty() {
        prop_assert!(tokens.is_empty());
        return;
    }
    prop_assert_eq!(tokens[0].start, 0, "first token must start at 0");
    for pair in tokens.windows(2) {
        prop_assert_eq!(
            pair[0].end,
            pair[1].start,
            "gap or overlap between tokens in {:?}",
            src
        );
    }
    let last = tokens.last().unwrap();
    prop_assert_eq!(last.end, src.len(), "tokens must cover {:?}", src);
    let mut expected_line = 1u32;
    for t in &tokens {
        prop_assert!(t.start <= t.end);
        // Offsets always land on char boundaries, so text() never panics.
        prop_assert!(src.is_char_boundary(t.start) && src.is_char_boundary(t.end));
        prop_assert_eq!(
            t.line,
            expected_line,
            "token at {} in {:?} reports the wrong line",
            t.start,
            src
        );
        expected_line += t.text(src).matches('\n').count() as u32;
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Concatenated syntax fragments — raw-string fences meeting quotes,
    /// comment openers meeting closers — always lex into a clean tiling.
    #[test]
    fn fragment_soup_lexes_totally(
        picks in proptest::collection::vec(0usize..FRAGMENTS.len(), 0..40)
    ) {
        let src: String = picks.iter().map(|&i| FRAGMENTS[i]).collect();
        assert_tiling(&src);
    }

    /// Unstructured character soup (dense in quotes, fences and escapes)
    /// never panics the lexer and always tiles, even when every literal
    /// is unterminated.
    #[test]
    fn char_soup_lexes_totally(
        picks in proptest::collection::vec(0usize..PALETTE.len(), 0..80)
    ) {
        let src: String = picks.iter().map(|&i| PALETTE[i]).collect();
        assert_tiling(&src);
    }

    /// Anything the lexer labels Str/RawStr/Char keeps its quote (or
    /// fence) prefix — rules rely on kind to skip literal content, so a
    /// mislabeled token would let `println!` inside a string fire rules.
    #[test]
    fn string_tokens_start_with_their_delimiters(
        picks in proptest::collection::vec(0usize..FRAGMENTS.len(), 0..30)
    ) {
        let src: String = picks.iter().map(|&i| FRAGMENTS[i]).collect();
        for t in lex(&src) {
            let text = t.text(&src);
            match t.kind {
                TokenKind::Str => prop_assert!(
                    text.trim_start_matches('b').starts_with('"'),
                    "Str token {:?}",
                    text
                ),
                TokenKind::RawStr => prop_assert!(
                    text.starts_with('r') || text.starts_with("br"),
                    "RawStr token {:?}",
                    text
                ),
                TokenKind::Char => prop_assert!(
                    text.trim_start_matches('b').starts_with('\''),
                    "Char token {:?}",
                    text
                ),
                _ => {}
            }
        }
    }

    /// The rule engine is total over arbitrary sources for every file
    /// class (serve, key-math, schema-listed, test), and any finding it
    /// reports points at a real line of the input and names a real rule.
    #[test]
    fn rule_engine_is_total_over_soup(
        picks in proptest::collection::vec(0usize..FRAGMENTS.len(), 0..30),
        which in 0usize..4
    ) {
        let src: String = picks.iter().map(|&i| FRAGMENTS[i]).collect();
        let path = [
            "crates/serve/src/router.rs",
            "crates/serve/src/bin/sweep.rs",
            "crates/bench/src/report.rs",
            "crates/core/tests/anything.rs",
        ][which];
        let lines = src.lines().count().max(1) as u32;
        for finding in lint_file(path, &src) {
            prop_assert!(
                finding.line >= 1 && finding.line <= lines,
                "finding line {} out of range 1..={} for {:?}",
                finding.line,
                lines,
                src
            );
            prop_assert!(rule_exists(finding.rule));
        }
    }
}
