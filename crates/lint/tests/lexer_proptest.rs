//! The lexer, the item parser, and the full lint pipeline must be total:
//! arbitrary byte soup (including invalid UTF-8, unterminated literals, and
//! stray quotes) must never panic, and token/item positions must stay in
//! bounds.

use comet_lint::config::Allowlist;
use comet_lint::lexer::lex;
use comet_lint::parse::parse;
use comet_lint::rules::{scan_file, FileContext, ScannedFile, Scope};

fn soup_scope() -> Scope {
    Scope::of(["ml", "core"])
}

proptest::proptest! {
    #![proptest_config(proptest::ProptestConfig::with_cases(256))]

    #[test]
    fn lexer_never_panics_on_arbitrary_bytes(bytes in proptest::prop::collection::vec(0u8..=255u8, 0..512)) {
        let lexed = lex(&bytes);
        let nlines = bytes.iter().filter(|&&b| b == b'\n').count() as u32 + 1;
        for t in &lexed.tokens {
            proptest::prop_assert!(t.line >= 1 && t.line <= nlines, "token line {} of {nlines}", t.line);
            proptest::prop_assert!(t.col >= 1);
        }
        for c in &lexed.comments {
            proptest::prop_assert!(c.line >= 1 && c.end_line <= nlines);
        }
    }

    #[test]
    fn parser_never_panics_on_arbitrary_bytes(bytes in proptest::prop::collection::vec(0u8..=255u8, 0..512)) {
        let lexed = lex(&bytes);
        let parsed = parse(&lexed, &|_| false);
        for item in &parsed.items {
            proptest::prop_assert!(item.line >= 1);
            if let comet_lint::parse::ItemKind::Fn { body: Some((open, close)), .. } = &item.kind {
                proptest::prop_assert!(open <= close);
                proptest::prop_assert!(*close < lexed.tokens.len());
            }
        }
    }

    #[test]
    fn scan_never_panics_on_arbitrary_bytes(bytes in proptest::prop::collection::vec(0u8..=255u8, 0..512)) {
        let ctx = FileContext {
            path: "crates/ml/src/soup.rs".to_string(),
            crate_name: "ml".to_string(),
        };
        let findings = scan_file(&ctx, &bytes, &soup_scope());
        for f in &findings {
            proptest::prop_assert!(f.line >= 1);
        }
    }

    #[test]
    fn full_pipeline_never_panics_on_arbitrary_bytes(bytes in proptest::prop::collection::vec(0u8..=255u8, 0..512)) {
        // Mount the soup in a trace-writing root crate so the D8 graph
        // analysis runs on it too.
        let ctx = FileContext {
            path: "crates/core/src/checkpoint.rs".to_string(),
            crate_name: "core".to_string(),
        };
        let file = ScannedFile::new(ctx, &bytes);
        let report = comet_lint::lint_files(&[file], &Allowlist::default());
        let _ = comet_lint::render_json(&report);
    }

    #[test]
    fn lexer_never_panics_on_quote_heavy_soup(
        bytes in proptest::prop::collection::vec(0u8..=8u8, 0..256),
    ) {
        // Map a narrow byte range onto the trickiest characters so raw
        // strings, chars, lifetimes and comments collide constantly.
        let tricky: &[u8] = b"\"'r#b/*\n\\";
        let src: Vec<u8> = bytes.iter().map(|&b| tricky[b as usize % tricky.len()]).collect();
        let _ = lex(&src);
    }
}
