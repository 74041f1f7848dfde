//! A hand-rolled, comment- and string-aware Rust lexer.
//!
//! This is *not* a full Rust lexer: it recognizes exactly enough structure
//! for rule matching — identifiers, punctuation, numeric literals (with a
//! float flag), and the complete family of string-ish literals (plain,
//! raw with any number of `#`s, byte, C, and char literals, with escapes)
//! — while guaranteeing that nothing inside a comment or a literal ever
//! reaches a rule. Comments are captured on the side with their line
//! ranges so pragma and `// SAFETY:` handling can reason about them.
//!
//! The lexer operates on raw bytes and must never panic, whatever soup it
//! is fed: unterminated literals and comments simply run to end of input.

/// One lexed token. Literals carry their raw source text (delimiters and
/// prefixes included); the token rules only need "a string was here".
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Tok {
    /// Identifier or keyword (ASCII rules; good enough for this codebase).
    Ident(String),
    /// Numeric literal; `is_float` when it has a fractional part, an
    /// exponent, or an `f32`/`f64` suffix.
    Number { is_float: bool },
    /// Any string/char/byte/C-string literal, raw or not, with its raw
    /// source text.
    Literal(String),
    /// A single punctuation byte (`::` arrives as two `Punct(b':')`).
    Punct(u8),
}

/// A token plus its 1-based source position (line, byte column).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Token {
    pub tok: Tok,
    pub line: u32,
    pub col: u32,
}

/// A comment (line or block, doc or not) with its text and line range.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Comment {
    pub text: String,
    pub line: u32,
    pub end_line: u32,
}

/// The result of lexing one file.
#[derive(Debug, Default)]
pub struct Lexed {
    pub tokens: Vec<Token>,
    pub comments: Vec<Comment>,
}

struct Cursor<'a> {
    src: &'a [u8],
    i: usize,
    line: u32,
    col: u32,
}

impl<'a> Cursor<'a> {
    fn new(src: &'a [u8]) -> Self {
        Cursor { src, i: 0, line: 1, col: 1 }
    }

    fn peek(&self, ahead: usize) -> Option<u8> {
        self.src.get(self.i + ahead).copied()
    }

    fn bump(&mut self) -> Option<u8> {
        let b = self.peek(0)?;
        self.i += 1;
        if b == b'\n' {
            self.line += 1;
            self.col = 1;
        } else {
            self.col += 1;
        }
        Some(b)
    }
}

fn is_ident_start(b: u8) -> bool {
    b.is_ascii_alphabetic() || b == b'_' || b >= 0x80
}

fn is_ident_continue(b: u8) -> bool {
    b.is_ascii_alphanumeric() || b == b'_' || b >= 0x80
}

/// Lex a whole file. Total and panic-free for arbitrary byte input.
pub fn lex(src: &[u8]) -> Lexed {
    let mut c = Cursor::new(src);
    let mut out = Lexed::default();
    while let Some(b) = c.peek(0) {
        let (line, col) = (c.line, c.col);
        match b {
            b' ' | b'\t' | b'\r' | b'\n' => {
                c.bump();
            }
            b'/' if c.peek(1) == Some(b'/') => lex_line_comment(&mut c, &mut out),
            b'/' if c.peek(1) == Some(b'*') => lex_block_comment(&mut c, &mut out),
            b'"' => {
                let start = c.i;
                c.bump();
                skip_quoted(&mut c, b'"');
                let text = String::from_utf8_lossy(&src[start..c.i]).into_owned();
                out.tokens.push(Token { tok: Tok::Literal(text), line, col });
            }
            b'\'' => lex_quote(&mut c, &mut out, line, col),
            b'0'..=b'9' => lex_number(&mut c, &mut out, line, col),
            _ if is_ident_start(b) => lex_ident_or_prefixed_literal(&mut c, &mut out, line, col),
            _ => {
                c.bump();
                out.tokens.push(Token { tok: Tok::Punct(b), line, col });
            }
        }
    }
    out
}

fn lex_line_comment(c: &mut Cursor, out: &mut Lexed) {
    let line = c.line;
    let start = c.i;
    while let Some(b) = c.peek(0) {
        if b == b'\n' {
            break;
        }
        c.bump();
    }
    let text = String::from_utf8_lossy(&c.src[start..c.i]).into_owned();
    out.comments.push(Comment { text, line, end_line: line });
}

fn lex_block_comment(c: &mut Cursor, out: &mut Lexed) {
    let line = c.line;
    let start = c.i;
    c.bump();
    c.bump(); // consume `/*`
    let mut depth = 1u32;
    while depth > 0 {
        match (c.peek(0), c.peek(1)) {
            (Some(b'/'), Some(b'*')) => {
                c.bump();
                c.bump();
                depth += 1;
            }
            (Some(b'*'), Some(b'/')) => {
                c.bump();
                c.bump();
                depth -= 1;
            }
            (Some(_), _) => {
                c.bump();
            }
            (None, _) => break, // unterminated: runs to EOF
        }
    }
    let text = String::from_utf8_lossy(&c.src[start..c.i]).into_owned();
    out.comments.push(Comment { text, line, end_line: c.line });
}

/// Consume a quoted literal body after its opening delimiter, honoring
/// backslash escapes, until the closing delimiter or EOF.
fn skip_quoted(c: &mut Cursor, close: u8) {
    while let Some(b) = c.bump() {
        if b == b'\\' {
            c.bump(); // the escaped byte, whatever it is
        } else if b == close {
            return;
        }
    }
}

/// Consume a raw literal body after `r##...#"`, until `"` followed by
/// `hashes` `#`s, or EOF. No escapes in raw strings.
fn skip_raw(c: &mut Cursor, hashes: usize) {
    while let Some(b) = c.bump() {
        if b == b'"' {
            let mut n = 0;
            while n < hashes && c.peek(n) == Some(b'#') {
                n += 1;
            }
            if n == hashes {
                for _ in 0..hashes {
                    c.bump();
                }
                return;
            }
        }
    }
}

/// `'` starts either a lifetime (`'a`) or a char literal (`'a'`, `'\n'`).
/// Heuristic: `'` + ident-char + non-`'` is a lifetime; anything else is
/// a char literal.
fn lex_quote(c: &mut Cursor, out: &mut Lexed, line: u32, col: u32) {
    let one = c.peek(1);
    let two = c.peek(2);
    let is_lifetime = match (one, two) {
        (Some(n), t) if is_ident_continue(n) && n != b'\\' => t != Some(b'\''),
        _ => false,
    };
    let start = c.i;
    c.bump(); // the `'`
    if is_lifetime {
        // Emit the quote as punctuation; the label lexes as a normal ident.
        out.tokens.push(Token { tok: Tok::Punct(b'\''), line, col });
    } else {
        skip_quoted(c, b'\'');
        let text = String::from_utf8_lossy(&c.src[start..c.i]).into_owned();
        out.tokens.push(Token { tok: Tok::Literal(text), line, col });
    }
}

fn lex_number(c: &mut Cursor, out: &mut Lexed, line: u32, col: u32) {
    let mut is_float = false;
    if c.peek(0) == Some(b'0') && matches!(c.peek(1), Some(b'x' | b'X' | b'o' | b'O' | b'b' | b'B'))
    {
        c.bump();
        c.bump();
        while matches!(c.peek(0), Some(b) if b.is_ascii_alphanumeric() || b == b'_') {
            c.bump();
        }
        out.tokens.push(Token { tok: Tok::Number { is_float: false }, line, col });
        return;
    }
    while matches!(c.peek(0), Some(b) if b.is_ascii_digit() || b == b'_') {
        c.bump();
    }
    // Fractional part — but `1..n` is a range and `1.max(2)` a method call.
    if c.peek(0) == Some(b'.') && matches!(c.peek(1), Some(b) if b.is_ascii_digit()) {
        is_float = true;
        c.bump();
        while matches!(c.peek(0), Some(b) if b.is_ascii_digit() || b == b'_') {
            c.bump();
        }
    } else if c.peek(0) == Some(b'.')
        && !matches!(c.peek(1), Some(b) if is_ident_continue(b) || b == b'.')
    {
        // Trailing-dot float like `1.` (not `1..` or `1.method()`).
        is_float = true;
        c.bump();
    }
    // Exponent.
    if matches!(c.peek(0), Some(b'e' | b'E')) {
        let (sign, digit) = (c.peek(1), c.peek(2));
        let has_exp = match sign {
            Some(b'+' | b'-') => matches!(digit, Some(d) if d.is_ascii_digit()),
            Some(d) => d.is_ascii_digit(),
            None => false,
        };
        if has_exp {
            is_float = true;
            c.bump(); // e
            if matches!(c.peek(0), Some(b'+' | b'-')) {
                c.bump();
            }
            while matches!(c.peek(0), Some(b) if b.is_ascii_digit() || b == b'_') {
                c.bump();
            }
        }
    }
    // Suffix (`u32`, `f64`, `_f32`…) rides along with the number token.
    let suffix_start = c.i;
    while matches!(c.peek(0), Some(b) if is_ident_continue(b)) {
        c.bump();
    }
    let suffix = &c.src[suffix_start..c.i];
    if suffix.ends_with(b"f32") || suffix.ends_with(b"f64") {
        is_float = true;
    }
    out.tokens.push(Token { tok: Tok::Number { is_float }, line, col });
}

/// An identifier — unless it is one of the literal prefixes (`r`, `b`,
/// `br`, `rb`, `c`, `cr`) immediately followed by a quote or raw-string
/// hashes, or a raw identifier `r#ident`.
fn lex_ident_or_prefixed_literal(c: &mut Cursor, out: &mut Lexed, line: u32, col: u32) {
    let start = c.i;
    while matches!(c.peek(0), Some(b) if is_ident_continue(b)) {
        c.bump();
    }
    let ident = &c.src[start..c.i];
    let is_prefix = matches!(ident, b"r" | b"b" | b"br" | b"rb" | b"c" | b"cr");
    if is_prefix {
        match c.peek(0) {
            // `b"..."`, `c"..."` — plain quoted with escapes. (`r"` has no
            // escapes, but treating `\` as an escape inside it can only
            // mis-see `\"` — a sequence that cannot occur in valid raw
            // strings anyway.)
            Some(b'"') => {
                c.bump();
                if ident.contains(&b'r') {
                    skip_raw(c, 0);
                } else {
                    skip_quoted(c, b'"');
                }
                let text = String::from_utf8_lossy(&c.src[start..c.i]).into_owned();
                out.tokens.push(Token { tok: Tok::Literal(text), line, col });
                return;
            }
            // `b'x'` byte char.
            Some(b'\'') if ident == b"b" => {
                c.bump();
                skip_quoted(c, b'\'');
                let text = String::from_utf8_lossy(&c.src[start..c.i]).into_owned();
                out.tokens.push(Token { tok: Tok::Literal(text), line, col });
                return;
            }
            Some(b'#') => {
                // Count hashes; `r#"`-style means raw string, `r#ident`
                // means raw identifier.
                let mut n = 0;
                while c.peek(n) == Some(b'#') {
                    n += 1;
                }
                match c.peek(n) {
                    Some(b'"') if ident.contains(&b'r') => {
                        for _ in 0..=n {
                            c.bump(); // hashes + opening quote
                        }
                        skip_raw(c, n);
                        let text = String::from_utf8_lossy(&c.src[start..c.i]).into_owned();
                        out.tokens.push(Token { tok: Tok::Literal(text), line, col });
                        return;
                    }
                    Some(bb) if n == 1 && ident == b"r" && is_ident_start(bb) => {
                        c.bump(); // the `#`
                        let id_start = c.i;
                        while matches!(c.peek(0), Some(b) if is_ident_continue(b)) {
                            c.bump();
                        }
                        let text = String::from_utf8_lossy(&c.src[id_start..c.i]).into_owned();
                        out.tokens.push(Token { tok: Tok::Ident(text), line, col });
                        return;
                    }
                    _ => {} // fall through: plain ident then `#` punctuation
                }
            }
            _ => {}
        }
    }
    let text = String::from_utf8_lossy(ident).into_owned();
    out.tokens.push(Token { tok: Tok::Ident(text), line, col });
}

#[cfg(test)]
mod tests {
    use super::*;

    fn idents(src: &str) -> Vec<String> {
        lex(src.as_bytes())
            .tokens
            .into_iter()
            .filter_map(|t| match t.tok {
                Tok::Ident(s) => Some(s),
                _ => None,
            })
            .collect()
    }

    #[test]
    fn strings_and_comments_hide_identifiers() {
        let src = r##"
            let x = "HashMap in a string";
            // HashMap in a line comment
            /* HashMap in a /* nested */ block comment */
            let y = r#"HashMap in a raw string"#;
            let z = b"HashMap bytes";
            real_ident();
        "##;
        let ids = idents(src);
        assert!(!ids.iter().any(|i| i == "HashMap"), "{ids:?}");
        assert!(ids.iter().any(|i| i == "real_ident"));
    }

    #[test]
    fn comments_are_captured_with_line_ranges() {
        let src = "// one\nlet a = 1;\n/* two\nspans */ let b = 2;\n";
        let lexed = lex(src.as_bytes());
        assert_eq!(lexed.comments.len(), 2);
        assert_eq!((lexed.comments[0].line, lexed.comments[0].end_line), (1, 1));
        assert_eq!((lexed.comments[1].line, lexed.comments[1].end_line), (3, 4));
        assert!(lexed.comments[1].text.contains("spans"));
    }

    #[test]
    fn lifetimes_are_not_char_literals() {
        let src = "fn f<'a>(x: &'a str) -> &'a str { let c = 'x'; let nl = '\\n'; x }";
        let ids = idents(src);
        // The lifetime labels lex as idents, and the char literals do not
        // swallow the rest of the line.
        assert!(ids.iter().filter(|i| *i == "a").count() >= 3, "{ids:?}");
        assert!(ids.iter().any(|i| i == "x"));
    }

    #[test]
    fn raw_identifiers_and_raw_strings_disambiguate() {
        let src = "let r#fn = 1; let s = r\"txt\"; let t = r##\"with \"# inside\"##; end();";
        let ids = idents(src);
        assert!(ids.iter().any(|i| i == "fn"), "{ids:?}");
        assert!(ids.iter().any(|i| i == "end"), "{ids:?}");
        assert!(!ids.iter().any(|i| i == "txt" || i == "with" || i == "inside"), "{ids:?}");
    }

    #[test]
    fn numbers_track_floatness() {
        let floats = |src: &str| -> Vec<bool> {
            lex(src.as_bytes())
                .tokens
                .into_iter()
                .filter_map(|t| match t.tok {
                    Tok::Number { is_float } => Some(is_float),
                    _ => None,
                })
                .collect()
        };
        assert_eq!(floats("0.0 1e-5 2f64 3."), vec![true, true, true, true]);
        assert_eq!(floats("0 1u32 0xff 10_000"), vec![false, false, false, false]);
        // `1..n` is a range over integers, `1.max(2)` a method call.
        assert_eq!(floats("for i in 1..n {} 1.max(2)"), vec![false, false, false]);
    }

    #[test]
    fn positions_are_one_based_and_accurate() {
        let lexed = lex(b"ab\n  cd");
        assert_eq!(lexed.tokens[0].line, 1);
        assert_eq!(lexed.tokens[0].col, 1);
        assert_eq!(lexed.tokens[1].line, 2);
        assert_eq!(lexed.tokens[1].col, 3);
    }

    #[test]
    fn literals_carry_their_raw_text() {
        let lits = |src: &str| -> Vec<String> {
            lex(src.as_bytes())
                .tokens
                .into_iter()
                .filter_map(|t| match t.tok {
                    Tok::Literal(s) => Some(s),
                    _ => None,
                })
                .collect()
        };
        assert_eq!(lits(r#"f("{config:?}|{errors:?}")"#), vec!["\"{config:?}|{errors:?}\""]);
        assert_eq!(lits("let k = \"kind\"; let c = 'x';"), vec!["\"kind\"", "'x'"]);
        assert!(lits("let s = r#\"raw text\"#;")[0].contains("raw text"));
    }

    #[test]
    fn unterminated_literals_run_to_eof_without_panicking() {
        for src in ["\"unterminated", "r#\"unterminated", "/* unterminated", "'\\", "b\"oops"] {
            let _ = lex(src.as_bytes());
        }
    }
}
