//! A lightweight item parser layered on the byte [`crate::lexer`].
//!
//! This is *not* a Rust grammar: it recovers exactly the structure the
//! dataflow rules need — the names of `struct` items (D8's trace-writing
//! roots), the body token range of each `fn` item, methods included (D9's
//! flow check), and the set of workspace crates a file references via
//! `use` declarations or fully-qualified paths (D8's use graph).
//! Everything else is skipped without error; like the lexer, parsing is
//! total and panic-free on arbitrary byte soup.

use crate::lexer::{Lexed, Tok, Token};
use std::collections::BTreeSet;

/// The shapes the parser recovers.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ItemKind {
    /// A `fn` item with the token-index range of its `{ .. }` body, when
    /// it has one.
    Fn { body: Option<(usize, usize)> },
    /// A `struct` item.
    Struct,
}

/// One recovered item.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Item {
    pub name: String,
    pub line: u32,
    pub kind: ItemKind,
}

/// The result of parsing one file.
#[derive(Debug, Default)]
pub struct Parsed {
    pub items: Vec<Item>,
    /// Workspace crate directory names this file references outside test
    /// regions: `comet_frame` → `frame`, plus the vendored shims (`rand`,
    /// `proptest`) when used as a path or `use` target.
    pub crate_refs: BTreeSet<String>,
}

/// Crates vendored under `crates/` whose package name *is* the directory
/// name (no `comet_` prefix).
pub const VENDORED: [&str; 2] = ["rand", "proptest"];

pub(crate) fn is_punct(ts: &[Token], k: usize, b: u8) -> bool {
    matches!(ts.get(k), Some(t) if t.tok == Tok::Punct(b))
}

pub(crate) fn ident_at(ts: &[Token], k: usize) -> Option<&str> {
    match ts.get(k) {
        Some(Token { tok: Tok::Ident(s), .. }) => Some(s.as_str()),
        _ => None,
    }
}

pub(crate) fn is_float_at(ts: &[Token], k: usize) -> bool {
    matches!(ts.get(k), Some(Token { tok: Tok::Number { is_float: true }, .. }))
}

/// Find the index of the token closing the bracket opened at `open`.
pub(crate) fn matching(ts: &[Token], open: usize, ob: u8, cb: u8) -> Option<usize> {
    let mut depth = 0usize;
    for (k, t) in ts.iter().enumerate().skip(open) {
        if t.tok == Tok::Punct(ob) {
            depth += 1;
        } else if t.tok == Tok::Punct(cb) {
            depth = depth.saturating_sub(1);
            if depth == 0 {
                return Some(k);
            }
        }
    }
    None
}

/// Parse the token stream of one file. `in_test` reports whether a token
/// index sits inside a test region — crate references found there do not
/// count as taint edges (dev-only dependencies are not trace-affecting).
/// `impl` blocks need no special handling: the walk steps through them
/// token by token and finds their methods like free fns.
pub fn parse(lexed: &Lexed, in_test: &dyn Fn(usize) -> bool) -> Parsed {
    let ts = &lexed.tokens;
    let mut out = Parsed::default();
    let mut k = 0;
    while k < ts.len() {
        collect_crate_ref(ts, k, in_test, &mut out.crate_refs);
        let (Some(keyword @ ("fn" | "struct")), Some(name)) =
            (ident_at(ts, k), ident_at(ts, k + 1))
        else {
            k += 1; // includes `fn(u8)` pointer types, which are not items
            continue;
        };
        let (name, line) = (name.to_string(), ts[k].line);
        if keyword == "struct" {
            out.items.push(Item { name, line, kind: ItemKind::Struct });
            k += 2;
            continue;
        }
        let body = fn_body(ts, k + 2);
        out.items.push(Item { name, line, kind: ItemKind::Fn { body } });
        // Skip the body: nested closures/items are not needed, and the
        // crate-ref walk still visits every token.
        let Some((_, close)) = body else {
            k += 2;
            continue;
        };
        for j in k + 1..=close.min(ts.len().saturating_sub(1)) {
            collect_crate_ref(ts, j, in_test, &mut out.crate_refs);
        }
        k = close + 1;
    }
    out
}

fn collect_crate_ref(
    ts: &[Token],
    k: usize,
    in_test: &dyn Fn(usize) -> bool,
    refs: &mut BTreeSet<String>,
) {
    let Some(id) = ident_at(ts, k) else { return };
    if in_test(k) {
        return;
    }
    if let Some(suffix) = id.strip_prefix("comet_") {
        if !suffix.is_empty() {
            refs.insert(suffix.to_string());
        }
        return;
    }
    if VENDORED.contains(&id) {
        // Count only path/`use` positions so a local named `rand` (or the
        // word in an ident like `rand_state`) cannot create a taint edge.
        let is_path = is_punct(ts, k + 1, b':') && is_punct(ts, k + 2, b':');
        let is_use = ident_at(ts, k.wrapping_sub(1)) == Some("use");
        if is_path || is_use {
            refs.insert(id.to_string());
        }
    }
}

/// Find a fn body's `{ .. }` token range, starting at the token after
/// the fn name: skip to the parameter list, past it, then past any `->
/// Type` and `where` clauses. A `;` first means a body-less declaration.
fn fn_body(ts: &[Token], mut k: usize) -> Option<(usize, usize)> {
    // Skip `fn name<...>` generics between the name and `(`.
    while k < ts.len() && !is_punct(ts, k, b'(') && !is_punct(ts, k, b'{') && !is_punct(ts, k, b';')
    {
        k += 1;
    }
    if is_punct(ts, k, b'(') {
        k = matching(ts, k, b'(', b')')? + 1;
    }
    while k < ts.len() {
        match ts[k].tok {
            Tok::Punct(b'{') => {
                let close = matching(ts, k, b'{', b'}')?;
                return Some((k, close));
            }
            Tok::Punct(b';') => return None,
            _ => k += 1,
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;

    fn parsed(src: &str) -> Parsed {
        parse(&lex(src.as_bytes()), &|_| false)
    }

    #[test]
    fn structs_are_recovered_by_name() {
        let src = "pub struct Config {\n    pub step: f64,\n    pub f: fn(u8),\n}";
        let p = parsed(src);
        assert_eq!(p.items, [Item { name: "Config".into(), line: 1, kind: ItemKind::Struct }]);
        let p = parsed("struct A(u8, u8); struct B; struct C { x: u8 }");
        let names: Vec<&str> = p.items.iter().map(|i| i.name.as_str()).collect();
        assert_eq!(names, ["A", "B", "C"]);
        assert!(p.items.iter().all(|i| i.kind == ItemKind::Struct));
    }

    #[test]
    fn fns_and_methods_capture_their_bodies() {
        let src = "impl Writer {\n    pub fn create(path: &Path, seed: u64) -> Result<Self, E> {\n        body();\n    }\n}\nfn free(x: f64) {}\ntrait T { fn decl(&self); }";
        let p = parsed(src);
        let body = |name: &str| match &p.items.iter().find(|i| i.name == name).expect(name).kind {
            ItemKind::Fn { body } => *body,
            ItemKind::Struct => panic!("{name} is not a fn"),
        };
        let (open, close) = body("create").expect("create has a body");
        assert!(open < close);
        assert!(body("free").is_some());
        assert_eq!(body("decl"), None, "a declaration has no body");
        // Methods of `impl Trait for Type` blocks are found too.
        let src = "impl<R: RngCore> Iterator for Counting<'_, R> { fn next(&mut self) -> Option<u8> { None } }";
        assert!(parsed(src).items.iter().any(|i| i.name == "next"));
    }

    #[test]
    fn crate_refs_see_use_and_paths_but_not_tests() {
        let src =
            "use comet_frame::Frame;\nfn f() { comet_par::run(); let r = rand::thread_rng; }\n";
        let p = parsed(src);
        assert!(p.crate_refs.contains("frame"));
        assert!(p.crate_refs.contains("par"));
        assert!(p.crate_refs.contains("rand"));
        // Same source, everything marked test: no refs.
        let none = parse(&lex(src.as_bytes()), &|_| true);
        assert!(none.crate_refs.is_empty());
    }

    #[test]
    fn a_local_named_rand_is_not_a_crate_ref() {
        let p = parsed("fn f() { let rand = 3; let rand_state = rand + 1; }");
        assert!(p.crate_refs.is_empty());
    }

    #[test]
    fn parser_survives_malformed_input() {
        for src in [
            "struct",
            "struct {",
            "fn",
            "fn (",
            "impl",
            "impl {",
            "struct X {",
            "fn f(x:",
            "impl X { fn",
            "struct X { y: }",
        ] {
            let _ = parsed(src);
        }
    }
}
