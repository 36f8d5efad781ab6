//! A small hand-rolled Rust lexer — just enough syntax awareness to feed
//! the item parser and the call-graph analyses without dragging in `syn`
//! or `proc-macro2`.
//!
//! The lexer understands the token shapes that would otherwise cause false
//! positives in a grep-based checker: string literals (plain, raw, byte),
//! char literals vs. lifetimes, nested block comments, numeric literals
//! (with exponents, suffixes, and tuple-field access like `x.0.1`), and
//! compound operators (`==`, `::`, `..=`, …). Every token and comment
//! carries a 1-based line/column so diagnostics can point at the exact
//! source location.

/// Token classes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TokKind {
    /// Identifier or keyword (the analyses match on the text).
    Ident,
    /// Numeric literal of any form (`2`, `0x1f`, `1.0`, `1e-3`, `2f64`, …).
    Num,
    /// String literal of any flavour (plain, raw, byte).
    Str,
    /// Char or byte-char literal.
    Char,
    /// Lifetime (`'a`, `'_`, `'static`).
    Lifetime,
    /// Punctuation; compound operators are a single token (`==`, `::`).
    Punct,
}

/// One lexed token with its source position (1-based line and column).
#[derive(Debug, Clone)]
pub struct Tok {
    /// Token class.
    pub kind: TokKind,
    /// Ident/punct text, or literal contents for strings and chars.
    pub text: String,
    /// 1-based source line.
    pub line: u32,
    /// 1-based source column.
    pub col: u32,
}

/// One comment (line or block, doc or plain). `line_end` is the last
/// source line the comment covers, so multi-line block comments can be
/// treated as covering a contiguous range.
#[derive(Debug, Clone)]
pub struct Comment {
    /// Comment text including its delimiters.
    pub text: String,
    /// 1-based line the comment starts on.
    pub line: u32,
    /// 1-based last line the comment covers.
    pub line_end: u32,
    /// 1-based column the comment starts at.
    pub col: u32,
}

/// Lexer output: code tokens and comments, both in source order.
#[derive(Debug, Default)]
pub struct Lexed {
    /// Code tokens in source order.
    pub toks: Vec<Tok>,
    /// Comments in source order.
    pub comments: Vec<Comment>,
}

/// Compound operators, longest first so maximal munch works.
const COMPOUND_OPS: &[&str] = &[
    "..=", "<<=", ">>=", "::", "->", "=>", "==", "!=", "<=", ">=", "&&", "||", "..", "<<", ">>",
    "+=", "-=", "*=", "/=", "%=", "^=", "&=", "|=",
];

struct Cursor {
    chars: Vec<char>,
    pos: usize,
    line: u32,
    col: u32,
}

impl Cursor {
    fn peek(&self, ahead: usize) -> Option<char> {
        self.chars.get(self.pos + ahead).copied()
    }

    fn bump(&mut self) -> Option<char> {
        let c = self.chars.get(self.pos).copied()?;
        self.pos += 1;
        if c == '\n' {
            self.line += 1;
            self.col = 1;
        } else {
            self.col += 1;
        }
        Some(c)
    }
}

fn is_ident_start(c: char) -> bool {
    c == '_' || c.is_alphabetic()
}

fn is_ident_continue(c: char) -> bool {
    c == '_' || c.is_alphanumeric()
}

/// Lexes `source`, returning tokens and comments. The lexer is lossy but
/// never panics: malformed input degrades to single-char punct tokens.
pub fn lex(source: &str) -> Lexed {
    let mut cur = Cursor {
        chars: source.chars().collect(),
        pos: 0,
        line: 1,
        col: 1,
    };
    let mut out = Lexed::default();
    while let Some(c) = cur.peek(0) {
        let (line, col) = (cur.line, cur.col);
        if c.is_whitespace() {
            cur.bump();
            continue;
        }
        // Comments.
        if c == '/' && cur.peek(1) == Some('/') {
            let mut text = String::new();
            while let Some(ch) = cur.peek(0) {
                if ch == '\n' {
                    break;
                }
                text.push(ch);
                cur.bump();
            }
            out.comments.push(Comment {
                text,
                line,
                line_end: line,
                col,
            });
            continue;
        }
        if c == '/' && cur.peek(1) == Some('*') {
            let mut text = String::new();
            let mut depth = 0usize;
            while let Some(ch) = cur.peek(0) {
                if ch == '/' && cur.peek(1) == Some('*') {
                    depth += 1;
                    text.push_str("/*");
                    cur.bump();
                    cur.bump();
                } else if ch == '*' && cur.peek(1) == Some('/') {
                    depth -= 1;
                    text.push_str("*/");
                    cur.bump();
                    cur.bump();
                    if depth == 0 {
                        break;
                    }
                } else {
                    text.push(ch);
                    cur.bump();
                }
            }
            out.comments.push(Comment {
                text,
                line,
                line_end: cur.line,
                col,
            });
            continue;
        }
        // Raw strings / raw identifiers / byte strings: r"", r#""#, br"", b"", b''.
        if (c == 'r' || c == 'b') && matches!(cur.peek(1), Some('"') | Some('#') | Some('\''))
            || (c == 'b' && cur.peek(1) == Some('r'))
        {
            if let Some(tok) = lex_prefixed_literal(&mut cur, line, col) {
                out.toks.push(tok);
                continue;
            }
            // `r#ident` fell through as a raw identifier, already pushed.
        }
        if is_ident_start(c) {
            let mut text = String::new();
            while let Some(ch) = cur.peek(0) {
                if !is_ident_continue(ch) {
                    break;
                }
                text.push(ch);
                cur.bump();
            }
            out.toks.push(Tok {
                kind: TokKind::Ident,
                text,
                line,
                col,
            });
            continue;
        }
        if c.is_ascii_digit() {
            let tok = lex_number(&mut cur, &out.toks, line, col);
            out.toks.push(tok);
            continue;
        }
        if c == '"' {
            let text = lex_plain_string(&mut cur);
            out.toks.push(Tok {
                kind: TokKind::Str,
                text,
                line,
                col,
            });
            continue;
        }
        if c == '\'' {
            let tok = lex_quote(&mut cur, line, col);
            out.toks.push(tok);
            continue;
        }
        // Punctuation: maximal munch over the compound-operator table.
        let mut matched = None;
        for op in COMPOUND_OPS {
            let n = op.chars().count();
            if (0..n).all(|i| cur.peek(i) == op.chars().nth(i)) {
                matched = Some(*op);
                break;
            }
        }
        if let Some(op) = matched {
            for _ in 0..op.chars().count() {
                cur.bump();
            }
            out.toks.push(Tok {
                kind: TokKind::Punct,
                text: op.to_string(),
                line,
                col,
            });
        } else {
            cur.bump();
            out.toks.push(Tok {
                kind: TokKind::Punct,
                text: c.to_string(),
                line,
                col,
            });
        }
    }
    out
}

/// Lexes `r"…"`, `r#"…"#`, `b"…"`, `br#"…"#`, `b'…'`, or a raw identifier
/// `r#ident`. Returns `None` only when the prefix turns out not to start a
/// literal (never happens for the callers' guards, kept defensive).
fn lex_prefixed_literal(cur: &mut Cursor, line: u32, col: u32) -> Option<Tok> {
    let first = cur.peek(0)?;
    let mut idx = 1;
    if first == 'b' && cur.peek(1) == Some('r') {
        idx = 2;
    }
    // Count hashes after the prefix.
    let mut hashes = 0usize;
    while cur.peek(idx + hashes) == Some('#') {
        hashes += 1;
    }
    match cur.peek(idx + hashes) {
        Some('"') => {
            // Raw or plain (byte) string: consume prefix, hashes, and body
            // until `"` followed by `hashes` hashes.
            for _ in 0..(idx + hashes + 1) {
                cur.bump();
            }
            let mut text = String::new();
            while let Some(ch) = cur.peek(0) {
                if ch == '"' && (1..=hashes).all(|i| cur.peek(i) == Some('#')) {
                    for _ in 0..(hashes + 1) {
                        cur.bump();
                    }
                    break;
                }
                // Plain (non-raw) byte string honours escapes.
                if hashes == 0 && first == 'b' && idx == 1 && ch == '\\' {
                    cur.bump();
                }
                text.push(ch);
                cur.bump();
            }
            Some(Tok {
                kind: TokKind::Str,
                text,
                line,
                col,
            })
        }
        Some('\'') if first == 'b' && idx == 1 && hashes == 0 => {
            cur.bump(); // b
            let t = lex_quote(cur, line, col);
            Some(Tok {
                kind: TokKind::Char,
                text: t.text,
                line,
                col,
            })
        }
        Some(ch) if first == 'r' && hashes == 1 && is_ident_start(ch) => {
            // Raw identifier `r#match`.
            cur.bump(); // r
            cur.bump(); // #
            let mut text = String::new();
            while let Some(c2) = cur.peek(0) {
                if !is_ident_continue(c2) {
                    break;
                }
                text.push(c2);
                cur.bump();
            }
            Some(Tok {
                kind: TokKind::Ident,
                text,
                line,
                col,
            })
        }
        _ => {
            // Not a literal after all (e.g. plain ident starting with r/b);
            // let the ident path handle it.
            let mut text = String::new();
            while let Some(c2) = cur.peek(0) {
                if !is_ident_continue(c2) {
                    break;
                }
                text.push(c2);
                cur.bump();
            }
            Some(Tok {
                kind: TokKind::Ident,
                text,
                line,
                col,
            })
        }
    }
}

fn lex_plain_string(cur: &mut Cursor) -> String {
    cur.bump(); // opening quote
    let mut text = String::new();
    while let Some(ch) = cur.peek(0) {
        if ch == '\\' {
            cur.bump();
            if let Some(esc) = cur.bump() {
                text.push(esc);
            }
            continue;
        }
        if ch == '"' {
            cur.bump();
            break;
        }
        text.push(ch);
        cur.bump();
    }
    text
}

/// Disambiguates `'a'` (char) from `'a` (lifetime) at a `'`.
fn lex_quote(cur: &mut Cursor, line: u32, col: u32) -> Tok {
    cur.bump(); // opening quote
    let next = cur.peek(0);
    let after = cur.peek(1);
    let is_lifetime = match next {
        Some(c) if is_ident_start(c) => after != Some('\''),
        _ => false,
    };
    if is_lifetime {
        let mut text = String::new();
        while let Some(ch) = cur.peek(0) {
            if !is_ident_continue(ch) {
                break;
            }
            text.push(ch);
            cur.bump();
        }
        return Tok {
            kind: TokKind::Lifetime,
            text,
            line,
            col,
        };
    }
    // Char literal: consume until the closing quote, honouring escapes.
    let mut text = String::new();
    while let Some(ch) = cur.peek(0) {
        if ch == '\\' {
            cur.bump();
            if let Some(esc) = cur.bump() {
                text.push(esc);
            }
            continue;
        }
        if ch == '\'' {
            cur.bump();
            break;
        }
        text.push(ch);
        cur.bump();
    }
    Tok {
        kind: TokKind::Char,
        text,
        line,
        col,
    }
}

/// Lexes a numeric literal. `prev` is consulted so `x.0.1` stays a chain
/// of integer field accesses instead of becoming the float `0.1`.
fn lex_number(cur: &mut Cursor, prev: &[Tok], line: u32, col: u32) -> Tok {
    let field_access = prev
        .last()
        .is_some_and(|t| t.kind == TokKind::Punct && t.text == ".");
    let mut text = String::new();
    let mut seen_dot = false;
    // Radix prefixes are always integers.
    if cur.peek(0) == Some('0') && matches!(cur.peek(1), Some('x') | Some('o') | Some('b')) {
        text.push(cur.bump().unwrap_or('0'));
        text.push(cur.bump().unwrap_or('x'));
        while let Some(ch) = cur.peek(0) {
            if !(ch.is_ascii_alphanumeric() || ch == '_') {
                break;
            }
            text.push(ch);
            cur.bump();
        }
        return Tok {
            kind: TokKind::Num,
            text,
            line,
            col,
        };
    }
    while let Some(ch) = cur.peek(0) {
        if ch.is_ascii_digit() || ch == '_' {
            text.push(ch);
            cur.bump();
            continue;
        }
        if ch == '.' && !seen_dot && !field_access {
            match cur.peek(1) {
                // `1..2` is a range, `1.max(2)` a method call.
                Some('.') => break,
                Some(c2) if is_ident_start(c2) => break,
                // `1.0` and trailing-dot floats like `1.;`.
                _ => {
                    seen_dot = true;
                    text.push(ch);
                    cur.bump();
                    continue;
                }
            }
        }
        if (ch == 'e' || ch == 'E')
            && matches!(cur.peek(1), Some(c2) if c2.is_ascii_digit()
                || ((c2 == '+' || c2 == '-')
                    && matches!(cur.peek(2), Some(c3) if c3.is_ascii_digit())))
        {
            seen_dot = true;
            text.push(ch);
            cur.bump();
            if let Some(sign @ ('+' | '-')) = cur.peek(0) {
                text.push(sign);
                cur.bump();
            }
            continue;
        }
        if is_ident_continue(ch) {
            // Type suffix (`u32`, `f64`, …).
            while let Some(c2) = cur.peek(0) {
                if !is_ident_continue(c2) {
                    break;
                }
                text.push(c2);
                cur.bump();
            }
        }
        break;
    }
    Tok {
        kind: TokKind::Num,
        text,
        line,
        col,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn kinds(src: &str) -> Vec<(TokKind, String)> {
        lex(src)
            .toks
            .into_iter()
            .map(|t| (t.kind, t.text))
            .collect()
    }

    #[test]
    fn numbers_and_field_access() {
        assert_eq!(
            kinds("1.0 2 0x1f 1e-3 2f64 x.0.1 1..2"),
            vec![
                (TokKind::Num, "1.0".into()),
                (TokKind::Num, "2".into()),
                (TokKind::Num, "0x1f".into()),
                (TokKind::Num, "1e-3".into()),
                (TokKind::Num, "2f64".into()),
                (TokKind::Ident, "x".into()),
                (TokKind::Punct, ".".into()),
                (TokKind::Num, "0".into()),
                (TokKind::Punct, ".".into()),
                (TokKind::Num, "1".into()),
                (TokKind::Num, "1".into()),
                (TokKind::Punct, "..".into()),
                (TokKind::Num, "2".into()),
            ]
        );
    }

    #[test]
    fn lifetimes_vs_chars() {
        assert_eq!(
            kinds("'a 'a' '\\n' 'static b'x'"),
            vec![
                (TokKind::Lifetime, "a".into()),
                (TokKind::Char, "a".into()),
                (TokKind::Char, "n".into()),
                (TokKind::Lifetime, "static".into()),
                (TokKind::Char, "x".into()),
            ]
        );
    }

    #[test]
    fn strings_hide_their_contents() {
        // Nothing inside a string may look like a token to the analyses.
        let l = lex(r####"let s = r#"panic! { unwrap() "quote"#; x"####);
        let idents: Vec<_> = l
            .toks
            .iter()
            .filter(|t| t.kind == TokKind::Ident)
            .map(|t| t.text.as_str())
            .collect();
        assert_eq!(idents, vec!["let", "s", "x"]);
    }

    #[test]
    fn nested_block_comments_and_positions() {
        let l = lex("a /* outer /* inner */ still */ b\nc");
        assert_eq!(l.toks.len(), 3);
        assert_eq!((l.toks[1].line, l.toks[1].col), (1, 33));
        assert_eq!((l.toks[2].line, l.toks[2].col), (2, 1));
        assert_eq!(l.comments.len(), 1);
    }

    #[test]
    fn compound_operators_are_single_tokens() {
        assert_eq!(
            kinds("a == b != c :: d ..= e")
                .into_iter()
                .filter(|(k, _)| *k == TokKind::Punct)
                .map(|(_, t)| t)
                .collect::<Vec<_>>(),
            vec!["==", "!=", "::", "..="]
        );
    }

    #[test]
    fn raw_identifiers() {
        assert_eq!(kinds("r#match"), vec![(TokKind::Ident, "match".into())]);
    }
}
