//! A hand-rolled Rust lexer.
//!
//! The build environment pins every dependency to a local shim, so there is
//! no `syn`/`proc-macro2`; this lexer is the crate's single tokenizer. It
//! produces a flat token stream with source positions — enough structure for
//! the [site extractor](mod@crate::extract) and the [self-lint
//! rules](crate::lint), and nothing more (no parse tree, no spans into the
//! original buffer).
//!
//! The hard parts of lexing Rust without a grammar are all here:
//!
//! * raw strings (`r"…"`, `r#"…"#`, any hash depth) and raw byte strings;
//! * raw identifiers (`r#fn`) vs raw strings (`r#"`);
//! * char literals vs lifetimes (`'a'` vs `'a`);
//! * nested block comments (`/* /* */ */`);
//! * numeric literals with underscores, radix prefixes, exponents and
//!   suffixes — tokenized conservatively, never interpreted beyond
//!   [`Token::int_value`].
//!
//! Comments (line, block, doc) are dropped entirely: a `.unwrap()` quoted in
//! a doc example must never trip the self-lint, and a constructor mentioned
//! in prose must never become an allocation site.

use std::fmt;

/// Token classification.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TokenKind {
    /// An identifier or keyword (`fn`, `Vec`, `r#type` → `type`).
    Ident,
    /// A lifetime (`'a`, `'static`), *without* the leading quote.
    Lifetime,
    /// A numeric literal (`42`, `0xff_u64`, `1.5e-3`).
    Number,
    /// A string literal of any flavour (`"…"`, `r#"…"#`, `b"…"`).
    Str,
    /// A character or byte literal (`'x'`, `b'\n'`).
    Char,
    /// A single punctuation character (`::` is two `:` tokens).
    Punct,
}

/// One lexed token with its 1-based source position.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Token {
    /// Classification.
    pub kind: TokenKind,
    /// Token text. Identifiers carry their name (raw identifiers are
    /// stripped of `r#`), puncts their single character; string literals
    /// carry their *unquoted* body so tests can assert on captured names.
    pub text: String,
    /// 1-based source line.
    pub line: u32,
    /// 1-based column (in characters, not bytes).
    pub col: u32,
}

impl Token {
    /// `true` when the token is the identifier `name`.
    #[inline]
    pub fn is_ident(&self, name: &str) -> bool {
        self.kind == TokenKind::Ident && self.text == name
    }

    /// `true` when the token is the punctuation character `c`.
    #[inline]
    pub fn is_punct(&self, c: char) -> bool {
        self.kind == TokenKind::Punct && self.text.as_bytes().first() == Some(&(c as u8))
    }

    /// The value of an unsuffixed decimal integer literal, if this token is
    /// one (`512` → `Some(512)`, `0x20`/`1_000u64` → parsed too; `1.5` →
    /// `None`). Used for `with_capacity(<literal>)` size hints.
    pub fn int_value(&self) -> Option<u64> {
        if self.kind != TokenKind::Number {
            return None;
        }
        let cleaned: String = self.text.chars().filter(|&c| c != '_').collect();
        let digits = cleaned
            .trim_end_matches(|c: char| c.is_ascii_alphabetic())
            .trim_end_matches(|c: char| c.is_ascii_digit() && cleaned.contains('x'));
        if let Some(hex) = cleaned.strip_prefix("0x") {
            let hex: String = hex.chars().take_while(|c| c.is_ascii_hexdigit()).collect();
            return u64::from_str_radix(&hex, 16).ok();
        }
        if cleaned.contains('.') || cleaned.contains('e') || cleaned.contains('E') {
            return None;
        }
        let digits: String = digits.chars().take_while(|c| c.is_ascii_digit()).collect();
        digits.parse().ok()
    }
}

impl fmt::Display for Token {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{} {:?} `{}`",
            self.line, self.col, self.kind, self.text
        )
    }
}

struct Cursor<'a> {
    chars: std::iter::Peekable<std::str::Chars<'a>>,
    line: u32,
    col: u32,
}

impl<'a> Cursor<'a> {
    fn new(src: &'a str) -> Self {
        Cursor {
            chars: src.chars().peekable(),
            line: 1,
            col: 1,
        }
    }

    fn peek(&mut self) -> Option<char> {
        self.chars.peek().copied()
    }

    fn bump(&mut self) -> Option<char> {
        let c = self.chars.next()?;
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

/// Tokenizes `src`. Never fails: unterminated literals run to end of input
/// and malformed characters become single puncts — the extractor and linters
/// degrade gracefully on files that do not compile.
pub fn lex(src: &str) -> Vec<Token> {
    let mut cur = Cursor::new(src);
    let mut out = Vec::new();
    while let Some(c) = cur.peek() {
        let (line, col) = (cur.line, cur.col);
        match c {
            c if c.is_whitespace() => {
                cur.bump();
            }
            '/' => {
                cur.bump();
                match cur.peek() {
                    Some('/') => {
                        // Line comment (incl. /// and //!): drop to newline.
                        while let Some(c) = cur.peek() {
                            if c == '\n' {
                                break;
                            }
                            cur.bump();
                        }
                    }
                    Some('*') => {
                        // Block comment, nested per the Rust grammar.
                        cur.bump();
                        let mut depth = 1u32;
                        while depth > 0 {
                            match cur.bump() {
                                Some('*') if cur.peek() == Some('/') => {
                                    cur.bump();
                                    depth -= 1;
                                }
                                Some('/') if cur.peek() == Some('*') => {
                                    cur.bump();
                                    depth += 1;
                                }
                                Some(_) => {}
                                None => break,
                            }
                        }
                    }
                    _ => out.push(punct('/', line, col)),
                }
            }
            '"' => {
                cur.bump();
                out.push(string_body(&mut cur, 0, line, col));
            }
            '\'' => {
                cur.bump();
                out.push(quote_token(&mut cur, line, col));
            }
            c if is_ident_start(c) => {
                // Could be an identifier, a raw identifier, a raw string, or
                // a byte-literal prefix.
                let mut name = String::new();
                name.push(c);
                cur.bump();
                // b"…" / b'…' / br"…" / r"…" / r#…
                if (name == "r" || name == "b") && matches!(cur.peek(), Some('"' | '#' | '\'')) {
                    if let Some(tok) = prefixed_literal(&mut cur, &name, line, col) {
                        out.push(tok);
                        continue;
                    }
                }
                if name == "b" && cur.peek() == Some('r') {
                    // Possible br"…" — look one further without losing `br` as
                    // an identifier prefix if it is not a raw string.
                    let mut probe = cur.chars.clone();
                    probe.next();
                    if matches!(probe.peek(), Some('"' | '#')) {
                        cur.bump(); // consume the `r`
                        if let Some(tok) = prefixed_literal(&mut cur, "r", line, col) {
                            out.push(tok);
                            continue;
                        }
                        name.push('r');
                    }
                }
                while let Some(c) = cur.peek() {
                    if is_ident_continue(c) {
                        name.push(c);
                        cur.bump();
                    } else {
                        break;
                    }
                }
                out.push(Token {
                    kind: TokenKind::Ident,
                    text: name,
                    line,
                    col,
                });
            }
            c if c.is_ascii_digit() => {
                out.push(number(&mut cur, line, col));
            }
            c => {
                cur.bump();
                out.push(punct(c, line, col));
            }
        }
    }
    out
}

fn punct(c: char, line: u32, col: u32) -> Token {
    Token {
        kind: TokenKind::Punct,
        text: c.to_string(),
        line,
        col,
    }
}

/// After consuming a leading `r` or `b`: raw strings, raw identifiers, byte
/// strings and byte chars. Returns `None` when the prefix turns out to start
/// a plain identifier (e.g. `r#fn` handled here, but `radius` not).
fn prefixed_literal(cur: &mut Cursor<'_>, prefix: &str, line: u32, col: u32) -> Option<Token> {
    match (prefix, cur.peek()) {
        ("r" | "b", Some('"')) => {
            cur.bump();
            Some(string_body(cur, 0, line, col))
        }
        ("b", Some('\'')) => {
            cur.bump();
            // Byte char: always a char literal, never a lifetime.
            let mut body = String::new();
            while let Some(c) = cur.peek() {
                if c == '\\' {
                    body.push(c);
                    cur.bump();
                    if let Some(e) = cur.bump() {
                        body.push(e);
                    }
                } else if c == '\'' {
                    cur.bump();
                    break;
                } else {
                    body.push(c);
                    cur.bump();
                }
            }
            Some(Token {
                kind: TokenKind::Char,
                text: body,
                line,
                col,
            })
        }
        ("r" | "b", Some('#')) => {
            // Count hashes; `r#"` starts a raw string, `r#ident` a raw
            // identifier (only valid with exactly one hash).
            let mut hashes = 0u32;
            while cur.peek() == Some('#') {
                cur.bump();
                hashes += 1;
            }
            if cur.peek() == Some('"') {
                cur.bump();
                return Some(string_body(cur, hashes, line, col));
            }
            if prefix == "r" && hashes == 1 {
                let mut name = String::new();
                while let Some(c) = cur.peek() {
                    if is_ident_continue(c) {
                        name.push(c);
                        cur.bump();
                    } else {
                        break;
                    }
                }
                if !name.is_empty() {
                    return Some(Token {
                        kind: TokenKind::Ident,
                        text: name,
                        line,
                        col,
                    });
                }
            }
            // Degenerate (`r##x`): emit the hashes as puncts via caller —
            // simplest is to swallow them as an empty ident.
            Some(Token {
                kind: TokenKind::Ident,
                text: prefix.to_owned(),
                line,
                col,
            })
        }
        _ => None,
    }
}

/// Consumes a string body after its opening quote. `hashes` is the raw-string
/// hash depth (0 for cooked strings, which process `\"` escapes).
fn string_body(cur: &mut Cursor<'_>, hashes: u32, line: u32, col: u32) -> Token {
    let mut body = String::new();
    if hashes == 0 {
        while let Some(c) = cur.peek() {
            match c {
                '\\' => {
                    cur.bump();
                    if let Some(e) = cur.bump() {
                        // Keep the escape verbatim; the extractor only needs
                        // literal site names, which never contain escapes.
                        body.push('\\');
                        body.push(e);
                    }
                }
                '"' => {
                    cur.bump();
                    break;
                }
                _ => {
                    body.push(c);
                    cur.bump();
                }
            }
        }
    } else {
        // Raw string: ends at `"` followed by exactly `hashes` hashes.
        loop {
            match cur.bump() {
                Some('"') => {
                    let mut seen = 0u32;
                    while seen < hashes && cur.peek() == Some('#') {
                        cur.bump();
                        seen += 1;
                    }
                    if seen == hashes {
                        break;
                    }
                    body.push('"');
                    for _ in 0..seen {
                        body.push('#');
                    }
                }
                Some(c) => body.push(c),
                None => break,
            }
        }
    }
    Token {
        kind: TokenKind::Str,
        text: body,
        line,
        col,
    }
}

/// After consuming a `'`: a char literal or a lifetime.
fn quote_token(cur: &mut Cursor<'_>, line: u32, col: u32) -> Token {
    match cur.peek() {
        Some('\\') => {
            // Escaped char literal: `'\n'`, `'\u{1F600}'`.
            cur.bump();
            let mut body = String::from("\\");
            if let Some(e) = cur.bump() {
                body.push(e);
                if e == 'u' && cur.peek() == Some('{') {
                    while let Some(c) = cur.bump() {
                        body.push(c);
                        if c == '}' {
                            break;
                        }
                    }
                }
            }
            if cur.peek() == Some('\'') {
                cur.bump();
            }
            Token {
                kind: TokenKind::Char,
                text: body,
                line,
                col,
            }
        }
        Some(c) if is_ident_start(c) => {
            // `'a'` is a char literal; `'a` / `'static` is a lifetime.
            let mut name = String::new();
            while let Some(c) = cur.peek() {
                if is_ident_continue(c) {
                    name.push(c);
                    cur.bump();
                } else {
                    break;
                }
            }
            if cur.peek() == Some('\'') {
                cur.bump();
                Token {
                    kind: TokenKind::Char,
                    text: name,
                    line,
                    col,
                }
            } else {
                Token {
                    kind: TokenKind::Lifetime,
                    text: name,
                    line,
                    col,
                }
            }
        }
        Some(c) => {
            // Non-alphabetic char literal: `'1'`, `' '`, `'{'`.
            cur.bump();
            let body = c.to_string();
            if cur.peek() == Some('\'') {
                cur.bump();
            }
            Token {
                kind: TokenKind::Char,
                text: body,
                line,
                col,
            }
        }
        None => punct('\'', line, col),
    }
}

fn number(cur: &mut Cursor<'_>, line: u32, col: u32) -> Token {
    let mut text = String::new();
    // Integer part (covers radix prefixes: `0x…` consumes as alnum run).
    while let Some(c) = cur.peek() {
        if c.is_ascii_alphanumeric() || c == '_' {
            text.push(c);
            cur.bump();
        } else {
            break;
        }
    }
    // Fraction: only if `.` is followed by a digit (so `1..5` and `x.0.1`
    // stay untouched and tuple indexing keeps its `.`).
    if cur.peek() == Some('.') {
        let mut probe = cur.chars.clone();
        probe.next();
        if probe.peek().is_some_and(|c| c.is_ascii_digit()) {
            text.push('.');
            cur.bump();
            while let Some(c) = cur.peek() {
                if c.is_ascii_alphanumeric() || c == '_' {
                    text.push(c);
                    cur.bump();
                } else {
                    break;
                }
            }
        }
    }
    // Exponent sign: `1e-3` lexes the `-` into the number.
    if (text.ends_with('e') || text.ends_with('E'))
        && matches!(cur.peek(), Some('+' | '-'))
        && !text.starts_with("0x")
    {
        text.push(cur.bump().expect("peeked"));
        while let Some(c) = cur.peek() {
            if c.is_ascii_digit() || c == '_' {
                text.push(c);
                cur.bump();
            } else {
                break;
            }
        }
    }
    Token {
        kind: TokenKind::Number,
        text,
        line,
        col,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn kinds(src: &str) -> Vec<(TokenKind, String)> {
        lex(src).into_iter().map(|t| (t.kind, t.text)).collect()
    }

    #[test]
    fn idents_and_puncts() {
        let toks = kinds("let mut xs = Vec::new();");
        assert_eq!(toks[0], (TokenKind::Ident, "let".into()));
        assert_eq!(toks[3], (TokenKind::Punct, "=".into()));
        assert_eq!(toks[4], (TokenKind::Ident, "Vec".into()));
        assert_eq!(toks[5], (TokenKind::Punct, ":".into()));
        assert_eq!(toks[6], (TokenKind::Punct, ":".into()));
        assert_eq!(toks[7], (TokenKind::Ident, "new".into()));
    }

    #[test]
    fn comments_are_dropped() {
        let toks = kinds("a // Vec::new()\nb /* Vec::new() /* nested */ */ c");
        assert_eq!(
            toks,
            vec![
                (TokenKind::Ident, "a".into()),
                (TokenKind::Ident, "b".into()),
                (TokenKind::Ident, "c".into()),
            ]
        );
    }

    #[test]
    fn doc_comments_do_not_leak_code() {
        let toks = kinds("/// let x = HashMap::new();\n//! xs.unwrap()\nfn f() {}");
        assert!(toks.iter().all(|(_, t)| t != "HashMap" && t != "unwrap"));
        assert_eq!(toks[0], (TokenKind::Ident, "fn".into()));
    }

    #[test]
    fn cooked_strings_swallow_escapes() {
        let toks = kinds(r#"let s = "a\"b // not a comment";"#);
        assert_eq!(toks[3], (TokenKind::Str, r#"a\"b // not a comment"#.into()));
    }

    #[test]
    fn raw_strings_any_hash_depth() {
        let toks = kinds(r###"x(r"plain", r#"one " hash"#, r##"two "# hashes"##)"###);
        let strs: Vec<_> = toks
            .iter()
            .filter(|(k, _)| *k == TokenKind::Str)
            .map(|(_, t)| t.clone())
            .collect();
        assert_eq!(
            strs,
            vec![
                "plain".to_owned(),
                "one \" hash".to_owned(),
                "two \"# hashes".to_owned()
            ]
        );
    }

    #[test]
    fn raw_string_containing_constructor_is_not_code() {
        let toks = kinds(r####"let s = r#"Vec::new()"#;"####);
        assert!(!toks
            .iter()
            .any(|(k, t)| *k == TokenKind::Ident && t == "Vec"));
    }

    #[test]
    fn byte_strings_and_byte_chars() {
        let toks = kinds(r#"f(b"bytes", b'\n', br"raw bytes")"#);
        let lits: Vec<_> = toks
            .iter()
            .filter(|(k, _)| matches!(k, TokenKind::Str | TokenKind::Char))
            .collect();
        assert_eq!(lits.len(), 3);
    }

    #[test]
    fn raw_identifiers_strip_the_sigil() {
        let toks = kinds("fn r#type(r#fn: u8) {}");
        assert!(toks
            .iter()
            .any(|(k, t)| *k == TokenKind::Ident && t == "type"));
        assert!(toks
            .iter()
            .any(|(k, t)| *k == TokenKind::Ident && t == "fn" && t != "r#fn"));
    }

    #[test]
    fn lifetimes_vs_char_literals() {
        let toks = kinds("fn f<'a>(x: &'a str) { let c = 'a'; let n = '\\n'; let s = ' '; }");
        let lifetimes: Vec<_> = toks
            .iter()
            .filter(|(k, _)| *k == TokenKind::Lifetime)
            .map(|(_, t)| t.clone())
            .collect();
        assert_eq!(lifetimes, vec!["a".to_owned(), "a".to_owned()]);
        let chars: Vec<_> = toks
            .iter()
            .filter(|(k, _)| *k == TokenKind::Char)
            .map(|(_, t)| t.clone())
            .collect();
        assert_eq!(
            chars,
            vec!["a".to_owned(), "\\n".to_owned(), " ".to_owned()]
        );
    }

    #[test]
    fn static_lifetime_and_unicode_escape() {
        let toks = kinds("const S: &'static str = \"\"; let c = '\\u{1F600}';");
        assert!(toks
            .iter()
            .any(|(k, t)| *k == TokenKind::Lifetime && t == "static"));
        assert!(toks
            .iter()
            .any(|(k, t)| *k == TokenKind::Char && t == "\\u{1F600}"));
    }

    #[test]
    fn numbers_with_suffixes_and_ranges() {
        let toks = kinds("for i in 0..1_000u64 { f(1.5e-3, 0xff, x.0); }");
        let nums: Vec<_> = toks
            .iter()
            .filter(|(k, _)| *k == TokenKind::Number)
            .map(|(_, t)| t.clone())
            .collect();
        assert_eq!(nums, vec!["0", "1_000u64", "1.5e-3", "0xff", "0"]);
    }

    #[test]
    fn int_values_parse() {
        let toks = lex("512 1_024 0x20 64u64 1.5");
        let vals: Vec<_> = toks.iter().map(Token::int_value).collect();
        assert_eq!(vals, vec![Some(512), Some(1024), Some(32), Some(64), None]);
    }

    #[test]
    fn positions_are_one_based_lines_and_cols() {
        let toks = lex("a\n  bb");
        assert_eq!((toks[0].line, toks[0].col), (1, 1));
        assert_eq!((toks[1].line, toks[1].col), (2, 3));
    }

    #[test]
    fn turbofish_shift_ambiguity_stays_tokenized() {
        let toks = kinds("Vec::<HashMap<u8, Vec<u8>>>::new()");
        let gt = toks.iter().filter(|(_, t)| t == ">").count();
        assert_eq!(gt, 3, ">> must lex as two `>` puncts");
    }

    #[test]
    fn unterminated_literals_do_not_panic() {
        let _ = lex("let s = \"unterminated");
        let _ = lex("let s = r#\"unterminated");
        let _ = lex("let c = '");
        let _ = lex("/* unterminated");
    }
}
