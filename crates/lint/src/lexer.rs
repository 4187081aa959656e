//! A hand-rolled Rust token scanner.
//!
//! `jmb-lint` must not depend on `syn` (the build environment vendors every
//! dependency, and a full parse is unnecessary): every invariant the lint
//! registry checks is visible at the token level, provided strings, char
//! literals, lifetimes, and all four comment shapes are classified
//! correctly. The lexer therefore handles exactly the token surface that
//! matters for *not mis-firing*:
//!
//! * line comments `//`, outer docs `///`, inner docs `//!` (but `////…`
//!   is a plain comment, per rustc);
//! * block comments `/* … */` with nesting, outer docs `/** … */`, inner
//!   docs `/*! … */`;
//! * string literals with escapes, byte strings `b"…"`, raw strings
//!   `r"…"` / `r#"…"#` with any number of hashes, raw byte strings;
//! * char literals (including escaped, e.g. `'\''`) vs lifetimes (`'a`);
//! * raw identifiers `r#match`;
//! * numbers, without swallowing range operators (`0..n` lexes as three
//!   tokens).
//!
//! Everything else is a single-character punct. Tokens carry 1-based
//! line/column spans so diagnostics point at the offending token.

/// What a token is. Comment text and string contents are recoverable via
/// [`Token::text`] against the original source.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TokenKind {
    /// An identifier or keyword (`unsafe`, `unwrap`, `fn`, …). Raw
    /// identifiers (`r#match`) lex as `Ident` with the `r#` included in
    /// the span.
    Ident,
    /// A lifetime such as `'a` (also labels: `'outer:`).
    Lifetime,
    /// A char or byte-char literal: `'x'`, `b'\n'`.
    CharLit,
    /// A string literal of any flavour: `"…"`, `b"…"`, `r#"…"#`.
    StrLit,
    /// A numeric literal (integers, floats, with suffixes).
    Number,
    /// A single punctuation character.
    Punct(u8),
    /// A comment; `doc` distinguishes rustdoc comments.
    Comment {
        /// True for `/* … */` shapes, false for `// …` shapes.
        block: bool,
        /// True for `///`, `//!`, `/** … */`, `/*! … */`.
        doc: bool,
    },
}

/// One lexed token with its source span.
#[derive(Debug, Clone, Copy)]
pub struct Token {
    /// Classification.
    pub kind: TokenKind,
    /// Byte offset of the first byte.
    pub start: usize,
    /// Byte offset one past the last byte.
    pub end: usize,
    /// 1-based line of the first byte.
    pub line: u32,
    /// 1-based column (in bytes) of the first byte.
    pub col: u32,
}

impl Token {
    /// The token's source text.
    pub fn text<'s>(&self, src: &'s str) -> &'s str {
        &src[self.start..self.end]
    }

    /// True if this is the identifier `word`.
    pub fn is_ident(&self, src: &str, word: &str) -> bool {
        self.kind == TokenKind::Ident && self.text(src) == word
    }

    /// True if this is the punct `ch`.
    pub fn is_punct(&self, ch: u8) -> bool {
        self.kind == TokenKind::Punct(ch)
    }
}

/// Lex `src` into a token stream. Never fails: malformed input (e.g. an
/// unterminated string) lexes as a best-effort token running to the end of
/// the file — the lint engine works on real, compiling source, so error
/// recovery only has to be non-crashing, not clever.
pub fn lex(src: &str) -> Vec<Token> {
    Lexer {
        src: src.as_bytes(),
        pos: 0,
        line: 1,
        col: 1,
        out: Vec::new(),
    }
    .run()
}

struct Lexer<'s> {
    src: &'s [u8],
    pos: usize,
    line: u32,
    col: u32,
    out: Vec<Token>,
}

impl Lexer<'_> {
    fn peek(&self, ahead: usize) -> u8 {
        *self.src.get(self.pos + ahead).unwrap_or(&0)
    }

    /// Advance one byte, tracking line/col.
    fn bump(&mut self) {
        if self.peek(0) == b'\n' {
            self.line += 1;
            self.col = 1;
        } else {
            self.col += 1;
        }
        self.pos += 1;
    }

    fn bump_n(&mut self, n: usize) {
        for _ in 0..n {
            self.bump();
        }
    }

    fn emit(&mut self, kind: TokenKind, start: usize, line: u32, col: u32) {
        self.out.push(Token {
            kind,
            start,
            end: self.pos,
            line,
            col,
        });
    }

    fn run(mut self) -> Vec<Token> {
        while self.pos < self.src.len() {
            let (start, line, col) = (self.pos, self.line, self.col);
            let c = self.peek(0);
            match c {
                b' ' | b'\t' | b'\r' | b'\n' => self.bump(),
                b'/' if self.peek(1) == b'/' => {
                    // `//`, `///`, `//!`; `////…` is a plain comment.
                    let doc =
                        (self.peek(2) == b'/' && self.peek(3) != b'/') || self.peek(2) == b'!';
                    while self.pos < self.src.len() && self.peek(0) != b'\n' {
                        self.bump();
                    }
                    self.emit(TokenKind::Comment { block: false, doc }, start, line, col);
                }
                b'/' if self.peek(1) == b'*' => {
                    // `/* … */` with nesting; `/**` and `/*!` are docs,
                    // but `/**/` (empty) and `/***` are not.
                    let doc =
                        (self.peek(2) == b'*' && self.peek(3) != b'*' && self.peek(3) != b'/')
                            || self.peek(2) == b'!';
                    self.bump_n(2);
                    let mut depth = 1u32;
                    while self.pos < self.src.len() && depth > 0 {
                        if self.peek(0) == b'/' && self.peek(1) == b'*' {
                            depth += 1;
                            self.bump_n(2);
                        } else if self.peek(0) == b'*' && self.peek(1) == b'/' {
                            depth -= 1;
                            self.bump_n(2);
                        } else {
                            self.bump();
                        }
                    }
                    self.emit(TokenKind::Comment { block: true, doc }, start, line, col);
                }
                b'r' | b'b' if self.raw_or_byte_prefix() => {
                    // Handled fully inside raw_or_byte_prefix's caller:
                    // figure out which literal shape follows the prefix.
                    self.lex_prefixed_literal(start, line, col);
                }
                c if c == b'_' || c.is_ascii_alphabetic() || c >= 0x80 => {
                    while {
                        let p = self.peek(0);
                        p == b'_' || p.is_ascii_alphanumeric() || p >= 0x80
                    } {
                        self.bump();
                    }
                    self.emit(TokenKind::Ident, start, line, col);
                }
                c if c.is_ascii_digit() => {
                    self.lex_number();
                    self.emit(TokenKind::Number, start, line, col);
                }
                b'\'' => self.lex_quote(start, line, col),
                b'"' => {
                    self.lex_string();
                    self.emit(TokenKind::StrLit, start, line, col);
                }
                _ => {
                    self.bump();
                    self.emit(TokenKind::Punct(c), start, line, col);
                }
            }
        }
        self.out
    }

    /// Does the `r`/`b` at the cursor start a raw/byte literal (as opposed
    /// to a plain identifier like `rate` or `bins`)?
    fn raw_or_byte_prefix(&self) -> bool {
        match self.peek(0) {
            b'r' => {
                // r"…", r#"…"#, r#ident, br"…" not reachable here (b first).
                matches!(self.peek(1), b'"' | b'#')
            }
            b'b' => match self.peek(1) {
                b'"' | b'\'' => true,
                b'r' => matches!(self.peek(2), b'"' | b'#'),
                _ => false,
            },
            _ => false,
        }
    }

    fn lex_prefixed_literal(&mut self, start: usize, line: u32, col: u32) {
        // Consume the prefix letters.
        if self.peek(0) == b'b' {
            self.bump();
            if self.peek(0) == b'\'' {
                self.lex_quote(start, line, col); // b'x' — byte char
                return;
            }
            if self.peek(0) == b'"' {
                self.lex_string();
                self.emit(TokenKind::StrLit, start, line, col);
                return;
            }
            // br…
            self.bump(); // the `r`
        } else {
            self.bump(); // the `r`
        }
        // Raw identifier r#ident (only for the bare-`r` case).
        if self.peek(0) == b'#' && (self.peek(1) == b'_' || self.peek(1).is_ascii_alphabetic()) {
            self.bump(); // '#'
            while {
                let p = self.peek(0);
                p == b'_' || p.is_ascii_alphanumeric() || p >= 0x80
            } {
                self.bump();
            }
            self.emit(TokenKind::Ident, start, line, col);
            return;
        }
        // Raw string: zero or more '#', then '"'.
        let mut hashes = 0usize;
        while self.peek(0) == b'#' {
            hashes += 1;
            self.bump();
        }
        if self.peek(0) != b'"' {
            // `r#` followed by something else — lex defensively as punct.
            self.emit(TokenKind::Punct(b'#'), start, line, col);
            return;
        }
        self.bump(); // opening quote
        'scan: while self.pos < self.src.len() {
            if self.peek(0) == b'"' {
                // Need exactly `hashes` '#' after the quote to close.
                for i in 0..hashes {
                    if self.peek(1 + i) != b'#' {
                        self.bump();
                        continue 'scan;
                    }
                }
                self.bump_n(1 + hashes);
                break;
            }
            self.bump();
        }
        self.emit(TokenKind::StrLit, start, line, col);
    }

    /// Consume a `"…"` string body (cursor on the opening quote),
    /// honouring `\"` and `\\` escapes.
    fn lex_string(&mut self) {
        self.bump(); // opening quote
        while self.pos < self.src.len() {
            match self.peek(0) {
                b'\\' => self.bump_n(2),
                b'"' => {
                    self.bump();
                    break;
                }
                _ => self.bump(),
            }
        }
    }

    fn lex_number(&mut self) {
        // Leading digits (any radix — 0x… just consumes alnums).
        while {
            let p = self.peek(0);
            p == b'_' || p.is_ascii_alphanumeric()
        } {
            // Exponent sign: 1e-3, 2.5E+7.
            let p = self.peek(0);
            self.bump();
            if (p == b'e' || p == b'E') && matches!(self.peek(0), b'+' | b'-') {
                self.bump();
            }
        }
        // A fractional part only if '.' is followed by a digit — keeps
        // `0..n` and `1.method()` from being swallowed.
        if self.peek(0) == b'.' && self.peek(1).is_ascii_digit() {
            self.bump();
            while {
                let p = self.peek(0);
                p == b'_' || p.is_ascii_alphanumeric()
            } {
                let p = self.peek(0);
                self.bump();
                if (p == b'e' || p == b'E') && matches!(self.peek(0), b'+' | b'-') {
                    self.bump();
                }
            }
        }
    }

    /// Disambiguate `'a` (lifetime) from `'x'` / `'\n'` (char literal),
    /// starting at a `'` (or at the `b` of `b'x'`).
    fn lex_quote(&mut self, start: usize, line: u32, col: u32) {
        if self.peek(0) == b'b' {
            self.bump();
        }
        self.bump(); // the opening '
        let c = self.peek(0);
        if c == b'\\' {
            // Escaped char literal: consume escape then closing quote.
            self.bump();
            self.bump(); // escape body (covers \', \\, \n, and the x of \x7f)
            while self.pos < self.src.len() && self.peek(0) != b'\'' {
                self.bump(); // rest of \x7f or \u{…}
            }
            self.bump(); // closing '
            self.emit(TokenKind::CharLit, start, line, col);
        } else if (c == b'_' || c.is_ascii_alphabetic()) && self.peek(1) != b'\'' {
            // Lifetime: ident chars, no closing quote.
            while {
                let p = self.peek(0);
                p == b'_' || p.is_ascii_alphanumeric()
            } {
                self.bump();
            }
            self.emit(TokenKind::Lifetime, start, line, col);
        } else {
            // Char literal: one (possibly multibyte) char then closing '.
            while self.pos < self.src.len() && self.peek(0) != b'\'' {
                self.bump();
            }
            self.bump(); // closing '
            self.emit(TokenKind::CharLit, start, line, col);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn kinds(src: &str) -> Vec<(TokenKind, String)> {
        lex(src)
            .into_iter()
            .map(|t| (t.kind, t.text(src).to_string()))
            .collect()
    }

    fn idents(src: &str) -> Vec<String> {
        lex(src)
            .iter()
            .filter(|t| t.kind == TokenKind::Ident)
            .map(|t| t.text(src).to_string())
            .collect()
    }

    #[test]
    fn comments_and_docs() {
        let toks = kinds("// plain\n/// doc\n//! inner\n//// not doc\ncode");
        assert_eq!(
            toks[0].0,
            TokenKind::Comment {
                block: false,
                doc: false
            }
        );
        assert_eq!(
            toks[1].0,
            TokenKind::Comment {
                block: false,
                doc: true
            }
        );
        assert_eq!(
            toks[2].0,
            TokenKind::Comment {
                block: false,
                doc: true
            }
        );
        assert_eq!(
            toks[3].0,
            TokenKind::Comment {
                block: false,
                doc: false
            }
        );
        assert_eq!(toks[4].1, "code");
    }

    #[test]
    fn nested_block_comments() {
        let src = "/* outer /* inner */ still */ after";
        let toks = kinds(src);
        assert_eq!(toks.len(), 2);
        assert_eq!(toks[0].1, "/* outer /* inner */ still */");
        assert_eq!(toks[1].1, "after");
    }

    #[test]
    fn block_doc_comments() {
        assert_eq!(
            kinds("/** d */")[0].0,
            TokenKind::Comment {
                block: true,
                doc: true
            }
        );
        assert_eq!(
            kinds("/*! d */")[0].0,
            TokenKind::Comment {
                block: true,
                doc: true
            }
        );
        assert_eq!(
            kinds("/**/ x")[0].0,
            TokenKind::Comment {
                block: true,
                doc: false
            }
        );
    }

    #[test]
    fn unwrap_in_string_is_not_an_ident() {
        let src = r#"let s = "call .unwrap() here"; s.len()"#;
        assert!(!idents(src).contains(&"unwrap".to_string()));
        assert!(idents(src).contains(&"len".to_string()));
    }

    #[test]
    fn raw_strings_with_hashes() {
        let src = r##"let s = r#"quote " and unwrap() inside"# ; x"##;
        let toks = kinds(src);
        let strs: Vec<_> = toks.iter().filter(|t| t.0 == TokenKind::StrLit).collect();
        assert_eq!(strs.len(), 1);
        assert!(strs[0].1.contains("unwrap"));
        assert!(!idents(src).contains(&"unwrap".to_string()));
    }

    #[test]
    fn raw_string_embedded_quote_hash_run_shorter_than_delimiter() {
        let src = r###"r##"has "# inside"## end"###;
        let toks = kinds(src);
        assert_eq!(toks[0].0, TokenKind::StrLit);
        assert_eq!(toks[0].1, r###"r##"has "# inside"##"###);
        assert_eq!(toks[1].1, "end");
    }

    #[test]
    fn byte_and_raw_byte_strings() {
        assert_eq!(kinds(r#"b"bytes""#)[0].0, TokenKind::StrLit);
        assert_eq!(kinds(r##"br#"raw bytes"#"##)[0].0, TokenKind::StrLit);
        assert_eq!(kinds("b'x'")[0].0, TokenKind::CharLit);
    }

    #[test]
    fn lifetimes_vs_char_literals() {
        let src = "fn f<'a>(x: &'a str) { let c = 'a'; let n = '\\n'; let q = '\\''; }";
        let toks = lex(src);
        let lifetimes: Vec<_> = toks
            .iter()
            .filter(|t| t.kind == TokenKind::Lifetime)
            .collect();
        let chars: Vec<_> = toks
            .iter()
            .filter(|t| t.kind == TokenKind::CharLit)
            .collect();
        assert_eq!(lifetimes.len(), 2);
        assert_eq!(chars.len(), 3);
        assert_eq!(chars[0].text(src), "'a'");
    }

    #[test]
    fn raw_identifiers() {
        let toks = kinds("r#match r#unsafe normal");
        assert_eq!(toks[0].1, "r#match");
        assert_eq!(toks[1].1, "r#unsafe");
        assert_eq!(toks[2].1, "normal");
        assert!(toks.iter().all(|t| t.0 == TokenKind::Ident));
    }

    #[test]
    fn numbers_do_not_swallow_ranges_or_methods() {
        assert!(idents("for i in 0..n_aps {}").contains(&"n_aps".to_string()));
        assert!(idents("1.max(2)").contains(&"max".to_string()));
        let toks = kinds("1.5e-3 0xff_u32 1_000");
        assert_eq!(toks[0].1, "1.5e-3");
        assert_eq!(toks[1].1, "0xff_u32");
        assert_eq!(toks[2].1, "1_000");
    }

    #[test]
    fn line_and_col_tracking() {
        let src = "ab\n  cd";
        let toks = lex(src);
        assert_eq!((toks[0].line, toks[0].col), (1, 1));
        assert_eq!((toks[1].line, toks[1].col), (2, 3));
    }

    #[test]
    fn unterminated_string_reaches_eof_without_panic() {
        let toks = lex("let s = \"never closed");
        assert_eq!(toks.last().unwrap().kind, TokenKind::StrLit);
    }

    #[test]
    fn turbofish_lexes_as_colon_colon_angle_sequence() {
        // `.sum::<f64>()` lexes as exactly `sum : : < f64 > ( )`: `::` is
        // two single colons, never a fused token, and `<`/`>` stay plain
        // puncts, so a lint walking a path sees every segment.
        let toks = kinds("xs.iter().sum::<f64>()");
        let tail: Vec<&str> = toks.iter().map(|(_, s)| s.as_str()).collect();
        let sum_at = tail.iter().position(|&s| s == "sum").unwrap();
        assert_eq!(
            &tail[sum_at..],
            &["sum", ":", ":", "<", "f64", ">", "(", ")"]
        );
        assert!(toks[sum_at].0 == TokenKind::Ident);
        assert!(toks[sum_at + 4].0 == TokenKind::Ident); // f64 is an ident
    }

    #[test]
    fn method_chain_spans_point_at_each_method() {
        // Diagnostics anchor on the method ident, so every segment of a
        // multi-line chain must carry its own line/col.
        let src = "m.keys()\n    .copied()\n    .collect()";
        let toks = lex(src);
        let at = |name: &str| {
            toks.iter()
                .find(|t| t.kind == TokenKind::Ident && t.text(src) == name)
                .unwrap()
        };
        assert_eq!((at("keys").line, at("keys").col), (1, 3));
        assert_eq!((at("copied").line, at("copied").col), (2, 6));
        assert_eq!((at("collect").line, at("collect").col), (3, 6));
    }
}
