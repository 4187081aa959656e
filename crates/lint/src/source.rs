//! A lexed source file plus the two derived facts every lint needs:
//! which tokens are test code, and which lines carry `jmb-allow`
//! suppressions.

use crate::lexer::{lex, Token, TokenKind};

/// A `jmb-allow` suppression comment, parsed.
#[derive(Debug, Clone)]
pub struct Allow {
    /// The lint being suppressed.
    pub lint: String,
    /// Line of the comment itself.
    pub comment_line: u32,
    /// Column of the comment.
    pub col: u32,
    /// The line whose diagnostics this allow covers.
    pub target_line: u32,
    /// False if the mandatory `: reason` part is missing or empty.
    pub has_reason: bool,
}

/// One lexed, classified source file.
pub struct SourceFile {
    /// Workspace-relative path (forward slashes).
    pub rel: String,
    /// Full source text.
    pub src: String,
    /// Token stream.
    pub tokens: Vec<Token>,
    /// `in_test[i]` — token `i` is inside `#[cfg(test)]` / `#[test]` code.
    pub in_test: Vec<bool>,
    /// Parsed `jmb-allow` comments.
    pub allows: Vec<Allow>,
}

impl SourceFile {
    /// Lex and classify `src` as file `rel`.
    pub fn new(rel: String, src: String) -> Self {
        let tokens = lex(&src);
        let in_test = test_mask(&src, &tokens);
        let allows = parse_allows(&src, &tokens);
        SourceFile {
            rel,
            src,
            tokens,
            in_test,
            allows,
        }
    }

    /// Is this file test-only by location (an integration-test tree or an
    /// example)? Files under any `tests/` directory are test code in
    /// their entirety.
    pub fn is_test_file(&self) -> bool {
        self.rel.starts_with("tests/") || self.rel.contains("/tests/")
    }

    /// Token text shorthand.
    pub fn text(&self, tok: &Token) -> &str {
        tok.text(&self.src)
    }

    /// Index of the previous non-comment token before `i`, if any.
    pub fn prev_significant(&self, i: usize) -> Option<usize> {
        (0..i)
            .rev()
            .find(|&j| !matches!(self.tokens[j].kind, TokenKind::Comment { .. }))
    }

    /// Index of the next non-comment token after `i`, if any.
    pub fn next_significant(&self, i: usize) -> Option<usize> {
        (i + 1..self.tokens.len())
            .find(|&j| !matches!(self.tokens[j].kind, TokenKind::Comment { .. }))
    }
}

/// Mark every token that lives under a `#[cfg(test)]` or `#[test]`
/// attribute (the attribute's item, through its closing `}` or `;`).
/// `#[cfg(not(test))]` does *not* count as test code.
fn test_mask(src: &str, tokens: &[Token]) -> Vec<bool> {
    let mut mask = vec![false; tokens.len()];
    let mut i = 0usize;
    let mut pending_test = false;
    while i < tokens.len() {
        if tokens[i].is_punct(b'#') && tokens.get(i + 1).is_some_and(|t| t.is_punct(b'[')) {
            // Scan the attribute to its matching `]`.
            let attr_start = i;
            let mut depth = 0i32;
            let mut j = i + 1;
            while j < tokens.len() {
                match tokens[j].kind {
                    TokenKind::Punct(b'[') => depth += 1,
                    TokenKind::Punct(b']') => {
                        depth -= 1;
                        if depth == 0 {
                            break;
                        }
                    }
                    _ => {}
                }
                j += 1;
            }
            if is_test_attr(src, &tokens[attr_start..=j.min(tokens.len() - 1)]) {
                pending_test = true;
                for t in &mut mask[attr_start..=j.min(tokens.len() - 1)] {
                    *t = true;
                }
            }
            i = j + 1;
            continue;
        }
        if pending_test && !matches!(tokens[i].kind, TokenKind::Comment { .. }) {
            // The attributed item: everything up to its closing `;` (for
            // `use`/`struct X;` forms) or through its matched `{ … }`.
            let item_start = i;
            let mut depth = 0i32;
            let mut j = i;
            while j < tokens.len() {
                match tokens[j].kind {
                    TokenKind::Punct(b'{') => depth += 1,
                    TokenKind::Punct(b'}') => {
                        depth -= 1;
                        if depth == 0 {
                            break;
                        }
                    }
                    TokenKind::Punct(b';') if depth == 0 => break,
                    _ => {}
                }
                j += 1;
            }
            for t in &mut mask[item_start..=j.min(tokens.len() - 1)] {
                *t = true;
            }
            pending_test = false;
            i = j + 1;
            continue;
        }
        i += 1;
    }
    mask
}

/// Does an attribute token slice (`#` `[` … `]`) gate test code?
fn is_test_attr(src: &str, attr: &[Token]) -> bool {
    let idents: Vec<&str> = attr
        .iter()
        .filter(|t| t.kind == TokenKind::Ident)
        .map(|t| t.text(src))
        .collect();
    // `#[test]` (possibly `#[tokio::test]`-shaped in other repos).
    if idents.last() == Some(&"test") && !idents.contains(&"cfg") {
        return true;
    }
    // `#[cfg(test)]`, `#[cfg(all(test, …))]` — but not `#[cfg(not(test))]`.
    if idents.first() == Some(&"cfg") && idents.contains(&"test") && !idents.contains(&"not") {
        return true;
    }
    false
}

/// Parse `// jmb-allow(lint-name): reason` comments. A trailing comment
/// covers its own line; a standalone comment line covers the next line
/// that holds actual code (skipping further standalone allow lines, so
/// allows stack).
fn parse_allows(src: &str, tokens: &[Token]) -> Vec<Allow> {
    let mut allows: Vec<Allow> = Vec::new();
    for (i, tok) in tokens.iter().enumerate() {
        let TokenKind::Comment { doc: false, .. } = tok.kind else {
            continue;
        };
        let text = tok.text(src);
        let body = text
            .trim_start_matches('/')
            .trim_start_matches('*')
            .trim_start();
        let Some(rest) = body.strip_prefix("jmb-allow") else {
            continue;
        };
        let (lint, has_reason) = match rest.strip_prefix('(').and_then(|r| r.split_once(')')) {
            Some((name, tail)) => {
                let tail = tail.trim_end_matches("*/").trim();
                let reason_ok = tail.strip_prefix(':').is_some_and(|r| !r.trim().is_empty());
                (name.trim().to_string(), reason_ok)
            }
            // `jmb-allow` with no parseable `(lint-name)` — keep it, the
            // engine reports it as malformed rather than silently inert.
            None => (String::new(), false),
        };
        // Trailing (code earlier on the same line) or standalone?
        let standalone = !tokens[..i]
            .iter()
            .any(|t| t.line == tok.line && !matches!(t.kind, TokenKind::Comment { .. }));
        allows.push(Allow {
            lint,
            comment_line: tok.line,
            col: tok.col,
            target_line: if standalone { 0 } else { tok.line },
            has_reason,
        });
    }
    // Resolve standalone allows: target the next line that carries any
    // token other than further allow comments.
    let allow_lines: std::collections::BTreeSet<u32> = allows
        .iter()
        .filter(|a| a.target_line == 0)
        .map(|a| a.comment_line)
        .collect();
    for a in &mut allows {
        if a.target_line != 0 {
            continue;
        }
        a.target_line = tokens
            .iter()
            .filter(|t| t.line > a.comment_line && !allow_lines.contains(&t.line))
            .map(|t| t.line)
            .next()
            .unwrap_or(a.comment_line);
    }
    allows
}

#[cfg(test)]
mod tests {
    use super::*;

    fn file(src: &str) -> SourceFile {
        SourceFile::new("crates/x/src/lib.rs".into(), src.into())
    }

    fn test_idents(f: &SourceFile) -> Vec<String> {
        f.tokens
            .iter()
            .zip(&f.in_test)
            .filter(|(t, &m)| m && t.kind == TokenKind::Ident)
            .map(|(t, _)| f.text(t).to_string())
            .collect()
    }

    #[test]
    fn cfg_test_mod_is_masked() {
        let f =
            file("fn hot() {}\n#[cfg(test)]\nmod tests {\n  fn helper() {}\n}\nfn also_hot() {}");
        let ids = test_idents(&f);
        assert!(ids.contains(&"helper".to_string()));
        assert!(!ids.contains(&"hot".to_string()));
        assert!(!ids.contains(&"also_hot".to_string()));
    }

    #[test]
    fn test_fn_is_masked_but_not_cfg_not_test() {
        let f = file("#[test]\nfn a_case() {}\n#[cfg(not(test))]\nfn production() {}");
        let ids = test_idents(&f);
        assert!(ids.contains(&"a_case".to_string()));
        assert!(!ids.contains(&"production".to_string()));
    }

    #[test]
    fn stacked_attributes_and_semicolon_items() {
        let f = file("#[cfg(test)]\nuse std::collections::BTreeMap;\nfn hot() {}");
        let ids = test_idents(&f);
        assert!(ids.contains(&"BTreeMap".to_string()));
        assert!(!ids.contains(&"hot".to_string()));
    }

    #[test]
    fn trailing_allow_targets_its_own_line() {
        let f = file("let x = v.pop(); // jmb-allow(no-panic-hot-path): checked above\n");
        assert_eq!(f.allows.len(), 1);
        assert_eq!(f.allows[0].target_line, 1);
        assert!(f.allows[0].has_reason);
        assert_eq!(f.allows[0].lint, "no-panic-hot-path");
    }

    #[test]
    fn standalone_allows_stack_onto_next_code_line() {
        let f = file(
            "// jmb-allow(no-panic-hot-path): invariant A\n// jmb-allow(ordered-merge): invariant B\nlet x = 1;\n",
        );
        assert_eq!(f.allows.len(), 2);
        assert_eq!(f.allows[0].target_line, 3);
        assert_eq!(f.allows[1].target_line, 3);
    }

    #[test]
    fn reasonless_allow_is_flagged() {
        let f = file("// jmb-allow(no-panic-hot-path)\nv.pop().unwrap();\n");
        assert_eq!(f.allows.len(), 1);
        assert!(!f.allows[0].has_reason);
        let g = file("// jmb-allow(no-panic-hot-path):   \nv.pop().unwrap();\n");
        assert!(!g.allows[0].has_reason);
    }

    #[test]
    fn doc_comments_never_parse_as_allows() {
        let f = file("/// jmb-allow(no-panic-hot-path): doc text, not a suppression\nfn f() {}\n");
        assert!(f.allows.is_empty());
    }
}
