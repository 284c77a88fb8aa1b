//! A minimal Rust lexer: just enough to token-scan this workspace's own
//! sources without being fooled by comments, strings, raw strings, char
//! literals or lifetimes.
//!
//! The lexer is deliberately *not* a parser. The lints in
//! [`crate::lints`] work on flat token sequences plus a few derived
//! spans (`#[cfg(test)]` items, named `fn` bodies), which is enough to
//! express the workspace invariants while keeping the analyzer
//! dependency-free.

/// What kind of token was scanned.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TokKind {
    /// Identifier or keyword.
    Ident,
    /// Numeric literal (including suffixes, e.g. `0x80u32`).
    Num,
    /// Operator or delimiter, possibly multi-character (`<<`, `+=`, `::`).
    Punct,
    /// String literal (plain, byte or raw), scanned as one token.
    Str,
    /// Character literal.
    Char,
    /// Lifetime (`'a`) — distinct from a char literal.
    Lifetime,
}

/// One scanned token with its 1-based source position.
#[derive(Clone, Debug)]
pub struct Token {
    /// Token text. For `Str` tokens only the opening delimiter is kept
    /// (contents are irrelevant to every lint and would bloat memory).
    pub text: String,
    /// Kind of token.
    pub kind: TokKind,
    /// 1-based line of the first character.
    pub line: u32,
    /// 1-based column of the first character.
    pub col: u32,
}

/// Multi-character operators, longest first so maximal munch works.
const OPS: [&str; 23] = [
    "<<=", ">>=", "..=", "::", "->", "=>", "==", "!=", "<=", ">=", "&&", "||", "+=", "-=", "*=",
    "/=", "%=", "^=", "&=", "|=", "<<", ">>", "..",
];

struct Scanner {
    chars: Vec<char>,
    pos: usize,
    line: u32,
    col: u32,
}

impl Scanner {
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

    /// True when the characters at `pos + ahead` begin a raw-string body
    /// (`#* "`), as after the `r` of `r#"…"#`.
    fn raw_string_follows(&self, mut ahead: usize) -> bool {
        while self.peek(ahead) == Some('#') {
            ahead += 1;
        }
        self.peek(ahead) == Some('"')
    }

    /// Consumes a raw string starting at the hashes/quote (the `r`/`br`
    /// prefix is already consumed).
    fn eat_raw_string(&mut self) {
        let mut hashes = 0usize;
        while self.peek(0) == Some('#') {
            self.bump();
            hashes += 1;
        }
        self.bump(); // opening quote
        loop {
            match self.bump() {
                None => return,
                Some('"') => {
                    let mut seen = 0usize;
                    while seen < hashes && self.peek(0) == Some('#') {
                        self.bump();
                        seen += 1;
                    }
                    if seen == hashes {
                        return;
                    }
                }
                Some(_) => {}
            }
        }
    }

    /// Consumes a plain string body (opening quote already consumed).
    fn eat_string(&mut self) {
        loop {
            match self.bump() {
                None | Some('"') => return,
                Some('\\') => {
                    self.bump();
                }
                Some(_) => {}
            }
        }
    }
}

fn is_ident_start(c: char) -> bool {
    c.is_ascii_alphabetic() || c == '_'
}

fn is_ident_continue(c: char) -> bool {
    c.is_ascii_alphanumeric() || c == '_'
}

/// Tokenises `src`, skipping comments (line and nested block) and
/// whitespace. String/char bodies are consumed but not retained.
#[must_use]
pub fn lex(src: &str) -> Vec<Token> {
    let mut s = Scanner {
        chars: src.chars().collect(),
        pos: 0,
        line: 1,
        col: 1,
    };
    let mut out = Vec::new();
    while let Some(c) = s.peek(0) {
        let (line, col) = (s.line, s.col);
        if c.is_whitespace() {
            s.bump();
            continue;
        }
        // Comments.
        if c == '/' && s.peek(1) == Some('/') {
            while let Some(c) = s.peek(0) {
                if c == '\n' {
                    break;
                }
                s.bump();
            }
            continue;
        }
        if c == '/' && s.peek(1) == Some('*') {
            s.bump();
            s.bump();
            let mut depth = 1usize;
            while depth > 0 {
                match (s.peek(0), s.peek(1)) {
                    (Some('/'), Some('*')) => {
                        s.bump();
                        s.bump();
                        depth += 1;
                    }
                    (Some('*'), Some('/')) => {
                        s.bump();
                        s.bump();
                        depth -= 1;
                    }
                    (Some(_), _) => {
                        s.bump();
                    }
                    (None, _) => break,
                }
            }
            continue;
        }
        // Raw / byte string prefixes; must be checked before identifiers.
        if c == 'r' && s.raw_string_follows(1) {
            s.bump(); // r
            s.eat_raw_string();
            out.push(Token {
                text: "r\"".into(),
                kind: TokKind::Str,
                line,
                col,
            });
            continue;
        }
        if c == 'b' && s.peek(1) == Some('r') && s.raw_string_follows(2) {
            s.bump(); // b
            s.bump(); // r
            s.eat_raw_string();
            out.push(Token {
                text: "br\"".into(),
                kind: TokKind::Str,
                line,
                col,
            });
            continue;
        }
        if c == 'b' && s.peek(1) == Some('"') {
            s.bump(); // b
            s.bump(); // quote
            s.eat_string();
            out.push(Token {
                text: "b\"".into(),
                kind: TokKind::Str,
                line,
                col,
            });
            continue;
        }
        if c == '"' {
            s.bump();
            s.eat_string();
            out.push(Token {
                text: "\"".into(),
                kind: TokKind::Str,
                line,
                col,
            });
            continue;
        }
        // Lifetime vs char literal.
        if c == '\'' {
            let next = s.peek(1);
            let lifetime = match next {
                Some(n) if is_ident_start(n) => {
                    // 'a  → lifetime unless a closing quote follows the
                    // ident run ('a' is a char literal).
                    let mut ahead = 2;
                    while s.peek(ahead).is_some_and(is_ident_continue) {
                        ahead += 1;
                    }
                    s.peek(ahead) != Some('\'')
                }
                _ => false,
            };
            if lifetime {
                s.bump();
                let mut text = String::from("'");
                while s.peek(0).is_some_and(is_ident_continue) {
                    text.push(s.bump().unwrap_or('_'));
                }
                out.push(Token {
                    text,
                    kind: TokKind::Lifetime,
                    line,
                    col,
                });
            } else {
                s.bump(); // opening quote
                match s.bump() {
                    Some('\\') => match s.bump() {
                        // \u{…}: consume to the brace, then the quote.
                        Some('u') => {
                            while let Some(c) = s.bump() {
                                if c == '}' {
                                    break;
                                }
                            }
                            s.bump(); // closing quote
                        }
                        // \x41: two hex digits, then the quote.
                        Some('x') => {
                            s.bump();
                            s.bump();
                            s.bump(); // closing quote
                        }
                        // Simple escape (\n, \', \\): body consumed above.
                        _ => {
                            s.bump(); // closing quote
                        }
                    },
                    _ => {
                        s.bump(); // closing quote
                    }
                }
                out.push(Token {
                    text: "'".into(),
                    kind: TokKind::Char,
                    line,
                    col,
                });
            }
            continue;
        }
        // Identifiers / keywords.
        if is_ident_start(c) {
            let mut text = String::new();
            while s.peek(0).is_some_and(is_ident_continue) {
                text.push(s.bump().unwrap_or('_'));
            }
            out.push(Token {
                text,
                kind: TokKind::Ident,
                line,
                col,
            });
            continue;
        }
        // Numbers (suffixes ride along; `1..2` keeps the dots separate).
        if c.is_ascii_digit() {
            let mut text = String::new();
            while s.peek(0).is_some_and(is_ident_continue) {
                text.push(s.bump().unwrap_or('0'));
            }
            if s.peek(0) == Some('.') && s.peek(1).is_some_and(|c| c.is_ascii_digit()) {
                text.push(s.bump().unwrap_or('.'));
                while s.peek(0).is_some_and(is_ident_continue) {
                    text.push(s.bump().unwrap_or('0'));
                }
            }
            out.push(Token {
                text,
                kind: TokKind::Num,
                line,
                col,
            });
            continue;
        }
        // Operators, longest match first.
        let mut matched = None;
        for op in OPS {
            if op.chars().enumerate().all(|(i, oc)| s.peek(i) == Some(oc)) {
                matched = Some(op);
                break;
            }
        }
        if let Some(op) = matched {
            for _ in 0..op.len() {
                s.bump();
            }
            out.push(Token {
                text: op.into(),
                kind: TokKind::Punct,
                line,
                col,
            });
        } else {
            s.bump();
            out.push(Token {
                text: c.to_string(),
                kind: TokKind::Punct,
                line,
                col,
            });
        }
    }
    out
}

/// Inclusive 1-based line ranges of items annotated `#[cfg(test)]`
/// (typically the `mod tests` block). Lints skip violations inside
/// these spans: test code may panic and do raw arithmetic freely.
#[must_use]
pub fn test_spans(tokens: &[Token]) -> Vec<(u32, u32)> {
    let mut spans = Vec::new();
    let mut i = 0;
    while i + 6 < tokens.len() {
        let attr = tokens[i].text == "#"
            && tokens[i + 1].text == "["
            && tokens[i + 2].text == "cfg"
            && tokens[i + 3].text == "("
            && tokens[i + 4].text == "test"
            && tokens[i + 5].text == ")"
            && tokens[i + 6].text == "]";
        if !attr {
            i += 1;
            continue;
        }
        let start_line = tokens[i].line;
        // Find the end of the annotated item: the matching close brace of
        // its first `{`, or a `;` for brace-less items.
        let mut j = i + 7;
        let mut end_line = start_line;
        while j < tokens.len() {
            match tokens[j].text.as_str() {
                ";" => {
                    end_line = tokens[j].line;
                    break;
                }
                "{" => {
                    let mut depth = 0usize;
                    while j < tokens.len() {
                        match tokens[j].text.as_str() {
                            "{" => depth += 1,
                            "}" => {
                                depth -= 1;
                                if depth == 0 {
                                    break;
                                }
                            }
                            _ => {}
                        }
                        j += 1;
                    }
                    end_line = tokens.get(j).map_or(start_line, |t| t.line);
                    break;
                }
                _ => j += 1,
            }
        }
        spans.push((start_line, end_line));
        i = j + 1;
    }
    spans
}

/// The inclusive line span of the body of `fn name`, if present.
#[must_use]
pub fn fn_span(tokens: &[Token], name: &str) -> Option<(u32, u32)> {
    let mut i = 0;
    while i + 1 < tokens.len() {
        if tokens[i].text == "fn" && tokens[i + 1].text == name {
            let mut j = i + 2;
            while j < tokens.len() && tokens[j].text != "{" {
                j += 1;
            }
            let start = tokens.get(j)?.line;
            let mut depth = 0usize;
            while j < tokens.len() {
                match tokens[j].text.as_str() {
                    "{" => depth += 1,
                    "}" => {
                        depth -= 1;
                        if depth == 0 {
                            return Some((start, tokens[j].line));
                        }
                    }
                    _ => {}
                }
                j += 1;
            }
            return None;
        }
        i += 1;
    }
    None
}

/// Inclusive 1-based line spans of `macro_rules!` definitions — the
/// code clippy never lints, because it only sees macro expansions.
#[must_use]
pub fn macro_spans(tokens: &[Token]) -> Vec<(u32, u32)> {
    let mut spans = Vec::new();
    for i in 0..tokens.len() {
        if tokens[i].text != "macro_rules" || tokens.get(i + 1).is_none_or(|t| t.text != "!") {
            continue;
        }
        let Some(open) = tokens.get(i + 3) else {
            continue;
        };
        let close = match open.text.as_str() {
            "{" => "}",
            "(" => ")",
            "[" => "]",
            _ => continue,
        };
        let mut depth = 0usize;
        for t in &tokens[i + 3..] {
            if t.text == open.text {
                depth += 1;
            } else if t.text == close {
                depth -= 1;
                if depth == 0 {
                    spans.push((tokens[i].line, t.line));
                    break;
                }
            }
        }
    }
    spans
}

/// True when `line` falls inside any of `spans` (inclusive).
#[must_use]
pub fn in_spans(spans: &[(u32, u32)], line: u32) -> bool {
    spans.iter().any(|&(a, b)| line >= a && line <= b)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn texts(src: &str) -> Vec<String> {
        lex(src).into_iter().map(|t| t.text).collect()
    }

    #[test]
    fn comments_are_skipped_including_nested_blocks() {
        let src = "a // line .unwrap()\nb /* outer /* inner */ still */ c";
        assert_eq!(texts(src), ["a", "b", "c"]);
    }

    #[test]
    fn strings_hide_their_contents() {
        let toks = lex(r#"let s = "panic!(\"boom\") // not code"; x"#);
        let kinds: Vec<_> = toks.iter().map(|t| t.kind).collect();
        assert!(kinds.contains(&TokKind::Str));
        assert!(toks.iter().all(|t| t.text != "panic"));
        assert_eq!(toks.last().map(|t| t.text.as_str()), Some("x"));
    }

    #[test]
    fn raw_strings_with_hashes_are_single_tokens() {
        let src = "let s = r#\"has \"quotes\" and .unwrap()\"#; done";
        let toks = lex(src);
        assert!(toks.iter().all(|t| t.text != "unwrap"));
        assert_eq!(toks.last().map(|t| t.text.as_str()), Some("done"));
        // Byte-string and plain-raw variants too.
        assert!(lex("br#\"x\"# y").iter().any(|t| t.text == "y"));
        assert!(lex("r\"x\" y").iter().any(|t| t.text == "y"));
    }

    #[test]
    fn char_literals_and_lifetimes_are_distinguished() {
        let toks = lex("fn f<'a>(x: &'a str) { let c = 'x'; let q = '\\''; }");
        let lifetimes: Vec<_> = toks
            .iter()
            .filter(|t| t.kind == TokKind::Lifetime)
            .collect();
        let chars: Vec<_> = toks.iter().filter(|t| t.kind == TokKind::Char).collect();
        assert_eq!(lifetimes.len(), 2);
        assert_eq!(chars.len(), 2);
    }

    #[test]
    fn multichar_operators_lex_as_one_token() {
        assert_eq!(
            texts("a += b << c >>= d .. e"),
            ["a", "+=", "b", "<<", "c", ">>=", "d", "..", "e"]
        );
        assert_eq!(
            texts("x::y -> z => w"),
            ["x", "::", "y", "->", "z", "=>", "w"]
        );
    }

    #[test]
    fn positions_are_one_based_lines_and_columns() {
        let toks = lex("ab\n  cd");
        assert_eq!((toks[0].line, toks[0].col), (1, 1));
        assert_eq!((toks[1].line, toks[1].col), (2, 3));
    }

    #[test]
    fn cfg_test_span_covers_the_mod_block() {
        let src = "fn live() {}\n\n#[cfg(test)]\nmod tests {\n    fn t() {\n        x.unwrap();\n    }\n}\nfn after() {}\n";
        let toks = lex(src);
        let spans = test_spans(&toks);
        assert_eq!(spans, vec![(3, 8)]);
        assert!(in_spans(&spans, 6));
        assert!(!in_spans(&spans, 1));
        assert!(!in_spans(&spans, 9));
    }

    #[test]
    fn cfg_test_span_handles_braceless_items() {
        let src = "#[cfg(test)]\nuse foo::bar;\nfn live() {}\n";
        let spans = test_spans(&lex(src));
        assert_eq!(spans, vec![(1, 2)]);
    }

    #[test]
    fn fn_span_finds_the_body() {
        let src = "impl M {\n    fn charge(&mut self) {\n        self.x += 1;\n    }\n    fn other(&self) {}\n}\n";
        let toks = lex(src);
        assert_eq!(fn_span(&toks, "charge"), Some((2, 4)));
        assert_eq!(fn_span(&toks, "missing"), None);
    }

    #[test]
    fn numbers_keep_suffixes_and_underscores() {
        let toks = lex("0x8000_0000u64 1.5 12usize");
        assert!(toks.iter().all(|t| t.kind == TokKind::Num));
        assert_eq!(toks.len(), 3);
    }
}
