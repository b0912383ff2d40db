//! A minimal hand-rolled Rust lexer.
//!
//! The build environment is offline, so `syn`/`proc-macro2` are not
//! available; the rule engine instead works on this token stream. The lexer
//! does *not* aim to be a full Rust front end — it only has to be exact
//! about the things that would otherwise produce false positives or false
//! negatives in the lint rules:
//!
//! * line comments (`//`, `///`, `//!`) and **nested** block comments
//!   (`/* /* */ */`) are skipped, but line comments are scanned for
//!   `xtask:allow(rule): reason` suppression directives;
//! * string literals (`"…"` with escapes), byte strings (`b"…"`), raw
//!   strings (`r"…"`, `r#"…"#`, `br##"…"##`) and char/byte-char literals
//!   (`'x'`, `'\n'`, `b'\xFF'`) are lexed as single tokens so that a
//!   banned name *inside* a literal is never mistaken for code — but the
//!   literal text is kept, because one rule (`thread-observable`) bans a
//!   specific *string* (`"RAYON_NUM_THREADS"`) from appearing in code;
//! * lifetimes (`'a`) are distinguished from char literals;
//! * raw identifiers (`r#match`) are lexed as identifiers, not raw strings.
//!
//! Everything else (numbers, punctuation) is tokenized loosely: rules match
//! identifier/punctuation sequences and never interpret numeric values.

/// One lexed token plus the 1-indexed line it starts on.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Token {
    /// 1-indexed source line of the token's first character.
    pub line: u32,
    /// What was lexed.
    pub kind: TokenKind,
}

/// Token payload. Only the distinctions the rules need are kept.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TokenKind {
    /// Identifier or keyword (raw identifiers lose their `r#` prefix).
    Ident(String),
    /// String / byte-string / raw-string literal, with its *contents*
    /// (quotes, prefixes and hashes stripped; escapes left as written).
    Str(String),
    /// Char or byte-char literal (contents not needed by any rule).
    Char,
    /// Lifetime such as `'a` (never confused with a char literal).
    Lifetime,
    /// Numeric literal (value never interpreted).
    Num,
    /// A single punctuation character: `.` `:` `#` `|` `&` `(` … Multi-char
    /// operators arrive as consecutive tokens (`::` is `:` `:`).
    Punct(char),
}

/// An `xtask:allow(rule): reason` directive harvested from a line comment.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AllowDirective {
    /// 1-indexed line the comment sits on.
    pub line: u32,
    /// Rule name between the parentheses (not yet validated).
    pub rule: String,
    /// Justification text after the closing `):`, trimmed. Empty when the
    /// author wrote no reason — the engine reports that as its own finding.
    pub reason: String,
}

/// Full lexer output for one source file.
#[derive(Debug, Default)]
pub struct Lexed {
    /// Token stream with comments and whitespace removed.
    pub tokens: Vec<Token>,
    /// Suppression directives found in line comments.
    pub allows: Vec<AllowDirective>,
}

/// The identifier at `toks[i]`, if that token is one.
pub(crate) fn ident_at(toks: &[Token], i: usize) -> Option<&str> {
    match toks.get(i)?.kind {
        TokenKind::Ident(ref s) => Some(s),
        _ => None,
    }
}

/// Whether `toks[i]` is the punctuation character `c`.
pub(crate) fn punct_at(toks: &[Token], i: usize, c: char) -> bool {
    matches!(toks.get(i), Some(Token { kind: TokenKind::Punct(p), .. }) if *p == c)
}

/// Whether the tokens from `i` spell the two-segment path `head::tail`.
pub(crate) fn path_at(toks: &[Token], i: usize, head: &str, tail: &str) -> bool {
    ident_at(toks, i) == Some(head)
        && punct_at(toks, i + 1, ':')
        && punct_at(toks, i + 2, ':')
        && ident_at(toks, i + 3) == Some(tail)
}

/// Tokenizes `src`, skipping comments and harvesting allow directives.
pub fn lex(src: &str) -> Lexed {
    let mut out = Lexed::default();
    let b = src.as_bytes();
    let mut i = 0usize;
    let mut line = 1u32;

    while i < b.len() {
        let c = b[i];
        match c {
            b'\n' => {
                line += 1;
                i += 1;
            }
            c if c.is_ascii_whitespace() => i += 1,
            b'/' if b.get(i + 1) == Some(&b'/') => {
                let start = i + 2;
                while i < b.len() && b[i] != b'\n' {
                    i += 1;
                }
                scan_line_comment(&src[start..i], line, &mut out.allows);
            }
            b'/' if b.get(i + 1) == Some(&b'*') => {
                // Nested block comment; `/*` inside opens another level.
                let mut depth = 1usize;
                i += 2;
                while i < b.len() && depth > 0 {
                    if b[i] == b'/' && b.get(i + 1) == Some(&b'*') {
                        depth += 1;
                        i += 2;
                    } else if b[i] == b'*' && b.get(i + 1) == Some(&b'/') {
                        depth -= 1;
                        i += 2;
                    } else {
                        if b[i] == b'\n' {
                            line += 1;
                        }
                        i += 1;
                    }
                }
            }
            b'"' => {
                let start_line = line;
                let (content, next) = cooked_string(src, i + 1, &mut line);
                i = next;
                out.tokens.push(Token {
                    line: start_line,
                    kind: TokenKind::Str(content),
                });
            }
            b'\'' => {
                let start_line = line;
                i = quote_token(src, i, &mut line, start_line, &mut out.tokens);
            }
            c if c.is_ascii_digit() => {
                let start_line = line;
                i += 1;
                while i < b.len() {
                    let d = b[i];
                    if d.is_ascii_alphanumeric() || d == b'_' {
                        i += 1;
                    } else if d == b'.' && b.get(i + 1).is_some_and(u8::is_ascii_digit) {
                        i += 1; // decimal point of `1.5`, but not the range in `0..n`
                    } else {
                        break;
                    }
                }
                out.tokens.push(Token {
                    line: start_line,
                    kind: TokenKind::Num,
                });
            }
            c if c == b'_' || c.is_ascii_alphabetic() => {
                let start_line = line;
                let start = i;
                while i < b.len() && (b[i].is_ascii_alphanumeric() || b[i] == b'_') {
                    i += 1;
                }
                let word = &src[start..i];
                // `r"…"`, `r#"…"#`, `b"…"`, `br#"…"#`, `b'…'` prefixes; but
                // `r#ident` is a raw identifier, not a raw string.
                match (word, b.get(i).copied()) {
                    ("r" | "br" | "b", Some(b'"')) | ("r" | "br", Some(b'#'))
                        if !is_raw_ident(word, b, i) =>
                    {
                        let (content, next) = raw_or_byte_string(src, i, &mut line);
                        i = next;
                        out.tokens.push(Token {
                            line: start_line,
                            kind: TokenKind::Str(content),
                        });
                    }
                    ("b", Some(b'\'')) => {
                        i = quote_token(src, i, &mut line, start_line, &mut out.tokens);
                    }
                    ("r", Some(b'#')) => {
                        // Raw identifier: skip the `#`, lex the word itself.
                        let start = i + 1;
                        i = start;
                        while i < b.len() && (b[i].is_ascii_alphanumeric() || b[i] == b'_') {
                            i += 1;
                        }
                        out.tokens.push(Token {
                            line: start_line,
                            kind: TokenKind::Ident(src[start..i].to_string()),
                        });
                    }
                    _ => out.tokens.push(Token {
                        line: start_line,
                        kind: TokenKind::Ident(word.to_string()),
                    }),
                }
            }
            c => {
                out.tokens.push(Token {
                    line,
                    kind: TokenKind::Punct(c as char),
                });
                i += 1;
            }
        }
    }
    out
}

/// True when `r` at `b[after]` starts a raw *identifier* (`r#match`) rather
/// than a raw string (`r#"…"` / `r##"…"##`).
fn is_raw_ident(word: &str, b: &[u8], after: usize) -> bool {
    word == "r"
        && b.get(after) == Some(&b'#')
        && b.get(after + 1)
            .is_some_and(|&d| d == b'_' || d.is_ascii_alphabetic())
}

/// Lexes a cooked string body starting just past the opening `"`. Returns
/// (contents, index past the closing quote). Handles `\"`, `\\` and keeps
/// other escapes verbatim; tolerates an unterminated string at EOF.
fn cooked_string(src: &str, mut i: usize, line: &mut u32) -> (String, usize) {
    let b = src.as_bytes();
    let start = i;
    while i < b.len() {
        match b[i] {
            b'\\' => {
                // Skip the escaped char ("\"" and "\\" included). A
                // line-continuation escape (`\` before a newline) still
                // consumes a source line and must keep the counter honest.
                if b.get(i + 1) == Some(&b'\n') {
                    *line += 1;
                }
                i += 2;
            }
            b'"' => return (src[start..i].to_string(), i + 1),
            b'\n' => {
                *line += 1;
                i += 1;
            }
            _ => i += 1,
        }
    }
    (src[start..i.min(b.len())].to_string(), i.min(b.len()))
}

/// Lexes a raw / byte / raw-byte string whose prefix letters are already
/// consumed; `i` points at `#` or `"`. Returns (contents, index past end).
fn raw_or_byte_string(src: &str, mut i: usize, line: &mut u32) -> (String, usize) {
    let b = src.as_bytes();
    let mut hashes = 0usize;
    while b.get(i) == Some(&b'#') {
        hashes += 1;
        i += 1;
    }
    if b.get(i) != Some(&b'"') {
        // `br#foo` can't occur in valid Rust; treat as punct soup.
        return (String::new(), i);
    }
    if hashes == 0 {
        // `r"…"` / `b"…"`: a plain `"` terminates. `b"…"` honors escapes
        // like a cooked string; `r"…"` / `br"…"` have none, so a backslash
        // there is literal text. The consumed prefix word decides which.
        let raw = src[..i].ends_with('r');
        let start = i + 1;
        let mut j = start;
        while j < b.len() {
            match b[j] {
                b'\\' if !raw => {
                    if b.get(j + 1) == Some(&b'\n') {
                        *line += 1;
                    }
                    j += 2;
                }
                b'"' => return (src[start..j].to_string(), j + 1),
                b'\n' => {
                    *line += 1;
                    j += 1;
                }
                _ => j += 1,
            }
        }
        return (src[start..].to_string(), b.len());
    }
    // `r#"…"#` with `hashes` hashes: ends at `"` followed by that many `#`.
    let start = i + 1;
    let closer: Vec<u8> = std::iter::once(b'"')
        .chain(std::iter::repeat_n(b'#', hashes))
        .collect();
    let mut j = start;
    while j < b.len() {
        if b[j] == b'"' && b[j..].starts_with(&closer) {
            return (src[start..j].to_string(), j + closer.len());
        }
        if b[j] == b'\n' {
            *line += 1;
        }
        j += 1;
    }
    (src[start..].to_string(), b.len())
}

/// Lexes the token starting at a `'` at byte `i`: either a lifetime (`'a`,
/// `'static`) or a char literal (`'x'`, `'\n'`, `'('`). Pushes the token
/// and returns the index past it.
fn quote_token(
    src: &str,
    i: usize,
    line: &mut u32,
    start_line: u32,
    tokens: &mut Vec<Token>,
) -> usize {
    let b = src.as_bytes();
    debug_assert_eq!(b[i], b'\'');
    let c1 = b.get(i + 1).copied();
    // `'\…'` is always a char literal; `'x'` (closing quote two ahead) is a
    // char literal; otherwise an ident-start char begins a lifetime.
    if c1 == Some(b'\\') {
        // Skip escape: '\n', '\'', '\\', '\x41', '\u{1F600}'.
        let mut j = i + 2;
        if b.get(j) == Some(&b'u') && b.get(j + 1) == Some(&b'{') {
            while j < b.len() && b[j] != b'}' {
                j += 1;
            }
            j += 1;
        } else {
            j += 1;
            if matches!(b.get(i + 2), Some(b'x')) {
                j += 2;
            }
        }
        while j < b.len() && b[j] != b'\'' {
            j += 1;
        }
        tokens.push(Token {
            line: start_line,
            kind: TokenKind::Char,
        });
        return j + 1;
    }
    let c2 = b.get(i + 2).copied();
    if c2 == Some(b'\'') {
        tokens.push(Token {
            line: start_line,
            kind: TokenKind::Char,
        });
        return i + 3;
    }
    if c1.is_some_and(|d| d == b'_' || d.is_ascii_alphabetic()) {
        let mut j = i + 1;
        while j < b.len() && (b[j].is_ascii_alphanumeric() || b[j] == b'_') {
            j += 1;
        }
        tokens.push(Token {
            line: start_line,
            kind: TokenKind::Lifetime,
        });
        return j;
    }
    // Multi-byte char literal like '∞' (UTF-8): find the closing quote.
    let mut j = i + 1;
    while j < b.len() && b[j] != b'\'' && b[j] != b'\n' {
        j += 1;
    }
    if b.get(j) == Some(&b'\'') {
        tokens.push(Token {
            line: start_line,
            kind: TokenKind::Char,
        });
        return j + 1;
    }
    if b.get(j) == Some(&b'\n') {
        *line += 1;
    }
    tokens.push(Token {
        line: start_line,
        kind: TokenKind::Punct('\''),
    });
    j
}

/// Scans one line-comment body for `xtask:allow(rule)` / `xtask:allow(rule):
/// reason` directives (several may share a line).
fn scan_line_comment(text: &str, line: u32, allows: &mut Vec<AllowDirective>) {
    const NEEDLE: &str = "xtask:allow(";
    let mut rest = text;
    while let Some(pos) = rest.find(NEEDLE) {
        let after = &rest[pos + NEEDLE.len()..];
        let Some(close) = after.find(')') else {
            return; // malformed: no closing paren — ignore the tail
        };
        let rule = after[..close].trim().to_string();
        let mut tail = &after[close + 1..];
        let reason = if let Some(stripped) = tail.strip_prefix(':') {
            // Reason runs to the end of the comment or the next directive.
            let end = stripped.find(NEEDLE).unwrap_or(stripped.len());
            let r = stripped[..end].trim().to_string();
            tail = &stripped[end..];
            r
        } else {
            String::new()
        };
        allows.push(AllowDirective { line, rule, reason });
        rest = tail;
    }
}

#[cfg(test)]
mod tests;
