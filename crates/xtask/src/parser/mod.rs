//! A lightweight item-granularity Rust parser on top of [`crate::lexer`].
//!
//! The build environment is offline (no `syn`), so this module recovers
//! just enough structure from the token stream for the parser-level rules
//! in [`crate::rules`]:
//!
//! * **items** — `fn`, `impl`, `static`, `mod` (recursed into),
//!   everything else (`use` included) skipped with balanced-delimiter
//!   recovery;
//! * **fn signatures** — name, parameter names and the identifier tokens
//!   of each parameter's type (enough to recognize `&mut impl Rng`,
//!   `&mut dyn RngCore`, `SmallRng`, …), plus the token range of the body;
//! * **impl blocks** — trait name (for `impl Trait for Type`), type name,
//!   and the methods they contain;
//! * **statics** — name and whether the item is observable mutable state.
//!
//! The parser never fails: unrecognized constructs are skipped token by
//! token, so a file that rustc rejects still yields whatever items were
//! recoverable. Rules must therefore treat absence as "not proven", never
//! as "proven absent".

use crate::lexer::{ident_at, punct_at, Lexed, Token, TokenKind};

/// One parsed function (free or associated).
#[derive(Debug, Clone)]
pub struct FnItem {
    /// Function name (associated fns keep just the method name).
    pub name: String,
    /// 1-indexed line of the `fn` keyword.
    pub line: u32,
    /// Parsed value parameters (receiver `self` excluded).
    pub params: Vec<Param>,
    /// Token-index range of the body *interior* (exclusive of the braces);
    /// `None` for bodyless declarations (`fn f();` in traits/extern).
    pub body: Option<(usize, usize)>,
    /// Index into [`ParsedFile::impls`] when this fn is an associated item.
    pub impl_index: Option<usize>,
}

/// One `fn` parameter.
#[derive(Debug, Clone)]
pub struct Param {
    /// Binding name (the last identifier of the pattern, `mut`/`ref`
    /// stripped); empty for purely structural patterns.
    pub name: String,
    /// The identifier tokens of the type, in order (`&mut impl Rng` →
    /// `["mut", "impl", "Rng"]` — punctuation dropped, `mut` kept because
    /// the lexer classes it as an identifier).
    pub ty: Vec<String>,
}

impl Param {
    /// Whether this parameter is an RNG by type (`Rng`, `RngCore`,
    /// `SmallRng`, `StdRng` anywhere in the type) or by name (`rng`, or a
    /// `_rng` suffix).
    pub fn is_rng(&self) -> bool {
        self.ty
            .iter()
            .any(|t| matches!(t.as_str(), "Rng" | "RngCore" | "SmallRng" | "StdRng"))
            || self.name == "rng"
            || self.name.ends_with("_rng")
    }
}

/// One `impl` block.
#[derive(Debug, Clone)]
pub struct ImplItem {
    /// `Some("Trait")` for `impl Trait for Type`, `None` for inherent.
    pub trait_name: Option<String>,
    /// The implementing type's head identifier.
    pub type_name: String,
    /// 1-indexed line of the `impl` keyword.
    pub line: u32,
}

/// One `static` item.
#[derive(Debug, Clone)]
pub struct StaticItem {
    /// Item name.
    pub name: String,
    /// 1-indexed line of the `static` keyword.
    pub line: u32,
    /// `static mut`, or a type mentioning an interior-mutability /
    /// synchronization primitive — i.e. observable mutable process state,
    /// as opposed to a plain constant table.
    pub hazardous: bool,
}

/// Type identifiers that make a `static` observable mutable state.
const INTERIOR_MUTABILITY: &[&str] = &[
    "AtomicBool",
    "AtomicI32",
    "AtomicI64",
    "AtomicIsize",
    "AtomicU32",
    "AtomicU64",
    "AtomicU8",
    "AtomicUsize",
    "Cell",
    "Mutex",
    "OnceCell",
    "OnceLock",
    "RefCell",
    "RwLock",
    "UnsafeCell",
];

/// Item-level structure recovered from one source file.
#[derive(Debug, Default)]
pub struct ParsedFile {
    /// Every function, including associated fns inside `impl`/`mod` blocks.
    pub fns: Vec<FnItem>,
    /// Every `impl` block.
    pub impls: Vec<ImplItem>,
    /// `static` items declared anywhere in the file.
    pub statics: Vec<StaticItem>,
}

/// Returns the index of the delimiter closing the one at `open` (assumed
/// to be `(`, `[` or `{`), or `toks.len()` when unbalanced.
pub fn matching(toks: &[Token], open: usize) -> usize {
    let mut depth = 0usize;
    let mut i = open;
    while i < toks.len() {
        match toks[i].kind {
            TokenKind::Punct('(' | '[' | '{') => depth += 1,
            TokenKind::Punct(')' | ']' | '}') => {
                depth -= 1;
                if depth == 0 {
                    return i;
                }
            }
            _ => {}
        }
        i += 1;
    }
    toks.len()
}

/// Parses a lexed file into its item structure.
pub fn parse(lexed: &Lexed) -> ParsedFile {
    let mut file = ParsedFile::default();
    parse_items(&lexed.tokens, 0, lexed.tokens.len(), None, &mut file);
    file
}

/// Parses the item sequence in `toks[start..end]` (a file body, `mod`
/// interior, or `impl` interior), appending to `file`.
fn parse_items(
    toks: &[Token],
    start: usize,
    end: usize,
    impl_index: Option<usize>,
    file: &mut ParsedFile,
) {
    let mut i = start;
    while i < end {
        // Attributes: `#[...]` / `#![...]`.
        if punct_at(toks, i, '#') {
            let mut j = i + 1;
            if punct_at(toks, j, '!') {
                j += 1;
            }
            if punct_at(toks, j, '[') {
                i = matching(toks, j) + 1;
                continue;
            }
            i += 1;
            continue;
        }
        match ident_at(toks, i) {
            // Qualifiers that may precede an item keyword.
            Some("pub") => {
                i += 1;
                if punct_at(toks, i, '(') {
                    i = matching(toks, i) + 1;
                }
            }
            Some("unsafe" | "async" | "default") => i += 1,
            Some("extern") => {
                i += 1;
                if matches!(
                    toks.get(i),
                    Some(Token {
                        kind: TokenKind::Str(_),
                        ..
                    })
                ) {
                    i += 1;
                }
                // `extern "C" { ... }` block: recurse into it.
                if punct_at(toks, i, '{') {
                    let close = matching(toks, i);
                    parse_items(toks, i + 1, close, impl_index, file);
                    i = close + 1;
                }
            }
            Some("const") => {
                // `const fn` falls through to `fn`; `const NAME: T = ...;`
                // is skipped to its terminating `;`.
                if ident_at(toks, i + 1) == Some("fn") {
                    i += 1;
                } else {
                    i = skip_to_semicolon(toks, i + 1, end);
                }
            }
            Some("fn") => i = parse_fn(toks, i, end, impl_index, file),
            Some("impl") => i = parse_impl(toks, i, end, file),
            // `use` declarations feed no rule; skip them whole so they are
            // not parsed as items.
            Some("use") => i = skip_to_semicolon(toks, i + 1, end),
            Some("static") => {
                let line = toks[i].line;
                let mut j = i + 1;
                let is_mut = ident_at(toks, j) == Some("mut");
                if is_mut {
                    j += 1;
                }
                if let Some(name) = ident_at(toks, j) {
                    let next = skip_to_semicolon(toks, j, end);
                    let hazardous = is_mut
                        || toks[j..next].iter().any(|t| match &t.kind {
                            TokenKind::Ident(s) => INTERIOR_MUTABILITY.contains(&s.as_str()),
                            _ => false,
                        });
                    file.statics.push(StaticItem {
                        name: name.to_string(),
                        line,
                        hazardous,
                    });
                    i = next;
                } else {
                    i = skip_to_semicolon(toks, j, end);
                }
            }
            Some("mod") => {
                // `mod name { items }` recursed into; `mod name;` skipped.
                let mut j = i + 1;
                while j < end && !punct_at(toks, j, '{') && !punct_at(toks, j, ';') {
                    j += 1;
                }
                if punct_at(toks, j, '{') {
                    let close = matching(toks, j);
                    parse_items(toks, j + 1, close, None, file);
                    i = close + 1;
                } else {
                    i = j + 1;
                }
            }
            Some("struct" | "enum" | "union" | "trait" | "type" | "macro_rules") => {
                i = skip_item(toks, i + 1, end);
            }
            _ => i += 1,
        }
    }
}

/// Skips to just past the next `;` at delimiter depth 0, balancing any
/// bracketed groups on the way (initializers can contain braces).
fn skip_to_semicolon(toks: &[Token], mut i: usize, end: usize) -> usize {
    while i < end {
        match toks[i].kind {
            TokenKind::Punct('(' | '[' | '{') => i = matching(toks, i) + 1,
            TokenKind::Punct(';') => return i + 1,
            _ => i += 1,
        }
    }
    end
}

/// Skips a struct/enum/trait/type item body: to the first `;` or past the
/// first balanced `{...}` at depth 0 (whichever comes first).
fn skip_item(toks: &[Token], mut i: usize, end: usize) -> usize {
    while i < end {
        match toks[i].kind {
            TokenKind::Punct('(' | '[') => i = matching(toks, i) + 1,
            TokenKind::Punct('{') => return matching(toks, i) + 1,
            TokenKind::Punct(';') => return i + 1,
            _ => i += 1,
        }
    }
    end
}

/// Skips a `<...>` generics group starting at `i` (which must be `<`),
/// tracking angle-bracket depth. Returns the index past the closing `>`.
fn skip_generics(toks: &[Token], mut i: usize, end: usize) -> usize {
    let mut depth = 0i32;
    let open = i;
    while i < end {
        match toks[i].kind {
            TokenKind::Punct('<') => depth += 1,
            // `>` preceded by `-` is the arrow of an `Fn(..) -> Ret` bound,
            // not a closing angle bracket.
            TokenKind::Punct('>') if !(i > open && punct_at(toks, i - 1, '-')) => {
                depth -= 1;
                if depth <= 0 {
                    return i + 1;
                }
            }
            // Parenthesized groups inside generics (`Fn(A) -> B` bounds).
            TokenKind::Punct('(' | '[') => i = matching(toks, i),
            _ => {}
        }
        i += 1;
    }
    end
}

/// Parses `fn name<...>(params) -> Ret {body}` starting at the `fn`
/// keyword; returns the index past the item.
fn parse_fn(
    toks: &[Token],
    fn_kw: usize,
    end: usize,
    impl_index: Option<usize>,
    file: &mut ParsedFile,
) -> usize {
    let line = toks[fn_kw].line;
    let Some(name) = ident_at(toks, fn_kw + 1) else {
        return fn_kw + 1;
    };
    let name = name.to_string();
    let mut i = fn_kw + 2;
    if punct_at(toks, i, '<') {
        i = skip_generics(toks, i, end);
    }
    if !punct_at(toks, i, '(') {
        return i;
    }
    let params_close = matching(toks, i);
    let params = parse_params(&toks[i + 1..params_close]);
    // Seek the body `{` (or a `;` for bodyless declarations), skipping the
    // return type and any `where` clause. Bracketed groups (e.g. `-> [f64;
    // 2]`, `where F: Fn(A)`) are balanced over.
    let mut j = params_close + 1;
    let mut body = None;
    while j < end {
        match toks[j].kind {
            TokenKind::Punct('(' | '[') => j = matching(toks, j) + 1,
            TokenKind::Punct('<') => j = skip_generics(toks, j, end),
            TokenKind::Punct('{') => {
                let close = matching(toks, j);
                body = Some((j + 1, close));
                j = close + 1;
                break;
            }
            TokenKind::Punct(';') => {
                j += 1;
                break;
            }
            _ => j += 1,
        }
    }
    file.fns.push(FnItem {
        name,
        line,
        params,
        body,
        impl_index,
    });
    j
}

/// Splits a parameter list's tokens at depth-0 commas and extracts each
/// parameter's binding name and type identifiers.
fn parse_params(toks: &[Token]) -> Vec<Param> {
    let mut params = Vec::new();
    let mut start = 0usize;
    let mut i = 0usize;
    let mut angle = 0i32;
    while i <= toks.len() {
        let at_split =
            i == toks.len() || (angle == 0 && matches!(toks[i].kind, TokenKind::Punct(',')));
        if at_split {
            if let Some(p) = parse_one_param(&toks[start..i]) {
                params.push(p);
            }
            start = i + 1;
            i += 1;
            continue;
        }
        match toks[i].kind {
            TokenKind::Punct('(' | '[' | '{') => {
                i = matching(toks, i) + 1;
                continue;
            }
            TokenKind::Punct('<') => angle += 1,
            TokenKind::Punct('>') => angle -= 1,
            _ => {}
        }
        i += 1;
    }
    params
}

fn parse_one_param(toks: &[Token]) -> Option<Param> {
    if toks.is_empty() {
        return None;
    }
    // Receiver (`self`, `&self`, `&mut self`, `mut self`) — not a value
    // parameter.
    let idents: Vec<&str> = toks
        .iter()
        .filter_map(|t| match &t.kind {
            TokenKind::Ident(s) => Some(s.as_str()),
            _ => None,
        })
        .collect();
    let colon = toks
        .iter()
        .position(|t| matches!(t.kind, TokenKind::Punct(':')));
    if colon.is_none() && idents.last() == Some(&"self") {
        return None;
    }
    let colon = colon?;
    let name = toks[..colon]
        .iter()
        .filter_map(|t| match &t.kind {
            TokenKind::Ident(s) if s != "mut" && s != "ref" => Some(s.clone()),
            _ => None,
        })
        .next_back()
        .unwrap_or_default();
    let ty = toks[colon + 1..]
        .iter()
        .filter_map(|t| match &t.kind {
            TokenKind::Ident(s) => Some(s.clone()),
            _ => None,
        })
        .collect();
    Some(Param { name, ty })
}

/// Parses `impl<...> Trait for Type {items}` / `impl Type {items}`
/// starting at the `impl` keyword; returns the index past the block.
fn parse_impl(toks: &[Token], impl_kw: usize, end: usize, file: &mut ParsedFile) -> usize {
    let line = toks[impl_kw].line;
    let mut i = impl_kw + 1;
    if punct_at(toks, i, '<') {
        i = skip_generics(toks, i, end);
    }
    // Head: tokens up to `{` (or a terminating `;`), split by `for`.
    let mut head_idents_before_for: Vec<String> = Vec::new();
    let mut head_idents_after_for: Vec<String> = Vec::new();
    let mut saw_for = false;
    while i < end {
        match &toks[i].kind {
            TokenKind::Punct('{') => break,
            TokenKind::Punct(';') => return i + 1,
            TokenKind::Punct('<') => {
                i = skip_generics(toks, i, end);
                continue;
            }
            TokenKind::Punct('(' | '[') => {
                i = matching(toks, i) + 1;
                continue;
            }
            TokenKind::Ident(s) if s == "for" => saw_for = true,
            TokenKind::Ident(s) if s == "where" => {
                // `where` clause: the head is complete.
                while i < end && !punct_at(toks, i, '{') {
                    if punct_at(toks, i, '<') {
                        i = skip_generics(toks, i, end);
                    } else {
                        i += 1;
                    }
                }
                break;
            }
            TokenKind::Ident(s) => {
                if saw_for {
                    head_idents_after_for.push(s.clone());
                } else {
                    head_idents_before_for.push(s.clone());
                }
            }
            _ => {}
        }
        i += 1;
    }
    if !punct_at(toks, i, '{') {
        return i;
    }
    let close = matching(toks, i);
    let (trait_name, type_name) = if saw_for {
        // Trait path: the last segment before `for` is the trait ident
        // (path prefixes like `npd_core::design::` come earlier).
        (
            head_idents_before_for.last().cloned(),
            head_idents_after_for.last().cloned().unwrap_or_default(),
        )
    } else {
        (
            None,
            head_idents_before_for.last().cloned().unwrap_or_default(),
        )
    };
    let idx = file.impls.len();
    file.impls.push(ImplItem {
        trait_name,
        type_name,
        line,
    });
    parse_items(toks, i + 1, close, Some(idx), file);
    close + 1
}

#[cfg(test)]
mod tests;
