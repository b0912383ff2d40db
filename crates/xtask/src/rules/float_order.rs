//! `float-order`: no cross-item float reduction at the chain level of a
//! rayon adapter (contract rule 3). See the table in [`super`].

use crate::lexer::{punct_at, Token, TokenKind};

use super::{is_par_entry, statement_end, Finding};

// ---------------------------------------------------------------------
// float-order
// ---------------------------------------------------------------------

/// Chain-level reduction methods that combine results *across* parallel
/// items.
const REDUCERS: &[&str] = &["sum", "product", "reduce", "fold"];

/// Element types whose addition is associative, so cross-item reduction
/// order cannot change the result.
const ORDER_SAFE_TYPES: &[&str] = &[
    "bool", "i128", "i16", "i32", "i64", "i8", "isize", "u128", "u16", "u32", "u64", "u8", "usize",
];

pub(super) fn float_order(toks: &[Token], out: &mut Vec<Finding>) {
    let mut i = 0usize;
    while i < toks.len() {
        if !is_par_entry(toks, i) {
            i += 1;
            continue;
        }
        let end = statement_end(toks, i);
        // Chain level = delimiter depth 0 relative to the adapter; closure
        // bodies and argument lists sit at depth ≥ 1, so their sequential
        // per-item reductions are exempt by construction.
        let mut depth = 0i32;
        let mut j = i;
        while j < end {
            match &toks[j].kind {
                TokenKind::Punct('(' | '[' | '{') => depth += 1,
                TokenKind::Punct(')' | ']' | '}') => depth -= 1,
                TokenKind::Ident(m)
                    if depth == 0
                        && REDUCERS.contains(&m.as_str())
                        && punct_at(toks, j.wrapping_sub(1), '.') =>
                {
                    match turbofish_types(toks, j + 1) {
                        Some(types)
                            if types.iter().all(|t| ORDER_SAFE_TYPES.contains(&t.as_str())) => {}
                        Some(_) => out.push(Finding {
                            rule: "float-order",
                            line: toks[j].line,
                            message: format!(
                                "float `.{m}()` across items of a rayon adapter: \
                                 the combination order depends on work splitting, \
                                 so the result is not bit-identical across thread \
                                 counts. Collect in input order and reduce \
                                 sequentially (runner::parallel_map), use the \
                                 order-preserving row-chunk idiom \
                                 (numerics matvec_into), or justify with \
                                 `// xtask:allow(float-order): <order-invariance \
                                 argument>`"
                            ),
                        }),
                        None => out.push(Finding {
                            rule: "float-order",
                            line: toks[j].line,
                            message: format!(
                                "`.{m}()` across items of a rayon adapter with no \
                                 element type visible: if the element is a float, \
                                 the combination order depends on work splitting. \
                                 Spell the type with a turbofish (`.{m}::<u64>()`) \
                                 if it is an integer, or reduce sequentially over \
                                 an order-preserving collect, or justify with \
                                 `// xtask:allow(float-order): <order-invariance \
                                 argument>`"
                            ),
                        }),
                    }
                }
                _ => {}
            }
            j += 1;
        }
        i = end.max(i + 1);
    }
}

/// The identifier list of a `::<...>` turbofish starting at `i`, or `None`
/// when there is no turbofish.
fn turbofish_types(toks: &[Token], i: usize) -> Option<Vec<String>> {
    if !(punct_at(toks, i, ':') && punct_at(toks, i + 1, ':') && punct_at(toks, i + 2, '<')) {
        return None;
    }
    let mut types = Vec::new();
    let mut depth = 1i32;
    let mut j = i + 3;
    while j < toks.len() && depth > 0 {
        match &toks[j].kind {
            TokenKind::Punct('<') => depth += 1,
            TokenKind::Punct('>') => depth -= 1,
            TokenKind::Ident(s) => types.push(s.clone()),
            _ => {}
        }
        j += 1;
    }
    Some(types)
}
