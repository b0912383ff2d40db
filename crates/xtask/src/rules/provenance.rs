//! `rng-provenance`: RNG parameters must stay pure, length-deterministic
//! streams and never cross a rayon closure boundary (contract rules 1, 4,
//! 6, 7). See the table in [`super`] and the false-positive notes there.

use crate::lexer::{ident_at, punct_at, Token, TokenKind};
use crate::parser::{matching, ParsedFile};

use super::{
    ambient_read, closure_bound_names, for_each_closure, is_par_entry, statement_end, Finding, FnDb,
};

// ---------------------------------------------------------------------
// rng-provenance
// ---------------------------------------------------------------------

pub(super) fn rng_provenance(
    toks: &[Token],
    parsed: &ParsedFile,
    db: &FnDb,
    out: &mut Vec<Finding>,
) {
    for f in &parsed.fns {
        let Some((b0, b1)) = f.body else { continue };
        let body = &toks[b0..b1];
        let mut rng_names: Vec<String> = f
            .params
            .iter()
            .filter(|p| p.is_rng() && !p.name.is_empty())
            .map(|p| p.name.clone())
            .collect();
        collect_reborrow_aliases(body, &mut rng_names);
        if !rng_names.is_empty() {
            early_return_between_draws(body, &rng_names, &f.name, out);
            ambient_state_reads(body, parsed, &f.name, out);
        }
        parallel_boundary(body, &rng_names, db, out);
    }
}

/// Adds `let [mut] alias = &mut [*] rng;` reborrow names to the tracked
/// set (the `npd_core::model` idiom for passing one stream to several
/// callees), iterating to a fixpoint so aliases of aliases are covered.
fn collect_reborrow_aliases(body: &[Token], names: &mut Vec<String>) {
    loop {
        let mut grew = false;
        let mut i = 0usize;
        while i < body.len() {
            if ident_at(body, i) != Some("let") {
                i += 1;
                continue;
            }
            let mut j = i + 1;
            if ident_at(body, j) == Some("mut") {
                j += 1;
            }
            let Some(alias) = ident_at(body, j) else {
                i += 1;
                continue;
            };
            // `= & mut [*] <tracked> ;`
            let mut k = j + 1;
            if !punct_at(body, k, '=') || !punct_at(body, k + 1, '&') {
                i = j;
                continue;
            }
            k += 2;
            if ident_at(body, k) == Some("mut") {
                k += 1;
            }
            if punct_at(body, k, '*') {
                k += 1;
            }
            let src_is_tracked = ident_at(body, k).is_some_and(|s| names.iter().any(|n| n == s))
                && punct_at(body, k + 1, ';');
            if src_is_tracked && !names.iter().any(|n| n == alias) {
                names.push(alias.to_string());
                grew = true;
            }
            i = k;
        }
        if !grew {
            break;
        }
    }
}

/// Token-index ranges of `loop`/`while`/`for` bodies within `body`.
fn loop_regions(body: &[Token]) -> Vec<(usize, usize)> {
    let mut regions = Vec::new();
    let mut i = 0usize;
    while i < body.len() {
        if !matches!(ident_at(body, i), Some("loop" | "while" | "for")) {
            i += 1;
            continue;
        }
        // Seek the block `{` of this construct, balancing over any
        // parenthesized/indexed groups in the header expression.
        let mut j = i + 1;
        while j < body.len() {
            match body[j].kind {
                TokenKind::Punct('(' | '[') => j = matching(body, j) + 1,
                TokenKind::Punct('{') => break,
                TokenKind::Punct(';' | '}') => break,
                _ => j += 1,
            }
        }
        if punct_at(body, j, '{') {
            let close = matching(body, j);
            regions.push((j, close));
            // Continue scanning *inside* the loop too (nested loops), but
            // from past the header.
        }
        i = j + 1;
    }
    regions
}

/// Flags `return`s that sit between draws from a tracked RNG outside any
/// loop body: the number of variates consumed becomes a function of the
/// data, so two inputs of equal size leave the stream in different
/// positions and every draw downstream diverges.
fn early_return_between_draws(
    body: &[Token],
    rng_names: &[String],
    fn_name: &str,
    out: &mut Vec<Finding>,
) {
    let draws: Vec<usize> = (0..body.len())
        .filter(|&i| ident_at(body, i).is_some_and(|s| rng_names.iter().any(|n| n == s)))
        .collect();
    if draws.len() < 2 {
        return;
    }
    let loops = loop_regions(body);
    for i in 0..body.len() {
        if ident_at(body, i) != Some("return") {
            continue;
        }
        if loops.iter().any(|&(a, b)| a <= i && i <= b) {
            continue;
        }
        let end = statement_end(body, i);
        if draws.iter().any(|&d| d >= i && d <= end) {
            continue; // the return expression itself draws (delegation)
        }
        let before = draws.iter().any(|&d| d < i);
        let after = draws.iter().any(|&d| d > end);
        if before && after {
            out.push(Finding {
                rule: "rng-provenance",
                line: body[i].line,
                message: format!(
                    "`{fn_name}` returns between draws from its RNG parameter: the \
                     number of variates consumed becomes data-dependent, so every \
                     draw downstream of the call replays differently. Hoist the \
                     draws above the branch, move the guard before the first draw, \
                     or justify with `// xtask:allow(rng-provenance): <why the \
                     stream position stays input-independent>`"
                ),
            });
        }
    }
}

/// Flags ambient-state reads inside a fn that takes an RNG: such a fn
/// claims `(args, stream) -> value` purity, and wall clock / environment /
/// thread observables / ambient RNGs / mutable statics silently widen its
/// input set (contract rules 1 and 6).
fn ambient_state_reads(body: &[Token], parsed: &ParsedFile, fn_name: &str, out: &mut Vec<Finding>) {
    for i in 0..body.len() {
        let Some(what) = ambient_read(body, i, parsed) else {
            continue;
        };
        out.push(Finding {
            rule: "rng-provenance",
            line: body[i].line,
            message: format!(
                "`{fn_name}` takes an RNG but also reads {what}: a sampling fn \
                 must be a pure function of (args, stream). Thread the value in \
                 as a parameter, or justify with \
                 `// xtask:allow(rng-provenance): <why output-invariant>`"
            ),
        });
    }
}

/// Flags tracked RNG parameters (and their reborrow aliases) used inside a
/// rayon closure, plus captured identifiers handed to a known fn's RNG
/// position — even when the variable's *name* says nothing about RNGs,
/// which is what the token-level `shared-rng` heuristic cannot see.
fn parallel_boundary(body: &[Token], rng_names: &[String], db: &FnDb, out: &mut Vec<Finding>) {
    let mut i = 0usize;
    while i < body.len() {
        if !is_par_entry(body, i) {
            i += 1;
            continue;
        }
        let end = statement_end(body, i);
        let span = &body[i..end];
        let mut seen: Vec<(u32, String)> = Vec::new();
        for_each_closure(span, &mut |params, cbody| {
            let bound = closure_bound_names(params, cbody);
            for t in 0..cbody.len() {
                let Some(name) = ident_at(cbody, t) else {
                    continue;
                };
                let line = cbody[t].line;
                // (i) direct use of a tracked RNG parameter.
                if rng_names.iter().any(|n| n == name)
                    && !bound.iter().any(|b| b == name)
                    && !seen.contains(&(line, name.to_string()))
                {
                    seen.push((line, name.to_string()));
                    out.push(Finding {
                        rule: "rng-provenance",
                        line,
                        message: format!(
                            "RNG parameter `{name}` crosses a rayon closure \
                             boundary: one stream consumed from concurrently \
                             scheduled tasks draws in scheduling order. Derive a \
                             per-item rng inside the closure from a pure identity \
                             hash (see netsim::faults), or justify with \
                             `// xtask:allow(rng-provenance): <why sequential>`"
                        ),
                    });
                }
                // (ii) captured identifier handed to a known RNG position.
                if punct_at(cbody, t + 1, '(') {
                    let Some(positions) = db.rng_positions(name) else {
                        continue;
                    };
                    let close = matching(cbody, t + 1);
                    let args = split_args(&cbody[t + 2..close]);
                    for &pos in &positions {
                        let Some(arg) = args.get(pos) else { continue };
                        let Some(arg_name) = lone_ident(arg) else {
                            continue;
                        };
                        if arg_name == "self"
                            || bound.iter().any(|b| b == arg_name)
                            || seen.contains(&(cbody[t].line, arg_name.to_string()))
                        {
                            continue;
                        }
                        seen.push((cbody[t].line, arg_name.to_string()));
                        out.push(Finding {
                            rule: "rng-provenance",
                            line: cbody[t].line,
                            message: format!(
                                "`{arg_name}` is captured by a rayon closure and \
                                 passed to `{name}`, whose parameter {pos} is an \
                                 RNG: the stream splits across scheduled tasks. \
                                 Derive a per-item rng inside the closure from a \
                                 pure identity hash (see netsim::faults), or \
                                 justify with `// xtask:allow(rng-provenance): \
                                 <why sequential>`"
                            ),
                        });
                    }
                }
            }
        });
        i = end.max(i + 1);
    }
}

/// Splits a call's argument tokens at depth-0 commas.
fn split_args(toks: &[Token]) -> Vec<Vec<Token>> {
    let mut args = Vec::new();
    let mut cur: Vec<Token> = Vec::new();
    let mut depth = 0i32;
    for t in toks {
        match t.kind {
            TokenKind::Punct('(' | '[' | '{') => depth += 1,
            TokenKind::Punct(')' | ']' | '}') => depth -= 1,
            TokenKind::Punct(',') if depth == 0 => {
                args.push(std::mem::take(&mut cur));
                continue;
            }
            _ => {}
        }
        cur.push(t.clone());
    }
    if !cur.is_empty() {
        args.push(cur);
    }
    args
}

/// The single identifier of an argument after stripping `&`/`mut`/`*`
/// sigils, or `None` for anything more structured.
fn lone_ident(arg: &[Token]) -> Option<&str> {
    let mut name = None;
    for t in arg {
        match &t.kind {
            TokenKind::Punct('&' | '*') => {}
            TokenKind::Ident(s) if s == "mut" => {}
            TokenKind::Ident(s) => {
                if name.is_some() {
                    return None;
                }
                name = Some(s.as_str());
            }
            _ => return None,
        }
    }
    name
}
