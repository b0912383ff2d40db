//! The token rules of contract rule 9: each walks one file's flat token
//! stream and emits [`Finding`]s. Scopes are decided by
//! [`super::check_file`].

use crate::lexer::{ident_at, path_at, punct_at, Token, TokenKind};

use super::{closure_bound_names, for_each_closure, is_par_entry, statement_end, Finding};

/// `hash-iteration`: any `HashMap`/`HashSet` mention in a deterministic
/// crate must be justified. Iteration order of the `std` hash containers is
/// seeded per process, so even a single stray `for (k, v) in &map` breaks
/// bit-identical replay; membership-only use is fine but must say so.
pub(super) fn hash_iteration(toks: &[Token], out: &mut Vec<Finding>) {
    for t in toks {
        if let TokenKind::Ident(name) = &t.kind {
            if name == "HashMap" || name == "HashSet" {
                out.push(Finding {
                    rule: "hash-iteration",
                    line: t.line,
                    message: format!(
                        "`{name}` in a deterministic crate: its iteration order is \
                         seeded per process and would break bit-identical replay. \
                         Use a sorted `Vec`/index array/`BTreeMap`, or justify \
                         membership-only use with \
                         `// xtask:allow(hash-iteration): <why no iteration>`"
                    ),
                });
            }
        }
    }
}

/// `wall-clock`: `Instant::now` / `SystemTime` outside `crates/bench` and
/// the vendored criterion leak real time into code that must replay.
pub(super) fn wall_clock(toks: &[Token], out: &mut Vec<Finding>) {
    for i in 0..toks.len() {
        if ident_at(toks, i) == Some("SystemTime") {
            out.push(Finding {
                rule: "wall-clock",
                line: toks[i].line,
                message: "`SystemTime` is banned outside crates/bench and \
                          crates/compat/criterion: wall-clock reads make runs \
                          unreproducible. Thread a logical round/epoch counter \
                          instead"
                    .to_string(),
            });
        }
        if path_at(toks, i, "Instant", "now") {
            out.push(Finding {
                rule: "wall-clock",
                line: toks[i].line,
                message: "`Instant::now()` is banned outside crates/bench and \
                          crates/compat/criterion: timing reads must not steer \
                          replayable state. If this only feeds human-facing \
                          output, say so with `// xtask:allow(wall-clock): <why>`"
                    .to_string(),
            });
        }
    }
}

/// `thread-observable`: `thread::current`, `available_parallelism` and
/// `"RAYON_NUM_THREADS"` reads outside the vendored rayon make results a
/// function of the pool shape, which the contract forbids.
pub(super) fn thread_observable(toks: &[Token], out: &mut Vec<Finding>) {
    for i in 0..toks.len() {
        match &toks[i].kind {
            TokenKind::Ident(s) if s == "available_parallelism" => out.push(Finding {
                rule: "thread-observable",
                line: toks[i].line,
                message: "`available_parallelism` is banned outside \
                          crates/compat/rayon: results must be independent of \
                          the machine's core count. Ask the rayon facade for a \
                          *logical* worker count if one is genuinely needed"
                    .to_string(),
            }),
            TokenKind::Ident(_) if path_at(toks, i, "thread", "current") => out.push(Finding {
                rule: "thread-observable",
                line: toks[i].line,
                message: "`thread::current` is banned outside \
                          crates/compat/rayon: thread identity must never \
                          reach replayable state"
                    .to_string(),
            }),
            TokenKind::Str(s) if s.contains("RAYON_NUM_THREADS") => out.push(Finding {
                rule: "thread-observable",
                line: toks[i].line,
                message: "reading `RAYON_NUM_THREADS` outside crates/compat/rayon \
                          duplicates the pool-size policy; go through the rayon \
                          facade so there is a single observable knob"
                    .to_string(),
            }),
            _ => {}
        }
    }
}

/// `unwrap-audit`: `.unwrap()` / `.expect(` in library code panics instead
/// of degrading; each site must be converted or carry a justification.
pub(super) fn unwrap_audit(toks: &[Token], out: &mut Vec<Finding>) {
    for i in 0..toks.len() {
        let Some(name) = ident_at(toks, i) else {
            continue;
        };
        if (name == "unwrap" || name == "expect")
            && punct_at(toks, i.wrapping_sub(1), '.')
            && punct_at(toks, i + 1, '(')
        {
            out.push(Finding {
                rule: "unwrap-audit",
                line: toks[i].line,
                message: format!(
                    "`.{name}()` in library code: return/propagate an error, use \
                     a non-panicking fallback, or justify the invariant with \
                     `// xtask:allow(unwrap-audit): <why infallible>`"
                ),
            });
        }
    }
}

/// RNG methods whose receiver we treat as "an RNG being consumed".
const RNG_METHODS: &[&str] = &[
    "gen",
    "gen_range",
    "gen_bool",
    "gen_ratio",
    "sample",
    "next_u32",
    "next_u64",
    "fill",
    "fill_bytes",
];

/// `shared-rng`: inside a rayon parallel closure, using an RNG that was
/// *captured* from the enclosing scope (rather than constructed inside the
/// closure) splits one stream across a scheduling-dependent interleaving.
/// The sanctioned pattern is the per-identity hash of `netsim::faults`:
/// derive a fresh `SmallRng` from a pure hash of the item's identity,
/// inside the closure.
///
/// Heuristic, by design: an identifier counts as RNG-like when its
/// lowercased name contains `rng`; it counts as captured when neither the
/// closure's parameters nor a `let`/`for` binding inside the closure body
/// introduce it. The fixture suite pins both directions.
pub(super) fn shared_rng(toks: &[Token], out: &mut Vec<Finding>) {
    for i in (0..toks.len()).filter(|&i| is_par_entry(toks, i)) {
        for_each_closure(&toks[i..statement_end(toks, i)], &mut |params, body| {
            let bound = closure_bound_names(params, body);
            for j in 0..body.len() {
                let Some(name) = ident_at(body, j) else {
                    continue;
                };
                if !name.to_lowercase().contains("rng") || bound.iter().any(|b| b == name) {
                    continue;
                }
                let consumed_as_rng =
                    // `rng.gen_range(…)` and friends.
                    (punct_at(body, j + 1, '.')
                        && ident_at(body, j + 2).is_some_and(|m| RNG_METHODS.contains(&m)))
                    // `&mut rng` handed onward.
                    || (punct_at(body, j.wrapping_sub(2), '&')
                        && ident_at(body, j.wrapping_sub(1)) == Some("mut"));
                if consumed_as_rng {
                    out.push(Finding {
                        rule: "shared-rng",
                        line: body[j].line,
                        message: format!(
                            "`{name}` is captured by a rayon parallel closure: one RNG \
                             stream consumed from multiple tasks makes the draw order \
                             scheduling-dependent. Derive a per-item rng inside the \
                             closure from a pure identity hash \
                             (see netsim::faults), or justify with \
                             `// xtask:allow(shared-rng): <why single-threaded>`"
                        ),
                    });
                }
            }
        });
    }
}
