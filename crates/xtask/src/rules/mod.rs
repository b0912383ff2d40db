//! The determinism-contract rules (docs/ARCHITECTURE.md, contract rules 9
//! and 10), one registry for `cargo run -p xtask -- check`.
//!
//! Each file rule sees one file twice over: as a flat token stream
//! (comments stripped, literals opaque, see [`crate::lexer`]) and as item
//! structure (fn signatures, impl blocks, statics, see [`crate::parser`]).
//! The five token rules of contract rule 9 match token sequences; the
//! parser rules of contract rule 10 need that structure. The engine then
//! applies `// xtask:allow(rule): reason` suppression and polices that
//! every directive names a rule of [`RULE_NAMES`], carries a written
//! reason, and suppresses something (`allow-audit`).
//!
//! | rule | scope | hazard |
//! |------|-------|--------|
//! | `hash-iteration` | deterministic crates | `std` `HashMap`/`HashSet` iteration order is seeded per process; any use must prove itself membership-only via an allow |
//! | `wall-clock` | all but `bench` and `compat` | `Instant::now`/`SystemTime` leak real time into replayable state |
//! | `thread-observable` | all but `compat` | `thread::current`, `available_parallelism`, `"RAYON_NUM_THREADS"` make output depend on the pool shape |
//! | `shared-rng` | deterministic crates | an outer RNG used inside a rayon closure splits its stream by scheduling order |
//! | `unwrap-audit` | library crates | `.unwrap()`/`.expect()` in library code panics instead of degrading |
//! | `rng-provenance` | all but `bench` and `compat` | an RNG parameter's stream stays length-deterministic (no draws split by data-dependent `return`s) and never crosses a rayon closure boundary — per-item pure-hash derivation is the only sanctioned parallel form |
//! | `float-order` | all but `bench` and `compat` | no cross-item float reduction (`sum`/`product`/`fold`/`reduce` at chain level) inside a rayon adapter span; integer turbofish reductions are exempt, and the order-preserving `par_chunks_mut + for_each` row-chunk idiom never reduces across items in the first place |
//! | `impl-purity` | all but `bench` and `compat` | `PoolingDesign` / `PopulationModel` / `NoiseModel` / `DesignSpec` impls are pure in `(params, n, stream)`: no wall clock, thread observables, ambient RNGs, environment reads, or (interior-)mutable statics (contract rules 6–8) |
//! | `clock-boundary` | all but the harness crates and `compat` | real-time `Clock` impls (the telemetry wall-time plane) exist only in harness crates; library crates keep the deterministic `NullClock` default (contract rule 11) |
//! | `contract-sync` | the workspace | ARCHITECTURE.md's numbered contract rules, the documented rule bullets, and every README scenario row / repro target still resolve against the live rule registry and the code |
//! | `allow-audit` | every escape | an `xtask:allow` names a known rule, gives a reason, and suppresses a finding |
//!
//! `#[cfg(test)]` modules and `#[test]` functions are exempt from every
//! rule: they never run inside a replayed experiment. Test-like files
//! (`tests/`, `benches/`, `examples/`) are different, because the
//! determinism-pinning tests are themselves part of the replay contract —
//! a pinned fingerprint computed by iterating a `HashMap`, or an assertion
//! ordered by wall clock, flakes exactly the way the contract forbids.
//! They get `hash-iteration`, `wall-clock` and the parser rules, and keep
//! their exemption from the library-hygiene rules (`thread-observable`,
//! `shared-rng`, `unwrap-audit`).
//!
//! Design notes on false positives the rules deliberately tolerate:
//!
//! * `rng-provenance` exempts `return`s inside `loop`/`while`/`for` bodies
//!   (rejection sampling draws a data-dependent *number* of variates but is
//!   still a pure function of the stream — `npd_numerics::rng` is built on
//!   this), `return`s before the first draw (argument guards), and
//!   `return`s whose own statement draws (the `n - binomial(rng, n, 1-p)`
//!   symmetry recursion).
//! * `float-order` only inspects reductions at the *chain level* of a
//!   parallel adapter: a sequential `fold`/`sum` inside a `for_each`
//!   closure runs per item in a fixed order and is exempt by construction.
//! * The parser rules treat absence of parse structure as "nothing to
//!   check": the parser never fails, so malformed code degrades to fewer
//!   findings, and the compile step — which always runs first in CI — owns
//!   syntax.

mod clock_boundary;
mod contract_sync;
mod float_order;
mod impl_purity;
mod provenance;
mod tokens;

pub(crate) use self::contract_sync::contract_sync;

use std::collections::BTreeMap;

use crate::lexer::{ident_at, path_at, punct_at, Lexed, Token, TokenKind};
use crate::parser::{matching, ParsedFile};

/// Every rule name, for directive validation and `--json` output.
/// `contract-sync` findings are workspace-level and cannot be suppressed
/// with an allow.
pub const RULE_NAMES: &[&str] = &[
    "hash-iteration",
    "wall-clock",
    "thread-observable",
    "shared-rng",
    "unwrap-audit",
    "rng-provenance",
    "float-order",
    "impl-purity",
    "clock-boundary",
    "contract-sync",
    "allow-audit",
];

/// The crates whose outputs are covered by the bit-identical-replay
/// contract (ARCHITECTURE.md rules 1–7).
pub const DETERMINISTIC_CRATES: &[&str] = &[
    "core",
    "netsim",
    "decoders",
    "workloads",
    "numerics",
    "sortnet",
    "adaptive",
    "telemetry",
];

/// Library crates audited for `unwrap()`/`expect()`: the deterministic set
/// plus the pure-math crates. The harness crates (`experiments`, `bench`,
/// `xtask`) are exempt — panicking on programmer error is their designed
/// failure mode — as are the vendored `compat` stand-ins.
pub const LIBRARY_CRATES: &[&str] = &[
    "core",
    "netsim",
    "decoders",
    "workloads",
    "numerics",
    "sortnet",
    "adaptive",
    "amp",
    "theory",
    "telemetry",
    "noisy_pooled_data",
];

/// What kind of source file this is, derived from its path.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FileKind {
    /// Ships in a library or binary (`src/`).
    Lib,
    /// Test, bench or example code: held to the harness subset of the
    /// rules (see the module docs).
    TestLike,
}

/// Per-file context: which crate the file belongs to and which rule
/// scopes apply.
#[derive(Debug, Clone)]
pub struct FileContext {
    /// Crate name as spelled in `crates/<name>` (compat crates are
    /// `compat/<name>`; the facade package is `noisy_pooled_data`).
    pub crate_name: String,
    /// Library vs test-like code.
    pub kind: FileKind,
}

impl FileContext {
    /// Context for an explicitly-passed path outside the workspace layout:
    /// the strictest one (deterministic library code), so fixture snippets
    /// exercise every rule.
    pub fn strict() -> Self {
        FileContext {
            crate_name: "core".to_string(),
            kind: FileKind::Lib,
        }
    }

    /// Derives the context from a path relative to the workspace root, or
    /// `None` when the file should not be checked at all (rule fixtures,
    /// generated code under `target/`).
    pub fn classify(rel_path: &str) -> Option<Self> {
        let norm = rel_path.replace('\\', "/");
        let parts: Vec<&str> = norm.split('/').collect();
        if parts.iter().any(|p| *p == "target" || *p == "fixtures") {
            return None;
        }
        let (crate_name, rest) = if parts.first() == Some(&"crates") {
            if parts.get(1) == Some(&"compat") {
                (
                    format!("compat/{}", parts.get(2)?),
                    parts.get(3..).unwrap_or(&[]),
                )
            } else {
                (parts.get(1)?.to_string(), parts.get(2..).unwrap_or(&[]))
            }
        } else {
            // Workspace-root `src/`, `tests/`, `examples/` belong to the
            // facade package.
            ("noisy_pooled_data".to_string(), &parts[..])
        };
        let kind = if rest
            .iter()
            .any(|p| matches!(*p, "tests" | "benches" | "examples"))
        {
            FileKind::TestLike
        } else {
            FileKind::Lib
        };
        Some(FileContext { crate_name, kind })
    }

    fn is_deterministic(&self) -> bool {
        DETERMINISTIC_CRATES.contains(&self.crate_name.as_str())
    }

    fn is_library(&self) -> bool {
        LIBRARY_CRATES.contains(&self.crate_name.as_str())
    }

    fn is_vendored(&self) -> bool {
        self.crate_name.starts_with("compat/")
    }

    /// Whether real time may be read here: the vendored compat tree exists
    /// to *wrap* nondeterminism, and `bench` is the timing harness. The
    /// parser rules skip these crates too.
    fn reads_real_time(&self) -> bool {
        self.is_vendored() || self.crate_name == "bench"
    }
}

/// One rule violation at a specific source line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Finding {
    /// Rule name (one of [`RULE_NAMES`]).
    pub rule: &'static str,
    /// 1-indexed line.
    pub line: u32,
    /// Human-readable explanation including the sanctioned fix.
    pub message: String,
}

/// Runs every rule that applies to one file. `contract-sync` is
/// workspace-level; see [`contract_sync`].
pub(crate) fn check_file(
    ctx: &FileContext,
    lexed: &Lexed,
    parsed: &ParsedFile,
    db: &FnDb,
) -> Vec<Finding> {
    let toks = &lexed.tokens;
    let mut findings = Vec::new();
    if ctx.kind == FileKind::TestLike {
        tokens::hash_iteration(toks, &mut findings);
        tokens::wall_clock(toks, &mut findings);
    } else {
        if ctx.is_deterministic() {
            tokens::hash_iteration(toks, &mut findings);
            tokens::shared_rng(toks, &mut findings);
        }
        if !ctx.reads_real_time() {
            tokens::wall_clock(toks, &mut findings);
        }
        if !ctx.is_vendored() {
            tokens::thread_observable(toks, &mut findings);
        }
        if ctx.is_library() {
            tokens::unwrap_audit(toks, &mut findings);
        }
    }
    if !ctx.reads_real_time() {
        provenance::rng_provenance(toks, parsed, db, &mut findings);
        float_order::float_order(toks, &mut findings);
        impl_purity::impl_purity(toks, parsed, &mut findings);
        clock_boundary::clock_boundary(ctx, toks, parsed, &mut findings);
    }
    if ctx.kind == FileKind::Lib {
        let regions = test_regions(toks);
        findings.retain(|f| !regions.iter().any(|&(a, b)| a <= f.line && f.line <= b));
    }
    findings
}

/// Cross-file function database: fn name → RNG-typed parameter positions
/// (receiver excluded). Built from every checked library file, consulted
/// when a call inside a parallel closure hands a captured identifier to a
/// known RNG position. Same-name definitions in different modules are
/// merged by intersection, so a collision can only ever *suppress* a
/// finding.
#[derive(Debug, Default)]
pub(crate) struct FnDb {
    map: BTreeMap<String, Vec<Vec<usize>>>,
}

impl FnDb {
    /// Records every fn in `parsed` that takes at least one RNG parameter,
    /// when the file is library code the parser rules check.
    pub(crate) fn add_file(&mut self, ctx: &FileContext, parsed: &ParsedFile) {
        if ctx.kind != FileKind::Lib || ctx.reads_real_time() {
            return;
        }
        for f in &parsed.fns {
            let positions: Vec<usize> = f
                .params
                .iter()
                .enumerate()
                .filter(|(_, p)| p.is_rng())
                .map(|(i, _)| i)
                .collect();
            if positions.is_empty() {
                continue;
            }
            self.map.entry(f.name.clone()).or_default().push(positions);
        }
    }

    /// Parameter positions that are RNG-typed in *every* recorded
    /// definition of `name`.
    fn rng_positions(&self, name: &str) -> Option<Vec<usize>> {
        let defs = self.map.get(name)?;
        let mut it = defs.iter();
        let mut acc: Vec<usize> = it.next()?.clone();
        for d in it {
            acc.retain(|p| d.contains(p));
        }
        if acc.is_empty() {
            None
        } else {
            Some(acc)
        }
    }
}

/// Line spans of `#[cfg(test)]`-gated items, `#[test]`/`#[bench]` functions
/// and everything else attribute-marked as test-only. An attribute counts
/// as test-gating when its tokens contain the ident `test` but not `not`
/// (`#[cfg(not(test))]` gates *production* code).
fn test_regions(toks: &[Token]) -> Vec<(u32, u32)> {
    let after_attr = |hash: usize| (matching(toks, hash + 1) + 1).min(toks.len());
    let mut regions = Vec::new();
    let mut i = 0usize;
    while i < toks.len() {
        if !(punct_at(toks, i, '#') && punct_at(toks, i + 1, '[')) {
            i += 1;
            continue;
        }
        let mut j = after_attr(i);
        let idents = || (i..j).filter_map(|t| ident_at(toks, t));
        let has_test = idents().any(|s| s == "test" || s == "bench");
        if !has_test || idents().any(|s| s == "not") {
            i = j;
            continue;
        }
        // Skip any further attributes, then find the item's body: the first
        // `{` before a `;` ends the search (a `;` means `mod tests;` or a
        // declaration with no inline body — nothing to span).
        while punct_at(toks, j, '#') && punct_at(toks, j + 1, '[') {
            j = after_attr(j);
        }
        let stop = (j..toks.len())
            .find(|&k| punct_at(toks, k, '{') || punct_at(toks, k, ';'))
            .unwrap_or(toks.len());
        if punct_at(toks, stop, '{') {
            let end = matching(toks, stop);
            regions.push((toks[i].line, toks.get(end).map_or(u32::MAX, |t| t.line)));
            i = end + 1;
        } else {
            i = stop + 1;
        }
    }
    regions
}

/// Rayon adapter / entry-point names that start a parallel region.
const PAR_ADAPTERS: &[&str] = &[
    "par_iter",
    "par_iter_mut",
    "into_par_iter",
    "par_chunks",
    "par_chunks_mut",
    "par_windows",
    "par_bridge",
    "par_extend",
    "par_sort",
    "par_sort_by",
    "par_sort_by_key",
    "par_sort_unstable",
];

/// Whether the ident at `i` opens a rayon parallel region (adapter method
/// or `rayon::{join, scope, spawn}`).
fn is_par_entry(toks: &[Token], i: usize) -> bool {
    ident_at(toks, i).is_some_and(|name| {
        PAR_ADAPTERS.contains(&name)
            || (matches!(name, "join" | "scope" | "spawn")
                && path_at(toks, i.wrapping_sub(3), "rayon", name))
    })
}

/// End of the statement starting at token `i`: the `;` at its nesting
/// level, or the first closer that leaves it.
fn statement_end(toks: &[Token], i: usize) -> usize {
    let mut depth = 0i32;
    let mut end = i;
    while end < toks.len() {
        match toks[end].kind {
            TokenKind::Punct('(' | '[' | '{') => depth += 1,
            TokenKind::Punct(')' | ']' | '}') => {
                depth -= 1;
                if depth < 0 {
                    break;
                }
            }
            TokenKind::Punct(';') if depth == 0 => break,
            _ => {}
        }
        end += 1;
    }
    end
}

/// Calls `visit(params, body)` for each closure in `span`.
fn for_each_closure(span: &[Token], visit: &mut dyn FnMut(&[String], &[Token])) {
    let mut i = 0usize;
    while i < span.len() {
        let opens = punct_at(span, i, '|')
            && (i == 0
                || matches!(&span[i - 1].kind, TokenKind::Punct('(' | ',' | '{' | '='))
                || ident_at(span, i - 1) == Some("move"));
        if !opens {
            i += 1;
            continue;
        }
        // Parameters: up to the closing `|` (or an immediately-adjacent `|`
        // for `||`).
        let mut j = i + 1;
        let mut params: Vec<String> = Vec::new();
        while j < span.len() && !punct_at(span, j, '|') {
            if let Some(name) = ident_at(span, j) {
                params.push(name.to_string());
            }
            j += 1;
        }
        // Body: a braced block, or the expression up to `,`/`)` at depth 0.
        let body_start = j + 1;
        let mut k = body_start;
        let mut depth = 0i32;
        let braced = punct_at(span, body_start, '{');
        while k < span.len() {
            match span[k].kind {
                TokenKind::Punct('(' | '[' | '{') => depth += 1,
                TokenKind::Punct(')' | ']' | '}') => {
                    depth -= 1;
                    if depth < 0 || (braced && depth == 0) {
                        break;
                    }
                }
                TokenKind::Punct(',') if depth == 0 && !braced => break,
                _ => {}
            }
            k += 1;
        }
        let body = &span[body_start..k.min(span.len())];
        visit(&params, body);
        i = k + 1;
    }
}

/// Names bound inside a closure body: its params plus `let` / `for`
/// bindings (flat scan — over-approximating bindings only ever
/// *suppresses* findings).
fn closure_bound_names(params: &[String], body: &[Token]) -> Vec<String> {
    let mut bound: Vec<String> = params.to_vec();
    let mut i = 0usize;
    while i < body.len() {
        match ident_at(body, i) {
            Some("let") => {
                let mut j = i + 1;
                while j < body.len() && !punct_at(body, j, '=') && !punct_at(body, j, ';') {
                    if let Some(name) = ident_at(body, j) {
                        bound.push(name.to_string());
                    }
                    j += 1;
                }
                i = j;
            }
            Some("for") => {
                let mut j = i + 1;
                while j < body.len() && ident_at(body, j) != Some("in") {
                    if let Some(name) = ident_at(body, j) {
                        bound.push(name.to_string());
                    }
                    j += 1;
                }
                i = j;
            }
            _ => i += 1,
        }
    }
    bound
}

/// The ambient process state read at token `i`, in the words findings use:
/// the ambient RNG, wall clock, worker-pool shape, environment, thread
/// identity, or a mutable static of `parsed`. A fn that reads any of these
/// is no longer a pure function of its arguments and stream.
fn ambient_read(toks: &[Token], i: usize, parsed: &ParsedFile) -> Option<&'static str> {
    let name = ident_at(toks, i)?;
    Some(match name {
        "thread_rng" => "the ambient thread RNG",
        "SystemTime" => "the wall clock",
        "available_parallelism" | "current_num_threads" => "the worker-pool shape",
        _ if path_at(toks, i, "Instant", "now") => "the wall clock",
        _ if path_at(toks, i, "env", "var") => "the process environment",
        _ if path_at(toks, i, "thread", "current") => "thread identity",
        _ if parsed
            .statics
            .iter()
            .any(|st| st.hazardous && st.name == name) =>
        {
            "a mutable static"
        }
        _ => return None,
    })
}
