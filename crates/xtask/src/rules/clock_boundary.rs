//! `clock-boundary`: real-time `Clock` impls belong to harness crates
//! only (contract rule 11). See the table in [`super`].
//!
//! The telemetry layer splits observability into a deterministic event
//! plane (library crates, `NullClock`) and an optional wall-clock plane
//! whose monotonic [`npd_telemetry::Clock`] implementation may exist
//! *only* in the harness (`experiments`, `bench`). This rule flags any
//! `impl Clock for _` outside the harness whose body reads real time —
//! `Instant::now`, `SystemTime`, or a libc-style `clock_gettime` — which
//! would let wall time leak into the deterministic plane.

use crate::lexer::{path_at, punct_at, Token, TokenKind};
use crate::parser::ParsedFile;

use super::{FileContext, Finding};

/// Crates where a real-time `Clock` impl is the *designed* pattern: the
/// harness constructs the clock and injects it into library sinks.
const HARNESS_CRATES: &[&str] = &["experiments", "bench"];

pub(super) fn clock_boundary(
    ctx: &FileContext,
    toks: &[Token],
    parsed: &ParsedFile,
    out: &mut Vec<Finding>,
) {
    if HARNESS_CRATES.contains(&ctx.crate_name.as_str()) {
        return;
    }
    for f in &parsed.fns {
        let Some(ii) = f.impl_index else { continue };
        let imp = &parsed.impls[ii];
        if imp.trait_name.as_deref() != Some("Clock") {
            continue;
        }
        let Some((b0, b1)) = f.body else { continue };
        let body = &toks[b0..b1];
        let mut flag = |line: u32, what: &str| {
            out.push(Finding {
                rule: "clock-boundary",
                line,
                message: format!(
                    "`impl Clock for {}` reads {what} in crate `{}`: real-time \
                     clocks live in harness crates only (experiments/bench) — \
                     contract rule 11. Library code takes the deterministic \
                     `NullClock` default and lets the harness inject wall time, \
                     or justify with `// xtask:allow(clock-boundary): <why \
                     deterministic>`",
                    imp.type_name, ctx.crate_name
                ),
            });
        };
        for i in 0..body.len() {
            match &body[i].kind {
                TokenKind::Ident(s) if s == "SystemTime" => {
                    flag(body[i].line, "the system clock");
                }
                TokenKind::Ident(s) if s == "clock_gettime" => {
                    flag(body[i].line, "the system clock");
                }
                TokenKind::Ident(_) if path_at(body, i, "Instant", "now") => {
                    flag(body[i].line, "the monotonic wall clock");
                }
                TokenKind::Ident(s) if s == "elapsed" && punct_at(body, i.wrapping_sub(1), '.') => {
                    flag(body[i].line, "a stored wall-clock origin");
                }
                _ => {}
            }
        }
    }
}
