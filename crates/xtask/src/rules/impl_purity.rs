//! `impl-purity`: `PoolingDesign` / `PopulationModel` / `NoiseModel`
//! impls, and the inherent impls of `DesignSpec` and `NoiseModel`, must be
//! pure in `(params, n, stream)` (contract rules 6-8). See the table in
//! [`super`].

use crate::lexer::{Token, TokenKind};
use crate::parser::ParsedFile;

use super::{ambient_read, Finding};

/// The traits (and the enums with inherent sampling impls) whose impls
/// must be pure in `(params, n, stream)` — contract rules 6–8.
const PURE_IMPL_TARGETS: &[&str] = &[
    "PoolingDesign",
    "PopulationModel",
    "NoiseModel",
    "DesignSpec",
];
// ---------------------------------------------------------------------
// impl-purity
// ---------------------------------------------------------------------

/// Shared-state types that make a pure impl observable beyond the
/// ambient reads every RNG-taking fn is checked for.
const SHARED_STATE: &[(&str, &str)] = &[
    ("AtomicBool", "interior-mutable shared state"),
    ("AtomicI64", "interior-mutable shared state"),
    ("AtomicU32", "interior-mutable shared state"),
    ("AtomicU64", "interior-mutable shared state"),
    ("AtomicUsize", "interior-mutable shared state"),
    ("Cell", "interior-mutable shared state"),
    ("Mutex", "lock-ordered shared state"),
    ("OnceCell", "interior-mutable shared state"),
    ("OnceLock", "interior-mutable shared state"),
    ("RefCell", "interior-mutable shared state"),
    ("RwLock", "lock-ordered shared state"),
];

pub(super) fn impl_purity(toks: &[Token], parsed: &ParsedFile, out: &mut Vec<Finding>) {
    for f in &parsed.fns {
        let Some(ii) = f.impl_index else { continue };
        let imp = &parsed.impls[ii];
        let target = match imp.trait_name.as_deref() {
            Some(t) => PURE_IMPL_TARGETS.contains(&t),
            None => PURE_IMPL_TARGETS.contains(&imp.type_name.as_str()),
        };
        if !target {
            continue;
        }
        let subject = imp
            .trait_name
            .clone()
            .unwrap_or_else(|| imp.type_name.clone());
        let Some((b0, b1)) = f.body else { continue };
        let body = &toks[b0..b1];
        for i in 0..body.len() {
            let what = match &body[i].kind {
                TokenKind::Ident(s) if s == "static" => Some("a function-local static"),
                TokenKind::Ident(s) => SHARED_STATE
                    .iter()
                    .find(|(id, _)| id == s)
                    .map(|&(_, what)| what)
                    .or_else(|| ambient_read(body, i, parsed)),
                TokenKind::Str(s) if s.contains("RAYON_NUM_THREADS") => {
                    Some("the worker-pool shape")
                }
                _ => None,
            };
            let Some(what) = what else { continue };
            out.push(Finding {
                rule: "impl-purity",
                line: body[i].line,
                message: format!(
                    "`{}::{}` reaches {what}: a `{subject}` impl must be a pure \
                     function of (params, n, stream) — contract rules 6–8. Move \
                     the state into explicit parameters, or justify with \
                     `// xtask:allow(impl-purity): <why unobservable>`",
                    subject, f.name
                ),
            });
        }
    }
}
