//! Walks source files, runs the rules of [`crate::rules`], applies
//! `xtask:allow` suppressions, and renders reports (human-readable and
//! `--json`).
//!
//! Every entry point lexes and parses each file once, builds the cross-file
//! fn database from those parses, runs every file rule against it, and
//! audits each file's escapes against the one rule list; the workspace walk
//! then adds the `contract-sync` drift check.

mod render;

pub use render::{render_json, render_text};

use std::collections::BTreeMap;
use std::fs;
use std::path::{Path, PathBuf};

use crate::lexer::{self, AllowDirective, Lexed};
use crate::parser::{self, ParsedFile};
use crate::rules::{self, FileContext, Finding, FnDb, RULE_NAMES};

/// A finding bound to the file it was found in.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Report {
    /// Path as reported (relative to the workspace root when walking the
    /// workspace, verbatim for explicit paths).
    pub file: String,
    /// The underlying finding.
    pub finding: Finding,
}

/// Outcome of checking a set of files.
#[derive(Debug, Default)]
pub struct CheckOutcome {
    /// Surviving (unsuppressed) findings, sorted by (file, line).
    pub reports: Vec<Report>,
    /// Number of files scanned.
    pub files: usize,
    /// Number of allow directives that suppressed at least one finding.
    pub allows_used: usize,
}

impl CheckOutcome {
    /// Finding counts by rule name.
    pub fn per_rule(&self) -> BTreeMap<&'static str, usize> {
        let mut counts = BTreeMap::new();
        for r in &self.reports {
            *counts.entry(r.finding.rule).or_default() += 1;
        }
        counts
    }
}

/// One source file, lexed and parsed once.
struct Source {
    name: String,
    ctx: FileContext,
    lexed: Lexed,
    parsed: ParsedFile,
}

impl Source {
    fn new(name: String, ctx: FileContext, src: &str) -> Self {
        // xtask's own sources and docs *mention* the directive syntax
        // constantly: they count as scanned but are never checked.
        let lexed = if ctx.crate_name == "xtask" {
            Lexed::default()
        } else {
            lexer::lex(src)
        };
        let parsed = parser::parse(&lexed);
        Source {
            name,
            ctx,
            lexed,
            parsed,
        }
    }
}

/// Applies `xtask:allow` suppression to one file's `raw` findings and
/// audits every directive in the file.
///
/// A finding of rule `r` at line `l` is silenced by an
/// `xtask:allow(r): reason` directive on line `l` or `l - 1`. A directive
/// that names a rule outside [`RULE_NAMES`], omits the reason, or
/// suppresses nothing is itself a finding (`allow-audit`).
fn apply_allows(allows: &[AllowDirective], raw: Vec<Finding>) -> (Vec<Finding>, usize) {
    let mut used = vec![false; allows.len()];
    let mut findings: Vec<Finding> = raw
        .into_iter()
        .filter(|f| {
            let mut suppressed = false;
            for (a, hit) in allows.iter().zip(used.iter_mut()) {
                if a.rule == f.rule
                    && !a.reason.is_empty()
                    && (a.line == f.line || a.line + 1 == f.line)
                {
                    *hit = true;
                    suppressed = true;
                }
            }
            !suppressed
        })
        .collect();

    for (a, &hit) in allows.iter().zip(&used) {
        let message = if !RULE_NAMES.contains(&a.rule.as_str()) {
            format!(
                "`xtask:allow({})` names an unknown rule (known: {})",
                a.rule,
                RULE_NAMES.join(", ")
            )
        } else if a.reason.is_empty() {
            format!(
                "`xtask:allow({})` carries no justification; write \
                 `// xtask:allow({}): <reason>`",
                a.rule, a.rule
            )
        } else if !hit {
            format!(
                "`xtask:allow({})` suppresses nothing on this or the next \
                 line; remove the stale escape",
                a.rule
            )
        } else {
            continue;
        };
        findings.push(Finding {
            rule: "allow-audit",
            line: a.line,
            message,
        });
    }
    findings.sort_by_key(|f| (f.line, f.rule));
    let used_count = used.iter().filter(|&&u| u).count();
    (findings, used_count)
}

/// Runs every file rule over `sources` against one fn database built from
/// all of them, and applies each file's escapes.
fn check_sources(sources: &[Source]) -> CheckOutcome {
    let mut db = FnDb::default();
    for s in sources {
        db.add_file(&s.ctx, &s.parsed);
    }
    let mut outcome = CheckOutcome {
        files: sources.len(),
        ..CheckOutcome::default()
    };
    for s in sources {
        let raw = rules::check_file(&s.ctx, &s.lexed, &s.parsed, &db);
        let (findings, used) = apply_allows(&s.lexed.allows, raw);
        outcome.allows_used += used;
        outcome
            .reports
            .extend(findings.into_iter().map(|finding| Report {
                file: s.name.clone(),
                finding,
            }));
    }
    outcome
}

/// Checks one file's contents under `ctx`, returning the surviving
/// findings and the number of escapes used. The fn database holds only
/// this file's signatures (and none unless `ctx` is checked library code);
/// workspace runs use [`check_workspace`], which sees cross-file ones.
pub fn check_source(ctx: &FileContext, src: &str) -> (Vec<Finding>, usize) {
    let outcome = check_sources(&[Source::new(String::new(), ctx.clone(), src)]);
    let findings = outcome.reports.into_iter().map(|r| r.finding).collect();
    (findings, outcome.allows_used)
}

/// Checks every workspace source file under `root`, each under the context
/// its path implies, and finishes with the workspace-level `contract-sync`
/// drift check (docs ↔ rule registry ↔ README targets).
pub fn check_workspace(root: &Path) -> std::io::Result<CheckOutcome> {
    let mut files = Vec::new();
    collect_rs_files(root, root, &mut files)?;
    files.sort();
    let mut sources = Vec::new();
    for rel in files {
        let Some(ctx) = FileContext::classify(&rel) else {
            continue;
        };
        let src = fs::read_to_string(root.join(&rel))?;
        sources.push(Source::new(rel, ctx, &src));
    }
    let mut outcome = check_sources(&sources);
    outcome.reports.extend(rules::contract_sync(root, |rel| {
        sources.iter().find(|s| s.name == rel).map(|s| &s.lexed)
    }));
    outcome.reports.sort_by(|a, b| {
        (&a.file, a.finding.line, a.finding.rule).cmp(&(&b.file, b.finding.line, b.finding.rule))
    });
    Ok(outcome)
}

/// Checks explicitly-listed paths (files or directories) under the strict
/// (deterministic library) context, so fixture snippets exercise every
/// rule. The fn database spans all the given files, so cross-file
/// provenance works within a fixture set.
pub fn check_paths(paths: &[PathBuf]) -> std::io::Result<CheckOutcome> {
    let mut sources = Vec::new();
    for p in paths {
        let files = if p.is_dir() {
            let mut nested = Vec::new();
            collect_rs_files(p, p, &mut nested)?;
            nested.sort();
            nested.into_iter().map(|rel| p.join(rel)).collect()
        } else {
            vec![p.clone()]
        };
        for path in files {
            let src = fs::read_to_string(&path)?;
            sources.push(Source::new(
                path.display().to_string(),
                FileContext::strict(),
                &src,
            ));
        }
    }
    Ok(check_sources(&sources))
}

/// Recursively lists `.rs` files below `dir` as root-relative paths,
/// skipping `target/`, hidden directories, and rule fixtures.
fn collect_rs_files(root: &Path, dir: &Path, out: &mut Vec<String>) -> std::io::Result<()> {
    for entry in fs::read_dir(dir)? {
        let entry = entry?;
        let path = entry.path();
        let name = entry.file_name();
        let name = name.to_string_lossy();
        if path.is_dir() {
            if name == "target" || name == "fixtures" || name.starts_with('.') {
                continue;
            }
            collect_rs_files(root, &path, out)?;
        } else if name.ends_with(".rs") {
            if let Ok(rel) = path.strip_prefix(root) {
                out.push(rel.to_string_lossy().replace('\\', "/"));
            }
        }
    }
    Ok(())
}

/// Locates the workspace root: the nearest ancestor of `start` whose
/// `Cargo.toml` declares `[workspace]`.
pub fn find_workspace_root(start: &Path) -> Option<PathBuf> {
    let mut dir = Some(start.to_path_buf());
    while let Some(d) = dir {
        let manifest = d.join("Cargo.toml");
        if manifest.is_file() {
            if let Ok(text) = fs::read_to_string(&manifest) {
                if text.contains("[workspace]") {
                    return Some(d);
                }
            }
        }
        dir = d.parent().map(Path::to_path_buf);
    }
    None
}
