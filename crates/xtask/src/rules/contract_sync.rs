//! `contract-sync`: drift detection between ARCHITECTURE.md's contract
//! section, the live rule registry, and the README's scenario/repro
//! references. See the table in [`super`]. Escapes naming a dead rule are
//! `allow-audit` findings, reported by the engine.

use std::fs;
use std::path::Path;

use crate::engine::Report;
use crate::lexer::{Lexed, TokenKind};

use super::{Finding, RULE_NAMES};

/// Workspace-level drift detection between the docs and the code.
/// `lexed` looks up a walked source file by its root-relative path.
pub(crate) fn contract_sync<'a>(
    root: &Path,
    lexed: impl Fn(&str) -> Option<&'a Lexed>,
) -> Vec<Report> {
    let mut reports = Vec::new();
    let finding = |file: &str, line: u32, message: String| Report {
        file: file.to_string(),
        finding: Finding {
            rule: "contract-sync",
            line,
            message,
        },
    };

    // (1) ARCHITECTURE.md: numbered contract rules and documented rule
    // bullets must match the live registry.
    let arch_path = "docs/ARCHITECTURE.md";
    match fs::read_to_string(root.join(arch_path)) {
        Err(_) => reports.push(finding(
            arch_path,
            1,
            "missing: the determinism contract's document of record is gone".into(),
        )),
        Ok(text) => {
            let section = contract_section(&text);
            match &section {
                None => reports.push(finding(
                    arch_path,
                    1,
                    "no `## Determinism and threading contract` section found".into(),
                )),
                Some((start_line, body)) => {
                    // Numbered rules: contiguous 1..=max, max >= 10 (rules 9
                    // and 10 are the enforcement rules).
                    let numbers = numbered_rules(body);
                    let max = numbers.iter().copied().max().unwrap_or(0);
                    for n in 1..=max {
                        if !numbers.contains(&n) {
                            reports.push(finding(
                                arch_path,
                                *start_line,
                                format!("contract rules are not contiguous: rule {n} is missing"),
                            ));
                        }
                    }
                    if max < 10 {
                        reports.push(finding(
                            arch_path,
                            *start_line,
                            format!(
                                "contract documents {max} numbered rules; the static \
                                 enforcement rules (9: token rules, 10: parser rules) \
                                 must be kept in the document of record"
                            ),
                        ));
                    }
                    // Every live rule documented…
                    for rule in RULE_NAMES {
                        if !body.contains(&format!("`{rule}`")) {
                            reports.push(finding(
                                arch_path,
                                *start_line,
                                format!(
                                    "live rule `{rule}` is not documented in the \
                                     contract section"
                                ),
                            ));
                        }
                    }
                    // …and every documented rule bullet alive.
                    for (line, name) in rule_bullets(body, *start_line) {
                        if !RULE_NAMES.contains(&name.as_str()) {
                            reports.push(finding(
                                arch_path,
                                line,
                                format!(
                                    "documented rule `{name}` is not implemented by \
                                     the engine; prune the bullet or restore the rule"
                                ),
                            ));
                        }
                    }
                }
            }
        }
    }

    // (2) README scenario rows and repro targets still resolve.
    let readme_path = "README.md";
    match fs::read_to_string(root.join(readme_path)) {
        Err(_) => reports.push(finding(readme_path, 1, "missing README.md".into())),
        Ok(text) => {
            let scenario_strs = lexed("crates/experiments/src/scenarios.rs").map(string_literals);
            let target_strs = lexed("crates/experiments/src/main.rs").map(string_literals);
            match &scenario_strs {
                None => reports.push(finding(
                    "crates/experiments/src/scenarios.rs",
                    1,
                    "missing: the scenario registry README rows point at".into(),
                )),
                Some(strs) => {
                    for (line, name) in scenario_rows(&text) {
                        if !strs.iter().any(|s| s == &name) {
                            reports.push(finding(
                                readme_path,
                                line,
                                format!(
                                    "scenario row `{name}` does not resolve in the \
                                     registry (crates/experiments/src/scenarios.rs)"
                                ),
                            ));
                        }
                    }
                }
            }
            match &target_strs {
                None => reports.push(finding(
                    "crates/experiments/src/main.rs",
                    1,
                    "missing: the repro binary README targets point at".into(),
                )),
                Some(strs) => {
                    for (line, target) in repro_targets(&text) {
                        if !strs.iter().any(|s| s == &target) {
                            reports.push(finding(
                                readme_path,
                                line,
                                format!(
                                    "repro target `{target}` does not resolve in \
                                     crates/experiments/src/main.rs"
                                ),
                            ));
                        }
                    }
                }
            }
        }
    }

    reports
}

/// The `## Determinism and threading contract` section: its 1-indexed
/// start line and text up to the next `## ` heading.
fn contract_section(text: &str) -> Option<(u32, String)> {
    let mut lines = text.lines().enumerate();
    let start = lines
        .by_ref()
        .find(|(_, l)| l.starts_with("## ") && l.contains("contract"))?
        .0;
    let mut body = String::new();
    for (_, l) in lines {
        if l.starts_with("## ") {
            break;
        }
        body.push_str(l);
        body.push('\n');
    }
    Some((start as u32 + 1, body))
}

/// Numbers of `N. **Title**` items in the contract section.
fn numbered_rules(body: &str) -> Vec<u32> {
    let mut numbers = Vec::new();
    for line in body.lines() {
        let t = line.trim_start();
        let digits: String = t.chars().take_while(char::is_ascii_digit).collect();
        if digits.is_empty() {
            continue;
        }
        let rest = &t[digits.len()..];
        if rest.starts_with(". **") {
            if let Ok(n) = digits.parse() {
                numbers.push(n);
            }
        }
    }
    numbers
}

/// `- `kebab-name` — …` bullets in the contract section (rule names are
/// lowercase kebab-case with at least one hyphen, which excludes type
/// names and file paths).
fn rule_bullets(body: &str, section_start: u32) -> Vec<(u32, String)> {
    let mut bullets = Vec::new();
    for (i, line) in body.lines().enumerate() {
        let t = line.trim_start();
        let Some(rest) = t.strip_prefix("- `") else {
            continue;
        };
        let Some(close) = rest.find('`') else {
            continue;
        };
        let name = &rest[..close];
        let kebab = name.contains('-')
            && name
                .chars()
                .all(|c| c.is_ascii_lowercase() || c.is_ascii_digit() || c == '-');
        if kebab && rest[close + 1..].trim_start().starts_with('—') {
            bullets.push((section_start + i as u32 + 1, name.to_string()));
        }
    }
    bullets
}

/// First-cell names of rows in README tables whose header has a
/// `scenario` column.
fn scenario_rows(text: &str) -> Vec<(u32, String)> {
    let mut rows = Vec::new();
    let mut in_table = false;
    for (i, line) in text.lines().enumerate() {
        let t = line.trim_start();
        if !t.starts_with('|') {
            in_table = false;
            continue;
        }
        if t.contains("| scenario ") || t.starts_with("| scenario") {
            in_table = true;
            continue;
        }
        if !in_table || t.starts_with("|-") || t.starts_with("|--") || t.starts_with("|---") {
            continue;
        }
        let Some(rest) = t.strip_prefix("| `") else {
            continue;
        };
        if let Some(close) = rest.find('`') {
            rows.push((i as u32 + 1, rest[..close].to_string()));
        }
    }
    rows
}

/// Repro targets referenced from README: `repro -- <target>` occurrences
/// plus the backticked names in the `Targets:` paragraph.
fn repro_targets(text: &str) -> Vec<(u32, String)> {
    let mut targets = Vec::new();
    let mut in_targets_para = false;
    for (i, line) in text.lines().enumerate() {
        let lineno = i as u32 + 1;
        let mut rest = line;
        while let Some(pos) = rest.find("repro -- ") {
            rest = &rest[pos + "repro -- ".len()..];
            let word: String = rest
                .chars()
                .take_while(|c| c.is_ascii_alphanumeric() || *c == '-' || *c == '_')
                .collect();
            if !word.is_empty() && !word.starts_with('-') {
                targets.push((lineno, word));
            }
        }
        if line.starts_with("Targets:") {
            in_targets_para = true;
        } else if line.trim().is_empty() {
            in_targets_para = false;
        }
        if in_targets_para {
            let mut s = line;
            while let Some(open) = s.find('`') {
                let Some(close_rel) = s[open + 1..].find('`') else {
                    break;
                };
                let name = &s[open + 1..open + 1 + close_rel];
                if !name.is_empty()
                    && name
                        .chars()
                        .all(|c| c.is_ascii_alphanumeric() || c == '-' || c == '_')
                {
                    targets.push((lineno, name.to_string()));
                }
                s = &s[open + 2 + close_rel..];
            }
        }
    }
    targets
}

/// All string literals in a lexed source file.
fn string_literals(lexed: &Lexed) -> Vec<String> {
    lexed
        .tokens
        .iter()
        .filter_map(|t| match &t.kind {
            TokenKind::Str(s) => Some(s.clone()),
            _ => None,
        })
        .collect()
}
