//! Report rendering: the human-readable text form and the hand-rolled,
//! schema-versioned `--json` document.

use super::CheckOutcome;

/// Renders the human-readable report.
pub fn render_text(outcome: &CheckOutcome) -> String {
    let mut s = String::new();
    for r in &outcome.reports {
        s.push_str(&format!(
            "{}:{}: [{}] {}\n",
            r.file, r.finding.line, r.finding.rule, r.finding.message
        ));
    }
    s.push_str(&format!(
        "xtask check: {} finding(s) across {} file(s) ({} allow escape(s) in use)\n",
        outcome.reports.len(),
        outcome.files,
        outcome.allows_used
    ));
    s
}

/// Renders the `--json` report (hand-rolled: the vendored serde is a no-op
/// facade, and xtask deliberately has no dependencies). The `schema` field
/// versions the document shape for downstream tooling; `per_rule` gives
/// finding counts by rule.
pub fn render_json(outcome: &CheckOutcome) -> String {
    let mut s = String::from("{\n  \"schema\": 1,\n  \"tool\": \"check\",\n  \"findings\": [");
    for (i, r) in outcome.reports.iter().enumerate() {
        if i > 0 {
            s.push(',');
        }
        s.push_str(&format!(
            "\n    {{\"file\": \"{}\", \"line\": {}, \"rule\": \"{}\", \"message\": \"{}\"}}",
            json_escape(&r.file),
            r.finding.line,
            json_escape(r.finding.rule),
            json_escape(&r.finding.message)
        ));
    }
    if !outcome.reports.is_empty() {
        s.push_str("\n  ");
    }
    s.push_str("],\n  \"per_rule\": {");
    for (i, (rule, n)) in outcome.per_rule().iter().enumerate() {
        if i > 0 {
            s.push_str(", ");
        }
        s.push_str(&format!("\"{}\": {}", json_escape(rule), n));
    }
    s.push_str(&format!(
        "}},\n  \"files_scanned\": {},\n  \"allows_used\": {},\n  \"ok\": {}\n}}\n",
        outcome.files,
        outcome.allows_used,
        outcome.reports.is_empty()
    ));
    s
}

fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}
