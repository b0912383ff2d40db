//! The contract-sync drift fixture: a miniature repo whose docs and code
//! disagree in exactly five pinned ways — four `contract-sync` drifts plus
//! one escape naming a dead rule, which `allow-audit` alone reports.

use std::path::{Path, PathBuf};

use xtask::engine;

fn drift_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/bad/contract_drift")
}

#[test]
fn contract_drift_fixture_yields_the_five_pinned_findings() {
    let outcome = engine::check_workspace(&drift_root()).expect("fixture tree readable");
    let messages: Vec<String> = outcome
        .reports
        .iter()
        .map(|r| format!("{}: [{}] {}", r.file, r.finding.rule, r.finding.message))
        .collect();
    assert_eq!(outcome.reports.len(), 5, "{messages:#?}");
    assert_eq!(
        outcome.per_rule(),
        [("allow-audit", 1), ("contract-sync", 4)].into(),
        "{messages:#?}"
    );

    let has = |needle: &str| messages.iter().any(|m| m.contains(needle));
    assert!(
        has("live rule `float-order` is not documented"),
        "{messages:#?}"
    );
    assert!(
        has("documented rule `retired-rule` is not implemented"),
        "{messages:#?}"
    );
    assert!(
        has("[allow-audit] `xtask:allow(no-such-rule)` names an unknown rule"),
        "{messages:#?}"
    );
    assert!(
        has("scenario row `ghost-scn` does not resolve"),
        "{messages:#?}"
    );
    assert!(has("repro target `fig9` does not resolve"), "{messages:#?}");
}

#[test]
fn drift_fixture_resolves_the_healthy_references() {
    // The same fixture also contains references that DO resolve —
    // `alpha-run`, `fig2`, the eleven contiguous numbered rules, and the
    // ten live-rule bullets — none of which may produce findings.
    let outcome = engine::check_workspace(&drift_root()).expect("fixture tree readable");
    for bad in ["alpha-run", "fig2", "not contiguous", "numbered rules"] {
        assert!(
            !outcome
                .reports
                .iter()
                .any(|r| r.finding.message.contains(bad)),
            "false positive on `{bad}`: {:?}",
            outcome.reports
        );
    }
}
