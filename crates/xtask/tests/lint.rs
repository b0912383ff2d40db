//! Fixture pins for the token rules (contract rule 9), the command line,
//! and the workspace self-check: the real tree must check clean.
//!
//! Each fixture test pins `check`'s full `per_rule` map, so a token-rule
//! fixture that also trips a parser rule says so here.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::{Command, Output};

use xtask::engine::{self, CheckOutcome};

fn fixture(name: &str) -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(name)
}

fn check(name: &str) -> CheckOutcome {
    engine::check_paths(&[fixture(name)]).expect("fixture readable")
}

fn assert_per_rule(outcome: &CheckOutcome, expected: &[(&str, usize)]) {
    let expected: BTreeMap<&str, usize> = expected.iter().copied().collect();
    assert_eq!(outcome.per_rule(), expected, "{:#?}", outcome.reports);
}

/// Runs the real `xtask` binary.
fn run_binary(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_xtask"))
        .args(args)
        .output()
        .expect("xtask binary runs")
}

#[test]
fn hash_iteration_fixture_is_flagged() {
    // The `use`, the type annotation, and the constructor mention.
    assert_per_rule(&check("bad/hash_iteration.rs"), &[("hash-iteration", 3)]);
}

#[test]
fn wall_clock_fixture_is_flagged() {
    // `use … {Instant, SystemTime}` contributes one SystemTime mention,
    // the body one `Instant::now` and one `SystemTime` each.
    assert_per_rule(&check("bad/wall_clock.rs"), &[("wall-clock", 3)]);
}

#[test]
fn thread_observable_fixture_is_flagged() {
    assert_per_rule(
        &check("bad/thread_observable.rs"),
        &[("thread-observable", 3)],
    );
}

#[test]
fn shared_rng_fixture_is_flagged() {
    // One &mut capture + one direct method call; the parameter `rng`
    // crossing the `par_chunks_mut` closure is also an rng-provenance
    // finding.
    assert_per_rule(
        &check("bad/shared_rng.rs"),
        &[("shared-rng", 2), ("rng-provenance", 1)],
    );
}

#[test]
fn unwrap_audit_fixture_is_flagged() {
    // `unwrap_or` must not count.
    assert_per_rule(&check("bad/unwrap_audit.rs"), &[("unwrap-audit", 2)]);
}

#[test]
fn allow_misuse_fixture_is_flagged() {
    let outcome = check("bad/stale_allow.rs");
    assert_per_rule(&outcome, &[("allow-audit", 3)]);
    let messages: Vec<&str> = outcome
        .reports
        .iter()
        .map(|r| r.finding.message.as_str())
        .collect();
    assert!(messages.iter().any(|m| m.contains("unknown rule")));
    assert!(messages.iter().any(|m| m.contains("no justification")));
    assert!(messages.iter().any(|m| m.contains("suppresses nothing")));
}

#[test]
fn comment_string_and_test_traps_stay_clean() {
    assert_per_rule(&check("clean/traps.rs"), &[]);
}

#[test]
fn justified_allows_stay_clean_and_count_as_used() {
    let outcome = check("clean/allowed.rs");
    assert_per_rule(&outcome, &[]);
    assert_eq!(outcome.allows_used, 3);
}

#[test]
fn binary_exits_nonzero_on_every_bad_fixture() {
    for name in [
        "bad/hash_iteration.rs",
        "bad/wall_clock.rs",
        "bad/thread_observable.rs",
        "bad/shared_rng.rs",
        "bad/unwrap_audit.rs",
        "bad/stale_allow.rs",
    ] {
        let path = fixture(name);
        let out = run_binary(&["check", path.to_str().expect("utf-8 path")]);
        assert_eq!(out.status.code(), Some(1), "{name} must fail the check");
    }
}

#[test]
fn binary_json_report_is_machine_readable() {
    let path = fixture("bad/wall_clock.rs");
    let out = run_binary(&["check", "--json", path.to_str().expect("utf-8 path")]);
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(!out.status.success());
    assert!(stdout.contains("\"schema\": 1"), "{stdout}");
    assert!(stdout.contains("\"tool\": \"check\""), "{stdout}");
    assert!(stdout.contains("\"rule\": \"wall-clock\""), "{stdout}");
    assert!(
        stdout.contains("\"per_rule\": {\"wall-clock\": 3}"),
        "{stdout}"
    );
    assert!(stdout.contains("\"ok\": false"), "{stdout}");
}

#[test]
fn retired_subcommands_and_flags_exit_2_with_usage() {
    for args in [&["lint"][..], &["analyze"], &["check", "--include-harness"]] {
        let out = run_binary(args);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
        assert!(
            stderr.contains("usage: cargo run -p xtask -- check"),
            "{args:?}: {stderr}"
        );
    }
}

#[test]
fn workspace_lints_clean() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .canonicalize()
        .expect("workspace root exists");
    let outcome = engine::check_workspace(&root).expect("workspace readable");
    assert!(
        outcome.reports.is_empty(),
        "the workspace violates its own determinism contract:\n{}",
        engine::render_text(&outcome)
    );
    // The walk really covered the tree (rule fixtures are the only
    // skips), test-like files included, and the annotated escapes
    // documented in ARCHITECTURE.md are live.
    assert!(outcome.files > 150, "only {} files scanned", outcome.files);
    assert!(outcome.allows_used >= 20, "allows: {}", outcome.allows_used);
}
