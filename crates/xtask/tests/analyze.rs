//! Fixture pins for the parser rules (contract rule 10), plus the command
//! line's workspace mode: run with no paths, `check` finds the workspace
//! root itself and the real tree checks clean.
//!
//! Each fixture test pins `check`'s full `per_rule` map, so a parser-rule
//! fixture that also trips a token rule says so here.

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

/// Runs the real `xtask` binary from this crate's directory.
fn run_binary(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_xtask"))
        .args(args)
        .current_dir(env!("CARGO_MANIFEST_DIR"))
        .output()
        .expect("xtask binary runs")
}

#[test]
fn rng_provenance_fixture_is_flagged() {
    let outcome = check("bad/rng_provenance.rs");
    // Early return between draws, ambient thread_rng, direct closure
    // capture, and the FnDb-resolved call-argument capture; the direct
    // capture is also a shared-rng finding.
    assert_per_rule(&outcome, &[("rng-provenance", 4), ("shared-rng", 1)]);
    let messages: Vec<&str> = outcome
        .reports
        .iter()
        .map(|r| r.finding.message.as_str())
        .collect();
    assert!(messages.iter().any(|m| m.contains("returns between draws")));
    assert!(messages.iter().any(|m| m.contains("ambient thread RNG")));
    assert!(messages
        .iter()
        .any(|m| m.contains("crosses a rayon closure")));
    assert!(
        messages
            .iter()
            .any(|m| m.contains("passed to `sample_one`")),
        "the fn database must resolve the innocuously-named capture"
    );
}

#[test]
fn float_order_fixture_is_flagged() {
    // Untyped `.sum()`, explicit `.sum::<f64>()`, and `.reduce(...)`.
    assert_per_rule(&check("bad/float_order.rs"), &[("float-order", 3)]);
}

#[test]
fn impl_purity_fixture_is_flagged() {
    // Wall clock in a PoolingDesign, env read in a PopulationModel, a
    // mutable static in a NoiseModel, and a `Cell` in the inherent
    // DesignSpec impl; the two `SystemTime` mentions are also wall-clock
    // findings.
    assert_per_rule(
        &check("bad/impl_purity.rs"),
        &[("impl-purity", 4), ("wall-clock", 2)],
    );
}

#[test]
fn clock_boundary_fixture_is_flagged() {
    let outcome = check("bad/clock_boundary.rs");
    // Instant::now, SystemTime, and a stored-origin .elapsed() — the
    // constant SteadyClock impl must not be flagged. The `use` line and
    // both real-time reads are also wall-clock findings.
    assert_per_rule(&outcome, &[("clock-boundary", 3), ("wall-clock", 3)]);
    let messages: Vec<&str> = outcome
        .reports
        .iter()
        .filter(|r| r.finding.rule == "clock-boundary")
        .map(|r| r.finding.message.as_str())
        .collect();
    assert!(messages.iter().all(|m| m.contains("contract rule 11")));
    assert!(messages
        .iter()
        .any(|m| m.contains("the monotonic wall clock")));
    assert!(messages.iter().any(|m| m.contains("the system clock")));
    assert!(messages
        .iter()
        .any(|m| m.contains("a stored wall-clock origin")));
}

#[test]
fn analyzer_traps_stay_clean() {
    assert_per_rule(&check("clean/analyze_traps.rs"), &[]);
}

#[test]
fn binary_exits_nonzero_on_every_bad_analyzer_fixture() {
    for name in [
        "bad/rng_provenance.rs",
        "bad/float_order.rs",
        "bad/impl_purity.rs",
        "bad/clock_boundary.rs",
    ] {
        let path = fixture(name);
        let out = run_binary(&["check", path.to_str().expect("utf-8 path")]);
        assert_eq!(out.status.code(), Some(1), "{name} must fail the check");
    }
}

#[test]
fn workspace_analyzes_clean() {
    let out = run_binary(&["check"]);
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(out.status.success(), "{stdout}");
    assert!(stdout.starts_with("xtask check: 0 finding(s)"), "{stdout}");
}
