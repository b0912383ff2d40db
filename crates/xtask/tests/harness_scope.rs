//! The harness scope: test-like files (`tests/`, `benches/`, `examples/`)
//! are determinism-pinning code, so `check` holds them to the
//! hash-iteration and wall-clock rules and the parser rules, but not to
//! the library-hygiene rules.

use std::collections::BTreeMap;
use std::path::Path;

use xtask::engine;
use xtask::rules::{FileContext, FileKind};

/// Per-rule finding counts for a fixture's source checked as a test file.
fn check_as_test_file(name: &str) -> BTreeMap<&'static str, usize> {
    let path = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(name);
    let src = std::fs::read_to_string(path).expect("fixture readable");
    let ctx = FileContext::classify("tests/pinning.rs").expect("a checked path");
    assert_eq!(ctx.kind, FileKind::TestLike);
    let (findings, _) = engine::check_source(&ctx, &src);
    let mut counts = BTreeMap::new();
    for f in findings {
        *counts.entry(f.rule).or_default() += 1;
    }
    counts
}

#[test]
fn harness_scope_applies_hash_and_clock_rules_to_test_files() {
    let expect =
        |pairs: &[(&'static str, usize)]| -> BTreeMap<_, _> { pairs.iter().copied().collect() };
    assert_eq!(
        check_as_test_file("bad/hash_iteration.rs"),
        expect(&[("hash-iteration", 3)])
    );
    assert_eq!(
        check_as_test_file("bad/wall_clock.rs"),
        expect(&[("wall-clock", 3)])
    );
    // The parser rules apply to test files too.
    assert_eq!(
        check_as_test_file("bad/float_order.rs"),
        expect(&[("float-order", 3)])
    );
    // Rules outside the harness subset must NOT apply to test files:
    // unwrap is the designed failure mode of a broken test, and a test may
    // observe its own thread.
    assert_eq!(check_as_test_file("bad/unwrap_audit.rs"), expect(&[]));
    assert_eq!(check_as_test_file("bad/thread_observable.rs"), expect(&[]));
}
