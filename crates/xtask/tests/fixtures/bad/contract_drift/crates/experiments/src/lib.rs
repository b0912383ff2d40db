//! Holds the one drifted escape hatch: the rule name below is not
//! implemented by the engine, which `allow-audit` must flag.

pub fn plain() -> u32 {
    // xtask:allow(no-such-rule): kept to pin the dead-directive finding
    41 + 1
}
