//! `xtask` — workspace automation for the noisy-pooled-data repo.
//!
//! One subcommand statically enforces the determinism contract of
//! `docs/ARCHITECTURE.md`: the dynamic replay suite
//! (`tests/determinism.rs`) samples a handful of pinned (scenario, seed)
//! points, but a hazard like unordered `HashMap` iteration can pass every
//! pinned seed while corrupting replay elsewhere. This crate turns the
//! contract into a machine-checked property:
//!
//! ```text
//! cargo run -p xtask -- check              # every rule, whole workspace
//! cargo run -p xtask -- check --json       # machine-readable report (schema 1)
//! cargo run -p xtask -- check <paths>      # check specific files (strict context)
//! ```
//!
//! [`lexer`] is the hand-rolled tokenizer that keeps comments and strings
//! from producing false positives; [`parser`] recovers item/fn structure on
//! top of it. [`rules`] holds the one rule registry: the token rules of
//! contract rule 9 (hash iteration, wall clock, thread observables, shared
//! RNGs, unwrap audit), the parser rules of contract rule 10 (RNG-stream
//! provenance, parallel float-reduction order, trait-impl purity, the
//! clock boundary), and the `contract-sync` drift check between
//! ARCHITECTURE.md, the README, and the code. [`engine`] lexes and parses
//! each file once, runs every rule, audits the escapes
//! (`// xtask:allow(rule): reason`), and renders the report.

#![warn(missing_docs)]

pub mod engine;
pub mod lexer;
pub mod parser;
pub mod rules;
