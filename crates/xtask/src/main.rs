//! CLI entry point: `cargo run -p xtask -- check [--json] [paths…]`.

use std::path::PathBuf;
use std::process::ExitCode;

use xtask::engine;

const USAGE: &str = "usage: cargo run -p xtask -- check [--json] [paths…]
  check          every determinism-contract rule (contract rules 9 and 10)
                 over the workspace, plus the contract cross-check
  check <paths>  check specific files/dirs under the strict (deterministic
                 library) context — used by the fixture suites
  --json         machine-readable report on stdout (schema-versioned)";

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("check") => check(&args[1..]),
        Some(other) => usage_error(&format!("unknown subcommand `{other}`")),
        None => usage_error("missing subcommand"),
    }
}

fn usage_error(problem: &str) -> ExitCode {
    eprintln!("xtask: {problem}\n{USAGE}");
    ExitCode::from(2)
}

fn check(args: &[String]) -> ExitCode {
    let mut json = false;
    let mut paths: Vec<PathBuf> = Vec::new();
    for a in args {
        match a.as_str() {
            "--json" => json = true,
            "--help" | "-h" => {
                println!("{USAGE}");
                return ExitCode::SUCCESS;
            }
            flag if flag.starts_with('-') => return usage_error(&format!("unknown flag `{flag}`")),
            path => paths.push(PathBuf::from(path)),
        }
    }

    let outcome = if paths.is_empty() {
        let cwd = match std::env::current_dir() {
            Ok(d) => d,
            Err(e) => {
                eprintln!("xtask check: cannot read current dir: {e}");
                return ExitCode::from(2);
            }
        };
        let Some(root) = engine::find_workspace_root(&cwd) else {
            eprintln!("xtask check: no workspace root ([workspace] Cargo.toml) above {cwd:?}");
            return ExitCode::from(2);
        };
        engine::check_workspace(&root)
    } else {
        engine::check_paths(&paths)
    };

    match outcome {
        Ok(outcome) => {
            if json {
                print!("{}", engine::render_json(&outcome));
            } else {
                print!("{}", engine::render_text(&outcome));
            }
            if outcome.reports.is_empty() {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
        Err(e) => {
            eprintln!("xtask check: {e}");
            ExitCode::from(2)
        }
    }
}
