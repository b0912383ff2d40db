//! `repro` — regenerate the paper's figures and run registered scenarios
//! from the command line.
//!
//! ```text
//! repro <target> [--full] [--json] [--out DIR] [--trials N] [--threads N]
//! repro scenarios list
//! repro scenarios run <name>|--all [--full] [--json] [--out DIR] [--trials N] [--threads N]
//!
//! targets: fig1 fig2 fig3 fig4 fig5 fig6 fig7 theorems comm ablations
//!          decoders adaptive designs linear workloads chaos categorical all
//!
//! `--json` prints each report as a machine-readable JSON document (and
//! writes `<name>.json` next to the CSV) for the bench/CI pipeline.
//! ```

use npd_experiments::figures::{self, FigureReport, RunOptions};
use npd_experiments::{runner, scenarios, trace, Mode};
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match parse(&args) {
        Ok(cli) => execute(cli),
        Err(msg) => {
            eprintln!("error: {msg}");
            eprintln!("{USAGE}");
            ExitCode::FAILURE
        }
    }
}

const USAGE: &str = "usage: repro <fig1|fig2|fig3|fig4|fig5|fig6|fig7|theorems|comm|ablations\
                     |decoders|adaptive|designs|linear|workloads|chaos|categorical|all> \
                     [--full] [--json] [--out DIR] [--trials N] [--threads N]\n\
       repro scenarios list\n\
       repro scenarios run <name>|--all [--full] [--json] [--out DIR] [--trials N] \
[--threads N] [--trace FILE] [--metrics]\n\
\n\
`--trace FILE` additionally runs one representative traced execution of the \
scenario and writes its event stream: `.jsonl` selects the deterministic \
JSON-lines plane, any other extension the Chrome trace-event format. \
`--metrics` prints the recorded histograms and, for protocol scenarios, the \
traced run's outcome table and per-phase message profile.";

/// A figure target: its name on the command line and its runner.
type Target = (&'static str, fn(&RunOptions) -> FigureReport);

/// Every figure target, in the order `all` runs them.
const TARGETS: [Target; 17] = [
    ("fig1", |_| figures::fig1::run()),
    ("fig2", figures::fig2::run),
    ("fig3", figures::fig3::run),
    ("fig4", figures::fig4::run),
    ("fig5", figures::fig5::run),
    ("fig6", figures::fig6::run),
    ("fig7", figures::fig7::run),
    ("theorems", figures::theorems::run),
    ("comm", figures::comm::run),
    ("ablations", figures::ablations::run),
    ("decoders", figures::decoders::run),
    ("adaptive", figures::adaptive::run),
    ("designs", figures::designs::run),
    ("linear", figures::linear::run),
    ("workloads", figures::workloads::run),
    ("chaos", figures::chaos::run),
    ("categorical", figures::categorical::run),
];

#[derive(Debug, Clone, PartialEq, Eq)]
struct Cli {
    target: String,
    /// Positional arguments after the target (the `scenarios` subcommand).
    extra: Vec<String>,
    opts_mode: Mode,
    out_dir: PathBuf,
    trials: Option<usize>,
    threads: usize,
    /// Emit machine-readable JSON (stdout + `<name>.json`) instead of the
    /// ASCII rendering.
    json: bool,
    /// `scenarios run --all`: run every registered scenario.
    all_scenarios: bool,
    /// `--trace FILE`: write the representative traced execution's event
    /// stream here (`.jsonl` = deterministic plane, else Chrome trace).
    trace: Option<PathBuf>,
    /// `--metrics`: print the recorded histograms and, for protocol
    /// scenarios, the outcome table and phase profile.
    metrics: bool,
}

fn parse(args: &[String]) -> Result<Cli, String> {
    let mut target: Option<String> = None;
    let mut extra: Vec<String> = Vec::new();
    let mut full = false;
    let mut out_dir = PathBuf::from("results");
    let mut trials = None;
    let mut threads = runner::default_threads();
    let mut json = false;
    let mut all_scenarios = false;
    let mut trace: Option<PathBuf> = None;
    let mut metrics = false;

    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--full" => full = true,
            "--json" => json = true,
            "--all" => all_scenarios = true,
            "--metrics" => metrics = true,
            "--trace" => {
                trace = Some(PathBuf::from(
                    it.next()
                        .ok_or_else(|| "--trace requires a file path".to_string())?,
                ));
            }
            "--out" => {
                out_dir = PathBuf::from(
                    it.next()
                        .ok_or_else(|| "--out requires a directory".to_string())?,
                );
            }
            "--trials" => {
                trials = Some(
                    it.next()
                        .ok_or_else(|| "--trials requires a number".to_string())?
                        .parse::<usize>()
                        .map_err(|e| format!("--trials: {e}"))?,
                );
            }
            "--threads" => {
                threads = it
                    .next()
                    .ok_or_else(|| "--threads requires a number".to_string())?
                    .parse::<usize>()
                    .map_err(|e| format!("--threads: {e}"))?
                    .max(1);
            }
            flag if flag.starts_with("--") => return Err(format!("unknown flag {flag}")),
            name => match &target {
                None => target = Some(name.to_string()),
                Some(t) if t == "scenarios" => extra.push(name.to_string()),
                Some(_) => return Err(format!("unexpected extra argument {name}")),
            },
        }
    }
    let target = target.ok_or_else(|| "a target is required".to_string())?;
    if all_scenarios && target != "scenarios" {
        return Err("--all is only valid with `scenarios run`".into());
    }
    if (trace.is_some() || metrics)
        && (target != "scenarios" || extra.first().map(String::as_str) != Some("run"))
    {
        return Err("--trace/--metrics are only valid with `scenarios run`".into());
    }
    if trace.is_some() && all_scenarios {
        return Err("--trace takes a single scenario, not --all".into());
    }
    if target == "scenarios" {
        match extra.first().map(String::as_str) {
            Some("list") => {
                if extra.len() > 1 {
                    return Err("scenarios list takes no further arguments".into());
                }
                if all_scenarios {
                    return Err("--all is only valid with `scenarios run`".into());
                }
            }
            Some("run") if all_scenarios => {
                if extra.len() > 1 {
                    return Err("scenarios run --all takes no scenario name".into());
                }
            }
            Some("run") => {
                let name = extra.get(1).ok_or_else(|| {
                    "scenarios run requires a scenario name (or --all)".to_string()
                })?;
                if scenarios::find(name).is_none() {
                    return Err(format!(
                        "unknown scenario {name} (see `repro scenarios list`)"
                    ));
                }
                if extra.len() > 2 {
                    return Err("scenarios run takes exactly one scenario name".into());
                }
            }
            _ => return Err("scenarios requires a subcommand: list or run <name>|--all".into()),
        }
        return Ok(Cli {
            target,
            extra,
            opts_mode: Mode::from_full_flag(full),
            out_dir,
            trials,
            threads,
            json,
            all_scenarios,
            trace,
            metrics,
        });
    }
    if target != "all" && !TARGETS.iter().any(|&(name, _)| name == target) {
        return Err(format!("unknown target {target}"));
    }
    Ok(Cli {
        target,
        extra,
        opts_mode: Mode::from_full_flag(full),
        out_dir,
        trials,
        threads,
        json,
        all_scenarios,
        trace,
        metrics,
    })
}

fn execute(cli: Cli) -> ExitCode {
    let opts = RunOptions {
        mode: cli.opts_mode,
        trials: cli.trials,
        threads: cli.threads,
    };
    if cli.target == "scenarios" {
        return execute_scenarios(&cli, &opts);
    }
    let targets = TARGETS
        .iter()
        .filter(|&&(name, _)| cli.target == "all" || cli.target == name);
    for &(target, run) in targets {
        // xtask:allow(wall-clock): elapsed time is printed for the human, never written into a report/CSV
        let start = Instant::now();
        let report = run(&opts);
        let elapsed = start.elapsed();
        if let Err(e) = emit_report(&report, &cli, elapsed) {
            eprintln!("error: writing artifacts for {target}: {e}");
            return ExitCode::FAILURE;
        }
    }
    ExitCode::SUCCESS
}

/// Prints a report (ASCII or JSON per `--json`) and writes its artifacts.
fn emit_report(
    report: &FigureReport,
    cli: &Cli,
    elapsed: std::time::Duration,
) -> std::io::Result<()> {
    if cli.json {
        println!("{}", report.to_json());
        report.write_json(&cli.out_dir)?;
    } else {
        println!("{}", report.rendered);
        for note in &report.notes {
            println!("  note: {note}");
        }
    }
    let path = report.write_csv(&cli.out_dir)?;
    if !cli.json {
        println!("  csv: {} ({elapsed:.1?})\n", path.display());
    }
    Ok(())
}

fn execute_scenarios(cli: &Cli, opts: &RunOptions) -> ExitCode {
    match cli.extra.first().map(String::as_str) {
        Some("list") => {
            println!("{}", scenarios::list_rendered());
            ExitCode::SUCCESS
        }
        Some("run") => {
            let targets: Vec<scenarios::Scenario> = if cli.all_scenarios {
                scenarios::registry()
            } else {
                let name = cli.extra.get(1).expect("validated in parse()");
                vec![scenarios::find(name).expect("validated in parse()")]
            };
            for scenario in targets {
                // xtask:allow(wall-clock): elapsed time is printed for the human, never written into a report/CSV
                let start = Instant::now();
                let report = scenarios::run(&scenario, opts);
                let elapsed = start.elapsed();
                if let Err(e) = emit_report(&report, cli, elapsed) {
                    eprintln!(
                        "error: writing artifacts for scenario {}: {e}",
                        scenario.name
                    );
                    return ExitCode::FAILURE;
                }
                if cli.trace.is_some() || cli.metrics {
                    if let Err(e) = emit_trace(&scenario, cli, opts) {
                        eprintln!("error: tracing scenario {}: {e}", scenario.name);
                        return ExitCode::FAILURE;
                    }
                }
            }
            ExitCode::SUCCESS
        }
        _ => unreachable!("subcommand validated in parse()"),
    }
}

/// `--trace`/`--metrics`: one representative traced execution of the
/// scenario, on top of the (untraced) normal run. The trace file format
/// follows the extension — `.jsonl` is the deterministic event plane
/// (byte-identical across shard/thread counts), anything else the
/// Chrome trace-event JSON with wall-clock timestamps.
fn emit_trace(scenario: &scenarios::Scenario, cli: &Cli, opts: &RunOptions) -> std::io::Result<()> {
    let sink = trace::build_sink(cli.trace.as_deref());
    let (label, outcome) = scenarios::run_traced(scenario, opts, &sink);
    println!("traced: {label}");
    if let Some(path) = &cli.trace {
        trace::write_trace(&sink, path)?;
        println!("  trace: {}", path.display());
    }
    if cli.metrics {
        if let Some(outcome) = outcome {
            print!("{outcome}");
        }
        if let (Some(snapshot), Some(recorder)) = (sink.snapshot(), sink.recorder()) {
            print!("{}", trace::render_metrics(&snapshot, &recorder.events()));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(list: &[&str]) -> Vec<String> {
        list.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn parse_minimal() {
        let cli = parse(&args(&["fig2"])).unwrap();
        assert_eq!(cli.target, "fig2");
        assert_eq!(cli.opts_mode, Mode::Quick);
        assert_eq!(cli.out_dir, PathBuf::from("results"));
        assert_eq!(cli.trials, None);
    }

    #[test]
    fn parse_all_flags() {
        let cli = parse(&args(&[
            "all",
            "--full",
            "--out",
            "/tmp/x",
            "--trials",
            "7",
            "--threads",
            "3",
        ]))
        .unwrap();
        assert_eq!(cli.target, "all");
        assert_eq!(cli.opts_mode, Mode::Full);
        assert_eq!(cli.out_dir, PathBuf::from("/tmp/x"));
        assert_eq!(cli.trials, Some(7));
        assert_eq!(cli.threads, 3);
    }

    #[test]
    fn parse_rejects_bad_input() {
        assert!(parse(&args(&[])).is_err());
        assert!(parse(&args(&["figX"])).is_err());
        assert!(parse(&args(&["fig2", "--bogus"])).is_err());
        assert!(parse(&args(&["fig2", "--trials", "abc"])).is_err());
        assert!(parse(&args(&["fig2", "fig3"])).is_err());
    }

    #[test]
    fn parse_json_and_all_flags() {
        let cli = parse(&args(&["fig2", "--json"])).unwrap();
        assert!(cli.json);
        assert!(!cli.all_scenarios);

        let cli = parse(&args(&[
            "scenarios",
            "run",
            "--all",
            "--json",
            "--trials",
            "1",
        ]))
        .unwrap();
        assert!(cli.all_scenarios && cli.json);
        assert_eq!(cli.trials, Some(1));

        assert!(parse(&args(&["fig2", "--all"])).is_err());
        assert!(parse(&args(&["scenarios", "list", "--all"])).is_err());
        assert!(parse(&args(&["scenarios", "run", "paper-z01", "--all"])).is_err());
        assert!(parse(&args(&["workloads"])).is_ok());
    }

    #[test]
    fn parse_scenarios_subcommands() {
        let cli = parse(&args(&["scenarios", "list"])).unwrap();
        assert_eq!(cli.target, "scenarios");
        assert_eq!(cli.extra, vec!["list".to_string()]);

        let cli = parse(&args(&["scenarios", "run", "paper-z01", "--trials", "2"])).unwrap();
        assert_eq!(cli.extra, vec!["run".to_string(), "paper-z01".to_string()]);
        assert_eq!(cli.trials, Some(2));

        assert!(parse(&args(&["scenarios"])).is_err());
        assert!(parse(&args(&["scenarios", "run"])).is_err());
        assert!(parse(&args(&["scenarios", "run", "nope"])).is_err());
        assert!(parse(&args(&["scenarios", "list", "extra"])).is_err());
        assert!(parse(&args(&["scenarios", "run", "paper-z01", "x"])).is_err());
    }

    #[test]
    fn parse_trace_and_metrics_flags() {
        let cli = parse(&args(&[
            "scenarios",
            "run",
            "paper-z01",
            "--trace",
            "/tmp/out.json",
            "--metrics",
        ]))
        .unwrap();
        assert_eq!(cli.trace, Some(PathBuf::from("/tmp/out.json")));
        assert!(cli.metrics);

        // --metrics alone is fine (registry print, no file).
        let cli = parse(&args(&["scenarios", "run", "paper-z01", "--metrics"])).unwrap();
        assert_eq!(cli.trace, None);
        assert!(cli.metrics);

        // Tracing is scoped to a single scenario run.
        assert!(parse(&args(&["scenarios", "run", "paper-z01", "--trace"])).is_err());
        assert!(parse(&args(&["fig2", "--trace", "/tmp/t.json"])).is_err());
        assert!(parse(&args(&["fig2", "--metrics"])).is_err());
        assert!(parse(&args(&["scenarios", "list", "--metrics"])).is_err());
        assert!(parse(&args(&[
            "scenarios",
            "run",
            "--all",
            "--trace",
            "/tmp/t.json"
        ]))
        .is_err());
    }
}
