//! `perfbench`: a closed-loop benchmark of the distributed protocol, end to
//! end and layer by layer.
//!
//! One process runs one workload. It samples the workload's instance, then
//! repeats the workload's operation on that instance for `--seconds`, one
//! operation at a time, and checks every output outside the timed region.
//! `--trace 0` reports the end-to-end metrics of untraced operations;
//! `--trace 1` reports the per-layer metrics of traced operations and of
//! standalone calls into each layer. The last line of standard output is
//! the JSON result; the lines before it are the same numbers for a human,
//! with units and sample counts.
//!
//! Run it through `python3 perfbench/run.py`, which builds this package
//! and passes the provenance arguments (`--nproc`, `--commit`, `--rustc`).
//! `perfbench/README.md` explains the workloads and what each metric
//! should move.

mod layers;
mod workload;

use npd_core::distributed::ProtocolOutcome;
use npd_core::{Instance, Run};
use npd_experiments::trace::WallClock;
use npd_telemetry::Clock;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::path::{Path, PathBuf};
use workload::{Bench, Workload};

/// Worker threads of the pool every workload runs on. A second thread
/// sped up only `protocol-select`, and on a host whose cores are shared
/// it made every op wait for whichever thread was descheduled last.
const POOL_THREADS: usize = 1;
/// Set-up is timed as the mean of repeated samplings of the same seed:
/// this many before the first op, then one after every timed op.
const SETUP_REPS: usize = 5;
/// Operations per run, however long each takes.
const MIN_OPS: usize = 3;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
    nproc: usize,
    commit: String,
    rustc: String,
    spans: Option<PathBuf>,
}

fn parse_args(mut it: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace, mut nproc) =
        (None, None, None, None, None);
    let (mut commit, mut rustc, mut spans) =
        (String::from("unknown"), String::from("unknown"), None);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let number = |v: &str| v.parse::<u64>().map_err(|e| format!("{flag} {v}: {e}"));
        match flag.as_str() {
            "--workload" => {
                workload = Some(Workload::from_name(&value).ok_or_else(|| {
                    format!(
                        "unknown workload {value}; known: {}",
                        Workload::names().join(", ")
                    )
                })?)
            }
            "--seed" => seed = Some(number(&value)?),
            "--seconds" => seconds = Some(number(&value)?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value}")),
                })
            }
            "--nproc" => nproc = Some(number(&value)?.max(1) as usize),
            "--commit" => commit = value,
            "--rustc" => rustc = value,
            "--spans" => spans = Some(PathBuf::from(value)),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let missing = |name: &str| format!("missing {name}");
    Ok(Args {
        workload: workload.ok_or_else(|| missing("--workload"))?,
        seed: seed.ok_or_else(|| missing("--seed"))?,
        seconds: seconds.ok_or_else(|| missing("--seconds"))?,
        trace: trace.ok_or_else(|| missing("--trace"))?,
        nproc: nproc.ok_or_else(|| missing("--nproc"))?,
        commit,
        rustc,
        spans,
    })
}

/// One span around a call into a layer, kept in memory until the run ends.
struct Span {
    name: &'static str,
    parent: Option<usize>,
    /// Operation id: every top-level span starts a new operation, and its
    /// children share it.
    op: u64,
    start_us: u64,
    end_us: u64,
}

/// The benchmark's own clock and span log.
pub struct Tracer {
    clock: WallClock,
    spans: Vec<Span>,
    ops: u64,
}

impl Tracer {
    fn new() -> Self {
        Self {
            clock: WallClock::new(),
            spans: Vec::new(),
            ops: 0,
        }
    }

    pub fn now(&self) -> u64 {
        self.clock.now_micros()
    }

    pub fn begin(&mut self, name: &'static str, parent: Option<usize>) -> usize {
        let op = match parent {
            Some(p) => self.spans[p].op,
            None => {
                self.ops += 1;
                self.ops
            }
        };
        self.spans.push(Span {
            name,
            parent,
            op,
            start_us: self.now(),
            end_us: 0,
        });
        self.spans.len() - 1
    }

    /// Closes a span and returns its duration in microseconds.
    pub fn end(&mut self, id: usize) -> u64 {
        let now = self.now();
        let span = &mut self.spans[id];
        span.end_us = now;
        now - span.start_us
    }

    /// Runs `f` inside a span and returns its result and duration (µs).
    pub fn time<R>(
        &mut self,
        name: &'static str,
        parent: Option<usize>,
        f: impl FnOnce() -> R,
    ) -> (R, u64) {
        let id = self.begin(name, parent);
        let out = f();
        (out, self.end(id))
    }

    fn write(&self, path: &Path, header: &str) -> Result<(), String> {
        let mut body = format!("{header}\n");
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            body.push_str(&format!(
                "{{\"id\":{id},\"name\":\"{}\",\"parent\":{parent},\"op\":{},\"start_us\":{},\"end_us\":{}}}\n",
                s.name, s.op, s.start_us, s.end_us
            ));
        }
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        }
        std::fs::write(path, body).map_err(|e| format!("{}: {e}", path.display()))
    }
}

/// A reported metric value: counts print as exact integers.
#[derive(Debug, Clone, Copy)]
pub enum Value {
    Int(u64),
    Float(f64),
}

impl Value {
    fn json(self) -> String {
        match self {
            Value::Int(v) => v.to_string(),
            // Rust prints finite floats without an exponent, so this is a
            // valid JSON number with every digit.
            Value::Float(v) if v.is_finite() => format!("{v}"),
            Value::Float(_) => "null".to_string(),
        }
    }
}

pub struct Metric {
    name: &'static str,
    value: Value,
    unit: &'static str,
    /// What the value was computed from, for the human report.
    samples: String,
}

impl Metric {
    pub fn new(name: &'static str, value: Value, unit: &'static str, samples: String) -> Self {
        Self {
            name,
            value,
            unit,
            samples,
        }
    }

    /// A time in seconds from microseconds.
    pub fn secs(name: &'static str, us: f64, samples: String) -> Self {
        Self::new(name, Value::Float(us / 1e6), "s", samples)
    }

    pub fn count(name: &'static str, value: u64, samples: &str) -> Self {
        Self::new(name, Value::Int(value), "count", samples.to_string())
    }
}

/// The checked calls of a run: how many were attempted, which failed, and
/// the first operation's outcome, which every later one must equal.
#[derive(Default)]
pub struct Checks {
    attempted: u64,
    failures: Vec<String>,
    first: Option<ProtocolOutcome>,
}

impl Checks {
    /// Counts one checked call and its verdict.
    fn call(&mut self, verdict: Result<(), String>) {
        self.attempted += 1;
        if let Err(e) = verdict {
            self.failures.push(e);
        }
    }

    /// Counts one checked call that passes when `ok`.
    pub fn verify(&mut self, ok: bool, failure: &str) {
        self.call(if ok { Ok(()) } else { Err(failure.into()) });
    }

    /// Counts one operation: the workload's checks on its outcome, then
    /// equality with the run's first outcome.
    pub fn op(&mut self, bench: &Bench, result: Result<ProtocolOutcome, String>) {
        let verdict = result.and_then(|out| {
            bench.check(&out)?;
            match &self.first {
                None => {
                    self.first = Some(out);
                    Ok(())
                }
                Some(first) if *first == out => Ok(()),
                Some(_) => Err("outcome differs from the run's first operation".into()),
            }
        });
        self.call(verdict);
    }

    pub fn first(&self) -> Option<&ProtocolOutcome> {
        self.first.as_ref()
    }
}

/// Outcome of a run: its metrics and checks, plus extra report lines.
pub struct Summary {
    pub metrics: Vec<Metric>,
    pub checks: Checks,
    pub notes: Vec<String>,
}

/// Median of microsecond samples (mean of the middle two for even counts).
pub fn median_us(samples: &[u64]) -> f64 {
    let mut v = samples.to_vec();
    v.sort_unstable();
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2] as f64,
        n => (v[n / 2 - 1] as f64 + v[n / 2] as f64) / 2.0,
    }
}

/// Mean of microsecond samples.
fn mean_us(samples: &[u64]) -> f64 {
    samples.iter().sum::<u64>() as f64 / samples.len().max(1) as f64
}

/// Peak resident set of this process (`VmHWM`), in megabytes (10^6 bytes).
fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("/proc/self/status: {e}"))?;
    let line = status
        .lines()
        .find(|l| l.starts_with("VmHWM:"))
        .ok_or("no VmHWM in /proc/self/status")?;
    let kib: f64 = line
        .trim_start_matches("VmHWM:")
        .trim()
        .trim_end_matches("kB")
        .trim()
        .parse()
        .map_err(|e| format!("VmHWM {line}: {e}"))?;
    Ok(kib * 1024.0 / 1e6)
}

/// Samples the workload's base instance repeatedly from the same seed.
/// Returns the last sample and the time of each sampling (µs).
fn setup(tracer: &mut Tracer, workload: Workload) -> Result<(Run, Vec<u64>), String> {
    let instance = workload.instance()?;
    let mut times = Vec::new();
    let mut first: Option<Vec<f64>> = None;
    let mut run = None;
    while times.len() < SETUP_REPS {
        // Free the previous sample first, so set-up never holds two.
        drop(run.take());
        let (sampled, us) = sample(tracer, workload, &instance);
        times.push(us);
        match &first {
            None => first = Some(sampled.results().to_vec()),
            Some(results) if results.as_slice() != sampled.results() => {
                return Err("one seed sampled two different instances".into())
            }
            Some(_) => {}
        }
        run = Some(sampled);
    }
    let run = run.ok_or("set-up sampled nothing")?;
    Ok((run, times))
}

/// One timed sampling of the workload's base instance from its seed.
fn sample(tracer: &mut Tracer, workload: Workload, instance: &Instance) -> (Run, u64) {
    let seed = workload.shape().base_seed;
    tracer.time("setup", None, || {
        instance.sample(&mut StdRng::seed_from_u64(seed))
    })
}

/// The untraced run: end-to-end metrics.
fn end_to_end(
    bench: &Bench,
    tracer: &mut Tracer,
    seconds: u64,
    mut setup_us: Vec<u64>,
    mut checks: Checks,
) -> Result<Summary, String> {
    let instance = bench.workload.instance()?;
    let deadline = tracer.now() + seconds * 1_000_000;
    let mut times = Vec::new();
    while times.len() < MIN_OPS || tracer.now() < deadline {
        let (raw, us) = tracer.time("op", None, || bench.op(None));
        times.push(us);
        checks.op(bench, raw);
        // One set-up per op as well, so `setup_s` samples the host over the
        // whole run, as `op_p50_s` does, not only over its first seconds.
        let (sampled, us) = sample(tracer, bench.workload, &instance);
        setup_us.push(us);
        // Relabeling keeps every query's results, so they pin the sample.
        checks.verify(
            sampled.results() == bench.run.results(),
            "one seed sampled two different instances",
        );
    }
    let ops = times.len();
    let (messages, rounds, overlap) = match checks.first() {
        Some(out) => (out.metrics.messages_sent, out.rounds, bench.overlap(out)),
        None => (0, 0, 0.0),
    };
    let exact = format!("exact; identical over {ops} ops");
    let metrics = vec![
        Metric::secs(
            "op_p50_s",
            median_us(&times),
            format!("median of {ops} ops"),
        ),
        // A mean, not a median: set-up time follows the host between a
        // quiet and a contended state (11-12 ms against 17-18 ms on
        // protocol-select), so a run's median jumps from one state to the
        // other while the mean moves with the share of time in each.
        Metric::secs(
            "setup_s",
            mean_us(&setup_us),
            format!("mean of {} samplings of one seed", setup_us.len()),
        ),
        Metric::new(
            "peak_rss_mb",
            Value::Float(peak_rss_mb()?),
            "MB",
            "VmHWM of this process".into(),
        ),
        Metric::count("messages_per_op", messages, &exact),
        Metric::count("rounds_per_op", rounds, &exact),
    ];
    Ok(Summary {
        metrics,
        checks,
        // Reported, not bounded: overlap is a property of the instance, and
        // the checks already reject any change in the estimate.
        notes: vec![format!("overlap: {overlap} (estimate vs ground truth)")],
    })
}

fn run(args: &Args, tracer: &mut Tracer) -> Result<Summary, String> {
    let (base, setup_us) = setup(tracer, args.workload)?;
    let run = workload::relabel(base, args.seed)?;
    let bench = Bench::new(args.workload, run);
    // One untimed op first, so the first growth of the heap and cold
    // caches stay out of the timed ones. Its output is checked like theirs.
    let mut checks = Checks::default();
    let (raw, _) = tracer.time("warmup", None, || bench.op(None));
    checks.op(&bench, raw);
    if args.trace {
        layers::traced(&bench, tracer, args.seconds, checks)
    } else {
        end_to_end(&bench, tracer, args.seconds, setup_us, checks)
    }
}

/// What ran, where, and with which settings: printed with every result
/// and written at the head of the span file.
fn provenance(args: &Args, threads: usize) -> Vec<(&'static str, String)> {
    let env = |name: &str| std::env::var(name).unwrap_or_else(|_| "unset".into());
    vec![
        ("workload", args.workload.name().into()),
        ("seed", args.seed.to_string()),
        ("trace", u8::from(args.trace).to_string()),
        ("commit", args.commit.clone()),
        ("rustc", args.rustc.clone()),
        ("nproc", args.nproc.to_string()),
        ("pool_threads", threads.to_string()),
        ("malloc_arena_max", env("MALLOC_ARENA_MAX")),
        ("malloc_mmap_threshold", env("MALLOC_MMAP_THRESHOLD_")),
        ("malloc_trim_threshold", env("MALLOC_TRIM_THRESHOLD_")),
    ]
}

fn json_str(s: &str) -> String {
    format!("\"{}\"", s.replace('\\', "\\\\").replace('"', "\\\""))
}

fn print_report(args: &Args, provenance: &[(&str, String)], summary: &Summary) {
    let s = args.workload.shape();
    println!(
        "perfbench {} seed={} seconds={} trace={}",
        args.workload.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    let fields: Vec<String> = provenance
        .iter()
        .map(|(k, v)| format!("{k}={}", json_str(v)))
        .collect();
    println!("provenance: {}", fields.join(" "));
    println!(
        "instance: n={} k={} m={} gamma={} noise={:?} base_seed={}",
        s.n, s.k, s.m, s.gamma, s.noise, s.base_seed
    );
    for note in &summary.notes {
        println!("{note}");
    }
    println!("{:<28} {:>18} {:<9} samples", "metric", "value", "unit");
    for m in &summary.metrics {
        println!(
            "{:<28} {:>18} {:<9} {}",
            m.name,
            m.value.json(),
            m.unit,
            m.samples
        );
    }
    let checks = &summary.checks;
    let failed = checks.failures.len();
    let error_rate = failed as f64 / checks.attempted.max(1) as f64;
    println!(
        "{:<28} {:>18} {:<9} {failed} of {} checked calls failed",
        "error_rate", error_rate, "fraction", checks.attempted
    );
    for f in checks.failures.iter().take(5) {
        println!("failure: {f}");
    }
    let metrics: Vec<String> = summary
        .metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name,
                m.value.json(),
                m.unit
            )
        })
        .collect();
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        failed == 0,
        checks.attempted,
        metrics.join(", ")
    );
}

fn main() {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload <{}> --seed N --seconds S --trace 0|1 --nproc N \
                 [--commit C] [--rustc V] [--spans FILE]",
                Workload::names().join("|")
            );
            std::process::exit(2);
        }
    };
    let pool = match rayon::ThreadPoolBuilder::new()
        .num_threads(POOL_THREADS)
        .build()
    {
        Ok(pool) => pool,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(1);
        }
    };
    let mut tracer = Tracer::new();
    let summary = match pool.install(|| run(&args, &mut tracer)) {
        Ok(summary) => summary,
        Err(e) => {
            eprintln!("perfbench: {}: {e}", args.workload.name());
            std::process::exit(1);
        }
    };
    let provenance = provenance(&args, POOL_THREADS);
    if let Some(path) = &args.spans {
        let fields: Vec<String> = provenance
            .iter()
            .map(|(k, v)| format!("\"{k}\":{}", json_str(v)))
            .collect();
        let header = format!("{{{}}}", fields.join(","));
        if let Err(e) = tracer.write(path, &header) {
            eprintln!("perfbench: writing spans: {e}");
            std::process::exit(1);
        }
    }
    print_report(&args, &provenance, &summary);
}
