//! The harness side of the two-plane observability contract: the
//! wall-clock [`Clock`] implementation, trace-file export, and the
//! human-readable metrics/phase-profile rendering behind
//! `repro scenarios run <name> --trace out.json --metrics`.
//!
//! Library crates record only into the *deterministic* event plane (see
//! `docs/ARCHITECTURE.md`, contract rule 11): their sinks default to the
//! [`npd_telemetry::NullClock`] and never read real time. This module is
//! the one place a real clock is constructed — `repro` is a harness
//! binary, where wall time is presentation, never data.
//!
//! Export format is chosen by file extension: `.jsonl` writes the
//! deterministic JSON-lines stream (byte-identical across shard and
//! thread counts — the CI determinism matrix compares these files with
//! `cmp`), anything else writes the Chrome trace-event JSON loadable in
//! `chrome://tracing` / Perfetto, timestamped by this module's
//! [`WallClock`].

use npd_telemetry::{Clock, FieldValue, MetricsSnapshot, RecordedEvent, TelemetrySink};
use std::path::Path;
use std::time::Instant;

/// Monotonic wall clock for the optional timing plane.
///
/// Lives in the experiments harness *on purpose*: the `clock-boundary`
/// analyzer flags any real-time `Clock` impl inside a library crate, so
/// instrumented engines can only ever see a clock the harness hands
/// them.
#[derive(Debug)]
pub struct WallClock {
    origin: Instant,
}

impl WallClock {
    /// A clock whose epoch is the moment of construction.
    pub fn new() -> Self {
        Self {
            // xtask:allow(wall-clock): the harness-side timing plane; timestamps go to Chrome traces, never into reports/CSVs
            origin: Instant::now(),
        }
    }
}

impl Default for WallClock {
    fn default() -> Self {
        Self::new()
    }
}

impl Clock for WallClock {
    fn now_micros(&self) -> u64 {
        let micros = self.origin.elapsed().as_micros();
        // 1-based: `TelemetrySink::with_clock` classifies a clock that
        // reads 0 twice as the NullClock, and a fresh monotonic origin
        // legitimately reads 0µs twice on a fast machine.
        u64::try_from(micros)
            .unwrap_or(u64::MAX - 1)
            .saturating_add(1)
    }
}

/// Builds the sink for a traced run: deterministic (null-clock) when the
/// target is a `.jsonl` stream or there is no file at all (metrics-only),
/// wall-clocked when the target is a Chrome trace.
pub fn build_sink(trace_path: Option<&Path>) -> TelemetrySink {
    match trace_path {
        Some(path) if !is_jsonl(path) => TelemetrySink::with_clock(Box::new(WallClock::new())),
        _ => TelemetrySink::recording(),
    }
}

/// Writes the recorded trace to `path` in the extension-selected format.
///
/// # Errors
///
/// Propagates the underlying file-write error.
pub fn write_trace(sink: &TelemetrySink, path: &Path) -> std::io::Result<()> {
    let body = if is_jsonl(path) {
        sink.export_jsonl()
    } else {
        sink.export_chrome_trace()
    };
    let body = body.unwrap_or_default();
    std::fs::write(path, body)
}

fn is_jsonl(path: &Path) -> bool {
    path.extension().is_some_and(|e| e == "jsonl")
}

/// Renders the histogram registry and — when the run emitted protocol
/// `phase` events — the per-phase round/message profile, as an ASCII
/// table block for `--metrics`.
pub fn render_metrics(snapshot: &MetricsSnapshot, events: &[RecordedEvent]) -> String {
    let mut out = String::new();
    if !snapshot.histograms.is_empty() {
        let rows: Vec<Vec<String>> = snapshot
            .histograms
            .iter()
            .map(|(name, h)| {
                vec![
                    name.to_string(),
                    h.count().to_string(),
                    h.min().to_string(),
                    h.max().to_string(),
                    h.sum().to_string(),
                ]
            })
            .collect();
        out.push_str(&crate::output::table(
            &["histogram", "count", "min", "max", "sum"],
            &rows,
        ));
        out.push('\n');
    }
    if let Some(profile) = render_phase_profile(events) {
        out.push_str(&profile);
        out.push('\n');
    }
    out.push_str(&format!("events recorded: {}\n", snapshot.events));
    out
}

/// The phase-split profile (ROADMAP item 2's protocol-communication
/// question): one row per protocol phase with its round span, message
/// count, and share of total protocol messages. `None` when the trace
/// has no `phase` events (non-protocol scenarios).
pub fn render_phase_profile(events: &[RecordedEvent]) -> Option<String> {
    let phases: Vec<&RecordedEvent> = events.iter().filter(|e| e.event.name == "phase").collect();
    if phases.is_empty() {
        return None;
    }
    let field = |e: &RecordedEvent, name: &str| -> u64 {
        e.event
            .fields
            .iter()
            .find_map(|&(f, ref v)| match (f == name, v) {
                (true, &FieldValue::U64(u)) => Some(u),
                _ => None,
            })
            .unwrap_or(0)
    };
    let total: u64 = phases.iter().map(|e| field(e, "messages")).sum();
    let rows: Vec<Vec<String>> = phases
        .iter()
        .map(|e| {
            let messages = field(e, "messages");
            let share = if total == 0 {
                0.0
            } else {
                100.0 * messages as f64 / total as f64
            };
            vec![
                e.event.phase.to_string(),
                field(e, "first_round").to_string(),
                field(e, "last_round").to_string(),
                field(e, "rounds").to_string(),
                messages.to_string(),
                format!("{share:.1}%"),
            ]
        })
        .collect();
    Some(crate::output::table(
        &["phase", "first", "last", "rounds", "messages", "share"],
        &rows,
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use npd_telemetry::Event;

    #[test]
    fn wall_clock_is_monotone_and_classified_as_wall() {
        let clock = WallClock::new();
        let a = clock.now_micros();
        let b = clock.now_micros();
        assert!(b >= a);
    }

    #[test]
    fn sink_format_follows_extension() {
        // .jsonl → deterministic plane (null clock): export carries no
        // wall timestamps, so two runs are byte-identical.
        let jsonl = build_sink(Some(Path::new("/tmp/t.jsonl")));
        jsonl.record("x", 1);
        let a = jsonl.export_jsonl().unwrap();
        let again = build_sink(Some(Path::new("/tmp/t.jsonl")));
        again.record("x", 1);
        assert_eq!(a, again.export_jsonl().unwrap());
        // .json → Chrome trace with the wall clock attached.
        let chrome = build_sink(Some(Path::new("/tmp/t.json")));
        chrome.emit(|| Event::instant("e"));
        assert!(chrome
            .export_chrome_trace()
            .unwrap()
            .contains("\"traceEvents\""));
    }

    #[test]
    fn write_trace_round_trips_both_formats() {
        let dir = std::env::temp_dir().join("npd-trace-test");
        std::fs::create_dir_all(&dir).unwrap();
        for name in ["t.jsonl", "t.json"] {
            let path = dir.join(name);
            let sink = build_sink(Some(&path));
            sink.emit(|| Event::instant("e").phase("p").u64("v", 7));
            write_trace(&sink, &path).unwrap();
            let body = std::fs::read_to_string(&path).unwrap();
            assert!(!body.is_empty(), "{name} wrote an empty trace");
        }
    }

    #[test]
    fn phase_profile_computes_message_shares() {
        let sink = TelemetrySink::recording();
        sink.emit(|| {
            Event::instant("phase")
                .phase("measure")
                .u64("first_round", 0)
                .u64("last_round", 0)
                .u64("rounds", 1)
                .u64("messages", 75)
        });
        sink.emit(|| {
            Event::instant("phase")
                .phase("select")
                .u64("first_round", 2)
                .u64("last_round", 5)
                .u64("rounds", 4)
                .u64("messages", 25)
        });
        let events = sink.recorder().unwrap().events();
        let profile = render_phase_profile(&events).unwrap();
        assert!(profile.contains("measure"));
        assert!(profile.contains("75.0%"));
        assert!(profile.contains("25.0%"));
        // And the full metrics rendering embeds it.
        let rendered = render_metrics(&sink.snapshot().unwrap(), &events);
        assert!(rendered.contains("events recorded: 2"));
        assert!(rendered.contains("select"));
    }
}
