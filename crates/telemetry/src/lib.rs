//! Deterministic observability for the noisy-pooled-data workspace.
//!
//! The workspace can *prove* a run is bit-identical across shard and
//! thread counts, but until this crate nothing could *see inside* one:
//! AMP/BP convergence was invisible between entry and exit, netsim's
//! per-round behavior was only surfaced through the cumulative
//! `npd_netsim::Metrics`-style counters, and the only timing data was
//! criterion medians. `npd-telemetry` adds that visibility without
//! touching the determinism contract, by splitting observability into
//! two strictly separated planes:
//!
//! 1. **The deterministic event plane** — fixed-log2 histograms and
//!    structured events keyed by `(phase, round/iteration, shard)`.
//!    Totals a producer already keeps (the netsim `Metrics`, the
//!    protocol's phase table) stay with that producer as the one source
//!    of each count; the plane has no counter or gauge registry that
//!    would copy them. Everything recorded here is a contract-pure
//!    quantity (message counts, fault tallies, residual norms, score
//!    margins, per-iteration deltas), and every producer records from a
//!    *serial* section of its engine, so the recorded stream is required
//!    to be bit-identical across shard and thread counts (pinned by
//!    `tests/determinism.rs` in the workspace root).
//!    [`Recorder::export_jsonl`] serializes exactly this plane and
//!    nothing else.
//! 2. **The optional wall-clock plane** — a [`Clock`] trait attaches
//!    monotonic timestamps to the same events for phase profiling. The
//!    default [`NullClock`] reads nothing; a real monotonic
//!    implementation lives only in harness crates (`npd-experiments`
//!    and `npd-bench`), never here and never in a library crate — the
//!    `clock-boundary` analyzer rule (contract rule 11) enforces that.
//!    [`Recorder::export_chrome_trace`] uses wall time when a real
//!    clock was attached and falls back to the logical sequence number
//!    otherwise, so the trace stays loadable either way.
//!
//! Producers hold a [`TelemetrySink`] — a cheap clonable handle that is
//! disabled by default. A disabled sink is a `None` check: no event is
//! constructed, no lock is taken, no allocation happens (the
//! `telemetry_overhead` bench row in `BENCH_baseline.json` tracks the
//! cost on the AMP hot loop). Enabled sinks serialize access through a
//! mutex, which is safe *and* deterministic because every instrumented
//! engine records only from serial code sections.
//!
//! # Example
//!
//! ```
//! use npd_telemetry::{Event, TelemetrySink};
//!
//! let sink = TelemetrySink::recording();
//! sink.record("inbox_len", 7);
//! sink.emit(|| Event::instant("round").phase("netsim").round(0).u64("sent", 3));
//! let jsonl = sink.export_jsonl().unwrap();
//! assert!(jsonl.contains("\"name\":\"round\""));
//!
//! let off = TelemetrySink::default();
//! assert!(!off.is_enabled());
//! off.emit(|| unreachable!("disabled sinks never build events"));
//! ```

#![deny(missing_docs)]
#![forbid(unsafe_code)]

use std::collections::BTreeMap;
use std::fmt;
use std::sync::{Arc, Mutex, PoisonError};

/// Source of wall-clock timestamps for the optional timing plane.
///
/// Library crates must only ever see the [`NullClock`]; monotonic
/// implementations live in harness crates (`npd-experiments`,
/// `npd-bench`), where timing is observable on purpose. The
/// `clock-boundary` analyzer rule (contract rule 11) flags real-time
/// `Clock` impls anywhere else.
pub trait Clock: Send + Sync + fmt::Debug {
    /// Microseconds since an arbitrary fixed origin.
    fn now_micros(&self) -> u64;
}

/// The default clock: reads nothing, always returns zero. With this
/// clock attached the recorder is a pure function of the recorded
/// events, which is what the determinism legs compare.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NullClock;

impl Clock for NullClock {
    fn now_micros(&self) -> u64 {
        0
    }
}

/// A value attached to an [`Event`] field.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum FieldValue {
    /// Unsigned counter-like quantity.
    U64(u64),
    /// Signed quantity.
    I64(i64),
    /// Floating-point quantity (residual norms, score margins, …).
    F64(f64),
}

/// Span structure of an [`Event`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EventKind {
    /// Opens a span (Chrome trace `ph: "B"`).
    Begin,
    /// Closes the most recent span of the same name (Chrome `ph: "E"`).
    End,
    /// A point event (Chrome `ph: "i"`).
    Instant,
}

impl EventKind {
    fn as_str(self) -> &'static str {
        match self {
            EventKind::Begin => "begin",
            EventKind::End => "end",
            EventKind::Instant => "instant",
        }
    }
}

/// One structured trace event, keyed by `(phase, round, shard)`.
///
/// Names, phases, and field names are `&'static str` so constructing an
/// event never allocates for strings; the field vector is the only
/// allocation, and it is only made when a sink is enabled (see
/// [`TelemetrySink::emit`]).
#[derive(Debug, Clone, PartialEq)]
pub struct Event {
    /// Event name (e.g. `"round"`, `"amp.iter"`).
    pub name: &'static str,
    /// Span structure.
    pub kind: EventKind,
    /// Protocol/engine phase the event belongs to (e.g. `"netsim"`,
    /// `"selection"`); doubles as the Chrome trace category.
    pub phase: &'static str,
    /// Round or iteration number.
    pub round: u64,
    /// Shard the event is attributed to (0 for unsharded engines);
    /// becomes the Chrome trace `tid`.
    pub shard: u32,
    /// Contract-pure payload fields, in insertion order.
    pub fields: Vec<(&'static str, FieldValue)>,
}

impl Event {
    fn new(name: &'static str, kind: EventKind) -> Self {
        Self {
            name,
            kind,
            phase: "",
            round: 0,
            shard: 0,
            fields: Vec::new(),
        }
    }

    /// A point event.
    pub fn instant(name: &'static str) -> Self {
        Self::new(name, EventKind::Instant)
    }

    /// Opens a span.
    pub fn begin(name: &'static str) -> Self {
        Self::new(name, EventKind::Begin)
    }

    /// Closes a span.
    pub fn end(name: &'static str) -> Self {
        Self::new(name, EventKind::End)
    }

    /// Sets the phase tag.
    #[must_use]
    pub fn phase(mut self, phase: &'static str) -> Self {
        self.phase = phase;
        self
    }

    /// Sets the round/iteration key.
    #[must_use]
    pub fn round(mut self, round: u64) -> Self {
        self.round = round;
        self
    }

    /// Sets the shard key.
    #[must_use]
    pub fn shard(mut self, shard: u32) -> Self {
        self.shard = shard;
        self
    }

    /// Attaches an unsigned field.
    #[must_use]
    pub fn u64(mut self, name: &'static str, value: u64) -> Self {
        self.fields.push((name, FieldValue::U64(value)));
        self
    }

    /// Attaches a signed field.
    #[must_use]
    pub fn i64(mut self, name: &'static str, value: i64) -> Self {
        self.fields.push((name, FieldValue::I64(value)));
        self
    }

    /// Attaches a floating-point field.
    #[must_use]
    pub fn f64(mut self, name: &'static str, value: f64) -> Self {
        self.fields.push((name, FieldValue::F64(value)));
        self
    }
}

/// An [`Event`] as stored by the [`Recorder`]: the deterministic event
/// plus its logical sequence number and (wall-clock plane only) its
/// timestamp.
#[derive(Debug, Clone, PartialEq)]
pub struct RecordedEvent {
    /// The deterministic event.
    pub event: Event,
    /// Position in the recorded stream (0-based).
    pub seq: u64,
    /// Wall-clock timestamp from the attached [`Clock`]; always 0 under
    /// the [`NullClock`]. Excluded from [`Recorder::export_jsonl`].
    pub wall_micros: u64,
}

/// Fixed log2-bucketed histogram: bucket `b` holds values whose bit
/// length is `b` (`0` → bucket 0, `1` → bucket 1, `2..=3` → bucket 2,
/// `2^63..` → bucket 64). Bucket boundaries never depend on the data,
/// so merged or re-recorded histograms are bit-identical.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Histogram {
    buckets: [u64; 65],
    count: u64,
    sum: u64,
    min: u64,
    max: u64,
}

impl Default for Histogram {
    fn default() -> Self {
        Self {
            buckets: [0; 65],
            count: 0,
            sum: 0,
            min: u64::MAX,
            max: 0,
        }
    }
}

/// The bucket index of a value: its bit length.
fn log2_bucket(value: u64) -> usize {
    (u64::BITS - value.leading_zeros()) as usize
}

impl Histogram {
    /// Records one value.
    pub fn record(&mut self, value: u64) {
        self.buckets[log2_bucket(value)] += 1;
        self.count += 1;
        self.sum = self.sum.saturating_add(value);
        self.min = self.min.min(value);
        self.max = self.max.max(value);
    }

    /// Number of recorded values.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Saturating sum of recorded values.
    pub fn sum(&self) -> u64 {
        self.sum
    }

    /// Smallest recorded value (`u64::MAX` when empty).
    pub fn min(&self) -> u64 {
        self.min
    }

    /// Largest recorded value (0 when empty).
    pub fn max(&self) -> u64 {
        self.max
    }

    /// The non-empty `(bucket, count)` pairs in bucket order.
    pub fn nonzero_buckets(&self) -> Vec<(usize, u64)> {
        self.buckets
            .iter()
            .enumerate()
            .filter(|(_, &c)| c > 0)
            .map(|(b, &c)| (b, c))
            .collect()
    }
}

/// The deterministic-plane histogram registry plus the ordered event
/// stream.
#[derive(Debug, Default)]
struct State {
    histograms: BTreeMap<&'static str, Histogram>,
    events: Vec<RecordedEvent>,
}

/// A point-in-time copy of the deterministic plane, for metric tables
/// and tests.
#[derive(Debug, Clone, PartialEq)]
pub struct MetricsSnapshot {
    /// Histogram registry in name order.
    pub histograms: Vec<(&'static str, Histogram)>,
    /// Number of recorded events.
    pub events: usize,
}

/// The shared recording backend behind enabled [`TelemetrySink`]s.
///
/// All mutation goes through one mutex. That is deterministic (not just
/// safe) because every instrumented engine records from *serial* code
/// sections only — the netsim arena build, the AMP/BP iteration
/// boundaries, the protocol's post-run summary — so the recorded order
/// is the engines' serial execution order, never a scheduling order.
#[derive(Debug)]
pub struct Recorder {
    clock: Box<dyn Clock>,
    /// Whether `clock` is a real wall clock (drives the Chrome trace
    /// timestamp source).
    wall: bool,
    state: Mutex<State>,
}

impl Recorder {
    fn lock(&self) -> std::sync::MutexGuard<'_, State> {
        // A poisoned telemetry mutex only means a producer panicked
        // mid-record; the recorded state is still well-formed, and losing
        // the trace of a crashing run would hide exactly the evidence
        // wanted most.
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Current snapshot of the histogram registry and the event count.
    pub fn snapshot(&self) -> MetricsSnapshot {
        let st = self.lock();
        MetricsSnapshot {
            histograms: st.histograms.iter().map(|(&k, v)| (k, v.clone())).collect(),
            events: st.events.len(),
        }
    }

    /// A copy of the recorded event stream in record order.
    pub fn events(&self) -> Vec<RecordedEvent> {
        self.lock().events.clone()
    }

    /// Serializes the **deterministic plane only** as JSON lines: one
    /// meta line, the histogram registry in name order, then every event
    /// in record order. Wall-clock timestamps are deliberately excluded,
    /// so this export is required to be byte-identical across shard and
    /// thread counts.
    pub fn export_jsonl(&self) -> String {
        let st = self.lock();
        let mut out = String::new();
        out.push_str(&format!(
            "{{\"type\":\"meta\",\"schema\":2,\"events\":{},\"histograms\":{}}}\n",
            st.events.len(),
            st.histograms.len(),
        ));
        for (name, h) in &st.histograms {
            let buckets: Vec<String> = h
                .nonzero_buckets()
                .into_iter()
                .map(|(b, c)| format!("[{b},{c}]"))
                .collect();
            out.push_str(&format!(
                "{{\"type\":\"histogram\",\"name\":{},\"count\":{},\"sum\":{},\"min\":{},\"max\":{},\"log2_buckets\":[{}]}}\n",
                json_str(name),
                h.count(),
                h.sum(),
                if h.count() == 0 { 0 } else { h.min() },
                h.max(),
                buckets.join(",")
            ));
        }
        for rec in &st.events {
            let e = &rec.event;
            let mut fields = String::new();
            for (i, (name, value)) in e.fields.iter().enumerate() {
                if i > 0 {
                    fields.push(',');
                }
                fields.push_str(&format!("{}:{}", json_str(name), json_field(*value)));
            }
            out.push_str(&format!(
                "{{\"type\":\"event\",\"seq\":{},\"kind\":\"{}\",\"name\":{},\"phase\":{},\"round\":{},\"shard\":{},\"fields\":{{{fields}}}}}\n",
                rec.seq,
                e.kind.as_str(),
                json_str(e.name),
                json_str(e.phase),
                e.round,
                e.shard,
            ));
        }
        out
    }

    /// Serializes the event stream in Chrome trace-event format
    /// (loadable in `chrome://tracing` / Perfetto). Timestamps come
    /// from the wall-clock plane when a real [`Clock`] was attached and
    /// fall back to the logical sequence number otherwise.
    pub fn export_chrome_trace(&self) -> String {
        let st = self.lock();
        let mut entries: Vec<String> = Vec::with_capacity(st.events.len());
        for rec in &st.events {
            let e = &rec.event;
            let ts = if self.wall { rec.wall_micros } else { rec.seq };
            let ph = match e.kind {
                EventKind::Begin => "\"ph\":\"B\"",
                EventKind::End => "\"ph\":\"E\"",
                EventKind::Instant => "\"ph\":\"i\",\"s\":\"t\"",
            };
            let mut args = format!("\"round\":{},\"seq\":{}", e.round, rec.seq);
            for (name, value) in &e.fields {
                args.push_str(&format!(",{}:{}", json_str(name), json_field(*value)));
            }
            entries.push(format!(
                "{{\"name\":{},\"cat\":{},{ph},\"pid\":0,\"tid\":{},\"ts\":{ts},\"args\":{{{args}}}}}",
                json_str(e.name),
                json_str(if e.phase.is_empty() { "trace" } else { e.phase }),
                e.shard,
            ));
        }
        format!("{{\"traceEvents\":[{}]}}\n", entries.join(","))
    }
}

/// Minimal JSON string serialization (names are static identifiers, but
/// escape anyway so the export is valid JSON for any input).
fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// JSON for an f64: Rust's shortest-roundtrip formatting is
/// deterministic; non-finite values (not valid JSON numbers) map to
/// null.
fn json_f64(v: f64) -> String {
    if v.is_finite() {
        let s = format!("{v}");
        // `{}` prints integral floats without a dot; keep the value
        // typed as a float on the way back in.
        if s.contains('.') || s.contains('e') || s.contains("inf") {
            s
        } else {
            format!("{s}.0")
        }
    } else {
        "null".into()
    }
}

fn json_field(v: FieldValue) -> String {
    match v {
        FieldValue::U64(v) => format!("{v}"),
        FieldValue::I64(v) => format!("{v}"),
        FieldValue::F64(v) => json_f64(v),
    }
}

/// A cheap, clonable telemetry handle.
///
/// The default sink is **disabled**: every operation is a single
/// `Option` check and returns immediately — no event construction, no
/// locking, no allocation. Library code therefore holds a sink
/// unconditionally and never branches on configuration itself.
#[derive(Debug, Clone, Default)]
pub struct TelemetrySink(Option<Arc<Recorder>>);

impl TelemetrySink {
    /// The disabled sink (same as `Default`).
    pub fn off() -> Self {
        Self(None)
    }

    /// An enabled sink recording the deterministic plane only (the
    /// [`NullClock`]): the right mode for determinism comparisons.
    pub fn recording() -> Self {
        Self::with_clock(Box::new(NullClock))
    }

    /// An enabled sink with an explicit clock for the wall-time plane.
    /// Harness crates pass their monotonic clock here; library crates
    /// never construct one (contract rule 11).
    pub fn with_clock(clock: Box<dyn Clock>) -> Self {
        let wall = clock.now_micros() > 0 || {
            // A real monotonic clock can legitimately read 0 on its
            // first call; probe a second time to classify it. The
            // NullClock reads 0 forever, so two zero reads mean the
            // deterministic plane is the only one populated.
            clock.now_micros() > 0
        };
        Self(Some(Arc::new(Recorder {
            clock,
            wall,
            state: Mutex::new(State::default()),
        })))
    }

    /// Whether this sink records anything.
    pub fn is_enabled(&self) -> bool {
        self.0.is_some()
    }

    /// The shared recorder, when enabled (for export and inspection).
    pub fn recorder(&self) -> Option<&Recorder> {
        self.0.as_deref()
    }

    /// Records an event. The closure runs only when the sink is
    /// enabled, so a disabled sink never pays for event construction.
    pub fn emit(&self, build: impl FnOnce() -> Event) {
        if let Some(rec) = &self.0 {
            let event = build();
            let wall_micros = rec.clock.now_micros();
            let mut st = rec.lock();
            let seq = st.events.len() as u64;
            st.events.push(RecordedEvent {
                event,
                seq,
                wall_micros,
            });
        }
    }

    /// Records a value into a named log2 histogram.
    pub fn record(&self, name: &'static str, value: u64) {
        if let Some(rec) = &self.0 {
            rec.lock().histograms.entry(name).or_default().record(value);
        }
    }

    /// [`Recorder::snapshot`] when enabled.
    pub fn snapshot(&self) -> Option<MetricsSnapshot> {
        self.recorder().map(Recorder::snapshot)
    }

    /// [`Recorder::export_jsonl`] when enabled.
    pub fn export_jsonl(&self) -> Option<String> {
        self.recorder().map(Recorder::export_jsonl)
    }

    /// [`Recorder::export_chrome_trace`] when enabled.
    pub fn export_chrome_trace(&self) -> Option<String> {
        self.recorder().map(Recorder::export_chrome_trace)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_sink_is_inert() {
        let sink = TelemetrySink::default();
        assert!(!sink.is_enabled());
        sink.record("h", 1);
        sink.emit(|| unreachable!("must not be called"));
        assert!(sink.snapshot().is_none());
        assert!(sink.export_jsonl().is_none());
        assert!(sink.export_chrome_trace().is_none());
    }

    #[test]
    fn registries_accumulate_in_name_order() {
        let sink = TelemetrySink::recording();
        sink.record("b", 2);
        sink.record("a", 1);
        sink.record("b", 3);
        let snap = sink.snapshot().unwrap();
        let names: Vec<_> = snap.histograms.iter().map(|&(name, _)| name).collect();
        assert_eq!(names, ["a", "b"]);
        assert_eq!(snap.histograms[1].1.count(), 2);
        assert_eq!(snap.histograms[1].1.sum(), 5);
    }

    #[test]
    fn histogram_buckets_by_bit_length() {
        assert_eq!(log2_bucket(0), 0);
        assert_eq!(log2_bucket(1), 1);
        assert_eq!(log2_bucket(2), 2);
        assert_eq!(log2_bucket(3), 2);
        assert_eq!(log2_bucket(4), 3);
        assert_eq!(log2_bucket(u64::MAX), 64);
        let mut h = Histogram::default();
        for v in [0, 1, 2, 3, 1024] {
            h.record(v);
        }
        assert_eq!(h.count(), 5);
        assert_eq!(h.sum(), 1030);
        assert_eq!(h.min(), 0);
        assert_eq!(h.max(), 1024);
        assert_eq!(h.nonzero_buckets(), vec![(0, 1), (1, 1), (2, 2), (11, 1)]);
    }

    #[test]
    fn events_keep_record_order_and_fields() {
        let sink = TelemetrySink::recording();
        sink.emit(|| Event::begin("round").phase("netsim").round(0).shard(1));
        sink.emit(|| Event::end("round").phase("netsim").round(0).u64("sent", 4));
        let events = sink.recorder().unwrap().events();
        assert_eq!(events.len(), 2);
        assert_eq!(events[0].seq, 0);
        assert_eq!(events[0].event.kind, EventKind::Begin);
        assert_eq!(events[0].event.shard, 1);
        assert_eq!(events[1].event.fields, vec![("sent", FieldValue::U64(4))]);
        // The NullClock records no wall time.
        assert!(events.iter().all(|e| e.wall_micros == 0));
    }

    #[test]
    fn jsonl_export_is_deterministic_and_replayable() {
        let record = || {
            let sink = TelemetrySink::recording();
            sink.record("inbox", 3);
            sink.emit(|| {
                Event::instant("iter")
                    .phase("amp")
                    .round(2)
                    .f64("tau2", 0.5)
            });
            sink.export_jsonl().unwrap()
        };
        let a = record();
        assert_eq!(a, record());
        assert!(a.starts_with("{\"type\":\"meta\",\"schema\":2,"));
        assert!(a.contains("\"log2_buckets\":[[2,1]]"));
        assert!(a.contains("\"fields\":{\"tau2\":0.5}"));
        // Every line is a JSON object line.
        assert!(a.lines().all(|l| l.starts_with('{') && l.ends_with('}')));
    }

    #[test]
    fn chrome_trace_uses_logical_time_under_null_clock() {
        let sink = TelemetrySink::recording();
        sink.emit(|| Event::begin("round").phase("netsim"));
        sink.emit(|| Event::end("round").phase("netsim"));
        let trace = sink.export_chrome_trace().unwrap();
        assert!(trace.starts_with("{\"traceEvents\":["));
        assert!(trace.contains("\"ph\":\"B\""));
        assert!(trace.contains("\"ph\":\"E\",\"pid\":0,\"tid\":0,\"ts\":1"));
    }

    #[test]
    fn chrome_trace_uses_wall_time_with_a_real_clock() {
        #[derive(Debug)]
        struct Fixed(u64);
        impl Clock for Fixed {
            fn now_micros(&self) -> u64 {
                self.0
            }
        }
        let sink = TelemetrySink::with_clock(Box::new(Fixed(123)));
        sink.emit(|| Event::instant("tick"));
        let trace = sink.export_chrome_trace().unwrap();
        assert!(trace.contains("\"ts\":123"), "{trace}");
        // And the deterministic export still carries no wall time.
        assert!(!sink.export_jsonl().unwrap().contains("123"));
    }

    #[test]
    fn clones_share_one_recorder() {
        let sink = TelemetrySink::recording();
        let clone = sink.clone();
        clone.record("h", 1);
        sink.record("h", 1);
        assert_eq!(sink.snapshot().unwrap().histograms[0].1.count(), 2);
    }

    #[test]
    fn json_helpers_stay_valid() {
        assert_eq!(json_str("a\"b\\c"), "\"a\\\"b\\\\c\"");
        assert_eq!(json_f64(1.0), "1.0");
        assert_eq!(json_f64(0.5), "0.5");
        assert_eq!(json_f64(f64::NAN), "null");
        assert_eq!(json_f64(f64::INFINITY), "null");
        assert_eq!(json_field(FieldValue::I64(-3)), "-3");
    }
}
