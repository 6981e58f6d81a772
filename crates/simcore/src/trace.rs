//! `simcore::trace` — deterministic span/counter tracing for the DES stack.
//!
//! The design goals, in priority order:
//!
//! 1. **Zero overhead when disabled.** A [`Tracer`] is a cloneable handle
//!    that is empty by default; every emit method starts with one
//!    predictable `Option` branch and returns immediately. Names and
//!    arguments that require allocation must be built by the caller
//!    *behind* [`Tracer::is_enabled`], so the disabled hot path never
//!    allocates. An enabled tracer holds one observer with the outputs
//!    the run asked for ([`Tracer::observing`]): it copies an event into
//!    an owned [`TraceRecord`] only when the Chrome buffer is on, and the
//!    aggregator of [`crate::metrics`] reads the borrowed event directly.
//! 2. **Full determinism.** Records carry simulated time only
//!    ([`SimTime`] nanoseconds) — never wall-clock time — and are kept in
//!    emit order. Track ids are assigned in registration order. The
//!    serializer iterates vectors, never hash maps, so the exported file
//!    is byte-identical across reruns and across worker-thread counts
//!    (the parallel runner merges per-job buffers in job-index order,
//!    one Chrome `pid` per job).
//! 3. **Perfetto compatibility.** [`chrome_trace_json`] emits the Chrome
//!    trace-event JSON format (`{"traceEvents":[...]}` with `B`/`E`/`X`/
//!    `C`/`i`/`M` phases, microsecond `ts`), loadable in Perfetto or
//!    `chrome://tracing`. Each simulated processor slot, edge-server
//!    lane, radio direction, and control loop gets its own named track.
//!
//! The module also carries a tiny in-tree JSON parser ([`parse_json`])
//! and a Chrome-trace structural validator ([`chrome_trace_stats`]) so
//! tests and CI can check exported traces without external tools.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::fmt;
use std::rc::Rc;

use crate::metrics::{Aggregator, MetricsBuffer};
use crate::{SimDuration, SimTime};

/// Identifies one named track (Chrome "thread") inside a trace buffer.
///
/// Ids are assigned densely in registration order, which makes them
/// deterministic as long as tracks are registered in a deterministic
/// order (simulation construction order in this workspace).
pub type TrackId = u32;

/// One structured argument value attached to a trace event.
#[derive(Debug, Clone, PartialEq)]
pub enum ArgValue {
    /// Unsigned integer argument (sequence numbers, counts).
    U64(u64),
    /// Signed integer argument.
    I64(i64),
    /// Floating-point argument (latencies, scores). Serialized with
    /// Rust's shortest-roundtrip formatting, which is deterministic for
    /// a fixed binary; non-finite values serialize as JSON `null`.
    F64(f64),
    /// String argument (allocation strings, labels).
    Str(String),
}

impl From<u64> for ArgValue {
    fn from(v: u64) -> Self {
        ArgValue::U64(v)
    }
}

impl From<i64> for ArgValue {
    fn from(v: i64) -> Self {
        ArgValue::I64(v)
    }
}

impl From<usize> for ArgValue {
    fn from(v: usize) -> Self {
        ArgValue::U64(v as u64)
    }
}

impl From<f64> for ArgValue {
    fn from(v: f64) -> Self {
        ArgValue::F64(v)
    }
}

impl From<&str> for ArgValue {
    fn from(v: &str) -> Self {
        ArgValue::Str(v.to_string())
    }
}

impl From<String> for ArgValue {
    fn from(v: String) -> Self {
        ArgValue::Str(v)
    }
}

/// The Chrome trace-event phase of a [`TraceRecord`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TracePhase {
    /// Span begin (`"B"`). Must be balanced by an [`TracePhase::End`] on
    /// the same track.
    Begin,
    /// Span end (`"E"`).
    End,
    /// Complete span (`"X"`) with an explicit duration.
    Complete,
    /// Counter sample (`"C"`); the value rides in the `value` argument.
    Counter,
    /// Instant event (`"i"`).
    Instant,
}

/// One trace event, carrying simulated time only.
#[derive(Debug, Clone)]
pub struct TraceRecord {
    /// Simulated timestamp in nanoseconds.
    pub at_ns: u64,
    /// Duration in nanoseconds; meaningful only for
    /// [`TracePhase::Complete`].
    pub dur_ns: u64,
    /// Track the event belongs to.
    pub track: TrackId,
    /// Event phase.
    pub phase: TracePhase,
    /// Category (one per instrumented layer: `"soc"`, `"edgelink"`,
    /// `"hbo"`, `"bo"`).
    pub cat: &'static str,
    /// Event name (span name or counter series name).
    pub name: String,
    /// Structured arguments, serialized in the given order.
    pub args: Vec<(&'static str, ArgValue)>,
}

/// A named track definition: `process` groups related tracks (e.g.
/// `"soc"`), `track` names the lane (e.g. `"CPU slot0"`).
#[derive(Debug, Clone)]
pub struct TrackDef {
    /// Subsystem the track belongs to.
    pub process: String,
    /// Human-readable lane name.
    pub track: String,
}

/// Plain-data snapshot of everything a Chrome-buffering [`Tracer`]
/// collected. `Send`-safe, so parallel runner workers can return buffers
/// for deterministic merging.
#[derive(Debug, Clone, Default)]
pub struct TraceBuffer {
    /// Registered tracks, in registration order (index == [`TrackId`]).
    pub tracks: Vec<TrackDef>,
    /// Emitted records, in emit order.
    pub records: Vec<TraceRecord>,
}

/// The track registry of an [`Observer`]: [`TrackDef`]s in
/// first-registration order (index == [`TrackId`]) plus an ordered
/// `(process, track)` index. Re-registering a pair returns its first id
/// without a scan or an allocation, so layers rebuilt mid-run (e.g. one
/// edge sim per measurement window) keep appending to the same named
/// track. The Chrome buffer and the aggregator both name tracks through
/// this one table.
#[derive(Debug, Clone, Default)]
pub(crate) struct TrackTable {
    defs: Vec<TrackDef>,
    index: BTreeMap<String, BTreeMap<String, TrackId>>,
}

impl TrackTable {
    /// The id of `(process, track)`, registering it on first sight.
    pub(crate) fn register(&mut self, process: &str, track: &str) -> TrackId {
        if let Some(&id) = self.index.get(process).and_then(|t| t.get(track)) {
            return id;
        }
        let id = self.defs.len() as TrackId;
        self.defs.push(TrackDef {
            process: process.to_string(),
            track: track.to_string(),
        });
        self.index
            .entry(process.to_string())
            .or_default()
            .insert(track.to_string(), id);
        id
    }

    /// The definition registered under `id`, if any.
    pub(crate) fn get(&self, id: TrackId) -> Option<&TrackDef> {
        self.defs.get(id as usize)
    }
}

/// What an enabled [`Tracer`] records into: one track table, plus the
/// outputs the run asked for — a Chrome record buffer, the streaming
/// aggregator, both, or neither. With neither, every instrumented site
/// still fires and builds its arguments, and the observer drops the
/// event: the cost of instrumentation alone.
#[derive(Debug, Default)]
pub(crate) struct Observer {
    tracks: TrackTable,
    /// Every event in emit order, when Chrome buffering is on.
    records: Option<Vec<TraceRecord>>,
    /// Per-series aggregates, when metrics are on.
    metrics: Option<Aggregator>,
}

impl Observer {
    /// Appends the record `build` makes to the Chrome buffer; `build` runs
    /// only when buffering is on, so no other output pays for the copy.
    fn keep(&mut self, build: impl FnOnce() -> TraceRecord) {
        if let Some(records) = &mut self.records {
            records.push(build());
        }
    }

    /// Copies out what was collected so far.
    fn snapshot(&self) -> (Option<TraceBuffer>, Option<MetricsBuffer>) {
        let chrome = self.records.as_ref().map(|records| TraceBuffer {
            tracks: self.tracks.defs.clone(),
            records: records.clone(),
        });
        (chrome, self.metrics.as_ref().map(Aggregator::snapshot))
    }

    /// Moves out what was collected, without the copy
    /// [`snapshot`](Self::snapshot) makes.
    fn into_buffers(self) -> (Option<TraceBuffer>, Option<MetricsBuffer>) {
        let chrome = self.records.map(|records| TraceBuffer {
            tracks: self.tracks.defs,
            records,
        });
        (chrome, self.metrics.map(Aggregator::into_buffer))
    }
}

/// Cloneable tracing handle shared by the simulation stack.
///
/// Disabled by default ([`Tracer::disabled`]); every emit method is a
/// single `Option` check in that state. Clones share one observer, so a
/// whole single-threaded job (SoC sim, edge sim, control loop, optimizer)
/// appends to one deterministically ordered buffer. Simulations do not
/// take a tracer as an argument: each one captures [`Tracer::current`],
/// the tracer [`observe`] put in scope, when it is built.
#[derive(Clone, Default)]
pub struct Tracer {
    observer: Option<Rc<RefCell<Observer>>>,
    /// Added to every emitted timestamp. Lets a sub-simulation with its
    /// own zero-based clock (e.g. one per-window edge sim) land on the
    /// parent timeline.
    offset_ns: u64,
}

impl fmt::Debug for Tracer {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Tracer(enabled={})", self.is_enabled())
    }
}

impl Tracer {
    /// A tracer that ignores everything (the default).
    pub const fn disabled() -> Self {
        Self {
            observer: None,
            offset_ns: 0,
        }
    }

    /// An enabled tracer with a fresh observer that keeps the Chrome
    /// record buffer when `chrome` is set and feeds the aggregator when
    /// `metrics` is set. With neither, the instrumentation runs and its
    /// events are dropped. Read what it collected with
    /// [`snapshot`](Self::snapshot), or run a whole job under
    /// [`crate::metrics::with_observers`].
    pub fn observing(chrome: bool, metrics: bool) -> Self {
        let observer = Observer {
            records: chrome.then(Vec::new),
            metrics: metrics.then(Aggregator::default),
            ..Observer::default()
        };
        Self {
            observer: Some(Rc::new(RefCell::new(observer))),
            offset_ns: 0,
        }
    }

    /// The tracer in scope on this thread: the one the innermost
    /// enclosing [`observe`] installed, or a disabled tracer outside any
    /// scope. Every simulation reads it once, when it is built, and keeps
    /// it for its whole run.
    pub fn current() -> Tracer {
        CURRENT.with(|current| current.borrow().clone())
    }

    /// A handle sharing this tracer's observer whose every timestamp is
    /// shifted forward by `offset` (on top of any existing offset).
    pub fn offset_by(&self, offset: SimDuration) -> Tracer {
        Tracer {
            observer: self.observer.clone(),
            offset_ns: self.offset_ns + offset.as_nanos(),
        }
    }

    /// True when an observer is attached. Callers must guard any
    /// allocation-requiring argument construction behind this.
    #[inline]
    pub fn is_enabled(&self) -> bool {
        self.observer.is_some()
    }

    /// Copies out what the observer collected so far: the Chrome buffer
    /// and the aggregate, each `None` when that output is off (both
    /// `None` for a disabled tracer).
    pub fn snapshot(&self) -> (Option<TraceBuffer>, Option<MetricsBuffer>) {
        match &self.observer {
            Some(observer) => observer.borrow().snapshot(),
            None => (None, None),
        }
    }

    /// What the observer collected: moved out when this is the last
    /// handle to it, copied when something (say, a `Tracer` kept in a
    /// job's result) still holds one.
    pub(crate) fn into_buffers(self) -> (Option<TraceBuffer>, Option<MetricsBuffer>) {
        match self.observer.map(Rc::try_unwrap) {
            Some(Ok(observer)) => observer.into_inner().into_buffers(),
            Some(Err(shared)) => shared.borrow().snapshot(),
            None => (None, None),
        }
    }

    /// Runs `f` on the observer with the absolute timestamp of `at`;
    /// nothing when disabled.
    #[inline]
    fn emit(&self, at: SimTime, f: impl FnOnce(&mut Observer, u64)) {
        if let Some(observer) = &self.observer {
            f(&mut observer.borrow_mut(), self.offset_ns + at.as_nanos());
        }
    }

    /// Registers a named track; returns 0 when disabled.
    pub fn register_track(&self, process: &str, track: &str) -> TrackId {
        match &self.observer {
            Some(o) => o.borrow_mut().tracks.register(process, track),
            None => 0,
        }
    }

    /// Emits a span begin.
    #[inline]
    pub fn begin(
        &self,
        at: SimTime,
        track: TrackId,
        cat: &'static str,
        name: &str,
        args: &[(&'static str, ArgValue)],
    ) {
        self.emit(at, |o, at_ns| {
            if let Some(metrics) = &mut o.metrics {
                metrics.begin(track, cat, name, at_ns);
            }
            o.keep(|| TraceRecord {
                at_ns,
                dur_ns: 0,
                track,
                phase: TracePhase::Begin,
                cat,
                name: name.to_string(),
                args: args.to_vec(),
            });
        });
    }

    /// Emits a span end (balances the latest [`Tracer::begin`] on the
    /// same track).
    #[inline]
    pub fn end(&self, at: SimTime, track: TrackId, cat: &'static str) {
        self.emit(at, |o, at_ns| {
            if let Some(metrics) = &mut o.metrics {
                metrics.end(&o.tracks, track, at_ns);
            }
            o.keep(|| TraceRecord {
                at_ns,
                dur_ns: 0,
                track,
                phase: TracePhase::End,
                cat,
                name: String::new(),
                args: Vec::new(),
            });
        });
    }

    /// Emits a complete span with an explicit duration.
    #[inline]
    pub fn complete(
        &self,
        at: SimTime,
        dur: SimDuration,
        track: TrackId,
        cat: &'static str,
        name: &str,
        args: &[(&'static str, ArgValue)],
    ) {
        self.emit(at, |o, at_ns| {
            if let Some(metrics) = &mut o.metrics {
                metrics.complete(&o.tracks, track, cat, name, dur.as_nanos());
            }
            o.keep(|| TraceRecord {
                at_ns,
                dur_ns: dur.as_nanos(),
                track,
                phase: TracePhase::Complete,
                cat,
                name: name.to_string(),
                args: args.to_vec(),
            });
        });
    }

    /// Emits a counter sample. `name` is the counter series; distinct
    /// series need distinct names within one process.
    #[inline]
    pub fn counter(&self, at: SimTime, track: TrackId, cat: &'static str, name: &str, value: f64) {
        self.emit(at, |o, at_ns| {
            if let Some(metrics) = &mut o.metrics {
                metrics.counter(&o.tracks, track, name, at_ns, value);
            }
            o.keep(|| TraceRecord {
                at_ns,
                dur_ns: 0,
                track,
                phase: TracePhase::Counter,
                cat,
                name: name.to_string(),
                args: vec![("value", ArgValue::F64(value))],
            });
        });
    }

    /// Emits an instant event.
    #[inline]
    pub fn instant(
        &self,
        at: SimTime,
        track: TrackId,
        cat: &'static str,
        name: &str,
        args: &[(&'static str, ArgValue)],
    ) {
        self.emit(at, |o, at_ns| {
            if let Some(metrics) = &mut o.metrics {
                metrics.instant();
            }
            o.keep(|| TraceRecord {
                at_ns,
                dur_ns: 0,
                track,
                phase: TracePhase::Instant,
                cat,
                name: name.to_string(),
                args: args.to_vec(),
            });
        });
    }
}

thread_local! {
    /// The tracer [`observe`] put in scope on this thread.
    static CURRENT: RefCell<Tracer> = const { RefCell::new(Tracer::disabled()) };
}

/// Runs `f` with `tracer` in scope on the current thread, then puts the
/// previous tracer back (also when `f` panics). Every simulation built
/// inside `f` records into `tracer` ([`Tracer::current`]); scopes nest,
/// so an inner `observe(Tracer::disabled(), ..)` keeps one part of a run
/// out of the trace. A [`Tracer`] is single-threaded, and so is its
/// scope: a parallel runner opens one scope per job on the worker that
/// runs it.
pub fn observe<R>(tracer: Tracer, f: impl FnOnce() -> R) -> R {
    struct Restore(Tracer);
    impl Drop for Restore {
        fn drop(&mut self) {
            let previous = std::mem::take(&mut self.0);
            CURRENT.with(|current| current.replace(previous));
        }
    }
    let _restore = Restore(CURRENT.with(|current| current.replace(tracer)));
    f()
}

/// One job's worth of trace data for merged export: the job `name`
/// becomes the Chrome process name, and the job's position in the slice
/// becomes its `pid` (index + 1).
#[derive(Debug, Clone)]
pub struct TraceJob {
    /// Process name shown in the trace viewer (e.g. `"job0 SC1-CF1"`).
    pub name: String,
    /// The job's collected buffer.
    pub buffer: TraceBuffer,
}

fn push_escaped(out: &mut String, s: &str) {
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
}

/// Formats integer nanoseconds as a microsecond JSON number with
/// exactly three decimals (`1234` → `1.234`). String formatting keeps
/// the output byte-deterministic; the value is still a valid JSON
/// number.
fn push_ts(out: &mut String, ns: u64) {
    out.push_str(&format!("{}.{:03}", ns / 1_000, ns % 1_000));
}

fn push_arg_value(out: &mut String, value: &ArgValue) {
    match value {
        ArgValue::U64(v) => out.push_str(&format!("{v}")),
        ArgValue::I64(v) => out.push_str(&format!("{v}")),
        ArgValue::F64(v) => {
            if v.is_finite() {
                out.push_str(&format!("{v}"));
            } else {
                out.push_str("null");
            }
        }
        ArgValue::Str(s) => {
            out.push('"');
            push_escaped(out, s);
            out.push('"');
        }
    }
}

fn push_args(out: &mut String, args: &[(&'static str, ArgValue)]) {
    out.push_str("\"args\":{");
    for (i, (key, value)) in args.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push('"');
        push_escaped(out, key);
        out.push_str("\":");
        push_arg_value(out, value);
    }
    out.push('}');
}

/// Serializes per-job buffers to Chrome trace-event JSON.
///
/// Jobs map to Chrome processes (`pid` = job index + 1) in slice order,
/// tracks to threads (`tid` = track id + 1); metadata events name both.
/// Everything is emitted in deterministic vector order, one event per
/// line, so equal inputs produce byte-identical output.
pub fn chrome_trace_json(jobs: &[TraceJob]) -> String {
    let mut out = String::new();
    out.push_str("{\"traceEvents\":[\n");
    let mut first = true;
    let mut sep = |out: &mut String| {
        if first {
            first = false;
        } else {
            out.push_str(",\n");
        }
    };
    for (job_index, job) in jobs.iter().enumerate() {
        let pid = job_index + 1;
        sep(&mut out);
        out.push_str(&format!(
            "{{\"ph\":\"M\",\"pid\":{pid},\"tid\":0,\"name\":\"process_name\",\"args\":{{\"name\":\""
        ));
        push_escaped(&mut out, &job.name);
        out.push_str("\"}}");
        for (track_id, track) in job.buffer.tracks.iter().enumerate() {
            let tid = track_id + 1;
            sep(&mut out);
            out.push_str(&format!(
                "{{\"ph\":\"M\",\"pid\":{pid},\"tid\":{tid},\"name\":\"thread_name\",\"args\":{{\"name\":\""
            ));
            push_escaped(&mut out, &track.process);
            out.push(':');
            push_escaped(&mut out, &track.track);
            out.push_str("\"}}");
        }
        for rec in &job.buffer.records {
            let tid = rec.track as usize + 1;
            sep(&mut out);
            let ph = match rec.phase {
                TracePhase::Begin => "B",
                TracePhase::End => "E",
                TracePhase::Complete => "X",
                TracePhase::Counter => "C",
                TracePhase::Instant => "i",
            };
            out.push_str(&format!(
                "{{\"ph\":\"{ph}\",\"pid\":{pid},\"tid\":{tid},\"ts\":"
            ));
            push_ts(&mut out, rec.at_ns);
            if rec.phase == TracePhase::Complete {
                out.push_str(",\"dur\":");
                push_ts(&mut out, rec.dur_ns);
            }
            out.push_str(",\"cat\":\"");
            push_escaped(&mut out, rec.cat);
            out.push_str("\"");
            if rec.phase != TracePhase::End {
                out.push_str(",\"name\":\"");
                push_escaped(&mut out, &rec.name);
                out.push('"');
            }
            if rec.phase == TracePhase::Instant {
                out.push_str(",\"s\":\"t\"");
            }
            out.push(',');
            push_args(&mut out, &rec.args);
            out.push('}');
        }
    }
    out.push_str("\n]}\n");
    out
}

// ---------------------------------------------------------------------
// Tiny in-tree JSON parser + Chrome-trace validator (no external deps).
// ---------------------------------------------------------------------

/// A parsed JSON value. Objects keep key order as a vector of pairs so
/// round-trip inspection stays deterministic.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// Any JSON number, parsed as `f64`.
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object, keys in source order.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Looks up a key in an object; `None` for missing keys or
    /// non-objects.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(pairs) => pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// Borrows the string payload, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// Borrows the array payload, if this is an array.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// The numeric payload, if this is a number.
    pub fn as_num(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }
}

struct Parser<'a> {
    text: &'a str,
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
    fn err(&self, msg: &str) -> String {
        format!("{msg} at byte {}", self.pos)
    }

    fn skip_ws(&mut self) {
        while let Some(&b) = self.bytes.get(self.pos) {
            if b == b' ' || b == b'\t' || b == b'\n' || b == b'\r' {
                self.pos += 1;
            } else {
                break;
            }
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn expect(&mut self, b: u8) -> Result<(), String> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(&format!("expected '{}'", b as char)))
        }
    }

    fn value(&mut self) -> Result<Json, String> {
        self.skip_ws();
        match self.peek() {
            Some(b'{') => self.object(),
            Some(b'[') => self.array(),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'n') => self.literal("null", Json::Null),
            Some(b) if b == b'-' || b.is_ascii_digit() => self.number(),
            Some(b) => Err(self.err(&format!("unexpected byte '{}'", b as char))),
            None => Err(self.err("unexpected end of input")),
        }
    }

    fn literal(&mut self, word: &str, value: Json) -> Result<Json, String> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(self.err(&format!("expected '{word}'")))
        }
    }

    fn number(&mut self) -> Result<Json, String> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while let Some(b) = self.peek() {
            if b.is_ascii_digit() || b == b'.' || b == b'e' || b == b'E' || b == b'+' || b == b'-' {
                self.pos += 1;
            } else {
                break;
            }
        }
        let text = &self.text[start..self.pos];
        text.parse::<f64>()
            .map(Json::Num)
            .map_err(|_| self.err(&format!("invalid number '{text}'")))
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return Err(self.err("unterminated string")),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    match self.peek() {
                        Some(b'"') => out.push('"'),
                        Some(b'\\') => out.push('\\'),
                        Some(b'/') => out.push('/'),
                        Some(b'n') => out.push('\n'),
                        Some(b'r') => out.push('\r'),
                        Some(b't') => out.push('\t'),
                        Some(b'b') => out.push('\u{8}'),
                        Some(b'f') => out.push('\u{c}'),
                        Some(b'u') => {
                            if self.pos + 4 >= self.bytes.len() {
                                return Err(self.err("truncated \\u escape"));
                            }
                            let hex = std::str::from_utf8(&self.bytes[self.pos + 1..self.pos + 5])
                                .map_err(|_| self.err("invalid \\u escape"))?;
                            let code = u32::from_str_radix(hex, 16)
                                .map_err(|_| self.err("invalid \\u escape"))?;
                            out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                            self.pos += 4;
                        }
                        _ => return Err(self.err("invalid escape")),
                    }
                    self.pos += 1;
                }
                Some(_) => {
                    // Consume one UTF-8 scalar (multi-byte safe): `pos`
                    // only ever advances by whole chars or ASCII bytes,
                    // so it sits on a char boundary here.
                    let c = self.text[self.pos..].chars().next().unwrap();
                    out.push(c);
                    self.pos += c.len_utf8();
                }
            }
        }
    }

    fn array(&mut self) -> Result<Json, String> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Arr(items));
        }
        loop {
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => {
                    self.pos += 1;
                }
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Arr(items));
                }
                _ => return Err(self.err("expected ',' or ']'")),
            }
        }
    }

    fn object(&mut self) -> Result<Json, String> {
        self.expect(b'{')?;
        let mut pairs = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Obj(pairs));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            let value = self.value()?;
            pairs.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => {
                    self.pos += 1;
                }
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(pairs));
                }
                _ => return Err(self.err("expected ',' or '}'")),
            }
        }
    }
}

/// Parses one complete JSON document. Rejects trailing garbage.
pub fn parse_json(text: &str) -> Result<Json, String> {
    let mut p = Parser {
        text,
        bytes: text.as_bytes(),
        pos: 0,
    };
    let value = p.value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(p.err("trailing data after JSON document"));
    }
    Ok(value)
}

/// Structural summary of a Chrome trace-event file, for tests and the
/// CI smoke checker.
#[derive(Debug, Clone, Default)]
pub struct TraceStats {
    /// Total number of events (including metadata).
    pub events: usize,
    /// Number of span events (`B`/`E`/`X`).
    pub spans: usize,
    /// Number of counter samples.
    pub counters: usize,
    /// Number of span begins (`B`).
    pub begins: usize,
    /// Number of span ends (`E`).
    pub ends: usize,
    /// Number of complete spans (`X`).
    pub completes: usize,
    /// Number of instant events (`i`).
    pub instants: usize,
    /// Number of metadata events (`M`).
    pub metadata: usize,
    /// Distinct categories seen on span events, with span counts,
    /// sorted by category name.
    pub span_cats: Vec<(String, usize)>,
}

impl TraceStats {
    /// Span count for one category (0 when absent).
    pub fn spans_in_cat(&self, cat: &str) -> usize {
        self.span_cats
            .iter()
            .find(|(c, _)| c == cat)
            .map(|(_, n)| *n)
            .unwrap_or(0)
    }
}

/// Parses and structurally validates a Chrome trace-event JSON file:
/// top-level object with a `traceEvents` array whose elements are
/// objects carrying a string `ph`, (for non-metadata events) numeric
/// `ts`, and (for counter events) an `args` object with a numeric
/// `value` — the shape [`Tracer::counter`] always emits, so a counter
/// that lost its payload fails validation instead of rendering as an
/// empty series. Returns per-phase event counts and per-category span
/// counts.
pub fn chrome_trace_stats(text: &str) -> Result<TraceStats, String> {
    let doc = parse_json(text)?;
    let events = doc
        .get("traceEvents")
        .ok_or("missing top-level 'traceEvents'")?
        .as_arr()
        .ok_or("'traceEvents' is not an array")?;
    let mut stats = TraceStats {
        events: events.len(),
        ..TraceStats::default()
    };
    for (i, ev) in events.iter().enumerate() {
        let ph = ev
            .get("ph")
            .and_then(Json::as_str)
            .ok_or_else(|| format!("event {i}: missing string 'ph'"))?;
        if ph == "M" {
            stats.metadata += 1;
            continue;
        }
        match ev.get("ts") {
            Some(Json::Num(_)) => {}
            _ => return Err(format!("event {i}: missing numeric 'ts'")),
        }
        match ph {
            "B" | "E" | "X" => {
                stats.spans += 1;
                match ph {
                    "B" => stats.begins += 1,
                    "E" => stats.ends += 1,
                    _ => stats.completes += 1,
                }
                let cat = ev.get("cat").and_then(Json::as_str).unwrap_or("");
                match stats.span_cats.iter_mut().find(|(c, _)| c == cat) {
                    Some((_, n)) => *n += 1,
                    None => stats.span_cats.push((cat.to_string(), 1)),
                }
            }
            "C" => {
                let args = ev
                    .get("args")
                    .ok_or_else(|| format!("event {i}: counter missing 'args'"))?;
                if !matches!(args, Json::Obj(_)) {
                    return Err(format!("event {i}: counter 'args' is not an object"));
                }
                match args.get("value") {
                    Some(Json::Num(_)) => {}
                    _ => return Err(format!("event {i}: counter 'args' missing numeric 'value'")),
                }
                stats.counters += 1;
            }
            "i" => stats.instants += 1,
            other => return Err(format!("event {i}: unknown phase '{other}'")),
        }
    }
    stats.span_cats.sort();
    Ok(stats)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(ms: f64) -> SimTime {
        SimTime::from_secs_f64(ms / 1e3)
    }

    #[test]
    fn disabled_tracer_is_inert() {
        let tracer = Tracer::disabled();
        assert!(!tracer.is_enabled());
        assert_eq!(tracer.register_track("p", "t"), 0);
        tracer.begin(t(1.0), 0, "soc", "job", &[]);
        tracer.end(t(2.0), 0, "soc");
        tracer.counter(t(2.0), 0, "soc", "queue", 3.0);
        assert!(matches!(tracer.snapshot(), (None, None)));
        // With neither output, an observer takes every event and keeps
        // nothing.
        let null = Tracer::observing(false, false);
        assert!(null.is_enabled());
        let a = null.register_track("p", "t");
        null.begin(t(1.0), a, "soc", "job", &[]);
        null.end(t(2.0), a, "soc");
        assert!(matches!(null.snapshot(), (None, None)));
    }

    #[test]
    fn chrome_sink_buffers_in_order() {
        let tracer = Tracer::observing(true, false);
        let a = tracer.register_track("soc", "CPU slot0");
        let b = tracer.register_track("soc", "GPU");
        assert_eq!((a, b), (0, 1));
        tracer.begin(t(1.0), a, "soc", "detector", &[("seq", 7u64.into())]);
        tracer.end(t(3.5), a, "soc");
        tracer.counter(t(3.5), b, "soc", "GPU resident", 2.0);
        let buf = tracer.snapshot().0.expect("chrome buffering is on");
        assert_eq!(buf.tracks.len(), 2);
        assert_eq!(buf.records.len(), 3);
        assert_eq!(buf.records[0].phase, TracePhase::Begin);
        assert_eq!(buf.records[0].at_ns, 1_000_000);
        assert_eq!(buf.records[2].phase, TracePhase::Counter);
    }

    #[test]
    fn export_is_valid_chrome_json_and_deterministic() {
        let tracer = Tracer::observing(true, false);
        let cpu = tracer.register_track("soc", "CPU slot0");
        tracer.begin(t(0.25), cpu, "soc", "job \"x\"", &[("seq", 1u64.into())]);
        tracer.end(t(1.75), cpu, "soc");
        tracer.complete(
            t(2.0),
            SimDuration::from_millis_f64(0.5),
            cpu,
            "hbo",
            "window",
            &[("epsilon", 0.125f64.into()), ("alloc", "CGN".into())],
        );
        tracer.counter(t(2.5), cpu, "soc", "queue", 4.0);
        tracer.instant(t(2.5), cpu, "bo", "suggest", &[]);
        let job = TraceJob {
            name: "job0".to_string(),
            buffer: tracer.snapshot().0.expect("chrome buffering is on"),
        };
        let one = chrome_trace_json(&[job.clone()]);
        let two = chrome_trace_json(&[job.clone()]);
        assert_eq!(one, two, "serialization must be deterministic");
        let stats = chrome_trace_stats(&one).expect("valid chrome trace");
        assert_eq!(stats.spans, 3);
        assert_eq!(stats.counters, 1);
        assert_eq!(stats.spans_in_cat("soc"), 2);
        assert_eq!(stats.spans_in_cat("hbo"), 1);

        // Multi-job merge: pids follow job order.
        let merged = chrome_trace_json(&[job.clone(), job]);
        let doc = parse_json(&merged).unwrap();
        let events = doc.get("traceEvents").unwrap().as_arr().unwrap();
        let pids: Vec<f64> = events
            .iter()
            .filter_map(|e| match e.get("pid") {
                Some(Json::Num(n)) => Some(*n),
                _ => None,
            })
            .collect();
        assert!(pids.contains(&1.0) && pids.contains(&2.0));
    }

    #[test]
    fn trace_stats_count_phases_and_validate_counter_payloads() {
        let good = r#"{"traceEvents":[
            {"ph":"M","pid":1,"tid":0,"name":"process_name","args":{"name":"j"}},
            {"ph":"B","pid":1,"tid":1,"ts":1.0,"cat":"soc","name":"a","args":{}},
            {"ph":"E","pid":1,"tid":1,"ts":2.0,"cat":"soc","args":{}},
            {"ph":"i","pid":1,"tid":1,"ts":2.0,"cat":"bo","name":"s","s":"t","args":{}},
            {"ph":"C","pid":1,"tid":1,"ts":2.0,"cat":"soc","name":"q","args":{"value":3}}
        ]}"#;
        let stats = chrome_trace_stats(good).expect("valid trace");
        assert_eq!((stats.begins, stats.ends, stats.completes), (1, 1, 0));
        assert_eq!((stats.counters, stats.instants, stats.metadata), (1, 1, 1));
        // Counters must carry the numeric payload Tracer::counter emits.
        let empty_args = r#"{"traceEvents":[{"ph":"C","ts":1.0,"name":"q","args":{}}]}"#;
        assert!(chrome_trace_stats(empty_args)
            .unwrap_err()
            .contains("value"));
        let null_value =
            r#"{"traceEvents":[{"ph":"C","ts":1.0,"name":"q","args":{"value":null}}]}"#;
        assert!(chrome_trace_stats(null_value).is_err());
        let no_args = r#"{"traceEvents":[{"ph":"C","ts":1.0,"name":"q"}]}"#;
        assert!(chrome_trace_stats(no_args).unwrap_err().contains("args"));
    }

    #[test]
    fn observe_scopes_nest_and_restore_even_on_panic() {
        assert!(!Tracer::current().is_enabled());
        let outer = Tracer::observing(false, false);
        observe(outer, || {
            assert!(Tracer::current().is_enabled());
            observe(Tracer::disabled(), || {
                assert!(!Tracer::current().is_enabled())
            });
            assert!(Tracer::current().is_enabled());
            let panicked = std::panic::catch_unwind(|| {
                observe(Tracer::disabled(), || panic!("inside a scope"));
            });
            assert!(panicked.is_err());
            assert!(
                Tracer::current().is_enabled(),
                "a panic must restore the scope"
            );
        });
        assert!(!Tracer::current().is_enabled());
        // The scope is per thread: another thread starts outside it.
        observe(Tracer::observing(false, false), || {
            let elsewhere = std::thread::spawn(|| Tracer::current().is_enabled());
            assert!(!elsewhere.join().unwrap());
        });
    }

    #[test]
    fn ts_formatting_is_exact_microseconds() {
        let mut s = String::new();
        push_ts(&mut s, 1_234_567);
        assert_eq!(s, "1234.567");
        let mut s = String::new();
        push_ts(&mut s, 42);
        assert_eq!(s, "0.042");
    }

    #[test]
    fn json_parser_round_trips_edge_cases() {
        let v = parse_json(r#"{"a":[1,-2.5,1e3],"b":"x\"\\\nA","c":null,"d":true}"#).unwrap();
        assert_eq!(v.get("c"), Some(&Json::Null));
        assert_eq!(v.get("d"), Some(&Json::Bool(true)));
        assert_eq!(v.get("b").and_then(Json::as_str), Some("x\"\\\nA"));
        let arr = v.get("a").unwrap().as_arr().unwrap();
        assert_eq!(arr[2], Json::Num(1000.0));
        // Multi-byte scalars inside a string, raw and escaped.
        let v = parse_json(r#"["é→😀", "a\u00e9b"]"#).unwrap();
        assert_eq!(v.as_arr().unwrap()[0], Json::Str("é→😀".to_owned()));
        assert_eq!(v.as_arr().unwrap()[1], Json::Str("aéb".to_owned()));
        assert!(parse_json("{\"a\":1} trailing").is_err());
        assert!(parse_json("[1,]").is_err());
        assert!(parse_json("").is_err());
    }
}
