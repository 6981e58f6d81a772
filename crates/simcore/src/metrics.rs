//! `simcore::metrics` — bounded streaming aggregation of trace events.
//!
//! [`crate::trace::ChromeTraceSink`] buffers every event, so its memory
//! grows with simulated work: at fleet scale (thousands of sessions,
//! millions of events per cell) you can have a trace or you can have
//! the run, not both. This module is the layer between that firehose
//! and a totals-only summary line:
//!
//! * [`AggregatingSink`] implements [`TraceSink`] and folds span
//!   begin/end/complete events into per-`(track, span-name)` streaming
//!   statistics — count, total/max duration, and a [`LogHistogram`] of
//!   durations for p50/p95/p99 — and counter samples into fixed-capacity
//!   time series.
//! * [`DownsampleRing`] is that time series: a bounded bucket array at
//!   power-of-two resolution. When a sample lands beyond the last
//!   bucket, adjacent bucket pairs merge in place and the bucket width
//!   doubles — O(1) amortized per sample, capacity never grows, so
//!   aggregator memory is bounded by fixed caps instead of by simulated
//!   time.
//! * [`MetricsBuffer`] is the plain-data snapshot (`Send`, mergeable in
//!   job-index order exactly like trace buffers) with a deterministic
//!   Prometheus-style text exposition
//!   ([`MetricsBuffer::render_prometheus`]).
//! * [`head_sample`] is the seed-derived sampling decision that gives k
//!   jobs of a sweep full Chrome-trace detail while every job feeds an
//!   aggregator — the sampled set is a pure function of the seeds, so
//!   it is identical across reruns and worker-thread counts.
//!
//! Everything here iterates vectors in first-seen order (no hash maps),
//! so snapshots, merges, and the rendered text are byte-identical
//! across reruns and `--threads` settings.

use std::cell::RefCell;
use std::rc::Rc;

use crate::rng::mix;
use crate::stats::LogHistogram;
use crate::trace::{
    observe, ArgValue, ChromeTraceSink, TeeSink, TraceBuffer, TracePhase, TraceRecord, TraceSink,
    Tracer, TrackDef, TrackId,
};

/// Domain-separation tag for [`head_sample`] draws, so the sampling
/// decision shares no stream with any simulation RNG.
const SAMPLE_TAG: u64 = 0x0B5E_4B1E;

/// Duration histogram layout shared by every span series: 100 ns to
/// ~130 s in 30% steps (81 buckets + overflow). One fixed layout keeps
/// snapshots mergeable ([`LogHistogram::merge`] requires it).
fn duration_histogram() -> LogHistogram {
    LogHistogram::new(100.0, 1.3, 80)
}

// Memory bounds of an [`AggregatingSink`]. Every bound is a hard cap:
// the sink's footprint depends on these, never on how many events flow
// through it. 512 buckets × 1 ms initial width covers a 512 ms cell at
// full resolution and a 30 s horizon after 6 downsamples (~59 ms
// buckets) — a few tens of KB per counter series.

/// Bucket count of each counter series' [`DownsampleRing`].
const RING_CAPACITY: usize = 512;
/// Initial ring bucket width in nanoseconds; doubles on every downsample.
const RING_BUCKET_NS: u64 = 1_000_000;
/// Cap on distinct `(track, name)` series per kind (spans and counters
/// separately). Events for series beyond the cap are counted in
/// [`MetricsBuffer::overflow_events`] and dropped.
const MAX_SERIES: usize = 256;

/// One bucket of a [`DownsampleRing`]: the fold of every counter sample
/// whose timestamp fell inside the bucket's window.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RingBucket {
    /// Samples folded into this bucket (0 = the window saw none).
    pub count: u64,
    /// Sum of sample values.
    pub sum: f64,
    /// Smallest sample value.
    pub min: f64,
    /// Largest sample value.
    pub max: f64,
}

impl RingBucket {
    const EMPTY: RingBucket = RingBucket {
        count: 0,
        sum: 0.0,
        min: f64::INFINITY,
        max: f64::NEG_INFINITY,
    };

    fn fold_sample(&mut self, value: f64) {
        self.count += 1;
        self.sum += value;
        self.min = self.min.min(value);
        self.max = self.max.max(value);
    }

    fn fold_bucket(&mut self, other: &RingBucket) {
        if other.count == 0 {
            return;
        }
        self.count += other.count;
        self.sum += other.sum;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }
}

/// A bounded, fixed-capacity time series: buckets of width `bucket_ns`
/// starting at t = 0. When a sample lands past the last bucket, the
/// ring halves its resolution in place (adjacent pairs merge, width
/// doubles) until the sample fits — O(1) amortized, and the allocation
/// made at construction is never exceeded.
#[derive(Debug, Clone)]
pub struct DownsampleRing {
    bucket_ns: u64,
    capacity: usize,
    buckets: Vec<RingBucket>,
}

impl DownsampleRing {
    /// Creates an empty ring.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is not a power of two ≥ 2 or `bucket_ns`
    /// is 0.
    pub fn new(capacity: usize, bucket_ns: u64) -> Self {
        assert!(
            capacity >= 2 && capacity.is_power_of_two(),
            "ring capacity must be a power of two >= 2: {capacity}"
        );
        assert!(bucket_ns >= 1, "ring bucket width must be >= 1 ns");
        DownsampleRing {
            bucket_ns,
            capacity,
            buckets: Vec::with_capacity(capacity),
        }
    }

    /// Current bucket width in nanoseconds (doubles per downsample).
    pub fn bucket_ns(&self) -> u64 {
        self.bucket_ns
    }

    /// The configured bucket-count bound. The backing allocation never
    /// exceeds it (asserted by the capacity-bound test).
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Buckets in use so far (≤ [`DownsampleRing::capacity`]).
    pub fn len(&self) -> usize {
        self.buckets.len()
    }

    /// True when no sample has been recorded.
    pub fn is_empty(&self) -> bool {
        self.buckets.iter().all(|b| b.count == 0)
    }

    /// The used buckets, index `i` covering
    /// `[i × bucket_ns, (i+1) × bucket_ns)`.
    pub fn buckets(&self) -> &[RingBucket] {
        &self.buckets
    }

    /// Merges adjacent bucket pairs in place and doubles the width.
    fn downsample(&mut self) {
        let new_len = self.buckets.len().div_ceil(2);
        for i in 0..new_len {
            let mut merged = self.buckets[2 * i];
            if let Some(right) = self.buckets.get(2 * i + 1).copied() {
                if merged.count == 0 {
                    merged = right;
                } else {
                    merged.fold_bucket(&right);
                }
            }
            self.buckets[i] = merged;
        }
        self.buckets.truncate(new_len);
        self.bucket_ns *= 2;
    }

    /// Records one sample at simulated time `at_ns`.
    pub fn record(&mut self, at_ns: u64, value: f64) {
        let mut idx = (at_ns / self.bucket_ns) as usize;
        while idx >= self.capacity {
            self.downsample();
            idx = (at_ns / self.bucket_ns) as usize;
        }
        while self.buckets.len() <= idx {
            self.buckets.push(RingBucket::EMPTY);
        }
        self.buckets[idx].fold_sample(value);
    }

    /// Folds another ring into this one. Both rings are first coarsened
    /// to the coarser of the two widths, so the merge is exactly the
    /// ring that would have recorded both sample streams (bucket
    /// counts/sums/extrema are order-independent).
    ///
    /// # Panics
    ///
    /// Panics if the capacities differ or the widths are not
    /// power-of-two multiples of one another (they always are when both
    /// rings come from one [`AggregatingSink`]).
    pub fn merge(&mut self, other: &DownsampleRing) {
        assert_eq!(
            self.capacity, other.capacity,
            "ring capacity mismatch: {} vs {}",
            self.capacity, other.capacity
        );
        let mut o;
        let other = if other.bucket_ns < self.bucket_ns {
            o = other.clone();
            while o.bucket_ns < self.bucket_ns {
                o.downsample();
            }
            &o
        } else {
            while self.bucket_ns < other.bucket_ns {
                self.downsample();
            }
            other
        };
        assert_eq!(
            self.bucket_ns, other.bucket_ns,
            "ring widths are not power-of-two multiples: {} vs {}",
            self.bucket_ns, other.bucket_ns
        );
        while self.buckets.len() < other.buckets.len() {
            self.buckets.push(RingBucket::EMPTY);
        }
        for (mine, theirs) in self.buckets.iter_mut().zip(&other.buckets) {
            mine.fold_bucket(theirs);
        }
    }
}

/// Streaming statistics for one `(track, span-name)` series.
#[derive(Debug, Clone)]
pub struct SpanStats {
    /// Subsystem of the owning track (e.g. `"edgelink"`).
    pub process: String,
    /// Lane name of the owning track (e.g. `"server0"`).
    pub track: String,
    /// Span name.
    pub name: String,
    /// Category of the first event seen for the series.
    pub cat: String,
    /// Completed spans folded in.
    pub count: u64,
    /// Total duration, nanoseconds.
    pub total_ns: u64,
    /// Longest single span, nanoseconds.
    pub max_ns: u64,
    /// Log-bucketed duration histogram (ns) for p50/p95/p99.
    pub histogram: LogHistogram,
}

/// Streaming statistics plus the bounded time series for one
/// `(track, counter-name)` series.
#[derive(Debug, Clone)]
pub struct CounterStats {
    /// Subsystem of the owning track.
    pub process: String,
    /// Lane name of the owning track.
    pub track: String,
    /// Counter series name.
    pub name: String,
    /// Samples folded in.
    pub samples: u64,
    /// Sum of sample values.
    pub sum: f64,
    /// Smallest sample.
    pub min: f64,
    /// Largest sample.
    pub max: f64,
    /// Timestamp of the latest sample (merge tie-break: the buffer
    /// merged later wins at equal timestamps, and merges happen in
    /// job-index order).
    pub last_at_ns: u64,
    /// Latest sample value.
    pub last: f64,
    /// The bounded time series.
    pub ring: DownsampleRing,
}

/// Plain-data snapshot of everything an [`AggregatingSink`] collected.
/// `Send`-safe, so parallel runner workers can return one per job for
/// deterministic job-index-order merging — the aggregated counterpart
/// of [`TraceBuffer`].
#[derive(Debug, Clone, Default)]
pub struct MetricsBuffer {
    /// Span series, in first-seen order.
    pub spans: Vec<SpanStats>,
    /// Counter series, in first-seen order.
    pub counters: Vec<CounterStats>,
    /// Instant events seen (not aggregated further).
    pub instants: u64,
    /// Span begins still open at snapshot time.
    pub open_spans: u64,
    /// Span ends with no matching begin on their track.
    pub unmatched_ends: u64,
    /// Events dropped because the `max_series` cap was reached.
    pub overflow_events: u64,
    /// Counter events whose `value` argument was missing or
    /// non-numeric.
    pub malformed_counters: u64,
}

fn find_series<'a, T>(
    items: &'a mut [T],
    key: impl Fn(&T) -> (&str, &str, &str),
    process: &str,
    track: &str,
    name: &str,
) -> Option<&'a mut T> {
    items.iter_mut().find(|s| key(s) == (process, track, name))
}

impl MetricsBuffer {
    /// Folds another snapshot into this one. Series match by
    /// `(process, track, name)`; unmatched series append in the other
    /// buffer's order, so merging per-job buffers in job-index order is
    /// independent of worker scheduling.
    pub fn merge(&mut self, other: &MetricsBuffer) {
        for s in &other.spans {
            match find_series(
                &mut self.spans,
                |x| (&x.process, &x.track, &x.name),
                &s.process,
                &s.track,
                &s.name,
            ) {
                Some(mine) => {
                    mine.count += s.count;
                    mine.total_ns += s.total_ns;
                    mine.max_ns = mine.max_ns.max(s.max_ns);
                    mine.histogram.merge(&s.histogram);
                }
                None => self.spans.push(s.clone()),
            }
        }
        for c in &other.counters {
            match find_series(
                &mut self.counters,
                |x| (&x.process, &x.track, &x.name),
                &c.process,
                &c.track,
                &c.name,
            ) {
                Some(mine) => {
                    mine.samples += c.samples;
                    mine.sum += c.sum;
                    mine.min = mine.min.min(c.min);
                    mine.max = mine.max.max(c.max);
                    if c.last_at_ns >= mine.last_at_ns {
                        mine.last_at_ns = c.last_at_ns;
                        mine.last = c.last;
                    }
                    mine.ring.merge(&c.ring);
                }
                None => self.counters.push(c.clone()),
            }
        }
        self.instants += other.instants;
        self.open_spans += other.open_spans;
        self.unmatched_ends += other.unmatched_ends;
        self.overflow_events += other.overflow_events;
        self.malformed_counters += other.malformed_counters;
    }

    /// Renders the snapshot as Prometheus-style text exposition:
    /// `# TYPE` headers followed by `name{label="…"} value` lines, one
    /// family at a time, in deterministic series order — byte-identical
    /// for equal snapshots.
    pub fn render_prometheus(&self) -> String {
        let mut out = String::new();
        let span_labels = |s: &SpanStats| {
            format!(
                "process=\"{}\",track=\"{}\",name=\"{}\",cat=\"{}\"",
                escape_label(&s.process),
                escape_label(&s.track),
                escape_label(&s.name),
                escape_label(&s.cat)
            )
        };
        let counter_labels = |c: &CounterStats| {
            format!(
                "process=\"{}\",track=\"{}\",name=\"{}\"",
                escape_label(&c.process),
                escape_label(&c.track),
                escape_label(&c.name)
            )
        };
        if !self.spans.is_empty() {
            out.push_str("# TYPE mar_span_count counter\n");
            for s in &self.spans {
                out.push_str(&format!(
                    "mar_span_count{{{}}} {}\n",
                    span_labels(s),
                    s.count
                ));
            }
            out.push_str("# TYPE mar_span_duration_ns_sum counter\n");
            for s in &self.spans {
                out.push_str(&format!(
                    "mar_span_duration_ns_sum{{{}}} {}\n",
                    span_labels(s),
                    s.total_ns
                ));
            }
            out.push_str("# TYPE mar_span_duration_ns_max gauge\n");
            for s in &self.spans {
                out.push_str(&format!(
                    "mar_span_duration_ns_max{{{}}} {}\n",
                    span_labels(s),
                    s.max_ns
                ));
            }
            out.push_str("# TYPE mar_span_duration_ns gauge\n");
            for s in &self.spans {
                for q in [0.5, 0.95, 0.99] {
                    if let Some(v) = s.histogram.quantile(q) {
                        out.push_str(&format!(
                            "mar_span_duration_ns{{{},quantile=\"{q}\"}} {}\n",
                            span_labels(s),
                            fmt_f64(v)
                        ));
                    }
                }
            }
        }
        if !self.counters.is_empty() {
            out.push_str("# TYPE mar_counter_samples counter\n");
            for c in &self.counters {
                out.push_str(&format!(
                    "mar_counter_samples{{{}}} {}\n",
                    counter_labels(c),
                    c.samples
                ));
            }
            out.push_str("# TYPE mar_counter_sum counter\n");
            for c in &self.counters {
                out.push_str(&format!(
                    "mar_counter_sum{{{}}} {}\n",
                    counter_labels(c),
                    fmt_f64(c.sum)
                ));
            }
            out.push_str("# TYPE mar_counter_min gauge\n");
            for c in &self.counters {
                out.push_str(&format!(
                    "mar_counter_min{{{}}} {}\n",
                    counter_labels(c),
                    fmt_f64(c.min)
                ));
            }
            out.push_str("# TYPE mar_counter_max gauge\n");
            for c in &self.counters {
                out.push_str(&format!(
                    "mar_counter_max{{{}}} {}\n",
                    counter_labels(c),
                    fmt_f64(c.max)
                ));
            }
            out.push_str("# TYPE mar_counter_last gauge\n");
            for c in &self.counters {
                out.push_str(&format!(
                    "mar_counter_last{{{}}} {}\n",
                    counter_labels(c),
                    fmt_f64(c.last)
                ));
            }
            out.push_str("# TYPE mar_counter_resolution_ns gauge\n");
            for c in &self.counters {
                out.push_str(&format!(
                    "mar_counter_resolution_ns{{{}}} {}\n",
                    counter_labels(c),
                    c.ring.bucket_ns()
                ));
            }
        }
        out.push_str("# TYPE mar_agg_instants counter\n");
        out.push_str(&format!("mar_agg_instants {}\n", self.instants));
        out.push_str("# TYPE mar_agg_open_spans gauge\n");
        out.push_str(&format!("mar_agg_open_spans {}\n", self.open_spans));
        out.push_str("# TYPE mar_agg_unmatched_ends counter\n");
        out.push_str(&format!("mar_agg_unmatched_ends {}\n", self.unmatched_ends));
        out.push_str("# TYPE mar_agg_overflow_events counter\n");
        out.push_str(&format!(
            "mar_agg_overflow_events {}\n",
            self.overflow_events
        ));
        out.push_str("# TYPE mar_agg_malformed_counters counter\n");
        out.push_str(&format!(
            "mar_agg_malformed_counters {}\n",
            self.malformed_counters
        ));
        out
    }

    /// Span series lookup by `(process, track, name)`, for tests.
    pub fn span(&self, process: &str, track: &str, name: &str) -> Option<&SpanStats> {
        self.spans.iter().find(|s| {
            (s.process.as_str(), s.track.as_str(), s.name.as_str()) == (process, track, name)
        })
    }

    /// Counter series lookup by `(process, track, name)`, for tests.
    pub fn counter(&self, process: &str, track: &str, name: &str) -> Option<&CounterStats> {
        self.counters.iter().find(|c| {
            (c.process.as_str(), c.track.as_str(), c.name.as_str()) == (process, track, name)
        })
    }
}

/// Prometheus label-value escaping: backslash, double quote, newline.
fn escape_label(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '"' => out.push_str("\\\""),
            '\n' => out.push_str("\\n"),
            c => out.push(c),
        }
    }
    out
}

/// Shortest-roundtrip float formatting (deterministic for a fixed
/// binary); non-finite values render as `NaN`/`+Inf`/`-Inf` like the
/// Prometheus text format expects.
fn fmt_f64(v: f64) -> String {
    if v.is_nan() {
        "NaN".to_owned()
    } else if v == f64::INFINITY {
        "+Inf".to_owned()
    } else if v == f64::NEG_INFINITY {
        "-Inf".to_owned()
    } else {
        format!("{v}")
    }
}

/// Internal span series keyed by raw [`TrackId`] while collecting.
#[derive(Debug, Clone)]
struct SpanSeries {
    track: TrackId,
    name: String,
    cat: &'static str,
    count: u64,
    total_ns: u64,
    max_ns: u64,
    histogram: LogHistogram,
}

/// Internal counter series keyed by raw [`TrackId`] while collecting.
#[derive(Debug, Clone)]
struct CounterSeries {
    track: TrackId,
    name: String,
    samples: u64,
    sum: f64,
    min: f64,
    max: f64,
    last_at_ns: u64,
    last: f64,
    ring: DownsampleRing,
}

/// A [`TraceSink`] that folds the event stream into bounded streaming
/// aggregates instead of buffering it: per-`(track, span-name)` duration
/// statistics and per-`(track, counter-name)` [`DownsampleRing`] time
/// series. Memory is bounded by fixed caps (256 series per kind, 512
/// ring buckets per counter series), never by the number of events.
/// Snapshot with [`AggregatingSink::snapshot`].
#[derive(Debug, Clone, Default)]
pub struct AggregatingSink {
    tracks: Vec<TrackDef>,
    spans: Vec<SpanSeries>,
    counters: Vec<CounterSeries>,
    /// Per-track stack of open `Begin` spans: `(name, cat, at_ns)`.
    open: Vec<Vec<(String, &'static str, u64)>>,
    /// Index of the last span series hit — trace streams repeat the same
    /// series in bursts, so checking it first turns the common-case
    /// lookup into one comparison. Pure cache: series order (and
    /// therefore every observable output) is unchanged.
    last_span: usize,
    /// Index of the last counter series hit (same memo for counters).
    last_counter: usize,
    instants: u64,
    unmatched_ends: u64,
    overflow_events: u64,
    malformed_counters: u64,
}

impl AggregatingSink {
    /// Resolves the collected aggregates into a plain-data
    /// [`MetricsBuffer`] (track ids become `(process, track)` names so
    /// buffers from different jobs merge by identity, not by
    /// registration order).
    pub fn snapshot(&self) -> MetricsBuffer {
        let resolve = |track: TrackId| -> (String, String) {
            self.tracks
                .get(track as usize)
                .map(|t| (t.process.clone(), t.track.clone()))
                .unwrap_or_else(|| (String::new(), format!("track{track}")))
        };
        MetricsBuffer {
            spans: self
                .spans
                .iter()
                .map(|s| {
                    let (process, track) = resolve(s.track);
                    SpanStats {
                        process,
                        track,
                        name: s.name.clone(),
                        cat: s.cat.to_owned(),
                        count: s.count,
                        total_ns: s.total_ns,
                        max_ns: s.max_ns,
                        histogram: s.histogram.clone(),
                    }
                })
                .collect(),
            counters: self
                .counters
                .iter()
                .map(|c| {
                    let (process, track) = resolve(c.track);
                    CounterStats {
                        process,
                        track,
                        name: c.name.clone(),
                        samples: c.samples,
                        sum: c.sum,
                        min: c.min,
                        max: c.max,
                        last_at_ns: c.last_at_ns,
                        last: c.last,
                        ring: c.ring.clone(),
                    }
                })
                .collect(),
            instants: self.instants,
            open_spans: self.open.iter().map(|s| s.len() as u64).sum(),
            unmatched_ends: self.unmatched_ends,
            overflow_events: self.overflow_events,
            malformed_counters: self.malformed_counters,
        }
    }

    fn record_span(&mut self, track: TrackId, name: &str, cat: &'static str, dur_ns: u64) {
        let hit = match self.spans.get(self.last_span) {
            Some(s) if s.track == track && s.name == name => Some(self.last_span),
            _ => self
                .spans
                .iter()
                .position(|s| s.track == track && s.name == name),
        };
        if let Some(i) = hit {
            self.last_span = i;
            let s = &mut self.spans[i];
            s.count += 1;
            s.total_ns += dur_ns;
            s.max_ns = s.max_ns.max(dur_ns);
            s.histogram.record(dur_ns as f64);
            return;
        }
        if self.spans.len() >= MAX_SERIES {
            self.overflow_events += 1;
            return;
        }
        let mut histogram = duration_histogram();
        histogram.record(dur_ns as f64);
        self.last_span = self.spans.len();
        self.spans.push(SpanSeries {
            track,
            name: name.to_owned(),
            cat,
            count: 1,
            total_ns: dur_ns,
            max_ns: dur_ns,
            histogram,
        });
    }

    fn record_counter(&mut self, track: TrackId, name: &str, at_ns: u64, value: f64) {
        let hit = match self.counters.get(self.last_counter) {
            Some(c) if c.track == track && c.name == name => Some(self.last_counter),
            _ => self
                .counters
                .iter()
                .position(|c| c.track == track && c.name == name),
        };
        if let Some(i) = hit {
            self.last_counter = i;
            let c = &mut self.counters[i];
            c.samples += 1;
            c.sum += value;
            c.min = c.min.min(value);
            c.max = c.max.max(value);
            if at_ns >= c.last_at_ns {
                c.last_at_ns = at_ns;
                c.last = value;
            }
            c.ring.record(at_ns, value);
            return;
        }
        if self.counters.len() >= MAX_SERIES {
            self.overflow_events += 1;
            return;
        }
        let mut ring = DownsampleRing::new(RING_CAPACITY, RING_BUCKET_NS);
        ring.record(at_ns, value);
        self.last_counter = self.counters.len();
        self.counters.push(CounterSeries {
            track,
            name: name.to_owned(),
            samples: 1,
            sum: value,
            min: value,
            max: value,
            last_at_ns: at_ns,
            last: value,
            ring,
        });
    }
}

impl TraceSink for AggregatingSink {
    fn register_track(&mut self, process: &str, track: &str) -> TrackId {
        // Identical dedupe rule (and therefore identical id assignment)
        // to ChromeTraceSink, so a TeeSink can feed both from one
        // registration call.
        if let Some(i) = self
            .tracks
            .iter()
            .position(|t| t.process == process && t.track == track)
        {
            return i as TrackId;
        }
        let id = self.tracks.len() as TrackId;
        self.tracks.push(TrackDef {
            process: process.to_string(),
            track: track.to_string(),
        });
        self.open.push(Vec::new());
        id
    }

    fn event(&mut self, record: TraceRecord) {
        let track = record.track as usize;
        match record.phase {
            TracePhase::Begin => {
                while self.open.len() <= track {
                    self.open.push(Vec::new());
                }
                self.open[track].push((record.name, record.cat, record.at_ns));
            }
            TracePhase::End => match self.open.get_mut(track).and_then(Vec::pop) {
                Some((name, cat, begin_ns)) => {
                    let dur_ns = record.at_ns.saturating_sub(begin_ns);
                    self.record_span(record.track, &name, cat, dur_ns);
                }
                None => self.unmatched_ends += 1,
            },
            TracePhase::Complete => {
                self.record_span(record.track, &record.name, record.cat, record.dur_ns);
            }
            TracePhase::Counter => {
                let value = record.args.iter().find_map(|(k, v)| {
                    (*k == "value").then(|| match v {
                        ArgValue::F64(x) => Some(*x),
                        ArgValue::U64(x) => Some(*x as f64),
                        ArgValue::I64(x) => Some(*x as f64),
                        ArgValue::Str(_) => None,
                    })?
                });
                match value {
                    Some(v) if v.is_finite() => {
                        self.record_counter(record.track, &record.name, record.at_ns, v);
                    }
                    _ => self.malformed_counters += 1,
                }
            }
            TracePhase::Instant => self.instants += 1,
        }
    }
}

/// Deterministic head-sampling for sweeps: picks the `k` jobs whose
/// seed-derived draw `mix(mix(master_seed, tag), seed)` is smallest
/// (ties break toward the lower job index) and returns one flag per
/// job. A pure function of `(master_seed, seeds, k)` — the sampled set
/// is identical across reruns and worker-thread counts, and adding jobs
/// to the end of a sweep never changes which earlier jobs with winning
/// draws are sampled.
pub fn head_sample(master_seed: u64, seeds: &[u64], k: usize) -> Vec<bool> {
    let mut keyed: Vec<(u64, usize)> = seeds
        .iter()
        .enumerate()
        .map(|(i, &s)| (mix(mix(master_seed, SAMPLE_TAG), s), i))
        .collect();
    keyed.sort_unstable();
    let mut out = vec![false; seeds.len()];
    for &(_, i) in keyed.iter().take(k) {
        out[i] = true;
    }
    out
}

/// Runs `f` under the sink combination selected by `chrome` /
/// `metrics` and returns what each sink collected: the full-detail
/// Chrome buffer for sampled jobs, the bounded aggregate for metered
/// ones, both through one [`TeeSink`] when a job is both. The tracer is
/// in scope ([`observe`]) while `f` runs, so every simulation `f` builds
/// records into it; `f` also gets it as its argument. With neither sink
/// the scope holds a disabled tracer.
pub fn with_observers<R>(
    chrome: bool,
    metrics: bool,
    f: impl FnOnce(Tracer) -> R,
) -> (R, Option<TraceBuffer>, Option<MetricsBuffer>) {
    let f = |tracer: Tracer| observe(tracer.clone(), || f(tracer));
    match (chrome, metrics) {
        (true, true) => {
            let sink = Rc::new(RefCell::new(TeeSink {
                first: ChromeTraceSink::new(),
                second: AggregatingSink::default(),
            }));
            let out = f(Tracer::with_sink(Rc::clone(&sink)));
            let sink = sink.borrow();
            (
                out,
                Some(sink.first.snapshot()),
                Some(sink.second.snapshot()),
            )
        }
        (true, false) => {
            let sink = Rc::new(RefCell::new(ChromeTraceSink::new()));
            let out = f(Tracer::with_sink(Rc::clone(&sink)));
            let buffer = sink.borrow().snapshot();
            (out, Some(buffer), None)
        }
        (false, true) => {
            let sink = Rc::new(RefCell::new(AggregatingSink::default()));
            let out = f(Tracer::with_sink(Rc::clone(&sink)));
            let buffer = sink.borrow().snapshot();
            (out, None, Some(buffer))
        }
        (false, false) => (f(Tracer::disabled()), None, None),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::Tracer;
    use crate::{SimDuration, SimTime};

    fn t(ms: f64) -> SimTime {
        SimTime::from_secs_f64(ms / 1e3)
    }

    #[test]
    fn ring_capacity_never_grows_and_resolution_halves() {
        // The acceptance bound: feed samples far past the configured
        // window and assert the backing allocation never exceeds the
        // configured capacity while the width doubles as needed.
        let mut ring = DownsampleRing::new(8, 1_000);
        for i in 0..10_000u64 {
            ring.record(i * 937, i as f64);
            assert!(ring.len() <= ring.capacity(), "ring grew past capacity");
            assert!(
                ring.buckets().len() <= 8,
                "backing allocation exceeded configuration"
            );
        }
        // 10_000 × 937 ns ≈ 9.37 ms needs ~1172 initial buckets; with 8
        // buckets the width must have doubled to ≥ 2^8 × initial.
        assert!(ring.bucket_ns() >= 1_000 * 128, "width never doubled");
        assert!(ring.bucket_ns().is_power_of_two() || ring.bucket_ns() % 1_000 == 0);
        // No samples were lost to the downsampling.
        let total: u64 = ring.buckets().iter().map(|b| b.count).sum();
        assert_eq!(total, 10_000);
        let sum: f64 = ring.buckets().iter().map(|b| b.sum).sum();
        assert_eq!(sum, (0..10_000u64).map(|i| i as f64).sum::<f64>());
    }

    #[test]
    fn ring_merge_equals_single_recording() {
        // Two rings fed disjoint halves of one sample stream merge to
        // exactly the ring that recorded the whole stream.
        let samples: Vec<(u64, f64)> = (0..5_000u64).map(|i| (i * 613, (i % 97) as f64)).collect();
        let mut whole = DownsampleRing::new(16, 1_000);
        let mut a = DownsampleRing::new(16, 1_000);
        let mut b = DownsampleRing::new(16, 1_000);
        for (i, &(at, v)) in samples.iter().enumerate() {
            whole.record(at, v);
            if i % 2 == 0 {
                a.record(at, v);
            } else {
                b.record(at, v);
            }
        }
        a.merge(&b);
        assert_eq!(a.bucket_ns(), whole.bucket_ns());
        assert_eq!(a.buckets().len(), whole.buckets().len());
        for (x, y) in a.buckets().iter().zip(whole.buckets()) {
            assert_eq!(x.count, y.count);
            assert_eq!(x.min, y.min);
            assert_eq!(x.max, y.max);
            assert!((x.sum - y.sum).abs() < 1e-9 * (1.0 + y.sum.abs()));
        }
    }

    #[test]
    fn sink_folds_begin_end_and_complete_spans() {
        let sink = Rc::new(RefCell::new(AggregatingSink::default()));
        let tracer = Tracer::with_sink(Rc::clone(&sink));
        let cpu = tracer.register_track("soc", "CPU slot0");
        tracer.begin(t(1.0), cpu, "soc", "job", &[]);
        tracer.end(t(3.5), cpu, "soc");
        tracer.complete(
            t(4.0),
            SimDuration::from_millis_f64(0.5),
            cpu,
            "soc",
            "job",
            &[],
        );
        tracer.counter(t(4.0), cpu, "soc", "queue", 3.0);
        tracer.counter(t(5.0), cpu, "soc", "queue", 5.0);
        let snap = sink.borrow().snapshot();
        let job = snap.span("soc", "CPU slot0", "job").expect("series exists");
        assert_eq!(job.count, 2);
        assert_eq!(job.total_ns, 2_500_000 + 500_000);
        assert_eq!(job.max_ns, 2_500_000);
        assert_eq!(job.histogram.total(), 2);
        let q = snap.counter("soc", "CPU slot0", "queue").expect("series");
        assert_eq!(q.samples, 2);
        assert_eq!(q.sum, 8.0);
        assert_eq!((q.min, q.max, q.last), (3.0, 5.0, 5.0));
        assert_eq!(snap.open_spans, 0);
        assert_eq!(snap.unmatched_ends, 0);
    }

    #[test]
    fn sink_counts_unbalanced_spans_instead_of_guessing() {
        let sink = Rc::new(RefCell::new(AggregatingSink::default()));
        let tracer = Tracer::with_sink(Rc::clone(&sink));
        let a = tracer.register_track("p", "t");
        tracer.end(t(1.0), a, "soc");
        tracer.begin(t(2.0), a, "soc", "dangling", &[]);
        let snap = sink.borrow().snapshot();
        assert_eq!(snap.unmatched_ends, 1);
        assert_eq!(snap.open_spans, 1);
        assert!(snap.span("p", "t", "dangling").is_none());
    }

    #[test]
    fn series_cap_bounds_memory_and_counts_overflow() {
        let sink = Rc::new(RefCell::new(AggregatingSink::default()));
        let tracer = Tracer::with_sink(Rc::clone(&sink));
        let a = tracer.register_track("p", "t");
        for i in 0..MAX_SERIES + 3 {
            tracer.complete(
                t(1.0),
                SimDuration::from_millis_f64(1.0),
                a,
                "soc",
                &format!("span{i}"),
                &[],
            );
        }
        let snap = sink.borrow().snapshot();
        assert_eq!(snap.spans.len(), MAX_SERIES);
        assert_eq!(snap.overflow_events, 3);
    }

    #[test]
    fn merge_matches_series_by_name_across_jobs() {
        // Two jobs with the same track names but different registration
        // orders must merge by identity.
        let make = |first: &str, second: &str, n_first: u64| {
            let sink = Rc::new(RefCell::new(AggregatingSink::default()));
            let tracer = Tracer::with_sink(Rc::clone(&sink));
            let x = tracer.register_track("edgelink", first);
            let y = tracer.register_track("edgelink", second);
            for _ in 0..n_first {
                tracer.complete(
                    t(1.0),
                    SimDuration::from_millis_f64(1.0),
                    x,
                    "edgelink",
                    "serve",
                    &[],
                );
            }
            tracer.complete(
                t(2.0),
                SimDuration::from_millis_f64(2.0),
                y,
                "edgelink",
                "serve",
                &[],
            );
            let s = sink.borrow().snapshot();
            s
        };
        let mut a = make("server0", "server1", 3);
        let b = make("server1", "server0", 5);
        a.merge(&b);
        assert_eq!(a.span("edgelink", "server0", "serve").unwrap().count, 3 + 1);
        assert_eq!(a.span("edgelink", "server1", "serve").unwrap().count, 1 + 5);
    }

    #[test]
    fn render_is_deterministic_and_carries_quantiles() {
        let sink = Rc::new(RefCell::new(AggregatingSink::default()));
        let tracer = Tracer::with_sink(Rc::clone(&sink));
        let a = tracer.register_track("soc", "CPU");
        for i in 1..=100u64 {
            tracer.complete(
                t(i as f64),
                SimDuration::from_millis_f64(i as f64 / 10.0),
                a,
                "soc",
                "job",
                &[],
            );
            tracer.counter(t(i as f64), a, "soc", "queue", (i % 7) as f64);
        }
        let snap = sink.borrow().snapshot();
        let one = snap.render_prometheus();
        let two = snap.render_prometheus();
        assert_eq!(one, two);
        assert!(one.contains("# TYPE mar_span_count counter\n"));
        assert!(one.contains(
            "mar_span_count{process=\"soc\",track=\"CPU\",name=\"job\",cat=\"soc\"} 100\n"
        ));
        assert!(one.contains("quantile=\"0.95\""));
        assert!(
            one.contains("mar_counter_samples{process=\"soc\",track=\"CPU\",name=\"queue\"} 100\n")
        );
        // Label escaping is applied.
        assert_eq!(escape_label("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
    }

    #[test]
    fn head_sample_is_deterministic_and_exact_k() {
        let seeds: Vec<u64> = (0..50).map(|i| mix(99, i)).collect();
        let a = head_sample(7, &seeds, 5);
        let b = head_sample(7, &seeds, 5);
        assert_eq!(a, b);
        assert_eq!(a.iter().filter(|&&x| x).count(), 5);
        // A different master seed picks a different set (overwhelmingly).
        let c = head_sample(8, &seeds, 5);
        assert_ne!(a, c);
        // k larger than the population samples everything.
        assert!(head_sample(7, &seeds, 100).iter().all(|&x| x));
        // Extending the job list keeps earlier winners' draws intact:
        // every sampled job of the short list whose draw beats the new
        // jobs' draws stays sampled.
        let extended: Vec<u64> = seeds
            .iter()
            .copied()
            .chain((50..60).map(|i| mix(99, i)))
            .collect();
        let d = head_sample(7, &extended, 5);
        assert_eq!(d.len(), 60);
        assert_eq!(d.iter().filter(|&&x| x).count(), 5);
    }

    #[test]
    fn tee_feeds_chrome_and_aggregate_identically() {
        let ((), chrome, agg) = with_observers(true, true, |tracer| {
            let a = tracer.register_track("soc", "CPU");
            tracer.begin(t(1.0), a, "soc", "job", &[]);
            tracer.end(t(2.0), a, "soc");
            tracer.counter(t(2.0), a, "soc", "queue", 1.0);
        });
        let chrome = chrome.expect("chrome buffer");
        let agg = agg.expect("metrics buffer");
        assert_eq!(chrome.records.len(), 3);
        assert_eq!(chrome.tracks.len(), 1);
        assert_eq!(agg.span("soc", "CPU", "job").unwrap().count, 1);
        assert_eq!(agg.counter("soc", "CPU", "queue").unwrap().samples, 1);
        // Other combinations produce exactly the requested buffers.
        let ((), c2, a2) = with_observers(false, true, |tr| {
            assert!(tr.is_enabled());
        });
        assert!(c2.is_none() && a2.is_some());
        let ((), c3, a3) = with_observers(false, false, |tr| {
            assert!(!tr.is_enabled());
        });
        // The tracer handed in is also the one in scope.
        let ((), chrome, _) = with_observers(true, false, |_| {
            let tracer = Tracer::current();
            let a = tracer.register_track("soc", "CPU");
            tracer.instant(t(1.0), a, "soc", "tick", &[]);
        });
        assert_eq!(chrome.expect("chrome buffer").records.len(), 1);
        assert!(c3.is_none() && a3.is_none());
    }
}
