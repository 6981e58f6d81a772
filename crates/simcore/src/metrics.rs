//! `simcore::metrics` — bounded streaming aggregation of trace events.
//!
//! A Chrome-buffering [`Tracer`] keeps every event, so its memory grows
//! with simulated work: at fleet scale (thousands of sessions, millions
//! of events per cell) you can have a trace or you can have the run, not
//! both. This module is the layer between that firehose and a
//! totals-only summary line:
//!
//! * [`with_observers`] runs a job under one observer with either output,
//!   both, or neither: the Chrome record buffer and the aggregator share
//!   the observer's one track table and see every event of one
//!   instrumented pass. The aggregator folds span begin/end/complete
//!   events into per-`(track, span-name)` streaming statistics — count,
//!   total/max duration, and a [`LogHistogram`] of durations for
//!   p50/p95/p99 — and counter samples into per-`(track, counter-name)`
//!   count/sum/min/max/last. It reads each event's borrowed name and
//!   typed value, builds no [`crate::trace::TraceRecord`], and collects
//!   straight into a [`MetricsBuffer`], so its memory is bounded by the
//!   series cap, never by the number of events or by simulated time.
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

use crate::rng::mix;
use crate::stats::LogHistogram;
use crate::trace::{observe, TraceBuffer, Tracer, TrackId, TrackTable};

/// Domain-separation tag for [`head_sample`] draws, so the sampling
/// decision shares no stream with any simulation RNG.
const SAMPLE_TAG: u64 = 0x0B5E_4B1E;

/// Duration histogram layout shared by every span series: 100 ns to
/// ~130 s in 30% steps (81 buckets + overflow). One fixed layout keeps
/// snapshots mergeable ([`LogHistogram::merge`] requires it).
fn duration_histogram() -> LogHistogram {
    LogHistogram::new(100.0, 1.3, 80)
}

/// Bucket count the counter resolution is derived for.
const RESOLUTION_BUCKETS: u64 = 512;
/// Finest counter resolution in nanoseconds.
const RESOLUTION_NS: u64 = 1_000_000;
/// Cap on distinct `(track, name)` series per kind (spans and counters
/// separately). Events for series beyond the cap are counted in
/// [`MetricsBuffer::overflow_events`] and dropped.
const MAX_SERIES: usize = 256;

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

/// Streaming statistics for one `(track, counter-name)` series.
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
    /// job-index order). The exposition derives the series' time
    /// resolution from it.
    pub last_at_ns: u64,
    /// Latest sample value.
    pub last: f64,
}

/// Plain-data snapshot of everything a metered [`Tracer`] aggregated.
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
    /// Counter samples whose value was not finite (NaN or ±∞).
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
                    resolution_ns(c.last_at_ns)
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

/// The `mar_counter_resolution_ns` of a counter series whose latest
/// sample is at `last_at_ns`: the bucket width a time series of
/// [`RESOLUTION_BUCKETS`] buckets would need to reach the sample,
/// starting at [`RESOLUTION_NS`] and doubling — 1 ms up to a 512 ms
/// horizon, 64 ms for a 30 s one.
fn resolution_ns(last_at_ns: u64) -> u64 {
    let mut width = RESOLUTION_NS;
    while last_at_ns / width >= RESOLUTION_BUCKETS {
        width *= 2;
    }
    width
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

/// Index of the series on `track` whose name `named(i)` accepts, given
/// each series' track in `tracks`: the memoized `last` hit first, then a
/// scan in first-seen order.
fn lookup(
    tracks: &[TrackId],
    last: usize,
    track: TrackId,
    named: impl Fn(usize) -> bool,
) -> Option<usize> {
    let is = |i: usize| tracks[i] == track && named(i);
    if last < tracks.len() && is(last) {
        Some(last)
    } else {
        (0..tracks.len()).find(|&i| is(i))
    }
}

/// The metrics half of a tracer's observer: folds the event stream into
/// bounded streaming aggregates instead of buffering it — per-`(track,
/// span-name)` duration statistics and per-`(track, counter-name)` sample
/// statistics. Each emit hands it the borrowed name, the duration or the
/// counter value as typed, so folding an event copies nothing but the
/// name of a span that stays open. It collects straight into the
/// [`MetricsBuffer`] it snapshots, naming each series by its `(process,
/// track)` when the series is created, so buffers from different jobs
/// merge by identity, not by registration order. Memory is bounded by
/// the cap of 256 series per kind, never by the number of events.
#[derive(Debug, Clone, Default)]
pub(crate) struct Aggregator {
    /// Everything collected so far, except `open_spans`.
    buffer: MetricsBuffer,
    /// Track of each `buffer.spans` entry.
    span_tracks: Vec<TrackId>,
    /// Track of each `buffer.counters` entry.
    counter_tracks: Vec<TrackId>,
    /// Per-track stack of open `Begin` spans: `(name, cat, at_ns)`. The
    /// name stays a name until the `End`: a span series is created when
    /// its first span ends, which fixes the exposition's series order.
    open: Vec<Vec<(String, &'static str, u64)>>,
    /// Index of the last span series hit — trace streams repeat the same
    /// series in bursts, so checking it first turns the common-case
    /// lookup into one comparison. Pure cache: series order (and
    /// therefore every observable output) is unchanged.
    last_span: usize,
    /// Index of the last counter series hit (same memo for counters).
    last_counter: usize,
}

impl Aggregator {
    /// Clones out everything collected so far as a plain-data
    /// [`MetricsBuffer`].
    pub(crate) fn snapshot(&self) -> MetricsBuffer {
        MetricsBuffer {
            open_spans: self.open_spans(),
            ..self.buffer.clone()
        }
    }

    /// Moves out everything collected, without the copy
    /// [`snapshot`](Self::snapshot) makes.
    pub(crate) fn into_buffer(self) -> MetricsBuffer {
        MetricsBuffer {
            open_spans: self.open_spans(),
            ..self.buffer
        }
    }

    fn open_spans(&self) -> u64 {
        self.open.iter().map(|s| s.len() as u64).sum()
    }

    /// Opens a span on `track`.
    pub(crate) fn begin(&mut self, track: TrackId, cat: &'static str, name: &str, at_ns: u64) {
        let track = track as usize;
        if self.open.len() <= track {
            self.open.resize_with(track + 1, Vec::new);
        }
        self.open[track].push((name.to_owned(), cat, at_ns));
    }

    /// Closes the latest open span on `track`, or counts an unmatched end.
    pub(crate) fn end(&mut self, tracks: &TrackTable, track: TrackId, at_ns: u64) {
        match self.open.get_mut(track as usize).and_then(Vec::pop) {
            Some((name, cat, begin_ns)) => {
                let dur_ns = at_ns.saturating_sub(begin_ns);
                self.complete(tracks, track, cat, &name, dur_ns);
            }
            None => self.buffer.unmatched_ends += 1,
        }
    }

    /// Folds one finished span into its `(track, name)` series.
    pub(crate) fn complete(
        &mut self,
        tracks: &TrackTable,
        track: TrackId,
        cat: &'static str,
        name: &str,
        dur_ns: u64,
    ) {
        let spans = &self.buffer.spans;
        let hit = lookup(&self.span_tracks, self.last_span, track, |i| {
            spans[i].name == name
        });
        if let Some(i) = hit {
            self.last_span = i;
            let s = &mut self.buffer.spans[i];
            s.count += 1;
            s.total_ns += dur_ns;
            s.max_ns = s.max_ns.max(dur_ns);
            s.histogram.record(dur_ns as f64);
            return;
        }
        if self.span_tracks.len() >= MAX_SERIES {
            self.buffer.overflow_events += 1;
            return;
        }
        let (process, track_name) = names(tracks, track);
        let mut histogram = duration_histogram();
        histogram.record(dur_ns as f64);
        self.last_span = self.span_tracks.len();
        self.span_tracks.push(track);
        self.buffer.spans.push(SpanStats {
            process,
            track: track_name,
            name: name.to_owned(),
            cat: cat.to_owned(),
            count: 1,
            total_ns: dur_ns,
            max_ns: dur_ns,
            histogram,
        });
    }

    /// Folds one counter sample into its `(track, name)` series; a
    /// non-finite value is counted as malformed instead.
    pub(crate) fn counter(
        &mut self,
        tracks: &TrackTable,
        track: TrackId,
        name: &str,
        at_ns: u64,
        value: f64,
    ) {
        if !value.is_finite() {
            self.buffer.malformed_counters += 1;
            return;
        }
        let counters = &self.buffer.counters;
        let hit = lookup(&self.counter_tracks, self.last_counter, track, |i| {
            counters[i].name == name
        });
        if let Some(i) = hit {
            self.last_counter = i;
            let c = &mut self.buffer.counters[i];
            c.samples += 1;
            c.sum += value;
            c.min = c.min.min(value);
            c.max = c.max.max(value);
            if at_ns >= c.last_at_ns {
                c.last_at_ns = at_ns;
                c.last = value;
            }
            return;
        }
        if self.counter_tracks.len() >= MAX_SERIES {
            self.buffer.overflow_events += 1;
            return;
        }
        let (process, track_name) = names(tracks, track);
        self.last_counter = self.counter_tracks.len();
        self.counter_tracks.push(track);
        self.buffer.counters.push(CounterStats {
            process,
            track: track_name,
            name: name.to_owned(),
            samples: 1,
            sum: value,
            min: value,
            max: value,
            last_at_ns: at_ns,
            last: value,
        });
    }

    /// Counts an instant event.
    pub(crate) fn instant(&mut self) {
        self.buffer.instants += 1;
    }
}

/// The `(process, track)` names of `track`; an id no registration
/// returned is named `track{id}` under an empty process.
fn names(tracks: &TrackTable, track: TrackId) -> (String, String) {
    tracks
        .get(track)
        .map(|t| (t.process.clone(), t.track.clone()))
        .unwrap_or_else(|| (String::new(), format!("track{track}")))
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

/// Runs `f` under an observer that keeps the Chrome buffer when
/// `chrome` is set and the bounded aggregate when `metrics` is set, and
/// returns what it collected: full detail for sampled jobs, the aggregate
/// for metered ones, both from one instrumented pass when a job is both.
/// The tracer is in scope ([`observe`]) while `f` runs, so every
/// simulation `f` builds records into it; `f` also gets it as its
/// argument. With neither output the scope holds a disabled tracer.
pub fn with_observers<R>(
    chrome: bool,
    metrics: bool,
    f: impl FnOnce(Tracer) -> R,
) -> (R, Option<TraceBuffer>, Option<MetricsBuffer>) {
    let tracer = if chrome || metrics {
        Tracer::observing(chrome, metrics)
    } else {
        Tracer::disabled()
    };
    let out = observe(tracer.clone(), || f(tracer.clone()));
    let (chrome, metrics) = tracer.into_buffers();
    (out, chrome, metrics)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::{ArgValue, TracePhase};
    use crate::{SimDuration, SimTime};

    fn t(ms: f64) -> SimTime {
        SimTime::from_secs_f64(ms / 1e3)
    }

    /// What the metered `tracer` has aggregated so far.
    fn aggregate(tracer: &Tracer) -> MetricsBuffer {
        tracer.snapshot().1.expect("metrics are on")
    }

    /// The `mar_counter_resolution_ns` value the exposition prints for
    /// counter `name` on track `p:t`.
    fn resolution(snap: &MetricsBuffer, name: &str) -> u64 {
        let prefix =
            format!("mar_counter_resolution_ns{{process=\"p\",track=\"t\",name=\"{name}\"}} ");
        let text = snap.render_prometheus();
        let line = text
            .lines()
            .find_map(|l| l.strip_prefix(prefix.as_str()))
            .expect("resolution line");
        line.parse().expect("integer resolution")
    }

    #[test]
    fn counter_resolution_doubles_past_512_buckets_and_survives_merge() {
        // Latest samples at 511.999 ms, 512 ms and 30 s: 512 buckets of
        // 1 ms reach the first, the second needs 2 ms, and 30 s needs
        // 64 ms (32 ms × 512 = 16.4 s falls short).
        let ns = |at_ns: u64| SimTime::from_nanos(at_ns);
        let tracer = Tracer::observing(false, true);
        let a = tracer.register_track("p", "t");
        let streams: [(&str, Vec<u64>); 3] = [
            ("fine", vec![0, 100_000_000, 511_999_000]),
            ("edge", vec![3_000_000, 512_000_000]),
            (
                "long",
                vec![5_000_000, 29_000_000_000, 30_000_000_000, 7_000_000],
            ),
        ];
        for (name, times) in &streams {
            for &at in times {
                tracer.counter(ns(at), a, "soc", name, at as f64);
            }
        }
        let snap = aggregate(&tracer);
        assert_eq!(resolution(&snap, "fine"), 1_000_000);
        assert_eq!(resolution(&snap, "edge"), 2_000_000);
        // The 7 ms sample came after the 30 s one and does not lower it.
        assert_eq!(resolution(&snap, "long"), 64_000_000);

        // Two observers fed alternate samples merge to the resolution of
        // the one that saw them all, whichever side held the latest sample.
        let tracers = [
            Tracer::observing(false, true),
            Tracer::observing(false, true),
        ];
        let ids = tracers.each_ref().map(|t| t.register_track("p", "t"));
        let mut i = 0;
        for (name, times) in &streams {
            for &at in times {
                tracers[i % 2].counter(ns(at), ids[i % 2], "soc", name, at as f64);
                i += 1;
            }
        }
        let mut merged = aggregate(&tracers[0]);
        merged.merge(&aggregate(&tracers[1]));
        for (name, _) in &streams {
            assert_eq!(resolution(&merged, name), resolution(&snap, name), "{name}");
        }
    }

    #[test]
    fn sink_folds_begin_end_and_complete_spans() {
        let tracer = Tracer::observing(false, true);
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
        let snap = aggregate(&tracer);
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
        let tracer = Tracer::observing(false, true);
        let a = tracer.register_track("p", "t");
        tracer.end(t(1.0), a, "soc");
        tracer.begin(t(2.0), a, "soc", "dangling", &[]);
        let snap = aggregate(&tracer);
        assert_eq!(snap.unmatched_ends, 1);
        assert_eq!(snap.open_spans, 1);
        assert!(snap.span("p", "t", "dangling").is_none());
    }

    #[test]
    fn series_cap_bounds_memory_and_counts_overflow() {
        let tracer = Tracer::observing(false, true);
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
        let snap = aggregate(&tracer);
        assert_eq!(snap.spans.len(), MAX_SERIES);
        assert_eq!(snap.overflow_events, 3);
    }

    #[test]
    fn merge_matches_series_by_name_across_jobs() {
        // Two jobs with the same track names but different registration
        // orders must merge by identity.
        let make = |first: &str, second: &str, n_first: u64| {
            let tracer = Tracer::observing(false, true);
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
            aggregate(&tracer)
        };
        let mut a = make("server0", "server1", 3);
        let b = make("server1", "server0", 5);
        a.merge(&b);
        assert_eq!(a.span("edgelink", "server0", "serve").unwrap().count, 3 + 1);
        assert_eq!(a.span("edgelink", "server1", "serve").unwrap().count, 1 + 5);
    }

    #[test]
    fn render_is_deterministic_and_carries_quantiles() {
        let tracer = Tracer::observing(false, true);
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
        let snap = aggregate(&tracer);
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
            assert_eq!(tracer.register_track("soc", "CPU"), a);
            tracer.begin(t(1.0), a, "soc", "job", &[]);
            tracer.end(t(2.0), a, "soc");
            tracer.counter(t(2.0), a, "soc", "queue", 1.0);
            // An end with no begin and a NaN sample reach the Chrome
            // buffer as emitted and the aggregate as counted faults.
            tracer.end(t(3.0), a, "soc");
            tracer.counter(t(3.0), a, "soc", "queue", f64::NAN);
        });
        let chrome = chrome.expect("chrome buffer");
        let agg = agg.expect("metrics buffer");
        assert_eq!(chrome.records.len(), 5);
        assert_eq!(chrome.tracks.len(), 1);
        assert_eq!(chrome.records[3].phase, TracePhase::End);
        assert!(matches!(
            chrome.records[4].args[..],
            [("value", ArgValue::F64(v))] if v.is_nan()
        ));
        assert_eq!(agg.span("soc", "CPU", "job").unwrap().count, 1);
        assert_eq!(agg.counter("soc", "CPU", "queue").unwrap().samples, 1);
        assert_eq!((agg.unmatched_ends, agg.malformed_counters), (1, 1));
        let text = agg.render_prometheus();
        assert!(text.contains("mar_agg_unmatched_ends 1\n"));
        assert!(text.contains("mar_agg_malformed_counters 1\n"));

        // Both outputs name tracks through one table: one lane name under
        // two processes is two tracks, an early track re-registered after
        // many others keeps its first id, ids stay dense in first-seen
        // order, and both outputs name every series by it.
        let ((), chrome, agg) = with_observers(true, true, |tracer| {
            let soc = tracer.register_track("soc", "lane");
            let edge = tracer.register_track("edgelink", "lane");
            assert_eq!((soc, edge), (0, 1));
            let many: Vec<TrackId> = (0..300)
                .map(|i| tracer.register_track("edgelink", &format!("sess{i} up")))
                .collect();
            assert_eq!(many, (2..302).collect::<Vec<TrackId>>());
            assert_eq!(tracer.register_track("soc", "lane"), soc);
            assert_eq!(tracer.register_track("edgelink", "lane"), edge);
            assert_eq!(tracer.register_track("edgelink", "sess7 up"), 9);
            assert_eq!(tracer.register_track("soc", "sess7 up"), 302);
            tracer.counter(t(1.0), 9, "edgelink", "queue", 2.0);
        });
        let chrome = chrome.expect("chrome buffer");
        assert_eq!(chrome.tracks.len(), 303);
        let track = &chrome.tracks[chrome.records[0].track as usize];
        assert_eq!(
            (track.process.as_str(), track.track.as_str()),
            ("edgelink", "sess7 up")
        );
        let agg = agg.expect("metrics buffer");
        assert_eq!(
            agg.counter("edgelink", "sess7 up", "queue")
                .unwrap()
                .samples,
            1
        );

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

    /// A job that keeps its tracer alive past the run gets the same
    /// buffers (copied out) as one that drops it (moved out).
    #[test]
    fn buffers_are_the_same_whether_moved_or_copied() {
        let job = |tracer: &Tracer| {
            let a = tracer.register_track("soc", "CPU");
            tracer.begin(t(1.0), a, "soc", "job", &[("n", ArgValue::U64(3))]);
            tracer.end(t(2.0), a, "soc");
            tracer.begin(t(3.0), a, "soc", "open", &[]);
            tracer.counter(t(3.0), a, "soc", "queue", 2.0);
        };
        for (chrome, metrics) in [(true, true), (true, false), (false, true)] {
            let ((), moved_c, moved_m) = with_observers(chrome, metrics, |tr| job(&tr));
            let (kept, copied_c, copied_m) = with_observers(chrome, metrics, |tr| {
                job(&tr);
                tr
            });
            assert!(kept.is_enabled());
            assert_eq!(format!("{moved_c:?}"), format!("{copied_c:?}"));
            assert_eq!(format!("{moved_m:?}"), format!("{copied_m:?}"));
        }
    }
}
