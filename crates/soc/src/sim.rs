//! The SoC simulator: wires streams, sources, and servers to the
//! discrete-event engine.

use simcore::stats::{LogHistogram, Running};
use simcore::trace::{ArgValue, Tracer, TrackId};
use simcore::{SimTime, Simulator};

use crate::job::{SourceId, SourceSpec, Stage, StageSeq, StreamId, StreamSpec};
use crate::server::{FifoServer, JobKey, Owner, PsServer, ServicePolicy};
use crate::topology::{ProcId, Topology};

/// Events internal to the SoC simulation.
#[derive(Debug, Clone, Copy)]
enum SocEvent {
    /// The job in `slot` of FIFO processor `proc` finished.
    FifoDone { proc: usize, slot: usize },
    /// Re-derive completions on PS processor `proc`; stale if the server's
    /// generation moved past `generation`.
    PsCheck { proc: usize, generation: u64 },
    /// A contention-free delay stage elapsed.
    DelayDone { key: JobKey },
    /// Periodic release point of a source.
    SourceTick { source: usize },
    /// (Re)start of a stream instance.
    StreamStart { stream: usize },
}

/// Per-stream latency measurements.
///
/// Keeps the `(completion time, latency ms)` trace so experiments can
/// plot time series (Fig. 2) and compute window means (Eq. 4); every
/// sample is retained.
#[derive(Debug, Clone)]
pub struct StreamMetrics {
    samples: Vec<(SimTime, f64)>,
    overall: Running,
    histogram: LogHistogram,
}

impl Default for StreamMetrics {
    fn default() -> Self {
        StreamMetrics {
            samples: Vec::new(),
            overall: Running::new(),
            // 0.1 ms .. ~1.7 s in 10% steps: covers sub-ms digit
            // classifiers up to pathologically contended segmentation.
            histogram: LogHistogram::new(0.1, 1.1, 102),
        }
    }
}

impl StreamMetrics {
    /// Number of completed instances (inferences).
    pub fn completed(&self) -> u64 {
        self.overall.count()
    }

    /// Statistics over every completed instance.
    pub fn latency_overall(&self) -> &Running {
        &self.overall
    }

    /// Full `(completion time, latency ms)` trace, oldest first.
    pub fn samples(&self) -> &[(SimTime, f64)] {
        &self.samples
    }

    /// Latency of the most recent completion, in milliseconds.
    pub fn last_latency_ms(&self) -> Option<f64> {
        self.samples.last().map(|&(_, l)| l)
    }

    /// Mean latency (ms) of completions at or after `since`, or `None` if
    /// none completed in that span.
    pub fn mean_since(&self, since: SimTime) -> Option<f64> {
        let idx = self.samples.partition_point(|&(t, _)| t < since);
        let tail = &self.samples[idx..];
        if tail.is_empty() {
            return None;
        }
        Some(tail.iter().map(|&(_, l)| l).sum::<f64>() / tail.len() as f64)
    }

    /// Approximate latency percentile in milliseconds over every
    /// completion (log-bucketed, ~10 % resolution), or `None` when empty.
    ///
    /// # Panics
    ///
    /// Panics if `q` is outside `[0, 1]`.
    pub fn latency_percentile_ms(&self, q: f64) -> Option<f64> {
        self.histogram.quantile(q)
    }

    fn record(&mut self, at: SimTime, latency_ms: f64) {
        self.samples.push((at, latency_ms));
        self.overall.record(latency_ms);
        self.histogram.record(latency_ms);
    }
}

/// Per-source (render-loop) measurements.
#[derive(Debug, Clone, Default)]
pub struct SourceMetrics {
    /// Jobs released.
    pub released: u64,
    /// Release points skipped because `max_outstanding` jobs were in flight
    /// (dropped frames).
    pub skipped: u64,
    /// Latency (ms) of completed jobs.
    latency: Running,
    completions: Vec<SimTime>,
}

impl SourceMetrics {
    /// Number of completed jobs (rendered frames).
    pub fn completed(&self) -> u64 {
        self.latency.count()
    }

    /// Latency statistics of completed jobs.
    pub fn latency(&self) -> &Running {
        &self.latency
    }

    /// Completions per second over `[since, now]` (e.g. achieved FPS).
    pub fn rate_since(&self, since: SimTime, now: SimTime) -> f64 {
        let span = (now - since).as_secs_f64();
        if span <= 0.0 {
            return 0.0;
        }
        let idx = self.completions.partition_point(|&t| t < since);
        (self.completions.len() - idx) as f64 / span
    }
}

/// Snapshot of one processor's counters.
#[derive(Debug, Clone, PartialEq)]
pub struct ProcessorMetrics {
    /// Processor name from the topology.
    pub name: String,
    /// Stage executions finished on this processor.
    pub completed: u64,
    /// Time-weighted average number of resident/running jobs since start.
    pub avg_active: f64,
    /// Time-weighted fraction of the span the processor was doing *any*
    /// work: exact utilization for PS servers; `avg_active / slots` for
    /// FIFO servers.
    pub avg_busy: f64,
    /// Jobs currently running or resident.
    pub running_now: usize,
    /// Jobs currently waiting in queue (always 0 for PS processors).
    pub queued_now: usize,
}

enum ServerImpl {
    Fifo(FifoServer<JobKey>),
    Ps(PsServer<JobKey>),
}

/// Stream hot state as a struct of arrays. The per-event path
/// (`start_stream_instance` / `complete_instance`) touches only `seq`,
/// `started_at`, and `in_flight`; splitting them out of the spec- and
/// metrics-carrying struct keeps those accesses dense — three small
/// parallel vectors instead of striding over `StreamSpec`s.
#[derive(Default)]
struct StreamTable {
    specs: Vec<StreamSpec>,
    /// Replacement stage sequence to apply at the next restart.
    pending: Vec<Option<StageSeq>>,
    seq: Vec<u64>,
    started_at: Vec<SimTime>,
    in_flight: Vec<bool>,
    metrics: Vec<StreamMetrics>,
}

impl StreamTable {
    fn len(&self) -> usize {
        self.specs.len()
    }

    fn push(&mut self, spec: StreamSpec, now: SimTime, metrics: StreamMetrics) {
        self.specs.push(spec);
        self.pending.push(None);
        self.seq.push(0);
        self.started_at.push(now);
        self.in_flight.push(false);
        self.metrics.push(metrics);
    }
}

struct SourceState {
    spec: SourceSpec,
    seq: u64,
    /// `(seq, release time)` of each in-flight instance, in no order (at
    /// most `max_outstanding` entries).
    outstanding: Vec<(u64, SimTime)>,
    /// High-water mark of `outstanding.len()`.
    peak_outstanding: usize,
    metrics: SourceMetrics,
}

/// Trace track ids registered per simulation entity; parallel vectors
/// indexed like their owners. All zeros when tracing is disabled.
#[derive(Debug, Default)]
struct TraceIds {
    /// Per server: one span track per FIFO slot (empty for PS servers).
    fifo_slots: Vec<Vec<TrackId>>,
    /// Per server: the track carrying its counter series.
    proc_track: Vec<TrackId>,
    /// Per server: counter series name (`"<proc> queue"` / `"<proc>
    /// resident"`).
    proc_counter: Vec<String>,
    /// Per stream: span track for completed inferences.
    streams: Vec<TrackId>,
    /// Per source: track carrying the skipped-release counter.
    sources: Vec<TrackId>,
    /// Per source: skipped-release counter series name.
    source_counter: Vec<String>,
    /// The track carrying the memory-accounting counters.
    mem_track: TrackId,
}

struct SocState {
    topo: Topology,
    servers: Vec<ServerImpl>,
    streams: StreamTable,
    sources: Vec<SourceState>,
    /// Peak FIFO queue depth observed per server (0 for PS servers).
    peak_queue: Vec<usize>,
    /// Reusable buffer for PS completion batches (taken/returned around
    /// each `PsCheck`), so checks do not allocate per event.
    finished_scratch: Vec<JobKey>,
    tracer: Tracer,
    trace: TraceIds,
}

type Sched<'a> = simcore::Scheduler<'a, SocEvent>;

/// Simulator of a heterogeneous SoC running AI-task streams and periodic
/// render sources. See the crate docs for an end-to-end example.
pub struct SocSim {
    sim: Simulator<SocEvent>,
    state: SocState,
}

impl std::fmt::Debug for SocSim {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SocSim")
            .field("now", &self.sim.now())
            .field("streams", &self.state.streams.len())
            .field("sources", &self.state.sources.len())
            .finish()
    }
}

impl SocSim {
    /// Creates a simulator over `topology` at time zero.
    pub fn new(topology: Topology) -> Self {
        let start = SimTime::ZERO;
        let servers = topology
            .iter()
            .map(|(_, spec)| match spec.policy {
                ServicePolicy::Fifo { slots } => ServerImpl::Fifo(FifoServer::new(slots, start)),
                ServicePolicy::ProcessorSharing => ServerImpl::Ps(PsServer::new(start)),
            })
            .collect();
        let server_count = topology.iter().count();
        SocSim {
            sim: Simulator::new(),
            state: SocState {
                topo: topology,
                servers,
                streams: StreamTable::default(),
                sources: Vec::new(),
                peak_queue: vec![0; server_count],
                finished_scratch: Vec::new(),
                tracer: Tracer::disabled(),
                trace: TraceIds::default(),
            },
        }
    }

    /// Installs a tracer and registers one span track per FIFO slot and
    /// one counter track per processor.
    ///
    /// # Panics
    ///
    /// Panics if streams or sources were already added — their tracks
    /// must be registered in creation order, so the tracer has to be
    /// installed first.
    pub fn set_tracer(&mut self, tracer: Tracer) {
        assert!(
            self.state.streams.len() == 0 && self.state.sources.is_empty(),
            "install the tracer before adding streams or sources"
        );
        self.state.tracer = tracer;
        self.state.trace = TraceIds::default();
        for (id, spec) in self.state.topo.iter() {
            debug_assert_eq!(id.index(), self.state.trace.proc_track.len());
            match spec.policy {
                ServicePolicy::Fifo { slots } => {
                    let tracks: Vec<TrackId> = (0..slots)
                        .map(|s| {
                            self.state
                                .tracer
                                .register_track("soc", &format!("{} slot{s}", spec.name))
                        })
                        .collect();
                    self.state.trace.proc_track.push(tracks[0]);
                    self.state.trace.fifo_slots.push(tracks);
                    self.state
                        .trace
                        .proc_counter
                        .push(format!("{} queue", spec.name));
                }
                ServicePolicy::ProcessorSharing => {
                    let track = self.state.tracer.register_track("soc", &spec.name);
                    self.state.trace.proc_track.push(track);
                    self.state.trace.fifo_slots.push(Vec::new());
                    self.state
                        .trace
                        .proc_counter
                        .push(format!("{} resident", spec.name));
                }
            }
        }
        self.state.trace.mem_track = self.state.tracer.register_track("soc", "mem");
    }

    /// Peak FIFO queue depth observed on a processor so far (always 0
    /// for processor-sharing servers, which do not queue).
    pub fn peak_queue(&self, id: ProcId) -> usize {
        self.state.peak_queue[id.index()]
    }

    /// Current simulated time.
    pub fn now(&self) -> SimTime {
        self.sim.now()
    }

    /// The processor topology.
    pub fn topology(&self) -> &Topology {
        &self.state.topo
    }

    /// Adds a stream; its first instance starts at the current time.
    ///
    /// # Panics
    ///
    /// Panics if any compute stage references a processor outside the
    /// topology.
    pub fn add_stream(&mut self, spec: StreamSpec) -> StreamId {
        self.state.validate_stages(&spec.stages);
        let id = StreamId(self.state.streams.len());
        let track_name = if spec.label.is_empty() {
            format!("stream{}", id.0)
        } else {
            spec.label.clone()
        };
        self.state
            .trace
            .streams
            .push(self.state.tracer.register_track("soc", &track_name));
        self.state
            .streams
            .push(spec, self.sim.now(), StreamMetrics::default());
        self.sim
            .schedule(self.sim.now(), SocEvent::StreamStart { stream: id.0 });
        id
    }

    /// Replaces a stream's stage sequence, effective at its next restart
    /// (the in-flight inference finishes under the old allocation, exactly
    /// like relocating a TFLite interpreter between inferences).
    ///
    /// # Panics
    ///
    /// Panics if a stage references an unknown processor.
    pub fn update_stream(&mut self, id: StreamId, stages: impl Into<StageSeq>) {
        let stages = stages.into();
        self.state.validate_stages(&stages);
        self.state.streams.pending[id.0] = Some(stages);
    }

    /// Adds a periodic source; its first release is at the current time.
    ///
    /// # Panics
    ///
    /// Panics if any compute stage references an unknown processor.
    pub fn add_source(&mut self, spec: SourceSpec) -> SourceId {
        self.state.validate_stages(&spec.stages);
        let id = SourceId(self.state.sources.len());
        let track_name = if spec.label.is_empty() {
            format!("source{}", id.0)
        } else {
            spec.label.clone()
        };
        self.state
            .trace
            .sources
            .push(self.state.tracer.register_track("soc", &track_name));
        self.state
            .trace
            .source_counter
            .push(format!("{track_name} skipped"));
        self.state.sources.push(SourceState {
            spec,
            seq: 0,
            outstanding: Vec::new(),
            peak_outstanding: 0,
            metrics: SourceMetrics::default(),
        });
        self.sim
            .schedule(self.sim.now(), SocEvent::SourceTick { source: id.0 });
        id
    }

    /// Replaces a source's stage sequence, effective at the next release
    /// (e.g. the render load changes when objects are added or decimated).
    ///
    /// # Panics
    ///
    /// Panics if a stage references an unknown processor.
    pub fn update_source(&mut self, id: SourceId, stages: impl Into<StageSeq>) {
        let stages = stages.into();
        self.state.validate_stages(&stages);
        self.state.sources[id.0].spec.stages = stages;
    }

    /// Runs the simulation until `deadline`.
    pub fn run_until(&mut self, deadline: SimTime) {
        let SocSim { sim, state } = self;
        sim.run_until(deadline, |sched, ev| state.handle(sched, ev));
        self.emit_memory_counters();
    }

    /// High-water mark of in-flight source instances, summed over the
    /// sources.
    pub fn peak_in_flight(&self) -> usize {
        self.state.sources.iter().map(|s| s.peak_outstanding).sum()
    }

    /// Bytes retained by the per-source in-flight lists: capacity, not
    /// just live entries, so it reports what the allocator actually holds.
    pub fn in_flight_footprint_bytes(&self) -> usize {
        self.state
            .sources
            .iter()
            .map(|s| s.outstanding.capacity() * std::mem::size_of::<(u64, SimTime)>())
            .sum()
    }

    /// Streams the SoC-layer memory-accounting counters onto the `mem`
    /// track at the current time. Free when tracing is disabled.
    fn emit_memory_counters(&self) {
        let state = &self.state;
        if !state.tracer.is_enabled() {
            return;
        }
        let now = self.sim.now();
        let track = state.trace.mem_track;
        state.tracer.counter(
            now,
            track,
            "soc",
            "mem in flight bytes",
            self.in_flight_footprint_bytes() as f64,
        );
        state.tracer.counter(
            now,
            track,
            "soc",
            "mem peak in flight",
            self.peak_in_flight() as f64,
        );
    }

    /// Measurements of a stream.
    pub fn stream_metrics(&self, id: StreamId) -> &StreamMetrics {
        &self.state.streams.metrics[id.0]
    }

    /// Measurements of a source.
    pub fn source_metrics(&self, id: SourceId) -> &SourceMetrics {
        &self.state.sources[id.0].metrics
    }

    /// Snapshot of a processor's counters at the current time.
    pub fn processor_metrics(&self, id: ProcId) -> ProcessorMetrics {
        let now = self.sim.now();
        let name = self.state.topo.spec(id).name.clone();
        match &self.state.servers[id.index()] {
            ServerImpl::Fifo(s) => {
                let slots = match self.state.topo.spec(id).policy {
                    ServicePolicy::Fifo { slots } => slots as f64,
                    ServicePolicy::ProcessorSharing => 1.0,
                };
                ProcessorMetrics {
                    name,
                    completed: s.completed,
                    avg_active: s.active.average(now),
                    avg_busy: (s.active.average(now) / slots).min(1.0),
                    running_now: s.active.level() as usize,
                    queued_now: s.queue_len(),
                }
            }
            ServerImpl::Ps(s) => ProcessorMetrics {
                name,
                completed: s.completed,
                avg_active: s.active.average(now),
                avg_busy: s.busy.average(now).min(1.0),
                running_now: s.resident(),
                queued_now: 0,
            },
        }
    }
}

impl SocState {
    fn validate_stages(&self, stages: &StageSeq) {
        for stage in stages.stages() {
            if let Stage::Compute { proc, .. } = stage {
                assert!(
                    self.topo.contains(*proc),
                    "stage references unknown processor {proc}"
                );
            }
        }
    }

    fn handle(&mut self, sched: &mut Sched<'_>, ev: SocEvent) {
        match ev {
            SocEvent::StreamStart { stream } => self.start_stream_instance(sched, stream),
            SocEvent::SourceTick { source } => self.source_tick(sched, source),
            SocEvent::DelayDone { key } => self.on_stage_done(sched, key),
            SocEvent::FifoDone { proc, slot } => {
                let now = sched.now();
                let ServerImpl::Fifo(server) = &mut self.servers[proc] else {
                    unreachable!("FifoDone on a non-FIFO processor");
                };
                let (finished, next) = server.on_done(now, slot);
                let depth = server.queue_len();
                if let Some(start) = next {
                    sched.schedule_at(
                        start.done_at,
                        SocEvent::FifoDone {
                            proc,
                            slot: start.slot,
                        },
                    );
                }
                if self.tracer.is_enabled() {
                    self.tracer
                        .end(now, self.trace.fifo_slots[proc][slot], "soc");
                    if let Some(start) = next {
                        self.trace_job_begin(now, proc, start.slot, start.key);
                        self.tracer.counter(
                            now,
                            self.trace.proc_track[proc],
                            "soc",
                            &self.trace.proc_counter[proc],
                            depth as f64,
                        );
                    }
                }
                self.on_stage_done(sched, finished);
            }
            SocEvent::PsCheck { proc, generation } => {
                let now = sched.now();
                let ServerImpl::Ps(server) = &mut self.servers[proc] else {
                    unreachable!("PsCheck on a non-PS processor");
                };
                if generation != server.generation {
                    return; // stale check superseded by a membership change
                }
                let mut finished = std::mem::take(&mut self.finished_scratch);
                finished.clear();
                let next = server.on_check_into(now, &mut finished);
                let resident = server.resident();
                if let Some(t) = next {
                    let generation = server.generation;
                    sched.schedule_at(t, SocEvent::PsCheck { proc, generation });
                }
                if !finished.is_empty() && self.tracer.is_enabled() {
                    self.tracer.counter(
                        now,
                        self.trace.proc_track[proc],
                        "soc",
                        &self.trace.proc_counter[proc],
                        resident as f64,
                    );
                }
                for key in finished.drain(..) {
                    self.on_stage_done(sched, key);
                }
                self.finished_scratch = finished;
            }
        }
    }

    fn start_stream_instance(&mut self, sched: &mut Sched<'_>, stream: usize) {
        let now = sched.now();
        let st = &mut self.streams;
        debug_assert!(!st.in_flight[stream], "stream restarted while in flight");
        if let Some(stages) = st.pending[stream].take() {
            st.specs[stream].stages = stages;
        }
        st.seq[stream] += 1;
        st.started_at[stream] = now;
        st.in_flight[stream] = true;
        let key = JobKey {
            owner: Owner::Stream(StreamId(stream)),
            seq: st.seq[stream],
            stage: 0,
        };
        self.submit_stage(sched, key);
    }

    fn source_tick(&mut self, sched: &mut Sched<'_>, source: usize) {
        let now = sched.now();
        let st = &mut self.sources[source];
        sched.schedule_after(st.spec.period, SocEvent::SourceTick { source });
        if st.outstanding.len() >= st.spec.max_outstanding {
            st.metrics.skipped += 1;
            let skipped = st.metrics.skipped;
            if self.tracer.is_enabled() {
                self.tracer.counter(
                    now,
                    self.trace.sources[source],
                    "soc",
                    &self.trace.source_counter[source],
                    skipped as f64,
                );
            }
            return;
        }
        st.seq += 1;
        st.outstanding.push((st.seq, now));
        st.peak_outstanding = st.peak_outstanding.max(st.outstanding.len());
        st.metrics.released += 1;
        let key = JobKey {
            owner: Owner::Source(SourceId(source)),
            seq: st.seq,
            stage: 0,
        };
        self.submit_stage(sched, key);
    }

    fn stage_of(&self, key: JobKey) -> Option<Stage> {
        let stages = match key.owner {
            Owner::Stream(id) => self.streams.specs[id.0].stages.stages(),
            Owner::Source(id) => self.sources[id.0].spec.stages.stages(),
        };
        stages.get(key.stage).copied()
    }

    fn submit_stage(&mut self, sched: &mut Sched<'_>, key: JobKey) {
        let Some(stage) = self.stage_of(key) else {
            // The stage sequence shrank under an in-flight source job:
            // treat the instance as complete.
            self.complete_instance(sched, key);
            return;
        };
        let now = sched.now();
        match stage {
            Stage::Delay { duration } => {
                sched.schedule_after(duration, SocEvent::DelayDone { key });
            }
            Stage::Compute { proc, work } => {
                let p = proc.index();
                // Outcome of the enqueue, captured so the trace emission
                // below runs after the server borrow ends.
                enum Enqueued {
                    FifoStarted { slot: usize, key: JobKey },
                    FifoQueued { depth: usize },
                    Ps { resident: usize },
                }
                let outcome = match &mut self.servers[p] {
                    ServerImpl::Fifo(server) => {
                        if let Some(start) = server.enqueue(now, key, work) {
                            sched.schedule_at(
                                start.done_at,
                                SocEvent::FifoDone {
                                    proc: p,
                                    slot: start.slot,
                                },
                            );
                            Enqueued::FifoStarted {
                                slot: start.slot,
                                key: start.key,
                            }
                        } else {
                            Enqueued::FifoQueued {
                                depth: server.queue_len(),
                            }
                        }
                    }
                    ServerImpl::Ps(server) => {
                        if let Some(t) = server.enqueue(now, key, work) {
                            let generation = server.generation;
                            sched.schedule_at(
                                t,
                                SocEvent::PsCheck {
                                    proc: p,
                                    generation,
                                },
                            );
                        }
                        Enqueued::Ps {
                            resident: server.resident(),
                        }
                    }
                };
                match outcome {
                    Enqueued::FifoStarted { slot, key } => {
                        if self.tracer.is_enabled() {
                            self.trace_job_begin(now, p, slot, key);
                        }
                    }
                    Enqueued::FifoQueued { depth } => {
                        self.peak_queue[p] = self.peak_queue[p].max(depth);
                        if self.tracer.is_enabled() {
                            self.tracer.counter(
                                now,
                                self.trace.proc_track[p],
                                "soc",
                                &self.trace.proc_counter[p],
                                depth as f64,
                            );
                        }
                    }
                    Enqueued::Ps { resident } => {
                        if self.tracer.is_enabled() {
                            self.tracer.counter(
                                now,
                                self.trace.proc_track[p],
                                "soc",
                                &self.trace.proc_counter[p],
                                resident as f64,
                            );
                        }
                    }
                }
            }
        }
    }

    /// Name used for an owner's spans: its label, or a positional
    /// fallback. Only called when tracing is enabled.
    fn owner_name(&self, owner: Owner) -> String {
        match owner {
            Owner::Stream(id) => {
                let label = &self.streams.specs[id.0].label;
                if label.is_empty() {
                    format!("stream{}", id.0)
                } else {
                    label.clone()
                }
            }
            Owner::Source(id) => {
                let label = &self.sources[id.0].spec.label;
                if label.is_empty() {
                    format!("source{}", id.0)
                } else {
                    label.clone()
                }
            }
        }
    }

    /// Emits the begin-span for a job entering a FIFO slot.
    fn trace_job_begin(&self, now: SimTime, proc: usize, slot: usize, key: JobKey) {
        self.tracer.begin(
            now,
            self.trace.fifo_slots[proc][slot],
            "soc",
            &self.owner_name(key.owner),
            &[
                ("seq", ArgValue::U64(key.seq)),
                ("stage", ArgValue::U64(key.stage as u64)),
            ],
        );
    }

    fn on_stage_done(&mut self, sched: &mut Sched<'_>, key: JobKey) {
        let next = JobKey {
            stage: key.stage + 1,
            ..key
        };
        let has_next = match key.owner {
            Owner::Stream(id) => next.stage < self.streams.specs[id.0].stages.len(),
            Owner::Source(id) => next.stage < self.sources[id.0].spec.stages.len(),
        };
        if has_next {
            self.submit_stage(sched, next);
        } else {
            self.complete_instance(sched, key);
        }
    }

    fn complete_instance(&mut self, sched: &mut Sched<'_>, key: JobKey) {
        let now = sched.now();
        match key.owner {
            Owner::Stream(id) => {
                let st = &mut self.streams;
                debug_assert_eq!(
                    key.seq, st.seq[id.0],
                    "completion of a stale stream instance"
                );
                let started_at = st.started_at[id.0];
                let latency_ms = (now - started_at).as_millis_f64();
                st.metrics[id.0].record(now, latency_ms);
                st.in_flight[id.0] = false;
                // Rate-anchored streams aim for `start + period`; if the
                // instance overran, the next starts right away (after the
                // think-time gap), i.e. the loop skips ahead.
                let spec = &st.specs[id.0];
                let mut next = now + spec.gap;
                if let Some(period) = spec.period {
                    next = next.max(started_at + period);
                }
                if !spec.jitter.is_zero() {
                    let j = simcore::rng::mix(id.0 as u64, st.seq[id.0])
                        % spec.jitter.as_nanos().max(1);
                    next += simcore::SimDuration::from_nanos(j);
                }
                sched.schedule_at(next, SocEvent::StreamStart { stream: id.0 });
                if self.tracer.is_enabled() {
                    // One complete span per inference on the stream's own
                    // track (streams keep at most one instance in flight,
                    // so spans never overlap) — the Fig. 2 story.
                    self.tracer.complete(
                        started_at,
                        now - started_at,
                        self.trace.streams[id.0],
                        "soc",
                        &self.owner_name(key.owner),
                        &[
                            ("seq", ArgValue::U64(key.seq)),
                            ("latency_ms", ArgValue::F64(latency_ms)),
                        ],
                    );
                }
            }
            Owner::Source(id) => {
                let st = &mut self.sources[id.0];
                // A shrunken stage sequence can complete the same
                // instance through two paths; the second finds no entry
                // and is a no-op.
                if let Some(i) = st.outstanding.iter().position(|&(seq, _)| seq == key.seq) {
                    let (_, released) = st.outstanding.swap_remove(i);
                    let latency_ms = (now - released).as_millis_f64();
                    st.metrics.latency.record(latency_ms);
                    st.metrics.completions.push(now);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::topology::Topology;
    use simcore::SimDuration;

    fn ms(x: f64) -> SimDuration {
        SimDuration::from_millis_f64(x)
    }

    fn secs(x: f64) -> SimTime {
        SimTime::from_secs_f64(x)
    }

    fn topo_cgn() -> (Topology, ProcId, ProcId, ProcId) {
        let mut t = Topology::new();
        let cpu = t.add_processor("cpu", ServicePolicy::Fifo { slots: 4 });
        let gpu = t.add_processor("gpu", ServicePolicy::ProcessorSharing);
        let npu = t.add_processor("npu", ServicePolicy::Fifo { slots: 1 });
        (t, cpu, gpu, npu)
    }

    #[test]
    fn single_stream_runs_at_nominal_latency() {
        let (t, cpu, _, _) = topo_cgn();
        let mut sim = SocSim::new(t);
        let s = sim.add_stream(StreamSpec::new(
            vec![Stage::compute(cpu, ms(10.0))],
            ms(0.0),
        ));
        sim.run_until(secs(1.0));
        let m = sim.stream_metrics(s);
        assert_eq!(m.completed(), 100);
        assert!((m.latency_overall().mean() - 10.0).abs() < 1e-6);
    }

    #[test]
    fn fifo_contention_doubles_latency() {
        let (t, _, _, npu) = topo_cgn();
        let mut sim = SocSim::new(t);
        let a = sim.add_stream(StreamSpec::new(
            vec![Stage::compute(npu, ms(10.0))],
            ms(0.0),
        ));
        let b = sim.add_stream(StreamSpec::new(
            vec![Stage::compute(npu, ms(10.0))],
            ms(0.0),
        ));
        sim.run_until(secs(2.0));
        // Two back-to-back streams on a single-slot FIFO alternate: each
        // inference waits ~10 ms then runs 10 ms.
        for id in [a, b] {
            let mean = sim.stream_metrics(id).latency_overall().mean();
            assert!((mean - 20.0).abs() < 1.0, "mean = {mean}");
        }
    }

    #[test]
    fn ps_contention_shares_rate() {
        let (t, _, gpu, _) = topo_cgn();
        let mut sim = SocSim::new(t);
        let a = sim.add_stream(StreamSpec::new(
            vec![Stage::compute(gpu, ms(10.0))],
            ms(0.0),
        ));
        let b = sim.add_stream(StreamSpec::new(
            vec![Stage::compute(gpu, ms(10.0))],
            ms(0.0),
        ));
        sim.run_until(secs(2.0));
        for id in [a, b] {
            let mean = sim.stream_metrics(id).latency_overall().mean();
            assert!((mean - 20.0).abs() < 1.0, "mean = {mean}");
        }
    }

    #[test]
    fn delay_stages_do_not_contend() {
        let (t, _, _, _) = topo_cgn();
        let mut sim = SocSim::new(t);
        let a = sim.add_stream(StreamSpec::new(vec![Stage::delay(ms(5.0))], ms(0.0)));
        let b = sim.add_stream(StreamSpec::new(vec![Stage::delay(ms(5.0))], ms(0.0)));
        sim.run_until(secs(1.0));
        for id in [a, b] {
            assert!((sim.stream_metrics(id).latency_overall().mean() - 5.0).abs() < 1e-6);
        }
    }

    #[test]
    fn multi_stage_pipeline_chains() {
        let (t, cpu, gpu, npu) = topo_cgn();
        let mut sim = SocSim::new(t);
        let s = sim.add_stream(StreamSpec::new(
            vec![
                Stage::delay(ms(1.0)),
                Stage::compute(npu, ms(4.0)),
                Stage::compute(gpu, ms(3.0)),
                Stage::compute(cpu, ms(2.0)),
            ],
            ms(0.0),
        ));
        sim.run_until(secs(1.0));
        let m = sim.stream_metrics(s);
        assert!((m.latency_overall().mean() - 10.0).abs() < 1e-6);
    }

    #[test]
    fn update_stream_applies_at_restart() {
        let (t, cpu, _, npu) = topo_cgn();
        let mut sim = SocSim::new(t);
        let s = sim.add_stream(StreamSpec::new(
            vec![Stage::compute(npu, ms(10.0))],
            ms(0.0),
        ));
        sim.run_until(secs(1.0));
        sim.update_stream(s, vec![Stage::compute(cpu, ms(20.0))]);
        sim.run_until(secs(2.0));
        let m = sim.stream_metrics(s);
        // Second half should run at ~20 ms.
        let late = m.mean_since(secs(1.5)).unwrap();
        assert!((late - 20.0).abs() < 1.0, "late mean = {late}");
    }

    #[test]
    fn source_releases_periodically_and_skips_under_overload() {
        let (t, _, gpu, _) = topo_cgn();
        let mut sim = SocSim::new(t);
        // Each frame needs 50 ms of GPU but the period is 10 ms: with at
        // most 2 outstanding, most releases are skipped.
        let src = sim.add_source(SourceSpec::new(
            vec![Stage::compute(gpu, ms(50.0))],
            ms(10.0),
            2,
        ));
        sim.run_until(secs(1.0));
        let m = sim.source_metrics(src);
        assert!(m.skipped > 0, "expected skipped frames");
        assert!(m.completed() > 0);
        assert!(m.released >= m.completed());
    }

    #[test]
    fn render_load_slows_gpu_stream() {
        let (t, _, gpu, _) = topo_cgn();
        // Baseline: stream alone.
        let mut sim = SocSim::new(t.clone());
        let s = sim.add_stream(StreamSpec::new(
            vec![Stage::compute(gpu, ms(10.0))],
            ms(0.0),
        ));
        sim.run_until(secs(2.0));
        let alone = sim.stream_metrics(s).latency_overall().mean();

        // With a render source taking ~50% of the GPU.
        let mut sim = SocSim::new(t);
        let s = sim.add_stream(StreamSpec::new(
            vec![Stage::compute(gpu, ms(10.0))],
            ms(0.0),
        ));
        sim.add_source(SourceSpec::new(
            vec![Stage::compute(gpu, ms(8.0))],
            ms(16.0),
            2,
        ));
        sim.run_until(secs(2.0));
        let contended = sim.stream_metrics(s).latency_overall().mean();
        assert!(
            contended > alone * 1.3,
            "render load should slow the stream: {alone} -> {contended}"
        );
    }

    #[test]
    fn update_source_changes_render_load() {
        let (t, _, gpu, _) = topo_cgn();
        let mut sim = SocSim::new(t);
        let s = sim.add_stream(StreamSpec::new(
            vec![Stage::compute(gpu, ms(10.0))],
            ms(0.0),
        ));
        let src = sim.add_source(SourceSpec::new(
            vec![Stage::compute(gpu, ms(1.0))],
            ms(16.0),
            2,
        ));
        sim.run_until(secs(1.0));
        let light = sim.stream_metrics(s).mean_since(secs(0.5)).unwrap();
        sim.update_source(src, vec![Stage::compute(gpu, ms(12.0))]);
        sim.run_until(secs(2.0));
        let heavy = sim.stream_metrics(s).mean_since(secs(1.5)).unwrap();
        assert!(heavy > light * 1.5, "{light} -> {heavy}");
    }

    #[test]
    fn stream_gap_reduces_throughput_not_latency() {
        let (t, cpu, _, _) = topo_cgn();
        let mut sim = SocSim::new(t);
        let s = sim.add_stream(StreamSpec::new(
            vec![Stage::compute(cpu, ms(10.0))],
            ms(10.0),
        ));
        sim.run_until(secs(1.0));
        let m = sim.stream_metrics(s);
        assert_eq!(m.completed(), 50);
        assert!((m.latency_overall().mean() - 10.0).abs() < 1e-6);
    }

    #[test]
    fn processor_metrics_report_activity() {
        let (t, cpu, gpu, _) = topo_cgn();
        let mut sim = SocSim::new(t);
        sim.add_stream(StreamSpec::new(
            vec![Stage::compute(cpu, ms(10.0))],
            ms(0.0),
        ));
        sim.run_until(secs(1.0));
        let cm = sim.processor_metrics(cpu);
        assert_eq!(cm.name, "cpu");
        assert!(cm.completed >= 99);
        assert!(cm.avg_active > 0.9);
        let gm = sim.processor_metrics(gpu);
        assert_eq!(gm.completed, 0);
    }

    #[test]
    fn latency_percentiles_bracket_the_mean() {
        let (t, cpu, _, _) = topo_cgn();
        let mut sim = SocSim::new(t);
        let a = sim.add_stream(StreamSpec::new(
            vec![Stage::compute(cpu, ms(10.0))],
            ms(0.0),
        ));
        let b = sim.add_stream(StreamSpec::new(
            vec![Stage::compute(cpu, ms(10.0))],
            ms(0.0),
        ));
        sim.run_until(secs(2.0));
        for id in [a, b] {
            let m = sim.stream_metrics(id);
            let p50 = m.latency_percentile_ms(0.5).unwrap();
            let p99 = m.latency_percentile_ms(0.99).unwrap();
            assert!(p99 >= p50);
            // Log buckets are ~10% wide: p50 brackets the mean loosely.
            let mean = m.latency_overall().mean();
            assert!(
                p50 > mean * 0.5 && p50 < mean * 2.0,
                "p50 {p50} mean {mean}"
            );
        }
    }

    #[test]
    fn mean_since_filters_by_time() {
        let (t, cpu, _, _) = topo_cgn();
        let mut sim = SocSim::new(t);
        let s = sim.add_stream(StreamSpec::new(
            vec![Stage::compute(cpu, ms(10.0))],
            ms(0.0),
        ));
        sim.run_until(secs(1.0));
        let m = sim.stream_metrics(s);
        assert!(m.mean_since(secs(0.99)).is_some());
        assert!(m.mean_since(secs(2.0)).is_none());
        assert!(m.last_latency_ms().is_some());
    }

    #[test]
    #[should_panic(expected = "unknown processor")]
    fn unknown_processor_rejected() {
        let (t, _, _, _) = topo_cgn();
        let mut sim = SocSim::new(t);
        sim.add_stream(StreamSpec::new(
            vec![Stage::compute(ProcId(99), ms(1.0))],
            ms(0.0),
        ));
    }

    #[test]
    fn rate_anchored_stream_respects_period() {
        let (t, cpu, _, _) = topo_cgn();
        let mut sim = SocSim::new(t);
        let s = sim.add_stream(
            StreamSpec::new(vec![Stage::compute(cpu, ms(10.0))], ms(0.0)).with_period(ms(50.0)),
        );
        sim.run_until(secs(1.0));
        let m = sim.stream_metrics(s);
        // One instance per 50 ms, each at nominal latency.
        assert_eq!(m.completed(), 20);
        assert!((m.latency_overall().mean() - 10.0).abs() < 1e-6);
    }

    #[test]
    fn overrunning_rate_anchored_stream_skips_ahead() {
        let (t, cpu, _, _) = topo_cgn();
        let mut sim = SocSim::new(t);
        // 30 ms of work on a 20 ms period: the stream runs back-to-back.
        let s = sim.add_stream(
            StreamSpec::new(vec![Stage::compute(cpu, ms(30.0))], ms(0.0)).with_period(ms(20.0)),
        );
        sim.run_until(secs(0.9));
        let m = sim.stream_metrics(s);
        assert_eq!(m.completed(), 30);
    }

    #[test]
    fn tracer_captures_balanced_slot_spans_and_counters() {
        use simcore::trace::{ChromeTraceSink, TracePhase, Tracer};
        use std::cell::RefCell;
        use std::rc::Rc;

        let (t, _, _, npu) = topo_cgn();
        let sink = Rc::new(RefCell::new(ChromeTraceSink::new()));
        let mut sim = SocSim::new(t);
        sim.set_tracer(Tracer::with_sink(sink.clone()));
        sim.add_stream(
            StreamSpec::new(vec![Stage::compute(npu, ms(10.0))], ms(0.0)).with_label("a"),
        );
        sim.add_stream(
            StreamSpec::new(vec![Stage::compute(npu, ms(10.0))], ms(0.0)).with_label("b"),
        );
        sim.run_until(secs(0.5));
        let buf = sink.borrow().snapshot();
        assert!(!buf.records.is_empty());
        // Two contending streams on a 1-slot FIFO: queue-depth counters
        // must appear, and begin/end spans must balance per track.
        let begins = buf
            .records
            .iter()
            .filter(|r| r.phase == TracePhase::Begin)
            .count();
        let ends = buf
            .records
            .iter()
            .filter(|r| r.phase == TracePhase::End)
            .count();
        assert!(begins > 0);
        assert!(
            begins - ends <= 1,
            "at most the in-flight job may be unbalanced: {begins} begins, {ends} ends"
        );
        assert!(buf
            .records
            .iter()
            .any(|r| r.phase == TracePhase::Counter && r.name == "npu queue"));
        // Per-inference stream spans carry the stream label.
        assert!(buf
            .records
            .iter()
            .any(|r| r.phase == TracePhase::Complete && r.name == "a"));
        assert!(sim.peak_queue(npu) >= 1);
    }

    /// Instances of `id` released and not yet completed.
    fn source_in_flight(sim: &SocSim, id: SourceId) -> usize {
        sim.state.sources[id.0].outstanding.len()
    }

    #[test]
    fn shrinking_a_source_mid_run_completes_each_instance_at_most_once() {
        // A slow 3-stage source keeps two instances in flight, mostly in
        // its later stages; cutting it to one stage strands them past the
        // end of the new sequence, so they complete through the
        // shrunken-sequence path.
        let (t, cpu, gpu, _) = topo_cgn();
        let mut sim = SocSim::new(t);
        let id = sim.add_source(SourceSpec::new(
            vec![
                Stage::compute(cpu, ms(2.0)),
                Stage::compute(gpu, ms(30.0)),
                Stage::delay(ms(5.0)),
            ],
            ms(16.0),
            2,
        ));
        let check = |sim: &SocSim| {
            let m = sim.source_metrics(id);
            let in_flight = source_in_flight(sim, id);
            assert!(
                m.completed() <= m.released,
                "more completions than releases"
            );
            assert_eq!(
                m.completed() + in_flight as u64,
                m.released,
                "an instance completed twice or vanished"
            );
            assert!(
                in_flight <= 2,
                "in flight {in_flight} above max_outstanding"
            );
        };
        let mut now = 0.0;
        while now < 0.25 {
            now += 0.005;
            sim.run_until(secs(now));
            check(&sim);
        }
        assert!(
            source_in_flight(&sim, id) > 0,
            "nothing in flight at the cut"
        );
        let before = sim.source_metrics(id).completed();
        sim.update_source(id, vec![Stage::compute(cpu, ms(2.0))]);
        while now < 0.5 {
            now += 0.005;
            sim.run_until(secs(now));
            check(&sim);
        }
        let m = sim.source_metrics(id);
        assert!(m.completed() > before + 10, "the shrunken source stalled");
        assert!(sim.peak_in_flight() <= 2);
    }

    #[test]
    fn memory_accounting_tracks_in_flight_sources_and_emits_counters() {
        use simcore::trace::{ChromeTraceSink, TracePhase, Tracer};
        use std::cell::RefCell;
        use std::rc::Rc;

        let (t, _, gpu, _) = topo_cgn();
        let sink = Rc::new(RefCell::new(ChromeTraceSink::new()));
        let mut sim = SocSim::new(t);
        sim.set_tracer(Tracer::with_sink(sink.clone()));
        // max_outstanding 2 with a slow stage: the in-flight high-water
        // mark must reach the cap, and the footprint must be nonzero.
        sim.add_source(SourceSpec::new(
            vec![Stage::compute(gpu, ms(40.0))],
            ms(16.0),
            2,
        ));
        sim.run_until(secs(1.0));
        assert_eq!(sim.peak_in_flight(), 2);
        assert!(sim.in_flight_footprint_bytes() > 0);
        let buf = sink.borrow().snapshot();
        for series in ["mem in flight bytes", "mem peak in flight"] {
            assert!(
                buf.records
                    .iter()
                    .any(|r| r.phase == TracePhase::Counter && r.name == series),
                "missing '{series}' counter"
            );
        }
    }

    #[test]
    fn tracing_does_not_change_measurements() {
        use simcore::trace::{NullSink, Tracer};

        let run = |traced: bool| {
            let (t, cpu, gpu, _) = topo_cgn();
            let mut sim = SocSim::new(t);
            if traced {
                sim.set_tracer(Tracer::new(NullSink));
            }
            let s = sim.add_stream(StreamSpec::new(
                vec![Stage::compute(cpu, ms(10.0)), Stage::compute(gpu, ms(3.0))],
                ms(1.0),
            ));
            sim.add_source(SourceSpec::new(
                vec![Stage::compute(gpu, ms(8.0))],
                ms(16.0),
                2,
            ));
            sim.run_until(secs(2.0));
            let m = sim.stream_metrics(s);
            (m.completed(), m.latency_overall().mean().to_bits())
        };
        assert_eq!(run(false), run(true));
    }

    #[test]
    fn source_rate_since_measures_fps() {
        let (t, _, gpu, _) = topo_cgn();
        let mut sim = SocSim::new(t);
        let src = sim.add_source(SourceSpec::new(
            vec![Stage::compute(gpu, ms(2.0))],
            ms(10.0),
            2,
        ));
        sim.run_until(secs(2.0));
        let fps = sim.source_metrics(src).rate_since(secs(1.0), secs(2.0));
        assert!((fps - 100.0).abs() < 5.0, "fps = {fps}");
    }
}
