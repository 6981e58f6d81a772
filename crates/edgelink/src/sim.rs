//! The edge-offload discrete-event simulation: N client radios sharing
//! one wireless link profile and one edge inference server.
//!
//! # Request lifecycle
//!
//! ```text
//! Submit ─▶ uplink lane (serialize + retx) ─▶ propagation ─▶ admission
//!   ▲                                                      ├─ started/queued ─▶ lane service
//!   │                                                      └─ rejected ─▶ retry after timeout ┐
//!   │                                                                 ▲─────────────────────┘
//!   └──── next submit ◀── delivery ◀── propagation ◀── downlink lane ◀── inference done
//! ```
//!
//! Each client is closed-loop and rate-anchored exactly like the on-device
//! AI streams in [`soc::SocSim`]: the next submission fires at
//! `max(now + gap, started + period) + jitter`, so an overloaded edge
//! slows a client down rather than building an unbounded request backlog.
//!
//! Delivery is FIFO per flow despite jitter: a transfer's delivery time is
//! clamped to be no earlier than the flow's previous delivery (link-layer
//! in-order delivery), which the property tests pin.

use simcore::arena::{Arena, Handle};
use simcore::rng::mix;
use simcore::stats::{LogHistogram, Running};
use simcore::trace::{ArgValue, Tracer, TrackId};
use simcore::{Scheduler, SimDuration, SimTime, Simulator};

use crate::link::{plan_transfer, ByteCounters, Direction, LinkParams};
use crate::medium::{Completion, Medium, Mobility, SharedCell};
use crate::server::{Admission, EdgeServer, ServerParams};

/// One offloading client: how much it ships per request and how often it
/// asks.
#[derive(Debug, Clone, PartialEq)]
pub struct ClientSpec {
    /// Label for reports.
    pub label: String,
    /// Request payload (input tensors), in bytes.
    pub request_bytes: u64,
    /// Response payload (detections / masks), in bytes.
    pub response_bytes: u64,
    /// Inference time on one edge lane, in milliseconds.
    pub infer_ms: f64,
    /// Think time between a delivery and the next submission, in ms.
    pub gap_ms: f64,
    /// Rate anchor: target start-to-start period, in ms.
    pub period_ms: f64,
    /// Maximum deterministic start jitter, in ms.
    pub jitter_ms: f64,
}

impl ClientSpec {
    /// A typical MAR offload client: 64 KiB up (a compressed frame
    /// region), 4 KiB down, 10 Hz, 8 ms edge inference.
    pub fn mar_default(label: impl Into<String>) -> Self {
        ClientSpec {
            label: label.into(),
            request_bytes: 64 * 1024,
            response_bytes: 4 * 1024,
            infer_ms: 8.0,
            gap_ms: 2.0,
            period_ms: 100.0,
            jitter_ms: 5.0,
        }
    }
}

/// Measured behavior of one client's offload flow.
#[derive(Debug, Clone)]
pub struct FlowMetrics {
    samples: Vec<(SimTime, f64)>,
    overall: Running,
    histogram: LogHistogram,
    /// Uplink byte accounting.
    pub uplink: ByteCounters,
    /// Downlink byte accounting.
    pub downlink: ByteCounters,
    /// Admission rejections this flow absorbed (each costs one retry
    /// timeout).
    pub rejections: u64,
    /// Link-layer retransmissions across both directions (attempts
    /// beyond the first per transfer).
    pub retransmits: u64,
}

impl Default for FlowMetrics {
    fn default() -> Self {
        FlowMetrics {
            samples: Vec::new(),
            overall: Running::new(),
            // 0.1 ms .. ~1.7 s in 10% steps, matching soc::StreamMetrics.
            histogram: LogHistogram::new(0.1, 1.1, 102),
            uplink: ByteCounters::default(),
            downlink: ByteCounters::default(),
            rejections: 0,
            retransmits: 0,
        }
    }
}

impl FlowMetrics {
    /// Completed round trips.
    pub fn completed(&self) -> u64 {
        self.overall.count()
    }

    /// End-to-end latency statistics in milliseconds.
    pub fn latency_overall(&self) -> &Running {
        &self.overall
    }

    /// Full `(delivery time, latency ms)` trace, oldest first.
    pub fn samples(&self) -> &[(SimTime, f64)] {
        &self.samples
    }

    /// Mean latency (ms) of deliveries at or after `since`.
    pub fn mean_since(&self, since: SimTime) -> Option<f64> {
        let idx = self.samples.partition_point(|&(t, _)| t < since);
        let tail = &self.samples[idx..];
        if tail.is_empty() {
            return None;
        }
        Some(tail.iter().map(|&(_, l)| l).sum::<f64>() / tail.len() as f64)
    }

    /// Approximate latency percentile in ms (log-bucketed).
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

/// Identity of one in-flight request: `(client, seq, token)`. `seq` is
/// the monotone per-flow counter — link randomness and trace args key
/// off it — while `token` is the raw arena handle of the request's
/// pooled submission record.
type ReqKey = (usize, u64, u64);

#[derive(Debug, Clone, Copy)]
enum Ev {
    /// Client submits its next request to its uplink lane.
    Submit { client: usize },
    /// A transfer finished serializing on a radio lane.
    LaneDone {
        client: usize,
        dir: Direction,
        slot: usize,
    },
    /// A transfer's propagation ended: it reaches the far end.
    Arrived {
        client: usize,
        dir: Direction,
        seq: u64,
        token: u64,
    },
    /// An edge worker lane finished an inference.
    ServerDone { slot: usize },
    /// A rejected request retries admission.
    AdmissionRetry { client: usize, seq: u64, token: u64 },
    /// The shared medium's next internal deadline (generation-guarded;
    /// stale generations are ignored).
    MediumWake { gen: u64 },
}

/// A client's private serializer pair — soc's FIFO machinery reused as a
/// radio, keyed by `(seq, token)`. Boxed inside [`Radio`] so shared-mode
/// clients don't carry lanes they never use.
#[derive(Debug)]
struct PrivateRadio {
    /// 1-slot uplink serializer.
    uplink: soc::FifoServer<(u64, u64)>,
    /// 1-slot downlink serializer.
    downlink: soc::FifoServer<(u64, u64)>,
}

/// How a client reaches the edge: its own serializer pair (the original
/// model) or an attachment to the contended [`Medium`].
#[derive(Debug)]
enum Radio {
    /// Private per-client radios; transfers never contend with other
    /// clients for airtime.
    Private(Box<PrivateRadio>),
    /// Attached to the shared medium as client id `attach`.
    Shared { attach: usize },
}

/// One client's radio + flow state.
#[derive(Debug)]
struct ClientState {
    spec: ClientSpec,
    radio: Radio,
    /// In-order delivery clamps, per direction.
    last_up_delivery: SimTime,
    last_down_delivery: SimTime,
    /// Submission times of in-flight requests, pooled: slots recycle
    /// through the arena free list, so steady-state submissions allocate
    /// nothing. The raw handle rides in event payloads as `token`.
    submitted: Arena<SimTime>,
    /// Start time of the latest submission (rate anchor).
    started_at: SimTime,
    seq: u64,
    /// Highest sequence number delivered back so far (FIFO invariant).
    last_delivered_seq: u64,
    metrics: FlowMetrics,
}

/// Trace track ids for the edge world. All zeros when tracing is
/// disabled.
#[derive(Debug, Default)]
struct EdgeTraceIds {
    /// Per client: uplink radio-lane span track.
    up: Vec<TrackId>,
    /// Per client: downlink radio-lane span track.
    down: Vec<TrackId>,
    /// Per server worker lane: inference span track.
    lanes: Vec<TrackId>,
    /// Track carrying the admission-queue and rejection counters.
    server_track: TrackId,
    /// Track carrying the shared cell's utilization and active-flow
    /// counters (shared mode only).
    cell_track: TrackId,
    /// Track carrying the world's memory-accounting counters.
    mem_track: TrackId,
}

/// The whole edge world state (everything but the event queue).
#[derive(Debug)]
struct EdgeState {
    link: LinkParams,
    server: EdgeServer<ReqKey>,
    clients: Vec<ClientState>,
    /// The contended cell, when the clients run shared radios.
    medium: Option<Medium<ReqKey>>,
    /// Completion buffer [`Medium::advance`] fills on each wake, reused
    /// across wakes.
    medium_done: Vec<Completion<ReqKey>>,
    master_seed: u64,
    /// Peak admission-queue depth observed so far.
    peak_queue: usize,
    tracer: Tracer,
    trace: EdgeTraceIds,
}

/// The multi-client edge-offload simulator.
#[derive(Debug)]
pub struct EdgeSim {
    sim: Simulator<Ev>,
    state: EdgeState,
}

type Sched<'a> = Scheduler<'a, Ev>;

impl EdgeSim {
    /// Builds the world: every client submits its first request at time
    /// zero plus its deterministic jitter.
    ///
    /// # Panics
    ///
    /// Panics if the link params are invalid, the server has no lanes, or
    /// `clients` is empty.
    pub fn new(
        link: LinkParams,
        server: ServerParams,
        clients: Vec<ClientSpec>,
        master_seed: u64,
    ) -> Self {
        Self::new_traced(link, server, clients, master_seed, Tracer::disabled())
    }

    /// Like [`EdgeSim::new`], but with a tracer: each client's uplink and
    /// downlink radio and each edge worker lane get their own span track;
    /// the admission queue and rejections are traced as counters.
    ///
    /// # Panics
    ///
    /// Same conditions as [`EdgeSim::new`].
    pub fn new_traced(
        link: LinkParams,
        server: ServerParams,
        clients: Vec<ClientSpec>,
        master_seed: u64,
        tracer: Tracer,
    ) -> Self {
        Self::build(link, server, None, clients, master_seed, tracer)
    }

    /// Builds a world whose clients share one contended cell instead of
    /// private radios: transfers fair-share the cell capacity under
    /// distance-dependent per-client rate caps (clients park at
    /// seed-drawn distances inside `cell.radius_m`). Everything else —
    /// loss/retransmission, propagation jitter, in-order delivery, the
    /// admission queue — behaves exactly as in the private model.
    ///
    /// # Panics
    ///
    /// Same conditions as [`EdgeSim::new`], plus invalid cell params.
    pub fn new_shared_traced(
        link: LinkParams,
        server: ServerParams,
        cell: SharedCell,
        clients: Vec<ClientSpec>,
        master_seed: u64,
        tracer: Tracer,
    ) -> Self {
        Self::build(link, server, Some(cell), clients, master_seed, tracer)
    }

    fn build(
        link: LinkParams,
        server: ServerParams,
        shared: Option<SharedCell>,
        clients: Vec<ClientSpec>,
        master_seed: u64,
        tracer: Tracer,
    ) -> Self {
        link.validate();
        assert!(!clients.is_empty(), "need at least one client");
        let mut sim = Simulator::new();
        let start = sim.now();
        let mut medium = shared.map(|cell| Medium::new(cell.medium_params()));
        let states: Vec<ClientState> = clients
            .into_iter()
            .enumerate()
            .map(|(i, spec)| {
                let radio = match (&mut medium, shared) {
                    (Some(m), Some(cell)) => Radio::Shared {
                        attach: m.add_client(
                            start,
                            Mobility::Fixed {
                                x_m: cell.client_distance_m(master_seed, i),
                                y_m: 0.0,
                            },
                        ),
                    },
                    _ => Radio::Private(Box::new(PrivateRadio {
                        uplink: soc::FifoServer::new(1, start),
                        downlink: soc::FifoServer::new(1, start),
                    })),
                };
                ClientState {
                    spec,
                    radio,
                    last_up_delivery: start,
                    last_down_delivery: start,
                    submitted: Arena::new(),
                    started_at: start,
                    seq: 0,
                    last_delivered_seq: 0,
                    metrics: FlowMetrics::default(),
                }
            })
            .collect();
        let mut trace = EdgeTraceIds::default();
        for st in &states {
            trace
                .up
                .push(tracer.register_track("edgelink", &format!("{} up", st.spec.label)));
            trace
                .down
                .push(tracer.register_track("edgelink", &format!("{} down", st.spec.label)));
        }
        for lane in 0..server.worker_lanes {
            trace
                .lanes
                .push(tracer.register_track("edgelink", &format!("edge lane{lane}")));
        }
        trace.server_track = tracer.register_track("edgelink", "edge admission");
        if medium.is_some() {
            trace.cell_track = tracer.register_track("edgelink", "cell");
        }
        trace.mem_track = tracer.register_track("edgelink", "mem");
        for (client, st) in states.iter().enumerate() {
            let jitter = jitter_ns(master_seed, client, 0, st.spec.jitter_ms);
            sim.schedule(
                start + SimDuration::from_nanos(jitter),
                Ev::Submit { client },
            );
        }
        EdgeSim {
            sim,
            state: EdgeState {
                link,
                server: EdgeServer::new(server, start),
                clients: states,
                medium,
                medium_done: Vec::new(),
                master_seed,
                peak_queue: 0,
                tracer,
                trace,
            },
        }
    }

    /// Current simulated time.
    pub fn now(&self) -> SimTime {
        self.sim.now()
    }

    /// Runs the simulation until `deadline`.
    pub fn run_until(&mut self, deadline: SimTime) {
        let EdgeSim { sim, state } = self;
        sim.run_until(deadline, |sched, ev| state.handle(sched, ev));
        self.emit_memory_counters();
    }

    /// Reports the world's memory footprint as counter samples on the
    /// `mem` track: per-client state (including each client's in-flight
    /// arena at its reserved capacity), the peak in-flight count across
    /// all arenas, queue bytes at peak depth, and the shared medium's
    /// footprint. No-op when tracing is disabled, so untraced runs stay
    /// bit-identical.
    fn emit_memory_counters(&self) {
        use std::mem::size_of;
        let state = &self.state;
        if !state.tracer.is_enabled() {
            return;
        }
        let now = self.sim.now();
        let track = state.trace.mem_track;
        let client_bytes = state.clients.len() * size_of::<ClientState>()
            + state
                .clients
                .iter()
                .map(|c| c.submitted.footprint_bytes())
                .sum::<usize>();
        state.tracer.counter(
            now,
            track,
            "edgelink",
            "mem client bytes",
            client_bytes as f64,
        );
        let peak_in_flight: usize = state.clients.iter().map(|c| c.submitted.peak_live()).sum();
        state.tracer.counter(
            now,
            track,
            "edgelink",
            "mem peak in flight",
            peak_in_flight as f64,
        );
        state.tracer.counter(
            now,
            track,
            "edgelink",
            "mem peak queue bytes",
            (state.peak_queue * (size_of::<ReqKey>() + size_of::<SimDuration>())) as f64,
        );
        if let Some(m) = &state.medium {
            state.tracer.counter(
                now,
                track,
                "edgelink",
                "mem medium bytes",
                m.footprint_bytes() as f64,
            );
            state.tracer.counter(
                now,
                track,
                "edgelink",
                "medium reallocs",
                m.reallocs() as f64,
            );
        }
    }

    /// Advances the simulation by `secs` simulated seconds.
    pub fn run_for_secs(&mut self, secs: f64) {
        let deadline = self.sim.now() + SimDuration::from_secs_f64(secs);
        self.run_until(deadline);
    }

    /// Runs until every in-flight request has been delivered (no pending
    /// events means every closed loop is quiescent, which only happens if
    /// submission is stopped — used by the byte-conservation tests via a
    /// far deadline after which flows are idle).
    pub fn drain_until(&mut self, deadline: SimTime) {
        self.run_until(deadline);
    }

    /// Number of clients.
    pub fn client_count(&self) -> usize {
        self.state.clients.len()
    }

    /// Flow measurements of one client.
    pub fn metrics(&self, client: usize) -> &FlowMetrics {
        &self.state.clients[client].metrics
    }

    /// Edge-server counters: `(admitted, rejected, completed)`.
    pub fn server_counters(&self) -> (u64, u64, u64) {
        (
            self.state.server.admitted,
            self.state.server.rejected,
            self.state.server.completed(),
        )
    }

    /// Time-weighted average busy edge lanes so far.
    pub fn avg_busy_lanes(&self) -> f64 {
        self.state.server.avg_busy_lanes(self.sim.now())
    }

    /// Requests currently in flight (submitted, not yet delivered),
    /// across all clients.
    pub fn in_flight(&self) -> usize {
        self.state.clients.iter().map(|c| c.submitted.live()).sum()
    }

    /// Peak admission-queue depth observed so far.
    pub fn peak_queue(&self) -> usize {
        self.state.peak_queue
    }

    /// Total link-layer retransmissions across all flows and both
    /// directions.
    pub fn total_retransmits(&self) -> u64 {
        self.state
            .clients
            .iter()
            .map(|c| c.metrics.retransmits)
            .sum()
    }

    /// Total mid-session handovers (always 0 with private radios).
    pub fn handovers(&self) -> u64 {
        self.state.medium.as_ref().map_or(0, |m| m.handovers())
    }

    /// Total shared-medium allocation re-solves (always 0 with private
    /// radios).
    pub fn medium_reallocs(&self) -> u64 {
        self.state.medium.as_ref().map_or(0, |m| m.reallocs())
    }

    /// The shared medium, when the clients run on one.
    pub fn medium(&self) -> Option<&Medium<ReqKey>> {
        self.state.medium.as_ref()
    }
}

/// Deterministic jitter draw in nanoseconds for `(client, seq)`.
fn jitter_ns(master_seed: u64, client: usize, seq: u64, jitter_ms: f64) -> u64 {
    if jitter_ms <= 0.0 {
        return 0;
    }
    let span = SimDuration::from_millis_f64(jitter_ms).as_nanos().max(1);
    mix(mix(master_seed, 0x5EED_0001 ^ client as u64), seq) % span
}

impl EdgeState {
    /// Per-flow seed for link randomness in `dir`.
    fn flow_seed(&self, client: usize, dir: Direction) -> u64 {
        let tag = match dir {
            Direction::Up => 0x5EED_0002u64,
            Direction::Down => 0x5EED_0003u64,
        };
        mix(mix(self.master_seed, tag), client as u64)
    }

    fn handle(&mut self, sched: &mut Sched<'_>, ev: Ev) {
        match ev {
            Ev::Submit { client } => self.submit(sched, client),
            Ev::LaneDone { client, dir, slot } => self.lane_done(sched, client, dir, slot),
            Ev::Arrived {
                client,
                dir,
                seq,
                token,
            } => match dir {
                Direction::Up => self.request_arrived(sched, client, seq, token),
                Direction::Down => self.response_delivered(sched, client, seq, token),
            },
            Ev::ServerDone { slot } => self.server_done(sched, slot),
            Ev::AdmissionRetry { client, seq, token } => {
                self.offer_to_server(sched, client, seq, token)
            }
            Ev::MediumWake { gen } => self.medium_wake(sched, gen),
        }
    }

    /// A client submits request `seq`: the uplink lane serializes it.
    fn submit(&mut self, sched: &mut Sched<'_>, client: usize) {
        let now = sched.now();
        let flow_seed = self.flow_seed(client, Direction::Up);
        let st = &mut self.clients[client];
        st.seq += 1;
        let seq = st.seq;
        st.started_at = now;
        let token = st.submitted.alloc(now).to_raw();
        st.metrics.uplink.offered += st.spec.request_bytes;
        let plan = plan_transfer(
            &self.link,
            Direction::Up,
            st.spec.request_bytes,
            flow_seed,
            seq,
        );
        match &mut st.radio {
            Radio::Private(radio) => {
                let started = radio.uplink.enqueue(now, (seq, token), plan.occupancy);
                if let Some(start) = started {
                    sched.schedule_at(
                        start.done_at,
                        Ev::LaneDone {
                            client,
                            dir: Direction::Up,
                            slot: start.slot,
                        },
                    );
                }
                if started.is_some() && self.tracer.is_enabled() {
                    self.trace_lane_begin(now, client, Direction::Up, seq);
                }
            }
            Radio::Shared { attach } => {
                let attach = *attach;
                let bytes = plan.attempts as u64 * st.spec.request_bytes;
                self.start_shared_flow(sched, attach, Direction::Up, bytes, (client, seq, token));
            }
        }
    }

    /// Puts `bytes` of airtime (payload × attempts) on the shared medium
    /// and refreshes the generation-guarded wake-up.
    fn start_shared_flow(
        &mut self,
        sched: &mut Sched<'_>,
        attach: usize,
        dir: Direction,
        bytes: u64,
        key: ReqKey,
    ) {
        let now = sched.now();
        let medium = self.medium.as_mut().expect("shared radio without a medium");
        medium.start_flow(now, attach, dir, bytes as f64, key);
        self.trace_cell(now);
        self.reschedule_wake(sched);
    }

    /// Schedules the one logical wake-up at the medium's next internal
    /// deadline, stamped with the current generation. Earlier wake events
    /// still in the queue become stale and are ignored on arrival.
    fn reschedule_wake(&mut self, sched: &mut Sched<'_>) {
        if let Some(m) = &self.medium {
            if let Some(t) = m.next_deadline() {
                sched.schedule_at(t.max(sched.now()), Ev::MediumWake { gen: m.wake_gen() });
            }
        }
    }

    /// The medium hit an internal deadline: advance it and hand finished
    /// transfers to the same post-serialization path the private lanes
    /// use.
    fn medium_wake(&mut self, sched: &mut Sched<'_>, gen: u64) {
        let now = sched.now();
        let m = self.medium.as_mut().expect("medium wake without a medium");
        if gen != m.wake_gen() {
            return;
        }
        let mut done = std::mem::take(&mut self.medium_done);
        m.advance(now, &mut done);
        for c in done.drain(..) {
            let (client, seq, token) = c.key;
            self.transfer_done(sched, client, c.dir, seq, token);
        }
        self.medium_done = done;
        self.trace_cell(now);
        self.reschedule_wake(sched);
    }

    /// Emits the shared cell's utilization and active-flow counters. No-op
    /// when tracing is disabled or the world runs private radios.
    fn trace_cell(&self, now: SimTime) {
        if !self.tracer.is_enabled() {
            return;
        }
        let Some(m) = &self.medium else { return };
        for (dir, util_name, flows_name) in [
            (Direction::Up, "cell up mbps", "cell up flows"),
            (Direction::Down, "cell down mbps", "cell down flows"),
        ] {
            self.tracer.counter(
                now,
                self.trace.cell_track,
                "edgelink",
                util_name,
                m.allocated_mbps(0, dir),
            );
            self.tracer.counter(
                now,
                self.trace.cell_track,
                "edgelink",
                flows_name,
                m.active_flows(0, dir) as f64,
            );
        }
    }

    /// A shared-medium transfer finished its airtime: account transmitted
    /// bytes and retransmissions, then schedule the in-order arrival
    /// (mirrors the tail of [`EdgeState::lane_done`]).
    fn transfer_done(
        &mut self,
        sched: &mut Sched<'_>,
        client: usize,
        dir: Direction,
        seq: u64,
        token: u64,
    ) {
        let now = sched.now();
        let flow_seed = self.flow_seed(client, dir);
        let st = &mut self.clients[client];
        let bytes = match dir {
            Direction::Up => st.spec.request_bytes,
            Direction::Down => st.spec.response_bytes,
        };
        let plan = plan_transfer(&self.link, dir, bytes, flow_seed, seq);
        let counters = match dir {
            Direction::Up => &mut st.metrics.uplink,
            Direction::Down => &mut st.metrics.downlink,
        };
        counters.transmitted += plan.attempts as u64 * bytes;
        if plan.attempts > 1 {
            st.metrics.retransmits += plan.attempts as u64 - 1;
        }
        let last = match dir {
            Direction::Up => &mut st.last_up_delivery,
            Direction::Down => &mut st.last_down_delivery,
        };
        let arrive = (now + plan.propagation).max(*last);
        *last = arrive;
        sched.schedule_at(
            arrive,
            Ev::Arrived {
                client,
                dir,
                seq,
                token,
            },
        );
    }

    /// A radio lane finished serializing: account the airtime, schedule
    /// the in-order arrival, and start the next queued transfer.
    fn lane_done(&mut self, sched: &mut Sched<'_>, client: usize, dir: Direction, slot: usize) {
        let now = sched.now();
        let flow_seed = self.flow_seed(client, dir);
        let st = &mut self.clients[client];
        let Radio::Private(radio) = &mut st.radio else {
            unreachable!("lane event on a shared radio");
        };
        let (bytes, lane) = match dir {
            Direction::Up => (st.spec.request_bytes, &mut radio.uplink),
            Direction::Down => (st.spec.response_bytes, &mut radio.downlink),
        };
        let ((seq, token), next) = lane.on_done(now, slot);
        if let Some(start) = next {
            sched.schedule_at(
                start.done_at,
                Ev::LaneDone {
                    client,
                    dir,
                    slot: start.slot,
                },
            );
        }
        // Re-derive the (pure) plan to account transmitted bytes and the
        // propagation of this exact transfer.
        let plan = plan_transfer(&self.link, dir, bytes, flow_seed, seq);
        let counters = match dir {
            Direction::Up => &mut st.metrics.uplink,
            Direction::Down => &mut st.metrics.downlink,
        };
        counters.transmitted += plan.attempts as u64 * bytes;
        if plan.attempts > 1 {
            st.metrics.retransmits += plan.attempts as u64 - 1;
        }
        let last = match dir {
            Direction::Up => &mut st.last_up_delivery,
            Direction::Down => &mut st.last_down_delivery,
        };
        // FIFO per flow despite jitter: never deliver before an earlier
        // transfer of the same flow.
        let arrive = (now + plan.propagation).max(*last);
        *last = arrive;
        sched.schedule_at(
            arrive,
            Ev::Arrived {
                client,
                dir,
                seq,
                token,
            },
        );
        if self.tracer.is_enabled() {
            let track = match dir {
                Direction::Up => self.trace.up[client],
                Direction::Down => self.trace.down[client],
            };
            self.tracer.end(now, track, "edgelink");
            if let Some(start) = next {
                self.trace_lane_begin(now, client, dir, start.key.0);
            }
        }
    }

    /// Emits the begin-span for a transfer occupying a radio lane,
    /// re-deriving its (pure) plan for the retransmit-attempt argument.
    /// Only called when tracing is enabled.
    fn trace_lane_begin(&self, now: SimTime, client: usize, dir: Direction, seq: u64) {
        let st = &self.clients[client];
        let (bytes, track, name) = match dir {
            Direction::Up => (st.spec.request_bytes, self.trace.up[client], "up"),
            Direction::Down => (st.spec.response_bytes, self.trace.down[client], "down"),
        };
        let plan = plan_transfer(&self.link, dir, bytes, self.flow_seed(client, dir), seq);
        self.tracer.begin(
            now,
            track,
            "edgelink",
            name,
            &[
                ("seq", ArgValue::U64(seq)),
                ("bytes", ArgValue::U64(bytes)),
                ("attempts", ArgValue::U64(plan.attempts as u64)),
            ],
        );
    }

    /// A request reached the edge: offer it to the admission queue.
    fn request_arrived(&mut self, sched: &mut Sched<'_>, client: usize, seq: u64, token: u64) {
        self.clients[client].metrics.uplink.delivered += self.clients[client].spec.request_bytes;
        self.offer_to_server(sched, client, seq, token);
    }

    fn offer_to_server(&mut self, sched: &mut Sched<'_>, client: usize, seq: u64, token: u64) {
        let now = sched.now();
        let work = SimDuration::from_millis_f64(self.clients[client].spec.infer_ms);
        let admission = self.server.try_admit(now, (client, seq, token), work);
        match admission {
            Admission::Started(start) => {
                sched.schedule_at(start.done_at, Ev::ServerDone { slot: start.slot });
                if self.tracer.is_enabled() {
                    self.trace_server_begin(now, start.slot, start.key);
                }
            }
            Admission::Queued => {
                let depth = self.server.queue_len();
                self.peak_queue = self.peak_queue.max(depth);
                if self.tracer.is_enabled() {
                    self.tracer.counter(
                        now,
                        self.trace.server_track,
                        "edgelink",
                        "edge queue",
                        depth as f64,
                    );
                }
            }
            Admission::Rejected => {
                self.clients[client].metrics.rejections += 1;
                // The NACK + client backoff collapse into one retry
                // timeout, which rate-bounds re-offers.
                sched.schedule_after(
                    SimDuration::from_millis_f64(self.link.retx_timeout_ms.max(0.5)),
                    Ev::AdmissionRetry { client, seq, token },
                );
                if self.tracer.is_enabled() {
                    self.tracer.counter(
                        now,
                        self.trace.server_track,
                        "edgelink",
                        "edge rejected",
                        self.server.rejected as f64,
                    );
                }
            }
        }
    }

    /// Emits the begin-span for a request entering an edge worker lane.
    /// Only called when tracing is enabled.
    fn trace_server_begin(&self, now: SimTime, slot: usize, key: ReqKey) {
        let (client, seq, _token) = key;
        self.tracer.begin(
            now,
            self.trace.lanes[slot],
            "edgelink",
            &self.clients[client].spec.label,
            &[("seq", ArgValue::U64(seq))],
        );
    }

    /// An edge lane finished: ship the response down.
    fn server_done(&mut self, sched: &mut Sched<'_>, slot: usize) {
        let now = sched.now();
        let ((client, seq, token), next) = self.server.on_done(now, slot);
        let depth = self.server.queue_len();
        if let Some(start) = next {
            sched.schedule_at(start.done_at, Ev::ServerDone { slot: start.slot });
        }
        if self.tracer.is_enabled() {
            self.tracer.end(now, self.trace.lanes[slot], "edgelink");
            if let Some(start) = next {
                self.trace_server_begin(now, start.slot, start.key);
                self.tracer.counter(
                    now,
                    self.trace.server_track,
                    "edgelink",
                    "edge queue",
                    depth as f64,
                );
            }
        }
        let flow_seed = self.flow_seed(client, Direction::Down);
        let st = &mut self.clients[client];
        st.metrics.downlink.offered += st.spec.response_bytes;
        let plan = plan_transfer(
            &self.link,
            Direction::Down,
            st.spec.response_bytes,
            flow_seed,
            seq,
        );
        match &mut st.radio {
            Radio::Private(radio) => {
                let started = radio.downlink.enqueue(now, (seq, token), plan.occupancy);
                if let Some(start) = started {
                    sched.schedule_at(
                        start.done_at,
                        Ev::LaneDone {
                            client,
                            dir: Direction::Down,
                            slot: start.slot,
                        },
                    );
                }
                if started.is_some() && self.tracer.is_enabled() {
                    self.trace_lane_begin(now, client, Direction::Down, seq);
                }
            }
            Radio::Shared { attach } => {
                let attach = *attach;
                let bytes = plan.attempts as u64 * st.spec.response_bytes;
                self.start_shared_flow(sched, attach, Direction::Down, bytes, (client, seq, token));
            }
        }
    }

    /// The response reached the client: the round trip is complete; the
    /// closed loop schedules the next submission.
    fn response_delivered(&mut self, sched: &mut Sched<'_>, client: usize, seq: u64, token: u64) {
        let now = sched.now();
        let master_seed = self.master_seed;
        let st = &mut self.clients[client];
        st.metrics.downlink.delivered += st.spec.response_bytes;
        let submitted = st
            .submitted
            .try_free(Handle::from_raw(token))
            .expect("delivery of an unknown request");
        assert!(
            seq > st.last_delivered_seq,
            "flow {client} delivered seq {seq} after {}",
            st.last_delivered_seq
        );
        st.last_delivered_seq = seq;
        let latency_ms = (now - submitted).as_millis_f64();
        st.metrics.record(now, latency_ms);
        if self.tracer.is_enabled() {
            self.tracer.instant(
                now,
                self.trace.down[client],
                "edgelink",
                "delivered",
                &[
                    ("seq", ArgValue::U64(seq)),
                    ("latency_ms", ArgValue::F64(latency_ms)),
                ],
            );
        }
        let st = &mut self.clients[client];
        // Rate-anchored next submission, as in soc streams.
        let mut next = now + SimDuration::from_millis_f64(st.spec.gap_ms);
        next = next.max(st.started_at + SimDuration::from_millis_f64(st.spec.period_ms));
        next += SimDuration::from_nanos(jitter_ns(master_seed, client, seq, st.spec.jitter_ms));
        sched.schedule_at(next, Ev::Submit { client });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quiet_link() -> LinkParams {
        LinkParams {
            loss_prob: 0.0,
            jitter_sigma: 0.0,
            ..LinkParams::wifi()
        }
    }

    fn clients(n: usize) -> Vec<ClientSpec> {
        (0..n)
            .map(|i| ClientSpec::mar_default(format!("c{i}")))
            .collect()
    }

    #[test]
    fn single_client_latency_matches_unloaded_estimate() {
        let link = quiet_link();
        let spec = ClientSpec::mar_default("solo");
        let estimate =
            link.unloaded_offload_ms(spec.request_bytes, spec.response_bytes, spec.infer_ms);
        let mut sim = EdgeSim::new(link, ServerParams::small(), vec![spec], 1);
        sim.run_for_secs(10.0);
        let m = sim.metrics(0);
        assert!(m.completed() > 50);
        // No contention, no loss, no jitter: measured == estimate.
        assert!(
            (m.latency_overall().mean() - estimate).abs() < 1e-6,
            "measured {} vs estimate {estimate}",
            m.latency_overall().mean()
        );
    }

    #[test]
    fn contention_raises_latency_with_client_count() {
        // One edge lane, increasingly many clients: mean latency must rise.
        let server = ServerParams {
            worker_lanes: 1,
            queue_capacity: 16,
        };
        let mut means = Vec::new();
        for n in [1usize, 4, 8] {
            let mut sim = EdgeSim::new(quiet_link(), server, clients(n), 2);
            sim.run_for_secs(20.0);
            let mean = (0..n)
                .map(|c| sim.metrics(c).latency_overall().mean())
                .sum::<f64>()
                / n as f64;
            means.push(mean);
        }
        assert!(
            means[0] < means[1] && means[1] < means[2],
            "means = {means:?}"
        );
    }

    #[test]
    fn rejections_fire_when_the_queue_is_tiny() {
        let server = ServerParams {
            worker_lanes: 1,
            queue_capacity: 0,
        };
        let mut specs = clients(6);
        for s in &mut specs {
            s.infer_ms = 60.0; // server-bound: 6 clients × 10 Hz × 60 ms ≫ 1 lane
            s.period_ms = 50.0;
        }
        let mut sim = EdgeSim::new(quiet_link(), server, specs, 3);
        sim.run_for_secs(10.0);
        let (_, rejected, _) = sim.server_counters();
        assert!(rejected > 0, "expected rejections under overload");
        // Rejected requests are retried, not lost: everything still
        // completes eventually (closed loop keeps in_flight ≤ 1/client).
        assert!(sim.in_flight() <= 6);
        for c in 0..6 {
            assert!(sim.metrics(c).completed() > 0);
        }
    }

    #[test]
    fn tracer_captures_radio_and_server_lane_spans() {
        use simcore::trace::{ChromeTraceSink, TracePhase, Tracer};
        use std::cell::RefCell;
        use std::rc::Rc;

        let mut link = LinkParams::wifi();
        link.loss_prob = 0.3; // force retransmissions
        let sink = Rc::new(RefCell::new(ChromeTraceSink::new()));
        let mut sim = EdgeSim::new_traced(
            link,
            ServerParams::small(),
            clients(2),
            11,
            Tracer::with_sink(sink.clone()),
        );
        sim.run_for_secs(5.0);
        let buf = sink.borrow().snapshot();
        // Tracks: per client up/down, per lane, plus the admission and
        // memory-accounting tracks.
        assert_eq!(buf.tracks.len(), 2 * 2 + 2 + 1 + 1);
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
        assert!(begins >= ends && begins - ends <= buf.tracks.len());
        // With 30% loss some transfer must carry a retransmit attempt.
        let has_retx = buf.records.iter().any(|r| {
            r.args
                .iter()
                .any(|(k, v)| *k == "attempts" && matches!(v, ArgValue::U64(n) if *n > 1))
        });
        assert!(has_retx, "expected at least one attempts>1 span");
        assert!(sim.total_retransmits() > 0);
        // Delivery instants carry the measured latency.
        assert!(buf
            .records
            .iter()
            .any(|r| r.phase == TracePhase::Instant && r.name == "delivered"));
    }

    #[test]
    fn tracing_does_not_change_flow_measurements() {
        use simcore::trace::{NullSink, Tracer};

        let run = |traced: bool| {
            let tracer = if traced {
                Tracer::new(NullSink)
            } else {
                Tracer::disabled()
            };
            let mut sim = EdgeSim::new_traced(
                LinkParams::wifi(),
                ServerParams::small(),
                clients(3),
                9,
                tracer,
            );
            sim.run_for_secs(10.0);
            (0..3)
                .map(|c| {
                    let m = sim.metrics(c);
                    (m.completed(), m.latency_overall().mean().to_bits())
                })
                .collect::<Vec<_>>()
        };
        assert_eq!(run(false), run(true));
    }

    fn shared_sim(n: usize, seed: u64) -> EdgeSim {
        EdgeSim::new_shared_traced(
            LinkParams::wifi(),
            ServerParams::small(),
            SharedCell::stadium(),
            clients(n),
            seed,
            Tracer::disabled(),
        )
    }

    #[test]
    fn shared_cell_contention_raises_latency_with_client_count() {
        // Unlike the private model, the *radio* is now the bottleneck: a
        // big server (so admission never binds) still slows everyone down
        // as the cell fills.
        let server = ServerParams {
            worker_lanes: 16,
            queue_capacity: 64,
        };
        let mut means = Vec::new();
        for n in [1usize, 8, 24] {
            let mut sim = EdgeSim::new_shared_traced(
                quiet_link(),
                server,
                SharedCell::stadium(),
                clients(n),
                5,
                Tracer::disabled(),
            );
            sim.run_for_secs(20.0);
            let mean = (0..n)
                .map(|c| sim.metrics(c).latency_overall().mean())
                .sum::<f64>()
                / n as f64;
            means.push(mean);
        }
        assert!(
            means[0] < means[1] && means[1] < means[2],
            "means = {means:?}"
        );
    }

    #[test]
    fn shared_cell_deterministic_across_runs() {
        let run = || {
            let mut sim = shared_sim(6, 13);
            sim.run_for_secs(10.0);
            (0..6)
                .flat_map(|c| {
                    sim.metrics(c)
                        .samples()
                        .iter()
                        .map(|&(t, l)| (t, l.to_bits()))
                        .collect::<Vec<_>>()
                })
                .collect::<Vec<_>>()
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn shared_cell_conserves_medium_bytes() {
        let mut sim = shared_sim(8, 21);
        sim.run_for_secs(12.0);
        let m = sim.medium().expect("shared sim has a medium");
        m.check_invariants();
        // Whatever the medium carried is either delivered or still in
        // flight; the closed loop keeps at most one request per flow out.
        assert!(m.delivered_bytes() > 0.0);
        assert!(m.offered_bytes() >= m.delivered_bytes());
        assert!(sim.handovers() == 0, "parked clients never hand over");
    }

    #[test]
    fn shared_radio_variant_is_pointer_sized() {
        // The satellite claim: clients no longer carry two inline
        // serializers each. The radio is one pointer (private, boxed) or
        // one attachment id (shared) plus the discriminant.
        assert!(std::mem::size_of::<Radio>() <= 2 * std::mem::size_of::<usize>());
    }

    #[test]
    fn deterministic_across_runs() {
        let run = || {
            let mut sim = EdgeSim::new(LinkParams::wifi(), ServerParams::small(), clients(4), 7);
            sim.run_for_secs(15.0);
            (0..4)
                .flat_map(|c| {
                    sim.metrics(c)
                        .samples()
                        .iter()
                        .map(|&(t, l)| (t, l.to_bits()))
                        .collect::<Vec<_>>()
                })
                .collect::<Vec<_>>()
        };
        assert_eq!(run(), run());
    }
}
