//! Multi-server edge cluster behind a load balancer: heterogeneous
//! sessions, heterogeneous servers, pluggable routing policies.
//!
//! # World model
//!
//! Where [`crate::sim::EdgeSim`] couples N identical radios to *one*
//! inference server, the cluster couples a churning population of
//! heterogeneous **sessions** (each with its own [`ClientSpec`], zone,
//! arrival time, departure time, and RNG seed) to a fleet of
//! [`EdgeServer`]s of differing lane counts, speeds, and zones. A
//! [`RoutePolicy`] decides, per request (and per admission retry),
//! which server a request is offered to:
//!
//! ```text
//! Submit ─▶ uplink radio ─▶ propagation ─▶ router ─▶ [cross-zone hop] ─▶ admission
//!   ▲                                        ▲        ├─ started/queued ─▶ lane service
//!   │                                        └─ retry ┴─ rejected (≤ R times, then drop)
//!   └── next submit ◀─ delivery ◀─ downlink radio ◀─ [cross-zone hop] ◀─ done
//! ```
//!
//! Sessions are closed-loop and rate-anchored exactly like
//! [`crate::sim::EdgeSim`] flows, so an overloaded cluster slows clients
//! down instead of building unbounded backlogs. Unlike `EdgeSim`
//! (infinite admission retries), a cluster request is dropped after
//! `max_admission_retries` rejections — at fleet scale a saturated
//! cluster must shed load, and the drop count is the reject-rate
//! numerator the `fleet_sweep` rows report.
//!
//! # Determinism and relabeling invariance
//!
//! Every random draw a session makes — submit jitter, link loss and
//! propagation jitter, power-of-two server picks — is keyed off the
//! session's own `seed` (plus sequence/attempt counters), never off its
//! index in the session vector. Permuting the vector therefore permutes
//! per-session results without changing any of them, which the
//! relabeling tests pin per policy.

use simcore::rng::mix;
use simcore::stats::{LogHistogram, Running};
use simcore::trace::{Tracer, TrackId};
use simcore::{QueueKind, Scheduler, SimDuration, SimTime, Simulator};

use crate::link::{plan_transfer, Direction, LinkParams};
use crate::medium::{Completion, Medium, MediumParams, Mobility};
use crate::server::{Admission, EdgeServer, ServerParams};
use crate::sim::ClientSpec;

/// How the load balancer picks a server for each request offer.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum RoutePolicy {
    /// Cycle through servers in order, ignoring load and zones.
    RoundRobin,
    /// Join the shortest queue: least `in_service + queued`, ties to the
    /// lowest server index.
    ShortestQueue,
    /// Power of two choices: two deterministic draws from the session's
    /// seed, keep the less loaded (ties to the first draw).
    PowerOfTwo,
    /// Join the shortest queue among same-zone servers (no cross-zone
    /// hop); falls back to the global shortest queue when the session's
    /// zone has no server.
    Locality,
}

impl RoutePolicy {
    /// Every policy, in the order sweeps iterate them.
    pub const ALL: [RoutePolicy; 4] = [
        RoutePolicy::RoundRobin,
        RoutePolicy::ShortestQueue,
        RoutePolicy::PowerOfTwo,
        RoutePolicy::Locality,
    ];

    /// Short stable name used in JSON rows and on the CLI.
    pub fn name(self) -> &'static str {
        match self {
            RoutePolicy::RoundRobin => "rr",
            RoutePolicy::ShortestQueue => "jsq",
            RoutePolicy::PowerOfTwo => "p2c",
            RoutePolicy::Locality => "local",
        }
    }

    /// Parses a [`Self::name`] back into a policy.
    pub fn parse(s: &str) -> Option<RoutePolicy> {
        RoutePolicy::ALL.into_iter().find(|p| p.name() == s)
    }

    /// Whether pooled results are invariant under permutation of the
    /// session vector. True for every policy here: round-robin assigns
    /// by offer arrival order (unchanged by relabeling), and the other
    /// three key their choices off per-session seeds and live load.
    pub fn claims_symmetry(self) -> bool {
        true
    }
}

/// One cluster member: sizing plus placement and relative speed.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ServerSpec {
    /// Lane count and admission-queue capacity.
    pub params: ServerParams,
    /// Which zone the server sits in (same-zone offers skip the
    /// cross-zone hop).
    pub zone: usize,
    /// Relative service speed: a request's inference time is divided by
    /// this (2.0 = twice as fast as the session's `infer_ms` baseline).
    pub speed: f64,
}

/// One client session: who it is, where it is, and when it exists.
#[derive(Debug, Clone, PartialEq)]
pub struct SessionSpec {
    /// Device/model/rate identity (payloads, inference time, cadence).
    pub client: ClientSpec,
    /// The zone whose servers are hop-free for this session.
    pub zone: usize,
    /// First submission fires at this simulated time (plus jitter).
    pub arrive_secs: f64,
    /// No submission fires at or after this simulated time.
    pub depart_secs: f64,
    /// Seed for every random draw this session makes. Carried in the
    /// spec (not derived from the vector index) so relabeling sessions
    /// cannot change their behavior.
    pub seed: u64,
}

/// How sessions reach the cluster over the air.
#[derive(Debug, Clone, PartialEq)]
pub enum ClusterRadio {
    /// Every session gets its own private serializer pair — the original
    /// model, in which radios never contend.
    Private,
    /// Sessions contend for shared cells ([`crate::medium`]), with
    /// seed-derived placement, optional waypoint mobility, and handover.
    Shared(SharedMedium),
}

/// A shared-medium deployment for the cluster: the cell layout plus how
/// the session population is placed and moves. Placement and walks derive
/// from each session's own seed, so relabeling invariance holds exactly
/// as in the private model.
#[derive(Debug, Clone, PartialEq)]
pub struct SharedMedium {
    /// Cells, rate law, mobility tick, handover hysteresis.
    pub medium: MediumParams,
    /// Walking speed in m/s; `0` parks every session at its drawn
    /// position (no mobility ticks, no handover).
    pub walk_speed_mps: f64,
    /// Side of the deployment square positions and waypoints are drawn
    /// in, meters.
    pub area_m: f64,
}

impl SharedMedium {
    /// The mobility model for a session with `seed`.
    fn mobility(&self, seed: u64) -> Mobility {
        if self.walk_speed_mps > 0.0 {
            Mobility::Waypoints {
                seed,
                speed_mps: self.walk_speed_mps,
                area_m: self.area_m,
            }
        } else {
            Mobility::parked(seed, self.area_m)
        }
    }
}

/// The cluster deployment: link profile, members, routing, topology.
#[derive(Debug, Clone, PartialEq)]
pub struct ClusterParams {
    /// Per-session wireless link parameters (shared profile).
    pub link: LinkParams,
    /// Cluster members; index is the server id.
    pub servers: Vec<ServerSpec>,
    /// Load-balancer policy.
    pub policy: RoutePolicy,
    /// One-way latency added per cross-zone hop, in ms (paid on the
    /// offer path and again on the response path).
    pub cross_zone_ms: f64,
    /// Admission rejections tolerated per request before it is dropped.
    pub max_admission_retries: u32,
    /// Radio model: private per-session pairs or shared contended cells.
    pub radio: ClusterRadio,
}

impl ClusterParams {
    fn validate(&self) {
        self.link.validate();
        if let ClusterRadio::Shared(shared) = &self.radio {
            shared.medium.validate();
            assert!(
                shared.walk_speed_mps.is_finite() && shared.walk_speed_mps >= 0.0,
                "walk speed must be non-negative"
            );
            assert!(
                shared.area_m.is_finite() && shared.area_m > 0.0,
                "deployment area must be positive"
            );
        }
        assert!(!self.servers.is_empty(), "need at least one server");
        for (i, s) in self.servers.iter().enumerate() {
            assert!(
                s.speed.is_finite() && s.speed > 0.0,
                "server {i} speed must be positive: {}",
                s.speed
            );
            assert!(s.params.worker_lanes >= 1, "server {i} has no lanes");
        }
        assert!(
            self.cross_zone_ms.is_finite() && self.cross_zone_ms >= 0.0,
            "cross-zone hop must be non-negative: {}",
            self.cross_zone_ms
        );
    }
}

/// Pooled cluster-level measurements. Latencies go into a log-bucketed
/// histogram plus a [`Running`] — O(1) memory per request, which is what
/// lets a sweep pool tens of thousands of client-windows.
#[derive(Debug, Clone)]
pub struct ClusterMetrics {
    histogram: LogHistogram,
    overall: Running,
    /// Requests submitted (uplink started).
    pub submitted: u64,
    /// Requests dropped after exhausting admission retries.
    pub dropped: u64,
    /// Individual admission rejections (a dropped request counts
    /// `1 + max_admission_retries` of these).
    pub reject_events: u64,
    /// Link-layer retransmissions across all sessions and directions.
    pub retransmits: u64,
}

impl Default for ClusterMetrics {
    fn default() -> Self {
        ClusterMetrics {
            // 0.1 ms .. ~1.7 s in 10% steps, matching FlowMetrics.
            histogram: LogHistogram::new(0.1, 1.1, 102),
            overall: Running::new(),
            submitted: 0,
            dropped: 0,
            reject_events: 0,
            retransmits: 0,
        }
    }
}

impl ClusterMetrics {
    /// Completed round trips across the fleet.
    pub fn completed(&self) -> u64 {
        self.overall.count()
    }

    /// Mean end-to-end latency in ms; `None` when nothing completed.
    pub fn mean_ms(&self) -> Option<f64> {
        (self.completed() > 0).then(|| self.overall.mean())
    }

    /// Approximate latency quantile in ms (log-bucketed); `None` when
    /// nothing completed.
    ///
    /// # Panics
    ///
    /// Panics if `q` is outside `[0, 1]`.
    pub fn quantile_ms(&self, q: f64) -> Option<f64> {
        self.histogram.quantile(q)
    }

    /// Dropped / submitted; `None` when nothing was submitted (a window
    /// with no offered load has no reject rate — reporting 0 would make
    /// it look healthy instead of idle).
    pub fn reject_rate(&self) -> Option<f64> {
        (self.submitted > 0).then(|| self.dropped as f64 / self.submitted as f64)
    }

    /// Pooled latency accumulator.
    pub fn latency_overall(&self) -> &Running {
        &self.overall
    }

    fn record(&mut self, latency_ms: f64) {
        self.overall.record(latency_ms);
        self.histogram.record(latency_ms);
    }
}

/// A request currently in flight for one session (closed loop: at most
/// one per session).
#[derive(Debug, Clone, Copy)]
struct InFlight {
    seq: u64,
    submitted: SimTime,
    /// Server the request was last offered to (final once admitted);
    /// the response pays this server's return hop.
    server: usize,
}

#[derive(Debug, Clone, Copy)]
enum Ev {
    /// A session submits its next request to its uplink radio.
    Submit { session: usize },
    /// A transfer finished serializing on a session radio.
    LaneDone {
        session: usize,
        dir: Direction,
        slot: usize,
    },
    /// A transfer's propagation ended: it reaches the far end.
    Arrived {
        session: usize,
        dir: Direction,
        seq: u64,
    },
    /// A routed request reaches its chosen server's admission queue
    /// (after any cross-zone hop).
    Offer {
        session: usize,
        seq: u64,
        tries: u32,
        server: usize,
    },
    /// A rejected request re-enters the router after the retry timeout.
    Reroute {
        session: usize,
        seq: u64,
        tries: u32,
    },
    /// A server worker lane finished an inference.
    ServerDone { server: usize, slot: usize },
    /// The shared medium's next internal deadline (generation-guarded).
    MediumWake { gen: u64 },
}

/// A session's private serializer pair, boxed inside [`SessRadio`] so
/// shared-mode populations don't carry two radios per session.
#[derive(Debug)]
struct PrivatePair {
    /// 1-slot uplink serializer, keyed by seq.
    uplink: soc::FifoServer<u64>,
    /// 1-slot downlink serializer.
    downlink: soc::FifoServer<u64>,
}

/// How one session reaches the air.
#[derive(Debug)]
enum SessRadio {
    /// Private pair (the original model).
    Private(Box<PrivatePair>),
    /// Attached to the shared medium as client id `attach`.
    Shared { attach: usize },
}

/// One session's radio + loop state.
#[derive(Debug)]
struct SessState {
    spec: SessionSpec,
    radio: SessRadio,
    last_up_delivery: SimTime,
    last_down_delivery: SimTime,
    /// Start time of the latest submission (rate anchor).
    started_at: SimTime,
    seq: u64,
    in_flight: Option<InFlight>,
    /// Round trips this session completed.
    completed: u64,
    /// Requests this session had dropped.
    dropped: u64,
    /// Set once the closed loop decides not to submit again.
    departed: bool,
}

/// One cluster member's live state.
#[derive(Debug)]
struct ServerState {
    spec: ServerSpec,
    server: EdgeServer<(usize, u64)>,
}

struct ClusterState {
    params: ClusterParams,
    sessions: Vec<SessState>,
    servers: Vec<ServerState>,
    /// The contended cells, when sessions run shared radios.
    medium: Option<Medium<(usize, u64)>>,
    /// Completion buffer [`Medium::advance`] fills on each wake, reused
    /// across wakes.
    medium_done: Vec<Completion<(usize, u64)>>,
    /// Next server index for round-robin.
    rr_next: usize,
    /// Peak admission-queue depth across all servers.
    peak_queue: usize,
    /// Sessions whose closed loop has ended.
    departed: usize,
    metrics: ClusterMetrics,
    tracer: Tracer,
    /// Per-server track for admission-queue counters.
    trace_servers: Vec<TrackId>,
    /// Per-cell track for utilization and active-flow counters (shared
    /// mode only).
    trace_cells: Vec<TrackId>,
    /// Track carrying the cluster's memory-accounting counters.
    trace_mem: TrackId,
}

/// Approximate bytes of one queued admission entry: the routed job key
/// plus the service-time payload the FIFO lane holds for it.
const QUEUE_ENTRY_BYTES: usize =
    std::mem::size_of::<(usize, u64)>() + std::mem::size_of::<SimDuration>();

/// The fleet-scale cluster simulator.
pub struct ClusterSim {
    sim: Simulator<Ev>,
    state: ClusterState,
}

type Sched<'a> = Scheduler<'a, Ev>;

impl ClusterSim {
    /// Builds the cluster world; each session's first submission is
    /// scheduled at its arrival time plus its deterministic jitter.
    ///
    /// # Panics
    ///
    /// Panics if the params are invalid or a session departs at or
    /// before it arrives.
    pub fn new(params: ClusterParams, sessions: Vec<SessionSpec>, queue: QueueKind) -> Self {
        Self::new_traced(params, sessions, queue, Tracer::disabled())
    }

    /// Like [`ClusterSim::new`], but with a tracer: each server gets a
    /// counter track for its admission-queue depth, and in shared-radio
    /// mode each cell gets a track carrying its per-direction utilization
    /// and active-flow counters.
    ///
    /// # Panics
    ///
    /// Same conditions as [`ClusterSim::new`].
    pub fn new_traced(
        params: ClusterParams,
        sessions: Vec<SessionSpec>,
        queue: QueueKind,
        tracer: Tracer,
    ) -> Self {
        params.validate();
        let mut sim = Simulator::with_queue_kind(queue);
        let start = sim.now();
        let servers: Vec<ServerState> = params
            .servers
            .iter()
            .map(|&spec| ServerState {
                spec,
                server: EdgeServer::new(spec.params, start),
            })
            .collect();
        let mut medium = match &params.radio {
            ClusterRadio::Private => None,
            ClusterRadio::Shared(shared) => Some(Medium::new(shared.medium.clone())),
        };
        let states: Vec<SessState> = sessions
            .into_iter()
            .map(|spec| {
                assert!(
                    spec.depart_secs > spec.arrive_secs,
                    "session departs at {} before arriving at {}",
                    spec.depart_secs,
                    spec.arrive_secs
                );
                let radio = match (&mut medium, &params.radio) {
                    (Some(m), ClusterRadio::Shared(shared)) => SessRadio::Shared {
                        attach: m.add_client(start, shared.mobility(spec.seed)),
                    },
                    _ => SessRadio::Private(Box::new(PrivatePair {
                        uplink: soc::FifoServer::new(1, start),
                        downlink: soc::FifoServer::new(1, start),
                    })),
                };
                SessState {
                    radio,
                    last_up_delivery: start,
                    last_down_delivery: start,
                    started_at: start,
                    seq: 0,
                    in_flight: None,
                    completed: 0,
                    dropped: 0,
                    departed: false,
                    spec,
                }
            })
            .collect();
        let trace_servers: Vec<TrackId> = (0..servers.len())
            .map(|i| tracer.register_track("edgelink", &format!("server{i}")))
            .collect();
        let trace_cells: Vec<TrackId> = medium
            .as_ref()
            .map(|m| {
                (0..m.cell_count())
                    .map(|i| tracer.register_track("edgelink", &format!("cell{i}")))
                    .collect()
            })
            .unwrap_or_default();
        let trace_mem = tracer.register_track("edgelink", "mem");
        for (session, st) in states.iter().enumerate() {
            let at = start
                + SimDuration::from_secs_f64(st.spec.arrive_secs)
                + SimDuration::from_nanos(jitter_ns(st.spec.seed, 0, st.spec.client.jitter_ms));
            sim.schedule(at, Ev::Submit { session });
        }
        ClusterSim {
            sim,
            state: ClusterState {
                params,
                sessions: states,
                servers,
                medium,
                medium_done: Vec::new(),
                rr_next: 0,
                peak_queue: 0,
                departed: 0,
                metrics: ClusterMetrics::default(),
                tracer,
                trace_servers,
                trace_cells,
                trace_mem,
            },
        }
    }

    /// Current simulated time.
    pub fn now(&self) -> SimTime {
        self.sim.now()
    }

    /// Which future-event-list implementation this simulator runs on.
    pub fn queue_kind(&self) -> QueueKind {
        self.sim.queue_kind()
    }

    /// Runs the simulation until `deadline`.
    pub fn run_until(&mut self, deadline: SimTime) {
        let ClusterSim { sim, state } = self;
        sim.run_until(deadline, |sched, ev| state.handle(sched, ev));
        self.emit_memory_counters();
    }

    /// Reports the cluster's memory footprint as counter samples on the
    /// `mem` track, making PR 9's "208 B per session" claim a
    /// continuously-measured number. No-op when tracing is disabled, so
    /// untraced runs stay bit-identical.
    fn emit_memory_counters(&self) {
        let state = &self.state;
        if !state.tracer.is_enabled() {
            return;
        }
        let now = self.sim.now();
        let track = state.trace_mem;
        state.tracer.counter(
            now,
            track,
            "edgelink",
            "mem session bytes",
            (state.sessions.len() * std::mem::size_of::<SessState>()) as f64,
        );
        state.tracer.counter(
            now,
            track,
            "edgelink",
            "mem peak queue bytes",
            (state.peak_queue * QUEUE_ENTRY_BYTES) as f64,
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

    /// Pooled cluster-level measurements.
    pub fn metrics(&self) -> &ClusterMetrics {
        &self.state.metrics
    }

    /// Number of sessions in the world (active or not).
    pub fn session_count(&self) -> usize {
        self.state.sessions.len()
    }

    /// Sessions whose closed loop has ended (departures so far).
    pub fn departed(&self) -> usize {
        self.state.departed
    }

    /// Round trips completed by one session.
    pub fn session_completed(&self, session: usize) -> u64 {
        self.state.sessions[session].completed
    }

    /// Requests dropped for one session.
    pub fn session_dropped(&self, session: usize) -> u64 {
        self.state.sessions[session].dropped
    }

    /// Number of cluster members.
    pub fn server_count(&self) -> usize {
        self.state.servers.len()
    }

    /// One member's counters: `(admitted, rejected, completed)`.
    pub fn server_counters(&self, server: usize) -> (u64, u64, u64) {
        let s = &self.state.servers[server].server;
        (s.admitted, s.rejected, s.completed())
    }

    /// One member's time-weighted average busy lanes so far.
    pub fn server_avg_busy_lanes(&self, server: usize) -> f64 {
        self.state.servers[server]
            .server
            .avg_busy_lanes(self.sim.now())
    }

    /// Sum of every member's average busy lanes (cluster-wide service
    /// effort in lane-equivalents).
    pub fn total_avg_busy_lanes(&self) -> f64 {
        (0..self.server_count())
            .map(|s| self.server_avg_busy_lanes(s))
            .sum()
    }

    /// Peak admission-queue depth across all members.
    pub fn peak_queue(&self) -> usize {
        self.state.peak_queue
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

    /// The shared medium, when the sessions run on one.
    pub fn medium(&self) -> Option<&Medium<(usize, u64)>> {
        self.state.medium.as_ref()
    }
}

/// Deterministic jitter draw in ns for `(session seed, seq)`.
fn jitter_ns(seed: u64, seq: u64, jitter_ms: f64) -> u64 {
    if jitter_ms <= 0.0 {
        return 0;
    }
    let span = SimDuration::from_millis_f64(jitter_ms).as_nanos().max(1);
    mix(mix(seed, 0xC1A5_0001), seq) % span
}

impl ClusterState {
    /// Per-session link-randomness seed for `dir`.
    fn flow_seed(&self, session: usize, dir: Direction) -> u64 {
        let tag = match dir {
            Direction::Up => 0xC1A5_0002u64,
            Direction::Down => 0xC1A5_0003u64,
        };
        mix(self.sessions[session].spec.seed, tag)
    }

    /// Live load of a server for routing decisions.
    fn load(&self, server: usize) -> usize {
        let s = &self.servers[server].server;
        s.in_service() + s.queue_len()
    }

    /// Least-loaded server among `candidates` (ties to the first).
    fn least_loaded(&self, candidates: impl Iterator<Item = usize>) -> usize {
        candidates
            .min_by_key(|&s| (self.load(s), s))
            .expect("at least one candidate server")
    }

    /// Picks the server for one offer attempt.
    fn route(&mut self, session: usize, seq: u64, tries: u32) -> usize {
        let n = self.servers.len();
        match self.params.policy {
            RoutePolicy::RoundRobin => {
                let s = self.rr_next;
                self.rr_next = (self.rr_next + 1) % n;
                s
            }
            RoutePolicy::ShortestQueue => self.least_loaded(0..n),
            RoutePolicy::PowerOfTwo => {
                let seed = self.sessions[session].spec.seed;
                let draw =
                    |tag: u64| (mix(mix(seed, tag), mix(seq, tries as u64)) % n as u64) as usize;
                let (a, b) = (draw(0xC1A5_0004), draw(0xC1A5_0005));
                // Strictly less loaded wins; ties keep the first draw.
                if self.load(b) < self.load(a) {
                    b
                } else {
                    a
                }
            }
            RoutePolicy::Locality => {
                let zone = self.sessions[session].spec.zone;
                let mut same = (0..n)
                    .filter(|&s| self.servers[s].spec.zone == zone)
                    .peekable();
                if same.peek().is_some() {
                    self.least_loaded(same)
                } else {
                    self.least_loaded(0..n)
                }
            }
        }
    }

    /// One-way hop latency between a session's zone and a server's.
    fn hop(&self, session: usize, server: usize) -> SimDuration {
        if self.sessions[session].spec.zone == self.servers[server].spec.zone {
            SimDuration::ZERO
        } else {
            SimDuration::from_millis_f64(self.params.cross_zone_ms)
        }
    }

    fn handle(&mut self, sched: &mut Sched<'_>, ev: Ev) {
        match ev {
            Ev::Submit { session } => self.submit(sched, session),
            Ev::LaneDone { session, dir, slot } => self.lane_done(sched, session, dir, slot),
            Ev::Arrived { session, dir, seq } => match dir {
                Direction::Up => self.dispatch(sched, session, seq, 0),
                Direction::Down => self.response_delivered(sched, session, seq),
            },
            Ev::Offer {
                session,
                seq,
                tries,
                server,
            } => self.offer(sched, session, seq, tries, server),
            Ev::Reroute {
                session,
                seq,
                tries,
            } => self.dispatch(sched, session, seq, tries),
            Ev::ServerDone { server, slot } => self.server_done(sched, server, slot),
            Ev::MediumWake { gen } => self.medium_wake(sched, gen),
        }
    }

    /// A session submits request `seq`: its uplink radio serializes it.
    fn submit(&mut self, sched: &mut Sched<'_>, session: usize) {
        let now = sched.now();
        let flow_seed = self.flow_seed(session, Direction::Up);
        let st = &mut self.sessions[session];
        if st.departed {
            return;
        }
        st.seq += 1;
        let seq = st.seq;
        st.started_at = now;
        st.in_flight = Some(InFlight {
            seq,
            submitted: now,
            server: 0,
        });
        self.metrics.submitted += 1;
        let plan = plan_transfer(
            &self.params.link,
            Direction::Up,
            st.spec.client.request_bytes,
            flow_seed,
            seq,
        );
        match &mut st.radio {
            SessRadio::Private(radio) => {
                if let Some(start) = radio.uplink.enqueue(now, seq, plan.occupancy) {
                    sched.schedule_at(
                        start.done_at,
                        Ev::LaneDone {
                            session,
                            dir: Direction::Up,
                            slot: start.slot,
                        },
                    );
                }
            }
            SessRadio::Shared { attach } => {
                let attach = *attach;
                let bytes = plan.attempts as u64 * st.spec.client.request_bytes;
                self.start_shared_flow(sched, attach, Direction::Up, bytes, (session, seq));
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
        key: (usize, u64),
    ) {
        let now = sched.now();
        let medium = self.medium.as_mut().expect("shared radio without a medium");
        medium.start_flow(now, attach, dir, bytes as f64, key);
        self.emit_cell_counters(now);
        self.reschedule_wake(sched);
    }

    /// Schedules the one logical wake-up at the medium's next internal
    /// deadline; stale generations are ignored on arrival.
    fn reschedule_wake(&mut self, sched: &mut Sched<'_>) {
        if let Some(m) = &self.medium {
            if let Some(t) = m.next_deadline() {
                sched.schedule_at(t.max(sched.now()), Ev::MediumWake { gen: m.wake_gen() });
            }
        }
    }

    /// The medium hit an internal deadline (flow completion, mobility
    /// tick, cross-traffic flip): advance it and hand finished transfers
    /// to the same post-serialization path the private lanes use.
    fn medium_wake(&mut self, sched: &mut Sched<'_>, gen: u64) {
        let now = sched.now();
        let m = self.medium.as_mut().expect("medium wake without a medium");
        if gen != m.wake_gen() {
            return;
        }
        let mut done = std::mem::take(&mut self.medium_done);
        m.advance(now, &mut done);
        for c in done.drain(..) {
            let (session, seq) = c.key;
            self.transfer_done(sched, session, c.dir, seq);
        }
        self.medium_done = done;
        self.emit_cell_counters(now);
        self.reschedule_wake(sched);
    }

    /// Emits every cell's utilization and active-flow counters. No-op when
    /// tracing is disabled or the sessions run private radios.
    fn emit_cell_counters(&self, now: SimTime) {
        if !self.tracer.is_enabled() {
            return;
        }
        let Some(m) = &self.medium else { return };
        for (cell, &track) in self.trace_cells.iter().enumerate() {
            for (dir, util_name, flows_name) in [
                (Direction::Up, "up mbps", "up flows"),
                (Direction::Down, "down mbps", "down flows"),
            ] {
                self.tracer.counter(
                    now,
                    track,
                    "edgelink",
                    util_name,
                    m.allocated_mbps(cell, dir),
                );
                self.tracer.counter(
                    now,
                    track,
                    "edgelink",
                    flows_name,
                    m.active_flows(cell, dir) as f64,
                );
            }
        }
    }

    /// A shared-medium transfer finished its airtime: account
    /// retransmissions, pay the return hop on responses, and schedule the
    /// in-order arrival (mirrors the tail of [`ClusterState::lane_done`]).
    fn transfer_done(&mut self, sched: &mut Sched<'_>, session: usize, dir: Direction, seq: u64) {
        let now = sched.now();
        let flow_seed = self.flow_seed(session, dir);
        let st = &self.sessions[session];
        let bytes = match dir {
            Direction::Up => st.spec.client.request_bytes,
            Direction::Down => st.spec.client.response_bytes,
        };
        let plan = plan_transfer(&self.params.link, dir, bytes, flow_seed, seq);
        if plan.attempts > 1 {
            self.metrics.retransmits += plan.attempts as u64 - 1;
        }
        let extra = match dir {
            Direction::Up => SimDuration::ZERO,
            Direction::Down => {
                let server = st.in_flight.map_or(0, |f| f.server);
                self.hop(session, server)
            }
        };
        let st = &mut self.sessions[session];
        let last = match dir {
            Direction::Up => &mut st.last_up_delivery,
            Direction::Down => &mut st.last_down_delivery,
        };
        let arrive = (now + plan.propagation + extra).max(*last);
        *last = arrive;
        sched.schedule_at(arrive, Ev::Arrived { session, dir, seq });
    }

    /// A radio lane finished serializing: schedule the in-order arrival
    /// and start the next queued transfer.
    fn lane_done(&mut self, sched: &mut Sched<'_>, session: usize, dir: Direction, slot: usize) {
        let now = sched.now();
        let flow_seed = self.flow_seed(session, dir);
        let st = &mut self.sessions[session];
        let SessRadio::Private(radio) = &mut st.radio else {
            unreachable!("lane event on a shared radio")
        };
        let (bytes, lane) = match dir {
            Direction::Up => (st.spec.client.request_bytes, &mut radio.uplink),
            Direction::Down => (st.spec.client.response_bytes, &mut radio.downlink),
        };
        let (seq, next) = lane.on_done(now, slot);
        if let Some(start) = next {
            sched.schedule_at(
                start.done_at,
                Ev::LaneDone {
                    session,
                    dir,
                    slot: start.slot,
                },
            );
        }
        // Re-derive the (pure) plan for this exact transfer.
        let plan = plan_transfer(&self.params.link, dir, bytes, flow_seed, seq);
        if plan.attempts > 1 {
            self.metrics.retransmits += plan.attempts as u64 - 1;
        }
        // The response also pays the return hop from the serving server.
        let extra = match dir {
            Direction::Up => SimDuration::ZERO,
            Direction::Down => {
                let server = st.in_flight.map_or(0, |f| f.server);
                self.hop(session, server)
            }
        };
        let st = &mut self.sessions[session];
        let last = match dir {
            Direction::Up => &mut st.last_up_delivery,
            Direction::Down => &mut st.last_down_delivery,
        };
        // FIFO per flow despite jitter.
        let arrive = (now + plan.propagation + extra).max(*last);
        *last = arrive;
        sched.schedule_at(arrive, Ev::Arrived { session, dir, seq });
    }

    /// The router picks a server for attempt `tries` and forwards the
    /// request, paying the cross-zone hop when the server is remote.
    fn dispatch(&mut self, sched: &mut Sched<'_>, session: usize, seq: u64, tries: u32) {
        let server = self.route(session, seq, tries);
        let hop = self.hop(session, server);
        if hop == SimDuration::ZERO {
            self.offer(sched, session, seq, tries, server);
        } else {
            sched.schedule_after(
                hop,
                Ev::Offer {
                    session,
                    seq,
                    tries,
                    server,
                },
            );
        }
    }

    /// A request reaches a server's admission queue.
    fn offer(
        &mut self,
        sched: &mut Sched<'_>,
        session: usize,
        seq: u64,
        tries: u32,
        server: usize,
    ) {
        let now = sched.now();
        if let Some(f) = &mut self.sessions[session].in_flight {
            f.server = server;
        }
        let infer_ms =
            self.sessions[session].spec.client.infer_ms / self.servers[server].spec.speed;
        let work = SimDuration::from_millis_f64(infer_ms);
        match self.servers[server]
            .server
            .try_admit(now, (session, seq), work)
        {
            Admission::Started(start) => {
                sched.schedule_at(
                    start.done_at,
                    Ev::ServerDone {
                        server,
                        slot: start.slot,
                    },
                );
            }
            Admission::Queued => {
                let depth = self.servers[server].server.queue_len();
                self.peak_queue = self.peak_queue.max(depth);
            }
            Admission::Rejected => {
                self.metrics.reject_events += 1;
                if tries < self.params.max_admission_retries {
                    // NACK + backoff collapse into one retry timeout;
                    // the retry re-enters the router (the rejecting
                    // server may not be the best choice any more).
                    sched.schedule_after(
                        SimDuration::from_millis_f64(self.params.link.retx_timeout_ms.max(0.5)),
                        Ev::Reroute {
                            session,
                            seq,
                            tries: tries + 1,
                        },
                    );
                } else {
                    self.drop_request(sched, session);
                }
            }
        }
        self.emit_server_counters(now, server);
    }

    /// Emits one server's admission-queue depth and busy-lane counters.
    /// No-op when tracing is disabled.
    fn emit_server_counters(&self, now: SimTime, server: usize) {
        if !self.tracer.is_enabled() {
            return;
        }
        let track = self.trace_servers[server];
        let s = &self.servers[server].server;
        self.tracer
            .counter(now, track, "edgelink", "queued", s.queue_len() as f64);
        self.tracer
            .counter(now, track, "edgelink", "in service", s.in_service() as f64);
    }

    /// A request exhausted its admission retries: shed it and move the
    /// closed loop on.
    fn drop_request(&mut self, sched: &mut Sched<'_>, session: usize) {
        self.metrics.dropped += 1;
        self.sessions[session].dropped += 1;
        self.sessions[session].in_flight = None;
        self.schedule_next_submit(sched, session);
    }

    /// A server lane finished: ship the response down the session radio.
    fn server_done(&mut self, sched: &mut Sched<'_>, server: usize, slot: usize) {
        let now = sched.now();
        let ((session, seq), next) = self.servers[server].server.on_done(now, slot);
        if let Some(start) = next {
            sched.schedule_at(
                start.done_at,
                Ev::ServerDone {
                    server,
                    slot: start.slot,
                },
            );
        }
        self.emit_server_counters(now, server);
        let flow_seed = self.flow_seed(session, Direction::Down);
        let st = &mut self.sessions[session];
        let plan = plan_transfer(
            &self.params.link,
            Direction::Down,
            st.spec.client.response_bytes,
            flow_seed,
            seq,
        );
        match &mut st.radio {
            SessRadio::Private(radio) => {
                if let Some(start) = radio.downlink.enqueue(now, seq, plan.occupancy) {
                    sched.schedule_at(
                        start.done_at,
                        Ev::LaneDone {
                            session,
                            dir: Direction::Down,
                            slot: start.slot,
                        },
                    );
                }
            }
            SessRadio::Shared { attach } => {
                let attach = *attach;
                let bytes = plan.attempts as u64 * st.spec.client.response_bytes;
                self.start_shared_flow(sched, attach, Direction::Down, bytes, (session, seq));
            }
        }
    }

    /// The response reached the session: record the round trip and keep
    /// the closed loop going.
    fn response_delivered(&mut self, sched: &mut Sched<'_>, session: usize, seq: u64) {
        let now = sched.now();
        let st = &mut self.sessions[session];
        let f = st
            .in_flight
            .take()
            .expect("delivery with nothing in flight");
        assert_eq!(f.seq, seq, "session {session} delivered out of order");
        st.completed += 1;
        let latency_ms = (now - f.submitted).as_millis_f64();
        self.metrics.record(latency_ms);
        self.schedule_next_submit(sched, session);
    }

    /// Rate-anchored next submission; the session departs instead when
    /// its time is up.
    fn schedule_next_submit(&mut self, sched: &mut Sched<'_>, session: usize) {
        let now = sched.now();
        let st = &mut self.sessions[session];
        let mut next = now + SimDuration::from_millis_f64(st.spec.client.gap_ms);
        next = next.max(st.started_at + SimDuration::from_millis_f64(st.spec.client.period_ms));
        next += SimDuration::from_nanos(jitter_ns(st.spec.seed, st.seq, st.spec.client.jitter_ms));
        if next.as_secs_f64() >= st.spec.depart_secs {
            st.departed = true;
            self.departed += 1;
        } else {
            sched.schedule_at(next, Ev::Submit { session });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    use crate::medium::CellParams;

    fn quiet_link() -> LinkParams {
        LinkParams {
            loss_prob: 0.0,
            jitter_sigma: 0.0,
            ..LinkParams::wifi()
        }
    }

    fn session(i: u64, zone: usize, horizon: f64) -> SessionSpec {
        let mut client = ClientSpec::mar_default(format!("s{i}"));
        client.request_bytes = 32 * 1024;
        SessionSpec {
            client,
            zone,
            arrive_secs: 0.0,
            depart_secs: horizon,
            seed: mix(0xC1A5_7E57, i),
        }
    }

    fn two_zone_params(policy: RoutePolicy) -> ClusterParams {
        ClusterParams {
            link: quiet_link(),
            servers: vec![
                ServerSpec {
                    params: ServerParams {
                        worker_lanes: 2,
                        queue_capacity: 8,
                    },
                    zone: 0,
                    speed: 1.0,
                },
                ServerSpec {
                    params: ServerParams {
                        worker_lanes: 1,
                        queue_capacity: 8,
                    },
                    zone: 1,
                    speed: 2.0,
                },
            ],
            policy,
            cross_zone_ms: 10.0,
            max_admission_retries: 2,
            radio: ClusterRadio::Private,
        }
    }

    fn sessions(n: u64, horizon: f64) -> Vec<SessionSpec> {
        (0..n)
            .map(|i| session(i, (i % 2) as usize, horizon))
            .collect()
    }

    #[test]
    fn every_policy_completes_round_trips() {
        for policy in RoutePolicy::ALL {
            let mut sim =
                ClusterSim::new(two_zone_params(policy), sessions(6, 10.0), QueueKind::Heap);
            sim.run_for_secs(10.0);
            assert!(
                sim.metrics().completed() > 100,
                "{}: only {} completions",
                policy.name(),
                sim.metrics().completed()
            );
            let per_session: u64 = (0..6).map(|s| sim.session_completed(s)).sum();
            assert_eq!(per_session, sim.metrics().completed());
        }
    }

    #[test]
    fn policies_are_deterministic_across_runs() {
        for policy in RoutePolicy::ALL {
            let run = || {
                let mut sim =
                    ClusterSim::new(two_zone_params(policy), sessions(5, 8.0), QueueKind::Heap);
                sim.run_for_secs(8.0);
                (
                    sim.metrics().completed(),
                    sim.metrics().submitted,
                    sim.metrics().mean_ms().map(f64::to_bits),
                    (0..sim.server_count())
                        .map(|s| sim.server_counters(s))
                        .collect::<Vec<_>>(),
                )
            };
            assert_eq!(run(), run(), "{} diverged", policy.name());
        }
    }

    #[test]
    fn heap_and_calendar_agree() {
        for policy in RoutePolicy::ALL {
            let run = |queue| {
                let mut sim = ClusterSim::new(two_zone_params(policy), sessions(5, 8.0), queue);
                sim.run_for_secs(8.0);
                (
                    sim.metrics().completed(),
                    sim.metrics().submitted,
                    sim.metrics().dropped,
                    sim.metrics().mean_ms().map(f64::to_bits),
                )
            };
            assert_eq!(
                run(QueueKind::Heap),
                run(QueueKind::Calendar),
                "{} diverged across queue kinds",
                policy.name()
            );
        }
    }

    #[test]
    fn locality_avoids_cross_zone_hops_when_it_can() {
        // All sessions in zone 0, servers in both zones: locality must
        // never admit on the zone-1 server while zone 0 has capacity.
        let mut params = two_zone_params(RoutePolicy::Locality);
        params.servers[0].params.queue_capacity = 64;
        let sess: Vec<SessionSpec> = (0..4).map(|i| session(i, 0, 8.0)).collect();
        let mut sim = ClusterSim::new(params, sess, QueueKind::Heap);
        sim.run_for_secs(8.0);
        let (admitted_far, _, _) = sim.server_counters(1);
        assert_eq!(admitted_far, 0, "locality crossed zones needlessly");
        assert!(sim.metrics().completed() > 50);
    }

    #[test]
    fn round_robin_spreads_offers_evenly() {
        let mut params = two_zone_params(RoutePolicy::RoundRobin);
        params.cross_zone_ms = 0.0;
        let mut sim = ClusterSim::new(params, sessions(4, 10.0), QueueKind::Heap);
        sim.run_for_secs(10.0);
        let (a0, _, _) = sim.server_counters(0);
        let (a1, _, _) = sim.server_counters(1);
        let diff = a0.abs_diff(a1);
        assert!(
            diff <= (a0 + a1) / 10 + 2,
            "round robin skewed: {a0} vs {a1}"
        );
    }

    #[test]
    fn saturation_sheds_load_after_bounded_retries() {
        // One slow lane, zero queue, many fast sessions: drops must
        // happen, rejects must exceed drops (each drop retried first),
        // and the closed loop must keep going afterwards.
        let params = ClusterParams {
            link: quiet_link(),
            servers: vec![ServerSpec {
                params: ServerParams {
                    worker_lanes: 1,
                    queue_capacity: 0,
                },
                zone: 0,
                speed: 1.0,
            }],
            policy: RoutePolicy::ShortestQueue,
            cross_zone_ms: 0.0,
            max_admission_retries: 2,
            radio: ClusterRadio::Private,
        };
        let sess: Vec<SessionSpec> = (0..8)
            .map(|i| {
                let mut s = session(i, 0, 10.0);
                s.client.infer_ms = 80.0;
                s.client.period_ms = 40.0;
                s
            })
            .collect();
        let mut sim = ClusterSim::new(params, sess, QueueKind::Heap);
        sim.run_for_secs(10.0);
        let m = sim.metrics();
        assert!(m.dropped > 0, "expected drops under saturation");
        assert!(m.reject_events > m.dropped);
        assert!(m.completed() > 0, "sheds load but still serves");
        let rate = m.reject_rate().expect("submissions happened");
        assert!(rate > 0.0 && rate < 1.0, "reject rate {rate}");
        // Every request is accounted: completed + dropped + in flight.
        assert_eq!(
            m.submitted,
            m.completed()
                + m.dropped
                + (0..sim.session_count())
                    .filter(|&s| { sim.state.sessions[s].in_flight.is_some() })
                    .count() as u64
        );
    }

    #[test]
    fn churn_starts_and_stops_sessions_on_time() {
        let params = two_zone_params(RoutePolicy::ShortestQueue);
        let mut sess = sessions(3, 4.0);
        sess[1].arrive_secs = 6.0;
        sess[1].depart_secs = 9.0;
        let mut sim = ClusterSim::new(params, sess, QueueKind::Heap);
        sim.run_for_secs(5.0);
        // Sessions 0 and 2 departed at 4 s; session 1 not yet arrived.
        assert_eq!(sim.departed(), 2);
        let before = sim.session_completed(1);
        assert_eq!(before, 0);
        sim.run_for_secs(7.0);
        assert_eq!(sim.departed(), 3);
        assert!(sim.session_completed(1) > 0, "late session never ran");
    }

    #[test]
    fn empty_metrics_report_none_not_zero() {
        let m = ClusterMetrics::default();
        assert_eq!(m.mean_ms(), None);
        assert_eq!(m.quantile_ms(0.95), None);
        assert_eq!(m.reject_rate(), None);
    }

    #[test]
    fn relabeling_sessions_permutes_but_does_not_change_results() {
        // The spec carries the seed, so shuffling the session vector must
        // permute per-session outcomes and leave pooled ones unchanged.
        for policy in RoutePolicy::ALL {
            let run = |order: &[usize]| {
                let base = sessions(5, 8.0);
                let sess: Vec<SessionSpec> = order.iter().map(|&i| base[i].clone()).collect();
                let mut sim = ClusterSim::new(two_zone_params(policy), sess, QueueKind::Heap);
                sim.run_for_secs(8.0);
                let per: Vec<(u64, u64)> = (0..5)
                    .map(|s| (sim.session_completed(s), sim.session_dropped(s)))
                    .collect();
                (
                    sim.metrics().completed(),
                    sim.metrics().submitted,
                    sim.metrics().dropped,
                    per,
                )
            };
            let id = run(&[0, 1, 2, 3, 4]);
            let perm = [4, 2, 0, 3, 1];
            let shuffled = run(&perm);
            assert_eq!(id.0, shuffled.0, "{}: pooled completed", policy.name());
            assert_eq!(id.1, shuffled.1, "{}: pooled submitted", policy.name());
            assert_eq!(id.2, shuffled.2, "{}: pooled dropped", policy.name());
            for (new_idx, &old_idx) in perm.iter().enumerate() {
                assert_eq!(
                    shuffled.3[new_idx],
                    id.3[old_idx],
                    "{}: session {old_idx} changed under relabeling",
                    policy.name()
                );
            }
        }
    }

    fn shared_params(policy: RoutePolicy, walk_speed_mps: f64) -> ClusterParams {
        let mut p = two_zone_params(policy);
        p.radio = ClusterRadio::Shared(SharedMedium {
            medium: MediumParams::single_cell(120.0, 240.0),
            walk_speed_mps,
            area_m: 40.0,
        });
        p
    }

    #[test]
    fn shared_radio_completes_round_trips_and_conserves_bytes() {
        let mut sim = ClusterSim::new(
            shared_params(RoutePolicy::ShortestQueue, 0.0),
            sessions(6, 10.0),
            QueueKind::Heap,
        );
        sim.run_for_secs(10.0);
        assert!(
            sim.metrics().completed() > 100,
            "only {} completions on the shared cell",
            sim.metrics().completed()
        );
        let m = sim.medium().expect("shared mode exposes the medium");
        m.check_invariants();
        assert!(m.delivered_bytes() > 0.0);
        assert!(m.offered_bytes() >= m.delivered_bytes());
        assert_eq!(sim.handovers(), 0, "one cell cannot hand over");
    }

    #[test]
    fn shared_radio_heap_and_calendar_agree() {
        let run = |queue| {
            let mut sim = ClusterSim::new(
                shared_params(RoutePolicy::PowerOfTwo, 0.0),
                sessions(5, 8.0),
                queue,
            );
            sim.run_for_secs(8.0);
            (
                sim.metrics().completed(),
                sim.metrics().submitted,
                sim.metrics().dropped,
                sim.metrics().mean_ms().map(f64::to_bits),
            )
        };
        assert_eq!(
            run(QueueKind::Heap),
            run(QueueKind::Calendar),
            "shared cell diverged across queue kinds"
        );
    }

    #[test]
    fn shared_radio_preserves_relabeling_invariance() {
        // Placement and walks key off the session seed, not the vector
        // index, so the relabeling guarantee must survive shared cells.
        let run = |order: &[usize]| {
            let base = sessions(5, 8.0);
            let sess: Vec<SessionSpec> = order.iter().map(|&i| base[i].clone()).collect();
            let mut sim = ClusterSim::new(
                shared_params(RoutePolicy::ShortestQueue, 0.0),
                sess,
                QueueKind::Heap,
            );
            sim.run_for_secs(8.0);
            let per: Vec<u64> = (0..5).map(|s| sim.session_completed(s)).collect();
            (sim.metrics().completed(), per)
        };
        let id = run(&[0, 1, 2, 3, 4]);
        let perm = [3, 0, 4, 1, 2];
        let shuffled = run(&perm);
        assert_eq!(id.0, shuffled.0, "pooled completions changed");
        for (new_idx, &old_idx) in perm.iter().enumerate() {
            assert_eq!(
                shuffled.1[new_idx], id.1[old_idx],
                "session {old_idx} changed under shared-cell relabeling"
            );
        }
    }

    #[test]
    fn walking_sessions_hand_over_between_cells() {
        let mut params = two_zone_params(RoutePolicy::ShortestQueue);
        let mut medium = MediumParams::single_cell(120.0, 240.0);
        medium.cells.push(CellParams {
            x_m: 120.0,
            y_m: 0.0,
            uplink_mbps: 120.0,
            downlink_mbps: 240.0,
            cross: None,
        });
        params.radio = ClusterRadio::Shared(SharedMedium {
            medium,
            walk_speed_mps: 12.0,
            area_m: 120.0,
        });
        let mut sim = ClusterSim::new(params, sessions(8, 30.0), QueueKind::Heap);
        sim.run_for_secs(30.0);
        assert!(
            sim.handovers() > 0,
            "fast walkers across a 120 m deployment never handed over"
        );
        assert!(sim.metrics().completed() > 100);
        sim.medium().unwrap().check_invariants();
    }

    #[test]
    fn sess_radio_is_at_most_two_words() {
        // Satellite: sessions no longer carry two inline radios each.
        assert!(
            std::mem::size_of::<SessRadio>() <= 2 * std::mem::size_of::<usize>(),
            "SessRadio grew past two words: {} bytes",
            std::mem::size_of::<SessRadio>()
        );
    }
}
