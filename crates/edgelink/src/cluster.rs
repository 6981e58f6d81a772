//! The edge-serving discrete-event simulator: closed-loop client
//! sessions reach a cluster of inference servers over private radios or
//! shared cells, behind a load balancer with pluggable routing policies.
//!
//! # World model
//!
//! A churning population of heterogeneous **sessions** (each with its own
//! [`ClientSpec`], zone, arrival time, departure time, and RNG seed)
//! is coupled to [`EdgeServer`]s of differing lane counts, speeds, and
//! zones. A [`RoutePolicy`] decides, per request (and per admission
//! retry), which server a request is offered to:
//!
//! ```text
//! Submit ─▶ uplink radio ─▶ propagation ─▶ router ─▶ [cross-zone hop] ─▶ admission
//!   ▲                                        ▲        ├─ started/queued ─▶ lane service
//!   │                                        └─ retry ┴─ rejected (≤ R times, then drop)
//!   └── next submit ◀─ delivery ◀─ downlink radio ◀─ [cross-zone hop] ◀─ done
//! ```
//!
//! Sessions are closed-loop and rate-anchored exactly like the on-device
//! AI streams in [`soc::SocSim`]: the next submission fires at
//! `max(now + gap, started + period) + jitter`, so an overloaded cluster
//! slows clients down instead of building unbounded backlogs. A request
//! is dropped after `max_admission_retries` rejections — at fleet scale a
//! saturated cluster must shed load, and the drop count is the
//! reject-rate numerator the `fleet_sweep` rows report. Delivery is FIFO
//! per session despite propagation jitter: a transfer never arrives
//! before the session's previous transfer in the same direction.
//!
//! # Radios
//!
//! A transfer's plan — attempts, radio occupancy, propagation — is a pure
//! function of its `(stream, seq)` identity ([`crate::link`]). `send`
//! computes it once. A private radio never queues, because the closed
//! loop keeps at most one transfer per session and direction in the air,
//! so a private transfer is a pure delay: its completion event fires
//! after the planned occupancy and carries the attempts and propagation
//! on to delivery. A shared-medium transfer finishes when the medium says
//! so, and its plan is re-derived there.
//!
//! # The one-server edge world
//!
//! [`one_server`] configures the simulator for the per-window edge
//! measurement of a MAR fleet: a single server in zone 0 at speed 1.0
//! (every hop is zero and every policy routes to it), unbounded admission
//! retries (`max_admission_retries = u32::MAX`, so a rejected request
//! retries until it is admitted), sessions that arrive at 0 s and never
//! depart, flow-indexed RNG streams, and per-session latency samples kept
//! for exact per-flow statistics.
//!
//! # Determinism and relabeling invariance
//!
//! Every random draw a session makes — submit jitter, link loss and
//! propagation jitter, power-of-two server picks, shared-cell placement —
//! is keyed off the session's own `seed` (plus sequence/attempt
//! counters), never off its index in the session vector. Permuting the
//! vector therefore permutes per-session results without changing any of
//! them, which the relabeling tests pin per policy. The one exception is
//! opt-in: [`ClusterParams::edge_master_seed`] keys the jitter and link
//! streams off the flow index, as the one-server edge world's flows are.

use simcore::rng::mix;
use simcore::stats::{LogHistogram, Running};
use simcore::trace::{ArgValue, Tracer, TrackId};
use simcore::{EventId, QueueKind, Scheduler, SimDuration, SimTime, Simulator};

use crate::link::{plan_transfer, ByteCounters, Direction, LinkParams};
use crate::medium::{Completion, Medium, MediumParams, Mobility, SharedCell};
use crate::server::{Admission, EdgeServer, ServerParams};

/// What a session's trace tracks are named after.
#[derive(Debug, Clone, PartialEq)]
pub enum ClientLabel {
    /// This exact name.
    Name(String),
    /// A device class: the session is named the class followed by its
    /// index among the sessions [`ClusterSim::new`] gets (`flagship17`),
    /// so a fleet needs no string per session.
    Class(&'static str),
}

impl ClientLabel {
    /// The name of session number `session`.
    fn session_name(&self, session: usize) -> String {
        match self {
            ClientLabel::Name(name) => name.clone(),
            ClientLabel::Class(class) => format!("{class}{session}"),
        }
    }
}

/// One offloading client: how much it ships per request and how often it
/// asks.
#[derive(Debug, Clone, PartialEq)]
pub struct ClientSpec {
    /// Names the session's radio tracks when traced.
    pub label: ClientLabel,
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
            label: ClientLabel::Name(label.into()),
            request_bytes: 64 * 1024,
            response_bytes: 4 * 1024,
            infer_ms: 8.0,
            gap_ms: 2.0,
            period_ms: 100.0,
            jitter_ms: 5.0,
        }
    }

    /// The payload one transfer in `dir` carries.
    fn payload(&self, dir: Direction) -> u64 {
        match dir {
            Direction::Up => self.request_bytes,
            Direction::Down => self.response_bytes,
        }
    }
}

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

/// The roots of a session's three random streams, fixed at construction.
/// Draw `seq` of a stream is keyed off `(root, seq)`, so the roots alone
/// fix every jitter and link draw the session makes.
#[derive(Debug, Clone, Copy)]
struct StreamRoots {
    /// Submit-jitter stream.
    jitter: u64,
    /// Uplink loss/propagation stream (the flow seed of
    /// `plan_transfer`).
    uplink: u64,
    /// Downlink loss/propagation stream.
    downlink: u64,
}

impl StreamRoots {
    /// Every root from the session's own seed.
    fn from_seed(seed: u64) -> Self {
        StreamRoots {
            jitter: mix(seed, 0xC1A5_0001),
            uplink: mix(seed, 0xC1A5_0002),
            downlink: mix(seed, 0xC1A5_0003),
        }
    }

    /// The roots of flow `flow` in a world seeded by `master`.
    fn edge_flow(master: u64, flow: u64) -> Self {
        StreamRoots {
            jitter: mix(master, 0x5EED_0001 ^ flow),
            uplink: mix(mix(master, 0x5EED_0002), flow),
            downlink: mix(mix(master, 0x5EED_0003), flow),
        }
    }

    fn link(&self, dir: Direction) -> u64 {
        match dir {
            Direction::Up => self.uplink,
            Direction::Down => self.downlink,
        }
    }
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
    /// Seed for every random draw this session makes (the jitter and
    /// link streams excepted under [`ClusterParams::edge_master_seed`]).
    /// Carried in the spec (not derived from the vector index) so
    /// relabeling sessions cannot change their behavior.
    pub seed: u64,
}

/// How sessions reach the cluster over the air.
#[derive(Debug, Clone, PartialEq)]
pub enum ClusterRadio {
    /// Every session gets its own private serializer pair; radios never
    /// contend.
    Private,
    /// Sessions walk across shared cells ([`crate::medium`]), with
    /// seed-derived waypoint mobility and handover.
    Shared(SharedMedium),
    /// Sessions contend for one cell, each parked at
    /// `SharedCell::parked(seed)`.
    Cell(SharedCell),
}

/// A walking shared-medium deployment for the cluster: the cell layout
/// plus how the session population moves. Walks derive from each
/// session's own seed, so relabeling invariance holds exactly as in the
/// private model. Parked sessions on one cell are [`ClusterRadio::Cell`].
#[derive(Debug, Clone, PartialEq)]
pub struct SharedMedium {
    /// Cell sites.
    pub medium: MediumParams,
    /// Walking speed of every session, m/s (positive).
    pub walk_speed_mps: f64,
    /// Side of the deployment square waypoints are drawn in, meters.
    pub area_m: f64,
}

impl SharedMedium {
    /// The walk of a session with `seed`.
    fn mobility(&self, seed: u64) -> Mobility {
        Mobility::Waypoints {
            seed,
            speed_mps: self.walk_speed_mps,
            area_m: self.area_m,
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
    /// Keep every session's `(delivery time, latency)` samples
    /// ([`ClusterSim::session_samples`]). Fleet cells leave it off: their
    /// rows need only the pooled histogram. The one-server edge world
    /// turns it on: its per-task means and nearest-rank p95 need the
    /// exact per-flow samples.
    pub keep_samples: bool,
    /// `Some(master)` keys session `i`'s jitter and link streams off
    /// `(master, i)` — the flow streams of the one-server edge world
    /// [`one_server`] builds, whose per-window `EdgeWorld` measurements
    /// are pinned byte-for-byte. `None` (fleet cells) keys them off each
    /// session's own `seed`, so relabeling sessions only permutes them.
    pub edge_master_seed: Option<u64>,
}

impl ClusterParams {
    fn validate(&self) {
        self.link.validate();
        match &self.radio {
            ClusterRadio::Private => {}
            ClusterRadio::Shared(shared) => {
                shared.medium.validate();
                assert!(
                    shared.walk_speed_mps.is_finite() && shared.walk_speed_mps > 0.0,
                    "walk speed must be positive: {} m/s",
                    shared.walk_speed_mps
                );
                assert!(
                    shared.area_m.is_finite() && shared.area_m > 0.0,
                    "deployment area must be positive: {} m",
                    shared.area_m
                );
            }
            ClusterRadio::Cell(cell) => cell.medium_params().validate(),
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

/// The one-server edge world (module docs): `clients` share one `server`
/// over private radios, or over `cell` when given. Flow `i` takes its
/// streams from `master_seed` — jitter `mix(master, 0x5EED_0001 ^ i)`,
/// uplink and downlink `mix(mix(master, 0x5EED_0002/3), i)` — and its
/// seed, which places it on the cell, from
/// `SharedCell::placement_seed(master_seed, i)`. Hand the result to
/// [`ClusterSim::new`].
pub fn one_server(
    link: LinkParams,
    server: ServerParams,
    cell: Option<SharedCell>,
    clients: Vec<ClientSpec>,
    master_seed: u64,
) -> (ClusterParams, Vec<SessionSpec>) {
    let params = ClusterParams {
        link,
        servers: vec![ServerSpec {
            params: server,
            zone: 0,
            speed: 1.0,
        }],
        policy: RoutePolicy::RoundRobin,
        cross_zone_ms: 0.0,
        max_admission_retries: u32::MAX,
        radio: cell.map_or(ClusterRadio::Private, ClusterRadio::Cell),
        keep_samples: true,
        edge_master_seed: Some(master_seed),
    };
    let sessions = clients
        .into_iter()
        .enumerate()
        .map(|(i, client)| SessionSpec {
            client,
            zone: 0,
            arrive_secs: 0.0,
            depart_secs: f64::INFINITY,
            seed: SharedCell::placement_seed(master_seed, i),
        })
        .collect();
    (params, sessions)
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
            // 0.1 ms .. ~1.7 s in 10% steps, matching soc::StreamMetrics.
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
    /// A transfer finished serializing on a private session radio. It
    /// carries the rest of the plan `send` computed for it.
    LaneDone {
        session: usize,
        dir: Direction,
        seq: u64,
        attempts: u32,
        propagation: SimDuration,
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
    /// The shared medium's next internal deadline.
    MediumWake,
}

/// How one session reaches the air.
#[derive(Debug)]
enum SessRadio {
    /// Private uplink and downlink radios. The closed loop keeps at most
    /// one transfer per session and direction in the air, so a private
    /// radio never queues: a transfer is a pure delay of its planned
    /// occupancy.
    Private,
    /// Attached to the shared medium as client id `attach`.
    Shared { attach: usize },
}

/// One session's radio + loop state.
#[derive(Debug)]
struct SessState {
    spec: SessionSpec,
    radio: SessRadio,
    /// Latest scheduled arrival per direction (FIFO clamp), indexed by
    /// `dir as usize`.
    last_delivery: [SimTime; 2],
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
    /// Byte accounting per direction, indexed by `dir as usize`.
    bytes: [ByteCounters; 2],
    /// Jitter and link stream roots ([`ClusterParams::edge_master_seed`]).
    streams: StreamRoots,
}

/// One cluster member's live state.
#[derive(Debug)]
struct ServerState {
    spec: ServerSpec,
    server: EdgeServer<(usize, u64)>,
}

/// Trace track ids; all empty (and never read) when tracing is disabled.
#[derive(Debug, Default)]
struct Tracks {
    /// Per session: uplink and downlink radio-lane span tracks.
    radios: Vec<[TrackId; 2]>,
    /// Per server: admission-queue counter track.
    servers: Vec<TrackId>,
    /// Per server, per worker lane: inference span track.
    lanes: Vec<Vec<TrackId>>,
    /// Per cell: utilization and active-flow counter track (shared mode
    /// only).
    cells: Vec<TrackId>,
    /// Memory-accounting counter track.
    mem: TrackId,
}

struct ClusterState {
    params: ClusterParams,
    /// `params.cross_zone_ms` as a duration.
    cross_zone: SimDuration,
    /// Wait before a rejected request re-enters the router:
    /// `params.link.retx_timeout_ms`, at least 0.5 ms.
    retry_after: SimDuration,
    sessions: Vec<SessState>,
    servers: Vec<ServerState>,
    /// The contended cells, when sessions run shared radios.
    medium: Option<Medium<(usize, u64)>>,
    /// The one pending [`Ev::MediumWake`], replaced on every reschedule.
    wake: Option<EventId>,
    /// Completion buffer [`Medium::advance`] fills on each wake, reused
    /// across wakes.
    medium_done: Vec<Completion<(usize, u64)>>,
    /// Per session and direction (shared radios only): the attempts and
    /// propagation `send` planned for the transfer the medium carries,
    /// read back when the medium completes it. The closed loop keeps at
    /// most one transfer per session and direction in the air.
    medium_plans: Vec<[(u32, SimDuration); 2]>,
    /// Next server index for round-robin.
    rr_next: usize,
    /// Peak admission-queue depth across all servers.
    peak_queue: usize,
    /// Sessions whose closed loop has ended.
    departed: usize,
    metrics: ClusterMetrics,
    /// Per session: `(delivery time, latency ms)` per completion, oldest
    /// first. Empty (no per-session vectors at all) unless
    /// [`ClusterParams::keep_samples`].
    samples: Vec<Vec<(SimTime, f64)>>,
    tracer: Tracer,
    tracks: Tracks,
}

/// Approximate bytes of one queued admission entry: the routed job key
/// plus the service-time payload the FIFO lane holds for it.
const QUEUE_ENTRY_BYTES: usize =
    std::mem::size_of::<(usize, u64)>() + std::mem::size_of::<SimDuration>();

/// The edge-serving simulator (module docs for the world model).
pub struct ClusterSim {
    sim: Simulator<Ev>,
    state: ClusterState,
}

type Sched<'a> = Scheduler<'a, Ev>;

impl ClusterSim {
    /// Builds the cluster world; each session's first submission is
    /// scheduled at its arrival time plus its deterministic jitter.
    ///
    /// The sim records into the tracer in scope when it is built
    /// ([`Tracer::current`]): each session's uplink and downlink radio and
    /// each server worker lane get a span track, each server a counter
    /// track for its admission queue, each shared cell a track for its
    /// per-direction utilization and active flows, and a `mem` track
    /// carries the memory accounting.
    ///
    /// The [`QueueKind`] argument is ignored; see its docs for why it is
    /// still here.
    ///
    /// # Panics
    ///
    /// Panics if the params are invalid or a session departs at or
    /// before it arrives.
    pub fn new(params: ClusterParams, sessions: Vec<SessionSpec>, _queue: QueueKind) -> Self {
        let tracer = Tracer::current();
        params.validate();
        let mut sim = Simulator::new();
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
            ClusterRadio::Cell(cell) => Some(Medium::new(cell.medium_params())),
        };
        let states: Vec<SessState> = sessions
            .into_iter()
            .enumerate()
            .map(|(i, spec)| {
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
                    (Some(m), ClusterRadio::Cell(cell)) => SessRadio::Shared {
                        attach: m.add_client(start, cell.parked(spec.seed)),
                    },
                    _ => SessRadio::Private,
                };
                SessState {
                    radio,
                    last_delivery: [start; 2],
                    started_at: start,
                    seq: 0,
                    in_flight: None,
                    completed: 0,
                    dropped: 0,
                    departed: false,
                    bytes: [ByteCounters::default(); 2],
                    streams: match params.edge_master_seed {
                        None => StreamRoots::from_seed(spec.seed),
                        Some(master) => StreamRoots::edge_flow(master, i as u64),
                    },
                    spec,
                }
            })
            .collect();
        let tracks = if tracer.is_enabled() {
            let track = |name: &str| tracer.register_track("edgelink", name);
            Tracks {
                radios: states
                    .iter()
                    .enumerate()
                    .map(|(session, st)| {
                        let label = st.spec.client.label.session_name(session);
                        [
                            track(&format!("{label} up")),
                            track(&format!("{label} down")),
                        ]
                    })
                    .collect(),
                servers: (0..servers.len())
                    .map(|i| track(&format!("server{i}")))
                    .collect(),
                lanes: servers
                    .iter()
                    .enumerate()
                    .map(|(i, s)| {
                        (0..s.spec.params.worker_lanes)
                            .map(|lane| track(&format!("server{i} lane{lane}")))
                            .collect()
                    })
                    .collect(),
                cells: medium
                    .as_ref()
                    .map(|m| {
                        (0..m.cell_count())
                            .map(|i| track(&format!("cell{i}")))
                            .collect()
                    })
                    .unwrap_or_default(),
                mem: track("mem"),
            }
        } else {
            Tracks::default()
        };
        for (session, st) in states.iter().enumerate() {
            let at = start
                + SimDuration::from_secs_f64(st.spec.arrive_secs)
                + SimDuration::from_nanos(jitter_ns(st, 0));
            sim.schedule(at, Ev::Submit { session });
        }
        let samples = if params.keep_samples {
            vec![Vec::new(); states.len()]
        } else {
            Vec::new()
        };
        let medium_plans = if medium.is_some() {
            vec![[(0, SimDuration::ZERO); 2]; states.len()]
        } else {
            Vec::new()
        };
        ClusterSim {
            sim,
            state: ClusterState {
                cross_zone: SimDuration::from_millis_f64(params.cross_zone_ms),
                retry_after: SimDuration::from_millis_f64(params.link.retx_timeout_ms.max(0.5)),
                params,
                sessions: states,
                servers,
                medium,
                wake: None,
                medium_done: Vec::new(),
                medium_plans,
                rr_next: 0,
                peak_queue: 0,
                departed: 0,
                metrics: ClusterMetrics::default(),
                samples,
                tracer,
                tracks,
            },
        }
    }

    /// Current simulated time.
    pub fn now(&self) -> SimTime {
        self.sim.now()
    }

    /// Runs the simulation until `deadline`.
    pub fn run_until(&mut self, deadline: SimTime) {
        let ClusterSim { sim, state } = self;
        sim.run_until(deadline, |sched, ev| state.handle(sched, ev));
        self.emit_memory_counters();
    }

    /// Reports the cluster's memory footprint as counter samples on the
    /// `mem` track: session state (kept latency samples included), queue
    /// bytes at peak depth, and the shared medium's footprint. No-op when
    /// tracing is disabled, so untraced runs stay bit-identical.
    fn emit_memory_counters(&self) {
        use std::mem::size_of;
        let state = &self.state;
        if !state.tracer.is_enabled() {
            return;
        }
        let now = self.sim.now();
        let track = state.tracks.mem;
        let sample_bytes: usize = state
            .samples
            .iter()
            .map(|s| s.capacity() * size_of::<(SimTime, f64)>())
            .sum();
        state.tracer.counter(
            now,
            track,
            "edgelink",
            "mem session bytes",
            (state.sessions.len() * size_of::<SessState>() + sample_bytes) as f64,
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

    /// Requests submitted and neither delivered nor dropped yet.
    pub fn in_flight(&self) -> usize {
        self.state
            .sessions
            .iter()
            .filter(|s| s.in_flight.is_some())
            .count()
    }

    /// One session's `(delivery time, latency ms)` samples, oldest first;
    /// empty unless [`ClusterParams::keep_samples`].
    pub fn session_samples(&self, session: usize) -> &[(SimTime, f64)] {
        self.state.samples.get(session).map_or(&[], Vec::as_slice)
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

#[cfg(test)]
impl ClusterSim {
    /// Sessions whose closed loop has ended (departures so far).
    pub(crate) fn departed(&self) -> usize {
        self.state.departed
    }

    /// Round trips completed by one session.
    pub(crate) fn session_completed(&self, session: usize) -> u64 {
        self.state.sessions[session].completed
    }

    /// Requests dropped for one session.
    pub(crate) fn session_dropped(&self, session: usize) -> u64 {
        self.state.sessions[session].dropped
    }

    /// One session's byte accounting in `dir`.
    pub(crate) fn session_bytes(&self, session: usize, dir: Direction) -> ByteCounters {
        self.state.sessions[session].bytes[dir as usize]
    }
}

/// Deterministic submit-jitter draw in ns for a session's request `seq`.
fn jitter_ns(st: &SessState, seq: u64) -> u64 {
    let jitter_ms = st.spec.client.jitter_ms;
    if jitter_ms <= 0.0 {
        return 0;
    }
    let span = SimDuration::from_millis_f64(jitter_ms).as_nanos().max(1);
    mix(st.streams.jitter, seq) % span
}

impl ClusterState {
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
            self.cross_zone
        }
    }

    fn handle(&mut self, sched: &mut Sched<'_>, ev: Ev) {
        match ev {
            Ev::Submit { session } => self.submit(sched, session),
            Ev::LaneDone {
                session,
                dir,
                seq,
                attempts,
                propagation,
            } => {
                if self.tracer.is_enabled() {
                    let track = self.tracks.radios[session][dir as usize];
                    self.tracer.end(sched.now(), track, "edgelink");
                }
                self.transferred(sched, session, dir, seq, attempts, propagation);
            }
            Ev::Arrived { session, dir, seq } => {
                let st = &mut self.sessions[session];
                st.bytes[dir as usize].delivered += st.spec.client.payload(dir);
                match dir {
                    Direction::Up => self.dispatch(sched, session, seq, 0),
                    Direction::Down => self.response_delivered(sched, session, seq),
                }
            }
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
            Ev::MediumWake => self.medium_wake(sched),
        }
    }

    /// A session submits request `seq`: its uplink radio serializes it.
    fn submit(&mut self, sched: &mut Sched<'_>, session: usize) {
        let now = sched.now();
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
        self.send(sched, session, Direction::Up, seq);
    }

    /// Plans transfer `seq` in `dir` once and hands it to the session's
    /// radio: its private radio holds it for its planned occupancy, or the
    /// shared medium carries its airtime (payload × attempts).
    /// `ClusterSim::new` validated the link, and nothing mutates it
    /// afterwards.
    fn send(&mut self, sched: &mut Sched<'_>, session: usize, dir: Direction, seq: u64) {
        let now = sched.now();
        let st = &mut self.sessions[session];
        let bytes = st.spec.client.payload(dir);
        let plan = plan_transfer(&self.params.link, dir, bytes, st.streams.link(dir), seq);
        st.bytes[dir as usize].offered += bytes;
        match st.radio {
            SessRadio::Private => {
                sched.schedule_at(
                    now + plan.occupancy,
                    Ev::LaneDone {
                        session,
                        dir,
                        seq,
                        attempts: plan.attempts,
                        propagation: plan.propagation,
                    },
                );
                self.trace_lane_begin(now, session, dir, seq, plan.attempts);
            }
            SessRadio::Shared { attach } => {
                let airtime = plan.attempts as u64 * bytes;
                self.medium_plans[session][dir as usize] = (plan.attempts, plan.propagation);
                let m = self.medium.as_mut().expect("shared radio without a medium");
                m.start_flow(now, attach, dir, airtime as f64, (session, seq));
                self.emit_cell_counters(now);
                self.reschedule_wake(sched);
            }
        }
    }

    /// Emits the begin-span for a transfer occupying a private radio.
    /// No-op when tracing is disabled.
    fn trace_lane_begin(
        &self,
        now: SimTime,
        session: usize,
        dir: Direction,
        seq: u64,
        attempts: u32,
    ) {
        if !self.tracer.is_enabled() {
            return;
        }
        let bytes = self.sessions[session].spec.client.payload(dir);
        self.tracer.begin(
            now,
            self.tracks.radios[session][dir as usize],
            "edgelink",
            match dir {
                Direction::Up => "up",
                Direction::Down => "down",
            },
            &[
                ("seq", ArgValue::U64(seq)),
                ("bytes", ArgValue::U64(bytes)),
                ("attempts", ArgValue::U64(attempts as u64)),
            ],
        );
    }

    /// Replaces the pending wake-up with one at the medium's next
    /// internal deadline, if it has one.
    fn reschedule_wake(&mut self, sched: &mut Sched<'_>) {
        if let Some(id) = self.wake.take() {
            sched.cancel(id);
        }
        let next = self.medium.as_ref().and_then(Medium::next_deadline);
        self.wake = next.map(|t| sched.schedule_at(t.max(sched.now()), Ev::MediumWake));
    }

    /// The medium hit an internal deadline (flow completion or mobility
    /// tick): advance it and hand finished transfers to the same
    /// post-serialization path the private radios use, with the plan
    /// `send` stored for each.
    fn medium_wake(&mut self, sched: &mut Sched<'_>) {
        let now = sched.now();
        self.wake = None;
        let m = self.medium.as_mut().expect("medium wake without a medium");
        let mut done = std::mem::take(&mut self.medium_done);
        m.advance(now, &mut done);
        for c in done.drain(..) {
            let (session, seq) = c.key;
            let (attempts, propagation) = self.medium_plans[session][c.dir as usize];
            self.transferred(sched, session, c.dir, seq, attempts, propagation);
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
        for (cell, &track) in self.tracks.cells.iter().enumerate() {
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

    /// A transfer of `attempts` attempts finished its airtime (private
    /// radio or shared medium): account transmitted bytes and
    /// retransmissions, pay the return hop on responses, and schedule the
    /// in-order arrival after `propagation`.
    fn transferred(
        &mut self,
        sched: &mut Sched<'_>,
        session: usize,
        dir: Direction,
        seq: u64,
        attempts: u32,
        propagation: SimDuration,
    ) {
        let now = sched.now();
        let extra = match dir {
            Direction::Up => SimDuration::ZERO,
            Direction::Down => {
                let server = self.sessions[session].in_flight.map_or(0, |f| f.server);
                self.hop(session, server)
            }
        };
        let st = &mut self.sessions[session];
        let bytes = st.spec.client.payload(dir);
        st.bytes[dir as usize].transmitted += attempts as u64 * bytes;
        if attempts > 1 {
            self.metrics.retransmits += attempts as u64 - 1;
        }
        // FIFO per flow despite jitter: never arrive before an earlier
        // transfer in the same direction.
        let last = &mut st.last_delivery[dir as usize];
        let arrive = (now + propagation + extra).max(*last);
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
                self.trace_server_begin(now, server, start.slot, start.key);
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
                        self.retry_after,
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

    /// Emits the begin-span for a request entering a server worker lane.
    /// No-op when tracing is disabled.
    fn trace_server_begin(&self, now: SimTime, server: usize, slot: usize, key: (usize, u64)) {
        if !self.tracer.is_enabled() {
            return;
        }
        let (session, seq) = key;
        self.tracer.begin(
            now,
            self.tracks.lanes[server][slot],
            "edgelink",
            "infer",
            &[
                ("session", ArgValue::U64(session as u64)),
                ("seq", ArgValue::U64(seq)),
            ],
        );
    }

    /// Emits one server's admission-queue depth and busy-lane counters.
    /// No-op when tracing is disabled.
    fn emit_server_counters(&self, now: SimTime, server: usize) {
        if !self.tracer.is_enabled() {
            return;
        }
        let track = self.tracks.servers[server];
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
        if self.tracer.is_enabled() {
            self.tracer
                .end(now, self.tracks.lanes[server][slot], "edgelink");
            if let Some(start) = next {
                self.trace_server_begin(now, server, start.slot, start.key);
            }
        }
        self.emit_server_counters(now, server);
        self.send(sched, session, Direction::Down, seq);
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
        if self.params.keep_samples {
            self.samples[session].push((now, latency_ms));
        }
        self.metrics.record(latency_ms);
        if self.tracer.is_enabled() {
            self.tracer.instant(
                now,
                self.tracks.radios[session][Direction::Down as usize],
                "edgelink",
                "delivered",
                &[
                    ("seq", ArgValue::U64(seq)),
                    ("latency_ms", ArgValue::F64(latency_ms)),
                ],
            );
        }
        self.schedule_next_submit(sched, session);
    }

    /// Rate-anchored next submission; the session departs instead when
    /// its time is up.
    fn schedule_next_submit(&mut self, sched: &mut Sched<'_>, session: usize) {
        let now = sched.now();
        let st = &mut self.sessions[session];
        let mut next = now + SimDuration::from_millis_f64(st.spec.client.gap_ms);
        next = next.max(st.started_at + SimDuration::from_millis_f64(st.spec.client.period_ms));
        next += SimDuration::from_nanos(jitter_ns(st, st.seq));
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

    fn cluster_sim(params: ClusterParams, sessions: Vec<SessionSpec>) -> ClusterSim {
        ClusterSim::new(params, sessions, QueueKind::Heap)
    }

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
            keep_samples: false,
            edge_master_seed: None,
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
            let mut sim = cluster_sim(two_zone_params(policy), sessions(6, 10.0));
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
                let mut sim = cluster_sim(two_zone_params(policy), sessions(5, 8.0));
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
    fn locality_avoids_cross_zone_hops_when_it_can() {
        // All sessions in zone 0, servers in both zones: locality must
        // never admit on the zone-1 server while zone 0 has capacity.
        let mut params = two_zone_params(RoutePolicy::Locality);
        params.servers[0].params.queue_capacity = 64;
        let sess: Vec<SessionSpec> = (0..4).map(|i| session(i, 0, 8.0)).collect();
        let mut sim = cluster_sim(params, sess);
        sim.run_for_secs(8.0);
        let (admitted_far, _, _) = sim.server_counters(1);
        assert_eq!(admitted_far, 0, "locality crossed zones needlessly");
        assert!(sim.metrics().completed() > 50);
    }

    #[test]
    fn round_robin_spreads_offers_evenly() {
        let mut params = two_zone_params(RoutePolicy::RoundRobin);
        params.cross_zone_ms = 0.0;
        let mut sim = cluster_sim(params, sessions(4, 10.0));
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
            keep_samples: false,
            edge_master_seed: None,
        };
        let sess: Vec<SessionSpec> = (0..8)
            .map(|i| {
                let mut s = session(i, 0, 10.0);
                s.client.infer_ms = 80.0;
                s.client.period_ms = 40.0;
                s
            })
            .collect();
        let mut sim = cluster_sim(params, sess);
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
                    .filter(|&s| sim.state.sessions[s].in_flight.is_some())
                    .count() as u64
        );
    }

    #[test]
    fn churn_starts_and_stops_sessions_on_time() {
        let params = two_zone_params(RoutePolicy::ShortestQueue);
        let mut sess = sessions(3, 4.0);
        sess[1].arrive_secs = 6.0;
        sess[1].depart_secs = 9.0;
        let mut sim = cluster_sim(params, sess);
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
                let mut sim = cluster_sim(two_zone_params(policy), sess);
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

    /// The two-zone cluster with every session parked in the stadium cell.
    fn shared_params(policy: RoutePolicy) -> ClusterParams {
        let mut p = two_zone_params(policy);
        p.radio = ClusterRadio::Cell(SharedCell::stadium());
        p
    }

    #[test]
    fn shared_radio_completes_round_trips_and_conserves_bytes() {
        let mut sim = cluster_sim(shared_params(RoutePolicy::ShortestQueue), sessions(6, 10.0));
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
    fn shared_radio_is_deterministic_across_runs() {
        let run = || {
            let mut sim = cluster_sim(shared_params(RoutePolicy::PowerOfTwo), sessions(5, 8.0));
            sim.run_for_secs(8.0);
            (
                sim.metrics().completed(),
                sim.metrics().submitted,
                sim.metrics().dropped,
                sim.metrics().mean_ms().map(f64::to_bits),
            )
        };
        assert_eq!(run(), run(), "shared cell diverged across runs");
    }

    #[test]
    fn shared_radio_preserves_relabeling_invariance() {
        // Placement keys off the session seed, not the vector index, so
        // the relabeling guarantee must survive shared cells.
        let run = |order: &[usize]| {
            let base = sessions(5, 8.0);
            let sess: Vec<SessionSpec> = order.iter().map(|&i| base[i].clone()).collect();
            let mut sim = cluster_sim(shared_params(RoutePolicy::ShortestQueue), sess);
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
        });
        params.radio = ClusterRadio::Shared(SharedMedium {
            medium,
            walk_speed_mps: 12.0,
            area_m: 120.0,
        });
        let mut sim = cluster_sim(params, sessions(8, 30.0));
        sim.run_for_secs(30.0);
        assert!(
            sim.handovers() > 0,
            "fast walkers across a 120 m deployment never handed over"
        );
        assert!(sim.metrics().completed() > 100);
        sim.medium().unwrap().check_invariants();
    }

    #[test]
    #[should_panic(expected = "walk speed must be positive: 0 m/s")]
    fn zero_walk_speed_is_rejected() {
        let mut params = two_zone_params(RoutePolicy::ShortestQueue);
        params.radio = ClusterRadio::Shared(SharedMedium {
            medium: MediumParams::single_cell(120.0, 240.0),
            walk_speed_mps: 0.0,
            area_m: 40.0,
        });
        cluster_sim(params, sessions(2, 1.0));
    }

    #[test]
    fn sess_radio_is_at_most_two_words() {
        // Sessions carry nothing (private) or one attachment id (shared)
        // plus the discriminant, never per-session serializer state.
        assert!(
            std::mem::size_of::<SessRadio>() <= 2 * std::mem::size_of::<usize>(),
            "SessRadio grew past two words: {} bytes",
            std::mem::size_of::<SessRadio>()
        );
    }

    #[test]
    #[cfg(target_pointer_width = "64")]
    fn session_state_and_event_sizes_are_pinned() {
        use std::mem::size_of;
        assert_eq!(
            size_of::<SessState>(),
            280,
            "SessState changed size: the traced `mem session bytes` counter is \
             sessions × size_of::<SessState>(), so the trace and exposition \
             digests pinned in tests/end_to_end.rs::observed_exports_are_pinned \
             move with it"
        );
        assert!(
            size_of::<Ev>() <= 32,
            "Ev grew past 32 bytes: {} (every pending event pays it)",
            size_of::<Ev>()
        );
    }

    /// A link that loses 30% of attempts, so most transfers of a run
    /// plan more than one attempt somewhere.
    fn lossy_link() -> LinkParams {
        LinkParams {
            loss_prob: 0.3,
            ..LinkParams::wifi()
        }
    }

    /// The stream roots of `session`, derived from the params and spec
    /// alone.
    fn roots_of(params: &ClusterParams, session: usize, spec: &SessionSpec) -> StreamRoots {
        match params.edge_master_seed {
            None => StreamRoots::from_seed(spec.seed),
            Some(master) => StreamRoots::edge_flow(master, session as u64),
        }
    }

    /// Runs a traced sim for `secs` and checks every private radio track:
    /// `Begin` and `End` strictly alternate (a private radio never holds
    /// two transfers), and each span lasts exactly the occupancy
    /// `plan_transfer` gives for its `(stream, seq)`.
    /// Returns the sim and the number of spans checked.
    fn run_checking_radio_spans(
        params: ClusterParams,
        sessions: Vec<SessionSpec>,
        secs: f64,
    ) -> (ClusterSim, usize) {
        use simcore::trace::TracePhase;

        let specs = sessions.clone();
        let tracer = Tracer::observing(true, false);
        let mut sim =
            simcore::trace::observe(tracer.clone(), || cluster_sim(params.clone(), sessions));
        sim.run_for_secs(secs);
        let buf = tracer.snapshot().0.expect("chrome buffering is on");
        let mut spans = 0;
        for (session, spec) in specs.iter().enumerate() {
            let roots = roots_of(&params, session, spec);
            for dir in [Direction::Up, Direction::Down] {
                let track = sim.state.tracks.radios[session][dir as usize];
                let mut open: Option<(u64, u64)> = None;
                for r in buf.records.iter().filter(|r| r.track == track) {
                    match r.phase {
                        TracePhase::Begin => {
                            assert!(
                                open.is_none(),
                                "session {session} {dir:?}: two transfers on one private radio"
                            );
                            let seq = r
                                .args
                                .iter()
                                .find_map(|(k, v)| match (*k, v) {
                                    ("seq", ArgValue::U64(seq)) => Some(*seq),
                                    _ => None,
                                })
                                .expect("radio span without a seq");
                            open = Some((r.at_ns, seq));
                        }
                        TracePhase::End => {
                            let (began, seq) = open.take().unwrap_or_else(|| {
                                panic!("session {session} {dir:?}: end without a begin")
                            });
                            let bytes = spec.client.payload(dir);
                            let plan =
                                plan_transfer(&params.link, dir, bytes, roots.link(dir), seq);
                            assert_eq!(
                                r.at_ns - began,
                                plan.occupancy.as_nanos(),
                                "session {session} {dir:?} seq {seq}: span is not its occupancy"
                            );
                            spans += 1;
                        }
                        _ => {}
                    }
                }
            }
        }
        (sim, spans)
    }

    #[test]
    fn private_radios_hold_one_transfer_for_its_planned_occupancy() {
        // Saturated two-zone cells under every policy: rejects, retries
        // and drops all interleave with lossy transfers.
        for policy in RoutePolicy::ALL {
            let mut params = two_zone_params(policy);
            params.link = lossy_link();
            for s in &mut params.servers {
                s.params.queue_capacity = 1;
            }
            let sess: Vec<SessionSpec> = (0..12)
                .map(|i| {
                    let mut s = session(i, (i % 2) as usize, 6.0);
                    s.client.infer_ms = 60.0;
                    s.client.period_ms = 40.0;
                    s
                })
                .collect();
            let (sim, spans) = run_checking_radio_spans(params, sess, 6.0);
            let m = sim.metrics();
            assert!(m.dropped > 0, "{}: cell not saturated", policy.name());
            assert!(m.retransmits > 0, "{}: no retransmits", policy.name());
            assert!(spans > 100, "{}: only {spans} spans", policy.name());
        }
        // The one-server world retries every reject until it is admitted.
        let mut specs = clients(6);
        for s in &mut specs {
            s.infer_ms = 60.0;
            s.period_ms = 50.0;
        }
        let server = ServerParams {
            worker_lanes: 1,
            queue_capacity: 0,
        };
        let (params, sessions) = one_server(lossy_link(), server, None, specs, 3);
        let (sim, spans) = run_checking_radio_spans(params, sessions, 6.0);
        assert!(sim.metrics().reject_events > 0, "one server never rejected");
        assert!(sim.metrics().retransmits > 0);
        assert!(spans > 100, "only {spans} spans");
    }

    #[test]
    fn transmitted_bytes_match_the_planned_attempts() {
        // Lossy private radios, a queue nothing overflows, and a run long
        // past every departure: every transfer has finished, so each
        // direction put Σ attempts × payload bytes on the air.
        let params = two_zone_params(RoutePolicy::ShortestQueue);
        check_transmitted_bytes_match_the_planned_attempts(params);
    }

    /// The same oracle on a shared medium, whose completions carry the
    /// plan `send` stored instead of an event field.
    #[test]
    fn shared_transmitted_bytes_match_the_planned_attempts() {
        let mut params = two_zone_params(RoutePolicy::ShortestQueue);
        params.radio = ClusterRadio::Shared(SharedMedium {
            medium: MediumParams::single_cell(120.0, 240.0),
            walk_speed_mps: 1.5,
            area_m: 40.0,
        });
        check_transmitted_bytes_match_the_planned_attempts(params);
    }

    fn check_transmitted_bytes_match_the_planned_attempts(mut params: ClusterParams) {
        params.link = lossy_link();
        for s in &mut params.servers {
            s.params.queue_capacity = 64;
        }
        let specs = sessions(8, 5.0);
        let mut sim = cluster_sim(params.clone(), specs.clone());
        sim.run_for_secs(8.0);
        assert_eq!(sim.departed(), specs.len());
        assert_eq!(sim.in_flight(), 0);
        assert_eq!(sim.metrics().dropped, 0);
        let mut retransmits = 0;
        for (session, spec) in specs.iter().enumerate() {
            let n = sim.session_completed(session);
            assert!(n > 0, "session {session} never completed");
            let roots = roots_of(&params, session, spec);
            for dir in [Direction::Up, Direction::Down] {
                let payload = spec.client.payload(dir);
                let attempts: Vec<u64> = (1..=n)
                    .map(|seq| {
                        plan_transfer(&params.link, dir, payload, roots.link(dir), seq).attempts
                            as u64
                    })
                    .collect();
                let bytes = sim.session_bytes(session, dir);
                assert_eq!(bytes.offered, n * payload);
                assert_eq!(bytes.delivered, n * payload);
                assert_eq!(
                    bytes.transmitted,
                    attempts.iter().sum::<u64>() * payload,
                    "session {session} {dir:?}"
                );
                retransmits += attempts.iter().map(|a| a - 1).sum::<u64>();
            }
        }
        assert!(retransmits > 0, "a 30% loss link never retransmitted");
        assert_eq!(sim.metrics().retransmits, retransmits);
    }

    fn clients(n: usize) -> Vec<ClientSpec> {
        (0..n)
            .map(|i| ClientSpec::mar_default(format!("c{i}")))
            .collect()
    }

    /// The one-server edge world, untraced.
    fn edge_sim(
        link: LinkParams,
        server: ServerParams,
        cell: Option<SharedCell>,
        clients: Vec<ClientSpec>,
        seed: u64,
    ) -> ClusterSim {
        let (params, sessions) = one_server(link, server, cell, clients, seed);
        cluster_sim(params, sessions)
    }

    /// Mean of the per-session mean latencies.
    fn mean_of_session_means(sim: &ClusterSim) -> f64 {
        let n = sim.session_count();
        (0..n)
            .map(|s| {
                let samples = sim.session_samples(s);
                samples.iter().map(|&(_, l)| l).sum::<f64>() / samples.len() as f64
            })
            .sum::<f64>()
            / n as f64
    }

    /// Every session's samples, bit-exact, session-major.
    fn all_samples(sim: &ClusterSim) -> Vec<(SimTime, u64)> {
        (0..sim.session_count())
            .flat_map(|s| {
                sim.session_samples(s)
                    .iter()
                    .map(|&(t, l)| (t, l.to_bits()))
            })
            .collect()
    }

    #[test]
    fn one_server_world_runs_forever_on_one_hop_free_server() {
        let (params, sessions) = one_server(
            LinkParams::wifi(),
            ServerParams::small(),
            Some(SharedCell::stadium()),
            clients(3),
            5,
        );
        assert_eq!(params.servers.len(), 1);
        assert_eq!(params.servers[0].zone, 0);
        assert_eq!(params.servers[0].speed, 1.0);
        assert_eq!(params.max_admission_retries, u32::MAX);
        assert!(params.keep_samples);
        assert_eq!(params.edge_master_seed, Some(5));
        assert_eq!(params.radio, ClusterRadio::Cell(SharedCell::stadium()));
        for s in &sessions {
            assert_eq!((s.zone, s.arrive_secs), (0, 0.0));
            assert_eq!(s.depart_secs, f64::INFINITY);
        }
        let mut sim = cluster_sim(params, sessions);
        sim.run_for_secs(5.0);
        assert_eq!(sim.departed(), 0);
        for s in 0..3 {
            assert_eq!(
                sim.session_samples(s).len() as u64,
                sim.session_completed(s)
            );
        }
    }

    #[test]
    fn single_client_latency_matches_unloaded_estimate() {
        let link = quiet_link();
        let spec = ClientSpec::mar_default("solo");
        let estimate =
            link.unloaded_offload_ms(spec.request_bytes, spec.response_bytes, spec.infer_ms);
        let mut sim = edge_sim(link, ServerParams::small(), None, vec![spec], 1);
        sim.run_for_secs(10.0);
        assert!(sim.metrics().completed() > 50);
        // No contention, no loss, no jitter: measured == estimate.
        let mean = sim.metrics().mean_ms().expect("completions");
        assert!(
            (mean - estimate).abs() < 1e-6,
            "measured {mean} vs estimate {estimate}"
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
            let mut sim = edge_sim(quiet_link(), server, None, clients(n), 2);
            sim.run_for_secs(20.0);
            means.push(mean_of_session_means(&sim));
        }
        assert!(
            means[0] < means[1] && means[1] < means[2],
            "means = {means:?}"
        );
    }

    #[test]
    fn rejections_retry_and_never_drop_at_unbounded_retries() {
        let server = ServerParams {
            worker_lanes: 1,
            queue_capacity: 0,
        };
        let mut specs = clients(6);
        for s in &mut specs {
            s.infer_ms = 60.0; // server-bound: 6 clients × 10 Hz × 60 ms ≫ 1 lane
            s.period_ms = 50.0;
        }
        let mut sim = edge_sim(quiet_link(), server, None, specs, 3);
        sim.run_for_secs(10.0);
        let (_, rejected, _) = sim.server_counters(0);
        assert!(rejected > 0, "expected rejections under overload");
        assert_eq!(rejected, sim.metrics().reject_events);
        // Rejected requests retry until admitted: nothing is dropped, and
        // every request is delivered or still in flight (at most one per
        // closed-loop session).
        let m = sim.metrics();
        assert_eq!(m.dropped, 0);
        assert!(sim.in_flight() <= 6);
        assert_eq!(m.submitted, m.completed() + sim.in_flight() as u64);
        for s in 0..6 {
            assert!(sim.session_completed(s) > 0);
        }
    }

    #[test]
    fn tracer_captures_radio_and_server_lane_spans() {
        use simcore::trace::TracePhase;

        let mut link = LinkParams::wifi();
        link.loss_prob = 0.3; // force retransmissions
        let tracer = Tracer::observing(true, false);
        let (params, sessions) = one_server(link, ServerParams::small(), None, clients(2), 11);
        let mut sim = simcore::trace::observe(tracer.clone(), || cluster_sim(params, sessions));
        sim.run_for_secs(5.0);
        let buf = tracer.snapshot().0.expect("chrome buffering is on");
        // Tracks: per session up/down, per server lane, plus the server's
        // admission track and the memory-accounting track.
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
        assert!(buf.records.iter().any(|r| r.name == "infer"));
        // With 30% loss some transfer must carry a retransmit attempt.
        let has_retx = buf.records.iter().any(|r| {
            r.args
                .iter()
                .any(|(k, v)| *k == "attempts" && matches!(v, ArgValue::U64(n) if *n > 1))
        });
        assert!(has_retx, "expected at least one attempts>1 span");
        assert!(sim.metrics().retransmits > 0);
        // Delivery instants carry the measured latency.
        assert!(buf
            .records
            .iter()
            .any(|r| r.phase == TracePhase::Instant && r.name == "delivered"));
    }

    #[test]
    fn tracing_does_not_change_flow_measurements() {
        for cell in [None, Some(SharedCell::stadium())] {
            let run = |tracer: Tracer| {
                let (params, sessions) = one_server(
                    LinkParams::wifi(),
                    ServerParams::small(),
                    cell,
                    clients(3),
                    9,
                );
                let mut sim = simcore::trace::observe(tracer, || cluster_sim(params, sessions));
                sim.run_for_secs(10.0);
                all_samples(&sim)
            };
            // Neither the instrumentation alone nor both outputs on move
            // a sample.
            let plain = run(Tracer::disabled());
            assert_eq!(plain, run(Tracer::observing(false, false)));
            assert_eq!(plain, run(Tracer::observing(true, true)));
        }
    }

    #[test]
    fn shared_cell_contention_raises_latency_with_client_count() {
        // The *radio* is the bottleneck here: a big server (so admission
        // never binds) still slows everyone down as the cell fills.
        let server = ServerParams {
            worker_lanes: 16,
            queue_capacity: 64,
        };
        let mut means = Vec::new();
        for n in [1usize, 8, 24] {
            let cell = Some(SharedCell::stadium());
            let mut sim = edge_sim(quiet_link(), server, cell, clients(n), 5);
            sim.run_for_secs(20.0);
            means.push(mean_of_session_means(&sim));
        }
        assert!(
            means[0] < means[1] && means[1] < means[2],
            "means = {means:?}"
        );
    }

    #[test]
    fn deterministic_across_runs() {
        let run = || {
            let mut sim = edge_sim(
                LinkParams::wifi(),
                ServerParams::small(),
                None,
                clients(4),
                7,
            );
            sim.run_for_secs(15.0);
            all_samples(&sim)
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn shared_cell_deterministic_across_runs() {
        let run = || {
            let cell = Some(SharedCell::stadium());
            let mut sim = edge_sim(
                LinkParams::wifi(),
                ServerParams::small(),
                cell,
                clients(6),
                13,
            );
            sim.run_for_secs(10.0);
            all_samples(&sim)
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn shared_cell_conserves_medium_bytes() {
        let cell = Some(SharedCell::stadium());
        let mut sim = edge_sim(
            LinkParams::wifi(),
            ServerParams::small(),
            cell,
            clients(8),
            21,
        );
        sim.run_for_secs(12.0);
        let m = sim.medium().expect("shared sim has a medium");
        m.check_invariants();
        // Whatever the medium carried is either delivered or still in
        // flight; the closed loop keeps at most one request per flow out.
        assert!(m.delivered_bytes() > 0.0);
        assert!(m.offered_bytes() >= m.delivered_bytes());
        assert_eq!(sim.handovers(), 0, "parked clients never hand over");
    }
}
