//! Shared-medium radio cells: fair-share bandwidth with progress-based
//! reallocation, client mobility, and mid-session handover.
//!
//! The private radios of [`crate::cluster`] give every session its own
//! serialization pipe, so N clients on one AP never contend for airtime.
//! This module models the regime that actually drives offload
//! decisions in dense MAR deployments: one (or more) cells of fixed capacity
//! whose concurrent flows *fair-share* the medium, with rates re-solved on
//! every flow arrival, departure, rate-cap change, or cross-traffic phase
//! flip.
//!
//! # Progress-based reallocation
//!
//! Following the dslab-network shared-bandwidth design, each in-flight
//! transfer tracks `remaining` bytes rather than a fixed completion time.
//! At every boundary (flow start, completion instant, mobility tick,
//! cross-traffic flip) every flow is *settled* (`remaining -= rate ×
//! elapsed`), the allocation is re-solved, and every flow's completion
//! deadline is recomputed from its settled `remaining`. [`simcore`]'s
//! scheduler has no event cancellation, so the host simulator keeps
//! exactly one logical wake-up outstanding: it schedules an event at
//! [`Medium::next_deadline`] carrying [`Medium::wake_gen`], and ignores any
//! event whose generation is stale. Every mutation bumps the generation.
//!
//! The re-solve is incremental. Each `(cell, direction)` lane caches its
//! water-fill order, the active flows sorted by `(client cap, slot)`, and
//! the effective capacity its stored rates were solved under. A lane turns
//! *dirty* when its membership or a member's cap changes: a flow starts or
//! completes in it, or a mobility tick moves a member's cap or hands the
//! member over. Only a dirty lane re-sorts its order; a clean lane whose
//! capacity is bit-equal to the last solve's keeps its stored rates, since
//! water-filling the same order under the same capacity gives the same
//! bits. The earliest completion deadline is folded during the re-solve
//! and the earliest mobility tick is cached, so [`Medium::next_deadline`]
//! only scans the cells for cross-traffic flips. Deadlines themselves are
//! still recomputed for every flow at every boundary: `remaining` is
//! settled there, and computing `ceil(remaining / rate)` from a different
//! settlement point would round differently and could reorder events that
//! land on the same instant.
//!
//! # Fair share
//!
//! Within one cell and direction, rates solve the max-min water-filling
//! problem under per-client caps: flows whose distance-dependent cap is
//! below the equal share get their cap; the residual capacity is split
//! equally among the rest. Uplink and downlink are independent pools.
//! Optional deterministic cross-traffic (a square wave) subtracts from the
//! cell capacity while "on".
//!
//! # Mobility and handover
//!
//! A client is either [`Mobility::Fixed`] or walks a piecewise-linear random
//! waypoint path derived from a per-client seed (`0x3E11_*`-keyed streams,
//! so placement never perturbs other draws). Walking clients are re-evaluated
//! on a fixed tick: position → distance to the serving cell → rate cap; if
//! another cell is closer by more than the hysteresis margin, the client
//! hands over and its in-flight flows move with it, bytes preserved.

use simcore::rng::mix;
use simcore::{SimDuration, SimTime};

use crate::link::Direction;

/// Tag for the waypoint-leg stream of a walking client.
const TAG_WAYPOINT: u64 = 0x3E11_0001;
/// Tag for the initial-placement draw of a client.
const TAG_PLACEMENT: u64 = 0x3E11_0002;

/// Bytes-per-nanosecond for a megabit-per-second figure.
fn bytes_per_ns(mbps: f64) -> f64 {
    mbps / 8000.0
}

/// Megabits-per-second for a bytes-per-nanosecond rate.
fn to_mbps(bpns: f64) -> f64 {
    bpns * 8000.0
}

/// Uniform in `[0, 1)` from a mixed hash.
fn unit(x: u64) -> f64 {
    (x >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
}

/// A flow finishing below this many bytes counts as complete (the ceil on
/// the deadline means settlement can undershoot zero by float dust).
const EPS_BYTES: f64 = 1e-4;

/// Distance-dependent per-client rate cap: `peak / (1 + (d/d_ref)^alpha)`.
///
/// A smooth stand-in for rate adaptation: near the AP a client modulates at
/// `peak_mbps`; at `d_ref_m` it has fallen to half; far out it decays like
/// `d^-alpha`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RateLaw {
    /// Cap at distance zero, in Mbit/s.
    pub peak_mbps: f64,
    /// Distance at which the cap halves, in meters.
    pub d_ref_m: f64,
    /// Decay exponent beyond `d_ref_m`.
    pub alpha: f64,
}

impl RateLaw {
    /// A Wi-Fi-like cell: 120 Mbit/s at the AP, halved at 20 m, cubic decay.
    pub fn wifi_cell() -> Self {
        RateLaw {
            peak_mbps: 120.0,
            d_ref_m: 20.0,
            alpha: 3.0,
        }
    }

    /// The rate cap at `d_m` meters, in Mbit/s.
    pub fn cap_mbps(&self, d_m: f64) -> f64 {
        self.peak_mbps / (1.0 + (d_m / self.d_ref_m).powf(self.alpha))
    }
}

/// Deterministic on/off background load on a cell: a square wave that
/// subtracts `load_mbps` from the cell capacity for the first `duty`
/// fraction of every `period_ms` window (simulation-start aligned).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CrossTraffic {
    /// Capacity stolen while the wave is "on", in Mbit/s.
    pub load_mbps: f64,
    /// Wave period, in milliseconds.
    pub period_ms: f64,
    /// Fraction of the period the wave is on, in `(0, 1)`.
    pub duty: f64,
}

impl CrossTraffic {
    /// Is the wave on at `now`?
    fn is_on(&self, now: SimTime) -> bool {
        let period = SimDuration::from_millis_f64(self.period_ms).as_nanos();
        let on = SimDuration::from_millis_f64(self.period_ms * self.duty).as_nanos();
        now.as_nanos() % period < on
    }

    /// The next instant strictly after `now` at which the wave flips.
    fn next_flip(&self, now: SimTime) -> SimTime {
        let period = SimDuration::from_millis_f64(self.period_ms).as_nanos();
        let on = SimDuration::from_millis_f64(self.period_ms * self.duty).as_nanos();
        let phase = now.as_nanos() % period;
        let until = if phase < on {
            on - phase
        } else {
            period - phase
        };
        now + SimDuration::from_nanos(until.max(1))
    }
}

/// One cell site: a position and a shared capacity per direction.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CellParams {
    /// AP position, meters.
    pub x_m: f64,
    /// AP position, meters.
    pub y_m: f64,
    /// Shared uplink capacity, Mbit/s.
    pub uplink_mbps: f64,
    /// Shared downlink capacity, Mbit/s.
    pub downlink_mbps: f64,
    /// Optional deterministic background load.
    pub cross: Option<CrossTraffic>,
}

impl CellParams {
    /// The nominal (cross-traffic-free) capacity for `dir`, Mbit/s.
    fn capacity_mbps(&self, dir: Direction) -> f64 {
        match dir {
            Direction::Up => self.uplink_mbps,
            Direction::Down => self.downlink_mbps,
        }
    }

    /// The effective capacity for `dir` at `now`, Mbit/s.
    fn effective_mbps(&self, dir: Direction, now: SimTime) -> f64 {
        let c = self.capacity_mbps(dir);
        match self.cross {
            Some(x) if x.is_on(now) => (c - x.load_mbps).max(0.0),
            _ => c,
        }
    }
}

/// The shared-medium deployment: cells plus the client-side radio physics.
#[derive(Debug, Clone, PartialEq)]
pub struct MediumParams {
    /// Cell sites (at least one).
    pub cells: Vec<CellParams>,
    /// Distance → per-client rate cap.
    pub rate_law: RateLaw,
    /// Re-evaluation period for walking clients, milliseconds.
    pub mobility_tick_ms: f64,
    /// A client hands over only when another cell is closer than the
    /// serving cell by more than this margin (hysteresis), meters.
    pub handover_margin_m: f64,
}

impl MediumParams {
    /// One cell at the origin with the given capacities and no mobility
    /// churn beyond the defaults.
    pub fn single_cell(uplink_mbps: f64, downlink_mbps: f64) -> Self {
        MediumParams {
            cells: vec![CellParams {
                x_m: 0.0,
                y_m: 0.0,
                uplink_mbps,
                downlink_mbps,
                cross: None,
            }],
            rate_law: RateLaw::wifi_cell(),
            mobility_tick_ms: 250.0,
            handover_margin_m: 5.0,
        }
    }

    /// Panics if the deployment is malformed.
    pub fn validate(&self) {
        assert!(!self.cells.is_empty(), "medium needs at least one cell");
        for c in &self.cells {
            assert!(c.uplink_mbps > 0.0 && c.downlink_mbps > 0.0);
            if let Some(x) = c.cross {
                assert!(x.load_mbps >= 0.0 && x.period_ms > 0.0);
                assert!(x.duty > 0.0 && x.duty < 1.0);
            }
        }
        assert!(self.rate_law.peak_mbps > 0.0 && self.rate_law.d_ref_m > 0.0);
        assert!(self.mobility_tick_ms > 0.0);
        assert!(self.handover_margin_m >= 0.0);
    }
}

/// A single contended cell, packaged for the one-server edge world
/// ([`crate::ClusterRadio::Cell`], and `marsim`'s `EdgeSpec`): one AP at
/// the origin, clients parked at seed-drawn distances inside `radius_m`. `Copy`, so specs embedding it
/// stay `Copy`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SharedCell {
    /// Shared uplink capacity, Mbit/s.
    pub uplink_mbps: f64,
    /// Shared downlink capacity, Mbit/s.
    pub downlink_mbps: f64,
    /// Distance → per-client rate cap.
    pub rate_law: RateLaw,
    /// Clients are placed uniformly inside this radius, meters.
    pub radius_m: f64,
    /// Optional deterministic background load.
    pub cross: Option<CrossTraffic>,
}

impl SharedCell {
    /// The stadium cell the contention sweep uses: an 80/160 Mbit/s AP
    /// serving clients scattered over a 40 m radius.
    pub fn stadium() -> Self {
        SharedCell {
            uplink_mbps: 80.0,
            downlink_mbps: 160.0,
            rate_law: RateLaw::wifi_cell(),
            radius_m: 40.0,
            cross: None,
        }
    }

    /// The [`MediumParams`] deployment for this cell.
    pub fn medium_params(&self) -> MediumParams {
        MediumParams {
            cells: vec![CellParams {
                x_m: 0.0,
                y_m: 0.0,
                uplink_mbps: self.uplink_mbps,
                downlink_mbps: self.downlink_mbps,
                cross: self.cross,
            }],
            rate_law: self.rate_law,
            mobility_tick_ms: 250.0,
            handover_margin_m: 5.0,
        }
    }

    /// The placement seed of client `i` in a world seeded by
    /// `master_seed`, on a `0x3E11`-keyed stream so placement never
    /// perturbs flow or jitter draws.
    pub fn placement_seed(master_seed: u64, client: usize) -> u64 {
        mix(mix(master_seed, TAG_PLACEMENT), client as u64)
    }

    /// Where a client with placement seed `seed` parks: on the x axis, at
    /// a distance from the AP drawn uniformly over the disc (`r·√u`).
    pub fn parked(&self, seed: u64) -> Mobility {
        Mobility::Fixed {
            x_m: self.radius_m * unit(seed).sqrt(),
            y_m: 0.0,
        }
    }

    /// The effective per-client bandwidth HBO should plan with when `n`
    /// clients share the cell: the smaller of the rate-law cap at the mean
    /// client distance (⅔·radius for a uniform disc) and the equal share
    /// of the cell capacity.
    pub fn effective_client_mbps(&self, dir: Direction, n: usize) -> f64 {
        let cap = self.rate_law.cap_mbps(self.radius_m * 2.0 / 3.0);
        let share = match dir {
            Direction::Up => self.uplink_mbps,
            Direction::Down => self.downlink_mbps,
        } / n.max(1) as f64;
        cap.min(share)
    }
}

/// How a client moves.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Mobility {
    /// Parked at a point.
    Fixed {
        /// Position, meters.
        x_m: f64,
        /// Position, meters.
        y_m: f64,
    },
    /// Random-waypoint walk inside the `[0, area_m]²` square: successive
    /// targets come from the `0x3E11`-keyed stream of `seed`, legs are
    /// walked at constant `speed_mps`.
    Waypoints {
        /// Per-client stream seed.
        seed: u64,
        /// Walking speed, meters per second.
        speed_mps: f64,
        /// Side of the deployment square, meters.
        area_m: f64,
    },
}

impl Mobility {
    /// A parked client at the seed's first waypoint draw — the fixed
    /// counterpart of a [`Mobility::Waypoints`] walk starting from the
    /// same seed, so a deployment can flip walking on and off without
    /// re-placing its population.
    pub fn parked(seed: u64, area_m: f64) -> Mobility {
        let (x_m, y_m) = waypoint(seed, 0, area_m);
        Mobility::Fixed { x_m, y_m }
    }
}

/// The `leg`-th waypoint of a walking client's stream.
fn waypoint(seed: u64, leg: u64, area_m: f64) -> (f64, f64) {
    let s = mix(seed, TAG_WAYPOINT);
    let x = unit(mix(s, 2 * leg)) * area_m;
    let y = unit(mix(s, 2 * leg + 1)) * area_m;
    (x, y)
}

/// A client attached to the medium.
#[derive(Debug, Clone)]
struct ClientState {
    mobility: Mobility,
    /// Serving cell index.
    cell: usize,
    /// Current position (as of the last tick / leg update).
    x: f64,
    y: f64,
    /// Walking state: current leg endpoints and times. Unused when fixed.
    leg: u64,
    leg_from: (f64, f64),
    leg_to: (f64, f64),
    leg_start: SimTime,
    leg_end: SimTime,
    /// Per-client rate cap at the current position, bytes/ns.
    cap: f64,
    /// Next mobility re-evaluation (walking clients only).
    next_tick: Option<SimTime>,
    handovers: u64,
}

impl ClientState {
    /// Position at `t`, advancing waypoint legs as needed.
    fn position_at(&mut self, t: SimTime) -> (f64, f64) {
        let (seed, speed, area) = match self.mobility {
            Mobility::Fixed { .. } => return (self.x, self.y),
            Mobility::Waypoints {
                seed,
                speed_mps,
                area_m,
            } => (seed, speed_mps, area_m),
        };
        while t >= self.leg_end {
            self.leg += 1;
            self.leg_from = self.leg_to;
            self.leg_to = waypoint(seed, self.leg, area);
            self.leg_start = self.leg_end;
            let d = dist(self.leg_from, self.leg_to);
            // A degenerate (zero-length) leg still consumes one tick's worth
            // of time so the loop always terminates.
            let secs = (d / speed.max(1e-9)).max(1e-3);
            self.leg_end = self.leg_start + SimDuration::from_secs_f64(secs);
        }
        let span = (self.leg_end - self.leg_start).as_secs_f64();
        let frac = if span > 0.0 {
            (t - self.leg_start).as_secs_f64() / span
        } else {
            1.0
        };
        self.x = self.leg_from.0 + (self.leg_to.0 - self.leg_from.0) * frac;
        self.y = self.leg_from.1 + (self.leg_to.1 - self.leg_from.1) * frac;
        (self.x, self.y)
    }
}

fn dist(a: (f64, f64), b: (f64, f64)) -> f64 {
    let dx = a.0 - b.0;
    let dy = a.1 - b.1;
    (dx * dx + dy * dy).sqrt()
}

/// An in-flight transfer.
#[derive(Debug, Clone)]
struct FlowState<K> {
    key: K,
    client: usize,
    dir: Direction,
    size: f64,
    remaining: f64,
    /// Allocated rate, bytes/ns. Zero when the cell is starved.
    rate: f64,
    /// Last instant `remaining` was settled at.
    settled_at: SimTime,
    /// Completion deadline under the current rate (`None` if starved).
    done_at: Option<SimTime>,
}

/// The completion deadline of a flow settled at `settled_at` with
/// `remaining` bytes left at `rate` (`None` if starved).
fn deadline(settled_at: SimTime, remaining: f64, rate: f64) -> Option<SimTime> {
    (rate > 0.0).then(|| {
        let ns = (remaining / rate).ceil().max(1.0);
        settled_at + SimDuration::from_nanos(ns as u64)
    })
}

/// Max-min water-filling of `capacity` over `order`, ascending by
/// `(cap, slot)`: flows below the equal share take their cap, the rest
/// split the residue evenly. Calls `set(slot, rate)` in order.
fn water_fill(capacity: f64, order: &[(f64, usize)], mut set: impl FnMut(usize, f64)) {
    let mut left = capacity;
    let mut n_left = order.len();
    for &(cap, slot) in order {
        let share = left / n_left as f64;
        let rate = cap.min(share).max(0.0);
        left -= rate;
        n_left -= 1;
        set(slot, rate);
    }
}

/// Sorts a water-fill order: `(client cap, slot)` ascending.
fn sort_order(order: &mut [(f64, usize)]) {
    order.sort_unstable_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
}

/// One `(cell, direction)` pool: its active flows and its cached solve.
#[derive(Debug, Clone, Default)]
struct Lane {
    /// Active flow slots, ascending after every solve.
    slots: Vec<usize>,
    /// Water-fill order, `(client cap, slot)` ascending; current unless
    /// `dirty`.
    order: Vec<(f64, usize)>,
    /// Membership or a member's cap changed since the last solve.
    dirty: bool,
    /// Effective capacity (bytes/ns) the members' rates were solved under.
    capacity: f64,
}

/// A completed transfer, as reported by [`Medium::advance`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Completion<K> {
    /// The key the flow was started with.
    pub key: K,
    /// The cell that served the final bytes.
    pub cell: usize,
    /// Flow direction.
    pub dir: Direction,
}

/// The shared-medium engine. Host simulators drive it with a single
/// generation-guarded wake event; see the module docs for the protocol.
#[derive(Debug, Clone)]
pub struct Medium<K: Copy> {
    params: MediumParams,
    clients: Vec<ClientState>,
    flows: Vec<Option<FlowState<K>>>,
    free: Vec<usize>,
    /// Per `(cell, dir as index)`: active flows and the cached solve.
    lanes: Vec<[Lane; 2]>,
    /// Earliest flow completion deadline, folded by the last solve.
    next_done: Option<SimTime>,
    /// Earliest mobility tick across all clients.
    next_tick: Option<SimTime>,
    wake_gen: u64,
    /// Instant of the last rate solve (for invariant checking).
    resolved_at: SimTime,
    offered_bytes: f64,
    delivered_bytes: f64,
    handovers: u64,
    reallocs: u64,
}

fn dir_idx(dir: Direction) -> usize {
    match dir {
        Direction::Up => 0,
        Direction::Down => 1,
    }
}

impl<K: Copy> Medium<K> {
    /// A new medium with no clients and no flows.
    ///
    /// # Panics
    ///
    /// Panics if `params` fail [`MediumParams::validate`].
    pub fn new(params: MediumParams) -> Self {
        params.validate();
        let lanes = params.cells.iter().map(|_| Default::default()).collect();
        Medium {
            params,
            clients: Vec::new(),
            flows: Vec::new(),
            free: Vec::new(),
            lanes,
            next_done: None,
            next_tick: None,
            wake_gen: 0,
            resolved_at: SimTime::ZERO,
            offered_bytes: 0.0,
            delivered_bytes: 0.0,
            handovers: 0,
            reallocs: 0,
        }
    }

    /// Attaches a client at `now`; returns its id. Clients are expected to
    /// be added up front, before the host schedules its first wake.
    pub fn add_client(&mut self, now: SimTime, mobility: Mobility) -> usize {
        let (x, y, leg_to, leg_end, next_tick) = match mobility {
            Mobility::Fixed { x_m, y_m } => (x_m, y_m, (x_m, y_m), SimTime::MAX, None),
            Mobility::Waypoints { seed, area_m, .. } => {
                let start = waypoint(seed, 0, area_m);
                // position_at advances onto leg 1 immediately (leg_end == now).
                let tick = now + SimDuration::from_millis_f64(self.params.mobility_tick_ms);
                (start.0, start.1, start, now, Some(tick))
            }
        };
        let cell = self.nearest_cell(x, y).0;
        let cap = bytes_per_ns(self.params.rate_law.cap_mbps(dist(
            (x, y),
            (self.params.cells[cell].x_m, self.params.cells[cell].y_m),
        )));
        self.clients.push(ClientState {
            mobility,
            cell,
            x,
            y,
            leg: 0,
            leg_from: (x, y),
            leg_to,
            leg_start: now,
            leg_end,
            cap,
            next_tick,
            handovers: 0,
        });
        self.next_tick = self.next_tick.into_iter().chain(next_tick).min();
        self.wake_gen += 1;
        self.clients.len() - 1
    }

    /// Starts a transfer of `bytes` for `client` in `dir`, keyed `key`.
    /// Rates in the client's cell re-solve immediately.
    pub fn start_flow(&mut self, now: SimTime, client: usize, dir: Direction, bytes: f64, key: K) {
        assert!(bytes > 0.0, "flow must carry bytes");
        self.settle_all(now);
        let cell = self.clients[client].cell;
        let slot = match self.free.pop() {
            Some(s) => s,
            None => {
                self.flows.push(None);
                self.flows.len() - 1
            }
        };
        self.flows[slot] = Some(FlowState {
            key,
            client,
            dir,
            size: bytes,
            remaining: bytes,
            rate: 0.0,
            settled_at: now,
            done_at: None,
        });
        let lane = &mut self.lanes[cell][dir_idx(dir)];
        lane.slots.push(slot);
        lane.dirty = true;
        self.offered_bytes += bytes;
        self.resolve(now);
    }

    /// The earliest internal deadline: a flow completion, a mobility tick,
    /// or a cross-traffic flip. `None` when the medium is fully idle.
    pub fn next_deadline(&self) -> Option<SimTime> {
        // Cross-traffic flips only matter while the cell carries flows.
        let flips = self
            .params
            .cells
            .iter()
            .zip(&self.lanes)
            .filter(|(_, lanes)| lanes.iter().any(|l| !l.slots.is_empty()))
            .filter_map(|(cell, _)| cell.cross.map(|x| x.next_flip(self.resolved_at)));
        self.next_done
            .into_iter()
            .chain(self.next_tick)
            .chain(flips)
            .min()
    }

    /// The current wake generation: bumped on every mutation, so a host
    /// event carrying an older generation is stale and must be ignored.
    pub fn wake_gen(&self) -> u64 {
        self.wake_gen
    }

    /// Processes every internal deadline up to and including `now`,
    /// appending finished transfers to `completed` in deterministic order
    /// (deadline time, then flow slot).
    pub fn advance(&mut self, now: SimTime, completed: &mut Vec<Completion<K>>) {
        loop {
            let step = match self.next_deadline() {
                Some(t) if t <= now => t,
                _ => break,
            };
            self.settle_all(step);
            // 1. Completions at `step` (settled remaining has hit zero).
            let n_flows = self.flows.len();
            for slot in 0..n_flows {
                let done = matches!(&self.flows[slot], Some(f) if f.remaining <= EPS_BYTES);
                if done {
                    let f = self.flows[slot].take().expect("flow just matched");
                    let cell = self.clients[f.client].cell;
                    let lane = &mut self.lanes[cell][dir_idx(f.dir)];
                    lane.slots.retain(|&s| s != slot);
                    lane.dirty = true;
                    self.free.push(slot);
                    self.delivered_bytes += f.size;
                    completed.push(Completion {
                        key: f.key,
                        cell,
                        dir: f.dir,
                    });
                }
            }
            // 2. Mobility ticks due at `step` (client order).
            if self.next_tick.is_some_and(|t| t <= step) {
                for client in 0..self.clients.len() {
                    if self.clients[client].next_tick.is_some_and(|t| t <= step) {
                        self.mobility_tick(client, step);
                    }
                }
                self.next_tick = self.clients.iter().filter_map(|c| c.next_tick).min();
            }
            // 3. Re-solve (also refreshes cross-traffic effective capacity,
            //    so a flip deadline needs no handling of its own).
            self.resolve(step);
        }
        // Stamp progress up to `now` so observers see settled state.
        self.settle_all(now);
        self.wake_gen += 1;
    }

    /// Re-evaluates a walking client: position, rate cap, handover. Marks
    /// the lanes its flows sit in dirty when it hands over or its cap
    /// changes.
    fn mobility_tick(&mut self, client: usize, now: SimTime) {
        let (x, y) = self.clients[client].position_at(now);
        let serving = self.clients[client].cell;
        let (nearest, d_nearest) = self.nearest_cell(x, y);
        let d_serving = dist((x, y), {
            let c = &self.params.cells[serving];
            (c.x_m, c.y_m)
        });
        let mut cell = serving;
        if nearest != serving && d_serving - d_nearest > self.params.handover_margin_m {
            // Handover: move the client and its in-flight flows; bytes
            // remaining carry over untouched.
            for di in 0..2 {
                let mut to = std::mem::take(&mut self.lanes[nearest][di].slots);
                let flows = &self.flows;
                self.lanes[serving][di].slots.retain(|&s| {
                    let mine = flows[s].as_ref().is_some_and(|f| f.client == client);
                    if mine {
                        to.push(s);
                    }
                    !mine
                });
                self.lanes[nearest][di].slots = to;
                self.lanes[nearest][di].dirty = true;
                self.lanes[serving][di].dirty = true;
            }
            self.clients[client].cell = nearest;
            self.clients[client].handovers += 1;
            self.handovers += 1;
            cell = nearest;
        }
        let c = &self.params.cells[cell];
        let cap = bytes_per_ns(self.params.rate_law.cap_mbps(dist((x, y), (c.x_m, c.y_m))));
        if cap.to_bits() != self.clients[client].cap.to_bits() {
            self.clients[client].cap = cap;
            for lane in &mut self.lanes[cell] {
                lane.dirty = true;
            }
        }
        let tick = SimDuration::from_millis_f64(self.params.mobility_tick_ms);
        self.clients[client].next_tick = Some(now + tick);
    }

    /// The nearest cell to `(x, y)` and its distance (ties → lowest index).
    fn nearest_cell(&self, x: f64, y: f64) -> (usize, f64) {
        let mut best = (0, f64::INFINITY);
        for (i, c) in self.params.cells.iter().enumerate() {
            let d = dist((x, y), (c.x_m, c.y_m));
            if d < best.1 {
                best = (i, d);
            }
        }
        best
    }

    /// Settles every active flow's `remaining` up to `now`.
    fn settle_all(&mut self, now: SimTime) {
        for f in self.flows.iter_mut().flatten() {
            let dt = (now - f.settled_at).as_nanos() as f64;
            if dt > 0.0 && f.rate > 0.0 {
                f.remaining = (f.remaining - f.rate * dt).max(0.0);
            }
            f.settled_at = now;
        }
    }

    /// Re-solves every cell's allocation (water-filling under per-client
    /// caps) and recomputes every completion deadline; see the module docs
    /// for what a clean lane reuses. Bumps the generation.
    fn resolve(&mut self, now: SimTime) {
        let mut next_done: Option<SimTime> = None;
        for (cell, lanes) in self.params.cells.iter().zip(&mut self.lanes) {
            for (lane, dir) in lanes.iter_mut().zip([Direction::Up, Direction::Down]) {
                if lane.slots.is_empty() {
                    continue;
                }
                let capacity = bytes_per_ns(cell.effective_mbps(dir, now));
                let flows = &mut self.flows;
                if lane.dirty {
                    // Deterministic solve order regardless of arrival history.
                    lane.slots.sort_unstable();
                    let clients = &self.clients;
                    lane.order.clear();
                    lane.order.extend(lane.slots.iter().map(|&s| {
                        let f = flows[s].as_ref().expect("active slot live");
                        (clients[f.client].cap, s)
                    }));
                    sort_order(&mut lane.order);
                }
                if lane.dirty || capacity.to_bits() != lane.capacity.to_bits() {
                    water_fill(capacity, &lane.order, |s, rate| {
                        flows[s].as_mut().expect("active slot live").rate = rate;
                    });
                    lane.capacity = capacity;
                    lane.dirty = false;
                }
                for &s in &lane.slots {
                    let f = flows[s].as_mut().expect("active slot live");
                    f.done_at = deadline(f.settled_at, f.remaining, f.rate);
                    next_done = next_done.into_iter().chain(f.done_at).min();
                }
            }
        }
        self.next_done = next_done;
        self.resolved_at = now;
        self.wake_gen += 1;
        self.reallocs += 1;
    }

    // ---- observability ----------------------------------------------------

    /// Number of in-flight flows in `cell` for `dir`.
    pub fn active_flows(&self, cell: usize, dir: Direction) -> usize {
        self.lanes[cell][dir_idx(dir)].slots.len()
    }

    /// Sum of allocated rates in `cell` for `dir`, Mbit/s.
    pub fn allocated_mbps(&self, cell: usize, dir: Direction) -> f64 {
        to_mbps(
            self.lanes[cell][dir_idx(dir)]
                .slots
                .iter()
                .map(|&s| self.flows[s].as_ref().map_or(0.0, |f| f.rate))
                .sum(),
        )
    }

    /// Total handovers across all clients.
    pub fn handovers(&self) -> u64 {
        self.handovers
    }

    /// Number of allocation re-solves performed — every flow arrival,
    /// completion, handover, or cross-traffic flip that forced the
    /// water-filling pass to rerun. The control-plane cost driver of the
    /// shared medium, exposed so sweeps can report it per cell.
    pub fn reallocs(&self) -> u64 {
        self.reallocs
    }

    /// Bytes of backing storage currently held by the medium's dynamic
    /// state (client table, flow slab, free list, per-lane active lists
    /// and cached water-fill orders), at reserved vector capacities.
    pub fn footprint_bytes(&self) -> usize {
        use std::mem::size_of;
        self.clients.capacity() * size_of::<ClientState>()
            + self.flows.capacity() * size_of::<Option<FlowState<K>>>()
            + self.free.capacity() * size_of::<usize>()
            + self
                .lanes
                .iter()
                .flatten()
                .map(|lane| {
                    size_of::<Lane>()
                        + lane.slots.capacity() * size_of::<usize>()
                        + lane.order.capacity() * size_of::<(f64, usize)>()
                })
                .sum::<usize>()
    }

    /// The serving cell of `client`.
    pub fn client_cell(&self, client: usize) -> usize {
        self.clients[client].cell
    }

    /// The current per-client rate cap of `client`, Mbit/s.
    pub fn client_cap_mbps(&self, client: usize) -> f64 {
        to_mbps(self.clients[client].cap)
    }

    /// Number of cells in the deployment.
    pub fn cell_count(&self) -> usize {
        self.params.cells.len()
    }

    /// Total bytes offered via [`Medium::start_flow`].
    pub fn offered_bytes(&self) -> f64 {
        self.offered_bytes
    }

    /// Total bytes of completed flows.
    pub fn delivered_bytes(&self) -> f64 {
        self.delivered_bytes
    }

    /// Bytes still in flight, as of the last settlement.
    pub fn in_flight_bytes(&self) -> f64 {
        self.flows.iter().flatten().map(|f| f.remaining).sum()
    }

    /// Asserts the allocation invariants: per-cell rate sums within the
    /// effective capacity, every flow within its client's cap, and byte
    /// accounting consistent. It also recomputes the incremental solve
    /// from scratch and requires bit-equality with the cached state: lane
    /// membership, the `(cap, slot)` water-fill order, the rates, each
    /// deadline settled at the last solve, and the earliest deadline. Used
    /// by the property tests.
    ///
    /// # Panics
    ///
    /// Panics if an invariant is violated.
    pub fn check_invariants(&self) {
        const TOL: f64 = 1e-9;
        let mut in_lanes = 0;
        for (ci, cell) in self.params.cells.iter().enumerate() {
            for (di, dir) in [Direction::Up, Direction::Down].into_iter().enumerate() {
                let lane = &self.lanes[ci][di];
                let cap = bytes_per_ns(cell.effective_mbps(dir, self.resolved_at));
                let sum: f64 = lane
                    .slots
                    .iter()
                    .map(|&s| self.flows[s].as_ref().expect("active slot live").rate)
                    .sum();
                assert!(
                    sum <= cap * (1.0 + TOL) + TOL,
                    "cell {ci} {dir:?}: allocated {sum} exceeds capacity {cap}"
                );
                for &s in &lane.slots {
                    let f = self.flows[s].as_ref().expect("active slot live");
                    let ccap = self.clients[f.client].cap;
                    assert!(
                        f.rate <= ccap * (1.0 + TOL) + TOL,
                        "flow {s}: rate {} exceeds client cap {ccap}",
                        f.rate
                    );
                    assert!(f.remaining >= 0.0 && f.remaining <= f.size + TOL);
                    assert!(
                        self.clients[f.client].cell == ci && f.dir == dir,
                        "flow {s} sits in lane ({ci}, {dir:?}) of another cell or direction"
                    );
                    if f.settled_at == self.resolved_at {
                        assert_eq!(
                            f.done_at,
                            deadline(f.settled_at, f.remaining, f.rate),
                            "flow {s}: cached deadline differs from a fresh one"
                        );
                    }
                }
                in_lanes += lane.slots.len();
                if lane.slots.is_empty() {
                    continue;
                }
                // From-scratch solve of the lane, compared bit for bit.
                assert!(!lane.dirty, "lane ({ci}, {dir:?}) left dirty by a solve");
                assert!(
                    lane.slots.windows(2).all(|w| w[0] < w[1]),
                    "lane ({ci}, {dir:?}) slots out of order"
                );
                let mut order: Vec<(f64, usize)> = lane
                    .slots
                    .iter()
                    .map(|&s| {
                        let f = self.flows[s].as_ref().expect("active slot live");
                        (self.clients[f.client].cap, s)
                    })
                    .collect();
                sort_order(&mut order);
                let bits = |o: &[(f64, usize)]| -> Vec<(u64, usize)> {
                    o.iter().map(|&(c, s)| (c.to_bits(), s)).collect()
                };
                assert_eq!(
                    bits(&order),
                    bits(&lane.order),
                    "lane ({ci}, {dir:?}): cached water-fill order is stale"
                );
                assert_eq!(cap.to_bits(), lane.capacity.to_bits());
                water_fill(cap, &order, |s, rate| {
                    let cached = self.flows[s].as_ref().expect("active slot live").rate;
                    assert_eq!(
                        rate.to_bits(),
                        cached.to_bits(),
                        "flow {s}: cached rate {cached} differs from a fresh solve's {rate}"
                    );
                });
            }
        }
        assert_eq!(
            in_lanes,
            self.flows.iter().flatten().count(),
            "live flows missing from every lane"
        );
        // The earliest deadline, by a full scan of flows and clients.
        let mut t: Option<SimTime> = None;
        let mut fold = |c: SimTime| t = Some(t.map_or(c, |p: SimTime| p.min(c)));
        self.flows
            .iter()
            .flatten()
            .filter_map(|f| f.done_at)
            .for_each(&mut fold);
        self.clients
            .iter()
            .filter_map(|c| c.next_tick)
            .for_each(&mut fold);
        for (ci, cell) in self.params.cells.iter().enumerate() {
            if let Some(x) = cell.cross {
                if self
                    .flows
                    .iter()
                    .flatten()
                    .any(|f| self.clients[f.client].cell == ci)
                {
                    fold(x.next_flip(self.resolved_at));
                }
            }
        }
        assert_eq!(self.next_deadline(), t, "cached earliest deadline is stale");
        let in_flight = self.in_flight_bytes();
        let settled = self.offered_bytes - self.delivered_bytes;
        // In-flight bytes can only be less than offered-minus-delivered by
        // what the flows have already transmitted (settlement), never more.
        assert!(
            in_flight <= settled + 1e-6,
            "in-flight {in_flight} exceeds offered-delivered {settled}"
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn drain(m: &mut Medium<u64>, until: SimTime) -> Vec<Completion<u64>> {
        let mut out = Vec::new();
        // Host-style drive loop: jump to each deadline in turn.
        while let Some(t) = m.next_deadline() {
            if t > until {
                break;
            }
            m.advance(t, &mut out);
            m.check_invariants();
        }
        out
    }

    #[test]
    fn single_flow_runs_at_cap() {
        let mut m: Medium<u64> = Medium::new(MediumParams::single_cell(80.0, 160.0));
        let c = m.add_client(SimTime::ZERO, Mobility::Fixed { x_m: 0.0, y_m: 0.0 });
        // At the AP the cap is the rate-law peak (120) > cell capacity (80):
        // the flow gets the full cell.
        m.start_flow(SimTime::ZERO, c, Direction::Up, 10_000.0, 7);
        assert!((m.allocated_mbps(0, Direction::Up) - 80.0).abs() < 1e-9);
        // 10 kB at 80 Mbit/s = 1 ms.
        let done = drain(&mut m, SimTime::from_secs_f64(1.0));
        assert_eq!(done.len(), 1);
        assert_eq!(done[0].key, 7);
        let t = m.next_deadline();
        assert!(t.is_none(), "idle medium has no deadline, got {t:?}");
        assert!((m.delivered_bytes() - 10_000.0).abs() < 1e-9);
    }

    #[test]
    fn two_flows_halve_and_reallocate_on_departure() {
        let mut m: Medium<u64> = Medium::new(MediumParams::single_cell(80.0, 160.0));
        let a = m.add_client(SimTime::ZERO, Mobility::Fixed { x_m: 0.0, y_m: 0.0 });
        let b = m.add_client(SimTime::ZERO, Mobility::Fixed { x_m: 0.0, y_m: 0.0 });
        // a: 10 kB, b: 20 kB — both capped at 80/2 = 40 Mbit/s while
        // sharing; a finishes first, b then speeds up to the full 80.
        m.start_flow(SimTime::ZERO, a, Direction::Up, 10_000.0, 1);
        m.start_flow(SimTime::ZERO, b, Direction::Up, 20_000.0, 2);
        m.check_invariants();
        assert!((m.allocated_mbps(0, Direction::Up) - 80.0).abs() < 1e-9);
        let done = drain(&mut m, SimTime::from_secs_f64(1.0));
        assert_eq!(done.len(), 2);
        assert_eq!(done[0].key, 1);
        assert_eq!(done[1].key, 2);
        // a: shared 40 Mbit/s for its whole 10 kB → 2 ms. b: 2 ms at
        // 40 Mbit/s (10 kB done) + 10 kB at 80 Mbit/s (1 ms) → 3 ms total.
        assert!((m.delivered_bytes() - 30_000.0).abs() < 1e-9);
        assert_eq!(m.in_flight_bytes(), 0.0);
    }

    #[test]
    fn distant_client_is_capped_below_fair_share() {
        let mut m: Medium<u64> = Medium::new(MediumParams::single_cell(80.0, 160.0));
        let near = m.add_client(SimTime::ZERO, Mobility::Fixed { x_m: 0.0, y_m: 0.0 });
        // At 40 m with d_ref 20 m, cubic: cap = 120/(1+8) ≈ 13.3 Mbit/s.
        let far = m.add_client(
            SimTime::ZERO,
            Mobility::Fixed {
                x_m: 40.0,
                y_m: 0.0,
            },
        );
        m.start_flow(SimTime::ZERO, near, Direction::Up, 1e6, 1);
        m.start_flow(SimTime::ZERO, far, Direction::Up, 1e6, 2);
        m.check_invariants();
        let cap_far = m.client_cap_mbps(far);
        assert!((cap_far - 120.0 / 9.0).abs() < 1e-9);
        // Far flow gets its cap, near flow gets the residue.
        let total = m.allocated_mbps(0, Direction::Up);
        assert!((total - 80.0).abs() < 1e-9);
    }

    #[test]
    fn cross_traffic_throttles_and_releases() {
        let mut params = MediumParams::single_cell(80.0, 160.0);
        params.cells[0].cross = Some(CrossTraffic {
            load_mbps: 40.0,
            period_ms: 10.0,
            duty: 0.5,
        });
        let mut m: Medium<u64> = Medium::new(params);
        let c = m.add_client(SimTime::ZERO, Mobility::Fixed { x_m: 0.0, y_m: 0.0 });
        // 100 kB. First 5 ms at 40 Mbit/s moves 25 kB; next 5 ms at
        // 80 Mbit/s moves 50 kB; remaining 25 kB at 40 Mbit/s takes 5 ms.
        // Done at exactly 15 ms.
        m.start_flow(SimTime::ZERO, c, Direction::Up, 100_000.0, 9);
        assert!((m.allocated_mbps(0, Direction::Up) - 40.0).abs() < 1e-9);
        let done = drain(&mut m, SimTime::from_secs_f64(1.0));
        assert_eq!(done.len(), 1);
        assert!((m.delivered_bytes() - 100_000.0).abs() < 1e-9);
    }

    #[test]
    fn walking_client_hands_over_and_preserves_bytes() {
        let mut params = MediumParams::single_cell(80.0, 160.0);
        params.cells.push(CellParams {
            x_m: 100.0,
            y_m: 0.0,
            uplink_mbps: 80.0,
            downlink_mbps: 160.0,
            cross: None,
        });
        params.handover_margin_m = 5.0;
        let mut m: Medium<u64> = Medium::new(params);
        // A fast deterministic march from cell 0 towards cell 1 would need
        // scripted waypoints; instead park near cell 1 but attach while the
        // walk starts at the seed-drawn position, and rely on the waypoint
        // walk to cross the midline eventually. Use a seed whose first
        // waypoint lands in cell 0's half so a handover is observable.
        let mut seed = 1u64;
        loop {
            let (x, _) = waypoint(seed, 0, 100.0);
            if x < 40.0 {
                break;
            }
            seed += 1;
        }
        let c = m.add_client(
            SimTime::ZERO,
            Mobility::Waypoints {
                seed,
                speed_mps: 30.0,
                area_m: 100.0,
            },
        );
        assert_eq!(m.client_cell(c), 0);
        // Keep the uplink busy with a huge flow while the client walks.
        m.start_flow(SimTime::ZERO, c, Direction::Up, 1e9, 1);
        let mut out = Vec::new();
        let horizon = SimTime::from_secs_f64(60.0);
        while let Some(d) = m.next_deadline() {
            if d > horizon {
                break;
            }
            m.advance(d, &mut out);
            m.check_invariants();
            if m.handovers() > 0 {
                break;
            }
        }
        assert!(m.handovers() > 0, "60 s random walk never handed over");
        // Bytes preserved: in-flight + delivered == offered.
        assert!(m.in_flight_bytes() > 0.0);
        assert!(m.in_flight_bytes() <= m.offered_bytes() - m.delivered_bytes() + 1e-6);
    }

    #[test]
    fn wake_generation_bumps_on_every_mutation() {
        let mut m: Medium<u64> = Medium::new(MediumParams::single_cell(80.0, 160.0));
        let g0 = m.wake_gen();
        let c = m.add_client(SimTime::ZERO, Mobility::Fixed { x_m: 0.0, y_m: 0.0 });
        let g1 = m.wake_gen();
        assert!(g1 > g0);
        m.start_flow(SimTime::ZERO, c, Direction::Up, 1000.0, 1);
        let g2 = m.wake_gen();
        assert!(g2 > g1);
        let mut out = Vec::new();
        m.advance(m.next_deadline().expect("flow pending"), &mut out);
        assert!(m.wake_gen() > g2);
        assert_eq!(out.len(), 1);
    }
}

#[cfg(test)]
mod properties {
    //! Property tests for the medium invariants (ISSUE 9, satellite 4):
    //! under any seed, population, capacity, and walking speed, the sum
    //! of allocated rates never exceeds capacity, bytes are conserved
    //! across every rate change, handover and cross-traffic flip, every
    //! offered byte is eventually delivered, and the incremental solve
    //! matches a from-scratch one bit for bit.

    use simcore::check::{self, f64s, u64s, usizes};
    use simcore::prop_assert;
    use simcore::rng::mix;
    use simcore::{SimDuration, SimTime};

    use super::{CellParams, CrossTraffic, Medium, MediumParams, Mobility};
    use crate::link::Direction;

    #[test]
    fn rates_capped_and_bytes_conserved_under_churn_and_handover() {
        check::check(
            "medium_invariants",
            (
                u64s(..),
                usizes(1..=6),
                f64s(10.0..200.0),
                f64s(0.0..15.0),
                f64s(0.0..1.0),
            ),
            |&(seed, n_clients, cap_mbps, speed_mps, cross_frac)| {
                // Two cells 80 m apart; walkers cross the handover
                // boundary, parked clients (speed drawn ~0) never do.
                // Cross-traffic, when drawn, flips cell 0's capacity (up to
                // starving its uplink) and, on odd seeds, cell 1's too.
                let cross = (cross_frac > 0.25).then(|| CrossTraffic {
                    load_mbps: cap_mbps * 1.2 * cross_frac,
                    period_ms: 5.0 + (seed >> 32) as f64 % 45.0,
                    duty: 0.5,
                });
                let mut params = MediumParams::single_cell(cap_mbps, cap_mbps * 2.0);
                params.cells[0].cross = cross;
                params.cells.push(CellParams {
                    x_m: 80.0,
                    y_m: 0.0,
                    uplink_mbps: cap_mbps,
                    downlink_mbps: cap_mbps * 2.0,
                    cross: cross.filter(|_| seed & 1 == 1),
                });
                let mut m: Medium<u64> = Medium::new(params);
                for i in 0..n_clients {
                    let client_seed = mix(seed, i as u64);
                    let mobility = if speed_mps > 0.5 {
                        Mobility::Waypoints {
                            seed: client_seed,
                            speed_mps,
                            area_m: 100.0,
                        }
                    } else {
                        Mobility::parked(client_seed, 100.0)
                    };
                    m.add_client(SimTime::ZERO, mobility);
                }
                // Churn: flow arrivals interleave at random with
                // completions, mobility ticks, handovers and flips.
                // check_invariants pins the rate-cap and byte-conservation
                // invariants, and the cached solve against a from-scratch
                // one, at every mutation.
                let mut now = SimTime::ZERO;
                let mut out = Vec::new();
                for step in 0..30u64 {
                    let draw = mix(seed, 0x1000 + step);
                    let client = (draw % n_clients as u64) as usize;
                    let dir = if draw & 1 == 0 {
                        Direction::Up
                    } else {
                        Direction::Down
                    };
                    let bytes = 1_000.0 + ((draw >> 8) % 200_000) as f64;
                    m.start_flow(now, client, dir, bytes, step);
                    m.check_invariants();
                    let Some(t) = m.next_deadline() else {
                        continue;
                    };
                    // Next: another arrival at the same instant, a run to
                    // the next deadline, a stop part-way there (settling
                    // mid-flight), or a jump over several deadlines.
                    let gap = t.as_nanos().saturating_sub(now.as_nanos());
                    let frac = (draw >> 48) % 8;
                    now = match (draw >> 40) % 4 {
                        0 => continue,
                        1 => now.max(t),
                        2 => now + SimDuration::from_nanos(gap * frac / 8),
                        _ => now.max(t) + SimDuration::from_micros_f64(frac as f64 * 2_500.0),
                    };
                    m.advance(now, &mut out);
                    m.check_invariants();
                }
                // Drain: every offered byte must eventually complete
                // (mobility ticks and flips alone must not starve the
                // drain).
                while m.in_flight_bytes() > 1e-4 {
                    let t = m.next_deadline().expect("in-flight bytes need a deadline");
                    now = now.max(t);
                    m.advance(now, &mut out);
                    m.check_invariants();
                }
                prop_assert!(
                    (m.offered_bytes() - m.delivered_bytes()).abs() < 1e-3,
                    "bytes leaked: offered {} delivered {} after {} handovers",
                    m.offered_bytes(),
                    m.delivered_bytes(),
                    m.handovers()
                );
                prop_assert!(out.len() == 30, "completed {} of 30 flows", out.len());
                Ok(())
            },
        );
    }
}
