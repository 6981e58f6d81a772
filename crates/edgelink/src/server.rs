//! The edge inference server: K worker lanes behind a bounded admission
//! queue.
//!
//! The worker lanes reuse [`soc::FifoServer`] — the same pure queueing
//! state machine that serves the on-device CPU cluster and NPU — so the
//! edge tier inherits its tested FIFO semantics instead of re-deriving
//! them. What this module adds is *admission control*: a request arriving
//! when all lanes are busy **and** the queue is at capacity is rejected
//! (the server NACKs it), which is what keeps one overloaded client from
//! building an unbounded backlog for everyone.

use simcore::{SimDuration, SimTime};
use soc::{FifoServer, FifoStart};

/// Sizing of the edge inference server.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ServerParams {
    /// Parallel inference lanes (GPUs / model replicas).
    pub worker_lanes: usize,
    /// Maximum requests waiting for a lane; arrivals beyond it are
    /// rejected.
    pub queue_capacity: usize,
}

impl ServerParams {
    /// A small two-lane server with a short queue.
    pub fn small() -> Self {
        ServerParams {
            worker_lanes: 2,
            queue_capacity: 8,
        }
    }
}

/// The outcome of offering a request to the server.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Admission<K: Copy> {
    /// A lane was free: service starts now, completing at
    /// [`FifoStart::done_at`].
    Started(FifoStart<K>),
    /// All lanes busy but the queue had room; the request will start when
    /// a lane frees up.
    Queued,
    /// Queue full: the request is NACKed and must be retried later (or
    /// dropped) by the client.
    Rejected,
}

/// An edge inference server: [`ServerParams::worker_lanes`] FIFO lanes fed
/// by one bounded queue.
#[derive(Debug)]
pub struct EdgeServer<K: Copy> {
    lanes: FifoServer<K>,
    lane_count: usize,
    capacity: usize,
    /// Requests accepted (started or queued).
    pub admitted: u64,
    /// Requests rejected at admission.
    pub rejected: u64,
}

impl<K: Copy> EdgeServer<K> {
    /// Creates an idle server at `start`.
    ///
    /// # Panics
    ///
    /// Panics if `worker_lanes` is zero.
    pub fn new(params: ServerParams, start: SimTime) -> Self {
        EdgeServer {
            lanes: FifoServer::new(params.worker_lanes, start),
            lane_count: params.worker_lanes,
            capacity: params.queue_capacity,
            admitted: 0,
            rejected: 0,
        }
    }

    /// Requests currently waiting for a lane.
    pub fn queue_len(&self) -> usize {
        self.lanes.queue_len()
    }

    /// Requests currently in service.
    pub(crate) fn in_service(&self) -> usize {
        self.lanes.running_len()
    }

    /// Requests completed so far.
    pub fn completed(&self) -> u64 {
        self.lanes.completed
    }

    /// Offers a request needing `work` of lane time. Rejection happens
    /// only when every lane is busy *and* the queue is at capacity — a
    /// free lane always admits, even with a zero-length queue.
    pub(crate) fn try_admit(&mut self, now: SimTime, key: K, work: SimDuration) -> Admission<K> {
        if self.lanes.running_len() >= self.lane_count && self.lanes.queue_len() >= self.capacity {
            self.rejected += 1;
            return Admission::Rejected;
        }
        self.admitted += 1;
        match self.lanes.enqueue(now, key, work) {
            Some(start) => Admission::Started(start),
            None => Admission::Queued,
        }
    }

    /// Handles a lane completion; returns the finished request and, if the
    /// queue was non-empty, the next request's start.
    ///
    /// # Panics
    ///
    /// Panics if the slot is empty (a completion without a running
    /// request is a simulator bug).
    pub fn on_done(&mut self, now: SimTime, slot: usize) -> (K, Option<FifoStart<K>>) {
        self.lanes.on_done(now, slot)
    }

    /// Time-weighted average number of busy lanes up to `now`.
    pub fn avg_busy_lanes(&self, now: SimTime) -> f64 {
        self.lanes.active.average(now)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ms(x: f64) -> SimDuration {
        SimDuration::from_millis_f64(x)
    }

    fn t(x: f64) -> SimTime {
        SimTime::from_millis_f64(x)
    }

    #[test]
    fn admits_until_lanes_then_queue_fill() {
        let mut s = EdgeServer::new(
            ServerParams {
                worker_lanes: 2,
                queue_capacity: 1,
            },
            SimTime::ZERO,
        );
        assert!(matches!(
            s.try_admit(SimTime::ZERO, 1u64, ms(10.0)),
            Admission::Started(_)
        ));
        assert!(matches!(
            s.try_admit(SimTime::ZERO, 2, ms(10.0)),
            Admission::Started(_)
        ));
        assert!(matches!(
            s.try_admit(SimTime::ZERO, 3, ms(10.0)),
            Admission::Queued
        ));
        // Queue full: rejected.
        assert!(matches!(
            s.try_admit(SimTime::ZERO, 4, ms(10.0)),
            Admission::Rejected
        ));
        assert_eq!(s.admitted, 3);
        assert_eq!(s.rejected, 1);
        assert_eq!(s.queue_len(), 1);
        assert_eq!(s.in_service(), 2);
    }

    #[test]
    fn completion_pulls_from_the_queue() {
        let mut s = EdgeServer::new(
            ServerParams {
                worker_lanes: 1,
                queue_capacity: 4,
            },
            SimTime::ZERO,
        );
        let Admission::Started(a) = s.try_admit(SimTime::ZERO, 1u64, ms(5.0)) else {
            panic!("first request must start");
        };
        assert!(matches!(
            s.try_admit(SimTime::ZERO, 2, ms(7.0)),
            Admission::Queued
        ));
        let (fin, next) = s.on_done(a.done_at, a.slot);
        assert_eq!(fin, 1);
        let next = next.unwrap();
        assert_eq!(next.key, 2);
        assert_eq!(next.done_at, t(12.0));
        // Capacity freed: a new request queues again.
        assert!(matches!(s.try_admit(t(5.0), 3, ms(1.0)), Admission::Queued));
        assert_eq!(s.completed(), 1);
    }

    #[test]
    fn zero_capacity_queue_only_uses_lanes() {
        let mut s = EdgeServer::new(
            ServerParams {
                worker_lanes: 1,
                queue_capacity: 0,
            },
            SimTime::ZERO,
        );
        assert!(matches!(
            s.try_admit(SimTime::ZERO, 1u64, ms(5.0)),
            Admission::Started(_)
        ));
        assert!(matches!(
            s.try_admit(SimTime::ZERO, 2, ms(5.0)),
            Admission::Rejected
        ));
    }
}
