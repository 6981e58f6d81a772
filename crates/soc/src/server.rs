//! Queueing servers: multi-slot FIFO and egalitarian processor sharing.
//!
//! Servers are pure state machines: they never touch the event queue.
//! [`crate::SocSim`] calls into them and turns the returned actions
//! (job starts, completions, next-check times) into events, which keeps the
//! queueing logic independently testable.
//!
//! [`FifoServer`] and [`PsServer`] are generic in their job-key type and
//! exported publicly so other discrete-event simulations (the `edgelink`
//! wireless-link/edge-server crate) reuse the same queueing machinery with
//! their own key types instead of re-deriving it.

use std::collections::VecDeque;

use simcore::stats::TimeWeighted;
use simcore::{SimDuration, SimTime};

use crate::job::{SourceId, StreamId};

/// How a processor serves queued work.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ServicePolicy {
    /// `slots` parallel servers fed from one FIFO queue (CPU cluster, NPU).
    Fifo {
        /// Number of jobs that can run concurrently.
        slots: usize,
    },
    /// All resident jobs progress at rate `1/n` (GPU interleaving render
    /// passes and compute dispatches).
    ProcessorSharing,
}

/// Identifies who submitted a job.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub(crate) enum Owner {
    /// An AI-task stream.
    Stream(StreamId),
    /// A periodic (render) source.
    Source(SourceId),
}

/// Uniquely identifies one stage execution of one job instance.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub(crate) struct JobKey {
    pub owner: Owner,
    /// Monotone per-owner instance counter: identity, RNG streams, and
    /// trace span args key off this.
    pub seq: u64,
    /// Index of the stage within the instance's stage sequence.
    pub stage: usize,
}

/// A job admitted to a FIFO slot; completion is firm (never preempted).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FifoStart<K: Copy> {
    /// The slot the job occupies until `done_at`.
    pub slot: usize,
    /// The job that started.
    pub key: K,
    /// The firm completion time.
    pub done_at: SimTime,
}

/// Multi-slot FIFO server, generic in the job-key type `K`.
#[derive(Debug)]
pub struct FifoServer<K: Copy> {
    running: Vec<Option<K>>,
    queue: VecDeque<(K, SimDuration)>,
    /// Time-weighted number of occupied slots (for utilization metrics).
    pub active: TimeWeighted,
    /// Jobs completed so far.
    pub completed: u64,
}

impl<K: Copy> FifoServer<K> {
    /// Creates a server with `slots` parallel lanes, idle at `start`.
    ///
    /// # Panics
    ///
    /// Panics if `slots` is zero.
    pub fn new(slots: usize, start: SimTime) -> Self {
        assert!(slots > 0, "FIFO server needs at least one slot");
        FifoServer {
            running: vec![None; slots],
            queue: VecDeque::new(),
            active: TimeWeighted::new(start, 0.0),
            completed: 0,
        }
    }

    /// Number of jobs waiting (not counting those running in slots).
    pub fn queue_len(&self) -> usize {
        self.queue.len()
    }

    /// Number of jobs currently occupying slots.
    pub fn running_len(&self) -> usize {
        self.running.iter().filter(|s| s.is_some()).count()
    }

    /// Submits a job. If a slot is free the job starts immediately and its
    /// firm completion is returned; otherwise it waits in the queue.
    pub fn enqueue(&mut self, now: SimTime, key: K, work: SimDuration) -> Option<FifoStart<K>> {
        if let Some(slot) = self.running.iter().position(Option::is_none) {
            self.running[slot] = Some(key);
            self.active.add(now, 1.0);
            Some(FifoStart {
                slot,
                key,
                done_at: now + work,
            })
        } else {
            self.queue.push_back((key, work));
            None
        }
    }

    /// Handles the completion of the job in `slot`, returning the finished
    /// job and, if the queue was non-empty, the next job's start.
    ///
    /// # Panics
    ///
    /// Panics if the slot is empty (a completion event without a running
    /// job is a simulator bug).
    pub fn on_done(&mut self, now: SimTime, slot: usize) -> (K, Option<FifoStart<K>>) {
        let finished = self.running[slot]
            .take()
            .expect("FIFO completion for an empty slot");
        self.completed += 1;
        if let Some((key, work)) = self.queue.pop_front() {
            self.running[slot] = Some(key);
            (
                finished,
                Some(FifoStart {
                    slot,
                    key,
                    done_at: now + work,
                }),
            )
        } else {
            self.active.add(now, -1.0);
            (finished, None)
        }
    }
}

/// Egalitarian processor-sharing server: `n` resident jobs each progress at
/// rate `1/n`. Simulated exactly by re-deriving the next completion time on
/// every membership change. Generic in the job-key type `K`.
#[derive(Debug)]
pub struct PsServer<K: Copy> {
    jobs: Vec<PsJob<K>>,
    last_update: SimTime,
    /// Bumped on every membership change; stale check events are discarded
    /// by comparing generations.
    pub generation: u64,
    /// Time-weighted number of resident jobs.
    pub active: TimeWeighted,
    /// Time-weighted 0/1 busy indicator (any job resident) — the engine's
    /// actual utilization, unlike `active`, which counts residency.
    pub busy: TimeWeighted,
    /// Jobs completed so far.
    pub completed: u64,
}

#[derive(Debug, Clone, Copy)]
struct PsJob<K: Copy> {
    key: K,
    /// Remaining dedicated service time, in seconds.
    remaining: f64,
}

/// Slack under which a PS job counts as finished (covers nanosecond
/// rounding of scheduled check times).
const PS_EPSILON: f64 = 1e-9;

impl<K: Copy> PsServer<K> {
    /// Creates an idle server at `start`.
    pub fn new(start: SimTime) -> Self {
        PsServer {
            jobs: Vec::new(),
            last_update: start,
            generation: 0,
            active: TimeWeighted::new(start, 0.0),
            busy: TimeWeighted::new(start, 0.0),
            completed: 0,
        }
    }

    /// Number of resident jobs.
    pub fn resident(&self) -> usize {
        self.jobs.len()
    }

    /// Advances all resident jobs to `now` at the shared rate.
    fn advance(&mut self, now: SimTime) {
        let dt = (now - self.last_update).as_secs_f64();
        if dt > 0.0 && !self.jobs.is_empty() {
            let rate = 1.0 / self.jobs.len() as f64;
            for j in &mut self.jobs {
                j.remaining -= dt * rate;
            }
        }
        self.last_update = now;
    }

    /// The next time any resident job can finish, or `None` if idle.
    /// Rounded *up* by one nanosecond so the job is guaranteed complete
    /// when the check fires.
    pub fn next_check(&self, now: SimTime) -> Option<SimTime> {
        if self.jobs.is_empty() {
            return None;
        }
        let min_remaining = self
            .jobs
            .iter()
            .map(|j| j.remaining.max(0.0))
            .fold(f64::INFINITY, f64::min);
        let n = self.jobs.len() as f64;
        let dt = SimDuration::from_nanos((min_remaining * n * 1e9).ceil() as u64 + 1);
        Some(now + dt)
    }

    /// Adds a job; returns the new next-check time. Bumps the generation.
    pub fn enqueue(&mut self, now: SimTime, key: K, work: SimDuration) -> Option<SimTime> {
        self.advance(now);
        if self.jobs.is_empty() {
            self.busy.set(now, 1.0);
        }
        self.jobs.push(PsJob {
            key,
            remaining: work.as_secs_f64(),
        });
        self.active.add(now, 1.0);
        self.generation += 1;
        self.next_check(now)
    }

    /// Processes a check event: completes every job whose remaining work is
    /// within `PS_EPSILON` (1e-9), appending the finished jobs to a
    /// caller-owned scratch buffer (the hot simulation loop reuses one
    /// across events) and returning the next check time. Bumps the
    /// generation iff membership changed.
    pub fn on_check_into(&mut self, now: SimTime, finished: &mut Vec<K>) -> Option<SimTime> {
        self.advance(now);
        let before = finished.len();
        self.jobs.retain(|j| {
            if j.remaining <= PS_EPSILON {
                finished.push(j.key);
                false
            } else {
                true
            }
        });
        let done = finished.len() - before;
        if done > 0 {
            self.completed += done as u64;
            self.active.add(now, -(done as f64));
            if self.jobs.is_empty() {
                self.busy.set(now, 0.0);
            }
            self.generation += 1;
        }
        self.next_check(now)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn key(seq: u64) -> JobKey {
        JobKey {
            owner: Owner::Stream(StreamId(0)),
            seq,
            stage: 0,
        }
    }

    fn ms(x: f64) -> SimDuration {
        SimDuration::from_millis_f64(x)
    }

    /// A check event, returning the finished jobs and the next check time.
    fn finish_due(s: &mut PsServer<JobKey>, now: SimTime) -> (Vec<JobKey>, Option<SimTime>) {
        let mut finished = Vec::new();
        let next = s.on_check_into(now, &mut finished);
        (finished, next)
    }

    fn t(x: f64) -> SimTime {
        SimTime::from_millis_f64(x)
    }

    #[test]
    fn fifo_starts_immediately_when_free() {
        let mut s = FifoServer::new(2, SimTime::ZERO);
        let start = s.enqueue(SimTime::ZERO, key(1), ms(10.0)).unwrap();
        assert_eq!(start.done_at, t(10.0));
        assert_eq!(s.queue_len(), 0);
    }

    #[test]
    fn fifo_queues_when_full() {
        let mut s = FifoServer::new(1, SimTime::ZERO);
        let a = s.enqueue(SimTime::ZERO, key(1), ms(10.0)).unwrap();
        assert!(s.enqueue(SimTime::ZERO, key(2), ms(5.0)).is_none());
        assert_eq!(s.queue_len(), 1);
        let (fin, next) = s.on_done(a.done_at, a.slot);
        assert_eq!(fin, key(1));
        let next = next.unwrap();
        assert_eq!(next.key, key(2));
        assert_eq!(next.done_at, t(15.0));
    }

    #[test]
    fn fifo_completion_count_and_util() {
        let mut s = FifoServer::new(1, SimTime::ZERO);
        let a = s.enqueue(SimTime::ZERO, key(1), ms(10.0)).unwrap();
        s.on_done(a.done_at, a.slot);
        assert_eq!(s.completed, 1);
        // Busy 10 ms of 20 ms => average active 0.5.
        assert!((s.active.average(t(20.0)) - 0.5).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "empty slot")]
    fn fifo_double_done_panics() {
        let mut s = FifoServer::new(1, SimTime::ZERO);
        let a = s.enqueue(SimTime::ZERO, key(1), ms(10.0)).unwrap();
        s.on_done(a.done_at, a.slot);
        s.on_done(a.done_at, a.slot);
    }

    #[test]
    fn ps_single_job_runs_at_full_rate() {
        let mut s = PsServer::new(SimTime::ZERO);
        let check = s.enqueue(SimTime::ZERO, key(1), ms(10.0)).unwrap();
        assert!((check.as_millis_f64() - 10.0).abs() < 1e-3);
        let (fin, next) = finish_due(&mut s, check);
        assert_eq!(fin, vec![key(1)]);
        assert!(next.is_none());
    }

    #[test]
    fn ps_two_equal_jobs_halve_the_rate() {
        let mut s = PsServer::new(SimTime::ZERO);
        s.enqueue(SimTime::ZERO, key(1), ms(10.0));
        let check = s.enqueue(SimTime::ZERO, key(2), ms(10.0)).unwrap();
        // Both share the server, so each takes 20 ms.
        assert!((check.as_millis_f64() - 20.0).abs() < 1e-3);
        let (fin, next) = finish_due(&mut s, check);
        assert_eq!(fin.len(), 2);
        assert!(next.is_none());
    }

    #[test]
    fn ps_late_arrival_slows_the_first_job() {
        let mut s = PsServer::new(SimTime::ZERO);
        s.enqueue(SimTime::ZERO, key(1), ms(10.0));
        // After 5 ms alone, job 1 has 5 ms left. Job 2 (10 ms) arrives.
        let check = s.enqueue(t(5.0), key(2), ms(10.0)).unwrap();
        // Job 1 needs 5 ms of service at rate 1/2 => finishes at 15 ms.
        assert!((check.as_millis_f64() - 15.0).abs() < 1e-3);
        let (fin, next) = finish_due(&mut s, check);
        assert_eq!(fin, vec![key(1)]);
        // Job 2 got 5 ms of service in those 10 ms; 5 ms left alone => 20 ms.
        let next = next.unwrap();
        assert!((next.as_millis_f64() - 20.0).abs() < 1e-3);
        let (fin, _) = finish_due(&mut s, next);
        assert_eq!(fin, vec![key(2)]);
    }

    #[test]
    fn ps_generation_bumps_on_membership_change() {
        let mut s = PsServer::new(SimTime::ZERO);
        let g0 = s.generation;
        let check = s.enqueue(SimTime::ZERO, key(1), ms(1.0)).unwrap();
        assert!(s.generation > g0);
        let g1 = s.generation;
        finish_due(&mut s, check);
        assert!(s.generation > g1);
    }

    #[test]
    fn ps_check_without_completion_keeps_generation() {
        let mut s = PsServer::new(SimTime::ZERO);
        s.enqueue(SimTime::ZERO, key(1), ms(10.0));
        let g = s.generation;
        // An early (stale-ish) check finds nothing done.
        let (fin, next) = finish_due(&mut s, t(1.0));
        assert!(fin.is_empty());
        assert_eq!(s.generation, g);
        assert!(next.is_some());
    }

    #[test]
    fn ps_utilization_tracks_residency() {
        let mut s = PsServer::new(SimTime::ZERO);
        let check = s.enqueue(SimTime::ZERO, key(1), ms(10.0)).unwrap();
        finish_due(&mut s, check);
        // 1 job resident for 10 ms out of 40 ms => 0.25 average residency.
        assert!((s.active.average(t(40.0)) - 0.25).abs() < 1e-6);
    }

    #[test]
    fn ps_busy_fraction_differs_from_residency() {
        // Two jobs resident simultaneously: residency 2, busy 1.
        let mut s = PsServer::new(SimTime::ZERO);
        s.enqueue(SimTime::ZERO, key(1), ms(10.0));
        let check = s.enqueue(SimTime::ZERO, key(2), ms(10.0)).unwrap();
        finish_due(&mut s, check);
        // Both finish at 20 ms; over 40 ms: residency avg = 1.0, busy 0.5.
        assert!((s.active.average(t(40.0)) - 1.0).abs() < 1e-6);
        assert!((s.busy.average(t(40.0)) - 0.5).abs() < 1e-6);
    }
}
