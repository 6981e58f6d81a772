//! Differential suite: `EventQueue` must be observationally identical
//! to a sorted-`Vec` reference model — same `(time, seq, event)` pop
//! sequence, same `len`, same `next_seq` — under arbitrary
//! schedule/pop/cancel/clear interleavings. The model is simple
//! enough to be correct by inspection, so the heap is checked against an
//! independent oracle and not only against its own earlier output.

use simcore::check;
use simcore::prop_assert_eq;
use simcore::{EventId, EventQueue, SimDuration, SimTime, Simulator};

/// The reference model: pending entries kept sorted by `(time, seq)` with
/// a linear-scan insert, plus the same never-reset sequence counter.
#[derive(Default)]
struct Model<E> {
    pending: Vec<(SimTime, u64, E)>,
    next_seq: u64,
}

impl<E> Model<E> {
    fn schedule(&mut self, time: SimTime, event: E) {
        let seq = self.next_seq;
        self.next_seq += 1;
        let at = self
            .pending
            .iter()
            .position(|&(t, s, _)| (t, s) > (time, seq))
            .unwrap_or(self.pending.len());
        self.pending.insert(at, (time, seq, event));
    }

    fn pop_entry(&mut self) -> Option<(SimTime, u64, E)> {
        (!self.pending.is_empty()).then(|| self.pending.remove(0))
    }

    fn next_time(&self) -> Option<SimTime> {
        self.pending.first().map(|&(t, _, _)| t)
    }

    /// Removes the entry `seq` if it is still pending.
    fn cancel(&mut self, seq: u64) {
        self.pending.retain(|&(_, s, _)| s != seq);
    }

    fn len(&self) -> usize {
        self.pending.len()
    }

    fn clear(&mut self) {
        self.pending.clear();
    }
}

/// The heap and the model driven through the same calls. Each payload is
/// its entry's `seq`, and `ids[seq]` is the id the heap returned for it,
/// so a cancel can name any entry ever scheduled: pending, popped,
/// cancelled or cleared.
#[derive(Default)]
struct Lockstep {
    heap: EventQueue<u64>,
    model: Model<u64>,
    ids: Vec<EventId>,
}

impl Lockstep {
    /// Schedules the next entry, its payload its `seq`, at `nanos` on both.
    fn schedule(&mut self, nanos: u64) {
        let t = SimTime::from_nanos(nanos);
        let seq = self.ids.len() as u64;
        self.ids.push(self.heap.schedule(t, seq));
        self.model.schedule(t, seq);
    }

    /// Cancels entry `seq` on both, whatever state it is in.
    fn cancel(&mut self, seq: u64) {
        self.heap.cancel(self.ids[seq as usize]);
        self.model.cancel(seq);
    }

    /// Pops both, which must return the same entry.
    fn pop(&mut self) -> Result<Option<(SimTime, u64, u64)>, String> {
        let h = self.heap.pop_entry();
        let m = self.model.pop_entry();
        prop_assert_eq!(h, m, "pop diverged: heap={h:?} model={m:?}");
        Ok(h)
    }

    fn clear(&mut self) {
        self.heap.clear();
        self.model.clear();
    }

    /// Both agree on `len`, `is_empty` and `next_seq`.
    fn agree(&self) -> Result<(), String> {
        prop_assert_eq!(self.heap.len(), self.model.len());
        prop_assert_eq!(self.heap.is_empty(), self.model.len() == 0);
        prop_assert_eq!(self.heap.next_seq(), self.model.next_seq);
        Ok(())
    }

    /// Pops both until empty, entry for entry.
    fn drain(&mut self) -> Result<(), String> {
        while self.pop()?.is_some() {}
        self.agree()
    }
}

/// One step of a queue workload. Decoded from a `(selector, a, b)` u64
/// triple so the property framework's shrinker applies directly.
#[derive(Debug, Clone, Copy)]
enum Op {
    /// Schedule `count` events at `time` (same-instant burst when
    /// `count` is large).
    Schedule { time: u64, count: u64 },
    /// Schedule one far-future outlier at `time << shift`.
    ScheduleFar { time: u64, shift: u32 },
    /// Pop up to `count` events, checking each against the model.
    Pop { count: u64 },
    /// Cancel one of the 64 most recently scheduled entries, `back`
    /// schedules ago, whether it is pending, popped, cancelled or cleared.
    Cancel { back: u64 },
    /// Drop everything (sequence counters must survive).
    Clear,
}

fn decode(step: &(u64, u64, u64)) -> Op {
    let (sel, a, b) = *step;
    match sel % 16 {
        // Scheduling dominates so queues actually fill up.
        0..=5 => Op::Schedule {
            time: a % 1_000_000,
            count: 1 + b % 4,
        },
        // Occasional large same-instant burst.
        6 => Op::Schedule {
            time: a % 1_000_000,
            count: 64 + b % 200,
        },
        7..=8 => Op::ScheduleFar {
            time: a,
            shift: (b % 24) as u32,
        },
        9..=12 => Op::Pop { count: 1 + b % 48 },
        13..=14 => Op::Cancel { back: a % 64 },
        _ => Op::Clear,
    }
}

/// Drives the heap and the model through the same op sequence, asserting
/// lockstep observational equality after every step.
fn run_differential(ops: &[(u64, u64, u64)]) -> Result<(), String> {
    let mut q = Lockstep::default();
    for step in ops {
        match decode(step) {
            Op::Schedule { time, count } => {
                for i in 0..count {
                    q.schedule(time + i % 3);
                }
            }
            Op::ScheduleFar { time, shift } => {
                q.schedule(time.saturating_mul(1 << shift));
            }
            Op::Pop { count } => {
                for _ in 0..count {
                    // Schedule-while-popping: sometimes schedule at
                    // exactly the popped time (the soonest legal instant)
                    // — the hostile case for FIFO tie-breaking.
                    let Some((t, seq, _)) = q.pop()? else { break };
                    if seq % 3 == 0 {
                        q.schedule(t.as_nanos());
                    }
                }
            }
            Op::Cancel { back } => {
                if let Some(seq) = (q.ids.len() as u64).checked_sub(1 + back) {
                    q.cancel(seq);
                }
            }
            Op::Clear => q.clear(),
        }
        q.agree()?;
    }
    // Final full drain must agree entry-for-entry.
    q.drain()
}

#[test]
fn heap_matches_model_under_random_interleavings() {
    let ops = check::vec(
        (check::u64s(0..), check::u64s(0..), check::u64s(0..)),
        1..120,
    );
    check::check("heap_matches_model", ops, |ops| run_differential(ops));
}

/// Deterministic worst cases the random sweep might under-sample.
#[test]
fn heap_matches_model_on_targeted_workloads() {
    // Large same-instant burst straddling pops.
    let mut ops: Vec<(u64, u64, u64)> = vec![(6, 500, 190), (9, 0, 20), (6, 500, 190), (9, 0, 500)];
    // Far-future outliers interleaved with near events, then a drain.
    for i in 0..40 {
        ops.push((7, i + 1, 23));
        ops.push((0, i * 13, 3));
    }
    ops.push((9, 0, 4000));
    // Clear mid-run, then rebuild a population.
    ops.push((15, 0, 0));
    for i in 0..30 {
        ops.push((0, i * 97, 3));
    }
    run_differential(&ops).unwrap();
}

/// Regression: neither the heap nor the model may reset its sequence
/// counter on `clear()`. A reset would re-issue seq numbers after a
/// mid-run clear and silently reorder same-time events relative to any
/// `(time, seq)` identity established before the clear.
#[test]
fn clear_preserves_next_seq_on_both_implementations() {
    let mut heap: EventQueue<u8> = EventQueue::new();
    let mut model: Model<u8> = Model::default();
    for (t, e) in [(10, 1), (10, 2), (10, 3)] {
        heap.schedule(SimTime::from_nanos(t), e);
        model.schedule(SimTime::from_nanos(t), e);
    }
    assert_eq!((heap.next_seq(), model.next_seq), (3, 3));
    heap.clear();
    model.clear();
    assert!(heap.is_empty());
    assert_eq!(model.len(), 0);
    assert_eq!(heap.next_seq(), 3, "clear must not reset next_seq");
    assert_eq!(model.next_seq, 3);
    for (t, e) in [(10, 4), (10, 5)] {
        heap.schedule(SimTime::from_nanos(t), e);
        model.schedule(SimTime::from_nanos(t), e);
    }
    for expected in [(3, 4), (4, 5)] {
        let (_, seq, e) = heap.pop_entry().unwrap();
        assert_eq!(
            (seq, e),
            expected,
            "post-clear seq must continue, not restart"
        );
        assert_eq!(model.pop_entry(), Some((SimTime::from_nanos(10), seq, e)));
    }
}

/// Property flavor of the same regression: after any schedule/clear
/// prefix, the heap and the model agree on `next_seq` and it equals the
/// total number of schedules ever issued.
#[test]
fn check_next_seq_counts_every_schedule_across_clears() {
    let ops = check::vec((check::u64s(0..10), check::u64s(0..50)), 1..60);
    check::check("next_seq_across_clears", ops, |ops| {
        let mut heap: EventQueue<()> = EventQueue::new();
        let mut model: Model<()> = Model::default();
        let mut scheduled = 0u64;
        for &(sel, t) in ops {
            if sel == 0 {
                heap.clear();
                model.clear();
            } else {
                heap.schedule(SimTime::from_nanos(t), ());
                model.schedule(SimTime::from_nanos(t), ());
                scheduled += 1;
            }
            prop_assert_eq!(heap.next_seq(), scheduled);
            prop_assert_eq!(model.next_seq, scheduled);
        }
        Ok(())
    });
}

/// A schedule below the last popped time takes the slow relink path and
/// must still slot in ahead of every pending entry, ties FIFO.
#[test]
fn schedule_below_the_last_pop_matches_model() {
    let mut q = Lockstep::default();
    for t in [1_000, 5_000, 5_000, 70_000, 1 << 40, 5_000] {
        q.schedule(t);
    }
    q.pop().unwrap();
    q.pop().unwrap();
    // The last pop was at 5 µs; go below it, to it, and far below it.
    for t in [4_999, 5_000, 3, 5_000, 4_999, 0] {
        q.schedule(t);
    }
    q.agree().unwrap();
    q.drain().unwrap();
}

/// `clear` keeps the base; a later schedule before it must still pop.
#[test]
fn clear_then_earlier_schedule_matches_model() {
    let mut q = Lockstep::default();
    for t in [900, 950, 1_200] {
        q.schedule(t);
    }
    q.pop().unwrap();
    q.clear();
    for t in [10, 2_000, 10, 899] {
        q.schedule(t);
    }
    q.drain().unwrap();
}

/// Times at and next to `SimTime::MAX` use the top bucket; the key must
/// not overflow and ties there stay FIFO.
#[test]
fn times_near_max_match_model() {
    let mut q = Lockstep::default();
    let max = u64::MAX;
    for t in [
        max,
        max - 1,
        0,
        max,
        1 << 63,
        (1 << 63) - 1,
        max - 1,
        7,
        max,
    ] {
        q.schedule(t);
    }
    for _ in 0..3 {
        q.pop().unwrap();
    }
    q.schedule(max);
    q.drain().unwrap();
}

/// Cancelling the front list's head: the next same-time entry pops.
#[test]
fn cancel_of_the_front_head_matches_model() {
    let mut q = Lockstep::default();
    for _ in 0..3 {
        q.schedule(5);
    }
    // The first pop moves the base to 5 and the other two to the front.
    q.pop().unwrap();
    q.cancel(1);
    assert_eq!(q.pop().unwrap().map(|(_, seq, _)| seq), Some(2));
    q.drain().unwrap();
}

/// Cancelling the entry whose time is the lowest bucket's minimum: the
/// minimum goes stale, and the relink around it frees the tombstone.
#[test]
fn cancel_of_the_lowest_bucket_minimum_matches_model() {
    let mut q = Lockstep::default();
    // 20 and 30 share bucket 4 (minimum 20); 1000 sits in bucket 9.
    for t in [20, 30, 1_000] {
        q.schedule(t);
    }
    q.cancel(0);
    q.agree().unwrap();
    assert_eq!(q.pop().unwrap().map(|(_, seq, _)| seq), Some(1));
    q.drain().unwrap();
}

/// Cancelling the lone entry of the lowest bucket.
#[test]
fn cancel_of_a_lone_bucket_entry_matches_model() {
    let mut q = Lockstep::default();
    q.schedule(10);
    q.schedule(1_000);
    q.cancel(0);
    assert_eq!(q.pop().unwrap().map(|(_, seq, _)| seq), Some(1));
    q.drain().unwrap();
}

/// Cancelling an entry that already popped, twice, does nothing.
#[test]
fn cancel_of_a_popped_entry_does_nothing() {
    let mut q = Lockstep::default();
    q.schedule(10);
    q.schedule(20);
    q.pop().unwrap();
    q.cancel(0);
    q.cancel(0);
    q.agree().unwrap();
    assert_eq!(q.heap.len(), 1);
    q.drain().unwrap();
}

/// A popped entry's slot is reused by the next schedule; the old id must
/// not cancel the new occupant.
#[test]
fn cancel_of_a_reused_slot_keeps_the_new_occupant() {
    let mut q = Lockstep::default();
    q.schedule(10);
    q.pop().unwrap();
    q.schedule(20);
    q.cancel(0);
    assert_eq!(q.pop().unwrap().map(|(_, seq, _)| seq), Some(1));
    q.drain().unwrap();
}

/// Ids from before a `clear` match none of the entries scheduled after
/// it into the same slots.
#[test]
fn cancel_of_an_id_from_before_a_clear_does_nothing() {
    let mut q = Lockstep::default();
    q.schedule(10);
    q.schedule(20);
    q.clear();
    q.schedule(10);
    q.schedule(20);
    q.cancel(0);
    q.cancel(1);
    q.agree().unwrap();
    assert_eq!(q.heap.len(), 2);
    q.drain().unwrap();
}

/// A cancelled entry still pending when a schedule below the base relinks
/// the queue: its slot goes back on the free list, the next schedule
/// reuses it, and the old id leaves that entry alone.
#[test]
fn cancel_before_a_rebase_frees_the_slot_for_reuse() {
    let mut q = Lockstep::default();
    for t in [100, 200, 300] {
        q.schedule(t);
    }
    q.pop().unwrap();
    q.cancel(1);
    q.schedule(50);
    q.schedule(400);
    q.cancel(1);
    q.agree().unwrap();
    assert_eq!(q.heap.len(), 3);
    q.drain().unwrap();
}

/// Ten thousand events at one instant, scheduled around pops of that
/// same instant, pop in insertion order.
#[test]
fn ten_thousand_same_instant_pop_fifo() {
    let mut heap: EventQueue<u64> = EventQueue::new();
    let t = SimTime::from_nanos(123_456_789);
    heap.schedule(SimTime::from_nanos(5), 0);
    assert_eq!(heap.pop_entry(), Some((SimTime::from_nanos(5), 0, 0)));
    for e in 1..=5_000 {
        heap.schedule(t, e);
    }
    for e in 1..=100 {
        assert_eq!(heap.pop_entry(), Some((t, e, e)));
    }
    for e in 5_001..=10_100 {
        heap.schedule(t, e);
    }
    for e in 101..=10_100 {
        assert_eq!(heap.pop_entry(), Some((t, e, e)));
    }
    assert!(heap.is_empty());
}

/// One step of a `Simulator`-shaped workload, decoded from a `(selector,
/// a, b)` triple.
#[derive(Debug, Clone, Copy)]
enum SimOp {
    /// Schedule from outside the loop at `now + delay`.
    Schedule { delay: u64 },
    /// Schedule `count` events at exactly `now`.
    Burst { count: u64 },
    /// `run_until(now + span)`, or `now - span` when `behind`; each
    /// dispatched event `p` schedules a follow-up when `p % 4 != 3`: at
    /// `now` when `p % 4 == 0`, otherwise `delay(p)` later. It may also
    /// cancel an earlier event (see [`cancel_target`]).
    Run { span: u64, behind: bool },
}

fn decode_sim(step: &(u64, u64, u64)) -> SimOp {
    let (sel, a, b) = *step;
    match sel % 8 {
        0..=2 => SimOp::Schedule {
            delay: a % (1 << (b % 40)),
        },
        3 => SimOp::Burst { count: 1 + b % 64 },
        _ => SimOp::Run {
            span: a % (1 << (b % 36)),
            behind: sel % 8 == 7,
        },
    }
}

/// The follow-up delay a dispatched payload asks for (see [`SimOp::Run`]).
fn follow_up(p: u64) -> Option<u64> {
    match p % 4 {
        0 => Some(0),
        3 => None,
        _ => Some(p.wrapping_mul(0x9e37_79b9_7f4a_7c15) >> (24 + p % 32)),
    }
}

/// The earlier event a dispatched payload cancels: every fifth payload
/// names a pseudo-random smaller `seq`, which may be pending, dispatched
/// or already cancelled. Payloads equal their `seq`.
fn cancel_target(p: u64) -> Option<u64> {
    (p % 5 == 2).then(|| p.wrapping_mul(0x2545_f491_4f6c_dd1d) % p)
}

/// Drives a `Simulator` and the model through the same op sequence: the
/// model pops while its earliest time is at or before the deadline and
/// replays the same follow-ups and cancels, so dispatch order, `pending`
/// and the clock must agree after every step. Only handlers hold ids, so
/// only events a handler scheduled can be cancelled; `ids[seq]` is `None`
/// for the rest.
fn run_sim_differential(ops: &[(u64, u64, u64)]) -> Result<(), String> {
    let mut sim: Simulator<u64> = Simulator::new();
    let mut model: Model<u64> = Model::default();
    let mut ids: Vec<Option<EventId>> = Vec::new();
    let mut now = SimTime::ZERO;
    let mut payload = 0u64;
    for step in ops {
        match decode_sim(step) {
            SimOp::Schedule { delay } => {
                let t = now + SimDuration::from_nanos(delay);
                sim.schedule(t, payload);
                model.schedule(t, payload);
                ids.push(None);
                payload += 1;
            }
            SimOp::Burst { count } => {
                for _ in 0..count {
                    sim.schedule(now, payload);
                    model.schedule(now, payload);
                    ids.push(None);
                    payload += 1;
                }
            }
            SimOp::Run { span, behind } => {
                let deadline = if behind {
                    SimTime::from_nanos(now.as_nanos().saturating_sub(span))
                } else {
                    now + SimDuration::from_nanos(span)
                };
                let mut next = payload;
                let mut seen = Vec::new();
                sim.run_until(deadline, |sched, p| {
                    seen.push((sched.now(), p));
                    if let Some(d) = follow_up(p) {
                        let at = sched.now() + SimDuration::from_nanos(d);
                        ids.push(Some(sched.schedule_at(at, next)));
                        next += 1;
                    }
                    if let Some(Some(id)) = cancel_target(p).map(|seq| ids[seq as usize]) {
                        sched.cancel(id);
                    }
                });
                let mut expected = Vec::new();
                while model.next_time().is_some_and(|t| t <= deadline) {
                    let (t, _, p) = model.pop_entry().unwrap();
                    expected.push((t, p));
                    if let Some(d) = follow_up(p) {
                        model.schedule(t + SimDuration::from_nanos(d), payload);
                        payload += 1;
                    }
                    if let Some(seq) = cancel_target(p).filter(|&seq| ids[seq as usize].is_some()) {
                        model.cancel(seq);
                    }
                }
                prop_assert_eq!(seen, expected);
                prop_assert_eq!(next, payload);
                now = now.max(deadline);
            }
        }
        prop_assert_eq!(sim.now(), now);
        prop_assert_eq!(sim.pending(), model.len());
    }
    Ok(())
}

#[test]
fn simulator_matches_model_under_random_workloads() {
    let ops = check::vec(
        (check::u64s(0..), check::u64s(0..), check::u64s(0..)),
        1..80,
    );
    check::check("simulator_matches_model", ops, |ops| {
        run_sim_differential(ops)
    });
}
