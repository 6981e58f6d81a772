//! Differential suite: `EventQueue` must be observationally identical
//! to a sorted-`Vec` reference model — same `(time, seq, event)` pop
//! sequence, same `peek_time`, same `len`, same `next_seq` — under
//! arbitrary schedule/pop/clear interleavings. The model is simple
//! enough to be correct by inspection, so the heap is checked against an
//! independent oracle and not only against its own earlier output.

use simcore::check;
use simcore::prop_assert_eq;
use simcore::{EventQueue, SimDuration, SimTime, Simulator};

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

    fn peek_time(&self) -> Option<SimTime> {
        self.pending.first().map(|&(t, _, _)| t)
    }

    fn len(&self) -> usize {
        self.pending.len()
    }

    fn clear(&mut self) {
        self.pending.clear();
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
    /// Peek without popping.
    Peek,
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
        13..=14 => Op::Peek,
        _ => Op::Clear,
    }
}

/// Drives the heap and the model through the same op sequence, asserting
/// lockstep observational equality after every step.
fn run_differential(ops: &[(u64, u64, u64)]) -> Result<(), String> {
    let mut heap: EventQueue<u64> = EventQueue::new();
    let mut model: Model<u64> = Model::default();
    let mut payload = 0u64;
    for step in ops {
        match decode(step) {
            Op::Schedule { time, count } => {
                for i in 0..count {
                    let t = SimTime::from_nanos(time + i % 3);
                    heap.schedule(t, payload);
                    model.schedule(t, payload);
                    payload += 1;
                }
            }
            Op::ScheduleFar { time, shift } => {
                let t = SimTime::from_nanos(time.saturating_mul(1 << shift));
                heap.schedule(t, payload);
                model.schedule(t, payload);
                payload += 1;
            }
            Op::Pop { count } => {
                for _ in 0..count {
                    // Schedule-while-popping: peek first, then pop, then
                    // sometimes schedule at exactly the popped time (the
                    // soonest legal instant) — the hostile case for FIFO
                    // tie-breaking.
                    prop_assert_eq!(heap.peek_time(), model.peek_time());
                    let h = heap.pop_entry();
                    let m = model.pop_entry();
                    prop_assert_eq!(h, m, "pop diverged: heap={h:?} model={m:?}");
                    if let Some((t, seq, _)) = h {
                        if seq % 3 == 0 {
                            heap.schedule(t, payload);
                            model.schedule(t, payload);
                            payload += 1;
                        }
                    } else {
                        break;
                    }
                }
            }
            Op::Peek => {
                prop_assert_eq!(heap.peek_time(), model.peek_time());
            }
            Op::Clear => {
                heap.clear();
                model.clear();
            }
        }
        prop_assert_eq!(heap.len(), model.len());
        prop_assert_eq!(heap.is_empty(), model.len() == 0);
        prop_assert_eq!(heap.next_seq(), model.next_seq);
    }
    // Final full drain must agree entry-for-entry.
    loop {
        let h = heap.pop_entry();
        let m = model.pop_entry();
        prop_assert_eq!(h, m, "drain diverged: heap={h:?} model={m:?}");
        if h.is_none() {
            break;
        }
    }
    Ok(())
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

/// Drains `heap` and `model` side by side, requiring identical entries.
fn drain_matches(heap: &mut EventQueue<u64>, model: &mut Model<u64>) {
    loop {
        assert_eq!(heap.peek_time(), model.peek_time());
        let h = heap.pop_entry();
        assert_eq!(h, model.pop_entry());
        if h.is_none() {
            break;
        }
    }
}

/// A schedule below the last popped time takes the slow relink path and
/// must still slot in ahead of every pending entry, ties FIFO.
#[test]
fn schedule_below_the_last_pop_matches_model() {
    let mut heap: EventQueue<u64> = EventQueue::new();
    let mut model: Model<u64> = Model::default();
    let mut payload = 0u64;
    let mut both = |heap: &mut EventQueue<u64>, model: &mut Model<u64>, t: u64| {
        heap.schedule(SimTime::from_nanos(t), payload);
        model.schedule(SimTime::from_nanos(t), payload);
        payload += 1;
    };
    for t in [1_000, 5_000, 5_000, 70_000, 1 << 40, 5_000] {
        both(&mut heap, &mut model, t);
    }
    assert_eq!(heap.pop_entry(), model.pop_entry());
    assert_eq!(heap.pop_entry(), model.pop_entry());
    // The last pop was at 5 µs; go below it, to it, and far below it.
    for t in [4_999, 5_000, 3, 5_000, 4_999, 0] {
        both(&mut heap, &mut model, t);
    }
    assert_eq!(heap.len(), model.len());
    drain_matches(&mut heap, &mut model);
}

/// `clear` keeps the base; a later schedule before it must still pop.
#[test]
fn clear_then_earlier_schedule_matches_model() {
    let mut heap: EventQueue<u64> = EventQueue::new();
    let mut model: Model<u64> = Model::default();
    for (t, e) in [(900, 0), (950, 1), (1_200, 2)] {
        heap.schedule(SimTime::from_nanos(t), e);
        model.schedule(SimTime::from_nanos(t), e);
    }
    assert_eq!(heap.pop_entry(), model.pop_entry());
    heap.clear();
    model.clear();
    for (t, e) in [(10, 3), (2_000, 4), (10, 5), (899, 6)] {
        heap.schedule(SimTime::from_nanos(t), e);
        model.schedule(SimTime::from_nanos(t), e);
    }
    drain_matches(&mut heap, &mut model);
}

/// Times at and next to `SimTime::MAX` use the top bucket; the key must
/// not overflow and ties there stay FIFO.
#[test]
fn times_near_max_match_model() {
    let mut heap: EventQueue<u64> = EventQueue::new();
    let mut model: Model<u64> = Model::default();
    let max = u64::MAX;
    let times = [
        max,
        max - 1,
        0,
        max,
        1 << 63,
        (1 << 63) - 1,
        max - 1,
        7,
        max,
    ];
    for (e, &t) in times.iter().enumerate() {
        heap.schedule(SimTime::from_nanos(t), e as u64);
        model.schedule(SimTime::from_nanos(t), e as u64);
    }
    for _ in 0..3 {
        assert_eq!(heap.pop_entry(), model.pop_entry());
    }
    heap.schedule(SimTime::MAX, 100);
    model.schedule(SimTime::MAX, 100);
    drain_matches(&mut heap, &mut model);
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
    /// `now` when `p % 4 == 0`, otherwise `delay(p)` later.
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

/// Drives a `Simulator` and the model through the same op sequence: the
/// model pops while its earliest time is at or before the deadline and
/// replays the same follow-ups, so dispatch order, `pending` and the
/// clock must agree after every step.
fn run_sim_differential(ops: &[(u64, u64, u64)]) -> Result<(), String> {
    let mut sim: Simulator<u64> = Simulator::new();
    let mut model: Model<u64> = Model::default();
    let mut now = SimTime::ZERO;
    let mut payload = 0u64;
    for step in ops {
        match decode_sim(step) {
            SimOp::Schedule { delay } => {
                let t = now + SimDuration::from_nanos(delay);
                sim.schedule(t, payload);
                model.schedule(t, payload);
                payload += 1;
            }
            SimOp::Burst { count } => {
                for _ in 0..count {
                    sim.schedule(now, payload);
                    model.schedule(now, payload);
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
                        sched.schedule_after(SimDuration::from_nanos(d), next);
                        next += 1;
                    }
                });
                let mut expected = Vec::new();
                while model.peek_time().is_some_and(|t| t <= deadline) {
                    let (t, _, p) = model.pop_entry().unwrap();
                    expected.push((t, p));
                    if let Some(d) = follow_up(p) {
                        model.schedule(t + SimDuration::from_nanos(d), payload);
                        payload += 1;
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
