//! Differential suite: `EventQueue` must be observationally identical
//! to a sorted-`Vec` reference model — same `(time, seq, event)` pop
//! sequence, same `peek_time`, same `len`, same `next_seq` — under
//! arbitrary schedule/pop/clear interleavings. The model is simple
//! enough to be correct by inspection, so the heap is checked against an
//! independent oracle and not only against its own earlier output.

use simcore::check;
use simcore::prop_assert_eq;
use simcore::{EventQueue, SimTime};

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
