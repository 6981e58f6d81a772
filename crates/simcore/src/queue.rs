//! Deterministic future-event list and simulation driver.
//!
//! [`EventQueue`] is a multi-level radix heap keyed on `SimTime`
//! nanoseconds that pops in exactly `(time, seq)` order — same-time
//! events fire in insertion order — so a simulation's event stream, and
//! therefore every RNG draw and published figure, is a pure function of
//! its inputs. `tests/differential.rs` checks it in lockstep against a
//! sorted-`Vec` reference model.
//!
//! # Layout
//!
//! Every entry lives in one slab of nodes (time, seq, next index, event)
//! with a free list, so a queue allocates only when its pending count
//! reaches a new peak. The nodes are threaded into FIFO index lists: a
//! front list holding the entries at exactly the base time, and a table
//! of 11 levels × 64 lists. A time is read as 6-bit digits, low digit
//! first (the top level is 4 bits wide); an entry goes to list
//! `[level][digit]`, where `level` is its highest digit that differs from
//! the base's and `digit` is its own value there. One `u64` mask per
//! level marks its non-empty lists, and one word marks the non-empty
//! levels; a list whose bit is clear is empty whatever it holds, so
//! emptying the table is clearing the masks. The table is built a level
//! at a time as entries first reach it, so a new queue allocates nothing.
//! This is the radix heap of Ahuja, Mehlhorn, Orlin and Tarjan (1990)
//! with 64-way digits.
//!
//! The base is the last popped time (zero at first). A pop takes the
//! front list's head. When the front is empty, the lowest non-empty
//! `[level][digit]` list holds the earliest entries, and its minimum,
//! kept up to date as entries are linked, becomes the base. A level-0
//! list, whose entries all share one time, or a list of one entry becomes
//! the front whole. Any other list is relinked around the new base, and
//! its entries all land in the front or on lower levels. Those lists are
//! empty at that point, and a new entry always carries the largest `seq`,
//! so every list stays in `seq` order and ties pop FIFO. The other lists
//! of the relinked level still match their digit under the new base and
//! stay put. An entry moves down at most 10 times, so a pop is amortized
//! `O(1)` in the pending count.
//!
//! A schedule at or after the base (everything a [`Simulator`]
//! schedules, since nothing goes before `now`) is a list append.
//! Scheduling a raw queue below its base stays correct but slow: every
//! pending entry is relinked, in `seq` order, around the new base.
//!
//! A cancel leaves its entry linked as a tombstone, which the pop that
//! reaches it frees, so the base may rest on a cancelled entry's time;
//! a [`Simulator`] pops only up to its deadline, so never past its clock.

use crate::time::SimTime;

/// End of an index list; also the empty free list.
const NIL: u32 = u32::MAX;

/// Width of one radix digit, in bits.
const DIGIT_BITS: u32 = 6;
/// Lists per level, one per digit value.
const DIGITS: usize = 1 << DIGIT_BITS;
/// Digits in a 64-bit time; the top one is `64 % DIGIT_BITS` bits wide.
const LEVELS: usize = 64usize.div_ceil(DIGIT_BITS as usize);

/// A slab slot. `event` is `None` on the free list and in a tombstone.
struct Node<E> {
    time: SimTime,
    seq: u64,
    next: u32,
    event: Option<E>,
    /// Times this entry was relinked since it was scheduled.
    #[cfg(test)]
    relinks: u32,
}

/// A FIFO list of slab indices threaded through [`Node::next`]. A table
/// list's fields mean something only while its mask bit is set.
#[derive(Clone, Copy)]
struct List {
    head: u32,
    tail: u32,
    /// The earliest time in a table list, kept as entries are linked, so
    /// finding the next base needs no scan. Unused on the front list,
    /// whose entries all sit at the base.
    min: SimTime,
}

const EMPTY: List = List {
    head: NIL,
    tail: NIL,
    min: SimTime::MAX,
};

/// A scheduled entry's slab slot and `seq`, which is never reissued, so
/// an id whose entry has gone matches nothing even once the slot is reused.
#[derive(Debug, Clone, Copy)]
pub struct EventId {
    slot: u32,
    seq: u64,
}

/// A future-event list: a priority queue of `(SimTime, E)` pairs with
/// deterministic FIFO tie-breaking.
///
/// Entries pop in strictly increasing `(time, seq)` order, where `seq` is
/// the monotone counter assigned by [`schedule`](EventQueue::schedule).
/// `clear` drops pending events but does NOT reset the counter: a
/// mid-run clear that re-issued sequence numbers would silently reorder
/// same-time events against ones scheduled before the clear
/// (regression-tested).
///
/// # Example
///
/// ```
/// use simcore::{EventQueue, SimTime};
///
/// let mut q = EventQueue::new();
/// q.schedule(SimTime::from_nanos(5), 'x');
/// q.schedule(SimTime::from_nanos(5), 'y');
/// assert_eq!(q.pop().unwrap().1, 'x'); // same-time events pop FIFO
/// assert_eq!(q.pop().unwrap().1, 'y');
/// assert!(q.pop().is_none());
/// ```
pub struct EventQueue<E> {
    nodes: Vec<Node<E>>,
    free: u32,
    front: List,
    /// List `[level][digit]`, grown a level at a time on first use: a
    /// queue costs nothing to build, and one whose times stay close
    /// together never builds its upper levels.
    lists: Vec<[List; DIGITS]>,
    /// Bit `d` of `masks[l]` marks list `[l][d]` non-empty.
    masks: [u64; LEVELS],
    /// Bit `l` marks `masks[l]` non-zero.
    levels: u64,
    base: SimTime,
    len: usize,
    next_seq: u64,
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

/// Appends slab slot `idx` to the tail of `list`.
fn append<E>(nodes: &mut [Node<E>], list: &mut List, idx: u32) {
    nodes[idx as usize].next = NIL;
    match list.tail {
        NIL => list.head = idx,
        tail => nodes[tail as usize].next = idx,
    }
    list.tail = idx;
}

impl<E> EventQueue<E> {
    /// Creates an empty queue.
    pub fn new() -> Self {
        EventQueue {
            nodes: Vec::new(),
            free: NIL,
            front: EMPTY,
            lists: Vec::new(),
            masks: [0; LEVELS],
            levels: 0,
            base: SimTime::ZERO,
            len: 0,
            next_seq: 0,
        }
    }

    /// Schedules `event` to fire at `time`; the id can cancel it.
    pub fn schedule(&mut self, time: SimTime, event: E) -> EventId {
        if time < self.base {
            self.rebase(time);
        }
        let seq = self.next_seq;
        let node = Node {
            time,
            seq,
            next: NIL,
            event: Some(event),
            #[cfg(test)]
            relinks: 0,
        };
        self.next_seq += 1;
        let idx = match self.free {
            NIL => {
                let idx = u32::try_from(self.nodes.len())
                    .ok()
                    .filter(|&i| i != NIL)
                    .expect("event queue slab is full");
                self.nodes.push(node);
                idx
            }
            idx => {
                self.free = self.nodes[idx as usize].next;
                self.nodes[idx as usize] = node;
                idx
            }
        };
        self.link(idx);
        self.len += 1;
        EventId { slot: idx, seq }
    }

    /// Cancels the entry `id` names if it is still pending; otherwise
    /// does nothing.
    pub fn cancel(&mut self, id: EventId) {
        let node = self.nodes.get_mut(id.slot as usize);
        if let Some(_dropped) = node.and_then(|n| n.event.take_if(|_| n.seq == id.seq)) {
            self.len -= 1;
        }
    }

    /// [`schedule`](Self::schedule) for the [`Simulator`] paths, which
    /// never go below `now` and so never below the base.
    fn schedule_forward(&mut self, time: SimTime, event: E) -> EventId {
        debug_assert!(
            time >= self.base,
            "simulator schedule at {time} fell below the queue base {}",
            self.base
        );
        self.schedule(time, event)
    }

    /// Removes and returns the earliest event, or `None` if empty.
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        self.pop_entry().map(|(t, _, e)| (t, e))
    }

    /// Removes and returns the earliest `(time, seq, event)` entry.
    pub fn pop_entry(&mut self) -> Option<(SimTime, u64, E)> {
        self.pop_until(SimTime::MAX)
    }

    /// Removes and returns the earliest entry if it fires at or before
    /// `deadline`, freeing the tombstones it passes. The base moves only
    /// to times it pops, so it never passes a simulator's clock.
    fn pop_until(&mut self, deadline: SimTime) -> Option<(SimTime, u64, E)> {
        loop {
            if self.front.head == NIL {
                if self.levels == 0 {
                    return None;
                }
                let level = self.levels.trailing_zeros() as usize;
                let digit = self.masks[level].trailing_zeros() as usize;
                let list = self.lists[level][digit];
                if list.min > deadline {
                    return None;
                }
                self.masks[level] &= !(1 << digit);
                if self.masks[level] == 0 {
                    self.levels &= !(1 << level);
                }
                self.base = list.min;
                if level == 0 || list.head == list.tail {
                    // All at one time, or a lone entry: the earliest
                    // entries, already in `seq` order.
                    self.front = list;
                } else {
                    self.relink(list.head);
                }
            } else if self.base > deadline {
                return None;
            }
            let idx = self.front.head;
            let node = &mut self.nodes[idx as usize];
            self.front.head = std::mem::replace(&mut node.next, self.free);
            if self.front.head == NIL {
                self.front.tail = NIL;
            }
            self.free = idx;
            if let Some(event) = node.event.take() {
                self.len -= 1;
                return Some((node.time, node.seq, event));
            }
        }
    }

    /// Number of pending events; cancelled ones do not count.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True if no events are pending.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Drops all pending events. `next_seq` is deliberately NOT reset:
    /// sequence numbers stay unique across a mid-run clear, so same-time
    /// events never reorder against survivors of earlier epochs.
    pub fn clear(&mut self) {
        self.nodes.clear();
        self.free = NIL;
        self.empty_lists();
        self.len = 0;
    }

    /// The sequence number the next scheduled event will receive.
    pub fn next_seq(&self) -> u64 {
        self.next_seq
    }

    /// Empties the front and every table list, unlinking nothing.
    fn empty_lists(&mut self) {
        self.front = EMPTY;
        self.masks = [0; LEVELS];
        self.levels = 0;
    }

    /// Appends slot `idx` to the list its time maps to under the base.
    fn link(&mut self, idx: u32) {
        let time = self.nodes[idx as usize].time;
        let diff = time.as_nanos() ^ self.base.as_nanos();
        if diff == 0 {
            return append(&mut self.nodes, &mut self.front, idx);
        }
        let level = ((63 - diff.leading_zeros()) / DIGIT_BITS) as usize;
        let digit = (time.as_nanos() >> (level as u32 * DIGIT_BITS)) as usize % DIGITS;
        if level >= self.lists.len() {
            self.add_levels(level);
        }
        let list = &mut self.lists[level][digit];
        self.nodes[idx as usize].next = NIL;
        if self.masks[level] & (1 << digit) == 0 {
            self.masks[level] |= 1 << digit;
            self.levels |= 1 << level;
            *list = List {
                head: idx,
                tail: idx,
                min: time,
            };
        } else {
            self.nodes[list.tail as usize].next = idx;
            list.tail = idx;
            list.min = list.min.min(time);
        }
    }

    /// Builds the table up to `level`, reserving room for every level at
    /// the first call.
    #[cold]
    fn add_levels(&mut self, level: usize) {
        self.lists.reserve_exact(LEVELS - self.lists.len());
        self.lists.resize(level + 1, [EMPTY; DIGITS]);
    }

    /// Relinks the chain from `idx` in list order around a base just set
    /// to its list's minimum. Every entry lands in the front or a lower
    /// level, all of which are empty, so `seq` order survives.
    fn relink(&mut self, mut idx: u32) {
        while idx != NIL {
            let next = self.nodes[idx as usize].next;
            #[cfg(test)]
            {
                self.nodes[idx as usize].relinks += 1;
            }
            self.link(idx);
            idx = next;
        }
    }

    /// The slow path of a schedule below the base: relinks every pending
    /// entry, in `seq` order, around `time` as the new base, and frees
    /// every other slot, tombstones included.
    #[cold]
    fn rebase(&mut self, time: SimTime) {
        let mut live = Vec::with_capacity(self.len);
        self.free = NIL;
        for (idx, node) in self.nodes.iter_mut().enumerate().rev() {
            match node.event {
                Some(_) => live.push(idx as u32),
                None => node.next = std::mem::replace(&mut self.free, idx as u32),
            }
        }
        live.sort_unstable_by_key(|&i| self.nodes[i as usize].seq);
        self.empty_lists();
        self.base = time;
        for idx in live {
            self.link(idx);
        }
    }
}

impl<E> std::fmt::Debug for EventQueue<E> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("EventQueue")
            .field("pending", &self.len)
            .field("next_seq", &self.next_seq)
            .finish()
    }
}

/// The event-list choice that `ClusterSim::new` still takes as its third
/// argument. There is only one list, the radix-heap [`EventQueue`], so
/// the value is ignored. The type survives only because the `perfbench`
/// harness passes `FleetSpec::queue` to `ClusterSim::new`; it goes with
/// the next change to that harness.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum QueueKind {
    /// The radix-heap [`EventQueue`].
    #[default]
    Heap,
}

/// Scheduling context handed to event handlers by [`Simulator::run_until`].
///
/// Handlers use it to read the current simulated time and schedule follow-up
/// events without borrowing the simulator itself.
#[derive(Debug)]
pub struct Scheduler<'a, E> {
    now: SimTime,
    queue: &'a mut EventQueue<E>,
}

impl<E> Scheduler<'_, E> {
    /// Current simulated time (the firing time of the event being handled).
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Schedules a follow-up event at an absolute time.
    ///
    /// # Panics
    ///
    /// Panics if `time` is in the past: causality violations are bugs.
    pub fn schedule_at(&mut self, time: SimTime, event: E) -> EventId {
        assert!(
            time >= self.now,
            "cannot schedule into the past: {time} < {}",
            self.now
        );
        self.queue.schedule_forward(time, event)
    }

    /// Cancels a pending event; see [`EventQueue::cancel`].
    pub fn cancel(&mut self, id: EventId) {
        self.queue.cancel(id);
    }

    /// Schedules a follow-up event `delay` after now.
    pub fn schedule_after(&mut self, delay: crate::SimDuration, event: E) {
        self.queue.schedule_forward(self.now + delay, event);
    }
}

/// A minimal simulation driver: pops events in time order and dispatches
/// them to a handler closure until a deadline or queue exhaustion.
///
/// The world state lives in the handler's environment (typically a struct
/// the caller owns), keeping `Simulator` free of borrows.
///
/// # Example
///
/// ```
/// use simcore::{Simulator, SimTime, SimDuration};
///
/// #[derive(Debug)]
/// enum Ev { Tick(u32) }
///
/// let mut sim = Simulator::new();
/// sim.schedule(SimTime::ZERO, Ev::Tick(0));
/// let mut count = 0;
/// sim.run_until(SimTime::from_secs_f64(1.0), |sched, ev| {
///     let Ev::Tick(n) = ev;
///     count += 1;
///     if n < 100 {
///         sched.schedule_after(SimDuration::from_millis_f64(5.0), Ev::Tick(n + 1));
///     }
/// });
/// assert_eq!(count, 101);
/// ```
#[derive(Debug)]
pub struct Simulator<E> {
    queue: EventQueue<E>,
    now: SimTime,
}

impl<E> Default for Simulator<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> Simulator<E> {
    /// Creates a simulator at time zero with an empty event list.
    pub fn new() -> Self {
        Simulator {
            queue: EventQueue::new(),
            now: SimTime::ZERO,
        }
    }

    /// Current simulated time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Schedules an event at an absolute time.
    ///
    /// # Panics
    ///
    /// Panics if `time` is before the current simulated time.
    pub fn schedule(&mut self, time: SimTime, event: E) {
        assert!(
            time >= self.now,
            "cannot schedule into the past: {time} < {}",
            self.now
        );
        self.queue.schedule_forward(time, event);
    }

    /// Number of pending events.
    pub fn pending(&self) -> usize {
        self.queue.len()
    }

    /// Runs the simulation, dispatching every event with firing time
    /// `<= deadline` to `handler`, then advances the clock to `deadline`.
    ///
    /// Returns the number of events dispatched, cancelled ones not included.
    pub fn run_until<F>(&mut self, deadline: SimTime, mut handler: F) -> u64
    where
        F: FnMut(&mut Scheduler<'_, E>, E),
    {
        let mut dispatched = 0;
        while let Some((t, _, event)) = self.queue.pop_until(deadline) {
            debug_assert!(t >= self.now, "event queue went backwards");
            self.now = t;
            let mut sched = Scheduler {
                now: t,
                queue: &mut self.queue,
            };
            handler(&mut sched, event);
            dispatched += 1;
        }
        self.now = self.now.max(deadline);
        dispatched
    }

    /// Drops all pending events (the clock is untouched).
    pub fn clear(&mut self) {
        self.queue.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::SimDuration;

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_nanos(30), 3);
        q.schedule(SimTime::from_nanos(10), 1);
        q.schedule(SimTime::from_nanos(20), 2);
        let order: Vec<i32> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, vec![1, 2, 3]);
    }

    #[test]
    fn fifo_tie_break() {
        let mut q = EventQueue::new();
        for i in 0..100 {
            q.schedule(SimTime::from_nanos(7), i);
        }
        let order: Vec<i32> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn len_and_clear() {
        let mut q = EventQueue::new();
        assert!(q.is_empty());
        q.schedule(SimTime::ZERO, ());
        q.schedule(SimTime::ZERO, ());
        assert_eq!(q.len(), 2);
        q.clear();
        assert!(q.is_empty());
    }

    /// Regression: `clear` must NOT reset the sequence counter. If it
    /// did, events scheduled after a mid-run clear would reuse sequence
    /// numbers and could pop out of insertion order relative to any
    /// observer comparing `(time, seq)` identities across the clear.
    #[test]
    fn clear_preserves_next_seq() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_nanos(1), 'a');
        q.schedule(SimTime::from_nanos(2), 'b');
        assert_eq!(q.next_seq(), 2);
        q.clear();
        assert_eq!(q.next_seq(), 2, "clear must not re-issue seq numbers");
        q.schedule(SimTime::from_nanos(3), 'c');
        let (_, seq, e) = q.pop_entry().unwrap();
        assert_eq!((seq, e), (2, 'c'));
    }

    #[test]
    fn simulator_advances_clock_to_deadline() {
        let mut sim: Simulator<()> = Simulator::new();
        sim.schedule(SimTime::from_nanos(10), ());
        let n = sim.run_until(SimTime::from_nanos(100), |_, _| {});
        assert_eq!(n, 1);
        assert_eq!(sim.now(), SimTime::from_nanos(100));
    }

    #[test]
    fn simulator_leaves_future_events_pending() {
        let mut sim: Simulator<u32> = Simulator::new();
        sim.schedule(SimTime::from_nanos(10), 1);
        sim.schedule(SimTime::from_nanos(200), 2);
        let mut seen = vec![];
        sim.run_until(SimTime::from_nanos(100), |_, e| seen.push(e));
        assert_eq!(seen, vec![1]);
        assert_eq!(sim.pending(), 1);
        sim.run_until(SimTime::from_nanos(300), |_, e| seen.push(e));
        assert_eq!(seen, vec![1, 2]);
    }

    #[test]
    fn handler_can_chain_events() {
        let mut sim = Simulator::new();
        sim.schedule(SimTime::ZERO, 0u32);
        let mut fired = 0;
        sim.run_until(SimTime::from_secs_f64(10.0), |sched, n| {
            fired += 1;
            if n < 9 {
                sched.schedule_after(SimDuration::from_secs_f64(0.5), n + 1);
            }
        });
        assert_eq!(fired, 10);
    }

    #[test]
    #[should_panic(expected = "cannot schedule into the past")]
    fn scheduling_into_the_past_panics() {
        let mut sim = Simulator::new();
        sim.schedule(SimTime::from_nanos(50), ());
        sim.run_until(SimTime::from_nanos(100), |_, _| {});
        sim.schedule(SimTime::from_nanos(10), ());
    }

    /// The simulator paths assert they never reach the slow path of a
    /// schedule below the base.
    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "fell below the queue base")]
    fn forward_schedule_below_base_is_caught() {
        let mut sim = Simulator::new();
        sim.schedule(SimTime::from_nanos(100), ());
        sim.run_until(SimTime::from_nanos(100), |_, _| {});
        sim.queue.schedule_forward(SimTime::from_nanos(50), ());
    }

    /// A deadline stop leaves the base at the last popped time, so the
    /// clock can move to the deadline and schedule anywhere after it.
    #[test]
    fn deadline_stop_keeps_base_at_last_pop() {
        let mut sim: Simulator<u32> = Simulator::new();
        sim.schedule(SimTime::from_nanos(10), 1);
        sim.schedule(SimTime::from_nanos(1_000), 2);
        sim.run_until(SimTime::from_nanos(500), |_, _| {});
        assert_eq!(sim.queue.base, SimTime::from_nanos(10));
        sim.schedule(SimTime::from_nanos(500), 3);
        let mut seen = vec![];
        sim.run_until(SimTime::MAX, |_, e| seen.push(e));
        assert_eq!(seen, vec![3, 2]);
    }

    /// An entry at exactly the base sits on the front list; a deadline
    /// before it must still stop the run.
    #[test]
    fn deadline_before_the_front_dispatches_nothing() {
        let mut sim: Simulator<u32> = Simulator::new();
        sim.schedule(SimTime::from_nanos(100), 1);
        sim.run_until(SimTime::from_nanos(100), |_, _| {});
        sim.schedule(SimTime::from_nanos(100), 2);
        assert_eq!(sim.run_until(SimTime::from_nanos(50), |_, _| {}), 0);
        assert_eq!(sim.pending(), 1);
        assert_eq!(sim.now(), SimTime::from_nanos(100));
    }

    /// A stale id leaves its slot's next occupant alone, and a rebase
    /// puts cancelled slots back on the free list.
    #[test]
    fn cancelled_slots_are_reused_and_stale_ids_miss() {
        let mut q = EventQueue::new();
        let a = q.schedule(SimTime::from_nanos(10), 'a');
        q.pop();
        let b = q.schedule(SimTime::from_nanos(20), 'b');
        assert_eq!(a.slot, b.slot);
        q.cancel(a);
        assert_eq!(q.len(), 1);
        let c = q.schedule(SimTime::from_nanos(30), 'c');
        q.cancel(b);
        // Below the base of 10: a rebase, which frees b's tombstone.
        let d = q.schedule(SimTime::from_nanos(5), 'd');
        assert_eq!(d.slot, b.slot);
        q.schedule(SimTime::from_nanos(40), 'e');
        assert_eq!(q.nodes.len(), 3);
        q.cancel(b);
        q.cancel(c);
        q.cancel(c);
        let order: Vec<char> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, vec!['d', 'e']);
    }

    /// The most relinks any entry has had, popped ones included.
    fn most_relinks<E>(q: &EventQueue<E>) -> u32 {
        q.nodes.iter().map(|n| n.relinks).max().unwrap_or(0)
    }

    /// Each relink moves an entry to a lower level or to the front, and a
    /// level-0 list goes to the front whole, so no entry is relinked more
    /// than `LEVELS - 1` times. Checked on a hold pattern whose delays
    /// spread over the whole key range, most of them far in the future.
    #[test]
    fn no_entry_is_relinked_more_than_levels_minus_one_times() {
        use crate::rand::{Rng, SeedableRng, StdRng};
        let mut rng = StdRng::seed_from_u64(11);
        let mut delay = move || rng.gen_range(0..u64::MAX) >> rng.gen_range(0..64u64);
        let mut q = EventQueue::new();
        for _ in 0..256 {
            q.schedule(SimTime::from_nanos(delay()), ());
        }
        let mut most = 0;
        for _ in 0..20_000 {
            let (now, ()) = q.pop().unwrap();
            most = most.max(most_relinks(&q));
            let at = now.as_nanos().saturating_add(delay());
            q.schedule(SimTime::from_nanos(at), ());
        }
        assert!(most < LEVELS as u32, "an entry was relinked {most} times");
    }

    /// The bound is tight: `u64::MAX` beside the times that clear one of
    /// its digits shares a list with the next one down at every level, so
    /// it is relinked at levels 10 through 1.
    #[test]
    fn a_digit_staircase_relinks_an_entry_levels_minus_one_times() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::MAX, ());
        let top_digit = DIGITS as u64 - 1;
        for level in 0..LEVELS as u32 - 1 {
            let t = u64::MAX - (top_digit << (DIGIT_BITS * level));
            q.schedule(SimTime::from_nanos(t), ());
        }
        while q.pop().is_some() {}
        assert_eq!(most_relinks(&q), LEVELS as u32 - 1);
    }

    #[test]
    fn debug_is_nonempty() {
        let q: EventQueue<()> = EventQueue::new();
        assert!(!format!("{q:?}").is_empty());
    }
}
