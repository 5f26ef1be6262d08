//! The pending-event set: a bucketed calendar queue.
//!
//! Events are ordered by `(time, seq)`: ties at the same instant fire in
//! insertion order, which makes runs deterministic regardless of the
//! container's internals. The original implementation was a
//! `BinaryHeap<Entry<T>>` with a `BTreeSet` of lazily-cancelled sequence
//! numbers; every operation was `O(log n)` and cancellation allocated
//! tree nodes. This version is a **calendar queue** (a hierarchical
//! timing wheel with a far-future overflow heap) over a **slab** of
//! generation-tagged slots:
//!
//! * Payloads live in a slab (`Vec<Slot<T>>` plus a free list), so a
//!   warmed queue schedules without allocating and [`EventId`]s are
//!   `(slot, generation)` pairs — a reused slot bumps its generation,
//!   which makes cancelling an already-fired or already-cancelled id
//!   structurally a no-op (the generation no longer matches).
//! * Near-future events go into one of [`BUCKETS`] wheel buckets of
//!   [`BUCKET_NS`] nanoseconds each (amortized `O(1)` push); events
//!   beyond the wheel's horizon overflow into a small binary heap and
//!   are promoted when the wheel rotates forward to cover them.
//! * The cursor's bucket is *activated*: swapped out of the wheel and
//!   sorted descending, so a pop is `Vec::pop` and a push into the
//!   active window shifts only the refs that fire before it. Pushes land
//!   near the clock, so that is few: 20–36 per push in the 64-server
//!   chaos cell.
//! * The cursor starts at time 0 with the simulation clock and advances
//!   only when the active bucket runs dry. An early far event (a fault
//!   edge injected before any traffic) therefore never drags it ahead:
//!   the traffic pushed after it is filed across the wheel, not piled
//!   into one sorted active bucket.
//! * [`EventQueue::cancel`] is `O(1)`: it frees the slot and leaves the
//!   stale wheel/heap reference to be skipped when the cursor passes it.
//!
//! The live-event count is maintained directly, so `len()` can never
//! skew (the old `heap.len() - cancelled.len()` underflowed when an
//! already-fired id was "cancelled" into the set).

use std::cmp::{Ordering, Reverse};
use std::collections::BinaryHeap;

use crate::time::SimTime;

/// Wheel bucket width in nanoseconds (a power of two so the bucket index
/// is a shift).
const BUCKET_NS: u64 = 1 << 10;
/// log2 of [`BUCKET_NS`].
const BUCKET_SHIFT: u32 = 10;
/// Number of wheel buckets; the wheel spans `BUCKETS * BUCKET_NS` ≈ 1.05 ms.
const BUCKETS: usize = 1024;

/// An opaque handle identifying a scheduled event, usable for cancellation.
///
/// Ids are `(slot, generation)` pairs: when a slot is reused for a new
/// event its generation is bumped, so a stale id (fired or cancelled)
/// can never alias a live one.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct EventId {
    pub(crate) slot: u32,
    pub(crate) gen: u32,
}

impl EventId {
    /// Packs the id into a single `u64`, e.g. to ride in an
    /// [`crate::engine::EventToken`] word.
    ///
    /// Round-trips exactly through [`EventId::from_bits`]. Forged or
    /// stale bit patterns are harmless: cancellation checks the slot's
    /// generation, so a non-live id is simply ignored.
    pub fn to_bits(self) -> u64 {
        (u64::from(self.slot) << 32) | u64::from(self.gen)
    }

    /// Reconstructs an id previously packed with [`EventId::to_bits`].
    pub fn from_bits(bits: u64) -> Self {
        EventId {
            slot: (bits >> 32) as u32,
            gen: bits as u32,
        }
    }
}

/// A slab slot: the payload of a live event, or a free-list hole.
struct Slot<T> {
    /// Bumped every time the slot is freed; an [`EventId`] is live iff
    /// its generation matches.
    gen: u32,
    payload: Option<T>,
}

/// A reference to a slab slot, stored in wheel buckets / the far heap.
/// Carries the full sort key so ordering never touches the slab.
#[derive(Debug, Clone, Copy)]
struct Ref {
    time: SimTime,
    seq: u64,
    slot: u32,
    gen: u32,
}

impl Ref {
    #[inline]
    fn key(&self) -> (SimTime, u64) {
        (self.time, self.seq)
    }
}

/// Far-heap wrapper ordering earliest-first (reverse of `BinaryHeap`'s
/// max-heap order), with `(time, seq)` tie-breaking like everything else.
struct FarRef(Ref);

impl PartialEq for FarRef {
    fn eq(&self, other: &Self) -> bool {
        self.0.key() == other.0.key()
    }
}
impl Eq for FarRef {}
impl PartialOrd for FarRef {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for FarRef {
    fn cmp(&self, other: &Self) -> Ordering {
        other.0.key().cmp(&self.0.key())
    }
}

/// A time-ordered set of pending events carrying payloads of type `T`.
///
/// Events scheduled for the same instant pop in insertion order.
///
/// # Example
///
/// ```
/// use snicbench_sim::event::EventQueue;
/// use snicbench_sim::SimTime;
///
/// let mut q = EventQueue::new();
/// q.push(SimTime::from_nanos(20), "late");
/// q.push(SimTime::from_nanos(10), "early");
/// assert_eq!(q.pop(), Some((SimTime::from_nanos(10), "early")));
/// assert_eq!(q.pop(), Some((SimTime::from_nanos(20), "late")));
/// assert_eq!(q.pop(), None);
/// ```
pub struct EventQueue<T> {
    /// Payload slab; `free` holds the indices of vacant slots.
    slots: Vec<Slot<T>>,
    free: Vec<u32>,
    /// Live (scheduled, not yet fired or cancelled) events.
    live: usize,
    /// Monotonic insertion counter for FIFO tie-breaking.
    next_seq: u64,
    /// The wheel: bucket `b` holds refs whose absolute bucket index
    /// `time >> BUCKET_SHIFT` is congruent to `b` and within one
    /// rotation of the cursor.
    wheel: Vec<Vec<Ref>>,
    /// One bit per wheel bucket: set iff the bucket is non-empty, so an
    /// idle stretch advances the cursor by `trailing_zeros`, not by
    /// stepping every empty bucket.
    occupied: [u64; BUCKETS / 64],
    /// Refs in `current` + all wheel buckets (including stale ones).
    near_refs: usize,
    /// The activated bucket's refs, sorted *descending* so the next ref
    /// to pop is the last one. A push into the active window inserts in
    /// place and shifts only the refs that fire before it.
    current: Vec<Ref>,
    /// Absolute bucket index of the cursor (`time >> BUCKET_SHIFT`). It
    /// starts at 0, the simulation clock's origin, and moves only when
    /// the active bucket runs dry, to the next bucket holding a ref.
    cursor: u64,
    /// Events beyond the wheel horizon, promoted as the wheel rotates.
    far: BinaryHeap<FarRef>,
}

impl<T> Default for EventQueue<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T> EventQueue<T> {
    /// Creates an empty queue.
    pub fn new() -> Self {
        let mut wheel = Vec::with_capacity(BUCKETS);
        wheel.resize_with(BUCKETS, Vec::new);
        EventQueue {
            slots: Vec::new(),
            free: Vec::new(),
            live: 0,
            next_seq: 0,
            wheel,
            occupied: [0; BUCKETS / 64],
            near_refs: 0,
            current: Vec::new(),
            cursor: 0,
            far: BinaryHeap::new(),
        }
    }

    /// End of the activated window: refs at or before this instant belong
    /// in `current`.
    #[inline]
    fn active_end(&self) -> SimTime {
        SimTime::from_nanos((self.cursor + 1).saturating_mul(BUCKET_NS).saturating_sub(1))
    }

    /// Files `r` into its wheel bucket and marks the bucket occupied.
    #[inline]
    fn file_in_wheel(&mut self, ab: u64, r: Ref) {
        let idx = (ab % BUCKETS as u64) as usize;
        self.wheel[idx].push(r);
        self.occupied[idx >> 6] |= 1 << (idx & 63);
        self.near_refs += 1;
    }

    /// Absolute index of the nearest occupied wheel bucket at or after
    /// `from`. All wheel refs sit within one rotation of the cursor, so a
    /// wrapping scan of the four occupancy words covers every candidate.
    fn next_occupied(&self, from: u64) -> Option<u64> {
        let start = (from % BUCKETS as u64) as usize;
        let w0 = start >> 6;
        let bit = start & 63;
        let head = self.occupied[w0] >> bit;
        if head != 0 {
            return Some(from + u64::from(head.trailing_zeros()));
        }
        let mut dist = 64 - bit as u64;
        for k in 1..BUCKETS / 64 {
            let w = (w0 + k) % (BUCKETS / 64);
            let v = self.occupied[w];
            if v != 0 {
                return Some(from + dist + u64::from(v.trailing_zeros()));
            }
            dist += 64;
        }
        let tail = self.occupied[w0] & ((1u64 << bit) - 1);
        if tail != 0 {
            return Some(from + dist + u64::from(tail.trailing_zeros()));
        }
        None
    }

    /// Schedules `payload` to fire at `time`; returns a cancellation handle.
    pub fn push(&mut self, time: SimTime, payload: T) -> EventId {
        let seq = self.next_seq;
        self.next_seq += 1;
        let slot = match self.free.pop() {
            Some(slot) => {
                self.slots[slot as usize].payload = Some(payload);
                slot
            }
            None => {
                let slot = self.slots.len() as u32;
                self.slots.push(Slot {
                    gen: 0,
                    payload: Some(payload),
                });
                slot
            }
        };
        let gen = self.slots[slot as usize].gen;
        self.live += 1;
        let r = Ref {
            time,
            seq,
            slot,
            gen,
        };
        let ab = time.as_nanos() >> BUCKET_SHIFT;
        if time <= self.active_end() {
            // Into the activated window (possibly "the past" — the queue
            // itself accepts any time): sorted insert, shifting only the
            // refs that fire before `r`.
            let pos = self.current.partition_point(|c| c.key() > r.key());
            self.current.insert(pos, r);
            self.near_refs += 1;
        } else if ab < self.cursor + BUCKETS as u64 {
            self.file_in_wheel(ab, r);
        } else {
            self.far.push(FarRef(r));
        }
        EventId { slot, gen }
    }

    /// Cancels a previously scheduled event in `O(1)`.
    ///
    /// Returns `true` if the event had not yet fired or been cancelled.
    /// The slot is freed immediately; the stale wheel/heap reference is
    /// skipped when the cursor reaches it.
    pub fn cancel(&mut self, id: EventId) -> bool {
        match self.slots.get_mut(id.slot as usize) {
            Some(slot) if slot.gen == id.gen && slot.payload.is_some() => {
                slot.payload = None;
                slot.gen = slot.gen.wrapping_add(1);
                self.free.push(id.slot);
                self.live -= 1;
                true
            }
            _ => false,
        }
    }

    /// Moves refs that now fall inside the wheel's rotation out of the
    /// far heap. Only called while the cursor's bucket is *not yet*
    /// activated, so promoted refs always go through the wheel.
    fn promote_far(&mut self) {
        let horizon = self.cursor + BUCKETS as u64;
        while let Some(FarRef(r)) = self.far.peek() {
            let ab = r.time.as_nanos() >> BUCKET_SHIFT;
            if ab >= horizon {
                break;
            }
            let r = self.far.pop().expect("peeked").0;
            self.file_in_wheel(ab, r);
        }
    }

    /// Swaps bucket `cursor % BUCKETS` into `current` and sorts it
    /// descending, so popping the tail yields `(time, seq)` order.
    fn activate_cursor_bucket(&mut self) {
        let idx = (self.cursor % BUCKETS as u64) as usize;
        debug_assert!(self.current.is_empty());
        std::mem::swap(&mut self.current, &mut self.wheel[idx]);
        self.occupied[idx >> 6] &= !(1 << (idx & 63));
        self.current.sort_unstable_by_key(|r| Reverse(r.key()));
    }

    /// Advances until the tail of `current` is a live ref. Returns
    /// `false` when no live events remain (having cleared any stale
    /// debris).
    fn settle(&mut self) -> bool {
        loop {
            if self.live == 0 {
                // Only stale refs can remain; drop them all so the
                // structures never accumulate debris across idle phases.
                if self.near_refs > 0 {
                    for bucket in &mut self.wheel {
                        bucket.clear();
                    }
                    self.occupied = [0; BUCKETS / 64];
                    self.near_refs = 0;
                }
                self.current.clear();
                self.far.clear();
                return false;
            }
            // Skip stale refs at the tail of the active bucket.
            while let Some(r) = self.current.last() {
                if self.slots[r.slot as usize].gen == r.gen {
                    return true;
                }
                self.current.pop();
                self.near_refs -= 1;
            }
            // Active bucket exhausted: advance the cursor.
            if self.near_refs > 0 {
                // Jump straight to the next occupied bucket. Far refs sit
                // at or beyond one full rotation, so nothing in the heap
                // can beat a bucket the bitmap already covers; promoting
                // after the jump refills the horizon the jump opened up.
                self.cursor = self
                    .next_occupied(self.cursor + 1)
                    .expect("near refs imply an occupied wheel bucket");
                self.promote_far();
                self.activate_cursor_bucket();
            } else if let Some(FarRef(r)) = self.far.peek() {
                // Nothing within a rotation: jump straight to the far
                // heap's earliest bucket.
                self.cursor = r.time.as_nanos() >> BUCKET_SHIFT;
                self.promote_far();
                self.activate_cursor_bucket();
            } else {
                // live > 0 but no refs anywhere would mean a lost event.
                unreachable!("live events always have a wheel or far ref");
            }
        }
    }

    /// Removes and returns the earliest pending event.
    pub fn pop(&mut self) -> Option<(SimTime, T)> {
        if !self.settle() {
            return None;
        }
        let r = self.current.pop().expect("settled on a live ref");
        self.near_refs -= 1;
        let slot = &mut self.slots[r.slot as usize];
        let payload = slot.payload.take().expect("live slot has a payload");
        slot.gen = slot.gen.wrapping_add(1);
        self.free.push(r.slot);
        self.live -= 1;
        Some((r.time, payload))
    }

    /// The firing time of the earliest pending (non-cancelled) event.
    pub fn peek_time(&mut self) -> Option<SimTime> {
        if !self.settle() {
            return None;
        }
        self.current.last().map(|r| r.time)
    }

    /// Number of live (scheduled, not fired, not cancelled) events.
    pub fn len(&self) -> usize {
        self.live
    }

    /// True if no live events remain.
    pub fn is_empty(&self) -> bool {
        self.live == 0
    }
}

impl<T> std::fmt::Debug for EventQueue<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("EventQueue")
            .field("pending", &self.live)
            .field("next_seq", &self.next_seq)
            .field("slots", &self.slots.len())
            .field("far", &self.far.len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn event_id_bits_roundtrip() {
        for id in [
            EventId { slot: 0, gen: 0 },
            EventId { slot: 7, gen: 3 },
            EventId {
                slot: u32::MAX,
                gen: u32::MAX,
            },
        ] {
            assert_eq!(EventId::from_bits(id.to_bits()), id);
        }
    }

    #[test]
    fn stale_bits_do_not_cancel_reused_slot() {
        let mut q = EventQueue::new();
        let a = q.push(SimTime::from_nanos(10), 1);
        let bits = a.to_bits();
        assert_eq!(q.pop(), Some((SimTime::from_nanos(10), 1)));
        // Slot 0 is reused with a bumped generation; the stale packed id
        // must not cancel the new occupant.
        let b = q.push(SimTime::from_nanos(20), 2);
        assert_eq!(b.slot, a.slot);
        assert!(!q.cancel(EventId::from_bits(bits)));
        assert_eq!(q.len(), 1);
    }

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.push(SimTime::from_nanos(30), 3);
        q.push(SimTime::from_nanos(10), 1);
        q.push(SimTime::from_nanos(20), 2);
        assert_eq!(q.pop().map(|(_, v)| v), Some(1));
        assert_eq!(q.pop().map(|(_, v)| v), Some(2));
        assert_eq!(q.pop().map(|(_, v)| v), Some(3));
    }

    #[test]
    fn ties_break_by_insertion_order() {
        let mut q = EventQueue::new();
        let t = SimTime::from_nanos(5);
        for i in 0..100 {
            q.push(t, i);
        }
        for i in 0..100 {
            assert_eq!(q.pop().map(|(_, v)| v), Some(i));
        }
    }

    #[test]
    fn cancel_skips_event() {
        let mut q = EventQueue::new();
        let a = q.push(SimTime::from_nanos(1), "a");
        q.push(SimTime::from_nanos(2), "b");
        assert!(q.cancel(a));
        assert!(!q.cancel(a), "double-cancel must report false");
        assert_eq!(q.pop().map(|(_, v)| v), Some("b"));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn cancel_unknown_id_is_false() {
        let mut q = EventQueue::<u8>::new();
        assert!(!q.cancel(EventId { slot: 42, gen: 0 }));
    }

    #[test]
    fn cancel_after_fire_is_false() {
        // Regression: the heap-based queue accepted an already-fired id,
        // returned true, and permanently skewed len().
        let mut q = EventQueue::new();
        let a = q.push(SimTime::from_nanos(1), "a");
        assert_eq!(q.pop().map(|(_, v)| v), Some("a"));
        assert!(!q.cancel(a), "cancel after fire must report false");
        assert_eq!(q.len(), 0);
        assert!(q.is_empty());
        // And the queue keeps working afterwards.
        q.push(SimTime::from_nanos(2), "b");
        assert_eq!(q.len(), 1);
        assert_eq!(q.pop().map(|(_, v)| v), Some("b"));
    }

    #[test]
    fn cancel_after_fire_never_hits_a_reused_slot() {
        // The fired event's slot is reused by a later push; the stale id
        // must not cancel the new occupant.
        let mut q = EventQueue::new();
        let a = q.push(SimTime::from_nanos(1), "a");
        assert_eq!(q.pop().map(|(_, v)| v), Some("a"));
        let b = q.push(SimTime::from_nanos(2), "b");
        assert_eq!(a.slot, b.slot, "slot is reused");
        assert!(!q.cancel(a), "stale id must miss the reused slot");
        assert_eq!(q.pop().map(|(_, v)| v), Some("b"));
        assert!(!q.cancel(b), "double-stale id still false");
    }

    #[test]
    fn peek_time_skips_cancelled() {
        let mut q = EventQueue::new();
        let a = q.push(SimTime::from_nanos(1), "a");
        q.push(SimTime::from_nanos(9), "b");
        q.cancel(a);
        assert_eq!(q.peek_time(), Some(SimTime::from_nanos(9)));
        assert_eq!(q.len(), 1);
    }

    #[test]
    fn is_empty_reflects_live_events() {
        let mut q = EventQueue::new();
        assert!(q.is_empty());
        let a = q.push(SimTime::from_nanos(1), ());
        assert!(!q.is_empty());
        q.cancel(a);
        assert!(q.is_empty());
    }

    #[test]
    fn far_future_events_promote_in_order() {
        // Events far beyond the wheel horizon (256 × 1024 ns) must still
        // pop in global (time, seq) order as the wheel rotates to them.
        let mut q = EventQueue::new();
        let horizon = BUCKETS as u64 * BUCKET_NS;
        q.push(SimTime::from_nanos(7 * horizon + 13), "far-b");
        q.push(SimTime::from_nanos(3), "near");
        q.push(SimTime::from_nanos(2 * horizon + 5), "far-a");
        q.push(SimTime::from_nanos(7 * horizon + 13), "far-b2");
        assert_eq!(q.pop().map(|(_, v)| v), Some("near"));
        assert_eq!(q.pop().map(|(_, v)| v), Some("far-a"));
        assert_eq!(q.pop().map(|(_, v)| v), Some("far-b"));
        assert_eq!(q.pop().map(|(_, v)| v), Some("far-b2"));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn interleaved_push_pop_keeps_order() {
        // Push into the active window while draining it (the engine does
        // this constantly: handlers schedule zero-delay follow-ons).
        let mut q = EventQueue::new();
        q.push(SimTime::from_nanos(10), 1);
        q.push(SimTime::from_nanos(30), 3);
        assert_eq!(q.pop().map(|(_, v)| v), Some(1));
        q.push(SimTime::from_nanos(20), 2);
        q.push(SimTime::from_nanos(10), 0);
        assert_eq!(q.pop().map(|(_, v)| v), Some(0));
        assert_eq!(q.pop().map(|(_, v)| v), Some(2));
        assert_eq!(q.pop().map(|(_, v)| v), Some(3));
    }

    #[test]
    fn an_early_far_event_leaves_the_cursor_at_the_clock() {
        // Fault edges are injected before the traffic generator starts,
        // so the first push into an empty queue can lie milliseconds
        // ahead of the clock. The cursor must stay at time 0: only the
        // refs of its own bucket are activated, not everything before
        // the far event.
        let mut q = EventQueue::new();
        let far = SimTime::from_nanos(2_000_000);
        q.push(far, 1_000);
        for i in 0..1_000u64 {
            q.push(SimTime::from_nanos(i * 100), i);
        }
        // Bucket 0 spans 0..=1023 ns: the events at 0, 100, ..., 1000.
        assert_eq!(q.current.len(), 11);
        let popped: Vec<_> = std::iter::from_fn(|| q.pop()).collect();
        let expect: Vec<_> = (0..1_000u64)
            .map(|i| (SimTime::from_nanos(i * 100), i))
            .chain([(far, 1_000)])
            .collect();
        assert_eq!(popped, expect);
    }

    #[test]
    fn max_time_events_are_representable() {
        let mut q = EventQueue::new();
        q.push(SimTime::MAX, "end");
        q.push(SimTime::from_nanos(1), "start");
        assert_eq!(q.pop().map(|(_, v)| v), Some("start"));
        assert_eq!(q.pop(), Some((SimTime::MAX, "end")));
    }

    #[test]
    fn slots_are_reused_without_growth() {
        let mut q = EventQueue::new();
        for round in 0..100u64 {
            let id = q.push(SimTime::from_nanos(round * 3), round);
            q.push(SimTime::from_nanos(round * 3 + 1), round);
            q.cancel(id);
            assert_eq!(q.pop().map(|(_, v)| v), Some(round));
        }
        assert!(q.slots.len() <= 2, "slab must recycle: {}", q.slots.len());
    }
}
