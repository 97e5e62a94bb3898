//! The slab-backed indexed event queue.
//!
//! A discrete-event simulator spends much of its life pushing and popping
//! events, so the queue's memory behaviour is a first-order performance
//! concern.  This queue separates *ordering* from *storage*:
//!
//! * the binary min-heap holds only small `Copy` keys — an [`EventKey`]
//!   plus the slab slot — so every sift moves a few words instead of a
//!   whole event payload;
//! * event payloads live in a slab (`Vec<Option<T>>`) addressed by the
//!   key's slot index, with a free list recycling slots, so steady-state
//!   scheduling touches no allocator at all once the simulation's
//!   high-water mark is reached.
//!
//! Every event is pushed under an explicit [`EventKey`] and popped in
//! ascending key order.  The key is a pure function of *which node
//! pushed the event and when* (rather than a global push counter), so
//! events are totally ordered the same way no matter which shard queue
//! they pass through, and per-shard runs merge bit-identically into the
//! serial schedule (see `shard.rs`).  A property test in
//! `tests/proptests.rs` pins the ordering against a `BinaryHeap` model
//! over random push/pop interleavings.

use crate::time::SimTime;

/// Total event order for deterministic scheduling, shard-invariant.
///
/// Lexicographic: `(time, push_time, origin, oseq)`.
///
/// * `time` — when the event fires;
/// * `push_time` — the simulation instant it was scheduled;
/// * `origin` — 0 for events scheduled outside any node's event
///   processing (agent attachment, fault plans), `node + 1` for events a
///   node scheduled while being processed (timers, forwarded arrivals);
/// * `oseq` — a per-origin monotone sequence number.
///
/// Because an origin's pushes are sequential, `(origin, oseq)` is unique,
/// and because the tuple depends only on simulation-visible history (not
/// on which queue or thread carried the event), the order is identical
/// at any shard count.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct EventKey {
    /// When the event fires.
    pub time: SimTime,
    /// When the event was scheduled.
    pub push_time: SimTime,
    /// Scheduling origin: 0 = external/build, `n + 1` = node `n`.
    pub origin: u32,
    /// Per-origin monotone sequence number.
    pub oseq: u64,
}

/// Heap entry: the ordering key plus the slab slot holding the payload.
#[derive(Clone, Copy, Debug)]
struct Key {
    key: EventKey,
    slot: u32,
}

/// A min-ordered event queue: `pop` yields events in ascending
/// [`EventKey`] order.
///
/// `T` is the event payload; it is stored once in the slab and moved out
/// exactly once on pop — the heap itself only ever copies small keys.
#[derive(Debug)]
pub struct EventQueue<T> {
    heap: Vec<Key>,
    slots: Vec<Option<T>>,
    free: Vec<u32>,
}

impl<T> Default for EventQueue<T> {
    fn default() -> Self {
        EventQueue::new()
    }
}

impl<T> EventQueue<T> {
    /// An empty queue.
    pub fn new() -> EventQueue<T> {
        EventQueue {
            heap: Vec::new(),
            slots: Vec::new(),
            free: Vec::new(),
        }
    }

    /// Number of queued events.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// Whether the queue holds no events.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }

    /// Schedules `item` under an explicit ordering key.  Keys must be
    /// unique per queue lifetime (the engine guarantees this via per-origin
    /// sequence numbers).
    pub fn push(&mut self, key: EventKey, item: T) {
        let slot = match self.free.pop() {
            Some(s) => {
                debug_assert!(self.slots[s as usize].is_none());
                self.slots[s as usize] = Some(item);
                s
            }
            None => {
                let s = u32::try_from(self.slots.len()).expect("event slab exceeds u32 slots");
                self.slots.push(Some(item));
                s
            }
        };
        self.heap.push(Key { key, slot });
        self.sift_up(self.heap.len() - 1);
    }

    /// Full ordering key of the earliest event, if any.
    pub fn peek_key(&self) -> Option<EventKey> {
        self.heap.first().map(|k| k.key)
    }

    /// Removes and returns the earliest event with its full key.
    pub fn pop(&mut self) -> Option<(EventKey, T)> {
        let top = *self.heap.first()?;
        let last = self.heap.pop().expect("non-empty");
        if !self.heap.is_empty() {
            self.heap[0] = last;
            self.sift_down(0);
        }
        let item = self.slots[top.slot as usize]
            .take()
            .expect("heap key points at a filled slot");
        self.free.push(top.slot);
        Some((top.key, item))
    }

    fn sift_up(&mut self, mut i: usize) {
        while i > 0 {
            let parent = (i - 1) / 2;
            if self.heap[i].key < self.heap[parent].key {
                self.heap.swap(i, parent);
                i = parent;
            } else {
                break;
            }
        }
    }

    fn sift_down(&mut self, mut i: usize) {
        let n = self.heap.len();
        loop {
            let left = 2 * i + 1;
            if left >= n {
                break;
            }
            let right = left + 1;
            let smallest_child = if right < n && self.heap[right].key < self.heap[left].key {
                right
            } else {
                left
            };
            if self.heap[smallest_child].key < self.heap[i].key {
                self.heap.swap(i, smallest_child);
                i = smallest_child;
            } else {
                break;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The key a plain `(time, n)` push gets: same push time and origin,
    /// so `n` alone breaks ties and same-time events pop FIFO.
    fn at(ms: u64, n: u64) -> EventKey {
        EventKey {
            time: SimTime::from_millis(ms),
            push_time: SimTime::ZERO,
            origin: 0,
            oseq: n,
        }
    }

    fn pop_item<T>(q: &mut EventQueue<T>) -> Option<T> {
        q.pop().map(|(_, item)| item)
    }

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.push(at(30, 0), "c");
        q.push(at(10, 1), "a");
        q.push(at(20, 2), "b");
        assert_eq!(q.peek_key(), Some(at(10, 1)));
        assert_eq!(q.pop(), Some((at(10, 1), "a")));
        assert_eq!(pop_item(&mut q), Some("b"));
        assert_eq!(pop_item(&mut q), Some("c"));
        assert_eq!(q.pop(), None);
        assert_eq!(q.peek_key(), None);
    }

    #[test]
    fn same_time_pops_fifo() {
        let mut q = EventQueue::new();
        for i in 0..100u64 {
            q.push(at(5, i), i);
        }
        for i in 0..100u64 {
            assert_eq!(pop_item(&mut q), Some(i));
        }
    }

    #[test]
    fn interleaved_push_pop_keeps_fifo_within_time() {
        let mut q = EventQueue::new();
        q.push(at(1, 0), 0u32);
        q.push(at(2, 1), 1);
        assert_eq!(pop_item(&mut q), Some(0));
        // Pushed after a pop, still at the already-seen time 2: must come
        // after the earlier time-2 event.
        q.push(at(2, 2), 2);
        q.push(at(2, 3), 3);
        assert_eq!(pop_item(&mut q), Some(1));
        assert_eq!(pop_item(&mut q), Some(2));
        assert_eq!(pop_item(&mut q), Some(3));
    }

    #[test]
    fn slab_recycles_slots() {
        let mut q = EventQueue::new();
        for round in 0..50u64 {
            for i in 0..8u64 {
                q.push(at(round * 10 + i, round * 8 + i), i);
            }
            for _ in 0..8 {
                q.pop().unwrap();
            }
        }
        // 400 events flowed through, but never more than 8 at once.
        assert_eq!(q.slots.len(), 8);
        assert!(q.is_empty());
        assert_eq!(q.len(), 0);
    }

    #[test]
    fn pushes_order_by_full_key_not_insertion() {
        let key = |time_ms: u64, push_ms: u64, origin: u32, oseq: u64| EventKey {
            time: SimTime::from_millis(time_ms),
            push_time: SimTime::from_millis(push_ms),
            origin,
            oseq,
        };
        let mut q = EventQueue::new();
        // Same fire time, inserted out of key order: pops sort by
        // (push_time, origin, oseq), not insertion order.
        q.push(key(5, 2, 3, 0), "late-push");
        q.push(key(5, 1, 7, 9), "early-push");
        q.push(key(5, 2, 1, 4), "low-origin");
        q.push(key(4, 3, 9, 9), "earlier-time");
        assert_eq!(q.peek_key(), Some(key(4, 3, 9, 9)));
        let order: Vec<&str> = std::iter::from_fn(|| pop_item(&mut q)).collect();
        assert_eq!(
            order,
            vec!["earlier-time", "early-push", "low-origin", "late-push"]
        );
    }

    #[test]
    fn payloads_are_moved_not_cloned() {
        // A non-Clone payload type compiles and round-trips: the slab
        // moves values, never duplicates them.
        struct NoClone(#[allow(dead_code)] u64);
        let mut q = EventQueue::new();
        q.push(at(1, 0), NoClone(7));
        let v = pop_item(&mut q).unwrap();
        assert_eq!(v.0, 7);
    }
}
