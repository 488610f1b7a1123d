//! Reliable FIFO channels with an inline fast path.
//!
//! # Storage
//!
//! The token census of the protocols this simulator runs is tiny: in a legitimate
//! configuration the whole network holds exactly `(ℓ, 1, 1)` tokens, so the overwhelming
//! majority of links carry **at most two** in-flight messages at any instant.  [`Channel`]
//! therefore keeps its first [`INLINE_CAPACITY`] messages in an inline ring buffer embedded
//! in the channel itself; only deeper backlogs spill into a heap-allocated `VecDeque`.
//! Steady-state stepping — push one token, pop one token — touches no heap memory at all,
//! and once a spill deque has been allocated its capacity is retained, so even bursty links
//! stop allocating after their first burst.
//!
//! # Counter semantics
//!
//! The channel keeps three monotonic counters so the metrics layer can report link
//! utilisation, with fault injection (message loss) accounted separately from delivery.
//! Every mutation path touches exactly the counters listed here:
//!
//! | mutation | models | `enqueued` | `delivered` | `lost` | queue length |
//! |---|---|---|---|---|---|
//! | [`push`](Channel::push) | a process sending | +1 | — | — | +1 |
//! | [`insert`](Channel::insert) | a faulty initial configuration / duplication | +1 | — | — | +1 |
//! | [`pop`](Channel::pop) (hit) | a delivery activation | — | +1 | — | −1 |
//! | [`remove`](Channel::remove) (hit) | fault-injected loss of one message | — | — | +1 | −1 |
//! | [`clear`](Channel::clear) | fault-injected loss of the whole queue | — | — | +len | −len |
//! | [`unpush`](Channel::unpush) (hit) | undo of the most recent `push` | −1 | — | — | −1 |
//! | [`unpop`](Channel::unpop) | undo of the most recent `pop` | — | −1 | — | +1 |
//! | [`reset`](Channel::reset) | a fresh trial reusing this allocation | =0 | =0 | =0 | =0 |
//!
//! The table implies the conservation law checked by this module's tests — at every instant
//!
//! > `enqueued == delivered + lost + len()`
//!
//! which is what makes the counters trustworthy for utilisation metrics: a message is
//! *either* still in flight, *or* was delivered to the process, *or* was lost to a fault.
//! (`unpush`/`unpop` are the exact inverses used by the exhaustive checker's undo log — see
//! `Network::execute_undoable` — and keep the law intact by reversing the original
//! counter movement rather than inventing a new one.)

use std::collections::VecDeque;

/// Number of messages stored inline before a channel spills to the heap.
///
/// Chosen from the census `(ℓ, 1, 1)`: with the paper's token counts, links hold ≤ 2
/// messages in every legitimate configuration, and 4 covers the transient bursts of the
/// bootstrap and fault-recovery phases in almost all executions.
pub const INLINE_CAPACITY: usize = 4;

/// A reliable FIFO channel: the incoming message queue of one directed link.
///
/// Channels never lose or reorder messages once the system is past its (possibly faulty)
/// initial configuration, matching the paper's link assumptions.  See the
/// [module docs](self) for the storage layout and the exact counter semantics of every
/// mutation path.
#[derive(Clone, Debug)]
pub struct Channel<M> {
    /// Inline ring: the queue's first `inline_len` messages live at
    /// `inline[(head + i) % INLINE_CAPACITY]`, *before* everything in `spill`.
    inline: [Option<M>; INLINE_CAPACITY],
    head: usize,
    inline_len: usize,
    /// Overflow storage; messages here come after every inline message.
    spill: VecDeque<M>,
    delivered: u64,
    enqueued: u64,
    lost: u64,
}

impl<M> Default for Channel<M> {
    fn default() -> Self {
        Channel::new()
    }
}

impl<M> Channel<M> {
    /// Creates an empty channel.
    pub fn new() -> Self {
        Channel {
            inline: std::array::from_fn(|_| None),
            head: 0,
            inline_len: 0,
            spill: VecDeque::new(),
            delivered: 0,
            enqueued: 0,
            lost: 0,
        }
    }

    #[inline]
    fn slot(&self, i: usize) -> usize {
        (self.head + i) % INLINE_CAPACITY
    }

    /// Appends a message at the tail of the channel (`enqueued += 1`).
    #[inline]
    pub fn push(&mut self, msg: M) {
        self.enqueued += 1;
        self.push_raw(msg);
    }

    /// Tail-append storage step shared by [`push`](Channel::push) and the tail case of
    /// [`insert`](Channel::insert); touches no counter.
    #[inline]
    fn push_raw(&mut self, msg: M) {
        if self.inline_len < INLINE_CAPACITY && self.spill.is_empty() {
            let at = self.slot(self.inline_len);
            self.inline[at] = Some(msg);
            self.inline_len += 1;
        } else {
            self.spill.push_back(msg);
        }
    }

    /// Removes and returns the head message, if any (`delivered += 1` on a hit).
    #[inline]
    pub fn pop(&mut self) -> Option<M> {
        if self.inline_len > 0 {
            let msg = self.inline[self.head].take();
            debug_assert!(msg.is_some(), "inline slots within inline_len are occupied");
            self.head = (self.head + 1) % INLINE_CAPACITY;
            self.inline_len -= 1;
            if self.inline_len == 0 {
                self.head = 0;
            }
            self.delivered += 1;
            msg
        } else {
            let msg = self.spill.pop_front();
            if msg.is_some() {
                self.delivered += 1;
            }
            msg
        }
    }

    /// Removes and returns the **tail** message, reversing the counter movement of the
    /// [`push`](Channel::push) that appended it (`enqueued -= 1` on a hit).
    ///
    /// This is the undo-log inverse of `push`: a `push` followed by `unpush` leaves the
    /// channel — contents *and* counters — exactly as it was.
    pub fn unpush(&mut self) -> Option<M> {
        let msg = if let Some(msg) = self.spill.pop_back() {
            Some(msg)
        } else if self.inline_len > 0 {
            let at = self.slot(self.inline_len - 1);
            let msg = self.inline[at].take();
            self.inline_len -= 1;
            if self.inline_len == 0 {
                self.head = 0;
            }
            msg
        } else {
            None
        };
        if msg.is_some() {
            self.enqueued -= 1;
        }
        msg
    }

    /// Puts `msg` back at the **head** of the channel, reversing the counter movement of the
    /// [`pop`](Channel::pop) that removed it (`delivered -= 1`).
    ///
    /// This is the undo-log inverse of `pop`: popping a message and `unpop`ping it leaves
    /// the channel — contents *and* counters — exactly as it was.
    pub fn unpop(&mut self, msg: M) {
        self.delivered -= 1;
        if self.inline_len > 0 || self.spill.is_empty() {
            if self.inline_len == INLINE_CAPACITY {
                // Inline ring is full: displace its tail into the spill front to keep the
                // "inline before spill" order.
                let at = self.slot(INLINE_CAPACITY - 1);
                let tail = self.inline[at].take().expect("full ring has a tail");
                self.spill.push_front(tail);
                self.inline_len -= 1;
            }
            self.head = (self.head + INLINE_CAPACITY - 1) % INLINE_CAPACITY;
            self.inline[self.head] = Some(msg);
            self.inline_len += 1;
        } else {
            self.spill.push_front(msg);
        }
    }

    /// Number of messages currently in flight on this channel.
    #[inline]
    pub fn len(&self) -> usize {
        self.inline_len + self.spill.len()
    }

    /// True when no message is in flight.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.inline_len == 0 && self.spill.is_empty()
    }

    /// Iterates over the in-flight messages from head to tail without removing them.
    pub fn iter(&self) -> impl Iterator<Item = &M> {
        (0..self.inline_len)
            .map(|i| self.inline[self.slot(i)].as_ref().expect("occupied inline slot"))
            .chain(self.spill.iter())
    }

    /// Removes every in-flight message, counting each as fault-injected loss
    /// (`lost += len()`).  Spill capacity is retained.
    pub fn clear(&mut self) {
        self.lost += self.len() as u64;
        self.drop_contents();
    }

    /// Empties the channel and zeroes all counters, retaining the spill allocation: the
    /// trial-reuse reset (a freshly built channel, minus the allocator traffic).
    pub fn reset(&mut self) {
        self.drop_contents();
        self.delivered = 0;
        self.enqueued = 0;
        self.lost = 0;
    }

    fn drop_contents(&mut self) {
        for slot in &mut self.inline {
            *slot = None;
        }
        self.head = 0;
        self.inline_len = 0;
        self.spill.clear();
    }

    /// Removes the message at `index` (0 = head), returning it; counts a hit as
    /// fault-injected loss (`lost += 1`).  Used by fault injection to model message loss in
    /// the faulty initial configuration.
    pub fn remove(&mut self, index: usize) -> Option<M> {
        let msg = if index < self.inline_len {
            let removed = self.inline[self.slot(index)].take();
            for i in index..self.inline_len - 1 {
                self.inline[self.slot(i)] = self.inline[self.slot(i + 1)].take();
            }
            self.inline_len -= 1;
            if self.inline_len == 0 {
                self.head = 0;
            }
            removed
        } else {
            self.spill.remove(index - self.inline_len)
        };
        if msg.is_some() {
            self.lost += 1;
        }
        msg
    }

    /// Inserts a message at `index` (0 = head), counting it as enqueued traffic
    /// (`enqueued += 1`).  Used by fault injection to model arbitrary initial channel
    /// contents and duplications.
    ///
    /// # Panics
    ///
    /// Panics if `index > len()`.
    pub fn insert(&mut self, index: usize, msg: M) {
        assert!(index <= self.len(), "insert index {index} out of bounds");
        self.enqueued += 1;
        if index == self.len() {
            // Exact-tail insert is a plain append — in particular when the inline ring is
            // full and the spill is empty, the message belongs at the spill front, not in
            // the ring.
            self.push_raw(msg);
        } else if index < self.inline_len {
            if self.inline_len == INLINE_CAPACITY {
                let at = self.slot(INLINE_CAPACITY - 1);
                let tail = self.inline[at].take().expect("full ring has a tail");
                self.spill.push_front(tail);
                self.inline_len -= 1;
            }
            for i in (index..self.inline_len).rev() {
                self.inline[self.slot(i + 1)] = self.inline[self.slot(i)].take();
            }
            self.inline[self.slot(index)] = Some(msg);
            self.inline_len += 1;
        } else {
            self.spill.insert(index - self.inline_len, msg);
        }
    }

    /// Total number of messages ever delivered (popped) from this channel.
    pub fn delivered(&self) -> u64 {
        self.delivered
    }

    /// Total number of messages ever enqueued (pushed or fault-inserted) on this channel.
    pub fn enqueued(&self) -> u64 {
        self.enqueued
    }

    /// Total number of messages removed by fault injection (`clear`/`remove`) rather than
    /// delivered.
    pub fn lost(&self) -> u64 {
        self.lost
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn law<M>(ch: &Channel<M>) {
        assert_eq!(
            ch.enqueued(),
            ch.delivered() + ch.lost() + ch.len() as u64,
            "conservation law: enqueued == delivered + lost + len"
        );
    }

    #[test]
    fn fifo_order_is_preserved() {
        let mut ch = Channel::new();
        ch.push(1);
        ch.push(2);
        ch.push(3);
        assert_eq!(ch.pop(), Some(1));
        assert_eq!(ch.pop(), Some(2));
        assert_eq!(ch.pop(), Some(3));
        assert_eq!(ch.pop(), None);
        law(&ch);
    }

    #[test]
    fn fifo_order_survives_spilling_past_the_inline_capacity() {
        let mut ch = Channel::new();
        for i in 0..3 * INLINE_CAPACITY {
            ch.push(i);
        }
        law(&ch);
        assert_eq!(ch.len(), 3 * INLINE_CAPACITY);
        assert_eq!(
            ch.iter().copied().collect::<Vec<_>>(),
            (0..3 * INLINE_CAPACITY).collect::<Vec<_>>()
        );
        for i in 0..3 * INLINE_CAPACITY {
            assert_eq!(ch.pop(), Some(i));
        }
        assert!(ch.is_empty());
        law(&ch);
    }

    #[test]
    fn interleaved_push_pop_crosses_the_spill_boundary_in_order() {
        // Drive the queue length up and down across INLINE_CAPACITY repeatedly; the popped
        // sequence must stay 0, 1, 2, ...
        let mut ch = Channel::new();
        let mut next_push = 0u32;
        let mut next_pop = 0u32;
        for (grow, shrink) in [(6, 3), (5, 7), (9, 10)] {
            for _ in 0..grow {
                ch.push(next_push);
                next_push += 1;
            }
            for _ in 0..shrink {
                assert_eq!(ch.pop(), Some(next_pop));
                next_pop += 1;
            }
            law(&ch);
        }
        assert!(ch.is_empty());
    }

    #[test]
    fn counters_track_traffic() {
        let mut ch = Channel::new();
        assert!(ch.is_empty());
        ch.push("a");
        ch.push("b");
        assert_eq!(ch.len(), 2);
        assert_eq!(ch.enqueued(), 2);
        ch.pop();
        assert_eq!(ch.delivered(), 1);
        assert_eq!(ch.len(), 1);
        assert_eq!(ch.lost(), 0);
        law(&ch);
    }

    #[test]
    fn each_mutation_path_touches_exactly_its_documented_counters() {
        let mut ch = Channel::new();
        ch.push(1); // enqueued 1
        ch.insert(0, 0); // enqueued 2
        assert_eq!((ch.enqueued(), ch.delivered(), ch.lost()), (2, 0, 0));
        assert_eq!(ch.pop(), Some(0)); // delivered 1
        assert_eq!((ch.enqueued(), ch.delivered(), ch.lost()), (2, 1, 0));
        assert_eq!(ch.remove(0), Some(1)); // lost 1
        assert_eq!((ch.enqueued(), ch.delivered(), ch.lost()), (2, 1, 1));
        ch.push(7);
        ch.push(8);
        ch.clear(); // lost 3
        assert_eq!((ch.enqueued(), ch.delivered(), ch.lost()), (4, 1, 3));
        law(&ch);
    }

    #[test]
    fn unpush_and_unpop_are_exact_inverses() {
        let mut ch = Channel::new();
        for i in 0..6 {
            ch.push(i); // crosses the spill boundary
        }
        let before: Vec<i32> = ch.iter().copied().collect();
        let counters = (ch.enqueued(), ch.delivered(), ch.lost());

        ch.push(99);
        assert_eq!(ch.unpush(), Some(99));
        assert_eq!(ch.iter().copied().collect::<Vec<_>>(), before);
        assert_eq!((ch.enqueued(), ch.delivered(), ch.lost()), counters);

        let head = ch.pop().unwrap();
        ch.unpop(head);
        assert_eq!(ch.iter().copied().collect::<Vec<_>>(), before);
        assert_eq!((ch.enqueued(), ch.delivered(), ch.lost()), counters);
        law(&ch);

        // unpop onto a full inline ring displaces into the spill without reordering.
        let mut full = Channel::new();
        for i in 1..=INLINE_CAPACITY as i32 {
            full.push(i);
        }
        full.delivered = 1; // pretend 0 was popped earlier so unpop's decrement is in range
        full.enqueued += 1;
        full.unpop(0);
        assert_eq!(
            full.iter().copied().collect::<Vec<_>>(),
            (0..=INLINE_CAPACITY as i32).collect::<Vec<_>>()
        );
        law(&full);
    }

    #[test]
    fn unpush_drains_back_through_the_inline_ring() {
        let mut ch = Channel::new();
        for i in 0..6 {
            ch.push(i);
        }
        for expected in (0..6).rev() {
            assert_eq!(ch.unpush(), Some(expected));
            law(&ch);
        }
        assert_eq!(ch.unpush(), None);
        assert_eq!(ch.enqueued(), 0);
        assert!(ch.is_empty());
    }

    #[test]
    fn insert_and_remove_for_fault_injection() {
        let mut ch = Channel::new();
        ch.push(10);
        ch.push(30);
        ch.insert(1, 20);
        assert_eq!(ch.iter().copied().collect::<Vec<_>>(), vec![10, 20, 30]);
        assert_eq!(ch.remove(0), Some(10));
        assert_eq!(ch.remove(5), None);
        law(&ch);
        ch.clear();
        assert!(ch.is_empty());
        law(&ch);
    }

    #[test]
    fn insert_and_remove_work_across_the_spill_boundary() {
        let mut ch = Channel::new();
        for i in 0..7 {
            ch.push(i);
        }
        ch.insert(2, 100); // inline region
        ch.insert(6, 200); // spill region
        assert_eq!(ch.iter().copied().collect::<Vec<_>>(), vec![0, 1, 100, 2, 3, 4, 200, 5, 6]);
        law(&ch);
        assert_eq!(ch.remove(2), Some(100)); // inline region
        assert_eq!(ch.remove(5), Some(200)); // spill region
        assert_eq!(ch.iter().copied().collect::<Vec<_>>(), vec![0, 1, 2, 3, 4, 5, 6]);
        law(&ch);
        // Inserting at the exact tail appends.
        ch.insert(7, 7);
        assert_eq!(ch.iter().copied().collect::<Vec<_>>(), (0..8).collect::<Vec<_>>());
        law(&ch);
    }

    #[test]
    fn insert_at_the_exact_tail_appends_at_every_fill_level() {
        // Regression: inserting at index == len() on a full inline ring with an empty spill
        // used to overwrite the head slot.  The tail insert must behave as a push at every
        // fill level, including exactly INLINE_CAPACITY (the FaultInjector picks positions
        // in 0..=len, so the boundary is reachable in production).
        for prefill in 0..3 * INLINE_CAPACITY {
            let mut ch = Channel::new();
            for i in 0..prefill {
                ch.push(i as i32);
            }
            ch.insert(prefill, 1000);
            law(&ch);
            let mut expected: Vec<i32> = (0..prefill as i32).collect();
            expected.push(1000);
            assert_eq!(ch.iter().copied().collect::<Vec<_>>(), expected, "prefill {prefill}");
            for want in expected {
                assert_eq!(ch.pop(), Some(want), "prefill {prefill}");
            }
            law(&ch);
        }
    }

    #[test]
    fn reset_empties_and_zeroes_counters() {
        let mut ch = Channel::new();
        for i in 0..9 {
            ch.push(i);
        }
        ch.pop();
        ch.remove(0);
        ch.reset();
        assert!(ch.is_empty());
        assert_eq!((ch.enqueued(), ch.delivered(), ch.lost()), (0, 0, 0));
        law(&ch);
        // The channel is fully usable after a reset.
        ch.push(1);
        assert_eq!(ch.pop(), Some(1));
        law(&ch);
    }
}
