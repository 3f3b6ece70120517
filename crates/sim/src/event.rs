//! Deterministic event queue.
//!
//! Events are totally ordered by `(time, sequence)`: two events scheduled
//! for the same instant fire in scheduling order. This makes every run
//! bit-reproducible for a given seed, independent of hash maps or iteration
//! quirks.

use crate::job::{JobId, Owner};
use crate::time::SimTime;
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// What happens when an event fires (internal engine vocabulary).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EventKind {
    /// Job reaches the WMS input queue (UI → WMS network hop done).
    ArriveAtWms(JobId),
    /// WMS finished match-making and dispatches the job to its CE.
    Dispatch(JobId),
    /// Job reaches the CE and enters the batch queue.
    EnterQueue(JobId),
    /// Oracle-mode start: the job's pre-drawn latency elapses.
    Start(JobId),
    /// A running job releases its slot.
    Finish(JobId),
    /// A transient middleware failure surfaces for this job.
    Fail(JobId),
    /// A client cancellation request reaches the middleware (only used when
    /// the configured cancellation delay is non-zero).
    CancelApply(JobId),
    /// A background (non-client) job arrives at a site.
    BackgroundArrival {
        /// Index of the target site.
        site: usize,
    },
    /// A synthetic background job injected by an external coupling layer
    /// (e.g. cross-shard load exchange) arrives with an explicit
    /// execution time; the target site is drawn at arrival time.
    InjectedArrival {
        /// Slot-hold time of the injected job.
        exec: crate::time::SimDuration,
    },
    /// A client timer set through the controller API expires.
    Timer {
        /// The engine's active owner when the timer was armed.
        owner: Owner,
        /// Opaque token chosen by the controller.
        token: u32,
    },
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Scheduled {
    at: SimTime,
    seq: u64,
    kind: EventKind,
}

impl Ord for Scheduled {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        (self.at, self.seq).cmp(&(other.at, other.seq))
    }
}

impl PartialOrd for Scheduled {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

/// Min-heap of scheduled events with stable same-instant ordering.
#[derive(Debug, Default)]
pub struct EventQueue {
    heap: BinaryHeap<Reverse<Scheduled>>,
    next_seq: u64,
}

impl EventQueue {
    /// Empty queue.
    pub fn new() -> Self {
        Self::default()
    }

    /// Schedules `kind` at absolute time `at`.
    pub fn schedule(&mut self, at: SimTime, kind: EventKind) {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.heap.push(Reverse(Scheduled { at, seq, kind }));
    }

    /// Removes every pending event and rewinds the sequence counter, as if
    /// the queue had just been constructed — but keeping the heap's
    /// allocation. Resetting `next_seq` matters for reproducibility: the
    /// sequence number breaks same-instant ties, so a reused queue must
    /// hand out the same numbers a fresh one would.
    pub fn clear(&mut self) {
        self.heap.clear();
        self.next_seq = 0;
    }

    /// Pre-reserves heap capacity for `additional` pending events, so a
    /// large known workload (a community fleet) never grows the heap on
    /// the hot path.
    pub fn reserve(&mut self, additional: usize) {
        self.heap.reserve(additional);
    }

    /// Pops the earliest event, if any.
    pub fn pop(&mut self) -> Option<(SimTime, EventKind)> {
        self.heap.pop().map(|Reverse(s)| (s.at, s.kind))
    }

    /// Time of the next event without removing it.
    pub fn peek_time(&self) -> Option<SimTime> {
        self.heap.peek().map(|Reverse(s)| s.at)
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// True if no events are pending.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn timer(token: u32) -> EventKind {
        EventKind::Timer {
            owner: Owner::default(),
            token,
        }
    }

    #[test]
    fn event_and_notification_sizes_are_pinned() {
        // The owner rides next to a u32 token inside the existing padding.
        // A u64 token plus an owner grows the heap entry to 40 B and
        // `Notification` to 32 B, which measured ~12 % lower `megafleet`
        // task throughput (2 vCPU, 8 coupled shards); keep 32 / 24. The
        // owner also replaced a u64 field of the job record, keeping 80 B.
        assert_eq!(std::mem::size_of::<Reverse<Scheduled>>(), 32);
        assert_eq!(std::mem::size_of::<crate::engine::Notification>(), 24);
        assert_eq!(std::mem::size_of::<crate::job::JobRecord>(), 80);
    }

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.schedule(SimTime(30), timer(3));
        q.schedule(SimTime(10), timer(1));
        q.schedule(SimTime(20), timer(2));
        let order: Vec<u32> = std::iter::from_fn(|| q.pop())
            .map(|(_, k)| match k {
                EventKind::Timer { token, .. } => token,
                _ => unreachable!(),
            })
            .collect();
        assert_eq!(order, vec![1, 2, 3]);
    }

    #[test]
    fn same_instant_fifo() {
        let mut q = EventQueue::new();
        for token in 0..100 {
            q.schedule(SimTime(5), timer(token));
        }
        let order: Vec<u32> = std::iter::from_fn(|| q.pop())
            .map(|(_, k)| match k {
                EventKind::Timer { token, .. } => token,
                _ => unreachable!(),
            })
            .collect();
        assert_eq!(order, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn peek_does_not_remove() {
        let mut q = EventQueue::new();
        q.schedule(SimTime(7), EventKind::ArriveAtWms(JobId(1)));
        assert_eq!(q.peek_time(), Some(SimTime(7)));
        assert_eq!(q.len(), 1);
        assert!(!q.is_empty());
        q.pop().unwrap();
        assert!(q.is_empty());
        assert_eq!(q.peek_time(), None);
    }

    #[test]
    fn interleaved_schedule_pop() {
        let mut q = EventQueue::new();
        q.schedule(SimTime(10), timer(1));
        let (t, _) = q.pop().unwrap();
        assert_eq!(t, SimTime(10));
        // scheduling in the "past" is the caller's responsibility; the queue
        // still orders correctly
        q.schedule(SimTime(5), timer(2));
        q.schedule(SimTime(15), timer(3));
        assert_eq!(q.pop().unwrap().0, SimTime(5));
        assert_eq!(q.pop().unwrap().0, SimTime(15));
    }
}
