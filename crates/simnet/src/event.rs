//! The event queue: a min-heap keyed on `(time, sequence)`.

use std::cmp::Ordering;
use std::collections::BinaryHeap;

use crate::actor::TimerId;
use crate::sim::NodeId;
use crate::time::SimTime;

/// What happens when an event is popped.
#[derive(Debug)]
pub(crate) enum Ev<M> {
    /// Deliver a network message.
    Deliver { to: NodeId, from: NodeId, msg: M },
    /// Fire a timer, provided the node's incarnation still matches.
    TimerFire {
        node: NodeId,
        id: TimerId,
        kind: u32,
        incarnation: u64,
    },
}

struct Entry<M> {
    at: SimTime,
    seq: u64,
    ev: Ev<M>,
}

impl<M> PartialEq for Entry<M> {
    fn eq(&self, other: &Self) -> bool {
        self.at == other.at && self.seq == other.seq
    }
}
impl<M> Eq for Entry<M> {}
impl<M> PartialOrd for Entry<M> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl<M> Ord for Entry<M> {
    fn cmp(&self, other: &Self) -> Ordering {
        // Reverse so the BinaryHeap (a max-heap) pops the earliest event;
        // ties broken by insertion order for determinism.
        other
            .at
            .cmp(&self.at)
            .then_with(|| other.seq.cmp(&self.seq))
    }
}

/// A deterministic future-event list.
pub(crate) struct EventQueue<M> {
    heap: BinaryHeap<Entry<M>>,
    seq: u64,
}

impl<M> EventQueue<M> {
    pub(crate) fn new() -> Self {
        EventQueue {
            heap: BinaryHeap::new(),
            seq: 0,
        }
    }

    pub(crate) fn push(&mut self, at: SimTime, ev: Ev<M>) {
        let seq = self.seq;
        self.seq += 1;
        self.heap.push(Entry { at, seq, ev });
    }

    /// Time of the next event without removing it.
    pub(crate) fn peek_time(&self) -> Option<SimTime> {
        self.heap.peek().map(|e| e.at)
    }

    pub(crate) fn pop(&mut self) -> Option<(SimTime, Ev<M>)> {
        self.heap.pop().map(|e| (e.at, e.ev))
    }

    #[cfg(test)]
    pub(crate) fn len(&self) -> usize {
        self.heap.len()
    }

    #[cfg(test)]
    pub(crate) fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn deliver(n: u64) -> Ev<u32> {
        Ev::Deliver {
            to: NodeId(n),
            from: NodeId(0),
            msg: 0,
        }
    }

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.push(SimTime::from_micros(30), deliver(3));
        q.push(SimTime::from_micros(10), deliver(1));
        q.push(SimTime::from_micros(20), deliver(2));
        let order: Vec<u64> = std::iter::from_fn(|| q.pop())
            .map(|(_, ev)| match ev {
                Ev::Deliver { to, .. } => to.0,
                _ => unreachable!(),
            })
            .collect();
        assert_eq!(order, vec![1, 2, 3]);
    }

    #[test]
    fn ties_break_by_insertion_order() {
        let mut q = EventQueue::new();
        let t = SimTime::from_micros(5);
        for i in 0..5 {
            q.push(t, deliver(i));
        }
        let order: Vec<u64> = std::iter::from_fn(|| q.pop())
            .map(|(_, ev)| match ev {
                Ev::Deliver { to, .. } => to.0,
                _ => unreachable!(),
            })
            .collect();
        assert_eq!(order, vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn peek_does_not_consume() {
        let mut q = EventQueue::new();
        assert!(q.is_empty());
        q.push(SimTime::from_micros(1), deliver(1));
        assert_eq!(q.peek_time(), Some(SimTime::from_micros(1)));
        assert_eq!(q.len(), 1);
        q.pop();
        assert!(q.peek_time().is_none());
    }
}
