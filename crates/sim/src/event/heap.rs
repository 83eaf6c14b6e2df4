//! The original binary-heap event queue, kept as the ordering oracle.
//!
//! [`HeapEventQueue`] is the implementation [`EventQueue`](super::EventQueue)
//! replaced. It is compiled for tests only: the property tests drive both
//! queues with identical operation sequences and assert identical output
//! streams.

use super::Entry;
use crate::time::SimTime;
use std::collections::BinaryHeap;

/// A time-ordered queue of simulation events backed by a binary heap.
///
/// Same contract as [`EventQueue`](super::EventQueue): non-decreasing time
/// order, FIFO within one timestamp.
#[derive(Debug)]
pub struct HeapEventQueue<E> {
    heap: BinaryHeap<Entry<E>>,
    seq: u64,
}

impl<E> HeapEventQueue<E> {
    /// Creates an empty queue.
    pub fn new() -> Self {
        HeapEventQueue {
            heap: BinaryHeap::new(),
            seq: 0,
        }
    }

    /// Schedules `event` at `time`.
    pub fn push(&mut self, time: SimTime, event: E) {
        let seq = self.seq;
        self.seq += 1;
        self.heap.push(Entry { time, seq, event });
    }

    /// Removes and returns the earliest event, if any.
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        self.heap.pop().map(|e| (e.time, e.event))
    }

    /// The timestamp of the earliest pending event, if any.
    pub fn next_time(&self) -> Option<SimTime> {
        self.heap.peek().map(|e| e.time)
    }

    /// Removes and returns the earliest event only if it is due at or before
    /// `now`.
    pub fn pop_due(&mut self, now: SimTime) -> Option<(SimTime, E)> {
        let entry = self.heap.peek_mut()?;
        if entry.time <= now {
            let e = std::collections::binary_heap::PeekMut::pop(entry);
            Some((e.time, e.event))
        } else {
            None
        }
    }

    /// Removes every event due at or before `now`, appending them to `out`
    /// in pop order, and returns how many were drained.
    pub fn drain_due(&mut self, now: SimTime, out: &mut Vec<(SimTime, E)>) -> usize {
        let mut n = 0usize;
        while let Some(e) = self.pop_due(now) {
            out.push(e);
            n += 1;
        }
        n
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.heap.len()
    }
}
