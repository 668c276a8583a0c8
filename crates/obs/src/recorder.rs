//! The flight recorder: a lock-free, bounded, per-node event ring.
//!
//! Debugging a Byzantine-agreement run after the fact needs the *last*
//! few thousand events before the interesting moment, not an unbounded
//! log — so the recorder is a fixed-capacity ring of pre-allocated
//! atomic slots. Recording is wait-free (one `fetch_add` plus four
//! relaxed stores, no allocation, no lock), and memory is bounded by
//! construction: a duplicating scheduler or a flooding adversary can
//! wrap the ring but can never grow it.
//!
//! Concurrency contract: a recorder belongs to one node. Under the
//! deterministic simulator everything is single-threaded; under the
//! TCP runtime each node's thread is the only writer and snapshots
//! are taken after the threads are joined. Concurrent writers would not
//! corrupt memory (slots are atomics), but an event spanning four words
//! could interleave; the single-writer discipline keeps snapshots
//! coherent.

use crate::event::Event;
use std::sync::atomic::{AtomicU64, Ordering};

/// A bounded lock-free ring of packed [`Event`]s.
#[derive(Debug)]
pub struct FlightRecorder {
    /// `capacity * 4` words; event `i` lives at words `4*(i%cap)..`.
    slots: Box<[AtomicU64]>,
    /// Total events ever recorded (monotonic; `head % capacity` is the
    /// next write position).
    head: AtomicU64,
    capacity: usize,
}

impl FlightRecorder {
    /// A recorder holding the most recent `capacity` events (minimum 1).
    pub fn new(capacity: usize) -> FlightRecorder {
        let capacity = capacity.max(1);
        let words = (0..capacity * 4).map(|_| AtomicU64::new(0)).collect();
        FlightRecorder {
            slots: words,
            head: AtomicU64::new(0),
            capacity,
        }
    }

    /// Slots in the ring.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Total events recorded over the recorder's lifetime (including
    /// those since overwritten).
    pub fn recorded(&self) -> u64 {
        self.head.load(Ordering::Acquire)
    }

    /// Events lost to ring wrap-around.
    pub fn overwritten(&self) -> u64 {
        self.recorded().saturating_sub(self.capacity as u64)
    }

    /// Records one event (wait-free, no allocation).
    #[inline]
    pub fn record(&self, event: Event) {
        let seq = self.head.fetch_add(1, Ordering::AcqRel);
        let base = (seq % self.capacity as u64) as usize * 4;
        let words = event.pack();
        for (i, w) in words.iter().enumerate() {
            self.slots[base + i].store(*w, Ordering::Relaxed);
        }
    }

    /// The retained events, oldest first. Coherent when taken while no
    /// writer is active (see the module-level contract).
    pub fn snapshot(&self) -> Vec<Event> {
        let head = self.recorded();
        let len = head.min(self.capacity as u64) as usize;
        let start = head.saturating_sub(len as u64);
        (0..len as u64)
            .map(|i| {
                let base = ((start + i) % self.capacity as u64) as usize * 4;
                Event::unpack([
                    self.slots[base].load(Ordering::Relaxed),
                    self.slots[base + 1].load(Ordering::Relaxed),
                    self.slots[base + 2].load(Ordering::Relaxed),
                    self.slots[base + 3].load(Ordering::Relaxed),
                ])
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::{EventKind, Layer};

    fn ev(value: u64) -> Event {
        let mut e = Event::new(Layer::Net, EventKind::Custom, 0);
        e.value = value;
        e
    }

    #[test]
    fn records_and_snapshots_in_order() {
        let r = FlightRecorder::new(8);
        for v in 0..5 {
            r.record(ev(v));
        }
        let snap = r.snapshot();
        assert_eq!(snap.len(), 5);
        assert_eq!(
            snap.iter().map(|e| e.value).collect::<Vec<_>>(),
            vec![0, 1, 2, 3, 4]
        );
        assert_eq!(r.overwritten(), 0);
    }

    #[test]
    fn ring_wraps_and_stays_bounded() {
        let r = FlightRecorder::new(4);
        for v in 0..100 {
            r.record(ev(v));
        }
        assert_eq!(r.recorded(), 100);
        assert_eq!(r.overwritten(), 96);
        let snap = r.snapshot();
        assert_eq!(snap.len(), 4, "memory bounded at capacity");
        assert_eq!(
            snap.iter().map(|e| e.value).collect::<Vec<_>>(),
            vec![96, 97, 98, 99],
            "the most recent events survive"
        );
    }

    #[test]
    fn zero_capacity_clamps_to_one() {
        let r = FlightRecorder::new(0);
        r.record(ev(1));
        r.record(ev(2));
        assert_eq!(r.capacity(), 1);
        assert_eq!(r.snapshot().len(), 1);
        assert_eq!(r.snapshot()[0].value, 2);
    }
}
