//! Bounded lock-free ingest ring (Vyukov-style MPMC array queue).
//!
//! Telemetry producers — gateway threads, scenario fault channels, bench
//! traffic generators — enqueue with a single CAS and no locks; the tick
//! loop drains from the other end. The ring is *bounded* on purpose: when
//! an engine falls behind, producers get an immediate `Err` back (surfaced
//! as [`crate::IngestOutcome::Backpressure`]) instead of blocking the
//! gateway or silently dropping frames. Every refused frame is counted in
//! [`IngestRing::overflow_total`], so ingest accounting always reconciles:
//! `attempts == enqueued + overflow`.
//!
//! The algorithm is Dmitry Vyukov's bounded MPMC queue: each slot carries
//! a sequence number that encodes both its lap and its state. A producer
//! claims a slot by CAS-ing the enqueue cursor, writes the value, then
//! releases the slot to the consumer by bumping the sequence; a consumer
//! mirrors this from the dequeue cursor. Slots hand over with
//! acquire/release pairs on the sequence, so the value write in `push`
//! happens-before the value read in `pop`.

use std::cell::UnsafeCell;
use std::mem::MaybeUninit;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};

/// One ring slot: the sequence encodes lap + occupancy, the value is only
/// alive between a producer's release and a consumer's acquire.
struct Slot<T> {
    sequence: AtomicUsize,
    value: UnsafeCell<MaybeUninit<T>>,
}

/// A bounded multi-producer multi-consumer ring buffer.
///
/// Producers call [`push`](Self::push) from any thread without locking;
/// the serve tier's tick loop is the (single, but not required to be)
/// consumer calling [`pop`](Self::pop). Capacity is rounded up to the
/// next power of two.
pub struct IngestRing<T> {
    slots: Box<[Slot<T>]>,
    mask: usize,
    /// Next position a producer will claim.
    enqueue_pos: AtomicUsize,
    /// Next position a consumer will claim.
    dequeue_pos: AtomicUsize,
    /// Frames refused because the ring was full, since construction.
    overflow: AtomicU64,
}

// SAFETY: the queue hands each value from exactly one producer to exactly
// one consumer (slot ownership is transferred by the sequence protocol
// below), so sharing the ring across threads only requires the payload
// itself to be sendable.
#[allow(unsafe_code)]
unsafe impl<T: Send> Send for IngestRing<T> {}
#[allow(unsafe_code)]
unsafe impl<T: Send> Sync for IngestRing<T> {}

impl<T> IngestRing<T> {
    /// Builds a ring holding at least `capacity` frames (rounded up to a
    /// power of two).
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn with_capacity(capacity: usize) -> Self {
        assert!(capacity > 0, "ingest ring needs at least one slot");
        let capacity = capacity.next_power_of_two();
        let slots: Box<[Slot<T>]> = (0..capacity)
            .map(|i| Slot {
                sequence: AtomicUsize::new(i),
                value: UnsafeCell::new(MaybeUninit::uninit()),
            })
            .collect();
        IngestRing {
            slots,
            mask: capacity - 1,
            enqueue_pos: AtomicUsize::new(0),
            dequeue_pos: AtomicUsize::new(0),
            overflow: AtomicU64::new(0),
        }
    }

    /// Usable slot count (the rounded-up power of two).
    pub fn capacity(&self) -> usize {
        self.slots.len()
    }

    /// Frames refused because the ring was full, since construction.
    pub fn overflow_total(&self) -> u64 {
        self.overflow.load(Ordering::Relaxed)
    }

    /// Approximate occupancy, always within `0..=capacity()` — exact when
    /// no producer or consumer is mid-operation.
    ///
    /// The dequeue cursor is read first: it never passes the enqueue
    /// cursor, so a later enqueue read is not behind it in practice
    /// (reading in the other order lets a drain overtake a stale enqueue
    /// value and wrap the difference to ~2^64). Both loads are `Relaxed` —
    /// the value is a statistic and publishes no data — so the memory
    /// model does not promise that order; a negative difference reads as
    /// empty. Between the two reads producers may refill what consumers
    /// freed, so the difference is clamped to capacity.
    pub fn len(&self) -> usize {
        let dequeued = self.dequeue_pos.load(Ordering::Relaxed);
        let enqueued = self.enqueue_pos.load(Ordering::Relaxed);
        let occupied = enqueued.wrapping_sub(dequeued);
        if (occupied as isize) < 0 {
            0
        } else {
            occupied.min(self.capacity())
        }
    }

    /// Whether the ring is (approximately) empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Enqueues without locking. `Err(value)` hands the frame back when
    /// the ring is full — the caller decides whether to retry, shed, or
    /// surface backpressure — and bumps [`Self::overflow_total`].
    #[allow(unsafe_code)]
    pub fn push(&self, value: T) -> Result<(), T> {
        let mut pos = self.enqueue_pos.load(Ordering::Relaxed);
        loop {
            let slot = &self.slots[pos & self.mask];
            let seq = slot.sequence.load(Ordering::Acquire);
            let dif = seq as isize - pos as isize;
            if dif == 0 {
                // Slot is free on our lap: claim it by advancing the cursor.
                match self.enqueue_pos.compare_exchange_weak(
                    pos,
                    pos.wrapping_add(1),
                    Ordering::Relaxed,
                    Ordering::Relaxed,
                ) {
                    Ok(_) => {
                        // SAFETY: the CAS gave this thread exclusive
                        // ownership of slot `pos & mask` for this lap: no
                        // other producer can claim position `pos` again,
                        // and consumers skip the slot until the Release
                        // store below publishes `pos + 1`.
                        unsafe { (*slot.value.get()).write(value) };
                        slot.sequence.store(pos.wrapping_add(1), Ordering::Release);
                        return Ok(());
                    }
                    Err(current) => pos = current,
                }
            } else if dif < 0 {
                // The slot still holds last lap's value: the ring is full.
                self.overflow.fetch_add(1, Ordering::Relaxed);
                return Err(value);
            } else {
                // Another producer claimed this position; reload and retry.
                pos = self.enqueue_pos.load(Ordering::Relaxed);
            }
        }
    }

    /// Dequeues the oldest frame, or `None` when the ring is empty.
    #[allow(unsafe_code)]
    pub fn pop(&self) -> Option<T> {
        let mut pos = self.dequeue_pos.load(Ordering::Relaxed);
        loop {
            let slot = &self.slots[pos & self.mask];
            let seq = slot.sequence.load(Ordering::Acquire);
            let dif = seq as isize - pos.wrapping_add(1) as isize;
            if dif == 0 {
                match self.dequeue_pos.compare_exchange_weak(
                    pos,
                    pos.wrapping_add(1),
                    Ordering::Relaxed,
                    Ordering::Relaxed,
                ) {
                    Ok(_) => {
                        // SAFETY: the CAS gave this thread exclusive
                        // ownership of the slot, whose value was fully
                        // written before the producer's Release store we
                        // Acquired above. Reading moves the value out;
                        // the sequence store below marks the slot free
                        // for the producers' next lap.
                        let value = unsafe { (*slot.value.get()).assume_init_read() };
                        slot.sequence
                            .store(pos.wrapping_add(self.mask + 1), Ordering::Release);
                        return Some(value);
                    }
                    Err(current) => pos = current,
                }
            } else if dif < 0 {
                return None;
            } else {
                pos = self.dequeue_pos.load(Ordering::Relaxed);
            }
        }
    }
}

impl<T> Drop for IngestRing<T> {
    fn drop(&mut self) {
        // Drain so undelivered frames run their destructors.
        while self.pop().is_some() {}
    }
}

impl<T> std::fmt::Debug for IngestRing<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("IngestRing")
            .field("capacity", &self.capacity())
            .field("len", &self.len())
            .field("overflow", &self.overflow_total())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn fifo_order_single_thread() {
        let ring = IngestRing::with_capacity(8);
        for i in 0..8u64 {
            ring.push(i).expect("fits");
        }
        for i in 0..8u64 {
            assert_eq!(ring.pop(), Some(i));
        }
        assert_eq!(ring.pop(), None);
    }

    #[test]
    fn capacity_rounds_up_to_power_of_two() {
        assert_eq!(IngestRing::<u8>::with_capacity(1).capacity(), 1);
        assert_eq!(IngestRing::<u8>::with_capacity(3).capacity(), 4);
        assert_eq!(IngestRing::<u8>::with_capacity(1000).capacity(), 1024);
    }

    #[test]
    fn full_ring_refuses_and_counts_overflow() {
        let ring = IngestRing::with_capacity(4);
        for i in 0..4u64 {
            ring.push(i).expect("fits");
        }
        assert_eq!(ring.push(99), Err(99), "full ring hands the frame back");
        assert_eq!(ring.push(98), Err(98));
        assert_eq!(ring.overflow_total(), 2);
        // Draining one slot makes room for exactly one more.
        assert_eq!(ring.pop(), Some(0));
        ring.push(4).expect("slot freed");
        assert_eq!(ring.push(97), Err(97));
        assert_eq!(ring.overflow_total(), 3);
    }

    #[test]
    fn wraparound_many_laps() {
        let ring = IngestRing::with_capacity(4);
        let mut next_out = 0u64;
        for lap in 0..100u64 {
            for i in 0..3 {
                ring.push(lap * 3 + i).expect("never more than 3 in flight");
            }
            for _ in 0..3 {
                assert_eq!(ring.pop(), Some(next_out));
                next_out += 1;
            }
        }
        assert_eq!(ring.overflow_total(), 0);
    }

    /// `len` read from a third thread while a producer and a consumer
    /// race never leaves `0..=capacity` (it used to wrap to ~2^64 when a
    /// drain overtook its stale enqueue read).
    #[test]
    fn len_stays_within_capacity_under_concurrent_traffic() {
        use std::sync::atomic::AtomicBool;
        const FRAMES: u64 = 1_000_000;
        let ring = Arc::new(IngestRing::with_capacity(64));
        let done = Arc::new(AtomicBool::new(false));
        let producer = {
            let ring = Arc::clone(&ring);
            std::thread::spawn(move || {
                for i in 0..FRAMES {
                    while ring.push(i).is_err() {
                        std::thread::yield_now();
                    }
                }
            })
        };
        let consumer = {
            let ring = Arc::clone(&ring);
            std::thread::spawn(move || {
                let mut popped = 0;
                while popped < FRAMES {
                    if ring.pop().is_some() {
                        popped += 1;
                    } else {
                        std::thread::yield_now();
                    }
                }
            })
        };
        let observer = {
            let (ring, done) = (Arc::clone(&ring), Arc::clone(&done));
            std::thread::spawn(move || {
                let mut reads = 0u64;
                let mut worst = 0;
                while !done.load(Ordering::Relaxed) || reads < 1_000 {
                    worst = worst.max(ring.len());
                    reads += 1;
                    if reads.is_multiple_of(1024) {
                        std::thread::yield_now();
                    }
                }
                worst
            })
        };
        producer.join().expect("producer");
        consumer.join().expect("consumer");
        done.store(true, Ordering::Relaxed);
        let worst = observer.join().expect("observer");
        assert!(
            worst <= ring.capacity(),
            "len() reported {worst} on a {}-slot ring",
            ring.capacity()
        );
        assert_eq!(ring.len(), 0);
    }

    /// Multi-producer stress: every pushed value is popped exactly once,
    /// and pushes + overflows account for every attempt.
    #[test]
    fn concurrent_producers_lose_nothing() {
        const PRODUCERS: u64 = 4;
        const PER_PRODUCER: u64 = 20_000;
        let ring = Arc::new(IngestRing::with_capacity(256));
        let mut handles = Vec::new();
        for p in 0..PRODUCERS {
            let ring = Arc::clone(&ring);
            handles.push(std::thread::spawn(move || {
                let mut enqueued = 0u64;
                for i in 0..PER_PRODUCER {
                    if ring.push(p * PER_PRODUCER + i).is_ok() {
                        enqueued += 1;
                    }
                }
                enqueued
            }));
        }
        let mut popped: Vec<u64> = Vec::new();
        // Consume concurrently until every producer has finished, then
        // drain the tail.
        let mut done = false;
        while !done || !ring.is_empty() {
            done = handles.iter().all(|h| h.is_finished());
            while let Some(v) = ring.pop() {
                popped.push(v);
            }
        }
        let enqueued: u64 = handles
            .into_iter()
            .map(|h| h.join().expect("producer"))
            .sum();
        assert_eq!(popped.len() as u64, enqueued, "every push is popped once");
        assert_eq!(
            enqueued + ring.overflow_total(),
            PRODUCERS * PER_PRODUCER,
            "attempts reconcile as enqueued + overflow"
        );
        // No duplicates, and per-producer order is preserved.
        let mut seen = std::collections::HashSet::new();
        let mut last_per_producer = vec![None::<u64>; PRODUCERS as usize];
        for &v in &popped {
            assert!(seen.insert(v), "value {v} delivered twice");
            let p = (v / PER_PRODUCER) as usize;
            if let Some(prev) = last_per_producer[p] {
                assert!(prev < v, "producer {p} frames reordered");
            }
            last_per_producer[p] = Some(v);
        }
    }
}
