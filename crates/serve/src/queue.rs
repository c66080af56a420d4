//! Bounded MPSC ring buffer feeding the micro-batch collector.
//!
//! Many connection reader threads push classify requests; one collector
//! thread drains them in batches. The ring is a fixed-capacity circular
//! buffer under a mutex with two condvars (`not_empty` / `not_full`), so a
//! burst beyond `capacity` applies backpressure to producers instead of
//! growing memory without bound.
//!
//! The consumer side is batch-shaped on purpose: [`RingBuffer::recv_batch`]
//! blocks for the *first* item, then keeps collecting until either
//! `max_batch` items are in hand or `max_wait` has elapsed since that first
//! arrival. That deadline — not a per-item timeout — is what bounds the
//! latency a lone request pays for the chance of being coalesced.

use std::collections::VecDeque;
use std::sync::{Condvar, Mutex};
use std::time::{Duration, Instant};

/// Result of a blocking receive on a closed, drained queue.
#[derive(Debug, PartialEq, Eq)]
pub struct Closed;

struct Ring<T> {
    slots: VecDeque<T>,
    capacity: usize,
    closed: bool,
}

/// Bounded multi-producer single-consumer queue with batch draining.
pub struct RingBuffer<T> {
    ring: Mutex<Ring<T>>,
    not_empty: Condvar,
    not_full: Condvar,
}

impl<T> RingBuffer<T> {
    /// Creates a queue holding at most `capacity` items.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    #[must_use]
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "ring buffer capacity must be nonzero");
        Self {
            ring: Mutex::new(Ring {
                slots: VecDeque::with_capacity(capacity),
                capacity,
                closed: false,
            }),
            not_empty: Condvar::new(),
            not_full: Condvar::new(),
        }
    }

    /// Enqueues an item, blocking while the queue is full.
    ///
    /// # Errors
    ///
    /// Returns the item back if the queue was closed before it could be
    /// enqueued, so the producer can fail the request instead of losing it.
    pub fn push(&self, item: T) -> Result<(), T> {
        let mut ring = self.ring.lock().unwrap();
        while ring.slots.len() == ring.capacity && !ring.closed {
            ring = self.not_full.wait(ring).unwrap();
        }
        if ring.closed {
            return Err(item);
        }
        ring.slots.push_back(item);
        drop(ring);
        self.not_empty.notify_one();
        Ok(())
    }

    /// Drains up to `max_batch` items into `out` (cleared first), in FIFO
    /// order. Blocks until at least one item arrives, then waits up to
    /// `max_wait` past that first arrival for the batch to fill.
    ///
    /// # Errors
    ///
    /// Returns [`Closed`] once the queue is closed *and* fully drained;
    /// items enqueued before [`close`](Self::close) are still delivered.
    pub fn recv_batch(&self, out: &mut Vec<T>, max_batch: usize, max_wait: Duration) -> Result<(), Closed> {
        out.clear();
        let max_batch = max_batch.max(1);
        let mut ring = self.ring.lock().unwrap();
        while ring.slots.is_empty() {
            if ring.closed {
                return Err(Closed);
            }
            ring = self.not_empty.wait(ring).unwrap();
        }
        let deadline = Instant::now() + max_wait;
        loop {
            while out.len() < max_batch {
                match ring.slots.pop_front() {
                    Some(item) => out.push(item),
                    None => break,
                }
            }
            if out.len() >= max_batch || ring.closed {
                break;
            }
            let now = Instant::now();
            if now >= deadline {
                break;
            }
            let (guard, timeout) = self.not_empty.wait_timeout(ring, deadline - now).unwrap();
            ring = guard;
            if timeout.timed_out() && ring.slots.is_empty() {
                break;
            }
        }
        drop(ring);
        // Producers blocked on a full ring can move up now.
        self.not_full.notify_all();
        Ok(())
    }

    /// Closes the queue: future pushes fail, and the consumer drains what
    /// remains before seeing [`Closed`]. Idempotent.
    pub fn close(&self) {
        let mut ring = self.ring.lock().unwrap();
        ring.closed = true;
        drop(ring);
        self.not_empty.notify_all();
        self.not_full.notify_all();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use std::thread;

    #[test]
    fn batches_preserve_fifo_order() {
        let q = RingBuffer::new(16);
        for i in 0..10 {
            q.push(i).unwrap();
        }
        let mut batch = Vec::new();
        q.recv_batch(&mut batch, 4, Duration::ZERO).unwrap();
        assert_eq!(batch, vec![0, 1, 2, 3]);
        q.recv_batch(&mut batch, 100, Duration::ZERO).unwrap();
        assert_eq!(batch, vec![4, 5, 6, 7, 8, 9]);
    }

    #[test]
    fn recv_waits_for_first_item() {
        let q = Arc::new(RingBuffer::new(4));
        let producer = {
            let q = Arc::clone(&q);
            thread::spawn(move || {
                thread::sleep(Duration::from_millis(20));
                q.push(42u32).unwrap();
            })
        };
        let mut batch = Vec::new();
        q.recv_batch(&mut batch, 8, Duration::ZERO).unwrap();
        assert_eq!(batch, vec![42]);
        producer.join().unwrap();
    }

    #[test]
    fn max_wait_collects_stragglers() {
        let q = Arc::new(RingBuffer::new(16));
        q.push(1u32).unwrap();
        let producer = {
            let q = Arc::clone(&q);
            thread::spawn(move || {
                thread::sleep(Duration::from_millis(10));
                q.push(2).unwrap();
            })
        };
        let mut batch = Vec::new();
        q.recv_batch(&mut batch, 8, Duration::from_millis(500)).unwrap();
        producer.join().unwrap();
        // The straggler lands well inside the 500ms window.
        assert_eq!(batch, vec![1, 2]);
    }

    #[test]
    fn full_queue_applies_backpressure_then_drains() {
        let q = Arc::new(RingBuffer::new(2));
        q.push(0u32).unwrap();
        q.push(1).unwrap();
        let producer = {
            let q = Arc::clone(&q);
            thread::spawn(move || q.push(2)) // blocks until consumer drains
        };
        thread::sleep(Duration::from_millis(10));
        let mut batch = Vec::new();
        q.recv_batch(&mut batch, 2, Duration::ZERO).unwrap();
        assert_eq!(batch, vec![0, 1]);
        producer.join().unwrap().unwrap();
        q.recv_batch(&mut batch, 2, Duration::ZERO).unwrap();
        assert_eq!(batch, vec![2]);
    }

    #[test]
    fn close_drains_remaining_then_reports_closed() {
        let q = RingBuffer::new(8);
        q.push(7u32).unwrap();
        q.close();
        assert_eq!(q.push(8), Err(8));
        let mut batch = Vec::new();
        q.recv_batch(&mut batch, 8, Duration::from_millis(50)).unwrap();
        assert_eq!(batch, vec![7]);
        assert_eq!(q.recv_batch(&mut batch, 8, Duration::ZERO), Err(Closed));
    }

    #[test]
    fn close_unblocks_full_producer() {
        let q = Arc::new(RingBuffer::new(1));
        q.push(0u32).unwrap();
        let producer = {
            let q = Arc::clone(&q);
            thread::spawn(move || q.push(1))
        };
        thread::sleep(Duration::from_millis(10));
        q.close();
        assert_eq!(producer.join().unwrap(), Err(1));
    }

    #[test]
    fn concurrent_producers_lose_nothing() {
        let q = Arc::new(RingBuffer::new(32));
        let producers: Vec<_> = (0..4)
            .map(|p| {
                let q = Arc::clone(&q);
                thread::spawn(move || {
                    for i in 0..100u32 {
                        q.push(p * 1000 + i).unwrap();
                    }
                })
            })
            .collect();
        let consumer = {
            let q = Arc::clone(&q);
            thread::spawn(move || {
                let mut seen = Vec::new();
                let mut batch = Vec::new();
                while q.recv_batch(&mut batch, 16, Duration::from_micros(100)).is_ok() {
                    seen.extend_from_slice(&batch);
                }
                seen
            })
        };
        for p in producers {
            p.join().unwrap();
        }
        q.close();
        let mut seen = consumer.join().unwrap();
        seen.sort_unstable();
        let mut expect: Vec<u32> = (0..4).flat_map(|p| (0..100).map(move |i| p * 1000 + i)).collect();
        expect.sort_unstable();
        assert_eq!(seen, expect);
    }
}
