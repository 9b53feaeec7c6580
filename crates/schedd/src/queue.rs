//! A bounded MPMC job queue with typed backpressure.
//!
//! The daemon's admission stage pushes, waking a worker once it has let
//! go of its connection, and **never blocks**: a full queue is an
//! immediate [`PushError::Full`] that the connection layer turns into an
//! `Overloaded` error frame. Blocking the reader thread on a full queue
//! would convert overload into unbounded client-side latency and make
//! the daemon's capacity invisible; a typed rejection keeps the contract
//! testable ("fill the queue, observe `Overloaded`, drain, observe
//! success").
//!
//! Workers block on [`BoundedQueue::pop`], which returns `None` only
//! once the queue is both closed and empty — so closing the queue *is*
//! the graceful-drain protocol: everything admitted before the close is
//! still served.
//!
//! [`BoundedQueue::pause`] / [`BoundedQueue::resume`] gate the consumer
//! side without touching the producer side. The fault-injection tests
//! use this to make "queue full" and "quota exhausted" deterministic
//! instead of racing against worker speed; a paused queue still drains
//! once closed, so a pause can never wedge shutdown.

use std::collections::VecDeque;
use std::fmt;
use std::sync::{Condvar, Mutex};

/// Why a push was refused.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum PushError {
    /// The queue is at capacity — backpressure, try again after a pop.
    Full,
    /// The queue was closed — the daemon is draining.
    Closed,
}

impl fmt::Display for PushError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PushError::Full => f.write_str("queue full"),
            PushError::Closed => f.write_str("queue closed"),
        }
    }
}

impl std::error::Error for PushError {}

struct Inner<T> {
    items: VecDeque<T>,
    closed: bool,
    paused: bool,
}

/// Bounded multi-producer/multi-consumer FIFO.
pub struct BoundedQueue<T> {
    inner: Mutex<Inner<T>>,
    capacity: usize,
    takeable: Condvar,
}

impl<T> BoundedQueue<T> {
    /// A queue holding at most `capacity` items (at least 1).
    pub fn new(capacity: usize) -> BoundedQueue<T> {
        BoundedQueue {
            inner: Mutex::new(Inner {
                items: VecDeque::with_capacity(capacity.max(1)),
                closed: false,
                paused: false,
            }),
            capacity: capacity.max(1),
            takeable: Condvar::new(),
        }
    }

    /// Enqueue without blocking.
    ///
    /// # Errors
    ///
    /// [`PushError::Full`] at capacity, [`PushError::Closed`] after
    /// [`close`](Self::close); the item comes back inside the error's
    /// carrier — nothing is lost.
    pub fn try_push(&self, item: T) -> Result<(), (T, PushError)> {
        self.try_push_unwoken(item)?;
        self.wake_one();
        Ok(())
    }

    /// [`try_push`](Self::try_push) without the wake-up, for a caller holding
    /// a lock the consumer takes; it calls [`wake_one`](Self::wake_one) after.
    pub(crate) fn try_push_unwoken(&self, item: T) -> Result<(), (T, PushError)> {
        let mut inner = self.inner.lock().expect("queue lock");
        if inner.closed {
            return Err((item, PushError::Closed));
        }
        if inner.items.len() >= self.capacity {
            return Err((item, PushError::Full));
        }
        inner.items.push_back(item);
        Ok(())
    }

    pub(crate) fn wake_one(&self) {
        self.takeable.notify_one();
    }

    /// Dequeue, blocking while the queue is empty (or paused) and open.
    /// `None` means closed **and** drained — the worker's exit signal.
    pub fn pop(&self) -> Option<T> {
        let mut inner = self.inner.lock().expect("queue lock");
        loop {
            if !inner.items.is_empty() && (!inner.paused || inner.closed) {
                return inner.items.pop_front();
            }
            if inner.closed && inner.items.is_empty() {
                return None;
            }
            inner = self.takeable.wait(inner).expect("queue lock");
        }
    }

    /// Stop consumers from taking items; producers are unaffected.
    pub fn pause(&self) {
        self.inner.lock().expect("queue lock").paused = true;
    }

    /// Undo [`pause`](Self::pause).
    pub fn resume(&self) {
        self.inner.lock().expect("queue lock").paused = false;
        self.takeable.notify_all();
    }

    /// Refuse new items; consumers drain what remains, then see `None`.
    /// A paused queue still drains — close overrides pause.
    pub fn close(&self) {
        self.inner.lock().expect("queue lock").closed = true;
        self.takeable.notify_all();
    }

    /// Items currently waiting.
    pub fn len(&self) -> usize {
        self.inner.lock().expect("queue lock").items.len()
    }

    /// Whether nothing is waiting.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use std::thread;

    #[test]
    fn fifo_order_and_capacity() {
        let q = BoundedQueue::new(2);
        q.try_push(1).unwrap();
        q.try_push(2).unwrap();
        assert_eq!(q.try_push(3), Err((3, PushError::Full)));
        assert_eq!(q.pop(), Some(1));
        q.try_push(3).unwrap();
        assert_eq!(q.pop(), Some(2));
        assert_eq!(q.pop(), Some(3));
        assert!(q.is_empty());
    }

    #[test]
    fn close_drains_then_signals() {
        let q = BoundedQueue::new(4);
        q.try_push("a").unwrap();
        q.close();
        assert_eq!(q.try_push("b"), Err(("b", PushError::Closed)));
        assert_eq!(q.pop(), Some("a"));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn pause_blocks_consumers_until_resume() {
        let q = Arc::new(BoundedQueue::new(4));
        q.pause();
        q.try_push(7).unwrap();
        let consumer = {
            let q = Arc::clone(&q);
            thread::spawn(move || q.pop())
        };
        // The consumer must be parked on the pause, not racing us: give
        // it a moment, then confirm the item is still queued.
        thread::sleep(std::time::Duration::from_millis(20));
        assert_eq!(q.len(), 1);
        q.resume();
        assert_eq!(consumer.join().unwrap(), Some(7));
    }

    #[test]
    fn close_overrides_pause() {
        let q = BoundedQueue::new(4);
        q.pause();
        q.try_push(1).unwrap();
        q.close();
        assert_eq!(q.pop(), Some(1));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn concurrent_producers_and_consumers_lose_nothing() {
        let q = Arc::new(BoundedQueue::new(8));
        let producers: Vec<_> = (0..4)
            .map(|p| {
                let q = Arc::clone(&q);
                thread::spawn(move || {
                    for i in 0..100 {
                        let mut item = p * 1000 + i;
                        loop {
                            match q.try_push(item) {
                                Ok(()) => break,
                                Err((back, PushError::Full)) => {
                                    item = back;
                                    thread::yield_now();
                                }
                                Err((_, PushError::Closed)) => panic!("closed early"),
                            }
                        }
                    }
                })
            })
            .collect();
        let consumers: Vec<_> = (0..2)
            .map(|_| {
                let q = Arc::clone(&q);
                thread::spawn(move || {
                    let mut seen = Vec::new();
                    while let Some(item) = q.pop() {
                        seen.push(item);
                    }
                    seen
                })
            })
            .collect();
        for p in producers {
            p.join().unwrap();
        }
        q.close();
        let mut all: Vec<i32> = consumers
            .into_iter()
            .flat_map(|c| c.join().unwrap())
            .collect();
        all.sort_unstable();
        let expected: Vec<i32> = (0..4)
            .flat_map(|p| (0..100).map(move |i| p * 1000 + i))
            .collect();
        assert_eq!(all, expected);
    }
}
