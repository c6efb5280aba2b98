//! Bounded FIFO request queue between the I/O thread and the workers.
//!
//! Requests arrive one at a time from connection handlers, and each worker
//! pops one request, serves it through its warm session and pops the next.
//! The engine evaluates every image as its own pass of bit-streams, so
//! there is nothing to gain by grouping requests and no reason to hold one
//! back waiting for company.
//!
//! The queue also implements admission control: `max_queue` caps the number
//! of waiting requests, and [`RequestQueue::push`] *sheds* (refuses with
//! [`PushRefusal::Full`]) instead of queueing unboundedly. Queue depth is
//! latency — a request admitted behind a long backlog would only come back
//! after its deadline anyway, so refusing early keeps tail latency of the
//! accepted traffic predictable under overload.

use std::collections::VecDeque;
use std::sync::{Condvar, Mutex};

/// Why [`RequestQueue::push`] refused a request (the request is dropped;
/// the caller owns answering the client with the matching typed error).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PushRefusal {
    /// The queue is shutting down.
    Closed,
    /// The queue is at `max_queue` depth — shed under overload.
    Full,
}

#[derive(Debug)]
struct QueueState<T> {
    items: VecDeque<T>,
    closed: bool,
}

/// A blocking, bounded MPMC FIFO.
#[derive(Debug)]
pub struct RequestQueue<T> {
    state: Mutex<QueueState<T>>,
    available: Condvar,
    max_queue: usize,
}

impl<T> RequestQueue<T> {
    /// Creates a queue that holds at most `max_queue` waiting requests
    /// (floored at one).
    pub fn new(max_queue: usize) -> Self {
        Self {
            state: Mutex::new(QueueState {
                items: VecDeque::new(),
                closed: false,
            }),
            available: Condvar::new(),
            max_queue: max_queue.max(1),
        }
    }

    /// Enqueues a request, or refuses it (dropping the item) when the queue
    /// is closed or already `max_queue` deep.
    ///
    /// # Errors
    ///
    /// [`PushRefusal::Closed`] during shutdown, [`PushRefusal::Full`] when
    /// admission control sheds the request.
    pub fn push(&self, item: T) -> Result<(), PushRefusal> {
        let mut state = self.state.lock().expect("queue lock");
        if state.closed {
            return Err(PushRefusal::Closed);
        }
        if state.items.len() >= self.max_queue {
            return Err(PushRefusal::Full);
        }
        state.items.push_back(item);
        drop(state);
        self.available.notify_one();
        Ok(())
    }

    /// Number of requests currently waiting.
    pub fn len(&self) -> usize {
        self.state.lock().expect("queue lock").items.len()
    }

    /// Whether no requests are waiting.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Closes the queue: pushes start failing, and blocked `pop` callers
    /// drain the remaining items, then receive `None`.
    pub fn close(&self) {
        self.state.lock().expect("queue lock").closed = true;
        self.available.notify_all();
    }

    /// Blocks until a request is available and returns the oldest one.
    /// Returns `None` once the queue is closed and drained.
    pub fn pop(&self) -> Option<T> {
        let mut state = self.state.lock().expect("queue lock");
        loop {
            if let Some(item) = state.items.pop_front() {
                return Some(item);
            }
            if state.closed {
                return None;
            }
            state = self.available.wait(state).expect("queue lock");
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use std::time::Duration;

    #[test]
    fn pop_returns_requests_in_arrival_order() {
        let q = RequestQueue::new(8);
        for i in 0..5 {
            q.push(i).unwrap();
        }
        let popped: Vec<u32> = (0..5).map(|_| q.pop().unwrap()).collect();
        assert_eq!(popped, vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn close_drains_then_stops() {
        let q = RequestQueue::new(8);
        q.push(1).unwrap();
        q.push(2).unwrap();
        q.close();
        assert_eq!(q.push(3), Err(PushRefusal::Closed));
        assert_eq!(q.pop(), Some(1));
        assert_eq!(q.pop(), Some(2));
        assert_eq!(q.pop(), None);
        assert_eq!(q.pop(), None, "a drained closed queue stays drained");
    }

    #[test]
    fn full_queue_sheds_instead_of_growing() {
        let q = RequestQueue::new(2);
        q.push(1).unwrap();
        q.push(2).unwrap();
        assert_eq!(q.push(3), Err(PushRefusal::Full));
        assert_eq!(q.len(), 2, "a shed push must not grow the queue");
        // Popping reopens admission.
        assert_eq!(q.pop(), Some(1));
        q.push(4).unwrap();
        assert_eq!(q.pop(), Some(2));
        assert_eq!(q.pop(), Some(4));
        // `max_queue` is floored at one, never zero (which would refuse
        // everything forever).
        let q = RequestQueue::new(0);
        q.push(9).unwrap();
        assert_eq!(q.push(10), Err(PushRefusal::Full));
    }

    #[test]
    fn producers_wake_blocked_consumer() {
        let q = Arc::new(RequestQueue::new(8));
        let consumer = {
            let q = Arc::clone(&q);
            std::thread::spawn(move || q.pop())
        };
        std::thread::sleep(Duration::from_millis(20));
        q.push(9).unwrap();
        assert_eq!(consumer.join().unwrap(), Some(9));
    }

    #[test]
    fn close_unblocks_a_waiting_consumer() {
        let q = Arc::new(RequestQueue::<u32>::new(8));
        let consumer = {
            let q = Arc::clone(&q);
            std::thread::spawn(move || q.pop())
        };
        std::thread::sleep(Duration::from_millis(20));
        q.close();
        assert_eq!(consumer.join().unwrap(), None);
    }

    #[test]
    fn is_empty_reflects_queue_state() {
        let q = RequestQueue::new(8);
        assert!(q.is_empty());
        q.push(1).unwrap();
        assert!(!q.is_empty());
        assert_eq!(q.len(), 1);
        q.pop().unwrap();
        assert!(q.is_empty());
    }
}
