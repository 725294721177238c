//! The service's hand-off queue: unbounded, many senders, one receiver.
//!
//! Both hand-overs between threads go through it: each worker's inbound
//! queue (transports → worker) and each channel session's sink (worker →
//! [`ChannelConn`](crate::transport::ChannelConn)). The API is the part of
//! `std::sync::mpsc` those call sites use, with std's own error types, and
//! so are the disconnect rules: [`Receiver::recv`] fails once every
//! [`Sender`] is gone and the queue is drained, and [`Sender::send`] hands
//! the value back once the [`Receiver`] is gone.
//!
//! It is a `Mutex<VecDeque<T>>` and a `Condvar`, arranged so the hand-over
//! costs one lock and, only when the receiver sleeps, one wake-up:
//!
//! * **wake after unlock.** A receiver about to block sets `waiting` under
//!   the lock. [`Sender::send`] pushes, takes that flag, drops the guard,
//!   and only then calls `notify_one`, and only if the flag was set.
//!   `mpsc` wakes the receiver while still holding its waker's mutex, so
//!   on one core the woken receiver runs into that held mutex, spins, and
//!   sleeps again until the sender is scheduled to unlock it (DESIGN.md
//!   "Transport" has the profile).
//! * **an empty poll takes no lock.** The count of queued values (and
//!   whether the senders are gone) is mirrored in one atomic, so an empty
//!   [`Receiver::try_recv`] is one load. The open-loop probe and the load
//!   generator spin on it.
//!
//! No code of the caller's runs under the lock: values are moved in and
//! out, and the ones a dropped receiver leaves behind are dropped after
//! the guard. The queue keeps the capacity it grew to, so a steady
//! exchange allocates nothing.

use std::collections::VecDeque;
use std::fmt;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::time::{Duration, Instant};

pub use std::sync::mpsc::{RecvError, RecvTimeoutError, SendError, TryRecvError};

/// `status` bit 0: every sender is gone. The queued count is above it.
const CLOSED: usize = 1;

/// A new queue: its one receiver and a first sender (clone it for more).
pub fn channel<T>() -> (Sender<T>, Receiver<T>) {
    let shared = Arc::new(Shared {
        state: Mutex::new(State {
            queue: VecDeque::new(),
            senders: 1,
            receiver: true,
            waiting: false,
        }),
        ready: Condvar::new(),
        status: AtomicUsize::new(0),
    });
    (
        Sender {
            shared: Arc::clone(&shared),
        },
        Receiver { shared },
    )
}

struct Shared<T> {
    state: Mutex<State<T>>,
    /// Signalled when a value arrives or the last sender leaves, and only
    /// while `State::waiting` says the receiver sleeps on it.
    ready: Condvar,
    /// `queue.len() << 1 | CLOSED`, stored under the lock after every
    /// change and loaded without it by an empty poll. Its `Release` store
    /// pairs with that `Acquire` load; the values themselves pass under
    /// the lock.
    status: AtomicUsize,
}

struct State<T> {
    queue: VecDeque<T>,
    senders: usize,
    receiver: bool,
    /// The receiver is blocked, or about to block, on `ready`.
    waiting: bool,
}

impl<T> Shared<T> {
    fn lock(&self) -> MutexGuard<'_, State<T>> {
        // No caller code runs under the lock, and nothing that runs there
        // can panic half-way through a change: a poisoned lock still
        // guards a whole queue.
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Release the lock, then wake the receiver if it sleeps: woken under
    /// the lock, it would only run into the lock still held.
    fn unlock_and_wake(&self, mut state: MutexGuard<'_, State<T>>) {
        let wake = std::mem::take(&mut state.waiting);
        drop(state);
        if wake {
            self.ready.notify_one();
        }
    }

    fn publish(&self, state: &State<T>) {
        let closed = if state.senders == 0 { CLOSED } else { 0 };
        self.status
            .store(state.queue.len() << 1 | closed, Ordering::Release);
    }
}

/// The sending half. Cloneable; the queue is disconnected for the
/// receiver once the last clone is dropped.
pub struct Sender<T> {
    shared: Arc<Shared<T>>,
}

impl<T> Sender<T> {
    /// Queue `value` behind everything sent before it. Never blocks; fails,
    /// handing `value` back, once the receiver is gone.
    pub fn send(&self, value: T) -> Result<(), SendError<T>> {
        let mut state = self.shared.lock();
        if !state.receiver {
            return Err(SendError(value));
        }
        state.queue.push_back(value);
        self.shared.publish(&state);
        self.shared.unlock_and_wake(state);
        Ok(())
    }
}

impl<T> Clone for Sender<T> {
    fn clone(&self) -> Self {
        self.shared.lock().senders += 1;
        Self {
            shared: Arc::clone(&self.shared),
        }
    }
}

impl<T> Drop for Sender<T> {
    fn drop(&mut self) {
        let mut state = self.shared.lock();
        state.senders -= 1;
        if state.senders > 0 {
            return;
        }
        self.shared.publish(&state);
        self.shared.unlock_and_wake(state);
    }
}

impl<T> fmt::Debug for Sender<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Sender").finish_non_exhaustive()
    }
}

/// The receiving half: values come out in the order they were sent.
pub struct Receiver<T> {
    shared: Arc<Shared<T>>,
}

impl<T> Receiver<T> {
    /// The next value if one is queued. An empty queue is one atomic load.
    pub fn try_recv(&self) -> Result<T, TryRecvError> {
        match self.shared.status.load(Ordering::Acquire) {
            0 => Err(TryRecvError::Empty),
            CLOSED => Err(TryRecvError::Disconnected),
            _ => self.pop(&mut self.shared.lock()).ok_or(TryRecvError::Empty),
        }
    }

    /// Block until a value arrives; fails once every sender is gone and
    /// the queue is drained.
    pub fn recv(&self) -> Result<T, RecvError> {
        self.recv_until(None).map_err(|_| RecvError)
    }

    /// Block until a value arrives or `timeout` passes.
    pub fn recv_timeout(&self, timeout: Duration) -> Result<T, RecvTimeoutError> {
        // A deadline past what `Instant` can hold is no deadline.
        self.recv_until(Instant::now().checked_add(timeout))
    }

    fn recv_until(&self, deadline: Option<Instant>) -> Result<T, RecvTimeoutError> {
        let ready = &self.shared.ready;
        let mut state = self.shared.lock();
        loop {
            if let Some(value) = self.pop(&mut state) {
                return Ok(value);
            }
            if state.senders == 0 {
                return Err(RecvTimeoutError::Disconnected);
            }
            let left = match deadline.map(|d| d.checked_duration_since(Instant::now())) {
                Some(None) => return Err(RecvTimeoutError::Timeout),
                left => left.flatten(),
            };
            state.waiting = true;
            state = match left {
                None => ready.wait(state).unwrap_or_else(PoisonError::into_inner),
                Some(left) => {
                    ready
                        .wait_timeout(state, left)
                        .unwrap_or_else(PoisonError::into_inner)
                        .0
                }
            };
            state.waiting = false;
        }
    }

    fn pop(&self, state: &mut State<T>) -> Option<T> {
        let value = state.queue.pop_front()?;
        self.shared.publish(state);
        Some(value)
    }
}

impl<T> Drop for Receiver<T> {
    fn drop(&mut self) {
        let mut state = self.shared.lock();
        state.receiver = false;
        let left = std::mem::take(&mut state.queue);
        drop(state);
        // The values nobody will receive are dropped outside the lock.
        drop(left);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::thread;

    #[test]
    fn two_producers_each_arrive_in_order() {
        let (tx, rx) = channel();
        let producers: Vec<_> = (0..2u64)
            .map(|p| {
                let tx = tx.clone();
                thread::spawn(move || {
                    for i in 0..10_000u64 {
                        tx.send((p, i)).unwrap();
                    }
                })
            })
            .collect();
        drop(tx);
        let mut next = [0u64; 2];
        while let Ok((p, i)) = rx.recv() {
            assert_eq!(i, next[p as usize], "producer {p} out of order");
            next[p as usize] += 1;
        }
        assert_eq!(next, [10_000; 2], "every value, then the hang-up");
        for producer in producers {
            producer.join().unwrap();
        }
    }

    #[test]
    fn send_to_a_dropped_receiver_hands_the_value_back() {
        let (tx, rx) = channel();
        tx.send(1).unwrap();
        drop(rx);
        assert_eq!(tx.send(2), Err(SendError(2)));
    }

    #[test]
    fn a_dropped_receiver_drops_what_was_queued() {
        let value = Arc::new(());
        let (tx, rx) = channel();
        tx.send(Arc::clone(&value)).unwrap();
        drop(rx);
        assert_eq!(Arc::strong_count(&value), 1);
        drop(tx);
    }

    #[test]
    fn disconnected_only_once_the_last_sender_is_gone_and_the_queue_drained() {
        let (tx, rx) = channel();
        let tx2 = tx.clone();
        tx.send(1).unwrap();
        tx2.send(2).unwrap();
        drop(tx);
        assert_eq!(rx.try_recv(), Ok(1), "one sender left");
        drop(tx2);
        assert_eq!(rx.try_recv(), Ok(2), "gone, but the queue is not drained");
        assert_eq!(rx.try_recv(), Err(TryRecvError::Disconnected));
        assert_eq!(rx.recv(), Err(RecvError));

        let (tx, rx) = channel();
        assert_eq!(rx.try_recv(), Err(TryRecvError::Empty));
        tx.send(3).unwrap();
        drop(tx);
        assert_eq!(rx.recv(), Ok(3));
        assert_eq!(rx.recv(), Err(RecvError));
        assert_eq!(
            rx.recv_timeout(Duration::from_secs(5)),
            Err(RecvTimeoutError::Disconnected)
        );
    }

    #[test]
    fn a_blocked_recv_wakes_for_a_send_and_for_the_hang_up() {
        let (tx, rx) = channel::<u32>();
        let shared = Arc::clone(&rx.shared);
        let blocked = || {
            while !shared.lock().waiting {
                thread::yield_now();
            }
        };
        let receiver = thread::spawn(move || (rx.recv(), rx.recv()));
        blocked();
        tx.send(5).unwrap();
        blocked();
        drop(tx);
        assert_eq!(receiver.join().unwrap(), (Ok(5), Err(RecvError)));
    }

    #[test]
    fn recv_timeout_expires_with_nothing_sent() {
        let (tx, rx) = channel::<u32>();
        let start = Instant::now();
        let timeout = Duration::from_millis(30);
        assert_eq!(rx.recv_timeout(timeout), Err(RecvTimeoutError::Timeout));
        assert!(start.elapsed() >= timeout);
        tx.send(4).unwrap();
        assert_eq!(rx.recv_timeout(timeout), Ok(4), "usable afterwards");
    }

    /// A lost wake-up leaves both threads blocked in `recv`; the watchdog
    /// turns that hang into a failure.
    #[test]
    fn a_ping_pong_of_blocking_round_trips_loses_no_wake_up() {
        const ROUND_TRIPS: u64 = 100_000;
        let (ping_tx, ping_rx) = channel::<u64>();
        let (pong_tx, pong_rx) = channel::<u64>();
        let (done_tx, done_rx) = channel::<u64>();
        let echo = thread::spawn(move || {
            while let Ok(n) = ping_rx.recv() {
                pong_tx.send(n).unwrap();
            }
        });
        let pinger = thread::spawn(move || {
            for n in 0..ROUND_TRIPS {
                ping_tx.send(n).unwrap();
                assert_eq!(pong_rx.recv(), Ok(n));
            }
            done_tx.send(ROUND_TRIPS).unwrap();
        });
        assert_eq!(
            done_rx.recv_timeout(Duration::from_secs(120)),
            Ok(ROUND_TRIPS),
            "a wake-up was lost: the round trips stalled"
        );
        pinger.join().unwrap();
        echo.join().unwrap();
    }
}
