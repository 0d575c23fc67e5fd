//! Offline stand-in for the `crossbeam` crate.
//!
//! Provides the slice of `crossbeam::channel` the workspace uses (the
//! pub/sub broker's subscription queues): MPMC `unbounded` channels with
//! non-blocking `send`, blocking `recv`, `try_recv`/`try_iter`, and
//! disconnection semantics.
//!
//! Implementation: one `Mutex<VecDeque>` + `Condvar` per channel — a
//! simple, correct design, not a lock-free port.

pub mod channel {
    use std::collections::VecDeque;
    use std::fmt;
    use std::sync::{Arc, Condvar, Mutex, PoisonError};

    struct State<T> {
        queue: VecDeque<T>,
        senders: usize,
        receivers: usize,
    }

    struct Shared<T> {
        state: Mutex<State<T>>,
        cv: Condvar,
    }

    impl<T> Shared<T> {
        fn lock(&self) -> std::sync::MutexGuard<'_, State<T>> {
            self.state.lock().unwrap_or_else(PoisonError::into_inner)
        }
    }

    /// Error returned by [`Sender::send`] when all receivers are gone.
    #[derive(Debug, PartialEq, Eq)]
    pub struct SendError<T>(pub T);

    impl<T> fmt::Display for SendError<T> {
        fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            write!(f, "sending on a disconnected channel")
        }
    }

    /// Error returned by [`Receiver::recv`] when the channel is empty and
    /// all senders are gone.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub struct RecvError;

    impl fmt::Display for RecvError {
        fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            write!(f, "receiving on an empty and disconnected channel")
        }
    }

    /// Error returned by [`Receiver::try_recv`].
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub enum TryRecvError {
        Empty,
        Disconnected,
    }

    impl fmt::Display for TryRecvError {
        fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            match self {
                TryRecvError::Empty => write!(f, "receiving on an empty channel"),
                TryRecvError::Disconnected => {
                    write!(f, "receiving on an empty and disconnected channel")
                }
            }
        }
    }

    /// The sending half of a channel.
    pub struct Sender<T>(Arc<Shared<T>>);

    /// The receiving half of a channel.
    pub struct Receiver<T>(Arc<Shared<T>>);

    /// Creates a channel with no capacity bound.
    pub fn unbounded<T>() -> (Sender<T>, Receiver<T>) {
        let shared = Arc::new(Shared {
            state: Mutex::new(State {
                queue: VecDeque::new(),
                senders: 1,
                receivers: 1,
            }),
            cv: Condvar::new(),
        });
        (Sender(Arc::clone(&shared)), Receiver(shared))
    }

    impl<T> Sender<T> {
        /// Queues `value`; fails only when every receiver has been dropped.
        pub fn send(&self, value: T) -> Result<(), SendError<T>> {
            let mut st = self.0.lock();
            if st.receivers == 0 {
                return Err(SendError(value));
            }
            st.queue.push_back(value);
            self.0.cv.notify_all();
            Ok(())
        }
    }

    impl<T> Clone for Sender<T> {
        fn clone(&self) -> Self {
            self.0.lock().senders += 1;
            Sender(Arc::clone(&self.0))
        }
    }

    impl<T> Drop for Sender<T> {
        fn drop(&mut self) {
            let mut st = self.0.lock();
            st.senders -= 1;
            if st.senders == 0 {
                self.0.cv.notify_all();
            }
        }
    }

    impl<T> Receiver<T> {
        /// Blocking receive; fails when the channel is empty and every
        /// sender has been dropped.
        pub fn recv(&self) -> Result<T, RecvError> {
            let mut st = self.0.lock();
            loop {
                if let Some(v) = st.queue.pop_front() {
                    return Ok(v);
                }
                if st.senders == 0 {
                    return Err(RecvError);
                }
                st = self.0.cv.wait(st).unwrap_or_else(PoisonError::into_inner);
            }
        }

        /// Non-blocking receive.
        pub fn try_recv(&self) -> Result<T, TryRecvError> {
            let mut st = self.0.lock();
            if let Some(v) = st.queue.pop_front() {
                return Ok(v);
            }
            if st.senders == 0 {
                Err(TryRecvError::Disconnected)
            } else {
                Err(TryRecvError::Empty)
            }
        }

        /// Non-blocking drain: yields queued messages until the channel is
        /// empty or disconnected, never waiting.
        pub fn try_iter(&self) -> TryIter<'_, T> {
            TryIter { rx: self }
        }
    }

    /// Iterator returned by [`Receiver::try_iter`].
    pub struct TryIter<'a, T> {
        rx: &'a Receiver<T>,
    }

    impl<T> Iterator for TryIter<'_, T> {
        type Item = T;

        fn next(&mut self) -> Option<T> {
            self.rx.try_recv().ok()
        }
    }

    impl<T> Clone for Receiver<T> {
        fn clone(&self) -> Self {
            self.0.lock().receivers += 1;
            Receiver(Arc::clone(&self.0))
        }
    }

    impl<T> Drop for Receiver<T> {
        fn drop(&mut self) {
            self.0.lock().receivers -= 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::channel::*;
    use std::thread;

    #[test]
    fn send_recv_fifo() {
        let (tx, rx) = unbounded();
        for i in 0..4 {
            tx.send(i).unwrap();
        }
        assert_eq!(rx.recv().unwrap(), 0);
        assert_eq!(rx.try_recv().unwrap(), 1);
        assert_eq!(rx.try_iter().collect::<Vec<_>>(), vec![2, 3]);
    }

    #[test]
    fn disconnect_semantics() {
        let (tx, rx) = unbounded::<i32>();
        tx.send(1).unwrap();
        drop(tx);
        assert_eq!(rx.recv().unwrap(), 1);
        assert_eq!(rx.recv(), Err(RecvError));
        assert_eq!(rx.try_recv(), Err(TryRecvError::Disconnected));

        let (tx2, rx2) = unbounded::<i32>();
        assert_eq!(rx2.try_recv(), Err(TryRecvError::Empty));
        drop(rx2);
        assert!(tx2.send(9).is_err());
    }

    #[test]
    fn mpmc_many_producers_consumers() {
        let (tx, rx) = unbounded::<usize>();
        let mut handles = Vec::new();
        for p in 0..4 {
            let tx = tx.clone();
            handles.push(thread::spawn(move || {
                for i in 0..100 {
                    tx.send(p * 1000 + i).unwrap();
                }
            }));
        }
        drop(tx);
        let mut consumers = Vec::new();
        for _ in 0..2 {
            let rx = rx.clone();
            consumers.push(thread::spawn(move || {
                let mut n = 0usize;
                while rx.recv().is_ok() {
                    n += 1;
                }
                n
            }));
        }
        drop(rx);
        for h in handles {
            h.join().unwrap();
        }
        let total: usize = consumers.into_iter().map(|c| c.join().unwrap()).sum();
        assert_eq!(total, 400);
    }
}
