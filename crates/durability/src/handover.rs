//! The hand-over of a serial structure between worker threads.
//!
//! After its last unlock an attempt takes two structures no two workers
//! may touch at once: the log's core ([`crate::Wal`]) and the online
//! certifier's graph (in `slp-runtime`). Both are held for microseconds,
//! and both are wanted by every worker once per attempt, so how a worker
//! waits for one matters more than what it does under it. A
//! [`Handover`] is that wait, built once: a mutex plus a count of the
//! takers asleep on it.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Mutex, MutexGuard, TryLockError};
use std::time::Duration;

/// `try_lock` polls a taker spends before it queues on the mutex: far
/// longer than a neighbour holds the value, far shorter than a time
/// slice. A constant, not a knob (see [`Handover`] for the measurements).
const BURST: u32 = 4096;

/// How long a taker stands aside — for a queued taker, or, in the
/// certifier, for its window: long enough for the scheduler to run
/// someone else, short against anything a caller can see.
pub const NAP: Duration = Duration::from_micros(50);

/// A value behind a mutex, taken by three rules.
///
/// A taker that waits holds back the run's tail: a feeder that has not
/// fed the certifier pins its truncation watermark, so the graph grows
/// by a node per rival commit and every feed holds it longer, and an
/// appender that has not appended holds back the log's watermark. So
/// the wait must be short on every machine:
///
/// * *Poll first.* A section lasts about a microsecond (a feed; a
///   memcpy and a fold on the log, a few microseconds when it also
///   writes a checkpoint), and a poller is awake when it ends — whereas
///   a taker asleep on the unfair `Mutex` has lost the value again by
///   the time it wakes, to a rival that re-takes it at once.
/// * *Queue when the burst is spent.* By then the holder is off-CPU
///   (fewer free cores than workers) or inside a real `fsync`, and
///   polling on — even with a yield, which need not switch — burns the
///   very time slice the holder needs; asleep on the mutex, the taker is
///   woken by the release itself.
/// * *Make way for the queue.* A taker that finds one queued naps
///   ([`NAP`]) instead of taking the value, so the woken sleeper finds
///   it free.
///
/// Measured on the certifier, 10 k-job strict runs, 2 workers: a plain
/// `lock()` has taken 48 s for one run (a sleeper losing every race); an
/// endless `try_lock` + `yield_now` poll takes 3–17 s for *every* run
/// once a third busy thread shares the two cores, against 15 ms alone;
/// polling and queueing without making way still leaves a run in a
/// thousand over 0.3 s. With all three the run takes 15–18 ms on two free
/// cores and 23 ms on one or beside a busy neighbour, none of 3 000 over
/// 0.1 s.
///
/// The burst, measured on the log (`bench-report`'s `twopl_durable`,
/// two workers, two cores, k jobs/s alone / on one core / beside a busy
/// neighbour, before the log took the make-way rule): 0 polls 200 / 475
/// / 470, 32 polls 255 / 450 / 445, 128 polls 260 / 445 / 430, 512 polls
/// 340 / 460 / 430, 4096 polls 360–400 / 455 / 460. Two free cores stop
/// paying for sleeps between 512 and 4096, and the certifier wants the
/// longer burst for the same reason, so both structures take 4096.
pub struct Handover<T> {
    value: Mutex<T>,
    /// Takers asleep on `value`.
    queued: AtomicUsize,
}

impl<T> Handover<T> {
    /// `value`, free.
    pub fn new(value: T) -> Self {
        Handover {
            value: Mutex::new(value),
            queued: AtomicUsize::new(0),
        }
    }

    /// Takes the value: poll, then queue, and never overtake a queued
    /// taker. Panics if a holder panicked.
    #[inline]
    pub fn lock(&self) -> MutexGuard<'_, T> {
        let mut polls = 0;
        while polls < BURST {
            if self.queued.load(Ordering::Relaxed) > 0 {
                std::thread::sleep(NAP);
                continue;
            }
            match self.value.try_lock() {
                Ok(value) => return value,
                Err(TryLockError::WouldBlock) => std::hint::spin_loop(),
                Err(TryLockError::Poisoned(_)) => panic!("hand-over lock poisoned"),
            }
            polls += 1;
        }
        self.queued.fetch_add(1, Ordering::Relaxed);
        let value = self.value.lock().expect("hand-over lock poisoned");
        self.queued.fetch_sub(1, Ordering::Relaxed);
        value
    }

    /// Takers asleep on the value right now.
    pub fn queued(&self) -> usize {
        self.queued.load(Ordering::Relaxed)
    }

    /// The value, once no taker is left.
    pub fn into_inner(self) -> T {
        self.value.into_inner().expect("hand-over lock poisoned")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The make-way rule: once a taker has spent its polls and queued,
    /// a later arrival stands aside until the queued one has been
    /// through — it never takes the value the sleeper was just woken for.
    #[test]
    fn a_late_taker_never_overtakes_a_queued_one() {
        let handover = Handover::new(());
        let order = Mutex::new(Vec::new());
        let enter = |name: &'static str| {
            let _held = handover.lock();
            order.lock().expect("order").push(name);
        };
        std::thread::scope(|s| {
            let held = handover.value.lock().expect("value");
            s.spawn(|| enter("queued"));
            while handover.queued.load(Ordering::Relaxed) == 0 {
                std::thread::yield_now();
            }
            s.spawn(|| enter("late"));
            // Give the late arrival every chance to barge: it is polling
            // (or napping) by now, and the value is about to come free.
            std::thread::sleep(NAP * 20);
            drop(held);
        });
        assert_eq!(*order.lock().expect("order"), ["queued", "late"]);
        assert_eq!(handover.queued.load(Ordering::Relaxed), 0);
    }
}
