//! The read path. [`Published<T>`] holds the current epoch's value in an
//! `RwLock<Arc<T>>`: a [`Published::load`] holds the shared lock for one
//! `Arc` clone, and the single writer (by ownership in `engine.rs`) swaps
//! in the next value with [`Published::publish`].

use std::sync::atomic::{AtomicU64, Ordering::SeqCst};
use std::sync::{Arc, PoisonError, RwLock};

use api::{Request, Response};

use crate::engine::EpochState;

/// One published `Arc<T>` and the count of publications so far. Neither
/// critical section can panic, so a poisoned lock still holds a value.
pub struct Published<T> {
    current: RwLock<Arc<T>>,
    epoch: AtomicU64,
}

impl<T> Published<T> {
    /// Publish `initial` as epoch 0. The reader count is ignored: kept
    /// for `sdqbench`; the next harness PR drops it.
    pub fn new(initial: Arc<T>, _readers: usize) -> Published<T> {
        let (current, epoch) = (RwLock::new(initial), AtomicU64::new(0));
        Published { current, epoch }
    }

    /// `Some(0)`: kept for `sdqbench`; the next harness PR drops it.
    pub fn register(&self) -> Option<usize> {
        Some(0)
    }

    /// A no-op: kept for `sdqbench`; the next harness PR drops it.
    pub fn release(&self, _slot: usize) {}

    /// The current publication epoch.
    pub fn epoch(&self) -> u64 {
        self.epoch.load(SeqCst)
    }

    /// The current value. The slot is ignored: kept for `sdqbench`; the
    /// next harness PR drops it.
    pub fn load(&self, _slot: usize) -> Arc<T> {
        Arc::clone(&self.current.read().unwrap_or_else(PoisonError::into_inner))
    }

    /// Swap in `next` and bump the epoch. Returns the new epoch, the old
    /// one (kept for `sdqbench`; the next harness PR drops it) and the
    /// replaced value, which the caller drops after the lock is released.
    pub fn publish(&self, next: Arc<T>) -> (u64, u64, Arc<T>) {
        let mut current = self.current.write().unwrap_or_else(PoisonError::into_inner);
        let old = std::mem::replace(&mut *current, next);
        let tag = self.epoch.fetch_add(1, SeqCst);
        (tag + 1, tag, old)
    }
}

/// Serve a read-only request from a published [`EpochState`]: a clone of
/// a response the writer prepared at publish time. `None` for mutating
/// requests and for `Metrics` / `Trace`, which the engine answers from the
/// live `obs` registry.
pub fn serve_read(state: &EpochState, request: &Request) -> Option<Response> {
    match request {
        Request::Detect => Some(state.detect.clone()),
        Request::Audit => Some(state.audit.clone()),
        Request::LastReport => Some(match &state.last_report {
            Some(summary) => Response::Report(summary.clone()),
            None => Response::NoReport,
        }),
        Request::Len => Some(Response::Len { rows: state.len }),
        Request::Capabilities => Some(Response::Caps(state.caps.clone())),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicBool, AtomicUsize};

    /// Live `Tracked` values: a leak or a double free shows here.
    static LIVE: AtomicUsize = AtomicUsize::new(0);

    struct Tracked;

    impl Drop for Tracked {
        fn drop(&mut self) {
            LIVE.fetch_sub(1, SeqCst);
        }
    }

    fn tracked() -> Arc<Tracked> {
        LIVE.fetch_add(1, SeqCst);
        Arc::new(Tracked)
    }

    #[test]
    fn publish_load_churn_neither_leaks_nor_double_frees() {
        let published = Published::new(tracked(), 0);
        let (stop, loads) = (AtomicBool::new(false), AtomicUsize::new(0));
        std::thread::scope(|s| {
            for _ in 0..4 {
                s.spawn(|| {
                    while !stop.load(SeqCst) {
                        drop(published.load(0));
                        assert!(LIVE.load(SeqCst) >= 1);
                        loads.fetch_add(1, SeqCst);
                    }
                });
            }
            // Churn until the readers overlapped real publishes (on one
            // core they may not run until the writer yields).
            let mut publishes = 0;
            while publishes < 2_000 || loads.load(SeqCst) < 32 {
                drop(published.publish(tracked()));
                publishes += 1;
                if publishes >= 2_000 {
                    std::thread::yield_now();
                }
            }
            stop.store(true, SeqCst);
            assert_eq!(published.epoch(), publishes);
        });
        assert_eq!(LIVE.load(SeqCst), 1, "only the current value is live");
        drop(published);
        assert_eq!(LIVE.load(SeqCst), 0);
    }
}
