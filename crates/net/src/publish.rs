//! Writer-side deferred reclamation for [`Published`] values.
//!
//! The single writer owns one [`Reclaimer`]: every pointer returned by
//! `Published::publish` goes in tagged with the epoch at which it stopped
//! being current, and is freed once no reader is pinned at or below that
//! tag. Keeping the retire list on the writer's stack (not in the shared
//! struct) is what lets the read path stay free of any synchronization
//! primitive beyond atomics.

use std::sync::Arc;

use crate::read::Published;

/// Retired `(tag, pointer)` pairs awaiting a safe free point.
pub struct Reclaimer<T> {
    retired: Vec<(u64, *const T)>,
}

impl<T> Reclaimer<T> {
    /// An empty retire list.
    pub fn new() -> Reclaimer<T> {
        Reclaimer {
            retired: Vec::new(),
        }
    }

    /// Take custody of a replaced pointer (from `Published::publish`).
    pub fn retire(&mut self, tag: u64, ptr: *const T) {
        self.retired.push((tag, ptr));
    }

    /// Free every retired pointer no pinned reader can still observe.
    pub fn collect(&mut self, published: &Published<T>) {
        let min = published.min_pinned();
        self.retired.retain(|&(tag, ptr)| {
            if tag < min {
                // SAFETY: `ptr` came from `Arc::into_raw` via `publish`,
                // is retired exactly once, and no reader holds a pin that
                // could still resolve to it (module docs in `read.rs`).
                unsafe { drop(Arc::from_raw(ptr)) };
                false
            } else {
                true
            }
        });
    }

    /// Shutdown path: spin until every retired pointer is freed. Pins are
    /// a handful of atomic ops long, so this terminates promptly; called
    /// by the writer after the job queue is drained.
    pub fn drain(&mut self, published: &Published<T>) {
        while !self.retired.is_empty() {
            self.collect(published);
            if !self.retired.is_empty() {
                std::thread::yield_now();
            }
        }
    }

    /// Retired pointers still awaiting readers (test introspection).
    pub fn pending(&self) -> usize {
        self.retired.len()
    }
}

impl<T> Default for Reclaimer<T> {
    fn default() -> Reclaimer<T> {
        Reclaimer::new()
    }
}

// The retire list is raw pointers to `Arc` payloads; moving the reclaimer
// between threads is sound whenever the payload itself is `Send + Sync`
// (same bound `Published` requires).
unsafe impl<T: Send + Sync> Send for Reclaimer<T> {}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    /// Payload counting live instances, to prove nothing leaks or
    /// double-frees under concurrent load/publish churn.
    struct Tracked(&'static AtomicUsize);

    impl Tracked {
        fn new(live: &'static AtomicUsize) -> Tracked {
            live.fetch_add(1, Ordering::SeqCst);
            Tracked(live)
        }
    }

    impl Drop for Tracked {
        fn drop(&mut self) {
            self.0.fetch_sub(1, Ordering::SeqCst);
        }
    }

    #[test]
    fn publish_load_churn_neither_leaks_nor_double_frees() {
        static LIVE: AtomicUsize = AtomicUsize::new(0);
        const READERS: usize = 4;
        const PUBLISHES: usize = 2_000;

        let published = Arc::new(Published::new(Arc::new(Tracked::new(&LIVE)), READERS));
        let stop = Arc::new(AtomicUsize::new(0));
        let loads = Arc::new(AtomicUsize::new(0));

        let readers: Vec<_> = (0..READERS)
            .map(|_| {
                let p = Arc::clone(&published);
                let stop = Arc::clone(&stop);
                let loads = Arc::clone(&loads);
                let slot = p.register().expect("slot for each reader");
                std::thread::spawn(move || {
                    while stop.load(Ordering::SeqCst) == 0 {
                        let v = p.load(slot);
                        assert!(LIVE.load(Ordering::SeqCst) >= 1);
                        drop(v);
                        loads.fetch_add(1, Ordering::SeqCst);
                    }
                    p.release(slot);
                })
            })
            .collect();

        let mut reclaimer = Reclaimer::new();
        let mut publishes = 0usize;
        // Churn until the fixed budget is spent AND readers overlapped
        // real publishes (on a single core the scheduler may not run
        // them until we yield).
        while publishes < PUBLISHES || loads.load(Ordering::SeqCst) < READERS * 8 {
            let (_, tag, old) = published.publish(Arc::new(Tracked::new(&LIVE)));
            reclaimer.retire(tag, old);
            reclaimer.collect(&published);
            publishes += 1;
            if publishes >= PUBLISHES {
                std::thread::yield_now();
            }
        }
        stop.store(1, Ordering::SeqCst);
        for r in readers {
            r.join().unwrap();
        }
        assert!(loads.load(Ordering::SeqCst) > 0, "readers made progress");
        reclaimer.drain(&published);
        assert_eq!(reclaimer.pending(), 0);
        assert_eq!(published.epoch(), publishes as u64);
        // Everything retired was freed exactly once; only the current
        // publication remains live.
        assert_eq!(LIVE.load(Ordering::SeqCst), 1);
        drop(published);
        assert_eq!(LIVE.load(Ordering::SeqCst), 0);
    }

    #[test]
    fn register_exhaustion_and_release_reuse() {
        let p: Published<u32> = Published::new(Arc::new(7), 2);
        let a = p.register().unwrap();
        let b = p.register().unwrap();
        assert_ne!(a, b);
        assert!(p.register().is_none(), "capacity is enforced");
        p.release(a);
        assert_eq!(p.register(), Some(a), "released slots are reusable");
        assert_eq!(*p.load(b), 7);
        p.release(a);
        p.release(b);
        assert!(p.no_readers());
    }
}
