//! Work-stealing morsel pool for chunk-parallel scans.
//!
//! A **morsel** is one independent unit of scan work — in detection, one
//! (variable CFD × column chunk) pair; in the cluster's scatter, one
//! shard export; in repair, one candidate-cost evaluation stripe. The
//! pool runs `n` morsels over `workers` scoped threads with striped
//! work-stealing: each worker owns a contiguous stripe of morsel indexes
//! and claims them by a `fetch_add` on its stripe cursor; a worker whose
//! stripe drains steals from the other stripes by the *same* `fetch_add`
//! protocol, so every index is claimed exactly once without a lock or a
//! deque. Results come back positionally, so callers can merge partial
//! states in deterministic (chunk) order regardless of which worker ran
//! which morsel.
//!
//! Worker counts resolve through [`resolve_threads`]: explicit
//! configuration (`ServerConfig` / builder) beats the
//! `SDQ_DETECT_THREADS` environment variable beats the machine's
//! available parallelism. `1` means strictly serial on the caller's
//! thread — no pool, no spawn, bit-identical to the pre-pool code path.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, OnceLock};

/// Pool telemetry: morsels dispatched, per-morsel wall time, workers of
/// the most recent run, and how many morsels were claimed by stealing.
struct MorselObs {
    morsels: Arc<obs::Counter>,
    steals: Arc<obs::Counter>,
    workers: Arc<obs::Gauge>,
    morsel_ns: Arc<obs::Histogram>,
}

fn morsel_obs() -> &'static MorselObs {
    static OBS: OnceLock<MorselObs> = OnceLock::new();
    OBS.get_or_init(|| MorselObs {
        morsels: obs::counter("detect_morsels_total"),
        steals: obs::counter("detect_morsel_steals_total"),
        workers: obs::gauge("detect_workers"),
        morsel_ns: obs::histogram("detect_morsel_ns"),
    })
}

/// Resolve the worker count for a morsel run: an explicit configuration
/// wins, then a positive `SDQ_DETECT_THREADS`, then the machine's
/// available parallelism (the environment variable is read once per
/// process). Never returns 0.
pub fn resolve_threads(configured: Option<usize>) -> usize {
    if let Some(t) = configured {
        return t.max(1);
    }
    static ENV: OnceLock<Option<usize>> = OnceLock::new();
    let env = *ENV.get_or_init(|| obs::env::positive("SDQ_DETECT_THREADS"));
    env.unwrap_or_else(|| std::thread::available_parallelism().map_or(1, |p| p.get()))
}

/// Run morsels `0..n` through `f` over at most `workers` threads and
/// return the results positionally (`out[i] = f(i)`; every slot is
/// `Some` — the `Option` exists so callers can scatter without `T:
/// Default`). `workers <= 1` or `n <= 1` runs serially on the caller's
/// thread.
pub fn run_morsels<T, F>(workers: usize, n: usize, f: F) -> Vec<Option<T>>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    let o = morsel_obs();
    o.morsels.add(n as u64);
    if n == 0 {
        return Vec::new();
    }
    let workers = workers.clamp(1, n);
    o.workers.set(workers as i64);
    let timed = |i: usize| {
        let t0 = std::time::Instant::now();
        let out = f(i);
        o.morsel_ns.record(t0.elapsed().as_nanos() as u64);
        out
    };
    if workers == 1 {
        return (0..n).map(|i| Some(timed(i))).collect();
    }
    // Captured once on the dispatching thread: every pool worker installs
    // the same trace position, so spans opened inside morsels parent
    // under the caller's open span. This one seam propagates request
    // traces across every fan-out in the system — threaded detection,
    // the cluster scatter, and the repair candidate scans all ride this
    // pool. The serial path above needs nothing: it runs on the caller's
    // thread where the trace is already installed.
    let trace_ctx = obs::trace::current();

    // Striped indexes: worker `w` owns `stripes[w].0 .. stripes[w].1`.
    let stripes: Vec<(usize, usize)> = (0..workers)
        .map(|w| (w * n / workers, (w + 1) * n / workers))
        .collect();
    let cursors: Vec<AtomicUsize> = (0..workers).map(|_| AtomicUsize::new(0)).collect();
    let mut out: Vec<Option<T>> = Vec::with_capacity(n);
    out.resize_with(n, || None);
    let produced: Vec<Vec<(usize, T)>> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..workers)
            .map(|w| {
                let stripes = &stripes;
                let cursors = &cursors;
                let timed = &timed;
                let trace_ctx = &trace_ctx;
                s.spawn(move || {
                    let _trace = obs::trace::install(trace_ctx.as_ref());
                    let mut got: Vec<(usize, T)> = Vec::new();
                    // Drain the own stripe first, then sweep the victims.
                    // A cursor racing past its stripe end is harmless —
                    // each claim either lands a unique in-range index or
                    // terminates the sweep over that stripe.
                    for v in (w..workers).chain(0..w) {
                        let (start, end) = stripes[v];
                        loop {
                            let i = start + cursors[v].fetch_add(1, Ordering::Relaxed);
                            if i >= end {
                                break;
                            }
                            if v != w {
                                morsel_obs().steals.inc();
                            }
                            got.push((i, timed(i)));
                        }
                    }
                    got
                })
            })
            .collect();
        // A panicking morsel re-raises its own payload on the caller, as
        // it would on the serial path.
        handles
            .into_iter()
            .map(|h| h.join().unwrap_or_else(|e| std::panic::resume_unwind(e)))
            .collect::<Vec<_>>()
    });
    for batch in produced {
        for (i, t) in batch {
            out[i] = Some(t);
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn results_are_positional_and_complete() {
        for workers in [1usize, 2, 3, 8] {
            for n in [0usize, 1, 2, 7, 64] {
                let out = run_morsels(workers, n, |i| i * i);
                assert_eq!(out.len(), n);
                for (i, slot) in out.iter().enumerate() {
                    assert_eq!(*slot, Some(i * i), "workers={workers} n={n}");
                }
            }
        }
    }

    #[test]
    fn pool_runs_work_concurrently_against_shared_state() {
        use std::sync::atomic::AtomicU64;
        let sum = AtomicU64::new(0);
        let out = run_morsels(4, 100, |i| {
            sum.fetch_add(i as u64, Ordering::Relaxed);
            i
        });
        assert_eq!(sum.load(Ordering::Relaxed), 4950);
        assert_eq!(out.iter().flatten().count(), 100);
    }

    #[test]
    #[should_panic(expected = "morsel 5 failed")]
    fn worker_panic_reaches_the_caller() {
        run_morsels(2, 8, |i| {
            assert_ne!(i, 5, "morsel 5 failed");
            i
        });
    }

    #[test]
    fn thread_resolution_prefers_explicit_config() {
        assert_eq!(resolve_threads(Some(3)), 3);
        assert_eq!(resolve_threads(Some(0)), 1, "0 clamps to serial");
        assert!(resolve_threads(None) >= 1);
    }
}
