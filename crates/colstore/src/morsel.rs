//! Worker-count resolution, kept for `sdqbench`; the next harness PR
//! drops it.
//!
//! Detection, repair and the cluster scatter all run on the caller's
//! thread: fanned out over chunks, candidates or shards, each lost to
//! serial end to end on two cores. No library code calls this.

/// Resolve a worker count: `configured` if given (clamped to ≥ 1), else
/// the machine's available parallelism. Never returns 0. Kept for
/// `sdqbench`; the next harness PR drops it.
pub fn resolve_threads(configured: Option<usize>) -> usize {
    configured.map_or_else(
        || std::thread::available_parallelism().map_or(1, |p| p.get()),
        |t| t.max(1),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn thread_resolution_prefers_explicit_config() {
        assert_eq!(resolve_threads(Some(3)), 3);
        assert_eq!(resolve_threads(Some(0)), 1, "0 clamps to serial");
        assert!(resolve_threads(None) >= 1);
    }
}
