//! Worker-count resolution for the cluster's scatter.
//!
//! Single-node detection and repair run on the caller's thread: fanned
//! out over chunks or candidates, they lost to serial end to end on two
//! cores. The one fan-out left is the cluster scatter, which spreads its
//! shards over `min(shards, resolve_threads(None))` scoped workers.

/// Resolve a worker count: `configured` if given (clamped to ≥ 1), else
/// the machine's available parallelism. Never returns 0.
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
