//! `detect_morsels_total` is a process-global counter, and the pool's own
//! unit tests dispatch morsels on parallel test threads. This test is
//! alone in its binary, so its own run is the only thing that can move
//! the counter.

use colstore::morsel::run_morsels;

#[test]
fn morsel_counter_tracks_dispatches() {
    let c = obs::counter("detect_morsels_total");
    let before = c.get();
    run_morsels(2, 17, |i| i);
    assert_eq!(c.get() - before, 17);
}
