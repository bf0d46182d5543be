//! The writer's retire list, now empty: the writer drops a replaced
//! [`Published`] value itself. Kept for `sdqbench`; the next harness PR
//! drops it.

use std::marker::PhantomData;
use std::sync::Arc;

use crate::read::Published;

/// Kept for `sdqbench`; the next harness PR drops it.
pub struct Reclaimer<T>(PhantomData<Arc<T>>);

impl<T> Reclaimer<T> {
    /// Kept for `sdqbench`; the next harness PR drops it.
    pub fn new() -> Reclaimer<T> {
        Reclaimer(PhantomData)
    }

    /// Drops `old`: kept for `sdqbench`; the next harness PR drops it.
    pub fn retire(&mut self, _tag: u64, old: Arc<T>) {
        drop(old);
    }

    /// A no-op: kept for `sdqbench`; the next harness PR drops it.
    pub fn collect(&mut self, _published: &Published<T>) {}

    /// A no-op: kept for `sdqbench`; the next harness PR drops it.
    pub fn drain(&mut self, _published: &Published<T>) {}
}

impl<T> Default for Reclaimer<T> {
    fn default() -> Reclaimer<T> {
        Reclaimer::new()
    }
}
