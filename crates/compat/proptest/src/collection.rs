//! Collection strategies: `collection::vec(element, size)`.

use std::ops::{Range, RangeInclusive};

use crate::strategy::Strategy;
use crate::test_runner::TestRng;

/// A length specification: exact, half-open, or inclusive.
#[derive(Debug, Clone, Copy)]
pub struct SizeRange {
    lo: usize,
    hi: usize, // inclusive
}

impl From<usize> for SizeRange {
    fn from(n: usize) -> SizeRange {
        SizeRange { lo: n, hi: n }
    }
}

impl From<Range<usize>> for SizeRange {
    fn from(r: Range<usize>) -> SizeRange {
        assert!(r.start < r.end, "empty size range");
        SizeRange {
            lo: r.start,
            hi: r.end - 1,
        }
    }
}

impl From<RangeInclusive<usize>> for SizeRange {
    fn from(r: RangeInclusive<usize>) -> SizeRange {
        assert!(r.start() <= r.end(), "empty size range");
        SizeRange {
            lo: *r.start(),
            hi: *r.end(),
        }
    }
}

/// Strategy for `Vec<S::Value>` with a length drawn from `size`.
pub fn vec<S: Strategy>(element: S, size: impl Into<SizeRange>) -> VecStrategy<S> {
    VecStrategy {
        element,
        size: size.into(),
    }
}

/// The strategy returned by [`vec()`].
pub struct VecStrategy<S> {
    element: S,
    size: SizeRange,
}

impl<S: Strategy> Strategy for VecStrategy<S> {
    type Value = Vec<S::Value>;

    fn generate(&self, rng: &mut TestRng) -> Vec<S::Value> {
        let span = (self.size.hi - self.size.lo + 1) as u64;
        let len = self.size.lo + (rng.next_u64() % span) as usize;
        (0..len).map(|_| self.element.generate(rng)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn length_specs() {
        let mut rng = TestRng::from_name("vec");
        for _ in 0..30 {
            assert_eq!(vec(0u8..3, 4).generate(&mut rng).len(), 4);
            let open = vec(0u8..3, 1..5).generate(&mut rng).len();
            assert!((1..5).contains(&open));
            let incl = vec(0u8..3, 1..=5).generate(&mut rng).len();
            assert!((1..=5).contains(&incl));
        }
    }
}
