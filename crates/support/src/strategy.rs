//! Composable value generators for the property-testing harness.
//!
//! A [`Strategy`] turns draws from a [`TestRng`] into a value. The API
//! is deliberately shaped like the external `proptest` crate's strategy
//! layer — `any::<T>()`, integer ranges, tuples, [`Strategy::prop_map`],
//! `prop_oneof!`, `Just`, and `collection::vec` — so the workspace's
//! property tests ported mechanically when the external dependency was
//! removed (see `DESIGN.md`, "Hermetic dependencies").
//!
//! Unlike `proptest`, shrinking is not implemented per-strategy: the
//! runner in [`crate::pt`] shrinks the underlying *choice stream* (the
//! sequence of 64-bit draws) and replays it through the same strategy,
//! in the style of Hypothesis' internal reduction. Strategies therefore
//! only need to be monotone-ish: smaller draws should map to simpler
//! values, which every combinator here guarantees.

use crate::pt::TestRng;
use crate::rng::{RangeSample, Rng};
use std::marker::PhantomData;
use std::ops::Range;

/// A recipe for generating values of type [`Strategy::Value`] from a
/// replayable stream of random draws.
pub trait Strategy {
    /// The type of generated values.
    type Value;

    /// Produces one value, consuming draws from `rng`.
    fn generate(&self, rng: &mut TestRng) -> Self::Value;

    /// Maps generated values through `f`.
    fn prop_map<U, F>(self, f: F) -> Map<Self, F>
    where
        Self: Sized,
        F: Fn(Self::Value) -> U,
    {
        Map { inner: self, f }
    }

    /// Type-erases the strategy (needed by `prop_oneof!`, whose arms
    /// have distinct concrete types).
    fn boxed(self) -> BoxedStrategy<Self::Value>
    where
        Self: Sized + 'static,
    {
        BoxedStrategy(Box::new(self))
    }
}

/// A heap-allocated, type-erased strategy.
pub struct BoxedStrategy<T>(Box<dyn Strategy<Value = T>>);

impl<T> Strategy for BoxedStrategy<T> {
    type Value = T;
    fn generate(&self, rng: &mut TestRng) -> T {
        self.0.generate(rng)
    }
}

/// Strategy that always yields a clone of a fixed value.
#[derive(Debug, Clone)]
pub struct Just<T: Clone>(pub T);

impl<T: Clone> Strategy for Just<T> {
    type Value = T;
    fn generate(&self, _rng: &mut TestRng) -> T {
        self.0.clone()
    }
}

/// See [`Strategy::prop_map`].
pub struct Map<S, F> {
    inner: S,
    f: F,
}

impl<S, F, U> Strategy for Map<S, F>
where
    S: Strategy,
    F: Fn(S::Value) -> U,
{
    type Value = U;
    fn generate(&self, rng: &mut TestRng) -> U {
        (self.f)(self.inner.generate(rng))
    }
}

/// Uniform choice between alternatives (the engine behind
/// `prop_oneof!`). A zero draw selects the first arm, so strategies
/// shrink toward their first alternative.
pub struct Union<T> {
    options: Vec<BoxedStrategy<T>>,
}

impl<T> Union<T> {
    /// Builds a union from the given alternatives.
    ///
    /// # Panics
    ///
    /// Panics if `options` is empty.
    pub fn new(options: Vec<BoxedStrategy<T>>) -> Union<T> {
        assert!(!options.is_empty(), "prop_oneof! needs at least one arm");
        Union { options }
    }
}

impl<T> Strategy for Union<T> {
    type Value = T;
    fn generate(&self, rng: &mut TestRng) -> T {
        let idx = rng.gen_range(0..self.options.len());
        self.options[idx].generate(rng)
    }
}

/// Types with a canonical "anything goes" strategy, used by
/// [`any`]`::<T>()`.
pub trait Arbitrary {
    /// Produces an arbitrary value of `Self` from raw draws.
    fn arbitrary(rng: &mut TestRng) -> Self;
}

macro_rules! impl_arbitrary_int {
    ($($t:ty),*) => {$(
        impl Arbitrary for $t {
            fn arbitrary(rng: &mut TestRng) -> $t {
                rng.next_u64() as $t
            }
        }
    )*};
}

impl_arbitrary_int!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

impl Arbitrary for bool {
    fn arbitrary(rng: &mut TestRng) -> bool {
        rng.next_u64() & 1 == 1
    }
}

/// See [`any`].
pub struct Any<T>(PhantomData<fn() -> T>);

impl<T: Arbitrary> Strategy for Any<T> {
    type Value = T;
    fn generate(&self, rng: &mut TestRng) -> T {
        T::arbitrary(rng)
    }
}

/// The strategy generating arbitrary values of `T` — zero draws map to
/// the all-zero value, so `any::<T>()` shrinks toward `0`/`false`.
pub fn any<T: Arbitrary>() -> Any<T> {
    Any(PhantomData)
}

/// Integer ranges are strategies: `0u8..32` generates uniformly within
/// the half-open range and shrinks toward the range start.
impl<T: RangeSample> Strategy for Range<T> {
    type Value = T;
    fn generate(&self, rng: &mut TestRng) -> T {
        rng.gen_range(self.start..self.end)
    }
}

macro_rules! impl_tuple_strategy {
    ($($name:ident),+) => {
        impl<$($name: Strategy),+> Strategy for ($($name,)+) {
            type Value = ($($name::Value,)+);
            #[allow(non_snake_case)]
            fn generate(&self, rng: &mut TestRng) -> Self::Value {
                let ($($name,)+) = self;
                ($($name.generate(rng),)+)
            }
        }
    };
}

impl_tuple_strategy!(A);
impl_tuple_strategy!(A, B);
impl_tuple_strategy!(A, B, C);
impl_tuple_strategy!(A, B, C, D);
impl_tuple_strategy!(A, B, C, D, E);
impl_tuple_strategy!(A, B, C, D, E, F);

/// Collection strategies (`collection::vec`), mirroring
/// `proptest::collection`.
pub mod collection {
    use super::*;

    /// See [`vec`](fn@vec).
    pub struct VecStrategy<S> {
        elem: S,
        len: Range<usize>,
    }

    /// A `Vec` whose length is drawn from `len` and whose elements come
    /// from `elem`. The length draw comes first, so stream shrinking
    /// naturally shortens the vector.
    pub fn vec<S: Strategy>(elem: S, len: Range<usize>) -> VecStrategy<S> {
        VecStrategy { elem, len }
    }

    impl<S: Strategy> Strategy for VecStrategy<S> {
        type Value = Vec<S::Value>;
        fn generate(&self, rng: &mut TestRng) -> Vec<S::Value> {
            let n = rng.gen_range(self.len.start..self.len.end);
            (0..n).map(|_| self.elem.generate(rng)).collect()
        }
    }
}

/// Uniform choice among the arms, all yielding the same value type.
/// Shrinks toward the **first** arm — put the simplest case first.
#[macro_export]
macro_rules! prop_oneof {
    ($($arm:expr),+ $(,)?) => {
        $crate::strategy::Union::new(vec![
            $($crate::strategy::Strategy::boxed($arm)),+
        ])
    };
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pt::TestRng;

    #[test]
    fn range_strategy_in_bounds() {
        let mut rng = TestRng::fresh(1);
        for _ in 0..500 {
            let v = (5u32..9).generate(&mut rng);
            assert!((5..9).contains(&v));
        }
    }

    #[test]
    fn zero_stream_yields_minimal_values() {
        // Replaying an empty stream pads with zero draws: every
        // combinator must bottom out at its simplest value.
        let mut rng = TestRng::replay(Vec::new());
        assert_eq!((3u8..10).generate(&mut rng), 3);
        assert_eq!(any::<u32>().generate(&mut rng), 0);
        assert!(!any::<bool>().generate(&mut rng));
        let s = prop_oneof![Just(7u8), (1u8..5).prop_map(|x| x + 100)];
        assert_eq!(s.generate(&mut rng), 7, "union shrinks to first arm");
        let v = collection::vec(any::<u8>(), 0..10).generate(&mut rng);
        assert!(v.is_empty(), "vec shrinks to minimum length");
    }

    #[test]
    fn map_and_tuples_compose() {
        let mut rng = TestRng::fresh(3);
        let s = (0u8..4, any::<bool>(), 0u16..100).prop_map(|(a, b, c)| (a as u32, b, c));
        for _ in 0..100 {
            let (a, _b, c) = s.generate(&mut rng);
            assert!(a < 4);
            assert!(c < 100);
        }
    }

    #[test]
    fn generation_is_deterministic_per_seed() {
        let s = collection::vec((any::<u8>(), 0u32..1000), 0..20);
        let a = s.generate(&mut TestRng::fresh(99));
        let b = s.generate(&mut TestRng::fresh(99));
        let c = s.generate(&mut TestRng::fresh(100));
        assert_eq!(a, b);
        assert_ne!(a, c, "different seeds agreed (astronomically unlikely)");
    }
}
