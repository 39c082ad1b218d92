//! Offline drop-in subset of the `proptest` crate.
//!
//! The build environment has no registry access, so the workspace vendors
//! the slice of the proptest API its property tests use: the `proptest!`
//! macro over `arg in strategy` parameter lists, integer-range and tuple
//! strategies, `any::<bool>()`, `Strategy::prop_map`, [`Just`],
//! [`prop_oneof!`], [`collection::vec`], `ProptestConfig`, and the
//! `prop_assert*` macros.
//!
//! Semantics differ from real proptest in two deliberate ways: cases are
//! drawn from a per-test deterministic PRNG (seeded from the test name), and
//! there is **no shrinking** — a failing case panics with the generated
//! values left to the assertion message. `*.proptest-regressions` files are
//! ignored.

use std::ops::Range;

/// Per-run configuration (subset: case count only).
#[derive(Debug, Clone)]
pub struct ProptestConfig {
    /// Number of random cases each test executes.
    pub cases: u32,
}

impl Default for ProptestConfig {
    fn default() -> Self {
        ProptestConfig { cases: 256 }
    }
}

impl ProptestConfig {
    /// A config running `cases` cases.
    pub fn with_cases(cases: u32) -> ProptestConfig {
        ProptestConfig { cases }
    }
}

/// Deterministic test RNG (xoshiro256**, seeded from the test name).
#[derive(Debug, Clone)]
pub struct TestRng {
    s: [u64; 4],
}

impl TestRng {
    /// Seed from an arbitrary label (the test function name).
    pub fn deterministic(label: &str) -> TestRng {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for b in label.bytes() {
            h ^= b as u64;
            h = h.wrapping_mul(0x0000_0100_0000_01B3);
        }
        let mut sm = h;
        let mut next = move || {
            sm = sm.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = sm;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        };
        TestRng {
            s: [next(), next(), next(), next()],
        }
    }

    /// Next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        let result = self.s[1].wrapping_mul(5).rotate_left(7).wrapping_mul(9);
        let t = self.s[1] << 17;
        self.s[2] ^= self.s[0];
        self.s[3] ^= self.s[1];
        self.s[1] ^= self.s[2];
        self.s[0] ^= self.s[3];
        self.s[2] ^= t;
        self.s[3] = self.s[3].rotate_left(45);
        result
    }
}

/// A value generator. Unlike real proptest there is no shrink tree; a
/// strategy is just a deterministic sampling function.
pub trait Strategy {
    /// The generated type.
    type Value;

    /// Draw one value.
    fn generate(&self, rng: &mut TestRng) -> Self::Value;

    /// Transform generated values.
    fn prop_map<T, F: Fn(Self::Value) -> T>(self, f: F) -> Map<Self, F>
    where
        Self: Sized,
    {
        Map { inner: self, f }
    }

    /// Type-erase the strategy (used by [`prop_oneof!`] to mix arms of
    /// different concrete types).
    fn boxed(self) -> BoxedStrategy<Self::Value>
    where
        Self: Sized + 'static,
    {
        BoxedStrategy(Box::new(move |rng| self.generate(rng)))
    }
}

/// A type-erased strategy (see [`Strategy::boxed`]).
pub struct BoxedStrategy<T>(Box<dyn Fn(&mut TestRng) -> T>);

impl<T> Strategy for BoxedStrategy<T> {
    type Value = T;
    fn generate(&self, rng: &mut TestRng) -> T {
        (self.0)(rng)
    }
}

/// A strategy that always yields a clone of one value.
#[derive(Debug, Clone)]
pub struct Just<T: Clone>(pub T);

impl<T: Clone> Strategy for Just<T> {
    type Value = T;
    fn generate(&self, _rng: &mut TestRng) -> T {
        self.0.clone()
    }
}

/// A weighted union of type-erased strategies (built by [`prop_oneof!`]).
pub struct Union<T> {
    arms: Vec<(u32, BoxedStrategy<T>)>,
}

impl<T> Union<T> {
    /// Build from `(weight, strategy)` arms. Weights must not all be zero.
    pub fn new(arms: Vec<(u32, BoxedStrategy<T>)>) -> Union<T> {
        assert!(arms.iter().any(|&(w, _)| w > 0), "all-zero union weights");
        Union { arms }
    }
}

impl<T> Strategy for Union<T> {
    type Value = T;
    fn generate(&self, rng: &mut TestRng) -> T {
        let total: u64 = self.arms.iter().map(|&(w, _)| u64::from(w)).sum();
        let mut pick = rng.next_u64() % total;
        for (w, s) in &self.arms {
            let w = u64::from(*w);
            if pick < w {
                return s.generate(rng);
            }
            pick -= w;
        }
        unreachable!("weights sum to total")
    }
}

/// Weighted choice between strategies: `prop_oneof![2 => a, 1 => b]`, or
/// unweighted `prop_oneof![a, b]`. All arms must generate the same type.
#[macro_export]
macro_rules! prop_oneof {
    ($($weight:expr => $strat:expr),+ $(,)?) => {
        $crate::Union::new(vec![$(($weight as u32, $crate::Strategy::boxed($strat))),+])
    };
    ($($strat:expr),+ $(,)?) => {
        $crate::Union::new(vec![$((1u32, $crate::Strategy::boxed($strat))),+])
    };
}

/// Collection strategies (subset: `vec`).
pub mod collection {
    use super::{Strategy, TestRng};
    use std::ops::Range;

    /// The strategy returned by [`vec()`].
    pub struct VecStrategy<S> {
        elem: S,
        len: Range<usize>,
    }

    /// A `Vec` of `elem`-generated values with a length drawn from `len`.
    pub fn vec<S: Strategy>(elem: S, len: Range<usize>) -> VecStrategy<S> {
        assert!(len.start < len.end, "empty vec length range");
        VecStrategy { elem, len }
    }

    impl<S: Strategy> Strategy for VecStrategy<S> {
        type Value = Vec<S::Value>;
        fn generate(&self, rng: &mut TestRng) -> Vec<S::Value> {
            let span = (self.len.end - self.len.start) as u64;
            let n = self.len.start + (rng.next_u64() % span) as usize;
            (0..n).map(|_| self.elem.generate(rng)).collect()
        }
    }
}

/// The strategy returned by [`Strategy::prop_map`].
pub struct Map<S, F> {
    inner: S,
    f: F,
}

impl<S: Strategy, T, F: Fn(S::Value) -> T> Strategy for Map<S, F> {
    type Value = T;
    fn generate(&self, rng: &mut TestRng) -> T {
        (self.f)(self.inner.generate(rng))
    }
}

macro_rules! impl_range_strategy {
    ($($t:ty),*) => {$(
        impl Strategy for Range<$t> {
            type Value = $t;
            fn generate(&self, rng: &mut TestRng) -> $t {
                assert!(self.start < self.end, "empty strategy range");
                let span = (self.end as i128 - self.start as i128) as u64;
                (self.start as i128 + (rng.next_u64() % span) as i128) as $t
            }
        }
    )*};
}

impl_range_strategy!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

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

/// Types with a canonical "any value" strategy (subset: `bool`).
pub trait Arbitrary: Sized {
    /// Draw an arbitrary value.
    fn arbitrary(rng: &mut TestRng) -> Self;
}

impl Arbitrary for bool {
    fn arbitrary(rng: &mut TestRng) -> bool {
        rng.next_u64() & 1 == 1
    }
}

impl Arbitrary for u8 {
    fn arbitrary(rng: &mut TestRng) -> u8 {
        rng.next_u64() as u8
    }
}

impl Arbitrary for u32 {
    fn arbitrary(rng: &mut TestRng) -> u32 {
        rng.next_u64() as u32
    }
}

impl Arbitrary for u64 {
    fn arbitrary(rng: &mut TestRng) -> u64 {
        rng.next_u64()
    }
}

/// The strategy returned by [`any`].
pub struct Any<T> {
    _marker: std::marker::PhantomData<T>,
}

impl<T: Arbitrary> Strategy for Any<T> {
    type Value = T;
    fn generate(&self, rng: &mut TestRng) -> T {
        T::arbitrary(rng)
    }
}

/// The canonical strategy for `T` (`any::<bool>()` etc.).
pub fn any<T: Arbitrary>() -> Any<T> {
    Any {
        _marker: std::marker::PhantomData,
    }
}

/// Everything the tests import.
pub mod prelude {
    pub use crate::{
        any, prop_assert, prop_assert_eq, prop_assert_ne, prop_oneof, proptest, Any, Arbitrary,
        BoxedStrategy, Just, ProptestConfig, Strategy, TestRng, Union,
    };
}

/// Property-test harness macro: expands each `fn name(arg in strategy, ..)`
/// into a plain `#[test]` that loops `config.cases` times over freshly
/// generated inputs.
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($cfg:expr)] $($rest:tt)*) => {
        $crate::__proptest_fns! { $cfg; $($rest)* }
    };
    ($($rest:tt)*) => {
        $crate::__proptest_fns! { $crate::ProptestConfig::default(); $($rest)* }
    };
}

/// Internal expansion helper for [`proptest!`].
#[doc(hidden)]
#[macro_export]
macro_rules! __proptest_fns {
    ($cfg:expr; $(
        $(#[$meta:meta])*
        fn $name:ident( $($arg:ident in $strat:expr),+ $(,)? ) $body:block
    )*) => {
        $(
            $(#[$meta])*
            fn $name() {
                let __cfg: $crate::ProptestConfig = $cfg;
                let mut __rng = $crate::TestRng::deterministic(stringify!($name));
                for __case in 0..__cfg.cases {
                    let _ = __case;
                    $(let $arg = $crate::Strategy::generate(&($strat), &mut __rng);)+
                    $body
                }
            }
        )*
    };
}

/// Assert within a property body (no shrinking: plain `assert!`).
#[macro_export]
macro_rules! prop_assert {
    ($($tt:tt)*) => { assert!($($tt)*) };
}

/// Assert equality within a property body.
#[macro_export]
macro_rules! prop_assert_eq {
    ($($tt:tt)*) => { assert_eq!($($tt)*) };
}

/// Assert inequality within a property body.
#[macro_export]
macro_rules! prop_assert_ne {
    ($($tt:tt)*) => { assert_ne!($($tt)*) };
}

#[cfg(test)]
mod tests {
    use crate::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        #[test]
        fn ranges_in_bounds(x in 0u32..10, y in -5i64..5) {
            prop_assert!(x < 10);
            prop_assert!((-5..5).contains(&y));
        }

        #[test]
        fn tuples_and_map(v in (0usize..4, any::<bool>()).prop_map(|(n, b)| if b { n } else { 0 })) {
            prop_assert!(v < 4);
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        #[test]
        fn oneof_and_collection(v in crate::collection::vec(prop_oneof![3 => (0u8..4).prop_map(|x| x), 1 => Just(9u8)], 1..10)) {
            prop_assert!(!v.is_empty() && v.len() < 10);
            prop_assert!(v.iter().all(|&x| x < 4 || x == 9));
        }
    }

    #[test]
    fn union_respects_zero_weights() {
        let u = prop_oneof![0 => Just(1u8), 1 => Just(2u8)];
        let mut rng = TestRng::deterministic("weights");
        for _ in 0..32 {
            assert_eq!(u.generate(&mut rng), 2);
        }
    }

    #[test]
    fn deterministic_per_name() {
        let mut a = TestRng::deterministic("foo");
        let mut b = TestRng::deterministic("foo");
        assert_eq!(a.next_u64(), b.next_u64());
        let mut c = TestRng::deterministic("bar");
        assert_ne!(TestRng::deterministic("foo").next_u64(), c.next_u64());
    }
}
