#![warn(missing_docs)]
#![warn(clippy::expect_used)]
//! A deterministic, dependency-free subset of the `proptest` API.
//!
//! The real `proptest` crate cannot be fetched in offline builds, so this
//! shim reimplements exactly the surface the workspace's property tests use:
//! the [`proptest!`] macro, `prop_assert*` macros, range/tuple/collection
//! strategies, `any::<bool|u32|u64|usize>()`, `prop::sample::select`, `Just`,
//! and `.prop_map`.
//!
//! Two deliberate differences from upstream:
//!
//! 1. **Determinism**: case generation is seeded from the test's module path
//!    and name, never from OS entropy, so every run of the suite sees the
//!    same inputs — in line with the repository's determinism policy.
//! 2. **No shrinking**: a failing case panics immediately with its case
//!    index; re-running reproduces it exactly.

use std::marker::PhantomData;
use std::ops::{Range, RangeInclusive};

/// How many cases [`proptest!`] runs per property.
#[derive(Clone, Copy, Debug)]
pub struct ProptestConfig {
    /// Number of generated cases per property function.
    pub cases: u32,
}

impl ProptestConfig {
    /// A config running `cases` cases per property.
    pub fn with_cases(cases: u32) -> Self {
        ProptestConfig { cases }
    }
}

impl Default for ProptestConfig {
    fn default() -> Self {
        ProptestConfig { cases: 64 }
    }
}

/// The generator driving case construction: xoshiro256** seeded via
/// SplitMix64 from the property's name and the case index.
#[derive(Clone, Debug)]
pub struct TestRng {
    state: [u64; 4],
}

fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

impl TestRng {
    /// The generator for case `case` of the property named `name`.
    pub fn for_case(name: &str, case: u32) -> TestRng {
        let mut sm =
            fnv1a64(name.as_bytes()) ^ (u64::from(case)).wrapping_mul(0xa076_1d64_78bd_642f);
        TestRng {
            state: [
                splitmix64(&mut sm),
                splitmix64(&mut sm),
                splitmix64(&mut sm),
                splitmix64(&mut sm),
            ],
        }
    }

    /// One raw 64-bit draw.
    pub fn next_u64(&mut self) -> u64 {
        let s = &mut self.state;
        let result = s[1].wrapping_mul(5).rotate_left(7).wrapping_mul(9);
        let t = s[1] << 17;
        s[2] ^= s[0];
        s[3] ^= s[1];
        s[1] ^= s[2];
        s[0] ^= s[3];
        s[2] ^= t;
        s[3] = s[3].rotate_left(45);
        result
    }

    /// A uniform f64 in `[0, 1)`.
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / 9_007_199_254_740_992.0)
    }

    /// A uniform index in `[0, n)`; `n` must be nonzero.
    pub fn index(&mut self, n: usize) -> usize {
        assert!(n > 0, "index into empty domain");
        // Multiply-shift mapping of one draw onto [0, n).
        #[allow(clippy::cast_possible_truncation)]
        let i = ((u128::from(self.next_u64()) * n as u128) >> 64) as usize;
        i
    }
}

/// A value generator. The subset of `proptest::strategy::Strategy` the
/// workspace uses: generation plus [`Strategy::prop_map`].
pub trait Strategy {
    /// The type of generated values.
    type Value;

    /// Generate one value.
    fn generate(&self, rng: &mut TestRng) -> Self::Value;

    /// Transform generated values with `f`.
    fn prop_map<U, F>(self, f: F) -> Map<Self, F>
    where
        Self: Sized,
        F: Fn(Self::Value) -> U,
    {
        Map { inner: self, f }
    }
}

/// The [`Strategy::prop_map`] adapter.
#[derive(Clone, Debug)]
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

/// Always generates a clone of the given value.
#[derive(Clone, Debug)]
pub struct Just<T: Clone>(pub T);

impl<T: Clone> Strategy for Just<T> {
    type Value = T;
    fn generate(&self, _rng: &mut TestRng) -> T {
        self.0.clone()
    }
}

/// Types with a canonical "any value" strategy.
pub trait Arbitrary: Sized {
    /// Generate an unconstrained value.
    fn arbitrary(rng: &mut TestRng) -> Self;
}

impl Arbitrary for bool {
    fn arbitrary(rng: &mut TestRng) -> bool {
        rng.next_u64() & 1 == 1
    }
}
impl Arbitrary for u32 {
    fn arbitrary(rng: &mut TestRng) -> u32 {
        #[allow(clippy::cast_possible_truncation)]
        let v = rng.next_u64() as u32;
        v
    }
}
impl Arbitrary for u64 {
    fn arbitrary(rng: &mut TestRng) -> u64 {
        rng.next_u64()
    }
}
impl Arbitrary for usize {
    fn arbitrary(rng: &mut TestRng) -> usize {
        #[allow(clippy::cast_possible_truncation)]
        let v = rng.next_u64() as usize;
        v
    }
}

/// The `any::<T>()` strategy: unconstrained values of `T`.
pub struct Any<T>(PhantomData<T>);

/// Unconstrained values of `T`, like `proptest::arbitrary::any`.
pub fn any<T: Arbitrary>() -> Any<T> {
    Any(PhantomData)
}

impl<T: Arbitrary> Strategy for Any<T> {
    type Value = T;
    fn generate(&self, rng: &mut TestRng) -> T {
        T::arbitrary(rng)
    }
}

/// Numeric types whose ranges are strategies.
pub trait RangeValue: Copy + PartialOrd {
    /// Uniform sample from `[lo, hi)`.
    fn half_open(rng: &mut TestRng, lo: Self, hi: Self) -> Self;
    /// Uniform sample from `[lo, hi]`.
    fn closed(rng: &mut TestRng, lo: Self, hi: Self) -> Self;
}

macro_rules! impl_range_value_uint {
    ($($ty:ty),*) => {$(
        impl RangeValue for $ty {
            fn half_open(rng: &mut TestRng, lo: Self, hi: Self) -> Self {
                let span = (hi as u128) - (lo as u128);
                assert!(span > 0, "empty range");
                #[allow(clippy::cast_possible_truncation)]
                let off = ((u128::from(rng.next_u64()) * span) >> 64) as $ty;
                lo + off
            }
            fn closed(rng: &mut TestRng, lo: Self, hi: Self) -> Self {
                if lo == <$ty>::MIN && hi == <$ty>::MAX {
                    #[allow(clippy::cast_possible_truncation)]
                    return rng.next_u64() as $ty;
                }
                let span = (hi as u128) - (lo as u128) + 1;
                #[allow(clippy::cast_possible_truncation)]
                let off = ((u128::from(rng.next_u64()) * span) >> 64) as $ty;
                lo + off
            }
        }
    )*};
}
impl_range_value_uint!(u8, u16, u32, u64, usize);

macro_rules! impl_range_value_int {
    ($($ty:ty => $uty:ty),*) => {$(
        #[allow(
            clippy::cast_possible_wrap,
            reason = "two's-complement offset arithmetic: the unsigned draw wraps back into range"
        )]
        impl RangeValue for $ty {
            fn half_open(rng: &mut TestRng, lo: Self, hi: Self) -> Self {
                let span = (hi as $uty).wrapping_sub(lo as $uty);
                assert!(span > 0, "empty range");
                #[allow(clippy::cast_possible_truncation)]
                let off = ((u128::from(rng.next_u64()) * span as u128) >> 64) as $uty;
                lo.wrapping_add(off as $ty)
            }
            fn closed(rng: &mut TestRng, lo: Self, hi: Self) -> Self {
                if lo == <$ty>::MIN && hi == <$ty>::MAX {
                    #[allow(clippy::cast_possible_truncation)]
                    return rng.next_u64() as $ty;
                }
                let span = ((hi as $uty).wrapping_sub(lo as $uty)) as u128 + 1;
                #[allow(clippy::cast_possible_truncation)]
                let off = ((u128::from(rng.next_u64()) * span) >> 64) as $uty;
                lo.wrapping_add(off as $ty)
            }
        }
    )*};
}
impl_range_value_int!(i8 => u8, i16 => u16, i32 => u32, i64 => u64, isize => usize);

impl RangeValue for f64 {
    fn half_open(rng: &mut TestRng, lo: Self, hi: Self) -> Self {
        lo + (hi - lo) * rng.next_f64()
    }
    fn closed(rng: &mut TestRng, lo: Self, hi: Self) -> Self {
        lo + (hi - lo) * rng.next_f64()
    }
}

impl<T: RangeValue> Strategy for Range<T> {
    type Value = T;
    fn generate(&self, rng: &mut TestRng) -> T {
        T::half_open(rng, self.start, self.end)
    }
}

impl<T: RangeValue> Strategy for RangeInclusive<T> {
    type Value = T;
    fn generate(&self, rng: &mut TestRng) -> T {
        T::closed(rng, *self.start(), *self.end())
    }
}

macro_rules! impl_strategy_tuple {
    ($(($($name:ident),+))*) => {$(
        impl<$($name: Strategy),+> Strategy for ($($name,)+) {
            type Value = ($($name::Value,)+);
            fn generate(&self, rng: &mut TestRng) -> Self::Value {
                #[allow(non_snake_case)]
                let ($($name,)+) = self;
                ($($name.generate(rng),)+)
            }
        }
    )*};
}
impl_strategy_tuple! {
    (A)
    (A, B)
    (A, B, C)
    (A, B, C, D)
    (A, B, C, D, E)
}

/// Collection sizes: a fixed count or a (half-open / inclusive) range.
pub trait SizeRange {
    /// Draw a concrete size.
    fn pick(&self, rng: &mut TestRng) -> usize;
}
impl SizeRange for usize {
    fn pick(&self, _rng: &mut TestRng) -> usize {
        *self
    }
}
impl SizeRange for Range<usize> {
    fn pick(&self, rng: &mut TestRng) -> usize {
        usize::half_open(rng, self.start, self.end)
    }
}
impl SizeRange for RangeInclusive<usize> {
    fn pick(&self, rng: &mut TestRng) -> usize {
        usize::closed(rng, *self.start(), *self.end())
    }
}

/// `prop::collection`: vector and ordered-set strategies.
pub mod collection {
    use super::{SizeRange, Strategy, TestRng};
    use std::collections::BTreeSet;

    /// A `Vec` of `size` elements drawn from `element`.
    pub fn vec<S: Strategy, R: SizeRange>(element: S, size: R) -> VecStrategy<S, R> {
        VecStrategy { element, size }
    }

    /// Strategy returned by [`vec()`].
    pub struct VecStrategy<S, R> {
        element: S,
        size: R,
    }

    impl<S: Strategy, R: SizeRange> Strategy for VecStrategy<S, R> {
        type Value = Vec<S::Value>;
        fn generate(&self, rng: &mut TestRng) -> Vec<S::Value> {
            let n = self.size.pick(rng);
            (0..n).map(|_| self.element.generate(rng)).collect()
        }
    }

    /// A `BTreeSet` whose size lands in `size` (best-effort when the element
    /// domain is too small to reach the drawn size).
    pub fn btree_set<S, R>(element: S, size: R) -> BTreeSetStrategy<S, R>
    where
        S: Strategy,
        S::Value: Ord,
        R: SizeRange,
    {
        BTreeSetStrategy { element, size }
    }

    /// Strategy returned by [`btree_set`].
    pub struct BTreeSetStrategy<S, R> {
        element: S,
        size: R,
    }

    impl<S, R> Strategy for BTreeSetStrategy<S, R>
    where
        S: Strategy,
        S::Value: Ord,
        R: SizeRange,
    {
        type Value = BTreeSet<S::Value>;
        fn generate(&self, rng: &mut TestRng) -> BTreeSet<S::Value> {
            let target = self.size.pick(rng);
            let mut out = BTreeSet::new();
            // Bounded attempts: duplicates may keep small domains short.
            for _ in 0..(target.saturating_mul(32).max(32)) {
                if out.len() >= target {
                    break;
                }
                out.insert(self.element.generate(rng));
            }
            out
        }
    }
}

/// `prop::sample`: choosing among explicit candidates.
pub mod sample {
    use super::{Strategy, TestRng};

    /// Uniformly select one of the given candidates.
    pub fn select<T: Clone>(candidates: Vec<T>) -> Select<T> {
        assert!(!candidates.is_empty(), "select from empty candidates");
        Select { candidates }
    }

    /// Strategy returned by [`select`].
    #[derive(Clone, Debug)]
    pub struct Select<T> {
        candidates: Vec<T>,
    }

    impl<T: Clone> Strategy for Select<T> {
        type Value = T;
        fn generate(&self, rng: &mut TestRng) -> T {
            self.candidates[rng.index(self.candidates.len())].clone()
        }
    }
}

/// `prop::option`: optional values, like upstream's `proptest::option`.
pub mod option {
    use super::{Strategy, TestRng};

    /// `Some` of a value from `inner` three quarters of the time, `None`
    /// otherwise (upstream defaults to a 75% `Some` weight too).
    pub fn of<S: Strategy>(inner: S) -> OptionStrategy<S> {
        OptionStrategy { inner }
    }

    /// Strategy returned by [`of`].
    #[derive(Clone, Debug)]
    pub struct OptionStrategy<S> {
        inner: S,
    }

    impl<S: Strategy> Strategy for OptionStrategy<S> {
        type Value = Option<S::Value>;
        fn generate(&self, rng: &mut TestRng) -> Option<S::Value> {
            if rng.next_u64() & 3 == 0 {
                None
            } else {
                Some(self.inner.generate(rng))
            }
        }
    }
}

/// The `prop::` namespace mirrored from upstream.
pub mod prop {
    pub use crate::collection;
    pub use crate::option;
    pub use crate::sample;
}

/// Glue that lets `proptest!` bodies either end in `()` (plain assertions)
/// or return `Result<(), String>` (upstream's `return Ok(())` idiom).
pub trait CaseOutcome {
    /// Normalise the body's value to the closure's `Result` return type.
    fn into_case_result(self) -> Result<(), String>;
}

impl CaseOutcome for () {
    fn into_case_result(self) -> Result<(), String> {
        Ok(())
    }
}

impl CaseOutcome for Result<(), String> {
    fn into_case_result(self) -> Result<(), String> {
        self
    }
}

/// Everything the property tests import.
pub mod prelude {
    pub use crate::{
        any, prop, prop_assert, prop_assert_eq, prop_assert_ne, prop_assume, proptest, Arbitrary,
        Just, ProptestConfig, Strategy, TestRng,
    };
}

/// Assert inside a property; panics (no shrinking) with the failing message.
#[macro_export]
macro_rules! prop_assert {
    ($($args:tt)*) => { assert!($($args)*) };
}

/// Equality assertion inside a property.
#[macro_export]
macro_rules! prop_assert_eq {
    ($($args:tt)*) => { assert_eq!($($args)*) };
}

/// Inequality assertion inside a property.
#[macro_export]
macro_rules! prop_assert_ne {
    ($($args:tt)*) => { assert_ne!($($args)*) };
}

/// Skip the rest of the current case when the precondition does not hold.
/// The case body runs inside a closure, so an early `return` abandons just
/// this case (no shrinking, no rejection bookkeeping).
#[macro_export]
macro_rules! prop_assume {
    ($cond:expr) => {
        if !($cond) {
            return ::std::result::Result::Ok(());
        }
    };
    ($cond:expr, $($fmt:tt)*) => {
        if !($cond) {
            return ::std::result::Result::Ok(());
        }
    };
}

/// Define deterministic property tests.
///
/// Supports the upstream form used in this workspace:
///
/// ```ignore
/// proptest! {
///     #![proptest_config(ProptestConfig::with_cases(64))]
///
///     #[test]
///     fn my_property(x in 0u64..100, (a, b) in my_strategy()) { ... }
/// }
/// ```
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($cfg:expr)] $($rest:tt)*) => {
        $crate::proptest!(@impl $cfg; $($rest)*);
    };
    (@impl $cfg:expr; $($(#[$meta:meta])* fn $name:ident($($arg:pat_param in $strat:expr),+ $(,)?) $body:block)*) => {
        $(
            $(#[$meta])*
            fn $name() {
                let cfg: $crate::ProptestConfig = $cfg;
                for case in 0..cfg.cases {
                    let mut rng = $crate::TestRng::for_case(
                        concat!(module_path!(), "::", stringify!($name)),
                        case,
                    );
                    $(let $arg = $crate::Strategy::generate(&($strat), &mut rng);)+
                    // The body runs in a closure returning `Result<(), String>`
                    // so upstream idioms (`return Ok(())`, `prop_assume!`)
                    // type-check; `CaseOutcome` coerces both `()` and
                    // `Result` bodies.
                    let outcome = ::std::panic::catch_unwind(
                        ::std::panic::AssertUnwindSafe(
                            || -> ::std::result::Result<(), ::std::string::String> {
                                $crate::CaseOutcome::into_case_result($body)
                            },
                        ),
                    );
                    if let ::std::result::Result::Ok(::std::result::Result::Err(msg)) = &outcome {
                        ::std::panic!("property `{}` returned Err at case {}: {}", stringify!($name), case, msg);
                    }
                    if let ::std::result::Result::Err(payload) = outcome {
                        ::std::eprintln!(
                            "proptest shim: property `{}` failed at case {}/{} (deterministic; rerun reproduces it)",
                            stringify!($name), case, cfg.cases,
                        );
                        ::std::panic::resume_unwind(payload);
                    }
                }
            }
        )*
    };
    ($($rest:tt)*) => {
        $crate::proptest!(@impl $crate::ProptestConfig::default(); $($rest)*);
    };
}

#[cfg(test)]
mod tests {
    use crate::prelude::*;

    #[test]
    fn deterministic_across_runs() {
        let mut a = TestRng::for_case("x", 0);
        let mut b = TestRng::for_case("x", 0);
        assert_eq!(a.next_u64(), b.next_u64());
        let mut c = TestRng::for_case("x", 1);
        assert_ne!(TestRng::for_case("x", 0).next_u64(), c.next_u64());
    }

    #[test]
    fn strategies_cover_shapes() {
        let mut rng = TestRng::for_case("shapes", 0);
        for _ in 0..200 {
            let v = (0usize..10).generate(&mut rng);
            assert!(v < 10);
            let w = (3u64..=5).generate(&mut rng);
            assert!((3..=5).contains(&w));
            let t = (0u32..4, any::<bool>(), -2i64..3).generate(&mut rng);
            assert!(t.0 < 4 && (-2..3).contains(&t.2));
            let xs = prop::collection::vec(0u8..niche(), 1..7).generate(&mut rng);
            assert!((1..7).contains(&xs.len()));
            let set = prop::collection::btree_set(0u32..12, 1..=4).generate(&mut rng);
            assert!(!set.is_empty() && set.len() <= 4);
            let k = prop::sample::select(vec![4usize, 6, 8]).generate(&mut rng);
            assert!([4, 6, 8].contains(&k));
            let j = Just(17).generate(&mut rng);
            assert_eq!(j, 17);
            let m = (0u8..10).prop_map(|x| u32::from(x) * 2).generate(&mut rng);
            assert!(m < 20 && m % 2 == 0);
        }
    }

    fn niche() -> u8 {
        200
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(8))]

        /// The macro itself compiles with patterns, tuples and trailing commas.
        #[test]
        fn macro_smoke((a, b) in (0usize..5, 0usize..5), flip in any::<bool>(),) {
            prop_assert!(a < 5 && b < 5);
            if flip {
                prop_assert_ne!(a + 10, b);
            } else {
                prop_assert_eq!(a + b, b + a);
            }
        }
    }
}
