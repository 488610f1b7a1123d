//! Offline stand-in for `proptest`.
//!
//! Supports the subset this workspace's property tests use: range and `any::<T>()`
//! strategies, tuples of strategies, `prop_map`, `Just`, `prop_oneof!`,
//! `proptest::collection::vec`, per-block `ProptestConfig { cases, .. }`, and the `proptest!`
//! macro with `pattern in strategy` arguments.
//!
//! Differences from upstream: cases are generated from a deterministic per-test seed (derived
//! from the test name, overridable with `PROPTEST_SEED`) and failing cases are **not shrunk** —
//! the panic message carries the test name, case number, and seed so a failure can be replayed
//! exactly.  `PROPTEST_CASES` overrides the per-run case count.

#![forbid(unsafe_code)]

use rand::rngs::StdRng;
pub use rand::SeedableRng;

/// Run-time configuration of one `proptest!` block.
#[derive(Clone, Copy, Debug)]
pub struct ProptestConfig {
    /// Number of random cases to run per test.
    pub cases: u32,
    /// Accepted for upstream compatibility; the shim never shrinks.
    pub max_shrink_iters: u32,
}

impl Default for ProptestConfig {
    fn default() -> Self {
        ProptestConfig { cases: 64, max_shrink_iters: 0 }
    }
}

impl ProptestConfig {
    /// The effective case count: the config's, unless `PROPTEST_CASES` overrides it.
    pub fn effective_cases(&self) -> u32 {
        std::env::var("PROPTEST_CASES").ok().and_then(|s| s.parse().ok()).unwrap_or(self.cases)
    }
}

/// A generator of random values (no shrinking in the shim).
pub trait Strategy {
    /// The generated type.
    type Value;

    /// Generates one value.
    fn generate(&self, rng: &mut StdRng) -> Self::Value;

    /// Maps the generated value through `f`.
    fn prop_map<O, F: Fn(Self::Value) -> O>(self, f: F) -> Map<Self, F>
    where
        Self: Sized,
    {
        Map { inner: self, f }
    }

    /// Type-erases the strategy (used by `prop_oneof!` to mix heterogeneous arms).
    fn boxed(self) -> BoxedStrategy<Self::Value>
    where
        Self: Sized + 'static,
    {
        boxed_arm(self)
    }
}

/// A type-erased strategy handle.
pub struct BoxedStrategy<T> {
    generate: Box<dyn Fn(&mut StdRng) -> T>,
}

/// Type-erases one strategy (the helper behind `prop_oneof!` arms).
pub fn boxed_arm<S: Strategy + 'static>(strategy: S) -> BoxedStrategy<S::Value> {
    BoxedStrategy { generate: Box::new(move |rng| strategy.generate(rng)) }
}

impl<T> Strategy for BoxedStrategy<T> {
    type Value = T;

    fn generate(&self, rng: &mut StdRng) -> T {
        (self.generate)(rng)
    }
}

/// The strategy returned by [`Strategy::prop_map`].
pub struct Map<S, F> {
    inner: S,
    f: F,
}

impl<S: Strategy, O, F: Fn(S::Value) -> O> Strategy for Map<S, F> {
    type Value = O;

    fn generate(&self, rng: &mut StdRng) -> O {
        (self.f)(self.inner.generate(rng))
    }
}

/// A strategy producing one fixed value.
#[derive(Clone, Copy, Debug)]
pub struct Just<T: Clone>(pub T);

impl<T: Clone> Strategy for Just<T> {
    type Value = T;

    fn generate(&self, _rng: &mut StdRng) -> T {
        self.0.clone()
    }
}

/// Types with a full-domain default strategy (`any::<T>()`).
pub trait Arbitrary: Sized {
    /// Generates one arbitrary value.
    fn arbitrary(rng: &mut StdRng) -> Self;
}

macro_rules! impl_arbitrary_via_standard {
    ($($t:ty),*) => {$(
        impl Arbitrary for $t {
            fn arbitrary(rng: &mut StdRng) -> $t {
                rand::Rng::gen(rng)
            }
        }
    )*};
}

impl_arbitrary_via_standard!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize, bool, f64);

/// The strategy behind [`any`].
#[derive(Clone, Copy, Debug, Default)]
pub struct Any<T> {
    _marker: std::marker::PhantomData<T>,
}

impl<T: Arbitrary> Strategy for Any<T> {
    type Value = T;

    fn generate(&self, rng: &mut StdRng) -> T {
        T::arbitrary(rng)
    }
}

/// The full-domain strategy of `T`.
pub fn any<T: Arbitrary>() -> Any<T> {
    Any { _marker: std::marker::PhantomData }
}

macro_rules! impl_range_strategy {
    ($($t:ty),*) => {$(
        impl Strategy for std::ops::Range<$t> {
            type Value = $t;

            fn generate(&self, rng: &mut StdRng) -> $t {
                rand::Rng::gen_range(rng, self.clone())
            }
        }

        impl Strategy for std::ops::RangeInclusive<$t> {
            type Value = $t;

            fn generate(&self, rng: &mut StdRng) -> $t {
                rand::Rng::gen_range(rng, self.clone())
            }
        }
    )*};
}

impl_range_strategy!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize, f64);

macro_rules! impl_tuple_strategy {
    ($(($($n:tt $s:ident),+))*) => {$(
        impl<$($s: Strategy),+> Strategy for ($($s,)+) {
            type Value = ($($s::Value,)+);

            fn generate(&self, rng: &mut StdRng) -> Self::Value {
                ($(self.$n.generate(rng),)+)
            }
        }
    )*};
}

impl_tuple_strategy! {
    (0 A)
    (0 A, 1 B)
    (0 A, 1 B, 2 C)
    (0 A, 1 B, 2 C, 3 D)
    (0 A, 1 B, 2 C, 3 D, 4 E)
}

/// Collection strategies.
pub mod collection {
    use super::Strategy;
    use rand::rngs::StdRng;

    /// A strategy for `Vec<T>` with a length drawn from `len` and elements from `element`.
    pub fn vec<S: Strategy>(element: S, len: impl SizeRange) -> VecStrategy<S> {
        let (min, max) = len.bounds();
        VecStrategy { element, min, max }
    }

    /// Length specifications accepted by [`vec()`].
    pub trait SizeRange {
        /// Inclusive length bounds.
        fn bounds(&self) -> (usize, usize);
    }

    impl SizeRange for std::ops::Range<usize> {
        fn bounds(&self) -> (usize, usize) {
            assert!(self.start < self.end, "empty vec length range");
            (self.start, self.end - 1)
        }
    }

    impl SizeRange for std::ops::RangeInclusive<usize> {
        fn bounds(&self) -> (usize, usize) {
            (*self.start(), *self.end())
        }
    }

    impl SizeRange for usize {
        fn bounds(&self) -> (usize, usize) {
            (*self, *self)
        }
    }

    /// The strategy returned by [`vec()`].
    pub struct VecStrategy<S> {
        element: S,
        min: usize,
        max: usize,
    }

    impl<S: Strategy> Strategy for VecStrategy<S> {
        type Value = Vec<S::Value>;

        fn generate(&self, rng: &mut StdRng) -> Vec<S::Value> {
            let len = rand::Rng::gen_range(rng, self.min..=self.max);
            (0..len).map(|_| self.element.generate(rng)).collect()
        }
    }
}

/// The common imports, mirroring `proptest::prelude::*`.
pub mod prelude {
    pub use crate::collection;
    pub use crate::{
        any, prop_assert, prop_assert_eq, prop_assert_ne, prop_oneof, proptest, Any, BoxedStrategy,
        Just, ProptestConfig, Strategy,
    };
}

/// Derives a stable 64-bit seed from a test name.
pub fn seed_for(name: &str) -> u64 {
    if let Ok(seed) = std::env::var("PROPTEST_SEED") {
        if let Ok(seed) = seed.parse() {
            return seed;
        }
    }
    // FNV-1a, good enough to decorrelate test names.
    let mut hash: u64 = 0xcbf29ce484222325;
    for b in name.bytes() {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x100000001b3);
    }
    hash
}

/// Uniformly picks one of several boxed strategies.
pub struct OneOf<T> {
    /// The candidate strategies.
    pub options: Vec<BoxedStrategy<T>>,
}

impl<T> Strategy for OneOf<T> {
    type Value = T;

    fn generate(&self, rng: &mut StdRng) -> T {
        assert!(!self.options.is_empty(), "prop_oneof! needs at least one arm");
        let idx = rand::Rng::gen_range(rng, 0..self.options.len());
        self.options[idx].generate(rng)
    }
}

/// Uniform choice among heterogeneous strategies of a common value type.
#[macro_export]
macro_rules! prop_oneof {
    ($($strategy:expr),+ $(,)?) => {
        $crate::OneOf { options: vec![$($crate::boxed_arm($strategy)),+] }
    };
}

/// Asserts inside a `proptest!` body (the shim simply panics; no shrinking).
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr) => {
        assert!($cond);
    };
    ($cond:expr, $($fmt:tt)*) => {
        assert!($cond, $($fmt)*);
    };
}

/// Equality assertion inside a `proptest!` body.
#[macro_export]
macro_rules! prop_assert_eq {
    ($left:expr, $right:expr $(,)?) => {
        assert_eq!($left, $right);
    };
    ($left:expr, $right:expr, $($fmt:tt)*) => {
        assert_eq!($left, $right, $($fmt)*);
    };
}

/// Inequality assertion inside a `proptest!` body.
#[macro_export]
macro_rules! prop_assert_ne {
    ($left:expr, $right:expr $(,)?) => {
        assert_ne!($left, $right);
    };
}

/// The test-declaration macro: each `fn name(pat in strategy, ...) { body }` becomes a
/// `#[test]` running `cases` seeded random cases.
#[macro_export]
macro_rules! proptest {
    (
        #![proptest_config($config:expr)]
        $($rest:tt)*
    ) => {
        $crate::proptest!(@with_config ($config) $($rest)*);
    };
    (
        $(#[$first_meta:meta])*
        fn $($rest:tt)*
    ) => {
        $crate::proptest!(
            @with_config ($crate::ProptestConfig::default())
            $(#[$first_meta])*
            fn $($rest)*
        );
    };
    (
        @with_config ($config:expr)
        $(
            $(#[$meta:meta])*
            fn $name:ident($($arg:pat in $strategy:expr),+ $(,)?) $body:block
        )*
    ) => {
        $(
            $(#[$meta])*
            fn $name() {
                let config = $config;
                let cases = config.effective_cases();
                let base_seed = $crate::seed_for(concat!(module_path!(), "::", stringify!($name)));
                for case in 0..u64::from(cases) {
                    let seed = base_seed.wrapping_add(case);
                    let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                        let mut rng = <$crate::__StdRng as $crate::SeedableRng>::seed_from_u64(seed);
                        $(let $arg = $crate::Strategy::generate(&($strategy), &mut rng);)+
                        $body
                    }));
                    if let Err(panic) = result {
                        eprintln!(
                            "proptest case {}/{} of {} failed (replay with PROPTEST_SEED={} PROPTEST_CASES=1)",
                            case + 1, cases, stringify!($name), seed,
                        );
                        std::panic::resume_unwind(panic);
                    }
                }
            }
        )*
    };
}

/// Re-export used by the `proptest!` expansion.
pub use rand::rngs::StdRng as __StdRng;

#[cfg(test)]
mod tests {
    use crate::prelude::*;

    fn pair() -> impl Strategy<Value = (usize, bool)> {
        (1usize..10, any::<bool>()).prop_map(|(n, b)| (n * 2, b))
    }

    proptest! {
        #[test]
        fn ranges_stay_in_bounds(n in 3usize..=7, x in 0.0f64..1.0) {
            prop_assert!((3..=7).contains(&n));
            prop_assert!((0.0..1.0).contains(&x));
        }

        #[test]
        fn mapped_tuples_apply_the_function((n, _b) in pair()) {
            prop_assert_eq!(n % 2, 0);
        }

        #[test]
        fn oneof_and_collections_generate(xs in collection::vec(any::<u8>(), 0..5),
                                          v in prop_oneof![Just(1u8), Just(2u8), 3u8..=9]) {
            prop_assert!(xs.len() < 5);
            prop_assert!((1..=9).contains(&v));
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig { cases: 3, ..ProptestConfig::default() })]

        #[test]
        fn config_override_applies(_x in any::<u64>()) {
            // Runs 3 cases; nothing to assert beyond successful generation.
        }
    }
}
