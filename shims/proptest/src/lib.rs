//! Minimal, offline stand-in for the `proptest` crate.
//!
//! The build environment has no crates.io access, so this shim reimplements
//! the subset of proptest the workspace's property tests use: the
//! [`Strategy`] trait with `prop_map` / `prop_recursive` / `boxed`, range
//! and tuple strategies, [`Just`], `prop_oneof!`, `prop::collection::vec`,
//! the `proptest!` test macro and `prop_assert*`.
//!
//! Differences from real proptest: generation is driven by a fixed-seed
//! splitmix64 RNG (cases are deterministic across runs, keyed on the test
//! name), and failing cases are not shrunk — the `prop_assert*` macros
//! panic with the standard assertion message instead.

use std::ops::Range;
use std::rc::Rc;

/// Deterministic splitmix64 generator driving all strategies.
pub struct TestRng {
    state: u64,
}

impl TestRng {
    /// Creates an RNG seeded from a test name (FNV-1a over the bytes).
    pub fn deterministic(name: &str) -> Self {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for b in name.bytes() {
            h ^= b as u64;
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
        TestRng { state: h }
    }

    /// Next raw 64-bit value.
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform value in `0..n` (`n > 0`).
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }
}

/// A value generator. `Value` is the type of generated values.
pub trait Strategy {
    /// The type of values this strategy produces.
    type Value;

    /// Generates one value.
    fn generate(&self, rng: &mut TestRng) -> Self::Value;

    /// Maps generated values through `f`.
    fn prop_map<O, F: Fn(Self::Value) -> O>(self, f: F) -> Map<Self, F>
    where
        Self: Sized,
    {
        Map { inner: self, f }
    }

    /// Builds a recursive strategy: `self` is the leaf case and `f` expands
    /// an inner strategy into a branch case. `depth` bounds the recursion;
    /// `desired_size` and `expected_branch_size` are accepted for API
    /// compatibility and ignored.
    fn prop_recursive<F, S>(
        self,
        depth: u32,
        _desired_size: u32,
        _expected_branch_size: u32,
        f: F,
    ) -> BoxedStrategy<Self::Value>
    where
        Self: Sized + 'static,
        Self::Value: 'static,
        F: Fn(BoxedStrategy<Self::Value>) -> S,
        S: Strategy<Value = Self::Value> + 'static,
    {
        let leaf = self.boxed();
        let mut cur = leaf.clone();
        for _ in 0..depth {
            let branch = f(cur).boxed();
            cur = OneOf {
                options: vec![leaf.clone(), branch],
            }
            .boxed();
        }
        cur
    }

    /// Type-erases the strategy.
    fn boxed(self) -> BoxedStrategy<Self::Value>
    where
        Self: Sized + 'static,
    {
        BoxedStrategy {
            inner: Rc::new(self),
        }
    }
}

/// A type-erased, cheaply clonable strategy.
pub struct BoxedStrategy<T> {
    inner: Rc<dyn Strategy<Value = T>>,
}

impl<T> Clone for BoxedStrategy<T> {
    fn clone(&self) -> Self {
        BoxedStrategy {
            inner: Rc::clone(&self.inner),
        }
    }
}

impl<T> Strategy for BoxedStrategy<T> {
    type Value = T;
    fn generate(&self, rng: &mut TestRng) -> T {
        self.inner.generate(rng)
    }
}

/// Always produces a clone of the given value.
pub struct Just<T: Clone>(pub T);

impl<T: Clone> Strategy for Just<T> {
    type Value = T;
    fn generate(&self, _rng: &mut TestRng) -> T {
        self.0.clone()
    }
}

/// Strategy adapter produced by [`Strategy::prop_map`].
pub struct Map<S, F> {
    inner: S,
    f: F,
}

impl<S: Strategy, O, F: Fn(S::Value) -> O> Strategy for Map<S, F> {
    type Value = O;
    fn generate(&self, rng: &mut TestRng) -> O {
        (self.f)(self.inner.generate(rng))
    }
}

/// Uniform choice between boxed alternatives (built by `prop_oneof!`).
pub struct OneOf<T> {
    options: Vec<BoxedStrategy<T>>,
}

impl<T> OneOf<T> {
    /// Creates a choice over the given alternatives (must be non-empty).
    pub fn new(options: Vec<BoxedStrategy<T>>) -> Self {
        assert!(!options.is_empty(), "prop_oneof! needs at least one arm");
        OneOf { options }
    }
}

impl<T> Strategy for OneOf<T> {
    type Value = T;
    fn generate(&self, rng: &mut TestRng) -> T {
        let i = rng.below(self.options.len() as u64) as usize;
        self.options[i].generate(rng)
    }
}

macro_rules! impl_range_strategy {
    ($($t:ty),*) => {$(
        impl Strategy for Range<$t> {
            type Value = $t;
            fn generate(&self, rng: &mut TestRng) -> $t {
                let lo = self.start as i128;
                let hi = self.end as i128;
                assert!(lo < hi, "empty range strategy");
                (lo + rng.below((hi - lo) as u64) as i128) as $t
            }
        }
    )*};
}

impl_range_strategy!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

macro_rules! impl_tuple_strategy {
    ($(($($n:tt $s:ident),+))*) => {$(
        impl<$($s: Strategy),+> Strategy for ($($s,)+) {
            type Value = ($($s::Value,)+);
            fn generate(&self, rng: &mut TestRng) -> Self::Value {
                ($(self.$n.generate(rng),)+)
            }
        }
    )*};
}

impl_tuple_strategy! {
    (0 A, 1 B)
    (0 A, 1 B, 2 C)
    (0 A, 1 B, 2 C, 3 D)
    (0 A, 1 B, 2 C, 3 D, 4 E)
    (0 A, 1 B, 2 C, 3 D, 4 E, 5 F)
}

/// Strategy modules mirroring `proptest::prop`.
pub mod prop {
    /// Collection strategies.
    pub mod collection {
        use super::super::{Strategy, TestRng};
        use std::ops::Range;

        /// Generates `Vec`s with lengths drawn from `len` and elements
        /// from `elem`.
        pub fn vec<S: Strategy>(elem: S, len: Range<usize>) -> VecStrategy<S> {
            VecStrategy { elem, len }
        }

        /// Strategy returned by [`vec()`].
        pub struct VecStrategy<S> {
            elem: S,
            len: Range<usize>,
        }

        impl<S: Strategy> Strategy for VecStrategy<S> {
            type Value = Vec<S::Value>;
            fn generate(&self, rng: &mut TestRng) -> Vec<S::Value> {
                let span = (self.len.end - self.len.start) as u64;
                let n = self.len.start + if span == 0 { 0 } else { rng.below(span) as usize };
                (0..n).map(|_| self.elem.generate(rng)).collect()
            }
        }
    }
}

/// Per-test configuration (only the case count is honored).
#[derive(Clone, Copy, Debug)]
pub struct ProptestConfig {
    /// Number of random cases to run per test.
    pub cases: u32,
}

impl ProptestConfig {
    /// Configuration running `cases` random cases.
    pub fn with_cases(cases: u32) -> Self {
        ProptestConfig { cases }
    }
}

impl Default for ProptestConfig {
    fn default() -> Self {
        ProptestConfig { cases: 64 }
    }
}

/// Everything the tests import.
pub mod prelude {
    pub use crate::{
        prop, prop_assert, prop_assert_eq, prop_oneof, proptest, BoxedStrategy, Just,
        ProptestConfig, Strategy,
    };
}

/// Asserts a condition inside a `proptest!` body (no shrinking: panics
/// immediately like `assert!`).
#[macro_export]
macro_rules! prop_assert {
    ($($args:tt)*) => { assert!($($args)*) };
}

/// Asserts equality inside a `proptest!` body.
#[macro_export]
macro_rules! prop_assert_eq {
    ($($args:tt)*) => { assert_eq!($($args)*) };
}

/// Uniform choice between strategies producing the same value type.
#[macro_export]
macro_rules! prop_oneof {
    ($($arm:expr),+ $(,)?) => {
        $crate::OneOf::new(::std::vec![$($crate::Strategy::boxed($arm)),+])
    };
}

/// Defines `#[test]` functions whose arguments are drawn from strategies.
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($cfg:expr)] $($rest:tt)*) => {
        $crate::proptest!(@run ($cfg) $($rest)*);
    };
    (@run ($cfg:expr) $(
        #[test]
        fn $name:ident($($arg:ident in $strat:expr),* $(,)?) $body:block
    )*) => {$(
        #[test]
        fn $name() {
            let config: $crate::ProptestConfig = $cfg;
            let mut rng = $crate::TestRng::deterministic(concat!(module_path!(), "::", stringify!($name)));
            for __case in 0..config.cases {
                let _ = __case;
                $(let $arg = $crate::Strategy::generate(&($strat), &mut rng);)*
                $body
            }
        }
    )*};
    ($($rest:tt)*) => {
        $crate::proptest!(@run ($crate::ProptestConfig::default()) $($rest)*);
    };
}

#[cfg(test)]
mod tests {
    use super::prelude::*;

    #[test]
    fn ranges_stay_in_bounds() {
        let mut rng = crate::TestRng::deterministic("ranges");
        for _ in 0..1000 {
            let v = (-8i64..9).generate(&mut rng);
            assert!((-8..9).contains(&v));
            let u = (0usize..4).generate(&mut rng);
            assert!(u < 4);
        }
    }

    #[test]
    fn oneof_hits_every_arm() {
        let s = prop_oneof![Just(1u32), Just(2u32), Just(3u32)];
        let mut rng = crate::TestRng::deterministic("arms");
        let mut seen = [false; 3];
        for _ in 0..100 {
            seen[(s.generate(&mut rng) - 1) as usize] = true;
        }
        assert_eq!(seen, [true; 3]);
    }

    #[test]
    fn recursive_strategies_terminate() {
        #[derive(Debug)]
        enum Tree {
            #[allow(dead_code)] // value only matters via Debug in failure output
            Leaf(i64),
            Node(Vec<Tree>),
        }
        fn depth(t: &Tree) -> usize {
            match t {
                Tree::Leaf(_) => 1,
                Tree::Node(kids) => 1 + kids.iter().map(depth).max().unwrap_or(0),
            }
        }
        let s = (0i64..10)
            .prop_map(Tree::Leaf)
            .prop_recursive(3, 24, 6, |inner| {
                prop::collection::vec(inner, 0..3).prop_map(Tree::Node)
            });
        let mut rng = crate::TestRng::deterministic("trees");
        for _ in 0..200 {
            assert!(depth(&s.generate(&mut rng)) <= 7);
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(16))]

        #[test]
        fn macro_binds_arguments(a in 1i64..5, items in prop::collection::vec(0u8..3, 1..4)) {
            prop_assert!((1..5).contains(&a));
            prop_assert_eq!(items.is_empty(), false);
        }
    }
}
