//! Offline stand-in for the `proptest` crate.
//!
//! The build environment has no crates.io access, so the workspace pins its
//! external dependencies to local shims. This one implements deterministic,
//! sampling-based property testing with the subset of the proptest API the
//! workspace uses: the [`proptest!`] and [`prop_oneof!`] macros, the
//! [`Strategy`] trait with `prop_map`/`boxed`, integer-range and tuple
//! strategies, [`Just`], and `collection::{vec, hash_map}`.
//!
//! Differences from real proptest, deliberately accepted:
//! - **No shrinking.** A failing case reports its case index and seed; rerun
//!   is deterministic, so the failure reproduces exactly.
//! - **Fixed deterministic seeding.** Each test runs [`CASES`] cases seeded
//!   from a hash of the test name, so results are stable across runs and
//!   machines — important because tier-1 CI treats these as regression tests.

use std::collections::HashMap;
use std::hash::Hash;
use std::ops::Range;

use rand::{Rng, SeedableRng, StdRng};

/// Number of sampled cases per property test.
pub const CASES: u64 = 64;

/// Deterministic RNG handed to strategies while generating a case.
pub type TestRng = StdRng;

/// A value generator, mirroring `proptest::strategy::Strategy`.
///
/// Object-safe: `gen` takes `&self`, and the combinators are `Self: Sized`.
pub trait Strategy {
    /// The type of values this strategy produces.
    type Value;

    /// Samples one value.
    fn gen(&self, rng: &mut TestRng) -> Self::Value;

    /// Maps generated values through `f`.
    fn prop_map<O, F>(self, f: F) -> Map<Self, F>
    where
        Self: Sized,
        F: Fn(Self::Value) -> O,
    {
        Map { inner: self, f }
    }

    /// Type-erases the strategy.
    fn boxed(self) -> BoxedStrategy<Self::Value>
    where
        Self: Sized + 'static,
    {
        BoxedStrategy(Box::new(self))
    }
}

/// A boxed, type-erased strategy.
pub struct BoxedStrategy<V>(Box<dyn Strategy<Value = V>>);

impl<V> Strategy for BoxedStrategy<V> {
    type Value = V;
    fn gen(&self, rng: &mut TestRng) -> V {
        self.0.gen(rng)
    }
}

/// Strategy that always yields a clone of one value.
#[derive(Debug, Clone)]
pub struct Just<T: Clone>(pub T);

impl<T: Clone> Strategy for Just<T> {
    type Value = T;
    fn gen(&self, _rng: &mut TestRng) -> T {
        self.0.clone()
    }
}

/// [`Strategy::prop_map`] adapter.
pub struct Map<S, F> {
    inner: S,
    f: F,
}

impl<S, O, F> Strategy for Map<S, F>
where
    S: Strategy,
    F: Fn(S::Value) -> O,
{
    type Value = O;
    fn gen(&self, rng: &mut TestRng) -> O {
        (self.f)(self.inner.gen(rng))
    }
}

/// Weighted union of strategies, produced by [`prop_oneof!`].
pub struct OneOf<V> {
    arms: Vec<(u32, BoxedStrategy<V>)>,
    total: u64,
}

impl<V> OneOf<V> {
    /// Builds a weighted union. Panics if `arms` is empty or all-zero weight.
    pub fn new(arms: Vec<(u32, BoxedStrategy<V>)>) -> Self {
        let total: u64 = arms.iter().map(|(w, _)| *w as u64).sum();
        assert!(total > 0, "prop_oneof! needs at least one positive weight");
        OneOf { arms, total }
    }
}

impl<V> Strategy for OneOf<V> {
    type Value = V;
    fn gen(&self, rng: &mut TestRng) -> V {
        let mut pick = rng.gen_range(0..self.total);
        for (w, s) in &self.arms {
            let w = *w as u64;
            if pick < w {
                return s.gen(rng);
            }
            pick -= w;
        }
        unreachable!("weights summed incorrectly")
    }
}

macro_rules! impl_range_strategy {
    ($($t:ty),*) => {$(
        impl Strategy for Range<$t> {
            type Value = $t;
            fn gen(&self, rng: &mut TestRng) -> $t {
                rng.gen_range(self.clone())
            }
        }
        impl Strategy for std::ops::RangeInclusive<$t> {
            type Value = $t;
            fn gen(&self, rng: &mut TestRng) -> $t {
                rng.gen_range(self.clone())
            }
        }
    )*};
}

impl_range_strategy!(usize, u64, u32, u16, u8, isize, i64, i32, i16, i8);

macro_rules! impl_tuple_strategy {
    ($(($($s:ident / $idx:tt),+)),+) => {$(
        impl<$($s: Strategy),+> Strategy for ($($s,)+) {
            type Value = ($($s::Value,)+);
            fn gen(&self, rng: &mut TestRng) -> Self::Value {
                ($(self.$idx.gen(rng),)+)
            }
        }
    )+};
}

impl_tuple_strategy!(
    (A / 0, B / 1),
    (A / 0, B / 1, C / 2),
    (A / 0, B / 1, C / 2, D / 3)
);

/// Collection strategies, mirroring `proptest::collection`.
pub mod collection {
    use super::*;

    /// Strategy for `Vec`s with length drawn from `len`.
    pub struct VecStrategy<S> {
        elem: S,
        len: Range<usize>,
    }

    /// Generates `Vec`s of `elem` values with length in `len`.
    pub fn vec<S: Strategy>(elem: S, len: Range<usize>) -> VecStrategy<S> {
        VecStrategy { elem, len }
    }

    impl<S: Strategy> Strategy for VecStrategy<S> {
        type Value = Vec<S::Value>;
        fn gen(&self, rng: &mut TestRng) -> Vec<S::Value> {
            let n = rng.gen_range(self.len.clone());
            (0..n).map(|_| self.elem.gen(rng)).collect()
        }
    }

    /// Strategy for `HashMap`s with entry count drawn from `len`.
    pub struct HashMapStrategy<K, V> {
        keys: K,
        values: V,
        len: Range<usize>,
    }

    /// Generates `HashMap`s from key/value strategies with size in `len`.
    ///
    /// Key collisions shrink the map below the drawn target; like real
    /// proptest we retry a bounded number of times, then accept a smaller
    /// map rather than looping forever on a narrow key domain.
    pub fn hash_map<K, V>(keys: K, values: V, len: Range<usize>) -> HashMapStrategy<K, V>
    where
        K: Strategy,
        V: Strategy,
        K::Value: Eq + Hash,
    {
        HashMapStrategy { keys, values, len }
    }

    impl<K, V> Strategy for HashMapStrategy<K, V>
    where
        K: Strategy,
        V: Strategy,
        K::Value: Eq + Hash,
    {
        type Value = HashMap<K::Value, V::Value>;
        fn gen(&self, rng: &mut TestRng) -> Self::Value {
            let target = rng.gen_range(self.len.clone());
            let mut out = HashMap::with_capacity(target);
            let mut attempts = 0usize;
            while out.len() < target && attempts < target.saturating_mul(16) + 16 {
                out.insert(self.keys.gen(rng), self.values.gen(rng));
                attempts += 1;
            }
            out
        }
    }
}

/// Runs `body` for [`CASES`] deterministic cases seeded from `name`.
///
/// Used by the [`proptest!`] macro; not intended to be called directly.
pub fn run_cases(name: &str, body: impl Fn(&mut TestRng)) {
    // FNV-1a over the test name gives a stable per-test base seed.
    let mut base: u64 = 0xcbf2_9ce4_8422_2325;
    for b in name.bytes() {
        base ^= b as u64;
        base = base.wrapping_mul(0x1000_0000_01b3);
    }
    for case in 0..CASES {
        let mut rng = TestRng::seed_from_u64(base.wrapping_add(case));
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| body(&mut rng)));
        if let Err(payload) = result {
            eprintln!(
                "proptest '{name}' failed at case {case}/{CASES} \
                 (seed base {base:#x}); cases are deterministic, rerun to reproduce"
            );
            std::panic::resume_unwind(payload);
        }
    }
}

/// Common imports, mirroring `proptest::prelude`.
pub mod prelude {
    pub use crate::collection;
    pub use crate::{
        prop_assert, prop_assert_eq, prop_oneof, proptest, BoxedStrategy, Just, Strategy,
    };
}

/// Declares property tests. Each `fn name(arg in strategy, ...) { .. }`
/// becomes a `#[test]`-style function running [`CASES`] sampled cases.
#[macro_export]
macro_rules! proptest {
    ($(
        $(#[$attr:meta])*
        fn $name:ident($($arg:ident in $strat:expr),+ $(,)?) $body:block
    )*) => {
        $(
            $(#[$attr])*
            fn $name() {
                $crate::run_cases(stringify!($name), |__proptest_rng| {
                    $(let $arg = $crate::Strategy::gen(&($strat), __proptest_rng);)+
                    $body
                });
            }
        )*
    };
}

/// Weighted choice between strategies: `prop_oneof![3 => a, 1 => b]`.
#[macro_export]
macro_rules! prop_oneof {
    ($($weight:expr => $strat:expr),+ $(,)?) => {
        $crate::OneOf::new(vec![
            $(($weight as u32, $crate::Strategy::boxed($strat))),+
        ])
    };
}

/// Asserts a condition inside a property test.
#[macro_export]
macro_rules! prop_assert {
    ($($args:tt)*) => { assert!($($args)*) };
}

/// Asserts equality inside a property test.
#[macro_export]
macro_rules! prop_assert_eq {
    ($($args:tt)*) => { assert_eq!($($args)*) };
}

#[cfg(test)]
mod tests {
    use super::prelude::*;

    #[derive(Debug, Clone, PartialEq)]
    enum Op {
        A(i64),
        B,
    }

    proptest! {
        /// Ranges stay in bounds and maps apply.
        #[test]
        fn ranges_and_maps(v in (-5_i64..5).prop_map(Op::A), n in 1usize..4) {
            match v {
                Op::A(x) => prop_assert!((-5..5).contains(&x)),
                Op::B => unreachable!(),
            }
            prop_assert!((1..4).contains(&n));
        }

        #[test]
        fn oneof_vec_and_hash_map(
            script in collection::vec(
                prop_oneof![3 => (-2_i64..3).prop_map(Op::A), 1 => Just(Op::B)],
                1..20,
            ),
            entries in collection::hash_map(-4_i64..4, 0_i64..100, 0..6),
        ) {
            prop_assert!(!script.is_empty() && script.len() < 20);
            prop_assert!(entries.len() < 6);
            for (k, _) in &entries {
                prop_assert!((-4..4).contains(k));
            }
        }
    }

    #[test]
    fn cases_are_deterministic() {
        use super::{Strategy, TestRng};
        use rand::SeedableRng;
        let s = (0_i64..1000, 0_i64..1000);
        let a: Vec<_> = (0..10)
            .map(|i| s.gen(&mut TestRng::seed_from_u64(i)))
            .collect();
        let b: Vec<_> = (0..10)
            .map(|i| s.gen(&mut TestRng::seed_from_u64(i)))
            .collect();
        assert_eq!(a, b);
    }
}
