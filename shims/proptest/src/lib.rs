//! Offline stand-in for `proptest`.
//!
//! Implements the subset of the proptest API this workspace uses:
//! the `proptest!` fn-wrapper macro, `Strategy` + `prop_map`, `any`,
//! integer-range strategies, `collection::vec`, `option::of`, `Just`,
//! `prop_oneof!`, the `prop_assert*`/`prop_assume!` macros, and
//! `ProptestConfig::with_cases`.
//!
//! Unlike real proptest there is **no shrinking**: a failing case panics
//! with the assertion message; inputs are drawn from a deterministic
//! per-test generator (seeded from the test's module path and name), so
//! failures reproduce exactly on re-run.

use pod_types::rng::Rng;

/// Deterministic generator handed to strategies.
///
/// Seeded per test from a stable hash of the test name so each test
/// explores its own reproducible stream.
#[derive(Clone, Debug)]
pub struct TestRng {
    rng: Rng,
}

impl TestRng {
    /// Generator seeded from a stable string (typically the test path).
    pub fn deterministic(name: &str) -> Self {
        // FNV-1a's shape over the name, but with 0x1000_0000_01b3 where
        // FNV's prime is 0x100_0000_01b3, so not `fnv1a_64`: this hash
        // seeds every property suite's cases, and the known-answer test
        // in `pod-types` pins it.
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        for b in name.bytes() {
            h ^= b as u64;
            h = h.wrapping_mul(0x1000_0000_01b3);
        }
        Self {
            rng: Rng::seed_from_u64(h),
        }
    }

    /// Uniform draw over a half-open usize range.
    pub fn usize_in(&mut self, lo: usize, hi: usize) -> usize {
        if lo >= hi {
            return lo;
        }
        lo + self.rng.below((hi - lo) as u64) as usize
    }

    /// Access the underlying generator.
    pub fn rng(&mut self) -> &mut Rng {
        &mut self.rng
    }
}

/// Types [`any`] draws: the low bits of one `next_u64`.
pub trait Sample: Sized {
    /// A value from the type's full range.
    fn any(rng: &mut Rng) -> Self;
}

impl Sample for bool {
    fn any(rng: &mut Rng) -> Self {
        rng.next_u64() & 1 == 1
    }
}

/// Integers are drawn by [`any`] and by their `Range` strategy, which
/// draws `lo..hi` as `lo + below(hi - lo)`.
macro_rules! impl_sample_int {
    ($($t:ty),+) => {$(
        impl Sample for $t {
            fn any(rng: &mut Rng) -> Self {
                rng.next_u64() as $t
            }
        }

        impl Strategy for std::ops::Range<$t> {
            type Value = $t;
            fn generate(&self, rng: &mut TestRng) -> $t {
                assert!(self.start < self.end, "cannot sample empty range");
                self.start + rng.rng().below((self.end - self.start) as u64) as $t
            }
        }
    )+};
}
impl_sample_int!(u8, u16, u32, u64, usize);

/// Error signalled out of a generated test body.
#[derive(Debug)]
pub enum TestCaseError {
    /// `prop_assume!` rejected the inputs; draw a fresh case.
    Reject,
    /// `prop_assert*` failed with the given message.
    Fail(String),
}

/// Runner configuration; only `cases` is honored.
#[derive(Clone, Debug)]
pub struct ProptestConfig {
    /// Number of accepted cases to run per test.
    pub cases: u32,
}

impl Default for ProptestConfig {
    /// 128 cases, overridable via the `PROPTEST_CASES` environment
    /// variable (matching real proptest) so CI can raise coverage
    /// without code changes. Explicit `with_cases` always wins.
    fn default() -> Self {
        Self {
            cases: parse_cases(std::env::var("PROPTEST_CASES").ok().as_deref()),
        }
    }
}

/// `PROPTEST_CASES` parsing: positive integers override the default,
/// anything else (unset, garbage, zero) keeps 128.
fn parse_cases(env: Option<&str>) -> u32 {
    env.and_then(|v| v.parse().ok())
        .filter(|&c| c > 0)
        .unwrap_or(128)
}

impl ProptestConfig {
    /// Config running `cases` accepted cases.
    pub fn with_cases(cases: u32) -> Self {
        Self { cases }
    }
}

/// A value generator. Object-safe; combinators require `Sized`.
pub trait Strategy {
    /// Type of generated values.
    type Value;

    /// Draw one value.
    fn generate(&self, rng: &mut TestRng) -> Self::Value;

    /// Map generated values through `f`.
    fn prop_map<T, F>(self, f: F) -> strategy::Map<Self, F>
    where
        Self: Sized,
        F: Fn(Self::Value) -> T,
    {
        strategy::Map { inner: self, f }
    }
}

impl<T> Strategy for Box<dyn Strategy<Value = T>> {
    type Value = T;
    fn generate(&self, rng: &mut TestRng) -> T {
        (**self).generate(rng)
    }
}

/// Strategy producing a clone of a fixed value.
#[derive(Clone, Debug)]
pub struct Just<T: Clone>(pub T);

impl<T: Clone> Strategy for Just<T> {
    type Value = T;
    fn generate(&self, _rng: &mut TestRng) -> T {
        self.0.clone()
    }
}

/// Strategy drawing `T` from its full standard distribution.
pub fn any<T: Sample>() -> strategy::Any<T> {
    strategy::Any(std::marker::PhantomData)
}

pub mod strategy {
    //! Strategy combinator types.

    use super::{Sample, Strategy, TestRng};

    /// See [`super::any`].
    pub struct Any<T>(pub(crate) std::marker::PhantomData<T>);

    impl<T: Sample> Strategy for Any<T> {
        type Value = T;
        fn generate(&self, rng: &mut TestRng) -> T {
            T::any(rng.rng())
        }
    }

    /// See [`Strategy::prop_map`].
    pub struct Map<S, F> {
        pub(crate) inner: S,
        pub(crate) f: F,
    }

    impl<S: Strategy, T, F: Fn(S::Value) -> T> Strategy for Map<S, F> {
        type Value = T;
        fn generate(&self, rng: &mut TestRng) -> T {
            (self.f)(self.inner.generate(rng))
        }
    }

    /// Uniform choice over boxed alternatives (`prop_oneof!`).
    pub struct OneOf<T> {
        arms: Vec<Box<dyn Strategy<Value = T>>>,
    }

    impl<T> OneOf<T> {
        /// Choice over the given arms.
        ///
        /// # Panics
        /// Panics if `arms` is empty.
        pub fn new(arms: Vec<Box<dyn Strategy<Value = T>>>) -> Self {
            assert!(!arms.is_empty(), "prop_oneof! needs at least one arm");
            Self { arms }
        }
    }

    impl<T> Strategy for OneOf<T> {
        type Value = T;
        fn generate(&self, rng: &mut TestRng) -> T {
            let i = rng.usize_in(0, self.arms.len());
            self.arms[i].generate(rng)
        }
    }

    /// Box a strategy for use in heterogeneous [`OneOf`] arms.
    pub fn boxed<S>(s: S) -> Box<dyn Strategy<Value = S::Value>>
    where
        S: Strategy + 'static,
    {
        Box::new(s)
    }

    macro_rules! impl_tuple_strategy {
        ($($s:ident/$idx:tt),+) => {
            impl<$($s: Strategy),+> Strategy for ($($s,)+) {
                type Value = ($($s::Value,)+);
                fn generate(&self, rng: &mut TestRng) -> Self::Value {
                    ($(self.$idx.generate(rng),)+)
                }
            }
        };
    }
    impl_tuple_strategy!(A / 0, B / 1);
    impl_tuple_strategy!(A / 0, B / 1, C / 2);
    impl_tuple_strategy!(A / 0, B / 1, C / 2, D / 3);
    impl_tuple_strategy!(A / 0, B / 1, C / 2, D / 3, E / 4);
}

pub mod collection {
    //! Collection strategies.

    use super::{Strategy, TestRng};

    /// Vec of `elem` values with a length drawn from `size`.
    pub fn vec<S: Strategy>(elem: S, size: std::ops::Range<usize>) -> VecStrategy<S> {
        VecStrategy { elem, size }
    }

    /// See [`vec()`].
    pub struct VecStrategy<S> {
        elem: S,
        size: std::ops::Range<usize>,
    }

    impl<S: Strategy> Strategy for VecStrategy<S> {
        type Value = Vec<S::Value>;
        fn generate(&self, rng: &mut TestRng) -> Vec<S::Value> {
            let len = rng.usize_in(self.size.start, self.size.end);
            (0..len).map(|_| self.elem.generate(rng)).collect()
        }
    }
}

pub mod option {
    //! Option strategies.

    use super::{Strategy, TestRng};

    /// `Some` of the inner strategy three times out of four, else `None`.
    pub fn of<S: Strategy>(inner: S) -> OptionStrategy<S> {
        OptionStrategy { inner }
    }

    /// See [`of`].
    pub struct OptionStrategy<S> {
        inner: S,
    }

    impl<S: Strategy> Strategy for OptionStrategy<S> {
        type Value = Option<S::Value>;
        fn generate(&self, rng: &mut TestRng) -> Option<S::Value> {
            if rng.usize_in(0, 4) == 0 {
                None
            } else {
                Some(self.inner.generate(rng))
            }
        }
    }
}

pub mod prelude {
    //! Glob-import surface matching `proptest::prelude::*`.

    pub use crate::{
        any, prop_assert, prop_assert_eq, prop_assert_ne, prop_assume, prop_oneof, proptest, Just,
        ProptestConfig, Strategy, TestCaseError,
    };
}

/// Wrap property-test fns: draws each `pat in strategy` binding per
/// case and runs the body, retrying on `prop_assume!` rejections.
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($cfg:expr)] $($rest:tt)*) => {
        $crate::__proptest_fns! { ($cfg) $($rest)* }
    };
    ($($rest:tt)*) => {
        $crate::__proptest_fns! { ($crate::ProptestConfig::default()) $($rest)* }
    };
}

#[macro_export]
#[doc(hidden)]
macro_rules! __proptest_fns {
    (($cfg:expr)) => {};
    (($cfg:expr)
     $(#[$meta:meta])*
     fn $name:ident($($p:pat_param in $s:expr),+ $(,)?) $body:block
     $($rest:tt)*
    ) => {
        $(#[$meta])*
        fn $name() {
            let config: $crate::ProptestConfig = $cfg;
            let mut rng =
                $crate::TestRng::deterministic(concat!(module_path!(), "::", stringify!($name)));
            let mut accepted: u32 = 0;
            let mut attempts: u32 = 0;
            while accepted < config.cases {
                attempts += 1;
                assert!(
                    attempts < config.cases.saturating_mul(20).saturating_add(1_000),
                    "too many prop_assume! rejections in {}",
                    stringify!($name)
                );
                $(let $p = $crate::Strategy::generate(&($s), &mut rng);)+
                // The immediately-called closure scopes `?`/early returns
                // of the property body, mirroring real proptest.
                #[allow(clippy::redundant_closure_call)]
                let outcome: ::std::result::Result<(), $crate::TestCaseError> = (move || {
                    $body
                    ::std::result::Result::Ok(())
                })();
                match outcome {
                    ::std::result::Result::Ok(()) => accepted += 1,
                    ::std::result::Result::Err($crate::TestCaseError::Reject) => {}
                    ::std::result::Result::Err($crate::TestCaseError::Fail(msg)) => {
                        panic!("property '{}' failed: {}", stringify!($name), msg)
                    }
                }
            }
        }
        $crate::__proptest_fns! { ($cfg) $($rest)* }
    };
}

/// Uniform choice among strategy arms producing a common value type.
#[macro_export]
macro_rules! prop_oneof {
    ($($arm:expr),+ $(,)?) => {
        $crate::strategy::OneOf::new(vec![$($crate::strategy::boxed($arm)),+])
    };
}

/// Reject the current case (resample) unless the condition holds.
#[macro_export]
macro_rules! prop_assume {
    ($cond:expr) => {
        if !($cond) {
            return ::std::result::Result::Err($crate::TestCaseError::Reject);
        }
    };
}

/// Property assertion; fails the case with an optional formatted message.
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr) => {
        if !($cond) {
            return ::std::result::Result::Err($crate::TestCaseError::Fail(format!(
                "assertion failed: {}",
                stringify!($cond)
            )));
        }
    };
    ($cond:expr, $($fmt:tt)+) => {
        if !($cond) {
            return ::std::result::Result::Err($crate::TestCaseError::Fail(format!($($fmt)+)));
        }
    };
}

/// Property equality assertion.
#[macro_export]
macro_rules! prop_assert_eq {
    ($left:expr, $right:expr $(,)?) => {{
        let (l, r) = (&$left, &$right);
        if !(*l == *r) {
            return ::std::result::Result::Err($crate::TestCaseError::Fail(format!(
                "assertion failed: `{} == {}`\n  left: {:?}\n right: {:?}",
                stringify!($left),
                stringify!($right),
                l,
                r
            )));
        }
    }};
    ($left:expr, $right:expr, $($fmt:tt)+) => {{
        let (l, r) = (&$left, &$right);
        if !(*l == *r) {
            return ::std::result::Result::Err($crate::TestCaseError::Fail(format!(
                "{}\n  left: {:?}\n right: {:?}",
                format!($($fmt)+),
                l,
                r
            )));
        }
    }};
}

/// Property inequality assertion.
#[macro_export]
macro_rules! prop_assert_ne {
    ($left:expr, $right:expr $(,)?) => {{
        let (l, r) = (&$left, &$right);
        if *l == *r {
            return ::std::result::Result::Err($crate::TestCaseError::Fail(format!(
                "assertion failed: `{} != {}`\n  both: {:?}",
                stringify!($left),
                stringify!($right),
                l
            )));
        }
    }};
}

#[cfg(test)]
mod tests {
    use crate::prelude::*;

    #[derive(Clone, Debug, PartialEq)]
    enum Op {
        Push(u8),
        Pop,
    }

    fn op() -> impl Strategy<Value = Op> {
        prop_oneof![any::<u8>().prop_map(Op::Push), Just(Op::Pop)]
    }

    proptest! {
        #[test]
        fn ranges_stay_in_bounds(x in 3u64..17, y in 0usize..5) {
            prop_assert!((3..17).contains(&x));
            prop_assert!(y < 5, "y was {}", y);
        }

        #[test]
        fn vec_lengths_respect_size(v in crate::collection::vec(any::<u8>(), 2..9)) {
            prop_assert!(v.len() >= 2 && v.len() < 9);
        }

        #[test]
        fn assume_retries(a in any::<u8>(), b in any::<u8>()) {
            prop_assume!(a != b);
            prop_assert_ne!(a, b);
        }

        #[test]
        fn oneof_and_tuples(ops in crate::collection::vec(op(), 1..50), n in 1u8..4) {
            let mut stack = Vec::new();
            for o in ops {
                match o {
                    Op::Push(v) => stack.push(v),
                    Op::Pop => {
                        stack.pop();
                    }
                }
            }
            prop_assert!(n >= 1);
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(7))]
        #[test]
        fn config_is_honored(_x in any::<u64>()) {
            // Runs; the case count is internal but the block must compile.
        }
    }

    #[test]
    fn proptest_cases_env_parsing() {
        assert_eq!(crate::parse_cases(None), 128, "unset keeps the default");
        assert_eq!(crate::parse_cases(Some("512")), 512);
        assert_eq!(crate::parse_cases(Some("0")), 128, "zero is ignored");
        assert_eq!(crate::parse_cases(Some("lots")), 128, "garbage is ignored");
    }

    #[test]
    fn deterministic_rng_is_stable_per_name() {
        let mut a = crate::TestRng::deterministic("x");
        let mut b = crate::TestRng::deterministic("x");
        let mut c = crate::TestRng::deterministic("y");
        let (va, vb, vc) = (
            a.usize_in(0, 1_000_000),
            b.usize_in(0, 1_000_000),
            c.usize_in(0, 1_000_000),
        );
        assert_eq!(va, vb);
        assert_ne!(va, vc);
    }
}
