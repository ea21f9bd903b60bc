#![forbid(unsafe_code)]
//! # proptest-shim — a dependency-free subset of [proptest](https://docs.rs/proptest)
//!
//! This workspace builds with **no network access**, so the real proptest
//! crate cannot be resolved from the registry. This shim implements the
//! exact API surface the workspace's property tests use — `proptest!`,
//! `prop_oneof!`, `prop_assert!`/`prop_assert_eq!`, `Just`, range and tuple
//! strategies, `prop_map`/`prop_recursive`, `collection::{vec, btree_set}`,
//! `option::of`, `any::<T>()`, and a tiny `[class]{m,n}` string-pattern
//! strategy — on top of a deterministic splitmix64 generator.
//!
//! Differences from real proptest, deliberately accepted:
//! * **No shrinking.** A failing case reports its per-case seed; re-running
//!   the test reproduces it exactly (generation is fully deterministic, the
//!   seed is derived from the test name).
//! * Failure is reported by panicking immediately (`prop_assert!` is
//!   `assert!`), not by collecting a minimal counterexample.
//! * `ProptestConfig` carries only `cases` (default 64).
//!
//! Determinism is a feature here, not a limitation: CI behaves identically
//! on every platform and every run.

use std::fmt::Write as _;
use std::rc::Rc;

// ---------------------------------------------------------------------------
// Deterministic RNG
// ---------------------------------------------------------------------------

/// Deterministic splitmix64 generator seeding each test case.
#[derive(Clone, Debug)]
pub struct TestRng {
    state: u64,
}

impl TestRng {
    /// RNG from an explicit seed.
    pub fn from_seed(seed: u64) -> TestRng {
        TestRng { state: seed }
    }

    /// RNG for a named test: the seed is the FNV-1a hash of the name, so
    /// every test gets an independent, stable stream.
    pub fn for_test(name: &str) -> TestRng {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for b in name.bytes() {
            h ^= b as u64;
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
        TestRng { state: h }
    }

    /// Next raw 64-bit value (splitmix64).
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform value in `[0, n)`; `n` must be nonzero.
    pub fn below(&mut self, n: u64) -> u64 {
        debug_assert!(n > 0, "empty range");
        self.next_u64() % n
    }

    /// An independent seed for a child generator.
    pub fn fork_seed(&mut self) -> u64 {
        self.next_u64()
    }
}

// ---------------------------------------------------------------------------
// Config
// ---------------------------------------------------------------------------

/// Per-block configuration (`#![proptest_config(...)]`).
#[derive(Clone, Debug)]
pub struct ProptestConfig {
    /// Number of generated cases per test.
    pub cases: u32,
}

impl ProptestConfig {
    /// Config with an explicit case count.
    pub fn with_cases(cases: u32) -> ProptestConfig {
        ProptestConfig { cases }
    }
}

impl Default for ProptestConfig {
    fn default() -> ProptestConfig {
        ProptestConfig { cases: 64 }
    }
}

// ---------------------------------------------------------------------------
// Strategy
// ---------------------------------------------------------------------------

/// A generator of values for property tests.
pub trait Strategy {
    /// The generated type.
    type Value;

    /// Generate one value.
    fn generate(&self, rng: &mut TestRng) -> Self::Value;

    /// Transform generated values.
    fn prop_map<O, F>(self, f: F) -> Map<Self, F>
    where
        Self: Sized,
        F: Fn(Self::Value) -> O,
    {
        Map { inner: self, f }
    }

    /// Type-erase the strategy (needed by recursive strategies).
    fn boxed(self) -> BoxedStrategy<Self::Value>
    where
        Self: Sized + 'static,
    {
        BoxedStrategy(Rc::new(move |rng: &mut TestRng| self.generate(rng)))
    }

    /// Build a depth-bounded recursive strategy: `self` is the leaf, and
    /// `f` wraps a strategy for depth `k` into one for depth `k+1`. The
    /// `_desired_size`/`_expected_branch` hints of real proptest are
    /// accepted and ignored.
    fn prop_recursive<S, F>(
        self,
        depth: u32,
        _desired_size: u32,
        _expected_branch: u32,
        f: F,
    ) -> BoxedStrategy<Self::Value>
    where
        Self: Sized + 'static,
        S: Strategy<Value = Self::Value> + 'static,
        F: Fn(BoxedStrategy<Self::Value>) -> S,
    {
        let mut strat = self.boxed();
        for _ in 0..depth {
            strat = f(strat).boxed();
        }
        strat
    }
}

/// Type-erased, cheaply clonable strategy.
pub struct BoxedStrategy<T>(Rc<dyn Fn(&mut TestRng) -> T>);

impl<T> Clone for BoxedStrategy<T> {
    fn clone(&self) -> Self {
        BoxedStrategy(Rc::clone(&self.0))
    }
}

impl<T> Strategy for BoxedStrategy<T> {
    type Value = T;
    fn generate(&self, rng: &mut TestRng) -> T {
        (self.0)(rng)
    }
}

/// Always produces a clone of the given value.
#[derive(Clone, Debug)]
pub struct Just<T: Clone>(pub T);

impl<T: Clone> Strategy for Just<T> {
    type Value = T;
    fn generate(&self, _rng: &mut TestRng) -> T {
        self.0.clone()
    }
}

/// `prop_map` adapter.
#[derive(Clone)]
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
    fn generate(&self, rng: &mut TestRng) -> O {
        (self.f)(self.inner.generate(rng))
    }
}

/// Uniform choice among boxed alternatives (`prop_oneof!`).
pub struct Union<T> {
    arms: Vec<BoxedStrategy<T>>,
}

impl<T> Union<T> {
    /// Union over the given alternatives (must be non-empty).
    pub fn new(arms: Vec<BoxedStrategy<T>>) -> Union<T> {
        assert!(!arms.is_empty(), "prop_oneof! needs at least one arm");
        Union { arms }
    }
}

impl<T> Clone for Union<T> {
    fn clone(&self) -> Self {
        Union {
            arms: self.arms.clone(),
        }
    }
}

impl<T> Strategy for Union<T> {
    type Value = T;
    fn generate(&self, rng: &mut TestRng) -> T {
        let i = rng.below(self.arms.len() as u64) as usize;
        self.arms[i].generate(rng)
    }
}

// Integer range strategies.
macro_rules! int_range_strategy {
    ($($t:ty),+) => {$(
        impl Strategy for std::ops::Range<$t> {
            type Value = $t;
            fn generate(&self, rng: &mut TestRng) -> $t {
                let span = (self.end as i128 - self.start as i128) as u64;
                assert!(span > 0, "empty range strategy");
                (self.start as i128 + rng.below(span) as i128) as $t
            }
        }
        impl Strategy for std::ops::RangeInclusive<$t> {
            type Value = $t;
            fn generate(&self, rng: &mut TestRng) -> $t {
                let span = (*self.end() as i128 - *self.start() as i128 + 1) as u64;
                (*self.start() as i128 + rng.below(span) as i128) as $t
            }
        }
    )+};
}
int_range_strategy!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

// Tuple strategies (generated left to right).
macro_rules! tuple_strategy {
    ($(($($s:ident . $idx:tt),+))+) => {$(
        impl<$($s: Strategy),+> Strategy for ($($s,)+) {
            type Value = ($($s::Value,)+);
            fn generate(&self, rng: &mut TestRng) -> Self::Value {
                ($(self.$idx.generate(rng),)+)
            }
        }
    )+};
}
tuple_strategy! {
    (A.0)
    (A.0, B.1)
    (A.0, B.1, C.2)
    (A.0, B.1, C.2, D.3)
    (A.0, B.1, C.2, D.3, E.4)
    (A.0, B.1, C.2, D.3, E.4, F.5)
}

/// String strategy from a pattern: either `[class]{m,n}` (a character class
/// with `a-z` ranges and literal characters, repeated `m..=n` times) or a
/// plain literal. This covers the subset of proptest's regex strategies the
/// workspace uses.
impl Strategy for &'static str {
    type Value = String;
    fn generate(&self, rng: &mut TestRng) -> String {
        match parse_class_pattern(self) {
            Some((chars, lo, hi)) => {
                let len = lo + rng.below((hi - lo + 1) as u64) as usize;
                let mut out = String::with_capacity(len);
                for _ in 0..len {
                    out.push(chars[rng.below(chars.len() as u64) as usize]);
                }
                out
            }
            None => (*self).to_string(),
        }
    }
}

/// Parse `[class]{m,n}` into (alphabet, m, n); `None` means literal.
fn parse_class_pattern(pat: &str) -> Option<(Vec<char>, usize, usize)> {
    let rest = pat.strip_prefix('[')?;
    let close = rest.find(']')?;
    let class: Vec<char> = rest[..close].chars().collect();
    let quant = rest[close + 1..]
        .strip_prefix('{')?
        .strip_suffix('}')?
        .to_string();
    let (lo, hi) = quant.split_once(',')?;
    let lo: usize = lo.trim().parse().ok()?;
    let hi: usize = hi.trim().parse().ok()?;
    let mut chars = Vec::new();
    let mut i = 0;
    while i < class.len() {
        if i + 2 < class.len() && class[i + 1] == '-' {
            let (a, b) = (class[i] as u32, class[i + 2] as u32);
            for c in a..=b {
                chars.push(char::from_u32(c)?);
            }
            i += 3;
        } else {
            chars.push(class[i]);
            i += 1;
        }
    }
    if chars.is_empty() || hi < lo {
        return None;
    }
    Some((chars, lo, hi))
}

// ---------------------------------------------------------------------------
// any::<T>()
// ---------------------------------------------------------------------------

/// Types with a canonical full-domain strategy.
pub trait ArbitraryValue: Sized {
    /// Generate an arbitrary value of the type.
    fn arbitrary(rng: &mut TestRng) -> Self;
}

impl ArbitraryValue for bool {
    fn arbitrary(rng: &mut TestRng) -> bool {
        rng.next_u64() & 1 == 1
    }
}

macro_rules! arbitrary_int {
    ($($t:ty),+) => {$(
        impl ArbitraryValue for $t {
            fn arbitrary(rng: &mut TestRng) -> $t {
                rng.next_u64() as $t
            }
        }
    )+};
}
arbitrary_int!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

/// Strategy returned by [`any`].
#[derive(Clone, Debug)]
pub struct Any<T>(std::marker::PhantomData<T>);

impl<T: ArbitraryValue> Strategy for Any<T> {
    type Value = T;
    fn generate(&self, rng: &mut TestRng) -> T {
        T::arbitrary(rng)
    }
}

/// The full-domain strategy for `T` (`any::<bool>()` etc.).
pub fn any<T: ArbitraryValue>() -> Any<T> {
    Any(std::marker::PhantomData)
}

// ---------------------------------------------------------------------------
// collection / option modules
// ---------------------------------------------------------------------------

/// Size specification for collection strategies.
#[derive(Clone, Copy, Debug)]
pub struct SizeRange {
    lo: usize,
    /// Exclusive upper bound.
    hi: usize,
}

impl From<std::ops::Range<usize>> for SizeRange {
    fn from(r: std::ops::Range<usize>) -> SizeRange {
        assert!(r.end > r.start, "empty collection size range");
        SizeRange {
            lo: r.start,
            hi: r.end,
        }
    }
}

impl From<usize> for SizeRange {
    fn from(n: usize) -> SizeRange {
        SizeRange { lo: n, hi: n + 1 }
    }
}

impl SizeRange {
    fn sample(self, rng: &mut TestRng) -> usize {
        self.lo + rng.below((self.hi - self.lo) as u64) as usize
    }
}

/// Collection strategies (`collection::vec`, `collection::btree_set`).
pub mod collection {
    use super::*;

    /// Strategy for `Vec<S::Value>` with a length drawn from `size`.
    #[derive(Clone)]
    pub struct VecStrategy<S> {
        element: S,
        size: SizeRange,
    }

    impl<S: Strategy> Strategy for VecStrategy<S> {
        type Value = Vec<S::Value>;
        fn generate(&self, rng: &mut TestRng) -> Vec<S::Value> {
            let len = self.size.sample(rng);
            (0..len).map(|_| self.element.generate(rng)).collect()
        }
    }

    /// `Vec` strategy over `element` with the given size range.
    pub fn vec<S: Strategy>(element: S, size: impl Into<SizeRange>) -> VecStrategy<S> {
        VecStrategy {
            element,
            size: size.into(),
        }
    }

    /// Strategy for `BTreeSet<S::Value>`; duplicates collapse, so the
    /// resulting set may be smaller than the drawn length.
    #[derive(Clone)]
    pub struct BTreeSetStrategy<S> {
        element: S,
        size: SizeRange,
    }

    impl<S: Strategy> Strategy for BTreeSetStrategy<S>
    where
        S::Value: Ord,
    {
        type Value = std::collections::BTreeSet<S::Value>;
        fn generate(&self, rng: &mut TestRng) -> Self::Value {
            let len = self.size.sample(rng);
            (0..len).map(|_| self.element.generate(rng)).collect()
        }
    }

    /// `BTreeSet` strategy over `element` with the given size range.
    pub fn btree_set<S: Strategy>(element: S, size: impl Into<SizeRange>) -> BTreeSetStrategy<S>
    where
        S::Value: Ord,
    {
        BTreeSetStrategy {
            element,
            size: size.into(),
        }
    }
}

/// Option strategies (`option::of`).
pub mod option {
    use super::*;

    /// Strategy for `Option<S::Value>` (3:1 biased towards `Some`).
    #[derive(Clone)]
    pub struct OptionStrategy<S> {
        inner: S,
    }

    impl<S: Strategy> Strategy for OptionStrategy<S> {
        type Value = Option<S::Value>;
        fn generate(&self, rng: &mut TestRng) -> Option<S::Value> {
            if rng.below(4) == 0 {
                None
            } else {
                Some(self.inner.generate(rng))
            }
        }
    }

    /// `Option` strategy over `inner`.
    pub fn of<S: Strategy>(inner: S) -> OptionStrategy<S> {
        OptionStrategy { inner }
    }
}

// ---------------------------------------------------------------------------
// Failure reporting
// ---------------------------------------------------------------------------

/// Prints the failing case's seed when a test body panics, so the exact
/// inputs can be regenerated (generation is deterministic in the seed).
pub struct CaseGuard {
    name: &'static str,
    case: u32,
    seed: u64,
    armed: bool,
}

impl CaseGuard {
    /// Arm a guard for one case.
    pub fn new(name: &'static str, case: u32, seed: u64) -> CaseGuard {
        CaseGuard {
            name,
            case,
            seed,
            armed: true,
        }
    }

    /// The case completed: disarm.
    pub fn disarm(mut self) {
        self.armed = false;
    }
}

impl Drop for CaseGuard {
    fn drop(&mut self) {
        if self.armed && std::thread::panicking() {
            let mut msg = String::new();
            let _ = write!(
                msg,
                "proptest-shim: {} failed at case {} (case seed {:#018x})",
                self.name, self.case, self.seed
            );
            eprintln!("{msg}");
        }
    }
}

// ---------------------------------------------------------------------------
// Macros
// ---------------------------------------------------------------------------

/// Define property tests: each `fn name(binding in strategy, ...) { body }`
/// becomes a `#[test]` running `cases` generated inputs.
#[macro_export]
macro_rules! proptest {
    (
        #![proptest_config($cfg:expr)]
        $($rest:tt)*
    ) => {
        $crate::__proptest_fns!(($cfg) $($rest)*);
    };
    ( $($rest:tt)* ) => {
        $crate::__proptest_fns!(($crate::ProptestConfig::default()) $($rest)*);
    };
}

/// Internal expansion helper for [`proptest!`]; not for direct use.
#[doc(hidden)]
#[macro_export]
macro_rules! __proptest_fns {
    ( ($cfg:expr) ) => {};
    (
        ($cfg:expr)
        $(#[$meta:meta])*
        fn $name:ident( $( $arg:pat in $strat:expr ),+ $(,)? ) $body:block
        $($rest:tt)*
    ) => {
        $(#[$meta])*
        fn $name() {
            let __config: $crate::ProptestConfig = $cfg;
            let mut __rng = $crate::TestRng::for_test(concat!(module_path!(), "::", stringify!($name)));
            for __case in 0..__config.cases {
                let __seed = __rng.fork_seed();
                let __guard = $crate::CaseGuard::new(stringify!($name), __case, __seed);
                let mut __case_rng = $crate::TestRng::from_seed(__seed);
                $( let $arg = $crate::Strategy::generate(&($strat), &mut __case_rng); )+
                { $body }
                __guard.disarm();
            }
        }
        $crate::__proptest_fns!(($cfg) $($rest)*);
    };
}

/// Property assertion (panics on failure, like `assert!`).
#[macro_export]
macro_rules! prop_assert {
    ($($t:tt)*) => { assert!($($t)*) };
}

/// Property equality assertion (panics on failure, like `assert_eq!`).
#[macro_export]
macro_rules! prop_assert_eq {
    ($($t:tt)*) => { assert_eq!($($t)*) };
}

/// Uniform choice among strategies producing the same value type.
#[macro_export]
macro_rules! prop_oneof {
    ( $($arm:expr),+ $(,)? ) => {
        $crate::Union::new(vec![ $( $crate::Strategy::boxed($arm) ),+ ])
    };
}

/// The glob-import surface mirroring `proptest::prelude::*`.
pub mod prelude {
    pub use crate::{
        any, prop_assert, prop_assert_eq, prop_oneof, proptest, Any, ArbitraryValue, BoxedStrategy,
        Just, ProptestConfig, Strategy, TestRng, Union,
    };
}

#[cfg(test)]
mod tests {
    use super::prelude::*;

    #[test]
    fn ranges_are_in_bounds() {
        let mut rng = TestRng::for_test("ranges");
        for _ in 0..1000 {
            let v = Strategy::generate(&(3usize..17), &mut rng);
            assert!((3..17).contains(&v));
            let w = Strategy::generate(&(-8i64..8), &mut rng);
            assert!((-8..8).contains(&w));
        }
    }

    #[test]
    fn class_pattern_generates_from_alphabet() {
        let mut rng = TestRng::for_test("pattern");
        for _ in 0..200 {
            let s = Strategy::generate(&"[a-c ]{0,5}", &mut rng);
            assert!(s.len() <= 5);
            assert!(s.chars().all(|c| matches!(c, 'a'..='c' | ' ')));
        }
    }

    #[test]
    fn determinism_per_seed() {
        let gen = |seed| {
            let mut rng = TestRng::from_seed(seed);
            super::collection::vec(0u64..100, 0..10).generate(&mut rng)
        };
        assert_eq!(gen(42), gen(42));
        assert_ne!(gen(1), gen(2), "different seeds should differ");
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(16))]

        #[test]
        fn the_macro_itself_works(mut v in super::collection::vec(0usize..10, 1..5), b in any::<bool>()) {
            v.push(usize::from(b));
            prop_assert!(!v.is_empty());
            prop_assert_eq!(v.last().copied(), Some(usize::from(b)));
        }
    }
}
