//! Offline stand-in for `proptest` (see `crates/compat/` for the rationale).
//!
//! Implements the property-testing surface the workspace's tests use:
//!
//! * the [`proptest!`] macro (with an optional
//!   `#![proptest_config(ProptestConfig::with_cases(N))]` header; each
//!   function inside writes its own `#[test]`, as with real proptest),
//! * [`prop_assert!`], [`prop_assert_eq!`] and [`prop_assert_ne!`],
//! * strategies: numeric ranges, [`any`], [`Just`], tuples,
//!   [`collection::vec`], [`sample::select`], [`prop_oneof!`],
//!   [`Strategy::prop_map`] and [`Strategy::prop_flat_map`].
//!
//! Inputs are drawn from a deterministic per-case RNG: case `n` draws from
//! [`TestRng::deterministic`]`(n)`, so a failure reproduces by rerunning
//! the test. Unlike real proptest, a failure is shrunk on the *choice
//! sequence*, as the Hypothesis reducer does (MacIver & Donaldson, ECOOP
//! 2020), not on values: [`TestRng`] records every word it hands out, and
//! the shrinker replays edited word buffers through the same strategies.
//! A replay reads 0 past the buffer's end, every strategy maps 0 to its
//! simplest value (a range's low end, a vec's minimum length, a union's
//! first arm, `false`), and a word is recorded as the smallest word that
//! draws its value, so a smaller word is a simpler value and no strategy
//! needs shrinking code of its own. The report names the case, the shrunk
//! input and its buffer; [`TestRng::from_choices`] on that buffer replays
//! the shrunk input.
//! Bodies run under `catch_unwind`, so `assert!` and `unwrap` failures
//! shrink like [`prop_assert!`] failures.

use rand::prelude::*;
use std::cell::Cell;
use std::cmp::Ordering;
use std::fmt::Debug;
use std::ops::Range;
use std::panic::{self, AssertUnwindSafe};

/// Deterministic RNG handed to strategies: seeded per case, or replaying a
/// recorded word buffer. Either way it records every word it hands out.
pub struct TestRng {
    /// Fresh words once `choices` is used up; `None` when replaying.
    seeded: Option<StdRng>,
    /// The words handed out (seeded) or to hand out (replaying).
    choices: Vec<u64>,
    /// Words handed out so far (past `choices.len()` when a replay ran
    /// off its buffer's end).
    drawn: usize,
    /// Word ranges drawn by one nested strategy (a vec element, a tuple
    /// member, a union's arm): what the shrinker deletes or zeroes whole.
    spans: Vec<Range<usize>>,
}

impl TestRng {
    /// Builds the RNG for a given case index (deterministic across runs).
    pub fn deterministic(case: u64) -> Self {
        let seed = 0x50_52_4f_50u64 ^ case.wrapping_mul(0x9e3779b97f4a7c15);
        TestRng {
            seeded: Some(StdRng::seed_from_u64(seed)),
            ..TestRng::from_choices(Vec::new())
        }
    }

    /// Replays `choices` word by word, then 0 past their end.
    pub fn from_choices(choices: Vec<u64>) -> Self {
        TestRng {
            seeded: None,
            choices,
            drawn: 0,
            spans: Vec::new(),
        }
    }

    /// Uniform index in `[0, n)`.
    pub fn index(&mut self, n: usize) -> usize {
        assert!(n > 0, "cannot pick from an empty collection");
        let i = self.gen_range(0..n);
        self.settle(i as u64);
        i
    }

    /// Rewrites the word just drawn as `word`, the smallest word that draws
    /// the same value. The value drawn does not change, but the shrinker's
    /// order on words becomes the order on values, so lowering a word by
    /// binary search lowers its value.
    fn settle(&mut self, word: u64) {
        if let Some(last) = self.choices.get_mut(self.drawn - 1) {
            *last = word;
        }
    }

    /// The words this run has used, with the zeros a replay would supply
    /// anyway trimmed off the end: the buffer that replays this run.
    fn used(&self) -> Vec<u64> {
        let mut used = self.choices[..self.drawn.min(self.choices.len())].to_vec();
        while used.last() == Some(&0) {
            used.pop();
        }
        used
    }

    /// Generates from `strategy`, marking the words it draws as one span.
    fn span<S: Strategy + ?Sized>(&mut self, strategy: &S) -> S::Value {
        let start = self.drawn;
        let value = strategy.generate(self);
        if self.drawn > start {
            self.spans.push(start..self.drawn);
        }
        value
    }
}

impl RngCore for TestRng {
    fn next_u64(&mut self) -> u64 {
        let word = match (self.choices.get(self.drawn), &mut self.seeded) {
            (Some(&word), _) => word,
            (None, Some(rng)) => {
                let word = rng.next_u64();
                self.choices.push(word);
                word
            }
            (None, None) => 0,
        };
        self.drawn += 1;
        word
    }
}

/// A failed test case.
#[derive(Debug)]
pub struct TestCaseError {
    message: String,
}

impl TestCaseError {
    /// A failure with a message.
    pub fn fail(message: impl Into<String>) -> Self {
        TestCaseError {
            message: message.into(),
        }
    }
}

impl std::fmt::Display for TestCaseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.message)
    }
}

/// Per-test configuration.
#[derive(Debug, Clone)]
pub struct ProptestConfig {
    /// Number of random cases to run.
    pub cases: u32,
}

impl Default for ProptestConfig {
    fn default() -> Self {
        ProptestConfig { cases: 64 }
    }
}

impl ProptestConfig {
    /// A configuration running `cases` random cases.
    pub fn with_cases(cases: u32) -> Self {
        ProptestConfig { cases }
    }
}

/// A generator of random values of `Self::Value`.
pub trait Strategy {
    /// The type of generated values.
    type Value;

    /// Draws one value.
    fn generate(&self, rng: &mut TestRng) -> Self::Value;

    /// A strategy producing `f(value)` for generated values.
    fn prop_map<U, F>(self, f: F) -> MapStrategy<Self, F>
    where
        Self: Sized,
        F: Fn(Self::Value) -> U,
    {
        MapStrategy { inner: self, f }
    }

    /// A strategy that generates an intermediate value and then draws from
    /// the strategy `f` builds from it.
    fn prop_flat_map<S2, F>(self, f: F) -> FlatMapStrategy<Self, F>
    where
        Self: Sized,
        S2: Strategy,
        F: Fn(Self::Value) -> S2,
    {
        FlatMapStrategy { inner: self, f }
    }

    /// Type-erases the strategy.
    fn boxed(self) -> BoxedStrategy<Self::Value>
    where
        Self: Sized + 'static,
    {
        Box::new(self)
    }
}

/// A type-erased strategy.
pub type BoxedStrategy<T> = Box<dyn Strategy<Value = T>>;

impl<T> Strategy for Box<dyn Strategy<Value = T>> {
    type Value = T;

    fn generate(&self, rng: &mut TestRng) -> T {
        (**self).generate(rng)
    }
}

impl<S: Strategy + ?Sized> Strategy for &S {
    type Value = S::Value;

    fn generate(&self, rng: &mut TestRng) -> S::Value {
        (**self).generate(rng)
    }
}

/// Always yields a clone of its value.
#[derive(Debug, Clone)]
pub struct Just<T: Clone>(pub T);

impl<T: Clone> Strategy for Just<T> {
    type Value = T;

    fn generate(&self, _rng: &mut TestRng) -> T {
        self.0.clone()
    }
}

/// See [`Strategy::prop_map`].
pub struct MapStrategy<S, F> {
    inner: S,
    f: F,
}

impl<S, F, U> Strategy for MapStrategy<S, F>
where
    S: Strategy,
    F: Fn(S::Value) -> U,
{
    type Value = U;

    fn generate(&self, rng: &mut TestRng) -> U {
        (self.f)(self.inner.generate(rng))
    }
}

/// See [`Strategy::prop_flat_map`].
pub struct FlatMapStrategy<S, F> {
    inner: S,
    f: F,
}

impl<S, F, S2> Strategy for FlatMapStrategy<S, F>
where
    S: Strategy,
    S2: Strategy,
    F: Fn(S::Value) -> S2,
{
    type Value = S2::Value;

    fn generate(&self, rng: &mut TestRng) -> S2::Value {
        let then = (self.f)(self.inner.generate(rng));
        rng.span(&then)
    }
}

/// Uniform choice between several strategies (see [`prop_oneof!`]).
pub struct Union<T> {
    options: Vec<BoxedStrategy<T>>,
}

impl<T> Union<T> {
    /// Builds a union; panics when `options` is empty.
    pub fn new(options: Vec<BoxedStrategy<T>>) -> Self {
        assert!(!options.is_empty(), "prop_oneof! needs at least one option");
        Union { options }
    }
}

impl<T> Strategy for Union<T> {
    type Value = T;

    fn generate(&self, rng: &mut TestRng) -> T {
        let i = rng.index(self.options.len());
        rng.span(&self.options[i])
    }
}

// Numeric ranges are strategies themselves, as in real proptest.
macro_rules! int_range_strategy {
    ($($t:ty),*) => {$(
        impl Strategy for std::ops::Range<$t> {
            type Value = $t;

            fn generate(&self, rng: &mut TestRng) -> $t {
                let value = rng.gen_range(self.clone());
                rng.settle((value as i128 - self.start as i128) as u64);
                value
            }
        }
        impl Strategy for std::ops::RangeInclusive<$t> {
            type Value = $t;

            fn generate(&self, rng: &mut TestRng) -> $t {
                let value = rng.gen_range(self.clone());
                rng.settle((value as i128 - *self.start() as i128) as u64);
                value
            }
        }
    )*};
}
int_range_strategy!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

impl Strategy for std::ops::Range<f64> {
    type Value = f64;

    fn generate(&self, rng: &mut TestRng) -> f64 {
        rng.gen_range(self.clone())
    }
}

macro_rules! tuple_strategy {
    ($(($($name:ident . $idx:tt),+)),+ $(,)?) => {$(
        impl<$($name: Strategy),+> Strategy for ($($name,)+) {
            type Value = ($($name::Value,)+);

            fn generate(&self, rng: &mut TestRng) -> Self::Value {
                ($(rng.span(&self.$idx),)+)
            }
        }
    )+};
}
tuple_strategy!(
    (A.0, B.1),
    (A.0, B.1, C.2),
    (A.0, B.1, C.2, D.3),
    (A.0, B.1, C.2, D.3, E.4),
    (A.0, B.1, C.2, D.3, E.4, F.5),
);

/// Types with a canonical "any value" strategy.
pub trait Arbitrary: Sized {
    /// Draws an arbitrary value.
    fn arbitrary(rng: &mut TestRng) -> Self;
}

macro_rules! arbitrary_int {
    ($($t:ty),*) => {$(
        impl Arbitrary for $t {
            fn arbitrary(rng: &mut TestRng) -> $t {
                let word = rng.next_u64();
                rng.settle(word & (u64::MAX >> (64 - <$t>::BITS)));
                word as $t
            }
        }
    )*};
}
arbitrary_int!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

impl Arbitrary for bool {
    fn arbitrary(rng: &mut TestRng) -> bool {
        let bit = rng.next_u64() & 1;
        rng.settle(bit);
        bit == 1
    }
}

/// Strategy form of [`Arbitrary`]; see [`any`].
pub struct Any<T> {
    _marker: std::marker::PhantomData<T>,
}

impl<T: Arbitrary> Strategy for Any<T> {
    type Value = T;

    fn generate(&self, rng: &mut TestRng) -> T {
        T::arbitrary(rng)
    }
}

/// The canonical strategy for `T`.
pub fn any<T: Arbitrary>() -> Any<T> {
    Any {
        _marker: std::marker::PhantomData,
    }
}

/// Collection strategies.
pub mod collection {
    use super::{Strategy, TestRng};

    /// An inclusive-exclusive length range for [`vec`].
    #[derive(Debug, Clone, Copy)]
    pub struct SizeRange {
        lo: usize,
        hi: usize,
    }

    impl From<usize> for SizeRange {
        fn from(exact: usize) -> Self {
            SizeRange {
                lo: exact,
                hi: exact + 1,
            }
        }
    }

    impl From<std::ops::Range<usize>> for SizeRange {
        fn from(r: std::ops::Range<usize>) -> Self {
            assert!(r.start < r.end, "empty vec length range");
            SizeRange {
                lo: r.start,
                hi: r.end,
            }
        }
    }

    impl From<std::ops::RangeInclusive<usize>> for SizeRange {
        fn from(r: std::ops::RangeInclusive<usize>) -> Self {
            SizeRange {
                lo: *r.start(),
                hi: *r.end() + 1,
            }
        }
    }

    /// Generates `Vec`s whose length is drawn from `size` and whose elements
    /// are drawn from `element`.
    pub fn vec<S: Strategy>(element: S, size: impl Into<SizeRange>) -> VecStrategy<S> {
        VecStrategy {
            element,
            size: size.into(),
        }
    }

    /// See [`vec`].
    pub struct VecStrategy<S> {
        element: S,
        size: SizeRange,
    }

    impl<S: Strategy> Strategy for VecStrategy<S> {
        type Value = Vec<S::Value>;

        fn generate(&self, rng: &mut TestRng) -> Vec<S::Value> {
            let len = if self.size.hi - self.size.lo <= 1 {
                self.size.lo
            } else {
                self.size.lo + rng.index(self.size.hi - self.size.lo)
            };
            (0..len).map(|_| rng.span(&self.element)).collect()
        }
    }
}

/// Sampling strategies.
pub mod sample {
    use super::{Strategy, TestRng};

    /// A uniform choice from a fixed set of values.
    pub struct Select<T: Clone> {
        items: Vec<T>,
    }

    /// Uniformly selects one of `items`; panics if empty.
    pub fn select<T: Clone>(items: impl IntoIterator<Item = T>) -> Select<T> {
        let items: Vec<T> = items.into_iter().collect();
        assert!(!items.is_empty(), "select() needs at least one item");
        Select { items }
    }

    impl<T: Clone> Strategy for Select<T> {
        type Value = T;

        fn generate(&self, rng: &mut TestRng) -> T {
            self.items[rng.index(self.items.len())].clone()
        }
    }
}

/// Re-runs one failure's shrinking may spend before it reports what it has.
const SHRINK_RUNS: usize = 4096;

thread_local! {
    /// Set while this thread re-runs a failing property to shrink it.
    static SHRINKING: Cell<bool> = const { Cell::new(false) };
}

/// A failing case and its shrunk input.
struct Failure<V> {
    case: u64,
    /// The shrunk input's failure.
    message: String,
    /// The buffer that replays the shrunk input.
    choices: Vec<u64>,
    input: V,
    /// Re-runs spent shrinking.
    runs: usize,
}

/// Runs `config.cases` cases of a property and panics on the first failure
/// with its shrunk input. [`proptest!`] expands to a call of this.
#[doc(hidden)]
pub fn run_cases<V: Debug>(
    config: &ProptestConfig,
    names: &str,
    generate: impl Fn(&mut TestRng) -> V,
    check: impl Fn(V) -> Result<(), TestCaseError>,
) {
    if let Some(failure) = find_failure(config, &generate, &check) {
        panic!(
            "proptest case {} failed: {}\nminimal failing input {names} = {:#?}\n\
             shrunk in {} re-runs; replay with TestRng::from_choices(vec!{:?})",
            failure.case, failure.message, failure.input, failure.runs, failure.choices
        );
    }
}

/// Runs the cases in order and shrinks the first one that fails.
fn find_failure<V>(
    config: &ProptestConfig,
    generate: &impl Fn(&mut TestRng) -> V,
    check: &impl Fn(V) -> Result<(), TestCaseError>,
) -> Option<Failure<V>> {
    let run = |rng: &mut TestRng| -> Result<(), String> {
        match panic::catch_unwind(AssertUnwindSafe(|| check(generate(rng)))) {
            Ok(result) => result.map_err(|e| e.to_string()),
            Err(payload) => Err(match payload.downcast::<String>() {
                Ok(message) => *message,
                Err(payload) => match payload.downcast::<&str>() {
                    Ok(message) => message.to_string(),
                    Err(_) => "panicked".to_string(),
                },
            }),
        }
    };
    let (case, rng) = (0..config.cases as u64).find_map(|case| {
        let mut rng = TestRng::deterministic(case);
        run(&mut rng).is_err().then_some((case, rng))
    })?;
    quiet_panics_while_shrinking();
    SHRINKING.with(|on| on.set(true));
    let mut shrinker = Shrinker {
        fails: &|rng: &mut TestRng| run(rng).is_err(),
        best: rng.used(),
        spans: rng.spans,
        runs: 0,
    };
    shrinker.shrink();
    let Shrinker { best, runs, .. } = shrinker;
    let replayed = run(&mut TestRng::from_choices(best.clone()));
    SHRINKING.with(|on| on.set(false));
    Some(Failure {
        case,
        message: replayed.err().unwrap_or_else(|| {
            "the shrunk input passed when replayed: the property is not deterministic".into()
        }),
        input: generate(&mut TestRng::from_choices(best.clone())),
        choices: best,
        runs,
    })
}

/// Wraps the panic hook, once per process, so that the re-runs of a
/// shrinking thread print nothing while every other panic prints as before.
fn quiet_panics_while_shrinking() {
    static WRAP: std::sync::Once = std::sync::Once::new();
    WRAP.call_once(|| {
        let previous = panic::take_hook();
        panic::set_hook(Box::new(move |info| {
            if !SHRINKING.with(Cell::get) {
                previous(info);
            }
        }));
    });
}

/// Shortlex order: a shorter buffer is smaller, then word by word.
fn shortlex(a: &[u64], b: &[u64]) -> Ordering {
    a.len().cmp(&b.len()).then_with(|| a.cmp(b))
}

/// Reduces a failing word buffer, keeping an edit only when the property
/// still fails and the buffer it used is shortlex-smaller.
struct Shrinker<'a> {
    fails: &'a dyn Fn(&mut TestRng) -> bool,
    best: Vec<u64>,
    /// The spans the run of `best` recorded.
    spans: Vec<Range<usize>>,
    runs: usize,
}

impl Shrinker<'_> {
    /// Deletes spans, zeroes spans, lowers words and swaps neighbours,
    /// round after round, until a round changes nothing or the re-run
    /// budget is spent.
    fn shrink(&mut self) {
        loop {
            let before = self.best.clone();
            self.each_span(|words, span| {
                words.drain(span);
                true
            });
            // Single words are tried at zero first by `lower_words`.
            self.each_span(|words, span| {
                let span = &mut words[span];
                let zeroes = span.len() > 1 && span.iter().any(|&w| w != 0);
                span.fill(0);
                zeroes
            });
            self.lower_words();
            self.swap_neighbours();
            if self.best == before || self.runs >= SHRINK_RUNS {
                return;
            }
        }
    }

    /// Replays `candidate` and keeps what it used if the property still
    /// fails on a shortlex-smaller buffer.
    fn keep(&mut self, candidate: Vec<u64>) -> bool {
        if self.runs >= SHRINK_RUNS {
            return false;
        }
        self.runs += 1;
        let mut rng = TestRng::from_choices(candidate);
        if !(self.fails)(&mut rng) {
            return false;
        }
        let used = rng.used();
        if shortlex(&used, &self.best) != Ordering::Less {
            return false;
        }
        self.best = used;
        self.spans = rng.spans;
        true
    }

    /// The recorded spans and every single word, longest first, clipped to
    /// the buffer.
    fn spans(&self) -> Vec<Range<usize>> {
        let len = self.best.len();
        let mut spans: Vec<Range<usize>> = (self.spans.iter())
            .filter(|span| span.start < len)
            .map(|span| span.start..span.end.min(len))
            .chain((0..len).map(|i| i..i + 1))
            .collect();
        spans.sort_by_key(|span| (usize::MAX - span.len(), span.start));
        spans.dedup();
        spans
    }

    /// Applies `edit` to each span in turn, longest first, and keeps what
    /// it can; `edit` returns false when it would change nothing.
    fn each_span(&mut self, edit: impl Fn(&mut Vec<u64>, Range<usize>) -> bool) {
        let mut i = 0;
        while let Some(span) = self.spans().get(i).cloned() {
            let mut candidate = self.best.clone();
            if !edit(&mut candidate, span) || !self.keep(candidate) {
                i += 1;
            }
        }
    }

    /// Lowers each word by binary search toward 0: `hi` always fails,
    /// `lo` never does.
    fn lower_words(&mut self) {
        let mut at = 0;
        while at < self.best.len() {
            let with = |best: &[u64], word| {
                let mut candidate = best.to_vec();
                candidate[at] = word;
                candidate
            };
            let hi = self.best[at];
            if hi != 0 && !self.keep(with(&self.best, 0)) {
                let (mut lo, mut hi) = (0, hi);
                while hi - lo > 1 && self.runs < SHRINK_RUNS && at < self.best.len() {
                    let mid = lo + (hi - lo) / 2;
                    if self.keep(with(&self.best, mid)) {
                        hi = mid;
                    } else {
                        lo = mid;
                    }
                }
            }
            at += 1;
        }
    }

    /// Swaps each pair of neighbouring words that is out of order.
    fn swap_neighbours(&mut self) {
        for at in 1..self.best.len() {
            if at < self.best.len() && self.best[at - 1] > self.best[at] {
                let mut candidate = self.best.clone();
                candidate.swap(at - 1, at);
                self.keep(candidate);
            }
        }
    }
}

/// Submodule aliases matching real proptest's `prop::` path.
pub mod prop {
    pub use crate::{collection, sample};
}

/// The usual glob import for tests.
pub mod prelude {
    pub use crate::{
        any, collection, prop, prop_assert, prop_assert_eq, prop_assert_ne, prop_oneof, proptest,
        sample, Any, Arbitrary, BoxedStrategy, Just, ProptestConfig, Strategy, TestCaseError,
        TestRng,
    };
}

/// Defines functions whose arguments are drawn from strategies. As in
/// real proptest, the macro adds no `#[test]`: each function carries its
/// own, so a suite that writes one registers the property exactly once.
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($cfg:expr)] $($rest:tt)*) => {
        $crate::__proptest_fns!{ cfg = $cfg; $($rest)* }
    };
    ($($rest:tt)*) => {
        $crate::__proptest_fns!{ cfg = $crate::ProptestConfig::default(); $($rest)* }
    };
}

/// Implementation detail of [`proptest!`].
#[doc(hidden)]
#[macro_export]
macro_rules! __proptest_fns {
    (cfg = $cfg:expr; $(#[$meta:meta])* fn $name:ident($($pat:pat in $strat:expr),+ $(,)?) $body:block $($rest:tt)*) => {
        $(#[$meta])*
        fn $name() {
            let config: $crate::ProptestConfig = $cfg;
            $crate::run_cases(
                &config,
                stringify!(($($pat),+)),
                |rng: &mut $crate::TestRng| ($($crate::Strategy::generate(&($strat), rng),)+),
                |($($pat,)+)| -> ::std::result::Result<(), $crate::TestCaseError> {
                    $body;
                    ::std::result::Result::Ok(())
                },
            );
        }
        $crate::__proptest_fns!{ cfg = $cfg; $($rest)* }
    };
    (cfg = $cfg:expr;) => {};
}

/// Fails the enclosing property when the condition is false.
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr) => {
        $crate::prop_assert!($cond, "assertion failed: {}", stringify!($cond))
    };
    ($cond:expr, $($fmt:tt)+) => {
        if !($cond) {
            return ::std::result::Result::Err($crate::TestCaseError::fail(format!($($fmt)+)));
        }
    };
}

/// Fails the enclosing property when the values differ.
#[macro_export]
macro_rules! prop_assert_eq {
    ($left:expr, $right:expr $(,)?) => {{
        let (l, r) = (&$left, &$right);
        $crate::prop_assert!(
            l == r,
            "assertion failed: {} == {}\n  left: {:?}\n right: {:?}",
            stringify!($left),
            stringify!($right),
            l,
            r
        );
    }};
    ($left:expr, $right:expr, $($fmt:tt)+) => {{
        let (l, r) = (&$left, &$right);
        $crate::prop_assert!(l == r, $($fmt)+);
    }};
}

/// Fails the enclosing property when the values are equal.
#[macro_export]
macro_rules! prop_assert_ne {
    ($left:expr, $right:expr $(,)?) => {{
        let (l, r) = (&$left, &$right);
        $crate::prop_assert!(
            l != r,
            "assertion failed: {} != {}\n  both: {:?}",
            stringify!($left),
            stringify!($right),
            l
        );
    }};
    ($left:expr, $right:expr, $($fmt:tt)+) => {{
        let (l, r) = (&$left, &$right);
        $crate::prop_assert!(l != r, $($fmt)+);
    }};
}

/// Uniform choice between strategies with the same value type.
#[macro_export]
macro_rules! prop_oneof {
    ($($strat:expr),+ $(,)?) => {
        $crate::Union::new(vec![$(::std::boxed::Box::new($strat) as $crate::BoxedStrategy<_>),+])
    };
}

#[cfg(test)]
mod tests {
    use crate::prelude::*;
    use crate::{find_failure, Failure};

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        #[test]
        fn ranges_stay_in_bounds(x in 3usize..10, y in 0u16..=4) {
            prop_assert!((3..10).contains(&x));
            prop_assert!(y <= 4);
        }

        #[test]
        fn tuples_and_maps_compose((a, b) in (0u32..5, 0u32..5), c in (0u32..3).prop_map(|v| v * 2)) {
            prop_assert!(a < 5 && b < 5);
            prop_assert!(c % 2 == 0 && c <= 4);
        }

        #[test]
        fn vec_lengths_follow_size_range(v in collection::vec(0u8..255, 2..6), w in prop::collection::vec(any::<u32>(), 3)) {
            prop_assert!((2..6).contains(&v.len()));
            prop_assert_eq!(w.len(), 3);
        }

        #[test]
        fn select_and_oneof_pick_members(
            s in sample::select(vec![10u32, 20, 30]),
            o in prop_oneof![Just(1.0f64), Just(0.5)],
        ) {
            prop_assert!([10, 20, 30].contains(&s));
            prop_assert!(o == 1.0 || o == 0.5);
        }

        #[test]
        #[should_panic(expected = "proptest case 0 failed: x was only 0")]
        fn failures_report_the_case_and_the_shrunk_input(x in 0usize..10) {
            prop_assert!(x > 100, "x was only {x}");
        }
    }

    /// The value of `strategy` in each of cases 0..8.
    fn first_values<S: Strategy>(strategy: S) -> Vec<S::Value> {
        (0..8)
            .map(|case| strategy.generate(&mut TestRng::deterministic(case)))
            .collect()
    }

    /// Recording draws must not move them: these are the values every
    /// strategy kind drew before the shim recorded anything.
    #[test]
    fn the_draw_stream_is_pinned() {
        assert_eq!(
            first_values(0u32..1000),
            [304, 590, 847, 579, 387, 171, 731, 834]
        );
        assert_eq!(first_values(-5i64..=5), [5, 0, -5, 0, 3, 0, -4, -3]);
        assert_eq!(
            first_values(any::<bool>()),
            [false, false, true, true, true, true, true, false]
        );
        assert_eq!(
            first_values(any::<u64>()),
            [
                17802651030279904304,
                8121849361409170590,
                13394884595131358847,
                8859727170489274579,
                8393877368745742387,
                6435626986847048171,
                12879064384197620731,
                6195130747779112834
            ]
        );
        assert_eq!(
            first_values((0u8..10, any::<bool>())),
            [
                (4, true),
                (0, true),
                (7, false),
                (9, true),
                (7, false),
                (1, true),
                (1, false),
                (4, false)
            ]
        );
        let vecs: [&[u16]; 8] = [
            &[41, 81, 34, 10],
            &[],
            &[32, 6],
            &[31, 76, 96, 9],
            &[42, 28],
            &[55],
            &[64],
            &[92, 90, 66, 6],
        ];
        assert_eq!(first_values(collection::vec(0u16..100, 0..5)), vecs);
        assert_eq!(
            first_values(sample::select(vec!["a", "b", "c", "d"])),
            ["a", "c", "d", "d", "d", "d", "d", "c"]
        );
        assert_eq!(
            first_values(prop_oneof![Just(0u32), 10u32..20, 100u32..200]),
            [141u32, 0, 0, 11, 12, 155, 14, 12]
        );
        assert_eq!(
            first_values((0u32..50).prop_map(|v| v * 3)),
            [12, 120, 141, 87, 111, 63, 93, 102]
        );
        assert_eq!(
            first_values(-1.5f64..2.5),
            [
                2.360334584606155,
                0.26114534444796567,
                1.4045525956468068,
                0.4211470891746645,
                0.3201320157542087,
                -0.10449584791081801,
                1.292701916985549,
                -0.15664515688522807
            ]
        );
        let flat: [&[u8]; 8] = [
            &[1, 1, 2],
            &[3],
            &[0],
            &[3, 0],
            &[2, 0],
            &[3, 0, 0],
            &[0, 3],
            &[0, 2],
        ];
        assert_eq!(
            first_values((1usize..4).prop_flat_map(|n| collection::vec(0u8..4, n))),
            flat
        );
    }

    #[test]
    fn a_replay_reads_zero_past_its_end_and_zero_is_the_simplest_value() {
        let strategy = (
            collection::vec(5u32..9, 2..6),
            prop_oneof![Just('a'), Just('b')],
            any::<bool>(),
        );
        let simplest = strategy.generate(&mut TestRng::from_choices(Vec::new()));
        assert_eq!(simplest, (vec![5, 5], 'a', false));
    }

    /// Fails when some 3 comes before some 7; its two-element core is [3, 7].
    fn three_before_seven(v: &[u32]) -> bool {
        let first_three = v.iter().position(|&x| x == 3);
        first_three.is_some_and(|at| v[at..].contains(&7))
    }

    fn shrink_planted<E: std::fmt::Debug>(
        check: impl Fn(Vec<u32>) -> Result<(), E>,
    ) -> Failure<Vec<u32>> {
        let vecs = collection::vec(0u32..100, 0..60);
        find_failure(
            &ProptestConfig::default(),
            &|rng: &mut TestRng| vecs.generate(rng),
            &|v| check(v).map_err(|e| TestCaseError::fail(format!("{e:?}"))),
        )
        .expect("some case puts a 3 before a 7")
    }

    #[test]
    fn a_planted_failure_shrinks_to_its_core() {
        let failure = shrink_planted(|v| match three_before_seven(&v) {
            true => Err(v),
            false => Ok(()),
        });
        assert_eq!(failure.input, [3, 7]);
        assert_eq!(failure.message, "[3, 7]");
        assert!(failure.runs < 2000, "{} re-runs", failure.runs);
    }

    #[test]
    fn a_panicking_body_shrinks_too() {
        let failure = shrink_planted(|v| {
            assert!(!three_before_seven(&v), "3 before 7 in {v:?}");
            Ok::<(), ()>(())
        });
        assert_eq!(failure.input, [3, 7]);
        assert_eq!(failure.message, "3 before 7 in [3, 7]");
    }

    #[test]
    fn the_printed_buffer_replays_the_failure() {
        let failure = shrink_planted(|v| match three_before_seven(&v) {
            true => Err(()),
            false => Ok(()),
        });
        let vecs = collection::vec(0u32..100, 0..60);
        let replayed = vecs.generate(&mut TestRng::from_choices(failure.choices.clone()));
        assert_eq!(replayed, failure.input);
        assert!(three_before_seven(&replayed));
        // A length word and one word per element, each the smallest that
        // draws its value.
        assert_eq!(failure.choices, [2, 3, 7]);
    }
}
