//! A minimal property-testing harness with generator combinators and linear
//! shrinking.
//!
//! The design follows Hedgehog rather than classic QuickCheck: a
//! [`Strategy`] produces a lazy [`Tree`] whose root is the generated value
//! and whose children are progressively simpler candidate values. On
//! failure the runner walks the tree greedily — repeatedly moving to the
//! first child that still fails — which yields linear-time shrinking and
//! composes through `prop_map`/`prop_flat_map` without any per-type
//! shrinking code in user tests.
//!
//! Every case is seeded deterministically from the property name and the
//! case index, so a failure report's seed replays exactly, on any machine:
//!
//! ```text
//! TESTKIT_SEED=<seed> cargo test <property_name>
//! ```
//!
//! Environment knobs:
//!
//! - `TESTKIT_CASES`: cases per property (default 256).
//! - `TESTKIT_SEED`: replay a single reported case instead of the full run.
//!
//! # Examples
//!
//! ```
//! use testkit::prelude::*;
//!
//! proptest! {
//!     #[test]
//!     fn addition_commutes(a in 0u64..1000, b in 0u64..1000) {
//!         prop_assert_eq!(a + b, b + a);
//!     }
//! }
//! ```

use crate::rng::{derive_seed, Rng, Xoshiro256pp};
use std::fmt::Debug;
use std::marker::PhantomData;
use std::ops::{Range, RangeInclusive};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::rc::Rc;

// ---------------------------------------------------------------- shrink tree

/// A generated value plus a lazy list of simpler candidate values.
pub struct Tree<T> {
    value: T,
    shrinks: Rc<dyn Fn() -> Vec<Tree<T>>>,
}

impl<T: Clone> Clone for Tree<T> {
    fn clone(&self) -> Self {
        Tree {
            value: self.value.clone(),
            shrinks: Rc::clone(&self.shrinks),
        }
    }
}

impl<T: Clone + 'static> Tree<T> {
    /// A tree with no shrink candidates.
    pub fn leaf(value: T) -> Self {
        Tree {
            value,
            shrinks: Rc::new(Vec::new),
        }
    }

    /// A tree with lazily computed shrink candidates (simplest first).
    pub fn with_shrinks(value: T, shrinks: impl Fn() -> Vec<Tree<T>> + 'static) -> Self {
        Tree {
            value,
            shrinks: Rc::new(shrinks),
        }
    }

    /// The generated value.
    pub fn value(&self) -> &T {
        &self.value
    }

    /// The one-step shrink candidates.
    pub fn shrinks(&self) -> Vec<Tree<T>> {
        (self.shrinks)()
    }

    fn map<O: Clone + 'static>(&self, f: Rc<dyn Fn(&T) -> O>) -> Tree<O> {
        let value = f(&self.value);
        let inner = self.clone();
        Tree::with_shrinks(value, move || {
            inner.shrinks().iter().map(|t| t.map(Rc::clone(&f))).collect()
        })
    }
}

// ------------------------------------------------------------------ strategy

/// A recipe for generating shrinkable values of one type.
pub trait Strategy: Clone + 'static {
    /// The type of value generated.
    type Value: Clone + Debug + 'static;

    /// Generates one value with its shrink tree.
    fn new_tree(&self, rng: &mut Xoshiro256pp) -> Tree<Self::Value>;

    /// Transforms generated values; shrinking happens on the inputs and is
    /// re-mapped, so mapped strategies shrink for free.
    fn prop_map<O, F>(self, f: F) -> Map<Self, O>
    where
        O: Clone + Debug + 'static,
        F: Fn(Self::Value) -> O + 'static,
    {
        Map {
            inner: self,
            f: Rc::new(move |v: &Self::Value| f(v.clone())),
        }
    }

    /// Builds a dependent strategy from each generated value. Shrinking
    /// first simplifies the outer value (regenerating the inner one from a
    /// pinned seed), then the inner value.
    fn prop_flat_map<S2, F>(self, f: F) -> FlatMap<Self, S2>
    where
        S2: Strategy,
        F: Fn(Self::Value) -> S2 + 'static,
    {
        FlatMap {
            inner: self,
            f: Rc::new(f),
        }
    }

    /// Type-erases the strategy (needed by [`one_of`] / `prop_oneof!`).
    fn boxed(self) -> BoxedStrategy<Self::Value> {
        BoxedStrategy(Rc::new(self))
    }
}

/// See [`Strategy::prop_map`].
pub struct Map<S: Strategy, O> {
    inner: S,
    f: Rc<dyn Fn(&S::Value) -> O>,
}

impl<S: Strategy, O> Clone for Map<S, O> {
    fn clone(&self) -> Self {
        Map {
            inner: self.inner.clone(),
            f: Rc::clone(&self.f),
        }
    }
}

impl<S: Strategy, O: Clone + Debug + 'static> Strategy for Map<S, O> {
    type Value = O;

    fn new_tree(&self, rng: &mut Xoshiro256pp) -> Tree<O> {
        self.inner.new_tree(rng).map(Rc::clone(&self.f))
    }
}

/// See [`Strategy::prop_flat_map`].
pub struct FlatMap<S: Strategy, S2> {
    inner: S,
    f: Rc<dyn Fn(S::Value) -> S2>,
}

impl<S: Strategy, S2> Clone for FlatMap<S, S2> {
    fn clone(&self) -> Self {
        FlatMap {
            inner: self.inner.clone(),
            f: Rc::clone(&self.f),
        }
    }
}

impl<S: Strategy, S2: Strategy> Strategy for FlatMap<S, S2> {
    type Value = S2::Value;

    fn new_tree(&self, rng: &mut Xoshiro256pp) -> Tree<S2::Value> {
        let outer = self.inner.new_tree(rng);
        // Pin the inner generation seed so shrinking the outer value replays
        // the "same" inner randomness instead of resampling fresh noise.
        let seed = rng.next_u64();
        flat_tree(&outer, Rc::clone(&self.f), seed)
    }
}

fn flat_tree<T, S2>(outer: &Tree<T>, f: Rc<dyn Fn(T) -> S2>, seed: u64) -> Tree<S2::Value>
where
    T: Clone + 'static,
    S2: Strategy,
{
    let strat = f(outer.value().clone());
    let inner = strat.new_tree(&mut Xoshiro256pp::seed_from_u64(seed));
    let outer = outer.clone();
    let inner2 = inner.clone();
    Tree::with_shrinks(inner.value().clone(), move || {
        let mut candidates: Vec<Tree<S2::Value>> = outer
            .shrinks()
            .iter()
            .map(|o| flat_tree(o, Rc::clone(&f), seed))
            .collect();
        candidates.extend(inner2.shrinks());
        candidates
    })
}

trait DynStrategy<T> {
    fn dyn_new_tree(&self, rng: &mut Xoshiro256pp) -> Tree<T>;
}

impl<S: Strategy> DynStrategy<S::Value> for S {
    fn dyn_new_tree(&self, rng: &mut Xoshiro256pp) -> Tree<S::Value> {
        self.new_tree(rng)
    }
}

/// A type-erased [`Strategy`].
pub struct BoxedStrategy<T>(Rc<dyn DynStrategy<T>>);

impl<T> Clone for BoxedStrategy<T> {
    fn clone(&self) -> Self {
        BoxedStrategy(Rc::clone(&self.0))
    }
}

impl<T: Clone + Debug + 'static> Strategy for BoxedStrategy<T> {
    type Value = T;

    fn new_tree(&self, rng: &mut Xoshiro256pp) -> Tree<T> {
        self.0.dyn_new_tree(rng)
    }
}

/// Picks one of several same-typed strategies uniformly per case.
/// Shrinking stays within the chosen alternative.
#[derive(Clone)]
pub struct OneOf<T> {
    choices: Vec<BoxedStrategy<T>>,
}

/// See [`OneOf`]; usually written via the `prop_oneof!` macro.
///
/// # Panics
///
/// Panics if `choices` is empty.
pub fn one_of<T: Clone + Debug + 'static>(choices: Vec<BoxedStrategy<T>>) -> OneOf<T> {
    assert!(!choices.is_empty(), "one_of needs at least one strategy");
    OneOf { choices }
}

impl<T: Clone + Debug + 'static> Strategy for OneOf<T> {
    type Value = T;

    fn new_tree(&self, rng: &mut Xoshiro256pp) -> Tree<T> {
        let idx = rng.random_range(0..self.choices.len());
        self.choices[idx].new_tree(rng)
    }
}

// ----------------------------------------------------------- value strategies

macro_rules! int_strategies {
    ($($t:ty => $ut:ty),*) => {$(
        impl Strategy for Range<$t> {
            type Value = $t;
            fn new_tree(&self, rng: &mut Xoshiro256pp) -> Tree<$t> {
                let v = rng.random_range(self.clone());
                int_tree(self.start, v)
            }
        }
        impl Strategy for RangeInclusive<$t> {
            type Value = $t;
            fn new_tree(&self, rng: &mut Xoshiro256pp) -> Tree<$t> {
                let v = rng.random_range(self.clone());
                int_tree(*self.start(), v)
            }
        }
        impl IntOffset for $t {
            type Unsigned = $ut;
            fn offset_from(self, low: Self) -> u64 {
                self.wrapping_sub(low) as $ut as u64
            }
            fn add_offset(low: Self, off: u64) -> Self {
                low.wrapping_add(off as $ut as $t)
            }
        }
    )*};
}

/// Modular offset arithmetic shared by all integer shrink trees.
trait IntOffset: Copy + PartialEq + Debug + 'static {
    type Unsigned;
    fn offset_from(self, low: Self) -> u64;
    fn add_offset(low: Self, off: u64) -> Self;
}

int_strategies!(u8 => u8, u16 => u16, u32 => u32, u64 => u64, usize => usize,
                i8 => u8, i16 => u16, i32 => u32, i64 => u64, isize => usize);

/// Shrinks toward `low`: first `low` itself, then binary midpoints, ending
/// one step below the failing value — the classic linear halving ladder.
fn int_tree<T: IntOffset>(low: T, v: T) -> Tree<T> {
    Tree::with_shrinks(v, move || {
        let dist = v.offset_from(low);
        let mut offsets: Vec<u64> = Vec::new();
        let mut d = dist;
        while d > 0 {
            offsets.push(dist - d);
            d /= 2;
        }
        offsets.dedup();
        offsets
            .into_iter()
            .map(|off| int_tree(low, T::add_offset(low, off)))
            .collect()
    })
}

macro_rules! float_strategies {
    ($($t:ty),*) => {$(
        impl Strategy for Range<$t> {
            type Value = $t;
            fn new_tree(&self, rng: &mut Xoshiro256pp) -> Tree<$t> {
                let v = rng.random_range(self.clone());
                float_tree(self.start, v, 16)
            }
        }
    )*};
}
float_strategies!(f32, f64);

trait FloatLadder: Copy + PartialOrd + Debug + 'static {
    fn ladder_toward(low: Self, v: Self) -> Vec<Self>;
}

macro_rules! float_ladder {
    ($($t:ty),*) => {$(
        impl FloatLadder for $t {
            /// The halving ladder toward `low`: `[low, midpoint, 3/4 point,
            /// …]`, 24 rungs — the float analogue of the integer shrink.
            fn ladder_toward(low: Self, v: Self) -> Vec<Self> {
                let mut candidates = vec![low];
                let mut d = (v - low) / 2.0;
                for _ in 0..24 {
                    let c = v - d;
                    if !(c > low && c < v) {
                        break;
                    }
                    candidates.push(c);
                    d /= 2.0;
                }
                candidates
            }
        }
    )*};
}
float_ladder!(f32, f64);

fn float_tree<T: FloatLadder>(low: T, v: T, depth: u32) -> Tree<T> {
    Tree::with_shrinks(v, move || {
        if depth == 0 || !(v > low) {
            return Vec::new();
        }
        T::ladder_toward(low, v)
            .into_iter()
            .map(|c| float_tree(low, c, depth - 1))
            .collect()
    })
}

/// Full-domain strategy for a primitive type; see [`any`].
pub struct AnyStrategy<T>(PhantomData<T>);

impl<T> Clone for AnyStrategy<T> {
    fn clone(&self) -> Self {
        AnyStrategy(PhantomData)
    }
}

/// Generates any value of `T` (full domain), shrinking toward zero/`false`.
#[must_use]
pub fn any<T>() -> AnyStrategy<T>
where
    AnyStrategy<T>: Strategy,
{
    AnyStrategy(PhantomData)
}

macro_rules! any_uint {
    ($($t:ty),*) => {$(
        impl Strategy for AnyStrategy<$t> {
            type Value = $t;
            fn new_tree(&self, rng: &mut Xoshiro256pp) -> Tree<$t> {
                let v: $t = rng.random();
                int_tree(0, v)
            }
        }
    )*};
}
any_uint!(u8, u16, u32, u64, usize);

macro_rules! any_int {
    ($($t:ty),*) => {$(
        impl Strategy for AnyStrategy<$t> {
            type Value = $t;
            fn new_tree(&self, rng: &mut Xoshiro256pp) -> Tree<$t> {
                let v: $t = rng.random();
                signed_tree(v)
            }
        }
    )*};
}
any_int!(i8, i16, i32, i64, isize);

/// Shrinks a signed value toward zero from either side.
fn signed_tree<T>(v: T) -> Tree<T>
where
    T: Copy + PartialEq + Debug + 'static + std::ops::Div<Output = T> + std::ops::Sub<Output = T> + From<i8>,
{
    Tree::with_shrinks(v, move || {
        let zero = T::from(0i8);
        let two = T::from(2i8);
        if v == zero {
            return Vec::new();
        }
        let mut candidates = Vec::new();
        let mut d = v;
        loop {
            let c = v - d;
            if candidates.last() != Some(&c) {
                candidates.push(c);
            }
            if d == zero {
                break;
            }
            d = d / two;
            if candidates.len() > 64 {
                break;
            }
        }
        candidates.retain(|c| *c != v);
        candidates.into_iter().map(signed_tree).collect()
    })
}

impl Strategy for AnyStrategy<bool> {
    type Value = bool;
    fn new_tree(&self, rng: &mut Xoshiro256pp) -> Tree<bool> {
        let v: bool = rng.random();
        Tree::with_shrinks(v, move || if v { vec![Tree::leaf(false)] } else { Vec::new() })
    }
}

// --------------------------------------------------------------- collections

/// Strategies over collections.
pub mod collection {
    use super::*;

    /// A fixed or bounded length for [`vec`](fn@vec).
    #[derive(Debug, Clone, Copy)]
    pub struct SizeRange {
        min: usize,
        max: usize,
    }

    impl From<usize> for SizeRange {
        fn from(n: usize) -> Self {
            SizeRange { min: n, max: n }
        }
    }
    impl From<Range<usize>> for SizeRange {
        fn from(r: Range<usize>) -> Self {
            assert!(r.start < r.end, "empty length range");
            SizeRange {
                min: r.start,
                max: r.end - 1,
            }
        }
    }
    impl From<RangeInclusive<usize>> for SizeRange {
        fn from(r: RangeInclusive<usize>) -> Self {
            assert!(r.start() <= r.end(), "empty length range");
            SizeRange {
                min: *r.start(),
                max: *r.end(),
            }
        }
    }

    /// See [`vec`](fn@vec).
    #[derive(Clone)]
    pub struct VecStrategy<S> {
        elem: S,
        size: SizeRange,
    }

    /// Generates `Vec`s whose length lies in `size` and whose elements come
    /// from `elem`. Shrinking drops elements (toward the minimum length)
    /// before simplifying individual elements.
    pub fn vec<S: Strategy>(elem: S, size: impl Into<SizeRange>) -> VecStrategy<S> {
        VecStrategy {
            elem,
            size: size.into(),
        }
    }

    impl<S: Strategy> Strategy for VecStrategy<S> {
        type Value = Vec<S::Value>;

        fn new_tree(&self, rng: &mut Xoshiro256pp) -> Tree<Vec<S::Value>> {
            let len = rng.random_range(self.size.min..=self.size.max);
            let elems: Vec<Tree<S::Value>> = (0..len).map(|_| self.elem.new_tree(rng)).collect();
            vec_tree(elems, self.size.min)
        }
    }

    /// Generates `char`s: mostly printable ASCII, with a tail of arbitrary
    /// non-control Unicode scalars. Shrinks toward `'a'`.
    #[derive(Clone, Copy)]
    pub struct CharStrategy;

    /// See [`CharStrategy`].
    #[must_use]
    pub fn char_any() -> CharStrategy {
        CharStrategy
    }

    impl Strategy for CharStrategy {
        type Value = char;

        fn new_tree(&self, rng: &mut Xoshiro256pp) -> Tree<char> {
            let c = if rng.random_bool(0.8) {
                char::from(rng.random_range(0x20u8..0x7F))
            } else {
                // Rejection-sample a non-control, non-surrogate scalar.
                loop {
                    let code = rng.random_range(0xA0u32..0x11_0000);
                    if let Some(c) = char::from_u32(code) {
                        break c;
                    }
                }
            };
            char_tree(c)
        }
    }

    fn char_tree(c: char) -> Tree<char> {
        Tree::with_shrinks(c, move || {
            ['a', ' ', '0']
                .into_iter()
                .filter(|&s| s < c)
                .map(char_tree)
                .collect()
        })
    }

    /// Generates `String`s of [`char_any`] characters whose char count lies
    /// in `size`. The replacement for fuzz-style `proptest` regex strategies
    /// such as `"\\PC{0,300}"`.
    pub fn string(size: impl Into<SizeRange>) -> impl Strategy<Value = String> {
        vec(char_any(), size).prop_map(|chars| chars.into_iter().collect())
    }

    fn vec_tree<T: Clone + Debug + 'static>(elems: Vec<Tree<T>>, min: usize) -> Tree<Vec<T>> {
        let value: Vec<T> = elems.iter().map(|t| t.value().clone()).collect();
        Tree::with_shrinks(value, move || {
            let n = elems.len();
            let mut out = Vec::new();
            if n > min {
                let half = (n / 2).max(min);
                if half < n {
                    out.push(vec_tree(elems[..half].to_vec(), min));
                }
                if n - 1 != half {
                    out.push(vec_tree(elems[..n - 1].to_vec(), min));
                }
            }
            for i in 0..n {
                for shrunk in elems[i].shrinks() {
                    let mut next = elems.clone();
                    next[i] = shrunk;
                    out.push(vec_tree(next, min));
                }
            }
            out
        })
    }
}

// -------------------------------------------------------------------- tuples

fn pair_tree<A, B>(a: &Tree<A>, b: &Tree<B>) -> Tree<(A, B)>
where
    A: Clone + 'static,
    B: Clone + 'static,
{
    let (a, b) = (a.clone(), b.clone());
    Tree::with_shrinks((a.value().clone(), b.value().clone()), move || {
        let mut out: Vec<Tree<(A, B)>> =
            a.shrinks().iter().map(|a2| pair_tree(a2, &b)).collect();
        out.extend(b.shrinks().iter().map(|b2| pair_tree(&a, b2)));
        out
    })
}

impl<A: Strategy> Strategy for (A,) {
    type Value = (A::Value,);
    fn new_tree(&self, rng: &mut Xoshiro256pp) -> Tree<(A::Value,)> {
        self.0
            .new_tree(rng)
            .map(Rc::new(|v: &A::Value| (v.clone(),)))
    }
}

impl<A: Strategy, B: Strategy> Strategy for (A, B) {
    type Value = (A::Value, B::Value);
    fn new_tree(&self, rng: &mut Xoshiro256pp) -> Tree<Self::Value> {
        let ta = self.0.new_tree(rng);
        let tb = self.1.new_tree(rng);
        pair_tree(&ta, &tb)
    }
}

impl<A: Strategy, B: Strategy, C: Strategy> Strategy for (A, B, C) {
    type Value = (A::Value, B::Value, C::Value);
    fn new_tree(&self, rng: &mut Xoshiro256pp) -> Tree<Self::Value> {
        let ta = self.0.new_tree(rng);
        let tb = self.1.new_tree(rng);
        let tc = self.2.new_tree(rng);
        pair_tree(&pair_tree(&ta, &tb), &tc)
            .map(Rc::new(|((a, b), c)| (a.clone(), b.clone(), c.clone())))
    }
}

impl<A: Strategy, B: Strategy, C: Strategy, D: Strategy> Strategy for (A, B, C, D) {
    type Value = (A::Value, B::Value, C::Value, D::Value);
    fn new_tree(&self, rng: &mut Xoshiro256pp) -> Tree<Self::Value> {
        let ta = self.0.new_tree(rng);
        let tb = self.1.new_tree(rng);
        let tc = self.2.new_tree(rng);
        let td = self.3.new_tree(rng);
        pair_tree(&pair_tree(&ta, &tb), &pair_tree(&tc, &td)).map(Rc::new(
            |((a, b), (c, d)): &((A::Value, B::Value), (C::Value, D::Value))| {
                (a.clone(), b.clone(), c.clone(), d.clone())
            },
        ))
    }
}

impl<A: Strategy, B: Strategy, C: Strategy, D: Strategy, E: Strategy> Strategy
    for (A, B, C, D, E)
{
    type Value = (A::Value, B::Value, C::Value, D::Value, E::Value);
    fn new_tree(&self, rng: &mut Xoshiro256pp) -> Tree<Self::Value> {
        let ta = self.0.new_tree(rng);
        let tb = self.1.new_tree(rng);
        let tc = self.2.new_tree(rng);
        let td = self.3.new_tree(rng);
        let te = self.4.new_tree(rng);
        pair_tree(&pair_tree(&pair_tree(&ta, &tb), &pair_tree(&tc, &td)), &te).map(Rc::new(
            #[allow(clippy::type_complexity)]
            |(((a, b), (c, d)), e): &(
                ((A::Value, B::Value), (C::Value, D::Value)),
                E::Value,
            )| { (a.clone(), b.clone(), c.clone(), d.clone(), e.clone()) },
        ))
    }
}

impl<A: Strategy, B: Strategy, C: Strategy, D: Strategy, E: Strategy, F: Strategy> Strategy
    for (A, B, C, D, E, F)
{
    type Value = (A::Value, B::Value, C::Value, D::Value, E::Value, F::Value);
    fn new_tree(&self, rng: &mut Xoshiro256pp) -> Tree<Self::Value> {
        let ta = self.0.new_tree(rng);
        let tb = self.1.new_tree(rng);
        let tc = self.2.new_tree(rng);
        let td = self.3.new_tree(rng);
        let te = self.4.new_tree(rng);
        let tf = self.5.new_tree(rng);
        pair_tree(
            &pair_tree(&pair_tree(&ta, &tb), &pair_tree(&tc, &td)),
            &pair_tree(&te, &tf),
        )
        .map(Rc::new(
            #[allow(clippy::type_complexity)]
            |(((a, b), (c, d)), (e, f)): &(
                ((A::Value, B::Value), (C::Value, D::Value)),
                (E::Value, F::Value),
            )| {
                (
                    a.clone(),
                    b.clone(),
                    c.clone(),
                    d.clone(),
                    e.clone(),
                    f.clone(),
                )
            },
        ))
    }
}

/// Always generates the same value (no shrinking).
#[derive(Clone)]
pub struct Just<T>(pub T);

impl<T: Clone + Debug + 'static> Strategy for Just<T> {
    type Value = T;
    fn new_tree(&self, _rng: &mut Xoshiro256pp) -> Tree<T> {
        Tree::leaf(self.0.clone())
    }
}

// -------------------------------------------------------------------- runner

/// Runner configuration; see the module docs for the environment overrides.
#[derive(Debug, Clone)]
pub struct Config {
    /// Number of generated cases per property.
    pub cases: u32,
    /// Cap on total shrink attempts after a failure.
    pub max_shrink_iters: u32,
}

impl Default for Config {
    fn default() -> Self {
        Config {
            cases: 256,
            max_shrink_iters: 4096,
        }
    }
}

impl Config {
    /// The default config with `TESTKIT_CASES` applied.
    #[must_use]
    pub fn from_env() -> Self {
        let mut cfg = Config::default();
        if let Some(cases) = std::env::var("TESTKIT_CASES")
            .ok()
            .and_then(|v| v.parse::<u32>().ok())
        {
            cfg.cases = cases.max(1);
        }
        cfg
    }
}

fn fnv1a(bytes: &[u8]) -> u64 {
    let mut hash = 0xCBF2_9CE4_8422_2325u64;
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x0000_0100_0000_01B3);
    }
    hash
}

fn failure_of<V, F>(test: &F, value: &V) -> Option<String>
where
    V: Clone,
    F: Fn(V) -> Result<(), String>,
{
    match catch_unwind(AssertUnwindSafe(|| test(value.clone()))) {
        Ok(Ok(())) => None,
        Ok(Err(msg)) => Some(msg),
        Err(payload) => Some(
            payload
                .downcast_ref::<&str>()
                .map(|s| (*s).to_string())
                .or_else(|| payload.downcast_ref::<String>().cloned())
                .unwrap_or_else(|| "test panicked".to_string()),
        ),
    }
}

/// Runs a property under [`Config::from_env`]; used by the `proptest!` macro.
///
/// # Panics
///
/// Panics with the shrunk counterexample, its error, and the replay seed if
/// any case fails.
pub fn run<S, F>(name: &str, strategy: S, test: F)
where
    S: Strategy,
    F: Fn(S::Value) -> Result<(), String>,
{
    run_with(name, &Config::from_env(), strategy, test);
}

/// Runs a property under an explicit configuration.
///
/// # Panics
///
/// Panics with the shrunk counterexample, its error, and the replay seed if
/// any case fails.
pub fn run_with<S, F>(name: &str, config: &Config, strategy: S, test: F)
where
    S: Strategy,
    F: Fn(S::Value) -> Result<(), String>,
{
    let forced: Option<u64> = std::env::var("TESTKIT_SEED")
        .ok()
        .and_then(|v| v.parse().ok());
    let base = fnv1a(name.as_bytes());
    let cases = if forced.is_some() { 1 } else { config.cases };
    for case in 0..cases {
        let case_seed = forced.unwrap_or_else(|| derive_seed(base, u64::from(case)));
        let mut rng = Xoshiro256pp::seed_from_u64(case_seed);
        let tree = strategy.new_tree(&mut rng);
        let Some(first_error) = failure_of(&test, tree.value()) else {
            continue;
        };
        // Greedy linear shrink: move to the first simpler candidate that
        // still fails, until none does (or the attempt budget runs out).
        let original = format!("{:?}", tree.value());
        let mut current = tree;
        let mut error = first_error;
        let mut attempts = 0u32;
        let mut steps = 0u32;
        'shrinking: loop {
            for candidate in current.shrinks() {
                if attempts >= config.max_shrink_iters {
                    break 'shrinking;
                }
                attempts += 1;
                if let Some(e) = failure_of(&test, candidate.value()) {
                    current = candidate;
                    error = e;
                    steps += 1;
                    continue 'shrinking;
                }
            }
            break;
        }
        panic!(
            "property `{name}` failed at case {case}/{cases} (seed {case_seed})\n\
             minimal input: {:?}\n\
             error: {error}\n\
             originally: {original}\n\
             shrunk {steps} steps in {attempts} attempts\n\
             replay this case with: TESTKIT_SEED={case_seed} cargo test {name}",
            current.value(),
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn shrink_to_minimum<S: Strategy>(
        strategy: S,
        seed: u64,
        fails: impl Fn(&S::Value) -> bool,
    ) -> S::Value {
        let mut rng = Xoshiro256pp::seed_from_u64(seed);
        let mut tree = strategy.new_tree(&mut rng);
        // Find a failing root first.
        let mut tries = 0;
        while !fails(tree.value()) {
            tree = strategy.new_tree(&mut rng);
            tries += 1;
            assert!(tries < 10_000, "no failing case found");
        }
        'outer: loop {
            for candidate in tree.shrinks() {
                if fails(candidate.value()) {
                    tree = candidate;
                    continue 'outer;
                }
            }
            break;
        }
        tree.value().clone()
    }

    #[test]
    fn int_shrinks_to_smallest_failure() {
        // property "v < 500" fails for v >= 500; minimal counterexample 500.
        let min = shrink_to_minimum(0u64..100_000, 1, |v| *v >= 500);
        assert_eq!(min, 500);
    }

    #[test]
    fn int_shrinks_respect_range_start() {
        let min = shrink_to_minimum(10usize..1000, 2, |_| true);
        assert_eq!(min, 10);
    }

    #[test]
    fn map_shrinks_through_transform() {
        let strategy = (0u64..10_000).prop_map(|v| v * 2);
        let min = shrink_to_minimum(strategy, 3, |v| *v >= 100);
        assert_eq!(min, 100);
    }

    #[test]
    fn vec_shrinks_length_and_elements() {
        let strategy = collection::vec(0u32..1000, 0..20usize);
        let min = shrink_to_minimum(strategy, 4, |v| v.iter().any(|&x| x >= 10));
        assert_eq!(min, vec![10]);
    }

    #[test]
    fn tuple_shrinks_both_components() {
        let min = shrink_to_minimum((0u64..1000, 0u64..1000), 5, |(a, b)| a + b >= 20);
        assert_eq!(min.0 + min.1, 20, "minimal sum: {min:?}");
    }

    #[test]
    fn flat_map_shrinks_outer_then_inner() {
        // Dependent generation: length first, then a vec of that length.
        let strategy =
            (1usize..=16).prop_flat_map(|n| collection::vec(0u32..100, n));
        let min = shrink_to_minimum(strategy, 6, |v| !v.is_empty());
        assert_eq!(min.len(), 1, "minimal failing vec: {min:?}");
    }

    #[test]
    fn one_of_generates_from_all_arms() {
        let strategy = one_of(vec![(0usize..=0).boxed(), (100usize..=100).boxed()]);
        let mut rng = Xoshiro256pp::seed_from_u64(7);
        let mut seen = std::collections::HashSet::new();
        for _ in 0..100 {
            seen.insert(*strategy.new_tree(&mut rng).value());
        }
        assert_eq!(seen.len(), 2);
    }

    #[test]
    fn bool_shrinks_to_false() {
        let min = shrink_to_minimum(any::<bool>(), 8, |_| true);
        assert!(!min);
    }

    #[test]
    fn float_range_shrinks_toward_start() {
        let min = shrink_to_minimum(0.0f32..100.0, 9, |v| *v >= 1.0);
        assert!((1.0..1.5).contains(&min), "shrunk to {min}");
    }

    #[test]
    fn runner_passes_valid_property() {
        run_with(
            "tautology",
            &Config {
                cases: 64,
                ..Config::default()
            },
            0u64..100,
            |v| {
                if v < 100 {
                    Ok(())
                } else {
                    Err("impossible".into())
                }
            },
        );
    }

    #[test]
    fn runner_reports_shrunk_counterexample() {
        let outcome = catch_unwind(|| {
            run_with(
                "finds_bug",
                &Config::default(),
                0u64..100_000,
                |v| if v < 777 { Ok(()) } else { Err(format!("{v} too big")) },
            );
        });
        let message = match outcome {
            Ok(()) => panic!("property should have failed"),
            Err(p) => *p.downcast::<String>().expect("string panic payload"),
        };
        assert!(
            message.contains("minimal input: 777"),
            "message should name the shrunk counterexample:\n{message}"
        );
        assert!(message.contains("TESTKIT_SEED="), "message: {message}");
    }

    #[test]
    fn runner_catches_panics_and_shrinks() {
        let outcome = catch_unwind(|| {
            run_with(
                "panics",
                &Config::default(),
                0u64..100_000,
                |v| {
                    assert!(v < 1234, "boom at {v}");
                    Ok(())
                },
            );
        });
        let message = match outcome {
            Ok(()) => panic!("property should have failed"),
            Err(p) => *p.downcast::<String>().expect("string panic payload"),
        };
        assert!(message.contains("minimal input: 1234"), "message:\n{message}");
        assert!(message.contains("boom at 1234"), "message:\n{message}");
    }

    #[test]
    fn cases_are_deterministic_across_runs() {
        let collect = || {
            let mut values = Vec::new();
            run_with(
                "collector",
                &Config {
                    cases: 32,
                    ..Config::default()
                },
                0u64..1_000_000,
                |v| {
                    // Runner treats Ok as pass; smuggle values out via closure
                    // state to compare two identical runs.
                    values_push(&v);
                    Ok(())
                },
            );
            values.extend(values_take());
            values
        };
        let a = collect();
        let b = collect();
        assert_eq!(a, b);
        assert_eq!(a.len(), 32);

        thread_local! {
            static STASH: std::cell::RefCell<Vec<u64>> = const { std::cell::RefCell::new(Vec::new()) };
        }
        fn values_push(v: &u64) {
            STASH.with(|s| s.borrow_mut().push(*v));
        }
        fn values_take() -> Vec<u64> {
            STASH.with(|s| s.borrow_mut().drain(..).collect())
        }
    }
}
