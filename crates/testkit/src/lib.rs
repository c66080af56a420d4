//! Hermetic testing toolkit for the LeHDC workspace.
//!
//! This crate replaces the three registry dependencies the workspace used to
//! pull in — `rand`, `proptest`, and `criterion` — with small in-tree
//! equivalents, so a clean checkout builds and tests **fully offline** with
//! an empty cargo registry cache. Reproducibility work on HDC classifiers
//! hinges on bit-exact seeded randomness; owning the generator stack makes
//! every experiment replayable from a single `u64` seed, forever, on any
//! platform.
//!
//! Three subsystems:
//!
//! - [`rng`]: the [`Rng`] trait with [`SplitMix64`] and [`Xoshiro256pp`]
//!   generators, uniform int/float/bool draws, ranges, and Bernoulli trials;
//!   [`dist`] adds Fisher–Yates [`SliceRandom`] and Box–Muller [`Normal`].
//!   Seeds derive through [`derive_seed`], the workspace-wide scheme.
//! - [`prop`]: a `proptest`-style property-testing harness — the
//!   [`proptest!`] macro, generator combinators ([`prop::Strategy`],
//!   ranges, [`prop::any`], [`prop::collection::vec`], tuples,
//!   [`prop_oneof!`]), configurable case counts, failure-seed reporting,
//!   and linear shrinking.
//! - [`bench`](mod@bench): a benchmark harness — warmup, calibrated iterations, and
//!   median/σ reporting — driven by the [`bench_main!`] macro.
//!
//! Golden-vector tests under `tests/` pin the exact output streams of both
//! generators so refactors cannot silently change every seeded experiment.

pub mod bench;
pub mod dist;
pub mod prop;
pub mod rng;

pub use dist::{Normal, SliceRandom};
pub use rng::{
    derive_seed, mix64, splitmix64, FromRng, Rng, SampleRange, SplitMix64, Xoshiro256pp,
    GOLDEN_GAMMA,
};

/// Everything property tests need: `use testkit::prelude::*;`.
pub mod prelude {
    pub use crate::prop::{self, any, collection, one_of, BoxedStrategy, Just, Strategy};
    pub use crate::rng::{Rng, SplitMix64, Xoshiro256pp};
    pub use crate::{
        prop_assert, prop_assert_eq, prop_assert_ne, prop_oneof, proptest, SliceRandom,
    };
}

/// Declares property tests: `#[test]` functions whose arguments are drawn
/// from strategies, run for many cases, and shrunk on failure.
///
/// ```
/// use testkit::prelude::*;
///
/// proptest! {
///     #[test]
///     fn reverse_is_involutive(v in collection::vec(0u32..100, 0..20usize)) {
///         let mut w = v.clone();
///         w.reverse();
///         w.reverse();
///         prop_assert_eq!(v, w);
///     }
/// }
/// ```
#[macro_export]
macro_rules! proptest {
    ($(
        $(#[doc = $doc:literal])*
        #[test]
        fn $name:ident ( $($arg:ident in $strategy:expr),+ $(,)? ) $body:block
    )*) => {$(
        $(#[doc = $doc])*
        #[test]
        fn $name() {
            $crate::prop::run(
                stringify!($name),
                ($($strategy,)+),
                move |($($arg,)+)| {
                    $body
                    Ok(())
                },
            );
        }
    )*};
}

/// Fails the enclosing property case (with shrinking) unless the condition
/// holds. Inside `proptest!` bodies only.
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr) => {
        if !($cond) {
            return Err(format!(
                "assertion failed: {} at {}:{}",
                stringify!($cond),
                file!(),
                line!()
            ));
        }
    };
    ($cond:expr, $($fmt:tt)+) => {
        if !($cond) {
            return Err(format!($($fmt)+));
        }
    };
}

/// Equality assertion for property bodies; see [`prop_assert!`].
#[macro_export]
macro_rules! prop_assert_eq {
    ($left:expr, $right:expr $(,)?) => {{
        let (left, right) = (&$left, &$right);
        if !(left == right) {
            return Err(format!(
                "assertion failed: `{:?}` != `{:?}` at {}:{}",
                left,
                right,
                file!(),
                line!()
            ));
        }
    }};
    ($left:expr, $right:expr, $($fmt:tt)+) => {{
        let (left, right) = (&$left, &$right);
        if !(left == right) {
            return Err(format!(
                "assertion failed: `{:?}` != `{:?}`: {}",
                left,
                right,
                format!($($fmt)+)
            ));
        }
    }};
}

/// Inequality assertion for property bodies; see [`prop_assert!`].
#[macro_export]
macro_rules! prop_assert_ne {
    ($left:expr, $right:expr $(,)?) => {{
        let (left, right) = (&$left, &$right);
        if left == right {
            return Err(format!(
                "assertion failed: `{:?}` == `{:?}` at {}:{}",
                left,
                right,
                file!(),
                line!()
            ));
        }
    }};
    ($left:expr, $right:expr, $($fmt:tt)+) => {{
        let (left, right) = (&$left, &$right);
        if left == right {
            return Err(format!(
                "assertion failed: `{:?}` == `{:?}`: {}",
                left,
                right,
                format!($($fmt)+)
            ));
        }
    }};
}

/// Picks uniformly between several strategies of the same value type.
///
/// ```
/// use testkit::prelude::*;
///
/// let dims = prop_oneof![1usize..=8, 60usize..=70, 120usize..=260];
/// # let _ = dims;
/// ```
#[macro_export]
macro_rules! prop_oneof {
    ($($strategy:expr),+ $(,)?) => {
        $crate::prop::one_of(vec![
            $($crate::prop::Strategy::boxed($strategy)),+
        ])
    };
}
