//! Offline stand-in for the subset of the `criterion` API the workspace's
//! benches use: [`Criterion::benchmark_group`] / [`Criterion::bench_function`],
//! [`BenchmarkGroup::sample_size`], [`BenchmarkGroup::bench_with_input`],
//! [`BenchmarkId::new`], [`Bencher::iter`], [`black_box`] and the
//! [`criterion_group!`] / [`criterion_main!`] macros.
//!
//! The build environment has no access to crates.io, so the workspace
//! vendors this shim (see `shims/` in the repository root). There is no
//! statistics engine: each benchmark runs once to warm up, then takes up to
//! `sample_size` timed samples within a one-second budget (a sample is a
//! batch of at least a millisecond of routine calls) and prints the per-call
//! min, median and mean. Command-line arguments (`--bench`, filters) are ignored.

use std::fmt::Display;
use std::time::{Duration, Instant};

pub use std::hint::black_box;

const DEFAULT_SAMPLE_SIZE: usize = 100;
const BUDGET: Duration = Duration::from_secs(1);
/// Shortest batch of routine calls that counts as one sample, so the
/// timer's own overhead stays out of nanosecond-scale routines.
const MIN_BATCH: Duration = Duration::from_millis(1);

/// Benchmark manager handed to every `criterion_group!` target.
#[derive(Debug, Default)]
pub struct Criterion;

impl Criterion {
    /// Starts a named group of related benchmarks.
    pub fn benchmark_group(&mut self, name: impl Into<String>) -> BenchmarkGroup<'_> {
        BenchmarkGroup {
            _criterion: self,
            name: name.into(),
            sample_size: DEFAULT_SAMPLE_SIZE,
        }
    }

    /// Times one ungrouped benchmark.
    pub fn bench_function<F: FnMut(&mut Bencher)>(&mut self, id: &str, f: F) -> &mut Self {
        run(id, DEFAULT_SAMPLE_SIZE, f);
        self
    }
}

/// A named group sharing one sample size.
#[derive(Debug)]
pub struct BenchmarkGroup<'a> {
    _criterion: &'a mut Criterion,
    name: String,
    sample_size: usize,
}

impl BenchmarkGroup<'_> {
    /// Caps the number of timed samples per benchmark (at least 1).
    pub fn sample_size(&mut self, n: usize) -> &mut Self {
        self.sample_size = n.max(1);
        self
    }

    /// Times one benchmark of the group.
    pub fn bench_function<F: FnMut(&mut Bencher)>(&mut self, id: impl Display, f: F) -> &mut Self {
        run(&format!("{}/{id}", self.name), self.sample_size, f);
        self
    }

    /// Times one benchmark of the group on a borrowed input.
    pub fn bench_with_input<I: ?Sized, F: FnMut(&mut Bencher, &I)>(
        &mut self,
        id: BenchmarkId,
        input: &I,
        mut f: F,
    ) -> &mut Self {
        run(&format!("{}/{id}", self.name), self.sample_size, |b| {
            f(b, input)
        });
        self
    }

    /// Ends the group.
    pub fn finish(self) {}
}

/// `function/parameter` label of a parameterised benchmark.
#[derive(Debug, Clone)]
pub struct BenchmarkId(String);

impl BenchmarkId {
    pub fn new(function: impl Into<String>, parameter: impl Display) -> Self {
        Self(format!("{}/{parameter}", function.into()))
    }
}

impl Display for BenchmarkId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.0)
    }
}

/// Timer handed to each benchmark closure; [`Bencher::iter`] times the routine.
#[derive(Debug, Default)]
pub struct Bencher {
    elapsed: Option<Duration>,
}

impl Bencher {
    /// Times `routine`: one sample is a batch of calls, doubled until the
    /// batch takes at least `MIN_BATCH`, reported per call.
    pub fn iter<O, R: FnMut() -> O>(&mut self, mut routine: R) {
        let mut calls = 1u32;
        loop {
            let start = Instant::now();
            for _ in 0..calls {
                black_box(routine());
            }
            let elapsed = start.elapsed();
            if elapsed >= MIN_BATCH || calls >= 1 << 20 {
                self.elapsed = Some(elapsed / calls);
                return;
            }
            calls *= 2;
        }
    }
}

fn run<F: FnMut(&mut Bencher)>(label: &str, sample_size: usize, mut f: F) {
    let mut b = Bencher::default();
    f(&mut b); // warm-up
    let start = Instant::now();
    let mut samples = Vec::with_capacity(sample_size);
    while samples.len() < sample_size && (samples.is_empty() || start.elapsed() < BUDGET) {
        f(&mut b);
        samples.extend(b.elapsed.take());
    }
    samples.sort();
    match (samples.first(), samples.get(samples.len() / 2)) {
        (Some(min), Some(median)) => {
            let mean = samples.iter().sum::<Duration>() / samples.len() as u32;
            println!(
                "{label}: min {min:?}, median {median:?}, mean {mean:?} over {} samples",
                samples.len()
            );
        }
        _ => println!("{label}: no samples (closure never called Bencher::iter)"),
    }
}

/// Defines a function `$group` that runs each target with a fresh [`Criterion`].
#[macro_export]
macro_rules! criterion_group {
    ($group:ident, $($target:path),+ $(,)?) => {
        pub fn $group() {
            let mut criterion = $crate::Criterion;
            $($target(&mut criterion);)+
        }
    };
}

/// Defines `main` running every group in order.
#[macro_export]
macro_rules! criterion_main {
    ($($group:path),+ $(,)?) => {
        fn main() {
            $($group();)+
        }
    };
}
