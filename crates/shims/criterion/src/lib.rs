//! Offline shim for `criterion`.
//!
//! Implements the slice of the criterion API the workspace's benches use
//! (`criterion_group!`, `criterion_main!`, benchmark groups, `Bencher::iter`,
//! `BenchmarkId`) on top of `std::time::Instant`. Each benchmark runs a
//! short warm-up followed by `sample_size` timed samples; the *median*
//! sample is reported, which is robust against scheduler noise.
//!
//! Output goes to stdout as one line per benchmark:
//!
//! ```text
//! bench <group>/<name> median_ns <n> samples <k>
//! ```
//!
//! and, when the `CHAOS_BENCH_JSON` environment variable names a file, the
//! same records are appended there as JSON lines so scripts can consume
//! them without parsing human output.

use std::hint;
use std::io::Write as _;
use std::time::Instant;

/// Prevent the optimizer from deleting a benchmarked computation.
pub fn black_box<T>(x: T) -> T {
    hint::black_box(x)
}

/// Identifier of one parameterized benchmark (`function_name/parameter`).
#[derive(Debug, Clone)]
pub struct BenchmarkId {
    id: String,
}

impl BenchmarkId {
    /// `BenchmarkId::new("partition_16", "RCB")` → `partition_16/RCB`.
    pub fn new(function: impl std::fmt::Display, parameter: impl std::fmt::Display) -> Self {
        BenchmarkId {
            id: format!("{function}/{parameter}"),
        }
    }

    /// Benchmark identified by its parameter alone.
    pub fn from_parameter(parameter: impl std::fmt::Display) -> Self {
        BenchmarkId {
            id: parameter.to_string(),
        }
    }
}

/// Conversion of the various id forms `bench_function` accepts.
pub trait IntoBenchmarkId {
    /// The rendered benchmark name.
    fn into_id(self) -> String;
}

impl IntoBenchmarkId for BenchmarkId {
    fn into_id(self) -> String {
        self.id
    }
}

impl IntoBenchmarkId for &str {
    fn into_id(self) -> String {
        self.to_string()
    }
}

impl IntoBenchmarkId for String {
    fn into_id(self) -> String {
        self
    }
}

/// Passed to the closure given to `iter`; times the closure body.
pub struct Bencher {
    /// Median nanoseconds of the samples taken by the last `iter` call.
    pub(crate) median_ns: u128,
    pub(crate) samples: usize,
}

impl Bencher {
    /// Time `f`, taking `samples` measurements after a small warm-up.
    pub fn iter<O, F: FnMut() -> O>(&mut self, mut f: F) {
        let warmup = (self.samples / 5).clamp(1, 5);
        for _ in 0..warmup {
            black_box(f());
        }
        let mut times: Vec<u128> = Vec::with_capacity(self.samples);
        for _ in 0..self.samples {
            let start = Instant::now();
            black_box(f());
            times.push(start.elapsed().as_nanos());
        }
        times.sort_unstable();
        self.median_ns = times[times.len() / 2];
    }
}

/// The top-level harness handle.
pub struct Criterion {
    filter: Option<String>,
}

impl Default for Criterion {
    fn default() -> Self {
        // `cargo bench -- <filter>` / `cargo bench -- --bench <filter>`:
        // treat the first non-flag argument as a substring filter.
        let filter = std::env::args()
            .skip(1)
            .find(|a| !a.starts_with('-'))
            .filter(|a| !a.is_empty());
        Criterion { filter }
    }
}

impl Criterion {
    /// Start a named group of related benchmarks.
    pub fn benchmark_group(&mut self, name: impl Into<String>) -> BenchmarkGroup<'_> {
        BenchmarkGroup {
            criterion: self,
            name: name.into(),
            sample_size: 10,
        }
    }

    /// Ungrouped benchmark (criterion compatibility).
    pub fn bench_function<F: FnMut(&mut Bencher)>(
        &mut self,
        id: impl IntoBenchmarkId,
        f: F,
    ) -> &mut Self {
        let name = id.into_id();
        run_one(self.filter.as_deref(), "", &name, 10, f);
        self
    }
}

/// A group of benchmarks sharing a name prefix and sample size.
pub struct BenchmarkGroup<'a> {
    criterion: &'a mut Criterion,
    name: String,
    sample_size: usize,
}

impl BenchmarkGroup<'_> {
    /// Set the number of timed samples per benchmark.
    pub fn sample_size(&mut self, n: usize) -> &mut Self {
        self.sample_size = n.max(1);
        self
    }

    /// Run one benchmark in the group.
    pub fn bench_function<F: FnMut(&mut Bencher)>(
        &mut self,
        id: impl IntoBenchmarkId,
        f: F,
    ) -> &mut Self {
        let name = id.into_id();
        run_one(
            self.criterion.filter.as_deref(),
            &self.name,
            &name,
            self.sample_size,
            f,
        );
        self
    }

    /// Run one benchmark that receives an input by reference.
    pub fn bench_with_input<I: ?Sized, F: FnMut(&mut Bencher, &I)>(
        &mut self,
        id: BenchmarkId,
        input: &I,
        mut f: F,
    ) -> &mut Self {
        let name = id.into_id();
        run_one(
            self.criterion.filter.as_deref(),
            &self.name,
            &name,
            self.sample_size,
            |b| f(b, input),
        );
        self
    }

    /// End the group (criterion compatibility; nothing to flush).
    pub fn finish(self) {}
}

fn run_one<F: FnMut(&mut Bencher)>(
    filter: Option<&str>,
    group: &str,
    name: &str,
    sample_size: usize,
    mut f: F,
) {
    let full = if group.is_empty() {
        name.to_string()
    } else {
        format!("{group}/{name}")
    };
    if let Some(fil) = filter {
        if !full.contains(fil) {
            return;
        }
    }
    let mut bencher = Bencher {
        median_ns: 0,
        samples: sample_size,
    };
    f(&mut bencher);
    println!(
        "bench {full} median_ns {} samples {}",
        bencher.median_ns, bencher.samples
    );
    if let Ok(path) = std::env::var("CHAOS_BENCH_JSON") {
        if let Ok(mut file) = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(path)
        {
            let _ = writeln!(
                file,
                "{{\"bench\":\"{full}\",\"median_ns\":{},\"samples\":{}}}",
                bencher.median_ns, bencher.samples
            );
        }
    }
}

/// Collect benchmark functions into a callable group.
#[macro_export]
macro_rules! criterion_group {
    ($name:ident, $($target:path),+ $(,)?) => {
        pub fn $name() {
            let mut criterion = $crate::Criterion::default();
            $( $target(&mut criterion); )+
        }
    };
}

/// Generate `main` running the given groups.
#[macro_export]
macro_rules! criterion_main {
    ($($group:path),+ $(,)?) => {
        fn main() {
            $( $group(); )+
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bencher_reports_nonzero_median() {
        let mut c = Criterion { filter: None };
        let mut group = c.benchmark_group("shim");
        group.sample_size(5);
        group.bench_function("spin", |b| b.iter(|| (0..1000u64).sum::<u64>()));
        group.finish();
    }

    #[test]
    fn benchmark_id_renders_function_and_parameter() {
        assert_eq!(BenchmarkId::new("f", 8).into_id(), "f/8");
        assert_eq!(BenchmarkId::from_parameter("x").into_id(), "x");
    }
}
