//! Offline stand-in for the subset of the `criterion` benchmarking API this
//! workspace's `[[bench]]` targets use.
//!
//! The build environment cannot fetch crates, so this shim keeps the bench
//! files compiling and runnable (`cargo bench`). It performs a small fixed
//! number of timed iterations per benchmark and prints mean wall-clock time —
//! no statistics, no HTML reports. Treat the output as a smoke signal, not a
//! measurement; the real measurement path for this repo is
//! `repro ... --json` (see crates/bench).

use std::fmt::Display;
use std::time::{Duration, Instant};

pub fn black_box<T>(x: T) -> T {
    std::hint::black_box(x)
}

#[derive(Clone, Copy, Debug)]
pub enum Throughput {
    Elements(u64),
    Bytes(u64),
}

#[derive(Clone, Copy, Debug)]
pub enum BatchSize {
    SmallInput,
    LargeInput,
    PerIteration,
}

pub struct BenchmarkId {
    label: String,
}

impl BenchmarkId {
    pub fn new<P: Display>(function_name: &str, parameter: P) -> Self {
        BenchmarkId {
            label: format!("{function_name}/{parameter}"),
        }
    }

    pub fn from_parameter<P: Display>(parameter: P) -> Self {
        BenchmarkId {
            label: parameter.to_string(),
        }
    }
}

pub struct Criterion {
    sample_size: usize,
}

impl Default for Criterion {
    fn default() -> Self {
        Criterion { sample_size: 10 }
    }
}

impl Criterion {
    pub fn sample_size(mut self, n: usize) -> Self {
        self.sample_size = n.max(1);
        self
    }

    pub fn benchmark_group(&mut self, name: &str) -> BenchmarkGroup<'_> {
        let sample_size = self.sample_size;
        BenchmarkGroup {
            _parent: std::marker::PhantomData,
            name: name.to_string(),
            sample_size,
            throughput: None,
        }
    }
}

pub struct BenchmarkGroup<'a> {
    _parent: std::marker::PhantomData<&'a mut Criterion>,
    name: String,
    sample_size: usize,
    throughput: Option<Throughput>,
}

impl BenchmarkGroup<'_> {
    pub fn sample_size(&mut self, n: usize) -> &mut Self {
        self.sample_size = n.max(1);
        self
    }

    pub fn throughput(&mut self, t: Throughput) -> &mut Self {
        self.throughput = Some(t);
        self
    }

    pub fn bench_function<F>(&mut self, id: impl IntoBenchmarkLabel, mut f: F) -> &mut Self
    where
        F: FnMut(&mut Bencher),
    {
        let label = format!("{}/{}", self.name, id.into_label());
        run_one(&label, self.sample_size, self.throughput, &mut f);
        self
    }

    pub fn bench_with_input<I: ?Sized, F>(
        &mut self,
        id: BenchmarkId,
        input: &I,
        mut f: F,
    ) -> &mut Self
    where
        F: FnMut(&mut Bencher, &I),
    {
        let label = format!("{}/{}", self.name, id.label);
        run_one(&label, self.sample_size, self.throughput, &mut |b| {
            f(b, input)
        });
        self
    }

    pub fn finish(self) {}
}

pub trait IntoBenchmarkLabel {
    fn into_label(self) -> String;
}

impl IntoBenchmarkLabel for &str {
    fn into_label(self) -> String {
        self.to_string()
    }
}

impl IntoBenchmarkLabel for String {
    fn into_label(self) -> String {
        self
    }
}

impl IntoBenchmarkLabel for BenchmarkId {
    fn into_label(self) -> String {
        self.label
    }
}

pub struct Bencher {
    samples: usize,
    total: Duration,
    iters: u64,
}

impl Bencher {
    pub fn iter<R, F: FnMut() -> R>(&mut self, mut f: F) {
        // One untimed warm-up pass.
        black_box(f());
        for _ in 0..self.samples {
            let t = Instant::now();
            black_box(f());
            self.total += t.elapsed();
            self.iters += 1;
        }
    }

    pub fn iter_batched<I, R, S, F>(&mut self, mut setup: S, mut routine: F, _size: BatchSize)
    where
        S: FnMut() -> I,
        F: FnMut(I) -> R,
    {
        black_box(routine(setup()));
        for _ in 0..self.samples {
            let input = setup();
            let t = Instant::now();
            black_box(routine(input));
            self.total += t.elapsed();
            self.iters += 1;
        }
    }
}

fn run_one<F: FnMut(&mut Bencher)>(
    label: &str,
    samples: usize,
    throughput: Option<Throughput>,
    f: &mut F,
) {
    let mut b = Bencher {
        samples,
        total: Duration::ZERO,
        iters: 0,
    };
    f(&mut b);
    if b.iters == 0 {
        println!("{label:<60} (no samples)");
        return;
    }
    let mean = b.total / b.iters as u32;
    let rate = match throughput {
        Some(Throughput::Elements(n)) if mean.as_nanos() > 0 => {
            let per_sec = n as f64 / mean.as_secs_f64();
            format!("  {:.2} Melem/s", per_sec / 1e6)
        }
        Some(Throughput::Bytes(n)) if mean.as_nanos() > 0 => {
            let per_sec = n as f64 / mean.as_secs_f64();
            format!("  {:.2} MiB/s", per_sec / (1024.0 * 1024.0))
        }
        _ => String::new(),
    };
    println!("{label:<60} {mean:>12.3?}/iter{rate}");
}

#[macro_export]
macro_rules! criterion_group {
    (name = $name:ident; config = $config:expr; targets = $($target:path),+ $(,)?) => {
        pub fn $name() {
            let mut criterion = $config;
            $( $target(&mut criterion); )+
        }
    };
    ($name:ident, $($target:path),+ $(,)?) => {
        $crate::criterion_group!(
            name = $name;
            config = $crate::Criterion::default();
            targets = $($target),+
        );
    };
}

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
    fn group_runs_bench_function() {
        let mut c = Criterion::default().sample_size(2);
        let mut g = c.benchmark_group("shim");
        let mut hits = 0u32;
        g.bench_function("counts", |b| b.iter(|| hits += 1));
        g.finish();
        // warm-up + 2 samples
        assert_eq!(hits, 3);
    }

    #[test]
    fn iter_batched_runs_setup_per_sample() {
        let mut c = Criterion::default().sample_size(3);
        let mut g = c.benchmark_group("shim");
        let mut setups = 0u32;
        g.bench_with_input(BenchmarkId::new("b", 1), &5u32, |b, &x| {
            b.iter_batched(
                || {
                    setups += 1;
                    x
                },
                |v| v * 2,
                BatchSize::LargeInput,
            )
        });
        g.finish();
        assert_eq!(setups, 4);
    }
}
