//! Host calibration: a fixed, std-only kernel whose run time tracks how fast
//! this host is *right now*.
//!
//! Every timed segment is bracketed by two runs of the kernel and its time is
//! divided by `mean(before, after) / CALIB_REF_S`. A shared VM whose speed
//! drifts minute to minute slows the kernel and the segment together, so the
//! quotient repeats where the raw wall-clock does not. The kernel mixes the
//! two things the engine does, in about equal time: compare-and-move work
//! (sorts that fit the private cache) and dependent loads over a table that
//! misses the private cache but, like the engine's graph, can live in the
//! shared one while the neighbours are quiet. A chase over a table too big
//! for any cache was tried first and moved a third as much as the engine did
//! when the host slowed down (see the README).
//!
//! The engine also spawns OS threads on every parallel call, and what a spawn
//! costs moves on its own: a busy neighbour that leaves single-thread speed
//! alone can double it (waking the idle vCPU, the stack's `mmap`/`munmap`).
//! So the kernel ends with a few empty two-thread scopes, and a segment is
//! normalised as two resources: the threads it spawned (counted from
//! `/proc/stat`) by what a spawn costs now, the rest of its time by the
//! compute half.

use std::hint::black_box;
use std::time::Instant;

/// The kernel's run time on the host the benchmark was written on; see the
/// README for how it was fixed. Normalised times are "seconds on a host where
/// the kernel takes this long".
pub const CALIB_REF_S: f64 = 0.0230;

/// 2^17 `u64` = 1 MiB: sorts inside the 4 MiB private cache.
const SORT_LEN: usize = 1 << 17;
const SORTS: usize = 4;
const LOADS: usize = 1 << 17;
/// 2^20 `u64` = 8 MiB: twice the private cache, a sliver of the shared one.
const TABLE_LEN: usize = 1 << 20;
/// Empty `thread::scope`s of two threads each that close a kernel run.
const SCOPES: usize = 48;
/// A spawn's cost "now" is the median over this many of the latest kernel
/// runs: one run's spawn part is a few milliseconds and a single stall can
/// triple it.
const SPAWN_WINDOW: usize = 4;
/// What one spawned-and-joined thread of those scopes cost on that host.
pub const SPAWN_REF_S: f64 = 45e-6;
/// At most this share of a segment is put down to spawns.
const MAX_SPAWN_SHARE: f64 = 0.9;
/// A calibration sample younger than this still describes "now".
const FRESH_S: f64 = 0.002;

/// SplitMix64: the benchmark's only random source, so inputs depend on the
/// seed and nothing else.
#[derive(Clone, Debug)]
pub struct Rng(pub u64);

impl Rng {
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        ((self.next_u64() as u128 * n as u128) >> 64) as usize
    }
}

/// One run of the kernel: its compare-and-move part, its load part and its
/// thread-spawn part.
#[derive(Clone, Copy, Debug)]
pub struct Sample {
    pub cpu_s: f64,
    pub mem_s: f64,
    pub spawn_s: f64,
}

impl Sample {
    /// The compute half (sorts + loads), which `CALIB_REF_S` refers to.
    pub fn total(self) -> f64 {
        self.cpu_s + self.mem_s
    }

    /// One spawned-and-joined thread.
    pub fn per_spawn(self) -> f64 {
        self.spawn_s / (2 * SCOPES) as f64
    }
}

/// One timed segment: what the clock said and what it is worth on the
/// reference host.
#[derive(Clone, Copy, Debug)]
pub struct Seg {
    pub name: &'static str,
    pub raw_s: f64,
    pub norm_s: f64,
    /// `raw_s / norm_s`: how much slower than the reference the host was.
    pub scale: f64,
    /// Threads created while the segment ran, and what one cost at the time.
    pub spawns: u64,
    pub per_spawn_s: f64,
    pub before: Sample,
    pub after: Sample,
}

pub struct Calib {
    /// A single random cycle over `0..TABLE_LEN`: `table[i]` is the next index.
    table: Vec<u64>,
    cursor: usize,
    scratch: Vec<u64>,
    rng: Rng,
    last: Option<(Instant, Sample)>,
    /// Every kernel run, in order.
    pub samples: Vec<Sample>,
}

impl Default for Calib {
    fn default() -> Self {
        Self::new()
    }
}

impl Calib {
    pub fn new() -> Self {
        // Sattolo's algorithm: a uniformly random permutation with one cycle,
        // so the chase never falls into a short loop that fits in cache.
        let mut rng = Rng(0xC0FF_EE00_D15E_A5E5);
        let mut table: Vec<u64> = (0..TABLE_LEN as u64).collect();
        for i in (1..TABLE_LEN).rev() {
            table.swap(i, rng.below(i));
        }
        let mut c = Calib {
            table,
            cursor: 0,
            scratch: vec![0; SORT_LEN],
            rng,
            last: None,
            samples: Vec::new(),
        };
        // Touch everything once so the first real sample does not page-fault.
        c.kernel();
        c.kernel();
        c
    }

    fn kernel(&mut self) -> Sample {
        let t = Instant::now();
        for _ in 0..SORTS {
            for x in &mut self.scratch {
                *x = self.rng.next_u64();
            }
            self.scratch.sort_unstable();
            black_box(&self.scratch);
        }
        let cpu_s = t.elapsed().as_secs_f64();
        let mut i = self.cursor;
        for _ in 0..LOADS {
            i = self.table[i] as usize;
        }
        self.cursor = black_box(i);
        let mem_s = t.elapsed().as_secs_f64() - cpu_s;
        for _ in 0..SCOPES {
            std::thread::scope(|s| {
                s.spawn(|| black_box(0));
                s.spawn(|| black_box(1));
            });
        }
        Sample {
            cpu_s,
            mem_s,
            spawn_s: t.elapsed().as_secs_f64() - cpu_s - mem_s,
        }
    }

    /// Runs the kernel and records the sample.
    pub fn sample(&mut self) -> Sample {
        let s = self.kernel();
        self.samples.push(s);
        self.last = Some((Instant::now(), s));
        s
    }

    /// The previous sample if it ended a moment ago, else a new one.
    pub fn fresh(&mut self) -> Sample {
        match self.last {
            Some((at, s)) if at.elapsed().as_secs_f64() < FRESH_S => s,
            _ => self.sample(),
        }
    }

    /// Normalises `raw_s`, measured between the kernel runs `before` and
    /// `after` (the latest one) while `spawns` threads were created: the time
    /// the kernel would need for that many spawns is scaled by what a spawn
    /// costs now, the rest by the kernel's compute half.
    pub fn normalise(
        &self,
        name: &'static str,
        raw_s: f64,
        spawns: u64,
        before: Sample,
        after: Sample,
    ) -> Seg {
        let compute = 0.5 * (before.total() + after.total()) / CALIB_REF_S;
        let recent = &self.samples[self.samples.len().saturating_sub(SPAWN_WINDOW)..];
        let per_spawn_s = median(&recent.iter().map(|s| s.per_spawn()).collect::<Vec<_>>());
        let spawn_s = (spawns as f64 * per_spawn_s).min(MAX_SPAWN_SHARE * raw_s);
        let norm_s = (raw_s - spawn_s) / compute + spawn_s * SPAWN_REF_S / per_spawn_s;
        Seg {
            name,
            raw_s,
            norm_s,
            scale: raw_s / norm_s,
            spawns,
            per_spawn_s,
            before,
            after,
        }
    }
}

/// Median of a sample (mean of the middle two for even counts); `NaN` when
/// empty so a missing measurement cannot pass for a number.
pub fn median(v: &[f64]) -> f64 {
    quantile(v, 0.5)
}

/// Linear-interpolated quantile of a sample, `q` in `0..=1`.
pub fn quantile(v: &[f64], q: f64) -> f64 {
    if v.is_empty() {
        return f64::NAN;
    }
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let pos = q * (s.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    s[lo] + (s[hi] - s[lo]) * (pos - lo as f64)
}
