//! The measuring context every workload runs in: calibrated segments, timed
//! calls, and the pass/fail tally.

use std::collections::BTreeMap;
use std::time::Instant;

use crate::calib::{Calib, Sample, Seg};
use crate::spans::Spans;

/// Operations attempted and failed. An operation is one call into the engine
/// or one comparison of its output against the reference model.
#[derive(Clone, Copy, Debug, Default)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
}

impl Tally {
    pub fn check(&mut self, what: &str, ok: bool) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            if self.failed <= 10 {
                eprintln!("FAILED: {what}");
            }
        }
    }
}

/// Times calls into a layer. Each call yields one raw duration (normalised
/// when the surrounding segment closes) and, in a traced round, one span.
#[derive(Default)]
pub struct Rec {
    pub spans: Spans,
    calls: Vec<(&'static str, f64)>,
}

impl Rec {
    pub fn call<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> R {
        let id = self.spans.open(name);
        let t = Instant::now();
        let r = f();
        let d = t.elapsed().as_secs_f64();
        self.spans.close(id);
        self.calls.push((name, d));
        r
    }
}

pub struct Ctx {
    pub calib: Calib,
    pub rec: Rec,
    pub tally: Tally,
    /// Host-normalised seconds, by segment or call name.
    pub samples: BTreeMap<&'static str, Vec<f64>>,
    /// Every segment timed, in order (with the calibration samples around
    /// it, so a trace holds what a different normalisation would need).
    pub segs: Vec<Seg>,
}

impl Default for Ctx {
    fn default() -> Self {
        Self::new()
    }
}

impl Ctx {
    pub fn new() -> Self {
        Ctx {
            calib: Calib::new(),
            rec: Rec::default(),
            tally: Tally::default(),
            samples: BTreeMap::new(),
            segs: Vec::new(),
        }
    }

    fn calib_before(&mut self) -> Sample {
        let id = self.rec.spans.open("host.calib");
        let s = self.calib.fresh();
        self.rec.spans.close(id);
        s
    }

    /// Runs `f` as one calibrated segment and files its normalised time, and
    /// that of every [`Rec::call`] made inside it, under their names.
    pub fn segment<R>(
        &mut self,
        name: &'static str,
        f: impl FnOnce(&mut Rec, &mut Tally) -> R,
    ) -> (R, Seg) {
        let before = self.calib_before();
        let id = self.rec.spans.open("bench.segment");
        let threads = threads_created();
        let t = Instant::now();
        let r = f(&mut self.rec, &mut self.tally);
        let raw = t.elapsed().as_secs_f64();
        let spawns = threads_created().saturating_sub(threads);
        self.rec.spans.close(id);
        let id = self.rec.spans.open("host.calib");
        let after = self.calib.sample();
        self.rec.spans.close(id);
        let seg = self.calib.normalise(name, raw, spawns, before, after);
        self.segs.push(seg);
        self.samples.entry(name).or_default().push(seg.norm_s);
        for (call, raw) in self.rec.calls.drain(..) {
            self.samples.entry(call).or_default().push(raw / seg.scale);
        }
        (r, seg)
    }

    /// Runs reference-model comparisons under a `bench.check` span.
    pub fn checks(&mut self, f: impl FnOnce(&mut Tally)) {
        let id = self.rec.spans.open("bench.check");
        f(&mut self.tally);
        self.rec.spans.close(id);
    }

    pub fn sample(&self, name: &str) -> &[f64] {
        self.samples.get(name).map_or(&[], Vec::as_slice)
    }
}

/// Threads and processes created on this machine since it booted (the
/// `processes` line of `/proc/stat`). The benchmark is the only thing running
/// in its sandbox, so the difference across a segment is the engine's spawns;
/// where the file is missing every segment counts none and is normalised by
/// the kernel's compute half alone.
fn threads_created() -> u64 {
    std::fs::read_to_string("/proc/stat")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("processes "))
                .and_then(|v| v.trim().parse().ok())
        })
        .unwrap_or(0)
}
