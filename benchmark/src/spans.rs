//! The traced run's span list.
//!
//! Spans are recorded here, in the benchmark's own files, around each call
//! into a layer; the program's own `lsgraph_api::trace` shim stays off. A
//! span's name is `<layer>.<what>`; its parent is whatever span was open when
//! it began. Self time is a span's duration minus its children's, so summing
//! self time by layer splits a round's wall time with nothing counted twice.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

use crate::calib::Seg;

const NO_PARENT: u32 = u32::MAX;

#[derive(Clone, Debug)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: u32,
    pub round: u32,
    pub batch: u32,
}

impl Span {
    pub fn layer(&self) -> &'static str {
        self.name.split('.').next().unwrap_or(self.name)
    }
}

pub struct Spans {
    /// Off for the untraced run and for the traced run's control rounds.
    pub enabled: bool,
    pub round: u32,
    pub batch: u32,
    t0: Instant,
    list: Vec<Span>,
    stack: Vec<u32>,
}

impl Default for Spans {
    fn default() -> Self {
        Spans {
            enabled: false,
            round: 0,
            batch: 0,
            t0: Instant::now(),
            list: Vec::new(),
            stack: Vec::new(),
        }
    }
}

impl Spans {
    fn now_ns(&self) -> u64 {
        self.t0.elapsed().as_nanos() as u64
    }

    /// Opens a span; pass the result to [`Spans::close`].
    pub fn open(&mut self, name: &'static str) -> Option<u32> {
        if !self.enabled {
            return None;
        }
        let id = self.list.len() as u32;
        let start_ns = self.now_ns();
        self.list.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.stack.last().copied().unwrap_or(NO_PARENT),
            round: self.round,
            batch: self.batch,
        });
        self.stack.push(id);
        Some(id)
    }

    pub fn close(&mut self, id: Option<u32>) {
        if let Some(id) = id {
            let end = self.now_ns();
            self.list[id as usize].end_ns = end;
            let top = self.stack.pop();
            debug_assert_eq!(top, Some(id), "spans close in LIFO order");
        }
    }

    pub fn list(&self) -> &[Span] {
        &self.list
    }

    /// Self time of every span: duration minus the time its children cover.
    pub fn self_ns(&self) -> Vec<u64> {
        let mut own: Vec<u64> = self.list.iter().map(|s| s.end_ns - s.start_ns).collect();
        for s in &self.list {
            if s.parent != NO_PARENT {
                let d = s.end_ns - s.start_ns;
                let p = &mut own[s.parent as usize];
                *p = p.saturating_sub(d);
            }
        }
        own
    }

    /// Per traced round: wall time of the `bench.round` span and self time by
    /// layer of everything beneath it. The `bench.round` and `bench.segment`
    /// spans themselves are scaffolding: their self time is what no layer
    /// span covers.
    pub fn rounds(&self) -> Vec<RoundBreakdown> {
        let own = self.self_ns();
        let mut out: BTreeMap<u32, RoundBreakdown> = BTreeMap::new();
        for (s, &self_ns) in self.list.iter().zip(&own) {
            let r = out.entry(s.round).or_default();
            match s.name {
                "bench.round" => {
                    r.wall_ns += s.end_ns - s.start_ns;
                    r.uncovered_ns += self_ns;
                }
                "bench.segment" => r.uncovered_ns += self_ns,
                _ => *r.by_layer.entry(s.layer()).or_default() += self_ns,
            }
        }
        out.into_values().filter(|r| r.wall_ns > 0).collect()
    }

    /// The trace as one JSON document. `segs` are the calibrated segments of
    /// the whole run, traced rounds or not.
    pub fn to_json(&self, workload: &str, seed: u64, segs: &[Seg]) -> String {
        let own = self.self_ns();
        let mut s = String::with_capacity(self.list.len() * 160 + 256);
        let _ = write!(
            s,
            "{{\"workload\":\"{workload}\",\"seed\":{seed},\"clock\":\"ns since trace start, raw (not host-normalised)\",\"spans\":["
        );
        for (i, (sp, self_ns)) in self.list.iter().zip(&own).enumerate() {
            if i > 0 {
                s.push(',');
            }
            let parent = if sp.parent == NO_PARENT {
                "null".to_string()
            } else {
                sp.parent.to_string()
            };
            let _ = write!(
                s,
                "\n{{\"id\":{i},\"name\":\"{}\",\"layer\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"self_ns\":{self_ns},\"parent\":{parent},\"round\":{},\"batch\":{}}}",
                sp.name,
                sp.layer(),
                sp.start_ns,
                sp.end_ns,
                sp.round,
                sp.batch
            );
        }
        s.push_str("\n],\"rounds\":[");
        for (i, r) in self.rounds().iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            let _ = write!(
                s,
                "\n{{\"wall_ns\":{},\"uncovered_ns\":{},\"self_ns_by_layer\":{{",
                r.wall_ns, r.uncovered_ns
            );
            for (j, (layer, ns)) in r.by_layer.iter().enumerate() {
                if j > 0 {
                    s.push(',');
                }
                let _ = write!(s, "\"{layer}\":{ns}");
            }
            s.push_str("}}");
        }
        s.push_str("\n],\"segments\":[");
        for (i, g) in segs.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            let ns = |x: f64| (x * 1e9) as u64;
            let _ = write!(
                s,
                "\n{{\"name\":\"{}\",\"raw_ns\":{},\"norm_ns\":{},\"spawns\":{},\"per_spawn_ns\":{},\"calib_before_ns\":[{},{},{}],\"calib_after_ns\":[{},{},{}]}}",
                g.name,
                ns(g.raw_s),
                ns(g.norm_s),
                g.spawns,
                ns(g.per_spawn_s),
                ns(g.before.cpu_s),
                ns(g.before.mem_s),
                ns(g.before.spawn_s),
                ns(g.after.cpu_s),
                ns(g.after.mem_s),
                ns(g.after.spawn_s)
            );
        }
        s.push_str("\n]}\n");
        s
    }
}

#[derive(Clone, Debug, Default)]
pub struct RoundBreakdown {
    pub wall_ns: u64,
    pub uncovered_ns: u64,
    pub by_layer: BTreeMap<&'static str, u64>,
}

impl RoundBreakdown {
    /// Share of the round's wall time that layer spans account for.
    pub fn coverage(&self) -> f64 {
        1.0 - self.uncovered_ns as f64 / self.wall_ns as f64
    }
}
