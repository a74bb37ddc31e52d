//! Machine-readable benchmark reports (`BENCH_<experiment>.json`).
//!
//! Every object in a report is declared once, as a field list that
//! `report_object!` expands into the struct, its writer and its parser.
//! The writer emits fields in declaration order, so downstream trajectory
//! tooling can diff reports across commits; the counter maps
//! (`struct_stats`, `counters`) take their names from
//! [`StructSnapshot::fields`] / [`CounterSnapshot::fields`] and list only
//! the non-zero entries, and a key whose value would be `null`, an empty
//! array or an empty histogram is left out. The reader has one rule: **an
//! absent key is zero (or `None`, or empty), an unknown key is an error** —
//! so a report written before a field existed still parses, and a report
//! naming a field this build does not know is rejected rather than
//! half-read. An object of plain numbers and strings, and a histogram, take
//! one line each; everything else one line per key.
//!
//! Count fields are deterministic for a fixed RMAT seed (batch application
//! partitions work into disjoint per-source runs); `*_nanos` fields and
//! throughput are wall-clock and vary run to run.
//!
//! No serde in the dependency tree, so serialization is hand-rolled: the
//! `JsonField` impls below plus a small recursive-descent JSON parser.

use lsgraph_api::{CounterSnapshot, HistogramSnapshot, LatencySnapshot, StructSnapshot};

/// Report schema version; bump when renaming or removing fields (additions
/// need no bump: absent keys read as zero). v9 removed `phase_kernel_nanos`
/// and made the counter maps sparse; v10 removed the reclamation-backlog
/// fields (one each in `mixed`, `standing` and `struct_stats`); v11 removed
/// the compressed-tier fields (four in `search`, four in `struct_stats`);
/// v12 removed the `search` object and its two `struct_stats` probe counts.
pub const SCHEMA_VERSION: u32 = 12;

/// A value with one JSON spelling. `Default` is what an absent key reads as.
trait JsonField: Sized + Default {
    /// A bare number or string: an object of only these is written inline.
    const SCALAR: bool = false;
    /// Nothing to say (`None`, no elements): the key is not written.
    fn is_absent(&self) -> bool {
        false
    }
    fn write(&self, w: &mut Writer);
    fn read(v: &Json, what: &str) -> Result<Self, String>;
}

macro_rules! json_unsigned {
    ($($t:ty),+) => {$(
        impl JsonField for $t {
            const SCALAR: bool = true;
            fn write(&self, w: &mut Writer) {
                w.raw(&self.to_string());
            }
            fn read(v: &Json, what: &str) -> Result<Self, String> {
                Ok(v.as_u64(what)? as $t)
            }
        }
    )+};
}
json_unsigned!(u64, u32, usize);

impl JsonField for f64 {
    const SCALAR: bool = true;
    fn write(&self, w: &mut Writer) {
        w.raw(&fmt_f64(*self));
    }
    fn read(v: &Json, what: &str) -> Result<Self, String> {
        v.as_f64(what)
    }
}

impl JsonField for String {
    const SCALAR: bool = true;
    fn write(&self, w: &mut Writer) {
        w.string(self);
    }
    fn read(v: &Json, what: &str) -> Result<Self, String> {
        Ok(v.as_str(what)?.to_string())
    }
}

/// `null` is `None`.
impl<T: JsonField> JsonField for Option<T> {
    fn is_absent(&self) -> bool {
        self.is_none()
    }
    fn write(&self, w: &mut Writer) {
        match self {
            None => w.raw("null"),
            Some(x) => x.write(w),
        }
    }
    fn read(v: &Json, what: &str) -> Result<Self, String> {
        match v {
            Json::Null => Ok(None),
            v => T::read(v, what).map(Some),
        }
    }
}

impl<T: JsonField> JsonField for Vec<T> {
    fn is_absent(&self) -> bool {
        self.is_empty()
    }
    fn write(&self, w: &mut Writer) {
        w.open('[');
        for x in self {
            w.item();
            x.write(w);
        }
        w.close(']');
    }
    fn read(v: &Json, what: &str) -> Result<Self, String> {
        v.as_array(what)?.iter().map(|x| T::read(x, what)).collect()
    }
}

/// The counter maps: names and order from the metric table, non-zero
/// entries only.
macro_rules! sparse_counter_map {
    ($Snap:ty) => {
        impl JsonField for $Snap {
            fn write(&self, w: &mut Writer) {
                w.open_inline('{');
                for (name, v) in self.fields() {
                    if v != 0 {
                        w.field(name);
                        v.write(w);
                    }
                }
                w.close('}');
            }
            fn read(v: &Json, what: &str) -> Result<Self, String> {
                let pairs = v.as_object(what)?.iter();
                let pairs = pairs.map(|(k, v)| Ok((k.as_str(), v.as_u64(k)?)));
                <$Snap>::from_fields(pairs.collect::<Result<Vec<_>, String>>()?)
            }
        }
    };
}
sparse_counter_map!(CounterSnapshot);
sparse_counter_map!(StructSnapshot);

impl JsonField for LatencySnapshot {
    fn write(&self, w: &mut Writer) {
        w.open('{');
        for (name, h) in self.fields() {
            if !h.is_empty() {
                w.field(name);
                write_histogram(w, h);
            }
        }
        w.close('}');
    }
    fn read(v: &Json, what: &str) -> Result<Self, String> {
        let pairs = v.as_object(what)?.iter();
        let pairs = pairs.map(|(k, h)| Ok((k.as_str(), parse_histogram(h)?)));
        LatencySnapshot::from_fields(pairs.collect::<Result<Vec<_>, String>>()?)
            .map_err(|e| format!("{what}: {e}"))
    }
}

/// Declares one report object: the struct, and its [`JsonField`] impl
/// writing the fields in declaration order and reading them by the module's
/// one rule.
macro_rules! report_object {
    (
        $(#[$meta:meta])*
        $Name:ident { $( $(#[$fmeta:meta])* $field:ident: $ty:ty, )+ }
    ) => {
        $(#[$meta])*
        #[derive(Clone, Debug, Default, PartialEq)]
        pub struct $Name {
            $( $(#[$fmeta])* pub $field: $ty, )+
        }

        impl JsonField for $Name {
            fn write(&self, w: &mut Writer) {
                if true $( && <$ty as JsonField>::SCALAR )+ {
                    w.open_inline('{');
                } else {
                    w.open('{');
                }
                $(
                    if !self.$field.is_absent() {
                        w.field(stringify!($field));
                        self.$field.write(w);
                    }
                )+
                w.close('}');
            }
            fn read(v: &Json, what: &str) -> Result<Self, String> {
                let mut out = $Name::default();
                for (k, v) in v.as_object(what)? {
                    match k.as_str() {
                        $( stringify!($field) => out.$field = JsonField::read(v, k)?, )+
                        other => return Err(format!("{what}: unknown field: {other}")),
                    }
                }
                Ok(out)
            }
        }
    };
}

report_object! {
    /// Memory footprint of one engine after the measured updates.
    FootprintReport {
        /// Bytes holding edge payload (adjacency data, including gaps).
        payload_bytes: u64,
        /// Bytes holding index structures (RIA index arrays, LIA models, ...).
        index_bytes: u64,
        /// Measured space amplification: payload bytes per 4-byte edge slot,
        /// i.e. `payload_bytes / (4 * num_edges)` (0 when the graph is empty).
        space_amp_measured: f64,
        /// The configured amplification bound α, when the engine has one
        /// (LSGraph's RIA gap factor); 0 means "not applicable".
        space_amp_alpha: f64,
    }
}

report_object! {
    /// Durability measurements for one engine cell (only the `durability`
    /// experiment populates it).
    DurabilityReport {
        /// Frames appended to the WAL during the cell (measured rounds plus
        /// the post-checkpoint tail the recovery replays).
        wal_frames: u64,
        /// WAL bytes written during the cell.
        wal_bytes: u64,
        /// Logged-update throughput: edges per second through WAL append +
        /// group commit + the in-memory apply.
        wal_append_eps: f64,
        /// Size of the checkpoint image written at the end of the cell.
        checkpoint_bytes: u64,
        /// Wall time of that checkpoint (includes the covering WAL sync).
        checkpoint_nanos: u64,
        /// Wall time of the recovery that reopened the store.
        recovery_nanos: u64,
        /// WAL frames replayed by that recovery.
        replay_frames: u64,
        /// Replay throughput: edges per second through the recovery path.
        replay_eps: f64,
        /// WAL segments sealed and rotated during the cell.
        wal_segments_rotated: u64,
        /// WAL segments deleted by retention GC during the cell.
        wal_segments_deleted: u64,
        /// Delta checkpoint images written.
        delta_checkpoints_written: u64,
        /// Vertices whose block differed from the last image's, at the last
        /// checkpoint of the cell (gauge).
        checkpoint_dirty_vertices: u64,
        /// Live on-disk WAL bytes across all segments at the end of the cell
        /// (gauge; bounded when rotation + retention are active).
        wal_live_bytes: u64,
    }
}

report_object! {
    /// Concurrent reader/writer measurements for one engine cell (only the
    /// `mixed` experiment populates it). Reader latency percentiles ride the
    /// `reader` histogram in the engine's `latency` object.
    MixedReport {
        /// Update batches the writer applied during the measured window.
        writer_batches: u64,
        /// Edges in those batches (insert + delete).
        writer_edges: u64,
        /// Writer throughput while readers ran: edges per second.
        writer_eps: f64,
        /// Concurrent reader threads.
        reader_threads: u64,
        /// Total read operations completed across all readers (fixed per
        /// thread, so this count is deterministic and gateable).
        reader_ops: u64,
        /// Aggregate reader throughput: operations per second.
        reader_ops_per_sec: f64,
        /// Snapshots flipped during the window (one per writer batch).
        snapshots_taken: u64,
        /// Blocks copied on write because a snapshot still shared them.
        cow_block_copies: u64,
    }
}

report_object! {
    /// Standing-query measurements for one engine cell (only the `standing`
    /// experiment populates it). Compares incremental per-batch delta
    /// delivery against re-running the full kernels after every batch.
    StandingReport {
        /// Standing queries registered for the cell.
        subscriptions: u64,
        /// Update batches committed while the subscriptions were live.
        batches: u64,
        /// Result deltas delivered (one per live subscription per batch, plus
        /// registration bootstraps; deterministic and gateable).
        deltas_delivered: u64,
        /// Total added/removed/changed entries across those deltas
        /// (deterministic and gateable).
        delta_entries: u64,
        /// Wall time spent delivering deltas incrementally (the worker's
        /// drain time across all batches).
        delivery_nanos: u64,
        /// Wall time re-running every subscription's from-scratch oracle after
        /// every batch — what the subscriptions replace.
        recompute_nanos: u64,
        /// `recompute_nanos / delivery_nanos` (0 when delivery took no
        /// measurable time).
        speedup: f64,
        /// Delivery panics — 0 by the quarantine invariant, gated by
        /// `repro check`.
        subscription_panics: u64,
    }
}

report_object! {
    /// Wall time of one analytics kernel on one engine.
    KernelTime {
        /// Kernel name (`bfs`, `bc`, ...).
        name: String,
        /// Total wall-clock nanoseconds across the experiment's runs.
        wall_nanos: u64,
    }
}

report_object! {
    /// One engine × dataset × batch-size measurement.
    EngineReport {
        /// Engine display name (`EngineKind::name`).
        engine: String,
        /// Dataset profile name.
        dataset: String,
        /// Edges per update batch.
        batch_size: usize,
        /// Insert throughput, edges per second.
        insert_eps: f64,
        /// Delete throughput, edges per second.
        delete_eps: f64,
        /// Wall-clock insert time across all trials, nanoseconds.
        insert_nanos: u64,
        /// Wall-clock delete time across all trials, nanoseconds.
        delete_nanos: u64,
        /// Update-path operation counters (None when the engine records none).
        counters: Option<CounterSnapshot>,
        /// Structural counters (LSGraph only).
        struct_stats: Option<StructSnapshot>,
        /// Memory footprint split + space amplification.
        footprint: Option<FootprintReport>,
        /// Latency histograms (None for engines without histograms).
        latency: Option<LatencySnapshot>,
        /// Per-kernel wall times (empty for update-only experiments).
        kernels: Vec<KernelTime>,
        /// WAL/checkpoint/recovery measurements (`durability` experiment).
        durability: Option<DurabilityReport>,
        /// Concurrent reader/writer measurements (`mixed` experiment).
        mixed: Option<MixedReport>,
        /// Standing-query measurements (`standing` experiment).
        standing: Option<StandingReport>,
    }
}

report_object! {
    /// A full experiment report.
    BenchReport {
        /// Schema version (`SCHEMA_VERSION` at write time).
        schema_version: u32,
        /// Experiment id (`fig12`, `small`, ...).
        experiment: String,
        /// log2 of the base-graph vertex count.
        base: u32,
        /// Extra powers of two applied to sizes.
        shift: u32,
        /// Trials per measurement.
        trials: usize,
        /// One entry per engine × dataset × batch size.
        engines: Vec<EngineReport>,
    }
}

impl BenchReport {
    /// File name the report is written to (`BENCH_<experiment>.json`).
    pub fn file_name(&self) -> String {
        format!("BENCH_{}.json", self.experiment)
    }

    /// Serializes with the pinned field order.
    pub fn to_json(&self) -> String {
        let mut w = Writer::new();
        JsonField::write(self, &mut w);
        w.finish()
    }

    /// Parses a report previously produced by [`BenchReport::to_json`]. A
    /// report must say which experiment it is (`repro check` re-runs it) and
    /// may not be newer than this build.
    pub fn from_json(text: &str) -> Result<BenchReport, String> {
        let report = BenchReport::read(&parse_json(text)?, "report")?;
        if report.experiment.is_empty() {
            return Err("missing field: experiment".to_string());
        }
        if report.schema_version > SCHEMA_VERSION {
            return Err(format!(
                "unsupported schema_version {} (this build reads <= {SCHEMA_VERSION})",
                report.schema_version
            ));
        }
        Ok(report)
    }

    /// Writes the report to `BENCH_<experiment>.json` in the current
    /// directory, returning the path written.
    pub fn write(&self) -> std::io::Result<String> {
        let name = self.file_name();
        std::fs::write(&name, self.to_json())?;
        Ok(name)
    }
}

/// Writes one histogram: scalar summary (count/sum/max + derived
/// quantiles) followed by the sparse `[bucket_index, count]` pairs that
/// fully reconstruct it.
fn write_histogram(w: &mut Writer, h: &HistogramSnapshot) {
    w.open_inline('{');
    w.field("count");
    w.raw(&h.count().to_string());
    w.field("sum");
    w.raw(&h.sum.to_string());
    w.field("max");
    w.raw(&h.max.to_string());
    w.field("p50");
    w.raw(&h.p50().to_string());
    w.field("p90");
    w.raw(&h.p90().to_string());
    w.field("p99");
    w.raw(&h.p99().to_string());
    w.field("buckets");
    w.open('[');
    for (b, c) in h.nonzero_buckets() {
        w.item();
        w.raw(&format!("[{b}, {c}]"));
    }
    w.close(']');
    w.close('}');
}

/// Parses a histogram written by [`write_histogram`]. The quantile fields
/// are derived values and ignored; the histogram is rebuilt from
/// `buckets`/`sum`/`max`.
fn parse_histogram(v: &Json) -> Result<HistogramSnapshot, String> {
    let o = v.as_object("histogram")?;
    let sum = get(o, "sum")?.as_u64("sum")?;
    let max = get(o, "max")?.as_u64("max")?;
    let pairs = get(o, "buckets")?
        .as_array("buckets")?
        .iter()
        .map(|p| {
            let pair = p.as_array("bucket pair")?;
            match pair {
                [b, c] => Ok((
                    b.as_u64("bucket index")? as usize,
                    c.as_u64("bucket count")?,
                )),
                _ => Err("bucket pair must have exactly two elements".to_string()),
            }
        })
        .collect::<Result<Vec<_>, String>>()?;
    let h = HistogramSnapshot::from_parts(pairs, sum, max)?;
    let count = get(o, "count")?.as_u64("count")?;
    if h.count() != count {
        return Err(format!(
            "histogram count {count} disagrees with bucket total {}",
            h.count()
        ));
    }
    Ok(h)
}

/// f64 via Rust's shortest-round-trip `Display`, with an explicit decimal
/// point so the value parses back as a float everywhere.
fn fmt_f64(x: f64) -> String {
    let s = format!("{x}");
    if s.contains('.') || s.contains('e') || s.contains("inf") || s.contains("NaN") {
        s
    } else {
        format!("{s}.0")
    }
}

/// Pretty-printing JSON writer with two-space indentation.
struct Writer {
    out: String,
    depth: usize,
    /// Whether the current container already holds an element.
    populated: Vec<bool>,
    /// Depth of the container opened with `open_inline`, while it is open:
    /// it and everything in it stay on one line.
    inline_from: Option<usize>,
}

impl Writer {
    fn new() -> Writer {
        Writer {
            out: String::new(),
            depth: 0,
            populated: Vec::new(),
            inline_from: None,
        }
    }

    fn newline(&mut self) {
        self.out.push('\n');
        for _ in 0..self.depth {
            self.out.push_str("  ");
        }
    }

    fn separate(&mut self) {
        let mut first = true;
        if let Some(p) = self.populated.last_mut() {
            first = !std::mem::replace(p, true);
        }
        if !first {
            self.out.push(',');
        }
        if self.inline_from.is_none() {
            if self.depth > 0 {
                self.newline();
            }
        } else if !first {
            self.out.push(' ');
        }
    }

    fn open(&mut self, c: char) {
        self.out.push(c);
        self.depth += 1;
        self.populated.push(false);
    }

    /// Opens a container that stays on one line up to its `close`.
    fn open_inline(&mut self, c: char) {
        self.open(c);
        self.inline_from.get_or_insert(self.depth);
    }

    fn close(&mut self, c: char) {
        self.depth -= 1;
        let populated = self.populated.pop() == Some(true);
        match self.inline_from {
            Some(d) if d > self.depth => self.inline_from = None,
            Some(_) => {}
            None if populated => self.newline(),
            None => {}
        }
        self.out.push(c);
    }

    /// Starts an object field: separator, key, colon.
    fn field(&mut self, name: &str) {
        self.separate();
        self.out.push('"');
        self.out.push_str(name);
        self.out.push_str("\": ");
    }

    /// Starts an array element.
    fn item(&mut self) {
        self.separate();
    }

    fn raw(&mut self, s: &str) {
        self.out.push_str(s);
    }

    fn string(&mut self, s: &str) {
        self.out.push('"');
        for ch in s.chars() {
            match ch {
                '"' => self.out.push_str("\\\""),
                '\\' => self.out.push_str("\\\\"),
                '\n' => self.out.push_str("\\n"),
                c => self.out.push(c),
            }
        }
        self.out.push('"');
    }

    fn finish(mut self) -> String {
        self.out.push('\n');
        self.out
    }
}

/// Minimal JSON value model; objects keep insertion order so tests can
/// assert on schema field order.
#[derive(Clone, Debug, PartialEq)]
pub enum Json {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// Any number (lossy for integers above 2^53).
    Num(f64),
    /// String
    Str(String),
    /// Array
    Arr(Vec<Json>),
    /// Object, in document order.
    Obj(Vec<(String, Json)>),
}

impl Json {
    fn as_object(&self, what: &str) -> Result<&[(String, Json)], String> {
        match self {
            Json::Obj(m) => Ok(m),
            other => Err(format!("{what}: expected object, got {other:?}")),
        }
    }

    fn as_array(&self, what: &str) -> Result<&[Json], String> {
        match self {
            Json::Arr(a) => Ok(a),
            other => Err(format!("{what}: expected array, got {other:?}")),
        }
    }

    fn as_str(&self, what: &str) -> Result<&str, String> {
        match self {
            Json::Str(s) => Ok(s),
            other => Err(format!("{what}: expected string, got {other:?}")),
        }
    }

    fn as_f64(&self, what: &str) -> Result<f64, String> {
        match self {
            Json::Num(x) => Ok(*x),
            other => Err(format!("{what}: expected number, got {other:?}")),
        }
    }

    fn as_u64(&self, what: &str) -> Result<u64, String> {
        let x = self.as_f64(what)?;
        if x < 0.0 || x.fract() != 0.0 {
            return Err(format!("{what}: expected unsigned integer, got {x}"));
        }
        Ok(x as u64)
    }
}

fn get<'a>(obj: &'a [(String, Json)], key: &str) -> Result<&'a Json, String> {
    obj.iter()
        .find(|(k, _)| k == key)
        .map(|(_, v)| v)
        .ok_or_else(|| format!("missing field: {key}"))
}

/// Parses a JSON document (objects, arrays, strings, numbers, booleans,
/// null; `\uXXXX` escapes are not supported — the writer never emits them).
pub fn parse_json(text: &str) -> Result<Json, String> {
    let bytes = text.as_bytes();
    let mut pos = 0;
    let v = parse_value(bytes, &mut pos)?;
    skip_ws(bytes, &mut pos);
    if pos != bytes.len() {
        return Err(format!("trailing garbage at byte {pos}"));
    }
    Ok(v)
}

fn skip_ws(b: &[u8], pos: &mut usize) {
    while *pos < b.len() && (b[*pos] as char).is_ascii_whitespace() {
        *pos += 1;
    }
}

fn expect(b: &[u8], pos: &mut usize, c: u8) -> Result<(), String> {
    skip_ws(b, pos);
    if *pos < b.len() && b[*pos] == c {
        *pos += 1;
        Ok(())
    } else {
        Err(format!("expected '{}' at byte {}", c as char, pos))
    }
}

fn parse_value(b: &[u8], pos: &mut usize) -> Result<Json, String> {
    skip_ws(b, pos);
    match b.get(*pos) {
        None => Err("unexpected end of input".to_string()),
        Some(b'{') => {
            *pos += 1;
            let mut out = Vec::new();
            skip_ws(b, pos);
            if b.get(*pos) == Some(&b'}') {
                *pos += 1;
                return Ok(Json::Obj(out));
            }
            loop {
                skip_ws(b, pos);
                let key = parse_string(b, pos)?;
                expect(b, pos, b':')?;
                out.push((key, parse_value(b, pos)?));
                skip_ws(b, pos);
                match b.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b'}') => {
                        *pos += 1;
                        return Ok(Json::Obj(out));
                    }
                    _ => return Err(format!("expected ',' or '}}' at byte {pos}")),
                }
            }
        }
        Some(b'[') => {
            *pos += 1;
            let mut out = Vec::new();
            skip_ws(b, pos);
            if b.get(*pos) == Some(&b']') {
                *pos += 1;
                return Ok(Json::Arr(out));
            }
            loop {
                out.push(parse_value(b, pos)?);
                skip_ws(b, pos);
                match b.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b']') => {
                        *pos += 1;
                        return Ok(Json::Arr(out));
                    }
                    _ => return Err(format!("expected ',' or ']' at byte {pos}")),
                }
            }
        }
        Some(b'"') => Ok(Json::Str(parse_string(b, pos)?)),
        Some(b't') if b[*pos..].starts_with(b"true") => {
            *pos += 4;
            Ok(Json::Bool(true))
        }
        Some(b'f') if b[*pos..].starts_with(b"false") => {
            *pos += 5;
            Ok(Json::Bool(false))
        }
        Some(b'n') if b[*pos..].starts_with(b"null") => {
            *pos += 4;
            Ok(Json::Null)
        }
        Some(_) => {
            let start = *pos;
            while *pos < b.len()
                && matches!(b[*pos], b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E')
            {
                *pos += 1;
            }
            let s = std::str::from_utf8(&b[start..*pos]).map_err(|e| e.to_string())?;
            s.parse::<f64>()
                .map(Json::Num)
                .map_err(|_| format!("bad number '{s}' at byte {start}"))
        }
    }
}

fn parse_string(b: &[u8], pos: &mut usize) -> Result<String, String> {
    if b.get(*pos) != Some(&b'"') {
        return Err(format!("expected string at byte {pos}"));
    }
    *pos += 1;
    let mut out = Vec::new();
    while let Some(&c) = b.get(*pos) {
        *pos += 1;
        match c {
            b'"' => {
                return String::from_utf8(out).map_err(|e| e.to_string());
            }
            b'\\' => {
                let esc = *b.get(*pos).ok_or("unterminated escape")?;
                *pos += 1;
                out.push(match esc {
                    b'n' => b'\n',
                    b't' => b'\t',
                    b'r' => b'\r',
                    other => other,
                });
            }
            other => out.push(other),
        }
    }
    Err("unterminated string".to_string())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_latency() -> LatencySnapshot {
        let h = lsgraph_api::LatencyHistogram::new();
        for v in [0u64, 90, 90, 3_000, 250_000] {
            h.record(v);
        }
        LatencySnapshot {
            batch_apply: h.snapshot(),
            group_apply: lsgraph_api::HistogramSnapshot::default(),
            kernel: h.snapshot(),
            reader: h.snapshot(),
        }
    }

    fn sample() -> BenchReport {
        BenchReport {
            schema_version: SCHEMA_VERSION,
            experiment: "fig12".to_string(),
            base: 10,
            shift: 0,
            trials: 1,
            engines: vec![
                EngineReport {
                    engine: "LSGraph".to_string(),
                    dataset: "LJ".to_string(),
                    batch_size: 1024,
                    insert_eps: 1.25e6,
                    delete_eps: 3.5e5,
                    insert_nanos: 800_000,
                    delete_nanos: 2_900_000,
                    counters: None,
                    struct_stats: Some(StructSnapshot {
                        ria_ripples: 7,
                        ria_bound: 5,
                        phase_apply_nanos: 123,
                        ..StructSnapshot::default()
                    }),
                    footprint: Some(FootprintReport {
                        payload_bytes: 4096,
                        index_bytes: 128,
                        space_amp_measured: 1.18,
                        space_amp_alpha: 1.2,
                    }),
                    latency: Some(sample_latency()),
                    kernels: [("bfs", 5_000), ("bc", 9_999)]
                        .map(|(name, wall_nanos)| KernelTime {
                            name: name.to_string(),
                            wall_nanos,
                        })
                        .into(),
                    durability: Some(DurabilityReport {
                        wal_frames: 12,
                        wal_bytes: 65_536,
                        wal_append_eps: 2.5e6,
                        checkpoint_bytes: 40_960,
                        checkpoint_nanos: 750_000,
                        recovery_nanos: 1_500_000,
                        replay_frames: 6,
                        replay_eps: 1.75e6,
                        wal_segments_rotated: 3,
                        wal_segments_deleted: 2,
                        delta_checkpoints_written: 4,
                        checkpoint_dirty_vertices: 57,
                        wal_live_bytes: 16_384,
                    }),
                    mixed: Some(MixedReport {
                        writer_batches: 32,
                        writer_edges: 32_768,
                        writer_eps: 1.1e6,
                        reader_threads: 4,
                        reader_ops: 1_024,
                        reader_ops_per_sec: 5.0e4,
                        snapshots_taken: 32,
                        cow_block_copies: 4_100,
                    }),
                    standing: Some(StandingReport {
                        subscriptions: 4,
                        batches: 24,
                        deltas_delivered: 100,
                        delta_entries: 512,
                        delivery_nanos: 90_000,
                        recompute_nanos: 2_700_000,
                        speedup: 30.0,
                        subscription_panics: 0,
                    }),
                },
                EngineReport {
                    engine: "Aspen".to_string(),
                    dataset: "LJ".to_string(),
                    batch_size: 1024,
                    insert_eps: 9.0e5,
                    delete_eps: 8.0e5,
                    insert_nanos: 1_100_000,
                    delete_nanos: 1_250_000,
                    counters: Some(CounterSnapshot {
                        search_steps: 42,
                        elements_moved: 99,
                        rebuilds: 3,
                        ..CounterSnapshot::default()
                    }),
                    struct_stats: None,
                    footprint: None,
                    latency: None,
                    kernels: Vec::new(),
                    durability: None,
                    mixed: None,
                    standing: None,
                },
            ],
        }
    }

    #[test]
    fn round_trip() {
        let r = sample();
        let back = BenchReport::from_json(&r.to_json()).expect("parse");
        assert_eq!(back, r);
    }

    /// Keys of `o`, and of the object `o[name]`, in document order.
    fn keys(o: &[(String, Json)]) -> Vec<&str> {
        o.iter().map(|(k, _)| k.as_str()).collect()
    }
    fn words(list: &str) -> Vec<&str> {
        list.split_whitespace().collect()
    }
    fn keys_of<'a>(o: &'a [(String, Json)], name: &str) -> Vec<&'a str> {
        keys(get(o, name).unwrap().as_object(name).unwrap())
    }

    #[test]
    fn schema_field_order_is_pinned() {
        let text = sample().to_json();
        let v = parse_json(&text).expect("parse");
        let top = v.as_object("top").unwrap();
        assert_eq!(
            keys(top),
            words("schema_version experiment base shift trials engines")
        );
        let engines = get(top, "engines").unwrap().as_array("engines").unwrap();
        let e0 = engines[0].as_object("e0").unwrap();
        assert_eq!(
            keys(e0),
            words(
                "engine dataset batch_size insert_eps delete_eps insert_nanos \
                 delete_nanos struct_stats footprint latency kernels durability \
                 mixed standing"
            )
        );
        assert_eq!(
            keys_of(e0, "durability"),
            words(
                "wal_frames wal_bytes wal_append_eps checkpoint_bytes \
                 checkpoint_nanos recovery_nanos replay_frames replay_eps \
                 wal_segments_rotated wal_segments_deleted \
                 delta_checkpoints_written checkpoint_dirty_vertices wal_live_bytes"
            )
        );
        assert_eq!(
            keys_of(e0, "mixed"),
            words(
                "writer_batches writer_edges writer_eps reader_threads reader_ops \
                 reader_ops_per_sec snapshots_taken cow_block_copies"
            )
        );
        assert_eq!(
            keys_of(e0, "standing"),
            words(
                "subscriptions batches deltas_delivered delta_entries \
                 delivery_nanos recompute_nanos speedup subscription_panics"
            )
        );
        assert_eq!(
            keys_of(e0, "latency"),
            ["batch_apply", "kernel", "reader"],
            "the empty group_apply histogram is left out"
        );
        let lat = get(e0, "latency").unwrap().as_object("lat").unwrap();
        assert_eq!(
            keys_of(lat, "batch_apply"),
            ["count", "sum", "max", "p50", "p90", "p99", "buckets"]
        );
        // Struct-stats names come verbatim from StructSnapshot::fields, in
        // that order, non-zero entries only.
        assert_eq!(
            keys_of(e0, "struct_stats"),
            ["ria_ripples", "ria_bound", "phase_apply_nanos"]
        );
        // Likewise the counters, from CounterSnapshot::fields; and a cell
        // writes no key for a `None` or an empty list.
        let e1 = engines[1].as_object("e1").unwrap();
        assert_eq!(
            keys(e1),
            words(
                "engine dataset batch_size insert_eps delete_eps insert_nanos \
                 delete_nanos counters"
            )
        );
        assert_eq!(
            keys_of(e1, "counters"),
            ["search_steps", "elements_moved", "rebuilds"]
        );
    }

    #[test]
    fn parser_rejects_malformed_documents() {
        for bad in ["", "{", "[1,", "{\"a\" 1}", "{\"a\":1}x", "nul"] {
            assert!(parse_json(bad).is_err(), "accepted: {bad:?}");
        }
        assert!(BenchReport::from_json("{\"schema_version\": 1}").is_err());
    }

    /// The reader's one rule: an absent key is zero / `None` / empty, an
    /// unknown key is an error — at every level below the top.
    #[test]
    fn absent_keys_are_zero_and_unknown_keys_are_errors() {
        let doc = r#"{
  "schema_version": 9, "experiment": "small", "base": 10, "shift": 0, "trials": 1,
  "engines": [{
    "engine": "LSGraph", "dataset": "LJ", "batch_size": 64,
    "struct_stats": {"tier_upgrades": 3},
    "latency": {"reader": {"count": 0, "sum": 0, "max": 0, "buckets": []}},
    "durability": {"replay_frames": 6}
  }]
}"#;
        let r = BenchReport::from_json(doc).expect("sparse document parses");
        let e = &r.engines[0];
        assert_eq!((e.insert_eps, e.insert_nanos), (0.0, 0));
        assert_eq!(e.counters, None);
        assert_eq!(e.footprint, None);
        assert!(e.kernels.is_empty());
        let ss = e.struct_stats.expect("struct_stats present");
        assert_eq!((ss.tier_upgrades, ss.ria_rebuilds), (3, 0));
        let lat = e.latency.expect("latency present");
        assert!(lat.batch_apply.is_empty() && lat.reader.is_empty());
        let d = e.durability.as_ref().expect("durability present");
        assert_eq!((d.replay_frames, d.wal_segments_rotated), (6, 0));
        // Re-serializing and re-reading is a fixed point.
        assert_eq!(BenchReport::from_json(&r.to_json()).unwrap(), r);

        for (from, to) in [
            ("\"dataset\"", "\"data_set\""),
            ("\"tier_upgrades\"", "\"phase_kernel_nanos\""),
            ("\"reader\"", "\"writer\""),
            ("\"replay_frames\"", "\"replayed\""),
        ] {
            let err = BenchReport::from_json(&doc.replacen(from, to, 1)).unwrap_err();
            assert!(err.contains("unknown"), "{to}: {err}");
        }
    }

    #[test]
    fn future_schema_versions_are_rejected() {
        let version = |v: u32| format!("\"schema_version\": {v}");
        let (ours, next) = (version(SCHEMA_VERSION), version(SCHEMA_VERSION + 1));
        let doc = sample().to_json().replacen(&ours, &next, 1);
        let err = BenchReport::from_json(&doc).unwrap_err();
        assert!(err.contains("unsupported schema_version"), "{err}");
    }

    #[test]
    fn corrupt_histograms_are_rejected() {
        // count disagreeing with bucket totals must not parse.
        let doc = sample()
            .to_json()
            .replacen("\"count\": 5", "\"count\": 6", 1);
        assert!(BenchReport::from_json(&doc).is_err());
    }

    #[test]
    fn histogram_survives_round_trip_with_quantiles() {
        let r = sample();
        let back = BenchReport::from_json(&r.to_json()).unwrap();
        let lat = back.engines[0].latency.as_ref().unwrap();
        let orig = r.engines[0].latency.as_ref().unwrap();
        assert_eq!(lat, orig);
        assert_eq!(lat.batch_apply.p50(), orig.batch_apply.p50());
        assert_eq!(lat.batch_apply.p99(), orig.batch_apply.p99());
        assert_eq!(lat.batch_apply.max, 250_000);
    }

    #[test]
    fn floats_survive_round_trip() {
        for x in [0.0f64, 1.0, 1.5e9, 123456.789, 3.0e-7] {
            let s = fmt_f64(x);
            assert_eq!(s.parse::<f64>().unwrap(), x, "{s}");
        }
    }
}
