//! Tier-aware checkpoints: full images, delta images, and the
//! recovery-chain loader that stitches them back together.
//!
//! A **full** checkpoint serializes every non-empty vertex through the
//! engine's one neighbor walk (`copy_neighbors_into` on a [`GraphView`]):
//! the inline line, then the spill container a slice at a time in its own
//! unit — sorted array whole, RIA block by block via its redundant index,
//! HITree stretch by stretch. Each record carries the vertex's tier tag, so
//! images document the hierarchy they froze even though restore rebuilds
//! tiers deterministically from degree.
//!
//! A **delta** checkpoint serializes only the vertices whose block differs
//! from the previous image's, plus the full quarantine set; its cost scales
//! with the write working set, not the graph. Deltas name their parent image and
//! only apply on top of exactly that state, so recovery validates the
//! chain link-by-link.
//!
//! Both kinds are written from a `&GraphView` — the live graph's
//! ([`LsGraph::view`]) or a frozen snapshot's, which is what lets
//! [`crate::Store::begin_checkpoint`] hand the image write to another thread
//! while the writer keeps applying batches.
//!
//! On-disk layout, shared by both kinds: an 8-byte magic (`LSGCKPT1` for a
//! full image `checkpoint-<id>.img`, `LSGCKPD1` for a delta
//! `checkpoint-<id>.dlt`), then one [`write_frame`] frame
//! (`u32 len | u32 CRC32 | body`), so a torn or bit-flipped image fails
//! closed exactly like a torn WAL frame. The body is
//!
//! ```text
//! u64 α bits | u64 A | u64 M                  -- config fingerprint
//! u64 parent_id                               -- delta only
//! u64 num_vertices | u64 num_edges            -- totals at the freeze point
//! u64 wal_segment | u64 wal_offset | u64 next_seq  -- WAL position covered
//! u64 quarantined_count | u32 ids…            -- the complete quarantine set
//! u64 record_count
//! records, ascending by id: u32 id | u8 tier tag | u32 degree | u32 neighbors…
//! ```
//!
//! A full image records every vertex of degree > 0. A delta records exactly
//! the vertices it is given, those whose block differs from the previous
//! image's (including ones emptied since, which recovery must clear), and its quarantine list *replaces* the parent's
//! wholesale; the totals let recovery validate it arithmetically before
//! mutating anything. One encoder (`write_image`) and one decoder
//! (`parse_image`) serve both.
//!
//! The frame's u32 length caps an image at 4 GiB, plenty for this engine's
//! in-memory scale. Images are written to a temp file, fsynced, and renamed
//! into place. Nothing else names the newest image: recovery and retention
//! derive the chain from a directory scan ([`load_newest_chain`]), because
//! any separate pointer could go stale and name a delta whose base image was
//! already garbage-collected.

use std::fmt::Display;
use std::fs::{self, File};
use std::io::{self, Read, Write};
use std::path::{Path, PathBuf};

use lsgraph_api::{fail_point, Graph};
use lsgraph_core::{Config, GraphView, LsGraph, Tier};
use lsgraph_gen::{parse_frame, write_frame};

/// The two image kinds. They share the frame and the body grammar and
/// differ in magic, file extension, and whether a parent id follows the
/// config fingerprint.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum ImageKind {
    Full,
    Delta,
}

impl ImageKind {
    fn magic(self) -> &'static [u8; 8] {
        match self {
            ImageKind::Full => b"LSGCKPT1",
            ImageKind::Delta => b"LSGCKPD1",
        }
    }

    fn extension(self) -> &'static str {
        match self {
            ImageKind::Full => "img",
            ImageKind::Delta => "dlt",
        }
    }

    fn file(self, dir: &Path, id: u64) -> PathBuf {
        // Zero-padded so lexical order = numeric.
        dir.join(format!("checkpoint-{id:016}.{}", self.extension()))
    }
}

/// Identity and coverage of one checkpoint image (full or delta).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CheckpointMeta {
    /// Monotonic checkpoint id (also in the file name).
    pub id: u64,
    /// WAL segment the image's replay position lives in.
    pub wal_segment: u64,
    /// Byte offset inside that segment; replay resumes here.
    pub wal_offset: u64,
    /// Sequence number the first replayed WAL frame must carry.
    pub next_seq: u64,
    /// Size of the image file in bytes.
    pub bytes: u64,
}

/// What [`load_newest_chain`] reconstructed (or failed to).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ChainInfo {
    /// Id of the full image the chain is rooted at (0 when no chain).
    pub base_id: u64,
    /// Id of the last applied image — the chain tip (equals `base_id` for
    /// a bare full image).
    pub tip_id: u64,
    /// Delta images applied on top of the base.
    pub chain_len: u64,
    /// Images that could not be used: corrupt fulls skipped on the way to
    /// a valid base, plus deltas past the first broken chain link (and
    /// every delta, if no full image is valid at all).
    pub images_discarded: u64,
}

/// File name of full checkpoint `id`.
pub fn checkpoint_file(dir: &Path, id: u64) -> PathBuf {
    ImageKind::Full.file(dir, id)
}

/// File name of delta checkpoint `id`.
pub fn delta_file(dir: &Path, id: u64) -> PathBuf {
    ImageKind::Delta.file(dir, id)
}

/// Kind and id of an image file, from its `checkpoint-<id>.img` / `.dlt`
/// name; `None` for anything else in the directory.
pub(crate) fn image_name(path: &Path) -> Option<(ImageKind, u64)> {
    let stem = path.file_name()?.to_str()?.strip_prefix("checkpoint-")?;
    [ImageKind::Full, ImageKind::Delta]
        .into_iter()
        .find_map(|kind| {
            let id = stem.strip_suffix(kind.extension())?.strip_suffix('.')?;
            Some((kind, id.parse().ok()?))
        })
}

fn invalid(path: &Path, msg: impl Display) -> io::Error {
    io::Error::new(
        io::ErrorKind::InvalidData,
        format!("{}: {msg}", path.display()),
    )
}

/// Serializes `g` into full checkpoint image `id` under `dir`. Quarantined
/// vertices contribute their id to the quarantine list but never an
/// adjacency record (they are degree 0 by invariant). Records
/// `checkpoint_bytes` into the graph's stats.
///
/// # Errors
///
/// Propagates I/O errors; the image is written to a temp file and renamed,
/// so a failed write never clobbers an older checkpoint.
pub fn write_checkpoint(
    dir: &Path,
    id: u64,
    g: &GraphView,
    wal_segment: u64,
    wal_offset: u64,
    next_seq: u64,
) -> io::Result<CheckpointMeta> {
    fail_point!("checkpoint_write");
    let meta = CheckpointMeta {
        id,
        wal_segment,
        wal_offset,
        next_seq,
        bytes: 0,
    };
    let every_vertex = &mut (0..g.num_vertices() as u32);
    write_image(dir, meta, None, g, every_vertex, g.num_edges() * 4)
}

/// Serializes a **delta** image `id` under `dir`: the adjacency of exactly
/// the vertices in `changed` (ascending, deduplicated — those whose block
/// differs from the parent image's, [`GraphView::changed_since`]) as they
/// stand in `g`, the full quarantine set, and `parent_id`, the
/// image this delta applies on top of. Records `checkpoint_bytes`.
///
/// # Errors
///
/// Propagates I/O errors; temp-file-plus-rename, so a failed write never
/// clobbers anything.
#[allow(clippy::too_many_arguments)]
pub fn write_delta_checkpoint(
    dir: &Path,
    id: u64,
    parent_id: u64,
    g: &GraphView,
    changed: &[u32],
    wal_segment: u64,
    wal_offset: u64,
    next_seq: u64,
) -> io::Result<CheckpointMeta> {
    fail_point!("delta_checkpoint");
    debug_assert!(
        changed.windows(2).all(|w| w[0] < w[1]),
        "delta vertices not sorted"
    );
    let meta = CheckpointMeta {
        id,
        wal_segment,
        wal_offset,
        next_seq,
        bytes: 0,
    };
    write_image(
        dir,
        meta,
        Some(parent_id),
        g,
        &mut changed.iter().copied(),
        changed.len() * 16,
    )
}

/// The one image encoder: header, quarantine list and one record per vertex
/// of `vertices` (ascending), framed and published by temp file + fsync +
/// rename. `parent_id` is `Some` exactly for a delta. A full image skips
/// degree-0 vertices; a delta must keep them, because recovery has to clear
/// a vertex that shrank to nothing since the parent image.
fn write_image(
    dir: &Path,
    mut meta: CheckpointMeta,
    parent_id: Option<u64>,
    g: &GraphView,
    vertices: &mut dyn Iterator<Item = u32>,
    payload_hint: usize,
) -> io::Result<CheckpointMeta> {
    let kind = match parent_id {
        None => ImageKind::Full,
        Some(_) => ImageKind::Delta,
    };
    let cfg = g.config();
    let mut body = Vec::with_capacity(96 + payload_hint);
    let mut put = |x: u64| body.extend_from_slice(&x.to_le_bytes());
    put(cfg.alpha.to_bits());
    put(cfg.a as u64);
    put(cfg.m as u64);
    if let Some(parent_id) = parent_id {
        put(parent_id);
    }
    put(g.num_vertices() as u64);
    put(g.num_edges() as u64);
    put(meta.wal_segment);
    put(meta.wal_offset);
    put(meta.next_seq);
    let quarantined = g.quarantined_vertices();
    put(quarantined.len() as u64);
    for &q in &quarantined {
        body.extend_from_slice(&q.to_le_bytes());
    }
    let record_count_at = body.len();
    body.extend_from_slice(&0u64.to_le_bytes());
    let mut records = 0u64;
    let mut ns = Vec::new();
    for v in vertices {
        ns.clear();
        g.copy_neighbors_into(v, &mut ns);
        if ns.is_empty() && kind == ImageKind::Full {
            continue;
        }
        debug_assert!(
            ns.is_empty() || !g.is_quarantined(v),
            "quarantined vertex {v} has a non-empty adjacency"
        );
        body.extend_from_slice(&v.to_le_bytes());
        body.push(g.tier(v).tag());
        body.extend_from_slice(&(ns.len() as u32).to_le_bytes());
        for &u in &ns {
            body.extend_from_slice(&u.to_le_bytes());
        }
        records += 1;
    }
    body[record_count_at..record_count_at + 8].copy_from_slice(&records.to_le_bytes());

    let path = kind.file(dir, meta.id);
    let tmp = path.with_extension("tmp");
    {
        let mut f = File::create(&tmp)?;
        f.write_all(kind.magic())?;
        write_frame(&mut f, &body)?;
        f.sync_data()?;
    }
    fs::rename(&tmp, &path)?;
    meta.bytes = fs::metadata(&path)?.len();
    g.stats().checkpoint_bytes.record(meta.bytes);
    Ok(meta)
}

/// A decoded image that passed every check [`parse_image`] can make without
/// looking at a graph.
struct ParsedImage {
    meta: CheckpointMeta,
    /// The image this one applies on top of; `Some` exactly for a delta.
    parent_id: Option<u64>,
    num_vertices: usize,
    num_edges: usize,
    quarantined: Vec<u32>,
    /// Per record, ascending by vertex: the vertex and where its adjacency
    /// ends in `neighbors` (it starts where the previous record's ends).
    records: Vec<(u32, usize)>,
    neighbors: Vec<u32>,
}

impl ParsedImage {
    /// `(vertex, its strictly ascending adjacency)` per record.
    fn records(&self) -> impl Iterator<Item = (u32, &[u32])> {
        let mut start = 0;
        self.records.iter().map(move |&(v, end)| {
            let ns = &self.neighbors[start..end];
            start = end;
            (v, ns)
        })
    }

    /// Grows `g` to the vertex count the image records, then installs the
    /// records and the quarantine set. Infallible for an image that parsed:
    /// call it only once nothing can reject the image any more.
    fn install(&self, g: &mut LsGraph) {
        g.grow_to(self.num_vertices);
        for (v, ns) in self.records() {
            g.restore_vertex_from_sorted(v, ns);
        }
        g.restore_quarantine_set(&self.quarantined)
            .expect("every quarantined id is inside the table grown above");
        debug_assert_eq!(g.num_edges(), self.num_edges);
    }
}

/// The one image decoder: reads the `kind` image at `path`, checks the
/// magic, the frame CRC and the config fingerprint against `cfg`, and
/// validates the whole body — `num_vertices` against the `u32` id space,
/// every other count against the bytes left before anything is allocated
/// for it, record ids ascending and inside `num_vertices`, tier tags known,
/// adjacencies strictly ascending, no trailing bytes.
///
/// # Errors
///
/// `InvalidData` for any of the above; other I/O errors propagate.
fn parse_image(path: &Path, kind: ImageKind, cfg: &Config) -> io::Result<ParsedImage> {
    let mut raw = Vec::new();
    File::open(path)?.read_to_end(&mut raw)?;
    let magic = kind.magic();
    if !raw.starts_with(magic) {
        let magic = String::from_utf8_lossy(magic);
        return Err(invalid(path, format_args!("not an {magic} image")));
    }
    let (body, consumed) = parse_frame(&raw[magic.len()..])
        .ok_or_else(|| invalid(path, "torn or corrupt checkpoint frame"))?;
    if magic.len() + consumed != raw.len() {
        return Err(invalid(path, "trailing bytes after image frame"));
    }
    let mut cur = Cursor { path, body };

    let (alpha_bits, a, m) = (cur.u64()?, cur.u64()?, cur.u64()?);
    if alpha_bits != cfg.alpha.to_bits() || a != cfg.a as u64 || m != cfg.m as u64 {
        return Err(invalid(
            path,
            format_args!(
                "image config (α={}, A={a}, M={m}) does not match engine config \
                 (α={}, A={}, M={})",
                f64::from_bits(alpha_bits),
                cfg.alpha,
                cfg.a,
                cfg.m
            ),
        ));
    }
    let parent_id = match kind {
        ImageKind::Full => None,
        ImageKind::Delta => Some(cur.u64()?),
    };
    // Vertex ids are `u32`: no table, and no table a delta grows, has more
    // than 2^32 entries, so a larger claim is refused before it sizes one.
    let num_vertices = match cur.u64()? {
        n if n <= u64::from(u32::MAX) + 1 => n as usize,
        n => {
            let what = format_args!("vertex count {n} exceeds the u32 id space");
            return Err(invalid(path, what));
        }
    };
    let num_edges = cur.u64()? as usize;
    let meta = CheckpointMeta {
        id: image_name(path).map_or(0, |(_, id)| id),
        wal_segment: cur.u64()?,
        wal_offset: cur.u64()?,
        next_seq: cur.u64()?,
        bytes: raw.len() as u64,
    };
    let n_quarantined = cur.count(4, "quarantine")?;
    let mut quarantined = Vec::with_capacity(n_quarantined);
    cur.u32s(n_quarantined, &mut quarantined)?;
    if let Some(q) = quarantined.iter().find(|&&q| q as usize >= num_vertices) {
        return Err(invalid(
            path,
            format_args!("quarantined vertex {q} out of range ({num_vertices} vertices)"),
        ));
    }

    // A record is at least id + tag + degree; every neighbor is 4 bytes.
    let n_records = cur.count(9, "record")?;
    let mut records = Vec::with_capacity(n_records);
    let mut neighbors = Vec::with_capacity(cur.body.len() / 4);
    for _ in 0..n_records {
        let v = cur.u32()?;
        if v as usize >= num_vertices {
            return Err(invalid(
                path,
                format_args!("record vertex {v} out of range ({num_vertices} vertices)"),
            ));
        }
        if records.last().is_some_and(|&(prev, _)| v <= prev) {
            return Err(invalid(path, "records not ascending"));
        }
        let tag = cur.u8()?;
        if Tier::from_tag(tag).is_none() {
            return Err(invalid(path, format_args!("unknown tier tag {tag}")));
        }
        let degree = cur.u32()?;
        let start = neighbors.len();
        cur.u32s(cur.fits(degree.into(), 4, "adjacency")?, &mut neighbors)?;
        if !neighbors[start..].windows(2).all(|w| w[0] < w[1]) {
            return Err(invalid(
                path,
                format_args!("vertex {v} adjacency not ascending"),
            ));
        }
        records.push((v, neighbors.len()));
    }
    if !cur.body.is_empty() {
        return Err(invalid(path, "unread bytes after last record"));
    }
    Ok(ParsedImage {
        meta,
        parent_id,
        num_vertices,
        num_edges,
        quarantined,
        records,
        neighbors,
    })
}

/// Parses and restores the full checkpoint image at `path`, rebuilding the
/// graph under `cfg` (whose α/A/M must match the image's fingerprint).
///
/// # Errors
///
/// `InvalidData` for a bad magic, torn frame, config mismatch, or any
/// structural inconsistency; other I/O errors propagate.
fn load_checkpoint(path: &Path, cfg: Config) -> io::Result<(LsGraph, CheckpointMeta)> {
    let image = parse_image(path, ImageKind::Full, &cfg)?;
    if image.neighbors.len() != image.num_edges {
        return Err(invalid(
            path,
            format_args!(
                "records hold {} edges but the image claims {}",
                image.neighbors.len(),
                image.num_edges
            ),
        ));
    }
    let mut g = LsGraph::try_with_config(image.num_vertices, cfg).map_err(|e| invalid(path, e))?;
    image.install(&mut g);
    Ok((g, image.meta))
}

/// Validates the delta image at `path` against `g` and — only if every
/// check passes — applies it, replacing the adjacency of each recorded
/// vertex and swapping in the delta's quarantine set wholesale.
///
/// Validation is strictly **before** mutation: the whole body is parsed,
/// the parent id must equal `expect_parent` (the id of the image `g`
/// currently reflects), the image must record at least as many vertices as
/// `g` holds (a table never shrinks), records must be ascending with sorted
/// adjacency, and the edge total predicted from `g`'s current degrees must
/// equal the total the image claims. A delta that fails any check leaves `g`
/// untouched, so the chain loader can fall back to a shorter chain.
///
/// # Errors
///
/// `InvalidData` on any validation failure (with `g` unmodified); other
/// I/O errors propagate.
fn apply_delta_checkpoint(
    path: &Path,
    g: &mut LsGraph,
    expect_parent: u64,
) -> io::Result<CheckpointMeta> {
    let image = parse_image(path, ImageKind::Delta, g.config())?;
    let parent_id = image
        .parent_id
        .expect("parse_image reads a parent id from every delta");
    if parent_id != expect_parent {
        return Err(invalid(
            path,
            format_args!(
                "delta parent {parent_id} does not match the applied chain tip {expect_parent}"
            ),
        ));
    }
    let (nv, tip) = (image.num_vertices, g.num_vertices());
    if nv < tip {
        let what = format_args!("delta records {nv} vertices but the chain tip holds {tip}");
        return Err(invalid(path, what));
    }
    // Arithmetic pre-check: replacing each recorded vertex's adjacency
    // must land exactly on the edge total the image claims. This catches
    // a delta applied to the wrong parent state even when ids line up.
    let mut predicted = g.num_edges() + image.neighbors.len();
    for &(v, _) in &image.records {
        // Records may name vertices beyond the parent image's count (the
        // graph grew between checkpoints); those contribute no prior edges.
        if (v as usize) < g.num_vertices() {
            predicted -= g.degree(v);
        }
    }
    if predicted != image.num_edges {
        return Err(invalid(
            path,
            format_args!(
                "applying this delta would yield {predicted} edges but the image claims {}",
                image.num_edges
            ),
        ));
    }
    image.install(g);
    Ok(image.meta)
}

/// Little-endian reader over what is left of a checkpoint body.
struct Cursor<'a> {
    path: &'a Path,
    body: &'a [u8],
}

impl Cursor<'_> {
    fn take<const N: usize>(&mut self) -> io::Result<[u8; N]> {
        let (head, rest) = self
            .body
            .split_first_chunk::<N>()
            .ok_or_else(|| invalid(self.path, "image body truncated"))?;
        self.body = rest;
        Ok(*head)
    }

    fn u8(&mut self) -> io::Result<u8> {
        Ok(self.take::<1>()?[0])
    }

    fn u32(&mut self) -> io::Result<u32> {
        Ok(u32::from_le_bytes(self.take()?))
    }

    fn u64(&mut self) -> io::Result<u64> {
        Ok(u64::from_le_bytes(self.take()?))
    }

    /// `n` as a `usize`, provided `n` items of at least `unit` bytes each
    /// can still follow. A count comes from the file; this is the check
    /// that must pass before anything is allocated or looped on its say-so.
    fn fits(&self, n: u64, unit: u64, what: &str) -> io::Result<usize> {
        match n.checked_mul(unit) {
            Some(bytes) if bytes <= self.body.len() as u64 => Ok(n as usize),
            _ => Err(invalid(
                self.path,
                format_args!(
                    "{what} count {n} exceeds the {} bytes left in the image",
                    self.body.len()
                ),
            )),
        }
    }

    /// Reads a `u64` count and checks it with [`Cursor::fits`].
    fn count(&mut self, unit: u64, what: &str) -> io::Result<usize> {
        let n = self.u64()?;
        self.fits(n, unit, what)
    }

    /// Appends the next `n` little-endian `u32`s to `out`.
    fn u32s(&mut self, n: usize, out: &mut Vec<u32>) -> io::Result<()> {
        let (head, rest) = n
            .checked_mul(4)
            .and_then(|bytes| self.body.split_at_checked(bytes))
            .ok_or_else(|| invalid(self.path, "image body truncated"))?;
        self.body = rest;
        out.extend(
            head.chunks_exact(4)
                .map(|c| u32::from_le_bytes(c.try_into().expect("4-byte chunk"))),
        );
        Ok(())
    }
}

/// Loads the newest **recoverable chain** under `dir`: the highest-id full
/// image that validates, plus every delta above it that links and applies
/// cleanly (each delta's parent must be the previously applied image, in
/// ascending id order). Returns the restored graph, the chain *tip*'s
/// meta (whose WAL position is where replay resumes), and a [`ChainInfo`]
/// accounting for what was discarded.
///
/// Degradation is graceful and strictly prefix-preserving: a corrupt or
/// mislinked delta ends the chain there (later deltas are discarded, the
/// prefix stands); a corrupt full image falls back to the next older full
/// and *its* delta chain. When a full and a delta share an id — the
/// compaction crash window — the full wins: deltas only apply with ids
/// strictly above the base and each applied predecessor.
///
/// `Ok((None, info))` when no valid full image exists (cold start, or
/// everything is corrupt — `info` still counts the casualties).
///
/// # Errors
///
/// Propagates directory-scan I/O errors; individually corrupt images are
/// skipped and counted, not errors.
pub fn load_newest_chain(
    dir: &Path,
    cfg: Config,
) -> io::Result<(Option<(LsGraph, CheckpointMeta)>, ChainInfo)> {
    let mut fulls: Vec<u64> = Vec::new();
    let mut deltas: Vec<u64> = Vec::new();
    for entry in fs::read_dir(dir)? {
        match image_name(&entry?.path()) {
            Some((ImageKind::Full, id)) => fulls.push(id),
            Some((ImageKind::Delta, id)) => deltas.push(id),
            None => {}
        }
    }
    fulls.sort_unstable_by(|x, y| y.cmp(x));
    deltas.sort_unstable();

    let mut info = ChainInfo::default();
    for &fid in &fulls {
        let (mut g, mut meta) = match load_checkpoint(&checkpoint_file(dir, fid), cfg) {
            Ok(loaded) => loaded,
            Err(_) => {
                info.images_discarded += 1;
                continue;
            }
        };
        info.base_id = fid;
        let mut tip = fid;
        let mut broken = false;
        for &did in deltas.iter().filter(|&&d| d > fid) {
            if broken {
                info.images_discarded += 1;
                continue;
            }
            match apply_delta_checkpoint(&delta_file(dir, did), &mut g, tip) {
                Ok(dmeta) => {
                    tip = did;
                    info.chain_len += 1;
                    meta = dmeta;
                }
                Err(_) => {
                    broken = true;
                    info.images_discarded += 1;
                }
            }
        }
        info.tip_id = tip;
        return Ok((Some((g, meta)), info));
    }
    // No usable base: every delta is unrecoverable too.
    info.images_discarded += deltas.len() as u64;
    Ok((None, info))
}

#[cfg(test)]
mod tests {
    use super::*;
    use lsgraph_api::{DynamicGraph, Edge};

    fn tmpdir(name: &str) -> PathBuf {
        let d = std::env::temp_dir().join(format!("lsgraph-ckpt-{}-{name}", std::process::id()));
        std::fs::remove_dir_all(&d).ok();
        std::fs::create_dir_all(&d).unwrap();
        d
    }

    fn skewed_graph(cfg: Config) -> LsGraph {
        let mut g = LsGraph::with_config(400, cfg);
        let mut batch = Vec::new();
        // Vertex 0 deep into the HITree tier, 1 in RIA, 2 in array, 3 inline.
        batch.extend((0..900u32).map(|i| Edge::new(0, i + 1)));
        batch.extend((0..80u32).map(|i| Edge::new(1, 2 * i + 1)));
        batch.extend((0..20u32).map(|i| Edge::new(2, 3 * i + 2)));
        batch.extend((0..5u32).map(|i| Edge::new(3, i + 7)));
        g.insert_batch(&batch);
        g
    }

    fn small_cfg() -> Config {
        Config {
            m: 256,
            ..Config::default()
        }
    }

    fn assert_same_graph(a: &LsGraph, b: &LsGraph) {
        assert_eq!(a.num_edges(), b.num_edges());
        for v in 0..a.num_vertices().max(b.num_vertices()) as u32 {
            assert_eq!(a.neighbors(v), b.neighbors(v), "vertex {v}");
        }
    }

    #[test]
    fn checkpoint_roundtrip_every_tier() {
        let dir = tmpdir("roundtrip");
        let g = skewed_graph(small_cfg());
        let meta = write_checkpoint(&dir, 1, g.view(), 2, 123, 9).unwrap();
        assert_eq!(meta.wal_segment, 2);
        assert_eq!(meta.wal_offset, 123);
        assert_eq!(meta.next_seq, 9);
        assert_eq!(g.stats().snapshot().checkpoint_bytes, meta.bytes);
        let (r, rmeta) = load_checkpoint(&checkpoint_file(&dir, 1), small_cfg()).unwrap();
        assert_eq!(rmeta, meta);
        assert_same_graph(&r, &g);
        assert_eq!(r.num_vertices(), g.num_vertices());
        r.check_invariants();
        std::fs::remove_dir_all(&dir).ok();
    }

    /// Earlier builds could freeze a vertex into a gap-encoded tier and
    /// record it with tag 5. Such images still load: the tag only describes,
    /// and restore rebuilds every vertex on the writable ladder from its
    /// degree. Each image's first record, vertex 0 on the HITree, is retagged
    /// 5 and the frame re-sealed, in a full image and in a delta on top of
    /// it. An unknown tag (6) is still refused.
    #[test]
    fn tag_5_images_restore_onto_the_writable_ladder() {
        let dir = tmpdir("tag5");
        let mut g = skewed_graph(small_cfg());
        assert_eq!(g.tier(0), Tier::HiTree);
        write_checkpoint(&dir, 1, g.view(), 0, 0, 1).unwrap();
        let full_graph: Vec<Vec<u32>> = (0..4).map(|v| g.neighbors(v)).collect();
        let base = g.view().clone();
        g.delete_batch(&[Edge::new(0, 5)]);
        let dirty = g.changed_since(&base);
        assert_eq!(dirty, vec![0]);
        write_delta_checkpoint(&dir, 2, 1, g.view(), &dirty, 0, 10, 2).unwrap();

        // Body: α, A, M, [parent], vertices, edges, WAL position (3 words),
        // quarantine count (0), record count; then vertex 0's id and tag.
        // Returns the tag it replaced.
        let retag = |path: &Path, words: usize, tag: u8| {
            let raw = fs::read(path).unwrap();
            let mut body = parse_frame(&raw[8..]).unwrap().0.to_vec();
            let old = std::mem::replace(&mut body[8 * words + 4], tag);
            let mut bytes = raw[..8].to_vec();
            write_frame(&mut bytes, &body).unwrap();
            fs::write(path, bytes).unwrap();
            old
        };
        assert_eq!(Tier::from_tag(5), Some(Tier::Compressed));
        let hitree = Tier::HiTree.tag();
        assert_eq!(retag(&checkpoint_file(&dir, 1), 10, 5), hitree);
        assert_eq!(retag(&delta_file(&dir, 2), 11, 5), hitree);

        let (r, _) = load_checkpoint(&checkpoint_file(&dir, 1), small_cfg()).unwrap();
        assert_eq!(r.tier(0), Tier::HiTree);
        assert_eq!(
            (0..4).map(|v| r.neighbors(v)).collect::<Vec<_>>(),
            full_graph
        );
        r.check_invariants();
        let (restored, info) = load_newest_chain(&dir, small_cfg()).unwrap();
        let (d, _) = restored.unwrap();
        assert_eq!((info.tip_id, info.images_discarded), (2, 0));
        assert_eq!(d.tier(0), Tier::HiTree);
        assert_same_graph(&d, &g);
        d.check_invariants();

        assert_eq!(retag(&checkpoint_file(&dir, 1), 10, 6), 5);
        let Err(err) = load_checkpoint(&checkpoint_file(&dir, 1), small_cfg()) else {
            panic!("an image with tag 6 loaded");
        };
        assert!(err.to_string().contains("unknown tier tag 6"), "{err}");
        std::fs::remove_dir_all(&dir).ok();
    }

    /// The on-disk bytes of both image kinds are pinned: a fixed four-tier
    /// graph with one quarantined vertex, one full image, one delta holding
    /// a grown, a new and a shrunk-to-empty vertex. A codec change that
    /// moves a single byte of either file changes its CRC32.
    #[test]
    fn golden_image_bytes_are_pinned() {
        let dir = tmpdir("golden");
        let mut g = skewed_graph(small_cfg());
        g.clear_vertex(4);
        g.restore_quarantine_set(&[4]).unwrap();
        write_checkpoint(&dir, 1, g.view(), 2, 123, 9).unwrap();
        let base = g.view().clone();
        g.insert_batch(
            &(0..30u32)
                .map(|i| Edge::new(7, 5 * i + 1))
                .collect::<Vec<_>>(),
        );
        g.insert_batch(&[Edge::new(0, 2_000), Edge::new(2, 1)]);
        g.delete_batch(&(0..5u32).map(|i| Edge::new(3, i + 7)).collect::<Vec<_>>());
        let changed = g.changed_since(&base);
        assert_eq!(changed, vec![0, 2, 3, 7]);
        write_delta_checkpoint(&dir, 2, 1, g.view(), &changed, 3, 456, 12).unwrap();
        let full = fs::read(checkpoint_file(&dir, 1)).unwrap();
        let delta = fs::read(delta_file(&dir, 2)).unwrap();
        assert_eq!(
            (full.len(), lsgraph_gen::crc32(&full)),
            (4156, 2_160_554_020),
            "full image bytes moved"
        );
        assert_eq!(
            (delta.len(), lsgraph_gen::crc32(&delta)),
            (3952, 150_772_469),
            "delta image bytes moved"
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    /// A delta grows the table to the vertex count it records: a vertex
    /// named only as a destination since the parent image comes back. A
    /// delta recording fewer vertices than the chain tip holds is refused,
    /// the graph untouched.
    #[test]
    fn delta_restores_the_recorded_vertex_count() {
        let dir = tmpdir("delta-count");
        let mut g = LsGraph::with_config(8, small_cfg());
        g.insert_batch(&[Edge::new(0, 1)]);
        write_checkpoint(&dir, 1, g.view(), 0, 0, 1).unwrap();
        let base = g.view().clone();
        g.insert_batch(&[Edge::new(0, 20)]);
        let dirty = g.changed_since(&base);
        write_delta_checkpoint(&dir, 2, 1, g.view(), &dirty, 0, 10, 2).unwrap();
        let (restored, info) = load_newest_chain(&dir, small_cfg()).unwrap();
        let (mut r, _) = restored.unwrap();
        assert_eq!((info.tip_id, info.chain_len), (2, 1));
        assert_eq!(r.num_vertices(), 21);
        assert_same_graph(&r, &g);
        r.check_invariants();

        let eight = LsGraph::with_config(8, small_cfg());
        write_delta_checkpoint(&dir, 3, 2, eight.view(), &[], 0, 20, 3).unwrap();
        let err = apply_delta_checkpoint(&delta_file(&dir, 3), &mut r, 2).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert!(err.to_string().contains("records 8 vertices"), "{err}");
        assert_eq!(r.num_vertices(), 21);
        assert_same_graph(&r, &g);
        std::fs::remove_dir_all(&dir).ok();
    }

    /// A CRC-valid image of `kind` under `small_cfg()`: a well-formed
    /// header claiming `vertices` vertices, then `tail` where the quarantine
    /// count would start.
    fn crafted_image(dir: &Path, kind: ImageKind, vertices: u64, tail: &[u64]) -> PathBuf {
        let cfg = small_cfg();
        let mut words = vec![cfg.alpha.to_bits(), cfg.a as u64, cfg.m as u64];
        if kind == ImageKind::Delta {
            words.push(1); // parent id
        }
        words.extend([vertices, 0, 0, 0, 0]); // vertices, edges, WAL position
        words.extend(tail);
        let body: Vec<u8> = words.iter().flat_map(|w| w.to_le_bytes()).collect();
        let mut bytes = kind.magic().to_vec();
        write_frame(&mut bytes, &body).unwrap();
        let path = kind.file(dir, 2);
        fs::write(&path, bytes).unwrap();
        path
    }

    /// Counts read from the file are checked against the bytes that follow
    /// before anything is allocated for them: a frame whose CRC is valid but
    /// whose body claims 2^32 - 1 neighbors (16 GiB of them), or 2^40
    /// quarantined ids or records, is `InvalidData`, for both image kinds —
    /// and so is one that claims more vertices than there are `u32` ids,
    /// which no later check would stop from sizing the vertex table.
    #[test]
    fn crafted_counts_are_refused_before_allocating() {
        let dir = tmpdir("crafted");
        // No quarantined ids, one record: `u32 id = 0 | u8 tag = 1 |
        // u32 degree = 0xFFFF_FFFF` as two little-endian words.
        let huge_degree = [0, 1, 0xFFFF_FF01_0000_0000, 0xFF];
        let id_space = u64::from(u32::MAX) + 1;
        for kind in [ImageKind::Full, ImageKind::Delta] {
            for (vertices, tail, what) in [
                (8, &[1 << 40][..], "quarantine count"),
                (8, &[0, 1 << 40][..], "record count"),
                (8, &huge_degree[..], "adjacency count"),
                (id_space + 1, &[0, 0][..], "vertex count"),
                (u64::MAX, &[0, 0][..], "vertex count"),
            ] {
                let path = crafted_image(&dir, kind, vertices, tail);
                let err = match kind {
                    ImageKind::Full => load_checkpoint(&path, small_cfg()).map(|_| ()),
                    ImageKind::Delta => {
                        let mut g = LsGraph::with_config(8, small_cfg());
                        apply_delta_checkpoint(&path, &mut g, 1).map(|_| ())
                    }
                }
                .unwrap_err();
                assert_eq!(err.kind(), io::ErrorKind::InvalidData, "{kind:?} {what}");
                assert!(err.to_string().contains(what), "{kind:?}: {err}");
            }
            // The same header with honest counts parses, up to a table that
            // uses every id: the refusals above are about the counts, not
            // the crafting.
            for vertices in [8, id_space] {
                let path = crafted_image(&dir, kind, vertices, &[0, 0]);
                let image = parse_image(&path, kind, &small_cfg()).unwrap();
                assert_eq!(image.num_vertices as u64, vertices);
            }
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn delta_roundtrip_applies_only_changed_vertices() {
        let dir = tmpdir("delta");
        let mut g = skewed_graph(small_cfg());
        write_checkpoint(&dir, 1, g.view(), 0, 10, 1).unwrap();
        let base = g.view().clone();
        // Mutate a few vertices: grow one, shrink one to zero, add one.
        g.insert_batch(
            &(0..30u32)
                .map(|i| Edge::new(7, 5 * i + 1))
                .collect::<Vec<_>>(),
        );
        g.delete_batch(&(0..5u32).map(|i| Edge::new(3, i + 7)).collect::<Vec<_>>());
        let changed = g.changed_since(&base);
        assert!(changed.contains(&7) && changed.contains(&3));
        let meta = write_delta_checkpoint(&dir, 2, 1, g.view(), &changed, 0, 20, 2).unwrap();
        assert!(
            meta.bytes < fs::metadata(checkpoint_file(&dir, 1)).unwrap().len(),
            "delta must be smaller than the full image"
        );
        let (restored, info) = load_newest_chain(&dir, small_cfg()).unwrap();
        let (r, rmeta) = restored.unwrap();
        assert_eq!(rmeta, meta);
        assert_eq!(info.base_id, 1);
        assert_eq!(info.tip_id, 2);
        assert_eq!(info.chain_len, 1);
        assert_eq!(info.images_discarded, 0);
        assert_same_graph(&r, &g);
        assert_eq!(
            r.neighbors(3),
            Vec::<u32>::new(),
            "shrunk-to-zero vertex cleared"
        );
        r.check_invariants();
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn corrupt_middle_delta_degrades_to_the_chain_prefix() {
        let dir = tmpdir("midcorrupt");
        let mut g = skewed_graph(small_cfg());
        write_checkpoint(&dir, 1, g.view(), 0, 10, 1).unwrap();
        let mut base = g.view().clone();
        let mut states = Vec::new();
        for (id, seed) in [(2u64, 100u32), (3, 200), (4, 300)] {
            g.insert_batch(
                &(0..20u32)
                    .map(|i| Edge::new(seed % 50, seed + i))
                    .collect::<Vec<_>>(),
            );
            let changed = g.changed_since(&base);
            base = g.view().clone();
            write_delta_checkpoint(&dir, id, id - 1, g.view(), &changed, 0, id * 10, id).unwrap();
            states.push(g.num_edges());
        }
        // Corrupt delta 3: the chain must degrade to full-1 + delta-2 and
        // discard deltas 3 and 4.
        let p3 = delta_file(&dir, 3);
        let mut bytes = fs::read(&p3).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x40;
        fs::write(&p3, &bytes).unwrap();
        let (restored, info) = load_newest_chain(&dir, small_cfg()).unwrap();
        let (r, rmeta) = restored.unwrap();
        assert_eq!(info.base_id, 1);
        assert_eq!(info.tip_id, 2);
        assert_eq!(info.chain_len, 1);
        assert_eq!(
            info.images_discarded, 2,
            "delta 3 (corrupt) and delta 4 (orphaned)"
        );
        assert_eq!(rmeta.id, 2);
        assert_eq!(rmeta.wal_offset, 20, "replay resumes at the surviving tip");
        assert_eq!(r.num_edges(), states[0]);
        r.check_invariants();
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn mislinked_delta_is_rejected_without_mutation() {
        let dir = tmpdir("mislink");
        let mut g = skewed_graph(small_cfg());
        write_checkpoint(&dir, 1, g.view(), 0, 10, 1).unwrap();
        let base = g.view().clone();
        g.insert_batch(&[Edge::new(9, 1), Edge::new(9, 2)]);
        let changed = g.changed_since(&base);
        // Parent claims 7, but the chain tip is 1.
        write_delta_checkpoint(&dir, 2, 7, g.view(), &changed, 0, 20, 2).unwrap();
        let (mut base, _) = load_checkpoint(&checkpoint_file(&dir, 1), small_cfg()).unwrap();
        let edges_before = base.num_edges();
        let err = apply_delta_checkpoint(&delta_file(&dir, 2), &mut base, 1).unwrap_err();
        assert!(err.to_string().contains("parent"), "{err}");
        assert_eq!(
            base.num_edges(),
            edges_before,
            "failed apply must not mutate"
        );
        // The chain loader treats it the same way: bare full image.
        let (restored, info) = load_newest_chain(&dir, small_cfg()).unwrap();
        assert_eq!(restored.unwrap().1.id, 1);
        assert_eq!(info.images_discarded, 1);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn full_image_wins_over_delta_at_the_same_id() {
        // The compaction crash window leaves both checkpoint-N.img and
        // checkpoint-N.dlt; the full must be chosen as base and the delta
        // ignored (not discarded — it is merely superseded).
        let dir = tmpdir("samewins");
        let mut g = skewed_graph(small_cfg());
        write_checkpoint(&dir, 1, g.view(), 0, 10, 1).unwrap();
        let base = g.view().clone();
        g.insert_batch(&[Edge::new(11, 3), Edge::new(11, 9)]);
        let changed = g.changed_since(&base);
        write_delta_checkpoint(&dir, 2, 1, g.view(), &changed, 0, 20, 2).unwrap();
        // Compaction folded the chain into a full at id 2 but crashed
        // before deleting the delta.
        write_checkpoint(&dir, 2, g.view(), 0, 20, 2).unwrap();
        let (restored, info) = load_newest_chain(&dir, small_cfg()).unwrap();
        let (r, rmeta) = restored.unwrap();
        assert_eq!(info.base_id, 2);
        assert_eq!(info.tip_id, 2);
        assert_eq!(info.chain_len, 0);
        assert_eq!(info.images_discarded, 0);
        assert_eq!(rmeta.id, 2);
        assert_same_graph(&r, &g);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn corrupt_base_falls_back_to_the_older_chain() {
        let dir = tmpdir("corrupt");
        let g = skewed_graph(small_cfg());
        write_checkpoint(&dir, 1, g.view(), 0, 10, 1).unwrap();
        write_checkpoint(&dir, 2, g.view(), 0, 20, 2).unwrap();
        // Corrupt image 2 (the newest): flip a payload byte.
        let p2 = checkpoint_file(&dir, 2);
        let mut bytes = std::fs::read(&p2).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x10;
        std::fs::write(&p2, &bytes).unwrap();
        assert!(load_checkpoint(&p2, small_cfg()).is_err());
        // Recovery falls back to the newest *valid* image and counts the
        // casualty.
        let (restored, info) = load_newest_chain(&dir, small_cfg()).unwrap();
        let (_, meta) = restored.unwrap();
        assert_eq!(meta.id, 1);
        assert_eq!(meta.wal_offset, 10);
        assert_eq!(info.images_discarded, 1);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn newest_image_is_never_selected_without_its_base() {
        // The newest file in the directory is a delta whose parent never
        // existed — the shape a crashed GC could leave. The scan must settle
        // on the older chain that does verify.
        let dir = tmpdir("orphan");
        let mut g = skewed_graph(small_cfg());
        write_checkpoint(&dir, 1, g.view(), 0, 10, 1).unwrap();
        let base = g.view().clone();
        g.insert_batch(&[Edge::new(13, 1)]);
        let changed = g.changed_since(&base);
        write_delta_checkpoint(&dir, 5, 4, g.view(), &changed, 0, 20, 2).unwrap();
        let (restored, info) = load_newest_chain(&dir, small_cfg()).unwrap();
        let (r, meta) = restored.unwrap();
        assert_eq!(meta.id, 1, "orphan delta must not be selected");
        assert_eq!(info.images_discarded, 1);
        assert_eq!(r.neighbors(13), Vec::<u32>::new());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn snapshot_checkpoint_freezes_the_flip_point() {
        let dir = tmpdir("snap-ckpt");
        let mut g = skewed_graph(small_cfg());
        let snap = g.snapshot();
        let frozen_edges = g.num_edges();
        // The live graph moves on before the image is written; the image
        // must serialize the flip point, not the current state.
        g.insert_batch(&(0..300u32).map(|i| Edge::new(5, i + 1)).collect::<Vec<_>>());
        assert_ne!(g.num_edges(), frozen_edges);
        let meta = write_checkpoint(&dir, 1, snap.view(), 0, 77, 3).unwrap();
        let (r, rmeta) = load_checkpoint(&checkpoint_file(&dir, 1), small_cfg()).unwrap();
        assert_eq!(rmeta, meta);
        assert_eq!(r.num_edges(), frozen_edges);
        for v in 0..r.num_vertices() as u32 {
            assert_eq!(r.neighbors(v), snap.neighbors(v), "vertex {v}");
        }
        assert_eq!(
            r.neighbors(5),
            Vec::<u32>::new(),
            "post-flip batch excluded"
        );
        r.check_invariants();
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn config_mismatch_is_rejected() {
        let dir = tmpdir("cfgmismatch");
        let g = skewed_graph(small_cfg());
        write_checkpoint(&dir, 1, g.view(), 0, 0, 0).unwrap();
        let other = Config {
            m: 512,
            ..Config::default()
        };
        let err = match load_checkpoint(&checkpoint_file(&dir, 1), other) {
            Err(e) => e,
            Ok(_) => panic!("config mismatch must be rejected"),
        };
        assert!(err.to_string().contains("does not match"), "{err}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn empty_dir_loads_nothing() {
        let dir = tmpdir("empty");
        let (restored, info) = load_newest_chain(&dir, Config::default()).unwrap();
        assert!(restored.is_none());
        assert_eq!(info, ChainInfo::default());
        std::fs::remove_dir_all(&dir).ok();
    }
}
