//! The simulator: one op grammar, two runners — one over a durable
//! [`Store`] and the engine axis (`Axis`), which drives any engine of the
//! workspace — one check after every step against the one model, and a
//! shrinker that turns a failing seed into a minimal trace printed as Rust
//! to paste back in. A seed set or trace names what it runs on: a store
//! setup (`Setup::named`) or `"<engine>/<setup>"` on the axis.

use std::any::Any;
use std::cell::Cell;
use std::collections::{BTreeMap, BTreeSet, HashSet};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::{Mutex, MutexGuard, Once};

use lsgraph::baselines::{AspenGraph, PacGraph, SortledtonGraph, TerraceGraph};
use lsgraph::gen::{rmat, Csr, RmatParams};
use lsgraph::queries::{BatchWindow, StandingQuery, SubscriptionHandle, SubscriptionHub};
use lsgraph::substrates::PmaGraph;
use lsgraph::{analytics, BatchKind, Config, DynamicGraph, Edge, Graph, GraphSnapshot, LsGraph};
use lsgraph::{HighDegreeStore, LiaSearch, MediumStore, StructSnapshot, Tier, VertexId};
use lsgraph_api::{
    catch_invariants, configure_failpoint, failpoint_fired, reset_failpoints, FailMode,
    FAILPOINT_SITES,
};
use lsgraph_persist::{
    delta_file, list_segments, load_newest_chain, segment_file, RecoveryReport, Store, StoreOptions,
};
use rand::{rngs::SmallRng, Rng, SeedableRng};

use crate::model::{assert_adjacency, assert_reads, edges, surface, Frozen, Model};

/// One step of a trace. While a kill has the store down only `Crash`, which
/// brings it back, and the failpoint ops act. (The binaries that include this file
/// for the snapshot and standing sets each build a part of the grammar.)
#[allow(dead_code)]
#[derive(Clone, Debug)]
pub enum Op {
    /// Logged, then applied; acknowledged unless a kill unwinds out of it.
    Insert(Vec<(u32, u32)>),
    Delete(Vec<(u32, u32)>),
    /// Take a snapshot (a killed flip must leave no trace) / drop the held
    /// one at this index, modulo how many are held.
    Snap,
    DropSnap(usize),
    /// Empty a vertex and quarantine it, as a fault would.
    Clear(u32),
    /// Repair every quarantined vertex from the model.
    Repair,
    Arm(&'static str, FailMode),
    Disarm(&'static str),
    Fsync,
    Checkpoint,
    Retention,
    Compact,
    /// The process dies (store, snapshots and subscriptions dropped,
    /// unsynced frames lost) and recovery reopens the directory.
    Crash,
    /// Sync, die, then tear this many trailing bytes off / flip the byte at
    /// this offset (modulo the bytes past the newest checkpoint) of the
    /// newest WAL segment, and recover twice.
    Tear(u64),
    Flip(u64),
    /// Sync, die, flip the middle byte of delta image `id`, recover. The
    /// WAL must still hold what the older chain replays from.
    CorruptImage(u64),
    Subscribe(StandingQuery),
    Pause,
    Quiesce,
    /// Restart every quarantined subscription.
    Restart,
}

/// What a seed set runs on: a store directory opened with these options.
#[derive(Clone, Copy, Debug, Default)]
pub struct Setup {
    pub n: usize,
    pub cfg: Config,
    pub opts: StoreOptions,
}

impl Setup {
    /// The store directories the sets and traces run on, by name.
    pub fn named(name: &str) -> Setup {
        let (a, m) = (Config::default().a, Config::default().m);
        let opts = |segment_bytes, delta_ratio, max_delta_chain| StoreOptions {
            segment_bytes,
            delta_ratio,
            max_delta_chain,
        };
        let d = StoreOptions::default();
        let (n, a, m, opts) = match name {
            // Small `M` so the core workload reaches every movement site.
            "core" => (200, a, 64, d),
            // Small thresholds so snapshots freeze every tier.
            "snapshots" => (120, 4, 32, d),
            "small" => (60, 4, 16, d),
            // No multiple of any page, grown across page boundaries.
            "growing" => (50, 4, 16, d),
            // Full images only.
            "crash_full" => (500, a, 128, opts(d.segment_bytes, 0.0, 8)),
            // Rotation on nearly every append, eager deltas.
            "crash_rotating" => (500, a, 128, opts(600, 1.0, 8)),
            // GC cutoffs on rotation boundaries constantly.
            "retention" => (300, a, 128, opts(512, 1.0, 4)),
            // Every checkpoint after the first a delta.
            "chain" => (8, a, 128, opts(d.segment_bytes, 1.0, 8)),
            "standing" => (96, a, m, d),
            _ => panic!("no setup `{name}`"),
        };
        let cfg = Config {
            a,
            m,
            ..Config::default()
        };
        Setup { n, cfg, opts }
    }
}

/// The engine's movement and apply sites: each fire kills one apply run
/// and quarantines its vertex.
pub const CORE_SITES: [&str; 5] = [
    "ria_rebuild",
    "lia_retrain",
    "hitree_vertical",
    "tier_upgrade",
    "apply_run",
];

pub fn batch(insert: bool, pairs: Vec<(u32, u32)>) -> Op {
    if insert {
        Op::Insert(pairs)
    } else {
        Op::Delete(pairs)
    }
}

/// `len` uniform pairs, sources below `srcs`, destinations below `dsts`.
pub fn pairs(rng: &mut SmallRng, len: usize, srcs: u32, dsts: u32) -> Vec<(u32, u32)> {
    (0..len)
        .map(|_| (rng.gen_range(0..srcs), rng.gen_range(0..dsts)))
        .collect()
}

static LOCK: Mutex<()> = Mutex::new(());

thread_local! {
    /// Set while shrinking: the failures it provokes are expected.
    static QUIET: Cell<bool> = const { Cell::new(false) };
}

/// Failpoint configuration is process-global, so with the sites compiled in
/// every case in this binary serializes here. Installs the panic hook.
pub fn lock() -> Option<MutexGuard<'static, ()>> {
    static HOOK: Once = Once::new();
    HOOK.call_once(|| {
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            if !is_failpoint(&message(info.payload())) && !QUIET.get() {
                prev(info);
            }
        }));
    });
    cfg!(feature = "failpoints").then(|| LOCK.lock().unwrap_or_else(|e| e.into_inner()))
}

/// Exactly the `fail_point!` payload; any other message, one that merely
/// mentions a failpoint included, is a real panic.
fn is_failpoint(msg: &str) -> bool {
    msg.strip_prefix("failpoint '")
        .and_then(|rest| rest.strip_suffix("' fired"))
        .is_some_and(|site| FAILPOINT_SITES.contains(&site))
}

fn message(payload: &(dyn Any + Send)) -> String {
    let s = payload.downcast_ref::<&str>().map(|s| s.to_string());
    s.or_else(|| payload.downcast_ref::<String>().cloned())
        .unwrap_or_default()
}

fn expect_failpoint(payload: Box<dyn Any + Send>, what: &str) {
    let msg = message(&*payload);
    assert!(is_failpoint(&msg), "{what} panicked: {msg}");
}

/// A directory named per (process, set, seed), removed on drop — also when
/// a check fails and the case unwinds.
#[derive(Default)]
pub struct TempDir(pub PathBuf);

impl TempDir {
    pub fn new(set: &str, seed: u64) -> TempDir {
        let name = format!("lsgraph-sim-{}-{set}-{seed}", std::process::id());
        let dir = std::env::temp_dir().join(name.replace('/', "-"));
        std::fs::remove_dir_all(&dir).ok();
        TempDir(dir)
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        std::fs::remove_dir_all(&self.0).ok();
    }
}

/// Blocks per directory page, as the engine reports it: what one write under
/// a snapshot copies.
pub fn page_blocks() -> u64 {
    let mut g = LsGraph::new(1);
    let _held = g.snapshot();
    g.insert_batch(&[Edge::new(0, 0)]);
    g.stats().snapshot().cow_block_copies
}

/// A held snapshot, what it must read (its read surface at the flip
/// included), and the pages the live graph still shares with it.
struct Held(GraphSnapshot, Frozen, BTreeSet<u64>);

struct Sub {
    handle: SubscriptionHandle,
    query: StandingQuery,
    /// Mirror of the subscription's window, for the oracle.
    window: BatchWindow,
    /// The polled deltas applied to an empty map.
    replay: BTreeMap<u32, u64>,
    /// Deltas due while never killed: the bootstrap, then one per batch.
    owed: Option<i64>,
    /// Its result when a check first saw it quarantined; until a restart
    /// it may neither move nor emit a delta.
    frozen: Option<BTreeMap<u32, u64>>,
}

/// A checkpoint the model saw written: the batches it covers, the WAL
/// position replay resumes at, and the quarantine set it froze.
struct Ckpt(usize, (u64, usize), BTreeSet<VertexId>);

#[derive(Default)]
pub struct Sim {
    pub setup: Setup,
    pub model: Model,
    /// Fires per site over the whole run.
    pub fires: BTreeMap<&'static str, u64>,
    pub last_report: RecoveryReport,
    /// `BatchOutcome::quarantined` of every acknowledged batch.
    pub quarantine_log: Vec<Vec<VertexId>>,
    /// The live graph's counters when the run ended.
    pub stats: StructSnapshot,
    /// What an engine-axis run reached (read by `tests/cross_engine.rs`).
    #[allow(dead_code)]
    pub reach: Reach,
    subs: Vec<Sub>,
    hub: Option<SubscriptionHub>,
    store: Option<Store>,
    snaps: Vec<Held>,
    ckpts: BTreeMap<u64, Ckpt>,
    /// Acknowledged batches a recovery must keep.
    synced: usize,
    /// What the current graph's counters must read: fires at the engine
    /// and delivery sites, repairs, and blocks copied on write.
    engine_fires: u64,
    deliver_fires: u64,
    repairs: u64,
    cow: u64,
    /// Snapshots taken and subscriptions restarted on the current graph.
    taken: u64,
    restarts: u64,
    seen: [u64; FAILPOINT_SITES.len()],
    page: u64,
    /// The table grew under a held snapshot (page copies then unmodeled).
    cow_unknown: bool,
    quiesced: bool,
    /// A repair or clear no committed batch has shown the hub yet.
    stale: bool,
    repaired: bool,
    dir: TempDir,
}

impl Sim {
    fn open(setup: Setup, set: &str, seed: u64) -> Sim {
        reset_failpoints();
        let dir = TempDir::new(set, seed);
        let (store, report) = Store::open_with(&dir.0, setup.n, setup.cfg, setup.opts).unwrap();
        assert_eq!(report, RecoveryReport::default(), "a fresh directory");
        let mut sim = Sim::default();
        (sim.setup, sim.model, sim.page) = (setup, Model::new(setup.n), page_blocks());
        (sim.store, sim.dir) = (Some(store), dir);
        sim
    }

    fn step(&mut self, i: usize, op: &Op) {
        match op {
            Op::Arm(site, mode) => self.configure(site, *mode),
            Op::Disarm(site) => self.configure(site, FailMode::Off),
            Op::Crash => {
                let floor = self.synced;
                self.crash();
                self.reopen(floor, false);
            }
            _ if self.store.is_none() => {}
            Op::Insert(pairs) => self.batch(BatchKind::Insert, pairs),
            Op::Delete(pairs) => self.batch(BatchKind::Delete, pairs),
            Op::Snap => self.snap(),
            Op::DropSnap(at) => {
                if !self.snaps.is_empty() {
                    self.snaps.swap_remove(at % self.snaps.len());
                }
            }
            Op::Clear(v) if (*v as usize) < self.model.adj.len() => {
                let g = self.store.as_mut().unwrap().graph_mut();
                g.clear_vertex(*v);
                self.model.quarantined.insert(*v);
                let q: Vec<VertexId> = self.model.quarantined.iter().copied().collect();
                g.restore_quarantine_set(&q).unwrap();
                self.write_page(*v);
                self.stale = true;
            }
            Op::Clear(_) => {}
            Op::Repair => {
                let store = self.store.as_mut().unwrap();
                let q = std::mem::take(&mut self.model.quarantined);
                for &v in &q {
                    let ns: Vec<u32> = self.model.adj[v as usize].iter().copied().collect();
                    assert_eq!(store.graph_mut().repair_vertex(v, &ns), Ok(ns.len()));
                }
                q.iter().for_each(|&v| self.write_page(v));
                self.repairs += q.len() as u64;
                self.stale |= !q.is_empty();
                self.repaired |= !q.is_empty();
            }
            Op::Fsync => {
                if self.durable(|s| s.sync().unwrap()).is_some() {
                    self.synced = self.model.log.len();
                }
            }
            Op::Checkpoint => self.checkpoint(),
            Op::Retention => {
                let pass = |s: &mut Store| (s.run_retention().unwrap(), s.wal_position().segment);
                if let Some((r, active)) = self.durable(pass) {
                    assert!(r.segments_deleted == 0 || r.segment_cutoff <= active, "GC");
                }
            }
            Op::Compact => {
                self.durable(|s| s.compact().unwrap());
            }
            Op::Tear(_) | Op::Flip(_) | Op::CorruptImage(_) => self.damage(op),
            Op::Subscribe(q) => {
                let store = self.store.as_mut().unwrap();
                let hub = self
                    .hub
                    .get_or_insert_with(|| SubscriptionHub::attach(store.graph_mut()));
                let handle = hub.subscribe(store.graph(), *q);
                let window = BatchWindow::new(q.window().unwrap_or(1));
                self.subs.push(Sub {
                    handle,
                    query: *q,
                    window,
                    replay: BTreeMap::new(),
                    owed: Some(1),
                    frozen: None,
                });
            }
            Op::Pause => self.hub.iter().for_each(SubscriptionHub::pause),
            Op::Quiesce => {
                self.hub.iter().for_each(SubscriptionHub::quiesce);
                self.quiesced = self.hub.is_some();
            }
            Op::Restart => {
                let g = self.store.as_ref().unwrap().graph();
                for sub in self.subs.iter_mut().filter(|s| s.handle.is_quarantined()) {
                    assert!(sub.handle.restart(g), "restart refused");
                    sub.window = BatchWindow::new(sub.query.window().unwrap_or(1));
                    (sub.owed, sub.frozen) = (None, None);
                    self.restarts += 1;
                }
            }
        }
        self.bank();
        self.check(&format!("step {i}"));
    }

    /// Moves the sites' fire counts into `fires`; returns how many engine
    /// fires (one quarantined vertex each) happened since the last call.
    fn bank(&mut self) -> u64 {
        let mut engine = 0;
        for (i, site) in FAILPOINT_SITES.iter().enumerate() {
            let new = failpoint_fired(site) - self.seen[i];
            self.seen[i] += new;
            if new > 0 {
                *self.fires.entry(site).or_default() += new;
            }
            // Each engine-site fire kills one apply run, quarantining its vertex.
            let engine_site = CORE_SITES.contains(site) || *site == "spill_downgrade";
            engine += new * u64::from(engine_site);
            self.deliver_fires += new * u64::from(*site == "subscription_deliver");
        }
        self.engine_fires += engine;
        engine
    }

    fn configure(&mut self, site: &str, mode: FailMode) {
        self.bank();
        configure_failpoint(site, mode);
        self.seen[FAILPOINT_SITES.iter().position(|s| *s == site).unwrap()] = 0;
    }

    /// Runs a store operation; a failpoint unwinding out of it is a kill.
    fn durable<T>(&mut self, f: impl FnOnce(&mut Store) -> T) -> Option<T> {
        let store = self.store.as_mut()?;
        let out = catch_unwind(AssertUnwindSafe(|| f(store)));
        out.map_err(|p| (expect_failpoint(p, "a store operation"), self.crash()))
            .ok()
    }

    fn batch(&mut self, kind: BatchKind, pairs: &[(u32, u32)]) {
        let edges = edges(pairs);
        let Some(outcome) = self.durable(|s| match kind {
            BatchKind::Insert => s.insert_batch(&edges).unwrap(),
            BatchKind::Delete => s.delete_batch(&edges).unwrap(),
        }) else {
            return;
        };
        let fired = self.bank();
        let (model, killed) = (&mut self.model, &outcome.quarantined);
        assert_eq!(killed.len() as u64, fired, "one quarantine per fire");
        assert!(killed.iter().all(|v| !model.quarantined.contains(v)));
        assert_eq!(outcome, model.outcome(kind, &edges, killed));
        // Every run that reached its block made its page exclusive first.
        let nv = model.adj.len();
        let grows =
            kind == BatchKind::Insert && pairs.iter().any(|&(s, d)| s.max(d) as usize >= nv);
        self.cow_unknown |= grows && self.snaps.iter().any(|h| !h.2.is_empty());
        let runs: BTreeSet<u32> = (edges.iter().map(|e| e.src))
            .filter(|&s| {
                !model.quarantined.contains(&s) && (kind == BatchKind::Insert || (s as usize) < nv)
            })
            .collect();
        model.apply(kind, &edges);
        model.quarantined.extend(killed);
        self.quarantine_log.push(killed.clone());
        runs.into_iter().for_each(|v| self.write_page(v));
        if !edges.is_empty() {
            // The hub refreshes from the snapshot after a repair or a lossy batch.
            self.stale &= outcome.is_clean() && !self.repaired;
            self.repaired = false;
            let seq = self.store.as_ref().unwrap().graph().batch_seq();
            for sub in &mut self.subs {
                sub.window.push(seq, kind, &edges);
                sub.owed = sub.owed.map(|o| o + 1);
            }
            self.quiesced = false;
        }
    }

    fn write_page(&mut self, v: VertexId) {
        let p = v as u64 / self.page;
        let snaps = self.snaps.iter_mut();
        let shared = snaps.map(|h| h.2.remove(&p)).fold(false, |a, b| a | b);
        self.cow += self.page * u64::from(shared);
    }

    fn snap(&mut self) {
        let g = self.store.as_ref().unwrap().graph();
        match catch_unwind(AssertUnwindSafe(|| g.snapshot())) {
            Err(p) => expect_failpoint(p, "a snapshot flip"),
            Ok(snap) => {
                let mut want = self.model.frozen();
                want.surface = Some(surface(g.view()));
                assert_reads(snap.view(), &want, "a snapshot at its flip");
                let pages = (g.num_vertices() as u64).div_ceil(self.page);
                self.snaps.push(Held(snap, want, (0..pages).collect()));
                self.taken += 1;
            }
        }
    }

    fn checkpoint(&mut self) {
        let Some(meta) = self.durable(|s| s.checkpoint().unwrap()) else {
            return;
        };
        self.synced = self.model.log.len();
        assert_eq!(
            meta.next_seq as usize, self.synced,
            "a checkpoint covers the log"
        );
        // The chain a recovery would load is the live graph: quarantine
        // marks included, no adjacency record for a quarantined vertex.
        let (chain, _) = load_newest_chain(&self.dir.0, self.setup.cfg).unwrap();
        let (image, tip) = chain.expect("a recoverable chain after a checkpoint");
        assert_eq!(tip.id, meta.id, "the newest chain ends at the new image");
        assert_reads(image.view(), &self.model.frozen(), "checkpoint chain");
        let pos = (meta.wal_segment, meta.wal_offset as usize);
        let ckpt = Ckpt(self.synced, pos, self.model.quarantined.clone());
        self.ckpts.insert(meta.id, ckpt);
    }

    /// The process dies: subscriptions, snapshots and the store go,
    /// unsynced frames with them.
    fn crash(&mut self) {
        self.subs.clear();
        self.hub = None;
        self.snaps.clear();
        self.store = None;
    }

    /// Recovers the directory and holds it to the model at the reported
    /// prefix, which must keep at least `floor` batches; returns false if a
    /// kill landed inside recovery.
    fn reopen(&mut self, floor: usize, torn: bool) -> bool {
        let Setup { n, cfg, opts } = self.setup;
        let (store, report) = match catch_unwind(|| Store::open_with(&self.dir.0, n, cfg, opts)) {
            Ok(opened) => opened.unwrap(),
            Err(p) => {
                expect_failpoint(p, "recovery");
                return false;
            }
        };
        let (k, acked) = (report.next_seq as usize, self.model.log.len());
        assert!(
            floor <= k && k <= acked,
            "recovered {k}: {floor} synced, {acked} acked"
        );
        assert_eq!(
            report.frames_discarded,
            u64::from(torn),
            "truncation events"
        );
        let mut q = BTreeSet::new();
        if let Some(id) = report.checkpoint_loaded {
            let Ckpt(seq, _, frozen) = &self.ckpts[&id];
            assert!(*seq <= k, "image {id} covers more than was recovered");
            q = frozen.clone();
        }
        // Recovery prunes every image past the one it loaded.
        self.ckpts
            .retain(|&id, _| Some(id) <= report.checkpoint_loaded);
        let engine = self.bank();
        let got: BTreeSet<VertexId> = store.graph().quarantined_vertices().into_iter().collect();
        assert!(
            q.is_subset(&got),
            "recovery lost quarantine marks {q:?}: {got:?}"
        );
        assert_eq!(
            (got.len() - q.len()) as u64,
            engine,
            "one quarantine per fire"
        );
        assert_eq!(report.edges_restored, store.graph().num_edges() as u64);
        let log = std::mem::replace(&mut self.model, Model::new(n)).log;
        for (kind, batch) in &log[..k] {
            self.model.apply(*kind, batch);
        }
        self.model.quarantined = got;
        (self.engine_fires, self.deliver_fires, self.repairs) = (engine, 0, 0);
        (self.cow, self.synced, self.cow_unknown) = (0, k, false);
        (self.taken, self.restarts) = (0, 0);
        (self.stale, self.repaired) = (false, false);
        (self.last_report, self.store) = (report, Some(store));
        true
    }

    /// Syncs, dies, damages the directory as `op` says, and recovers: a
    /// damaged WAL frame is cut with everything after it, counted once, and
    /// gone from disk, so a second recovery is clean.
    fn damage(&mut self, op: &Op) {
        if self.durable(|s| s.sync().unwrap()).is_none() {
            return;
        }
        let acked = self.model.log.len();
        self.synced = acked;
        let newest = self.ckpts.values().next_back();
        let (floor, (segment, offset)) = newest.map_or((0, (0, 0)), |c| (c.0, c.1));
        self.crash();
        let dir = &self.dir.0;
        let last = *list_segments(dir).unwrap().last().unwrap();
        // Only frames past the newest image's replay position are read.
        let (path, start) = match *op {
            Op::CorruptImage(id) => (delta_file(dir, id), 0),
            _ if last == segment => (segment_file(dir, last), offset),
            _ => (segment_file(dir, last), 0),
        };
        let mut bytes = std::fs::read(&path).unwrap_or_default();
        let span = bytes.len().saturating_sub(start);
        match *op {
            _ if span == 0 => {}
            Op::Tear(t) => bytes.truncate(bytes.len() - (t as usize).clamp(1, span)),
            Op::Flip(at) => bytes[start + at as usize % span] ^= 0xFF,
            _ => bytes[span / 2] ^= 0xFF,
        }
        if span > 0 {
            std::fs::write(&path, &bytes).unwrap();
        }
        let torn = span > 0 && !matches!(op, Op::CorruptImage(_));
        if !self.reopen(if torn { floor } else { acked }, torn) || !torn {
            return;
        }
        let k = self.model.log.len();
        assert!(
            k < acked && self.last_report.bytes_discarded > 0,
            "replayed damage"
        );
        let g = self.store.as_ref().unwrap().graph();
        assert_eq!(g.stats().snapshot().recovery_frames_discarded, 1);
        if matches!(*op, Op::Tear(t) if t < 21) {
            assert_eq!(k, acked - 1, "a tear inside the last frame loses it alone");
        }
        self.crash();
        assert!(self.reopen(k, false) && self.model.log.len() == k);
    }

    fn check(&mut self, ctx: &str) {
        for (i, h) in self.snaps.iter().enumerate() {
            assert_reads(h.0.view(), &h.1, &format!("{ctx}: snapshot {i}"));
        }
        let Some(g) = self.store.as_ref().map(Store::graph) else {
            return;
        };
        assert_reads(g.view(), &self.model.frozen(), ctx);
        let (s, e) = (g.struct_snapshot(), self.engine_fires);
        assert_eq!(s.apply_run_panics, e, "{ctx}: apply_run_panics");
        assert_eq!(s.vertices_quarantined, e, "{ctx}: vertices_quarantined");
        assert_eq!(s.vertices_repaired, self.repairs, "{ctx}: repairs");
        // The hub takes a snapshot per delivered batch.
        if self.hub.is_none() {
            assert_eq!(s.snapshots_taken, self.taken, "{ctx}: snapshots_taken");
            if !self.cow_unknown {
                assert_eq!(s.cow_block_copies, self.cow, "{ctx}: cow_block_copies");
            }
        }
        if self.hub.is_none() || self.quiesced {
            let held = self.snaps.len() as u64;
            assert_eq!(s.snapshots_taken - s.snapshots_retired, held, "{ctx}: held");
        }
        if !self.quiesced {
            return;
        }
        assert_eq!(s.subscription_panics, self.deliver_fires, "{ctx}: kills");
        // Membership is reachability, the component only on a symmetric graph.
        let (fresh, mut dead) = (self.model.quarantined.is_empty() && !self.stale, 0);
        for (i, sub) in self.subs.iter_mut().enumerate() {
            let ctx = format!("{ctx}: subscription {i} {:?}", sub.query);
            let deltas = sub.handle.poll();
            deltas.iter().for_each(|d| d.apply_to(&mut sub.replay));
            let result = sub.handle.result();
            assert_eq!(sub.replay, result, "{ctx}: replayed deltas");
            if let Some(frozen) = &sub.frozen {
                assert_eq!(&result, frozen, "{ctx}: moved while dead");
                assert!(deltas.is_empty(), "{ctx}: a delta while dead");
            }
            if sub.handle.is_quarantined() {
                (sub.frozen, sub.owed, dead) = (Some(result), None, dead + 1);
                continue;
            }
            sub.owed = sub.owed.map(|o| o - deltas.len() as i64);
            assert_eq!(sub.owed.unwrap_or(0), 0, "{ctx}: one delta per batch");
            if fresh {
                assert_eq!(result, sub.query.oracle(g, &sub.window), "{ctx}: oracle");
            }
        }
        let kills = dead + self.restarts;
        assert_eq!(kills, self.deliver_fires, "{ctx}: one quarantine per kill");
    }

    /// Disarms everything, drains the hub and drops every snapshot, checks
    /// once more (every snapshot retired), and closes the store.
    fn finish(&mut self) {
        for site in FAILPOINT_SITES {
            self.configure(site, FailMode::Off);
        }
        self.hub.iter().for_each(SubscriptionHub::quiesce);
        self.quiesced = self.hub.is_some();
        self.snaps.clear();
        self.check("end");
        if let Some(store) = &self.store {
            self.stats = store.graph().struct_snapshot();
        }
        self.crash();
    }
}

/// What an engine-axis run reached: the tiers an LSGraph vertex was in,
/// the largest degree and the largest triangle count.
#[derive(Debug, Default)]
pub struct Reach {
    pub tiers: HashSet<Tier>,
    pub degree: usize,
    pub triangles: u64,
}

/// Vertex `v` of the `spread` setup draws its ids below `RANGE[v]`, so
/// degrees spread across every container of every engine.
pub const RANGE: [u32; 8] = [1, 10, 16, 24, 60, 160, 700, 2_400];

/// `m` R-MAT edges on 2^11 vertices, each also reversed; the `rmat` setup
/// bulk-loads seed 1's.
pub fn rmat_batch(m: usize, seed: u64) -> Vec<(u32, u32)> {
    let both = |e: &Edge| [(e.src, e.dst), (e.dst, e.src)];
    let edges = rmat(11, m, RmatParams::paper(), seed);
    edges.iter().flat_map(both).collect()
}

/// An engine of the axis, or a snapshot one holds.
enum Engine {
    Ls(LsGraph),
    LsSnap(GraphSnapshot),
    Aspen(AspenGraph),
    Pac(PacGraph),
    Sortledton(SortledtonGraph),
    /// Terrace and PCSR, which take no snapshot.
    Other(Box<dyn DynamicGraph>),
}

impl Engine {
    /// Bulk-loads engine `name`. Each ablation runs where its switch acts:
    /// the PMA arm holds every medium spill up to the default `M`; the other
    /// two change the ladder above `M = 16`.
    fn load(name: &str, n: usize, edges: &[Edge]) -> Engine {
        let mut cfg = Config::default();
        if matches!(name, "LSGraph-a4m16" | "LSGraph-RiaOnly" | "LSGraph-Binary") {
            (cfg.a, cfg.m) = (4, 16);
        }
        match name {
            "LSGraph" | "LSGraph-a4m16" => {}
            "LSGraph-PMA" => cfg.medium = MediumStore::Pma,
            "LSGraph-RiaOnly" => cfg.high = HighDegreeStore::RiaOnly,
            "LSGraph-Binary" => cfg.lia_search = LiaSearch::Binary,
            "Aspen" => return Engine::Aspen(AspenGraph::from_edges(n, edges)),
            "PaC-tree" => return Engine::Pac(PacGraph::from_edges(n, edges)),
            "Terrace" => return Engine::Other(Box::new(TerraceGraph::from_edges(n, edges))),
            "Sortledton" => return Engine::Sortledton(SortledtonGraph::from_edges(n, edges)),
            "PCSR" => return Engine::Other(Box::new(PmaGraph::from_edges(n, edges))),
            _ => panic!("no engine `{name}`"),
        }
        Engine::Ls(LsGraph::from_edges(n, edges, cfg))
    }

    /// The reads, a live engine's through its writer.
    fn graph(&mut self) -> &dyn Graph {
        match self {
            Engine::LsSnap(s) => s,
            g => g.writer(),
        }
    }

    fn writer(&mut self) -> &mut dyn DynamicGraph {
        match self {
            Engine::Ls(g) => g,
            Engine::LsSnap(_) => unreachable!("a snapshot is never written"),
            Engine::Aspen(g) => g,
            Engine::Pac(g) => g,
            Engine::Sortledton(g) => g,
            Engine::Other(g) => &mut **g,
        }
    }

    fn validate(&mut self) -> Result<(), String> {
        match self {
            Engine::LsSnap(s) => catch_invariants(|| s.check_invariants()),
            g => g.writer().validate_structure(),
        }
    }

    /// A snapshot later writes do not reach, where the engine takes one.
    fn snapshot(&self) -> Option<Engine> {
        match self {
            Engine::Ls(g) => Some(Engine::LsSnap(g.snapshot())),
            Engine::Aspen(g) => Some(Engine::Aspen(g.snapshot())),
            Engine::Pac(g) => Some(Engine::Pac(g.snapshot())),
            Engine::Sortledton(g) => Some(Engine::Sortledton(g.snapshot())),
            _ => None,
        }
    }
}

/// The engine axis: one engine bulk-loaded from a setup, driven by the
/// grammar's inserts, deletes and snapshots, and held to the model after
/// every step through the reads every engine shares.
struct Axis {
    live: Engine,
    model: Model,
    /// Held snapshots and what each must read.
    snaps: Vec<(Engine, Frozen)>,
    /// Whether checks walk the vertices; every how many steps the kernels
    /// are checked.
    walks: bool,
    kernels: Option<usize>,
    reach: Reach,
}

impl Axis {
    fn open(engine: &str, setup: &str) -> Axis {
        let mut rng = SmallRng::seed_from_u64(60);
        let (n, load, walks, kernels) = match setup {
            // No vertex: the first insert grows the table.
            "empty" => (0, Vec::new(), true, Some(1)),
            // The seed sets draw ids up to 80, past the table.
            "small" => (60, pairs(&mut rng, 100, 60, 60), true, None),
            "spread" => (RANGE.len(), Vec::new(), true, None),
            "rmat" => (1 << 11, rmat_batch(20_000, 1), false, Some(3)),
            _ => panic!("no engine setup `{setup}`"),
        };
        let (load, mut model) = (edges(&load), Model::new(n));
        model.apply(BatchKind::Insert, &load);
        let live = Engine::load(engine, n, &load);
        let (snaps, reach) = (Vec::new(), Reach::default());
        Axis {
            live,
            model,
            snaps,
            walks,
            kernels,
            reach,
        }
    }

    fn run(mut self, ops: &[Op]) -> Sim {
        self.check("load", true);
        for (i, op) in ops.iter().enumerate() {
            match op {
                Op::Insert(pairs) => self.batch(BatchKind::Insert, pairs, i),
                Op::Delete(pairs) => self.batch(BatchKind::Delete, pairs, i),
                Op::Snap => {
                    let frozen = self.model.frozen();
                    self.snaps.extend(self.live.snapshot().map(|s| (s, frozen)));
                }
                Op::DropSnap(_) if self.snaps.is_empty() => {}
                Op::DropSnap(at) => drop(self.snaps.swap_remove(at % self.snaps.len())),
                _ => panic!("step {i}: {op:?} is not on the engine axis"),
            }
            let kernels = self.kernels.is_some_and(|k| (i + 1) % k == 0);
            self.check(&format!("step {i}"), kernels || i + 1 == ops.len());
        }
        Sim {
            model: self.model,
            reach: self.reach,
            ..Sim::default()
        }
    }

    fn batch(&mut self, kind: BatchKind, pairs: &[(u32, u32)], i: usize) {
        let (edges, g) = (edges(pairs), self.live.writer());
        let got = match kind {
            BatchKind::Insert => g.insert_batch(&edges),
            BatchKind::Delete => g.delete_batch(&edges),
        };
        let want = self.model.outcome(kind, &edges, &[]).applied;
        assert_eq!(got, want, "step {i}: edges applied");
        self.model.apply(kind, &edges);
    }

    /// Checks every held snapshot and the live graph, with `kernels` the
    /// kernels too on a setup that checks them.
    fn check(&mut self, ctx: &str, kernels: bool) {
        for (i, (snap, want)) in self.snaps.iter_mut().enumerate() {
            check_reads(snap, want, self.walks, &format!("{ctx}: snapshot {i}"));
        }
        let want = self.model.frozen();
        check_reads(&mut self.live, &want, self.walks, ctx);
        let top = want.adj.iter().map(Vec::len).max().unwrap_or(0);
        self.reach.degree = self.reach.degree.max(top);
        if let Engine::Ls(g) = &self.live {
            let tiers = (0..g.num_vertices() as u32).map(|v| g.tier(v));
            self.reach.tiers.extend(tiers);
        }
        if kernels && self.kernels.is_some() {
            let triangles = check_kernels(self.live.graph(), &want, ctx);
            self.reach.triangles = self.reach.triangles.max(triangles);
        }
    }
}

/// Holds `g` to `want`: the adjacency reads and the structural self-check;
/// on every vertex holding an edge, and at either end of the table,
/// `has_edge` at and beside its first and last neighbour, at its middle
/// one, at the table's first id and end, and at the largest id; with `walks`, the slice-walk
/// contract: every slice non-empty, ids strictly ascending, a per-id walk
/// told to stop after the k-th id visiting exactly k ids (k at and either
/// side of each of the first eight slice ends), `copy_neighbors_into`
/// appending.
fn check_reads(g: &mut Engine, want: &Frozen, walks: bool, ctx: &str) {
    let (nv, r) = (want.adj.len(), g.graph());
    assert_adjacency(r, &want.adj, ctx);
    for (v, ns) in want.adj.iter().enumerate() {
        if ns.is_empty() && v != 0 && v + 1 != nv {
            continue;
        }
        let (v, mid) = (v as u32, ns.len() / 2);
        let near = |(&a, &b): (&u32, &u32)| [a.wrapping_sub(1), a, ns[mid], b, b.saturating_add(1)];
        let near = ns.first().zip(ns.last()).map(near).into_iter().flatten();
        for u in near.chain([0, nv as u32, u32::MAX]) {
            let has = ns.binary_search(&u).is_ok();
            assert_eq!(r.has_edge(v, u), has, "{ctx}: has_edge({v}, {u})");
        }
        if !walks {
            continue;
        }
        let mut slices: Vec<Vec<u32>> = Vec::new();
        let complete = r.for_each_neighbor_slice_while(v, &mut |s| {
            slices.push(s.to_vec());
            true
        });
        let (ids, empty) = (slices.concat(), slices.iter().any(Vec::is_empty));
        assert!(
            complete && !empty,
            "{ctx}: {v}: an empty or stopped slice walk"
        );
        assert!(ids.windows(2).all(|w| w[0] < w[1]), "{ctx}: {v}: unsorted");
        let mut end = 0;
        let ends = slices.iter().take(8).flat_map(|s| {
            end += s.len();
            [end - 1, end, end + 1]
        });
        for k in ends.filter(|&k| k >= 1 && k <= ids.len()) {
            let mut seen = Vec::new();
            let complete = r.for_each_neighbor_while(v, &mut |u| {
                seen.push(u);
                seen.len() < k
            });
            assert!(!complete && seen == ids[..k], "{ctx}: {v}: stop after {k}");
        }
        let mut out = vec![u32::MAX];
        r.copy_neighbors_into(v, &mut out);
        assert!(out[0] == u32::MAX && out[1..] == ids, "{ctx}: {v}: append");
    }
    g.validate()
        .unwrap_or_else(|e| panic!("{ctx}: invariants: {e}"));
}

/// BFS distances, CC labels and the triangle count; five PageRank
/// iterations and BC.
type Kernels = ((Vec<u32>, Vec<u32>, u64), [Vec<f64>; 2]);

fn kernels(g: &dyn Graph, src: u32) -> Kernels {
    let dist = analytics::distances_from_parents(g, src, &analytics::bfs(g, src));
    let cc = analytics::connected_components(g);
    let tc = analytics::triangle_count(g).triangles;
    let pr = analytics::pagerank(g, 5, 0.85);
    ((dist, cc, tc), [pr, analytics::betweenness(g, src)])
}

/// Holds the kernels on `g`, from the vertex of largest degree, to those on
/// a `Csr` of `want`: BFS, CC and TC exactly, PageRank within 1e-10 and BC
/// within 1e-6 of `1 + |want|`. Returns the triangle count. Every engine
/// reaches the same states, so each state's `Csr` results are computed once
/// per process.
fn check_kernels(g: &dyn Graph, want: &Frozen, ctx: &str) -> u64 {
    static EXACT: Mutex<Vec<(Vec<Vec<u32>>, Kernels)>> = Mutex::new(Vec::new());
    let all = want.adj.iter().enumerate();
    let all = all.flat_map(|(v, ns)| ns.iter().map(move |&u| Edge::new(v as u32, u)));
    let csr = Csr::from_edges(want.adj.len(), &all.collect::<Vec<_>>());
    let Some(src) = (0..want.adj.len() as u32).max_by_key(|&v| csr.degree(v)) else {
        return 0;
    };
    // An entry is pushed only once its results are complete, so a guard a
    // panicking check poisoned still holds whole entries.
    let mut seen = EXACT.lock().unwrap_or_else(|e| e.into_inner());
    if !seen.iter().any(|(adj, _)| *adj == want.adj) {
        seen.push((want.adj.clone(), kernels(&csr, src)));
    }
    let (exact, [pr, bc]) = seen
        .iter()
        .find(|(adj, _)| *adj == want.adj)
        .unwrap()
        .1
        .clone();
    drop(seen);
    let (got, [got_pr, got_bc]) = kernels(g, src);
    assert_eq!(got, exact, "{ctx}: BFS distances, CC labels, triangles");
    let near = |a: &[f64], b: &[f64], eps: fn(f64) -> f64| {
        a.iter().zip(b).all(|(x, y)| (x - y).abs() < eps(*y))
    };
    assert!(near(&got_pr, &pr, |_| 1e-10), "{ctx}: PageRank");
    assert!(near(&got_bc, &bc, |y| 1e-6 * (1.0 + y.abs())), "{ctx}: BC");
    exact.2
}

/// Runs `ops` on `target` from a fresh start; `Err` is the first failed
/// check. A target is a store setup (`Setup::named`) or, spelled
/// `"<engine>/<setup>"`, an engine of the axis on one of its setups
/// (`Axis::open`).
fn run(target: &str, set: &str, seed: u64, ops: &[Op]) -> Result<Sim, String> {
    catch_unwind(|| match target.split_once('/') {
        Some((engine, setup)) => Axis::open(engine, setup).run(ops),
        None => {
            let mut sim = Sim::open(Setup::named(target), set, seed);
            ops.iter().enumerate().for_each(|(i, op)| sim.step(i, op));
            sim.finish();
            sim
        }
    })
    .map_err(|p| message(&*p))
}

/// Runs one named seed set on `target`. A failing seed is shrunk and
/// reported with a trace to paste back in as a named trace.
pub fn check_set(
    set: &str,
    target: &str,
    seeds: impl IntoIterator<Item = u64>,
    gen: impl Fn(u64) -> Vec<Op>,
) -> Vec<Sim> {
    let _l = lock();
    let report = |seed, failure: String, ops: Vec<Op>| {
        let (generated, want) = (ops.len(), signature(&failure));
        QUIET.set(true);
        let shrunk = shrink(ops, |c| {
            run(target, set, seed, c).is_err_and(|m| signature(&m) == want)
        });
        let fails = run(target, set, seed, &shrunk).err().unwrap_or_default();
        QUIET.set(false);
        let trace: String = shrunk
            .iter()
            .map(|op| format!("        {},\n", literal(op)))
            .collect();
        panic!(
            "seed set `{set}` on `{target}` seed {seed} failed: {failure}\n{generated} generated \
             ops shrink to {}, failing with: {fails}\npaste as a named trace to reproduce:\n\n    \
             named(\"{set}-{seed}\", {target:?}, vec![\n{trace}    ]);\n",
            shrunk.len()
        )
    };
    let run_seed = |seed| {
        let ops = gen(seed);
        run(target, set, seed, &ops).unwrap_or_else(|failure| report(seed, failure, ops))
    };
    seeds.into_iter().map(run_seed).collect()
}

/// `op` as Rust, with `Op`, `FailMode` and `StandingQuery` variants in scope.
fn literal(op: &Op) -> String {
    format!("{op:?}").replacen("([", "(vec![", 1)
}

/// A failure's check: its first line without the numbers in it (step,
/// vertex, counts), so the shrunk trace must fail the same assertion.
fn signature(failure: &str) -> String {
    let line = failure.lines().next().unwrap_or_default();
    line.chars().filter(|c| !c.is_ascii_digit()).collect()
}

/// Deletes ops — halves, then quarters, down to one at a time until no
/// single deletion still fails — keeping every deletion after which the
/// trace still `fails`.
fn shrink(mut ops: Vec<Op>, fails: impl Fn(&[Op]) -> bool) -> Vec<Op> {
    let mut chunk = ops.len().div_ceil(2).max(1);
    loop {
        let before = ops.len();
        let mut end = ops.len();
        while end > 0 {
            let start = end.saturating_sub(chunk);
            let candidate = [&ops[..start], &ops[end..]].concat();
            if fails(&candidate) {
                ops = candidate;
            }
            end = start;
        }
        if chunk > 1 {
            chunk /= 2;
        } else if ops.len() == before {
            break;
        }
    }
    ops
}

/// Runs a fixed trace on `target`: a shrunk failure pasted back, or a
/// deterministic case (`tests/standing_oracle.rs` runs seed sets only).
#[allow(dead_code)]
pub fn named(name: &str, target: &str, ops: Vec<Op>) -> Sim {
    let _l = lock();
    run(target, name, 0, &ops)
        .unwrap_or_else(|f| panic!("named trace `{name}` on `{target}` failed: {f}"))
}
