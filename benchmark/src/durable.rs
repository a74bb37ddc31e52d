//! How a `durable-pipeline` run ends: a forced full checkpoint, a retention
//! pass, a synced WAL tail, then the store is dropped and reopened and every
//! acknowledged edge must be there.

use std::path::Path;

use lsgraph_api::Graph;
use lsgraph_core::Config;
use lsgraph_persist::Store;

use crate::ctx::Ctx;
use crate::engine::{store_options, Engine};
use crate::inputs::Inputs;
use crate::layers::LayerMap;
use crate::spec::{Workload, TAIL_BATCHES};

/// `reopens` is how often the dropped store is recovered: once is enough for
/// the correctness check, a traced run asks for more to time recovery.
pub fn finish(
    mut engine: Engine,
    w: &Workload,
    inp: &Inputs,
    dir: &Path,
    ctx: &mut Ctx,
    reopens: usize,
    out: &mut LayerMap,
) -> Result<(), String> {
    let store = engine
        .store_mut()
        .ok_or("durable workload without a store")?;

    // `begin_checkpoint` always writes a full image, whatever the chain holds.
    let (meta, _) = ctx.segment("finish.checkpoint_full", |rec, _| {
        rec.call("persist.checkpoint_full", || {
            store
                .begin_checkpoint()
                .map_err(|e| e.to_string())?
                .write()
                .map_err(|e| e.to_string())
        })
    });
    let meta = meta.map_err(|e| format!("full checkpoint: {e}"))?;
    ctx.samples
        .entry("persist.image_bytes")
        .or_default()
        .push(meta.bytes as f64);

    let (gc, _) = ctx.segment("finish.retention", |rec, _| {
        rec.call("persist.retention", || store.run_retention())
    });
    ctx.checks(|t| t.check("retention pass", gc.is_ok()));

    let wal_before = store.wal_len();
    ctx.segment("finish.tail", |rec, tally| {
        for batch in inp.tail.chunks(w.batch) {
            let r = rec.call("persist.tail_batch", || store.insert_batch(batch));
            tally.check(
                "tail batch",
                matches!(&r, Ok(o) if o.edges_lost == 0 && o.applied == batch.len()),
            );
        }
        let synced = rec.call("persist.sync", || store.sync());
        tally.check("tail sync", synced.is_ok());
    });
    let wal_bytes_per_edge = (store.wal_len() - wal_before) as f64 / inp.tail.len() as f64;
    out.insert("persist.wal_bytes_per_edge", (wal_bytes_per_edge, 1));
    out.insert(
        "persist.image_bytes_per_edge",
        (meta.bytes as f64 / inp.base.num_edges() as f64, 1),
    );

    // Everything above was acknowledged and synced. Drop the store (and the
    // hub with it) and recover from the files alone.
    drop(engine);
    let expected_edges = inp.base.num_edges() + inp.tail.len();
    for i in 0..reopens {
        let (opened, _) = ctx.segment("finish.reopen", |rec, _| {
            rec.call("persist.recover", || {
                Store::open_with(dir, inp.n, Config::default(), store_options())
            })
        });
        let (store, report) = opened.map_err(|e| format!("reopen: {e}"))?;
        out.insert(
            "persist.frames_replayed",
            (report.frames_replayed as f64, 1),
        );
        ctx.checks(|t| {
            t.check(
                "recovery replays the tail",
                report.frames_replayed == TAIL_BATCHES as u64,
            );
            t.check(
                "edge count after recovery",
                store.graph().num_edges() == expected_edges,
            );
            if i == 0 {
                let g = store.graph();
                let all_there = inp
                    .base
                    .keys
                    .iter()
                    .all(|&k| g.has_edge((k >> 32) as u32, k as u32))
                    && inp.tail.iter().all(|e| g.has_edge(e.src, e.dst));
                t.check("every acknowledged edge present after recovery", all_there);
            }
        });
    }
    Ok(())
}
