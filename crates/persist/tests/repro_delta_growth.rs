// repro: delta checkpoint with a vertex id beyond the parent image's count
use lsgraph_api::{DynamicGraph, Edge, Graph};
use lsgraph_core::{Config, LsGraph};
use lsgraph_persist::checkpoint::{
    checkpoint_file, load_newest_chain, write_checkpoint, write_delta_checkpoint,
};

#[test]
fn delta_with_grown_vertex_recovers() {
    let dir = std::env::temp_dir().join(format!("lsgraph-growth-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).unwrap();
    let cfg = Config {
        m: 256,
        ..Config::default()
    };
    let mut g = LsGraph::with_config(8, cfg);
    g.insert_batch(&[Edge::new(1, 2), Edge::new(2, 3)]);
    write_checkpoint(&dir, 1, g.view(), 0, 10, 1).unwrap();
    g.clear_dirty();
    // New vertex id beyond the parent freeze's vertex count.
    g.insert_batch(&[Edge::new(50, 1)]);
    let dirty = g.take_dirty_vertices();
    write_delta_checkpoint(&dir, 2, 1, g.view(), &dirty, 0, 20, 2).unwrap();
    let (restored, _info) = load_newest_chain(&dir, cfg).unwrap();
    let (r, meta) = restored.unwrap();
    assert_eq!(meta.id, 2);
    assert_eq!(r.neighbors(50), vec![1]);
    let _ = checkpoint_file(&dir, 1);
    std::fs::remove_dir_all(&dir).ok();
}
