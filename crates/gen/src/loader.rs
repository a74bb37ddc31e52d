//! Edge-list loader: SNAP-style text.
//!
//! When the paper's real datasets are available locally, this loader lets
//! the benchmark harness run on them instead of the synthetic stand-ins.

use std::fs::File;
use std::io::{self, BufRead, BufReader};
use std::path::Path;

use lsgraph_api::Edge;

/// Parses SNAP text format: one `src dst` (whitespace-separated) pair per
/// line; `#`-prefixed lines are comments.
///
/// # Errors
///
/// Returns an I/O error for unreadable files, or `InvalidData` for malformed
/// lines.
pub fn load_snap_text(path: &Path) -> io::Result<Vec<Edge>> {
    let f = File::open(path)?;
    let mut edges = Vec::new();
    for (lineno, line) in BufReader::new(f).lines().enumerate() {
        let line = line?;
        let t = line.trim();
        if t.is_empty() || t.starts_with('#') {
            continue;
        }
        let mut it = t.split_whitespace();
        let parse = |s: Option<&str>| -> io::Result<u32> {
            s.and_then(|x| x.parse().ok()).ok_or_else(|| {
                io::Error::new(
                    io::ErrorKind::InvalidData,
                    format!("{}:{}: malformed edge line", path.display(), lineno + 1),
                )
            })
        };
        let src = parse(it.next())?;
        let dst = parse(it.next())?;
        edges.push(Edge::new(src, dst));
    }
    Ok(edges)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp(name: &str) -> std::path::PathBuf {
        std::env::temp_dir().join(format!("lsgraph-test-{}-{name}", std::process::id()))
    }

    #[test]
    fn snap_text_roundtrip() {
        let p = tmp("snap.txt");
        std::fs::write(&p, "# comment\n0 1\n2\t3\n\n4 5\n").unwrap();
        let edges = load_snap_text(&p).unwrap();
        assert_eq!(
            edges,
            vec![Edge::new(0, 1), Edge::new(2, 3), Edge::new(4, 5)]
        );
        std::fs::remove_file(&p).ok();
    }

    #[test]
    fn snap_text_rejects_garbage() {
        let p = tmp("bad.txt");
        std::fs::write(&p, "0 x\n").unwrap();
        assert!(load_snap_text(&p).is_err());
        std::fs::remove_file(&p).ok();
    }
}
