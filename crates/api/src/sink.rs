//! The one file sink behind both streams, the trace
//! ([`crate::trace::stream_to_file`]) and the metrics JSONL
//! ([`crate::metrics::stream_to_file`]): each is a process-global
//! [`LineSink`]. A line is written whole with one `write_all` and flushed, so
//! a process killed mid-run leaves a prefix of whole lines; [`LineSink::finish`]
//! is idempotent, and opening a stream finishes the one it replaces.

use std::fs::File;
use std::io::{self, BufWriter, Write};
use std::path::Path;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Mutex, MutexGuard};

/// A process-global file written one whole line at a time.
pub(crate) struct LineSink {
    /// Whether a file is open: the lock-free check callers make before
    /// they format a line.
    on: AtomicBool,
    file: Mutex<Option<OpenFile>>,
}

struct OpenFile {
    w: BufWriter<File>,
    /// Written between two counted lines.
    sep: &'static str,
    /// Written by `finish`.
    foot: &'static str,
    /// Counted lines written so far.
    lines: u64,
}

impl OpenFile {
    fn finish(mut self) -> io::Result<Option<u64>> {
        self.w.write_all(self.foot.as_bytes())?;
        self.w.flush()?;
        Ok(Some(self.lines))
    }
}

impl LineSink {
    pub(crate) const fn new() -> Self {
        LineSink {
            on: AtomicBool::new(false),
            file: Mutex::new(None),
        }
    }

    fn slot(&self) -> MutexGuard<'_, Option<OpenFile>> {
        self.file.lock().unwrap_or_else(|p| p.into_inner())
    }

    /// Finishes the open file, if any, then creates `path` and writes
    /// `head`. Counted lines are joined by `sep`; `finish` writes `foot`.
    pub(crate) fn open(
        &self,
        path: &Path,
        head: &str,
        sep: &'static str,
        foot: &'static str,
    ) -> io::Result<()> {
        let mut slot = self.slot();
        self.on.store(false, Ordering::Relaxed);
        if let Some(previous) = slot.take() {
            previous.finish()?;
        }
        let mut w = BufWriter::new(File::create(path)?);
        w.write_all(head.as_bytes())?;
        w.flush()?;
        *slot = Some(OpenFile {
            w,
            sep,
            foot,
            lines: 0,
        });
        self.on.store(true, Ordering::Relaxed);
        Ok(())
    }

    /// Whether a file is open.
    #[inline]
    pub(crate) fn is_open(&self) -> bool {
        self.on.load(Ordering::Relaxed)
    }

    /// Appends `line` whole and flushes it; a `counted` line follows the
    /// separator unless it is the first. `Ok(false)` when no file is open.
    pub(crate) fn write(&self, line: &str, counted: bool) -> io::Result<bool> {
        let mut slot = self.slot();
        let Some(f) = slot.as_mut() else {
            return Ok(false);
        };
        let sep = if counted && f.lines > 0 { f.sep } else { "" };
        f.w.write_all(format!("{sep}{line}").as_bytes())?;
        f.w.flush()?;
        f.lines += u64::from(counted);
        Ok(true)
    }

    /// Writes the footer, flushes and closes the file, returning the number
    /// of counted lines; `Ok(None)` when no file was open.
    pub(crate) fn finish(&self) -> io::Result<Option<u64>> {
        let mut slot = self.slot();
        self.on.store(false, Ordering::Relaxed);
        let Some(f) = slot.take() else {
            return Ok(None);
        };
        f.finish()
    }
}
