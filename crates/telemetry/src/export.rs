//! Exporters: a crash-safe JSONL stream and the Prometheus text exposition
//! format.
//!
//! This crate writes JSON but never parses it, and it serializes no
//! registry: the store crate owns the one JSON form of a
//! [`RegistrySnapshot`] (inside each record) and its parser, which
//! `avc report` and `avc top` reuse.
//!
//! [`JsonlWriter`] is the workspace's one JSONL appender: the store's
//! `records.jsonl` is written through it. Each append writes only the new
//! line, at the end of the file's newline-terminated prefix, and
//! `fdatasync`s it, so a sweep of N cells writes each line once. Readers
//! trust only newline-terminated lines ([`read_lines_tolerant`] drops a
//! torn tail), so a crash mid-append loses at most the line being written,
//! and the next writer overwrites the fragment.

use std::fs::{self, File, OpenOptions, TryLockError};
use std::io::{self, ErrorKind, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};

use crate::metrics::bucket_bounds;
use crate::registry::{MetricValue, RegistrySnapshot};

/// Escapes `s` for inclusion inside a JSON string literal (quotes not
/// included).
#[must_use]
pub fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
    out
}

/// Renders a snapshot in the Prometheus text exposition format.
///
/// Metric names have `.` and other non-identifier characters mapped to
/// `_`; each is prefixed with `avc_`. Histograms expand to the
/// conventional cumulative `_bucket{le="…"}` series plus `_sum` and
/// `_count`, with bucket upper bounds at the log₂ bucket edges.
#[must_use]
pub fn prometheus_text(snap: &RegistrySnapshot) -> String {
    let mut out = String::new();
    for (name, value) in snap.iter() {
        let prom = prometheus_name(name);
        match value {
            MetricValue::Counter(v) => {
                out.push_str(&format!("# TYPE {prom} counter\n{prom} {v}\n"));
            }
            MetricValue::Gauge(v) => {
                out.push_str(&format!("# TYPE {prom} gauge\n{prom} {v}\n"));
            }
            MetricValue::Histogram(h) => {
                out.push_str(&format!("# TYPE {prom} histogram\n"));
                let mut cumulative = 0u64;
                for (i, c) in h.nonzero_buckets() {
                    cumulative += c;
                    let le = bucket_bounds(i).1;
                    out.push_str(&format!("{prom}_bucket{{le=\"{le}\"}} {cumulative}\n"));
                }
                out.push_str(&format!("{prom}_bucket{{le=\"+Inf\"}} {}\n", h.count));
                out.push_str(&format!("{prom}_sum {}\n", h.sum));
                out.push_str(&format!("{prom}_count {}\n", h.count));
            }
        }
    }
    out
}

fn prometheus_name(name: &str) -> String {
    let mapped: String = name
        .chars()
        .map(|c| if c.is_ascii_alphanumeric() { c } else { '_' })
        .collect();
    format!("avc_{mapped}")
}

/// Reads `path` cut to its newline-terminated prefix, dropping a torn
/// (unterminated) final fragment. A missing file reads as empty. Also
/// returns the file's whole length, fragment included.
fn read_terminated(path: &Path) -> io::Result<(String, u64)> {
    let mut raw = match fs::read(path) {
        Ok(raw) => raw,
        Err(e) if e.kind() == ErrorKind::NotFound => Vec::new(),
        Err(e) => return Err(e),
    };
    let whole = raw.len() as u64;
    raw.truncate(
        raw.iter()
            .rposition(|&b| b == b'\n')
            .map_or(0, |last| last + 1),
    );
    let text = String::from_utf8(raw).map_err(|e| io::Error::new(ErrorKind::InvalidData, e))?;
    Ok((text, whole))
}

/// Reads the newline-terminated lines of `path`, dropping a torn
/// (unterminated) final fragment. A missing file reads as empty.
///
/// # Errors
///
/// Any I/O error other than the file not existing.
pub fn read_lines_tolerant(path: &Path) -> io::Result<Vec<String>> {
    let (text, _) = read_terminated(path)?;
    Ok(text
        .lines()
        .filter(|l| !l.trim().is_empty())
        .map(str::to_owned)
        .collect())
}

/// An append-only JSONL stream, one writer per file.
///
/// Opening trusts only newline-terminated lines and remembers where they
/// end. Each [`append`](JsonlWriter::append) writes one line there, cuts
/// the file after it and calls `sync_data`, so a torn tail left by a
/// crashed writer — even a complete line missing its `\n` — is
/// overwritten, not extended. The first append takes an exclusive lock on
/// the file, held until the writer is dropped: a second writer of the same
/// stream gets an error instead of interleaving lines. Readers take no
/// lock.
///
/// # Example
///
/// ```no_run
/// use avc_telemetry::export::JsonlWriter;
/// let mut w = JsonlWriter::open("events.jsonl".as_ref()).unwrap();
/// w.append("{\"event\":\"cell\"}").unwrap();
/// ```
#[derive(Debug)]
pub struct JsonlWriter {
    path: PathBuf,
    /// Length of the newline-terminated prefix: where the next line goes.
    len: u64,
    /// The file's length when opened, torn tail included.
    opened_len: u64,
    /// The locked file, opened by the first append.
    file: Option<File>,
}

impl JsonlWriter {
    /// Opens (or starts) the stream at `path`, keeping existing complete
    /// lines. Nothing is written or locked until the first append.
    ///
    /// # Errors
    ///
    /// Any I/O error from reading an existing file.
    pub fn open(path: &Path) -> io::Result<JsonlWriter> {
        Ok(JsonlWriter::open_with_text(path)?.0)
    }

    /// As [`JsonlWriter::open`], also returning the stream's
    /// newline-terminated text (the lines a reader trusts).
    ///
    /// # Errors
    ///
    /// Any I/O error from reading an existing file; invalid UTF-8 before
    /// the last newline is [`ErrorKind::InvalidData`].
    pub fn open_with_text(path: &Path) -> io::Result<(JsonlWriter, String)> {
        let (text, opened_len) = read_terminated(path)?;
        let writer = JsonlWriter {
            path: path.to_path_buf(),
            len: text.len() as u64,
            opened_len,
            file: None,
        };
        Ok((writer, text))
    }

    /// The stream's file path.
    #[must_use]
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Appends one line (a single JSON value without newlines) durably.
    ///
    /// # Errors
    ///
    /// Another writer holding the file's lock
    /// ([`ErrorKind::WouldBlock`]), the file having changed since it was
    /// opened, or any I/O error from the write or `sync_data`. A failed
    /// append cuts the file back to the lines before it.
    pub fn append(&mut self, line: &str) -> io::Result<()> {
        debug_assert!(!line.contains('\n'), "JSONL lines must be single-line");
        let file = match &mut self.file {
            Some(file) => file,
            None => self
                .file
                .insert(lock_for_append(&self.path, self.opened_len)?),
        };
        let mut buf = Vec::with_capacity(line.len() + 1);
        buf.extend_from_slice(line.as_bytes());
        buf.push(b'\n');
        let end = self.len + buf.len() as u64;
        let written = file
            .seek(SeekFrom::Start(self.len))
            .and_then(|_| file.write_all(&buf))
            .and_then(|()| file.set_len(end))
            .and_then(|()| file.sync_data());
        if let Err(e) = written {
            // Best effort: whatever a failed cut leaves past the prefix,
            // the next append overwrites.
            let _ = file.set_len(self.len);
            return Err(e);
        }
        self.len = end;
        Ok(())
    }
}

/// Opens `path` for writing, creating it (and its directory) if missing,
/// and locks it exclusively. Fails if another writer holds the lock or if
/// the file's length is no longer `opened_len`, i.e. someone wrote to it
/// since it was read.
fn lock_for_append(path: &Path, opened_len: u64) -> io::Result<File> {
    let dir = match path.parent() {
        Some(p) if !p.as_os_str().is_empty() => p,
        _ => Path::new("."),
    };
    fs::create_dir_all(dir)?;
    let (file, created) = match OpenOptions::new().write(true).create_new(true).open(path) {
        Ok(file) => (file, true),
        Err(e) if e.kind() == ErrorKind::AlreadyExists => {
            (OpenOptions::new().write(true).open(path)?, false)
        }
        Err(e) => return Err(e),
    };
    match file.try_lock() {
        Ok(()) => {}
        Err(TryLockError::WouldBlock) => {
            return Err(io::Error::new(
                ErrorKind::WouldBlock,
                format!("{} is locked by another writer", path.display()),
            ));
        }
        Err(TryLockError::Error(e)) => return Err(e),
    }
    if file.metadata()?.len() != opened_len {
        return Err(io::Error::other(format!(
            "{} changed since it was opened",
            path.display()
        )));
    }
    if created {
        // Persist the new directory entry. Some filesystems refuse to
        // sync a directory; the file's own data is synced per append.
        if let Ok(d) = File::open(dir) {
            let _ = d.sync_all();
        }
    }
    Ok(file)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::HistogramSnapshot;

    fn sample_snapshot() -> RegistrySnapshot {
        let mut snap = RegistrySnapshot::new();
        snap.set("sim.steps", MetricValue::Counter(1500));
        snap.set("wall.peak_rss", MetricValue::Gauge(42));
        let mut h = HistogramSnapshot::new();
        h.record(0);
        h.record(5);
        h.record(5);
        snap.set("sim.chunk_steps", MetricValue::Histogram(h));
        snap
    }

    #[test]
    fn prometheus_text_has_cumulative_buckets() {
        let text = prometheus_text(&sample_snapshot());
        assert!(text.contains("# TYPE avc_sim_steps counter"));
        assert!(text.contains("avc_sim_steps 1500"));
        assert!(text.contains("avc_wall_peak_rss 42"));
        assert!(text.contains("avc_sim_chunk_steps_bucket{le=\"0\"} 1"));
        assert!(text.contains("avc_sim_chunk_steps_bucket{le=\"7\"} 3"));
        assert!(text.contains("avc_sim_chunk_steps_bucket{le=\"+Inf\"} 3"));
        assert!(text.contains("avc_sim_chunk_steps_sum 10"));
        assert!(text.contains("avc_sim_chunk_steps_count 3"));
    }

    #[test]
    fn json_escape_handles_controls() {
        assert_eq!(json_escape("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
        assert_eq!(json_escape("\u{1}"), "\\u0001");
    }

    #[test]
    fn jsonl_writer_appends_and_survives_torn_tail() {
        let dir = std::env::temp_dir().join(format!(
            "avc-telemetry-test-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = fs::remove_dir_all(&dir);
        let path = dir.join("stream.jsonl");

        // What an uninterrupted writer produces; the first append creates
        // the directory and the file.
        let mut w = JsonlWriter::open(&path).unwrap();
        for line in ["{\"a\":1}", "{\"b\":2}", "{\"c\":3}"] {
            w.append(line).unwrap();
        }
        drop(w);
        let expected = fs::read(&path).unwrap();
        assert_eq!(expected, b"{\"a\":1}\n{\"b\":2}\n{\"c\":3}\n");

        // A crash while appending a line longer than the next one leaves
        // any prefix of it: nothing, part of it, or the whole line without
        // its newline.
        let torn = "{\"torn\":\"longer than the next line\"}";
        for cut in 0..=torn.len() {
            fs::write(&path, format!("{{\"a\":1}}\n{{\"b\":2}}\n{}", &torn[..cut])).unwrap();
            let mut w = JsonlWriter::open(&path).unwrap();
            assert_eq!(
                read_lines_tolerant(&path).unwrap(),
                ["{\"a\":1}", "{\"b\":2}"],
                "cut at {cut}"
            );
            w.append("{\"c\":3}").unwrap();
            drop(w);
            let (_, text) = JsonlWriter::open_with_text(&path).unwrap();
            assert_eq!(text.as_bytes(), expected, "cut at {cut}");
            assert_eq!(fs::read(&path).unwrap(), expected, "cut at {cut}");
        }

        fs::remove_dir_all(&dir).unwrap();
    }
}
