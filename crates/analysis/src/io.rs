//! Crash-safe file output.
//!
//! Every file this workspace replaces whole — `results/*.csv` tables, the
//! experiment registry's compaction, bench reports — goes through
//! [`atomic_write`]: the bytes land in a temporary sibling file, are
//! fsynced, and are then renamed over the destination. A reader therefore
//! sees either the old complete file or the new complete file, never a torn
//! prefix, even across `kill -9` or power loss mid-write. The one file that
//! only grows, the registry's `records.jsonl`, is appended a line at a time
//! instead, through the telemetry crate's `JsonlWriter`.

use std::fs::{self, File};
use std::io::{self, Write as _};
use std::path::Path;

/// Writes `bytes` to `path` atomically (write temp sibling, fsync, rename),
/// creating parent directories as needed.
///
/// The temporary file lives in the same directory as `path` (rename is only
/// atomic within a filesystem) and carries a `.tmp` suffix derived from the
/// destination name plus the process id, so concurrent writers of
/// *different* destinations never collide.
///
/// # Errors
///
/// Propagates I/O errors from directory creation, the write, the fsync, or
/// the rename. On error the destination is untouched; a stale `*.tmp`
/// sibling may remain and is overwritten by the next attempt.
pub fn atomic_write(path: impl AsRef<Path>, bytes: impl AsRef<[u8]>) -> io::Result<()> {
    let path = path.as_ref();
    let parent = match path.parent() {
        Some(p) if !p.as_os_str().is_empty() => {
            fs::create_dir_all(p)?;
            p.to_path_buf()
        }
        _ => std::path::PathBuf::from("."),
    };
    let file_name = path
        .file_name()
        .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidInput, "path has no file name"))?;
    let tmp = parent.join(format!(
        "{}.{}.tmp",
        file_name.to_string_lossy(),
        std::process::id()
    ));

    let mut file = File::create(&tmp)?;
    file.write_all(bytes.as_ref())?;
    file.sync_all()?;
    drop(file);
    fs::rename(&tmp, path)?;

    // Persist the rename itself: fsync the containing directory. Some
    // platforms (or exotic filesystems) refuse to open directories for
    // sync; the rename is already atomic, so this is best-effort.
    if let Ok(dir) = File::open(&parent) {
        let _ = dir.sync_all();
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn temp_dir(tag: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("avc-io-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn writes_and_creates_parents() {
        let dir = temp_dir("parents");
        let path = dir.join("a").join("b.txt");
        atomic_write(&path, b"hello").unwrap();
        assert_eq!(fs::read(&path).unwrap(), b"hello");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn replaces_existing_content_completely() {
        let dir = temp_dir("replace");
        let path = dir.join("x.csv");
        atomic_write(&path, "old longer content").unwrap();
        atomic_write(&path, "new").unwrap();
        assert_eq!(fs::read_to_string(&path).unwrap(), "new");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn leaves_no_tmp_sibling_on_success() {
        let dir = temp_dir("tmpfile");
        let path = dir.join("out.jsonl");
        atomic_write(&path, "line\n").unwrap();
        let leftovers: Vec<_> = fs::read_dir(&dir)
            .unwrap()
            .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
            .filter(|name| name.ends_with(".tmp"))
            .collect();
        assert!(leftovers.is_empty(), "stale temp files: {leftovers:?}");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn rejects_directoryless_destination() {
        let dir = temp_dir("nodir");
        fs::create_dir_all(&dir).unwrap();
        assert!(atomic_write(dir.join(""), "x").is_err());
        let _ = fs::remove_dir_all(&dir);
    }
}
