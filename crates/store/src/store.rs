//! The on-disk registry: a JSONL file of [`Record`]s with a last-wins index.
//!
//! Layout: `<dir>/records.jsonl`, one record per line, append-ordered.
//! [`Store::append`] writes through the telemetry crate's [`JsonlWriter`]:
//! the new line goes at the end of the file's newline-terminated prefix and
//! is `fdatasync`ed before the record joins the in-memory index, so a sweep
//! of N cells writes each record once. A crash mid-append (`kill -9`,
//! power loss) can leave at most a torn final line; [`Store::open`] trusts
//! only newline-terminated lines, and the next append overwrites the
//! fragment — even a complete record missing its `\n`. Any other line that
//! does not parse is an error, never silently dropped.
//!
//! One writer per store: the first append locks `records.jsonl`, so a
//! second process appending to the same store gets an error instead of
//! interleaving lines. Readers (`avc export`, `ls`, `show`, `report`,
//! `top`) take no lock.
//!
//! Duplicate hashes (a cell re-recorded, e.g. after a schema-compatible
//! rerun) resolve last-wins in the index; [`Store::compact`] rewrites the
//! file with only the surviving records through
//! [`avc_analysis::io::atomic_write`] (write temp sibling, fsync, rename).

use crate::json::Json;
use crate::record::Record;
use avc_analysis::io::atomic_write;
use avc_population::telemetry::export::JsonlWriter;
use std::collections::BTreeMap;
use std::io;
use std::path::{Path, PathBuf};

/// An open registry directory.
#[derive(Debug)]
pub struct Store {
    dir: PathBuf,
    records: Vec<Record>,
    /// hash → index of the latest record with that hash.
    index: BTreeMap<String, usize>,
    /// Appends to `records.jsonl`; locks it at the first append.
    writer: JsonlWriter,
}

impl Store {
    /// Opens (or initializes) the registry under `dir`. Nothing is written
    /// or locked until the first append.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors; corrupt newline-terminated lines and
    /// schema-foreign records are reported as [`io::ErrorKind::InvalidData`]
    /// with the line number, so silent data loss is impossible.
    pub fn open(dir: impl Into<PathBuf>) -> io::Result<Store> {
        let dir = dir.into();
        let path = dir.join("records.jsonl");
        let (writer, text) = JsonlWriter::open_with_text(&path)?;
        let mut store = Store {
            dir,
            records: Vec::new(),
            index: BTreeMap::new(),
            writer,
        };
        for (i, line) in text.lines().enumerate() {
            if line.trim().is_empty() {
                continue;
            }
            let record = Json::parse(line)
                .and_then(|j| Record::from_json(&j))
                .map_err(|e| {
                    io::Error::new(
                        io::ErrorKind::InvalidData,
                        format!("{}:{}: {e}", path.display(), i + 1),
                    )
                })?;
            store.push(record);
        }
        Ok(store)
    }

    /// The registry's JSONL path.
    #[must_use]
    pub fn records_path(&self) -> PathBuf {
        self.writer.path().to_path_buf()
    }

    /// The registry directory.
    #[must_use]
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Number of loaded records (including superseded duplicates).
    #[must_use]
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// Whether the registry holds no records.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// The latest record for a cell hash.
    #[must_use]
    pub fn get(&self, hash: &str) -> Option<&Record> {
        self.index.get(hash).map(|&i| &self.records[i])
    }

    /// All latest records whose hash starts with `prefix`, in hash order.
    #[must_use]
    pub fn find_by_prefix(&self, prefix: &str) -> Vec<&Record> {
        self.index
            .range(prefix.to_string()..)
            .take_while(|(h, _)| h.starts_with(prefix))
            .map(|(_, &i)| &self.records[i])
            .collect()
    }

    /// Every loaded record in append order, superseded duplicates included:
    /// the lines of `records.jsonl` as they stand.
    pub fn iter(&self) -> impl Iterator<Item = &Record> {
        self.records.iter()
    }

    /// Iterates the latest record of every cell, in hash order.
    pub fn iter_latest(&self) -> impl Iterator<Item = &Record> {
        self.index.values().map(|&i| &self.records[i])
    }

    /// Appends a record durably: one line written and `fdatasync`ed.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors, including another writer holding the store
    /// ([`io::ErrorKind::WouldBlock`]). On error the file is cut back to
    /// the records before it and the in-memory store is unchanged.
    pub fn append(&mut self, record: Record) -> io::Result<()> {
        self.writer.append(&record.to_json().to_string_compact())?;
        self.push(record);
        Ok(())
    }

    /// Drops superseded duplicates and rewrites the file. Returns how many
    /// records were removed.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors from the rewrite.
    pub fn compact(&mut self) -> io::Result<usize> {
        let keep: Vec<bool> = (0..self.records.len())
            .map(|i| self.index.get(&self.records[i].hash) == Some(&i))
            .collect();
        let removed = keep.iter().filter(|&&k| !k).count();
        if removed == 0 {
            return Ok(0);
        }
        let mut iter = keep.into_iter();
        self.records.retain(|_| iter.next().expect("len match"));
        self.index = self
            .records
            .iter()
            .enumerate()
            .map(|(i, r)| (r.hash.clone(), i))
            .collect();
        let mut out = String::new();
        for record in &self.records {
            out.push_str(&record.to_json().to_string_compact());
            out.push('\n');
        }
        let path = self.records_path();
        atomic_write(&path, out)?;
        // The rename replaced the file the writer held; append to the new one.
        self.writer = JsonlWriter::open(&path)?;
        Ok(removed)
    }

    fn push(&mut self, record: Record) {
        self.index.insert(record.hash.clone(), self.records.len());
        self.records.push(record);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::manifest::Manifest;
    use crate::record::{CellResult, TrialSummary};
    use std::fs;

    fn temp_store(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("avc-store-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    fn record(experiment: &str, n: u64, note: &str) -> Record {
        let manifest = Manifest::new(experiment, [("n", n.to_string())]);
        let result = CellResult {
            notes: vec![note.to_string()],
            ..CellResult::default()
        };
        Record::new(manifest, result, 1)
    }

    #[test]
    fn append_reopen_roundtrip() {
        let dir = temp_store("roundtrip");
        let mut store = Store::open(&dir).unwrap();
        assert!(store.is_empty());
        store.append(record("fig3", 11, "a")).unwrap();
        store.append(record("fig3", 101, "b")).unwrap();

        let reopened = Store::open(&dir).unwrap();
        assert_eq!(reopened.len(), 2);
        let hash = record("fig3", 101, "b").hash;
        assert_eq!(reopened.get(&hash).unwrap().result.notes, vec!["b"]);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn duplicate_hash_resolves_last_wins_and_compacts() {
        let dir = temp_store("dup");
        let mut store = Store::open(&dir).unwrap();
        store.append(record("fig3", 11, "old")).unwrap();
        store.append(record("fig3", 101, "other")).unwrap();
        store.append(record("fig3", 11, "new")).unwrap();
        let hash = record("fig3", 11, "x").hash;
        assert_eq!(store.get(&hash).unwrap().result.notes, vec!["new"]);
        assert_eq!(store.len(), 3);

        assert_eq!(store.compact().unwrap(), 1);
        assert_eq!(store.len(), 2);
        assert_eq!(store.get(&hash).unwrap().result.notes, vec!["new"]);
        // Idempotent.
        assert_eq!(store.compact().unwrap(), 0);

        let reopened = Store::open(&dir).unwrap();
        assert_eq!(reopened.len(), 2);
        assert_eq!(reopened.get(&hash).unwrap().result.notes, vec!["new"]);
        drop(reopened);

        // Appends after a compaction land in the rewritten file.
        store.append(record("fig4", 11, "after")).unwrap();
        assert_eq!(Store::open(&dir).unwrap().len(), 3);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn tolerates_torn_final_line() {
        // What an uninterrupted writer produces.
        let dir = temp_store("torn-reference");
        let mut store = Store::open(&dir).unwrap();
        store.append(record("fig3", 11, "whole")).unwrap();
        let whole = fs::read(store.records_path()).unwrap();
        store.append(record("fig3", 13, "next")).unwrap();
        let expected = fs::read(store.records_path()).unwrap();
        drop(store);
        let _ = fs::remove_dir_all(&dir);

        // A crash while appending a record leaves any prefix of its line:
        // nothing, part of it, or the whole record without its newline.
        // Reopening drops it, and the next append overwrites it.
        let dir = temp_store("torn");
        fs::create_dir_all(&dir).unwrap();
        let path = dir.join("records.jsonl");
        let torn = record("fig3", 101, "torn mid-write")
            .to_json()
            .to_string_compact();
        let torn_hash = record("fig3", 101, "").hash;
        for cut in 0..=torn.len() {
            let mut bytes = whole.clone();
            bytes.extend_from_slice(&torn.as_bytes()[..cut]);
            fs::write(&path, bytes).unwrap();

            let mut reopened = Store::open(&dir).unwrap();
            assert_eq!(reopened.len(), 1, "cut at {cut}");
            assert!(reopened.get(&torn_hash).is_none(), "cut at {cut}");
            reopened.append(record("fig3", 13, "next")).unwrap();
            drop(reopened);

            let again = Store::open(&dir).unwrap();
            assert_eq!(again.len(), 2, "cut at {cut}");
            assert!(again.get(&torn_hash).is_none(), "cut at {cut}");
            assert_eq!(fs::read(&path).unwrap(), expected, "cut at {cut}");
        }
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn second_writer_is_refused() {
        let dir = temp_store("two-writers");
        let mut first = Store::open(&dir).unwrap();
        let mut second = Store::open(&dir).unwrap();
        first.append(record("fig3", 11, "first")).unwrap();
        let err = second.append(record("fig3", 13, "second")).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::WouldBlock);
        assert!(second.is_empty());

        let reopened = Store::open(&dir).unwrap();
        assert_eq!(reopened.len(), 1);
        let hash = record("fig3", 11, "").hash;
        assert_eq!(reopened.get(&hash).unwrap().result.notes, vec!["first"]);

        // Once the first writer is gone, the second's view is stale: it
        // still may not write over the first's record.
        drop(first);
        assert!(second.append(record("fig3", 13, "second")).is_err());
        assert_eq!(Store::open(&dir).unwrap().len(), 1);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn rejects_corrupt_interior_line() {
        let dir = temp_store("corrupt");
        let mut store = Store::open(&dir).unwrap();
        store.append(record("fig3", 11, "a")).unwrap();
        let path = store.records_path();
        let text = fs::read_to_string(&path).unwrap();
        fs::write(&path, format!("not json\n{text}")).unwrap();
        let err = Store::open(&dir).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn rejects_a_float_in_another_spelling() {
        let dir = temp_store("spelling");
        let mut store = Store::open(&dir).unwrap();
        store.append(record("fig3", 11, "a")).unwrap();
        let mut trials = record("fig3", 13, "b");
        trials.result.trials = Some(TrialSummary {
            samples: vec![1.0, 2.5],
            error_fraction: 0.5,
            total_runs: 2,
        });
        trials.result.values.insert("eps".to_string(), 0.25);
        store.append(trials).unwrap();
        let path = store.records_path();
        let text = fs::read_to_string(&path).unwrap();
        drop(store);
        // The hand-edited spellings decode to the same bits as the written
        // ones: a sample, the error fraction and a value.
        for (written, edited) in [
            ("\"3ff0000000000000\"", "\"3FF0000000000000\""),
            ("\"3fe0000000000000\"", "\"+fe0000000000000\""),
            ("\"3fd0000000000000\"", "\"3fd000000000000\""),
        ] {
            assert_eq!(text.matches(written).count(), 1, "{written}");
            fs::write(&path, text.replace(written, edited)).unwrap();
            let err = Store::open(&dir).unwrap_err();
            assert_eq!(err.kind(), io::ErrorKind::InvalidData);
            let message = err.to_string();
            assert!(
                message.starts_with(&format!("{}:2: ", path.display())),
                "{message}"
            );
            assert!(message.contains("bad f64 hex"), "{message}");
        }
        fs::write(&path, text).unwrap();
        assert_eq!(Store::open(&dir).unwrap().len(), 2);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_3001_sample_record_roundtrips_bit_for_bit() {
        let dir = temp_store("samples");
        // Awkward bit patterns beside spread-out ones: zeros, subnormals,
        // infinities and NaN payloads.
        let mut bits = 0x9e37_79b9_7f4a_7c15_u64;
        let samples: Vec<f64> = [0, 1, 0x8000_0000_0000_0000, 0x7ff0_0000_0000_0000]
            .into_iter()
            .chain([0x7ff8_0000_0000_0001, 0xfff4_0000_0000_00ff])
            .chain(std::iter::repeat_with(|| {
                bits ^= bits << 13;
                bits ^= bits >> 7;
                bits ^= bits << 17;
                bits
            }))
            .take(3001)
            .map(f64::from_bits)
            .collect();
        let mut cell = record("fig3", 3001, "many samples");
        cell.result.trials = Some(TrialSummary {
            samples: samples.clone(),
            error_fraction: f64::from_bits(0x3fd8_0000_0000_0001),
            total_runs: 3001,
        });
        let hash = cell.hash.clone();
        let line = cell.to_json().to_string_compact();
        Store::open(&dir).unwrap().append(cell).unwrap();

        let reopened = Store::open(&dir).unwrap();
        let trials = reopened.get(&hash).unwrap().result.trials.as_ref().unwrap();
        let bits_of = |xs: &[f64]| xs.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits_of(&trials.samples), bits_of(&samples));
        assert_eq!(trials.error_fraction.to_bits(), 0x3fd8_0000_0000_0001);
        // Written back, the record is the same line.
        let written = fs::read_to_string(reopened.records_path()).unwrap();
        assert_eq!(written, format!("{line}\n"));
        let rewritten = reopened.get(&hash).unwrap().to_json().to_string_compact();
        assert_eq!(rewritten, line);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn prefix_lookup() {
        let dir = temp_store("prefix");
        let mut store = Store::open(&dir).unwrap();
        store.append(record("fig3", 11, "a")).unwrap();
        store.append(record("fig4", 11, "b")).unwrap();
        let hash = record("fig3", 11, "a").hash;
        let hits = store.find_by_prefix(&hash[..12]);
        assert_eq!(hits.len(), 1);
        assert_eq!(hits[0].hash, hash);
        assert_eq!(store.find_by_prefix("").len(), 2);
        let _ = fs::remove_dir_all(&dir);
    }
}
