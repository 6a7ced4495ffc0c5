//! The JSONL journal behind every durable campaign artifact: transient
//! checkpoints, recovery and attack journals, and aging epoch logs. One
//! implementation, one set of durability semantics:
//!
//! * **append + flush per row** — a `kill -9` loses at most the
//!   in-flight row;
//! * **torn trailing line** (no final newline) is the expected signature
//!   of a mid-write kill: skipped by the loader, counted, and truncated
//!   away when the shard is reopened for writing. Newline-terminating
//!   the fragment instead would leave a complete-but-unparseable line a
//!   later load must refuse;
//! * **mid-file corruption** — an unparseable line *inside* the
//!   complete, newline-terminated prefix — is file damage, not a kill
//!   signature, and loading refuses it as
//!   [`CampaignError::ShardCorrupt`] rather than silently dropping the
//!   row and every row after it;
//! * **`meta.json` config pinning** — a journal directory records the
//!   campaign configuration it was written under, and opening it with a
//!   different configuration is refused as
//!   [`CampaignError::CheckpointMismatch`] (mixing rows computed under
//!   different configurations would corrupt aggregates);
//! * **populated-directory refusal** — loading a directory that already
//!   holds rows without asking to resume is refused, never overwritten.
//!
//! Layout of a journal directory ([`Journal`]):
//!
//! * `meta.json` — `{ "version": 1, "config": <config> }`, written once
//!   at creation;
//! * `shard-w<worker>.jsonl` — one serialized row per line, appended and
//!   flushed as soon as the unit finishes. Workers write disjoint files,
//!   so no locking is needed. Which shard a row lands in depends on the
//!   worker count; sweeps reassemble rows in input order, so the shard
//!   layout never affects results.

use super::error::CampaignError;
use serde::{Deserialize, Serialize, Value};
use std::fs::{self, File, OpenOptions};
use std::io::{Read, Write};
use std::marker::PhantomData;
use std::path::{Path, PathBuf};

/// Name of the metadata file pinning a shard directory's configuration.
pub const META_NAME: &str = "meta.json";

fn io_err(path: &Path, detail: impl std::fmt::Display) -> CampaignError {
    CampaignError::Checkpoint {
        path: path.to_path_buf(),
        detail: detail.to_string(),
    }
}

/// Creates `dir` if needed and pins it to `config`: a fresh directory
/// gets a `meta.json` of `{"version": version, "config": <config>}`,
/// an existing one must carry a matching config.
fn ensure_meta<C>(dir: &Path, version: u32, config: &C) -> Result<(), CampaignError>
where
    C: Serialize + Deserialize + PartialEq,
{
    fs::create_dir_all(dir).map_err(|e| io_err(dir, e))?;
    let meta_path = dir.join(META_NAME);
    if meta_path.exists() {
        let text = fs::read_to_string(&meta_path).map_err(|e| io_err(&meta_path, e))?;
        let doc: Value = Value::parse_json(&text).map_err(|e| io_err(&meta_path, e))?;
        let found: C =
            serde::de_field(&doc, "config", "meta").map_err(|e| io_err(&meta_path, e))?;
        if found != *config {
            return Err(CampaignError::CheckpointMismatch {
                path: dir.to_path_buf(),
            });
        }
    } else {
        let meta = Value::Object(vec![
            ("version".to_string(), version.to_value()),
            ("config".to_string(), config.to_value()),
        ]);
        let mut text = String::new();
        meta.write_json_pretty(&mut text);
        fs::write(&meta_path, text).map_err(|e| io_err(&meta_path, e))?;
    }
    Ok(())
}

/// Reads one JSONL file (a missing file reads as empty) and returns its
/// bytes plus the length of its complete, newline-terminated prefix;
/// anything after it is a torn trailing line from a mid-write kill. The
/// file is read as bytes, not text: rows carry raw UTF-8, so a kill can
/// tear a multi-byte character, and only the complete prefix must decode.
fn read_complete(path: &Path) -> Result<(Vec<u8>, usize), CampaignError> {
    let mut bytes = Vec::new();
    if path.exists() {
        File::open(path)
            .and_then(|mut f| f.read_to_end(&mut bytes))
            .map_err(|e| io_err(path, e))?;
    }
    let complete_len = bytes.iter().rposition(|&b| b == b'\n').map_or(0, |i| i + 1);
    Ok((bytes, complete_len))
}

/// Parses every complete row of one JSONL file, in line order. Returns
/// the rows plus a flag for a torn trailing line, which is skipped
/// rather than parsed. A complete line that is not UTF-8 is corrupt like
/// one that does not parse.
fn load_file<T: Deserialize>(path: &Path) -> Result<(Vec<T>, bool), CampaignError> {
    let (bytes, complete_len) = read_complete(path)?;
    let torn = complete_len < bytes.len();
    let mut rows = Vec::new();
    for (idx, raw) in bytes[..complete_len].split(|&b| b == b'\n').enumerate() {
        let corrupt = |detail: String| CampaignError::ShardCorrupt {
            path: path.to_path_buf(),
            line: idx + 1,
            detail,
        };
        let line = std::str::from_utf8(raw).map_err(|e| corrupt(e.to_string()))?;
        if line.trim().is_empty() {
            continue;
        }
        rows.push(serde_json::from_str::<T>(line).map_err(|e| corrupt(e.to_string()))?);
    }
    Ok((rows, torn))
}

/// Loads every complete row from every `shard-*.jsonl` file in `dir`, in
/// shard name + line order. The second element counts torn trailing
/// lines across shards; duplicate rows are the caller's concern (keep
/// the last).
fn load_shards<T: Deserialize>(dir: &Path) -> Result<(Vec<T>, usize), CampaignError> {
    let mut shards: Vec<PathBuf> = fs::read_dir(dir)
        .map_err(|e| io_err(dir, e))?
        .filter_map(|entry| entry.ok().map(|e| e.path()))
        .filter(|p| {
            p.file_name()
                .and_then(|n| n.to_str())
                .is_some_and(|n| n.starts_with("shard-") && n.ends_with(".jsonl"))
        })
        .collect();
    shards.sort();
    let mut rows = Vec::new();
    let mut corrupt = 0usize;
    for shard in shards {
        let (mut r, torn) = load_file(&shard)?;
        rows.append(&mut r);
        if torn {
            corrupt += 1;
        }
    }
    Ok((rows, corrupt))
}

/// A journal directory pinned to one campaign configuration `C`, holding
/// `R` rows in per-worker shards (see the module docs for the layout and
/// the durability semantics).
#[derive(Debug)]
pub struct Journal<C, R> {
    dir: PathBuf,
    rows: PhantomData<fn(&C) -> R>,
}

impl<C, R> Journal<C, R>
where
    C: Serialize + Deserialize + PartialEq,
    R: Serialize + Deserialize,
{
    /// Opens (creating if needed) a journal directory for `config`. A
    /// fresh directory gets a `meta.json` recording `config`; an existing
    /// one must carry a matching config.
    ///
    /// # Errors
    ///
    /// [`CampaignError::Checkpoint`] on I/O or parse failures,
    /// [`CampaignError::CheckpointMismatch`] when the directory belongs
    /// to a different campaign configuration.
    pub fn open(dir: impl Into<PathBuf>, config: &C) -> Result<Journal<C, R>, CampaignError> {
        let dir = dir.into();
        ensure_meta(&dir, 1, config)?;
        Ok(Journal {
            dir,
            rows: PhantomData,
        })
    }

    /// Loads every complete row, in shard name + line order, plus the
    /// number of torn trailing lines skipped. Without `resume` the
    /// directory must hold no rows, and nothing is loaded.
    ///
    /// # Errors
    ///
    /// [`CampaignError::Checkpoint`] for a populated directory without
    /// `resume` and on I/O failures, [`CampaignError::ShardCorrupt`] for
    /// mid-shard damage.
    pub fn load(&self, resume: bool) -> Result<(Vec<R>, usize), CampaignError> {
        let (rows, torn) = load_shards(&self.dir)?;
        if resume {
            return Ok((rows, torn));
        }
        if !rows.is_empty() {
            return Err(CampaignError::Checkpoint {
                path: self.dir.clone(),
                detail: format!(
                    "directory already holds {} completed rows; pass resume=true to continue or point at a fresh directory",
                    rows.len()
                ),
            });
        }
        Ok((Vec::new(), 0))
    }

    /// Opens worker `worker`'s shard, `shard-w<worker>.jsonl`, for
    /// appending (repairing a torn tail first).
    ///
    /// # Errors
    ///
    /// [`CampaignError::Checkpoint`] on I/O failures.
    pub fn writer(&self, worker: usize) -> Result<Appender, CampaignError> {
        Appender::open(self.dir.join(format!("shard-w{worker}.jsonl")))
    }
}

/// Append handle for one JSONL file; rows are flushed to the OS one by
/// one — the substrate's kill-safety granularity.
#[derive(Debug)]
pub struct Appender {
    path: PathBuf,
    file: File,
}

impl Appender {
    /// Opens `path` for appending. A torn trailing line from a previous
    /// killed run is truncated away first: the in-flight row re-runs
    /// anyway, and newline-terminating the fragment instead would leave
    /// a complete-but-unparseable line that a later load rightly refuses
    /// as mid-file corruption.
    fn open(path: PathBuf) -> Result<Appender, CampaignError> {
        let (bytes, complete_len) = read_complete(&path)?;
        if complete_len < bytes.len() {
            OpenOptions::new()
                .write(true)
                .open(&path)
                .and_then(|f| f.set_len(complete_len as u64))
                .map_err(|e| io_err(&path, e))?;
        }
        let file = OpenOptions::new()
            .create(true)
            .append(true)
            .open(&path)
            .map_err(|e| io_err(&path, e))?;
        Ok(Appender { path, file })
    }

    /// Appends one row as a single JSONL line and flushes it to the OS
    /// immediately.
    ///
    /// # Errors
    ///
    /// [`CampaignError::Checkpoint`] on serialization or I/O failures.
    pub fn append<T: Serialize>(&mut self, row: &T) -> Result<(), CampaignError> {
        let mut line = serde_json::to_string(row).map_err(|e| io_err(&self.path, e))?;
        line.push('\n');
        self.file
            .write_all(line.as_bytes())
            .and_then(|_| self.file.flush())
            .map_err(|e| io_err(&self.path, e))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
    struct Row {
        id: u32,
        tag: String,
    }

    #[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
    struct Cfg {
        knob: u32,
    }

    type TestJournal = Journal<Cfg, Row>;

    fn row(id: u32) -> Row {
        Row {
            id,
            tag: format!("r{id}"),
        }
    }

    fn tmpdir(tag: &str) -> PathBuf {
        let d = std::env::temp_dir().join(format!("nocalert-jsonl-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&d);
        d
    }

    fn append_raw(path: &Path, bytes: &[u8]) {
        let mut f = OpenOptions::new().append(true).open(path).unwrap();
        f.write_all(bytes).unwrap();
    }

    #[test]
    fn meta_pins_config_and_refuses_mismatch() {
        let dir = tmpdir("meta");
        TestJournal::open(&dir, &Cfg { knob: 7 }).unwrap();
        TestJournal::open(&dir, &Cfg { knob: 7 }).unwrap();
        let err = TestJournal::open(&dir, &Cfg { knob: 8 }).unwrap_err();
        assert!(matches!(err, CampaignError::CheckpointMismatch { .. }));
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn shards_roundtrip_and_populated_dir_needs_resume() {
        let dir = tmpdir("rt");
        let j = TestJournal::open(&dir, &Cfg { knob: 1 }).unwrap();
        assert_eq!(j.load(false).unwrap(), (Vec::new(), 0), "fresh is empty");
        let mut w0 = j.writer(0).unwrap();
        let mut w1 = j.writer(1).unwrap();
        w1.append(&row(3)).unwrap();
        w0.append(&row(1)).unwrap();
        w0.append(&row(2)).unwrap();
        let (rows, torn) = j.load(true).unwrap();
        assert_eq!(torn, 0);
        assert_eq!(
            rows,
            vec![row(1), row(2), row(3)],
            "shard name + line order"
        );
        let err = j.load(false).unwrap_err();
        assert!(matches!(err, CampaignError::Checkpoint { .. }), "{err}");
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn torn_tail_is_skipped_counted_and_repaired() {
        let dir = tmpdir("torn");
        let j = TestJournal::open(&dir, &Cfg { knob: 1 }).unwrap();
        j.writer(0).unwrap().append(&row(1)).unwrap();
        // Simulate a kill mid-write: a truncated fragment, no newline.
        let shard = dir.join("shard-w0.jsonl");
        append_raw(&shard, b"{\"id\":2,\"ta");
        let (rows, torn) = j.load(true).unwrap();
        assert_eq!(rows, vec![row(1)]);
        assert_eq!(torn, 1);
        // Reopening the writer truncates the fragment; the next append
        // parses cleanly and the shard is pristine again.
        j.writer(0).unwrap().append(&row(3)).unwrap();
        let (rows, torn) = j.load(true).unwrap();
        assert_eq!(rows, vec![row(1), row(3)]);
        assert_eq!(torn, 0, "the repaired shard is pristine");
        fs::remove_dir_all(&dir).unwrap();
    }

    /// A kill inside a multi-byte character leaves a torn tail that is
    /// not UTF-8; it is skipped and repaired like any torn tail, so the
    /// job can resume.
    #[test]
    fn torn_multibyte_tail_is_skipped_and_repaired() {
        let dir = tmpdir("torn-utf8");
        let j = TestJournal::open(&dir, &Cfg { knob: 1 }).unwrap();
        let accented = Row {
            id: 1,
            tag: "déjà vu".to_string(),
        };
        j.writer(0).unwrap().append(&accented).unwrap();
        let shard = dir.join("shard-w0.jsonl");
        append_raw(&shard, b"{\"id\":2,\"tag\":\"\xC3");
        let (rows, torn) = j.load(true).unwrap();
        assert_eq!(rows, vec![accented.clone()]);
        assert_eq!(torn, 1);
        j.writer(0).unwrap().append(&row(3)).unwrap();
        let (rows, torn) = j.load(true).unwrap();
        assert_eq!(rows, vec![accented, row(3)]);
        assert_eq!(torn, 0, "the repaired shard is pristine");
        fs::remove_dir_all(&dir).unwrap();
    }

    /// Invalid UTF-8 inside a complete line is damage, not a kill
    /// signature: refused with its line number.
    #[test]
    fn invalid_utf8_in_a_complete_line_is_corrupt() {
        let dir = tmpdir("bad-utf8");
        let j = TestJournal::open(&dir, &Cfg { knob: 1 }).unwrap();
        j.writer(0).unwrap().append(&row(1)).unwrap();
        let shard = dir.join("shard-w0.jsonl");
        append_raw(
            &shard,
            b"{\"id\":2,\"tag\":\"\xC3\"}\n{\"id\":3,\"tag\":\"c\"}\n",
        );
        match j.load(true).unwrap_err() {
            CampaignError::ShardCorrupt { path, line, .. } => {
                assert_eq!(path, shard);
                assert_eq!(line, 2);
            }
            other => panic!("expected ShardCorrupt, got {other:?}"),
        }
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn mid_shard_corruption_is_refused_not_shrunk() {
        let dir = tmpdir("poison");
        let j = TestJournal::open(&dir, &Cfg { knob: 1 }).unwrap();
        j.writer(0).unwrap().append(&row(1)).unwrap();
        // Poison a complete (newline-terminated) line mid-shard, then a
        // perfectly good row after it. Loading must refuse with the shard
        // and line pinpointed — not keep row 1, drop the poison, and
        // quietly forget row 4 ever ran.
        let shard = dir.join("shard-w0.jsonl");
        append_raw(&shard, b"{\"id\": garbage}\n{\"id\":4,\"tag\":\"d\"}\n");
        match j.load(true).unwrap_err() {
            CampaignError::ShardCorrupt { path, line, .. } => {
                assert_eq!(path, shard);
                assert_eq!(line, 2, "poison sits on the second line");
            }
            other => panic!("expected ShardCorrupt, got {other:?}"),
        }
        fs::remove_dir_all(&dir).unwrap();
    }
}
