//! Output checks: every job digest is compared with
//!
//! * every other run of the same spec in this process,
//! * the digest recorded by the first run of the spec in this checkout
//!   (the ledger), so a traced run and an untraced run of one seed must
//!   agree whichever runs first,
//! * on the default seed, the digest committed in `digests.json`.

use crate::report::Ops;
use std::collections::BTreeMap;
use std::path::Path;

/// The seed whose digests are committed with the benchmark.
pub const DEFAULT_SEED: u64 = 1;

fn load(path: &Path) -> Result<BTreeMap<String, String>, String> {
    match std::fs::read_to_string(path) {
        Ok(text) => serde_json::from_str(&text).map_err(|e| format!("{}: {e}", path.display())),
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(BTreeMap::new()),
        Err(e) => Err(format!("{}: {e}", path.display())),
    }
}

fn store(path: &Path, map: &BTreeMap<String, String>) -> Result<(), String> {
    let text = serde_json::to_string_pretty(map).map_err(|e| e.to_string())?;
    let tmp = path.with_extension("tmp");
    std::fs::write(&tmp, text + "\n").map_err(|e| format!("{}: {e}", tmp.display()))?;
    std::fs::rename(&tmp, path).map_err(|e| format!("{}: {e}", path.display()))
}

/// Compares `digests` (label, digest) against one another, the ledger and
/// (on the default seed) the committed table; every comparison is an
/// operation in `ops`. Committed keys are `<prefix>/<label>`.
pub fn verify(
    digests: &[(String, String)],
    prefix: &str,
    seed: u64,
    committed: &Path,
    ledger: &Path,
    ops: &mut Ops,
) {
    let mut first: BTreeMap<&str, &str> = BTreeMap::new();
    for (label, digest) in digests {
        let seen = *first.entry(label).or_insert(digest);
        ops.check(seen == digest, || {
            format!("{label}: digest {digest} differs from {seen} earlier in this run")
        });
    }

    match load(ledger) {
        Ok(mut recorded) => {
            for (&label, &digest) in &first {
                match recorded.get(label) {
                    Some(r) => ops.check(r == digest, || {
                        format!(
                            "{label}: digest {digest} differs from {r} recorded by an earlier run"
                        )
                    }),
                    None => {
                        recorded.insert(label.to_string(), digest.to_string());
                    }
                }
            }
            if let Err(e) = store(ledger, &recorded) {
                ops.check(false, || format!("cannot write digest ledger: {e}"));
            }
        }
        Err(e) => ops.check(false, || format!("cannot read digest ledger: {e}")),
    }

    if seed != DEFAULT_SEED {
        return;
    }
    match load(committed) {
        Ok(table) => {
            for (&label, &digest) in &first {
                let key = format!("{prefix}/{label}");
                match table.get(&key) {
                    Some(c) => ops.check(c == digest, || {
                        format!("{key}: digest {digest} differs from committed {c}")
                    }),
                    None => ops.check(false, || format!("{key}: no committed digest")),
                }
            }
        }
        Err(e) => ops.check(false, || format!("cannot read committed digests: {e}")),
    }
}

/// Adds `digests` to the committed table (used to record it).
pub fn record(digests: &[(String, String)], prefix: &str, committed: &Path) -> Result<(), String> {
    let mut table = load(committed)?;
    for (label, digest) in digests {
        table.insert(format!("{prefix}/{label}"), digest.clone());
    }
    store(committed, &table)
}
