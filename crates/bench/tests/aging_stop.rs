//! The `aging` binary stops between epochs when `<checkpoint-dir>/STOP`
//! exists (exit 1, fewer epochs journalled), and `--resume` after the
//! file is removed finishes to the same JSON as an uninterrupted run.

#![allow(clippy::expect_used)]

use std::ffi::OsStr;
use std::path::Path;
use std::process::Command;

/// Runs the smoke campaign with `args`; returns the exit code and the
/// combined output for failure messages.
fn aging(args: &[&OsStr]) -> (Option<i32>, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_aging"))
        .arg("--smoke")
        .args(args)
        .output()
        .expect("spawn aging");
    let text = format!(
        "{}{}",
        String::from_utf8_lossy(&out.stdout),
        String::from_utf8_lossy(&out.stderr)
    );
    (out.status.code(), text)
}

/// Journalled epoch rows in checkpoint directory `dir`.
fn epochs(dir: &Path) -> usize {
    std::fs::read_to_string(dir.join("shard-w0.jsonl"))
        .expect("shard")
        .lines()
        .count()
}

#[test]
fn stop_file_interrupts_aging_and_resume_matches_an_uninterrupted_run() {
    let root = std::env::temp_dir().join(format!("nocalert-aging-stop-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&root);
    let (full, stopped) = (root.join("full"), root.join("stopped"));
    let (full_json, resumed_json) = (root.join("full.json"), root.join("resumed.json"));
    let dir = OsStr::new("--checkpoint-dir");
    let json = OsStr::new("--json");

    let (code, out) = aging(&[dir, full.as_ref(), json, full_json.as_ref()]);
    assert_eq!(code, Some(0), "uninterrupted run:\n{out}");

    std::fs::create_dir_all(&stopped).unwrap();
    std::fs::write(stopped.join("STOP"), b"").unwrap();
    let (code, out) = aging(&[dir, stopped.as_ref()]);
    assert_eq!(code, Some(1), "STOP run:\n{out}");
    assert!(out.contains("INTERRUPTED"), "{out}");
    let (done, all) = (epochs(&stopped), epochs(&full));
    assert!(done < all, "STOP run journalled {done} of {all} epochs");

    std::fs::remove_file(stopped.join("STOP")).unwrap();
    let resume = OsStr::new("--resume");
    let (code, out) = aging(&[dir, stopped.as_ref(), resume, json, resumed_json.as_ref()]);
    assert_eq!(code, Some(0), "resumed run:\n{out}");
    assert_eq!(
        std::fs::read(&resumed_json).unwrap(),
        std::fs::read(&full_json).unwrap(),
        "resumed JSON differs from the uninterrupted run"
    );
    std::fs::remove_dir_all(&root).unwrap();
}
