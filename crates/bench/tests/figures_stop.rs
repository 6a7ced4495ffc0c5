//! The `figures` binary stops when `<checkpoint-dir>/STOP` exists: it
//! exits 1 with `INTERRUPTED` and writes no JSON, since its figures would
//! describe a partial sweep. `--resume` after the file is removed writes
//! the JSON of an uninterrupted run, and the JSON does not depend on
//! `--threads`.

#![allow(clippy::expect_used, clippy::panic)]

use std::ffi::OsStr;
use std::path::Path;
use std::process::Command;

/// Runs a small 4×4 campaign with `args` and `--threads threads`; returns
/// the exit code and the combined output for failure messages.
fn figures(threads: &str, args: &[&OsStr]) -> (Option<i32>, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_figures"))
        .args(["--mesh", "4", "--sites", "24", "--warm", "300"])
        .args(["--threads", threads])
        .args(args)
        .output()
        .expect("spawn figures");
    let text = format!(
        "{}{}",
        String::from_utf8_lossy(&out.stdout),
        String::from_utf8_lossy(&out.stderr)
    );
    (out.status.code(), text)
}

fn read(path: &Path) -> Vec<u8> {
    std::fs::read(path).unwrap_or_else(|e| panic!("{}: {e}", path.display()))
}

#[test]
fn stop_file_interrupts_figures_and_resume_matches_an_uninterrupted_run() {
    let root = std::env::temp_dir().join(format!("nocalert-figures-stop-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&root);
    std::fs::create_dir_all(&root).unwrap();
    let stopped = root.join("stopped");
    let (one, two) = (root.join("threads1.json"), root.join("threads2.json"));
    let resumed = root.join("resumed.json");
    let dir = OsStr::new("--checkpoint-dir");
    let json = OsStr::new("--json");

    let (code, out) = figures("1", &[json, one.as_ref()]);
    assert_eq!(code, Some(0), "uninterrupted run, 1 thread:\n{out}");
    let (code, out) = figures("2", &[json, two.as_ref()]);
    assert_eq!(code, Some(0), "uninterrupted run, 2 threads:\n{out}");
    assert_eq!(read(&one), read(&two), "JSON depends on --threads");

    std::fs::create_dir_all(&stopped).unwrap();
    std::fs::write(stopped.join("STOP"), b"").unwrap();
    let (code, out) = figures("2", &[dir, stopped.as_ref(), json, resumed.as_ref()]);
    assert_eq!(code, Some(1), "STOP run:\n{out}");
    assert!(out.contains("INTERRUPTED"), "{out}");
    assert!(!resumed.exists(), "an interrupted run wrote JSON:\n{out}");

    std::fs::remove_file(stopped.join("STOP")).unwrap();
    let resume = OsStr::new("--resume");
    let (code, out) = figures(
        "2",
        &[dir, stopped.as_ref(), resume, json, resumed.as_ref()],
    );
    assert_eq!(code, Some(0), "resumed run:\n{out}");
    assert_eq!(
        read(&resumed),
        read(&one),
        "resumed JSON differs from the uninterrupted run"
    );
    std::fs::remove_dir_all(&root).unwrap();
}
