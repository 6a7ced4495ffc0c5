//! `noc-lint` reads only compiled models, so it runs from any directory,
//! and the retired source-tree options are usage errors.

use std::io;
use std::path::Path;
use std::process::{Command, Output};

fn noc_lint(cwd: &Path, args: &[&str]) -> io::Result<Output> {
    Command::new(env!("CARGO_BIN_EXE_noc-lint"))
        .args(args)
        .current_dir(cwd)
        .output()
}

#[test]
fn runs_outside_the_checkout_and_rejects_source_tree_options() {
    let cwd = std::env::temp_dir().join(format!("noc-lint-cli-{}", std::process::id()));
    std::fs::create_dir_all(&cwd).unwrap();

    let out = noc_lint(&cwd, &["--pass", "coverage", "--mesh", "4x4"]).unwrap();
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert_eq!(out.status.code(), Some(0), "{stdout}");
    assert!(stdout.contains("noc-lint: 0 error(s)"), "{stdout}");

    for args in [
        &["--pass", "lint"][..],
        &["--root", "."],
        &["--allowlist", "allow.txt"],
    ] {
        let out = noc_lint(&cwd, args).unwrap();
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
        assert!(stderr.contains("usage: noc-lint"), "{args:?}: {stderr}");
    }
    let _ = std::fs::remove_dir_all(&cwd);
}
