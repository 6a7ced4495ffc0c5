//! Pins the stable subset of `noc-lint --json` output on the canonical
//! (seed) configuration against a committed snapshot.
//!
//! The snapshot freezes the *verified claims* — configuration, coverage
//! statistics, proof case counts and the (empty) error list — while
//! excluding volatile fields like the per-site detectability table and
//! info-level diagnostics. To regenerate after an intentional change:
//!
//! ```text
//! NOC_LINT_BLESS=1 cargo test -p nocalert-analysis --test snapshot
//! ```

use nocalert_analysis::{canonical_config, run, PassSelection, SCHEMA_VERSION};
use std::path::Path;

#[test]
fn canonical_json_report_matches_committed_snapshot() {
    let manifest = Path::new(env!("CARGO_MANIFEST_DIR"));
    let report = run(&canonical_config(), PassSelection::default(), 1, None);
    assert!(report.clean(), "{:#?}", report.diagnostics);
    assert_eq!(report.schema_version, SCHEMA_VERSION);

    let snapshot = report.snapshot();
    assert_eq!(
        snapshot.get("schema_version").and_then(|v| v.as_u64()),
        Some(SCHEMA_VERSION as u64),
        "the snapshot must carry the schema version"
    );

    let mut actual = String::new();
    snapshot.write_json_pretty(&mut actual);
    actual.push('\n');

    let snap_path = manifest.join("tests/snapshots/canonical.json");
    if std::env::var_os("NOC_LINT_BLESS").is_some() {
        if let Some(dir) = snap_path.parent() {
            let _ = std::fs::create_dir_all(dir);
        }
        match std::fs::write(&snap_path, &actual) {
            Ok(()) => return,
            Err(e) => panic!("could not bless {}: {e}", snap_path.display()),
        }
    }
    let expected = std::fs::read_to_string(&snap_path).unwrap_or_default();
    assert_eq!(
        actual.trim(),
        expected.trim(),
        "noc-lint canonical JSON snapshot drifted; if the change is \
         intentional, rerun with NOC_LINT_BLESS=1"
    );
}
