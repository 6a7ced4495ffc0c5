//! **noc-lint** — static verification of the NoCAlert checker array.
//!
//! The dynamic side of this repository demonstrates the paper's claims by
//! *simulation*: golden-run campaigns inject faults and measure detection.
//! This crate is the static side — it analyses the machine-readable models
//! the runtime already exposes and proves, without simulating a single
//! cycle, that the checker deployment is structurally sound:
//!
//! 1. [`coverage`] — every live wire bit of the configured mesh is
//!    constrained by at least one enabled checker (no blind spots), and
//!    the per-checker `observes`/`constrains` metadata is hygienic.
//! 2. [`prove`] — for the small combinational cones (arbiters, routing
//!    function, VC-state transitions) the checker invariants are proved by
//!    exhaustive input enumeration, over the *same* predicate functions
//!    the runtime checkers execute.
//! 3. [`detect`] — static fault detectability ("static ATPG"): for every
//!    containment-covered fault site, every reachable local state and
//!    every fault model, prove the fault is *detected* by a checker within
//!    a bounded number of steps or *provably masked* — and that no
//!    checker in the expected cohort is semantically dead.
//! 4. [`mc`] — explicit-state model checking of the recovery plane: the
//!    escalation ladder × ARQ product space, explored exhaustively under
//!    an adversarial environment, executing the *same* transition code
//!    the simulator runs.
//!
//! The `noc-lint` binary drives all four and renders a human report or a
//! stable JSON document (`--json`); CI treats any error-level diagnostic
//! as a failure. The heavier passes fan out across `--jobs` worker
//! threads with deterministic (byte-identical) output. The passes read
//! only compiled models, never the source tree, so the binary runs from
//! any directory. (The hot-path abort rule is clippy's: see
//! `[workspace.lints.clippy]` in the root `Cargo.toml`.)

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod coverage;
pub mod detect;
pub mod diag;
mod exec;
pub mod mc;
pub mod prove;

pub use coverage::{analyze, site_covered, CheckerModel, CoverageStats};
pub use detect::{detect_all, DetectStats};
pub use diag::{Diagnostic, Pass, Severity};
pub use mc::{model_check, McStats};
pub use prove::{prove_all, ConeProof};

use noc_types::config::NocConfig;
use serde::Serialize;
use std::time::{Duration, Instant};

/// Version of the JSON report layout emitted by `--json` (and pinned by
/// the committed snapshot). Bumped whenever a field is added, removed or
/// changes meaning:
///
/// * 1 — coverage / proofs / lint.
/// * 2 — `schema_version` itself, the `detect` (static detectability)
///   and `model` (recovery-plane model checking) passes, `--jobs`.
/// * 3 — the `lint` key is gone (the abort rule moved to clippy).
pub const SCHEMA_VERSION: u32 = 3;

/// The canonical configuration the acceptance criteria pin: the paper's
/// 8×8 mesh with 2 VCs per port (the smallest point of the paper's 2–8 VC
/// sweep, and the configuration the committed JSON snapshot freezes).
pub fn canonical_config() -> NocConfig {
    NocConfig {
        vcs_per_port: 2,
        ..NocConfig::paper_baseline()
    }
}

/// Compact description of the analysed configuration (part of the report).
#[derive(Debug, Clone, PartialEq, Eq, Serialize)]
pub struct ConfigSummary {
    /// Mesh dimensions as `WxH`.
    pub mesh: String,
    /// VCs per input port.
    pub vcs_per_port: u8,
    /// Buffer policy (`Atomic`/`NonAtomic`).
    pub buffer_policy: String,
    /// Routing algorithm the config selects (the prover covers both).
    pub routing: String,
    /// Speculative pipeline flag.
    pub speculative: bool,
}

impl ConfigSummary {
    fn of(cfg: &NocConfig) -> ConfigSummary {
        ConfigSummary {
            mesh: format!("{}x{}", cfg.mesh.width(), cfg.mesh.height()),
            vcs_per_port: cfg.vcs_per_port,
            buffer_policy: format!("{:?}", cfg.buffer_policy),
            routing: format!("{:?}", cfg.routing),
            speculative: cfg.speculative,
        }
    }
}

/// Diagnostic counts by severity.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize)]
pub struct SeverityCounts {
    /// Informational notes.
    pub info: usize,
    /// Warnings (non-gating).
    pub warning: usize,
    /// Errors (gating: `noc-lint` exits non-zero).
    pub error: usize,
}

/// Everything one `noc-lint` invocation produced.
#[derive(Debug, Clone, Serialize)]
pub struct Report {
    /// JSON layout version ([`SCHEMA_VERSION`]).
    pub schema_version: u32,
    /// The analysed configuration.
    pub config: ConfigSummary,
    /// Pass-1 statistics (present unless the pass was skipped).
    pub coverage: Option<CoverageStats>,
    /// Pass-2 proofs (empty if the pass was skipped).
    pub proofs: Vec<ConeProof>,
    /// Pass-3 statistics (present unless the pass was skipped).
    pub detect: Option<DetectStats>,
    /// Pass-4 statistics (present unless the pass was skipped).
    pub model: Option<McStats>,
    /// Diagnostic counts by severity.
    pub counts: SeverityCounts,
    /// All diagnostics, in pass order.
    pub diagnostics: Vec<Diagnostic>,
}

/// Which passes to run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PassSelection {
    /// Run pass 1 (coverage).
    pub coverage: bool,
    /// Run pass 2 (prove).
    pub prove: bool,
    /// Run pass 3 (static fault detectability).
    pub detect: bool,
    /// Run pass 4 (recovery-plane model checking).
    pub model: bool,
}

impl Default for PassSelection {
    fn default() -> PassSelection {
        PassSelection {
            coverage: true,
            prove: true,
            detect: true,
            model: true,
        }
    }
}

impl Report {
    /// True when no error-level diagnostic was produced.
    pub fn clean(&self) -> bool {
        self.counts.error == 0
    }

    /// The stable subset of the report the snapshot test pins: config,
    /// coverage statistics, proofs and the error count. Volatile fields
    /// (the per-site detectability table, info/warning diagnostics) are
    /// excluded so the snapshot only changes when the *verified claims*
    /// change.
    pub fn snapshot(&self) -> serde_json::Value {
        use serde::Serialize as _;
        use serde_json::Value;
        let errors: Vec<String> = self
            .diagnostics
            .iter()
            .filter(|d| d.severity == Severity::Error)
            .map(ToString::to_string)
            .collect();
        // The detectability aggregates are pinned, but the per-site table
        // (thousands of entries whose only churn is volume) is not; it is
        // `--json`-only.
        let detect = match self.detect.to_value() {
            Value::Object(pairs) => {
                Value::Object(pairs.into_iter().filter(|(k, _)| k != "per_site").collect())
            }
            v => v,
        };
        Value::Object(vec![
            (
                "schema_version".into(),
                Value::U64(self.schema_version as u64),
            ),
            ("config".into(), self.config.to_value()),
            ("coverage".into(), self.coverage.to_value()),
            ("proofs".into(), self.proofs.to_value()),
            ("detect".into(), detect),
            ("model".into(), self.model.to_value()),
            ("errors".into(), Value::U64(self.counts.error as u64)),
            ("error_diagnostics".into(), errors.to_value()),
        ])
    }
}

/// Runs the selected passes and assembles the report.
///
/// `jobs` bounds the worker threads the heavier passes (`prove`,
/// `detect`) fan out across; the output is byte-identical for every
/// value. When `timings` is given, each executed pass appends its
/// wall-clock duration (rendered by the binary on stderr so stdout stays
/// identical across `--jobs` settings).
pub fn run(
    cfg: &NocConfig,
    passes: PassSelection,
    jobs: usize,
    mut timings: Option<&mut Vec<(&'static str, Duration)>>,
) -> Report {
    let mut diagnostics = Vec::new();
    let timed = |name: &'static str, t0: Instant, timings: &mut Option<&mut Vec<_>>| {
        if let Some(v) = timings.as_deref_mut() {
            v.push((name, t0.elapsed()));
        }
    };
    let coverage = if passes.coverage {
        let t0 = Instant::now();
        let a = coverage::analyze(cfg, &CheckerModel::from_table1());
        diagnostics.extend(a.diagnostics);
        timed("coverage", t0, &mut timings);
        Some(a.stats)
    } else {
        None
    };
    let proofs = if passes.prove {
        let t0 = Instant::now();
        let (d, p) = prove::prove_all(cfg, jobs);
        diagnostics.extend(d);
        timed("prove", t0, &mut timings);
        p
    } else {
        Vec::new()
    };
    let detect = if passes.detect {
        let t0 = Instant::now();
        let (s, d) = detect::detect_all(cfg, jobs);
        diagnostics.extend(d);
        timed("detect", t0, &mut timings);
        Some(s)
    } else {
        None
    };
    let model = if passes.model {
        let t0 = Instant::now();
        let r = mc::model_check(
            &noc_sim::ArqConfig::default_policy(),
            &noc_sim::RecoveryPolicy::default_policy(),
        );
        diagnostics.extend(r.diagnostics);
        timed("model", t0, &mut timings);
        Some(r.stats)
    } else {
        None
    };
    let mut counts = SeverityCounts::default();
    for d in &diagnostics {
        match d.severity {
            Severity::Info => counts.info += 1,
            Severity::Warning => counts.warning += 1,
            Severity::Error => counts.error += 1,
        }
    }
    Report {
        schema_version: SCHEMA_VERSION,
        config: ConfigSummary::of(cfg),
        coverage,
        proofs,
        detect,
        model,
        counts,
        diagnostics,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn canonical_config_is_8x8_2vc_and_valid() {
        let cfg = canonical_config();
        assert_eq!(cfg.mesh.len(), 64);
        assert_eq!(cfg.vcs_per_port, 2);
        assert!(cfg.validate().is_ok());
    }

    #[test]
    fn coverage_only_run_skips_other_passes() {
        let cfg = NocConfig::small_test();
        let r = run(
            &cfg,
            PassSelection {
                coverage: true,
                prove: false,
                detect: false,
                model: false,
            },
            1,
            None,
        );
        assert!(r.coverage.is_some());
        assert!(r.proofs.is_empty());
        assert!(r.detect.is_none());
        assert!(r.model.is_none());
        assert!(r.clean(), "{:#?}", r.diagnostics);
        assert_eq!(r.schema_version, SCHEMA_VERSION);
    }

    #[test]
    fn snapshot_excludes_volatile_fields() {
        let cfg = NocConfig::small_test();
        let r = run(&cfg, PassSelection::default(), 1, None);
        let s = serde_json::to_string(&r.snapshot()).unwrap_or_default();
        assert!(s.contains("\"config\""));
        assert!(s.contains("\"schema_version\""));
        // Quoted: `min_constrainers_per_site` legitimately contains the
        // substring; only the per-site *table key* must be absent.
        assert!(!s.contains("\"per_site\""), "{s}");
    }

    #[test]
    fn run_records_per_pass_timings() {
        let cfg = NocConfig::small_test();
        let mut timings = Vec::new();
        let r = run(
            &cfg,
            PassSelection {
                coverage: true,
                prove: false,
                detect: true,
                model: true,
            },
            2,
            Some(&mut timings),
        );
        assert!(r.detect.is_some());
        assert!(r.model.is_some());
        let names: Vec<&str> = timings.iter().map(|(n, _)| *n).collect();
        assert_eq!(names, ["coverage", "detect", "model"]);
    }
}
