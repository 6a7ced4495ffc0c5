//! Acceptance criteria of the static-verification subsystem, as
//! integration tests:
//!
//! * the canonical configuration (8×8 mesh, 2 VCs) has **zero blind
//!   spots** — every live wire bit is constrained by an enabled checker;
//! * deleting any one checker's declared sets makes the coverage pass
//!   fail — the static mirror of the paper's ablation experiment (E12):
//!   no checker's metadata is dispensable;
//! * the exhaustive prover holds on the canonical configuration and on
//!   the Section-4.4 variations (non-atomic buffers, speculative
//!   pipeline, adaptive routing).

use noc_types::config::{BufferPolicy, NocConfig, RoutingAlgorithm};
use nocalert::CheckerId;
use nocalert_analysis::{analyze, canonical_config, prove_all, CheckerModel};

#[test]
fn canonical_8x8_2vc_has_zero_blind_spots() {
    let cfg = canonical_config();
    let a = analyze(&cfg, &CheckerModel::from_table1());
    assert!(a.clean(), "{:#?}", a.diagnostics);
    assert_eq!(a.stats.uncovered_sites, 0);
    assert_eq!(a.stats.covered_sites, a.stats.total_sites);
    assert!(a.stats.total_sites > 10_000, "{}", a.stats.total_sites);
    assert!(a.stats.min_constrainers_per_site >= 1);
}

#[test]
fn deleting_any_one_checker_fails_the_coverage_pass() {
    let cfg = canonical_config();
    for id in CheckerId::all() {
        let mut m = CheckerModel::from_table1();
        m.delete(id);
        let a = analyze(&cfg, &m);
        assert!(
            !a.clean(),
            "coverage pass still clean after deleting checker {id} — \
             its metadata would be dispensable"
        );
    }
}

#[test]
fn sole_constrainer_deletions_open_real_blind_spots() {
    // For checkers that are the only constrainer of some signal, deletion
    // must surface actual uncovered sites (NL110), not just the
    // metadata-completeness error.
    let cfg = canonical_config();
    let baseline = analyze(&cfg, &CheckerModel::from_table1());
    assert!(!baseline.stats.sole_constrainer_signals.is_empty());
    let mut checked = 0;
    for id in CheckerId::all() {
        let mut m = CheckerModel::from_table1();
        m.delete(id);
        let a = analyze(&cfg, &m);
        if a.stats.uncovered_sites > 0 {
            assert!(a.diagnostics.iter().any(|d| d.code == "NL110"));
            checked += 1;
        }
    }
    assert!(checked >= baseline.stats.sole_constrainer_signals.len().min(5));
}

#[test]
fn prover_holds_on_canonical_and_section_4_4_variations() {
    let mut variations = vec![canonical_config(), NocConfig::paper_baseline()];
    let mut nonatomic = canonical_config();
    nonatomic.buffer_policy = BufferPolicy::NonAtomic;
    variations.push(nonatomic);
    let mut speculative = canonical_config();
    speculative.speculative = true;
    variations.push(speculative);
    let mut adaptive = canonical_config();
    adaptive.routing = RoutingAlgorithm::WestFirst;
    variations.push(adaptive);
    let mut vcs8 = NocConfig::paper_baseline();
    vcs8.vcs_per_port = 8;
    variations.push(vcs8);

    for cfg in &variations {
        assert!(cfg.validate().is_ok());
        let (diags, proofs) = prove_all(cfg, 1);
        assert!(diags.is_empty(), "{cfg:?}: {diags:#?}");
        assert_eq!(proofs.len(), 5);
        for p in &proofs {
            assert_eq!(p.violations, 0, "{cfg:?}: {p:?}");
        }
        let a = analyze(cfg, &CheckerModel::from_table1());
        assert!(a.clean(), "{cfg:?}: {:#?}", a.diagnostics);
    }
}
