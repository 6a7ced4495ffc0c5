//! Golden-reference oracle, ground-truth classification and campaign
//! orchestration for the NoCAlert reproduction.
//!
//! The paper's methodology (Section 5.2/5.3) separates three concerns that
//! this crate keeps separate too:
//!
//! 1. **Ground truth** ([`oracle`]) — run the identical workload fault-free
//!    once, log every ejection in a Golden Reference, and diff each
//!    under-fault run against it. A fault is *malicious* iff the diff
//!    shows a network-correctness violation (flit drop, unbounded
//!    delivery, new/duplicated flits, corruption/mixing, reordering);
//!    anything else — including arbitrarily delayed delivery — is benign.
//! 2. **Detection** — NoCAlert (`nocalert` crate) and ForEVeR
//!    (`nocalert-forever` crate) observe each run independently and know
//!    nothing about the ground truth.
//! 3. **Accounting** ([`campaign`], [`stats`]) — combine 1 and 2 into
//!    true/false positives/negatives, detection-latency CDFs and
//!    per-checker statistics: Figures 6–9 of the paper.
//!
//! # Example
//!
//! ```no_run
//! use nocalert_golden::{Campaign, CampaignConfig, Detector};
//! use noc_types::NocConfig;
//!
//! let cc = CampaignConfig::paper_defaults(NocConfig::paper_baseline(), 0);
//! let campaign = Campaign::new(cc);
//! let sites = fault::sample::stride(&fault::enumerate_sites(&campaign.config().noc), 100);
//! let results = campaign.run_many(&sites, 4);
//! let fig6 = nocalert_golden::stats::breakdown(&results, Detector::NoCAlert);
//! assert_eq!(fig6.fn_, 0.0, "Observation 1: no false negatives");
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod aging;
pub mod attack;
pub mod campaign;
mod closed_loop;
pub mod job;
pub mod oracle;
pub mod recovery;
pub mod stats;

pub use aging::{
    verdict_of, AgingError, AgingHarness, AgingOptions, AgingOutcome, AgingReport, EpochFault,
    EpochReport,
};
pub use attack::{
    classify as classify_attack, covered_fault_for, effective_interference, standard_cells,
    AttackCampaign, AttackCampaignConfig, AttackCell, AttackCellReport, AttackClass, AttackRun,
};
pub use campaign::{
    outcome, Campaign, CampaignArena, CampaignConfig, CampaignError, Detector, DetectorOutcome,
    Determinism, Journal, Outcome, ResilienceOptions, RunOutcome, RunResult, SiteReport,
    SweepReport,
};
pub use job::{digest_rows, GoldenCache, JobDriver};
pub use oracle::{classify, GoldenReference, RunLog, Verdict, ViolationKind};
pub use recovery::{
    containment_covered, standard_recovery_specs, verify_delivery, DeliveryVerdict,
    RecoveryCampaign, RecoveryCampaignConfig, RecoveryOptions, RecoveryOutcome, RecoveryRun,
    RecoverySiteReport,
};
