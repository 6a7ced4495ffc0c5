//! Hostile-input tests: seeded byte mutations of the two inputs the
//! system reads from outside — a job spec submitted to `nocalertd` and a
//! journal shard read back on resume — must each come back as `Ok` or a
//! structured error, never a panic.
//!
//! The mutator is a fixed-seed splitmix64 stream driving five edits (bit
//! flip, insert, delete, duplicate, truncate), so every run checks the
//! same cases and a failure names a reproducible case number.

use fault::{FaultSpec, Watchdog};
use golden::{Campaign, CampaignConfig, Journal, ResilienceOptions, SiteReport};
use noc_types::site::FaultKind;
use noc_types::{JobSpec, NocConfig};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};

/// Mutated cases per target.
const CASES: usize = 5_000;

/// The canonical 4×4 transient job spec of `ci.sh`'s service smoke.
const CI_SPEC: &str = r#"{"kind":"Transient","noc":{"mesh":{"width":4,"height":4},"vcs_per_port":2,"buffer_depth":5,"link_width_bits":128,"message_classes":1,"packet_lengths":[5],"buffer_policy":"Atomic","routing":"XY","speculative":false,"traffic":"UniformRandom","injection_rate":0.05,"hotspot_fraction":0.2,"ejection_rate":1,"seed":201986535},"warmup":200,"window":1200,"limit":1,"threads":1}"#;

/// Bytes that mean something to a JSON parser, favoured by inserts.
const JSON_BYTES: &[u8] = b"{}[]\":,-+.0123456789eE \n\\tfnu";

/// A deterministic byte mutator.
struct Mutator {
    state: u64,
    /// Keep every byte ASCII, so the result stays UTF-8 and reaches the
    /// parser instead of stopping at the text decode.
    ascii: bool,
}

impl Mutator {
    fn new(seed: u64, ascii: bool) -> Mutator {
        Mutator { state: seed, ascii }
    }

    /// splitmix64.
    fn next(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }

    fn byte(&mut self) -> u8 {
        if self.below(2) == 0 {
            JSON_BYTES[self.below(JSON_BYTES.len())]
        } else if self.ascii {
            self.below(0x80) as u8
        } else {
            self.below(0x100) as u8
        }
    }

    /// `seed` after one to four random edits.
    fn mutate(&mut self, seed: &[u8]) -> Vec<u8> {
        let mut b = seed.to_vec();
        for _ in 0..=self.below(4) {
            self.edit(&mut b);
        }
        b
    }

    fn edit(&mut self, b: &mut Vec<u8>) {
        let len = b.len();
        match self.below(5) {
            // Bit flip.
            0 if len > 0 => {
                let bits = if self.ascii { 7 } else { 8 };
                let i = self.below(len);
                b[i] ^= 1 << self.below(bits);
            }
            // Insert a run of bytes, or of digits (number overflow).
            1 => {
                let at = self.below(len + 1);
                let run: Vec<u8> = if self.below(3) == 0 {
                    (0..=self.below(24))
                        .map(|_| b'0' + self.below(10) as u8)
                        .collect()
                } else {
                    (0..=self.below(8)).map(|_| self.byte()).collect()
                };
                b.splice(at..at, run);
            }
            // Delete a range.
            2 if len > 0 => {
                let at = self.below(len);
                let end = (at + 1 + self.below(16)).min(len);
                b.drain(at..end);
            }
            // Duplicate a range, right behind itself or anywhere.
            3 if len > 0 => {
                let at = self.below(len);
                let end = (at + 1 + self.below(64)).min(len);
                let copy = b[at..end].to_vec();
                let to = if self.below(2) == 0 {
                    end
                } else {
                    self.below(len + 1)
                };
                b.splice(to..to, copy);
            }
            // Truncate.
            _ => b.truncate(self.below(len + 1)),
        }
    }
}

/// Runs `parse` on `input`, failing the test with the case number and
/// input if it panics. Returns whether it accepted the input.
fn no_panic(case: usize, input: &[u8], parse: impl FnOnce() -> bool) -> bool {
    match catch_unwind(AssertUnwindSafe(parse)) {
        Ok(accepted) => accepted,
        Err(_) => panic!(
            "case {case} panicked on input {:?}",
            String::from_utf8_lossy(input)
        ),
    }
}

/// The service's path for a submitted body: decode, parse, validate.
fn accept_job(body: &[u8]) -> bool {
    let Ok(text) = std::str::from_utf8(body) else {
        return false;
    };
    serde_json::from_str::<JobSpec>(text).is_ok_and(|spec| spec.validate().is_ok())
}

#[test]
fn mutated_job_specs_are_accepted_or_rejected_never_panic() {
    assert!(
        accept_job(CI_SPEC.as_bytes()),
        "the seed spec must be valid"
    );
    let mut m = Mutator::new(0x5EED_0001, true);
    let mut accepted = 0;
    for case in 0..CASES {
        let body = m.mutate(CI_SPEC.as_bytes());
        accepted += usize::from(no_panic(case, &body, || accept_job(&body)));
    }
    // Both outcomes occur, so the sample reaches past the first byte.
    assert!(0 < accepted && accepted < CASES, "{accepted} of {CASES}");
}

fn scratch_dir(tag: &str) -> PathBuf {
    let d = std::env::temp_dir().join(format!("nocalert-hostile-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&d);
    d
}

/// The shard rows of a real sweep: completed, crashed and (under a tight
/// cycle budget) deadlocked runs.
fn valid_shard(cc: &CampaignConfig, dir: &Path) -> Vec<u8> {
    let c = Campaign::new(cc.clone());
    let inj = c.injection_cycle();
    let site = fault::enumerate_sites(&cc.noc)[7];
    let specs = [
        FaultSpec::transient(site, inj),
        FaultSpec::permanent(site, inj),
        FaultSpec {
            site,
            kind: FaultKind::Intermittent { period: 0, duty: 1 },
            start: inj,
        },
    ];
    let tight = Watchdog {
        cycle_budget: 50,
        stall_window: u64::MAX,
    };
    let mut shard = Vec::new();
    for (phase, dog) in [("healthy", Watchdog::default_policy()), ("tight", tight)] {
        let opts = ResilienceOptions {
            checkpoint_dir: Some(dir.join(phase)),
            ..ResilienceOptions::default()
        };
        c.run_many_resilient(&specs, 1, dog, &opts)
            .expect("a fresh journal directory");
        shard.extend(std::fs::read(dir.join(phase).join("shard-w0.jsonl")).expect("shard"));
    }
    shard
}

#[test]
fn mutated_journal_shards_load_or_fail_structured_never_panic() {
    let mut noc = NocConfig::small_test();
    noc.injection_rate = 0.08;
    let cc = CampaignConfig {
        noc,
        warmup: 300,
        active_window: 400,
        drain_deadline: 10_000,
        forever_epoch: 300,
    };
    let dir = scratch_dir("journal");
    let seed = valid_shard(&cc, &dir.join("seed"));
    let target = dir.join("target");
    let journal = Journal::<CampaignConfig, SiteReport>::open(&target, &cc).expect("journal");
    let shard = target.join("shard-w0.jsonl");
    std::fs::write(&shard, &seed).unwrap();
    let (rows, torn) = journal.load(true).expect("the seed shard must load");
    assert_eq!((rows.len(), torn), (6, 0));

    let mut m = Mutator::new(0x5EED_0002, false);
    let mut loaded = 0;
    for case in 0..CASES {
        let bytes = m.mutate(&seed);
        std::fs::write(&shard, &bytes).unwrap();
        loaded += usize::from(no_panic(case, &bytes, || journal.load(true).is_ok()));
    }
    assert!(0 < loaded && loaded < CASES, "{loaded} of {CASES}");
    std::fs::remove_dir_all(&dir).unwrap();
}
