//! The checkpointed sweep driver behind every campaign kind: transient
//! fault sites ([`super::Campaign::run_many_resilient`]), recovery
//! rollouts ([`crate::RecoveryCampaign::run_specs`]) and attack cells
//! ([`crate::AttackCampaign::run_cells`]).
//!
//! One algorithm, whatever the unit:
//!
//! * **journal** ([`Journal`]) — with a checkpoint directory, every
//!   completed row is appended and flushed to its worker's shard; a
//!   populated directory is refused unless resuming, and a resumed sweep
//!   skips units whose rows the journal already holds;
//! * **round-robin sharding** — worker `w` takes units `w`,
//!   `w+workers`, …, so a straggler slows one lane instead of a whole
//!   contiguous chunk, and the shard a row lands in is a pure function of
//!   its input index and the worker count;
//! * **cancellation** — a shared flag makes workers stop between units;
//!   the partial report says so via [`SweepReport::interrupted`];
//! * **progress** — an optional sink hears of each unit once its row is
//!   durable (restored units in one report up front);
//! * **reassembly** — rows come back in input order, so the report is
//!   bit-identical for any worker count and any resume history.

use super::error::CampaignError;
use super::jsonl::{Appender, Journal};
use super::resilience::panic_detail;
use serde::{Deserialize, Serialize};
use std::collections::HashMap;
use std::hash::Hash;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::Sender;
use std::sync::Arc;

/// Durability, cancellation and progress policy of a sweep.
#[derive(Debug, Clone, Default)]
pub struct ResilienceOptions {
    /// Directory for the JSONL journal; `None` runs memory-only.
    pub checkpoint_dir: Option<PathBuf>,
    /// Skip units already present in the journal. Without `resume`, a
    /// journal directory that already holds rows is refused.
    pub resume: bool,
    /// Cooperative cancellation: set to `true` (e.g. from a signal
    /// handler or another thread) and workers finish their current unit,
    /// flush, and exit. The report's `interrupted` flag is set.
    pub cancel: Option<Arc<AtomicBool>>,
    /// Progress observer: receives the number of units that just became
    /// done — the restored count once before any unit runs (when
    /// nonzero), then `1` per unit after its row is appended and flushed.
    /// No row, report or journal depends on it.
    pub progress: Option<Sender<usize>>,
}

impl ResilienceOptions {
    pub(crate) fn cancelled(&self) -> bool {
        self.cancel
            .as_ref()
            .is_some_and(|c| c.load(Ordering::SeqCst))
    }

    /// Tells the progress observer, if any, that `units` more are done.
    /// A hung-up observer is not the sweep's concern.
    fn report(&self, units: usize) {
        if let Some(tx) = &self.progress {
            let _ = tx.send(units);
        }
    }
}

/// The product of a sweep: one row per input unit, in input order, plus
/// bookkeeping about how the sweep went.
#[derive(Debug, Clone, PartialEq)]
pub struct SweepReport<R> {
    /// Rows in input order. When `interrupted`, units cancelled before
    /// they ran are absent.
    pub reports: Vec<R>,
    /// Units restored from the journal instead of re-run.
    pub resumed: usize,
    /// Torn trailing journal lines skipped while resuming (mid-shard
    /// corruption is a [`CampaignError::ShardCorrupt`], never skipped).
    pub corrupt_lines: usize,
    /// True when cancellation stopped the sweep before every unit ran.
    pub interrupted: bool,
}

/// Runs `run` over every unit not already journalled, `threads`-wide
/// (`0`/`1` ⇒ on the calling thread). `config` pins the journal, `key`
/// maps a row back to its unit, and `new_state` builds each worker's
/// reusable scratch state once.
///
/// # Errors
///
/// Journal I/O, refusal and corruption failures, the first error `run`
/// returns, and [`CampaignError::WorkerLost`] when a worker panics
/// outside `run`'s own isolation boundary.
pub(crate) fn sweep<C, K, R, S>(
    config: &C,
    units: &[K],
    threads: usize,
    opts: &ResilienceOptions,
    key: impl Fn(&R) -> K,
    new_state: impl Fn() -> S + Sync,
    run: impl Fn(&mut S, K) -> Result<R, CampaignError> + Sync,
) -> Result<SweepReport<R>, CampaignError>
where
    C: Serialize + Deserialize + PartialEq,
    K: Copy + Eq + Hash + Sync,
    R: Clone + Send + Serialize + Deserialize,
{
    let journal = match &opts.checkpoint_dir {
        Some(dir) => Some(Journal::<C, R>::open(dir, config)?),
        None => None,
    };
    let mut done: HashMap<K, R> = HashMap::new();
    let mut corrupt_lines = 0usize;
    if let Some(j) = &journal {
        let (rows, torn) = j.load(opts.resume)?;
        corrupt_lines = torn;
        for r in rows {
            done.insert(key(&r), r); // later shards win on duplicates
        }
    }
    let resumed = units.iter().filter(|u| done.contains_key(u)).count();
    let todo: Vec<K> = units
        .iter()
        .copied()
        .filter(|u| !done.contains_key(u))
        .collect();
    if resumed > 0 {
        opts.report(resumed);
    }

    let workers = if threads <= 1 || todo.len() < 2 {
        1
    } else {
        threads.min(todo.len())
    };
    let open = |w: usize| match &journal {
        Some(j) => j.writer(w).map(Some),
        None => Ok(None),
    };
    let todo = &todo;
    let work = |w: usize, mut state: S, mut writer: Option<Appender>| {
        let mut out = Vec::new();
        for &unit in todo.iter().skip(w).step_by(workers) {
            if opts.cancelled() {
                break;
            }
            let row = run(&mut state, unit)?;
            if let Some(wr) = &mut writer {
                wr.append(&row)?;
            }
            opts.report(1);
            out.push(row);
        }
        Ok::<_, CampaignError>(out)
    };

    let mut fresh: Vec<R> = Vec::new();
    if workers == 1 {
        // State first, so the shard file appears only when the first
        // unit is about to run.
        let state = new_state();
        fresh = work(0, state, open(0)?)?;
    } else {
        // Open every shard writer before spawning so I/O errors surface
        // before any work.
        let writers = (0..workers).map(open).collect::<Result<Vec<_>, _>>()?;
        let (work, new_state) = (&work, &new_state);
        let joined: Vec<_> = std::thread::scope(|scope| {
            let handles: Vec<_> = writers
                .into_iter()
                .enumerate()
                .map(|(w, writer)| scope.spawn(move || work(w, new_state(), writer)))
                .collect();
            handles.into_iter().map(|h| h.join()).collect()
        });
        for r in joined {
            match r {
                Ok(rows) => fresh.extend(rows?),
                Err(p) => {
                    return Err(CampaignError::WorkerLost {
                        detail: panic_detail(p),
                    })
                }
            }
        }
    }

    for r in fresh {
        done.insert(key(&r), r);
    }
    let mut reports = Vec::with_capacity(units.len());
    let mut interrupted = false;
    for unit in units {
        match done.get(unit) {
            Some(r) => reports.push(r.clone()),
            None => interrupted = true,
        }
    }
    Ok(SweepReport {
        reports,
        resumed,
        corrupt_lines,
        interrupted,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_panic_outside_the_run_boundary_is_a_lost_worker_with_its_message() {
        let err = sweep(
            &0u32,
            &[1u32, 2],
            2,
            &ResilienceOptions::default(),
            |r: &u32| *r,
            || (),
            |_, u| -> Result<u32, CampaignError> {
                if u == 2 {
                    panic!("harness bug at unit {u}");
                }
                Ok(u)
            },
        )
        .unwrap_err();
        match err {
            CampaignError::WorkerLost { detail } => {
                assert!(detail.contains("harness bug at unit 2"), "{detail}")
            }
            other => panic!("expected WorkerLost, got {other:?}"),
        }
    }
}
