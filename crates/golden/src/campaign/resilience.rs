//! Panic isolation for campaign runs.
//!
//! Fault injection deliberately drives the simulator into states its
//! authors never anticipated; a panic in one rollout must not take down
//! a multi-hour sweep. Runs execute under [`catch_payload`], which wraps
//! `std::panic::catch_unwind` and stringifies the payload. While at
//! least one guarded run is in flight, a process-wide panic hook
//! suppresses the default stderr backtrace spew — thousands of expected
//! crash-quarantine events would otherwise drown real diagnostics. The
//! hook chains to the previously installed one whenever no guarded run
//! is active, so unrelated panics still report normally.

use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Once;

static INSTALL: Once = Once::new();
static QUIET: AtomicUsize = AtomicUsize::new(0);

fn install_hook() {
    INSTALL.call_once(|| {
        let prev = panic::take_hook();
        panic::set_hook(Box::new(move |info| {
            if QUIET.load(Ordering::SeqCst) == 0 {
                prev(info);
            }
        }));
    });
}

/// RAII guard: while alive, caught panics are not echoed to stderr.
struct QuietGuard;

impl QuietGuard {
    fn new() -> QuietGuard {
        install_hook();
        QUIET.fetch_add(1, Ordering::SeqCst);
        QuietGuard
    }
}

impl Drop for QuietGuard {
    fn drop(&mut self) {
        QUIET.fetch_sub(1, Ordering::SeqCst);
    }
}

/// Renders a panic payload as a string (the two payload types `panic!`
/// produces, with a fallback for exotic ones) — for quarantined runs and
/// for worker-thread join errors that escaped the per-run boundary.
pub(crate) fn panic_detail(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// Runs `f` behind the panic-isolation boundary: `Ok(value)` on normal
/// return, `Err(payload)` when `f` panicked. The panic is quarantined —
/// nothing is printed and the unwinding stops here.
pub fn catch_payload<T>(f: impl FnOnce() -> T) -> Result<T, String> {
    let _quiet = QuietGuard::new();
    panic::catch_unwind(AssertUnwindSafe(f)).map_err(panic_detail)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn normal_return_passes_through() {
        assert_eq!(catch_payload(|| 41 + 1), Ok(42));
    }

    #[test]
    fn panic_is_caught_with_payload() {
        let r = catch_payload(|| -> u32 { panic!("boom {}", 7) });
        assert_eq!(r, Err("boom 7".to_string()));
    }

    #[test]
    fn division_by_zero_is_caught() {
        let r = catch_payload(|| {
            let d = std::hint::black_box(0u64);
            1u64 / d
        });
        let msg = r.unwrap_err();
        assert!(msg.contains("divide by zero"), "{msg}");
    }

    #[test]
    fn guard_nesting_is_balanced() {
        let before = QUIET.load(Ordering::SeqCst);
        let _ = catch_payload(|| {
            let _ = catch_payload(|| panic!("inner"));
            panic!("outer")
        });
        assert_eq!(QUIET.load(Ordering::SeqCst), before);
    }
}
