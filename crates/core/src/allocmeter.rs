//! Allocation-counting probe for the zero-allocation contract of the
//! labeling waves (DESIGN.md §4.6).
//!
//! The workspace is std-only, so there is no always-on counting allocator;
//! instead, a test or bench binary that *does* install a counting
//! [`std::alloc::GlobalAlloc`] registers its counter here, and the labeling
//! pass samples it around every wave, publishing the per-wave deltas as
//! [`crate::Labels::wave_allocs`]. When no probe is installed the pass
//! records nothing and pays two relaxed atomic loads per wave.

use std::sync::atomic::{AtomicPtr, AtomicUsize, Ordering};

static PROBE: AtomicPtr<AtomicUsize> = AtomicPtr::new(std::ptr::null_mut());

/// Registers `counter` as the process-wide allocation counter. The caller's
/// global allocator is expected to increment it on every `alloc`/`realloc`.
pub fn install(counter: &'static AtomicUsize) {
    PROBE.store(
        counter as *const AtomicUsize as *mut AtomicUsize,
        Ordering::Release,
    );
}

/// Removes the probe; subsequent passes record no per-wave deltas.
pub fn uninstall() {
    PROBE.store(std::ptr::null_mut(), Ordering::Release);
}

/// Whether a probe is currently installed.
pub fn installed() -> bool {
    !PROBE.load(Ordering::Acquire).is_null()
}

/// Current reading of the installed counter, if any.
pub fn reading() -> Option<usize> {
    let p = PROBE.load(Ordering::Acquire);
    if p.is_null() {
        None
    } else {
        // Installed pointers come from `&'static AtomicUsize`, so the
        // dereference is always valid.
        Some(unsafe { (*p).load(Ordering::Relaxed) })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    static COUNTER: AtomicUsize = AtomicUsize::new(0);

    #[test]
    fn probe_round_trips() {
        assert!(reading().is_none() || installed());
        install(&COUNTER);
        assert!(installed());
        COUNTER.store(7, Ordering::Relaxed);
        assert_eq!(reading(), Some(7));
        uninstall();
        assert!(!installed());
        assert_eq!(reading(), None);
    }
}
