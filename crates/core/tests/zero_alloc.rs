//! The zero-allocation contract of the flat labeling kernel: once the
//! per-mapping arenas are sized (scratch, selection pools, incumbent
//! buffers), steady-state waves perform no heap allocation at all.
//!
//! Verified with a counting global allocator registered through
//! `dagmap_core::allocmeter`; the labeler meters each wave by reading the
//! counter at the wave boundaries. This file holds exactly one test so the
//! process-global allocator hook cannot race another test's allocations —
//! the harness may still run library init on other threads, which is why
//! the meter is read *inside* the labeler rather than asserted around it.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

use dagmap_core::{label, Objective, StructuralSource};
use dagmap_genlib::Library;
use dagmap_match::{MatchConfig, MatchMode, MemoPolicy, SharedMatchStore};
use dagmap_netlist::SubjectGraph;

static ALLOCS: AtomicUsize = AtomicUsize::new(0);

/// Counts every allocation-path call (alloc, realloc, alloc_zeroed) and
/// delegates to the system allocator. Frees are not counted: the contract
/// is about acquiring memory mid-wave.
struct Counting;

unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.alloc_zeroed(layout)
    }
}

#[global_allocator]
static COUNTING: Counting = Counting;

#[test]
fn steady_state_waves_allocate_nothing() {
    dagmap_core::allocmeter::install(&ALLOCS);

    let circuits = [
        ("alu8", dagmap_benchgen::alu(8)),
        ("mult8", dagmap_benchgen::array_multiplier(8)),
    ];
    let libraries = [
        Library::minimal(),
        Library::lib2_like(),
        Library::lib_44_1_like(),
        Library::lib_44_3_like(),
    ];
    for (name, net) in &circuits {
        let subject = SubjectGraph::from_network(net).expect("decomposes");
        for lib in &libraries {
            for mode in [MatchMode::Standard, MatchMode::Exact, MatchMode::Extended] {
                let config = MatchConfig {
                    index: true,
                    memo: MemoPolicy::Off,
                    strash_ids: false,
                };
                let source = StructuralSource::new(lib, mode, config, None);
                let labels = label(&subject, &source, Objective::Delay).expect("labels");
                assert_eq!(
                    labels.wave_allocs.len(),
                    subject.flat().num_levels(),
                    "{name}/{}/{mode:?}: every wave is metered",
                    lib.name()
                );
                let total: usize = labels.wave_allocs.iter().sum();
                assert_eq!(
                    total,
                    0,
                    "{name}/{}/{mode:?}: waves allocated {:?}",
                    lib.name(),
                    labels.wave_allocs
                );
            }
        }
    }

    // The strashed warm steady state: once a shared store has seen a
    // subject, a repeat labeling resolves every gate through the strash-id
    // fast path — a hash probe plus replay through pre-sized buffers — so
    // warm waves allocate nothing either. (The cold run is exempt: it
    // grows the store.)
    let warm_config = MatchConfig {
        index: true,
        memo: MemoPolicy::On,
        strash_ids: true,
    };
    for (name, net) in &circuits {
        let subject = SubjectGraph::from_network(net).expect("decomposes");
        let lib = Library::lib_44_3_like();
        let shared = SharedMatchStore::for_library(&lib, 16, 1 << 14);
        let source = StructuralSource::new(&lib, MatchMode::Standard, warm_config, Some(&shared));
        let cold = label(&subject, &source, Objective::Delay).expect("cold labels");
        let warm = label(&subject, &source, Objective::Delay).expect("warm labels");
        assert_eq!(warm.arrival, cold.arrival, "{name}: warm run is bit-identical");
        assert_eq!(warm.best, cold.best, "{name}: warm run is bit-identical");
        assert!(
            warm.stats.memo_id_hits > 0,
            "{name}: warm run resolves through strash ids"
        );
        let total: usize = warm.wave_allocs.iter().sum();
        assert_eq!(
            total, 0,
            "{name}: warm strashed waves allocated {:?}",
            warm.wave_allocs
        );
    }

    dagmap_core::allocmeter::uninstall();
}
