//! Labeling micro-benchmark: serial label times plus the zero-allocation
//! contract.
//!
//! Times `dagmap_core::label` (structural source, lib2, standard matches,
//! default acceleration) over the benchgen circuits and writes the numbers
//! to `BENCH_label.json` (hand-rolled JSON — the workspace is
//! dependency-free), together with the host's `nproc`.
//!
//! Usage: `labelperf [--quick] [--out PATH]`
//!
//! `--quick` shrinks the circuit set and repetition count (the tier-1 smoke
//! run).
//!
//! The binary also runs under a counting global allocator wired into
//! `dagmap_core::allocmeter`, and asserts the flat kernel's steady-state
//! zero-allocation contract on every circuit: each `label.wave` (one
//! topological level) must meter zero heap allocations.

use std::alloc::{GlobalAlloc, Layout, System};
use std::fmt::Write as _;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Instant;

use dagmap_core::{label, Labels, MatchMode, Objective, StructuralSource};
use dagmap_genlib::Library;
use dagmap_match::MatchConfig;
use dagmap_netlist::SubjectGraph;

static ALLOCS: AtomicUsize = AtomicUsize::new(0);

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

struct CircuitResult {
    name: String,
    subject_nodes: usize,
    levels: usize,
    max_width: usize,
    matches_enumerated: usize,
    matches_pruned: usize,
    match_words: usize,
    wave_allocs: usize,
    serial_s: f64,
    serial_median_s: f64,
}

fn label_lib2(subject: &SubjectGraph, lib: &Library) -> Labels {
    let source = StructuralSource::new(lib, MatchMode::Standard, MatchConfig::default(), None);
    label(subject, &source, Objective::Delay).expect("labels")
}

/// Per-repetition label times, sorted ascending.
fn time_label(subject: &SubjectGraph, lib: &Library, reps: usize) -> Vec<f64> {
    let mut times: Vec<f64> = (0..reps)
        .map(|_| {
            let t = Instant::now();
            let labels = label_lib2(subject, lib);
            std::hint::black_box(labels.stats.enumerated);
            t.elapsed().as_secs_f64()
        })
        .collect();
    times.sort_by(f64::total_cmp);
    times
}

fn main() {
    let mut quick = false;
    let mut out = String::from("BENCH_label.json");
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--quick" => quick = true,
            "--out" => out = args.next().expect("--out needs a path"),
            other => panic!("unknown argument `{other}`"),
        }
    }
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    // Best-of-N timing: the container the benches run in is noisy and
    // shared, so the minimum over more repetitions is the better estimate
    // of the kernel's actual cost; the median is reported beside it.
    let reps = if quick { 1 } else { 7 };
    dagmap_core::allocmeter::install(&ALLOCS);

    let circuits: Vec<(String, dagmap_netlist::Network)> = if quick {
        vec![
            ("alu8".into(), dagmap_benchgen::alu(8)),
            ("mult8".into(), dagmap_benchgen::array_multiplier(8)),
        ]
    } else {
        vec![
            ("alu8".into(), dagmap_benchgen::alu(8)),
            ("c2670_like".into(), dagmap_benchgen::c2670_like()),
            ("c3540_like".into(), dagmap_benchgen::c3540_like()),
            ("mult12".into(), dagmap_benchgen::array_multiplier(12)),
            ("c6288_like".into(), dagmap_benchgen::c6288_like()),
        ]
    };
    let lib = Library::lib2_like();

    println!("labelperf: nproc {nproc}, serial labeling ({reps} reps)");
    let mut results = Vec::new();
    for (name, net) in circuits {
        let subject = SubjectGraph::from_network(&net).expect("benchgen circuits decompose");
        let levels = subject.levels();
        let (num_levels, max_width) = (levels.num_levels(), levels.max_width());
        let labels = label_lib2(&subject, &lib);
        let wave_allocs: usize = labels.wave_allocs.iter().sum();
        assert_eq!(
            wave_allocs, 0,
            "{name}: steady-state waves allocated ({:?})",
            labels.wave_allocs
        );
        let times = time_label(&subject, &lib, reps);
        let (serial_s, serial_median_s) = (times[0], times[times.len() / 2]);
        println!(
            "  {name:12} {:>6} nodes {:>4} levels (width {:>4}): best {:>8.2} ms, median {:>8.2} ms, wave_allocs={wave_allocs}",
            subject.network().num_nodes(),
            num_levels,
            max_width,
            serial_s * 1e3,
            serial_median_s * 1e3,
        );
        results.push(CircuitResult {
            name,
            subject_nodes: subject.network().num_nodes(),
            levels: num_levels,
            max_width,
            matches_enumerated: labels.stats.enumerated,
            matches_pruned: labels.stats.pruned,
            match_words: labels.stats.words,
            wave_allocs,
            serial_s,
            serial_median_s,
        });
    }

    let mut json = String::new();
    json.push_str("{\n");
    let _ = writeln!(json, "  \"bench\": \"labelperf\",");
    let _ = writeln!(json, "  \"library\": \"{}\",", lib.name());
    let _ = writeln!(json, "  \"nproc\": {nproc},");
    let _ = writeln!(json, "  \"reps\": {reps},");
    json.push_str("  \"circuits\": [\n");
    for (i, r) in results.iter().enumerate() {
        let sep = if i + 1 == results.len() { "" } else { "," };
        let _ = writeln!(
            json,
            "    {{\"name\": \"{}\", \"subject_nodes\": {}, \"levels\": {}, \"max_width\": {}, \
             \"matches_enumerated\": {}, \"matches_pruned\": {}, \
             \"match_words\": {}, \"wave_allocs\": {}, \
             \"serial_s\": {:.6}, \"serial_median_s\": {:.6}, \
             \"matches_per_sec_serial\": {:.0}}}{sep}",
            r.name,
            r.subject_nodes,
            r.levels,
            r.max_width,
            r.matches_enumerated,
            r.matches_pruned,
            r.match_words,
            r.wave_allocs,
            r.serial_s,
            r.serial_median_s,
            r.matches_enumerated as f64 / r.serial_s,
        );
    }
    json.push_str("  ]\n}\n");
    std::fs::write(&out, &json).expect("write BENCH_label.json");
    println!("wrote {out}");
}
