//! Match-acceleration micro-benchmark: naive full-scan matching vs the
//! fingerprint index vs index + cone-class memoization.
//!
//! Times `dagmap_core::label` under the three
//! configurations over the benchgen ISCAS-like suite crossed with the
//! builtin libraries (plus a depth-2 supergate extension of 44-1), asserts
//! the labels — and, on the smallest circuit, the mapped BLIF — are
//! bit-identical across configurations, and writes the numbers to
//! `BENCH_match.json` (hand-rolled JSON — the workspace is dependency-free).
//!
//! Usage: `matchperf [--quick] [--out PATH]`
//!
//! `--quick` shrinks the circuit set and repetition count (the tier-1 smoke
//! run).

use std::fmt::Write as _;
use std::time::Instant;

use dagmap_core::{label, Labels, MapOptions, Mapper, MatchMode, Objective, StructuralSource};
use dagmap_genlib::Library;
use dagmap_match::{MatchConfig, MemoPolicy};
use dagmap_netlist::SubjectGraph;
use dagmap_supergate::{extend_library, SupergateOptions};

const BASELINE: MatchConfig = MatchConfig {
    index: false,
    memo: MemoPolicy::Off,
    strash_ids: false,
};
const INDEXED: MatchConfig = MatchConfig {
    index: true,
    memo: MemoPolicy::Off,
    strash_ids: false,
};
// Forced On (not Auto): the point of the memoized column is to measure the
// memo itself, even on libraries where the auto policy would decline it.
const MEMOIZED: MatchConfig = MatchConfig {
    index: true,
    memo: MemoPolicy::On,
    strash_ids: true,
};
// The shipping default: the memo is cost-gated per library, so cheap
// pattern sets run index-only and big ones memoize.
const AUTO: MatchConfig = MatchConfig {
    index: true,
    memo: MemoPolicy::Auto,
    strash_ids: true,
};

struct Row {
    circuit: String,
    library: String,
    subject_nodes: usize,
    matches_enumerated: usize,
    pruned_baseline: usize,
    pruned_indexed: usize,
    memo_hit_rate: f64,
    baseline_s: f64,
    indexed_s: f64,
    memoized_s: f64,
    auto_s: f64,
    identical: bool,
}

fn best_of(reps: usize, mut f: impl FnMut() -> f64) -> f64 {
    (0..reps).map(|_| f()).fold(f64::INFINITY, f64::min)
}

fn label_config(subject: &SubjectGraph, lib: &Library, config: MatchConfig) -> Labels {
    let source = StructuralSource::new(lib, MatchMode::Standard, config, None);
    label(subject, &source, Objective::Delay).expect("labels")
}

fn time_config(subject: &SubjectGraph, lib: &Library, config: MatchConfig, reps: usize) -> f64 {
    best_of(reps, || {
        let t = Instant::now();
        let labels = label_config(subject, lib, config);
        std::hint::black_box(labels.stats.enumerated);
        t.elapsed().as_secs_f64()
    })
}

fn geomean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 1.0;
    }
    (xs.iter().map(|x| x.ln()).sum::<f64>() / xs.len() as f64).exp()
}

fn main() {
    let mut quick = false;
    let mut out = String::from("BENCH_match.json");
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--quick" => quick = true,
            "--out" => out = args.next().expect("--out needs a path"),
            other => panic!("unknown argument `{other}`"),
        }
    }
    let reps = if quick { 1 } else { 3 };

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

    let mut libraries: Vec<Library> = vec![Library::lib2_like(), Library::lib_44_1_like()];
    if !quick {
        libraries.push(Library::lib_44_3_like());
        let ext = extend_library(
            &Library::lib_44_1_like(),
            &SupergateOptions {
                max_depth: 2,
                num_threads: Some(1),
                ..SupergateOptions::default()
            },
        )
        .expect("supergate extension");
        libraries.push(ext.library);
    }

    println!(
        "matchperf: {} circuits x {} libraries, serial labeling, {} reps",
        circuits.len(),
        libraries.len(),
        reps
    );

    let mut rows: Vec<Row> = Vec::new();
    for (name, net) in &circuits {
        let subject = SubjectGraph::from_network(net).expect("benchgen circuits decompose");
        for lib in &libraries {
            let run = |config| label_config(&subject, lib, config);
            let base = run(BASELINE);
            let idx = run(INDEXED);
            let memo = run(MEMOIZED);
            let auto = run(AUTO);
            let identical = base.arrival == idx.arrival
                && base.arrival == memo.arrival
                && base.arrival == auto.arrival
                && base.best == idx.best
                && base.best == memo.best
                && base.best == auto.best
                && base.stats.enumerated == idx.stats.enumerated
                && base.stats.enumerated == memo.stats.enumerated
                && base.stats.enumerated == auto.stats.enumerated;
            assert!(
                identical,
                "{name}/{}: accelerated labels diverged",
                lib.name()
            );
            let baseline_s = time_config(&subject, lib, BASELINE, reps);
            let indexed_s = time_config(&subject, lib, INDEXED, reps);
            let memoized_s = time_config(&subject, lib, MEMOIZED, reps);
            let auto_s = time_config(&subject, lib, AUTO, reps);
            let memo_hit_rate = if memo.stats.memo_lookups > 0 {
                memo.stats.memo_hits as f64 / memo.stats.memo_lookups as f64
            } else {
                0.0
            };
            println!(
                "  {name:12} {:12} {:>6} nodes: baseline {:>8.2} ms, indexed {:>8.2} ms ({:.2}x), \
                 memoized {:>8.2} ms ({:.2}x, {:.0}% hits), auto {:>8.2} ms ({:.2}x, memo {})",
                lib.name(),
                subject.network().num_nodes(),
                baseline_s * 1e3,
                indexed_s * 1e3,
                baseline_s / indexed_s,
                memoized_s * 1e3,
                baseline_s / memoized_s,
                100.0 * memo_hit_rate,
                auto_s * 1e3,
                baseline_s / auto_s,
                if auto.stats.memo_lookups > 0 { "on" } else { "off" },
            );
            rows.push(Row {
                circuit: name.clone(),
                library: lib.name().to_owned(),
                subject_nodes: subject.network().num_nodes(),
                matches_enumerated: base.stats.enumerated,
                pruned_baseline: base.stats.pruned,
                pruned_indexed: idx.stats.pruned,
                memo_hit_rate,
                baseline_s,
                indexed_s,
                memoized_s,
                auto_s,
                identical,
            });
        }
    }

    // Mapped-netlist byte identity on the smallest circuit of the suite,
    // against every library in the run.
    let (small_name, small_net) = &circuits[0];
    let small = SubjectGraph::from_network(small_net).expect("subject");
    for lib in &libraries {
        let mapper = Mapper::new(lib);
        let on = mapper.map(&small, MapOptions::dag()).expect("map");
        let off = mapper
            .map(&small, MapOptions::dag().with_match_acceleration(false))
            .expect("map");
        let blif_on =
            dagmap_netlist::blif::to_string(&on.to_network().expect("lower")).expect("blif");
        let blif_off =
            dagmap_netlist::blif::to_string(&off.to_network().expect("lower")).expect("blif");
        assert_eq!(
            blif_on,
            blif_off,
            "{small_name}/{}: mapped BLIF diverged",
            lib.name()
        );
    }
    println!("mapped BLIF byte-identical on {small_name} across all libraries");

    let speedups_443: Vec<f64> = rows
        .iter()
        .filter(|r| r.library == "44_3_like")
        .map(|r| r.baseline_s / r.memoized_s)
        .collect();
    let geo_443 = geomean(&speedups_443);
    let geo_all = geomean(
        &rows
            .iter()
            .map(|r| r.baseline_s / r.memoized_s)
            .collect::<Vec<_>>(),
    );
    let geo_auto = geomean(
        &rows
            .iter()
            .map(|r| r.baseline_s / r.auto_s)
            .collect::<Vec<_>>(),
    );
    println!(
        "geo-mean speedup (baseline -> indexed+memoized): {:.2}x overall{}; auto policy {:.2}x",
        geo_all,
        if speedups_443.is_empty() {
            String::new()
        } else {
            format!(", {geo_443:.2}x on 44_3_like")
        },
        geo_auto,
    );

    let mut json = String::new();
    json.push_str("{\n");
    let _ = writeln!(json, "  \"bench\": \"matchperf\",");
    let _ = writeln!(json, "  \"reps\": {reps},");
    let _ = writeln!(json, "  \"all_identical\": true,");
    let _ = writeln!(json, "  \"geomean_speedup_all\": {geo_all:.3},");
    let _ = writeln!(json, "  \"geomean_speedup_44_3_like\": {geo_443:.3},");
    let _ = writeln!(json, "  \"geomean_speedup_auto\": {geo_auto:.3},");
    json.push_str("  \"rows\": [\n");
    for (i, r) in rows.iter().enumerate() {
        let sep = if i + 1 == rows.len() { "" } else { "," };
        let _ = writeln!(
            json,
            "    {{\"circuit\": \"{}\", \"library\": \"{}\", \"subject_nodes\": {}, \
             \"matches_enumerated\": {}, \"pruned_baseline\": {}, \"pruned_indexed\": {}, \
             \"memo_hit_rate\": {:.4}, \"baseline_s\": {:.6}, \"indexed_s\": {:.6}, \
             \"memoized_s\": {:.6}, \"auto_s\": {:.6}, \"speedup_indexed\": {:.3}, \
             \"speedup_memoized\": {:.3}, \"speedup_auto\": {:.3}, \
             \"identical\": {}}}{sep}",
            r.circuit,
            r.library,
            r.subject_nodes,
            r.matches_enumerated,
            r.pruned_baseline,
            r.pruned_indexed,
            r.memo_hit_rate,
            r.baseline_s,
            r.indexed_s,
            r.memoized_s,
            r.auto_s,
            r.baseline_s / r.indexed_s,
            r.baseline_s / r.memoized_s,
            r.baseline_s / r.auto_s,
            r.identical,
        );
    }
    json.push_str("  ]\n}\n");
    std::fs::write(&out, &json).expect("write BENCH_match.json");
    println!("wrote {out}");
}
