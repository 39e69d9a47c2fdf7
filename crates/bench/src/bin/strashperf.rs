//! Strashing benchmark: cold full mapping vs warm shared-store mapping
//! (strash-id memo hits) vs incremental re-mapping after a local edit.
//!
//! Three timed columns per circuit against the 44-cell 3-load library:
//!
//! * **cold** — a full `map_with_report` on a fresh mapper state;
//! * **warm** — the same mapping through a pre-warmed [`SharedMatchStore`],
//!   where every gate's match class resolves through the strash-id fast
//!   path (no cone extraction);
//! * **incremental** — `map_incremental` of a locally edited copy against
//!   the retained labels of the cold run, relabeling only the dirty
//!   region.
//!
//! Asserts the warm and incremental mapped BLIFs are byte-identical to the
//! cold ones, requires the incremental re-map to be at least 5x faster
//! than a cold full mapping of the edited circuit on at least one
//! circuit, and writes `BENCH_strash.json`.
//!
//! Usage: `strashperf [--quick] [--out PATH]`

use std::fmt::Write as _;
use std::time::Instant;

use dagmap_core::{MapOptions, Mapper, SharedMatchStore};
use dagmap_genlib::Library;
use dagmap_netlist::{blif, NetEdit, Network, NodeFn, SubjectGraph};

struct Row {
    circuit: String,
    subject_nodes: usize,
    strash_raw: usize,
    strash_unique: usize,
    cold_s: f64,
    warm_s: f64,
    warm_id_hits: usize,
    inc_s: f64,
    edited_cold_s: f64,
    labels_reused: usize,
    inc_speedup: f64,
}

fn best_of(reps: usize, mut f: impl FnMut() -> f64) -> f64 {
    (0..reps).map(|_| f()).fold(f64::INFINITY, f64::min)
}

fn mapped_blif(mapped: &dagmap_core::MappedNetlist) -> String {
    blif::to_string(&mapped.to_network().expect("lower")).expect("blif")
}

/// A small local edit: a fresh input XORed into the first primary
/// output's driver, leaving the rest of the circuit — and its labels —
/// intact.
fn edit_one_output(net: &mut Network) {
    let out_name = net.outputs().first().expect("has outputs").name.clone();
    let old_driver = net.outputs().first().unwrap().driver;
    let created = net
        .apply_edits(vec![
            NetEdit::AddInput {
                name: "strashperf_patch".into(),
            },
            NetEdit::AddNode {
                func: NodeFn::Xor,
                fanins: vec![old_driver, old_driver],
                name: None,
            },
        ])
        .expect("edits apply");
    let (patch_in, xor) = (created[0].unwrap(), created[1].unwrap());
    net.replace_fanin(xor, 1, patch_in).expect("rewire");
    net.apply_edits(vec![NetEdit::SetOutputDriver {
        output: out_name,
        driver: xor,
    }])
    .expect("redirect output");
}

fn main() {
    let mut quick = false;
    let mut out = String::from("BENCH_strash.json");
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--quick" => quick = true,
            "--out" => out = args.next().expect("--out needs a path"),
            other => panic!("unknown argument `{other}`"),
        }
    }
    let reps = if quick { 1 } else { 3 };

    let circuits: Vec<(String, Network)> = if quick {
        // c3540_like stays in the quick set: it is the circuit whose
        // incremental re-map speedup backs the 5x floor below.
        vec![
            ("alu8".into(), dagmap_benchgen::alu(8)),
            ("c3540_like".into(), dagmap_benchgen::c3540_like()),
        ]
    } else {
        vec![
            ("alu8".into(), dagmap_benchgen::alu(8)),
            ("ks16".into(), dagmap_benchgen::kogge_stone_adder(16)),
            ("c3540_like".into(), dagmap_benchgen::c3540_like()),
            ("mult12".into(), dagmap_benchgen::array_multiplier(12)),
        ]
    };
    let lib = Library::lib_44_3_like();
    let mapper = Mapper::new(&lib);
    // Memo forced on: the bench measures the strash-id fast path, which
    // lives inside the memo.
    let opts = MapOptions::dag().with_match_memo(true);

    println!(
        "strashperf: {} circuits vs `{}`, {} reps (best-of)",
        circuits.len(),
        lib.name(),
        reps
    );

    let mut rows: Vec<Row> = Vec::new();
    for (name, net) in &circuits {
        let subject = SubjectGraph::from_network(net).expect("benchgen circuits decompose");
        let strash = *subject.strash_stats();

        // Cold: full mapping, fresh state, plus the retained label
        // snapshot the incremental column replays against.
        let (cold_map, _, retained) = mapper
            .map_with_store(&subject, opts, None, true)
            .expect("cold map");
        let retained = retained.expect("benchgen subjects carry injective signatures");
        let cold_blif = mapped_blif(&cold_map);
        let cold_s = best_of(reps, || {
            let t = Instant::now();
            let m = mapper.map(&subject, opts).expect("map");
            std::hint::black_box(m.num_cells());
            t.elapsed().as_secs_f64()
        });

        // Warm: the shared store has already seen this circuit, so every
        // gate resolves through the strash-id fast path.
        let shared = SharedMatchStore::for_library(&lib, 16, 1 << 14);
        let (first, _, _) = mapper
            .map_with_store(&subject, opts, Some(&shared), false)
            .expect("warming map");
        assert_eq!(mapped_blif(&first), cold_blif, "{name}: shared map diverged");
        let mut warm_id_hits = 0;
        let warm_s = best_of(reps, || {
            let t = Instant::now();
            let (m, rep, _) = mapper
                .map_with_store(&subject, opts, Some(&shared), false)
                .expect("warm map");
            std::hint::black_box(m.num_cells());
            warm_id_hits = rep.memo_id_hits;
            t.elapsed().as_secs_f64()
        });
        assert!(warm_id_hits > 0, "{name}: warm run resolved no strash ids");

        // Incremental: re-map a locally edited copy against the cold run's
        // retained labels, vs a cold full mapping of the same edit.
        let mut edited_net = net.clone();
        edit_one_output(&mut edited_net);
        let edited = SubjectGraph::from_network(&edited_net).expect("edited decomposes");
        let (full, _) = mapper.map_with_report(&edited, opts).expect("full remap");
        let (inc, inc_rep, _) = mapper
            .map_incremental(&edited, opts, &retained, None)
            .expect("incremental remap");
        assert_eq!(
            mapped_blif(&inc),
            mapped_blif(&full),
            "{name}: incremental remap diverged from cold"
        );
        let labels_reused = inc_rep.labels_reused;
        assert!(labels_reused > 0, "{name}: nothing reused after a local edit");
        let edited_cold_s = best_of(reps, || {
            let t = Instant::now();
            let m = mapper.map(&edited, opts).expect("map");
            std::hint::black_box(m.num_cells());
            t.elapsed().as_secs_f64()
        });
        let inc_s = best_of(reps, || {
            let t = Instant::now();
            let (m, ..) = mapper
                .map_incremental(&edited, opts, &retained, None)
                .expect("incremental");
            std::hint::black_box(m.num_cells());
            t.elapsed().as_secs_f64()
        });
        let inc_speedup = edited_cold_s / inc_s;

        println!(
            "  {name:12} {:>6} nodes ({:.2}x dedup): cold {:>8.2} ms, warm {:>8.2} ms \
             ({:.2}x, {} id hits), incremental {:>8.2} ms ({:.2}x vs cold edited, {} labels reused)",
            subject.flat().num_nodes(),
            strash.raw as f64 / strash.unique.max(1) as f64,
            cold_s * 1e3,
            warm_s * 1e3,
            cold_s / warm_s,
            warm_id_hits,
            inc_s * 1e3,
            inc_speedup,
            labels_reused,
        );

        rows.push(Row {
            circuit: name.clone(),
            subject_nodes: subject.flat().num_nodes(),
            strash_raw: strash.raw,
            strash_unique: strash.unique,
            cold_s,
            warm_s,
            warm_id_hits,
            inc_s,
            edited_cold_s,
            labels_reused,
            inc_speedup,
        });
    }

    let best_inc = rows
        .iter()
        .map(|r| r.inc_speedup)
        .fold(0.0f64, f64::max);
    assert!(
        best_inc >= 5.0,
        "incremental re-map must be >=5x faster than a cold full mapping \
         on at least one circuit (best: {best_inc:.2}x)"
    );
    println!("best incremental re-map speedup: {best_inc:.2}x (floor: 5x)");

    let mut json = String::new();
    json.push_str("{\n");
    let _ = writeln!(json, "  \"bench\": \"strashperf\",");
    let _ = writeln!(json, "  \"library\": \"{}\",", lib.name());
    let _ = writeln!(json, "  \"reps\": {reps},");
    let _ = writeln!(json, "  \"all_identical\": true,");
    let _ = writeln!(json, "  \"best_incremental_speedup\": {best_inc:.3},");
    json.push_str("  \"rows\": [\n");
    for (i, r) in rows.iter().enumerate() {
        let sep = if i + 1 == rows.len() { "" } else { "," };
        let _ = writeln!(
            json,
            "    {{\"circuit\": \"{}\", \"subject_nodes\": {}, \"strash_raw\": {}, \
             \"strash_unique\": {}, \"cold_s\": {:.6}, \"warm_s\": {:.6}, \
             \"warm_id_hits\": {}, \"incremental_s\": {:.6}, \"edited_cold_s\": {:.6}, \
             \"labels_reused\": {}, \"incremental_speedup\": {:.3}}}{sep}",
            r.circuit,
            r.subject_nodes,
            r.strash_raw,
            r.strash_unique,
            r.cold_s,
            r.warm_s,
            r.warm_id_hits,
            r.inc_s,
            r.edited_cold_s,
            r.labels_reused,
            r.inc_speedup,
        );
    }
    json.push_str("  ]\n}\n");
    std::fs::write(&out, json).expect("write bench json");
    println!("wrote {out}");
}
