//! The one-shot workloads: `dagmap map` from BLIF text in to verified BLIF
//! text out, in process, through the same public calls and default options
//! as `cmd_map` in the CLI.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::{Duration, Instant};

use dagmap_benchgen as gen;
use dagmap_boolmatch::HybridSource;
use dagmap_core::{verify, MapOptions, MapReport, Mapper};
use dagmap_genlib::Library;
use dagmap_netlist::{blif, sim, Network, SubjectGraph};
use dagmap_rng::StdRng;

use crate::ledger::{median_of, BoolCounters, Metrics, PassCounters};
use crate::stats::{geomean, harrell_davis, median, peak_rss_mb, process_cpu_s, Fnv};
use crate::trace::Tracer;
use crate::{Args, RunResult};

/// The seed `dagmap map` verifies with.
const VERIFY_SEED: u64 = 0xC11;
/// Cut width of `--algo hybrid` (the CLI's default `-k`).
const HYBRID_K: usize = 4;
/// After each pass, the library is built again until this much time is
/// spent, at least once. So the `setup_s` samples are spread over the whole
/// run, as the pass times are, rather than bunched in its first moments.
const SETUP_SLOT: Duration = Duration::from_millis(5);

/// One input circuit: the generated network (kept for the independent
/// check) and the BLIF text the mapper receives.
pub struct Circuit {
    pub name: String,
    pub net: Network,
    pub blif: String,
}

fn circuit(name: &str, net: Network) -> Result<Circuit, String> {
    let blif = blif::to_string(&net).map_err(|e| format!("{name}: blif writer: {e}"))?;
    Ok(Circuit {
        name: name.to_owned(),
        net,
        blif,
    })
}

/// `count` seeded random DAGs. Two-input gates keep their mapping cost
/// steady across seeds, so the seed moves the inputs, not the work size.
fn random_dags(
    seed: u64,
    count: u64,
    gates: usize,
) -> impl Iterator<Item = Result<Circuit, String>> {
    (0..count).map(move |k| {
        let spec = gen::RandomNetSpec {
            inputs: 32,
            gates,
            seed: seed.wrapping_mul(0x9E37_79B9_7F4A_7C15).wrapping_add(k),
            depth_bias: 0.7,
            max_arity: 2,
            xor_heavy: k % 2 == 1,
            single_output: false,
        };
        circuit(&format!("random{k}"), gen::random_network_with(&spec))
    })
}

/// The structural corpus. `c7552_like` is left out: the BLIF writer rejects
/// its XOR gates wider than 16 inputs, so it cannot be a BLIF input.
/// `mul16` would repeat `c6288_like`, so it is not listed either.
pub fn structural_corpus(seed: u64, quick: bool) -> Result<Vec<Circuit>, String> {
    if quick {
        return vec![
            circuit("alu4", gen::alu(4)),
            circuit("cmp8", gen::comparator(8)),
            circuit("mult4", gen::array_multiplier(4)),
        ]
        .into_iter()
        .chain(random_dags(seed, 1, 40))
        .collect();
    }
    vec![
        circuit("c2670_like", gen::c2670_like()),
        circuit("c3540_like", gen::c3540_like()),
        circuit("c5315_like", gen::c5315_like()),
        circuit("c6288_like", gen::c6288_like()),
        circuit("mult24", gen::array_multiplier(24)),
        circuit("ks64", gen::kogge_stone_adder(64)),
        circuit("alu16", gen::alu(16)),
        circuit("cmp32", gen::comparator(32)),
    ]
    .into_iter()
    .chain(random_dags(seed, 2, 100))
    .collect()
}

/// The Boolean corpus: `BENCH_bool.json`'s ten circuits plus seeded random
/// DAGs.
pub fn boolean_corpus(seed: u64, quick: bool) -> Result<Vec<Circuit>, String> {
    if quick {
        return vec![
            circuit("add8", gen::ripple_adder(8)),
            circuit("cmp8", gen::comparator(8)),
        ]
        .into_iter()
        .chain(random_dags(seed, 1, 40))
        .collect();
    }
    vec![
        circuit("add16", gen::ripple_adder(16)),
        circuit("ks16", gen::kogge_stone_adder(16)),
        circuit("csel16", gen::carry_select_adder(16)),
        circuit("alu8", gen::alu(8)),
        circuit("cmp16", gen::comparator(16)),
        circuit("parity16", gen::parity_tree(16)),
        circuit("mux5", gen::mux_tree(5)),
        circuit("bshift16", gen::barrel_shifter(16)),
        circuit("c3540_like", gen::c3540_like()),
        circuit("mult8", gen::array_multiplier(8)),
    ]
    .into_iter()
    .chain(random_dags(seed, 2, 24))
    .collect()
}

/// One mapped circuit.
pub struct Mapped {
    pub blif: String,
    pub delay: f64,
    pub area: f64,
    pub report: MapReport,
    pub bool_counters: Option<BoolCounters>,
}

/// The `dagmap map` pipeline for one library and algorithm.
pub struct Pipeline<'a> {
    pub lib: &'a Library,
    pub hybrid: bool,
    pub opts: MapOptions,
}

impl Pipeline<'_> {
    /// Maps one BLIF text, with a span around each call into a layer.
    pub fn map(&self, text: &str, tr: &mut Tracer, id: usize) -> Result<Mapped, String> {
        let net = tr
            .span("netlist.parse", id, || blif::parse(text))
            .map_err(|e| format!("parse: {e}"))?;
        let subject = tr
            .span("netlist.decompose", id, || SubjectGraph::from_network(&net))
            .map_err(|e| format!("decompose: {e}"))?;
        let mapper = Mapper::new(self.lib);
        let (mapped, report, bool_counters) = if !self.hybrid {
            let (m, r) = tr
                .span("core.map", id, || {
                    mapper.map_with_report(&subject, self.opts)
                })
                .map_err(|e| format!("map: {e}"))?;
            (m, r, None)
        } else if tr.enabled() {
            // Exactly `map_hybrid_with_options`, split so that the source
            // build gets its own span.
            let source = tr.span("boolmatch.source", id, || {
                HybridSource::new(&subject, self.lib, HYBRID_K)
            });
            let (m, r) = tr
                .span("core.map", id, || {
                    mapper.map_with_source(&subject, self.opts, &source, "hybrid")
                })
                .map_err(|e| format!("map: {e}"))?;
            let b = source.boolean();
            let counters = BoolCounters {
                cuts_enumerated: b.cuts_enumerated(),
                cuts_examined: b.cuts_examined(),
                matches: b.p_matches() + b.npn_matches(),
                npn_matches: b.npn_matches(),
            };
            (m, r, Some(counters))
        } else {
            let (m, r, b) = tr
                .span("core.map", id, || {
                    dagmap_boolmatch::map_hybrid_with_options(
                        &subject, self.lib, HYBRID_K, self.opts,
                    )
                })
                .map_err(|e| format!("map: {e}"))?;
            let counters = BoolCounters {
                cuts_enumerated: b.cuts_enumerated,
                cuts_examined: b.cuts_examined,
                matches: b.matches_found,
                npn_matches: b.npn_matches,
            };
            (m, r, Some(counters))
        };
        tr.span("core.verify", id, || {
            verify::check(&mapped, &subject, VERIFY_SEED)
        })
        .map_err(|e| format!("verify: {e}"))?;
        let lowered = tr
            .span("core.lower", id, || mapped.to_network())
            .map_err(|e| format!("lower: {e}"))?;
        let out = tr
            .span("netlist.write", id, || blif::to_string(&lowered))
            .map_err(|e| format!("write: {e}"))?;
        Ok(Mapped {
            blif: out,
            delay: mapped.delay(),
            area: mapped.area(),
            report,
            bool_counters,
        })
    }
}

/// Checks an output BLIF against the input network without the mapper's
/// own verifier: re-parse it, then simulate both on 32 x 64 seeded vectors.
pub fn independent_check(input: &Network, out_blif: &str, seed: u64) -> Result<(), String> {
    let back = blif::parse(out_blif).map_err(|e| format!("output does not re-parse: {e}"))?;
    match sim::equivalent_random(input, &back, 32, seed) {
        Ok(true) => Ok(()),
        Ok(false) => Err("output is not equivalent to the input".to_owned()),
        Err(e) => Err(format!("output interface does not match the input: {e}")),
    }
}

/// Digest of a pass's outputs, keyed by circuit name so that the pass
/// order does not enter it.
fn pass_digest(circuits: &[Circuit], outs: &[String]) -> String {
    let by_name: BTreeMap<&str, &str> = circuits
        .iter()
        .zip(outs)
        .map(|(c, o)| (c.name.as_str(), o.as_str()))
        .collect();
    let mut h = Fnv::default();
    for (name, out) in by_name {
        h.write(name.as_bytes());
        h.write(out.as_bytes());
    }
    h.hex()
}

struct Pass {
    wall_s: f64,
    cpu_s: f64,
    latencies_s: Vec<f64>,
    outs: Vec<String>,
    delays: Vec<f64>,
    areas: Vec<f64>,
    counters: PassCounters,
    root: usize,
}

fn shuffled(n: usize, rng: &mut StdRng) -> Vec<usize> {
    let mut order: Vec<usize> = (0..n).collect();
    for i in (1..n).rev() {
        order.swap(i, rng.random_range(0..i + 1));
    }
    order
}

fn run_pass(
    pipeline: &Pipeline<'_>,
    circuits: &[Circuit],
    order: &[usize],
    tr: &mut Tracer,
    pass_no: usize,
) -> Result<Pass, String> {
    let n = circuits.len();
    let mut outs = vec![String::new(); n];
    let (mut delays, mut areas) = (vec![0.0; n], vec![0.0; n]);
    let mut latencies_s = vec![0.0; n];
    let mut counters = PassCounters::default();
    let root = tr.begin("pass", pass_no);
    let cpu0 = process_cpu_s();
    let t0 = Instant::now();
    for &i in order {
        let t = Instant::now();
        let span = tr.begin("circuit", i);
        let result = pipeline.map(black_box(&circuits[i].blif), tr, i);
        tr.end(span);
        latencies_s[i] = t.elapsed().as_secs_f64();
        let m = result.map_err(|e| format!("{}: {e}", circuits[i].name))?;
        counters.add_report(&m.report);
        if let Some(b) = &m.bool_counters {
            counters.add_bool(b);
        }
        outs[i] = m.blif;
        delays[i] = m.delay;
        areas[i] = m.area;
    }
    let wall_s = t0.elapsed().as_secs_f64();
    let cpu_s = process_cpu_s() - cpu0;
    tr.end(root);
    Ok(Pass {
        wall_s,
        cpu_s,
        latencies_s,
        outs,
        delays,
        areas,
        counters,
        root,
    })
}

/// Which one-shot workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    Lib2,
    Lib443Recover,
    BooleanLib2,
}

fn make_library(kind: Kind) -> Library {
    match kind {
        Kind::Lib2 | Kind::BooleanLib2 => Library::lib2_like(),
        Kind::Lib443Recover => Library::lib_44_3_like(),
    }
}

/// Builds the library once, and again until `slot` is spent; pushes the
/// seconds of each build to `setup_s` and returns the last one.
fn build_library(kind: Kind, slot: Duration, setup_s: &mut Vec<f64>) -> Library {
    let start = Instant::now();
    loop {
        let t = Instant::now();
        let lib = black_box(make_library(kind));
        setup_s.push(t.elapsed().as_secs_f64());
        if start.elapsed() >= slot {
            return lib;
        }
    }
}

/// Runs a one-shot workload for `args.seconds`.
pub fn run(kind: Kind, args: &Args) -> Result<RunResult, String> {
    let circuits = match kind {
        Kind::BooleanLib2 => boolean_corpus(args.seed, args.quick)?,
        _ => structural_corpus(args.seed, args.quick)?,
    };
    let mut setup_s = Vec::new();
    let library = build_library(kind, Duration::ZERO, &mut setup_s);
    let mut opts = MapOptions::dag();
    if kind == Kind::Lib443Recover {
        opts = opts.with_area_recovery();
    }
    let pipeline = Pipeline {
        lib: &library,
        hybrid: kind == Kind::BooleanLib2,
        opts,
    };

    let mut res = RunResult::default();
    let mut rng = StdRng::seed_from_u64(args.seed);
    let mut untraced = Tracer::new(false);
    let mut traced = Tracer::new(true);

    // Reference pass, untimed: every output is checked independently here,
    // and every later pass must reproduce these bytes.
    let order = shuffled(circuits.len(), &mut rng);
    res.attempted += circuits.len() as u64;
    let reference = match run_pass(&pipeline, &circuits, &order, &mut untraced, 0) {
        Ok(p) => p,
        Err(e) => {
            res.fail(circuits.len() as u64, e);
            return Ok(res);
        }
    };
    for (i, c) in circuits.iter().enumerate() {
        if let Err(e) = independent_check(&c.net, &reference.outs[i], args.seed ^ i as u64) {
            res.fail(1, format!("{}: {e}", c.name));
        }
    }
    res.digest = pass_digest(&circuits, &reference.outs);
    let delay_geomean = geomean(&reference.delays);
    let area_geomean = geomean(&reference.areas);
    res.label_threads = reference.counters.label_threads as usize;

    let deadline = Instant::now() + Duration::from_secs_f64(args.seconds);
    let min_passes = if args.trace { 4 } else { 3 };
    let (mut walls, mut cpus) = (Vec::new(), Vec::new());
    let mut latencies = vec![Vec::new(); circuits.len()];
    let mut traced_walls = Vec::new();
    let mut layer_passes: Vec<Metrics> = Vec::new();
    let mut k = 0;
    let mut longest = 0.0f64;
    while k < min_passes || fits(deadline, longest) {
        k += 1;
        let trace_this = args.trace && k % 2 == 0;
        let tr = if trace_this {
            &mut traced
        } else {
            &mut untraced
        };
        let order = shuffled(circuits.len(), &mut rng);
        res.attempted += circuits.len() as u64;
        let pass = match run_pass(&pipeline, &circuits, &order, tr, k) {
            Ok(p) => p,
            Err(e) => {
                res.fail(circuits.len() as u64, e);
                continue;
            }
        };
        longest = longest.max(pass.wall_s);
        build_library(kind, SETUP_SLOT, &mut setup_s);
        for (i, c) in circuits.iter().enumerate() {
            if pass.outs[i] != reference.outs[i] {
                res.fail(
                    1,
                    format!("{}: output differs from the reference pass", c.name),
                );
            }
        }
        let digest = pass_digest(&circuits, &pass.outs);
        if geomean(&pass.delays) != delay_geomean || geomean(&pass.areas) != area_geomean {
            res.fail(
                1,
                "delay or area differs from the reference pass".to_owned(),
            );
        }
        res.label_threads = res.label_threads.max(pass.counters.label_threads as usize);
        if trace_this {
            res.traced_digest = Some(digest);
            traced_walls.push(pass.wall_s);
            layer_passes.push(layer_metrics(&traced, &pass));
        } else {
            walls.push(pass.wall_s);
            cpus.push(pass.cpu_s);
            for (i, l) in pass.latencies_s.into_iter().enumerate() {
                latencies[i].push(l);
            }
        }
    }

    if args.trace {
        let mut m = median_of(&layer_passes);
        m.insert(
            "obs.trace_overhead_pct",
            (median(&traced_walls) / median(&walls) - 1.0) * 100.0,
        );
        res.metrics = m;
        res.tracer = Some(traced);
    } else {
        let wall_s = median(&walls);
        // A circuit's latency is its median over the timed passes; the
        // percentiles are taken over the circuits, by Harrell–Davis, since
        // with a dozen circuits a sample p50 rests on two of them.
        let per_circuit: Vec<f64> = latencies.iter().map(|l| median(l)).collect();
        res.metrics = Metrics::from([
            ("setup_s", median(&setup_s)),
            ("wall_s", wall_s),
            ("cpu_s", median(&cpus)),
            ("throughput_rps", circuits.len() as f64 / wall_s),
            ("latency_p50_ms", harrell_davis(&per_circuit, 0.5) * 1e3),
            ("latency_p99_ms", harrell_davis(&per_circuit, 0.99) * 1e3),
            ("delay_geomean", delay_geomean),
            ("area_geomean", area_geomean),
            ("peak_rss_mb", peak_rss_mb(None)?),
        ]);
    }
    res.notes = format!(
        "\"circuits\":{},\"passes\":{},\"latency_samples\":{}",
        circuits.len(),
        walls.len(),
        latencies.iter().map(Vec::len).sum::<usize>()
    );
    Ok(res)
}

/// Whether a pass as long as the longest so far still ends by `deadline`.
pub fn fits(deadline: Instant, longest_s: f64) -> bool {
    Instant::now() + Duration::from_secs_f64(longest_s) <= deadline
}

/// Per-layer metrics of one traced pass: span totals plus report counters.
fn layer_metrics(tr: &Tracer, pass: &Pass) -> Metrics {
    let totals = tr.totals_under(pass.root);
    let mut m = pass.counters.metrics();
    // A metric whose span never ran is left out, not read as 0.
    for (metric, span) in [
        ("netlist.parse_ms", "netlist.parse"),
        ("netlist.decompose_ms", "netlist.decompose"),
        ("netlist.write_ms", "netlist.write"),
        ("core.lower_ms", "core.lower"),
        ("core.verify_ms", "core.verify"),
        ("boolmatch.source_ms", "boolmatch.source"),
    ] {
        if let Some(&ms) = totals.get(span) {
            m.insert(metric, ms);
        }
    }
    if let Some(&map_ms) = totals.get("core.map") {
        let c = &pass.counters;
        m.insert(
            "core.map_other_ms",
            map_ms - c.label_ms - c.cover_ms - c.recovery_ms,
        );
    }
    m.insert(
        "unattributed_ms",
        tr.unattributed_ms(pass.root, &["circuit"]),
    );
    m
}
