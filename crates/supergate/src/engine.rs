//! The supergate enumeration engine.
//!
//! Round `d` composes one *root* gate from the base library over functions
//! built in rounds `< d` (the **pool**), requiring at least one child from
//! the round-`d−1` frontier so every composition is enumerated exactly once
//! at its depth. Candidates are evaluated bit-parallel (one `u64` of
//! minterms), deduplicated by raw truth table keeping the minimum under a
//! strict total order, and the per-round survivors are then screened for
//! emission against a permutation-canonical (delay, area) Pareto registry
//! seeded with the base gates.
//!
//! Parallelism is the PR-1 house style: per round, a `std::thread::scope`
//! worker pool drains a shared work queue of `(root gate, first child)`
//! units; each worker folds candidates into a private map and the
//! coordinator merges the maps with the same minimum fold. Since a minimum
//! over a fixed candidate set does not depend on how the set is
//! partitioned, the merged result — and therefore the emitted library — is
//! bit-identical for every thread count.

use std::collections::{HashMap, HashSet};
use std::sync::atomic::{AtomicUsize, Ordering};

use dagmap_boolmatch::TruthTable;
use dagmap_genlib::{
    truth_mask, Expr, Gate, GateProgram, GenlibError, Library, PatternGraph, PatternNode,
    PinTiming, TreeShape, EXHAUSTIVE_WORDS,
};

use crate::{SupergateError, SupergateExtension, SupergateOptions, SupergateReport, SupergateStat};

/// Hard ceiling on supergate support (truth tables are one `u64`).
const MAX_VARS: usize = 6;

/// Global variable names; matches the builtin libraries' pin alphabet.
const VAR_NAMES: [&str; MAX_VARS] = ["a", "b", "c", "d", "e", "f"];

/// Below this many work units a round runs inline even when threads > 1.
const PARALLEL_THRESHOLD: usize = 8;

const EPS: f64 = 1e-9;

/// The `1.0 + 0.2·(depth−1)` block-delay convention of the builtin `44-x`
/// libraries (`stdlibs::auto`), applied per pin.
fn depth_delay(depth: u32) -> f64 {
    1.0 + 0.2 * (f64::from(depth) - 1.0)
}

/// A base-library gate prepared for use as a composition root.
struct RootGate {
    /// Index into `base.gates()`.
    gate: usize,
    /// Compiled so candidate truth tables cost a handful of word ops
    /// instead of a recursive `Expr::eval` per minterm.
    program: GateProgram,
    /// Balanced-pattern depth below the output, per canonical pin.
    pin_depth: Vec<u8>,
    /// Balanced-pattern internal node count (NAND2-equivalent area).
    internal: f64,
    pins: usize,
    /// Fully input-symmetric gates enumerate sorted child tuples only.
    symmetric: bool,
}

/// Per-pin pattern depth: longest leaf→root path seen from each pin.
fn pattern_pin_depths(p: &PatternGraph) -> Vec<u32> {
    let mut dist = vec![0u32; p.len()];
    for i in (0..p.len()).rev() {
        match p.node(i) {
            PatternNode::Leaf { .. } => {}
            PatternNode::Inv { fanin } => dist[fanin] = dist[fanin].max(dist[i] + 1),
            PatternNode::Nand { fanins } => {
                for f in fanins {
                    dist[f] = dist[f].max(dist[i] + 1);
                }
            }
        }
    }
    let mut out = vec![0u32; p.num_pins()];
    for i in 0..p.len() {
        if let PatternNode::Leaf { pin } = p.node(i) {
            out[pin] = out[pin].max(dist[i]);
        }
    }
    out
}

fn prepare_roots(base: &Library, max_inputs: usize) -> Result<Vec<RootGate>, GenlibError> {
    let mut roots = Vec::new();
    for (gi, gate) in base.gates().iter().enumerate() {
        let k = gate.num_pins();
        if k == 0 || k > max_inputs {
            continue;
        }
        let pins: Vec<String> = gate.pins().iter().map(|(n, _)| n.clone()).collect();
        let Some(pattern) = PatternGraph::from_expr(gate.expr(), &pins, TreeShape::Balanced)?
        else {
            continue;
        };
        if pattern.is_trivial() {
            continue;
        }
        let program = GateProgram::compile(gate.expr(), &pins);

        // Full symmetry: the gate truth table is invariant under every
        // adjacent pin transposition (adjacent transpositions generate S_k).
        let tt = TruthTable::from_bits(k, program.truth_table());
        let symmetric = (0..k.saturating_sub(1)).all(|i| {
            let mut perm: Vec<usize> = (0..k).collect();
            perm.swap(i, i + 1);
            tt.permute(&perm) == tt
        });

        let pin_depth = pattern_pin_depths(&pattern)
            .into_iter()
            .map(|d| u8::try_from(d.min(255)).expect("clamped"))
            .collect();
        roots.push(RootGate {
            gate: gi,
            program,
            pin_depth,
            internal: pattern.num_internal() as f64,
            pins: k,
            symmetric,
        });
    }
    Ok(roots)
}

/// A function in the composition pool.
struct Item {
    tt: u64,
    /// Variables the truth table actually depends on.
    support: u8,
    /// Composition depth in gate levels (variables are 0).
    depth: u8,
    /// Estimated NAND2/INV depth from each variable to the output.
    pat_depth: [u8; MAX_VARS],
    /// Estimated NAND2-equivalent area.
    area: f64,
    /// Composed expression over the global variables.
    expr: Expr,
}

/// One candidate composition, as produced by the round workers.
#[derive(Clone)]
struct Cand {
    tt: u64,
    support: u8,
    depth: u8,
    pat_depth: [u8; MAX_VARS],
    area: f64,
    max_delay: f64,
    root: u32,
    children: [u32; MAX_VARS],
    nchildren: u8,
}

/// Strict total preference: lower estimated delay, then lower area, then the
/// structurally-first composition. Folding candidates with this order is
/// partition-independent, which is what makes generation thread-count
/// invariant.
fn cand_better(a: &Cand, b: &Cand) -> bool {
    if a.max_delay != b.max_delay {
        return a.max_delay < b.max_delay;
    }
    if a.area != b.area {
        return a.area < b.area;
    }
    if a.root != b.root {
        return a.root < b.root;
    }
    a.children[..a.nchildren as usize] < b.children[..b.nchildren as usize]
}

/// Per-round shared inputs for the workers.
struct RoundCtx<'a> {
    pool: &'a [Item],
    pool_tts: &'a HashSet<u64>,
    roots: &'a [RootGate],
    /// Depth of the compositions being built this round.
    round: u8,
    nvars: usize,
    mask: u64,
    /// `lo[v]`: minterms with variable `v` = 0 (support detection).
    lo: [u64; MAX_VARS],
    /// Whether any pool item at index ≥ i has depth == round−1.
    frontier_from: Vec<bool>,
    units: Vec<(u32, u32)>,
}

/// Drains candidate tuples for one `(root, first child)` unit into `local`.
fn run_unit(
    ctx: &RoundCtx,
    root_idx: usize,
    first: usize,
    local: &mut HashMap<u64, Cand>,
    evaluated: &mut usize,
) {
    let root = &ctx.roots[root_idx];
    let k = root.pins;
    let mut tuple = [0usize; MAX_VARS];
    let mut tts = [0u64; MAX_VARS];
    tuple[0] = first;
    tts[0] = ctx.pool[first].tt;
    let frontier0 = ctx.pool[first].depth as usize == ctx.round as usize - 1;
    rec_tuples(
        ctx, root, root_idx, 1, k, frontier0, &mut tuple, &mut tts, local, evaluated,
    );
}

#[allow(clippy::too_many_arguments)]
fn rec_tuples(
    ctx: &RoundCtx,
    root: &RootGate,
    root_idx: usize,
    pos: usize,
    k: usize,
    has_frontier: bool,
    tuple: &mut [usize; MAX_VARS],
    tts: &mut [u64; MAX_VARS],
    local: &mut HashMap<u64, Cand>,
    evaluated: &mut usize,
) {
    if pos == k {
        if has_frontier {
            finalize(ctx, root, root_idx, k, tuple, tts, local, evaluated);
        }
        return;
    }
    let start = if root.symmetric { tuple[pos - 1] } else { 0 };
    // A branch that can no longer reach a frontier child is dead.
    if !has_frontier && root.symmetric && !ctx.frontier_from[start] {
        return;
    }
    for idx in start..ctx.pool.len() {
        tuple[pos] = idx;
        tts[pos] = ctx.pool[idx].tt;
        let f = has_frontier || ctx.pool[idx].depth as usize == ctx.round as usize - 1;
        rec_tuples(
            ctx,
            root,
            root_idx,
            pos + 1,
            k,
            f,
            tuple,
            tts,
            local,
            evaluated,
        );
    }
}

#[allow(clippy::too_many_arguments)]
fn finalize(
    ctx: &RoundCtx,
    root: &RootGate,
    root_idx: usize,
    k: usize,
    tuple: &[usize; MAX_VARS],
    tts: &[u64; MAX_VARS],
    local: &mut HashMap<u64, Cand>,
    evaluated: &mut usize,
) {
    *evaluated += 1;
    let tt = root.program.eval(|i| tts[i], ctx.mask);
    if tt == 0 || tt == ctx.mask || ctx.pool_tts.contains(&tt) {
        return;
    }
    // True support of the composed function.
    let mut support = 0u8;
    for v in 0..ctx.nvars {
        if ((tt >> (1usize << v)) ^ tt) & ctx.lo[v] != 0 {
            support |= 1 << v;
        }
    }
    if support == 0 {
        return;
    }
    // Estimated NAND2/INV depth per variable and worst pin delay.
    let mut pat_depth = [0u8; MAX_VARS];
    let mut max_delay = 0.0f64;
    let mut area = root.internal;
    for (i, &child) in tuple[..k].iter().enumerate() {
        area += ctx.pool[child].area;
        let item = &ctx.pool[child];
        for v in 0..ctx.nvars {
            if item.support & (1 << v) != 0 {
                let d = root.pin_depth[i].saturating_add(item.pat_depth[v]);
                pat_depth[v] = pat_depth[v].max(d);
            }
        }
    }
    for v in 0..ctx.nvars {
        if support & (1 << v) != 0 {
            max_delay = max_delay.max(depth_delay(u32::from(pat_depth[v])));
        }
    }
    let mut children = [0u32; MAX_VARS];
    for (i, &c) in tuple[..k].iter().enumerate() {
        children[i] = u32::try_from(c).expect("pool fits u32");
    }
    let cand = Cand {
        tt,
        support,
        depth: ctx.round,
        pat_depth,
        area,
        max_delay,
        root: u32::try_from(root_idx).expect("few roots"),
        children,
        nchildren: u8::try_from(k).expect("≤ 6 pins"),
    };
    match local.get_mut(&tt) {
        Some(best) => {
            if cand_better(&cand, best) {
                *best = cand;
            }
        }
        None => {
            local.insert(tt, cand);
        }
    }
}

/// Runs one enumeration round, returning the new candidates sorted by the
/// deterministic admission order, plus the number of compositions evaluated.
fn run_round(ctx: &RoundCtx, num_threads: usize) -> (Vec<Cand>, usize) {
    let mut maps: Vec<HashMap<u64, Cand>> = Vec::new();
    let mut evaluated = 0usize;
    if num_threads <= 1 || ctx.units.len() < PARALLEL_THRESHOLD {
        let mut local = HashMap::new();
        for &(r, f) in &ctx.units {
            run_unit(ctx, r as usize, f as usize, &mut local, &mut evaluated);
        }
        maps.push(local);
    } else {
        let next = AtomicUsize::new(0);
        let counts: Vec<AtomicUsize> = (0..num_threads).map(|_| AtomicUsize::new(0)).collect();
        let mut worker_maps: Vec<HashMap<u64, Cand>> =
            (0..num_threads).map(|_| HashMap::new()).collect();
        std::thread::scope(|scope| {
            for (w, map) in worker_maps.iter_mut().enumerate() {
                let next = &next;
                let counts = &counts;
                scope.spawn(move || {
                    let mut n = 0usize;
                    loop {
                        let u = next.fetch_add(1, Ordering::Relaxed);
                        if u >= ctx.units.len() {
                            break;
                        }
                        let (r, f) = ctx.units[u];
                        run_unit(ctx, r as usize, f as usize, map, &mut n);
                    }
                    counts[w].store(n, Ordering::Relaxed);
                });
            }
        });
        evaluated = counts.iter().map(|c| c.load(Ordering::Relaxed)).sum();
        maps = worker_maps;
    }

    // Fold the per-worker maps with the same minimum as the workers used;
    // the fold is associative and commutative, so the partition of work
    // across threads cannot change the outcome.
    let mut merged: HashMap<u64, Cand> = maps.pop().unwrap_or_default();
    for map in maps {
        for (tt, cand) in map {
            match merged.get_mut(&tt) {
                Some(best) => {
                    if cand_better(&cand, best) {
                        *best = cand;
                    }
                }
                None => {
                    merged.insert(tt, cand);
                }
            }
        }
    }
    let mut out: Vec<Cand> = merged.into_values().collect();
    out.sort_by(|a, b| {
        a.max_delay
            .partial_cmp(&b.max_delay)
            .expect("finite delays")
            .then(a.area.partial_cmp(&b.area).expect("finite areas"))
            .then(a.tt.cmp(&b.tt))
    });
    (out, evaluated)
}

/// Substitutes child expressions for a gate's pin variables, flattening
/// nested `And`/`Or` the same way the expression parser does (so the
/// composed expression round-trips through genlib text unchanged).
fn subst(expr: &Expr, binding: &HashMap<&str, &Expr>) -> Expr {
    fn nary(or: bool, es: Vec<Expr>) -> Expr {
        let mut out = Vec::with_capacity(es.len());
        for e in es {
            match (or, e) {
                (true, Expr::Or(inner)) => out.extend(inner),
                (false, Expr::And(inner)) => out.extend(inner),
                (_, other) => out.push(other),
            }
        }
        if or {
            Expr::Or(out)
        } else {
            Expr::And(out)
        }
    }
    match expr {
        Expr::Const(v) => Expr::Const(*v),
        Expr::Var(v) => (*binding
            .get(v.as_str())
            .unwrap_or_else(|| panic!("pin `{v}` unbound in composition")))
        .clone(),
        Expr::Not(e) => Expr::Not(Box::new(subst(e, binding))),
        Expr::And(es) => nary(false, es.iter().map(|e| subst(e, binding)).collect()),
        Expr::Or(es) => nary(true, es.iter().map(|e| subst(e, binding)).collect()),
    }
}

/// Derives the final cell for a composed expression: balanced NAND2/INV
/// decomposition, `area` = internal node count, per-pin block delay
/// `1.0 + 0.2·(pin depth − 1)` — the builtin `stdlibs::auto` convention.
fn derive_gate(name: &str, expr: &Expr) -> Result<Option<Gate>, GenlibError> {
    let vars = expr.vars();
    let Some(pattern) = PatternGraph::from_expr(expr, &vars, TreeShape::Balanced)? else {
        return Ok(None);
    };
    if pattern.is_trivial() {
        return Ok(None);
    }
    // Safety net: the pattern must implement the composed expression on
    // every minterm (the decomposition shares the subject-graph rules, so a
    // mismatch would be a structural bug, not a data issue).
    for m in 0..(1usize << vars.len()) {
        let pins: Vec<bool> = (0..vars.len()).map(|i| (m >> i) & 1 == 1).collect();
        let want = expr.eval(&|n| vars.iter().position(|v| v == n).is_some_and(|i| pins[i]));
        if pattern.eval(&pins) != want {
            return Err(GenlibError::Validate(format!(
                "supergate `{name}`: pattern disagrees with expression on minterm {m}"
            )));
        }
    }
    let area = pattern.num_internal() as f64;
    let depths = pattern_pin_depths(&pattern);
    let pins: Vec<(String, PinTiming)> = vars
        .iter()
        .zip(&depths)
        .map(|(v, &d)| (v.clone(), PinTiming::uniform(depth_delay(d))))
        .collect();
    Ok(Some(Gate::new(name, area, "O", expr.clone(), pins)?))
}

/// Canonical-function key: reduced support size + permutation-canonical
/// truth-table bits.
fn canonical_key(nvars: usize, tt: u64) -> (usize, u64) {
    let (reduced, _) = TruthTable::from_bits(nvars, tt).reduce_support();
    let (canon, _) = reduced.p_canonical();
    (canon.num_inputs(), canon.bits())
}

/// True when an existing `(delay, area)` point dominates the candidate.
fn dominated(points: &[(f64, f64)], delay: f64, area: f64) -> bool {
    points
        .iter()
        .any(|&(pd, pa)| pd <= delay + EPS && pa <= area + EPS)
}

/// Extends `base` with enumerated supergates under `opts`.
///
/// The returned library holds the base gates unchanged (same order, same
/// timing) followed by the emitted supergates, so any mapping result
/// achievable with the base library remains achievable: mapped delay can
/// only improve.
///
/// # Errors
///
/// Returns [`SupergateError::Config`] for out-of-range bounds and
/// [`SupergateError::Genlib`] if the extended library fails validation
/// (which would indicate an internal bug).
pub fn extend_library(
    base: &Library,
    opts: &SupergateOptions,
) -> Result<SupergateExtension, SupergateError> {
    opts.validate()?;
    let mut obs_span = dagmap_obs::span("supergen");
    if obs_span.is_recording() {
        obs_span.set_u64("max_inputs", opts.max_inputs as u64);
        obs_span.set_u64("max_depth", u64::from(opts.max_depth));
    }
    let nvars = opts.max_inputs;
    let mask = truth_mask(nvars);
    let threads = opts
        .num_threads
        .unwrap_or_else(|| std::thread::available_parallelism().map_or(1, |n| n.get()))
        .max(1);

    let roots = prepare_roots(base, nvars)?;

    // Pareto registry over canonical functions, seeded with the base cells:
    // a supergate is only emitted when no existing cell of the same
    // P-equivalence class is at least as fast *and* at least as small.
    let mut registry: HashMap<(usize, u64), Vec<(f64, f64)>> = HashMap::new();
    for gate in base.gates() {
        let k = gate.num_pins();
        if k == 0 || k > MAX_VARS {
            continue;
        }
        let tt = TruthTable::from_bits(k, gate.program().truth_table());
        if tt.is_constant() {
            continue;
        }
        let key = canonical_key(k, tt.bits());
        registry
            .entry(key)
            .or_default()
            .push((gate.max_delay(), gate.area()));
    }

    // The pool starts as the bare variables (depth 0).
    let mut pool: Vec<Item> = (0..nvars)
        .map(|i| {
            let pat_depth = [0u8; MAX_VARS];
            Item {
                tt: EXHAUSTIVE_WORDS[i] & mask,
                support: 1 << i,
                depth: 0,
                pat_depth,
                area: 0.0,
                expr: Expr::Var(VAR_NAMES[i].to_owned()),
            }
        })
        .collect();
    let mut pool_tts: HashSet<u64> = pool.iter().map(|it| it.tt).collect();

    let taken: HashSet<&str> = base.gates().iter().map(|g| g.name()).collect();
    let mut seq = 0usize;
    let mut supergates: Vec<Gate> = Vec::new();
    let mut stats: Vec<SupergateStat> = Vec::new();
    let mut candidates = 0usize;
    let mut rounds = 0u32;

    for round in 1..=opts.max_depth {
        // Frontier: without a child of depth round−1 the composition was
        // already enumerated in an earlier round.
        if !pool.iter().any(|it| u32::from(it.depth) == round - 1) {
            break;
        }
        rounds = round;
        let mut round_span = dagmap_obs::span("supergen.round");
        if round_span.is_recording() {
            round_span.set_u64("round", u64::from(round));
            round_span.set_u64("pool", pool.len() as u64);
        }
        let round8 = u8::try_from(round).expect("depth bounded");
        let mut frontier_from = vec![false; pool.len() + 1];
        for i in (0..pool.len()).rev() {
            frontier_from[i] = frontier_from[i + 1] || pool[i].depth as usize == round as usize - 1;
        }
        let mut lo = [0u64; MAX_VARS];
        for (v, slot) in lo.iter_mut().enumerate().take(nvars) {
            *slot = !EXHAUSTIVE_WORDS[v] & mask;
        }
        let units: Vec<(u32, u32)> = (0..roots.len())
            .flat_map(|r| {
                (0..pool.len()).map(move |f| {
                    (
                        u32::try_from(r).expect("few roots"),
                        u32::try_from(f).expect("pool fits u32"),
                    )
                })
            })
            .collect();
        let ctx = RoundCtx {
            pool: &pool,
            pool_tts: &pool_tts,
            roots: &roots,
            round: round8,
            nvars,
            mask,
            lo,
            frontier_from,
            units,
        };
        let (new_cands, evaluated) = run_round(&ctx, threads);
        candidates += evaluated;

        // Admission + emission, in the deterministic sorted order.
        for cand in new_cands {
            if pool.len() - nvars >= opts.max_pool {
                break;
            }
            let root = &roots[cand.root as usize];
            let gate = &base.gates()[root.gate];
            let binding: HashMap<&str, &Expr> = gate
                .pins()
                .iter()
                .enumerate()
                .map(|(i, (n, _))| (n.as_str(), &pool[cand.children[i] as usize].expr))
                .collect();
            let expr = subst(gate.expr(), &binding);

            // Emission screen (rounds ≥ 2: round-1 candidates are base-gate
            // instantiations, never new cells).
            if round >= 2
                && supergates.len() < opts.max_count
                && cand.support.count_ones() >= 2
                && expr.vars().len() == cand.support.count_ones() as usize
            {
                let mut next_seq = seq;
                let name = loop {
                    let n = format!("sg{next_seq}");
                    next_seq += 1;
                    if !taken.contains(n.as_str()) {
                        break n;
                    }
                };
                if let Some(sg) = derive_gate(&name, &expr)? {
                    let key = canonical_key(nvars, cand.tt);
                    let points = registry.entry(key).or_default();
                    if !dominated(points, sg.max_delay(), sg.area()) {
                        seq = next_seq;
                        points.push((sg.max_delay(), sg.area()));
                        stats.push(SupergateStat {
                            name: sg.name().to_owned(),
                            inputs: sg.num_pins(),
                            depth: round,
                            area: sg.area(),
                            max_delay: sg.max_delay(),
                            expr: sg.expr().to_string(),
                        });
                        supergates.push(sg);
                    }
                }
            }

            pool_tts.insert(cand.tt);
            pool.push(Item {
                tt: cand.tt,
                support: cand.support,
                depth: cand.depth,
                pat_depth: cand.pat_depth,
                area: cand.area,
                expr,
            });
        }
    }

    if dagmap_obs::enabled() {
        dagmap_obs::count("supergen.candidates", candidates as u64);
        dagmap_obs::count("supergen.emitted", stats.len() as u64);
        dagmap_obs::count("supergen.rounds", u64::from(rounds));
    }
    let mut gates = base.gates().to_vec();
    gates.extend(supergates);
    let name = format!("{}_sg{}", base.name(), opts.max_depth);
    let library = Library::new(name, gates)?;
    let report = SupergateReport {
        base_gates: base.gates().len(),
        supergates: stats.len(),
        rounds,
        candidates,
        pool_size: pool.len() - nvars,
        threads,
        gates: stats,
    };
    Ok(SupergateExtension { library, report })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_opts() -> SupergateOptions {
        SupergateOptions {
            max_inputs: 4,
            max_depth: 2,
            max_count: 16,
            max_pool: 48,
            num_threads: Some(1),
        }
    }

    #[test]
    fn rejects_bad_bounds() {
        let base = Library::minimal();
        for bad in [
            SupergateOptions {
                max_inputs: 1,
                ..small_opts()
            },
            SupergateOptions {
                max_inputs: 7,
                ..small_opts()
            },
            SupergateOptions {
                max_depth: 0,
                ..small_opts()
            },
        ] {
            assert!(matches!(
                extend_library(&base, &bad),
                Err(SupergateError::Config(_))
            ));
        }
    }

    #[test]
    fn extension_is_a_superset_of_the_base() {
        let base = Library::lib_44_1_like();
        let ext = extend_library(&base, &small_opts()).unwrap().library;
        for (i, g) in base.gates().iter().enumerate() {
            assert_eq!(ext.gates()[i], *g, "base gate {i} changed");
        }
        assert!(ext.gates().len() > base.gates().len());
        assert!(ext.is_delay_mappable());
    }

    #[test]
    fn respects_bounds() {
        let base = Library::lib_44_1_like();
        let opts = SupergateOptions {
            max_count: 3,
            ..small_opts()
        };
        let ext = extend_library(&base, &opts).unwrap();
        assert_eq!(ext.report.supergates, 3);
        assert_eq!(ext.library.gates().len(), base.gates().len() + 3);
        for sg in &ext.report.gates {
            assert!(sg.inputs >= 2 && sg.inputs <= opts.max_inputs);
            assert!(sg.depth >= 2 && sg.depth <= opts.max_depth);
        }
    }

    #[test]
    fn bit_identical_across_thread_counts() {
        let base = Library::lib_44_1_like();
        let serial = extend_library(
            &base,
            &SupergateOptions {
                num_threads: Some(1),
                ..small_opts()
            },
        )
        .unwrap();
        for nt in [2, 3, 5] {
            let parallel = extend_library(
                &base,
                &SupergateOptions {
                    num_threads: Some(nt),
                    ..small_opts()
                },
            )
            .unwrap();
            assert_eq!(
                serial.library.to_genlib_string(),
                parallel.library.to_genlib_string(),
                "{nt} threads diverged from serial"
            );
            assert_eq!(serial.report.candidates, parallel.report.candidates);
            assert_eq!(serial.report.pool_size, parallel.report.pool_size);
        }
    }

    #[test]
    fn truth_tables_match_pattern_simulation() {
        // Every emitted supergate's function must equal the simulation of
        // its library pattern graphs — both tree shapes.
        let base = Library::lib_44_1_like();
        let ext = extend_library(&base, &small_opts()).unwrap().library;
        let base_count = Library::lib_44_1_like().gates().len();
        let mut checked = 0;
        for pat in ext.patterns() {
            if pat.gate.index() < base_count {
                continue;
            }
            let gate = &ext.gates()[pat.gate.index()];
            let k = gate.num_pins();
            let pins: Vec<String> = gate.pins().iter().map(|(n, _)| n.clone()).collect();
            for m in 0..(1usize << k) {
                let vals: Vec<bool> = (0..k).map(|i| (m >> i) & 1 == 1).collect();
                let want = gate
                    .expr()
                    .eval(&|name| pins.iter().position(|p| p == name).is_some_and(|i| vals[i]));
                assert_eq!(
                    pat.graph.eval(&vals),
                    want,
                    "{} minterm {m} shape {:?}",
                    gate.name(),
                    pat.shape
                );
            }
            checked += 1;
        }
        assert!(checked > 0, "no supergate patterns checked");
    }

    #[test]
    fn supergates_are_not_dominated_by_base_cells() {
        // For every emitted supergate there is no base cell with the same
        // canonical function that is both at least as fast and as small.
        let base = Library::lib_44_1_like();
        let ext = extend_library(&base, &small_opts()).unwrap();
        let mut base_points: HashMap<(usize, u64), Vec<(f64, f64)>> = HashMap::new();
        for gate in base.gates() {
            let k = gate.num_pins();
            let tt = TruthTable::from_bits(k, gate.program().truth_table());
            if tt.is_constant() {
                continue;
            }
            base_points
                .entry(canonical_key(k, tt.bits()))
                .or_default()
                .push((gate.max_delay(), gate.area()));
        }
        let base_count = base.gates().len();
        for sg in &ext.library.gates()[base_count..] {
            let k = sg.num_pins();
            let tt = TruthTable::from_bits(k, sg.program().truth_table());
            if let Some(points) = base_points.get(&canonical_key(k, tt.bits())) {
                assert!(
                    !dominated(points, sg.max_delay(), sg.area()),
                    "{} dominated by a base cell",
                    sg.name()
                );
            }
        }
    }

    #[test]
    fn canonical_dedup_spans_input_orders() {
        // No two emitted supergates share a canonical function with one
        // dominating the other (the Pareto registry forbids it).
        let base = Library::lib_44_1_like();
        let ext = extend_library(&base, &small_opts()).unwrap();
        let base_count = base.gates().len();
        let mut seen: HashMap<(usize, u64), Vec<(f64, f64)>> = HashMap::new();
        for sg in &ext.library.gates()[base_count..] {
            let k = sg.num_pins();
            let tt = TruthTable::from_bits(k, sg.program().truth_table());
            let key = canonical_key(k, tt.bits());
            let points = seen.entry(key).or_default();
            assert!(
                !dominated(points, sg.max_delay(), sg.area()),
                "{} dominated by an earlier supergate of the same class",
                sg.name()
            );
            points.push((sg.max_delay(), sg.area()));
        }
    }

    #[test]
    fn minimal_library_learns_and_or() {
        // From {inv, nand2} alone, depth-2 composition reaches AND2
        // (inv∘nand2) and OR2 (nand2 over two invs).
        let base = Library::minimal();
        let ext = extend_library(
            &base,
            &SupergateOptions {
                max_inputs: 2,
                ..small_opts()
            },
        )
        .unwrap();
        let and2 = TruthTable::from_fn(2, |m| m == 0b11);
        let or2 = TruthTable::from_fn(2, |m| m != 0);
        let base_count = base.gates().len();
        let mut found_and = false;
        let mut found_or = false;
        for sg in &ext.library.gates()[base_count..] {
            if sg.num_pins() != 2 {
                continue;
            }
            let tt = TruthTable::from_bits(2, sg.program().truth_table());
            found_and |= tt.p_canonical().0 == and2.p_canonical().0;
            found_or |= tt.p_canonical().0 == or2.p_canonical().0;
        }
        assert!(found_and, "AND2 not learned");
        assert!(found_or, "OR2 not learned");
    }

    #[test]
    fn pin_depth_helper_matches_pattern_depth() {
        let e = Expr::parse("!(a*b*c*d)").unwrap();
        let p = PatternGraph::from_expr(&e, &e.vars(), TreeShape::Balanced)
            .unwrap()
            .unwrap();
        let depths = pattern_pin_depths(&p);
        assert_eq!(depths.len(), 4);
        assert_eq!(depths.iter().copied().max(), Some(p.depth()));
    }
}
