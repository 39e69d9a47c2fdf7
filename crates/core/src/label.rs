use dagmap_genlib::{GateId, Library, PatternId};
use dagmap_match::{Match, MatchMode, MatchStats};
use dagmap_netlist::{FlatNet, NodeFn, NodeId, SubjectGraph, KIND_SOURCE};

use crate::source::{MatchSource, SourceMatch};
use crate::{allocmeter, MapError, Objective};

/// Tie-breaking tolerance of the label comparisons.
const EPS: f64 = 1e-9;

/// Result of the labeling pass: per subject node, the arrival time and
/// estimated area of the selected match.
///
/// This is the FlowMap-style dynamic program of Section 3.1 with k-cut
/// enumeration replaced by library pattern matching: nodes are visited in
/// topological order, so when a node is labeled, the optimal arrivals of its
/// whole transitive fanin are known, and
///
/// ```text
/// arrival(n) = min over matches m at n of
///              max over pins i of ( arrival(leaf_i(m)) + pin_delay_i(gate(m)) )
/// ```
///
/// satisfies the principle of optimality. Under [`Objective::Delay`] the
/// labels are provably optimal arrivals (the paper's theorem); under
/// [`Objective::Area`] the same machinery minimizes an area estimate that
/// is exact for tree covering and an area-flow heuristic for DAG covering.
///
/// The pass walks the [`FlatNet`] CSR view level by level: every fanin of a
/// level-`l` node sits at a level strictly below `l`, so level order is a
/// topological order. Each level is one `label.wave` obs span and one
/// allocation-metering window ([`Labels::wave_allocs`]).
#[derive(Debug, Clone)]
pub struct Labels {
    /// Arrival of the selected match per subject node (sources are 0).
    pub arrival: Vec<f64>,
    /// Estimated area of producing each node with its selected match.
    pub area_flow: Vec<f64>,
    /// The selected match per internal node.
    pub best: Vec<Option<Match>>,
    /// Match-enumeration counters summed over the pass: matches
    /// enumerated (a proxy for the paper's `O(s·p)` cost), pattern
    /// attempts pruned without search, memo lookups and hits, and the
    /// batched kernel's candidate words and bits.
    pub stats: MatchStats,
    /// Topological levels of the subject graph.
    pub levels: usize,
    /// Heap allocations observed per wave, recorded only when a counting
    /// allocator is registered through [`crate::allocmeter`] (empty
    /// otherwise). The steady-state contract: with the memo off, every
    /// entry is 0 — all per-wave scratch lives in arenas sized up front.
    pub wave_allocs: Vec<usize>,
}

impl Labels {
    /// Arrival of one node.
    pub fn arrival_of(&self, node: NodeId) -> f64 {
        self.arrival[node.index()]
    }

    /// Worst arrival over primary outputs and latch data inputs. Under
    /// [`Objective::Delay`] this is the provably minimum circuit delay for
    /// this subject graph, library and match semantics.
    pub fn critical_delay(&self, subject: &SubjectGraph) -> f64 {
        let net = subject.network();
        let mut worst: f64 = 0.0;
        for out in net.outputs() {
            worst = worst.max(self.arrival[out.driver.index()]);
        }
        for id in net.node_ids() {
            if matches!(net.node(id).func(), NodeFn::Latch) {
                worst = worst.max(self.arrival[net.node(id).fanins()[0].index()]);
            }
        }
        worst
    }
}

/// Arrival of a gate instantiated with `leaves` as its pin binding.
pub(crate) fn arrival_of_leaves(
    library: &Library,
    arrival: &[f64],
    gate: GateId,
    leaves: &[NodeId],
) -> f64 {
    let gate = library.gate(gate);
    let mut t: f64 = 0.0;
    for (pin, leaf) in leaves.iter().enumerate() {
        t = t.max(arrival[leaf.index()] + gate.pin_delay(pin));
    }
    t
}

/// Estimated area of realizing a match. For exact (tree) matches the
/// estimate is exact: a multi-fanout leaf is a shared tree root whose cost
/// is accounted once at that root, so it contributes 0 here. For
/// standard/extended matches sharing is approximated by dividing each
/// leaf's cost by its fanout count (area flow).
fn area_of_leaves(
    flat: &FlatNet,
    library: &Library,
    area_flow: &[f64],
    gate: GateId,
    leaves: &[NodeId],
    mode: MatchMode,
) -> f64 {
    let mut a = library.gate(gate).area();
    for leaf in leaves {
        let fanouts = flat.fanout_count(*leaf);
        let contribution = match mode {
            MatchMode::Exact => {
                if fanouts > 1 {
                    0.0
                } else {
                    area_flow[leaf.index()]
                }
            }
            MatchMode::Standard | MatchMode::Extended => {
                area_flow[leaf.index()] / fanouts.max(1) as f64
            }
        };
        a += contribution;
    }
    a
}

/// Largest internal-node count over the library's expanded patterns — the
/// per-match bound on `covered.len()`.
fn max_pattern_internal(library: &Library) -> usize {
    library
        .patterns()
        .iter()
        .map(|p| p.graph.num_internal())
        .max()
        .unwrap_or(0)
}

/// Reusable incumbent of one node's match selection. The leaf/covered
/// buffers are sized once from the library's pattern bounds, so keeping a
/// better match is a couple of `memcpy`s — never an allocation. This
/// replaces the former per-improvement [`MatchView::to_match`] call, which
/// allocated two `Vec`s every time the incumbent changed.
pub(crate) struct ChosenBuf {
    pub(crate) t: f64,
    pub(crate) af: f64,
    pins: usize,
    pub(crate) sel: Option<(GateId, Option<PatternId>)>,
    pub(crate) leaves: Vec<NodeId>,
    pub(crate) covered: Vec<NodeId>,
}

impl ChosenBuf {
    pub(crate) fn new(library: &Library) -> ChosenBuf {
        ChosenBuf {
            t: 0.0,
            af: 0.0,
            pins: 0,
            sel: None,
            leaves: Vec::with_capacity(library.max_gate_inputs()),
            covered: Vec::with_capacity(max_pattern_internal(library)),
        }
    }

    fn clear(&mut self) {
        self.sel = None;
    }

    fn keep(&mut self, t: f64, af: f64, sm: &SourceMatch<'_>) {
        self.t = t;
        self.af = af;
        self.pins = sm.leaves.len();
        self.sel = Some((sm.gate, sm.pattern));
        self.leaves.clear();
        self.leaves.extend_from_slice(sm.leaves);
        self.covered.clear();
        self.covered.extend_from_slice(sm.covered);
    }
}

/// Per-run selection storage: one `(gate, pattern)` plus leaf/covered
/// ranges per node, backed by two pools with exact upfront capacity (every
/// gate commits at most once, bounded by the library's pattern sizes).
/// Committing a selection is therefore allocation-free; the public
/// `Vec<Option<Match>>` shape of [`Labels::best`] is materialized once at
/// the end of the pass.
pub(crate) struct SelectionArena {
    sel: Vec<Option<(GateId, Option<PatternId>)>>,
    leaf_range: Vec<(u32, u32)>,
    cov_range: Vec<(u32, u32)>,
    leaves: Vec<NodeId>,
    covered: Vec<NodeId>,
}

impl SelectionArena {
    pub(crate) fn new(library: &Library, flat: &FlatNet) -> SelectionArena {
        let n = flat.num_nodes();
        let gates = flat.kinds().iter().filter(|&&k| k != KIND_SOURCE).count();
        SelectionArena {
            sel: vec![None; n],
            leaf_range: vec![(0, 0); n],
            cov_range: vec![(0, 0); n],
            leaves: Vec::with_capacity(gates * library.max_gate_inputs()),
            covered: Vec::with_capacity(gates * max_pattern_internal(library)),
        }
    }

    pub(crate) fn commit(
        &mut self,
        id: NodeId,
        sel: (GateId, Option<PatternId>),
        leaves: &[NodeId],
        covered: &[NodeId],
    ) {
        let i = id.index();
        self.sel[i] = Some(sel);
        let ls = self.leaves.len() as u32;
        self.leaves.extend_from_slice(leaves);
        self.leaf_range[i] = (ls, self.leaves.len() as u32);
        let cs = self.covered.len() as u32;
        self.covered.extend_from_slice(covered);
        self.cov_range[i] = (cs, self.covered.len() as u32);
    }

    pub(crate) fn into_best(self) -> Vec<Option<Match>> {
        let SelectionArena {
            sel,
            leaf_range,
            cov_range,
            leaves,
            covered,
        } = self;
        sel.into_iter()
            .enumerate()
            .map(|(i, s)| {
                s.map(|(gate, pattern)| {
                    let (ls, le) = leaf_range[i];
                    let (cs, ce) = cov_range[i];
                    Match {
                        gate,
                        pattern,
                        leaves: leaves[ls as usize..le as usize].to_vec(),
                        covered: covered[cs as usize..ce as usize].to_vec(),
                    }
                })
            })
            .collect()
    }
}

/// The per-node step of the dynamic program: enumerate matches rooted at
/// `id` through the source and keep the winner in `chosen` (left unset
/// when nothing matches).
///
/// Reads only `arrival`/`area_flow` of the match leaves, which lie at lower
/// levels and are therefore labeled already.
#[allow(clippy::too_many_arguments)]
pub(crate) fn evaluate_node<S: MatchSource>(
    subject: &SubjectGraph,
    source: &S,
    objective: Objective,
    arrival: &[f64],
    area_flow: &[f64],
    id: NodeId,
    kit: &mut S::Kit,
    chosen: &mut ChosenBuf,
) -> MatchStats {
    let flat = subject.flat();
    let library = source.library();
    let mode = source.mode();
    chosen.clear();
    let mut on_match = |sm: SourceMatch<'_>| {
        let t = arrival_of_leaves(library, arrival, sm.gate, sm.leaves);
        let af = area_of_leaves(flat, library, area_flow, sm.gate, sm.leaves, mode);
        let pins = sm.leaves.len();
        let better = match chosen.sel {
            None => true,
            Some(_) => {
                let (bt, ba, bp) = (chosen.t, chosen.af, chosen.pins);
                match objective {
                    Objective::Delay => {
                        t < bt - EPS
                            || (t < bt + EPS && af < ba - EPS)
                            || (t < bt + EPS && (af - ba).abs() <= EPS && pins < bp)
                    }
                    Objective::Area => {
                        af < ba - EPS
                            || (af < ba + EPS && t < bt - EPS)
                            || (af < ba + EPS && (t - bt).abs() <= EPS && pins < bp)
                    }
                }
            }
        };
        if better {
            chosen.keep(t, af, &sm);
        }
    };
    source.for_each_match(subject, id, kit, &mut on_match)
}

/// Runs the labeling pass: the paper's dynamic program over the subject
/// graph, with candidate matches drawn from `source`.
///
/// The structural pattern matcher ([`crate::StructuralSource`]) and Boolean
/// matching (`dagmap-boolmatch`) both feed this one entry point, so the
/// `label` obs span, the per-level `label.wave` spans and the match
/// counters behave the same for every source.
///
/// # Errors
///
/// Returns [`MapError::NoMatch`] if the source reports no match for some
/// internal node — for the structural source, when the library lacks a
/// bare inverter or NAND2. The reported node is the first failure in
/// level order.
pub fn label<S: MatchSource>(
    subject: &SubjectGraph,
    source: &S,
    objective: Objective,
) -> Result<Labels, MapError> {
    let flat = subject.flat();
    let mappable = flat.kinds().iter().filter(|&&k| k != KIND_SOURCE).count();
    let mut obs_span = dagmap_obs::span("label");
    if obs_span.is_recording() {
        obs_span.set_u64("levels", flat.num_levels() as u64);
        obs_span.set_u64("mappable", mappable as u64);
    }
    let result = label_levels(subject, source, objective);
    if dagmap_obs::enabled() {
        if let Ok(labels) = &result {
            record_label_counts(mappable, &labels.stats);
        }
    }
    result
}

fn record_label_counts(mappable: usize, stats: &MatchStats) {
    dagmap_obs::count("label.nodes", mappable as u64);
    dagmap_obs::count("match.enumerated", stats.enumerated as u64);
    dagmap_obs::count("match.pruned", stats.pruned as u64);
    dagmap_obs::count("match.memo_lookups", stats.memo_lookups as u64);
    dagmap_obs::count("match.memo_hits", stats.memo_hits as u64);
    dagmap_obs::count("match.memo_id_hits", stats.memo_id_hits as u64);
    dagmap_obs::count("match.words", stats.words as u64);
    dagmap_obs::count("match.candidate_bits", stats.candidate_bits as u64);
}

fn label_levels<S: MatchSource>(
    subject: &SubjectGraph,
    source: &S,
    objective: Objective,
) -> Result<Labels, MapError> {
    let flat = subject.flat();
    let n = flat.num_nodes();
    let library = source.library();
    let mut arrival = vec![0.0f64; n];
    let mut area_flow = vec![0.0f64; n];
    let mut arena = SelectionArena::new(library, flat);
    let mut stats = MatchStats::default();
    let mut kit = source.make_kit(subject);
    let mut chosen = ChosenBuf::new(library);
    let metering = allocmeter::installed();
    let mut wave_allocs: Vec<usize> =
        Vec::with_capacity(if metering { flat.num_levels() } else { 0 });

    // Level groups enumerate the nodes in a topological order.
    for l in 0..flat.num_levels() {
        let group = flat.level_group(l);
        let mut wave = dagmap_obs::span("label.wave");
        if wave.is_recording() {
            wave.set_u64("level", l as u64);
            let width = group.iter().filter(|&&id| flat.is_gate(id)).count();
            wave.set_u64("nodes", width as u64);
        }
        let before = allocmeter::reading();
        for &id in group {
            if !flat.is_gate(id) {
                continue;
            }
            stats.absorb(evaluate_node(
                subject,
                source,
                objective,
                &arrival,
                &area_flow,
                id,
                &mut kit,
                &mut chosen,
            ));
            match chosen.sel {
                Some(sel) => {
                    arrival[id.index()] = chosen.t;
                    area_flow[id.index()] = chosen.af;
                    arena.commit(id, sel, &chosen.leaves, &chosen.covered);
                }
                None => return Err(MapError::NoMatch { node: id }),
            }
        }
        if let (Some(b), Some(a)) = (before, allocmeter::reading()) {
            wave_allocs.push(a - b);
        }
    }
    Ok(Labels {
        arrival,
        area_flow,
        best: arena.into_best(),
        stats,
        levels: flat.num_levels(),
        wave_allocs,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::source::StructuralSource;
    use dagmap_match::MatchConfig;
    use dagmap_netlist::Network;

    fn chain_subject(n: usize) -> SubjectGraph {
        let mut net = Network::new("chain");
        let mut cur = net.add_input("a");
        let b = net.add_input("b");
        for i in 0..n {
            cur = if i % 2 == 0 {
                net.add_node(NodeFn::Nand, vec![cur, b]).unwrap()
            } else {
                net.add_node(NodeFn::Not, vec![cur]).unwrap()
            };
        }
        net.add_output("f", cur);
        SubjectGraph::from_subject_network(net).unwrap()
    }

    fn label_lib(
        subject: &SubjectGraph,
        lib: &Library,
        mode: MatchMode,
        objective: Objective,
    ) -> Result<Labels, MapError> {
        let source = StructuralSource::new(lib, mode, MatchConfig::default(), None);
        label(subject, &source, objective)
    }

    #[test]
    fn minimal_library_labels_equal_weighted_depth() {
        let subject = chain_subject(6);
        let lib = Library::minimal();
        let labels = label_lib(&subject, &lib, MatchMode::Standard, Objective::Delay).unwrap();
        // With only inv/nand2 (delay 1 each), arrival = unit depth.
        assert_eq!(labels.critical_delay(&subject), 6.0);
        assert_eq!(labels.levels, 7, "six gates + the source level");
    }

    #[test]
    fn monotone_in_match_strength() {
        // Standard matches can only improve on exact matches.
        let subject = chain_subject(5);
        let lib = Library::lib2_like();
        let exact = label_lib(&subject, &lib, MatchMode::Exact, Objective::Delay).unwrap();
        let std = label_lib(&subject, &lib, MatchMode::Standard, Objective::Delay).unwrap();
        let ext = label_lib(&subject, &lib, MatchMode::Extended, Objective::Delay).unwrap();
        assert!(std.critical_delay(&subject) <= exact.critical_delay(&subject) + 1e-9);
        assert!(ext.critical_delay(&subject) <= std.critical_delay(&subject) + 1e-9);
    }

    #[test]
    fn missing_inverter_is_reported() {
        use dagmap_genlib::Gate;
        let subject = chain_subject(3);
        let lib = Library::new(
            "no_inv",
            vec![Gate::uniform("nand2", 2.0, "O", "!(a*b)", 1.0).unwrap()],
        )
        .unwrap();
        let err = label_lib(&subject, &lib, MatchMode::Standard, Objective::Delay).unwrap_err();
        assert!(matches!(err, MapError::NoMatch { .. }));
    }

    #[test]
    fn counts_enumerated_matches() {
        let subject = chain_subject(4);
        let lib = Library::lib2_like();
        let labels = label_lib(&subject, &lib, MatchMode::Standard, Objective::Delay).unwrap();
        let stats = labels.stats;
        assert!(stats.enumerated >= 4);
        // The batched kernel evaluated at least one candidate word per
        // mappable node. Candidate bits are surviving *patterns*, each of
        // which may bind several ways, so they bound the words, not the
        // match count.
        assert!(stats.words >= 4);
        assert!(stats.candidate_bits > 0);
        assert!(stats.candidate_bits <= stats.words * 64);
    }

    #[test]
    fn area_objective_prefers_smaller_covers() {
        // A chain of ANDs: the delay objective may pick fast wide gates;
        // the area objective must end at or below its area estimate.
        let mut net = Network::new("a");
        let mut cur = net.add_input("x");
        for i in 0..6 {
            let y = net.add_input(format!("y{i}"));
            cur = net.add_node(NodeFn::And, vec![cur, y]).unwrap();
        }
        net.add_output("f", cur);
        let subject = SubjectGraph::from_network(&net).unwrap();
        let lib = Library::lib2_like();
        let delay_l = label_lib(&subject, &lib, MatchMode::Exact, Objective::Delay).unwrap();
        let area_l = label_lib(&subject, &lib, MatchMode::Exact, Objective::Area).unwrap();
        let root = subject.network().outputs()[0].driver;
        assert!(area_l.area_flow[root.index()] <= delay_l.area_flow[root.index()] + 1e-9);
        assert!(delay_l.arrival_of(root) <= area_l.arrival_of(root) + 1e-9);
    }
}
