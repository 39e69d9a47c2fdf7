//! Independent checks on mapped netlists.
//!
//! Every experiment in the repository funnels its mappings through these:
//! functional equivalence against the subject graph by seeded word-parallel
//! random simulation, and timing consistency between the arrivals stored at
//! construction time and a from-scratch recomputation.
//!
//! The equivalence check compiles both sides once into flat arrays and
//! evaluates 64 vectors per pass: the golden network as a topological list
//! of NAND2/INV steps (other functions through [`NodeFn::eval_words`]), the
//! mapped netlist as one slot per constant, input, latch and cell, each
//! cell running its gate's [`GateProgram`]. It draws the same vectors from
//! the same seed as [`netlist::sim`](dagmap_netlist::sim), which stays the
//! independent reference it is tested against.

use std::fmt;

use dagmap_genlib::{GateProgram, EXHAUSTIVE_WORDS};
use dagmap_netlist::{NetlistError, Network, NodeFn, NodeId, SubjectGraph};

use crate::{MapError, MappedNetlist, Signal};

/// Absolute floor of the timing comparison tolerance.
const TIMING_ABS_TOL: f64 = 1e-9;
/// Relative component: arrivals accumulated over hundreds of gate delays
/// (supergate-priced libraries especially) drift by a few ULPs per addition
/// when the recomputation associates the sums differently.
const TIMING_REL_TOL: f64 = 1e-12;

/// Mixed absolute/relative closeness for arrival times: an absolute epsilon
/// alone trips spuriously once the magnitudes grow past ~1e3 gate delays.
fn arrivals_close(a: f64, b: f64) -> bool {
    (a - b).abs() <= TIMING_ABS_TOL + TIMING_REL_TOL * a.abs().max(b.abs())
}

/// One invariant violation found by [`report`], machine-readable so the
/// differential fuzzer can classify, minimize and replay it.
#[derive(Debug, Clone, PartialEq)]
pub enum Violation {
    /// A cell's stored arrival disagrees with the from-scratch recomputation
    /// beyond the mixed absolute/relative tolerance.
    TimingDrift {
        /// Index of the offending cell.
        cell: usize,
        /// Arrival recorded at construction time.
        stored: f64,
        /// Independently recomputed arrival.
        recomputed: f64,
    },
    /// The mapped netlist computes a different function than the golden
    /// network on at least one simulated vector.
    NotEquivalent {
        /// Seed of the random simulation that exposed the mismatch.
        seed: u64,
    },
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Violation::TimingDrift {
                cell,
                stored,
                recomputed,
            } => write!(
                f,
                "cell {cell}: stored arrival {stored} disagrees with recomputation {recomputed}"
            ),
            Violation::NotEquivalent { seed } => {
                write!(
                    f,
                    "mapped netlist is not equivalent to its subject graph (sim seed {seed})"
                )
            }
        }
    }
}

/// Clock cycles simulated per round when the golden network has latches;
/// every round restarts from the all-zero state.
const SEQUENTIAL_CYCLES: usize = 16;

/// Checks the mapped netlist against a golden network (the subject graph or
/// the pre-decomposition network) on `rounds * 64` random vectors, or on
/// `rounds` streams of 16 clock cycles when the golden network has
/// latches. Inputs and outputs pair by name. Round 0 enumerates every
/// input pattern when there are at most six inputs.
///
/// The vectors are exactly those of `netlist::sim::equivalent_random`
/// (`equivalent_random_sequential` for sequential networks) with the same
/// seed, so both give the same verdict.
///
/// # Errors
///
/// Fails if the netlists' interfaces cannot be paired by name or the golden
/// network is cyclic.
pub fn equivalent(
    mapped: &MappedNetlist,
    golden: &Network,
    rounds: usize,
    seed: u64,
) -> Result<bool, MapError> {
    let (positions, outputs) = align(mapped, golden)?;
    let mut gold = GoldenSim::new(golden)?;
    let mut sim = MappedSim::new(mapped);
    let n = positions.len();
    let cycles = if golden.num_latches() > 0 {
        SEQUENTIAL_CYCLES
    } else {
        1
    };
    let mut rng = SplitMix64(seed);
    let mut words = vec![0u64; n];
    for round in 0..rounds.max(1) {
        gold.reset();
        sim.reset();
        for cycle in 0..cycles {
            if round == 0 && cycle == 0 && n <= EXHAUSTIVE_WORDS.len() {
                words.copy_from_slice(&EXHAUSTIVE_WORDS[..n]);
            } else {
                words.iter_mut().for_each(|w| *w = rng.next_u64());
            }
            gold.eval(&words);
            sim.eval(&words, &positions);
            if outputs.iter().any(|&(g, m)| gold.values[g] != sim.slots[m]) {
                return Ok(false);
            }
            gold.clock();
            sim.clock();
        }
    }
    Ok(true)
}

/// The splitmix64 stream of `netlist::sim`, so a seed names the same
/// vectors in both checkers.
struct SplitMix64(u64);

impl SplitMix64 {
    fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }
}

/// For each golden input (in order) the position of the mapped input of
/// that name, and for each golden output its (golden node, mapped slot).
type Alignment = (Vec<usize>, Vec<(usize, usize)>);

/// Pairs the interfaces by name. Errors match `netlist::sim`'s.
fn align(mapped: &MappedNetlist, golden: &Network) -> Result<Alignment, NetlistError> {
    if golden.inputs().len() != mapped.inputs.len() {
        return Err(NetlistError::Invariant(format!(
            "input counts differ: {} vs {}",
            golden.inputs().len(),
            mapped.inputs.len()
        )));
    }
    let mut positions = Vec::with_capacity(mapped.inputs.len());
    for &gi in golden.inputs() {
        let name = golden.node(gi).name().expect("primary inputs are named");
        let pos = mapped
            .inputs
            .iter()
            .position(|x| x == name)
            .ok_or_else(|| NetlistError::UndefinedSignal(name.to_owned()))?;
        positions.push(pos);
    }
    if golden.outputs().len() != mapped.outputs.len() {
        return Err(NetlistError::Invariant(format!(
            "output counts differ: {} vs {}",
            golden.outputs().len(),
            mapped.outputs.len()
        )));
    }
    let mut outs = Vec::with_capacity(mapped.outputs.len());
    for go in golden.outputs() {
        let &(_, sig) = mapped
            .outputs
            .iter()
            .find(|(name, _)| *name == go.name)
            .ok_or_else(|| NetlistError::UndefinedSignal(go.name.clone()))?;
        outs.push((go.driver.index(), MappedSim::slot(mapped, sig)));
    }
    Ok((positions, outs))
}

/// One evaluation step of the golden network, in topological order.
#[derive(Clone, Copy)]
enum Step {
    Inv {
        out: u32,
        a: u32,
    },
    Nand2 {
        out: u32,
        a: u32,
        b: u32,
    },
    /// Any other function, through `NodeFn::eval_words`.
    Node(NodeId),
}

/// The golden network compiled to topological arrays, one value word per
/// node. Constants are written once; latches hold state.
struct GoldenSim<'a> {
    net: &'a Network,
    inputs: Vec<usize>,
    steps: Vec<Step>,
    /// (latch node, data node).
    latches: Vec<(usize, usize)>,
    values: Vec<u64>,
    fanin_words: Vec<u64>,
    next_state: Vec<u64>,
}

impl<'a> GoldenSim<'a> {
    fn new(net: &'a Network) -> Result<Self, NetlistError> {
        let idx = |i: usize| u32::try_from(i).expect("node count fits u32");
        let mut values = vec![0u64; net.num_nodes()];
        let mut steps = Vec::with_capacity(net.num_nodes());
        let mut latches = Vec::new();
        for id in net.topo_order()? {
            let node = net.node(id);
            let (out, fanins) = (id.index(), node.fanins());
            match node.func() {
                NodeFn::Input => {}
                NodeFn::Latch => latches.push((out, fanins[0].index())),
                NodeFn::Const(v) => values[out] = if *v { u64::MAX } else { 0 },
                NodeFn::Not => steps.push(Step::Inv {
                    out: idx(out),
                    a: idx(fanins[0].index()),
                }),
                NodeFn::Nand if fanins.len() == 2 => steps.push(Step::Nand2 {
                    out: idx(out),
                    a: idx(fanins[0].index()),
                    b: idx(fanins[1].index()),
                }),
                _ => steps.push(Step::Node(id)),
            }
        }
        Ok(GoldenSim {
            net,
            inputs: net.inputs().iter().map(|id| id.index()).collect(),
            steps,
            next_state: vec![0; latches.len()],
            latches,
            values,
            fanin_words: Vec::new(),
        })
    }

    fn reset(&mut self) {
        for &(latch, _) in &self.latches {
            self.values[latch] = 0;
        }
    }

    fn eval(&mut self, words: &[u64]) {
        for (&node, &w) in self.inputs.iter().zip(words) {
            self.values[node] = w;
        }
        let v = &mut self.values;
        for &step in &self.steps {
            match step {
                Step::Inv { out, a } => v[out as usize] = !v[a as usize],
                Step::Nand2 { out, a, b } => v[out as usize] = !(v[a as usize] & v[b as usize]),
                Step::Node(id) => {
                    let node = self.net.node(id);
                    self.fanin_words.clear();
                    self.fanin_words
                        .extend(node.fanins().iter().map(|f| v[f.index()]));
                    v[id.index()] = node.func().eval_words(&self.fanin_words);
                }
            }
        }
    }

    /// One clock edge: every latch loads its data word, all at once.
    fn clock(&mut self) {
        for (next, &(_, data)) in self.next_state.iter_mut().zip(&self.latches) {
            *next = self.values[data];
        }
        for (&next, &(latch, _)) in self.next_state.iter().zip(&self.latches) {
            self.values[latch] = next;
        }
    }
}

/// The mapped netlist compiled to one value slot per signal: the two
/// constants, then inputs, latches and cells in their stored (topological)
/// order. Each cell runs its gate kind's program over its fanin slots.
struct MappedSim {
    programs: Vec<GateProgram>,
    /// Gate kind per cell.
    kinds: Vec<u32>,
    /// Cell `c` reads the slots `fanins[starts[c]..starts[c + 1]]`.
    starts: Vec<u32>,
    fanins: Vec<u32>,
    latch_data: Vec<usize>,
    latch_base: usize,
    cell_base: usize,
    slots: Vec<u64>,
    next_state: Vec<u64>,
}

impl MappedSim {
    const INPUT_BASE: usize = 2;

    fn slot(mapped: &MappedNetlist, sig: Signal) -> usize {
        let latch_base = Self::INPUT_BASE + mapped.inputs.len();
        match sig {
            Signal::Const(v) => usize::from(v),
            Signal::Input(i) => Self::INPUT_BASE + i as usize,
            Signal::Latch(l) => latch_base + l as usize,
            Signal::Cell(c) => latch_base + mapped.latches.len() + c as usize,
        }
    }

    fn new(mapped: &MappedNetlist) -> Self {
        let programs = mapped
            .gate_kinds
            .iter()
            .map(|k| GateProgram::compile(&k.expr, &k.pin_names))
            .collect();
        let slot32 = |sig| u32::try_from(Self::slot(mapped, sig)).expect("slot fits u32");
        let mut starts = vec![0];
        let mut fanins = Vec::new();
        for cell in &mapped.cells {
            fanins.extend(cell.fanins.iter().map(|&f| slot32(f)));
            starts.push(u32::try_from(fanins.len()).expect("fanin count fits u32"));
        }
        let latch_base = Self::INPUT_BASE + mapped.inputs.len();
        let cell_base = latch_base + mapped.latches.len();
        let mut slots = vec![0u64; cell_base + mapped.cells.len()];
        slots[1] = u64::MAX;
        MappedSim {
            programs,
            kinds: mapped.cells.iter().map(|c| c.kind).collect(),
            starts,
            fanins,
            latch_data: mapped
                .latches
                .iter()
                .map(|&(_, d)| Self::slot(mapped, d))
                .collect(),
            latch_base,
            cell_base,
            slots,
            next_state: vec![0; mapped.latches.len()],
        }
    }

    fn reset(&mut self) {
        self.slots[self.latch_base..self.cell_base].fill(0);
    }

    /// Evaluates every cell; golden input `i` drives mapped input
    /// `positions[i]`.
    fn eval(&mut self, words: &[u64], positions: &[usize]) {
        for (&pos, &w) in positions.iter().zip(words) {
            self.slots[Self::INPUT_BASE + pos] = w;
        }
        for (c, &kind) in self.kinds.iter().enumerate() {
            let pins = &self.fanins[self.starts[c] as usize..self.starts[c + 1] as usize];
            let slots = &self.slots;
            let word = self.programs[kind as usize].eval(|p| slots[pins[p] as usize], u64::MAX);
            self.slots[self.cell_base + c] = word;
        }
    }

    /// One clock edge: every latch loads its data word, all at once.
    fn clock(&mut self) {
        for (next, &data) in self.next_state.iter_mut().zip(&self.latch_data) {
            *next = self.slots[data];
        }
        self.slots[self.latch_base..self.cell_base].copy_from_slice(&self.next_state);
    }
}

/// Checks that the stored arrival times match an independent recomputation
/// under the mixed absolute/relative tolerance.
pub fn timing_consistent(mapped: &MappedNetlist) -> bool {
    timing_violations(mapped).is_empty()
}

/// Every cell whose stored arrival drifted from the recomputation.
pub fn timing_violations(mapped: &MappedNetlist) -> Vec<Violation> {
    mapped
        .recompute_arrivals()
        .iter()
        .enumerate()
        .filter(|&(i, &t)| !arrivals_close(t, mapped.cell_arrival(i)))
        .map(|(i, &t)| Violation::TimingDrift {
            cell: i,
            stored: mapped.cell_arrival(i),
            recomputed: t,
        })
        .collect()
}

/// Runs the full battery and returns *every* violation found, rather than
/// erroring on the first: the fuzzer wants the complete picture per case.
///
/// # Errors
///
/// Fails only on substrate errors (unpairable interfaces, cyclic netlists) —
/// an invariant *violation* is data, not an error.
pub fn report(
    mapped: &MappedNetlist,
    subject: &SubjectGraph,
    seed: u64,
) -> Result<Vec<Violation>, MapError> {
    let _span = dagmap_obs::span("verify");
    let mut violations = timing_violations(mapped);
    if !equivalent(mapped, subject.network(), 32, seed)? {
        violations.push(Violation::NotEquivalent { seed });
    }
    Ok(violations)
}

/// Runs the full battery: equivalence against the subject graph and timing
/// consistency.
///
/// # Errors
///
/// Returns a descriptive [`MapError::Netlist`] wrapping the first failed
/// check.
pub fn check(mapped: &MappedNetlist, subject: &SubjectGraph, seed: u64) -> Result<(), MapError> {
    match report(mapped, subject, seed)?.into_iter().next() {
        None => Ok(()),
        Some(v) => Err(MapError::Netlist(dagmap_netlist::NetlistError::Invariant(
            v.to_string(),
        ))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{MapOptions, Mapper};
    use dagmap_genlib::Library;
    use dagmap_netlist::{Network, NodeFn};

    #[test]
    fn full_check_passes_for_all_modes() {
        let mut net = Network::new("t");
        let a = net.add_input("a");
        let b = net.add_input("b");
        let c = net.add_input("c");
        let x = net.add_node(NodeFn::Xor, vec![a, b]).unwrap();
        let y = net.add_node(NodeFn::And, vec![x, c]).unwrap();
        let z = net.add_node(NodeFn::Or, vec![x, y]).unwrap();
        net.add_output("f", z);
        let subject = SubjectGraph::from_network(&net).unwrap();
        let lib = Library::lib2_like();
        let mapper = Mapper::new(&lib);
        for opts in [
            MapOptions::dag(),
            MapOptions::tree(),
            MapOptions::dag_extended(),
            MapOptions::dag().with_area_recovery(),
        ] {
            let mapped = mapper.map(&subject, opts).unwrap();
            check(&mapped, &subject, 17).unwrap();
        }
    }

    #[test]
    fn deep_supergate_chain_stays_timing_consistent() {
        // A long NAND chain mapped with a library whose gates carry
        // non-representable delays (0.1 + 1/3): arrivals accumulate to the
        // hundreds, where the old absolute-only 1e-9 epsilon sat within
        // float reassociation noise. The mixed tolerance must not trip.
        use dagmap_genlib::Gate;
        let mut net = Network::new("chain");
        let mut cur = net.add_input("x0");
        for i in 0..400 {
            let y = net.add_input(format!("y{i}"));
            cur = net.add_node(NodeFn::Nand, vec![cur, y]).unwrap();
        }
        net.add_output("f", cur);
        let subject = SubjectGraph::from_network(&net).unwrap();
        let awkward = 0.1 + 1.0 / 3.0;
        let library = Library::new(
            "awkward",
            vec![
                Gate::uniform("inv", 1.0, "O", "!a", awkward).unwrap(),
                Gate::uniform("nand2", 2.0, "O", "!(a*b)", awkward).unwrap(),
                Gate::uniform("chain3", 5.0, "O", "!(!(!(a*b)*c)*d)", 2.5 * awkward).unwrap(),
            ],
        )
        .unwrap();
        let mapped = Mapper::new(&library)
            .map(&subject, MapOptions::dag())
            .unwrap();
        assert!(mapped.delay() > 50.0, "chain is deep enough to stress sums");
        assert!(
            timing_violations(&mapped).is_empty(),
            "mixed tolerance must absorb reassociation noise: {:?}",
            timing_violations(&mapped).first()
        );
    }

    #[test]
    fn mixed_tolerance_still_rejects_real_drift() {
        assert!(arrivals_close(1234.5, 1234.5 + 5e-10));
        assert!(arrivals_close(1e6, 1e6 * (1.0 + 1e-13)));
        assert!(!arrivals_close(10.0, 10.1));
        assert!(!arrivals_close(1e6, 1e6 + 1.0));
    }

    #[test]
    fn sequential_mapping_checks_out() {
        let mut net = Network::new("seq");
        let a = net.add_input("a");
        let l = net.add_node(NodeFn::Latch, vec![a]).unwrap();
        net.set_node_name(l, "q");
        let x = net.add_node(NodeFn::Xor, vec![l, a]).unwrap();
        net.add_output("f", x);
        let subject = SubjectGraph::from_network(&net).unwrap();
        let lib = Library::lib2_like();
        let mapped = Mapper::new(&lib).map(&subject, MapOptions::dag()).unwrap();
        check(&mapped, &subject, 5).unwrap();
    }
}
