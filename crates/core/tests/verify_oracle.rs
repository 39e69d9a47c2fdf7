//! Differential oracle for the compiled equivalence check.
//!
//! `verify::equivalent` evaluates a mapped netlist directly over flat slot
//! arrays. `netlist::sim` stays the independent reference: it simulates the
//! netlist lowered back to a generic `Network`. With the same seed and
//! round count both must return the same verdict on every case below, and
//! the same error when the interfaces cannot be paired.

use std::path::Path;

use dagmap_benchgen as benchgen;
use dagmap_core::{verify, Cell, GateKind, MapError, MapOptions, MappedNetlist, Mapper, Signal};
use dagmap_genlib::{Expr, Library};
use dagmap_netlist::{blif, sim, NetlistError, Network, NodeFn, SubjectGraph};

const ROUNDS: usize = 32;

/// The reference verdict: lower the netlist, then simulate both sides with
/// `netlist::sim` (the sequential checker when the golden side has
/// latches, 16 cycles per round as in `verify`).
fn reference(
    m: &MappedNetlist,
    golden: &Network,
    rounds: usize,
    seed: u64,
) -> Result<bool, NetlistError> {
    let lowered = m.to_network()?;
    if golden.num_latches() > 0 {
        sim::equivalent_random_sequential(golden, &lowered, 16, rounds, seed)
    } else {
        sim::equivalent_random(golden, &lowered, rounds, seed)
    }
}

/// Asserts both checkers agree and returns the shared verdict (`None` when
/// both reported the same interface error).
fn agreed(m: &MappedNetlist, golden: &Network, seed: u64, what: &str) -> Option<bool> {
    agreed_in(m, golden, ROUNDS, seed, what)
}

fn agreed_in(
    m: &MappedNetlist,
    golden: &Network,
    rounds: usize,
    seed: u64,
    what: &str,
) -> Option<bool> {
    match (
        verify::equivalent(m, golden, rounds, seed),
        reference(m, golden, rounds, seed),
    ) {
        (Ok(fast), Ok(slow)) => {
            assert_eq!(fast, slow, "{what} (seed {seed:#x}): verdicts differ");
            Some(fast)
        }
        (Err(MapError::Netlist(fast)), Err(slow)) => {
            assert_eq!(fast, slow, "{what}: errors differ");
            None
        }
        (fast, slow) => panic!("{what}: verify gave {fast:?}, sim gave {slow:?}"),
    }
}

#[derive(Clone, Copy, Debug)]
enum Mode {
    Dag,
    Tree,
    Recover,
    Hybrid,
}

fn map(subject: &SubjectGraph, lib: &Library, mode: Mode) -> MappedNetlist {
    let mapper = Mapper::new(lib);
    match mode {
        Mode::Dag => mapper.map(subject, MapOptions::dag()),
        Mode::Tree => mapper.map(subject, MapOptions::tree()),
        Mode::Recover => mapper.map(subject, MapOptions::dag().with_area_recovery()),
        Mode::Hybrid => dagmap_boolmatch::map_hybrid(subject, lib, 4),
    }
    .unwrap_or_else(|e| panic!("{mode:?} maps: {e}"))
}

/// Every mode on both libraries, each mapping checked against the subject
/// graph and against the generic pre-decomposition network, under two
/// seeds.
fn check_all_modes(name: &str, net: &Network) {
    let subject = SubjectGraph::from_network(net).expect("decomposes");
    for lib in [Library::lib2_like(), Library::lib_44_3_like()] {
        for mode in [Mode::Dag, Mode::Tree, Mode::Recover, Mode::Hybrid] {
            let m = map(&subject, &lib, mode);
            for seed in [0x5eed, 0xC11] {
                let what = format!("{name} on {} ({mode:?})", lib.name());
                assert_eq!(agreed(&m, subject.network(), seed, &what), Some(true));
                assert_eq!(agreed(&m, net, seed, &what), Some(true));
            }
        }
    }
}

#[test]
fn benchgen_circuits_agree_across_libraries_and_modes() {
    let circuits = [
        ("ripple_adder8", benchgen::ripple_adder(8)),
        ("carry_select8", benchgen::carry_select_adder(8)),
        ("kogge_stone16", benchgen::kogge_stone_adder(16)),
        ("comparator8", benchgen::comparator(8)),
        ("alu4", benchgen::alu(4)),
        ("array_mult4", benchgen::array_multiplier(4)),
        ("parity9", benchgen::parity_tree(9)),
        ("mux_tree3", benchgen::mux_tree(3)),
        ("barrel8", benchgen::barrel_shifter(8)),
        ("priority8", benchgen::priority_encoder(8)),
        ("random", benchgen::random_network(12, 80, 7)),
    ];
    for (name, net) in &circuits {
        check_all_modes(name, net);
    }
}

#[test]
fn tiny_interfaces_take_the_exhaustive_round() {
    for (name, net) in [
        ("ripple_adder2", benchgen::ripple_adder(2)),
        ("decoder2", benchgen::decoder(2)),
        ("mux_tree2", benchgen::mux_tree(2)),
        ("parity3", benchgen::parity_tree(3)),
    ] {
        assert!(net.inputs().len() <= 6, "{name} is a tiny interface");
        check_all_modes(name, &net);
    }
}

#[test]
fn sequential_circuits_agree() {
    let circuits = [
        ("s27", benchgen::s27_like()),
        ("s208", benchgen::s208_like()),
        ("counter4", benchgen::counter(4)),
        ("lfsr5", benchgen::lfsr(5)),
        ("shift4", benchgen::shift_register(4)),
        ("accumulator4", benchgen::accumulator(4)),
        ("fsm", benchgen::fsm(3, 2, 20, 11)),
    ];
    for (name, net) in &circuits {
        assert!(net.num_latches() > 0);
        check_all_modes(name, net);
    }
}

#[test]
fn fuzz_cases_and_corpus_agree() {
    let mut nets: Vec<(String, Network)> = (0..24)
        .map(|i| {
            let case = dagmap_fuzz::generate_case(1729, i, 40);
            (format!("case {i} ({})", case.generator), case.network)
        })
        .collect();
    let corpus = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../tests/corpus");
    if let Ok(entries) = std::fs::read_dir(&corpus) {
        let mut paths: Vec<_> = entries
            .filter_map(|e| e.ok().map(|e| e.path()))
            .filter(|p| p.extension().is_some_and(|x| x == "blif"))
            .collect();
        paths.sort();
        for p in paths {
            let text = std::fs::read_to_string(&p).expect("corpus file reads");
            nets.push((p.display().to_string(), blif::parse(&text).expect("parses")));
        }
    }
    for (name, net) in &nets {
        check_all_modes(name, net);
    }
}

#[test]
fn constant_and_wire_outputs_agree() {
    let mut net = Network::new("consts");
    let a = net.add_input("a");
    let b = net.add_input("b");
    let one = net.add_node(NodeFn::Const(true), vec![]).unwrap();
    let zero = net.add_node(NodeFn::Const(false), vec![]).unwrap();
    let na = net.add_node(NodeFn::Not, vec![a]).unwrap();
    let never = net.add_node(NodeFn::And, vec![a, na]).unwrap();
    let x = net.add_node(NodeFn::Xor, vec![a, b]).unwrap();
    let gated = net.add_node(NodeFn::And, vec![x, one]).unwrap();
    net.add_output("one", one);
    net.add_output("zero", zero);
    net.add_output("never", never);
    net.add_output("wire", b);
    net.add_output("x", gated);
    check_all_modes("consts", &net);
}

/// Rebuilds `m` with `cells`/`kinds` edited by `edit`.
fn planted(
    m: &MappedNetlist,
    edit: impl FnOnce(&mut Vec<GateKind>, &mut Vec<Cell>),
) -> MappedNetlist {
    let mut kinds = m.gate_kinds().to_vec();
    let mut cells = m.cells().to_vec();
    edit(&mut kinds, &mut cells);
    MappedNetlist::from_parts(
        m.name(),
        kinds,
        cells,
        m.input_names().to_vec(),
        m.latches().to_vec(),
        m.outputs().to_vec(),
    )
    .expect("edited netlist is well formed")
}

/// Cells that directly drive a primary output: a changed function there
/// cannot be masked by downstream logic.
fn output_cells(m: &MappedNetlist) -> Vec<usize> {
    let mut cells: Vec<usize> = m
        .outputs()
        .iter()
        .filter_map(|&(_, s)| match s {
            Signal::Cell(c) => Some(c as usize),
            _ => None,
        })
        .collect();
    cells.sort_unstable();
    cells.dedup();
    cells
}

#[test]
fn planted_faults_are_caught_by_both_checkers() {
    for (name, net) in [
        ("alu4", benchgen::alu(4)),
        ("mux_tree3", benchgen::mux_tree(3)),
        ("s27", benchgen::s27_like()),
    ] {
        let subject = SubjectGraph::from_network(&net).unwrap();
        let lib = Library::lib_44_3_like();
        let m = map(&subject, &lib, Mode::Dag);
        assert_eq!(agreed(&m, &net, 3, name), Some(true));

        // A cell whose gate kind is replaced by a different function (its
        // complement over the same pins).
        for c in output_cells(&m) {
            let faulty = planted(&m, |kinds, cells| {
                let mut k = kinds[cells[c].kind as usize].clone();
                k.expr = Expr::Not(Box::new(k.expr));
                kinds.push(k);
                cells[c].kind = (kinds.len() - 1) as u32;
            });
            let what = format!("{name}: cell {c} complemented");
            assert_eq!(agreed(&faulty, &net, 3, &what), Some(false), "{what}");
            assert_eq!(agreed(&faulty, subject.network(), 4, &what), Some(false));
        }

        // Every swapped fan-in pair of every cell: both checkers must give
        // the same verdict, and swaps that change a cell's function (pins
        // of an asymmetric gate) must be caught somewhere.
        let mut caught = 0;
        for (c, cell) in m.cells().iter().enumerate() {
            for i in 0..cell.fanins.len() {
                for j in i + 1..cell.fanins.len() {
                    let faulty = planted(&m, |_, cells| cells[c].fanins.swap(i, j));
                    let what = format!("{name}: cell {c} pins {i}<->{j} swapped");
                    if agreed(&faulty, &net, 3, &what) == Some(false) {
                        caught += 1;
                    }
                }
            }
        }
        assert!(caught > 0, "{name}: no swapped fan-in pair was caught");
    }
}

/// A difference only one input pattern exposes: `f` is the AND of `k`
/// inputs (through a latch when `latched`), checked against a netlist that
/// drives `f` with constant 0. Whether a run catches it depends on exactly
/// which vectors it draws, so agreement seed by seed pins the vector
/// stream, the exhaustive first round and the cycle loop.
fn rare_difference(k: usize, latched: bool) -> (Network, MappedNetlist) {
    let mut net = Network::new("rare");
    let ins: Vec<_> = (0..k).map(|i| net.add_input(format!("x{i}"))).collect();
    let mut f = net.add_node(NodeFn::And, ins).unwrap();
    if latched {
        f = net.add_node(NodeFn::Latch, vec![f]).unwrap();
    }
    net.add_output("f", f);
    let names = (0..k).map(|i| format!("x{i}")).collect();
    let zero = vec![("f".to_owned(), Signal::Const(false))];
    let m = MappedNetlist::from_parts("zero", vec![], vec![], names, vec![], zero).unwrap();
    (net, m)
}

#[test]
fn rare_differences_get_the_same_verdict_for_every_seed() {
    // (inputs, latched, rounds, whether some seed must miss the pattern).
    for (k, latched, rounds, some_miss) in [
        (6, false, 1, false), // the exhaustive round always catches it
        (6, true, 1, false),  // ...also as the first cycle of a stream
        (12, false, 32, true),
        (12, true, 1, true),
    ] {
        let (golden, m) = rare_difference(k, latched);
        let what = format!("AND{k} latched={latched} rounds={rounds}");
        let verdicts: Vec<_> = (0..48)
            .map(|seed| agreed_in(&m, &golden, rounds, seed, &what))
            .collect();
        assert!(verdicts.contains(&Some(false)), "{what}: never caught");
        assert_eq!(verdicts.contains(&Some(true)), some_miss, "{what}");
    }
}

/// `f` is input `x` delayed by `depth` latches, checked against constant 0:
/// a stream of 16 cycles from the zero state shows the difference exactly
/// when `depth < 16`, and only if latch state restarts every round does a
/// 16-deep line stay hidden in later rounds.
#[test]
fn delay_lines_pin_the_cycle_count_and_the_per_round_reset() {
    for (depth, differs) in [(1, true), (15, true), (16, false)] {
        let mut net = Network::new("line");
        let mut f = net.add_input("x");
        for _ in 0..depth {
            f = net.add_node(NodeFn::Latch, vec![f]).unwrap();
        }
        net.add_output("f", f);
        let zero = vec![("f".to_owned(), Signal::Const(false))];
        let m = MappedNetlist::from_parts("zero", vec![], vec![], vec!["x".into()], vec![], zero)
            .unwrap();
        for seed in 0..4 {
            let what = format!("delay line of {depth}");
            assert_eq!(
                agreed_in(&m, &net, 3, seed, &what),
                Some(!differs),
                "{what}"
            );
        }
    }
}

#[test]
fn interface_mismatches_give_the_same_error() {
    let mut net = Network::new("n");
    let a = net.add_input("a");
    let b = net.add_input("b");
    let f = net.add_node(NodeFn::And, vec![a, b]).unwrap();
    net.add_output("f", f);
    let subject = SubjectGraph::from_network(&net).unwrap();
    let m = map(&subject, &Library::lib2_like(), Mode::Dag);

    let renamed_input = {
        let mut g = Network::new("g");
        let a = g.add_input("a");
        let z = g.add_input("zzz");
        let f = g.add_node(NodeFn::And, vec![a, z]).unwrap();
        g.add_output("f", f);
        g
    };
    let extra_input = {
        let mut g = net.clone();
        g.add_input("c");
        g
    };
    let renamed_output = {
        let mut g = Network::new("g");
        let a = g.add_input("a");
        let b = g.add_input("b");
        let f = g.add_node(NodeFn::And, vec![a, b]).unwrap();
        g.add_output("g", f);
        g
    };
    let extra_output = {
        let mut g = net.clone();
        g.add_output("h", a);
        g
    };
    for (what, golden) in [
        ("renamed input", renamed_input),
        ("extra input", extra_input),
        ("renamed output", renamed_output),
        ("extra output", extra_output),
    ] {
        assert_eq!(
            agreed(&m, &golden, 1, what),
            None,
            "{what} must be an error"
        );
    }
}
