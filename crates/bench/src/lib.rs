#![warn(missing_docs)]
//! Experiment harness regenerating the tables and figures of
//! "Delay-Optimal Technology Mapping by DAG Covering" (DAC 1998).
//!
//! * `tables` binary — Tables 1–3: tree vs DAG mapping (delay, area, CPU)
//!   over the ISCAS-85-like suite under the `lib2`-like, `44-1`-like and
//!   `44-3`-like libraries,
//! * `figures` binary — Figure 1 (standard vs extended match) and Figure 2
//!   (node duplication across a multi-fanout point),
//! * `labelperf` binary — serial labeling wall-clock, matcher throughput
//!   and the zero-allocation check, written to `BENCH_label.json`,
//! * [`harness`]-based benches — mapping/matching/FlowMap/retiming runtime
//!   (dependency-free; the workspace builds with no network access).
//!
//! Every mapped netlist produced here is verified functionally equivalent
//! to its subject graph before its numbers are reported.

pub mod harness;

use std::time::Instant;

use dagmap_core::{verify, MapOptions, Mapper};
use dagmap_genlib::Library;
use dagmap_netlist::{Network, SubjectGraph};

/// One row of a tree-vs-DAG comparison table.
#[derive(Debug, Clone)]
pub struct TableRow {
    /// Circuit name.
    pub circuit: String,
    /// Subject-graph NAND/INV count.
    pub subject_gates: usize,
    /// Tree-mapping critical delay.
    pub tree_delay: f64,
    /// DAG-mapping critical delay.
    pub dag_delay: f64,
    /// Tree-mapping total area.
    pub tree_area: f64,
    /// DAG-mapping total area.
    pub dag_area: f64,
    /// Tree-mapping wall-clock seconds.
    pub tree_cpu: f64,
    /// DAG-mapping wall-clock seconds.
    pub dag_cpu: f64,
    /// Subject nodes duplicated by DAG covering.
    pub duplicated: usize,
}

/// Maps every circuit with both algorithms under `library`, verifying each
/// result, and returns the comparison rows.
///
/// # Panics
///
/// Panics if mapping fails, a mapped netlist is not equivalent to its
/// subject graph, or DAG mapping is slower than tree mapping in *delay*
/// (which would contradict the optimality theorem).
pub fn run_table(library: &Library, circuits: &[(&str, Network)], check: bool) -> Vec<TableRow> {
    let mapper = Mapper::new(library);
    let mut rows = Vec::new();
    for (name, net) in circuits {
        let subject = SubjectGraph::from_network(net).expect("benchmarks decompose");
        let t0 = Instant::now();
        let (tree, _) = mapper
            .map_with_report(&subject, MapOptions::tree())
            .expect("tree mapping succeeds");
        let tree_cpu = t0.elapsed().as_secs_f64();
        let t1 = Instant::now();
        let (dag, dag_rep) = mapper
            .map_with_report(&subject, MapOptions::dag())
            .expect("dag mapping succeeds");
        let dag_cpu = t1.elapsed().as_secs_f64();
        assert!(
            dag.delay() <= tree.delay() + 1e-9,
            "{name}: DAG {} must not exceed tree {}",
            dag.delay(),
            tree.delay()
        );
        if check {
            verify::check(&tree, &subject, 0xBEEF).expect("tree mapping is equivalent");
            verify::check(&dag, &subject, 0xBEEF).expect("dag mapping is equivalent");
        }
        rows.push(TableRow {
            circuit: (*name).to_owned(),
            subject_gates: subject.num_gates(),
            tree_delay: tree.delay(),
            dag_delay: dag.delay(),
            tree_area: tree.area(),
            dag_area: dag.area(),
            tree_cpu,
            dag_cpu,
            duplicated: dag_rep.duplicated_subject_nodes,
        });
    }
    rows
}

/// Prints a table in the paper's layout (delay | area | CPU, tree vs DAG).
pub fn print_table(title: &str, library: &Library, rows: &[TableRow]) {
    println!("\n{title}");
    println!(
        "library `{}`: {} gates, {} expanded patterns, p = {} pattern nodes",
        library.name(),
        library.gates().len(),
        library.patterns().len(),
        library.total_pattern_nodes()
    );
    println!(
        "{:<8} {:>7} | {:>9} {:>9} {:>6} | {:>9} {:>9} | {:>8} {:>8} | {:>5}",
        "circuit",
        "gates",
        "tree dly",
        "dag dly",
        "ratio",
        "tree ar",
        "dag ar",
        "tree s",
        "dag s",
        "dup"
    );
    for r in rows {
        println!(
            "{:<8} {:>7} | {:>9.2} {:>9.2} {:>6.2} | {:>9.0} {:>9.0} | {:>8.3} {:>8.3} | {:>5}",
            r.circuit,
            r.subject_gates,
            r.tree_delay,
            r.dag_delay,
            r.tree_delay / r.dag_delay.max(1e-9),
            r.tree_area,
            r.dag_area,
            r.tree_cpu,
            r.dag_cpu,
            r.duplicated
        );
    }
    let gm: f64 = rows
        .iter()
        .map(|r| (r.tree_delay / r.dag_delay.max(1e-9)).ln())
        .sum::<f64>()
        / rows.len().max(1) as f64;
    println!("geometric-mean tree/DAG delay ratio: {:.3}", gm.exp());
}

/// The benchmark suite used by all three tables.
pub fn suite() -> Vec<(&'static str, Network)> {
    dagmap_benchgen::iscas_suite()
}

/// A reduced suite for quick runs and debug-build tests.
pub fn quick_suite() -> Vec<(&'static str, Network)> {
    vec![
        ("add16", dagmap_benchgen::ripple_adder(16)),
        ("ks16", dagmap_benchgen::kogge_stone_adder(16)),
        ("mul6", dagmap_benchgen::array_multiplier(6)),
        ("cmp12", dagmap_benchgen::comparator(12)),
        ("alu8", dagmap_benchgen::alu(8)),
    ]
}

/// The three libraries of Tables 1–3, with the paper's table numbers.
pub fn table_libraries() -> Vec<(u32, Library)> {
    vec![
        (1, Library::lib2_like()),
        (2, Library::lib_44_1_like()),
        (3, Library::lib_44_3_like()),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_suite_produces_consistent_rows() {
        let lib = Library::lib_44_1_like();
        let circuits: Vec<(&str, Network)> = quick_suite().into_iter().take(2).collect();
        let rows = run_table(&lib, &circuits, true);
        assert_eq!(rows.len(), 2);
        for r in &rows {
            assert!(r.dag_delay <= r.tree_delay + 1e-9);
            assert!(r.dag_delay > 0.0);
            assert!(r.tree_area > 0.0);
        }
    }
}
