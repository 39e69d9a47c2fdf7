#![warn(missing_docs)]
//! Boolean matching: an alternative to the paper's structural pattern
//! matching that is immune to *structural bias*.
//!
//! Structural matchers (Section 3.2 of the paper) find a gate only when the
//! subject graph happens to contain the gate's NAND2/INV decomposition
//! shape; a differently-shaped but functionally identical cone is missed —
//! the motivation behind Lehman et al.'s mapping graphs that the paper's
//! Section 4 discusses. Boolean matching sidesteps the problem:
//!
//! 1. enumerate bounded **priority cuts** of each subject node (ranked by
//!    deepest-leaf level then width, at most 24 per node, the fanin cut
//!    always kept within the cap),
//! 2. extract each cut's Boolean function as a truth table
//!    ([`TruthTable`]) by 64-lane cone simulation,
//! 3. canonicalize modulo input permutation ([`TruthTable::p_canonical`])
//!    *and* modulo input/output negation ([`TruthTable::npn_canonical`]),
//!    then look both forms up in a precomputed [`LibraryIndex`]. A P hit
//!    binds pins directly; an NPN hit composes the cut's and the gate's
//!    recorded [`NpnTransform`]s into pin bindings plus polarity fixups,
//!    realized by absorbing or borrowing inverters on the negated leaves,
//! 4. feed the resulting matches through [`dagmap_core::MatchSource`]
//!    into the very same FlowMap-style delay DP, area recovery and cover
//!    construction as the structural mapper
//!    ([`map_boolean`] / [`map_hybrid`] /
//!    `dagmap_core::Mapper::map_with_source`).
//!
//! Gates wider than [`MAX_INPUTS`] inputs do not participate (canonical
//! forms live in one 64-bit word); wider requests are clamped at the
//! index boundary, never panicked on.
//!
//! # Example
//!
//! ```
//! use dagmap_boolmatch::map_boolean;
//! use dagmap_genlib::Library;
//! use dagmap_netlist::{Network, NodeFn, SubjectGraph};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let mut net = Network::new("n");
//! let a = net.add_input("a");
//! let b = net.add_input("b");
//! let c = net.add_input("c");
//! let g = net.add_node(NodeFn::And, vec![a, b])?;
//! let h = net.add_node(NodeFn::Or, vec![g, c])?;
//! net.add_output("f", h);
//! let subject = SubjectGraph::from_network(&net)?;
//!
//! let library = Library::lib2_like();
//! let mapped = map_boolean(&subject, &library, 4)?;
//! assert!(mapped.delay() > 0.0);
//! # Ok(())
//! # }
//! ```

mod cuts;
mod index;
mod mapper;
mod source;
mod tt;

pub use index::LibraryIndex;
pub use mapper::{
    check_coverable, map_boolean, map_boolean_with_options, map_boolean_with_report, map_hybrid,
    map_hybrid_with_options, BoolMapReport,
};
pub use source::{BoolKit, BoolSource, HybridKit, HybridSource};
pub use tt::{NpnTransform, TruthTable, MAX_INPUTS};
