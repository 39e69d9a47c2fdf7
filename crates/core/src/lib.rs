#![warn(missing_docs)]
//! Delay-optimal library technology mapping by DAG covering — the primary
//! contribution of Kukimoto, Brayton & Sawkar (DAC 1998) — together with the
//! classical tree-covering baseline it is evaluated against.
//!
//! The paper's insight, made literal in this crate: under a load-independent
//! delay model, the *only* thing separating tree mapping from optimal DAG
//! mapping is the match semantics fed to one shared dynamic program —
//!
//! * [`MapOptions::tree`] restricts the labeler to **exact** matches
//!   (Definition 2), which can never swallow a multi-fanout subject node, so
//!   the result is classical tree covering glued at fanout points with no
//!   duplication;
//! * [`MapOptions::dag`] uses **standard** matches (Definition 1), giving the
//!   FlowMap-style labeling its full strength: every node gets its provably
//!   minimum arrival time, and the cover-construction phase duplicates
//!   shared logic exactly where that optimum requires it (Figure 2);
//! * [`MapOptions::dag_extended`] additionally allows **extended** matches
//!   (Definition 3), which may unfold reconvergent structure (Figure 1).
//!
//! # Example
//!
//! ```
//! use dagmap_core::{MapOptions, Mapper};
//! use dagmap_genlib::Library;
//! use dagmap_netlist::{Network, NodeFn, SubjectGraph};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let mut net = Network::new("toy");
//! let a = net.add_input("a");
//! let b = net.add_input("b");
//! let c = net.add_input("c");
//! let g = net.add_node(NodeFn::And, vec![a, b])?;
//! let h = net.add_node(NodeFn::Or, vec![g, c])?;
//! net.add_output("f", h);
//! let subject = SubjectGraph::from_network(&net)?;
//!
//! let library = Library::lib2_like();
//! let mapper = Mapper::new(&library);
//! let dag = mapper.map(&subject, MapOptions::dag())?;
//! let tree = mapper.map(&subject, MapOptions::tree())?;
//! assert!(dag.delay() <= tree.delay() + 1e-9);
//! # Ok(())
//! # }
//! ```

pub mod allocmeter;
mod area;
mod cover;
mod error;
mod incremental;
mod label;
pub mod load;
mod mapped;
mod mapper;
mod options;
mod source;
pub mod verify;
pub mod verilog;

pub use error::MapError;
pub use incremental::{relabel_incremental, IncrementalStats, RetainedLabels};
pub use label::{label, Labels};
pub use mapped::{Cell, GateKind, MappedNetlist, Signal};
pub use mapper::{MapReport, Mapper};
pub use options::{MapOptions, Objective};
pub use source::{MatchSource, SourceMatch, StructuralKit, StructuralSource};

pub use dagmap_match::{MatchMode, SharedMatchStore};
