#![warn(missing_docs)]
//! Gate-library substrate for the `dagmap` technology-mapping project.
//!
//! Provides the pieces the DAC 1998 experiments need on the library side:
//!
//! * [`Expr`] — Boolean expressions in genlib syntax (`!`, `'`, `*`, `+`,
//!   parentheses, `CONST0`/`CONST1`) with truth tables and network lowering,
//! * [`Gate`] — a library cell: area, output expression, per-pin
//!   load-independent timing,
//! * [`GateProgram`] — an expression compiled to a flat 64-lane stack
//!   program over canonical pins: gate truth tables, supergate
//!   enumeration and mapped-netlist simulation all evaluate through it,
//! * [`PatternGraph`] — the NAND2/INV decomposition of a gate that the
//!   matcher searches for inside subject graphs (trees, leaf-DAGs and
//!   general DAGs all supported),
//! * [`Library`] — a gate collection with its expanded pattern set,
//!   genlib parsing/printing, and the built-in synthetic libraries standing
//!   in for the MCNC libraries of the paper: [`Library::lib2_like`],
//!   [`Library::lib_44_1_like`] (7 gates) and [`Library::lib_44_3_like`]
//!   (rich complex-gate library, up to 16 inputs).
//!
//! # Example
//!
//! ```
//! use dagmap_genlib::Library;
//!
//! # fn main() -> Result<(), dagmap_genlib::GenlibError> {
//! let lib = Library::from_genlib(
//!     "GATE inv 1.0 O=!a; PIN * INV 1 999 1.0 0.0 1.0 0.0\n\
//!      GATE nand2 2.0 O=!(a*b); PIN * INV 1 999 1.5 0.0 1.5 0.0\n",
//! )?;
//! assert!(lib.is_delay_mappable());
//! assert_eq!(lib.gates().len(), 2);
//! # Ok(())
//! # }
//! ```

mod error;
mod expr;
mod gate;
mod library;
mod parser;
mod pattern;
mod program;
mod stdlibs;
mod writer;

pub use error::GenlibError;
pub use expr::{Expr, TreeShape, TruthTable};
pub use gate::{Gate, GateId, PinPhase, PinTiming};
pub use library::{LibPattern, Library, PatternId, RootMasks};
pub use pattern::{PatternGraph, PatternNode};
pub use program::{truth_mask, GateProgram, EXHAUSTIVE_WORDS};
