//! Gate functions compiled to flat bit-parallel stack programs.
//!
//! A [`GateProgram`] is an [`Expr`] flattened once into postfix operations
//! over canonical pin indices. Evaluating it costs a handful of word
//! operations per gate, and every `u64` carries 64 independent lanes, so
//! the same program serves three callers: truth tables of library gates
//! (pins read [`EXHAUSTIVE_WORDS`]), supergate enumeration (pins read child
//! truth tables) and equivalence checking of mapped netlists (pins read
//! 64 simulation vectors).

use crate::{Expr, Gate};

/// Lane `m` of word `i` holds bit `i` of `m`. With these as pin values, one
/// evaluation of a function of at most six pins yields its whole truth
/// table, minterm `m` in bit `m`.
pub const EXHAUSTIVE_WORDS: [u64; 6] = [
    0xAAAA_AAAA_AAAA_AAAA,
    0xCCCC_CCCC_CCCC_CCCC,
    0xF0F0_F0F0_F0F0_F0F0,
    0xFF00_FF00_FF00_FF00,
    0xFFFF_0000_FFFF_0000,
    0xFFFF_FFFF_0000_0000,
];

/// The meaningful bits of a truth table over `n` inputs (all 64 for
/// `n >= 6`).
pub fn truth_mask(n: usize) -> u64 {
    if n >= 6 {
        u64::MAX
    } else {
        (1u64 << (1usize << n)) - 1
    }
}

/// Stack slots kept inline; deeper programs (nesting no real gate reaches)
/// fall back to a heap stack.
const INLINE_STACK: usize = 16;

/// One postfix operation. `And`/`Or` fold the top two entries; the `*Pin`
/// forms fold a pin straight into the top entry, which keeps flat
/// conjunctions and disjunctions of literals at stack depth one.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Op {
    Pin(u8),
    Const(bool),
    Not,
    And,
    Or,
    AndPin(u8),
    OrPin(u8),
}

/// A gate expression compiled to a stack program over canonical pin
/// indices.
///
/// ```
/// use dagmap_genlib::{Expr, GateProgram, EXHAUSTIVE_WORDS};
///
/// # fn main() -> Result<(), dagmap_genlib::GenlibError> {
/// let e = Expr::parse("!(a*b + c)")?;
/// let prog = GateProgram::compile(&e, &e.vars());
/// // Lane-parallel evaluation over arbitrary pin words...
/// assert_eq!(prog.eval(|p| [0b1100, 0b1010, 0b0001][p], 0b1111), 0b0110);
/// // ...and whole truth tables over the exhaustive words.
/// assert_eq!(prog.truth_table(), 0b0000_0111);
/// assert_eq!(prog.eval(|p| EXHAUSTIVE_WORDS[p], 0xFF), 0b0000_0111);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GateProgram {
    ops: Vec<Op>,
    depth: usize,
    num_pins: usize,
}

impl GateProgram {
    /// Compiles `expr` with pin `i` bound to the variable `pins[i]`.
    ///
    /// # Panics
    ///
    /// Panics if `expr` uses a variable missing from `pins`, or `pins` has
    /// more than 256 entries.
    pub fn compile(expr: &Expr, pins: &[String]) -> GateProgram {
        let mut prog = GateProgram {
            ops: Vec::new(),
            depth: 0,
            num_pins: pins.len(),
        };
        let mut sp = 0;
        prog.emit(expr, pins, &mut sp);
        prog
    }

    fn push(&mut self, op: Op, sp: &mut usize) {
        self.ops.push(op);
        *sp += 1;
        self.depth = self.depth.max(*sp);
    }

    fn emit(&mut self, expr: &Expr, pins: &[String], sp: &mut usize) {
        let pin = |v: &str| {
            let i = pins
                .iter()
                .position(|p| p == v)
                .unwrap_or_else(|| panic!("pin `{v}` missing from binding"));
            u8::try_from(i).expect("at most 256 pins")
        };
        match expr {
            Expr::Const(v) => self.push(Op::Const(*v), sp),
            Expr::Var(v) => self.push(Op::Pin(pin(v)), sp),
            Expr::Not(e) => {
                self.emit(e, pins, sp);
                self.ops.push(Op::Not);
            }
            Expr::And(es) | Expr::Or(es) => {
                let and = matches!(expr, Expr::And(_));
                let Some((first, rest)) = es.split_first() else {
                    // The empty conjunction is 1, the empty disjunction 0.
                    return self.push(Op::Const(and), sp);
                };
                self.emit(first, pins, sp);
                for e in rest {
                    if let Expr::Var(v) = e {
                        let i = pin(v);
                        self.ops
                            .push(if and { Op::AndPin(i) } else { Op::OrPin(i) });
                    } else {
                        self.emit(e, pins, sp);
                        self.ops.push(if and { Op::And } else { Op::Or });
                        *sp -= 1;
                    }
                }
            }
        }
    }

    /// Number of pins the program reads.
    pub fn num_pins(&self) -> usize {
        self.num_pins
    }

    /// Evaluates the program over 64 lanes, reading pin `i` as `pin(i)`,
    /// and returns the result masked by `mask`.
    #[inline]
    pub fn eval(&self, pin: impl Fn(usize) -> u64, mask: u64) -> u64 {
        let out = if self.depth <= INLINE_STACK {
            run(&self.ops, &mut [0u64; INLINE_STACK], pin)
        } else {
            run(&self.ops, &mut vec![0u64; self.depth], pin)
        };
        out & mask
    }

    /// The truth table over the program's pins, minterm `m` in bit `m`
    /// (pin `i` is bit `i` of `m`).
    ///
    /// # Panics
    ///
    /// Panics if the program has more than six pins.
    pub fn truth_table(&self) -> u64 {
        assert!(self.num_pins <= 6, "truth tables cover at most 6 pins");
        self.eval(|i| EXHAUSTIVE_WORDS[i], truth_mask(self.num_pins))
    }
}

#[inline]
fn run(ops: &[Op], stack: &mut [u64], pin: impl Fn(usize) -> u64) -> u64 {
    let mut sp = 0usize;
    for op in ops {
        match *op {
            Op::Pin(i) => {
                stack[sp] = pin(i as usize);
                sp += 1;
            }
            Op::Const(v) => {
                stack[sp] = if v { u64::MAX } else { 0 };
                sp += 1;
            }
            Op::Not => stack[sp - 1] = !stack[sp - 1],
            Op::And => {
                sp -= 1;
                stack[sp - 1] &= stack[sp];
            }
            Op::Or => {
                sp -= 1;
                stack[sp - 1] |= stack[sp];
            }
            Op::AndPin(i) => stack[sp - 1] &= pin(i as usize),
            Op::OrPin(i) => stack[sp - 1] |= pin(i as usize),
        }
    }
    stack[0]
}

impl Gate {
    /// The gate's output expression compiled over its canonical pins.
    pub fn program(&self) -> GateProgram {
        let pins: Vec<String> = self.pins().iter().map(|(n, _)| n.clone()).collect();
        GateProgram::compile(self.expr(), &pins)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Truth table by per-minterm recursive evaluation: the independent
    /// reference the compiled program must reproduce.
    fn reference(expr: &Expr, pins: &[String]) -> u64 {
        (0..1usize << pins.len())
            .filter(|&m| {
                expr.eval(&|v| {
                    let i = pins.iter().position(|p| p == v).expect("bound");
                    (m >> i) & 1 == 1
                })
            })
            .fold(0, |acc, m| acc | 1 << m)
    }

    #[test]
    fn programs_match_recursive_evaluation_on_builtin_libraries() {
        for lib in [
            crate::Library::lib2_like(),
            crate::Library::lib_44_1_like(),
            crate::Library::lib_44_3_like(),
        ] {
            for gate in lib.gates().iter().filter(|g| g.num_pins() <= 6) {
                let pins: Vec<String> = gate.pins().iter().map(|(n, _)| n.clone()).collect();
                assert_eq!(
                    gate.program().truth_table(),
                    reference(gate.expr(), &pins),
                    "{} in {}",
                    gate.name(),
                    lib.name()
                );
            }
        }
    }

    #[test]
    fn nested_and_constant_expressions_compile() {
        for text in [
            "a",
            "!a",
            "CONST1",
            "CONST0",
            "a' * (b + c') + !(d * (e + f))",
            "((a+b)*(c+d)) + ((e*f) + !(a*c))",
            "a*b*c*d*e*f",
        ] {
            let e = Expr::parse(text).unwrap();
            let pins = e.vars();
            assert_eq!(
                GateProgram::compile(&e, &pins).truth_table(),
                reference(&e, &pins),
                "{text}"
            );
        }
    }

    #[test]
    fn deep_nesting_falls_back_to_a_heap_stack() {
        // 40 alternating levels, each holding one non-literal operand on
        // the stack: deeper than the inline stack.
        let mut text = String::from("a");
        for i in 0..40 {
            text = if i % 2 == 0 {
                format!("(b*c + ({text})*d)")
            } else {
                format!("((b+c) * (({text})+d))")
            };
        }
        let e = Expr::parse(&text).unwrap();
        let pins = e.vars();
        let prog = GateProgram::compile(&e, &pins);
        assert!(prog.depth > INLINE_STACK, "depth {}", prog.depth);
        assert_eq!(prog.truth_table(), reference(&e, &pins));
    }

    #[test]
    fn masks_apply_once_at_the_end() {
        let e = Expr::parse("!a").unwrap();
        let prog = GateProgram::compile(&e, &e.vars());
        assert_eq!(prog.eval(|_| 0, u64::MAX), u64::MAX);
        assert_eq!(prog.eval(|_| 0, 0b11), 0b11);
        assert_eq!(truth_mask(1), 0b11);
        assert_eq!(truth_mask(6), u64::MAX);
    }

    #[test]
    fn exhaustive_words_enumerate_minterms() {
        for lane in 0..64u64 {
            for (i, w) in EXHAUSTIVE_WORDS.iter().enumerate() {
                assert_eq!((w >> lane) & 1, (lane >> i) & 1);
            }
        }
    }
}
