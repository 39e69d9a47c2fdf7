//! Small truth tables (≤ 6 inputs, one `u64`) with support reduction,
//! permutation-canonical (P) and negation-permutation-negation-canonical
//! (NPN) forms.

use std::collections::{HashMap, HashSet};
use std::fmt;
use std::hash::{BuildHasherDefault, Hasher};

/// Largest supported input count (one 64-bit word of minterms).
pub const MAX_INPUTS: usize = 6;

/// Minterm masks selecting the half-space where input `i` is 0 — the
/// building block of the input-negation table transform (`flip_input`).
const FLIP_MASKS: [u64; 6] = [
    0x5555_5555_5555_5555,
    0x3333_3333_3333_3333,
    0x0F0F_0F0F_0F0F_0F0F,
    0x00FF_00FF_00FF_00FF,
    0x0000_FFFF_0000_FFFF,
    0x0000_0000_FFFF_FFFF,
];

/// Negates input `i` of a truth table: swaps the two cofactor half-spaces.
fn flip_input(bits: u64, i: usize) -> u64 {
    let s = 1u32 << i;
    ((bits & FLIP_MASKS[i]) << s) | ((bits >> s) & FLIP_MASKS[i])
}

/// Multiply-rotate hasher for [`TruthTable`] keys. Boolean matching probes
/// its canonicalization caches and the library index several times per
/// cut, where SipHash dominated the probe cost. The keys are cone and gate
/// functions the program computes itself, so hash flooding does not apply.
#[derive(Debug, Default, Clone, Copy)]
pub(crate) struct TtHasher(u64);

impl Hasher for TtHasher {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.write_u64(u64::from(b));
        }
    }

    fn write_u8(&mut self, x: u8) {
        self.write_u64(u64::from(x));
    }

    fn write_u64(&mut self, x: u64) {
        self.0 = (self.0.rotate_left(5) ^ x).wrapping_mul(0x517c_c1b7_2722_0a95);
    }
}

/// A map keyed by truth tables, hashed with [`TtHasher`].
pub(crate) type TtMap<V> = HashMap<TruthTable, V, BuildHasherDefault<TtHasher>>;

/// A set of truth tables, hashed with [`TtHasher`].
pub(crate) type TtSet = HashSet<TruthTable, BuildHasherDefault<TtHasher>>;

/// Mask selecting the meaningful minterm bits for `n` inputs.
fn mask(n: usize) -> u64 {
    if n >= 6 {
        u64::MAX
    } else {
        (1u64 << (1usize << n)) - 1
    }
}

/// A completely-specified Boolean function of up to [`MAX_INPUTS`] inputs:
/// bit `m` holds the value on minterm `m` (input `i` = bit `i` of `m`).
///
/// ```
/// use dagmap_boolmatch::TruthTable;
///
/// let and2 = TruthTable::from_fn(2, |m| m == 0b11);
/// assert!(and2.depends_on(0) && and2.depends_on(1));
/// assert_eq!(and2.num_inputs(), 2);
/// ```
#[derive(Debug, Copy, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct TruthTable {
    bits: u64,
    num_inputs: u8,
}

impl TruthTable {
    /// Builds a table by evaluating `f` on every minterm.
    ///
    /// # Panics
    ///
    /// Panics if `n > MAX_INPUTS`.
    pub fn from_fn(n: usize, mut f: impl FnMut(usize) -> bool) -> TruthTable {
        assert!(n <= MAX_INPUTS, "at most {MAX_INPUTS} inputs");
        let mut bits = 0u64;
        for m in 0..(1usize << n) {
            if f(m) {
                bits |= 1 << m;
            }
        }
        TruthTable {
            bits,
            num_inputs: u8::try_from(n).expect("n is tiny"),
        }
    }

    /// Wraps raw minterm bits.
    ///
    /// # Panics
    ///
    /// Panics if `n > MAX_INPUTS`.
    pub fn from_bits(n: usize, bits: u64) -> TruthTable {
        assert!(n <= MAX_INPUTS, "at most {MAX_INPUTS} inputs");
        TruthTable {
            bits: bits & mask(n),
            num_inputs: u8::try_from(n).expect("n is tiny"),
        }
    }

    /// Raw minterm bits.
    pub fn bits(&self) -> u64 {
        self.bits
    }

    /// Number of inputs.
    pub fn num_inputs(&self) -> usize {
        self.num_inputs as usize
    }

    /// Value on one minterm.
    pub fn eval(&self, minterm: usize) -> bool {
        (self.bits >> minterm) & 1 == 1
    }

    /// True when the function is constant.
    pub fn is_constant(&self) -> bool {
        let m = mask(self.num_inputs());
        self.bits == 0 || self.bits == m
    }

    /// True when the output actually depends on input `i`: its two
    /// cofactors on `i` differ.
    pub fn depends_on(&self, i: usize) -> bool {
        if i >= self.num_inputs() {
            return false;
        }
        let s = 1u32 << i;
        (self.bits & FLIP_MASKS[i]) != ((self.bits >> s) & FLIP_MASKS[i])
    }

    /// Drops inputs the function does not depend on, returning the reduced
    /// table and the kept original input positions as a bit mask (bit `i`
    /// set: input `i` is kept). Kept inputs keep their relative order.
    pub fn reduce_support(&self) -> (TruthTable, u8) {
        let n = self.num_inputs();
        let support = (0..n)
            .filter(|&i| self.depends_on(i))
            .fold(0u8, |acc, i| acc | 1 << i);
        let kept = support.count_ones() as usize;
        if kept == n {
            return (*self, support);
        }
        let reduced = TruthTable::from_fn(kept, |m| {
            let mut full = 0usize;
            let mut rest = support;
            let mut new_pos = 0;
            while rest != 0 {
                if (m >> new_pos) & 1 == 1 {
                    full |= 1 << rest.trailing_zeros();
                }
                new_pos += 1;
                rest &= rest - 1;
            }
            self.eval(full)
        });
        (reduced, support)
    }

    /// Applies an input permutation: input `i` of the result reads what
    /// input `perm[i]` of `self` read, i.e.
    /// `result(x_0..x_{n-1}) = self(x_{σ^{-1}(0)}, ...)` arranged so that
    /// `permute(perm).eval(m) == self.eval(apply(perm, m))` where
    /// `apply` moves bit `i` of `m` to position `perm[i]`.
    ///
    /// # Panics
    ///
    /// Panics if `perm` is not a permutation of `0..num_inputs`.
    pub fn permute(&self, perm: &[usize]) -> TruthTable {
        let n = self.num_inputs();
        assert_eq!(perm.len(), n, "permutation length");
        TruthTable::from_fn(n, |m| {
            let mut original = 0usize;
            for (i, &p) in perm.iter().enumerate() {
                if (m >> i) & 1 == 1 {
                    original |= 1 << p;
                }
            }
            self.eval(original)
        })
    }

    /// The lexicographically-smallest table over all input permutations,
    /// together with one permutation `perm` achieving it
    /// (`self.permute(&perm) == canonical`). Functions are P-equivalent iff
    /// their canonical tables are equal.
    pub fn p_canonical(&self) -> (TruthTable, Vec<usize>) {
        let n = self.num_inputs();
        let mut best = *self;
        let mut best_perm: Vec<usize> = (0..n).collect();
        let mut perm: Vec<usize> = (0..n).collect();
        permute_all(&mut perm, 0, &mut |p| {
            let candidate = self.permute(p);
            if candidate.bits < best.bits {
                best = candidate;
                best_perm = p.to_vec();
            }
        });
        (best, best_perm)
    }

    /// Applies a full NPN transform: permutation, per-input negation, output
    /// negation. Defined so that `self.apply_npn(&t)` evaluated on minterm
    /// `m` reads original input `t.perm[i]` as `m_i ^ t.input_neg_i` and
    /// XORs the result with `t.output_neg` — i.e. the transform's *result*
    /// input `i` corresponds to `self`'s input `t.perm[i]`, possibly
    /// negated.
    ///
    /// # Panics
    ///
    /// Panics if `t.perm` is not a permutation of `0..num_inputs`.
    pub fn apply_npn(&self, t: &NpnTransform) -> TruthTable {
        let n = self.num_inputs();
        assert_eq!(t.perm.len(), n, "transform arity");
        TruthTable::from_fn(n, |m| {
            let mut original = 0usize;
            for (i, &p) in t.perm.iter().enumerate() {
                if ((m >> i) & 1 == 1) != ((t.input_neg >> i) & 1 == 1) {
                    original |= 1 << p;
                }
            }
            self.eval(original) != t.output_neg
        })
    }

    /// The lexicographically-smallest table over all input permutations,
    /// input negations and output negation, with one transform achieving it
    /// (`self.apply_npn(&t) == canonical`). Functions are NPN-equivalent iff
    /// their canonical tables are equal — so a NOR cone and an OR gate land
    /// in one class, where [`TruthTable::p_canonical`] keeps them apart.
    ///
    /// The search walks every permutation once, then sweeps the `2^n` input
    /// negations in Gray-code order (one cofactor swap each) and tests both
    /// output polarities per step; the first transform reaching the minimum
    /// in that fixed order is returned, so the witness is deterministic.
    pub fn npn_canonical(&self) -> (TruthTable, NpnTransform) {
        let n = self.num_inputs();
        let m = mask(n);
        let mut best = TruthTable {
            bits: m,
            num_inputs: self.num_inputs,
        };
        let mut best_t = NpnTransform::identity(n);
        let mut perm: Vec<usize> = (0..n).collect();
        permute_all(&mut perm, 0, &mut |p| {
            let permuted = self.permute(p).bits;
            // Gray-code sweep: gray(g) and gray(g+1) differ in bit
            // `trailing_ones(g)`, so each step is one half-space swap.
            let mut bits = permuted;
            for g in 0..(1u32 << n) {
                let neg = (g ^ (g >> 1)) as u8;
                for (cand_bits, out) in [(bits, false), (!bits & m, true)] {
                    if cand_bits < best.bits {
                        best = TruthTable {
                            bits: cand_bits,
                            num_inputs: self.num_inputs,
                        };
                        best_t = NpnTransform {
                            perm: p.to_vec(),
                            input_neg: neg,
                            output_neg: out,
                        };
                    }
                }
                if g + 1 < (1u32 << n) {
                    let flip = (g + 1).trailing_zeros() as usize;
                    bits = flip_input(bits, flip);
                }
            }
        });
        debug_assert_eq!(self.apply_npn(&best_t), best, "witness replays");
        (best, best_t)
    }
}

/// A recorded NPN transform: `f.apply_npn(&t)` permutes inputs by
/// `t.perm`, negates the inputs selected by `t.input_neg` and XORs the
/// output with `t.output_neg`. Matching composes two of these (the cut's
/// and the gate's canonicalizers) to derive pin bindings and polarities.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct NpnTransform {
    /// Result input `i` reads original input `perm[i]`.
    pub perm: Vec<usize>,
    /// Bit `i`: result input `i` is negated relative to original input
    /// `perm[i]`.
    pub input_neg: u8,
    /// The result is the complement of the original function.
    pub output_neg: bool,
}

impl NpnTransform {
    /// The identity transform on `n` inputs.
    pub fn identity(n: usize) -> NpnTransform {
        NpnTransform {
            perm: (0..n).collect(),
            input_neg: 0,
            output_neg: false,
        }
    }
}

/// Heap-style enumeration of all permutations of `perm[k..]`.
fn permute_all(perm: &mut Vec<usize>, k: usize, visit: &mut impl FnMut(&[usize])) {
    if k == perm.len() {
        visit(perm);
        return;
    }
    for i in k..perm.len() {
        perm.swap(k, i);
        permute_all(perm, k + 1, visit);
        perm.swap(k, i);
    }
}

impl fmt::Display for TruthTable {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{:0width$b}",
            self.bits,
            width = 1usize << self.num_inputs()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn support_reduction_drops_dead_inputs() {
        // f(a, b, c) = a & c (b is dead).
        let t = TruthTable::from_fn(3, |m| (m & 0b101) == 0b101);
        let (r, kept) = t.reduce_support();
        assert_eq!(kept, 0b101);
        assert_eq!(r.num_inputs(), 2);
        assert!(r.eval(0b11));
        assert!(!r.eval(0b01));
    }

    #[test]
    fn permutation_semantics() {
        // f(a, b) = a & !b; swapping inputs gives !a & b.
        let t = TruthTable::from_fn(2, |m| m == 0b01);
        let swapped = t.permute(&[1, 0]);
        assert!(swapped.eval(0b10));
        assert!(!swapped.eval(0b01));
    }

    #[test]
    fn canonical_forms_identify_p_equivalent_functions() {
        // a & !b & c under all input orders canonicalizes identically.
        let base = TruthTable::from_fn(3, |m| m == 0b101);
        let variants = [
            base,
            base.permute(&[1, 0, 2]),
            base.permute(&[2, 1, 0]),
            base.permute(&[1, 2, 0]),
        ];
        let canon = base.p_canonical().0;
        for v in variants {
            assert_eq!(v.p_canonical().0, canon);
        }
        // A different function does not collide.
        let other = TruthTable::from_fn(3, |m| m == 0b111);
        assert_ne!(other.p_canonical().0, canon);
    }

    #[test]
    fn canonical_permutation_is_a_witness() {
        let t = TruthTable::from_fn(4, |m| (m.count_ones() & 1) == 1 || m == 0b1100);
        let (canon, perm) = t.p_canonical();
        assert_eq!(t.permute(&perm), canon);
    }

    #[test]
    fn constants_and_dependence() {
        let zero = TruthTable::from_bits(3, 0);
        assert!(zero.is_constant());
        assert!(!zero.depends_on(1));
        let one = TruthTable::from_fn(2, |_| true);
        assert!(one.is_constant());
    }

    #[test]
    fn dependence_matches_the_minterm_definition() {
        // Input `i` matters iff flipping it changes the value on some
        // minterm; the word-level cofactor test must agree everywhere.
        for n in 1..=4 {
            for bits in 0..(1u64 << (1 << n)) {
                let t = TruthTable::from_bits(n, bits);
                for i in 0..n {
                    let brute =
                        (0..1usize << n).any(|m| t.eval(m) != t.eval(m ^ (1 << i)));
                    assert_eq!(t.depends_on(i), brute, "n={n} bits={bits:#x} i={i}");
                }
            }
        }
    }

    #[test]
    fn masks_out_excess_bits() {
        let t = TruthTable::from_bits(2, u64::MAX);
        assert_eq!(t.bits(), 0b1111);
    }

    #[test]
    fn nor_and_or_share_an_npn_class_but_not_a_p_class() {
        // The satellite-bug regression pair: P-only canonicalization keeps a
        // NOR cone and an OR gate apart (structural bias the paper's §4
        // concedes); NPN identifies them through output negation.
        let or2 = TruthTable::from_fn(2, |m| m != 0);
        let nor2 = TruthTable::from_fn(2, |m| m == 0);
        assert_ne!(or2.p_canonical().0, nor2.p_canonical().0);
        assert_eq!(or2.npn_canonical().0, nor2.npn_canonical().0);
    }

    #[test]
    fn the_and_or_nand_nor_family_is_one_npn_class() {
        let and2 = TruthTable::from_fn(2, |m| m == 0b11);
        let or2 = TruthTable::from_fn(2, |m| m != 0);
        let nand2 = TruthTable::from_fn(2, |m| m != 0b11);
        let nor2 = TruthTable::from_fn(2, |m| m == 0);
        let canon = and2.npn_canonical().0;
        for f in [or2, nand2, nor2] {
            assert_eq!(f.npn_canonical().0, canon);
        }
        // XOR is a different class.
        let xor2 = TruthTable::from_fn(2, |m| (m.count_ones() & 1) == 1);
        assert_ne!(xor2.npn_canonical().0, canon);
    }

    #[test]
    fn npn_transform_is_a_witness() {
        for (n, bits) in [
            (2, 0b0110u64),
            (3, 0b1011_0010),
            (4, 0xB6A1),
            (5, 0xDEAD_BEEF),
            (6, 0x0123_4567_89AB_CDEF),
        ] {
            let t = TruthTable::from_bits(n, bits);
            let (canon, tr) = t.npn_canonical();
            assert_eq!(t.apply_npn(&tr), canon, "n={n}");
        }
    }

    #[test]
    fn npn_canonical_is_invariant_under_random_npn_transforms() {
        let base = TruthTable::from_fn(4, |m| (m & 0b1001) == 0b1001 || m == 0b0110);
        let canon = base.npn_canonical().0;
        // Permutations, input negations and output negation all preserve it.
        let variants = [
            base.apply_npn(&NpnTransform {
                perm: vec![2, 0, 3, 1],
                input_neg: 0b0101,
                output_neg: false,
            }),
            base.apply_npn(&NpnTransform {
                perm: vec![3, 2, 1, 0],
                input_neg: 0b1110,
                output_neg: true,
            }),
            base.apply_npn(&NpnTransform {
                perm: vec![0, 1, 2, 3],
                input_neg: 0,
                output_neg: true,
            }),
        ];
        for v in variants {
            assert_eq!(v.npn_canonical().0, canon);
        }
    }

    #[test]
    fn npn_refines_p() {
        // P-equivalent functions are always NPN-equivalent.
        let t = TruthTable::from_fn(3, |m| m == 0b101 || m == 0b011);
        let p = t.permute(&[2, 0, 1]);
        assert_eq!(t.npn_canonical().0, p.npn_canonical().0);
    }
}
