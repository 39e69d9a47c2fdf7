use dagmap_genlib::{GateId, Library};

use crate::tt::{NpnTransform, TruthTable, TtMap, MAX_INPUTS};

/// A function-indexed view of a gate library, keyed two ways:
///
/// * **P classes** (canonical modulo input permutation): a lookup here
///   yields gates whose pins can bind the cut leaves directly, no
///   polarity fixup needed.
/// * **NPN classes** (canonical modulo input permutation × input negation
///   × output negation): the wider net. A hit records the gate's
///   canonicalizing [`NpnTransform`] so the matcher can compose it with
///   the cut's transform and replay pin bindings and polarities exactly.
///
/// Only gates with at most `max_inputs` pins, no dead pins and non-constant
/// functions participate (wider or degenerate gates are simply not found by
/// Boolean matching). `max_inputs` is clamped to [`MAX_INPUTS`] — a library
/// reporting wider gates no longer panics the index (the former
/// `assert!`-on-width bug); its wide gates just sit the matching out.
///
/// ```
/// use dagmap_boolmatch::{LibraryIndex, TruthTable};
/// use dagmap_genlib::Library;
///
/// let library = Library::lib_44_1_like();
/// let index = LibraryIndex::build(&library, 4);
/// let nand2 = TruthTable::from_fn(2, |m| m != 0b11);
/// let (canon, _) = nand2.p_canonical();
/// assert_eq!(index.lookup(&canon).len(), 1);
/// // NPN folds the whole and/or/nand/nor family into one class.
/// let (ncanon, _) = nand2.npn_canonical();
/// assert!(index.npn_lookup(&ncanon).len() >= 2);
/// ```
#[derive(Debug, Clone)]
pub struct LibraryIndex {
    map: TtMap<Vec<(GateId, Vec<usize>)>>,
    npn_map: TtMap<Vec<(GateId, NpnTransform)>>,
    max_inputs: usize,
    num_indexed: usize,
}

impl LibraryIndex {
    /// Indexes every eligible gate of `library`. `max_inputs` wider than
    /// [`MAX_INPUTS`] is clamped, not rejected: truth tables live in one
    /// `u64`, so wider functions cannot be canonicalized, and asking for
    /// them must not take the whole mapping run down.
    pub fn build(library: &Library, max_inputs: usize) -> LibraryIndex {
        let max_inputs = max_inputs.min(MAX_INPUTS);
        let mut map: TtMap<Vec<(GateId, Vec<usize>)>> = TtMap::default();
        let mut npn_map: TtMap<Vec<(GateId, NpnTransform)>> = TtMap::default();
        let mut num_indexed = 0;
        for (gi, gate) in library.gate_ids().zip(library.gates()) {
            let n = gate.num_pins();
            if n == 0 || n > max_inputs {
                continue;
            }
            let tt = TruthTable::from_bits(n, gate.program().truth_table());
            if tt.is_constant() || (0..n).any(|i| !tt.depends_on(i)) {
                continue; // degenerate gates (buffers of subsets, constants)
            }
            let (canon, perm) = tt.p_canonical();
            map.entry(canon).or_default().push((gi, perm));
            let (ncanon, nt) = tt.npn_canonical();
            npn_map.entry(ncanon).or_default().push((gi, nt));
            num_indexed += 1;
        }
        LibraryIndex {
            map,
            npn_map,
            max_inputs,
            num_indexed,
        }
    }

    /// Gates whose P-canonical function equals `canon`, with their
    /// canonicalizing pin permutations.
    pub fn lookup(&self, canon: &TruthTable) -> &[(GateId, Vec<usize>)] {
        self.map.get(canon).map(Vec::as_slice).unwrap_or(&[])
    }

    /// Gates whose NPN-canonical function equals `canon`, with their
    /// canonicalizing transforms.
    pub fn npn_lookup(&self, canon: &TruthTable) -> &[(GateId, NpnTransform)] {
        self.npn_map.get(canon).map(Vec::as_slice).unwrap_or(&[])
    }

    /// Largest pin count indexed.
    pub fn max_inputs(&self) -> usize {
        self.max_inputs
    }

    /// Number of gates indexed.
    pub fn num_indexed(&self) -> usize {
        self.num_indexed
    }

    /// Number of distinct P-classes present.
    pub fn num_classes(&self) -> usize {
        self.map.len()
    }

    /// Number of distinct NPN-classes present (≤ the P-class count: NPN
    /// only merges).
    pub fn num_npn_classes(&self) -> usize {
        self.npn_map.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn indexes_the_small_gates() {
        let library = Library::lib2_like();
        let index = LibraryIndex::build(&library, 4);
        // Every <=4-input gate with live pins lands in the index (`buf`
        // included: identity cones exist in unhashed subject graphs);
        // 5- and 6-input AOIs are too wide.
        let eligible = library
            .gates()
            .iter()
            .filter(|g| g.num_pins() >= 1 && g.num_pins() <= 4)
            .count();
        assert_eq!(index.num_indexed(), eligible);
        assert!(index.num_classes() <= index.num_indexed());
        assert!(index.num_npn_classes() <= index.num_classes());
    }

    #[test]
    fn p_equivalent_gates_share_a_class() {
        // and2 appears once; nand2 and nand2 via other orderings collapse.
        let library = Library::lib_44_3_like();
        let index = LibraryIndex::build(&library, 4);
        let and2 = TruthTable::from_fn(2, |m| m == 0b11);
        let (canon, _) = and2.p_canonical();
        assert_eq!(index.lookup(&canon).len(), 1);
        let aoi21 = TruthTable::from_fn(3, |m| !((m & 0b011) == 0b011 || (m & 0b100) != 0));
        let (canon, _) = aoi21.p_canonical();
        assert!(!index.lookup(&canon).is_empty(), "aoi21 is in 44-3");
    }

    #[test]
    fn buffers_occupy_the_identity_class() {
        let library = Library::lib2_like();
        let index = LibraryIndex::build(&library, 4);
        let ident = TruthTable::from_fn(1, |m| m == 1);
        let (canon, _) = ident.p_canonical();
        let hits = index.lookup(&canon);
        assert_eq!(hits.len(), 1);
        assert_eq!(library.gate(hits[0].0).name(), "buf");
    }

    #[test]
    fn npn_lookup_reaches_negation_equivalent_gates() {
        // lib2 has and2, or2, nand2, nor2 — one NPN class, four entries,
        // where the P map keeps four separate classes.
        let library = Library::lib2_like();
        let index = LibraryIndex::build(&library, 4);
        let or2 = TruthTable::from_fn(2, |m| m != 0);
        let (ncanon, _) = or2.npn_canonical();
        let family: Vec<&str> = index
            .npn_lookup(&ncanon)
            .iter()
            .map(|(g, _)| library.gate(*g).name())
            .collect();
        assert!(family.len() >= 4, "and/or/nand/nor collapse: {family:?}");
        let (pcanon, _) = or2.p_canonical();
        assert!(index.lookup(&pcanon).len() < family.len());
        // Every recorded transform is a replayable witness.
        for (g, t) in index.npn_lookup(&ncanon) {
            let gate = library.gate(*g);
            let tt = TruthTable::from_bits(gate.num_pins(), gate.program().truth_table());
            assert_eq!(tt.apply_npn(t), ncanon, "{}", gate.name());
        }
    }

    #[test]
    fn overwide_requests_are_clamped_not_panicked() {
        // The satellite-bug regression: a library whose max_inputs exceeds
        // MAX_INPUTS used to panic the index via `assert!`; a synthetic
        // 7-input gate must now simply be skipped.
        use dagmap_genlib::Gate;
        let wide = Gate::uniform("and7", 7.0, "O", "a*b*c*d*e*f*g", 1.0).unwrap();
        let mut gates = Library::lib2_like().gates().to_vec();
        gates.push(wide);
        let library = Library::new("wide", gates).unwrap();
        assert!(library.max_gate_inputs() >= 7);
        let index = LibraryIndex::build(&library, library.max_gate_inputs());
        assert_eq!(index.max_inputs(), MAX_INPUTS);
        assert!(index.num_indexed() > 0);
        // The wide gate is not indexed under any class.
        let and7 = library.find_gate("and7").unwrap();
        assert!(index.map.values().flatten().all(|(g, _)| *g != and7));
        assert!(index.npn_map.values().flatten().all(|(g, _)| *g != and7));
    }
}
