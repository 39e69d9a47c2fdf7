use dagmap_genlib::{GateId, Library, PatternGraph, PatternId, PatternNode, RootMasks};
use dagmap_netlist::fingerprint::{extract_cone, ConeScratch, ConeSpec};
use dagmap_netlist::{FlatNet, NodeId, Sig, Signatures, SubjectGraph, KIND_INV, KIND_NAND};

use crate::shared::SharedMatchStore;
use crate::store::{ClassId, MatchStore, HOME_SELF};

/// Which match semantics to enforce (Definitions 1–3 of the paper).
#[derive(Debug, Copy, Clone, PartialEq, Eq, Hash)]
pub enum MatchMode {
    /// One-to-one embedding preserving edges and in-degrees; covered nodes
    /// may still fan out to uncovered logic (Definition 1).
    Standard,
    /// Standard plus fanout-count equality on internal nodes, so covered
    /// logic never escapes the match (Definition 2) — the tree-covering
    /// notion.
    Exact,
    /// Standard without the one-to-one requirement; the pattern may unfold
    /// reconvergent subject structure (Definition 3).
    Extended,
}

/// One successful match of a library gate rooted at a subject node.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Match {
    /// The gate this match instantiates.
    pub gate: GateId,
    /// The expanded pattern that produced the match; `None` for matches
    /// found by non-structural means (Boolean matching).
    pub pattern: Option<PatternId>,
    /// Subject node bound to each gate pin, in canonical pin order.
    /// Extended matches may bind the same node to several pins.
    pub leaves: Vec<NodeId>,
    /// Distinct subject nodes bound to internal pattern nodes (the logic the
    /// gate replaces), root included.
    pub covered: Vec<NodeId>,
}

/// A borrowed view of one match, valid only inside the enumeration
/// callback of [`Matcher::for_each_match_at`].
///
/// The leaf and covered slices point into the caller's [`MatchScratch`], so
/// consuming a match costs nothing; call [`MatchView::to_match`] only when
/// the match must outlive the callback.
#[derive(Debug, Copy, Clone)]
pub struct MatchView<'a> {
    /// The gate this match instantiates.
    pub gate: GateId,
    /// The expanded pattern that produced the match.
    pub pattern: PatternId,
    /// Subject node bound to each gate pin, in canonical pin order.
    pub leaves: &'a [NodeId],
    /// Distinct subject nodes bound to internal pattern nodes, root included.
    pub covered: &'a [NodeId],
}

impl MatchView<'_> {
    /// Materializes an owned [`Match`].
    pub fn to_match(&self) -> Match {
        Match {
            gate: self.gate,
            pattern: Some(self.pattern),
            leaves: self.leaves.to_vec(),
            covered: self.covered.to_vec(),
        }
    }
}

/// Counters of one enumeration call.
#[derive(Debug, Copy, Clone, Default, PartialEq, Eq)]
pub struct MatchStats {
    /// Distinct matches reported (after per-node dedup).
    pub enumerated: usize,
    /// Pattern candidates skipped without any search — by the depth
    /// pre-filter, and (when the fingerprint index is on) by the shape
    /// bucket. The count therefore depends on the [`MatchConfig`]; it
    /// measures avoided work, while `enumerated` and the match sequence
    /// itself are configuration-independent.
    pub pruned: usize,
    /// Cone-class lookups performed (1 per memoized call, 0 otherwise).
    pub memo_lookups: usize,
    /// Cone-class lookups that hit and replayed a stored enumeration.
    pub memo_hits: usize,
    /// Memo hits resolved through the strash-id fast path: the node's
    /// structural signature went straight to its class, skipping cone
    /// extraction entirely. Always ≤ `memo_hits`.
    pub memo_id_hits: usize,
    /// 64-wide candidate words evaluated by the batched kernel. Memo
    /// replays touch no words, so this counts *performed* kernel work.
    pub words: usize,
    /// Set bits across the evaluated candidate words — together with
    /// `words` this yields the kernel's batch occupancy.
    pub candidate_bits: usize,
}

impl MatchStats {
    /// Accumulates another call's counters.
    pub fn absorb(&mut self, other: MatchStats) {
        self.enumerated += other.enumerated;
        self.pruned += other.pruned;
        self.memo_lookups += other.memo_lookups;
        self.memo_hits += other.memo_hits;
        self.memo_id_hits += other.memo_id_hits;
        self.words += other.words;
        self.candidate_bits += other.candidate_bits;
    }
}

/// When to memoize whole enumerations by cone class (stage 2 of the match
/// acceleration).
///
/// Memoization pays a canonical cone extraction and a hash probe on *every*
/// node; it wins only when the enumeration it replaces is expensive — big
/// expanded pattern sets with deep patterns. On cheap libraries the probe
/// overhead exceeds the saved search even at high hit rates, so the
/// default `Auto` policy sizes the decision per library.
#[derive(Debug, Copy, Clone, PartialEq, Eq, Hash)]
pub enum MemoPolicy {
    /// Memoize when the library's expanded pattern set is large enough
    /// that replay beats fresh enumeration (see
    /// [`Matcher::AUTO_MEMO_MIN_PATTERN_NODES`]).
    Auto,
    /// Always memoize.
    On,
    /// Never memoize.
    Off,
}

/// Switches for the two match-acceleration stages. Both default on; both
/// preserve the exact match sequence (and therefore every downstream label,
/// tie-break and mapped netlist) of the naive full scan.
#[derive(Debug, Copy, Clone, PartialEq, Eq)]
pub struct MatchConfig {
    /// Stage 1: AND the library's per-shape-class candidate bitmask rows
    /// into the depth rows so only root-neighborhood-compatible patterns
    /// are attempted.
    pub index: bool,
    /// Stage 2: memoize whole enumerations by canonical cone class in a
    /// [`MatchStore`] and replay them through the cone isomorphism. Only
    /// takes effect through [`Matcher::for_each_match_via`] /
    /// [`Matcher::class_at`], which carry the store.
    pub memo: MemoPolicy,
    /// Stage 3: key warm memo probes on the subject's structural
    /// signatures ([`dagmap_netlist::strash`]) so a repeat probe is one
    /// O(1) hash lookup instead of a canonical cone extraction. Falls back
    /// to cone keys automatically when signatures are unusable (exact-mode
    /// semantics, which key on fanout counts signatures don't capture, or
    /// a non-injective signature map). Only meaningful when `memo` is in
    /// effect; replay sequences are identical either way.
    pub strash_ids: bool,
}

impl Default for MatchConfig {
    fn default() -> MatchConfig {
        MatchConfig {
            index: true,
            memo: MemoPolicy::Auto,
            strash_ids: true,
        }
    }
}

impl MatchConfig {
    /// Both stages off: the naive full scan (the reference behavior).
    pub fn baseline() -> MatchConfig {
        MatchConfig {
            index: false,
            memo: MemoPolicy::Off,
            strash_ids: false,
        }
    }
}

/// Reusable buffers for allocation-free match enumeration.
///
/// The matcher's hot loop used to build a fresh `HashMap` owner table,
/// `HashSet` dedup set and `Vec<Match>` per node per pattern attempt; with a
/// `MatchScratch` every table is a plain reused `Vec`:
///
/// * `binding` — pattern-node → subject-node table, reset per pattern (its
///   length is the pattern size, a handful of entries),
/// * `owned` — subject-node membership flags for the one-to-one rule,
///   restored exactly by the backtracking search, so it is never cleared,
/// * `seen_keys`/`seen_leaves` — a flat arena of (gate, leaf-slice) keys for
///   per-node dedup, replacing the hashing of owned `Vec<NodeId>` keys,
/// * `leaves_buf`/`covered_buf` — the current match's pin binding, bounded
///   by the widest gate of the library.
///
/// One scratch per thread is the intended usage; a labeling pass of
/// `dagmap-core` keeps one for its whole run.
///
/// The scratch also embeds a [`ConeScratch`] used by the memoized entry
/// points ([`Matcher::class_at`], [`Matcher::for_each_match_via`]) to
/// canonicalize the bounded-depth cone of the queried node.
#[derive(Debug, Default, Clone)]
pub struct MatchScratch {
    bufs: EnumBufs,
    cone: ConeScratch,
    /// Concrete subject nodes a strash-id memo hit resolved its stored
    /// local signatures to; plays the role `cone.locals()` plays on the
    /// cone-keyed path.
    id_locals: Vec<NodeId>,
}

/// The enumeration-only buffers, split out so the cone scratch can be
/// borrowed independently during memo capture.
#[derive(Debug, Default, Clone)]
struct EnumBufs {
    binding: Vec<Option<NodeId>>,
    owned: Vec<bool>,
    seen_keys: Vec<(GateId, u32, u32)>,
    seen_leaves: Vec<NodeId>,
    leaves_buf: Vec<NodeId>,
    covered_buf: Vec<NodeId>,
}

impl MatchScratch {
    /// Creates an empty scratch; buffers grow to steady-state on first use.
    pub fn new() -> MatchScratch {
        MatchScratch::default()
    }

    /// The cone locals of the last [`Matcher::class_at`] query: local index
    /// `i` of any match template of the returned class stands for concrete
    /// subject node `cone_locals()[i]`.
    pub fn cone_locals(&self) -> &[NodeId] {
        self.cone.locals()
    }

    /// Pre-sizes every buffer for enumerating `library`'s patterns over a
    /// subject graph of `num_nodes` nodes, so steady-state enumeration
    /// performs no heap allocation. The pattern-shaped buffers have exact
    /// bounds; the per-node dedup arena is sized from a per-pattern
    /// embedding estimate with generous headroom.
    pub fn prepare(&mut self, library: &Library, num_nodes: usize) {
        let bufs = &mut self.bufs;
        if bufs.owned.len() < num_nodes {
            bufs.owned.resize(num_nodes, false);
        }
        let mut max_len = 0usize;
        let mut max_internal = 0usize;
        let mut embeddings = 0usize;
        for p in library.patterns() {
            let g = &p.graph;
            max_len = max_len.max(g.len());
            let internal = g.num_internal();
            max_internal = max_internal.max(internal);
            // Each internal NAND at most doubles the pin-order branching.
            embeddings += 1usize << internal.min(8);
        }
        bufs.binding.reserve(max_len);
        bufs.leaves_buf.reserve(library.max_gate_inputs());
        bufs.covered_buf.reserve(max_internal);
        bufs.seen_keys.reserve(embeddings);
        bufs.seen_leaves
            .reserve(embeddings * library.max_gate_inputs());
        self.cone.prepare(num_nodes, library.max_pattern_depth());
        // A depth-D cone over 2-input nodes holds at most 2^(D+1) nodes,
        // which bounds any stored class's local table.
        let cone_cap = (2usize << library.max_pattern_depth().min(12)).min(num_nodes.max(1));
        self.id_locals.reserve(cone_cap);
    }
}

/// Backtracking state shared across the recursive search.
struct State<'a> {
    binding: &'a mut Vec<Option<NodeId>>,
    owned: &'a mut Vec<bool>,
}

/// Enumerates matches of a library's expanded pattern set at subject nodes.
///
/// See the [crate docs](crate) for an example.
#[derive(Debug, Clone, Copy)]
pub struct Matcher<'a> {
    library: &'a Library,
    config: MatchConfig,
    /// [`MatchConfig::memo`] resolved against the library's cost estimate.
    memo_on: bool,
}

impl<'a> Matcher<'a> {
    /// [`MemoPolicy::Auto`] threshold: memoize when the library's total
    /// expanded-pattern node count (the paper's `p`, the per-node
    /// enumeration cost driver) reaches this. Calibrated on the builtin
    /// libraries: the big 44-3-style library (~12k pattern nodes, where
    /// replay is a 1.5–3× speedup) sits far above, while minimal (5),
    /// 44-1-style (73), the depth-2 supergate extension of 44-1 (153) and
    /// lib2-style (243) — where the cone-extraction probe makes
    /// memoization a measured pessimization down to 0.43× — sit well
    /// below.
    pub const AUTO_MEMO_MIN_PATTERN_NODES: usize = 1024;

    /// Creates a matcher over `library`'s expanded pattern set with the
    /// default (fully accelerated) [`MatchConfig`].
    pub fn new(library: &'a Library) -> Self {
        Matcher::with_config(library, MatchConfig::default())
    }

    /// Creates a matcher with an explicit acceleration configuration.
    pub fn with_config(library: &'a Library, config: MatchConfig) -> Self {
        let memo_on = match config.memo {
            MemoPolicy::On => true,
            MemoPolicy::Off => false,
            MemoPolicy::Auto => {
                library.total_pattern_nodes() >= Matcher::AUTO_MEMO_MIN_PATTERN_NODES
            }
        };
        Matcher {
            library,
            config,
            memo_on,
        }
    }

    /// The library being matched against.
    pub fn library(&self) -> &'a Library {
        self.library
    }

    /// The acceleration configuration in effect.
    pub fn config(&self) -> MatchConfig {
        self.config
    }

    /// Whether [`Matcher::for_each_match_via`] will actually consult the
    /// match store — the [`MemoPolicy`] resolved against this library.
    pub fn memo_enabled(&self) -> bool {
        self.memo_on
    }

    /// Enumerates all distinct matches rooted at `node`, invoking `f` once
    /// per match with a zero-copy [`MatchView`] into `scratch`.
    ///
    /// Two matches are the same when they instantiate the same gate with the
    /// same pin binding (different internal routes or pattern shapes do not
    /// multiply results). Inputs, constants and latches have no matches.
    ///
    /// Patterns whose NAND/INV depth exceeds the subject node's topological
    /// level cannot embed (every pattern edge descends at least one subject
    /// level) and are skipped without search; with the fingerprint index on
    /// (see [`MatchConfig::index`]) patterns outside the node's shape-class
    /// bucket are likewise skipped up front. [`MatchStats::pruned`] counts
    /// both. Either way the surviving candidates are tried in ascending
    /// pattern order, so the match sequence is identical to the full scan.
    pub fn for_each_match_at(
        &self,
        subject: &SubjectGraph,
        node: NodeId,
        mode: MatchMode,
        scratch: &mut MatchScratch,
        f: &mut dyn FnMut(MatchView<'_>),
    ) -> MatchStats {
        self.enumerate(subject, node, mode, &mut scratch.bufs, f)
    }

    /// The enumeration core, operating on the split-out buffers so the
    /// memoizing wrappers can hold the cone scratch alongside.
    ///
    /// Candidates are evaluated in 64-wide batches: the library's per-root
    /// bitmask rows give a depth-eligibility word and (with the index on) a
    /// shape-class word per 64 patterns, and their AND is the candidate
    /// word whose set bits — walked in ascending order, so the enumeration
    /// sequence is that of the plain candidate-list scan — drive the
    /// backtracking search. Pruning therefore costs one AND + popcount per
    /// word instead of a branch per pattern.
    fn enumerate(
        &self,
        subject: &SubjectGraph,
        node: NodeId,
        mode: MatchMode,
        bufs: &mut EnumBufs,
        f: &mut dyn FnMut(MatchView<'_>),
    ) -> MatchStats {
        let flat = subject.flat();
        let (all, masks): (&[PatternId], &RootMasks) = match flat.kind(node) {
            KIND_NAND => (self.library.patterns_rooted_nand(), self.library.nand_masks()),
            KIND_INV => (self.library.patterns_rooted_inv(), self.library.inv_masks()),
            _ => return MatchStats::default(),
        };
        let mut stats = MatchStats::default();
        let depth_row = masks.depth_row(flat.level(node));
        // Stage-1 acceleration: AND in the shape-class row, which keeps
        // exactly the root-neighborhood-compatible patterns.
        let class_row = self
            .config
            .index
            .then(|| masks.class_row(subject.shape_class(node)));

        if bufs.owned.len() < flat.num_nodes() {
            bufs.owned.resize(flat.num_nodes(), false);
        }
        bufs.seen_keys.clear();
        bufs.seen_leaves.clear();

        let EnumBufs {
            binding,
            owned,
            seen_keys,
            seen_leaves,
            leaves_buf,
            covered_buf,
        } = bufs;

        let mut live = 0usize;
        for wi in 0..masks.words() {
            let mut word = match class_row {
                Some(row) => row[wi] & depth_row[wi],
                None => depth_row[wi],
            };
            stats.words += 1;
            live += word.count_ones() as usize;
            while word != 0 {
                let pos = wi * 64 + word.trailing_zeros() as usize;
                word &= word - 1;
                let pid = all[pos];
                let lp = self.library.pattern(pid);
                let graph = &lp.graph;
                binding.clear();
                binding.resize(graph.len(), None);
                let mut st = State { binding, owned };
                try_bind(flat, graph, mode, graph.root(), node, &mut st, &mut |st| {
                // Complete binding: extract the pin assignment and the
                // covered internal nodes into the reused buffers.
                leaves_buf.clear();
                leaves_buf.resize(graph.num_pins(), NodeId::from_index(0));
                covered_buf.clear();
                for (i, pn) in graph.nodes().iter().enumerate() {
                    let s = st.binding[i].expect("complete matches bind every node");
                    match pn {
                        PatternNode::Leaf { pin } => leaves_buf[*pin] = s,
                        _ => {
                            if !covered_buf.contains(&s) {
                                covered_buf.push(s);
                            }
                        }
                    }
                }
                // Dedup against earlier matches at this node: linear scan of
                // the flat key arena (match counts per node are small).
                let duplicate = seen_keys.iter().any(|&(g, off, len)| {
                    g == lp.gate
                        && &seen_leaves[off as usize..(off + len) as usize] == leaves_buf.as_slice()
                });
                    if !duplicate {
                        let off = u32::try_from(seen_leaves.len()).expect("arena fits u32");
                        let len = u32::try_from(leaves_buf.len()).expect("pin count fits u32");
                        seen_leaves.extend_from_slice(leaves_buf);
                        seen_keys.push((lp.gate, off, len));
                        stats.enumerated += 1;
                        f(MatchView {
                            gate: lp.gate,
                            pattern: pid,
                            leaves: leaves_buf,
                            covered: covered_buf,
                        });
                    }
                });
            }
        }
        // Everything the candidate words masked off — depth-ineligible
        // patterns, plus (with the index on) shape-incompatible ones —
        // was skipped without any search.
        stats.candidate_bits = live;
        stats.pruned = all.len() - live;
        stats
    }

    /// Enumerates all distinct matches rooted at `node` as owned values.
    ///
    /// A convenience wrapper over [`Matcher::for_each_match_at`] for callers
    /// that are not on a hot path; it allocates a fresh scratch and one
    /// `Match` per result.
    pub fn matches_at(&self, subject: &SubjectGraph, node: NodeId, mode: MatchMode) -> Vec<Match> {
        let mut scratch = MatchScratch::new();
        let mut out = Vec::new();
        self.for_each_match_at(subject, node, mode, &mut scratch, &mut |mv| {
            out.push(mv.to_match());
        });
        out
    }

    /// Counts distinct matches at one node via the enumeration callback,
    /// without materializing any `Match` value.
    pub fn count_matches_at(&self, subject: &SubjectGraph, node: NodeId, mode: MatchMode) -> usize {
        let mut scratch = MatchScratch::new();
        self.for_each_match_at(subject, node, mode, &mut scratch, &mut |_| {})
            .enumerated
    }

    /// Resolves the cone class of `node` in `store`, enumerating and
    /// recording its matches as templates on a miss (stage-2 memoization).
    ///
    /// Returns `None` for nodes that can never match (inputs, constants,
    /// latches). On return, `scratch.cone_locals()` maps the class's local
    /// indices to this node's concrete cone members; the returned stats are
    /// those of a fresh enumeration (`enumerated` = template count,
    /// `pruned` = the recorded run's pruned count) plus the memo counters.
    ///
    /// Soundness: the class key is the canonical serialization of the
    /// depth-`D` cone (`D` = the library's maximum pattern depth) together
    /// with the mode and the node's level capped at `D`. Within depth `D`
    /// every binding decision of [`try_bind`] — kind checks, fanin-order
    /// branching, sharing via re-bound pattern nodes, the exact-mode
    /// fanout test (fanout counts are part of the key precisely when
    /// `mode == Exact`) — is a function of that serialization, and the
    /// depth pre-filter is a function of the capped level, so equal keys
    /// yield isomorphic enumerations in identical order.
    pub fn class_at(
        &self,
        subject: &SubjectGraph,
        node: NodeId,
        mode: MatchMode,
        scratch: &mut MatchScratch,
        store: &mut MatchStore,
    ) -> (Option<ClassId>, MatchStats) {
        store.check_library(self.library);
        let flat = subject.flat();
        if !flat.is_gate(node) {
            return (None, MatchStats::default());
        }
        let spec = ConeSpec {
            max_depth: store.max_depth(),
            record_fanouts: mode == MatchMode::Exact,
            fanout_cap: store.fanout_cap(),
        };
        let MatchScratch { bufs, cone, .. } = scratch;
        extract_cone(flat, node, spec, cone);
        let level_cap = flat.level(node).min(store.max_depth());
        let mut stats = MatchStats {
            memo_lookups: 1,
            ..MatchStats::default()
        };
        if let Some(class) = store.probe(mode, level_cap, cone.key()) {
            stats.memo_hits = 1;
            stats.enumerated = store.num_templates(class);
            stats.pruned = store.pruned_of(class);
            return (Some(class), stats);
        }
        let class = store.begin_class();
        let run = self.enumerate(subject, node, mode, bufs, &mut |mv| {
            store.push_template(
                class,
                mv.gate,
                mv.pattern,
                mv.leaves
                    .iter()
                    .map(|&id| cone.local_of(id).expect("match leaf inside cone")),
                mv.covered
                    .iter()
                    .map(|&id| cone.local_of(id).expect("covered node inside cone")),
            );
        });
        store.set_pruned(class, run.pruned);
        stats.enumerated = run.enumerated;
        stats.pruned = run.pruned;
        (Some(class), stats)
    }

    /// Memoized variant of [`Matcher::for_each_match_at`]: resolves the
    /// node's cone class in `store` and replays the stored templates, so
    /// repeated cones cost a hash probe plus a copy per match instead of a
    /// backtracking search. Falls back to direct enumeration when
    /// [`MatchConfig::memo`] is off. The callback sequence is identical in
    /// every case.
    pub fn for_each_match_via(
        &self,
        subject: &SubjectGraph,
        node: NodeId,
        mode: MatchMode,
        scratch: &mut MatchScratch,
        store: &mut MatchStore,
        f: &mut dyn FnMut(MatchView<'_>),
    ) -> MatchStats {
        if !self.memo_on {
            let stats = self.for_each_match_at(subject, node, mode, scratch, f);
            dagmap_obs::sample("match.per_node", stats.enumerated as u64);
            return stats;
        }
        let sig = self.strash_sig(subject, node, mode);
        if let Some(sig) = sig {
            if let Some(stats) = self.replay_id_hit_local(subject, mode, sig, scratch, store, f) {
                return stats;
            }
        }
        let (class, stats) = self.class_at(subject, node, mode, scratch, store);
        dagmap_obs::sample("match.per_node", stats.enumerated as u64);
        let Some(class) = class else {
            return stats;
        };
        let MatchScratch { bufs, cone, .. } = scratch;
        if let Some(sig) = sig {
            // Alias the class under the node's signature so the next probe
            // of this structure skips cone extraction. The locals are
            // stored as signatures: a later probing subject resolves them
            // through its own signature index, which maps each one to the
            // corresponding member of its own (structurally identical)
            // cone.
            let sigs = subject.signatures();
            store.register_id(
                mode,
                sig,
                class,
                cone.locals().iter().map(|&id| sigs.sig_of(id)),
                HOME_SELF,
                0,
            );
        }
        replay_class(store, class, cone.locals(), bufs, f);
        stats
    }

    /// Resolves the node's signature against `store`'s id index and, on a
    /// hit, replays the class without touching the cone extractor. Returns
    /// `None` (counting nothing) when the id index has no usable entry, in
    /// which case the caller falls back to the cone-keyed path.
    fn replay_id_hit_local(
        &self,
        subject: &SubjectGraph,
        mode: MatchMode,
        sig: Sig,
        scratch: &mut MatchScratch,
        store: &mut MatchStore,
        f: &mut dyn FnMut(MatchView<'_>),
    ) -> Option<MatchStats> {
        let MatchScratch { bufs, id_locals, .. } = scratch;
        let (class, home, _) = resolve_id_entry(store, subject.signatures(), mode, sig, id_locals)?;
        debug_assert_eq!(home, HOME_SELF, "single-store entries are self-homed");
        store.count_id_hit();
        let stats = MatchStats {
            memo_lookups: 1,
            memo_hits: 1,
            memo_id_hits: 1,
            enumerated: store.num_templates(class),
            pruned: store.pruned_of(class),
            ..MatchStats::default()
        };
        dagmap_obs::sample("match.per_node", stats.enumerated as u64);
        replay_class(store, class, id_locals, bufs, f);
        Some(stats)
    }

    /// The node's strash signature, iff it may key memo probes here: the
    /// config enables it, the mode is not exact (exact-mode class keys
    /// include fanout counts that signatures don't capture), the node is a
    /// gate, and the subject's signature map is injective (a within-subject
    /// signature collision would make id entries ambiguous; cross-subject
    /// collisions are accepted at the 2^-128 hash-collision odds).
    fn strash_sig(&self, subject: &SubjectGraph, node: NodeId, mode: MatchMode) -> Option<Sig> {
        if !self.config.strash_ids || mode == MatchMode::Exact {
            return None;
        }
        if !subject.flat().is_gate(node) {
            return None;
        }
        let sigs = subject.signatures();
        if !sigs.is_injective() {
            return None;
        }
        Some(sigs.sig_of(node))
    }

    /// Cross-request variant of [`Matcher::for_each_match_via`]: resolves
    /// the node's cone class in a [`SharedMatchStore`] — probing the hot
    /// generation, then the previous one (promoting on a hit), enumerating
    /// fresh on a double miss — and replays the templates under the shard
    /// lock. Falls back to direct enumeration when [`MatchConfig::memo`]
    /// resolves off for this library. The callback sequence is identical
    /// to the full scan in every case, so a daemon's mapped netlists are
    /// byte-identical to the one-shot CLI's.
    pub fn for_each_match_shared(
        &self,
        subject: &SubjectGraph,
        node: NodeId,
        mode: MatchMode,
        scratch: &mut MatchScratch,
        shared: &SharedMatchStore,
        f: &mut dyn FnMut(MatchView<'_>),
    ) -> MatchStats {
        if !self.memo_on {
            let stats = self.for_each_match_at(subject, node, mode, scratch, f);
            dagmap_obs::sample("match.per_node", stats.enumerated as u64);
            return stats;
        }
        shared.check_library(self.library);
        let flat = subject.flat();
        if !flat.is_gate(node) {
            return MatchStats::default();
        }
        if let Some(sig) = self.strash_sig(subject, node, mode) {
            return self.for_each_match_shared_by_sig(subject, node, mode, sig, scratch, shared, f);
        }
        let spec = ConeSpec {
            max_depth: shared.max_depth(),
            record_fanouts: mode == MatchMode::Exact,
            fanout_cap: shared.fanout_cap(),
        };
        let MatchScratch { bufs, cone, .. } = scratch;
        extract_cone(flat, node, spec, cone);
        let level_cap = flat.level(node).min(shared.max_depth());
        let mut stats = MatchStats {
            memo_lookups: 1,
            ..MatchStats::default()
        };
        let mut shard = shared.shard_for(mode, level_cap, cone.key());
        let class = if let Some(class) = shard.current.probe(mode, level_cap, cone.key()) {
            stats.memo_hits = 1;
            shared.note_hit();
            class
        } else if let Some(old) = shard.prev.probe(mode, level_cap, cone.key()) {
            // The missed probe staged the key in `current`; copy the aged
            // class forward so it survives the next rotation.
            let crate::shared::Shard { current, prev, .. } = &mut *shard;
            let class = current.copy_class_from(prev, old);
            stats.memo_hits = 1;
            shared.note_promotion();
            class
        } else {
            let crate::shared::Shard { current, .. } = &mut *shard;
            let class = current.begin_class();
            let run = self.enumerate(subject, node, mode, bufs, &mut |mv| {
                current.push_template(
                    class,
                    mv.gate,
                    mv.pattern,
                    mv.leaves
                        .iter()
                        .map(|&id| cone.local_of(id).expect("match leaf inside cone")),
                    mv.covered
                        .iter()
                        .map(|&id| cone.local_of(id).expect("covered node inside cone")),
                );
            });
            current.set_pruned(class, run.pruned);
            shared.note_miss();
            class
        };
        stats.enumerated = shard.current.num_templates(class);
        stats.pruned = shard.current.pruned_of(class);
        dagmap_obs::sample("match.per_node", stats.enumerated as u64);
        replay_class(&shard.current, class, cone.locals(), bufs, f);
        rotate_if_full(&mut shard, shared);
        stats
    }

    /// [`Matcher::for_each_match_shared`] with the node's strash signature
    /// keying the probe. Id entries live in the shard selected by
    /// signature; each is a *reference* `(home shard, rotation stamp,
    /// class)` to a class that keeps its canonical residence in the
    /// cone-key-selected shard. Two properties fall out of that split:
    ///
    /// * **Cross-subject sharing survives.** Signatures hash interface
    ///   names, so the same structure built by two differently-named
    ///   subjects carries two different sigs — but one cone key. Classes
    ///   stay cone-addressed, so the second subject's fallback finds what
    ///   the first enumerated; only the sig→class index is per-subject.
    /// * **No residency amplification.** Registering a sig alias adds a
    ///   small entry, not a class copy, so a parade of distinct subjects
    ///   cannot flood the LRU and evict the shared canonical classes (the
    ///   copy-based variant measurably did exactly that).
    ///
    /// The price is a stamp validation: an id hit locks the sig shard,
    /// then the home shard, and the reference only resolves while the
    /// home's rotation stamp matches. A stale reference (the home rotated
    /// since registration) falls back to the cone-keyed path, which
    /// re-registers the alias at the current stamp.
    fn for_each_match_shared_by_sig(
        &self,
        subject: &SubjectGraph,
        node: NodeId,
        mode: MatchMode,
        sig: Sig,
        scratch: &mut MatchScratch,
        shared: &SharedMatchStore,
        f: &mut dyn FnMut(MatchView<'_>),
    ) -> MatchStats {
        let sigs = subject.signatures();
        let flat = subject.flat();
        // Read the library bounds before taking the shard lock: these
        // accessors lock shard 0 internally, which would self-deadlock on a
        // single-shard store.
        let spec = ConeSpec {
            max_depth: shared.max_depth(),
            record_fanouts: mode == MatchMode::Exact,
            fanout_cap: shared.fanout_cap(),
        };
        let mut stats = MatchStats {
            memo_lookups: 1,
            ..MatchStats::default()
        };
        let MatchScratch {
            bufs,
            cone,
            id_locals,
        } = scratch;
        // Phase 1: the O(1) probe — look the sig up in the sig shard's id
        // index (both generations; entries are tiny, so aged ones are
        // still worth following) and take the `(home, stamp, class)`
        // reference out of the lock.
        let reference = {
            let shard = shared.shard_for_sig(sig);
            resolve_id_entry(&shard.current, sigs, mode, sig, id_locals)
                .or_else(|| resolve_id_entry(&shard.prev, sigs, mode, sig, id_locals))
        };
        // Phase 2: follow the reference to the class's home shard. The
        // stamp must still match — the home rotating between registration
        // (or phase 1) and here recycles class ids, so a stale reference
        // is discarded rather than resolved.
        if let Some((class, home, stamp)) = reference {
            let mut home_shard = shared.lock_shard(home as usize);
            if home_shard.stamp == stamp {
                // The id fast path's soundness invariant: signatures hash
                // the physical fanin order, so sig equality implies an
                // identical cone serialization — the resolved locals must
                // be exactly the cone locals, and the entry's class must
                // be the one the cone key resolves to. Checked in debug
                // builds only; release builds skip cone extraction here
                // entirely (the point of the fast path).
                #[cfg(debug_assertions)]
                {
                    extract_cone(flat, node, spec, cone);
                    debug_assert_eq!(
                        id_locals.as_slice(),
                        cone.locals(),
                        "sig-resolved locals diverge from cone locals at {node:?}"
                    );
                    let level_cap = flat.level(node).min(spec.max_depth);
                    debug_assert_eq!(
                        home_shard.current.probe(mode, level_cap, cone.key()),
                        Some(class),
                        "id entry resolves to a different class than the cone key at {node:?}"
                    );
                }
                home_shard.current.count_id_hit();
                shared.note_id_hit();
                stats.memo_hits = 1;
                stats.memo_id_hits = 1;
                stats.enumerated = home_shard.current.num_templates(class);
                stats.pruned = home_shard.current.pruned_of(class);
                dagmap_obs::sample("match.per_node", stats.enumerated as u64);
                replay_class(&home_shard.current, class, id_locals, bufs, f);
                return stats;
            }
        }
        // Phase 3: no usable reference — first sighting of this structure
        // *under this subject's signatures*, or a reference gone stale.
        // Extract the cone and resolve through canonical cone addressing:
        // a structure first seen through a differently-named subject
        // carries a different sig but the same cone key, and its class
        // lives in the cone-selected shard. Both shards are locked in
        // index order (no lock is held across the phases, so a racing
        // registration of the same sig is simply re-found by its cone key
        // here).
        extract_cone(flat, node, spec, cone);
        let level_cap = flat.level(node).min(spec.max_depth);
        let (mut shard, cone_shard) = shared.shard_pair(sig, mode, level_cap, cone.key());
        let (class, home_idx, home_stamp) = if let Some(mut cs) = cone_shard {
            // The canonical home is a different shard from the sig shard.
            let class = if let Some(class) = cs.current.probe(mode, level_cap, cone.key()) {
                stats.memo_hits = 1;
                shared.note_hit();
                class
            } else if let Some(old) = cs.prev.probe(mode, level_cap, cone.key()) {
                // The missed probe staged the key in `current`; copy the
                // aged class forward so it survives the next rotation.
                let crate::shared::Shard { current, prev, .. } = &mut *cs;
                let class = current.copy_class_from(prev, old);
                stats.memo_hits = 1;
                shared.note_promotion();
                class
            } else {
                let crate::shared::Shard { current, .. } = &mut *cs;
                let class = current.begin_class();
                let run = self.enumerate(subject, node, mode, bufs, &mut |mv| {
                    current.push_template(
                        class,
                        mv.gate,
                        mv.pattern,
                        mv.leaves
                            .iter()
                            .map(|&id| cone.local_of(id).expect("match leaf inside cone")),
                        mv.covered
                            .iter()
                            .map(|&id| cone.local_of(id).expect("covered node inside cone")),
                    );
                });
                current.set_pruned(class, run.pruned);
                shared.note_miss();
                class
            };
            stats.enumerated = cs.current.num_templates(class);
            stats.pruned = cs.current.pruned_of(class);
            let stamp = cs.stamp;
            let idx = shared.cone_shard_index(mode, level_cap, cone.key());
            // Replay from the canonical home before it can rotate.
            dagmap_obs::sample("match.per_node", stats.enumerated as u64);
            replay_class(&cs.current, class, cone.locals(), bufs, f);
            rotate_if_full(&mut cs, shared);
            (class, idx as u32, stamp)
        } else {
            // The sig shard is the canonical cone home too.
            let class = if let Some(class) = shard.current.probe(mode, level_cap, cone.key()) {
                stats.memo_hits = 1;
                shared.note_hit();
                class
            } else if let Some(old) = shard.prev.probe(mode, level_cap, cone.key()) {
                let crate::shared::Shard { current, prev, .. } = &mut *shard;
                let class = current.copy_class_from(prev, old);
                stats.memo_hits = 1;
                shared.note_promotion();
                class
            } else {
                let crate::shared::Shard { current, .. } = &mut *shard;
                let class = current.begin_class();
                let run = self.enumerate(subject, node, mode, bufs, &mut |mv| {
                    current.push_template(
                        class,
                        mv.gate,
                        mv.pattern,
                        mv.leaves
                            .iter()
                            .map(|&id| cone.local_of(id).expect("match leaf inside cone")),
                        mv.covered
                            .iter()
                            .map(|&id| cone.local_of(id).expect("covered node inside cone")),
                    );
                });
                current.set_pruned(class, run.pruned);
                shared.note_miss();
                class
            };
            stats.enumerated = shard.current.num_templates(class);
            stats.pruned = shard.current.pruned_of(class);
            dagmap_obs::sample("match.per_node", stats.enumerated as u64);
            replay_class(&shard.current, class, cone.locals(), bufs, f);
            let idx = shared.cone_shard_index(mode, level_cap, cone.key());
            (class, idx as u32, shard.stamp)
        };
        // Register the alias at the stamp the class was seen under; if its
        // home rotated in the meantime (or rotates next), the reference
        // simply reads as stale and this path re-registers it.
        shard.current.register_id(
            mode,
            sig,
            class,
            cone.locals().iter().map(|&id| sigs.sig_of(id)),
            home_idx,
            home_stamp,
        );
        rotate_if_full(&mut shard, shared);
        stats
    }
}

/// Rotates a shard's generations once `current` reaches the class cap:
/// `prev` is dropped (those classes went untouched for a whole generation
/// — the eviction), `current` ages into `prev`, a fresh `current` starts
/// filling, and the rotation stamp advances so strash-id references into
/// the aged generation read as stale. Callers invoke this only after the
/// class they resolved was replayed, so rotation never drops a class
/// mid-use.
///
/// Id entries also count toward rotation, at a much higher threshold:
/// they add no classes, so a stream that keeps registering aliases
/// without enumerating (many distinct subjects over a warm class set)
/// would otherwise grow the id index without bound. Entries are ~two
/// orders of magnitude smaller than classes, so the generous factor keeps
/// this valve from evicting classes under any normal mix.
fn rotate_if_full(shard: &mut crate::shared::Shard, shared: &SharedMatchStore) {
    let cap = shared.cap_per_shard();
    if shard.current.num_classes() >= cap || shard.current.id_count() >= cap.saturating_mul(64) {
        let fresh = shard.current.fresh_like();
        let evicted = shard.prev.num_classes();
        shard.prev = std::mem::replace(&mut shard.current, fresh);
        shard.stamp += 1;
        shared.note_rotation(evicted);
    }
}

/// Replays the stored templates of `class`, translating stored local
/// indices to concrete subject nodes through `locals` — the cone locals on
/// the cone-keyed path, or the signature-resolved locals on the strash-id
/// path.
fn replay_class(
    store: &MatchStore,
    class: ClassId,
    locals: &[NodeId],
    bufs: &mut EnumBufs,
    f: &mut dyn FnMut(MatchView<'_>),
) {
    for t in store.templates(class) {
        bufs.leaves_buf.clear();
        bufs.leaves_buf
            .extend(t.leaves.iter().map(|&l| locals[l as usize]));
        bufs.covered_buf.clear();
        bufs.covered_buf
            .extend(t.covered.iter().map(|&l| locals[l as usize]));
        f(MatchView {
            gate: t.gate,
            pattern: t.pattern,
            leaves: &bufs.leaves_buf,
            covered: &bufs.covered_buf,
        });
    }
}

/// Looks up `sig` in `store`'s id index and resolves the entry's stored
/// local signatures to this subject's concrete nodes via its signature
/// index, returning the class together with the entry's `(home, stamp)`
/// reference. Any unresolvable local (a strash-region boundary or foreign
/// structure) yields `None`, sending the caller down the cone-keyed path.
fn resolve_id_entry(
    store: &MatchStore,
    sigs: &Signatures,
    mode: MatchMode,
    sig: Sig,
    out: &mut Vec<NodeId>,
) -> Option<(ClassId, u32, u64)> {
    let (class, sig_locals, home, stamp) = store.id_entry(mode, sig)?;
    out.clear();
    for &s in sig_locals {
        out.push(sigs.lookup(s)?);
    }
    Some((class, home, stamp))
}

/// Attempts to bind pattern node `p` to subject node `s`, invoking `cont`
/// for every consistent completion of the remaining obligations and undoing
/// the binding afterwards.
fn try_bind(
    flat: &FlatNet,
    pattern: &PatternGraph,
    mode: MatchMode,
    p: usize,
    s: NodeId,
    st: &mut State,
    cont: &mut dyn FnMut(&mut State),
) {
    // A shared pattern node (leaf-DAG / DAG patterns) may be reached twice;
    // the second visit must agree with the first.
    if let Some(bound) = st.binding[p] {
        if bound == s {
            cont(st);
        }
        return;
    }
    let kind = flat.kind(s);
    let pn = pattern.node(p);
    let is_leaf = matches!(pn, PatternNode::Leaf { .. });
    // Condition 2 (function / in-degree compatibility; subject NANDs have
    // exactly two fanins by the subject-graph invariant).
    match pn {
        PatternNode::Leaf { .. } => {}
        PatternNode::Inv { .. } => {
            if kind != KIND_INV {
                return;
            }
        }
        PatternNode::Nand { .. } => {
            if kind != KIND_NAND {
                return;
            }
        }
    }
    // One-to-one requirement of standard and exact matches.
    if mode != MatchMode::Extended && st.owned[s.index()] {
        return;
    }
    // Condition 3 of exact matches: internal nodes must not fan out beyond
    // the pattern.
    if mode == MatchMode::Exact
        && !is_leaf
        && p != pattern.root()
        && flat.fanout_count(s) as u32 != pattern.fanout_count(p)
    {
        return;
    }

    st.binding[p] = Some(s);
    if mode != MatchMode::Extended {
        st.owned[s.index()] = true;
    }

    match pn {
        PatternNode::Leaf { .. } => cont(st),
        PatternNode::Inv { fanin } => {
            let target = flat.fanins(s)[0];
            try_bind(flat, pattern, mode, fanin, target, st, cont);
        }
        PatternNode::Nand { fanins: [c0, c1] } => {
            let f = flat.fanins(s);
            let (f0, f1) = (f[0], f[1]);
            // Both fanin orders: this is where input permutations of the
            // original gate are explored.
            for (x, y) in [(f0, f1), (f1, f0)] {
                try_bind(flat, pattern, mode, c0, x, st, &mut |st| {
                    try_bind(flat, pattern, mode, c1, y, st, &mut |st| cont(st));
                });
                if c0 == c1 || f0 == f1 {
                    break; // symmetric situations explore identical branches
                }
            }
        }
    }

    st.binding[p] = None;
    if mode != MatchMode::Extended {
        st.owned[s.index()] = false;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dagmap_genlib::Gate;
    use dagmap_netlist::{NetlistError, Network, NodeFn};
    use std::collections::HashSet;

    fn lib(gates: &[(&str, &str)]) -> Library {
        Library::new(
            "test",
            gates
                .iter()
                .map(|(n, e)| Gate::uniform(*n, 1.0, "O", e, 1.0).expect("test gate"))
                .collect(),
        )
        .expect("test library")
    }

    /// Subject graph wrapping hand-built NAND/INV structure (no strash).
    fn wrap(net: Network) -> SubjectGraph {
        SubjectGraph::from_subject_network(net).expect("valid subject")
    }

    fn gate_names(lib: &Library, matches: &[Match]) -> Vec<String> {
        let mut v: Vec<String> = matches
            .iter()
            .map(|m| lib.gate(m.gate).name().to_owned())
            .collect();
        v.sort();
        v
    }

    #[test]
    fn nand2_matches_bare_nand() -> Result<(), NetlistError> {
        let mut net = Network::new("n");
        let a = net.add_input("a");
        let b = net.add_input("b");
        let g = net.add_node(NodeFn::Nand, vec![a, b])?;
        net.add_output("f", g);
        let subject = wrap(net);
        let l = lib(&[("inv", "!a"), ("nand2", "!(a*b)")]);
        let m = Matcher::new(&l).matches_at(&subject, g, MatchMode::Standard);
        // Both pin orders of the symmetric NAND are distinct bindings of the
        // same gate: (a,b) and (b,a).
        assert_eq!(gate_names(&l, &m), ["nand2", "nand2"]);
        let mut leaf_sets: Vec<Vec<NodeId>> = m.iter().map(|m| m.leaves.clone()).collect();
        leaf_sets.sort();
        assert_eq!(leaf_sets, vec![vec![a, b], vec![b, a]]);
        Ok(())
    }

    #[test]
    fn and2_matches_inv_over_nand() -> Result<(), NetlistError> {
        let mut net = Network::new("n");
        let a = net.add_input("a");
        let b = net.add_input("b");
        let g = net.add_node(NodeFn::Nand, vec![a, b])?;
        let h = net.add_node(NodeFn::Not, vec![g])?;
        net.add_output("f", h);
        let subject = wrap(net);
        let l = lib(&[("inv", "!a"), ("nand2", "!(a*b)"), ("and2", "a*b")]);
        let m = Matcher::new(&l).matches_at(&subject, h, MatchMode::Standard);
        // Both the inverter (covering h only) and and2 (covering h+g) match.
        let names = gate_names(&l, &m);
        assert!(names.contains(&"inv".to_owned()));
        assert!(names.contains(&"and2".to_owned()));
        Ok(())
    }

    #[test]
    fn figure1_extended_but_not_standard() -> Result<(), NetlistError> {
        // Subject: top = nand(inv(n), inv(n)) with two *distinct* inverters
        // over the same NAND n — the reconvergent structure of Figure 1.
        let mut net = Network::new("fig1");
        let a = net.add_input("a");
        let b = net.add_input("b");
        let n = net.add_node(NodeFn::Nand, vec![a, b])?;
        let u = net.add_node(NodeFn::Not, vec![n])?;
        let v = net.add_node(NodeFn::Not, vec![n])?;
        let top = net.add_node(NodeFn::Nand, vec![u, v])?;
        net.add_output("f", top);
        let subject = wrap(net);
        // The balanced nand4 pattern is nand(inv(nand(x,y)), inv(nand(z,w))):
        // m and m' are its two inner NANDs, which must both bind n.
        let l = lib(&[("inv", "!a"), ("nand2", "!(a*b)"), ("nand4", "!(a*b*c*d)")]);
        let matcher = Matcher::new(&l);
        let std_names = gate_names(&l, &matcher.matches_at(&subject, top, MatchMode::Standard));
        let ext_names = gate_names(&l, &matcher.matches_at(&subject, top, MatchMode::Extended));
        assert!(!std_names.contains(&"nand4".to_owned()), "{std_names:?}");
        assert!(ext_names.contains(&"nand4".to_owned()), "{ext_names:?}");
        Ok(())
    }

    #[test]
    fn exact_match_rejects_escaping_fanout() -> Result<(), NetlistError> {
        // g = nand(a,b) fans out to BOTH inv(h) and an extra consumer:
        // and2 (= inv over nand) is a standard match at h but not exact.
        let mut net = Network::new("n");
        let a = net.add_input("a");
        let b = net.add_input("b");
        let g = net.add_node(NodeFn::Nand, vec![a, b])?;
        let h = net.add_node(NodeFn::Not, vec![g])?;
        let extra = net.add_node(NodeFn::Not, vec![g])?;
        net.add_output("f", h);
        net.add_output("e", extra);
        let subject = wrap(net);
        let l = lib(&[("inv", "!a"), ("nand2", "!(a*b)"), ("and2", "a*b")]);
        let matcher = Matcher::new(&l);
        let std_names = gate_names(&l, &matcher.matches_at(&subject, h, MatchMode::Standard));
        let exact_names = gate_names(&l, &matcher.matches_at(&subject, h, MatchMode::Exact));
        assert!(std_names.contains(&"and2".to_owned()));
        assert!(!exact_names.contains(&"and2".to_owned()));
        assert!(exact_names.contains(&"inv".to_owned()));
        Ok(())
    }

    #[test]
    fn exact_and_standard_agree_without_fanout() -> Result<(), NetlistError> {
        let mut net = Network::new("n");
        let a = net.add_input("a");
        let b = net.add_input("b");
        let g = net.add_node(NodeFn::Nand, vec![a, b])?;
        let h = net.add_node(NodeFn::Not, vec![g])?;
        net.add_output("f", h);
        let subject = wrap(net);
        let l = lib(&[("inv", "!a"), ("nand2", "!(a*b)"), ("and2", "a*b")]);
        let matcher = Matcher::new(&l);
        assert_eq!(
            gate_names(&l, &matcher.matches_at(&subject, h, MatchMode::Standard)),
            gate_names(&l, &matcher.matches_at(&subject, h, MatchMode::Exact)),
        );
        Ok(())
    }

    #[test]
    fn xor_leaf_dag_matches_xor_structure() {
        // Build via decomposition so the subject uses the SOP xor shape.
        let mut net = Network::new("x");
        let a = net.add_input("a");
        let b = net.add_input("b");
        let f = net.add_node(NodeFn::Xor, vec![a, b]).unwrap();
        net.add_output("f", f);
        let subject = SubjectGraph::from_network(&net).unwrap();
        let l = lib(&[("inv", "!a"), ("nand2", "!(a*b)"), ("xor2", "a*!b + !a*b")]);
        let root = subject.network().outputs()[0].driver;
        let m = Matcher::new(&l).matches_at(&subject, root, MatchMode::Standard);
        assert!(gate_names(&l, &m).contains(&"xor2".to_owned()));
        // All leaves of the xor match are the primary inputs.
        let xm = m
            .iter()
            .find(|m| l.gate(m.gate).name() == "xor2")
            .expect("xor matched");
        let mut leaves = xm.leaves.clone();
        leaves.sort();
        let mut pis = subject.network().inputs().to_vec();
        pis.sort();
        assert_eq!(leaves, pis);
    }

    #[test]
    fn permutations_of_asymmetric_patterns_are_found() -> Result<(), NetlistError> {
        // aoi21 = !(a*b + c): subject built with c in either fanin position.
        let l = lib(&[("inv", "!a"), ("nand2", "!(a*b)"), ("aoi21", "!(a*b+c)")]);
        for swap in [false, true] {
            let mut net = Network::new("n");
            let a = net.add_input("a");
            let b = net.add_input("b");
            let c = net.add_input("c");
            // !(ab + c) decomposes (balanced, after folding) into
            // inv(nand(nand(a,b), inv(c))).
            let nab = net.add_node(NodeFn::Nand, vec![a, b])?;
            let nc = net.add_node(NodeFn::Not, vec![c])?;
            let or = if swap {
                net.add_node(NodeFn::Nand, vec![nc, nab])?
            } else {
                net.add_node(NodeFn::Nand, vec![nab, nc])?
            };
            let top = net.add_node(NodeFn::Not, vec![or])?;
            net.add_output("f", top);
            let subject = wrap(net);
            let m = Matcher::new(&l).matches_at(&subject, top, MatchMode::Standard);
            assert!(
                gate_names(&l, &m).contains(&"aoi21".to_owned()),
                "swap={swap}"
            );
        }
        Ok(())
    }

    #[test]
    fn no_matches_at_inputs() -> Result<(), NetlistError> {
        let mut net = Network::new("n");
        let a = net.add_input("a");
        let g = net.add_node(NodeFn::Not, vec![a])?;
        net.add_output("f", g);
        let subject = wrap(net);
        let l = lib(&[("inv", "!a"), ("nand2", "!(a*b)")]);
        assert!(Matcher::new(&l)
            .matches_at(&subject, a, MatchMode::Standard)
            .is_empty());
        Ok(())
    }

    #[test]
    fn extended_subsumes_standard() -> Result<(), NetlistError> {
        // On a reconvergent structure, every standard match must also be
        // found in extended mode.
        let mut net = Network::new("n");
        let a = net.add_input("a");
        let b = net.add_input("b");
        let n = net.add_node(NodeFn::Nand, vec![a, b])?;
        let u = net.add_node(NodeFn::Not, vec![n])?;
        let v = net.add_node(NodeFn::Not, vec![n])?;
        let top = net.add_node(NodeFn::Nand, vec![u, v])?;
        net.add_output("f", top);
        let subject = wrap(net);
        let l = lib(&[
            ("inv", "!a"),
            ("nand2", "!(a*b)"),
            ("nand4", "!(a*b*c*d)"),
            ("and2", "a*b"),
        ]);
        let matcher = Matcher::new(&l);
        for node in [n, u, v, top] {
            let std: HashSet<(GateId, Vec<NodeId>)> = matcher
                .matches_at(&subject, node, MatchMode::Standard)
                .into_iter()
                .map(|m| (m.gate, m.leaves))
                .collect();
            let ext: HashSet<(GateId, Vec<NodeId>)> = matcher
                .matches_at(&subject, node, MatchMode::Extended)
                .into_iter()
                .map(|m| (m.gate, m.leaves))
                .collect();
            assert!(std.is_subset(&ext));
        }
        Ok(())
    }

    #[test]
    fn covered_nodes_are_the_internal_binding() -> Result<(), NetlistError> {
        let mut net = Network::new("n");
        let a = net.add_input("a");
        let b = net.add_input("b");
        let g = net.add_node(NodeFn::Nand, vec![a, b])?;
        let h = net.add_node(NodeFn::Not, vec![g])?;
        net.add_output("f", h);
        let subject = wrap(net);
        let l = lib(&[("and2", "a*b"), ("inv", "!a"), ("nand2", "!(a*b)")]);
        let m = Matcher::new(&l).matches_at(&subject, h, MatchMode::Standard);
        let and_match = m
            .iter()
            .find(|m| l.gate(m.gate).name() == "and2")
            .expect("and2 matches");
        let mut covered = and_match.covered.clone();
        covered.sort();
        let mut want = vec![g, h];
        want.sort();
        assert_eq!(covered, want);
        Ok(())
    }

    #[test]
    fn scratch_reuse_across_nodes_and_subjects_is_clean() {
        // One scratch driven over every node of two different subjects must
        // give exactly what fresh-scratch enumeration gives.
        let l = lib(&[
            ("inv", "!a"),
            ("nand2", "!(a*b)"),
            ("and2", "a*b"),
            ("nand4", "!(a*b*c*d)"),
        ]);
        let matcher = Matcher::new(&l);
        let mut shared = MatchScratch::new();
        for seed_shape in 0..2 {
            let mut net = Network::new("s");
            let a = net.add_input("a");
            let b = net.add_input("b");
            let g = net.add_node(NodeFn::Nand, vec![a, b]).unwrap();
            let h = net.add_node(NodeFn::Not, vec![g]).unwrap();
            let top = if seed_shape == 0 {
                let k = net.add_node(NodeFn::Nand, vec![h, a]).unwrap();
                net.add_node(NodeFn::Not, vec![k]).unwrap()
            } else {
                net.add_node(NodeFn::Nand, vec![h, b]).unwrap()
            };
            net.add_output("f", top);
            let subject = wrap(net);
            for node in subject.network().node_ids() {
                for mode in [MatchMode::Standard, MatchMode::Exact, MatchMode::Extended] {
                    let mut via_shared = Vec::new();
                    matcher.for_each_match_at(&subject, node, mode, &mut shared, &mut |mv| {
                        via_shared.push(mv.to_match());
                    });
                    let fresh = matcher.matches_at(&subject, node, mode);
                    assert_eq!(via_shared, fresh);
                }
            }
        }
    }

    #[test]
    fn count_matches_agrees_with_enumeration() {
        let l = lib(&[("inv", "!a"), ("nand2", "!(a*b)"), ("and2", "a*b")]);
        let matcher = Matcher::new(&l);
        let mut net = Network::new("c");
        let a = net.add_input("a");
        let b = net.add_input("b");
        let g = net.add_node(NodeFn::Nand, vec![a, b]).unwrap();
        let h = net.add_node(NodeFn::Not, vec![g]).unwrap();
        net.add_output("f", h);
        let subject = wrap(net);
        for node in subject.network().node_ids() {
            for mode in [MatchMode::Standard, MatchMode::Exact, MatchMode::Extended] {
                assert_eq!(
                    matcher.count_matches_at(&subject, node, mode),
                    matcher.matches_at(&subject, node, mode).len()
                );
            }
        }
    }

    /// A subject with many isomorphic cones: a ladder of and2 cells
    /// (`h_i = not(nand(h_{i-1}, a_i))`) plus a reconvergent tail.
    fn ladder(n: usize) -> SubjectGraph {
        let mut net = Network::new("ladder");
        let mut prev = net.add_input("x");
        for i in 0..n {
            let a = net.add_input(format!("a{i}"));
            let g = net.add_node(NodeFn::Nand, vec![prev, a]).unwrap();
            prev = net.add_node(NodeFn::Not, vec![g]).unwrap();
        }
        let u = net.add_node(NodeFn::Not, vec![prev]).unwrap();
        let v = net.add_node(NodeFn::Not, vec![prev]).unwrap();
        let top = net.add_node(NodeFn::Nand, vec![u, v]).unwrap();
        net.add_output("f", top);
        wrap(net)
    }

    fn rich_lib() -> Library {
        lib(&[
            ("inv", "!a"),
            ("nand2", "!(a*b)"),
            ("and2", "a*b"),
            ("nand3", "!(a*b*c)"),
            ("nand4", "!(a*b*c*d)"),
            ("aoi21", "!(a*b+c)"),
            ("xor2", "a*!b + !a*b"),
        ])
    }

    const ALL_MODES: [MatchMode; 3] = [MatchMode::Standard, MatchMode::Exact, MatchMode::Extended];

    #[test]
    fn indexed_enumeration_equals_full_scan() {
        let l = rich_lib();
        let base = Matcher::with_config(&l, MatchConfig::baseline());
        let indexed = Matcher::with_config(
            &l,
            MatchConfig {
                index: true,
                memo: MemoPolicy::Off,
                strash_ids: false,
            },
        );
        let subject = ladder(4);
        let mut sb = MatchScratch::new();
        let mut si = MatchScratch::new();
        let mut any_bucket_pruned = false;
        for node in subject.network().node_ids() {
            for mode in ALL_MODES {
                let mut a = Vec::new();
                let sa = base.for_each_match_at(&subject, node, mode, &mut sb, &mut |mv| {
                    a.push(mv.to_match());
                });
                let mut b = Vec::new();
                let sc = indexed.for_each_match_at(&subject, node, mode, &mut si, &mut |mv| {
                    b.push(mv.to_match());
                });
                // The sequences (not just the sets) must be identical.
                assert_eq!(a, b, "node {node:?} mode {mode:?}");
                assert_eq!(sa.enumerated, sc.enumerated);
                assert!(sc.pruned >= sa.pruned, "index never prunes less");
                any_bucket_pruned |= sc.pruned > sa.pruned;
            }
        }
        assert!(any_bucket_pruned, "the index pruned something somewhere");
    }

    #[test]
    fn memo_replay_is_order_identical_and_hits_across_subjects() {
        let l = rich_lib();
        // Force the memo on: the tiny test library sits below the Auto
        // threshold, and this test exercises the replay machinery itself.
        let matcher = Matcher::with_config(
            &l,
            MatchConfig {
                index: true,
                memo: MemoPolicy::On,
                strash_ids: true,
            },
        );
        assert!(matcher.memo_enabled());
        let mut store = MatchStore::for_library(&l);
        let mut s_direct = MatchScratch::new();
        let mut s_memo = MatchScratch::new();
        // One store across two subjects of different sizes: node ids differ
        // but cone classes recur, so the second subject must mostly hit.
        for n in [3usize, 6] {
            let subject = ladder(n);
            for node in subject.network().node_ids() {
                for mode in ALL_MODES {
                    let mut direct = Vec::new();
                    let sd =
                        matcher.for_each_match_at(&subject, node, mode, &mut s_direct, &mut |mv| {
                            direct.push(mv.to_match())
                        });
                    let mut memo = Vec::new();
                    let sm = matcher.for_each_match_via(
                        &subject,
                        node,
                        mode,
                        &mut s_memo,
                        &mut store,
                        &mut |mv| memo.push(mv.to_match()),
                    );
                    assert_eq!(direct, memo, "node {node:?} mode {mode:?}");
                    assert_eq!(sd.enumerated, sm.enumerated);
                    assert_eq!(sd.pruned, sm.pruned);
                }
            }
        }
        assert!(store.hits() > 0, "isomorphic cones were replayed");
        assert!(
            store.num_classes() < store.lookups(),
            "fewer classes than lookups: {} vs {}",
            store.num_classes(),
            store.lookups()
        );
    }

    #[test]
    fn class_at_is_none_off_gates_and_consistent_on_gates() {
        let l = rich_lib();
        let matcher = Matcher::new(&l);
        let mut store = MatchStore::for_library(&l);
        let mut scratch = MatchScratch::new();
        let subject = ladder(2);
        let net = subject.network();
        for node in net.node_ids() {
            let (class, stats) = matcher.class_at(
                &subject,
                node,
                MatchMode::Standard,
                &mut scratch,
                &mut store,
            );
            match net.node(node).func() {
                NodeFn::Nand | NodeFn::Not => {
                    let class = class.expect("gate nodes get a class");
                    assert_eq!(stats.enumerated, store.num_templates(class));
                    assert_eq!(stats.memo_lookups, 1);
                    // Every template local resolves through the cone.
                    let locals = scratch.cone_locals();
                    for t in store.templates(class) {
                        for &x in t.leaves.iter().chain(t.covered) {
                            assert!((x as usize) < locals.len());
                        }
                    }
                }
                _ => {
                    assert!(class.is_none());
                    assert_eq!(stats, MatchStats::default());
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "different library")]
    fn store_rejects_foreign_library() {
        let l1 = lib(&[("inv", "!a"), ("nand2", "!(a*b)")]);
        let l2 = rich_lib();
        let mut store = MatchStore::for_library(&l1);
        let matcher = Matcher::new(&l2);
        let subject = ladder(1);
        let root = subject.network().outputs()[0].driver;
        let mut scratch = MatchScratch::new();
        matcher.class_at(
            &subject,
            root,
            MatchMode::Standard,
            &mut scratch,
            &mut store,
        );
    }

    #[test]
    fn depth_prefilter_prunes_without_changing_results() {
        // nand4's balanced pattern has depth 3; at the level-1 bare NAND it
        // must be pruned up front, while everything that can match still
        // does.
        let l = lib(&[("inv", "!a"), ("nand2", "!(a*b)"), ("nand4", "!(a*b*c*d)")]);
        let matcher = Matcher::new(&l);
        let mut net = Network::new("p");
        let a = net.add_input("a");
        let b = net.add_input("b");
        let g = net.add_node(NodeFn::Nand, vec![a, b]).unwrap();
        net.add_output("f", g);
        let subject = wrap(net);
        let mut scratch = MatchScratch::new();
        let mut n = 0usize;
        let stats =
            matcher.for_each_match_at(&subject, g, MatchMode::Standard, &mut scratch, &mut |_| {
                n += 1;
            });
        assert_eq!(n, 2, "both pin orders of nand2 still match");
        assert_eq!(stats.enumerated, 2);
        // Depth-3 nand4 patterns (both shapes) were pruned at level 1.
        assert!(stats.pruned >= 1, "{stats:?}");
    }
}
