//! Pluggable match enumeration for the labeling dynamic program.
//!
//! The paper's DP never cares *where* a match came from — only that, for a
//! node whose strict fanins are labeled, someone can enumerate `(gate,
//! leaves, covered)` candidates rooted there. [`MatchSource`] captures
//! exactly that contract, so the structural pattern matcher of
//! `dagmap-match` and the Boolean (priority-cut / NPN) matcher of
//! `dagmap-boolmatch` drive the *same* labeling, cover-construction and
//! area-recovery code: match counters, obs spans and `MapReport` all come
//! for free with an implementation.
//!
//! A source is read-only during a pass; its mutable state — scratch
//! arenas, memo stores, canonicalization caches — lives in the source's
//! [`MatchSource::Kit`], created by [`MatchSource::make_kit`]. This mirrors
//! how the structural matcher splits `Matcher` (the library view) from
//! `MatchScratch` + `MatchStore` (the run's working memory).

use dagmap_genlib::{GateId, Library, PatternId};
use dagmap_match::{
    MatchConfig, MatchMode, MatchScratch, MatchStats, MatchStore, MatchView, Matcher,
    SharedMatchStore,
};
use dagmap_netlist::{NodeId, SubjectGraph};

/// One candidate match, borrowed from the source's kit. The
/// labeling DP copies the slices only when the candidate beats the
/// incumbent, so reporting a match is allocation-free.
#[derive(Debug, Clone, Copy)]
pub struct SourceMatch<'a> {
    /// The gate this match instantiates.
    pub gate: GateId,
    /// The expanded pattern that produced the match — `None` for matches
    /// found by non-structural means (Boolean matching), which have no
    /// pattern to point at.
    pub pattern: Option<PatternId>,
    /// Subject node bound to each gate pin, in canonical pin order.
    pub leaves: &'a [NodeId],
    /// Distinct subject nodes the gate replaces, root included.
    pub covered: &'a [NodeId],
}

/// A supplier of candidate matches for the shared labeling DP.
///
/// Implementations must be deterministic: for a fixed subject and node, the
/// emission *sequence* must be a function of the subject, the library and
/// the node alone — not of memo state or earlier calls — because the DP's
/// tie-breaking keeps the first optimum seen.
pub trait MatchSource {
    /// Mutable state of one pass (scratch arenas, memo stores, caches).
    type Kit;

    /// The library matches instantiate gates from.
    fn library(&self) -> &Library;

    /// Match semantics in effect — drives the area-flow sharing estimate
    /// and, for structural sources, the pattern search itself.
    fn mode(&self) -> MatchMode;

    /// Builds a kit sized for `subject`.
    fn make_kit(&self, subject: &SubjectGraph) -> Self::Kit;

    /// Enumerates every candidate match rooted at `node` into `f`.
    ///
    /// All of `node`'s strict fanins are labeled when this is called; the
    /// source must only report matches whose leaves lie strictly below
    /// `node`'s topological level (fanin-cone members), so every leaf is
    /// labeled before `node` in level order.
    fn for_each_match(
        &self,
        subject: &SubjectGraph,
        node: NodeId,
        kit: &mut Self::Kit,
        f: &mut dyn FnMut(SourceMatch<'_>),
    ) -> MatchStats;
}

/// The structural pattern matcher as a [`MatchSource`] — the default
/// source behind [`crate::Mapper::map`].
pub struct StructuralSource<'a> {
    matcher: Matcher<'a>,
    mode: MatchMode,
    /// Cross-request memo (the serve daemon); `None` memoizes per kit.
    shared: Option<&'a SharedMatchStore>,
}

/// Working memory of [`StructuralSource`]: match scratch plus a run-local
/// memo store (unused when the source memoizes through a shared store).
pub struct StructuralKit {
    scratch: MatchScratch,
    store: MatchStore,
}

impl<'a> StructuralSource<'a> {
    /// A source matching `library`'s patterns under `mode`, accelerated per
    /// `config`. With `shared`, memoized cone classes go to that
    /// cross-request store (the serve daemon's); without, to a store local
    /// to each kit. Every choice emits the same match sequence.
    pub fn new(
        library: &'a Library,
        mode: MatchMode,
        config: MatchConfig,
        shared: Option<&'a SharedMatchStore>,
    ) -> StructuralSource<'a> {
        StructuralSource {
            matcher: Matcher::with_config(library, config),
            mode,
            shared,
        }
    }
}

impl MatchSource for StructuralSource<'_> {
    type Kit = StructuralKit;

    fn library(&self) -> &Library {
        self.matcher.library()
    }

    fn mode(&self) -> MatchMode {
        self.mode
    }

    fn make_kit(&self, subject: &SubjectGraph) -> StructuralKit {
        let mut scratch = MatchScratch::new();
        scratch.prepare(self.matcher.library(), subject.flat().num_nodes());
        StructuralKit {
            scratch,
            // Run-local store; unused when `shared` is set.
            store: MatchStore::for_library(self.matcher.library()),
        }
    }

    fn for_each_match(
        &self,
        subject: &SubjectGraph,
        node: NodeId,
        kit: &mut StructuralKit,
        f: &mut dyn FnMut(SourceMatch<'_>),
    ) -> MatchStats {
        let mut adapt = |mv: MatchView<'_>| {
            f(SourceMatch {
                gate: mv.gate,
                pattern: Some(mv.pattern),
                leaves: mv.leaves,
                covered: mv.covered,
            })
        };
        // Both memo flavors replay memoized cone classes when the matcher's
        // resolved memo policy enables the store and fall back to direct
        // (possibly indexed) enumeration otherwise; the callback sequence is
        // identical either way.
        match self.shared {
            Some(shared) => self.matcher.for_each_match_shared(
                subject,
                node,
                self.mode,
                &mut kit.scratch,
                shared,
                &mut adapt,
            ),
            None => self.matcher.for_each_match_via(
                subject,
                node,
                self.mode,
                &mut kit.scratch,
                &mut kit.store,
                &mut adapt,
            ),
        }
    }
}
