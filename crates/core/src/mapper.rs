use std::time::Instant;

use dagmap_genlib::Library;
use dagmap_match::{MatchMode, SharedMatchStore};
use dagmap_netlist::SubjectGraph;

use crate::incremental::{relabel_incremental, RetainedLabels};
use crate::label::{label, Labels};
use crate::source::{MatchSource, StructuralSource};
use crate::{area, cover, MapError, MapOptions, MappedNetlist};

/// Statistics of one mapping run, for experiment tables.
#[derive(Debug, Clone, PartialEq)]
pub struct MapReport {
    /// `"tree"`, `"dag"`, `"dag-extended"`, or an external source's name
    /// (`"boolean"`, `"hybrid"`).
    pub algorithm: &'static str,
    /// Critical-path delay of the mapped netlist.
    pub delay: f64,
    /// Delay predicted by the labeling phase (must equal `delay`).
    pub predicted_delay: f64,
    /// Total cell area.
    pub area: f64,
    /// Gate instance count.
    pub num_cells: usize,
    /// Subject nodes covered by more than one cell (DAG-mapping
    /// duplication; always 0 for tree mapping).
    pub duplicated_subject_nodes: usize,
    /// Matches enumerated during labeling (cost proxy).
    pub matches_enumerated: usize,
    /// Pattern attempts skipped without search during labeling (depth
    /// pre-filter, plus the fingerprint index when enabled).
    pub matches_pruned: usize,
    /// Cone-class memo lookups during labeling (0 when the memo is off).
    pub memo_lookups: usize,
    /// Memo lookups that replayed a stored enumeration instead of
    /// searching.
    pub memo_hits: usize,
    /// Memo hits resolved through the strash-id fast path (no cone
    /// extraction); a subset of `memo_hits`.
    pub memo_id_hits: usize,
    /// Node constructions the strash arena saw while decomposing (before
    /// constant folding and deduplication).
    pub strash_raw_nodes: usize,
    /// Distinct nodes the strash arena kept — the subject graph's size.
    /// `strash_raw_nodes / strash_unique_nodes` is the dedup ratio.
    pub strash_unique_nodes: usize,
    /// Constructions answered by an existing structurally identical node.
    pub strash_dedup_hits: usize,
    /// Gates whose labels were copied from a retained prior run instead of
    /// being re-evaluated (0 outside [`Mapper::map_incremental`]).
    pub labels_reused: usize,
    /// 64-wide candidate words the batched match kernel evaluated during
    /// labeling (memo replays evaluate none).
    pub match_words: usize,
    /// Set bits across the evaluated candidate words — with `match_words`
    /// this gives the kernel's batch occupancy.
    pub match_candidate_bits: usize,
    /// Threads the labeling pass used. Labeling is serial, so this is
    /// always 1; the field stays because reports and benches read it.
    pub label_threads: usize,
    /// Topological levels of the subject graph (`label.wave` span count).
    pub levels: usize,
    /// Wall-clock seconds spent labeling.
    pub label_seconds: f64,
    /// Wall-clock seconds spent constructing the cover (excluding area
    /// recovery, which is reported separately).
    pub cover_seconds: f64,
    /// Wall-clock seconds spent in area recovery (0 when the pass is off).
    pub area_recovery_seconds: f64,
    /// Wall-clock seconds spent decomposing the source network into the
    /// subject graph. The mapper receives an already-built subject graph,
    /// so this is 0 unless the caller fills it in (the `dagmap` CLI times
    /// its decomposition step and does).
    pub decompose_seconds: f64,
}

/// The technology mapper: labels a subject graph with optimal arrivals and
/// constructs a delay-optimal mapped netlist.
///
/// See the [crate docs](crate) for an end-to-end example.
#[derive(Debug, Clone, Copy)]
pub struct Mapper<'a> {
    library: &'a Library,
}

impl<'a> Mapper<'a> {
    /// Creates a mapper over `library`.
    pub fn new(library: &'a Library) -> Self {
        Mapper { library }
    }

    /// The library being mapped into.
    pub fn library(&self) -> &'a Library {
        self.library
    }

    /// Runs only the delay-objective labeling phase, exposing per-node
    /// optimal arrivals.
    ///
    /// # Errors
    ///
    /// Fails when the library cannot cover some node or the subject graph is
    /// cyclic.
    pub fn label(&self, subject: &SubjectGraph, mode: MatchMode) -> Result<Labels, MapError> {
        let source = StructuralSource::new(self.library, mode, Default::default(), None);
        label(subject, &source, crate::Objective::Delay)
    }

    /// Realizes a mapped netlist from externally selected matches (one per
    /// needed internal node) — the hook the sequential mapper of
    /// `dagmap-retime` uses to materialize its φ-specific proposals.
    ///
    /// # Errors
    ///
    /// Returns [`MapError::NoMatch`] when a node reachable from the outputs
    /// has no selected match.
    pub fn realize(
        &self,
        subject: &SubjectGraph,
        selected: &[Option<dagmap_match::Match>],
    ) -> Result<MappedNetlist, MapError> {
        cover::construct(subject, self.library, selected)
    }

    /// Maps `subject` according to `options`.
    ///
    /// # Errors
    ///
    /// Returns [`MapError::UnmappableLibrary`] for libraries without a bare
    /// inverter and NAND2, [`MapError::NoMatch`] if coverage fails anyway,
    /// and substrate errors for malformed subject graphs.
    pub fn map(
        &self,
        subject: &SubjectGraph,
        options: MapOptions,
    ) -> Result<MappedNetlist, MapError> {
        self.map_with_report(subject, options).map(|(m, _)| m)
    }

    /// Like [`Mapper::map`], also returning run statistics.
    ///
    /// # Errors
    ///
    /// As for [`Mapper::map`].
    pub fn map_with_report(
        &self,
        subject: &SubjectGraph,
        options: MapOptions,
    ) -> Result<(MappedNetlist, MapReport), MapError> {
        self.map_with_store(subject, options, None, false)
            .map(|(mapped, report, _)| (mapped, report))
    }

    /// Like [`Mapper::map_with_report`], with the two hooks the `dagmap
    /// serve` daemon needs:
    ///
    /// * `shared` labels through a cross-run [`SharedMatchStore`], so
    ///   repeated cone shapes are enumerated once per library rather than
    ///   once per mapping run. Area recovery keeps a run-local store.
    ///   Shared-memo replay preserves enumeration order exactly, so the
    ///   result is bit-identical to a run without it.
    /// * `retain` also snapshots the labels as a [`RetainedLabels`] for
    ///   [`Mapper::map_incremental`]. The snapshot is `None` when `retain`
    ///   is off or the subject's signature map is not injective (duplicate
    ///   structure defeats signature addressing, which
    ///   [`dagmap_netlist::strash_network`]-style strashed inputs never
    ///   do).
    ///
    /// # Errors
    ///
    /// As for [`Mapper::map`].
    pub fn map_with_store(
        &self,
        subject: &SubjectGraph,
        options: MapOptions,
        shared: Option<&SharedMatchStore>,
        retain: bool,
    ) -> Result<(MappedNetlist, MapReport, Option<RetainedLabels>), MapError> {
        self.check_mappable()?;
        let config = options.match_config();
        let labeling = StructuralSource::new(self.library, options.match_mode, config, shared);
        let recovery = StructuralSource::new(self.library, options.match_mode, config, None);
        self.map_via(
            subject,
            options,
            &labeling,
            &recovery,
            options.algorithm_name(),
            retain,
        )
    }

    /// Maps `subject` with matches drawn from an arbitrary [`MatchSource`]
    /// — the entry point `dagmap-boolmatch` feeds its priority-cut NPN
    /// matcher through. Labeling, cover construction, area recovery and
    /// the report all run exactly as for the structural source;
    /// `algorithm` names the run in the report.
    ///
    /// # Errors
    ///
    /// Returns [`MapError::NoMatch`] when the source cannot cover some
    /// node — callers with a cheaper precondition (e.g. boolmatch's
    /// coverable check) should test it first for a friendlier error.
    pub fn map_with_source<S: MatchSource>(
        &self,
        subject: &SubjectGraph,
        options: MapOptions,
        source: &S,
        algorithm: &'static str,
    ) -> Result<(MappedNetlist, MapReport), MapError> {
        self.map_via(subject, options, source, source, algorithm, false)
            .map(|(mapped, report, _)| (mapped, report))
    }

    fn check_mappable(&self) -> Result<(), MapError> {
        if self.library.is_delay_mappable() {
            Ok(())
        } else {
            Err(MapError::UnmappableLibrary {
                library: self.library.name().to_owned(),
            })
        }
    }

    /// The one mapping body: labels through `labeling`, then hands off to
    /// [`Mapper::finish_map`] with `recovery` as the area-recovery source.
    fn map_via<S: MatchSource>(
        &self,
        subject: &SubjectGraph,
        options: MapOptions,
        labeling: &S,
        recovery: &S,
        algorithm: &'static str,
        retain: bool,
    ) -> Result<(MappedNetlist, MapReport, Option<RetainedLabels>), MapError> {
        let mut map_span = dagmap_obs::span("map");
        if map_span.is_recording() {
            map_span.set_u64("nodes", subject.network().num_nodes() as u64);
        }
        let t0 = Instant::now();
        // `label` opens its own "label" span (with the wave spans nested
        // under it), so only the wall-clock is taken here.
        let labels = label(subject, labeling, options.objective)?;
        let label_seconds = t0.elapsed().as_secs_f64();
        let snapshot = if retain {
            RetainedLabels::from_labels(subject, &labels)
        } else {
            None
        };
        let (mapped, report) = self.finish_map(
            subject,
            options,
            recovery,
            algorithm,
            labels,
            label_seconds,
            0,
        )?;
        Ok((mapped, report, snapshot))
    }

    /// Cover construction, area recovery and report assembly shared by the
    /// cold, incremental and external-source paths.
    #[allow(clippy::too_many_arguments)]
    fn finish_map<S: MatchSource>(
        &self,
        subject: &SubjectGraph,
        options: MapOptions,
        source: &S,
        algorithm: &'static str,
        labels: Labels,
        label_seconds: f64,
        labels_reused: usize,
    ) -> Result<(MappedNetlist, MapReport), MapError> {
        let (mapped, cover_seconds) = dagmap_obs::timed("cover", || {
            cover::construct(subject, self.library, &labels.best)
        });
        let mapped = mapped?;
        // Area recovery re-selects under arrival budgets derived from the
        // labels — only meaningful when the labels are arrival-optimal. The
        // pass is a greedy heuristic, so its cover is kept only when it
        // actually wins on area (both covers meet the delay budget).
        let (mapped, area_recovery_seconds) =
            if options.area_recovery && options.objective == crate::Objective::Delay {
                let (best, secs) = dagmap_obs::timed("area_recovery", || {
                    let target = options
                        .delay_target
                        .unwrap_or_else(|| labels.critical_delay(subject));
                    // The pass is greedy over area-flow estimates; a couple of
                    // refinement rounds (re-estimating from the previous selection)
                    // typically shave a few more percent. Keep the best cover seen.
                    let mut best = mapped;
                    let mut estimate_base = labels.clone();
                    // One kit across all refinement rounds: after round 1
                    // every cone class is warm, so later rounds replay
                    // memoized enumerations instead of re-searching.
                    let mut kit = source.make_kit(subject);
                    for _ in 0..3 {
                        let _round = dagmap_obs::span("area_recovery.round");
                        let selected =
                            area::recover(subject, source, &estimate_base, target, &mut kit)?;
                        let recovered = cover::construct(subject, self.library, &selected)?;
                        let improved = recovered.area() < best.area();
                        if improved {
                            best = recovered;
                        }
                        // Seed the next round's area-flow from this selection where
                        // it chose something (arrivals stay the optimal labels).
                        for (slot, sel) in estimate_base.best.iter_mut().zip(&selected) {
                            if sel.is_some() {
                                *slot = sel.clone();
                            }
                        }
                        if !improved {
                            break;
                        }
                    }
                    Ok::<_, MapError>(best)
                });
                (best?, secs)
            } else {
                (mapped, 0.0)
            };

        let strash = subject.strash_stats();
        let report = MapReport {
            algorithm,
            delay: mapped.delay(),
            predicted_delay: labels.critical_delay(subject),
            area: mapped.area(),
            num_cells: mapped.num_cells(),
            duplicated_subject_nodes: mapped.duplicated_subject_nodes(),
            matches_enumerated: labels.stats.enumerated,
            matches_pruned: labels.stats.pruned,
            memo_lookups: labels.stats.memo_lookups,
            memo_hits: labels.stats.memo_hits,
            memo_id_hits: labels.stats.memo_id_hits,
            strash_raw_nodes: strash.raw,
            strash_unique_nodes: strash.unique,
            strash_dedup_hits: strash.dedup_hits,
            labels_reused,
            match_words: labels.stats.words,
            match_candidate_bits: labels.stats.candidate_bits,
            label_threads: 1,
            levels: labels.levels,
            label_seconds,
            cover_seconds,
            area_recovery_seconds,
            decompose_seconds: 0.0,
        };
        Ok((mapped, report))
    }

    /// Incrementally re-maps an edited design: labels of nodes untouched by
    /// the edit (per the clean rule of [`crate::relabel_incremental`]) are
    /// copied from `retained`; only the dirty region is re-evaluated. The
    /// mapped netlist is bit-identical to a cold [`Mapper::map`] of the
    /// same subject. Returns the refreshed snapshot for the next edit.
    ///
    /// # Errors
    ///
    /// As for [`Mapper::map`].
    pub fn map_incremental(
        &self,
        subject: &SubjectGraph,
        options: MapOptions,
        retained: &RetainedLabels,
        shared: Option<&SharedMatchStore>,
    ) -> Result<(MappedNetlist, MapReport, Option<RetainedLabels>), MapError> {
        self.check_mappable()?;
        let mut map_span = dagmap_obs::span("map.incremental");
        if map_span.is_recording() {
            map_span.set_u64("nodes", subject.network().num_nodes() as u64);
        }
        let t0 = Instant::now();
        let (labels, inc) = relabel_incremental(
            subject,
            self.library,
            options.match_mode,
            options.objective,
            options.match_config(),
            retained,
            shared,
        )?;
        let label_seconds = t0.elapsed().as_secs_f64();
        let snapshot = RetainedLabels::from_labels(subject, &labels);
        let source = StructuralSource::new(
            self.library,
            options.match_mode,
            options.match_config(),
            None,
        );
        let (mapped, report) = self.finish_map(
            subject,
            options,
            &source,
            options.algorithm_name(),
            labels,
            label_seconds,
            inc.reused,
        )?;
        Ok((mapped, report, snapshot))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dagmap_netlist::{Network, NodeFn};

    fn figure2_subject() -> SubjectGraph {
        // The paper's Figure 2 shape: a shared middle cone (b·c) feeding two
        // outputs a·(b·c) and (b·c)·d, so an `and3` pattern spans the
        // multi-fanout point in DAG mapping but is useless to tree mapping.
        let mut net = Network::new("fig2");
        let a = net.add_input("a");
        let b = net.add_input("b");
        let c = net.add_input("c");
        let d = net.add_input("d");
        let mid = net.add_node(NodeFn::And, vec![b, c]).unwrap();
        let top = net.add_node(NodeFn::And, vec![a, mid]).unwrap();
        let bot = net.add_node(NodeFn::And, vec![mid, d]).unwrap();
        net.add_output("f", top);
        net.add_output("g", bot);
        SubjectGraph::from_network(&net).unwrap()
    }

    #[test]
    fn dag_beats_or_ties_tree_and_duplicates() {
        let subject = figure2_subject();
        let lib = Library::lib_44_3_like();
        let mapper = Mapper::new(&lib);
        let (dag, dag_rep) = mapper.map_with_report(&subject, MapOptions::dag()).unwrap();
        let (tree, tree_rep) = mapper
            .map_with_report(&subject, MapOptions::tree())
            .unwrap();
        assert!(dag.delay() <= tree.delay() + 1e-9);
        assert_eq!(tree_rep.duplicated_subject_nodes, 0);
        // The middle NAND is inside both output matches under DAG mapping.
        assert!(dag_rep.duplicated_subject_nodes >= 1);
    }

    #[test]
    fn predicted_delay_equals_realized_delay() {
        let subject = figure2_subject();
        for lib in [
            Library::minimal(),
            Library::lib2_like(),
            Library::lib_44_1_like(),
        ] {
            let mapper = Mapper::new(&lib);
            for opts in [
                MapOptions::dag(),
                MapOptions::tree(),
                MapOptions::dag_extended(),
            ] {
                let (_, rep) = mapper.map_with_report(&subject, opts).unwrap();
                assert!(
                    (rep.delay - rep.predicted_delay).abs() < 1e-9,
                    "{} {}: {} vs {}",
                    lib.name(),
                    rep.algorithm,
                    rep.delay,
                    rep.predicted_delay
                );
            }
        }
    }

    #[test]
    fn unmappable_library_is_rejected_up_front() {
        use dagmap_genlib::Gate;
        let lib = Library::new(
            "only_inv",
            vec![Gate::uniform("inv", 1.0, "O", "!a", 1.0).unwrap()],
        )
        .unwrap();
        let subject = figure2_subject();
        let err = Mapper::new(&lib)
            .map(&subject, MapOptions::dag())
            .unwrap_err();
        assert!(matches!(err, MapError::UnmappableLibrary { .. }));
    }

    #[test]
    fn mapped_netlist_is_functionally_equivalent() {
        let subject = figure2_subject();
        let lib = Library::lib2_like();
        let mapper = Mapper::new(&lib);
        for opts in [
            MapOptions::dag(),
            MapOptions::tree(),
            MapOptions::dag().with_area_recovery(),
        ] {
            let mapped = mapper.map(&subject, opts).unwrap();
            let lowered = mapped.to_network().unwrap();
            assert!(
                dagmap_netlist::sim::equivalent_random(subject.network(), &lowered, 16, 42)
                    .unwrap()
            );
        }
    }

    #[test]
    fn shared_store_mapping_is_bit_identical_to_local() {
        let subject = figure2_subject();
        let lib = Library::lib2_like();
        let mapper = Mapper::new(&lib);
        // Force the memo on: the serve daemon does the same, and lib2's small
        // pattern set would otherwise resolve `MemoPolicy::Auto` to off.
        let opts = MapOptions::dag().with_match_memo(true);
        let (local, local_rep) = mapper.map_with_report(&subject, opts).unwrap();
        let reference = local.to_network().unwrap();

        let shared = SharedMatchStore::for_library(&lib, 4, 1024);
        // Cold run populates the store; warm run replays it. Both must equal
        // the local-store result exactly.
        for _ in 0..2 {
            let (mapped, rep, _) = mapper
                .map_with_store(&subject, opts, Some(&shared), false)
                .unwrap();
            assert_eq!(rep.delay, local_rep.delay);
            assert_eq!(rep.area, local_rep.area);
            assert_eq!(rep.num_cells, local_rep.num_cells);
            assert_eq!(rep.matches_enumerated, local_rep.matches_enumerated);
            let lowered = mapped.to_network().unwrap();
            assert!(
                dagmap_netlist::sim::equivalent_random(&reference, &lowered, 16, 7).unwrap()
            );
        }
        assert!(shared.hits() > 0, "warm run should replay shared classes");
    }

    #[test]
    fn outputs_driven_by_inputs_map_cleanly() {
        let mut net = Network::new("wire");
        let a = net.add_input("a");
        net.add_output("f", a);
        let subject = SubjectGraph::from_subject_network(net).unwrap();
        let lib = Library::minimal();
        let mapped = Mapper::new(&lib).map(&subject, MapOptions::dag()).unwrap();
        assert_eq!(mapped.num_cells(), 0);
        assert_eq!(mapped.delay(), 0.0);
    }
}
