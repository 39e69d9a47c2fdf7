use dagmap_match::{MatchMode, MemoPolicy};

/// What the labeling phase optimizes.
///
/// The paper is about [`Objective::Delay`]; [`Objective::Area`] is the
/// classical DAGON/Keutzer objective, provided as a baseline (optimal on
/// trees, a duplication-free area-flow heuristic on DAGs — the paper cites
/// the NP-hardness of exact minimum-area DAG covering).
#[derive(Debug, Copy, Clone, PartialEq, Eq)]
pub enum Objective {
    /// Minimize the critical-path arrival time (ties break toward area).
    Delay,
    /// Minimize estimated area flow (ties break toward arrival).
    Area,
}

/// Mapping configuration.
///
/// The paper reduces the tree-vs-DAG distinction to the match semantics fed
/// into one shared dynamic program, so the central knob here is
/// [`MapOptions::match_mode`]. Use the named constructors.
///
/// ```
/// use dagmap_core::{MapOptions, MatchMode};
///
/// let opts = MapOptions::dag().with_area_recovery();
/// assert_eq!(opts.match_mode, MatchMode::Standard);
/// assert!(opts.area_recovery);
/// assert_eq!(MapOptions::tree().match_mode, MatchMode::Exact);
/// ```
#[derive(Debug, Copy, Clone, PartialEq)]
pub struct MapOptions {
    /// Match semantics: `Exact` yields classical tree covering, `Standard`
    /// the paper's DAG covering, `Extended` DAG covering with unfolding.
    pub match_mode: MatchMode,
    /// Optimization objective (the paper's experiments all use `Delay`).
    pub objective: Objective,
    /// Run the required-time-driven area recovery pass after labeling
    /// (an extension prefiguring the paper's area-delay future work; only
    /// meaningful with [`Objective::Delay`]).
    pub area_recovery: bool,
    /// Optional relaxed delay budget for area recovery: the mapper meets
    /// `max(delay_target, optimum)` while minimizing estimated area —
    /// sweeping this traces the delay/area Pareto frontier of Section 6.
    /// Implies [`MapOptions::area_recovery`].
    pub delay_target: Option<f64>,
    /// Stage-1 match acceleration: consult the library's per-shape-class
    /// fingerprint buckets when picking candidate patterns. On by default;
    /// provably result-identical either way (it only skips patterns the
    /// matcher would reject).
    pub use_match_index: bool,
    /// Stage-2 match acceleration: memoize whole match enumerations by
    /// canonical cone class and replay them at isomorphic nodes. Provably
    /// result-identical in every position (replay preserves the enumeration
    /// order). Defaults to [`MemoPolicy::Auto`], which enables the memo only
    /// for libraries whose pattern sets are expensive enough that replay
    /// beats fresh (indexed) enumeration; `On`/`Off` force it.
    pub match_memo: MemoPolicy,
    /// Stage-3 match acceleration: key warm memo probes on the subject
    /// graph's strash signatures so repeat probes skip cone extraction
    /// entirely. Result-identical either way (it resolves to the same
    /// stored class the cone key would); on by default. Only meaningful
    /// when the memo is in effect and the match mode is not `Exact`.
    pub strash_ids: bool,
}

impl MapOptions {
    /// The paper's proposal: DAG covering over standard matches
    /// (the configuration of Tables 1–3, per footnote 3).
    pub fn dag() -> MapOptions {
        MapOptions {
            match_mode: MatchMode::Standard,
            objective: Objective::Delay,
            area_recovery: false,
            delay_target: None,
            use_match_index: true,
            match_memo: MemoPolicy::Auto,
            strash_ids: true,
        }
    }

    /// DAG covering over extended matches (Definition 3): strictly larger
    /// search space, rarely better in practice (the paper's footnote 3).
    pub fn dag_extended() -> MapOptions {
        MapOptions {
            match_mode: MatchMode::Extended,
            objective: Objective::Delay,
            area_recovery: false,
            delay_target: None,
            use_match_index: true,
            match_memo: MemoPolicy::Auto,
            strash_ids: true,
        }
    }

    /// The conventional baseline: tree covering via exact matches, no
    /// duplication, multi-fanout points preserved.
    pub fn tree() -> MapOptions {
        MapOptions {
            match_mode: MatchMode::Exact,
            objective: Objective::Delay,
            area_recovery: false,
            delay_target: None,
            use_match_index: true,
            match_memo: MemoPolicy::Auto,
            strash_ids: true,
        }
    }

    /// Classical minimum-area tree covering (Keutzer's DAGON objective).
    pub fn tree_area() -> MapOptions {
        MapOptions {
            match_mode: MatchMode::Exact,
            objective: Objective::Area,
            area_recovery: false,
            delay_target: None,
            use_match_index: true,
            match_memo: MemoPolicy::Auto,
            strash_ids: true,
        }
    }

    /// Area-flow-driven DAG covering (a duplication-aware area heuristic;
    /// exact minimum-area DAG covering is NP-hard).
    pub fn dag_area() -> MapOptions {
        MapOptions {
            match_mode: MatchMode::Standard,
            objective: Objective::Area,
            area_recovery: false,
            delay_target: None,
            use_match_index: true,
            match_memo: MemoPolicy::Auto,
            strash_ids: true,
        }
    }

    /// Enables the slack-driven area recovery pass.
    pub fn with_area_recovery(mut self) -> MapOptions {
        self.area_recovery = true;
        self
    }

    /// Relaxes the delay budget of the recovery pass to `target` (clamped
    /// to at least the optimum); implies [`MapOptions::with_area_recovery`].
    pub fn with_delay_target(mut self, target: f64) -> MapOptions {
        self.area_recovery = true;
        self.delay_target = Some(target);
        self
    }

    /// Sets both match-acceleration stages at once (`false` reproduces the
    /// naive full-scan matcher; useful for benchmarking and for the
    /// bit-identity test suite). `true` forces the memo on even where
    /// [`MemoPolicy::Auto`] would skip it.
    pub fn with_match_acceleration(mut self, on: bool) -> MapOptions {
        self.use_match_index = on;
        self.match_memo = if on { MemoPolicy::On } else { MemoPolicy::Off };
        self.strash_ids = on;
        self
    }

    /// Sets the stage-1 fingerprint index switch.
    pub fn with_match_index(mut self, on: bool) -> MapOptions {
        self.use_match_index = on;
        self
    }

    /// Forces the stage-2 cone-class memoization on or off, overriding the
    /// default per-library [`MemoPolicy::Auto`] decision.
    pub fn with_match_memo(mut self, on: bool) -> MapOptions {
        self.match_memo = if on { MemoPolicy::On } else { MemoPolicy::Off };
        self
    }

    /// Sets the stage-3 strash-id memo keying switch (`--no-strash-ids`
    /// in the CLI). Off forces every memo probe down the canonical-cone
    /// path; the mapped output is bit-identical either way.
    pub fn with_strash_ids(mut self, on: bool) -> MapOptions {
        self.strash_ids = on;
        self
    }

    /// The [`MatchConfig`] the options select.
    pub fn match_config(&self) -> dagmap_match::MatchConfig {
        dagmap_match::MatchConfig {
            index: self.use_match_index,
            memo: self.match_memo,
            strash_ids: self.strash_ids,
        }
    }

    /// Human-readable algorithm name for reports.
    pub fn algorithm_name(&self) -> &'static str {
        match (self.match_mode, self.objective) {
            (MatchMode::Exact, Objective::Delay) => "tree",
            (MatchMode::Standard, Objective::Delay) => "dag",
            (MatchMode::Extended, Objective::Delay) => "dag-extended",
            (MatchMode::Exact, Objective::Area) => "tree-area",
            (MatchMode::Standard, Objective::Area) => "dag-area",
            (MatchMode::Extended, Objective::Area) => "dag-extended-area",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constructors_pick_the_right_semantics() {
        assert_eq!(MapOptions::dag().algorithm_name(), "dag");
        assert_eq!(MapOptions::tree().algorithm_name(), "tree");
        assert_eq!(MapOptions::dag_extended().algorithm_name(), "dag-extended");
        assert!(!MapOptions::dag().area_recovery);
        assert!(MapOptions::dag().with_area_recovery().area_recovery);
    }

    #[test]
    fn match_acceleration_defaults_on() {
        let opts = MapOptions::dag();
        assert!(opts.use_match_index);
        assert_eq!(opts.match_memo, MemoPolicy::Auto);
        assert_eq!(opts.match_config(), dagmap_match::MatchConfig::default());
        let off = opts.with_match_acceleration(false);
        assert!(!off.use_match_index && off.match_memo == MemoPolicy::Off);
        let forced = opts.with_match_acceleration(true);
        assert!(forced.use_match_index && forced.match_memo == MemoPolicy::On);
        let mixed = MapOptions::tree().with_match_memo(false);
        assert!(mixed.use_match_index && mixed.match_memo == MemoPolicy::Off);
    }
}
