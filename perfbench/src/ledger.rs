//! Metric names and units, and the per-pass counters the per-layer
//! metrics are derived from.

use std::collections::BTreeMap;

use dagmap_core::MapReport;
use dagmap_obs::json::Value;

/// End-to-end metrics, printed by every untraced run: `(name, unit)`.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("cpu_s", "s"),
    ("throughput_rps", "req/s"),
    ("latency_p50_ms", "ms"),
    ("latency_p99_ms", "ms"),
    ("delay_geomean", "lib_units"),
    ("area_geomean", "lib_units"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics, printed by every traced run: `(name, unit)`. Those
/// of a layer a workload never enters (`not_entered`) read 0; any other
/// one a traced run leaves out is a failure.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("netlist.parse_ms", "ms"),
    ("netlist.decompose_ms", "ms"),
    ("netlist.write_ms", "ms"),
    ("netlist.subject_nodes", "count"),
    ("netlist.strash_dedup", "ratio"),
    ("core.lower_ms", "ms"),
    ("core.verify_ms", "ms"),
    ("core.label_ms", "ms"),
    ("core.levels", "count"),
    ("core.label_threads", "threads"),
    ("core.cover_ms", "ms"),
    ("core.duplicated", "count"),
    ("core.recovery_ms", "ms"),
    ("core.map_other_ms", "ms"),
    ("matching.enumerated", "count"),
    ("matching.pruned_share", "share"),
    ("matching.word_occupancy", "share"),
    ("matching.memo_lookups", "count"),
    ("matching.memo_hit_rate", "share"),
    ("matching.memo_id_share", "share"),
    ("boolmatch.source_ms", "ms"),
    ("boolmatch.cuts_enumerated", "count"),
    ("boolmatch.cuts_examined", "count"),
    ("boolmatch.match_yield", "share"),
    ("boolmatch.npn_share", "share"),
    ("serve.first_p50_ms", "ms"),
    ("serve.repeat_p50_ms", "ms"),
    ("serve.phases_ms", "ms"),
    ("serve.unattributed_ms", "ms"),
    ("serve.memo_hit_rate", "share"),
    ("serve.workers_busy_share", "share"),
    ("serve.busy_rejects", "count"),
    ("serve.out_of_order", "count"),
    ("unattributed_ms", "ms"),
    ("obs.trace_overhead_pct", "%"),
];

/// Serve-side metrics: no serve code runs in a one-shot workload.
const SERVE_ONLY: &[&str] = &[
    "serve.first_p50_ms",
    "serve.repeat_p50_ms",
    "serve.phases_ms",
    "serve.unattributed_ms",
    "serve.memo_hit_rate",
    "serve.workers_busy_share",
    "serve.busy_rejects",
    "serve.out_of_order",
];

/// Boolean-matching metrics: only hybrid maps build a Boolean source.
const BOOLMATCH_ONLY: &[&str] = &[
    "boolmatch.source_ms",
    "boolmatch.cuts_enumerated",
    "boolmatch.cuts_examined",
    "boolmatch.match_yield",
    "boolmatch.npn_share",
];

/// Calls inside the daemon that no reply times; their time is in
/// `serve.unattributed_ms`.
const DAEMON_HIDDEN: &[&str] = &[
    "netlist.parse_ms",
    "netlist.decompose_ms",
    "netlist.write_ms",
    "core.lower_ms",
    "core.verify_ms",
    "core.map_other_ms",
];

/// The per-layer metrics `workload` does not enter.
pub fn not_entered(workload: &str) -> Vec<&'static str> {
    let parts: &[&[&str]] = match workload {
        "boolean_lib2" => &[SERVE_ONLY],
        "serve_hot" => &[DAEMON_HIDDEN, BOOLMATCH_ONLY],
        _ => &[SERVE_ONLY, BOOLMATCH_ONLY],
    };
    parts.concat()
}

/// Metric values by name.
pub type Metrics = BTreeMap<&'static str, f64>;

/// Work counters and report-side phase times summed over one pass.
#[derive(Debug, Clone, Default)]
pub struct PassCounters {
    pub label_ms: f64,
    pub cover_ms: f64,
    pub recovery_ms: f64,
    pub levels: f64,
    pub label_threads: f64,
    pub duplicated: f64,
    pub subject_nodes: f64,
    pub strash_raw: f64,
    pub enumerated: f64,
    pub pruned: f64,
    pub words: f64,
    pub candidate_bits: f64,
    pub memo_lookups: f64,
    pub memo_hits: f64,
    pub memo_id_hits: f64,
    pub cuts_enumerated: f64,
    pub cuts_examined: f64,
    pub bool_matches: f64,
    pub npn_matches: f64,
    /// Whether any map of the pass built a Boolean source.
    pub hybrid: bool,
}

/// The Boolean-matching counters of one hybrid map.
#[derive(Debug, Clone, Copy, Default)]
pub struct BoolCounters {
    pub cuts_enumerated: usize,
    pub cuts_examined: usize,
    pub matches: usize,
    pub npn_matches: usize,
}

/// The number at `path` in a JSON object; 0 when absent.
pub fn json_num(v: &Value, path: &[&str]) -> f64 {
    let mut cur = Some(v);
    for key in path {
        cur = cur.and_then(|x| x.get(key));
    }
    cur.and_then(Value::as_num).unwrap_or(0.0)
}

/// `num / den`, or 0 when nothing was counted.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

impl PassCounters {
    pub fn add_report(&mut self, r: &MapReport) {
        self.label_ms += r.label_seconds * 1e3;
        self.cover_ms += r.cover_seconds * 1e3;
        self.recovery_ms += r.area_recovery_seconds * 1e3;
        self.levels += r.levels as f64;
        self.label_threads = self.label_threads.max(r.label_threads as f64);
        self.duplicated += r.duplicated_subject_nodes as f64;
        self.subject_nodes += r.strash_unique_nodes as f64;
        self.strash_raw += r.strash_raw_nodes as f64;
        self.enumerated += r.matches_enumerated as f64;
        self.pruned += r.matches_pruned as f64;
        self.words += r.match_words as f64;
        self.candidate_bits += r.match_candidate_bits as f64;
        self.memo_lookups += r.memo_lookups as f64;
        self.memo_hits += r.memo_hits as f64;
        self.memo_id_hits += r.memo_id_hits as f64;
    }

    pub fn add_bool(&mut self, b: &BoolCounters) {
        self.hybrid = true;
        self.cuts_enumerated += b.cuts_enumerated as f64;
        self.cuts_examined += b.cuts_examined as f64;
        self.bool_matches += b.matches as f64;
        self.npn_matches += b.npn_matches as f64;
    }

    /// Adds the report fields a serve map reply carries (`phases`,
    /// `counters`, `strash`, `duplicated_subject_nodes`).
    pub fn add_reply(&mut self, reply: &Value) {
        let num = |path: &[&str]| json_num(reply, path);
        self.label_ms += num(&["phases", "label_seconds"]) * 1e3;
        self.cover_ms += num(&["phases", "cover_seconds"]) * 1e3;
        self.recovery_ms += num(&["phases", "area_recovery_seconds"]) * 1e3;
        self.levels += num(&["phases", "levels"]);
        self.label_threads = self.label_threads.max(num(&["phases", "label_threads"]));
        self.duplicated += num(&["duplicated_subject_nodes"]);
        self.subject_nodes += num(&["strash", "unique_nodes"]);
        self.strash_raw += num(&["strash", "raw_nodes"]);
        self.enumerated += num(&["counters", "matches_enumerated"]);
        self.pruned += num(&["counters", "matches_pruned"]);
        self.words += num(&["counters", "match_words"]);
        self.candidate_bits += num(&["counters", "match_candidate_bits"]);
        self.memo_lookups += num(&["counters", "memo_lookups"]);
        self.memo_hits += num(&["counters", "memo_hits"]);
        self.memo_id_hits += num(&["counters", "memo_id_hits"]);
    }

    /// The per-layer metrics these counters define.
    pub fn metrics(&self) -> Metrics {
        let mut m = Metrics::new();
        m.insert("netlist.subject_nodes", self.subject_nodes);
        m.insert(
            "netlist.strash_dedup",
            ratio(self.strash_raw, self.subject_nodes),
        );
        m.insert("core.label_ms", self.label_ms);
        m.insert("core.levels", self.levels);
        m.insert("core.label_threads", self.label_threads);
        m.insert("core.cover_ms", self.cover_ms);
        m.insert("core.duplicated", self.duplicated);
        m.insert("core.recovery_ms", self.recovery_ms);
        m.insert("matching.enumerated", self.enumerated);
        m.insert(
            "matching.pruned_share",
            ratio(self.pruned, self.pruned + self.enumerated),
        );
        m.insert(
            "matching.word_occupancy",
            ratio(self.candidate_bits, self.words * 64.0),
        );
        m.insert("matching.memo_lookups", self.memo_lookups);
        m.insert(
            "matching.memo_hit_rate",
            ratio(self.memo_hits, self.memo_lookups),
        );
        m.insert(
            "matching.memo_id_share",
            ratio(self.memo_id_hits, self.memo_hits),
        );
        if self.hybrid {
            m.insert("boolmatch.cuts_enumerated", self.cuts_enumerated);
            m.insert("boolmatch.cuts_examined", self.cuts_examined);
            m.insert(
                "boolmatch.match_yield",
                ratio(self.bool_matches, self.cuts_examined),
            );
            m.insert(
                "boolmatch.npn_share",
                ratio(self.npn_matches, self.bool_matches),
            );
        }
        m
    }
}

/// Median of each metric over several passes' metric maps.
pub fn median_of(passes: &[Metrics]) -> Metrics {
    let mut out = Metrics::new();
    if let Some(first) = passes.first() {
        for name in first.keys() {
            let values: Vec<f64> = passes.iter().map(|m| m[name]).collect();
            out.insert(name, crate::stats::median(&values));
        }
    }
    out
}
