//! Server-side telemetry: the live metrics registry, structured JSONL
//! request logging, and tail-based trace sampling.
//!
//! Everything here is optional per [`crate::ServeConfig`] and lives behind
//! `Option`s in the server — a daemon started with metrics disabled does
//! not construct a [`Telemetry`] at all, so the mapping path pays nothing.
//! None of it can move a byte of mapped output: recording happens strictly
//! around the mapping calls, never inside them.

use std::collections::{HashSet, VecDeque};
use std::fs::File;
use std::io::{self, BufWriter, Write};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

use dagmap_obs::hist::Log2Histogram;
use dagmap_obs::json::escape;
use dagmap_obs::metrics::{Counter, Gauge, Histogram, MetricsRegistry};

/// Rolling-window shape of every latency/phase summary: 12 x 5 s, so a
/// scrape's quantiles cover the last minute.
const LATENCY_WINDOWS: usize = 12;
const LATENCY_WINDOW_NS: u64 = 5_000_000_000;

/// A tail-sampling class histogram must hold this many samples before the
/// quantile threshold is trusted; earlier requests are never kept.
const TAIL_MIN_SAMPLES: u64 = 8;

/// Cap on the first-seen circuit-hash set; beyond it new circuits still
/// classify as first-seen, they are just no longer remembered.
const SEEN_CAP: usize = 1 << 20;

/// Tail-based trace sampling configuration.
#[derive(Debug, Clone)]
pub struct TailConfig {
    /// Directory the kept Chrome traces are written into (created at
    /// startup).
    pub dir: PathBuf,
    /// Keep a request's trace when its latency exceeds this rolling
    /// quantile of its class (first/repeat/remap). `<= 0` keeps every
    /// trace — useful for tests and short captures.
    pub quantile: f64,
    /// Most traces kept on disk; the oldest is removed beyond this.
    pub keep: usize,
}

impl TailConfig {
    /// Tail sampling into `dir` with the defaults: p99 threshold, 16
    /// traces retained.
    pub fn new(dir: PathBuf) -> TailConfig {
        TailConfig {
            dir,
            quantile: 0.99,
            keep: 16,
        }
    }
}

/// Escapes a value for use inside a Prometheus label: `foo` in
/// `name{lib="foo"}`.
fn label_escape(v: &str) -> String {
    let mut out = String::with_capacity(v.len());
    for c in v.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '"' => out.push_str("\\\""),
            '\n' => out.push_str("\\n"),
            c => out.push(c),
        }
    }
    out
}

/// The server's live metrics: one registry plus pre-registered handles for
/// every hot-path series (per-library series are get-or-created on first
/// use, which is a brief registry lock per *new* label only).
pub(crate) struct Telemetry {
    pub registry: MetricsRegistry,
    // Mirrored from the server's own atomics at scrape time.
    pub requests_total: Counter,
    pub remaps_total: Counter,
    pub errors_total: Counter,
    pub busy_rejects_total: Counter,
    pub queue_depth: Gauge,
    pub inflight: Gauge,
    pub retained_runs: Gauge,
    // Maintained live.
    pub workers: Gauge,
    pub workers_busy: Gauge,
    pub tail_traces_kept_total: Counter,
    /// Served mappings that failed `verify::check`: 0 on a healthy daemon.
    pub verify_failures_total: Counter,
    latency_first: Histogram,
    latency_repeat: Histogram,
    latency_remap: Histogram,
    pub phase_decompose: Histogram,
    pub phase_label: Histogram,
    pub phase_cover: Histogram,
    /// FNV-1a hashes of `(lib, blif)` pairs already served, for the
    /// first-seen vs repeated latency split.
    seen: Mutex<HashSet<u64>>,
}

impl Telemetry {
    pub fn new(workers: usize) -> Telemetry {
        let registry = MetricsRegistry::new();
        let hist = |name: &str| registry.histogram(name, LATENCY_WINDOWS, LATENCY_WINDOW_NS);
        let t = Telemetry {
            requests_total: registry.counter("dagmap_requests_total"),
            remaps_total: registry.counter("dagmap_remaps_total"),
            errors_total: registry.counter("dagmap_errors_total"),
            busy_rejects_total: registry.counter("dagmap_busy_rejects_total"),
            queue_depth: registry.gauge("dagmap_queue_depth"),
            inflight: registry.gauge("dagmap_inflight"),
            retained_runs: registry.gauge("dagmap_retained_runs"),
            workers: registry.gauge("dagmap_workers"),
            workers_busy: registry.gauge("dagmap_workers_busy"),
            tail_traces_kept_total: registry.counter("dagmap_tail_traces_kept_total"),
            verify_failures_total: registry.counter("dagmap_verify_failures_total"),
            latency_first: hist("dagmap_request_latency_us{kind=\"first\"}"),
            latency_repeat: hist("dagmap_request_latency_us{kind=\"repeat\"}"),
            latency_remap: hist("dagmap_request_latency_us{kind=\"remap\"}"),
            phase_decompose: hist("dagmap_phase_decompose_us"),
            phase_label: hist("dagmap_phase_label_us"),
            phase_cover: hist("dagmap_phase_cover_us"),
            seen: Mutex::new(HashSet::new()),
            registry,
        };
        t.workers.set(workers as i64);
        t
    }

    /// The latency summary for a request class (`first`/`repeat`/`remap`).
    pub fn latency_hist(&self, kind: &str) -> &Histogram {
        match kind {
            "repeat" => &self.latency_repeat,
            "remap" => &self.latency_remap,
            _ => &self.latency_first,
        }
    }

    /// Classifies a request as first-seen (true) or repeated, remembering
    /// it for next time.
    pub fn first_seen(&self, lib: &str, blif: &str) -> bool {
        // Hashes the full request text on the serve hot path, so it works
        // 8 bytes per multiply (a byte-at-a-time FNV costs tens of
        // microseconds on realistic BLIFs). Stability only matters within
        // this process; each part is length-terminated so the zero-padded
        // final chunk cannot collide with real trailing zeros.
        let mut h = 0xcbf29ce484222325u64;
        let mut step = |word: u64| {
            h = (h.rotate_left(5) ^ word).wrapping_mul(0x517cc1b727220a95);
        };
        for part in [lib.as_bytes(), blif.as_bytes()] {
            let mut chunks = part.chunks_exact(8);
            for c in &mut chunks {
                step(u64::from_le_bytes(c.try_into().unwrap()));
            }
            let rem = chunks.remainder();
            if !rem.is_empty() {
                let mut buf = [0u8; 8];
                buf[..rem.len()].copy_from_slice(rem);
                step(u64::from_le_bytes(buf));
            }
            step(part.len() as u64);
        }
        let mut seen = self.seen.lock().unwrap_or_else(|e| e.into_inner());
        if seen.contains(&h) {
            return false;
        }
        if seen.len() < SEEN_CAP {
            seen.insert(h);
        }
        true
    }

    /// Per-library admitted-requests counter.
    pub fn lib_requests(&self, lib: &str) -> Counter {
        self.registry
            .counter(&format!("dagmap_lib_requests_total{{lib=\"{}\"}}", label_escape(lib)))
    }

    /// Per-library queued-or-executing gauge.
    pub fn lib_pending(&self, lib: &str) -> Gauge {
        self.registry
            .gauge(&format!("dagmap_lib_pending{{lib=\"{}\"}}", label_escape(lib)))
    }

    /// Per-library memo counter, mirrored from the `SharedMatchStore` at
    /// scrape time (`which` is e.g. `hits`, `misses`).
    pub fn lib_memo_counter(&self, which: &str, lib: &str) -> Counter {
        self.registry.counter(&format!(
            "dagmap_memo_{which}_total{{lib=\"{}\"}}",
            label_escape(lib)
        ))
    }

    /// Per-library resident-classes gauge, mirrored at scrape time.
    pub fn lib_memo_resident(&self, lib: &str) -> Gauge {
        self.registry.gauge(&format!(
            "dagmap_memo_resident_classes{{lib=\"{}\"}}",
            label_escape(lib)
        ))
    }
}

/// Everything one request contributes to telemetry, filled in by the
/// worker as the request progresses and consumed once the reply has been
/// written.
pub(crate) struct RequestEvent {
    pub op: &'static str,
    pub id: Option<String>,
    /// Resolved (registered) library name, once known.
    pub lib: Option<String>,
    /// `ok`, an error kind, or `panic`.
    pub outcome: &'static str,
    /// Latency class: `first`, `repeat` or `remap`.
    pub kind: &'static str,
    pub blif_bytes: usize,
    pub out_bytes: usize,
    pub latency_us: u64,
    pub delay: f64,
    pub num_cells: usize,
    pub decompose_us: u64,
    pub label_us: u64,
    pub cover_us: u64,
    pub recovery_us: u64,
    pub memo_hits: u64,
    pub memo_id_hits: u64,
    pub matches_enumerated: u64,
    pub labels_reused: u64,
    /// The request's finished obs trace, present only when tail sampling
    /// is on (serialized to Chrome JSON only if actually kept).
    pub trace: Option<dagmap_obs::Trace>,
}

impl RequestEvent {
    pub fn new(op: &'static str, id: Option<String>) -> RequestEvent {
        RequestEvent {
            op,
            id,
            lib: None,
            outcome: "ok",
            kind: "first",
            blif_bytes: 0,
            out_bytes: 0,
            latency_us: 0,
            delay: 0.0,
            num_cells: 0,
            decompose_us: 0,
            label_us: 0,
            cover_us: 0,
            recovery_us: 0,
            memo_hits: 0,
            memo_id_hits: 0,
            matches_enumerated: 0,
            labels_reused: 0,
            trace: None,
        }
    }

    /// One JSONL line (no trailing newline).
    pub fn to_jsonl(&self) -> String {
        let ts_ms = std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .map_or(0, |d| d.as_millis() as u64);
        let id = match &self.id {
            Some(id) => format!("\"{}\"", escape(id)),
            None => "null".to_owned(),
        };
        let lib = match &self.lib {
            Some(lib) => format!("\"{}\"", escape(lib)),
            None => "null".to_owned(),
        };
        format!(
            concat!(
                "{{\"ts_ms\":{},\"op\":\"{}\",\"id\":{},\"lib\":{},\"outcome\":\"{}\",",
                "\"kind\":\"{}\",\"blif_bytes\":{},\"out_bytes\":{},\"latency_us\":{},",
                "\"first_seen\":{},\"delay\":{},\"num_cells\":{},",
                "\"phases\":{{\"decompose_us\":{},\"label_us\":{},\"cover_us\":{},",
                "\"recovery_us\":{}}},",
                "\"counters\":{{\"memo_hits\":{},\"memo_id_hits\":{},",
                "\"matches_enumerated\":{},\"labels_reused\":{}}}}}"
            ),
            ts_ms,
            self.op,
            id,
            lib,
            self.outcome,
            self.kind,
            self.blif_bytes,
            self.out_bytes,
            self.latency_us,
            self.kind == "first",
            crate::protocol::format_f64(self.delay),
            self.num_cells,
            self.decompose_us,
            self.label_us,
            self.cover_us,
            self.recovery_us,
            self.memo_hits,
            self.memo_id_hits,
            self.matches_enumerated,
            self.labels_reused,
        )
    }
}

/// The `--log-requests` JSONL sink: one line per finished (or rejected)
/// request, flushed per line so a tailing observer is never a buffer
/// behind.
pub(crate) struct RequestLog {
    file: Mutex<BufWriter<File>>,
}

impl RequestLog {
    pub fn open(path: &PathBuf) -> io::Result<RequestLog> {
        if let Some(parent) = path.parent().filter(|p| !p.as_os_str().is_empty()) {
            std::fs::create_dir_all(parent)?;
        }
        Ok(RequestLog {
            file: Mutex::new(BufWriter::new(File::create(path)?)),
        })
    }

    pub fn write(&self, ev: &RequestEvent) {
        let line = ev.to_jsonl();
        let mut f = self.file.lock().unwrap_or_else(|e| e.into_inner());
        let _ = writeln!(f, "{line}");
        let _ = f.flush();
    }
}

/// Tail-based trace sampler: keeps the Chrome traces of requests slower
/// than their class's rolling quantile, in a bounded on-disk ring.
pub(crate) struct TailState {
    dir: PathBuf,
    quantile: f64,
    keep: usize,
    seq: AtomicU64,
    ring: Mutex<VecDeque<PathBuf>>,
}

impl TailState {
    pub fn new(config: &TailConfig) -> io::Result<TailState> {
        std::fs::create_dir_all(&config.dir)?;
        Ok(TailState {
            dir: config.dir.clone(),
            quantile: config.quantile,
            keep: config.keep.max(1),
            seq: AtomicU64::new(0),
            ring: Mutex::new(VecDeque::new()),
        })
    }

    /// Whether a request at `latency_us` should keep its trace, judged
    /// against the rolling histogram of its class *before* this request
    /// is recorded into it (a request must not raise the bar for itself).
    pub fn should_keep(&self, latency_us: u64, class_before: &Log2Histogram) -> bool {
        if self.quantile <= 0.0 {
            return true;
        }
        if class_before.count() < TAIL_MIN_SAMPLES {
            return false;
        }
        latency_us > class_before.quantile_upper(self.quantile)
    }

    /// Writes a kept trace into the ring, evicting the oldest file beyond
    /// the cap. Returns the path it landed at.
    pub fn store(&self, trace: &dagmap_obs::Trace, latency_us: u64) -> Option<PathBuf> {
        let seq = self.seq.fetch_add(1, Ordering::Relaxed);
        let path = self.dir.join(format!("tail-{seq:06}-{latency_us}us.json"));
        if std::fs::write(&path, trace.to_chrome_json()).is_err() {
            return None;
        }
        let mut ring = self.ring.lock().unwrap_or_else(|e| e.into_inner());
        ring.push_back(path.clone());
        while ring.len() > self.keep {
            if let Some(old) = ring.pop_front() {
                let _ = std::fs::remove_file(old);
            }
        }
        Some(path)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn first_seen_classifies_by_lib_and_content() {
        let t = Telemetry::new(2);
        assert!(t.first_seen("lib2", ".model a"));
        assert!(!t.first_seen("lib2", ".model a"), "repeat of the same pair");
        assert!(t.first_seen("other", ".model a"), "same blif, new lib");
        assert!(t.first_seen("lib2", ".model b"), "same lib, new blif");
    }

    #[test]
    fn request_events_render_valid_jsonl() {
        let mut ev = RequestEvent::new("map", Some("r\"1".into()));
        ev.lib = Some("lib2".into());
        ev.kind = "repeat";
        ev.latency_us = 1234;
        ev.delay = 4.5;
        let v = dagmap_obs::json::parse(&ev.to_jsonl()).unwrap();
        assert_eq!(v.get("op").unwrap().as_str(), Some("map"));
        assert_eq!(v.get("id").unwrap().as_str(), Some("r\"1"));
        assert_eq!(v.get("kind").unwrap().as_str(), Some("repeat"));
        assert_eq!(v.get("latency_us").unwrap().as_num(), Some(1234.0));
        assert_eq!(
            v.get("first_seen"),
            Some(&dagmap_obs::json::Value::Bool(false))
        );
        assert!(v.get("phases").unwrap().get("label_us").is_some());
    }

    #[test]
    fn tail_threshold_arms_after_min_samples() {
        let cfg = TailConfig {
            dir: std::env::temp_dir(),
            quantile: 0.95,
            keep: 4,
        };
        let tail = TailState::new(&cfg).unwrap();
        let mut class = Log2Histogram::new();
        // Cold class: nothing is kept, no matter how slow.
        assert!(!tail.should_keep(u64::MAX, &class));
        for _ in 0..100 {
            class.record(100);
        }
        // Armed: only latencies beyond the class p95 keep their trace.
        assert!(!tail.should_keep(100, &class));
        assert!(tail.should_keep(100_000, &class));
        // quantile <= 0 keeps everything from the first request.
        let all = TailState::new(&TailConfig {
            quantile: 0.0,
            ..cfg
        })
        .unwrap();
        assert!(all.should_keep(1, &Log2Histogram::new()));
    }

    #[test]
    fn prometheus_label_values_are_escaped() {
        assert_eq!(label_escape("lib2"), "lib2");
        assert_eq!(label_escape("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
    }
}
