//! The benchmark's own span recorder for the traced run.
//!
//! Spans are recorded around each public call into a layer, from the
//! benchmark's code: the program's internal `dagmap_obs` instrumentation
//! stays on its disabled path. Spans stay in memory and are written out as
//! Chrome trace-event JSON when the run ends.

use std::collections::HashMap;
use std::fs;
use std::path::Path;
use std::time::Instant;

/// No parent.
pub const ROOT: usize = usize::MAX;

#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    /// Circuit index (one-shot) or request index (serve).
    pub id: usize,
    pub parent: usize,
    /// Display track: 0 for the main thread, `1 + c` for connection `c`.
    pub track: usize,
    pub start: Instant,
    pub end: Instant,
}

impl Span {
    pub fn ms(&self) -> f64 {
        (self.end - self.start).as_secs_f64() * 1e3
    }
}

/// An in-memory span list; `enabled == false` makes every call a pass-through.
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    pub fn new(enabled: bool) -> Tracer {
        Tracer {
            enabled,
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Opens a span nested in the innermost open one; returns its index.
    pub fn begin(&mut self, name: &'static str, id: usize) -> usize {
        if !self.enabled {
            return ROOT;
        }
        let now = Instant::now();
        let parent = self.open.last().copied().unwrap_or(ROOT);
        self.spans.push(Span {
            name,
            id,
            parent,
            track: 0,
            start: now,
            end: now,
        });
        self.open.push(self.spans.len() - 1);
        self.spans.len() - 1
    }

    /// Closes the innermost open span, which must be `index`.
    pub fn end(&mut self, index: usize) {
        if !self.enabled {
            return;
        }
        let top = self.open.pop();
        debug_assert_eq!(top, Some(index), "spans close innermost first");
        self.spans[index].end = Instant::now();
    }

    /// Runs `f` inside a span named `name`.
    pub fn span<T>(&mut self, name: &'static str, id: usize, f: impl FnOnce() -> T) -> T {
        let s = self.begin(name, id);
        let out = f();
        self.end(s);
        out
    }

    /// Adds a span timed elsewhere (e.g. on a connection thread).
    pub fn record(&mut self, span: Span) -> usize {
        if !self.enabled {
            return ROOT;
        }
        self.spans.push(span);
        self.spans.len() - 1
    }

    fn children(&self, index: usize) -> impl Iterator<Item = &Span> + '_ {
        self.spans.iter().filter(move |s| s.parent == index)
    }

    /// A span's duration minus the part of it its children cover
    /// (children may overlap, e.g. pipelined requests).
    pub fn self_ms(&self, index: usize) -> f64 {
        let span = &self.spans[index];
        let mut kids: Vec<(Instant, Instant)> = self
            .children(index)
            .map(|c| (c.start.max(span.start), c.end.min(span.end)))
            .filter(|(a, b)| a < b)
            .collect();
        kids.sort();
        let mut covered = 0.0;
        let mut cur: Option<(Instant, Instant)> = None;
        for (a, b) in kids {
            match cur {
                Some((ca, cb)) if a <= cb => cur = Some((ca, cb.max(b))),
                Some((ca, cb)) => {
                    covered += (cb - ca).as_secs_f64();
                    cur = Some((a, b));
                }
                None => cur = Some((a, b)),
            }
        }
        if let Some((ca, cb)) = cur {
            covered += (cb - ca).as_secs_f64();
        }
        span.ms() - covered * 1e3
    }

    /// Total milliseconds per span name over the subtree under `root`
    /// (`root` itself excluded).
    pub fn totals_under(&self, root: usize) -> HashMap<&'static str, f64> {
        let mut inside = vec![false; self.spans.len()];
        let mut totals = HashMap::new();
        // Parents always precede children, so one forward sweep suffices.
        for (i, s) in self.spans.iter().enumerate() {
            if s.parent == root || (s.parent != ROOT && inside[s.parent]) {
                inside[i] = true;
                *totals.entry(s.name).or_insert(0.0) += s.ms();
            }
        }
        totals
    }

    /// Sum of self time over `root` and its descendants named in `structural`:
    /// the wall time no layer span claims.
    pub fn unattributed_ms(&self, root: usize, structural: &[&str]) -> f64 {
        let mut inside = vec![false; self.spans.len()];
        inside[root] = true;
        let mut total = self.self_ms(root);
        for i in root + 1..self.spans.len() {
            let p = self.spans[i].parent;
            if p != ROOT && inside[p] && structural.contains(&self.spans[i].name) {
                inside[i] = true;
                total += self.self_ms(i);
            }
        }
        total
    }

    /// Writes every span as Chrome trace-event JSON.
    pub fn write_chrome(&self, path: &Path) -> std::io::Result<()> {
        let us = |t: Instant| (t - self.origin).as_secs_f64() * 1e6;
        let mut out = String::from("{\"traceEvents\":[");
        for (i, s) in self.spans.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let parent = if s.parent == ROOT {
                "null".to_owned()
            } else {
                s.parent.to_string()
            };
            out.push_str(&format!(
                "\n{{\"name\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":{},\"ts\":{:.3},\"dur\":{:.3},\
                 \"args\":{{\"span\":{i},\"parent\":{parent},\"id\":{}}}}}",
                s.name,
                s.track,
                us(s.start),
                us(s.end) - us(s.start),
                s.id
            ));
        }
        out.push_str("\n]}\n");
        if let Some(dir) = path.parent() {
            fs::create_dir_all(dir)?;
        }
        fs::write(path, out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let t0 = Instant::now();
        let at = |ms: u64| t0 + Duration::from_millis(ms);
        let mut tr = Tracer::new(true);
        let root = tr.record(Span {
            name: "pass",
            id: 0,
            parent: ROOT,
            track: 0,
            start: at(0),
            end: at(100),
        });
        for (a, b) in [(10, 40), (30, 60), (80, 90)] {
            tr.record(Span {
                name: "req",
                id: 0,
                parent: root,
                track: 1,
                start: at(a),
                end: at(b),
            });
        }
        assert!((tr.self_ms(root) - 40.0).abs() < 1e-6);
        assert!((tr.totals_under(root)["req"] - 70.0).abs() < 1e-6);
        assert!((tr.unattributed_ms(root, &[]) - 40.0).abs() < 1e-6);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut tr = Tracer::new(false);
        assert_eq!(tr.span("x", 0, || 7), 7);
        assert!(tr.spans.is_empty());
    }
}
