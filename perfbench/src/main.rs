//! `dagmap-perfbench`: the repository's end-to-end benchmark.
//!
//! ```text
//! dagmap-perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//!                  [--quick] [--out <dir>]
//! ```
//!
//! Runs one workload (`oneshot_lib2`, `oneshot_44_3_recover`,
//! `boolean_lib2`, `serve_hot`) for about `--seconds`, checks every output,
//! and prints as its last stdout line one JSON object with `correct`,
//! `attempted`, `failed` and `metrics`: the end-to-end metrics with
//! `--trace 0`, the per-layer metrics of a traced run with `--trace 1`.
//! The line before it describes the host and the output digest. Exits 1 on
//! any correctness failure. See `README.md` for the workloads and metrics.

mod ledger;
mod oneshot;
mod serve;
mod stats;
mod trace;

use std::path::PathBuf;
use std::process::ExitCode;

use ledger::{Metrics, END_TO_END, PER_LAYER};
use trace::Tracer;

/// Workload names, as `BENCHMARK.json` lists them.
const WORKLOADS: &[&str] = &[
    "oneshot_lib2",
    "oneshot_44_3_recover",
    "boolean_lib2",
    "serve_hot",
];

/// Parsed command line.
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// Tiny inputs, for the self-test.
    pub quick: bool,
    /// Where the traced run writes its spans.
    pub out: PathBuf,
}

/// What a workload run measured and checked.
#[derive(Default)]
pub struct RunResult {
    pub attempted: u64,
    pub failed: u64,
    pub failures: Vec<String>,
    pub metrics: Metrics,
    /// Digest of the output bytes of an untraced pass.
    pub digest: String,
    /// Digest of the output bytes of a traced pass (traced runs only).
    pub traced_digest: Option<String>,
    /// Most labeling threads any map used.
    pub label_threads: usize,
    /// Extra JSON fields for the host line (sample counts).
    pub notes: String,
    pub tracer: Option<Tracer>,
}

impl RunResult {
    pub fn fail(&mut self, operations: u64, message: String) {
        self.failed += operations;
        if self.failures.len() < 20 {
            self.failures.push(message);
        }
    }
}

fn usage() -> String {
    format!(
        "usage: dagmap-perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1> \
         [--quick] [--out <dir>]",
        WORKLOADS.join("|")
    )
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
        quick: false,
        out: PathBuf::from("perfbench/out"),
    };
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().cloned().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => args.workload = value()?,
            "--seed" => args.seed = value()?.parse().map_err(|_| "--seed needs an integer")?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|_| "--seconds needs a number")?;
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace needs 0 or 1".into()),
                }
            }
            "--quick" => args.quick = true,
            "--out" => args.out = value()?.into(),
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    if !WORKLOADS.contains(&args.workload.as_str()) {
        return Err(format!("unknown workload `{}`", args.workload));
    }
    if !(args.seconds.is_finite() && args.seconds >= 0.0) {
        return Err("--seconds must be a non-negative number".into());
    }
    Ok(args)
}

/// The `"name":{"value":v,"unit":u}` field of each of `names`. Only the
/// metrics in `absent`, of a layer the workload never enters, read 0; a
/// metric missing otherwise, or measured although listed there, fails.
fn metric_fields(
    res: &mut RunResult,
    names: &[(&'static str, &str)],
    absent: &[&str],
) -> Vec<String> {
    let mut fields = Vec::with_capacity(names.len());
    for &(name, unit) in names {
        let value = match (res.metrics.get(name), absent.contains(&name)) {
            (Some(&v), false) if v.is_finite() => v,
            (None, true) => 0.0,
            (Some(_), true) => {
                res.fail(1, format!("metric {name} is listed as not entered"));
                0.0
            }
            _ => {
                res.fail(1, format!("metric {name} was not measured"));
                0.0
            }
        };
        fields.push(format!(
            "\"{name}\":{{\"value\":{value},\"unit\":\"{unit}\"}}"
        ));
    }
    fields
}

/// The commit of the checkout, when it is a git work tree.
fn commit() -> String {
    let read = |p: &str| std::fs::read_to_string(p).ok().map(|s| s.trim().to_owned());
    match read(".git/HEAD") {
        Some(head) => match head.strip_prefix("ref: ") {
            Some(r) => read(&format!(".git/{r}")).unwrap_or(head),
            None => head,
        },
        None => "unknown".to_owned(),
    }
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.first().map(String::as_str) == Some("daemon") {
        return match serve::daemon_main() {
            Ok(()) => ExitCode::SUCCESS,
            Err(e) => {
                eprintln!("dagmap-perfbench daemon: {e}");
                ExitCode::FAILURE
            }
        };
    }
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("dagmap-perfbench: {e}\n{}", usage());
            return ExitCode::from(2);
        }
    };
    let run = match args.workload.as_str() {
        "oneshot_lib2" => oneshot::run(oneshot::Kind::Lib2, &args),
        "oneshot_44_3_recover" => oneshot::run(oneshot::Kind::Lib443Recover, &args),
        "boolean_lib2" => oneshot::run(oneshot::Kind::BooleanLib2, &args),
        _ => serve::run(&args),
    };
    let mut res = match run {
        Ok(r) => r,
        Err(e) => {
            eprintln!("dagmap-perfbench: {e}");
            return ExitCode::FAILURE;
        }
    };
    if let Some(t) = &res.traced_digest {
        if *t != res.digest {
            res.fail(
                1,
                format!("traced digest {t} differs from untraced {}", res.digest),
            );
        }
    }

    let mut trace_file = String::new();
    if let Some(tracer) = &res.tracer {
        let path = args
            .out
            .join(format!("trace-{}-s{}.json", args.workload, args.seed));
        match tracer.write_chrome(&path) {
            Ok(()) => trace_file = path.display().to_string(),
            Err(e) => res.fail(1, format!("writing {}: {e}", path.display())),
        }
    }

    let (names, absent) = if args.trace {
        (PER_LAYER, ledger::not_entered(&args.workload))
    } else {
        (END_TO_END, Vec::new())
    };
    let metrics = metric_fields(&mut res, names, &absent);
    if res.attempted == 0 {
        res.fail(0, "no operation was attempted".to_owned());
    }
    let correct = res.failed == 0 && res.attempted > 0;
    for f in &res.failures {
        eprintln!("FAILED: {f}");
    }
    println!(
        "{{\"host\":{{\"workload\":\"{}\",\"seed\":{},\"trace\":{},\"seconds\":{},\"nproc\":{},\
         \"workers\":{},\"connections\":{},\"window\":{},\"label_threads\":{},\"commit\":\"{}\"}},\
         \"digest\":\"{}\",\"traced_digest\":\"{}\",\"trace_file\":\"{}\",{}}}",
        args.workload,
        args.seed,
        args.trace,
        args.seconds,
        std::thread::available_parallelism().map_or(1, |n| n.get()),
        serve::workers(),
        serve::workers(),
        serve::WINDOW,
        res.label_threads,
        commit(),
        res.digest,
        res.traced_digest.as_deref().unwrap_or(""),
        trace_file,
        res.notes,
    );
    println!(
        "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
        correct,
        res.attempted,
        res.failed,
        metrics.join(",")
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn only_layers_not_entered_may_be_missing() {
        let names = [("a.ms", "ms"), ("b.ms", "ms")];
        let mut res = RunResult::default();
        res.metrics.insert("a.ms", 1.5);
        let fields = metric_fields(&mut res, &names, &["b.ms"]);
        assert_eq!(res.failed, 0);
        assert_eq!(fields[1], r#""b.ms":{"value":0,"unit":"ms"}"#);

        metric_fields(&mut res, &names, &[]);
        assert_eq!(res.failed, 1, "b.ms missing");
        metric_fields(&mut res, &names, &["a.ms", "b.ms"]);
        assert_eq!(res.failed, 2, "a.ms measured though not entered");
        res.metrics.insert("b.ms", f64::NAN);
        metric_fields(&mut res, &names, &[]);
        assert_eq!(res.failed, 3, "b.ms not finite");
    }

    #[test]
    fn not_entered_lists_only_real_layer_metrics() {
        for w in WORKLOADS {
            let absent = ledger::not_entered(w);
            assert!(absent.iter().all(|a| PER_LAYER.iter().any(|(n, _)| n == a)));
            for always in ["unattributed_ms", "obs.trace_overhead_pct", "core.label_ms"] {
                assert!(!absent.contains(&always), "{w}: {always}");
            }
        }
    }
}
