//! Trace-structure determinism: the observability layer must describe the
//! *algorithm*, not how fast it found its answer. The session-lane span
//! structure and the deterministic counters have to come out identical
//! across every acceleration setting — and recording must not perturb the
//! mapping itself (bit-identical BLIF and delay with tracing on or off).
//!
//! This lives in its own integration-test file on purpose: obs sessions are
//! process-global, and sibling `#[test]`s running instrumented code on other
//! threads of the same test binary would stitch their spans and counters
//! into an active session. A dedicated binary gives the session a quiet
//! process. Keep this file to a single `#[test]`.

use dagmap_benchgen::random_network;
use dagmap_core::{MapOptions, Mapper};
use dagmap_genlib::Library;
use dagmap_netlist::{blif, SubjectGraph};

/// Counters whose values are part of the mapper's deterministic contract:
/// invariant across acceleration settings. The memo counters
/// (`match.memo_*`) exist only with the memo on and `match.pruned` varies
/// with acceleration (the fingerprint index prunes candidates earlier), so
/// they are deliberately absent here.
const INVARIANT_COUNTERS: &[&str] = &[
    "decompose.gates",
    "decompose.multi_fanout",
    "decompose.levels",
    "label.nodes",
    "match.enumerated",
];

#[test]
fn trace_structure_is_invariant_across_acceleration() {
    let lib = Library::lib2_like();
    let net = random_network(8, 140, 11);

    // One full pipeline run: decompose, map, lower to BLIF.
    let map = |accel: bool| {
        let subject = SubjectGraph::from_network(&net).expect("random nets are acyclic");
        let mut opts = MapOptions::dag();
        if !accel {
            opts = opts.with_match_acceleration(false);
        }
        let (mapped, _) = Mapper::new(&lib)
            .map_with_report(&subject, opts)
            .expect("maps");
        let text = blif::to_string(&mapped.to_network().expect("lowers")).expect("serializes");
        (text, mapped.delay().to_bits())
    };
    let run = |accel: bool| {
        let session = dagmap_obs::start();
        let (text, delay) = map(accel);
        (session.finish(), text, delay)
    };

    let (untraced_blif, untraced_delay) = map(true);
    let (base_trace, base_blif, base_delay) = run(true);
    // Observability must be inert: tracing on changes no byte.
    assert_eq!(base_blif, untraced_blif, "mapped BLIF drifted under tracing");
    assert_eq!(base_delay, untraced_delay, "critical delay drifted under tracing");
    let base_sig = base_trace.span_signature();
    assert!(
        base_sig.iter().any(|(p, _)| p.ends_with("label.wave")),
        "signature must see the per-level wave spans: {base_sig:?}"
    );
    assert!(
        base_sig.iter().any(|(p, _)| p == "map/cover"),
        "{base_sig:?}"
    );
    for name in INVARIANT_COUNTERS {
        assert!(
            base_trace.counter(name) > 0,
            "baseline run must emit counter `{name}`"
        );
    }

    let (trace, text, delay) = run(false);
    assert_eq!(text, base_blif, "mapped BLIF drifted without acceleration");
    assert_eq!(delay, base_delay, "critical delay drifted without acceleration");
    // The session-lane span tree is the same shape with the same
    // multiplicities: same phases, same number of waves.
    assert_eq!(
        trace.span_signature(),
        base_sig,
        "span structure drifted without acceleration"
    );
    for name in INVARIANT_COUNTERS {
        assert_eq!(
            trace.counter(name),
            base_trace.counter(name),
            "counter `{name}` drifted without acceleration"
        );
    }
}
