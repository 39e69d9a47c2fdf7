//! Bit-identity of the match-acceleration stages: the fingerprint index and
//! the cone-class memo may only change how much work the matcher performs,
//! never what it returns. Labels (arrivals, area flows, selected matches),
//! mapped netlists and critical delays must agree bit for bit across every
//! acceleration configuration, library and match semantics.

use dagmap_benchgen::random_network;
use dagmap_core::{label, Labels, MapOptions, Mapper, MatchMode, Objective, StructuralSource};
use dagmap_genlib::Library;
use dagmap_match::{MatchConfig, MemoPolicy};
use dagmap_netlist::SubjectGraph;

fn label_config(
    subject: &SubjectGraph,
    lib: &Library,
    mode: MatchMode,
    objective: Objective,
    config: MatchConfig,
) -> Labels {
    let source = StructuralSource::new(lib, mode, config, None);
    label(subject, &source, objective).expect("labels")
}

const MODES: [MatchMode; 3] = [MatchMode::Standard, MatchMode::Exact, MatchMode::Extended];

/// Index × memo-policy × strash-id combinations, baseline first. `Auto`
/// rides along so the cost-gated default provably picks one of the fixed
/// behaviours, and the memoized rows run with strash-id keying both off and
/// on — the id fast path must replay exactly what the cone key would.
fn configs() -> [MatchConfig; 7] {
    [
        MatchConfig {
            index: false,
            memo: MemoPolicy::Off,
            strash_ids: false,
        },
        MatchConfig {
            index: true,
            memo: MemoPolicy::Off,
            strash_ids: false,
        },
        MatchConfig {
            index: false,
            memo: MemoPolicy::On,
            strash_ids: false,
        },
        MatchConfig {
            index: true,
            memo: MemoPolicy::On,
            strash_ids: false,
        },
        MatchConfig {
            index: false,
            memo: MemoPolicy::On,
            strash_ids: true,
        },
        MatchConfig {
            index: true,
            memo: MemoPolicy::On,
            strash_ids: true,
        },
        MatchConfig {
            index: true,
            memo: MemoPolicy::Auto,
            strash_ids: true,
        },
    ]
}

fn builtin_libraries() -> [Library; 4] {
    [
        Library::minimal(),
        Library::lib2_like(),
        Library::lib_44_1_like(),
        Library::lib_44_3_like(),
    ]
}

#[test]
fn labels_are_bit_identical_across_configs_libraries_and_modes() {
    let net = dagmap_benchgen::ripple_adder(6);
    let subject = SubjectGraph::from_network(&net).expect("adder subject");
    for lib in &builtin_libraries() {
        for mode in MODES {
            let reference = label_config(
                &subject,
                lib,
                mode,
                Objective::Delay,
                MatchConfig::baseline(),
            );
            for config in configs() {
                let l = label_config(&subject, lib, mode, Objective::Delay, config);
                let tag = format!("lib={} mode={mode:?} config={config:?}", lib.name());
                assert_eq!(l.arrival, reference.arrival, "{tag}");
                assert_eq!(l.area_flow, reference.area_flow, "{tag}");
                assert_eq!(l.best, reference.best, "{tag}");
                assert_eq!(l.stats.enumerated, reference.stats.enumerated, "{tag}");
                assert_eq!(
                    l.critical_delay(&subject).to_bits(),
                    reference.critical_delay(&subject).to_bits(),
                    "{tag}"
                );
                // The memo never changes the pruned count of the config
                // it accelerates, and the index can only add to it.
                if config.index {
                    assert!(l.stats.pruned >= reference.stats.pruned, "{tag}");
                } else {
                    assert_eq!(l.stats.pruned, reference.stats.pruned, "{tag}");
                }
                if config.memo == MemoPolicy::On {
                    assert!(l.stats.memo_lookups > 0 && l.stats.memo_hits > 0, "{tag}");
                }
            }
        }
    }
}

#[test]
fn mapped_netlists_are_byte_identical_with_acceleration_on_or_off() {
    let net = dagmap_benchgen::alu(4);
    let subject = SubjectGraph::from_network(&net).expect("alu subject");
    for lib in &builtin_libraries() {
        let mapper = Mapper::new(lib);
        for base in [
            MapOptions::dag(),
            MapOptions::tree(),
            MapOptions::dag_extended(),
            MapOptions::dag().with_area_recovery(),
        ] {
            let on = mapper.map(&subject, base).expect("accelerated map");
            let off = mapper
                .map(&subject, base.with_match_acceleration(false))
                .expect("baseline map");
            let blif_on =
                dagmap_netlist::blif::to_string(&on.to_network().expect("lower")).expect("blif");
            let blif_off =
                dagmap_netlist::blif::to_string(&off.to_network().expect("lower")).expect("blif");
            assert_eq!(
                blif_on,
                blif_off,
                "lib={} algo={}",
                lib.name(),
                base.algorithm_name()
            );
            assert_eq!(on.delay().to_bits(), off.delay().to_bits());
            assert_eq!(on.area().to_bits(), off.area().to_bits());
        }
    }
}

#[test]
fn seeded_random_dags_label_identically_under_every_acceleration() {
    let libs = builtin_libraries();
    for seed in 0..8u64 {
        let net = random_network(5 + seed as usize % 4, 45 + 18 * seed as usize, seed);
        let subject = SubjectGraph::from_network(&net).expect("random nets are acyclic");
        let lib = &libs[seed as usize % libs.len()];
        let mode = MODES[seed as usize % MODES.len()];
        for objective in [Objective::Delay, Objective::Area] {
            let reference =
                label_config(&subject, lib, mode, objective, MatchConfig::baseline());
            for config in configs() {
                let l = label_config(&subject, lib, mode, objective, config);
                let tag = format!(
                    "seed={seed} lib={} mode={mode:?} obj={objective:?} config={config:?}",
                    lib.name()
                );
                assert_eq!(l.arrival, reference.arrival, "{tag}");
                assert_eq!(l.best, reference.best, "{tag}");
                assert_eq!(l.stats.enumerated, reference.stats.enumerated, "{tag}");
            }
        }
    }
}
