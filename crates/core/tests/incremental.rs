//! Incremental re-mapping: after a netlist edit, `map_incremental` must
//! produce byte-identical output to a cold full mapping of the edited
//! network while re-evaluating only the dirty region.

use dagmap_core::{MapOptions, Mapper};
use dagmap_genlib::Library;
use dagmap_match::SharedMatchStore;
use dagmap_netlist::{blif, NetEdit, Network, NodeFn, SubjectGraph};

fn mapped_blif(mapped: &dagmap_core::MappedNetlist) -> String {
    blif::to_string(&mapped.to_network().expect("lower")).expect("blif")
}

/// Applies a small local edit to `net`: a fresh input XORed into the
/// driver of one primary output. The rest of the circuit is untouched,
/// so most signatures — and therefore most labels — survive.
fn edit_one_output(net: &mut Network) {
    let out_name = net.outputs().first().expect("has outputs").name.clone();
    let old_driver = net.outputs().first().unwrap().driver;
    let created = net
        .apply_edits(vec![
            NetEdit::AddInput {
                name: "inc_patch".into(),
            },
            NetEdit::AddNode {
                func: NodeFn::Xor,
                fanins: vec![old_driver, old_driver],
                name: None,
            },
        ])
        .expect("edits apply");
    let patch_in = created[0].unwrap();
    let xor = created[1].unwrap();
    net.replace_fanin(xor, 1, patch_in).expect("rewire");
    net.apply_edits(vec![NetEdit::SetOutputDriver {
        output: out_name,
        driver: xor,
    }])
    .expect("redirect output");
}

#[test]
fn incremental_remap_is_byte_identical_and_reuses_labels() {
    let lib = Library::lib_44_3_like();
    let mapper = Mapper::new(&lib);
    let opts = MapOptions::dag().with_match_memo(true);

    for (name, mut net) in [
        ("alu8", dagmap_benchgen::alu(8)),
        ("ks16", dagmap_benchgen::kogge_stone_adder(16)),
    ] {
        let subject = SubjectGraph::from_network(&net).expect("decomposes");
        let (_, cold_rep, retained) = mapper
            .map_with_store(&subject, opts, None, true)
            .expect("cold map");
        let retained = retained.expect("benchgen subjects have injective sigs");
        assert!(cold_rep.labels_reused == 0, "{name}: cold run reuses nothing");

        edit_one_output(&mut net);
        let edited = SubjectGraph::from_network(&net).expect("edited decomposes");

        let (full, full_rep) = mapper.map_with_report(&edited, opts).expect("full remap");
        let (inc, inc_rep, next) = mapper
            .map_incremental(&edited, opts, &retained, None)
            .expect("incremental remap");

        assert_eq!(inc_rep.delay, full_rep.delay, "{name}: delay diverged");
        assert_eq!(inc_rep.area, full_rep.area, "{name}: area diverged");
        assert_eq!(
            mapped_blif(&inc),
            mapped_blif(&full),
            "{name}: incremental mapped BLIF diverged from cold"
        );
        assert!(
            inc_rep.labels_reused > 0,
            "{name}: a local edit should leave most labels reusable"
        );
        assert!(
            inc_rep.labels_reused + 8 < edited.flat().num_nodes(),
            "{name}: the edited region must actually be re-evaluated"
        );
        // The snapshot returned by the incremental pass seeds the next round:
        // re-mapping the unchanged netlist reuses every gate label.
        let next = next.expect("edited subject stays injective");
        let (_, again_rep, _) = mapper
            .map_incremental(&edited, opts, &next, None)
            .expect("idempotent remap");
        assert_eq!(again_rep.delay, full_rep.delay);
        assert!(
            again_rep.labels_reused >= inc_rep.labels_reused,
            "{name}: no-op remap reuses at least as much"
        );
    }
}

#[test]
fn incremental_remap_matches_through_a_shared_store() {
    let lib = Library::lib2_like();
    let mapper = Mapper::new(&lib);
    let opts = MapOptions::dag().with_match_memo(true);
    let mut net = dagmap_benchgen::ripple_adder(8);

    let shared = SharedMatchStore::for_library(&lib, 4, 1 << 12);
    let subject = SubjectGraph::from_network(&net).expect("decomposes");
    let (_, _, retained) = mapper
        .map_with_store(&subject, opts, Some(&shared), true)
        .expect("cold map");
    let retained = retained.expect("injective");

    edit_one_output(&mut net);
    let edited = SubjectGraph::from_network(&net).expect("decomposes");
    let (full, full_rep) = mapper.map_with_report(&edited, opts).expect("full");
    let (inc, inc_rep, _) = mapper
        .map_incremental(&edited, opts, &retained, Some(&shared))
        .expect("incremental");

    assert_eq!(inc_rep.delay, full_rep.delay);
    assert_eq!(mapped_blif(&inc), mapped_blif(&full));
    assert!(inc_rep.labels_reused > 0);
}

#[test]
fn retained_labels_refuse_non_injective_subjects() {
    // Two structurally identical cones over the *same* inputs strash to one
    // node, so injectivity can only break via engineered collisions; the
    // public contract is exercised through the snapshot constructor instead.
    let net = dagmap_benchgen::parity_tree(8);
    let subject = SubjectGraph::from_network(&net).expect("decomposes");
    let lib = Library::minimal();
    let mapper = Mapper::new(&lib);
    let (_, _, retained) = mapper
        .map_with_store(&subject, MapOptions::dag(), None, true)
        .expect("map");
    let retained = retained.expect("strashed subjects are injective");
    assert_eq!(retained.num_nodes(), subject.flat().num_nodes());
    // An incremental pass against a *different* circuit still yields the
    // correct (cold-identical) answer: nothing is clean, everything dirty.
    let other = SubjectGraph::from_network(&dagmap_benchgen::decoder(3)).expect("decomposes");
    let (full, full_rep) = mapper
        .map_with_report(&other, MapOptions::dag())
        .expect("full");
    let (inc, inc_rep, _) = mapper
        .map_incremental(&other, MapOptions::dag(), &retained, None)
        .expect("incremental");
    assert_eq!(inc_rep.delay, full_rep.delay);
    assert_eq!(mapped_blif(&inc), mapped_blif(&full));
}
