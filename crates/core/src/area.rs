//! Slack-driven area recovery — an extension prefiguring the paper's
//! "area-delay tradeoff" future work (its Section 6 cites Cong & Ding's
//! FlowMap-based approach for FPGAs).
//!
//! After delay-optimal labeling, nodes off the critical path have slack;
//! re-selecting their matches under a required-time budget trades that slack
//! for area without increasing the circuit delay. The selection is provably
//! delay-safe: a node's requirement is only ever tightened to
//! `req(consumer) − pin_delay`, and the delay-optimal match (arrival =
//! label ≤ req) is always feasible, so induction over the reverse
//! topological order bounds every realized arrival by its requirement.

use dagmap_match::Match;
use dagmap_netlist::{NodeFn, SubjectGraph};

use crate::label::{arrival_of_leaves, Labels};
use crate::source::MatchSource;
use crate::MapError;

const EPS: f64 = 1e-9;

/// Re-selects matches to minimize estimated area under the delay budget
/// `target` (clamped to at least the optimum, so feasibility is
/// guaranteed). Returns one selected match per *needed* node.
///
/// The caller provides the match source and one kit, so the refinement
/// rounds of `Mapper::map_with_report` share one match memo: after round 1
/// every cone class in the circuit is warm and later rounds enumerate
/// nothing. Candidate matches are consumed as borrowed
/// [`crate::SourceMatch`]es and materialized only when they beat the
/// incumbent, replacing the former per-node `matches_at` allocation.
///
/// # Errors
///
/// Propagates substrate errors; infeasibility cannot occur (see module
/// docs).
pub(crate) fn recover<S: MatchSource>(
    subject: &SubjectGraph,
    source: &S,
    labels: &Labels,
    target: f64,
    kit: &mut S::Kit,
) -> Result<Vec<Option<Match>>, MapError> {
    let net = subject.network();
    let flat = subject.flat();
    let order = flat.topo_order();
    let library = source.library();

    // Area flow: estimated area cost of producing each signal, discounted by
    // fanout sharing (a standard mapper heuristic).
    let mut af = vec![0.0f64; net.num_nodes()];
    for &id in order {
        let Some(best) = labels.best[id.index()].as_ref() else {
            continue;
        };
        let mut a = library.gate(best.gate).area();
        for leaf in &best.leaves {
            a += af[leaf.index()];
        }
        af[id.index()] = a / flat.fanout_count(id).max(1) as f64;
    }

    let target = target.max(labels.critical_delay(subject));
    let mut req = vec![f64::INFINITY; net.num_nodes()];
    let mut needed = vec![false; net.num_nodes()];
    for out in net.outputs() {
        req[out.driver.index()] = target;
        needed[out.driver.index()] = true;
    }
    for id in net.node_ids() {
        if matches!(net.node(id).func(), NodeFn::Latch) {
            let d = net.node(id).fanins()[0];
            req[d.index()] = target;
            needed[d.index()] = true;
        }
    }

    let mut selected: Vec<Option<Match>> = vec![None; net.num_nodes()];
    for &id in order.iter().rev() {
        if !needed[id.index()] || !flat.is_gate(id) {
            continue;
        }
        let budget = req[id.index()];
        let mut chosen: Option<(f64, f64, Match)> = None; // (cost, arrival)
        source.for_each_match(subject, id, kit, &mut |sm| {
            let t = arrival_of_leaves(library, &labels.arrival, sm.gate, sm.leaves);
            if t > budget + EPS {
                return;
            }
            let mut cost = library.gate(sm.gate).area();
            for leaf in sm.leaves {
                if !needed[leaf.index()] {
                    cost += af[leaf.index()];
                }
            }
            let better = match &chosen {
                None => true,
                Some((bc, bt, _)) => cost < bc - EPS || (cost < bc + EPS && t < bt - EPS),
            };
            if better {
                chosen = Some((
                    cost,
                    t,
                    Match {
                        gate: sm.gate,
                        pattern: sm.pattern,
                        leaves: sm.leaves.to_vec(),
                        covered: sm.covered.to_vec(),
                    },
                ));
            }
        });
        let (_, _, m) = chosen.ok_or(MapError::NoMatch { node: id })?;
        let gate = library.gate(m.gate);
        for (pin, leaf) in m.leaves.iter().enumerate() {
            needed[leaf.index()] = true;
            let r = &mut req[leaf.index()];
            *r = r.min(budget - gate.pin_delay(pin));
        }
        selected[id.index()] = Some(m);
    }
    Ok(selected)
}

#[cfg(test)]
mod tests {
    use super::*;
    use dagmap_genlib::Library;
    use dagmap_match::MatchMode;
    use dagmap_netlist::Network;

    /// A node with slack: two parallel cones of different depth meeting at
    /// an AND, so the shallow side can afford slower-but-smaller gates.
    fn skewed() -> SubjectGraph {
        let mut net = Network::new("skew");
        let a = net.add_input("a");
        let b = net.add_input("b");
        let c = net.add_input("c");
        let d = net.add_input("d");
        let mut deep = a;
        for _ in 0..6 {
            deep = net.add_node(NodeFn::And, vec![deep, b]).unwrap();
        }
        let shallow = net.add_node(NodeFn::And, vec![c, d]).unwrap();
        let f = net.add_node(NodeFn::And, vec![deep, shallow]).unwrap();
        net.add_output("f", f);
        SubjectGraph::from_network(&net).unwrap()
    }

    fn recover_fresh(
        subject: &SubjectGraph,
        lib: &Library,
        labels: &crate::label::Labels,
    ) -> Vec<Option<Match>> {
        let source = crate::source::StructuralSource::new(
            lib,
            dagmap_match::MatchMode::Standard,
            dagmap_match::MatchConfig::default(),
            None,
        );
        let mut kit = source.make_kit(subject);
        recover(subject, &source, labels, 0.0, &mut kit).unwrap()
    }

    #[test]
    fn recovery_never_worsens_delay() {
        let subject = skewed();
        let lib = Library::lib2_like();
        let labels = crate::Mapper::new(&lib)
            .label(&subject, MatchMode::Standard)
            .unwrap();
        let selected = recover_fresh(&subject, &lib, &labels);
        let plain = crate::cover::construct(&subject, &lib, &labels.best).unwrap();
        let recovered = crate::cover::construct(&subject, &lib, &selected).unwrap();
        assert!(recovered.delay() <= plain.delay() + 1e-9);
        assert!(recovered.area() <= plain.area() + 1e-9);
    }

    #[test]
    fn unneeded_nodes_get_no_selection() {
        let subject = skewed();
        let lib = Library::lib2_like();
        let labels = crate::Mapper::new(&lib)
            .label(&subject, MatchMode::Standard)
            .unwrap();
        let selected = recover_fresh(&subject, &lib, &labels);
        // Nodes absorbed into larger matches are not selected.
        let picked = selected.iter().filter(|s| s.is_some()).count();
        let with_best = labels.best.iter().filter(|s| s.is_some()).count();
        assert!(picked <= with_best);
    }
}
