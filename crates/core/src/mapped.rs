use std::collections::HashMap;
use std::fmt;

use dagmap_genlib::{Expr, GateId, Library, TreeShape};
use dagmap_netlist::{NetlistError, Network, NodeFn, NodeId};

/// A signal in a mapped netlist.
#[derive(Debug, Copy, Clone, PartialEq, Eq, Hash)]
pub enum Signal {
    /// Primary input by index.
    Input(u32),
    /// Output of a cell by index.
    Cell(u32),
    /// Output of a latch by index.
    Latch(u32),
    /// Constant.
    Const(bool),
}

/// Library gate information copied into the netlist so it stays
/// self-contained (one entry per distinct gate used).
#[derive(Debug, Clone)]
pub struct GateKind {
    /// Gate name in the source library.
    pub name: String,
    /// Originating gate id.
    pub gate: GateId,
    /// Cell area.
    pub area: f64,
    /// Load-independent pin-to-output delays in canonical pin order.
    pub pin_delays: Vec<f64>,
    /// Capacitive load each pin presents to its driver.
    pub pin_input_loads: Vec<f64>,
    /// Load-dependent delay per unit output load, per pin (the genlib
    /// fanout coefficients the paper's delay model ignores; kept so
    /// [`load`](crate::load) can quantify that approximation).
    pub pin_fanout_delays: Vec<f64>,
    /// Output expression (pins in canonical order).
    pub expr: Expr,
    /// Expression variables in canonical pin order.
    pub pin_names: Vec<String>,
    /// Output pin name (for netlist export).
    pub output_pin: String,
}

/// One gate instance.
#[derive(Debug, Clone)]
pub struct Cell {
    /// Index into [`MappedNetlist::gate_kinds`].
    pub kind: u32,
    /// Driving signal per pin, canonical pin order.
    pub fanins: Vec<Signal>,
    /// The subject node this cell's output implements.
    pub subject_root: NodeId,
    /// Subject nodes absorbed into this cell (root included).
    pub covered: Vec<NodeId>,
}

/// A technology-mapped netlist: gate instances over named primary inputs,
/// outputs and latches, with precomputed timing and area.
///
/// Cells are stored in topological order (fanins precede consumers). Use
/// [`MappedNetlist::to_network`] to lower the netlist back into a plain
/// [`Network`] for simulation, BLIF export or equivalence checking.
#[derive(Debug, Clone)]
pub struct MappedNetlist {
    pub(crate) name: String,
    pub(crate) gate_kinds: Vec<GateKind>,
    pub(crate) cells: Vec<Cell>,
    pub(crate) inputs: Vec<String>,
    /// Latch name and data signal.
    pub(crate) latches: Vec<(String, Signal)>,
    pub(crate) outputs: Vec<(String, Signal)>,
    pub(crate) arrivals: Vec<f64>,
    pub(crate) delay: f64,
    pub(crate) area: f64,
}

impl MappedNetlist {
    /// Assembles a netlist from its parts, for example a mapping edited by
    /// a tool or one with a planted fault. Arrivals, delay and area are
    /// recomputed from the gate kinds.
    ///
    /// # Errors
    ///
    /// Fails if a cell names an unknown gate kind, has a fanin count other
    /// than its kind's pin count, or reads a signal that does not exist —
    /// for cells, a signal of a cell at or after its own position.
    pub fn from_parts(
        name: impl Into<String>,
        gate_kinds: Vec<GateKind>,
        cells: Vec<Cell>,
        inputs: Vec<String>,
        latches: Vec<(String, Signal)>,
        outputs: Vec<(String, Signal)>,
    ) -> Result<MappedNetlist, NetlistError> {
        let in_range = |s: Signal, cells_before: usize| match s {
            Signal::Input(i) => (i as usize) < inputs.len(),
            Signal::Latch(l) => (l as usize) < latches.len(),
            Signal::Cell(c) => (c as usize) < cells_before,
            Signal::Const(_) => true,
        };
        for (i, cell) in cells.iter().enumerate() {
            let kind = gate_kinds.get(cell.kind as usize).ok_or_else(|| {
                NetlistError::Invariant(format!("cell {i}: unknown gate kind {}", cell.kind))
            })?;
            if cell.fanins.len() != kind.pin_names.len() {
                return Err(NetlistError::Invariant(format!(
                    "cell {i}: {} fanins for {} pins of `{}`",
                    cell.fanins.len(),
                    kind.pin_names.len(),
                    kind.name
                )));
            }
            if let Some(s) = cell.fanins.iter().find(|&&s| !in_range(s, i)) {
                return Err(NetlistError::Invariant(format!(
                    "cell {i}: fanin {s:?} is not an earlier signal"
                )));
            }
        }
        if let Some((name, s)) = latches
            .iter()
            .chain(&outputs)
            .find(|&&(_, s)| !in_range(s, cells.len()))
        {
            return Err(NetlistError::Invariant(format!(
                "`{name}` reads {s:?}, which does not exist"
            )));
        }
        let mut m = MappedNetlist {
            name: name.into(),
            area: cells.iter().map(|c| gate_kinds[c.kind as usize].area).sum(),
            gate_kinds,
            cells,
            inputs,
            latches,
            outputs,
            arrivals: Vec::new(),
            delay: 0.0,
        };
        m.arrivals = m.recompute_arrivals();
        m.delay = m
            .outputs
            .iter()
            .chain(&m.latches)
            .map(|&(_, s)| m.signal_arrival(s))
            .fold(0.0, f64::max);
        Ok(m)
    }

    /// Netlist name (inherited from the subject graph).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Distinct gates used, with their copied library data.
    pub fn gate_kinds(&self) -> &[GateKind] {
        &self.gate_kinds
    }

    /// Gate instances in topological order.
    pub fn cells(&self) -> &[Cell] {
        &self.cells
    }

    /// Number of gate instances.
    pub fn num_cells(&self) -> usize {
        self.cells.len()
    }

    /// Primary input names.
    pub fn input_names(&self) -> &[String] {
        &self.inputs
    }

    /// Primary outputs with their driving signal.
    pub fn outputs(&self) -> &[(String, Signal)] {
        &self.outputs
    }

    /// Latches with their data signals.
    pub fn latches(&self) -> &[(String, Signal)] {
        &self.latches
    }

    /// The gate kind of a cell.
    ///
    /// # Panics
    ///
    /// Panics if `cell` is out of range.
    pub fn kind_of(&self, cell: usize) -> &GateKind {
        &self.gate_kinds[self.cells[cell].kind as usize]
    }

    /// Critical-path delay (worst arrival over outputs and latch data).
    pub fn delay(&self) -> f64 {
        self.delay
    }

    /// Total cell area.
    pub fn area(&self) -> f64 {
        self.area
    }

    /// Arrival time at a cell output.
    ///
    /// # Panics
    ///
    /// Panics if `cell` is out of range.
    pub fn cell_arrival(&self, cell: usize) -> f64 {
        self.arrivals[cell]
    }

    /// Arrival time of any signal.
    pub fn signal_arrival(&self, signal: Signal) -> f64 {
        match signal {
            Signal::Cell(c) => self.arrivals[c as usize],
            _ => 0.0,
        }
    }

    /// Count of cell instances per gate name, sorted by name.
    pub fn gate_histogram(&self) -> Vec<(String, usize)> {
        let mut counts: HashMap<&str, usize> = HashMap::new();
        for cell in &self.cells {
            *counts
                .entry(self.gate_kinds[cell.kind as usize].name.as_str())
                .or_insert(0) += 1;
        }
        let mut v: Vec<(String, usize)> =
            counts.into_iter().map(|(k, c)| (k.to_owned(), c)).collect();
        v.sort();
        v
    }

    /// Subject nodes covered by more than one cell — the duplication that
    /// DAG covering performs and tree covering cannot (Figure 2).
    pub fn duplicated_subject_nodes(&self) -> usize {
        let mut seen: HashMap<NodeId, usize> = HashMap::new();
        for cell in &self.cells {
            for &n in &cell.covered {
                *seen.entry(n).or_insert(0) += 1;
            }
        }
        seen.values().filter(|&&c| c > 1).count()
    }

    /// The critical path as cell indices, output side first: starts at the
    /// latest-arriving output (or latch data) cell and walks backward
    /// through the pin realizing each cell's arrival, ending at a primary
    /// input / constant / latch output. Empty when no cells exist.
    pub fn critical_path(&self) -> Vec<usize> {
        let start = self
            .outputs
            .iter()
            .chain(&self.latches)
            .filter_map(|(_, s)| match s {
                Signal::Cell(c) => Some(*c as usize),
                _ => None,
            })
            .max_by(|&a, &b| {
                self.arrivals[a]
                    .partial_cmp(&self.arrivals[b])
                    .expect("arrivals are finite")
            });
        let Some(mut cur) = start else {
            return Vec::new();
        };
        let mut path = vec![cur];
        loop {
            let cell = &self.cells[cur];
            let kind = &self.gate_kinds[cell.kind as usize];
            let mut next = None;
            for (pin, &f) in cell.fanins.iter().enumerate() {
                let base = match f {
                    Signal::Cell(c) => self.arrivals[c as usize],
                    _ => 0.0,
                };
                if (base + kind.pin_delays[pin] - self.arrivals[cur]).abs() < 1e-9 {
                    if let Signal::Cell(c) = f {
                        next = Some(c as usize);
                    }
                    break;
                }
            }
            match next {
                Some(c) => {
                    path.push(c);
                    cur = c;
                }
                None => break,
            }
        }
        path.reverse();
        path
    }

    /// Recomputes arrivals from scratch — an independent check of the stored
    /// timing (used by [`verify`](crate::verify)).
    pub fn recompute_arrivals(&self) -> Vec<f64> {
        let mut arr = vec![0.0f64; self.cells.len()];
        for (i, cell) in self.cells.iter().enumerate() {
            let kind = &self.gate_kinds[cell.kind as usize];
            let mut t: f64 = 0.0;
            for (pin, &f) in cell.fanins.iter().enumerate() {
                let base = match f {
                    Signal::Cell(c) => arr[c as usize],
                    _ => 0.0,
                };
                t = t.max(base + kind.pin_delays[pin]);
            }
            arr[i] = t;
        }
        arr
    }

    /// Lowers the mapped netlist into a plain [`Network`] (each cell becomes
    /// its expression over its fanin signals) for simulation, equivalence
    /// checking or BLIF export.
    ///
    /// # Errors
    ///
    /// Propagates network-construction failures (which indicate internal
    /// inconsistency rather than user error).
    pub fn to_network(&self) -> Result<Network, NetlistError> {
        let mut net = Network::new(&self.name);
        let input_ids: Vec<NodeId> = self.inputs.iter().map(|n| net.add_input(n)).collect();
        // Latches first (placeholder data, patched at the end) so cells can
        // reference them.
        let mut latch_ids = Vec::with_capacity(self.latches.len());
        let zero = if self.latches.is_empty() {
            None
        } else {
            Some(net.add_node(NodeFn::Const(false), Vec::new())?)
        };
        for (name, _) in &self.latches {
            let l = net.add_node(NodeFn::Latch, vec![zero.expect("placeholder")])?;
            net.set_node_name(l, name);
            latch_ids.push(l);
        }
        let mut cell_ids: Vec<NodeId> = Vec::with_capacity(self.cells.len());
        let resolve = |sig: Signal,
                       net: &mut Network,
                       cell_ids: &Vec<NodeId>|
         -> Result<NodeId, NetlistError> {
            Ok(match sig {
                Signal::Input(i) => input_ids[i as usize],
                Signal::Cell(c) => cell_ids[c as usize],
                Signal::Latch(l) => latch_ids[l as usize],
                Signal::Const(v) => net.add_node(NodeFn::Const(v), Vec::new())?,
            })
        };
        for cell in &self.cells {
            let kind = &self.gate_kinds[cell.kind as usize];
            let mut binding = HashMap::new();
            for (pin, name) in kind.pin_names.iter().enumerate() {
                let sig = resolve(cell.fanins[pin], &mut net, &cell_ids)?;
                binding.insert(name.clone(), sig);
            }
            let out = kind
                .expr
                .lower_into(&mut net, &binding, TreeShape::Balanced);
            cell_ids.push(out);
        }
        for ((_, data), &latch) in self.latches.iter().zip(&latch_ids) {
            let d = resolve(*data, &mut net, &cell_ids)?;
            net.replace_single_fanin(latch, d);
        }
        for (name, sig) in &self.outputs {
            let d = resolve(*sig, &mut net, &cell_ids)?;
            net.add_output(name, d);
        }
        Ok(net)
    }
}

impl fmt::Display for MappedNetlist {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "mapped netlist `{}`: {} cells, delay {:.3}, area {:.1}",
            self.name,
            self.cells.len(),
            self.delay,
            self.area
        )?;
        for (name, count) in self.gate_histogram() {
            writeln!(f, "  {name:<10} x{count}")?;
        }
        Ok(())
    }
}

/// Copies one library gate into a self-contained [`GateKind`].
pub(crate) fn gate_kind_of(id: GateId, g: &dagmap_genlib::Gate) -> GateKind {
    GateKind {
        name: g.name().to_owned(),
        gate: id,
        area: g.area(),
        pin_delays: (0..g.num_pins()).map(|p| g.pin_delay(p)).collect(),
        pin_input_loads: g.pins().iter().map(|(_, t)| t.input_load).collect(),
        pin_fanout_delays: g
            .pins()
            .iter()
            .map(|(_, t)| t.rise_fanout.max(t.fall_fanout))
            .collect(),
        expr: g.expr().clone(),
        pin_names: g.pins().iter().map(|(n, _)| n.clone()).collect(),
        output_pin: g.output().to_owned(),
    }
}

/// Builds the deduplicated gate-kind table for a mapping under construction.
pub(crate) struct KindTable<'a> {
    library: &'a Library,
    kinds: Vec<GateKind>,
    by_gate: HashMap<GateId, u32>,
}

impl<'a> KindTable<'a> {
    pub(crate) fn new(library: &'a Library) -> Self {
        KindTable {
            library,
            kinds: Vec::new(),
            by_gate: HashMap::new(),
        }
    }

    pub(crate) fn intern(&mut self, gate: GateId) -> u32 {
        if let Some(&k) = self.by_gate.get(&gate) {
            return k;
        }
        let g = self.library.gate(gate);
        let k = u32::try_from(self.kinds.len()).expect("kind count fits u32");
        self.kinds.push(gate_kind_of(gate, g));
        self.by_gate.insert(gate, k);
        k
    }

    pub(crate) fn into_kinds(self) -> Vec<GateKind> {
        self.kinds
    }
}

#[cfg(test)]
mod tests {
    use crate::{MapOptions, Mapper};
    use dagmap_genlib::Library;
    use dagmap_netlist::{Network, NodeFn, SubjectGraph};

    #[test]
    fn critical_path_walks_arrival_realizers() {
        let mut net = Network::new("p");
        let a = net.add_input("a");
        let b = net.add_input("b");
        let mut deep = a;
        for _ in 0..5 {
            deep = net.add_node(NodeFn::And, vec![deep, b]).unwrap();
        }
        net.add_output("f", deep);
        let subject = SubjectGraph::from_network(&net).unwrap();
        let mapped = Mapper::new(&Library::lib_44_1_like())
            .map(&subject, MapOptions::dag())
            .unwrap();
        let path = mapped.critical_path();
        assert!(!path.is_empty());
        // Arrivals strictly increase along the path and end at the delay.
        for w in path.windows(2) {
            assert!(mapped.cell_arrival(w[0]) < mapped.cell_arrival(w[1]));
        }
        assert!(
            (mapped.cell_arrival(*path.last().expect("nonempty")) - mapped.delay()).abs() < 1e-9
        );
        // The first cell on the path is driven by sources only... at least
        // its realizing pin is; weaker check: its arrival equals one pin
        // delay exactly when all fanins are sources.
        assert!(mapped.cell_arrival(path[0]) > 0.0);
    }

    #[test]
    fn cell_free_netlists_have_empty_paths() {
        let mut net = Network::new("wire");
        let a = net.add_input("a");
        net.add_output("f", a);
        let subject = SubjectGraph::from_network(&net).unwrap();
        let mapped = Mapper::new(&Library::minimal())
            .map(&subject, MapOptions::dag())
            .unwrap();
        assert!(mapped.critical_path().is_empty());
    }
}
