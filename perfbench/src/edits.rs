//! Seeded noise edits for the store stream, applied through the store's
//! public mutators.
//!
//! The edit kinds are those of `grepair_gen::inject_kg_noise`, which
//! mutates a bare `Graph`: each edit is planned against the store's
//! current graph (every edit gets its own, otherwise untouched persons,
//! so edits never mask each other) and then applied as the mutator calls
//! a client of the store would make. Each planned edit carries its
//! ledger entry, so a batch can be scored with `evaluate_repair`.

use crate::trace::time;
use grepair_gen::{ErrorClass, GroundTruth, InjectedError};
use grepair_graph::{EdgeId, Graph, NodeId, Value};
use grepair_store::{DurableGraph, StoreError};
use std::collections::HashSet;

/// SplitMix64: a tiny, fixed, seedable generator.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Rng(seed ^ 0x0005_eed0_fba7_c4e5)
    }

    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }
}

/// One planned noise edit.
pub enum Edit {
    RemoveEdge(EdgeId, InjectedError),
    RemoveAttr(NodeId, InjectedError),
    AddEdge(NodeId, NodeId, InjectedError),
    SetAttr(NodeId, Value, InjectedError),
    RelabelEdge(EdgeId, InjectedError),
    /// Duplicate a person: its attributes and some of its out-edges.
    Clone {
        original: NodeId,
        attrs: Vec<(String, Value)>,
        edges: Vec<(NodeId, String)>,
    },
}

const CLASSES: [ErrorClass; 3] = [
    ErrorClass::Incompleteness,
    ErrorClass::Conflict,
    ErrorClass::Redundancy,
];

/// Plans batches of edits; classes rotate as in the injector.
pub struct EditGen {
    rng: Rng,
    class: usize,
}

impl EditGen {
    pub fn new(seed: u64) -> Self {
        EditGen {
            rng: Rng::new(seed),
            class: 0,
        }
    }

    /// Plan `n` edits against `g`, each on persons no other edit of the
    /// batch touches.
    pub fn plan(&mut self, g: &Graph, n: usize) -> Vec<Edit> {
        let person = g.try_label("Person").expect("KG labels");
        let persons = g.nodes_with_label(person).to_vec();
        let mut used = HashSet::new();
        let mut out = Vec::with_capacity(n);
        let mut attempts = 0;
        while out.len() < n && attempts < n * 50 + 100 {
            attempts += 1;
            let planned = match CLASSES[self.class % CLASSES.len()] {
                ErrorClass::Incompleteness => self.incompleteness(g, &persons, &mut used),
                ErrorClass::Conflict => self.conflict(g, &persons, &mut used),
                ErrorClass::Redundancy => self.redundancy(g, &persons, &mut used),
            };
            if let Some(edit) = planned {
                out.push(edit);
                self.class += 1;
            }
        }
        out
    }

    fn pick(&mut self, persons: &[NodeId], used: &HashSet<NodeId>) -> Option<NodeId> {
        (0..32)
            .map(|_| persons[self.rng.below(persons.len())])
            .find(|p| !used.contains(p))
    }

    fn incompleteness(
        &mut self,
        g: &Graph,
        persons: &[NodeId],
        used: &mut HashSet<NodeId>,
    ) -> Option<Edit> {
        let p = self.pick(persons, used)?;
        let citizen_of = g.try_label("citizenOf")?;
        let married_to = g.try_label("marriedTo")?;
        match self.rng.below(3) {
            0 => {
                let e = g
                    .out_edges(p)
                    .find(|&e| g.edge(e).unwrap().label == citizen_of)?;
                let dst = g.edge(e).unwrap().dst;
                used.insert(p);
                let err = InjectedError::RemovedEdge {
                    src: p,
                    dst,
                    label: "citizenOf".into(),
                };
                Some(Edit::RemoveEdge(e, err))
            }
            1 => {
                let e = g
                    .out_edges(p)
                    .find(|&e| g.edge(e).unwrap().label == married_to)?;
                let s = g.edge(e).unwrap().dst;
                if s == p || used.contains(&s) || !g.has_edge_labeled(s, p, married_to) {
                    return None;
                }
                used.extend([p, s]);
                let err = InjectedError::RemovedEdge {
                    src: p,
                    dst: s,
                    label: "marriedTo".into(),
                };
                Some(Edit::RemoveEdge(e, err))
            }
            _ => {
                let value = g.attr(p, g.try_attr_key("country")?)?.clone();
                used.insert(p);
                let err = InjectedError::RemovedAttr {
                    node: p,
                    key: "country".into(),
                    value,
                };
                Some(Edit::RemoveAttr(p, err))
            }
        }
    }

    fn conflict(
        &mut self,
        g: &Graph,
        persons: &[NodeId],
        used: &mut HashSet<NodeId>,
    ) -> Option<Edit> {
        let p = self.pick(persons, used)?;
        let citizen_of = g.try_label("citizenOf")?;
        let married_to = g.try_label("marriedTo")?;
        match self.rng.below(4) {
            0 => {
                if g.has_edge_labeled(p, p, married_to) {
                    return None;
                }
                used.insert(p);
                let err = InjectedError::AddedSelfLoop {
                    node: p,
                    label: "marriedTo".into(),
                };
                Some(Edit::AddEdge(p, p, err))
            }
            1 => {
                // Bigamy: p is married both ways to a spouse; marry p to a
                // third person one way.
                let e = g
                    .out_edges(p)
                    .find(|&e| g.edge(e).unwrap().label == married_to)?;
                let spouse = g.edge(e).unwrap().dst;
                if !g.has_edge_labeled(spouse, p, married_to) {
                    return None;
                }
                let z = self.pick(persons, used)?;
                if z == p
                    || z == spouse
                    || g.has_edge_labeled(p, z, married_to)
                    || g.has_edge_labeled(z, p, married_to)
                {
                    return None;
                }
                used.extend([p, z]);
                let err = InjectedError::AddedSpuriousEdge {
                    src: p,
                    dst: z,
                    label: "marriedTo".into(),
                };
                Some(Edit::AddEdge(p, z, err))
            }
            2 => {
                let clean = g.attr(p, g.try_attr_key("country")?)?.clone();
                let dirty = Value::Str(format!("atlantis{}", self.rng.below(1000)));
                used.insert(p);
                let err = InjectedError::CorruptedAttr {
                    node: p,
                    key: "country".into(),
                    clean,
                    dirty: dirty.clone(),
                };
                Some(Edit::SetAttr(p, dirty, err))
            }
            _ => {
                // A citizenship mistyped as livesIn (Person-livesIn->Country).
                let e = g
                    .out_edges(p)
                    .find(|&e| g.edge(e).unwrap().label == citizen_of)?;
                let dst = g.edge(e).unwrap().dst;
                used.insert(p);
                let err = InjectedError::RelabeledEdge {
                    src: p,
                    dst,
                    from: "citizenOf".into(),
                    to: "livesIn".into(),
                };
                Some(Edit::RelabelEdge(e, err))
            }
        }
    }

    fn redundancy(
        &mut self,
        g: &Graph,
        persons: &[NodeId],
        used: &mut HashSet<NodeId>,
    ) -> Option<Edit> {
        let p = self.pick(persons, used)?;
        let attrs = g
            .attrs(p)
            .iter()
            .map(|(k, v)| (g.attr_key_name(*k).to_owned(), v.clone()))
            .collect();
        let mut edges = Vec::new();
        for e in g.out_edges(p) {
            let er = g.edge(e).unwrap();
            let name = g.label_name(er.label);
            let copy = match name {
                "livesIn" | "citizenOf" => true,
                "knows" => self.rng.below(2) == 0,
                _ => false,
            };
            if copy {
                edges.push((er.dst, name.to_owned()));
            }
        }
        used.insert(p);
        Some(Edit::Clone {
            original: p,
            attrs,
            edges,
        })
    }
}

/// Apply one planned edit through the store's mutators, each call in a
/// `store.mutate` span. Returns the ledger entry, and counts every
/// mutator call in `calls` and every failed one in `failed`.
pub fn apply(
    store: &mut DurableGraph,
    edit: &Edit,
    truth: &mut GroundTruth,
    calls: &mut u64,
    failed: &mut u64,
) {
    let mut call = |r: Result<(), StoreError>| {
        *calls += 1;
        if let Err(e) = r {
            *failed += 1;
            eprintln!("perfbench: check failed: store mutator: {e}");
        }
    };
    let mutate = |f: &mut dyn FnMut() -> Result<(), StoreError>| time("store.mutate", "store", f);
    let err = match edit {
        Edit::RemoveEdge(e, err) => {
            call(mutate(&mut || store.remove_edge(*e)));
            err.clone()
        }
        Edit::RemoveAttr(n, err) => {
            call(mutate(&mut || store.remove_attr(*n, "country").map(drop)));
            err.clone()
        }
        Edit::AddEdge(s, d, err) => {
            call(mutate(&mut || {
                store.add_edge(*s, *d, "marriedTo").map(drop)
            }));
            err.clone()
        }
        Edit::SetAttr(n, v, err) => {
            call(mutate(&mut || {
                store.set_attr(*n, "country", v.clone()).map(drop)
            }));
            err.clone()
        }
        Edit::RelabelEdge(e, err) => {
            call(mutate(&mut || {
                store.set_edge_label(*e, "livesIn").map(drop)
            }));
            err.clone()
        }
        Edit::Clone {
            original,
            attrs,
            edges,
        } => {
            let mut clone = None;
            call(mutate(&mut || {
                clone = Some(store.add_node_with_attrs("Person", attrs)?);
                Ok(())
            }));
            let Some(clone) = clone else { return };
            for (dst, label) in edges {
                call(mutate(&mut || store.add_edge(clone, *dst, label).map(drop)));
            }
            truth.clone_of.insert(clone, *original);
            InjectedError::ClonedNode {
                original: *original,
                clone,
            }
        }
    };
    truth.errors.push(err);
}
