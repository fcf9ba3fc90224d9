//! Frozen CSR snapshots of a [`Graph`].
//!
//! The mutable [`Graph`] is optimized for the repair engine's write path:
//! stable ids, tombstoned slots, per-node `Vec<EdgeId>` adjacency and
//! hash-based indexes. A [`FrozenGraph`] is a read-only, compacted
//! snapshot rebuilt in one pass:
//!
//! - **tombstone-free node/edge arrays** — live elements only, addressed
//!   densely; dead-slot checks become one array lookup;
//! - **CSR adjacency, both directions**, with each node's run sorted by
//!   `(edge_label, neighbor_label, neighbor, edge)` so label-constrained
//!   neighbor enumeration and edge-existence checks are binary searches
//!   over a contiguous slice instead of a filtered list walk;
//! - **contiguous per-label node runs** (ascending node id);
//! - **precomputed neighbor-signature bitsets** copied out of the live
//!   graph (see [`crate::sig_bit`]);
//! - **columnar attribute storage** — one flat key-sorted `(key, value)`
//!   column partitioned by node, plus a `(key, value) → sorted node list`
//!   index.
//!
//! All queries answer in terms of the **original** [`NodeId`]/[`EdgeId`]s.
//! A snapshot records the [`Graph::version`] it was built from;
//! [`FrozenGraph::is_stale`] tells callers when a rebuild is due.
//!
//! The matcher and the repair engines scan the live [`Graph`] directly:
//! an end-to-end ablation showed a per-scan freeze costs more than the
//! compacted layout saves. No engine path builds a snapshot.

use crate::graph::Graph;
use crate::ids::{AttrKeyId, EdgeId, LabelId, NodeId};
use crate::interner::Interner;
use crate::value::Value;
use rustc_hash::FxHashMap;

/// Sentinel marking a dead or out-of-range slot in dense maps.
const DEAD: u32 = u32::MAX;

/// One CSR adjacency entry: an incident edge seen from its anchor node.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CsrEntry {
    /// Relation label of the edge.
    pub label: LabelId,
    /// Label of the neighbor endpoint.
    pub neighbor_label: LabelId,
    /// Neighbor endpoint (original id).
    pub neighbor: NodeId,
    /// The edge itself (original id).
    pub edge: EdgeId,
}

impl CsrEntry {
    #[inline]
    fn sort_key(&self) -> (LabelId, LabelId, NodeId, EdgeId) {
        (self.label, self.neighbor_label, self.neighbor, self.edge)
    }
}

/// Read-only compacted CSR snapshot of a [`Graph`].
///
/// Built with [`FrozenGraph::freeze`]; see the module docs for the layout.
#[derive(Clone, Debug, Default)]
pub struct FrozenGraph {
    /// `Graph::version` at freeze time.
    built_version: u64,
    /// Original slot index → dense index (`DEAD` for tombstones /
    /// out-of-range).
    dense_of: Vec<u32>,
    /// Dense index → original node id, strictly ascending.
    node_ids: Vec<NodeId>,
    /// Node label per dense index.
    labels: Vec<LabelId>,
    /// Neighbor-label signature per dense index.
    sigs: Vec<u64>,
    /// Attribute column offsets (`len = nodes + 1`).
    attr_off: Vec<u32>,
    /// Flat attribute column, key-sorted within each node's partition.
    attrs: Vec<(AttrKeyId, Value)>,
    /// Out-CSR offsets (`len = nodes + 1`).
    out_off: Vec<u32>,
    /// Out-CSR entries, sorted by [`CsrEntry::sort_key`] within each run.
    out: Vec<CsrEntry>,
    /// In-CSR offsets (`len = nodes + 1`).
    in_off: Vec<u32>,
    /// In-CSR entries, sorted like `out`.
    inc: Vec<CsrEntry>,
    /// Per-label node-run offsets (`len = labels + 1`).
    label_off: Vec<u32>,
    /// Concatenated per-label node runs, ascending ids within each run.
    label_nodes: Vec<NodeId>,
    /// Live-edge count per edge label.
    edge_label_counts: Vec<u64>,
    /// `(key, value)` → ascending node ids carrying exactly that attribute.
    attr_index: FxHashMap<(AttrKeyId, Value), Vec<NodeId>>,
    /// Label vocabulary at freeze time.
    label_interner: Interner,
    /// Attribute-key vocabulary at freeze time.
    attr_key_interner: Interner,
    n_edges: usize,
}

impl FrozenGraph {
    /// Build a snapshot of `g`. One pass over live elements plus a
    /// per-node sort of adjacency runs: `O(V + E log d_max)`.
    pub fn freeze(g: &Graph) -> Self {
        let _span = grepair_obs::span("graph.freeze", "graph");
        let freeze_started = grepair_obs::timer();
        let frozen = Self::freeze_inner(g);
        grepair_obs::record_since_named("graph.freeze_ns", freeze_started);
        frozen
    }

    fn freeze_inner(g: &Graph) -> Self {
        let n = g.num_nodes();
        let slot_cap = g.nodes().last().map(|id| id.index() + 1).unwrap_or(0);
        let mut dense_of = vec![DEAD; slot_cap];
        let mut node_ids = Vec::with_capacity(n);
        let mut labels = Vec::with_capacity(n);
        let mut sigs = Vec::with_capacity(n);
        for (dense, id) in g.nodes().enumerate() {
            dense_of[id.index()] = dense as u32;
            node_ids.push(id);
            labels.push(g.node_label(id).expect("live node has a label"));
            sigs.push(g.signature(id));
        }

        // Attribute column + (key, value) index. Node iteration is in
        // ascending id order, so index buckets come out sorted.
        let mut attr_off = Vec::with_capacity(n + 1);
        let mut attrs = Vec::new();
        let mut attr_index: FxHashMap<(AttrKeyId, Value), Vec<NodeId>> = FxHashMap::default();
        attr_off.push(0u32);
        for &id in &node_ids {
            for (k, v) in g.attrs(id) {
                attrs.push((*k, v.clone()));
                attr_index.entry((*k, v.clone())).or_default().push(id);
            }
            attr_off.push(attrs.len() as u32);
        }

        // CSR adjacency, both directions, label-sorted runs.
        let label_of = |dense_of: &[u32], labels: &[LabelId], id: NodeId| -> LabelId {
            labels[dense_of[id.index()] as usize]
        };
        let mut out_off = Vec::with_capacity(n + 1);
        let mut out = Vec::with_capacity(g.num_edges());
        let mut in_off = Vec::with_capacity(n + 1);
        let mut inc = Vec::with_capacity(g.num_edges());
        out_off.push(0u32);
        in_off.push(0u32);
        for &id in &node_ids {
            let start = out.len();
            for e in g.out_edges(id) {
                let er = g.edge(e).expect("live adjacency edge");
                out.push(CsrEntry {
                    label: er.label,
                    neighbor_label: label_of(&dense_of, &labels, er.dst),
                    neighbor: er.dst,
                    edge: e,
                });
            }
            out[start..].sort_unstable_by_key(CsrEntry::sort_key);
            out_off.push(out.len() as u32);

            let start = inc.len();
            for e in g.in_edges(id) {
                let er = g.edge(e).expect("live adjacency edge");
                inc.push(CsrEntry {
                    label: er.label,
                    neighbor_label: label_of(&dense_of, &labels, er.src),
                    neighbor: er.src,
                    edge: e,
                });
            }
            inc[start..].sort_unstable_by_key(CsrEntry::sort_key);
            in_off.push(inc.len() as u32);
        }

        // Contiguous per-label node runs via counting sort; ascending-id
        // node iteration keeps each run sorted.
        let n_labels = g.labels().len();
        let mut counts = vec![0u32; n_labels];
        for &l in &labels {
            counts[l.index()] += 1;
        }
        let mut label_off = Vec::with_capacity(n_labels + 1);
        label_off.push(0u32);
        for c in &counts {
            label_off.push(label_off.last().unwrap() + c);
        }
        let mut cursor: Vec<u32> = label_off[..n_labels].to_vec();
        let mut label_nodes = vec![NodeId(0); n];
        for (dense, &id) in node_ids.iter().enumerate() {
            let l = labels[dense].index();
            label_nodes[cursor[l] as usize] = id;
            cursor[l] += 1;
        }

        let mut edge_label_counts = vec![0u64; n_labels];
        for entry in &out {
            edge_label_counts[entry.label.index()] += 1;
        }

        FrozenGraph {
            built_version: g.version(),
            dense_of,
            node_ids,
            labels,
            sigs,
            attr_off,
            attrs,
            out_off,
            out,
            in_off,
            inc,
            label_off,
            label_nodes,
            edge_label_counts,
            attr_index,
            label_interner: g.labels().clone(),
            attr_key_interner: g.attr_keys().clone(),
            n_edges: g.num_edges(),
        }
    }

    // ---- staleness --------------------------------------------------------

    /// The [`Graph::version`] this snapshot was built from.
    #[inline]
    pub fn built_version(&self) -> u64 {
        self.built_version
    }

    /// Whether `g` has mutated since this snapshot was frozen.
    #[inline]
    pub fn is_stale(&self, g: &Graph) -> bool {
        g.version() != self.built_version
    }

    // ---- vocabulary -------------------------------------------------------

    /// Look up a label by name (freeze-time vocabulary).
    pub fn try_label(&self, name: &str) -> Option<LabelId> {
        self.label_interner.get(name).map(LabelId)
    }

    /// Resolve a label id to its name.
    pub fn label_name(&self, id: LabelId) -> &str {
        self.label_interner.resolve(id.0)
    }

    /// Look up an attribute key by name (freeze-time vocabulary).
    pub fn try_attr_key(&self, name: &str) -> Option<AttrKeyId> {
        self.attr_key_interner.get(name).map(AttrKeyId)
    }

    /// Size of the freeze-time label vocabulary. Interners are
    /// append-only, so equal sizes mean identical vocabularies — the
    /// property plan caches key on.
    pub fn num_labels(&self) -> usize {
        self.label_interner.len()
    }

    /// Size of the freeze-time attribute-key vocabulary.
    pub fn num_attr_keys(&self) -> usize {
        self.attr_key_interner.len()
    }

    // ---- basic queries ----------------------------------------------------

    /// Number of nodes in the snapshot.
    #[inline]
    pub fn num_nodes(&self) -> usize {
        self.node_ids.len()
    }

    /// Number of edges in the snapshot.
    #[inline]
    pub fn num_edges(&self) -> usize {
        self.n_edges
    }

    #[inline]
    fn dense(&self, id: NodeId) -> Option<usize> {
        match self.dense_of.get(id.index()) {
            Some(&d) if d != DEAD => Some(d as usize),
            _ => None,
        }
    }

    /// Whether `id` was live at freeze time.
    #[inline]
    pub fn contains_node(&self, id: NodeId) -> bool {
        self.dense(id).is_some()
    }

    /// Label of a node, if live at freeze time.
    #[inline]
    pub fn node_label(&self, id: NodeId) -> Option<LabelId> {
        self.dense(id).map(|d| self.labels[d])
    }

    /// Neighbor-label signature of a node (0 for unknown nodes).
    #[inline]
    pub fn signature(&self, id: NodeId) -> u64 {
        self.dense(id).map(|d| self.sigs[d]).unwrap_or(0)
    }

    /// All node ids, ascending.
    pub fn node_ids(&self) -> &[NodeId] {
        &self.node_ids
    }

    // ---- adjacency --------------------------------------------------------

    #[inline]
    fn out_run(&self, dense: usize) -> &[CsrEntry] {
        &self.out[self.out_off[dense] as usize..self.out_off[dense + 1] as usize]
    }

    #[inline]
    fn in_run(&self, dense: usize) -> &[CsrEntry] {
        &self.inc[self.in_off[dense] as usize..self.in_off[dense + 1] as usize]
    }

    /// Out-degree (0 for unknown nodes).
    #[inline]
    pub fn out_degree(&self, id: NodeId) -> usize {
        self.dense(id).map(|d| self.out_run(d).len()).unwrap_or(0)
    }

    /// In-degree (0 for unknown nodes).
    #[inline]
    pub fn in_degree(&self, id: NodeId) -> usize {
        self.dense(id).map(|d| self.in_run(d).len()).unwrap_or(0)
    }

    /// Outgoing CSR run of a node (label-sorted; empty for unknown nodes).
    pub fn out_entries(&self, id: NodeId) -> &[CsrEntry] {
        self.dense(id).map(|d| self.out_run(d)).unwrap_or(&[])
    }

    /// Incoming CSR run of a node (label-sorted; empty for unknown nodes).
    pub fn in_entries(&self, id: NodeId) -> &[CsrEntry] {
        self.dense(id).map(|d| self.in_run(d)).unwrap_or(&[])
    }

    /// Label-restricted sub-run of a CSR run, by binary search.
    fn label_slice(run: &[CsrEntry], label: LabelId) -> &[CsrEntry] {
        let lo = run.partition_point(|e| e.label < label);
        let hi = run.partition_point(|e| e.label <= label);
        &run[lo..hi]
    }

    /// Outgoing entries with a given edge label (binary-searched sub-run).
    pub fn out_entries_labeled(&self, id: NodeId, label: LabelId) -> &[CsrEntry] {
        Self::label_slice(self.out_entries(id), label)
    }

    /// Incoming entries with a given edge label (binary-searched sub-run).
    pub fn in_entries_labeled(&self, id: NodeId, label: LabelId) -> &[CsrEntry] {
        Self::label_slice(self.in_entries(id), label)
    }

    /// Minimal edge id `src --label--> dst`, if any. Matches the live
    /// graph's [`Graph::find_edge`] min-id convention.
    pub fn find_edge(&self, src: NodeId, dst: NodeId, label: LabelId) -> Option<EdgeId> {
        let nl = self.node_label(dst)?;
        let run = self.out_entries_labeled(src, label);
        let lo = run.partition_point(|e| (e.neighbor_label, e.neighbor) < (nl, dst));
        match run.get(lo) {
            Some(e) if e.neighbor == dst => Some(e.edge),
            _ => None,
        }
    }

    /// Minimal edge id `src --*--> dst` over any label, if any.
    pub fn find_edge_any(&self, src: NodeId, dst: NodeId) -> Option<EdgeId> {
        self.out_entries(src)
            .iter()
            .filter(|e| e.neighbor == dst)
            .map(|e| e.edge)
            .min()
    }

    /// Whether some edge `src --label--> dst` exists.
    pub fn has_edge_labeled(&self, src: NodeId, dst: NodeId, label: LabelId) -> bool {
        self.find_edge(src, dst, label).is_some()
    }

    // ---- indexes ----------------------------------------------------------

    /// Nodes carrying `label`, ascending ids (a contiguous run).
    pub fn nodes_with_label(&self, label: LabelId) -> &[NodeId] {
        match self.label_off.get(label.index() + 1) {
            Some(&hi) => &self.label_nodes[self.label_off[label.index()] as usize..hi as usize],
            None => &[],
        }
    }

    /// Count of nodes with `label`.
    pub fn count_nodes_with_label(&self, label: LabelId) -> usize {
        self.nodes_with_label(label).len()
    }

    /// Count of edges with `label`.
    pub fn count_edges_with_label(&self, label: LabelId) -> u64 {
        self.edge_label_counts
            .get(label.index())
            .copied()
            .unwrap_or(0)
    }

    /// Nodes whose attribute `key` equals `value`, ascending ids.
    pub fn nodes_with_attr(&self, key: AttrKeyId, value: &Value) -> &[NodeId] {
        self.attr_index
            .get(&(key, value.clone()))
            .map(Vec::as_slice)
            .unwrap_or(&[])
    }

    /// All attributes of a node, key-sorted (empty for unknown nodes).
    pub fn attrs(&self, id: NodeId) -> &[(AttrKeyId, Value)] {
        match self.dense(id) {
            Some(d) => &self.attrs[self.attr_off[d] as usize..self.attr_off[d + 1] as usize],
            None => &[],
        }
    }

    /// Attribute value of a node, by binary search over its partition.
    pub fn attr(&self, id: NodeId, key: AttrKeyId) -> Option<&Value> {
        let part = self.attrs(id);
        part.binary_search_by_key(&key, |(k, _)| *k)
            .ok()
            .map(|i| &part[i].1)
    }

    // ---- verification -----------------------------------------------------

    /// Verify this snapshot against the graph it was built from: same
    /// element sets, labels, attributes, adjacency, signatures and index
    /// contents. Test / debug support.
    pub fn check_against(&self, g: &Graph) -> Result<(), String> {
        if self.is_stale(g) {
            return Err(format!(
                "snapshot built at version {} but graph is at {}",
                self.built_version,
                g.version()
            ));
        }
        if self.num_nodes() != g.num_nodes() || self.num_edges() != g.num_edges() {
            return Err("element counts diverge".into());
        }
        let live: Vec<NodeId> = g.nodes().collect();
        if live != self.node_ids {
            return Err("node id sets diverge".into());
        }
        for &id in &self.node_ids {
            if self.node_label(id) != g.node_label(id).ok() {
                return Err(format!("{id}: label diverges"));
            }
            if self.signature(id) != g.signature(id) {
                return Err(format!("{id}: signature diverges"));
            }
            if self.attrs(id) != g.attrs(id) {
                return Err(format!("{id}: attrs diverge"));
            }
            let mut live_out: Vec<EdgeId> = g.out_edges(id).collect();
            live_out.sort_unstable();
            let mut frozen_out: Vec<EdgeId> = self.out_entries(id).iter().map(|e| e.edge).collect();
            frozen_out.sort_unstable();
            if live_out != frozen_out {
                return Err(format!("{id}: out adjacency diverges"));
            }
            let mut live_in: Vec<EdgeId> = g.in_edges(id).collect();
            live_in.sort_unstable();
            let mut frozen_in: Vec<EdgeId> = self.in_entries(id).iter().map(|e| e.edge).collect();
            frozen_in.sort_unstable();
            if live_in != frozen_in {
                return Err(format!("{id}: in adjacency diverges"));
            }
            if !self
                .out_entries(id)
                .windows(2)
                .all(|w| w[0].sort_key() <= w[1].sort_key())
            {
                return Err(format!("{id}: out run not sorted"));
            }
            if !self
                .in_entries(id)
                .windows(2)
                .all(|w| w[0].sort_key() <= w[1].sort_key())
            {
                return Err(format!("{id}: in run not sorted"));
            }
        }
        for (label_idx, _) in self.label_interner.iter() {
            let l = LabelId(label_idx);
            let mut live: Vec<NodeId> = g.nodes_with_label(l).to_vec();
            live.sort_unstable();
            if live != self.nodes_with_label(l) {
                return Err(format!("label {l}: node run diverges"));
            }
            if self.count_edges_with_label(l) != g.count_edges_with_label(l) {
                return Err(format!("label {l}: edge count diverges"));
            }
        }
        for ((k, v), bucket) in &self.attr_index {
            let mut live = g.nodes_with_attr(*k, v);
            live.sort_unstable();
            if &live != bucket {
                return Err(format!("attr index bucket {k:?} diverges"));
            }
            if !bucket.windows(2).all(|w| w[0] < w[1]) {
                return Err(format!("attr index bucket {k:?} not sorted"));
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::Direction;
    use crate::sig_bit;

    fn sample() -> Graph {
        let mut g = Graph::new();
        let p = g.label("Person");
        let c = g.label("City");
        let lives = g.label("livesIn");
        let knows = g.label("knows");
        let name = g.attr_key("name");
        let a = g.add_node_with_attrs(p, vec![(name, Value::from("Ann"))]);
        let b = g.add_node(p);
        let c1 = g.add_node(c);
        let c2 = g.add_node(c);
        g.add_edge(a, c1, lives).unwrap();
        g.add_edge(b, c1, lives).unwrap();
        g.add_edge(b, c2, lives).unwrap();
        g.add_edge(a, b, knows).unwrap();
        g
    }

    #[test]
    fn freeze_preserves_everything() {
        let g = sample();
        let f = FrozenGraph::freeze(&g);
        f.check_against(&g).unwrap();
        assert_eq!(f.num_nodes(), 4);
        assert_eq!(f.num_edges(), 4);
        assert!(!f.is_stale(&g));
    }

    #[test]
    fn freeze_compacts_tombstones() {
        let mut g = sample();
        let extra = g.add_node_named("Org");
        let person = g.try_label("Person").unwrap();
        let victim = g.nodes_with_label(person)[0];
        g.remove_node(victim).unwrap();
        g.remove_node(extra).unwrap();
        let f = FrozenGraph::freeze(&g);
        f.check_against(&g).unwrap();
        assert_eq!(f.num_nodes(), g.num_nodes());
        assert!(!f.contains_node(victim));
        assert!(!f.contains_node(extra));
        // Dense arrays hold exactly the live elements.
        assert_eq!(f.node_ids().len(), g.num_nodes());
    }

    #[test]
    fn staleness_tracks_version() {
        let mut g = sample();
        let f = FrozenGraph::freeze(&g);
        assert!(!f.is_stale(&g));
        g.add_node_named("Org");
        assert!(f.is_stale(&g));
    }

    #[test]
    fn label_runs_are_sorted_and_contiguous() {
        let g = sample();
        let f = FrozenGraph::freeze(&g);
        let person = f.try_label("Person").unwrap();
        let run = f.nodes_with_label(person);
        assert_eq!(run.len(), 2);
        assert!(run.windows(2).all(|w| w[0] < w[1]));
        assert_eq!(f.count_nodes_with_label(person), 2);
        // Unknown label ids yield empty runs.
        assert!(f.nodes_with_label(LabelId(999)).is_empty());
    }

    #[test]
    fn find_edge_returns_minimal_parallel_edge() {
        let mut g = Graph::new();
        let p = g.label("P");
        let r = g.label("r");
        let a = g.add_node(p);
        let b = g.add_node(p);
        let e1 = g.add_edge(a, b, r).unwrap();
        let e2 = g.add_edge(a, b, r).unwrap();
        assert!(e1 < e2);
        let f = FrozenGraph::freeze(&g);
        assert_eq!(f.find_edge(a, b, r), Some(e1));
        assert_eq!(f.find_edge_any(a, b), Some(e1));
        assert_eq!(f.find_edge(b, a, r), None);
        assert!(f.has_edge_labeled(a, b, r));
    }

    #[test]
    fn labeled_entry_slices_binary_search() {
        let g = sample();
        let f = FrozenGraph::freeze(&g);
        let person = f.try_label("Person").unwrap();
        let lives = f.try_label("livesIn").unwrap();
        let knows = f.try_label("knows").unwrap();
        let a = f.nodes_with_label(person)[0];
        assert_eq!(f.out_entries_labeled(a, lives).len(), 1);
        assert_eq!(f.out_entries_labeled(a, knows).len(), 1);
        assert_eq!(f.out_degree(a), 2);
        let city = f.try_label("City").unwrap();
        let c1 = f.nodes_with_label(city)[0];
        assert_eq!(f.in_entries_labeled(c1, lives).len(), 2);
        assert_eq!(f.in_degree(c1), 2);
    }

    #[test]
    fn attr_column_and_index() {
        let g = sample();
        let f = FrozenGraph::freeze(&g);
        let name = f.try_attr_key("name").unwrap();
        let person = f.try_label("Person").unwrap();
        let ann = f.nodes_with_label(person)[0];
        assert_eq!(f.attr(ann, name), Some(&Value::from("Ann")));
        assert_eq!(f.attrs(ann).len(), 1);
        assert_eq!(f.nodes_with_attr(name, &Value::from("Ann")), &[ann]);
        assert!(f.nodes_with_attr(name, &Value::from("Bob")).is_empty());
        assert_eq!(f.attr(ann, AttrKeyId(999)), None);
    }

    #[test]
    fn signatures_copied_from_live_graph() {
        let g = sample();
        let f = FrozenGraph::freeze(&g);
        let person = f.try_label("Person").unwrap();
        let city = f.try_label("City").unwrap();
        let lives = f.try_label("livesIn").unwrap();
        let a = f.nodes_with_label(person)[0];
        let need = sig_bit(Direction::Out, lives, city);
        assert_eq!(f.signature(a) & need, need);
        assert_eq!(f.signature(a), g.signature(a));
    }

    #[test]
    fn empty_graph_freezes() {
        let g = Graph::new();
        let f = FrozenGraph::freeze(&g);
        assert_eq!(f.num_nodes(), 0);
        assert_eq!(f.num_edges(), 0);
        f.check_against(&g).unwrap();
        assert!(!f.contains_node(NodeId(0)));
        assert_eq!(f.find_edge_any(NodeId(0), NodeId(1)), None);
    }
}
