//! Delta-seeded store repairs are a pure speed-up.
//!
//! After a repair that ended verified violation-free, the next
//! [`DurableGraph::repair`] under the same rules seeds the incremental
//! engine's queue from the nodes the store's mutators touched since,
//! instead of from a full scan. This suite drives random edit batches
//! through all ten mutators and, before every store repair, runs the
//! plain full-scan engine ([`RepairEngine::repair`]) on a clone of the
//! store's graph. Both must apply the same ops in the same order, find
//! the same matches per rule, and leave slot-identical graphs. Each
//! store repair must also take the seed path its predecessor earned: a
//! delta seed (no per-rule full scans) exactly when the previous repair
//! ended completed, converged and clean.

use grepair_core::{EngineConfig, RepairEngine, RepairOutcome, RepairReport, RuleSet};
use grepair_gen::{
    generate_kg, generate_social, gold_kg_rules, social_rules, KgConfig, SocialConfig,
};
use grepair_graph::{EdgeId, Graph, NodeId, Value};
use grepair_obs::Budget;
use grepair_store::{DurableGraph, StoreConfig};
use proptest::prelude::*;
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};

/// The vocabulary of both rule catalogs, so random edits create and
/// destroy violations of either.
const NODE_LABELS: [&str; 6] = ["Person", "Person", "City", "Country", "Account", "Company"];
const EDGE_LABELS: [&str; 7] = [
    "livesIn",
    "inCountry",
    "citizenOf",
    "marriedTo",
    "knows",
    "follows",
    "worksAt",
];
const ATTR_KEYS: [&str; 7] = [
    "ssn",
    "country",
    "name",
    "handle",
    "displayName",
    "flagged",
    "homeless",
];

/// Rules whose violations only deletions, relabels and merged
/// attributes create: a person loses its last `livesIn` edge (edge
/// removal, removal of its city, relabel to `Person`), or a housed
/// person carries a `homeless` flag (merged onto it from a duplicate).
/// The gold catalogs have no violation a node delete can create.
const PROBE_DSL: &str = "
rule flag_homeless [incompleteness]
match (x:Person)
where not (x)-[livesIn]->(*), missing(x.homeless)
repair set x.homeless = true

rule unflag_housed [conflict]
match (x:Person)-[livesIn]->(c:City)
where has(x.homeless)
repair unset x.homeless
";

/// A small value domain, so equal-key and comparison rules fire.
fn value(v: u8) -> Value {
    match v % 6 {
        0..=2 => Value::Int((v % 3) as i64),
        3 => Value::from("a"),
        4 => Value::Bool(true),
        _ => Value::from("b"),
    }
}

/// One store mutator call; selectors are taken modulo the live
/// population when the edit is applied.
#[derive(Clone, Debug)]
enum Edit {
    AddNode(u8),
    AddNodeWithAttrs(u8, u8, u8),
    RemoveNode(u8),
    AddEdge(u8, u8, u8),
    RemoveEdge(u8),
    SetNodeLabel(u8, u8),
    SetEdgeLabel(u8, u8),
    SetAttr(u8, u8, u8),
    RemoveAttr(u8, u8),
    Merge(u8, u8, bool),
}

fn edit_strategy() -> impl Strategy<Value = Edit> {
    let add_edge =
        || (any::<u8>(), any::<u8>(), any::<u8>()).prop_map(|(a, b, l)| Edit::AddEdge(a, b, l));
    let set_attr =
        || (any::<u8>(), any::<u8>(), any::<u8>()).prop_map(|(n, k, v)| Edit::SetAttr(n, k, v));
    prop_oneof![
        any::<u8>().prop_map(Edit::AddNode),
        (any::<u8>(), any::<u8>(), any::<u8>())
            .prop_map(|(l, k, v)| Edit::AddNodeWithAttrs(l, k, v)),
        any::<u8>().prop_map(Edit::RemoveNode),
        add_edge(),
        add_edge(),
        add_edge(),
        any::<u8>().prop_map(Edit::RemoveEdge),
        (any::<u8>(), any::<u8>()).prop_map(|(n, l)| Edit::SetNodeLabel(n, l)),
        (any::<u8>(), any::<u8>()).prop_map(|(e, l)| Edit::SetEdgeLabel(e, l)),
        set_attr(),
        set_attr(),
        (any::<u8>(), any::<u8>()).prop_map(|(n, k)| Edit::RemoveAttr(n, k)),
        (any::<u8>(), any::<u8>(), any::<bool>()).prop_map(|(a, b, d)| Edit::Merge(a, b, d)),
    ]
}

fn batches_strategy() -> impl Strategy<Value = Vec<Vec<Edit>>> {
    proptest::collection::vec(proptest::collection::vec(edit_strategy(), 1..12), 1..8)
}

fn pick_node(g: &Graph, sel: u8) -> Option<NodeId> {
    let nodes: Vec<NodeId> = g.nodes().collect();
    (!nodes.is_empty()).then(|| nodes[sel as usize % nodes.len()])
}

fn pick_edge(g: &Graph, sel: u8) -> Option<EdgeId> {
    let edges: Vec<EdgeId> = g.edges().collect();
    (!edges.is_empty()).then(|| edges[sel as usize % edges.len()])
}

fn pick<'a>(names: &[&'a str], sel: u8) -> &'a str {
    names[sel as usize % names.len()]
}

/// Apply one edit through the store (edits aimed at an empty population
/// or at a self-merge are skipped).
fn apply(s: &mut DurableGraph, edit: &Edit) {
    match *edit {
        Edit::AddNode(l) => {
            s.add_node(pick(&NODE_LABELS, l)).unwrap();
        }
        Edit::AddNodeWithAttrs(l, k, v) => {
            let attrs = [(pick(&ATTR_KEYS, k).to_owned(), value(v))];
            s.add_node_with_attrs(pick(&NODE_LABELS, l), &attrs)
                .unwrap();
        }
        Edit::RemoveNode(n) => {
            if let Some(n) = pick_node(s.graph(), n) {
                s.remove_node(n).unwrap();
            }
        }
        Edit::AddEdge(a, b, l) => {
            if let (Some(x), Some(y)) = (pick_node(s.graph(), a), pick_node(s.graph(), b)) {
                s.add_edge(x, y, pick(&EDGE_LABELS, l)).unwrap();
            }
        }
        Edit::RemoveEdge(e) => {
            if let Some(e) = pick_edge(s.graph(), e) {
                s.remove_edge(e).unwrap();
            }
        }
        Edit::SetNodeLabel(n, l) => {
            if let Some(n) = pick_node(s.graph(), n) {
                s.set_node_label(n, pick(&NODE_LABELS, l)).unwrap();
            }
        }
        Edit::SetEdgeLabel(e, l) => {
            if let Some(e) = pick_edge(s.graph(), e) {
                s.set_edge_label(e, pick(&EDGE_LABELS, l)).unwrap();
            }
        }
        Edit::SetAttr(n, k, v) => {
            if let Some(n) = pick_node(s.graph(), n) {
                s.set_attr(n, pick(&ATTR_KEYS, k), value(v)).unwrap();
            }
        }
        Edit::RemoveAttr(n, k) => {
            if let Some(n) = pick_node(s.graph(), n) {
                s.remove_attr(n, pick(&ATTR_KEYS, k)).unwrap();
            }
        }
        Edit::Merge(a, b, dedup) => {
            if let (Some(x), Some(y)) = (pick_node(s.graph(), a), pick_node(s.graph(), b)) {
                if x != y {
                    s.merge_nodes(x, y, dedup).unwrap();
                }
            }
        }
    }
}

fn tmpdir() -> PathBuf {
    static NEXT: AtomicUsize = AtomicUsize::new(0);
    let dir = std::env::temp_dir().join(format!(
        "grepair-prop-delta-{}-{}",
        std::process::id(),
        NEXT.fetch_add(1, Ordering::Relaxed)
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn ends_clean(r: &RepairReport) -> bool {
    r.outcome == RepairOutcome::Completed && r.converged && r.violations_remaining == 0
}

fn delta_seeded(r: &RepairReport) -> bool {
    r.per_rule.iter().all(|s| s.scans == 0)
}

/// First repair (a full scan), then each batch of edits followed by a
/// store repair checked against a full-scan repair of a clone.
fn check_stream(graph: Graph, rules: &RuleSet, batches: &[Vec<Edit>]) -> Result<(), TestCaseError> {
    let dir = tmpdir();
    let config = StoreConfig {
        sync_on_commit: false,
        ..StoreConfig::default()
    };
    let engine = RepairEngine::default();
    let mut store = DurableGraph::create_with(&dir, config, graph).unwrap();
    let first = store.repair(&engine, &rules.rules).unwrap();
    prop_assert!(
        first.per_rule.iter().all(|s| s.scans == 1),
        "first repair must scan fully"
    );
    prop_assert!(
        ends_clean(&first),
        "the fixture must repair clean: {:?}",
        first.outcome
    );
    let mut prev_clean = true;
    for (i, batch) in batches.iter().enumerate() {
        for edit in batch {
            apply(&mut store, edit);
        }
        let mut reference = store.graph().clone();
        let expected = engine.repair(&mut reference, &rules.rules);
        let got = store.repair(&engine, &rules.rules).unwrap();
        prop_assert_eq!(
            delta_seeded(&got),
            prev_clean,
            "batch {}: wrong seed path",
            i
        );
        prop_assert_eq!(&got.ops, &expected.ops, "batch {}: applied ops differ", i);
        prop_assert_eq!(got.repairs_applied, expected.repairs_applied);
        let found = |r: &RepairReport| {
            r.per_rule
                .iter()
                .map(|s| s.matches_found)
                .collect::<Vec<_>>()
        };
        prop_assert_eq!(
            found(&got),
            found(&expected),
            "batch {}: matches per rule differ",
            i
        );
        prop_assert_eq!(got.rounds, expected.rounds);
        prop_assert_eq!(got.outcome, expected.outcome);
        prop_assert_eq!(got.converged, expected.converged);
        prop_assert_eq!(got.violations_remaining, expected.violations_remaining);
        prop_assert_eq!(store.graph().dump_slots(), reference.dump_slots());
        prev_clean = ends_clean(&got);
    }
    drop(store);
    std::fs::remove_dir_all(&dir).ok();
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Gold KG rules on a small clean `gen kg` graph.
    #[test]
    fn delta_seeded_repairs_equal_full_scans_gold_kg(
        seed in 0u64..1_000_000,
        batches in batches_strategy(),
    ) {
        let (clean, _) = generate_kg(&KgConfig { persons: 12, seed, ..KgConfig::default() });
        check_stream(clean, &gold_kg_rules(), &batches)?;
    }

    /// The gold KG rules plus deletion-sensitive probes.
    #[test]
    fn delta_seeded_repairs_equal_full_scans_with_probes(
        seed in 0u64..1_000_000,
        batches in batches_strategy(),
    ) {
        let (clean, _) = generate_kg(&KgConfig { persons: 12, seed, ..KgConfig::default() });
        let mut rules = gold_kg_rules();
        rules.rules.extend(RuleSet::from_dsl("probes", PROBE_DSL).unwrap().rules);
        check_stream(clean, &rules, &batches)?;
    }

    /// The social catalog (merges, node deletes, attribute backfill) on a
    /// born-dirty social graph that the first repair cleans.
    #[test]
    fn delta_seeded_repairs_equal_full_scans_social(
        seed in 0u64..1_000_000,
        batches in batches_strategy(),
    ) {
        let (g, _) = generate_social(&SocialConfig { accounts: 12, seed, ..SocialConfig::default() });
        check_stream(g, &social_rules(), &batches)?;
    }
}

// ---- which seed path runs ----------------------------------------------

/// A store over a clean 12-person KG.
fn kg_store(dir: &std::path::Path) -> DurableGraph {
    let (clean, _) = generate_kg(&KgConfig {
        persons: 12,
        ..KgConfig::default()
    });
    let config = StoreConfig {
        sync_on_commit: false,
        ..StoreConfig::default()
    };
    DurableGraph::create_with(dir, config, clean).unwrap()
}

/// Remove `n` `citizenOf` edges: each leaves one `add_citizenship`
/// violation for the gold rules.
fn drop_citizenships(s: &mut DurableGraph, n: usize) {
    let g = s.graph();
    let edges: Vec<EdgeId> = g
        .edges()
        .filter(|&e| g.label_name(g.edge(e).unwrap().label) == "citizenOf")
        .take(n)
        .collect();
    assert_eq!(edges.len(), n, "fixture has too few citizenships");
    for e in edges {
        s.remove_edge(e).unwrap();
    }
}

fn full_scan(r: &RepairReport) -> bool {
    !r.per_rule.is_empty() && r.per_rule.iter().all(|s| s.scans >= 1)
}

#[test]
fn first_repair_after_create_or_reopen_scans_fully() {
    let dir = tmpdir();
    let engine = RepairEngine::default();
    let rules = gold_kg_rules();
    let mut s = kg_store(&dir);
    let r = s.repair(&engine, &rules.rules).unwrap();
    assert!(full_scan(&r) && ends_clean(&r), "after create_with: {r:?}");
    drop_citizenships(&mut s, 2);
    let r = s.repair(&engine, &rules.rules).unwrap();
    assert!(
        delta_seeded(&r),
        "clean store with edits must seed from the delta"
    );
    assert_eq!(r.repairs_applied, 2);
    assert!(ends_clean(&r));
    s.commit().unwrap();
    drop(s);

    let config = StoreConfig {
        sync_on_commit: false,
        ..StoreConfig::default()
    };
    let mut s = DurableGraph::open(&dir, config).unwrap();
    drop_citizenships(&mut s, 1);
    let r = s.repair(&engine, &rules.rules).unwrap();
    assert!(
        full_scan(&r),
        "the clean marker is not persisted: a reopen scans fully"
    );
    assert_eq!(r.repairs_applied, 1);
    let r = s.repair(&engine, &rules.rules).unwrap();
    assert!(delta_seeded(&r));
    drop(s);
    std::fs::remove_dir_all(&dir).ok();

    // An empty store: still not-clean until its first repair.
    let dir = tmpdir();
    let mut s = DurableGraph::create(&dir, StoreConfig::default()).unwrap();
    let x = s.add_node("Person").unwrap();
    s.add_edge(x, x, "knows").unwrap();
    let r = s.repair(&engine, &rules.rules).unwrap();
    assert!(full_scan(&r) && ends_clean(&r));
    assert_eq!(r.repairs_applied, 1);
    drop(s);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn a_different_rule_set_scans_fully() {
    let dir = tmpdir();
    let engine = RepairEngine::default();
    let (gold, social) = (gold_kg_rules(), social_rules());
    let mut s = kg_store(&dir);
    assert!(ends_clean(&s.repair(&engine, &gold.rules).unwrap()));
    let r = s.repair(&engine, &social.rules).unwrap();
    assert!(full_scan(&r), "clean under gold says nothing about social");
    assert!(delta_seeded(&s.repair(&engine, &social.rules).unwrap()));
    drop_citizenships(&mut s, 1);
    let r = s.repair(&engine, &gold.rules).unwrap();
    assert!(full_scan(&r), "clean under social says nothing about gold");
    assert_eq!(r.repairs_applied, 1);
    drop(s);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn budget_trips_clear_the_clean_state() {
    let engine = RepairEngine::default();
    let rules = gold_kg_rules();
    let tripping = [
        (Budget::unlimited().with_op_cap(1), RepairOutcome::OpBudget),
        (
            {
                let b = Budget::unlimited();
                b.cancel();
                b
            },
            RepairOutcome::Cancelled,
        ),
    ];
    for (budget, outcome) in tripping {
        let dir = tmpdir();
        let mut s = kg_store(&dir);
        assert!(ends_clean(&s.repair(&engine, &rules.rules).unwrap()));
        drop_citizenships(&mut s, 3);
        let limited = RepairEngine::default().with_budget(&budget);
        let tripped = s.repair(&limited, &rules.rules).unwrap();
        assert_eq!(tripped.outcome, outcome);
        assert!(tripped.repairs_applied < 3);
        let r = s.repair(&engine, &rules.rules).unwrap();
        assert!(
            full_scan(&r),
            "after a {outcome} trip the next repair must scan fully"
        );
        assert!(ends_clean(&r));
        assert_eq!(tripped.repairs_applied + r.repairs_applied, 3);
        drop(s);
        std::fs::remove_dir_all(&dir).ok();
    }
}

#[test]
fn a_residual_clears_the_clean_state() {
    let dir = tmpdir();
    let engine = RepairEngine::default();
    // `stuck` never goes away: its repair is a noop.
    let mut rules = gold_kg_rules();
    rules.rules.extend(
        RuleSet::from_dsl(
            "stuck",
            "rule stuck [conflict] match (x:Person) where x.stuck == 1 repair set x.stuck = 1",
        )
        .unwrap()
        .rules,
    );
    let mut s = kg_store(&dir);
    assert!(ends_clean(&s.repair(&engine, &rules.rules).unwrap()));
    let person = s
        .graph()
        .nodes()
        .find(|&n| s.graph().label_name(s.graph().node_label(n).unwrap()) == "Person");
    let person = person.unwrap();
    s.set_attr(person, "stuck", Value::Int(1)).unwrap();
    let r = s.repair(&engine, &rules.rules).unwrap();
    assert!(delta_seeded(&r), "the edit came after a clean repair");
    assert_eq!(r.outcome, RepairOutcome::Completed);
    assert!(!r.converged);
    assert_eq!(r.violations_remaining, 1);
    let r = s.repair(&engine, &rules.rules).unwrap();
    assert!(
        full_scan(&r),
        "after a residual the next repair must scan fully"
    );
    assert_eq!(r.violations_remaining, 1);
    s.remove_attr(person, "stuck").unwrap();
    let r = s.repair(&engine, &rules.rules).unwrap();
    assert!(full_scan(&r) && ends_clean(&r));
    assert!(delta_seeded(&s.repair(&engine, &rules.rules).unwrap()));
    drop(s);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn naive_and_stratified_engines_never_seed_from_the_delta() {
    let dir = tmpdir();
    let naive = RepairEngine::new(EngineConfig::naive_with_indexes());
    let gold = gold_kg_rules();
    // One acyclic rule: the default engine runs it stratified.
    let acyclic = RuleSet::from_dsl(
        "acyclic",
        "rule add_citizenship [incompleteness]
         match (x:Person)-[livesIn]->(c:City)-[inCountry]->(k:Country)
         where not (x)-[citizenOf]->(k)
         repair insert edge (x)-[citizenOf]->(k)",
    )
    .unwrap();
    let mut s = kg_store(&dir);
    for _ in 0..2 {
        drop_citizenships(&mut s, 1);
        let r = s.repair(&naive, &gold.rules).unwrap();
        assert!(full_scan(&r) && ends_clean(&r), "naive: {:?}", r.per_rule);
        assert_eq!(r.repairs_applied, 1);
    }
    for _ in 0..2 {
        drop_citizenships(&mut s, 1);
        let r = s.repair(&RepairEngine::default(), &acyclic.rules).unwrap();
        assert!(r.strata > 0, "the one-rule set must stratify");
        assert!(full_scan(&r) && ends_clean(&r));
        assert_eq!(r.repairs_applied, 1);
    }
    drop(s);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn no_edits_since_a_clean_repair_is_an_empty_delta() {
    let dir = tmpdir();
    let engine = RepairEngine::default();
    let rules = gold_kg_rules();
    let mut s = kg_store(&dir);
    assert!(ends_clean(&s.repair(&engine, &rules.rules).unwrap()));
    let r = s.repair(&engine, &rules.rules).unwrap();
    assert!(delta_seeded(&r));
    assert_eq!(r.repairs_applied, 0);
    assert_eq!(r.per_rule.iter().map(|s| s.matches_found).sum::<usize>(), 0);
    // `converged` is set only by the closing verification count.
    assert!(r.converged, "the fixpoint verification must still run");
    assert_eq!(r.violations_remaining, 0);
    assert_eq!(r.outcome, RepairOutcome::Completed);
    drop(s);
    std::fs::remove_dir_all(&dir).ok();
}

/// A merge changes the kept node even when it shares no edge with the
/// merged one: here it inherits a `homeless` flag while housed.
#[test]
fn a_merge_touches_the_kept_node() {
    let dir = tmpdir();
    let engine = RepairEngine::default();
    let mut rules = gold_kg_rules();
    rules
        .rules
        .extend(RuleSet::from_dsl("probes", PROBE_DSL).unwrap().rules);
    let mut s = kg_store(&dir);
    assert!(ends_clean(&s.repair(&engine, &rules.rules).unwrap()));
    let g = s.graph();
    let housed = g
        .edges()
        .map(|e| g.edge(e).unwrap())
        .find(|er| g.label_name(er.label) == "livesIn")
        .unwrap()
        .src;
    let flagged = s
        .add_node_with_attrs("Company", &[("homeless".to_owned(), Value::Bool(true))])
        .unwrap();
    assert!(delta_seeded(&s.repair(&engine, &rules.rules).unwrap()));
    s.merge_nodes(housed, flagged, true).unwrap();
    let r = s.repair(&engine, &rules.rules).unwrap();
    assert!(delta_seeded(&r));
    assert_eq!(
        r.repairs_applied, 1,
        "unflag_housed must fire on the kept node"
    );
    assert!(ends_clean(&r));
    drop(s);
    std::fs::remove_dir_all(&dir).ok();
}
