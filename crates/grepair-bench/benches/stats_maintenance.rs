//! Always-warm planning bench: what write-path statistics maintenance
//! and a reused planner cost and buy.
//!
//! Two demonstrations:
//!
//! 1. **Mutation overhead of maintained statistics** — the same
//!    mixed mutation workload (node/edge inserts, attribute churn,
//!    relabels, removals) with [`Graph::maintain_stats`] off vs. on.
//!    Maintenance is a handful of counter-map updates per mutation; the
//!    bench asserts the overhead stays **below 2x** and that the
//!    maintained snapshot equals a full recompute afterwards.
//!
//! 2. **Repair-loop latency, cold vs. reused planner** — N repair runs
//!    over an attribute-cascade fixture (SetAttr-only repairs keep
//!    node/edge counts still, so statistics never drift): a fresh
//!    `Planner` per run (the pre-PR behaviour) vs. one caller-owned
//!    planner reused across runs. The bench asserts the reused planner's
//!    second run has **plan-cache hits > compiles** (compiles are in
//!    fact zero) and records the latency ratio.
//!
//! Set `GREPAIR_BENCH_SMOKE=1` for a small configuration (CI smoke);
//! smoke mode also writes `BENCH_stats_maintenance.json` at the repo
//! root.

use criterion::{criterion_group, BenchmarkId, Criterion};
use grepair_bench::cascade_rules_dsl;
use grepair_core::{parse_rules, Planner, RepairEngine, RepairOptions};
use grepair_graph::{CardinalityStats, Graph, Value};

fn smoke() -> bool {
    std::env::var_os("GREPAIR_BENCH_SMOKE").is_some()
}

fn workload_nodes() -> usize {
    if smoke() {
        2_000
    } else {
        20_000
    }
}

/// Mixed mutation workload: build a labelled graph with attributes,
/// churn some attributes, relabel a slice, delete a slice — every kind
/// of delta the maintained statistics must track.
fn run_mutations(g: &mut Graph, n: usize) {
    let labels: Vec<_> = (0..8).map(|i| g.label(&format!("L{i}"))).collect();
    let rel: Vec<_> = (0..4).map(|i| g.label(&format!("r{i}"))).collect();
    let keys: Vec<_> = (0..3).map(|i| g.attr_key(&format!("k{i}"))).collect();
    let mut nodes = Vec::with_capacity(n);
    for i in 0..n {
        let node = g.add_node(labels[i % labels.len()]);
        g.set_attr(node, keys[i % keys.len()], Value::Int((i % 97) as i64))
            .unwrap();
        nodes.push(node);
    }
    for i in 0..n {
        g.add_edge(nodes[i], nodes[(i * 7 + 1) % n], rel[i % rel.len()])
            .unwrap();
    }
    for i in (0..n).step_by(5) {
        g.set_attr(nodes[i], keys[0], Value::Int((i % 13) as i64))
            .unwrap();
    }
    for i in (0..n).step_by(9) {
        g.set_node_label(nodes[i], labels[(i + 3) % labels.len()])
            .unwrap();
    }
    for i in (0..n).step_by(17) {
        g.remove_node(nodes[i]).unwrap();
    }
}

fn bench_mutations(c: &mut Criterion) {
    let n = workload_nodes();
    let mut group = c.benchmark_group("stats_maintenance");
    group.sample_size(if smoke() { 2 } else { 10 });
    group.bench_with_input(BenchmarkId::new("mutations", "no-stats"), &n, |b, &n| {
        b.iter(|| {
            let mut g = Graph::new();
            run_mutations(&mut g, n);
            g.num_edges()
        })
    });
    group.bench_with_input(BenchmarkId::new("mutations", "maintained"), &n, |b, &n| {
        b.iter(|| {
            let mut g = Graph::new();
            g.maintain_stats(true);
            run_mutations(&mut g, n);
            g.num_edges()
        })
    });
    group.finish();
}

fn overhead_summary() {
    let n = workload_nodes();
    let samples = if smoke() { 3 } else { 7 };
    let plain = criterion::median_time(samples, || {
        let mut g = Graph::new();
        run_mutations(&mut g, n);
        g.num_edges()
    });
    let maintained = criterion::median_time(samples, || {
        let mut g = Graph::new();
        g.maintain_stats(true);
        run_mutations(&mut g, n);
        g.num_edges()
    });
    // Differential sanity before reporting any number.
    let mut g = Graph::new();
    g.maintain_stats(true);
    run_mutations(&mut g, n);
    assert_eq!(
        g.maintained_stats().unwrap(),
        &CardinalityStats::compute(&g),
        "maintained statistics must equal a full recompute"
    );
    let overhead = maintained.as_secs_f64() / plain.as_secs_f64().max(1e-12);
    println!(
        "\nstats maintenance ({n} nodes): plain {plain:?} / maintained {maintained:?} = {overhead:.2}x overhead"
    );
    criterion::record_metric("maintained_mutation_overhead", overhead);
    assert!(
        overhead < 2.0,
        "maintained-stats mutation overhead must stay below 2x, got {overhead:.2}x"
    );
}

/// Repair-loop latency: R runs with a cold planner per run vs. one
/// reused planner. The cascade fixture's repairs are SetAttr-only, so
/// node/edge counts never drift and warmed plans stay valid run to run.
fn planner_reuse_summary() {
    let stages = 4;
    let nodes = if smoke() { 100 } else { 1_000 };
    let runs = 5;
    let rules = parse_rules(&cascade_rules_dsl(stages)).unwrap();
    let engine = RepairEngine::default();
    let mk = |maintained: bool| {
        let mut g = Graph::new();
        if maintained {
            g.maintain_stats(true);
        }
        let a0 = g.attr_key("a0");
        for _ in 0..nodes {
            let n = g.add_node_named("T");
            g.set_attr(n, a0, Value::Bool(true)).unwrap();
        }
        g
    };

    // Cold = the pre-maintenance world: unmaintained graph, fresh
    // planner every run, so each run pays a full O(V+E) statistics
    // compute plus every pattern compile (run 1 repairs, later runs
    // verify an already-clean graph — the steady state of a watch loop).
    let mut g = mk(false);
    let cold = criterion::median_time(1, || {
        for _ in 0..runs {
            let planner = Planner::new();
            let report = engine.repair_with(
                &mut g,
                &rules,
                RepairOptions {
                    planner: Some(&planner),
                    ..RepairOptions::default()
                },
            );
            assert!(report.converged);
        }
    });

    // Warm = always-warm planning: maintained graph + one caller-owned
    // planner across all runs.
    let mut g = mk(true);
    let planner = Planner::new();
    let mut second_run_hits = 0u64;
    let mut second_run_compiles = 0u64;
    let mut run_idx = 0usize;
    let warm = criterion::median_time(1, || {
        for _ in 0..runs {
            let report = engine.repair_with(
                &mut g,
                &rules,
                RepairOptions {
                    planner: Some(&planner),
                    ..RepairOptions::default()
                },
            );
            assert!(report.converged);
            if run_idx == 1 {
                second_run_hits = report.plan_cache_hits;
                second_run_compiles = report.pattern_compiles;
            }
            run_idx += 1;
        }
    });

    let speedup = cold.as_secs_f64() / warm.as_secs_f64().max(1e-12);
    println!(
        "repair loop ({nodes} nodes x {runs} runs): cold-planner {cold:?} / reused-planner {warm:?} = {speedup:.2}x"
    );
    println!(
        "reused planner, run 2: {second_run_compiles} plans compiled, {second_run_hits} cache hits"
    );
    criterion::record_metric("reused_planner_speedup", speedup);
    criterion::record_metric("second_run_plan_cache_hits", second_run_hits as f64);
    criterion::record_metric("second_run_pattern_compiles", second_run_compiles as f64);
    assert!(
        second_run_hits > second_run_compiles,
        "the reused planner's second run must be served from cache \
         (compiles {second_run_compiles}, hits {second_run_hits})"
    );
    assert!(second_run_hits > 0);
}

criterion_group!(benches, bench_mutations);

fn main() {
    benches();
    overhead_summary();
    planner_reuse_summary();
    criterion::write_results_json(env!("CARGO_CRATE_NAME"));
}
