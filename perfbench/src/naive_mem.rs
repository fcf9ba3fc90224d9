//! `kg50k_naive_mem`: the `gen kg --persons 50000 --noise 0.05` graph
//! repaired in memory by the paper's naive baseline
//! (`EngineConfig::naive_with_indexes`, what `repair --naive` selects).
//! Each iteration repairs an untimed clone of the dirty graph; no I/O.

use crate::fixture::{self, NOISE_RATE};
use crate::layers::{engine_counts, Layers};
use crate::stats::graph_digest;
use crate::trace::{time, Tracer};
use crate::{
    budget, for_duration, matches_counter, median_ms_of_3, ms_since, need, report_failures, sys,
    Args, EndToEnd, Report,
};
use grepair_core::{EngineConfig, RepairEngine, RepairReport};
use grepair_graph::FrozenGraph;
use std::time::Instant;

const PERSONS: usize = 50_000;
const SETUP_REPS: usize = 11;

pub fn run(a: &Args, rep: &mut Report) -> Result<(), String> {
    let mut setup_s = Vec::new();
    let mut kg = None;
    for _ in 0..SETUP_REPS {
        drop(kg.take()); // one input resident at a time
        let t = Instant::now();
        let k = fixture::noisy_kg(a.persons(PERSONS), a.seed, NOISE_RATE);
        setup_s.push(t.elapsed().as_secs_f64());
        kg = Some(k);
    }
    let kg = kg.expect("at least one set-up");
    rep.count("input.nodes", kg.dirty.num_nodes() as f64);
    rep.count("input.edges", kg.dirty.num_edges() as f64);
    rep.count("input.json_bytes", 0.0);
    rep.count("ledger.edits", kg.truth.len() as f64);
    let rules = fixture::load_rules(fixture::gold_rules_text())?;
    let budget = budget(a);
    let engine = RepairEngine::new(EngineConfig::naive_with_indexes()).with_budget(&budget);

    // Reference: the incremental engine's output on the same input. The
    // engines agree, so every naive repair must reproduce it exactly.
    let mut reference = {
        let mut g = kg.dirty.clone();
        RepairEngine::default().repair(&mut g, &rules.rules);
        graph_digest(&g)
    };
    if a.fault("digest") {
        reference ^= 1;
    }

    // One repair on a fresh clone, timed; checked against the reference
    // output and, once known, the warm-up repair's counts.
    type Counts = (usize, usize, u64);
    let counts = |r: &RepairReport| -> Counts { (r.rounds, r.repairs_applied, r.pattern_compiles) };
    let repair_once = |tr: &Tracer, rep: &mut Report, what: &str, want: Option<Counts>| {
        let mut g = kg.dirty.clone();
        let matches_before = matches_counter();
        let t = Instant::now();
        let report = tr.iteration(|| {
            time("engine.repair", "core.engine", || {
                engine.repair(&mut g, &rules.rules)
            })
        });
        let ms = ms_since(t);
        let matches = matches_counter() - matches_before;
        let mut bad = report_failures(&report);
        need(&mut bad, graph_digest(&g) == reference, || {
            "repaired graph differs from the incremental engine's".into()
        });
        if let Some(want) = want {
            need(&mut bad, counts(&report) == want, || {
                format!(
                    "counts {:?} differ from the warm-up's {want:?}",
                    counts(&report)
                )
            });
        }
        rep.unit(what, &bad);
        (g, report, ms, matches)
    };

    // Peak memory from here on covers the input graphs and one repair,
    // not the set-up; later iterations only repeat the repair (reading it
    // after them would add allocator drift).
    sys::reset_peak_rss()?;
    let off = Tracer::off();
    let (_, first, _, matches) = repair_once(&off, rep, "warm-up repair", None);
    engine_counts(rep, &[&first], matches);
    let peak_rss_mb = sys::peak_rss_self_mb()?;
    let want = Some(counts(&first));

    if !a.trace {
        let mut iter_ms = Vec::new();
        let mut last = None;
        for_duration(a.seconds, 1, |i| {
            let (g, report, ms, _) = repair_once(&off, rep, &format!("iteration {i}"), want);
            iter_ms.push(ms);
            last = Some((g, report));
            Ok(())
        })?;
        let (g, report) = last.expect("at least one iteration");
        let repair_f1 =
            grepair_eval::evaluate_repair(&kg.clean, &kg.dirty, &g, &kg.truth, &report.ops).f1;
        EndToEnd {
            setup_s,
            iter_ms,
            peak_rss_mb,
            repair_f1,
        }
        .report(rep);
        return Ok(());
    }

    let tr = Tracer::on();
    let mut untraced_ms = Vec::new();
    for_duration(a.seconds, 2, |i| {
        let traced = i % 2 == 1;
        let tracer = if traced { &tr } else { &off };
        let (_, _, ms, _) = repair_once(tracer, rep, &format!("iteration {i}"), want);
        if !traced {
            untraced_ms.push(ms);
        }
        Ok(())
    })?;
    let mut layers = Layers {
        freeze_ms: median_ms_of_3(|| drop(std::hint::black_box(FrozenGraph::freeze(&kg.dirty)))),
        edits_per_iter: kg.truth.len() as f64,
        match_full_scan_ms: median_ms_of_3(|| {
            std::hint::black_box(RepairEngine::default().count_violations(&kg.dirty, &rules.rules));
        }),
        ..Layers::default()
    };
    layers.spans_from(&tr);
    layers.report(rep, &tr, &untraced_ms);
    tr.write_chrome(&a.work.join("trace.json"))
        .map_err(|e| e.to_string())
}
