//! `kg20k_store_stream`: writes beside reads on a durable store.
//!
//! A `DurableGraph` is created from a clean 20k-person KG. The stream is a
//! closed loop of batches; each applies a fixed number of seeded noise
//! edits through the store's mutators, commits them, repairs
//! (incremental engine, the store's long-lived planner, round-buffered
//! WAL, fsync) and runs `maybe_compact`. The compaction threshold is low
//! enough that a stream spans several compaction cycles. After the
//! stream the store is closed and reopened (recovery) on fresh copies of
//! its directory.
//!
//! A fixed prefix of the same stream is replayed afterwards on a fresh
//! store as an audit: there each batch is scored against its edit ledger
//! with `evaluate_repair`, and its counts repeat exactly for the seed.

use crate::edits::{self, EditGen};
use crate::fixture;
use crate::layers::{engine_counts, Layers};
use crate::stats::{graph_digest, median, percentile};
use crate::trace::{time, Tracer};
use crate::{
    budget, for_duration, matches_counter, median_ms_of_3, ms_since, need, report_failures, sys,
    Args, EndToEnd, Report,
};
use grepair_core::{EngineConfig, RepairEngine, RepairReport, RuleSet};
use grepair_gen::GroundTruth;
use grepair_store::{DurableGraph, StoreConfig};
use std::path::{Path, PathBuf};
use std::time::Instant;

const PERSONS: usize = 20_000;
const SETUP_REPS: usize = 11;
/// Noise edits per batch.
pub const EDITS_PER_BATCH: usize = 30;
/// Audit batches after the first (which warms the planner).
const AUDIT_BATCHES: usize = 4;
const REOPEN_REPS: usize = 5;
/// Untimed batches after a final compaction, so that every reopen loads
/// a snapshot and replays about the same amount of log (fewer than a
/// compaction's worth).
const TAIL_BATCHES: usize = 5;
/// Post-snapshot log bytes that trigger a compaction.
pub const COMPACT_LOG_BYTES: u64 = 48 * 1024;

fn config() -> StoreConfig {
    StoreConfig {
        compact_log_bytes: COMPACT_LOG_BYTES,
        log_growth_warn_bytes: COMPACT_LOG_BYTES,
        ..StoreConfig::default()
    }
}

fn fresh_dir(dir: &Path) -> Result<(), String> {
    if dir.exists() {
        std::fs::remove_dir_all(dir).map_err(|e| format!("cannot clear {}: {e}", dir.display()))?;
    }
    Ok(())
}

/// A store made from the clean KG of the seed: the workload's set-up.
fn create(a: &Args, dir: &Path) -> Result<DurableGraph, String> {
    fresh_dir(dir)?;
    let (clean, _) = fixture::clean_kg(a.persons(PERSONS), a.seed);
    DurableGraph::create_with(dir, config(), clean).map_err(|e| format!("store create: {e}"))
}

/// What one batch did.
struct Batch {
    ms: f64,
    edits: u64,
    report: Option<RepairReport>,
    compact_ms: Option<f64>,
}

/// Plan and run one batch: mutators, commit, repair, `maybe_compact`.
/// The batch is timed from its first edit to the end of `maybe_compact`.
fn run_batch(
    store: &mut DurableGraph,
    gen: &mut EditGen,
    engine: &RepairEngine,
    rules: &RuleSet,
    tr: &Tracer,
    rep: &mut Report,
    what: &str,
) -> Batch {
    let plan = gen.plan(store.graph(), EDITS_PER_BATCH);
    let mut truth = GroundTruth::default();
    let (mut calls, mut failed) = (0, 0);
    let mut bad = Vec::new();
    let mut compact_ms = None;
    let t = Instant::now();
    let report = tr.iteration(|| {
        for edit in &plan {
            edits::apply(store, edit, &mut truth, &mut calls, &mut failed);
        }
        let committed = time("store.commit", "store", || store.commit());
        need(&mut bad, committed.is_ok(), || {
            format!("commit: {committed:?}")
        });
        let report = time("store.repair", "store", || {
            store.repair(engine, &rules.rules)
        });
        let c = Instant::now();
        let compacted = time("store.compact", "store", || store.maybe_compact());
        match compacted {
            Ok(Some(_)) => compact_ms = Some(ms_since(c)),
            Ok(None) => {}
            Err(e) => bad.push(format!("compaction: {e}")),
        }
        report
    });
    let ms = ms_since(t);
    rep.tally(calls, failed);
    let report = match report {
        Ok(r) => {
            bad.extend(report_failures(&r));
            Some(r)
        }
        Err(e) => {
            bad.push(format!("repair: {e}"));
            None
        }
    };
    need(&mut bad, plan.len() == EDITS_PER_BATCH, || {
        format!("planned only {} edits", plan.len())
    });
    rep.unit(what, &bad);
    Batch {
        ms,
        edits: plan.len() as u64,
        report,
        compact_ms,
    }
}

pub fn run(a: &Args, rep: &mut Report) -> Result<(), String> {
    let mut setup_s = Vec::new();
    let mut store: Option<(DurableGraph, PathBuf)> = None;
    for k in 0..SETUP_REPS {
        // One store resident (and on disk) at a time.
        if let Some((old, old_dir)) = store.take() {
            drop(old);
            fresh_dir(&old_dir)?;
        }
        let dir = a.work.join(format!("store{k}"));
        let t = Instant::now();
        let s = create(a, &dir)?;
        setup_s.push(t.elapsed().as_secs_f64());
        store = Some((s, dir));
    }
    let (mut store, dir) = store.expect("at least one set-up");
    rep.count("input.nodes", store.graph().num_nodes() as f64);
    rep.count("input.edges", store.graph().num_edges() as f64);
    rep.count("input.json_bytes", 0.0);

    let rules = fixture::load_rules(fixture::gold_rules_text())?;
    let budget = budget(a);
    let engine = RepairEngine::new(EngineConfig::default()).with_budget(&budget);
    let mut layers = Layers::default();
    if a.trace {
        layers.match_full_scan_ms = median_ms_of_3(|| {
            std::hint::black_box(
                RepairEngine::default().count_violations(store.graph(), &rules.rules),
            );
        });
    }

    // The stream. Traced runs trace half the batches, picked by a fixed
    // hash of the batch index rather than by parity, so that periodic
    // compactions fall on traced and untraced batches alike.
    let tr = if a.trace { Tracer::on() } else { Tracer::off() };
    let off = Tracer::off();
    let mut gen = EditGen::new(a.seed);
    let (mut batch_ms, mut untraced_ms, mut compact_ms) = (Vec::new(), Vec::new(), Vec::new());
    let mut stream_applied = Vec::new();
    let (mut wal_bytes, mut wal_edits) = (0u64, 0u64);
    let mut log_before = 0u64;
    // Peak memory covers the stream's first compaction cycle (the batches
    // up to and including the first compaction), not the set-up: a fixed
    // prefix, so it does not depend on the stream's length, and free of
    // the heap fragmentation later cycles add.
    let mut peak_rss_mb = 0.0;
    let mut peak_open = true;
    sys::reset_peak_rss()?;
    for_duration(a.seconds, AUDIT_BATCHES + 1, |i| {
        let traced = a.trace && (i as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15) >> 63 == 1;
        let b = run_batch(
            &mut store,
            &mut gen,
            &engine,
            &rules,
            if traced { &tr } else { &off },
            rep,
            &format!("batch {i}"),
        );
        let log_after = store
            .status()
            .map_err(|e| e.to_string())?
            .log_bytes_since_snapshot;
        match b.compact_ms {
            Some(ms) => compact_ms.push(ms),
            None => {
                wal_bytes += log_after - log_before;
                wal_edits += b.edits;
            }
        }
        log_before = log_after;
        if !traced {
            untraced_ms.push(b.ms);
        }
        batch_ms.push(b.ms);
        stream_applied.push(b.report.map_or(0, |r| r.repairs_applied));
        if peak_open {
            peak_rss_mb = sys::peak_rss_self_mb()?;
            peak_open = b.compact_ms.is_none();
        }
        Ok(())
    })?;

    // End on a fixed amount of log past a snapshot.
    let compacted = store.compact();
    let mut bad = Vec::new();
    need(&mut bad, compacted.is_ok(), || {
        format!("compaction: {compacted:?}")
    });
    rep.unit("final compaction", &bad);
    for j in 0..TAIL_BATCHES {
        run_batch(
            &mut store,
            &mut gen,
            &engine,
            &rules,
            &off,
            rep,
            &format!("tail batch {j}"),
        );
    }

    // Close, then reopen fresh copies of the closed directory.
    let mut want = graph_digest(store.graph());
    if a.fault("digest") {
        want ^= 1;
    }
    let last_seq = store.last_seq();
    let status = store.status().map_err(|e| e.to_string())?;
    drop(store);
    let mut reopen_ms = Vec::new();
    let mut recovery = None;
    for k in 0..REOPEN_REPS {
        let copy = a.work.join(format!("reopen{k}"));
        copy_dir(&dir, &copy)?;
        let t = Instant::now();
        let opened = DurableGraph::open(&copy, config());
        reopen_ms.push(ms_since(t));
        let mut bad = Vec::new();
        match opened {
            Ok(s) => {
                need(&mut bad, graph_digest(s.graph()) == want, || {
                    "recovered graph differs from the in-memory graph".into()
                });
                need(&mut bad, s.last_seq() == last_seq, || {
                    format!("recovered last_seq {} != {last_seq}", s.last_seq())
                });
                recovery = Some(s.last_recovery().clone());
            }
            Err(e) => bad.push(format!("open: {e}")),
        }
        rep.unit(&format!("reopen {k}"), &bad);
        fresh_dir(&copy)?;
    }
    fresh_dir(&dir)?;

    let repair_f1 = audit(a, rep, &engine, &rules, &stream_applied)?;
    if !a.trace {
        EndToEnd {
            setup_s,
            iter_ms: batch_ms,
            peak_rss_mb,
            repair_f1,
        }
        .report(rep);
        return Ok(());
    }

    layers.spans_from(&tr);
    let durations = |name| tr.durations(name, "store");
    layers.engine_repair_ms = median(&tr.durations("engine.repair", "engine"));
    layers.store_mutate_us_p50 = median(&durations("store.mutate")) * 1e3;
    layers.store_commit_ms_p50 = median(&durations("store.commit"));
    layers.store_repair_ms_p50 = median(&durations("store.repair"));
    layers.store_compact_ms_p50 = median(&compact_ms);
    layers.store_compactions = compact_ms.len() as f64;
    layers.store_wal_bytes_per_edit = wal_bytes as f64 / wal_edits.max(1) as f64;
    layers.store_snapshot_bytes = status.snapshot_bytes as f64 / status.snapshots.max(1) as f64;
    if let Some(r) = recovery {
        layers.store_replay_records = r.records_replayed as f64;
        layers.store_replay_records_per_s =
            r.records_replayed as f64 / r.wall.as_secs_f64().max(1e-9);
    }
    layers.store_reopen_ms_p50 = median(&reopen_ms);
    layers.store_batch_ms_p95 = percentile(&untraced_ms, 0.95);
    layers.edits_per_iter = EDITS_PER_BATCH as f64;
    layers.report(rep, &tr, &untraced_ms);
    tr.write_chrome(&a.work.join("trace.json"))
        .map_err(|e| e.to_string())
}

/// Replay the stream's first batches on a fresh store, scoring each
/// against its ledger. Records the exact counts and returns the edit-level
/// F1 over all audit batches. The repairs must match the stream's own
/// first batches.
fn audit(
    a: &Args,
    rep: &mut Report,
    engine: &RepairEngine,
    rules: &RuleSet,
    stream_applied: &[usize],
) -> Result<f64, String> {
    let dir = a.work.join("audit");
    let mut store = create(a, &dir)?;
    let mut gen = EditGen::new(a.seed);
    let (mut needed, mut made, mut correct) = (0, 0, 0);
    let mut reports = Vec::new();
    let mut ledger = 0;
    let mut matches = 0;
    for i in 0..=AUDIT_BATCHES {
        let before = store.graph().clone();
        let mut truth = GroundTruth::default();
        let matches_before = matches_counter();
        // Apply the edits, keep the dirty graph, then repair — the same
        // calls `run_batch` makes, split so the dirty state is visible.
        let plan = gen.plan(store.graph(), EDITS_PER_BATCH);
        let (mut calls, mut failed) = (0, 0);
        for edit in &plan {
            edits::apply(&mut store, edit, &mut truth, &mut calls, &mut failed);
        }
        rep.tally(calls, failed);
        let dirty = store.graph().clone();
        let mut bad = Vec::new();
        let committed = store.commit();
        need(&mut bad, committed.is_ok(), || {
            format!("commit: {committed:?}")
        });
        match store.repair(engine, &rules.rules) {
            Ok(r) => {
                bad.extend(report_failures(&r));
                need(
                    &mut bad,
                    stream_applied.get(i) == Some(&r.repairs_applied),
                    || {
                        format!(
                            "{} repairs, the stream's batch {i} made {:?}",
                            r.repairs_applied,
                            stream_applied.get(i)
                        )
                    },
                );
                let q =
                    grepair_eval::evaluate_repair(&before, &dirty, store.graph(), &truth, &r.ops);
                needed += q.needed;
                made += q.made;
                correct += q.correct;
                if i > 0 {
                    matches += matches_counter() - matches_before;
                    ledger += truth.len();
                    reports.push(r);
                }
            }
            Err(e) => bad.push(format!("repair: {e}")),
        }
        rep.unit(&format!("audit batch {i}"), &bad);
    }
    drop(store);
    fresh_dir(&dir)?;
    rep.count("ledger.edits", ledger as f64);
    engine_counts(rep, &reports.iter().collect::<Vec<_>>(), matches);
    let precision = if made == 0 {
        1.0
    } else {
        correct as f64 / made as f64
    };
    let recall = if needed == 0 {
        1.0
    } else {
        correct as f64 / needed as f64
    };
    Ok(if precision + recall == 0.0 {
        0.0
    } else {
        2.0 * precision * recall / (precision + recall)
    })
}

/// Copy a store directory (regular files only).
fn copy_dir(from: &Path, to: &Path) -> Result<(), String> {
    fresh_dir(to)?;
    std::fs::create_dir_all(to).map_err(|e| e.to_string())?;
    for entry in std::fs::read_dir(from).map_err(|e| e.to_string())? {
        let entry = entry.map_err(|e| e.to_string())?;
        if entry.file_type().map_err(|e| e.to_string())?.is_file() {
            std::fs::copy(entry.path(), to.join(entry.file_name())).map_err(|e| e.to_string())?;
        }
    }
    Ok(())
}
