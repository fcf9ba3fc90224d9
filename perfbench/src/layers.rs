//! The per-layer metrics every workload prints from its traced run.
//!
//! Every workload prints the same names; a layer the workload bypasses
//! reports 0, which is the prediction for it.

use crate::stats::median;
use crate::trace::{Tracer, ROOT};
use crate::Report;
use grepair_core::RepairReport;

/// Per-layer figures, filled in by the workload that ran them.
#[derive(Default)]
pub struct Layers {
    pub io_read_ms: f64,
    pub io_parse_ms: f64,
    pub io_build_ms: f64,
    pub io_to_doc_ms: f64,
    pub io_to_json_ms: f64,
    pub io_write_ms: f64,
    /// Size of the JSON parsed and written per iteration.
    pub io_in_bytes: f64,
    pub io_out_bytes: f64,
    pub rules_load_ms: f64,
    pub engine_repair_ms: f64,
    pub match_full_scan_ms: f64,
    pub freeze_ms: f64,
    pub freeze_per_repair: f64,
    pub store_mutate_us_p50: f64,
    pub store_commit_ms_p50: f64,
    pub store_repair_ms_p50: f64,
    pub store_compact_ms_p50: f64,
    pub store_compactions: f64,
    pub store_wal_bytes_per_edit: f64,
    pub store_snapshot_bytes: f64,
    pub store_replay_records: f64,
    pub store_replay_records_per_s: f64,
    pub store_reopen_ms_p50: f64,
    pub store_batch_ms_p95: f64,
    /// Noise edits taken in and repaired per iteration.
    pub edits_per_iter: f64,
}

impl Layers {
    /// Fill the graph-I/O and engine timings from harness spans.
    pub fn spans_from(&mut self, tr: &Tracer) {
        let ms = |name, layer| median(&tr.per_iter_ms(name, layer));
        self.io_read_ms = ms("io.read", "graph.io");
        self.io_parse_ms = ms("io.parse", "graph.io");
        self.io_build_ms = ms("io.build", "graph.io");
        self.io_to_doc_ms = ms("io.to_doc", "graph.io");
        self.io_to_json_ms = ms("io.to_json", "graph.io");
        self.io_write_ms = ms("io.write", "graph.io");
        self.rules_load_ms = ms("rules.load", "rules");
        self.engine_repair_ms = ms("engine.repair", "core.engine");
        let iters = f64::from(tr.iterations().max(1));
        self.freeze_per_repair = tr.count("graph.freeze", "graph") as f64 / iters;
    }

    /// Print every per-layer metric, then the self-time fold. The
    /// iteration median and the throughput come from the run's untraced
    /// iterations.
    pub fn report(&self, rep: &mut Report, tr: &Tracer, untraced_ms: &[f64]) {
        let busy_s = untraced_ms.iter().sum::<f64>() / 1e3;
        rep.metric("iter_ms_p50", median(untraced_ms), "ms");
        rep.metric(
            "edits_per_s",
            self.edits_per_iter * untraced_ms.len() as f64 / busy_s.max(1e-9),
            "1/s",
        );
        let mb_per_s = |bytes: f64, ms: f64| {
            if ms > 0.0 {
                bytes / 1e6 / (ms / 1e3)
            } else {
                0.0
            }
        };
        for (name, value, unit) in [
            ("io.read_ms", self.io_read_ms, "ms"),
            ("io.parse_ms", self.io_parse_ms, "ms"),
            ("io.build_ms", self.io_build_ms, "ms"),
            ("io.to_doc_ms", self.io_to_doc_ms, "ms"),
            ("io.to_json_ms", self.io_to_json_ms, "ms"),
            ("io.write_ms", self.io_write_ms, "ms"),
            (
                "io.parse_mb_per_s",
                mb_per_s(self.io_in_bytes, self.io_parse_ms),
                "MB/s",
            ),
            (
                "io.to_json_mb_per_s",
                mb_per_s(self.io_out_bytes, self.io_to_json_ms),
                "MB/s",
            ),
            ("rules.load_ms", self.rules_load_ms, "ms"),
            ("engine.repair_ms", self.engine_repair_ms, "ms"),
            ("match.full_scan_ms", self.match_full_scan_ms, "ms"),
            ("freeze.ms", self.freeze_ms, "ms"),
            ("freeze.per_repair", self.freeze_per_repair, "count"),
            ("store.mutate_us_p50", self.store_mutate_us_p50, "us"),
            ("store.commit_ms_p50", self.store_commit_ms_p50, "ms"),
            ("store.repair_ms_p50", self.store_repair_ms_p50, "ms"),
            ("store.compact_ms_p50", self.store_compact_ms_p50, "ms"),
            ("store.compactions", self.store_compactions, "count"),
            (
                "store.wal_bytes_per_edit",
                self.store_wal_bytes_per_edit,
                "B",
            ),
            ("store.snapshot_bytes", self.store_snapshot_bytes, "B"),
            ("store.replay_records", self.store_replay_records, "count"),
            (
                "store.replay_records_per_s",
                self.store_replay_records_per_s,
                "1/s",
            ),
            ("store.reopen_ms_p50", self.store_reopen_ms_p50, "ms"),
            ("store.batch_ms_p95", self.store_batch_ms_p95, "ms"),
        ] {
            rep.metric(name, value, unit);
        }
        for name in COUNTS[4..].iter().copied() {
            let value = rep.counts.get(name).copied().unwrap_or(0.0);
            rep.metric(name, value, "count");
        }
        let applied = rep
            .counts
            .get("engine.repairs_applied")
            .copied()
            .unwrap_or(0.0);
        let found = rep
            .counts
            .get("engine.matches_found")
            .copied()
            .unwrap_or(0.0);
        rep.metric(
            "engine.useful_ratio",
            if found > 0.0 { applied / found } else { 0.0 },
            "ratio",
        );
        fold(rep, tr, untraced_ms);
    }
}

/// Exact counts every workload records for its seed. They repeat
/// exactly for a seed, so `--expect` can pin them; the traced run prints
/// all but the input sizes as metrics.
pub const COUNTS: [&str; 10] = [
    "input.nodes",
    "input.edges",
    "input.json_bytes",
    "ledger.edits",
    "engine.rounds",
    "engine.repairs_applied",
    "engine.matches_found",
    "engine.pattern_compiles",
    "engine.plan_cache_hits",
    "match.matches_found",
];

/// Record the counts of one repair (or the sum over a fixed prefix of
/// batches) and the matches the matcher reported meanwhile.
pub fn engine_counts(rep: &mut Report, runs: &[&RepairReport], matches_counted: u64) {
    let sum = |f: &dyn Fn(&RepairReport) -> f64| runs.iter().map(|r| f(r)).sum::<f64>();
    rep.count("engine.rounds", sum(&|r| r.rounds as f64));
    rep.count("engine.repairs_applied", sum(&|r| r.repairs_applied as f64));
    rep.count(
        "engine.matches_found",
        sum(&|r| r.per_rule.iter().map(|s| s.matches_found as f64).sum()),
    );
    rep.count(
        "engine.pattern_compiles",
        sum(&|r| r.pattern_compiles as f64),
    );
    rep.count("engine.plan_cache_hits", sum(&|r| r.plan_cache_hits as f64));
    rep.count("match.matches_found", matches_counted as f64);
}

/// Self-time share metrics and the layers they cover.
const SHARES: [(&str, &str); 7] = [
    ("self.graph_io_share", "graph.io"),
    ("self.rules_share", "rules"),
    ("self.engine_share", "core.engine"),
    ("self.match_share", "match"),
    ("self.plan_share", "match.plan"),
    ("self.snapshot_share", "graph.snapshot"),
    ("self.store_share", "store"),
];

/// Per-layer self-time shares of the traced wall, the unattributed
/// share, and the tracing overhead against interleaved untraced
/// iterations.
fn fold(rep: &mut Report, tr: &Tracer, untraced_ms: &[f64]) {
    let traced_ms = tr.durations("iteration", ROOT);
    let (layers, root_ms) = match tr.fold() {
        Ok(folded) => folded,
        Err(e) => {
            rep.unit("trace fold", &[e]);
            (Default::default(), 0.0)
        }
    };
    let share = |layer: &str| layers.get(layer).copied().unwrap_or(0.0) / root_ms.max(1e-9);
    if root_ms > 0.0 {
        // Every layer with self time must be one that is reported.
        let mut bad = Vec::new();
        for layer in layers.keys() {
            crate::need(
                &mut bad,
                *layer == ROOT || SHARES.iter().any(|(_, l)| l == layer),
                || {
                    format!(
                        "{:.4} of the traced wall in unreported layer {layer}",
                        share(layer)
                    )
                },
            );
        }
        rep.unit("trace fold", &bad);
    }
    for (metric, layer) in SHARES {
        rep.metric(metric, share(layer), "ratio");
    }
    rep.metric("obs.unattributed_share", share(ROOT), "ratio");
    rep.metric("obs.traced_iter_ms_p50", median(&traced_ms), "ms");
    rep.metric(
        "obs.trace_overhead_ratio",
        median(&traced_ms) / median(untraced_ms),
        "ratio",
    );
}
