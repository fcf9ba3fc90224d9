//! `kg50k_json_repair`: the CLI file pipeline
//! `grepair repair -r gold_kg.grr -g dirty.json -o out.json` on a
//! `gen kg --persons 50000 --noise 0.05` graph.
//!
//! Untraced, each iteration times the release binary as a child process,
//! the way users run it. Traced, each iteration runs the same pipeline
//! in-process (read, parse, build, rules, repair, to_doc, to_json,
//! atomic write) with a span around every layer call, interleaved with
//! untraced in-process iterations for the overhead ratio. Either way the
//! output must be byte-identical to the other path's: the library
//! pipeline is the reference for the binary and vice versa.

use crate::fixture::{self, NOISE_RATE};
use crate::layers::{engine_counts, Layers};
use crate::spawn::{Ran, Spawner};
use crate::trace::{time, Tracer};
use crate::{
    budget, for_duration, matches_counter, median_ms_of_3, ms_since, need, report_failures, Args,
    EndToEnd, Report, FAULT_OP_CAP,
};
use grepair_core::{EngineConfig, RepairEngine, RepairReport};
use grepair_graph::{Graph, GraphDoc};
use grepair_store::StdFs;
use std::path::{Path, PathBuf};
use std::time::Instant;

const PERSONS: usize = 50_000;
const SETUP_REPS: usize = 7;

struct Files {
    rules: PathBuf,
    dirty: PathBuf,
    out: PathBuf,
    stdout: PathBuf,
    stderr: PathBuf,
}

impl Files {
    /// `grepair repair -r gold_kg.grr -g dirty.json -o out.json`.
    fn repair_args(&self) -> Vec<String> {
        let p = |p: &PathBuf| p.to_string_lossy().into_owned();
        let mut args = vec![
            "repair".into(),
            "-r".into(),
            p(&self.rules),
            "-g".into(),
            p(&self.dirty),
        ];
        args.extend(["-o".into(), p(&self.out)]);
        args
    }

    /// Run the binary through the spawner; returns the run and its stdout.
    /// The previous output is removed first (untimed), so a run that
    /// writes nothing leaves no `out.json`.
    fn run_cli(
        &self,
        sp: &mut Spawner,
        grepair: &Path,
        args: &[String],
    ) -> Result<(Ran, String), String> {
        if self.out.exists() {
            std::fs::remove_file(&self.out)
                .map_err(|e| format!("cannot remove {}: {e}", self.out.display()))?;
        }
        let args: Vec<&str> = args.iter().map(String::as_str).collect();
        let ran = sp.run(grepair, &args, &self.stdout, &self.stderr)?;
        let out = std::fs::read_to_string(&self.stdout).unwrap_or_default();
        Ok((ran, out))
    }

    fn stderr_text(&self) -> String {
        std::fs::read_to_string(&self.stderr)
            .unwrap_or_default()
            .trim()
            .to_owned()
    }
}

pub fn run(a: &Args, rep: &mut Report) -> Result<(), String> {
    // Started while this process is small: see `spawn`.
    let mut sp = Spawner::start()?;
    let files = Files {
        rules: a.work.join("gold_kg.grr"),
        dirty: a.work.join("dirty.json"),
        out: a.work.join("out.json"),
        stdout: a.work.join("cli.stdout"),
        stderr: a.work.join("cli.stderr"),
    };
    std::fs::write(&files.rules, fixture::gold_rules_text()).map_err(|e| e.to_string())?;

    // Set-up: generation plus the fixture write, as `grepair gen kg` does.
    let mut setup_s = Vec::new();
    let mut kg = None;
    for _ in 0..SETUP_REPS {
        drop(kg.take()); // one input resident at a time
        let t = Instant::now();
        let k = fixture::noisy_kg(a.persons(PERSONS), a.seed, NOISE_RATE);
        let text = k.dirty.to_doc().to_json();
        grepair_cli::write_atomic_on(&StdFs, &files.dirty, &text)
            .map_err(|e| format!("cannot write {}: {e}", files.dirty.display()))?;
        setup_s.push(t.elapsed().as_secs_f64());
        kg = Some(k);
    }
    let kg = kg.expect("at least one set-up");
    let in_bytes = std::fs::metadata(&files.dirty)
        .map_err(|e| e.to_string())?
        .len();
    rep.count("input.nodes", kg.dirty.num_nodes() as f64);
    rep.count("input.edges", kg.dirty.num_edges() as f64);
    rep.count("input.json_bytes", in_bytes as f64);
    rep.count("ledger.edits", kg.truth.len() as f64);

    if a.trace {
        let edits_per_iter = kg.truth.len() as f64;
        drop(kg);
        traced(a, rep, &mut sp, &files, in_bytes, edits_per_iter)
    } else {
        untraced(a, rep, &mut sp, &files, kg, setup_s)
    }
}

/// The end-to-end run: the binary as a child process.
fn untraced(
    a: &Args,
    rep: &mut Report,
    sp: &mut Spawner,
    files: &Files,
    kg: fixture::Kg,
    setup_s: Vec<f64>,
) -> Result<(), String> {
    // Reference output and repair quality from the library pipeline.
    let matches_before = matches_counter();
    let run = pipeline(&Tracer::off(), files, &budget(a))?;
    engine_counts(rep, &[&run.report], matches_counter() - matches_before);
    rep.unit("reference repair", &report_failures(&run.report));
    let repair_f1 =
        grepair_eval::evaluate_repair(&kg.clean, &kg.dirty, &run.graph, &kg.truth, &run.report.ops)
            .f1;
    let applied = run.report.repairs_applied;
    let mut reference = run.json.into_bytes();
    if a.fault("digest") {
        reference.push(b'\n');
    }
    drop((kg, run.graph));

    let mut cli = files.repair_args();
    if a.fault("nowrite") {
        cli.truncate(cli.len() - 2);
    }
    if a.fault("budget") {
        cli.extend(["--max-ops".into(), FAULT_OP_CAP.to_string()]);
    }

    // The closed loop; the fixture was just written, so its pages are warm.
    let check = |rep: &mut Report, what: &str, (ran, stdout): (Ran, String)| {
        let mut bad = Vec::new();
        need(&mut bad, ran.code == 0, || {
            format!("exit {}: {}", ran.code, files.stderr_text())
        });
        need(
            &mut bad,
            stdout.contains(&format!("applied {applied} repairs in ")),
            || format!("expected {applied} repairs: {}", stdout.trim()),
        );
        need(
            &mut bad,
            stdout.contains("(converged: true, outcome: completed, residual: 0)"),
            || format!("not converged: {}", stdout.trim()),
        );
        need(
            &mut bad,
            stdout.contains("wrote repaired graph to "),
            || format!("no output reported: {}", stdout.trim()),
        );
        match std::fs::read(&files.out) {
            Ok(written) => need(&mut bad, written == reference, || {
                format!(
                    "out.json ({} bytes) differs from the reference ({} bytes)",
                    written.len(),
                    reference.len()
                )
            }),
            Err(e) => bad.push(format!("no out.json: {e}")),
        }
        rep.unit(what, &bad);
    };
    let mut iter_ms = Vec::new();
    let mut peak_rss_mb = 0.0;
    for_duration(a.seconds, 1, |i| {
        let run = files.run_cli(sp, &a.grepair, &cli)?;
        iter_ms.push(run.0.ms);
        peak_rss_mb = run.0.peak_rss_mb;
        check(rep, &format!("iteration {i}"), run);
        Ok(())
    })?;
    EndToEnd {
        setup_s,
        iter_ms,
        peak_rss_mb,
        repair_f1,
    }
    .report(rep);
    Ok(())
}

/// The traced run: the same pipeline in-process, a span per layer call.
fn traced(
    a: &Args,
    rep: &mut Report,
    sp: &mut Spawner,
    files: &Files,
    in_bytes: u64,
    edits_per_iter: f64,
) -> Result<(), String> {
    // Reference output from the binary.
    let (ran, _) = files.run_cli(sp, &a.grepair, &files.repair_args())?;
    let mut bad = Vec::new();
    need(&mut bad, ran.code == 0, || {
        format!("reference run exit {}: {}", ran.code, files.stderr_text())
    });
    rep.unit("reference run", &bad);
    let mut reference = std::fs::read(&files.out).map_err(|e| e.to_string())?;
    if a.fault("digest") {
        reference.push(b'\n');
    }

    let tr = Tracer::on();
    let off = Tracer::off();
    let mut untraced_ms = Vec::new();
    let mut last_counts = None;
    for_duration(a.seconds, 2, |i| {
        let traced = i % 2 == 1;
        let matches_before = matches_counter();
        let t = Instant::now();
        let run = pipeline(if traced { &tr } else { &off }, files, &budget(a))?;
        if !traced {
            untraced_ms.push(ms_since(t));
        }
        let mut bad = report_failures(&run.report);
        need(
            &mut bad,
            run.json.as_bytes() == reference.as_slice(),
            || "in-process output differs from the binary's out.json".into(),
        );
        rep.unit(&format!("iteration {i}"), &bad);
        last_counts = Some((run.report, matches_counter() - matches_before));
        Ok(())
    })?;
    let (report, matches) = last_counts.expect("at least two iterations");
    engine_counts(rep, &[&report], matches);

    let mut layers = Layers {
        io_in_bytes: in_bytes as f64,
        io_out_bytes: reference.len() as f64,
        edits_per_iter,
        match_full_scan_ms: full_scan_ms(files)?,
        ..Layers::default()
    };
    layers.spans_from(&tr);
    layers.report(rep, &tr, &untraced_ms);
    tr.write_chrome(&a.work.join("trace.json"))
        .map_err(|e| e.to_string())
}

/// One in-process pass of the CLI pipeline.
struct Run {
    graph: Graph,
    json: String,
    report: RepairReport,
}

fn pipeline(tr: &Tracer, files: &Files, budget: &grepair_obs::Budget) -> Result<Run, String> {
    tr.iteration(|| {
        let rules = time("rules.load", "rules", || {
            let text = std::fs::read_to_string(&files.rules).map_err(|e| e.to_string())?;
            fixture::load_rules(&text)
        })?;
        let mut graph = load(&files.dirty)?;
        let engine = RepairEngine::new(EngineConfig::default()).with_budget(budget);
        let report = time("engine.repair", "core.engine", || {
            engine.repair(&mut graph, &rules.rules)
        });
        let doc = time("io.to_doc", "graph.io", || graph.to_doc());
        let json = time("io.to_json", "graph.io", || doc.to_json());
        time("io.write", "graph.io", || {
            grepair_cli::write_atomic_on(&StdFs, &files.out, &json)
        })
        .map_err(|e| format!("cannot write {}: {e}", files.out.display()))?;
        Ok(Run {
            graph,
            json,
            report,
        })
    })
}

/// `load_graph` of the CLI: read, parse, build (dropping the text and
/// document, as the CLI does before it repairs).
fn load(path: &Path) -> Result<Graph, String> {
    let text = time("io.read", "graph.io", || std::fs::read_to_string(path))
        .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
    let doc = time("io.parse", "graph.io", || GraphDoc::from_json(&text))
        .map_err(|e| format!("cannot parse {}: {e}", path.display()))?;
    time("io.build", "graph.io", || {
        let g = Graph::from_doc(&doc);
        drop(doc);
        drop(text);
        g
    })
    .map_err(|e| format!("cannot build graph: {e}"))
}

/// `grepair check`'s work: one full violation count on the input graph.
fn full_scan_ms(files: &Files) -> Result<f64, String> {
    let g = load(&files.dirty)?;
    let rules = fixture::load_rules(fixture::gold_rules_text())?;
    let engine = RepairEngine::new(EngineConfig::default());
    Ok(median_ms_of_3(|| {
        std::hint::black_box(engine.count_violations(&g, &rules.rules));
    }))
}
