//! `perfbench` — the grepair benchmark harness.
//!
//! ```text
//! perfbench --workload NAME --seed N --seconds S --trace 0|1
//!           --grepair PATH --work DIR [--persons N] [--expect KEY=VALUE]...
//!           [--fault digest|budget|nowrite]
//! ```
//!
//! Runs one workload as a closed loop with one client on one thread for
//! `--seconds`, checks every iteration's output, and prints one JSON
//! object as the last line of stdout: the end-to-end metrics from an
//! untraced run (`--trace 0`) or the per-layer metrics from a traced run
//! (`--trace 1`). `perfbench/run.py` builds the program and this harness
//! and is the command to run; see `perfbench/workloads.json` for what each
//! workload exercises.

mod edits;
mod fixture;
mod json_repair;
mod layers;
mod naive_mem;
mod spawn;
mod stats;
mod store_stream;
mod sys;
mod trace;

use grepair_core::{RepairOutcome, RepairReport};
use grepair_obs::Budget;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::PathBuf;
use std::time::{Duration, Instant};

/// Command-line arguments.
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// The release `grepair` binary (the file pipeline runs it).
    pub grepair: PathBuf,
    /// Scratch directory for fixtures, stores and outputs.
    pub work: PathBuf,
    /// Person count override (the tests run tiny graphs).
    pub persons: Option<usize>,
    /// Counts the run must reproduce exactly, by metric name.
    pub expect: Vec<(String, f64)>,
    /// Deliberate fault for the negative tests: `digest` compares
    /// against a wrong reference, `budget` caps the repair so violations
    /// are left in, `nowrite` runs the file pipeline's binary without
    /// `-o` so it writes no output.
    pub fault: Option<String>,
}

impl Args {
    fn parse(tokens: &[String]) -> Result<Args, String> {
        let mut a = Args {
            workload: String::new(),
            seed: 1,
            seconds: 10.0,
            trace: false,
            grepair: PathBuf::new(),
            work: PathBuf::from(".bench_work"),
            persons: None,
            expect: Vec::new(),
            fault: None,
        };
        let mut it = tokens.iter();
        while let Some(flag) = it.next() {
            let value = it
                .next()
                .ok_or_else(|| format!("{flag} needs a value"))?
                .as_str();
            let bad = |what: &str| format!("bad {flag} {value:?}: {what}");
            match flag.as_str() {
                "--workload" => a.workload = value.to_owned(),
                "--seed" => a.seed = value.parse().map_err(|_| bad("want an integer"))?,
                "--seconds" => {
                    a.seconds = value
                        .parse()
                        .ok()
                        .filter(|s: &f64| *s > 0.0)
                        .ok_or_else(|| bad("want seconds > 0"))?
                }
                "--trace" => {
                    a.trace = match value {
                        "0" => false,
                        "1" => true,
                        _ => return Err(bad("want 0 or 1")),
                    }
                }
                "--grepair" => a.grepair = PathBuf::from(value),
                "--work" => a.work = PathBuf::from(value),
                "--persons" => a.persons = Some(value.parse().map_err(|_| bad("want an integer"))?),
                "--expect" => {
                    let (k, v) = value.split_once('=').ok_or_else(|| bad("want KEY=VALUE"))?;
                    let v = v.parse().map_err(|_| bad("want a number"))?;
                    a.expect.push((k.to_owned(), v));
                }
                "--fault" => match value {
                    "digest" | "budget" | "nowrite" => a.fault = Some(value.to_owned()),
                    _ => return Err(bad("want digest, budget or nowrite")),
                },
                _ => return Err(format!("unknown argument {flag}")),
            }
        }
        if a.workload.is_empty() {
            return Err("missing --workload".into());
        }
        Ok(a)
    }

    /// Whether the named deliberate fault is switched on.
    pub fn fault(&self, name: &str) -> bool {
        self.fault.as_deref() == Some(name)
    }

    /// The workload's person count: `default` unless overridden.
    pub fn persons(&self, default: usize) -> usize {
        self.persons.unwrap_or(default)
    }
}

/// What a run found: the correctness tally and the metrics to print.
#[derive(Default)]
pub struct Report {
    attempted: u64,
    failed: u64,
    metrics: Vec<(String, f64, &'static str)>,
    /// Exact counts for `--expect` (printed as metrics only when they
    /// are also declared as metrics).
    pub(crate) counts: BTreeMap<String, f64>,
}

impl Report {
    /// Tally one attempted unit (an iteration, a batch, a mutator call,
    /// a reopen): it failed if any of its checks failed. Every failure is
    /// counted and printed on stderr.
    pub fn unit(&mut self, what: &str, failures: &[String]) {
        self.attempted += 1;
        if !failures.is_empty() {
            self.failed += 1;
            for f in failures {
                eprintln!("perfbench: check failed: {what}: {f}");
            }
        }
    }

    /// Tally `attempted` single calls of which `failed` failed (each
    /// failure was already printed where it happened).
    pub fn tally(&mut self, attempted: u64, failed: u64) {
        self.attempted += attempted;
        self.failed += failed;
    }

    /// Record a metric.
    pub fn metric(&mut self, name: &str, value: f64, unit: &'static str) {
        let value = if value.is_finite() { value } else { 0.0 };
        self.metrics.push((name.to_owned(), value, unit));
    }

    /// Record an exact count the run reproduces for its seed.
    pub fn count(&mut self, name: &str, value: f64) {
        self.counts.insert(name.to_owned(), value);
    }

    /// Failed units over attempted units.
    pub fn failed_ratio(&self) -> f64 {
        self.failed as f64 / self.attempted.max(1) as f64
    }

    fn check_expected(&mut self, expect: &[(String, f64)]) {
        let mut bad = Vec::new();
        for (k, want) in expect {
            match self.counts.get(k) {
                Some(got) if got == want => {}
                Some(got) => bad.push(format!("{k} = {got}, expected {want}")),
                None => bad.push(format!("{k} is not a count of this workload")),
            }
        }
        if !expect.is_empty() {
            self.unit("expected counts", &bad);
        }
    }

    fn to_json(&self) -> String {
        let mut m = String::new();
        for (i, (name, value, unit)) in self.metrics.iter().enumerate() {
            if i > 0 {
                m.push_str(", ");
            }
            write!(
                m,
                "\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}"
            )
            .unwrap();
        }
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{m}}}}}",
            self.failed == 0,
            self.attempted.max(1),
            self.failed
        )
    }
}

/// Push `msg` onto `bad` unless `ok`.
pub fn need(bad: &mut Vec<String>, ok: bool, msg: impl FnOnce() -> String) {
    if !ok {
        bad.push(msg());
    }
}

/// Run `f` repeatedly until `seconds` have passed (at least `min`
/// times), handing it the iteration index.
pub fn for_duration(
    seconds: f64,
    min: usize,
    mut f: impl FnMut(usize) -> Result<(), String>,
) -> Result<(), String> {
    let budget = Duration::from_secs_f64(seconds);
    let started = Instant::now();
    let mut i = 0;
    while i < min || started.elapsed() < budget {
        f(i)?;
        i += 1;
    }
    Ok(())
}

/// Milliseconds since `t`.
pub fn ms_since(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e3
}

/// Median wall time (ms) of three calls of `f`.
pub fn median_ms_of_3(mut f: impl FnMut()) -> f64 {
    let times: Vec<f64> = (0..3)
        .map(|_| {
            let t = Instant::now();
            f();
            ms_since(t)
        })
        .collect();
    stats::median(&times)
}

/// The repair budget: unlimited, or under the `budget` fault an op cap
/// far below the repairs any workload needs.
pub fn budget(a: &Args) -> Budget {
    if a.fault("budget") {
        Budget::unlimited().with_op_cap(FAULT_OP_CAP)
    } else {
        Budget::unlimited()
    }
}

/// Op cap of the `budget` fault (`--max-ops` for the binary).
pub const FAULT_OP_CAP: u64 = 10;

/// The process-wide `match.matches_found` counter.
pub fn matches_counter() -> u64 {
    grepair_obs::counter("match.matches_found").get()
}

/// Failed convergence checks of one repair.
pub fn report_failures(r: &RepairReport) -> Vec<String> {
    let mut bad = Vec::new();
    need(&mut bad, r.outcome == RepairOutcome::Completed, || {
        format!("outcome {}", r.outcome)
    });
    need(&mut bad, r.converged, || "did not converge".into());
    need(&mut bad, r.violations_remaining == 0, || {
        format!("{} violations remain", r.violations_remaining)
    });
    bad
}

/// The end-to-end metrics every workload reports from an untraced run.
pub struct EndToEnd {
    pub setup_s: Vec<f64>,
    pub iter_ms: Vec<f64>,
    pub peak_rss_mb: f64,
    pub repair_f1: f64,
}

impl EndToEnd {
    /// The bounded iteration time is the 10th percentile: on a shared host
    /// other tenants slow whole stretches of a run by up to 1.7x, which
    /// moves a run's median far more than any bound allows, while the
    /// fast tail still tracks the program's own speed. The median and p95
    /// are printed here and reported by the traced run.
    fn report(&self, rep: &mut Report) {
        rep.metric("setup_s", stats::median(&self.setup_s), "s");
        rep.metric("iter_ms_p10", stats::percentile(&self.iter_ms, 0.10), "ms");
        rep.metric("peak_rss_mb", self.peak_rss_mb, "MiB");
        rep.metric("repair_f1", self.repair_f1, "ratio");
        eprintln!(
            "perfbench: {} timed iterations: p10 {:.3} ms, p50 {:.3} ms, p95 {:.3} ms; setup {:?} s",
            self.iter_ms.len(),
            stats::percentile(&self.iter_ms, 0.10),
            stats::median(&self.iter_ms),
            stats::percentile(&self.iter_ms, 0.95),
            self.setup_s
        );
    }
}

fn main() {
    let tokens: Vec<String> = std::env::args().skip(1).collect();
    if tokens.first().map(String::as_str) == Some("--spawner") {
        return spawn::serve();
    }
    let args = match Args::parse(&tokens) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    let work = args.work.clone();
    if let Err(e) = std::fs::create_dir_all(&work) {
        eprintln!("perfbench: cannot create {}: {e}", work.display());
        std::process::exit(1);
    }
    let mut rep = Report::default();
    let outcome = match args.workload.as_str() {
        "kg50k_json_repair" => json_repair::run(&args, &mut rep),
        "kg50k_naive_mem" => naive_mem::run(&args, &mut rep),
        "kg20k_store_stream" => store_stream::run(&args, &mut rep),
        other => Err(format!("unknown workload {other:?}")),
    };
    if let Err(e) = outcome {
        eprintln!("perfbench: {e}");
        std::process::exit(1);
    }
    rep.check_expected(&args.expect);
    for (name, value) in &rep.counts {
        eprintln!("perfbench: count {name} = {value}");
    }
    if args.trace {
        rep.metric("failed_ops_ratio", rep.failed_ratio(), "ratio");
    }
    for (name, value, unit) in &rep.metrics {
        eprintln!("perfbench: {name:<28} {value:>14.4} {unit}");
    }
    println!("{}", rep.to_json());
}
