//! Child processes started and timed by a small helper process.
//!
//! A child's `ru_maxrss` includes the peak resident memory of the process
//! that spawned it (the spawn runs on the parent's address space until
//! `exec`). The harness holds whole graphs in memory, so before it builds
//! any it starts this helper — the harness binary itself, run with
//! `--spawner` — and has the helper start and time every `grepair` run.
//! The helper stays small, so its children's peaks are their own.
//!
//! Protocol, one line per run: the harness sends
//! `PROGRAM\tSTDOUT_FILE\tSTDERR_FILE\tARG...`; the helper answers
//! `WALL_MS EXIT_CODE PEAK_RSS_MIB` (exit code -1 for a signal).

use crate::{ms_since, sys};
use std::io::{BufRead, BufReader, Write};
use std::path::Path;
use std::process::{Child, ChildStdin, ChildStdout, Command, Stdio};
use std::time::Instant;

/// What one child run did.
pub struct Ran {
    pub ms: f64,
    pub code: i32,
    /// Peak resident memory of the largest child run so far.
    pub peak_rss_mb: f64,
}

pub struct Spawner {
    child: Child,
    stdin: Option<ChildStdin>,
    stdout: BufReader<ChildStdout>,
}

impl Spawner {
    pub fn start() -> Result<Self, String> {
        let exe = std::env::current_exe().map_err(|e| format!("cannot find own binary: {e}"))?;
        let mut child = Command::new(exe)
            .arg("--spawner")
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .spawn()
            .map_err(|e| format!("cannot start the spawner: {e}"))?;
        let stdin = child.stdin.take();
        let stdout = BufReader::new(child.stdout.take().expect("piped stdout"));
        Ok(Spawner {
            child,
            stdin,
            stdout,
        })
    }

    /// Run `program args` to completion, its output sent to two files.
    pub fn run(
        &mut self,
        program: &Path,
        args: &[&str],
        out: &Path,
        err: &Path,
    ) -> Result<Ran, String> {
        let mut line = [program, out, err]
            .map(|p| p.to_string_lossy().into_owned())
            .join("\t");
        for a in args {
            line.push('\t');
            line.push_str(a);
        }
        let stdin = self.stdin.as_mut().expect("spawner running");
        writeln!(stdin, "{line}")
            .and_then(|()| stdin.flush())
            .map_err(|e| format!("spawner: {e}"))?;
        let mut answer = String::new();
        self.stdout
            .read_line(&mut answer)
            .map_err(|e| format!("spawner: {e}"))?;
        let fields: Vec<&str> = answer.split_whitespace().collect();
        match fields[..] {
            [ms, code, rss] => Ok(Ran {
                ms: ms.parse().map_err(|_| format!("spawner said {answer:?}"))?,
                code: code
                    .parse()
                    .map_err(|_| format!("spawner said {answer:?}"))?,
                peak_rss_mb: rss
                    .parse()
                    .map_err(|_| format!("spawner said {answer:?}"))?,
            }),
            _ => Err(format!("spawner failed: {answer:?}")),
        }
    }
}

impl Drop for Spawner {
    /// Closing the helper's stdin ends it; wait until it has exited.
    fn drop(&mut self) {
        drop(self.stdin.take());
        let _ = self.child.wait();
    }
}

/// The helper's loop (`perfbench --spawner`).
pub fn serve() {
    let stdin = std::io::stdin();
    let mut stdout = std::io::stdout();
    for line in stdin.lock().lines() {
        let Ok(line) = line else { break };
        let f: Vec<&str> = line.split('\t').collect();
        let answer = match f[..] {
            [program, out, err, ref args @ ..] => run_one(program, out, err, args),
            _ => Err(format!("bad request {line:?}")),
        };
        let reply = match answer {
            Ok((ms, code)) => format!("{ms} {code} {}", sys::peak_rss_children_mb()),
            Err(e) => format!("error {e}"),
        };
        if writeln!(stdout, "{reply}")
            .and_then(|()| stdout.flush())
            .is_err()
        {
            break;
        }
    }
}

fn run_one(program: &str, out: &str, err: &str, args: &[&str]) -> Result<(f64, i32), String> {
    let out = std::fs::File::create(out).map_err(|e| e.to_string())?;
    let err = std::fs::File::create(err).map_err(|e| e.to_string())?;
    let t = Instant::now();
    let status = Command::new(program)
        .args(args)
        .stdin(Stdio::null())
        .stdout(out)
        .stderr(err)
        .status()
        .map_err(|e| format!("cannot run {program}: {e}"))?;
    Ok((ms_since(t), status.code().unwrap_or(-1)))
}
