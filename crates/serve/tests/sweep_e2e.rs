//! End-to-end tests of the `suu-sweep` orchestrator.
//!
//! The sweep's contract is that the artifact is a pure function of the
//! spec, *including across interruption*: every evaluation flows through
//! the persistent cell cache, and the artifact records only terminal
//! per-cell state, so a sweep killed mid-grid and re-run over the same
//! `--cache-dir` must land on a document **byte-identical** to an
//! uninterrupted cold run. One test kills the smoke sweep right after it
//! reports the first round and replays; the other rebuilds the committed
//! `BENCH_sweep.json` from `sweep_spec.json`, cold and then warm.

use std::io::{BufRead, BufReader};
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};

struct SweepRun {
    out: PathBuf,
    cache: PathBuf,
    /// `--smoke`, or `--spec FILE`.
    spec: Vec<String>,
}

impl SweepRun {
    fn new(tag: &str, spec: &[&str]) -> SweepRun {
        let tmp = std::env::temp_dir();
        let pid = std::process::id();
        let run = SweepRun {
            out: tmp.join(format!("suu-sweep-e2e-{tag}-{pid}.json")),
            cache: tmp.join(format!("suu-sweep-e2e-{tag}-{pid}-cache")),
            spec: spec.iter().map(|s| s.to_string()).collect(),
        };
        let _ = std::fs::remove_file(&run.out);
        let _ = std::fs::remove_dir_all(&run.cache);
        run
    }

    fn command(&self) -> Command {
        let mut cmd = Command::new(env!("CARGO_BIN_EXE_suu-sweep"));
        cmd.args(&self.spec).args([
            "--cache-dir",
            self.cache.to_str().unwrap(),
            "--out",
            self.out.to_str().unwrap(),
        ]);
        cmd
    }

    /// Run the sweep to completion and return the artifact bytes.
    fn run_to_completion(&self) -> String {
        let status = self
            .command()
            .stdout(Stdio::null())
            .stderr(Stdio::null())
            .status()
            .expect("spawn suu-sweep");
        assert!(status.success(), "suu-sweep failed: {status}");
        std::fs::read_to_string(&self.out).expect("sweep artifact written")
    }
}

impl Drop for SweepRun {
    fn drop(&mut self) {
        let _ = std::fs::remove_file(&self.out);
        let _ = std::fs::remove_dir_all(&self.cache);
    }
}

#[test]
fn sweep_killed_mid_grid_and_rerun_is_byte_identical_to_a_cold_run() {
    // Reference: an uninterrupted cold run on its own cache.
    let reference_run = SweepRun::new("ref", &["--smoke"]);
    let reference = reference_run.run_to_completion();
    let doc = suu_core::json::parse(&reference).expect("valid artifact json");
    assert_eq!(
        doc.get("schema")
            .and_then(|s| s.as_str().map(str::to_string)),
        Some(suu_core::schemas::RESULTS_SWEEP_V1.to_string())
    );

    // Interrupted: same spec on a fresh cache, SIGKILLed as soon as the
    // first refinement round lands (so later rungs are still missing).
    let victim = SweepRun::new("kill", &["--smoke"]);
    let mut child = victim
        .command()
        .stdout(Stdio::null())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn suu-sweep");
    let stderr = child.stderr.take().expect("piped stderr");
    let mut saw_round = false;
    for line in BufReader::new(stderr).lines() {
        let line = line.expect("readable stderr");
        if line.contains("round 1 done") {
            saw_round = true;
            child.kill().expect("kill suu-sweep");
            break;
        }
    }
    let _ = child.wait();
    assert!(saw_round, "sweep never reported its first round");
    assert!(
        victim.cache.is_dir(),
        "the cell cache must survive the crash"
    );

    // Replay over the surviving cache: cached rungs are reused (each a
    // checkpoint the cold run also visited), missing ones computed, and
    // the artifact comes out byte-identical.
    let resumed = victim.run_to_completion();
    assert_eq!(
        resumed, reference,
        "resumed sweep artifact must be byte-identical to the cold run"
    );
}

#[test]
fn committed_sweep_artifact_is_rebuilt_byte_for_byte_cold_and_warm() {
    // Any change that moves a sweep number must regenerate the artifact:
    //   suu-sweep --spec sweep_spec.json --out BENCH_sweep.json
    let workspace = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let committed = std::fs::read_to_string(workspace.join("BENCH_sweep.json"))
        .expect("committed BENCH_sweep.json");
    let spec = workspace.join("sweep_spec.json");
    let run = SweepRun::new("committed", &["--spec", spec.to_str().unwrap()]);
    // `assert!`, not `assert_eq!`: a mismatch would print the 40 KB
    // artifact twice.
    assert!(
        run.run_to_completion() == committed,
        "a cold sweep of sweep_spec.json must reproduce BENCH_sweep.json byte for byte"
    );
    assert!(
        run.run_to_completion() == committed,
        "a warm re-sweep must reproduce BENCH_sweep.json byte for byte"
    );
}
