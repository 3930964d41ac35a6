//! The benchmark's self-test, at a tiny size: `BENCHMARK.json` names
//! exactly the workloads and metrics this binary runs and emits (with the
//! same units), every workload emits all of them in both modes, and every
//! correctness gate fires on a mismatch planted for it alone, in the
//! trace mode that runs it.

use crate::workloads::{Ctx, GATES};
use crate::{E2E_METRICS, LAYER_METRICS, WORKLOADS};
use std::path::Path;
use std::process::Command;
use suu_core::json::Json;

fn declared(doc: &Json, key: &str) -> Vec<(String, String)> {
    doc.get(key)
        .and_then(Json::as_array)
        .unwrap_or(&[])
        .iter()
        .map(|m| {
            let s = |k: &str| m.get(k).and_then(Json::as_str).unwrap_or("").to_string();
            (s("name"), s("unit"))
        })
        .collect()
}

/// What one tiny child run printed.
struct Child {
    ok: bool,
    stdout: String,
    result: Json,
}

impl Child {
    fn correct(&self) -> Option<bool> {
        self.result.get("correct").and_then(Json::as_bool)
    }
}

/// Run one tiny workload.
fn child(ctx: &Ctx, workload: &str, trace: bool, inject: Option<&str>) -> Result<Child, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut cmd = Command::new(exe);
    cmd.args([
        "--workload",
        workload,
        "--seed",
        "3",
        "--seconds",
        "1",
        "--tiny",
    ])
    .args(["--trace", if trace { "1" } else { "0" }])
    .arg("--bin-dir")
    .arg(&ctx.bin_dir)
    .arg("--work-dir")
    .arg(&ctx.work_dir);
    if let Some(gate) = inject {
        cmd.args(["--inject", gate]);
    }
    let out = cmd.output().map_err(|e| e.to_string())?;
    let stdout = String::from_utf8_lossy(&out.stdout).into_owned();
    let last = stdout.lines().last().unwrap_or("");
    let result = suu_core::json::parse(last).map_err(|e| {
        format!(
            "{workload}: no result line ({e}); stderr: {}",
            String::from_utf8_lossy(&out.stderr)
        )
    })?;
    Ok(Child {
        ok: out.status.success(),
        stdout,
        result,
    })
}

/// Requests the `trials_used` record gate compared with an earlier run.
fn compared(stdout: &str) -> u64 {
    stdout
        .lines()
        .find_map(|l| l.split("trials_used record: ").nth(1))
        .and_then(|rest| rest.split_whitespace().next())
        .and_then(|n| n.parse().ok())
        .unwrap_or(0)
}

pub fn run(ctx: &Ctx, benchmark_json: &Path) -> i32 {
    let mut failures: Vec<String> = Vec::new();
    let doc = match std::fs::read_to_string(benchmark_json)
        .map_err(|e| e.to_string())
        .and_then(|t| suu_core::json::parse(&t).map_err(|e| e.to_string()))
    {
        Ok(doc) => doc,
        Err(e) => {
            eprintln!("self-test: cannot read {}: {e}", benchmark_json.display());
            return 1;
        }
    };
    let own = |list: &[(&str, &str)]| -> Vec<(String, String)> {
        list.iter()
            .map(|(n, u)| (n.to_string(), u.to_string()))
            .collect()
    };
    for (key, list) in [("end_to_end", E2E_METRICS), ("per_layer", LAYER_METRICS)] {
        if declared(&doc, key) != own(list) {
            failures.push(format!(
                "BENCHMARK.json {key} differs from the metrics emitted"
            ));
        }
    }
    let workloads: Vec<String> = doc
        .get("workloads")
        .and_then(Json::as_array)
        .unwrap_or(&[])
        .iter()
        .filter_map(|w| w.get("name").and_then(Json::as_str).map(str::to_string))
        .collect();
    if workloads != WORKLOADS {
        failures.push("BENCHMARK.json workloads differ from the workloads run".into());
    }

    for workload in WORKLOADS {
        for (trace, list) in [(false, E2E_METRICS), (true, LAYER_METRICS)] {
            let label = format!("{workload} trace {}", u8::from(trace));
            match child(ctx, workload, trace, None) {
                Err(e) => failures.push(format!("{label}: {e}")),
                Ok(run) => {
                    if !run.ok || run.correct() != Some(true) {
                        failures.push(format!("{label}: run failed or incorrect"));
                    }
                    // The traced run is the record gate's second run of
                    // this seed, so it must have had something to compare.
                    if *workload == "cold-compute" && trace && compared(&run.stdout) == 0 {
                        failures.push(format!("{label}: trials_used record compared nothing"));
                    }
                    let metrics = run.result.get("metrics").cloned().unwrap_or(Json::Null);
                    for (name, unit) in list {
                        let m = metrics.get(name);
                        let value = m.and_then(|m| m.get("value")).and_then(Json::as_f64);
                        let got_unit = m.and_then(|m| m.get("unit")).and_then(Json::as_str);
                        match value {
                            Some(v) if v.is_finite() && got_unit == Some(*unit) => {
                                if !trace && v <= 0.0 {
                                    failures.push(format!("{label}: {name} is not positive"));
                                }
                            }
                            _ => failures.push(format!("{label}: {name} [{unit}] missing")),
                        }
                    }
                    println!("self-test: {label}: {} metrics checked", list.len());
                }
            }
        }
    }

    for &(gate, workload, trace, phrase) in GATES {
        let label = format!("gate {gate} ({workload} trace {})", u8::from(trace));
        // This gate fired, and no other did. (A run lists its first few
        // failed requests and then counts the rest in one line.)
        let only_this = |run: &Child| {
            let fired: Vec<&str> = run
                .stdout
                .lines()
                .filter(|l| l.contains("GATE FAILED") && !l.ends_with("more failed requests"))
                .collect();
            !fired.is_empty() && fired.iter().all(|l| l.contains(phrase))
        };
        match child(ctx, workload, trace, Some(gate)) {
            Ok(run) if !run.ok && run.correct() == Some(false) && only_this(&run) => {
                println!("self-test: {label} fires on an injected mismatch");
            }
            Ok(_) => failures.push(format!("{label} did not fire on an injected mismatch")),
            Err(e) => failures.push(format!("{label}: {e}")),
        }
    }

    for f in &failures {
        println!("self-test FAILED: {f}");
    }
    if failures.is_empty() {
        println!("self-test: ok");
        0
    } else {
        1
    }
}
