//! The step-by-step execution loop — the differential-testing oracle.
//!
//! Consults the policy at **every** unit step (the literal reading of the
//! paper's `Σ : (history, t) → assignment`), but draws job-completion
//! randomness per *segment* from the same counter-based per-job streams
//! as the event engine (see the module docs of [`crate::engine`]): at
//! every decision epoch each running job starts a fresh sub-run — SUU*
//! re-bases its linear accrual `base + k·µ`, SUU samples one geometric
//! countdown — so a policy honoring the hold contract produces a
//! bitwise-identical [`ExecOutcome`] under both engines.

use super::{clamp_wake, geometric_steps, ExecConfig, ExecOutcome, JobRandomness, Semantics};
use crate::policy::{Assignment, Policy, StateView};
use suu_core::{EligibilityTopology, MachineId, SuuInstance};

/// Execute `policy` on `inst` one unit step at a time.
pub fn execute_dense(
    inst: &SuuInstance,
    policy: &mut dyn Policy,
    cfg: &ExecConfig,
    seed: u64,
) -> ExecOutcome {
    let n = inst.num_jobs();
    let m = inst.num_machines();
    policy.reset();

    let topo = EligibilityTopology::new(&inst.precedence().to_dag(n));
    let mut elig = topo.new_state();
    let rnd = JobRandomness::new(seed);

    // SUU*: thresholds −log₂ r_j per job; SUU: per-segment coins instead.
    let thresholds: Vec<f64> = match cfg.semantics {
        Semantics::SuuStar => (0..n as u32).map(|j| rnd.threshold(j)).collect(),
        Semantics::Suu => Vec::new(),
    };
    let mut accrued = vec![0.0f64; n];
    let mut coin_draws = vec![0u32; n];
    let mut completion_time = vec![u64::MAX; n];

    // Per-job sub-run state (one sub-run per job per segment).
    let mut run_active = vec![false; n];
    let mut run_mass = vec![0.0f64; n];
    let mut run_base = vec![0.0f64; n]; // SUU*: accrued at sub-run start
    let mut run_steps = vec![0u64; n]; // SUU*: steps into the sub-run
    let mut run_left = vec![0u64; n]; // SUU: sampled countdown

    let mut busy_steps = 0u64;
    let mut idle_steps = 0u64;
    let mut ineligible = 0u64;

    // Scratch: per-job mass collected this step plus the jobs touched.
    let mut step_mass = vec![0.0f64; n];
    let mut seen = vec![false; n];
    let mut touched: Vec<u32> = Vec::with_capacity(m);
    let mut out = Assignment::new(m);

    // Epoch tracking mirroring the event engine: a new epoch at t = 0,
    // after any completion, and at the (clamped) wake-up declared at the
    // previous epoch. Decisions returned at non-epoch steps are obeyed as
    // assignments (the oracle role) but their wake-up is ignored, exactly
    // as the event engine never sees them.
    let mut wake: Option<u64> = None;
    let mut epoch_pending = true;

    let mut t = 0u64;
    while !elig.all_done() {
        if t >= cfg.max_steps {
            return ExecOutcome {
                makespan: cfg.max_steps,
                completed: false,
                busy_steps,
                idle_steps,
                ineligible_assignments: ineligible,
                completion_time,
            };
        }

        out.clear();
        let decision = {
            let view = StateView {
                time: t,
                epoch: elig.epoch(),
                remaining: elig.remaining(),
                eligible: elig.eligible(),
                n,
                m,
            };
            policy.decide(&view, &mut out)
        };

        if epoch_pending || wake == Some(t) {
            wake = clamp_wake(decision.next_wakeup, t);
            epoch_pending = false;
            // Every running job re-samples at an epoch, like the event
            // engine does when it re-decides.
            run_active.iter_mut().for_each(|a| *a = false);
        }

        touched.clear();
        for i in 0..m {
            match out.get(i) {
                None => idle_steps += 1,
                Some(j) => {
                    let ji = j.index();
                    debug_assert!(ji < n, "policy assigned out-of-range job");
                    if !elig.remaining().contains(j.0) {
                        // Completed job: machine rests (allowed).
                        idle_steps += 1;
                    } else if !elig.eligible().contains(j.0) {
                        ineligible += 1;
                    } else {
                        if !seen[ji] {
                            seen[ji] = true;
                            touched.push(j.0);
                        }
                        step_mass[ji] += inst.ell(MachineId(i as u32), j);
                        busy_steps += 1;
                    }
                }
            }
        }

        // Resolve per-job progress for this step.
        let mut any_completion = false;
        for &j in &touched {
            let ji = j as usize;
            let mass = step_mass[ji];
            step_mass[ji] = 0.0;
            seen[ji] = false;
            if mass <= 0.0 {
                continue; // only q=1 machines worked on it: no progress
            }
            if run_active[ji] && run_mass[ji] != mass {
                // Mid-segment mass change: only a policy violating the
                // hold contract can cause this; restart the sub-run so
                // the oracle stays well-defined.
                run_active[ji] = false;
            }
            if !run_active[ji] {
                run_active[ji] = true;
                run_mass[ji] = mass;
                match cfg.semantics {
                    Semantics::SuuStar => {
                        run_base[ji] = accrued[ji];
                        run_steps[ji] = 0;
                    }
                    Semantics::Suu => {
                        let u = rnd.coin(j, coin_draws[ji]);
                        coin_draws[ji] += 1;
                        run_left[ji] = geometric_steps(u, mass);
                    }
                }
            }
            let completes = match cfg.semantics {
                Semantics::SuuStar => {
                    run_steps[ji] += 1;
                    accrued[ji] = run_base[ji] + run_steps[ji] as f64 * mass;
                    accrued[ji] >= thresholds[ji]
                }
                Semantics::Suu => {
                    run_left[ji] = run_left[ji].saturating_sub(1);
                    run_left[ji] == 0
                }
            };
            if completes {
                completion_time[ji] = t + 1;
                elig.complete(&topo, j);
                run_active[ji] = false;
                any_completion = true;
            }
        }
        if any_completion {
            epoch_pending = true;
        }

        t += 1;
    }

    ExecOutcome {
        makespan: t,
        completed: true,
        busy_steps,
        idle_steps,
        ineligible_assignments: ineligible,
        completion_time,
    }
}
