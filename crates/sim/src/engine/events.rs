//! The event-driven execution core: jump from decision epoch to decision
//! epoch.
//!
//! At each epoch the policy is consulted once, its assignment held fixed,
//! and the engine computes the *next event* directly:
//!
//! * **SUU\***: the crossing step of the linear accrual
//!   `accrued + k·µ ≥ threshold` has a closed form
//!   (`⌈(threshold − accrued)/µ⌉`, fixed up for float rounding);
//! * **SUU**: a geometric completion time is sampled by inversion from
//!   one per-segment coin (`p = 1 − 2^(−µ)` per step; memorylessness
//!   makes re-sampling at the next epoch distribution-exact);
//!
//! then `t` advances by the minimum over running jobs and the policy's
//! declared wake-up. Machine-step accounting is multiplied by the span,
//! so the returned [`ExecOutcome`] is **identical** — bitwise, including
//! counters and completion times — to what the dense oracle produces
//! from the same seed, at `O(#events · m)` instead of
//! `O(makespan · m)` cost.
//!
//! All per-trial working memory lives in an `EventsScratch`: the
//! one-shot [`execute_events`] builds a fresh one, while the batch
//! engine's non-stationary fallback keeps a single scratch across every
//! trial of a cell (`execute_events_in`), so the precedence DAG,
//! eligibility topology and per-job columns are built once instead of
//! once per trial.

use super::{clamp_wake, geometric_steps, star_steps, ExecConfig, ExecOutcome, JobRandomness};
use super::{Semantics, NEVER};
use crate::policy::{Assignment, Policy, StateView};
use suu_core::{EligibilityState, EligibilityTopology, MachineId, SuuInstance};

/// Reusable per-trial working state of the event engine: the shared
/// eligibility topology plus every per-job column and scratch buffer one
/// execution needs. Constructing it is the expensive part of a trial on
/// small instances (DAG materialization, successor lists, allocations);
/// resetting it is a handful of `fill`s.
pub(crate) struct EventsScratch {
    topo: EligibilityTopology,
    state: EligibilityState,
    thresholds: Vec<f64>,
    accrued: Vec<f64>,
    coin_draws: Vec<u32>,
    step_mass: Vec<f64>,
    seen: Vec<bool>,
    deadline: Vec<u64>,
    touched: Vec<u32>,
    out: Assignment,
}

impl EventsScratch {
    pub(crate) fn new(inst: &SuuInstance) -> Self {
        let n = inst.num_jobs();
        let m = inst.num_machines();
        let dag = inst.precedence().to_dag(n);
        let topo = EligibilityTopology::new(&dag);
        let state = topo.new_state();
        EventsScratch {
            topo,
            state,
            thresholds: Vec::with_capacity(n),
            accrued: vec![0.0; n],
            coin_draws: vec![0; n],
            step_mass: vec![0.0; n],
            seen: vec![false; n],
            deadline: vec![NEVER; n],
            touched: Vec::with_capacity(m),
            out: Assignment::new(m),
        }
    }
}

/// Execute `policy` on `inst`, fast-forwarding between decision epochs.
pub fn execute_events(
    inst: &SuuInstance,
    policy: &mut dyn Policy,
    cfg: &ExecConfig,
    seed: u64,
) -> ExecOutcome {
    execute_events_in(inst, policy, cfg, seed, &mut EventsScratch::new(inst))
}

/// [`execute_events`] against caller-owned scratch. `scratch` must have
/// been built from this `inst`; it is fully reset here, so reuse across
/// trials is invisible in the outcome (bitwise).
pub(crate) fn execute_events_in(
    inst: &SuuInstance,
    policy: &mut dyn Policy,
    cfg: &ExecConfig,
    seed: u64,
    s: &mut EventsScratch,
) -> ExecOutcome {
    let n = inst.num_jobs();
    let m = inst.num_machines();
    debug_assert_eq!(s.topo.num_jobs(), n, "scratch built for another instance");
    policy.reset();

    s.topo.reset_state(&mut s.state);
    let rnd = JobRandomness::new(seed);

    s.thresholds.clear();
    if cfg.semantics == Semantics::SuuStar {
        s.thresholds.extend((0..n as u32).map(|j| rnd.threshold(j)));
    }
    s.accrued.fill(0.0);
    s.coin_draws.fill(0);
    // `step_mass`/`seen` hold their all-zero/false invariant across
    // epochs *and* trials (every epoch resets what it touched), and
    // `deadline` entries are written before any read — no reset needed.
    let mut completion_time = vec![u64::MAX; n];

    let mut busy_steps = 0u64;
    let mut idle_steps = 0u64;
    let mut ineligible = 0u64;

    let mut t = 0u64;
    loop {
        if s.state.all_done() {
            return ExecOutcome {
                makespan: t,
                completed: true,
                busy_steps,
                idle_steps,
                ineligible_assignments: ineligible,
                completion_time,
            };
        }
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

        // ---- decision epoch ----
        s.out.clear();
        let decision = {
            let view = StateView {
                time: t,
                epoch: s.state.epoch(),
                remaining: s.state.remaining(),
                eligible: s.state.eligible(),
                n,
                m,
            };
            policy.decide(&view, &mut s.out)
        };
        let wake = clamp_wake(decision.next_wakeup, t);

        // Classify machines under the held assignment (per-step rates).
        let mut busy_m = 0u64;
        let mut idle_m = 0u64;
        let mut inel_m = 0u64;
        s.touched.clear();
        for i in 0..m {
            match s.out.get(i) {
                None => idle_m += 1,
                Some(j) => {
                    let ji = j.index();
                    debug_assert!(ji < n, "policy assigned out-of-range job");
                    if !s.state.remaining().contains(j.0) {
                        idle_m += 1;
                    } else if !s.state.eligible().contains(j.0) {
                        inel_m += 1;
                    } else {
                        if !s.seen[ji] {
                            s.seen[ji] = true;
                            s.touched.push(j.0);
                        }
                        s.step_mass[ji] += inst.ell(MachineId(i as u32), j);
                        busy_m += 1;
                    }
                }
            }
        }

        // Sample/compute each running job's completion deadline.
        let mut next_completion = NEVER;
        for &j in &s.touched {
            let ji = j as usize;
            let mass = s.step_mass[ji];
            if mass <= 0.0 {
                s.deadline[ji] = NEVER; // only q=1 machines: no progress
                continue;
            }
            let steps = match cfg.semantics {
                Semantics::SuuStar => star_steps(s.accrued[ji], s.thresholds[ji], mass),
                Semantics::Suu => {
                    let u = rnd.coin(j, s.coin_draws[ji]);
                    s.coin_draws[ji] += 1;
                    geometric_steps(u, mass)
                }
            };
            s.deadline[ji] = t.saturating_add(steps);
            next_completion = next_completion.min(s.deadline[ji]);
        }

        let event_t = next_completion.min(wake.unwrap_or(NEVER));
        if event_t > cfg.max_steps {
            // No event inside the step cap: burn the remaining steps at
            // the held rates (exactly what the dense stepper would
            // accumulate) and report incomplete at the cap.
            let span = cfg.max_steps - t;
            busy_steps += busy_m * span;
            idle_steps += idle_m * span;
            ineligible += inel_m * span;
            for &j in &s.touched {
                s.step_mass[j as usize] = 0.0;
                s.seen[j as usize] = false;
            }
            t = cfg.max_steps;
            continue;
        }

        // ---- fast-forward to the event ----
        let span = event_t - t; // ≥ 1: wake is clamped past t, deadlines too
        busy_steps += busy_m * span;
        idle_steps += idle_m * span;
        ineligible += inel_m * span;

        for &j in &s.touched {
            let ji = j as usize;
            let mass = s.step_mass[ji];
            s.step_mass[ji] = 0.0;
            s.seen[ji] = false;
            if mass <= 0.0 {
                continue;
            }
            if cfg.semantics == Semantics::SuuStar {
                // Same expression as the dense stepper's final value for
                // this segment: base + k·µ with one multiply.
                s.accrued[ji] += span as f64 * mass;
            }
            if s.deadline[ji] == event_t {
                completion_time[ji] = event_t;
                s.state.complete(&s.topo, j);
            }
            // Survivors re-sample at the next epoch (geometric
            // memorylessness keeps SUU exact; SUU* just re-bases).
        }

        t = event_t;
    }
}
