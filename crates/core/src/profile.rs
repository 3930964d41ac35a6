//! An in-tree phase profiler for simulation hot loops: scoped phase
//! counters plus a wall-clock timer.
//!
//! The sanctioned dependency list has no profiler crate, and `perf` is
//! not assumed on experiment hosts, so the batch engine carries its own
//! instrumentation. The model is a tiny state machine: the instrumented
//! loop declares which *phase* it is entering (`decide`, `cache-lookup`,
//! `sampling`, `state-update`, …) and the profiler attributes the wall
//! time between transitions to the phase that was current.
//!
//! * [`ProfileMode::Exact`] reads the monotonic clock at every
//!   transition — exact scoped timing. The batch engine transitions
//!   three or four times per decision epoch, so on short epochs the
//!   reads are a visible part of every phase: one exact pass over 1,536
//!   `chains`/`suu-c` trials attributed 57 ms against 38 ms unprofiled
//!   (release build, 2-vCPU host).
//! * [`ProfileMode::Off`] makes [`PhaseProfiler::enter`] a single
//!   predictable branch, so the instrumentation stays compiled into the
//!   hot loop permanently.
//!
//! The mode is chosen in code when the profiler is built, never read
//! from the environment: the batch engine runs [`ProfileMode::Off`]
//! unless its caller picks another mode with `BatchRunner::with_profile`.

use crate::json::Json;
use std::time::Instant;

/// Hard cap on distinct phases (fixed arrays keep the hot path flat).
pub const MAX_PHASES: usize = 8;

/// How (and whether) a [`PhaseProfiler`] attributes wall time.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ProfileMode {
    /// No clock reads; `enter` is one branch.
    Off,
    /// Read the clock on every phase transition.
    Exact,
}

impl ProfileMode {
    fn label(&self) -> &'static str {
        match self {
            ProfileMode::Off => "off",
            ProfileMode::Exact => "exact",
        }
    }
}

/// Phase-bucketed wall time and entry counts for one instrumented loop.
/// See the module docs for the attribution model.
#[derive(Debug, Clone)]
pub struct PhaseProfiler {
    mode: ProfileMode,
    names: &'static [&'static str],
    current: usize,
    last: Option<Instant>,
    nanos: [u64; MAX_PHASES],
    enters: [u64; MAX_PHASES],
}

impl PhaseProfiler {
    /// Profiler over the given phase names (index = phase id).
    pub fn new(names: &'static [&'static str], mode: ProfileMode) -> Self {
        assert!(
            !names.is_empty() && names.len() <= MAX_PHASES,
            "1..={MAX_PHASES} phases required"
        );
        PhaseProfiler {
            mode,
            names,
            current: 0,
            last: None,
            nanos: [0; MAX_PHASES],
            enters: [0; MAX_PHASES],
        }
    }

    /// `true` unless the mode is [`ProfileMode::Off`].
    #[inline]
    pub fn is_enabled(&self) -> bool {
        self.mode != ProfileMode::Off
    }

    /// Declare that phase `phase` starts now. Disabled, this is a single
    /// branch — the hot loop keeps its instrumentation unconditionally.
    #[inline]
    pub fn enter(&mut self, phase: usize) {
        if self.mode == ProfileMode::Off {
            return;
        }
        self.enter_enabled(phase);
    }

    fn enter_enabled(&mut self, phase: usize) {
        debug_assert!(phase < self.names.len(), "unknown phase {phase}");
        self.enters[phase] += 1;
        let now = Instant::now();
        if let Some(last) = self.last {
            self.nanos[self.current] += now.duration_since(last).as_nanos() as u64;
        }
        self.last = Some(now);
        self.current = phase;
    }

    /// Close the open interval, attributing it to the current phase.
    /// Call when the instrumented region ends (e.g. end of a batch run);
    /// the profiler is then ready for the next region.
    pub fn finish(&mut self) {
        if self.mode == ProfileMode::Off {
            return;
        }
        if let Some(last) = self.last.take() {
            self.nanos[self.current] += last.elapsed().as_nanos() as u64;
        }
    }

    /// Snapshot of the accumulated phase breakdown.
    pub fn report(&self) -> ProfileReport {
        ProfileReport {
            mode: self.mode,
            phases: self
                .names
                .iter()
                .enumerate()
                .map(|(i, &name)| PhaseStat {
                    name,
                    nanos: self.nanos[i],
                    enters: self.enters[i],
                })
                .collect(),
        }
    }
}

/// One phase's share of a [`ProfileReport`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PhaseStat {
    /// Phase name as registered with [`PhaseProfiler::new`].
    pub name: &'static str,
    /// Wall nanoseconds attributed to the phase.
    pub nanos: u64,
    /// Exact number of `enter` transitions into the phase.
    pub enters: u64,
}

/// Snapshot of a profiler's phase breakdown, JSON-renderable for bench
/// artifacts.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ProfileReport {
    /// Mode the profiler ran under.
    pub mode: ProfileMode,
    /// Per-phase totals, in registration order.
    pub phases: Vec<PhaseStat>,
}

impl ProfileReport {
    /// Total attributed nanoseconds across all phases.
    pub fn total_nanos(&self) -> u64 {
        self.phases.iter().map(|p| p.nanos).sum()
    }

    /// Render for embedding in a bench artifact cell: mode, per-phase
    /// seconds/entry counts, and each phase's share of attributed time.
    pub fn to_json(&self) -> Json {
        let total = self.total_nanos().max(1) as f64;
        let phases: Vec<Json> = self
            .phases
            .iter()
            .map(|p| {
                Json::obj()
                    .field("phase", p.name)
                    .field("wall_clock_s", p.nanos as f64 * 1e-9)
                    .field("share", p.nanos as f64 / total)
                    .field("enters", p.enters)
            })
            .collect();
        Json::obj()
            .field("mode", self.mode.label())
            .field("phases", Json::Arr(phases))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_profiler_counts_nothing() {
        let mut p = PhaseProfiler::new(&["a", "b"], ProfileMode::Off);
        for _ in 0..100 {
            p.enter(0);
            p.enter(1);
        }
        p.finish();
        let r = p.report();
        assert_eq!(r.total_nanos(), 0);
        assert!(r.phases.iter().all(|ph| ph.enters == 0));
    }

    #[test]
    fn exact_mode_counts_enters_and_attributes_time() {
        let mut p = PhaseProfiler::new(&["work", "rest"], ProfileMode::Exact);
        for _ in 0..10 {
            p.enter(0);
            std::hint::black_box((0..500).sum::<u64>());
            p.enter(1);
        }
        p.finish();
        let r = p.report();
        assert_eq!(r.phases[0].enters, 10);
        assert_eq!(r.phases[1].enters, 10);
        assert!(r.phases[0].nanos > 0, "work phase saw wall time");
    }

    #[test]
    fn report_json_shape() {
        let mut p = PhaseProfiler::new(&["a"], ProfileMode::Exact);
        p.enter(0);
        p.finish();
        let json = p.report().to_json();
        assert_eq!(json.get("mode").and_then(|m| m.as_str()), Some("exact"));
        let phases = json.get("phases").and_then(|p| p.as_array()).unwrap();
        assert_eq!(phases.len(), 1);
        assert_eq!(phases[0].get("phase").and_then(|n| n.as_str()), Some("a"));
        assert!(phases[0].get("enters").is_some());
        assert!(phases[0].get("wall_clock_s").is_some());
        assert!(phases[0].get("share").is_some());
    }
}
