//! MapReduce-style two-phase scheduling (paper §1's motivating example).
//!
//! ```sh
//! cargo run --release --example mapreduce
//! ```
//!
//! Google's MapReduce generates dependencies forming a complete bipartite
//! graph — equivalent to two consecutive phases of independent jobs. This
//! example registers a custom `two-phase-sem` policy (SUU-I-SEM per
//! phase, via its job-subset mode) into the standard registry — the
//! extension point any new schedule uses — and races it against the
//! naive baselines on a data-local MapReduce scenario. Prints the shared
//! `suu-results/v2` JSON document.

use std::sync::Arc;
use suu::algos::SemPolicy;
use suu::bench::runner::{run_race_with, Race};
use suu::bench::scenario::Scenario;
use suu::core::SuuInstance;
use suu::sim::{Assignment, Decision, Policy, Precision, RegistryError, StateView, StructureClass};

/// Phase-aware schedule: `SUU-I-SEM` on the maps, then on the reduces.
struct TwoPhaseSem {
    maps: SemPolicy,
    reduces: SemPolicy,
}

impl TwoPhaseSem {
    fn build(inst: Arc<SuuInstance>, num_maps: usize) -> Result<Self, suu::algos::AlgoError> {
        let n = inst.num_jobs();
        let map_ids: Vec<u32> = (0..num_maps as u32).collect();
        let reduce_ids: Vec<u32> = (num_maps as u32..n as u32).collect();
        Ok(TwoPhaseSem {
            maps: SemPolicy::for_jobs(inst.clone(), Some(map_ids))?,
            reduces: SemPolicy::for_jobs(inst, Some(reduce_ids))?,
        })
    }
}

impl Policy for TwoPhaseSem {
    fn name(&self) -> &str {
        "two-phase-sem"
    }
    fn reset(&mut self) {
        self.maps.reset();
        self.reduces.reset();
    }
    fn decide(&mut self, view: &StateView<'_>, out: &mut Assignment) -> Decision {
        // The phase switch happens at a completion event, so the engine
        // is guaranteed to consult us exactly when the maps finish.
        if !self.maps.is_done(view.remaining) {
            self.maps.decide(view, out)
        } else {
            self.reduces.decide(view, out)
        }
    }
}

fn main() {
    let (maps, reduces, m) = (24usize, 8usize, 8usize);

    // The registry extension point: any schedule becomes raceable by name.
    let mut registry = suu::algos::standard_registry();
    registry.register("two-phase-sem", StructureClass::Dag, move |inst, spec| {
        let phase_split = spec.u64_param("maps", maps as u64)? as usize;
        let policy = TwoPhaseSem::build(inst.clone(), phase_split).map_err(|e| {
            RegistryError::BuildFailed {
                policy: spec.name.clone(),
                reason: e.to_string(),
            }
        })?;
        Ok(Box::new(policy) as Box<dyn Policy>)
    });

    let doc = run_race_with(
        Race {
            title: format!("mapreduce: {maps} maps -> {reduces} reduces on {m} machines"),
            generated_by: "example:mapreduce".to_string(),
            scenarios: vec![Scenario::mapreduce(maps, reduces, m, 99)],
            policies: ["round-robin", "best-machine", "two-phase-sem"]
                .map(String::from)
                .to_vec(),
            precision: Precision::FixedTrials(150),
            master_seed: 5,
            ratios_to_lower_bound: false,
            ..Race::default()
        },
        &registry,
    );

    println!("\nThe two-phase schedule applies Theorem 4 to each phase, which");
    println!("is exactly how the paper treats MapReduce-shaped dependencies.");
    println!("Data locality (shard-local reliability) punishes affinity-blind");
    println!("schedules like round-robin.\n");
    println!("{}", doc.to_pretty());
}
