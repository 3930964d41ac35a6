//! Registration of every schedule this crate knows into the unified
//! [`suu_sim::PolicyRegistry`].
//!
//! | registry name | family | capability | stationary | parameters |
//! |---|---|---|---|---|
//! | `gang-sequential` | naive `O(n)` fallback | dag | yes | — |
//! | `round-robin` | naive spread | dag | no | — |
//! | `best-machine` | greedy matching | dag | yes | — |
//! | `greedy-lr` | Lin–Rajaraman-style greedy \[11\] | dag | yes | — |
//! | `suu-i-obl` | Theorem 3 oblivious `O(log n)` | independent | no | — |
//! | `suu-i-sem` | Theorem 4 semioblivious `O(log log)` | independent | no | — |
//! | `suu-c` | Theorems 7/9 chain schedule | chains | no | `delay`, `coarsen` (bool), `seed`, `fallback` (u64) |
//! | `suu-t` | Theorem 12 forest schedule | forest | no | same as `suu-c` |
//! | `exact-opt` | MDP optimum (tiny instances) | dag | yes | `max_jobs`, `max_ops` (u64) |
//!
//! *Stationary* ([`Policy::is_stationary`]) marks schedules whose row is
//! a pure function of the remaining set; the batched trial engine shares
//! one decision per remaining set across a whole batch for them.
//!
//! Structure is derived from the instance: `suu-c` on an independent
//! instance schedules singleton chains, `suu-t` accepts chains or
//! independent sets as degenerate forests. The registry itself rejects
//! anything *above* a family's declared capability.

use crate::baselines::{BestMachinePolicy, GangSequentialPolicy, LrGreedyPolicy, RoundRobinPolicy};
use crate::opt::{OptLimits, OptPolicy};
use crate::suu_c::{ChainConfig, ChainPolicy};
use crate::suu_i_obl::OblPolicy;
use crate::suu_i_sem::SemPolicy;
use crate::suu_t::ForestPolicy;
use crate::AlgoError;
use suu_core::{Precedence, SuuInstance};
use suu_dag::{ChainSet, Forest};
use suu_sim::{Policy, PolicyRegistry, PolicySpec, RegistryError, StructureClass};

fn build_failed(spec: &PolicySpec, err: AlgoError) -> RegistryError {
    RegistryError::BuildFailed {
        policy: spec.name.clone(),
        reason: err.to_string(),
    }
}

fn reject_unknown(spec: &PolicySpec, known: &[&str]) -> Result<(), RegistryError> {
    let unknown = spec.unknown_params(known);
    if unknown.is_empty() {
        Ok(())
    } else {
        Err(RegistryError::UnknownParams {
            policy: spec.name.clone(),
            keys: unknown,
        })
    }
}

/// Shared `suu-c` / `suu-t` parameter block.
fn chain_config(spec: &PolicySpec) -> Result<ChainConfig, RegistryError> {
    let default = ChainConfig::default();
    Ok(ChainConfig {
        use_random_delay: spec.bool_param("delay", default.use_random_delay)?,
        coarsen: spec.bool_param("coarsen", default.coarsen)?,
        seed: spec.u64_param("seed", default.seed)?,
        fallback_factor: spec.u64_param("fallback", default.fallback_factor)?,
    })
}

/// The instance's chain decomposition: real chains, or singletons for an
/// independent set.
fn chains_of(inst: &SuuInstance) -> Vec<Vec<u32>> {
    match inst.precedence() {
        Precedence::Chains(cs) => cs.chains().to_vec(),
        _ => ChainSet::singletons(inst.num_jobs()).chains().to_vec(),
    }
}

/// The instance's forest view: real forests pass through; chains and
/// independent sets are degenerate (path / edgeless) out-forests.
fn forest_of(inst: &SuuInstance) -> Result<Forest, AlgoError> {
    match inst.precedence() {
        Precedence::Forest(f) => Ok(f.clone()),
        Precedence::Chains(cs) => {
            let mut parent = vec![None; cs.num_jobs()];
            for chain in cs.chains() {
                for pair in chain.windows(2) {
                    parent[pair[1] as usize] = Some(pair[0]);
                }
            }
            Forest::out_forest(parent).map_err(|e| AlgoError::BadInput(e.to_string()))
        }
        Precedence::Independent => Forest::out_forest(vec![None; inst.num_jobs()])
            .map_err(|e| AlgoError::BadInput(e.to_string())),
        Precedence::Dag(_) => Err(AlgoError::BadInput(
            "general DAGs have no forest decomposition".to_string(),
        )),
    }
}

/// Register every family of this crate into `registry`.
pub fn register_standard(registry: &mut PolicyRegistry) {
    registry.register("gang-sequential", StructureClass::Dag, |_inst, spec| {
        reject_unknown(spec, &[])?;
        Ok(Box::new(GangSequentialPolicy::new()) as Box<dyn Policy>)
    });

    registry.register("round-robin", StructureClass::Dag, |_inst, spec| {
        reject_unknown(spec, &[])?;
        Ok(Box::new(RoundRobinPolicy::new()) as Box<dyn Policy>)
    });

    registry.register("best-machine", StructureClass::Dag, |inst, spec| {
        reject_unknown(spec, &[])?;
        Ok(Box::new(BestMachinePolicy::new(inst.clone())) as Box<dyn Policy>)
    });

    registry.register("greedy-lr", StructureClass::Dag, |inst, spec| {
        reject_unknown(spec, &[])?;
        Ok(Box::new(LrGreedyPolicy::new(inst.clone())) as Box<dyn Policy>)
    });

    registry.register("suu-i-obl", StructureClass::Independent, |inst, spec| {
        reject_unknown(spec, &[])?;
        let policy = OblPolicy::build(inst).map_err(|e| build_failed(spec, e))?;
        Ok(Box::new(policy) as Box<dyn Policy>)
    });

    registry.register("suu-i-sem", StructureClass::Independent, |inst, spec| {
        reject_unknown(spec, &[])?;
        let policy = SemPolicy::build(inst.clone()).map_err(|e| build_failed(spec, e))?;
        Ok(Box::new(policy) as Box<dyn Policy>)
    });

    registry.register("suu-c", StructureClass::Chains, |inst, spec| {
        reject_unknown(spec, &["delay", "coarsen", "seed", "fallback"])?;
        let cfg = chain_config(spec)?;
        let policy = ChainPolicy::build(inst.clone(), chains_of(inst), cfg)
            .map_err(|e| build_failed(spec, e))?;
        Ok(Box::new(policy) as Box<dyn Policy>)
    });

    registry.register("suu-t", StructureClass::Forest, |inst, spec| {
        reject_unknown(spec, &["delay", "coarsen", "seed", "fallback"])?;
        let cfg = chain_config(spec)?;
        let forest = forest_of(inst).map_err(|e| build_failed(spec, e))?;
        let policy =
            ForestPolicy::build(inst.clone(), &forest, cfg).map_err(|e| build_failed(spec, e))?;
        Ok(Box::new(policy) as Box<dyn Policy>)
    });

    registry.register("exact-opt", StructureClass::Dag, |inst, spec| {
        reject_unknown(spec, &["max_jobs", "max_ops"])?;
        let defaults = OptLimits::default();
        let limits = OptLimits {
            max_jobs: spec.u64_param("max_jobs", defaults.max_jobs as u64)? as usize,
            max_ops: spec.u64_param("max_ops", defaults.max_ops)?,
        };
        let policy = OptPolicy::build(inst, limits).ok_or_else(|| RegistryError::BuildFailed {
            policy: spec.name.clone(),
            reason: format!(
                "instance exceeds exact-OPT limits (n = {}, max_jobs = {})",
                inst.num_jobs(),
                limits.max_jobs
            ),
        })?;
        Ok(Box::new(policy) as Box<dyn Policy>)
    });
}

/// A fresh registry containing every schedule family in this crate.
pub fn standard_registry() -> PolicyRegistry {
    let mut registry = PolicyRegistry::new();
    register_standard(&mut registry);
    registry
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;
    use std::sync::Arc;
    use suu_core::workload;
    use suu_dag::generators;
    use suu_sim::{spec_factory, Evaluator};

    fn independent(n: usize) -> Arc<SuuInstance> {
        let mut rng = SmallRng::seed_from_u64(n as u64);
        Arc::new(workload::uniform_unrelated(
            3,
            n,
            0.2,
            0.9,
            Precedence::Independent,
            &mut rng,
        ))
    }

    #[test]
    fn stationary_annotations_match_the_table() {
        // The batched engine trusts these flags for decision sharing, so
        // pin them: only the remaining-set-pure families may claim
        // stationarity.
        let reg = standard_registry();
        let inst = independent(5);
        for (name, stationary) in [
            ("gang-sequential", true),
            ("round-robin", false),
            ("best-machine", true),
            ("greedy-lr", true),
            ("suu-i-obl", false),
            ("suu-i-sem", false),
            ("suu-c", false),
            ("suu-t", false),
            ("exact-opt", true),
        ] {
            let policy = reg.build_named(&inst, name).unwrap();
            assert_eq!(policy.is_stationary(), stationary, "{name}");
        }
    }

    #[test]
    fn every_family_is_registered() {
        let reg = standard_registry();
        let names = reg.names();
        for expected in [
            "best-machine",
            "exact-opt",
            "gang-sequential",
            "greedy-lr",
            "round-robin",
            "suu-c",
            "suu-i-obl",
            "suu-i-sem",
            "suu-t",
        ] {
            assert!(
                names.contains(&expected),
                "{expected} missing from {names:?}"
            );
        }
    }

    #[test]
    fn every_family_builds_and_completes_on_independent_jobs() {
        let reg = standard_registry();
        let inst = independent(6);
        let eval = Evaluator::seeded(5, 42);
        for name in reg.names() {
            let report = eval.run(
                &inst,
                spec_factory(&reg, &inst, &PolicySpec::new(name))
                    .unwrap_or_else(|e| panic!("{name}: {e}")),
            );
            assert!(report.all_completed(), "{name} hit the step cap");
            assert_eq!(report.total_ineligible(), 0, "{name} violated eligibility");
        }
    }

    #[test]
    fn capability_gates_fire() {
        let reg = standard_registry();
        let mut rng = SmallRng::seed_from_u64(5);
        let cs = generators::random_chain_set(8, 3, &mut rng);
        let chained = Arc::new(workload::uniform_unrelated(
            3,
            8,
            0.2,
            0.9,
            Precedence::Chains(cs),
            &mut rng,
        ));
        // Independent-only families refuse chains…
        for name in ["suu-i-obl", "suu-i-sem"] {
            assert!(matches!(
                reg.build_named(&chained, name),
                Err(RegistryError::UnsupportedStructure { .. })
            ));
        }
        // …while the chain/forest/dag families accept them.
        for name in ["suu-c", "suu-t", "greedy-lr", "exact-opt"] {
            reg.build_named(&chained, name)
                .unwrap_or_else(|e| panic!("{name}: {e}"));
        }
        // General DAGs stop the forest family too.
        let dag = generators::layered_dag(8, 3, 0.3, &mut rng);
        let dag_inst = Arc::new(workload::uniform_unrelated(
            3,
            8,
            0.2,
            0.9,
            Precedence::Dag(dag),
            &mut rng,
        ));
        assert!(matches!(
            reg.build_named(&dag_inst, "suu-t"),
            Err(RegistryError::UnsupportedStructure { .. })
        ));
    }

    #[test]
    fn params_flow_through_and_typos_are_rejected() {
        let reg = standard_registry();
        let inst = independent(5);
        assert!(reg.build_named(&inst, "suu-c(seed=9,delay=false)").is_ok());
        for typo in ["suu-c(sead=9)", "greedy-lr(target=1.0)"] {
            assert!(
                matches!(
                    reg.build_named(&inst, typo),
                    Err(RegistryError::UnknownParams { .. })
                ),
                "{typo}"
            );
        }
        assert!(matches!(
            reg.build_named(&inst, "suu-c(seed=notanumber)"),
            Err(RegistryError::BadParam { .. })
        ));
    }

    #[test]
    fn exact_opt_refuses_large_instances() {
        let reg = standard_registry();
        let inst = independent(6);
        assert!(matches!(
            reg.build_named(&inst, "exact-opt(max_jobs=3)"),
            Err(RegistryError::BuildFailed { .. })
        ));
    }

    #[test]
    fn exact_opt_beats_or_matches_every_policy_in_simulation() {
        let reg = standard_registry();
        let inst = independent(5);
        let eval = Evaluator::seeded(300, 7);
        let opt_mean = eval
            .run(
                &inst,
                spec_factory(&reg, &inst, &PolicySpec::new("exact-opt")).unwrap(),
            )
            .mean_makespan();
        for name in ["gang-sequential", "round-robin", "suu-i-obl"] {
            let mean = eval
                .run(
                    &inst,
                    spec_factory(&reg, &inst, &PolicySpec::new(name)).unwrap(),
                )
                .mean_makespan();
            // Sampling noise allowance: OPT should not lose by a margin.
            assert!(
                opt_mean <= mean * 1.15 + 0.5,
                "{name}: OPT {opt_mean:.2} vs {mean:.2}"
            );
        }
    }
}
