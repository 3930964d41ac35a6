//! The unified policy registry: every schedule behind one constructor.
//!
//! The paper's algorithm families target specific precedence shapes
//! (SUU-I for independent jobs, SUU-C for chains, SUU-T for forests), the
//! baselines run anywhere, and exact OPT only fits tiny instances. Before
//! this registry existed, each experiment binary hand-wired the subset of
//! constructors it knew about; comparing a new policy across every
//! scenario meant touching a dozen call sites.
//!
//! Now a schedule is named by a [`PolicySpec`] — `"suu-i-sem"`,
//! `"suu-c(seed=7)"` — and built by the family registered under that
//! name in a [`PolicyRegistry`]. Each family is registered with the most
//! general [`StructureClass`] it supports, and the registry refuses (with
//! a precise error) to build a policy on an instance outside its class,
//! so capability mismatches fail loudly at construction rather than as
//! silent precedence violations mid-trial.
//!
//! `suu-sim` owns the registry; `suu-algos` registers the paper's
//! algorithms, the baselines and exact OPT into a
//! `standard_registry()` (it cannot live here: `suu-algos` depends on
//! this crate).

use crate::policy::Policy;
use std::collections::BTreeMap;
use std::fmt;
use std::sync::Arc;
use suu_core::{Precedence, SuuInstance};

/// Precedence structure classes, ordered by generality: every independent
/// instance is a chain set (singletons), every chain set is a forest
/// (paths), every forest is a DAG.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum StructureClass {
    /// No precedence constraints.
    Independent,
    /// Disjoint chains.
    Chains,
    /// Directed in-/out-forest.
    Forest,
    /// Arbitrary DAG.
    Dag,
}

impl StructureClass {
    /// The class of an instance's precedence structure.
    pub fn of(prec: &Precedence) -> StructureClass {
        match prec {
            Precedence::Independent => StructureClass::Independent,
            Precedence::Chains(_) => StructureClass::Chains,
            Precedence::Forest(_) => StructureClass::Forest,
            Precedence::Dag(_) => StructureClass::Dag,
        }
    }

    /// Stable lowercase name (used in specs, errors, and JSON reports).
    pub fn name(self) -> &'static str {
        match self {
            StructureClass::Independent => "independent",
            StructureClass::Chains => "chains",
            StructureClass::Forest => "forest",
            StructureClass::Dag => "dag",
        }
    }
}

impl fmt::Display for StructureClass {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// A named, parameterized policy specification.
///
/// The textual form is `name` or `name(key=value, key=value)`:
/// `"greedy-lr"`, `"suu-c(seed=99, coarsen=true)"`. Parameters are typed
/// at the build boundary via [`PolicySpec::u64_param`] and friends.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PolicySpec {
    /// Registry name of the policy family.
    pub name: String,
    /// Family-specific parameters (sorted for stable display).
    pub params: BTreeMap<String, String>,
}

impl PolicySpec {
    /// Spec with no parameters.
    pub fn new(name: impl Into<String>) -> Self {
        PolicySpec {
            name: name.into(),
            params: BTreeMap::new(),
        }
    }

    /// Builder-style parameter.
    pub fn with(mut self, key: impl Into<String>, value: impl fmt::Display) -> Self {
        self.params.insert(key.into(), value.to_string());
        self
    }

    /// Parse `name` or `name(k=v, ...)`.
    pub fn parse(s: &str) -> Result<Self, RegistryError> {
        let s = s.trim();
        let bad = |why: &str| RegistryError::ParseError {
            spec: s.to_string(),
            reason: why.to_string(),
        };
        let Some(open) = s.find('(') else {
            if s.is_empty() {
                return Err(bad("empty spec"));
            }
            return Ok(PolicySpec::new(s));
        };
        if !s.ends_with(')') {
            return Err(bad("missing closing parenthesis"));
        }
        let name = s[..open].trim();
        if name.is_empty() {
            return Err(bad("empty policy name"));
        }
        let mut spec = PolicySpec::new(name);
        let body = &s[open + 1..s.len() - 1];
        for pair in body.split(',') {
            let pair = pair.trim();
            if pair.is_empty() {
                continue;
            }
            let Some((k, v)) = pair.split_once('=') else {
                return Err(bad("parameter without '='"));
            };
            spec.params
                .insert(k.trim().to_string(), v.trim().to_string());
        }
        Ok(spec)
    }

    /// Typed access: `u64` parameter with a default.
    pub fn u64_param(&self, key: &str, default: u64) -> Result<u64, RegistryError> {
        self.typed_param(key, default, "u64", |v| v.parse().ok())
    }

    /// Typed access: `bool` parameter with a default.
    pub fn bool_param(&self, key: &str, default: bool) -> Result<bool, RegistryError> {
        self.typed_param(key, default, "bool", |v| v.parse().ok())
    }

    fn typed_param<T>(
        &self,
        key: &str,
        default: T,
        expected: &'static str,
        parse: impl Fn(&str) -> Option<T>,
    ) -> Result<T, RegistryError> {
        match self.params.get(key) {
            None => Ok(default),
            Some(v) => parse(v).ok_or_else(|| RegistryError::BadParam {
                policy: self.name.clone(),
                key: key.to_string(),
                value: v.clone(),
                expected,
            }),
        }
    }

    /// Keys this spec carries that are not in `known` — used by families
    /// to reject typos instead of silently ignoring them.
    pub fn unknown_params(&self, known: &[&str]) -> Vec<String> {
        self.params
            .keys()
            .filter(|k| !known.contains(&k.as_str()))
            .cloned()
            .collect()
    }
}

impl fmt::Display for PolicySpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.name)?;
        if !self.params.is_empty() {
            let body: Vec<String> = self
                .params
                .iter()
                .map(|(k, v)| format!("{k}={v}"))
                .collect();
            write!(f, "({})", body.join(","))?;
        }
        Ok(())
    }
}

/// Why a registry lookup or build failed.
#[derive(Debug)]
pub enum RegistryError {
    /// No family under that name.
    UnknownPolicy {
        /// Requested name.
        name: String,
        /// Registered names, for the error message.
        known: Vec<String>,
    },
    /// The instance's precedence class exceeds the family's capability.
    UnsupportedStructure {
        /// Policy name.
        policy: String,
        /// Instance class.
        class: StructureClass,
        /// Most general class the family supports.
        capability: StructureClass,
    },
    /// A parameter failed to parse as its declared type.
    BadParam {
        /// Policy name.
        policy: String,
        /// Parameter key.
        key: String,
        /// Offending value.
        value: String,
        /// Expected type name.
        expected: &'static str,
    },
    /// The spec carried parameters the family does not know.
    UnknownParams {
        /// Policy name.
        policy: String,
        /// The unrecognized keys.
        keys: Vec<String>,
    },
    /// Construction itself failed (LP infeasibility, instance too large…).
    BuildFailed {
        /// Policy name.
        policy: String,
        /// Human-readable cause.
        reason: String,
    },
    /// A textual spec failed to parse.
    ParseError {
        /// The input.
        spec: String,
        /// What was wrong.
        reason: String,
    },
}

impl fmt::Display for RegistryError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RegistryError::UnknownPolicy { name, known } => {
                write!(f, "unknown policy {name:?}; registered: {}", known.join(", "))
            }
            RegistryError::UnsupportedStructure {
                policy,
                class,
                capability,
            } => write!(
                f,
                "policy {policy:?} supports precedence up to {capability} but the instance is {class}"
            ),
            RegistryError::BadParam {
                policy,
                key,
                value,
                expected,
            } => write!(f, "policy {policy:?}: parameter {key}={value:?} is not a {expected}"),
            RegistryError::UnknownParams { policy, keys } => {
                write!(f, "policy {policy:?}: unknown parameters {}", keys.join(", "))
            }
            RegistryError::BuildFailed { policy, reason } => {
                write!(f, "policy {policy:?} failed to build: {reason}")
            }
            RegistryError::ParseError { spec, reason } => {
                write!(f, "bad policy spec {spec:?}: {reason}")
            }
        }
    }
}

impl std::error::Error for RegistryError {}

/// How a family builds an executable policy for an instance and spec.
///
/// The registry has already checked the family's capability; the build
/// may still fail on parameters or construction (e.g. LP solve errors).
type BuildFn =
    dyn Fn(&Arc<SuuInstance>, &PolicySpec) -> Result<Box<dyn Policy>, RegistryError> + Send + Sync;

/// One registered family: its capability and how to build it.
struct Family {
    capability: StructureClass,
    build: Box<BuildFn>,
}

/// Name → family map with capability checking.
#[derive(Default)]
pub struct PolicyRegistry {
    families: BTreeMap<String, Family>,
}

impl PolicyRegistry {
    /// Empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Register a family under `name` (stable; used in specs and
    /// reports): the most general [`StructureClass`] it can schedule and
    /// its build closure. Replaces any family already under that name.
    pub fn register<F>(&mut self, name: impl Into<String>, capability: StructureClass, build: F)
    where
        F: Fn(&Arc<SuuInstance>, &PolicySpec) -> Result<Box<dyn Policy>, RegistryError>
            + Send
            + Sync
            + 'static,
    {
        let build = Box::new(build);
        self.families
            .insert(name.into(), Family { capability, build });
    }

    /// Registered names, sorted.
    pub fn names(&self) -> Vec<&str> {
        self.families.keys().map(|k| k.as_str()).collect()
    }

    /// Build a policy from a spec, enforcing the capability declaration.
    pub fn build(
        &self,
        inst: &Arc<SuuInstance>,
        spec: &PolicySpec,
    ) -> Result<Box<dyn Policy>, RegistryError> {
        let family = self
            .families
            .get(&spec.name)
            .ok_or_else(|| RegistryError::UnknownPolicy {
                name: spec.name.clone(),
                known: self.names().iter().map(|s| s.to_string()).collect(),
            })?;
        let class = StructureClass::of(inst.precedence());
        if class > family.capability {
            return Err(RegistryError::UnsupportedStructure {
                policy: spec.name.clone(),
                class,
                capability: family.capability,
            });
        }
        (family.build)(inst, spec)
    }

    /// Build from the textual spec form (`"suu-c(seed=7)"`).
    pub fn build_named(
        &self,
        inst: &Arc<SuuInstance>,
        spec: &str,
    ) -> Result<Box<dyn Policy>, RegistryError> {
        self.build(inst, &PolicySpec::parse(spec)?)
    }
}

impl fmt::Debug for PolicyRegistry {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("PolicyRegistry")
            .field("names", &self.names())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::{Assignment, Decision, StateView};
    use suu_core::workload;

    struct Idle;
    impl Policy for Idle {
        fn name(&self) -> &str {
            "idle"
        }
        fn reset(&mut self) {}
        fn decide(&mut self, _view: &StateView<'_>, _out: &mut Assignment) -> Decision {
            Decision::HOLD
        }
    }

    fn register_idle(reg: &mut PolicyRegistry, cap: StructureClass) {
        reg.register("idle", cap, |_, spec| {
            let _ = spec.u64_param("k", 0)?;
            Ok(Box::new(Idle) as Box<dyn Policy>)
        });
    }

    #[test]
    fn spec_parse_roundtrip() {
        let spec = PolicySpec::parse("suu-c(seed=7, coarsen=true)").unwrap();
        assert_eq!(spec.name, "suu-c");
        assert_eq!(spec.params["seed"], "7");
        assert_eq!(spec.to_string(), "suu-c(coarsen=true,seed=7)");
        assert_eq!(PolicySpec::parse("plain").unwrap().to_string(), "plain");
        assert!(PolicySpec::parse("").is_err());
        assert!(PolicySpec::parse("x(k)").is_err());
        assert!(PolicySpec::parse("x(k=1").is_err());
    }

    #[test]
    fn typed_params_and_defaults() {
        let spec = PolicySpec::new("p").with("seed", 9).with("flag", true);
        assert_eq!(spec.u64_param("seed", 0).unwrap(), 9);
        assert_eq!(spec.u64_param("missing", 3).unwrap(), 3);
        assert!(spec.bool_param("flag", false).unwrap());
        let bad = PolicySpec::new("p").with("seed", "abc");
        assert!(matches!(
            bad.u64_param("seed", 0),
            Err(RegistryError::BadParam { .. })
        ));
        assert_eq!(spec.unknown_params(&["seed", "flag"]), Vec::<String>::new());
        assert_eq!(spec.unknown_params(&["seed"]), vec!["flag".to_string()]);
    }

    #[test]
    fn structure_class_ordering_matches_generality() {
        assert!(StructureClass::Independent < StructureClass::Chains);
        assert!(StructureClass::Chains < StructureClass::Forest);
        assert!(StructureClass::Forest < StructureClass::Dag);
    }

    #[test]
    fn registry_builds_and_enforces_capability() {
        let mut reg = PolicyRegistry::new();
        register_idle(&mut reg, StructureClass::Independent);
        let ind = Arc::new(workload::homogeneous(2, 3, 0.5, Precedence::Independent));
        assert!(reg.build_named(&ind, "idle").is_ok());
        assert!(matches!(
            reg.build_named(&ind, "nope"),
            Err(RegistryError::UnknownPolicy { .. })
        ));

        let dag = suu_dag::Dag::from_edges(3, &[(0, 1)]);
        let chained = Arc::new(workload::homogeneous(2, 3, 0.5, Precedence::Dag(dag)));
        assert!(matches!(
            reg.build_named(&chained, "idle"),
            Err(RegistryError::UnsupportedStructure { .. })
        ));

        // Registering under the same name replaces the family.
        register_idle(&mut reg, StructureClass::Dag);
        assert_eq!(reg.names(), vec!["idle"]);
        assert!(reg.build_named(&chained, "idle").is_ok());
    }
}
