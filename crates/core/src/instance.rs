//! SUU problem instances.

use crate::json::Json;
use crate::logmass::log_failure;
use crate::{JobId, MachineId, Precedence};

/// Errors constructing a [`SuuInstance`].
#[derive(Debug, Clone, PartialEq)]
pub enum InstanceError {
    /// `q` matrix dimensions don't match `m * n`.
    BadDimensions { expected: usize, got: usize },
    /// Some `q_ij` was outside `[0, 1]` (or NaN).
    BadProbability { machine: u32, job: u32, q: f64 },
    /// A job has `q_ij = 1` on every machine, so it can never complete
    /// (the paper assumes this away WLOG).
    UnservableJob(u32),
    /// The precedence structure disagrees with `n` or is cyclic.
    BadPrecedence(String),
}

impl std::fmt::Display for InstanceError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            InstanceError::BadDimensions { expected, got } => {
                write!(f, "q matrix has {got} entries, expected {expected}")
            }
            InstanceError::BadProbability { machine, job, q } => {
                write!(f, "q[{machine},{job}] = {q} outside [0,1]")
            }
            InstanceError::UnservableJob(j) => {
                write!(f, "job {j} fails with probability 1 on every machine")
            }
            InstanceError::BadPrecedence(msg) => write!(f, "bad precedence: {msg}"),
        }
    }
}

impl std::error::Error for InstanceError {}

/// An SUU instance `(J, M, {q_ij}, G)` (paper §2).
///
/// `q[i*n + j]` is the probability that job `j` does **not** complete when
/// machine `i` runs it for one unit step. The log failures
/// `ℓ_ij = −log₂ q_ij` are precomputed since every algorithm works in
/// log-mass space.
#[derive(Debug, Clone)]
pub struct SuuInstance {
    n: usize,
    m: usize,
    q: Vec<f64>,
    ell: Vec<f64>,
    precedence: Precedence,
}

impl SuuInstance {
    /// Build and validate an instance. `q` is machine-major: `q[i*n + j]`.
    pub fn new(
        m: usize,
        n: usize,
        q: Vec<f64>,
        precedence: Precedence,
    ) -> Result<Self, InstanceError> {
        if q.len() != m * n {
            return Err(InstanceError::BadDimensions {
                expected: m * n,
                got: q.len(),
            });
        }
        for i in 0..m {
            for j in 0..n {
                let v = q[i * n + j];
                if !(0.0..=1.0).contains(&v) || v.is_nan() {
                    return Err(InstanceError::BadProbability {
                        machine: i as u32,
                        job: j as u32,
                        q: v,
                    });
                }
            }
        }
        for j in 0..n {
            if (0..m).all(|i| q[i * n + j] >= 1.0) {
                return Err(InstanceError::UnservableJob(j as u32));
            }
        }
        if let Some(pn) = precedence.num_jobs() {
            if pn != n {
                return Err(InstanceError::BadPrecedence(format!(
                    "structure covers {pn} jobs, instance has {n}"
                )));
            }
        }
        if !precedence.to_dag(n).is_acyclic() {
            return Err(InstanceError::BadPrecedence("cyclic".into()));
        }
        let ell = q.iter().map(|&v| log_failure(v)).collect();
        Ok(SuuInstance {
            n,
            m,
            q,
            ell,
            precedence,
        })
    }

    /// Number of jobs `n`.
    #[inline]
    pub fn num_jobs(&self) -> usize {
        self.n
    }

    /// Number of machines `m`.
    #[inline]
    pub fn num_machines(&self) -> usize {
        self.m
    }

    /// Failure probability `q_ij`.
    #[inline]
    pub fn q(&self, i: MachineId, j: JobId) -> f64 {
        self.q[i.index() * self.n + j.index()]
    }

    /// Log failure `ℓ_ij = −log₂ q_ij` (clamped, see [`crate::logmass`]).
    #[inline]
    pub fn ell(&self, i: MachineId, j: JobId) -> f64 {
        self.ell[i.index() * self.n + j.index()]
    }

    /// Raw log-failure row for machine `i` (one entry per job).
    #[inline]
    pub fn ell_row(&self, i: MachineId) -> &[f64] {
        &self.ell[i.index() * self.n..(i.index() + 1) * self.n]
    }

    /// The precedence structure.
    #[inline]
    pub fn precedence(&self) -> &Precedence {
        &self.precedence
    }

    /// The best (largest) log failure available for job `j` on any machine.
    pub fn best_ell(&self, j: JobId) -> f64 {
        (0..self.m)
            .map(|i| self.ell[i * self.n + j.index()])
            .fold(0.0, f64::max)
    }

    /// The machine with the largest `ℓ_ij` for job `j`.
    pub fn best_machine(&self, j: JobId) -> MachineId {
        let mut best = (0usize, f64::NEG_INFINITY);
        for i in 0..self.m {
            let e = self.ell[i * self.n + j.index()];
            if e > best.1 {
                best = (i, e);
            }
        }
        MachineId(best.0 as u32)
    }

    /// Total log mass per step if *all* machines gang up on job `j` —
    /// the rate used by the "one job at a time" fallback policies.
    pub fn gang_mass(&self, j: JobId) -> f64 {
        (0..self.m).map(|i| self.ell[i * self.n + j.index()]).sum()
    }
}

/// JSON wire form: `{ "m", "n", "q", "edges" }`, with the precedence
/// structure canonicalized to its DAG edge list — chain/forest shape tags
/// are not preserved across a round-trip (the edges are, so scheduling
/// semantics are identical; only the shape-specialized algorithms need
/// re-deriving the structure).
impl SuuInstance {
    /// The canonical JSON wire form.
    pub fn to_json(&self) -> Json {
        let dag = self.precedence.to_dag(self.n);
        let mut edges = Vec::new();
        for u in 0..self.n as u32 {
            for &v in dag.successors(u) {
                edges.push(Json::Arr(vec![Json::UInt(u as u64), Json::UInt(v as u64)]));
            }
        }
        Json::obj()
            .field("m", self.m)
            .field("n", self.n)
            .field(
                "q",
                Json::Arr(self.q.iter().map(|&v| Json::Num(v)).collect()),
            )
            .field("edges", Json::Arr(edges))
    }

    /// Rebuild from the wire form produced by [`SuuInstance::to_json`].
    pub fn from_json(doc: &Json) -> Result<Self, InstanceError> {
        let bad = |msg: &str| InstanceError::BadPrecedence(format!("wire form: {msg}"));
        let m = doc
            .get("m")
            .and_then(Json::as_u64)
            .ok_or_else(|| bad("missing m"))? as usize;
        let n = doc
            .get("n")
            .and_then(Json::as_u64)
            .ok_or_else(|| bad("missing n"))? as usize;
        let q: Vec<f64> = doc
            .get("q")
            .and_then(Json::as_array)
            .ok_or_else(|| bad("missing q"))?
            .iter()
            .map(|v| v.as_f64().ok_or_else(|| bad("non-numeric q entry")))
            .collect::<Result<_, _>>()?;
        let mut edges = Vec::new();
        for e in doc
            .get("edges")
            .and_then(Json::as_array)
            .ok_or_else(|| bad("missing edges"))?
        {
            match e.as_array() {
                Some([u, v]) => {
                    let u = u.as_u64().ok_or_else(|| bad("non-integer edge"))? as u32;
                    let v = v.as_u64().ok_or_else(|| bad("non-integer edge"))? as u32;
                    edges.push((u, v));
                }
                _ => return Err(bad("edge is not a pair")),
            }
        }
        let precedence = if edges.is_empty() {
            Precedence::Independent
        } else {
            Precedence::Dag(suu_dag::Dag::from_edges(n, &edges))
        };
        SuuInstance::new(m, n, q, precedence)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn q2x2() -> Vec<f64> {
        // machine 0: [0.5, 0.25]; machine 1: [1.0, 0.5]
        vec![0.5, 0.25, 1.0, 0.5]
    }

    #[test]
    fn construction_and_accessors() {
        let inst = SuuInstance::new(2, 2, q2x2(), Precedence::Independent).unwrap();
        assert_eq!(inst.num_jobs(), 2);
        assert_eq!(inst.num_machines(), 2);
        assert_eq!(inst.q(MachineId(0), JobId(1)), 0.25);
        assert!((inst.ell(MachineId(0), JobId(1)) - 2.0).abs() < 1e-12);
        assert_eq!(inst.ell(MachineId(1), JobId(0)), 0.0); // q = 1
        assert!((inst.best_ell(JobId(0)) - 1.0).abs() < 1e-12);
        assert_eq!(inst.best_machine(JobId(1)).index(), 0);
        assert!((inst.gang_mass(JobId(1)) - 3.0).abs() < 1e-12);
    }

    #[test]
    fn dimension_mismatch_rejected() {
        let err = SuuInstance::new(2, 2, vec![0.5; 3], Precedence::Independent).unwrap_err();
        assert!(matches!(err, InstanceError::BadDimensions { .. }));
    }

    #[test]
    fn bad_probability_rejected() {
        let err = SuuInstance::new(1, 1, vec![1.5], Precedence::Independent).unwrap_err();
        assert!(matches!(err, InstanceError::BadProbability { .. }));
        let err = SuuInstance::new(1, 1, vec![f64::NAN], Precedence::Independent).unwrap_err();
        assert!(matches!(err, InstanceError::BadProbability { .. }));
    }

    #[test]
    fn unservable_job_rejected() {
        let err =
            SuuInstance::new(2, 2, vec![0.5, 1.0, 0.5, 1.0], Precedence::Independent).unwrap_err();
        assert_eq!(err, InstanceError::UnservableJob(1));
    }

    #[test]
    fn precedence_size_mismatch_rejected() {
        let cs = suu_dag::ChainSet::singletons(3);
        let err = SuuInstance::new(1, 2, vec![0.5, 0.5], Precedence::Chains(cs)).unwrap_err();
        assert!(matches!(err, InstanceError::BadPrecedence(_)));
    }

    #[test]
    fn json_wire_form_preserves_semantics() {
        // The wire form canonicalizes precedence to a DAG edge list; a
        // round-trip through actual JSON text must rebuild an instance
        // with identical scheduling semantics.
        use suu_dag::ChainSet;
        let cs = ChainSet::new(2, vec![vec![0, 1]]).unwrap();
        let inst = SuuInstance::new(2, 2, q2x2(), Precedence::Chains(cs)).unwrap();
        let text = inst.to_json().to_pretty();
        let rebuilt = SuuInstance::from_json(&crate::json::parse(&text).unwrap()).unwrap();
        for i in 0..2 {
            for j in 0..2 {
                assert_eq!(
                    rebuilt.q(MachineId(i), JobId(j)),
                    inst.q(MachineId(i), JobId(j))
                );
            }
        }
        assert_eq!(
            rebuilt.precedence().to_dag(2).num_edges(),
            inst.precedence().to_dag(2).num_edges()
        );
    }

    #[test]
    fn json_wire_form_rejects_garbage() {
        let doc = crate::json::parse(r#"{"m": 1, "n": 1}"#).unwrap();
        assert!(SuuInstance::from_json(&doc).is_err());
        let doc = crate::json::parse(r#"{"m": 1, "n": 1, "q": [0.5], "edges": [[0]]}"#).unwrap();
        assert!(SuuInstance::from_json(&doc).is_err());
    }
}
