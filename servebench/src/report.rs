//! A run's result: metrics by name and unit, context notes, request
//! accounting and correctness-gate failures; printed as readable lines
//! followed by the one-line JSON result.

use suu_core::json::Json;

#[derive(Default)]
pub struct Report {
    pub metrics: Vec<(String, f64, &'static str)>,
    pub notes: Vec<String>,
    pub attempted: u64,
    pub failed: u64,
    /// Failed correctness gates (any entry makes the run incorrect).
    pub gates: Vec<String>,
}

impl Report {
    pub fn metric(&mut self, name: &str, value: f64, unit: &'static str) {
        self.metrics.push((name.to_string(), value, unit));
    }

    pub fn note(&mut self, note: String) {
        self.notes.push(note);
    }

    /// Record a failed gate; it also counts as a failed request.
    pub fn gate(&mut self, why: String) {
        self.gates.push(why);
        self.failed += 1;
        self.attempted = self.attempted.max(self.failed);
    }

    pub fn correct(&self) -> bool {
        self.gates.is_empty()
    }

    /// The result line: `correct`, `attempted`, `failed`, `metrics`.
    pub fn json(&self) -> String {
        let metrics = self
            .metrics
            .iter()
            .fold(Json::obj(), |obj, (name, value, unit)| {
                obj.field(
                    name.as_str(),
                    Json::obj().field("value", *value).field("unit", *unit),
                )
            });
        Json::obj()
            .field("correct", self.correct())
            .field("attempted", self.attempted.max(1))
            .field("failed", self.failed)
            .field("metrics", metrics)
            .to_compact()
    }

    pub fn print(&self, header: &str) {
        println!("{header}");
        for (name, value, unit) in &self.metrics {
            println!("  {name:<28} {value} {unit}");
        }
        for note in &self.notes {
            println!("  note: {note}");
        }
        for gate in &self.gates {
            println!("  GATE FAILED: {gate}");
        }
        println!("{}", self.json());
    }
}
