//! The run's result: end-to-end or per-layer metrics, the correctness
//! verdict, and the one-line JSON the benchmark ends with.

use std::fmt::Write as _;

/// A named metric value with its unit.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

#[derive(Debug, Default)]
pub struct Report {
    pub attempted: u64,
    pub failed: u64,
    /// Correctness failures, each also counted in `failed`.
    pub errors: Vec<String>,
    pub metrics: Vec<Metric>,
    /// Human-readable context printed before the JSON line.
    pub notes: Vec<String>,
}

impl Report {
    pub fn metric(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.metrics.push(Metric { name, value, unit });
    }

    pub fn note(&mut self, line: impl Into<String>) {
        self.notes.push(line.into());
    }

    /// Count one attempted operation, failed when `result` is an error.
    pub fn op<T>(&mut self, result: Result<T, String>) -> Option<T> {
        self.attempted += 1;
        match result {
            Ok(v) => Some(v),
            Err(e) => {
                self.fail(e);
                None
            }
        }
    }

    pub fn fail(&mut self, error: String) {
        self.failed += 1;
        // Keep the output readable when one defect fails thousands of ops.
        if self.errors.len() < 20 {
            self.errors.push(error);
        }
    }

    /// Take over `other`'s counts and errors (a worker thread's report).
    pub fn absorb(&mut self, other: Report) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        let room = 20usize.saturating_sub(self.errors.len());
        self.errors.extend(other.errors.into_iter().take(room));
    }

    pub fn correct(&self) -> bool {
        self.failed == 0 && self.attempted > 0 && self.metrics.iter().all(|m| m.value.is_finite())
    }

    /// The final line: `correct`, `attempted`, `failed` and `metrics`.
    pub fn json_line(&self) -> String {
        let mut s = String::new();
        let _ = write!(
            s,
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct(),
            self.attempted,
            self.failed
        );
        for (i, m) in self.metrics.iter().enumerate() {
            if i > 0 {
                s.push_str(", ");
            }
            let value = if m.value.is_finite() {
                format!("{:?}", m.value)
            } else {
                "null".to_string()
            };
            let _ = write!(
                s,
                "\"{}\": {{\"value\": {value}, \"unit\": \"{}\"}}",
                m.name, m.unit
            );
        }
        s.push_str("}}");
        s
    }

    /// Everything before the JSON line: notes, errors and a metric table.
    pub fn print(&self) {
        for n in &self.notes {
            println!("{n}");
        }
        for e in &self.errors {
            println!("ERROR {e}");
        }
        for m in &self.metrics {
            println!("  {:<34} {:>16.6} {}", m.name, m.value, m.unit);
        }
        println!("{}", self.json_line());
    }
}
