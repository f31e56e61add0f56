//! What a run reports: named metrics with units, the pass/fail tally of
//! the output checks, the human-readable tables and the final JSON line.

use std::fmt::Write as _;

/// One reported number.
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
    /// What the number is, printed beside it in the table.
    pub note: String,
}

/// The result of one benchmark run.
#[derive(Default)]
pub struct Outcome {
    /// Work items (in-process workloads) or submissions (server) run.
    pub attempted: u64,
    /// Of those, the ones that errored or failed the output check.
    pub failed: u64,
    /// Checks that are not per item (exact repeats, per-op sum, trace
    /// completeness); any failure makes the run incorrect.
    pub check_failures: Vec<String>,
    pub metrics: Vec<Metric>,
    /// Numbers printed beside the metrics but kept out of the JSON line,
    /// such as simulated time, which repeats exactly from run to run.
    pub info: Vec<Metric>,
}

impl Outcome {
    pub fn push(&mut self, name: impl Into<String>, value: f64, unit: &'static str, note: &str) {
        self.metrics.push(Metric {
            name: name.into(),
            value,
            unit,
            note: note.to_string(),
        });
    }

    pub fn info(&mut self, name: &str, value: f64, unit: &'static str, note: &str) {
        self.info.push(Metric {
            name: name.to_string(),
            value,
            unit,
            note: note.to_string(),
        });
    }

    pub fn fail_check(&mut self, what: String) {
        println!("CHECK FAILED: {what}");
        self.check_failures.push(what);
    }

    pub fn correct(&self) -> bool {
        self.failed == 0 && self.check_failures.is_empty()
    }

    pub fn print_table(&self, title: &str) {
        println!("## {title}");
        println!("{:<32} {:>16} {:<6} note", "metric", "value", "unit");
        for m in self.metrics.iter().chain(&self.info) {
            println!(
                "{:<32} {:>16} {:<6} {}",
                m.name,
                format_value(m.value),
                m.unit,
                m.note
            );
        }
        let frac = if self.attempted == 0 {
            0.0
        } else {
            self.failed as f64 / self.attempted as f64
        };
        println!(
            "{:<32} {:>16} {:<6} {} of {} work items or submissions errored or failed the output check",
            "failed_frac",
            format_value(frac),
            "ratio",
            self.failed,
            self.attempted
        );
    }

    /// The machine-readable result: the last line of standard output.
    pub fn json_line(&self) -> String {
        let mut s = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct(),
            self.attempted.max(1),
            self.failed
        );
        for (i, m) in self.metrics.iter().enumerate() {
            if i > 0 {
                s.push_str(", ");
            }
            let v = if m.value.is_finite() { m.value } else { 0.0 };
            let _ = write!(
                s,
                "\"{}\": {{\"value\": {v:?}, \"unit\": \"{}\"}}",
                m.name, m.unit
            );
        }
        s.push_str("}}");
        s
    }
}

fn format_value(v: f64) -> String {
    if v != 0.0 && (v.abs() >= 1e6 || v.abs() < 1e-3) {
        format!("{v:.4e}")
    } else {
        format!("{v:.4}")
    }
}
