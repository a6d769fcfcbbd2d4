//! The benchmark's output: one JSON result line, one JSON record line
//! and a human-readable summary on standard error.

/// The run record: named facts about the host, the settings and the run.
pub type Record = Vec<(&'static str, String)>;

/// Named metrics with units, in report order.
#[derive(Debug, Default)]
pub struct Metrics(Vec<(String, f64, &'static str)>);

impl Metrics {
    /// Adds one metric.
    pub fn push(&mut self, name: &str, value: f64, unit: &'static str) {
        self.0.push((name.to_string(), value, unit));
    }
}

/// The result: the last line of standard output.
#[derive(Debug)]
pub struct Result {
    /// No oracle or cost-model check failed.
    pub correct: bool,
    /// Operations attempted.
    pub attempted: u64,
    /// Operations that failed a check.
    pub failed: u64,
    /// The metrics of this run.
    pub metrics: Metrics,
}

/// A JSON number; non-finite values (which JSON cannot carry) become
/// `null`.
fn number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".into()
    }
}

/// A JSON string literal.
pub fn string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

impl Result {
    /// `{"correct": .., "attempted": .., "failed": .., "metrics": {..}}`.
    pub fn to_json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .0
            .iter()
            .map(|(name, value, unit)| {
                format!(
                    "{}: {{\"value\": {}, \"unit\": {}}}",
                    string(name),
                    number(*value),
                    string(unit)
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct,
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

/// `{"record": {...}}` with every value as a string.
pub fn record_line(record: &[(&str, String)]) -> String {
    let fields: Vec<String> = record
        .iter()
        .map(|(k, v)| format!("{}: {}", string(k), string(v)))
        .collect();
    format!("{{\"record\": {{{}}}}}", fields.join(", "))
}

/// A readable summary: the record, then one metric per line.
pub fn human(result: &Result, record: &[(&str, String)]) -> String {
    let mut out = String::new();
    for (k, v) in record {
        out.push_str(&format!("  {k:<28} {v}\n"));
    }
    for (name, value, unit) in &result.metrics.0 {
        out.push_str(&format!("  {name:<36} {value:>14.4} {unit}\n"));
    }
    out.push_str(&format!(
        "  correct={} attempted={} failed={}\n",
        result.correct, result.attempted, result.failed
    ));
    out
}
