//! Per-iteration convergence records — the data behind Figures 1 and 3.

use std::fmt::Write as _;

use complx_obs::JsonValue;

/// One global placement iteration's measurements.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct IterationRecord {
    /// Iteration index (1-based; 0 is the unconstrained bootstrap solve).
    pub iteration: usize,
    /// The multiplier λ used in this iteration's primal step.
    pub lambda: f64,
    /// `Φ` — interconnect cost (weighted HPWL) of the lower-bound iterate.
    pub phi_lower: f64,
    /// `Φ(x°, y°)` — interconnect cost of the feasible (upper-bound)
    /// iterate.
    pub phi_upper: f64,
    /// `Π` — L1 distance from the iterate to its projection (Formula 3).
    pub pi: f64,
    /// The Lagrangian `L = Φ + λ·Π` (Formula 4).
    pub lagrangian: f64,
    /// Bin-overflow ratio of the lower-bound iterate at this iteration's
    /// grid.
    pub overflow: f64,
    /// Grid resolution used by `P_C` this iteration.
    pub bins: usize,
}

impl IterationRecord {
    /// The duality gap `Δ_Φ = Φ(x°,y°) − Φ(x,y)` (Formula 8).
    pub fn duality_gap(&self) -> f64 {
        self.phi_upper - self.phi_lower
    }

    /// The relative duality gap `Δ_Φ / Φ(x°,y°)`.
    pub fn relative_gap(&self) -> f64 {
        if self.phi_upper <= 0.0 {
            0.0
        } else {
            self.duality_gap() / self.phi_upper
        }
    }

    /// The record as a JSON object — the one serialization shared by the
    /// JSON trace, the run report's `iterations` and the `iteration` event.
    pub fn to_json(&self) -> JsonValue {
        self.to_json_with(Vec::new())
    }

    /// [`Self::to_json`] followed by `extra` fields (the `iteration` event
    /// appends the primal step's solver statistics).
    pub fn to_json_with(&self, extra: Vec<(&str, JsonValue)>) -> JsonValue {
        let mut fields = vec![
            ("iteration", self.iteration.into()),
            ("lambda", self.lambda.into()),
            ("phi_lower", self.phi_lower.into()),
            ("phi_upper", self.phi_upper.into()),
            ("pi", self.pi.into()),
            ("lagrangian", self.lagrangian.into()),
            ("overflow", self.overflow.into()),
            ("bins", self.bins.into()),
        ];
        fields.extend(extra);
        JsonValue::object(fields)
    }
}

/// The full convergence trace of one placement run.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Trace {
    records: Vec<IterationRecord>,
}

impl Trace {
    /// Creates an empty trace.
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends a record.
    pub fn push(&mut self, r: IterationRecord) {
        self.records.push(r);
    }

    /// All records in iteration order.
    pub fn records(&self) -> &[IterationRecord] {
        &self.records
    }

    /// Number of recorded iterations.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// Whether the trace is empty.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// The final λ (0 when empty) — the y axis of Figure 3.
    pub fn final_lambda(&self) -> f64 {
        self.records.last().map_or(0.0, |r| r.lambda)
    }

    /// Serializes as CSV (`iteration,lambda,phi_lower,phi_upper,pi,
    /// lagrangian,overflow,bins`), the input to the Figure 1 plots.
    pub fn to_csv(&self) -> String {
        let mut s =
            String::from("iteration,lambda,phi_lower,phi_upper,pi,lagrangian,overflow,bins\n");
        for r in &self.records {
            let _ = writeln!(
                s,
                "{},{:.6e},{:.6e},{:.6e},{:.6e},{:.6e},{:.6e},{}",
                r.iteration,
                r.lambda,
                r.phi_lower,
                r.phi_upper,
                r.pi,
                r.lagrangian,
                r.overflow,
                r.bins
            );
        }
        s
    }

    /// Serializes as a pretty-printed JSON array of per-iteration objects
    /// (chosen by the CLI when `--trace` names a `.json` file), terminated
    /// by a newline like [`Self::to_csv`].
    pub fn to_json(&self) -> String {
        let mut s = self.to_json_value().to_json_pretty();
        s.push('\n');
        s
    }

    /// The records as a JSON array of [`IterationRecord::to_json`] objects.
    pub fn to_json_value(&self) -> JsonValue {
        JsonValue::Arr(self.records.iter().map(IterationRecord::to_json).collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(i: usize, lambda: f64, lower: f64, upper: f64, pi: f64) -> IterationRecord {
        IterationRecord {
            iteration: i,
            lambda,
            phi_lower: lower,
            phi_upper: upper,
            pi,
            lagrangian: lower + lambda * pi,
            overflow: 0.1,
            bins: 16,
        }
    }

    #[test]
    fn gap_computation() {
        let r = rec(1, 0.5, 90.0, 100.0, 10.0);
        assert!((r.duality_gap() - 10.0).abs() < 1e-12);
        assert!((r.relative_gap() - 0.1).abs() < 1e-12);
    }

    #[test]
    fn csv_has_header_and_rows() {
        let mut t = Trace::new();
        t.push(rec(1, 0.1, 90.0, 100.0, 10.0));
        t.push(rec(2, 0.2, 92.0, 99.0, 8.0));
        let csv = t.to_csv();
        assert_eq!(csv.lines().count(), 3);
        assert!(csv.starts_with("iteration,lambda"));
        assert!(csv.ends_with('\n'), "CSV ends with a newline");
        assert_eq!(t.final_lambda(), 0.2);
        assert_eq!(t.len(), 2);
    }

    #[test]
    fn json_trace_parses_and_preserves_records() {
        let mut t = Trace::new();
        t.push(rec(1, 0.1, 90.0, 100.0, 10.0));
        t.push(rec(2, 0.2, 92.0, 99.0, 8.0));
        let text = t.to_json();
        assert!(text.ends_with('\n'), "JSON ends with a newline");
        let doc = complx_obs::parse(&text).expect("valid JSON");
        let arr = doc.as_array().expect("array");
        assert_eq!(arr.len(), 2);
        assert_eq!(
            arr[1]
                .get("iteration")
                .and_then(complx_obs::JsonValue::as_i64),
            Some(2)
        );
        assert_eq!(
            arr[0]
                .get("phi_upper")
                .and_then(complx_obs::JsonValue::as_f64),
            Some(100.0)
        );
    }
}
