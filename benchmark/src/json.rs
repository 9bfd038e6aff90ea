//! The little JSON this benchmark writes: the result line and trace strings.

/// One reported metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Name, as in `BENCHMARK.json`.
    pub name: &'static str,
    /// Value as measured, with all its digits.
    pub value: f64,
    /// Unit, as in `BENCHMARK.json`.
    pub unit: &'static str,
}

impl Metric {
    /// Shorthand constructor.
    pub fn new(name: &'static str, value: f64, unit: &'static str) -> Self {
        Self { name, value, unit }
    }
}

/// Appends `s` as a JSON string literal.
pub fn push_str(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
}

/// Renders a finite `f64` with every digit needed to read it back (Rust's
/// shortest round-trip form, which is plain decimal, never an exponent).
/// JSON has no NaN or infinity, so those render as `null`; the caller
/// counts a non-finite metric as a failed check before it gets here.
pub fn number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_string()
    }
}

/// The one-line result object the driver reads from the last line of
/// standard output.
pub fn result_line(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let mut out = format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{"
    );
    for (i, m) in metrics.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        push_str(&mut out, m.name);
        out.push_str(": {\"value\": ");
        out.push_str(&number(m.value));
        out.push_str(", \"unit\": ");
        push_str(&mut out, m.unit);
        out.push('}');
    }
    out.push_str("}}");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_line_matches_the_contract_shape() {
        let line = result_line(
            true,
            1000,
            0,
            &[
                Metric::new("latency_ms", 1.2034, "ms"),
                Metric::new("setup_s", 0.8127, "s"),
            ],
        );
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 1000, \"failed\": 0, \"metrics\": {\"latency_ms\": {\"value\": 1.2034, \"unit\": \"ms\"}, \"setup_s\": {\"value\": 0.8127, \"unit\": \"s\"}}}"
        );
        assert!(!line.contains('\n'));
    }

    #[test]
    fn numbers_keep_all_digits_and_never_use_exponents() {
        assert_eq!(number(0.000012034567891234), "0.000012034567891234");
        assert_eq!(number(310234.567890125), "310234.567890125");
        assert_eq!(number(1e-9), "0.000000001");
        assert_eq!(number(1e21), "1000000000000000000000");
        assert_eq!(number(0.0), "0");
        assert_eq!(number(3.0), "3");
        assert_eq!(number(f64::NAN), "null");
        assert_eq!(number(f64::INFINITY), "null");
        let v = 0.1 + 0.2;
        assert_eq!(number(v).parse::<f64>().unwrap(), v);
    }

    #[test]
    fn strings_are_escaped() {
        let mut s = String::new();
        push_str(&mut s, "a\"b\\c\nd\u{1}");
        assert_eq!(s, "\"a\\\"b\\\\c\\nd\\u0001\"");
    }

    #[test]
    fn empty_metrics_and_failure_render() {
        assert_eq!(
            result_line(false, 3, 1, &[]),
            "{\"correct\": false, \"attempted\": 3, \"failed\": 1, \"metrics\": {}}"
        );
    }
}
