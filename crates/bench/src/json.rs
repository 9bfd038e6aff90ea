//! Machine-readable benchmark output: `BENCH_<name>.json` files.
//!
//! The benches whose numbers are committed (`BENCH_{scale,paged,hogwild,
//! models,serve}.json`) emit a flat JSON array of records — one object per (arm,
//! configuration) measurement — via this hand-rolled writer (the workspace
//! deliberately carries no serde), so scripts can diff them.
//!
//! Files land in the directory named by the `SPTX_BENCH_JSON_DIR`
//! environment variable, or the current working directory when unset, as
//! `BENCH_<name>.json`.

use std::io::Write;
use std::path::PathBuf;

/// One JSON object, built field by field in insertion order.
///
/// # Examples
///
/// ```
/// use sptx_bench::json::JsonObject;
///
/// let o = JsonObject::new()
///     .str("arm", "async")
///     .int("workers", 4)
///     .num("ms_per_epoch", 12.5);
/// assert_eq!(
///     o.render(),
///     r#"{"arm": "async", "workers": 4, "ms_per_epoch": 12.5}"#
/// );
/// ```
#[derive(Debug, Clone, Default)]
pub struct JsonObject {
    fields: Vec<(String, String)>,
}

impl JsonObject {
    /// An empty object.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds a string field (escaped).
    #[must_use]
    pub fn str(mut self, key: &str, value: &str) -> Self {
        self.fields
            .push((key.to_string(), format!("\"{}\"", escape(value))));
        self
    }

    /// Adds an integer field.
    #[must_use]
    pub fn int(mut self, key: &str, value: u64) -> Self {
        self.fields.push((key.to_string(), value.to_string()));
        self
    }

    /// Adds a finite float field. Non-finite values render as `null`
    /// (bare `NaN`/`inf` tokens are not JSON).
    #[must_use]
    pub fn num(mut self, key: &str, value: f64) -> Self {
        let rendered = if value.is_finite() {
            format!("{value}")
        } else {
            "null".to_string()
        };
        self.fields.push((key.to_string(), rendered));
        self
    }

    /// Renders the object as a single-line JSON string.
    #[must_use]
    pub fn render(&self) -> String {
        let mut out = String::from("{");
        for (i, (k, v)) in self.fields.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            out.push('"');
            out.push_str(&escape(k));
            out.push_str("\": ");
            out.push_str(v);
        }
        out.push('}');
        out
    }
}

fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
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
    out
}

/// The output directory: `SPTX_BENCH_JSON_DIR`, or the current directory.
#[must_use]
pub fn output_dir() -> PathBuf {
    std::env::var_os("SPTX_BENCH_JSON_DIR")
        .map(PathBuf::from)
        .unwrap_or_else(|| PathBuf::from("."))
}

/// Writes `records` as a pretty-ish JSON array to `BENCH_<name>.json` in
/// [`output_dir`], returning the path written.
///
/// # Errors
///
/// Propagates filesystem errors (missing directory, permissions).
pub fn write_bench_json(name: &str, records: &[JsonObject]) -> std::io::Result<PathBuf> {
    let path = output_dir().join(format!("BENCH_{name}.json"));
    let mut body = String::from("[\n");
    for (i, r) in records.iter().enumerate() {
        body.push_str("  ");
        body.push_str(&r.render());
        if i + 1 < records.len() {
            body.push(',');
        }
        body.push('\n');
    }
    body.push_str("]\n");
    let mut f = std::fs::File::create(&path)?;
    f.write_all(body.as_bytes())?;
    Ok(path)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_fields_in_order_with_escapes() {
        let o = JsonObject::new()
            .str("name", "a\"b\\c\nd")
            .int("count", 3)
            .num("ratio", 0.5)
            .num("bad", f64::NAN);
        assert_eq!(
            o.render(),
            "{\"name\": \"a\\\"b\\\\c\\nd\", \"count\": 3, \"ratio\": 0.5, \"bad\": null}"
        );
    }

    #[test]
    fn writes_array_file_to_env_dir() {
        let dir = std::env::temp_dir().join("sptx-bench-json-test");
        std::fs::create_dir_all(&dir).unwrap();
        // Write via an explicit path rather than mutating the process-wide
        // env var (tests run concurrently).
        let records = [
            JsonObject::new().str("arm", "sync").int("workers", 1),
            JsonObject::new().str("arm", "async").int("workers", 4),
        ];
        let mut body = String::from("[\n");
        for (i, r) in records.iter().enumerate() {
            body.push_str("  ");
            body.push_str(&r.render());
            if i + 1 < records.len() {
                body.push(',');
            }
            body.push('\n');
        }
        body.push_str("]\n");
        let path = dir.join("BENCH_test.json");
        std::fs::write(&path, &body).unwrap();
        let read = std::fs::read_to_string(&path).unwrap();
        assert!(read.starts_with("[\n  {\"arm\": \"sync\""));
        assert!(read.trim_end().ends_with(']'));
        assert_eq!(read.matches('{').count(), 2);
        std::fs::remove_dir_all(&dir).ok();
    }
}
