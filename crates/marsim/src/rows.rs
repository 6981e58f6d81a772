//! Hand-rolled JSON row rendering shared by the sweep binaries.
//!
//! Every sweep (`edge_offload`, `fleet_sweep`, `stadium_sweep`) emits one
//! JSON object per line; the build is hermetic, so rows are rendered by
//! hand instead of through a serialization crate. This module centralizes
//! the escaping-free builder those sweeps previously each reimplemented,
//! so the field formats (`{:.6}` for milliseconds, `null` for empty
//! windows, …) stay byte-identical across binaries — the golden cells in
//! `tests/end_to_end.rs` pin the exact output bytes.
//!
//! Keys and string values are written verbatim (no escaping): sweep rows
//! only ever carry identifier-like names. Debug builds assert that.

/// Renders an optional millisecond statistic with the sweeps' fixed
/// 6-decimal format, or JSON `null` when the window had no completions —
/// so rows distinguish "nothing finished" from a genuine 0 ms mean.
pub(crate) fn fmt_opt_ms(v: Option<f64>) -> String {
    match v {
        Some(x) => format!("{x:.6}"),
        None => "null".to_owned(),
    }
}

/// Incremental builder for one JSON row. Fields appear in call order;
/// [`JsonRow::finish`] closes the object.
///
/// ```
/// use marsim::rows::JsonRow;
/// let row = JsonRow::new("demo").u64("n", 3).f64("x", 0.5, 3).finish();
/// assert_eq!(row, "{\"sweep\":\"demo\",\"n\":3,\"x\":0.500}");
/// ```
#[derive(Debug, Clone)]
pub struct JsonRow {
    buf: String,
}

impl JsonRow {
    /// Starts a row whose first field is `"sweep":"<name>"` — the tag
    /// every sweep row leads with.
    pub fn new(sweep: &str) -> Self {
        let mut row = JsonRow {
            buf: String::with_capacity(256),
        };
        row.buf.push('{');
        row.push_key("sweep");
        row.push_str_value(sweep);
        row
    }

    fn push_key(&mut self, key: &str) {
        debug_assert!(
            key.chars().all(|c| c.is_ascii_alphanumeric() || c == '_'),
            "row key {key:?} needs escaping"
        );
        if self.buf.len() > 1 {
            self.buf.push(',');
        }
        self.buf.push('"');
        self.buf.push_str(key);
        self.buf.push_str("\":");
    }

    fn push_str_value(&mut self, v: &str) {
        debug_assert!(
            !v.contains(['"', '\\']) && !v.chars().any(|c| c.is_control()),
            "row value {v:?} needs escaping"
        );
        self.buf.push('"');
        self.buf.push_str(v);
        self.buf.push('"');
    }

    /// Adds a string field (written verbatim, no escaping).
    pub fn str(mut self, key: &str, v: &str) -> Self {
        self.push_key(key);
        self.push_str_value(v);
        self
    }

    /// Adds an unsigned integer field.
    pub fn u64(mut self, key: &str, v: u64) -> Self {
        self.push_key(key);
        self.buf.push_str(&v.to_string());
        self
    }

    /// Adds a boolean field.
    pub fn bool(mut self, key: &str, v: bool) -> Self {
        self.push_key(key);
        self.buf.push_str(if v { "true" } else { "false" });
        self
    }

    /// Adds a float field rendered with exactly `prec` decimals.
    pub fn f64(mut self, key: &str, v: f64, prec: usize) -> Self {
        self.push_key(key);
        self.buf.push_str(&format!("{v:.prec$}"));
        self
    }

    /// Adds an optional millisecond statistic ([`fmt_opt_ms`] format).
    pub(crate) fn opt_ms(mut self, key: &str, v: Option<f64>) -> Self {
        self.push_key(key);
        self.buf.push_str(&fmt_opt_ms(v));
        self
    }

    /// Adds a field whose value is already-rendered JSON (a nested
    /// object, array, or `null`).
    pub fn raw(mut self, key: &str, v: &str) -> Self {
        self.push_key(key);
        self.buf.push_str(v);
        self
    }

    /// Closes the object and returns the rendered line.
    pub fn finish(mut self) -> String {
        self.buf.push('}');
        self.buf
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_every_field_kind_in_call_order() {
        let row = JsonRow::new("stadium")
            .str("policy", "jsq")
            .u64("clients", 32)
            .bool("warm", true)
            .f64("uplink_mbps", 80.0, 3)
            .opt_ms("mean_ms", Some(12.5))
            .opt_ms("p95_ms", None)
            .raw("servers", "[{\"admitted\":4}]")
            .finish();
        assert_eq!(
            row,
            "{\"sweep\":\"stadium\",\"policy\":\"jsq\",\"clients\":32,\"warm\":true,\
             \"uplink_mbps\":80.000,\"mean_ms\":12.500000,\"p95_ms\":null,\
             \"servers\":[{\"admitted\":4}]}"
        );
    }

    #[test]
    fn fmt_opt_ms_distinguishes_empty_from_zero() {
        assert_eq!(fmt_opt_ms(None), "null");
        assert_eq!(fmt_opt_ms(Some(0.0)), "0.000000");
        assert_eq!(fmt_opt_ms(Some(1.0 / 3.0)), "0.333333");
    }
}
