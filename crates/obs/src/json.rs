//! Minimal JSON construction helpers.
//!
//! The offline build has no JSON crate, and the observability schemas
//! are flat records, so a ~60-line object builder keeps this crate
//! dependency-free — the same choice `mcr-lint` made for its `--json`
//! report.

/// Escapes `s` for inclusion inside a JSON string literal.
pub fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// A single flat JSON object, built field by field in insertion order.
///
/// ```
/// let line = mcr_obs::json::Obj::new()
///     .str("schema", "mcr-trace v1")
///     .u64("job", 3)
///     .finish();
/// assert_eq!(line, r#"{"schema":"mcr-trace v1","job":3}"#);
/// ```
#[derive(Debug)]
pub struct Obj {
    buf: String,
}

impl Obj {
    /// An empty object.
    pub fn new() -> Self {
        Obj { buf: String::new() }
    }

    fn key(&mut self, k: &str) {
        if !self.buf.is_empty() {
            self.buf.push(',');
        }
        self.buf.push('"');
        self.buf.push_str(&escape(k));
        self.buf.push_str("\":");
    }

    /// Appends a string field.
    pub fn str(mut self, k: &str, v: &str) -> Self {
        self.key(k);
        self.buf.push('"');
        self.buf.push_str(&escape(v));
        self.buf.push('"');
        self
    }

    /// Appends an unsigned integer field.
    pub fn u64(mut self, k: &str, v: u64) -> Self {
        self.key(k);
        self.buf.push_str(&v.to_string());
        self
    }

    /// Appends a signed integer field.
    pub fn i64(mut self, k: &str, v: i64) -> Self {
        self.key(k);
        self.buf.push_str(&v.to_string());
        self
    }

    /// Appends a finite float field (rendered with enough digits to
    /// round-trip); non-finite values are rendered as JSON `null`.
    pub fn f64(mut self, k: &str, v: f64) -> Self {
        self.key(k);
        if v.is_finite() {
            self.buf.push_str(&format!("{v}"));
        } else {
            self.buf.push_str("null");
        }
        self
    }

    /// Appends a pre-rendered JSON value verbatim (caller guarantees
    /// validity — used for arrays of already-escaped strings).
    pub fn raw(mut self, k: &str, v: &str) -> Self {
        self.key(k);
        self.buf.push_str(v);
        self
    }

    /// Closes the object.
    pub fn finish(self) -> String {
        format!("{{{}}}", self.buf)
    }
}

impl Default for Obj {
    fn default() -> Self {
        Obj::new()
    }
}

/// Renders a JSON array of strings.
pub fn str_array<S: AsRef<str>>(items: &[S]) -> String {
    let body: Vec<String> = items
        .iter()
        .map(|s| format!("\"{}\"", escape(s.as_ref())))
        .collect();
    format!("[{}]", body.join(","))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn escape_handles_controls_and_quotes() {
        assert_eq!(escape("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
        assert_eq!(escape("\u{1}"), "\\u0001");
    }

    #[test]
    fn object_builds_in_order() {
        let o = Obj::new()
            .str("k", "v\"x")
            .u64("n", 7)
            .i64("i", -3)
            .raw("a", "[1,2]")
            .finish();
        assert_eq!(o, r#"{"k":"v\"x","n":7,"i":-3,"a":[1,2]}"#);
    }

    #[test]
    fn empty_object_and_array() {
        assert_eq!(Obj::new().finish(), "{}");
        let empty: [&str; 0] = [];
        assert_eq!(str_array(&empty), "[]");
        assert_eq!(str_array(&["x", "y\""]), r#"["x","y\""]"#);
    }

    #[test]
    fn floats_render_finite_and_null() {
        assert_eq!(Obj::new().f64("e", 0.5).finish(), r#"{"e":0.5}"#);
        assert_eq!(Obj::new().f64("e", f64::NAN).finish(), r#"{"e":null}"#);
    }
}
