//! The one JSON emitter behind every `BENCH_*.json` and report encoding.
//!
//! Canonical by construction: keys appear in insertion order, numbers are
//! unsigned integers (floats are reported in milli-units by the caller),
//! and no whitespace is written — so two equal reports serialize to
//! identical bytes, which is what the publishing gates compare.
//!
//! ```
//! use simkit::JsonObject;
//! let row = JsonObject::new().str("leg", "RED").num("ns", 7).bool("ok", true);
//! let doc = JsonObject::new().num("seed", 1).arr("rows", [row]).finish();
//! assert_eq!(doc, r#"{"seed":1,"rows":[{"leg":"RED","ns":7,"ok":true}]}"#);
//! ```

use std::fmt::Write as _;

/// A JSON object under construction; each setter appends one member.
#[derive(Debug, Clone, Default)]
pub struct JsonObject(String);

impl JsonObject {
    /// An empty object.
    #[must_use]
    pub fn new() -> Self {
        JsonObject::default()
    }

    fn member(mut self, key: &str, value: std::fmt::Arguments<'_>) -> Self {
        let sep = if self.0.is_empty() { "" } else { "," };
        let _ = write!(self.0, "{sep}{}:{value}", quoted(key));
        self
    }

    /// An unsigned integer member.
    #[must_use]
    pub fn num(self, key: &str, v: u64) -> Self {
        self.member(key, format_args!("{v}"))
    }

    /// A boolean member.
    #[must_use]
    pub fn bool(self, key: &str, v: bool) -> Self {
        self.member(key, format_args!("{v}"))
    }

    /// A string member.
    #[must_use]
    pub fn str(self, key: &str, v: &str) -> Self {
        self.member(key, format_args!("{}", quoted(v)))
    }

    /// A nested object member.
    #[must_use]
    pub fn obj(self, key: &str, v: JsonObject) -> Self {
        self.member(key, format_args!("{{{}}}", v.0))
    }

    /// An array-of-objects member.
    #[must_use]
    pub fn arr(self, key: &str, items: impl IntoIterator<Item = JsonObject>) -> Self {
        let items: Vec<String> = items.into_iter().map(JsonObject::finish).collect();
        self.member(key, format_args!("[{}]", items.join(",")))
    }

    /// The encoded document.
    #[must_use]
    pub fn finish(self) -> String {
        format!("{{{}}}", self.0)
    }
}

/// `s` as a JSON string literal.
fn quoted(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' | '\\' => out.extend(['\\', c]),
            c if u32::from(c) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", u32::from(c));
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nests_and_escapes() {
        let doc = JsonObject::new()
            .str("na\"me", "a\\b\n")
            .obj("8", JsonObject::new().num("x", u64::MAX))
            .arr("none", [])
            .finish();
        assert_eq!(
            doc,
            "{\"na\\\"me\":\"a\\\\b\\u000a\",\"8\":{\"x\":18446744073709551615},\"none\":[]}"
        );
        assert_eq!(JsonObject::new().finish(), "{}");
    }
}
