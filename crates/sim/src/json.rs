//! The JSON writer behind every report the workspace emits. The build
//! is offline and std-only, so there is no serde: a report is a small
//! [`Json`] tree rendered once. Every key and string is quoted and
//! escaped, and each number is formatted at the precision its caller
//! names ([`fixed`] for `{:.N}`, [`sci`] for `{:e}`, [`sci_digits`] for
//! `{:.Ne}`, integers in full).
//!
//! ```
//! use neuropulsim_sim::json::{fixed, Json, Layout};
//!
//! let doc = Json::object(Layout::Compact)
//!     .field("name", "a\"b")
//!     .field("rate", fixed(0.5, 3))
//!     .field("ids", Json::array(Layout::Compact, [1u64, 2]));
//! assert_eq!(doc.to_string(), r#"{"name": "a\"b", "rate": 0.500, "ids": [1, 2]}"#);
//! ```

use std::fmt::{self, Write as _};

/// How an array or object spreads its members over lines.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Layout {
    /// One line: `{"a": 1, "b": [2, 3]}`.
    Compact,
    /// One member per line, indented two spaces per nesting level; an
    /// empty array or object stays `[]` / `{}`.
    Pretty,
}

/// A JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// Emitted verbatim: a formatted number, `true`/`false`, a quoted
    /// string, or an already-rendered document (line breaks included).
    Raw(String),
    /// Items in order.
    Array(Layout, Vec<Json>),
    /// Members in insertion order.
    Object(Layout, Vec<(String, Json)>),
}

impl Json {
    /// An empty object; add members with [`Json::field`].
    pub fn object(layout: Layout) -> Self {
        Json::Object(layout, Vec::new())
    }

    /// Appends the member `key: value` to an object.
    ///
    /// # Panics
    ///
    /// Panics if `self` is not an object.
    pub fn field(mut self, key: &str, value: impl Into<Json>) -> Self {
        let Json::Object(_, fields) = &mut self else {
            panic!("Json::field on a non-object");
        };
        fields.push((key.to_string(), value.into()));
        self
    }

    /// An array of `items`.
    pub fn array<T: Into<Json>>(layout: Layout, items: impl IntoIterator<Item = T>) -> Self {
        Json::Array(layout, items.into_iter().map(Into::into).collect())
    }

    fn write(&self, out: &mut String, depth: usize) {
        let (layout, [open, close], members): (_, _, Vec<_>) = match self {
            Json::Raw(text) => return out.push_str(text),
            Json::Array(layout, items) => (
                layout,
                ['[', ']'],
                items.iter().map(|v| (None, v)).collect(),
            ),
            Json::Object(layout, fields) => (
                layout,
                ['{', '}'],
                fields.iter().map(|(k, v)| (Some(k), v)).collect(),
            ),
        };
        let pretty = *layout == Layout::Pretty;
        out.push(open);
        for (k, (key, value)) in members.iter().enumerate() {
            if pretty {
                out.push_str(if k == 0 { "\n" } else { ",\n" });
                out.push_str(&"  ".repeat(depth + 1));
            } else if k > 0 {
                out.push_str(", ");
            }
            if let Some(key) = key {
                out.push_str(&quote(key));
                out.push_str(": ");
            }
            value.write(out, depth + 1);
        }
        if pretty && !members.is_empty() {
            out.push('\n');
            out.push_str(&"  ".repeat(depth));
        }
        out.push(close);
    }
}

/// `x` with `decimals` digits after the point (`{:.N}`).
pub fn fixed(x: f64, decimals: usize) -> Json {
    Json::Raw(format!("{x:.decimals$}"))
}

/// `x` in Rust's shortest round-trip scientific notation (`{:e}`).
pub fn sci(x: f64) -> Json {
    Json::Raw(format!("{x:e}"))
}

/// `x` in scientific notation with `decimals` mantissa digits after the
/// point (`{:.Ne}`).
pub fn sci_digits(x: f64, decimals: usize) -> Json {
    Json::Raw(format!("{x:.decimals$e}"))
}

impl From<&str> for Json {
    fn from(s: &str) -> Self {
        Json::Raw(quote(s))
    }
}

macro_rules! verbatim_from {
    ($($t:ty),*) => {$(
        impl From<$t> for Json {
            fn from(v: $t) -> Self {
                Json::Raw(v.to_string())
            }
        }
    )*};
}

verbatim_from!(bool, u32, u64, usize);

impl fmt::Display for Json {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut out = String::new();
        self.write(&mut out, 0);
        f.write_str(&out)
    }
}

/// Quotes `s`: `"` and `\` gain a backslash, a newline becomes `\n`,
/// and every other control character below U+0020 becomes `\u00XX`.
fn quote(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c if (c as u32) < 0x20 => {
                write!(out, "\\u{:04x}", c as u32).expect("writing to a String cannot fail");
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
    fn strings_escape_every_control_character() {
        let s = |text: &str| Json::from(text).to_string();
        assert_eq!(s("a\tb\r\u{1}"), "\"a\\u0009b\\u000d\\u0001\"");
        assert_eq!(s("\"q\"\\\n"), "\"\\\"q\\\"\\\\\\n\"");
        assert_eq!(s("µ/é"), "\"µ/é\"");
        let keyed = Json::object(Layout::Compact).field("k\"1", 1u32);
        assert_eq!(keyed.to_string(), "{\"k\\\"1\": 1}");
    }

    #[test]
    fn numbers_render_at_the_callers_precision() {
        assert_eq!(fixed(2.0 / 3.0, 3).to_string(), "0.667");
        assert_eq!(fixed(1234.6, 0).to_string(), "1235");
        assert_eq!(sci(1e-12).to_string(), "1e-12");
        assert_eq!(sci(0.0).to_string(), "0e0");
        assert_eq!(sci_digits(123_456.0, 4).to_string(), "1.2346e5");
        assert_eq!(Json::from(u64::MAX).to_string(), "18446744073709551615");
        assert_eq!(Json::from(false).to_string(), "false");
    }

    #[test]
    fn pretty_nests_and_compact_stays_on_one_line() {
        let inner = Json::object(Layout::Compact)
            .field("a", 1u32)
            .field("b", Json::array(Layout::Compact, ["x", "y"]));
        let rows = [
            Json::object(Layout::Pretty).field("n", 2u32),
            Json::object(Layout::Pretty),
        ];
        let doc = Json::object(Layout::Pretty)
            .field("one", inner)
            .field("rows", Json::array(Layout::Pretty, rows))
            .field("none", Json::array(Layout::Pretty, Vec::<Json>::new()))
            .field("raw", Json::Raw("{\n  \"kept\": 1\n}".to_string()));
        assert_eq!(
            doc.to_string(),
            "{\n  \"one\": {\"a\": 1, \"b\": [\"x\", \"y\"]},\n  \"rows\": [\n    {\n      \
             \"n\": 2\n    },\n    {}\n  ],\n  \"none\": [],\n  \"raw\": {\n  \"kept\": 1\n}\n}"
        );
    }
}
