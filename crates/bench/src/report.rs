//! The one result writer: a small JSON value type and its renderer,
//! used by the figure harnesses (`target/paper-results/*.json`) and by
//! every `BENCH_*.json` at the workspace root.
//!
//! The rendering is fixed so that a regenerated file is byte-identical
//! to the committed one whenever the numbers are (CI checks exactly
//! that): keys keep insertion order, floats print with six decimals, a
//! container of scalars stays on one line and any other container puts
//! one child per line. Non-finite floats have no JSON form and are an
//! error naming where they sit.

use std::fmt::Write as _;

/// A JSON value with insertion-ordered object keys.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// `true` / `false`.
    Bool(bool),
    /// A count.
    Uint(u64),
    /// A measurement; rendered as `{:.6}`.
    Float(f64),
    /// A string.
    Str(String),
    /// An array.
    Array(Vec<Value>),
    /// An object; keys render in the order given.
    Object(Vec<(String, Value)>),
}

impl Value {
    /// An object from `(key, value)` pairs, in that order.
    pub fn object<'a>(fields: impl IntoIterator<Item = (&'a str, Value)>) -> Value {
        Value::Object(
            fields
                .into_iter()
                .map(|(k, v)| (k.to_string(), v))
                .collect(),
        )
    }

    /// An array of anything convertible to a value.
    pub fn array<V: Into<Value>>(items: impl IntoIterator<Item = V>) -> Value {
        Value::Array(items.into_iter().map(Into::into).collect())
    }

    /// Render as JSON text ending in a newline, or name the path of the
    /// first non-finite float.
    pub fn render(&self) -> Result<String, String> {
        let mut out = String::new();
        self.render_into(&mut out, 0, "$")?;
        out.push('\n');
        Ok(out)
    }

    fn is_scalar(&self) -> bool {
        !matches!(self, Value::Array(_) | Value::Object(_))
    }

    fn render_into(&self, out: &mut String, depth: usize, path: &str) -> Result<(), String> {
        match self {
            Value::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Value::Uint(n) => {
                let _ = write!(out, "{n}");
            }
            Value::Float(x) if x.is_finite() => {
                let _ = write!(out, "{x:.6}");
            }
            Value::Float(x) => return Err(format!("non-finite float {x} at {path}")),
            Value::Str(s) => render_str(out, s),
            Value::Array(items) => {
                let inline = items.iter().all(Value::is_scalar);
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    separate(out, i, inline, depth + 1);
                    item.render_into(out, depth + 1, &format!("{path}[{i}]"))?;
                }
                close(out, inline, depth, ']');
            }
            Value::Object(fields) => {
                let inline = fields.iter().all(|(_, v)| v.is_scalar());
                out.push('{');
                for (i, (key, value)) in fields.iter().enumerate() {
                    separate(out, i, inline, depth + 1);
                    render_str(out, key);
                    out.push_str(": ");
                    value.render_into(out, depth + 1, &format!("{path}.{key}"))?;
                }
                close(out, inline, depth, '}');
            }
        }
        Ok(())
    }
}

/// The separator before child `i` of a container.
fn separate(out: &mut String, i: usize, inline: bool, depth: usize) {
    if i > 0 {
        out.push(',');
    }
    if !inline {
        out.push('\n');
        out.push_str(&"  ".repeat(depth));
    } else if i > 0 {
        out.push(' ');
    }
}

fn close(out: &mut String, inline: bool, depth: usize, bracket: char) {
    if !inline {
        out.push('\n');
        out.push_str(&"  ".repeat(depth));
    }
    out.push(bracket);
}

fn render_str(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

impl From<bool> for Value {
    fn from(b: bool) -> Value {
        Value::Bool(b)
    }
}

impl From<u64> for Value {
    fn from(n: u64) -> Value {
        Value::Uint(n)
    }
}

impl From<usize> for Value {
    fn from(n: usize) -> Value {
        Value::Uint(n as u64)
    }
}

impl From<f64> for Value {
    fn from(x: f64) -> Value {
        Value::Float(x)
    }
}

impl From<&str> for Value {
    fn from(s: &str) -> Value {
        Value::Str(s.to_string())
    }
}

/// `x` kept to four decimals: ratios and rates the benches report at
/// that precision (the renderer then pads them to six).
pub fn round4(x: f64) -> f64 {
    (x * 1e4).round() / 1e4
}

/// Render `value` into `BENCH_<name>.json` at the workspace root — the
/// committed trajectory files CI regenerates and diffs — and say so.
pub fn save_bench(name: &str, value: &Value) {
    let path = format!("{}/../../BENCH_{name}.json", env!("CARGO_MANIFEST_DIR"));
    let text = value.render().unwrap_or_else(|e| panic!("{path}: {e}"));
    std::fs::write(&path, text).unwrap_or_else(|e| panic!("write {path}: {e}"));
    println!("wrote {path}");
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rendering_is_pinned_byte_for_byte() {
        let v = Value::object([
            ("bench", "quote\" slash\\ tab\t bell\u{7} \u{e9}".into()),
            ("z_first", 3usize.into()),
            ("a_second", (-0.0000004f64).into()),
            ("empty", Value::array::<Value>([])),
            (
                "rows",
                Value::array([
                    Value::object([("x", 1.5.into()), ("ok", true.into())]),
                    Value::object([("x", 2.0f64.powi(40).into()), ("ok", false.into())]),
                ]),
            ),
            ("flat", Value::array([1u64, 2, 3])),
            ("nested", Value::object([("inner", Value::object([]))])),
        ]);
        let want = concat!(
            "{\n",
            "  \"bench\": \"quote\\\" slash\\\\ tab\\t bell\\u0007 \u{e9}\",\n",
            "  \"z_first\": 3,\n",
            "  \"a_second\": -0.000000,\n",
            "  \"empty\": [],\n",
            "  \"rows\": [\n",
            "    {\"x\": 1.500000, \"ok\": true},\n",
            "    {\"x\": 1099511627776.000000, \"ok\": false}\n",
            "  ],\n",
            "  \"flat\": [1, 2, 3],\n",
            "  \"nested\": {\n",
            "    \"inner\": {}\n",
            "  }\n",
            "}\n",
        );
        assert_eq!(v.render().as_deref(), Ok(want));

        // A non-finite float has no JSON form: an error naming its path.
        for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            let runs = Value::array([Value::object([("elapsed_s", bad.into())])]);
            let err = Value::object([("runs", runs)])
                .render()
                .expect_err("no JSON form");
            assert!(err.contains("$.runs[0].elapsed_s"), "{err}");
        }

        // Four-decimal values pad to six without gaining digits.
        for x in [3.087_654_321, 0.875, 20.84, 1.999_96, 0.0] {
            assert_eq!(format!("{:.6}", round4(x)), format!("{x:.4}00"));
        }
    }
}
