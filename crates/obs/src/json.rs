//! The workspace's JSON writer, and the reader of the one shape it reads
//! back: a trace line, a flat object of numbers and plain strings.
//!
//! Output is hand-rolled (the workspace is dependency-free) and appended to
//! a caller-owned buffer, so a writer that emits many values — the trace
//! sink, a scenario's `result.json` — formats into one `String` it reuses.

use std::fmt::Write;

/// Appends `v` as a JSON string: quoted, with quotes, backslashes and
/// control characters escaped.
pub fn json_str(out: &mut String, v: &str) {
    out.push('"');
    for c in v.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

/// Appends `v` in shortest round-trip form (an integral value prints as an
/// integer, which is valid JSON and stable); a non-finite value becomes
/// `null`, since JSON has no NaN.
pub fn json_f64(out: &mut String, v: f64) {
    if v.is_finite() {
        v.write(out);
    } else {
        out.push_str("null");
    }
}

/// The `"key":value` pairs of one trace line, numbers and strings apart (a
/// number in a string's place is malformed, and the other way round).
#[derive(Default)]
pub(crate) struct Fields<'a> {
    pub(crate) num: Vec<(&'a str, &'a str)>,
    pub(crate) strs: Vec<(&'a str, &'a str)>,
}

impl<'a> Fields<'a> {
    /// Splits one line as [`crate::Event::to_json`] writes it; `None` for
    /// anything else (foreign JSON is out of scope: no nesting, no escapes,
    /// no comma inside a string).
    pub(crate) fn parse(line: &'a str) -> Option<Self> {
        let body = line.trim().strip_prefix('{')?.strip_suffix('}')?;
        let mut fields = Fields::default();
        for part in body.split(',') {
            let (k, v) = part.split_once(':')?;
            let k = k.trim().strip_prefix('"')?.strip_suffix('"')?;
            let v = v.trim();
            if let Some(sv) = v.strip_prefix('"').and_then(|x| x.strip_suffix('"')) {
                fields.strs.push((k, sv));
            } else {
                v.parse::<f64>().ok()?;
                fields.num.push((k, v));
            }
        }
        Some(fields)
    }
}

/// The last value written under `key`.
pub(crate) fn lookup<'a>(pairs: &[(&str, &'a str)], key: &str) -> Option<&'a str> {
    pairs.iter().rev().find(|(k, _)| *k == key).map(|&(_, v)| v)
}

/// One payload type of an event: how a value is written into a trace line
/// and read back from one.
pub(crate) trait Field: Sized {
    /// Appends the value. Numbers use Rust's shortest round-trip
    /// formatting, so equal values serialize to equal bytes.
    fn write(&self, out: &mut String);
    /// Reads the value stored under `key` as the type the event stores: an
    /// integer that is negative, fractional or out of the field's range is
    /// malformed, not rounded into some other valid event.
    fn read(fields: &Fields<'_>, key: &str) -> Option<Self>;
}

macro_rules! number_fields {
    ($($ty:ty),*) => {$(
        impl Field for $ty {
            fn write(&self, out: &mut String) {
                let _ = write!(out, "{self}");
            }
            fn read(fields: &Fields<'_>, key: &str) -> Option<Self> {
                lookup(&fields.num, key)?.parse().ok()
            }
        }
    )*};
}
number_fields!(usize, u8, u32, u64, f64);

/// Written as `0` / `1`.
impl Field for bool {
    fn write(&self, out: &mut String) {
        u8::from(*self).write(out);
    }
    fn read(fields: &Fields<'_>, key: &str) -> Option<Self> {
        match u8::read(fields, key)? {
            0 => Some(false),
            1 => Some(true),
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn str_of(v: &str) -> String {
        let mut out = String::new();
        json_str(&mut out, v);
        out
    }

    fn f64_of(v: f64) -> String {
        let mut out = String::new();
        json_f64(&mut out, v);
        out
    }

    #[test]
    fn strings_are_quoted_and_escaped() {
        assert_eq!(str_of("plain"), "\"plain\"");
        assert_eq!(str_of("q\"uote\\"), "\"q\\\"uote\\\\\"");
        assert_eq!(str_of("a\nb\tc\rd"), "\"a\\nb\\tc\\rd\"");
        assert_eq!(str_of("\u{1}"), "\"\\u0001\"");
        assert_eq!(str_of("µs"), "\"µs\"");
    }

    #[test]
    fn numbers_round_trip_and_non_finite_is_null() {
        assert_eq!(f64_of(3.0), "3");
        assert_eq!(f64_of(0.1 + 0.2), "0.30000000000000004");
        assert_eq!(f64_of(-0.0), "-0");
        assert_eq!(f64_of(f64::NAN), "null");
        assert_eq!(f64_of(f64::INFINITY), "null");
        // Appends: the buffer is the caller's.
        let mut out = String::from("x=");
        json_f64(&mut out, 1.5);
        assert_eq!(out, "x=1.5");
    }
}
