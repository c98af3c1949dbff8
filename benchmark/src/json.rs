//! A small JSON value with a writer and a reader — enough for the
//! result line the benchmark prints, the results files the ledger keeps
//! and `BENCHMARK.json`. Object keys keep insertion order.

use std::fmt::Write as _;

#[derive(Clone, Debug, PartialEq)]
pub enum Json {
    Null,
    Bool(bool),
    Num(f64),
    Str(String),
    Arr(Vec<Json>),
    Obj(Vec<(String, Json)>),
}

impl Json {
    pub fn obj<K: Into<String>>(pairs: impl IntoIterator<Item = (K, Json)>) -> Json {
        Json::Obj(pairs.into_iter().map(|(k, v)| (k.into(), v)).collect())
    }

    pub fn str(s: impl Into<String>) -> Json {
        Json::Str(s.into())
    }

    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(pairs) => pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }

    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    pub fn as_arr(&self) -> &[Json] {
        match self {
            Json::Arr(items) => items,
            _ => &[],
        }
    }

    pub fn as_obj(&self) -> &[(String, Json)] {
        match self {
            Json::Obj(pairs) => pairs,
            _ => &[],
        }
    }

    /// Single-line rendering.
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.write(&mut out);
        out
    }

    fn write(&self, out: &mut String) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            // JSON has no NaN/inf; a metric that divides by nothing is a
            // plain zero, like an empty percentile.
            Json::Num(n) if !n.is_finite() => out.push('0'),
            Json::Num(n) if n.fract() == 0.0 && n.abs() < 9e15 => {
                let _ = write!(out, "{}", *n as i64);
            }
            Json::Num(n) => {
                let _ = write!(out, "{n}");
            }
            Json::Str(s) => write_string(s, out),
            Json::Arr(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push_str(", ");
                    }
                    item.write(out);
                }
                out.push(']');
            }
            Json::Obj(pairs) => {
                out.push('{');
                for (i, (k, v)) in pairs.iter().enumerate() {
                    if i > 0 {
                        out.push_str(", ");
                    }
                    write_string(k, out);
                    out.push_str(": ");
                    v.write(out);
                }
                out.push('}');
            }
        }
    }

    /// Parses one JSON document (surrounding whitespace allowed).
    pub fn parse(text: &str) -> Result<Json, String> {
        let mut p = Parser { bytes: text.as_bytes(), pos: 0 };
        let value = p.value()?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(format!("trailing characters at byte {}", p.pos));
        }
        Ok(value)
    }
}

fn write_string(s: &str, out: &mut String) {
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

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl Parser<'_> {
    fn skip_ws(&mut self) {
        while self.bytes.get(self.pos).is_some_and(|b| b.is_ascii_whitespace()) {
            self.pos += 1;
        }
    }

    fn eat(&mut self, token: &str) -> bool {
        if self.bytes[self.pos..].starts_with(token.as_bytes()) {
            self.pos += token.len();
            true
        } else {
            false
        }
    }

    fn expect(&mut self, token: &str) -> Result<(), String> {
        self.skip_ws();
        if self.eat(token) {
            Ok(())
        } else {
            Err(format!("expected '{token}' at byte {}", self.pos))
        }
    }

    fn value(&mut self) -> Result<Json, String> {
        self.skip_ws();
        match self.bytes.get(self.pos) {
            None => Err("unexpected end of input".into()),
            Some(b'{') => {
                self.pos += 1;
                let mut pairs = Vec::new();
                self.skip_ws();
                if self.eat("}") {
                    return Ok(Json::Obj(pairs));
                }
                loop {
                    self.skip_ws();
                    let key = self.string()?;
                    self.expect(":")?;
                    pairs.push((key, self.value()?));
                    self.skip_ws();
                    if self.eat("}") {
                        return Ok(Json::Obj(pairs));
                    }
                    self.expect(",")?;
                }
            }
            Some(b'[') => {
                self.pos += 1;
                let mut items = Vec::new();
                self.skip_ws();
                if self.eat("]") {
                    return Ok(Json::Arr(items));
                }
                loop {
                    items.push(self.value()?);
                    self.skip_ws();
                    if self.eat("]") {
                        return Ok(Json::Arr(items));
                    }
                    self.expect(",")?;
                }
            }
            Some(b'"') => self.string().map(Json::Str),
            Some(_) if self.eat("true") => Ok(Json::Bool(true)),
            Some(_) if self.eat("false") => Ok(Json::Bool(false)),
            Some(_) if self.eat("null") => Ok(Json::Null),
            Some(_) => {
                let start = self.pos;
                while self
                    .bytes
                    .get(self.pos)
                    .is_some_and(|b| matches!(b, b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E'))
                {
                    self.pos += 1;
                }
                std::str::from_utf8(&self.bytes[start..self.pos])
                    .ok()
                    .and_then(|s| s.parse::<f64>().ok())
                    .map(Json::Num)
                    .ok_or_else(|| format!("bad value at byte {start}"))
            }
        }
    }

    fn string(&mut self) -> Result<String, String> {
        if !self.eat("\"") {
            return Err(format!("expected a string at byte {}", self.pos));
        }
        let mut out = Vec::new();
        loop {
            let b = *self.bytes.get(self.pos).ok_or("unterminated string")?;
            self.pos += 1;
            match b {
                b'"' => return String::from_utf8(out).map_err(|e| e.to_string()),
                b'\\' => {
                    let esc = *self.bytes.get(self.pos).ok_or("unterminated escape")?;
                    self.pos += 1;
                    match esc {
                        b'n' => out.push(b'\n'),
                        b'r' => out.push(b'\r'),
                        b't' => out.push(b'\t'),
                        b'b' => out.push(8),
                        b'f' => out.push(12),
                        b'u' => {
                            let hex = self
                                .bytes
                                .get(self.pos..self.pos + 4)
                                .and_then(|h| std::str::from_utf8(h).ok())
                                .and_then(|h| u32::from_str_radix(h, 16).ok())
                                .and_then(char::from_u32)
                                .ok_or("bad \\u escape")?;
                            self.pos += 4;
                            out.extend_from_slice(hex.encode_utf8(&mut [0; 4]).as_bytes());
                        }
                        other => out.push(other),
                    }
                }
                other => out.push(other),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Write as _;
    use std::process::{Command, Stdio};

    fn sample() -> Json {
        Json::obj([
            ("correct", Json::Bool(true)),
            ("attempted", Json::Num(1000.0)),
            ("nothing", Json::Null),
            ("text", Json::str("tab\t quote\" back\\slash \u{1} ünï")),
            (
                "metrics",
                Json::obj([(
                    "op_p50_us",
                    Json::obj([("value", Json::Num(137.0625)), ("unit", Json::str("us"))]),
                )]),
            ),
            ("list", Json::Arr(vec![Json::Num(-0.5), Json::Num(1e-9), Json::Arr(vec![])])),
        ])
    }

    #[test]
    fn writer_round_trips_through_the_reader() {
        let v = sample();
        assert_eq!(Json::parse(&v.render()).unwrap(), v);
        assert_eq!(v.get("attempted").and_then(Json::as_f64), Some(1000.0));
        assert!(v.render().contains("\"attempted\": 1000,"), "whole numbers print as integers");
    }

    #[test]
    fn non_finite_numbers_are_written_as_zero() {
        assert_eq!(Json::Num(f64::NAN).render(), "0");
        assert_eq!(Json::Num(f64::INFINITY).render(), "0");
    }

    #[test]
    fn reader_rejects_malformed_documents() {
        for bad in ["", "{", "{\"a\" 1}", "[1,]", "\"open", "{} x", "tru"] {
            assert!(Json::parse(bad).is_err(), "{bad:?} must not parse");
        }
    }

    /// The writer's output is what an independent parser accepts.
    #[test]
    fn writer_round_trips_through_python_json_tool() {
        let mut child = Command::new("python3")
            .args(["-m", "json.tool", "--compact"])
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .spawn()
            .expect("python3 is needed for this test");
        child.stdin.take().unwrap().write_all(sample().render().as_bytes()).unwrap();
        let out = child.wait_with_output().unwrap();
        assert!(out.status.success(), "json.tool rejected the document");
        let reparsed = Json::parse(std::str::from_utf8(&out.stdout).unwrap()).unwrap();
        assert_eq!(reparsed, sample());
    }
}
