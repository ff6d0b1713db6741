//! Minimal JSON reader/writer for the trace format.
//!
//! The workspace builds offline with no serialization crate, so every
//! serialized artifact in this repo is hand-rolled JSON. This
//! module is the one shared implementation: the trace exporter writes
//! through [`push_str_escaped`], and `pod-cli stats` / `figures` read
//! traces back through [`parse`]. It supports exactly the JSON this
//! codebase emits — objects, arrays, strings with simple escapes,
//! `f64` numbers, booleans and `null` — and rejects anything it cannot
//! represent instead of mis-reading it.

/// A parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any number (always held as `f64`; the formats here stay well
    /// inside the 2^53 integer range).
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object, in source order (duplicate keys keep the first).
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Member of an object by key.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(pairs) => pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The value as a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The value as an unsigned integer (must be whole and in range).
    pub fn as_u64(&self) -> Option<u64> {
        let n = self.as_f64()?;
        (n >= 0.0 && n.fract() == 0.0 && n <= (1u64 << 53) as f64).then_some(n as u64)
    }

    /// The value as a string slice.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The value as an array slice.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// The value as an array of exactly `N` unsigned integers.
    pub fn as_u64_array<const N: usize>(&self) -> Option<[u64; N]> {
        let items = self.as_arr().filter(|items| items.len() == N)?;
        let mut out = [0; N];
        for (slot, item) in out.iter_mut().zip(items) {
            *slot = item.as_u64()?;
        }
        Some(out)
    }

    /// The value as a bool.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }
}

/// Append `s` to `out` as a quoted JSON string, escaping the characters
/// the parser understands (`"`/`\\`/newline/tab; other control bytes
/// are replaced with spaces rather than emitted raw).
pub fn push_str_escaped(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push(' '),
            c => out.push(c),
        }
    }
    out.push('"');
}

/// Deepest container nesting [`parse`] accepts. A recorded trace nests
/// 3 deep (line → `"snap"` → histogram array); the parser recurses once
/// per level, so without a bound a crafted line of `[[[[…` overflows
/// the stack instead of returning an error.
const MAX_DEPTH: usize = 64;

/// Parse one complete JSON document (trailing whitespace allowed).
pub fn parse(s: &str) -> Result<Json, String> {
    let mut p = Parser {
        bytes: s.as_bytes(),
        pos: 0,
        depth: 0,
    };
    let v = p.value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(format!("trailing garbage at byte {}", p.pos));
    }
    Ok(v)
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
    /// Containers currently open around `pos`.
    depth: usize,
}

impl Parser<'_> {
    fn skip_ws(&mut self) {
        while self.pos < self.bytes.len() && self.bytes[self.pos].is_ascii_whitespace() {
            self.pos += 1;
        }
    }

    fn peek(&mut self) -> Option<u8> {
        self.skip_ws();
        self.bytes.get(self.pos).copied()
    }

    fn expect(&mut self, b: u8) -> Result<(), String> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(format!("expected '{}' at byte {}", b as char, self.pos))
        }
    }

    fn value(&mut self) -> Result<Json, String> {
        match self.peek() {
            Some(b'{') => self.nested(Self::object),
            Some(b'[') => self.nested(Self::array),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'n') => self.literal("null", Json::Null),
            Some(_) => self.number(),
            None => Err("unexpected end of input".into()),
        }
    }

    fn nested(&mut self, container: fn(&mut Self) -> Result<Json, String>) -> Result<Json, String> {
        if self.depth == MAX_DEPTH {
            return Err(format!(
                "nesting deeper than {MAX_DEPTH} at byte {}",
                self.pos
            ));
        }
        self.depth += 1;
        let v = container(self);
        self.depth -= 1;
        v
    }

    fn literal(&mut self, word: &str, v: Json) -> Result<Json, String> {
        self.skip_ws();
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(v)
        } else {
            Err(format!("bad literal at byte {}", self.pos))
        }
    }

    fn number(&mut self) -> Result<Json, String> {
        self.skip_ws();
        let start = self.pos;
        while self
            .bytes
            .get(self.pos)
            .is_some_and(|b| b.is_ascii_digit() || matches!(b, b'-' | b'+' | b'.' | b'e' | b'E'))
        {
            self.pos += 1;
        }
        std::str::from_utf8(&self.bytes[start..self.pos])
            .ok()
            .and_then(|s| s.parse().ok())
            .map(Json::Num)
            .ok_or_else(|| format!("bad number at byte {start}"))
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut s = String::new();
        loop {
            match self.bytes.get(self.pos) {
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(s);
                }
                Some(b'\\') => {
                    let lit = match self.bytes.get(self.pos + 1).copied() {
                        Some(b'"') => '"',
                        Some(b'\\') => '\\',
                        Some(b'/') => '/',
                        Some(b'n') => '\n',
                        Some(b't') => '\t',
                        _ => return Err(format!("unsupported escape at byte {}", self.pos)),
                    };
                    s.push(lit);
                    self.pos += 2;
                }
                Some(&b) if b < 0x80 => {
                    s.push(b as char);
                    self.pos += 1;
                }
                Some(_) => {
                    // Multi-byte UTF-8: copy the whole code point.
                    let rest = &self.bytes[self.pos..];
                    let s_rest =
                        std::str::from_utf8(rest).map_err(|_| "invalid UTF-8".to_string())?;
                    let c = s_rest.chars().next().expect("non-empty");
                    s.push(c);
                    self.pos += c.len_utf8();
                }
                None => return Err("unterminated string".into()),
            }
        }
    }

    fn array(&mut self) -> Result<Json, String> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Arr(items));
        }
        loop {
            items.push(self.value()?);
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Arr(items));
                }
                _ => return Err(format!("bad array at byte {}", self.pos)),
            }
        }
    }

    fn object(&mut self) -> Result<Json, String> {
        self.expect(b'{')?;
        let mut pairs = Vec::new();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Obj(pairs));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.expect(b':')?;
            pairs.push((key, self.value()?));
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(pairs));
                }
                _ => return Err(format!("bad object at byte {}", self.pos)),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_the_formats_we_emit() {
        let v = parse(r#"{"a": 1, "b": [true, null, "x\ny"], "c": -2.5e1}"#).expect("parse");
        assert_eq!(v.get("a").and_then(Json::as_u64), Some(1));
        assert_eq!(v.get("c").and_then(Json::as_f64), Some(-25.0));
        let arr = v.get("b").and_then(Json::as_arr).expect("array");
        assert_eq!(arr[0].as_bool(), Some(true));
        assert_eq!(arr[1], Json::Null);
        assert_eq!(arr[2].as_str(), Some("x\ny"));
    }

    #[test]
    fn escape_round_trips() {
        let mut out = String::new();
        push_str_escaped(&mut out, "a\"b\\c\nd\te");
        let v = parse(&out).expect("parse");
        assert_eq!(v.as_str(), Some("a\"b\\c\nd\te"));
    }

    #[test]
    fn rejects_garbage() {
        assert!(parse("{").is_err());
        assert!(parse("[1,]").is_err());
        assert!(parse("12 34").is_err());
        assert!(parse("\"\\u0041\"").is_err(), "unicode escapes unsupported");
    }

    #[test]
    fn nesting_is_bounded() {
        let nest = |n: usize| "[".repeat(n) + &"]".repeat(n);
        assert!(parse(&nest(MAX_DEPTH)).is_ok());
        let err = parse(&nest(MAX_DEPTH + 1)).expect_err("one level too deep");
        assert!(
            err.starts_with("nesting deeper than 64 at byte 64"),
            "{err}"
        );
        // Deep enough to overflow the stack if the bound were not there.
        assert!(parse(&"[".repeat(100_000)).is_err());
        assert!(parse(&r#"{"a":"#.repeat(100_000)).is_err());
        // Depth is the open containers, not the count seen so far.
        let wide = format!("[{}]", vec!["[[]]"; 100].join(","));
        assert!(parse(&wide).is_ok());
    }

    #[test]
    fn u64_guards() {
        assert_eq!(parse("1.5").unwrap().as_u64(), None);
        assert_eq!(parse("-1").unwrap().as_u64(), None);
        assert_eq!(parse("42").unwrap().as_u64(), Some(42));
    }
}
