//! JSON for the `BENCH_*.json` records, in one place.
//!
//! Hand-rolled in the workspace's usual style (no external serializer):
//!
//! * [`fmt_f64`] — the one float formatter;
//! * [`escape`] — the one string escaper;
//! * [`results_json`] — the deterministic result digest `qos_server`
//!   hashes;
//! * the cache, quantile and rate blocks the serving records share;
//! * [`parse`] — a small *strict* JSON reader: balanced structure, no
//!   trailing commas, no `NaN`/`Infinity` tokens, nothing after the
//!   top-level value. It validates; it does not aim to be a general
//!   deserializer;
//! * [`emit`] — the only way a binary prints a record: the document is
//!   checked with [`parse`] first, so every `--quick` run is a
//!   strict-JSON check.

use std::collections::BTreeMap;
use std::fmt;

use oaq_engine::{CacheShardStats, CacheStatsSnapshot, EngineResult, QosValue};

/// One f64 as a JSON value: scientific notation with 17 digits after the
/// point when finite — enough to round-trip every f64 exactly, so two
/// runs that produced bit-identical answers print byte-identical JSON —
/// and the literal `null` otherwise. Bare `NaN`/`inf` are not JSON; an
/// empty latency stage (e.g. a p99 with fewer than five observations)
/// must serialize as an absent measurement, not a parse error downstream.
#[must_use]
pub fn fmt_f64(x: f64) -> String {
    if x.is_finite() {
        format!("{x:.17e}")
    } else {
        "null".to_string()
    }
}

/// Minimal JSON string escaping (quotes, backslashes, control chars).
#[must_use]
pub fn escape(s: &str) -> String {
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

fn value_json(v: &QosValue) -> String {
    match v {
        QosValue::Scalar(x) => format!("{{\"scalar\":{}}}", fmt_f64(*x)),
        QosValue::Distribution(d) => {
            let items: Vec<String> = d.iter().map(|&x| fmt_f64(x)).collect();
            format!("{{\"distribution\":[{}]}}", items.join(","))
        }
    }
}

/// The results of a replayed workload as a deterministic JSON array, in
/// submission order. Errors serialize as their display string.
#[must_use]
pub fn results_json(results: &[EngineResult]) -> String {
    let items: Vec<String> = results
        .iter()
        .map(|r| match r {
            Ok(v) => value_json(v),
            Err(e) => format!("{{\"error\":\"{}\"}}", escape(&e.to_string())),
        })
        .collect();
    format!("[{}]", items.join(","))
}

fn shards_json(shards: &[CacheShardStats]) -> String {
    let items: Vec<String> = shards
        .iter()
        .map(|s| {
            format!(
                "{{\"hits\":{},\"misses\":{},\"inserts\":{},\"contended\":{},\"entries\":{}}}",
                s.hits, s.misses, s.inserts, s.contended, s.entries
            )
        })
        .collect();
    format!("[{}]", items.join(","))
}

/// Both cache layers' per-shard counters plus layer totals.
#[must_use]
pub fn cache_stats_json(stats: &CacheStatsSnapshot) -> String {
    let totals = |layer: &[CacheShardStats]| {
        let hits: u64 = layer.iter().map(|s| s.hits).sum();
        let misses: u64 = layer.iter().map(|s| s.misses).sum();
        let contended: u64 = layer.iter().map(|s| s.contended).sum();
        format!("{{\"hits\":{hits},\"misses\":{misses},\"contended\":{contended}}}")
    };
    format!(
        "{{\"result_total\":{},\"pk_total\":{},\"result_shards\":{},\"pk_shards\":{}}}",
        totals(&stats.result),
        totals(&stats.pk),
        shards_json(&stats.result),
        shards_json(&stats.pk),
    )
}

/// A latency block: the sample count plus named quantiles (seconds).
#[must_use]
pub fn quantiles_json(count: usize, q: &[(&str, f64)]) -> String {
    let mut fields = vec![format!("\"count\":{count}")];
    for (name, value) in q {
        fields.push(format!("\"{name}\":{}", fmt_f64(*value)));
    }
    format!("{{{}}}", fields.join(","))
}

/// `secs` and derived `qps` as one JSON block.
#[must_use]
#[allow(clippy::cast_precision_loss)]
pub fn rate_json(queries: usize, secs: f64) -> String {
    format!(
        "{{\"secs\":{},\"qps\":{}}}",
        fmt_f64(secs),
        fmt_f64(queries as f64 / secs)
    )
}

/// Prints `doc` on stdout as one benchmark record, after [`check`]ing it.
/// A document that fails the check is not printed: the reason goes to
/// stderr and the process exits 1.
pub fn emit(doc: &str) {
    if let Err(e) = check(doc) {
        eprintln!("# INTERNAL: emitted document is not a valid BENCH record: {e}");
        std::process::exit(1);
    }
    println!("{doc}");
}

/// Checks that `doc` is strict JSON whose top level is an object with a
/// string `experiment`, and returns it parsed.
///
/// # Errors
///
/// The parse error, or what the top level lacks.
pub fn check(doc: &str) -> Result<JsonValue, String> {
    let v = parse(doc).map_err(|e| e.to_string())?;
    match v.get("experiment") {
        Some(JsonValue::String(_)) => Ok(v),
        _ => Err("the top level is not an object with a string \"experiment\"".to_string()),
    }
}

// ---- strict parsing ----------------------------------------------------

/// A parsed JSON value (objects keep sorted keys; good enough for
/// validation and assertions).
#[derive(Debug, Clone, PartialEq)]
pub enum JsonValue {
    /// `null`.
    Null,
    /// `true`/`false`.
    Bool(bool),
    /// Any JSON number.
    Number(f64),
    /// A string (escapes resolved).
    String(String),
    /// An array.
    Array(Vec<JsonValue>),
    /// An object.
    Object(BTreeMap<String, JsonValue>),
}

impl JsonValue {
    /// Member lookup on an object; `None` otherwise.
    #[must_use]
    pub fn get(&self, key: &str) -> Option<&JsonValue> {
        match self {
            JsonValue::Object(m) => m.get(key),
            _ => None,
        }
    }

    /// The number payload; `None` otherwise.
    #[must_use]
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            JsonValue::Number(x) => Some(*x),
            _ => None,
        }
    }

    /// The array payload; `None` otherwise.
    #[must_use]
    pub fn as_array(&self) -> Option<&[JsonValue]> {
        match self {
            JsonValue::Array(a) => Some(a),
            _ => None,
        }
    }
}

/// Where and why parsing failed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JsonParseError {
    /// Byte offset of the failure.
    pub at: usize,
    /// What went wrong.
    pub message: String,
}

impl fmt::Display for JsonParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "JSON parse error at byte {}: {}", self.at, self.message)
    }
}

impl std::error::Error for JsonParseError {}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
    fn err<T>(&self, message: &str) -> Result<T, JsonParseError> {
        Err(JsonParseError {
            at: self.pos,
            message: message.to_string(),
        })
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn expect(&mut self, b: u8) -> Result<(), JsonParseError> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            self.err(&format!("expected '{}'", b as char))
        }
    }

    fn literal(&mut self, word: &str, value: JsonValue) -> Result<JsonValue, JsonParseError> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            self.err(&format!("expected '{word}'"))
        }
    }

    fn value(&mut self) -> Result<JsonValue, JsonParseError> {
        self.skip_ws();
        match self.peek() {
            Some(b'n') => self.literal("null", JsonValue::Null),
            Some(b't') => self.literal("true", JsonValue::Bool(true)),
            Some(b'f') => self.literal("false", JsonValue::Bool(false)),
            Some(b'"') => Ok(JsonValue::String(self.string()?)),
            Some(b'[') => self.array(),
            Some(b'{') => self.object(),
            Some(b'-' | b'0'..=b'9') => self.number(),
            Some(_) => self.err("unexpected character"),
            None => self.err("unexpected end of input"),
        }
    }

    fn string(&mut self) -> Result<String, JsonParseError> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return self.err("unterminated string"),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    match self.peek() {
                        Some(b'"') => out.push('"'),
                        Some(b'\\') => out.push('\\'),
                        Some(b'/') => out.push('/'),
                        Some(b'n') => out.push('\n'),
                        Some(b'r') => out.push('\r'),
                        Some(b't') => out.push('\t'),
                        Some(b'b') => out.push('\u{8}'),
                        Some(b'f') => out.push('\u{c}'),
                        Some(b'u') => {
                            if self.pos + 4 >= self.bytes.len() {
                                return self.err("truncated \\u escape");
                            }
                            let hex = std::str::from_utf8(&self.bytes[self.pos + 1..self.pos + 5])
                                .map_err(|_| JsonParseError {
                                    at: self.pos,
                                    message: "non-UTF-8 \\u escape".to_string(),
                                })?;
                            let cp = u32::from_str_radix(hex, 16).map_err(|_| JsonParseError {
                                at: self.pos,
                                message: "bad \\u escape".to_string(),
                            })?;
                            // Surrogates would need pairing; the emitter
                            // never writes them, so reject outright.
                            match char::from_u32(cp) {
                                Some(c) => out.push(c),
                                None => return self.err("surrogate \\u escape"),
                            }
                            self.pos += 4;
                        }
                        _ => return self.err("bad escape"),
                    }
                    self.pos += 1;
                }
                Some(c) if c < 0x20 => return self.err("raw control character in string"),
                Some(_) => {
                    // Consume one UTF-8 scalar (input is &str upstream, so
                    // boundaries are valid).
                    let s = std::str::from_utf8(&self.bytes[self.pos..]).map_err(|_| {
                        JsonParseError {
                            at: self.pos,
                            message: "invalid UTF-8".to_string(),
                        }
                    })?;
                    let ch = s.chars().next().unwrap();
                    out.push(ch);
                    self.pos += ch.len_utf8();
                }
            }
        }
    }

    fn number(&mut self) -> Result<JsonValue, JsonParseError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        let digits_from = self.pos;
        while matches!(self.peek(), Some(b'0'..=b'9')) {
            self.pos += 1;
        }
        if self.pos == digits_from {
            return self.err("digits expected");
        }
        // Strict: no leading zeros like 007.
        if self.pos - digits_from > 1 && self.bytes[digits_from] == b'0' {
            return self.err("leading zero");
        }
        if self.peek() == Some(b'.') {
            self.pos += 1;
            let frac_from = self.pos;
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
            if self.pos == frac_from {
                return self.err("fraction digits expected");
            }
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            let exp_from = self.pos;
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
            if self.pos == exp_from {
                return self.err("exponent digits expected");
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).unwrap();
        match text.parse::<f64>() {
            Ok(x) => Ok(JsonValue::Number(x)),
            Err(_) => self.err("unparseable number"),
        }
    }

    fn array(&mut self) -> Result<JsonValue, JsonParseError> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(JsonValue::Array(items));
        }
        loop {
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(JsonValue::Array(items));
                }
                _ => return self.err("expected ',' or ']'"),
            }
        }
    }

    fn object(&mut self) -> Result<JsonValue, JsonParseError> {
        self.expect(b'{')?;
        let mut map = BTreeMap::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(JsonValue::Object(map));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            let value = self.value()?;
            map.insert(key, value);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(JsonValue::Object(map));
                }
                _ => return self.err("expected ',' or '}'"),
            }
        }
    }
}

/// Parses `input` as one strict JSON document (whole input consumed).
///
/// # Errors
///
/// A [`JsonParseError`] locating the first violation.
pub fn parse(input: &str) -> Result<JsonValue, JsonParseError> {
    let mut p = Parser {
        bytes: input.as_bytes(),
        pos: 0,
    };
    let v = p.value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return p.err("trailing content after the document");
    }
    Ok(v)
}

#[cfg(test)]
mod tests {
    use super::*;
    use oaq_engine::EngineError;

    #[test]
    fn parses_the_emitters_output() {
        let shard = CacheShardStats {
            hits: 10,
            misses: 2,
            inserts: 2,
            contended: 1,
            entries: 2,
        };
        let stats = CacheStatsSnapshot {
            result: vec![shard, shard],
            pk: vec![shard],
        };
        let doc = format!(
            "{{\"cache\":{},\"lat\":{},\"rate\":{}}}",
            cache_stats_json(&stats),
            quantiles_json(100, &[("p50_s", 0.5), ("p999_s", f64::NAN)]),
            rate_json(1000, 2.0),
        );
        let v = parse(&doc).unwrap();
        assert_eq!(
            v.get("cache")
                .and_then(|c| c.get("result_total"))
                .and_then(|t| t.get("hits"))
                .and_then(JsonValue::as_f64),
            Some(20.0)
        );
        assert_eq!(
            v.get("lat").and_then(|l| l.get("p999_s")),
            Some(&JsonValue::Null),
            "NaN quantile must serialize as null"
        );
        assert_eq!(
            v.get("rate")
                .and_then(|r| r.get("qps"))
                .and_then(JsonValue::as_f64),
            Some(500.0)
        );
        assert_eq!(
            v.get("cache")
                .and_then(|c| c.get("result_shards"))
                .and_then(JsonValue::as_array)
                .map(<[JsonValue]>::len),
            Some(2)
        );
    }

    #[test]
    fn rejects_non_strict_documents() {
        for bad in [
            "",
            "{",
            "[1,2,]",
            "{\"a\":1,}",
            "NaN",
            "Infinity",
            "{\"a\" 1}",
            "1 2",
            "{\"a\":007}",
            "\"unterminated",
            "[1] tail",
        ] {
            assert!(parse(bad).is_err(), "{bad:?} must be rejected");
        }
    }

    #[test]
    fn round_trips_exact_floats() {
        let x = 0.123_456_789_012_345_68_f64;
        let v = parse(&fmt_f64(x)).unwrap();
        assert_eq!(v.as_f64().map(f64::to_bits), Some(x.to_bits()));
        assert_eq!(parse(&fmt_f64(f64::NAN)).unwrap(), JsonValue::Null);
    }

    #[test]
    fn parses_strings_and_escapes() {
        let v = parse(r#"{"k":"a\"b\\c\ndA"}"#).unwrap();
        assert_eq!(
            v.get("k"),
            Some(&JsonValue::String("a\"b\\c\nd\u{41}".to_string()))
        );
        assert!(parse("\"bad \\q escape\"").is_err());
    }

    #[test]
    fn floats_round_trip_exactly() {
        for x in [0.753_119_028_462_187_3, 1e-300, -0.0, 2.0 / 3.0] {
            let printed = fmt_f64(x);
            let back: f64 = printed.parse().unwrap();
            assert_eq!(back.to_bits(), x.to_bits(), "{printed}");
        }
    }

    #[test]
    fn non_finite_floats_become_null() {
        assert_eq!(fmt_f64(f64::NAN), "null");
        assert_eq!(fmt_f64(f64::INFINITY), "null");
        assert_eq!(fmt_f64(f64::NEG_INFINITY), "null");
        assert_eq!(fmt_f64(0.5), "5.00000000000000000e-1");
    }

    #[test]
    fn results_serialize_deterministically() {
        let results: Vec<EngineResult> = vec![
            Ok(QosValue::Scalar(0.75)),
            Ok(QosValue::Distribution(vec![0.25, 0.75])),
            Err(EngineError::WorkerLost),
        ];
        let a = results_json(&results);
        let b = results_json(&results);
        assert_eq!(a, b);
        assert!(a.starts_with("[{\"scalar\":"));
        assert!(a.contains("\"distribution\":["));
        assert!(a.contains("\"error\":\"worker lost"));
    }

    #[test]
    fn escaping_handles_quotes_and_controls() {
        assert_eq!(escape("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
        assert_eq!(escape("\u{1}"), "\\u0001");
    }

    #[test]
    fn check_requires_an_object_with_a_string_experiment() {
        assert!(check("{\"experiment\": \"pk_kernel\", \"quick\": true}").is_ok());
        for bad in [
            "[1, 2]",
            "{\"quick\": true}",
            "{\"experiment\": 17}",
            "{\"experiment\": \"x\",}",
            "{\"experiment\": \"x\", \"t\": NaN}",
        ] {
            assert!(check(bad).is_err(), "{bad:?} must be rejected");
        }
    }
}
