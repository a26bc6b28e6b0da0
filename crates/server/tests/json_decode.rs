//! The JSON decoder every request frame goes through: deep nesting is an
//! error (never a stack overflow), strings round-trip exactly, and string
//! decoding is linear in the input length.

use std::time::{Duration, Instant};

use dbgpt_server::{decode_frame, Request};
use serde_json::Value;

/// A length-prefixed frame around `body`.
fn frame(body: &str) -> Vec<u8> {
    let mut buf = (body.len() as u32).to_be_bytes().to_vec();
    buf.extend_from_slice(body.as_bytes());
    buf
}

#[test]
fn hundred_thousand_nested_arrays_are_an_error_not_an_abort() {
    let body = format!("{}{}", "[".repeat(100_000), "]".repeat(100_000));
    assert!(decode_frame::<Request>(&frame(&body)).is_err());
    assert!(decode_frame::<Value>(&frame(&body)).is_err());
}

#[test]
fn deeply_nested_objects_are_an_error() {
    let body = format!("{}1{}", "{\"a\":".repeat(100_000), "}".repeat(100_000));
    assert!(decode_frame::<Value>(&frame(&body)).is_err());
    let err = serde_json::from_str::<Value>(&body).unwrap_err();
    assert!(err.to_string().contains("nesting"), "{err}");
}

#[test]
fn nesting_limit_is_128_levels() {
    let nested = |depth: usize| format!("{}{}", "[".repeat(depth), "]".repeat(depth));
    assert!(serde_json::from_str::<Value>(&nested(128)).is_ok());
    assert!(serde_json::from_str::<Value>(&nested(129)).is_err());
    let objects = |depth: usize| format!("{}null{}", "{\"k\":".repeat(depth), "}".repeat(depth));
    assert!(serde_json::from_str::<Value>(&objects(128)).is_ok());
    assert!(serde_json::from_str::<Value>(&objects(129)).is_err());
    // Siblings do not add depth.
    let wide = format!("[{}]", vec!["[[1]]"; 10_000].join(","));
    assert!(serde_json::from_str::<Value>(&wide).is_ok());
}

/// xorshift64* — deterministic input generation.
struct Rng(u64);

impl Rng {
    fn below(&mut self, n: u64) -> u64 {
        self.0 ^= self.0 << 13;
        self.0 ^= self.0 >> 7;
        self.0 ^= self.0 << 17;
        self.0.wrapping_mul(0x2545_F491_4F6C_DD1D) % n
    }
}

/// ASCII, two/three/four-byte UTF-8, every short escape and control bytes.
const PALETTE: &[char] = &[
    'a', 'Z', '0', ' ', '~', '\u{7f}', 'é', 'ß', '中', '文', '€', '😀', '𝄞', '"', '\\', '/', '\n',
    '\t', '\r', '\u{8}', '\u{c}', '\u{0}', '\u{1}', '\u{1f}',
];

/// `c` written the way a JSON encoder might: raw, a short escape, or `\u`.
fn encode_char(c: char, style: u64, out: &mut String) {
    let short = match c {
        '"' => Some("\\\""),
        '\\' => Some("\\\\"),
        '/' => Some("\\/"),
        '\n' => Some("\\n"),
        '\t' => Some("\\t"),
        '\r' => Some("\\r"),
        '\u{8}' => Some("\\b"),
        '\u{c}' => Some("\\f"),
        _ => None,
    };
    let must_escape = matches!(c, '"' | '\\') || (c as u32) < 0x20;
    match (style, short) {
        (0, Some(s)) => out.push_str(s),
        // `\u` escapes cover the BMP; upper- and lower-case hex both parse.
        (1, _) if (c as u32) <= 0xffff => out.push_str(&format!("\\u{:04x}", c as u32)),
        (2, _) if (c as u32) <= 0xffff => out.push_str(&format!("\\u{:04X}", c as u32)),
        _ if must_escape => out.push_str(&format!("\\u{:04x}", c as u32)),
        _ => out.push(c),
    }
}

#[test]
fn strings_round_trip_through_every_escape_form() {
    let mut rng = Rng(0x9e37_79b9_7f4a_7c15);
    for case in 0..2_000 {
        let len = rng.below(40) as usize;
        let s: String = (0..len)
            .map(|_| PALETTE[rng.below(PALETTE.len() as u64) as usize])
            .collect();
        // The encoder's own output decodes to the same string.
        let encoded = serde_json::to_string(&Value::String(s.clone())).unwrap();
        assert_eq!(
            serde_json::from_str::<Value>(&encoded).unwrap(),
            Value::String(s.clone()),
            "case {case}: {encoded}"
        );
        // So does a mix of raw characters, short escapes and `\u` escapes.
        let mut mixed = String::from("\"");
        for c in s.chars() {
            encode_char(c, rng.below(4), &mut mixed);
        }
        mixed.push('"');
        assert_eq!(
            serde_json::from_str::<String>(&mixed).unwrap(),
            s,
            "case {case}: {mixed}"
        );
    }
}

#[test]
fn malformed_strings_keep_their_errors() {
    for (input, needle) in [
        ("\"abc", "unterminated string"),
        ("\"a\u{1}b\"", "unescaped control character at byte 2"),
        ("\"a\\qb\"", "bad escape at byte 3"),
        ("\"\\u12\"", "bad \\u escape"),
        ("\"\\u12G4\"", "bad \\u escape"),
        ("\"é\\", "bad escape at byte 4"),
    ] {
        let err = serde_json::from_str::<Value>(input).unwrap_err();
        assert!(err.to_string().contains(needle), "{input:?}: {err}");
    }
    // A lone surrogate decodes to U+FFFD.
    assert_eq!(
        serde_json::from_str::<String>("\"\\ud800\"").unwrap(),
        "\u{fffd}"
    );
}

#[test]
fn four_mib_string_decodes_in_linear_time() {
    let unit = "the quick brown fox — 中文 😀 \\n \\\" ";
    let mut body = String::from("\"");
    while body.len() < 4 << 20 {
        body.push_str(unit);
    }
    body.push('"');
    let start = Instant::now();
    let decoded = serde_json::from_str::<String>(&body).unwrap();
    let took = start.elapsed();
    assert!(took < Duration::from_secs(10), "4 MiB string took {took:?}");
    let expected_unit = "the quick brown fox — 中文 😀 \n \" ";
    assert!(decoded.starts_with(expected_unit));
    assert_eq!(decoded.len() % expected_unit.len(), 0);
}
