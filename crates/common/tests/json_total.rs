//! The JSON reader is total: on any input it returns `Ok` or `Err` and
//! never panics, including arbitrary bytes and every truncation of a
//! committed artifact, and `render`/`render_pretty` followed by `parse`
//! give back the same document.

use proptest::prelude::*;
use stashdir_common::json::Value;

/// Fragments that steer random input into every branch of the reader:
/// structure, literals, numbers, escapes and surrogate halves.
const TOKENS: [&str; 32] = [
    "{", "}", "[", "]", "\"", ":", ",", " ", "\n", "\\", "\\u", "\\n", "d800", "dbff", "dc00",
    "0000", "+12", "-", "0", "17", ".", "5", "e", "E+", "true", "null", "fals", "nul", "é", "😀",
    "\u{1}", "\"k\":",
];

fn arb_tokens() -> impl Strategy<Value = String> {
    let piece = prop_oneof![
        4 => prop::sample::select(TOKENS.to_vec()).prop_map(str::to_string),
        1 => any::<u8>().prop_map(|b| String::from_utf8_lossy(&[b]).into_owned()),
    ];
    prop::collection::vec(piece, 0..120).prop_map(|v| v.concat())
}

/// String literals built from escapes, surrogate halves in every order
/// and malformed `\u` sequences.
fn arb_string_literal() -> impl Strategy<Value = String> {
    let escape = prop::sample::select(vec![
        "\\ud800", "\\udbff", "\\udc00", "\\udfff", "\\u0000", "\\u00e9", "\\u+123", "\\u12",
        "\\n", "\\\\", "\\\"", "\\x", "a", "é",
    ]);
    prop::collection::vec(escape, 0..6).prop_map(|v| format!("\"{}\"", v.concat()))
}

fn arb_bytes() -> impl Strategy<Value = String> {
    prop::collection::vec(any::<u8>(), 0..300)
        .prop_map(|b| String::from_utf8_lossy(&b).into_owned())
}

/// Random documents up to a fixed depth, with finite numbers only (JSON
/// has no NaN or infinity; `render` writes those as `null`).
struct ArbValue {
    depth: u32,
}

const CHARS: [char; 12] = [
    'a', 'Z', '"', '\\', '/', '\n', '\t', '\u{1}', '\u{1f}', 'é', '€', '😀',
];

fn arb_string(rng: &mut TestRng) -> String {
    let len = rng.below(8) as usize;
    (0..len)
        .map(|_| CHARS[rng.below(CHARS.len() as u64) as usize])
        .collect()
}

fn arb_number(rng: &mut TestRng) -> f64 {
    match rng.below(4) {
        0 => rng.below(1000) as f64,
        1 => -(rng.next_u64() as f64),
        2 => rng.below(1 << 20) as f64 / 1024.0,
        _ => {
            let x = f64::from_bits(rng.next_u64());
            if x.is_finite() {
                x
            } else {
                0.5
            }
        }
    }
}

impl Strategy for ArbValue {
    type Value = Value;

    fn sample(&self, rng: &mut TestRng) -> Value {
        let leaf = self.depth == 0 || rng.below(3) == 0;
        let inner = ArbValue {
            depth: self.depth.saturating_sub(1),
        };
        match (leaf, rng.below(4)) {
            (true, 0) => Value::Null,
            (true, 1) => Value::Bool(rng.below(2) == 0),
            (true, 2) => Value::Number(arb_number(rng)),
            (true, _) => Value::String(arb_string(rng)),
            (false, k) if k % 2 == 0 => {
                Value::Array((0..rng.below(5)).map(|_| inner.sample(rng)).collect())
            }
            (false, _) => Value::Object(
                (0..rng.below(5))
                    .map(|_| (arb_string(rng), inner.sample(rng)))
                    .collect(),
            ),
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(2000))]

    /// Token soup, string escapes and raw bytes: `parse` returns, and whatever it accepts
    /// renders to a document that parses back to the same value.
    #[test]
    fn parse_never_panics(
        tokens in arb_tokens(),
        literal in arb_string_literal(),
        bytes in arb_bytes(),
    ) {
        for text in [tokens, literal, bytes] {
            if let Ok(v) = Value::parse(&text) {
                prop_assert_eq!(Value::parse(&v.render()), Ok(v));
            }
        }
    }

    /// `render` and `render_pretty` are inverted by `parse`.
    #[test]
    fn render_then_parse_round_trips(v in ArbValue { depth: 4 }) {
        prop_assert_eq!(Value::parse(&v.render()), Ok(v.clone()));
        prop_assert_eq!(Value::parse(&v.render_pretty()), Ok(v));
    }
}

/// Every prefix of a committed artifact parses to `Err`, except the
/// prefixes that only drop trailing whitespace, which parse to the whole
/// document.
#[test]
fn every_truncation_of_a_committed_artifact_is_an_error() {
    let path = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../../results/campaign/coverage.json"
    );
    let text = std::fs::read_to_string(path).expect("committed artifact");
    let whole = Value::parse(&text).expect("the artifact itself parses");
    for end in (0..text.len()).filter(|&i| text.is_char_boundary(i)) {
        let prefix = &text[..end];
        match Value::parse(prefix) {
            Ok(v) => {
                assert_eq!(prefix.trim_end(), text.trim_end(), "prefix {end} parsed");
                assert_eq!(v, whole);
            }
            Err(e) => assert!(e.offset <= end, "offset {} past prefix {end}", e.offset),
        }
    }
}
