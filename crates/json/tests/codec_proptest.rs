//! Property tests for the codec: the parser is total on arbitrary input,
//! writing then parsing a `Value` gives it back, and the nesting limit
//! sits exactly at `MAX_DEPTH`.

use mcpb_json::{parse, parse_prefix, to_string, to_string_pretty, Error, Value, MAX_DEPTH};
use proptest::collection;
use proptest::prelude::*;

type Op = (u8, u64, String);

/// Builds a value tree from a flat list of fuzzed ops. Numbers are built in
/// canonical form: an integer-valued `f64` in (2^53, 2^64) is written as
/// digits, which read back as the exact `Value::U64`.
fn build(ops: &mut std::slice::Iter<'_, Op>, depth: usize) -> Value {
    let Some((kind, n, s)) = ops.next() else {
        return Value::Null;
    };
    let width = usize::try_from(n % 4).unwrap();
    match kind % 8 {
        0 => Value::Null,
        1 => Value::Bool(n % 2 == 0),
        2 => {
            let x = f64::from_bits(*n);
            let x = if x.is_finite() { x } else { *n as f64 };
            if x >= 9_007_199_254_740_992.0 && x < 18_446_744_073_709_551_616.0 && x.trunc() == x {
                Value::from(x as u64)
            } else {
                Value::Number(x)
            }
        }
        3 => Value::from(*n),
        4 => Value::String(s.clone()),
        5 if depth < MAX_DEPTH => Value::Array((0..width).map(|_| build(ops, depth + 1)).collect()),
        6 if depth < MAX_DEPTH => Value::Object(
            (0..width)
                .map(|i| (format!("{s}{i}"), build(ops, depth + 1)))
                .collect(),
        ),
        _ => Value::String(s.clone()),
    }
}

fn nested_arrays(depth: usize) -> String {
    format!("{}{}", "[".repeat(depth), "]".repeat(depth))
}

fn nested_objects(depth: usize) -> String {
    format!("{}1{}", "{\"k\":".repeat(depth), "}".repeat(depth))
}

const FRAGMENTS: &[&str] = &[
    "{",
    "}",
    "[",
    "]",
    "\"k\":",
    ",",
    ":",
    "null",
    "true",
    "fals",
    "-",
    "1",
    "1.5e3",
    "18446744073709551616",
    "9007199254740993",
    "\"s\"",
    "\"\\ud83d",
    "\\ude00\"",
    "\\u00",
    "\"unterminated",
    "\u{0}",
    "变量",
    "  ",
];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn arbitrary_bytes_never_panic(bytes in collection::vec(any::<u8>(), 0..300)) {
        let text = String::from_utf8_lossy(&bytes);
        let _ = parse(&text);
        if let Ok((_, rest)) = parse_prefix(&text) {
            prop_assert!(text.ends_with(rest));
        }
    }

    #[test]
    fn fragment_soup_never_panics(picks in collection::vec(0usize..FRAGMENTS.len(), 0..40)) {
        let text: String = picks.iter().map(|&i| FRAGMENTS[i]).collect();
        let _ = parse(&text);
        let _ = parse_prefix(&text);
    }

    #[test]
    fn write_then_parse_round_trips(
        ops in collection::vec((any::<u8>(), any::<u64>(), ".{0,6}"), 1..60)
    ) {
        let value = build(&mut ops.iter(), 0);
        let compact = to_string(&value);
        prop_assert_eq!(&parse(&compact).unwrap(), &value);
        // Writing is a fixed point once parsed: the bytes are canonical.
        prop_assert_eq!(to_string(&parse(&compact).unwrap()), compact.clone());
        prop_assert_eq!(&parse(&to_string_pretty(&value)).unwrap(), &value);
        let line = format!("{compact},tail");
        let (prefix, rest) = parse_prefix(&line).unwrap();
        prop_assert_eq!(&prefix, &value);
        prop_assert_eq!(rest, ",tail");
    }
}

#[test]
fn depth_limit_sits_between_32_and_33() {
    assert_eq!(MAX_DEPTH, 32);
    for nest in [nested_arrays, nested_objects] {
        assert!(parse(&nest(MAX_DEPTH)).is_ok());
        assert_eq!(
            parse(&nest(MAX_DEPTH + 1)),
            Err(Error::TooDeep {
                depth: MAX_DEPTH + 1
            })
        );
    }
}

#[test]
fn nesting_bomb_is_a_typed_error() {
    let bomb = "[".repeat(1_000_000);
    assert_eq!(
        parse(&bomb),
        Err(Error::TooDeep {
            depth: MAX_DEPTH + 1
        })
    );
    assert!(parse_prefix(&bomb).is_err());
}

#[test]
fn integers_above_2_pow_53_are_exact() {
    assert_eq!(
        parse("9007199254740992").unwrap(),
        Value::Number(9_007_199_254_740_992.0)
    );
    let v = parse("9007199254740993").unwrap();
    assert_eq!(v, Value::U64(9_007_199_254_740_993));
    assert_eq!(v.as_u64(), Some(9_007_199_254_740_993));
    assert_eq!(to_string(&v), "9007199254740993");
    let max = parse("18446744073709551615").unwrap();
    assert_eq!(max.as_u64(), Some(u64::MAX));
    // Past u64, or spelled as a float, a number is an f64 and not an integer.
    assert_eq!(parse("18446744073709551616").unwrap().as_u64(), None);
    assert_eq!(parse("1e300").unwrap().as_u64(), None);
    assert_eq!(parse("1.5").unwrap().as_u64(), None);
    assert_eq!(parse("-1").unwrap().as_u64(), None);
    assert_eq!(parse("1e3").unwrap().as_u64(), Some(1000));
    assert_eq!(
        Value::from(1u64 << 53),
        Value::Number(9_007_199_254_740_992.0)
    );
    assert_eq!(Value::from((1u64 << 53) + 1), Value::U64((1 << 53) + 1));
}

#[test]
fn scalar_writers_match_the_wire_formats() {
    let mut out = String::new();
    mcpb_json::write_str(&mut out, "q\"b\\n\nr\rt\t\u{8}\u{c}\u{1}é😀");
    assert_eq!(out, r#""q\"b\\n\nr\rt\t\u0008\u000c\u0001é😀""#);
    for (x, text) in [
        (2000.0, "2000"),
        (0.25, "0.25"),
        (-0.0, "-0"),
        (1.5e-7, "0.00000015"),
        (f64::NAN, "null"),
        (f64::INFINITY, "null"),
    ] {
        let mut out = String::new();
        mcpb_json::write_f64(&mut out, x);
        assert_eq!(out, text);
    }
    let mut out = String::new();
    mcpb_json::write_u64(&mut out, u64::MAX);
    assert_eq!(out, "18446744073709551615");
}

#[test]
fn surrogate_pairs_decode_and_lone_halves_are_errors() {
    assert_eq!(
        parse(r#""\ud83d\ude00""#).unwrap(),
        Value::String("\u{1F600}".to_string())
    );
    for bad in [
        r#""\ude00""#,
        r#""\ud83d""#,
        r#""\ud83d\u0041""#,
        r#""\ud83d\ud83d""#,
        r#""\ud83d x""#,
        r#""\u12g4""#,
        r#""\u+041""#,
    ] {
        assert!(matches!(parse(bad), Err(Error::Syntax(_))), "{bad}");
    }
}

#[test]
fn error_messages_locate_the_fault() {
    let msg = |text: &str| parse(text).unwrap_err().to_string();
    assert_eq!(msg("1 2"), "trailing characters at byte 2");
    assert_eq!(
        msg("[1 2]"),
        "expected `,` or `]`, found Some('2') at byte 3"
    );
    assert_eq!(msg("nul"), "invalid literal at byte 0");
    assert_eq!(msg(&nested_arrays(40)), "nesting depth 33 exceeds limit 32");
}
