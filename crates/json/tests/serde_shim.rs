//! The serde shims' text layer, driven through `serde_json`: typed and
//! `Value` round trips, integer formatting, escapes and malformed input.

use serde_json::{from_str, to_string, to_string_pretty, Value};

#[test]
fn round_trip_value() {
    let v = Value::Object(vec![
        ("name".into(), Value::String("graph \"x\"\n".into())),
        ("n".into(), Value::Number(42.0)),
        ("density".into(), Value::Number(1.75)),
        ("ok".into(), Value::Bool(true)),
        (
            "xs".into(),
            Value::Array(vec![Value::Number(1.0), Value::Null]),
        ),
        ("empty".into(), Value::Array(vec![])),
    ]);
    let compact = to_string(&v).unwrap();
    let back: Value = from_str(&compact).unwrap();
    assert_eq!(back, v);
    let pretty = to_string_pretty(&v).unwrap();
    let back: Value = from_str(&pretty).unwrap();
    assert_eq!(back, v);
    assert!(pretty.contains("\n  \"name\""));
}

#[test]
fn integers_have_no_decimal_point() {
    assert_eq!(to_string(&42u64).unwrap(), "42");
    assert_eq!(to_string(&1.5f64).unwrap(), "1.5");
    assert_eq!(to_string(&(-3i64)).unwrap(), "-3");
}

#[test]
fn parses_nested_and_escapes() {
    let v: Value = from_str(r#"{"a": [1, 2.5, "xA\n"], "b": {"c": null}}"#).unwrap();
    assert_eq!(v.get("a").unwrap().as_array().unwrap().len(), 3);
    assert_eq!(
        v.get("a").unwrap().as_array().unwrap()[2].as_str().unwrap(),
        "xA\n"
    );
    assert_eq!(v.get("b").unwrap().get("c").unwrap(), &Value::Null);
}

#[test]
fn rejects_garbage() {
    assert!(from_str::<Value>("{").is_err());
    assert!(from_str::<Value>("[1, 2,]").is_err());
    assert!(from_str::<Value>("1 2").is_err());
    assert!(from_str::<Value>("nul").is_err());
    // A high surrogate must pair with a low one.
    assert!(from_str::<Value>(r#""\ud800\u0041""#).is_err());
    assert!(from_str::<Value>(r#""\ud800\ue000""#).is_err());
    assert!(from_str::<Value>(r#""\ud800x""#).is_err());
    assert_eq!(
        from_str::<Value>(r#""\ud801\udc00""#).unwrap(),
        Value::String("\u{10400}".to_string())
    );
}

#[test]
fn typed_round_trip() {
    let xs: Vec<u32> = from_str("[1, 2, 3]").unwrap();
    assert_eq!(xs, vec![1, 2, 3]);
    let s: String = from_str(r#""hello""#).unwrap();
    assert_eq!(s, "hello");
}

#[test]
fn large_u64_round_trips_exactly() {
    for n in [(1u64 << 53) + 1, (1u64 << 63) + 1, u64::MAX] {
        let text = to_string(&n).unwrap();
        assert_eq!(text, n.to_string());
        assert_eq!(from_str::<u64>(&text).unwrap(), n);
        let xs: Vec<u64> = from_str(&to_string(&vec![n, 7]).unwrap()).unwrap();
        assert_eq!(xs, vec![n, 7]);
    }
    assert_eq!(
        to_string(&((1u64 << 63) + 1)).unwrap(),
        "9223372036854775809"
    );
    // Exact literals that do not fit the target type are range errors.
    assert!(from_str::<u32>("9007199254740993").is_err());
    assert!(from_str::<i64>("18446744073709551615").is_err());
}

#[test]
fn control_characters_use_u00xx_escapes() {
    let s = "\u{8}\u{c}\u{1f}";
    assert_eq!(to_string(s).unwrap(), r#""\u0008\u000c\u001f""#);
    assert_eq!(from_str::<String>(&to_string(s).unwrap()).unwrap(), s);
}
