//! Property tests for the serve request parser: it is *total*. Whatever
//! bytes a client sends — random binary, arbitrary unicode, truncated or
//! mutated JSON, nesting bombs — `parse_request_bytes` returns `Ok` or a
//! typed `ParseError`. It never panics, and its `Display` never produces
//! an empty message (responses must always carry a reason).

use mcpb_serve::proto::{parse_request, parse_request_bytes};
use proptest::prelude::*;

fn assert_total(bytes: &[u8]) {
    match parse_request_bytes(bytes) {
        Ok(req) => {
            assert!(!req.dataset.is_empty(), "dataset field cannot be empty");
            assert!(req.budget >= 1, "budget is validated to be >= 1");
        }
        Err(e) => {
            let msg = format!("{e}");
            assert!(!msg.is_empty(), "typed errors must render a reason");
        }
    }
}

/// JSON-shaped fragments whose concatenations produce truncated objects,
/// duplicate keys, wrong types, and deep nesting.
const FRAGMENTS: &[&str] = &[
    "{",
    "}",
    "[",
    "]",
    "\"id\":",
    "\"task\":\"mcp\"",
    "\"task\":\"im\"",
    "\"task\":17",
    "\"dataset\":\"Damascus\"",
    "\"solver\":\"TopDegree\"",
    "\"budget\":5",
    "\"budget\":-3",
    "\"budget\":1e99",
    "\"deadline_ms\":50",
    "\"cost\":",
    ",",
    ":",
    "null",
    "true",
    "1.5",
    "\"unterminated",
    "\\u0000",
    "\u{0}",
    "变量",
    "   ",
];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn arbitrary_bytes_never_panic(bytes in proptest::collection::vec(any::<u8>(), 0..300)) {
        assert_total(&bytes);
    }

    #[test]
    fn arbitrary_strings_never_panic(src in ".{0,300}") {
        assert_total(src.as_bytes());
        // The str entry point agrees with the bytes entry point.
        let via_str = parse_request(&src);
        let via_bytes = parse_request_bytes(src.as_bytes());
        prop_assert_eq!(via_str, via_bytes);
    }

    #[test]
    fn json_fragment_soup_never_panics(
        picks in proptest::collection::vec(0usize..FRAGMENTS.len(), 0..30)
    ) {
        let src: String = picks.iter().map(|&i| FRAGMENTS[i]).collect();
        assert_total(src.as_bytes());
    }

    #[test]
    fn truncations_and_mutations_of_a_valid_request_never_panic(
        cut in 0usize..200,
        flip in 0usize..200,
        byte in any::<u8>()
    ) {
        let valid = b"{\"id\":42,\"task\":\"im\",\"dataset\":\"Damascus\",\"solver\":\"CELF-RIS\",\"budget\":9,\"deadline_ms\":120,\"cost\":3}";
        let mut bytes = valid[..cut.min(valid.len())].to_vec();
        assert_total(&bytes);
        if !bytes.is_empty() {
            let i = flip % bytes.len();
            bytes[i] = byte;
            assert_total(&bytes);
        }
    }
}

#[test]
fn nesting_bomb_is_screened_not_overflowed() {
    let mut bomb = String::from("{\"id\":");
    for _ in 0..2_000 {
        bomb.push('[');
    }
    assert_total(bomb.as_bytes());
    assert!(parse_request(&bomb).is_err());
}

#[test]
fn unpaired_high_surrogates_are_typed_errors() {
    // A high surrogate followed by an escape outside `\uDC00`-`\uDFFF`
    // once overflowed in debug builds and decoded to a wrong character in
    // release builds.
    for dataset in [r"\ud800\u0041", r"\ud800\ue000"] {
        let line = format!(
            "{{\"id\":1,\"task\":\"mcp\",\"dataset\":\"{dataset}\",\"solver\":\"TopDegree\",\"budget\":5}}"
        );
        assert_total(line.as_bytes());
        assert!(
            matches!(
                parse_request(&line),
                Err(mcpb_serve::proto::ParseError::Json(_))
            ),
            "{dataset} must be rejected"
        );
    }
}

#[test]
fn request_ids_are_exact_u64_values() {
    let line = |id: &str| {
        format!("{{\"id\":{id},\"task\":\"mcp\",\"dataset\":\"Damascus\",\"solver\":\"TopDegree\",\"budget\":5}}")
    };
    for id in [9_007_199_254_740_993u64, (1 << 63) + 1, u64::MAX] {
        let req = parse_request(&line(&id.to_string())).expect("exact id parses");
        assert_eq!(req.id, id);
        // The response echoes the same digits.
        let resp = mcpb_serve::proto::Response {
            seq: 1,
            id: Some(req.id),
            verdict: mcpb_serve::proto::Verdict::Served,
            solver: req.solver,
            served_by: None,
            budget: req.budget,
            seeds: Vec::new(),
            quality: 0.0,
            reason: None,
            attempts: 1,
            runtime_secs: 0.0,
        };
        assert!(resp.body_json().starts_with(&format!("{{\"id\":{id},")));
    }
    for id in ["1e300", "1.5", "18446744073709551616", "-1"] {
        assert!(
            matches!(
                parse_request(&line(id)),
                Err(mcpb_serve::proto::ParseError::BadField { field: "id", .. })
            ),
            "id {id} must be rejected"
        );
    }
}
