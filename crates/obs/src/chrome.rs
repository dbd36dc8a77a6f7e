//! Chrome trace-event exporter: `mcpbench obs chrome`.
//!
//! Emits the [trace-event format] consumed by `chrome://tracing`,
//! Perfetto, and Speedscope: a JSON array of complete (`"ph":"X"`) events.
//! The run model holds an *aggregated* span tree, not individual span
//! instances, so the exporter synthesizes a deterministic timeline: spans
//! are laid out depth-first with each child placed sequentially inside its
//! parent at the parent's next free offset. Durations are real (aggregate
//! totals); start timestamps are synthetic but consistent, which is what
//! the flame-style visualizers need.
//!
//! [trace-event format]: https://docs.google.com/document/d/1CvAClvFfyA5R-PhYUmn5OOQtYMH4h6I0nSsKchNAySU

use crate::model::RunModel;
use std::collections::BTreeMap;

/// Renders the run as a Chrome trace-event JSON array.
pub fn render_chrome(model: &RunModel) -> String {
    // Sorted paths guarantee parents are laid out before their children
    // ("a" < "a/b" because '/' sorts below every path character we emit).
    let mut paths: Vec<&str> = model.spans.iter().map(|s| s.path.as_str()).collect();
    paths.sort_unstable();
    // Start offset of each placed span, and how much of each parent's
    // timeline its children have consumed so far.
    let mut start_of: BTreeMap<&str, u64> = BTreeMap::new();
    let mut consumed: BTreeMap<&str, u64> = BTreeMap::new();
    let mut root_cursor = 0u64;

    let mut events = Vec::with_capacity(model.spans.len());
    for path in paths {
        let span = model
            .span(path)
            .expect("invariant: path came from model.spans");
        let start = match parent_of(path) {
            Some(parent) if start_of.contains_key(parent) => {
                let parent_start = start_of[parent];
                let used = consumed.entry(parent).or_insert(0);
                let s = parent_start + *used;
                *used += span.total_nanos;
                s
            }
            _ => {
                // Roots (and orphans whose parent never recorded) go on the
                // top-level timeline, back to back.
                let s = root_cursor;
                root_cursor += span.total_nanos;
                s
            }
        };
        start_of.insert(path, start);
        events.push(trace_event(span, start));
    }
    let mut out = String::with_capacity(events.len() * 128 + 2);
    out.push('[');
    for (i, e) in events.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push('\n');
        out.push_str(e);
    }
    out.push_str("\n]\n");
    out
}

/// Validates that `json` parses as a JSON array (the exporter's
/// self-check, also run by `scripts/check.sh`). Returns the event count.
pub fn validate_chrome(json: &str) -> Result<usize, String> {
    let v = mcpb_json::parse(json).map_err(|e| format!("chrome export is not JSON: {e}"))?;
    let arr = v
        .as_array()
        .ok_or_else(|| "chrome export is not a JSON array".to_string())?;
    for (i, e) in arr.iter().enumerate() {
        for key in ["name", "ph", "ts", "dur", "pid", "tid"] {
            if e.get(key).is_none() {
                return Err(format!("event {i} is missing {key:?}"));
            }
        }
    }
    Ok(arr.len())
}

fn parent_of(path: &str) -> Option<&str> {
    path.rsplit_once('/').map(|(parent, _)| parent)
}

fn trace_event(span: &crate::model::SpanAgg, start_nanos: u64) -> String {
    use mcpb_json::Value;
    let name = span.path.rsplit('/').next().unwrap_or(&span.path);
    let obj = Value::Object(vec![
        ("name".to_string(), Value::String(name.to_string())),
        ("cat".to_string(), Value::String("span".to_string())),
        ("ph".to_string(), Value::String("X".to_string())),
        ("ts".to_string(), Value::Number(start_nanos as f64 / 1e3)),
        (
            "dur".to_string(),
            Value::Number(span.total_nanos as f64 / 1e3),
        ),
        ("pid".to_string(), Value::Number(1.0)),
        ("tid".to_string(), Value::Number(1.0)),
        (
            "args".to_string(),
            Value::Object(vec![
                ("path".to_string(), Value::String(span.path.clone())),
                ("calls".to_string(), Value::Number(span.calls as f64)),
                (
                    "self_us".to_string(),
                    Value::Number(span.self_nanos as f64 / 1e3),
                ),
                (
                    "heap_peak_bytes".to_string(),
                    Value::Number(span.heap_peak_bytes as f64),
                ),
            ]),
        ),
    ]);
    mcpb_json::to_string(&obj)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::SpanAgg;

    fn model(spans: &[(&str, u64)]) -> RunModel {
        RunModel {
            label: "t".into(),
            spans: spans
                .iter()
                .map(|(p, t)| SpanAgg {
                    path: p.to_string(),
                    calls: 1,
                    total_nanos: *t,
                    self_nanos: *t / 2,
                    heap_peak_bytes: 0,
                })
                .collect(),
            ..RunModel::default()
        }
    }

    #[test]
    fn export_is_valid_json_with_nested_children_inside_parents() {
        let m = model(&[
            ("root", 1000),
            ("root/a", 300),
            ("root/b", 200),
            ("other", 50),
        ]);
        let json = render_chrome(&m);
        assert_eq!(validate_chrome(&json).expect("valid"), 4);
        let v: serde_json::Value = serde_json::from_str(&json).unwrap();
        let arr = v.as_array().unwrap();
        let find = |path: &str| -> (f64, f64) {
            let e = arr
                .iter()
                .find(|e| {
                    e.get("args")
                        .and_then(|a| a.get("path"))
                        .and_then(|p| p.as_str())
                        == Some(path)
                })
                .unwrap_or_else(|| panic!("no event for {path}"));
            (
                e.get("ts").and_then(|x| x.as_f64()).unwrap(),
                e.get("dur").and_then(|x| x.as_f64()).unwrap(),
            )
        };
        let (root_ts, root_dur) = find("root");
        let (a_ts, a_dur) = find("root/a");
        let (b_ts, _) = find("root/b");
        assert!(a_ts >= root_ts && a_ts + a_dur <= root_ts + root_dur);
        assert!(
            (b_ts - (a_ts + a_dur)).abs() < 1e-9,
            "siblings are sequential"
        );
    }

    #[test]
    fn validate_rejects_non_arrays_and_incomplete_events() {
        assert!(validate_chrome("{}").is_err());
        assert!(validate_chrome("not json").is_err());
        assert!(validate_chrome("[{\"name\":\"x\"}]").is_err());
        assert_eq!(validate_chrome("[]").expect("empty array ok"), 0);
    }

    #[test]
    fn empty_model_exports_an_empty_array() {
        let json = render_chrome(&RunModel::default());
        assert_eq!(validate_chrome(&json).expect("valid"), 0);
    }
}
