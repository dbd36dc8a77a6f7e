//! The typed event stream and its JSONL codec.
//!
//! Events are flat records; each serializes to exactly one JSON object per
//! line with a `type` discriminator, so a `MCPB_TRACE=file.jsonl` capture
//! is greppable and trivially machine-readable. [`Event::to_json`] writes
//! the fields one by one with the `mcpb-json` scalar writers, and
//! [`Event::from_json`] reads a line back through the `mcpb-json` parser.
//! The round trip is exact for finite floats (Rust's shortest-round-trip
//! `Display`) and for every `u64`. Non-finite floats serialize as `null` and
//! parse back as NaN, mirroring `serde_json`.

use mcpb_json::Value;

/// One structured telemetry record.
#[derive(Debug, Clone, PartialEq)]
pub enum Event {
    /// A Deep-RL training episode finished.
    EpisodeEnd {
        /// Solver name (e.g. `"S2V-DQN"`).
        solver: String,
        /// 1-based episode index.
        episode: u64,
        /// Mean TD / regression loss over the episode (0 before the first
        /// optimizer step).
        loss: f64,
        /// Exploration rate in effect at the episode's end.
        epsilon: f64,
        /// Episode return: the normalized objective of the built seed set.
        reward: f64,
    },
    /// One sweep cell (method x dataset x budget) was measured.
    SweepPoint {
        /// Method name.
        method: String,
        /// Dataset name.
        dataset: String,
        /// Budget `k`.
        budget: u64,
        /// Normalized objective in `[0, 1]`.
        quality: f64,
        /// Query wall-clock seconds.
        runtime: f64,
    },
    /// A root span closed (nested spans only aggregate into the profile).
    SpanClose {
        /// Full `/`-separated span path.
        path: String,
        /// Wall-clock nanoseconds the span was open.
        nanos: u64,
    },
    /// A free-form scalar metric, for one-off values that do not warrant
    /// their own variant.
    Metric {
        /// Metric name.
        name: String,
        /// Metric value.
        value: f64,
    },
    /// A training loop detected divergence, rolled parameters back to the
    /// last good snapshot, and halved the learning rate.
    Recovery {
        /// Solver name (e.g. `"S2V-DQN"`).
        solver: String,
        /// 1-based episode at which divergence was detected.
        episode: u64,
        /// The divergent loss value (NaN serializes as `null`).
        loss: f64,
        /// Learning rate in effect *after* the halving.
        lr: f64,
    },
    /// A sweep cell exhausted its retry policy and was recorded as failed
    /// instead of aborting the run.
    CellFailed {
        /// Stable cell key, e.g. `mcp|LazyGreedy|Damascus|5`.
        key: String,
        /// Stringified failure reason (panic payload or deadline report).
        error: String,
        /// Attempts consumed.
        attempts: u64,
        /// Total wall-clock seconds across attempts.
        elapsed: f64,
    },
    /// Aggregated statistics for one span path, flushed at run end by
    /// [`crate::flush_summary`]. Nested spans aggregate silently during the
    /// run (only root closes emit [`Event::SpanClose`]); these rows are how
    /// the full span tree reaches the JSONL stream for offline analysis.
    SpanStat {
        /// Full `/`-separated span path.
        path: String,
        /// Number of times the span was entered.
        calls: u64,
        /// Total wall-clock nanoseconds across all calls.
        total_nanos: u64,
        /// Total minus direct children's totals.
        self_nanos: u64,
        /// Peak heap delta observed while open (0 without the tracking
        /// allocator).
        heap_peak_bytes: u64,
    },
    /// Final value of one named counter, flushed at run end.
    Counter {
        /// Counter name.
        name: String,
        /// Final accumulated value.
        value: u64,
    },
    /// Summary of one named histogram, flushed at run end. Quantiles are
    /// bucket-midpoint estimates except `p=0`/`p=1`, which are exact.
    HistSummary {
        /// Histogram name.
        name: String,
        /// Finite samples observed.
        count: u64,
        /// Arithmetic mean of the samples.
        mean: f64,
        /// Estimated median.
        p50: f64,
        /// Estimated 90th percentile.
        p90: f64,
        /// Estimated 99th percentile.
        p99: f64,
        /// Exact minimum sample.
        min: f64,
        /// Exact maximum sample.
        max: f64,
    },
}

impl Event {
    /// The `type` discriminator used on the wire.
    pub fn kind(&self) -> &'static str {
        match self {
            Event::EpisodeEnd { .. } => "episode_end",
            Event::SweepPoint { .. } => "sweep_point",
            Event::SpanClose { .. } => "span_close",
            Event::Metric { .. } => "metric",
            Event::Recovery { .. } => "recovery",
            Event::CellFailed { .. } => "cell_failed",
            Event::SpanStat { .. } => "span_stat",
            Event::Counter { .. } => "counter",
            Event::HistSummary { .. } => "hist_summary",
        }
    }

    /// Renders the event as a single JSON object (no trailing newline).
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(96);
        out.push('{');
        push_str_field(&mut out, "type", self.kind());
        match self {
            Event::EpisodeEnd {
                solver,
                episode,
                loss,
                epsilon,
                reward,
            } => {
                push_str_field(&mut out, "solver", solver);
                push_u64_field(&mut out, "episode", *episode);
                push_f64_field(&mut out, "loss", *loss);
                push_f64_field(&mut out, "epsilon", *epsilon);
                push_f64_field(&mut out, "reward", *reward);
            }
            Event::SweepPoint {
                method,
                dataset,
                budget,
                quality,
                runtime,
            } => {
                push_str_field(&mut out, "method", method);
                push_str_field(&mut out, "dataset", dataset);
                push_u64_field(&mut out, "budget", *budget);
                push_f64_field(&mut out, "quality", *quality);
                push_f64_field(&mut out, "runtime", *runtime);
            }
            Event::SpanClose { path, nanos } => {
                push_str_field(&mut out, "path", path);
                push_u64_field(&mut out, "nanos", *nanos);
            }
            Event::Metric { name, value } => {
                push_str_field(&mut out, "name", name);
                push_f64_field(&mut out, "value", *value);
            }
            Event::Recovery {
                solver,
                episode,
                loss,
                lr,
            } => {
                push_str_field(&mut out, "solver", solver);
                push_u64_field(&mut out, "episode", *episode);
                push_f64_field(&mut out, "loss", *loss);
                push_f64_field(&mut out, "lr", *lr);
            }
            Event::CellFailed {
                key,
                error,
                attempts,
                elapsed,
            } => {
                push_str_field(&mut out, "key", key);
                push_str_field(&mut out, "error", error);
                push_u64_field(&mut out, "attempts", *attempts);
                push_f64_field(&mut out, "elapsed", *elapsed);
            }
            Event::SpanStat {
                path,
                calls,
                total_nanos,
                self_nanos,
                heap_peak_bytes,
            } => {
                push_str_field(&mut out, "path", path);
                push_u64_field(&mut out, "calls", *calls);
                push_u64_field(&mut out, "total_nanos", *total_nanos);
                push_u64_field(&mut out, "self_nanos", *self_nanos);
                push_u64_field(&mut out, "heap_peak_bytes", *heap_peak_bytes);
            }
            Event::Counter { name, value } => {
                push_str_field(&mut out, "name", name);
                push_u64_field(&mut out, "value", *value);
            }
            Event::HistSummary {
                name,
                count,
                mean,
                p50,
                p90,
                p99,
                min,
                max,
            } => {
                push_str_field(&mut out, "name", name);
                push_u64_field(&mut out, "count", *count);
                push_f64_field(&mut out, "mean", *mean);
                push_f64_field(&mut out, "p50", *p50);
                push_f64_field(&mut out, "p90", *p90);
                push_f64_field(&mut out, "p99", *p99);
                push_f64_field(&mut out, "min", *min);
                push_f64_field(&mut out, "max", *max);
            }
        }
        out.push('}');
        out
    }

    /// Parses one JSON line produced by [`Event::to_json`].
    pub fn from_json(line: &str) -> Result<Event, ParseError> {
        let fields = mcpb_json::parse(line).map_err(|e| ParseError::new(e.to_string()))?;
        let kind = get_str(&fields, "type")?;
        match kind.as_str() {
            "episode_end" => Ok(Event::EpisodeEnd {
                solver: get_str(&fields, "solver")?,
                episode: get_u64(&fields, "episode")?,
                loss: get_f64(&fields, "loss")?,
                epsilon: get_f64(&fields, "epsilon")?,
                reward: get_f64(&fields, "reward")?,
            }),
            "sweep_point" => Ok(Event::SweepPoint {
                method: get_str(&fields, "method")?,
                dataset: get_str(&fields, "dataset")?,
                budget: get_u64(&fields, "budget")?,
                quality: get_f64(&fields, "quality")?,
                runtime: get_f64(&fields, "runtime")?,
            }),
            "span_close" => Ok(Event::SpanClose {
                path: get_str(&fields, "path")?,
                nanos: get_u64(&fields, "nanos")?,
            }),
            "metric" => Ok(Event::Metric {
                name: get_str(&fields, "name")?,
                value: get_f64(&fields, "value")?,
            }),
            "recovery" => Ok(Event::Recovery {
                solver: get_str(&fields, "solver")?,
                episode: get_u64(&fields, "episode")?,
                loss: get_f64(&fields, "loss")?,
                lr: get_f64(&fields, "lr")?,
            }),
            "cell_failed" => Ok(Event::CellFailed {
                key: get_str(&fields, "key")?,
                error: get_str(&fields, "error")?,
                attempts: get_u64(&fields, "attempts")?,
                elapsed: get_f64(&fields, "elapsed")?,
            }),
            "span_stat" => Ok(Event::SpanStat {
                path: get_str(&fields, "path")?,
                calls: get_u64(&fields, "calls")?,
                total_nanos: get_u64(&fields, "total_nanos")?,
                self_nanos: get_u64(&fields, "self_nanos")?,
                heap_peak_bytes: get_u64(&fields, "heap_peak_bytes")?,
            }),
            "counter" => Ok(Event::Counter {
                name: get_str(&fields, "name")?,
                value: get_u64(&fields, "value")?,
            }),
            "hist_summary" => Ok(Event::HistSummary {
                name: get_str(&fields, "name")?,
                count: get_u64(&fields, "count")?,
                mean: get_f64(&fields, "mean")?,
                p50: get_f64(&fields, "p50")?,
                p90: get_f64(&fields, "p90")?,
                p99: get_f64(&fields, "p99")?,
                min: get_f64(&fields, "min")?,
                max: get_f64(&fields, "max")?,
            }),
            other => Err(ParseError::new(format!("unknown event type {other:?}"))),
        }
    }
}

/// A JSONL decode failure.
#[derive(Debug, Clone, PartialEq)]
pub struct ParseError {
    /// Human-readable description.
    pub message: String,
}

impl ParseError {
    fn new(message: impl Into<String>) -> ParseError {
        ParseError {
            message: message.into(),
        }
    }
}

impl std::fmt::Display for ParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.message)
    }
}

impl std::error::Error for ParseError {}

// ---- encoding helpers -------------------------------------------------

fn push_key(out: &mut String, key: &str) {
    if !out.ends_with('{') {
        out.push(',');
    }
    mcpb_json::write_str(out, key);
    out.push(':');
}

fn push_str_field(out: &mut String, key: &str, value: &str) {
    push_key(out, key);
    mcpb_json::write_str(out, value);
}

fn push_u64_field(out: &mut String, key: &str, value: u64) {
    push_key(out, key);
    mcpb_json::write_u64(out, value);
}

fn push_f64_field(out: &mut String, key: &str, value: f64) {
    push_key(out, key);
    mcpb_json::write_f64(out, value);
}

// ---- decoding helpers -------------------------------------------------

fn lookup<'v>(fields: &'v Value, key: &str) -> Result<&'v Value, ParseError> {
    fields
        .get(key)
        .ok_or_else(|| ParseError::new(format!("missing field {key:?}")))
}

fn get_str(fields: &Value, key: &str) -> Result<String, ParseError> {
    match lookup(fields, key)? {
        Value::String(s) => Ok(s.clone()),
        other => Err(ParseError::new(format!(
            "field {key:?}: expected string, found {other:?}"
        ))),
    }
}

fn get_f64(fields: &Value, key: &str) -> Result<f64, ParseError> {
    match lookup(fields, key)? {
        Value::Null => Ok(f64::NAN),
        other => other.as_f64().ok_or_else(|| {
            ParseError::new(format!("field {key:?}: expected number, found {other:?}"))
        }),
    }
}

/// Integer fields accept only exactly held values: a float spelling past
/// 2^53 would be a rounded guess, which for a counter is corruption.
fn get_u64(fields: &Value, key: &str) -> Result<u64, ParseError> {
    let value = lookup(fields, key)?;
    value.as_u64().ok_or_else(|| {
        ParseError::new(format!(
            "field {key:?}: expected non-negative integer, found {value:?}"
        ))
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn round_trip(e: Event) {
        let line = e.to_json();
        let back = Event::from_json(&line).expect("parses");
        assert_eq!(back, e, "line: {line}");
    }

    #[test]
    fn episode_end_round_trips() {
        round_trip(Event::EpisodeEnd {
            solver: "S2V-DQN".into(),
            episode: 17,
            loss: 0.12345678901234567,
            epsilon: 0.05,
            reward: 0.75,
        });
    }

    #[test]
    fn sweep_point_round_trips() {
        round_trip(Event::SweepPoint {
            method: "LazyGreedy".into(),
            dataset: "BrightKite".into(),
            budget: 50,
            quality: 0.9231,
            runtime: 1.5e-4,
        });
    }

    #[test]
    fn span_close_and_metric_round_trip() {
        round_trip(Event::SpanClose {
            path: "train/nn.forward".into(),
            nanos: 123_456_789,
        });
        round_trip(Event::Metric {
            name: "im.rr_sets".into(),
            value: 2000.0,
        });
    }

    #[test]
    fn recovery_round_trips_including_nan_loss() {
        round_trip(Event::Recovery {
            solver: "GCOMB".into(),
            episode: 9,
            loss: 123.5,
            lr: 0.0005,
        });
        // NaN loss is the common case for this event: null on the wire.
        let e = Event::Recovery {
            solver: "S2V-DQN".into(),
            episode: 3,
            loss: f64::NAN,
            lr: 0.001,
        };
        let line = e.to_json();
        assert!(line.contains("\"loss\":null"), "{line}");
        match Event::from_json(&line).expect("parses") {
            Event::Recovery { loss, lr, .. } => {
                assert!(loss.is_nan());
                assert_eq!(lr, 0.001);
            }
            other => panic!("wrong variant {other:?}"),
        }
    }

    #[test]
    fn cell_failed_round_trips() {
        round_trip(Event::CellFailed {
            key: "mcp|LazyGreedy|Damascus|5".into(),
            error: "panicked: injected fault: panic at site `sweep.cell`".into(),
            attempts: 3,
            elapsed: 0.125,
        });
    }

    #[test]
    fn summary_rows_round_trip() {
        round_trip(Event::SpanStat {
            path: "sweep.mcp/LazyGreedy".into(),
            calls: 12,
            total_nanos: 9_876_543,
            self_nanos: 1_234_567,
            heap_peak_bytes: 4096,
        });
        round_trip(Event::Counter {
            name: "sweep.cells".into(),
            value: 40,
        });
        round_trip(Event::HistSummary {
            name: "sweep.query_secs/CELF".into(),
            count: 8,
            mean: 0.25,
            p50: 0.2,
            p90: 0.4,
            p99: 0.5,
            min: 0.01,
            max: 0.55,
        });
    }

    #[test]
    fn summary_wire_format_is_stable() {
        let e = Event::SpanStat {
            path: "a/b".into(),
            calls: 2,
            total_nanos: 10,
            self_nanos: 4,
            heap_peak_bytes: 0,
        };
        assert_eq!(
            e.to_json(),
            "{\"type\":\"span_stat\",\"path\":\"a/b\",\"calls\":2,\
             \"total_nanos\":10,\"self_nanos\":4,\"heap_peak_bytes\":0}"
        );
        let c = Event::Counter {
            name: "n".into(),
            value: 7,
        };
        assert_eq!(
            c.to_json(),
            "{\"type\":\"counter\",\"name\":\"n\",\"value\":7}"
        );
    }

    #[test]
    fn strings_with_specials_round_trip() {
        round_trip(Event::Metric {
            name: "weird \"name\"\\ with\nnewline\tand unicode é…".into(),
            value: 1.0,
        });
    }

    #[test]
    fn non_finite_floats_become_null_then_nan() {
        let e = Event::Metric {
            name: "x".into(),
            value: f64::INFINITY,
        };
        let line = e.to_json();
        assert!(line.contains("null"), "{line}");
        match Event::from_json(&line).expect("parses") {
            Event::Metric { value, .. } => assert!(value.is_nan()),
            other => panic!("wrong variant {other:?}"),
        }
    }

    #[test]
    fn malformed_lines_are_rejected() {
        for bad in [
            "",
            "{",
            "not json",
            "{\"type\":\"nope\"}",
            "{\"type\":\"metric\",\"name\":\"x\"}",
            "{\"type\":\"metric\",\"name\":\"x\",\"value\":1} trailing",
            "{\"type\":\"span_close\",\"path\":\"p\",\"nanos\":-3}",
            "{\"type\":\"recovery\",\"solver\":\"S2V-DQN\",\"episode\":1,\"loss\":null}",
            "{\"type\":\"cell_failed\",\"key\":\"k\",\"error\":\"e\",\"attempts\":-1,\"elapsed\":0.1}",
        ] {
            assert!(Event::from_json(bad).is_err(), "accepted: {bad:?}");
        }
    }

    #[test]
    fn surrogate_pairs_decode_and_lone_halves_are_rejected() {
        let line = r#"{"type":"metric","name":"smile \ud83d\ude00","value":1}"#;
        match Event::from_json(line).expect("surrogate pair parses") {
            Event::Metric { name, .. } => assert_eq!(name, "smile \u{1F600}"),
            other => panic!("wrong variant {other:?}"),
        }
        for half in [r"\ud83d", r"\ude00", r"\ud83d\u0041", r"\ude00\ud83d"] {
            let line = format!(r#"{{"type":"metric","name":"{half}","value":1}}"#);
            assert!(Event::from_json(&line).is_err(), "accepted {line}");
        }
    }

    #[test]
    fn u64_fields_are_exact_past_2_pow_53() {
        round_trip(Event::Counter {
            name: "nanos".into(),
            value: (1 << 53) + 1,
        });
        round_trip(Event::SpanClose {
            path: "p".into(),
            nanos: u64::MAX,
        });
        let rounded = r#"{"type":"counter","name":"n","value":1e300}"#;
        assert!(Event::from_json(rounded).is_err());
    }

    #[test]
    fn wire_format_is_stable() {
        let e = Event::SpanClose {
            path: "root".into(),
            nanos: 5,
        };
        assert_eq!(
            e.to_json(),
            "{\"type\":\"span_close\",\"path\":\"root\",\"nanos\":5}"
        );
        let r = Event::CellFailed {
            key: "mcp|M|D|5".into(),
            error: "panicked: boom".into(),
            attempts: 2,
            elapsed: 0.5,
        };
        assert_eq!(
            r.to_json(),
            "{\"type\":\"cell_failed\",\"key\":\"mcp|M|D|5\",\"error\":\"panicked: boom\",\
             \"attempts\":2,\"elapsed\":0.5}"
        );
    }
}
