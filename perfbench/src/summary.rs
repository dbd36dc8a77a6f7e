//! The benchmark's own summarizer: order statistics, the percentile
//! sample-count rule, metric-name checks, the wall-clock layer table and
//! open-loop latency. Everything here is pure so the tests below can pin it.

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Fewest samples that must lie strictly beyond a reported percentile.
pub const MIN_BEYOND: usize = 10;

/// Median of `values` (mean of the middle pair for an even count).
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of an empty sample");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// A percentile together with the number of samples it was taken from.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Percentile {
    /// Nearest-rank value.
    pub value: f64,
    /// Samples the percentile was taken from.
    pub samples: usize,
}

/// Nearest-rank percentile `q` in `(0, 1)`, or `None` unless at least
/// [`MIN_BEYOND`] samples lie beyond it — a p99 needs 1 000 samples.
pub fn percentile(samples: &[f64], q: f64) -> Option<Percentile> {
    assert!(q > 0.0 && q < 1.0, "percentile rank {q} outside (0, 1)");
    let n = samples.len();
    if n == 0 {
        return None;
    }
    let rank = ((q * n as f64).ceil() as usize).clamp(1, n);
    if n - rank < MIN_BEYOND {
        return None;
    }
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    Some(Percentile {
        value: v[rank - 1],
        samples: n,
    })
}

/// Whether `name` is a legal metric name: it starts with a letter or a
/// digit and has at most 64 letters, digits, `_`, `.` and `-`.
pub fn valid_metric_name(name: &str) -> bool {
    let mut chars = name.chars();
    let Some(first) = chars.next() else {
        return false;
    };
    name.len() <= 64
        && first.is_ascii_alphanumeric()
        && chars.all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

/// Whether `unit` is a legal unit: 1 to 16 letters, digits, `_`, `/`, `%`,
/// `.` and `-`.
pub fn valid_unit(unit: &str) -> bool {
    !unit.is_empty()
        && unit.len() <= 16
        && unit
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-'))
}

/// Latency of one open-loop request, counted from the instant it was due
/// rather than the instant it was sent, so a stall also charges the wait
/// it imposed on every request queued behind it.
pub fn latency_from_due(due_s: f64, received_s: f64) -> f64 {
    received_s - due_s
}

/// One closed span the benchmark recorded around a call into a layer.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Layer call, e.g. `sweep.mcp` or `graph.load`.
    pub name: String,
    /// Seconds from the start of the traced unit.
    pub start: f64,
    /// Seconds from the start of the traced unit.
    pub end: f64,
}

/// Wall-clock layer table of one traced unit: the time each layer call
/// took, in first-seen order, plus whatever no span covers.
#[derive(Debug, Clone, PartialEq)]
pub struct LayerTable {
    /// Unit wall-clock seconds.
    pub wall: f64,
    /// `(layer call, seconds)` rows.
    pub rows: Vec<(String, f64)>,
    /// Wall time outside every span.
    pub unattributed: f64,
}

impl LayerTable {
    /// Builds the table. The benchmark calls layers one after another from
    /// one thread, so its spans never overlap and the rows plus
    /// `unattributed` add up to `wall` exactly; shares are of wall-clock
    /// time, never of time summed over threads.
    pub fn from_spans(spans: &[Span], wall: f64) -> LayerTable {
        let mut rows: Vec<(String, f64)> = Vec::new();
        for s in spans {
            let d = s.end - s.start;
            match rows.iter_mut().find(|(n, _)| *n == s.name) {
                Some((_, t)) => *t += d,
                None => rows.push((s.name.clone(), d)),
            }
        }
        let covered: f64 = rows.iter().map(|(_, t)| t).sum();
        LayerTable {
            wall,
            rows,
            unattributed: wall - covered,
        }
    }

    /// Renders the table with each row's share of wall-clock time.
    pub fn render(&self) -> String {
        let mut out = format!("  {:<34} {:>10} {:>7}\n", "layer call", "s", "wall %");
        let pct = |t: f64| 100.0 * t / self.wall;
        for (name, t) in &self.rows {
            let _ = writeln!(out, "  {name:<34} {t:>10.4} {:>6.1}%", pct(*t));
        }
        let _ = writeln!(
            out,
            "  {:<34} {:>10.4} {:>6.1}%",
            "unattributed_s",
            self.unattributed,
            pct(self.unattributed)
        );
        let _ = writeln!(out, "  {:<34} {:>10.4} {:>6.1}%", "wall", self.wall, 100.0);
        out
    }
}

/// A metric value with its unit.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Measured value.
    pub value: f64,
    /// Unit, e.g. `s`, `ms`, `count`.
    pub unit: String,
}

/// Renders the result line: `correct`, `attempted`, `failed` and every
/// metric with its unit. Fails on an illegal name or unit, or a value JSON
/// cannot carry.
pub fn result_json(
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: &BTreeMap<String, Metric>,
) -> Result<String, String> {
    let mut body = String::new();
    for (i, (name, m)) in metrics.iter().enumerate() {
        if !valid_metric_name(name) {
            return Err(format!("illegal metric name {name:?}"));
        }
        if !valid_unit(&m.unit) {
            return Err(format!("illegal unit {:?} on {name}", m.unit));
        }
        if !m.value.is_finite() {
            return Err(format!("metric {name} is not finite: {}", m.value));
        }
        if i > 0 {
            body.push_str(", ");
        }
        let _ = write!(
            body,
            "\"{name}\": {{\"value\": {:?}, \"unit\": \"{}\"}}",
            m.value, m.unit
        );
    }
    Ok(format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{body}}}}}"
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_handles_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn percentile_needs_ten_samples_beyond_it() {
        let thousand: Vec<f64> = (1..=1000).map(f64::from).collect();
        let p99 = percentile(&thousand, 0.99).expect("1000 samples leave 10 beyond p99");
        assert_eq!(p99.value, 990.0);
        assert_eq!(p99.samples, 1000);
        assert_eq!(percentile(&thousand[..999], 0.99), None);
        // p50 needs 10 samples above the median rank: 20 is enough, 19 not.
        let twenty: Vec<f64> = (1..=20).map(f64::from).collect();
        assert_eq!(percentile(&twenty, 0.5).map(|p| p.value), Some(10.0));
        assert_eq!(percentile(&twenty[..19], 0.5), None);
        assert_eq!(percentile(&[], 0.5), None);
    }

    #[test]
    fn metric_names_follow_the_charset() {
        for ok in ["setup_s", "query_s.mcp.S2V-DQN", "p99_ms_peak", "2nd.pass"] {
            assert!(valid_metric_name(ok), "{ok}");
        }
        let long = "a".repeat(65);
        for bad in ["", "_x", ".x", "a b", "q/s", "rate%", long.as_str()] {
            assert!(!valid_metric_name(bad), "{bad}");
        }
        assert!(valid_unit("1/s") && valid_unit("count") && valid_unit("%"));
        assert!(!valid_unit("") && !valid_unit("m s") && !valid_unit(&"s".repeat(17)));
    }

    #[test]
    fn layer_rows_sum_to_wall_time() {
        let spans = [
            Span {
                name: "graph.load".into(),
                start: 0.0,
                end: 0.25,
            },
            Span {
                name: "sweep.mcp".into(),
                start: 0.5,
                end: 2.0,
            },
            Span {
                name: "graph.load".into(),
                start: 2.0,
                end: 2.25,
            },
        ];
        let t = LayerTable::from_spans(&spans, 2.5);
        assert_eq!(
            t.rows,
            vec![
                ("graph.load".to_string(), 0.5),
                ("sweep.mcp".to_string(), 1.5)
            ]
        );
        assert_eq!(t.unattributed, 0.5);
        let total: f64 = t.rows.iter().map(|(_, s)| s).sum::<f64>() + t.unattributed;
        assert_eq!(total, t.wall);
        assert!(t.render().contains("unattributed_s"));
    }

    #[test]
    fn open_loop_latency_counts_from_the_due_time() {
        // Due at 1.0 s, sent 0.2 s late behind a stall, answered 0.01 s
        // after sending: the client waited 0.21 s, not 0.01 s.
        let (due, sent, received) = (1.0, 1.2, 1.21);
        assert!((latency_from_due(due, received) - 0.21).abs() < 1e-12);
        assert!(latency_from_due(due, received) > received - sent);
    }

    #[test]
    fn result_line_carries_units_and_rejects_bad_names() {
        let mut m = BTreeMap::new();
        m.insert(
            "wall_s".to_string(),
            Metric {
                value: 1.5,
                unit: "s".into(),
            },
        );
        let line = result_json(true, 3, 0, &m).expect("legal metrics");
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": {\"wall_s\": {\"value\": 1.5, \"unit\": \"s\"}}}"
        );
        m.insert(
            "bad name".to_string(),
            Metric {
                value: 1.0,
                unit: "s".into(),
            },
        );
        assert!(result_json(true, 3, 0, &m).is_err());
        let mut nan = BTreeMap::new();
        nan.insert(
            "q".to_string(),
            Metric {
                value: f64::NAN,
                unit: "1".into(),
            },
        );
        assert!(result_json(true, 1, 0, &nan).is_err());
    }
}
