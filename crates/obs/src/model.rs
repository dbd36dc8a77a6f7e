//! The unified [`RunModel`]: one in-memory shape for every kind of recorded
//! telemetry this workspace produces.
//!
//! Three on-disk formats feed it:
//!
//! - **`MCPB_TRACE` JSONL** (`mcpb-trace`): typed events, one per line. The
//!   `span_stat` / `counter` / `hist_summary` rows flushed at orderly
//!   shutdown carry the full aggregated span tree; streams without them
//!   (e.g. a crashed run) degrade to aggregating root `span_close` events.
//!   A torn final line — the same crash artifact the resilience journal
//!   tolerates — is dropped and flagged, not an error.
//! - **`mcpb-resilience` journals**: each cell entry becomes a `cell/<key>`
//!   pseudo-span (elapsed seconds as total time) plus a typed cell outcome,
//!   so two journaled runs diff exactly like two traces.
//! - **`BENCH_*.json`** (`mcpb-perf/1`): each bench becomes a `bench/<id>`
//!   pseudo-span whose self time is the median sample, so a perf-ratchet
//!   failure can be attributed with the same span-path diff.
//!
//! [`RunModel::load`] sniffs the format; the `from_*` constructors are
//! public for tests and for callers that already hold the bytes.

use std::collections::BTreeMap;
use std::fmt;
use std::path::Path;

use mcpb_resilience::parse_journal;
use mcpb_trace::Event;

/// Which on-disk format a [`RunModel`] was built from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RunKind {
    /// `MCPB_TRACE` JSONL event stream.
    Trace,
    /// `mcpb-resilience` sweep journal.
    Journal,
    /// `mcpb-perf/1` bench record (`BENCH_*.json`).
    Bench,
}

impl fmt::Display for RunKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            RunKind::Trace => "trace",
            RunKind::Journal => "journal",
            RunKind::Bench => "bench",
        })
    }
}

/// Aggregated statistics for one span path (or pseudo-span).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpanAgg {
    /// Full `/`-separated span path.
    pub path: String,
    /// Times the span was entered (samples for bench pseudo-spans).
    pub calls: u64,
    /// Total wall-clock nanoseconds.
    pub total_nanos: u64,
    /// Total minus direct children's totals.
    pub self_nanos: u64,
    /// Peak heap delta in bytes (0 when unmeasured).
    pub heap_peak_bytes: u64,
}

/// One histogram summary row.
#[derive(Debug, Clone, PartialEq)]
pub struct HistRow {
    /// Histogram name.
    pub name: String,
    /// Samples observed.
    pub count: u64,
    /// Arithmetic mean.
    pub mean: f64,
    /// Median estimate.
    pub p50: f64,
    /// 90th-percentile estimate.
    pub p90: f64,
    /// 99th-percentile estimate.
    pub p99: f64,
    /// Exact minimum.
    pub min: f64,
    /// Exact maximum.
    pub max: f64,
}

/// One sweep-cell outcome (from a journal, or `cell_failed` trace events).
#[derive(Debug, Clone, PartialEq)]
pub struct CellRow {
    /// Stable cell key, e.g. `mcp|LazyGreedy|Damascus|5`.
    pub key: String,
    /// Whether the cell completed.
    pub ok: bool,
    /// Failure reason for failed cells.
    pub error: Option<String>,
    /// Attempts consumed.
    pub attempts: u64,
    /// Total wall-clock seconds.
    pub elapsed_secs: f64,
}

/// Everything one recorded run said about itself, in deterministic order.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct RunModel {
    /// Where the run came from (file path or caller-supplied label).
    pub label: String,
    /// Source format.
    pub kind: Option<RunKind>,
    /// Span tree, sorted by path (parents precede children).
    pub spans: Vec<SpanAgg>,
    /// Counters, sorted by name.
    pub counters: Vec<(String, u64)>,
    /// Histogram summaries, sorted by name.
    pub histograms: Vec<HistRow>,
    /// Cell outcomes, in record order.
    pub cells: Vec<CellRow>,
    /// `episode_end` events seen.
    pub episodes: u64,
    /// `sweep_point` events seen.
    pub sweep_points: u64,
    /// Last value per free-form metric name (heartbeats such as
    /// `sweep.cells_done` resolve to their final reading).
    pub last_metrics: Vec<(String, f64)>,
    /// Total telemetry lines/entries ingested.
    pub events: u64,
    /// True when the final line was torn (crash mid-append) and dropped.
    pub torn_tail: bool,
}

/// An ingestion failure.
#[derive(Debug, Clone, PartialEq)]
pub struct ObsError {
    /// Human-readable description (includes the line number for line-level
    /// failures).
    pub message: String,
}

impl ObsError {
    pub(crate) fn new(message: impl Into<String>) -> ObsError {
        ObsError {
            message: message.into(),
        }
    }
}

impl fmt::Display for ObsError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.message)
    }
}

impl std::error::Error for ObsError {}

impl RunModel {
    /// Reads `path` and ingests it, sniffing the format: a
    /// `{"journal":"mcpb-sweep"...}` header line means journal, a whole-file
    /// JSON object with `"schema":"mcpb-perf/1"` means bench record, and
    /// anything else is treated as trace JSONL.
    pub fn load(path: &Path) -> Result<RunModel, ObsError> {
        let text = std::fs::read_to_string(path)
            .map_err(|e| ObsError::new(format!("{}: {e}", path.display())))?;
        RunModel::from_text(&path.display().to_string(), &text)
    }

    /// Format-sniffing ingestion of already-read telemetry text.
    pub fn from_text(label: &str, text: &str) -> Result<RunModel, ObsError> {
        let first = text.lines().find(|l| !l.trim().is_empty()).unwrap_or("");
        if first.trim_start().starts_with("{\"journal\":") {
            return RunModel::from_journal_text(label, text);
        }
        match mcpb_json::parse(text) {
            Ok(v) if v.get("schema").and_then(|s| s.as_str()) == Some("mcpb-perf/1") => {
                return RunModel::from_bench_value(label, &v);
            }
            // Nesting past the limit is no trace, journal or bench record.
            Err(e @ mcpb_json::Error::TooDeep { .. }) => {
                return Err(ObsError::new(format!("{label}: {e}")));
            }
            _ => {}
        }
        RunModel::from_trace_jsonl(label, text)
    }

    /// Ingests an `MCPB_TRACE` JSONL stream. One torn *final* line is
    /// dropped (and flagged via [`RunModel::torn_tail`]); a malformed line
    /// anywhere else is corruption and errors with its line number.
    pub fn from_trace_jsonl(label: &str, text: &str) -> Result<RunModel, ObsError> {
        let lines: Vec<(usize, &str)> = text
            .lines()
            .enumerate()
            .filter(|(_, l)| !l.trim().is_empty())
            .collect();
        let mut model = RunModel {
            label: label.to_string(),
            kind: Some(RunKind::Trace),
            ..RunModel::default()
        };
        let mut stat_spans: BTreeMap<String, SpanAgg> = BTreeMap::new();
        let mut close_spans: BTreeMap<String, SpanAgg> = BTreeMap::new();
        let mut counters: BTreeMap<String, u64> = BTreeMap::new();
        let mut histograms: BTreeMap<String, HistRow> = BTreeMap::new();
        let mut last_metrics: BTreeMap<String, f64> = BTreeMap::new();
        let last_idx = lines.len().saturating_sub(1);
        for (pos, (lineno, line)) in lines.iter().enumerate() {
            let event = match Event::from_json(line) {
                Ok(e) => e,
                Err(e) if pos == last_idx => {
                    // Same tolerance as the resilience journal: a crash can
                    // tear exactly one trailing append.
                    let _ = e;
                    model.torn_tail = true;
                    break;
                }
                Err(e) => {
                    return Err(ObsError::new(format!("{label}: line {}: {e}", lineno + 1)));
                }
            };
            model.events += 1;
            match event {
                Event::SpanStat {
                    path,
                    calls,
                    total_nanos,
                    self_nanos,
                    heap_peak_bytes,
                } => {
                    // Summary rows are authoritative; a re-flush overwrites.
                    stat_spans.insert(
                        path.clone(),
                        SpanAgg {
                            path,
                            calls,
                            total_nanos,
                            self_nanos,
                            heap_peak_bytes,
                        },
                    );
                }
                Event::SpanClose { path, nanos } => {
                    let agg = close_spans.entry(path.clone()).or_insert(SpanAgg {
                        path,
                        calls: 0,
                        total_nanos: 0,
                        self_nanos: 0,
                        heap_peak_bytes: 0,
                    });
                    agg.calls += 1;
                    agg.total_nanos = agg.total_nanos.saturating_add(nanos);
                    agg.self_nanos = agg.total_nanos;
                }
                Event::Counter { name, value } => {
                    counters.insert(name, value);
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
                    histograms.insert(
                        name.clone(),
                        HistRow {
                            name,
                            count,
                            mean,
                            p50,
                            p90,
                            p99,
                            min,
                            max,
                        },
                    );
                }
                Event::Metric { name, value } => {
                    last_metrics.insert(name, value);
                }
                Event::EpisodeEnd { .. } => model.episodes += 1,
                Event::SweepPoint { .. } => model.sweep_points += 1,
                Event::Recovery { .. } => {}
                Event::CellFailed {
                    key,
                    error,
                    attempts,
                    elapsed,
                } => model.cells.push(CellRow {
                    key,
                    ok: false,
                    error: Some(error),
                    attempts,
                    elapsed_secs: elapsed,
                }),
            }
        }
        // Without flushed summary rows (crashed run, partial capture) fall
        // back to the root-close aggregation — coarser, but diffable.
        let spans = if stat_spans.is_empty() {
            close_spans
        } else {
            stat_spans
        };
        model.spans = spans.into_values().collect();
        model.counters = counters.into_iter().collect();
        model.histograms = histograms.into_values().collect();
        model.last_metrics = last_metrics.into_iter().collect();
        Ok(model)
    }

    /// Ingests a `mcpb-resilience` sweep journal: cells become both typed
    /// outcomes and `cell/<key>` pseudo-spans so journals diff like traces.
    pub fn from_journal_text(label: &str, text: &str) -> Result<RunModel, ObsError> {
        let journal = parse_journal(text).map_err(|e| ObsError::new(format!("{label}: {e}")))?;
        let mut model = RunModel {
            label: label.to_string(),
            kind: Some(RunKind::Journal),
            torn_tail: journal.torn_tail,
            ..RunModel::default()
        };
        let mut spans: BTreeMap<String, SpanAgg> = BTreeMap::new();
        for entry in &journal.entries {
            model.events += 1;
            let ok = entry.status == mcpb_resilience::EntryStatus::Completed;
            model.cells.push(CellRow {
                key: entry.cell.clone(),
                ok,
                error: entry.error.clone(),
                attempts: u64::from(entry.attempts),
                elapsed_secs: entry.elapsed_secs,
            });
            let nanos = secs_to_nanos(entry.elapsed_secs);
            let agg = spans
                .entry(format!("cell/{}", entry.cell))
                .or_insert(SpanAgg {
                    path: format!("cell/{}", entry.cell),
                    calls: 0,
                    total_nanos: 0,
                    self_nanos: 0,
                    heap_peak_bytes: 0,
                });
            agg.calls += u64::from(entry.attempts.max(1));
            agg.total_nanos = agg.total_nanos.saturating_add(nanos);
            agg.self_nanos = agg.total_nanos;
        }
        model.spans = spans.into_values().collect();
        Ok(model)
    }

    /// Ingests a `mcpb-perf/1` bench record: each bench becomes a
    /// `bench/<id>` pseudo-span whose self/total time is the median sample.
    pub fn from_bench_value(label: &str, v: &mcpb_json::Value) -> Result<RunModel, ObsError> {
        let mut model = RunModel {
            label: label.to_string(),
            kind: Some(RunKind::Bench),
            ..RunModel::default()
        };
        let benches = v
            .get("benches")
            .and_then(|b| b.as_array())
            .ok_or_else(|| ObsError::new(format!("{label}: missing \"benches\" array")))?;
        let mut spans: BTreeMap<String, SpanAgg> = BTreeMap::new();
        for bench in benches {
            let id = bench
                .get("id")
                .and_then(|x| x.as_str())
                .ok_or_else(|| ObsError::new(format!("{label}: bench without \"id\"")))?;
            let samples = bench.get("samples").and_then(|x| x.as_u64()).unwrap_or(0);
            let median = bench
                .get("median_nanos")
                .and_then(|x| x.as_u64())
                .ok_or_else(|| {
                    ObsError::new(format!("{label}: bench {id:?} without \"median_nanos\""))
                })?;
            model.events += 1;
            spans.insert(
                format!("bench/{id}"),
                SpanAgg {
                    path: format!("bench/{id}"),
                    calls: samples,
                    total_nanos: median,
                    self_nanos: median,
                    heap_peak_bytes: 0,
                },
            );
        }
        if let Some(threads) = v.get("host_threads").and_then(|x| x.as_f64()) {
            model
                .last_metrics
                .push(("host_threads".to_string(), threads));
        }
        model.spans = spans.into_values().collect();
        Ok(model)
    }

    /// Looks up a span by full path.
    pub fn span(&self, path: &str) -> Option<&SpanAgg> {
        self.spans.iter().find(|s| s.path == path)
    }

    /// Total self-time nanoseconds across every span.
    pub fn total_self_nanos(&self) -> u64 {
        self.spans
            .iter()
            .fold(0u64, |acc, s| acc.saturating_add(s.self_nanos))
    }

    /// Spans sorted by descending self time (ties broken by path so the
    /// order is deterministic).
    pub fn spans_by_self_time(&self) -> Vec<&SpanAgg> {
        let mut v: Vec<&SpanAgg> = self.spans.iter().collect();
        v.sort_by(|a, b| b.self_nanos.cmp(&a.self_nanos).then(a.path.cmp(&b.path)));
        v
    }
}

/// Saturating seconds → nanoseconds conversion for pseudo-spans.
fn secs_to_nanos(secs: f64) -> u64 {
    if !secs.is_finite() || secs <= 0.0 {
        return 0;
    }
    (secs * 1e9).min(u64::MAX as f64) as u64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nesting_bomb_is_a_typed_error() {
        let bomb = "[".repeat(1_000_000);
        let err = RunModel::from_text("bomb", &bomb).expect_err("must not parse");
        assert!(err.to_string().contains("nesting depth 33"), "{err}");
    }

    #[test]
    fn trace_summary_rows_are_authoritative() {
        let text = "\
{\"type\":\"span_close\",\"path\":\"root\",\"nanos\":100}\n\
{\"type\":\"metric\",\"name\":\"sweep.cells_done\",\"value\":1}\n\
{\"type\":\"metric\",\"name\":\"sweep.cells_done\",\"value\":2}\n\
{\"type\":\"span_stat\",\"path\":\"root\",\"calls\":1,\"total_nanos\":100,\"self_nanos\":40,\"heap_peak_bytes\":8}\n\
{\"type\":\"span_stat\",\"path\":\"root/leaf\",\"calls\":2,\"total_nanos\":60,\"self_nanos\":60,\"heap_peak_bytes\":0}\n\
{\"type\":\"counter\",\"name\":\"cells\",\"value\":4}\n";
        let m = RunModel::from_trace_jsonl("t", text).expect("parses");
        assert_eq!(m.kind, Some(RunKind::Trace));
        assert_eq!(m.spans.len(), 2, "span_stat rows win over span_close");
        assert_eq!(m.span("root").unwrap().self_nanos, 40);
        assert_eq!(m.span("root/leaf").unwrap().calls, 2);
        assert_eq!(m.counters, vec![("cells".to_string(), 4)]);
        assert_eq!(
            m.last_metrics,
            vec![("sweep.cells_done".to_string(), 2.0)],
            "last metric reading wins"
        );
        assert!(!m.torn_tail);
    }

    #[test]
    fn trace_without_summary_falls_back_to_root_closes() {
        let text = "\
{\"type\":\"span_close\",\"path\":\"root\",\"nanos\":100}\n\
{\"type\":\"span_close\",\"path\":\"root\",\"nanos\":50}\n";
        let m = RunModel::from_trace_jsonl("t", text).expect("parses");
        let s = m.span("root").expect("aggregated");
        assert_eq!((s.calls, s.total_nanos), (2, 150));
    }

    #[test]
    fn torn_tail_is_tolerated_but_midstream_corruption_is_not() {
        let torn = "{\"type\":\"metric\",\"name\":\"a\",\"value\":1}\n{\"type\":\"met";
        let m = RunModel::from_trace_jsonl("t", torn).expect("torn tail ok");
        assert!(m.torn_tail);
        assert_eq!(m.events, 1);

        let corrupt = "{\"type\":\"met\n{\"type\":\"metric\",\"name\":\"a\",\"value\":1}\n";
        let err = RunModel::from_trace_jsonl("t", corrupt).unwrap_err();
        assert!(err.message.contains("line 1"), "{err}");
    }

    #[test]
    fn journal_cells_become_pseudo_spans() {
        let text = "\
{\"journal\":\"mcpb-sweep\",\"version\":1,\"seed\":1,\"config_hash\":\"0000000000000002\",\"label\":\"mcp\"}\n\
{\"cell\":\"mcp|LG|D|3\",\"status\":\"completed\",\"attempts\":1,\"elapsed_secs\":0.5,\"error\":null,\"payload\":null}\n\
{\"cell\":\"mcp|TD|D|3\",\"status\":\"failed\",\"attempts\":2,\"elapsed_secs\":1.25,\"error\":\"boom\",\"payload\":null}\n";
        let m = RunModel::from_text("j", text).expect("parses");
        assert_eq!(m.kind, Some(RunKind::Journal));
        assert_eq!(m.cells.len(), 2);
        assert!(!m.cells[0].ok || m.cells[0].error.is_none());
        let s = m.span("cell/mcp|LG|D|3").expect("pseudo-span");
        assert_eq!(s.total_nanos, 500_000_000);
        let failed: Vec<_> = m.cells.iter().filter(|c| !c.ok).collect();
        assert_eq!(failed.len(), 1);
        assert_eq!(failed[0].error.as_deref(), Some("boom"));
    }

    #[test]
    fn bench_records_become_pseudo_spans() {
        let text = "{\"schema\":\"mcpb-perf/1\",\"area\":\"nn\",\"quick\":false,\
                    \"host_threads\":4,\"threads\":[],\
                    \"benches\":[{\"id\":\"matmul\",\"samples\":9,\"min_nanos\":90,\
                    \"median_nanos\":100,\"mean_nanos\":105}],\"speedups\":[]}";
        let m = RunModel::from_text("b", text).expect("parses");
        assert_eq!(m.kind, Some(RunKind::Bench));
        let s = m.span("bench/matmul").expect("pseudo-span");
        assert_eq!((s.calls, s.self_nanos), (9, 100));
        assert_eq!(m.last_metrics, vec![("host_threads".to_string(), 4.0)]);
    }

    #[test]
    fn self_time_ordering_is_deterministic() {
        let m = RunModel {
            spans: vec![
                SpanAgg {
                    path: "b".into(),
                    calls: 1,
                    total_nanos: 5,
                    self_nanos: 5,
                    heap_peak_bytes: 0,
                },
                SpanAgg {
                    path: "a".into(),
                    calls: 1,
                    total_nanos: 5,
                    self_nanos: 5,
                    heap_peak_bytes: 0,
                },
                SpanAgg {
                    path: "c".into(),
                    calls: 1,
                    total_nanos: 9,
                    self_nanos: 9,
                    heap_peak_bytes: 0,
                },
            ],
            ..RunModel::default()
        };
        let order: Vec<&str> = m
            .spans_by_self_time()
            .iter()
            .map(|s| s.path.as_str())
            .collect();
        assert_eq!(order, ["c", "a", "b"]);
        assert_eq!(m.total_self_nanos(), 19);
    }
}
