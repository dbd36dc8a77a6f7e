//! Crash-safe JSONL run journal.
//!
//! One header line records the run's seed, a config hash, and a label; each
//! subsequent line is one cell outcome. Lines are appended and fsync'd per
//! cell, so after a crash the journal holds every durably completed cell
//! plus a torn suffix, which the reader drops. The torn suffix is usually a
//! single partial line, but a crash during a multi-block append (or a
//! filesystem that reorders block flushes on power loss) can tear *several*
//! trailing lines — any maximal run of unparseable lines at the end of the
//! file is tolerated; an unparseable line followed by a parseable one is
//! corruption and errors out. A resumed run verifies the header hash,
//! replays completed cells from their stored payloads, and reruns only
//! failed or missing cells; [`JournalWriter::append_to`] truncates the torn
//! suffix before appending so a resumed journal never embeds interior
//! garbage.
//!
//! The field order is fixed, and fields are written and decoded with the
//! `mcpb-json` scalar writers and parser. `payload` is deliberately the
//! *last* field: the parser keeps the raw remainder of the line, so payloads
//! can be arbitrary JSON produced by a richer serializer upstream. A
//! payload is still parsed once, so a truncated or over-deep one makes its
//! line unparseable.

use mcpb_json::Value;
use std::fs::{File, OpenOptions};
use std::io::{Seek, SeekFrom, Write};
use std::path::Path;

/// Journal file header: identifies the run a journal belongs to.
#[derive(Debug, Clone, PartialEq)]
pub struct JournalHeader {
    /// RNG seed of the run.
    pub seed: u64,
    /// FNV-1a hash of the sweep configuration (methods, datasets, budgets…).
    pub config_hash: u64,
    /// Human-readable run label, e.g. `mcp-quick`.
    pub label: String,
}

/// Terminal state of one journaled cell.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EntryStatus {
    /// The cell produced a payload.
    Completed,
    /// The cell failed; `error` holds the reason.
    Failed,
}

impl EntryStatus {
    fn as_str(self) -> &'static str {
        match self {
            EntryStatus::Completed => "completed",
            EntryStatus::Failed => "failed",
        }
    }
}

/// One journaled cell outcome.
#[derive(Debug, Clone, PartialEq)]
pub struct JournalEntry {
    /// Stable cell key, e.g. `mcp|LazyGreedy|Damascus|5`.
    pub cell: String,
    /// Terminal state.
    pub status: EntryStatus,
    /// Attempts consumed.
    pub attempts: u32,
    /// Total wall-clock seconds for the cell.
    pub elapsed_secs: f64,
    /// Failure reason for [`EntryStatus::Failed`] entries.
    pub error: Option<String>,
    /// Raw JSON payload for [`EntryStatus::Completed`] entries.
    pub payload: Option<String>,
}

/// A parsed journal.
#[derive(Debug, Clone, PartialEq)]
pub struct Journal {
    /// The run header.
    pub header: JournalHeader,
    /// Durable entries, in append order.
    pub entries: Vec<JournalEntry>,
    /// True when a torn suffix (crash mid-append) was dropped.
    pub torn_tail: bool,
    /// Number of torn trailing lines dropped (0 when `torn_tail` is false).
    pub torn_lines: usize,
}

/// Errors from reading or parsing a journal.
#[derive(Debug, Clone, PartialEq)]
pub enum JournalError {
    /// Filesystem error, stringified.
    Io(String),
    /// The file has no parseable header line.
    MissingHeader,
    /// A non-final line failed to parse (corruption, not a torn tail).
    Malformed {
        /// 1-based line number.
        line: usize,
        /// What went wrong.
        detail: String,
    },
    /// Resume attempted against a journal from a different configuration.
    ConfigMismatch {
        /// Hash the resuming run computed.
        expected: u64,
        /// Hash stored in the journal header.
        found: u64,
    },
    /// `fsync` failed after a write: the line may be in the page cache but
    /// is not durable, so the caller must treat the entry as unjournaled.
    Sync(String),
    /// A write landed short or failed partway: the file may hold a torn
    /// line (which a later reader will drop as a torn tail).
    ShortWrite(String),
}

impl std::fmt::Display for JournalError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            JournalError::Io(e) => write!(f, "journal io error: {e}"),
            JournalError::MissingHeader => write!(f, "journal has no parseable header line"),
            JournalError::Malformed { line, detail } => {
                write!(f, "journal line {line} is corrupt: {detail}")
            }
            JournalError::ConfigMismatch { expected, found } => write!(
                f,
                "journal belongs to a different run: config hash {found:016x} != {expected:016x}"
            ),
            JournalError::Sync(e) => write!(f, "journal fsync failed (entry not durable): {e}"),
            JournalError::ShortWrite(e) => write!(f, "journal write landed short or failed: {e}"),
        }
    }
}

impl std::error::Error for JournalError {}

// -- encoding -------------------------------------------------------------

impl JournalHeader {
    /// Encodes the header as one JSONL line (no trailing newline).
    pub fn to_line(&self) -> String {
        let mut s = String::from("{\"journal\":\"mcpb-sweep\",\"version\":1,\"seed\":");
        mcpb_json::write_u64(&mut s, self.seed);
        s.push_str(",\"config_hash\":");
        mcpb_json::write_str(&mut s, &format!("{:016x}", self.config_hash));
        s.push_str(",\"label\":");
        mcpb_json::write_str(&mut s, &self.label);
        s.push('}');
        s
    }
}

impl JournalEntry {
    /// Encodes the entry as one JSONL line (no trailing newline).
    pub fn to_line(&self) -> String {
        let mut s = String::from("{\"cell\":");
        mcpb_json::write_str(&mut s, &self.cell);
        s.push_str(",\"status\":");
        mcpb_json::write_str(&mut s, self.status.as_str());
        s.push_str(",\"attempts\":");
        mcpb_json::write_u64(&mut s, u64::from(self.attempts));
        s.push_str(",\"elapsed_secs\":");
        mcpb_json::write_f64(&mut s, self.elapsed_secs);
        s.push_str(",\"error\":");
        match &self.error {
            Some(e) => mcpb_json::write_str(&mut s, e),
            None => s.push_str("null"),
        }
        s.push_str(",\"payload\":");
        s.push_str(self.payload.as_deref().unwrap_or("null"));
        s.push('}');
        s
    }
}

// -- decoding -------------------------------------------------------------

fn expect_lit<'a>(rest: &'a str, lit: &str) -> Result<&'a str, String> {
    rest.strip_prefix(lit)
        .ok_or_else(|| format!("expected `{lit}` at `{}`", truncate(rest)))
}

/// The first 24 chars of `s`, for error messages.
fn truncate(s: &str) -> &str {
    s.char_indices().nth(24).map_or(s, |(i, _)| &s[..i])
}

/// Decodes the JSON value at the start of `rest`; returns it with the rest.
fn field(rest: &str) -> Result<(Value, &str), String> {
    mcpb_json::parse_prefix(rest).map_err(|e| e.to_string())
}

fn string_field(rest: &str) -> Result<(String, &str), String> {
    match field(rest)? {
        (Value::String(s), rest) => Ok((s, rest)),
        (other, _) => Err(format!("expected a string, found {other:?}")),
    }
}

fn u64_field<'a>(rest: &'a str, name: &str) -> Result<(u64, &'a str), String> {
    let (v, rest) = field(rest)?;
    let n = v
        .as_u64()
        .ok_or_else(|| format!("{name} is not a non-negative integer"))?;
    Ok((n, rest))
}

fn parse_header_line(line: &str) -> Result<JournalHeader, String> {
    let rest = expect_lit(line, "{\"journal\":\"mcpb-sweep\",\"version\":1,\"seed\":")?;
    let (seed, rest) = u64_field(rest, "seed")?;
    let rest = expect_lit(rest, ",\"config_hash\":")?;
    let (hash_s, rest) = string_field(rest)?;
    let config_hash =
        u64::from_str_radix(&hash_s, 16).map_err(|_| "config_hash is not hex".to_string())?;
    let rest = expect_lit(rest, ",\"label\":")?;
    let (label, rest) = string_field(rest)?;
    if rest != "}" {
        return Err(format!("trailing data after header: `{}`", truncate(rest)));
    }
    Ok(JournalHeader {
        seed,
        config_hash,
        label,
    })
}

fn parse_entry_line(line: &str) -> Result<JournalEntry, String> {
    let rest = expect_lit(line, "{\"cell\":")?;
    let (cell, rest) = string_field(rest)?;
    let rest = expect_lit(rest, ",\"status\":")?;
    let (status_s, rest) = string_field(rest)?;
    let status = match status_s.as_str() {
        "completed" => EntryStatus::Completed,
        "failed" => EntryStatus::Failed,
        other => return Err(format!("unknown status `{other}`")),
    };
    let rest = expect_lit(rest, ",\"attempts\":")?;
    let (attempts, rest) = u64_field(rest, "attempts")?;
    let attempts = u32::try_from(attempts).map_err(|_| "attempts is not a u32")?;
    let rest = expect_lit(rest, ",\"elapsed_secs\":")?;
    let (elapsed_secs, rest) = match field(rest)? {
        (Value::Null, rest) => (f64::NAN, rest),
        (v, rest) => (v.as_f64().ok_or("elapsed_secs is not a float")?, rest),
    };
    let rest = expect_lit(rest, ",\"error\":")?;
    let (error, rest) = match field(rest)? {
        (Value::Null, rest) => (None, rest),
        (Value::String(e), rest) => (Some(e), rest),
        (other, _) => return Err(format!("error is not a string: {other:?}")),
    };
    let rest = expect_lit(rest, ",\"payload\":")?;
    let body = rest
        .strip_suffix('}')
        .ok_or_else(|| "line does not end with `}`".to_string())?;
    // Parsing the payload tells a stored one from one cut short by a crash
    // mid-append; the raw text is what the entry keeps.
    let payload = match mcpb_json::parse(body) {
        Ok(Value::Null) => None,
        Ok(_) => Some(body.to_string()),
        Err(e) => return Err(format!("payload is not valid JSON: {e}")),
    };
    Ok(JournalEntry {
        cell,
        status,
        attempts,
        elapsed_secs,
        error,
        payload,
    })
}

/// Parses journal text. Any maximal run of unparseable lines at the *end*
/// of the file is treated as a torn tail (crash mid-append — possibly
/// spanning several lines when the final write crossed block boundaries)
/// and dropped; an unparseable line *followed by a parseable one* is
/// corruption and errors out.
pub fn parse_journal(text: &str) -> Result<Journal, JournalError> {
    let lines: Vec<&str> = text.lines().collect();
    let Some((first, rest)) = lines.split_first() else {
        return Err(JournalError::MissingHeader);
    };
    let header = parse_header_line(first).map_err(|_| JournalError::MissingHeader)?;
    let mut entries = Vec::new();
    // Unparseable lines are held here until proven torn (no parseable line
    // after them). A parseable line after a bad one upgrades the first bad
    // line to a hard corruption error.
    let mut pending_torn: Option<(usize, String)> = None;
    let mut torn_lines = 0usize;
    for (i, line) in rest.iter().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        match parse_entry_line(line) {
            Ok(entry) => {
                if let Some((bad_line, detail)) = pending_torn.take() {
                    return Err(JournalError::Malformed {
                        line: bad_line,
                        detail,
                    });
                }
                entries.push(entry);
            }
            Err(detail) => {
                if pending_torn.is_none() {
                    pending_torn = Some((i + 2, detail));
                }
                torn_lines += 1;
            }
        }
    }
    Ok(Journal {
        header,
        entries,
        torn_tail: torn_lines > 0,
        torn_lines,
    })
}

/// Byte length of the durable prefix of journal text: the header plus every
/// newline-terminated, parseable entry line. Everything past it is a torn
/// suffix that [`JournalWriter::append_to`] truncates before appending.
fn durable_prefix_len(text: &str) -> usize {
    let mut durable = 0usize;
    let mut offset = 0usize;
    let mut first = true;
    while offset < text.len() {
        let line_end = match text[offset..].find('\n') {
            Some(i) => offset + i + 1,
            // No trailing newline: the line is torn by definition.
            None => break,
        };
        let line = text[offset..line_end].trim_end_matches(['\n', '\r']);
        let ok = if first {
            parse_header_line(line).is_ok()
        } else {
            line.trim().is_empty() || parse_entry_line(line).is_ok()
        };
        if !ok {
            break;
        }
        first = false;
        durable = line_end;
        offset = line_end;
    }
    durable
}

/// Reads and parses a journal file.
pub fn read_journal(path: &Path) -> Result<Journal, JournalError> {
    let text = std::fs::read_to_string(path).map_err(|e| JournalError::Io(e.to_string()))?;
    parse_journal(&text)
}

/// Append-only journal writer; every line is flushed and fsync'd so a
/// killed process loses at most the suffix being written. All failure
/// modes are surfaced as typed [`JournalError`]s — a write that lands
/// short is [`JournalError::ShortWrite`], a failed fsync (the line may sit
/// in the page cache but is not durable) is [`JournalError::Sync`] — so
/// callers can degrade instead of panicking.
#[derive(Debug)]
pub struct JournalWriter {
    file: File,
}

impl JournalWriter {
    /// Creates (truncating) a journal and durably writes its header.
    pub fn create(path: &Path, header: &JournalHeader) -> Result<JournalWriter, JournalError> {
        let mut file = File::create(path).map_err(|e| JournalError::Io(e.to_string()))?;
        write_line(&mut file, &header.to_line())?;
        Ok(JournalWriter { file })
    }

    /// Reopens an existing journal for appending (resume). The journal is
    /// re-parsed: interior corruption is rejected as
    /// [`JournalError::Malformed`], and any torn trailing suffix (one *or
    /// more* partial lines from a crash mid-append) is truncated away so the
    /// next append starts on a clean line boundary.
    pub fn append_to(path: &Path) -> Result<JournalWriter, JournalError> {
        let text = std::fs::read_to_string(path).map_err(|e| JournalError::Io(e.to_string()))?;
        let journal = parse_journal(&text)?;
        let file = OpenOptions::new()
            .read(true)
            .write(true)
            .open(path)
            .map_err(|e| JournalError::Io(e.to_string()))?;
        if journal.torn_tail {
            let keep = durable_prefix_len(&text) as u64;
            file.set_len(keep)
                .map_err(|e| JournalError::Io(e.to_string()))?;
            file.sync_data()
                .map_err(|e| JournalError::Sync(e.to_string()))?;
        }
        let mut file = file;
        file.seek(SeekFrom::End(0))
            .map_err(|e| JournalError::Io(e.to_string()))?;
        Ok(JournalWriter { file })
    }

    /// Durably appends one cell outcome.
    pub fn append(&mut self, entry: &JournalEntry) -> Result<(), JournalError> {
        write_line(&mut self.file, &entry.to_line())
    }
}

/// Writes `line` + newline and fsyncs, mapping each failure mode to its
/// typed error: partial/failed writes to [`JournalError::ShortWrite`],
/// fsync failures to [`JournalError::Sync`].
fn write_line(file: &mut File, line: &str) -> Result<(), JournalError> {
    file.write_all(line.as_bytes())
        .and_then(|()| file.write_all(b"\n"))
        .map_err(|e| JournalError::ShortWrite(e.to_string()))?;
    file.sync_data()
        .map_err(|e| JournalError::Sync(e.to_string()))
}

// -- timing-insensitive comparison ----------------------------------------

/// Timing keys whose scalar values are zeroed by [`normalize_timing`].
const TIMING_KEYS: [&str; 3] = ["runtime", "peak_bytes", "elapsed_secs"];

/// Rewrites a JSON payload so that the scalar values of wall-clock keys
/// (`runtime`, `peak_bytes`, `elapsed_secs`) become `0`, leaving every
/// other byte untouched. Two runs of a deterministic sweep differ *only*
/// in these fields, so comparing normalized payloads checks bit-identity
/// of the actual results while tolerating timing noise.
///
/// A byte scanner, not a parse, so every other byte stays as it was: it
/// walks string literals with escape tracking, and only a literal that is immediately
/// followed by `:` and a non-structural value (not a string, object, or
/// array) triggers a replacement — a *value* that happens to equal a
/// timing key is never touched.
pub fn normalize_timing(payload: &str) -> String {
    let bytes = payload.as_bytes();
    let mut out = String::with_capacity(payload.len());
    let mut i = 0;
    while i < bytes.len() {
        if bytes[i] != b'"' {
            // Multibyte UTF-8 is copied byte-exactly via slicing below, so
            // only advance through non-quote bytes here.
            let start = i;
            while i < bytes.len() && bytes[i] != b'"' {
                i += 1;
            }
            out.push_str(&payload[start..i]);
            continue;
        }
        // A string literal: find its closing quote, escape-aware.
        let start = i;
        i += 1;
        let mut esc = false;
        while i < bytes.len() {
            let b = bytes[i];
            i += 1;
            if esc {
                esc = false;
            } else if b == b'\\' {
                esc = true;
            } else if b == b'"' {
                break;
            }
        }
        out.push_str(&payload[start..i]);
        let literal = &payload[start + 1..i.saturating_sub(1).max(start + 1)];
        if !TIMING_KEYS.contains(&literal) {
            continue;
        }
        // Only a key position (`"runtime"` followed by `:`) qualifies.
        let mut j = i;
        while j < bytes.len() && bytes[j].is_ascii_whitespace() {
            j += 1;
        }
        if j >= bytes.len() || bytes[j] != b':' {
            continue;
        }
        j += 1;
        while j < bytes.len() && bytes[j].is_ascii_whitespace() {
            j += 1;
        }
        if j < bytes.len() && matches!(bytes[j], b'"' | b'{' | b'[') {
            continue;
        }
        // Copy the separator, emit `0`, and skip the original scalar.
        out.push_str(&payload[i..j]);
        out.push('0');
        while j < bytes.len() && !matches!(bytes[j], b',' | b'}' | b']') {
            j += 1;
        }
        i = j;
    }
    out
}

/// Compares two journals for equivalence *modulo timing*: headers, entry
/// order, cell keys, statuses, attempt counts, errors, and payloads (after
/// [`normalize_timing`]) must match; `elapsed_secs` and the wall-clock
/// payload fields are ignored. Returns a human-readable line per
/// difference — empty means the runs produced bit-identical results.
///
/// This is the invariance check behind `MCPB_THREADS`: a sweep journal
/// written at 1 thread and one written at 8 must diff clean.
pub fn diff_journals_modulo_timing(a: &Journal, b: &Journal) -> Vec<String> {
    let mut diffs = Vec::new();
    if a.header.seed != b.header.seed {
        diffs.push(format!(
            "header seed: {} != {}",
            a.header.seed, b.header.seed
        ));
    }
    if a.header.config_hash != b.header.config_hash {
        diffs.push(format!(
            "header config_hash: {:016x} != {:016x}",
            a.header.config_hash, b.header.config_hash
        ));
    }
    if a.header.label != b.header.label {
        diffs.push(format!(
            "header label: `{}` != `{}`",
            a.header.label, b.header.label
        ));
    }
    if a.entries.len() != b.entries.len() {
        diffs.push(format!(
            "entry count: {} != {}",
            a.entries.len(),
            b.entries.len()
        ));
    }
    for (i, (ea, eb)) in a.entries.iter().zip(&b.entries).enumerate() {
        if ea.cell != eb.cell {
            diffs.push(format!("entry {i} cell: `{}` != `{}`", ea.cell, eb.cell));
            continue;
        }
        if ea.status != eb.status {
            diffs.push(format!(
                "entry {i} ({}) status: {:?} != {:?}",
                ea.cell, ea.status, eb.status
            ));
        }
        if ea.attempts != eb.attempts {
            diffs.push(format!(
                "entry {i} ({}) attempts: {} != {}",
                ea.cell, ea.attempts, eb.attempts
            ));
        }
        if ea.error != eb.error {
            diffs.push(format!(
                "entry {i} ({}) error: {:?} != {:?}",
                ea.cell, ea.error, eb.error
            ));
        }
        match (&ea.payload, &eb.payload) {
            (Some(pa), Some(pb)) => {
                let (na, nb) = (normalize_timing(pa), normalize_timing(pb));
                if na != nb {
                    diffs.push(format!(
                        "entry {i} ({}) payload (timing-normalized): `{na}` != `{nb}`",
                        ea.cell
                    ));
                }
            }
            (None, None) => {}
            (pa, pb) => diffs.push(format!(
                "entry {i} ({}) payload presence: {} != {}",
                ea.cell,
                pa.is_some(),
                pb.is_some()
            )),
        }
    }
    diffs
}

#[cfg(test)]
mod tests {
    use super::*;

    fn header() -> JournalHeader {
        JournalHeader {
            seed: 42,
            config_hash: 0xdead_beef_0102_0304,
            label: "mcp-quick".to_string(),
        }
    }

    fn entry(cell: &str, ok: bool) -> JournalEntry {
        JournalEntry {
            cell: cell.to_string(),
            status: if ok {
                EntryStatus::Completed
            } else {
                EntryStatus::Failed
            },
            attempts: if ok { 1 } else { 3 },
            elapsed_secs: 0.125,
            error: (!ok).then(|| "panicked: injected \"quote\"\nline2".to_string()),
            payload: ok.then(|| "{\"quality\":0.5,\"k\":10}".to_string()),
        }
    }

    #[test]
    fn header_and_entries_round_trip() {
        let mut text = header().to_line();
        text.push('\n');
        for (i, ok) in [(0, true), (1, false), (2, true)] {
            text.push_str(&entry(&format!("mcp|Lazy|DS|{i}"), ok).to_line());
            text.push('\n');
        }
        let j = parse_journal(&text).expect("parses");
        assert_eq!(j.header, header());
        assert_eq!(j.entries.len(), 3);
        assert!(!j.torn_tail);
        assert_eq!(j.entries[0], entry("mcp|Lazy|DS|0", true));
        assert_eq!(j.entries[1], entry("mcp|Lazy|DS|1", false));
        assert_eq!(
            j.entries[0].payload.as_deref(),
            Some("{\"quality\":0.5,\"k\":10}")
        );
    }

    #[test]
    fn torn_final_line_is_dropped() {
        let full = entry("mcp|Lazy|DS|5", true).to_line();
        for cut in [1, full.len() / 2, full.len() - 1] {
            let mut text = header().to_line();
            text.push('\n');
            text.push_str(&entry("mcp|Lazy|DS|1", true).to_line());
            text.push('\n');
            text.push_str(&full[..cut]);
            let j = parse_journal(&text).expect("torn tail tolerated");
            assert_eq!(j.entries.len(), 1, "cut at {cut}");
            assert!(j.torn_tail, "cut at {cut}");
            assert_eq!(j.torn_lines, 1, "cut at {cut}");
        }
    }

    #[test]
    fn multiple_torn_tail_lines_are_dropped() {
        // A crash mid-append can tear more than one trailing line when the
        // final write spanned several buffered blocks. Every maximal
        // unparseable suffix must be tolerated, whatever its length.
        let mut text = header().to_line();
        text.push('\n');
        text.push_str(&entry("mcp|Lazy|DS|1", true).to_line());
        text.push('\n');
        text.push_str("{\"cell\":\"mcp|Lazy|DS|2\",\"status\":\"comp\n");
        text.push_str("{\"cell\":garbage\n");
        text.push_str("{\"ce");
        let j = parse_journal(&text).expect("multi-line torn tail tolerated");
        assert_eq!(j.entries.len(), 1);
        assert!(j.torn_tail);
        assert_eq!(j.torn_lines, 3);
    }

    #[test]
    fn append_to_truncates_torn_suffix_before_appending() {
        let dir = std::env::temp_dir().join("mcpb-resilience-journal-torn-test");
        std::fs::create_dir_all(&dir).expect("tmp dir");
        let path = dir.join("torn.jsonl");
        {
            let mut w = JournalWriter::create(&path, &header()).expect("create");
            w.append(&entry("a", true)).expect("append");
        }
        // Simulated crash: two torn lines land after the durable prefix.
        {
            use std::io::Write as _;
            let mut f = OpenOptions::new().append(true).open(&path).expect("open");
            f.write_all(b"{\"cell\":\"b\",\"status\":\"comp\n{\"cel")
                .expect("tear");
        }
        assert_eq!(read_journal(&path).expect("readable").torn_lines, 2);
        {
            let mut w = JournalWriter::append_to(&path).expect("reopen truncates");
            w.append(&entry("c", true)).expect("append");
        }
        let j = read_journal(&path).expect("clean after resume");
        assert!(!j.torn_tail, "resume must remove the torn suffix");
        assert_eq!(j.torn_lines, 0);
        let cells: Vec<&str> = j.entries.iter().map(|e| e.cell.as_str()).collect();
        assert_eq!(cells, ["a", "c"]);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn writer_errors_are_typed_not_panics() {
        // Creating a journal at a directory path must fail with a typed
        // Io error, never a panic.
        let dir = std::env::temp_dir().join("mcpb-resilience-journal-dir-test");
        std::fs::create_dir_all(&dir).expect("tmp dir");
        let err = JournalWriter::create(&dir, &header()).expect_err("dir path must fail");
        assert!(matches!(err, JournalError::Io(_)), "{err:?}");
        // append_to over interior corruption is rejected, not truncated:
        // a parseable line after garbage means real corruption, and silently
        // cutting at the garbage would discard durable entries.
        let path = dir.join("corrupt.jsonl");
        let mut text = header().to_line();
        text.push('\n');
        text.push_str("{\"cell\":garbage\n");
        text.push_str(&entry("good", true).to_line());
        text.push('\n');
        std::fs::write(&path, &text).expect("write");
        let err = JournalWriter::append_to(&path).expect_err("corruption rejected");
        assert!(
            matches!(err, JournalError::Malformed { line: 2, .. }),
            "{err:?}"
        );
        // The error Displays mention their failure mode for log greppability.
        assert!(JournalError::Sync("disk".into())
            .to_string()
            .contains("fsync"));
        assert!(JournalError::ShortWrite("disk".into())
            .to_string()
            .contains("short"));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn corruption_before_the_tail_errors() {
        let mut text = header().to_line();
        text.push('\n');
        text.push_str("{\"cell\":garbage\n");
        text.push_str(&entry("mcp|Lazy|DS|1", true).to_line());
        text.push('\n');
        assert!(matches!(
            parse_journal(&text),
            Err(JournalError::Malformed { line: 2, .. })
        ));
    }

    #[test]
    fn surrogate_pairs_decode_and_lone_halves_are_typed_errors() {
        let mut text = header().to_line().replace("mcp-quick", r"run \ud83d\ude00");
        text.push('\n');
        let line = entry("a", false).to_line();
        text.push_str(&line.replace("panicked", r"\ud83d\ude00"));
        text.push('\n');
        let j = parse_journal(&text).expect("surrogate pairs parse");
        assert_eq!(j.header.label, "run \u{1F600}");
        assert!(j.entries[0]
            .error
            .as_deref()
            .is_some_and(|e| e.starts_with('\u{1F600}')));
        for half in [r"\ud83d", r"\ude00", r"\ud83d\u0041"] {
            let bad_header = header().to_line().replace("mcp-quick", half);
            assert_eq!(parse_journal(&bad_header), Err(JournalError::MissingHeader));
            let mut text = header().to_line();
            text.push('\n');
            text.push_str(&entry(half, true).to_line().replace(r"\\", r"\"));
            text.push('\n');
            text.push_str(&entry("good", true).to_line());
            assert!(
                matches!(
                    parse_journal(&text),
                    Err(JournalError::Malformed { line: 2, .. })
                ),
                "{half}"
            );
        }
    }

    #[test]
    fn multibyte_garbage_is_a_typed_error() {
        // The error message quotes the start of the line; cutting it at a
        // byte offset inside `é` once panicked.
        let mut text = header().to_line();
        text.push('\n');
        text.push_str(&format!("x{}\n", "é".repeat(20)));
        text.push_str(&entry("good", true).to_line());
        assert!(matches!(
            parse_journal(&text),
            Err(JournalError::Malformed { line: 2, .. })
        ));
    }

    #[test]
    fn header_seed_is_exact_past_2_pow_53() {
        let h = JournalHeader {
            seed: (1 << 63) + 1,
            ..header()
        };
        assert!(h.to_line().contains("\"seed\":9223372036854775809,"));
        assert_eq!(parse_journal(&h.to_line()).expect("parses").header, h);
    }

    #[test]
    fn over_deep_payload_makes_its_line_unparseable() {
        let mut deep = entry("deep", true);
        deep.payload = Some(format!("{}{}", "[".repeat(33), "]".repeat(33)));
        let mut text = header().to_line();
        text.push('\n');
        text.push_str(&entry("a", true).to_line());
        text.push('\n');
        text.push_str(&deep.to_line());
        text.push('\n');
        let j = parse_journal(&text).expect("a bad final line is a torn tail");
        assert_eq!(j.entries.len(), 1);
        assert_eq!(j.torn_lines, 1);
        text.push_str(&entry("b", true).to_line());
        assert!(matches!(
            parse_journal(&text),
            Err(JournalError::Malformed { line: 3, .. })
        ));
    }

    #[test]
    fn missing_or_bad_header_is_typed() {
        assert_eq!(parse_journal(""), Err(JournalError::MissingHeader));
        assert_eq!(
            parse_journal("{\"not\":\"a header\"}\n"),
            Err(JournalError::MissingHeader)
        );
    }

    #[test]
    fn normalize_timing_zeroes_only_timing_keys() {
        let payload = r#"{"method":"Lazy","runtime":0.1234,"quality":0.75,"peak_bytes":8192,"elapsed_secs":1e-3}"#;
        assert_eq!(
            normalize_timing(payload),
            r#"{"method":"Lazy","runtime":0,"quality":0.75,"peak_bytes":0,"elapsed_secs":0}"#
        );
        // `null` scalars normalize too (peak_bytes when tracking is off).
        assert_eq!(
            normalize_timing(r#"{"peak_bytes":null,"k":3}"#),
            r#"{"peak_bytes":0,"k":3}"#
        );
        // A *value* equal to a timing key, and string/structural values
        // under a timing key, are left alone.
        let tricky =
            r#"{"name":"runtime","runtime":"fast","runtime":{"a":1},"note":"elapsed_secs: 9"}"#;
        assert_eq!(normalize_timing(tricky), tricky);
        // Escaped quotes inside strings do not derail the scanner.
        let escaped = r#"{"msg":"say \"runtime\":","runtime":7}"#;
        assert_eq!(
            normalize_timing(escaped),
            r#"{"msg":"say \"runtime\":","runtime":0}"#
        );
    }

    #[test]
    fn diff_modulo_timing_ignores_wall_clock_but_not_results() {
        let mk = |runtime: &str, quality: &str, elapsed: f64| {
            let mut e = entry("mcp|Lazy|DS|1", true);
            e.elapsed_secs = elapsed;
            e.payload = Some(format!(
                "{{\"quality\":{quality},\"runtime\":{runtime},\"peak_bytes\":null}}"
            ));
            Journal {
                header: header(),
                entries: vec![e],
                torn_tail: false,
                torn_lines: 0,
            }
        };
        let a = mk("0.5", "0.9", 1.0);
        let b = mk("0.0625", "0.9", 2.0);
        assert!(
            diff_journals_modulo_timing(&a, &b).is_empty(),
            "timing-only differences must diff clean"
        );
        let c = mk("0.5", "0.8", 1.0);
        let diffs = diff_journals_modulo_timing(&a, &c);
        assert_eq!(diffs.len(), 1, "quality change must be reported: {diffs:?}");
        assert!(diffs[0].contains("payload"));

        let mut d = a.clone();
        d.entries[0].status = EntryStatus::Failed;
        d.entries[0].attempts = 3;
        let diffs = diff_journals_modulo_timing(&a, &d);
        assert!(diffs.iter().any(|l| l.contains("status")));
        assert!(diffs.iter().any(|l| l.contains("attempts")));

        let mut e = a.clone();
        e.header.config_hash ^= 1;
        e.entries.clear();
        let diffs = diff_journals_modulo_timing(&a, &e);
        assert!(diffs.iter().any(|l| l.contains("config_hash")));
        assert!(diffs.iter().any(|l| l.contains("entry count")));
    }

    #[test]
    fn writer_fsyncs_lines_readable_by_reader() {
        let dir = std::env::temp_dir().join("mcpb-resilience-journal-test");
        std::fs::create_dir_all(&dir).expect("tmp dir");
        let path = dir.join("run.jsonl");
        {
            let mut w = JournalWriter::create(&path, &header()).expect("create");
            w.append(&entry("a", true)).expect("append");
            w.append(&entry("b", false)).expect("append");
        }
        {
            let mut w = JournalWriter::append_to(&path).expect("reopen");
            w.append(&entry("c", true)).expect("append");
        }
        let j = read_journal(&path).expect("read");
        assert_eq!(j.header, header());
        let cells: Vec<&str> = j.entries.iter().map(|e| e.cell.as_str()).collect();
        assert_eq!(cells, ["a", "b", "c"]);
        std::fs::remove_file(&path).ok();
    }
}
