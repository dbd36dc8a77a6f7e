//! The benchmark's span recorder. Spans wrap the benchmark's own calls into
//! a layer's public entry point and are kept in memory; when tracing is off
//! a span is a plain call with no clock read.

use crate::summary::Span;
use std::time::Instant;

/// In-memory span recorder for one traced unit of work.
pub struct Tracer {
    on: bool,
    origin: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    /// A recorder that records only when `on`.
    pub fn new(on: bool) -> Tracer {
        Tracer {
            on,
            origin: Instant::now(),
            spans: Vec::new(),
        }
    }

    /// Starts a new unit: clears the spans and restarts the clock.
    pub fn begin(&mut self, on: bool) {
        self.on = on;
        self.spans.clear();
        self.origin = Instant::now();
    }

    /// Runs `f`, recording it as span `name` when tracing is on.
    pub fn span<T>(&mut self, name: &str, f: impl FnOnce() -> T) -> T {
        if !self.on {
            return f();
        }
        let start = self.origin.elapsed().as_secs_f64();
        let out = f();
        let end = self.origin.elapsed().as_secs_f64();
        self.spans.push(Span {
            name: name.to_string(),
            start,
            end,
        });
        out
    }

    /// Spans recorded since [`Tracer::begin`].
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }
}
