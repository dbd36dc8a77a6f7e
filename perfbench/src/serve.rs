//! `serve_open`: the default `ServeConfig` behind `serve_listener`, driven
//! by an open-loop schedule at two fixed rates over two connections.

use crate::summary::latency_from_due;
use crate::trace::Tracer;
use crate::workload::{fnv, mix, UnitOut, Workload, FNV_START};
use mcpb_serve::{preload, serve_listener, ServeConfig, ServeState, SocketConfig, SolverPool};
use serde::Value;
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Open-loop phases: name, requests per second, requests per unit. Over
/// TCP each exchange takes about 44 ms (see `README.md`), so two
/// connections carry about 45 requests per second: `light` keeps them under
/// half busy and `peak` near saturation.
const PHASES: [(&str, f64, usize); 2] = [("light", 20.0, 60), ("peak", 100.0, 100)];
/// Client connections; requests alternate between them.
const CONNECTIONS: usize = 2;
/// Largest budget a request asks for.
const MAX_BUDGET: u64 = 20;

/// One request as the client saw it; times are seconds from phase start.
struct Exchange {
    due: f64,
    sent: f64,
    received: f64,
    budget: u64,
    id: u64,
    body: String,
}

/// The serving workload.
pub struct ServeOpen {
    seed: u64,
    state: Option<(Arc<ServeState>, SolverPool)>,
    requests: [Vec<(u64, String)>; 2],
}

impl ServeOpen {
    /// The serving workload for `seed`.
    pub fn new(seed: u64) -> ServeOpen {
        ServeOpen {
            seed,
            state: None,
            requests: [Vec::new(), Vec::new()],
        }
    }
}

/// Requests uniform over the preloaded solvers and datasets with budgets
/// 1–20: no cost override and no malformed lines.
fn schedule(state: &ServeState, seed: u64, phase: usize, count: usize) -> Vec<(u64, String)> {
    let solvers: Vec<(&str, &str)> = state
        .mcp_kinds
        .iter()
        .map(|k| ("mcp", k.name()))
        .chain(state.im_kinds.iter().map(|k| ("im", k.name())))
        .collect();
    (0..count)
        .map(|i| {
            let r = mix(seed ^ ((phase as u64) << 40) ^ i as u64);
            let (task, solver) = solvers[(r % solvers.len() as u64) as usize];
            let ds = &state.datasets[((r >> 16) % state.datasets.len() as u64) as usize].name;
            let budget = 1 + (r >> 32) % MAX_BUDGET;
            let id = i as u64 + 1;
            let line = format!(
                "{{\"id\":{id},\"task\":\"{task}\",\"dataset\":\"{ds}\",\"solver\":\"{solver}\",\"budget\":{budget}}}\n"
            );
            (budget, line)
        })
        .collect()
}

/// Sends `requests` at `rate` per second over [`CONNECTIONS`] connections,
/// each request at its due time or as soon as its connection is free.
fn open_loop(addr: &str, requests: &[(u64, String)], rate: f64) -> Result<Vec<Exchange>, String> {
    let mut conns = Vec::with_capacity(CONNECTIONS);
    for _ in 0..CONNECTIONS {
        let s = TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
        s.set_nodelay(true).map_err(|e| e.to_string())?;
        s.set_read_timeout(Some(Duration::from_secs(30)))
            .map_err(|e| e.to_string())?;
        conns.push(s);
    }
    let start = Instant::now();
    let per_conn: Vec<Result<Vec<Exchange>, String>> = std::thread::scope(|scope| {
        let handles: Vec<_> = conns
            .into_iter()
            .enumerate()
            .map(|(c, stream)| {
                scope.spawn(move || -> Result<Vec<Exchange>, String> {
                    let mut writer = stream.try_clone().map_err(|e| e.to_string())?;
                    let mut reader = BufReader::new(stream);
                    let mut log = Vec::new();
                    for i in (c..requests.len()).step_by(CONNECTIONS) {
                        let (budget, line) = &requests[i];
                        let due = i as f64 / rate;
                        let now = start.elapsed().as_secs_f64();
                        if now < due {
                            std::thread::sleep(Duration::from_secs_f64(due - now));
                        }
                        let sent = start.elapsed().as_secs_f64();
                        writer
                            .write_all(line.as_bytes())
                            .map_err(|e| format!("send: {e}"))?;
                        let mut body = String::new();
                        let n = reader
                            .read_line(&mut body)
                            .map_err(|e| format!("receive: {e}"))?;
                        if n == 0 {
                            return Err("server closed the connection".to_string());
                        }
                        log.push(Exchange {
                            due,
                            sent,
                            received: start.elapsed().as_secs_f64(),
                            budget: *budget,
                            id: i as u64 + 1,
                            body,
                        });
                    }
                    Ok(log)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| {
                h.join()
                    .unwrap_or_else(|_| Err("client thread panicked".into()))
            })
            .collect()
    });
    let mut all = Vec::with_capacity(requests.len());
    for log in per_conn {
        all.extend(log?);
    }
    all.sort_by_key(|x| x.id);
    Ok(all)
}

impl Workload for ServeOpen {
    fn setup(&mut self, tr: &mut Tracer) -> Result<(), String> {
        self.state = None;
        let (state, pool) = tr
            .span("serve.preload", || preload(&ServeConfig::default()))
            .map_err(|e| format!("preload: {e:?}"))?;
        for (p, (_, _, count)) in PHASES.iter().enumerate() {
            self.requests[p] = schedule(&state, self.seed, p, *count);
        }
        self.state = Some((state, pool));
        Ok(())
    }

    fn arcs(&self) -> usize {
        self.state.as_ref().map_or(0, |(state, _)| {
            state
                .datasets
                .iter()
                .map(|d| d.mcp_graph.num_edges() + d.im_graph.num_edges())
                .sum()
        })
    }

    fn unit(&mut self, tr: &mut Tracer) -> Result<UnitOut, String> {
        let mut out = UnitOut {
            digest: FNV_START,
            ..UnitOut::default()
        };
        let mut samples: Vec<(String, f64)> = Vec::new();
        for (p, (phase, rate, _)) in PHASES.iter().enumerate() {
            let (state, pool) = self.state.take().ok_or("unit before setup")?;
            let handle = tr
                .span("serve.serve_listener", || {
                    serve_listener(Arc::clone(&state), pool, &SocketConfig::default())
                })
                .map_err(|e| format!("serve_listener: {e:?}"))?;
            let addr = handle
                .endpoint()
                .strip_prefix("tcp:")
                .unwrap_or_default()
                .to_string();
            let requests = &self.requests[p];
            let log = tr.span(&format!("loadgen.{phase}"), || {
                open_loop(&addr, requests, *rate)
            });
            let (pool, stats) = tr.span("serve.shutdown_and_join", || handle.shutdown_and_join());
            self.state = Some((state, pool));
            let log = log?;

            let mut counts = [0u64; 4];
            for x in &log {
                let v: Value = serde_json::from_str(x.body.trim())
                    .map_err(|e| format!("response to request {} is not JSON: {e:?}", x.id))?;
                let verdict = v.get("verdict").and_then(Value::as_str).unwrap_or("");
                let slot = match verdict {
                    "served" => 0,
                    "degraded" => 1,
                    "shed" => 2,
                    "error" => 3,
                    _ => {
                        out.problems
                            .push(format!("request {}: unknown verdict {verdict:?}", x.id));
                        3
                    }
                };
                counts[slot] += 1;
                samples.push(("loadgen.late_ms".into(), 1e3 * (x.sent - x.due)));
                if slot > 1 {
                    continue;
                }
                if v.get("id").and_then(Value::as_u64) != Some(x.id) {
                    out.problems
                        .push(format!("response id mismatch on request {}", x.id));
                }
                let seeds = v.get("seeds").and_then(Value::as_array).map_or(0, Vec::len);
                if seeds == 0 || seeds as u64 > x.budget {
                    out.problems.push(format!(
                        "request {}: {seeds} seeds for budget {}",
                        x.id, x.budget
                    ));
                }
                let quality = v.get("quality").and_then(Value::as_f64).unwrap_or(f64::NAN);
                if !(0.0..=1.0).contains(&quality) {
                    out.problems.push(format!(
                        "request {}: quality {quality} outside [0, 1]",
                        x.id
                    ));
                }
                out.qualities.push(quality);
                let latency = 1e3 * latency_from_due(x.due, x.received);
                samples.push((format!("serve.latency_ms.{phase}"), latency));
                if let Some(runtime) = v.get("runtime").and_then(Value::as_f64) {
                    samples.push(("serve.service_ms".into(), 1e3 * runtime));
                    samples.push(("serve.wait_ms".into(), latency - 1e3 * runtime));
                }
            }
            let server = [stats.served, stats.degraded, stats.shed, stats.errors];
            if counts != server || stats.requests != log.len() as u64 {
                out.problems.push(format!(
                    "{phase}: client saw {counts:?} of {} requests, server counted {server:?} of {}",
                    log.len(),
                    stats.requests
                ));
            }
            // Admission is a pure function of how many requests came
            // before, so the verdict counts, not which request got which
            // verdict, repeat from unit to unit.
            for (slot, name) in ["served", "degraded", "shed", "errors"].iter().enumerate() {
                out.digest = fnv(out.digest, counts[slot]);
                out.layer
                    .insert(format!("serve.{name}.{phase}"), counts[slot] as f64);
            }
            out.attempted += log.len() as u64;
            out.clean += counts[0];
            out.failed += counts[2] + counts[3];
        }
        for (stem, x) in samples {
            out.samples.entry(stem).or_default().push(x);
        }
        Ok(out)
    }
}
