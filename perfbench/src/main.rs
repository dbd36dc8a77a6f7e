//! The repository benchmark: five paper pipelines, end-to-end metrics with
//! tracing off, and a per-layer wall-clock table with tracing on.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Run it from the repository root. It uses at most two threads, fewer if
//! `MCPB_THREADS` says so. Each run repeats the workload's fixed
//! unit of work, each time after setting the workload up afresh, until
//! `--seconds` have passed, and reports medians.
//! The last line of standard output is the JSON result. See `README.md`.

mod drl;
mod large;
mod serve;
mod summary;
mod sweeps;
mod trace;
mod workload;

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;
use summary::{median, percentile, result_json, LayerTable, Metric};
use trace::Tracer;
use workload::{Layer, UnitOut, Workload};

/// `BENCHMARK.json`, read at build time. It names the workloads and every
/// metric with its unit, so the result line carries exactly those.
const BENCHMARK_JSON: &str = include_str!("../../BENCHMARK.json");

/// The workload names and the metric lists of `BENCHMARK.json`, each metric
/// as `(name, unit)`.
struct Spec {
    workloads: Vec<String>,
    end_to_end: Vec<(String, String)>,
    per_layer: Vec<(String, String)>,
}

impl Spec {
    fn parse(text: &str) -> Result<Spec, String> {
        let doc: serde::Value =
            serde_json::from_str(text).map_err(|e| format!("BENCHMARK.json: {e}"))?;
        let list = |key: &str| {
            doc.get(key)
                .and_then(serde::Value::as_array)
                .ok_or(format!("BENCHMARK.json has no {key} list"))
        };
        let field = |entry: &serde::Value, f: &str| {
            entry
                .get(f)
                .and_then(serde::Value::as_str)
                .map(str::to_string)
                .ok_or(format!("BENCHMARK.json: an entry has no {f}"))
        };
        let metrics = |key: &str| -> Result<Vec<(String, String)>, String> {
            list(key)?
                .iter()
                .map(|m| Ok((field(m, "name")?, field(m, "unit")?)))
                .collect()
        };
        Ok(Spec {
            workloads: list("workloads")?
                .iter()
                .map(|w| field(w, "name"))
                .collect::<Result<_, _>>()?,
            end_to_end: metrics("end_to_end")?,
            per_layer: metrics("per_layer")?,
        })
    }
}

/// Set-ups are spread over the run, interleaved with the units, so their
/// median samples the same host conditions as the units do. Before each
/// unit the workload is set up as many times as fit in `SETUP_SLICE`
/// seconds, at least once and at most `SETUP_REPS_MAX` times; a run makes
/// at least `SETUP_REPS_MIN` timed set-ups.
const SETUP_SLICE: f64 = 0.2;
const SETUP_REPS_MAX: usize = 50;
const SETUP_REPS_MIN: usize = 3;

/// Tail percentile of pooled timing samples: the highest that keeps ten
/// samples beyond it over the units of one run.
const TAIL: f64 = 0.9;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    threads: usize,
}

fn parse_args(spec: &Spec) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let num = || {
            value
                .parse::<u64>()
                .map_err(|_| format!("{flag}: {value:?} is not a whole number"))
        };
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(num()?),
            "--seconds" => seconds = Some(num()? as f64),
            "--trace" => trace = Some(num()? == 1),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !spec.workloads.contains(&workload) {
        return Err(format!(
            "unknown workload {workload:?}; one of {:?}",
            spec.workloads
        ));
    }
    Ok(Args {
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
        // The `mcpb-par` pool's own choice (`MCPB_THREADS`, else the
        // available parallelism), capped at two.
        threads: mcpb_par::effective_threads().min(2),
    })
}

fn make(args: &Args, work_dir: PathBuf) -> Result<Box<dyn Workload>, String> {
    use sweeps::{Problem, Sweep};
    Ok(match args.workload.as_str() {
        "mcp_sweep" => Box::new(Sweep::new(Problem::Mcp, args.seed, args.threads, work_dir)?),
        "im_sweep" => Box::new(Sweep::new(Problem::Im, args.seed, args.threads, work_dir)?),
        "drl_train" => Box::new(drl::DrlTrain::new(args.seed)),
        "serve_open" => Box::new(serve::ServeOpen::new(args.seed)),
        "large_rr" => Box::new(large::LargeRr::new(args.seed, work_dir)?),
        other => return Err(format!("no workload {other:?} in the benchmark")),
    })
}

/// The process's resident-set high-water mark, in MiB: `VmHWM` of
/// `/proc/self/status`. Unlike `getrusage`, it starts afresh at `exec`, so a
/// launcher's own footprint (such as `cargo run`) does not leak into it.
fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("reading /proc/self/status: {e}"))?;
    let kib = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .ok_or("no VmHWM line in /proc/self/status")?;
    Ok(kib / 1024.0)
}

/// Lowers the high-water mark to the current resident set (Linux
/// `clear_refs` code 5), so [`peak_rss_mb`] then reads the peak of what
/// runs next.
fn reset_peak_rss() -> Result<(), String> {
    std::fs::write("/proc/self/clear_refs", "5")
        .map_err(|e| format!("resetting the RSS high-water mark: {e}"))
}

/// Sums a table's rows by metric: each `graph.load*`, `serve.*` and
/// `journal.read` call has a per-layer metric of its own.
fn span_metrics(table: &LayerTable, layer: &mut Layer) {
    for (name, secs) in &table.rows {
        let metric = match name.as_str() {
            "graph.load" | "graph.subsample" | "graph.weights" => "graph.load_s",
            "graph.load_cached" => "graph.cache_load_s",
            "graph.validate" => "graph.validate_s",
            "serve.preload" => "serve.preload_s",
            "serve.serve_listener" => "serve.listener_s",
            "serve.shutdown_and_join" => "serve.shutdown_s",
            "journal.read" => "journal.read_s",
            _ => continue,
        };
        *layer.entry(metric.to_string()).or_default() += secs;
    }
}

/// Median of each key over `layers`.
fn median_layer(layers: &[Layer]) -> Layer {
    let mut keys: Vec<&String> = layers.iter().flat_map(|l| l.keys()).collect();
    keys.sort();
    keys.dedup();
    keys.into_iter()
        .map(|k| {
            let xs: Vec<f64> = layers
                .iter()
                .map(|l| l.get(k).copied().unwrap_or(0.0))
                .collect();
            (k.clone(), median(&xs))
        })
        .collect()
}

/// Index of the median of `xs`, to print a representative layer table.
fn median_index(xs: &[f64]) -> usize {
    let mut idx: Vec<usize> = (0..xs.len()).collect();
    idx.sort_by(|&a, &b| xs[a].total_cmp(&xs[b]));
    idx[idx.len() / 2]
}

/// Sets `w` up once, returning the wall time and its layer table.
fn set_up(
    w: &mut dyn Workload,
    tr: &mut Tracer,
    traced: bool,
) -> Result<(f64, LayerTable), String> {
    tr.begin(traced);
    let t0 = Instant::now();
    w.setup(tr)?;
    let wall = t0.elapsed().as_secs_f64();
    Ok((wall, LayerTable::from_spans(tr.spans(), wall)))
}

struct Unit {
    traced: bool,
    wall: f64,
    /// Memory high-water mark of the unit and the set-ups before it, MiB.
    peak_mb: f64,
    out: UnitOut,
    table: Option<LayerTable>,
}

fn run(spec: &Spec, args: &Args) -> Result<(bool, u64, u64, BTreeMap<String, Metric>), String> {
    mcpb_par::set_thread_override(Some(args.threads));
    let work_dir = PathBuf::from(".bench_work");
    std::fs::create_dir_all(&work_dir).map_err(|e| format!("creating .bench_work: {e}"))?;
    let mut w = make(args, work_dir)?;
    println!(
        "workload {} seed {} threads {} trace {}",
        args.workload, args.seed, args.threads, args.trace as u8
    );
    w.warm()?;

    let mut tr = Tracer::new(args.trace);
    let mut setup_walls = Vec::new();
    let mut setup_tables = Vec::new();
    // The first set-up reads cold files and the first unit fills caches
    // and grows the allocator's heap. Neither is timed; the unit is
    // checked like every other.
    let (first, _) = set_up(w.as_mut(), &mut tr, args.trace)?;
    let reps = ((SETUP_SLICE / first).floor() as usize).clamp(1, SETUP_REPS_MAX);
    tr.begin(false);
    let warmup = w.unit(&mut tr)?;
    let mut units: Vec<Unit> = Vec::new();
    let start = Instant::now();
    loop {
        // How much memory two sweep lanes hold at once depends on how
        // their cells interleave, so one run's mark varied by a fifth
        // between runs; the median over units varies less. Resetting also
        // leaves the warm-up, and `large_rr`'s cache build, out of it.
        // What the allocator keeps from earlier units still differs from
        // run to run: `im_sweep` settles near 52 MB in some runs and near
        // 59 MB in others.
        reset_peak_rss()?;
        for _ in 0..reps {
            let (wall, table) = set_up(w.as_mut(), &mut tr, args.trace)?;
            setup_walls.push(wall);
            setup_tables.push(table);
        }
        // With tracing on, traced and untraced units alternate so the
        // difference of their medians is the tracing overhead.
        let traced = args.trace && units.len() % 2 == 1;
        tr.begin(traced);
        let t0 = Instant::now();
        let out = w.unit(&mut tr)?;
        let wall = t0.elapsed().as_secs_f64();
        let table = traced.then(|| LayerTable::from_spans(tr.spans(), wall));
        units.push(Unit {
            traced,
            wall,
            peak_mb: peak_rss_mb()?,
            out,
            table,
        });
        let enough = setup_walls.len() >= SETUP_REPS_MIN && (!args.trace || units.len() >= 2);
        if enough && start.elapsed().as_secs_f64() >= args.seconds {
            break;
        }
    }

    let mut problems = warmup.problems.clone();
    problems.extend(units.iter().flat_map(|u| u.out.problems.clone()));
    if units.iter().any(|u| u.out.digest != warmup.digest) {
        problems.push("units answered the same inputs differently".to_string());
    }
    let attempted: u64 = units.iter().map(|u| u.out.attempted).sum();
    let failed: u64 = units.iter().map(|u| u.out.failed).sum();
    let clean: u64 = units.iter().map(|u| u.out.clean).sum();
    // The median of the units' mean quality. Units that answer the same
    // inputs alike have bit-identical means, so `quality` does not depend
    // on how many units fit in the run, and thus on the thread count.
    let unit_quality: Vec<f64> = units
        .iter()
        .filter(|u| !u.out.qualities.is_empty())
        .map(|u| u.out.qualities.iter().sum::<f64>() / u.out.qualities.len() as f64)
        .collect();
    let mut pooled: BTreeMap<String, Vec<f64>> = BTreeMap::new();
    for u in &units {
        for (stem, xs) in &u.out.samples {
            pooled.entry(stem.clone()).or_default().extend(xs);
        }
    }
    if unit_quality.len() != units.len() || attempted == 0 {
        problems.push("a unit gave no answers to score".to_string());
    }

    let mut metrics = BTreeMap::new();
    if args.trace {
        let traced: Vec<&Unit> = units.iter().filter(|u| u.traced).collect();
        let walls = |t: bool| -> Vec<f64> {
            units
                .iter()
                .filter(|u| u.traced == t)
                .map(|u| u.wall)
                .collect()
        };
        let twalls = walls(true);
        let (traced_wall, plain_wall) = (median(&twalls), median(&walls(false)));
        let mut layers: Vec<Layer> = traced.iter().map(|u| u.out.layer.clone()).collect();
        for (l, u) in layers.iter_mut().zip(&traced) {
            let table = u.table.as_ref().expect("traced units carry a table");
            span_metrics(table, l);
            l.insert("unattributed_s".into(), table.unattributed);
        }
        let setup_layers: Vec<Layer> = setup_tables
            .iter()
            .map(|t| {
                let mut l = Layer::new();
                span_metrics(t, &mut l);
                l
            })
            .collect();
        let mut layer = median_layer(&layers);
        for (k, v) in median_layer(&setup_layers) {
            *layer.entry(k).or_default() += v;
        }
        for (stem, xs) in pooled {
            for (q, name) in [(0.5, "p50"), (TAIL, "p90")] {
                let p = percentile(&xs, q).ok_or_else(|| {
                    format!(
                        "{stem}: {} samples leave fewer than ten beyond {name}",
                        xs.len()
                    )
                })?;
                layer.insert(format!("{stem}.{name}"), p.value);
            }
            layer.insert(format!("{stem}.samples"), xs.len() as f64);
        }
        layer.insert("graph.arcs".into(), w.arcs() as f64);
        layer.insert("trace.wall_s".into(), traced_wall);
        layer.insert("trace.overhead_s".into(), traced_wall - plain_wall);

        let s = median_index(&setup_walls);
        println!(
            "set-up layer table (median of {} set-ups):",
            setup_walls.len()
        );
        print!("{}", setup_tables[s].render());
        let t = traced[median_index(&twalls)]
            .table
            .as_ref()
            .expect("traced units carry a table");
        println!(
            "unit layer table (median of {} traced units):",
            traced.len()
        );
        print!("{}", t.render());
        for (name, unit) in &spec.per_layer {
            let value = layer.remove(name).unwrap_or(0.0);
            let unit = unit.clone();
            metrics.insert(name.clone(), Metric { value, unit });
        }
        if let Some(extra) = layer.keys().next() {
            return Err(format!("per-layer value {extra} is not in BENCHMARK.json"));
        }
    } else {
        let walls: Vec<f64> = units.iter().map(|u| u.wall).collect();
        let values = BTreeMap::from([
            ("setup_s", median(&setup_walls)),
            ("wall_s", median(&walls)),
            (
                "peak_rss_mb",
                median(&units.iter().map(|u| u.peak_mb).collect::<Vec<_>>()),
            ),
            (
                "quality",
                if unit_quality.is_empty() {
                    0.0
                } else {
                    median(&unit_quality)
                },
            ),
            ("served_share", clean as f64 / attempted.max(1) as f64),
        ]);
        for (name, unit) in &spec.end_to_end {
            let value = *values
                .get(name.as_str())
                .ok_or(format!("no end-to-end metric {name} in the benchmark"))?;
            let unit = unit.clone();
            metrics.insert(name.clone(), Metric { value, unit });
        }
    }
    println!(
        "{} units in {:.2} s, {attempted} operations attempted, {failed} failed",
        units.len(),
        start.elapsed().as_secs_f64()
    );
    let walls: Vec<String> = units.iter().map(|u| format!("{:.3}", u.wall)).collect();
    println!("unit walls (s): {}", walls.join(" "));
    let peaks: Vec<String> = units.iter().map(|u| format!("{:.1}", u.peak_mb)).collect();
    println!("unit peaks (MB): {}", peaks.join(" "));
    for (name, m) in &metrics {
        println!("  {name:<28} {:>14.6} {}", m.value, m.unit);
    }
    for p in &problems {
        println!("CHECK FAILED: {p}");
    }
    Ok((problems.is_empty(), attempted, failed, metrics))
}

fn main() -> ExitCode {
    let spec = match Spec::parse(BENCHMARK_JSON) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::FAILURE;
        }
    };
    let args = match parse_args(&spec) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
                spec.workloads.join("|")
            );
            return ExitCode::from(2);
        }
    };
    match run(&spec, &args).and_then(|(correct, attempted, failed, metrics)| {
        result_json(correct, attempted, failed, &metrics)
    }) {
        Ok(line) => {
            println!("{line}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every name and unit in `BENCHMARK.json` is one the result line may
    /// carry.
    #[test]
    fn benchmark_json_names_are_legal() {
        let spec = Spec::parse(BENCHMARK_JSON).expect("BENCHMARK.json parses");
        assert!(!spec.workloads.is_empty() && !spec.end_to_end.is_empty());
        for name in &spec.workloads {
            assert!(summary::valid_metric_name(name), "{name}");
        }
        for (name, unit) in spec.end_to_end.iter().chain(&spec.per_layer) {
            assert!(summary::valid_metric_name(name), "{name}");
            assert!(summary::valid_unit(unit), "{unit}");
        }
    }
}
