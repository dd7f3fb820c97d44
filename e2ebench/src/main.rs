//! End-to-end benchmark of the declarative scheduler.
//!
//! Drives fixed-load workloads through the public `session` API on each
//! deployment's default `SchedulerConfig`, checks the outputs, and prints
//! end-to-end and per-layer metrics by name with their units.  The last
//! line of standard output is one JSON object:
//! `{"correct", "attempted", "failed", "metrics"}`.
//!
//! ```text
//! e2ebench --workload <name|all> --seed <n> --seconds <s> --trace <0|1>
//!          [--out <dir>] [--repro <finding>]
//! ```
//!
//! See `README.md` next to this crate for the workloads, the metrics and
//! the findings.

mod checks;
mod drive;
mod host;
mod json;
mod spans;
mod stats;
mod watchdog;
mod workloads;

use drive::Outcome;
use session::{obs::TraceConfig, Report};
use stats::{median, peak_rss_bytes, pow2_quantile, ratio};
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::{Duration, Instant};
use watchdog::{Phase, Progress, Watchdog};
use workloads::Workload;

/// Set-up is timed over at least this many builds ...
const SETUP_MIN_BUILDS: usize = 3;
/// ... and, while builds are fast, until this much time was spent ...
const SETUP_MIN_TIME: Duration = Duration::from_secs(2);
/// ... but never more builds than this.
const SETUP_MAX_BUILDS: usize = 400;

/// Flight-recorder ring capacity per recording thread in the traced run:
/// large enough that the sampled transactions of a run are never dropped.
const TRACE_RING: usize = 1 << 21;

struct Args {
    workloads: Vec<Workload>,
    seed: u64,
    seconds: f64,
    trace: bool,
    out: PathBuf,
}

fn usage(message: &str) -> ExitCode {
    eprintln!("e2ebench: {message}");
    eprintln!(
        "usage: e2ebench --workload <name|all> --seed <n> --seconds <s> --trace <0|1> \
         [--out <dir>] [--repro <stall-swapped-ids|sharded-overload>]"
    );
    let names: Vec<&str> = workloads::all().iter().map(|w| w.name).collect();
    eprintln!("workloads: {}", names.join(", "));
    ExitCode::from(2)
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workloads: Vec::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
        out: PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out"),
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" if value == "all" => args.workloads = workloads::all(),
            "--workload" => {
                args.workloads =
                    vec![workloads::by_name(&value).ok_or(format!("unknown workload {value}"))?]
            }
            "--repro" => {
                args.workloads =
                    vec![workloads::repro(&value).ok_or(format!("unknown finding {value}"))?]
            }
            "--seed" => args.seed = value.parse().map_err(|_| format!("bad seed {value}"))?,
            "--seconds" => {
                args.seconds = value
                    .parse()
                    .ok()
                    .filter(|s: &f64| (0.1..=120.0).contains(s))
                    .ok_or(format!("--seconds must be within 0.1..=120, got {value}"))?
            }
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, got {value}")),
                }
            }
            "--out" => args.out = PathBuf::from(value),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if args.workloads.is_empty() {
        return Err("--workload is required".to_string());
    }
    Ok(args)
}

/// One named metric with its unit.
struct Metric {
    name: &'static str,
    value: f64,
    unit: &'static str,
}

fn metric(name: &'static str, value: f64, unit: &'static str) -> Metric {
    Metric { name, value, unit }
}

/// What one load run produced.
struct Measured {
    outcome: Outcome,
    /// Per slice of the window: throughput (1/s), p50 and p99 latency (µs).
    slice_tps: Vec<f64>,
    slice_p50_us: Vec<f64>,
    slice_p99_us: Vec<f64>,
    report: Report,
    registry: std::sync::Arc<session::obs::Registry>,
    shutdown: Duration,
    violations: Vec<String>,
}

/// Build, drive, shut down and check one deployment.
fn measure(
    workload: &Workload,
    scheduler: session::Scheduler,
    args: &Args,
    span_one_in: Option<u64>,
    progress: &Progress,
) -> (Measured, Instant) {
    let registry = scheduler.registry();
    let mut session = scheduler.connect();
    let mut outcome = drive::run(
        workload,
        &mut session,
        args.seed,
        args.seconds,
        span_one_in,
        progress,
    );
    let completions = &mut outcome.completions;
    let slice_q = completions
        .latency
        .slice_quantiles_us(&completions.slice_starts, &[0.5, 0.99]);
    completions.latency.sort();
    let slice_s = outcome.slice.as_secs_f64();
    let slice_tps = completions
        .slice_commits
        .iter()
        .map(|&n| n as f64 / slice_s)
        .collect();
    drop(session);
    progress.phase(Phase::Shutdown, None);
    let shutdown_start = Instant::now();
    let report = scheduler.shutdown();
    let shutdown = shutdown_start.elapsed();
    progress.phase(Phase::Idle, None);
    let violations = checks::check(workload, &outcome, &report);
    (
        Measured {
            outcome,
            slice_tps,
            slice_p50_us: slice_q.iter().map(|q| q[0]).collect(),
            slice_p99_us: slice_q.iter().map(|q| q[1]).collect(),
            report,
            registry,
            shutdown,
            violations,
        },
        shutdown_start,
    )
}

/// The end-to-end metrics.  Throughput and latency are medians over the
/// window's slices.
fn end_to_end(m: &Measured, setup_s: f64) -> Vec<Metric> {
    let o = &m.outcome;
    let c = &o.completions;
    let grown = match (o.submits.window_start, o.submits.window_end) {
        (Some(start), Some(end)) => end.rss_bytes as f64 - start.rss_bytes as f64,
        _ => 0.0,
    };
    vec![
        metric("throughput_tps", median(&m.slice_tps), "1/s"),
        metric("latency_p50_ms", median(&m.slice_p50_us) / 1e3, "ms"),
        metric("latency_p99_ms", median(&m.slice_p99_us) / 1e3, "ms"),
        metric("setup_s", setup_s, "s"),
        metric(
            "retained_bytes_per_txn",
            ratio(grown, c.committed_in_window as f64),
            "B",
        ),
    ]
}

fn per_layer(m: &Measured) -> Vec<Metric> {
    let o = &m.outcome;
    let r = &m.report;
    let s = &r.scheduler;
    let wall_s = r.wall.as_secs_f64();
    let wall_us = wall_s * 1e6;
    let attempted = o.submits.submitted as f64;
    let hist = |name: &str| m.registry.histogram(name);
    let lane_prepare = hist("lane.prepare_us");
    let lane_commit = hist("lane.commit_us");
    let router_batch = hist("router.batch_size");
    let server = r.server.unwrap_or_default();
    let (retries_per_escalation, busy_max, imbalance, peak_pending) = match &r.sharded {
        Some(d) => {
            let busy: Vec<f64> = d.reports.iter().map(|s| s.busy_us as f64).collect();
            let max = busy.iter().copied().fold(0.0, f64::max);
            let mean = busy.iter().sum::<f64>() / busy.len().max(1) as f64;
            (
                ratio(d.escalation.retries as f64, d.escalation.escalations as f64),
                max,
                ratio(max, mean),
                d.peak_pending as f64,
            )
        }
        None => (0.0, 0.0, 0.0, 0.0),
    };
    let steal_frac = match (o.submits.window_start, o.submits.window_end) {
        (Some(start), Some(end)) => ratio(
            end.steal_ticks.saturating_sub(start.steal_ticks) as f64,
            end.cpu_ticks.saturating_sub(start.cpu_ticks) as f64,
        ),
        _ => 0.0,
    };
    let log_bytes = (r.executed_log.len() * std::mem::size_of::<declsched::Request>()) as f64;
    vec![
        metric("session.submit_us", o.submits.submit.mean_us(), "us"),
        metric(
            "session.submit_us_p99",
            o.submits.submit.quantile_us(0.99),
            "us",
        ),
        metric("session.shutdown_s", m.shutdown.as_secs_f64(), "s"),
        metric("declsched.round_us", s.avg_round_micros(), "us"),
        metric(
            "declsched.deferred_frac",
            ratio(s.requests_deferred as f64, s.requests_submitted as f64),
            "ratio",
        ),
        metric(
            "declsched.busy_frac",
            ratio(s.round_micros as f64, wall_us),
            "ratio",
        ),
        metric(
            "declsched.rounds_per_s",
            ratio(s.rounds as f64, wall_s),
            "1/s",
        ),
        metric("declsched.batch_size", s.avg_batch_size(), "count"),
        metric(
            "declsched.delta_rows_per_round",
            ratio(s.delta_rows as f64, s.rounds as f64),
            "count",
        ),
        metric("declsched.rule_eval_us", s.avg_rule_eval_micros(), "us"),
        metric(
            "declsched.skipped_frac",
            ratio(
                s.rounds_skipped as f64,
                (s.rounds + s.rounds_skipped) as f64,
            ),
            "ratio",
        ),
        metric(
            "txnstore.executed_per_s",
            ratio(r.dispatch.executed as f64, wall_s),
            "1/s",
        ),
        metric(
            "txnstore.lock_waits_per_txn",
            ratio(server.lock_waits as f64, r.transactions as f64),
            "count",
        ),
        metric(
            "txnstore.deadlock_aborts",
            server.deadlock_aborts as f64,
            "count",
        ),
        metric(
            "shard.lane.prepare_us_p50",
            pow2_quantile(&lane_prepare.buckets(), 0.5),
            "us",
        ),
        metric(
            "shard.lane.commit_us_p50",
            pow2_quantile(&lane_commit.buckets(), 0.5),
            "us",
        ),
        metric(
            "shard.lane.retries_per_escalation",
            retries_per_escalation,
            "count",
        ),
        metric(
            "shard.router.batch_size",
            ratio(router_batch.sum() as f64, router_batch.count() as f64),
            "count",
        ),
        metric("shard.busy_frac_max", ratio(busy_max, wall_us), "ratio"),
        metric("shard.imbalance", imbalance, "ratio"),
        metric("shard.peak_pending", peak_pending, "count"),
        metric(
            "mem.executed_log_per_txn",
            ratio(log_bytes, r.transactions as f64),
            "B",
        ),
        metric(
            "mem.peak_rss_mb",
            peak_rss_bytes() as f64 / (1024.0 * 1024.0),
            "MB",
        ),
        metric(
            "load.lateness_p99_ms",
            o.submits.lateness.quantile_us(0.99) / 1e3,
            "ms",
        ),
        metric(
            "load.in_flight_peak",
            o.submits.in_flight_peak as f64,
            "count",
        ),
        metric("load.steal_frac", steal_frac, "ratio"),
        metric(
            "load.latency_p999_ms",
            o.completions.latency.quantile_us(0.999) / 1e3,
            "ms",
        ),
        metric("load.samples", o.completions.latency.len() as f64, "count"),
        metric(
            "failed_frac",
            ratio(o.completions.failed as f64, attempted),
            "ratio",
        ),
    ]
}

/// The result of one workload run.
struct RunResult {
    workload: &'static str,
    correct: bool,
    attempted: u64,
    failed: u64,
    end_to_end: Vec<Metric>,
    per_layer: Vec<Metric>,
}

fn setup(workload: &Workload, progress: &Progress) -> (session::Scheduler, f64) {
    progress.phase(Phase::Setup, None);
    let mut builds = Vec::new();
    let started = Instant::now();
    loop {
        let build_start = Instant::now();
        let scheduler = workload
            .builder()
            .build()
            .expect("the default deployment starts");
        builds.push(build_start.elapsed());
        progress.tick();
        let enough = builds.len() >= SETUP_MAX_BUILDS
            || (builds.len() >= SETUP_MIN_BUILDS && started.elapsed() >= SETUP_MIN_TIME);
        if enough {
            let secs: Vec<f64> = builds.iter().map(Duration::as_secs_f64).collect();
            return (scheduler, median(&secs));
        }
        drop(scheduler.shutdown());
        progress.tick();
    }
}

fn run_workload(workload: &Workload, args: &Args, progress: &Progress) -> RunResult {
    progress.begin_run(workload.name);
    host::warm_cpus();
    let (scheduler, setup_s) = setup(workload, progress);
    let (untraced, _) = measure(workload, scheduler, args, None, progress);
    let mut result = RunResult {
        workload: workload.name,
        correct: untraced.violations.is_empty(),
        attempted: untraced.outcome.submits.submitted,
        failed: untraced.outcome.completions.failed,
        end_to_end: end_to_end(&untraced, setup_s),
        per_layer: per_layer(&untraced),
    };
    report_violations(workload.name, "untraced", &untraced);
    if args.trace {
        let traced = traced_run(workload, args, progress, &untraced, &result.end_to_end);
        result.correct &= traced.correct;
        result.attempted += traced.attempted;
        result.failed += traced.failed;
        result.per_layer.extend(traced.per_layer);
    }
    result
}

fn report_violations(name: &str, run: &str, m: &Measured) {
    let show = |v: &[f64], scale: f64| {
        let v: Vec<String> = v.iter().map(|x| format!("{:.3}", x * scale)).collect();
        v.join(" ")
    };
    println!(
        "{name} ({run}) per {:.2} s slice: throughput_tps [{}] latency_p50_ms [{}] \
         latency_p99_ms [{}]",
        m.outcome.slice.as_secs_f64(),
        show(&m.slice_tps, 1.0),
        show(&m.slice_p50_us, 1e-3),
        show(&m.slice_p99_us, 1e-3)
    );
    for violation in &m.violations {
        println!("CHECK FAILED {name} ({run}): {violation}");
    }
    let unrecorded = m.outcome.completions.latency.overflow();
    if unrecorded > 0 {
        println!("{name} ({run}): {unrecorded} latency samples past the buffer were not recorded");
    }
    if let Some(error) = &m.outcome.completions.first_error {
        println!(
            "{name} ({run}): {} transactions failed; first error: {error}",
            m.outcome.completions.failed
        );
    }
}

/// A run with the flight recorder on, never used for end-to-end numbers.
fn traced_run(
    workload: &Workload,
    args: &Args,
    progress: &Progress,
    untraced: &Measured,
    untraced_e2e: &[Metric],
) -> RunResult {
    progress.phase(Phase::Setup, None);
    let epoch = Instant::now();
    let scheduler = workload
        .builder()
        .trace(TraceConfig::sampled(workload.trace_one_in, TRACE_RING))
        .build()
        .expect("the traced deployment starts");
    let build_end = Instant::now();
    let (traced, shutdown_start) = measure(
        workload,
        scheduler,
        args,
        Some(workload.trace_one_in),
        progress,
    );
    report_violations(workload.name, "traced", &traced);
    let marks = spans::RunMarks {
        epoch,
        build_end,
        load_start: traced.outcome.load_start,
        load_end: traced.outcome.load_end,
        shutdown_start,
        shutdown_end: shutdown_start + traced.shutdown,
    };
    let (span_list, stats) =
        spans::build(&marks, &traced.outcome.completions.spans, &traced.report);
    let traced_e2e = end_to_end(&traced, 0.0);
    let overhead = 1.0
        - ratio(
            find(&traced_e2e, "throughput_tps"),
            find(untraced_e2e, "throughput_tps"),
        );
    let mut comparison: Vec<(&str, f64, f64)> =
        ["throughput_tps", "latency_p50_ms", "latency_p99_ms"]
            .into_iter()
            .map(|name| (name, find(untraced_e2e, name), find(&traced_e2e, name)))
            .collect();
    comparison.push((
        "session.submit_us",
        untraced.outcome.submits.submit.mean_us(),
        traced.outcome.submits.submit.mean_us(),
    ));
    let mut correct = traced.violations.is_empty();
    let stem = format!("{}-seed{}", workload.name, args.seed);
    let written = std::fs::create_dir_all(&args.out)
        .and_then(|()| {
            spans::write_jsonl(&args.out.join(format!("{stem}.spans.jsonl")), &span_list)
        })
        .and_then(|()| {
            let summary = summary_json(
                workload,
                args.seed,
                &span_list,
                stats.clock_offset_us,
                &comparison,
            );
            std::fs::write(args.out.join(format!("{stem}.summary.json")), summary)
        });
    if let Err(e) = written {
        println!(
            "CHECK FAILED {}: writing spans to {}: {e}",
            workload.name,
            args.out.display()
        );
        correct = false;
    } else {
        println!(
            "{}: {} spans written to {}",
            workload.name,
            span_list.len(),
            args.out.join(format!("{stem}.spans.jsonl")).display()
        );
    }
    RunResult {
        workload: workload.name,
        correct,
        attempted: traced.outcome.submits.submitted,
        failed: traced.outcome.completions.failed,
        end_to_end: Vec::new(),
        per_layer: vec![
            metric("trace.queue_us_p50", stats.queue_us_p50, "us"),
            metric("trace.queue_us_p99", stats.queue_us_p99, "us"),
            metric("trace.execute_us_p50", stats.execute_us_p50, "us"),
            metric("trace.end_to_end_us_p50", stats.end_to_end_us_p50, "us"),
            metric("trace.outside_us", stats.outside_us, "us"),
            metric("trace.dropped", stats.dropped as f64, "count"),
            metric("trace.overhead_frac", overhead, "ratio"),
        ],
    }
}

/// The traced run's summary: self time per span name, and each
/// `(metric, untraced, traced)` of `comparison` with their difference.
fn summary_json(
    workload: &Workload,
    seed: u64,
    span_list: &[spans::Span],
    clock_offset_us: f64,
    comparison: &[(&str, f64, f64)],
) -> String {
    let mut out = format!(
        "{{\n  \"workload\": {},\n  \"seed\": {},\n  \"sample_one_in\": {},\n  \"spans\": {},\n  \
         \"clock_offset_us\": {},\n  \"self_time_us\": {{",
        json::string(workload.name),
        seed,
        workload.trace_one_in,
        span_list.len(),
        json::number(clock_offset_us)
    );
    let times = spans::self_times(span_list);
    let rows: Vec<String> = times
        .iter()
        .map(|(name, (count, mean, self_mean))| {
            format!(
                "\n    {}: {{\"count\": {count}, \"mean_us\": {}, \"self_mean_us\": {}}}",
                json::string(name),
                json::number(*mean),
                json::number(*self_mean)
            )
        })
        .collect();
    out.push_str(&rows.join(","));
    out.push_str("\n  },\n  \"traced_vs_untraced\": {");
    let rows: Vec<String> = comparison
        .iter()
        .map(|(name, u, t)| {
            format!(
                "\n    {}: {{\"untraced\": {}, \"traced\": {}, \"difference\": {}}}",
                json::string(name),
                json::number(*u),
                json::number(*t),
                json::number(t - u)
            )
        })
        .collect();
    out.push_str(&rows.join(","));
    out.push_str("\n  }\n}\n");
    out
}

fn find(metrics: &[Metric], name: &str) -> f64 {
    metrics
        .iter()
        .find(|m| m.name == name)
        .map_or(0.0, |m| m.value)
}

fn print_metrics(result: &RunResult) {
    for (section, metrics) in [
        ("end-to-end", &result.end_to_end),
        ("per-layer", &result.per_layer),
    ] {
        if metrics.is_empty() {
            continue;
        }
        println!("{} {section}:", result.workload);
        for m in metrics.iter() {
            println!("  {:<36} {:>16.4} {}", m.name, m.value, m.unit);
        }
    }
}

fn result_json(
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: &[(String, &Metric)],
) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, m)| {
            format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                json::string(name),
                json::number(m.value),
                json::string(m.unit)
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        attempted.max(1),
        body.join(", ")
    )
}

fn main() -> ExitCode {
    host::pin_mmap_threshold();
    let args = match parse_args() {
        Ok(args) => args,
        Err(message) => return usage(&message),
    };
    println!(
        "e2ebench: seed {} window {} s trace {} on {} cores",
        args.seed,
        args.seconds,
        u8::from(args.trace),
        std::thread::available_parallelism().map_or(0, usize::from)
    );
    let watchdog = Watchdog::start();
    let progress = watchdog.progress();
    let results: Vec<RunResult> = args
        .workloads
        .iter()
        .map(|workload| {
            let result = run_workload(workload, &args, &progress);
            print_metrics(&result);
            result
        })
        .collect();
    drop(watchdog);

    let single = results.len() == 1;
    let metrics: Vec<(String, &Metric)> = results
        .iter()
        .flat_map(|r| {
            let chosen = if args.trace {
                &r.per_layer
            } else {
                &r.end_to_end
            };
            chosen.iter().map(move |m| {
                let name = if single {
                    m.name.to_string()
                } else {
                    format!("{}/{}", r.workload, m.name)
                };
                (name, m)
            })
        })
        .collect();
    let correct = results.iter().all(|r| r.correct);
    let attempted = results.iter().map(|r| r.attempted).sum();
    let failed = results.iter().map(|r| r.failed).sum();
    println!("{}", result_json(correct, attempted, failed, &metrics));
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
