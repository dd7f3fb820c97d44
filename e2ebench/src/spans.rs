//! The traced run's spans: the benchmark's own spans around `build`,
//! `submit`, `wait` and `shutdown`, joined with the program's flight
//! recorder events, written out as JSON lines once the run has ended.

use crate::drive::TxnSpan;
use crate::json;
use crate::stats::quantile_sorted;
use session::obs::EventKind;
use session::Report;
use std::collections::{BTreeMap, HashMap};
use std::io::{self, BufWriter, Write};
use std::path::Path;
use std::time::Instant;

/// One span: a named interval, the span that caused it, and the
/// transaction it belongs to.
pub struct Span {
    pub name: &'static str,
    pub start_us: f64,
    pub end_us: f64,
    pub parent: Option<usize>,
    pub ta: Option<u64>,
    pub intra: Option<u32>,
}

/// Per-request lifecycle stamps from the flight recorder (µs since the
/// trace sink's epoch, which `build()` creates first thing).
#[derive(Default, Clone, Copy)]
struct Life {
    submitted: Option<u64>,
    qualified: Option<u64>,
    dispatched: Option<u64>,
    executed: Option<u64>,
    terminal: Option<u64>,
}

fn lives(report: &Report) -> BTreeMap<(u64, u32), Life> {
    let mut lives: BTreeMap<(u64, u32), Life> = BTreeMap::new();
    for event in report.trace.events() {
        let life = lives.entry((event.req.ta, event.req.intra)).or_default();
        let at = Some(event.at_us);
        match event.kind {
            EventKind::Submitted => life.submitted = life.submitted.or(at),
            EventKind::Qualified => life.qualified = life.qualified.or(at),
            EventKind::Dispatched => life.dispatched = life.dispatched.or(at),
            // Escalated terminals execute on every frozen shard: keep the
            // last.
            EventKind::Executed => life.executed = at,
            ref kind if kind.is_terminal() => life.terminal = life.terminal.or(at),
            _ => {}
        }
    }
    lives
}

/// The instants of the traced run the run-level spans are cut from.
pub struct RunMarks {
    pub epoch: Instant,
    pub build_end: Instant,
    pub load_start: Instant,
    pub load_end: Instant,
    pub shutdown_start: Instant,
    pub shutdown_end: Instant,
}

/// The traced run's per-layer numbers.
pub struct TraceStats {
    pub queue_us_p50: f64,
    pub queue_us_p99: f64,
    pub execute_us_p50: f64,
    pub end_to_end_us_p50: f64,
    pub outside_us: f64,
    pub dropped: u64,
    /// Added to recorder timestamps to place them on the benchmark's clock.
    pub clock_offset_us: f64,
}

/// Build the span tree of a traced run and compute its trace metrics.
pub fn build(marks: &RunMarks, txns: &[TxnSpan], report: &Report) -> (Vec<Span>, TraceStats) {
    let us = |at: Instant| at.saturating_duration_since(marks.epoch).as_secs_f64() * 1e6;
    let lives = lives(report);
    let mut spans = Vec::new();
    let push = |spans: &mut Vec<Span>, name, start_us, end_us, parent, ta, intra| {
        spans.push(Span {
            name,
            start_us,
            end_us,
            parent,
            ta,
            intra,
        });
        spans.len() - 1
    };
    let run = push(
        &mut spans,
        "run",
        0.0,
        us(marks.shutdown_end),
        None,
        None,
        None,
    );
    push(
        &mut spans,
        "build",
        0.0,
        us(marks.build_end),
        Some(run),
        None,
        None,
    );
    let load = push(
        &mut spans,
        "load",
        us(marks.load_start),
        us(marks.load_end),
        Some(run),
        None,
        None,
    );

    // Program-side requests grouped by transaction.
    let mut by_txn: HashMap<u64, Vec<(u32, Life)>> = HashMap::new();
    for (&(ta, intra), life) in &lives {
        by_txn.entry(ta).or_default().push((intra, *life));
    }
    // The recorder stamps events against the sink's own epoch, taken
    // inside `build()`.  `Submitted` is stamped inside the submit call, so
    // the offset that puts every `Submitted` within its submit span maps
    // recorder time onto the benchmark's clock.
    let offset_us = txns
        .iter()
        .filter_map(|txn| {
            let submitted = by_txn
                .get(&txn.ta)?
                .iter()
                .filter_map(|(_, l)| l.submitted)
                .min()?;
            Some(us(txn.submit_start) - submitted as f64)
        })
        .fold(0.0, f64::max);
    let at = |stamp: u64| stamp as f64 + offset_us;

    let mut bench_latency_us = 0.0;
    let mut traced_latency_us = 0.0;
    let mut joined = 0u64;
    for txn in txns {
        let ta = Some(txn.ta);
        let parent = push(
            &mut spans,
            "txn",
            us(txn.start),
            us(txn.end),
            Some(load),
            ta,
            None,
        );
        push(
            &mut spans,
            "submit",
            us(txn.submit_start),
            us(txn.submit_end),
            Some(parent),
            ta,
            None,
        );
        push(
            &mut spans,
            "wait",
            us(txn.wait_start),
            us(txn.end),
            Some(parent),
            ta,
            None,
        );
        let Some(requests) = by_txn.get(&txn.ta) else {
            continue;
        };
        let mut first_submitted = u64::MAX;
        let mut last_terminal = 0;
        for &(intra, life) in requests {
            let (Some(submitted), Some(terminal)) = (life.submitted, life.terminal) else {
                continue;
            };
            first_submitted = first_submitted.min(submitted);
            last_terminal = last_terminal.max(terminal);
            let request = push(
                &mut spans,
                "request",
                at(submitted),
                at(terminal),
                Some(parent),
                ta,
                Some(intra),
            );
            if let Some(qualified) = life.qualified {
                push(
                    &mut spans,
                    "queue",
                    at(submitted),
                    at(qualified),
                    Some(request),
                    ta,
                    Some(intra),
                );
            }
            if let (Some(dispatched), Some(executed)) = (life.dispatched, life.executed) {
                push(
                    &mut spans,
                    "execute",
                    at(dispatched),
                    at(executed),
                    Some(request),
                    ta,
                    Some(intra),
                );
            }
        }
        if first_submitted <= last_terminal {
            joined += 1;
            bench_latency_us += (txn.end - txn.start).as_secs_f64() * 1e6;
            traced_latency_us += (last_terminal - first_submitted) as f64;
        }
    }
    push(
        &mut spans,
        "shutdown",
        us(marks.shutdown_start),
        us(marks.shutdown_end),
        Some(run),
        None,
        None,
    );

    let phase = |f: &dyn Fn(&Life) -> Option<u64>| {
        let mut v: Vec<u64> = lives.values().filter_map(f).collect();
        v.sort_unstable();
        v
    };
    let queue = phase(&|l| Some(l.qualified?.saturating_sub(l.submitted?)));
    let execute = phase(&|l| Some(l.executed?.saturating_sub(l.dispatched?)));
    let end_to_end = phase(&|l| Some(l.terminal?.saturating_sub(l.submitted?)));
    let stats = TraceStats {
        queue_us_p50: quantile_sorted(&queue, 0.5) as f64,
        queue_us_p99: quantile_sorted(&queue, 0.99) as f64,
        execute_us_p50: quantile_sorted(&execute, 0.5) as f64,
        end_to_end_us_p50: quantile_sorted(&end_to_end, 0.5) as f64,
        outside_us: if joined == 0 {
            0.0
        } else {
            (bench_latency_us - traced_latency_us) / joined as f64
        },
        dropped: report.trace.dropped(),
        clock_offset_us: offset_us,
    };
    (spans, stats)
}

/// Per span name: count, mean duration and mean self time (duration minus
/// the part of the interval the span's children cover), in µs.
pub fn self_times(spans: &[Span]) -> BTreeMap<&'static str, (u64, f64, f64)> {
    let mut children: Vec<Vec<usize>> = vec![Vec::new(); spans.len()];
    for (index, span) in spans.iter().enumerate() {
        if let Some(parent) = span.parent {
            children[parent].push(index);
        }
    }
    let mut totals: BTreeMap<&'static str, (u64, f64, f64)> = BTreeMap::new();
    for (index, span) in spans.iter().enumerate() {
        let mut covered: Vec<(f64, f64)> = children[index]
            .iter()
            .map(|&c| {
                (
                    spans[c].start_us.max(span.start_us),
                    spans[c].end_us.min(span.end_us),
                )
            })
            .filter(|(s, e)| e > s)
            .collect();
        covered.sort_by(|a, b| a.0.total_cmp(&b.0));
        let mut covered_us = 0.0;
        let mut reach = f64::NEG_INFINITY;
        for (s, e) in covered {
            let s = s.max(reach);
            if e > s {
                covered_us += e - s;
                reach = e;
            }
        }
        let duration = (span.end_us - span.start_us).max(0.0);
        let entry = totals.entry(span.name).or_default();
        entry.0 += 1;
        entry.1 += duration;
        entry.2 += (duration - covered_us).max(0.0);
    }
    for entry in totals.values_mut() {
        entry.1 /= entry.0 as f64;
        entry.2 /= entry.0 as f64;
    }
    totals
}

/// Write the spans as JSON lines: id, name, start and end (µs since the
/// traced deployment's build started), parent id, transaction id and,
/// for request-level spans, the request's position in its transaction.
pub fn write_jsonl(path: &Path, spans: &[Span]) -> io::Result<()> {
    let mut out = BufWriter::new(std::fs::File::create(path)?);
    for (id, span) in spans.iter().enumerate() {
        writeln!(
            out,
            "{{\"id\": {id}, \"name\": {}, \"start_us\": {}, \"end_us\": {}, \"parent\": {}, \
             \"ta\": {}, \"intra\": {}}}",
            json::string(span.name),
            json::number(span.start_us),
            json::number(span.end_us),
            json::option(span.parent),
            json::option(span.ta),
            json::option(span.intra),
        )?;
    }
    out.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start_us: f64, end_us: f64, parent: Option<usize>) -> Span {
        Span {
            name,
            start_us,
            end_us,
            parent,
            ta: None,
            intra: None,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let spans = vec![
            span("txn", 0.0, 10.0, None),
            span("submit", 0.0, 2.0, Some(0)),
            span("request", 1.0, 8.0, Some(0)),
            span("wait", 6.0, 12.0, Some(0)),
        ];
        let times = self_times(&spans);
        // [0, 2] ∪ [1, 8] ∪ [6, 10] covers the whole transaction.
        assert_eq!(times["txn"], (1, 10.0, 0.0));
        assert_eq!(times["request"], (1, 7.0, 7.0));
    }

    #[test]
    fn self_time_counts_gaps_between_children() {
        let spans = vec![
            span("txn", 0.0, 10.0, None),
            span("submit", 0.0, 1.0, Some(0)),
            span("wait", 4.0, 10.0, Some(0)),
        ];
        assert_eq!(self_times(&spans)["txn"].2, 3.0);
    }
}
