//! The load generators: a closed loop on one thread, an open loop on a
//! submitter and a collector thread.  Both drive one `Session` and record
//! what a client sees.

use crate::stats::{HostReading, Samples};
use crate::watchdog::{Phase, Progress, OVERRUN};
use crate::workloads::{mix, Shape, TxnStream, Workload};
use declsched::{shard_of, Operation, SchedError};
use session::{Session, Ticket, Txn};
use std::collections::VecDeque;
use std::sync::mpsc;
use std::time::{Duration, Instant};

/// Time the load runs before the timed window opens, so rounds, caches
/// and allocator pools are warm when measuring starts.
pub const WARMUP: Duration = Duration::from_secs(1);

/// Nominal length of the slices the timed window is cut into; end-to-end
/// figures are medians over slices, so a short disturbance from outside
/// the program moves one slice, not the result.
pub const SLICE: Duration = Duration::from_secs(1);

/// Most writes a generated transaction carries.
const MAX_WRITES: usize = 8;

/// The load plan of one run.
struct Plan {
    start: Instant,
    /// The timed window: `[window_start, window_end)`.
    window_start: Instant,
    window_end: Instant,
    /// The window is cut into `slices` slices of `slice` each.
    slices: usize,
    slice: Duration,
    /// One transaction in this many gets benchmark spans (`None`: no
    /// spans).
    span_one_in: Option<u64>,
    shards: usize,
}

impl Plan {
    fn new(seconds: f64, span_one_in: Option<u64>, shards: usize) -> Plan {
        let start = Instant::now();
        let window_start = start + WARMUP;
        let slices = (seconds / SLICE.as_secs_f64()).round().max(1.0) as usize;
        Plan {
            start,
            window_start,
            window_end: window_start + Duration::from_secs_f64(seconds),
            slices,
            slice: Duration::from_secs_f64(seconds / slices as f64),
            span_one_in,
            shards,
        }
    }

    fn in_window(&self, at: Instant) -> bool {
        at >= self.window_start && at < self.window_end
    }

    /// Which slice of the window `at` falls in.
    fn slice_of(&self, at: Instant) -> usize {
        let slice = (at - self.window_start).as_secs_f64() / self.slice.as_secs_f64();
        (slice as usize).min(self.slices - 1)
    }

    fn spans(&self, ta: u64) -> bool {
        self.span_one_in.is_some_and(|n| ta.is_multiple_of(n))
    }
}

/// What the benchmark knows about a submitted transaction, needed to check
/// the outcome once it resolves.
struct TxnMeta {
    data: u32,
    writes: [i64; MAX_WRITES],
    n_writes: usize,
    cross_shard: bool,
}

impl TxnMeta {
    fn of(txn: &Txn, shards: usize) -> TxnMeta {
        let mut meta = TxnMeta {
            data: 0,
            writes: [0; MAX_WRITES],
            n_writes: 0,
            cross_shard: false,
        };
        for request in txn.requests() {
            if request.op.is_data() {
                meta.data += 1;
            }
            if request.op == Operation::Write {
                assert!(
                    meta.n_writes < MAX_WRITES,
                    "generated transaction writes too many rows"
                );
                meta.writes[meta.n_writes] = request.object;
                meta.n_writes += 1;
            }
        }
        if shards > 1 {
            let footprint = txn.footprint();
            meta.cross_shard = footprint
                .iter()
                .any(|&o| shard_of(o, shards) != shard_of(footprint[0], shards));
        }
        meta
    }
}

/// A submitted transaction on its way to the collector.
struct Pending {
    ta: u64,
    ticket: Result<Ticket, SchedError>,
    /// Latency starts here: the submit call (closed loop) or the due time
    /// (open loop).
    start: Instant,
    submit_start: Instant,
    submit_end: Instant,
    meta: TxnMeta,
}

/// The benchmark's own spans of one sampled transaction.
#[derive(Debug, Clone, Copy)]
pub struct TxnSpan {
    pub ta: u64,
    pub start: Instant,
    pub submit_start: Instant,
    pub submit_end: Instant,
    pub wait_start: Instant,
    pub end: Instant,
}

/// Submission-side measurements.
pub struct Submits {
    pub submit: Samples,
    pub lateness: Samples,
    pub submitted: u64,
    pub cross_shard: u64,
    pub in_flight_peak: u64,
    /// Host readings at the window's start and end.
    pub window_start: Option<HostReading>,
    pub window_end: Option<HostReading>,
}

/// Completion-side measurements and the state the correctness checks need.
pub struct Completions {
    /// Latencies of transactions that resolved inside the window, in
    /// completion order.
    pub latency: Samples,
    /// Where each slice of the window starts in `latency`.
    pub slice_starts: Vec<usize>,
    /// Commits per slice of the window.
    pub slice_commits: Vec<u64>,
    pub committed_in_window: u64,
    pub committed: u64,
    pub failed: u64,
    pub failed_ids: Vec<u64>,
    pub first_error: Option<String>,
    /// Data statements of committed transactions.
    pub data_committed: u64,
    /// Bit per table row: written by a committed transaction.
    pub written: Vec<u64>,
    pub spans: Vec<TxnSpan>,
}

/// Everything one load run measured.
pub struct Outcome {
    /// Length of one slice of the window.
    pub slice: Duration,
    pub submits: Submits,
    pub completions: Completions,
    pub load_start: Instant,
    pub load_end: Instant,
}

/// Samples reserved per second of window: above the fastest deployment's
/// throughput on a 2-core host.
const SAMPLES_PER_SEC: f64 = 400_000.0;

impl Submits {
    fn new(capacity: usize) -> Submits {
        Submits {
            submit: Samples::with_capacity(capacity),
            lateness: Samples::with_capacity(capacity),
            submitted: 0,
            cross_shard: 0,
            in_flight_peak: 0,
            window_start: None,
            window_end: None,
        }
    }

    /// Read the host at the window edges.
    fn mark_window(&mut self, plan: &Plan, now: Instant) {
        if self.window_start.is_none() && now >= plan.window_start {
            self.window_start = Some(HostReading::now());
        }
        if self.window_end.is_none() && now >= plan.window_end {
            self.window_end = Some(HostReading::now());
        }
    }
}

impl Completions {
    fn new(capacity: usize, rows: usize) -> Completions {
        Completions {
            latency: Samples::with_capacity(capacity),
            slice_starts: Vec::new(),
            slice_commits: Vec::new(),
            committed_in_window: 0,
            committed: 0,
            failed: 0,
            failed_ids: Vec::new(),
            first_error: None,
            data_committed: 0,
            written: vec![0; rows.div_ceil(64)],
            spans: Vec::new(),
        }
    }

    fn complete(&mut self, pending: Pending, plan: &Plan, progress: &Progress) {
        let wait_start = Instant::now();
        let result = pending.ticket.and_then(|ticket| ticket.wait().map(drop));
        let end = Instant::now();
        progress.resolved(result.is_ok());
        let in_window = plan.in_window(end);
        if in_window {
            let slice = plan.slice_of(end);
            while self.slice_starts.len() <= slice {
                self.slice_starts.push(self.latency.len());
                self.slice_commits.push(0);
            }
            self.latency.push(end - pending.start);
            self.slice_commits[slice] += u64::from(result.is_ok());
        }
        match result {
            Ok(()) => {
                self.committed += 1;
                self.committed_in_window += u64::from(in_window);
                self.data_committed += u64::from(pending.meta.data);
                for &key in &pending.meta.writes[..pending.meta.n_writes] {
                    let key = usize::try_from(key).expect("generated keys are row indexes");
                    if let Some(word) = self.written.get_mut(key / 64) {
                        *word |= 1 << (key % 64);
                    }
                }
            }
            Err(e) => {
                self.failed += 1;
                self.failed_ids.push(pending.ta);
                self.first_error.get_or_insert_with(|| e.to_string());
            }
        }
        if plan.spans(pending.ta) {
            self.spans.push(TxnSpan {
                ta: pending.ta,
                start: pending.start,
                submit_start: pending.submit_start,
                submit_end: pending.submit_end,
                wait_start,
                end,
            });
        }
    }
}

fn submit(
    session: &mut Session,
    txn: Txn,
    due: Option<Instant>,
    plan: &Plan,
    submits: &mut Submits,
    progress: &Progress,
) -> Pending {
    let ta = txn.ta();
    let meta = TxnMeta::of(&txn, plan.shards);
    let submit_start = Instant::now();
    let ticket = session.submit(txn);
    let submit_end = Instant::now();
    progress.submitted();
    submits.submitted += 1;
    submits.cross_shard += u64::from(meta.cross_shard);
    if plan.in_window(submit_start) {
        submits.submit.push(submit_end - submit_start);
    }
    Pending {
        ta,
        ticket,
        start: due.unwrap_or(submit_start),
        submit_start,
        submit_end,
        meta,
    }
}

/// Drive `workload` through `session` for [`WARMUP`] and then a timed
/// window of `seconds`, then stop submitting and wait for everything in
/// flight.  Transactions with `ta % n == 0` get spans when `span_one_in`
/// is `Some(n)`.
pub fn run(
    workload: &Workload,
    session: &mut Session,
    seed: u64,
    seconds: f64,
    span_one_in: Option<u64>,
    progress: &Progress,
) -> Outcome {
    let capacity = (seconds * SAMPLES_PER_SEC) as usize + 1_024;
    let mut stream = TxnStream::new(workload, seed);
    let mut submits = Submits::new(capacity);
    let mut completions = Completions::new(capacity, workload.rows);
    let plan = &Plan::new(seconds, span_one_in, workload.shards());
    progress.phase(
        Phase::Load,
        Some(WARMUP + Duration::from_secs_f64(seconds) + OVERRUN),
    );
    match workload.shape {
        Shape::Closed { depth } => {
            let mut queue: VecDeque<Pending> = VecDeque::with_capacity(depth);
            let mut draining = false;
            loop {
                let now = Instant::now();
                submits.mark_window(plan, now);
                if now >= plan.window_end && !draining {
                    draining = true;
                    progress.phase(Phase::Drain, Some(OVERRUN));
                }
                if !draining {
                    while queue.len() < depth {
                        let txn = stream.next_txn();
                        queue.push_back(submit(session, txn, None, plan, &mut submits, progress));
                    }
                    submits.in_flight_peak = submits.in_flight_peak.max(queue.len() as u64);
                }
                match queue.pop_front() {
                    Some(pending) => completions.complete(pending, plan, progress),
                    None => break,
                }
            }
        }
        Shape::Open { rate_tps } => {
            let (tx, rx) = mpsc::channel::<Pending>();
            completions = std::thread::scope(|scope| {
                let collector = scope.spawn(|| {
                    for pending in rx {
                        completions.complete(pending, plan, progress);
                    }
                    completions
                });
                let mut arrivals = Arrivals::new(mix(seed, u64::MAX), rate_tps, plan.start);
                loop {
                    let due = arrivals.next_due();
                    if due >= plan.window_end {
                        break;
                    }
                    let now = Instant::now();
                    if due > now {
                        std::thread::sleep(due - now);
                    }
                    let now = Instant::now();
                    submits.mark_window(plan, now);
                    if plan.in_window(due) {
                        submits.lateness.push(now.saturating_duration_since(due));
                    }
                    let txn = stream.next_txn();
                    let pending = submit(session, txn, Some(due), plan, &mut submits, progress);
                    submits.in_flight_peak = submits.in_flight_peak.max(progress.in_flight());
                    tx.send(pending)
                        .expect("the collector outlives the submitter");
                }
                // Sleep out the rest of the window so the end-of-window
                // reading happens on time.
                let now = Instant::now();
                if plan.window_end > now {
                    std::thread::sleep(plan.window_end - now);
                }
                submits.mark_window(plan, Instant::now());
                progress.phase(Phase::Drain, Some(OVERRUN));
                drop(tx);
                collector.join().expect("the collector thread never panics")
            });
        }
    }
    let load_end = Instant::now();
    submits.mark_window(plan, load_end);
    submits.submit.sort();
    submits.lateness.sort();
    // Slices nothing resolved in count as empty.
    while completions.slice_starts.len() < plan.slices {
        completions.slice_starts.push(completions.latency.len());
        completions.slice_commits.push(0);
    }
    Outcome {
        slice: plan.slice,
        submits,
        completions,
        load_start: plan.start,
        load_end,
    }
}

/// Poisson arrival times at a fixed absolute rate.
struct Arrivals {
    state: u64,
    mean_gap_s: f64,
    due: Instant,
}

impl Arrivals {
    fn new(seed: u64, rate_tps: f64, start: Instant) -> Arrivals {
        Arrivals {
            state: seed,
            mean_gap_s: 1.0 / rate_tps,
            due: start,
        }
    }

    fn next_due(&mut self) -> Instant {
        self.state = self.state.wrapping_add(1);
        // Uniform in (0, 1] from 53 random bits.
        let u = ((mix(self.state, 0) >> 11) + 1) as f64 / (1u64 << 53) as f64;
        self.due += Duration::from_secs_f64(-u.ln() * self.mean_gap_s);
        self.due
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn arrivals_average_the_requested_rate() {
        let start = Instant::now();
        let mut arrivals = Arrivals::new(5, 2_000.0, start);
        let mut last = start;
        for _ in 0..20_000 {
            last = arrivals.next_due();
        }
        let rate = 20_000.0 / (last - start).as_secs_f64();
        assert!((rate - 2_000.0).abs() < 60.0, "rate {rate}");
    }
}
