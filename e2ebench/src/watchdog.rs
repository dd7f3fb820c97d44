//! The stall watchdog: no run may ever hang.
//!
//! Every layer of the benchmark reports progress here (a build finished, a
//! ticket resolved, shutdown returned).  A background thread ends the
//! process with a failed result when progress stops for longer than the
//! current phase allows, or when one run exceeds its overall deadline.
//! `Ticket::wait` has no timeout, so ending the process is the only way
//! out of a stalled wait.

use std::sync::atomic::{AtomicBool, AtomicU64, AtomicU8, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum Phase {
    Idle = 0,
    Setup = 1,
    Load = 2,
    /// Submission has stopped; what is in flight must resolve.
    Drain = 3,
    Shutdown = 4,
}

impl Phase {
    fn from_u8(v: u8) -> Phase {
        match v {
            1 => Phase::Setup,
            2 => Phase::Load,
            3 => Phase::Drain,
            4 => Phase::Shutdown,
            _ => Phase::Idle,
        }
    }

    /// How long this phase may go without progress.
    fn stall_limit(self) -> Option<Duration> {
        match self {
            Phase::Idle => None,
            // No ticket resolved for this long while load is offered.
            Phase::Load | Phase::Drain => Some(LOAD_STALL),
            Phase::Setup | Phase::Shutdown => Some(Duration::from_secs(60)),
        }
    }

    fn label(self) -> &'static str {
        match self {
            Phase::Idle => "idle",
            Phase::Setup => "setup",
            Phase::Load => "load",
            Phase::Drain => "drain",
            Phase::Shutdown => "shutdown",
        }
    }
}

/// Longest time without a resolved ticket while load is offered.
pub const LOAD_STALL: Duration = Duration::from_secs(5);

/// How far past its planned end the load phase may run (a generator
/// blocked behind a collapsed deployment), and how long the drain of what
/// is in flight at the end may take.  Both take milliseconds unless the
/// deployment has collapsed.
pub const OVERRUN: Duration = Duration::from_secs(20);

/// Longest one workload run (warm-up, set-up, load, shutdown and checks;
/// untraced and traced) may take.
const RUN_DEADLINE: Duration = Duration::from_secs(150);

#[derive(Default)]
struct Shared {
    ticks: AtomicU64,
    phase: AtomicU8,
    /// Bumped by every phase change, which restarts the phase deadline.
    phase_changes: AtomicU64,
    /// How long the current phase may last, in ms (0: unbounded).
    phase_deadline_ms: AtomicU64,
    submitted: AtomicU64,
    resolved: AtomicU64,
    failed: AtomicU64,
    /// Bumped by every new run, which restarts the run deadline.
    run: AtomicU64,
    label: Mutex<String>,
    stop: AtomicBool,
}

/// Progress counters shared with the watchdog thread.
#[derive(Clone)]
pub struct Progress {
    shared: Arc<Shared>,
}

impl Progress {
    /// Enter `phase`, which may take at most `deadline` overall.
    pub fn phase(&self, phase: Phase, deadline: Option<Duration>) {
        let deadline_ms = deadline.map_or(0, |d| d.as_millis().max(1) as u64);
        self.shared
            .phase_deadline_ms
            .store(deadline_ms, Ordering::Relaxed);
        self.shared.phase.store(phase as u8, Ordering::Relaxed);
        self.shared.phase_changes.fetch_add(1, Ordering::Relaxed);
        self.tick();
    }

    pub fn tick(&self) {
        self.shared.ticks.fetch_add(1, Ordering::Relaxed);
    }

    /// Start a new run named `label`, counting from zero.
    pub fn begin_run(&self, label: &str) {
        *self.shared.label.lock().expect("watchdog label lock") = label.to_string();
        self.shared.run.fetch_add(1, Ordering::Relaxed);
        self.shared.submitted.store(0, Ordering::Relaxed);
        self.shared.resolved.store(0, Ordering::Relaxed);
        self.shared.failed.store(0, Ordering::Relaxed);
        self.tick();
    }

    pub fn submitted(&self) {
        self.shared.submitted.fetch_add(1, Ordering::Relaxed);
    }

    pub fn resolved(&self, ok: bool) {
        if !ok {
            self.shared.failed.fetch_add(1, Ordering::Relaxed);
        }
        self.shared.resolved.fetch_add(1, Ordering::Relaxed);
        self.shared.ticks.fetch_add(1, Ordering::Relaxed);
    }

    /// Transactions submitted and not yet resolved.
    pub fn in_flight(&self) -> u64 {
        let resolved = self.shared.resolved.load(Ordering::Relaxed);
        self.shared
            .submitted
            .load(Ordering::Relaxed)
            .saturating_sub(resolved)
    }
}

pub struct Watchdog {
    progress: Progress,
    thread: Option<JoinHandle<()>>,
}

impl Watchdog {
    pub fn start() -> Watchdog {
        let progress = Progress {
            shared: Arc::new(Shared::default()),
        };
        let shared = Arc::clone(&progress.shared);
        let thread = std::thread::Builder::new()
            .name("e2ebench-watchdog".to_string())
            .spawn(move || watch(&shared))
            .expect("spawning the watchdog thread");
        Watchdog {
            progress,
            thread: Some(thread),
        }
    }

    pub fn progress(&self) -> Progress {
        self.progress.clone()
    }
}

impl Drop for Watchdog {
    fn drop(&mut self) {
        self.progress.shared.stop.store(true, Ordering::Relaxed);
        if let Some(thread) = self.thread.take() {
            let _ = thread.join();
        }
    }
}

fn watch(shared: &Shared) {
    let mut last_ticks = shared.ticks.load(Ordering::Relaxed);
    let mut last_change = Instant::now();
    let mut last_run = shared.run.load(Ordering::Relaxed);
    let mut run_started = Instant::now();
    let mut last_phase_change = shared.phase_changes.load(Ordering::Relaxed);
    let mut phase_started = Instant::now();
    while !shared.stop.load(Ordering::Relaxed) {
        std::thread::sleep(Duration::from_millis(50));
        let now = Instant::now();
        let run = shared.run.load(Ordering::Relaxed);
        if run != last_run {
            last_run = run;
            run_started = now;
        }
        let phase_change = shared.phase_changes.load(Ordering::Relaxed);
        if phase_change != last_phase_change {
            last_phase_change = phase_change;
            phase_started = now;
        }
        let ticks = shared.ticks.load(Ordering::Relaxed);
        if ticks != last_ticks {
            last_ticks = ticks;
            last_change = now;
        }
        let phase = Phase::from_u8(shared.phase.load(Ordering::Relaxed));
        let deadline_ms = shared.phase_deadline_ms.load(Ordering::Relaxed);
        let stalled = phase
            .stall_limit()
            .is_some_and(|limit| now.duration_since(last_change) > limit);
        let why = if stalled {
            Some(format!(
                "no progress for {:.1} s",
                now.duration_since(last_change).as_secs_f64()
            ))
        } else if deadline_ms > 0
            && now.duration_since(phase_started).as_millis() > deadline_ms.into()
        {
            Some(format!("overran its {deadline_ms} ms deadline"))
        } else if phase != Phase::Idle && now.duration_since(run_started) > RUN_DEADLINE {
            Some(format!(
                "run exceeded its {} s deadline",
                RUN_DEADLINE.as_secs()
            ))
        } else {
            None
        };
        if let Some(why) = why {
            let label = shared.label.lock().map(|l| l.clone()).unwrap_or_default();
            report_and_exit(shared, &label, phase, &why);
        }
    }
}

fn report_and_exit(shared: &Shared, label: &str, phase: Phase, why: &str) -> ! {
    let submitted = shared.submitted.load(Ordering::Relaxed);
    let resolved = shared.resolved.load(Ordering::Relaxed);
    let failed = shared.failed.load(Ordering::Relaxed);
    let unresolved = submitted.saturating_sub(resolved);
    let failed_total = failed + unresolved;
    println!(
        "STALL {label}: {why} in phase {}; submitted {submitted}, resolved {resolved}, \
         unresolved {unresolved}, failed {failed}",
        phase.label()
    );
    let failed_frac = crate::stats::ratio(failed_total as f64, submitted.max(1) as f64);
    println!(
        "{{\"correct\": false, \"attempted\": {}, \"failed\": {failed_total}, \"metrics\": \
         {{\"failed_frac\": {{\"value\": {failed_frac}, \"unit\": \"ratio\"}}}}}}",
        submitted.max(1)
    );
    use std::io::Write;
    let _ = std::io::stdout().flush();
    std::process::exit(3);
}
