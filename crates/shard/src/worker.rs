//! The shard worker: one thread owning a complete Figure-1 pipeline
//! (incoming queue → pending relation → declarative rule → history relation
//! → dispatcher) for the slice of the object space that hashes to it.
//!
//! Client traffic arrives in [`ShardMessage::Batch`]es — the router
//! accumulates submissions per shard and the worker drains a whole batch
//! per channel synchronization.  Completions flow back the same way:
//! resolved tickets are buffered over a scheduling round and published to
//! the shared [`crate::hub::CompletionHub`] in one call.
//!
//! Besides client transactions, the worker speaks the two-phase escalation
//! handshake: on `Prepare` it qualifies the escalated transaction's *local
//! slice* against its own live history (the same incremental-qualifier
//! evaluation local rounds use) and votes; a granted vote holds the shard —
//! it keeps accepting and buffering traffic but schedules no rounds — until
//! the initiating lane sends `Commit` (execute the slice here) or
//! `Release2pc` (a sibling shard voted no; resume immediately).  Prepare
//! only ever lands at a message boundary, so a shard is never interrupted
//! mid-rule, and shards outside the transaction's footprint never stop.

use crate::hub::{CompletionHub, HubReply};
use crate::metrics::ShardReport;
use crate::router::TxnHomes;
use crossbeam::channel::{Receiver, RecvTimeoutError, Sender};
use declsched::{
    DeclarativeScheduler, Dispatcher, LoopWait, ProtocolKind, Request, RequestKey, SchedError,
    SchedResult,
};
use relalg::Table;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// One client transaction inside a router batch.
pub(crate) struct Submission {
    /// The transaction's requests, in intra order.
    pub requests: Vec<Request>,
    /// Resolved once every request has executed (or on failure).
    pub reply: HubReply,
}

/// A shard's answer to a `Prepare`.
pub(crate) struct PrepareVote {
    /// The shard qualified its local slice and is now holding rounds for
    /// the initiating lane.  A denial (not granted, no error) means either
    /// a conflicting local lock or an earlier submission of the same
    /// transaction still queued here — both cases the lane handles the same
    /// way: release the siblings, back off, retry.
    pub granted: bool,
    /// For custom protocols only: the shard's `history` relation at the
    /// vote point, so the lane can evaluate the declarative rule over the
    /// union of the participants' snapshots.
    pub snapshot: Option<Table>,
    /// The shard could not vote at all (rule failure or a chaos kill); the
    /// lane fails the escalation with this error.
    pub error: Option<SchedError>,
}

impl PrepareVote {
    fn granted(snapshot: Option<Table>) -> Self {
        PrepareVote {
            granted: true,
            snapshot,
            error: None,
        }
    }

    fn denied() -> Self {
        PrepareVote {
            granted: false,
            snapshot: None,
            error: None,
        }
    }

    fn error(error: SchedError) -> Self {
        PrepareVote {
            granted: false,
            snapshot: None,
            error: Some(error),
        }
    }
}

/// Messages understood by a shard worker.
pub(crate) enum ShardMessage {
    /// A batch of client transactions accumulated by the router — one
    /// channel hop for the whole batch.
    Batch(Vec<Submission>),
    /// Escalation lane, phase 1: qualify the local slice of escalation
    /// `job_id` and vote.  A granted vote holds the shard (no rounds) until
    /// the matching `Commit` or `Release2pc`.
    Prepare {
        /// The lane's id for this escalation (holds are keyed by it).
        job_id: u64,
        /// The escalated transaction, for the own-submission-pending check.
        ta: Option<u64>,
        /// Protocol to qualify the slice under.
        kind: ProtocolKind,
        /// The data requests of the escalation that live on this shard.
        slice: Vec<Request>,
        /// Ask for a history snapshot instead of local qualification
        /// (custom protocols, whose rules the lane evaluates over the
        /// union).
        want_snapshot: bool,
        /// Where to send the vote.
        vote: Sender<PrepareVote>,
    },
    /// Escalation lane, phase 2 (only valid while held by `job_id`):
    /// execute these requests on this shard's engine, record them in its
    /// history, and release the hold.
    Commit {
        /// The escalation this commit belongs to.
        job_id: u64,
        /// The escalated requests owned by this shard, in intra order.
        requests: Vec<Request>,
        /// Signalled once with the execution outcome.
        done: Sender<SchedResult<()>>,
    },
    /// Escalation lane: a sibling shard voted no (or the lane is backing
    /// out of a failed handshake); drop the hold for `job_id` and resume.
    Release2pc {
        /// The escalation being released.
        job_id: u64,
    },
    /// Chaos: kill this worker as if its thread had died mid-handshake
    /// (sent by the lane when a `LanePrepare`/`LaneCommit` hook fires
    /// `Kill`).
    ChaosKill,
    /// Placement migration, step 1: if `object` is completely idle here (no
    /// queued or pending request targets it, no live lock), reply with its
    /// current row value; reply `None` (busy) otherwise.  Sent only while
    /// the router's placement fence is held exclusively, so no new traffic
    /// for the object can be racing up the channel.
    Export {
        /// The object being migrated away.
        object: i64,
        /// Receives `Some(value)` when idle, `None` when busy.
        reply: Sender<Option<i64>>,
    },
    /// Placement migration, step 2: install `value` as `object`'s row on
    /// this shard's engine (this shard is about to become the object's
    /// home).
    Install {
        /// The object being migrated here.
        object: i64,
        /// Row value exported from the old home shard.
        value: i64,
        /// Signalled once with the install outcome.
        done: Sender<SchedResult<()>>,
    },
    /// Orderly shutdown: drain what is pending, then stop.
    Shutdown,
}

/// A client transaction waiting for its requests to execute.
struct Ticket {
    /// Request keys of this transaction still registered in `waiting`.
    remaining: usize,
    /// Taken by the first terminal outcome (all-executed or first failure).
    reply: Option<HubReply>,
}

struct WorkerState {
    shard: usize,
    scheduler: DeclarativeScheduler,
    dispatcher: Dispatcher,
    started: Instant,
    /// Ticket slots; vacated entries are recycled through `free_tickets`,
    /// so memory stays bounded by in-flight transactions rather than
    /// growing with the worker's lifetime.
    tickets: Vec<Option<Ticket>>,
    free_tickets: Vec<usize>,
    waiting: HashMap<RequestKey, usize>,
    executed_log: Vec<Request>,
    peak_pending: usize,
    disconnected: bool,
    /// Chaos `Kill` landed: everything in flight was failed, the
    /// un-admitted state purged, and every later message is refused.
    killed: bool,
    /// A granted escalation hold: the job id whose `Prepare` this shard
    /// granted and whose `Commit`/`Release2pc` it is waiting for.  While
    /// held the worker keeps draining its mailbox (and buffering client
    /// traffic) but schedules no rounds, so the history the vote was based
    /// on cannot shift under the lane.
    held: Option<u64>,
    /// Live queue-depth gauge sampled by the control plane.
    depth: Arc<AtomicU64>,
    /// The router's homes map, for reclaiming entries of transactions this
    /// worker fails.
    homes: Arc<TxnHomes>,
    /// The shared completion hub client tickets wait on.
    hub: Arc<CompletionHub>,
    /// Completions buffered over the current loop iteration, published to
    /// the hub in one batch.
    completions: Vec<(u64, SchedResult<()>)>,
    /// Reusable scratch for `submit_transaction`'s duplicate-key check, so
    /// admission does not allocate a fresh set per transaction.
    batch_keys: std::collections::HashSet<RequestKey>,
    /// Thread-owned flight recorder (flushes into the run's trace sink
    /// when the worker joins).
    recorder: obs::Recorder,
    /// For sampled transactions: the round number at submission, so
    /// qualification can report how many rounds the request sat pending.
    /// On the emission hot path twice per sampled request — hence the
    /// cheap id hasher.
    submit_round: HashMap<RequestKey, u64, obs::FastIdBuildHasher>,
    /// Scheduling rounds this worker has produced.
    round_no: u64,
    /// Live counter of requests this shard executed through the
    /// escalation lane.
    escalated_ctr: obs::Counter,
    /// Chaos fault injector (disabled outside chaos runs).
    injector: Arc<chaos::FaultInjector>,
}

impl WorkerState {
    fn now_ms(&self) -> u64 {
        self.started.elapsed().as_millis() as u64
    }

    /// Publish buffered completions to the hub in one call.
    fn flush_completions(&mut self) {
        if !self.completions.is_empty() {
            self.hub.resolve_many(self.completions.drain(..));
        }
    }

    /// Enqueue a client transaction into the local scheduler (queues only —
    /// safe while held, because rounds are what a hold suspends).
    fn submit_transaction(&mut self, requests: Vec<Request>, reply: HubReply) {
        if requests.is_empty() {
            reply.resolve_now(Ok(()));
            return;
        }
        // Validate the whole batch before touching any state: a duplicate
        // (ta, intra) — within the batch or against an in-flight ticket —
        // would make both submissions unaccountable, so fail the new
        // transaction outright and leave the scheduler untouched.
        self.batch_keys.clear();
        for request in &requests {
            let key = request.key();
            if self.waiting.contains_key(&key) || !self.batch_keys.insert(key) {
                reply.resolve_now(Err(SchedError::Dispatch {
                    message: format!(
                        "duplicate request key T{}[{}] submitted to shard {}",
                        key.ta, key.intra, self.shard
                    ),
                }));
                return;
            }
        }
        let ticket = Ticket {
            remaining: requests.len(),
            reply: Some(reply),
        };
        let ticket_index = match self.free_tickets.pop() {
            Some(index) => {
                self.tickets[index] = Some(ticket);
                index
            }
            None => {
                self.tickets.push(Some(ticket));
                self.tickets.len() - 1
            }
        };
        let now_ms = self.now_ms();
        for request in requests {
            let key = request.key();
            if self.recorder.samples(key.ta) {
                self.submit_round.insert(key, self.round_no);
            }
            self.scheduler.submit(request, now_ms);
            self.waiting.insert(key, ticket_index);
        }
    }

    /// Resolve one executed (or failed) request against its ticket.  The
    /// slot is vacated only once *every* key of the transaction has
    /// resolved, so later keys of an already-failed transaction can never
    /// hit a recycled slot.  Completions are buffered, not published — the
    /// round's flush does that in one hub call.
    fn resolve(&mut self, key: RequestKey, result: SchedResult<()>) {
        let Some(index) = self.waiting.remove(&key) else {
            return;
        };
        let Some(ticket) = self.tickets[index].as_mut() else {
            return;
        };
        ticket.remaining -= 1;
        let outcome = match result {
            Ok(()) => {
                if ticket.remaining == 0 {
                    ticket.reply.take().map(|reply| (reply, Ok(())))
                } else {
                    None
                }
            }
            Err(e) => ticket.reply.take().map(|reply| (reply, Err(e))),
        };
        if ticket.remaining == 0 {
            self.tickets[index] = None;
            self.free_tickets.push(index);
        }
        if let Some((reply, result)) = outcome {
            reply.resolve_into(result, &mut self.completions);
        }
    }

    /// Fail every transaction still waiting (shutdown fixpoint, rule
    /// failure or a chaos kill).  With `reclaim` the failed transactions
    /// are treated as dead — no later submission of theirs can route
    /// anywhere — so their router homes entries are reclaimed here, which
    /// is what keeps the homes map from leaking entries for transactions
    /// that error out mid-flight (the shutdown drain and a worker kill
    /// both pass `true`).  On a mid-run rule failure the entries are
    /// *kept* (`reclaim = false`): the transaction may still hold locks
    /// from earlier submissions on other shards, and the entry is what
    /// routes its follow-up abort there (reclaim then happens when the
    /// client terminates or abandons it).
    fn fail_all_waiting(&mut self, reclaim: bool, err: impl Fn(RequestKey) -> SchedError) {
        let waiting: Vec<(RequestKey, usize)> = self.waiting.drain().collect();
        if reclaim {
            let mut dead: Vec<u64> = waiting.iter().map(|(key, _)| key.ta).collect();
            dead.sort_unstable();
            dead.dedup();
            self.homes.remove_many(dead);
        }
        for (key, index) in waiting {
            if let Some(ticket) = self.tickets[index].as_mut() {
                if let Some(reply) = ticket.reply.take() {
                    reply.resolve_now(Err(err(key)));
                }
            }
        }
        // Nothing is waiting any more: every slot is vacant.
        self.tickets.clear();
        self.free_tickets.clear();
        self.submit_round.clear();
    }

    /// Vote on an escalation's `Prepare`: qualify the transaction's local
    /// slice against this shard's live history and, if admitted, hold the
    /// shard for the lane's decision.  Qualification runs the same
    /// conflict-index evaluation local rounds use — over the shard's own
    /// relations, incrementally maintained, with no union snapshot — which
    /// is sound because locks live per object and every object has exactly
    /// one home shard.
    fn prepare(
        &mut self,
        job_id: u64,
        ta: Option<u64>,
        kind: ProtocolKind,
        slice: &[Request],
        want_snapshot: bool,
    ) -> PrepareVote {
        if self.held.is_some() {
            // Defensive: the lane only runs shard-disjoint jobs
            // concurrently, so a second prepare while held means a lane bug
            // — deny rather than deadlock.
            return PrepareVote::denied();
        }
        if let Some(ta) = ta {
            // An earlier submission of this very transaction still waiting
            // here must execute before the escalated batch — replicating
            // the terminal now would finish the transaction on this engine
            // with the earlier statement unexecuted.
            if self.scheduler.transaction_pending(ta) {
                return PrepareVote::denied();
            }
        }
        if want_snapshot {
            // Custom protocols: the lane evaluates the declarative rule
            // over the union of the participants' snapshots; this shard
            // just holds and hands over its history.
            self.held = Some(job_id);
            return PrepareVote::granted(Some(self.scheduler.history_table().clone()));
        }
        match self.scheduler.qualify_escalated_slice(kind, slice) {
            Err(e) => PrepareVote::error(e),
            Ok(qualified) => {
                let qualified: std::collections::HashSet<RequestKey> =
                    qualified.into_iter().collect();
                if slice.iter().all(|r| qualified.contains(&r.key())) {
                    self.held = Some(job_id);
                    PrepareVote::granted(None)
                } else {
                    PrepareVote::denied()
                }
            }
        }
    }

    /// Execute an escalated batch: run it on the engine and record it in the
    /// local history so the shard's own rule sees any locks it leaves behind
    /// (an escalated transaction submitted without its terminal keeps its
    /// write locks until the client commits it, exactly like a local one).
    fn execute_escalated(&mut self, requests: &[Request]) -> SchedResult<()> {
        self.escalated_ctr.add(requests.len() as u64);
        for request in requests {
            let key = request.key();
            let sampled = self.recorder.samples(key.ta);
            if sampled {
                self.recorder
                    .emit(key.ta, key.intra, obs::EventKind::Dispatched);
            }
            self.dispatcher.execute_request(request)?;
            if sampled {
                self.recorder
                    .emit(key.ta, key.intra, obs::EventKind::Executed);
            }
            self.executed_log.push(*request);
        }
        self.scheduler.preload_history(requests)?;
        Ok(())
    }

    /// Export one object's row for migration if it is idle here.  Safe at
    /// any message boundary: the channel is FIFO, so every transaction
    /// routed to this shard before the migration fence closed has already
    /// been folded into the scheduler state the idle check reads.
    fn export(&mut self, object: i64, reply: &Sender<Option<i64>>) {
        let value = self
            .scheduler
            .object_idle(object)
            .then(|| self.dispatcher.read_row(object));
        let _ = reply.send(value);
    }

    /// Chaos `Kill`: fail everything in flight (reclaiming the dead
    /// transactions' homes entries so nothing leaks), purge the
    /// un-admitted scheduler state, drop any escalation hold (the lane
    /// backing out of the handshake will see the typed refusal), and flip
    /// into refuse-everything mode.  History — and therefore the locks of
    /// already-admitted transactions — is kept for post-mortem inspection;
    /// the worker never schedules again, so they can no longer block
    /// anything here.
    fn kill(&mut self) {
        self.killed = true;
        self.held = None;
        self.recorder
            .freeze_anomaly(&format!("chaos: shard {} worker killed", self.shard));
        let shard = self.shard;
        self.fail_all_waiting(true, move |_| SchedError::Dispatch {
            message: format!("chaos: shard {shard} worker killed"),
        });
        let now_ms = self.now_ms();
        self.scheduler.purge_unscheduled(now_ms);
    }

    /// A killed worker answers every message with a typed error (or a
    /// refusal) instead of hanging its sender: `Prepare` votes an error —
    /// which is what lets the initiating lane back out of a mid-handshake
    /// kill cleanly — `Commit` refuses, `Export` reports busy (a dead
    /// shard's rows cannot migrate away) and `Install` refuses (nothing
    /// should migrate in).
    fn refuse(&mut self, message: ShardMessage) {
        let dead = |what: &str| SchedError::Dispatch {
            message: format!("chaos: shard worker killed ({what})"),
        };
        match message {
            ShardMessage::Batch(mut submissions) => {
                for submission in submissions.drain(..) {
                    submission
                        .reply
                        .resolve_now(Err(dead("transaction refused")));
                }
                self.hub.recycle_batch_buffer(submissions);
            }
            ShardMessage::Prepare { vote, .. } => {
                let _ = vote.send(PrepareVote::error(dead("prepare refused")));
            }
            ShardMessage::Commit { done, .. } => {
                let _ = done.send(Err(dead("escalated execute refused")));
            }
            ShardMessage::Export { reply, .. } => {
                let _ = reply.send(None);
            }
            ShardMessage::Install { done, .. } => {
                let _ = done.send(Err(dead("install refused")));
            }
            ShardMessage::Release2pc { .. } | ShardMessage::ChaosKill => {}
            ShardMessage::Shutdown => self.disconnected = true,
        }
    }

    /// Handle one message.  Never blocks: a granted `Prepare` records the
    /// hold and returns — the worker keeps draining its mailbox (buffering
    /// client traffic) until the lane's `Commit`/`Release2pc` lands.
    fn handle(&mut self, message: ShardMessage) {
        if self.killed {
            self.refuse(message);
            return;
        }
        match message {
            ShardMessage::Batch(mut submissions) => {
                for submission in submissions.drain(..) {
                    self.submit_transaction(submission.requests, submission.reply);
                }
                // Hand the emptied buffer back so the router's next flush
                // reuses it instead of allocating.
                self.hub.recycle_batch_buffer(submissions);
            }
            ShardMessage::Prepare {
                job_id,
                ta,
                kind,
                slice,
                want_snapshot,
                vote,
            } => {
                let decision = self.prepare(job_id, ta, kind, &slice, want_snapshot);
                if vote.send(decision).is_err() {
                    // Lane went away mid-handshake; do not stay held for a
                    // decision that will never come.
                    if self.held == Some(job_id) {
                        self.held = None;
                    }
                }
            }
            ShardMessage::Commit {
                job_id,
                requests,
                done,
            } => {
                let result = if self.held == Some(job_id) {
                    self.held = None;
                    self.execute_escalated(&requests)
                } else {
                    Err(SchedError::Dispatch {
                        message: "escalated commit outside a prepared handshake".to_string(),
                    })
                };
                let _ = done.send(result);
            }
            ShardMessage::Release2pc { job_id } => {
                if self.held == Some(job_id) {
                    self.held = None;
                }
            }
            ShardMessage::ChaosKill => {
                if !self.killed {
                    self.kill();
                }
            }
            ShardMessage::Shutdown => self.disconnected = true,
            ShardMessage::Export { object, reply } => self.export(object, &reply),
            ShardMessage::Install {
                object,
                value,
                done,
            } => {
                let _ = done.send(self.dispatcher.install_row(object, value));
            }
        }
    }
}

/// Everything a shard worker thread is born with.
pub(crate) struct WorkerSetup {
    pub shard: usize,
    pub scheduler: DeclarativeScheduler,
    pub dispatcher: Dispatcher,
    pub rows: usize,
    pub receiver: Receiver<ShardMessage>,
    pub depth: Arc<AtomicU64>,
    pub homes: Arc<TxnHomes>,
    pub hub: Arc<CompletionHub>,
    pub sink: obs::TraceSink,
    pub registry: Arc<obs::Registry>,
    pub injector: Arc<chaos::FaultInjector>,
}

/// Microseconds this thread has spent on-CPU, from the kernel's scheduler
/// statistics.  Unlike wall-clock spans, this excludes both blocking waits
/// *and* involuntary preemption — on a box with fewer cores than shards,
/// a wall-clock "busy" span silently absorbs the time other threads spent
/// running, inflating every shard's busy time toward the whole run's
/// elapsed time.  `None` when unavailable (non-Linux, or scheduler stats
/// compiled out), in which case the caller falls back to wall spans.
fn thread_on_cpu_us() -> Option<u64> {
    let text = std::fs::read_to_string("/proc/thread-self/schedstat").ok()?;
    let on_cpu_ns: u64 = text.split_whitespace().next()?.parse().ok()?;
    Some(on_cpu_ns / 1_000)
}

/// The shard worker thread body.
pub(crate) fn run_worker(setup: WorkerSetup) -> ShardReport {
    let cpu_at_start = thread_on_cpu_us();
    let WorkerSetup {
        shard,
        scheduler,
        dispatcher,
        rows,
        receiver,
        depth,
        homes,
        hub,
        sink,
        registry,
        injector,
    } = setup;
    let rounds_ctr = registry.counter(&format!("shard.{shard}.rounds"));
    let executed_ctr = registry.counter(&format!("shard.{shard}.requests_executed"));
    let rule_failures_ctr = registry.counter(&format!("shard.{shard}.rule_failures"));
    let mut state = WorkerState {
        shard,
        scheduler,
        dispatcher,
        started: Instant::now(),
        tickets: Vec::new(),
        free_tickets: Vec::new(),
        waiting: HashMap::new(),
        executed_log: Vec::new(),
        peak_pending: 0,
        disconnected: false,
        killed: false,
        held: None,
        depth,
        homes,
        hub,
        completions: Vec::new(),
        batch_keys: std::collections::HashSet::new(),
        recorder: sink.recorder(),
        submit_round: HashMap::default(),
        round_no: 0,
        escalated_ctr: registry.counter(&format!("shard.{shard}.escalated_requests")),
        injector,
    };

    // Whether the previous round executed anything.  A productive round
    // can release locks that unblock still-pending requests, so the next
    // round must run immediately.
    let mut made_progress = false;
    // Processing time, excluding the blocking waits for traffic — the
    // shard's contribution to the fleet's critical path.
    let mut busy_us = 0u64;
    loop {
        // Collect what has arrived.  The loop is work-conserving: it polls
        // after a productive round (and while draining for shutdown),
        // re-checks a time-based trigger that holds queued work every 1 ms,
        // and otherwise sleeps until a message arrives (an unproductive
        // round cannot unblock anything by itself), so an idle shard takes
        // no timer wake-ups.  A held or killed shard runs no rounds whatever
        // its queue holds: the lane's decision, like everything else that
        // can change that, arrives as a message.
        let wait = if made_progress || state.disconnected {
            LoopWait::Poll
        } else if state.killed || state.held.is_some() {
            LoopWait::Idle
        } else {
            state.scheduler.idle_wait()
        };
        let received = wait.recv(&receiver);
        let iteration_started = Instant::now();
        match received {
            Ok(first) => {
                state.handle(first);
                while let Ok(message) = receiver.try_recv() {
                    state.handle(message);
                }
            }
            Err(RecvTimeoutError::Timeout) => {}
            Err(RecvTimeoutError::Disconnected) => state.disconnected = true,
        }
        made_progress = false;

        // Chaos hook: once per loop iteration, after the mailbox drain.
        match state.injector.fire(chaos::Hook::WorkerRound { shard }) {
            Some(chaos::Fault::Stall { millis }) => {
                std::thread::sleep(Duration::from_millis(millis));
            }
            Some(chaos::Fault::Kill) if !state.killed => state.kill(),
            _ => {}
        }

        if state.disconnected {
            // The lane joins before the workers at shutdown, so a hold
            // surviving to this point belongs to a handshake that died
            // mid-flight; dropping it is what lets the drain below finish.
            state.held = None;
        }

        let queue_depth = state.scheduler.queued() + state.scheduler.pending();
        state.peak_pending = state.peak_pending.max(queue_depth);
        state.depth.store(queue_depth as u64, Ordering::Relaxed);

        let now_ms = state.now_ms();
        // When shutting down, keep scheduling until everything drained.  A
        // held worker schedules nothing: the history its granted vote was
        // qualified against must not shift until the lane decides.
        let batch = if state.killed || state.held.is_some() {
            None
        } else if state.disconnected
            && (state.scheduler.queued() > 0 || state.scheduler.pending() > 0)
        {
            Some(state.scheduler.run_round(now_ms))
        } else {
            match state.scheduler.tick(now_ms) {
                Ok(Some(b)) => Some(Ok(b)),
                Ok(None) => None,
                Err(e) => Some(Err(e)),
            }
        };

        let mut stop = false;
        if let Some(batch) = batch {
            match batch {
                Ok(batch) => {
                    if state.disconnected && batch.is_empty() && state.scheduler.queued() == 0 {
                        // Shutdown fixpoint: no new requests can arrive and
                        // the rule admits nothing more (e.g. a client went
                        // away without committing).  Fail the stragglers
                        // instead of spinning forever.
                        state.fail_all_waiting(true, |key| SchedError::TransactionFinished {
                            ta: key.ta,
                        });
                        stop = true;
                    } else {
                        made_progress = !batch.is_empty();
                        rounds_ctr.inc();
                        let qualified_at = if state.recorder.enabled() && !batch.is_empty() {
                            state.recorder.now_us()
                        } else {
                            0
                        };
                        // Chained stamps, as in the core loop: sequential
                        // batch execution makes a request's `Executed` moment
                        // the next one's `Dispatched` moment, halving clock
                        // reads.
                        let mut last_us = qualified_at;
                        let mut last_fresh = true;
                        for request in &batch.requests {
                            let key = request.key();
                            let sampled = state.recorder.samples(key.ta);
                            if sampled {
                                let waited = state.round_no.saturating_sub(
                                    state.submit_round.remove(&key).unwrap_or(state.round_no),
                                );
                                if waited > 0 {
                                    state.recorder.emit_at(
                                        key.ta,
                                        key.intra,
                                        qualified_at,
                                        obs::EventKind::RoundDeferred { rounds: waited },
                                    );
                                }
                                state.recorder.emit_at(
                                    key.ta,
                                    key.intra,
                                    qualified_at,
                                    obs::EventKind::Qualified,
                                );
                                if !last_fresh {
                                    last_us = state.recorder.now_us();
                                }
                                state.recorder.emit_at(
                                    key.ta,
                                    key.intra,
                                    last_us,
                                    obs::EventKind::Dispatched,
                                );
                            }
                            // Chaos hook: a `Stall` right before a terminal
                            // executes extends every lock the transaction
                            // holds.
                            if request.op.is_terminal() {
                                if let Some(chaos::Fault::Stall { millis }) =
                                    state.injector.fire(chaos::Hook::WorkerCommit { shard })
                                {
                                    std::thread::sleep(Duration::from_millis(millis));
                                }
                            }
                            let result = state.dispatcher.execute_request(request);
                            executed_ctr.inc();
                            if sampled {
                                last_us = state.recorder.now_us();
                                state.recorder.emit_at(
                                    key.ta,
                                    key.intra,
                                    last_us,
                                    obs::EventKind::Executed,
                                );
                            }
                            last_fresh = sampled;
                            state.executed_log.push(*request);
                            state.resolve(key, result);
                        }
                        state.round_no += 1;
                    }
                }
                Err(e) => {
                    // A rule failure fails every waiting client rather than
                    // hanging them.  The recorder freezes its window so the
                    // events leading up to the failure survive post-mortem.
                    rule_failures_ctr.inc();
                    state
                        .recorder
                        .freeze_anomaly(&format!("shard {}: rule failure: {e}", state.shard));
                    let err = e.clone();
                    let reclaim = state.disconnected;
                    state.fail_all_waiting(reclaim, |_| err.clone());
                    if state.disconnected {
                        // The drain loop cannot make progress if the rule
                        // keeps erroring (run_round never empties the
                        // pending relation), so stop instead of spinning.
                        stop = true;
                    }
                }
            }
        }

        // One hub synchronization for everything the round resolved.
        state.flush_completions();

        busy_us += iteration_started.elapsed().as_micros() as u64;
        if stop {
            break;
        }
        if state.disconnected && state.scheduler.queued() == 0 && state.scheduler.pending() == 0 {
            break;
        }
        // Refresh the gauge before the loop may block: the sample taken
        // before the round would otherwise stand for the whole idle spell.
        state.depth.store(
            (state.scheduler.queued() + state.scheduler.pending()) as u64,
            Ordering::Relaxed,
        );
    }
    state.flush_completions();

    // Publish the true final depth (0 on a clean drain; the stranded
    // backlog if the drain bailed on a rule failure) — the loop's last
    // sample predates the final round.
    state.depth.store(
        (state.scheduler.queued() + state.scheduler.pending()) as u64,
        Ordering::Relaxed,
    );

    // Prefer the kernel's on-CPU accounting; the accumulated wall spans
    // are the portable fallback (exact on an unloaded box, inflated by
    // preemption on an oversubscribed one).
    let busy_us = match (cpu_at_start, thread_on_cpu_us()) {
        (Some(start), Some(end)) => end.saturating_sub(start),
        _ => busy_us,
    };

    ShardReport {
        shard: state.shard,
        scheduler: state.scheduler.metrics(),
        dispatch: state.dispatcher.totals(),
        peak_pending: state.peak_pending,
        busy_us,
        final_rows: state.dispatcher.final_rows(rows),
        executed_log: state.executed_log,
    }
}
