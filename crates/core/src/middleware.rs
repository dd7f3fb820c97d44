//! The threaded middleware: client workers, control instance and the
//! scheduler thread (the paper's Section 3.3 architecture).
//!
//! "When clients connect to the external scheduler, a control instance
//! creates a separate client worker for each connected client. … If the
//! client worker receives a request from its client, the request is, in a
//! first step, buffered in an incoming queue. Periodically, the scheduler
//! gets triggered …"
//!
//! In this implementation the control instance is [`Middleware`], client
//! workers are [`ClientHandle`]s (one per connected client, each backed by a
//! crossbeam channel into the scheduler thread), and the scheduler thread
//! runs the drain → rule → dispatch loop, replying to every client once its
//! transaction has been executed on the server.
//!
//! Submission is **transaction-granular and pipelined**: a client hands over
//! a whole transaction (one or more [`Request`]s, SLA metadata intact) with
//! [`ClientHandle::submit_transaction`] and receives a [`TxnTicket`]
//! immediately, so one client thread can keep dozens of transactions in
//! flight.  The `session` crate's unified `Session` façade builds on exactly
//! this shape (the sharded router fleet offers the same contract).

use crate::dispatch::{DispatchReport, Dispatcher};
use crate::error::{SchedError, SchedResult};
use crate::metrics::SchedulerMetrics;
use crate::protocol::SchedulingPolicy;
use crate::request::{Request, RequestKey};
use crate::scheduler::{DeclarativeScheduler, SchedulerConfig};
use crate::trigger::LoopWait;
use crossbeam::channel::{bounded, unbounded, Receiver, RecvTimeoutError, Sender};
use std::collections::{HashMap, HashSet};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};
use txnstore::Statement;

/// A whole client transaction travelling to the scheduler thread.
struct TxnMessage {
    requests: Vec<Request>,
    reply: Sender<SchedResult<()>>,
}

/// Messages understood by the scheduler thread.
enum ControlMessage {
    /// A client transaction to schedule and execute.
    Txn(TxnMessage),
    /// Orderly shutdown: drain what is pending, then stop.
    Shutdown,
}

/// A pending reply for one submitted transaction: resolves once every
/// request of the transaction has been scheduled and executed on the server.
///
/// Dropping a ticket without waiting is safe — the scheduler thread still
/// executes the transaction and simply discards the undeliverable reply.
pub struct TxnTicket {
    rx: Receiver<SchedResult<()>>,
}

impl TxnTicket {
    /// Block until the transaction has fully executed.
    pub fn wait(self) -> SchedResult<()> {
        self.rx.recv().map_err(|_| SchedError::ChannelClosed {
            endpoint: "scheduler thread",
        })?
    }

    /// The raw completion channel, for callers (like the unified `Session`
    /// façade) that multiplex many tickets.
    pub fn into_receiver(self) -> Receiver<SchedResult<()>> {
        self.rx
    }
}

/// Handle held by one connected client; cheap to clone per client worker.
#[derive(Clone)]
pub struct ClientHandle {
    sender: Sender<ControlMessage>,
}

impl ClientHandle {
    /// Submit a whole transaction — one or more requests in intra order,
    /// SLA metadata intact — without blocking.  The returned [`TxnTicket`]
    /// resolves once every request has been scheduled and executed, so a
    /// client can pipeline many transactions before waiting on any of them.
    pub fn submit_transaction(&self, requests: Vec<Request>) -> SchedResult<TxnTicket> {
        let (reply_tx, reply_rx) = bounded(1);
        self.sender
            .send(ControlMessage::Txn(TxnMessage {
                requests,
                reply: reply_tx,
            }))
            .map_err(|_| SchedError::ChannelClosed {
                endpoint: "scheduler thread",
            })?;
        Ok(TxnTicket { rx: reply_rx })
    }

    /// Submit a statement and wait until the middleware has scheduled and
    /// executed it on the server.
    ///
    /// Deprecated: one blocking round trip per *statement* cannot pipeline
    /// and carries no transaction context.  The exact replacement is
    /// `session::Session::execute` with a single-statement `session::Txn`
    /// (`session::Session::submit` keeps it non-blocking).
    ///
    /// # Migration
    ///
    /// ```ignore
    /// // Before (deprecated, statement-at-a-time):
    /// handle.execute(Statement::update(TxnId(1), 0, "bench", 7, 7))?;
    ///
    /// // After — the statement becomes a typed one-request transaction:
    /// let scheduler = session::Scheduler::builder().table("bench", 100).build()?;
    /// let mut session = scheduler.connect();
    /// session.execute(session::Txn::new(1).write(7, 7))?;
    /// ```
    ///
    /// (The example is `ignore`d because `session` sits above this crate in
    /// the dependency graph; it compiles verbatim from any crate that
    /// depends on `session`.)
    #[deprecated(note = "use `session::Session::submit` (or `submit_transaction`) instead")]
    pub fn execute(&self, statement: Statement) -> SchedResult<()> {
        self.submit_transaction(vec![Request::from_statement(0, &statement)])?
            .wait()
    }

    /// Submit a statement carrying SLA metadata.
    ///
    /// Deprecated: the exact replacement is `session::Txn::with_sla`, which
    /// stamps the metadata on *every* request of the transaction so the SLA
    /// relation sees it end-to-end (this shim tagged one statement at a
    /// time, which is how SLA metadata used to get lost mid-transaction).
    ///
    /// # Migration
    ///
    /// ```ignore
    /// // Before (deprecated):
    /// handle.execute_with_sla(statement, Some(sla))?;
    ///
    /// // After — SLA attached once, carried by every request:
    /// session.execute(session::Txn::new(1).write(7, 7).commit().with_sla(sla))?;
    /// ```
    #[deprecated(note = "use `session::Txn::with_sla` through `session::Session` instead")]
    pub fn execute_with_sla(
        &self,
        statement: Statement,
        sla: Option<crate::request::SlaMeta>,
    ) -> SchedResult<()> {
        let mut request = Request::from_statement(0, &statement);
        if let Some(sla) = sla {
            request = request.with_sla(sla);
        }
        self.submit_transaction(vec![request])?.wait()
    }

    /// Submit a whole transaction at once and wait until every statement has
    /// been scheduled and executed.
    ///
    /// [`txnstore::Statement`]s carry no SLA metadata, so this entry point
    /// cannot either.  The exact replacement is `session::Session::submit`
    /// with `session::Txn::from_statements` — it preserves the statements'
    /// transaction id and intra order, returns an awaitable ticket instead
    /// of blocking, and `session::Txn::with_sla` restores SLA end-to-end.
    ///
    /// # Migration
    ///
    /// ```ignore
    /// // Before (deprecated, blocks until the whole transaction ran):
    /// handle.execute_transaction(statements)?;
    ///
    /// // After — same statements, non-blocking ticket, SLA optional:
    /// let ticket = session.submit(session::Txn::from_statements(&statements))?;
    /// ticket.wait()?;
    /// ```
    #[deprecated(note = "use `session::Session::submit` (or `submit_transaction`) instead")]
    pub fn execute_transaction(&self, statements: Vec<Statement>) -> SchedResult<()> {
        let requests = statements
            .iter()
            .map(|statement| Request::from_statement(0, statement))
            .collect();
        self.submit_transaction(requests)?.wait()
    }
}

/// Summary returned when the middleware shuts down.
#[derive(Debug, Clone)]
pub struct MiddlewareReport {
    /// Full scheduler-side metrics (rounds, requests scheduled, rule
    /// timings), mergeable across sharded deployments.
    pub scheduler: SchedulerMetrics,
    /// The dispatcher's totals (reads/writes/commits/aborts executed).
    pub dispatch: DispatchReport,
    /// Every request executed on the server, in execution order — the
    /// basis for cross-backend admission-order comparisons.
    pub executed_log: Vec<Request>,
    /// Final value of every benchmark-table row (index = row key), so
    /// final-state equivalence can be checked without reaching into the
    /// scheduler thread's engine.
    pub final_rows: Vec<i64>,
    /// Wall-clock duration from start to shutdown.
    pub wall: Duration,
}

/// The control instance: owns the scheduler thread.
pub struct Middleware {
    sender: Sender<ControlMessage>,
    handle: JoinHandle<MiddlewareReport>,
    depth: Arc<AtomicU64>,
}

impl Middleware {
    /// Start the middleware: a scheduler thread using `policy`/`config` over
    /// a dispatcher with a fresh `rows`-row benchmark table named `table`.
    pub fn start(
        policy: impl Into<SchedulingPolicy>,
        config: SchedulerConfig,
        table: impl Into<String>,
        rows: usize,
    ) -> SchedResult<Self> {
        Self::start_with_aux(policy, config, table, rows, Vec::new())
    }

    /// Like [`Middleware::start`], additionally registering auxiliary
    /// relations (e.g. `object_class` for consistency rationing) with the
    /// scheduler so aux-joining protocols work through the middleware.
    pub fn start_with_aux(
        policy: impl Into<SchedulingPolicy>,
        config: SchedulerConfig,
        table: impl Into<String>,
        rows: usize,
        aux_relations: Vec<relalg::Table>,
    ) -> SchedResult<Self> {
        Self::start_observed(
            policy,
            config,
            table,
            rows,
            aux_relations,
            obs::TraceSink::disabled(),
            Arc::new(obs::Registry::new()),
        )
    }

    /// Like [`Middleware::start_with_aux`], with the scheduler thread
    /// wired into an observability sink and metrics registry: the thread
    /// records per-request lifecycle events (`RoundDeferred → Qualified →
    /// Dispatched → Executed`) into a flight recorder obtained from
    /// `sink`, and registers the `core.*` counters (rounds, requests
    /// executed, rule failures, batch-size histogram, live queue-depth
    /// gauge) into `registry`.
    pub fn start_observed(
        policy: impl Into<SchedulingPolicy>,
        config: SchedulerConfig,
        table: impl Into<String>,
        rows: usize,
        aux_relations: Vec<relalg::Table>,
        sink: obs::TraceSink,
        registry: Arc<obs::Registry>,
    ) -> SchedResult<Self> {
        Self::start_chaos_observed(
            policy,
            config,
            table,
            rows,
            aux_relations,
            sink,
            registry,
            Arc::new(chaos::FaultInjector::disabled()),
        )
    }

    /// Like [`Middleware::start_observed`], additionally threading a chaos
    /// [`chaos::FaultInjector`] into the scheduler thread.  The loop fires
    /// [`chaos::Hook::WorkerRound`] (shard 0) once per iteration — `Stall`
    /// sleeps the loop, `Kill` turns the thread into a dead worker that
    /// fails everything in flight, purges its un-admitted state and
    /// refuses later submissions — and [`chaos::Hook::WorkerCommit`]
    /// before each terminal executes (`Stall` there is a lock-hold
    /// extension).
    #[allow(clippy::too_many_arguments)]
    pub fn start_chaos_observed(
        policy: impl Into<SchedulingPolicy>,
        config: SchedulerConfig,
        table: impl Into<String>,
        rows: usize,
        aux_relations: Vec<relalg::Table>,
        sink: obs::TraceSink,
        registry: Arc<obs::Registry>,
        injector: Arc<chaos::FaultInjector>,
    ) -> SchedResult<Self> {
        let table = table.into();
        let dispatcher = Dispatcher::new(table.clone(), rows)?;
        let mut scheduler = DeclarativeScheduler::new(policy, config);
        for aux in aux_relations {
            scheduler.register_aux_relation(aux);
        }
        let (sender, receiver) = unbounded::<ControlMessage>();
        let depth = Arc::new(AtomicU64::new(0));
        let gauge = Arc::clone(&depth);
        registry.adopt_gauge("core.queue_depth", Arc::clone(&depth));
        let handle = std::thread::Builder::new()
            .name("declsched-scheduler".to_string())
            .spawn(move || {
                scheduler_loop(
                    scheduler, dispatcher, receiver, rows, gauge, sink, registry, injector,
                )
            })
            .expect("spawning the scheduler thread cannot fail");
        Ok(Middleware {
            sender,
            handle,
            depth,
        })
    }

    /// A cheap clone of the scheduler's live queue-depth gauge (incoming
    /// queue + pending relation, updated by the scheduler thread once per
    /// loop iteration) that outlives the middleware handle.  The session
    /// layer's overload-shedding policy samples this watermark.
    pub fn depth_gauge(&self) -> Arc<AtomicU64> {
        Arc::clone(&self.depth)
    }

    /// Connect a new client (the control instance "creates a separate client
    /// worker for each connected client").
    pub fn connect(&self) -> ClientHandle {
        ClientHandle {
            sender: self.sender.clone(),
        }
    }

    /// Submit a transaction without connecting a dedicated client handle.
    pub fn submit_transaction(&self, requests: Vec<Request>) -> SchedResult<TxnTicket> {
        self.connect().submit_transaction(requests)
    }

    /// Shut down: tell the scheduler thread to drain what is pending, wait
    /// for it to stop and return its report.  Requests submitted through
    /// still-alive [`ClientHandle`]s after this call are not executed.
    pub fn shutdown(self) -> MiddlewareReport {
        let _ = self.sender.send(ControlMessage::Shutdown);
        drop(self.sender);
        self.handle
            .join()
            .expect("scheduler thread never panics during an orderly shutdown")
    }
}

/// A client transaction waiting for its requests to execute.
struct Ticket {
    /// Request keys of this transaction still registered in `waiting`.
    remaining: usize,
    /// Taken by the first terminal outcome (all-executed or first failure).
    reply: Option<Sender<SchedResult<()>>>,
}

/// Ticket table of the scheduler thread: transactions in flight, keyed by
/// the request keys still owed to them.  Vacated slots are recycled
/// through a free list, so memory stays bounded by in-flight transactions
/// rather than growing with the middleware's lifetime.
#[derive(Default)]
struct Tickets {
    slots: Vec<Option<Ticket>>,
    free: Vec<usize>,
    waiting: HashMap<RequestKey, usize>,
}

impl Tickets {
    /// Accept a transaction: validate duplicate keys, then register every
    /// request against a fresh ticket.  Returns the requests on success, or
    /// replies with the failure and returns `None`.
    fn accept(
        &mut self,
        requests: Vec<Request>,
        reply: Sender<SchedResult<()>>,
    ) -> Option<Vec<Request>> {
        if requests.is_empty() {
            let _ = reply.send(Ok(()));
            return None;
        }
        // Validate the whole batch before touching any state: a duplicate
        // (ta, intra) — within the batch or against an in-flight ticket —
        // would make both submissions unaccountable.
        let mut batch_keys = HashSet::with_capacity(requests.len());
        for request in &requests {
            let key = request.key();
            if self.waiting.contains_key(&key) || !batch_keys.insert(key) {
                let _ = reply.send(Err(SchedError::Dispatch {
                    message: format!(
                        "duplicate request key T{}[{}] submitted to the scheduler",
                        key.ta, key.intra
                    ),
                }));
                return None;
            }
        }
        let ticket = Ticket {
            remaining: requests.len(),
            reply: Some(reply),
        };
        let index = match self.free.pop() {
            Some(index) => {
                self.slots[index] = Some(ticket);
                index
            }
            None => {
                self.slots.push(Some(ticket));
                self.slots.len() - 1
            }
        };
        for request in &requests {
            self.waiting.insert(request.key(), index);
        }
        Some(requests)
    }

    /// Resolve one executed (or failed) request against its ticket.  The
    /// slot is vacated only once *every* key of the transaction has
    /// resolved, so later keys of an already-failed transaction can never
    /// hit a recycled slot.
    fn resolve(&mut self, key: RequestKey, result: SchedResult<()>) {
        let Some(index) = self.waiting.remove(&key) else {
            return;
        };
        let Some(ticket) = self.slots[index].as_mut() else {
            return;
        };
        ticket.remaining -= 1;
        match result {
            Ok(()) => {
                if ticket.remaining == 0 {
                    if let Some(reply) = ticket.reply.take() {
                        let _ = reply.send(Ok(()));
                    }
                }
            }
            Err(e) => {
                if let Some(reply) = ticket.reply.take() {
                    let _ = reply.send(Err(e));
                }
            }
        }
        if ticket.remaining == 0 {
            self.slots[index] = None;
            self.free.push(index);
        }
    }

    /// Fail every transaction still waiting (shutdown fixpoint or rule
    /// failure).
    fn fail_all(&mut self, err: impl Fn(RequestKey) -> SchedError) {
        let waiting: Vec<(RequestKey, usize)> = self.waiting.drain().collect();
        for (key, index) in waiting {
            if let Some(ticket) = self.slots[index].as_mut() {
                if let Some(reply) = ticket.reply.take() {
                    let _ = reply.send(Err(err(key)));
                }
            }
        }
        // Nothing is waiting any more: every slot is vacant.
        self.slots.clear();
        self.free.clear();
    }
}

/// The flight recorder's submission-round map, on the emission hot path
/// twice per sampled request — hence [`obs::FastIdBuildHasher`] rather
/// than SipHash.
type SubmitRoundMap = HashMap<RequestKey, u64, obs::FastIdBuildHasher>;

/// The scheduler thread body.
#[allow(clippy::too_many_arguments)]
fn scheduler_loop(
    mut scheduler: DeclarativeScheduler,
    mut dispatcher: Dispatcher,
    receiver: Receiver<ControlMessage>,
    rows: usize,
    depth: Arc<AtomicU64>,
    sink: obs::TraceSink,
    registry: Arc<obs::Registry>,
    injector: Arc<chaos::FaultInjector>,
) -> MiddlewareReport {
    let started = Instant::now();
    let mut tickets = Tickets::default();
    let mut executed_log: Vec<Request> = Vec::new();
    let mut disconnected = false;
    // Chaos `Kill`: the thread keeps answering messages (with errors) so
    // clients never hang, but schedules and executes nothing any more.
    let mut killed = false;

    // Flight recorder + live metrics.  The recorder is thread-owned (no
    // locking on emit) and flushes into the sink when this function
    // returns; `submit_round` remembers, for sampled transactions only,
    // the round number at submission so qualification can report how many
    // rounds the request sat pending.
    let mut recorder = sink.recorder();
    let mut submit_round: SubmitRoundMap = SubmitRoundMap::default();
    let mut round_no: u64 = 0;
    let rounds_ctr = registry.counter("core.rounds");
    let executed_ctr = registry.counter("core.requests_executed");
    let rule_failures_ctr = registry.counter("core.rule_failures");
    let batch_hist = registry.histogram("core.batch_size");

    // Whether the previous round executed anything: a productive round can
    // release locks that unblock still-pending requests, so the next round
    // runs immediately instead of first blocking on the channel.
    let mut made_progress = false;
    loop {
        // Collect what has arrived.  The loop is work-conserving: it polls
        // after a productive round (and while draining for shutdown),
        // re-checks a time-based trigger that holds queued work every 1 ms,
        // and otherwise sleeps until a message arrives — an idle middleware
        // takes no timer wake-ups and runs no rounds.
        let wait = if made_progress || disconnected {
            LoopWait::Poll
        } else if killed {
            LoopWait::Idle
        } else {
            scheduler.idle_wait()
        };
        match wait.recv(&receiver) {
            Ok(first) => {
                let now_ms = started.elapsed().as_millis() as u64;
                let mut handle = |msg: ControlMessage, disconnected: &mut bool| match msg {
                    ControlMessage::Txn(msg) => {
                        if killed {
                            // A dead worker refuses instead of hanging the
                            // client.
                            let _ = msg.reply.send(Err(SchedError::Dispatch {
                                message: "chaos: scheduler worker killed".to_string(),
                            }));
                            return;
                        }
                        if let Some(requests) = tickets.accept(msg.requests, msg.reply) {
                            for request in requests {
                                if recorder.samples(request.ta) {
                                    submit_round.insert(request.key(), round_no);
                                }
                                scheduler.submit(request, now_ms);
                            }
                        }
                    }
                    ControlMessage::Shutdown => *disconnected = true,
                };
                handle(first, &mut disconnected);
                // Drain any further messages that are already queued up.
                while let Ok(msg) = receiver.try_recv() {
                    handle(msg, &mut disconnected);
                }
            }
            Err(RecvTimeoutError::Timeout) => {}
            Err(RecvTimeoutError::Disconnected) => {
                disconnected = true;
            }
        }

        // Chaos hook: once per loop iteration, after the mailbox drain.
        match injector.fire(chaos::Hook::WorkerRound { shard: 0 }) {
            Some(chaos::Fault::Stall { millis }) => {
                std::thread::sleep(Duration::from_millis(millis));
            }
            Some(chaos::Fault::Kill) if !killed => {
                killed = true;
                recorder.freeze_anomaly("chaos: scheduler worker killed");
                tickets.fail_all(|_| SchedError::Dispatch {
                    message: "chaos: scheduler worker killed".to_string(),
                });
                submit_round.clear();
                let now_ms = started.elapsed().as_millis() as u64;
                scheduler.purge_unscheduled(now_ms);
            }
            _ => {}
        }

        depth.store(
            (scheduler.queued() + scheduler.pending()) as u64,
            Ordering::Relaxed,
        );
        made_progress = false;

        let now_ms = started.elapsed().as_millis() as u64;
        // When shutting down, keep scheduling until everything drained.
        let batch = if killed {
            None
        } else if disconnected && (scheduler.queued() > 0 || scheduler.pending() > 0) {
            Some(scheduler.run_round(now_ms))
        } else {
            match scheduler.tick(now_ms) {
                Ok(Some(b)) => Some(Ok(b)),
                Ok(None) => None,
                Err(e) => Some(Err(e)),
            }
        };

        if let Some(batch) = batch {
            match batch {
                Ok(batch) => {
                    if disconnected && batch.is_empty() && scheduler.queued() == 0 {
                        // Shutdown fixpoint: no new requests can arrive and
                        // the rule admits nothing more (e.g. a client went
                        // away without committing).  Fail the stragglers
                        // instead of spinning forever.
                        tickets.fail_all(|key| SchedError::TransactionFinished { ta: key.ta });
                        submit_round.clear();
                        break;
                    }
                    made_progress = !batch.is_empty();
                    rounds_ctr.inc();
                    batch_hist.observe(batch.requests.len() as u64);
                    let qualified_at = if recorder.enabled() && !batch.is_empty() {
                        recorder.now_us()
                    } else {
                        0
                    };
                    // Batch execution is sequential, so a request's
                    // `Executed` stamp is exactly the next request's
                    // `Dispatched` moment — chaining `last_us` halves the
                    // hot-path clock reads.  The stamp goes stale only when
                    // an unsampled request executes in between (sampled
                    // tracing), in which case the next dispatch re-reads.
                    let mut last_us = qualified_at;
                    let mut last_fresh = true;
                    for request in &batch.requests {
                        let key = request.key();
                        let sampled = recorder.samples(request.ta);
                        if sampled {
                            let waited = round_no
                                .saturating_sub(submit_round.remove(&key).unwrap_or(round_no));
                            if waited > 0 {
                                recorder.emit_at(
                                    key.ta,
                                    key.intra,
                                    qualified_at,
                                    obs::EventKind::RoundDeferred { rounds: waited },
                                );
                            }
                            recorder.emit_at(
                                key.ta,
                                key.intra,
                                qualified_at,
                                obs::EventKind::Qualified,
                            );
                            if !last_fresh {
                                last_us = recorder.now_us();
                            }
                            recorder.emit_at(
                                key.ta,
                                key.intra,
                                last_us,
                                obs::EventKind::Dispatched,
                            );
                        }
                        // Chaos hook: a `Stall` right before a terminal
                        // executes extends every lock the transaction holds.
                        if request.op.is_terminal() {
                            if let Some(chaos::Fault::Stall { millis }) =
                                injector.fire(chaos::Hook::WorkerCommit { shard: 0 })
                            {
                                std::thread::sleep(Duration::from_millis(millis));
                            }
                        }
                        let result = dispatcher.execute_request(request);
                        executed_ctr.inc();
                        if sampled {
                            last_us = recorder.now_us();
                            recorder.emit_at(key.ta, key.intra, last_us, obs::EventKind::Executed);
                        }
                        last_fresh = sampled;
                        executed_log.push(*request);
                        tickets.resolve(key, result);
                    }
                    scheduler.recycle_batch(batch.requests);
                    round_no += 1;
                }
                Err(e) => {
                    // A rule failure fails every waiting client rather than
                    // hanging them.  The recorder freezes its window so the
                    // events leading up to the failure survive post-mortem.
                    rule_failures_ctr.inc();
                    recorder.freeze_anomaly(&format!("rule failure: {e}"));
                    let err = e.clone();
                    tickets.fail_all(|_| err.clone());
                    submit_round.clear();
                    if disconnected {
                        // The drain loop cannot make progress if the rule
                        // keeps erroring, so stop instead of spinning.
                        break;
                    }
                }
            }
        }

        if disconnected && scheduler.queued() == 0 && scheduler.pending() == 0 {
            break;
        }
        // Refresh the gauge before the loop may block: the sample taken
        // before the round would otherwise stand for the whole idle spell.
        depth.store(
            (scheduler.queued() + scheduler.pending()) as u64,
            Ordering::Relaxed,
        );
    }

    // Publish the true final depth (0 on a clean drain) — the loop's last
    // sample predates the final round.
    depth.store(
        (scheduler.queued() + scheduler.pending()) as u64,
        Ordering::Relaxed,
    );

    MiddlewareReport {
        scheduler: scheduler.metrics(),
        dispatch: dispatcher.totals(),
        executed_log,
        final_rows: dispatcher.final_rows(rows),
        wall: started.elapsed(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::{Protocol, ProtocolKind};
    use crate::request::SlaMeta;
    use crate::trigger::TriggerPolicy;
    use txnstore::TxnId;

    fn config() -> SchedulerConfig {
        SchedulerConfig {
            trigger: TriggerPolicy::Hybrid {
                interval_ms: 1,
                threshold: 4,
            },
            ..SchedulerConfig::default()
        }
    }

    #[test]
    fn single_client_round_trip() {
        let mw = Middleware::start(
            Protocol::algebra(ProtocolKind::Ss2pl),
            config(),
            "bench",
            100,
        )
        .unwrap();
        let client = mw.connect();
        client
            .submit_transaction(vec![Request::read(0, 1, 0, 5)])
            .unwrap()
            .wait()
            .unwrap();
        let mut write = Request::write(0, 1, 1, 5);
        write.write_value = Some(relalg::Value::Int(42));
        client
            .submit_transaction(vec![write])
            .unwrap()
            .wait()
            .unwrap();
        client
            .submit_transaction(vec![Request::commit(0, 1, 2)])
            .unwrap()
            .wait()
            .unwrap();
        let report = mw.shutdown();
        assert_eq!(report.dispatch.executed, 2);
        assert_eq!(report.dispatch.commits, 1);
        assert!(report.scheduler.rounds >= 1);
        assert_eq!(report.scheduler.requests_scheduled, 3);
        assert_eq!(report.executed_log.len(), 3);
        assert_eq!(report.final_rows.len(), 100);
        assert_eq!(report.final_rows[5], 42);
    }

    #[test]
    fn concurrent_clients_on_conflicting_rows_all_complete() {
        let mw = Middleware::start(
            Protocol::algebra(ProtocolKind::Ss2pl),
            config(),
            "bench",
            10,
        )
        .unwrap();
        let mut joins = Vec::new();
        for ta in 1..=4u64 {
            let client = mw.connect();
            joins.push(std::thread::spawn(move || {
                // Every client touches the same row 3, forcing the
                // declarative rule to serialise them.
                client
                    .submit_transaction(vec![
                        Request::write(0, ta, 0, 3),
                        Request::commit(0, ta, 1),
                    ])
                    .unwrap()
                    .wait()
                    .unwrap();
            }));
        }
        for j in joins {
            j.join().unwrap();
        }
        let report = mw.shutdown();
        assert_eq!(report.dispatch.executed, 4);
        assert_eq!(report.dispatch.commits, 4);
    }

    #[test]
    fn pipelined_submission_keeps_many_transactions_in_flight() {
        let mw = Middleware::start(
            Protocol::algebra(ProtocolKind::Ss2pl),
            config(),
            "bench",
            100,
        )
        .unwrap();
        let client = mw.connect();
        // 32 transactions in flight from one thread before any wait.
        let tickets: Vec<TxnTicket> = (1..=32u64)
            .map(|ta| {
                client
                    .submit_transaction(vec![
                        Request::write(0, ta, 0, ta as i64),
                        Request::commit(0, ta, 1),
                    ])
                    .unwrap()
            })
            .collect();
        // Wait out of submission order: reverse.
        for ticket in tickets.into_iter().rev() {
            ticket.wait().unwrap();
        }
        let report = mw.shutdown();
        assert_eq!(report.dispatch.commits, 32);
        assert_eq!(report.dispatch.executed, 32);
    }

    #[test]
    fn sla_metadata_travels_with_transaction_submissions() {
        // Regression for the old `execute_transaction` silently dropping SLA
        // metadata: with the SLA-priority protocol, a premium transaction
        // submitted *after* a free one must be dispatched first when both
        // land in the same round — which can only happen if the scheduler's
        // `sla` relation actually saw the metadata.
        let mw = Middleware::start(
            Protocol::algebra(ProtocolKind::SlaPriority),
            SchedulerConfig {
                trigger: TriggerPolicy::Hybrid {
                    interval_ms: 40,
                    threshold: 64,
                },
                ..SchedulerConfig::default()
            },
            "bench",
            100,
        )
        .unwrap();
        let client = mw.connect();
        let free = Request::read(0, 1, 0, 1).with_sla(SlaMeta {
            priority: 1,
            class: "free",
            arrival_ms: 0,
            deadline_ms: 1_000,
        });
        let premium = Request::read(0, 2, 0, 2).with_sla(SlaMeta {
            priority: 3,
            class: "premium",
            arrival_ms: 0,
            deadline_ms: 50,
        });
        let t_free = client.submit_transaction(vec![free]).unwrap();
        let t_premium = client.submit_transaction(vec![premium]).unwrap();
        t_free.wait().unwrap();
        t_premium.wait().unwrap();
        let report = mw.shutdown();
        let order: Vec<u64> = report.executed_log.iter().map(|r| r.ta).collect();
        assert_eq!(
            order,
            vec![2, 1],
            "premium (T2) must be dispatched before free (T1)"
        );
    }

    #[test]
    fn duplicate_request_keys_are_rejected() {
        let mw = Middleware::start(
            Protocol::algebra(ProtocolKind::Ss2pl),
            SchedulerConfig {
                trigger: TriggerPolicy::FillLevel { threshold: 1_000 },
                ..SchedulerConfig::default()
            },
            "bench",
            100,
        )
        .unwrap();
        let client = mw.connect();
        let err = client
            .submit_transaction(vec![Request::write(0, 1, 0, 3), Request::write(0, 1, 0, 3)])
            .unwrap()
            .wait()
            .unwrap_err();
        assert!(err.to_string().contains("duplicate request key"));
        // Against an in-flight (still queued) ticket.
        let held = client
            .submit_transaction(vec![Request::write(0, 2, 0, 4), Request::commit(0, 2, 1)])
            .unwrap();
        let err = client
            .submit_transaction(vec![Request::write(0, 2, 0, 4)])
            .unwrap()
            .wait()
            .unwrap_err();
        assert!(err.to_string().contains("duplicate request key"));
        let report = mw.shutdown();
        held.wait().unwrap();
        assert_eq!(report.dispatch.commits, 1);
    }

    #[test]
    fn dropping_tickets_does_not_wedge_the_scheduler() {
        let mw = Middleware::start(
            Protocol::algebra(ProtocolKind::Ss2pl),
            config(),
            "bench",
            100,
        )
        .unwrap();
        let client = mw.connect();
        for ta in 1..=8u64 {
            // Submit and immediately drop the ticket.
            let _ = client
                .submit_transaction(vec![
                    Request::write(0, ta, 0, ta as i64),
                    Request::commit(0, ta, 1),
                ])
                .unwrap();
        }
        let report = mw.shutdown();
        assert_eq!(report.dispatch.commits, 8);
    }

    #[test]
    #[allow(deprecated)]
    fn deprecated_execute_shims_still_round_trip() {
        let mw = Middleware::start(
            Protocol::algebra(ProtocolKind::Ss2pl),
            config(),
            "bench",
            100,
        )
        .unwrap();
        let client = mw.connect();
        client
            .execute(Statement::select(TxnId(1), 0, "bench", 5))
            .unwrap();
        client
            .execute_transaction(vec![
                Statement::update(TxnId(1), 1, "bench", 5, 42),
                Statement::commit(TxnId(1), 2, "bench"),
            ])
            .unwrap();
        let report = mw.shutdown();
        assert_eq!(report.dispatch.executed, 2);
        assert_eq!(report.dispatch.commits, 1);
        assert_eq!(report.scheduler.requests_scheduled, 3);
        assert_eq!(report.scheduler.requests_submitted, 3);
    }

    #[test]
    fn shutdown_with_no_clients_is_clean() {
        let mw = Middleware::start(Protocol::datalog(ProtocolKind::Fcfs), config(), "bench", 10)
            .unwrap();
        let report = mw.shutdown();
        assert_eq!(report.dispatch.executed, 0);
        assert_eq!(report.scheduler.rounds, 0);
        assert!(report.executed_log.is_empty());
    }
}
