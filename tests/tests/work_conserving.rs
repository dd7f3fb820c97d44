//! Work-conserving scheduling loops on the default configuration: a
//! sequential client never waits for a timer, and an idle deployment —
//! unsharded or a four-shard fleet — runs no rounds and takes no loop
//! wake-ups.

use chaos::{Fault, FaultPlan, Hook};
use session::{Scheduler, SchedulerBuilder, Txn};
use std::time::{Duration, Instant};

const SHARDS: usize = 4;

/// Run `count` sequential one-statement transactions with `execute` and
/// return the elapsed time.
fn sequential_execute(builder: SchedulerBuilder, count: u64) -> Duration {
    let scheduler = builder.table("bench", 1_000).build().unwrap();
    let mut session = scheduler.connect();
    let started = Instant::now();
    for ta in 1..=count {
        let txn = Txn::new(ta).write((ta % 1_000) as i64, ta as i64).commit();
        session.execute(txn).unwrap();
    }
    let elapsed = started.elapsed();
    drop(session);
    scheduler.shutdown();
    elapsed
}

#[test]
fn sequential_transactions_do_not_wait_for_a_timer() {
    // Under a 10 ms time-based trigger each of these waits for the timer,
    // which takes at least 2 s in total.
    for (name, builder) in [
        ("unsharded", Scheduler::builder()),
        ("sharded4", Scheduler::builder().shards(SHARDS)),
    ] {
        let elapsed = sequential_execute(builder, 200);
        assert!(
            elapsed < Duration::from_secs(1),
            "{name}: 200 sequential transactions took {elapsed:?}"
        );
    }
}

/// Loop wake-ups and rounds so far: per-shard `WorkerRound` visits and
/// the registry's round counters.
fn activity(scheduler: &Scheduler) -> (Vec<u64>, Vec<u64>) {
    let injector = scheduler.chaos_injector();
    let visits = (0..SHARDS)
        .map(|shard| injector.visits(Hook::WorkerRound { shard }))
        .collect();
    let snapshot = scheduler.registry().snapshot();
    let rounds = std::iter::once("core.rounds".to_string())
        .chain((0..SHARDS).map(|shard| format!("shard.{shard}.rounds")))
        .map(|name| snapshot.counter(&name))
        .collect();
    (visits, rounds)
}

#[test]
fn an_idle_fleet_runs_no_rounds_and_takes_no_wake_ups() {
    for (name, builder) in [
        ("unsharded", Scheduler::builder()),
        ("sharded4", Scheduler::builder().shards(SHARDS)),
    ] {
        // One far-off entry per shard turns the injector into a visit
        // counter.
        let plan = (0..SHARDS).fold(FaultPlan::new(), |plan, shard| {
            plan.inject(Hook::WorkerRound { shard }, u64::MAX, Fault::Kill)
        });
        let scheduler = builder.table("bench", 1_000).chaos(plan).build().unwrap();
        let mut session = scheduler.connect();
        for ta in 1..=64u64 {
            let txn = Txn::new(ta).write(ta as i64, 1).commit();
            session.execute(txn).unwrap();
        }
        // Let the last completions settle the loops before the first
        // reading.
        std::thread::sleep(Duration::from_millis(50));
        let before = activity(&scheduler);
        assert!(before.1.iter().sum::<u64>() > 0, "{name}: no rounds ran");
        std::thread::sleep(Duration::from_millis(300));
        let after = activity(&scheduler);
        assert_eq!(
            before, after,
            "{name}: (WorkerRound visits, rounds) moved while idle"
        );
        drop(session);
        scheduler.shutdown();
    }
}
