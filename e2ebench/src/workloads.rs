//! The benchmark's workloads and their lazily generated transaction
//! streams.

use declsched::{shard_of, SchedulerConfig, TriggerPolicy};
use session::{Scheduler, SchedulerBuilder, Txn};
use txnstore::TxnId;
use workload::scenario::{ReadMostly, Scenario, ScenarioParams, ZipfHotspot};
use workload::ShardedSpec;

/// Where the transactions go.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Deployment {
    Unsharded,
    Passthrough,
    Sharded(usize),
}

/// Which library generator produces the statements.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Stream {
    /// `workload::scenario::ZipfHotspot`: 2 reads + 2 writes, Zipf s = 1.1.
    ZipfHotspot,
    /// `workload::scenario::ReadMostly`: 6 statements, 95 % reads.
    ReadMostly,
    /// `workload::ShardedSpec`: 2 uniform statements, 50 % updates, a fixed
    /// cross-shard share.
    CrossShard { shards: usize, fraction: f64 },
}

/// How the load is offered.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Shape {
    /// One thread keeps `depth` transactions in flight and waits on the
    /// oldest ticket.
    Closed { depth: usize },
    /// Poisson arrivals at a fixed absolute rate: one submitter thread, one
    /// collector thread.
    Open { rate_tps: f64 },
}

/// The order transaction ids reach the session in.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IdOrder {
    /// Ids increase in submission order (every benchmark workload).
    Increasing,
    /// Adjacent ids swapped (2, 1, 4, 3, ...): reproduces the unsharded
    /// SS2PL stall.
    SwappedPairs,
}

#[derive(Debug, Clone)]
pub struct Workload {
    pub name: &'static str,
    pub deployment: Deployment,
    pub stream: Stream,
    pub rows: usize,
    pub shape: Shape,
    /// `None` ships the deployment's default `SchedulerConfig`.
    pub config: Option<SchedulerConfig>,
    pub id_order: IdOrder,
    /// One transaction in this many is traced in the traced run.
    pub trace_one_in: u64,
}

impl Workload {
    pub fn builder(&self) -> SchedulerBuilder {
        let builder = Scheduler::builder().table(TABLE, self.rows);
        let builder = match self.deployment {
            Deployment::Unsharded => builder.unsharded(),
            Deployment::Passthrough => builder.passthrough(),
            Deployment::Sharded(shards) => builder.shards(shards),
        };
        match &self.config {
            Some(config) => builder.scheduler_config(config.clone()),
            None => builder,
        }
    }

    pub fn shards(&self) -> usize {
        match self.deployment {
            Deployment::Sharded(shards) => shards,
            _ => 1,
        }
    }
}

/// The table every generator writes to.
const TABLE: &str = "bench";

/// The four benchmark workloads, in the order `--workload all` runs them.
pub fn all() -> Vec<Workload> {
    let closed = Shape::Closed { depth: 32 };
    let base = Workload {
        name: "",
        deployment: Deployment::Unsharded,
        stream: Stream::ZipfHotspot,
        rows: 20_000,
        shape: closed,
        config: None,
        id_order: IdOrder::Increasing,
        trace_one_in: 8,
    };
    vec![
        Workload {
            name: "hotspot-unsharded",
            ..base.clone()
        },
        Workload {
            name: "hotspot-passthrough",
            deployment: Deployment::Passthrough,
            trace_one_in: 256,
            ..base.clone()
        },
        Workload {
            name: "xshard-sharded4",
            deployment: Deployment::Sharded(4),
            stream: Stream::CrossShard {
                shards: 4,
                fraction: 0.2,
            },
            rows: 1_000_000,
            trace_one_in: 4,
            ..base.clone()
        },
        Workload {
            name: "readmostly-trickle",
            stream: Stream::ReadMostly,
            shape: Shape::Open { rate_tps: 2_000.0 },
            trace_one_in: 4,
            ..base
        },
    ]
}

pub fn by_name(name: &str) -> Option<Workload> {
    all().into_iter().find(|w| w.name == name)
}

/// Configurations that reproduce the two findings this benchmark surfaced.
/// They are not benchmark workloads: each is expected to stall.
pub fn repro(name: &str) -> Option<Workload> {
    match name {
        // Finding (a): the hotspot workload with adjacent ids swapped.
        "stall-swapped-ids" => by_name("hotspot-unsharded").map(|w| Workload {
            name: "stall-swapped-ids",
            id_order: IdOrder::SwappedPairs,
            ..w
        }),
        // Finding (b): read-mostly offered open-loop at 10,000/s to four
        // shards with a 1 ms / 64 trigger.
        "sharded-overload" => Some(Workload {
            name: "sharded-overload",
            deployment: Deployment::Sharded(4),
            stream: Stream::ReadMostly,
            rows: 20_000,
            shape: Shape::Open { rate_tps: 10_000.0 },
            config: Some(SchedulerConfig {
                trigger: TriggerPolicy::Hybrid {
                    interval_ms: 1,
                    threshold: 64,
                },
                ..SchedulerConfig::default()
            }),
            id_order: IdOrder::Increasing,
            trace_one_in: 64,
        }),
        _ => None,
    }
}

/// Transactions generated by the library's generators, one chunk at a
/// time, with ids renumbered to increase across chunks.
pub struct TxnStream {
    stream: Stream,
    rows: usize,
    seed: u64,
    id_order: IdOrder,
    next_chunk: u64,
    /// The current chunk, reversed so the next transaction is at the end.
    ready: Vec<Txn>,
}

/// Transactions per generated chunk.  A multiple of 5, so every chunk of
/// the cross-shard stream holds exactly its 20 % of cross-shard ones.
pub const CHUNK: usize = 1_000;

impl TxnStream {
    /// A stream with its first chunk already generated.
    pub fn new(workload: &Workload, seed: u64) -> Self {
        let mut stream = TxnStream {
            stream: workload.stream,
            rows: workload.rows,
            seed,
            id_order: workload.id_order,
            next_chunk: 0,
            ready: Vec::new(),
        };
        stream.refill();
        stream
    }

    pub fn next_txn(&mut self) -> Txn {
        if self.ready.is_empty() {
            self.refill();
        }
        self.ready.pop().expect("a refilled chunk is never empty")
    }

    fn refill(&mut self) {
        let chunk = self.next_chunk;
        self.next_chunk += 1;
        let seed = mix(self.seed, chunk);
        let mut statements: Vec<Vec<txnstore::Statement>> = match self.stream {
            Stream::ZipfHotspot => scenario_chunk(&ZipfHotspot, self.rows, seed),
            Stream::ReadMostly => scenario_chunk(&ReadMostly, self.rows, seed),
            Stream::CrossShard { shards, fraction } => ShardedSpec {
                shards,
                cross_shard_fraction: fraction,
                transactions: CHUNK,
                statements_per_txn: 2,
                update_fraction: 0.5,
                table_rows: self.rows,
                table: TABLE.to_string(),
                seed,
            }
            .generate(|object| shard_of(object, shards))
            .into_iter()
            .map(|t| t.statements)
            .collect(),
        };
        // Generators number each chunk 1..=CHUNK; shift into a global,
        // strictly increasing id space.
        let offset = chunk * CHUNK as u64;
        for txn in &mut statements {
            for statement in txn.iter_mut() {
                statement.txn = TxnId(offset + statement.txn.0);
            }
        }
        if self.id_order == IdOrder::SwappedPairs {
            for pair in statements.chunks_mut(2) {
                pair.reverse();
            }
        }
        self.ready = statements
            .iter()
            .rev()
            .map(|s| Txn::from_statements(s))
            .collect();
    }
}

fn scenario_chunk(
    scenario: &dyn Scenario,
    rows: usize,
    seed: u64,
) -> Vec<Vec<txnstore::Statement>> {
    scenario
        .generate(&ScenarioParams {
            transactions: CHUNK,
            table_rows: rows,
            seed,
        })
        .into_iter()
        .map(|t| t.statements)
        .collect()
}

/// SplitMix64 finalizer over `seed` and `salt`: independent, reproducible
/// per-chunk seeds from the command-line seed.
pub fn mix(seed: u64, salt: u64) -> u64 {
    let mut z = seed ^ salt.wrapping_add(1).wrapping_mul(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ids_increase_across_chunks() {
        let w = by_name("hotspot-unsharded").unwrap();
        let mut stream = TxnStream::new(&w, 3);
        let ids: Vec<u64> = (0..2 * CHUNK + 5).map(|_| stream.next_txn().ta()).collect();
        assert!(
            ids.windows(2).all(|p| p[1] == p[0] + 1),
            "ids must be 1, 2, 3, ..."
        );
        assert_eq!(ids[0], 1);
    }

    #[test]
    fn same_seed_same_stream_and_first_chunk_is_the_library_stream() {
        let w = by_name("readmostly-trickle").unwrap();
        let render = |seed| {
            let mut stream = TxnStream::new(&w, seed);
            (0..50)
                .map(|_| format!("{:?}", stream.next_txn().requests()))
                .collect::<Vec<_>>()
        };
        assert_eq!(render(9), render(9));
        assert_ne!(render(9), render(10));
        let library = ReadMostly.generate(&ScenarioParams {
            transactions: CHUNK,
            table_rows: w.rows,
            seed: mix(9, 0),
        });
        let mut stream = TxnStream::new(&w, 9);
        for txn in library.iter().take(50) {
            let ours = stream.next_txn();
            assert_eq!(
                format!("{:?}", ours.requests()),
                format!("{:?}", Txn::from_statements(&txn.statements).requests())
            );
        }
    }

    #[test]
    fn cross_shard_share_is_exactly_one_in_five() {
        let w = by_name("xshard-sharded4").unwrap();
        let mut stream = TxnStream::new(&w, 1);
        let cross = (0..2 * CHUNK)
            .filter(|_| {
                let txn = stream.next_txn();
                let first = shard_of(txn.footprint()[0], 4);
                txn.footprint().iter().any(|&o| shard_of(o, 4) != first)
            })
            .count();
        assert_eq!(cross, 2 * CHUNK / 5);
    }

    #[test]
    fn swapped_pairs_reverse_adjacent_ids() {
        let w = repro("stall-swapped-ids").unwrap();
        let mut stream = TxnStream::new(&w, 1);
        let ids: Vec<u64> = (0..4).map(|_| stream.next_txn().ta()).collect();
        assert_eq!(ids, vec![2, 1, 4, 3]);
    }
}
