//! Correctness checks on every run.  Each returns the violations it found;
//! any violation fails the command.

use crate::drive::Outcome;
use crate::workloads::{Stream, Workload};
use session::Report;
use std::collections::HashSet;

pub fn check(workload: &Workload, outcome: &Outcome, report: &Report) -> Vec<String> {
    let mut violations = Vec::new();
    let completions = &outcome.completions;
    let submits = &outcome.submits;

    let resolved = completions.committed + completions.failed;
    if resolved != submits.submitted {
        violations.push(format!(
            "{} transactions submitted but {resolved} resolved",
            submits.submitted
        ));
    }

    // Key-as-value: every generator writes a row's own key into it, so
    // whatever order commits landed in, a row a committed transaction wrote
    // holds its key.
    let mut wrong = 0u64;
    let mut first_wrong = None;
    for (word_index, &word) in completions.written.iter().enumerate() {
        let mut bits = word;
        while bits != 0 {
            let key = word_index * 64 + bits.trailing_zeros() as usize;
            bits &= bits - 1;
            let value = report.final_rows.get(key).copied();
            if value != Some(key as i64) {
                wrong += 1;
                first_wrong.get_or_insert((key, value));
            }
        }
    }
    if let Some((key, value)) = first_wrong {
        violations.push(format!(
            "{wrong} written rows do not hold their key (row {key} holds {value:?})"
        ));
    }

    // The server executed exactly the data statements of the committed
    // transactions (a failed transaction's partial work is excluded).
    let failed: HashSet<u64> = completions.failed_ids.iter().copied().collect();
    let executed = report
        .executed_log
        .iter()
        .filter(|r| r.op.is_data() && !failed.contains(&r.ta))
        .count() as u64;
    if executed != completions.data_committed {
        violations.push(format!(
            "executed {executed} data requests of committed transactions, \
             expected {}",
            completions.data_committed
        ));
    }

    if let Some(detail) = &report.sharded {
        if detail.unreclaimed_homes != 0 {
            violations.push(format!(
                "{} transactions left routing state behind (unreclaimed_homes)",
                detail.unreclaimed_homes
            ));
        }
        if detail.cross_shard_transactions != submits.cross_shard {
            violations.push(format!(
                "router counted {} cross-shard transactions, the generator sent {}",
                detail.cross_shard_transactions, submits.cross_shard
            ));
        }
    }
    if let Stream::CrossShard { fraction, .. } = workload.stream {
        let transactions = report.transactions.max(1) as f64;
        let crossed = report
            .sharded
            .as_ref()
            .map_or(0, |d| d.cross_shard_transactions) as f64;
        let share = crossed / transactions;
        // Every fifth transaction crosses, so a run that stops mid-cycle
        // is off by less than one transaction.
        if (share - fraction).abs() > 1.0 / transactions + 1e-12 {
            violations.push(format!(
                "measured cross-shard share {share:.6}, expected {fraction}"
            ));
        }
    }
    violations
}
