//! Correctness of a recorded run, checked from outside the library.
//!
//! `KvHistory::check` stops at the first key with more than
//! `MAX_OPS_PER_KEY` operations, so the history is split per key here:
//!
//! * a key with at most `MAX_OPS_PER_KEY` ops gets the Wing–Gong
//!   linearizability search;
//! * a key with more gets a validity check: every get returns the key's
//!   initial tag or the tag of a write to that key invoked before the get
//!   returned.
//!
//! The workloads inject no faults and never delete, so a failed, refused,
//! timed-out or absent-reading op is a failure too.

use std::collections::HashMap;

use swarm_core::{KvHistory, KvHistoryOp, KvOpKind, MAX_OPS_PER_KEY};

/// What a check saw.
#[derive(Default)]
pub struct CheckReport {
    pub ops: u64,
    pub keys_over_cap: u64,
    pub failed_ops: u64,
}

/// Checks every op of `histories` (disjoint keyspaces, e.g. one per shard);
/// `initial(key)` is the tag the key was bulk-loaded with. Returns the first
/// violation found, in ascending key order.
pub fn check(
    histories: &[&KvHistory],
    initial: impl Fn(u64) -> u64,
) -> Result<CheckReport, String> {
    let mut ops: Vec<&KvHistoryOp> = histories.iter().flat_map(|h| h.ops()).collect();
    // Stable: each key's ops keep their recording order.
    ops.sort_by_key(|o| o.key);
    let mut report = CheckReport {
        ops: ops.len() as u64,
        ..Default::default()
    };
    for key_ops in ops.chunk_by(|a, b| a.key == b.key) {
        let key = key_ops[0].key;
        let init = initial(key);
        report.failed_ops += key_ops.iter().filter(|o| is_failure(o)).count() as u64;
        if key_ops.len() <= MAX_OPS_PER_KEY {
            let mut h = KvHistory::new();
            h.set_initial(key, init);
            for o in key_ops {
                match o.ret {
                    Some(ret) => h.push(key, o.invoke, ret, o.kind),
                    None => h.push_ambiguous(key, o.invoke, o.kind),
                }
            }
            h.check().map_err(|e| format!("linearizability: {e}"))?;
        } else {
            report.keys_over_cap += 1;
            check_validity(key, key_ops, init)?;
        }
    }
    Ok(report)
}

fn is_failure(op: &KvHistoryOp) -> bool {
    op.ret.is_none()
        || matches!(
            op.kind,
            KvOpKind::Get(None) | KvOpKind::FailAbsent | KvOpKind::FailNoop
        )
}

/// Every get returns the initial tag or the tag of a write invoked before
/// the get returned.
fn check_validity(key: u64, ops: &[&KvHistoryOp], init: u64) -> Result<(), String> {
    let mut first_invoke: HashMap<u64, u64> = HashMap::new();
    for o in ops {
        if let KvOpKind::Update(tag) | KvOpKind::Insert(tag) = o.kind {
            let at = first_invoke.entry(tag).or_insert(o.invoke);
            *at = (*at).min(o.invoke);
        }
    }
    for o in ops {
        if let (KvOpKind::Get(Some(tag)), Some(ret)) = (o.kind, o.ret) {
            let valid = tag == init || first_invoke.get(&tag).is_some_and(|&at| at <= ret);
            if !valid {
                return Err(format!(
                    "validity: key {key}: get [{}, {ret}] returned tag {tag:#x}, \
                     which no earlier write produced",
                    o.invoke
                ));
            }
        }
    }
    Ok(())
}
