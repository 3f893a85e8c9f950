//! The correctness check of a run, outside the timed window: the client
//! history is linearizable key by key, every reconfiguration step was
//! acknowledged in epoch order, and the final configuration agrees on
//! how much it applied.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicUsize, Ordering::Relaxed};
use std::time::{Duration, Instant};

use kvstore::{linearizable, HistoryOp, KvOp, KvOutput, KvStore};
use simnet::{SimRng, SimTime};

use crate::fleet::{ReconfigAck, SessionLog};

/// Past this much checking time the remaining keys are sampled.
const LINCHECK_BUDGET: Duration = Duration::from_secs(10);
/// Keys checked at least, however long they take.
const LINCHECK_MIN_KEYS: usize = 512;

fn key_of(op: &KvOp) -> &str {
    match op {
        KvOp::Get(k) | KvOp::Put(k, _) | KvOp::Delete(k) | KvOp::Append(k, _) => k,
        KvOp::Cas { key, .. } => key,
    }
}

/// Projects the sessions' histories onto single keys and checks each
/// projection with `kvstore::lincheck::linearizable` against an empty
/// store. Every operation of the workloads touches one key, and
/// linearizability is local, so the whole history is linearizable iff
/// every projection is.
///
/// An unanswered write may or may not have taken effect. It joins its
/// key's history with a response time of "never": the checker may then
/// order it anywhere after its send, including after everything else,
/// which is right in both cases because a write's output is always
/// `Written`. Unanswered reads have no effect and are left out.
///
/// Returns the number of keys checked, or the first offending key.
pub fn check_linearizable(sessions: Vec<SessionLog>, seed: u64) -> Result<usize, String> {
    let mut by_key: BTreeMap<String, Vec<HistoryOp<KvOp, KvOutput>>> = BTreeMap::new();
    for (process, session) in sessions.into_iter().enumerate() {
        if let Some(p) = session.pending {
            if matches!(p.op, KvOp::Put(..)) {
                by_key
                    .entry(key_of(&p.op).to_owned())
                    .or_default()
                    .push(HistoryOp {
                        process: process as u64,
                        invoke: p.invoked,
                        response: SimTime::MAX,
                        input: p.op,
                        output: KvOutput::Written,
                    });
            }
        }
        for op in session.ops {
            by_key
                .entry(key_of(&op.input).to_owned())
                .or_default()
                .push(op);
        }
    }
    // Seeded order, so that a sampled check covers the same keys again.
    let mut keys: Vec<String> = by_key.keys().cloned().collect();
    let mut rng = SimRng::seed_from_u64(seed);
    for i in (1..keys.len()).rev() {
        keys.swap(i, rng.gen_range(0..=i));
    }
    // The keys are independent, so the checking is spread over the cores;
    // nothing else runs by now. Each worker strides through the shuffled
    // order, so a sampled check still covers a prefix of it.
    let workers = std::thread::available_parallelism().map_or(1, |n| n.get());
    let started = Instant::now();
    let checked = AtomicUsize::new(0);
    let check_stride = |first: usize| -> Result<(), String> {
        for key in keys.iter().skip(first).step_by(workers) {
            if checked.load(Relaxed) >= LINCHECK_MIN_KEYS && started.elapsed() > LINCHECK_BUDGET {
                break;
            }
            if !linearizable(KvStore::new(), &by_key[key]) {
                return Err(format!(
                    "history of {key:?} ({} operations) is not linearizable",
                    by_key[key].len()
                ));
            }
            checked.fetch_add(1, Relaxed);
        }
        Ok(())
    };
    std::thread::scope(|scope| {
        let check_stride = &check_stride;
        let handles: Vec<_> = (0..workers)
            .map(|first| scope.spawn(move || check_stride(first)))
            .collect();
        handles
            .into_iter()
            .try_for_each(|h| h.join().expect("the checker does not panic"))
    })?;
    Ok(checked.into_inner())
}

/// Every scripted step of every group was acknowledged, and each group's
/// acknowledgements carry strictly increasing epochs.
pub fn check_admin(acks: &[ReconfigAck], groups: u32, steps: usize) -> Result<(), String> {
    for group in 0..groups {
        let epochs: Vec<u64> = acks
            .iter()
            .filter(|a| a.group == group)
            .map(|a| a.epoch)
            .collect();
        if epochs.len() != steps {
            return Err(format!(
                "group {group}: {} of {steps} reconfigurations acknowledged",
                epochs.len()
            ));
        }
        if epochs.windows(2).any(|w| w[1] <= w[0]) {
            return Err(format!("group {group}: epochs not increasing: {epochs:?}"));
        }
    }
    Ok(())
}

/// After load stopped, a majority of the final configuration reports the
/// same `ops_applied` and no member is ahead of that value. Returns how
/// far the slowest member lags, in operations.
pub fn check_convergence(applied: &[(u64, u64)], members: &[u64]) -> Result<u64, String> {
    let counts: Vec<u64> = members
        .iter()
        .filter_map(|m| applied.iter().find(|(n, _)| n == m).map(|&(_, c)| c))
        .collect();
    if counts.len() != members.len() {
        return Err(format!("members {members:?} missing from {applied:?}"));
    }
    let top = *counts.iter().max().expect("a configuration has members");
    let agreeing = counts.iter().filter(|&&c| c == top).count();
    if agreeing <= members.len() / 2 {
        return Err(format!(
            "no majority of {members:?} agrees on the highest ops_applied: {applied:?}"
        ));
    }
    Ok(top - counts.iter().min().expect("non-empty"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fleet::Pending;

    fn op(
        process: u64,
        invoke: u64,
        response: u64,
        input: KvOp,
        output: KvOutput,
    ) -> HistoryOp<KvOp, KvOutput> {
        HistoryOp {
            process,
            invoke: SimTime::from_micros(invoke),
            response: SimTime::from_micros(response),
            input,
            output,
        }
    }
    fn put(k: &str, v: u8) -> KvOp {
        KvOp::Put(k.into(), vec![v])
    }
    fn get(k: &str) -> KvOp {
        KvOp::Get(k.into())
    }
    fn val(v: u8) -> KvOutput {
        KvOutput::Value(Some(vec![v]))
    }
    fn session(ops: Vec<HistoryOp<KvOp, KvOutput>>) -> SessionLog {
        SessionLog { ops, pending: None }
    }

    #[test]
    fn concurrent_sessions_on_two_keys_pass() {
        let a = session(vec![
            op(0, 0, 10, put("x", 1), KvOutput::Written),
            op(0, 20, 30, get("y"), val(7)),
        ]);
        let b = session(vec![
            op(1, 5, 15, put("y", 7), KvOutput::Written),
            op(1, 25, 35, get("x"), val(1)),
        ]);
        assert_eq!(check_linearizable(vec![a, b], 1), Ok(2));
    }

    #[test]
    fn a_stale_read_is_rejected() {
        // x=1 then x=2 both acknowledged before the read starts, yet the
        // read returns 1.
        let a = session(vec![
            op(0, 0, 10, put("x", 1), KvOutput::Written),
            op(0, 20, 30, put("x", 2), KvOutput::Written),
        ]);
        let b = session(vec![op(1, 40, 50, get("x"), val(1))]);
        let err = check_linearizable(vec![a, b], 1).unwrap_err();
        assert!(err.contains("\"x\""), "{err}");
    }

    #[test]
    fn a_lost_acknowledged_write_is_rejected() {
        let a = session(vec![op(0, 0, 10, put("x", 1), KvOutput::Written)]);
        let b = session(vec![op(1, 20, 30, get("x"), KvOutput::Value(None))]);
        assert!(check_linearizable(vec![a, b], 1).is_err());
    }

    #[test]
    fn an_unanswered_write_may_or_may_not_have_happened() {
        let unanswered = |seen: KvOutput| {
            let a = SessionLog {
                ops: vec![op(0, 0, 10, put("x", 1), KvOutput::Written)],
                pending: Some(Pending {
                    op: put("x", 2),
                    invoked: SimTime::from_micros(20),
                }),
            };
            let b = session(vec![op(1, 30, 40, get("x"), seen)]);
            check_linearizable(vec![a, b], 1)
        };
        assert!(unanswered(val(2)).is_ok(), "took effect before the read");
        assert!(unanswered(val(1)).is_ok(), "had not taken effect yet");
        assert!(unanswered(val(3)).is_err(), "nobody wrote 3");
    }

    fn ack(group: u32, epoch: u64) -> ReconfigAck {
        ReconfigAck {
            group,
            sent_us: 0,
            acked_us: 1,
            epoch,
        }
    }

    #[test]
    fn admin_steps_must_all_be_acknowledged_in_epoch_order() {
        let good = [ack(0, 1), ack(1, 1), ack(0, 2), ack(1, 2)];
        assert!(check_admin(&good, 2, 2).is_ok());
        assert!(check_admin(&good[..3], 2, 2).is_err(), "group 1 short");
        let repeated = [ack(0, 1), ack(0, 1)];
        assert!(check_admin(&repeated, 1, 2).is_err());
        assert!(check_admin(&[], 4, 0).is_ok(), "no script, nothing owed");
    }

    #[test]
    fn convergence_needs_a_majority_at_the_top() {
        let applied = [(0, 90), (1, 100), (2, 100), (3, 100)];
        assert_eq!(check_convergence(&applied, &[1, 2, 3]), Ok(0));
        assert_eq!(check_convergence(&applied, &[0, 1, 2]), Ok(10));
        // A member ahead of the majority: someone applied what the
        // others never will, or the others lost it.
        assert!(check_convergence(&[(0, 100), (1, 100), (2, 101)], &[0, 1, 2]).is_err());
        assert!(check_convergence(&applied, &[1, 2, 7]).is_err());
    }
}
