//! Sequential-consistency witnesses.
//!
//! The paper's Table 1 compares per-key consistency guarantees across PS
//! architectures; Section 3.4 proves them for Lapse. These checks are the
//! *empirical* side: tests and the Table 1 experiment run adversarial
//! workloads (concurrent pulls/pushes racing relocations), record per-
//! worker operation logs, and validate witnesses that are **necessary
//! conditions** of the claimed guarantees. A violation is a proof the
//! guarantee does not hold; absence of violations under heavy schedules is
//! evidence it does.
//!
//! The workloads use single-float keys and **non-negative increments**,
//! which make three witnesses checkable:
//!
//! * **No lost updates** — cumulative pushes must all be reflected in the
//!   final value (holds for every PS, Section 2.1).
//! * **Monotonic reads per worker** — with only non-negative increments,
//!   a key's value is non-decreasing along any single serialization, so
//!   one worker's reads must be non-decreasing in program order. This is
//!   a witness of sequential consistency properties (1)+(2) and is the
//!   check that the Theorem 3 counterexample (location caches + async)
//!   trips.
//! * **Read your writes** — a worker's read must be at least the sum of
//!   its own earlier pushes to that key (client-centric consistency).

use std::collections::BTreeMap;

use lapse_net::{Key, WorkerId};

/// One logged client operation on a single-float key.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum LogEvent {
    /// Pushed an increment (must be ≥ 0 for the witnesses to apply).
    Push(f64),
    /// Pulled and observed a value.
    Pull(f64),
}

/// Program-order log of one worker.
#[derive(Debug, Clone)]
pub struct WorkerLog {
    /// The logging worker.
    pub worker: WorkerId,
    /// `(key, event)` in program order (i.e. issue order; for async
    /// operations, completion values are recorded at their issue slot).
    pub events: Vec<(Key, LogEvent)>,
}

impl WorkerLog {
    /// Creates an empty log.
    pub fn new(worker: WorkerId) -> Self {
        WorkerLog {
            worker,
            events: Vec::new(),
        }
    }

    /// Records a push of `delta` to `key`.
    pub fn push(&mut self, key: Key, delta: f64) {
        self.events.push((key, LogEvent::Push(delta)));
    }

    /// Records a pull of `key` observing `value`.
    pub fn pull(&mut self, key: Key, value: f64) {
        self.events.push((key, LogEvent::Pull(value)));
    }
}

/// A witness violation.
#[derive(Debug, Clone, PartialEq)]
pub struct Violation {
    /// The worker whose log violated the witness.
    pub worker: WorkerId,
    /// The key involved.
    pub key: Key,
    /// Human-readable description.
    pub detail: String,
}

/// Tolerance for float accumulation error.
const EPS: f64 = 1e-3;

/// Checks that every final value equals the sum of all pushes to its key
/// (no lost updates). `finals` maps keys to final values; keys never
/// pushed may be omitted.
pub fn check_no_lost_updates(finals: &BTreeMap<Key, f64>, logs: &[WorkerLog]) -> Vec<Violation> {
    // Violations are reported in key order.
    let mut sums: BTreeMap<Key, f64> = BTreeMap::new();
    for log in logs {
        for &(key, ev) in &log.events {
            if let LogEvent::Push(delta) = ev {
                *sums.entry(key).or_insert(0.0) += delta;
            }
        }
    }
    let mut violations = Vec::new();
    for (key, expected) in &sums {
        let got = finals.get(key).copied().unwrap_or(0.0);
        let scale = expected.abs().max(1.0);
        if (got - expected).abs() > EPS * scale {
            violations.push(Violation {
                worker: WorkerId::new(lapse_net::NodeId(0), 0),
                key: *key,
                detail: format!("final value {got} != pushed sum {expected}"),
            });
        }
    }
    violations
}

/// Checks per-worker monotonic reads (requires all pushes ≥ 0).
pub fn check_monotonic_reads(logs: &[WorkerLog]) -> Vec<Violation> {
    let mut violations = Vec::new();
    for log in logs {
        let mut last_read: BTreeMap<Key, f64> = BTreeMap::new();
        for &(key, ev) in &log.events {
            match ev {
                LogEvent::Push(delta) => {
                    assert!(delta >= 0.0, "monotonic-reads witness needs deltas >= 0");
                }
                LogEvent::Pull(v) => {
                    if let Some(&prev) = last_read.get(&key) {
                        if v < prev - EPS {
                            violations.push(Violation {
                                worker: log.worker,
                                key,
                                detail: format!("read {v} after having read {prev}"),
                            });
                        }
                    }
                    let e = last_read.entry(key).or_insert(v);
                    *e = e.max(v);
                }
            }
        }
    }
    violations
}

/// Checks read-your-writes per worker (requires all pushes ≥ 0): each read
/// must be at least the sum of the worker's own earlier pushes to the key.
pub fn check_read_your_writes(logs: &[WorkerLog]) -> Vec<Violation> {
    let mut violations = Vec::new();
    for log in logs {
        let mut own: BTreeMap<Key, f64> = BTreeMap::new();
        for &(key, ev) in &log.events {
            match ev {
                LogEvent::Push(delta) => {
                    assert!(delta >= 0.0, "read-your-writes witness needs deltas >= 0");
                    *own.entry(key).or_insert(0.0) += delta;
                }
                LogEvent::Pull(v) => {
                    let mine = own.get(&key).copied().unwrap_or(0.0);
                    if v < mine - EPS {
                        violations.push(Violation {
                            worker: log.worker,
                            key,
                            detail: format!("read {v} but had already pushed {mine}"),
                        });
                    }
                }
            }
        }
    }
    violations
}

#[cfg(test)]
mod tests {
    use super::*;
    use lapse_net::NodeId;

    fn w(slot: u16) -> WorkerId {
        WorkerId::new(NodeId(0), slot)
    }

    #[test]
    fn lost_update_detected() {
        let mut a = WorkerLog::new(w(0));
        a.push(Key(1), 2.0);
        let mut b = WorkerLog::new(w(1));
        b.push(Key(1), 3.0);
        let mut finals = BTreeMap::new();
        finals.insert(Key(1), 5.0);
        assert!(check_no_lost_updates(&finals, &[a.clone(), b.clone()]).is_empty());
        finals.insert(Key(1), 4.0); // lost one update
        assert_eq!(check_no_lost_updates(&finals, &[a, b]).len(), 1);
    }

    #[test]
    fn monotonic_reads_detected() {
        let mut a = WorkerLog::new(w(0));
        a.pull(Key(1), 1.0);
        a.pull(Key(1), 3.0);
        assert!(check_monotonic_reads(&[a.clone()]).is_empty());
        a.pull(Key(1), 2.0); // goes backwards
        let v = check_monotonic_reads(&[a]);
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].key, Key(1));
    }

    #[test]
    fn monotonic_reads_per_key_independent() {
        let mut a = WorkerLog::new(w(0));
        a.pull(Key(1), 5.0);
        a.pull(Key(2), 1.0); // different key may be lower
        assert!(check_monotonic_reads(&[a]).is_empty());
    }

    #[test]
    fn read_your_writes_detected() {
        let mut a = WorkerLog::new(w(0));
        a.push(Key(1), 2.0);
        a.pull(Key(1), 2.0);
        assert!(check_read_your_writes(&[a.clone()]).is_empty());
        a.push(Key(1), 1.0);
        a.pull(Key(1), 2.5); // misses part of own writes
        assert_eq!(check_read_your_writes(&[a]).len(), 1);
    }

    #[test]
    fn others_writes_do_not_trigger_ryw() {
        let mut a = WorkerLog::new(w(0));
        a.pull(Key(1), 0.0); // others pushed but we haven't
        assert!(check_read_your_writes(&[a]).is_empty());
    }
}
