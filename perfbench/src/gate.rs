//! The correctness gate for runtime histories.
//!
//! Every key of the store is a register, so a run is linearizable exactly
//! when each key's history is. Clients stop at a barrier after every epoch,
//! and a fence `Get` then reads each key written in that epoch while
//! nothing else is in flight. A fence strictly follows every operation of
//! its epoch and precedes every operation of the next, so a key's history
//! is linearizable exactly when each epoch's piece, closed by its fence and
//! starting from the previous fence's value, is. That keeps each
//! Wing–Gong search small however long the run. A `Put` that timed out may
//! still take effect at any later time, so its key is not cut again.

use abd_lincheck::history::{History, RegAction};
use abd_lincheck::{check_linearizable_with_limit, CheckResult};
use std::collections::BTreeMap;
use std::time::Instant;

/// State cap per Wing–Gong search; hitting it is an unknown verdict.
pub const STATE_LIMIT: usize = 2_000_000;

/// What a `Get` of a never-written key returns in a record. Every key the
/// workloads touch is preloaded, so reading it is always a violation.
pub const ABSENT: u64 = u64::MAX;

/// What one runtime operation did.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Kind {
    /// A completed `Put` of a value.
    Write(u64),
    /// A completed `Get` returning a value.
    Read(u64),
    /// A `Put` that timed out: it may or may not take effect.
    PendingWrite(u64),
}

/// One operation as the benchmark stamped it.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct Rec {
    /// The issuing thread of control (each is sequential).
    pub client: usize,
    /// Key operated on.
    pub key: u64,
    /// What happened.
    pub kind: Kind,
    /// Invocation, in ns since the run's base instant.
    pub start: u64,
    /// Response (or time-out), in ns since the run's base instant.
    pub end: u64,
    /// Epoch the operation belongs to.
    pub epoch: u32,
    /// Whether this is the fence read closing its key's epoch.
    pub fence: bool,
}

/// The gate's verdicts and its own cost.
#[derive(Clone, Debug, Default)]
pub struct Verdicts {
    /// Wing–Gong searches run.
    pub checks: u64,
    /// Searches that hit the state cap.
    pub unknown: u64,
    /// Operations judged.
    pub ops: u64,
    /// Nanoseconds spent inside the searches.
    pub ns: u64,
    /// One line per non-linearizable piece.
    pub violations: Vec<String>,
}

impl Verdicts {
    /// Judges one history with the Wing–Gong search, timing the call.
    pub fn judge(&mut self, h: &History<u64>, what: impl FnOnce() -> String) {
        let t0 = Instant::now();
        let verdict = check_linearizable_with_limit(h, STATE_LIMIT);
        self.ns += t0.elapsed().as_nanos() as u64;
        self.checks += 1;
        self.ops += h.len() as u64;
        match verdict {
            CheckResult::Linearizable => {}
            CheckResult::Unknown => self.unknown += 1,
            CheckResult::NotLinearizable => self.violations.push(what()),
        }
    }
}

/// Checks every key's history in `recs`; `initial(key)` is the value the
/// key was preloaded with.
pub fn check_runtime(recs: &[Rec], initial: impl Fn(u64) -> u64) -> Verdicts {
    let mut by_key: BTreeMap<u64, Vec<&Rec>> = BTreeMap::new();
    for r in recs {
        by_key.entry(r.key).or_default().push(r);
    }
    let mut v = Verdicts::default();
    for (key, mut ops) in by_key {
        ops.sort_by_key(|r| (r.epoch, r.fence, r.start));
        let mut h = History::new(initial(key));
        let mut from_epoch = 0;
        let mut uncut = false;
        for r in ops {
            match r.kind {
                Kind::Write(x) => h.push(r.client, RegAction::Write(x), r.start, r.end),
                Kind::Read(x) => h.push(r.client, RegAction::Read(x), r.start, r.end),
                Kind::PendingWrite(x) => {
                    h.push_pending_write(r.client, x, r.start);
                    uncut = true;
                }
            }
            if let (true, false, Kind::Read(x)) = (r.fence, uncut, r.kind) {
                v.judge(&h, || {
                    format!("key {key}, epochs {from_epoch}..={}", r.epoch)
                });
                h = History::new(x);
                from_epoch = r.epoch + 1;
            }
        }
        if !h.is_empty() || !h.pending_writes().is_empty() {
            v.judge(&h, || format!("key {key}, epochs {from_epoch}.."));
        }
    }
    v
}

/// Planted runtime records with two stale reads, each after a completed
/// newer write: one inside an epoch, one across a fence. The gate must
/// reject both, or it cannot be trusted with a real run.
pub fn planted() -> (Vec<Rec>, fn(u64) -> u64) {
    let rec = |client, key, kind, start, end, epoch, fence| Rec {
        client,
        key,
        kind,
        start,
        end,
        epoch,
        fence,
    };
    let recs = vec![
        // Key 1: Put(5) completes at 20, yet a Get at 30 returns the preload.
        rec(0, 1, Kind::Write(5), 10, 20, 0, false),
        rec(1, 1, Kind::Read(101), 30, 40, 0, false),
        // Key 2: the fence reads 6; the next epoch's Get returns the preload.
        rec(0, 2, Kind::Write(6), 10, 20, 0, false),
        rec(2, 2, Kind::Read(6), 30, 40, 0, true),
        rec(1, 2, Kind::Read(102), 50, 60, 1, false),
        // Key 3 is clean: a read concurrent with a write may see either.
        rec(0, 3, Kind::Write(7), 10, 50, 0, false),
        rec(1, 3, Kind::Read(103), 20, 30, 0, false),
        rec(2, 3, Kind::Read(7), 60, 70, 0, true),
    ];
    (recs, |k| 100 + k)
}

/// Runs the planted records through [`check_runtime`]; `Err` if the gate
/// does not flag exactly the two stale reads.
pub fn self_test() -> Result<(), String> {
    let (recs, initial) = planted();
    let v = check_runtime(&recs, initial);
    let expect = ["key 1, epochs 0..", "key 2, epochs 1.."];
    if v.violations == expect {
        Ok(())
    } else {
        Err(format!(
            "the gate missed a planted stale read: flagged {:?}, expected {expect:?}",
            v.violations
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn planted_stale_reads_are_rejected() {
        self_test().unwrap();
    }

    #[test]
    fn fences_cut_histories_into_epochs() {
        let (recs, initial) = planted();
        let clean: Vec<Rec> = recs.into_iter().filter(|r| r.key == 3).collect();
        let v = check_runtime(&clean, initial);
        assert!(v.violations.is_empty());
        assert_eq!(v.checks, 1, "one piece, closed by the fence");
    }

    #[test]
    fn a_timed_out_put_keeps_its_key_uncut() {
        // Without the pending write the later read of 9 would be invalid;
        // with it, the read is explained, and the fence must not cut.
        let r = |kind, start, end, epoch, fence| Rec {
            client: if fence { 2 } else { 0 },
            key: 4,
            kind,
            start,
            end,
            epoch,
            fence,
        };
        let recs = vec![
            r(Kind::PendingWrite(9), 10, 20, 0, false),
            r(Kind::Read(104), 30, 40, 0, true),
            r(Kind::Read(9), 50, 60, 1, false),
        ];
        let v = check_runtime(&recs, |k| 100 + k);
        assert!(v.violations.is_empty(), "{:?}", v.violations);
        assert_eq!(v.checks, 1);
    }
}
