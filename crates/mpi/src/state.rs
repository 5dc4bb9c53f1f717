//! Shared job state: the wait-for registry every rank publishes its
//! blocking state into, and the cycle detector that replaces the old
//! blunt 60-second deadlock timeout.
//!
//! Each rank owns one packed `AtomicU64` slot, `(epoch << 16) | tag`:
//! the tag is the peer index the rank is blocked receiving from, or
//! one of the `RUNNING` / `FINISHED` / `FAILED` sentinels; the epoch
//! increments on every transition so a detector can tell "still in
//! the same blocked receive" from "blocked again on the same peer".
//! Only the owning rank writes its slot, so plain release stores
//! suffice.

use crate::error::{CommError, WaitEdge};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

const TAG_RUNNING: u64 = 0xFFFF;
const TAG_FINISHED: u64 = 0xFFFE;
const TAG_FAILED: u64 = 0xFFFD;

/// State shared by every rank of one SPMD job.
pub(crate) struct JobState {
    /// Packed `(epoch << 16) | tag` per rank.
    slots: Vec<AtomicU64>,
    /// One-shot failure verdicts posted by whichever rank confirms a
    /// deadlock cycle, so every member of the cycle reports the same
    /// diagnosis instead of a racy mix of deadlock/peer-terminated.
    verdicts: Vec<Mutex<Option<CommError>>>,
    /// Job-wide delivery counter: bumped on every packet handed to a
    /// mailbox and every rank completion. The stall timeout measures
    /// against this, not wall time alone — on a starved worker pool a
    /// rank can legitimately wait minutes for its turn while the job
    /// is making steady progress, and only "nothing moved anywhere"
    /// is evidence of a silent hang.
    progress: AtomicU64,
}

/// A decoded slot.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum RankState {
    Running,
    Finished,
    Failed,
    /// Blocked receiving from this peer.
    WaitingOn(usize),
}

impl JobState {
    pub fn new(p: usize) -> Self {
        JobState {
            slots: (0..p).map(|_| AtomicU64::new(TAG_RUNNING)).collect(),
            verdicts: (0..p).map(|_| Mutex::new(None)).collect(),
            progress: AtomicU64::new(0),
        }
    }

    /// Note one unit of job-wide progress (a delivery or completion).
    pub fn note_progress(&self) {
        self.progress.fetch_add(1, Ordering::Relaxed);
    }

    /// Current progress count, for stall-reset comparisons.
    pub fn progress(&self) -> u64 {
        self.progress.load(Ordering::Relaxed)
    }

    fn store(&self, rank: usize, tag: u64) {
        let epoch = self.slots[rank].load(Ordering::Relaxed) >> 16;
        self.slots[rank].store(((epoch + 1) << 16) | tag, Ordering::Release);
    }

    /// Publish "rank is blocked receiving from peer".
    pub fn set_waiting(&self, rank: usize, peer: usize) {
        debug_assert!(peer < TAG_FAILED as usize);
        self.store(rank, peer as u64);
    }

    /// Publish "rank is computing again".
    pub fn set_running(&self, rank: usize) {
        self.store(rank, TAG_RUNNING);
    }

    /// Publish the rank's final state.
    pub fn set_done(&self, rank: usize, ok: bool) {
        self.store(rank, if ok { TAG_FINISHED } else { TAG_FAILED });
    }

    /// Raw epoch+state snapshot of one slot.
    fn load(&self, rank: usize) -> (u64, RankState) {
        let v = self.slots[rank].load(Ordering::Acquire);
        let state = match v & 0xFFFF {
            TAG_RUNNING => RankState::Running,
            TAG_FINISHED => RankState::Finished,
            TAG_FAILED => RankState::Failed,
            peer => RankState::WaitingOn(peer as usize),
        };
        (v >> 16, state)
    }

    pub fn state_of(&self, rank: usize) -> RankState {
        self.load(rank).1
    }

    /// Ranks currently blocked receiving from `rank`. A finishing rank
    /// uses this to wake exactly the parked peers its termination
    /// affects (the mailbox-world replacement for mpsc's disconnect
    /// signal).
    pub fn waiters_on(&self, rank: usize) -> Vec<usize> {
        (0..self.slots.len())
            .filter(|&r| r != rank && self.state_of(r) == RankState::WaitingOn(rank))
            .collect()
    }

    /// Take the one-shot verdict another rank may have posted for us.
    pub fn take_verdict(&self, rank: usize) -> Option<CommError> {
        self.verdicts[rank].lock().unwrap().take()
    }

    fn post_verdict(&self, rank: usize, err: CommError) {
        let mut slot = self.verdicts[rank].lock().unwrap();
        if slot.is_none() {
            *slot = Some(err);
        }
    }

    /// Walk the wait-for chain from `start`. Returns the cycle as the
    /// list of `(rank, epoch, waiting_on)` observations the walk made
    /// if the chain revisits a node; `None` if it reaches a running,
    /// finished, or failed rank — those cases resolve on their own.
    ///
    /// The epochs matter: the walk reads each slot at a different
    /// instant, so the "cycle" may be a chimera stitched from waits
    /// that never coexisted. The caller re-checks that every member
    /// still holds its *observed* `(epoch, peer)` — epochs increment
    /// on every transition, so an unchanged epoch proves the slot held
    /// that exact wait for the whole interval between the two reads.
    fn find_cycle(&self, start: usize) -> Option<Vec<(usize, u64, usize)>> {
        let mut path: Vec<(usize, u64, usize)> = Vec::new();
        let mut cur = start;
        loop {
            let (epoch, next) = match self.load(cur) {
                (e, RankState::WaitingOn(peer)) => (e, peer),
                _ => return None,
            };
            path.push((cur, epoch, next));
            if let Some(pos) = path.iter().position(|&(r, _, _)| r == next) {
                return Some(path[pos..].to_vec());
            }
            cur = next;
            if path.len() > self.slots.len() {
                return None; // corrupt snapshot; let the poll retry
            }
        }
    }

    /// Try to diagnose a deadlock involving `rank` (currently blocked
    /// on `waiting_on`): find a wait-for cycle reachable from `rank`,
    /// confirm it is stable across `confirm`, and if so post a
    /// verdict to every member and return this rank's error.
    ///
    /// Three guards defeat the in-flight-message race. First, every
    /// member must still hold the exact `(epoch, peer)` the walk
    /// observed — the walk reads slots at different instants, and a
    /// rank that progressed between reads can stitch a chimera
    /// "cycle" out of waits that never coexisted (the later reads are
    /// real waits, the earlier ones already over); an unchanged epoch
    /// proves the wait held continuously, so one consistent re-read
    /// proves all the waits coexist *simultaneously*. Second, the
    /// same re-read after the confirm window catches members that
    /// made progress during it: consuming a packet bumps the
    /// consumer's epoch. Third, the `pending` predicate — "does rank
    /// r have a packet queued from rank s?", answered by the caller
    /// from the mailboxes — catches members that *could* move but
    /// haven't been scheduled: a starved rank can sit on a
    /// deliverable packet for longer than any confirm window while
    /// its slot still reads `WaitingOn`, and that wait is
    /// satisfiable, not deadlocked. A cycle counts only if every
    /// member's awaited edge is empty at both ends of the window.
    ///
    /// The edges are read before the slots. A receiving rank publishes
    /// `Running` before it takes its packet, so between the two reads
    /// a member either still has the packet queued or has a new epoch;
    /// read the other way round, a member that took its packet in
    /// between would pass both checks, and the detector would sleep
    /// out the window of a cycle that had already broken.
    pub fn diagnose_deadlock(
        &self,
        rank: usize,
        waiting_on: usize,
        confirm: std::time::Duration,
        pending: impl Fn(usize, usize) -> bool,
    ) -> Option<CommError> {
        let observed = self.find_cycle(rank)?;
        let still_observed = || {
            observed
                .iter()
                .all(|&(r, epoch, s)| self.load(r) == (epoch, RankState::WaitingOn(s)))
        };
        let awaited_edges_empty = || observed.iter().all(|&(r, _, s)| !pending(r, s));
        if !awaited_edges_empty() || !still_observed() {
            return None;
        }
        std::thread::sleep(confirm);
        if !awaited_edges_empty() || !still_observed() {
            return None;
        }
        // Canonicalize: start the cycle at its smallest member.
        let min_pos = observed
            .iter()
            .enumerate()
            .min_by_key(|&(_, &(r, _, _))| r)
            .map(|(i, _)| i)
            .unwrap();
        let n = observed.len();
        let cycle: Vec<WaitEdge> = (0..n)
            .map(|i| {
                let (waiter, _, waiting_on) = observed[(min_pos + i) % n];
                WaitEdge { waiter, waiting_on }
            })
            .collect();
        for e in &cycle {
            if e.waiter != rank {
                self.post_verdict(
                    e.waiter,
                    CommError::Deadlock {
                        rank: e.waiter,
                        waiting_on: e.waiting_on,
                        cycle: cycle.clone(),
                    },
                );
            }
        }
        Some(CommError::Deadlock {
            rank,
            waiting_on,
            cycle,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn transitions_bump_epoch_and_decode() {
        let js = JobState::new(3);
        assert_eq!(js.state_of(0), RankState::Running);
        js.set_waiting(0, 2);
        assert_eq!(js.state_of(0), RankState::WaitingOn(2));
        let (e1, _) = js.load(0);
        js.set_running(0);
        js.set_waiting(0, 2);
        let (e2, s) = js.load(0);
        assert_eq!(s, RankState::WaitingOn(2));
        assert!(e2 > e1, "re-entering the same wait must look different");
        js.set_done(0, true);
        assert_eq!(js.state_of(0), RankState::Finished);
        js.set_done(1, false);
        assert_eq!(js.state_of(1), RankState::Failed);
    }

    #[test]
    fn two_cycle_is_diagnosed_and_verdict_posted() {
        let js = JobState::new(4);
        js.set_waiting(2, 3);
        js.set_waiting(3, 2);
        let err = js
            .diagnose_deadlock(3, 2, Duration::from_millis(1), |_, _| false)
            .expect("cycle must be found");
        match &err {
            CommError::Deadlock {
                rank,
                waiting_on,
                cycle,
            } => {
                assert_eq!((*rank, *waiting_on), (3, 2));
                assert_eq!(
                    cycle.as_slice(),
                    &[
                        WaitEdge {
                            waiter: 2,
                            waiting_on: 3
                        },
                        WaitEdge {
                            waiter: 3,
                            waiting_on: 2
                        }
                    ]
                );
            }
            other => panic!("expected deadlock, got {other:?}"),
        }
        // The other member got the same cycle as a verdict.
        let v = js.take_verdict(2).expect("verdict posted for rank 2");
        assert_eq!(v.waiting_on(), Some(3));
        assert!(js.take_verdict(3).is_none(), "initiator keeps its own");
    }

    #[test]
    fn waiters_on_inverts_the_wait_edges() {
        let js = JobState::new(5);
        js.set_waiting(1, 3);
        js.set_waiting(2, 3);
        js.set_waiting(4, 0);
        assert_eq!(js.waiters_on(3), vec![1, 2]);
        assert_eq!(js.waiters_on(0), vec![4]);
        assert!(js.waiters_on(1).is_empty());
        js.set_running(1);
        assert_eq!(js.waiters_on(3), vec![2]);
    }

    #[test]
    fn member_that_moves_mid_confirm_vetoes_the_diagnosis() {
        // 2↔3 look deadlocked at walk time, but rank 3 makes progress
        // during the confirm window and re-enters the *same* wait. The
        // state alone is indistinguishable; the epoch is not.
        let js = std::sync::Arc::new(JobState::new(4));
        js.set_waiting(2, 3);
        js.set_waiting(3, 2);
        let mover = {
            let js = std::sync::Arc::clone(&js);
            std::thread::spawn(move || {
                std::thread::sleep(Duration::from_millis(20));
                js.set_running(3);
                js.set_waiting(3, 2);
            })
        };
        let verdict = js.diagnose_deadlock(2, 3, Duration::from_millis(200), |_, _| false);
        mover.join().unwrap();
        assert!(verdict.is_none(), "a member that moved is not deadlocked");
        assert!(js.take_verdict(3).is_none(), "no verdict may be posted");
    }

    #[test]
    fn member_that_takes_its_packet_mid_check_costs_no_window() {
        // Rank 3 receives from 2 while the detector checks the cycle:
        // it publishes `Running` and takes its packet between the
        // detector's edge read and slot read. Edges first, the stale
        // wait is caught at once instead of after the confirm window.
        let js = JobState::new(4);
        js.set_waiting(2, 3);
        js.set_waiting(3, 2);
        let t0 = std::time::Instant::now();
        let verdict = js.diagnose_deadlock(2, 3, Duration::from_secs(5), |r, _| {
            if r == 3 {
                js.set_running(3);
            }
            false
        });
        assert!(verdict.is_none(), "the cycle broke");
        assert!(
            t0.elapsed() < Duration::from_secs(2),
            "a broken cycle must not sleep out the confirm window"
        );
    }

    #[test]
    fn chain_to_running_rank_is_not_a_deadlock() {
        let js = JobState::new(3);
        js.set_waiting(0, 1);
        js.set_waiting(1, 2); // rank 2 still running
        assert!(js
            .diagnose_deadlock(0, 1, Duration::from_millis(1), |_, _| false)
            .is_none());
    }

    #[test]
    fn waiter_outside_cycle_is_diagnosed_too() {
        // 0 waits on 1; 1 and 2 deadlock each other. Rank 0 will never
        // be served either, and its walk finds the cycle.
        let js = JobState::new(3);
        js.set_waiting(0, 1);
        js.set_waiting(1, 2);
        js.set_waiting(2, 1);
        let err = js
            .diagnose_deadlock(0, 1, Duration::from_millis(1), |_, _| false)
            .expect("transitive deadlock");
        match err {
            CommError::Deadlock { cycle, .. } => {
                assert_eq!(cycle.len(), 2);
                assert_eq!(cycle[0].waiter, 1);
            }
            other => panic!("{other:?}"),
        }
    }
}
