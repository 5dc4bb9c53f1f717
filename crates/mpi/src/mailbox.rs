//! Per-rank mailboxes: the O(p) replacement for the O(p²) mpsc
//! channel mesh.
//!
//! Every rank owns one [`Mailbox`]; a send from rank `s` pushes onto
//! the *receiver's* mailbox under its per-sender FIFO queue, so the
//! job carries `p` mailboxes total instead of `p²` channels — the
//! difference between p=4096 being a 4096-element vector and a
//! sixteen-million-channel mesh. Queues are sparse (a `HashMap` keyed
//! by sender) because real SPMD traffic touches a handful of
//! neighbors, not all peers.
//!
//! Ordering: per-edge FIFO is preserved exactly as mpsc channels
//! preserved it — each `(sender, receiver)` edge has its own queue and
//! `push`/`try_pop` operate on queue ends. Only the owning rank ever
//! *waits* on its mailbox condvar; senders and the completion-wakeup
//! path only notify.

use crate::comm::Packet;
use std::collections::{HashMap, VecDeque};
use std::sync::{Condvar, Mutex};
use std::time::Duration;

/// One rank's inbox: per-sender FIFO queues plus the condvar its owner
/// parks on while blocked in `recv`.
pub(crate) struct Mailbox {
    inner: Mutex<HashMap<usize, VecDeque<Packet>>>,
    cv: Condvar,
}

impl Mailbox {
    pub fn new() -> Self {
        Mailbox {
            inner: Mutex::new(HashMap::new()),
            cv: Condvar::new(),
        }
    }

    /// Deliver a packet on the `(from → owner)` edge and wake the
    /// owner if it is parked.
    pub fn push(&self, from: usize, pkt: Packet) {
        let mut inner = self.inner.lock().unwrap();
        inner.entry(from).or_default().push_back(pkt);
        drop(inner);
        self.cv.notify_all();
    }

    /// Whether a packet from `from` is queued. The deadlock detector
    /// uses this to tell a genuinely blocked rank from a starved one
    /// that just hasn't consumed its mail yet.
    pub fn has_from(&self, from: usize) -> bool {
        self.inner
            .lock()
            .unwrap()
            .get(&from)
            .is_some_and(|q| !q.is_empty())
    }

    /// Non-blocking take of the next packet from `from`.
    pub fn try_pop(&self, from: usize) -> Option<Packet> {
        let mut inner = self.inner.lock().unwrap();
        let q = inner.get_mut(&from)?;
        let pkt = q.pop_front();
        if q.is_empty() {
            inner.remove(&from);
        }
        pkt
    }

    /// Whether a packet from `from` is queued, parking on the mailbox
    /// condvar for at most `timeout` if none is. Returns `false` on
    /// timeout or when woken for a reason other than a matching packet
    /// (a peer finishing, a verdict being posted) — the caller
    /// re-checks the job state and calls again. The packet stays
    /// queued: the owner takes it with [`Mailbox::try_pop`] once it has
    /// published that it is running again.
    pub fn wait_for(&self, from: usize, timeout: Duration) -> bool {
        let queued = |inner: &HashMap<usize, VecDeque<Packet>>| {
            inner.get(&from).is_some_and(|q| !q.is_empty())
        };
        let inner = self.inner.lock().unwrap();
        if queued(&inner) {
            return true;
        }
        let (inner, _timed_out) = self.cv.wait_timeout(inner, timeout).unwrap();
        queued(&inner)
    }

    /// Wake the owner without delivering anything, so a parked rank
    /// re-checks peer states immediately (used when a peer finishes or
    /// a deadlock verdict is posted, replacing the mpsc disconnect
    /// signal).
    pub fn notify(&self) {
        // Taking the lock orders this wakeup after the state change
        // the owner must observe: the owner either holds the lock in
        // `pop_or_wait` (and will re-check after waking) or has not
        // yet entered it (and will see the state on its fast path).
        drop(self.inner.lock().unwrap());
        self.cv.notify_all();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    fn pkt(v: f64) -> Packet {
        Packet {
            data: vec![v],
            send_clock: v,
        }
    }

    #[test]
    fn per_edge_fifo_is_preserved() {
        let mb = Mailbox::new();
        for i in 0..5 {
            mb.push(1, pkt(i as f64));
        }
        mb.push(2, pkt(100.0));
        for i in 0..5 {
            assert_eq!(mb.try_pop(1).unwrap().data, vec![i as f64]);
        }
        assert!(mb.try_pop(1).is_none());
        assert_eq!(mb.try_pop(2).unwrap().data, vec![100.0]);
    }

    #[test]
    fn wait_for_times_out_empty() {
        let mb = Mailbox::new();
        assert!(!mb.wait_for(0, Duration::from_millis(1)));
    }

    #[test]
    fn wait_for_leaves_the_packet_queued() {
        let mb = Mailbox::new();
        mb.push(2, pkt(5.0));
        assert!(mb.wait_for(2, Duration::from_millis(1)));
        assert!(mb.has_from(2), "waiting must not take the packet");
        assert_eq!(mb.try_pop(2).unwrap().data, vec![5.0]);
        assert!(!mb.wait_for(2, Duration::from_millis(1)));
    }

    #[test]
    fn wait_for_sees_a_concurrent_push() {
        let mb = Arc::new(Mailbox::new());
        let pusher = {
            let mb = Arc::clone(&mb);
            std::thread::spawn(move || {
                std::thread::sleep(Duration::from_millis(10));
                mb.push(3, pkt(7.0));
            })
        };
        // Generous deadline; the push should land within the first
        // couple of waits.
        let deadline = std::time::Instant::now() + Duration::from_secs(10);
        while !mb.wait_for(3, Duration::from_millis(20)) {
            assert!(std::time::Instant::now() < deadline, "push never arrived");
        }
        assert_eq!(mb.try_pop(3).unwrap().data, vec![7.0]);
        pusher.join().unwrap();
    }

    #[test]
    fn notify_wakes_without_delivery() {
        let mb = Arc::new(Mailbox::new());
        let waker = {
            let mb = Arc::clone(&mb);
            std::thread::spawn(move || {
                std::thread::sleep(Duration::from_millis(5));
                mb.notify();
            })
        };
        // A long timeout cut short by notify still returns false —
        // the caller is expected to re-check job state.
        let t0 = std::time::Instant::now();
        let got = mb.wait_for(0, Duration::from_secs(30));
        assert!(!got);
        assert!(t0.elapsed() < Duration::from_secs(10), "notify must wake");
        waker.join().unwrap();
    }
}
