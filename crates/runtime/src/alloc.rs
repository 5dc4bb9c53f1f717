//! Per-thread accounting of live distributed-matrix memory.
//!
//! Every [`crate::DistMatrix`] registers its local block here on
//! construction and deregisters on drop, giving each rank (one OS
//! thread in this reproduction) a live-byte counter and a high-water
//! mark. The executor resets the counters at program start and reads
//! the peak at program end; unlike the named-workspace peak it counts
//! *every* allocation, including compiler temporaries — the paper's
//! §4 point that the run-time library both allocates and de-allocates
//! is what keeps this curve flat.
//!
//! Counters are thread-local because ranks are threads: no locks on
//! the allocation path, and a sequential caller sees exactly its own
//! traffic.
//!
//! Blocks of [`RECYCLE_MIN`] elements or more are also recycled. The
//! system allocator hands freed memory of a few hundred KiB back to the
//! kernel (`munmap`, or a trim of the heap top), so the next block of
//! that size faults in and zeroes every page again. For a
//! sub-millisecond program over a 1 MiB matrix those faults cost more
//! than the arithmetic, and their cost swings with the host's memory
//! pressure, so run times spread. A dropped [`crate::DistMatrix`] or
//! [`crate::Dense`] instead puts such a block on a process-wide free
//! list, and [`buffer`], [`zeroed`] and [`copied`] take the smallest
//! kept block that fits. The list keeps the largest blocks that fit in
//! [`RECYCLE_BYTES`]. Recycling changes where a block lives, never a
//! value: every block handed out is cleared and fully written.

use std::cell::Cell;
use std::sync::Mutex;

thread_local! {
    static LIVE_BYTES: Cell<usize> = const { Cell::new(0) };
    static PEAK_BYTES: Cell<usize> = const { Cell::new(0) };
}

/// Reset this thread's counters (call at the start of a measured run).
pub fn reset() {
    LIVE_BYTES.with(|c| c.set(0));
    PEAK_BYTES.with(|c| c.set(0));
}

/// Bytes of distributed-matrix storage currently live on this thread.
pub fn live_bytes() -> usize {
    LIVE_BYTES.with(Cell::get)
}

/// High-water mark since the last [`reset`].
pub fn peak_bytes() -> usize {
    PEAK_BYTES.with(Cell::get)
}

pub(crate) fn note_alloc(bytes: usize) {
    LIVE_BYTES.with(|live| {
        let now = live.get() + bytes;
        live.set(now);
        PEAK_BYTES.with(|peak| {
            if now > peak.get() {
                peak.set(now);
            }
        });
    });
}

pub(crate) fn note_free(bytes: usize) {
    // Saturating: a matrix allocated before the last reset() may be
    // dropped after it.
    LIVE_BYTES.with(|live| live.set(live.get().saturating_sub(bytes)));
}

/// Smallest block, in elements, worth recycling: 128 KiB, the size from
/// which the system allocator maps blocks on their own.
pub const RECYCLE_MIN: usize = 1 << 14;
/// Most bytes the free list keeps.
pub const RECYCLE_BYTES: usize = 8 << 20;

static FREE: Mutex<Vec<Vec<f64>>> = Mutex::new(Vec::new());

fn free_list() -> std::sync::MutexGuard<'static, Vec<Vec<f64>>> {
    // A panic while the lock is held cannot leave the list invalid.
    FREE.lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// An empty vector with room for `len` elements: the smallest kept
/// block of `len` to `2·len` elements when `len` is large, a fresh
/// allocation otherwise.
///
/// A fresh block of `len` elements can later serve every request down
/// to `len / 2`, so a miss also frees the kept blocks in that range:
/// they would only hold memory while the new block does their work.
pub fn buffer(len: usize) -> Vec<f64> {
    if len < RECYCLE_MIN {
        return Vec::with_capacity(len);
    }
    let mut free = free_list();
    let best = (0..free.len())
        .filter(|&i| (len..=2 * len).contains(&free[i].capacity()))
        .min_by_key(|&i| free[i].capacity());
    if let Some(i) = best {
        let mut v = free.swap_remove(i);
        drop(free);
        v.clear();
        return v;
    }
    let (superseded, kept): (Vec<_>, Vec<_>) = std::mem::take(&mut *free)
        .into_iter()
        .partition(|b| (len / 2..len).contains(&b.capacity()));
    *free = kept;
    drop(free);
    drop(superseded);
    Vec::with_capacity(len)
}

/// `len` zeros, in a recycled block when one fits.
pub fn zeroed(len: usize) -> Vec<f64> {
    if len < RECYCLE_MIN {
        return vec![0.0; len];
    }
    let mut v = buffer(len);
    v.resize(len, 0.0);
    v
}

/// A copy of `src`, in a recycled block when one fits.
pub fn copied(src: &[f64]) -> Vec<f64> {
    let mut v = buffer(src.len());
    v.extend_from_slice(src);
    v
}

/// Offer a block no longer in use to the free list, which keeps the
/// largest blocks that fit in [`RECYCLE_BYTES`] and frees the rest.
pub(crate) fn recycle(v: Vec<f64>) {
    if v.capacity() < RECYCLE_MIN {
        return;
    }
    let mut free = free_list();
    free.push(v);
    free.sort_unstable_by_key(|b| std::cmp::Reverse(b.capacity()));
    let mut bytes = 0;
    let keep = free
        .iter()
        .take_while(|b| {
            bytes += b.capacity() * 8;
            bytes <= RECYCLE_BYTES
        })
        .count();
    let evicted = free.split_off(keep);
    drop(free);
    drop(evicted);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn peak_tracks_high_water() {
        reset();
        note_alloc(100);
        note_alloc(200);
        note_free(100);
        note_alloc(50);
        assert_eq!(live_bytes(), 250);
        assert_eq!(peak_bytes(), 300);
        reset();
        assert_eq!(live_bytes(), 0);
        assert_eq!(peak_bytes(), 0);
    }

    #[test]
    fn free_saturates_across_reset() {
        reset();
        note_alloc(10);
        reset();
        note_free(10); // allocated before the reset — must not underflow
        assert_eq!(live_bytes(), 0);
    }

    #[test]
    fn recycled_blocks_are_reused_and_bounded() {
        // The list is process-wide and other tests allocate in
        // parallel, so only facts no concurrent user can break are
        // checked here.
        let small = zeroed(RECYCLE_MIN - 1);
        assert!(small.iter().all(|&x| x == 0.0));
        recycle(small);
        let mut v = zeroed(RECYCLE_MIN);
        assert_eq!(v.len(), RECYCLE_MIN);
        v.fill(7.0);
        recycle(v);
        let again = zeroed(RECYCLE_MIN);
        assert_eq!(again.len(), RECYCLE_MIN);
        assert!(again.iter().all(|&x| x == 0.0), "a reused block is zeroed");
        let b = buffer(2 * RECYCLE_MIN);
        assert!(b.is_empty() && b.capacity() >= 2 * RECYCLE_MIN);
        for _ in 0..RECYCLE_BYTES / (RECYCLE_MIN * 8) + 4 {
            recycle(Vec::with_capacity(RECYCLE_MIN));
        }
        let kept: usize = free_list().iter().map(|b| b.capacity() * 8).sum();
        assert!(kept <= RECYCLE_BYTES, "{kept} bytes kept");
        recycle(Vec::with_capacity(RECYCLE_BYTES / 8 + 1));
        let kept: usize = free_list().iter().map(|b| b.capacity() * 8).sum();
        assert!(kept <= RECYCLE_BYTES, "{kept} bytes kept");
    }
}
