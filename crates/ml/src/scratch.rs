//! Process-global pool of reusable `f64` buffers (scratch arenas).
//!
//! The evaluation hot path builds two dense matrices (train/test features)
//! plus per-fit gradient scratch for every candidate pollution — hundreds
//! of times per session. Workers are *scoped threads spawned per fan-out*
//! (see `comet-par`), so thread-local arenas would be torn down after every
//! `par_map`; instead buffers live in one global pool guarded by a `Mutex`
//! with take/put critical sections of a few instructions. Buffers are
//! handed out largest-first so a steady-state loop converges on a fixed set
//! of allocations (allocation-flat), whatever order workers arrive in.
//!
//! Observability: `alloc.scratch_reuse` counts pool hits (an allocation
//! avoided), `alloc.scratch_alloc` counts misses that had to allocate.

use std::sync::Mutex;

use crate::Matrix;

/// Retained buffers. Bounded so a one-off huge evaluation cannot pin
/// arbitrary memory forever.
const POOL_CAP: usize = 64;

static POOL: Mutex<Vec<Vec<f64>>> = Mutex::new(Vec::new());

/// Take a buffer with capacity for at least `len` elements, preferring the
/// largest pooled buffer (contents are unspecified; callers overwrite).
/// Falls back to a fresh allocation when the pool is empty.
pub fn take(len: usize) -> Vec<f64> {
    let candidate = {
        let mut pool = POOL.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
        pool.pop()
    };
    match candidate {
        Some(mut buf) => {
            if buf.capacity() >= len {
                comet_obs::counter_add("alloc.scratch_reuse", 1);
            } else {
                // Growing a recycled buffer still beats a cold allocation
                // only sometimes; count it as an allocation for honesty.
                comet_obs::counter_add("alloc.scratch_alloc", 1);
                buf.reserve(len - buf.len());
            }
            buf
        }
        None => {
            comet_obs::counter_add("alloc.scratch_alloc", 1);
            Vec::with_capacity(len)
        }
    }
}

/// Return a buffer to the pool. Kept sorted ascending by capacity so
/// [`take`] (which pops the back) hands out the largest buffer first.
pub fn put(buf: Vec<f64>) {
    if buf.capacity() == 0 {
        return;
    }
    let mut pool = POOL.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
    if pool.len() >= POOL_CAP {
        return; // drop: pool full
    }
    let at = pool.partition_point(|b| b.capacity() <= buf.capacity());
    pool.insert(at, buf);
}

/// Take a zero-filled `nrows × ncols` matrix backed by a pooled buffer.
pub fn take_matrix(nrows: usize, ncols: usize) -> Matrix {
    Matrix::from_buffer(nrows, ncols, take(nrows * ncols))
}

/// Recycle a matrix's backing buffer.
pub fn put_matrix(m: Matrix) {
    put(m.into_buffer());
}

/// Number of buffers currently pooled (diagnostics/tests).
pub fn pooled() -> usize {
    POOL.lock().unwrap_or_else(std::sync::PoisonError::into_inner).len()
}

#[cfg(test)]
mod tests {
    use super::*;

    // The pool is process-global; tests touching it share state with each
    // other (and with any test that evaluates models). Assertions stick to
    // properties that concurrent puts/takes cannot violate.

    #[test]
    fn take_put_roundtrip_reuses_capacity() {
        let mut buf = take(16);
        buf.extend((0..16).map(|i| i as f64));
        let cap = buf.capacity();
        put(buf);
        let buf2 = take(8);
        // Largest-first: we get back a buffer at least as big as ours was.
        assert!(buf2.capacity() >= 8.min(cap));
        put(buf2);
    }

    #[test]
    fn matrix_helpers_zero_fill() {
        let mut m = take_matrix(3, 2);
        m.set(1, 1, 5.0);
        put_matrix(m);
        let m2 = take_matrix(3, 2);
        // Whatever buffer we got, from_buffer zero-fills it.
        assert!(m2.as_slice().iter().all(|&v| v == 0.0));
        put_matrix(m2);
    }

    #[test]
    fn empty_buffers_are_not_pooled() {
        let before = pooled();
        put(Vec::new());
        assert_eq!(pooled(), before);
    }
}
