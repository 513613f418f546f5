//! The shared fixed-size page pool under the decode KV caches.
//!
//! A monolithic append-only [`crate::KvCache`] makes every decode
//! session own an unbounded, contiguous K/V history — fine for one
//! session, fatal for serving thousands: resident memory is the
//! product of session count and history length, and nothing can be
//! reclaimed without killing a session. [`PagePool`] breaks the
//! history into fixed-size pages (float K/V rows plus their 8-bit
//! codes plus the quantization params that produced them), so caches
//! allocate in page units, eviction returns whole pages to a shared
//! free list, and capacity is an exact page count rather than a hope.
//!
//! Accounting is exact by construction: every allocate/release pair
//! moves `pages_in_use` by one, freed pages are reused before the pool
//! ever grows (`allocated_pages() == peak_pages()` is an invariant,
//! property-tested below), and a bounded pool refuses — with
//! [`AttentionError::PoolExhausted`] — rather than overcommits. A
//! refused allocation mutates nothing, so callers can evict and retry.

use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

use crate::AttentionError;

/// Default page size: 64 KiB, a few dozen to a few hundred tokens per
/// page at the studied head dimensions.
pub const DEFAULT_PAGE_BYTES: usize = 64 * 1024;

/// Bytes one token occupies in a page per K/V column: a 4-byte float
/// plus a 1-byte code, for both the key and the value row.
const BYTES_PER_ELEMENT: usize = 5;

/// The buffers of one page: float rows and 8-bit codes for both the
/// key and the value history slice the page holds. Released pages keep
/// their allocations on the free list; reuse resizes them to the new
/// cache's layout.
///
/// Pages move by value between the pool and exactly one owning cache,
/// so a double free is unrepresentable: releasing a page consumes it.
#[derive(Debug, Default)]
pub(crate) struct PageBuffers {
    pub(crate) k_floats: Vec<f32>,
    pub(crate) v_floats: Vec<f32>,
    pub(crate) k_codes: Vec<i8>,
    pub(crate) v_codes: Vec<i8>,
}

#[derive(Debug)]
struct PoolState {
    page_bytes: usize,
    capacity_pages: Option<usize>,
    pages_in_use: usize,
    peak_pages: usize,
    allocated_pages: u64,
    reused_pages: u64,
    free: Vec<PageBuffers>,
}

/// A shared pool of fixed-size KV pages with exact capacity
/// accounting.
///
/// Cloning the handle shares the pool (an `Arc` around the state), so
/// one pool bounds every cache built over it — the serving layers hand
/// one pool to all concurrent decode sessions. An unbounded pool never
/// refuses but still accounts; a bounded pool returns
/// [`AttentionError::PoolExhausted`] once `capacity_pages` pages are
/// in use, which is the signal the session layers turn into eviction.
///
/// # Example
///
/// ```
/// use sprint_attention::{KvCache, Matrix, PagePool};
///
/// # fn main() -> Result<(), sprint_attention::AttentionError> {
/// let pool = PagePool::bounded(256, 2); // tiny pages, 2-page budget
/// let k = Matrix::from_rows(&[vec![1.0, 0.0], vec![0.0, 1.0]])?;
/// let cache = KvCache::new_in(&pool, &k, &k)?;
/// assert!(pool.pages_in_use() >= 1);
/// drop(cache); // pages return to the pool's free list
/// assert_eq!(pool.pages_in_use(), 0);
/// assert_eq!(pool.allocated_pages(), pool.peak_pages() as u64);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct PagePool {
    inner: Arc<Mutex<PoolState>>,
}

impl PagePool {
    fn with_capacity(page_bytes: usize, capacity_pages: Option<usize>) -> Self {
        PagePool {
            inner: Arc::new(Mutex::new(PoolState {
                page_bytes: page_bytes.max(BYTES_PER_ELEMENT),
                capacity_pages,
                pages_in_use: 0,
                peak_pages: 0,
                allocated_pages: 0,
                reused_pages: 0,
                free: Vec::new(),
            })),
        }
    }

    /// A pool that never refuses an allocation (capacity accounting
    /// still runs; `page_bytes` is clamped to hold at least one
    /// element).
    pub fn unbounded(page_bytes: usize) -> Self {
        PagePool::with_capacity(page_bytes, None)
    }

    /// A pool refusing allocations beyond `capacity_pages` pages in
    /// use (clamped to at least one page).
    pub fn bounded(page_bytes: usize, capacity_pages: usize) -> Self {
        PagePool::with_capacity(page_bytes, Some(capacity_pages.max(1)))
    }

    /// The fixed page size in bytes.
    pub fn page_bytes(&self) -> usize {
        self.state().page_bytes
    }

    /// The page budget (`None` for an unbounded pool).
    pub fn capacity_pages(&self) -> Option<usize> {
        self.state().capacity_pages
    }

    /// Pages currently owned by live caches.
    pub fn pages_in_use(&self) -> usize {
        self.state().pages_in_use
    }

    /// Exact bytes held by live caches: `pages_in_use * page_bytes`.
    pub fn bytes_in_use(&self) -> usize {
        let s = self.state();
        s.pages_in_use * s.page_bytes
    }

    /// The high-water mark of [`PagePool::pages_in_use`].
    pub fn peak_pages(&self) -> usize {
        self.state().peak_pages
    }

    /// Pages sitting on the free list, ready for reuse.
    pub fn free_pages(&self) -> usize {
        self.state().free.len()
    }

    /// Pages ever created fresh (never decremented). Equal to
    /// [`PagePool::peak_pages`] at all times: a fresh page is created
    /// only when the free list is empty, i.e. freed pages are always
    /// reused before the pool grows.
    pub fn allocated_pages(&self) -> u64 {
        self.state().allocated_pages
    }

    /// Allocations served from the free list instead of fresh memory.
    pub fn reused_pages(&self) -> u64 {
        self.state().reused_pages
    }

    /// How many tokens one page holds for a cache with key embedding
    /// `d` and value width `d_v` (each token stores a float and an
    /// 8-bit code per column, K and V both). At least one token per
    /// page, so even an oversized layout pages correctly.
    pub fn tokens_per_page(&self, d: usize, d_v: usize) -> usize {
        (self.state().page_bytes / (BYTES_PER_ELEMENT * (d + d_v).max(1))).max(1)
    }

    /// Takes one page sized for `tokens` tokens of a `(d, d_v)`
    /// layout, reusing a freed page when one exists.
    ///
    /// # Errors
    ///
    /// [`AttentionError::PoolExhausted`] when a bounded pool is at
    /// capacity with an empty free list; the pool is unchanged.
    pub(crate) fn allocate(
        &self,
        d: usize,
        d_v: usize,
        tokens: usize,
    ) -> Result<PageBuffers, AttentionError> {
        let mut s = self.state();
        let mut buf = match s.free.pop() {
            Some(buf) => {
                s.reused_pages += 1;
                buf
            }
            None => {
                if let Some(capacity) = s.capacity_pages {
                    if s.pages_in_use >= capacity {
                        return Err(AttentionError::PoolExhausted {
                            in_use: s.pages_in_use,
                            capacity,
                        });
                    }
                }
                s.allocated_pages += 1;
                PageBuffers::default()
            }
        };
        s.pages_in_use += 1;
        s.peak_pages = s.peak_pages.max(s.pages_in_use);
        drop(s);
        // (Re)size to the requesting cache's layout; a reused page
        // keeps whatever backing capacity it already grew.
        buf.k_floats.clear();
        buf.k_floats.resize(tokens * d, 0.0);
        buf.v_floats.clear();
        buf.v_floats.resize(tokens * d_v, 0.0);
        buf.k_codes.clear();
        buf.k_codes.resize(tokens * d, 0);
        buf.v_codes.clear();
        buf.v_codes.resize(tokens * d_v, 0);
        Ok(buf)
    }

    /// Returns a page to the free list. Consumes the buffers, so a
    /// page cannot be released twice.
    pub(crate) fn release(&self, buf: PageBuffers) {
        let mut s = self.state();
        s.pages_in_use = s.pages_in_use.saturating_sub(1);
        s.free.push(buf);
    }

    /// Locks the pool. A thread that panicked while holding the lock
    /// cannot have left half an update: every critical section is a
    /// counter update or a free-list push or pop, so the state is
    /// recovered as it is and the pool keeps serving its other caches.
    fn state(&self) -> MutexGuard<'_, PoolState> {
        self.inner.lock().unwrap_or_else(PoisonError::into_inner)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn a_poisoned_pool_lock_is_recovered() {
        let pool = PagePool::bounded(640, 2);
        let held = pool.allocate(8, 8, 4).unwrap();
        let shared = pool.clone();
        let panicked = std::thread::spawn(move || {
            let _guard = shared.state();
            panic!("a cache owner panics while holding the pool lock");
        })
        .join();
        assert!(panicked.is_err());
        assert!(pool.inner.is_poisoned());
        assert_eq!(pool.pages_in_use(), 1, "the state is read as it was left");
        let next = pool.allocate(8, 8, 4).unwrap();
        assert_eq!(pool.pages_in_use(), 2);
        pool.release(held);
        pool.release(next);
        assert_eq!((pool.pages_in_use(), pool.free_pages()), (0, 2));
    }

    #[test]
    fn bounded_pool_refuses_at_capacity_and_recovers() {
        let pool = PagePool::bounded(640, 2);
        let a = pool.allocate(8, 8, 4).unwrap();
        let b = pool.allocate(8, 8, 4).unwrap();
        let err = pool.allocate(8, 8, 4).unwrap_err();
        assert!(matches!(
            err,
            AttentionError::PoolExhausted {
                in_use: 2,
                capacity: 2
            }
        ));
        assert_eq!(pool.pages_in_use(), 2, "a refused allocation is a no-op");
        pool.release(a);
        let c = pool.allocate(4, 4, 2).unwrap();
        assert_eq!(c.k_floats.len(), 8, "reused page resized to new layout");
        assert_eq!(pool.reused_pages(), 1);
        pool.release(b);
        pool.release(c);
        assert_eq!(pool.pages_in_use(), 0);
        assert_eq!(pool.bytes_in_use(), 0);
        assert_eq!(pool.peak_pages(), 2);
        assert_eq!(pool.allocated_pages(), 2);
    }

    #[test]
    fn layout_geometry_is_sane() {
        let pool = PagePool::unbounded(64 * 1024);
        assert_eq!(pool.tokens_per_page(64, 64), 64 * 1024 / (5 * 128));
        assert_eq!(pool.tokens_per_page(1 << 20, 1 << 20), 1, "floor of one");
        assert!(pool.capacity_pages().is_none());
        let tiny = PagePool::bounded(1, 0);
        assert_eq!(tiny.page_bytes(), BYTES_PER_ELEMENT, "clamped up");
        assert_eq!(tiny.capacity_pages(), Some(1), "clamped up");
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// The pool invariants under random alloc/free churn, checked
        /// against an independent reference counter: exact
        /// `pages_in_use * page_bytes` accounting, free-before-grow
        /// (`allocated_pages == peak_pages`), and no double free
        /// (structural: held pages move by value, and the model's
        /// counter would drift if release were ever double-counted).
        #[test]
        fn prop_pool_accounting_is_exact_under_churn(
            capacity in 1usize..6,
            page_bytes in 64usize..2048,
            ops in proptest::collection::vec(0u8..4, 1..80),
        ) {
            let pool = PagePool::bounded(page_bytes, capacity);
            let mut held: Vec<PageBuffers> = Vec::new();
            let mut model_in_use = 0usize;
            let mut model_peak = 0usize;
            for op in ops {
                if op < 3 {
                    // Allocate (biased 3:1 so pools actually fill).
                    match pool.allocate(8, 4, 3) {
                        Ok(buf) => {
                            held.push(buf);
                            model_in_use += 1;
                            model_peak = model_peak.max(model_in_use);
                        }
                        Err(e) => {
                            prop_assert!(matches!(
                                e,
                                AttentionError::PoolExhausted { .. }
                            ));
                            prop_assert_eq!(model_in_use, capacity.max(1));
                        }
                    }
                } else if let Some(buf) = held.pop() {
                    pool.release(buf);
                    model_in_use -= 1;
                }
                // Exact accounting against the reference counter.
                prop_assert_eq!(pool.pages_in_use(), model_in_use);
                prop_assert_eq!(
                    pool.bytes_in_use(),
                    model_in_use * pool.page_bytes()
                );
                prop_assert_eq!(pool.peak_pages(), model_peak);
                // Freed pages are reused before the pool grows: fresh
                // creations only ever happen at a new high-water mark.
                prop_assert_eq!(pool.allocated_pages(), model_peak as u64);
                prop_assert_eq!(
                    pool.free_pages(),
                    model_peak - model_in_use,
                    "every non-held page is on the free list"
                );
            }
            // Full drain: everything returns, nothing leaks.
            for buf in held.drain(..) {
                pool.release(buf);
            }
            prop_assert_eq!(pool.pages_in_use(), 0);
            prop_assert_eq!(pool.bytes_in_use(), 0);
            prop_assert_eq!(pool.free_pages(), model_peak);
        }
    }
}
