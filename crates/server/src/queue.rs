//! Bounded per-tenant admission queues with fair round-robin drain.
//!
//! Admission control is the server's backpressure primitive: each
//! tenant gets a bounded FIFO, a global cap bounds aggregate memory,
//! and an over-capacity submit is *rejected at the door* (the HTTP
//! layer turns that into `429 Too Many Requests` + `Retry-After`)
//! instead of queuing unboundedly and letting tail latency run away.
//!
//! The drain side is round-robin across tenants — a tenant flooding
//! its own queue delays itself, not its neighbors. Only tenants with
//! queued work have an entry, so the table is bounded by the global
//! cap however many tenant names clients invent.

use std::collections::VecDeque;

/// Why a submit was refused.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Rejection {
    /// The tenant's own queue is full.
    TenantFull {
        /// The per-tenant capacity that was hit.
        capacity: usize,
    },
    /// The global cap across all tenants is full.
    GlobalFull {
        /// The global capacity that was hit.
        capacity: usize,
    },
    /// The queue is closed (server draining); nothing new is admitted.
    Closed,
}

impl Rejection {
    /// The `Retry-After` hint in seconds: how long a well-behaved
    /// client should back off. Closed means "the server is going
    /// away"; fullness is transient.
    pub fn retry_after_s(&self) -> u64 {
        match self {
            Rejection::TenantFull { .. } | Rejection::GlobalFull { .. } => 1,
            Rejection::Closed => 5,
        }
    }

    /// A client-facing reason string.
    pub fn reason(&self) -> String {
        match self {
            Rejection::TenantFull { capacity } => {
                format!("tenant queue full (capacity {capacity})")
            }
            Rejection::GlobalFull { capacity } => {
                format!("server queue full (capacity {capacity})")
            }
            Rejection::Closed => "server is draining".to_string(),
        }
    }
}

/// A bounded multi-tenant FIFO. Not internally synchronized — the
/// server wraps it in a `Mutex` alongside its condvar.
#[derive(Debug)]
pub struct AdmissionQueue<T> {
    /// Tenants with queued work, next to be served first; every FIFO
    /// here is non-empty.
    tenants: VecDeque<(String, VecDeque<T>)>,
    per_tenant: usize,
    global: usize,
    depth: usize,
    closed: bool,
}

impl<T> AdmissionQueue<T> {
    /// An empty queue admitting up to `per_tenant` items per tenant
    /// and `global` items in total (both ≥ 1 enforced by clamping).
    pub fn new(per_tenant: usize, global: usize) -> Self {
        AdmissionQueue {
            tenants: VecDeque::new(),
            per_tenant: per_tenant.max(1),
            global: global.max(1),
            depth: 0,
            closed: false,
        }
    }

    /// Items currently queued across all tenants.
    pub fn depth(&self) -> usize {
        self.depth
    }

    /// Whether [`AdmissionQueue::close`] has been called.
    pub fn is_closed(&self) -> bool {
        self.closed
    }

    /// Stops admitting new work. Queued items still drain.
    pub fn close(&mut self) {
        self.closed = true;
    }

    /// Admits `item` under `tenant`, or explains the refusal.
    ///
    /// # Errors
    ///
    /// [`Rejection`] when closed or at capacity; the item is returned
    /// to the caller untouched in spirit (it is consumed — callers
    /// reply to the client with the rejection).
    pub fn submit(&mut self, tenant: &str, item: T) -> Result<(), Rejection> {
        if self.closed {
            return Err(Rejection::Closed);
        }
        if self.depth >= self.global {
            return Err(Rejection::GlobalFull {
                capacity: self.global,
            });
        }
        match self.tenants.iter_mut().find(|(name, _)| name == tenant) {
            Some((_, fifo)) if fifo.len() >= self.per_tenant => {
                return Err(Rejection::TenantFull {
                    capacity: self.per_tenant,
                });
            }
            Some((_, fifo)) => fifo.push_back(item),
            None => self
                .tenants
                .push_back((tenant.to_string(), VecDeque::from([item]))),
        }
        self.depth += 1;
        Ok(())
    }

    /// Pops up to `max` items, visiting tenants round-robin (one item
    /// per tenant per lap) starting after the last tenant served. A
    /// tenant whose FIFO empties leaves the table. Returns an empty
    /// vec when idle.
    pub fn drain(&mut self, max: usize) -> Vec<T> {
        let mut out = Vec::new();
        while out.len() < max {
            let Some((name, mut fifo)) = self.tenants.pop_front() else {
                break;
            };
            if let Some(item) = fifo.pop_front() {
                out.push(item);
                self.depth -= 1;
            }
            if !fifo.is_empty() {
                self.tenants.push_back((name, fifo));
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn per_tenant_and_global_caps_reject() {
        let mut q: AdmissionQueue<u32> = AdmissionQueue::new(2, 3);
        assert!(q.submit("a", 1).is_ok());
        assert!(q.submit("a", 2).is_ok());
        assert_eq!(
            q.submit("a", 3),
            Err(Rejection::TenantFull { capacity: 2 }),
            "third item for one tenant sheds"
        );
        assert!(q.submit("b", 4).is_ok());
        assert_eq!(
            q.submit("c", 5),
            Err(Rejection::GlobalFull { capacity: 3 }),
            "global cap sheds even a fresh tenant"
        );
        assert_eq!(q.depth(), 3);
    }

    #[test]
    fn drain_is_round_robin_fair() {
        let mut q: AdmissionQueue<&str> = AdmissionQueue::new(8, 64);
        for item in ["a1", "a2", "a3"] {
            q.submit("a", item).unwrap();
        }
        q.submit("b", "b1").unwrap();
        // One lap: each tenant contributes one item before 'a' repeats.
        assert_eq!(q.drain(2), vec!["a1", "b1"]);
        assert_eq!(q.drain(10), vec!["a2", "a3"]);
        assert_eq!(q.depth(), 0);
        assert!(q.drain(4).is_empty());
    }

    #[test]
    fn drained_tenants_leave_no_entry_behind() {
        // A client controls the tenant name: fresh names must not grow
        // the table past the work actually queued.
        let mut q: AdmissionQueue<usize> = AdmissionQueue::new(4, 8);
        for i in 0..10_000 {
            let name = format!("tenant-{i}");
            q.submit(&name, i).unwrap();
            if i % 3 == 0 {
                q.submit(&name, i).unwrap();
            }
            assert!(q.tenants.len() <= q.depth() && q.depth() <= 8);
            if q.depth() >= 6 {
                let queued = q.depth();
                assert_eq!(q.drain(usize::MAX).len(), queued);
                assert_eq!((q.tenants.len(), q.depth()), (0, 0));
            }
        }
        // A returning tenant is admitted afresh and still round-robins.
        q.drain(usize::MAX);
        for item in [1, 2] {
            q.submit("a", item).unwrap();
        }
        q.submit("b", 3).unwrap();
        assert_eq!(q.drain(8), vec![1, 3, 2]);
        assert!(q.tenants.is_empty());
    }

    #[test]
    fn close_rejects_new_but_drains_old() {
        let mut q: AdmissionQueue<u32> = AdmissionQueue::new(4, 4);
        q.submit("a", 1).unwrap();
        q.close();
        assert_eq!(q.submit("a", 2), Err(Rejection::Closed));
        assert_eq!(q.drain(4), vec![1], "queued work survives the close");
        assert!(Rejection::Closed.retry_after_s() >= 1);
    }

    #[test]
    fn rejection_reasons_are_client_readable() {
        assert!(Rejection::TenantFull { capacity: 2 }
            .reason()
            .contains("tenant queue full"));
        assert!(Rejection::GlobalFull { capacity: 9 }.reason().contains("9"));
        assert!(Rejection::Closed.reason().contains("draining"));
    }
}
