//! The checker's one cache type: a bounded, FIFO-evicting,
//! single-flight map. The verdict cache ([`crate::qcache`]) is 16
//! hash-selected shards of it; the preparation memo
//! ([`crate::pmemo`]) is two unsharded instances.
//!
//! A [`Memo::lookup`] either hits or hands out the key's one
//! [`Ticket`]. While a ticket is out, concurrent callers of the same
//! key wait for it instead of computing the key a second time, so what
//! is computed, and every counter that follows from it (cache hits and
//! misses, normalizations, per-phase span counts), depends only on the
//! calls made, never on thread timing. [`Ticket::land`] caches the
//! value, and the waiters hit it. A ticket dropped without landing (a
//! budget trip, a panic) caches nothing, and its waiters compute for
//! themselves. A poisoned lock degrades to a miss that nobody waits
//! on and that lands nothing: the memo can make nothing wrong, only
//! some things slower.

use std::collections::{HashMap, HashSet, VecDeque};
use std::hash::Hash;
use std::sync::{Condvar, Mutex, PoisonError};

/// A bounded map whose misses are computed once per key.
pub(crate) struct Memo<K, V> {
    inner: Mutex<Inner<K, V>>,
    /// Signalled whenever a flight ends.
    ended: Condvar,
    /// Entries retained; older entries are evicted first.
    cap: usize,
}

struct Inner<K, V> {
    map: HashMap<K, V>,
    /// Insertion order for FIFO eviction.
    order: VecDeque<K>,
    /// Keys whose ticket is out.
    flights: HashSet<K>,
    /// Callers blocked on a flight, so a test can tell when one waits.
    #[cfg(test)]
    waiters: usize,
}

/// What [`Memo::lookup`] found.
pub(crate) enum Lookup<'a, K: Hash + Eq + Clone, V: Clone> {
    /// A value: cached, or landed by the caller this one waited for.
    Hit(V),
    /// No value: the caller computes it and lands the ticket.
    Miss(Ticket<'a, K, V>),
}

/// The one computation of a missed key. Concurrent callers of the key
/// wait until the ticket is landed or dropped.
pub(crate) struct Ticket<'a, K: Hash + Eq + Clone, V: Clone> {
    memo: &'a Memo<K, V>,
    key: K,
    /// `false` when the lock was poisoned: nobody waits on this miss.
    leads: bool,
}

impl<K: Hash + Eq + Clone, V: Clone> Ticket<'_, K, V> {
    /// Caches `value` for the waiters and later callers, returning how
    /// many entries were evicted to make room.
    pub(crate) fn land(self, value: V) -> u64 {
        let Ok(mut inner) = self.memo.inner.lock() else {
            return 0;
        };
        if inner.map.insert(self.key.clone(), value).is_none() {
            inner.order.push_back(self.key.clone());
        }
        let mut evicted = 0;
        while inner.map.len() > self.memo.cap {
            let Some(old) = inner.order.pop_front() else {
                break;
            };
            if inner.map.remove(&old).is_some() {
                evicted += 1;
            }
        }
        evicted
    }
}

impl<K: Hash + Eq + Clone, V: Clone> Drop for Ticket<'_, K, V> {
    /// Ends the flight, landed or not, releasing its waiters to probe
    /// again.
    fn drop(&mut self) {
        if self.leads {
            let mut inner = self
                .memo
                .inner
                .lock()
                .unwrap_or_else(PoisonError::into_inner);
            inner.flights.remove(&self.key);
            drop(inner);
            self.memo.ended.notify_all();
        }
    }
}

impl<K, V> std::fmt::Debug for Memo<K, V> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Memo")
            .field("cap", &self.cap)
            .finish_non_exhaustive()
    }
}

impl<K: Hash + Eq + Clone, V: Clone> Memo<K, V> {
    /// An empty memo retaining at most `cap` entries.
    pub(crate) fn new(cap: usize) -> Self {
        Memo {
            inner: Mutex::new(Inner {
                map: HashMap::new(),
                order: VecDeque::new(),
                flights: HashSet::new(),
                #[cfg(test)]
                waiters: 0,
            }),
            ended: Condvar::new(),
            cap,
        }
    }

    /// The value of `key`, waiting for one in flight. On a miss the
    /// caller holds the key's [`Ticket`].
    pub(crate) fn lookup(&self, key: K) -> Lookup<'_, K, V> {
        let uncached = |key| {
            Lookup::Miss(Ticket {
                memo: self,
                key,
                leads: false,
            })
        };
        let Ok(mut inner) = self.inner.lock() else {
            return uncached(key);
        };
        loop {
            if let Some(v) = inner.map.get(&key) {
                return Lookup::Hit(v.clone());
            }
            if !inner.flights.contains(&key) {
                break;
            }
            #[cfg(test)]
            {
                inner.waiters += 1;
            }
            let Ok(woken) = self.ended.wait(inner) else {
                return uncached(key);
            };
            inner = woken;
            #[cfg(test)]
            {
                inner.waiters -= 1;
            }
        }
        inner.flights.insert(key.clone());
        Lookup::Miss(Ticket {
            memo: self,
            key,
            leads: true,
        })
    }

    /// The value of `key`, built by `build` and landed on a miss; the
    /// boolean is `true` on a hit.
    pub(crate) fn get_or(&self, key: K, build: impl FnOnce() -> V) -> (V, bool) {
        match self.lookup(key) {
            Lookup::Hit(v) => (v, true),
            Lookup::Miss(ticket) => {
                let v = build();
                ticket.land(v.clone());
                (v, false)
            }
        }
    }

    /// The cached value of `key`, if any, without waiting or taking a
    /// ticket.
    pub(crate) fn peek(&self, key: &K) -> Option<V> {
        self.inner.lock().ok()?.map.get(key).cloned()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::RwLock;

    /// The cached value of `k`, if any; a miss lands nothing.
    fn get(m: &Memo<u64, u64>, k: u64) -> Option<u64> {
        match m.lookup(k) {
            Lookup::Hit(v) => Some(v),
            Lookup::Miss(_) => None,
        }
    }

    /// Lands `v` under `k` as a fresh miss would.
    fn put(m: &Memo<u64, u64>, k: u64, v: u64) -> u64 {
        match m.lookup(k) {
            Lookup::Hit(_) => panic!("{k} is cached"),
            Lookup::Miss(ticket) => ticket.land(v),
        }
    }

    #[test]
    fn fifo_eviction_is_bounded_and_counted() {
        let m = Memo::new(8);
        let evicted: u64 = (0..20).map(|k| put(&m, k, k * 10)).sum();
        assert_eq!(evicted, 12);
        let inner = m.inner.lock().unwrap();
        assert_eq!((inner.map.len(), inner.order.len()), (8, 8));
        assert!(inner.flights.is_empty(), "every ticket ended its flight");
        drop(inner);
        // The oldest entries went first.
        assert_eq!(get(&m, 11), None);
        assert_eq!((get(&m, 12), m.peek(&19)), (Some(120), Some(190)));
    }

    #[test]
    fn landing_a_key_twice_keeps_one_entry() {
        // Two misses that do not lead (as on a poisoned lock) both land
        // the same key: the second replaces the value, not the order.
        let m = Memo::new(8);
        for v in [10, 11] {
            let ticket = Ticket {
                memo: &m,
                key: 1u64,
                leads: false,
            };
            assert_eq!(ticket.land(v), 0);
        }
        let inner = m.inner.lock().unwrap();
        assert_eq!((inner.map.len(), inner.order.len()), (1, 1));
        drop(inner);
        assert_eq!(m.peek(&1), Some(11));
    }

    #[test]
    fn a_poisoned_lock_degrades_to_a_miss() {
        let m = Memo::new(8);
        put(&m, 1, 10);
        let poison = std::thread::scope(|s| {
            s.spawn(|| {
                let _held = m.inner.lock();
                panic!("poisons the lock");
            })
            .join()
        });
        assert!(poison.is_err());
        // Misses, lands nothing, and nobody waits on it.
        match m.lookup(1) {
            Lookup::Hit(_) => panic!("a poisoned memo hit"),
            Lookup::Miss(ticket) => assert_eq!(ticket.land(10), 0),
        }
        assert_eq!(m.get_or(1, || 11), (11, false));
        assert_eq!(m.peek(&1), None);
    }

    /// Runs two concurrent lookups of one key. A caller that misses
    /// counts a computation, waits at a gate the test opens once the
    /// other caller waits on its flight, and lands its value when
    /// `land` says so. Returns the computations and each caller's
    /// value (0 when it did not land one).
    fn two_callers(land: bool) -> (usize, Vec<u64>) {
        let (m, computed, gate) = (Memo::new(4), AtomicUsize::new(0), RwLock::new(()));
        let closed = gate.write().unwrap();
        let values = std::thread::scope(|s| {
            let calls: Vec<_> = (0..2)
                .map(|_| {
                    s.spawn(|| match m.lookup(1) {
                        Lookup::Hit(v) => v,
                        Lookup::Miss(ticket) => {
                            let n = computed.fetch_add(1, Ordering::SeqCst);
                            drop(gate.read().unwrap());
                            if land || n > 0 {
                                ticket.land(42);
                                42
                            } else {
                                0
                            }
                        }
                    })
                })
                .collect();
            while m.inner.lock().unwrap().waiters < 1 {
                std::thread::yield_now();
            }
            drop(closed);
            calls.into_iter().map(|c| c.join().unwrap()).collect()
        });
        let inner = m.inner.lock().unwrap();
        assert!(inner.flights.is_empty(), "flight outlived its ticket");
        assert_eq!(inner.waiters, 0);
        (computed.load(Ordering::SeqCst), values)
    }

    #[test]
    fn concurrent_misses_of_one_key_compute_once() {
        // The waiter hits the leader's landed value.
        assert_eq!(two_callers(true), (1, vec![42, 42]));
    }

    #[test]
    fn a_ticket_dropped_unlanded_lets_its_waiter_compute() {
        // The leader lands nothing (a trip); its waiter computes for
        // itself and lands.
        let (computed, mut values) = two_callers(false);
        values.sort_unstable();
        assert_eq!((computed, values), (2, vec![0, 42]));
    }
}
