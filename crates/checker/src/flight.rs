//! Single-flight bookkeeping for the checker's shared caches (the
//! verdict cache and the preparation memo).
//!
//! While one caller computes a missing key, concurrent callers of the
//! same key wait for it instead of computing it a second time. So what
//! is computed, and every counter that follows from it (cache hits and
//! misses, normalizations, per-phase span counts), depends only on the
//! calls made, never on thread timing. A cache keeps a [`Flights`]
//! table under the same lock as its entries; the protocol is: probe
//! the entries, else [`Flights::join`] the key, and either wait for the
//! returned flight and probe again, or compute as the key's leader and
//! [`Flights::end`] the flight once the result is stored (or the
//! computation failed). A leader must end its flight on every path,
//! panics included, or its waiters block forever.

use std::collections::HashMap;
use std::hash::Hash;
use std::sync::{Arc, Condvar, Mutex, PoisonError};

/// One computation in progress; waiters block until it ends.
#[derive(Default)]
pub(crate) struct Flight {
    over: Mutex<bool>,
    ended: Condvar,
}

impl Flight {
    /// Blocks until the leader ends this flight.
    pub(crate) fn wait(&self) {
        let mut over = self.over.lock().unwrap_or_else(PoisonError::into_inner);
        while !*over {
            over = self
                .ended
                .wait(over)
                .unwrap_or_else(PoisonError::into_inner);
        }
    }
}

/// The keys being computed, each with the flight its waiters block on.
pub(crate) struct Flights<K>(HashMap<K, Arc<Flight>>);

impl<K> Default for Flights<K> {
    fn default() -> Self {
        Flights(HashMap::new())
    }
}

impl<K: Hash + Eq + Clone> Flights<K> {
    /// The flight to wait for when another caller is computing `key`;
    /// otherwise `None`, and the caller is now `key`'s leader.
    pub(crate) fn join(&mut self, key: &K) -> Option<Arc<Flight>> {
        if let Some(flight) = self.0.get(key) {
            return Some(Arc::clone(flight));
        }
        self.0.insert(key.clone(), Arc::default());
        None
    }

    /// Ends the flight of `key`, releasing its waiters to probe again.
    pub(crate) fn end(&mut self, key: &K) {
        if let Some(flight) = self.0.remove(key) {
            *flight.over.lock().unwrap_or_else(PoisonError::into_inner) = true;
            flight.ended.notify_all();
        }
    }

    /// References to the flight of `key`: the table's, plus one per
    /// waiter (0 when nobody computes `key`).
    #[cfg(test)]
    pub(crate) fn holders(&self, key: &K) -> usize {
        self.0.get(key).map_or(0, Arc::strong_count)
    }
}
