//! Per-file IR summaries keyed by content hash.
//!
//! A [`SummaryCache`] memoizes [`Frontend`] lowering so a file shared
//! by many pages (a common `config.php` include, say) is parsed and
//! lowered once per app analysis instead of once per page. The cache
//! key is `(content_hash, config_fingerprint, frontend_fingerprint)`:
//!
//! - **content hash** — a hash of the raw file bytes, so any edit
//!   invalidates the summary;
//! - **config fingerprint** — a hash of every [`crate::Config`] field
//!   that lowering *could* observe. Lowering is deliberately
//!   config-independent today (all config consultation happens at
//!   emit), so the fingerprint is defensive: if lowering ever grows a
//!   config dependency, the fingerprint must cover that field or the
//!   cache would serve stale IR across configs;
//! - **frontend fingerprint** — [`Frontend::fingerprint`] of the
//!   frontend that lowers the file, so two languages (or two lowering
//!   versions of one language) never share a summary even for
//!   identical source bytes.
//!
//! Summaries are path-free (an include records only its source line;
//! the path is supplied by the emitter), which is what makes one
//! summary valid for every page and every include site that mentions
//! the file. A parse *failure* is cached like a summary and handed to
//! every caller, so each include occurrence still warns, as the
//! original analyzer re-warns, and the warm path stays
//! warning-identical to the cold path.

use std::collections::hash_map::DefaultHasher;
use std::collections::HashMap;
use std::hash::{Hash, Hasher};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

use crate::config::Config;
use crate::frontend::{Frontend, FrontendError};
use crate::ir::FileSummary;

/// Hashes raw file bytes into a summary-cache content key.
pub fn content_hash(src: &[u8]) -> u64 {
    let mut h = DefaultHasher::new();
    src.hash(&mut h);
    h.finish()
}

/// Hashes the config fields that lowering could observe (see module
/// docs — currently none are actually read during lowering, but the
/// name lists below are the ones adjacent passes consume and are the
/// plausible candidates for a future lowering dependency).
pub fn config_fingerprint(config: &Config) -> u64 {
    let mut h = DefaultHasher::new();
    let mut sorted: Vec<&String>;
    macro_rules! hash_names {
        ($set:expr) => {
            sorted = $set.iter().collect();
            sorted.sort();
            sorted.hash(&mut h);
        };
    }
    hash_names!(&config.direct_superglobals);
    hash_names!(&config.indirect_globals);
    hash_names!(&config.fetch_functions);
    h.finish()
}

/// One key's lowering, run once: the summary, or the parse error every
/// caller of that key gets.
type Slot = OnceLock<Result<Arc<FileSummary>, FrontendError>>;

/// A shared, thread-safe cache of lowered file summaries.
///
/// One cache is created per app analysis (or handed in by the caller
/// via the `*_cached` entry points) and shared across worker threads;
/// pages analyzed against the same cache reuse each other's lowering
/// work. Lowering is single-flight: each key is lowered once, and a
/// concurrent caller for the same key waits for the lowering in flight
/// instead of racing to a second one, so the hit/miss counters (which
/// feed `AppReport`, `--stats` and the daemon's `status`) depend only
/// on the pages analyzed, never on thread timing.
#[derive(Debug, Default)]
pub struct SummaryCache {
    map: Mutex<HashMap<(u64, u64, u64), Arc<Slot>>>,
    hits: AtomicU64,
    misses: AtomicU64,
}

impl SummaryCache {
    /// Creates an empty cache.
    pub fn new() -> Self {
        Self::default()
    }

    /// Returns the lowered summary for `src` under `frontend`,
    /// lowering (and caching) it on a miss. Parse errors are returned
    /// verbatim.
    pub fn get_or_lower(
        &self,
        frontend: &dyn Frontend,
        src: &[u8],
        config: &Config,
    ) -> Result<Arc<FileSummary>, FrontendError> {
        let _span = strtaint_obs::Span::enter("summary", "");
        let key = (
            content_hash(src),
            config_fingerprint(config),
            frontend.fingerprint(),
        );
        let slot = Arc::clone(
            self.map
                .lock()
                .unwrap_or_else(|p| p.into_inner())
                .entry(key)
                .or_default(),
        );
        // Parse + lower outside the map's lock: lowering a large file
        // blocks only the callers of that file, which wait for it.
        let mut lowered = false;
        let result = slot.get_or_init(|| {
            lowered = true;
            let _lower = strtaint_obs::Span::enter("lower", "");
            let body = frontend.lower(src)?;
            Ok(Arc::new(FileSummary {
                body,
                content_hash: key.0,
            }))
        });
        let counter = if lowered { &self.misses } else { &self.hits };
        counter.fetch_add(1, Ordering::Relaxed);
        result.clone()
    }

    /// Drops every summary of the bytes hashing to `content_hash`
    /// (see [`content_hash`]): a long-lived caller whose tree no longer
    /// holds those bytes keeps no IR for them.
    pub fn evict(&self, content_hash: u64) {
        let mut map = self.map.lock().unwrap_or_else(|p| p.into_inner());
        map.retain(|&(content, _, _), _| content != content_hash);
    }

    /// Number of summaries currently resident (distinct
    /// `(content, config, frontend)` keys) — surfaced by the daemon's
    /// `status`.
    pub fn len(&self) -> usize {
        self.map.lock().unwrap_or_else(|p| p.into_inner()).len()
    }

    /// `true` when no summary has been cached yet.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Number of cache hits so far.
    pub fn hits(&self) -> u64 {
        self.hits.load(Ordering::Relaxed)
    }

    /// Number of cache misses (files actually lowered) so far.
    pub fn misses(&self) -> u64 {
        self.misses.load(Ordering::Relaxed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ir::IrStmt;
    use std::sync::atomic::AtomicUsize;
    use std::sync::RwLock;

    /// A frontend counting its lowerings, each of which waits at a gate
    /// the test can hold closed; it fails on `bad` input.
    #[derive(Debug, Default)]
    struct Gated {
        lowerings: AtomicUsize,
        gate: RwLock<()>,
    }

    impl Frontend for Gated {
        fn id(&self) -> &'static str {
            "gated"
        }
        fn extensions(&self) -> &'static [&'static str] {
            &["gated"]
        }
        fn fingerprint(&self) -> u64 {
            7
        }
        fn lower(&self, src: &[u8]) -> Result<Vec<IrStmt>, FrontendError> {
            self.lowerings.fetch_add(1, Ordering::SeqCst);
            drop(self.gate.read().expect("gate"));
            if src == b"bad" {
                return Err(FrontendError {
                    message: "bad".to_owned(),
                    span: strtaint_php::Span::new(1, 1),
                });
            }
            Ok(Vec::new())
        }
    }

    #[test]
    fn concurrent_callers_wait_for_the_one_lowering() {
        let (cache, frontend, config) = (SummaryCache::new(), Gated::default(), Config::default());
        let gate = frontend.gate.write().expect("gate");
        let summaries: Vec<_> = std::thread::scope(|s| {
            let calls: Vec<_> = (0..4)
                .map(|_| s.spawn(|| cache.get_or_lower(&frontend, b"same", &config)))
                .collect();
            // Open the gate only once every caller holds the key's slot
            // (the map's reference plus one per caller).
            let holders = || {
                let map = cache.map.lock().expect("map");
                map.values().next().map_or(0, Arc::strong_count)
            };
            while holders() < 5 {
                std::thread::yield_now();
            }
            drop(gate);
            calls
                .into_iter()
                .map(|c| c.join().expect("caller").expect("lowers"))
                .collect()
        });
        assert_eq!(frontend.lowerings.load(Ordering::SeqCst), 1);
        assert!(summaries.iter().all(|s| Arc::ptr_eq(s, &summaries[0])));
        assert_eq!((cache.hits(), cache.misses(), cache.len()), (3, 1, 1));
    }

    #[test]
    fn parse_errors_are_returned_verbatim_to_every_caller() {
        let (cache, frontend, config) = (SummaryCache::new(), Gated::default(), Config::default());
        for _ in 0..2 {
            let err = cache.get_or_lower(&frontend, b"bad", &config).unwrap_err();
            assert_eq!(err.message, "bad");
        }
        assert_eq!(frontend.lowerings.load(Ordering::SeqCst), 1);
        assert_eq!((cache.hits(), cache.misses()), (1, 1));
        cache.evict(content_hash(b"bad"));
        assert!(cache.is_empty());
    }
}
