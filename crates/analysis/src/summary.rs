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
//! the file. Parse *failures* are not cached: the original analyzer
//! re-parses (and re-warns) at every include occurrence, and the warm
//! path must be warning-identical to the cold path.

use std::collections::hash_map::DefaultHasher;
use std::collections::HashMap;
use std::hash::{Hash, Hasher};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

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

/// A shared, thread-safe cache of lowered file summaries.
///
/// One cache is created per app analysis (or handed in by the caller
/// via the `*_cached` entry points) and shared across worker threads;
/// pages analyzed against the same cache reuse each other's lowering
/// work. Hit/miss counters feed `AppReport` and the ≥30%-fewer-
/// lowerings acceptance test.
#[derive(Debug, Default)]
pub struct SummaryCache {
    map: Mutex<HashMap<(u64, u64, u64), Arc<FileSummary>>>,
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
    /// verbatim and never cached.
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
        if let Some(hit) = self
            .map
            .lock()
            .unwrap_or_else(|p| p.into_inner())
            .get(&key)
            .cloned()
        {
            self.hits.fetch_add(1, Ordering::Relaxed);
            return Ok(hit);
        }
        // Parse + lower outside the lock: lowering a large file must
        // not serialize the other worker threads. Two threads may race
        // to lower the same file; both produce identical summaries and
        // the second insert is a harmless overwrite.
        self.misses.fetch_add(1, Ordering::Relaxed);
        let summary = {
            let _lower = strtaint_obs::Span::enter("lower", "");
            Arc::new(FileSummary {
                body: frontend.lower(src)?,
                content_hash: key.0,
            })
        };
        self.map
            .lock()
            .unwrap_or_else(|p| p.into_inner())
            .insert(key, Arc::clone(&summary));
        Ok(summary)
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
