//! The daemon's resident state and the incremental analysis driver.
//!
//! One [`DaemonState`] lives for the whole process: the [`Vfs`], a
//! content-hash index over it, the shared [`SummaryCache`] (AST→IR
//! lowering), the [`PolicyChecker`], the in-memory verdict
//! map, and the optional on-disk [`ArtifactStore`]. Requests from any
//! number of clients funnel into `&self` methods; interior locks are
//! held only around map/tree access, never across an analysis, so a
//! slow page computation cannot serialize other clients.
//!
//! Dirty-set invalidation is *pull-based*: verdicts are never eagerly
//! expired. Each carries its freshness evidence (dependency content
//! hashes + path-set digest + config fingerprint), and every `analyze`
//! request re-checks that evidence against the live tree — O(deps) hash
//! lookups per page. An edit via `invalidate` just updates the tree and
//! the hash index; the pages whose evidence no longer matches recompute
//! on their next request, everything else replays.

use std::collections::HashMap;
use std::panic::AssertUnwindSafe;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, RwLock};
use std::time::Instant;

use strtaint::{
    analyze_page_cached, Config, EngineStats, PageReport, PolicyChecker, SummaryCache, Vfs,
};
use strtaint_analysis::frontend::FrontendSet;
use strtaint_analysis::summary::content_hash;
use strtaint_analysis::vfs::normalize;
use strtaint_obs::{Counter, Histogram, MetricSnapshot, Registry, metrics::DURATION_US_BOUNDS};

use crate::json::Json;
use crate::store::ArtifactStore;
use crate::verdict::{page_to_json, tree_digest, verdict_key, Verdict};

/// Whether a page's verdict came from the engine or from the cache.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PageOutcome {
    /// Bar-Hillel queries actually ran for this page.
    Computed,
    /// A stored verdict was replayed; zero engine work.
    Replayed,
}

/// Lifetime counters surfaced by `status` and the `metrics` verb.
///
/// Registry-backed: each counter is registered in the daemon's
/// instance [`Registry`], so the `metrics` verb reports them without a
/// second bookkeeping path, and a daemon restart (fresh `DaemonState`,
/// fresh registry) starts them from zero even when the artifact store
/// replays every verdict.
#[derive(Debug)]
pub struct DaemonCounters {
    /// Pages analyzed by running the engine.
    pub pages_computed: Arc<Counter>,
    /// Pages answered by verdict replay.
    pub pages_replayed: Arc<Counter>,
    /// Requests handled (all commands).
    pub requests: Arc<Counter>,
}

impl DaemonCounters {
    fn new(registry: &Registry) -> DaemonCounters {
        DaemonCounters {
            pages_computed: registry.counter("daemon.pages_computed"),
            pages_replayed: registry.counter("daemon.pages_replayed"),
            requests: registry.counter("daemon.requests"),
        }
    }
}

/// The resident state behind a `strtaint serve` process.
pub struct DaemonState {
    /// The project tree. Write-locked only by `invalidate`.
    vfs: RwLock<Vfs>,
    /// `path → content hash`, kept in lockstep with `vfs` — verdict
    /// freshness checks are map lookups, not re-hashes.
    hashes: RwLock<HashMap<String, u64>>,
    /// Digest of the current path set (see `verdict::tree_digest`).
    tree: AtomicU64,
    /// Base configuration; per-request budget overrides derive from it.
    config: Config,
    /// `config.replay_fingerprint()`, cached (frontend-free — see
    /// [`crate::verdict::verdict_key`]).
    config_fp: u64,
    /// The base config's frontend set: extension dispatch for verdict
    /// frontend evidence and freshness checks.
    frontends: FrontendSet,
    /// Prepared automata for every built-in policy, page-independent.
    checker: PolicyChecker,
    /// Shared AST→IR summary cache (content-hash keyed, so edits
    /// invalidate themselves).
    summaries: SummaryCache,
    /// Resident verdicts by cache key.
    verdicts: Mutex<HashMap<u64, Arc<Verdict>>>,
    /// Optional persistence; `None` = memory-only daemon.
    store: Option<ArtifactStore>,
    /// Engine work performed by *this process* (replays add nothing).
    engine: Mutex<EngineStats>,
    /// Instance metrics registry behind the `metrics` verb.
    registry: Registry,
    /// Request latency, replay path (microseconds).
    replay_us: Arc<Histogram>,
    /// Request latency, compute path (microseconds).
    compute_us: Arc<Histogram>,
    /// Request/page counters.
    pub counters: DaemonCounters,
}

impl std::fmt::Debug for DaemonState {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("DaemonState")
            .field("files", &self.vfs.read().map(|v| v.len()).unwrap_or(0))
            .field("config_fp", &self.config_fp)
            .field("persistent", &self.store.is_some())
            .finish()
    }
}

impl DaemonState {
    /// Creates a daemon over `vfs` with `config`, persisting artifacts
    /// through `store` when given.
    pub fn new(vfs: Vfs, config: Config, store: Option<ArtifactStore>) -> DaemonState {
        let hashes: HashMap<String, u64> = vfs
            .paths()
            .map(|p| (p.to_owned(), content_hash(vfs.get(p).unwrap_or(b""))))
            .collect();
        let tree = tree_digest(vfs.paths());
        let config_fp = config.replay_fingerprint();
        let frontends = FrontendSet::from_config(&config);
        let registry = Registry::new();
        let counters = DaemonCounters::new(&registry);
        let replay_us = registry.histogram("daemon.replay_us", DURATION_US_BOUNDS);
        let compute_us = registry.histogram("daemon.compute_us", DURATION_US_BOUNDS);
        let state = DaemonState {
            vfs: RwLock::new(vfs),
            hashes: RwLock::new(hashes),
            tree: AtomicU64::new(tree),
            config,
            config_fp,
            frontends,
            checker: PolicyChecker::new(),
            summaries: SummaryCache::new(),
            verdicts: Mutex::new(HashMap::new()),
            store,
            engine: Mutex::new(EngineStats::default()),
            registry,
            replay_us,
            compute_us,
            counters,
        };
        state.persist_manifest();
        state
    }

    /// The store, if this daemon persists artifacts.
    pub fn store(&self) -> Option<&ArtifactStore> {
        self.store.as_ref()
    }

    /// Engine work performed by this process so far.
    pub fn engine_stats(&self) -> EngineStats {
        *self.engine.lock().unwrap_or_else(|p| p.into_inner())
    }

    /// The shared summary cache (hit/miss counters feed `status`).
    pub fn summaries(&self) -> &SummaryCache {
        &self.summaries
    }

    /// Current `(files, lines)` of the resident tree.
    pub fn tree_size(&self) -> (usize, usize) {
        let vfs = self.vfs.read().unwrap_or_else(|p| p.into_inner());
        (vfs.len(), vfs.total_lines())
    }

    fn persist_manifest(&self) {
        if let Some(store) = &self.store {
            let hashes = self.hashes.read().unwrap_or_else(|p| p.into_inner());
            let mut files: Vec<(String, u64)> =
                hashes.iter().map(|(p, h)| (p.clone(), *h)).collect();
            files.sort();
            store.put_manifest(&files, self.config_fp);
        }
    }

    /// Applies one tree delta (`Some` = upsert, `None` = remove).
    /// Returns `true` when the tree actually changed. Stale verdicts
    /// are not expired here — their dependency evidence stops matching,
    /// which the next `analyze` detects.
    pub fn invalidate(&self, path: &str, contents: Option<Vec<u8>>) -> bool {
        let norm = normalize(path);
        let mut vfs = self.vfs.write().unwrap_or_else(|p| p.into_inner());
        let new_hash = contents.as_deref().map(content_hash);
        let changed = vfs.apply_delta(&norm, contents);
        if changed {
            let mut hashes = self.hashes.write().unwrap_or_else(|p| p.into_inner());
            match new_hash {
                Some(h) => {
                    if hashes.insert(norm, h).is_none() {
                        // Path set grew: recompute the layout digest.
                        self.tree.store(tree_digest(vfs.paths()), Ordering::Relaxed);
                    }
                }
                None => {
                    hashes.remove(&norm);
                    self.tree.store(tree_digest(vfs.paths()), Ordering::Relaxed);
                }
            }
        }
        drop(vfs);
        if changed {
            self.persist_manifest();
        }
        changed
    }

    /// `true` when `v`'s freshness evidence matches the live tree and
    /// configuration — the replay precondition. Frontend evidence is
    /// validated per-dependency against the live frontend set: a page
    /// stays replayable across an extension-map flip unless one of
    /// *its* files now dispatches to a different frontend (or a
    /// frontend's lowering fingerprint changed).
    fn is_fresh(&self, v: &Verdict, config_fp: u64, frontends: &FrontendSet) -> bool {
        if v.config_fp != config_fp {
            return false;
        }
        if v.tree != self.tree.load(Ordering::Relaxed) {
            return false;
        }
        {
            let hashes = self.hashes.read().unwrap_or_else(|p| p.into_inner());
            if !v
                .deps
                .iter()
                .all(|(path, hash)| hashes.get(path) == Some(hash))
            {
                return false;
            }
        }
        v.frontends.iter().all(|(path, id, fp)| {
            let live = frontends.for_path(path);
            live.id() == id && live.fingerprint() == *fp
        })
    }

    /// Analyzes (or replays) one page under the given effective config,
    /// returning the rendered page object and where it came from.
    ///
    /// The per-request budget lives inside `config` (`timeout`/`fuel`):
    /// each page gets a fresh `Budget` from it, so one slow request
    /// degrades soundly inside its own envelope instead of starving
    /// the process. `xss` is the wire form of the policy set `["xss"]`:
    /// it replaces `config.policies` for this page.
    pub fn analyze_page(
        &self,
        entry: &str,
        xss: bool,
        config: &Config,
    ) -> (Json, PageOutcome) {
        let t0 = Instant::now();
        let entry = normalize(entry);
        // The verdict key and evidence follow the effective policy set:
        // with only `xss` enabled, SQL sink methods are unmodeled calls,
        // so the page differs from one analyzed under the request's set.
        let xss_config;
        let config = if xss {
            xss_config = Config {
                policies: vec![strtaint::policy::XSS_POLICY.to_owned()],
                ..config.clone()
            };
            &xss_config
        } else {
            config
        };
        let request_frontends;
        let (config_fp, frontends) = if std::ptr::eq(config, &self.config) {
            (self.config_fp, &self.frontends)
        } else {
            request_frontends = FrontendSet::from_config(config);
            (config.replay_fingerprint(), &request_frontends)
        };
        let key = verdict_key(&entry, xss, config_fp);

        // 1. Resident verdict, still fresh → replay.
        {
            let verdicts = self.verdicts.lock().unwrap_or_else(|p| p.into_inner());
            if let Some(v) = verdicts.get(&key) {
                if self.is_fresh(v, config_fp, frontends) {
                    self.counters.pages_replayed.inc();
                    self.replay_us.observe(elapsed_us(t0));
                    return (v.page.clone(), PageOutcome::Replayed);
                }
            }
        }

        // 2. Stored artifact, validated → adopt and replay.
        if let Some(store) = &self.store {
            if let Some(artifact) = store.get_verdict(key) {
                match Verdict::from_artifact(&artifact) {
                    Some(v)
                        if v.entry == entry
                            && v.xss == xss
                            && self.is_fresh(&v, config_fp, frontends) =>
                    {
                        let v = Arc::new(v);
                        self.verdicts
                            .lock()
                            .unwrap_or_else(|p| p.into_inner())
                            .insert(key, Arc::clone(&v));
                        self.counters.pages_replayed.inc();
                        self.replay_us.observe(elapsed_us(t0));
                        return (v.page.clone(), PageOutcome::Replayed);
                    }
                    // Parsable but stale or ill-formed: drop it; the
                    // recompute below overwrites the slot.
                    _ => store.invalidate_verdict(key),
                }
            }
        }

        // 3. Compute. The Vfs read lock is held for the duration of the
        // page analysis; `invalidate` (the only writer) queues behind
        // it, which is exactly the consistency we want — a page is
        // analyzed against one tree snapshot.
        let vfs = self.vfs.read().unwrap_or_else(|p| p.into_inner());
        let report = self.run_isolated(&vfs, &entry, config);
        let page = page_to_json(&report);

        let mut engine = self.engine.lock().unwrap_or_else(|p| p.into_inner());
        engine.merge(&report.engine_stats());
        drop(engine);
        self.counters.pages_computed.inc();
        self.compute_us.observe(elapsed_us(t0));

        // Skipped pages (parse error, panic) are never cached: the
        // failure may be environmental, and replaying a panic verdict
        // would hide recovery.
        if report.skipped.is_none() {
            let deps = self.dep_hashes(&vfs, &report, config);
            let frontend_evidence = deps
                .iter()
                .map(|(path, _)| {
                    let f = frontends.for_path(path);
                    (path.clone(), f.id().to_owned(), f.fingerprint())
                })
                .collect();
            let verdict = Arc::new(Verdict {
                entry: entry.clone(),
                xss,
                policies: config.policies.clone(),
                config_fp,
                tree: self.tree.load(Ordering::Relaxed),
                deps,
                frontends: frontend_evidence,
                page: page.clone(),
            });
            if let Some(store) = &self.store {
                store.put_verdict(key, verdict.to_artifact_body());
            }
            self.verdicts
                .lock()
                .unwrap_or_else(|p| p.into_inner())
                .insert(key, verdict);
        }
        (page, PageOutcome::Computed)
    }

    /// The dependency evidence for a fresh report: content hashes of
    /// every input file. Under `backward_slice` the relevance pre-pass
    /// reads the whole tree, so the dependency set is widened to every
    /// file (replay stays sound at the cost of incrementality).
    fn dep_hashes(&self, vfs: &Vfs, report: &PageReport, config: &Config) -> Vec<(String, u64)> {
        let hashes = self.hashes.read().unwrap_or_else(|p| p.into_inner());
        let lookup = |p: &str| {
            hashes
                .get(p)
                .copied()
                .unwrap_or_else(|| content_hash(vfs.get(p).unwrap_or(b"")))
        };
        if config.backward_slice {
            vfs.paths().map(|p| (p.to_owned(), lookup(p))).collect()
        } else {
            report
                .inputs
                .iter()
                .map(|p| (p.clone(), lookup(p)))
                .collect()
        }
    }

    /// Runs one page analysis with panic isolation (a panic becomes a
    /// skipped-page report, exactly like the batch driver).
    fn run_isolated(&self, vfs: &Vfs, entry: &str, config: &Config) -> PageReport {
        let run = || analyze_page_cached(vfs, entry, config, &self.checker, &self.summaries);
        match std::panic::catch_unwind(AssertUnwindSafe(run)) {
            Ok(Ok(report)) => report,
            Ok(Err(err)) => PageReport::skipped_page(entry, format!("page skipped: {err}")),
            Err(_) => PageReport::skipped_page(
                entry,
                "page skipped: analyzer panicked".to_owned(),
            ),
        }
    }

    /// The effective config for a request: the base config with the
    /// request's budget overrides applied.
    pub fn effective_config(
        &self,
        timeout_ms: Option<f64>,
        fuel: Option<f64>,
        policies: Option<Vec<String>>,
    ) -> Config {
        let mut config = self.config.clone();
        if let Some(ms) = timeout_ms {
            if ms.is_finite() && ms > 0.0 {
                config.timeout = Some(std::time::Duration::from_secs_f64(ms / 1e3));
            }
        }
        if let Some(fuel) = fuel {
            if fuel.is_finite() && fuel >= 1.0 {
                config.fuel = Some(fuel as u64);
            }
        }
        if let Some(p) = policies {
            // A different policy set is a different config fingerprint,
            // so stored verdicts never cross-contaminate.
            config.policies = p;
        }
        config
    }

    /// The base config (no request overrides).
    pub fn base_config(&self) -> &Config {
        &self.config
    }

    /// Renders the instance metrics registry as one JSON object — the
    /// `metrics` verb's payload.
    ///
    /// The engine and summary-cache counters (everything the CLI's
    /// `--stats` table shows) are mirrored into gauges at snapshot
    /// time, so the verb covers both the daemon's own counters
    /// (requests, replay/compute latency histograms) and the full
    /// [`EngineStats`] without a second bookkeeping path.
    pub fn metrics_json(&self) -> Json {
        let e = self.engine_stats();
        let r = &self.registry;
        r.gauge("engine.queries").set(e.queries);
        r.gauge("engine.normalizations").set(e.normalizations);
        r.gauge("engine.normalizations_saved").set(e.normalizations_saved);
        r.gauge("engine.realized_triples").set(e.realized_triples);
        r.gauge("engine.early_exits").set(e.early_exits);
        r.gauge("engine.completions").set(e.completions);
        r.gauge("qcache.hits").set(e.qcache_hits);
        r.gauge("qcache.misses").set(e.qcache_misses);
        r.gauge("qcache.evictions").set(e.qcache_evictions);
        r.gauge("witness.skipped").set(e.witness_skipped);
        r.gauge("prefilter.skips").set(e.prefilter_skips);
        r.gauge("summary_cache.hits").set(self.summaries.hits());
        r.gauge("summary_cache.misses").set(self.summaries.misses());
        r.gauge("summary_cache.entries").set(self.summaries.len() as u64);
        let members = r
            .snapshot()
            .into_iter()
            .map(|(name, snap)| (name, snapshot_to_json(snap)))
            .collect();
        Json::Obj(members)
    }
}

/// Elapsed microseconds since `t0`, saturating.
fn elapsed_us(t0: Instant) -> u64 {
    u64::try_from(t0.elapsed().as_micros()).unwrap_or(u64::MAX)
}

/// One metric snapshot as wire JSON: counters and gauges become bare
/// numbers; histograms become `{count, sum, buckets: [{le, n}]}` with
/// `le: null` for the +∞ overflow bucket.
pub(crate) fn snapshot_to_json(snap: MetricSnapshot) -> Json {
    match snap {
        MetricSnapshot::Counter(v) | MetricSnapshot::Gauge(v) => Json::Num(v as f64),
        MetricSnapshot::Histogram { count, sum, buckets } => Json::obj(vec![
            ("count", Json::Num(count as f64)),
            ("sum", Json::Num(sum as f64)),
            (
                "buckets",
                Json::Arr(
                    buckets
                        .into_iter()
                        .map(|(le, n)| {
                            Json::obj(vec![
                                (
                                    "le",
                                    le.map(|v| Json::Num(v as f64)).unwrap_or(Json::Null),
                                ),
                                ("n", Json::Num(n as f64)),
                            ])
                        })
                        .collect(),
                ),
            ),
        ]),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn vfs_with(pages: &[(&str, &str)]) -> Vfs {
        let mut vfs = Vfs::new();
        for (path, src) in pages {
            vfs.add(*path, *src);
        }
        vfs
    }

    const SAFE: &str = "<?php $r = $DB->query(\"SELECT 1\");";
    const VULN: &str =
        "<?php $id = $_GET['id']; $r = $DB->query(\"SELECT * FROM t WHERE id='$id'\");";

    #[test]
    fn second_analysis_replays_from_memory() {
        let state = DaemonState::new(
            vfs_with(&[("a.php", SAFE)]),
            Config::default(),
            None,
        );
        let cfg = state.base_config().clone();
        let (p1, o1) = state.analyze_page("a.php", false, &cfg);
        let (p2, o2) = state.analyze_page("a.php", false, &cfg);
        assert_eq!(o1, PageOutcome::Computed);
        assert_eq!(o2, PageOutcome::Replayed);
        assert_eq!(p1.to_string(), p2.to_string(), "replay is byte-identical");
    }

    #[test]
    fn edit_invalidates_only_dependents() {
        let state = DaemonState::new(
            vfs_with(&[("a.php", SAFE), ("b.php", SAFE)]),
            Config::default(),
            None,
        );
        let cfg = state.base_config().clone();
        state.analyze_page("a.php", false, &cfg);
        state.analyze_page("b.php", false, &cfg);

        // Editing b.php (no structural change to the path set):
        assert!(state.invalidate("b.php", Some(VULN.as_bytes().to_vec())));

        let (_, oa) = state.analyze_page("a.php", false, &cfg);
        let (pb, ob) = state.analyze_page("b.php", false, &cfg);
        assert_eq!(oa, PageOutcome::Replayed, "untouched page replays");
        assert_eq!(ob, PageOutcome::Computed, "edited page recomputes");
        assert_eq!(pb.get("verified").and_then(Json::as_bool), Some(false));
    }

    #[test]
    fn adding_a_file_invalidates_everything() {
        let state = DaemonState::new(
            vfs_with(&[("a.php", SAFE)]),
            Config::default(),
            None,
        );
        let cfg = state.base_config().clone();
        state.analyze_page("a.php", false, &cfg);
        assert!(state.invalidate("new.php", Some(SAFE.as_bytes().to_vec())));
        let (_, o) = state.analyze_page("a.php", false, &cfg);
        assert_eq!(
            o,
            PageOutcome::Computed,
            "layout change conservatively recomputes (dynamic includes read the path set)"
        );
    }

    #[test]
    fn budget_override_does_not_reuse_base_verdicts() {
        let state = DaemonState::new(
            vfs_with(&[("a.php", SAFE)]),
            Config::default(),
            None,
        );
        let base = state.base_config().clone();
        state.analyze_page("a.php", false, &base);
        let tight = state.effective_config(None, Some(5.0), None);
        let (_, o) = state.analyze_page("a.php", false, &tight);
        assert_eq!(
            o,
            PageOutcome::Computed,
            "a different budget is a different config fingerprint"
        );
    }

    #[test]
    fn policy_set_change_does_not_reuse_verdicts() {
        const SHELL: &str = "<?php system(\"ls \" . $_GET['d']);";
        let state = DaemonState::new(
            vfs_with(&[("a.php", SHELL)]),
            Config::default(),
            None,
        );
        let base = state.base_config().clone();
        let (p1, o1) = state.analyze_page("a.php", false, &base);
        assert_eq!(o1, PageOutcome::Computed);
        // Under the default ["sql"] set the system() call is no sink.
        assert_eq!(p1.get("verified").and_then(Json::as_bool), Some(true));

        let shell =
            state.effective_config(None, None, Some(vec!["sql".into(), "shell".into()]));
        let (p2, o2) = state.analyze_page("a.php", false, &shell);
        assert_eq!(
            o2,
            PageOutcome::Computed,
            "a different policy set is a different config fingerprint"
        );
        assert_eq!(p2.get("verified").and_then(Json::as_bool), Some(false));

        // Both verdicts stay resident under their own keys.
        let (_, o3) = state.analyze_page("a.php", false, &base);
        let (_, o4) = state.analyze_page("a.php", false, &shell);
        assert_eq!(o3, PageOutcome::Replayed);
        assert_eq!(o4, PageOutcome::Replayed);
    }

    #[test]
    fn noop_delta_changes_nothing() {
        let state = DaemonState::new(
            vfs_with(&[("a.php", SAFE)]),
            Config::default(),
            None,
        );
        let cfg = state.base_config().clone();
        state.analyze_page("a.php", false, &cfg);
        assert!(!state.invalidate("a.php", Some(SAFE.as_bytes().to_vec())));
        let (_, o) = state.analyze_page("a.php", false, &cfg);
        assert_eq!(o, PageOutcome::Replayed);
    }

    #[test]
    fn skipped_pages_are_never_cached() {
        let state = DaemonState::new(Vfs::new(), Config::default(), None);
        let cfg = state.base_config().clone();
        let (p, o) = state.analyze_page("missing.php", false, &cfg);
        assert_eq!(o, PageOutcome::Computed);
        assert!(p.get("skipped").and_then(Json::as_str).is_some());
        assert_eq!(p.get("verified").and_then(Json::as_bool), Some(false));
        let (_, o2) = state.analyze_page("missing.php", false, &cfg);
        assert_eq!(o2, PageOutcome::Computed, "failures are retried, not replayed");
    }
}
