//! The daemon's resident state and the incremental analysis driver.
//!
//! One [`DaemonState`] lives for the whole process: the [`Vfs`], a
//! content-hash index over it, the shared [`SummaryCache`] (AST→IR
//! lowering), the [`PolicyChecker`], the in-memory verdict
//! map, and the optional on-disk [`ArtifactStore`]. Requests from any
//! number of clients funnel into `&self` methods. A request replays
//! its fresh verdicts inline, in entry order, and runs the rest through
//! one page-driver run ([`strtaint::analyze_pages_then`]) under one
//! `Vfs` read lock, held for that request's miss set; `invalidate` (the
//! only writer) queues behind it. Other locks are held only around map
//! access.
//!
//! A verdict holds its rendered page as the JSON writer's bytes, so a
//! replay hands out a shared `Arc<str>` and the response copies it in;
//! the warm edit path builds no page tree and writes no file besides
//! the one recomputed page's artifact.
//!
//! Dirty-set invalidation is *pull-based*: verdicts are never eagerly
//! expired. Each carries its freshness evidence (dependency content
//! hashes + path-set digest + config fingerprint), and every `analyze`
//! request re-checks that evidence against the live tree — O(deps) hash
//! lookups per page. An edit via `invalidate` just updates the tree and
//! the hash index; the pages whose evidence no longer matches recompute
//! on their next request, everything else replays.

use std::borrow::Cow;
use std::collections::{HashMap, HashSet};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, RwLock};
use std::time::{Duration, Instant};

use strtaint::{
    analyze_pages_then, Config, EngineStats, Evidence, PageReport, PolicyChecker, SummaryCache, Vfs,
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

/// A request's effective configuration, resolved once for all of its
/// pages: the config, the replay fingerprint that keys its verdicts,
/// and the frontend set their evidence is checked against. A request
/// without overrides borrows the base resolution.
pub(crate) struct PageConfig<'a> {
    config: Cow<'a, Config>,
    config_fp: u64,
    frontends: Cow<'a, FrontendSet>,
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
        DaemonState {
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
        }
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
            let old = match new_hash {
                Some(h) => hashes.insert(norm, h),
                None => hashes.remove(&norm),
            };
            if old.is_none() || new_hash.is_none() {
                // The path set changed: recompute the layout digest.
                self.tree.store(tree_digest(vfs.paths()), Ordering::Relaxed);
            }
            // Bytes no file holds any more are never looked up again.
            if let Some(old) = old.filter(|old| !hashes.values().any(|h| h == old)) {
                self.summaries.evict(old);
            }
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
    /// returning the rendered page object and where it came from: the
    /// `analyze` verb's path for a one-entry request. The page is a
    /// [`Json::Raw`] node holding the writer's bytes.
    ///
    /// The per-request budget lives inside `config` (`timeout`/`fuel`):
    /// each page gets a fresh `Budget` from it, so one slow request
    /// degrades soundly inside its own envelope instead of starving
    /// the process. `xss` is the wire form of the policy set `["xss"]`:
    /// it replaces `config.policies` for this page, so the page is the
    /// one a request naming that set gets, under the same verdict key.
    pub fn analyze_page(
        &self,
        entry: &str,
        xss: bool,
        config: &Config,
    ) -> (Json, PageOutcome) {
        let config = if xss {
            Cow::Owned(Config {
                policies: vec![strtaint::policy::XSS_POLICY.to_owned()],
                ..config.clone()
            })
        } else {
            Cow::Borrowed(config)
        };
        let config = self.resolve(config);
        let (page, outcome) = self
            .analyze_entries(&[entry], &config)
            .pop()
            .expect("one page per entry");
        (Json::Raw(page), outcome)
    }

    /// Resolves `config` for a run of pages. The base config reuses the
    /// fingerprint and frontend set computed at start-up. The policy set
    /// is part of the fingerprint, so the verdict key follows it.
    fn resolve<'a>(&'a self, config: Cow<'a, Config>) -> PageConfig<'a> {
        if std::ptr::eq(config.as_ref(), &self.config) {
            return PageConfig {
                config,
                config_fp: self.config_fp,
                frontends: Cow::Borrowed(&self.frontends),
            };
        }
        PageConfig {
            config_fp: config.replay_fingerprint(),
            frontends: Cow::Owned(FrontendSet::from_config(&config)),
            config,
        }
    }

    /// A request's effective config (see [`DaemonState::effective_config`]),
    /// resolved once for all of its pages.
    pub(crate) fn request_config(
        &self,
        timeout_ms: Option<f64>,
        fuel: Option<f64>,
        policies: Option<Vec<String>>,
    ) -> PageConfig<'_> {
        self.resolve(self.overridden(timeout_ms, fuel, policies))
    }

    /// Analyzes (or replays) `entries` under a resolved config: the
    /// `analyze` and `profile` verbs. Returns each page as the writer's
    /// bytes with where it came from, in entry order.
    ///
    /// Replays resolve inline, in entry order. The misses go through
    /// one page-driver run against one tree snapshot, each key once. A
    /// later copy of a missed entry then replays the verdict its first
    /// copy recorded, or computes again when that page was skipped
    /// (skipped pages are never cached).
    pub(crate) fn analyze_entries<E: AsRef<str>>(
        &self,
        entries: &[E],
        pc: &PageConfig<'_>,
    ) -> Vec<(Arc<str>, PageOutcome)> {
        let mut out: Vec<Option<(Arc<str>, PageOutcome)>> = vec![None; entries.len()];
        let (mut misses, mut slots, mut copies) = (Vec::new(), Vec::new(), Vec::new());
        let mut missed = HashSet::new();
        for (slot, entry) in entries.iter().enumerate() {
            let entry = normalize(entry.as_ref());
            let key = verdict_key(&entry, pc.config_fp);
            if missed.contains(&key) {
                copies.push((slot, entry, key));
            } else if let Some(page) = self.replay(&entry, key, pc) {
                out[slot] = Some((page, PageOutcome::Replayed));
            } else {
                missed.insert(key);
                misses.push(entry);
                slots.push(slot);
            }
        }
        for (slot, page) in slots.into_iter().zip(self.compute(&misses, pc)) {
            out[slot] = Some((page, PageOutcome::Computed));
        }
        for (slot, entry, key) in copies {
            out[slot] = Some(match self.replay(&entry, key, pc) {
                Some(page) => (page, PageOutcome::Replayed),
                None => {
                    let page = self.compute(&[entry], pc).pop();
                    (page.expect("one page per entry"), PageOutcome::Computed)
                }
            });
        }
        out.into_iter()
            .map(|page| page.expect("every slot resolved"))
            .collect()
    }

    /// The page bytes of a fresh verdict for `entry`, resident or
    /// stored, or `None` when the page must be computed.
    fn replay(&self, entry: &str, key: u64, pc: &PageConfig<'_>) -> Option<Arc<str>> {
        let t0 = Instant::now();
        let fresh = |v: &Verdict| self.is_fresh(v, pc.config_fp, &pc.frontends);
        // 1. Resident verdict, still fresh → replay.
        let resident = self
            .verdicts
            .lock()
            .unwrap_or_else(|p| p.into_inner())
            .get(&key)
            .filter(|v| fresh(v))
            .map(|v| Arc::clone(&v.page));
        // 2. Stored artifact, validated → adopt and replay. A stale or
        // ill-formed one is dropped; the recompute overwrites its slot.
        let page = resident.or_else(|| {
            let store = self.store.as_ref()?;
            let artifact = store.get_verdict(key)?;
            let Some(v) = Verdict::from_artifact(&artifact)
                .filter(|v| v.entry == entry && fresh(v))
            else {
                store.invalidate_verdict(key);
                return None;
            };
            let page = Arc::clone(&v.page);
            self.verdicts
                .lock()
                .unwrap_or_else(|p| p.into_inner())
                .insert(key, Arc::new(v));
            Some(page)
        })?;
        self.counters.pages_replayed.inc();
        self.replay_us.observe(micros(t0.elapsed()));
        Some(page)
    }

    /// Computes `entries` in one page-driver run, rendering and
    /// recording each page on its worker as it completes, and returns
    /// the pages in order. The Vfs read lock is held for the whole run;
    /// `invalidate` (the only writer) queues behind it, so every page is
    /// analyzed against one tree snapshot. A page's `compute_us`
    /// observation is its own analysis and check time plus its
    /// recording.
    fn compute(&self, entries: &[String], pc: &PageConfig<'_>) -> Vec<Arc<str>> {
        let vfs = self.vfs.read().unwrap_or_else(|p| p.into_inner());
        analyze_pages_then(
            &vfs,
            entries,
            &pc.config,
            &self.checker,
            &self.summaries,
            Evidence::Skeletons,
            |entry, result| {
                let t0 = Instant::now();
                let report = result.unwrap_or_else(|err| {
                    PageReport::skipped_page(entry, format!("page skipped: {err}"))
                });
                let page = page_to_json(&report).preserialized();
                self.engine
                    .lock()
                    .unwrap_or_else(|p| p.into_inner())
                    .merge(&report.engine_stats());
                self.counters.pages_computed.inc();
                // Skipped pages (parse error, panic) are never cached:
                // the failure may be environmental, and replaying a
                // panic verdict would hide recovery.
                if report.skipped.is_none() {
                    let hashes = self.hashes.read().unwrap_or_else(|p| p.into_inner());
                    let (deps, frontends) = report
                        .inputs
                        .iter()
                        .map(|path| {
                            let hash = hashes
                                .get(path)
                                .copied()
                                .unwrap_or_else(|| content_hash(vfs.get(path).unwrap_or(b"")));
                            let f = pc.frontends.for_path(path);
                            let frontend = (path.clone(), f.id().to_owned(), f.fingerprint());
                            ((path.clone(), hash), frontend)
                        })
                        .unzip();
                    drop(hashes);
                    let verdict = Arc::new(Verdict {
                        entry: entry.clone(),
                        policies: pc.config.policies.clone(),
                        config_fp: pc.config_fp,
                        tree: self.tree.load(Ordering::Relaxed),
                        deps,
                        frontends,
                        page: Arc::clone(&page),
                    });
                    let key = verdict_key(entry, pc.config_fp);
                    if let Some(store) = &self.store {
                        store.put_verdict(key, verdict.to_artifact_body());
                    }
                    self.verdicts
                        .lock()
                        .unwrap_or_else(|p| p.into_inner())
                        .insert(key, verdict);
                }
                self.compute_us.observe(micros(
                    report.analysis_time + report.check_time + t0.elapsed(),
                ));
                page
            },
        )
    }

    /// The effective config for a request: the base config with the
    /// request's budget overrides applied.
    pub fn effective_config(
        &self,
        timeout_ms: Option<f64>,
        fuel: Option<f64>,
        policies: Option<Vec<String>>,
    ) -> Config {
        self.overridden(timeout_ms, fuel, policies).into_owned()
    }

    /// The base config with the request's valid overrides applied;
    /// borrowed when there are none.
    fn overridden(
        &self,
        timeout_ms: Option<f64>,
        fuel: Option<f64>,
        policies: Option<Vec<String>>,
    ) -> Cow<'_, Config> {
        let timeout_ms = timeout_ms.filter(|ms| ms.is_finite() && *ms > 0.0);
        let fuel = fuel.filter(|fuel| fuel.is_finite() && *fuel >= 1.0);
        if timeout_ms.is_none() && fuel.is_none() && policies.is_none() {
            return Cow::Borrowed(&self.config);
        }
        let mut config = self.config.clone();
        if let Some(ms) = timeout_ms {
            config.timeout = Some(std::time::Duration::from_secs_f64(ms / 1e3));
        }
        if let Some(fuel) = fuel {
            config.fuel = Some(fuel as u64);
        }
        if let Some(p) = policies {
            // A different policy set is a different config fingerprint,
            // so stored verdicts never cross-contaminate.
            config.policies = p;
        }
        Cow::Owned(config)
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

/// `d` in whole microseconds, saturating.
fn micros(d: Duration) -> u64 {
    u64::try_from(d.as_micros()).unwrap_or(u64::MAX)
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

    /// A page as a client reads it: its bytes parsed back into a tree.
    fn fields(page: &Json) -> Json {
        crate::json::parse(&page.to_string()).expect("page bytes parse")
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
        assert_eq!(fields(&pb).get("verified").and_then(Json::as_bool), Some(false));
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
        assert_eq!(fields(&p1).get("verified").and_then(Json::as_bool), Some(true));

        let shell =
            state.effective_config(None, None, Some(vec!["sql".into(), "shell".into()]));
        let (p2, o2) = state.analyze_page("a.php", false, &shell);
        assert_eq!(
            o2,
            PageOutcome::Computed,
            "a different policy set is a different config fingerprint"
        );
        assert_eq!(fields(&p2).get("verified").and_then(Json::as_bool), Some(false));

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
        let p = fields(&p);
        assert!(p.get("skipped").and_then(Json::as_str).is_some());
        assert_eq!(p.get("verified").and_then(Json::as_bool), Some(false));
        let (_, o2) = state.analyze_page("missing.php", false, &cfg);
        assert_eq!(o2, PageOutcome::Computed, "failures are retried, not replayed");
    }

    #[test]
    fn superseded_contents_leave_the_summary_cache() {
        let state = DaemonState::new(
            vfs_with(&[("a.php", SAFE), ("b.php", SAFE)]),
            Config::default(),
            None,
        );
        let cfg = state.base_config().clone();
        state.analyze_page("a.php", false, &cfg);
        assert_eq!(state.summaries().len(), 1, "a.php and b.php share bytes");
        // b.php still holds SAFE: its summary stays.
        assert!(state.invalidate("a.php", Some(VULN.as_bytes().to_vec())));
        state.analyze_page("a.php", false, &cfg);
        assert_eq!(state.summaries().len(), 2);
        // No file holds SAFE any more; then none holds VULN.
        assert!(state.invalidate("b.php", Some(VULN.as_bytes().to_vec())));
        assert_eq!(state.summaries().len(), 1);
        assert!(state.invalidate("a.php", None));
        assert!(state.invalidate("b.php", None));
        assert_eq!(state.summaries().len(), 0);
    }

    #[test]
    fn request_without_overrides_reuses_the_base_resolution() {
        let state = DaemonState::new(vfs_with(&[("a.php", SAFE)]), Config::default(), None);
        let base = state.request_config(None, None, None);
        assert!(std::ptr::eq(base.config.as_ref(), state.base_config()));
        assert!(matches!(base.frontends, Cow::Borrowed(_)));
        assert_eq!(base.config_fp, state.config_fp);
        // Ignored (invalid) overrides are no overrides.
        let ignored = state.request_config(Some(-1.0), Some(0.5), None);
        assert!(matches!(ignored.frontends, Cow::Borrowed(_)));

        let tight = state.request_config(None, Some(5.0), None);
        assert!(matches!(tight.frontends, Cow::Owned(_)));
        assert_ne!(tight.config_fp, state.config_fp);
        let xss_only = Some(vec![strtaint::policy::XSS_POLICY.to_owned()]);
        let xss = state.request_config(None, None, xss_only);
        assert_ne!(xss.config_fp, state.config_fp);
        assert_eq!(xss.config.policies, vec![strtaint::policy::XSS_POLICY.to_owned()]);
    }
}
