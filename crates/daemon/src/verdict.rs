//! Verdict serialization: [`PageReport`] → JSON, and the artifact
//! envelope the store persists around it.
//!
//! The page JSON produced by [`page_to_json`] is the *single* rendering
//! used both for fresh responses and for replayed ones. It is written
//! once, when the page is computed, and a [`Verdict`] holds those
//! writer bytes: the response, the resident verdict and the stored
//! artifact share one `Arc<str>`, and a replay copies the bytes into
//! the response. An adopted artifact keeps the writer bytes of its
//! parsed page, which equal the bytes it was saved from because the
//! JSON writer is a fixpoint of `parse` (see [`crate::json`]). So a
//! warm daemon's response is byte-identical to the cold response the
//! artifact was saved from.
//!
//! Replay soundness (DESIGN.md §5d): a stored verdict may substitute
//! for a fresh analysis only when *all* of the following match the
//! live state — the engine version and artifact format (checked by the
//! store), the full config fingerprint, the content hash of every file
//! the original analysis read, and the project path-set digest (dynamic
//! include resolution reads the layout, so adding or removing *any*
//! file conservatively invalidates every verdict). Under those
//! equalities the original run and a hypothetical re-run are the same
//! deterministic function of the same inputs, so replay returns exactly
//! what re-analysis would.

use std::collections::hash_map::DefaultHasher;
use std::hash::{Hash, Hasher};
use std::sync::Arc;

use strtaint::{PageReport, Taint};

use crate::json::{hex64, parse_hex64, Json};

/// Computes the verdict cache key for one page analysis: entry path +
/// replay config fingerprint
/// ([`Config::replay_fingerprint`](strtaint::Config::replay_fingerprint)
/// — every analysis-observable knob *except* frontend selection). Tree
/// state is deliberately *not* part of the key — a re-analysis after
/// an edit overwrites the stale verdict in place. Frontend selection
/// is deliberately not part of the key either: flipping the extension
/// map re-keys nothing, and the per-dependency frontend evidence on
/// each [`Verdict`] lets freshness validation recompute exactly the
/// pages whose dependencies now dispatch to a different frontend.
pub fn verdict_key(entry: &str, config_fp: u64) -> u64 {
    let mut h = DefaultHasher::new();
    entry.hash(&mut h);
    config_fp.hash(&mut h);
    h.finish()
}

/// Digest of the project's *path set* (names only, sorted — contents
/// are covered per-dependency). Any file addition, removal, or rename
/// changes this digest and conservatively invalidates every verdict,
/// because dynamic include resolution intersects the layout.
pub fn tree_digest<'a>(paths: impl Iterator<Item = &'a str>) -> u64 {
    let mut h = DefaultHasher::new();
    for p in paths {
        p.hash(&mut h);
    }
    h.finish()
}

fn taint_str(t: Taint) -> &'static str {
    match (t.is_direct(), t.is_indirect()) {
        (true, true) => "direct+indirect",
        (true, false) => "direct",
        (false, true) => "indirect",
        (false, false) => "none",
    }
}

fn opt_str(v: Option<String>) -> Json {
    v.map(Json::Str).unwrap_or(Json::Null)
}

/// Renders one [`PageReport`] as the protocol's page object. Everything
/// the CLI's JSON renderer exposes is here, plus the engine counters
/// and the transitive input list the daemon keys replay on.
pub fn page_to_json(report: &PageReport) -> Json {
    let hotspots: Vec<Json> = report
        .hotspots
        .iter()
        .map(|(h, r)| {
            let findings: Vec<Json> = r
                .findings
                .iter()
                .map(|f| {
                    Json::obj(vec![
                        ("rule", Json::Str(f.kind.rule_id().to_owned())),
                        ("source", Json::Str(f.name.clone())),
                        ("taint", Json::Str(taint_str(f.taint).to_owned())),
                        (
                            "witness",
                            opt_str(f.witness.as_deref().map(|w| {
                                String::from_utf8_lossy(w).into_owned()
                            })),
                        ),
                        ("witness_truncated", Json::Bool(f.witness_truncated)),
                        (
                            "example_query",
                            opt_str(f.example_query.as_deref().map(|q| {
                                String::from_utf8_lossy(q).into_owned()
                            })),
                        ),
                        ("detail", Json::Str(f.detail.clone())),
                        (
                            "at",
                            f.at.map(|(line, col)| {
                                Json::Arr(vec![
                                    Json::Num(f64::from(line)),
                                    Json::Num(f64::from(col)),
                                ])
                            })
                            .unwrap_or(Json::Null),
                        ),
                    ])
                })
                .collect();
            let degradations: Vec<Json> = r
                .degradations
                .iter()
                .map(|d| {
                    Json::obj(vec![
                        ("site", Json::Str(d.site.clone())),
                        ("resource", Json::Str(d.resource.tag().to_owned())),
                        ("action", Json::Str(d.action.tag().to_owned())),
                    ])
                })
                .collect();
            Json::obj(vec![
                ("label", Json::Str(h.label.clone())),
                ("file", Json::Str(h.file.clone())),
                ("line", Json::Num(f64::from(h.span.line))),
                ("col", Json::Num(f64::from(h.span.col))),
                ("policy", Json::Str(h.policy.clone())),
                (
                    "skeletons",
                    Json::Arr(r.skeleton_strings().into_iter().map(Json::Str).collect()),
                ),
                ("skeletons_complete", Json::Bool(r.skeletons_complete)),
                ("checked", Json::Num(r.checked as f64)),
                ("verified", Json::Num(r.verified as f64)),
                ("findings", Json::Arr(findings)),
                ("degradations", Json::Arr(degradations)),
                (
                    "engine",
                    Json::obj(vec![
                        ("queries", Json::Num(r.engine.queries as f64)),
                        ("normalizations", Json::Num(r.engine.normalizations as f64)),
                        (
                            "normalizations_saved",
                            Json::Num(r.engine.normalizations_saved as f64),
                        ),
                        (
                            "realized_triples",
                            Json::Num(r.engine.realized_triples as f64),
                        ),
                        ("early_exits", Json::Num(r.engine.early_exits as f64)),
                        ("completions", Json::Num(r.engine.completions as f64)),
                        ("qcache_hits", Json::Num(r.engine.qcache_hits as f64)),
                        ("qcache_misses", Json::Num(r.engine.qcache_misses as f64)),
                        (
                            "qcache_evictions",
                            Json::Num(r.engine.qcache_evictions as f64),
                        ),
                        (
                            "witness_skipped",
                            Json::Num(r.engine.witness_skipped as f64),
                        ),
                        (
                            "prefilter_skips",
                            Json::Num(r.engine.prefilter_skips as f64),
                        ),
                    ]),
                ),
            ])
        })
        .collect();

    let page_degradations: Vec<Json> = report
        .degradations
        .iter()
        .map(|d| {
            Json::obj(vec![
                ("site", Json::Str(d.site.clone())),
                ("resource", Json::Str(d.resource.tag().to_owned())),
                ("action", Json::Str(d.action.tag().to_owned())),
            ])
        })
        .collect();

    Json::obj(vec![
        ("entry", Json::Str(report.entry.clone())),
        ("verified", Json::Bool(report.is_verified())),
        ("degraded", Json::Bool(report.is_degraded())),
        ("skipped", opt_str(report.skipped.clone())),
        (
            "grammar_nonterminals",
            Json::Num(report.grammar_nonterminals as f64),
        ),
        (
            "grammar_productions",
            Json::Num(report.grammar_productions as f64),
        ),
        (
            "analysis_ms",
            Json::Num(report.analysis_time.as_secs_f64() * 1e3),
        ),
        ("check_ms", Json::Num(report.check_time.as_secs_f64() * 1e3)),
        ("files_analyzed", Json::Num(report.files_analyzed as f64)),
        (
            "inputs",
            Json::Arr(report.inputs.iter().cloned().map(Json::Str).collect()),
        ),
        ("hotspots", Json::Arr(hotspots)),
        ("degradations", Json::Arr(page_degradations)),
        (
            "warnings",
            Json::Arr(report.warnings.iter().cloned().map(Json::Str).collect()),
        ),
        (
            "unmodeled",
            Json::Arr(report.unmodeled.iter().cloned().map(Json::Str).collect()),
        ),
    ])
}

/// A verdict held resident (and persisted): the rendered page object
/// plus the freshness evidence replay is conditioned on.
#[derive(Debug, Clone)]
pub struct Verdict {
    /// Page entry path (normalized).
    pub entry: String,
    /// The enabled policy set the verdict was computed under. Already
    /// covered by `config_fp` (policies are fingerprinted), but stored
    /// explicitly as replay evidence so an artifact is self-describing
    /// — and so pre-policy artifacts (missing this member) are dropped
    /// rather than replayed under the wrong semantics.
    pub policies: Vec<String>,
    /// Replay config fingerprint at computation time (frontend-free —
    /// see [`verdict_key`]).
    pub config_fp: u64,
    /// Path-set digest at computation time.
    pub tree: u64,
    /// `(path, content hash)` of every file the analysis read.
    pub deps: Vec<(String, u64)>,
    /// `(path, frontend id, frontend fingerprint)` for every
    /// dependency: which frontend lowered each file. Freshness checks
    /// this against the live frontend set, so an extension-map or
    /// frontend-set flip invalidates exactly the pages whose
    /// dependencies dispatch differently. Pre-frontend artifacts lack
    /// this member and are dropped rather than replayed.
    pub frontends: Vec<(String, String, u64)>,
    /// The rendered page object (the protocol's `pages[i]`), as the
    /// JSON writer's bytes ([`Json::preserialized`]).
    pub page: Arc<str>,
}

impl Verdict {
    /// The artifact body members (the store adds version headers).
    pub fn to_artifact_body(&self) -> Vec<(String, Json)> {
        let deps: Vec<Json> = self
            .deps
            .iter()
            .map(|(path, hash)| {
                Json::obj(vec![
                    ("path", Json::Str(path.clone())),
                    ("hash", Json::Str(hex64(*hash))),
                ])
            })
            .collect();
        let frontends: Vec<Json> = self
            .frontends
            .iter()
            .map(|(path, id, fp)| {
                Json::obj(vec![
                    ("path", Json::Str(path.clone())),
                    ("id", Json::Str(id.clone())),
                    ("fp", Json::Str(hex64(*fp))),
                ])
            })
            .collect();
        vec![
            ("entry".to_owned(), Json::Str(self.entry.clone())),
            (
                "policies".to_owned(),
                Json::Arr(self.policies.iter().cloned().map(Json::Str).collect()),
            ),
            ("config_fp".to_owned(), Json::Str(hex64(self.config_fp))),
            ("tree".to_owned(), Json::Str(hex64(self.tree))),
            ("deps".to_owned(), Json::Arr(deps)),
            ("frontends".to_owned(), Json::Arr(frontends)),
            ("page".to_owned(), Json::Raw(Arc::clone(&self.page))),
        ]
    }

    /// Reconstructs a verdict from a loaded artifact, keeping the writer
    /// bytes of its page. `None` on any missing or ill-typed member (a
    /// corrupt-but-parsable artifact — the caller drops it).
    pub fn from_artifact(v: &Json) -> Option<Verdict> {
        let entry = v.get("entry")?.as_str()?.to_owned();
        let mut policies = Vec::new();
        for p in v.get("policies")?.as_arr()? {
            policies.push(p.as_str()?.to_owned());
        }
        let config_fp = parse_hex64(v.get("config_fp")?.as_str()?)?;
        let tree = parse_hex64(v.get("tree")?.as_str()?)?;
        let mut deps = Vec::new();
        for d in v.get("deps")?.as_arr()? {
            let path = d.get("path")?.as_str()?.to_owned();
            let hash = parse_hex64(d.get("hash")?.as_str()?)?;
            deps.push((path, hash));
        }
        // Pre-frontend artifacts lack the per-dependency frontend
        // evidence; they must be dropped (recomputed), never replayed —
        // the file could now dispatch to a different language.
        let mut frontends = Vec::new();
        for fe in v.get("frontends")?.as_arr()? {
            let path = fe.get("path")?.as_str()?.to_owned();
            let id = fe.get("id")?.as_str()?.to_owned();
            let fp = parse_hex64(fe.get("fp")?.as_str()?)?;
            frontends.push((path, id, fp));
        }
        let page = v.get("page")?;
        // The page object must at least identify the same entry — a
        // artifact whose body disagrees with its own header is invalid.
        if page.get("entry")?.as_str()? != entry {
            return None;
        }
        // Every hotspot must carry remediation evidence (policy id and
        // skeleton allowlist). Pre-remedy artifacts lack these members;
        // they must be dropped (recomputed), never replayed, or `fix`
        // and `profile` would see evidence-free hotspots.
        for hotspot in page.get("hotspots")?.as_arr()? {
            hotspot.get("policy")?.as_str()?;
            hotspot.get("skeletons")?.as_arr()?;
            hotspot.get("skeletons_complete")?.as_bool()?;
        }
        Some(Verdict {
            entry,
            policies,
            config_fp,
            tree,
            deps,
            frontends,
            page: page.preserialized(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn verdict_key_separates_entries_and_configs() {
        assert_ne!(verdict_key("a.php", 1), verdict_key("a.php", 2));
        assert_ne!(verdict_key("a.php", 1), verdict_key("b.php", 1));
        assert_eq!(verdict_key("a.php", 1), verdict_key("a.php", 1));
    }

    #[test]
    fn tree_digest_tracks_the_path_set() {
        let d1 = tree_digest(["a.php", "b.php"].into_iter());
        let d2 = tree_digest(["a.php"].into_iter());
        let d3 = tree_digest(["a.php", "b.php"].into_iter());
        assert_ne!(d1, d2);
        assert_eq!(d1, d3);
    }

    /// An artifact body as the store reads it back: written, then parsed.
    fn stored(body: Vec<(String, Json)>) -> Json {
        crate::json::parse(&Json::Obj(body).to_string()).expect("artifact parses")
    }

    /// A minimal valid page object: one hotspot carrying the full
    /// remediation evidence the replay validator requires.
    fn page_with_evidence(entry: &str) -> Json {
        Json::obj(vec![
            ("entry", Json::Str(entry.into())),
            (
                "hotspots",
                Json::Arr(vec![Json::obj(vec![
                    ("policy", Json::Str("sql".into())),
                    ("skeletons", Json::Arr(vec![Json::Str("SELECT ?".into())])),
                    ("skeletons_complete", Json::Bool(true)),
                ])]),
            ),
        ])
    }

    #[test]
    fn artifact_roundtrip() {
        let v = Verdict {
            entry: "a.php".into(),
            policies: vec!["sql".into(), "shell".into()],
            config_fp: 11,
            tree: 22,
            deps: vec![("a.php".into(), 1), ("lib.php".into(), 2)],
            frontends: vec![
                ("a.php".into(), "php".into(), 7),
                ("lib.tpl".into(), "tpl".into(), 9),
            ],
            page: page_with_evidence("a.php").preserialized(),
        };
        let back = Verdict::from_artifact(&stored(v.to_artifact_body())).expect("roundtrips");
        assert_eq!(back.entry, "a.php");
        assert_eq!(back.policies, v.policies);
        assert_eq!(back.config_fp, 11);
        assert_eq!(back.tree, 22);
        assert_eq!(back.deps, v.deps);
        assert_eq!(back.frontends, v.frontends);
        assert_eq!(back.page, v.page, "the page keeps its writer bytes");
    }

    #[test]
    fn artifact_without_frontend_evidence_is_rejected() {
        // Pre-frontend artifacts lack the `frontends` member; they must
        // be dropped (recomputed), never replayed — the files could now
        // dispatch to a different language.
        let v = Verdict {
            entry: "a.php".into(),
            policies: vec!["sql".into()],
            config_fp: 0,
            tree: 0,
            deps: vec![],
            frontends: vec![("a.php".into(), "php".into(), 7)],
            page: page_with_evidence("a.php").preserialized(),
        };
        let body: Vec<(String, Json)> = v
            .to_artifact_body()
            .into_iter()
            .filter(|(k, _)| k != "frontends")
            .collect();
        assert!(Verdict::from_artifact(&stored(body)).is_none());
    }

    #[test]
    fn artifact_without_policy_evidence_is_rejected() {
        // Pre-policy artifacts lack the `policies` member; they must be
        // dropped (recomputed), never replayed.
        let v = Verdict {
            entry: "a.php".into(),
            policies: vec!["sql".into()],
            config_fp: 0,
            tree: 0,
            deps: vec![],
            frontends: vec![],
            page: page_with_evidence("a.php").preserialized(),
        };
        let body: Vec<(String, Json)> = v
            .to_artifact_body()
            .into_iter()
            .filter(|(k, _)| k != "policies")
            .collect();
        assert!(Verdict::from_artifact(&stored(body)).is_none());
    }

    #[test]
    fn artifact_without_skeleton_evidence_is_rejected() {
        // Pre-remedy artifacts carry hotspots without the skeleton
        // allowlist (or the policy id); they must be dropped
        // (recomputed), never replayed.
        for missing in ["policy", "skeletons", "skeletons_complete"] {
            let page = page_with_evidence("a.php");
            let stripped = match page {
                Json::Obj(members) => Json::Obj(
                    members
                        .into_iter()
                        .map(|(k, v)| {
                            if k != "hotspots" {
                                return (k, v);
                            }
                            let Json::Arr(hotspots) = v else { unreachable!() };
                            let hotspots = hotspots
                                .into_iter()
                                .map(|h| {
                                    let Json::Obj(hm) = h else { unreachable!() };
                                    Json::Obj(
                                        hm.into_iter().filter(|(k, _)| k != missing).collect(),
                                    )
                                })
                                .collect();
                            (k, Json::Arr(hotspots))
                        })
                        .collect(),
                ),
                _ => unreachable!(),
            };
            let v = Verdict {
                entry: "a.php".into(),
                    policies: vec!["sql".into()],
                config_fp: 0,
                tree: 0,
                deps: vec![],
                frontends: vec![],
                page: stripped.preserialized(),
            };
            assert!(
                Verdict::from_artifact(&stored(v.to_artifact_body())).is_none(),
                "hotspot missing {missing:?} must be rejected"
            );
        }
    }

    #[test]
    fn mismatched_page_entry_is_rejected() {
        let v = Verdict {
            entry: "a.php".into(),
            policies: vec!["sql".into()],
            config_fp: 0,
            tree: 0,
            deps: vec![],
            frontends: vec![],
            page: page_with_evidence("OTHER.php").preserialized(),
        };
        assert!(Verdict::from_artifact(&stored(v.to_artifact_body())).is_none());
    }
}
