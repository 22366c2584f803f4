//! Cross-frontend differential suite (DESIGN.md §14).
//!
//! The frontend abstraction promises that surface syntax is the *only*
//! thing a language owns: once lowered, the pipeline neither knows nor
//! cares which frontend produced the IR. These tests hold the PHP and
//! template frontends to that promise:
//!
//! - Ten paired programs (five policy classes × vulnerable/sanitized)
//!   written in both languages must agree on verdict, SARIF rule ids,
//!   and witness presence.
//! - A mixed-language app flows taint across the language boundary in
//!   both directions, shares one `SummaryCache` between pages, and
//!   round-trips through the daemon with byte-identical cold/warm
//!   replay.
//! - Pre-frontend daemon artifacts (older engine suffix, or missing
//!   per-dependency frontend evidence) are dropped, never replayed;
//!   flipping the extension map recomputes only the affected pages.

use std::fs;
use std::path::PathBuf;

use strtaint::{
    analyze_page, analyze_page_cached, render, Config, PageReport, PolicyChecker, SummaryCache,
    Vfs,
};
use strtaint_corpus::frontends::{mixed_app, pairs, vfs};
use strtaint_daemon::json::{self, Json};
use strtaint_daemon::protocol::handle_line;
use strtaint_daemon::{ArtifactStore, DaemonState};

fn config_for(policy: &str) -> Config {
    let mut policies = vec!["sql".to_owned()];
    if policy != "sql" {
        policies.push(policy.to_owned());
    }
    Config {
        policies,
        ..Config::default()
    }
}

/// Analyzes one pair member under its pair's policy; `"xss"` runs the
/// XSS policy alone, like the CLI's `--policy xss`.
fn analyze(vfs: &Vfs, entry: &str, policy: &str) -> PageReport {
    let config = if policy == "xss" {
        Config {
            policies: vec![policy.to_owned()],
            ..Config::default()
        }
    } else {
        config_for(policy)
    };
    analyze_page(vfs, entry, &config).unwrap_or_else(|e| panic!("{entry}: {e}"))
}

fn rule_ids(report: &PageReport) -> Vec<&'static str> {
    let mut ids: Vec<&'static str> = report.findings().map(|(_, f)| f.kind.rule_id()).collect();
    ids.sort_unstable();
    ids
}

/// `(rule id, has witness)` per finding, order-insensitive.
fn witness_profile(report: &PageReport) -> Vec<(&'static str, bool)> {
    let mut profile: Vec<(&'static str, bool)> = report
        .findings()
        .map(|(_, f)| (f.kind.rule_id(), f.witness.is_some()))
        .collect();
    profile.sort_unstable();
    profile
}

/// The `ruleId` values a rendered SARIF log carries, sorted.
fn sarif_rule_ids(sarif: &str) -> Vec<String> {
    let mut ids: Vec<String> = sarif
        .lines()
        .filter_map(|l| {
            l.trim()
                .strip_prefix("\"ruleId\": \"")
                .and_then(|rest| rest.strip_suffix("\","))
                .map(str::to_owned)
        })
        .collect();
    ids.sort();
    ids
}

#[test]
fn paired_programs_agree_across_frontends() {
    let vfs = vfs();
    for pair in pairs() {
        let php = analyze(&vfs, pair.php_entry, pair.policy);
        let tpl = analyze(&vfs, pair.tpl_entry, pair.policy);

        // Both members must match the pair's ground truth...
        assert_eq!(
            php.is_verified(),
            !pair.vulnerable,
            "{}: PHP member verdict\n{php}",
            pair.name
        );
        assert_eq!(
            tpl.is_verified(),
            !pair.vulnerable,
            "{}: template member verdict\n{tpl}",
            pair.name
        );
        // ...and each other, down to rule ids and witness presence.
        assert_eq!(
            rule_ids(&php),
            rule_ids(&tpl),
            "{}: rule ids diverge\nPHP: {php}\nTPL: {tpl}",
            pair.name
        );
        assert_eq!(
            witness_profile(&php),
            witness_profile(&tpl),
            "{}: witness presence diverges",
            pair.name
        );
        if pair.vulnerable {
            assert!(
                rule_ids(&php).contains(&pair.rule),
                "{}: expected rule {}, got {:?}\n{php}",
                pair.name,
                pair.rule,
                rule_ids(&php)
            );
        } else {
            assert_eq!(
                php.findings().count() + tpl.findings().count(),
                0,
                "{}: sanitized pair must have zero findings",
                pair.name
            );
        }
    }
}

#[test]
fn paired_sarif_logs_carry_identical_rule_ids() {
    let vfs = vfs();
    for pair in pairs() {
        let php = analyze(&vfs, pair.php_entry, pair.policy);
        let tpl = analyze(&vfs, pair.tpl_entry, pair.policy);
        assert_eq!(
            sarif_rule_ids(&render::sarif(&[php])),
            sarif_rule_ids(&render::sarif(&[tpl])),
            "{}: SARIF rule ids diverge across frontends",
            pair.name
        );
    }
}

fn assert_golden(generated: &str, golden: &str, path: &str) {
    if std::env::var("UPDATE_GOLDEN").is_ok() {
        std::fs::write(path, generated).expect("update golden");
        return;
    }
    assert_eq!(
        generated, golden,
        "template SARIF drifted from {path}; if intentional, regenerate \
         with UPDATE_GOLDEN=1"
    );
}

#[test]
fn tpl_sarif_matches_golden_fixture_per_policy_class() {
    // The template corpus SARIF is pinned per policy class: frontend
    // lowering changes that move a finding, rename a rule, or shift a
    // span show up as a reviewed golden diff, never silently.
    let vfs = vfs();
    let cases: [(&str, &str, &str, &str); 5] = [
        (
            "sql_vuln.tpl",
            "sql",
            include_str!("golden/sarif_tpl_sql.sarif"),
            "tests/golden/sarif_tpl_sql.sarif",
        ),
        (
            "xss_vuln.tpl",
            "xss",
            include_str!("golden/sarif_tpl_xss.sarif"),
            "tests/golden/sarif_tpl_xss.sarif",
        ),
        (
            "shell_vuln.tpl",
            "shell",
            include_str!("golden/sarif_tpl_shell.sarif"),
            "tests/golden/sarif_tpl_shell.sarif",
        ),
        (
            "path_vuln.tpl",
            "path",
            include_str!("golden/sarif_tpl_path.sarif"),
            "tests/golden/sarif_tpl_path.sarif",
        ),
        (
            "eval_vuln.tpl",
            "eval",
            include_str!("golden/sarif_tpl_eval.sarif"),
            "tests/golden/sarif_tpl_eval.sarif",
        ),
    ];
    for (entry, policy, golden, path) in cases {
        let generated = render::sarif(&[analyze(&vfs, entry, policy)]);
        assert_golden(&generated, golden, path);
    }
}

#[test]
fn mixed_language_app_crosses_the_boundary_and_shares_summaries() {
    let (vfs, _) = mixed_app();
    let config = Config::default();
    let checker = PolicyChecker::new();
    let summaries = SummaryCache::new();

    // PHP → template: taint enters in `index.php`, sinks in the
    // template partial it includes.
    let r1 = analyze_page_cached(&vfs, "index.php", &config, &checker, &summaries)
        .expect("index.php analyzes");
    assert!(!r1.is_verified(), "cross-language taint must reach the sink\n{r1}");
    assert!(
        rule_ids(&r1).contains(&"strtaint/odd-quotes"),
        "template sink reports through the shared policy registry\n{r1}"
    );

    // The PHP-side whitelist sanitizes the same template sink.
    let r2 = analyze_page_cached(&vfs, "index2.php", &config, &checker, &summaries)
        .expect("index2.php analyzes");
    assert!(
        r2.is_verified(),
        "PHP-side sanitizer must verify the template sink\n{r2}"
    );

    // Both pages share `partial.tpl` through one cache: three distinct
    // files lowered, the shared partial served from cache once.
    assert_eq!(
        summaries.misses(),
        3,
        "index.php, index2.php, partial.tpl each lower exactly once"
    );
    assert!(summaries.hits() >= 1, "shared partial must hit the cache");

    // Template → PHP: taint enters in `page.tpl`, sinks in the PHP
    // helper it includes.
    let r3 = analyze_page_cached(&vfs, "page.tpl", &config, &checker, &summaries)
        .expect("page.tpl analyzes");
    assert!(
        !r3.is_verified(),
        "template-origin taint must reach the PHP sink\n{r3}"
    );
    assert_eq!(summaries.misses(), 5, "page.tpl and helper.php lower once each");
}

#[test]
fn pure_php_trees_lower_each_file_exactly_once() {
    // The frontend trait must add zero lowerings on a pure-PHP tree:
    // re-analyzing the whole policy corpus against a warm cache lowers
    // nothing new.
    let vfs = strtaint_corpus::policies::vfs();
    let checker = PolicyChecker::new();
    let summaries = SummaryCache::new();
    let run = |tag: &str| {
        for seed in strtaint_corpus::policies::seeds() {
            let config = config_for(seed.policy);
            analyze_page_cached(&vfs, seed.entry, &config, &checker, &summaries)
                .unwrap_or_else(|e| panic!("{tag}: {}: {e}", seed.entry));
        }
    };
    run("cold");
    let cold_misses = summaries.misses();
    assert!(cold_misses > 0, "cold run lowers the corpus");
    run("warm");
    assert_eq!(
        summaries.misses(),
        cold_misses,
        "warm re-analysis of a pure-PHP tree must not lower a single extra file"
    );
    assert!(summaries.hits() > 0, "warm run is served from the cache");
}

// ---- daemon: mixed workspaces, replay, and invalidation ------------

fn temp_cache(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "strtaint-frontends-it-{}-{tag}",
        std::process::id()
    ));
    let _ = fs::remove_dir_all(&dir);
    dir
}

fn boot(vfs: &Vfs, config: Config, cache: &PathBuf) -> DaemonState {
    let store = ArtifactStore::open(cache).expect("cache dir opens");
    DaemonState::new(vfs.clone(), config, Some(store))
}

fn request(state: &DaemonState, line: &str) -> Json {
    let handled = handle_line(state, line);
    assert_eq!(
        handled.response.get("ok").and_then(Json::as_bool),
        Some(true),
        "request failed: {}",
        handled.response.to_string()
    );
    handled.response
}

fn analyze_entries(state: &DaemonState, entries: &[&str]) -> Json {
    let list: Vec<String> = entries.iter().map(|e| format!("\"{e}\"")).collect();
    request(
        state,
        &format!("{{\"cmd\":\"analyze\",\"entries\":[{}]}}", list.join(",")),
    )
}

fn pages_bytes(response: &Json) -> String {
    let mut out = String::new();
    response.get("pages").expect("pages member").write(&mut out);
    out
}

fn num(v: &Json, key: &str) -> f64 {
    v.get(key).and_then(Json::as_num).unwrap_or(f64::NAN)
}

#[test]
fn mixed_workspace_replays_byte_identical_across_extensions() {
    let (vfs, entries) = mixed_app();
    let cache = temp_cache("mixed-replay");
    let n = entries.len() as f64;

    let first = boot(&vfs, Config::default(), &cache);
    let r1 = analyze_entries(&first, &entries);
    assert_eq!(num(&r1, "computed"), n);
    assert_eq!(num(&r1, "replayed"), 0.0);
    let bytes1 = pages_bytes(&r1);
    drop(first);

    // A restarted daemon over the unchanged mixed tree replays every
    // page — template entries exactly like PHP ones.
    let second = boot(&vfs, Config::default(), &cache);
    let r2 = analyze_entries(&second, &entries);
    assert_eq!(num(&r2, "replayed"), n, "warm start replays .php and .tpl pages");
    assert_eq!(num(&r2, "computed"), 0.0);
    assert_eq!(pages_bytes(&r2), bytes1, "replayed report is byte-identical");
    let _ = fs::remove_dir_all(cache);
}

/// Rewrites every stored verdict artifact through `doctor`, simulating
/// a store written by an older daemon.
fn doctor_artifacts(cache: &PathBuf, doctor: impl Fn(&str) -> String) {
    let dir = cache.join("verdicts");
    let mut doctored = 0;
    for entry in fs::read_dir(&dir).expect("verdicts dir").flatten() {
        let path = entry.path();
        if path.extension().is_some_and(|e| e == "json") {
            let text = fs::read_to_string(&path).expect("artifact reads");
            fs::write(&path, doctor(&text)).expect("artifact rewrites");
            doctored += 1;
        }
    }
    assert!(doctored > 0, "no artifacts to doctor under {}", dir.display());
}

#[test]
fn pre_frontend_engine_artifacts_are_dropped_not_replayed() {
    let (vfs, entries) = mixed_app();
    let cache = temp_cache("old-engine");
    let n = entries.len() as f64;

    let first = boot(&vfs, Config::default(), &cache);
    let r1 = analyze_entries(&first, &entries);
    assert_eq!(num(&r1, "computed"), n);
    drop(first);

    // Rewind each artifact's engine stamp to the pre-frontend era
    // (`+qc1.rm1`, no `fe1` suffix): the store must refuse them all.
    doctor_artifacts(&cache, |text| text.replace("+qc1.rm1.fe1", "+qc1.rm1"));

    let second = boot(&vfs, Config::default(), &cache);
    let r2 = analyze_entries(&second, &entries);
    assert_eq!(num(&r2, "replayed"), 0.0, "old-engine artifacts never replay");
    assert_eq!(num(&r2, "computed"), n, "every page recomputes cleanly");
    let _ = fs::remove_dir_all(cache);
}

#[test]
fn artifacts_without_frontend_evidence_are_dropped_not_replayed() {
    let (vfs, entries) = mixed_app();
    let cache = temp_cache("no-evidence");
    let n = entries.len() as f64;

    let first = boot(&vfs, Config::default(), &cache);
    analyze_entries(&first, &entries);
    drop(first);

    // Strip the per-dependency frontend evidence — the member a
    // pre-frontend daemon never wrote — leaving the artifact otherwise
    // intact (current engine stamp, valid hashes).
    doctor_artifacts(&cache, |text| {
        let value = json::parse(text.trim_end()).expect("artifact parses");
        let Json::Obj(members) = value else {
            panic!("artifact is an object");
        };
        let stripped: Vec<(String, Json)> = members
            .into_iter()
            .filter(|(k, _)| k != "frontends")
            .collect();
        let mut out = String::new();
        Json::Obj(stripped).write(&mut out);
        out.push('\n');
        out
    });

    let second = boot(&vfs, Config::default(), &cache);
    let r2 = analyze_entries(&second, &entries);
    assert_eq!(
        num(&r2, "replayed"),
        0.0,
        "artifacts lacking frontend evidence never replay"
    );
    assert_eq!(num(&r2, "computed"), n);
    let _ = fs::remove_dir_all(cache);
}

#[test]
fn extension_map_flip_recomputes_only_affected_pages() {
    let (vfs, entries) = mixed_app();
    let cache = temp_cache("ext-flip");
    let n = entries.len() as f64;

    let first = boot(&vfs, Config::default(), &cache);
    let r1 = analyze_entries(&first, &entries);
    assert_eq!(num(&r1, "computed"), n);
    drop(first);

    // Reroute `.tpl` to the PHP frontend. Verdict keys use the
    // frontend-free replay fingerprint, so stored artifacts are still
    // *found* — but the per-dependency evidence check fails for every
    // page that touches a template file, and only for those.
    let mut flipped = Config::default();
    flipped
        .extension_overrides
        .insert("tpl".to_owned(), "php".to_owned());
    let second = boot(&vfs, flipped, &cache);
    let r2 = analyze_entries(&second, &entries);
    assert_eq!(
        num(&r2, "replayed"),
        1.0,
        "the pure-PHP page (about.php) keeps replaying"
    );
    assert_eq!(
        num(&r2, "computed"),
        n - 1.0,
        "pages with template dependencies recompute under the new map"
    );
    let _ = fs::remove_dir_all(cache);
}
