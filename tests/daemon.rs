//! Durability round-trip for `strtaint serve` (DESIGN.md §5d): a cold
//! daemon restart over an unchanged tree must replay the stored
//! verdicts — byte-identical page JSON, zero new Bar-Hillel queries —
//! and a corrupted artifact store must degrade to a clean re-run (same
//! verdicts, only timing lost), never change an answer.

use std::path::PathBuf;

use strtaint_corpus::synth::{synth_app, SynthConfig};
use strtaint_daemon::json::Json;
use strtaint_daemon::protocol::handle_line;
use strtaint_daemon::{ArtifactStore, DaemonState};
use strtaint_corpus::App;

fn small_app() -> App {
    // Small enough for debug-profile tier-1, mixed safe/vulnerable.
    synth_app(&SynthConfig {
        pages: 4,
        helpers: 3,
        filler_lines: 4,
        vuln_every: 2,
        replace_chain: 0,
        sinks_per_page: 1,
        seed: 11,
    })
}

fn temp_cache(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "strtaint-daemon-it-{}-{tag}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn boot(app: &App, cache: &PathBuf) -> DaemonState {
    let store = ArtifactStore::open(cache).expect("cache dir opens");
    // Rebuild the tree from scratch each boot, as a restarted daemon
    // would from disk.
    DaemonState::new(app.vfs.clone(), strtaint::Config::default(), Some(store))
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

fn analyze_all(state: &DaemonState, app: &App) -> Json {
    let entries: Vec<String> = app
        .entries
        .iter()
        .map(|e| format!("\"{e}\""))
        .collect();
    request(
        state,
        &format!("{{\"cmd\":\"analyze\",\"entries\":[{}]}}", entries.join(",")),
    )
}

/// The `pages` array serialized exactly as the wire writes it.
fn pages_bytes(response: &Json) -> String {
    let mut out = String::new();
    response.get("pages").expect("pages member").write(&mut out);
    out
}

fn num(v: &Json, key: &str) -> f64 {
    v.get(key).and_then(Json::as_num).unwrap_or(f64::NAN)
}

fn engine_queries(status: &Json) -> f64 {
    status
        .get("engine")
        .and_then(|e| e.get("queries"))
        .and_then(Json::as_num)
        .unwrap_or(f64::NAN)
}

#[test]
fn cold_restart_replays_byte_identical_with_zero_new_queries() {
    let app = small_app();
    let cache = temp_cache("restart");
    let n = app.entries.len() as f64;

    // First daemon lifetime: everything computes.
    let first = boot(&app, &cache);
    let r1 = analyze_all(&first, &app);
    assert_eq!(num(&r1, "computed"), n);
    assert_eq!(num(&r1, "replayed"), 0.0);
    let s1 = request(&first, "{\"cmd\":\"status\"}");
    assert!(engine_queries(&s1) > 0.0, "cold run performs engine work");
    let bytes1 = pages_bytes(&r1);
    drop(first); // "kill" the daemon

    // Second lifetime over the same cache and an unchanged tree.
    let second = boot(&app, &cache);
    let r2 = analyze_all(&second, &app);
    assert_eq!(num(&r2, "replayed"), n, "warm start replays every page");
    assert_eq!(num(&r2, "computed"), 0.0);
    assert_eq!(pages_bytes(&r2), bytes1, "replayed report is byte-identical");

    let s2 = request(&second, "{\"cmd\":\"status\"}");
    assert_eq!(
        engine_queries(&s2),
        0.0,
        "zero new Bar-Hillel queries on a warm restart"
    );
    let loaded = s2
        .get("store")
        .and_then(|s| s.get("loaded"))
        .and_then(Json::as_num)
        .unwrap_or(0.0);
    assert_eq!(loaded, n, "every page came from the artifact store");

    let _ = std::fs::remove_dir_all(&cache);
}

#[test]
fn corrupt_cache_degrades_to_clean_rerun() {
    let app = small_app();
    let cache = temp_cache("corrupt");

    let first = boot(&app, &cache);
    let r1 = analyze_all(&first, &app);
    drop(first);

    // Truncate/garble every stored verdict.
    let verdicts = cache.join("verdicts");
    let mut mangled = 0;
    for entry in std::fs::read_dir(&verdicts).expect("verdict dir") {
        let path = entry.expect("dir entry").path();
        let bytes = std::fs::read(&path).expect("readable artifact");
        let mut garbage = bytes[..bytes.len() / 2].to_vec();
        garbage.extend_from_slice(b"\x00\xffnot json");
        std::fs::write(&path, garbage).expect("write garbage");
        mangled += 1;
    }
    assert_eq!(mangled, app.entries.len(), "one artifact per page");

    let second = boot(&app, &cache);
    let r2 = analyze_all(&second, &app);
    assert_eq!(
        num(&r2, "computed"),
        app.entries.len() as f64,
        "corrupt artifacts are dropped, not trusted: everything recomputes"
    );
    let s2 = request(&second, "{\"cmd\":\"status\"}");
    let dropped = s2
        .get("store")
        .and_then(|s| s.get("dropped"))
        .and_then(Json::as_num)
        .unwrap_or(0.0);
    assert!(dropped >= mangled as f64, "mangled artifacts counted as dropped");

    // Verdicts must agree with the original run on everything except
    // timing (a re-run can't reproduce wall-clock measurements).
    let p1 = r1.get("pages").and_then(Json::as_arr).expect("pages 1");
    let p2 = r2.get("pages").and_then(Json::as_arr).expect("pages 2");
    assert_eq!(p1.len(), p2.len());
    for (a, b) in p1.iter().zip(p2) {
        assert_eq!(
            a.get("entry").and_then(Json::as_str),
            b.get("entry").and_then(Json::as_str)
        );
        assert_eq!(
            a.get("verified").and_then(Json::as_bool),
            b.get("verified").and_then(Json::as_bool),
            "verdict unchanged for {:?}",
            a.get("entry")
        );
        let findings = |p: &Json| {
            p.get("hotspots")
                .and_then(Json::as_arr)
                .map(|hs| {
                    hs.iter()
                        .map(|h| {
                            h.get("findings")
                                .and_then(Json::as_arr)
                                .map(|fs| fs.len())
                                .unwrap_or(0)
                        })
                        .sum::<usize>()
                })
                .unwrap_or(0)
        };
        assert_eq!(findings(a), findings(b), "findings unchanged");
    }

    let _ = std::fs::remove_dir_all(&cache);
}

#[test]
fn editing_one_page_rechecks_only_that_page() {
    let app = small_app();
    let cache = temp_cache("delta");
    let state = boot(&app, &cache);
    analyze_all(&state, &app);

    // Rewrite one page in place (same path set, new contents).
    let target = &app.entries[0];
    let edited = "<?php $id = $_GET['id']; \
                  $r = $DB->query(\"SELECT x FROM y WHERE id='\" . $id . \"'\");";
    let r = request(
        &state,
        &format!(
            "{{\"cmd\":\"invalidate\",\"path\":\"{target}\",\"contents\":{}}}",
            Json::Str(edited.to_owned()).to_string()
        ),
    );
    assert_eq!(r.get("changed").and_then(Json::as_bool), Some(true));

    let r2 = analyze_all(&state, &app);
    assert_eq!(num(&r2, "computed"), 1.0, "only the edited page recomputes");
    assert_eq!(num(&r2, "replayed"), (app.entries.len() - 1) as f64);

    let _ = std::fs::remove_dir_all(&cache);
}

// ---------------------------------------------------------------------
// The `metrics` verb (observability layer)
// ---------------------------------------------------------------------

/// The `metrics` member of a metrics response.
fn metrics_of(response: &Json) -> &Json {
    response.get("metrics").expect("metrics member")
}

/// A plain-number metric (counter or gauge) by registry name.
fn metric(response: &Json, name: &str) -> f64 {
    metrics_of(response)
        .get(name)
        .and_then(Json::as_num)
        .unwrap_or(f64::NAN)
}

/// A histogram metric's observation count by registry name.
fn histogram_count(response: &Json, name: &str) -> f64 {
    metrics_of(response)
        .get(name)
        .and_then(|h| h.get("count"))
        .and_then(Json::as_num)
        .unwrap_or(f64::NAN)
}

#[test]
fn metrics_verb_roundtrips_over_stdio() {
    let app = small_app();
    let state = DaemonState::new(app.vfs.clone(), strtaint::Config::default(), None);
    let entries: Vec<String> = app.entries.iter().map(|e| format!("\"{e}\"")).collect();
    let input = format!(
        "{{\"cmd\":\"analyze\",\"entries\":[{}]}}\n{{\"cmd\":\"metrics\"}}\n{{\"cmd\":\"shutdown\"}}\n",
        entries.join(",")
    );
    let mut output = Vec::new();
    let shut = strtaint_daemon::serve_lines(&state, input.as_bytes(), &mut output)
        .expect("serves");
    assert!(shut);
    let lines: Vec<&str> = std::str::from_utf8(&output).expect("utf8").lines().collect();
    assert_eq!(lines.len(), 3);
    let m = strtaint_daemon::json::parse(lines[1]).expect("metrics line parses");
    assert_eq!(m.get("ok").and_then(Json::as_bool), Some(true));
    // Every EngineStats counter is present, alongside the daemon's own.
    for name in [
        "engine.queries",
        "engine.normalizations",
        "engine.normalizations_saved",
        "engine.realized_triples",
        "engine.early_exits",
        "summary_cache.hits",
        "summary_cache.misses",
    ] {
        assert!(metric(&m, name).is_finite(), "missing metric {name}");
    }
    assert!(metric(&m, "engine.queries") > 0.0, "analyze ran engine work");
    assert_eq!(metric(&m, "daemon.pages_computed"), app.entries.len() as f64);
    assert_eq!(metric(&m, "daemon.requests"), 2.0, "analyze + this metrics call");
    assert_eq!(
        histogram_count(&m, "daemon.compute_us"),
        app.entries.len() as f64,
        "one compute-latency observation per computed page"
    );
}

#[cfg(unix)]
#[test]
fn metrics_verb_roundtrips_over_unix_socket() {
    use std::io::{BufRead, BufReader, Write};
    use std::os::unix::net::UnixStream;

    let app = small_app();
    let socket = std::env::temp_dir().join(format!(
        "strtaint-daemon-it-{}-metrics.sock",
        std::process::id()
    ));
    let _ = std::fs::remove_file(&socket);
    let state = DaemonState::new(app.vfs.clone(), strtaint::Config::default(), None);
    let server_state = strtaint_daemon::ServerState::single("ws0", state);

    std::thread::scope(|scope| {
        let server =
            scope.spawn(|| strtaint_daemon::server::serve_socket(&server_state, &socket));

        // The listener needs a moment to bind; retry the connect.
        let mut stream = None;
        for _ in 0..100 {
            match UnixStream::connect(&socket) {
                Ok(s) => {
                    stream = Some(s);
                    break;
                }
                Err(_) => std::thread::sleep(std::time::Duration::from_millis(10)),
            }
        }
        let stream = stream.expect("socket accepts connections");
        let mut reader = BufReader::new(stream.try_clone().expect("clone"));
        let mut send = |line: &str| {
            (&stream).write_all(line.as_bytes()).expect("write");
            (&stream).write_all(b"\n").expect("write newline");
            let mut response = String::new();
            reader.read_line(&mut response).expect("read response");
            strtaint_daemon::json::parse(&response).expect("response parses")
        };

        let entry = &app.entries[0];
        let r = send(&format!("{{\"cmd\":\"analyze\",\"entries\":[\"{entry}\"]}}"));
        assert_eq!(r.get("ok").and_then(Json::as_bool), Some(true));
        let m = send("{\"cmd\":\"metrics\"}");
        assert_eq!(m.get("ok").and_then(Json::as_bool), Some(true));
        assert_eq!(metric(&m, "daemon.pages_computed"), 1.0);
        assert!(metric(&m, "engine.queries").is_finite());
        let s = send("{\"cmd\":\"shutdown\"}");
        assert_eq!(s.get("shutdown").and_then(Json::as_bool), Some(true));
        server.join().expect("server thread").expect("serve ok");
    });
    let _ = std::fs::remove_file(&socket);
}

#[test]
fn metrics_counters_increase_monotonically_across_analyzes() {
    let app = small_app();
    let state = DaemonState::new(app.vfs.clone(), strtaint::Config::default(), None);

    analyze_all(&state, &app);
    let m1 = request(&state, "{\"cmd\":\"metrics\"}");
    analyze_all(&state, &app); // warm: replays, no engine work
    let m2 = request(&state, "{\"cmd\":\"metrics\"}");

    // Monotone counters move forward, never back.
    assert!(metric(&m2, "daemon.requests") > metric(&m1, "daemon.requests"));
    assert_eq!(
        metric(&m2, "daemon.pages_replayed"),
        metric(&m1, "daemon.pages_replayed") + app.entries.len() as f64,
        "second analyze replays every page"
    );
    assert_eq!(
        metric(&m2, "daemon.pages_computed"),
        metric(&m1, "daemon.pages_computed"),
        "replay computes nothing"
    );
    assert_eq!(
        metric(&m2, "engine.queries"),
        metric(&m1, "engine.queries"),
        "replay adds zero engine queries"
    );
    assert_eq!(
        histogram_count(&m2, "daemon.replay_us"),
        histogram_count(&m1, "daemon.replay_us") + app.entries.len() as f64,
        "one replay-latency observation per replayed page"
    );
}

#[test]
fn metrics_reset_across_restart_even_when_verdicts_replay() {
    let app = small_app();
    let cache = temp_cache("metrics-restart");
    let n = app.entries.len() as f64;

    let first = boot(&app, &cache);
    analyze_all(&first, &app);
    let m1 = request(&first, "{\"cmd\":\"metrics\"}");
    assert_eq!(metric(&m1, "daemon.pages_computed"), n);
    assert!(metric(&m1, "engine.queries") > 0.0);
    drop(first); // "kill" the daemon

    // Restart over the same store: verdicts replay, metrics start over.
    let second = boot(&app, &cache);
    let m2 = request(&second, "{\"cmd\":\"metrics\"}");
    assert_eq!(metric(&m2, "daemon.pages_computed"), 0.0, "fresh counters");
    assert_eq!(metric(&m2, "daemon.pages_replayed"), 0.0);
    assert_eq!(metric(&m2, "engine.queries"), 0.0, "no engine work yet");
    assert_eq!(metric(&m2, "daemon.requests"), 1.0, "only this metrics call");

    analyze_all(&second, &app);
    let m3 = request(&second, "{\"cmd\":\"metrics\"}");
    assert_eq!(metric(&m3, "daemon.pages_replayed"), n, "store replays all");
    assert_eq!(metric(&m3, "daemon.pages_computed"), 0.0);
    assert_eq!(metric(&m3, "engine.queries"), 0.0, "replay is engine-free");
    assert_eq!(histogram_count(&m3, "daemon.replay_us"), n);

    let _ = std::fs::remove_dir_all(&cache);
}

/// Rewrites every stored verdict artifact's text with `f`, returning
/// how many files changed.
fn mangle_artifacts(cache: &PathBuf, f: impl Fn(&str) -> String) -> usize {
    let mut changed = 0;
    for entry in std::fs::read_dir(cache.join("verdicts")).expect("verdict dir") {
        let path = entry.expect("dir entry").path();
        let text = std::fs::read_to_string(&path).expect("readable artifact");
        let mangled = f(&text);
        if mangled != text {
            std::fs::write(&path, mangled).expect("write mangled");
            changed += 1;
        }
    }
    changed
}

#[test]
fn pre_remedy_engine_artifact_is_dropped_not_replayed() {
    let app = small_app();
    let cache = temp_cache("pre-remedy-engine");
    let n = app.entries.len();

    let first = boot(&app, &cache);
    analyze_all(&first, &app);
    drop(first);

    // Downgrade each artifact to an engine suffix without the `.rm1`
    // remediation marker (the suffix has since grown further, so drop
    // the marker in place rather than trimming the tail).
    let current = strtaint_checker::engine_version();
    let old = current.replace(".rm1", "");
    assert_ne!(current, old.as_str(), "engine suffix must carry .rm1");
    let changed = mangle_artifacts(&cache, |text| text.replace(current, &old));
    assert_eq!(changed, n, "one artifact per page carried the engine stamp");

    let second = boot(&app, &cache);
    let r2 = analyze_all(&second, &app);
    assert_eq!(
        num(&r2, "computed"),
        n as f64,
        "pre-remedy artifacts must recompute, never replay"
    );
    assert_eq!(num(&r2, "replayed"), 0.0);
    let s2 = request(&second, "{\"cmd\":\"status\"}");
    let dropped = s2
        .get("store")
        .and_then(|s| s.get("dropped"))
        .and_then(Json::as_num)
        .unwrap_or(0.0);
    assert_eq!(dropped, n as f64, "each stale-engine artifact is dropped");

    let _ = std::fs::remove_dir_all(&cache);
}

#[test]
fn artifact_stripped_of_skeleton_evidence_recomputes() {
    let app = small_app();
    let cache = temp_cache("no-skeletons");
    let n = app.entries.len();

    let first = boot(&app, &cache);
    analyze_all(&first, &app);
    drop(first);

    // Simulate a pre-remedy page body: hotspots without the skeleton
    // allowlist member. The engine header is left *current*, so this
    // exercises the structural validation in `Verdict::from_artifact`,
    // not the version gate.
    let changed = mangle_artifacts(&cache, |text| {
        text.replace("\"skeletons\":", "\"skeletons_stripped\":")
    });
    assert_eq!(changed, n, "every page body carried skeleton evidence");

    let second = boot(&app, &cache);
    let r2 = analyze_all(&second, &app);
    assert_eq!(
        num(&r2, "computed"),
        n as f64,
        "evidence-free artifacts must recompute, never replay"
    );
    assert_eq!(num(&r2, "replayed"), 0.0);

    let _ = std::fs::remove_dir_all(&cache);
}

#[test]
fn profile_is_byte_identical_cold_and_daemon_warm() {
    use strtaint::{analyze_page_cached, CheckOptions, PolicyChecker, SummaryCache};

    let app = small_app();
    let cache = temp_cache("profile");
    let policies: Vec<String> = vec!["sql".into(), "xss".into()];

    // Cold run: direct in-process analysis, no daemon, no store.
    let config = strtaint::Config {
        policies: policies.clone(),
        ..strtaint::Config::default()
    };
    let checker = PolicyChecker::with_options(CheckOptions::default());
    let summaries = SummaryCache::new();
    let reports: Vec<_> = app
        .entries
        .iter()
        .map(|e| {
            analyze_page_cached(&app.vfs, e, &config, &checker, &summaries).expect(e)
        })
        .collect();
    let cold = strtaint_remedy::render_profile(&strtaint_remedy::profile_pages(&reports));

    let entries: Vec<String> = app.entries.iter().map(|e| format!("\"{e}\"")).collect();
    let profile_req = format!(
        "{{\"cmd\":\"profile\",\"entries\":[{}],\"policies\":[\"sql\",\"xss\"]}}",
        entries.join(",")
    );

    // First daemon lifetime computes and persists the verdicts.
    let first = boot(&app, &cache);
    let r1 = request(&first, &profile_req);
    let warm1 = r1.get("profile").and_then(Json::as_str).expect("profile");
    assert_eq!(warm1, cold, "daemon compute profile matches the cold run");
    drop(first);

    // Second lifetime replays every verdict from the store — and must
    // render the byte-identical profile without any engine work.
    let second = boot(&app, &cache);
    let r2 = request(&second, &profile_req);
    let warm2 = r2.get("profile").and_then(Json::as_str).expect("profile");
    assert_eq!(warm2, cold, "daemon warm-replay profile is byte-identical");
    let s2 = request(&second, "{\"cmd\":\"status\"}");
    assert_eq!(
        engine_queries(&s2),
        0.0,
        "warm profile performs zero new Bar-Hillel queries"
    );

    let _ = std::fs::remove_dir_all(&cache);
}

#[test]
fn profile_verb_routes_through_the_server_envelope() {
    // The CLI's `serve` path goes through the multi-workspace server
    // routing, not `handle_line` directly — a verb known only to the
    // protocol layer would answer `unknown cmd` over the wire.
    let app = small_app();
    let state = DaemonState::new(app.vfs.clone(), strtaint::Config::default(), None);
    let server = strtaint_daemon::ServerState::single("ws0", state);
    let entry = &app.entries[0];
    let input = format!(
        "{{\"cmd\":\"profile\",\"entries\":[\"{entry}\"]}}\n{{\"cmd\":\"shutdown\"}}\n"
    );
    let mut output = Vec::new();
    let shut = strtaint_daemon::serve_server_lines(&server, input.as_bytes(), &mut output)
        .expect("serves");
    assert!(shut);
    let first = std::str::from_utf8(&output)
        .expect("utf8")
        .lines()
        .next()
        .expect("response line")
        .to_owned();
    let r = strtaint_daemon::json::parse(&first).expect("profile line parses");
    assert_eq!(
        r.get("ok").and_then(Json::as_bool),
        Some(true),
        "profile must be a routed verb: {first}"
    );
    let profile = r.get("profile").and_then(Json::as_str).expect("profile text");
    assert!(profile.contains("strtaint-profile/1"));
}

/// `pages` serialized without wall-clock members (`*_ms`) and engine
/// counters (`engine`): parallel hotspot workers race to prepare shared
/// grammars, so the counters of two cold runs may differ by one.
fn pages_without_timings(response: &Json) -> String {
    fn strip(v: &Json) -> Json {
        match v {
            Json::Obj(members) => Json::Obj(
                members
                    .iter()
                    .filter(|(k, _)| !k.ends_with("_ms") && k != "engine")
                    .map(|(k, v)| (k.clone(), strip(v)))
                    .collect(),
            ),
            Json::Arr(items) => Json::Arr(items.iter().map(strip).collect()),
            other => other.clone(),
        }
    }
    let mut out = String::new();
    strip(response.get("pages").expect("pages member")).write(&mut out);
    out
}

#[test]
fn xss_flag_answers_exactly_like_the_xss_policy() {
    // `"xss":true` is the wire form of `"policies":["xss"]`: two fresh
    // daemons over the same tree must render the same page objects, and
    // the flag's verdicts replay on repeat like any other request.
    let app = strtaint_corpus::apps::utopia::build();
    let entries = "[\"news.php\",\"search.php\"]";
    let boot = || DaemonState::new(app.vfs.clone(), strtaint::Config::default(), None);
    let flag = format!("{{\"cmd\":\"analyze\",\"entries\":{entries},\"xss\":true}}");
    let policy = format!("{{\"cmd\":\"analyze\",\"entries\":{entries},\"policies\":[\"xss\"]}}");

    let by_flag = boot();
    let r1 = request(&by_flag, &flag);
    assert_eq!(num(&r1, "computed"), 2.0);
    let r2 = request(&boot(), &policy);
    assert_eq!(pages_without_timings(&r1), pages_without_timings(&r2));
    let findings = r1
        .get("pages")
        .and_then(Json::as_arr)
        .expect("pages")
        .iter()
        .filter(|p| p.get("verified").and_then(Json::as_bool) == Some(false))
        .count();
    assert_eq!(findings, 1, "news.php echoes a stored XSS, search.php escapes");

    let again = request(&by_flag, &flag);
    assert_eq!(num(&again, "replayed"), 2.0, "a repeat request replays");
    assert_eq!(pages_bytes(&again), pages_bytes(&r1));
}
