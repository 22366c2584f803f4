//! The daemon's wire protocol: newline-delimited JSON requests and
//! responses, transport-agnostic.
//!
//! One request per line, one response line per request, in order.
//! Commands:
//!
//! | request | response |
//! |---|---|
//! | `{"cmd":"analyze","entries":[…],"xss"?,"policies"?,"timeout_ms"?,"fuel"?}` | `{"ok":true,"pages":[…],"computed":n,"replayed":n}` (`policies`: array of registry ids, default `["sql"]`) |
//! | `{"cmd":"profile","entries":[…],"policies"?,"timeout_ms"?,"fuel"?}` | `{"ok":true,"profile":"…"}` — the versioned guard-profile artifact (hotspot skeleton allowlists); byte-identical whether pages were computed or replayed |
//! | `{"cmd":"invalidate","path":…,"contents"?}` | `{"ok":true,"changed":bool}` (`contents` absent = remove) |
//! | `{"cmd":"batch","ops":[{…},…]}` | `{"ok":true,"results":[…]}` — applies N `analyze`/`invalidate`/`status` ops in order, one round-trip |
//! | `{"cmd":"status"}` | `{"ok":true,"engine":{…},"summary_cache":{…},"store":{…},…}` |
//! | `{"cmd":"metrics"}` | `{"ok":true,"metrics":{…}}` — the full instance registry: daemon counters, replay/compute latency histograms, engine and summary-cache counters |
//! | `{"cmd":"shutdown"}` | `{"ok":true,"shutdown":true}`, then the server exits |
//!
//! Every request additionally accepts three routing fields, read by
//! the multi-workspace server envelope (`server.rs`): `"workspace"`
//! selects the shard (default: the `--dir` workspace), `"priority"`
//! (0–9, higher first) orders the bounded queue, and `"deadline_ms"`
//! cancels the request if it is still queued when the budget elapses.
//!
//! Malformed input never kills the daemon: every failure is an
//! `{"ok":false,"error":…}` response on the same line slot. Requests
//! are size-capped ([`MAX_LINE_BYTES`], [`MAX_BATCH_OPS`],
//! [`MAX_ENTRIES`]) so an oversized field is a structured error, not
//! an allocation storm.

use std::sync::atomic::Ordering;
use std::sync::Arc;

use crate::json::{self, Json};
use crate::state::{DaemonState, PageOutcome};

/// Hard cap on one request line. Invalidations carry whole file
/// contents, so the cap is generous; anything larger is hostile or a
/// framing bug, and either way a structured error beats an allocation
/// storm.
pub const MAX_LINE_BYTES: usize = 8 * 1024 * 1024;

/// Hard cap on `batch` ops per request.
pub const MAX_BATCH_OPS: usize = 1_024;

/// Hard cap on `analyze` entries per request.
pub const MAX_ENTRIES: usize = 4_096;

/// The result of handling one request line.
#[derive(Debug)]
pub struct Handled {
    /// The response to write back (always exactly one line).
    pub response: Json,
    /// `true` when the request asked the server to stop.
    pub shutdown: bool,
}

fn error(message: impl Into<String>) -> Handled {
    Handled {
        response: Json::obj(vec![
            ("ok", Json::Bool(false)),
            ("error", Json::Str(message.into())),
        ]),
        shutdown: false,
    }
}

fn ok(mut members: Vec<(&str, Json)>) -> Json {
    members.insert(0, ("ok", Json::Bool(true)));
    Json::obj(members)
}

/// Parses one request line into its JSON value and command name,
/// enforcing the size cap. Shared by the single-workspace loop and the
/// multi-workspace server envelope.
pub fn parse_request(line: &str) -> Result<(Json, String), Handled> {
    if line.len() > MAX_LINE_BYTES {
        return Err(error(format!(
            "request too large ({} bytes, limit {MAX_LINE_BYTES})",
            line.len()
        )));
    }
    let request = match json::parse(line) {
        Ok(v) => v,
        Err(e) => return Err(error(format!("invalid JSON: {e}"))),
    };
    let cmd = match request.get("cmd").and_then(Json::as_str) {
        Some(c) => c.to_owned(),
        None => return Err(error("missing \"cmd\"")),
    };
    Ok((request, cmd))
}

/// The request's `priority` field, clamped to 0–9 (default 0). A
/// non-numeric value is a structured error.
pub fn request_priority(request: &Json) -> Result<u8, Handled> {
    match request.get("priority") {
        None | Some(Json::Null) => Ok(0),
        Some(Json::Num(n)) if n.is_finite() && *n >= 0.0 => Ok((*n as u64).min(9) as u8),
        Some(_) => Err(error("\"priority\" must be a number in 0..=9")),
    }
}

/// The request's `deadline_ms` field as a duration (default none). A
/// non-numeric or non-positive value is a structured error.
pub fn request_deadline(request: &Json) -> Result<Option<std::time::Duration>, Handled> {
    match request.get("deadline_ms") {
        None | Some(Json::Null) => Ok(None),
        Some(Json::Num(n)) if n.is_finite() && *n > 0.0 => {
            Ok(Some(std::time::Duration::from_secs_f64(n / 1e3)))
        }
        Some(_) => Err(error("\"deadline_ms\" must be a positive number")),
    }
}

/// Handles one request line against the resident state, returning the
/// response line. Never panics on malformed input.
pub fn handle_line(state: &DaemonState, line: &str) -> Handled {
    state.counters.requests.inc();
    let (request, cmd) = match parse_request(line) {
        Ok(parsed) => parsed,
        Err(handled) => return handled,
    };
    // Routing fields are validated even where they are not acted on
    // (the stdio loop has no queue): a typo'd priority should fail
    // loudly, not be silently ignored.
    if let Err(h) = request_priority(&request) {
        return h;
    }
    if let Err(h) = request_deadline(&request) {
        return h;
    }
    dispatch_cmd(state, &cmd, &request)
}

/// Dispatches one parsed request against one workspace's state. This
/// is the workspace-verb core shared by [`handle_line`] and the
/// multi-workspace server (which resolves the shard first).
pub fn dispatch_cmd(state: &DaemonState, cmd: &str, request: &Json) -> Handled {
    match cmd {
        "analyze" => handle_analyze(state, request),
        "profile" => handle_profile(state, request),
        "invalidate" => handle_invalidate(state, request),
        "batch" => handle_batch(state, request),
        "status" => handle_status(state),
        "metrics" => Handled {
            response: ok(vec![("metrics", state.metrics_json())]),
            shutdown: false,
        },
        "shutdown" => Handled {
            response: ok(vec![("shutdown", Json::Bool(true))]),
            shutdown: true,
        },
        other => error(format!("unknown cmd {other:?}")),
    }
}

/// Applies a `batch` request: `ops` is an array of `analyze` /
/// `invalidate` / `status` objects executed in order against one
/// workspace, answered with one `results` array in the same order —
/// N deltas plus a re-analysis in a single round-trip. Per-op
/// failures occupy their result slot as `{"ok":false,…}` without
/// aborting the rest of the batch.
fn handle_batch(state: &DaemonState, request: &Json) -> Handled {
    let ops = match request.get("ops").and_then(Json::as_arr) {
        Some(arr) => arr,
        None => return error("\"batch\" needs \"ops\": [requests]"),
    };
    if ops.len() > MAX_BATCH_OPS {
        return error(format!(
            "batch too large ({} ops, limit {MAX_BATCH_OPS})",
            ops.len()
        ));
    }
    let mut results = Vec::with_capacity(ops.len());
    for op in ops {
        let result = match op.get("cmd").and_then(Json::as_str) {
            Some(cmd @ ("analyze" | "invalidate" | "status")) => {
                dispatch_cmd(state, cmd, op).response
            }
            Some(other) => {
                error(format!("op {other:?} not allowed in batch")).response
            }
            None => error("batch op missing \"cmd\"").response,
        };
        results.push(result);
    }
    Handled {
        response: ok(vec![("results", Json::Arr(results))]),
        shutdown: false,
    }
}

/// The request's validated `entries` array (size-capped, all strings).
fn request_entries(request: &Json, verb: &str) -> Result<Vec<String>, Handled> {
    match request.get("entries").and_then(Json::as_arr) {
        Some(arr) => {
            if arr.len() > MAX_ENTRIES {
                return Err(error(format!(
                    "too many entries ({}, limit {MAX_ENTRIES})",
                    arr.len()
                )));
            }
            let mut out = Vec::with_capacity(arr.len());
            for e in arr {
                match e.as_str() {
                    Some(s) => out.push(s.to_owned()),
                    None => return Err(error("\"entries\" must be an array of strings")),
                }
            }
            Ok(out)
        }
        None => Err(error(format!("{verb:?} needs \"entries\": [paths]"))),
    }
}

/// The request's validated `policies` array: every id must exist in
/// the registry; `None` means the workspace default.
fn request_policies(request: &Json) -> Result<Option<Vec<String>>, Handled> {
    match request.get("policies") {
        None | Some(Json::Null) => Ok(None),
        Some(Json::Arr(arr)) => {
            let mut ids = Vec::with_capacity(arr.len());
            for p in arr {
                match p.as_str() {
                    Some(id) if strtaint::policy::find(id).is_some() => {
                        ids.push(id.to_owned());
                    }
                    Some(id) => return Err(error(format!("unknown policy {id:?}"))),
                    None => return Err(error("\"policies\" must be an array of strings")),
                }
            }
            if ids.is_empty() {
                return Err(error("\"policies\" must name at least one policy"));
            }
            Ok(Some(ids))
        }
        Some(_) => Err(error("\"policies\" must be an array of strings")),
    }
}

/// Validates an `analyze` or `profile` request and analyzes (or
/// replays) its entries: each entry as the request named it, with its
/// page and where that came from, in entry order. `xss` is the wire
/// form of the policy set `["xss"]` and is resolved into it here.
fn request_pages(
    state: &DaemonState,
    request: &Json,
    verb: &str,
    xss: bool,
) -> Result<Vec<(String, Arc<str>, PageOutcome)>, Handled> {
    let entries = request_entries(request, verb)?;
    let mut policies = request_policies(request)?;
    if xss {
        if policies.is_some() {
            return Err(error(
                "\"xss\" and \"policies\" are mutually exclusive (use [\"xss\"])",
            ));
        }
        policies = Some(vec![strtaint::policy::XSS_POLICY.to_owned()]);
    }
    let timeout_ms = request.get("timeout_ms").and_then(Json::as_num);
    let fuel = request.get("fuel").and_then(Json::as_num);
    let config = state.request_config(timeout_ms, fuel, policies);
    let pages = state.analyze_entries(&entries, &config);
    Ok(entries
        .into_iter()
        .zip(pages)
        .map(|(entry, (page, outcome))| (entry, page, outcome))
        .collect())
}

fn handle_analyze(state: &DaemonState, request: &Json) -> Handled {
    let xss = request.get("xss").and_then(Json::as_bool).unwrap_or(false);
    let pages = match request_pages(state, request, "analyze", xss) {
        Ok(pages) => pages,
        Err(h) => return h,
    };
    let computed = pages
        .iter()
        .filter(|(_, _, outcome)| *outcome == PageOutcome::Computed)
        .count();
    let replayed = pages.len() - computed;
    let pages = pages
        .into_iter()
        .map(|(_, page, _)| Json::Raw(page))
        .collect();
    Handled {
        response: ok(vec![
            ("pages", Json::Arr(pages)),
            ("computed", Json::Num(computed as f64)),
            ("replayed", Json::Num(replayed as f64)),
        ]),
        shutdown: false,
    }
}

/// Handles `profile`: analyzes (or replays) each entry and renders the
/// per-hotspot skeleton allowlists as the versioned guard-profile
/// artifact. The profile is rebuilt from the page JSON — the exact
/// bytes persisted verdict artifacts carry, parsed back — and the
/// skeleton-string conversion happened once at render time, so a warm
/// daemon's profile is byte-identical to a cold run's.
fn handle_profile(state: &DaemonState, request: &Json) -> Handled {
    let results = match request_pages(state, request, "profile", false) {
        Ok(pages) => pages,
        Err(h) => return h,
    };
    let mut pages = Vec::with_capacity(results.len());
    for (entry, page, _) in results {
        match json::parse(&page).ok().and_then(|page| profile_page_from_json(&page)) {
            Some(p) => pages.push(p),
            // A skipped page (parse error, panic) has no trustworthy
            // hotspot evidence; an allowlist silently missing a page's
            // hotspots would be unsound to enforce.
            None => {
                return error(format!("cannot profile {entry:?}: page analysis skipped"))
            }
        }
    }
    Handled {
        response: ok(vec![(
            "profile",
            Json::Str(strtaint_remedy::render_profile(&pages)),
        )]),
        shutdown: false,
    }
}

/// Rebuilds one page's allowlist from its protocol page object. `None`
/// when the page was skipped or any hotspot lacks skeleton evidence
/// (impossible for pages this engine version computed or replayed).
fn profile_page_from_json(page: &Json) -> Option<strtaint_remedy::ProfilePage> {
    if page.get("skipped").and_then(Json::as_str).is_some() {
        return None;
    }
    let entry = page.get("entry")?.as_str()?.to_owned();
    let mut hotspots = Vec::new();
    for h in page.get("hotspots")?.as_arr()? {
        let mut skeletons = Vec::new();
        for s in h.get("skeletons")?.as_arr()? {
            skeletons.push(s.as_str()?.to_owned());
        }
        hotspots.push(strtaint_remedy::ProfileHotspot {
            file: h.get("file")?.as_str()?.to_owned(),
            line: h.get("line")?.as_num()? as u32,
            col: h.get("col")?.as_num()? as u32,
            label: h.get("label")?.as_str()?.to_owned(),
            policy: h.get("policy")?.as_str()?.to_owned(),
            complete: h.get("skeletons_complete")?.as_bool()?,
            skeletons,
        });
    }
    Some(strtaint_remedy::ProfilePage { entry, hotspots })
}

fn handle_invalidate(state: &DaemonState, request: &Json) -> Handled {
    let path = match request.get("path").and_then(Json::as_str) {
        Some(p) => p.to_owned(),
        None => return error("\"invalidate\" needs \"path\""),
    };
    let contents = match request.get("contents") {
        None | Some(Json::Null) => None,
        Some(Json::Str(s)) => Some(s.clone().into_bytes()),
        Some(_) => return error("\"contents\" must be a string (or absent to remove)"),
    };
    let changed = state.invalidate(&path, contents);
    Handled {
        response: ok(vec![("changed", Json::Bool(changed))]),
        shutdown: false,
    }
}

fn handle_status(state: &DaemonState) -> Handled {
    let engine = state.engine_stats();
    let summaries = state.summaries();
    let (files, lines) = state.tree_size();
    let mut members = vec![
        (
            "engine",
            Json::obj(vec![
                ("queries", Json::Num(engine.queries as f64)),
                ("normalizations", Json::Num(engine.normalizations as f64)),
                (
                    "normalizations_saved",
                    Json::Num(engine.normalizations_saved as f64),
                ),
                ("realized_triples", Json::Num(engine.realized_triples as f64)),
                ("early_exits", Json::Num(engine.early_exits as f64)),
            ]),
        ),
        (
            "summary_cache",
            Json::obj(vec![
                ("hits", Json::Num(summaries.hits() as f64)),
                ("misses", Json::Num(summaries.misses() as f64)),
                ("entries", Json::Num(summaries.len() as f64)),
            ]),
        ),
        (
            "pages_computed",
            Json::Num(state.counters.pages_computed.get() as f64),
        ),
        (
            "pages_replayed",
            Json::Num(state.counters.pages_replayed.get() as f64),
        ),
        (
            "requests",
            Json::Num(state.counters.requests.get() as f64),
        ),
        ("files", Json::Num(files as f64)),
        ("lines", Json::Num(lines as f64)),
    ];
    if let Some(store) = state.store() {
        members.push((
            "store",
            Json::obj(vec![
                (
                    "loaded",
                    Json::Num(store.stats.loaded.load(Ordering::Relaxed) as f64),
                ),
                (
                    "stored",
                    Json::Num(store.stats.stored.load(Ordering::Relaxed) as f64),
                ),
                (
                    "dropped",
                    Json::Num(store.stats.dropped.load(Ordering::Relaxed) as f64),
                ),
            ]),
        ));
    }
    Handled {
        response: ok(members),
        shutdown: false,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use strtaint::{Config, Vfs};

    fn state() -> DaemonState {
        let mut vfs = Vfs::new();
        // Tainted: guarantees at least one intersection query runs.
        vfs.add(
            "a.php",
            "<?php $id = $_GET['id']; \
             $r = $DB->query(\"SELECT * FROM t WHERE id='$id'\");",
        );
        DaemonState::new(vfs, Config::default(), None)
    }

    /// The response as a client reads it: written, then parsed.
    fn roundtrip(state: &DaemonState, line: &str) -> Json {
        json::parse(&handle_line(state, line).response.to_string()).expect("response parses")
    }

    #[test]
    fn malformed_lines_become_errors_not_panics() {
        let s = state();
        for bad in [
            "",
            "not json",
            "{}",
            "{\"cmd\":\"frobnicate\"}",
            "{\"cmd\":\"analyze\"}",
            "{\"cmd\":\"analyze\",\"entries\":[1]}",
            "{\"cmd\":\"invalidate\"}",
            "{\"cmd\":\"invalidate\",\"path\":\"a\",\"contents\":7}",
        ] {
            let r = roundtrip(&s, bad);
            assert_eq!(r.get("ok").and_then(Json::as_bool), Some(false), "{bad}");
            assert!(r.get("error").and_then(Json::as_str).is_some(), "{bad}");
        }
    }

    #[test]
    fn analyze_then_status_reports_the_work() {
        let s = state();
        let r = roundtrip(&s, "{\"cmd\":\"analyze\",\"entries\":[\"a.php\"]}");
        assert_eq!(r.get("ok").and_then(Json::as_bool), Some(true));
        assert_eq!(r.get("computed").and_then(Json::as_num), Some(1.0));
        assert_eq!(r.get("replayed").and_then(Json::as_num), Some(0.0));
        let pages = r.get("pages").and_then(Json::as_arr).expect("pages");
        assert_eq!(pages.len(), 1);
        assert_eq!(
            pages[0].get("entry").and_then(Json::as_str),
            Some("a.php")
        );

        let st = roundtrip(&s, "{\"cmd\":\"status\"}");
        assert_eq!(st.get("pages_computed").and_then(Json::as_num), Some(1.0));
        let engine = st.get("engine").expect("engine stats");
        assert!(engine.get("queries").and_then(Json::as_num).unwrap_or(0.0) >= 1.0);

        // Replay adds no engine work.
        let r2 = roundtrip(&s, "{\"cmd\":\"analyze\",\"entries\":[\"a.php\"]}");
        assert_eq!(r2.get("replayed").and_then(Json::as_num), Some(1.0));
        let st2 = roundtrip(&s, "{\"cmd\":\"status\"}");
        assert_eq!(
            st2.get("engine").and_then(|e| e.get("queries")).and_then(Json::as_num),
            st.get("engine").and_then(|e| e.get("queries")).and_then(Json::as_num),
            "replay performs zero intersection queries"
        );
    }

    #[test]
    fn invalidate_applies_deltas() {
        let s = state();
        let r = roundtrip(
            &s,
            "{\"cmd\":\"invalidate\",\"path\":\"b.php\",\"contents\":\"<?php ?>\"}",
        );
        assert_eq!(r.get("changed").and_then(Json::as_bool), Some(true));
        let st = roundtrip(&s, "{\"cmd\":\"status\"}");
        assert_eq!(st.get("files").and_then(Json::as_num), Some(2.0));
        // Removal via absent contents.
        let r2 = roundtrip(&s, "{\"cmd\":\"invalidate\",\"path\":\"b.php\"}");
        assert_eq!(r2.get("changed").and_then(Json::as_bool), Some(true));
        let st2 = roundtrip(&s, "{\"cmd\":\"status\"}");
        assert_eq!(st2.get("files").and_then(Json::as_num), Some(1.0));
    }

    #[test]
    fn batch_applies_ops_in_order_in_one_round_trip() {
        let s = state();
        let r = roundtrip(
            &s,
            "{\"cmd\":\"batch\",\"ops\":[\
             {\"cmd\":\"invalidate\",\"path\":\"b.php\",\"contents\":\"<?php ?>\"},\
             {\"cmd\":\"analyze\",\"entries\":[\"a.php\"]},\
             {\"cmd\":\"status\"},\
             {\"cmd\":\"shutdown\"},\
             {\"cmd\":\"invalidate\",\"path\":\"b.php\"}]}",
        );
        assert_eq!(r.get("ok").and_then(Json::as_bool), Some(true));
        let results = r.get("results").and_then(Json::as_arr).expect("results");
        assert_eq!(results.len(), 5);
        assert_eq!(results[0].get("changed").and_then(Json::as_bool), Some(true));
        assert_eq!(results[1].get("computed").and_then(Json::as_num), Some(1.0));
        assert_eq!(results[2].get("files").and_then(Json::as_num), Some(2.0));
        // shutdown is not allowed inside a batch: its slot errors, the
        // rest of the batch still runs.
        assert_eq!(results[3].get("ok").and_then(Json::as_bool), Some(false));
        assert_eq!(results[4].get("changed").and_then(Json::as_bool), Some(true));
    }

    #[test]
    fn oversized_requests_get_structured_errors() {
        let s = state();
        // Line too long.
        let huge = format!(
            "{{\"cmd\":\"analyze\",\"entries\":[\"{}\"]}}",
            "x".repeat(MAX_LINE_BYTES)
        );
        let r = roundtrip(&s, &huge);
        assert_eq!(r.get("ok").and_then(Json::as_bool), Some(false));
        // Too many batch ops.
        let ops: Vec<String> = (0..MAX_BATCH_OPS + 1)
            .map(|_| "{\"cmd\":\"status\"}".to_owned())
            .collect();
        let r = roundtrip(&s, &format!("{{\"cmd\":\"batch\",\"ops\":[{}]}}", ops.join(",")));
        assert_eq!(r.get("ok").and_then(Json::as_bool), Some(false));
        assert!(r
            .get("error")
            .and_then(Json::as_str)
            .expect("error text")
            .contains("batch too large"));
    }

    #[test]
    fn routing_fields_are_validated() {
        let s = state();
        for bad in [
            "{\"cmd\":\"status\",\"priority\":\"high\"}",
            "{\"cmd\":\"status\",\"priority\":-1}",
            "{\"cmd\":\"status\",\"deadline_ms\":\"soon\"}",
            "{\"cmd\":\"status\",\"deadline_ms\":0}",
        ] {
            let r = roundtrip(&s, bad);
            assert_eq!(r.get("ok").and_then(Json::as_bool), Some(false), "{bad}");
        }
        // Valid values pass through.
        let r = roundtrip(&s, "{\"cmd\":\"status\",\"priority\":9,\"deadline_ms\":50}");
        assert_eq!(r.get("ok").and_then(Json::as_bool), Some(true));
    }

    #[test]
    fn analyze_accepts_and_validates_policies() {
        let s = state();
        // Shell page: vulnerable only when the shell policy is on.
        roundtrip(
            &s,
            "{\"cmd\":\"invalidate\",\"path\":\"sh.php\",\
             \"contents\":\"<?php system(\\\"ls \\\" . $_GET['d']);\"}",
        );
        let r = roundtrip(
            &s,
            "{\"cmd\":\"analyze\",\"entries\":[\"sh.php\"],\
             \"policies\":[\"sql\",\"shell\"]}",
        );
        assert_eq!(r.get("ok").and_then(Json::as_bool), Some(true));
        let pages = r.get("pages").and_then(Json::as_arr).expect("pages");
        assert_eq!(pages[0].get("verified").and_then(Json::as_bool), Some(false));
        // Default policy set does not see the shell sink.
        let r2 = roundtrip(&s, "{\"cmd\":\"analyze\",\"entries\":[\"sh.php\"]}");
        let pages2 = r2.get("pages").and_then(Json::as_arr).expect("pages");
        assert_eq!(pages2[0].get("verified").and_then(Json::as_bool), Some(true));
        // Validation: unknown ids, wrong types, empty sets, xss clash.
        for bad in [
            "{\"cmd\":\"analyze\",\"entries\":[\"sh.php\"],\"policies\":[\"bogus\"]}",
            "{\"cmd\":\"analyze\",\"entries\":[\"sh.php\"],\"policies\":[1]}",
            "{\"cmd\":\"analyze\",\"entries\":[\"sh.php\"],\"policies\":\"sql\"}",
            "{\"cmd\":\"analyze\",\"entries\":[\"sh.php\"],\"policies\":[]}",
            "{\"cmd\":\"analyze\",\"entries\":[\"sh.php\"],\"xss\":true,\"policies\":[\"sql\"]}",
        ] {
            let r = roundtrip(&s, bad);
            assert_eq!(r.get("ok").and_then(Json::as_bool), Some(false), "{bad}");
        }
    }

    #[test]
    fn shutdown_flags_the_server() {
        let s = state();
        let h = handle_line(&s, "{\"cmd\":\"shutdown\"}");
        assert!(h.shutdown);
        assert_eq!(h.response.get("ok").and_then(Json::as_bool), Some(true));
    }
}
