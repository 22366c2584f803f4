//! Self-tests of the benchmark: deterministic inputs, an oracle that
//! catches wrong verdicts, the shape of a daemon op, and metric names
//! that agree with `BENCHMARK.json`.
//!
//! Run with `cargo test --release --manifest-path strbench/Cargo.toml`.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};

use strbench::json::{self, Value};
use strbench::workload::{self, EditStream, Oracle, PageVerdict, Workload};
use strbench::{END_TO_END, PER_LAYER};
use strtaint::{analyze_page, Config};
use strtaint_corpus::{synth_app, SynthConfig};
use strtaint_daemon::protocol::handle_line;
use strtaint_daemon::DaemonState;

fn scratch(name: &str) -> PathBuf {
    let dir = Path::new(env!("CARGO_TARGET_TMPDIR")).join(name);
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn read_tree(dir: &Path) -> BTreeMap<PathBuf, Vec<u8>> {
    let mut files = BTreeMap::new();
    let mut stack = vec![dir.to_path_buf()];
    while let Some(d) = stack.pop() {
        for entry in std::fs::read_dir(&d).expect("tree is readable") {
            let path = entry.expect("entry").path();
            if path.is_dir() {
                stack.push(path);
            } else {
                let bytes = std::fs::read(&path).expect("file is readable");
                files.insert(
                    path.strip_prefix(dir).expect("under dir").to_path_buf(),
                    bytes,
                );
            }
        }
    }
    files
}

#[test]
fn generated_trees_are_byte_identical_for_a_seed() {
    for w in Workload::ALL {
        let (a, b) = (
            scratch(&format!("{}-a", w.name())),
            scratch(&format!("{}-b", w.name())),
        );
        workload::write_tree(&workload::inputs(w, 7).app, &a).expect("write a");
        workload::write_tree(&workload::inputs(w, 7).app, &b).expect("write b");
        let (ta, tb) = (read_tree(&a), read_tree(&b));
        assert!(!ta.is_empty(), "{}: empty tree", w.name());
        assert_eq!(ta, tb, "{}: same seed, different tree", w.name());
        if w != Workload::TigerCli {
            let c = scratch(&format!("{}-c", w.name()));
            workload::write_tree(&workload::inputs(w, 8).app, &c).expect("write c");
            assert_ne!(
                ta,
                read_tree(&c),
                "{}: the seed must change the tree",
                w.name()
            );
        }
    }
}

#[test]
fn edit_streams_repeat_for_a_seed() {
    let app = workload::inputs(Workload::FleetDaemon, 3).app;
    let (mut a, mut b) = (EditStream::new(&app, 3), EditStream::new(&app, 3));
    for _ in 0..20 {
        assert_eq!(a.next_op(&app), b.next_op(&app));
    }
}

/// The CLI's JSON report for a small synthetic app, produced by the
/// library renderer the CLI prints with.
fn small_synth_report(cfg: &SynthConfig) -> Value {
    let app = synth_app(cfg);
    let reports: Vec<_> = app
        .entries
        .iter()
        .map(|e| analyze_page(&app.vfs, e, &Config::default()).expect("page analyzes"))
        .collect();
    json::parse(strtaint::render::json_report(&reports, None).as_bytes()).expect("report parses")
}

#[test]
fn oracle_accepts_the_program_and_rejects_a_flipped_verdict() {
    let cfg = SynthConfig {
        pages: 6,
        vuln_every: 3,
        seed: 5,
        ..SynthConfig::default()
    };
    let pages = workload::cli_pages(&small_synth_report(&cfg)).expect("report reads");
    let oracle = Oracle::synth(&cfg);
    oracle
        .check(&pages)
        .expect("the seed code answers correctly");
    assert!(oracle.expects_findings());

    let Oracle::PerPage(mut expected) = oracle else {
        unreachable!("synthetic apps have per-page verdicts")
    };
    expected[1].1 = !expected[1].1;
    let err = Oracle::PerPage(expected)
        .check(&pages)
        .expect_err("a flipped verdict is caught");
    assert!(err.contains("page1.php"), "{err}");
}

#[test]
fn report_count_oracle_rejects_missing_and_extra_sites() {
    let page = |entry: &str, findings: &[(&str, u32, &str)]| PageVerdict {
        entry: entry.to_owned(),
        verified: findings.is_empty(),
        incomplete: false,
        findings: findings
            .iter()
            .map(|(f, l, t)| ((*f).to_owned(), *l, (*t).to_owned()))
            .collect(),
    };
    let pages = vec![
        page("a.php", &[("a.php", 3, "direct"), ("a.php", 3, "direct")]),
        page("b.php", &[("lib.php", 9, "indirect")]),
        page("c.php", &[("lib.php", 9, "indirect")]),
    ];
    let oracle = Oracle::ReportCounts {
        direct: 1,
        indirect: 1,
    };
    oracle
        .check(&pages)
        .expect("one distinct site of each taint");
    assert!(Oracle::ReportCounts {
        direct: 2,
        indirect: 1
    }
    .check(&pages)
    .is_err());
    assert!(Oracle::ReportCounts {
        direct: 1,
        indirect: 0
    }
    .check(&pages)
    .is_err());
    let mut degraded = pages.clone();
    degraded[2].incomplete = true;
    assert!(
        oracle.check(&degraded).is_err(),
        "a degraded page never passes"
    );
}

#[test]
fn a_daemon_op_computes_one_page_and_replays_the_rest() {
    // The fleet workload's request stream over a smaller fleet.
    let cfg = SynthConfig {
        sinks_per_page: 3,
        ..SynthConfig::fleet(40, 9)
    };
    let app = synth_app(&cfg);
    let oracle = Oracle::synth(&cfg);
    let state = DaemonState::new(app.vfs.clone(), Config::default(), None);
    let mut stream = EditStream::new(&app, 9);
    let respond = |line: &str| {
        let mut out = String::new();
        handle_line(&state, line).response.write(&mut out);
        out
    };
    let cold = json::parse(respond(&stream.analyze_all()).as_bytes()).expect("cold response");
    assert_eq!(workload::check_analyze_result(&cold, &oracle), Ok((40, 0)));
    for _ in 0..5 {
        let (_, request) = stream.next_op(&app);
        let response = respond(&request);
        assert_eq!(
            workload::check_batch_response(response.as_bytes(), &oracle),
            Ok((1, 39)),
            "an edit recomputes exactly the edited page"
        );
    }
}

fn is_name(s: &str) -> bool {
    !s.is_empty()
        && s.len() <= 64
        && s.chars().next().is_some_and(|c| c.is_ascii_alphanumeric())
        && s.chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

#[test]
fn metric_names_are_well_formed_and_match_benchmark_json() {
    for (name, unit) in END_TO_END.iter().chain(PER_LAYER) {
        assert!(is_name(name), "bad metric name {name:?}");
        assert!(
            !unit.is_empty()
                && unit
                    .chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)),
            "bad unit {unit:?}"
        );
    }
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let doc =
        json::parse(&std::fs::read(path).expect("BENCHMARK.json is readable")).expect("parses");
    let listed = |key: &str| -> Vec<(String, String)> {
        doc.get(key)
            .and_then(Value::as_arr)
            .expect("metric list")
            .iter()
            .map(|m| {
                let field = |f: &str| m.get(f).and_then(Value::as_str).expect("field").to_owned();
                (field("name"), field("unit"))
            })
            .collect()
    };
    let owned = |ms: &[(&str, &str)]| -> Vec<(String, String)> {
        ms.iter()
            .map(|(n, u)| ((*n).to_owned(), (*u).to_owned()))
            .collect()
    };
    assert_eq!(listed("end_to_end"), owned(END_TO_END));
    assert_eq!(listed("per_layer"), owned(PER_LAYER));
    let workloads: Vec<&str> = doc
        .get("workloads")
        .and_then(Value::as_arr)
        .expect("workloads")
        .iter()
        .map(|w| w.get("name").and_then(Value::as_str).expect("name"))
        .collect();
    assert_eq!(workloads, Workload::ALL.map(Workload::name));
}
