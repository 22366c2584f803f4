//! Demand-driven transducer images (paper §5.3, §7): an image is built
//! only when a checked sink — or a language read on the way to one —
//! needs it. Skipping the others must never change a grammar a sink
//! reads, must never launder taint, and must leave no placeholder
//! behind in the grammar an analysis returns.

use strtaint::{analyze_page, Config, Vfs};
use strtaint_analysis::{analyze, Analysis};
use strtaint_corpus::{apps, synth_app, App, SynthConfig};
use strtaint_grammar::{NtId, PreparedGrammar};
use strtaint_obs as obs;

fn policies(ids: &[&str]) -> Config {
    Config {
        policies: ids.iter().map(|p| p.to_string()).collect(),
        ..Config::default()
    }
}

fn sql_only() -> Config {
    policies(&["sql"])
}

fn all_policies() -> Config {
    policies(&["sql", "xss", "shell", "path", "eval"])
}

/// The five corpus apps and the 30-page synthetic app.
fn subjects() -> Vec<App> {
    vec![
        apps::eve::build(),
        apps::utopia::build(),
        apps::warp::build(),
        apps::e107::build(),
        apps::tiger::build(),
        synth_app(&SynthConfig {
            pages: 30,
            sinks_per_page: 3,
            replace_chain: 1,
            seed: 7,
            ..SynthConfig::default()
        }),
    ]
}

/// Each SQL hotspot's prepared fingerprint, and |V|/|R| of the grammar
/// reachable from the SQL hotspots together.
fn sql_grammars(a: &Analysis) -> (Vec<(u64, u64)>, usize, usize) {
    let roots: Vec<NtId> = a
        .hotspots
        .iter()
        .filter(|h| h.policy == "sql")
        .map(|h| h.root)
        .collect();
    let fingerprints = roots
        .iter()
        .map(|&r| PreparedGrammar::new(&a.cfg, r).fingerprint())
        .collect();
    let reached = a.cfg.reachable_from(&roots);
    let productions = reached.iter().map(|&id| a.cfg.productions(id).len()).sum();
    (fingerprints, reached.len(), productions)
}

/// Asserts no nonterminal reachable from a returned root is a
/// placeholder still waiting for its image.
fn assert_no_placeholder(a: &Analysis, what: &str) {
    let roots: Vec<NtId> = a
        .hotspots
        .iter()
        .chain(&a.echo_sinks)
        .map(|h| h.root)
        .collect();
    for id in a.cfg.reachable_from(&roots) {
        assert!(
            !a.cfg.name(id).starts_with("pending:"),
            "{what}: unforced image {} reachable from a returned root",
            a.cfg.name(id)
        );
    }
}

#[test]
fn sql_grammars_equal_under_every_policy_set() {
    // All five policies record every echo sink, so every image is
    // forced; with `sql` alone the echo-only images are skipped. The
    // grammars the SQL hotspots read must not differ.
    for app in subjects() {
        for entry in app.entry_refs() {
            let what = format!("{}: {entry}", app.name);
            let narrow = analyze(&app.vfs, entry, &sql_only());
            let wide = analyze(&app.vfs, entry, &all_policies());
            let (Ok(narrow), Ok(wide)) = (narrow, wide) else {
                continue; // skipped pages have no grammar
            };
            assert!(
                narrow.echo_sinks.is_empty(),
                "{what}: echo recorded without xss"
            );
            assert_eq!(sql_grammars(&narrow), sql_grammars(&wide), "{what}");
            assert_no_placeholder(&narrow, &format!("{what} (sql)"));
            assert_no_placeholder(&wide, &format!("{what} (all policies)"));
        }
    }
}

/// The `image` spans one analysis of `entry` opens on this thread.
fn image_spans(vfs: &Vfs, entry: &str, config: &Config) -> usize {
    let marker = format!("demand_images {entry} {:?}", config.policies);
    {
        let _span = obs::Span::enter("test", &marker);
        analyze(vfs, entry, config).expect("page analyzes");
    }
    let events = obs::events();
    let outer = events
        .iter()
        .find(|e| e.name == "test" && e.detail == marker)
        .expect("marker span recorded");
    events
        .iter()
        .filter(|e| {
            e.name == "image"
                && e.tid == outer.tid
                && e.start_us >= outer.start_us
                && e.start_us <= outer.start_us + outer.dur_us
        })
        .count()
}

#[test]
fn tiger_forum_images_follow_checked_sinks() {
    // The forum page runs BBCode chains on a query-relevant value (the
    // cached body) and a display-only one (the preview, echoed). The
    // preview chain's three images are built only when `xss` checks
    // the echo.
    let app = apps::tiger::build();
    obs::set_mode(obs::Mode::Full);
    let sql = image_spans(&app.vfs, "forum.php", &sql_only());
    let sql_xss = image_spans(&app.vfs, "forum.php", &policies(&["sql", "xss"]));
    obs::set_mode(obs::Mode::Off);
    assert_eq!((sql, sql_xss), (3, 6));
}

#[test]
fn display_chain_page_verifies() {
    let mut vfs = Vfs::new();
    vfs.add(
        "p.php",
        r#"<?php
$pv = str_replace('[b]', '<b>', $_POST['preview']);
echo $pv;
$v = addslashes($_POST['v']);
$DB->query("SELECT * FROM t WHERE v='$v'");
"#,
    );
    let r = analyze_page(&vfs, "p.php", &Config::default()).unwrap();
    // The sanitizer on the query path stays precise: page verifies.
    assert!(r.is_verified(), "{r}");
}

#[test]
fn image_on_query_path_keeps_its_taint() {
    // A vulnerable flow through a display-looking transformation must
    // still be reported: the query reads the image, so it is built.
    let mut vfs = Vfs::new();
    vfs.add(
        "p.php",
        r#"<?php
$x = str_replace('[b]', '<b>', $_GET['x']);
$DB->query("SELECT * FROM t WHERE x='$x'");
"#,
    );
    let r = analyze_page(&vfs, "p.php", &Config::default()).unwrap();
    assert!(!r.is_verified(), "a skipped image must not launder taint");
}

#[test]
fn emitter_reads_force_the_images_they_reach() {
    // `substr` reads the image's taint, a refinement intersects it, and
    // a second image takes it as its operand: each read must see the
    // image, not an empty placeholder.
    let mut vfs = Vfs::new();
    vfs.add(
        "p.php",
        r#"<?php
$a = str_replace('x', 'y', $_GET['a']);
$s = substr($a, 0, 8);
$DB->query("SELECT * FROM t WHERE s='$s'");
$b = str_replace('y', 'z', $_GET['b']);
if (preg_match('/^[a-z]+$/', $b)) {
    $DB->query("SELECT * FROM t WHERE b='$b'");
}
$c = addslashes(str_replace('[b]', '<b>', $_GET['c']));
$DB->query("SELECT * FROM t WHERE c='$c'");
"#,
    );
    let a = analyze(&vfs, "p.php", &Config::default()).unwrap();
    assert_no_placeholder(&a, "p.php");
    let r = analyze_page(&vfs, "p.php", &Config::default()).unwrap();
    let verdicts: Vec<bool> = r
        .hotspots
        .iter()
        .map(|(_, h)| h.findings.is_empty())
        .collect();
    // substr keeps the image's taint, so its query is reported; the
    // refined and the escaped queries verify.
    assert_eq!(verdicts, vec![false, true, true], "{r}");
}
