//! End-to-end behavior tests across the analysis features: includes,
//! loops, string builtins, interprocedural flows, and the dynamic
//! include resolution of paper §4.

use strtaint::{analyze_page, Config, Vfs};

fn page(src: &str) -> strtaint::PageReport {
    let mut vfs = Vfs::new();
    vfs.add("index.php", src);
    analyze_page(&vfs, "index.php", &Config::default()).unwrap()
}

#[test]
fn query_built_in_loop_is_analyzed() {
    // Loop-carried concatenation: tainted values accumulate.
    let r = page(
        r#"<?php
$where = "1=1";
foreach ($_POST['filters'] as $f) {
    $where = $where . " AND tag='" . $f . "'";
}
$DB->query("SELECT * FROM items WHERE " . $where);
"#,
    );
    assert!(!r.is_verified(), "loop-carried taint must be found");
}

#[test]
fn sanitized_loop_verifies() {
    let r = page(
        r#"<?php
$where = "1=1";
foreach ($_POST['filters'] as $f) {
    $c = addslashes($f);
    $where = $where . " AND tag='" . $c . "'";
}
$DB->query("SELECT * FROM items WHERE " . $where);
"#,
    );
    // addslashes applied to the loop variable — sanitizer inside the
    // loop body, applied to the (non-loop-carried) element. Each piece
    // is escaped and quoted.
    assert!(r.is_verified(), "{r}");
}

#[test]
fn static_include_flows() {
    let mut vfs = Vfs::new();
    vfs.add(
        "db.php",
        r#"<?php
function fetch_user($id) {
    global $DB;
    return $DB->query("SELECT * FROM users WHERE id='" . $id . "'");
}
"#,
    );
    vfs.add(
        "index.php",
        r#"<?php
include('db.php');
fetch_user(intval($_GET['id']));
"#,
    );
    let r = analyze_page(&vfs, "index.php", &Config::default()).unwrap();
    assert!(r.is_verified(), "intval'd id through include+function: {r}");

    // Same flow without intval must be flagged.
    vfs.add(
        "index.php",
        r#"<?php
include('db.php');
fetch_user($_GET['id']);
"#,
    );
    let r = analyze_page(&vfs, "index.php", &Config::default()).unwrap();
    assert!(!r.is_verified());
}

#[test]
fn dynamic_include_resolved_by_layout() {
    // Paper §4: the filesystem layout is part of the specification.
    let mut vfs = Vfs::new();
    vfs.add(
        "mods/a.php",
        r#"<?php $q = $DB->query("SELECT * FROM a WHERE x='" . $_GET['x'] . "'");"#,
    );
    vfs.add("mods/b.php", r#"<?php $safe = 1;"#);
    vfs.add(
        "index.php",
        r#"<?php
$m = $_GET['mod'];
if (!in_array($m, array('a', 'b'))) { $m = 'b'; }
include('mods/' . $m . '.php');
"#,
    );
    let r = analyze_page(&vfs, "index.php", &Config::default()).unwrap();
    // The vulnerable module is reachable through the dynamic include.
    assert!(!r.is_verified(), "{r}");
    assert!(r.warnings.is_empty(), "include resolved without warnings: {:?}", r.warnings);
}

#[test]
fn unresolvable_dynamic_include_warns() {
    let mut vfs = Vfs::new();
    vfs.add("index.php", r#"<?php include('mods/' . $_GET['m'] . '.php');"#);
    let r = analyze_page(&vfs, "index.php", &Config::default()).unwrap();
    assert!(
        r.warnings.iter().any(|w| w.contains("include")),
        "unresolved dynamic include must warn: {:?}",
        r.warnings
    );
}

#[test]
fn include_override_config() {
    let mut vfs = Vfs::new();
    vfs.add(
        "mods/a.php",
        r#"<?php $q = $DB->query("SELECT * FROM a WHERE x='" . $_GET['x'] . "'");"#,
    );
    vfs.add("index.php", "<?php include('mods/' . $_GET['m'] . '.php');\n");
    let mut config = Config::default();
    config
        .include_overrides
        .insert("index.php:1".into(), vec!["mods/a.php".into()]);
    let r = analyze_page(&vfs, "index.php", &config).unwrap();
    assert!(!r.is_verified(), "override routes analysis into the module");
}

#[test]
fn sprintf_splices_arguments() {
    let r = page(
        r#"<?php
$q = sprintf("SELECT * FROM logs WHERE level=%d AND tag='%s'", $_GET['l'], addslashes($_GET['t']));
$DB->query($q);
"#,
    );
    assert!(r.is_verified(), "%d coerces numeric, %s escaped+quoted: {r}");

    let r = page(
        r#"<?php
$q = sprintf("SELECT * FROM logs WHERE tag='%s'", $_GET['t']);
$DB->query($q);
"#,
    );
    assert!(!r.is_verified(), "raw %s argument must be flagged");
}

#[test]
fn explode_pieces_tracked() {
    let r = page(
        r#"<?php
$parts = explode('|', $_GET['path']);
$first = $parts[0];
$DB->query("SELECT * FROM nodes WHERE p='$first'");
"#,
    );
    assert!(!r.is_verified(), "explode pieces of tainted input stay tainted");
}

#[test]
fn str_replace_quote_doubling_alone_is_bypassable() {
    // Hand-rolled quote doubling WITHOUT backslash handling is a real
    // (subtle) vulnerability in MySQL: the input `\'` becomes `\''`,
    // i.e. an escaped quote followed by a lone one. The transducer
    // model (paper Fig. 6 machinery) exposes exactly this.
    let r = page(
        r#"<?php
$v = str_replace("'", "''", $_GET['v']);
$DB->query("SELECT * FROM t WHERE v='$v'");
"#,
    );
    assert!(!r.is_verified(), "backslash bypass must be found");
    let (_, f) = r.findings().next().unwrap();
    let w = f.witness.clone().unwrap();
    assert!(w.contains(&b'\\'), "witness demonstrates the backslash bypass: {w:?}");
}

#[test]
fn str_replace_full_escaping_verifies() {
    // Doubling backslashes first, then quotes — the correct hand-rolled
    // escape — verifies.
    let r = page(
        r#"<?php
$v = str_replace('\\', '\\\\', $_GET['v']);
$v = str_replace("'", "''", $v);
$DB->query("SELECT * FROM t WHERE v='$v'");
"#,
    );
    assert!(r.is_verified(), "{r}");
}

#[test]
fn str_replace_incomplete_escaping_reported() {
    // Deleting quotes but forgetting backslash-quote interplay is fine;
    // but replacing the wrong character is not.
    let r = page(
        r#"<?php
$v = str_replace('"', '\\"', $_GET['v']);
$DB->query("SELECT * FROM t WHERE v='$v'");
"#,
    );
    assert!(!r.is_verified(), "escaping double quotes does not help single-quoted context");
}

#[test]
fn switch_whitelist_verifies() {
    let r = page(
        r#"<?php
switch ($_GET['sort']) {
    case 'name': $col = 'name'; break;
    case 'date': $col = 'created'; break;
    default: $col = 'id';
}
$DB->query("SELECT * FROM t ORDER BY $col");
"#,
    );
    assert!(r.is_verified(), "{r}");
}

#[test]
fn method_chained_db_wrapper() {
    let r = page(
        r#"<?php
$res = $DB->query("SELECT * FROM t WHERE id=1");
$row = $DB->fetch_array($res);
$next = $row['next_id'];
$DB->query("SELECT * FROM t WHERE id='$next'");
"#,
    );
    let findings: Vec<_> = r.findings().collect();
    assert_eq!(findings.len(), 1);
    assert!(findings[0].1.taint.is_indirect());
}

#[test]
fn urlencode_makes_input_inert() {
    let r = page(
        r#"<?php
$v = urlencode($_GET['v']);
$DB->query("SELECT * FROM t WHERE v='$v'");
"#,
    );
    assert!(r.is_verified(), "urlencoded data cannot carry quotes: {r}");
}

#[test]
fn md5_result_is_safe_in_quotes() {
    let r = page(
        r#"<?php
$h = md5($_POST['password']);
$DB->query("SELECT * FROM users WHERE pw='$h'");
"#,
    );
    assert!(r.is_verified(), "{r}");
}

#[test]
fn numeric_arithmetic_is_safe() {
    let r = page(
        r#"<?php
$pageno = $_GET['p'] + 0;
$offset = $pageno * 10;
$DB->query("SELECT * FROM t LIMIT 10 OFFSET $offset");
"#,
    );
    assert!(r.is_verified(), "{r}");
}

#[test]
fn unknown_function_widens_soundly() {
    let r = page(
        r#"<?php
$v = some_unknown_library_call($_GET['v']);
$DB->query("SELECT * FROM t WHERE v='$v'");
"#,
    );
    assert!(!r.is_verified(), "unknown function must not launder taint");
    assert!(r.unmodeled.iter().any(|f| f == "some_unknown_library_call"));
}

#[test]
fn files_analyzed_counts_reincludes() {
    let mut vfs = Vfs::new();
    vfs.add("h.php", "<?php $x = 1;\n");
    vfs.add(
        "index.php",
        "<?php include('h.php'); include('h.php'); $DB->query(\"SELECT 1\");",
    );
    let r = analyze_page(&vfs, "index.php", &Config::default()).unwrap();
    // index + h analyzed twice (plain include re-analyzes, as the
    // paper's tool does — §5.3).
    assert_eq!(r.files_analyzed, 3);
}

#[test]
fn prepared_statements_verify() {
    // The PreparedStatement pattern the related work (§6.3) describes:
    // placeholders keep bound parameters out of the query syntax.
    let r = page(
        r#"<?php
$stmt = $DB->prepare("SELECT * FROM t WHERE id = 1 AND name = 'x'");
$stmt->execute(array($_GET['id'], $_POST['name']));
"#,
    );
    assert!(r.is_verified(), "bound parameters are not part of the query: {r}");
    assert_eq!(r.hotspots.len(), 1, "prepare is the hotspot, execute is not");
}

#[test]
fn interpolated_prepare_still_flagged() {
    // Building the *template* from user input defeats preparation.
    let r = page(
        r#"<?php
$t = $_GET['table'];
$stmt = $DB->prepare("SELECT * FROM $t WHERE id = 1");
$stmt->execute(array());
"#,
    );
    assert!(!r.is_verified(), "tainted template must be flagged");
}

#[test]
fn list_destructuring_tracks_taint() {
    let r = page(
        r#"<?php
list($user, $domain) = explode('@', $_POST['email']);
$DB->query("SELECT * FROM users WHERE name='$user'");
"#,
    );
    assert!(!r.is_verified(), "list() pieces of tainted input stay tainted");
}

#[test]
fn alternative_syntax_template_analyzed() {
    // The template idiom: logic in alternative-syntax blocks around
    // inline HTML.
    let r = page(
        r#"<?php if (!preg_match('/^[0-9]+$/', $_GET['id'])): ?>
<p>bad id</p>
<?php exit; endif;
$id = $_GET['id'];
$r = $DB->query("SELECT * FROM t WHERE id='$id'");
"#,
    );
    assert!(r.is_verified(), "refinement flows through endif: {r}");
}

#[test]
fn heredoc_query_analyzed() {
    // Heredoc syntax is a common way to write long queries.
    let r = page(
        r#"<?php
$id = $_GET['id'];
$q = <<<SQL
SELECT *
FROM t
WHERE id='$id'
SQL;
$DB->query($q);
"#,
    );
    assert!(!r.is_verified(), "tainted heredoc interpolation flagged");

    let r = page(
        r#"<?php
$id = intval($_GET['id']);
$q = <<<SQL
SELECT * FROM t WHERE id=$id
SQL;
$DB->query($q);
"#,
    );
    assert!(r.is_verified(), "{r}");
}

#[test]
fn class_method_db_wrapper() {
    // The application-defined DB layer the real subjects use: a class
    // wrapping query construction.
    let r = page(
        r#"<?php
class Database {
    var $conn = null;
    function safe_query($tbl, $id) {
        global $DB;
        return $DB->query("SELECT * FROM " . $tbl . " WHERE id=" . intval($id));
    }
    function raw_query($sql) {
        global $DB;
        return $DB->query($sql);
    }
}
$db = new Database();
$db->safe_query('users', $_GET['id']);
"#,
    );
    assert!(r.is_verified(), "intval inside the class method: {r}");

    let r = page(
        r#"<?php
class Database {
    function raw_query($sql) {
        global $DB;
        return $DB->query($sql);
    }
}
$db = new Database();
$db->raw_query("SELECT * FROM t WHERE n='" . $_POST['n'] . "'");
"#,
    );
    assert!(!r.is_verified(), "taint flows through the method");
}

#[test]
fn class_method_sanitizer() {
    let r = page(
        r#"<?php
class Filter {
    function clean($v) {
        return addslashes($v);
    }
}
$f = new Filter();
$n = $f->clean($_POST['name']);
$DB->query("SELECT * FROM u WHERE name='$n'");
"#,
    );
    assert!(r.is_verified(), "{r}");
}

/// The JSON and SARIF bytes of a run's pages, with the per-page
/// timings (the only members that may differ run to run) zeroed.
fn rendered(mut pages: Vec<strtaint::PageReport>) -> (String, String) {
    for p in &mut pages {
        p.analysis_time = std::time::Duration::ZERO;
        p.check_time = std::time::Duration::ZERO;
    }
    (
        strtaint::render::json_report(&pages, None),
        strtaint::render::sarif(&pages),
    )
}

#[test]
fn parallel_app_analysis_matches_sequential() {
    // The serial app loop and the page driver with several entries in
    // flight (the CLI's `analyze_pages`) render byte-identical JSON and
    // SARIF on every corpus app (Tiger included) and on the 30-page,
    // 3-sink synthetic app, whose pages share includes, queries and
    // preparations across workers.
    use strtaint_corpus::synth::{synth_app, SynthConfig};
    let synth = synth_app(&SynthConfig {
        pages: 30,
        sinks_per_page: 3,
        replace_chain: 1,
        ..SynthConfig::default()
    });
    let config = Config::default();
    for app in strtaint_corpus::apps::all().into_iter().chain([synth]) {
        let entries = app.entry_refs();
        let seq = strtaint::analyze_app(app.name, &app.vfs, &entries, &config);
        let driver: Vec<_> = strtaint::analyze_pages(
            &app.vfs,
            &entries,
            &config,
            &strtaint::PolicyChecker::new(),
            &strtaint::SummaryCache::new(),
            strtaint::Evidence::Verdicts,
        )
        .into_iter()
        .map(|r| r.expect("corpus pages parse"))
        .collect();
        assert_eq!(seq.skipped_pages(), 0, "{}", app.name);
        assert_eq!(
            rendered(seq.pages),
            rendered(driver),
            "{}: analyze_pages",
            app.name
        );
    }
}

#[test]
fn verdict_only_pages_carry_no_skeletons_and_readers_get_them() {
    // The CLI check path and `analyze_app` export no skeleton
    // evidence; the runs that request it — `analyze_page_cached` (a
    // lone page) and `analyze_pages` with `Evidence::Skeletons` (the
    // daemon, `fix`, `profile`) — carry the same skeletons, computed in
    // the hotspot's check job.
    let app = strtaint_corpus::apps::utopia::build();
    let entries = app.entry_refs();
    let config = Config::default();
    let run = |evidence| {
        strtaint::analyze_pages(
            &app.vfs,
            &entries,
            &config,
            &strtaint::PolicyChecker::new(),
            &strtaint::SummaryCache::new(),
            evidence,
        )
        .into_iter()
        .map(|r| r.expect("corpus pages parse"))
        .collect::<Vec<_>>()
    };
    let bare = |pages: &[strtaint::PageReport]| {
        pages
            .iter()
            .flat_map(|p| &p.hotspots)
            .all(|(_, r)| r.skeletons.is_empty() && !r.skeletons_complete)
    };
    let verdicts = run(strtaint::Evidence::Verdicts);
    let app_pages = strtaint::analyze_app(app.name, &app.vfs, &entries, &config).pages;
    assert!(verdicts.iter().any(|p| !p.hotspots.is_empty()));
    assert!(bare(&verdicts), "the driver exported unasked skeletons");
    assert!(bare(&app_pages), "analyze_app exported unasked skeletons");

    let with = run(strtaint::Evidence::Skeletons);
    let checker = strtaint::PolicyChecker::new();
    let summaries = strtaint::SummaryCache::new();
    let mut exported = 0;
    for (page, entry) in with.iter().zip(&entries) {
        let lone = strtaint::analyze_page_cached(&app.vfs, entry, &config, &checker, &summaries)
            .expect("corpus pages parse");
        for ((_, a), (_, b)) in page.hotspots.iter().zip(&lone.hotspots) {
            assert_eq!(a.skeletons, b.skeletons, "{entry}");
            assert_eq!(a.skeletons_complete, b.skeletons_complete, "{entry}");
            exported += usize::from(!a.skeletons.is_empty());
        }
    }
    assert!(exported > 0, "requested skeletons must be exported");
    // Skeleton export changes no verdict byte.
    assert_eq!(rendered(verdicts), rendered(with));
}

#[test]
fn constants_resolve_in_queries() {
    // Table-prefix constants are ubiquitous in the subjects (e107's
    // MPREFIX, UNP_PREFIX, ...).
    let r = page(
        r#"<?php
define('PREFIX', 'unp_');
$id = intval($_GET['id']);
$DB->query("SELECT * FROM " . PREFIX . "user WHERE id=$id");
"#,
    );
    assert!(r.is_verified(), "{r}");
    let mut vfs = Vfs::new();
    vfs.add(
        "p.php",
        r#"<?php
define('PREFIX', 'unp_');
$DB->query("SELECT * FROM " . PREFIX . "user WHERE id=1");
"#,
    );
    let a = strtaint_analysis::analyze(&vfs, "p.php", &Config::default()).unwrap();
    assert!(a
        .cfg
        .derives(a.hotspots[0].root, b"SELECT * FROM unp_user WHERE id=1"));
}

#[test]
fn hotspot_spans_point_at_call_sites() {
    let mut vfs = Vfs::new();
    vfs.add(
        "p.php",
        "<?php\n$a = 1;\n$b = 2;\n$DB->query(\"SELECT 1\");\n$DB->query(\"SELECT 2\");\n",
    );
    let a = strtaint_analysis::analyze(&vfs, "p.php", &Config::default()).unwrap();
    let lines: Vec<u32> = a.hotspots.iter().map(|h| h.span.line).collect();
    assert_eq!(lines, vec![4, 5]);
}

#[test]
fn include_once_runs_once() {
    let mut vfs = Vfs::new();
    vfs.add("counter.php", "<?php $n = $n . 'x';\n");
    vfs.add(
        "p.php",
        r#"<?php
$n = '';
include_once('counter.php');
include_once('counter.php');
$DB->query("SELECT '" . $n . "'");
"#,
    );
    let a = strtaint_analysis::analyze(&vfs, "p.php", &Config::default()).unwrap();
    let root = a.hotspots[0].root;
    assert!(a.cfg.derives(root, b"SELECT 'x'"), "included once");
    assert!(!a.cfg.derives(root, b"SELECT 'xx'"), "not twice");
}

#[test]
fn plain_include_runs_twice() {
    let mut vfs = Vfs::new();
    vfs.add("counter.php", "<?php $n = $n . 'x';\n");
    vfs.add(
        "p.php",
        r#"<?php
$n = '';
include('counter.php');
include('counter.php');
$DB->query("SELECT '" . $n . "'");
"#,
    );
    let a = strtaint_analysis::analyze(&vfs, "p.php", &Config::default()).unwrap();
    let root = a.hotspots[0].root;
    assert!(a.cfg.derives(root, b"SELECT 'xx'"));
}

#[test]
fn do_while_taint_accumulates() {
    let r = page(
        r#"<?php
$q = "SELECT * FROM t WHERE 1=1";
$i = 0;
do {
    $q = $q . " OR tag='" . $_GET['t'] . "'";
    $i++;
} while ($i < 3);
$DB->query($q);
"#,
    );
    assert!(!r.is_verified());
}

#[test]
fn global_statement_links_scopes() {
    let r = page(
        r#"<?php
$prefix = "app_";
function tbl($name) {
    global $prefix;
    return $prefix . $name;
}
$id = intval($_GET['id']);
$DB->query("SELECT * FROM " . tbl('users') . " WHERE id=$id");
"#,
    );
    assert!(r.is_verified(), "{r}");
}

#[test]
fn sql_sink_functions_check_their_query_argument() {
    // The same tainted quoted query at each sink's query position, with
    // a connection or database name at the other positions.
    for call in [
        "mysql_query($q)",
        "mysql_query($q, $link)",
        "mysqli_query($link, $q)",
        "mysql_db_query('shop', $q, $link)",
        "pg_query($q)",
        "pg_query($link, $q)",
        "sqlite_query($link, $q)",
        "sqlite_query($q, $link)",
    ] {
        let r = page(&format!(
            "<?php\n$link = mysqli_connect('localhost');\n$id = $_GET['id'];\n\
             $q = \"SELECT * FROM t WHERE id='$id'\";\n{call};\n"
        ));
        assert!(!r.is_verified(), "{call}: {r}");
        assert!(
            r.findings()
                .any(|(_, f)| f.kind == strtaint::CheckKind::OddQuotes),
            "{call}: {r}"
        );
    }
}
#[test]
fn sql_findings_sit_at_the_checked_argument() {
    // `mysqli_query(` ends at column 13: the connection argument starts
    // at column 14 and the query argument at column 21.
    let src = |call: &str| {
        format!(
            "<?php\n$link = mysqli_connect('localhost');\n$id = $_GET['id'];\n\
             $q = \"SELECT * FROM t WHERE id='$id'\";\n{call};\n"
        )
    };
    let r = page(&src("mysqli_query($link, $q)"));
    let at: Vec<_> = r.findings().map(|(_, f)| f.at).collect();
    assert!(!at.is_empty());
    assert!(at.iter().all(|&at| at == Some((5, 21))), "{at:?}");
    let sarif = strtaint::render::sarif(std::slice::from_ref(&r));
    assert!(
        sarif.contains("\"startLine\": 5, \"startColumn\": 21"),
        "{sarif}"
    );
    assert!(!sarif.contains("\"startColumn\": 14"), "{sarif}");
    let json = strtaint_daemon::verdict::page_to_json(&r).to_string();
    assert!(json.contains("\"at\":[5,21]"), "{json}");
    assert!(!json.contains("\"at\":[5,14]"), "{json}");

    // sqlite_query takes its query at either position: one hotspot per
    // position, each located at its own argument.
    let r = page(&src("sqlite_query($link, $q)"));
    let spans: Vec<_> = r
        .hotspots
        .iter()
        .map(|(h, _)| h.provenance.arg_span.map(|s| (s.line, s.col)))
        .collect();
    assert_eq!(spans, vec![Some((5, 14)), Some((5, 21))]);
}
