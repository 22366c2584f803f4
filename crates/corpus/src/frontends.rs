//! Paired PHP/template ground-truth pages for the cross-frontend
//! differential suite.
//!
//! Each [`Pair`] is one program written twice — once in PHP, once in
//! the template language — with the same sources, the same dataflow,
//! and the same sink, per policy class and per expected outcome
//! (vulnerable / sanitized). The differential tests assert the two
//! members produce equal verdicts, equal SARIF rule ids, and equal
//! witness presence: the frontends lower different surface syntax to
//! the *same* IR shapes, so everything downstream must agree.
//!
//! [`mixed_app`] additionally builds one workspace where the languages
//! include each other — a PHP page pulling in a template partial and a
//! template page pulling in a PHP helper — exercising cross-language
//! dataflow through the shared environment, `SummaryCache` sharing,
//! and the daemon's per-extension frontend dispatch.

use strtaint_analysis::Vfs;

/// One program expressed in both frontends, with its ground truth.
#[derive(Debug, Clone, Copy)]
pub struct Pair {
    /// Short name (test labels).
    pub name: &'static str,
    /// The PHP member's entry path in [`vfs`].
    pub php_entry: &'static str,
    /// The template member's entry path in [`vfs`].
    pub tpl_entry: &'static str,
    /// Policy that must be enabled to see the sink (`"xss"` runs the
    /// XSS checker path).
    pub policy: &'static str,
    /// `true`: both members must report ≥1 finding with rule [`Self::rule`].
    /// `false`: both members must verify with zero findings.
    pub vulnerable: bool,
    /// Expected SARIF rule id for vulnerable pairs (`""` otherwise).
    pub rule: &'static str,
}

/// The paired pages and their expected outcomes: one vulnerable and
/// one sanitized pair per policy class (sql, xss, shell, path, eval).
pub fn pairs() -> Vec<Pair> {
    vec![
        Pair {
            name: "sql_vuln",
            php_entry: "sql_vuln.php",
            tpl_entry: "sql_vuln.tpl",
            policy: "sql",
            vulnerable: true,
            rule: "strtaint/odd-quotes",
        },
        Pair {
            name: "sql_safe",
            php_entry: "sql_safe.php",
            tpl_entry: "sql_safe.tpl",
            policy: "sql",
            vulnerable: false,
            rule: "",
        },
        Pair {
            name: "xss_vuln",
            php_entry: "xss_vuln.php",
            tpl_entry: "xss_vuln.tpl",
            policy: "xss",
            vulnerable: true,
            rule: "strtaint/not-derivable",
        },
        Pair {
            name: "xss_safe",
            php_entry: "xss_safe.php",
            tpl_entry: "xss_safe.tpl",
            policy: "xss",
            vulnerable: false,
            rule: "",
        },
        Pair {
            name: "shell_vuln",
            php_entry: "shell_vuln.php",
            tpl_entry: "shell_vuln.tpl",
            policy: "shell",
            vulnerable: true,
            rule: "strtaint/shell-metachar",
        },
        Pair {
            name: "shell_safe",
            php_entry: "shell_safe.php",
            tpl_entry: "shell_safe.tpl",
            policy: "shell",
            vulnerable: false,
            rule: "",
        },
        Pair {
            name: "path_vuln",
            php_entry: "path_vuln.php",
            tpl_entry: "path_vuln.tpl",
            policy: "path",
            vulnerable: true,
            rule: "strtaint/path-traversal",
        },
        Pair {
            name: "path_safe",
            php_entry: "path_safe.php",
            tpl_entry: "path_safe.tpl",
            policy: "path",
            vulnerable: false,
            rule: "",
        },
        Pair {
            name: "eval_vuln",
            php_entry: "eval_vuln.php",
            tpl_entry: "eval_vuln.tpl",
            policy: "eval",
            vulnerable: true,
            rule: "strtaint/code-injection",
        },
        Pair {
            name: "eval_safe",
            php_entry: "eval_safe.php",
            tpl_entry: "eval_safe.tpl",
            policy: "eval",
            vulnerable: false,
            rule: "",
        },
    ]
}

/// The project tree holding every paired page (both languages side by
/// side — a real mixed-language workspace).
pub fn vfs() -> Vfs {
    let mut vfs = Vfs::new();

    // SQL: the canonical quoted-id injection, and the anchored
    // whitelist that confines it.
    vfs.add(
        "sql_vuln.php",
        r#"<?php
$id = $_GET['id'];
$r = $DB->query("SELECT * FROM t WHERE id='" . $id . "'");
"#,
    );
    vfs.add(
        "sql_vuln.tpl",
        r#"{% var id = req.query.id %}
{% db.query("SELECT * FROM t WHERE id='" + id + "'") %}
"#,
    );
    vfs.add(
        "sql_safe.php",
        r#"<?php
$id = $_GET['id'];
if (!preg_match('/^[0-9]+$/', $id)) {
    exit;
}
$r = $DB->query("SELECT * FROM t WHERE id='" . $id . "'");
"#,
    );
    vfs.add(
        "sql_safe.tpl",
        r#"{% var id = req.query.id %}
{% if !matches("/^[0-9]+$/", id) %}{% exit %}{% end %}
{% db.query("SELECT * FROM t WHERE id='" + id + "'") %}
"#,
    );

    // XSS: raw reflection vs the HTML-escaped variant.
    vfs.add(
        "xss_vuln.php",
        r#"<?php
echo $_GET['name'];
"#,
    );
    vfs.add("xss_vuln.tpl", "{{ req.query.name }}\n");
    vfs.add(
        "xss_safe.php",
        r#"<?php
echo htmlspecialchars($_GET['name']);
"#,
    );
    vfs.add("xss_safe.tpl", "{{ escapeHtml(req.query.name) }}\n");

    // Shell: a thumbnail converter building a command line.
    vfs.add(
        "shell_vuln.php",
        r#"<?php
$f = $_GET['f'];
system("convert thumb/" . $f . " out.png");
"#,
    );
    vfs.add(
        "shell_vuln.tpl",
        r#"{% var f = req.query.f %}
{% system("convert thumb/" + f + " out.png") %}
"#,
    );
    vfs.add(
        "shell_safe.php",
        r#"<?php
$f = $_GET['f'];
if (!preg_match('/^[a-zA-Z0-9_]+$/', $f)) {
    exit;
}
system("convert thumb/" . $f . " out.png");
"#,
    );
    vfs.add(
        "shell_safe.tpl",
        r#"{% var f = req.query.f %}
{% if !matches("/^[a-zA-Z0-9_]+$/", f) %}{% exit %}{% end %}
{% system("convert thumb/" + f + " out.png") %}
"#,
    );

    // Path: a page dispatcher including a request-named file. Each
    // language dispatches to partials of its own extension, with one
    // layout target so the whitelisted variant resolves.
    vfs.add(
        "path_vuln.php",
        r#"<?php
include('pages/' . $_GET['page'] . '.php');
"#,
    );
    vfs.add(
        "path_vuln.tpl",
        "{% include \"pages/\" + req.query.page + \".tpl\" %}\n",
    );
    vfs.add(
        "path_safe.php",
        r#"<?php
$page = $_GET['page'];
if (!preg_match('/^[a-z]+$/', $page)) {
    exit;
}
include('pages/' . $page . '.php');
"#,
    );
    vfs.add(
        "path_safe.tpl",
        r#"{% var page = req.query.page %}
{% if !matches("/^[a-z]+$/", page) %}{% exit %}{% end %}
{% include "pages/" + page + ".tpl" %}
"#,
    );
    vfs.add("pages/home.php", "<?php echo \"home\";\n");
    vfs.add("pages/home.tpl", "home\n");

    // Eval: a calculator evaluating a request-supplied expression.
    vfs.add(
        "eval_vuln.php",
        r#"<?php
eval('$result = ' . $_GET['op'] . ';');
"#,
    );
    vfs.add(
        "eval_vuln.tpl",
        "{% eval(\"result = \" + req.query.op + \";\") %}\n",
    );
    vfs.add(
        "eval_safe.php",
        r#"<?php
$op = $_GET['op'];
if (!preg_match('/^[0-9]+$/', $op)) {
    exit;
}
eval('$result = ' . $op . ';');
"#,
    );
    vfs.add(
        "eval_safe.tpl",
        r#"{% var op = req.query.op %}
{% if !matches("/^[0-9]+$/", op) %}{% exit %}{% end %}
{% eval("result = " + op + ";") %}
"#,
    );

    vfs
}

/// A mixed-language app: a PHP page including a template partial, a
/// template page including a PHP helper, a second PHP page sharing
/// the same template partial (so a shared `SummaryCache` lowers the
/// partial once for both pages), and one pure-PHP page with no
/// template dependencies (the control for frontend-flip invalidation:
/// it must keep replaying when only the template frontend changes).
///
/// Dataflow deliberately crosses the language boundary: the PHP pages
/// read `$_GET['id']` into `$id`, and the *template* partial sinks it
/// (`db.query(... + id + ...)`) — both frontends canonicalize to the
/// same environment key space, so taint flows through unchanged.
pub fn mixed_app() -> (Vfs, Vec<&'static str>) {
    let mut vfs = Vfs::new();
    vfs.add(
        "index.php",
        r#"<?php
$id = $_GET['id'];
include('partial.tpl');
"#,
    );
    vfs.add(
        "index2.php",
        r#"<?php
$id = $_GET['id'];
if (!preg_match('/^[0-9]+$/', $id)) {
    exit;
}
include('partial.tpl');
"#,
    );
    vfs.add(
        "partial.tpl",
        "{% db.query(\"SELECT * FROM t WHERE id='\" + id + \"'\") %}\n",
    );
    vfs.add(
        "page.tpl",
        r#"{% var q = req.query.q %}
{% include "helper.php" %}
"#,
    );
    vfs.add(
        "helper.php",
        r#"<?php
$r = $DB->query("SELECT * FROM t WHERE q='" . $q . "'");
"#,
    );
    vfs.add(
        "about.php",
        r#"<?php
$r = $DB->query("SELECT version FROM meta");
"#,
    );
    (vfs, vec!["index.php", "index2.php", "page.tpl", "about.php"])
}
