//! End-to-end cross-site-scripting analysis (the paper's §7 future
//! work, built on the same grammar machinery).

use strtaint::{analyze_page, Config, Vfs};

fn xss_config() -> Config {
    Config {
        policies: vec![strtaint::policy::XSS_POLICY.to_owned()],
        ..Config::default()
    }
}

fn xss(src: &str) -> strtaint::PageReport {
    let mut vfs = Vfs::new();
    vfs.add("p.php", src);
    analyze_page(&vfs, "p.php", &xss_config()).unwrap()
}

#[test]
fn reflected_xss_reported() {
    let r = xss(
        r#"<?php
$name = $_GET['name'];
echo "<p>Hello, $name!</p>";
"#,
    );
    assert!(!r.is_verified(), "{r}");
    let (_, f) = r.findings().next().unwrap();
    assert!(f.taint.is_direct());
    assert!(f.detail.contains("XSS"));
}

#[test]
fn htmlspecialchars_verifies() {
    let r = xss(
        r#"<?php
$name = htmlspecialchars($_GET['name']);
echo "<p>Hello, $name!</p>";
"#,
    );
    assert!(r.is_verified(), "{r}");
}

#[test]
fn attribute_breakout_reported() {
    // htmlspecialchars (pre-5.4 default) escapes `"` so double-quoted
    // attributes are safe — but single-quoted attributes are not,
    // because `'` passes through. The checker distinguishes contexts.
    let safe = xss(
        r#"<?php
$u = htmlspecialchars($_GET['u']);
echo "<a href=\"profile.php?u=$u\">profile</a>";
"#,
    );
    assert!(safe.is_verified(), "{safe}");

    let unsafe_attr = xss(
        r#"<?php
$u = htmlspecialchars($_GET['u']);
echo "<a href='profile.php?u=$u'>profile</a>";
"#,
    );
    assert!(
        !unsafe_attr.is_verified(),
        "single-quoted attribute + htmlspecialchars default flags is exploitable"
    );
}

#[test]
fn stored_xss_is_indirect() {
    let r = xss(
        r#"<?php
$res = $DB->query("SELECT * FROM comments");
$row = $DB->fetch_array($res);
$c = $row['body'];
echo "<div>$c</div>";
"#,
    );
    assert!(!r.is_verified());
    let (_, f) = r.findings().next().unwrap();
    assert!(f.taint.is_indirect(), "stored XSS carries the indirect label");
}

#[test]
fn numeric_output_verifies() {
    let r = xss(
        r#"<?php
$n = intval($_GET['page']);
echo "<span>page $n</span>";
"#,
    );
    assert!(r.is_verified(), "{r}");
}

#[test]
fn strip_tags_in_text_context_verifies() {
    let r = xss(
        r#"<?php
$c = strip_tags($_POST['comment']);
echo "<p>$c</p>";
"#,
    );
    assert!(r.is_verified(), "strip_tags removes all angle brackets: {r}");
}

#[test]
fn sql_and_xss_reports_are_independent() {
    // A page that is SQL-safe but XSS-unsafe.
    let src = r#"<?php
$id = intval($_GET['id']);
$r = $DB->query("SELECT * FROM t WHERE id=$id");
echo "<p>Results for " . $_GET['q'] . "</p>";
"#;
    let mut vfs = Vfs::new();
    vfs.add("p.php", src);
    let sql = analyze_page(&vfs, "p.php", &Config::default()).unwrap();
    assert!(sql.is_verified(), "SQL side is safe");
    let xss_report = analyze_page(&vfs, "p.php", &xss_config()).unwrap();
    assert!(!xss_report.is_verified(), "XSS side is not");
}
