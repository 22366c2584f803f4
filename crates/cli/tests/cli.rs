//! Process-level tests of the `strtaint` binary's error contract.

use std::path::PathBuf;
use std::process::Command;

/// A fresh tree of four entries in which the second and fourth fail to
/// parse.
fn tree(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("strtaint-cli-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("temp dir");
    let ok = "<?php\n$r = $DB->query(\"SELECT 1\");\n";
    for (name, src) in [
        ("p1.php", ok),
        ("p2.php", "<?php\n$x = ;\n"),
        ("p3.php", ok),
        ("p4.php", "<?php\nfunction (\n"),
    ] {
        std::fs::write(dir.join(name), src).expect("write entry");
    }
    dir
}

#[test]
fn parse_error_reports_first_failing_entry_and_writes_no_output() {
    // Pages run in parallel, but the contract is the serial loop's: the
    // first failing entry in entry order, exit 2, nothing on stdout.
    let dir = tree("parse-error");
    for args in [&[][..], &["--json"], &["--sarif"], &["--stats"]] {
        let out = Command::new(env!("CARGO_BIN_EXE_strtaint"))
            .args(args)
            .arg(&dir)
            .args(["p1.php", "p2.php", "p3.php", "p4.php"])
            .output()
            .expect("run strtaint");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
        assert!(out.stdout.is_empty(), "{args:?}: stdout must stay empty");
        assert!(stderr.starts_with("p2.php: "), "{args:?}: {stderr}");
        assert!(!stderr.contains("p4.php"), "{args:?}: {stderr}");
    }
    let out = Command::new(env!("CARGO_BIN_EXE_strtaint"))
        .arg("profile")
        .arg(&dir)
        .args(["p1.php", "p2.php", "p3.php", "p4.php"])
        .output()
        .expect("run strtaint profile");
    assert_eq!(out.status.code(), Some(2));
    assert!(out.stdout.is_empty());
    assert!(String::from_utf8_lossy(&out.stderr).starts_with("p2.php: "));
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn fix_names_the_first_failing_entry() {
    // `fix` analyzes through the same page driver and reports a parse
    // error the same way: entry first, exit 2, nothing on stdout.
    let dir = tree("fix-error");
    for args in [&["fix"][..], &["fix", "--sarif"]] {
        let out = Command::new(env!("CARGO_BIN_EXE_strtaint"))
            .args(args)
            .arg(&dir)
            .args(["p1.php", "p2.php", "p3.php", "p4.php"])
            .output()
            .expect("run strtaint fix");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
        assert!(out.stdout.is_empty(), "{args:?}: stdout must stay empty");
        assert!(stderr.starts_with("p2.php: "), "{args:?}: {stderr}");
        assert!(!stderr.contains("p4.php"), "{args:?}: {stderr}");
    }
    let _ = std::fs::remove_dir_all(&dir);
}
