//! Audit a corpus application (or your own PHP tree) and print a full
//! report with witnesses.
//!
//! ```text
//! cargo run --release --example audit_app -- utopia      # corpus app
//! cargo run --release --example audit_app -- /path/to/php/project index.php
//! cargo run --release --example audit_app -- --policy xss utopia
//! ```

use strtaint::{analyze_app, Config, Vfs};

fn main() {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    let mut config = Config::default();
    if let Some(i) = args.iter().position(|a| a == "--policy") {
        let spec = args.get(i + 1).cloned().unwrap_or_default();
        config.policies = strtaint::policy::parse_selection(&spec).unwrap_or_else(|e| {
            eprintln!("--policy: {e}");
            std::process::exit(2);
        });
        args.drain(i..(i + 2).min(args.len()));
    }
    let (name, vfs, entries): (String, Vfs, Vec<String>) = match args.as_slice() {
        [app] if !app.contains('/') => {
            let app = match app.as_str() {
                "e107" => strtaint_corpus::apps::e107::build(),
                "eve" => strtaint_corpus::apps::eve::build(),
                "tiger" => strtaint_corpus::apps::tiger::build(),
                "utopia" => strtaint_corpus::apps::utopia::build(),
                "warp" => strtaint_corpus::apps::warp::build(),
                other => {
                    eprintln!("unknown corpus app {other:?} (e107|eve|tiger|utopia|warp)");
                    std::process::exit(2);
                }
            };
            (app.name.to_owned(), app.vfs, app.entries)
        }
        [dir, entry] => {
            let vfs = Vfs::from_dir(std::path::Path::new(dir)).expect("readable directory");
            (dir.clone(), vfs, vec![entry.clone()])
        }
        _ => {
            eprintln!("usage: audit_app [--policy LIST] <corpus-app> | <dir> <entry.php>");
            std::process::exit(2);
        }
    };

    let entry_refs: Vec<&str> = entries.iter().map(String::as_str).collect();
    let report = analyze_app(&name, &vfs, &entry_refs, &config);
    println!("{report}");
    for page in &report.pages {
        if page.is_verified() && page.warnings.is_empty() {
            continue;
        }
        print!("{page}");
        for w in &page.warnings {
            println!("  warning: {w}");
        }
    }
    println!("\n=== distinct findings ===");
    for (h, f) in report.distinct_findings() {
        println!("{}:{} {} :: {}", h.file, h.span, h.label, f);
    }
}
