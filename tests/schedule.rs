//! The prepared engine's discovery schedule, pinned end to end on the
//! Tiger replica (the paper's worst case, §5.3). The two queries on the
//! critical path of `forum.php` are non-empty and stop early; where
//! they stop (triples realized, fuel drawn) is a function of the
//! worklist order alone, so any change to the kernel's storage must
//! leave these numbers exactly as they are. Fuel trip points, query-
//! cache replay charges and `--stats` counters all hang off them.

use strtaint::{analyze_pages, CheckOptions, Config, Evidence, PolicyChecker, SummaryCache};
use strtaint_analysis::analyze;
use strtaint_automata::ClassDfa;
use strtaint_checker::abstraction::maximal_labeled;
use strtaint_corpus::apps;
use strtaint_grammar::{Budget, EngineStats, PreparedGrammar, QueryMode};

fn sql_only() -> Config {
    Config {
        policies: vec!["sql".to_owned()],
        ..Config::default()
    }
}

/// The candidate whose C3 and C1 queries dominate `forum.php`'s check.
const CANDIDATE: &str = "fetch:->fetch_array↦↦↦";

#[test]
fn tiger_forum_queries_stop_where_pinned() {
    let app = apps::tiger::build();
    let a = analyze(&app.vfs, "forum.php", &sql_only()).expect("forum.php analyzes");
    let x = a
        .hotspots
        .iter()
        .flat_map(|h| maximal_labeled(&a.cfg, h.root))
        .find(|&x| a.cfg.name(x) == CANDIDATE)
        .expect("the candidate is labeled under a hotspot");
    let prep = PreparedGrammar::new(&a.cfg, x);
    assert_eq!(prep.num_nonterminals(), 307_057);

    // The sql cascade runs C3, then C1 (see `sql_cascade`).
    let sql = strtaint::policy::builtin()
        .into_iter()
        .find(|p| p.id == "sql")
        .expect("the sql policy is built in");
    let steps = (sql.cascade)().steps;
    let budget = Budget::unlimited();
    for (check, step, want) in [("C3", 0, (62_750, 171_348)), ("C1", 1, (204_937, 562_741))] {
        assert_eq!(steps[step].span, Some(format!("check:{check}").as_str()));
        let dfa = ClassDfa::new(&steps[step].dfa);
        let ix = prep
            .query(&dfa, &budget, QueryMode::EarlyExit)
            .expect("an unlimited budget cannot trip");
        assert!(!ix.is_empty() && ix.exited_early(), "{check}");
        assert_eq!((ix.triples(), ix.charged()), want, "{check}");
    }
}

#[test]
fn tiger_engine_stats_repeat() {
    let app = apps::tiger::build();
    let run = || -> EngineStats {
        let checker = PolicyChecker::with_options(CheckOptions::default());
        let pages = analyze_pages(
            &app.vfs,
            &app.entry_refs(),
            &sql_only(),
            &checker,
            &SummaryCache::new(),
            Evidence::Verdicts,
        );
        let mut stats = EngineStats::default();
        for page in pages {
            stats.merge(&page.expect("every Tiger page analyzes").engine_stats());
        }
        stats
    };
    let first = run();
    assert_eq!(
        (first.queries, first.realized_triples),
        (19, 268_353),
        "{first:?}"
    );
    assert_eq!(first, run());
}
