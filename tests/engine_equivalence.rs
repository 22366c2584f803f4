//! Engine equivalence on the corpus, at the query level. Production
//! code answers every CFG∩DFA question with the prepared engine
//! (`strtaint_grammar::prepared`); the naive Bar-Hillel construction
//! (`strtaint_grammar::intersect`) is kept only as the reference model
//! it is checked against here.
//!
//! For every sink of a corpus app (echo sinks included), every maximal
//! labeled nonterminal `X` and the marker-only marked grammar of `X`
//! are intersected with every automaton any cascade asks about — every
//! registry step's automaton, gate and derivability automata (the SQL
//! C1–C5 and XSS context and containment automata among them) and the
//! C5 lexeme languages. Both
//! engines must draw the same fuel, agree on emptiness and give the
//! same canonical witness bytes. Equal fuel is what lets refinement
//! and include resolution trip at the same point on either engine; the
//! cascades are shared code, so equal query answers mean equal
//! verdicts. The checker-level comparison below only pins that the
//! parallel hotspot driver agrees with the serial one.

use std::borrow::Cow;
use std::collections::{HashMap, HashSet};
use std::sync::atomic::{AtomicUsize, Ordering::Relaxed};

use strtaint::{CheckOptions, Evidence, PolicyChecker};
use strtaint_analysis::{analyze, Config};
use strtaint_automata::{ClassDfa, Dfa};
use strtaint_checker::abstraction::{marked_grammar, maximal_labeled};
use strtaint_checker::HotspotReport;
use strtaint_corpus::{apps, synth::synth_app, synth::SynthConfig, App};
use strtaint_grammar::intersect::{intersect, is_intersection_empty_with};
use strtaint_grammar::lang::shortest_string;
use strtaint_grammar::{Budget, Cfg, NtId, PreparedGrammar, QueryMode};
use strtaint_policy::StepAction;
use strtaint_sql::derive::lexeme_dfa;
use strtaint_sql::TokenKind;

/// One cascade automaton in the form each engine takes.
struct Automaton {
    name: String,
    raw: Dfa,
    classes: ClassDfa,
}

/// Every automaton a cascade intersects a labeled or marked grammar
/// with.
fn cascade_automata() -> Vec<Automaton> {
    let mut named: Vec<(String, Dfa)> = Vec::new();
    for policy in strtaint_policy::builtin() {
        for (i, step) in (policy.cascade)().steps.into_iter().enumerate() {
            let name = |what: &str| format!("{}/step{i}{what}", policy.id);
            if let Some(gate) = step.gate {
                named.push((name(" gate"), gate.dfa));
            }
            if let StepAction::Derivable { backquote, keywords } = step.action {
                named.push((name(" backquote"), backquote));
                named.push((name(" keywords"), keywords));
            }
            named.push((name(""), step.dfa));
        }
    }
    for kind in [TokenKind::NumberLit, TokenKind::StringLit, TokenKind::Ident] {
        named.push((
            format!("sql/lexeme {kind:?}"),
            lexeme_dfa(kind).complement(),
        ));
    }
    named
        .into_iter()
        .map(|(name, raw)| Automaton {
            classes: ClassDfa::new(&raw),
            name,
            raw,
        })
        .collect()
}

/// The checker's witness-reconstruction guard: it extracts no witness
/// from a grammar with more reachable productions than this.
const WITNESS_BUDGET: usize = 50_000;

/// Fuel each engine gets per query. Both engines charge one unit per
/// discovery attempt and per worklist pop, so under equal budgets they
/// must complete or trip together, having drawn the same fuel. The cap
/// keeps the reference engine's full fixpoint small: the largest
/// synth queries realize tens of millions of triples.
const FUEL_CAP: u64 = 2_000_000;

/// Asks both engines every question about `L(g, root) ∩ L(D)` under
/// equal fuel, and asserts that they trip together, draw the same
/// fuel, agree on emptiness and, within the checker's witness guard,
/// give identical canonical witness bytes.
fn assert_queries_agree(g: &Cfg, root: NtId, automata: &[Automaton], what: &str) {
    let prep = PreparedGrammar::new(g, root);
    let capped = || Budget::new(None, Some(FUEL_CAP), None);
    let witnesses = g.count_reachable_productions(root, WITNESS_BUDGET) <= WITNESS_BUDGET;
    for a in automata {
        let (naive_budget, prepared_budget) = (capped(), capped());
        let naive = is_intersection_empty_with(g, root, &a.raw, &naive_budget);
        let full = prep
            .query(&a.classes, &prepared_budget, QueryMode::Full)
            .map(|ix| ix.is_empty());
        assert_eq!(
            full.is_ok(),
            naive.is_ok(),
            "{what} ∩ {}: only one engine ran out of fuel",
            a.name
        );
        assert_eq!(
            prepared_budget.fuel_left(),
            naive_budget.fuel_left(),
            "{what} ∩ {}: prepared vs naive fuel drawn differ",
            a.name
        );
        let (Ok(naive_empty), Ok(full_empty)) = (naive, full) else {
            continue; // both tripped at the same charge
        };
        // The production path: an early-exit query, resumed for the
        // witness. It never needs more fuel than the full fixpoint.
        let early = capped();
        let mut ix = prep
            .query(&a.classes, &early, QueryMode::EarlyExit)
            .expect("the early-exit run charges at most the full run");
        assert_eq!(
            (full_empty, ix.is_empty()),
            (naive_empty, naive_empty),
            "{what} ∩ {}: prepared vs naive emptiness differ",
            a.name
        );
        if naive_empty || !witnesses {
            continue;
        }
        let prepared = ix
            .witness(&Budget::unlimited())
            .expect("an unlimited budget cannot trip");
        let (product, product_root) = intersect(g, root, &a.raw);
        assert_eq!(
            prepared,
            shortest_string(&product, product_root),
            "{what} ∩ {}: prepared vs naive witness bytes differ",
            a.name
        );
    }
}

/// A comparable verdict for one hotspot: safety, counts, and every
/// finding's identity including witness bytes (canonical, so
/// deterministic).
#[derive(Debug, PartialEq, Eq)]
struct Verdict {
    safe: bool,
    checked: usize,
    verified: usize,
    findings: Vec<(String, String, Option<Vec<u8>>)>, // (kind, source name, witness)
}

fn verdict(r: &HotspotReport) -> Verdict {
    let mut findings: Vec<_> = r
        .findings
        .iter()
        .map(|f| (format!("{:?}", f.kind), f.name.clone(), f.witness.clone()))
        .collect();
    findings.sort();
    Verdict {
        safe: r.is_safe(),
        checked: r.checked,
        verified: r.verified,
        findings,
    }
}

/// Runs the query-level differential over every sink of `app` (every
/// policy enabled, so SQL, echo, shell, path and eval sinks all
/// contribute), then checks that the parallel driver reproduces the
/// serial verdicts. Content-identical grammars are compared once; a
/// page's comparisons run on two threads, largest grammar first.
fn assert_engines_agree(app: &App) {
    let config = Config {
        policies: strtaint_policy::builtin()
            .iter()
            .map(|p| p.id.to_owned())
            .collect(),
        ..Config::default()
    };
    let automata = cascade_automata();
    let checker = PolicyChecker::with_options(CheckOptions::default());
    let budget = Budget::unlimited();
    let mut seen: HashSet<(u64, u64)> = HashSet::new();
    let mut compared = 0usize;
    for entry in app.entry_refs() {
        let Ok(analysis) = analyze(&app.vfs, entry, &config) else {
            continue; // skipped pages have no sinks to compare
        };
        let cfg = &analysis.cfg;
        let sites: Vec<_> = analysis
            .hotspots
            .iter()
            .chain(&analysis.echo_sinks)
            .collect();

        // One job per distinct grammar: every labeled X and its marked
        // grammar, sized by reachable productions.
        let mut jobs: Vec<(usize, Cow<'_, Cfg>, NtId, String)> = Vec::new();
        for (i, h) in sites.iter().enumerate() {
            for x in maximal_labeled(cfg, h.root) {
                let (marked, mroot) = marked_grammar(cfg, h.root, x, &HashMap::new());
                let what =
                    |kind| format!("{}: {entry}: sink {i}: {kind} {}", app.name, cfg.name(x));
                for (g, r, what) in [
                    (Cow::Borrowed(cfg), x, what("X")),
                    (Cow::Owned(marked), mroot, what("marked X")),
                ] {
                    if seen.insert(PreparedGrammar::new(&g, r).fingerprint()) {
                        let size = g.count_reachable_productions(r, usize::MAX - 1);
                        jobs.push((size, g, r, what));
                    }
                }
            }
        }
        compared += jobs.len();
        jobs.sort_by_key(|job| std::cmp::Reverse(job.0));
        let next = AtomicUsize::new(0);
        std::thread::scope(|scope| {
            let workers: Vec<_> = (0..2)
                .map(|_| {
                    scope.spawn(|| {
                        while let Some((_, g, r, what)) = jobs.get(next.fetch_add(1, Relaxed)) {
                            assert_queries_agree(g, *r, &automata, what);
                        }
                    })
                })
                .collect();
            for w in workers {
                if let Err(panic) = w.join() {
                    std::panic::resume_unwind(panic);
                }
            }
        });

        let items: Vec<_> = sites.iter().map(|h| (h.root, h.policy.clone())).collect();
        let serial: Vec<_> = items
            .iter()
            .map(|(r, p)| checker.check_hotspot_cached(p, cfg, *r, &budget))
            .collect();
        let parallel = checker.check_hotspots_with(cfg, &items, &budget, 4, Evidence::Verdicts);
        assert_eq!(parallel.len(), items.len());
        for (i, (s, p)) in serial.iter().zip(&parallel).enumerate() {
            assert_eq!(
                verdict(s),
                verdict(p),
                "{}: {entry}: sink {i}: serial vs parallel verdicts differ",
                app.name
            );
        }
    }
    assert!(compared > 0, "{}: no labeled grammar to compare", app.name);
}

#[test]
fn eve_verdicts_identical_across_engines() {
    assert_engines_agree(&apps::eve::build());
}

#[test]
fn utopia_verdicts_identical_across_engines() {
    assert_engines_agree(&apps::utopia::build());
}

#[test]
fn synth_verdicts_identical_across_engines() {
    let app = synth_app(&SynthConfig {
        pages: 6,
        replace_chain: 2,
        ..SynthConfig::default()
    });
    assert_engines_agree(&app);
}
