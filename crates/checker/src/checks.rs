//! Checker options, and the derivability step of the SQL cascade
//! (paper §3.2.2).
//!
//! The `sql` policy's C1–C5 checks are registry data
//! (`strtaint_policy::builtin`), run by the one step interpreter in
//! [`crate::policy_driver`]; the first four are plain or gated
//! intersection queries. C5 is code: enumerate the query contexts with
//! `X` held by a marker; for each context find a SQL grammar symbol
//! the marker can stand for (sentential-form Earley) whose lexeme
//! language contains `L(X)`. Anything inconclusive → report
//! (soundness, Theorem 3.4).

use std::collections::HashMap;

use strtaint_automata::Dfa;
use strtaint_grammar::budget::{Budget, BudgetExceeded};
use strtaint_grammar::lang::{bounded_language, shortest_string};
use strtaint_grammar::{Cfg, NtId};
use strtaint_sql::derive::{context_candidates_with, lexeme_dfa};
use strtaint_sql::{lex_form, SqlGrammar, TokenKind, VarPosition};

use crate::abstraction::marked_grammar;
use crate::engine::{Engine, Qdfa, Target};
use crate::report::{CheckKind, Finding};

/// Maximum number of query context strings enumerated for the
/// derivability check (C5) before reporting `Unresolved`.
const MAX_CONTEXTS: usize = 256;

/// Tunables for the conformance checker.
#[derive(Debug, Clone)]
pub struct CheckOptions {
    /// Memoize intersection verdicts across hotspots and pages (the
    /// cross-page verdict cache; see the `qcache` module). Replay is
    /// observationally identical to recomputation — same verdicts,
    /// same canonical witness bytes, same fuel charges. Off recomputes
    /// every query on the prepared engine; the baseline for benches
    /// and the cache-parity tests. It controls the verdict cache only:
    /// prepared grammars and skeletons are always shared through the
    /// content-keyed preparation memo.
    pub query_cache: bool,
    /// Never replay witness bytes from the query cache: queries that
    /// extract a witness bypass memoization and run live. Queries that
    /// extract none still memoize.
    pub eager_witness: bool,
}

impl Default for CheckOptions {
    fn default() -> Self {
        CheckOptions {
            query_cache: true,
            eager_witness: false,
        }
    }
}

/// The C5 step compiled for the engine: the reference SQL grammar and
/// the automata `L(X)` must avoid in string-literal, backquoted and
/// identifier contexts (see `strtaint_policy::StepAction::Derivable`).
#[derive(Debug, Clone)]
pub(crate) struct Derivable {
    sql: SqlGrammar,
    has_quote: Qdfa,
    backquote: Qdfa,
    keywords: Qdfa,
}

impl Derivable {
    pub(crate) fn new(has_quote: Qdfa, backquote: Dfa, keywords: Dfa) -> Self {
        Derivable {
            sql: SqlGrammar::standard(),
            has_quote,
            backquote: Qdfa::new(backquote),
            keywords: Qdfa::new(keywords),
        }
    }

    /// Runs C5 on the labeled nonterminal `x` of the engine's hotspot,
    /// whose prepared `L(X)` is `tx`. Decides: a finding, or verified.
    pub(crate) fn check(
        &self,
        cfg: &Cfg,
        x: NtId,
        tx: &mut Target,
        budget: &Budget,
        engine: &mut Engine<'_>,
    ) -> Result<Option<Finding>, BudgetExceeded> {
        let finding = |engine: &Engine<'_>, kind, witness, detail: String| {
            Ok(Some(engine.finding(cfg, x, kind, witness, detail)))
        };
        // C5: derivability in context. Sibling tainted subgrammars are
        // spliced as representative strings (computed lazily — only
        // hotspots that reach C5 pay for them).
        let mut replacements: HashMap<NtId, Vec<u8>> = HashMap::new();
        for &y in engine.candidates() {
            if y != x {
                let sample = shortest_string(cfg, y).unwrap_or_else(|| b"1".to_vec());
                replacements.insert(y, sample);
            }
        }
        let (marked, mroot) = marked_grammar(cfg, engine.root(), x, &replacements);
        let Some(contexts) = bounded_language(&marked, mroot, MAX_CONTEXTS) else {
            return finding(
                engine,
                CheckKind::Unresolved,
                shortest_string(cfg, x),
                "query contexts are unbounded".into(),
            );
        };
        // Subset checks for L(X), computed lazily once per token kind.
        let mut fits: HashMap<TokenKind, bool> = HashMap::new();
        for ctx in &contexts {
            let Ok(form) = lex_form(ctx) else {
                return finding(
                    engine,
                    CheckKind::NotDerivable,
                    Some(ctx.clone()),
                    "query context does not lex as SQL".into(),
                );
            };
            if form.vars.is_empty() {
                continue; // X erased in this derivation
            }
            if form.vars.iter().any(|v| *v == VarPosition::Glued) {
                let kind = CheckKind::GluedContext;
                return finding(engine, kind, Some(ctx.clone()), String::new());
            }
            if form.vars.iter().any(|v| *v == VarPosition::InString) {
                // Inside a literal in this context: no unescaped quotes.
                if !engine.query(tx, &self.has_quote, budget, false)?.0 {
                    return finding(
                        engine,
                        CheckKind::EscapesLiteral,
                        shortest_string(cfg, x),
                        "string-literal context".into(),
                    );
                }
            }
            if form.vars.iter().any(|v| *v == VarPosition::InBackquotes)
                && !engine.query(tx, &self.backquote, budget, false)?.0
            {
                return finding(
                    engine,
                    CheckKind::EscapesLiteral,
                    shortest_string(cfg, x),
                    "backquoted-identifier context".into(),
                );
            }
            if form.vars.iter().any(|v| *v == VarPosition::Bare) {
                let candidates = context_candidates_with(&self.sql, &form, budget)?;
                let mut ok = false;
                for &k in &candidates {
                    let v = match fits.get(&k) {
                        Some(&v) => v,
                        None => {
                            let lex = Qdfa::new(lexeme_dfa(k).complement());
                            let mut v = engine.query(tx, &lex, budget, false)?.0;
                            if v && k == TokenKind::Ident
                                && !engine.query(tx, &self.keywords, budget, false)?.0
                            {
                                v = false;
                            }
                            fits.insert(k, v);
                            v
                        }
                    };
                    if v {
                        ok = true;
                        break;
                    }
                }
                if !ok {
                    return finding(
                        engine,
                        CheckKind::NotDerivable,
                        shortest_string(cfg, x),
                        format!(
                            "context {:?} admits {:?}",
                            String::from_utf8_lossy(ctx),
                            candidates
                        ),
                    );
                }
            }
        }
        Ok(None)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Checker;
    use strtaint_grammar::{Symbol, Taint};

    /// Builds `query -> "SELECT * FROM t WHERE id=" pre X post`.
    fn harness(pre: &[u8], x_strings: &[&[u8]], post: &[u8]) -> (Cfg, NtId, NtId) {
        let mut g = Cfg::new();
        let x = g.add_nonterminal("_GET[id]");
        g.set_taint(x, Taint::DIRECT);
        for s in x_strings {
            g.add_literal_production(x, s);
        }
        let root = g.add_nonterminal("query");
        let mut rhs = g.literal_symbols(b"SELECT * FROM t WHERE id=");
        rhs.extend(g.literal_symbols(pre));
        rhs.push(Symbol::N(x));
        rhs.extend(g.literal_symbols(post));
        g.add_production(root, rhs);
        (g, root, x)
    }

    #[test]
    fn c1_fires_on_odd_quotes() {
        let (g, root, _) = harness(b"'", &[b"1", b"1'; DROP TABLE t; --"], b"'");
        let c = Checker::new();
        let r = c.check_hotspot(&g, root);
        assert_eq!(r.findings.len(), 1);
        assert_eq!(r.findings[0].kind, CheckKind::OddQuotes);
        assert!(r.findings[0].witness.is_some());
        assert!(r.findings[0].taint.is_direct());
    }

    #[test]
    fn quoted_numeric_verifies() {
        let (g, root, _) = harness(b"'", &[b"1", b"42", b"007"], b"'");
        let c = Checker::new();
        let r = c.check_hotspot(&g, root);
        assert!(r.is_safe(), "{r}");
        assert_eq!(r.verified, 1);
    }

    #[test]
    fn c2_catches_escaped_literal_breakout() {
        // X always inside quotes and with an even number of unescaped
        // quotes (so C1 passes), but the quotes are lone — the classic
        // `' OR '` literal breakout.
        let (g, root, _) = harness(b"'", &[b"ok", b"a' OR 'b"], b"'");
        let c = Checker::new();
        let r = c.check_hotspot(&g, root);
        assert_eq!(r.findings.len(), 1, "{r}");
        assert_eq!(r.findings[0].kind, CheckKind::EscapesLiteral);
    }

    #[test]
    fn c2_accepts_doubled_quote_escaping() {
        // MySQL's '' escape inside a literal is safe.
        let (g, root, _) = harness(b"'", &[b"ok", b"a''b"], b"'");
        let c = Checker::new();
        let r = c.check_hotspot(&g, root);
        assert!(r.is_safe(), "{r}");
    }

    #[test]
    fn addslashed_literal_context_verifies() {
        // Escaped quotes only — safe inside a literal.
        let (g, root, _) = harness(b"'", &[b"ok", br"a\'b", br"it\'s"], b"'");
        let c = Checker::new();
        let r = c.check_hotspot(&g, root);
        assert!(r.is_safe(), "{r}");
    }

    #[test]
    fn c3_numeric_unquoted_verifies() {
        let (g, root, _) = harness(b"", &[b"1", b"42"], b"");
        let c = Checker::new();
        let r = c.check_hotspot(&g, root);
        assert!(r.is_safe(), "{r}");
    }

    #[test]
    fn unquoted_attack_reported() {
        // The paper's motivating taint-analysis blind spot: escaped
        // input in numeric (unquoted) context.
        let (g, root, _) = harness(b"", &[b"1", b"1 OR 1=1 -- x"], b"");
        let c = Checker::new();
        let r = c.check_hotspot(&g, root);
        assert_eq!(r.findings.len(), 1, "{r}");
        assert_eq!(r.findings[0].kind, CheckKind::AttackString);
    }

    #[test]
    fn c5_ident_in_order_by_verifies() {
        // X = filtered column name in ORDER BY position.
        let mut g = Cfg::new();
        let x = g.add_nonterminal("_GET[sort]");
        g.set_taint(x, Taint::DIRECT);
        g.add_literal_production(x, b"name");
        g.add_literal_production(x, b"date");
        let root = g.add_nonterminal("query");
        let mut rhs = g.literal_symbols(b"SELECT * FROM t ORDER BY ");
        rhs.push(Symbol::N(x));
        g.add_production(root, rhs);
        let c = Checker::new();
        let r = c.check_hotspot(&g, root);
        assert!(r.is_safe(), "{r}");
    }

    #[test]
    fn c5_keyword_capture_reported() {
        let mut g = Cfg::new();
        let x = g.add_nonterminal("_GET[sort]");
        g.set_taint(x, Taint::DIRECT);
        g.add_literal_production(x, b"name");
        g.add_literal_production(x, b"union");
        let root = g.add_nonterminal("query");
        let mut rhs = g.literal_symbols(b"SELECT * FROM t ORDER BY ");
        rhs.push(Symbol::N(x));
        g.add_production(root, rhs);
        let c = Checker::new();
        let r = c.check_hotspot(&g, root);
        assert!(!r.is_safe());
    }

    #[test]
    fn whole_query_tainted_reported() {
        let mut g = Cfg::new();
        let root = g.add_nonterminal("_GET[q]");
        g.set_taint(root, Taint::DIRECT);
        g.add_literal_production(root, b"SELECT 1");
        let c = Checker::new();
        let r = c.check_hotspot(&g, root);
        assert!(!r.is_safe());
    }

    #[test]
    fn untainted_query_is_trivially_safe() {
        let mut g = Cfg::new();
        let root = g.literal_nonterminal("query", b"SELECT * FROM t");
        let c = Checker::new();
        let r = c.check_hotspot(&g, root);
        assert!(r.is_safe());
        assert_eq!(r.checked, 0);
    }

    #[test]
    fn budget_exhaustion_is_conservative() {
        // A hotspot that verifies under an unlimited budget must, under
        // a tiny budget, be reported BudgetExhausted — a false positive
        // is acceptable, a silent "verified" is not.
        let (g, root, _) = harness(b"'", &[b"1", b"42"], b"'");
        let c = Checker::new();
        assert!(c.check_hotspot(&g, root).is_safe());

        let tiny = Budget::new(None, Some(5), None);
        let r = c.check_hotspot_with(&g, root, &tiny);
        assert!(!r.is_safe(), "exhausted budget must not verify: {r}");
        assert!(r
            .findings
            .iter()
            .all(|f| f.kind == CheckKind::BudgetExhausted));
        assert_eq!(r.verified, 0);
        assert!(!r.degradations.is_empty());

        // And a vulnerable hotspot stays flagged under any budget.
        let (g2, root2, _) = harness(b"'", &[b"1", b"1'; DROP TABLE t; --"], b"'");
        for fuel in [1u64, 10, 100, 10_000] {
            let b = Budget::new(None, Some(fuel), None);
            let r = c.check_hotspot_with(&g2, root2, &b);
            assert!(!r.is_safe(), "fuel={fuel} must not verify a vulnerable hotspot");
        }
    }

    #[test]
    fn parallel_hotspots_match_serial_and_count_engine_work() {
        // Two hotspots in one grammar, sharing the tainted source X —
        // the shape the preparation memo exists for.
        let mut g = Cfg::new();
        let x = g.add_nonterminal("_GET[id]");
        g.set_taint(x, Taint::DIRECT);
        g.add_literal_production(x, b"1");
        g.add_literal_production(x, b"1'; DROP TABLE t; --");
        let safe_x = g.add_nonterminal("_GET[n]");
        g.set_taint(safe_x, Taint::DIRECT);
        g.add_literal_production(safe_x, b"42");
        let mk = |g: &mut Cfg, x, pre: &[u8], post: &[u8]| {
            let root = g.add_nonterminal("query");
            let mut rhs = g.literal_symbols(pre);
            rhs.push(Symbol::N(x));
            rhs.extend(g.literal_symbols(post));
            g.add_production(root, rhs);
            root
        };
        let r1 = mk(&mut g, x, b"SELECT * FROM t WHERE id='", b"'");
        let r2 = mk(&mut g, x, b"DELETE FROM t WHERE id='", b"'");
        let r3 = mk(&mut g, safe_x, b"SELECT * FROM t WHERE n=", b"");
        let roots = [r1, r2, r3];

        let c = Checker::new();
        let budget = Budget::unlimited();
        let serial: Vec<_> = roots
            .iter()
            .map(|&r| c.check_hotspot_with(&g, r, &budget))
            .collect();
        let parallel = c.check_hotspots_with(&g, &roots, &budget, 4);
        assert_eq!(serial.len(), parallel.len());
        for (s, p) in serial.iter().zip(&parallel) {
            assert_eq!(s.checked, p.checked);
            assert_eq!(s.verified, p.verified);
            assert_eq!(s.findings.len(), p.findings.len());
            for (sf, pf) in s.findings.iter().zip(&p.findings) {
                assert_eq!(sf.kind, pf.kind);
                assert_eq!(sf.name, pf.name);
                assert_eq!(sf.witness, pf.witness);
            }
        }
        // The shared memo means the second hotspot reuses X's
        // preparation: across all three reports some query must have
        // been served without a fresh normalization.
        let saved: u64 = parallel.iter().map(|r| r.engine.normalizations_saved).sum();
        assert!(saved > 0, "no prepared-grammar reuse recorded");
        let queries: u64 = parallel.iter().map(|r| r.engine.queries).sum();
        assert!(queries > 0);
    }

    /// The registry's `sql` cascade in the paper's published order:
    /// C3 moves from first to after C2.
    fn paper_order() -> strtaint_policy::Cascade {
        let sql = strtaint_policy::find("sql").expect("sql policy");
        let mut c = (sql.cascade)();
        c.steps[..3].rotate_left(1);
        c
    }

    #[test]
    fn paper_order_preserves_verdicts() {
        // Every harness shape from the suite, checked in the registry's
        // order (C3 prover first) and in the paper's C1–C5 order: the
        // findings (kind, witness) and verified counts must agree
        // exactly — only the engine work order may differ.
        let shapes: Vec<(Cfg, NtId)> = vec![
            {
                let (g, r, _) = harness(b"'", &[b"1", b"1'; DROP TABLE t; --"], b"'");
                (g, r)
            },
            {
                let (g, r, _) = harness(b"'", &[b"1", b"42", b"007"], b"'");
                (g, r)
            },
            {
                let (g, r, _) = harness(b"'", &[b"ok", b"a' OR 'b"], b"'");
                (g, r)
            },
            {
                let (g, r, _) = harness(b"", &[b"1", b"42"], b"");
                (g, r)
            },
            {
                let (g, r, _) = harness(b"", &[b"1", b"1 OR 1=1 -- x"], b"");
                (g, r)
            },
        ];
        let fast = Checker::new();
        let sql = strtaint_policy::Policy {
            cascade: paper_order,
            ..strtaint_policy::find("sql").expect("sql policy")
        };
        let slow = crate::PolicyChecker::with_policies(&[sql], CheckOptions::default());
        for (g, root) in &shapes {
            let a = fast.check_hotspot(g, *root);
            let b = slow.check_hotspot_cached("sql", g, *root, &Budget::unlimited());
            assert_eq!(a.checked, b.checked);
            assert_eq!(a.verified, b.verified);
            assert_eq!(a.findings.len(), b.findings.len());
            for (fa, fb) in a.findings.iter().zip(&b.findings) {
                assert_eq!(fa.kind, fb.kind);
                assert_eq!(fa.witness, fb.witness);
                assert_eq!(fa.example_query, fb.example_query);
            }
        }
    }

    #[test]
    fn indirect_taint_classified() {
        let mut g = Cfg::new();
        let x = g.add_nonterminal("USER[name]");
        g.set_taint(x, Taint::INDIRECT);
        g.add_literal_production(x, b"bob'); DROP TABLE t; --");
        let root = g.add_nonterminal("query");
        let mut rhs = g.literal_symbols(b"INSERT INTO t (n) VALUES ('");
        rhs.push(Symbol::N(x));
        rhs.extend(g.literal_symbols(b"')"));
        g.add_production(root, rhs);
        let c = Checker::new();
        let r = c.check_hotspot(&g, root);
        assert_eq!(r.findings.len(), 1);
        assert!(r.findings[0].taint.is_indirect());
        assert!(!r.findings[0].taint.is_direct());
    }
}
