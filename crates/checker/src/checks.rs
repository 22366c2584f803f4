//! The policy-conformance checking pipeline (paper §3.2).
//!
//! For each *maximal* labeled nonterminal `X` reachable from a hotspot
//! root, the checks run in the paper's order:
//!
//! 1. **C1 — odd unescaped quotes**: if `L(X)` intersects the language
//!    of strings with an odd number of unescaped quotes, `X` cannot be
//!    syntactically confined in any query → report.
//! 2. **C2 — string-literal position**: if every occurrence of `X` in
//!    the query language sits inside a string literal, then `X` is safe
//!    iff it cannot produce an unescaped quote.
//! 3. **C3 — numeric literals**: if `L(X)` ⊆ numeric literals, safe.
//! 4. **C4 — attack strings**: if `X` derives a known non-confinable
//!    fragment, report.
//! 5. **C5 — derivability** (§3.2.2): enumerate the query contexts with
//!    `X` held by a marker; for each context find a SQL grammar symbol
//!    the marker can stand for (sentential-form Earley) whose lexeme
//!    language contains `L(X)`. Anything inconclusive → report
//!    (soundness, Theorem 3.4).

use std::collections::HashMap;

use strtaint_grammar::budget::{Budget, BudgetExceeded};
use strtaint_grammar::lang::{bounded_language, shortest_string};
use strtaint_grammar::{Cfg, NtId};
use strtaint_sql::derive::{context_candidates_with, lexeme_dfa};
use strtaint_sql::{lex_form, SqlGrammar, TokenKind, VarPosition};

use crate::abstraction::marked_grammar;
use crate::dfas;
use crate::engine::{Engine, Qdfa, Target};
use crate::prefilter::Prefilter;
use crate::report::{CheckKind, Finding};

/// Tunables for the conformance checker.
#[derive(Debug, Clone)]
pub struct CheckOptions {
    /// Maximum number of query context strings enumerated for the
    /// derivability check before reporting `Unresolved`.
    pub max_contexts: usize,
    /// Route every intersection through the naive reference engine
    /// (re-trim + re-normalize per query) instead of the prepared one.
    /// The cold baseline for benches and equivalence tests; verdicts
    /// are identical either way.
    pub naive_engine: bool,
    /// Run the sub-millisecond C3 prover (numeric-only language) ahead
    /// of the C1/C2 refuters and short-circuit on its verdict. Verdicts
    /// are unchanged — a numeric-only `L(X)` contains no quote byte, so
    /// C1 (odd quotes) and the C2 escape arm (needs a quote) can never
    /// fire on it — only the engine work order moves. Off reproduces
    /// the paper's published C1→C5 order for equivalence tests.
    pub cheap_first: bool,
    /// Memoize intersection verdicts across hotspots and pages (the
    /// cross-page query cache; see the `qcache` module). Replay is
    /// observationally identical to recomputation — same verdicts,
    /// same canonical witness bytes, same fuel charges. Off recomputes
    /// every query; the baseline for benches and the cache-parity
    /// tests.
    pub query_cache: bool,
    /// Never replay witness bytes from the query cache: witness-mode
    /// queries bypass memoization and extract live. Emptiness-only
    /// queries still memoize.
    pub eager_witness: bool,
    /// Skip the C4 intersection when the Aho–Corasick prefilter proves
    /// no attack fragment is spellable over the prepared grammar's
    /// realized terminal alphabet (see the `prefilter` module for the
    /// soundness argument — the filter can only ever prove absence).
    pub prefilter: bool,
}

impl Default for CheckOptions {
    fn default() -> Self {
        CheckOptions {
            max_contexts: 256,
            naive_engine: false,
            cheap_first: true,
            query_cache: true,
            eager_witness: false,
            prefilter: true,
        }
    }
}

/// The SQLCIV cascade (C1–C5): precompiled check automata, shareable
/// across hotspots. The candidate loop, engine session and budget
/// discipline around [`SqlCascade::check_one`] belong to
/// [`crate::PolicyChecker`].
#[derive(Debug, Clone)]
pub(crate) struct SqlCascade {
    sql: SqlGrammar,
    odd_quotes: Qdfa,
    has_quote: Qdfa,
    marker_outside: Qdfa,
    non_numeric: Qdfa,
    keywords: Qdfa,
    attack: Qdfa,
    backquote: Qdfa,
    /// Aho–Corasick prefilter over the same fragments as `attack`.
    prefilter: Prefilter,
    max_contexts: usize,
    cheap_first: bool,
    use_prefilter: bool,
}

impl SqlCascade {
    pub(crate) fn new(opts: &CheckOptions) -> Self {
        use strtaint_automata::{Dfa, Nfa};
        let backquote = Dfa::from_nfa(
            &Nfa::any_string()
                .concat(&Nfa::literal(b"`"))
                .concat(&Nfa::any_string()),
        )
        .minimize();
        SqlCascade {
            sql: SqlGrammar::standard(),
            odd_quotes: Qdfa::new(dfas::odd_unescaped_quotes()),
            has_quote: Qdfa::new(dfas::contains_unescaped_quote()),
            marker_outside: Qdfa::new(dfas::marker_outside_literal()),
            non_numeric: Qdfa::new(dfas::numeric_literal().complement()),
            keywords: Qdfa::new(dfas::sql_keywords()),
            attack: Qdfa::new(dfas::attack_fragments()),
            backquote: Qdfa::new(backquote),
            prefilter: Prefilter::new(),
            max_contexts: opts.max_contexts,
            cheap_first: opts.cheap_first,
            use_prefilter: opts.prefilter,
        }
    }

    /// Runs C1–C5 on the labeled nonterminal `x` of the hotspot `root`;
    /// `all` is every maximal labeled nonterminal of the hotspot.
    pub(crate) fn check_one(
        &self,
        cfg: &Cfg,
        root: NtId,
        x: NtId,
        all: &[NtId],
        budget: &Budget,
        engine: &mut Engine<'_>,
    ) -> Result<Option<Finding>, BudgetExceeded> {
        let finding = |engine: &Engine<'_>, kind, witness, detail: String| {
            Ok(Some(engine.finding(cfg, root, x, kind, witness, detail)))
        };
        // One prepared grammar serves every (cfg, x) query below —
        // C1 through C5 — and, via the shared cache, any other hotspot
        // whose checks reach the same labeled nonterminal. An empty
        // L(X) has nothing to check.
        let Some(mut tx) = engine.target(cfg, x) else {
            return Ok(None);
        };

        // Cheap-first: hoist the C3 prover (one early-exit emptiness
        // query against a tiny numeric DFA) ahead of the refuters. See
        // `CheckOptions::cheap_first` for the verdict-preservation
        // argument.
        if self.cheap_first {
            let _c = strtaint_obs::Span::enter("check:C3", "");
            if engine.is_empty(&mut tx, &self.non_numeric, budget)? {
                return Ok(None);
            }
        }

        // C1: odd number of unescaped quotes.
        {
            let _c = strtaint_obs::Span::enter("check:C1", "");
            let (empty, witness) =
                engine.is_empty_or_witness(&mut tx, &self.odd_quotes, budget, (cfg, x))?;
            if !empty {
                return finding(engine, CheckKind::OddQuotes, witness, String::new());
            }
        }

        // C2: always in string-literal position?
        {
            let _c = strtaint_obs::Span::enter("check:C2", "");
            let mut scratch = None;
            let mut tm = engine.target_marked(cfg, root, x, &mut scratch);
            if engine.is_empty(&mut tm, &self.marker_outside, budget)? {
                let (empty, witness) =
                    engine.is_empty_or_witness(&mut tx, &self.has_quote, budget, (cfg, x))?;
                if !empty {
                    return finding(engine, CheckKind::EscapesLiteral, witness, String::new());
                }
                return Ok(None); // confined within a string literal
            }
        }

        // C3: numeric-only language is confined anywhere a literal
        // fits (already decided up front when `cheap_first` is on).
        if !self.cheap_first {
            let _c = strtaint_obs::Span::enter("check:C3", "");
            if engine.is_empty(&mut tx, &self.non_numeric, budget)? {
                return Ok(None);
            }
        }

        // C4: known attack fragments confirm a vulnerability. The
        // Aho–Corasick prefilter proves non-membership first when it
        // can: if no fragment is spellable over the realized terminal
        // alphabet, no string of L(X) contains one and the
        // intersection is skipped outright (absence proofs only — a
        // spellable alphabet falls through to the exact engine).
        {
            let _c = strtaint_obs::Span::enter("check:C4", "");
            let prefiltered = self.use_prefilter
                && match &tx {
                    Target::Prepared { prep, .. } => {
                        !self.prefilter.any_spellable(prep.alphabet())
                    }
                    Target::Naive { .. } => false,
                };
            if prefiltered {
                engine.stats.prefilter_skips += 1;
            } else {
                let (empty, witness) =
                    engine.is_empty_or_witness(&mut tx, &self.attack, budget, (cfg, x))?;
                if !empty {
                    debug_assert!(
                        witness
                            .as_deref()
                            .is_none_or(|w| self.prefilter.contains_match(w)),
                        "C4 witness must contain an attack fragment"
                    );
                    return finding(engine, CheckKind::AttackString, witness, String::new());
                }
            }
        }

        let _c5 = strtaint_obs::Span::enter("check:C5", "");
        // C5: derivability in context. Sibling tainted subgrammars are
        // spliced as representative strings (computed lazily — only
        // hotspots that reach C5 pay for them).
        let mut replacements: HashMap<NtId, Vec<u8>> = HashMap::new();
        for &y in all {
            if y != x {
                let sample = shortest_string(cfg, y).unwrap_or_else(|| b"1".to_vec());
                replacements.insert(y, sample);
            }
        }
        let (marked, mroot) = marked_grammar(cfg, root, x, &replacements);
        let Some(contexts) = bounded_language(&marked, mroot, self.max_contexts) else {
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
                if !engine.is_empty(&mut tx, &self.has_quote, budget)? {
                    return finding(
                        engine,
                        CheckKind::EscapesLiteral,
                        shortest_string(cfg, x),
                        "string-literal context".into(),
                    );
                }
            }
            if form.vars.iter().any(|v| *v == VarPosition::InBackquotes)
                && !engine.is_empty(&mut tx, &self.backquote, budget)?
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
                            let mut v = engine.is_empty(&mut tx, &lex, budget)?;
                            if v
                                && k == TokenKind::Ident
                                && !engine.is_empty(&mut tx, &self.keywords, budget)?
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
        // the shape the prepared cache exists for.
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
        // The shared cache means the second hotspot reuses X's
        // preparation: across all three reports some query must have
        // been served without a fresh normalization.
        let saved: u64 = parallel.iter().map(|r| r.engine.normalizations_saved).sum();
        assert!(saved > 0, "no prepared-grammar reuse recorded");
        let queries: u64 = parallel.iter().map(|r| r.engine.queries).sum();
        assert!(queries > 0);

        // The naive engine produces the same verdicts.
        let naive = Checker::with_options(CheckOptions {
            naive_engine: true,
            ..CheckOptions::default()
        });
        for (&r, s) in roots.iter().zip(&serial) {
            let n = naive.check_hotspot_with(&g, r, &budget);
            assert_eq!(n.findings.len(), s.findings.len());
            assert_eq!(n.verified, s.verified);
        }
    }

    #[test]
    fn cheap_first_preserves_verdicts() {
        // Every harness shape from the suite, checked with the C3
        // prover hoisted and with the paper's published order: the
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
        let slow = Checker::with_options(CheckOptions {
            cheap_first: false,
            ..CheckOptions::default()
        });
        for (g, root) in &shapes {
            let a = fast.check_hotspot(g, *root);
            let b = slow.check_hotspot(g, *root);
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
