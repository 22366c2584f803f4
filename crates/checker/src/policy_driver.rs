//! The policy driver: one [`PolicyChecker`] runs every enabled policy
//! through one candidate loop and one step interpreter over the
//! prepared intersection engine.
//!
//! Every policy is a registry [`Cascade`] (see the cascade contract in
//! `strtaint_policy::registry`), compiled once per checker and run
//! here as the registry's executable semantics: for each maximal
//! labeled nonterminal `X` of a hotspot, steps run in order against
//! `L(X)`. A gated step first asks its gate about the marked grammar
//! of `X` (prepared at the first gate that runs) and is skipped unless
//! the gate holds. A prover with an empty intersection verifies `X`, a
//! refuter with a non-empty one reports, a decider does one or the
//! other, an attack step is skipped when none of its fragments can be
//! spelled from the alphabet of `L(X)`, and the derivability step (C5,
//! in `checks`) decides by SQL context. The residual decides anything
//! that falls through.
//!
//! Everything around the steps is shared: the page index that finds
//! every hotspot's candidates in one walk of the page grammar, the
//! `Engine` session over the checker's one query cache and prepared
//! memo, the per-candidate span, and the budget discipline — a trip
//! yields a conservative `BudgetExhausted` finding and a degradation,
//! never a silent "verified".

use strtaint_grammar::budget::{Budget, BudgetExceeded, DegradeAction};
use strtaint_grammar::lang::shortest_string;
use strtaint_grammar::{Cfg, NtId};
use strtaint_policy::{Cascade, CheckKind, Policy, Residual, StepAction, SQL_POLICY, XSS_POLICY};

use crate::abstraction::PageIndex;
use crate::checks::{CheckOptions, Derivable};
use crate::engine::{fan_out, Engine, Qdfa, Shared};
use crate::report::{Finding, HotspotReport};
use crate::skeletons::{hotspot_skeletons, SKELETON_BUDGET};

/// One compiled cascade step: its automata in byte-class form.
#[derive(Debug, Clone)]
struct Step {
    span: Option<&'static str>,
    /// The gate automaton, and whether the step runs when the marked
    /// grammar's intersection with it is empty.
    gate: Option<(Qdfa, bool)>,
    q: Qdfa,
    op: Op,
}

/// A step's action (see `StepAction`), with what it compiles to.
#[derive(Debug, Clone)]
enum Op {
    Verify,
    Report {
        kind: CheckKind,
        detail: &'static str,
        witness: bool,
    },
    ReportElseVerify {
        kind: CheckKind,
        detail: &'static str,
    },
    Attack {
        kind: CheckKind,
        fragments: &'static [&'static [u8]],
    },
    Derivable(Box<Derivable>),
}

/// Compiles a registry cascade: every automaton is class-compressed
/// here, once per checker.
fn compile(cascade: Cascade) -> (Vec<Step>, Residual) {
    let steps = cascade.steps.into_iter().map(|s| {
        let q = Qdfa::new(s.dfa);
        let op = match s.action {
            StepAction::VerifyIfEmpty => Op::Verify,
            StepAction::ReportIfNonEmpty {
                kind,
                detail,
                witness,
            } => Op::Report {
                kind,
                detail,
                witness,
            },
            StepAction::ReportElseVerify { kind, detail } => Op::ReportElseVerify { kind, detail },
            StepAction::Attack { kind, fragments } => Op::Attack { kind, fragments },
            StepAction::Derivable {
                backquote,
                keywords,
            } => Op::Derivable(Box::new(Derivable::new(q.clone(), backquote, keywords))),
        };
        let gate = s.gate.map(|g| (Qdfa::new(g.dfa), g.when_empty));
        Step {
            span: s.span,
            gate,
            q,
            op,
        }
    });
    (steps.collect(), cascade.residual)
}

/// Whether some fragment can be spelled from `alphabet` after ASCII
/// case folding (attack fragments match case-insensitively). `false`
/// proves that no word over `alphabet` contains a fragment.
fn spellable(fragments: &[&[u8]], alphabet: &[u8]) -> bool {
    let mut present = [false; 256];
    for &b in alphabet {
        present[usize::from(b.to_ascii_lowercase())] = true;
    }
    fragments.iter().any(|f| {
        f.iter()
            .all(|b| present[usize::from(b.to_ascii_lowercase())])
    })
}

/// Runs one compiled cascade on the labeled nonterminal `x` of the
/// engine's hotspot.
fn check_one(
    (steps, residual): &(Vec<Step>, Residual),
    cfg: &Cfg,
    x: NtId,
    budget: &Budget,
    engine: &mut Engine<'_>,
) -> Result<Option<Finding>, BudgetExceeded> {
    let found = |engine: &Engine<'_>, kind, witness, detail: &str| {
        Some(engine.finding(cfg, x, kind, witness, detail.to_owned()))
    };
    // One prepared grammar serves every step and, via the shared memo,
    // any other hotspot reaching `x`; so does one marked grammar for
    // every gate. An empty L(X) has nothing to check.
    let Some(mut tx) = engine.target(cfg, x) else {
        return Ok(None);
    };
    let mut tm = None;
    for step in steps {
        let _span = step.span.map(|name| strtaint_obs::Span::enter(name, ""));
        if let Some((gate, when_empty)) = &step.gate {
            let tm = tm.get_or_insert_with(|| engine.target_marked(cfg, x));
            if engine.query(tm, gate, budget, false)?.0 != *when_empty {
                continue;
            }
        }
        let q = &step.q;
        match &step.op {
            Op::Verify => {
                if engine.query(&mut tx, q, budget, false)?.0 {
                    return Ok(None);
                }
            }
            Op::Report {
                kind,
                detail,
                witness: true,
            } => {
                let (empty, witness) = engine.query(&mut tx, q, budget, true)?;
                if !empty {
                    return Ok(found(engine, *kind, witness, detail));
                }
            }
            // Emptiness only: the finding carries a representative of
            // L(X), not an intersection witness to splice.
            Op::Report {
                kind,
                detail,
                witness: false,
            } => {
                if !engine.query(&mut tx, q, budget, false)?.0 {
                    let witness = shortest_string(cfg, x);
                    let f = Finding::new(cfg, x, *kind, detail.to_string());
                    return Ok(Some(Finding { witness, ..f }));
                }
            }
            Op::ReportElseVerify { kind, detail } => {
                let (empty, witness) = engine.query(&mut tx, q, budget, true)?;
                return Ok(if empty {
                    None
                } else {
                    found(engine, *kind, witness, detail)
                });
            }
            Op::Attack { kind, fragments } => {
                // Every string of L(X) is a word over its alphabet: if no
                // fragment can be spelled from it, none occurs in L(X),
                // the intersection is empty, and the query is skipped.
                if !spellable(fragments, tx.alphabet()) {
                    engine.stats.prefilter_skips += 1;
                    continue;
                }
                let (empty, witness) = engine.query(&mut tx, q, budget, true)?;
                if !empty {
                    return Ok(found(engine, *kind, witness, ""));
                }
            }
            Op::Derivable(d) => return d.check(cfg, x, &mut tx, budget, engine),
        }
    }
    Ok(match residual {
        Residual::Verified => None,
        Residual::Report { kind, detail } => found(engine, *kind, shortest_string(cfg, x), detail),
    })
}

/// What a hotspot check exports beyond its verdict.
///
/// Skeleton evidence is read only by fix planning, guard profiles and
/// the daemon's persisted verdicts; `--json` and `--sarif` never render
/// it. It is not part of analysis identity (no `Config` field, no
/// fingerprint input): it is a stage the reader asks for.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Evidence {
    /// Findings, witnesses and degradations only. Reports carry empty
    /// `skeletons` with `skeletons_complete == false`.
    Verdicts,
    /// Verdicts plus each hotspot's query skeletons, exported in the
    /// same job as its check.
    Skeletons,
}

/// One checker for every built-in policy: each policy's compiled
/// cascade, selected by the policy id a hotspot carries, run through
/// one candidate loop over one query cache and prepared memo.
#[derive(Debug, Clone)]
pub struct PolicyChecker {
    /// `(policy id, compiled cascade)` in registry order.
    cascades: Vec<(&'static str, (Vec<Step>, Residual))>,
    shared: Shared,
}

impl PolicyChecker {
    /// Builds a checker for every built-in policy with default options.
    pub fn new() -> Self {
        Self::with_options(CheckOptions::default())
    }

    /// Builds a checker for every built-in policy. The verdict-cache
    /// options (`query_cache`, `eager_witness`) apply to every cascade.
    pub fn with_options(opts: CheckOptions) -> Self {
        Self::with_policies(&strtaint_policy::builtin(), opts)
    }

    /// Builds a checker for `policies`, building each cascade once.
    /// Hotspots naming another policy are checked by the `sql` entry,
    /// which `policies` must hold.
    pub fn with_policies(policies: &[Policy], opts: CheckOptions) -> Self {
        let cascades = policies
            .iter()
            .map(|p| (p.id, compile((p.cascade)())))
            .collect();
        PolicyChecker {
            cascades,
            shared: Shared::new(&opts),
        }
    }

    /// Exports one hotspot's canonical skeleton set (see
    /// [`crate::skeletons`]). Shares the prepared memo with the checks
    /// and witness splicing, so exporting after a check is a warm
    /// lookup. An oversized hotspot exports nothing, so its size guard
    /// runs first, on a capped walk, before the hotspot is indexed.
    pub fn skeletons_for(&self, cfg: &Cfg, root: NtId) -> (Vec<Vec<u8>>, bool) {
        if cfg.count_reachable_productions(root, SKELETON_BUDGET) > SKELETON_BUDGET {
            return (Vec::new(), false);
        }
        let page = PageIndex::new(cfg, &[root]);
        hotspot_skeletons(cfg, &Engine::new(&self.shared, &page, root))
    }

    /// Checks one hotspot under the named policy, through the checker's
    /// prepared memo and verdict cache. Unknown ids fall back to the
    /// `sql` cascade (cannot happen for hotspots produced by the
    /// analysis layer, which only tags registry ids).
    ///
    /// A budget trip while checking a labeled nonterminal yields a
    /// [`CheckKind::BudgetExhausted`] finding and a degradation record —
    /// the nonterminal is *never* counted verified. This is the sound
    /// direction: exhaustion can only add false positives.
    pub fn check_hotspot_cached(
        &self,
        policy: &str,
        cfg: &Cfg,
        root: NtId,
        budget: &Budget,
    ) -> HotspotReport {
        let page = PageIndex::new(cfg, &[root]);
        self.check_job(policy, cfg, &page, root, budget, Evidence::Verdicts)
    }

    /// One hotspot's job: its check and, when `evidence` asks for them,
    /// its skeletons, in one engine session over the page index.
    fn check_job(
        &self,
        policy: &str,
        cfg: &Cfg,
        page: &PageIndex,
        root: NtId,
        budget: &Budget,
        evidence: Evidence,
    ) -> HotspotReport {
        let (id, cascade) = self
            .cascades
            .iter()
            .find(|(id, _)| *id == policy)
            .or_else(|| self.cascades.iter().find(|(id, _)| *id == SQL_POLICY))
            .expect("the checker holds the sql policy");
        // Historical names: XSS candidates run under their own span,
        // and SQL degradation sites carry no policy prefix.
        let span = if *id == XSS_POLICY {
            "check:xss"
        } else {
            "check"
        };
        let mut report = HotspotReport::default();
        let mut engine = Engine::new(&self.shared, page, root);
        let candidates = engine.candidates();
        report.checked = candidates.len();
        for &x in candidates {
            let _span = strtaint_obs::Span::enter_with(span, || cfg.name(x).to_owned());
            match check_one(cascade, cfg, x, budget, &mut engine) {
                Ok(None) => report.verified += 1,
                Ok(Some(finding)) => report.findings.push(finding),
                Err(err) => {
                    let site = if *id == SQL_POLICY {
                        format!("check:{}", cfg.name(x))
                    } else {
                        format!("{id}-check:{}", cfg.name(x))
                    };
                    let action = DegradeAction::MarkedUnverified;
                    let finding = Finding::new(cfg, x, CheckKind::BudgetExhausted, err.to_string());
                    report.degradations.push(budget.degradation(err, site, action));
                    report.findings.push(finding);
                }
            }
        }
        for f in &mut report.findings {
            f.cap_witness();
        }
        if evidence == Evidence::Skeletons {
            (report.skeletons, report.skeletons_complete) = hotspot_skeletons(cfg, &engine);
        }
        report.engine = engine.stats;
        report
    }

    /// Checks every `(root, policy)` hotspot of one page, on up to
    /// `workers` threads, returning reports in input order; with
    /// [`Evidence::Skeletons`] each hotspot's job also exports its
    /// skeletons.
    ///
    /// Hotspots are independent given the immutable `cfg`. One page
    /// index, built before the fan-out, gives every hotspot its
    /// candidates and computes each distinct candidate's content key
    /// once; the shared prepared memo lets them reuse each other's
    /// prepared grammars (sinks frequently share roots or labeled
    /// sources). A worker panic propagates to the caller unchanged, so
    /// page-level fault isolation behaves exactly as in the serial
    /// loop.
    pub fn check_hotspots_with(
        &self,
        cfg: &Cfg,
        items: &[(NtId, String)],
        budget: &Budget,
        workers: usize,
        evidence: Evidence,
    ) -> Vec<HotspotReport> {
        let roots: Vec<NtId> = items.iter().map(|(root, _)| *root).collect();
        let page = PageIndex::new(cfg, &roots);
        fan_out(items, workers, |(root, policy)| {
            self.check_job(policy, cfg, &page, *root, budget, evidence)
        })
    }
}

impl Default for PolicyChecker {
    fn default() -> Self {
        PolicyChecker::new()
    }
}

/// The SQLCIV view of a [`PolicyChecker`]: every hotspot is checked by
/// the `sql` cascade (C1–C5, paper §3.2), through the same loop, query
/// cache and prepared memo the multi-policy pipeline uses.
#[derive(Debug, Clone, Default)]
pub struct Checker(PolicyChecker);

impl Checker {
    /// Builds a checker with default options.
    pub fn new() -> Self {
        Self::with_options(CheckOptions::default())
    }

    /// Builds a checker with explicit options.
    pub fn with_options(opts: CheckOptions) -> Self {
        Checker(PolicyChecker::with_options(opts))
    }

    /// Does nothing. Cached verdicts are keyed by the content of each
    /// query and its budget class, which already carry everything a
    /// config can change about a verdict, so there is no per-config
    /// namespace to stamp. Kept for callers written against the scoped
    /// cache.
    pub fn set_query_scope(&self, _scope: u64) {}

    /// See [`PolicyChecker::skeletons_for`].
    pub fn skeletons_for(&self, cfg: &Cfg, root: NtId) -> (Vec<Vec<u8>>, bool) {
        self.0.skeletons_for(cfg, root)
    }

    /// Checks one hotspot: `root` must derive every query string the
    /// hotspot can send.
    pub fn check_hotspot(&self, cfg: &Cfg, root: NtId) -> HotspotReport {
        self.check_hotspot_with(cfg, root, &Budget::unlimited())
    }

    /// Budgeted form of [`Checker::check_hotspot`] (budget discipline
    /// as in [`PolicyChecker::check_hotspot_cached`]).
    pub fn check_hotspot_with(&self, cfg: &Cfg, root: NtId, budget: &Budget) -> HotspotReport {
        self.0
            .check_hotspot_cached(strtaint_policy::SQL_POLICY, cfg, root, budget)
    }

    /// Checks every hotspot root of one page, on up to `workers`
    /// threads, returning reports in input order (see
    /// [`PolicyChecker::check_hotspots_with`]).
    pub fn check_hotspots_with(
        &self,
        cfg: &Cfg,
        roots: &[NtId],
        budget: &Budget,
        workers: usize,
    ) -> Vec<HotspotReport> {
        let sql = strtaint_policy::SQL_POLICY;
        let items: Vec<(NtId, String)> = roots.iter().map(|&r| (r, sql.to_owned())).collect();
        self.0
            .check_hotspots_with(cfg, &items, budget, workers, Evidence::Verdicts)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use strtaint_automata::ClassDfa;
    use strtaint_grammar::{PreparedGrammar, QueryMode, Symbol, Taint};
    use strtaint_policy::dfas::{attack_fragments, ATTACK_FRAGMENTS};

    /// Bytes the random grammars draw their small alphabets from: every
    /// fragment byte, in both cases where it has two, plus filler.
    const POOL: &[u8] = b"-;#/* oOrRdDpPtTaAbBlLeEuUnNiIsScC09";

    /// `root -> leaf | [ leaf ] | root leaf` over at most six bytes of
    /// [`POOL`].
    fn small_alphabet_grammar() -> impl Strategy<Value = (Cfg, NtId)> {
        let word = proptest::collection::vec(0..64usize, 0..6);
        (
            proptest::collection::vec(0..POOL.len(), 1..7),
            proptest::collection::vec(word, 1..4),
            proptest::bool::ANY,
            proptest::bool::ANY,
        )
            .prop_map(|(picks, words, wrap, recursive)| {
                let alpha: Vec<u8> = picks.iter().map(|&i| POOL[i]).collect();
                let mut g = Cfg::new();
                let leaf = g.add_nonterminal("leaf");
                for w in &words {
                    let w: Vec<u8> = w.iter().map(|&i| alpha[i % alpha.len()]).collect();
                    g.add_literal_production(leaf, &w);
                }
                let root = g.add_nonterminal("root");
                if wrap {
                    let (open, close) = (alpha[0], alpha[alpha.len() - 1]);
                    g.add_production(
                        root,
                        vec![Symbol::T(open), Symbol::N(leaf), Symbol::T(close)],
                    );
                } else {
                    g.add_production(root, vec![Symbol::N(leaf)]);
                }
                if recursive {
                    g.add_production(root, vec![Symbol::N(root), Symbol::N(leaf)]);
                }
                (g, root)
            })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(96))]

        #[test]
        fn alphabet_skip_implies_empty_attack_intersection((g, root) in small_alphabet_grammar()) {
            let prep = PreparedGrammar::new(&g, root);
            prop_assume!(!spellable(ATTACK_FRAGMENTS, prep.alphabet()));
            let dfa = ClassDfa::new(&attack_fragments(ATTACK_FRAGMENTS));
            let ix = prep
                .query(&dfa, &Budget::unlimited(), QueryMode::EarlyExit)
                .expect("unlimited budget");
            prop_assert!(ix.is_empty(), "alphabet {:?}", String::from_utf8_lossy(prep.alphabet()));
        }
    }

    #[test]
    fn spelling_from_an_alphabet_folds_case() {
        let spells = |alpha: &[u8]| spellable(ATTACK_FRAGMENTS, alpha);
        // Digits alone cannot spell any fragment.
        assert!(!spells(b"0123456789"));
        // Any alphabet containing ';' can spell the ';' fragment.
        assert!(spells(b"0123456789;"));
        // "--" needs only '-'.
        assert!(spells(b"-"));
        // Case folding: either case spells a fragment, whatever case
        // the fragment list uses.
        assert!(spells(b"DROPTABLE "));
        assert!(spells(b"droptable "));
        // Letters without space/punctuation cannot spell the
        // multi-word fragments, '--', ';', '#', or '/*'.
        assert!(!spells(b"abcdefghijklmnopqrstuvwxyz"));
    }

    #[test]
    fn unspellable_alphabet_implies_no_match() {
        // The soundness direction: if no fragment is spellable from
        // `alpha`, no string over `alpha` matches. Exhaustively check
        // short strings over a small unspellable alphabet.
        let alpha = b"0123456789";
        assert!(!spellable(ATTACK_FRAGMENTS, alpha));
        let dfa = attack_fragments(ATTACK_FRAGMENTS);
        let mut stack: Vec<Vec<u8>> = vec![Vec::new()];
        while let Some(s) = stack.pop() {
            assert!(!dfa.accepts(&s));
            if s.len() < 3 {
                for &b in alpha {
                    let mut t = s.clone();
                    t.push(b);
                    stack.push(t);
                }
            }
        }
    }

    /// `root -> pre X post` with `X` tainted over `strings`.
    fn harness(pre: &[u8], strings: &[&[u8]], post: &[u8]) -> (Cfg, NtId) {
        let mut g = Cfg::new();
        let x = g.add_nonterminal("_GET[v]");
        g.set_taint(x, Taint::DIRECT);
        for s in strings {
            g.add_literal_production(x, s);
        }
        let root = g.add_nonterminal("arg");
        let mut rhs = g.literal_symbols(pre);
        rhs.push(Symbol::N(x));
        rhs.extend(g.literal_symbols(post));
        g.add_production(root, rhs);
        (g, root)
    }

    fn check(policy: &str, g: &Cfg, root: NtId) -> HotspotReport {
        PolicyChecker::new().check_hotspot_cached(policy, g, root, &Budget::unlimited())
    }

    #[test]
    fn shell_metachar_reported_with_example() {
        let (g, root) = harness(b"convert thumb/", &[b"a.png", b"x; rm -rf ~"], b" out.png");
        let r = check("shell", &g, root);
        assert_eq!(r.findings.len(), 1, "{r}");
        assert_eq!(r.findings[0].kind, CheckKind::ShellMetachar);
        assert!(r.findings[0].witness.is_some());
        // The witness splices into the full command skeleton.
        let eg = r.findings[0].example_query.as_deref().expect("example");
        assert!(eg.starts_with(b"convert thumb/"), "{:?}", String::from_utf8_lossy(eg));
    }

    #[test]
    fn shell_word_confined_verifies() {
        let (g, root) = harness(b"convert thumb/", &[b"a.png", b"b_2.png"], b" out.png");
        let r = check("shell", &g, root);
        assert!(r.is_safe(), "{r}");
        assert_eq!(r.verified, 1);
    }

    #[test]
    fn shell_whitespace_hits_residual() {
        let (g, root) = harness(b"ls ", &[b"a b"], b"");
        let r = check("shell", &g, root);
        assert_eq!(r.findings.len(), 1, "{r}");
        assert_eq!(r.findings[0].kind, CheckKind::ShellUnconfined);
    }

    #[test]
    fn path_traversal_and_absolute_reported() {
        let (g, root) = harness(b"pages/", &[b"home.php", b"../../etc/passwd"], b"");
        let r = check("path", &g, root);
        assert_eq!(r.findings.len(), 1, "{r}");
        assert_eq!(r.findings[0].kind, CheckKind::PathTraversal);

        let (g, root) = harness(b"", &[b"/etc/passwd"], b"");
        let r = check("path", &g, root);
        assert_eq!(r.findings.len(), 1, "{r}");
        assert_eq!(r.findings[0].kind, CheckKind::PathAbsolute);
    }

    #[test]
    fn path_relative_verifies() {
        let (g, root) = harness(b"pages/", &[b"home", b"about_us"], b".php");
        let r = check("path", &g, root);
        assert!(r.is_safe(), "{r}");
    }

    #[test]
    fn eval_code_tokens_reported_identifier_verifies() {
        let (g, root) = harness(b"$x = ", &[b"1", b"phpinfo()"], b";");
        let r = check("eval", &g, root);
        assert_eq!(r.findings.len(), 1, "{r}");
        assert_eq!(r.findings[0].kind, CheckKind::CodeInjection);

        let (g, root) = harness(b"$x = ", &[b"price", b"name_2"], b";");
        let r = check("eval", &g, root);
        assert!(r.is_safe(), "{r}");
    }

    #[test]
    fn xss_raw_output_in_text_reported() {
        let (g, root) = harness(
            b"<p>Hello ",
            &[b"bob", b"<script>alert(1)</script>"],
            b"</p>",
        );
        let r = check("xss", &g, root);
        assert!(!r.is_safe());
        assert!(r.findings[0].detail.contains("open a tag"));
    }

    #[test]
    fn xss_escaped_output_in_text_verifies() {
        // htmlspecialchars output: no angle brackets survive.
        let (g, root) = harness(b"<p>", &[b"bob", b"a&lt;b&gt;c"], b"</p>");
        assert!(check("xss", &g, root).is_safe());
    }

    #[test]
    fn xss_attribute_breakout_reported() {
        let (g, root) = harness(
            br#"<a href="profile.php?u="#,
            &[b"bob", br#"x" onmouseover="alert(1)"#],
            br#"">me</a>"#,
        );
        let r = check("xss", &g, root);
        assert!(!r.is_safe());
        assert!(r.findings[0].detail.contains("double-quoted attribute"));
    }

    #[test]
    fn xss_quoted_attribute_with_safe_values_verifies() {
        let (g, root) = harness(br#"<a href=""#, &[b"a.php", b"b.php"], br#"">x</a>"#);
        assert!(check("xss", &g, root).is_safe());
    }

    #[test]
    fn xss_tag_interior_word_is_tolerated() {
        let (g, root) = harness(b"<div class=", &[b"wide", b"narrow"], b">x</div>");
        assert!(check("xss", &g, root).is_safe());
    }

    #[test]
    fn xss_tag_interior_payload_reported() {
        let (g, root) = harness(b"<div class=", &[b"x onload=alert(1)"], b">x</div>");
        assert!(!check("xss", &g, root).is_safe());
    }

    #[test]
    fn xss_untainted_output_trivially_safe() {
        let mut g = Cfg::new();
        let root = g.literal_nonterminal("html", b"<p>static</p>");
        let r = check("xss", &g, root);
        assert!(r.is_safe());
        assert_eq!(r.checked, 0);
    }

    #[test]
    fn budget_trip_is_conservative_for_generic_policies() {
        let (g, root) = harness(b"ls ", &[b"a", b"b; id"], b"");
        let pc = PolicyChecker::new();
        let tiny = Budget::new(None, Some(1), None);
        let r = pc.check_hotspot_cached("shell", &g, root, &tiny);
        assert!(!r.is_safe(), "exhausted budget must not verify: {r}");
        assert!(r.findings.iter().all(|f| f.kind == CheckKind::BudgetExhausted));
        assert!(!r.degradations.is_empty());
    }

    #[test]
    fn shared_caches_never_answer_across_policies() {
        // One checker's query cache and prepared memo serve every
        // cascade. Checking the same grammar under every policy in
        // turn must give each policy exactly the report a fresh
        // checker gives it: the DFA fingerprint in every cache key
        // keeps the policies apart.
        let (g, root) = harness(b"<p>", &[b"a.png", b"<b>'; ../x"], b"</p>");
        let shared = PolicyChecker::new();
        let budget = Budget::unlimited();
        for policy in ["sql", "xss", "shell", "path", "eval", "sql", "xss"] {
            let warm = shared.check_hotspot_cached(policy, &g, root, &budget);
            let cold = check(policy, &g, root);
            assert_eq!(warm.verified, cold.verified, "{policy}");
            assert_eq!(warm.findings.len(), cold.findings.len(), "{policy}");
            for (w, c) in warm.findings.iter().zip(&cold.findings) {
                assert_eq!(w.kind, c.kind, "{policy}");
                assert_eq!(w.witness, c.witness, "{policy}");
                assert_eq!(w.example_query, c.example_query, "{policy}");
                assert_eq!(w.detail, c.detail, "{policy}");
            }
        }
    }

    #[test]
    fn sql_view_matches_the_sql_policy() {
        let mut g = Cfg::new();
        let x = g.add_nonterminal("_GET[id]");
        g.set_taint(x, Taint::DIRECT);
        g.add_literal_production(x, b"1'; DROP TABLE t; --");
        let root = g.add_nonterminal("query");
        let mut rhs = g.literal_symbols(b"SELECT * FROM t WHERE id='");
        rhs.push(Symbol::N(x));
        rhs.extend(g.literal_symbols(b"'"));
        g.add_production(root, rhs);
        let a = check("sql", &g, root);
        let b = Checker::new().check_hotspot(&g, root);
        assert_eq!(a.findings.len(), 1);
        assert_eq!(a.findings.len(), b.findings.len());
        assert_eq!(a.findings[0].kind, b.findings[0].kind);
        assert_eq!(a.findings[0].witness, b.findings[0].witness);
        // Unknown ids fall back to the SQL cascade.
        let c = check("no-such-policy", &g, root);
        assert_eq!(c.findings[0].kind, a.findings[0].kind);
    }

    #[test]
    fn parallel_multi_policy_matches_serial() {
        let mut g = Cfg::new();
        let x = g.add_nonterminal("_GET[f]");
        g.set_taint(x, Taint::DIRECT);
        g.add_literal_production(x, b"ok");
        g.add_literal_production(x, b"../secret");
        let mk = |g: &mut Cfg, pre: &[u8]| {
            let root = g.add_nonterminal("arg");
            let mut rhs = g.literal_symbols(pre);
            rhs.push(Symbol::N(x));
            g.add_production(root, rhs);
            root
        };
        let r1 = mk(&mut g, b"cat ");
        let r2 = mk(&mut g, b"pages/");
        let r3 = mk(&mut g, b"");
        let items = vec![
            (r1, "shell".to_string()),
            (r2, "path".to_string()),
            (r3, "eval".to_string()),
        ];
        let pc = PolicyChecker::new();
        let budget = Budget::unlimited();
        let serial: Vec<_> = items
            .iter()
            .map(|(r, p)| pc.check_hotspot_cached(p, &g, *r, &budget))
            .collect();
        let parallel = pc.check_hotspots_with(&g, &items, &budget, 4, Evidence::Verdicts);
        assert_eq!(serial.len(), parallel.len());
        for (s, p) in serial.iter().zip(&parallel) {
            assert_eq!(s.findings.len(), p.findings.len());
            assert_eq!(s.verified, p.verified);
            for (sf, pf) in s.findings.iter().zip(&p.findings) {
                assert_eq!(sf.kind, pf.kind);
                assert_eq!(sf.witness, pf.witness);
            }
        }
    }
}
