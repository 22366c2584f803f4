//! The policy driver: one [`PolicyChecker`] runs every enabled policy
//! through one candidate loop over the prepared intersection engine.
//!
//! A policy contributes only its cascade — the per-candidate
//! `check_one` logic. The hand-built SQL (C1–C5) and XSS cascades live
//! in `checks` and `xss`; every other policy is a data-defined
//! [`Cascade`] from the `strtaint-policy` registry, run here as the
//! registry's executable semantics (see the cascade contract in
//! `strtaint_policy::registry`): for each maximal labeled nonterminal
//! `X` of a hotspot, steps run in order against `L(X)`; a
//! `VerifyIfEmpty` step with an empty intersection verifies `X`, a
//! `ReportIfNonEmpty` step with a non-empty intersection reports its
//! witness, and the residual decides anything that falls through.
//!
//! Everything around `check_one` is shared: the `maximal_labeled`
//! walk, the `Engine` session over the checker's one query cache and
//! prepared memo, the per-candidate span, and the budget discipline —
//! a trip yields a conservative `BudgetExhausted` finding and a
//! degradation, never a silent "verified".

use strtaint_grammar::budget::{Budget, BudgetExceeded, DegradeAction};
use strtaint_grammar::lang::shortest_string;
use strtaint_grammar::prepared::PreparedCache;
use strtaint_grammar::{Cfg, NtId};
use strtaint_policy::{Cascade, CheckKind, PolicyKind, Residual, StepAction};

use crate::abstraction::maximal_labeled;
use crate::checks::{CheckOptions, SqlCascade};
use crate::engine::{run_parallel, Engine, Qdfa, Shared};
use crate::report::{Finding, HotspotReport};
use crate::xss::XssCascade;

/// A data-defined policy compiled for the intersection engine: every
/// cascade DFA in byte-class form, built once per checker.
#[derive(Debug, Clone)]
struct StepCascade {
    steps: Vec<(Qdfa, StepAction)>,
    residual: Residual,
}

impl StepCascade {
    fn new(cascade: &Cascade) -> Self {
        StepCascade {
            steps: cascade
                .steps
                .iter()
                .map(|s| (Qdfa::new(s.dfa.clone()), s.action.clone()))
                .collect(),
            residual: cascade.residual.clone(),
        }
    }

    fn check_one(
        &self,
        cfg: &Cfg,
        root: NtId,
        x: NtId,
        budget: &Budget,
        engine: &mut Engine<'_>,
    ) -> Result<Option<Finding>, BudgetExceeded> {
        // One prepared grammar serves every step of the cascade and,
        // via the shared cache, any other hotspot reaching `x`. An
        // empty L(X) has nothing to check.
        let Some(mut tx) = engine.target(cfg, x) else {
            return Ok(None);
        };
        for (q, action) in &self.steps {
            match action {
                StepAction::VerifyIfEmpty => {
                    if engine.is_empty(&mut tx, q, budget)? {
                        return Ok(None);
                    }
                }
                StepAction::ReportIfNonEmpty { kind, detail } => {
                    let (empty, witness) =
                        engine.is_empty_or_witness(&mut tx, q, budget, (cfg, x))?;
                    if !empty {
                        let detail = (*detail).to_owned();
                        return Ok(Some(engine.finding(cfg, root, x, *kind, witness, detail)));
                    }
                }
            }
        }
        match &self.residual {
            Residual::Verified => Ok(None),
            Residual::Report { kind, detail } => {
                let (witness, detail) = (shortest_string(cfg, x), (*detail).to_owned());
                Ok(Some(engine.finding(cfg, root, x, *kind, witness, detail)))
            }
        }
    }
}

/// One policy's per-candidate check logic.
#[derive(Debug, Clone)]
enum PolicyCascade {
    Sql(SqlCascade),
    Xss(XssCascade),
    Steps(StepCascade),
}

impl PolicyCascade {
    fn check_one(
        &self,
        cfg: &Cfg,
        root: NtId,
        x: NtId,
        all: &[NtId],
        budget: &Budget,
        engine: &mut Engine<'_>,
    ) -> Result<Option<Finding>, BudgetExceeded> {
        match self {
            PolicyCascade::Sql(c) => c.check_one(cfg, root, x, all, budget, engine),
            PolicyCascade::Xss(c) => c.check_one(cfg, root, x, budget, engine),
            PolicyCascade::Steps(c) => c.check_one(cfg, root, x, budget, engine),
        }
    }
}

/// One checker for every built-in policy: each policy's cascade,
/// selected by the policy id a hotspot carries, run through one
/// candidate loop over one query cache and prepared memo.
#[derive(Debug, Clone)]
pub struct PolicyChecker {
    /// `(policy id, cascade)` in registry order.
    cascades: Vec<(&'static str, PolicyCascade)>,
    shared: Shared,
}

impl PolicyChecker {
    /// Builds a checker for every built-in policy with default options.
    pub fn new() -> Self {
        Self::with_options(CheckOptions::default())
    }

    /// Builds a checker for every built-in policy. The SQL-specific
    /// options (`max_contexts`, `cheap_first`, `prefilter`) shape the
    /// SQL cascade; the engine options (`naive_engine`, `query_cache`,
    /// `eager_witness`) apply to every cascade.
    pub fn with_options(opts: CheckOptions) -> Self {
        let cascades = strtaint_policy::builtin()
            .iter()
            .map(|p| {
                let cascade = match &p.kind {
                    PolicyKind::SqlCiv => PolicyCascade::Sql(SqlCascade::new(&opts)),
                    PolicyKind::Xss => PolicyCascade::Xss(XssCascade::new()),
                    PolicyKind::Cascade(c) => PolicyCascade::Steps(StepCascade::new(c)),
                };
                (p.id, cascade)
            })
            .collect();
        PolicyChecker {
            cascades,
            shared: Shared::new(&opts),
        }
    }

    /// Stamps the config-fingerprint namespace for cross-page verdict
    /// memoization. Verdicts computed under one scope can never answer
    /// queries made under another; drivers call this whenever the
    /// effective analysis `Config` changes (mirroring the artifact
    /// store, which keys evidence by the same fingerprint).
    pub fn set_query_scope(&self, scope: u64) {
        self.shared.set_query_scope(scope);
    }

    /// Exports one hotspot's canonical skeleton set (see
    /// [`crate::skeletons`]). Shares the prepared memo with the checks
    /// and witness splicing, so exporting after a check is a warm
    /// lookup.
    pub fn skeletons_for(&self, cfg: &Cfg, root: NtId) -> (Vec<Vec<u8>>, bool) {
        self.shared.skeletons_for(cfg, root)
    }

    /// Checks one hotspot under the named policy, sharing `cache` so
    /// prepared grammars are reused across the hotspots of one page.
    /// Unknown ids fall back to the SQL cascade (cannot happen for
    /// hotspots produced by the analysis layer, which only tags
    /// registry ids).
    ///
    /// A budget trip while checking a labeled nonterminal yields a
    /// [`CheckKind::BudgetExhausted`] finding and a degradation record —
    /// the nonterminal is *never* counted verified. This is the sound
    /// direction: exhaustion can only add false positives.
    ///
    /// `cache` must be scoped to `cfg`: it is keyed by root [`NtId`]
    /// only, and ids from different grammars collide.
    pub fn check_hotspot_cached(
        &self,
        policy: &str,
        cfg: &Cfg,
        root: NtId,
        budget: &Budget,
        cache: &PreparedCache,
    ) -> HotspotReport {
        let (id, cascade) = self
            .cascades
            .iter()
            .find(|(id, _)| *id == policy)
            .or_else(|| {
                self.cascades
                    .iter()
                    .find(|(id, _)| *id == strtaint_policy::SQL_POLICY)
            })
            .expect("the registry defines the sql policy");
        let span = match cascade {
            PolicyCascade::Xss(_) => "check:xss",
            _ => "check",
        };
        let mut report = HotspotReport::default();
        let candidates = maximal_labeled(cfg, root);
        report.checked = candidates.len();
        let mut engine = Engine::new(cache, &self.shared);
        for &x in &candidates {
            let _span = strtaint_obs::Span::enter_with(span, || cfg.name(x).to_owned());
            match cascade.check_one(cfg, root, x, &candidates, budget, &mut engine) {
                Ok(None) => report.verified += 1,
                Ok(Some(finding)) => report.findings.push(finding),
                Err(err) => {
                    // The SQL cascade keeps its historical unprefixed site.
                    let site = match cascade {
                        PolicyCascade::Sql(_) => format!("check:{}", cfg.name(x)),
                        _ => format!("{id}-check:{}", cfg.name(x)),
                    };
                    let action = DegradeAction::MarkedUnverified;
                    let finding = Finding::new(cfg, x, CheckKind::BudgetExhausted, err.to_string());
                    report.degradations.push(budget.degradation(err, site, action));
                    report.findings.push(finding);
                }
            }
        }
        report.engine = engine.stats;
        for f in &mut report.findings {
            f.cap_witness();
        }
        report
    }

    /// Checks every `(root, policy)` hotspot of one page, on up to
    /// `workers` threads, returning reports in input order.
    ///
    /// Hotspots are independent given the immutable `cfg`; a shared
    /// [`PreparedCache`] lets them reuse each other's prepared
    /// grammars (sinks frequently share roots or labeled sources). A
    /// worker panic propagates to the caller unchanged, so page-level
    /// fault isolation behaves exactly as in the serial loop.
    pub fn check_hotspots_with(
        &self,
        cfg: &Cfg,
        items: &[(NtId, String)],
        budget: &Budget,
        workers: usize,
    ) -> Vec<HotspotReport> {
        let cache = PreparedCache::new();
        run_parallel(items, workers, |(root, policy)| {
            self.check_hotspot_cached(policy, cfg, *root, budget, &cache)
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

    /// See [`PolicyChecker::set_query_scope`].
    pub fn set_query_scope(&self, scope: u64) {
        self.0.set_query_scope(scope);
    }

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
        let cache = PreparedCache::new();
        self.0
            .check_hotspot_cached(strtaint_policy::SQL_POLICY, cfg, root, budget, &cache)
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
        self.0.check_hotspots_with(cfg, &items, budget, workers)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use strtaint_grammar::{Symbol, Taint};

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
        PolicyChecker::new().check_hotspot_cached(
            policy,
            g,
            root,
            &Budget::unlimited(),
            &PreparedCache::new(),
        )
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
    fn budget_trip_is_conservative_for_generic_policies() {
        let (g, root) = harness(b"ls ", &[b"a", b"b; id"], b"");
        let pc = PolicyChecker::new();
        let tiny = Budget::new(None, Some(1), None);
        let r = pc.check_hotspot_cached("shell", &g, root, &tiny, &PreparedCache::new());
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
            let cache = PreparedCache::new();
            let warm = shared.check_hotspot_cached(policy, &g, root, &budget, &cache);
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
            .map(|(r, p)| pc.check_hotspot_cached(p, &g, *r, &budget, &PreparedCache::new()))
            .collect();
        let parallel = pc.check_hotspots_with(&g, &items, &budget, 4);
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
