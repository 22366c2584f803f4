//! IR → grammar emission (the back half of the staged pipeline).
//!
//! The [`Emitter`] walks a file's lowered IR with a flow-sensitive
//! [`Env`], producing grammar productions exactly as the original
//! single-pass builder did: assignments and concatenation become
//! productions (paper Fig. 5), control-flow joins become alternative
//! productions, loops become recursive productions closed after one
//! body pass, transducer applications become grammar images — built
//! on demand, see [`crate::emit_image`] — and refinements become
//! grammar–automaton intersections (§3.1.2).
//! Everything configuration-dependent — sources, sinks, fetch models,
//! include overrides — is decided here, never at lowering, which is
//! what keeps [`crate::summary`] summaries shareable across pages.

use std::collections::{BTreeSet, HashMap, HashSet};
use std::rc::Rc;
use std::sync::Arc;

use strtaint_automata::{ClassDfa, Dfa};
use strtaint_grammar::budget::{Budget, BudgetExceeded, DegradeAction, Degradation};
use strtaint_grammar::{Cfg, NtId, PreparedGrammar, QueryMode, Symbol, Taint};

use crate::builder::{Analysis, Hotspot, Provenance};
use crate::config::Config;
use crate::emit_image::Pending;
use crate::env::{Env, KEY_SEP};
use crate::frontend::FrontendSet;
use crate::ir::*;
use crate::sinks::SinkTable;
use crate::summary::SummaryCache;
use crate::vfs::Vfs;

/// The grammar of `L(cfg, nt) ∩ L(dfa)`, taint labels propagated
/// (paper Fig. 7 `TAINTIF`), built by the prepared engine — the product
/// a refinement or an include-layout resolution splices in. Charges
/// `budget` per discovery, per worklist pop and per rebuilt triple.
pub(crate) fn product_grammar(
    cfg: &Cfg,
    nt: NtId,
    dfa: &Dfa,
    budget: &Budget,
) -> Result<(Cfg, NtId), BudgetExceeded> {
    PreparedGrammar::new(cfg, nt)
        .query(&ClassDfa::new(dfa), budget, QueryMode::Full)?
        .grammar(budget)
}

/// Control flow outcome of a statement sequence.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Flow {
    /// Falls through.
    Cont,
    /// Terminates (exit/return) — the branch's environment does not
    /// join back. This is what makes `if (!check($x)) exit;` refine
    /// `$x` on the fall-through path (crucial for Figure 2 precision).
    Term,
}

/// A registered user function or method: its summary IR plus the file
/// it was declared in (hotspots inside the body belong to that file).
#[derive(Debug, Clone)]
pub(crate) struct FnEntry {
    pub(crate) ir: Arc<FuncIr>,
    pub(crate) file: String,
    pub(crate) summary: u64,
}

pub(crate) struct Emitter<'a> {
    pub(crate) vfs: &'a Vfs,
    pub(crate) config: &'a Config,
    /// Policy-driven sink recognition (built once from the config's
    /// enabled-policy set and the `strtaint-policy` registry).
    pub(crate) sinks: SinkTable,
    pub(crate) cfg: Cfg,
    pub(crate) summaries: &'a SummaryCache,
    /// Enabled frontends + extension dispatch (entry and includes are
    /// lowered by whichever frontend claims their extension).
    pub(crate) frontends: FrontendSet,
    pub(crate) functions: HashMap<String, FnEntry>,
    /// Class methods, dispatched by bare method name (classless
    /// over-approximation; clashes merge conservatively by first
    /// registration).
    pub(crate) methods: HashMap<String, FnEntry>,
    pub(crate) hotspots: Vec<Hotspot>,
    pub(crate) echo_sinks: Vec<Hotspot>,
    pub(crate) warnings: Vec<String>,
    pub(crate) unmodeled: BTreeSet<String>,
    pub(crate) lit_cache: HashMap<Vec<u8>, NtId>,
    pub(crate) lang_cache: HashMap<&'static str, NtId>,
    pub(crate) any_nt: NtId,
    pub(crate) empty_nt: NtId,
    pub(crate) include_once: HashSet<String>,
    pub(crate) call_stack: Vec<String>,
    pub(crate) return_stack: Vec<Vec<NtId>>,
    pub(crate) declared_globals: Vec<HashSet<String>>,
    pub(crate) open_headers: Vec<NtId>,
    pub(crate) global_sets: HashMap<String, Vec<NtId>>,
    pub(crate) constants: HashMap<String, NtId>,
    pub(crate) cur_file: String,
    /// Content hash of the summary currently being emitted (IR
    /// provenance for hotspots).
    pub(crate) cur_summary: u64,
    pub(crate) files_analyzed: usize,
    /// Distinct files read so far (entry + resolved includes).
    pub(crate) inputs: BTreeSet<String>,
    pub(crate) layout: Option<Rc<Dfa>>,
    /// Shared resource budget for this page's grammar operations.
    pub(crate) budget: Budget,
    /// Sound precision losses from budget trips.
    pub(crate) degradations: Vec<Degradation>,
    /// Transducer images applied but not yet computed, by placeholder.
    pub(crate) pending: HashMap<NtId, Pending>,
}

/// Root variable of an environment key (`a␀k` → `a`, `o->p` → `o`).
pub(crate) fn root_var(key: &str) -> &str {
    key.split(KEY_SEP)
        .next()
        .unwrap_or(key)
        .split("->")
        .next()
        .unwrap_or(key)
}

impl<'a> Emitter<'a> {
    pub(crate) fn new(
        vfs: &'a Vfs,
        config: &'a Config,
        budget: Budget,
        summaries: &'a SummaryCache,
    ) -> Self {
        let mut cfg = Cfg::new();
        let any_nt = cfg.any_string_nt();
        let empty_nt = cfg.add_nonterminal("ε");
        cfg.add_production(empty_nt, vec![]);
        Emitter {
            vfs,
            config,
            sinks: SinkTable::new(config),
            cfg,
            summaries,
            frontends: FrontendSet::from_config(config),
            functions: HashMap::new(),
            methods: HashMap::new(),
            hotspots: Vec::new(),
            echo_sinks: Vec::new(),
            warnings: Vec::new(),
            unmodeled: BTreeSet::new(),
            lit_cache: HashMap::new(),
            lang_cache: HashMap::new(),
            any_nt,
            empty_nt,
            include_once: HashSet::new(),
            call_stack: Vec::new(),
            return_stack: Vec::new(),
            declared_globals: Vec::new(),
            open_headers: Vec::new(),
            global_sets: HashMap::new(),
            constants: HashMap::new(),
            cur_file: String::new(),
            cur_summary: 0,
            files_analyzed: 0,
            inputs: BTreeSet::new(),
            layout: None,
            budget,
            degradations: Vec::new(),
            pending: HashMap::new(),
        }
    }

    /// Finishes the page: forces every image the checked sinks read
    /// (the enabled policies' hotspots, plus echo sinks when `xss` is
    /// on), so no returned root reaches a placeholder. Images nothing
    /// checked reads are never computed.
    pub(crate) fn into_analysis(mut self) -> Analysis {
        let roots: Vec<NtId> = (self.hotspots.iter().chain(&self.echo_sinks))
            .map(|h| h.root)
            .collect();
        self.force(&roots);
        Analysis {
            cfg: self.cfg,
            hotspots: self.hotspots,
            echo_sinks: self.echo_sinks,
            warnings: self.warnings,
            unmodeled: self.unmodeled,
            files_analyzed: self.files_analyzed,
            inputs: self.inputs,
            degradations: self.degradations,
        }
    }

    pub(crate) fn warn(&mut self, msg: impl Into<String>) {
        self.warnings.push(format!("{}: {}", self.cur_file, msg.into()));
    }

    /// Records a budget trip and the sound fallback applied at `what`.
    pub(crate) fn degrade(&mut self, err: BudgetExceeded, what: &str, action: DegradeAction) {
        let site = format!("{}@{}", what, self.cur_file);
        self.warn(format!("{what}: {err}; {action}"));
        self.degradations.push(Degradation {
            resource: err.resource,
            site,
            action,
        });
    }

    // ------------------------------------------------------ helpers

    pub(crate) fn literal_nt(&mut self, bytes: &[u8]) -> NtId {
        if let Some(&nt) = self.lit_cache.get(bytes) {
            return nt;
        }
        let name = format!("lit:{:.12}", String::from_utf8_lossy(bytes));
        let nt = self.cfg.add_nonterminal(name);
        self.cfg.add_literal_production(nt, bytes);
        self.lit_cache.insert(bytes.to_vec(), nt);
        nt
    }

    /// A nonterminal for a fixed regular "result language" such as
    /// numeric literals; cached per language.
    pub(crate) fn lang_nt(&mut self, key: &'static str) -> NtId {
        if let Some(&nt) = self.lang_cache.get(key) {
            return nt;
        }
        let nt = match key {
            "num" => {
                // -? digits (. digits)?
                let digits = self.cfg.add_nonterminal("digits");
                for b in b'0'..=b'9' {
                    self.cfg.add_production(digits, vec![Symbol::T(b)]);
                    self.cfg
                        .add_production(digits, vec![Symbol::T(b), Symbol::N(digits)]);
                }
                let num = self.cfg.add_nonterminal("NUM");
                self.cfg.add_production(num, vec![Symbol::N(digits)]);
                self.cfg
                    .add_production(num, vec![Symbol::T(b'-'), Symbol::N(digits)]);
                self.cfg.add_production(
                    num,
                    vec![Symbol::N(digits), Symbol::T(b'.'), Symbol::N(digits)],
                );
                self.cfg.add_production(
                    num,
                    vec![
                        Symbol::T(b'-'),
                        Symbol::N(digits),
                        Symbol::T(b'.'),
                        Symbol::N(digits),
                    ],
                );
                num
            }
            "hex" => self.charset_star_nt("HEX", |b| {
                b.is_ascii_digit() || (b'a'..=b'f').contains(&b)
            }),
            "b64" => self.charset_star_nt("B64", |b| {
                b.is_ascii_alphanumeric() || b == b'+' || b == b'/' || b == b'='
            }),
            "urlsafe" => self.charset_star_nt("URLSAFE", |b| {
                b.is_ascii_alphanumeric() || matches!(b, b'-' | b'_' | b'.' | b'%' | b'+')
            }),
            "bool" => {
                let nt = self.cfg.add_nonterminal("BOOL");
                self.cfg.add_production(nt, vec![]);
                self.cfg.add_production(nt, vec![Symbol::T(b'1')]);
                nt
            }
            _ => unreachable!("unknown language key {key}"),
        };
        self.lang_cache.insert(key, nt);
        nt
    }

    fn charset_star_nt(&mut self, name: &str, allow: impl Fn(u8) -> bool) -> NtId {
        let nt = self.cfg.add_nonterminal(name);
        self.cfg.add_production(nt, vec![]);
        for b in 0..=255u8 {
            if allow(b) {
                self.cfg.add_production(nt, vec![Symbol::T(b), Symbol::N(nt)]);
            }
        }
        nt
    }

    /// A fresh source nonterminal deriving Σ* with the given taint.
    pub(crate) fn source_nt(&mut self, name: String, taint: Taint) -> NtId {
        let nt = self.cfg.add_nonterminal(name);
        self.cfg.add_production(nt, vec![Symbol::N(self.any_nt)]);
        self.cfg.set_taint(nt, taint);
        nt
    }

    /// Union of taints of all nonterminals reachable from `nt`
    /// (walk proportional to the reachable subgraph, with early exit).
    /// Forces the placeholders the walk reaches before the exit.
    pub(crate) fn reachable_taint(&mut self, nt: NtId) -> Taint {
        let mut seen: HashSet<NtId> = HashSet::new();
        let mut stack = vec![nt];
        seen.insert(nt);
        let mut t = Taint::NONE;
        while let Some(id) = stack.pop() {
            if self.cfg.productions(id).is_empty() {
                self.force_image(id);
            }
            t = t.union(self.cfg.taint(id));
            if t.is_direct() && t.is_indirect() {
                break;
            }
            for rhs in self.cfg.productions(id) {
                for s in rhs {
                    if let Symbol::N(sub) = s {
                        if seen.insert(*sub) {
                            stack.push(*sub);
                        }
                    }
                }
            }
        }
        t
    }

    pub(crate) fn args_taint(&mut self, args: &[NtId]) -> Taint {
        let mut t = Taint::NONE;
        for &a in args {
            t = t.union(self.reachable_taint(a));
        }
        t
    }

    /// Σ* with the union of the given argument taints — the sound
    /// fallback result.
    pub(crate) fn any_with_taint(&mut self, name: &str, taint: Taint) -> NtId {
        if taint.is_empty() {
            return self.any_nt;
        }
        self.source_nt(format!("widened:{name}"), taint)
    }

    /// `true` if `nt` can reach a loop header whose back-productions
    /// are not yet closed; transducing or intersecting such a grammar
    /// would under-approximate, so callers must widen instead (this is
    /// the paper's "string operations in cycles must be approximated").
    /// A structural walk: it steps from a placeholder to its operand
    /// and forces nothing.
    pub(crate) fn reaches_open_header(&self, nt: NtId) -> bool {
        if self.open_headers.is_empty() {
            return false;
        }
        let mut seen: HashSet<NtId> = HashSet::new();
        let mut stack = vec![nt];
        seen.insert(nt);
        while let Some(id) = stack.pop() {
            if self.open_headers.contains(&id) {
                return true;
            }
            if let Some(p) = self.pending.get(&id) {
                if seen.insert(p.operand) {
                    stack.push(p.operand);
                }
            }
            for rhs in self.cfg.productions(id) {
                for s in rhs {
                    if let Symbol::N(sub) = s {
                        if seen.insert(*sub) {
                            stack.push(*sub);
                        }
                    }
                }
            }
        }
        false
    }

    /// Intersects the grammar rooted at `nt` with a DFA, splicing the
    /// result into the arena. Inside open loops, returns `nt`
    /// unrefined (sound).
    pub(crate) fn intersect_nt(&mut self, nt: NtId, dfa: &Dfa, what: &str) -> NtId {
        if self.reaches_open_header(nt) {
            self.warn(format!("{what} refinement on loop-carried value skipped"));
            return nt;
        }
        self.force(&[nt]);
        let budget = self.budget.clone();
        match product_grammar(&self.cfg, nt, dfa, &budget) {
            Ok((g2, r2)) => self.cfg.import_from(&g2, r2),
            Err(err) => {
                // Sound: the unrefined language is a superset of the
                // intersection.
                self.degrade(err, what, DegradeAction::KeptUnrefined);
                nt
            }
        }
    }

    // ------------------------------------------- structure traversal

    pub(crate) fn register_functions(&mut self, stmts: &[IrStmt]) {
        for s in stmts {
            match s {
                IrStmt::DeclFunc(d) => {
                    let file = self.cur_file.clone();
                    let summary = self.cur_summary;
                    self.functions.entry(d.name.clone()).or_insert_with(|| FnEntry {
                        ir: Arc::clone(d),
                        file,
                        summary,
                    });
                }
                IrStmt::DeclClass(ms) => {
                    for m in ms {
                        let file = self.cur_file.clone();
                        let summary = self.cur_summary;
                        self.methods.entry(m.name.clone()).or_insert_with(|| FnEntry {
                            ir: Arc::clone(m),
                            file,
                            summary,
                        });
                    }
                }
                _ => {}
            }
        }
    }

    pub(crate) fn emit_stmts(&mut self, stmts: &[IrStmt], env: &mut Env) -> Flow {
        for s in stmts {
            if self.emit_stmt(s, env) == Flow::Term {
                return Flow::Term;
            }
        }
        Flow::Cont
    }

    fn emit_stmt(&mut self, stmt: &IrStmt, env: &mut Env) -> Flow {
        match stmt {
            IrStmt::Eval(e) => {
                self.eval(e, env);
                Flow::Cont
            }
            IrStmt::Sink { args, span } => {
                for (a, arg_span) in args {
                    let nt = self.eval(a, env);
                    // Recorded only when a policy checks echo output,
                    // so the images only echo reads stay unbuilt.
                    if let Some(policy) = self.sinks.echo_policy {
                        self.echo_sinks.push(Hotspot {
                            file: self.cur_file.clone(),
                            span: *span,
                            label: "echo".to_owned(),
                            root: nt,
                            policy: policy.to_owned(),
                            provenance: Provenance {
                                summary: self.cur_summary,
                                arg_span: Some(*arg_span),
                            },
                        });
                    }
                }
                Flow::Cont
            }
            IrStmt::Nop => Flow::Cont,
            IrStmt::Block(body) => self.emit_stmts(body, env),
            IrStmt::If {
                cond,
                then,
                elifs,
                els,
            } => {
                self.eval(&cond.pre, env);
                let mut branches: Vec<Env> = Vec::new();
                let mut then_env = env.clone();
                self.apply_refine(&cond.refine, &mut then_env, true);
                if self.emit_stmts(then, &mut then_env) == Flow::Cont {
                    branches.push(then_env);
                }
                let mut rest = env.clone();
                self.apply_refine(&cond.refine, &mut rest, false);
                for (c, body) in elifs {
                    self.eval(&c.pre, &mut rest);
                    let mut b_env = rest.clone();
                    self.apply_refine(&c.refine, &mut b_env, true);
                    if self.emit_stmts(body, &mut b_env) == Flow::Cont {
                        branches.push(b_env);
                    }
                    self.apply_refine(&c.refine, &mut rest, false);
                }
                match els {
                    Some(body) => {
                        if self.emit_stmts(body, &mut rest) == Flow::Cont {
                            branches.push(rest);
                        }
                    }
                    None => branches.push(rest),
                }
                if branches.is_empty() {
                    return Flow::Term;
                }
                *env = Env::join_all(&mut self.cfg, &branches, self.empty_nt);
                Flow::Cont
            }
            IrStmt::Loop {
                init,
                cond,
                step,
                body,
                phis,
            } => {
                for e in init {
                    self.eval(e, env);
                }
                self.emit_loop(env, cond.as_ref(), body, step, phis);
                Flow::Cont
            }
            IrStmt::Foreach {
                subject,
                key,
                value,
                body,
                phis,
            } => {
                let elems = self.elements_of(subject, env);
                let subj_taint = self.reachable_taint(elems);
                if let Some(k) = key {
                    let key_nt = self.any_with_taint("foreach-key", subj_taint);
                    env.set(k.clone(), key_nt);
                }
                // The value variable is re-bound to an element on every
                // iteration — it is not loop-carried, so it gets no
                // widening header (bodies that *reassign* it are caught
                // by the assigned-variable pre-scan).
                env.set(value.clone(), elems);
                self.emit_loop(env, None, body, &[], phis);
                Flow::Cont
            }
            IrStmt::Switch {
                subject,
                subject_key,
                cases,
            } => {
                self.eval(subject, env);
                let mut branches: Vec<Env> = Vec::new();
                let mut has_default = false;
                for case in cases {
                    let mut c_env = env.clone();
                    match &case.label {
                        Some(l) => {
                            self.eval(&l.expr, &mut c_env);
                            if let (Some(key), Some(bytes)) = (subject_key, &l.lit) {
                                self.refine_to_literal(key, bytes, &mut c_env);
                            }
                        }
                        None => has_default = true,
                    }
                    if self.emit_stmts(&case.body, &mut c_env) == Flow::Cont {
                        branches.push(c_env);
                    }
                }
                if !has_default {
                    branches.push(env.clone());
                }
                if branches.is_empty() {
                    return Flow::Term;
                }
                *env = Env::join_all(&mut self.cfg, &branches, self.empty_nt);
                Flow::Cont
            }
            IrStmt::Return(v) => {
                let nt = match v {
                    Some(e) => self.eval(e, env),
                    None => self.empty_nt,
                };
                if let Some(frame) = self.return_stack.last_mut() {
                    frame.push(nt);
                }
                Flow::Term
            }
            IrStmt::Break | IrStmt::Continue => Flow::Cont,
            IrStmt::Exit(v) => {
                if let Some(e) = v {
                    self.eval(e, env);
                }
                Flow::Term
            }
            IrStmt::DeclFunc(d) => {
                let file = self.cur_file.clone();
                let summary = self.cur_summary;
                self.functions.entry(d.name.clone()).or_insert_with(|| FnEntry {
                    ir: Arc::clone(d),
                    file,
                    summary,
                });
                Flow::Cont
            }
            IrStmt::DeclClass(ms) => {
                for m in ms {
                    let file = self.cur_file.clone();
                    let summary = self.cur_summary;
                    self.methods.entry(m.name.clone()).or_insert_with(|| FnEntry {
                        ir: Arc::clone(m),
                        file,
                        summary,
                    });
                }
                Flow::Cont
            }
            IrStmt::Global(names) => {
                for n in names {
                    let sets = self.global_sets.get(n).cloned().unwrap_or_default();
                    let nt = match sets.as_slice() {
                        [] => self.empty_nt,
                        [one] => *one,
                        many => {
                            let j = self.cfg.add_nonterminal(format!("global:{n}"));
                            for &m in many {
                                self.cfg.add_production(j, vec![Symbol::N(m)]);
                            }
                            j
                        }
                    };
                    env.set(n.clone(), nt);
                    if let Some(declared) = self.declared_globals.last_mut() {
                        declared.insert(n.clone());
                    }
                }
                Flow::Cont
            }
            IrStmt::Unset(keys) => {
                for k in keys {
                    env.unset(k);
                }
                Flow::Cont
            }
            IrStmt::Include { kind, arg, line } => {
                self.handle_include(*kind, arg, *line, env);
                Flow::Cont
            }
        }
    }

    /// Emits a loop: creates header nonterminals for the φ-set
    /// (variables assigned in the body), runs one body pass, and closes
    /// the recursion with back-productions.
    fn emit_loop(
        &mut self,
        env: &mut Env,
        cond: Option<&Cond>,
        body: &[IrStmt],
        step: &[IrExpr],
        phis: &[String],
    ) {
        // Create headers.
        let mut headers: Vec<(String, NtId)> = Vec::new();
        for var in phis {
            let pre = env.get(var).unwrap_or(self.empty_nt);
            let h = self.cfg.add_nonterminal(format!("{var}@loop"));
            self.cfg.add_production(h, vec![Symbol::N(pre)]);
            env.set(var.clone(), h);
            headers.push((var.clone(), h));
            self.open_headers.push(h);
        }
        if let Some(c) = cond {
            self.eval(&c.pre, env);
        }
        let mut body_env = env.clone();
        if let Some(c) = cond {
            self.apply_refine(&c.refine, &mut body_env, true);
        }
        let flow = self.emit_stmts(body, &mut body_env);
        if flow == Flow::Cont {
            for e in step {
                self.eval(e, &mut body_env);
            }
        }
        // Close the recursion.
        for (var, h) in &headers {
            let end = body_env.get(var).unwrap_or(self.empty_nt);
            if end != *h {
                self.cfg.add_production(*h, vec![Symbol::N(end)]);
            }
        }
        for _ in &headers {
            self.open_headers.pop();
        }
        // After the loop the header binding stands for "any number of
        // iterations"; refine with the negated condition.
        if let Some(c) = cond {
            self.apply_refine(&c.refine, env, false);
        }
    }

    pub(crate) fn elements_of(&mut self, subject: &IrExpr, env: &mut Env) -> NtId {
        let nt = self.eval(subject, env);
        if let IrExpr::Var(name) = subject {
            let keys = env.element_keys(name);
            if !keys.is_empty() {
                let mut parts: Vec<NtId> =
                    keys.iter().filter_map(|k| env.get(k)).collect();
                if env.get(name).is_some() {
                    parts.push(nt);
                }
                parts.sort();
                parts.dedup();
                if parts.len() == 1 {
                    return parts[0];
                }
                let j = self.cfg.add_nonterminal(format!("elems:{name}"));
                for p in parts {
                    self.cfg.add_production(j, vec![Symbol::N(p)]);
                }
                return j;
            }
        }
        nt
    }

    pub(crate) fn numeric_result(&mut self, taint: Taint) -> NtId {
        let num = self.lang_nt("num");
        if taint.is_empty() {
            return num;
        }
        let nt = self.cfg.add_nonterminal("num†");
        self.cfg.add_production(nt, vec![Symbol::N(num)]);
        self.cfg.set_taint(nt, taint);
        nt
    }

    pub(crate) fn wrap_lang(&mut self, lang: NtId, taint: Taint, name: &str) -> NtId {
        if taint.is_empty() {
            return lang;
        }
        let nt = self.cfg.add_nonterminal(name);
        self.cfg.add_production(nt, vec![Symbol::N(lang)]);
        self.cfg.set_taint(nt, taint);
        nt
    }

    /// Binds `value` to the environment key of an assignment target
    /// (`None` = unsupported lvalue, warned and ignored).
    pub(crate) fn assign_lvalue_key(&mut self, key: Option<&str>, value: NtId, env: &mut Env) {
        let Some(key) = key else {
            self.warn("assignment to unsupported lvalue ignored");
            return;
        };
        // `$a[] = v` / `$a[$dyn] = v` accumulate rather than replace.
        if key.ends_with(&format!("{KEY_SEP}*")) {
            let prior = env.get(key);
            let nt = match prior {
                Some(p) if p != value => {
                    let j = self.cfg.add_nonterminal("accum");
                    self.cfg.add_production(j, vec![Symbol::N(p)]);
                    self.cfg.add_production(j, vec![Symbol::N(value)]);
                    j
                }
                _ => value,
            };
            env.set(key.to_owned(), nt);
        } else {
            env.set(key.to_owned(), value);
        }
        // Record global bindings for `global` declarations in functions.
        let at_top = self.call_stack.is_empty();
        let declared = self
            .declared_globals
            .last()
            .is_some_and(|d| d.contains(root_var(key)));
        if at_top || declared {
            self.global_sets.entry(key.to_owned()).or_default().push(value);
        }
    }

    // Include handling (layout intersection, overrides, once-guards,
    // and the path-policy include sink) lives in `crate::emit_include`.
}
