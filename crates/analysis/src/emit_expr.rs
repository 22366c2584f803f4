//! Expression emission: IR expressions → grammar nonterminals.
//!
//! The companion to [`crate::emit`], holding the expression half of the
//! [`Emitter`](crate::emit::Emitter): literals, interpolation, variable
//! and source lookups, assignment forms, and the full call pipeline
//! (hotspots, fetch sources, user functions, builtin models). String
//! functions whose models need constant arguments ([`CallPrep`]) reuse
//! the transducers prepared once at lowering instead of rebuilding them
//! per call site.

use std::collections::HashSet;
use std::sync::Arc;

use strtaint_grammar::{NtId, Symbol, Taint};
use strtaint_php::Span;

use crate::builder::{Hotspot, Provenance};
use crate::builtins::{self, Model};
use crate::emit::{root_var, Emitter, FnEntry};
use crate::env::{Env, KEY_SEP};
use crate::ir::*;

impl Emitter<'_> {
    pub(crate) fn eval(&mut self, e: &IrExpr, env: &mut Env) -> NtId {
        match e {
            IrExpr::Empty => self.empty_nt,
            IrExpr::Const(bytes) => self.literal_nt(bytes),
            IrExpr::Interp(parts) => {
                let mut rhs: Vec<Symbol> = Vec::new();
                for p in parts {
                    match p {
                        IrPart::Lit(bytes) => {
                            rhs.extend(bytes.iter().map(|&b| Symbol::T(b)));
                        }
                        IrPart::Expr(sub) => {
                            let nt = self.eval(sub, env);
                            rhs.push(Symbol::N(nt));
                        }
                    }
                }
                let nt = self.cfg.add_nonterminal("interp");
                self.cfg.add_production(nt, rhs);
                nt
            }
            IrExpr::Var(v) => {
                if let Some(nt) = env.get(v) {
                    return nt;
                }
                if self.config.direct_superglobals.iter().any(|s| s == v) {
                    let nt = self.source_nt(format!("{v}[*]"), Taint::DIRECT);
                    env.set(v.clone(), nt);
                    return nt;
                }
                if self.config.indirect_globals.iter().any(|s| s == v) {
                    let nt = self.source_nt(format!("{v}[*]"), Taint::INDIRECT);
                    env.set(v.clone(), nt);
                    return nt;
                }
                self.empty_nt
            }
            IrExpr::ConstFetch(name) => {
                if let Some(&nt) = self.constants.get(name) {
                    return nt;
                }
                match name.as_str() {
                    "PHP_EOL" => self.literal_nt(b"\n"),
                    _ => self.literal_nt(name.as_bytes()),
                }
            }
            IrExpr::Index { side, key, base } => {
                // Evaluate dynamic indexes for side effects.
                if let Some(s) = side {
                    self.eval(s, env);
                }
                if let Some((full, base_key)) = key {
                    if let Some(nt) = env.get(full) {
                        return nt;
                    }
                    let root = root_var(full);
                    if self.config.direct_superglobals.iter().any(|s| s == root) {
                        let display = crate::env::clean_key(full);
                        let nt = self.source_nt(display, Taint::DIRECT);
                        env.set(full.clone(), nt);
                        return nt;
                    }
                    if self.config.indirect_globals.iter().any(|s| s == root) {
                        let display = crate::env::clean_key(full);
                        let nt = self.source_nt(display, Taint::INDIRECT);
                        env.set(full.clone(), nt);
                        return nt;
                    }
                    // Unknown element of a known array: join all known
                    // elements plus the array binding.
                    if full.ends_with(&format!("{KEY_SEP}*")) {
                        return self.elements_of(base, env);
                    }
                    // Element of an array-valued binding (fetch rows,
                    // explode results): the collapsed representation
                    // stores the element language on the array variable.
                    if let Some(base_nt) = env.get(base_key) {
                        if base_nt != self.empty_nt {
                            env.set(full.clone(), base_nt);
                            return base_nt;
                        }
                    }
                    return self.empty_nt;
                }
                // Indexing a computed value: keep taint, widen.
                let base_nt = self.eval(base, env);
                let t = self.reachable_taint(base_nt);
                self.any_with_taint("index", t)
            }
            IrExpr::Prop { key, base } => {
                if let Some(key) = key {
                    if let Some(nt) = env.get(key) {
                        return nt;
                    }
                    let root = root_var(key);
                    if self.config.indirect_globals.iter().any(|s| s == root) {
                        let nt = self.source_nt(key.clone(), Taint::INDIRECT);
                        env.set(key.clone(), nt);
                        return nt;
                    }
                    return self.empty_nt;
                }
                let base_nt = self.eval(base, env);
                let t = self.reachable_taint(base_nt);
                self.any_with_taint("prop", t)
            }
            IrExpr::AssignList { keys, rhs } => {
                // list($a, $b) = expr — each variable receives the
                // collapsed element language (array order is lost, as
                // with explode, paper §3.1.3).
                let rv = self.eval(rhs, env);
                for k in keys.iter().flatten() {
                    env.set(k.clone(), rv);
                }
                rv
            }
            IrExpr::AssignArrayLit { base_key, items } => {
                self.assign_array_lit(base_key, items, env)
            }
            IrExpr::Assign { key, op, rhs } => {
                let rv = self.eval(rhs, env);
                let value = match op {
                    AssignOp::Plain => rv,
                    AssignOp::Concat => {
                        let old = match key {
                            Some(k) => env.get(k).unwrap_or(self.empty_nt),
                            None => self.empty_nt,
                        };
                        let nt = self.cfg.add_nonterminal("concat=");
                        self.cfg
                            .add_production(nt, vec![Symbol::N(old), Symbol::N(rv)]);
                        nt
                    }
                    AssignOp::Arith => {
                        let t = self.reachable_taint(rv);
                        self.numeric_result(t)
                    }
                };
                self.assign_lvalue_key(key.as_deref(), value, env);
                value
            }
            IrExpr::IncDec { key } => {
                let t = match key {
                    Some(k) => env
                        .get(k)
                        .map(|nt| self.reachable_taint(nt))
                        .unwrap_or(Taint::NONE),
                    None => Taint::NONE,
                };
                let nt = self.numeric_result(t);
                self.assign_lvalue_key(key.as_deref(), nt, env);
                nt
            }
            IrExpr::Ternary { cond, then, els } => {
                let cond_nt = self.eval(&cond.pre, env);
                let mut t_env = env.clone();
                self.apply_refine(&cond.refine, &mut t_env, true);
                let t_nt = match then {
                    Some(t) => self.eval(t, &mut t_env),
                    None => cond_nt,
                };
                let mut e_env = env.clone();
                self.apply_refine(&cond.refine, &mut e_env, false);
                let e_nt = self.eval(els, &mut e_env);
                *env = Env::join(&mut self.cfg, &t_env, &e_env, self.empty_nt);
                if t_nt == e_nt {
                    t_nt
                } else {
                    let j = self.cfg.add_nonterminal("ternary");
                    self.cfg.add_production(j, vec![Symbol::N(t_nt)]);
                    self.cfg.add_production(j, vec![Symbol::N(e_nt)]);
                    j
                }
            }
            IrExpr::Concat(a, b) => {
                let na = self.eval(a, env);
                let nb = self.eval(b, env);
                let nt = self.cfg.add_nonterminal("concat");
                self.cfg.add_production(nt, vec![Symbol::N(na), Symbol::N(nb)]);
                nt
            }
            IrExpr::Numeric(args) => {
                let arg_nts: Vec<NtId> = args.iter().map(|a| self.eval(a, env)).collect();
                let t = self.args_taint(&arg_nts);
                self.numeric_result(t)
            }
            IrExpr::BoolOf(args) => {
                for a in args {
                    self.eval(a, env);
                }
                self.lang_nt("bool")
            }
            IrExpr::ArrayLit(items) => {
                let mut parts: Vec<NtId> = Vec::new();
                for (k, v) in items {
                    if let Some(key) = k {
                        self.eval(key, env);
                    }
                    parts.push(self.eval(v, env));
                }
                parts.sort();
                parts.dedup();
                match parts.as_slice() {
                    [] => self.empty_nt,
                    [one] => *one,
                    many => {
                        let j = self.cfg.add_nonterminal("array");
                        for &p in many {
                            self.cfg.add_production(j, vec![Symbol::N(p)]);
                        }
                        j
                    }
                }
            }
            IrExpr::New(args) => {
                // Constructors are not inlined; the object value itself
                // carries no string language.
                for a in args {
                    self.eval(a, env);
                }
                self.any_nt
            }
            IrExpr::Call(c) => self.eval_call(c, env),
            IrExpr::MethodCall(m) => {
                self.eval(&m.obj, env);
                self.eval_sink_or_fetch(
                    &format!("->{}", m.method),
                    &m.method,
                    &m.args,
                    &m.arg_keys,
                    m.span,
                    &m.arg_spans,
                    None,
                    env,
                )
            }
        }
    }

    fn assign_array_lit(
        &mut self,
        base_key: &str,
        items: &[(String, IrExpr)],
        env: &mut Env,
    ) -> NtId {
        // Clear prior elements.
        for k in env.element_keys(base_key) {
            env.unset(&k);
        }
        env.unset(base_key);
        let mut parts: Vec<NtId> = Vec::new();
        for (key, v) in items {
            let nt = self.eval(v, env);
            parts.push(nt);
            env.set(format!("{base_key}{KEY_SEP}{key}"), nt);
        }
        parts.sort();
        parts.dedup();
        let joined = match parts.as_slice() {
            [] => self.empty_nt,
            [one] => *one,
            many => {
                let j = self.cfg.add_nonterminal(format!("arraylit:{base_key}"));
                for &p in many {
                    self.cfg.add_production(j, vec![Symbol::N(p)]);
                }
                j
            }
        };
        if self.call_stack.is_empty() {
            self.global_sets
                .entry(base_key.to_owned())
                .or_default()
                .push(joined);
        }
        joined
    }

    // ------------------------------------------------------ calls

    fn eval_call(&mut self, c: &CallIr, env: &mut Env) -> NtId {
        // define() tracks program constants.
        if let CallPrep::Define(cname) = &c.prep {
            if let Some(a1) = c.args.get(1) {
                let nt = self.eval(a1, env);
                let cname = cname.clone();
                self.constants.insert(cname, nt);
                return self.lang_nt("bool");
            }
        }
        // User-defined functions take precedence over builtins, as in
        // PHP (redefinition of builtins is an error, so order rarely
        // matters; applications define helpers like unp_msg()).
        if let Some(entry) = self.functions.get(&c.name).cloned() {
            return self.eval_user_call(&entry, &c.args, &c.arg_keys, env);
        }
        self.eval_sink_or_fetch(
            &c.name,
            &c.name,
            &c.args,
            &c.arg_keys,
            c.span,
            &c.arg_spans,
            Some(&c.prep),
            env,
        )
    }

    /// Shared path for free functions and method calls: hotspots,
    /// fetch sources, then builtins.
    #[allow(clippy::too_many_arguments)]
    fn eval_sink_or_fetch(
        &mut self,
        label: &str,
        bare: &str,
        args: &[IrExpr],
        arg_keys: &[Option<String>],
        span: Span,
        arg_spans: &[Span],
        prep: Option<&CallPrep>,
        env: &mut Env,
    ) -> NtId {
        if let Some(entry) = self.sinks.lookup(label.starts_with("->"), bare) {
            let arg_nts: Vec<NtId> = args.iter().map(|a| self.eval(a, env)).collect();
            for i in entry.positions(arg_nts.len()) {
                let Some(&root) = arg_nts.get(i) else {
                    continue;
                };
                let file = self.cur_file.clone();
                self.hotspots.push(Hotspot {
                    file,
                    span,
                    label: label.to_owned(),
                    root,
                    policy: entry.policy.to_owned(),
                    provenance: Provenance {
                        summary: self.cur_summary,
                        arg_span: arg_spans.get(i).copied(),
                    },
                });
            }
            if entry.policy == strtaint_policy::SQL_POLICY {
                return self.cfg.add_nonterminal("dbresult");
            }
            // Non-SQL sinks return shell output / file contents / eval
            // results: widen, keeping the arguments' taint.
            let t = self.args_taint(&arg_nts);
            return self.any_with_taint(bare, t);
        }
        if self.config.fetch_functions.iter().any(|m| m == bare) {
            for a in args {
                self.eval(a, env);
            }
            return self.source_nt(format!("fetch:{label}"), Taint::INDIRECT);
        }
        if label.starts_with("->") {
            // Application-defined methods: dispatch by bare name (the
            // classless over-approximation; real receivers are rarely
            // ambiguous in this code base style).
            if let Some(entry) = self.methods.get(bare).cloned() {
                return self.eval_user_call(&entry, args, arg_keys, env);
            }
            for a in args {
                self.eval(a, env);
            }
            // Unknown method: widen, untainted (configured methods cover
            // the DB layer; others are application objects).
            self.unmodeled.insert(label.to_owned());
            return self.any_nt;
        }
        self.eval_builtin(bare, args, prep, span, env)
    }

    fn eval_user_call(
        &mut self,
        entry: &FnEntry,
        args: &[IrExpr],
        arg_keys: &[Option<String>],
        env: &mut Env,
    ) -> NtId {
        let decl = &entry.ir;
        if self.call_stack.len() >= self.config.max_call_depth
            || self.call_stack.iter().any(|n| n == &decl.name)
        {
            let arg_nts: Vec<NtId> = args.iter().map(|a| self.eval(a, env)).collect();
            let t = self.args_taint(&arg_nts);
            self.warn(format!(
                "call to {} widened (recursion or depth limit)",
                decl.name
            ));
            return self.any_with_taint(&decl.name, t);
        }
        let mut callee_env = Env::new();
        let mut ref_backs: Vec<(usize, String)> = Vec::new();
        for (i, p) in decl.params.iter().enumerate() {
            let nt = match args.get(i) {
                Some(a) => {
                    let nt = self.eval(a, env);
                    if p.by_ref {
                        if let Some(k) = arg_keys.get(i).and_then(|k| k.clone()) {
                            ref_backs.push((i, k));
                        }
                    }
                    nt
                }
                None => match &p.default {
                    Some(d) => self.eval(d, env),
                    None => self.empty_nt,
                },
            };
            callee_env.set(p.name.clone(), nt);
        }
        // Extra args evaluated for effects.
        for a in args.iter().skip(decl.params.len()) {
            self.eval(a, env);
        }
        self.call_stack.push(decl.name.clone());
        self.return_stack.push(Vec::new());
        self.declared_globals.push(HashSet::new());
        // Hotspots inside the body belong to the file that defines the
        // function, not the calling page.
        let prev_file = std::mem::replace(&mut self.cur_file, entry.file.clone());
        let prev_summary = std::mem::replace(&mut self.cur_summary, entry.summary);
        self.emit_stmts(&decl.body, &mut callee_env);
        self.cur_file = prev_file;
        self.cur_summary = prev_summary;
        self.declared_globals.pop();
        let returns = self.return_stack.pop().expect("frame pushed");
        self.call_stack.pop();
        for (i, key) in ref_backs {
            if let Some(nt) = callee_env.get(&decl.params[i].name) {
                env.set(key, nt);
            }
        }
        match returns.as_slice() {
            [] => self.empty_nt,
            [one] => *one,
            many => {
                let j = self.cfg.add_nonterminal(format!("ret:{}", decl.name));
                let mut uniq = many.to_vec();
                uniq.sort();
                uniq.dedup();
                for nt in uniq {
                    self.cfg.add_production(j, vec![Symbol::N(nt)]);
                }
                j
            }
        }
    }

    fn eval_builtin(
        &mut self,
        name: &str,
        args: &[IrExpr],
        prep: Option<&CallPrep>,
        span: Span,
        env: &mut Env,
    ) -> NtId {
        let model = builtins::lookup(name);
        let Some(model) = model else {
            let arg_nts: Vec<NtId> = args.iter().map(|a| self.eval(a, env)).collect();
            let t = self.args_taint(&arg_nts);
            self.unmodeled.insert(name.to_owned());
            return self.any_with_taint(name, t);
        };
        match model {
            Model::Identity => match args.first() {
                Some(a) => self.eval(a, env),
                None => self.empty_nt,
            },
            Model::Transducer(kind) => {
                let nt = match args.first() {
                    Some(a) => self.eval(a, env),
                    None => self.empty_nt,
                };
                for a in args.iter().skip(1) {
                    self.eval(a, env);
                }
                // The lowered call carries the transducer; rebuild only
                // if this call reached us without one (method path).
                match prep {
                    Some(CallPrep::Apply(fst)) => self.apply_fst(nt, fst, name),
                    _ => self.apply_fst(nt, &Arc::new(builtins::transducer_fst(kind)), name),
                }
            }
            Model::Numeric => {
                let arg_nts: Vec<NtId> = args.iter().map(|a| self.eval(a, env)).collect();
                let t = self.args_taint(&arg_nts);
                self.numeric_result(t)
            }
            Model::HexToken => {
                let arg_nts: Vec<NtId> = args.iter().map(|a| self.eval(a, env)).collect();
                let t = self.args_taint(&arg_nts);
                let hex = self.lang_nt("hex");
                self.wrap_lang(hex, t, "hex†")
            }
            Model::Base64 => {
                let arg_nts: Vec<NtId> = args.iter().map(|a| self.eval(a, env)).collect();
                let t = self.args_taint(&arg_nts);
                let b = self.lang_nt("b64");
                self.wrap_lang(b, t, "b64†")
            }
            Model::UrlSafe => {
                let arg_nts: Vec<NtId> = args.iter().map(|a| self.eval(a, env)).collect();
                let t = self.args_taint(&arg_nts);
                let u = self.lang_nt("urlsafe");
                self.wrap_lang(u, t, "urlsafe†")
            }
            Model::AnyKeepTaint => {
                let arg_nts: Vec<NtId> = args.iter().map(|a| self.eval(a, env)).collect();
                let t = self.args_taint(&arg_nts);
                self.any_with_taint(name, t)
            }
            Model::AnyUntainted => {
                for a in args {
                    self.eval(a, env);
                }
                self.any_nt
            }
            Model::ConstEmpty => {
                for a in args {
                    self.eval(a, env);
                }
                self.empty_nt
            }
            Model::Bool => {
                for a in args {
                    self.eval(a, env);
                }
                self.lang_nt("bool")
            }
            Model::StrReplace => self.eval_str_replace(args, prep, env),
            Model::PregReplace { .. } => self.eval_preg_replace(args, prep, span, env),
            Model::Sprintf => self.eval_sprintf(args, prep, env),
            Model::Implode => self.eval_implode(args, prep, env),
            Model::Explode => self.eval_explode(args, prep, env),
            Model::StrRepeat => self.eval_str_repeat(args, prep, env),
        }
    }

    fn eval_str_replace(
        &mut self,
        args: &[IrExpr],
        prep: Option<&CallPrep>,
        env: &mut Env,
    ) -> NtId {
        if args.len() < 3 {
            return self.empty_nt;
        }
        let subj = self.eval(&args[2], env);
        // PHP semantics: pattern i is replaced by replacement i (or ""
        // / the scalar); the chain was prepared at lowering and applies
        // sequentially.
        if let Some(CallPrep::ReplaceChain(Some(chain))) = prep {
            let mut cur = subj;
            for fst in chain.iter() {
                cur = self.apply_fst(cur, fst, "str_replace");
            }
            return cur;
        }
        self.eval(&args[0], env);
        self.eval(&args[1], env);
        let t = self.reachable_taint(subj);
        self.any_with_taint("str_replace", t)
    }

    fn eval_preg_replace(
        &mut self,
        args: &[IrExpr],
        prep: Option<&CallPrep>,
        span: Span,
        env: &mut Env,
    ) -> NtId {
        if args.len() < 3 {
            return self.empty_nt;
        }
        let subj = self.eval(&args[2], env);
        // The deprecated `/e` modifier evaluates the replacement as PHP
        // with match captures substituted in — an eval-class sink on the
        // subject string (only when the eval policy is enabled).
        if let Some(policy) = self.sinks.preg_replace_e {
            if let IrExpr::Const(pat) = &args[0] {
                if crate::sinks::pattern_has_e_modifier(pat) {
                    self.hotspots.push(Hotspot {
                        file: self.cur_file.clone(),
                        span,
                        label: "preg_replace/e".to_owned(),
                        root: subj,
                        policy: policy.to_owned(),
                        provenance: Provenance {
                            summary: self.cur_summary,
                            arg_span: None,
                        },
                    });
                }
            }
        }
        if let Some(CallPrep::RegexReplace(Some(fst))) = prep {
            return self.apply_fst(subj, fst, "preg_replace");
        }
        self.eval(&args[0], env);
        self.eval(&args[1], env);
        let t = self.reachable_taint(subj);
        self.any_with_taint("preg_replace", t)
    }

    fn eval_sprintf(
        &mut self,
        args: &[IrExpr],
        prep: Option<&CallPrep>,
        env: &mut Env,
    ) -> NtId {
        let plan = match prep {
            Some(CallPrep::Sprintf(Some(p))) => p.clone(),
            _ => {
                let nts: Vec<NtId> = args.iter().map(|a| self.eval(a, env)).collect();
                let t = self.args_taint(&nts);
                return self.any_with_taint("sprintf", t);
            }
        };
        let mut rhs: Vec<Symbol> = Vec::new();
        for part in &plan.parts {
            match part {
                SprintfPart::Lit(bytes) => {
                    rhs.extend(bytes.iter().map(|&b| Symbol::T(b)));
                }
                SprintfPart::Str(idx) => {
                    let nt = match args.get(*idx) {
                        Some(a) => self.eval(a, env),
                        None => self.empty_nt,
                    };
                    rhs.push(Symbol::N(nt));
                }
                SprintfPart::Num(idx) => {
                    let t = match args.get(*idx) {
                        Some(a) => {
                            let nt = self.eval(a, env);
                            self.reachable_taint(nt)
                        }
                        None => Taint::NONE,
                    };
                    let nt = self.numeric_result(t);
                    rhs.push(Symbol::N(nt));
                }
                SprintfPart::Hex(idx) => {
                    if let Some(a) = args.get(*idx) {
                        self.eval(a, env);
                    }
                    let nt = self.lang_nt("hex");
                    rhs.push(Symbol::N(nt));
                }
            }
        }
        if !plan.ok {
            // Malformed directive: re-evaluate everything (matching the
            // single-pass scan, which bails mid-format) and widen.
            let nts: Vec<NtId> = args.iter().map(|a| self.eval(a, env)).collect();
            let t = self.args_taint(&nts);
            return self.any_with_taint("sprintf", t);
        }
        // Remaining args: evaluate for effects.
        for a in args.iter().skip(plan.consumed.max(1)) {
            self.eval(a, env);
        }
        let nt = self.cfg.add_nonterminal("sprintf");
        self.cfg.add_production(nt, rhs);
        nt
    }

    fn eval_implode(
        &mut self,
        args: &[IrExpr],
        prep: Option<&CallPrep>,
        env: &mut Env,
    ) -> NtId {
        if args.len() < 2 {
            if let Some(a) = args.first() {
                let nt = self.eval(a, env);
                let t = self.reachable_taint(nt);
                return self.any_with_taint("implode", t);
            }
            return self.empty_nt;
        }
        let glue = match prep {
            Some(CallPrep::Implode(g)) => g.clone(),
            _ => None,
        };
        let elems = self.elements_of(&args[1], env);
        let Some(glue) = glue else {
            self.eval(&args[0], env);
            let t = self.reachable_taint(elems);
            return self.any_with_taint("implode", t);
        };
        // R → E | E glue R  (any count, order lost — like the paper's
        // explode treatment).
        let r = self.cfg.add_nonterminal("implode");
        self.cfg.add_production(r, vec![Symbol::N(elems)]);
        let mut rhs = vec![Symbol::N(elems)];
        rhs.extend(glue.iter().map(|&b| Symbol::T(b)));
        rhs.push(Symbol::N(r));
        self.cfg.add_production(r, rhs);
        r
    }

    fn eval_explode(
        &mut self,
        args: &[IrExpr],
        prep: Option<&CallPrep>,
        env: &mut Env,
    ) -> NtId {
        if args.len() < 2 {
            return self.empty_nt;
        }
        let subj = self.eval(&args[1], env);
        if let Some(CallPrep::Explode(Some(fst))) = prep {
            return self.apply_fst(subj, fst, "explode");
        }
        self.eval(&args[0], env);
        let t = self.reachable_taint(subj);
        self.any_with_taint("explode", t)
    }

    fn eval_str_repeat(
        &mut self,
        args: &[IrExpr],
        prep: Option<&CallPrep>,
        env: &mut Env,
    ) -> NtId {
        if args.len() < 2 {
            return self.empty_nt;
        }
        let base = self.eval(&args[0], env);
        // Constant small counts unroll exactly; anything else becomes
        // "any number of repetitions" (a recursive production) — an
        // over-approximation that preserves the alphabet and taint.
        match prep {
            Some(CallPrep::Repeat(Some(n))) => {
                let nt = self.cfg.add_nonterminal("str_repeat");
                self.cfg.add_production(nt, vec![Symbol::N(base); *n]);
                nt
            }
            _ => {
                self.eval(&args[1], env);
                let nt = self.cfg.add_nonterminal("str_repeat*");
                self.cfg.add_production(nt, vec![]);
                self.cfg
                    .add_production(nt, vec![Symbol::N(base), Symbol::N(nt)]);
                nt
            }
        }
    }
}
