//! The template/JS-flavored frontend: `strtaint-tpl` parsing plus its
//! own AST→IR walk, behind the [`Frontend`] trait.
//!
//! The lowering honors the same contract as [`crate::lower`] (see the
//! module docs there): it is config-independent, decides everything
//! decidable from source text alone (environment keys, constant
//! folding, φ pre-scans, refinement DFAs, transducer payloads), and
//! expresses sources and sinks in shared IR vocabulary so the emitter,
//! the [`SinkTable`](crate::sinks), and all policy checkers apply
//! unchanged:
//!
//! - **Sources**: `req.query.x` lowers to the same `IrExpr::Index`
//!   shape as PHP's `$_GET['x']` (environment key `_GET␀x`), so the
//!   emitter's superglobal recognition materializes the taint source.
//!   `req.body`→`_POST`, `req.cookies`→`_COOKIE`, `req.params`→
//!   `_REQUEST`, `req.headers`→`_SERVER`, and `session.x`→`_SESSION`
//!   (indirect taint) follow the same rule.
//! - **Sinks**: `{{ e }}` and `echo e` lower to [`IrStmt::Sink`]
//!   (the XSS/echo sink); `db.query(q)`, `system`/`exec`/`eval`/
//!   `readfile`/... keep their names for the policy registry's sink
//!   tables.
//! - **Sanitizers**: JS-flavored aliases canonicalize to the builtin
//!   model names (`escapeHtml`→`htmlspecialchars`, `escapeSql`→
//!   `addslashes`, `matches`→`preg_match`, ...), so the shared
//!   transducer/refinement machinery applies.
//! - **Concat**: `+` is string concatenation (`IrExpr::Concat`), the
//!   JS-flavored reading that is also the sound one for taint.

use std::collections::BTreeSet;
use std::sync::Arc;

use strtaint_automata::Regex;
use strtaint_php::ast::IncludeKind;
use strtaint_tpl::ast::{
    AssignOp as TAssign, BinOp as TBin, Expr as TExpr, ExprKind as TK, Stmt as TStmt,
    StmtKind as TS, Template, UnaryOp as TUnary,
};

use crate::builtins::{self, Model};
use crate::env::KEY_SEP;
use crate::ir::*;
use crate::lower;

use super::{fingerprint_of, Frontend, FrontendError};

/// Bump when template lowering output changes (invalidates cached
/// summaries lowered under the old semantics).
const LOWERING_VERSION: u32 = 2;

/// The template-language frontend.
#[derive(Debug, Clone, Copy, Default)]
pub struct TplFrontend;

impl Frontend for TplFrontend {
    fn id(&self) -> &'static str {
        "tpl"
    }

    fn extensions(&self) -> &'static [&'static str] {
        &["tpl"]
    }

    fn fingerprint(&self) -> u64 {
        fingerprint_of("tpl", LOWERING_VERSION)
    }

    fn lower(&self, src: &[u8]) -> Result<Vec<IrStmt>, FrontendError> {
        let template = strtaint_tpl::parse(src)?;
        Ok(lower_template(&template))
    }
}

fn span(s: strtaint_tpl::Span) -> strtaint_php::Span {
    strtaint_php::Span::new(s.line, s.col)
}

/// Maps a request/session accessor expression to the superglobal root
/// the emitter recognizes as a taint source.
fn resolve_root(e: &TExpr) -> Option<&'static str> {
    match &e.kind {
        TK::Ident(n) if n == "session" => Some("_SESSION"),
        TK::Member(base, name) => {
            if !matches!(&base.kind, TK::Ident(b) if b == "req" || b == "request") {
                return None;
            }
            match name.as_str() {
                "query" | "get" => Some("_GET"),
                "body" | "post" | "form" => Some("_POST"),
                "cookies" | "cookie" => Some("_COOKIE"),
                "params" => Some("_REQUEST"),
                "headers" => Some("_SERVER"),
                _ => None,
            }
        }
        _ => None,
    }
}

/// Canonicalizes JS-flavored library names to the builtin-model (PHP)
/// names the shared sanitizer/transducer tables use.
fn canon_name(name: &str) -> &str {
    match name {
        "escapeHtml" | "escape_html" => "htmlspecialchars",
        "escapeSql" | "escape_sql" => "addslashes",
        "escapeShell" | "escape_shell" => "escapeshellarg",
        "parseInt" | "toInt" | "to_int" => "intval",
        "matches" => "preg_match",
        "replace" => "str_replace",
        "regexReplace" => "preg_replace",
        "toLowerCase" | "lowercase" => "strtolower",
        "toUpperCase" | "uppercase" => "strtoupper",
        "isNumeric" => "is_numeric",
        _ => name,
    }
}

/// Lowers a parsed template to IR.
pub(crate) fn lower_template(t: &Template) -> Vec<IrStmt> {
    lower_stmts(&t.stmts)
}

fn lower_stmts(stmts: &[TStmt]) -> Vec<IrStmt> {
    stmts.iter().map(lower_stmt).collect()
}

fn lower_stmt(s: &TStmt) -> IrStmt {
    match &s.kind {
        // Literal template text is constant output — like PHP inline
        // HTML, it can never carry taint and lowers to a no-op.
        TS::Text(_) => IrStmt::Nop,
        TS::Output(e) | TS::Echo(e) => IrStmt::Sink {
            args: vec![(lower_expr(e), span(e.span))],
            span: span(s.span),
        },
        TS::Var { name, init } => IrStmt::Eval(IrExpr::Assign {
            key: Some(name.clone()),
            op: AssignOp::Plain,
            rhs: Box::new(init.as_ref().map_or(IrExpr::Empty, lower_expr)),
        }),
        TS::Expr(e) => IrStmt::Eval(lower_expr(e)),
        TS::If {
            cond,
            then,
            elifs,
            els,
        } => IrStmt::If {
            cond: lower_cond(cond),
            then: lower_stmts(then),
            elifs: elifs
                .iter()
                .map(|(c, b)| (lower_cond(c), lower_stmts(b)))
                .collect(),
            els: els.as_ref().map(|b| lower_stmts(b)),
        },
        TS::While { cond, body } => {
            let mut assigned = BTreeSet::new();
            collect_assigned(body, &mut assigned);
            IrStmt::Loop {
                init: Vec::new(),
                cond: Some(lower_cond(cond)),
                step: Vec::new(),
                body: lower_stmts(body),
                phis: assigned.into_iter().collect(),
            }
        }
        TS::For { var, subject, body } => {
            let mut assigned = BTreeSet::new();
            collect_assigned(body, &mut assigned);
            IrStmt::Foreach {
                subject: lower_expr(subject),
                key: None,
                value: var.clone(),
                body: lower_stmts(body),
                phis: assigned.into_iter().collect(),
            }
        }
        TS::Func(f) => IrStmt::DeclFunc(Arc::new(FuncIr {
            name: f.name.clone(),
            params: f
                .params
                .iter()
                .map(|p| ParamIr {
                    name: p.clone(),
                    by_ref: false,
                    default: None,
                })
                .collect(),
            body: lower_stmts(&f.body),
        })),
        TS::Return(v) => IrStmt::Return(v.as_ref().map(lower_expr)),
        TS::Include(arg) => IrStmt::Include {
            kind: IncludeKind::Include,
            arg: lower_expr(arg),
            line: s.span.line,
        },
        TS::Exit => IrStmt::Exit(None),
        TS::Break => IrStmt::Break,
        TS::Continue => IrStmt::Continue,
    }
}

fn lower_expr(e: &TExpr) -> IrExpr {
    match &e.kind {
        TK::Null | TK::False => IrExpr::Empty,
        TK::True => IrExpr::Const(b"1".to_vec()),
        TK::Num(raw) => IrExpr::Const(raw.clone().into_bytes()),
        TK::Str(s) => IrExpr::Const(s.clone()),
        TK::Ident(n) => match resolve_root(e) {
            Some(root) => IrExpr::Var(root.to_owned()),
            None => IrExpr::Var(n.clone()),
        },
        TK::Member(base, name) => {
            // `req.query` alone reads the whole parameter map.
            if let Some(root) = resolve_root(e) {
                return IrExpr::Var(root.to_owned());
            }
            // `req.query.x` — same Index shape as PHP's `$_GET['x']`.
            if let Some(root) = resolve_root(base) {
                return IrExpr::Index {
                    side: None,
                    key: Some((format!("{root}{KEY_SEP}{name}"), root.to_owned())),
                    base: Box::new(IrExpr::Var(root.to_owned())),
                };
            }
            IrExpr::Prop {
                key: lvalue_key(e),
                base: Box::new(lower_expr(base)),
            }
        }
        TK::Index(base, idx) => {
            let side = match const_bytes(idx) {
                None => Some(Box::new(lower_expr(idx))),
                Some(_) => None,
            };
            let key = match (lvalue_key(e), lvalue_key(base)) {
                (Some(full), Some(b)) => Some((full, b)),
                _ => None,
            };
            IrExpr::Index {
                side,
                key,
                base: Box::new(lower_expr(base)),
            }
        }
        TK::Call(callee, args) => match &callee.kind {
            TK::Ident(name) => {
                let cname = canon_name(name);
                IrExpr::Call(Box::new(CallIr {
                    name: cname.to_owned(),
                    args: args.iter().map(lower_expr).collect(),
                    arg_keys: args.iter().map(lvalue_key).collect(),
                    arg_spans: args.iter().map(|a| span(a.span)).collect(),
                    span: span(e.span),
                    prep: call_prep(cname, args),
                }))
            }
            TK::Member(obj, m) => IrExpr::MethodCall(Box::new(MethodCallIr {
                method: m.clone(),
                obj: lower_expr(obj),
                args: args.iter().map(lower_expr).collect(),
                arg_keys: args.iter().map(lvalue_key).collect(),
                arg_spans: args.iter().map(|a| span(a.span)).collect(),
                span: span(e.span),
            })),
            // The parser only accepts names and members as callees.
            _ => IrExpr::BoolOf(args.iter().map(lower_expr).collect()),
        },
        TK::Unary(TUnary::Not, inner) => IrExpr::BoolOf(vec![lower_expr(inner)]),
        TK::Unary(TUnary::Neg, inner) => IrExpr::Numeric(vec![lower_expr(inner)]),
        TK::Binary(op, a, b) => match op {
            // `+` is string concatenation (JS-flavored; also the sound
            // reading for taint tracking).
            TBin::Add => IrExpr::Concat(Box::new(lower_expr(a)), Box::new(lower_expr(b))),
            TBin::Sub | TBin::Mul | TBin::Div | TBin::Mod => {
                IrExpr::Numeric(vec![lower_expr(a), lower_expr(b)])
            }
            _ => IrExpr::BoolOf(vec![lower_expr(a), lower_expr(b)]),
        },
        TK::Ternary(c, t, f) => IrExpr::Ternary {
            cond: Box::new(lower_cond(c)),
            then: Some(Box::new(lower_expr(t))),
            els: Box::new(lower_expr(f)),
        },
        TK::Assign { target, op, value } => IrExpr::Assign {
            key: lvalue_key(target),
            op: match op {
                TAssign::Assign => AssignOp::Plain,
                TAssign::AddAssign => AssignOp::Concat,
            },
            rhs: Box::new(lower_expr(value)),
        },
    }
}

/// Canonical environment key for a template lvalue (same key grammar
/// as the PHP frontend: `base␀index` elements, `base->member` props,
/// superglobal roots for request/session accessors).
fn lvalue_key(e: &TExpr) -> Option<String> {
    match &e.kind {
        TK::Ident(n) => Some(match resolve_root(e) {
            Some(root) => root.to_owned(),
            None => n.clone(),
        }),
        TK::Member(base, name) => {
            if let Some(root) = resolve_root(e) {
                return Some(root.to_owned());
            }
            if let Some(root) = resolve_root(base) {
                return Some(format!("{root}{KEY_SEP}{name}"));
            }
            let base_key = lvalue_key(base)?;
            Some(format!("{base_key}->{name}"))
        }
        TK::Index(base, idx) => {
            let base_key = lvalue_key(base)?;
            let key = match const_bytes(idx) {
                Some(b) => String::from_utf8_lossy(&b).into_owned(),
                None => "*".to_owned(),
            };
            Some(format!("{base_key}{KEY_SEP}{key}"))
        }
        _ => None,
    }
}

/// Constant-folds a template expression to bytes when it is a literal
/// or a concatenation of literals.
fn const_bytes(e: &TExpr) -> Option<Vec<u8>> {
    match &e.kind {
        TK::Str(s) => Some(s.clone()),
        TK::Num(raw) => Some(raw.clone().into_bytes()),
        TK::True => Some(b"1".to_vec()),
        TK::False | TK::Null => Some(Vec::new()),
        TK::Binary(TBin::Add, a, b) => {
            let mut out = const_bytes(a)?;
            out.extend(const_bytes(b)?);
            Some(out)
        }
        _ => None,
    }
}

// ------------------------------------------------------- conditions

fn lower_cond(e: &TExpr) -> Cond {
    Cond {
        pre: lower_expr(e),
        refine: lower_refine(e),
    }
}

fn lower_refine(e: &TExpr) -> Refine {
    match &e.kind {
        TK::Unary(TUnary::Not, inner) => Refine::Not(Box::new(lower_refine(inner))),
        TK::Binary(TBin::And, a, b) => {
            Refine::AndPos(Box::new(lower_refine(a)), Box::new(lower_refine(b)))
        }
        TK::Binary(TBin::Or, a, b) => {
            Refine::OrNeg(Box::new(lower_refine(a)), Box::new(lower_refine(b)))
        }
        TK::Binary(TBin::Eq | TBin::StrictEq, a, b) => lower_refine_eq(a, b),
        TK::Binary(TBin::Neq | TBin::StrictNeq, a, b) => {
            Refine::Not(Box::new(lower_refine_eq(a, b)))
        }
        TK::Call(callee, args) => match &callee.kind {
            TK::Ident(name) => lower_refine_call(canon_name(name), args),
            _ => Refine::None,
        },
        TK::Ident(_) | TK::Member(..) | TK::Index(..) => truthy_refine(e, false),
        TK::Assign {
            target,
            op: TAssign::Assign,
            ..
        } => truthy_refine(target, false),
        _ => Refine::None,
    }
}

fn truthy_refine(target: &TExpr, invert: bool) -> Refine {
    match lvalue_key(target) {
        Some(key) => Refine::Truthy {
            key,
            target: Box::new(lower_expr(target)),
            invert,
        },
        None => Refine::None,
    }
}

fn lower_refine_eq(a: &TExpr, b: &TExpr) -> Refine {
    // Comparisons against boolean literals are truthiness tests.
    let bool_of = |e: &TExpr| match e.kind {
        TK::True => Some(true),
        TK::False => Some(false),
        _ => None,
    };
    if let Some(v) = bool_of(a) {
        return truthy_refine(b, !v);
    }
    if let Some(v) = bool_of(b) {
        return truthy_refine(a, !v);
    }
    let (var_side, c) = match (const_bytes(a), const_bytes(b)) {
        (None, Some(c)) => (a, c),
        (Some(c), None) => (b, c),
        _ => return Refine::None,
    };
    match lvalue_key(var_side) {
        Some(key) => Refine::EqLit {
            key,
            target: Box::new(lower_expr(var_side)),
            bytes: c,
        },
        None => Refine::None,
    }
}

fn lower_refine_call(name: &str, args: &[TExpr]) -> Refine {
    match name {
        "preg_match" if args.len() >= 2 => {
            let Some(pat) = const_bytes(&args[0]) else {
                return Refine::None;
            };
            let pat = String::from_utf8_lossy(&pat).into_owned();
            match Regex::new_delimited(&pat) {
                Ok(re) => dfa_refine(&args[1], re.match_dfa(), "regex", "¬regex"),
                Err(_) => Refine::None,
            }
        }
        "is_numeric" if !args.is_empty() => {
            pattern_refine(&args[0], r"^\s*-?[0-9]+(\.[0-9]+)?\s*$")
        }
        "ctype_digit" if !args.is_empty() => pattern_refine(&args[0], "^[0-9]+$"),
        "ctype_alpha" if !args.is_empty() => pattern_refine(&args[0], "^[A-Za-z]+$"),
        "ctype_alnum" if !args.is_empty() => pattern_refine(&args[0], "^[A-Za-z0-9]+$"),
        "ctype_xdigit" if !args.is_empty() => pattern_refine(&args[0], "^[0-9A-Fa-f]+$"),
        "empty" if !args.is_empty() => truthy_refine(&args[0], true),
        _ => Refine::None,
    }
}

fn pattern_refine(target: &TExpr, pattern: &str) -> Refine {
    let re = Regex::new(pattern).expect("builtin refinement patterns are valid");
    dfa_refine(target, re.match_dfa(), "regex", "¬regex")
}

fn dfa_refine(
    target: &TExpr,
    dfa: strtaint_automata::Dfa,
    pos_what: &'static str,
    neg_what: &'static str,
) -> Refine {
    match lvalue_key(target) {
        Some(key) => Refine::Dfa {
            key,
            target: Box::new(lower_expr(target)),
            dfa: Arc::new(dfa),
            pos_what,
            neg_what,
        },
        None => Refine::None,
    }
}

// ------------------------------------------------------------ calls

fn call_prep(name: &str, args: &[TExpr]) -> CallPrep {
    if name == "define" && args.len() >= 2 {
        if let Some(cname) = const_bytes(&args[0]) {
            return CallPrep::Define(String::from_utf8_lossy(&cname).into_owned());
        }
    }
    match builtins::lookup(name) {
        Some(Model::Transducer(kind)) => {
            CallPrep::Apply(Arc::new(builtins::transducer_fst(kind)))
        }
        Some(Model::StrReplace) => CallPrep::ReplaceChain(prep_str_replace(args)),
        Some(Model::PregReplace { posix_ci, delimited }) => {
            CallPrep::RegexReplace(prep_preg_replace(args, posix_ci, delimited))
        }
        Some(Model::Sprintf) => CallPrep::Sprintf(
            args.first()
                .and_then(const_bytes)
                .map(|fmt| lower::sprintf_plan(&fmt)),
        ),
        Some(Model::Implode) => CallPrep::Implode(args.first().and_then(const_bytes)),
        Some(Model::Explode) => CallPrep::Explode(
            args.first()
                .and_then(const_bytes)
                .map(|d| Arc::new(lower::explode_piece_fst(&d))),
        ),
        Some(Model::StrRepeat) => {
            let count = args
                .get(1)
                .and_then(const_bytes)
                .and_then(|b| String::from_utf8_lossy(&b).parse::<usize>().ok());
            CallPrep::Repeat(match count {
                Some(n) if n <= 16 => Some(n),
                _ => None,
            })
        }
        _ => CallPrep::None,
    }
}

fn prep_str_replace(args: &[TExpr]) -> Option<Vec<Arc<strtaint_automata::Fst>>> {
    if args.len() < 3 {
        return None;
    }
    // The template language has no array literals: scalar pattern and
    // replacement only.
    let pats = vec![const_bytes(&args[0])?];
    let reps = vec![const_bytes(&args[1])?];
    lower::literal_replace_chain(&pats, &reps)
}

fn prep_preg_replace(
    args: &[TExpr],
    posix_ci: bool,
    delimited: bool,
) -> Option<Arc<strtaint_automata::Fst>> {
    if args.len() < 3 {
        return None;
    }
    let pat = const_bytes(&args[0])?;
    let rep = const_bytes(&args[1])?;
    lower::regex_replace_fst(&pat, &rep, posix_ci, delimited)
}

// ------------------------------------------------------- φ pre-scan

fn collect_assigned(stmts: &[TStmt], out: &mut BTreeSet<String>) {
    for s in stmts {
        match &s.kind {
            TS::Var { name, init } => {
                out.insert(name.clone());
                if let Some(e) = init {
                    collect_assigned_expr(e, out);
                }
            }
            TS::Expr(e) | TS::Output(e) | TS::Echo(e) | TS::Include(e) => {
                collect_assigned_expr(e, out);
            }
            TS::If {
                cond,
                then,
                elifs,
                els,
            } => {
                collect_assigned_expr(cond, out);
                collect_assigned(then, out);
                for (c, b) in elifs {
                    collect_assigned_expr(c, out);
                    collect_assigned(b, out);
                }
                if let Some(b) = els {
                    collect_assigned(b, out);
                }
            }
            TS::While { cond, body } => {
                collect_assigned_expr(cond, out);
                collect_assigned(body, out);
            }
            TS::For { var, subject, body } => {
                out.insert(var.clone());
                collect_assigned_expr(subject, out);
                collect_assigned(body, out);
            }
            TS::Return(Some(e)) => collect_assigned_expr(e, out),
            // Function declarations assign in their own scope.
            TS::Func(_)
            | TS::Text(_)
            | TS::Return(None)
            | TS::Exit
            | TS::Break
            | TS::Continue => {}
        }
    }
}

fn collect_assigned_expr(e: &TExpr, out: &mut BTreeSet<String>) {
    match &e.kind {
        TK::Assign { target, value, .. } => {
            if let Some(k) = lvalue_key(target) {
                out.insert(k);
            }
            collect_assigned_expr(value, out);
        }
        TK::Binary(_, a, b) | TK::Index(a, b) => {
            collect_assigned_expr(a, out);
            collect_assigned_expr(b, out);
        }
        TK::Member(a, _) | TK::Unary(_, a) => collect_assigned_expr(a, out),
        TK::Ternary(c, t, f) => {
            collect_assigned_expr(c, out);
            collect_assigned_expr(t, out);
            collect_assigned_expr(f, out);
        }
        TK::Call(callee, args) => {
            collect_assigned_expr(callee, out);
            for a in args {
                collect_assigned_expr(a, out);
            }
        }
        TK::Null
        | TK::True
        | TK::False
        | TK::Num(_)
        | TK::Str(_)
        | TK::Ident(_) => {}
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lower_src(src: &[u8]) -> Vec<IrStmt> {
        match TplFrontend.lower(src) {
            Ok(ir) => ir,
            Err(e) => panic!("lowering failed: {e}"),
        }
    }

    #[test]
    fn request_params_lower_to_superglobal_index() {
        let ir = lower_src(b"{% var id = req.query.id %}");
        let IrStmt::Eval(IrExpr::Assign { key, rhs, .. }) = &ir[0] else {
            panic!("expected assignment, got {:?}", ir[0]);
        };
        assert_eq!(key.as_deref(), Some("id"));
        let IrExpr::Index { key: Some((full, base)), .. } = rhs.as_ref() else {
            panic!("expected index, got {rhs:?}");
        };
        assert_eq!(full, &format!("_GET{KEY_SEP}id"));
        assert_eq!(base, "_GET");
    }

    #[test]
    fn session_reads_use_the_indirect_root() {
        let ir = lower_src(b"{% var u = session.user %}");
        let IrStmt::Eval(IrExpr::Assign { rhs, .. }) = &ir[0] else {
            panic!("expected assignment");
        };
        let IrExpr::Index { key: Some((full, base)), .. } = rhs.as_ref() else {
            panic!("expected index, got {rhs:?}");
        };
        assert_eq!(full, &format!("_SESSION{KEY_SEP}user"));
        assert_eq!(base, "_SESSION");
    }

    #[test]
    fn interpolation_is_a_sink_and_text_is_not() {
        let ir = lower_src(b"hello {{ name }}");
        assert!(matches!(ir[0], IrStmt::Nop));
        assert!(matches!(&ir[1], IrStmt::Sink { args, .. } if args.len() == 1));
    }

    #[test]
    fn method_calls_keep_their_names_for_sink_tables() {
        let ir = lower_src(b"{% db.query(q) %}");
        let IrStmt::Eval(IrExpr::MethodCall(mc)) = &ir[0] else {
            panic!("expected method call");
        };
        assert_eq!(mc.method, "query");
    }

    #[test]
    fn sanitizer_aliases_canonicalize_to_builtin_models() {
        let ir = lower_src(b"{% var s = escapeHtml(x) %}");
        let IrStmt::Eval(IrExpr::Assign { rhs, .. }) = &ir[0] else {
            panic!("expected assignment");
        };
        let IrExpr::Call(call) = rhs.as_ref() else {
            panic!("expected call, got {rhs:?}");
        };
        assert_eq!(call.name, "htmlspecialchars");
        assert!(matches!(call.prep, CallPrep::Apply(_)));
    }

    #[test]
    fn matches_compiles_to_a_dfa_refinement() {
        let ir = lower_src(b"{% if matches(\"/^[a-z]+$/\", f) %}{{ f }}{% end %}");
        let IrStmt::If { cond, .. } = &ir[0] else {
            panic!("expected if");
        };
        assert!(matches!(cond.refine, Refine::Dfa { .. }), "{:?}", cond.refine);
    }

    #[test]
    fn plus_is_concat_and_loops_get_phis() {
        let ir = lower_src(b"{% while x %}{% q = q + \"a\" %}{% end %}");
        let IrStmt::Loop { phis, .. } = &ir[0] else {
            panic!("expected loop");
        };
        assert_eq!(phis, &["q".to_owned()]);
        let ir = lower_src(b"{% var q = a + b %}");
        let IrStmt::Eval(IrExpr::Assign { rhs, .. }) = &ir[0] else {
            panic!("expected assignment");
        };
        assert!(matches!(rhs.as_ref(), IrExpr::Concat(..)));
    }

    #[test]
    fn for_lowers_to_foreach_with_value_phi() {
        let ir = lower_src(b"{% for row in rows %}{{ row }}{% end %}");
        let IrStmt::Foreach { value, key, .. } = &ir[0] else {
            panic!("expected foreach");
        };
        assert_eq!(value, "row");
        assert!(key.is_none());
    }

    #[test]
    fn include_records_its_line() {
        let ir = lower_src(b"\n\n{% include \"header.tpl\" %}");
        let IrStmt::Include { kind, line, .. } = &ir[1] else {
            panic!("expected include, got {:?}", ir[1]);
        };
        assert_eq!(*kind, IncludeKind::Include);
        assert_eq!(*line, 3);
    }
}
