//! AST → IR lowering (the front half of the staged pipeline).
//!
//! Lowering owns every decision that can be made from the source text
//! alone: canonical environment keys for lvalues, constant folding,
//! loop φ-set pre-scans, refinement compilation (§3.1.2), and the
//! transducer payloads for structurally-modeled builtins. It never
//! consults the environment, the configuration, or the grammar — that
//! is what makes one file's IR reusable across pages (see
//! [`crate::summary`]).

use std::collections::BTreeSet;
use std::sync::Arc;

use strtaint_automata::{Dfa, Fst, Nfa, Regex};
use strtaint_php::ast::*;
use strtaint_php::token::StrPart;

use crate::builtins::{self, Model};
use crate::env::KEY_SEP;
use crate::ir::*;

/// Lowers a parsed file to IR.
pub fn lower_file(file: &strtaint_php::File) -> Vec<IrStmt> {
    lower_stmts(&file.stmts)
}

fn lower_stmts(stmts: &[Stmt]) -> Vec<IrStmt> {
    stmts.iter().map(lower_stmt).collect()
}

fn lower_stmt(s: &Stmt) -> IrStmt {
    match &s.kind {
        StmtKind::Expr(e) => IrStmt::Eval(lower_expr(e)),
        StmtKind::Echo(args) => IrStmt::Sink {
            args: args.iter().map(|a| (lower_expr(a), a.span)).collect(),
            span: s.span,
        },
        StmtKind::InlineHtml(_) => IrStmt::Nop,
        StmtKind::Block(body) => IrStmt::Block(lower_stmts(body)),
        StmtKind::If {
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
        StmtKind::While { cond, body } | StmtKind::DoWhile { body, cond } => {
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
        StmtKind::For {
            init,
            cond,
            step,
            body,
        } => {
            let mut assigned = BTreeSet::new();
            collect_assigned(body, &mut assigned);
            for e in step {
                collect_assigned_expr(e, &mut assigned);
            }
            IrStmt::Loop {
                init: init.iter().map(lower_expr).collect(),
                cond: cond.as_ref().map(lower_cond),
                step: step.iter().map(lower_expr).collect(),
                body: lower_stmts(body),
                phis: assigned.into_iter().collect(),
            }
        }
        StmtKind::Foreach {
            subject,
            key,
            value,
            body,
        } => {
            let mut assigned = BTreeSet::new();
            collect_assigned(body, &mut assigned);
            IrStmt::Foreach {
                subject: lower_expr(subject),
                key: key.clone(),
                value: value.clone(),
                body: lower_stmts(body),
                phis: assigned.into_iter().collect(),
            }
        }
        StmtKind::Switch { subject, cases } => IrStmt::Switch {
            subject: lower_expr(subject),
            subject_key: lvalue_key(subject),
            cases: cases
                .iter()
                .map(|(l, b)| IrCase {
                    label: l.as_ref().map(|e| IrCaseLabel {
                        lit: const_bytes_static(e),
                        expr: lower_expr(e),
                    }),
                    body: lower_stmts(b),
                })
                .collect(),
        },
        StmtKind::Return(v) => IrStmt::Return(v.as_ref().map(lower_expr)),
        StmtKind::Break => IrStmt::Break,
        StmtKind::Continue => IrStmt::Continue,
        StmtKind::Exit(v) => IrStmt::Exit(v.as_ref().map(lower_expr)),
        StmtKind::FuncDecl(d) => IrStmt::DeclFunc(Arc::new(lower_func(d))),
        StmtKind::ClassDecl(c) => {
            IrStmt::DeclClass(c.methods.iter().map(|m| Arc::new(lower_func(m))).collect())
        }
        StmtKind::Global(names) => IrStmt::Global(names.clone()),
        StmtKind::Unset(args) => IrStmt::Unset(args.iter().filter_map(lvalue_key).collect()),
        StmtKind::Include { kind, arg } => IrStmt::Include {
            kind: *kind,
            arg: lower_expr(arg),
            line: s.span.line,
        },
    }
}

fn lower_func(d: &FuncDecl) -> FuncIr {
    FuncIr {
        name: d.name.clone(),
        params: d
            .params
            .iter()
            .map(|p| ParamIr {
                name: p.name.clone(),
                by_ref: p.by_ref,
                default: p.default.as_ref().map(lower_expr),
            })
            .collect(),
        body: lower_stmts(&d.body),
    }
}

fn lower_expr(e: &Expr) -> IrExpr {
    match &e.kind {
        ExprKind::Null | ExprKind::Bool(false) => IrExpr::Empty,
        ExprKind::Bool(true) => IrExpr::Const(b"1".to_vec()),
        ExprKind::Int(i) => IrExpr::Const(i.to_string().into_bytes()),
        ExprKind::Float(x) => IrExpr::Const(format!("{x}").into_bytes()),
        ExprKind::Str(s) => IrExpr::Const(s.clone()),
        ExprKind::Interp(parts) => IrExpr::Interp(
            parts
                .iter()
                .map(|p| match p {
                    StrPart::Lit(b) => IrPart::Lit(b.clone()),
                    StrPart::Var(v) => IrPart::Expr(IrExpr::Var(v.clone())),
                    StrPart::Index(v, key) => IrPart::Expr(IrExpr::Index {
                        side: None,
                        key: Some((
                            format!("{v}{KEY_SEP}{}", String::from_utf8_lossy(key)),
                            v.clone(),
                        )),
                        base: Box::new(IrExpr::Var(v.clone())),
                    }),
                    StrPart::Prop(v, p) => IrPart::Expr(IrExpr::Prop {
                        key: Some(format!("{v}->{p}")),
                        base: Box::new(IrExpr::Var(v.clone())),
                    }),
                })
                .collect(),
        ),
        ExprKind::Var(v) => IrExpr::Var(v.clone()),
        ExprKind::ConstFetch(name) => IrExpr::ConstFetch(name.clone()),
        ExprKind::Index(base, idx) => {
            let side = match idx {
                Some(i) if const_bytes_static(i).is_none() => Some(Box::new(lower_expr(i))),
                _ => None,
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
        ExprKind::Prop(base, _) => IrExpr::Prop {
            key: lvalue_key(e),
            base: Box::new(lower_expr(base)),
        },
        ExprKind::Assign(lhs, op, rhs) => {
            if op.is_none() {
                // list($a, $b) = expr — each variable receives the
                // collapsed element language (paper §3.1.3).
                if let ExprKind::Call(name, vars) = &lhs.kind {
                    if name == "list" {
                        return IrExpr::AssignList {
                            keys: vars.iter().map(lvalue_key).collect(),
                            rhs: Box::new(lower_expr(rhs)),
                        };
                    }
                }
                // Array-literal assignment distributes over elements.
                if let ExprKind::Array(items) = &rhs.kind {
                    if let Some(base_key) = lvalue_key(lhs) {
                        let mut auto = 0usize;
                        let items = items
                            .iter()
                            .map(|(k, v)| {
                                let key = match k {
                                    Some(ke) => match const_bytes_static(ke) {
                                        Some(b) => String::from_utf8_lossy(&b).into_owned(),
                                        None => "*".to_owned(),
                                    },
                                    None => {
                                        let k = auto.to_string();
                                        auto += 1;
                                        k
                                    }
                                };
                                (key, lower_expr(v))
                            })
                            .collect();
                        return IrExpr::AssignArrayLit { base_key, items };
                    }
                }
            }
            let aop = match op {
                None => AssignOp::Plain,
                Some(BinOp::Concat) => AssignOp::Concat,
                Some(_) => AssignOp::Arith,
            };
            IrExpr::Assign {
                key: lvalue_key(lhs),
                op: aop,
                rhs: Box::new(lower_expr(rhs)),
            }
        }
        ExprKind::Ternary(cond, then, els) => IrExpr::Ternary {
            cond: Box::new(lower_cond(cond)),
            then: then.as_ref().map(|t| Box::new(lower_expr(t))),
            els: Box::new(lower_expr(els)),
        },
        ExprKind::Binary(op, a, b) => match op {
            BinOp::Concat => IrExpr::Concat(Box::new(lower_expr(a)), Box::new(lower_expr(b))),
            BinOp::Add | BinOp::Sub | BinOp::Mul | BinOp::Div | BinOp::Mod => {
                IrExpr::Numeric(vec![lower_expr(a), lower_expr(b)])
            }
            _ => IrExpr::BoolOf(vec![lower_expr(a), lower_expr(b)]),
        },
        ExprKind::Unary(op, inner) => match op {
            UnaryOp::Not => IrExpr::BoolOf(vec![lower_expr(inner)]),
            UnaryOp::Neg => IrExpr::Numeric(vec![lower_expr(inner)]),
        },
        ExprKind::Cast(kind, inner) => match kind {
            CastKind::Int | CastKind::Float => IrExpr::Numeric(vec![lower_expr(inner)]),
            CastKind::Bool => IrExpr::BoolOf(vec![lower_expr(inner)]),
            CastKind::Str | CastKind::Array => lower_expr(inner),
        },
        ExprKind::Suppress(inner) => lower_expr(inner),
        ExprKind::IncDec { target, .. } => IrExpr::IncDec {
            key: lvalue_key(target),
        },
        ExprKind::Isset(args) => IrExpr::BoolOf(args.iter().map(lower_expr).collect()),
        ExprKind::Empty(inner) => IrExpr::BoolOf(vec![lower_expr(inner)]),
        ExprKind::Array(items) => IrExpr::ArrayLit(
            items
                .iter()
                .map(|(k, v)| (k.as_ref().map(lower_expr), lower_expr(v)))
                .collect(),
        ),
        ExprKind::New(_, args) => IrExpr::New(args.iter().map(lower_expr).collect()),
        ExprKind::Call(name, args) => IrExpr::Call(Box::new(CallIr {
            name: name.clone(),
            args: args.iter().map(lower_expr).collect(),
            arg_keys: args.iter().map(lvalue_key).collect(),
            arg_spans: args.iter().map(|a| a.span).collect(),
            span: e.span,
            prep: call_prep(name, args),
        })),
        ExprKind::MethodCall(obj, m, args) => IrExpr::MethodCall(Box::new(MethodCallIr {
            method: m.clone(),
            obj: lower_expr(obj),
            args: args.iter().map(lower_expr).collect(),
            arg_keys: args.iter().map(lvalue_key).collect(),
            arg_spans: args.iter().map(|a| a.span).collect(),
            span: e.span,
        })),
    }
}

// ------------------------------------------------------- conditions

fn lower_cond(e: &Expr) -> Cond {
    Cond {
        pre: lower_expr(e),
        refine: lower_refine(e),
    }
}

fn lower_refine(e: &Expr) -> Refine {
    match &e.kind {
        ExprKind::Unary(UnaryOp::Not, inner) => Refine::Not(Box::new(lower_refine(inner))),
        ExprKind::Suppress(inner) => lower_refine(inner),
        ExprKind::Binary(BinOp::And, a, b) => {
            Refine::AndPos(Box::new(lower_refine(a)), Box::new(lower_refine(b)))
        }
        ExprKind::Binary(BinOp::Or, a, b) => {
            Refine::OrNeg(Box::new(lower_refine(a)), Box::new(lower_refine(b)))
        }
        ExprKind::Binary(BinOp::Eq | BinOp::Identical, a, b) => lower_refine_eq(a, b),
        ExprKind::Binary(BinOp::Neq | BinOp::NotIdentical, a, b) => {
            Refine::Not(Box::new(lower_refine_eq(a, b)))
        }
        ExprKind::Call(name, args) => lower_refine_call(name, args),
        ExprKind::Var(_) | ExprKind::Index(..) | ExprKind::Prop(..) => truthy_refine(e, false),
        // `if ($r = f(...))` — refine the assigned variable's
        // truthiness.
        ExprKind::Assign(lhs, None, _) => truthy_refine(lhs, false),
        _ => Refine::None,
    }
}

fn truthy_refine(target: &Expr, invert: bool) -> Refine {
    match lvalue_key(target) {
        Some(key) => Refine::Truthy {
            key,
            target: Box::new(lower_expr(target)),
            invert,
        },
        None => Refine::None,
    }
}

fn lower_refine_eq(a: &Expr, b: &Expr) -> Refine {
    // Comparisons against boolean literals are truthiness tests.
    if matches!(
        (&a.kind, &b.kind),
        (_, ExprKind::Bool(_)) | (ExprKind::Bool(_), _)
    ) {
        let bool_val = match (&a.kind, &b.kind) {
            (_, ExprKind::Bool(v)) | (ExprKind::Bool(v), _) => *v,
            _ => unreachable!(),
        };
        let var = if matches!(b.kind, ExprKind::Bool(_)) { a } else { b };
        return truthy_refine(var, !bool_val);
    }
    // Normalize so the variable is on the left.
    let (var_side, c) = match (const_bytes_static(a), const_bytes_static(b)) {
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

fn lower_refine_call(name: &str, args: &[Expr]) -> Refine {
    match name {
        "preg_match" if args.len() >= 2 => {
            let Some(pat) = const_bytes_static(&args[0]) else {
                return Refine::None;
            };
            let pat = String::from_utf8_lossy(&pat).into_owned();
            match Regex::new_delimited(&pat) {
                Ok(re) => dfa_refine(&args[1], re.match_dfa(), "regex", "¬regex"),
                Err(_) => Refine::None,
            }
        }
        "ereg" | "eregi" if args.len() >= 2 => {
            let Some(pat) = const_bytes_static(&args[0]) else {
                return Refine::None;
            };
            let pat = String::from_utf8_lossy(&pat).into_owned();
            match Regex::with_flags(&pat, name == "eregi") {
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
        "in_array" if args.len() >= 2 => {
            if let ExprKind::Array(items) = &args[1].kind {
                let mut lits: Vec<Vec<u8>> = Vec::new();
                for (_, v) in items {
                    match const_bytes_static(v) {
                        Some(b) => lits.push(b),
                        None => return Refine::None,
                    }
                }
                let mut nfa = Nfa::empty();
                for l in &lits {
                    nfa = nfa.union(&Nfa::literal(l));
                }
                dfa_refine(&args[0], Dfa::from_nfa(&nfa), "in_array", "in_array")
            } else {
                Refine::None
            }
        }
        _ => Refine::None,
    }
}

fn pattern_refine(target: &Expr, pattern: &str) -> Refine {
    let re = Regex::new(pattern).expect("builtin refinement patterns are valid");
    dfa_refine(target, re.match_dfa(), "regex", "¬regex")
}

fn dfa_refine(target: &Expr, dfa: Dfa, pos_what: &'static str, neg_what: &'static str) -> Refine {
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

fn call_prep(name: &str, args: &[Expr]) -> CallPrep {
    // define() tracks program constants (checked before everything
    // else at emit time, mirroring eval order).
    if name == "define" && args.len() >= 2 {
        if let Some(cname) = const_bytes_static(&args[0]) {
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
                .and_then(const_bytes_static)
                .map(|fmt| sprintf_plan(&fmt)),
        ),
        Some(Model::Implode) => CallPrep::Implode(args.first().and_then(const_bytes_static)),
        Some(Model::Explode) => CallPrep::Explode(
            args.first()
                .and_then(const_bytes_static)
                .map(|d| Arc::new(explode_piece_fst(&d))),
        ),
        Some(Model::StrRepeat) => {
            let count = args
                .get(1)
                .and_then(const_bytes_static)
                .and_then(|b| String::from_utf8_lossy(&b).parse::<usize>().ok());
            CallPrep::Repeat(match count {
                Some(n) if n <= 16 => Some(n),
                _ => None,
            })
        }
        _ => CallPrep::None,
    }
}

fn prep_str_replace(args: &[Expr]) -> Option<Vec<Arc<Fst>>> {
    if args.len() < 3 {
        return None;
    }
    let pats = const_list(&args[0])?;
    let reps = const_list(&args[1])?;
    literal_replace_chain(&pats, &reps)
}

/// Builds the `str_replace` transducer chain from constant-folded
/// pattern/replacement lists (the frontend-independent core: each
/// frontend folds its own AST, every frontend shares this payload).
pub(crate) fn literal_replace_chain(
    pats: &[Vec<u8>],
    reps: &[Vec<u8>],
) -> Option<Vec<Arc<Fst>>> {
    if pats.is_empty() || pats.iter().any(|p| p.is_empty()) {
        return None;
    }
    // PHP semantics: pattern i is replaced by replacement i (or "" /
    // the scalar). Applied sequentially at emit.
    Some(
        pats.iter()
            .enumerate()
            .map(|(i, pat)| {
                let rep = if reps.len() == 1 {
                    reps[0].clone()
                } else {
                    reps.get(i).cloned().unwrap_or_default()
                };
                Arc::new(strtaint_automata::fst::builders::replace_literal(pat, &rep))
            })
            .collect(),
    )
}

fn prep_preg_replace(args: &[Expr], posix_ci: bool, delimited: bool) -> Option<Arc<Fst>> {
    if args.len() < 3 {
        return None;
    }
    let pat = const_bytes_static(&args[0])?;
    let rep = const_bytes_static(&args[1])?;
    regex_replace_fst(&pat, &rep, posix_ci, delimited)
}

/// Builds the `preg_replace`/`ereg_replace` transducer from a
/// constant-folded pattern and replacement (frontend-independent core,
/// like [`literal_replace_chain`]).
pub(crate) fn regex_replace_fst(
    pat: &[u8],
    rep: &[u8],
    posix_ci: bool,
    delimited: bool,
) -> Option<Arc<Fst>> {
    let pat_str = String::from_utf8_lossy(pat).into_owned();
    let re = if delimited {
        Regex::new_delimited(&pat_str)
    } else {
        Regex::with_flags(&pat_str, posix_ci)
    }
    .ok()?;
    let has_backref = rep
        .windows(2)
        .any(|w| (w[0] == b'\\' || w[0] == b'$') && w[1].is_ascii_digit());
    use strtaint_automata::regex::Anchoring;
    if has_backref || re.ast().anchoring() != Anchoring::None {
        return None;
    }
    let dfa = Dfa::from_nfa(&re.anchored_nfa()).minimize();
    Some(Arc::new(strtaint_automata::fst::builders::replace_regex(
        &dfa, rep,
    )))
}

pub(crate) fn sprintf_plan(fmt: &[u8]) -> SprintfPlan {
    let mut parts: Vec<SprintfPart> = Vec::new();
    let mut lit: Vec<u8> = Vec::new();
    let mut arg_idx = 1usize;
    let mut i = 0usize;
    let mut ok = true;
    macro_rules! flush_lit {
        () => {
            if !lit.is_empty() {
                parts.push(SprintfPart::Lit(std::mem::take(&mut lit)));
            }
        };
    }
    while i < fmt.len() {
        let b = fmt[i];
        if b != b'%' {
            lit.push(b);
            i += 1;
            continue;
        }
        i += 1;
        if i >= fmt.len() {
            break;
        }
        // Skip flags/width/precision.
        while i < fmt.len()
            && (fmt[i].is_ascii_digit()
                || matches!(fmt[i], b'-' | b'+' | b' ' | b'0' | b'.' | b'\''))
        {
            i += 1;
        }
        if i >= fmt.len() {
            ok = false;
            break;
        }
        match fmt[i] {
            b'%' => lit.push(b'%'),
            b's' => {
                flush_lit!();
                parts.push(SprintfPart::Str(arg_idx));
                arg_idx += 1;
            }
            b'd' | b'u' | b'i' | b'f' | b'F' | b'e' | b'g' => {
                flush_lit!();
                parts.push(SprintfPart::Num(arg_idx));
                arg_idx += 1;
            }
            b'x' | b'X' | b'o' | b'b' => {
                flush_lit!();
                parts.push(SprintfPart::Hex(arg_idx));
                arg_idx += 1;
            }
            _ => {
                ok = false;
                break;
            }
        }
        i += 1;
    }
    flush_lit!();
    SprintfPlan {
        parts,
        consumed: arg_idx,
        ok,
    }
}

/// Builds the `explode` piece transducer for a delimiter: relates the
/// subject to each returned array element (superset when the delimiter
/// is multi-byte; paper Fig. 8 / Minamide's two-FST construction).
pub(crate) fn explode_piece_fst(delim: &[u8]) -> Fst {
    use strtaint_automata::{ByteSet, OutSym};
    let mut f = Fst::new();
    let skip_pre = f.start();
    let piece = f.add_state();
    let skip_post = f.add_state();
    f.add_arc(skip_pre, ByteSet::FULL, Vec::new(), skip_pre);
    let copyable = if delim.len() == 1 {
        ByteSet::singleton(delim[0]).complement()
    } else {
        ByteSet::FULL
    };
    // Enter the piece by copying its first byte.
    f.add_arc(skip_pre, copyable, vec![OutSym::Copy], piece);
    f.add_arc(piece, copyable, vec![OutSym::Copy], piece);
    // Leave the piece on a delimiter-ish byte.
    let leave = if delim.len() == 1 {
        ByteSet::singleton(delim[0])
    } else {
        ByteSet::FULL
    };
    f.add_arc(piece, leave, Vec::new(), skip_post);
    f.add_arc(skip_post, ByteSet::FULL, Vec::new(), skip_post);
    // Empty piece (delimiter at the edge) and full-piece cases.
    f.set_final(skip_pre, Vec::new());
    f.set_final(piece, Vec::new());
    f.set_final(skip_post, Vec::new());
    f
}

// ------------------------------------------------------ shared folds

/// Canonical environment key for an lvalue expression, if it has one.
/// The single implementation shared by lowering proper and the loop
/// φ-set pre-scan.
pub(crate) fn lvalue_key(e: &Expr) -> Option<String> {
    match &e.kind {
        ExprKind::Var(v) => Some(v.clone()),
        ExprKind::Index(base, idx) => {
            let base_key = lvalue_key(base)?;
            let key = match idx {
                None => "*".to_owned(),
                Some(i) => match const_bytes_static(i) {
                    Some(b) => String::from_utf8_lossy(&b).into_owned(),
                    None => "*".to_owned(),
                },
            };
            Some(format!("{base_key}{KEY_SEP}{key}"))
        }
        ExprKind::Prop(base, p) => {
            let base_key = lvalue_key(base)?;
            Some(format!("{base_key}->{p}"))
        }
        _ => None,
    }
}

/// Constant-folds an expression to bytes when it is a literal (string,
/// int, float, escape-free interpolation, or concatenation of such).
pub(crate) fn const_bytes_static(e: &Expr) -> Option<Vec<u8>> {
    match &e.kind {
        ExprKind::Str(s) => Some(s.clone()),
        ExprKind::Int(i) => Some(i.to_string().into_bytes()),
        ExprKind::Float(x) => Some(format!("{x}").into_bytes()),
        ExprKind::Bool(true) => Some(b"1".to_vec()),
        ExprKind::Bool(false) | ExprKind::Null => Some(Vec::new()),
        ExprKind::Interp(parts) => {
            let mut out = Vec::new();
            for p in parts {
                match p {
                    StrPart::Lit(b) => out.extend_from_slice(b),
                    _ => return None,
                }
            }
            Some(out)
        }
        ExprKind::Binary(BinOp::Concat, a, b) => {
            let mut out = const_bytes_static(a)?;
            out.extend(const_bytes_static(b)?);
            Some(out)
        }
        _ => None,
    }
}

/// Constant-folds either a scalar literal (one-element list) or an
/// `array(...)` of literals.
fn const_list(e: &Expr) -> Option<Vec<Vec<u8>>> {
    if let ExprKind::Array(items) = &e.kind {
        let mut out = Vec::new();
        for (_, v) in items {
            out.push(const_bytes_static(v)?);
        }
        return Some(out);
    }
    const_bytes_static(e).map(|b| vec![b])
}

// ------------------------------------------------------- φ pre-scan

/// Collects the environment keys assigned anywhere in a statement list
/// (loop pre-scan for φ-header creation).
fn collect_assigned(stmts: &[Stmt], out: &mut BTreeSet<String>) {
    for s in stmts {
        match &s.kind {
            StmtKind::Expr(e) | StmtKind::Return(Some(e)) | StmtKind::Exit(Some(e)) => {
                collect_assigned_expr(e, out)
            }
            StmtKind::Echo(es) | StmtKind::Unset(es) => {
                for e in es {
                    collect_assigned_expr(e, out);
                }
            }
            StmtKind::If {
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
            StmtKind::While { cond, body } => {
                collect_assigned_expr(cond, out);
                collect_assigned(body, out);
            }
            StmtKind::DoWhile { body, cond } => {
                collect_assigned(body, out);
                collect_assigned_expr(cond, out);
            }
            StmtKind::For {
                init,
                cond,
                step,
                body,
            } => {
                for e in init.iter().chain(step.iter()) {
                    collect_assigned_expr(e, out);
                }
                if let Some(c) = cond {
                    collect_assigned_expr(c, out);
                }
                collect_assigned(body, out);
            }
            StmtKind::Foreach {
                subject,
                key,
                value,
                body,
            } => {
                collect_assigned_expr(subject, out);
                if let Some(k) = key {
                    out.insert(k.clone());
                }
                out.insert(value.clone());
                collect_assigned(body, out);
            }
            StmtKind::Switch { subject, cases } => {
                collect_assigned_expr(subject, out);
                for (l, b) in cases {
                    if let Some(l) = l {
                        collect_assigned_expr(l, out);
                    }
                    collect_assigned(b, out);
                }
            }
            StmtKind::Block(b) => collect_assigned(b, out),
            StmtKind::Global(names) => {
                for n in names {
                    out.insert(n.clone());
                }
            }
            StmtKind::Include { arg, .. } => collect_assigned_expr(arg, out),
            _ => {}
        }
    }
}

fn collect_assigned_expr(e: &Expr, out: &mut BTreeSet<String>) {
    match &e.kind {
        ExprKind::Assign(lhs, _, rhs) => {
            if let Some(key) = lvalue_key(lhs) {
                out.insert(key);
            }
            collect_assigned_expr(rhs, out);
        }
        ExprKind::IncDec { target, .. } => {
            if let Some(key) = lvalue_key(target) {
                out.insert(key);
            }
        }
        ExprKind::Binary(_, a, b) => {
            collect_assigned_expr(a, out);
            collect_assigned_expr(b, out);
        }
        ExprKind::Unary(_, a) | ExprKind::Suppress(a) | ExprKind::Empty(a) => {
            collect_assigned_expr(a, out)
        }
        ExprKind::Cast(_, a) => collect_assigned_expr(a, out),
        ExprKind::Ternary(c, t, f) => {
            collect_assigned_expr(c, out);
            if let Some(t) = t {
                collect_assigned_expr(t, out);
            }
            collect_assigned_expr(f, out);
        }
        ExprKind::Call(_, args) | ExprKind::Isset(args) | ExprKind::New(_, args) => {
            for a in args {
                collect_assigned_expr(a, out);
            }
        }
        ExprKind::MethodCall(obj, _, args) => {
            collect_assigned_expr(obj, out);
            for a in args {
                collect_assigned_expr(a, out);
            }
        }
        ExprKind::Index(b, i) => {
            collect_assigned_expr(b, out);
            if let Some(i) = i {
                collect_assigned_expr(i, out);
            }
        }
        ExprKind::Array(items) => {
            for (k, v) in items {
                if let Some(k) = k {
                    collect_assigned_expr(k, out);
                }
                collect_assigned_expr(v, out);
            }
        }
        _ => {}
    }
}
