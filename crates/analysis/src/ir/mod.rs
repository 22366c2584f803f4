//! The SSA-style dataflow IR between the PHP AST and the grammar.
//!
//! The paper (§3.1) derives its grammar from programs "in SSA form" —
//! one nonterminal per variable version. This module makes that stage
//! explicit: [`crate::lower`] translates a parsed file into the
//! instructions below once, and [`crate::emit`] interprets them
//! against a flow-sensitive environment to produce CFG productions.
//! The split buys reuse: a file's IR ([`FileSummary`]) depends only on
//! its source bytes, so shared includes and library functions are
//! lowered once per application (see [`crate::summary`]) instead of
//! once per page per include site.
//!
//! Instruction vocabulary (paper / ISSUE naming):
//!
//! - **Const** — [`IrExpr::Const`], a literal byte string;
//! - **Source** — materialized at emit time when a read of a
//!   configured superglobal ([`IrExpr::Var`] / [`IrExpr::Index`] /
//!   [`IrExpr::Prop`]) misses the environment, or from a configured
//!   fetch function; sources carry the `direct`/`indirect` taint;
//! - **Concat** — [`IrExpr::Concat`] and interpolations;
//! - **Apply(fst)** — [`CallPrep::Apply`] and the other prepared
//!   transducer payloads: the finite-state transducer for a string
//!   library call, prebuilt at lowering;
//! - **Refine(dfa)** — [`Refine::Dfa`]: a branch condition compiled to
//!   the DFA the matching environment entry is intersected with
//!   (§3.1.2);
//! - **Phi** — the `phis` lists on [`IrStmt::Loop`] /
//!   [`IrStmt::Foreach`]: variables assigned in a loop body, which
//!   receive recursive header nonterminals (the loop fixpoint);
//!   branch joins are φ-nodes too, created implicitly by
//!   [`crate::env::Env::join_all`] at emit time;
//! - **Call** — [`IrExpr::Call`] / [`IrExpr::MethodCall`], late-bound
//!   at emit time (user functions shadow builtins, as in PHP);
//! - **Sink** — [`IrStmt::Sink`] (`echo`/`print`) and hotspot calls,
//!   classified at emit time from the configured hotspot lists.
//!
//! Everything that can be decided from the source text alone is
//! decided here (environment keys, constant folding, transducer and
//! refinement compilation); everything that depends on the
//! environment, the configuration, or the grammar budget stays in the
//! emitter. That invariant is what makes a summary reusable across
//! pages and configurations.

use std::sync::Arc;

use strtaint_automata::{Dfa, Fst};
use strtaint_php::ast::IncludeKind;
use strtaint_php::Span;

/// One lowered statement.
#[derive(Debug, Clone)]
pub enum IrStmt {
    /// Expression statement, evaluated for its effects.
    Eval(IrExpr),
    /// `echo`/`print` output sink; each argument keeps its own span
    /// for finding provenance.
    Sink {
        /// Arguments with their source spans.
        args: Vec<(IrExpr, Span)>,
        /// Span of the whole statement.
        span: Span,
    },
    /// Brace block.
    Block(Vec<IrStmt>),
    /// `if` / `elseif` / `else` chain.
    If {
        /// Main condition.
        cond: Cond,
        /// Then branch.
        then: Vec<IrStmt>,
        /// `elseif` branches.
        elifs: Vec<(Cond, Vec<IrStmt>)>,
        /// `else` branch.
        els: Option<Vec<IrStmt>>,
    },
    /// Unified `while` / `do-while` / `for` loop.
    Loop {
        /// `for` initializers (empty otherwise).
        init: Vec<IrExpr>,
        /// Loop condition, if any.
        cond: Option<Cond>,
        /// `for` step expressions (empty otherwise).
        step: Vec<IrExpr>,
        /// Body.
        body: Vec<IrStmt>,
        /// φ set: variables assigned in the body or step, which get
        /// recursive `var@loop` header nonterminals.
        phis: Vec<String>,
    },
    /// `foreach ($subject as $key => $value)`.
    Foreach {
        /// Iterated expression.
        subject: IrExpr,
        /// Key variable, if destructured.
        key: Option<String>,
        /// Value variable.
        value: String,
        /// Body.
        body: Vec<IrStmt>,
        /// φ set for the body.
        phis: Vec<String>,
    },
    /// `switch`.
    Switch {
        /// Scrutinee.
        subject: IrExpr,
        /// Environment key of the scrutinee, for `case` refinement.
        subject_key: Option<String>,
        /// Cases in order.
        cases: Vec<IrCase>,
    },
    /// `return e?;`
    Return(Option<IrExpr>),
    /// `exit` / `die`.
    Exit(Option<IrExpr>),
    /// `break` (loop bodies are analyzed once; no-op).
    Break,
    /// `continue`.
    Continue,
    /// Function declaration.
    DeclFunc(Arc<FuncIr>),
    /// Class declaration, reduced to its methods.
    DeclClass(Vec<Arc<FuncIr>>),
    /// `global $a, $b;`
    Global(Vec<String>),
    /// `unset(...)`, reduced to the resolvable environment keys.
    Unset(Vec<String>),
    /// `include` / `require` and their `_once` forms.
    Include {
        /// Which include flavor.
        kind: IncludeKind,
        /// The path expression.
        arg: IrExpr,
        /// Source line of the statement (combined with the emitting
        /// file at emit time to form the override site `file:line`).
        line: u32,
    },
    /// Statement with no dataflow effect (inline HTML).
    Nop,
}

/// One `switch` case.
#[derive(Debug, Clone)]
pub struct IrCase {
    /// `None` = `default`.
    pub label: Option<IrCaseLabel>,
    /// Case body.
    pub body: Vec<IrStmt>,
}

/// A non-default `case` label.
#[derive(Debug, Clone)]
pub struct IrCaseLabel {
    /// The label expression (evaluated for effects).
    pub expr: IrExpr,
    /// Constant-folded label bytes, when the label is a literal —
    /// enables scrutinee refinement.
    pub lit: Option<Vec<u8>>,
}

/// A compiled branch condition: the expression to evaluate plus the
/// refinement to apply to each arm's environment.
#[derive(Debug, Clone)]
pub struct Cond {
    /// The condition expression (evaluated once, for value/effects).
    pub pre: IrExpr,
    /// The compiled refinement (paper §3.1.2).
    pub refine: Refine,
}

/// A compiled condition refinement, applied to an environment with a
/// polarity (`positive` = the condition held).
#[derive(Debug, Clone)]
pub enum Refine {
    /// Refines nothing (sound for unrecognized conditions).
    None,
    /// Negation: flips the polarity.
    Not(Box<Refine>),
    /// Conjunction: refines both only on the positive branch
    /// (¬(a ∧ b) is a disjunction — no single-env refinement).
    AndPos(Box<Refine>, Box<Refine>),
    /// Disjunction: refines both only on the negative branch.
    OrNeg(Box<Refine>, Box<Refine>),
    /// Truthiness test (falsy strings are `""` and `"0"`); `invert`
    /// flips the tested sense (e.g. `empty($x)`).
    Truthy {
        /// Environment key of the tested lvalue.
        key: String,
        /// The tested expression, re-evaluated only to materialize a
        /// superglobal source when the key is unbound.
        target: Box<IrExpr>,
        /// `true` when the test is for falsiness.
        invert: bool,
    },
    /// Equality with a constant: the positive branch narrows to the
    /// literal (keeping taint), the negative branch intersects with
    /// the literal's complement.
    EqLit {
        /// Environment key of the compared lvalue.
        key: String,
        /// The compared expression (for source materialization).
        target: Box<IrExpr>,
        /// The constant bytes.
        bytes: Vec<u8>,
    },
    /// Intersection with a compiled DFA — regex matches
    /// (`preg_match`, `ereg`), type predicates (`is_numeric`,
    /// `ctype_*`), `in_array` with a literal list. The negative branch
    /// intersects with the complement.
    Dfa {
        /// Environment key of the refined lvalue.
        key: String,
        /// The refined expression (for source materialization).
        target: Box<IrExpr>,
        /// Language of the positive branch.
        dfa: Arc<Dfa>,
        /// Degradation label for the positive branch.
        pos_what: &'static str,
        /// Degradation label for the negative branch.
        neg_what: &'static str,
    },
}

/// One lowered expression.
#[derive(Debug, Clone)]
pub enum IrExpr {
    /// PHP's empty value (`null`, `false`, unset) — the ε nonterminal.
    Empty,
    /// A literal byte string (**Const**).
    Const(Vec<u8>),
    /// Bare-constant fetch, resolved against `define()`d constants at
    /// emit time.
    ConstFetch(String),
    /// Interpolated string (**Concat** of parts).
    Interp(Vec<IrPart>),
    /// Variable read; superglobal reads materialize **Source**
    /// nonterminals at emit time.
    Var(String),
    /// Array element read.
    Index {
        /// Dynamic index expression, evaluated for effects (present
        /// only when the index does not constant-fold).
        side: Option<Box<IrExpr>>,
        /// `(full, base)` environment keys when the lvalue is
        /// canonicalizable.
        key: Option<(String, String)>,
        /// Base expression (for the fallback and `elements_of`).
        base: Box<IrExpr>,
    },
    /// Object property read.
    Prop {
        /// Environment key when canonicalizable.
        key: Option<String>,
        /// Base expression for the fallback.
        base: Box<IrExpr>,
    },
    /// Assignment to a canonicalized lvalue.
    Assign {
        /// Environment key of the target (`None` = unsupported
        /// lvalue, warned at emit time).
        key: Option<String>,
        /// Plain, `.=` or arithmetic compound.
        op: AssignOp,
        /// Right-hand side.
        rhs: Box<IrExpr>,
    },
    /// `list($a, $b) = rhs` — every target receives the collapsed
    /// element language.
    AssignList {
        /// Target keys (unresolvable targets are `None`).
        keys: Vec<Option<String>>,
        /// Right-hand side.
        rhs: Box<IrExpr>,
    },
    /// `$a = array(...)` — distributes over elements.
    AssignArrayLit {
        /// The array variable's key.
        base_key: String,
        /// `(element key, value)` pairs; literal keys are folded,
        /// dynamic ones become `*`, missing ones auto-number.
        items: Vec<(String, IrExpr)>,
    },
    /// `++$x` / `$x--` — numeric result keeping the target's taint.
    IncDec {
        /// Environment key of the target.
        key: Option<String>,
    },
    /// `cond ? then : else`; `then` is `None` for the `?:` shorthand.
    Ternary {
        /// Compiled condition.
        cond: Box<Cond>,
        /// Then value.
        then: Option<Box<IrExpr>>,
        /// Else value.
        els: Box<IrExpr>,
    },
    /// String concatenation (**Concat**).
    Concat(Box<IrExpr>, Box<IrExpr>),
    /// Numeric-valued operation over the arguments (keeps taint).
    Numeric(Vec<IrExpr>),
    /// Boolean-valued operation over the arguments.
    BoolOf(Vec<IrExpr>),
    /// `array(...)` in expression position.
    ArrayLit(Vec<(Option<IrExpr>, IrExpr)>),
    /// `new C(...)` — arguments evaluated, object value is Σ*.
    New(Vec<IrExpr>),
    /// Free-function call (**Call**/**Sink**), late-bound at emit.
    Call(Box<CallIr>),
    /// Method call, late-bound at emit.
    MethodCall(Box<MethodCallIr>),
}

/// A piece of an interpolated string.
#[derive(Debug, Clone)]
pub enum IrPart {
    /// Literal bytes.
    Lit(Vec<u8>),
    /// Interpolated sub-expression.
    Expr(IrExpr),
}

/// Assignment operator class.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AssignOp {
    /// `=`
    Plain,
    /// `.=`
    Concat,
    /// `+=`, `-=`, … — numeric result.
    Arith,
}

/// A lowered free-function call site.
#[derive(Debug, Clone)]
pub struct CallIr {
    /// Callee name.
    pub name: String,
    /// Arguments.
    pub args: Vec<IrExpr>,
    /// Per-argument environment keys (for by-reference write-back).
    pub arg_keys: Vec<Option<String>>,
    /// Per-argument spans (finding provenance: a sink is located at
    /// the argument it checks).
    pub arg_spans: Vec<Span>,
    /// Call span.
    pub span: Span,
    /// Prepared builtin payload — used only when emit dispatches to
    /// the matching builtin model (user functions shadow builtins).
    pub prep: CallPrep,
}

/// A lowered method call site.
#[derive(Debug, Clone)]
pub struct MethodCallIr {
    /// Bare method name.
    pub method: String,
    /// Receiver expression.
    pub obj: IrExpr,
    /// Arguments.
    pub args: Vec<IrExpr>,
    /// Per-argument environment keys.
    pub arg_keys: Vec<Option<String>>,
    /// Per-argument spans.
    pub arg_spans: Vec<Span>,
    /// Call span.
    pub span: Span,
}

/// Speculatively prepared payload for a builtin call site. `None`
/// inside a variant means the fallback (widening) path — the
/// structural arguments did not constant-fold.
#[derive(Debug, Clone)]
pub enum CallPrep {
    /// No preparation applies.
    None,
    /// `define(NAME, value)` with a constant name.
    Define(String),
    /// Prebuilt transducer for a [`crate::builtins::Model::Transducer`]
    /// builtin (**Apply(fst)**).
    Apply(Arc<Fst>),
    /// `str_replace` with literal patterns: the sequential
    /// replacement chain.
    ReplaceChain(Option<Vec<Arc<Fst>>>),
    /// `preg_replace`-family with a compilable pattern.
    RegexReplace(Option<Arc<Fst>>),
    /// `explode` with a literal delimiter: the piece transducer.
    Explode(Option<Arc<Fst>>),
    /// `sprintf` with a literal format.
    Sprintf(Option<SprintfPlan>),
    /// `implode` with a literal glue.
    Implode(Option<Vec<u8>>),
    /// `str_repeat` with a small constant count.
    Repeat(Option<usize>),
}

/// A compiled `sprintf` format: literal runs interleaved with typed
/// argument slots.
#[derive(Debug, Clone)]
pub struct SprintfPlan {
    /// Format pieces in order.
    pub parts: Vec<SprintfPart>,
    /// Number of leading arguments consumed by the format (including
    /// the format string itself).
    pub consumed: usize,
    /// `false` when the format had an unsupported conversion — the
    /// emitter evaluates the scanned slots for effects, then widens.
    pub ok: bool,
}

/// One piece of a compiled `sprintf` format.
#[derive(Debug, Clone)]
pub enum SprintfPart {
    /// Literal bytes.
    Lit(Vec<u8>),
    /// `%s` consuming argument `idx`.
    Str(usize),
    /// `%d`-family consuming argument `idx` (numeric result, taint
    /// kept).
    Num(usize),
    /// `%x`-family consuming argument `idx` (hex language).
    Hex(usize),
}

/// A lowered function (or method) body.
#[derive(Debug)]
pub struct FuncIr {
    /// Function name.
    pub name: String,
    /// Parameters in order.
    pub params: Vec<ParamIr>,
    /// Body.
    pub body: Vec<IrStmt>,
}

/// A lowered parameter.
#[derive(Debug)]
pub struct ParamIr {
    /// Parameter name.
    pub name: String,
    /// `&$p` by-reference marker.
    pub by_ref: bool,
    /// Default value, evaluated in the caller when the argument is
    /// missing.
    pub default: Option<IrExpr>,
}

/// The lowered IR of one file — the unit cached by
/// [`crate::summary::SummaryCache`]. Deliberately path-free: the same
/// content at two paths shares one summary (file attribution for
/// hotspots and warnings happens at emit time).
#[derive(Debug)]
pub struct FileSummary {
    /// Top-level statements.
    pub body: Vec<IrStmt>,
    /// Hash of the source bytes this summary was lowered from.
    pub content_hash: u64,
}
