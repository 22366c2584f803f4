//! Data-driven injection-policy registry.
//!
//! The paper's checking recipe is generic: a sink is safe iff the CFG
//! of its tainted argument fragment, intersected with a policy
//! automaton, is empty (plus derivability-based confinement for the
//! harder cases). This crate captures that genericity as data. A
//! [`Policy`] names a vulnerability class — its stable id, the sink
//! functions/methods (with the checked argument position), the policy
//! automata built from the byte-class DFA toolkit in
//! `strtaint-automata`, the confinement cascade that orders provers
//! and refuters, a severity, and the SARIF rule ids it can emit.
//!
//! All five classes are data: SQL command injection (SQLCIV, checks
//! C1–C5), XSS, shell command injection, path traversal and
//! eval/code injection are each a [`Cascade`] of steps that one step
//! interpreter in `strtaint-checker` runs. SQL and XSS add two step
//! shapes to the plain DFA pipeline: a [`Gate`] on the *marked*
//! grammar (C2 and the HTML contexts) and a derivability step (C5).
//! Their automata live in [`dfas`].
//!
//! Layering: this crate depends on `strtaint-automata` and, for the
//! marker byte the marked-grammar automata read, on `strtaint-sql`.
//! The analysis crate consumes the sink tables, the checker crate
//! consumes the cascades, and neither needs the other to agree on
//! anything but the policy id carried on each hotspot.

pub mod dfas;
pub mod fixes;
mod kinds;
pub mod registry;

pub use fixes::{fix_template, fix_templates, FixKind, FixTemplate};
pub use kinds::CheckKind;
pub use registry::{
    builtin, find, parse_selection, Cascade, Gate, Policy, Residual, Severity, Step, StepAction,
};

/// Policy id of the default SQL command-injection policy.
pub const SQL_POLICY: &str = "sql";
/// Policy id of the cross-site-scripting policy.
pub const XSS_POLICY: &str = "xss";
