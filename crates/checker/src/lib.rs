//! Policy-conformance checking for **strtaint** (paper §3.2).
//!
//! Given the annotated query grammar from `strtaint-analysis`, the
//! [`PolicyChecker`] decides for every hotspot whether each tainted
//! subgrammar is *syntactically confined* (paper Definitions 2.2/2.3):
//! for SQL, derivable from a single symbol of the reference SQL grammar
//! in every query context. Violations become [`Finding`]s; if none are
//! found the hotspot is verified, and by Theorem 3.4 (soundness) the
//! program point is free of SQL command injection vulnerabilities with
//! respect to the modeled semantics.
//!
//! Every policy, SQL's C1–C5 included, is a cascade of steps from the
//! `strtaint-policy` registry; one step interpreter
//! ([`policy_driver`]) runs them all over the prepared intersection
//! engine. The C5 derivability step lives in [`checks`].
//!
//! # Examples
//!
//! ```
//! use strtaint_checker::Checker;
//! use strtaint_grammar::{Cfg, Symbol, Taint};
//!
//! // query -> "SELECT * FROM t WHERE id='" X "'" with X tainted Σ-ish.
//! let mut g = Cfg::new();
//! let x = g.add_nonterminal("_GET[id]");
//! g.set_taint(x, Taint::DIRECT);
//! g.add_literal_production(x, b"1");
//! g.add_literal_production(x, b"1'; DROP TABLE t; --");
//! let q = g.add_nonterminal("query");
//! let mut rhs = g.literal_symbols(b"SELECT * FROM t WHERE id='");
//! rhs.push(Symbol::N(x));
//! rhs.push(Symbol::T(b'\''));
//! g.add_production(q, rhs);
//!
//! let report = Checker::new().check_hotspot(&g, q);
//! assert!(!report.is_safe());
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod abstraction;
pub mod checks;
mod engine;
mod flight;
pub mod policy_driver;
mod pmemo;
mod qcache;
pub mod report;
pub mod skeletons;

pub use checks::CheckOptions;
pub use engine::fan_out;
pub use policy_driver::{Checker, Evidence, PolicyChecker};
pub use report::{CheckKind, Finding, HotspotReport, MAX_WITNESS_BYTES};
pub use skeletons::skeleton_display;
pub use strtaint_grammar::stats::EngineStats;

/// The engine-evidence version string stamped into persisted artifacts
/// (the daemon's verdict store) and profile exports: the package
/// version plus one evidence-schema number. The number is bumped
/// whenever what an artifact carries, or what the checker puts in it,
/// changes meaning, so every artifact written under an older schema is
/// dropped rather than replayed. Schema 4 is the first under this
/// scheme; it follows the `+qc1.rm1.fe1` suffix chain, whose artifacts
/// also carried a per-verdict `xss` flag.
pub fn engine_version() -> &'static str {
    concat!("strtaint-", env!("CARGO_PKG_VERSION"), "+evidence.4")
}
