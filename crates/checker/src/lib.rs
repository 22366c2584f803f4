//! Policy-conformance checking for **strtaint** (paper §3.2).
//!
//! Given the annotated query grammar from `strtaint-analysis`, the
//! [`PolicyChecker`] decides for every hotspot whether each tainted
//! subgrammar is *syntactically confined* (paper Definitions 2.2/2.3):
//! derivable from a single symbol of the reference SQL grammar in every
//! query context. Violations become [`Finding`]s; if none are found
//! the hotspot is verified, and by Theorem 3.4 (soundness) the program
//! point is free of SQL command injection vulnerabilities with respect
//! to the modeled semantics.
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
pub mod dfas;
mod engine;
pub mod policy_driver;
mod pmemo;
mod prefilter;
mod qcache;
pub mod report;
pub mod skeletons;
mod xss;

pub use checks::CheckOptions;
pub use policy_driver::{Checker, PolicyChecker};
pub use report::{CheckKind, Finding, HotspotReport, MAX_WITNESS_BYTES};
pub use skeletons::skeleton_display;
pub use strtaint_grammar::prepared::PreparedCache;
pub use strtaint_grammar::stats::EngineStats;

/// The engine-evidence version string stamped into persisted artifacts
/// (the daemon's verdict store) and profile exports. The suffix names
/// the evidence generations an artifact must carry to be replayable:
/// `qc1` (query-cache era witness bytes), `rm1` (remediation-era
/// skeleton evidence), and `fe1` (frontend-era per-dependency language
/// evidence). Bumping the suffix drops — rather than replays — every
/// artifact written before the corresponding evidence existed.
pub fn engine_version() -> &'static str {
    concat!("strtaint-", env!("CARGO_PKG_VERSION"), "+qc1.rm1.fe1")
}
