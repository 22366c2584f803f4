//! Context-free grammars with taint labels: the string-analysis core of
//! **strtaint**.
//!
//! The paper (*Sound and Precise Analysis of Web Applications for
//! Injection Vulnerabilities*, Wassermann & Su, PLDI 2007) represents
//! the set of SQL query strings a PHP program can build as an annotated
//! CFG. This crate provides:
//!
//! - [`Cfg`]: the grammar arena, with [`Taint`] labels on nonterminals
//!   marking `direct`/`indirect` user influence (paper §2.2);
//! - [`normal::normalize`]: the paper's `NORMALIZE` (Fig. 7);
//! - [`prepared`]: CFG–FSA intersection with taint propagation — the
//!   paper's Fig. 7 algorithm with `TAINTIF` — over a grammar prepared
//!   once and queried many times. It is the one engine production code
//!   uses: refinements and include resolution build product grammars
//!   with it, and the checker asks its emptiness and witness questions;
//! - [`intersect`]: the naive reference form of the same algorithm,
//!   re-normalizing per call. No production code calls it; tests check
//!   the prepared engine against it;
//! - [`image::image`]: the image of a CFG under a finite-state
//!   transducer, modeling PHP string functions (§3.1.2);
//! - [`lang`]: finiteness, enumeration and witness extraction, used for
//!   dynamic-include resolution (§4) and bug reports.
//!
//! # Examples
//!
//! ```
//! use strtaint_grammar::{Budget, Cfg, PreparedGrammar, QueryMode, Taint};
//! use strtaint_automata::{ClassDfa, Regex};
//!
//! // userid is a GET parameter filtered by eregi('[0-9]+', ·) — the
//! // unanchored filter of the paper's Figure 2.
//! let mut g = Cfg::new();
//! let userid = g.add_nonterminal("userid");
//! g.set_taint(userid, Taint::DIRECT);
//! g.add_literal_production(userid, b"1"); // honest user
//! g.add_literal_production(userid, b"1'; DROP TABLE unp_user; --"); // attacker
//!
//! let filter = ClassDfa::new(&Regex::new("[0-9]+").unwrap().match_dfa());
//! let budget = Budget::unlimited();
//! let (refined, root) = PreparedGrammar::new(&g, userid)
//!     .query(&filter, &budget, QueryMode::Full)
//!     .and_then(|mut ix| ix.grammar(&budget))
//!     .unwrap();
//! // The attack string contains a digit, so the filter keeps it:
//! assert!(refined.derives(root, b"1'; DROP TABLE unp_user; --"));
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod bits;
pub mod budget;
pub mod cfg;
pub mod csr;
pub mod earley;
pub mod image;
pub mod intersect;
pub mod lang;
pub mod normal;
pub mod prepared;
mod shortest;
pub mod stats;
pub mod symbol;

pub use budget::{Budget, BudgetExceeded, DegradeAction, Degradation, Resource};
pub use prepared::{Intersection, PreparedGrammar, QueryMode};
pub use stats::EngineStats;
pub use cfg::Cfg;
pub use symbol::{NtId, Symbol, Taint};
