//! String-taint analysis for PHP web applications (paper §3.1).
//!
//! This crate implements the first phase of **strtaint**: it walks a
//! PHP application starting from a page's top-level file and produces a
//! context-free grammar that conservatively derives every SQL query
//! string the application can send to its database, with nonterminals
//! labeled `direct`/`indirect` where the derived strings come from
//! user-controlled sources.
//!
//! Key pieces (a staged pipeline — see DESIGN.md §Pipeline):
//!
//! - [`lower`]: AST → dataflow IR (control-flow shape, loop φ-sets,
//!   condition refinements, prepared transducers);
//! - [`summary`]: per-file IR summaries memoized by content hash, so
//!   shared includes lower once per app instead of once per page;
//! - [`emit`](crate::builder): IR → grammar productions — assignments,
//!   joins, loop fixpoints, interprocedural inlining — reached through
//!   [`builder::analyze`] / [`builder::analyze_cached`];
//! - [`builtins`]: models for ~250 PHP library functions, with precise
//!   transducers for the sanitization-relevant ones;
//! - condition refinement (paper §3.1.2): regex conditionals intersect
//!   variable grammars, which is how the analyzer distinguishes the
//!   anchored `preg_match('/^[\d]+$/', $id)` from the paper's
//!   Figure 2 bug `eregi('[0-9]+', $id)`;
//! - dynamic include resolution through the filesystem layout (§4).
//!
//! # Examples
//!
//! ```
//! use strtaint_analysis::{analyze, Config, Vfs};
//!
//! let mut vfs = Vfs::new();
//! vfs.add("page.php", r#"<?php
//! $id = $_GET['id'];
//! $r = $DB->query("SELECT * FROM t WHERE id='$id'");
//! "#);
//! let analysis = analyze(&vfs, "page.php", &Config::default()).unwrap();
//! assert_eq!(analysis.hotspots.len(), 1);
//! let root = analysis.hotspots[0].root;
//! assert!(analysis
//!     .cfg
//!     .derives(root, b"SELECT * FROM t WHERE id='1; DROP TABLE t'"));
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod builder;
pub mod builtins;
pub mod config;
mod emit;
mod emit_expr;
mod emit_image;
mod emit_include;
pub mod env;
pub mod frontend;
pub mod ir;
pub mod lower;
mod refine;
mod sinks;
pub mod summary;
pub mod vfs;

pub use builder::{
    analyze, analyze_cached, analyze_with, Analysis, AnalyzeError, Hotspot, Provenance,
};
pub use frontend::{Frontend, FrontendError, FrontendSet, PhpFrontend, TplFrontend};
pub use summary::SummaryCache;
pub use config::Config;
pub use env::Env;
pub use vfs::Vfs;
