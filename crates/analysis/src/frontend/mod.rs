//! Frontend abstraction: language → dataflow IR.
//!
//! The paper's pipeline (program → dataflow IR → context-free grammar →
//! policy-automaton conformance) is language-agnostic from the IR on
//! down. This module makes that boundary a real trait: a [`Frontend`]
//! parses one source language and lowers it to the shared IR
//! ([`crate::ir`]) with source spans; everything behind the IR —
//! summaries, the [`crate::SummaryCache`], sink recognition, grammar
//! extraction, the prepared engine, the query cache, the daemon —
//! is frontend-independent.
//!
//! The contract a frontend must honor (see DESIGN.md §14):
//!
//! - **Lowering is config-independent.** All configuration (source
//!   lists, sink tables, policies) is consulted at emit, never during
//!   lowering, so one lowered summary serves every page and config.
//! - **Spans are 1-based `line:col`** pointing into the file the
//!   frontend parsed; the emitter attaches file paths.
//! - **Sources and sinks are expressed in IR vocabulary**, not new
//!   node kinds: a request parameter lowers to the same
//!   `Var`/`Index` shapes the PHP superglobals use (so the emitter's
//!   taint-source recognition applies unchanged), output statements
//!   lower to `IrStmt::Sink`, and calls keep their (canonicalized)
//!   names so the shared `SinkTable` and builtin
//!   models apply.
//! - **The fingerprint names the lowering.** [`Frontend::fingerprint`]
//!   must change whenever the frontend's lowering semantics change;
//!   it keys the summary cache alongside the content hash and is
//!   folded into [`crate::Config::fingerprint`].
//! - **Errors render as `parse error at L:C: message`** so analysis
//!   warnings are byte-identical across frontends.

use std::collections::hash_map::DefaultHasher;
use std::collections::HashMap;
use std::fmt;
use std::hash::{Hash, Hasher};
use std::sync::Arc;

use crate::config::Config;
use crate::ir::IrStmt;

mod php;
mod tpl;

pub use php::PhpFrontend;
pub use tpl::TplFrontend;

/// A parse/lowering failure in some frontend.
///
/// Renders exactly like the PHP frontend's parse error
/// (`parse error at L:C: message`) so warning text stays
/// byte-identical regardless of which frontend produced it.
#[derive(Debug, Clone, PartialEq)]
pub struct FrontendError {
    /// What went wrong.
    pub message: String,
    /// Where (1-based line/column).
    pub span: strtaint_php::Span,
}

impl fmt::Display for FrontendError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "parse error at {}: {}", self.span, self.message)
    }
}

impl std::error::Error for FrontendError {}

impl From<strtaint_php::ParsePhpError> for FrontendError {
    fn from(e: strtaint_php::ParsePhpError) -> Self {
        FrontendError {
            message: e.message,
            span: e.span,
        }
    }
}

impl From<strtaint_tpl::ParseTplError> for FrontendError {
    fn from(e: strtaint_tpl::ParseTplError) -> Self {
        FrontendError {
            message: e.message,
            span: strtaint_php::Span::new(e.span.line, e.span.col),
        }
    }
}

/// One source language: parse + lower to the shared dataflow IR.
///
/// Implementations must be pure functions of the source bytes (no
/// config, no filesystem): that is what lets the summary cache share
/// one lowering across pages, configs, and daemon requests.
pub trait Frontend: Send + Sync + fmt::Debug {
    /// Stable identifier (`"php"`, `"tpl"`) — used in config frontend
    /// lists, extension overrides, and daemon verdict evidence.
    fn id(&self) -> &'static str;

    /// File extensions this frontend claims by default (lowercase,
    /// without the dot).
    fn extensions(&self) -> &'static [&'static str];

    /// Fingerprint of this frontend's lowering semantics. Keys the
    /// summary cache next to the content hash and is folded into
    /// [`Config::fingerprint`]; bump the internal version constant
    /// whenever lowering output changes.
    fn fingerprint(&self) -> u64;

    /// Parses and lowers one file to IR statements.
    fn lower(&self, src: &[u8]) -> Result<Vec<IrStmt>, FrontendError>;
}

/// Hashes a frontend's `(id, lowering-version)` pair into its
/// fingerprint (helper for implementations).
pub(crate) fn fingerprint_of(id: &str, version: u32) -> u64 {
    let mut h = DefaultHasher::new();
    id.hash(&mut h);
    version.hash(&mut h);
    h.finish()
}

/// The resolved set of frontends for one analysis: which languages are
/// enabled and which file extension dispatches to which frontend.
///
/// Unknown extensions fall back to PHP — the behavior the analyzer has
/// always had — so pure-PHP trees are lowered exactly as before the
/// frontend abstraction existed.
#[derive(Debug, Clone)]
pub struct FrontendSet {
    frontends: Vec<Arc<dyn Frontend>>,
    by_ext: HashMap<String, usize>,
    default: usize,
}

impl FrontendSet {
    /// Builds the frontend set a config selects: `config.frontends`
    /// names the languages, `config.extension_overrides` remaps file
    /// extensions. PHP is always present (it is the fallback).
    pub fn from_config(config: &Config) -> Self {
        let mut frontends: Vec<Arc<dyn Frontend>> = Vec::new();
        let push = |f: Arc<dyn Frontend>, frontends: &mut Vec<Arc<dyn Frontend>>| {
            if !frontends.iter().any(|g| g.id() == f.id()) {
                frontends.push(f);
            }
        };
        for name in &config.frontends {
            match name.as_str() {
                "php" => push(Arc::new(PhpFrontend), &mut frontends),
                "tpl" => push(Arc::new(TplFrontend), &mut frontends),
                // Unknown names are ignored: config fingerprints still
                // change, and the PHP fallback keeps analysis total.
                _ => {}
            }
        }
        if !frontends.iter().any(|f| f.id() == "php") {
            frontends.insert(0, Arc::new(PhpFrontend));
        }
        let mut by_ext = HashMap::new();
        for (i, f) in frontends.iter().enumerate() {
            for ext in f.extensions() {
                by_ext.insert((*ext).to_owned(), i);
            }
        }
        for (ext, id) in &config.extension_overrides {
            if let Some(i) = frontends.iter().position(|f| f.id() == id) {
                by_ext.insert(ext.to_lowercase(), i);
            }
        }
        let default = frontends
            .iter()
            .position(|f| f.id() == "php")
            .unwrap_or(0);
        FrontendSet {
            frontends,
            by_ext,
            default,
        }
    }

    /// The frontend responsible for `path`, by file extension
    /// (PHP for unknown extensions).
    pub fn for_path(&self, path: &str) -> &dyn Frontend {
        let ext = path
            .rsplit('/')
            .next()
            .and_then(|name| name.rsplit_once('.'))
            .map(|(_, e)| e.to_lowercase());
        let idx = ext
            .and_then(|e| self.by_ext.get(&e).copied())
            .unwrap_or(self.default);
        self.frontends[idx].as_ref()
    }

    /// Looks a frontend up by id.
    pub fn by_id(&self, id: &str) -> Option<&dyn Frontend> {
        self.frontends
            .iter()
            .find(|f| f.id() == id)
            .map(|f| f.as_ref())
    }

    /// All enabled frontends, in config order (PHP guaranteed).
    pub fn all(&self) -> impl Iterator<Item = &dyn Frontend> {
        self.frontends.iter().map(|f| f.as_ref())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn php_is_the_fallback_for_unknown_extensions() {
        let set = FrontendSet::from_config(&Config::default());
        assert_eq!(set.for_path("a/b/page.php").id(), "php");
        assert_eq!(set.for_path("a/b/page.tpl").id(), "tpl");
        assert_eq!(set.for_path("README.txt").id(), "php");
        assert_eq!(set.for_path("no_extension").id(), "php");
    }

    #[test]
    fn extension_overrides_remap_dispatch() {
        let mut config = Config::default();
        config
            .extension_overrides
            .insert("html".to_owned(), "tpl".to_owned());
        let set = FrontendSet::from_config(&config);
        assert_eq!(set.for_path("page.html").id(), "tpl");
        // Overriding to an unknown frontend id is ignored.
        config
            .extension_overrides
            .insert("php".to_owned(), "cobol".to_owned());
        let set = FrontendSet::from_config(&config);
        assert_eq!(set.for_path("page.php").id(), "php");
    }

    #[test]
    fn php_is_always_present_even_if_not_listed() {
        let config = Config {
            frontends: vec!["tpl".to_owned()],
            ..Config::default()
        };
        let set = FrontendSet::from_config(&config);
        assert!(set.by_id("php").is_some());
        assert_eq!(set.for_path("x.weird").id(), "php");
    }

    #[test]
    fn fingerprints_are_distinct_per_frontend() {
        let set = FrontendSet::from_config(&Config::default());
        let php = set.by_id("php").map(|f| f.fingerprint());
        let tpl = set.by_id("tpl").map(|f| f.fingerprint());
        assert!(php.is_some() && tpl.is_some() && php != tpl);
    }

    #[test]
    fn error_display_is_php_format_identical() {
        let php_err = strtaint_php::parse(b"<?php $x = ;").map(|_| ());
        let tpl_err = strtaint_tpl::parse(b"{{ }}").map(|_| ());
        let (Err(p), Err(t)) = (php_err, tpl_err) else {
            panic!("both parsers must reject");
        };
        let p = FrontendError::from(p).to_string();
        let t = FrontendError::from(t).to_string();
        assert!(p.starts_with("parse error at "), "{p}");
        assert!(t.starts_with("parse error at "), "{t}");
    }
}
