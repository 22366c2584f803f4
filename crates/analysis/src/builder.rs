//! Analysis entry points and result types (the pipeline's front door).
//!
//! The analysis itself is a staged pipeline (see DESIGN.md §Pipeline):
//!
//! 1. [`crate::lower`] — AST → dataflow IR (control-flow shape, loop
//!    φ-sets, condition refinements, prepared transducers);
//! 2. [`crate::summary`] — per-file IR summaries memoized by content
//!    hash so shared includes lower once per app, not once per page;
//! 3. `crate::emit` — IR → annotated CFG productions (paper §3.1),
//!    owning every grammar, budget, and configuration interaction.
//!
//! This module keeps the stable public surface: [`analyze`] /
//! [`analyze_with`] for single pages (private summary cache), and
//! [`analyze_cached`] for app drivers that share a [`SummaryCache`]
//! across pages.

use std::collections::BTreeSet;
use std::fmt;

use strtaint_grammar::budget::{Budget, Degradation};
use strtaint_grammar::{Cfg, NtId};
use strtaint_php::Span;

use crate::config::Config;
use crate::emit::Emitter;
use crate::env::Env;
use crate::summary::SummaryCache;
use crate::vfs::{normalize, Vfs};

/// Where a hotspot's grammar came from in the staged pipeline.
#[derive(Debug, Clone, Copy, Default)]
pub struct Provenance {
    /// Content hash of the file summary whose IR contained the sink —
    /// the [`crate::summary`] cache key component, letting reports tie
    /// a finding back to the exact file revision analyzed.
    pub summary: u64,
    /// Span of the argument the sink checks (the query expression
    /// itself), finer-grained than the call span for finding locations.
    pub arg_span: Option<Span>,
}

/// A query-construction site and the grammar root for the values that
/// flow into it.
#[derive(Debug, Clone)]
pub struct Hotspot {
    /// File containing the call.
    pub file: String,
    /// Location of the call.
    pub span: Span,
    /// Call label, e.g. `$DB->query` or `mysql_query`.
    pub label: String,
    /// Grammar root deriving every query string this site may send.
    pub root: NtId,
    /// Id of the policy this sink belongs to (`"sql"`, `"xss"`,
    /// `"shell"`, …) — the dispatch key multi-policy checkers use. Sink
    /// recognition is a table lookup against the `strtaint-policy`
    /// registry, so the analysis layer never hard-codes a class.
    pub policy: String,
    /// IR provenance (summary hash + argument span).
    pub provenance: Provenance,
}

/// Result of the string-taint analysis phase.
#[derive(Debug)]
pub struct Analysis {
    /// The program-wide annotated grammar.
    pub cfg: Cfg,
    /// Query hotspots discovered, in program order.
    pub hotspots: Vec<Hotspot>,
    /// HTML output sinks (`echo`/`print` arguments), for the XSS
    /// extension the paper names as future work (§7).
    pub echo_sinks: Vec<Hotspot>,
    /// Non-fatal findings (unresolved includes, parse failures in
    /// included files, widened operations).
    pub warnings: Vec<String>,
    /// Builtin functions that had no model and were widened to Σ*.
    pub unmodeled: BTreeSet<String>,
    /// Number of files analyzed (including re-analysis through
    /// repeated includes, as in the paper's tool).
    pub files_analyzed: usize,
    /// Distinct files whose *contents* this analysis read (entry plus
    /// every resolved include, each counted once). This is the page's
    /// transitive input set: the emitted grammar is a function of these
    /// files' bytes, the project path layout (dynamic include
    /// resolution), and the [`crate::Config`] — which is what the
    /// analysis daemon keys verdict replay on.
    pub inputs: BTreeSet<String>,
    /// Precision losses from budget trips during grammar construction
    /// (widened transducer images, skipped refinements, unresolved
    /// includes). Each is sound: the degraded grammar derives a
    /// superset of the precise one.
    pub degradations: Vec<Degradation>,
}

/// Fatal analysis errors.
#[derive(Debug)]
pub enum AnalyzeError {
    /// The entry file is missing from the VFS.
    EntryNotFound(String),
    /// The entry file failed to parse (in whichever frontend its
    /// extension dispatched to — the error renders identically across
    /// frontends).
    Parse(crate::frontend::FrontendError),
    /// The page's analysis panicked; the payload's message. The page
    /// driver catches the panic so the other pages of a run complete.
    Panicked(String),
}

impl fmt::Display for AnalyzeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AnalyzeError::EntryNotFound(p) => write!(f, "entry file not found: {p}"),
            AnalyzeError::Parse(e) => write!(f, "entry file failed to parse: {e}"),
            AnalyzeError::Panicked(msg) => write!(f, "analyzer panicked: {msg}"),
        }
    }
}

impl std::error::Error for AnalyzeError {}

/// Runs the string-taint analysis on `entry` within `vfs`.
///
/// # Errors
///
/// Returns [`AnalyzeError`] if the entry file is missing or does not
/// parse; problems in *included* files are demoted to warnings, like
/// the paper's tool.
pub fn analyze(vfs: &Vfs, entry: &str, config: &Config) -> Result<Analysis, AnalyzeError> {
    analyze_with(vfs, entry, config, &config.page_budget())
}

/// Budgeted form of [`analyze`]: grammar-level operations charge
/// `budget`, and on exhaustion degrade soundly (tainted-Σ* widening,
/// skipped refinement, unresolved include) with a record in
/// [`Analysis::degradations`].
///
/// The same budget should be passed on to the checker so one page has
/// one resource envelope.
pub fn analyze_with(
    vfs: &Vfs,
    entry: &str,
    config: &Config,
    budget: &Budget,
) -> Result<Analysis, AnalyzeError> {
    let summaries = SummaryCache::new();
    analyze_cached(vfs, entry, config, budget, &summaries)
}

/// [`analyze_with`], sharing a caller-owned [`SummaryCache`] so the
/// AST→IR lowering of files reached by many pages (shared includes,
/// helper libraries) happens once per app instead of once per page.
///
/// The emitted grammar is identical to the uncached path — summaries
/// are path- and configuration-free IR, and every config-dependent
/// decision is replayed at emission.
///
/// # Errors
///
/// Returns [`AnalyzeError`] if the entry file is missing or does not
/// parse. Entry parse failures are never cached, so retrying after an
/// edit behaves identically to the uncached path.
pub fn analyze_cached(
    vfs: &Vfs,
    entry: &str,
    config: &Config,
    budget: &Budget,
    summaries: &SummaryCache,
) -> Result<Analysis, AnalyzeError> {
    let mut em = Emitter::new(vfs, config, budget.clone(), summaries);
    let src = vfs
        .get(entry)
        .ok_or_else(|| AnalyzeError::EntryNotFound(entry.to_owned()))?;
    let summary = summaries
        .get_or_lower(em.frontends.for_path(entry), src, config)
        .map_err(AnalyzeError::Parse)?;
    let mut env = Env::new();
    em.cur_file = normalize(entry);
    em.cur_summary = summary.content_hash;
    em.files_analyzed += 1;
    em.inputs.insert(em.cur_file.clone());
    let _span = strtaint_obs::Span::enter("emit", entry);
    em.register_functions(&summary.body);
    em.emit_stmts(&summary.body, &mut env);
    Ok(em.into_analysis())
}
