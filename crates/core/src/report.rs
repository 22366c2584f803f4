//! End-to-end report types.

use std::fmt;
use std::time::Duration;

use strtaint_analysis::Hotspot;
use strtaint_checker::{EngineStats, Finding, HotspotReport};
use strtaint_grammar::Degradation;

/// Analysis + checking results for one web page (one top-level PHP
/// file, the unit of analysis in the paper §5.3).
#[derive(Debug)]
pub struct PageReport {
    /// The page's top-level file.
    pub entry: String,
    /// Per-hotspot conformance reports, in program order.
    pub hotspots: Vec<(Hotspot, HotspotReport)>,
    /// `|V|` of the query grammars (nonterminals reachable from any
    /// hotspot root — the paper's Table 1 "Grammar Size" column).
    pub grammar_nonterminals: usize,
    /// `|R|` of the query grammars.
    pub grammar_productions: usize,
    /// Wall-clock time of the string-taint analysis phase.
    pub analysis_time: Duration,
    /// Wall-clock time of the SQLCIV checking phase.
    pub check_time: Duration,
    /// Analyzer warnings (unresolved includes, widenings, …).
    pub warnings: Vec<String>,
    /// Builtins that fell back to Σ*.
    pub unmodeled: Vec<String>,
    /// Files traversed (recounting repeated includes).
    pub files_analyzed: usize,
    /// Distinct files whose contents the analysis read (entry plus
    /// every resolved include), sorted. This is the page's transitive
    /// input set — what the daemon's verdict cache keys replay on.
    /// Empty for skipped pages.
    pub inputs: Vec<String>,
    /// Precision losses from budget trips during grammar construction
    /// (hotspot-level losses live on each [`HotspotReport`]).
    pub degradations: Vec<Degradation>,
    /// `Some(reason)` when the page could not be analyzed at all
    /// (parse error, missing entry, analyzer panic). A skipped page is
    /// **never** verified.
    pub skipped: Option<String>,
}

impl PageReport {
    /// A synthetic report for a page that could not be analyzed.
    ///
    /// The page carries the reason in both `skipped` and `warnings`,
    /// counts zero files analyzed, and reports `is_verified() == false`
    /// — skipping may only lose precision, never soundness.
    pub fn skipped_page(entry: &str, reason: String) -> PageReport {
        PageReport {
            entry: entry.to_owned(),
            hotspots: Vec::new(),
            grammar_nonterminals: 0,
            grammar_productions: 0,
            analysis_time: Duration::default(),
            check_time: Duration::default(),
            warnings: vec![reason.clone()],
            unmodeled: Vec::new(),
            files_analyzed: 0,
            inputs: Vec::new(),
            degradations: Vec::new(),
            skipped: Some(reason),
        }
    }

    /// `true` if the page was analyzed and every hotspot was verified.
    ///
    /// Skipped pages are *not* verified — nothing was proven about
    /// them.
    pub fn is_verified(&self) -> bool {
        self.skipped.is_none() && self.hotspots.iter().all(|(_, r)| r.is_safe())
    }

    /// `true` if any precision was lost to budget trips, on the page
    /// or inside any of its hotspot checks.
    pub fn is_degraded(&self) -> bool {
        !self.degradations.is_empty()
            || self.hotspots.iter().any(|(_, r)| !r.degradations.is_empty())
    }

    /// All degradations: page-level, then per-hotspot.
    pub fn all_degradations(&self) -> impl Iterator<Item = &Degradation> {
        self.degradations
            .iter()
            .chain(self.hotspots.iter().flat_map(|(_, r)| r.degradations.iter()))
    }

    /// Intersection-engine work counters summed over the page's
    /// hotspots.
    pub fn engine_stats(&self) -> EngineStats {
        let mut acc = EngineStats::default();
        for (_, r) in &self.hotspots {
            acc.merge(&r.engine);
        }
        acc
    }

    /// Iterates over all findings with their hotspots.
    pub fn findings(&self) -> impl Iterator<Item = (&Hotspot, &Finding)> {
        self.hotspots
            .iter()
            .flat_map(|(h, r)| r.findings.iter().map(move |f| (h, f)))
    }
}

impl fmt::Display for PageReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "{}: {} hotspot(s), |V|={}, |R|={}, analysis {:?}, check {:?}",
            self.entry,
            self.hotspots.len(),
            self.grammar_nonterminals,
            self.grammar_productions,
            self.analysis_time,
            self.check_time
        )?;
        if let Some(reason) = &self.skipped {
            writeln!(f, "  SKIPPED: {reason}")?;
        }
        for (h, r) in &self.hotspots {
            if r.is_safe() {
                writeln!(f, "  {} @ {}:{} — verified", h.label, h.file, h.span)?;
            } else {
                writeln!(f, "  {} @ {}:{} — {}", h.label, h.file, h.span, r)?;
            }
        }
        for d in &self.degradations {
            writeln!(f, "  ~ degraded: {d}")?;
        }
        Ok(())
    }
}

/// Aggregated results for a whole application (many pages) — one row
/// of the paper's Table 1.
#[derive(Debug, Default)]
pub struct AppReport {
    /// Application name.
    pub name: String,
    /// Number of files in the project.
    pub files: usize,
    /// Total source lines.
    pub lines: usize,
    /// Per-page reports.
    pub pages: Vec<PageReport>,
    /// Summary-cache hits: pages that reused another page's AST→IR
    /// lowering for a file (shared includes). Zero when the driver did
    /// not share a cache.
    pub summary_hits: u64,
    /// Summary-cache misses: files actually parsed and lowered.
    pub summary_misses: u64,
}

impl AppReport {
    /// Distinct findings across pages, deduplicated by hotspot site and
    /// source name (one vulnerability may be reachable from several
    /// pages).
    pub fn distinct_findings(&self) -> Vec<(&Hotspot, &Finding)> {
        let mut seen = std::collections::HashSet::new();
        let mut out = Vec::new();
        for p in &self.pages {
            for (h, f) in p.findings() {
                let key = (h.file.clone(), h.span.line, f.name.clone());
                if seen.insert(key) {
                    out.push((h, f));
                }
            }
        }
        out
    }

    /// Findings whose taint includes `direct` (Table 1's "direct"
    /// errors; direct wins over indirect when both are set).
    pub fn direct_findings(&self) -> Vec<(&Hotspot, &Finding)> {
        self.distinct_findings()
            .into_iter()
            .filter(|(_, f)| f.taint.is_direct())
            .collect()
    }

    /// Findings whose taint is indirect only.
    pub fn indirect_findings(&self) -> Vec<(&Hotspot, &Finding)> {
        self.distinct_findings()
            .into_iter()
            .filter(|(_, f)| f.taint.is_indirect() && !f.taint.is_direct())
            .collect()
    }

    /// Summed grammar size across pages (`|V|`, `|R|`).
    pub fn grammar_size(&self) -> (usize, usize) {
        (
            self.pages.iter().map(|p| p.grammar_nonterminals).sum(),
            self.pages.iter().map(|p| p.grammar_productions).sum(),
        )
    }

    /// Total string-analysis time.
    pub fn analysis_time(&self) -> Duration {
        self.pages.iter().map(|p| p.analysis_time).sum()
    }

    /// Total checking time.
    pub fn check_time(&self) -> Duration {
        self.pages.iter().map(|p| p.check_time).sum()
    }

    /// Number of pages that could not be analyzed (parse error, panic,
    /// missing entry). These pages are never counted verified.
    pub fn skipped_pages(&self) -> usize {
        self.pages.iter().filter(|p| p.skipped.is_some()).count()
    }

    /// Number of pages whose results lost precision to budget trips.
    pub fn degraded_pages(&self) -> usize {
        self.pages.iter().filter(|p| p.is_degraded()).count()
    }

    /// Files actually traversed by the analyzer, summed over pages
    /// (repeated includes recounted, skipped pages contributing zero) —
    /// unlike `files`, which counts every file in the project tree.
    pub fn files_analyzed(&self) -> usize {
        self.pages.iter().map(|p| p.files_analyzed).sum()
    }

    /// Intersection-engine work counters summed over all pages.
    pub fn engine_stats(&self) -> EngineStats {
        let mut acc = EngineStats::default();
        for p in &self.pages {
            acc.merge(&p.engine_stats());
        }
        acc
    }
}

impl fmt::Display for AppReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let (v, r) = self.grammar_size();
        writeln!(
            f,
            "{}: {} files, {} lines, |V|={v}, |R|={r}, analysis {:?}, check {:?}",
            self.name,
            self.files,
            self.lines,
            self.analysis_time(),
            self.check_time()
        )?;
        writeln!(
            f,
            "  direct findings: {}, indirect findings: {}",
            self.direct_findings().len(),
            self.indirect_findings().len()
        )?;
        let (skipped, degraded) = (self.skipped_pages(), self.degraded_pages());
        if skipped > 0 || degraded > 0 {
            writeln!(
                f,
                "  pages skipped: {skipped}, pages degraded: {degraded} (neither counts verified)"
            )?;
        }
        if self.summary_hits > 0 || self.summary_misses > 0 {
            writeln!(
                f,
                "  summary cache: {} hit(s), {} lowering(s)",
                self.summary_hits, self.summary_misses
            )?;
        }
        Ok(())
    }
}
