//! Bug-report types produced by the policy-conformance checker.

use std::fmt;

use strtaint_grammar::{Cfg, Degradation, EngineStats, NtId, Taint};

// `CheckKind` moved to `strtaint-policy` (the registry names the kinds
// a cascade emits); re-exported here so every existing consumer keeps
// compiling and the rule-id/display strings stay byte-identical.
pub use strtaint_policy::CheckKind;

/// Display cap applied to witness strings ([`Finding::cap_witness`]).
///
/// Witnesses are canonical shortest strings, so they are usually tiny;
/// pathological grammars can still pump very long minimal witnesses,
/// and nobody reads past a couple hundred bytes of payload. Applied
/// uniformly by every check driver — computed and replayed verdicts
/// cap identically (the query cache stores *uncapped* bytes;
/// truncation is a rendering concern) — and rendered honestly in SARIF
/// via [`Finding::witness_truncated`].
pub const MAX_WITNESS_BYTES: usize = 256;

/// A policy violation for one labeled nonterminal at one hotspot.
#[derive(Debug, Clone)]
pub struct Finding {
    /// The offending labeled nonterminal.
    pub nonterminal: NtId,
    /// Its display name (usually names the source, e.g. `_GET[userid]`).
    pub name: String,
    /// Taint labels (drives the paper's direct/indirect report split).
    pub taint: Taint,
    /// Which check fired.
    pub kind: CheckKind,
    /// A witness tainted substring demonstrating the violation, when
    /// one could be extracted (capped at [`MAX_WITNESS_BYTES`]).
    pub witness: Option<Vec<u8>>,
    /// Whether `witness` was truncated to [`MAX_WITNESS_BYTES`];
    /// renderers must say so rather than present the prefix as the
    /// full counterexample.
    pub witness_truncated: bool,
    /// A complete example query with the witness spliced into the
    /// shortest query context — what the database would actually
    /// receive.
    pub example_query: Option<Vec<u8>>,
    /// Free-form detail.
    pub detail: String,
    /// Source location `(line, col)` of the sink argument the finding
    /// belongs to, when the analysis supplied IR provenance for the
    /// hotspot (finer than the hotspot's call span).
    pub at: Option<(u32, u32)>,
}

impl Finding {
    /// A `kind` finding against the labeled nonterminal `x` of `cfg`,
    /// with no witness, example or location yet.
    pub(crate) fn new(cfg: &Cfg, x: NtId, kind: CheckKind, detail: String) -> Finding {
        Finding {
            nonterminal: x,
            name: cfg.name(x).to_owned(),
            taint: cfg.taint(x),
            kind,
            witness: None,
            witness_truncated: false,
            example_query: None,
            detail,
            at: None,
        }
    }

    /// Truncates the witness to [`MAX_WITNESS_BYTES`], recording the
    /// truncation. Idempotent; called by every check driver just
    /// before the report leaves the checker.
    pub fn cap_witness(&mut self) {
        if let Some(w) = &mut self.witness {
            if w.len() > MAX_WITNESS_BYTES {
                w.truncate(MAX_WITNESS_BYTES);
                self.witness_truncated = true;
            }
        }
    }
}

impl fmt::Display for Finding {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[{}] {}: {}", self.taint, self.name, self.kind)?;
        if let Some(w) = &self.witness {
            write!(f, " (witness: {:?}{})", String::from_utf8_lossy(w), if self.witness_truncated { " [truncated]" } else { "" })?;
        }
        if !self.detail.is_empty() {
            write!(f, " — {}", self.detail)?;
        }
        if let Some(q) = &self.example_query {
            write!(f, "\n      e.g. {:?}", String::from_utf8_lossy(q))?;
        }
        Ok(())
    }
}

/// Outcome of checking one hotspot.
#[derive(Debug, Clone, Default)]
pub struct HotspotReport {
    /// Violations found (empty = hotspot verified safe).
    pub findings: Vec<Finding>,
    /// Number of maximal labeled nonterminals examined.
    pub checked: usize,
    /// Number verified syntactically confined.
    pub verified: usize,
    /// Precision losses from budget trips while checking this hotspot.
    /// Nonempty `degradations` with empty `findings` cannot happen: a
    /// trip always yields a [`CheckKind::BudgetExhausted`] finding.
    pub degradations: Vec<Degradation>,
    /// Intersection-engine work counters for this hotspot's checks.
    pub engine: EngineStats,
    /// Canonical query skeletons for this hotspot: the (length, lex)-
    /// minimal string per maximal labeled nonterminal with
    /// `VAR_MARKER` at the tainted position (sorted, deduplicated).
    /// Exported in the hotspot's check job when the caller requests
    /// [`Evidence::Skeletons`](crate::Evidence::Skeletons); empty when
    /// export was not requested.
    pub skeletons: Vec<Vec<u8>>,
    /// Whether `skeletons` covers every labeled nonterminal of the
    /// hotspot; `false` when any candidate exceeded the reconstruction
    /// budget (a guard profile built from an incomplete set must say
    /// so rather than over-block) and when export was not requested.
    pub skeletons_complete: bool,
}

impl HotspotReport {
    /// `true` when every tainted substring was verified confined.
    pub fn is_safe(&self) -> bool {
        self.findings.is_empty()
    }

    /// The skeleton set rendered for display or profile export: lossy
    /// UTF-8 with the tainted-position marker shown as `?`. This is
    /// the single conversion point both the cold CLI path and the
    /// daemon's persisted verdicts use, which is what makes profile
    /// output byte-identical across replay.
    pub fn skeleton_strings(&self) -> Vec<String> {
        self.skeletons
            .iter()
            .map(|s| crate::skeletons::skeleton_display(s))
            .collect()
    }
}

impl fmt::Display for HotspotReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_safe() {
            write!(f, "verified ({} labeled nonterminals)", self.checked)?;
        } else {
            writeln!(f, "{} finding(s):", self.findings.len())?;
            for finding in &self.findings {
                writeln!(f, "  - {finding}")?;
            }
        }
        for d in &self.degradations {
            writeln!(f, "  ~ degraded: {d}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn finding_display() {
        let f = Finding {
            nonterminal: NtId(3),
            name: "_GET[userid]".into(),
            taint: Taint::DIRECT,
            kind: CheckKind::OddQuotes,
            witness: Some(b"1'".to_vec()),
            witness_truncated: false,
            example_query: None,
            detail: String::new(),
            at: None,
        };
        let s = f.to_string();
        assert!(s.contains("direct"));
        assert!(s.contains("_GET[userid]"));
        assert!(s.contains("odd number"));
        assert!(s.contains("1'"));
    }

    #[test]
    fn report_safety() {
        let r = HotspotReport {
            findings: vec![],
            checked: 2,
            verified: 2,
            degradations: vec![],
            engine: EngineStats::default(),
            skeletons: vec![],
            skeletons_complete: false,
        };
        assert!(r.is_safe());
        assert!(r.to_string().contains("verified"));
    }

    #[test]
    fn skeleton_strings_mark_placeholder() {
        let r = HotspotReport {
            skeletons: vec![b"SELECT \x1a".to_vec()],
            skeletons_complete: true,
            ..HotspotReport::default()
        };
        assert_eq!(r.skeleton_strings(), vec!["SELECT ?".to_string()]);
    }
}
