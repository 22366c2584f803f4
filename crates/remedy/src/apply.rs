//! Applying fix plans to a copy of the tree and proving findings
//! discharged by re-analysis.
//!
//! Application never mutates the caller's [`Vfs`]: plans are applied
//! to a clone, the clone is re-analyzed with a fresh checker under the
//! same configuration, and a plan only counts as *discharged* when the
//! re-analysis reports no finding for the same source under the same
//! policy on its page. The original analysis is the accuser; the
//! re-analysis is the proof.

use std::collections::HashMap;

use strtaint::report::PageReport;
use strtaint::{
    analyze_page_cached, AnalyzeError, Config, PolicyChecker, SummaryCache,
    Vfs,
};

use crate::plan::{plan_fixes, Edit, FixPlan};

/// The full dry-run/apply outcome for one set of pages.
#[derive(Debug)]
pub struct FixOutcome {
    /// Reports of the original (accusing) analysis, in entry order.
    pub reports: Vec<PageReport>,
    /// One plan per finding, in report order.
    pub plans: Vec<FixPlan>,
    /// Whether each plan's edits made it into the fixed tree (identical
    /// duplicate plans count as applied; conflicting overlaps do not).
    pub applied: Vec<bool>,
    /// Whether re-analysis proved each plan's finding gone.
    pub discharged: Vec<bool>,
    /// The repaired tree (a modified clone; untouched files are
    /// byte-identical to the input).
    pub fixed_vfs: Vfs,
    /// Reports of the re-analysis over `fixed_vfs`, in entry order.
    pub reanalyzed: Vec<PageReport>,
}

impl FixOutcome {
    /// Total findings still reported after the repair pass.
    pub fn remaining_findings(&self) -> usize {
        self.reanalyzed.iter().map(|r| r.findings().count()).sum()
    }
}

/// Applies every applicable plan to a clone of `vfs`. Returns the
/// repaired tree and, per plan, whether its edits were applied.
/// Identical plans (two entries flowing through one shared read) apply
/// once and all count applied; non-identical overlapping edits
/// conflict and the later plan is left unapplied.
pub fn apply_plans(vfs: &Vfs, plans: &[FixPlan]) -> (Vfs, Vec<bool>) {
    let mut applied = vec![false; plans.len()];
    let mut accepted: Vec<Vec<Edit>> = Vec::new();
    for (i, plan) in plans.iter().enumerate() {
        if !plan.is_applicable() {
            continue;
        }
        if accepted.contains(&plan.edits) {
            applied[i] = true;
            continue;
        }
        let conflicts = accepted.iter().flatten().any(|e| {
            plan.edits
                .iter()
                .any(|n| n.file == e.file && overlaps(n, e))
        });
        if conflicts {
            continue;
        }
        applied[i] = true;
        accepted.push(plan.edits.clone());
    }

    let mut by_file: HashMap<&str, Vec<&Edit>> = HashMap::new();
    for e in accepted.iter().flatten() {
        by_file.entry(&e.file).or_default().push(e);
    }
    let mut fixed = vfs.clone();
    for (file, mut edits) in by_file {
        let Some(bytes) = vfs.get(file) else { continue };
        let mut contents = bytes.to_vec();
        // Right-to-left application keeps earlier offsets valid.
        edits.sort_by_key(|e| std::cmp::Reverse((e.start, e.end)));
        for e in edits {
            if e.end <= contents.len() {
                contents.splice(e.start..e.end, e.insert.bytes());
            }
        }
        fixed.add(file, contents);
    }
    (fixed, applied)
}

/// `true` when two edits to the same file cannot compose: their ranges
/// intersect, or both insert at the same position (order ambiguous).
fn overlaps(a: &Edit, b: &Edit) -> bool {
    match (a.start == a.end, b.start == b.end) {
        (true, true) => a.start == b.start,
        // An insertion strictly inside the other edit's replaced
        // region lands in text that is being rewritten.
        (true, false) => b.start < a.start && a.start < b.end,
        (false, true) => a.start < b.start && b.start < a.end,
        (false, false) => a.start.max(b.start) < a.end.min(b.end),
    }
}

/// The end-to-end fix pipeline: analyze `entries`, plan a fix per
/// finding, apply the unambiguous plans to a clone of the tree, and
/// re-analyze that clone to prove each finding discharged.
///
/// # Errors
///
/// Returns [`AnalyzeError`] if any entry is missing or fails to parse
/// (in either pass).
pub fn run_fix(vfs: &Vfs, entries: &[String], config: &Config) -> Result<FixOutcome, AnalyzeError> {
    let checker = PolicyChecker::new();
    let summaries = SummaryCache::new();
    let mut reports = Vec::new();
    for entry in entries {
        reports.push(analyze_page_cached(vfs, entry, config, &checker, &summaries)?);
    }
    let plans = plan_fixes(vfs, &reports);
    let (fixed_vfs, applied) = apply_plans(vfs, &plans);

    // Fresh checker and summary cache: the proof must not replay any
    // verdict derived from the unrepaired tree.
    let checker2 = PolicyChecker::new();
    let summaries2 = SummaryCache::new();
    let mut reanalyzed = Vec::new();
    for entry in entries {
        reanalyzed.push(analyze_page_cached(&fixed_vfs, entry, config, &checker2, &summaries2)?);
    }

    let discharged = plans
        .iter()
        .zip(&applied)
        .map(|(plan, &ok)| {
            if !ok {
                return false;
            }
            let Some(report) = reanalyzed.iter().find(|r| r.entry == plan.entry) else {
                return false;
            };
            !report.hotspots.iter().any(|(h, r)| {
                h.policy == plan.policy && r.findings.iter().any(|f| f.name == plan.source)
            })
        })
        .collect();

    Ok(FixOutcome {
        reports,
        plans,
        applied,
        discharged,
        fixed_vfs,
        reanalyzed,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn edit(file: &str, start: usize, end: usize, insert: &str) -> Edit {
        Edit {
            file: file.into(),
            start,
            end,
            insert: insert.into(),
        }
    }

    fn plan(edits: Vec<Edit>) -> FixPlan {
        FixPlan {
            entry: "a.php".into(),
            page: 0,
            hotspot: 0,
            finding: 0,
            policy: "sql".into(),
            source: "_GET[id]".into(),
            rule: "r".into(),
            strategy: None,
            edits,
            ambiguous: None,
        }
    }

    #[test]
    fn identical_plans_apply_once() {
        let mut vfs = Vfs::new();
        vfs.add("a.php", "abcdef");
        let p = plan(vec![edit("a.php", 1, 3, "X")]);
        let (fixed, applied) = apply_plans(&vfs, &[p.clone(), p]);
        assert_eq!(applied, vec![true, true]);
        assert_eq!(fixed.get("a.php"), Some(b"aXdef" as &[u8]));
    }

    #[test]
    fn conflicting_overlap_skips_later_plan() {
        let mut vfs = Vfs::new();
        vfs.add("a.php", "abcdef");
        let p1 = plan(vec![edit("a.php", 1, 4, "X")]);
        let p2 = plan(vec![edit("a.php", 2, 5, "Y")]);
        let (fixed, applied) = apply_plans(&vfs, &[p1, p2]);
        assert_eq!(applied, vec![true, false]);
        assert_eq!(fixed.get("a.php"), Some(b"aXef" as &[u8]));
    }

    #[test]
    fn disjoint_edits_compose() {
        let mut vfs = Vfs::new();
        vfs.add("a.php", "abcdef");
        let p1 = plan(vec![edit("a.php", 0, 1, "A")]);
        let p2 = plan(vec![edit("a.php", 5, 6, "F"), edit("a.php", 3, 3, "-")]);
        let (fixed, applied) = apply_plans(&vfs, &[p1, p2]);
        assert_eq!(applied, vec![true, true]);
        assert_eq!(fixed.get("a.php"), Some(b"Abc-deF" as &[u8]));
    }

    #[test]
    fn ambiguous_plans_touch_nothing() {
        let mut vfs = Vfs::new();
        vfs.add("a.php", "abcdef");
        let mut p = plan(vec![edit("a.php", 0, 1, "A")]);
        p.ambiguous = Some("reason".into());
        let (fixed, applied) = apply_plans(&vfs, &[p]);
        assert_eq!(applied, vec![false]);
        assert_eq!(fixed.get("a.php"), Some(b"abcdef" as &[u8]));
    }
}
