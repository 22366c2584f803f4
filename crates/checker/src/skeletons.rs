//! Query-skeleton export: the per-hotspot evidence the remediation
//! layer (`strtaint-remedy`) turns into fix plans and runtime guard
//! profiles.
//!
//! A *skeleton* is the canonical (length, lex)-minimal string of the
//! hotspot's marked grammar: the shortest query the program can build
//! with [`strtaint_sql::VAR_MARKER`] standing in at one tainted
//! position. The set of skeletons over every maximal labeled
//! nonterminal describes the *shapes* this hotspot ever sends to the
//! downstream interpreter — exactly the SQLBlock-style allowlist a
//! runtime guard needs, and exactly the context evidence a fix planner
//! needs to pick a quoted-position vs numeric-position sanitizer.
//!
//! Derivation is shared with witness splicing: with a `PreparedMemo`
//! the skeleton is content-addressed, so exporting it after a check is
//! a cache hit, and a daemon warm replay serves the identical bytes.
//! Hotspots whose grammar exceeds the reconstruction budget export an
//! incomplete set (`complete == false`) rather than an unsound one.

use std::collections::HashMap;

use strtaint_grammar::lang::shortest_string;
use strtaint_grammar::{Cfg, NtId};

use crate::abstraction::{marked_grammar, maximal_labeled};
use crate::pmemo::PreparedMemo;

/// Reconstruction budget, aligned with witness splicing so a hotspot
/// that can render an `example_query` can always render its skeleton.
const SKELETON_BUDGET: usize = 50_000;

/// Derives the skeleton set for one hotspot: one canonical marked
/// shortest string per maximal labeled nonterminal, sorted and
/// deduplicated. An untainted hotspot (no labeled nonterminals)
/// exports its canonical minimal query as the single representative
/// shape. Returns `(skeletons, complete)`; `complete` is `false` when
/// any candidate exceeded the reconstruction budget or derives no
/// finite string.
pub(crate) fn hotspot_skeletons(
    cfg: &Cfg,
    root: NtId,
    memo: Option<&PreparedMemo>,
) -> (Vec<Vec<u8>>, bool) {
    let _span = strtaint_obs::Span::enter("skeletons", "");
    // The size guard depends on `(cfg, root)` alone. Over budget, every
    // candidate — and the untainted fallback — yields no skeleton, so
    // one capped walk decides the whole hotspot before any
    // per-candidate work.
    if cfg.count_reachable_productions(root, SKELETON_BUDGET) > SKELETON_BUDGET {
        return (Vec::new(), false);
    }
    let candidates = maximal_labeled(cfg, root);
    if candidates.is_empty() {
        return match shortest_string(cfg, root) {
            Some(s) => (vec![s], true),
            None => (Vec::new(), false),
        };
    }
    let mut out: Vec<Vec<u8>> = Vec::new();
    let mut complete = true;
    for &x in &candidates {
        let skeleton = match memo {
            Some(m) => m.skeleton_for(cfg, root, x),
            None => {
                let (marked, mroot) = marked_grammar(cfg, root, x, &HashMap::new());
                shortest_string(&marked, mroot)
            }
        };
        match skeleton {
            Some(s) => out.push(s),
            None => complete = false,
        }
    }
    out.sort();
    out.dedup();
    (out, complete)
}

/// Renders one skeleton for display or profile export: lossy UTF-8
/// with the tainted-position marker shown as `?` (the placeholder
/// convention of prepared statements).
pub fn skeleton_display(bytes: &[u8]) -> String {
    let printable: Vec<u8> = bytes
        .iter()
        .map(|&b| {
            if b == strtaint_sql::VAR_MARKER {
                b'?'
            } else {
                b
            }
        })
        .collect();
    String::from_utf8_lossy(&printable).into_owned()
}

#[cfg(test)]
mod tests {
    use super::*;
    use strtaint_grammar::{Symbol, Taint};

    /// `query -> "SELECT * FROM t WHERE id='" X "'"`, X tainted.
    fn harness() -> (Cfg, NtId) {
        let mut g = Cfg::new();
        let x = g.add_nonterminal("_GET[id]");
        g.set_taint(x, Taint::DIRECT);
        g.add_literal_production(x, b"1");
        g.add_literal_production(x, b"1' OR '1'='1");
        let root = g.add_nonterminal("query");
        let mut rhs = g.literal_symbols(b"SELECT * FROM t WHERE id='");
        rhs.push(Symbol::N(x));
        rhs.push(Symbol::T(b'\''));
        g.add_production(root, rhs);
        (g, root)
    }

    #[test]
    fn tainted_hotspot_exports_marked_skeleton() {
        let (g, root) = harness();
        let (sk, complete) = hotspot_skeletons(&g, root, None);
        assert!(complete);
        assert_eq!(sk.len(), 1);
        assert_eq!(
            skeleton_display(&sk[0]),
            "SELECT * FROM t WHERE id='?'"
        );
    }

    #[test]
    fn memoized_and_direct_paths_agree() {
        let (g, root) = harness();
        let memo = PreparedMemo::new();
        let (direct, _) = hotspot_skeletons(&g, root, None);
        let (memoized, complete) = hotspot_skeletons(&g, root, Some(&memo));
        assert!(complete);
        assert_eq!(direct, memoized);
    }

    #[test]
    fn constant_hotspot_exports_minimal_query() {
        let mut g = Cfg::new();
        let root = g.add_nonterminal("query");
        g.add_literal_production(root, b"SELECT 1");
        g.add_literal_production(root, b"SELECT 1 FROM dual");
        let (sk, complete) = hotspot_skeletons(&g, root, None);
        assert!(complete);
        assert_eq!(sk, vec![b"SELECT 1".to_vec()]);
    }

    /// Over the size guard, neither path derives anything.
    #[test]
    fn oversize_hotspot_is_incomplete_on_both_paths() {
        let (mut g, root) = harness();
        let x = g
            .nonterminals()
            .find(|&n| g.name(n) == "_GET[id]")
            .expect("x");
        for k in 0..SKELETON_BUDGET {
            g.add_literal_production(x, k.to_string().as_bytes());
        }
        let memo = PreparedMemo::new();
        assert_eq!(hotspot_skeletons(&g, root, None), (Vec::new(), false));
        assert_eq!(
            hotspot_skeletons(&g, root, Some(&memo)),
            (Vec::new(), false)
        );
        let untainted = g.add_nonterminal("q");
        g.add_production(untainted, vec![Symbol::N(x)]);
        g.set_taint(x, Taint::NONE);
        assert_eq!(hotspot_skeletons(&g, untainted, None), (Vec::new(), false));
    }

    #[test]
    fn unproductive_grammar_is_incomplete() {
        let mut g = Cfg::new();
        let root = g.add_nonterminal("query");
        // root -> root: no finite string derivable.
        g.add_production(root, vec![Symbol::N(root)]);
        let (sk, complete) = hotspot_skeletons(&g, root, None);
        assert!(sk.is_empty());
        assert!(!complete);
    }
}
