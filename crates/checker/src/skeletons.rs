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
//! Derivation is shared with witness splicing: the skeleton is
//! content-addressed in the checker's `PreparedMemo` by the marked
//! grammar it is read from, so exporting it in the same job as the
//! check is a memo hit, and a daemon warm replay serves the identical
//! bytes.
//! Hotspots whose grammar exceeds the reconstruction budget export an
//! incomplete set (`complete == false`) rather than an unsound one.

use strtaint_grammar::lang::shortest_string;
use strtaint_grammar::Cfg;

use crate::engine::Engine;

/// Reconstruction budget, aligned with witness splicing so a hotspot
/// that can render an `example_query` can always render its skeleton.
pub(crate) const SKELETON_BUDGET: usize = 50_000;

/// Derives the skeleton set for the engine's hotspot: one canonical
/// marked shortest string per maximal labeled nonterminal, sorted and
/// deduplicated. An untainted hotspot (no labeled nonterminals)
/// exports its canonical minimal query as the single representative
/// shape. Returns `(skeletons, complete)`; `complete` is `false` when
/// any candidate exceeded the reconstruction budget or derives no
/// finite string.
pub(crate) fn hotspot_skeletons(cfg: &Cfg, engine: &Engine<'_>) -> (Vec<Vec<u8>>, bool) {
    let _span = strtaint_obs::Span::enter("skeletons", "");
    // The size guard depends on `(cfg, root)` alone. Over budget, every
    // candidate — and the untainted fallback — yields no skeleton, so
    // one guard decides the whole hotspot before any per-candidate
    // work.
    if !engine.within(SKELETON_BUDGET) {
        return (Vec::new(), false);
    }
    let candidates = engine.candidates();
    if candidates.is_empty() {
        return match shortest_string(cfg, engine.root()) {
            Some(s) => (vec![s], true),
            None => (Vec::new(), false),
        };
    }
    let mut out: Vec<Vec<u8>> = Vec::new();
    let mut complete = true;
    for &x in candidates {
        match engine.skeleton(cfg, x) {
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
    use crate::abstraction::{marked_grammar, maximal_labeled, PageIndex};
    use crate::checks::CheckOptions;
    use crate::engine::Shared;

    fn shared() -> Shared {
        Shared::new(&CheckOptions::default())
    }
    use strtaint_grammar::{NtId, Symbol, Taint};

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

    fn skeletons_with(g: &Cfg, root: NtId, shared: &Shared) -> (Vec<Vec<u8>>, bool) {
        let page = PageIndex::new(g, &[root]);
        hotspot_skeletons(g, &Engine::new(shared, &page, root))
    }

    fn skeletons(g: &Cfg, root: NtId) -> (Vec<Vec<u8>>, bool) {
        skeletons_with(g, root, &shared())
    }

    #[test]
    fn tainted_hotspot_exports_marked_skeleton() {
        let (g, root) = harness();
        let (sk, complete) = skeletons(&g, root);
        assert!(complete);
        assert_eq!(sk.len(), 1);
        assert_eq!(
            skeleton_display(&sk[0]),
            "SELECT * FROM t WHERE id='?'"
        );
    }

    #[test]
    fn memoized_skeleton_matches_direct_construction() {
        let (g, root) = harness();
        let shared = shared();
        let x = maximal_labeled(&g, root)[0];
        let (marked, mroot) = marked_grammar(&g, root, x, &Default::default());
        let direct = shortest_string(&marked, mroot).expect("finite skeleton");
        let (cold, complete) = skeletons_with(&g, root, &shared);
        let (warm, _) = skeletons_with(&g, root, &shared);
        assert!(complete);
        assert_eq!(cold, vec![direct]);
        assert_eq!(cold, warm);
    }

    #[test]
    fn constant_hotspot_exports_minimal_query() {
        let mut g = Cfg::new();
        let root = g.add_nonterminal("query");
        g.add_literal_production(root, b"SELECT 1");
        g.add_literal_production(root, b"SELECT 1 FROM dual");
        let (sk, complete) = skeletons(&g, root);
        assert!(complete);
        assert_eq!(sk, vec![b"SELECT 1".to_vec()]);
    }

    /// Over the size guard, nothing is derived, tainted or not.
    #[test]
    fn oversize_hotspot_is_incomplete() {
        let (mut g, root) = harness();
        let x = g
            .nonterminals()
            .find(|&n| g.name(n) == "_GET[id]")
            .expect("x");
        for k in 0..SKELETON_BUDGET {
            g.add_literal_production(x, k.to_string().as_bytes());
        }
        assert_eq!(skeletons(&g, root), (Vec::new(), false));
        let untainted = g.add_nonterminal("q");
        g.add_production(untainted, vec![Symbol::N(x)]);
        g.set_taint(x, Taint::NONE);
        assert_eq!(skeletons(&g, untainted), (Vec::new(), false));
    }

    #[test]
    fn unproductive_grammar_is_incomplete() {
        let mut g = Cfg::new();
        let root = g.add_nonterminal("query");
        // root -> root: no finite string derivable.
        g.add_production(root, vec![Symbol::N(root)]);
        let (sk, complete) = skeletons(&g, root);
        assert!(sk.is_empty());
        assert!(!complete);
    }
}
