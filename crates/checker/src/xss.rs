//! Cross-site-scripting conformance checking — the extension the paper
//! names as future work (§7: "We would like to apply the same
//! technique to detecting vulnerabilities that allow cross-site
//! scripting attacks").
//!
//! The machinery is identical to the SQLCIV checker: the string-taint
//! analysis hands us a grammar for everything a page can `echo`, with
//! tainted subgrammars labeled; an HTML-context automaton plays the
//! role the quote-parity automata play for SQL. A tainted substring is
//! confined when, in every emission context, its language cannot
//! introduce markup:
//!
//! - **text context** (between tags): must not contain `<`;
//! - **double-/single-quoted attribute context**: must not contain the
//!   closing quote (and `<` is harmless there);
//! - **inside a tag** (attribute-name position): attacker-controlled
//!   tokens are reported unless the language is a bare alphanumeric
//!   word.

use strtaint_grammar::budget::{Budget, BudgetExceeded};
use strtaint_grammar::lang::shortest_string;
use strtaint_grammar::{Cfg, NtId};

use crate::dfas::{contains_byte, marker_in_context, non_word, HtmlCtx};
use crate::engine::{Engine, Qdfa};
use crate::report::{CheckKind, Finding};

/// The XSS cascade: precompiled HTML-context automata. The candidate
/// loop, engine session and budget discipline around
/// [`XssCascade::check_one`] belong to [`crate::PolicyChecker`]; all
/// XSS queries are emptiness-only, so witness replay never arises.
#[derive(Debug, Clone)]
pub(crate) struct XssCascade {
    in_text: Qdfa,
    in_tag: Qdfa,
    in_attr_dq: Qdfa,
    in_attr_sq: Qdfa,
    has_lt: Qdfa,
    has_dq: Qdfa,
    has_sq: Qdfa,
    non_word: Qdfa,
}

impl XssCascade {
    pub(crate) fn new() -> Self {
        XssCascade {
            in_text: Qdfa::new(marker_in_context(HtmlCtx::Text)),
            in_tag: Qdfa::new(marker_in_context(HtmlCtx::Tag)),
            in_attr_dq: Qdfa::new(marker_in_context(HtmlCtx::AttrDq)),
            in_attr_sq: Qdfa::new(marker_in_context(HtmlCtx::AttrSq)),
            has_lt: Qdfa::new(contains_byte(b'<')),
            has_dq: Qdfa::new(contains_byte(b'"')),
            has_sq: Qdfa::new(contains_byte(b'\'')),
            non_word: Qdfa::new(non_word()),
        }
    }

    /// Checks the labeled nonterminal `x` of the `echo` sink `root`
    /// against every HTML context it can be emitted in.
    pub(crate) fn check_one(
        &self,
        cfg: &Cfg,
        root: NtId,
        x: NtId,
        budget: &Budget,
        engine: &mut Engine<'_>,
    ) -> Result<Option<Finding>, BudgetExceeded> {
        let finding = |detail: &str| {
            Ok(Some(Finding {
                witness: shortest_string(cfg, x),
                ..Finding::new(cfg, x, CheckKind::NotDerivable, format!("XSS: {detail}"))
            }))
        };
        // One preparation of the marked grammar serves all four context
        // queries; one preparation of (cfg, x) serves all four
        // containment queries (shared with other sinks via the memo).
        // An empty L(X) has nothing to check.
        let Some(mut tx) = engine.target(cfg, x) else {
            return Ok(None);
        };
        let mut tm = engine.target_marked(cfg, root, x);
        // Text context: a `<` opens attacker markup.
        if !engine.is_empty(&mut tm, &self.in_text, budget)?
            && !engine.is_empty(&mut tx, &self.has_lt, budget)?
        {
            return finding("can open a tag in text context");
        }
        // Quoted attribute contexts: the closing quote escapes.
        if !engine.is_empty(&mut tm, &self.in_attr_dq, budget)?
            && !engine.is_empty(&mut tx, &self.has_dq, budget)?
        {
            return finding("can close its double-quoted attribute");
        }
        if !engine.is_empty(&mut tm, &self.in_attr_sq, budget)?
            && !engine.is_empty(&mut tx, &self.has_sq, budget)?
        {
            return finding("can close its single-quoted attribute");
        }
        // Raw tag-interior position: only bare words are tolerable.
        if !engine.is_empty(&mut tm, &self.in_tag, budget)?
            && !engine.is_empty(&mut tx, &self.non_word, budget)?
        {
            return finding("controls tag-interior tokens");
        }
        Ok(None)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::report::HotspotReport;
    use crate::PolicyChecker;
    use strtaint_grammar::{Symbol, Taint};

    fn check(g: &Cfg, root: NtId) -> HotspotReport {
        let xss = strtaint_policy::XSS_POLICY;
        PolicyChecker::new().check_hotspot_cached(xss, g, root, &Budget::unlimited())
    }

    fn harness(pre: &[u8], strings: &[&[u8]], post: &[u8]) -> (Cfg, NtId) {
        let mut g = Cfg::new();
        let x = g.add_nonterminal("_GET[v]");
        g.set_taint(x, Taint::DIRECT);
        for s in strings {
            g.add_literal_production(x, s);
        }
        let root = g.add_nonterminal("html");
        let mut rhs = g.literal_symbols(pre);
        rhs.push(Symbol::N(x));
        rhs.extend(g.literal_symbols(post));
        g.add_production(root, rhs);
        (g, root)
    }

    #[test]
    fn raw_output_in_text_reported() {
        let (g, root) = harness(b"<p>Hello ", &[b"bob", b"<script>alert(1)</script>"], b"</p>");
        let r = check(&g, root);
        assert!(!r.is_safe());
        assert!(r.findings[0].detail.contains("open a tag"));
    }

    #[test]
    fn escaped_output_in_text_verifies() {
        // htmlspecialchars output: no angle brackets survive.
        let (g, root) = harness(b"<p>", &[b"bob", b"a&lt;b&gt;c"], b"</p>");
        assert!(check(&g, root).is_safe());
    }

    #[test]
    fn attribute_breakout_reported() {
        let (g, root) = harness(
            br#"<a href="profile.php?u="#,
            &[b"bob", br#"x" onmouseover="alert(1)"#],
            br#"">me</a>"#,
        );
        let r = check(&g, root);
        assert!(!r.is_safe());
        assert!(r.findings[0].detail.contains("double-quoted attribute"));
    }

    #[test]
    fn quoted_attribute_with_safe_values_verifies() {
        let (g, root) = harness(br#"<a href=""#, &[b"a.php", b"b.php"], br#"">x</a>"#);
        assert!(check(&g, root).is_safe());
    }

    #[test]
    fn tag_interior_word_is_tolerated() {
        let (g, root) = harness(b"<div class=", &[b"wide", b"narrow"], b">x</div>");
        assert!(check(&g, root).is_safe());
    }

    #[test]
    fn tag_interior_payload_reported() {
        let (g, root) = harness(b"<div class=", &[b"x onload=alert(1)"], b">x</div>");
        assert!(!check(&g, root).is_safe());
    }

    #[test]
    fn untainted_output_trivially_safe() {
        let mut g = Cfg::new();
        let root = g.literal_nonterminal("html", b"<p>static</p>");
        let r = check(&g, root);
        assert!(r.is_safe());
        assert_eq!(r.checked, 0);
    }
}
