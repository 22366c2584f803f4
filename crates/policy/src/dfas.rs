//! Hand-built character-level automata of the `sql` cascade (paper
//! §3.2.1), and the HTML-context automata of the `xss` cascade.
//!
//! The paper expresses the SQL checks as Perl regexes over quotes and
//! escapes; the published text of those regexes suffered in
//! typesetting, so we construct the automata directly from the stated
//! intent and verify them against the regex engine in tests. The
//! quote automata track the two-bit state (quote parity, pending
//! backslash escape).

use strtaint_automata::{ByteSet, Dfa, Nfa};
use strtaint_sql::VAR_MARKER;

fn quote() -> u8 {
    b'\''
}

/// Builds a DFA over the (parity, escape) state machine and lets the
/// caller pick accepting states and a marker behavior.
fn quote_machine(accept: impl Fn(/*odd:*/ bool) -> bool) -> Dfa {
    // States: 0 = (even, normal), 1 = (even, escaped),
    //         2 = (odd, normal),  3 = (odd, escaped).
    // Encode as an NFA with singleton arcs, then determinize (cheap and
    // keeps construction readable).
    let mut n = Nfa::default();
    let s: Vec<_> = (0..4).map(|_| n.add_state()).collect();
    n.set_start(s[0]);
    let bs = ByteSet::singleton(b'\\');
    let q = ByteSet::singleton(quote());
    let other = bs.union(&q).complement();
    // normal states
    n.add_arc(s[0], bs, s[1]);
    n.add_arc(s[0], q, s[2]);
    n.add_arc(s[0], other, s[0]);
    n.add_arc(s[2], bs, s[3]);
    n.add_arc(s[2], q, s[0]);
    n.add_arc(s[2], other, s[2]);
    // escaped states consume one byte (the escaped char) verbatim.
    n.add_arc(s[1], ByteSet::FULL, s[0]);
    n.add_arc(s[3], ByteSet::FULL, s[2]);
    for (i, &st) in s.iter().enumerate() {
        let odd = i >= 2;
        if accept(odd) {
            n.set_accepting(st, true);
        }
    }
    Dfa::from_nfa(&n).minimize()
}

/// Strings with an **odd number of unescaped quotes** — the paper's
/// first check: such a substring cannot be syntactically confined in
/// any SQL query.
pub fn odd_unescaped_quotes() -> Dfa {
    quote_machine(|odd| odd)
}

/// Strings containing **at least one unescaped quote** — used to
/// reject literal-position substrings that could close their quote
/// context. Both SQL escaping conventions are honored: a quote is
/// *escaped* when preceded by a backslash (`\'`) or doubled (`''`);
/// any other quote can terminate the enclosing literal.
pub fn contains_unescaped_quote() -> Dfa {
    let mut n = Nfa::default();
    let norm = n.add_state();
    let esc = n.add_state();
    let qseen = n.add_state(); // just read a quote; next byte decides
    let bad = n.add_state();
    n.set_start(norm);
    let bs = ByteSet::singleton(b'\\');
    let q = ByteSet::singleton(quote());
    n.add_arc(norm, bs, esc);
    n.add_arc(norm, q, qseen);
    n.add_arc(norm, bs.union(&q).complement(), norm);
    n.add_arc(esc, ByteSet::FULL, norm);
    // Doubled quote: the pair is an escaped quote character.
    n.add_arc(qseen, q, norm);
    // Any other byte after a lone quote: the quote was unescaped.
    n.add_arc(qseen, q.complement(), bad);
    n.add_arc(bad, ByteSet::FULL, bad);
    // A trailing lone quote is also unescaped.
    n.set_accepting(qseen, true);
    n.set_accepting(bad, true);
    Dfa::from_nfa(&n).minimize()
}

/// Strings in which some [`VAR_MARKER`] occurs **outside** a
/// single-quoted string literal — the complement check of the paper's
/// "labeled nonterminal occurs only in the syntactic position of a
/// string literal".
pub fn marker_outside_literal() -> Dfa {
    let mut n = Nfa::default();
    let s: Vec<_> = (0..4).map(|_| n.add_state()).collect();
    let hit = n.add_state();
    n.set_start(s[0]);
    let bs = ByteSet::singleton(b'\\');
    let q = ByteSet::singleton(quote());
    let marker = ByteSet::singleton(VAR_MARKER);
    let other = bs.union(&q).union(&marker).complement();
    // Even parity, normal: a marker here is outside a literal.
    n.add_arc(s[0], bs, s[1]);
    n.add_arc(s[0], q, s[2]);
    n.add_arc(s[0], marker, hit);
    n.add_arc(s[0], other, s[0]);
    // Odd parity, normal: marker is inside the literal — fine.
    n.add_arc(s[2], bs, s[3]);
    n.add_arc(s[2], q, s[0]);
    n.add_arc(s[2], marker, s[2]);
    n.add_arc(s[2], other, s[2]);
    // Escaped states.
    n.add_arc(s[1], ByteSet::FULL, s[0]);
    n.add_arc(s[3], ByteSet::FULL, s[2]);
    // Sink.
    n.add_arc(hit, ByteSet::FULL, hit);
    n.set_accepting(hit, true);
    Dfa::from_nfa(&n).minimize()
}

/// Numeric SQL literals: `-? digits (. digits)?` — the paper's third
/// check (unquoted numeric position).
pub fn numeric_literal() -> Dfa {
    strtaint_automata::Regex::new(r"^-?[0-9]+(\.[0-9]+)?$")
        .expect("static pattern")
        .match_dfa()
}

/// SQL keywords (case-insensitive), for excluding keyword capture when
/// a tainted value sits in identifier position.
pub fn sql_keywords() -> Dfa {
    const KEYWORDS: &[&str] = &[
        "select", "insert", "update", "delete", "from", "where", "and", "or", "not",
        "into", "values", "set", "order", "group", "by", "having", "limit", "offset",
        "union", "all", "like", "in", "is", "null", "between", "join", "on", "as",
        "drop", "create", "alter", "table", "exec", "execute",
    ];
    let mut n = Nfa::empty();
    for kw in KEYWORDS {
        let mut lit = Nfa::epsilon();
        for b in kw.bytes() {
            lit = lit.concat(&Nfa::class(ByteSet::singleton(b).ascii_case_fold()));
        }
        n = n.union(&lit);
    }
    Dfa::from_nfa(&n).minimize()
}

/// The classic non-confinable attack fragments, matched
/// case-insensitively. The C4 step carries this list, and both its
/// exact automaton ([`attack_fragments`]) and the checker's alphabet
/// test read it, so the two can never drift apart.
pub const ATTACK_FRAGMENTS: &[&[u8]] = &[
    b"DROP TABLE",
    b"--",
    b";",
    b" OR ",
    b"UNION SELECT",
    b"#",
    b"/*",
];

/// Strings *containing* any of `fragments` (case-insensitively) — with
/// [`ATTACK_FRAGMENTS`], the paper's fourth check (`DROP`, `--`, `;`,
/// `UNION`, …) used to confirm a suspected vulnerability.
pub fn attack_fragments(fragments: &[&[u8]]) -> Dfa {
    // One shared Σ*(f1|…|fn)Σ* — per-fragment Σ* loops would make the
    // subset construction track a powerset of matched-fragment flags.
    let mut alts = Nfa::empty();
    for f in fragments {
        let mut lit = Nfa::epsilon();
        for b in f.iter() {
            lit = lit.concat(&Nfa::class(ByteSet::singleton(*b).ascii_case_fold()));
        }
        alts = alts.union(&lit);
    }
    let any = Nfa::any_string();
    let n = any.concat(&alts).concat(&any);
    Dfa::from_nfa(&n).minimize()
}

/// HTML contexts a marker can occur in (the XSS cascade's analogue of
/// the SQL literal positions).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HtmlCtx {
    /// Between tags.
    Text,
    /// Inside `<...>` but outside attribute values.
    Tag,
    /// Inside a double-quoted attribute value.
    AttrDq,
    /// Inside a single-quoted attribute value.
    AttrSq,
}

impl HtmlCtx {
    /// Every context.
    pub const ALL: [HtmlCtx; 4] = [HtmlCtx::Text, HtmlCtx::Tag, HtmlCtx::AttrDq, HtmlCtx::AttrSq];
}

/// Builds a DFA accepting strings in which some [`VAR_MARKER`] occurs
/// in the given HTML context.
pub fn marker_in_context(ctx: HtmlCtx) -> Dfa {
    // States: 0 text, 1 tag, 2 attr-dq, 3 attr-sq, 4 hit (sink).
    let mut n = Nfa::default();
    let s: Vec<_> = (0..5).map(|_| n.add_state()).collect();
    n.set_start(s[0]);
    let lt = ByteSet::singleton(b'<');
    let gt = ByteSet::singleton(b'>');
    let dq = ByteSet::singleton(b'"');
    let sq = ByteSet::singleton(b'\'');
    let marker = ByteSet::singleton(VAR_MARKER);
    let hit = s[4];
    let target = |c: HtmlCtx| match c {
        HtmlCtx::Text => s[0],
        HtmlCtx::Tag => s[1],
        HtmlCtx::AttrDq => s[2],
        HtmlCtx::AttrSq => s[3],
    };
    // Text.
    n.add_arc(s[0], lt, s[1]);
    n.add_arc(
        s[0],
        lt.union(&marker).complement(),
        s[0],
    );
    // Tag.
    n.add_arc(s[1], gt, s[0]);
    n.add_arc(s[1], dq, s[2]);
    n.add_arc(s[1], sq, s[3]);
    n.add_arc(
        s[1],
        gt.union(&dq).union(&sq).union(&marker).complement(),
        s[1],
    );
    // Attr values.
    n.add_arc(s[2], dq, s[1]);
    n.add_arc(s[2], dq.union(&marker).complement(), s[2]);
    n.add_arc(s[3], sq, s[1]);
    n.add_arc(s[3], sq.union(&marker).complement(), s[3]);
    // Marker transitions: hit from the requested context, self-loop in
    // the others.
    for c in HtmlCtx::ALL {
        let st = target(c);
        if c == ctx {
            n.add_arc(st, marker, hit);
        } else {
            n.add_arc(st, marker, st);
        }
    }
    n.add_arc(hit, ByteSet::FULL, hit);
    n.set_accepting(hit, true);
    Dfa::from_nfa(&n).minimize()
}

/// Strings that are *not* a bare word over `[A-Za-z0-9_-]` — what
/// attacker-controlled tokens in HTML tag-interior position must avoid.
pub fn non_word() -> Dfa {
    strtaint_automata::Regex::new("^[A-Za-z0-9_-]*$")
        .expect("static pattern")
        .match_dfa()
        .complement()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn odd_quotes_parity() {
        let d = odd_unescaped_quotes();
        assert!(d.accepts(b"'"));
        assert!(d.accepts(b"1'; DROP TABLE unp_user; --"));
        assert!(d.accepts(b"a'b'c'"));
        assert!(!d.accepts(b""));
        assert!(!d.accepts(b"''"));
        assert!(!d.accepts(b"no quotes"));
        // Escaped quotes do not count.
        assert!(!d.accepts(br"\'"));
        assert!(d.accepts(br"\''"));
        assert!(!d.accepts(br"it\'s fine"));
    }

    #[test]
    fn odd_quotes_matches_regex_engine() {
        // Cross-validate against the regex formulation of the same
        // language on a sample set.
        use strtaint_automata::Regex;
        let re = Regex::new(r"^([^'\\]|\\.)*'(([^'\\]|\\.)*'([^'\\]|\\.)*')*([^'\\]|\\.)*$")
            .unwrap()
            .match_dfa();
        let d = odd_unescaped_quotes();
        for s in [
            &b""[..], b"'", b"''", b"'''", br"\'", br"\''", b"a'b", br"a\'b'c", b"x",
            br"\\'", br"\\''",
        ] {
            assert_eq!(d.accepts(s), re.accepts(s), "{:?}", s);
        }
    }

    #[test]
    fn unescaped_quote_presence() {
        let d = contains_unescaped_quote();
        assert!(d.accepts(b"'"));
        assert!(d.accepts(b"ab'cd"));
        assert!(!d.accepts(br"ab\'cd"));
        assert!(!d.accepts(b"abcd"));
        assert!(d.accepts(br"\''")); // second quote is unescaped
        // SQL quote doubling is an escape:
        assert!(!d.accepts(b"a''b"));
        assert!(!d.accepts(b"''"));
        assert!(d.accepts(b"'''"), "pair + trailing lone quote");
        assert!(d.accepts(b"a' OR 'x"), "two lone quotes");
    }

    #[test]
    fn marker_position() {
        use strtaint_sql::VAR_MARKER as M;
        let d = marker_outside_literal();
        let inside = [b'a', b'\'', M, b'\'', b'b'];
        assert!(!d.accepts(&inside), "marker inside quotes is fine");
        let outside = [b'a', b'=', M];
        assert!(d.accepts(&outside), "marker outside quotes detected");
        let after_close = [b'\'', b'x', b'\'', M];
        assert!(d.accepts(&after_close));
        // Escaped quote does not close the literal.
        let tricky = [b'\'', b'\\', b'\'', M, b'\'', b' '];
        assert!(!d.accepts(&tricky));
    }

    #[test]
    fn numeric() {
        let d = numeric_literal();
        assert!(d.accepts(b"0") && d.accepts(b"-12") && d.accepts(b"3.14"));
        assert!(!d.accepts(b"") && !d.accepts(b"1a") && !d.accepts(b"1.") && !d.accepts(b"--1"));
    }

    #[test]
    fn keywords_case_insensitive() {
        let d = sql_keywords();
        assert!(d.accepts(b"SELECT") && d.accepts(b"select") && d.accepts(b"SeLeCt"));
        assert!(d.accepts(b"drop"));
        assert!(!d.accepts(b"username"));
    }

    #[test]
    fn attack_fragment_detection() {
        let d = attack_fragments(ATTACK_FRAGMENTS);
        assert!(d.accepts(b"1'; DROP TABLE unp_user; --"));
        assert!(d.accepts(b"1 UNION SELECT password"));
        assert!(d.accepts(b"x' or 'a'='a"));
        assert!(!d.accepts(b"plain value"));
        assert!(!d.accepts(b"12345"));
    }
}
