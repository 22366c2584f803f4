//! Context-free grammar arena.
//!
//! The string-taint analysis of the paper represents the set of query
//! strings a program can generate as a CFG whose nonterminals mirror the
//! program's dataflow (one nonterminal per SSA variable version, paper
//! Fig. 5). A single [`Cfg`] arena holds the grammar for a whole
//! program; individual string expressions are *roots* (nonterminals)
//! within it.
//!
//! The arena is a few flat buffers, not a heap block per production or
//! name: every right-hand side is a span of one symbol buffer, each
//! nonterminal's productions are a run of consecutive spans in one span
//! buffer, and each name is a span of one string. A production added to
//! the nonterminal whose run ends the span buffer is pushed; one added
//! to any other nonterminal with a full run moves that run to the end
//! with doubled capacity, so adding stays amortized O(1) and the
//! abandoned and spare slots stay within a small multiple of the live
//! ones.

use std::fmt;
use std::ops::Index;

use crate::reach::Reach;
use crate::symbol::{NtId, Symbol, Taint};

/// A context-free grammar over the byte alphabet with tainted
/// nonterminals.
///
/// # Examples
///
/// ```
/// use strtaint_grammar::{Cfg, Symbol, Taint};
///
/// // The paper's Figure 4 grammar, simplified:
/// let mut g = Cfg::new();
/// let userid = g.add_nonterminal("userid");
/// g.set_taint(userid, Taint::DIRECT);
/// g.add_literal_production(userid, b"1");
/// let query = g.add_nonterminal("query");
/// let mut rhs = g.literal_symbols(b"SELECT * FROM t WHERE id='");
/// rhs.push(Symbol::N(userid));
/// rhs.push(Symbol::T(b'\''));
/// g.add_production(query, rhs);
/// assert!(g.derives(query, b"SELECT * FROM t WHERE id='1'"));
/// ```
#[derive(Clone, Default)]
pub struct Cfg {
    /// Every right-hand side, concatenated in the order added.
    syms: Vec<Symbol>,
    /// Right-hand sides as spans of `syms`, one run per nonterminal.
    rules: Vec<Span>,
    /// Per nonterminal: its run of `rules`.
    runs: Vec<Run>,
    /// Every name given, concatenated.
    names: String,
    /// Per nonterminal: its current name, as a span of `names`.
    name_spans: Vec<Span>,
    taint: Vec<Taint>,
}

/// `len` consecutive items of a buffer from `start`.
#[derive(Clone, Copy, Debug, Default)]
struct Span {
    start: u32,
    len: u32,
}

impl Span {
    fn range(self) -> std::ops::Range<usize> {
        self.start as usize..self.start as usize + self.len as usize
    }
}

/// A nonterminal's productions: the first `len` of the `cap` slots of
/// `Cfg::rules` it owns from `start`.
#[derive(Clone, Copy)]
struct Run {
    start: u32,
    len: u32,
    cap: u32,
}

/// An arena offset: offsets are `u32`, like [`NtId`].
fn offset(n: usize) -> u32 {
    u32::try_from(n).expect("grammar arena exceeds u32 offsets")
}

impl Cfg {
    /// Creates an empty grammar.
    pub fn new() -> Self {
        Cfg::default()
    }

    /// Adds a nonterminal with a display name, returning its id.
    pub fn add_nonterminal(&mut self, name: impl AsRef<str>) -> NtId {
        let id = NtId(offset(self.runs.len()));
        let name = self.push_name(name.as_ref());
        self.name_spans.push(name);
        self.taint.push(Taint::NONE);
        self.runs.push(Run {
            start: offset(self.rules.len()),
            len: 0,
            cap: 0,
        });
        id
    }

    fn push_name(&mut self, name: &str) -> Span {
        let start = offset(self.names.len());
        self.names.push_str(name);
        Span {
            start,
            len: offset(name.len()),
        }
    }

    /// Returns the number of nonterminals (`|V|` in the paper's Table 1).
    pub fn num_nonterminals(&self) -> usize {
        self.runs.len()
    }

    /// Returns the total number of productions (`|R|` in Table 1).
    pub fn num_productions(&self) -> usize {
        self.runs.iter().map(|r| r.len as usize).sum()
    }

    /// Returns the display name of a nonterminal.
    pub fn name(&self, id: NtId) -> &str {
        &self.names[self.name_spans[id.index()].range()]
    }

    /// Replaces the display name of a nonterminal.
    pub fn set_name(&mut self, id: NtId, name: impl AsRef<str>) {
        self.name_spans[id.index()] = self.push_name(name.as_ref());
    }

    /// Returns the taint labels of a nonterminal.
    pub fn taint(&self, id: NtId) -> Taint {
        self.taint[id.index()]
    }

    /// Replaces the taint labels of a nonterminal.
    pub fn set_taint(&mut self, id: NtId, taint: Taint) {
        self.taint[id.index()] = taint;
    }

    /// Adds labels to a nonterminal (monotone union — the paper's
    /// `TAINTIF`).
    pub fn add_taint(&mut self, id: NtId, taint: Taint) {
        let t = &mut self.taint[id.index()];
        *t = t.union(taint);
    }

    /// Adds a production `lhs → rhs`, copying `rhs` into the arena.
    pub fn add_production(&mut self, lhs: NtId, rhs: impl AsRef<[Symbol]>) {
        let rhs = rhs.as_ref();
        let span = Span {
            start: offset(self.syms.len()),
            len: offset(rhs.len()),
        };
        self.syms.extend_from_slice(rhs);
        let tail = offset(self.rules.len());
        let run = &mut self.runs[lhs.index()];
        if run.len == run.cap {
            if run.start + run.cap == tail {
                self.rules.push(span);
                run.len += 1;
                run.cap += 1;
                return;
            }
            // Move the full run to the tail with doubled capacity.
            let old = Span {
                start: run.start,
                len: run.len,
            };
            run.start = tail;
            run.cap = (2 * run.len).max(1);
            self.rules.extend_from_within(old.range());
            self.rules
                .resize(tail as usize + run.cap as usize, Span::default());
        }
        self.rules[(run.start + run.len) as usize] = span;
        run.len += 1;
    }

    /// Reserves room for `nonterminals` more nonterminals, `rules` more
    /// productions and `syms` more right-hand-side symbols.
    pub(crate) fn reserve(&mut self, nonterminals: usize, rules: usize, syms: usize) {
        self.runs.reserve(nonterminals);
        self.name_spans.reserve(nonterminals);
        self.taint.reserve(nonterminals);
        self.rules.reserve(rules);
        self.syms.reserve(syms);
    }

    /// Adds a production `lhs → literal` for a byte string.
    pub fn add_literal_production(&mut self, lhs: NtId, literal: &[u8]) {
        let rhs = self.literal_symbols(literal);
        self.add_production(lhs, rhs);
    }

    /// Converts a byte string to a symbol sequence.
    pub fn literal_symbols(&self, literal: &[u8]) -> Vec<Symbol> {
        literal.iter().map(|&b| Symbol::T(b)).collect()
    }

    /// Returns the productions of `id`, in the order they were added.
    pub fn productions(&self, id: NtId) -> Productions<'_> {
        let run = self.runs[id.index()];
        Productions {
            syms: &self.syms,
            rules: &self.rules[run.start as usize..(run.start + run.len) as usize],
        }
    }

    /// Iterates over all `(lhs, rhs)` pairs.
    pub fn iter_productions(&self) -> impl Iterator<Item = (NtId, &[Symbol])> + '_ {
        self.nonterminals()
            .flat_map(move |id| self.productions(id).into_iter().map(move |rhs| (id, rhs)))
    }

    /// Iterates over all nonterminal ids.
    pub fn nonterminals(&self) -> impl Iterator<Item = NtId> {
        (0..self.runs.len() as u32).map(NtId)
    }

    /// Returns all nonterminals carrying at least one taint label
    /// (the set `Vl` of paper §3.2.1).
    pub fn labeled_nonterminals(&self) -> Vec<NtId> {
        self.nonterminals()
            .filter(|&id| !self.taint(id).is_empty())
            .collect()
    }

    /// Convenience: a fresh nonterminal with a single literal production.
    pub fn literal_nonterminal(&mut self, name: impl AsRef<str>, literal: &[u8]) -> NtId {
        let id = self.add_nonterminal(name);
        self.add_literal_production(id, literal);
        id
    }

    /// Computes the set of nonterminals reachable from `root`.
    pub fn reachable(&self, root: NtId) -> Vec<bool> {
        let mut seen = vec![false; self.num_nonterminals()];
        let mut stack = vec![root];
        seen[root.index()] = true;
        while let Some(id) = stack.pop() {
            for rhs in self.productions(id) {
                for s in rhs {
                    if let Symbol::N(t) = s {
                        if !seen[t.index()] {
                            seen[t.index()] = true;
                            stack.push(*t);
                        }
                    }
                }
            }
        }
        seen
    }

    /// Computes the nonterminals reachable from `root` in discovery
    /// order. Cost is proportional to the reachable subgraph, not the
    /// arena — prefer this in code that runs against the (large,
    /// append-only) program-wide grammar.
    pub fn reachable_list(&self, root: NtId) -> Vec<NtId> {
        Reach::new(self, root).order
    }

    /// Computes the nonterminals reachable from any of `roots` — the
    /// union of their [`Cfg::reachable_list`]s — in one walk.
    pub fn reachable_from(&self, roots: &[NtId]) -> Vec<NtId> {
        Reach::from_roots(self, roots).order
    }

    /// Counts productions reachable from `root`, stopping the walk once
    /// `cap` is exceeded (returns `cap + 1` in that case). Used to bound
    /// expensive grammar transformations.
    pub fn count_reachable_productions(&self, root: NtId, cap: usize) -> usize {
        let mut seen = vec![false; self.num_nonterminals()];
        seen[root.index()] = true;
        let mut stack = vec![root];
        let mut count = 0usize;
        while let Some(id) = stack.pop() {
            count += self.productions(id).len();
            if count > cap {
                return cap + 1;
            }
            for t in self
                .productions(id)
                .iter()
                .flatten()
                .filter_map(|s| s.as_nt())
            {
                if !seen[t.index()] {
                    seen[t.index()] = true;
                    stack.push(t);
                }
            }
        }
        count
    }

    /// Returns `true` if the language of `root` is empty.
    ///
    /// Cost is proportional to the subgraph reachable from `root`.
    pub fn is_empty_language(&self, root: NtId) -> bool {
        !Reach::new(self, root).productive(self)[0]
    }

    /// Builds a trimmed copy containing only nonterminals reachable from
    /// `root` and productive, along with the mapping of `root`.
    ///
    /// Productions mentioning non-productive nonterminals are dropped.
    /// If `root` itself is non-productive the result is a grammar whose
    /// root has no productions (empty language). Cost is proportional
    /// to the reachable subgraph.
    pub fn trimmed(&self, root: NtId) -> (Cfg, NtId) {
        let _span = strtaint_obs::Span::enter("trim", "");
        let reach = Reach::new(self, root);
        let kept = reach.kept(self);
        let mut out = Cfg::new();
        for (local, &id) in reach.order.iter().enumerate() {
            if local == 0 || kept[local] != u32::MAX {
                let n = out.add_nonterminal(self.name(id));
                out.set_taint(n, self.taint(id));
            }
        }
        let mut new_rhs = Vec::new();
        for (local, &id) in reach.order.iter().enumerate() {
            let new_lhs = kept[local];
            if new_lhs == u32::MAX {
                continue;
            }
            'prods: for rhs in self.productions(id) {
                new_rhs.clear();
                for s in rhs {
                    match s {
                        Symbol::T(b) => new_rhs.push(Symbol::T(*b)),
                        Symbol::N(sub) => match kept[reach.local(*sub)] {
                            u32::MAX => continue 'prods,
                            n => new_rhs.push(Symbol::N(NtId(n))),
                        },
                    }
                }
                out.add_production(NtId(new_lhs), &new_rhs);
            }
        }
        (out, NtId(0))
    }

    /// Imports everything reachable from `other_root` in `other` into
    /// this arena, returning the id `other_root` maps to.
    ///
    /// Names and taint labels are preserved. Used by the analysis to
    /// splice intersection results (which are built as standalone
    /// grammars) back into the program-wide grammar.
    pub fn import_from(&mut self, other: &Cfg, other_root: NtId) -> NtId {
        let reach = Reach::new(other, other_root);
        let base = self.num_nonterminals() as u32;
        for &id in &reach.order {
            let n = self.add_nonterminal(other.name(id));
            self.set_taint(n, other.taint(id));
        }
        let mut new_rhs = Vec::new();
        for (local, &id) in reach.order.iter().enumerate() {
            for rhs in other.productions(id) {
                new_rhs.clear();
                new_rhs.extend(rhs.iter().map(|s| match s {
                    Symbol::T(b) => Symbol::T(*b),
                    Symbol::N(sub) => Symbol::N(NtId(base + reach.local(*sub) as u32)),
                }));
                self.add_production(NtId(base + local as u32), &new_rhs);
            }
        }
        NtId(base)
    }

    /// Returns a nonterminal deriving every byte string (`Σ*`), creating
    /// it on first use and caching it under the name `"ANY"`.
    ///
    /// The analysis uses this for unconstrained sources (GET parameters
    /// before filtering) and as the sound fallback for unmodeled
    /// operations.
    pub fn any_string_nt(&mut self) -> NtId {
        if let Some(id) = self
            .nonterminals()
            .find(|&id| self.name(id) == "ANY" && !self.productions(id).is_empty())
        {
            return id;
        }
        let any = self.add_nonterminal("ANY");
        self.add_production(any, []);
        for b in 0..=255u8 {
            self.add_production(any, [Symbol::T(b), Symbol::N(any)]);
        }
        any
    }

    /// Membership test: does `root` derive exactly the byte string `s`?
    ///
    /// Implemented with an Earley recognizer over bytes; intended for
    /// tests and examples, not the analysis hot path.
    pub fn derives(&self, root: NtId, s: &[u8]) -> bool {
        crate::earley::recognize(self, root, s)
    }

    /// Renders the grammar reachable from `root` as a Graphviz digraph:
    /// one node per nonterminal (tainted ones highlighted), one edge per
    /// nonterminal occurrence, labeled with the production's shape.
    pub fn to_dot(&self, root: NtId, name: &str) -> String {
        use std::fmt::Write as _;
        let ids = self.reachable_list(root);
        let mut out = String::new();
        let _ = writeln!(out, "digraph {} {{", name.replace(['-', ' '], "_"));
        let _ = writeln!(out, "  rankdir=LR;");
        for &id in &ids {
            let taint = self.taint(id);
            let color = if taint.is_direct() {
                ", style=filled, fillcolor=salmon"
            } else if taint.is_indirect() {
                ", style=filled, fillcolor=khaki"
            } else {
                ""
            };
            let _ = writeln!(
                out,
                "  n{} [label=\"{}\"{}];",
                id.0,
                self.name(id).replace('"', "'"),
                color
            );
            for (pi, rhs) in self.productions(id).iter().enumerate() {
                let mut label = String::new();
                for sym in rhs {
                    match sym {
                        Symbol::T(b) if (0x20..=0x7e).contains(b) && *b != b'"' => {
                            label.push(*b as char)
                        }
                        Symbol::T(_) => label.push('·'),
                        Symbol::N(_) => label.push('◦'),
                    }
                }
                if label.len() > 24 {
                    label.truncate(24);
                    label.push('…');
                }
                for sym in rhs {
                    if let Symbol::N(t) = sym {
                        let _ =
                            writeln!(out, "  n{} -> n{} [label=\"p{pi}: {label}\"];", id.0, t.0);
                    }
                }
            }
        }
        out.push_str("}\n");
        out
    }

    /// Renders the productions reachable from `root` for debugging.
    pub fn display_from(&self, root: NtId) -> String {
        let reachable = self.reachable(root);
        let mut out = String::new();
        use std::fmt::Write as _;
        for id in self.nonterminals() {
            if !reachable[id.index()] {
                continue;
            }
            for rhs in self.productions(id) {
                let _ = write!(out, "{} ->", self.name(id));
                if rhs.is_empty() {
                    let _ = write!(out, " ε");
                }
                // Group consecutive terminals into quoted runs.
                let mut lit: Vec<u8> = Vec::new();
                let flush = |lit: &mut Vec<u8>, out: &mut String| {
                    if !lit.is_empty() {
                        let _ = write!(out, " \"{}\"", String::from_utf8_lossy(lit));
                        lit.clear();
                    }
                };
                for sym in rhs {
                    match sym {
                        Symbol::T(b) => lit.push(*b),
                        Symbol::N(n) => {
                            flush(&mut lit, &mut out);
                            let _ = write!(out, " {}", self.name(*n));
                        }
                    }
                }
                flush(&mut lit, &mut out);
                let t = self.taint(id);
                if !t.is_empty() {
                    let _ = write!(out, "   [{t}]");
                }
                out.push('\n');
            }
        }
        out
    }
}

/// The productions of one nonterminal, in the order they were added:
/// a `Copy` view into a [`Cfg`] arena.
#[derive(Clone, Copy)]
pub struct Productions<'a> {
    syms: &'a [Symbol],
    rules: &'a [Span],
}

impl<'a> Productions<'a> {
    /// Number of productions.
    pub fn len(&self) -> usize {
        self.rules.len()
    }

    /// Whether there are no productions.
    pub fn is_empty(&self) -> bool {
        self.rules.is_empty()
    }

    /// The right-hand side of production `k`, if there is one.
    pub fn get(&self, k: usize) -> Option<&'a [Symbol]> {
        self.rules.get(k).map(|r| &self.syms[r.range()])
    }

    /// Iterates over the right-hand sides.
    pub fn iter(&self) -> ProductionsIter<'a> {
        ProductionsIter {
            syms: self.syms,
            rules: self.rules.iter(),
        }
    }
}

impl Index<usize> for Productions<'_> {
    type Output = [Symbol];

    fn index(&self, k: usize) -> &[Symbol] {
        &self.syms[self.rules[k].range()]
    }
}

impl<'a> IntoIterator for Productions<'a> {
    type Item = &'a [Symbol];
    type IntoIter = ProductionsIter<'a>;

    fn into_iter(self) -> ProductionsIter<'a> {
        self.iter()
    }
}

impl fmt::Debug for Productions<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_list().entries(self.iter()).finish()
    }
}

/// Iterator over the right-hand sides of a [`Productions`] view.
#[derive(Clone, Debug)]
pub struct ProductionsIter<'a> {
    syms: &'a [Symbol],
    rules: std::slice::Iter<'a, Span>,
}

impl<'a> Iterator for ProductionsIter<'a> {
    type Item = &'a [Symbol];

    #[inline]
    fn next(&mut self) -> Option<&'a [Symbol]> {
        self.rules.next().map(|r| &self.syms[r.range()])
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        self.rules.size_hint()
    }
}

impl ExactSizeIterator for ProductionsIter<'_> {}

/// Prints the logical grammar — each nonterminal's name, taint and
/// productions, in id order — not the buffers behind it, so arenas
/// holding the same grammar print alike whatever their slack.
impl fmt::Debug for Cfg {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        struct Nonterminal<'a>(&'a Cfg, NtId);
        impl fmt::Debug for Nonterminal<'_> {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                let Nonterminal(g, id) = *self;
                f.debug_struct("Nonterminal")
                    .field("name", &g.name(id))
                    .field("taint", &g.taint(id))
                    .field("productions", &g.productions(id))
                    .finish()
            }
        }
        f.write_str("Cfg ")?;
        f.debug_list()
            .entries(self.nonterminals().map(|id| Nonterminal(self, id)))
            .finish()
    }
}

impl fmt::Display for Cfg {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for id in self.nonterminals() {
            if !self.productions(id).is_empty() {
                write!(f, "{}", self.display_from(id))?;
                break;
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn build_and_count() {
        let mut g = Cfg::new();
        let a = g.add_nonterminal("A");
        let b = g.add_nonterminal("B");
        g.add_literal_production(a, b"x");
        g.add_production(a, vec![Symbol::N(b), Symbol::T(b'y')]);
        g.add_literal_production(b, b"");
        assert_eq!(g.num_nonterminals(), 2);
        assert_eq!(g.num_productions(), 3);
        assert_eq!(g.name(a), "A");
    }

    #[test]
    fn productive_excludes_unproductive() {
        let mut g = Cfg::new();
        let a = g.add_nonterminal("A");
        let b = g.add_nonterminal("B"); // no productions: unproductive
        let c = g.add_nonterminal("C");
        g.add_production(a, vec![Symbol::N(b)]);
        g.add_literal_production(c, b"ok");
        assert!(g.is_empty_language(a));
        assert!(g.is_empty_language(b));
        assert!(!g.is_empty_language(c));
    }

    #[test]
    fn recursive_grammar_is_productive() {
        let mut g = Cfg::new();
        let a = g.add_nonterminal("A");
        // A -> a A | ε
        g.add_production(a, vec![Symbol::T(b'a'), Symbol::N(a)]);
        g.add_production(a, vec![]);
        assert!(!g.is_empty_language(a));
    }

    #[test]
    fn reachable_follows_productions() {
        let mut g = Cfg::new();
        let a = g.add_nonterminal("A");
        let b = g.add_nonterminal("B");
        let c = g.add_nonterminal("C");
        g.add_production(a, vec![Symbol::N(b)]);
        g.add_literal_production(b, b"x");
        g.add_literal_production(c, b"y");
        let r = g.reachable(a);
        assert!(r[a.index()] && r[b.index()] && !r[c.index()]);
    }

    #[test]
    fn trimmed_drops_dead_rules() {
        let mut g = Cfg::new();
        let a = g.add_nonterminal("A");
        let dead = g.add_nonterminal("Dead");
        let unreach = g.add_nonterminal("Unreach");
        g.add_literal_production(a, b"x");
        g.add_production(a, vec![Symbol::N(dead)]);
        g.add_literal_production(unreach, b"y");
        let (t, root) = g.trimmed(a);
        assert_eq!(t.num_nonterminals(), 1);
        assert_eq!(t.num_productions(), 1);
        assert!(t.derives(root, b"x"));
    }

    #[test]
    fn unproductive_root_trims_to_no_productions() {
        // X -> a X derives nothing, so the trimmed root keeps no
        // production, its self-recursive one included, and the
        // prepared grammar agrees that the language is empty.
        let mut g = Cfg::new();
        let x = g.add_nonterminal("X");
        g.add_production(x, vec![Symbol::T(b'a'), Symbol::N(x)]);
        let (t, root) = g.trimmed(x);
        assert!(t.productions(root).is_empty());
        assert!(g.is_empty_language(x));
        let prep = crate::PreparedGrammar::new(&g, x);
        assert_eq!(prep.is_empty_language(), g.is_empty_language(x));

        // A productive nonterminal below the root that mentions it
        // loses that production too: Y -> X | b keeps only Y -> b.
        let mut g = Cfg::new();
        let x = g.add_nonterminal("X");
        let y = g.add_nonterminal("Y");
        g.add_production(x, vec![Symbol::N(y), Symbol::N(x)]);
        g.add_production(y, vec![Symbol::N(x)]);
        g.add_literal_production(y, b"b");
        let (t, root) = g.trimmed(x);
        assert!(t.productions(root).is_empty());
        assert_eq!(t.num_productions(), 1);
        let prep = crate::PreparedGrammar::new(&g, x);
        assert!(prep.is_empty_language());
        assert!(g.is_empty_language(x));
    }

    #[test]
    fn taint_is_preserved_by_trim() {
        let mut g = Cfg::new();
        let a = g.add_nonterminal("A");
        let b = g.add_nonterminal("B");
        g.set_taint(b, Taint::DIRECT);
        g.add_production(a, vec![Symbol::N(b)]);
        g.add_literal_production(b, b"x");
        let (t, root) = g.trimmed(a);
        let tainted: Vec<_> = t.labeled_nonterminals();
        assert_eq!(tainted.len(), 1);
        assert_eq!(t.taint(tainted[0]), Taint::DIRECT);
        assert!(t.derives(root, b"x"));
    }

    #[test]
    fn display_shows_rules() {
        let mut g = Cfg::new();
        let a = g.add_nonterminal("query");
        let b = g.add_nonterminal("userid");
        g.set_taint(b, Taint::DIRECT);
        g.add_production(
            a,
            vec![Symbol::T(b'i'), Symbol::T(b'd'), Symbol::T(b'='), Symbol::N(b)],
        );
        g.add_literal_production(b, b"1");
        let s = g.display_from(a);
        assert!(s.contains("query -> \"id=\" userid"), "{s}");
        assert!(s.contains("[direct]"), "{s}");
    }
}

#[cfg(test)]
mod dot_tests {
    use super::*;

    #[test]
    fn dot_renders_taint_highlighting() {
        let mut g = Cfg::new();
        let x = g.add_nonterminal("userid");
        g.set_taint(x, Taint::DIRECT);
        g.add_literal_production(x, b"1");
        let y = g.add_nonterminal("row");
        g.set_taint(y, Taint::INDIRECT);
        g.add_literal_production(y, b"2");
        let root = g.add_nonterminal("query");
        g.add_production(root, vec![Symbol::N(x), Symbol::T(b'/'), Symbol::N(y)]);
        let dot = g.to_dot(root, "demo query");
        assert!(dot.starts_with("digraph demo_query {"));
        assert!(dot.contains("salmon"), "direct taint highlighted");
        assert!(dot.contains("khaki"), "indirect taint highlighted");
        assert!(dot.contains("userid"));
        assert_eq!(dot.matches(" -> ").count(), 2);
        assert!(dot.trim_end().ends_with('}'));
    }
}
