//! Image of a context-free language under a finite-state transducer
//! (paper §3.1.2).
//!
//! Converts an extended production `x ← f(y)` — where `f` is a PHP
//! string function modeled as an FST — into ordinary productions: the
//! image of the CFG rooted at `y` under the transducer of `f` is itself
//! context free, and the construction below builds it, propagating
//! taint labels exactly as in CFG–FSA intersection (the paper notes the
//! two algorithms differ only in that the FST's *output* symbols replace
//! the grammar's terminals).
//!
//! The kernel runs in two phases over the trimmed, binary-normalized
//! operand ([`Normal`]):
//!
//! 1. **Packed fixpoint.** For each nonterminal `X` the realized
//!    relation `{(i, j) | some string of X drives the FST from i to j}`
//!    is a `q × q` bit matrix stored as one `u64` row per start state
//!    (several words per row when `q > 64`). A production's relation is
//!    a composition of rows — per-byte transition rows for terminals,
//!    other nonterminals' rows for nonterminals — and `X` is re-run only
//!    when a row one of its productions reads has changed.
//! 2. **Reachable rebuild.** A breadth-first walk from the root's
//!    `(start, final)` triples emits only the triples the new root can
//!    reach, numbered in the order [`Cfg::import_from`] would discover
//!    them, so the result can be appended to the caller's arena
//!    directly instead of being built standalone and copied in.
//!
//! Fuel is charged per production evaluated and per triple realized in
//! the fixpoint, and per triple emitted in the rebuild; the grammar-size
//! cap is checked against the realized-triple count as it grows. The
//! rebuild collects its output before touching the arena, so a tripped
//! budget leaves the arena unchanged.

use strtaint_automata::fst::{resolve_output, Fst};
use strtaint_automata::StateId;

use crate::budget::{Budget, BudgetExceeded};
use crate::cfg::{Cfg, Csr};
use crate::normal::{Normal, P};
use crate::symbol::{NtId, Symbol, Taint};

/// Computes a grammar for the image `f(L(g, root))` under the
/// transducer `fst`, with taint labels propagated.
///
/// Returns the new grammar and its root.
///
/// # Panics
///
/// Panics if the transducer has input-epsilon arcs; callers must apply
/// [`Fst::remove_input_epsilons`] first (all builders in
/// `strtaint-automata` produce epsilon-free transducers).
pub fn image(g: &Cfg, root: NtId, fst: &Fst) -> (Cfg, NtId) {
    let img = Image::build(g, root, fst, &Budget::unlimited(), 0)
        .expect("an unlimited budget cannot be exceeded");
    let mut out = Cfg::new();
    let out_root = img.write(&mut out);
    (out, out_root)
}

/// Budgeted image appended to the operand's own arena: writes the
/// image of `(g, root)` under `fst` into `g` and returns its root.
///
/// The new nonterminals are exactly those `g.import_from(&image(g,
/// root, fst).0, ..)` would add, in the same order. On
/// [`BudgetExceeded`] `g` is left unchanged and the caller must apply a
/// sound fallback, typically widening to tainted Σ* (see
/// [`crate::budget`]).
///
/// # Panics
///
/// Panics if the transducer has input-epsilon arcs, like [`image`].
pub fn image_into(
    g: &mut Cfg,
    root: NtId,
    fst: &Fst,
    budget: &Budget,
) -> Result<NtId, BudgetExceeded> {
    let img = Image::build(g, root, fst, budget, g.num_nonterminals() as u32)?;
    Ok(img.write(g))
}

/// Per-byte transition rows and outputs of a transducer, for the bytes
/// a grammar uses.
struct Steps {
    q: usize,
    /// Words per bit row.
    w: usize,
    /// `slot[b]` indexes the tables below for a used byte `b`.
    slot: [u32; 256],
    /// Bit row of the states reachable from `i` on byte `b`, at
    /// `(slot[b] * q + i) * w`.
    rows: Vec<u64>,
    /// `(target, output)` of each arc from `i` on `b`, in arc order, at
    /// `slot[b] * q + i`.
    arcs: Vec<Vec<(u32, Vec<u8>)>>,
}

impl Steps {
    fn new(fst: &Fst, norm: &Normal) -> Steps {
        let q = fst.num_states();
        let w = q.div_ceil(64);
        let mut steps = Steps {
            q,
            w,
            slot: [u32::MAX; 256],
            rows: Vec::new(),
            arcs: Vec::new(),
        };
        for &(_, p) in &norm.prods {
            let (a, b) = match p {
                P::T(a) | P::TN(a, _) | P::NT(_, a) => (Some(a), None),
                P::TT(a, b) => (Some(a), Some(b)),
                P::Eps | P::N(_) | P::NN(..) => (None, None),
            };
            for byte in a.into_iter().chain(b) {
                if steps.slot[byte as usize] == u32::MAX {
                    steps.add(fst, byte);
                }
            }
        }
        steps
    }

    fn add(&mut self, fst: &Fst, b: u8) {
        let (q, w) = (self.q, self.w);
        self.slot[b as usize] = (self.arcs.len() / q) as u32;
        let base = self.rows.len();
        self.rows.resize(base + q * w, 0);
        for i in 0..q {
            let mut out = Vec::new();
            for arc in fst.arcs(i as StateId) {
                if arc.input.contains(b) {
                    let j = arc.target as usize;
                    self.rows[base + i * w + j / 64] |= 1 << (j % 64);
                    out.push((arc.target, resolve_output(&arc.output, b)));
                }
            }
            self.arcs.push(out);
        }
    }

    /// The `q` bit rows of byte `b`.
    fn rows(&self, b: u8) -> &[u64] {
        let s = self.slot[b as usize] as usize * self.q * self.w;
        &self.rows[s..s + self.q * self.w]
    }

    /// The arcs from `i` on byte `b`.
    fn arcs(&self, b: u8, i: u32) -> &[(u32, Vec<u8>)] {
        &self.arcs[self.slot[b as usize] as usize * self.q + i as usize]
    }
}

/// Ors the relational composition `a ∘ b` of two `q × q` bit matrices
/// into `acc`.
fn compose(acc: &mut [u64], a: &[u64], b: &[u64], w: usize) {
    for (row, out) in a.chunks_exact(w).zip(acc.chunks_exact_mut(w)) {
        for (k, &word) in row.iter().enumerate() {
            let mut bits = word;
            while bits != 0 {
                let m = k * 64 + bits.trailing_zeros() as usize;
                bits &= bits - 1;
                for (o, &v) in out.iter_mut().zip(&b[m * w..m * w + w]) {
                    *o |= v;
                }
            }
        }
    }
}

/// The realized relations of every operand nonterminal.
struct Relations {
    q: usize,
    w: usize,
    /// Bit row `i` of nonterminal `x` at `(x * q + i) * w`.
    bits: Vec<u64>,
}

impl Relations {
    fn of(&self, x: NtId) -> &[u64] {
        let stride = self.q * self.w;
        &self.bits[x.index() * stride..(x.index() + 1) * stride]
    }

    fn row(&self, x: NtId, i: u32) -> &[u64] {
        let s = (x.index() * self.q + i as usize) * self.w;
        &self.bits[s..s + self.w]
    }

    fn realized(&self, x: NtId, i: u32, j: u32) -> bool {
        self.row(x, i)[j as usize / 64] >> (j % 64) & 1 == 1
    }

    /// Runs the fixpoint to its least solution.
    ///
    /// Strongly connected components are solved one at a time, callees
    /// first, so a nonterminal outside any cycle runs exactly once and
    /// reads only final rows. Inside a component, a FIFO worklist
    /// re-runs a member only when a member it reads has changed.
    fn fixpoint(
        norm: &Normal,
        steps: &Steps,
        budget: &Budget,
    ) -> Result<Relations, BudgetExceeded> {
        let (q, w) = (steps.q, steps.w);
        let nv = norm.num_nonterminals();
        let stride = q * w;
        let mut rel = Relations {
            q,
            w,
            bits: vec![0; nv * stride],
        };

        let kids = Csr::new(
            nv,
            norm.prods
                .iter()
                .flat_map(|&(lhs, p)| p.children().map(move |y| (lhs.0, y.0))),
        );
        let readers = Csr::new(
            nv,
            norm.prods
                .iter()
                .flat_map(|&(lhs, p)| p.children().map(move |y| (y.0, lhs.0))),
        );
        let (members, bounds) = components(&kids);
        let mut comp = vec![0u32; nv];
        for c in 0..bounds.len() - 1 {
            for &x in &members[bounds[c] as usize..bounds[c + 1] as usize] {
                comp[x as usize] = c as u32;
            }
        }

        let mut queued = vec![false; nv];
        let mut queue = std::collections::VecDeque::new();
        let mut acc = vec![0u64; stride];
        let mut realized = 0usize;
        for c in 0..bounds.len() - 1 {
            for &x in &members[bounds[c] as usize..bounds[c + 1] as usize] {
                queued[x as usize] = true;
                queue.push_back(x);
            }
            while let Some(x) = queue.pop_front() {
                queued[x as usize] = false;
                let x = NtId(x);
                let prods = norm.productions(x);
                acc.copy_from_slice(rel.of(x));
                for &(_, p) in prods {
                    match p {
                        P::Eps => {
                            for i in 0..q {
                                acc[i * w + i / 64] |= 1 << (i % 64);
                            }
                        }
                        P::T(a) => {
                            for (o, &v) in acc.iter_mut().zip(steps.rows(a)) {
                                *o |= v;
                            }
                        }
                        P::N(y) => {
                            for (o, &v) in acc.iter_mut().zip(rel.of(y)) {
                                *o |= v;
                            }
                        }
                        P::TT(a, b) => compose(&mut acc, steps.rows(a), steps.rows(b), w),
                        P::TN(a, y) => compose(&mut acc, steps.rows(a), rel.of(y), w),
                        P::NT(y, b) => compose(&mut acc, rel.of(y), steps.rows(b), w),
                        P::NN(y, z) => compose(&mut acc, rel.of(y), rel.of(z), w),
                    }
                }
                let row = &mut rel.bits[x.index() * stride..(x.index() + 1) * stride];
                let mut new = 0usize;
                for (old, &v) in row.iter_mut().zip(&acc) {
                    new += (v & !*old).count_ones() as usize;
                    *old = v;
                }
                budget.charge((prods.len() + new) as u64)?;
                if new == 0 {
                    continue;
                }
                realized += new;
                budget.check_grammar_size(realized)?;
                for &r in readers.get(x.0) {
                    if comp[r as usize] == c as u32 && !queued[r as usize] {
                        queued[r as usize] = true;
                        queue.push_back(r);
                    }
                }
            }
        }
        Ok(rel)
    }
}

/// Strongly connected components of a graph (Tarjan, iterative), each
/// listed after every component it reaches. Returns the members of all
/// components concatenated, and the component bounds into that list.
fn components(edges: &Csr) -> (Vec<u32>, Vec<u32>) {
    const NONE: u32 = u32::MAX;
    let n = edges.len();
    let mut index = vec![NONE; n];
    let mut low = vec![0u32; n];
    let mut on_stack = vec![false; n];
    let mut stack: Vec<u32> = Vec::new();
    let mut members: Vec<u32> = Vec::with_capacity(n);
    let mut bounds = vec![0u32];
    // (node, index of its next edge)
    let mut calls: Vec<(u32, u32)> = Vec::new();
    let mut counter = 0u32;
    for s in 0..n as u32 {
        if index[s as usize] != NONE {
            continue;
        }
        let mut next = Some(s);
        loop {
            if let Some(v) = next.take() {
                index[v as usize] = counter;
                low[v as usize] = counter;
                counter += 1;
                stack.push(v);
                on_stack[v as usize] = true;
                calls.push((v, 0));
            }
            let Some(&mut (v, ref mut pos)) = calls.last_mut() else {
                break;
            };
            if let Some(&u) = edges.get(v).get(*pos as usize) {
                *pos += 1;
                if index[u as usize] == NONE {
                    next = Some(u);
                } else if on_stack[u as usize] {
                    low[v as usize] = low[v as usize].min(index[u as usize]);
                }
                continue;
            }
            calls.pop();
            if let Some(&(parent, _)) = calls.last() {
                low[parent as usize] = low[parent as usize].min(low[v as usize]);
            }
            if low[v as usize] == index[v as usize] {
                loop {
                    let u = stack.pop().expect("v is on the stack");
                    on_stack[u as usize] = false;
                    members.push(u);
                    if u == v {
                        break;
                    }
                }
                bounds.push(members.len() as u32);
            }
        }
    }
    (members, bounds)
}

/// An image grammar collected for appending to an arena at `base`:
/// entry `k` becomes nonterminal `base + k`, and entry 0 is the root.
struct Image {
    base: u32,
    names: Vec<String>,
    taints: Vec<Taint>,
    rules: Vec<Vec<Vec<Symbol>>>,
}

impl Image {
    fn build(
        g: &Cfg,
        root: NtId,
        fst: &Fst,
        budget: &Budget,
        base: u32,
    ) -> Result<Image, BudgetExceeded> {
        assert!(
            !fst.has_input_epsilons(),
            "image requires an input-epsilon-free transducer"
        );
        let _span = strtaint_obs::Span::enter_with("image", || {
            g.count_reachable_productions(root, usize::MAX).to_string()
        });
        let norm = Normal::new(g, root);
        let steps = Steps::new(fst, &norm);
        let rel = Relations::fixpoint(&norm, &steps, budget)?;
        Rebuild::new(&norm, &steps, &rel, base).run(g, root, fst, budget)
    }

    /// Appends the collected nonterminals to `g`, returning the root.
    fn write(self, g: &mut Cfg) -> NtId {
        debug_assert_eq!(g.num_nonterminals() as u32, self.base);
        for ((name, taint), rules) in self.names.into_iter().zip(self.taints).zip(self.rules) {
            g.push_nonterminal(name, taint, rules);
        }
        NtId(self.base)
    }
}

/// Breadth-first emission of the triples reachable from the image root.
struct Rebuild<'a> {
    norm: &'a Normal,
    steps: &'a Steps,
    rel: &'a Relations,
    /// `rank[x * q + i]`: dense index of the first realized triple of
    /// row `(x, i)`; a triple's index adds the set bits below `j`.
    rank: Vec<u32>,
    /// Image entry of each realized triple by dense index (`u32::MAX`
    /// until discovered).
    entry: Vec<u32>,
    /// Discovered triples; triple `k` is image entry `k + 1`.
    queue: Vec<(NtId, u32, u32)>,
    img: Image,
}

impl<'a> Rebuild<'a> {
    fn new(norm: &'a Normal, steps: &'a Steps, rel: &'a Relations, base: u32) -> Rebuild<'a> {
        let mut rank = Vec::with_capacity(rel.bits.len() / rel.w);
        let mut total = 0u32;
        for row in rel.bits.chunks_exact(rel.w) {
            rank.push(total);
            total += row.iter().map(|v| v.count_ones()).sum::<u32>();
        }
        Rebuild {
            norm,
            steps,
            rel,
            rank,
            entry: vec![u32::MAX; total as usize],
            queue: Vec::new(),
            img: Image {
                base,
                names: Vec::new(),
                taints: Vec::new(),
                rules: Vec::new(),
            },
        }
    }

    /// The arena id of realized triple `(x, i, j)`, discovering it on
    /// first use.
    fn id(&mut self, x: NtId, i: u32, j: u32) -> Symbol {
        let row = self.rel.row(x, i);
        let (word, bit) = (j as usize / 64, j % 64);
        let below: u32 = row[..word].iter().map(|v| v.count_ones()).sum::<u32>()
            + (row[word] & ((1u64 << bit) - 1)).count_ones();
        let dense = (self.rank[x.index() * self.rel.q + i as usize] + below) as usize;
        if self.entry[dense] == u32::MAX {
            self.queue.push((x, i, j));
            self.entry[dense] = self.queue.len() as u32;
            self.img.names.push(self.norm.name(x).into_owned());
            self.img.taints.push(self.norm.taint(x)); // TAINTIF
        }
        Symbol::N(NtId(self.img.base + self.entry[dense]))
    }

    fn run(
        mut self,
        g: &Cfg,
        root: NtId,
        fst: &Fst,
        budget: &Budget,
    ) -> Result<Image, BudgetExceeded> {
        let lit = |bytes: &[u8]| bytes.iter().map(|&b| Symbol::T(b)).collect::<Vec<_>>();
        self.img.names.push(format!("{}↦", g.name(root)));
        self.img.taints.push(g.taint(root));
        // Start productions: root triples from the FST start to final
        // states, appending per-state flush output.
        let q0 = fst.start();
        let mut rules = Vec::new();
        for qf in 0..self.rel.q as u32 {
            if let Some(flush) = fst.final_output(qf as StateId) {
                if self.rel.realized(NtId(0), q0, qf) {
                    let mut rhs = vec![self.id(NtId(0), q0, qf)];
                    rhs.extend(lit(flush));
                    rules.push(rhs);
                }
            }
        }
        self.img.rules.push(rules);

        let (norm, steps, rel) = (self.norm, self.steps, self.rel);
        let mut cursor = 0;
        while cursor < self.queue.len() {
            budget.charge(1)?;
            let (x, i, j) = self.queue[cursor];
            cursor += 1;
            let mut rules = Vec::new();
            for &(_, p) in norm.productions(x) {
                match p {
                    P::Eps => {
                        if i == j {
                            rules.push(vec![]);
                        }
                    }
                    P::T(a) => {
                        for (t, out) in steps.arcs(a, i) {
                            if *t == j {
                                rules.push(lit(out));
                            }
                        }
                    }
                    P::N(y) => {
                        if rel.realized(y, i, j) {
                            rules.push(vec![self.id(y, i, j)]);
                        }
                    }
                    P::TT(a, b) => {
                        for (m, out_a) in steps.arcs(a, i) {
                            for (t, out_b) in steps.arcs(b, *m) {
                                if *t == j {
                                    let mut rhs = lit(out_a);
                                    rhs.extend(lit(out_b));
                                    rules.push(rhs);
                                }
                            }
                        }
                    }
                    P::TN(a, y) => {
                        for (m, out_a) in steps.arcs(a, i) {
                            if rel.realized(y, *m, j) {
                                let mut rhs = lit(out_a);
                                rhs.push(self.id(y, *m, j));
                                rules.push(rhs);
                            }
                        }
                    }
                    P::NT(y, b) => {
                        for m in ones(rel.row(y, i)) {
                            for (t, out_b) in steps.arcs(b, m) {
                                if *t == j {
                                    let mut rhs = vec![self.id(y, i, m)];
                                    rhs.extend(lit(out_b));
                                    rules.push(rhs);
                                }
                            }
                        }
                    }
                    P::NN(y, z) => {
                        for m in ones(rel.row(y, i)) {
                            if rel.realized(z, m, j) {
                                let left = self.id(y, i, m);
                                let right = self.id(z, m, j);
                                rules.push(vec![left, right]);
                            }
                        }
                    }
                }
            }
            self.img.rules.push(rules);
        }
        Ok(self.img)
    }
}

/// The set bits of a bit row, ascending.
fn ones(row: &[u64]) -> impl Iterator<Item = u32> + '_ {
    row.iter().enumerate().flat_map(|(k, &word)| {
        let mut bits = word;
        std::iter::from_fn(move || {
            (bits != 0).then(|| {
                let m = k as u32 * 64 + bits.trailing_zeros();
                bits &= bits - 1;
                m
            })
        })
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lang::{bounded_language, sample_strings};
    use crate::symbol::{Symbol as S, Taint};
    use strtaint_automata::fst::builders;

    #[test]
    fn image_under_identity_is_same_language() {
        let mut g = Cfg::new();
        let a = g.add_nonterminal("A");
        g.add_production(a, vec![S::T(b'a'), S::N(a), S::T(b'b')]);
        g.add_production(a, vec![]);
        let (out, root) = image(&g, a, &builders::identity());
        for s in [&b""[..], b"ab", b"aabb"] {
            assert!(out.derives(root, s), "{:?}", s);
        }
        assert!(!out.derives(root, b"ba"));
    }

    #[test]
    fn image_under_addslashes_escapes_quotes() {
        let mut g = Cfg::new();
        let a = g.add_nonterminal("A");
        g.add_literal_production(a, b"it's");
        g.add_literal_production(a, b"ok");
        let (out, root) = image(&g, a, &builders::addslashes());
        let lang = bounded_language(&out, root, 10).unwrap();
        assert_eq!(lang, vec![b"it\\'s".to_vec(), b"ok".to_vec()]);
    }

    #[test]
    fn image_figure6_on_grammar() {
        // The paper's Figure 6 FST applied to a small language.
        let mut g = Cfg::new();
        let a = g.add_nonterminal("A");
        g.add_literal_production(a, b"a''b");
        g.add_literal_production(a, b"'");
        let (out, root) = image(&g, a, &builders::figure6());
        let lang = bounded_language(&out, root, 10).unwrap();
        assert_eq!(lang, vec![b"'".to_vec(), b"a'b".to_vec()]);
    }

    #[test]
    fn image_of_infinite_language() {
        // A -> 'x' A | '  (quote) — addslashes image: every x* followed by \'
        let mut g = Cfg::new();
        let a = g.add_nonterminal("A");
        g.add_production(a, vec![S::T(b'x'), S::N(a)]);
        g.add_literal_production(a, b"'");
        let (out, root) = image(&g, a, &builders::addslashes());
        assert!(out.derives(root, b"\\'"));
        assert!(out.derives(root, b"xx\\'"));
        assert!(!out.derives(root, b"x'"));
    }

    #[test]
    fn image_preserves_taint() {
        let mut g = Cfg::new();
        let a = g.add_nonterminal("userid");
        g.set_taint(a, Taint::DIRECT);
        g.add_literal_production(a, b"1'");
        let (out, root) = image(&g, a, &builders::addslashes());
        assert!(out.derives(root, b"1\\'"));
        let labeled = out.labeled_nonterminals();
        assert!(
            labeled
                .iter()
                .any(|&id| out.taint(id).is_direct() && !out.productions(id).is_empty()),
            "taint lost through FST image"
        );
    }

    #[test]
    fn image_under_replace_literal() {
        // Grammar of "[b]"+ ; str_replace("[b]", "<b>") image.
        let mut g = Cfg::new();
        let a = g.add_nonterminal("A");
        g.add_production(a, {
            let mut v = g.literal_symbols(b"[b]");
            v.push(S::N(a));
            v
        });
        g.add_literal_production(a, b"[b]");
        let f = builders::replace_literal(b"[b]", b"<b>");
        let (out, root) = image(&g, a, &f);
        assert!(out.derives(root, b"<b>"));
        assert!(out.derives(root, b"<b><b>"));
        assert!(!out.derives(root, b"[b]"));
        let samples = sample_strings(&out, root, 9, 4);
        assert!(samples.contains(&b"<b>".to_vec()));
    }

    #[test]
    fn image_flush_suffix_applies() {
        // Language {"ab"}, replace "abc"→"X": partial match must flush.
        let mut g = Cfg::new();
        let a = g.add_nonterminal("A");
        g.add_literal_production(a, b"ab");
        let f = builders::replace_literal(b"abc", b"X");
        let (out, root) = image(&g, a, &f);
        let lang = bounded_language(&out, root, 10).unwrap();
        assert_eq!(lang, vec![b"ab".to_vec()]);
    }

    #[test]
    fn image_under_constant() {
        let mut g = Cfg::new();
        let a = g.add_nonterminal("A");
        g.add_production(a, vec![S::T(b'x'), S::N(a)]);
        g.add_production(a, vec![]);
        let (out, root) = image(&g, a, &builders::constant(b"N"));
        let lang = bounded_language(&out, root, 10).unwrap();
        assert_eq!(lang, vec![b"N".to_vec()]);
    }
}
