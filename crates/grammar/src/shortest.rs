//! The canonical shortest string of a grammar, alone or intersected
//! with an automaton: one kernel behind attack witnesses, query
//! skeletons and [`crate::lang::shortest_string`].
//!
//! Reports, the query cache and the skeleton memo all need the
//! *canonical* witness — the (length, lexicographic) minimum of a
//! language — because only a function of the language survives
//! replay across engines and grammar presentations. The kernel
//! computes it with Knuth's generalization of Dijkstra's algorithm
//! (Knuth 1977, "A generalization of Dijkstra's algorithm"). Its
//! nodes are the Bar-Hillel triples `X_{ij}` of a binary-normal
//! grammar and an automaton (a single state when there is no
//! automaton), and each production instance combines the values of
//! its children into a candidate value for its left-hand side.
//!
//! Under (length, lex) order, concatenation is a *superior* function:
//! its result is never smaller than any argument, and it is monotone
//! in each argument. Knuth's theorem then says that a node's value is
//! final the first time it leaves the priority queue, and that the
//! popped values are the least fixpoint of the grammar's equations —
//! exactly what a repeated relaxation over all productions converges
//! to. So the kernel returns the same bytes as that multi-pass
//! reference while touching each production instance once, and a
//! query stops at the first accepting root triple it pops: nothing
//! longer than the witness is ever finalized.

use strtaint_automata::ClassDfa;

use crate::budget::BudgetExceeded;
use crate::normal::{Normal, Occurrences, P};
use crate::symbol::NtId;

/// The automaton side of a shortest-derivation query.
pub(crate) trait Steps {
    /// Number of states; states are `0..num_states()`.
    fn num_states(&self) -> u32;
    /// The start state.
    fn start(&self) -> u32;
    /// Whether `j` is accepting.
    fn is_accepting(&self, j: u32) -> bool;
    /// The state reached from `i` on byte `a`.
    fn step(&self, i: u32, a: u8) -> u32;
    /// The states that reach `j` on byte `a`. Only bytes the grammar
    /// mentions are ever asked for.
    fn preds(&self, a: u8, j: u32) -> &[u32];
}

/// The trivial automaton: one accepting state looping on every byte.
/// Over it, triples are plain nonterminals and the kernel computes the
/// canonical string of the grammar itself.
pub(crate) struct OneState;

impl Steps for OneState {
    fn num_states(&self) -> u32 {
        1
    }

    fn start(&self) -> u32 {
        0
    }

    fn is_accepting(&self, _: u32) -> bool {
        true
    }

    fn step(&self, _: u32, _: u8) -> u32 {
        0
    }

    fn preds(&self, _: u8, _: u32) -> &[u32] {
        &[0]
    }
}

/// A [`ClassDfa`] seen through the per-class step tables of a query.
pub(crate) struct DfaSteps<'a> {
    pub(crate) dfa: &'a ClassDfa,
    /// `forward[class][i]` = successor of `i` (classes the grammar
    /// mentions only).
    pub(crate) forward: &'a [Vec<u32>],
    /// `reverse[class][j]` = the states stepping to `j`.
    pub(crate) reverse: &'a [Vec<Vec<u32>>],
}

impl Steps for DfaSteps<'_> {
    fn num_states(&self) -> u32 {
        self.dfa.num_states() as u32
    }

    fn start(&self) -> u32 {
        self.dfa.start()
    }

    fn is_accepting(&self, j: u32) -> bool {
        self.dfa.is_accepting(j)
    }

    fn step(&self, i: u32, a: u8) -> u32 {
        self.forward[self.dfa.class_of(a) as usize][i as usize]
    }

    fn preds(&self, a: u8, j: u32) -> &[u32] {
        &self.reverse[self.dfa.class_of(a) as usize][j as usize]
    }
}

/// No finalized value (slot 0 of the link arrays is "none").
const NONE: u32 = 0;

/// A finalized triple `X_{ij}` and where its value lives in the byte
/// arena, threaded onto the lists of finals sharing its `(X, i)` and
/// its `(X, j)`.
struct Fin {
    j: u32,
    i: u32,
    off: usize,
    len: usize,
    next_same_start: u32,
    next_same_end: u32,
}

/// A candidate value for triple `(x, i, j)`: the concatenation
/// `pre · fin(a) · fin(b) · post` of at most two finalized values and
/// two bytes, kept symbolic so a push allocates nothing.
#[derive(Clone, Copy)]
struct Cand {
    len: usize,
    x: u32,
    i: u32,
    j: u32,
    pre: Option<u8>,
    a: u32,
    b: u32,
    post: Option<u8>,
}

/// The finalized triples, their byte values, and the list heads that
/// index them by `(X, start)` and `(X, end)`.
struct Finals {
    q: usize,
    fins: Vec<Fin>,
    bytes: Vec<u8>,
    /// `by_start[x * q + i]` = first final `X_{i·}` (1-based, or
    /// [`NONE`]). A zeroed allocation: only touched pages cost memory.
    by_start: Vec<u32>,
    /// `by_end[x * q + j]` = first final `X_{·j}`.
    by_end: Vec<u32>,
}

impl Finals {
    fn fin(&self, id: u32) -> &Fin {
        &self.fins[id as usize - 1]
    }

    fn value(&self, id: u32) -> &[u8] {
        if id == NONE {
            return &[];
        }
        let f = self.fin(id);
        &self.bytes[f.off..f.off + f.len]
    }

    fn is_final(&self, x: u32, i: u32, j: u32) -> bool {
        let mut id = self.by_start[x as usize * self.q + i as usize];
        while id != NONE {
            let f = self.fin(id);
            if f.j == j {
                return true;
            }
            id = f.next_same_start;
        }
        false
    }

    /// The candidate's bytes, in four pieces.
    fn pieces<'a>(&'a self, c: &'a Cand) -> [&'a [u8]; 4] {
        [
            c.pre.as_slice(),
            self.value(c.a),
            self.value(c.b),
            c.post.as_slice(),
        ]
    }

    /// Candidate order: (length, bytes).
    fn less(&self, l: &Cand, r: &Cand) -> bool {
        if l.len != r.len {
            return l.len < r.len;
        }
        let (lp, rp) = (self.pieces(l), self.pieces(r));
        lp.iter()
            .flat_map(|p| p.iter())
            .lt(rp.iter().flat_map(|p| p.iter()))
    }

    /// Records the popped candidate as its triple's final value.
    fn finalize(&mut self, c: &Cand) -> u32 {
        let off = self.bytes.len();
        self.bytes.extend(c.pre);
        for id in [c.a, c.b] {
            if id != NONE {
                let f = self.fin(id);
                let range = f.off..f.off + f.len;
                self.bytes.extend_from_within(range);
            }
        }
        self.bytes.extend(c.post);
        let id = self.fins.len() as u32 + 1;
        let (s, e) = (
            c.x as usize * self.q + c.i as usize,
            c.x as usize * self.q + c.j as usize,
        );
        self.fins.push(Fin {
            j: c.j,
            i: c.i,
            off,
            len: c.len,
            next_same_start: self.by_start[s],
            next_same_end: self.by_end[e],
        });
        self.by_start[s] = id;
        self.by_end[e] = id;
        id
    }
}

/// A binary min-heap of candidates under [`Finals::less`] (the order
/// reads the value arena, so `std`'s `Ord`-based heap cannot hold it).
struct Heap(Vec<Cand>);

impl Heap {
    /// Queues `c` unless its triple already has its final value.
    fn push(&mut self, c: Cand, finals: &Finals) {
        if finals.is_final(c.x, c.i, c.j) {
            return;
        }
        let v = &mut self.0;
        v.push(c);
        let mut k = v.len() - 1;
        while k > 0 {
            let parent = (k - 1) / 2;
            if !finals.less(&v[k], &v[parent]) {
                break;
            }
            v.swap(k, parent);
            k = parent;
        }
    }

    fn pop(&mut self, finals: &Finals) -> Option<Cand> {
        let v = &mut self.0;
        let top = v.pop()?;
        if v.is_empty() {
            return Some(top);
        }
        let top = std::mem::replace(&mut v[0], top);
        let mut k = 0;
        loop {
            let (l, r) = (2 * k + 1, 2 * k + 2);
            let mut least = k;
            if l < v.len() && finals.less(&v[l], &v[least]) {
                least = l;
            }
            if r < v.len() && finals.less(&v[r], &v[least]) {
                least = r;
            }
            if least == k {
                break;
            }
            v.swap(k, least);
            k = least;
        }
        Some(top)
    }
}

/// [`canonical`] with no budget to draw from.
pub(crate) fn canonical_free(
    norm: &Normal,
    occ: &Occurrences,
    steps: &impl Steps,
) -> Option<Vec<u8>> {
    match canonical(norm, occ, steps, || Ok(())) {
        Ok(s) => s,
        Err(_) => unreachable!("a free tick never fails"),
    }
}

/// The canonical (length, lex)-minimal string of `L(norm) ∩ L(steps)`
/// — `norm`'s root is local id 0 — or `None` if the intersection is
/// empty. `occ` must be `norm`'s occurrence index. `tick` runs once
/// per finalized triple, so a caller can charge fuel (and meet its
/// deadline) as the search goes; its first `Err` aborts the search.
pub(crate) fn canonical(
    norm: &Normal,
    occ: &Occurrences,
    steps: &impl Steps,
    mut tick: impl FnMut() -> Result<(), BudgetExceeded>,
) -> Result<Option<Vec<u8>>, BudgetExceeded> {
    if norm.is_empty() {
        return Ok(None);
    }
    let q = steps.num_states() as usize;
    let cells = norm.num_nonterminals() * q;
    let mut finals = Finals {
        q,
        fins: Vec::new(),
        bytes: Vec::new(),
        by_start: vec![NONE; cells],
        by_end: vec![NONE; cells],
    };
    let mut heap = Heap(Vec::new());
    let cand = |x: NtId, i: u32, j: u32| Cand {
        len: 0,
        x: x.0,
        i,
        j,
        pre: None,
        a: NONE,
        b: NONE,
        post: None,
    };

    // Seeds: the terminal-only productions, from every state.
    for &(lhs, p) in &norm.prods {
        if !matches!(p, P::Eps | P::T(_) | P::TT(..)) {
            continue;
        }
        for i in 0..q as u32 {
            let c = match p {
                P::T(a) => Cand {
                    len: 1,
                    pre: Some(a),
                    ..cand(lhs, i, steps.step(i, a))
                },
                P::TT(a, b) => Cand {
                    len: 2,
                    pre: Some(a),
                    post: Some(b),
                    ..cand(lhs, i, steps.step(steps.step(i, a), b))
                },
                _ => cand(lhs, i, i),
            };
            heap.push(c, &finals);
        }
    }

    while let Some(c) = heap.pop(&finals) {
        if finals.is_final(c.x, c.i, c.j) {
            continue;
        }
        let id = finals.finalize(&c);
        tick()?;
        if c.x == 0 && c.i == steps.start() && steps.is_accepting(c.j) {
            return Ok(Some(finals.value(id).to_vec()));
        }
        // Wake every production instance whose last child just became
        // final: `y_{im}` combined with already-final siblings.
        let (y, i, m, len) = (c.x, c.i, c.j, c.len);
        for &pid in occ.unit.get(y) {
            let (lhs, _) = norm.prods[pid as usize];
            let c = Cand {
                len,
                a: id,
                ..cand(lhs, i, m)
            };
            heap.push(c, &finals);
        }
        for &pid in occ.right.get(y) {
            match norm.prods[pid as usize] {
                (lhs, P::TN(a, _)) => {
                    for &i0 in steps.preds(a, i) {
                        let c = Cand {
                            len: len + 1,
                            pre: Some(a),
                            a: id,
                            ..cand(lhs, i0, m)
                        };
                        heap.push(c, &finals);
                    }
                }
                (lhs, P::NN(l, _)) => {
                    let mut u = finals.by_end[l.index() * q + i as usize];
                    while u != NONE {
                        let fu = finals.fin(u);
                        let c = Cand {
                            len: fu.len + len,
                            a: u,
                            b: id,
                            ..cand(lhs, fu.i, m)
                        };
                        u = fu.next_same_end;
                        heap.push(c, &finals);
                    }
                }
                _ => unreachable!("right occurrences are TN/NN only"),
            }
        }
        for &pid in occ.left.get(y) {
            match norm.prods[pid as usize] {
                (lhs, P::NT(_, b)) => {
                    let c = Cand {
                        len: len + 1,
                        a: id,
                        post: Some(b),
                        ..cand(lhs, i, steps.step(m, b))
                    };
                    heap.push(c, &finals);
                }
                (lhs, P::NN(_, r)) => {
                    let mut w = finals.by_start[r.index() * q + m as usize];
                    while w != NONE {
                        let fw = finals.fin(w);
                        let c = Cand {
                            len: len + fw.len,
                            a: id,
                            b: w,
                            ..cand(lhs, i, fw.j)
                        };
                        w = fw.next_same_start;
                        heap.push(c, &finals);
                    }
                }
                _ => unreachable!("left occurrences are NT/NN only"),
            }
        }
    }
    Ok(None)
}
