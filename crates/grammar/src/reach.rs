//! The reachable part of a grammar, numbered densely: the one walk
//! that trimming, emptiness, import, FST images, prepared grammars and
//! the checker's page index and content keys start from.

use crate::cfg::Cfg;
use crate::csr::Csr;
use crate::symbol::{NtId, Symbol};

/// The nonterminals reachable from a root, numbered densely in
/// breadth-first discovery order: the root is local 0, and a
/// nonterminal's local id is its position in [`Reach::order()`].
///
/// Trimming, emptiness, import, FST image and prepared-grammar
/// construction all start from this one walk; the checker's page index
/// and content keys read it too.
#[derive(Debug)]
pub struct Reach {
    /// Arena ids in discovery order.
    pub(crate) order: Vec<NtId>,
    /// `slot[arena id]` = local id + 1, or 0 when unreached. A zeroed
    /// allocation, so only the pages the walk touches cost anything;
    /// it doubles as the visited set.
    slot: Vec<u32>,
}

impl Reach {
    /// Walks the subgraph reachable from `root`.
    pub fn new(g: &Cfg, root: NtId) -> Reach {
        Reach::from_roots(g, &[root])
    }

    /// Walks the subgraph reachable from any of `roots`; the roots
    /// come first in the order, duplicates dropped.
    pub fn from_roots(g: &Cfg, roots: &[NtId]) -> Reach {
        Reach::walk(g, roots, |_| false)
    }

    /// Walks the subgraph reachable from `root` without entering the
    /// nonterminals `leaf` holds (other than the root itself): they are
    /// neither listed nor expanded, as if every occurrence of them were
    /// a terminal.
    pub fn around(g: &Cfg, root: NtId, leaf: impl Fn(NtId) -> bool) -> Reach {
        Reach::walk(g, &[root], leaf)
    }

    fn walk(g: &Cfg, roots: &[NtId], leaf: impl Fn(NtId) -> bool) -> Reach {
        let mut slot = vec![0u32; g.num_nonterminals()];
        let mut order = Vec::with_capacity(roots.len());
        for &root in roots {
            if slot[root.index()] == 0 {
                order.push(root);
                slot[root.index()] = order.len() as u32;
            }
        }
        let mut cursor = 0;
        while cursor < order.len() {
            let id = order[cursor];
            cursor += 1;
            for rhs in g.productions(id) {
                for s in rhs {
                    if let Symbol::N(t) = *s {
                        if slot[t.index()] == 0 && !leaf(t) {
                            order.push(t);
                            slot[t.index()] = order.len() as u32;
                        }
                    }
                }
            }
        }
        Reach { order, slot }
    }

    /// The reached arena ids in discovery order (index = local id).
    pub fn order(&self) -> &[NtId] {
        &self.order
    }

    /// Local id of `id`, or `None` when the walk did not reach it.
    #[inline]
    pub fn get(&self, id: NtId) -> Option<usize> {
        (self.slot[id.index()] as usize).checked_sub(1)
    }

    /// Local id of a reached arena nonterminal.
    #[inline]
    pub(crate) fn local(&self, id: NtId) -> usize {
        debug_assert!(self.slot[id.index()] != 0, "{id} was not reached");
        self.slot[id.index()] as usize - 1
    }

    /// Productivity of each reached nonterminal, by local id.
    ///
    /// One counter worklist, linear in the subgraph: every production
    /// counts its outstanding nonterminal occurrences, and the
    /// production fires its left-hand side when the count reaches zero.
    pub(crate) fn productive(&self, g: &Cfg) -> Vec<bool> {
        // Per production: its left-hand side and how many nonterminal
        // occurrences are not yet known productive; per occurrence: the
        // (local nonterminal, production) pair.
        let mut lhs_of: Vec<u32> = Vec::new();
        let mut pending: Vec<u32> = Vec::new();
        let mut occurrences: Vec<(u32, u32)> = Vec::new();
        for (local, &id) in self.order.iter().enumerate() {
            for rhs in g.productions(id) {
                let p = pending.len() as u32;
                let before = occurrences.len();
                occurrences.extend(
                    rhs.iter()
                        .filter_map(|s| s.as_nt())
                        .map(|t| (self.local(t) as u32, p)),
                );
                pending.push((occurrences.len() - before) as u32);
                lhs_of.push(local as u32);
            }
        }
        let users = Csr::new(self.order.len(), occurrences.iter().copied());
        let mut productive = vec![false; self.order.len()];
        let mut queue: Vec<u32> = Vec::new();
        for (p, &count) in pending.iter().enumerate() {
            let lhs = lhs_of[p] as usize;
            if count == 0 && !productive[lhs] {
                productive[lhs] = true;
                queue.push(lhs as u32);
            }
        }
        while let Some(y) = queue.pop() {
            for &p in users.get(y) {
                let p = p as usize;
                pending[p] -= 1;
                let lhs = lhs_of[p] as usize;
                if pending[p] == 0 && !productive[lhs] {
                    productive[lhs] = true;
                    queue.push(lhs as u32);
                }
            }
        }
        productive
    }

    /// The trimmed numbering: `kept[local]` is the nonterminal's id in
    /// the trimmed grammar when it is productive, or `u32::MAX` when it
    /// is dropped. Id 0 belongs to the root: a productive root is kept
    /// as id 0, and the other productive nonterminals follow from id 1
    /// in discovery order. An unproductive root is `u32::MAX` like any
    /// other unproductive nonterminal, so every production mentioning
    /// it is dropped, its own recursive ones included; callers still
    /// declare it as id 0, with no productions.
    pub(crate) fn kept(&self, g: &Cfg) -> Vec<u32> {
        let productive = self.productive(g);
        let mut next = 1u32;
        productive
            .iter()
            .enumerate()
            .map(|(local, &p)| match (local, p) {
                (_, false) => u32::MAX,
                (0, true) => 0,
                _ => {
                    next += 1;
                    next - 1
                }
            })
            .collect()
    }
}
