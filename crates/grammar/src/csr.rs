//! Compressed adjacency lists and their strongly connected components.
//!
//! The grammar kernels group productions and occurrences by dense
//! nonterminal id ([`Csr`]) and order fixpoints callees first
//! ([`Csr::components`]); the checker reuses both to find maximal
//! labeled subgrammars.

/// A compressed adjacency list over dense ids `0..len`: a graph's
/// edges, or any grouping of items by id.
#[derive(Debug)]
pub struct Csr {
    start: Vec<u32>,
    items: Vec<u32>,
}

/// The strongly connected components of a [`Csr`] graph, each listed
/// after every component it reaches (callees first).
#[derive(Debug)]
pub struct Components {
    /// The members of every component, concatenated in component order.
    pub members: Vec<u32>,
    /// Component `c` is `members[bounds[c]..bounds[c + 1]]`.
    pub bounds: Vec<u32>,
    /// The component of each id.
    pub of: Vec<u32>,
}

impl Csr {
    /// Groups `(from, to)` pairs by `from`, keeping their order; every
    /// `from` must be below `n`. The pairs are iterated twice.
    pub(crate) fn new(n: usize, pairs: impl Iterator<Item = (u32, u32)> + Clone) -> Csr {
        let mut start = vec![0u32; n + 1];
        for (from, _) in pairs.clone() {
            start[from as usize + 1] += 1;
        }
        for x in 0..n {
            start[x + 1] += start[x];
        }
        let mut fill = start.clone();
        let mut items = vec![0u32; start[n] as usize];
        for (from, to) in pairs {
            items[fill[from as usize] as usize] = to;
            fill[from as usize] += 1;
        }
        Csr { start, items }
    }

    /// Builds the lists of ids `0..n` in order: `row(x, out)` pushes
    /// the items of `x` onto an empty `out`, and they are kept sorted
    /// and deduplicated.
    pub fn from_rows(n: usize, mut row: impl FnMut(u32, &mut Vec<u32>)) -> Csr {
        let mut start = Vec::with_capacity(n + 1);
        start.push(0);
        let (mut items, mut buf) = (Vec::new(), Vec::new());
        for x in 0..n as u32 {
            buf.clear();
            row(x, &mut buf);
            buf.sort_unstable();
            buf.dedup();
            items.extend_from_slice(&buf);
            start.push(items.len() as u32);
        }
        Csr { start, items }
    }

    /// Number of ids.
    pub(crate) fn len(&self) -> usize {
        self.start.len() - 1
    }

    /// The items of `x`, in insertion order.
    pub fn get(&self, x: u32) -> &[u32] {
        &self.items[self.start[x as usize] as usize..self.start[x as usize + 1] as usize]
    }

    /// The strongly connected components of the graph whose edges are
    /// `x → get(x)` (Tarjan, iterative), callees first.
    pub fn components(&self) -> Components {
        const NONE: u32 = u32::MAX;
        let n = self.len();
        let mut index = vec![NONE; n];
        let mut low = vec![0u32; n];
        let mut on_stack = vec![false; n];
        let mut stack: Vec<u32> = Vec::new();
        let mut members: Vec<u32> = Vec::with_capacity(n);
        let mut bounds = vec![0u32];
        let mut of = vec![0u32; n];
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
                if let Some(&u) = self.get(v).get(*pos as usize) {
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
                    let c = bounds.len() as u32 - 1;
                    loop {
                        let u = stack.pop().expect("v is on the stack");
                        on_stack[u as usize] = false;
                        members.push(u);
                        of[u as usize] = c;
                        if u == v {
                            break;
                        }
                    }
                    bounds.push(members.len() as u32);
                }
            }
        }
        Components {
            members,
            bounds,
            of,
        }
    }
}
