//! Dense bit rows: the realized-triple store of the Bar-Hillel kernels
//! (the prepared intersection and the transducer image).
//!
//! Row `(x, i)` of a [`BitRows`] over `n` nonterminals and `q` states
//! holds bit `j` iff `x_{ij}` is realized. Each row is `⌈q/64⌉` words,
//! and the rows of one nonterminal are contiguous, so all of `x`'s
//! relation is one `q × q` bit matrix. The store is allocated zeroed,
//! so rows no query touches cost address space, not memory.

use crate::symbol::NtId;

/// A `q × q` bit matrix per nonterminal, one `u64`-word row per state.
pub(crate) struct BitRows {
    /// Number of states (rows per nonterminal, bits per row).
    pub(crate) q: usize,
    /// Words per row.
    pub(crate) w: usize,
    /// Row `i` of nonterminal `x` at `(x * q + i) * w`.
    bits: Vec<u64>,
}

impl BitRows {
    /// An empty relation for each of `n` nonterminals over `q` states.
    pub(crate) fn new(n: usize, q: usize) -> BitRows {
        let w = q.div_ceil(64);
        BitRows {
            q,
            w,
            bits: vec![0; n * q * w],
        }
    }

    /// The whole matrix of `x`: its `q` rows back to back.
    pub(crate) fn of(&self, x: NtId) -> &[u64] {
        let stride = self.q * self.w;
        &self.bits[x.index() * stride..(x.index() + 1) * stride]
    }

    /// The whole matrix of `x`, mutably.
    pub(crate) fn of_mut(&mut self, x: NtId) -> &mut [u64] {
        let stride = self.q * self.w;
        &mut self.bits[x.index() * stride..(x.index() + 1) * stride]
    }

    /// Row `i` of `x`.
    pub(crate) fn row(&self, x: NtId, i: u32) -> &[u64] {
        let s = (x.index() * self.q + i as usize) * self.w;
        &self.bits[s..s + self.w]
    }

    /// Whether bit `j` of row `(x, i)` is set.
    pub(crate) fn get(&self, x: NtId, i: u32, j: u32) -> bool {
        self.row(x, i)[j as usize / 64] >> (j % 64) & 1 == 1
    }

    /// Sets bit `j` of row `(x, i)`; `true` if it was clear.
    pub(crate) fn insert(&mut self, x: NtId, i: u32, j: u32) -> bool {
        let word = &mut self.bits[(x.index() * self.q + i as usize) * self.w + j as usize / 64];
        let bit = 1u64 << (j % 64);
        let new = *word & bit == 0;
        *word |= bit;
        new
    }

    /// Dense numbering of the set bits in row-major order: the first
    /// number of each row, indexed `x * q + i`, and the number of set
    /// bits. With [`Self::dense`] it numbers `x_{ij}` by how many set
    /// bits precede it.
    pub(crate) fn ranks(&self) -> (Vec<u32>, usize) {
        let mut total = 0u32;
        let ranks = self
            .bits
            .chunks_exact(self.w.max(1))
            .map(|row| {
                let first = total;
                total += row.iter().map(|v| v.count_ones()).sum::<u32>();
                first
            })
            .collect();
        (ranks, total as usize)
    }

    /// The dense number of the set bit `x_{ij}`, given [`Self::ranks`].
    pub(crate) fn dense(&self, ranks: &[u32], x: NtId, i: u32, j: u32) -> usize {
        let row = self.row(x, i);
        let (word, bit) = (j as usize / 64, j % 64);
        let below: u32 = row[..word].iter().map(|v| v.count_ones()).sum::<u32>()
            + (row[word] & ((1u64 << bit) - 1)).count_ones();
        (ranks[x.index() * self.q + i as usize] + below) as usize
    }
}

/// The set bits of a bit row, ascending.
pub(crate) fn ones(row: &[u64]) -> impl Iterator<Item = u32> + '_ {
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

    #[test]
    fn rows_span_words_and_rank_in_row_major_order() {
        let mut r = BitRows::new(2, 70);
        assert_eq!(r.w, 2);
        assert!(r.insert(NtId(1), 3, 69));
        assert!(r.insert(NtId(1), 3, 2));
        assert!(!r.insert(NtId(1), 3, 69));
        assert!(r.insert(NtId(0), 69, 0));
        assert!(r.get(NtId(1), 3, 69) && !r.get(NtId(1), 2, 69));
        assert_eq!(ones(r.row(NtId(1), 3)).collect::<Vec<_>>(), [2, 69]);
        let (ranks, total) = r.ranks();
        assert_eq!(total, 3);
        assert_eq!(r.dense(&ranks, NtId(0), 69, 0), 0);
        assert_eq!(r.dense(&ranks, NtId(1), 3, 2), 1);
        assert_eq!(r.dense(&ranks, NtId(1), 3, 69), 2);
    }
}
