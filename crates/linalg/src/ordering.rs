//! Exact minimum-degree ordering of a symmetric sparsity pattern.
//!
//! The order eliminates, at every step, the node of least current degree in
//! the elimination graph, taking the lowest index on a tie. It depends on
//! the pattern alone, never on the values or on the machine, so every
//! factorisation of a pattern rounds the same way everywhere.
//!
//! The elimination graph is kept explicitly: eliminating a node joins its
//! remaining neighbours into a clique. The adjacency lists share one arena,
//! a list that outgrows its room moves to the arena's end, and a min
//! tournament over `(degree, index)` picks each pivot in `O(log n)`. The
//! whole ordering allocates a fixed handful of buffers, however large the
//! pattern.

use crate::CsrMatrix;

/// Key of an eliminated node in the tournament: larger than every live
/// `(degree, index)` key.
const DONE: u64 = u64::MAX;

/// The exact minimum-degree elimination order of the symmetric pattern whose
/// lower triangle is `lower` (the values are not read): `order[k]` is the
/// node eliminated `k`-th.
pub(crate) fn minimum_degree(lower: &CsrMatrix) -> Vec<usize> {
    let n = lower.nrows();
    let mut len = vec![0usize; n];
    for i in 0..n {
        for &j in lower.row_entries(i).0 {
            if j != i {
                len[i] += 1;
                len[j] += 1;
            }
        }
    }
    // Each list starts with room for twice its degree, so most fill lands
    // in place.
    let mut start = vec![0usize; n];
    let mut room = vec![0usize; n];
    let mut total = 0;
    for v in 0..n {
        start[v] = total;
        room[v] = 2 * len[v];
        total += room[v];
    }
    let mut arena = vec![0usize; total];
    len.fill(0);
    for i in 0..n {
        for &j in lower.row_entries(i).0 {
            if j != i {
                arena[start[i] + len[i]] = j;
                len[i] += 1;
                arena[start[j] + len[j]] = i;
                len[j] += 1;
            }
        }
    }

    let mut tournament = Tournament::new(n);
    for (v, &degree) in len.iter().enumerate() {
        tournament.set(v, key(degree, v));
    }
    let mut order = Vec::with_capacity(n);
    let mut clique = Vec::with_capacity(n);
    let mut mark = vec![usize::MAX; n];
    for step in 0..n {
        let v = (tournament.min() & u64::from(u32::MAX)) as usize;
        tournament.set(v, DONE);
        order.push(v);
        clique.clear();
        clique.extend_from_slice(&arena[start[v]..start[v] + len[v]]);
        for (tag, &u) in clique.iter().enumerate() {
            // A tag unique to this (step, neighbour) pair marks N(u).
            let tag = step * n + tag;
            let list = start[u]..start[u] + len[u];
            let at = list
                .clone()
                .find(|&p| arena[p] == v)
                .expect("symmetric adjacency");
            arena.swap(at, list.end - 1);
            len[u] -= 1;
            for &w in &arena[start[u]..start[u] + len[u]] {
                mark[w] = tag;
            }
            let missing = clique.iter().filter(|&&w| w != u && mark[w] != tag).count();
            if len[u] + missing > room[u] {
                let moved = arena.len();
                room[u] = 2 * (len[u] + missing);
                arena.extend_from_within(start[u]..start[u] + len[u]);
                arena.resize(moved + room[u], 0);
                start[u] = moved;
            }
            for &w in &clique {
                if w != u && mark[w] != tag {
                    arena[start[u] + len[u]] = w;
                    len[u] += 1;
                }
            }
            tournament.set(u, key(len[u], u));
        }
    }
    order
}

fn key(degree: usize, node: usize) -> u64 {
    ((degree as u64) << 32) | node as u64
}

/// A complete binary tree over the nodes whose every internal slot holds
/// the least key below it.
struct Tournament {
    leaves: usize,
    tree: Vec<u64>,
}

impl Tournament {
    fn new(n: usize) -> Self {
        let leaves = n.next_power_of_two();
        Self {
            leaves,
            tree: vec![DONE; 2 * leaves],
        }
    }

    fn set(&mut self, node: usize, key: u64) {
        let mut slot = self.leaves + node;
        self.tree[slot] = key;
        while slot > 1 {
            slot /= 2;
            self.tree[slot] = self.tree[2 * slot].min(self.tree[2 * slot + 1]);
        }
    }

    fn min(&self) -> u64 {
        self.tree[1]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The lower triangle (diagonal included) of the symmetric pattern with
    /// the given off-diagonal edges.
    fn pattern(n: usize, edges: &[(usize, usize)]) -> CsrMatrix {
        let mut rows: Vec<Vec<usize>> = (0..n).map(|i| vec![i]).collect();
        for &(a, b) in edges {
            let (i, j) = if a > b { (a, b) } else { (b, a) };
            rows[i].push(j);
        }
        let (mut row_ptr, mut cols) = (vec![0], Vec::new());
        for mut row in rows {
            row.sort_unstable();
            cols.extend(row);
            row_ptr.push(cols.len());
        }
        let nnz = cols.len();
        CsrMatrix::from_parts(n, n, row_ptr, cols, vec![1.0; nnz])
    }

    fn is_permutation(order: &[usize]) -> bool {
        let mut seen = vec![false; order.len()];
        order
            .iter()
            .all(|&v| v < seen.len() && !std::mem::replace(&mut seen[v], true))
    }

    #[test]
    fn a_path_is_peeled_from_its_ends() {
        // 0 − 1 − 2 − 3: the ends have degree 1, and the lower index wins.
        let order = minimum_degree(&pattern(4, &[(0, 1), (1, 2), (2, 3)]));
        assert_eq!(order, vec![0, 1, 2, 3]);
        // 3 − 1 − 0 − 2: node 2 is the lowest end.
        let order = minimum_degree(&pattern(4, &[(3, 1), (1, 0), (0, 2)]));
        assert_eq!(order, vec![2, 0, 1, 3]);
    }

    #[test]
    fn elimination_joins_the_neighbours_into_a_clique() {
        // A star around 0 plus the pendant 4 − 1. Eliminating the leaves
        // 2, 3 (degree 1) first leaves 0 − 1 − 4; then 0 and 4 tie at
        // degree 1 and 0 goes first.
        let order = minimum_degree(&pattern(5, &[(0, 1), (0, 2), (0, 3), (1, 4)]));
        assert_eq!(order, vec![2, 3, 0, 1, 4]);
        // A 4-cycle: eliminating 0 joins 1 and 3, after which every node
        // has degree 2 and the lowest index goes first.
        let order = minimum_degree(&pattern(4, &[(0, 1), (1, 2), (2, 3), (3, 0)]));
        assert_eq!(order, vec![0, 1, 2, 3]);
    }

    #[test]
    fn the_order_is_a_permutation_and_repeats() {
        let mut edges = Vec::new();
        let mut state = 7u64;
        for _ in 0..400 {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let (a, b) = ((state >> 33) as usize % 90, (state >> 13) as usize % 90);
            if a != b && !edges.contains(&(a, b)) && !edges.contains(&(b, a)) {
                edges.push((a, b));
            }
        }
        let lower = pattern(90, &edges);
        let order = minimum_degree(&lower);
        assert!(is_permutation(&order));
        assert_eq!(minimum_degree(&lower), order);
        assert!(minimum_degree(&pattern(0, &[])).is_empty());
    }
}
