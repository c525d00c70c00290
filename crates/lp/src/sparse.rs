//! Sparse column storage for the revised simplex.
//!
//! The constraint matrix is held in compressed-sparse-column (CSC) form:
//! the layout models produced by the P-ILP flow are extremely sparse (each
//! constraint touches a handful of the chain-point/direction variables), so
//! pricing and FTRAN right-hand sides walk short explicit column lists
//! instead of dense rows.

/// A read-only sparse matrix in compressed-sparse-column form.
#[derive(Debug, Clone, PartialEq)]
pub struct CscMatrix {
    nrows: usize,
    col_ptr: Vec<usize>,
    row_idx: Vec<usize>,
    values: Vec<f64>,
}

impl CscMatrix {
    /// Builds a CSC matrix from per-column `(row, value)` entry lists.
    /// Duplicate row entries within a column are summed; explicit zeros are
    /// dropped.
    pub fn from_columns(nrows: usize, columns: &[Vec<(usize, f64)>]) -> CscMatrix {
        let mut col_ptr = Vec::with_capacity(columns.len() + 1);
        let mut row_idx = Vec::new();
        let mut values = Vec::new();
        let mut dense: Vec<f64> = vec![0.0; nrows];
        let mut touched: Vec<usize> = Vec::new();
        col_ptr.push(0);
        for col in columns {
            for &(r, v) in col {
                debug_assert!(r < nrows, "row {r} out of range (nrows {nrows})");
                if dense[r] == 0.0 && v != 0.0 {
                    touched.push(r);
                }
                dense[r] += v;
            }
            touched.sort_unstable();
            for &r in &touched {
                if dense[r] != 0.0 {
                    row_idx.push(r);
                    values.push(dense[r]);
                }
                dense[r] = 0.0;
            }
            touched.clear();
            col_ptr.push(row_idx.len());
        }
        CscMatrix {
            nrows,
            col_ptr,
            row_idx,
            values,
        }
    }

    /// Number of rows.
    #[inline]
    pub fn nrows(&self) -> usize {
        self.nrows
    }

    /// Number of columns.
    #[inline]
    pub fn ncols(&self) -> usize {
        self.col_ptr.len() - 1
    }

    /// Number of stored non-zeros.
    #[inline]
    pub fn nnz(&self) -> usize {
        self.row_idx.len()
    }

    /// The `(rows, values)` slices of column `j`.
    #[inline]
    pub fn col(&self, j: usize) -> (&[usize], &[f64]) {
        let lo = self.col_ptr[j];
        let hi = self.col_ptr[j + 1];
        (&self.row_idx[lo..hi], &self.values[lo..hi])
    }

    /// Iterates over the `(row, value)` entries of column `j`.
    #[inline]
    pub fn col_iter(&self, j: usize) -> impl Iterator<Item = (usize, f64)> + '_ {
        let (rows, vals) = self.col(j);
        rows.iter().copied().zip(vals.iter().copied())
    }

    /// Dot product of column `j` with a dense vector.
    #[inline]
    pub fn col_dot(&self, j: usize, dense: &[f64]) -> f64 {
        self.col_iter(j).map(|(r, v)| v * dense[r]).sum()
    }
}

/// A read-only sparse matrix in compressed-sparse-row form — the row-major
/// mirror of [`CscMatrix`].
///
/// The dual simplex prices against one BTRAN'd row `ρ = B⁻ᵀe_r` per pivot:
/// with column storage every column must be dotted against `ρ` even though
/// `ρ` is sparse for sparse bases. Row storage turns that into
/// `Σ_{i: ρ_i≠0} ρ_i·A_{i·}` — work proportional to the touched rows only.
#[derive(Debug, Clone, PartialEq)]
pub struct CsrMatrix {
    ncols: usize,
    row_ptr: Vec<usize>,
    col_idx: Vec<usize>,
    values: Vec<f64>,
}

impl CsrMatrix {
    /// Builds a CSR matrix from per-row `(column, value)` entry lists.
    /// Duplicate column entries within a row are summed; explicit zeros are
    /// dropped.
    pub fn from_rows(ncols: usize, rows: &[Vec<(usize, f64)>]) -> CsrMatrix {
        let mut row_ptr = Vec::with_capacity(rows.len() + 1);
        let mut col_idx = Vec::new();
        let mut values = Vec::new();
        let mut acc = ScatterVec::new(ncols);
        row_ptr.push(0);
        for row in rows {
            for &(c, v) in row {
                debug_assert!(c < ncols, "column {c} out of range (ncols {ncols})");
                acc.add(c, v);
            }
            for (c, v) in acc.drain_sparse(0.0) {
                col_idx.push(c);
                values.push(v);
            }
            row_ptr.push(col_idx.len());
        }
        CsrMatrix {
            ncols,
            row_ptr,
            col_idx,
            values,
        }
    }

    /// Number of rows.
    #[inline]
    pub fn nrows(&self) -> usize {
        self.row_ptr.len() - 1
    }

    /// Number of columns.
    #[inline]
    pub fn ncols(&self) -> usize {
        self.ncols
    }

    /// The `(columns, values)` slices of row `i`.
    #[inline]
    pub fn row(&self, i: usize) -> (&[usize], &[f64]) {
        let lo = self.row_ptr[i];
        let hi = self.row_ptr[i + 1];
        (&self.col_idx[lo..hi], &self.values[lo..hi])
    }
}

/// A sparse vector that accumulates entries into a dense buffer while
/// tracking which positions were touched, so it can be cleared in
/// `O(touched)` instead of `O(len)`.
#[derive(Debug, Clone, Default)]
pub struct ScatterVec {
    values: Vec<f64>,
    touched: Vec<usize>,
    is_touched: Vec<bool>,
}

impl ScatterVec {
    /// An all-zero scatter vector of the given length.
    pub fn new(len: usize) -> ScatterVec {
        ScatterVec {
            values: vec![0.0; len],
            touched: Vec::new(),
            is_touched: vec![false; len],
        }
    }

    /// Length of the underlying dense buffer.
    #[inline]
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// `true` when no position has been touched.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.touched.is_empty()
    }

    /// Current value at `i`.
    #[inline]
    pub fn get(&self, i: usize) -> f64 {
        self.values[i]
    }

    /// Adds `v` at position `i`; `true` when this is the first touch of
    /// `i` since the last clear.
    #[inline]
    pub fn add(&mut self, i: usize, v: f64) -> bool {
        let first = !self.is_touched[i];
        if first {
            self.is_touched[i] = true;
            self.touched.push(i);
        }
        self.values[i] += v;
        first
    }

    /// Overwrites position `i` with `v`.
    #[inline]
    pub fn set(&mut self, i: usize, v: f64) {
        if !self.is_touched[i] {
            self.is_touched[i] = true;
            self.touched.push(i);
        }
        self.values[i] = v;
    }

    /// The positions touched since the last [`ScatterVec::clear`], in
    /// insertion order.
    #[inline]
    pub fn touched(&self) -> &[usize] {
        &self.touched
    }

    /// Drains into an explicit sparse `(index, value)` list, dropping
    /// entries below `drop_tol` in magnitude, and clears the buffer.
    pub fn drain_sparse(&mut self, drop_tol: f64) -> Vec<(usize, f64)> {
        let mut out = Vec::with_capacity(self.touched.len());
        for &i in &self.touched {
            let v = self.values[i];
            if v.abs() > drop_tol {
                out.push((i, v));
            }
            self.values[i] = 0.0;
            self.is_touched[i] = false;
        }
        self.touched.clear();
        out
    }

    /// Resets every touched position to zero.
    pub fn clear(&mut self) {
        for &i in &self.touched {
            self.values[i] = 0.0;
            self.is_touched[i] = false;
        }
        self.touched.clear();
    }
}

/// `n` growable sparse lists of `(index, value)` entries sharing one
/// buffer: the storage of the basis factorisation's `U` columns and rows.
///
/// Each list owns a slot `start..start + cap` of the buffer; a push into
/// a full slot moves the list to a slot of twice the size at the end of
/// the buffer, leaving the old slot as garbage. Entries keep their order
/// through pushes, removals and moves (the triangular solves sum in list
/// order). The point of the layout is [`Clone`]: copying the factors of a
/// cached basis — one clone per warm start — is a few contiguous copies
/// instead of one allocation per list, and the clone drops the garbage.
#[derive(Debug)]
pub(crate) struct SparseLists {
    data: Vec<(usize, f64)>,
    start: Vec<usize>,
    len: Vec<usize>,
    cap: Vec<usize>,
}

impl SparseLists {
    /// `n` empty lists.
    pub fn new(n: usize) -> SparseLists {
        SparseLists {
            data: Vec::new(),
            start: vec![0; n],
            len: vec![0; n],
            cap: vec![0; n],
        }
    }

    /// The entries of list `i`, in order.
    #[inline]
    pub fn list(&self, i: usize) -> &[(usize, f64)] {
        &self.data[self.start[i]..self.start[i] + self.len[i]]
    }

    /// Appends `entry` to list `i`.
    #[inline]
    pub fn push(&mut self, i: usize, entry: (usize, f64)) {
        let (start, len, cap) = (self.start[i], self.len[i], self.cap[i]);
        if len == cap {
            let grown = (2 * cap).max(4);
            if start + cap == self.data.len() {
                // The last slot grows in place.
                self.data.resize(start + grown, (0, 0.0));
            } else {
                let moved = self.data.len();
                self.data.extend_from_within(start..start + len);
                self.data.resize(moved + grown, (0, 0.0));
                self.start[i] = moved;
            }
            self.cap[i] = grown;
        }
        self.data[self.start[i] + len] = entry;
        self.len[i] = len + 1;
    }

    /// Keeps only the entries of list `i` for which `keep` holds, in order.
    pub fn retain(&mut self, i: usize, mut keep: impl FnMut(&(usize, f64)) -> bool) {
        let start = self.start[i];
        let mut kept = start;
        for at in start..start + self.len[i] {
            let entry = self.data[at];
            if keep(&entry) {
                self.data[kept] = entry;
                kept += 1;
            }
        }
        self.len[i] = kept - start;
    }

    /// Empties list `i` (its slot stays reserved for it).
    pub fn clear(&mut self, i: usize) {
        self.len[i] = 0;
    }

    /// Lists where entry `(j, v)` of list `i` of `self` becomes entry
    /// `(i, v)` of list `j`, `n` lists in all. Each list of the result
    /// holds its entries in increasing `i`, the order pushing them list by
    /// list would give.
    pub fn transpose(&self, n: usize) -> SparseLists {
        let mut out = SparseLists::new(n);
        for i in 0..self.len.len() {
            for &(j, _) in self.list(i) {
                out.cap[j] += 1;
            }
        }
        let mut next = 0;
        for j in 0..n {
            out.start[j] = next;
            next += out.cap[j];
        }
        out.data = vec![(0, 0.0); next];
        for i in 0..self.len.len() {
            for &(j, v) in self.list(i) {
                out.data[out.start[j] + out.len[j]] = (i, v);
                out.len[j] += 1;
            }
        }
        out
    }
}

impl Clone for SparseLists {
    /// Copies the live entries only, each list into a slot of its exact
    /// length.
    fn clone(&self) -> SparseLists {
        let live = self.len.iter().sum();
        let mut data = Vec::with_capacity(live);
        let mut start = Vec::with_capacity(self.start.len());
        for i in 0..self.start.len() {
            start.push(data.len());
            data.extend_from_slice(self.list(i));
        }
        SparseLists {
            data,
            start,
            len: self.len.clone(),
            cap: self.len.clone(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn csc_round_trip_and_dedup() {
        // Column 0: rows {0: 1.0, 2: 2.0}; column 1 empty; column 2 has a
        // duplicate entry that must be summed and a cancelling pair that
        // must vanish.
        let cols = vec![
            vec![(2, 2.0), (0, 1.0)],
            vec![],
            vec![(1, 1.5), (1, 0.5), (3, 1.0), (3, -1.0)],
        ];
        let m = CscMatrix::from_columns(4, &cols);
        assert_eq!(m.nrows(), 4);
        assert_eq!(m.ncols(), 3);
        assert_eq!(m.nnz(), 3);
        assert_eq!(m.col(0), (&[0usize, 2][..], &[1.0, 2.0][..]));
        assert_eq!(m.col(1).0.len(), 0);
        assert_eq!(m.col(2), (&[1usize][..], &[2.0][..]));
        let dense = [1.0, 10.0, 100.0, 1000.0];
        assert_eq!(m.col_dot(0, &dense), 201.0);
        assert_eq!(m.col_dot(2, &dense), 20.0);
    }

    #[test]
    fn scatter_vec_accumulates_and_clears() {
        let mut v = ScatterVec::new(5);
        assert!(v.is_empty());
        v.add(3, 1.0);
        v.add(1, 2.0);
        v.add(3, -1.0);
        v.set(0, 7.0);
        assert_eq!(v.get(3), 0.0);
        assert_eq!(v.get(1), 2.0);
        assert_eq!(v.len(), 5);
        let sparse = v.drain_sparse(1e-12);
        assert_eq!(sparse, vec![(1, 2.0), (0, 7.0)]);
        assert!(v.is_empty());
        assert_eq!(v.get(0), 0.0);
        v.add(2, 4.0);
        v.clear();
        assert_eq!(v.get(2), 0.0);
        assert!(v.is_empty());
    }

    #[test]
    fn sparse_lists_keep_order_through_moves_and_clones() {
        let mut lists = SparseLists::new(3);
        // Interleaved pushes force moves of lists 0 and 1 past each other.
        for k in 0..9 {
            lists.push(k % 2, (k, k as f64));
        }
        lists.push(2, (7, 0.5));
        lists.retain(0, |&(k, _)| k != 4);
        assert_eq!(lists.list(0), &[(0, 0.0), (2, 2.0), (6, 6.0), (8, 8.0)]);
        assert_eq!(lists.list(1), &[(1, 1.0), (3, 3.0), (5, 5.0), (7, 7.0)]);
        let copy = lists.clone();
        assert_eq!(copy.data.len(), 9, "the clone drops moved-out slots");
        for i in 0..3 {
            assert_eq!(copy.list(i), lists.list(i));
        }
        let t = copy.transpose(9);
        assert_eq!(t.list(7), &[(1, 7.0), (2, 0.5)]);
        assert!(t.list(4).is_empty());
        lists.clear(1);
        lists.push(1, (9, 9.0));
        assert_eq!(lists.list(1), &[(9, 9.0)]);
    }

    /// Seeded random edits applied to the lists and to one `Vec` per list
    /// must leave the same entries in the same order, through clones and
    /// transposes.
    #[test]
    fn sparse_lists_match_one_vec_per_list() {
        let mut state = 0x5EED_0F11_5750_u64;
        let mut next = move |n: u64| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state % n
        };
        let n = 12;
        let mut lists = SparseLists::new(n);
        let mut model: Vec<Vec<(usize, f64)>> = vec![Vec::new(); n];
        for step in 0..4000 {
            let i = next(n as u64) as usize;
            match next(10) {
                0 => {
                    let cut = next(n as u64) as usize;
                    lists.retain(i, |&(j, _)| j != cut);
                    model[i].retain(|&(j, _)| j != cut);
                }
                1 if next(8) == 0 => {
                    lists.clear(i);
                    model[i].clear();
                }
                2 if next(16) == 0 => lists = lists.clone(),
                _ => {
                    let entry = (next(n as u64) as usize, step as f64);
                    lists.push(i, entry);
                    model[i].push(entry);
                }
            }
            for (i, list) in model.iter().enumerate() {
                assert_eq!(lists.list(i), &list[..], "list {i} after step {step}");
            }
        }
        let t = lists.transpose(n);
        for j in 0..n {
            let want: Vec<(usize, f64)> = model
                .iter()
                .enumerate()
                .flat_map(|(i, list)| list.iter().filter(|e| e.0 == j).map(move |e| (i, e.1)))
                .collect();
            assert_eq!(t.list(j), &want[..], "transposed list {j}");
        }
    }
}
