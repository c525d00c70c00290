//! Basis factorisation for the revised simplex.
//!
//! The basis matrix `B` (one column per basic variable) is factorised as
//! `B = P^T L U` by sparse Gaussian elimination with partial pivoting; the
//! factors are stored column-wise as explicit sparse lists, with `U`
//! additionally mirrored row-wise so rows can be eliminated cheaply.
//!
//! Simplex pivots replace one basis column at a time and are absorbed with
//! **Forrest–Tomlin updates**: the replaced column of `U` is overwritten by
//! the spike `v = L⁻¹·a_q`, the column's elimination position is cyclically
//! rotated to the end of the pivot order, and the now sub-diagonal remnants
//! of its old row are eliminated with a single **row eta** (a sparse row
//! transformation appended to the `L` side). Unlike the product-form eta
//! file this repo used before, the transformed `U` stays genuinely upper
//! triangular: each update costs one short row elimination instead of a
//! whole `B⁻¹a_q` column replayed by every subsequent FTRAN/BTRAN, so the
//! eta file grows far slower and the factorisation stays reusable across
//! many more warm-started solves. A stability gate (tiny or collapsing
//! transformed diagonal) refuses the update, in which case the caller must
//! refactorise; refactorisation also fires periodically to bound fill-in
//! and rounding-error accumulation.

use std::borrow::Borrow;

use crate::sparse::{ScatterVec, SparseLists};

/// Smallest pivot magnitude accepted during factorisation.
const PIVOT_TOL: f64 = 1e-10;
/// Smallest transformed diagonal accepted by a Forrest–Tomlin update;
/// below this the caller must refactorise.
const ETA_PIVOT_TOL: f64 = 1e-8;
/// Entries below this magnitude are dropped from stored factor columns.
const DROP_TOL: f64 = 1e-13;
/// A Forrest–Tomlin update whose transformed diagonal is smaller than
/// `STABILITY_RATIO * max|spike|` is refused as numerically unstable
/// (catastrophic cancellation in the row elimination).
const STABILITY_RATIO: f64 = 1e-9;
/// A Forrest–Tomlin update whose row elimination produces a multiplier
/// larger than this is refused: large multipliers amplify rounding error
/// through every subsequent solve (the classical growth gate).
const MULT_GROWTH_LIMIT: f64 = 1e7;

/// One Forrest–Tomlin row transformation: after the `L` solve,
/// `b[row] -= Σ mult·b[pos]` over `entries = (pos, mult)` (position space).
#[derive(Debug, Clone)]
struct RowEta {
    row: usize,
    entries: Vec<(usize, f64)>,
}

/// LU factorisation of a basis with pending Forrest–Tomlin updates.
#[derive(Debug, Clone)]
pub struct Factorization {
    m: usize,
    /// Multipliers of the elimination steps, flattened: step `k`'s
    /// `(row, l)` entries live at `lower_data[lower_ptr[k]..lower_ptr[k+1]]`
    /// (rows still unpivoted at step `k`). Flat storage makes cloning a
    /// cached factorisation — every warm branch-and-bound node does one —
    /// two memcpys instead of `m` small-vector clones.
    lower_ptr: Vec<usize>,
    lower_data: Vec<(usize, f64)>,
    /// Row chosen as pivot of elimination step `k`.
    pivot_rows: Vec<usize>,
    /// Off-diagonal entries `(row position, u)` of `U` column `p`
    /// (positions earlier than `p` in [`Factorization::pos_order`]), in
    /// one shared buffer so the clone of every warm start stays a few
    /// contiguous copies.
    ucols: SparseLists,
    /// Row-wise mirror of `ucols`: off-diagonal entries
    /// `(column position, u)` of `U` row `p`.
    urows: SparseLists,
    /// Diagonal of `U` per elimination position.
    diag: Vec<f64>,
    /// Triangular elimination order of the positions: `U` is upper
    /// triangular with respect to this order (identity after a fresh
    /// factorisation; Forrest–Tomlin updates rotate positions to the end).
    pos_order: Vec<usize>,
    /// Inverse of `pos_order`.
    order_index: Vec<usize>,
    /// Forrest–Tomlin row transformations, applied oldest-first after the
    /// `L` solve in FTRAN (transposed, newest-first before it in BTRAN).
    etas: Vec<RowEta>,
    /// Refactorise once the eta file reaches this many updates.
    max_etas: usize,
    /// Off-diagonal non-zeros of `U` at factorisation time (fill guard).
    base_fill: usize,
    /// Current off-diagonal non-zeros of `U`.
    fill: usize,
    /// Reusable dense scratch (FTRAN result / BTRAN position pass) — the
    /// solves run once per pivot, so per-call allocation was measurable.
    xwork: Vec<f64>,
    /// The intermediate `v = L⁻¹·b` of the most recent [`Factorization::ftran`]
    /// (after the row etas, before the `U` back-substitution) — exactly the
    /// Forrest–Tomlin spike of that column, captured so
    /// [`Factorization::update`] does not have to recompute `U·w`.
    last_spike: Vec<f64>,
    /// Reusable sparse accumulator for the update's row elimination.
    scatter: ScatterVec,
}

/// Error returned when the candidate basis is numerically singular.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SingularBasis;

impl Factorization {
    /// The factorisation of the empty (`0 × 0`) basis: a placeholder for
    /// solver state whose real factors have been moved out.
    pub(crate) fn empty() -> Factorization {
        Factorization::factorize(0, std::iter::empty::<[(usize, f64); 0]>()).expect("empty basis")
    }

    /// Factorises the basis given as `m` sparse columns (`(row, value)`
    /// entries, streamed — the simplex gathers them straight from the
    /// constraint matrix without materialising one list per column).
    ///
    /// Each column is eliminated against the earlier steps it **reaches**
    /// only: step `j` can change the column only if the column's entry in
    /// step `j`'s pivot row is non-zero by the time step `j` runs, which
    /// happens exactly when that row is one of the column's own rows or a
    /// row written by an earlier reached step. Those steps are visited in
    /// ascending order through a bitset over the steps, so the floating-point
    /// operations are the ones — in the order — the plain all-steps loop
    /// performs; every step it skips would have read an exact zero and
    /// done nothing. On the slack-heavy layout bases most columns are unit
    /// columns that reach one or two steps, which turns the `O(m²)` visit
    /// count into work proportional to the fill.
    pub fn factorize<C>(m: usize, columns: C) -> Result<Factorization, SingularBasis>
    where
        C: IntoIterator,
        C::Item: IntoIterator,
        <C::Item as IntoIterator>::Item: Borrow<(usize, f64)>,
    {
        let mut f = Factorization {
            m,
            lower_ptr: vec![0],
            lower_data: Vec::new(),
            pivot_rows: Vec::with_capacity(m),
            ucols: SparseLists::new(m),
            urows: SparseLists::new(0),
            diag: Vec::with_capacity(m),
            pos_order: (0..m).collect(),
            order_index: (0..m).collect(),
            // Forrest–Tomlin etas are single sparse rows (not whole spike
            // columns) — cheaper to replay and numerically tamer than the
            // old product-form spikes — but the big-M layout bases degrade
            // fast enough that the chain cap stays at the product-form
            // cadence; the win is spent on the warm-start cache instead
            // (`worth_caching` admits chains twice as long as before).
            max_etas: (m / 2).clamp(16, 64),
            etas: Vec::new(),
            base_fill: 0,
            fill: 0,
            xwork: vec![0.0; m],
            last_spike: vec![0.0; m],
            scatter: ScatterVec::new(m),
        };
        // Elimination step that pivoted on each row (`UNPIVOTED` while the
        // row is still free), and a bitset of the reached steps still to
        // apply to the current column.
        const UNPIVOTED: usize = usize::MAX;
        let mut step_of_row = vec![UNPIVOTED; m];
        let mut reached = vec![0u64; m.div_ceil(64)];
        // Adds to the column and marks the step of a row touched for the
        // first time (a row's step is fixed while its column is worked).
        let add = |work: &mut ScatterVec, reached: &mut [u64], step_of_row: &[usize], row, v| {
            if work.add(row, v) {
                let step = step_of_row[row];
                if step != UNPIVOTED {
                    reached[step / 64] |= 1 << (step % 64);
                }
            }
        };
        let mut work = ScatterVec::new(m);
        for column in columns {
            let k = f.pivot_rows.len();
            for entry in column {
                let &(r, v) = entry.borrow();
                add(&mut work, &mut reached, &step_of_row, r, v);
            }
            // Apply the reached elimination steps in ascending order. A
            // step only writes rows unpivoted at its own time, so every
            // step it reaches comes later: a forward scan of the bitset
            // meets them in step order, and each exactly once.
            let mut word = 0;
            while word < reached.len() {
                let bits = reached[word];
                if bits == 0 {
                    word += 1;
                    continue;
                }
                reached[word] = bits & (bits - 1);
                let j = word * 64 + bits.trailing_zeros() as usize;
                let u = work.get(f.pivot_rows[j]);
                if u.abs() > DROP_TOL {
                    f.ucols.push(k, (j, u));
                    for &(row, l) in &f.lower_data[f.lower_ptr[j]..f.lower_ptr[j + 1]] {
                        add(&mut work, &mut reached, &step_of_row, row, -l * u);
                    }
                }
            }
            // Partial pivoting over the rows not yet chosen.
            let mut pivot_row = usize::MAX;
            let mut pivot_val = 0.0f64;
            for &r in work.touched() {
                if step_of_row[r] == UNPIVOTED && work.get(r).abs() > pivot_val.abs() {
                    pivot_row = r;
                    pivot_val = work.get(r);
                }
            }
            if pivot_row == usize::MAX || pivot_val.abs() < PIVOT_TOL {
                return Err(SingularBasis);
            }
            step_of_row[pivot_row] = k;
            for &r in work.touched() {
                if step_of_row[r] == UNPIVOTED {
                    let l = work.get(r) / pivot_val;
                    if l.abs() > DROP_TOL {
                        f.lower_data.push((r, l));
                    }
                }
            }
            f.lower_ptr.push(f.lower_data.len());
            work.clear();
            f.fill += f.ucols.list(k).len();
            f.pivot_rows.push(pivot_row);
            f.diag.push(pivot_val);
        }
        debug_assert_eq!(f.pivot_rows.len(), m, "one basis column per row");
        // Row `i` lists its entries by increasing column, as pushing them
        // column by column would.
        f.urows = f.ucols.transpose(m);
        f.base_fill = f.fill;
        Ok(f)
    }

    /// Basis dimension.
    #[cfg(test)]
    pub fn dim(&self) -> usize {
        self.m
    }

    /// `true` when the factorisation is due for a rebuild: the eta file
    /// reached its cap, or Forrest–Tomlin spikes have more than tripled the
    /// `U` fill (dense spikes make every solve walk long columns).
    #[inline]
    pub fn needs_refactorization(&self) -> bool {
        self.etas.len() >= self.max_etas || self.fill > 3 * self.base_fill + 8 * self.m
    }

    /// `true` while the eta file is short enough that *reusing* this
    /// factorisation (warm-start cache) still beats refactorising from
    /// scratch. Forrest–Tomlin row etas are cheaper to replay than the old
    /// product-form spike columns, but the quarter-of-the-cap ceiling is
    /// kept: on the ill-conditioned big-M layout models, factors inherited
    /// with longer chains measurably degraded the returned vertices —
    /// relaxing this gate to half the cap produced tolerance-infeasible
    /// optima whose node LPs cycled to the iteration limit (see the
    /// phase-flap guard in `revised.rs`).
    #[inline]
    pub fn worth_caching(&self) -> bool {
        self.etas.len() * 4 < self.max_etas
    }

    /// Number of Forrest–Tomlin updates applied since the last
    /// refactorisation.
    #[cfg(test)]
    pub fn eta_count(&self) -> usize {
        self.etas.len()
    }

    /// FTRAN: solves `B x = b`. `b` is indexed by *row*, the result by
    /// *elimination position* (i.e. `x[k]` belongs to the basic variable in
    /// position `k`). Works in place on a dense buffer of length `m`.
    ///
    /// Captures the Forrest–Tomlin spike for a following
    /// [`Factorization::update`] — use this for *entering columns* and
    /// [`Factorization::ftran_aux`] for every other right-hand side
    /// (basic-value recomputation, batched bound-flip columns), so an
    /// auxiliary solve between the entering column's FTRAN and the update
    /// cannot corrupt the captured spike.
    pub fn ftran(&mut self, b: &mut [f64]) {
        self.ftran_impl(b, true);
    }

    /// FTRAN of an auxiliary right-hand side: identical to
    /// [`Factorization::ftran`] but leaves the captured update spike
    /// untouched (and skips the capture copy).
    pub fn ftran_aux(&mut self, b: &mut [f64]) {
        self.ftran_impl(b, false);
    }

    fn ftran_impl(&mut self, b: &mut [f64], capture_spike: bool) {
        debug_assert_eq!(b.len(), self.m);
        // L-solve: replay the elimination steps on b (row space).
        for j in 0..self.m {
            let y = b[self.pivot_rows[j]];
            if y != 0.0 {
                for &(row, l) in &self.lower_data[self.lower_ptr[j]..self.lower_ptr[j + 1]] {
                    b[row] -= l * y;
                }
            }
        }
        // Permute into position space: y_k lives at pivot_rows[k].
        let mut x = std::mem::take(&mut self.xwork);
        for k in 0..self.m {
            x[k] = b[self.pivot_rows[k]];
        }
        // Forrest–Tomlin row transformations, oldest first.
        for eta in &self.etas {
            let mut acc = x[eta.row];
            for &(pos, mult) in &eta.entries {
                acc -= mult * x[pos];
            }
            x[eta.row] = acc;
        }
        // Capture the spike `v = L⁻¹·b` for a following update().
        if capture_spike {
            self.last_spike.copy_from_slice(&x);
        }
        // U back-substitution (column oriented) along the pivot order.
        for k in (0..self.m).rev() {
            let p = self.pos_order[k];
            let xp = x[p] / self.diag[p];
            x[p] = xp;
            if xp != 0.0 {
                for &(i, u) in self.ucols.list(p) {
                    x[i] -= u * xp;
                }
            }
        }
        b.copy_from_slice(&x);
        self.xwork = x;
    }

    /// BTRAN: solves `Bᵀ y = c`. `c` is indexed by *elimination position*
    /// (cost of the basic variable in position `k`), the result by *row*
    /// (dual value per constraint row). Works in place.
    pub fn btran(&mut self, c: &mut [f64]) {
        debug_assert_eq!(c.len(), self.m);
        // Uᵀ forward solve (lower triangular along the pivot order).
        let mut w = std::mem::take(&mut self.xwork);
        for k in 0..self.m {
            let p = self.pos_order[k];
            let mut v = c[p];
            for &(i, u) in self.ucols.list(p) {
                v -= u * w[i];
            }
            w[p] = v / self.diag[p];
        }
        self.btran_tail(&mut w, c);
        self.xwork = w;
    }

    /// BTRAN of a unit vector: solves `Bᵀ y = e_pos` (the pivot-row solve
    /// of dual steepest-edge pricing updates). Exploits that `e_pos` is
    /// zero at every elimination position ordered before `pos`, so the
    /// `Uᵀ` forward solve skips the leading prefix — on average half the
    /// triangular work of a generic [`Factorization::btran`].
    pub fn btran_unit(&mut self, pos: usize, out: &mut [f64]) {
        debug_assert_eq!(out.len(), self.m);
        let mut w = std::mem::take(&mut self.xwork);
        let start = self.order_index[pos];
        for k in 0..start {
            w[self.pos_order[k]] = 0.0;
        }
        for k in start..self.m {
            let p = self.pos_order[k];
            let mut v = if p == pos { 1.0 } else { 0.0 };
            for &(i, u) in self.ucols.list(p) {
                v -= u * w[i];
            }
            w[p] = v / self.diag[p];
        }
        self.btran_tail(&mut w, out);
        self.xwork = w;
    }

    /// Shared BTRAN tail: the transposed eta file, the scatter to row
    /// space and the transposed elimination steps. `w` is the `Uᵀ` solve
    /// result (position space); the answer lands in `out` (row space).
    ///
    /// Works directly in the caller's `out` buffer: `pivot_rows` is a
    /// permutation, so the scatter overwrites every entry and no
    /// intermediate row-space scratch (or final copy) is needed. The
    /// elimination loop skips steps without multipliers outright —
    /// on the sparse layout bases most steps are empty — and steps whose
    /// accumulated correction is exactly zero; both subtractions were
    /// `y -= 0.0` no-ops, so the solve is bit-identical to the plain loop.
    fn btran_tail(&mut self, w: &mut [f64], out: &mut [f64]) {
        // Forrest–Tomlin transformations transposed, newest first.
        for eta in self.etas.iter().rev() {
            let wr = w[eta.row];
            if wr != 0.0 {
                for &(pos, mult) in &eta.entries {
                    w[pos] -= mult * wr;
                }
            }
        }
        // Scatter to row space and apply the transposed elimination steps in
        // reverse order.
        for k in 0..self.m {
            out[self.pivot_rows[k]] = w[k];
        }
        for j in (0..self.m).rev() {
            let lo = self.lower_ptr[j];
            let hi = self.lower_ptr[j + 1];
            if lo == hi {
                continue;
            }
            let mut acc = 0.0;
            for &(row, l) in &self.lower_data[lo..hi] {
                acc += l * out[row];
            }
            if acc != 0.0 {
                out[self.pivot_rows[j]] -= acc;
            }
        }
    }

    /// Absorbs a basis change at elimination position `pos` with a
    /// Forrest–Tomlin update. **Contract:** the entering column must have
    /// been the argument of the most recent [`Factorization::ftran`] call
    /// (auxiliary [`Factorization::ftran_aux`] solves do not count) —
    /// simplex always FTRANs the entering column for the ratio test, and
    /// that solve's intermediate `v = L⁻¹·a_entering` (captured before the
    /// `U` back-substitution) *is* the Forrest–Tomlin spike, so it is
    /// reused here instead of being recomputed as `U·w`. Returns `false`
    /// when the transformed diagonal is numerically unacceptable — the
    /// caller must refactorise instead.
    ///
    /// The spike is written into column `pos`, the position is rotated to
    /// the end of the pivot order, and the stale row remnants are
    /// eliminated into one row eta.
    pub fn update(&mut self, pos: usize, w: &[f64]) -> bool {
        debug_assert_eq!(w.len(), self.m);
        // Spike v = L⁻¹·a_entering, captured by the entering column's ftran.
        let v = std::mem::take(&mut self.last_spike);
        // Debug-only contract check: the captured spike must actually be
        // `U·w` — i.e. the most recent ftran was the entering column's. An
        // ftran slipped in between (a compute_x_basic, say) would silently
        // corrupt the factors in release; in debug tests it fails here.
        #[cfg(debug_assertions)]
        {
            // Reconstruct U·w alongside the absolute magnitude of the
            // summed terms: on ill-conditioned bases (tiny transformed
            // diagonals on the big-M layout models) `w` can be ~1e13 while
            // `v` stays ~1e2, so rounding in the reconstruction alone
            // reaches `ε·Σ|u·w|` — the tolerance must scale with the
            // cancellation actually incurred, or the check false-fires on
            // pivot sequences that merely steer into ill-conditioned
            // corners. A real contract break (the last capturing ftran was
            // not the entering column) still trips it: the difference is
            // then of the order of `v` itself, far above the rounding term.
            let mut check = vec![0.0; self.m];
            let mut check_abs = vec![0.0; self.m];
            for (c, &wc) in w.iter().enumerate() {
                if wc != 0.0 {
                    check[c] += self.diag[c] * wc;
                    check_abs[c] += (self.diag[c] * wc).abs();
                    for &(i, u) in self.ucols.list(c) {
                        check[i] += u * wc;
                        check_abs[i] += (u * wc).abs();
                    }
                }
            }
            let scale = 1e-6 * (1.0 + v.iter().fold(0.0f64, |a, &x| a.max(x.abs())));
            debug_assert!(
                v.iter()
                    .zip(&check)
                    .zip(&check_abs)
                    .all(|((a, b), abs)| (a - b).abs() <= scale + 1e-11 * abs),
                "update() called without a preceding ftran of the entering column"
            );
        }
        let vmax = v.iter().fold(0.0f64, |a, &x| a.max(x.abs()));
        let t = self.order_index[pos];

        // Stage the elimination of the stale row `pos` (its off-diagonal
        // entries all sit at later order positions, i.e. below the diagonal
        // once `pos` rotates to the end). Column `pos` is handled out of
        // band: its new content is the spike, so the running diagonal
        // accumulator starts at v[pos] and each elimination step folds in
        // the spike entry of its pivot row. Nothing is committed until the
        // stability gate passes.
        let mut scatter = std::mem::take(&mut self.scatter);
        for &(col, u) in self.urows.list(pos) {
            scatter.add(col, u);
        }
        let mut new_diag = v[pos];
        let mut eta_entries: Vec<(usize, f64)> = Vec::new();
        let mut growth_ok = true;
        for k in t + 1..self.m {
            let c = self.pos_order[k];
            let val = scatter.get(c);
            if val.abs() <= DROP_TOL {
                continue;
            }
            let mult = val / self.diag[c];
            if mult.abs() > MULT_GROWTH_LIMIT {
                growth_ok = false;
                break;
            }
            eta_entries.push((c, mult));
            for &(j, u) in self.urows.list(c) {
                scatter.add(j, -mult * u);
            }
            if v[c] != 0.0 {
                new_diag -= mult * v[c];
            }
        }

        scatter.clear();
        self.scatter = scatter;

        // Stability gate: refuse on multiplier growth, and on a tiny
        // transformed diagonal (absolute, or relative to the spike —
        // catastrophic cancellation in the row elimination).
        if !growth_ok || new_diag.abs() < ETA_PIVOT_TOL || new_diag.abs() < STABILITY_RATIO * vmax {
            self.last_spike = v;
            return false;
        }

        // Commit. Remove the old column and row of `pos` from both mirrors…
        for &(i, _) in self.ucols.list(pos) {
            self.urows.retain(i, |&(j, _)| j != pos);
        }
        self.fill -= self.ucols.list(pos).len();
        for &(c, _) in self.urows.list(pos) {
            self.ucols.retain(c, |&(i, _)| i != pos);
        }
        self.fill -= self.urows.list(pos).len();
        self.urows.clear(pos);
        // …write the spike as the new (last-position) column…
        self.ucols.clear(pos);
        for (i, &vi) in v.iter().enumerate() {
            if i != pos && vi.abs() > DROP_TOL {
                self.ucols.push(pos, (i, vi));
                self.urows.push(i, (pos, vi));
                self.fill += 1;
            }
        }
        self.diag[pos] = new_diag;
        // …rotate `pos` to the end of the pivot order…
        self.pos_order.remove(t);
        self.pos_order.push(pos);
        for k in t..self.m {
            self.order_index[self.pos_order[k]] = k;
        }
        // …and record the row transformation (skipped when the stale row
        // was already empty — the update is then a pure column replacement).
        if !eta_entries.is_empty() {
            self.etas.push(RowEta {
                row: pos,
                entries: eta_entries,
            });
        }
        self.last_spike = v;
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The all-steps elimination `factorize` replaced: every column visits
    /// every earlier step. Kept as the reference the reach-only
    /// elimination must reproduce bit for bit.
    fn factorize_all_steps(
        m: usize,
        columns: &[Vec<(usize, f64)>],
    ) -> Result<Factorization, SingularBasis> {
        let mut f = Factorization::factorize(0, std::iter::empty::<[(usize, f64); 0]>())?;
        f.m = m;
        f.pos_order = (0..m).collect();
        f.order_index = (0..m).collect();
        f.max_etas = (m / 2).clamp(16, 64);
        f.xwork = vec![0.0; m];
        f.last_spike = vec![0.0; m];
        f.scatter = ScatterVec::new(m);
        let mut pivoted = vec![false; m];
        let mut work = ScatterVec::new(m);
        let mut upper: Vec<Vec<(usize, f64)>> = Vec::new();
        for column in columns {
            let k = f.pivot_rows.len();
            for &(r, v) in column {
                work.add(r, v);
            }
            let mut upper_col: Vec<(usize, f64)> = Vec::new();
            for j in 0..k {
                let u = work.get(f.pivot_rows[j]);
                if u.abs() > DROP_TOL {
                    upper_col.push((j, u));
                    for &(row, l) in &f.lower_data[f.lower_ptr[j]..f.lower_ptr[j + 1]] {
                        work.add(row, -l * u);
                    }
                }
            }
            let mut pivot_row = usize::MAX;
            let mut pivot_val = 0.0f64;
            for &r in work.touched() {
                if !pivoted[r] && work.get(r).abs() > pivot_val.abs() {
                    pivot_row = r;
                    pivot_val = work.get(r);
                }
            }
            if pivot_row == usize::MAX || pivot_val.abs() < PIVOT_TOL {
                return Err(SingularBasis);
            }
            pivoted[pivot_row] = true;
            for &r in work.touched() {
                if !pivoted[r] {
                    let l = work.get(r) / pivot_val;
                    if l.abs() > DROP_TOL {
                        f.lower_data.push((r, l));
                    }
                }
            }
            f.lower_ptr.push(f.lower_data.len());
            work.clear();
            f.pivot_rows.push(pivot_row);
            f.diag.push(pivot_val);
            upper.push(upper_col);
        }
        // The `U` storage of that version, one vector per column and row,
        // converted into the shared-buffer lists.
        let mut rows: Vec<Vec<(usize, f64)>> = vec![Vec::new(); m];
        f.ucols = SparseLists::new(m);
        for (k, col) in upper.iter().enumerate() {
            for &(i, u) in col {
                rows[i].push((k, u));
                f.ucols.push(k, (i, u));
            }
            f.fill += col.len();
        }
        f.urows = SparseLists::new(m);
        for (i, row) in rows.iter().enumerate() {
            for &entry in row {
                f.urows.push(i, entry);
            }
        }
        f.base_fill = f.fill;
        Ok(f)
    }

    /// Every stored factor value as raw bits, for exact comparison.
    fn factor_bits(f: &Factorization) -> Vec<u64> {
        let pairs = |list: &[(usize, f64)]| -> Vec<u64> {
            list.iter()
                .flat_map(|&(i, v)| [i as u64, v.to_bits()])
                .collect()
        };
        let mut out = vec![
            f.m as u64,
            f.max_etas as u64,
            f.base_fill as u64,
            f.fill as u64,
        ];
        out.extend(f.lower_ptr.iter().map(|&p| p as u64));
        out.extend(pairs(&f.lower_data));
        out.extend(f.pivot_rows.iter().map(|&r| r as u64));
        out.extend(f.diag.iter().map(|d| d.to_bits()));
        for i in 0..f.m {
            for list in [f.ucols.list(i), f.urows.list(i)] {
                out.push(list.len() as u64);
                out.extend(pairs(list));
            }
        }
        out
    }

    /// A seeded basis shaped like the layout LPs' bases: about half unit
    /// (slack) columns, the rest structural columns anchored on a row
    /// permutation with a few off-diagonal entries drawn from the layout
    /// models' coefficient classes (±1 ties, lengths, big-M terms), in a
    /// shuffled column order so partial pivoting leaves the anchors.
    fn layout_basis(m: usize, seed: u64) -> Vec<Vec<(usize, f64)>> {
        let mut state = seed | 1;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        let mut perm: Vec<usize> = (0..m).collect();
        for i in (1..m).rev() {
            perm.swap(i, (next() % (i as u64 + 1)) as usize);
        }
        let classes = [1.0, -1.0, 2.0, -0.5, 37.25, -140.0, 1e3, -2.5e5];
        let mut columns: Vec<Vec<(usize, f64)>> = (0..m)
            .map(|k| {
                let anchor = perm[k];
                if next() % 2 == 0 {
                    return vec![(anchor, 1.0)];
                }
                let mut col = vec![(anchor, classes[(next() % 8) as usize])];
                for _ in 0..(next() % 6) {
                    let r = (next() % m as u64) as usize;
                    if r != anchor {
                        col.push((r, classes[(next() % 8) as usize]));
                    }
                }
                col.sort_unstable_by_key(|&(r, _)| r);
                col.dedup_by_key(|&mut (r, _)| r);
                col
            })
            .collect();
        for i in (1..m).rev() {
            columns.swap(i, (next() % (i as u64 + 1)) as usize);
        }
        columns
    }

    /// The reach-only elimination must reproduce the all-steps factors bit
    /// for bit, and with them every FTRAN/BTRAN result — before and after
    /// Forrest–Tomlin updates.
    #[test]
    fn reach_only_elimination_matches_all_steps_bit_for_bit() {
        let mut compared = 0;
        for (m, seeds) in [(60usize, 0..24u64), (223, 0..12)] {
            for seed in seeds {
                let columns = layout_basis(m, 0x1A70_0000 + seed);
                let reference = factorize_all_steps(m, &columns);
                let reach = Factorization::factorize(m, &columns);
                let (mut g, mut f) = match (reference, reach) {
                    (Ok(g), Ok(f)) => (g, f),
                    (Err(SingularBasis), Err(SingularBasis)) => continue,
                    (g, f) => panic!("m={m} seed={seed}: {:?} vs {:?}", g.is_ok(), f.is_ok()),
                };
                assert_eq!(factor_bits(&f), factor_bits(&g), "m={m} seed={seed}");
                let rhs: Vec<f64> = (0..m).map(|i| ((i * 7919) % 23) as f64 - 11.0).collect();
                for step in 0..6 {
                    let mut x1 = rhs.clone();
                    let mut x2 = rhs.clone();
                    f.ftran_aux(&mut x1);
                    g.ftran_aux(&mut x2);
                    let mut y1 = rhs.clone();
                    let mut y2 = rhs.clone();
                    f.btran(&mut y1);
                    g.btran(&mut y2);
                    let mut u1 = vec![0.0; m];
                    let mut u2 = vec![0.0; m];
                    f.btran_unit((step * 13) % m, &mut u1);
                    g.btran_unit((step * 13) % m, &mut u2);
                    for (a, b) in [(&x1, &x2), (&y1, &y2), (&u1, &u2)] {
                        let a: Vec<u64> = a.iter().map(|v| v.to_bits()).collect();
                        let b: Vec<u64> = b.iter().map(|v| v.to_bits()).collect();
                        assert_eq!(a, b, "m={m} seed={seed} step={step}");
                    }
                    // Absorb the same column swap on both.
                    let pos = (step * 17 + 5) % m;
                    let entering = &columns[(pos + 1) % m];
                    let mut w1 = vec![0.0; m];
                    for &(r, v) in entering {
                        w1[r] = v;
                    }
                    let mut w2 = w1.clone();
                    f.ftran(&mut w1);
                    g.ftran(&mut w2);
                    if f.update(pos, &w1) != g.update(pos, &w2) {
                        panic!("m={m} seed={seed} step={step}: update verdicts differ");
                    }
                }
                compared += 1;
            }
        }
        assert!(
            compared >= 24,
            "too many singular seeds: {compared} compared"
        );
    }

    fn dense_columns(cols: &[&[f64]]) -> Vec<Vec<(usize, f64)>> {
        cols.iter()
            .map(|c| {
                c.iter()
                    .enumerate()
                    .filter(|(_, &v)| v != 0.0)
                    .map(|(r, &v)| (r, v))
                    .collect()
            })
            .collect()
    }

    fn mat_vec(cols: &[&[f64]], x: &[f64]) -> Vec<f64> {
        let m = cols[0].len();
        let mut out = vec![0.0; m];
        for (k, col) in cols.iter().enumerate() {
            for r in 0..m {
                out[r] += col[r] * x[k];
            }
        }
        out
    }

    #[test]
    fn ftran_btran_solve_small_system() {
        // B columns (3x3), deliberately needing a row swap.
        let cols: Vec<&[f64]> = vec![&[0.0, 2.0, 1.0], &[1.0, 0.0, 1.0], &[1.0, 1.0, 0.0]];
        let mut f = Factorization::factorize(3, dense_columns(&cols)).expect("nonsingular");
        assert_eq!(f.dim(), 3);

        let mut b = vec![3.0, 5.0, 4.0];
        f.ftran(&mut b);
        // Check B x = [3,5,4].
        let bx = mat_vec(&cols, &b);
        for (got, want) in bx.iter().zip([3.0, 5.0, 4.0]) {
            assert!((got - want).abs() < 1e-9, "{bx:?}");
        }

        let mut c = vec![1.0, -2.0, 0.5];
        f.btran(&mut c);
        // Check Bᵀ y = c, i.e. for every column k: col_k · y = c_k.
        for (k, col) in cols.iter().enumerate() {
            let dot: f64 = col.iter().zip(&c).map(|(a, y)| a * y).sum();
            let want = [1.0, -2.0, 0.5][k];
            assert!((dot - want).abs() < 1e-9);
        }
    }

    #[test]
    fn singular_basis_is_rejected() {
        let cols: Vec<&[f64]> = vec![&[1.0, 2.0], &[2.0, 4.0]];
        assert_eq!(
            Factorization::factorize(2, dense_columns(&cols)).unwrap_err(),
            SingularBasis
        );
    }

    #[test]
    fn forrest_tomlin_update_matches_refactorization() {
        let cols: Vec<&[f64]> = vec![&[2.0, 0.0, 1.0], &[0.0, 1.0, 1.0], &[1.0, 1.0, 0.0]];
        let mut f = Factorization::factorize(3, dense_columns(&cols)).expect("nonsingular");

        // Replace the column in position 1 with a_q = [1, 3, 0].
        let a_q = [1.0, 3.0, 0.0];
        let mut w = a_q.to_vec();
        f.ftran(&mut w);
        assert!(f.update(1, &w));

        let new_cols: Vec<&[f64]> = vec![&[2.0, 0.0, 1.0], &a_q, &[1.0, 1.0, 0.0]];
        let mut g = Factorization::factorize(3, dense_columns(&new_cols)).expect("nonsingular");

        let rhs = [4.0, -1.0, 2.5];
        let mut x1 = rhs.to_vec();
        f.ftran(&mut x1);
        let mut x2 = rhs.to_vec();
        g.ftran(&mut x2);
        for (a, b) in x1.iter().zip(&x2) {
            assert!((a - b).abs() < 1e-9, "{x1:?} vs {x2:?}");
        }

        let cost = [1.0, 1.0, -1.0];
        let mut y1 = cost.to_vec();
        f.btran(&mut y1);
        let mut y2 = cost.to_vec();
        g.btran(&mut y2);
        for (a, b) in y1.iter().zip(&y2) {
            assert!((a - b).abs() < 1e-9, "{y1:?} vs {y2:?}");
        }
    }

    /// A long randomized chain of updates must keep agreeing with a fresh
    /// factorisation of the final column set — the regression test for the
    /// row-eta bookkeeping (order rotation, fill mirrors, spike algebra).
    #[test]
    fn chained_updates_match_refactorization() {
        let m = 8;
        let mut state = 0x5EED_1234_u64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            ((state % 2000) as f64 - 1000.0) / 250.0
        };
        // Start from a well-conditioned random basis.
        let mut cols: Vec<Vec<f64>> = (0..m)
            .map(|k| {
                let mut c: Vec<f64> = (0..m).map(|_| next()).collect();
                c[k] += 6.0; // diagonal dominance
                c
            })
            .collect();
        let dense = |cols: &[Vec<f64>]| -> Vec<Vec<(usize, f64)>> {
            cols.iter()
                .map(|c| {
                    c.iter()
                        .enumerate()
                        .filter(|(_, &v)| v != 0.0)
                        .map(|(r, &v)| (r, v))
                        .collect()
                })
                .collect()
        };
        let mut f = Factorization::factorize(m, dense(&cols)).expect("nonsingular");
        for step in 0..20 {
            let pos = (step * 5) % m;
            let mut a_q: Vec<f64> = (0..m).map(|_| next()).collect();
            a_q[pos] += 6.0;
            let mut w = a_q.clone();
            f.ftran(&mut w);
            if !f.update(pos, &w) {
                // Stability refusal is legal; refactorise like the solver.
                cols[pos] = a_q;
                f = Factorization::factorize(m, dense(&cols)).expect("nonsingular");
                continue;
            }
            cols[pos] = a_q;

            let mut g = Factorization::factorize(m, dense(&cols)).expect("nonsingular");
            let rhs: Vec<f64> = (0..m).map(|i| (i as f64) - 3.0).collect();
            let mut x1 = rhs.clone();
            f.ftran(&mut x1);
            let mut x2 = rhs.clone();
            g.ftran(&mut x2);
            for (a, b) in x1.iter().zip(&x2) {
                assert!((a - b).abs() < 1e-6, "step {step}: ftran diverged");
            }
            let mut y1 = rhs.clone();
            f.btran(&mut y1);
            let mut y2 = rhs;
            g.btran(&mut y2);
            for (a, b) in y1.iter().zip(&y2) {
                assert!((a - b).abs() < 1e-6, "step {step}: btran diverged");
            }
        }
        assert!(
            f.eta_count() >= 1,
            "the chain should have exercised row etas"
        );
    }

    #[test]
    fn tiny_update_pivot_is_refused() {
        let cols: Vec<&[f64]> = vec![&[1.0, 0.0], &[0.0, 1.0]];
        let mut f = Factorization::factorize(2, dense_columns(&cols)).expect("nonsingular");
        // An entering column whose pivot element in position 0 is ~zero
        // (the spike diagonal is equally tiny for the identity basis).
        let mut w = vec![1e-12, 1.0];
        f.ftran(&mut w);
        assert!(!f.update(0, &w));
        assert_eq!(f.eta_count(), 0);
    }

    #[test]
    fn update_without_stale_row_is_a_pure_column_swap() {
        // Replacing the *last* pivot-order column leaves no sub-diagonal
        // remnants, so no row eta is recorded.
        let cols: Vec<&[f64]> = vec![&[1.0, 0.0], &[0.5, 1.0]];
        let mut f = Factorization::factorize(2, dense_columns(&cols)).expect("nonsingular");
        let a_q = [1.0, 2.0];
        let mut w = a_q.to_vec();
        f.ftran(&mut w);
        assert!(f.update(1, &w));
        assert_eq!(f.eta_count(), 0, "pure column replacement needs no eta");
        let new_cols: Vec<&[f64]> = vec![&[1.0, 0.0], &a_q];
        let mut g = Factorization::factorize(2, dense_columns(&new_cols)).expect("nonsingular");
        let mut x1 = vec![3.0, -1.0];
        f.ftran(&mut x1);
        let mut x2 = vec![3.0, -1.0];
        g.ftran(&mut x2);
        for (a, b) in x1.iter().zip(&x2) {
            assert!((a - b).abs() < 1e-9);
        }
    }
}
