//! The concurrent placement-and-routing ILP model (Section 4 of the paper).
//!
//! [`LayoutIlp`] translates a [`Netlist`] plus an [`IlpConfig`] into a
//! mixed-integer linear program over:
//!
//! * chain-point coordinates `(x_{i,j}, y_{i,j})` per microstrip,
//! * four 0-1 **direction variables** per segment with the one-direction and
//!   no-reversal constraints (1)–(5),
//! * segment lengths tied to the coordinates through indicator (big-M)
//!   constraints — the linear equivalent of the products in equation (6),
//! * 0-1 **bend variables** per interior chain point, constraints (8)–(11),
//! * the **equivalent length** equation (12) with the per-bend correction
//!   `δ` and the exact-length constraint (13) (or its soft variant
//!   (23)–(25) used by the progressive phases),
//! * device-centre variables with the pin-connection constraints (14) and
//!   pad-on-boundary constraints (15),
//! * pairwise **non-overlap** big-M disjunctions (16)–(20) over expanded
//!   bounding boxes, optionally with penalised slack (Phase 1), and
//! * the bend-minimisation objective (21)/(26).
//!
//! The same builder serves every phase of the progressive flow by changing
//! which devices/strips are *free* (decision variables) versus *fixed*
//! (constants taken from a base [`Layout`]), whether devices are blurred
//! (Phase 1), whether lengths are hard or soft, and which non-overlap pairs
//! are active (the caller separates violated pairs lazily).

use std::collections::{BTreeMap, BTreeSet};

use rfic_geom::{Point, Polyline, Rect, Rotation};
use rfic_milp::{
    linearize, LinExpr, MilpError, MilpSolution, Model, Sense, SolveOptions, VarId, WarmStart,
};
use rfic_netlist::{DeviceId, MicrostripId, Netlist};
use serde::{Deserialize, Serialize};

use crate::layout::{Layout, Placement};

/// Objective weights of the optimisation problems (21) and (26).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct IlpWeights {
    /// Weight `α` of the maximum bend count.
    pub alpha: f64,
    /// Weight `β` of the total bend count.
    pub beta: f64,
    /// Weight `γ` of the maximum unmatched length (soft-length mode).
    pub gamma: f64,
    /// Weight `ζ` of the total unmatched length (soft-length mode).
    pub zeta: f64,
    /// Weight `η` of the total overlap slack (Phase 1).
    pub eta: f64,
}

impl Default for IlpWeights {
    fn default() -> Self {
        // Length matching and overlap removal must dominate bend savings:
        // one bend is traded against only a fraction of a micrometre of
        // length error.
        IlpWeights {
            alpha: 0.5,
            beta: 0.2,
            gamma: 2.0,
            zeta: 1.0,
            eta: 4.0,
        }
    }
}

/// Reference to a geometric object that can take part in a non-overlap
/// constraint.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Serialize, Deserialize)]
pub enum ObjectId {
    /// A device or pad outline.
    Device(DeviceId),
    /// One segment of a microstrip route (segment `index` connects chain
    /// points `index` and `index + 1`).
    Segment(MicrostripId, usize),
}

/// One pairwise non-overlap constraint to include in the model.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Serialize, Deserialize)]
pub struct PairSpec {
    /// First object.
    pub a: ObjectId,
    /// Second object.
    pub b: ObjectId,
}

/// Configuration of one ILP build.
///
/// Every device keeps the rotation of its `base` placement (`R0` when it
/// has none); the flow tries rotations by re-building against a rotated
/// base layout.
#[derive(Debug, Clone, PartialEq)]
pub struct IlpConfig {
    /// Strips whose routes are decision variables. Strips not listed are
    /// fixed at their `base` routes.
    pub free_strips: BTreeSet<MicrostripId>,
    /// Devices whose centres are decision variables. Devices not listed are
    /// fixed at their `base` placements.
    pub free_devices: BTreeSet<DeviceId>,
    /// Phase 1 "blurred device" mode: device geometry is ignored, strip
    /// endpoints meet at per-device junction points and the target lengths
    /// are increased by the blur corrections `L_{s,i} + L_{e,i}` (23).
    pub blur_devices: bool,
    /// Enforce exact target lengths (13); otherwise the soft formulation
    /// (24)–(25) with `l_{u,i}` / `l_{u,max}` is used.
    pub hard_length: bool,
    /// Allow penalised overlap slack on the non-overlap pairs (Phase 1).
    pub overlap_slack: bool,
    /// Number of chain points per free strip (defaults to the netlist's
    /// suggested count when absent).
    pub chain_points: BTreeMap<MicrostripId, usize>,
    /// Confinement window (`τ_d`) for free device centres.
    pub device_windows: BTreeMap<DeviceId, Rect>,
    /// Confinement windows for free-strip chain points (one per strip; all
    /// chain points of the strip share the window).
    pub strip_windows: BTreeMap<MicrostripId, Rect>,
    /// Non-overlap pairs to enforce. At least one object of each pair must
    /// be free; fixed-fixed pairs are ignored.
    pub overlap_pairs: Vec<PairSpec>,
    /// Objective weights.
    pub weights: IlpWeights,
}

impl IlpConfig {
    /// Configuration with every strip and every device free, hard lengths
    /// and no overlap pairs (the caller adds them or separates lazily).
    pub fn concurrent(netlist: &Netlist) -> IlpConfig {
        IlpConfig {
            free_strips: netlist.microstrips().iter().map(|m| m.id).collect(),
            free_devices: netlist.devices().iter().map(|d| d.id).collect(),
            blur_devices: false,
            hard_length: true,
            overlap_slack: false,
            chain_points: BTreeMap::new(),
            device_windows: BTreeMap::new(),
            strip_windows: BTreeMap::new(),
            overlap_pairs: Vec::new(),
            weights: IlpWeights::default(),
        }
    }

    /// Configuration for re-routing a single strip with everything else
    /// fixed (the windowed per-net solves of Phases 2 and 3).
    pub fn single_strip(strip: MicrostripId) -> IlpConfig {
        IlpConfig {
            free_strips: BTreeSet::from([strip]),
            free_devices: BTreeSet::new(),
            blur_devices: false,
            hard_length: true,
            overlap_slack: false,
            chain_points: BTreeMap::new(),
            device_windows: BTreeMap::new(),
            strip_windows: BTreeMap::new(),
            overlap_pairs: Vec::new(),
            weights: IlpWeights::default(),
        }
    }

    /// Number of chain points used for a strip.
    pub fn chain_points_for(&self, netlist: &Netlist, strip: MicrostripId) -> usize {
        self.chain_points
            .get(&strip)
            .copied()
            .unwrap_or_else(|| {
                netlist
                    .microstrip(strip)
                    .map(|m| m.suggested_chain_points)
                    .unwrap_or(4)
            })
            .max(2)
    }
}

/// Variable bundle of one free strip.
#[derive(Debug, Clone)]
struct StripVars {
    /// Chain-point coordinate variables.
    points: Vec<(VarId, VarId)>,
    /// Direction binaries per segment: `[up, down, left, right]`.
    directions: Vec<[VarId; 4]>,
    /// Segment length variables.
    lengths: Vec<VarId>,
    /// Bend binaries per interior chain point.
    bends: Vec<VarId>,
}

/// Variable bundle of one free segment's expanded bounding box.
#[derive(Debug, Clone, Copy)]
struct BoxVars {
    xl: VarId,
    xr: VarId,
    yd: VarId,
    yu: VarId,
}

/// Either variable box corners or a constant rectangle, for non-overlap
/// constraints.
#[derive(Debug, Clone, Copy)]
enum BoxRef {
    Vars(BoxVars),
    Fixed(Rect),
}

/// Error raised while building or solving a layout ILP.
#[derive(Debug, Clone, PartialEq)]
pub enum IlpError {
    /// A referenced strip or device does not exist in the netlist.
    UnknownObject(String),
    /// A fixed object has no position in the base layout.
    MissingBase(String),
    /// The MILP solver failed (infeasible, unbounded or limit reached).
    Solver(MilpError),
}

impl std::fmt::Display for IlpError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            IlpError::UnknownObject(s) => write!(f, "unknown object: {s}"),
            IlpError::MissingBase(s) => {
                write!(f, "object {s} is fixed but missing from the base layout")
            }
            IlpError::Solver(e) => write!(f, "solver error: {e}"),
        }
    }
}

impl std::error::Error for IlpError {}

impl From<MilpError> for IlpError {
    fn from(e: MilpError) -> Self {
        IlpError::Solver(e)
    }
}

/// Outcome of solving a layout ILP.
#[derive(Debug, Clone)]
pub struct IlpOutcome {
    /// The decoded layout (free objects updated, fixed objects copied from
    /// the base).
    pub layout: Layout,
    /// Objective value of the MILP.
    pub objective: f64,
    /// Raw solver statistics.
    pub solution: MilpSolution,
}

/// A built layout ILP, ready to solve.
///
/// The model is *incremental*: [`LayoutIlp::add_overlap_pairs`] appends
/// further non-overlap disjunctions to the existing model, and
/// [`LayoutIlp::solve_warm`] re-enters the branch-and-bound search from the
/// previous root basis — together they make the lazy separation loop a
/// sequence of cheap dual re-solves instead of rebuild-and-cold-solve
/// rounds.
pub struct LayoutIlp<'a> {
    netlist: &'a Netlist,
    config: IlpConfig,
    base: Layout,
    model: Model,
    strip_vars: BTreeMap<MicrostripId, StripVars>,
    device_vars: BTreeMap<DeviceId, (VarId, VarId)>,
    junction_vars: BTreeMap<DeviceId, (VarId, VarId)>,
    big_m: f64,
    /// Box-variable cache shared by every overlap pair ever added.
    overlap_cache: BTreeMap<ObjectId, BoxRef>,
    /// Serial number for naming overlap constraint variables.
    overlap_serial: usize,
}

impl<'a> LayoutIlp<'a> {
    /// Builds the ILP for the given netlist, configuration and base layout.
    ///
    /// # Errors
    ///
    /// Returns [`IlpError::UnknownObject`] for references to non-existent
    /// strips/devices and [`IlpError::MissingBase`] when a fixed object has
    /// no position in `base`.
    pub fn build(
        netlist: &'a Netlist,
        mut config: IlpConfig,
        base: &Layout,
    ) -> Result<LayoutIlp<'a>, IlpError> {
        let initial_pairs = std::mem::take(&mut config.overlap_pairs);
        let mut builder = LayoutIlp {
            netlist,
            config,
            base: base.clone(),
            model: Model::new(Sense::Minimize),
            strip_vars: BTreeMap::new(),
            device_vars: BTreeMap::new(),
            junction_vars: BTreeMap::new(),
            // Must dominate any |expression| appearing in an indicator
            // constraint (coordinate differences minus a segment length).
            big_m: 2.0 * (netlist.area().0 + netlist.area().1),
            overlap_cache: BTreeMap::new(),
            overlap_serial: 0,
        };
        builder.add_device_variables()?;
        builder.add_strip_variables()?;
        builder.add_length_constraints()?;
        builder.add_endpoint_constraints()?;
        builder.add_objective_bend_terms();
        builder.add_overlap_pairs(&initial_pairs)?;
        Ok(builder)
    }

    /// The configuration of this model, including every overlap pair added
    /// so far.
    pub fn config(&self) -> &IlpConfig {
        &self.config
    }

    /// The underlying MILP model (read-only; useful for diagnostics and
    /// solver benchmarking).
    pub fn model(&self) -> &Model {
        &self.model
    }

    /// The number of variables in the underlying MILP.
    pub fn num_vars(&self) -> usize {
        self.model.num_vars()
    }

    /// The number of constraints in the underlying MILP.
    pub fn num_constraints(&self) -> usize {
        self.model.num_constraints()
    }

    /// The number of integer variables in the underlying MILP.
    pub fn num_integer_vars(&self) -> usize {
        self.model.num_integer_vars()
    }

    /// Solves the ILP and decodes the resulting layout.
    ///
    /// # Errors
    ///
    /// Returns [`IlpError::Solver`] if the MILP is infeasible, unbounded or
    /// no feasible solution was found within the limits.
    pub fn solve(&self, options: &SolveOptions) -> Result<IlpOutcome, IlpError> {
        self.outcome(self.model.solve(options))
    }

    /// Solves the ILP warm-started from (and updating) `warm` — the cheap
    /// path when the model only grew by lazily separated overlap pairs since
    /// the basis in `warm` was captured — with the branch-and-bound search
    /// scheduled on a shared [`rfic_milp::SolverPool`] instead of
    /// per-solve worker threads, so N concurrent layout flows multiplex
    /// one fixed worker set.
    ///
    /// # Errors
    ///
    /// Same conditions as [`LayoutIlp::solve`], plus
    /// [`rfic_milp::MilpError::PoolShutdown`] if the pool has been shut
    /// down.
    pub fn solve_warm(
        &self,
        options: &SolveOptions,
        warm: &mut WarmStart,
        pool: &rfic_milp::SolverPool,
    ) -> Result<IlpOutcome, IlpError> {
        self.outcome(self.model.solve_warm(options, warm, Some(pool)))
    }

    /// Decodes a MILP solution into an [`IlpOutcome`].
    fn outcome(&self, solution: Result<MilpSolution, MilpError>) -> Result<IlpOutcome, IlpError> {
        let solution = solution?;
        Ok(IlpOutcome {
            objective: solution.objective,
            layout: self.decode(&solution),
            solution,
        })
    }

    /// Builds the LP relaxation of the underlying MILP.
    pub fn relaxation(&self) -> rfic_lp::LinearProgram {
        self.model.relaxation()
    }

    // --- variables ---------------------------------------------------------

    fn rotation_of(&self, device: DeviceId) -> Rotation {
        self.base
            .placement(device)
            .map_or(Rotation::R0, |p| p.rotation)
    }

    fn add_device_variables(&mut self) -> Result<(), IlpError> {
        let (aw, ah) = self.netlist.area();
        for device in self.netlist.devices() {
            let free = self.config.free_devices.contains(&device.id);
            if self.config.blur_devices {
                // Blurred mode: a junction point per device (used by strip
                // endpoints); pads still need to reach the boundary.
                if !free {
                    continue;
                }
                let x = self
                    .model
                    .add_continuous(format!("jx_{}", device.id), 0.0, aw, 0.0);
                let y = self
                    .model
                    .add_continuous(format!("jy_{}", device.id), 0.0, ah, 0.0);
                self.apply_window(device.id, x, y);
                if device.is_pad() {
                    self.add_pad_boundary(device.id, x, y);
                }
                self.junction_vars.insert(device.id, (x, y));
            } else {
                if !free {
                    continue;
                }
                let rotation = self.rotation_of(device.id);
                let (w, h) = device.footprint(rotation);
                let (mut lo_x, mut hi_x, mut lo_y, mut hi_y) = if device.is_pad() {
                    (0.0, aw, 0.0, ah)
                } else {
                    (w / 2.0, aw - w / 2.0, h / 2.0, ah - h / 2.0)
                };
                if let Some(window) = self.config.device_windows.get(&device.id) {
                    lo_x = lo_x.max(window.min.x);
                    hi_x = hi_x.min(window.max.x);
                    lo_y = lo_y.max(window.min.y);
                    hi_y = hi_y.min(window.max.y);
                }
                let x = self.model.add_continuous(
                    format!("dx_{}", device.id),
                    lo_x,
                    hi_x.max(lo_x),
                    0.0,
                );
                let y = self.model.add_continuous(
                    format!("dy_{}", device.id),
                    lo_y,
                    hi_y.max(lo_y),
                    0.0,
                );
                if device.is_pad() {
                    self.add_pad_boundary(device.id, x, y);
                }
                self.device_vars.insert(device.id, (x, y));
            }
        }
        Ok(())
    }

    fn apply_window(&mut self, device: DeviceId, x: VarId, y: VarId) {
        if let Some(window) = self.config.device_windows.get(&device) {
            let (aw, ah) = self.netlist.area();
            self.model
                .set_var_bounds(x, window.min.x.max(0.0), window.max.x.min(aw));
            self.model
                .set_var_bounds(y, window.min.y.max(0.0), window.max.y.min(ah));
        }
    }

    /// Pad-on-boundary constraint (15), expressed as the equivalent
    /// disjunction "centre lies on one of the four boundary lines".
    fn add_pad_boundary(&mut self, device: DeviceId, x: VarId, y: VarId) {
        let (aw, ah) = self.netlist.area();
        let m = self.big_m;
        let selectors: Vec<VarId> = (0..4)
            .map(|k| self.model.add_binary(format!("pad_{device}_side{k}"), 0.0))
            .collect();
        linearize::indicator_eq(&mut self.model, selectors[0], LinExpr::from(x), 0.0, m);
        linearize::indicator_eq(&mut self.model, selectors[1], LinExpr::from(x), aw, m);
        linearize::indicator_eq(&mut self.model, selectors[2], LinExpr::from(y), 0.0, m);
        linearize::indicator_eq(&mut self.model, selectors[3], LinExpr::from(y), ah, m);
        self.model.add_ge(LinExpr::sum(selectors), 1.0);
    }

    fn add_strip_variables(&mut self) -> Result<(), IlpError> {
        let (aw, ah) = self.netlist.area();
        let strips: Vec<MicrostripId> = self.config.free_strips.iter().copied().collect();
        for strip_id in strips {
            let strip = self
                .netlist
                .microstrip(strip_id)
                .ok_or_else(|| IlpError::UnknownObject(format!("{strip_id}")))?
                .clone();
            let n = self.config.chain_points_for(self.netlist, strip_id);
            let window = self.config.strip_windows.get(&strip_id).copied();
            let (lo_x, hi_x, lo_y, hi_y) = match window {
                Some(w) => (
                    w.min.x.max(0.0),
                    w.max.x.min(aw),
                    w.min.y.max(0.0),
                    w.max.y.min(ah),
                ),
                None => (0.0, aw, 0.0, ah),
            };

            let mut points = Vec::with_capacity(n);
            for j in 0..n {
                let x = self
                    .model
                    .add_continuous(format!("x_{strip_id}_{j}"), lo_x, hi_x, 0.0);
                let y = self
                    .model
                    .add_continuous(format!("y_{strip_id}_{j}"), lo_y, hi_y, 0.0);
                points.push((x, y));
            }

            let mut directions = Vec::with_capacity(n - 1);
            let mut lengths = Vec::with_capacity(n - 1);
            let mut active = Vec::with_capacity(n - 1);
            let min_seg = self.netlist.tech().min_segment_length;
            for j in 0..n - 1 {
                let dirs = [
                    self.model.add_binary(format!("s_u_{strip_id}_{j}"), 0.0),
                    self.model.add_binary(format!("s_d_{strip_id}_{j}"), 0.0),
                    self.model.add_binary(format!("s_l_{strip_id}_{j}"), 0.0),
                    self.model.add_binary(format!("s_r_{strip_id}_{j}"), 0.0),
                ];
                // (1): exactly one direction per segment.
                self.model.add_eq(LinExpr::sum(dirs.iter().copied()), 1.0);

                let len = self
                    .model
                    .add_continuous(format!("l_{strip_id}_{j}"), 0.0, aw + ah, 0.0);
                // A segment is either *active* with at least the minimum
                // manufacturable length, or degenerate (zero length). This
                // prevents the solver from registering "phantom" bends on
                // zero-length segments to tweak the equivalent length.
                let act = self.model.add_binary(format!("a_{strip_id}_{j}"), 0.0);
                self.model.add_le(LinExpr::from(len) - (act, aw + ah), 0.0);
                self.model.add_ge(LinExpr::from(len) - (act, min_seg), 0.0);
                active.push(act);

                let (x0, y0) = points[j];
                let (x1, y1) = points[j + 1];
                let m = self.big_m;
                // Up: y1 - y0 = len, x1 = x0.
                linearize::indicator_eq(
                    &mut self.model,
                    dirs[0],
                    LinExpr::from(y1) - y0 - len,
                    0.0,
                    m,
                );
                linearize::indicator_eq(&mut self.model, dirs[0], LinExpr::from(x1) - x0, 0.0, m);
                // Down: y0 - y1 = len, x1 = x0.
                linearize::indicator_eq(
                    &mut self.model,
                    dirs[1],
                    LinExpr::from(y0) - y1 - len,
                    0.0,
                    m,
                );
                linearize::indicator_eq(&mut self.model, dirs[1], LinExpr::from(x1) - x0, 0.0, m);
                // Left: x0 - x1 = len, y1 = y0.
                linearize::indicator_eq(
                    &mut self.model,
                    dirs[2],
                    LinExpr::from(x0) - x1 - len,
                    0.0,
                    m,
                );
                linearize::indicator_eq(&mut self.model, dirs[2], LinExpr::from(y1) - y0, 0.0, m);
                // Right: x1 - x0 = len, y1 = y0.
                linearize::indicator_eq(
                    &mut self.model,
                    dirs[3],
                    LinExpr::from(x1) - x0 - len,
                    0.0,
                    m,
                );
                linearize::indicator_eq(&mut self.model, dirs[3], LinExpr::from(y1) - y0, 0.0, m);

                directions.push(dirs);
                lengths.push(len);
            }

            // (2)–(5): the next segment must not reverse the previous one.
            for j in 0..directions.len().saturating_sub(1) {
                let here = directions[j];
                let next = directions[j + 1];
                // up then down
                self.model.add_le(LinExpr::from(here[0]) + next[1], 1.0);
                // down then up
                self.model.add_le(LinExpr::from(here[1]) + next[0], 1.0);
                // left then right
                self.model.add_le(LinExpr::from(here[2]) + next[3], 1.0);
                // right then left
                self.model.add_le(LinExpr::from(here[3]) + next[2], 1.0);
            }

            // A degenerate (inactive) segment must carry the same direction
            // as both of its neighbours: the route passes straight through
            // the unused chain point, so a direction change — and hence a
            // bend — can only be registered between two *active* segments.
            for j in 0..directions.len() {
                let here = directions[j];
                let act = active[j];
                for neighbour in [
                    j.checked_sub(1),
                    (j + 1 < directions.len()).then_some(j + 1),
                ]
                .into_iter()
                .flatten()
                {
                    let other = directions[neighbour];
                    for d in 0..4 {
                        self.model
                            .add_le(LinExpr::from(here[d]) - other[d] - act, 0.0);
                        self.model
                            .add_le(LinExpr::from(other[d]) - here[d] - act, 0.0);
                    }
                }
            }

            // (8)–(10): bend detection at interior chain points.
            let mut bends = Vec::new();
            for j in 1..directions.len() {
                let prev = directions[j - 1];
                let here = directions[j];
                let t_hv = self.model.add_binary(format!("t_hv_{strip_id}_{j}"), 0.0);
                let u_hv = self
                    .model
                    .add_continuous(format!("u_hv_{strip_id}_{j}"), 0.0, 1.0, 0.0);
                let t_vh = self.model.add_binary(format!("t_vh_{strip_id}_{j}"), 0.0);
                let u_vh = self
                    .model
                    .add_continuous(format!("u_vh_{strip_id}_{j}"), 0.0, 1.0, 0.0);
                let t = self.model.add_binary(format!("t_{strip_id}_{j}"), 0.0);
                // (8): prev horizontal, next vertical.
                self.model.add_eq(
                    LinExpr::from(prev[3]) + prev[2] + here[0] + here[1] - (t_hv, 2.0) - u_hv,
                    0.0,
                );
                // (9): prev vertical, next horizontal.
                self.model.add_eq(
                    LinExpr::from(prev[0]) + prev[1] + here[3] + here[2] - (t_vh, 2.0) - u_vh,
                    0.0,
                );
                // (10): t = t_hv + t_vh (and t <= 1 by binariness).
                self.model.add_eq(LinExpr::from(t) - t_hv - t_vh, 0.0);
                bends.push(t);
            }

            let _ = strip;
            self.strip_vars.insert(
                strip_id,
                StripVars {
                    points,
                    directions,
                    lengths,
                    bends,
                },
            );
        }
        Ok(())
    }

    /// Target length of a strip, adjusted by the blur corrections of (23)
    /// when devices are blurred.
    fn target_length(&self, strip_id: MicrostripId) -> f64 {
        let strip = self.netlist.microstrip(strip_id).expect("strip exists");
        let mut target = strip.target_length;
        if self.config.blur_devices {
            for terminal in strip.terminals() {
                if let Some(device) = self.netlist.device(terminal.device) {
                    if !device.is_pad() {
                        target += device.blur_radius();
                    }
                }
            }
        }
        target
    }

    fn add_length_constraints(&mut self) -> Result<(), IlpError> {
        let delta = self.netlist.tech().bend_delta;
        let weights = self.config.weights;
        let mut lu_vars: Vec<VarId> = Vec::new();
        let strips: Vec<MicrostripId> = self.strip_vars.keys().copied().collect();
        for strip_id in strips {
            let vars = self.strip_vars.get(&strip_id).expect("strip vars").clone();
            let target = self.target_length(strip_id);
            // l_eq = sum of segment lengths + delta * number of bends (12).
            let mut leq = LinExpr::new();
            for len in &vars.lengths {
                leq.add_term(*len, 1.0);
            }
            for bend in &vars.bends {
                leq.add_term(*bend, delta);
            }
            if self.config.hard_length {
                // (13): exact equality.
                self.model.add_eq(leq, target);
            } else {
                // (24)–(25): soft deviation variables.
                let lu = self.model.add_continuous(
                    format!("lu_{strip_id}"),
                    0.0,
                    self.big_m,
                    weights.zeta,
                );
                self.model.add_ge(LinExpr::from(lu) + leq.clone(), target);
                self.model.add_ge(LinExpr::from(lu) - leq, -target);
                lu_vars.push(lu);
            }
        }
        if !self.config.hard_length && !lu_vars.is_empty() {
            let lu_max = self
                .model
                .add_continuous("lu_max", 0.0, self.big_m, weights.gamma);
            for lu in lu_vars {
                self.model.add_ge(LinExpr::from(lu_max) - lu, 0.0);
            }
        }
        Ok(())
    }

    /// Position expression of a pin: either constants (fixed device) or a
    /// device-centre variable plus the rotated offset.
    fn pin_expr(&self, device_id: DeviceId, pin: usize) -> Result<(LinExpr, LinExpr), IlpError> {
        let device = self
            .netlist
            .device(device_id)
            .ok_or_else(|| IlpError::UnknownObject(format!("{device_id}")))?;
        if self.config.blur_devices {
            // Junction point of the device (pin offsets ignored).
            if let Some(&(jx, jy)) = self.junction_vars.get(&device_id) {
                return Ok((LinExpr::from(jx), LinExpr::from(jy)));
            }
            let placement = self
                .base
                .placement(device_id)
                .ok_or_else(|| IlpError::MissingBase(format!("{device_id}")))?;
            return Ok((
                LinExpr::constant_term(placement.center.x),
                LinExpr::constant_term(placement.center.y),
            ));
        }
        let rotation = self.rotation_of(device_id);
        let offset = rotation.apply(
            device
                .pins
                .get(pin)
                .ok_or_else(|| IlpError::UnknownObject(format!("{device_id} pin {pin}")))?
                .offset,
        );
        if let Some(&(dx, dy)) = self.device_vars.get(&device_id) {
            Ok((LinExpr::from(dx) + offset.x, LinExpr::from(dy) + offset.y))
        } else {
            let placement = self
                .base
                .placement(device_id)
                .ok_or_else(|| IlpError::MissingBase(format!("{device_id}")))?;
            let pin_pos = device
                .pin_position(placement.center, placement.rotation, pin)
                .ok_or_else(|| IlpError::UnknownObject(format!("{device_id} pin {pin}")))?;
            Ok((
                LinExpr::constant_term(pin_pos.x),
                LinExpr::constant_term(pin_pos.y),
            ))
        }
    }

    /// Pin-connection constraints (14): the first and last chain points of a
    /// free strip coincide with the pins (or junctions) they connect to.
    fn add_endpoint_constraints(&mut self) -> Result<(), IlpError> {
        let strips: Vec<MicrostripId> = self.strip_vars.keys().copied().collect();
        for strip_id in strips {
            let strip = self
                .netlist
                .microstrip(strip_id)
                .expect("strip exists")
                .clone();
            let vars = self.strip_vars.get(&strip_id).expect("strip vars").clone();
            let first = vars.points[0];
            let last = *vars.points.last().expect("at least two chain points");
            for (terminal, (px, py)) in [(strip.start, first), (strip.end, last)] {
                let (ex, ey) = self.pin_expr(terminal.device, terminal.pin)?;
                self.model.add_eq_expr(LinExpr::from(px), ex);
                self.model.add_eq_expr(LinExpr::from(py), ey);
            }
        }
        Ok(())
    }

    /// Objective terms (21)/(26): `α·n_b,max + β·Σ n_b,i` (the length and
    /// overlap terms are attached to their variables where they are
    /// created).
    fn add_objective_bend_terms(&mut self) {
        let weights = self.config.weights;
        let nb_max = self.model.add_continuous("nb_max", 0.0, 1e3, weights.alpha);
        // Fixed strips contribute constant bend counts to the max.
        let fixed_max = fixed_bend_floor(self.netlist, &self.config, &self.base);
        self.model.add_ge(LinExpr::from(nb_max), fixed_max as f64);
        for vars in self.strip_vars.values() {
            let mut nb = LinExpr::new();
            for bend in &vars.bends {
                nb.add_term(*bend, 1.0);
                // β · Σ n_b,i term.
                self.model.add_objective_coeff(*bend, weights.beta);
            }
            // nb_max >= nb_i (11)/(21).
            self.model.add_ge(LinExpr::from(nb_max) - nb, 0.0);
        }
    }

    // --- non-overlap -------------------------------------------------------

    /// Expanded bounding-box reference of an object: variable corners for
    /// free objects, a constant rectangle for fixed ones. Cached across
    /// every overlap pair (including pairs added after the initial build).
    fn box_ref(&mut self, object: ObjectId) -> Result<BoxRef, IlpError> {
        if let Some(&b) = self.overlap_cache.get(&object) {
            return Ok(b);
        }
        let margin = self.netlist.tech().expansion_margin();
        let b = match object {
            ObjectId::Device(id) => {
                let device = self
                    .netlist
                    .device(id)
                    .ok_or_else(|| IlpError::UnknownObject(format!("{id}")))?;
                let rotation = self.rotation_of(id);
                let (w, h) = device.footprint(rotation);
                if let Some(&(dx, dy)) = self.device_vars.get(&id) {
                    let half_w = w / 2.0 + margin;
                    let half_h = h / 2.0 + margin;
                    let (aw, ah) = self.netlist.area();
                    let xl = self
                        .model
                        .add_continuous(format!("bxl_{id}"), -2.0 * half_w, aw, 0.0);
                    let xr =
                        self.model
                            .add_continuous(format!("bxr_{id}"), 0.0, aw + 2.0 * half_w, 0.0);
                    let yd = self
                        .model
                        .add_continuous(format!("byd_{id}"), -2.0 * half_h, ah, 0.0);
                    let yu =
                        self.model
                            .add_continuous(format!("byu_{id}"), 0.0, ah + 2.0 * half_h, 0.0);
                    self.model
                        .add_eq_expr(LinExpr::from(xl), LinExpr::from(dx) - half_w);
                    self.model
                        .add_eq_expr(LinExpr::from(xr), LinExpr::from(dx) + half_w);
                    self.model
                        .add_eq_expr(LinExpr::from(yd), LinExpr::from(dy) - half_h);
                    self.model
                        .add_eq_expr(LinExpr::from(yu), LinExpr::from(dy) + half_h);
                    BoxRef::Vars(BoxVars { xl, xr, yd, yu })
                } else if self.config.blur_devices && self.junction_vars.contains_key(&id) {
                    // Blurred free device: treat as a point with margin.
                    let &(jx, jy) = self.junction_vars.get(&id).expect("junction");
                    let (aw, ah) = self.netlist.area();
                    let xl = self
                        .model
                        .add_continuous(format!("bxl_{id}"), -2.0 * margin, aw, 0.0);
                    let xr =
                        self.model
                            .add_continuous(format!("bxr_{id}"), 0.0, aw + 2.0 * margin, 0.0);
                    let yd = self
                        .model
                        .add_continuous(format!("byd_{id}"), -2.0 * margin, ah, 0.0);
                    let yu =
                        self.model
                            .add_continuous(format!("byu_{id}"), 0.0, ah + 2.0 * margin, 0.0);
                    self.model
                        .add_eq_expr(LinExpr::from(xl), LinExpr::from(jx) - margin);
                    self.model
                        .add_eq_expr(LinExpr::from(xr), LinExpr::from(jx) + margin);
                    self.model
                        .add_eq_expr(LinExpr::from(yd), LinExpr::from(jy) - margin);
                    self.model
                        .add_eq_expr(LinExpr::from(yu), LinExpr::from(jy) + margin);
                    BoxRef::Vars(BoxVars { xl, xr, yd, yu })
                } else {
                    let outline = self
                        .base
                        .device_outline(self.netlist, id)
                        .ok_or_else(|| IlpError::MissingBase(format!("{id}")))?;
                    BoxRef::Fixed(outline.expanded(margin))
                }
            }
            ObjectId::Segment(strip_id, seg) => {
                if let Some(vars) = self.strip_vars.get(&strip_id) {
                    if seg + 1 >= vars.points.len() {
                        return Err(IlpError::UnknownObject(format!("{strip_id} segment {seg}")));
                    }
                    let width = self.netlist.strip_width(strip_id);
                    let half_w = width / 2.0;
                    let (x0, y0) = vars.points[seg];
                    let (x1, y1) = vars.points[seg + 1];
                    let dirs = vars.directions[seg];
                    let (aw, ah) = self.netlist.area();
                    let pad = half_w + margin;
                    let xl = self.model.add_continuous(
                        format!("sxl_{strip_id}_{seg}"),
                        -2.0 * pad,
                        aw,
                        0.0,
                    );
                    let xr = self.model.add_continuous(
                        format!("sxr_{strip_id}_{seg}"),
                        0.0,
                        aw + 2.0 * pad,
                        0.0,
                    );
                    let yd = self.model.add_continuous(
                        format!("syd_{strip_id}_{seg}"),
                        -2.0 * pad,
                        ah,
                        0.0,
                    );
                    let yu = self.model.add_continuous(
                        format!("syu_{strip_id}_{seg}"),
                        0.0,
                        ah + 2.0 * pad,
                        0.0,
                    );
                    // Extension along x is `margin` for horizontal segments and
                    // `margin + w/2` for vertical ones (and vice versa for y):
                    //   ext_x = margin + (w/2)(s_u + s_d)
                    //   ext_y = margin + (w/2)(s_l + s_r)
                    let ext_x =
                        LinExpr::constant_term(margin) + (dirs[0], half_w) + (dirs[1], half_w);
                    let ext_y =
                        LinExpr::constant_term(margin) + (dirs[2], half_w) + (dirs[3], half_w);
                    // xl <= min(x0, x1) - ext_x, xr >= max(x0, x1) + ext_x ...
                    self.model
                        .add_le_expr(LinExpr::from(xl), LinExpr::from(x0) - ext_x.clone());
                    self.model
                        .add_le_expr(LinExpr::from(xl), LinExpr::from(x1) - ext_x.clone());
                    self.model
                        .add_ge_expr(LinExpr::from(xr), LinExpr::from(x0) + ext_x.clone());
                    self.model
                        .add_ge_expr(LinExpr::from(xr), LinExpr::from(x1) + ext_x);
                    self.model
                        .add_le_expr(LinExpr::from(yd), LinExpr::from(y0) - ext_y.clone());
                    self.model
                        .add_le_expr(LinExpr::from(yd), LinExpr::from(y1) - ext_y.clone());
                    self.model
                        .add_ge_expr(LinExpr::from(yu), LinExpr::from(y0) + ext_y.clone());
                    self.model
                        .add_ge_expr(LinExpr::from(yu), LinExpr::from(y1) + ext_y);
                    BoxRef::Vars(BoxVars { xl, xr, yd, yu })
                } else {
                    // Fixed strip: constant segment box from the base layout.
                    let segments = self.base.strip_segments(self.netlist, strip_id);
                    let segment = segments.get(seg).ok_or_else(|| {
                        IlpError::MissingBase(format!("{strip_id} segment {seg}"))
                    })?;
                    BoxRef::Fixed(segment.bounding_box(margin))
                }
            }
        };
        self.overlap_cache.insert(object, b);
        Ok(b)
    }

    fn box_side_exprs(&self, b: BoxRef) -> (LinExpr, LinExpr, LinExpr, LinExpr) {
        match b {
            BoxRef::Vars(v) => (
                LinExpr::from(v.xl),
                LinExpr::from(v.xr),
                LinExpr::from(v.yd),
                LinExpr::from(v.yu),
            ),
            BoxRef::Fixed(r) => (
                LinExpr::constant_term(r.min.x),
                LinExpr::constant_term(r.max.x),
                LinExpr::constant_term(r.min.y),
                LinExpr::constant_term(r.max.y),
            ),
        }
    }

    /// Appends non-overlap constraints (16)–(20) for the given pairs to the
    /// existing model, with the Phase-1 slack relaxation when enabled.
    /// Already-known and fixed-fixed pairs are skipped; returns how many
    /// pairs were actually added.
    ///
    /// This is the incremental half of the lazy-separation protocol: callers
    /// separate violated pairs from a solution, append them here, then
    /// [`LayoutIlp::solve_warm`] re-solves from the previous basis.
    ///
    /// # Errors
    ///
    /// Returns [`IlpError::UnknownObject`] / [`IlpError::MissingBase`] for
    /// references that cannot be resolved against the netlist or base
    /// layout.
    pub fn add_overlap_pairs(&mut self, pairs: &[PairSpec]) -> Result<usize, IlpError> {
        let m = self.big_m;
        let eta = self.config.weights.eta;
        let mut added = 0usize;
        for &pair in pairs {
            if self.config.overlap_pairs.contains(&pair) {
                continue;
            }
            self.config.overlap_pairs.push(pair);
            let free_a = self.is_free(pair.a);
            let free_b = self.is_free(pair.b);
            if !free_a && !free_b {
                continue;
            }
            let k = self.overlap_serial;
            self.overlap_serial += 1;
            added += 1;
            let box_a = self.box_ref(pair.a)?;
            let box_b = self.box_ref(pair.b)?;
            let (axl, axr, ayd, ayu) = self.box_side_exprs(box_a);
            let (bxl, bxr, byd, byu) = self.box_side_exprs(box_b);

            let u: Vec<VarId> = (0..4)
                .map(|q| self.model.add_binary(format!("ov_{k}_{q}"), 0.0))
                .collect();
            let slack = if self.config.overlap_slack {
                Some(self.model.add_continuous(format!("ovs_{k}"), 0.0, m, eta))
            } else {
                None
            };
            let mut rhs_slack = LinExpr::new();
            if let Some(s) = slack {
                rhs_slack.add_term(s, 1.0);
            }
            // (16): a left of b.
            self.model.add_le_expr(
                axr.clone() - bxl - (u[0], m) - rhs_slack.clone(),
                LinExpr::new(),
            );
            // (17): b above a -> b's bottom above a's top? (paper: y^u_j <= y^d_i)
            self.model.add_le_expr(
                byu - ayd.clone() - (u[1], m) - rhs_slack.clone(),
                LinExpr::new(),
            );
            // (18): b left of a.
            self.model
                .add_le_expr(bxr - axl - (u[2], m) - rhs_slack.clone(), LinExpr::new());
            // (19): a above b.
            self.model
                .add_le_expr(ayu - byd - (u[3], m) - rhs_slack, LinExpr::new());
            // (20): at least one of the four situations holds.
            self.model.add_le(LinExpr::sum(u), 3.0);
        }
        Ok(added)
    }

    fn is_free(&self, object: ObjectId) -> bool {
        match object {
            ObjectId::Device(id) => self.config.free_devices.contains(&id),
            ObjectId::Segment(strip, _) => self.config.free_strips.contains(&strip),
        }
    }

    // --- decoding ----------------------------------------------------------

    /// Decodes a MILP solution into a layout (free objects updated, fixed
    /// objects copied from the base layout).
    fn decode(&self, solution: &MilpSolution) -> Layout {
        let mut layout = self.base.clone();
        layout.area = self.netlist.area();

        for device in self.netlist.devices() {
            if let Some(&(x, y)) = self.device_vars.get(&device.id) {
                layout.placements.insert(
                    device.id,
                    Placement {
                        center: Point::new(solution.value(x), solution.value(y)),
                        rotation: self.rotation_of(device.id),
                    },
                );
            } else if let Some(&(x, y)) = self.junction_vars.get(&device.id) {
                layout.placements.insert(
                    device.id,
                    Placement {
                        center: Point::new(solution.value(x), solution.value(y)),
                        rotation: self.rotation_of(device.id),
                    },
                );
            }
        }

        for (&strip_id, vars) in &self.strip_vars {
            let mut pts: Vec<Point> = Vec::with_capacity(vars.points.len());
            let raw: Vec<Point> = vars
                .points
                .iter()
                .map(|&(x, y)| Point::new(solution.value(x), solution.value(y)))
                .collect();
            pts.push(raw[0]);
            for j in 0..vars.directions.len() {
                let dirs = vars.directions[j];
                let prev = pts[j];
                let next = raw[j + 1];
                let vertical = solution.binary_value(dirs[0]) || solution.binary_value(dirs[1]);
                // Rectify tiny LP round-off by copying the perpendicular
                // coordinate from the previous chain point.
                let p = if vertical {
                    Point::new(prev.x, next.y)
                } else {
                    Point::new(next.x, prev.y)
                };
                pts.push(p);
            }
            if let Ok(route) = Polyline::new(pts) {
                layout.routes.insert(strip_id, route);
            }
        }

        layout
    }
}

/// The largest bend count among the strips `config` keeps fixed at their
/// `base` routes: the floor of the model's `n_b,max` term.
pub(crate) fn fixed_bend_floor(netlist: &Netlist, config: &IlpConfig, base: &Layout) -> usize {
    netlist
        .microstrips()
        .iter()
        .filter(|strip| !config.free_strips.contains(&strip.id))
        .map(|strip| base.bend_count(strip.id))
        .max()
        .unwrap_or(0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rfic_netlist::benchmarks;
    use std::time::Duration;

    fn base_from_witness(circuit: &rfic_netlist::generator::GeneratedCircuit) -> Layout {
        Layout {
            area: circuit.netlist.area(),
            placements: circuit
                .witness
                .placements
                .iter()
                .map(|(&id, &(c, r))| {
                    (
                        id,
                        Placement {
                            center: c,
                            rotation: r,
                        },
                    )
                })
                .collect(),
            routes: circuit.witness.routes.clone(),
        }
    }

    fn opts() -> SolveOptions {
        SolveOptions::with_time_limit(Duration::from_secs(20))
    }

    #[test]
    fn single_strip_reroute_matches_exact_length() {
        let circuit = benchmarks::tiny_circuit();
        let netlist = &circuit.netlist;
        let base = base_from_witness(&circuit);
        // Pick the strip with the most bends in the witness and re-route it.
        let strip = netlist
            .microstrips()
            .iter()
            .max_by_key(|m| base.bend_count(m.id))
            .unwrap()
            .id;
        let mut config = IlpConfig::single_strip(strip);
        config.chain_points.insert(strip, 6);
        let ilp = LayoutIlp::build(netlist, config, &base).expect("build");
        assert!(ilp.num_vars() > 0);
        assert!(ilp.num_integer_vars() > 0);
        let outcome = ilp.solve(&opts()).expect("solve");
        let achieved = outcome
            .layout
            .equivalent_length(netlist, strip)
            .expect("routed");
        let target = netlist.microstrip(strip).unwrap().target_length;
        assert!(
            (achieved - target).abs() < 1e-3,
            "exact length: {achieved} vs {target}"
        );
        // The optimiser should never do worse than the witness meander.
        assert!(outcome.layout.bend_count(strip) <= base.bend_count(strip));
        // Endpoints still on the pins.
        let m = netlist.microstrip(strip).unwrap();
        let route = outcome.layout.route(strip).unwrap();
        let pin_start = outcome
            .layout
            .pin_position(netlist, m.start.device, m.start.pin)
            .unwrap();
        assert!(route.start().euclidean_distance(pin_start) < 1e-3);
    }

    #[test]
    fn soft_length_mode_reports_deviation_variables() {
        let circuit = benchmarks::tiny_circuit();
        let netlist = &circuit.netlist;
        let base = base_from_witness(&circuit);
        let strip = netlist.microstrips()[0].id;
        let mut config = IlpConfig::single_strip(strip);
        config.hard_length = false;
        let ilp = LayoutIlp::build(netlist, config, &base).expect("build");
        let outcome = ilp.solve(&opts()).expect("solve");
        // Soft mode still converges to (nearly) the target because the
        // deviation weights dominate the bend weights.
        let err = outcome.layout.length_error(netlist, strip).unwrap().abs();
        assert!(err < 5.0, "soft length error {err} µm");
    }

    #[test]
    fn overlap_pair_keeps_strip_away_from_device() {
        let circuit = benchmarks::tiny_circuit();
        let netlist = &circuit.netlist;
        let base = base_from_witness(&circuit);
        let strip = netlist.microstrips()[0].id;
        // Pick a device the strip does not touch as an obstacle.
        let obstacle = netlist
            .devices()
            .iter()
            .find(|d| !netlist.microstrip(strip).unwrap().touches(d.id))
            .map(|d| d.id)
            .expect("tiny circuit has a non-touching device");
        let mut config = IlpConfig::single_strip(strip);
        let n_segments = config.chain_points_for(netlist, strip) - 1;
        for seg in 0..n_segments {
            config.overlap_pairs.push(PairSpec {
                a: ObjectId::Segment(strip, seg),
                b: ObjectId::Device(obstacle),
            });
        }
        let ilp = LayoutIlp::build(netlist, config, &base).expect("build");
        let outcome = ilp.solve(&opts()).expect("solve");
        let outline = outcome.layout.device_outline(netlist, obstacle).unwrap();
        let margin = netlist.tech().expansion_margin();
        for seg in outcome.layout.strip_segments(netlist, strip) {
            let gap = seg.body().gap(&outline);
            assert!(
                gap + 1e-6 >= 2.0 * margin,
                "segment respects the spacing rule (gap {gap})"
            );
        }
    }

    #[test]
    fn blurred_mode_uses_junctions_and_blur_corrections() {
        let circuit = benchmarks::tiny_circuit();
        let netlist = &circuit.netlist;
        let base = Layout::new(netlist.area());
        let mut config = IlpConfig::concurrent(netlist);
        config.blur_devices = true;
        config.hard_length = false;
        config.overlap_slack = true;
        for strip in netlist.microstrips() {
            config.chain_points.insert(strip.id, 3);
        }
        let ilp = LayoutIlp::build(netlist, config, &base).expect("build");
        let outcome = ilp.solve(&opts()).expect("solve");
        // Every device received a junction placement and every strip a route.
        assert!(outcome.layout.is_complete(netlist));
        // Pads must sit on the boundary.
        let (aw, ah) = netlist.area();
        for pad in netlist.pads() {
            let c = outcome.layout.placement(pad.id).unwrap().center;
            let on_boundary = c.x.abs() < 1e-6
                || c.y.abs() < 1e-6
                || (c.x - aw).abs() < 1e-6
                || (c.y - ah).abs() < 1e-6;
            assert!(on_boundary, "pad {} at {c} is on the boundary", pad.id);
        }
    }

    #[test]
    fn fixed_strip_missing_from_base_is_an_error() {
        let circuit = benchmarks::tiny_circuit();
        let netlist = &circuit.netlist;
        let base = Layout::new(netlist.area());
        let strip = netlist.microstrips()[0].id;
        let other = netlist.microstrips()[1].id;
        let mut config = IlpConfig::single_strip(strip);
        // Reference a segment of a strip that is neither free nor in the base.
        config.overlap_pairs.push(PairSpec {
            a: ObjectId::Segment(strip, 0),
            b: ObjectId::Segment(other, 0),
        });
        let err = LayoutIlp::build(netlist, config, &base);
        assert!(matches!(
            err,
            Err(IlpError::MissingBase(_)) | Err(IlpError::Solver(_))
        ));
    }

    #[test]
    fn unknown_strip_is_rejected() {
        let circuit = benchmarks::tiny_circuit();
        let netlist = &circuit.netlist;
        let base = base_from_witness(&circuit);
        let config = IlpConfig::single_strip(MicrostripId(99));
        assert!(matches!(
            LayoutIlp::build(netlist, config, &base),
            Err(IlpError::UnknownObject(_))
        ));
    }

    #[test]
    fn model_size_scales_with_chain_points() {
        let circuit = benchmarks::tiny_circuit();
        let netlist = &circuit.netlist;
        let base = base_from_witness(&circuit);
        let strip = netlist.microstrips()[0].id;
        let mut small = IlpConfig::single_strip(strip);
        small.chain_points.insert(strip, 3);
        let mut large = IlpConfig::single_strip(strip);
        large.chain_points.insert(strip, 7);
        let small_ilp = LayoutIlp::build(netlist, small, &base).unwrap();
        let large_ilp = LayoutIlp::build(netlist, large, &base).unwrap();
        assert!(large_ilp.num_vars() > small_ilp.num_vars());
        assert!(large_ilp.num_constraints() > small_ilp.num_constraints());
        assert!(large_ilp.num_integer_vars() > small_ilp.num_integer_vars());
    }
}
