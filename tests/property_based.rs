//! Property-based tests of the core data structures and solvers.

use proptest::prelude::*;
use rfic_layout::geom::{equivalent_length, Point, Polyline, Rect, Rotation};
use rfic_layout::lp::{ConstraintOp, LinearProgram, Sense};
use rfic_layout::milp::{LinExpr, Model, SolveOptions, VarKind};

fn rect_strategy() -> impl Strategy<Value = Rect> {
    (
        -500.0f64..500.0,
        -500.0f64..500.0,
        1.0f64..300.0,
        1.0f64..300.0,
    )
        .prop_map(|(x, y, w, h)| Rect::from_origin_size(Point::new(x, y), w, h))
}

fn rectilinear_polyline_strategy() -> impl Strategy<Value = Polyline> {
    (
        (-200.0f64..200.0, -200.0f64..200.0),
        proptest::collection::vec((-80.0f64..80.0, prop::bool::ANY), 1..8),
    )
        .prop_map(|((x0, y0), steps)| {
            let mut pts = vec![Point::new(x0, y0)];
            for (delta, horizontal) in steps {
                let last = *pts.last().unwrap();
                let next = if horizontal {
                    Point::new(last.x + delta, last.y)
                } else {
                    Point::new(last.x, last.y + delta)
                };
                pts.push(next);
            }
            Polyline::new(pts).expect("constructed rectilinear")
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Expanding by `t` then measuring the gap is equivalent to requiring a
    /// `2t` gap between the original rectangles (the paper's spacing rule).
    #[test]
    fn expanded_boxes_overlap_iff_gap_below_spacing(a in rect_strategy(), b in rect_strategy(), t in 1.0f64..20.0) {
        let overlap = a.expanded(t).overlaps(&b.expanded(t));
        let gap = a.gap(&b);
        if overlap {
            prop_assert!(gap < 2.0 * t + 1e-9);
        } else {
            prop_assert!(gap + 1e-9 >= 2.0 * t);
        }
    }

    /// Union contains both rectangles; intersection (when it exists) is
    /// contained in both.
    #[test]
    fn union_and_intersection_are_consistent(a in rect_strategy(), b in rect_strategy()) {
        let u = a.union(&b);
        prop_assert!(u.contains_rect(&a) && u.contains_rect(&b));
        if let Some(i) = a.intersection(&b) {
            prop_assert!(a.expanded(1e-9).contains_rect(&i));
            prop_assert!(b.expanded(1e-9).contains_rect(&i));
            prop_assert!(i.area() <= a.area().min(b.area()) + 1e-6);
        }
    }

    /// Rotations preserve lengths and compose like the cyclic group C4.
    #[test]
    fn rotations_preserve_norm_and_compose(x in -100.0f64..100.0, y in -100.0f64..100.0, q1 in 0u8..4, q2 in 0u8..4) {
        let p = Point::new(x, y);
        let r1 = Rotation::from_quarter_turns(q1);
        let r2 = Rotation::from_quarter_turns(q2);
        let rotated = r1.apply(p);
        prop_assert!((rotated.euclidean_distance(Point::ORIGIN) - p.euclidean_distance(Point::ORIGIN)).abs() < 1e-9);
        let composed = r1.compose(r2).apply(p);
        let sequential = r1.apply(r2.apply(p));
        prop_assert!(composed.approx_eq(sequential));
        prop_assert!(r1.inverse().apply(rotated).approx_eq(p));
    }

    /// Simplification never changes geometric length, bend count or
    /// endpoints, and never increases the number of chain points.
    #[test]
    fn polyline_simplification_is_conservative(route in rectilinear_polyline_strategy()) {
        let s = route.simplified();
        prop_assert!((s.geometric_length() - route.geometric_length()).abs() < 1e-9);
        prop_assert_eq!(s.bend_count(), route.bend_count());
        prop_assert!(s.num_chain_points() <= route.num_chain_points());
        prop_assert!(s.start().approx_eq(route.start()));
        prop_assert!(s.end().approx_eq(route.end()));
    }

    /// The equivalent length equals the geometric length plus δ per bend.
    #[test]
    fn equivalent_length_identity(route in rectilinear_polyline_strategy(), delta in -5.0f64..5.0) {
        let expected = route.geometric_length() + delta * route.bend_count() as f64;
        prop_assert!((equivalent_length(&route, delta) - expected).abs() < 1e-9);
    }

    /// LP solutions are feasible and at least as good as any sampled
    /// feasible point (local optimality sanity check).
    #[test]
    fn lp_solution_dominates_random_feasible_points(
        c0 in 0.1f64..5.0,
        c1 in 0.1f64..5.0,
        cap in 5.0f64..50.0,
        bound in 1.0f64..20.0,
    ) {
        let mut lp = LinearProgram::new(2, Sense::Maximize);
        lp.set_objective_coeff(0, c0);
        lp.set_objective_coeff(1, c1);
        lp.set_bounds(0, 0.0, bound);
        lp.set_bounds(1, 0.0, bound);
        lp.add_constraint(vec![(0, 1.0), (1, 2.0)], ConstraintOp::Le, cap);
        let solution = lp.solve().expect("feasible");
        // Feasibility of the reported solution.
        prop_assert!(solution.values[0] >= -1e-7 && solution.values[0] <= bound + 1e-7);
        prop_assert!(solution.values[0] + 2.0 * solution.values[1] <= cap + 1e-6);
        // No sampled feasible point beats it.
        for i in 0..10 {
            let x = bound * i as f64 / 10.0;
            let y = ((cap - x) / 2.0).clamp(0.0, bound);
            let feasible = x <= bound && y >= 0.0 && x + 2.0 * y <= cap + 1e-9;
            if feasible {
                let obj = c0 * x + c1 * y;
                prop_assert!(obj <= solution.objective + 1e-6);
            }
        }
    }

    /// Branch and bound matches exhaustive enumeration on tiny knapsacks.
    #[test]
    fn milp_matches_brute_force_on_small_knapsacks(
        values in proptest::collection::vec(1.0f64..20.0, 3..7),
        weights in proptest::collection::vec(1.0f64..10.0, 3..7),
        cap_frac in 0.2f64..0.9,
    ) {
        let n = values.len().min(weights.len());
        let values = &values[..n];
        let weights = &weights[..n];
        let capacity = weights.iter().sum::<f64>() * cap_frac;

        let mut model = Model::new(Sense::Maximize);
        let mut cap_expr = LinExpr::new();
        let vars: Vec<_> = (0..n)
            .map(|i| {
                let v = model.add_var(VarKind::Binary, 0.0, 1.0, values[i]);
                cap_expr.add_term(v, weights[i]);
                v
            })
            .collect();
        model.add_le(cap_expr, capacity);
        let solution = model.solve(&SolveOptions::default()).expect("solvable");

        // Exhaustive enumeration.
        let mut best = 0.0f64;
        for mask in 0u32..(1 << n) {
            let weight: f64 = (0..n).filter(|i| mask & (1 << i) != 0).map(|i| weights[i]).sum();
            if weight <= capacity + 1e-9 {
                let value: f64 = (0..n).filter(|i| mask & (1 << i) != 0).map(|i| values[i]).sum();
                best = best.max(value);
            }
        }
        prop_assert!((solution.objective - best).abs() < 1e-6,
            "solver {} vs brute force {}", solution.objective, best);
        let _ = vars;
    }
}
