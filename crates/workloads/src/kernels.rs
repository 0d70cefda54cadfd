//! The per-iteration numerical kernels of the two workloads, factored out so
//! that the hand-coded executor, the compiler-generated executor and the
//! sequential reference implementation all run *exactly* the same arithmetic
//! (and can therefore be checked against each other bit-for-bit).
//!
//! Both kernels have the shape of the paper's loop `L2`:
//!
//! ```fortran
//! FORALL i = 1, N
//!   REDUCE (ADD, y(end_pt1(i)), f(x(end_pt1(i)), x(end_pt2(i))))
//!   REDUCE (ADD, y(end_pt2(i)), g(x(end_pt1(i)), x(end_pt2(i))))
//! END FORALL
//! ```

/// Cost model of one edge/pair iteration in abstract machine "compute units"
/// (used when charging the executor's local arithmetic to the simulator).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EdgeKernelCost {
    /// Units charged per edge / pair iteration.
    pub ops_per_iteration: f64,
}

impl Default for EdgeKernelCost {
    fn default() -> Self {
        // ~20 flops per edge flux evaluation, which keeps the executor
        // compute comparable to its communication on the iPSC/860-like cost
        // model, as in the paper's tables.
        EdgeKernelCost {
            ops_per_iteration: 20.0,
        }
    }
}

/// Euler-style edge flux: given the state values at the two endpoints of an
/// edge, return the flux contributions `(to endpoint 1, to endpoint 2)`.
///
/// The exact expression is a stand-in for the Roe flux of the paper's solver:
/// nonlinear, asymmetric and cheap, with contributions that sum to zero so
/// that a global conservation check is available to the tests.
#[inline]
pub fn edge_flux_kernel(x1: f64, x2: f64) -> (f64, f64) {
    let avg = 0.5 * (x1 + x2);
    let diff = x2 - x1;
    // The upwind-style term weighted by x1 makes the flux depend on edge
    // orientation (like a real Roe flux), while the pair still sums to zero.
    let flux = avg * diff + 0.25 * diff.abs() * x1;
    (flux, -flux)
}

/// Electrostatic pair force magnitude along each axis: given positions and
/// charges of two atoms, return the force contribution on atom 1 (atom 2
/// receives the negation).
#[inline]
pub fn pair_force_kernel(
    p1: (f64, f64, f64),
    p2: (f64, f64, f64),
    q1: f64,
    q2: f64,
) -> (f64, f64, f64) {
    let dx = p1.0 - p2.0;
    let dy = p1.1 - p2.1;
    let dz = p1.2 - p2.2;
    let r2 = (dx * dx + dy * dy + dz * dz).max(1e-12);
    let inv_r3 = 1.0 / (r2 * r2.sqrt());
    let s = q1 * q2 * inv_r3;
    (s * dx, s * dy, s * dz)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn edge_flux_is_antisymmetric_in_its_outputs() {
        let (f1, f2) = edge_flux_kernel(3.0, 5.0);
        assert_eq!(f1, -f2);
        assert_ne!(f1, 0.0);
    }

    #[test]
    fn edge_flux_of_equal_states_is_zero() {
        let (f1, f2) = edge_flux_kernel(2.5, 2.5);
        assert_eq!(f1, 0.0);
        assert_eq!(f2, 0.0);
    }

    #[test]
    fn edge_flux_is_direction_dependent() {
        // Swapping the endpoints does not simply negate the flux (the |diff|
        // term breaks symmetry), mirroring upwinded CFD fluxes.
        let (a, _) = edge_flux_kernel(1.0, 4.0);
        let (b, _) = edge_flux_kernel(4.0, 1.0);
        assert_ne!(a, -b);
    }

    #[test]
    fn pair_force_is_newtons_third_law_compatible() {
        let f12 = pair_force_kernel((0.0, 0.0, 0.0), (1.0, 2.0, 2.0), -0.8, 0.4);
        let f21 = pair_force_kernel((1.0, 2.0, 2.0), (0.0, 0.0, 0.0), 0.4, -0.8);
        assert!((f12.0 + f21.0).abs() < 1e-12);
        assert!((f12.1 + f21.1).abs() < 1e-12);
        assert!((f12.2 + f21.2).abs() < 1e-12);
    }

    #[test]
    fn opposite_charges_attract() {
        let f = pair_force_kernel((0.0, 0.0, 0.0), (1.0, 0.0, 0.0), -1.0, 1.0);
        // Force on atom 1 points towards atom 2 (+x).
        assert!(f.0 > 0.0);
    }

    #[test]
    fn coincident_atoms_do_not_blow_up() {
        let f = pair_force_kernel((0.5, 0.5, 0.5), (0.5, 0.5, 0.5), 1.0, 1.0);
        assert!(f.0.is_finite() && f.1.is_finite() && f.2.is_finite());
    }

    #[test]
    fn default_cost_is_positive() {
        assert!(EdgeKernelCost::default().ops_per_iteration > 0.0);
    }
}
