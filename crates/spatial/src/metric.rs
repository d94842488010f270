//! Distance metrics.
//!
//! DBSCAN's eps-neighborhood is defined by a metric; the paper (like the
//! original Ester et al. formulation) uses Euclidean distance. We keep the
//! squared form on the hot path to avoid `sqrt` per candidate and only
//! compare against `eps^2`.

/// A distance metric over equal-length coordinate slices.
///
/// Implementations must satisfy the metric axioms for the exact kd-tree
/// query logic to remain correct (in particular the coordinate-plane
/// pruning bound must be a lower bound on the true distance).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Metric {
    /// Standard L2 distance (the paper's metric).
    #[default]
    Euclidean,
    /// L1 (city-block) distance.
    Manhattan,
    /// L∞ (maximum coordinate difference) distance.
    Chebyshev,
}

impl Metric {
    /// Distance between `a` and `b`.
    #[inline]
    pub fn distance(self, a: &[f64], b: &[f64]) -> f64 {
        match self {
            Metric::Euclidean => euclidean(a, b),
            Metric::Manhattan => manhattan(a, b),
            Metric::Chebyshev => chebyshev(a, b),
        }
    }

    /// A monotone transform of the distance that is cheaper to compute,
    /// paired with [`Metric::threshold`] for comparisons.
    ///
    /// For Euclidean this is the *squared* distance; for the others it is
    /// the distance itself. Dispatches to a dimension-monomorphized kernel
    /// for small `d` (see [`crate::kernel`]); the result is bit-identical
    /// to the generic loop either way.
    #[inline]
    pub fn reduced_distance(self, a: &[f64], b: &[f64]) -> f64 {
        crate::kernel::reduced_distance_dispatch(self, a, b)
    }

    /// Transform a radius into the reduced-distance space of
    /// [`Metric::reduced_distance`].
    #[inline]
    pub fn threshold(self, eps: f64) -> f64 {
        match self {
            Metric::Euclidean => eps * eps,
            _ => eps,
        }
    }

    /// Lower bound on the distance contributed by a single coordinate
    /// difference `delta`, in reduced-distance space. Used by the kd-tree
    /// to decide whether the far child can contain matches.
    #[inline]
    pub fn axis_bound(self, delta: f64) -> f64 {
        match self {
            Metric::Euclidean => delta * delta,
            Metric::Manhattan | Metric::Chebyshev => delta.abs(),
        }
    }
}

/// Squared Euclidean distance. The hot-path kernel: branch-free and
/// auto-vectorizable for fixed small `d`.
#[inline]
pub fn squared_euclidean(a: &[f64], b: &[f64]) -> f64 {
    debug_assert_eq!(a.len(), b.len());
    let mut acc = 0.0;
    for (x, y) in a.iter().zip(b.iter()) {
        let d = x - y;
        acc += d * d;
    }
    acc
}

/// Euclidean (L2) distance.
#[inline]
pub fn euclidean(a: &[f64], b: &[f64]) -> f64 {
    squared_euclidean(a, b).sqrt()
}

/// Manhattan (L1) distance.
#[inline]
pub fn manhattan(a: &[f64], b: &[f64]) -> f64 {
    debug_assert_eq!(a.len(), b.len());
    a.iter().zip(b.iter()).map(|(x, y)| (x - y).abs()).sum()
}

/// Chebyshev (L∞) distance. A NaN coordinate difference makes the
/// distance NaN, as it does for the other metrics, so a row with a NaN
/// coordinate is never within any radius.
#[inline]
pub fn chebyshev(a: &[f64], b: &[f64]) -> f64 {
    debug_assert_eq!(a.len(), b.len());
    a.iter().zip(b.iter()).map(|(x, y)| (x - y).abs()).fold(0.0, nan_max)
}

/// The larger of `acc` and `v`, NaN when either is: the Chebyshev step.
/// Unlike `f64::max`, which skips a NaN operand, a NaN stays once met.
#[inline(always)]
pub(crate) fn nan_max(acc: f64, v: f64) -> f64 {
    if v > acc || v.is_nan() {
        v
    } else {
        acc
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const A: [f64; 3] = [1.0, 2.0, 3.0];
    const B: [f64; 3] = [4.0, 6.0, 3.0];

    #[test]
    fn euclidean_matches_hand_computation() {
        assert_eq!(squared_euclidean(&A, &B), 9.0 + 16.0);
        assert!((euclidean(&A, &B) - 5.0).abs() < 1e-12);
    }

    #[test]
    fn manhattan_matches_hand_computation() {
        assert_eq!(manhattan(&A, &B), 7.0);
    }

    #[test]
    fn chebyshev_matches_hand_computation() {
        assert_eq!(chebyshev(&A, &B), 4.0);
    }

    #[test]
    fn zero_distance_to_self() {
        for m in [Metric::Euclidean, Metric::Manhattan, Metric::Chebyshev] {
            assert_eq!(m.distance(&A, &A), 0.0);
            assert_eq!(m.reduced_distance(&A, &A), 0.0);
        }
    }

    #[test]
    fn reduced_distance_is_consistent_with_threshold() {
        for m in [Metric::Euclidean, Metric::Manhattan, Metric::Chebyshev] {
            let d = m.distance(&A, &B);
            let rd = m.reduced_distance(&A, &B);
            // point is within radius d+tiny, outside radius d-tiny
            assert!(rd <= m.threshold(d + 1e-9));
            assert!(rd > m.threshold(d - 1e-9));
        }
    }

    #[test]
    fn symmetry() {
        for m in [Metric::Euclidean, Metric::Manhattan, Metric::Chebyshev] {
            assert_eq!(m.distance(&A, &B), m.distance(&B, &A));
        }
    }

    #[test]
    fn axis_bound_is_lower_bound() {
        for m in [Metric::Euclidean, Metric::Manhattan, Metric::Chebyshev] {
            // the distance contributed by axis 0 alone never exceeds total
            let delta = A[0] - B[0];
            assert!(m.axis_bound(delta) <= m.reduced_distance(&A, &B) + 1e-12);
        }
    }

    #[test]
    fn chebyshev_is_nan_when_any_coordinate_is() {
        // a NaN before, between and after finite differences, and next
        // to an infinite one
        for (a, b) in [
            ([f64::NAN, 0.0, 0.0], [0.0, 5.0, 1.0]),
            ([0.0, f64::NAN, 0.0], [3.0, 0.0, 1.0]),
            ([0.0, 0.0, f64::NAN], [3.0, 5.0, 0.0]),
            ([f64::INFINITY, 0.0, 0.0], [0.0, f64::NAN, 1.0]),
        ] {
            assert!(chebyshev(&a, &b).is_nan(), "{a:?} {b:?}");
            assert!(Metric::Chebyshev.reduced_distance(&a, &b).is_nan(), "{a:?} {b:?}");
        }
        assert_eq!(chebyshev(&[f64::INFINITY, 0.0], &[0.0, 1.0]), f64::INFINITY);
    }

    #[test]
    fn empty_slices_have_zero_distance() {
        assert_eq!(squared_euclidean(&[], &[]), 0.0);
        assert_eq!(manhattan(&[], &[]), 0.0);
        assert_eq!(chebyshev(&[], &[]), 0.0);
    }
}
