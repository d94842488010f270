//! The shared point matrix.
//!
//! In the paper, the driver reads the input from HDFS, turns it into RDDs
//! of `Point`, and *broadcasts* the full dataset (together with the
//! kd-tree) to every executor so each can compute exact eps-neighborhoods
//! locally. `Dataset` is that broadcastable value: a dense row-major
//! `n x d` matrix behind an `Arc` so broadcasting is a refcount bump in
//! our in-process cluster while the engine still accounts its logical
//! size in bytes.

use crate::point::PointId;
use serde::{Deserialize, Serialize};

/// A dense, row-major collection of `n` points in `d` dimensions.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Dataset {
    dim: usize,
    coords: Vec<f64>,
}

/// Why a coordinate buffer or a row list cannot become a [`Dataset`].
/// Non-finite coordinates are not an error: they are data (a NaN or
/// infinite point is within `eps` of nothing).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DatasetError {
    /// No rows, so no dimension to infer (use [`Dataset::empty`]).
    NoRows,
    /// A point of no coordinates: `dim == 0`, or an empty first row.
    ZeroDim,
    /// Row `row` has `len` coordinates where the first row has `dim`.
    RaggedRow { row: usize, len: usize, dim: usize },
    /// A flat buffer of `len` values is not whole rows of `dim`.
    RaggedBuffer { len: usize, dim: usize },
}

impl std::fmt::Display for DatasetError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DatasetError::NoRows => write!(f, "use Dataset::empty(dim) for empty data"),
            DatasetError::ZeroDim => {
                write!(f, "dimension must be positive: points must have at least one coordinate")
            }
            DatasetError::RaggedRow { row, len, dim } => {
                write!(f, "row {row} has dimension {len} != {dim}")
            }
            DatasetError::RaggedBuffer { len, dim } => {
                write!(f, "coordinate buffer length {len} is not a multiple of dim {dim}")
            }
        }
    }
}

impl std::error::Error for DatasetError {}

impl Dataset {
    /// Create a dataset from a flat row-major coordinate buffer.
    ///
    /// # Panics
    /// Panics with the [`DatasetError`] of [`Dataset::try_from_flat`].
    pub fn from_flat(dim: usize, coords: Vec<f64>) -> Self {
        Self::try_from_flat(dim, coords).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Create a dataset from a flat row-major coordinate buffer, or say
    /// why it is not one: `dim == 0`, or a length that is not a multiple
    /// of `dim`.
    pub fn try_from_flat(dim: usize, coords: Vec<f64>) -> Result<Self, DatasetError> {
        if dim == 0 {
            return Err(DatasetError::ZeroDim);
        }
        if !coords.len().is_multiple_of(dim) {
            return Err(DatasetError::RaggedBuffer { len: coords.len(), dim });
        }
        Ok(Dataset { dim, coords })
    }

    /// Create a dataset from per-point rows.
    ///
    /// # Panics
    /// Panics with the [`DatasetError`] of [`Dataset::try_from_rows`].
    pub fn from_rows(rows: Vec<Vec<f64>>) -> Self {
        Self::try_from_rows(rows).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Create a dataset from per-point rows, or say why they are not
    /// one: no rows (use [`Dataset::empty`]), an empty first row, or a
    /// row whose length differs from the first's.
    pub fn try_from_rows(rows: Vec<Vec<f64>>) -> Result<Self, DatasetError> {
        let dim = rows.first().ok_or(DatasetError::NoRows)?.len();
        if dim == 0 {
            return Err(DatasetError::ZeroDim);
        }
        let mut coords = Vec::with_capacity(rows.len() * dim);
        for (row, r) in rows.iter().enumerate() {
            if r.len() != dim {
                return Err(DatasetError::RaggedRow { row, len: r.len(), dim });
            }
            coords.extend_from_slice(r);
        }
        Ok(Dataset { dim, coords })
    }

    /// An empty dataset of the given dimensionality.
    pub fn empty(dim: usize) -> Self {
        assert!(dim > 0, "dimension must be positive");
        Dataset { dim, coords: Vec::new() }
    }

    /// Number of points.
    #[inline]
    pub fn len(&self) -> usize {
        self.coords.len() / self.dim
    }

    /// Whether the dataset holds no points.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.coords.is_empty()
    }

    /// Dimensionality of every point.
    #[inline]
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Coordinates of point `id`.
    #[inline]
    pub fn point(&self, id: PointId) -> &[f64] {
        let i = id.idx();
        &self.coords[i * self.dim..(i + 1) * self.dim]
    }

    /// Coordinates of the point at raw index `i`.
    #[inline]
    pub fn row(&self, i: usize) -> &[f64] {
        &self.coords[i * self.dim..(i + 1) * self.dim]
    }

    /// The raw coordinate buffer (row-major).
    #[inline]
    pub fn flat(&self) -> &[f64] {
        &self.coords
    }

    /// Iterator over `(PointId, coords)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (PointId, &[f64])> {
        self.coords.chunks_exact(self.dim).enumerate().map(|(i, c)| (PointId(i as u32), c))
    }

    /// All point ids, in index order.
    pub fn ids(&self) -> impl Iterator<Item = PointId> {
        (0..self.len() as u32).map(PointId)
    }

    /// Append one point, returning its new id.
    ///
    /// # Panics
    /// Panics if `coords.len() != self.dim()`.
    pub fn push(&mut self, coords: &[f64]) -> PointId {
        assert_eq!(coords.len(), self.dim, "pushed point has wrong dimension");
        let id = PointId(self.len() as u32);
        self.coords.extend_from_slice(coords);
        id
    }

    /// Logical size in bytes (what a real cluster would ship when
    /// broadcasting this dataset).
    pub fn size_bytes(&self) -> usize {
        self.coords.len() * std::mem::size_of::<f64>() + std::mem::size_of::<Self>()
    }

    /// Axis-aligned bounding box of all points, or `None` when empty.
    pub fn bounds(&self) -> Option<(Vec<f64>, Vec<f64>)> {
        if self.is_empty() {
            return None;
        }
        let mut lo = self.row(0).to_vec();
        let mut hi = lo.clone();
        for r in self.coords.chunks_exact(self.dim).skip(1) {
            for (k, &v) in r.iter().enumerate() {
                if v < lo[k] {
                    lo[k] = v;
                }
                if v > hi[k] {
                    hi[k] = v;
                }
            }
        }
        Some((lo, hi))
    }
}

/// 3-d rows with NaN, ±inf and both signed zeros mixed into finite
/// coordinates: hostile input for the tree builders' median selection.
#[cfg(test)]
pub(crate) fn non_finite_rows(n: usize) -> Vec<Vec<f64>> {
    let coord = |i: usize, k: usize| match (i * 3 + k) % 11 {
        0 => f64::NAN,
        1 => f64::INFINITY,
        2 => f64::NEG_INFINITY,
        3 => -0.0,
        4 => 0.0,
        _ => ((i * 31 + k * 7) % 17) as f64,
    };
    (0..n).map(|i| (0..3).map(|k| coord(i, k)).collect()).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> Dataset {
        Dataset::from_rows(vec![vec![0.0, 0.0], vec![1.0, 2.0], vec![-3.0, 4.0]])
    }

    #[test]
    fn from_rows_basic_accessors() {
        let ds = small();
        assert_eq!(ds.len(), 3);
        assert_eq!(ds.dim(), 2);
        assert!(!ds.is_empty());
        assert_eq!(ds.point(PointId(1)), &[1.0, 2.0]);
        assert_eq!(ds.row(2), &[-3.0, 4.0]);
    }

    #[test]
    fn from_flat_matches_from_rows() {
        let a = Dataset::from_flat(2, vec![0.0, 0.0, 1.0, 2.0, -3.0, 4.0]);
        assert_eq!(a, small());
    }

    #[test]
    #[should_panic(expected = "not a multiple")]
    fn from_flat_rejects_ragged_buffer() {
        let _ = Dataset::from_flat(2, vec![1.0, 2.0, 3.0]);
    }

    #[test]
    #[should_panic(expected = "dimension")]
    fn from_rows_rejects_ragged_rows() {
        let _ = Dataset::from_rows(vec![vec![1.0], vec![1.0, 2.0]]);
    }

    #[test]
    fn try_from_rows_reports_a_ragged_row() {
        let err = Dataset::try_from_rows(vec![vec![1.0, 2.0], vec![3.0, 4.0], vec![5.0]]);
        assert_eq!(err, Err(DatasetError::RaggedRow { row: 2, len: 1, dim: 2 }));
    }

    #[test]
    fn try_from_rows_reports_no_rows() {
        assert_eq!(Dataset::try_from_rows(Vec::new()), Err(DatasetError::NoRows));
    }

    #[test]
    fn try_constructors_report_zero_dim() {
        assert_eq!(Dataset::try_from_rows(vec![vec![], vec![]]), Err(DatasetError::ZeroDim));
        assert_eq!(Dataset::try_from_flat(0, Vec::new()), Err(DatasetError::ZeroDim));
    }

    #[test]
    fn try_from_flat_reports_a_ragged_buffer() {
        let err = Dataset::try_from_flat(3, vec![1.0; 7]);
        assert_eq!(err, Err(DatasetError::RaggedBuffer { len: 7, dim: 3 }));
    }

    #[test]
    fn try_constructors_accept_non_finite_coordinates() {
        let rows = vec![vec![f64::NAN, 1.0], vec![f64::INFINITY, f64::NEG_INFINITY]];
        let ds = Dataset::try_from_rows(rows).expect("non-finite coordinates are data");
        assert!(ds.row(0)[0].is_nan());
        let flat = Dataset::try_from_flat(2, ds.flat().to_vec()).expect("same buffer");
        assert_eq!(flat.len(), 2);
    }

    #[test]
    fn empty_dataset() {
        let ds = Dataset::empty(5);
        assert_eq!(ds.len(), 0);
        assert!(ds.is_empty());
        assert_eq!(ds.dim(), 5);
        assert!(ds.bounds().is_none());
    }

    #[test]
    fn iter_yields_ids_in_order() {
        let ds = small();
        let ids: Vec<u32> = ds.iter().map(|(id, _)| id.0).collect();
        assert_eq!(ids, vec![0, 1, 2]);
        let ids2: Vec<PointId> = ds.ids().collect();
        assert_eq!(ids2.len(), 3);
    }

    #[test]
    fn push_appends_and_returns_id() {
        let mut ds = small();
        let id = ds.push(&[9.0, 9.0]);
        assert_eq!(id, PointId(3));
        assert_eq!(ds.len(), 4);
        assert_eq!(ds.point(id), &[9.0, 9.0]);
    }

    #[test]
    fn bounds_cover_all_points() {
        let ds = small();
        let (lo, hi) = ds.bounds().unwrap();
        assert_eq!(lo, vec![-3.0, 0.0]);
        assert_eq!(hi, vec![1.0, 4.0]);
    }

    #[test]
    fn size_bytes_scales_with_points() {
        let ds = small();
        assert!(ds.size_bytes() >= 6 * 8);
    }

    #[test]
    fn serde_roundtrip() {
        let ds = small();
        let json = serde_json::to_string(&ds).unwrap();
        let back: Dataset = serde_json::from_str(&json).unwrap();
        assert_eq!(ds, back);
    }
}
