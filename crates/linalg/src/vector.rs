//! Dense, heap-allocated `f64` vectors.

use std::fmt;
use std::ops::{Add, AddAssign, Index, IndexMut, Mul, Neg, Sub, SubAssign};

/// A dense column vector of `f64` values.
///
/// `DVector` is a thin wrapper around `Vec<f64>` that adds the numerical
/// operations needed by the interior-point solver (dot products, norms, axpy
/// updates) while keeping indexing and iteration as cheap as on a plain
/// slice.
///
/// # Example
///
/// ```
/// use bbs_linalg::DVector;
///
/// let x = DVector::from_slice(&[1.0, 2.0, 3.0]);
/// let y = DVector::from_slice(&[4.0, 5.0, 6.0]);
/// assert_eq!(x.dot(&y), 32.0);
/// assert_eq!((&x + &y).as_slice(), &[5.0, 7.0, 9.0]);
/// ```
#[derive(Clone, PartialEq, Default)]
pub struct DVector {
    data: Vec<f64>,
}

impl DVector {
    /// Creates a vector of `len` zeros.
    pub fn zeros(len: usize) -> Self {
        Self {
            data: vec![0.0; len],
        }
    }

    /// Creates a vector of `len` copies of `value`.
    pub fn filled(len: usize, value: f64) -> Self {
        Self {
            data: vec![value; len],
        }
    }

    /// Creates a vector from a slice.
    pub fn from_slice(values: &[f64]) -> Self {
        Self {
            data: values.to_vec(),
        }
    }

    /// Creates a vector from an owned `Vec<f64>` without copying.
    pub fn from_vec(values: Vec<f64>) -> Self {
        Self { data: values }
    }

    /// Number of elements.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// Returns `true` when the vector has no elements.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Borrow the elements as a slice.
    pub fn as_slice(&self) -> &[f64] {
        &self.data
    }

    /// Borrow the elements as a mutable slice.
    pub fn as_mut_slice(&mut self) -> &mut [f64] {
        &mut self.data
    }

    /// Consumes the vector and returns the underlying storage.
    pub fn into_vec(self) -> Vec<f64> {
        self.data
    }

    /// Iterator over the elements.
    pub fn iter(&self) -> std::slice::Iter<'_, f64> {
        self.data.iter()
    }

    /// Mutable iterator over the elements.
    pub fn iter_mut(&mut self) -> std::slice::IterMut<'_, f64> {
        self.data.iter_mut()
    }

    /// Dot product with another vector.
    ///
    /// # Panics
    ///
    /// Panics if the lengths differ.
    pub fn dot(&self, other: &Self) -> f64 {
        assert_eq!(self.len(), other.len(), "dot: length mismatch");
        self.data
            .iter()
            .zip(other.data.iter())
            .map(|(a, b)| a * b)
            .sum()
    }

    /// Euclidean norm.
    pub fn norm2(&self) -> f64 {
        self.dot(self).sqrt()
    }

    /// Infinity norm (maximum absolute value); `0.0` for the empty vector.
    pub fn norm_inf(&self) -> f64 {
        self.data.iter().fold(0.0_f64, |m, v| m.max(v.abs()))
    }

    /// Sum of all elements.
    pub fn sum(&self) -> f64 {
        self.data.iter().sum()
    }

    /// In-place `self += alpha * x` (the BLAS `axpy` update).
    ///
    /// # Panics
    ///
    /// Panics if the lengths differ.
    pub fn axpy(&mut self, alpha: f64, x: &Self) {
        assert_eq!(self.len(), x.len(), "axpy: length mismatch");
        for (s, &v) in self.data.iter_mut().zip(x.data.iter()) {
            *s += alpha * v;
        }
    }

    /// Returns `true` if all entries are finite.
    pub fn is_finite(&self) -> bool {
        self.data.iter().all(|v| v.is_finite())
    }
}

impl fmt::Debug for DVector {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_tuple("DVector").field(&self.data).finish()
    }
}

impl fmt::Display for DVector {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[")?;
        for (i, v) in self.data.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{v:.6}")?;
        }
        write!(f, "]")
    }
}

impl Index<usize> for DVector {
    type Output = f64;
    fn index(&self, index: usize) -> &f64 {
        &self.data[index]
    }
}

impl IndexMut<usize> for DVector {
    fn index_mut(&mut self, index: usize) -> &mut f64 {
        &mut self.data[index]
    }
}

impl From<Vec<f64>> for DVector {
    fn from(values: Vec<f64>) -> Self {
        Self::from_vec(values)
    }
}

impl FromIterator<f64> for DVector {
    fn from_iter<I: IntoIterator<Item = f64>>(iter: I) -> Self {
        Self::from_vec(iter.into_iter().collect())
    }
}

impl<'a> IntoIterator for &'a DVector {
    type Item = &'a f64;
    type IntoIter = std::slice::Iter<'a, f64>;
    fn into_iter(self) -> Self::IntoIter {
        self.data.iter()
    }
}

impl Add for &DVector {
    type Output = DVector;
    fn add(self, rhs: &DVector) -> DVector {
        assert_eq!(self.len(), rhs.len(), "add: length mismatch");
        DVector::from_vec(
            self.data
                .iter()
                .zip(rhs.data.iter())
                .map(|(a, b)| a + b)
                .collect(),
        )
    }
}

impl Sub for &DVector {
    type Output = DVector;
    fn sub(self, rhs: &DVector) -> DVector {
        assert_eq!(self.len(), rhs.len(), "sub: length mismatch");
        DVector::from_vec(
            self.data
                .iter()
                .zip(rhs.data.iter())
                .map(|(a, b)| a - b)
                .collect(),
        )
    }
}

impl Neg for &DVector {
    type Output = DVector;
    fn neg(self) -> DVector {
        DVector::from_vec(self.data.iter().map(|v| -v).collect())
    }
}

impl Mul<f64> for &DVector {
    type Output = DVector;
    fn mul(self, rhs: f64) -> DVector {
        DVector::from_vec(self.data.iter().map(|v| v * rhs).collect())
    }
}

impl AddAssign<&DVector> for DVector {
    fn add_assign(&mut self, rhs: &DVector) {
        self.axpy(1.0, rhs);
    }
}

impl SubAssign<&DVector> for DVector {
    fn sub_assign(&mut self, rhs: &DVector) {
        self.axpy(-1.0, rhs);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn zeros_and_filled() {
        let z = DVector::zeros(3);
        assert_eq!(z.as_slice(), &[0.0, 0.0, 0.0]);
        let f = DVector::filled(2, 7.5);
        assert_eq!(f.as_slice(), &[7.5, 7.5]);
        assert!(!f.is_empty());
        assert!(DVector::zeros(0).is_empty());
    }

    #[test]
    fn dot_and_norms() {
        let x = DVector::from_slice(&[3.0, -4.0]);
        assert_eq!(x.dot(&x), 25.0);
        assert_eq!(x.norm2(), 5.0);
        assert_eq!(x.norm_inf(), 4.0);
        assert_eq!(x.sum(), -1.0);
    }

    #[test]
    fn axpy_updates_in_place() {
        let mut y = DVector::from_slice(&[1.0, 1.0]);
        let x = DVector::from_slice(&[2.0, -3.0]);
        y.axpy(2.0, &x);
        assert_eq!(y.as_slice(), &[5.0, -5.0]);
    }

    #[test]
    fn arithmetic_operators() {
        let x = DVector::from_slice(&[1.0, 2.0]);
        let y = DVector::from_slice(&[3.0, 5.0]);
        assert_eq!((&x + &y).as_slice(), &[4.0, 7.0]);
        assert_eq!((&y - &x).as_slice(), &[2.0, 3.0]);
        assert_eq!((-&x).as_slice(), &[-1.0, -2.0]);
        assert_eq!((&x * 3.0).as_slice(), &[3.0, 6.0]);
        let mut z = x.clone();
        z += &y;
        assert_eq!(z.as_slice(), &[4.0, 7.0]);
        z -= &y;
        assert_eq!(z.as_slice(), &[1.0, 2.0]);
    }

    #[test]
    fn finite_detection() {
        assert!(DVector::from_slice(&[1.0, -2.0]).is_finite());
        assert!(!DVector::from_slice(&[1.0, f64::NAN]).is_finite());
        assert!(!DVector::from_slice(&[f64::INFINITY]).is_finite());
    }

    #[test]
    fn display_and_debug_nonempty() {
        let x = DVector::from_slice(&[1.0]);
        assert!(!format!("{x}").is_empty());
        assert!(format!("{x:?}").contains("DVector"));
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn dot_length_mismatch_panics() {
        let x = DVector::zeros(2);
        let y = DVector::zeros(3);
        let _ = x.dot(&y);
    }

    #[test]
    fn from_iterator_collects() {
        let x: DVector = (0..4).map(|i| i as f64).collect();
        assert_eq!(x.as_slice(), &[0.0, 1.0, 2.0, 3.0]);
        let total: f64 = (&x).into_iter().sum();
        assert_eq!(total, 6.0);
    }

    proptest! {
        #[test]
        fn prop_dot_commutes(a in proptest::collection::vec(-1e3f64..1e3, 1..20)) {
            let n = a.len();
            let b: Vec<f64> = a.iter().map(|v| v * 0.5 + 1.0).collect();
            let x = DVector::from_slice(&a);
            let y = DVector::from_slice(&b[..n]);
            prop_assert!((x.dot(&y) - y.dot(&x)).abs() < 1e-6);
        }

        #[test]
        fn prop_triangle_inequality(a in proptest::collection::vec(-1e3f64..1e3, 1..20)) {
            let x = DVector::from_slice(&a);
            let y = &x * -0.3;
            let lhs = (&x + &y).norm2();
            prop_assert!(lhs <= x.norm2() + y.norm2() + 1e-9);
        }

        #[test]
        fn prop_axpy_matches_operator(a in proptest::collection::vec(-1e2f64..1e2, 1..16),
                                      alpha in -10.0f64..10.0) {
            let x = DVector::from_slice(&a);
            let mut y = &x * 2.0;
            let expected = &y + &(&x * alpha);
            y.axpy(alpha, &x);
            for i in 0..y.len() {
                prop_assert!((y[i] - expected[i]).abs() < 1e-9);
            }
        }
    }
}
