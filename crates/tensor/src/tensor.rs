//! The row-major dense f64 tensor type.

use serde::{Deserialize, Serialize};

/// A dense, row-major, heap-allocated f64 tensor of arbitrary rank.
///
/// Shapes are small (rank ≤ 4 in this workspace) and checked eagerly; all
/// out-of-contract uses panic with a descriptive message rather than
/// returning garbage — gradient code is much easier to debug that way.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Tensor {
    shape: Vec<usize>,
    data: Vec<f64>,
}

impl Tensor {
    /// A tensor of zeros with the given shape.
    pub fn zeros(shape: &[usize]) -> Self {
        let len = shape.iter().product();
        Self {
            shape: shape.to_vec(),
            data: vec![0.0; len],
        }
    }

    /// A tensor filled with a constant.
    pub fn full(shape: &[usize], value: f64) -> Self {
        let len = shape.iter().product();
        Self {
            shape: shape.to_vec(),
            data: vec![value; len],
        }
    }

    /// Wrap an existing buffer.
    ///
    /// # Panics
    /// Panics if `data.len()` does not match the product of `shape`.
    pub fn from_vec(shape: &[usize], data: Vec<f64>) -> Self {
        let len: usize = shape.iter().product();
        assert_eq!(
            data.len(),
            len,
            "Tensor::from_vec: shape {shape:?} wants {len} elements, got {}",
            data.len()
        );
        Self {
            shape: shape.to_vec(),
            data,
        }
    }

    /// The shape slice.
    pub fn shape(&self) -> &[usize] {
        &self.shape
    }

    /// Total number of elements.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// Whether the tensor holds zero elements.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Immutable view of the backing buffer in row-major order.
    pub fn data(&self) -> &[f64] {
        &self.data
    }

    /// Mutable view of the backing buffer.
    pub fn data_mut(&mut self) -> &mut [f64] {
        &mut self.data
    }

    /// Consume the tensor and return its buffer.
    pub fn into_vec(self) -> Vec<f64> {
        self.data
    }

    /// Reinterpret the buffer under a new shape with the same element count.
    ///
    /// # Panics
    /// Panics if the element counts differ.
    pub fn reshape(mut self, shape: &[usize]) -> Self {
        let len: usize = shape.iter().product();
        assert_eq!(
            self.data.len(),
            len,
            "reshape: cannot view {:?} ({} elems) as {shape:?} ({len} elems)",
            self.shape,
            self.data.len()
        );
        self.shape = shape.to_vec();
        self
    }

    /// Map a function over all elements, returning a new tensor.
    pub fn map(&self, f: impl Fn(f64) -> f64) -> Tensor {
        Tensor {
            shape: self.shape.clone(),
            data: self.data.iter().map(|&x| f(x)).collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zeros_and_full() {
        let t = Tensor::zeros(&[2, 3]);
        assert_eq!(t.shape(), &[2, 3]);
        assert_eq!(t.len(), 6);
        assert!(t.data().iter().all(|&x| x == 0.0));
        let f = Tensor::full(&[4], 2.5);
        assert!(f.data().iter().all(|&x| x == 2.5));
    }

    #[test]
    fn from_vec_and_indexing() {
        let t = Tensor::from_vec(&[2, 3], vec![0.0, 1.0, 2.0, 3.0, 4.0, 5.0]);
        assert_eq!(t.shape(), &[2, 3]);
        assert_eq!(t.data()[2], 2.0);
        assert_eq!(t.data()[3], 3.0);
    }

    #[test]
    #[should_panic(expected = "wants 6 elements")]
    fn from_vec_length_checked() {
        Tensor::from_vec(&[2, 3], vec![0.0; 5]);
    }

    #[test]
    fn reshape_preserves_data() {
        let t = Tensor::from_vec(&[2, 3], (0..6).map(|i| i as f64).collect());
        let r = t.reshape(&[6]);
        assert_eq!(r.shape(), &[6]);
        assert_eq!(r.data()[4], 4.0);
    }

    #[test]
    #[should_panic(expected = "cannot view")]
    fn reshape_count_checked() {
        Tensor::zeros(&[2, 3]).reshape(&[7]);
    }

    #[test]
    fn elementwise_ops() {
        let a = Tensor::from_vec(&[3], vec![5.5, 11.0, 16.5]);
        let m = a.map(|x| x * 2.0);
        assert_eq!(m.shape(), &[3]);
        assert_eq!(m.data(), &[11.0, 22.0, 33.0]);
    }
}
