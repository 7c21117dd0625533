use crate::{Result, TensorError};

/// Lightweight shape helper wrapping a dimension list.
///
/// Most call sites work with `&[usize]` directly; `Shape` exists for the
/// occasional place where owning the dims and caching the element count is
/// convenient.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Shape {
    dims: Vec<usize>,
}

impl Shape {
    /// Create a shape from a dimension list.
    pub fn new(dims: &[usize]) -> Self {
        Shape { dims: dims.to_vec() }
    }

    /// Dimension list.
    pub fn dims(&self) -> &[usize] {
        &self.dims
    }

    /// Number of dimensions (rank).
    pub fn ndim(&self) -> usize {
        self.dims.len()
    }

    /// Total number of elements.
    pub fn len(&self) -> usize {
        self.dims.iter().product()
    }

    /// Whether the shape holds zero elements.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Row-major strides.
    pub fn strides(&self) -> Vec<usize> {
        strides_of(&self.dims)
    }
}

/// Row-major (C-order) strides for a shape.
///
/// The last axis has stride 1; each preceding axis strides over the product of
/// the trailing dimensions. A zero-rank shape yields an empty stride list.
pub fn strides_of(shape: &[usize]) -> Vec<usize> {
    let mut strides = vec![1usize; shape.len()];
    for i in (0..shape.len().saturating_sub(1)).rev() {
        strides[i] = strides[i + 1] * shape[i + 1];
    }
    strides
}

/// Compute the broadcast result shape of two shapes under NumPy rules.
///
/// Shapes are right-aligned; each pair of dimensions must be equal or one of
/// them must be 1.
pub fn broadcast_shapes(lhs: &[usize], rhs: &[usize]) -> Result<Vec<usize>> {
    let ndim = lhs.len().max(rhs.len());
    let mut out = vec![0usize; ndim];
    for i in 0..ndim {
        let l = if i < ndim - lhs.len() { 1 } else { lhs[i - (ndim - lhs.len())] };
        let r = if i < ndim - rhs.len() { 1 } else { rhs[i - (ndim - rhs.len())] };
        if l == r || l == 1 || r == 1 {
            // A size-1 axis takes the other's extent, zero included.
            out[i] = if l == 1 { r } else { l };
        } else {
            return Err(TensorError::ShapeMismatch {
                op: "broadcast",
                lhs: lhs.to_vec(),
                rhs: rhs.to_vec(),
            });
        }
    }
    Ok(out)
}

/// Flatten a multi-index into a linear offset given row-major strides.
pub fn flatten_index(index: &[usize], strides: &[usize]) -> usize {
    index.iter().zip(strides).map(|(i, s)| i * s).sum()
}

/// Iterate all multi-indices of a shape in row-major order, calling `f`
/// with each index.
pub fn for_each_index(shape: &[usize], mut f: impl FnMut(&[usize])) {
    if shape.contains(&0) {
        return;
    }
    let mut idx = vec![0usize; shape.len()];
    loop {
        f(&idx);
        // Increment the multi-index like an odometer.
        let mut axis = shape.len();
        loop {
            if axis == 0 {
                return;
            }
            axis -= 1;
            idx[axis] += 1;
            if idx[axis] < shape[axis] {
                break;
            }
            idx[axis] = 0;
            if axis == 0 {
                return;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn strides_row_major() {
        assert_eq!(strides_of(&[2, 3, 4]), vec![12, 4, 1]);
        assert_eq!(strides_of(&[5]), vec![1]);
        assert_eq!(strides_of(&[]), Vec::<usize>::new());
    }

    #[test]
    fn broadcast_basic() {
        assert_eq!(broadcast_shapes(&[2, 3], &[3]).unwrap(), vec![2, 3]);
        assert_eq!(broadcast_shapes(&[4, 1, 3], &[2, 1]).unwrap(), vec![4, 2, 3]);
        assert_eq!(broadcast_shapes(&[1], &[7]).unwrap(), vec![7]);
        // A size-1 axis broadcasts to a zero-length one.
        assert_eq!(broadcast_shapes(&[1, 3], &[0, 1]).unwrap(), vec![0, 3]);
        assert_eq!(broadcast_shapes(&[0], &[1]).unwrap(), vec![0]);
    }

    #[test]
    fn broadcast_incompatible() {
        assert!(broadcast_shapes(&[2, 3], &[4]).is_err());
        assert!(broadcast_shapes(&[2, 2], &[3, 2, 4]).is_err());
    }

    #[test]
    fn odometer_visits_all() {
        let mut seen = Vec::new();
        for_each_index(&[2, 3], |idx| seen.push(idx.to_vec()));
        assert_eq!(seen.len(), 6);
        assert_eq!(seen[0], vec![0, 0]);
        assert_eq!(seen[5], vec![1, 2]);
    }

    #[test]
    fn odometer_empty_shape_is_empty() {
        let mut count = 0;
        for_each_index(&[2, 0, 3], |_| count += 1);
        assert_eq!(count, 0);
    }

    #[test]
    fn shape_helpers() {
        let s = Shape::new(&[3, 4]);
        assert_eq!(s.ndim(), 2);
        assert_eq!(s.len(), 12);
        assert!(!s.is_empty());
        assert_eq!(s.strides(), vec![4, 1]);
    }
}
