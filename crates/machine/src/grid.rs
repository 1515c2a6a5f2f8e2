//! Processor grids.

/// A rectangular processor grid (the HPF processors arrangement / template
/// shape onto which distributed dimensions map).
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct ProcGrid {
    /// Extent per grid axis.
    pub dims: Vec<u32>,
}

impl ProcGrid {
    /// A grid with the given axis extents.
    ///
    /// # Panics
    ///
    /// Panics if any extent is zero (a grid with no processors is a
    /// programming error).
    pub fn new(dims: Vec<u32>) -> Self {
        assert!(dims.iter().all(|&d| d > 0), "grid extents must be positive");
        ProcGrid { dims }
    }

    /// A near-square factorization of `p` processors over `axes` axes
    /// (e.g. `25 → 5×5`, `8 → 4×2`).
    pub fn balanced(p: u32, axes: usize) -> Self {
        assert!(p > 0 && axes > 0);
        let mut dims = vec![1u32; axes];
        let mut rem = p;
        #[allow(clippy::needless_range_loop)]
        // Greedily peel the largest factor ≤ the remaining axes' fair share.
        for i in 0..axes {
            let axes_left = (axes - i) as u32;
            let target = (rem as f64).powf(1.0 / axes_left as f64).round() as u32;
            let mut best = 1;
            for f in 1..=rem {
                if rem.is_multiple_of(f) && f <= target.max(1) {
                    best = f;
                }
            }
            dims[i] = best.max(1);
            rem /= dims[i];
        }
        dims[0] *= rem; // absorb any leftover
        dims.sort_unstable_by(|a, b| b.cmp(a));
        ProcGrid::new(dims)
    }

    /// Total processor count.
    pub fn nproc(&self) -> u64 {
        self.dims.iter().map(|&d| d as u64).product()
    }

    /// Extent of one axis.
    pub fn axis(&self, i: usize) -> u32 {
        self.dims[i]
    }

    /// Number of axes.
    pub fn rank(&self) -> usize {
        self.dims.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn balanced_factorizations() {
        assert_eq!(ProcGrid::balanced(25, 2).dims, vec![5, 5]);
        assert_eq!(ProcGrid::balanced(8, 2).nproc(), 8);
        assert_eq!(ProcGrid::balanced(16, 2).dims, vec![4, 4]);
        assert_eq!(ProcGrid::balanced(7, 2).nproc(), 7);
        assert_eq!(ProcGrid::balanced(1, 1).dims, vec![1]);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_extent_panics() {
        let _ = ProcGrid::new(vec![0, 2]);
    }
}
