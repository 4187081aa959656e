//! The cell plan: a rectangular grid with frequency-reuse coloring.

/// Frequency-reuse factor: how many orthogonal spectrum slices the plan
/// splits the band into. Cells of the same color share a slice and
/// interfere; different colors are orthogonal.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Reuse {
    /// Every cell on the full band — maximum spectrum, maximum
    /// interference.
    One,
    /// Three slices; co-channel cells sit a knight's-move-free diagonal
    /// apart (minimum co-channel distance `√2 · spacing`).
    Three,
    /// Seven slices; minimum co-channel distance `√5 · spacing` (the best
    /// an index-7 sublattice of the square grid can do).
    Seven,
}

impl Reuse {
    /// All reuse factors, in sweep order.
    pub const ALL: [Reuse; 3] = [Reuse::One, Reuse::Three, Reuse::Seven];

    /// The number of colors (and the spectrum-split denominator).
    pub fn factor(self) -> usize {
        match self {
            Reuse::One => 1,
            Reuse::Three => 3,
            Reuse::Seven => 7,
        }
    }

    /// Parses `"1"`, `"3"`, or `"7"`.
    pub fn parse(s: &str) -> Option<Reuse> {
        match s {
            "1" => Some(Reuse::One),
            "3" => Some(Reuse::Three),
            "7" => Some(Reuse::Seven),
            _ => None,
        }
    }

    /// The color of grid coordinate `(x, y)`.
    ///
    /// Colors are linear-form sublattice colorings, so equal colors repeat
    /// on a translated sublattice exactly as in a classical cellular plan:
    /// `(x + 2y) mod 3` for reuse 3 and `(2x + 3y) mod 7` for reuse 7.
    fn color_of(self, x: usize, y: usize) -> usize {
        match self {
            Reuse::One => 0,
            Reuse::Three => (x + 2 * y) % 3,
            Reuse::Seven => (2 * x + 3 * y) % 7,
        }
    }
}

/// A rectangular plan of `cols × rows` square cells, `spacing_m` metres
/// between adjacent cell centers. Cells are indexed row-major:
/// `cell = y * cols + x`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Grid {
    /// Cells per row.
    pub cols: usize,
    /// Number of rows.
    pub rows: usize,
    /// Distance between adjacent cell centers, metres.
    pub spacing_m: f64,
}

impl Grid {
    /// Builds a plan. Callers validate through [`crate::CityConfig`]; a
    /// degenerate grid here simply has zero cells.
    pub(crate) fn new(cols: usize, rows: usize, spacing_m: f64) -> Self {
        Grid {
            cols,
            rows,
            spacing_m,
        }
    }

    /// Total number of cells.
    pub(crate) fn n_cells(&self) -> usize {
        self.cols * self.rows
    }

    /// Coordinate `(x, y)` of a row-major cell index.
    fn coords(&self, cell: usize) -> (usize, usize) {
        (cell % self.cols, cell / self.cols)
    }

    /// Center of a cell in metres.
    fn center_m(&self, cell: usize) -> (f64, f64) {
        let (x, y) = self.coords(cell);
        (x as f64 * self.spacing_m, y as f64 * self.spacing_m)
    }

    /// Distance between two cell centers, metres.
    pub(crate) fn distance_m(&self, a: usize, b: usize) -> f64 {
        let (ax, ay) = self.center_m(a);
        let (bx, by) = self.center_m(b);
        ((ax - bx).powi(2) + (ay - by).powi(2)).sqrt()
    }

    /// The reuse color of a cell.
    pub(crate) fn color(&self, reuse: Reuse, cell: usize) -> usize {
        let (x, y) = self.coords(cell);
        reuse.color_of(x, y)
    }

    /// Every *other* cell sharing `cell`'s color (its co-channel
    /// interferers), in index order.
    pub(crate) fn co_channel(&self, reuse: Reuse, cell: usize) -> Vec<usize> {
        let color = self.color(reuse, cell);
        (0..self.n_cells())
            .filter(|&j| j != cell && self.color(reuse, j) == color)
            .collect()
    }
}

#[cfg(test)]
impl Grid {
    /// Row-major index of coordinate `(x, y)`: the inverse of
    /// [`Grid::coords`].
    pub fn index(&self, x: usize, y: usize) -> usize {
        y * self.cols + x
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn indexing_roundtrips() {
        let g = Grid::new(5, 3, 30.0);
        assert_eq!(g.n_cells(), 15);
        for cell in 0..g.n_cells() {
            let (x, y) = g.coords(cell);
            assert!(x < 5 && y < 3);
            assert_eq!(g.index(x, y), cell);
        }
        assert_eq!(g.center_m(0), (0.0, 0.0));
        assert_eq!(g.center_m(6), (30.0, 30.0));
        assert!((g.distance_m(0, 6) - 30.0 * 2f64.sqrt()).abs() < 1e-9);
    }

    #[test]
    fn adjacent_cells_never_share_a_color_at_reuse_3_and_7() {
        let g = Grid::new(8, 8, 30.0);
        for reuse in [Reuse::Three, Reuse::Seven] {
            for cell in 0..g.n_cells() {
                let (x, y) = g.coords(cell);
                for (dx, dy) in [(1i64, 0i64), (0, 1), (1, 1), (1, -1)] {
                    let nx = x as i64 + dx;
                    let ny = y as i64 + dy;
                    if nx < 0 || ny < 0 || nx >= 8 || ny >= 8 {
                        continue;
                    }
                    let n = g.index(nx as usize, ny as usize);
                    // Reuse 3 allows one diagonal to repeat (its minimum
                    // co-channel distance is √2·s); the axial neighbours
                    // must always differ for both factors.
                    if dx != 0 && dy != 0 && reuse == Reuse::Three {
                        continue;
                    }
                    assert_ne!(
                        g.color(reuse, cell),
                        g.color(reuse, n),
                        "cells {cell} and {n} share color at reuse {}",
                        reuse.factor()
                    );
                }
            }
        }
    }

    #[test]
    fn min_co_channel_distance_grows_with_reuse() {
        let g = Grid::new(10, 10, 30.0);
        let min_d = |reuse: Reuse| -> f64 {
            (0..g.n_cells())
                .flat_map(|c| {
                    g.co_channel(reuse, c)
                        .into_iter()
                        .map(move |j| g.distance_m(c, j))
                })
                .fold(f64::INFINITY, f64::min)
        };
        let d1 = min_d(Reuse::One);
        let d3 = min_d(Reuse::Three);
        let d7 = min_d(Reuse::Seven);
        assert!((d1 - 30.0).abs() < 1e-9, "reuse 1 co-channel next door");
        assert!(
            (d3 - 30.0 * 2f64.sqrt()).abs() < 1e-9,
            "reuse 3: √2·s, {d3}"
        );
        assert!(
            (d7 - 30.0 * 5f64.sqrt()).abs() < 1e-9,
            "reuse 7: √5·s, {d7}"
        );
    }

    #[test]
    fn colors_are_balanced() {
        let g = Grid::new(21, 21, 30.0); // multiples of 3 and 7
        for reuse in Reuse::ALL {
            let f = reuse.factor();
            let mut counts = vec![0usize; f];
            for c in 0..g.n_cells() {
                counts[g.color(reuse, c)] += 1;
            }
            for (color, &n) in counts.iter().enumerate() {
                assert_eq!(n, g.n_cells() / f, "color {color} unbalanced");
            }
        }
    }

    #[test]
    fn reuse_parse() {
        assert_eq!(Reuse::parse("1"), Some(Reuse::One));
        assert_eq!(Reuse::parse("3"), Some(Reuse::Three));
        assert_eq!(Reuse::parse("7"), Some(Reuse::Seven));
        assert_eq!(Reuse::parse("2"), None);
    }
}
