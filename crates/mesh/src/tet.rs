//! Tetrahedral meshes by Kuhn subdivision of a structured grid.

use crate::ball::map_cube_to_ball;
use crate::grid::StructuredGrid;

/// Local vertex indices (x-fastest bit order: bit0=x, bit1=y, bit2=z) of the
/// six Kuhn tetrahedra of a hexahedral cell. Each tetrahedron follows a
/// monotone lattice path from corner 0 to corner 7, so neighbouring cells'
/// faces match up into a conforming mesh.
pub const KUHN_TETS: [[usize; 4]; 6] =
    [[0, 1, 3, 7], [0, 1, 5, 7], [0, 2, 3, 7], [0, 2, 6, 7], [0, 4, 5, 7], [0, 4, 6, 7]];

/// A conforming tetrahedral mesh.
#[derive(Clone, Debug)]
pub struct TetMesh {
    /// Vertex coordinates.
    pub vertices: Vec<[f64; 3]>,
    /// Tetrahedra as 4 vertex ids each.
    pub tets: Vec<[usize; 4]>,
    /// Whether each vertex lies on the domain boundary.
    pub on_boundary: Vec<bool>,
}

impl TetMesh {
    /// Builds a tet mesh from a structured grid, mapping each vertex's unit
    /// position through `map`.
    pub fn from_grid<F>(grid: StructuredGrid, map: F) -> Self
    where
        F: Fn([f64; 3]) -> [f64; 3],
    {
        let nv = grid.n_vertices();
        let mut vertices = Vec::with_capacity(nv);
        let mut on_boundary = Vec::with_capacity(nv);
        for id in 0..nv {
            vertices.push(map(grid.unit_position(id)));
            on_boundary.push(grid.is_boundary(id));
        }
        let mut tets = Vec::with_capacity(grid.n_cells() * 6);
        for ck in 0..grid.nz - 1 {
            for cj in 0..grid.ny - 1 {
                for ci in 0..grid.nx - 1 {
                    let cell = grid.cell_vertices(ci, cj, ck);
                    for t in &KUHN_TETS {
                        tets.push([cell[t[0]], cell[t[1]], cell[t[2]], cell[t[3]]]);
                    }
                }
            }
        }
        TetMesh { vertices, tets, on_boundary }
    }

    /// A tet mesh of the unit cube `[0, 1]³` with `n` vertices per side.
    pub fn unit_cube(n: usize) -> Self {
        Self::from_grid(StructuredGrid::cube(n), |p| p)
    }

    /// A tet mesh of the unit ball with `n` vertices per side of the
    /// underlying cube (the paper's NURBS-sphere substitute).
    pub fn ball(n: usize) -> Self {
        Self::from_grid(StructuredGrid::cube(n), |p| {
            map_cube_to_ball([2.0 * p[0] - 1.0, 2.0 * p[1] - 1.0, 2.0 * p[2] - 1.0])
        })
    }

    /// Number of vertices.
    pub fn n_vertices(&self) -> usize {
        self.vertices.len()
    }

    /// Number of tetrahedra.
    pub fn n_tets(&self) -> usize {
        self.tets.len()
    }

    /// Signed volume of tetrahedron `t` (×6 is the determinant).
    pub fn tet_volume(&self, t: usize) -> f64 {
        let [a, b, c, d] = self.tets[t];
        let va = self.vertices[a];
        let e1 = sub(self.vertices[b], va);
        let e2 = sub(self.vertices[c], va);
        let e3 = sub(self.vertices[d], va);
        det3(e1, e2, e3) / 6.0
    }

    /// Total mesh volume `Σ |vol(t)|`: the tests' check that a mesh tiles
    /// its domain.
    #[cfg(test)]
    fn total_volume(&self) -> f64 {
        (0..self.n_tets()).map(|t| self.tet_volume(t).abs()).sum()
    }
}

fn sub(a: [f64; 3], b: [f64; 3]) -> [f64; 3] {
    [a[0] - b[0], a[1] - b[1], a[2] - b[2]]
}

fn det3(a: [f64; 3], b: [f64; 3], c: [f64; 3]) -> f64 {
    a[0] * (b[1] * c[2] - b[2] * c[1]) - a[1] * (b[0] * c[2] - b[2] * c[0])
        + a[2] * (b[0] * c[1] - b[1] * c[0])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cube_mesh_counts() {
        let m = TetMesh::unit_cube(3);
        assert_eq!(m.n_vertices(), 27);
        assert_eq!(m.n_tets(), 8 * 6);
    }

    #[test]
    fn kuhn_tets_tile_the_cell() {
        // Volumes of the 6 tets of a unit cell sum to the cell volume.
        let m = TetMesh::unit_cube(2);
        assert_eq!(m.n_tets(), 6);
        let vol: f64 = (0..6).map(|t| m.tet_volume(t).abs()).sum();
        assert!((vol - 1.0).abs() < 1e-12);
        // No degenerate tets.
        for t in 0..6 {
            assert!(m.tet_volume(t).abs() > 1e-12);
        }
    }

    #[test]
    fn cube_total_volume() {
        let m = TetMesh::unit_cube(5);
        assert!((m.total_volume() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn ball_total_volume_approaches_sphere() {
        // Volume of the unit ball = 4π/3 ≈ 4.18879; a coarse mapped mesh
        // under-resolves the boundary but should be within a few percent.
        let m = TetMesh::ball(9);
        let v = m.total_volume();
        let exact = 4.0 * std::f64::consts::PI / 3.0;
        assert!((v - exact).abs() / exact < 0.05, "volume {v} vs {exact}");
    }

    #[test]
    fn ball_has_no_degenerate_tets() {
        let m = TetMesh::ball(5);
        for t in 0..m.n_tets() {
            assert!(m.tet_volume(t).abs() > 1e-10, "tet {t} degenerate");
        }
    }

    #[test]
    fn boundary_vertices_on_unit_sphere() {
        let m = TetMesh::ball(5);
        for (v, &b) in m.vertices.iter().zip(&m.on_boundary) {
            let r = (v[0] * v[0] + v[1] * v[1] + v[2] * v[2]).sqrt();
            if b {
                assert!((r - 1.0).abs() < 1e-12);
            } else {
                assert!(r < 1.0);
            }
        }
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(16))]

        #[test]
        fn cube_mesh_volume_is_exact(n in 2usize..7) {
            let m = TetMesh::unit_cube(n);
            prop_assert!((m.total_volume() - 1.0).abs() < 1e-12);
            prop_assert_eq!(m.n_tets(), (n - 1).pow(3) * 6);
        }

        #[test]
        fn ball_mesh_has_positive_tets_and_bounded_radius(n in 3usize..8) {
            let m = TetMesh::ball(n);
            for t in 0..m.n_tets() {
                prop_assert!(m.tet_volume(t).abs() > 1e-12);
            }
            for v in &m.vertices {
                let r2 = v[0]*v[0] + v[1]*v[1] + v[2]*v[2];
                prop_assert!(r2 <= 1.0 + 1e-12);
            }
        }
    }
}
