//! Procedural triangle meshes and decimation — the stand-in for the
//! paper's virtual-object assets and the server-side object decimation
//! algorithm of Fig. 3.

use simcore::rand::Rng;
use simcore::rand::SeedableRng;

/// An indexed triangle mesh.
#[derive(Debug, Clone, PartialEq)]
pub struct Mesh {
    vertices: Vec<[f64; 3]>,
    triangles: Vec<[usize; 3]>,
}

impl Mesh {
    /// Builds a mesh from raw vertex and index data.
    ///
    /// # Panics
    ///
    /// Panics if any triangle index is out of bounds.
    pub fn new(vertices: Vec<[f64; 3]>, triangles: Vec<[usize; 3]>) -> Self {
        for t in &triangles {
            for &i in t {
                assert!(i < vertices.len(), "triangle index {i} out of bounds");
            }
        }
        Mesh {
            vertices,
            triangles,
        }
    }

    /// The vertex positions.
    pub fn vertices(&self) -> &[[f64; 3]] {
        &self.vertices
    }

    /// The triangle index list.
    pub fn triangles(&self) -> &[[usize; 3]] {
        &self.triangles
    }

    /// Number of triangles.
    pub fn triangle_count(&self) -> usize {
        self.triangles.len()
    }

    /// A UV sphere with `rings × segments` quads (two triangles each, plus
    /// triangle fans at the poles).
    ///
    /// # Panics
    ///
    /// Panics if `rings < 2` or `segments < 3`.
    pub fn uv_sphere(rings: usize, segments: usize) -> Self {
        assert!(rings >= 2 && segments >= 3, "sphere too coarse");
        let mut vertices = vec![[0.0, 1.0, 0.0]];
        for r in 1..rings {
            let phi = std::f64::consts::PI * r as f64 / rings as f64;
            for s in 0..segments {
                let theta = 2.0 * std::f64::consts::PI * s as f64 / segments as f64;
                vertices.push([phi.sin() * theta.cos(), phi.cos(), phi.sin() * theta.sin()]);
            }
        }
        vertices.push([0.0, -1.0, 0.0]);
        let south = vertices.len() - 1;
        let idx = |r: usize, s: usize| 1 + (r - 1) * segments + (s % segments);
        let mut triangles = Vec::new();
        // North cap (counter-clockwise when seen from outside).
        for s in 0..segments {
            triangles.push([0, idx(1, s + 1), idx(1, s)]);
        }
        // Body.
        for r in 1..rings - 1 {
            for s in 0..segments {
                let (a, b) = (idx(r, s), idx(r, s + 1));
                let (c, d) = (idx(r + 1, s), idx(r + 1, s + 1));
                triangles.push([a, b, c]);
                triangles.push([b, d, c]);
            }
        }
        // South cap.
        for s in 0..segments {
            triangles.push([south, idx(rings - 1, s), idx(rings - 1, s + 1)]);
        }
        Mesh::new(vertices, triangles)
    }

    /// A torus with major radius 1 and the given minor radius.
    ///
    /// # Panics
    ///
    /// Panics if the tessellation is too coarse or the radius not in
    /// `(0, 1)`.
    pub fn torus(minor_radius: f64, rings: usize, segments: usize) -> Self {
        assert!(rings >= 3 && segments >= 3, "torus too coarse");
        assert!(
            minor_radius > 0.0 && minor_radius < 1.0,
            "minor radius must be in (0, 1)"
        );
        let mut vertices = Vec::with_capacity(rings * segments);
        for r in 0..rings {
            let u = 2.0 * std::f64::consts::PI * r as f64 / rings as f64;
            for s in 0..segments {
                let v = 2.0 * std::f64::consts::PI * s as f64 / segments as f64;
                let w = 1.0 + minor_radius * v.cos();
                vertices.push([w * u.cos(), minor_radius * v.sin(), w * u.sin()]);
            }
        }
        let idx = |r: usize, s: usize| (r % rings) * segments + (s % segments);
        let mut triangles = Vec::new();
        for r in 0..rings {
            for s in 0..segments {
                let (a, b) = (idx(r, s), idx(r + 1, s));
                let (c, d) = (idx(r, s + 1), idx(r + 1, s + 1));
                triangles.push([a, b, c]);
                triangles.push([b, d, c]);
            }
        }
        Mesh::new(vertices, triangles)
    }

    /// A "rock": a UV sphere with seeded radial displacement — a cheap
    /// irregular object whose decimation error behaves like scanned
    /// assets.
    pub fn rock(seed: u64, rings: usize, segments: usize) -> Self {
        let mut mesh = Mesh::uv_sphere(rings, segments);
        let mut rng = simcore::rand::StdRng::seed_from_u64(seed);
        // Low-frequency lobes + per-vertex jitter.
        let lobes: Vec<([f64; 3], f64)> = (0..6)
            .map(|_| {
                let dir = [
                    rng.gen_range(-1.0..1.0),
                    rng.gen_range(-1.0..1.0),
                    rng.gen_range(-1.0..1.0),
                ];
                (dir, rng.gen_range(0.1..0.35))
            })
            .collect();
        for v in &mut mesh.vertices {
            let mut scale = 1.0;
            for (dir, amp) in &lobes {
                let d = v[0] * dir[0] + v[1] * dir[1] + v[2] * dir[2];
                scale += amp * (3.0 * d).sin();
            }
            scale += rng.gen_range(-0.02..0.02);
            for c in v.iter_mut() {
                *c *= scale;
            }
        }
        mesh
    }

    /// Radius of the smallest origin-centered sphere containing the mesh.
    pub fn bounding_radius(&self) -> f64 {
        self.vertices
            .iter()
            .map(|v| (v[0] * v[0] + v[1] * v[1] + v[2] * v[2]).sqrt())
            .fold(0.0, f64::max)
    }

    /// Decimates the mesh to approximately `target` triangles by vertex
    /// clustering: vertices are snapped to a uniform grid, degenerate
    /// triangles dropped, and the grid resolution binary-searched to
    /// approach the target. Returns the input unchanged if it is already
    /// at or below the target.
    ///
    /// # Panics
    ///
    /// Panics if `target == 0`.
    pub fn decimate(&self, target: usize) -> Mesh {
        assert!(target > 0, "target must be positive");
        if self.triangle_count() <= target {
            return self.clone();
        }
        let radius = self.bounding_radius().max(1e-9);
        // Binary search the clustering cell count per axis.
        let (mut lo, mut hi) = (2u32, 512u32);
        let mut best: Option<Mesh> = None;
        while lo <= hi {
            let mid = (lo + hi) / 2;
            let candidate = self.cluster(radius, mid);
            let n = candidate.triangle_count();
            let better = match &best {
                None => true,
                Some(b) => {
                    (n as i64 - target as i64).abs()
                        < (b.triangle_count() as i64 - target as i64).abs()
                }
            };
            if better {
                best = Some(candidate);
            }
            if n > target {
                hi = mid - 1;
            } else {
                lo = mid + 1;
            }
        }
        best.expect("binary search produced at least one candidate")
    }

    /// Vertex clustering with `cells` grid cells per axis over the
    /// bounding cube of half-width `radius`.
    fn cluster(&self, radius: f64, cells: u32) -> Mesh {
        use std::collections::HashMap;
        let cell_of = |v: &[f64; 3]| -> (i32, i32, i32) {
            let q = |x: f64| {
                (((x + radius) / (2.0 * radius) * cells as f64).floor() as i32)
                    .clamp(0, cells as i32 - 1)
            };
            (q(v[0]), q(v[1]), q(v[2]))
        };
        // Representative (averaged) vertex per occupied cell.
        let mut cell_index: HashMap<(i32, i32, i32), usize> = HashMap::new();
        let mut sums: Vec<([f64; 3], usize)> = Vec::new();
        let mut remap = vec![0usize; self.vertices.len()];
        for (i, v) in self.vertices.iter().enumerate() {
            let key = cell_of(v);
            let idx = *cell_index.entry(key).or_insert_with(|| {
                sums.push(([0.0; 3], 0));
                sums.len() - 1
            });
            sums[idx].0[0] += v[0];
            sums[idx].0[1] += v[1];
            sums[idx].0[2] += v[2];
            sums[idx].1 += 1;
            remap[i] = idx;
        }
        let vertices: Vec<[f64; 3]> = sums
            .into_iter()
            .map(|(s, n)| [s[0] / n as f64, s[1] / n as f64, s[2] / n as f64])
            .collect();
        let mut seen = std::collections::HashSet::new();
        let mut triangles = Vec::new();
        for t in &self.triangles {
            let mapped = [remap[t[0]], remap[t[1]], remap[t[2]]];
            if mapped[0] == mapped[1] || mapped[1] == mapped[2] || mapped[0] == mapped[2] {
                continue; // collapsed
            }
            // Deduplicate triangles that collapsed onto each other,
            // keeping orientation-insensitive identity.
            let mut key = mapped;
            key.sort_unstable();
            if seen.insert(key) {
                triangles.push(mapped);
            }
        }
        Mesh::new(vertices, triangles)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sphere_counts() {
        let m = Mesh::uv_sphere(8, 12);
        // 2 caps x 12 + 6 body rings x 12 x 2 = 168.
        assert_eq!(m.triangle_count(), 168);
        assert_eq!(m.vertices().len(), 2 + 7 * 12);
        assert!((m.bounding_radius() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn torus_counts() {
        let m = Mesh::torus(0.3, 10, 8);
        assert_eq!(m.triangle_count(), 160);
        assert!((m.bounding_radius() - 1.3).abs() < 1e-9);
    }

    #[test]
    fn rock_is_deterministic_per_seed() {
        let a = Mesh::rock(7, 10, 10);
        let b = Mesh::rock(7, 10, 10);
        let c = Mesh::rock(8, 10, 10);
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn decimate_reduces_towards_target() {
        let m = Mesh::uv_sphere(40, 40); // 3,120 triangles... (2*40 + 38*40*2)
        let full = m.triangle_count();
        let dec = m.decimate(full / 4);
        assert!(
            dec.triangle_count() < full / 2,
            "{} -> {}",
            full,
            dec.triangle_count()
        );
        assert!(dec.triangle_count() > 16);
        // Shape roughly preserved: bounding radius close to 1.
        assert!((dec.bounding_radius() - 1.0).abs() < 0.25);
    }

    #[test]
    fn decimate_is_monotone_in_target() {
        let m = Mesh::uv_sphere(30, 30);
        let coarse = m.decimate(100).triangle_count();
        let fine = m.decimate(800).triangle_count();
        assert!(coarse < fine, "coarse {coarse}, fine {fine}");
    }

    #[test]
    fn decimate_noop_when_under_target() {
        let m = Mesh::uv_sphere(6, 6);
        let d = m.decimate(10_000);
        assert_eq!(d.triangle_count(), m.triangle_count());
    }

    #[test]
    fn cluster_drops_no_vertices_references() {
        let m = Mesh::uv_sphere(20, 20).decimate(150);
        for t in m.triangles() {
            for &i in t {
                assert!(i < m.vertices().len());
            }
        }
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn bad_index_panics() {
        Mesh::new(vec![[0.0; 3]], vec![[0, 1, 2]]);
    }
}
