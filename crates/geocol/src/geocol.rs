//! The GeoCoL (GEOmetry / COnnectivity / Load) interface data structure.
//!
//! A GeoCoL graph has `n` vertices (one per distributed-array element of the
//! decomposition being partitioned) and any combination of
//!
//! * **geometry** — `dim`-dimensional spatial coordinates per vertex
//!   (`GEOMETRY(dim, xcord, ycord, zcord)` in the paper's directive),
//! * **connectivity** — undirected edges given as two endpoint lists
//!   (`LINK(E, edge_list1, edge_list2)`),
//! * **load** — a per-vertex computational weight (`LOAD(weight)`).
//!
//! The builder mirrors the directive: start from the vertex count and add
//! whichever sections the program supplies.

/// Errors produced while assembling or validating a GeoCoL structure.
#[derive(Debug, Clone, PartialEq)]
pub enum GeoColError {
    /// A coordinate array's length does not match the vertex count.
    GeometryLengthMismatch {
        /// Which coordinate axis (0 = x, 1 = y, ...).
        axis: usize,
        /// Supplied length.
        got: usize,
        /// Expected length (the vertex count).
        expected: usize,
    },
    /// The load array's length does not match the vertex count.
    LoadLengthMismatch {
        /// Supplied length.
        got: usize,
        /// Expected length.
        expected: usize,
    },
    /// The two edge endpoint lists have different lengths.
    EdgeListLengthMismatch {
        /// Length of the first endpoint list.
        left: usize,
        /// Length of the second endpoint list.
        right: usize,
    },
    /// An edge endpoint refers to a vertex that does not exist.
    EdgeOutOfRange {
        /// Index of the offending edge.
        edge: usize,
        /// The endpoint value.
        vertex: usize,
        /// Number of vertices.
        nvertices: usize,
    },
    /// A vertex coordinate is NaN or infinite.
    InvalidCoordinate {
        /// Which coordinate axis (0 = x, 1 = y, ...).
        axis: usize,
        /// Offending vertex.
        vertex: usize,
        /// The coordinate value.
        value: f64,
    },
    /// A vertex load is negative or non-finite.
    InvalidLoad {
        /// Offending vertex.
        vertex: usize,
        /// The load value.
        value: f64,
    },
    /// The structure has no information at all to partition on.
    Empty,
}

impl std::fmt::Display for GeoColError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            GeoColError::GeometryLengthMismatch {
                axis,
                got,
                expected,
            } => write!(
                f,
                "geometry axis {axis} has {got} coordinates but the GeoCoL has {expected} vertices"
            ),
            GeoColError::LoadLengthMismatch { got, expected } => write!(
                f,
                "load array has {got} entries but the GeoCoL has {expected} vertices"
            ),
            GeoColError::EdgeListLengthMismatch { left, right } => write!(
                f,
                "edge endpoint lists have different lengths ({left} vs {right})"
            ),
            GeoColError::EdgeOutOfRange {
                edge,
                vertex,
                nvertices,
            } => write!(
                f,
                "edge {edge} references vertex {vertex} but only {nvertices} vertices exist"
            ),
            GeoColError::InvalidCoordinate {
                axis,
                vertex,
                value,
            } => write!(
                f,
                "vertex {vertex} has non-finite coordinate {value} on axis {axis}"
            ),
            GeoColError::InvalidLoad { vertex, value } => {
                write!(f, "vertex {vertex} has invalid load {value}")
            }
            GeoColError::Empty => write!(
                f,
                "GeoCoL has neither geometry, connectivity nor load information"
            ),
        }
    }
}

impl std::error::Error for GeoColError {}

/// A GeoCoL section a partitioner splits on: the `GEOMETRY` or `LINK`
/// clause of the `CONSTRUCT` directive.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Section {
    /// Spatial coordinates (`GEOMETRY`).
    Geometry,
    /// Connectivity (`LINK`).
    Link,
}

impl std::fmt::Display for Section {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            Section::Geometry => "GEOMETRY",
            Section::Link => "LINK",
        })
    }
}

/// The GeoCoL interface data structure handed to partitioners.
#[derive(Debug, Clone, PartialEq)]
pub struct GeoCoL {
    nvertices: usize,
    /// Coordinates stored axis-major: `coords[axis][vertex]`.
    coords: Vec<Vec<f64>>,
    /// Per-vertex computational load; `None` means unit loads.
    load: Option<Vec<f64>>,
    /// Undirected edges (deduplicated, self-loops removed).
    edges: Vec<(u32, u32)>,
    /// CSR adjacency built lazily from the edges.
    adj_offsets: Vec<usize>,
    adj_targets: Vec<u32>,
}

impl GeoCoL {
    /// Number of vertices.
    #[inline]
    pub fn nvertices(&self) -> usize {
        self.nvertices
    }

    /// Number of (undirected, deduplicated) edges.
    #[inline]
    pub fn nedges(&self) -> usize {
        self.edges.len()
    }

    /// Dimensionality of the geometry section (0 when absent).
    #[inline]
    pub fn geometry_dim(&self) -> usize {
        self.coords.len()
    }

    /// True when `section` is available: spatial coordinates for
    /// `GEOMETRY`, at least one edge for `LINK`.
    #[inline]
    pub fn has(&self, section: Section) -> bool {
        match section {
            Section::Geometry => !self.coords.is_empty(),
            Section::Link => !self.edges.is_empty(),
        }
    }

    /// Coordinate of `vertex` along `axis`.
    #[inline]
    pub fn coord(&self, axis: usize, vertex: usize) -> f64 {
        self.coords[axis][vertex]
    }

    /// All coordinates along `axis`.
    #[inline]
    pub fn axis(&self, axis: usize) -> &[f64] {
        &self.coords[axis]
    }

    /// Computational load of `vertex` (1.0 when no load array was given).
    #[inline]
    pub fn vertex_load(&self, vertex: usize) -> f64 {
        match &self.load {
            Some(l) => l[vertex],
            None => 1.0,
        }
    }

    /// Total load over all vertices.
    #[cfg(test)]
    pub(crate) fn total_load(&self) -> f64 {
        match &self.load {
            Some(l) => l.iter().sum(),
            None => self.nvertices as f64,
        }
    }

    /// The undirected edge list.
    #[inline]
    pub fn edges(&self) -> &[(u32, u32)] {
        &self.edges
    }

    /// Neighbours of `vertex` (from the CSR adjacency).
    #[inline]
    pub fn neighbors(&self, vertex: usize) -> &[u32] {
        &self.adj_targets[self.adj_offsets[vertex]..self.adj_offsets[vertex + 1]]
    }

    /// Degree of `vertex`.
    #[inline]
    pub fn degree(&self, vertex: usize) -> usize {
        self.adj_offsets[vertex + 1] - self.adj_offsets[vertex]
    }
}

/// Builder mirroring the `CONSTRUCT` directive.
#[derive(Debug, Clone, Default)]
pub struct GeoColBuilder {
    nvertices: usize,
    coords: Vec<Vec<f64>>,
    load: Option<Vec<f64>>,
    edge_lists: Option<(Vec<u32>, Vec<u32>)>,
}

impl GeoColBuilder {
    /// Start a GeoCoL with `nvertices` vertices
    /// (`CONSTRUCT G (nvertices, ...)`).
    pub fn new(nvertices: usize) -> Self {
        GeoColBuilder {
            nvertices,
            ..Default::default()
        }
    }

    /// Add spatial coordinates, one `Vec` per axis
    /// (`GEOMETRY(dim, xcord, ycord, zcord)`).
    pub fn geometry(mut self, axes: Vec<Vec<f64>>) -> Self {
        self.coords = axes;
        self
    }

    /// Add per-vertex computational loads (`LOAD(weight)`).
    pub fn load(mut self, load: Vec<f64>) -> Self {
        self.load = Some(load);
        self
    }

    /// Add connectivity as two endpoint lists
    /// (`LINK(E, edge_list1, edge_list2)`).
    pub fn link(mut self, endpoints1: Vec<u32>, endpoints2: Vec<u32>) -> Self {
        self.edge_lists = Some((endpoints1, endpoints2));
        self
    }

    /// Add connectivity from an explicit edge list.
    #[cfg(test)]
    pub(crate) fn link_edges(self, edges: &[(u32, u32)]) -> Self {
        let (a, b): (Vec<u32>, Vec<u32>) = edges.iter().copied().unzip();
        self.link(a, b)
    }

    /// Validate and build the GeoCoL structure.
    pub fn build(self) -> Result<GeoCoL, GeoColError> {
        let n = self.nvertices;
        for (axis, c) in self.coords.iter().enumerate() {
            if c.len() != n {
                return Err(GeoColError::GeometryLengthMismatch {
                    axis,
                    got: c.len(),
                    expected: n,
                });
            }
            if let Some(vertex) = c.iter().position(|v| !v.is_finite()) {
                let value = c[vertex];
                return Err(GeoColError::InvalidCoordinate {
                    axis,
                    vertex,
                    value,
                });
            }
        }
        if let Some(l) = &self.load {
            if l.len() != n {
                return Err(GeoColError::LoadLengthMismatch {
                    got: l.len(),
                    expected: n,
                });
            }
            for (vertex, &value) in l.iter().enumerate() {
                if !value.is_finite() || value < 0.0 {
                    return Err(GeoColError::InvalidLoad { vertex, value });
                }
            }
        }

        let mut edges: Vec<(u32, u32)> = Vec::new();
        if let Some((e1, e2)) = &self.edge_lists {
            if e1.len() != e2.len() {
                return Err(GeoColError::EdgeListLengthMismatch {
                    left: e1.len(),
                    right: e2.len(),
                });
            }
            edges.reserve(e1.len());
            for (i, (&a, &b)) in e1.iter().zip(e2.iter()).enumerate() {
                if a as usize >= n {
                    return Err(GeoColError::EdgeOutOfRange {
                        edge: i,
                        vertex: a as usize,
                        nvertices: n,
                    });
                }
                if b as usize >= n {
                    return Err(GeoColError::EdgeOutOfRange {
                        edge: i,
                        vertex: b as usize,
                        nvertices: n,
                    });
                }
                if a == b {
                    continue; // drop self-loops
                }
                edges.push((a.min(b), a.max(b)));
            }
            edges.sort_unstable();
            edges.dedup();
        }

        if self.coords.is_empty() && self.load.is_none() && edges.is_empty() && n > 0 {
            return Err(GeoColError::Empty);
        }

        // Build CSR adjacency.
        let mut degree = vec![0usize; n];
        for &(a, b) in &edges {
            degree[a as usize] += 1;
            degree[b as usize] += 1;
        }
        let mut adj_offsets = Vec::with_capacity(n + 1);
        adj_offsets.push(0usize);
        for d in &degree {
            adj_offsets.push(adj_offsets.last().unwrap() + d);
        }
        let mut cursor = adj_offsets.clone();
        let mut adj_targets = vec![0u32; 2 * edges.len()];
        for &(a, b) in &edges {
            adj_targets[cursor[a as usize]] = b;
            cursor[a as usize] += 1;
            adj_targets[cursor[b as usize]] = a;
            cursor[b as usize] += 1;
        }
        for v in 0..n {
            adj_targets[adj_offsets[v]..adj_offsets[v + 1]].sort_unstable();
        }

        Ok(GeoCoL {
            nvertices: n,
            coords: self.coords,
            load: self.load,
            edges,
            adj_offsets,
            adj_targets,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn simple_graph() -> GeoCoL {
        // 0 - 1 - 2 - 3 path plus an extra 0-2 edge
        GeoColBuilder::new(4)
            .link(vec![0, 1, 2, 0], vec![1, 2, 3, 2])
            .build()
            .unwrap()
    }

    #[test]
    fn builds_csr_adjacency() {
        let g = simple_graph();
        assert_eq!(g.nvertices(), 4);
        assert_eq!(g.nedges(), 4);
        assert_eq!(g.neighbors(0), &[1, 2]);
        assert_eq!(g.neighbors(2), &[0, 1, 3]);
        assert_eq!(g.degree(3), 1);
        assert!(!g.has(Section::Geometry));
        assert!(g.has(Section::Link));
    }

    #[test]
    fn deduplicates_and_drops_self_loops() {
        let g = GeoColBuilder::new(3)
            .link(vec![0, 1, 0, 2], vec![1, 0, 0, 2])
            .build()
            .unwrap();
        assert_eq!(g.nedges(), 1);
        assert_eq!(g.edges(), &[(0, 1)]);
    }

    #[test]
    fn geometry_and_load_sections() {
        let g = GeoColBuilder::new(3)
            .geometry(vec![vec![0.0, 1.0, 2.0], vec![0.0, 0.5, 1.0]])
            .load(vec![1.0, 2.0, 3.0])
            .build()
            .unwrap();
        assert_eq!(g.geometry_dim(), 2);
        assert_eq!(g.coord(1, 2), 1.0);
        assert_eq!(g.vertex_load(1), 2.0);
        assert_eq!(g.total_load(), 6.0);
    }

    #[test]
    fn default_load_is_unit() {
        let g = simple_graph();
        assert_eq!(g.vertex_load(0), 1.0);
        assert_eq!(g.total_load(), 4.0);
    }

    #[test]
    fn rejects_mismatched_geometry() {
        let err = GeoColBuilder::new(3)
            .geometry(vec![vec![0.0, 1.0]])
            .build()
            .unwrap_err();
        assert!(matches!(
            err,
            GeoColError::GeometryLengthMismatch {
                axis: 0,
                got: 2,
                expected: 3
            }
        ));
        assert!(err.to_string().contains("axis 0"));
    }

    #[test]
    fn rejects_non_finite_coordinates() {
        for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            let err = GeoColBuilder::new(3)
                .geometry(vec![vec![0.0, 1.0, 2.0], vec![0.0, bad, 1.0]])
                .build()
                .unwrap_err();
            assert!(matches!(
                err,
                GeoColError::InvalidCoordinate {
                    axis: 1,
                    vertex: 1,
                    ..
                }
            ));
            assert!(err.to_string().contains("axis 1"), "{err}");
        }
    }

    #[test]
    fn rejects_mismatched_load_and_bad_values() {
        let err = GeoColBuilder::new(2).load(vec![1.0]).build().unwrap_err();
        assert!(matches!(err, GeoColError::LoadLengthMismatch { .. }));
        let err = GeoColBuilder::new(2)
            .load(vec![1.0, -3.0])
            .build()
            .unwrap_err();
        assert!(matches!(err, GeoColError::InvalidLoad { vertex: 1, .. }));
        let err = GeoColBuilder::new(2)
            .load(vec![1.0, f64::NAN])
            .build()
            .unwrap_err();
        assert!(matches!(err, GeoColError::InvalidLoad { .. }));
    }

    #[test]
    fn rejects_bad_edges() {
        let err = GeoColBuilder::new(2)
            .link(vec![0, 1], vec![1])
            .build()
            .unwrap_err();
        assert!(matches!(err, GeoColError::EdgeListLengthMismatch { .. }));
        let err = GeoColBuilder::new(2)
            .link(vec![0, 5], vec![1, 1])
            .build()
            .unwrap_err();
        assert!(matches!(err, GeoColError::EdgeOutOfRange { vertex: 5, .. }));
    }

    #[test]
    fn rejects_completely_empty() {
        let err = GeoColBuilder::new(10).build().unwrap_err();
        assert_eq!(err, GeoColError::Empty);
        // But an empty zero-vertex GeoCoL is fine (degenerate).
        assert!(GeoColBuilder::new(0).build().is_ok());
    }

    #[test]
    fn link_edges_helper_matches_link() {
        let a = GeoColBuilder::new(4)
            .link_edges(&[(0, 1), (2, 3)])
            .build()
            .unwrap();
        let b = GeoColBuilder::new(4)
            .link(vec![0, 2], vec![1, 3])
            .build()
            .unwrap();
        assert_eq!(a, b);
    }
}
