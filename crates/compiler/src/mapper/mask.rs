//! MRRG resource mask: which tiles and mesh links the mapper may use.
//!
//! Fault-aware mapping (NEURA-style retargeting around arbitrary resource
//! subsets) needs the MRRG restricted to the *alive* fabric: dead PEs can
//! neither compute nor forward operands, and dead links cannot carry them in
//! either direction. A [`ResourceMask`] captures that restriction as plain
//! data the mapper consults for three questions — is this tile usable, how
//! many hops between two tiles, and through which intermediate tiles does an
//! operand travel.
//!
//! Determinism has two tiers:
//!
//! * A **full** mask (nothing dead) answers with the legacy geometry —
//!   Manhattan hop counts and row-first L-shaped paths — so every healthy
//!   mapping is bit-identical to what the mapper produced before fault
//!   support existed.
//! * A **degraded** mask precomputes all-pairs shortest paths by BFS over
//!   the alive subgraph, visiting neighbours in the fixed
//!   [`CgraSpec::neighbors`] order, so detours are deterministic too.
//!   Unreachable pairs answer `None` and the mapper treats the candidate
//!   placement as infeasible.

use crate::arch::CgraSpec;
use std::collections::BTreeSet;
use std::fmt;

/// The unusable-resource set, with routing tables over what survives.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ResourceMask {
    rows: usize,
    cols: usize,
    alive: Vec<bool>,
    dead_links: BTreeSet<(usize, usize)>,
    /// `true` when nothing is masked: the legacy fast path.
    full: bool,
    /// All-pairs hop counts over the alive subgraph (`u32::MAX` =
    /// unreachable); empty for a full mask.
    hop_table: Vec<u32>,
    /// All-pairs intermediate-tile paths (excluding both endpoints); empty
    /// for a full mask.
    path_table: Vec<Vec<usize>>,
}

impl ResourceMask {
    /// The identity mask: every tile and link usable.
    pub fn full(spec: &CgraSpec) -> ResourceMask {
        ResourceMask {
            rows: spec.rows,
            cols: spec.cols,
            alive: vec![true; spec.len()],
            dead_links: BTreeSet::new(),
            full: true,
            hop_table: Vec::new(),
            path_table: Vec::new(),
        }
    }

    /// A mask with the given dead tiles and dead links (link endpoint order
    /// does not matter). Out-of-range indices are ignored. An empty fault
    /// set degenerates to [`ResourceMask::full`], fast path included.
    pub fn degraded<I, J>(spec: &CgraSpec, dead_tiles: I, dead_links: J) -> ResourceMask
    where
        I: IntoIterator<Item = usize>,
        J: IntoIterator<Item = (usize, usize)>,
    {
        let n = spec.len();
        let mut alive = vec![true; n];
        for t in dead_tiles {
            if t < n {
                alive[t] = false;
            }
        }
        let mut links = BTreeSet::new();
        for (a, b) in dead_links {
            if a < n && b < n {
                links.insert((a.min(b), a.max(b)));
            }
        }
        if alive.iter().all(|&a| a) && links.is_empty() {
            return ResourceMask::full(spec);
        }
        let mut mask = ResourceMask {
            rows: spec.rows,
            cols: spec.cols,
            alive,
            dead_links: links,
            full: false,
            hop_table: vec![u32::MAX; n * n],
            path_table: vec![Vec::new(); n * n],
        };
        mask.build_tables(spec);
        mask
    }

    /// BFS from every alive source over the alive subgraph, neighbours in
    /// [`CgraSpec::neighbors`] order (deterministic detours).
    fn build_tables(&mut self, spec: &CgraSpec) {
        let n = spec.len();
        for src in 0..n {
            if !self.alive[src] {
                continue;
            }
            let mut parent: Vec<Option<usize>> = vec![None; n];
            let mut dist: Vec<u32> = vec![u32::MAX; n];
            dist[src] = 0;
            let mut queue = std::collections::VecDeque::new();
            queue.push_back(src);
            while let Some(u) = queue.pop_front() {
                for v in spec.neighbors(u) {
                    if !self.alive[v]
                        || self.dead_links.contains(&(u.min(v), u.max(v)))
                        || dist[v] != u32::MAX
                    {
                        continue;
                    }
                    dist[v] = dist[u] + 1;
                    parent[v] = Some(u);
                    queue.push_back(v);
                }
            }
            for (dst, &d) in dist.iter().enumerate() {
                if d == u32::MAX {
                    continue;
                }
                self.hop_table[src * n + dst] = d;
                // walk dst -> src by parents, collect intermediates
                let mut inter = Vec::new();
                let mut cur = dst;
                while let Some(p) = parent[cur] {
                    if p != src {
                        inter.push(p);
                    }
                    cur = p;
                }
                inter.reverse();
                self.path_table[src * n + dst] = inter;
            }
        }
    }

    /// `true` when nothing is masked.
    pub fn is_full(&self) -> bool {
        self.full
    }

    /// Whether tile `t` is usable (for compute *and* routing).
    pub fn tile_alive(&self, t: usize) -> bool {
        self.alive.get(t).copied().unwrap_or(false)
    }

    /// Number of usable tiles.
    pub fn alive_count(&self) -> usize {
        self.alive.iter().filter(|&&a| a).count()
    }

    /// Number of masked-out tiles.
    pub fn dead_tile_count(&self) -> usize {
        self.alive.len() - self.alive_count()
    }

    /// Number of masked-out links.
    pub fn dead_link_count(&self) -> usize {
        self.dead_links.len()
    }

    /// Whether the mesh link between tiles `a` and `b` is usable: both
    /// endpoints alive and the (direction-agnostic) link not masked out.
    /// Adjacency is the caller's concern — the router only asks about pairs
    /// it got from [`CgraSpec::neighbors`].
    pub fn link_alive(&self, a: usize, b: usize) -> bool {
        self.tile_alive(a)
            && self.tile_alive(b)
            && !self.dead_links.contains(&(a.min(b), a.max(b)))
    }

    /// Hop count from `a` to `b` over the alive fabric; `None` when
    /// unreachable (or either endpoint is dead).
    pub fn hops(&self, spec: &CgraSpec, a: usize, b: usize) -> Option<u32> {
        if self.full {
            return Some(spec.hops(a, b));
        }
        let n = self.alive.len();
        let h = self.hop_table[a * n + b];
        (h != u32::MAX).then_some(h)
    }

    /// The intermediate tiles (excluding both endpoints) an operand from `a`
    /// to `b` traverses, walked in place; `None` when unreachable. On the
    /// full mask this is the legacy row-first L-shaped path, stepped
    /// arithmetically; on a degraded mask it borrows the BFS table entry.
    pub fn path(&self, spec: &CgraSpec, a: usize, b: usize) -> Option<Path<'_>> {
        if self.full {
            let (r, c) = spec.coords(a);
            let (tr, tc) = spec.coords(b);
            return Some(Path(Walk::RowFirst {
                tile: a,
                cols_left: c.abs_diff(tc),
                col_step: if c < tc { 1 } else { -1 },
                rows_left: r.abs_diff(tr),
                row_step: if r < tr { spec.cols as isize } else { -(spec.cols as isize) },
            }));
        }
        let n = self.alive.len();
        if self.hop_table[a * n + b] == u32::MAX {
            return None;
        }
        Some(Path(Walk::Table(self.path_table[a * n + b].iter())))
    }
}

/// Iterator over the intermediate tiles of one operand route (see
/// [`ResourceMask::path`]). It allocates nothing: the mapper's hot loops
/// walk a path once per candidate slot and annealing move.
#[derive(Debug, Clone)]
pub struct Path<'a>(Walk<'a>);

#[derive(Debug, Clone)]
enum Walk<'a> {
    /// Row-first walk on a full mask: `cols_left` steps of `col_step` along
    /// the source row, then `rows_left` steps of `row_step` along the
    /// destination column. `tile` is the tile last visited.
    RowFirst { tile: usize, cols_left: usize, col_step: isize, rows_left: usize, row_step: isize },
    /// A precomputed BFS detour on a degraded mask.
    Table(std::slice::Iter<'a, usize>),
}

impl Iterator for Path<'_> {
    type Item = usize;

    fn next(&mut self) -> Option<usize> {
        match &mut self.0 {
            Walk::Table(it) => it.next().copied(),
            Walk::RowFirst { tile, cols_left, col_step, rows_left, row_step } => {
                if *cols_left > 0 {
                    *cols_left -= 1;
                    *tile = tile.wrapping_add_signed(*col_step);
                } else if *rows_left > 0 {
                    *rows_left -= 1;
                    *tile = tile.wrapping_add_signed(*row_step);
                } else {
                    return None;
                }
                // the destination itself is not an intermediate tile
                (*cols_left + *rows_left > 0).then_some(*tile)
            }
        }
    }
}

impl fmt::Display for ResourceMask {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.full {
            write!(f, "mask: full fabric")
        } else {
            write!(
                f,
                "mask: {}/{} tiles alive, {} dead links",
                self.alive_count(),
                self.alive.len(),
                self.dead_links.len()
            )
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec() -> CgraSpec {
        CgraSpec::picachu(4, 4)
    }

    /// [`ResourceMask::path`], collected.
    fn path_vec(m: &ResourceMask, s: &CgraSpec, a: usize, b: usize) -> Option<Vec<usize>> {
        m.path(s, a, b).map(Iterator::collect)
    }

    /// Reference row-first L-shaped path, excluding both endpoints: the
    /// legacy healthy-fabric routing shape.
    fn ref_row_first(s: &CgraSpec, from: usize, to: usize) -> Vec<usize> {
        let (fr, fc) = s.coords(from);
        let (tr, tc) = s.coords(to);
        let mut tiles = Vec::new();
        let mut c = fc;
        while c != tc {
            c = if c < tc { c + 1 } else { c - 1 };
            tiles.push(fr * s.cols + c);
        }
        let mut r = fr;
        while r != tr {
            r = if r < tr { r + 1 } else { r - 1 };
            tiles.push(r * s.cols + tc);
        }
        tiles.pop(); // drop destination
        tiles
    }

    /// Reference detours: BFS from `src` over alive tiles and links,
    /// neighbours up, down, left, right; the intermediates of every
    /// reachable destination follow the BFS parents.
    fn ref_bfs_paths(
        s: &CgraSpec,
        dead: &[usize],
        links: &[(usize, usize)],
        src: usize,
    ) -> Vec<Option<Vec<usize>>> {
        let n = s.len();
        let alive = |t: usize| !dead.contains(&t);
        let link_ok = |a: usize, b: usize| !links.contains(&(a, b)) && !links.contains(&(b, a));
        let mut parent = vec![usize::MAX; n];
        let mut seen = vec![false; n];
        let mut queue = std::collections::VecDeque::new();
        if alive(src) {
            seen[src] = true;
            queue.push_back(src);
        }
        while let Some(u) = queue.pop_front() {
            let (r, c) = s.coords(u);
            let mut nbs = Vec::new();
            if r > 0 {
                nbs.push(u - s.cols);
            }
            if r + 1 < s.rows {
                nbs.push(u + s.cols);
            }
            if c > 0 {
                nbs.push(u - 1);
            }
            if c + 1 < s.cols {
                nbs.push(u + 1);
            }
            for v in nbs {
                if alive(v) && link_ok(u, v) && !seen[v] {
                    seen[v] = true;
                    parent[v] = u;
                    queue.push_back(v);
                }
            }
        }
        (0..n)
            .map(|dst| {
                if !seen[dst] {
                    return None;
                }
                let mut inter = Vec::new();
                let mut cur = dst;
                while parent[cur] != usize::MAX && parent[cur] != src {
                    cur = parent[cur];
                    inter.push(cur);
                }
                inter.reverse();
                Some(inter)
            })
            .collect()
    }

    #[test]
    fn path_walk_matches_reference_on_every_pair() {
        // (rows, cols, dead tiles, dead links): each degraded mask detours,
        // and the 1×5 one disconnects the row
        let cases = [
            (1, 5, vec![2], vec![]),
            (2, 3, vec![1], vec![(3, 4)]),
            (4, 4, vec![5, 6], vec![(9, 10)]),
            (8, 8, vec![9, 27, 36], vec![(0, 1), (50, 58)]),
            (16, 16, vec![17, 100, 119, 200], vec![(0, 16), (130, 131), (254, 255)]),
        ];
        for (rows, cols, dead, links) in cases {
            let s = CgraSpec::universal(rows, cols);
            let full = ResourceMask::full(&s);
            let m = ResourceMask::degraded(&s, dead.iter().copied(), links.iter().copied());
            assert!(!m.is_full());
            for a in 0..s.len() {
                let reference = ref_bfs_paths(&s, &dead, &links, a);
                for (b, detour) in reference.iter().enumerate() {
                    let walk = path_vec(&full, &s, a, b);
                    assert_eq!(walk, Some(ref_row_first(&s, a, b)), "{rows}x{cols} full {a}->{b}");
                    assert_eq!(&path_vec(&m, &s, a, b), detour, "{rows}x{cols} {a}->{b}");
                    if a == b {
                        assert_eq!(walk, Some(vec![]));
                    }
                }
            }
        }
    }

    #[test]
    fn full_mask_matches_legacy_geometry() {
        let s = spec();
        let m = ResourceMask::full(&s);
        assert!(m.is_full());
        for a in 0..s.len() {
            for b in 0..s.len() {
                assert_eq!(m.hops(&s, a, b), Some(s.hops(a, b)));
            }
        }
    }

    #[test]
    fn empty_fault_set_degenerates_to_full() {
        let s = spec();
        let m = ResourceMask::degraded(&s, [], []);
        assert!(m.is_full());
        assert_eq!(m, ResourceMask::full(&s));
    }

    #[test]
    fn degraded_hops_match_manhattan_when_unobstructed() {
        // killing tile 15 (corner) leaves all other pairs at Manhattan
        // distance on a 4x4 mesh
        let s = spec();
        let m = ResourceMask::degraded(&s, [15], []);
        for a in 0..15 {
            for b in 0..15 {
                assert_eq!(m.hops(&s, a, b), Some(s.hops(a, b)), "{a}->{b}");
            }
        }
        assert_eq!(m.hops(&s, 0, 15), None);
        assert_eq!(m.hops(&s, 15, 0), None);
        assert!(!m.tile_alive(15));
        assert_eq!(m.alive_count(), 15);
    }

    #[test]
    fn dead_tile_forces_detour() {
        // 1x3 row: killing the middle tile disconnects the ends
        let s = CgraSpec::universal(1, 3);
        let m = ResourceMask::degraded(&s, [1], []);
        assert_eq!(m.hops(&s, 0, 2), None);
        // 2x3: the detour goes through the second row (4 hops instead of 2)
        let s2 = CgraSpec::universal(2, 3);
        let m2 = ResourceMask::degraded(&s2, [1], []);
        assert_eq!(m2.hops(&s2, 0, 2), Some(4));
        let path = path_vec(&m2, &s2, 0, 2).expect("reachable");
        assert_eq!(path.len(), 3, "4 hops = 3 intermediates: {path:?}");
        assert!(!path.contains(&1), "path must avoid the dead tile");
    }

    #[test]
    fn dead_link_blocks_both_directions() {
        let s = CgraSpec::universal(1, 2);
        let m = ResourceMask::degraded(&s, [], [(1, 0)]);
        assert_eq!(m.hops(&s, 0, 1), None);
        assert_eq!(m.hops(&s, 1, 0), None);
        // with an alternative route the link death only detours
        let s2 = CgraSpec::universal(2, 2);
        let m2 = ResourceMask::degraded(&s2, [], [(0, 1)]);
        assert_eq!(m2.hops(&s2, 0, 1), Some(3), "0->2->3->1");
        assert_eq!(path_vec(&m2, &s2, 0, 1), Some(vec![2, 3]));
    }

    #[test]
    fn path_intermediates_are_alive_and_adjacent() {
        let s = spec();
        let m = ResourceMask::degraded(&s, [5, 6], [(9, 10)]);
        for a in 0..s.len() {
            for b in 0..s.len() {
                if !m.tile_alive(a) || !m.tile_alive(b) {
                    assert_eq!(m.hops(&s, a, b), None);
                    continue;
                }
                let Some(path) = path_vec(&m, &s, a, b) else { continue };
                let hops = m.hops(&s, a, b).expect("path implies hops");
                if a == b {
                    assert_eq!(hops, 0);
                    assert!(path.is_empty());
                    continue;
                }
                assert_eq!(path.len() as u32, hops - 1, "{a}->{b}");
                let full: Vec<usize> =
                    std::iter::once(a).chain(path.iter().copied()).chain([b]).collect();
                for w in full.windows(2) {
                    assert_eq!(s.hops(w[0], w[1]), 1, "non-adjacent step in {full:?}");
                    assert!(m.tile_alive(w[1]));
                    assert!(
                        !m.dead_links.contains(&(w[0].min(w[1]), w[0].max(w[1]))),
                        "path {full:?} crosses dead link"
                    );
                }
            }
        }
    }

    #[test]
    fn degraded_is_deterministic() {
        let s = spec();
        let a = ResourceMask::degraded(&s, [3, 7], [(0, 1), (8, 12)]);
        let b = ResourceMask::degraded(&s, [7, 3], [(1, 0), (12, 8)]);
        assert_eq!(a, b, "construction order and link direction are irrelevant");
    }
}
