//! The in-memory gazetteer: district table, name indexes, centroid R-tree,
//! synthetic footprints and the district atlas that answers most points by
//! array index.

use std::collections::HashMap;
use std::sync::OnceLock;

use stir_geoindex::{BBox, Point, Polygon, RTree};

use crate::data;
use crate::district::{District, DistrictId, Province};

/// Bounding box generously covering South Korea; points outside are rejected
/// by the reverse geocoder before any index lookup.
pub const KOREA_BBOX: BBox = BBox {
    min_lat: 32.5,
    min_lon: 124.0,
    max_lat: 39.5,
    max_lon: 132.0,
};

/// Atlas cells per degree on both axes: a cell is 0.005° on a side.
const ATLAS_CELLS_PER_DEG: f64 = 200.0;
/// Atlas rows: 7° of latitude in [`KOREA_BBOX`].
const ATLAS_ROWS: usize = 1_400;
/// Atlas columns: 8° of longitude in [`KOREA_BBOX`].
const ATLAS_COLS: usize = 1_600;
/// How far inside its district's footprint every corner of a pure cell
/// lies, in degrees.
const ATLAS_EPS: f64 = 1e-7;
/// How much nearer its district's centroid every corner of a pure cell
/// is than any other centroid, in squared degrees of
/// [`Point::approx_dist2`].
const ATLAS_DELTA: f64 = 1e-8;
/// A footprint at least this wide in longitude gets no pure cells: the
/// soundness argument below bounds curvature by this span.
const ATLAS_MAX_LON_SPAN: f64 = 1.0;
/// The cell value for "not pure: ask the walk".
const IMPURE: u16 = u16::MAX;

/// The process-wide atlas. Every [`Gazetteer`] is loaded from the same
/// [`data::DISTRICTS`] table, so the first load builds it and every later
/// load shares it.
static ATLAS: OnceLock<Atlas> = OnceLock::new();

/// The district atlas: one `u16` per 0.005° cell over [`KOREA_BBOX`]
/// (1,400 × 1,600 cells, 4.5 MB), holding district d where the cell is
/// *pure* for d and [`IMPURE`] everywhere else.
///
/// **Pure-cell rule.** A cell is pure for district d when
/// 1. d's footprint is convex (every turn of its ring has the same sign)
///    and spans less than [`ATLAS_MAX_LON_SPAN`] of longitude;
/// 2. each of the cell's four corners lies inside that footprint with a
///    margin: its signed distance to every edge exceeds [`ATLAS_EPS`];
/// 3. at each corner q, `q.approx_dist2(c_d) + ATLAS_DELTA <
///    q.approx_dist2(c)` for every other centroid c.
///
/// **Why it is sound.** [`Gazetteer::resolve_point_walk`] ranks centroids
/// with `RTree::nearest_k`, which orders them by `query.approx_dist2`.
/// Take f(q) = `q.approx_dist2(c) − q.approx_dist2(c_d)`. At a fixed
/// latitude f is linear in longitude (the squared longitude terms cancel),
/// so over the cell f is smallest on one of its two vertical edges. Along
/// such an edge f is a linear term plus G·cos²(lat), with G constant. If
/// G ≥ 0 that is concave on Korean latitudes and stays above the chord
/// between the corners. If G < 0, the edge is nearer c than c_d in
/// longitude, so |G| is below the squared longitude span of d's footprint,
/// under 1; the curve then dips below the chord by at most
/// (0.005²/8)·2(π/180)²·|G| < 2·10⁻⁹ deg². Rule 3 gives a chord above
/// [`ATLAS_DELTA`] = 10⁻⁸, so f > 0 on the whole cell: d is strictly the
/// first candidate of the walk everywhere in it. Rule 2 and convexity put
/// the whole cell inside d's footprint, so the walk's containment test
/// accepts that first candidate and returns d. Both margins also absorb the
/// f64 rounding of corner coordinates and of a point's cell index, which
/// is below 10⁻¹³°.
///
/// The build skips centroids that cannot beat d anywhere inside d's
/// footprint. For a query q there, `approx_dist2` is a squared norm with
/// longitude weight cos(q.lat), so by the triangle inequality c is farther
/// than c_d whenever ‖c − c_d‖ exceeds twice the footprint's reach from
/// c_d. The weight is bounded by the footprint's latitude range in the
/// direction that makes the skip conservative; a test pins the filtered
/// build equal to the one that checks every centroid.
struct Atlas {
    cells: Box<[u16]>,
}

impl Atlas {
    /// The process-wide atlas, built from these districts on first use.
    fn shared(centroids: &[Point], footprints: &[Polygon]) -> &'static Atlas {
        ATLAS.get_or_init(|| Atlas::build(centroids, footprints, true))
    }

    /// Proves every cell of every footprint; `skip_far` enables the
    /// triangle-inequality filter on competing centroids.
    fn build(centroids: &[Point], footprints: &[Polygon], skip_far: bool) -> Atlas {
        let mut cells = vec![IMPURE; ATLAS_ROWS * ATLAS_COLS].into_boxed_slice();
        let mut corners = Vec::new();
        for (d, footprint) in footprints.iter().enumerate() {
            let Some(edges) = inward_edges(footprint) else {
                continue;
            };
            let own = centroids[d];
            let rivals = if skip_far {
                rivals_within_reach(d, centroids, footprint)
            } else {
                let mut all = centroids.to_vec();
                all.remove(d);
                all
            };
            // Corner indices inside the footprint's bbox; a cell needs two
            // corner rows and two corner columns.
            let b = footprint.bbox();
            let (r0, r1) = corner_span(b.min_lat, b.max_lat, KOREA_BBOX.min_lat, ATLAS_ROWS);
            let (c0, c1) = corner_span(b.min_lon, b.max_lon, KOREA_BBOX.min_lon, ATLAS_COLS);
            if r1 <= r0 || c1 <= c0 {
                continue;
            }
            // Each corner is proved once and shared by its four cells.
            let width = c1 - c0 + 1;
            corners.clear();
            for r in r0..=r1 {
                let lat = corner(KOREA_BBOX.min_lat, r);
                let coslat = lat.to_radians().cos();
                for c in c0..=c1 {
                    let q = Point::new(lat, corner(KOREA_BBOX.min_lon, c));
                    corners.push(
                        edges.iter().all(|e| e.depth(q) > ATLAS_EPS)
                            && nearest_by_margin(q, coslat, own, &rivals),
                    );
                }
            }
            for r in r0..r1 {
                for c in c0..c1 {
                    let k = (r - r0) * width + (c - c0);
                    if corners[k] && corners[k + 1] && corners[k + width] && corners[k + width + 1]
                    {
                        // Rule 3 is strict, so no cell is pure for two
                        // districts.
                        debug_assert_eq!(cells[r * ATLAS_COLS + c], IMPURE);
                        cells[r * ATLAS_COLS + c] = d as u16;
                    }
                }
            }
        }
        Atlas { cells }
    }

    /// The district of a point's cell when the cell is pure. `p` must lie
    /// in [`KOREA_BBOX`]; its north and east edges fall outside the grid
    /// and get `None`.
    #[inline]
    fn get(&self, p: Point) -> Option<DistrictId> {
        let row = ((p.lat - KOREA_BBOX.min_lat) * ATLAS_CELLS_PER_DEG) as usize;
        let col = ((p.lon - KOREA_BBOX.min_lon) * ATLAS_CELLS_PER_DEG) as usize;
        if row >= ATLAS_ROWS || col >= ATLAS_COLS {
            return None;
        }
        match self.cells[row * ATLAS_COLS + col] {
            IMPURE => None,
            d => Some(DistrictId(d)),
        }
    }
}

/// Coordinate of grid line `i` above `origin`.
fn corner(origin: f64, i: usize) -> f64 {
    origin + i as f64 / ATLAS_CELLS_PER_DEG
}

/// The grid lines `[first, last]` that fall within `[lo, hi]`, clamped to
/// a grid of `cells` cells starting at `origin`.
fn corner_span(lo: f64, hi: f64, origin: f64, cells: usize) -> (usize, usize) {
    let first = ((lo - origin) * ATLAS_CELLS_PER_DEG).ceil().max(0.0) as usize;
    let last = ((hi - origin) * ATLAS_CELLS_PER_DEG)
        .floor()
        .clamp(0.0, cells as f64) as usize;
    (first, last)
}

/// One footprint edge as a half-plane: a point on it and the inward unit
/// normal, in (lat, lon) degree coordinates.
struct Edge {
    from: Point,
    normal_lat: f64,
    normal_lon: f64,
}

impl Edge {
    /// Signed distance of `q` from the edge's line, positive inside.
    #[inline]
    fn depth(&self, q: Point) -> f64 {
        self.normal_lat * (q.lat - self.from.lat) + self.normal_lon * (q.lon - self.from.lon)
    }
}

/// The footprint's edges as inward half-planes when the footprint is convex
/// and narrower than [`ATLAS_MAX_LON_SPAN`]; `None` otherwise. A simple
/// ring whose turns all share one sign is convex.
fn inward_edges(footprint: &Polygon) -> Option<Vec<Edge>> {
    let v = footprint.vertices();
    let n = v.len();
    let b = footprint.bbox();
    if b.max_lon - b.min_lon >= ATLAS_MAX_LON_SPAN {
        return None;
    }
    // z of (b − a) × (c − b) in the (lon, lat) plane.
    let turn = |i: usize| {
        let (a, b, c) = (v[i], v[(i + 1) % n], v[(i + 2) % n]);
        (b.lon - a.lon) * (c.lat - b.lat) - (b.lat - a.lat) * (c.lon - b.lon)
    };
    let orientation = turn(0).signum();
    if turn(0) == 0.0 || (0..n).any(|i| turn(i) * orientation <= 0.0) {
        return None;
    }
    Some(
        (0..n)
            .map(|i| {
                let (a, b) = (v[i], v[(i + 1) % n]);
                let (dlat, dlon) = (b.lat - a.lat, b.lon - a.lon);
                // The interior lies left of a counter-clockwise ring in the
                // (lon, lat) plane, right of a clockwise one.
                let scale = orientation / dlat.hypot(dlon);
                Edge {
                    from: a,
                    normal_lat: dlon * scale,
                    normal_lon: -dlat * scale,
                }
            })
            .collect(),
    )
}

/// Rule 3 at corner `q`: `own` beats every rival by [`ATLAS_DELTA`]. This
/// is [`Point::approx_dist2`] with the corner row's cosine hoisted.
#[inline]
fn nearest_by_margin(q: Point, coslat: f64, own: Point, rivals: &[Point]) -> bool {
    let dist2 = |c: Point| {
        let dlat = q.lat - c.lat;
        let dlon = (q.lon - c.lon) * coslat;
        dlat * dlat + dlon * dlon
    };
    let bound = dist2(own) + ATLAS_DELTA;
    rivals.iter().all(|&c| bound < dist2(c))
}

/// The centroids that may be nearer than district `d`'s own somewhere in
/// its (convex) footprint, nearest first so rule 3 fails fast.
///
/// For q in the footprint, `q.approx_dist2` is the square of the norm
/// ‖(Δlat, k·Δlon)‖ with k = cos(q.lat) between `k_lo` and `k_hi`. The
/// footprint's reach from `own` under `k_hi` bounds ‖q − own‖ (a convex
/// function peaks at a vertex); the separation under `k_lo` bounds
/// ‖c − own‖ from below. A rival more than twice the reach (plus 10⁻³°)
/// away is then farther from q than `own` by far more than
/// [`ATLAS_DELTA`].
fn rivals_within_reach(d: usize, centroids: &[Point], footprint: &Polygon) -> Vec<Point> {
    let own = centroids[d];
    let b = footprint.bbox();
    let k_lo = b.max_lat.to_radians().cos();
    let k_hi = b.min_lat.to_radians().cos();
    let norm = |p: Point, k: f64| (p.lat - own.lat).hypot((p.lon - own.lon) * k);
    let reach = footprint
        .vertices()
        .iter()
        .map(|&v| norm(v, k_hi))
        .fold(0.0, f64::max);
    let mut rivals: Vec<(f64, Point)> = centroids
        .iter()
        .enumerate()
        .filter(|&(i, _)| i != d)
        .map(|(_, &c)| (norm(c, k_lo), c))
        .filter(|&(sep, _)| sep <= 2.0 * reach + 1e-3)
        .collect();
    rivals.sort_by(|a, b| a.0.total_cmp(&b.0));
    rivals.into_iter().map(|(_, c)| c).collect()
}

/// The gazetteer: every 2011-era district with lookup structures.
///
/// Build once with [`Gazetteer::load`] (cheap — a few hundred rows; the
/// first load in a process also builds the shared district atlas, about
/// 20 ms in a release build) and share by reference; all methods take
/// `&self`.
///
/// ```
/// use stir_geoindex::Point;
/// use stir_geokr::Gazetteer;
///
/// let gazetteer = Gazetteer::load();
/// assert_eq!(gazetteer.len(), 229);
/// let id = gazetteer.resolve_point(Point::new(37.517, 127.047)).unwrap();
/// assert_eq!(gazetteer.district(id).name_en, "Gangnam-gu");
/// ```
pub struct Gazetteer {
    districts: Vec<District>,
    footprints: Vec<Polygon>,
    /// lowercase romanized name (with suffix) → district ids
    by_name_en: HashMap<String, Vec<DistrictId>>,
    /// Korean name → district ids
    by_name_ko: HashMap<String, Vec<DistrictId>>,
    /// centroid index; item order == district id order
    centroid_tree: RTree<Point>,
    /// cumulative population weights for weighted sampling
    cumulative_pop: Vec<f64>,
    total_pop: f64,
    /// the process-wide district atlas
    atlas: &'static Atlas,
}

impl Gazetteer {
    /// Builds the gazetteer from the static 2011 table, sharing the
    /// process-wide district atlas (built by the first call).
    pub fn load() -> Self {
        let mut districts = Vec::with_capacity(data::DISTRICTS.len());
        let mut footprints = Vec::with_capacity(data::DISTRICTS.len());
        let mut by_name_en: HashMap<String, Vec<DistrictId>> = HashMap::new();
        let mut by_name_ko: HashMap<String, Vec<DistrictId>> = HashMap::new();
        let mut cumulative_pop = Vec::with_capacity(data::DISTRICTS.len());
        let mut total_pop = 0.0;

        for (i, &(province, name_en, name_ko, kind, lat, lon, pop_k, area)) in
            data::DISTRICTS.iter().enumerate()
        {
            let id = DistrictId(i as u16);
            let centroid = Point::new(lat, lon);
            let d = District {
                id,
                name_en,
                name_ko,
                province,
                kind,
                centroid,
                population_k: pop_k,
                area_km2: area,
            };
            // A rounded polygon footprint with the district's area; vertex
            // count varies with the id so footprints are not all identical.
            let sides = 9 + (i % 7);
            let footprint = Polygon::regular(centroid, d.footprint_radius_km(), sides)
                .expect("regular polygon parameters are valid");
            by_name_en
                .entry(name_en.to_ascii_lowercase())
                .or_default()
                .push(id);
            by_name_ko.entry(name_ko.to_string()).or_default().push(id);
            total_pop += pop_k as f64;
            cumulative_pop.push(total_pop);
            districts.push(d);
            footprints.push(footprint);
        }

        let centroids: Vec<Point> = districts.iter().map(|d| d.centroid).collect();
        let atlas = Atlas::shared(&centroids, &footprints);
        let centroid_tree = RTree::bulk_load(centroids);
        Gazetteer {
            districts,
            footprints,
            by_name_en,
            by_name_ko,
            centroid_tree,
            cumulative_pop,
            total_pop,
            atlas,
        }
    }

    /// Number of districts (229 for the 2011 table).
    pub fn len(&self) -> usize {
        self.districts.len()
    }

    /// Always false for a loaded gazetteer.
    pub fn is_empty(&self) -> bool {
        self.districts.is_empty()
    }

    /// District by id.
    ///
    /// # Panics
    /// Panics if the id does not belong to this gazetteer.
    pub fn district(&self, id: DistrictId) -> &District {
        &self.districts[id.0 as usize]
    }

    /// All districts in id order.
    pub fn districts(&self) -> &[District] {
        &self.districts
    }

    /// The synthetic polygon footprint of a district.
    pub fn footprint(&self, id: DistrictId) -> &Polygon {
        &self.footprints[id.0 as usize]
    }

    /// Districts belonging to `province`.
    pub fn districts_in(&self, province: Province) -> impl Iterator<Item = &District> {
        self.districts
            .iter()
            .filter(move |d| d.province == province)
    }

    /// Exact lookup by romanized name (case-insensitive, suffix included).
    /// Several districts may share a name across provinces (every large city
    /// has a "Jung-gu"), hence the slice result.
    pub fn find_by_name_en(&self, name: &str) -> &[DistrictId] {
        self.by_name_en
            .get(&name.to_ascii_lowercase())
            .map_or(&[], |v| v.as_slice())
    }

    /// Exact lookup by Korean name.
    pub fn find_by_name_ko(&self, name: &str) -> &[DistrictId] {
        self.by_name_ko.get(name).map_or(&[], |v| v.as_slice())
    }

    /// The district uniquely keyed by `(state, county)` — the pair a
    /// [`crate::LocationRecord`] carries (province English name + district
    /// romanized name). District names repeat across provinces (every large
    /// city has a "Jung-gu") but are unique within one, so the pair
    /// identifies at most one district. Used to reattach the district id to
    /// records parsed back from the Yahoo XML, which does not carry ids.
    pub fn find_district(&self, state: &str, county: &str) -> Option<DistrictId> {
        self.find_by_name_en(county)
            .iter()
            .copied()
            .find(|&id| self.district(id).province.name_en() == state)
    }

    /// The district whose centroid is nearest to `p`, together with the
    /// distance in km, or `None` when `p` is outside [`KOREA_BBOX`].
    pub fn nearest_district(&self, p: Point) -> Option<(DistrictId, f64)> {
        if !KOREA_BBOX.contains(p) {
            return None;
        }
        let (idx, _) = self.centroid_tree.nearest(p)?;
        let d = &self.districts[idx];
        Some((d.id, p.haversine_km(d.centroid)))
    }

    /// The `k` districts whose centroids are nearest to `p`, nearest-first.
    /// Unlike [`Gazetteer::nearest_district`] this does not reject points
    /// outside Korea — callers use it for "districts around here" queries.
    pub fn nearest_districts(&self, p: Point, k: usize) -> Vec<DistrictId> {
        self.centroid_tree
            .nearest_k(p, k)
            .into_iter()
            .map(|(idx, _)| self.districts[idx].id)
            .collect()
    }

    /// Districts adjacent to `id`: footprints whose circles overlap (with a
    /// 15% slack for the polygonal approximation). Does not include `id`.
    pub fn adjacent_districts(&self, id: DistrictId) -> Vec<DistrictId> {
        let d = self.district(id);
        self.centroid_tree
            .nearest_k(d.centroid, 16)
            .into_iter()
            .map(|(idx, _)| &self.districts[idx])
            .filter(|other| {
                other.id != id
                    && d.centroid.haversine_km(other.centroid)
                        <= 1.15 * (d.footprint_radius_km() + other.footprint_radius_km())
            })
            .map(|other| other.id)
            .collect()
    }

    /// Resolves `p` to a district, or `None` outside [`KOREA_BBOX`]. Always
    /// the answer of [`Gazetteer::resolve_point_walk`]: the district atlas
    /// answers points in cells it proved pure by array index, and every
    /// other point takes the walk. This is the semantic the mock Yahoo
    /// endpoint exposes.
    pub fn resolve_point(&self, p: Point) -> Option<DistrictId> {
        self.resolve_point_traced(p).0
    }

    /// [`Gazetteer::resolve_point`], also saying whether the atlas answered
    /// (`true`) rather than the walk.
    #[inline]
    pub(crate) fn resolve_point_traced(&self, p: Point) -> (Option<DistrictId>, bool) {
        if !KOREA_BBOX.contains(p) {
            return (None, false);
        }
        match self.atlas.get(p) {
            Some(id) => (Some(id), true),
            None => (self.walk(p), false),
        }
    }

    /// The polygon walk that defines [`Gazetteer::resolve_point`]:
    /// polygon containment first (checking the nearest few footprints by
    /// centroid), falling back to the nearest centroid. The reference every
    /// atlas test compares against.
    pub fn resolve_point_walk(&self, p: Point) -> Option<DistrictId> {
        if !KOREA_BBOX.contains(p) {
            return None;
        }
        self.walk(p)
    }

    fn walk(&self, p: Point) -> Option<DistrictId> {
        let candidates = self.centroid_tree.nearest_k(p, 4);
        for &(idx, _) in &candidates {
            if self.footprints[idx].contains(p) {
                return Some(self.districts[idx].id);
            }
        }
        candidates.first().map(|&(idx, _)| self.districts[idx].id)
    }

    /// Maps a uniform draw in `[0, 1)` to a district, weighted by 2011
    /// population. Deterministic: the caller supplies the randomness.
    pub fn weighted_district(&self, u: f64) -> DistrictId {
        let target = u.clamp(0.0, 0.999_999_999) * self.total_pop;
        let idx = self.cumulative_pop.partition_point(|&c| c <= target);
        self.districts[idx.min(self.districts.len() - 1)].id
    }

    /// Draws a point inside the district's footprint, driven by the caller's
    /// uniform source.
    pub fn sample_point_in<F: FnMut() -> f64>(&self, id: DistrictId, uniform01: F) -> Point {
        self.footprints[id.0 as usize].sample_interior(uniform01)
    }

    /// Like [`Gazetteer::sample_point_in`], but contracts the draw toward
    /// the district centroid by `scale` in `(0, 1]`. People cluster around
    /// district centres (stations, downtowns), and the contraction keeps
    /// synthetic GPS fixes away from footprint borders where neighbouring
    /// districts overlap — matching how rarely a real fix geocodes into the
    /// adjacent district.
    pub fn sample_point_in_scaled<F: FnMut() -> f64>(
        &self,
        id: DistrictId,
        scale: f64,
        uniform01: F,
    ) -> Point {
        let p = self.footprints[id.0 as usize].sample_interior(uniform01);
        let c = self.districts[id.0 as usize].centroid;
        let s = scale.clamp(0.0, 1.0);
        Point::new(c.lat + (p.lat - c.lat) * s, c.lon + (p.lon - c.lon) * s)
    }

    /// Synthesizes a deterministic neighbourhood ("town") label for a point
    /// inside a district — fidelity filler for the `<town>` element of the
    /// Yahoo response; the analysis never reads it.
    pub fn town_label(&self, id: DistrictId, p: Point) -> String {
        let d = self.district(id);
        // Quantize the point so nearby coordinates share a town.
        let qx = (p.lat * 50.0).floor() as i64;
        let qy = (p.lon * 50.0).floor() as i64;
        let h = (qx.wrapping_mul(0x9E37_79B9) ^ qy.wrapping_mul(0x85EB_CA6B)).unsigned_abs();
        format!("{} {}-dong", d.stem_en(), h % 26 + 1)
    }
}

impl Default for Gazetteer {
    fn default() -> Self {
        Self::load()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn gaz() -> &'static Gazetteer {
        static GAZ: OnceLock<Gazetteer> = OnceLock::new();
        GAZ.get_or_init(Gazetteer::load)
    }

    /// A seeded uniform source in `[0, 1)` (xorshift64*).
    fn uniform(seed: u64) -> impl FnMut() -> f64 {
        let mut state = seed.max(1);
        move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state.wrapping_mul(0x2545_F491_4F6C_DD1D) >> 11) as f64 / (1u64 << 53) as f64
        }
    }

    /// Every pure cell as `(row, col, district)`.
    fn pure_cells(atlas: &Atlas) -> impl Iterator<Item = (usize, usize, DistrictId)> + '_ {
        atlas
            .cells
            .iter()
            .enumerate()
            .filter(|&(_, &d)| d != IMPURE)
            .map(|(k, &d)| (k / ATLAS_COLS, k % ATLAS_COLS, DistrictId(d)))
    }

    /// The point at fractions `(u, v)` across cell `(row, col)`; `(0, 0)`
    /// is its south-west corner and `(1, 1)` its north-east one.
    fn in_cell(row: usize, col: usize, u: f64, v: f64) -> Point {
        let lat = corner(KOREA_BBOX.min_lat, row);
        let lon = corner(KOREA_BBOX.min_lon, col);
        Point::new(lat + u / ATLAS_CELLS_PER_DEG, lon + v / ATLAS_CELLS_PER_DEG)
    }

    #[test]
    fn two_loads_share_one_atlas() {
        let a = Gazetteer::load();
        let b = Gazetteer::load();
        assert!(std::ptr::eq(a.atlas, b.atlas));
        assert!(std::ptr::eq(a.atlas, gaz().atlas));
    }

    #[test]
    fn atlas_answers_most_sampled_fixes() {
        // Drawn like the tweet generator's fixes: a population-weighted
        // district, then a point contracted toward its centre. An atlas
        // that proved no cell pure would answer none of them.
        let g = gaz();
        let mut next = uniform(2012);
        let total = 20_000;
        let mut answered = 0;
        for _ in 0..total {
            let id = g.weighted_district(next());
            let p = g.sample_point_in_scaled(id, 0.6, &mut next);
            let (answer, by_atlas) = g.resolve_point_traced(p);
            assert_eq!(answer, g.resolve_point_walk(p), "{p}");
            answered += usize::from(by_atlas);
        }
        assert!(
            answered * 100 >= total * 85,
            "atlas answered only {answered} of {total} fixes"
        );
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// The atlas never changes an answer: anywhere in the coverage box,
        /// and within 1e-7° of a pure cell's corners and edges, where a
        /// rounding slip in the cell index would show.
        #[test]
        fn atlas_answers_like_the_walk(
            lat in 32.5f64..39.5,
            lon in 124.0f64..132.0,
            start in 0usize..ATLAS_ROWS * ATLAS_COLS,
            t in 0.0f64..1.0,
            dlat in -1e-7f64..1e-7,
            dlon in -1e-7f64..1e-7,
        ) {
            let g = gaz();
            let p = Point::new(lat, lon);
            prop_assert_eq!(g.resolve_point(p), g.resolve_point_walk(p));
            let cells = &g.atlas.cells;
            let k = (start..start + cells.len())
                .map(|k| k % cells.len())
                .find(|&k| cells[k] != IMPURE)
                .expect("the atlas has pure cells");
            let (row, col) = (k / ATLAS_COLS, k % ATLAS_COLS);
            let rims = [
                (0.0, 0.0), (0.0, 1.0), (1.0, 0.0), (1.0, 1.0),
                (0.0, t), (1.0, t), (t, 0.0), (t, 1.0),
            ];
            for (u, v) in rims {
                let rim = in_cell(row, col, u, v);
                for (sa, so) in [(1.0, 1.0), (1.0, -1.0), (-1.0, 1.0), (-1.0, -1.0)] {
                    let q = Point::new(rim.lat + sa * dlat, rim.lon + so * dlon);
                    prop_assert_eq!(g.resolve_point(q), g.resolve_point_walk(q), "{}", q);
                }
            }
        }
    }

    #[test]
    #[ignore = "release-speed proof check: cargo test --release -p stir-geokr -- --ignored atlas"]
    fn atlas_filtered_build_equals_all_competitor_build() {
        let g = gaz();
        let centroids: Vec<Point> = g.districts.iter().map(|d| d.centroid).collect();
        let full = Atlas::build(&centroids, &g.footprints, false);
        let mismatches = full
            .cells
            .iter()
            .zip(g.atlas.cells.iter())
            .filter(|(a, b)| a != b)
            .count();
        assert_eq!(mismatches, 0);
        assert!(pure_cells(&full).count() > 0);
    }

    #[test]
    #[ignore = "release-speed proof check: cargo test --release -p stir-geokr -- --ignored atlas"]
    fn atlas_pure_cells_answer_like_the_walk() {
        let g = gaz();
        let mut next = uniform(17);
        let mut checked = 0u64;
        for (row, col, d) in pure_cells(g.atlas) {
            let mut probes = vec![(0.0, 0.0), (0.0, 1.0), (1.0, 0.0), (1.0, 1.0), (0.5, 0.5)];
            probes.extend((0..16).map(|_| (next(), next())));
            for (u, v) in probes {
                let q = in_cell(row, col, u, v);
                assert_eq!(
                    g.resolve_point_walk(q),
                    Some(d),
                    "cell ({row}, {col}) at {q}"
                );
                checked += 1;
            }
        }
        assert!(checked > 0);
    }

    #[test]
    fn load_has_full_table() {
        let g = Gazetteer::load();
        assert_eq!(g.len(), 229);
        assert!(!g.is_empty());
    }

    #[test]
    fn find_by_name_handles_ambiguity() {
        let g = Gazetteer::load();
        // "Jung-gu" exists in Seoul, Busan, Daegu, Incheon, Daejeon, Ulsan.
        let hits = g.find_by_name_en("Jung-gu");
        assert_eq!(hits.len(), 6, "Jung-gu provinces: {hits:?}");
        let unique = g.find_by_name_en("Yangcheon-gu");
        assert_eq!(unique.len(), 1);
        assert_eq!(g.district(unique[0]).province, Province::Seoul);
        assert!(g.find_by_name_en("Atlantis-gu").is_empty());
    }

    #[test]
    fn find_by_name_is_case_insensitive() {
        let g = Gazetteer::load();
        assert_eq!(
            g.find_by_name_en("GANGNAM-GU"),
            g.find_by_name_en("gangnam-gu")
        );
        assert_eq!(g.find_by_name_en("Gangnam-gu").len(), 1);
    }

    #[test]
    fn find_district_disambiguates_by_state() {
        let g = Gazetteer::load();
        let seoul = g.find_district("Seoul", "Jung-gu").unwrap();
        let busan = g.find_district("Busan", "Jung-gu").unwrap();
        assert_ne!(seoul, busan);
        assert_eq!(g.district(seoul).province, Province::Seoul);
        assert_eq!(g.district(busan).province, Province::Busan);
        assert!(g.find_district("Seoul", "Haeundae-gu").is_none());
        assert!(g.find_district("Atlantis", "Jung-gu").is_none());
        // Round trip: every district is found by its own (state, county).
        for d in g.districts() {
            assert_eq!(g.find_district(d.province.name_en(), d.name_en), Some(d.id));
        }
    }

    #[test]
    fn korean_name_lookup() {
        let g = Gazetteer::load();
        let hits = g.find_by_name_ko("강남구");
        assert_eq!(hits.len(), 1);
        assert_eq!(g.district(hits[0]).name_en, "Gangnam-gu");
    }

    #[test]
    fn centroid_resolves_to_own_district() {
        let g = Gazetteer::load();
        for d in g.districts() {
            let resolved = g.resolve_point(d.centroid).unwrap();
            assert_eq!(
                resolved,
                d.id,
                "centroid of {} resolved to {}",
                d.name_en,
                g.district(resolved).name_en
            );
        }
    }

    #[test]
    fn nearest_district_rejects_points_outside_korea() {
        let g = Gazetteer::load();
        assert!(g.nearest_district(Point::new(48.85, 2.35)).is_none()); // Paris
        assert!(g.nearest_district(Point::new(35.68, 139.69)).is_none()); // Tokyo
        assert!(g.nearest_district(Point::new(37.5663, 126.9779)).is_some()); // Seoul
    }

    #[test]
    fn seoul_city_hall_is_in_jung_gu() {
        let g = Gazetteer::load();
        let id = g.resolve_point(Point::new(37.5663, 126.9779)).unwrap();
        let d = g.district(id);
        assert_eq!(d.province, Province::Seoul);
        // City hall sits on the Jung-gu/Jongno-gu boundary; either is correct
        // at the fidelity of synthetic footprints.
        assert!(
            d.name_en == "Jung-gu" || d.name_en == "Jongno-gu",
            "resolved to {}",
            d.name_en
        );
    }

    #[test]
    fn weighted_district_covers_distribution_edges() {
        let g = Gazetteer::load();
        let first = g.weighted_district(0.0);
        assert_eq!(first, DistrictId(0));
        let last = g.weighted_district(0.999_999_999);
        assert_eq!(last.0 as usize, g.len() - 1);
        // Monotone: larger u never maps to a smaller id.
        let mut prev = 0u16;
        for i in 0..100 {
            let id = g.weighted_district(i as f64 / 100.0);
            assert!(id.0 >= prev);
            prev = id.0;
        }
    }

    #[test]
    fn weighted_district_prefers_populous_districts() {
        let g = Gazetteer::load();
        // Sample on a fine uniform lattice and count Seoul vs Jeju draws.
        let mut seoul = 0;
        let mut jeju = 0;
        for i in 0..10_000 {
            let d = g.district(g.weighted_district(i as f64 / 10_000.0));
            match d.province {
                Province::Seoul => seoul += 1,
                Province::Jeju => jeju += 1,
                _ => {}
            }
        }
        assert!(seoul > 10 * jeju, "seoul {seoul} vs jeju {jeju}");
    }

    #[test]
    fn sample_point_resolves_to_sampled_district_mostly() {
        let g = Gazetteer::load();
        let mut state = 0.7317f64;
        let mut next = move || {
            state = (state * 9301.0 + 0.49297).fract();
            state
        };
        let mut hits = 0;
        let total = 500;
        for i in 0..total {
            let id = DistrictId((i % g.len()) as u16);
            let p = g.sample_point_in(id, &mut next);
            if g.resolve_point(p) == Some(id) {
                hits += 1;
            }
        }
        // Footprints overlap near borders, so a perfect score is impossible;
        // the bulk must resolve back. This mirrors real GPS/geocoder noise.
        assert!(hits * 10 >= total * 7, "only {hits}/{total} resolved back");
    }

    #[test]
    fn town_label_is_deterministic_and_prefixed() {
        let g = Gazetteer::load();
        let id = g.find_by_name_en("Gangnam-gu")[0];
        let p = Point::new(37.50, 127.04);
        assert_eq!(g.town_label(id, p), g.town_label(id, p));
        assert!(g.town_label(id, p).starts_with("Gangnam "));
        assert!(g.town_label(id, p).ends_with("-dong"));
    }

    #[test]
    fn adjacency_is_symmetric_and_local() {
        let g = Gazetteer::load();
        let yangcheon = g.find_by_name_en("Yangcheon-gu")[0];
        let adjacent = g.adjacent_districts(yangcheon);
        assert!(!adjacent.is_empty(), "urban gu must have neighbours");
        assert!(!adjacent.contains(&yangcheon));
        for n in &adjacent {
            // Symmetry.
            assert!(
                g.adjacent_districts(*n).contains(&yangcheon),
                "{} not symmetric with Yangcheon-gu",
                g.district(*n).name_en
            );
            // Locality: neighbours are within ~25 km for Seoul gu.
            let d = g
                .district(yangcheon)
                .centroid
                .haversine_km(g.district(*n).centroid);
            assert!(d < 25.0, "{} is {d} km away", g.district(*n).name_en);
        }
        // Jeju island districts are never adjacent to the mainland.
        let jeju = g.find_by_name_en("Jeju-si")[0];
        for n in g.adjacent_districts(jeju) {
            assert_eq!(g.district(n).province, Province::Jeju);
        }
    }

    #[test]
    fn districts_in_province_counts() {
        let g = Gazetteer::load();
        assert_eq!(g.districts_in(Province::Seoul).count(), 25);
        assert_eq!(g.districts_in(Province::Jeju).count(), 2);
    }
}
