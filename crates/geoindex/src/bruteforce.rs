//! The O(n) reference index.
//!
//! Answers the same queries as [`crate::RTree`] by scanning every item.
//! Property tests use it as the oracle; the benchmarks use it as the
//! baseline the R-tree must beat.

use crate::point::{BBox, Point};
use crate::rtree::Spatial;

/// A linear-scan index over items with bounding boxes.
#[derive(Debug, Clone, Default)]
pub struct BruteForceIndex<T: Spatial> {
    items: Vec<T>,
}

impl<T: Spatial> BruteForceIndex<T> {
    /// An empty index.
    pub fn new() -> Self {
        BruteForceIndex { items: Vec::new() }
    }

    /// Wraps an existing item collection.
    pub fn from_items(items: Vec<T>) -> Self {
        BruteForceIndex { items }
    }

    /// Appends an item.
    pub fn insert(&mut self, item: T) {
        self.items.push(item);
    }

    /// Number of items.
    pub fn len(&self) -> usize {
        self.items.len()
    }

    /// True if no items are stored.
    pub fn is_empty(&self) -> bool {
        self.items.is_empty()
    }

    /// Access an item by the index returned from queries.
    pub fn get(&self, idx: usize) -> &T {
        &self.items[idx]
    }

    /// Indices of items whose bbox intersects `query`.
    pub fn query_bbox(&self, query: &BBox) -> Vec<usize> {
        (0..self.items.len())
            .filter(|&i| self.items[i].bbox().intersects(query))
            .collect()
    }

    /// Indices of items whose representative point lies inside `query`.
    pub fn query_points_in(&self, query: &BBox) -> Vec<usize> {
        (0..self.items.len())
            .filter(|&i| query.contains(self.items[i].center()))
            .collect()
    }

    /// The `k` items nearest to `query` by [`Point::approx_dist2`],
    /// nearest-first.
    pub fn nearest_k(&self, query: Point, k: usize) -> Vec<(usize, f64)> {
        let mut all: Vec<(usize, f64)> = self
            .items
            .iter()
            .enumerate()
            .map(|(i, item)| (i, query.approx_dist2(item.center())))
            .collect();
        all.sort_by(|a, b| a.1.partial_cmp(&b.1).unwrap_or(std::cmp::Ordering::Equal));
        all.truncate(k);
        all
    }

    /// The nearest item to `query`, if any.
    pub fn nearest(&self, query: Point) -> Option<(usize, f64)> {
        self.nearest_k(query, 1).into_iter().next()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn basic_queries() {
        let mut ix = BruteForceIndex::new();
        for (lat, lon) in [(37.0, 127.0), (35.0, 129.0), (33.5, 126.5)] {
            ix.insert(Point::new(lat, lon));
        }
        assert_eq!(ix.len(), 3);
        let q = BBox::new(33.0, 125.0, 38.0, 128.0);
        assert_eq!(ix.query_points_in(&q), vec![0, 2]);
        let (i, _) = ix.nearest(Point::new(35.1, 129.1)).unwrap();
        assert_eq!(i, 1);
        assert_eq!(ix.nearest_k(Point::new(37.0, 127.0), 2).len(), 2);
    }
}
