//! Position lists — the intermediate currency of late materialization.
//!
//! Section 5.2: "this list of positions can be represented as a simple
//! array, a bit string ... or as a set of ranges of positions. These
//! position representations are then intersected". [`PosList`] implements
//! all three representations with representation-preserving intersection:
//! range ∩ range stays a range (the common case under between-predicate
//! rewriting on the sorted fact column), bitmaps AND word-wise, and mixed
//! forms degrade gracefully.

use cvr_index::bitmap::RidBitmap;

/// A set of ascending positions within a column of `universe` values.
#[derive(Debug, Clone, PartialEq)]
pub enum PosList {
    /// Contiguous positions `[start, end)`.
    Range {
        /// First position.
        start: u32,
        /// One past the last position.
        end: u32,
        /// Universe size (column length).
        universe: u32,
    },
    /// One bit per position.
    Bitmap(RidBitmap),
    /// Explicit ascending positions.
    Explicit {
        /// The positions, strictly ascending.
        positions: Vec<u32>,
        /// Universe size (column length).
        universe: u32,
    },
}

/// Ascending positions borrowed for extraction: a whole [`PosList`] (serial
/// plans) or one morsel's fragment of the surviving positions.
#[derive(Debug, Clone, Copy)]
pub(crate) enum Positions<'a> {
    /// A whole position list.
    List(&'a PosList),
    /// A strictly ascending slice.
    Slice(&'a [u32]),
}

impl Positions<'_> {
    /// Number of positions.
    pub(crate) fn count(&self) -> usize {
        match self {
            Positions::List(p) => p.count() as usize,
            Positions::Slice(s) => s.len(),
        }
    }

    /// [`PosList::for_each_block`] over either form.
    pub(crate) fn for_each_block(&self, block: usize, f: impl FnMut(&[u32])) {
        match self {
            Positions::List(p) => p.for_each_block(block, f),
            Positions::Slice(s) => s.chunks(block).for_each(f),
        }
    }
}

/// Selectivity threshold (as a divisor of the universe) above which scans
/// prefer a bitmap over an explicit list.
pub const EXPLICIT_LIMIT_DIVISOR: u32 = 16;

impl PosList {
    /// The empty list over `universe`.
    pub fn empty(universe: u32) -> PosList {
        PosList::Explicit { positions: Vec::new(), universe }
    }

    /// Every position in `universe`.
    pub fn all(universe: u32) -> PosList {
        PosList::Range { start: 0, end: universe, universe }
    }

    /// Wrap ascending positions without changing representation — the cheap
    /// constructor for short-lived morsel fragments, where the compact-form
    /// analysis of [`PosList::from_ascending`] would cost more than it saves.
    pub fn explicit(positions: Vec<u32>, universe: u32) -> PosList {
        debug_assert!(positions.windows(2).all(|w| w[0] < w[1]));
        PosList::Explicit { positions, universe }
    }

    /// Build from ascending positions, choosing a compact representation.
    pub fn from_ascending(positions: Vec<u32>, universe: u32) -> PosList {
        debug_assert!(positions.windows(2).all(|w| w[0] < w[1]));
        if !positions.is_empty()
            && positions.len() as u32 == positions[positions.len() - 1] - positions[0] + 1
        {
            return PosList::Range {
                start: positions[0],
                end: positions[positions.len() - 1] + 1,
                universe,
            };
        }
        if positions.len() as u32 > universe / EXPLICIT_LIMIT_DIVISOR {
            let mut bm = RidBitmap::new(universe);
            for p in positions {
                bm.set(p);
            }
            return PosList::Bitmap(bm);
        }
        PosList::Explicit { positions, universe }
    }

    /// Universe size.
    pub fn universe(&self) -> u32 {
        match self {
            PosList::Range { universe, .. } => *universe,
            PosList::Bitmap(b) => b.len(),
            PosList::Explicit { universe, .. } => *universe,
        }
    }

    /// Number of selected positions.
    pub fn count(&self) -> u32 {
        match self {
            PosList::Range { start, end, .. } => end - start,
            PosList::Bitmap(b) => b.count(),
            PosList::Explicit { positions, .. } => positions.len() as u32,
        }
    }

    /// True when nothing is selected.
    pub fn is_empty(&self) -> bool {
        self.count() == 0
    }

    /// True when the positions form one contiguous run (used by the
    /// between-predicate rewriting detector).
    pub fn is_contiguous(&self) -> bool {
        match self {
            PosList::Range { .. } => true,
            _ => {
                let c = self.count();
                c == 0 || {
                    let first = self.first().unwrap();
                    let last = self.last().unwrap();
                    last - first + 1 == c
                }
            }
        }
    }

    /// Smallest selected position.
    pub fn first(&self) -> Option<u32> {
        match self {
            PosList::Range { start, end, .. } => (start < end).then_some(*start),
            PosList::Bitmap(b) => b.iter().next(),
            PosList::Explicit { positions, .. } => positions.first().copied(),
        }
    }

    /// Largest selected position.
    pub fn last(&self) -> Option<u32> {
        match self {
            PosList::Range { start, end, .. } => (start < end).then_some(end - 1),
            PosList::Bitmap(b) => {
                let mut last = None;
                for p in b.iter() {
                    last = Some(p);
                }
                last
            }
            PosList::Explicit { positions, .. } => positions.last().copied(),
        }
    }

    /// Iterate selected positions in ascending order.
    pub fn iter(&self) -> Box<dyn Iterator<Item = u32> + '_> {
        match self {
            PosList::Range { start, end, .. } => Box::new(*start..*end),
            PosList::Bitmap(b) => Box::new(b.iter()),
            PosList::Explicit { positions, .. } => Box::new(positions.iter().copied()),
        }
    }

    /// Visit the positions in ascending order as slices of at most `block`
    /// positions: explicit lists are sliced in place, ranges and bitmaps
    /// are expanded one block at a time into a reused buffer.
    pub(crate) fn for_each_block(&self, block: usize, mut f: impl FnMut(&[u32])) {
        if let PosList::Explicit { positions, .. } = self {
            return positions.chunks(block).for_each(f);
        }
        let mut buf = Vec::with_capacity(block);
        for p in self.iter() {
            buf.push(p);
            if buf.len() == block {
                f(&buf);
                buf.clear();
            }
        }
        if !buf.is_empty() {
            f(&buf);
        }
    }

    /// Materialize as an ascending vector.
    pub fn to_vec(&self) -> Vec<u32> {
        self.iter().collect()
    }

    /// Intersect two lists (same universe), preserving cheap representations.
    pub fn intersect(&self, other: &PosList) -> PosList {
        assert_eq!(self.universe(), other.universe(), "position universe mismatch");
        use PosList::*;
        match (self, other) {
            (Range { start: a, end: b, universe }, Range { start: c, end: d, .. }) => {
                let start = (*a).max(*c);
                let end = (*b).min(*d);
                Range { start, end: end.max(start), universe: *universe }
            }
            (Bitmap(x), Bitmap(y)) => {
                let mut out = x.clone();
                out.and_with(y);
                Bitmap(out)
            }
            (Range { start, end, universe }, Bitmap(b))
            | (Bitmap(b), Range { start, end, universe }) => {
                // Word-parallel: AND the bitmap's words against the range
                // mask instead of iterating set bits. Representation choice
                // matches `from_ascending`: range if contiguous, bitmap if
                // dense, explicit otherwise.
                let (start, end) = (*start, *end);
                if start >= end {
                    return PosList::empty(*universe);
                }
                let (fw, lw) = ((start / 64) as usize, ((end - 1) / 64) as usize);
                let mut masked: Vec<u64> = b.words()[fw..=lw].to_vec();
                masked[0] &= u64::MAX << (start % 64);
                let tail_keep = (end - 1) % 64;
                if tail_keep < 63 {
                    let li = masked.len() - 1;
                    masked[li] &= (1u64 << (tail_keep + 1)) - 1;
                }
                let count: u32 = masked.iter().map(|w| w.count_ones()).sum();
                if count == 0 {
                    return PosList::empty(*universe);
                }
                let (fi, fword) = masked.iter().enumerate().find(|(_, &w)| w != 0).unwrap();
                let first = (fw + fi) as u32 * 64 + fword.trailing_zeros();
                let (li, lword) = masked.iter().enumerate().rfind(|(_, &w)| w != 0).unwrap();
                let last = (fw + li) as u32 * 64 + 63 - lword.leading_zeros();
                if last - first + 1 == count {
                    return PosList::Range { start: first, end: last + 1, universe: *universe };
                }
                if count > *universe / EXPLICIT_LIMIT_DIVISOR {
                    let mut bm = RidBitmap::new(*universe);
                    bm.extend_from_words(fw, &masked);
                    return PosList::Bitmap(bm);
                }
                // Sparse: read the positions straight out of the masked
                // window — no full-universe bitmap needed.
                let mut positions = Vec::with_capacity(count as usize);
                for (i, &w) in masked.iter().enumerate() {
                    let mut m = w;
                    while m != 0 {
                        positions.push((fw + i) as u32 * 64 + m.trailing_zeros());
                        m &= m - 1;
                    }
                }
                PosList::Explicit { positions, universe: *universe }
            }
            (Range { start, end, universe }, Explicit { positions, .. })
            | (Explicit { positions, .. }, Range { start, end, universe }) => {
                let out: Vec<u32> = positions
                    .iter()
                    .copied()
                    .skip_while(|p| p < start)
                    .take_while(|p| p < end)
                    .collect();
                PosList::from_ascending(out, *universe)
            }
            (Explicit { positions, universe }, Bitmap(b))
            | (Bitmap(b), Explicit { positions, universe }) => {
                let out: Vec<u32> = positions.iter().copied().filter(|&p| b.get(p)).collect();
                PosList::from_ascending(out, *universe)
            }
            (Explicit { positions: xs, universe }, Explicit { positions: ys, .. }) => {
                let mut out = Vec::with_capacity(xs.len().min(ys.len()));
                let (mut i, mut j) = (0, 0);
                while i < xs.len() && j < ys.len() {
                    match xs[i].cmp(&ys[j]) {
                        std::cmp::Ordering::Less => i += 1,
                        std::cmp::Ordering::Greater => j += 1,
                        std::cmp::Ordering::Equal => {
                            out.push(xs[i]);
                            i += 1;
                            j += 1;
                        }
                    }
                }
                PosList::from_ascending(out, *universe)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn explicit(p: &[u32], n: u32) -> PosList {
        PosList::Explicit { positions: p.to_vec(), universe: n }
    }

    #[test]
    fn basics() {
        let r = PosList::Range { start: 5, end: 10, universe: 100 };
        assert_eq!(r.count(), 5);
        assert_eq!(r.first(), Some(5));
        assert_eq!(r.last(), Some(9));
        assert!(r.is_contiguous());
        assert_eq!(r.to_vec(), vec![5, 6, 7, 8, 9]);
        assert!(PosList::empty(10).is_empty());
        assert_eq!(PosList::all(10).count(), 10);
    }

    #[test]
    fn from_ascending_detects_ranges() {
        assert!(matches!(
            PosList::from_ascending(vec![3, 4, 5, 6], 100),
            PosList::Range { start: 3, end: 7, .. }
        ));
        assert!(matches!(PosList::from_ascending(vec![3, 5], 100), PosList::Explicit { .. }));
    }

    #[test]
    fn from_ascending_prefers_bitmap_for_dense() {
        let dense: Vec<u32> = (0..50).map(|i| i * 2).collect(); // 50 of 128
        assert!(matches!(PosList::from_ascending(dense, 128), PosList::Bitmap(_)));
    }

    #[test]
    fn range_range_intersection() {
        let a = PosList::Range { start: 0, end: 10, universe: 100 };
        let b = PosList::Range { start: 5, end: 20, universe: 100 };
        let c = a.intersect(&b);
        assert_eq!(c.to_vec(), (5..10).collect::<Vec<u32>>());
        // Disjoint ranges intersect to empty.
        let d = PosList::Range { start: 50, end: 60, universe: 100 };
        assert!(a.intersect(&d).is_empty());
    }

    #[test]
    fn mixed_intersections_match_set_semantics() {
        let universe = 256u32;
        let xs: Vec<u32> = (0..universe).filter(|p| p % 3 == 0).collect();
        let ys: Vec<u32> = (0..universe).filter(|p| p % 5 == 0).collect();
        let expected: Vec<u32> = (0..universe).filter(|p| p % 15 == 0).collect();
        let reprs_x = [
            PosList::from_ascending(xs.clone(), universe),
            PosList::Bitmap(cvr_index::bitmap::RidBitmap::from_rids(universe, xs.clone())),
            explicit(&xs, universe),
        ];
        let reprs_y = [
            PosList::from_ascending(ys.clone(), universe),
            PosList::Bitmap(cvr_index::bitmap::RidBitmap::from_rids(universe, ys.clone())),
            explicit(&ys, universe),
        ];
        for x in &reprs_x {
            for y in &reprs_y {
                assert_eq!(x.intersect(y).to_vec(), expected);
            }
        }
    }

    #[test]
    fn range_bitmap_intersection() {
        let r = PosList::Range { start: 10, end: 20, universe: 64 };
        let bm = PosList::Bitmap(cvr_index::bitmap::RidBitmap::from_rids(64, [5u32, 10, 15, 25]));
        assert_eq!(r.intersect(&bm).to_vec(), vec![10, 15]);
        assert_eq!(bm.intersect(&r).to_vec(), vec![10, 15]);
    }

    #[test]
    fn contiguity_detection() {
        assert!(explicit(&[4, 5, 6], 100).is_contiguous());
        assert!(!explicit(&[4, 6], 100).is_contiguous());
        assert!(explicit(&[], 100).is_contiguous());
        let bm = PosList::Bitmap(cvr_index::bitmap::RidBitmap::from_rids(64, [7u32, 8, 9]));
        assert!(bm.is_contiguous());
    }

    #[test]
    #[should_panic(expected = "universe mismatch")]
    fn universe_mismatch_panics() {
        PosList::all(10).intersect(&PosList::all(20));
    }
}
