//! Aggregate functions used by `regrid` to build zoom levels.
//!
//! The paper's tile-building process (§2.3) applies an aggregation query
//! per zoom level; the MODIS NDSI dataset carries "maximum, minimum and
//! average NDSI values" per cell, so the same set is supported here.

/// An aggregate over the present cells of a regrid window.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AggFn {
    /// Arithmetic mean.
    Avg,
    /// Sum of values.
    Sum,
    /// Minimum.
    Min,
    /// Maximum.
    Max,
    /// Count of present cells.
    Count,
}

/// A streaming accumulator for one regrid window: values are folded in
/// one at a time, then finished into any [`AggFn`]. This is the
/// allocation-free alternative to
/// [`AggFn::fold`]'s iterator indirection that the blocked columnar
/// regrid uses — one `AggState` per output cell, updated in input
/// row-stripe order.
///
/// Update order matters for bit-exactness of `Avg`/`Sum` (floating-point
/// addition is not associative): pushing the same values in the same
/// order as `fold` yields bit-identical results.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct AggState {
    /// Present values folded so far.
    pub n: u64,
    /// Running sum.
    pub sum: f64,
    /// Running minimum (`+inf` when empty).
    pub min: f64,
    /// Running maximum (`-inf` when empty).
    pub max: f64,
}

impl Default for AggState {
    fn default() -> Self {
        Self::EMPTY
    }
}

impl AggState {
    /// The identity accumulator (no values folded).
    pub(crate) const EMPTY: Self = Self {
        n: 0,
        sum: 0.0,
        min: f64::INFINITY,
        max: f64::NEG_INFINITY,
    };

    /// Folds one value in. Matches `fold`'s per-value operations exactly:
    /// NaN values poison `sum` but are ignored by `min`/`max` (IEEE
    /// `minNum`/`maxNum` semantics of `f64::min`/`f64::max`).
    #[inline(always)]
    pub(crate) fn push(&mut self, v: f64) {
        self.n += 1;
        self.sum += v;
        self.min = self.min.min(v);
        self.max = self.max.max(v);
    }

    /// Finishes into the given aggregate; `None` when no values were
    /// folded (the output cell stays empty).
    #[inline]
    pub(crate) fn finish(&self, f: AggFn) -> Option<f64> {
        if self.n == 0 {
            return None;
        }
        Some(match f {
            AggFn::Avg => self.sum / self.n as f64,
            AggFn::Sum => self.sum,
            AggFn::Min => self.min,
            AggFn::Max => self.max,
            AggFn::Count => self.n as f64,
        })
    }
}

impl AggFn {
    /// Folds an iterator of values into the aggregate. Returns `None` when
    /// the window has no present cells (the output cell is then empty),
    /// except for `Count` which returns `Some(0.0)` only if at least one
    /// cell was present — an all-empty window stays empty for every
    /// aggregate, matching SciDB `regrid` semantics.
    pub fn fold(self, values: impl Iterator<Item = f64>) -> Option<f64> {
        let mut acc = AggState::EMPTY;
        for v in values {
            acc.push(v);
        }
        acc.finish(self)
    }

    /// Canonical lowercase name (as would appear in an AFL query).
    pub fn name(self) -> &'static str {
        match self {
            AggFn::Avg => "avg",
            AggFn::Sum => "sum",
            AggFn::Min => "min",
            AggFn::Max => "max",
            AggFn::Count => "count",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fold_basic_aggregates() {
        let vals = [1.0, 2.0, 3.0, 4.0];
        assert_eq!(AggFn::Avg.fold(vals.iter().copied()), Some(2.5));
        assert_eq!(AggFn::Sum.fold(vals.iter().copied()), Some(10.0));
        assert_eq!(AggFn::Min.fold(vals.iter().copied()), Some(1.0));
        assert_eq!(AggFn::Max.fold(vals.iter().copied()), Some(4.0));
        assert_eq!(AggFn::Count.fold(vals.iter().copied()), Some(4.0));
    }

    #[test]
    fn empty_window_yields_none_for_all() {
        for f in [AggFn::Avg, AggFn::Sum, AggFn::Min, AggFn::Max, AggFn::Count] {
            assert_eq!(f.fold(std::iter::empty()), None, "{}", f.name());
        }
    }

    #[test]
    fn single_value_window() {
        assert_eq!(AggFn::Avg.fold([7.0].into_iter()), Some(7.0));
        assert_eq!(AggFn::Min.fold([7.0].into_iter()), Some(7.0));
        assert_eq!(AggFn::Max.fold([7.0].into_iter()), Some(7.0));
        assert_eq!(AggFn::Count.fold([7.0].into_iter()), Some(1.0));
    }

    #[test]
    fn state_push_matches_fold() {
        let vals = [1.0, f64::NAN, 3.0, -2.0];
        for f in [AggFn::Avg, AggFn::Sum, AggFn::Min, AggFn::Max, AggFn::Count] {
            let mut acc = AggState::EMPTY;
            for v in vals {
                acc.push(v);
            }
            let folded = f.fold(vals.iter().copied());
            match (acc.finish(f), folded) {
                (Some(a), Some(b)) => {
                    assert_eq!(a.to_bits(), b.to_bits(), "{}", f.name());
                }
                (a, b) => assert_eq!(a, b, "{}", f.name()),
            }
        }
        assert_eq!(AggState::EMPTY.finish(AggFn::Count), None);
    }

    #[test]
    fn names() {
        assert_eq!(AggFn::Avg.name(), "avg");
        assert_eq!(AggFn::Count.name(), "count");
    }
}
