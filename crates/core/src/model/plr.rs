//! Piecewise linear regression model (paper §3.2 comparison).
//!
//! PLR predicts more accurately than a single line, but training is a scan
//! with error tracking and every prediction starts with a segment lookup —
//! exactly the costs the paper cites for rejecting it in LIA. It is kept here
//! so the `model_cost` Criterion bench can reproduce that trade-off.

use super::PositionModel;

/// One segment of the piecewise model: valid from `start_key`, predicting
/// `slope * key + intercept`.
#[derive(Clone, Copy, Debug)]
struct Segment {
    start_key: u32,
    slope: f64,
    intercept: f64,
}

/// Greedy bounded-error piecewise linear regression.
#[derive(Clone, Debug)]
pub struct PlrModel {
    starts: Vec<u32>,
    segments: Vec<Segment>,
    slots: usize,
    max_slot: Vec<usize>,
}

impl PlrModel {
    /// Fits segments whose prediction error never exceeds `max_error` slots.
    ///
    /// Uses the shrinking-cone method: extend the current segment while some
    /// line through its origin fits all points within `max_error`.
    ///
    /// # Panics
    ///
    /// Panics if `slots == 0`.
    pub fn fit(keys: &[u32], slots: usize, max_error: usize) -> Self {
        assert!(slots > 0, "a model needs at least one slot");
        let n = keys.len();
        let mut model = PlrModel {
            starts: Vec::new(),
            segments: Vec::new(),
            slots,
            max_slot: Vec::new(),
        };
        if n == 0 {
            return model;
        }
        let scale = if n > 1 {
            (slots - 1) as f64 / (n - 1) as f64
        } else {
            0.0
        };
        let err = max_error as f64;
        let mut seg_start = 0usize;
        while seg_start < n {
            let x0 = keys[seg_start] as f64;
            let y0 = seg_start as f64 * scale;
            // Cone of feasible slopes through (x0, y0).
            let mut lo = 0.0f64;
            let mut hi = f64::INFINITY;
            let mut end = seg_start + 1;
            while end < n {
                let dx = keys[end] as f64 - x0;
                let dy = end as f64 * scale - y0;
                // Feasible slopes for this point: (dy - err)/dx ..= (dy + err)/dx.
                let new_lo = lo.max((dy - err) / dx);
                let new_hi = hi.min((dy + err) / dx);
                if new_lo > new_hi {
                    break;
                }
                lo = new_lo;
                hi = new_hi;
                end += 1;
            }
            let slope = if hi.is_finite() {
                ((lo + hi) / 2.0).max(0.0)
            } else {
                lo.max(0.0)
            };
            model.starts.push(keys[seg_start]);
            model.segments.push(Segment {
                start_key: keys[seg_start],
                slope,
                intercept: y0 - slope * x0,
            });
            let last = end - 1;
            model
                .max_slot
                .push(((last as f64 * scale) as usize + max_error).min(slots - 1));
            seg_start = end;
        }
        model
    }

    /// Number of fitted segments.
    pub fn num_segments(&self) -> usize {
        self.segments.len()
    }
}

impl PositionModel for PlrModel {
    fn predict(&self, key: u32) -> usize {
        if self.segments.is_empty() {
            return 0;
        }
        let i = self.starts.partition_point(|&x| x < key);
        // `i` is the first start >= key; the governing segment
        // is the previous one unless key matches a start exactly.
        let s = if i < self.starts.len() && self.starts[i] == key {
            i
        } else {
            i.saturating_sub(1)
        };
        let seg = &self.segments[s];
        let p = seg.slope * (key as f64 - seg.start_key as f64)
            + seg.slope * seg.start_key as f64
            + seg.intercept;
        let clamped = if p <= 0.0 { 0 } else { p as usize };
        // Cap at the segment's slot ceiling so predictions stay monotone
        // across segment boundaries.
        let lo = if s > 0 {
            self.max_slot[s - 1].saturating_sub(0)
        } else {
            0
        };
        clamped.clamp(lo.min(self.slots - 1), self.max_slot[s])
    }

    fn param_bytes(&self) -> usize {
        self.starts.len() * core::mem::size_of::<u32>()
            + self.segments.len() * core::mem::size_of::<Segment>()
            + self.max_slot.len() * core::mem::size_of::<usize>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fits_within_error_bound_on_piecewise_data() {
        // Two regimes: dense then sparse keys.
        let mut keys: Vec<u32> = (0..500u32).collect();
        keys.extend((0..500u32).map(|i| 1000 + i * 50));
        let slots = keys.len();
        let m = PlrModel::fit(&keys, slots, 16);
        let scale = (slots - 1) as f64 / (keys.len() - 1) as f64;
        for (i, &k) in keys.iter().enumerate() {
            let target = i as f64 * scale;
            let got = m.predict(k) as f64;
            assert!(
                (got - target).abs() <= 17.0,
                "key {k} (rank {i}): got {got}, want {target}"
            );
        }
        assert!(m.num_segments() >= 2, "expected multiple segments");
    }

    #[test]
    fn fewer_segments_with_larger_error() {
        let keys: Vec<u32> = (0..2000u32).map(|i| i * i / 16).collect();
        let mut dedup = keys.clone();
        dedup.dedup();
        let tight = PlrModel::fit(&dedup, dedup.len(), 4);
        let loose = PlrModel::fit(&dedup, dedup.len(), 64);
        assert!(loose.num_segments() <= tight.num_segments());
    }

    #[test]
    fn empty_input() {
        let m = PlrModel::fit(&[], 8, 4);
        assert_eq!(m.predict(5), 0);
        assert_eq!(m.num_segments(), 0);
    }

    #[test]
    fn single_key() {
        let m = PlrModel::fit(&[77], 8, 4);
        assert!(m.predict(77) < 8);
    }
}
