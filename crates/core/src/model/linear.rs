//! Single linear-regression CDF model.

/// A least-squares line `slot = slope * key + intercept`, clamped to the slot
/// range and with a non-negative slope so that predictions are monotone.
#[derive(Clone, Copy, Debug)]
pub struct LinearModel {
    slope: f64,
    intercept: f64,
    slots: usize,
}

impl LinearModel {
    /// Fits a model over a sorted, duplicate-free key slice, targeting an
    /// even spread of the keys across `slots` positions.
    ///
    /// Keys are centered before the least-squares solve to keep the
    /// accumulators well-conditioned for large `u32` keys.
    ///
    /// # Panics
    ///
    /// Panics if `slots == 0`.
    pub fn fit(keys: &[u32], slots: usize) -> Self {
        assert!(slots > 0, "a model needs at least one slot");
        let n = keys.len();
        if n <= 1 {
            // Degenerate: map everything to slot 0; a single key has no CDF.
            return LinearModel {
                slope: 0.0,
                intercept: 0.0,
                slots,
            };
        }
        debug_assert!(keys.windows(2).all(|w| w[0] < w[1]));
        // Target positions spread the n keys over the slot range.
        let scale = (slots - 1) as f64 / (n - 1) as f64;
        let mean_x = keys.iter().map(|&k| k as f64).sum::<f64>() / n as f64;
        let mean_y = (n - 1) as f64 * scale / 2.0;
        let mut sxy = 0.0;
        let mut sxx = 0.0;
        for (i, &k) in keys.iter().enumerate() {
            let dx = k as f64 - mean_x;
            let dy = i as f64 * scale - mean_y;
            sxy += dx * dy;
            sxx += dx * dx;
        }
        // Keys are strictly increasing, so sxx > 0 and the slope is >= 0
        // (positions increase with keys); clamp defensively anyway.
        let slope = if sxx > 0.0 { (sxy / sxx).max(0.0) } else { 0.0 };
        let intercept = mean_y - slope * mean_x;
        LinearModel {
            slope,
            intercept,
            slots,
        }
    }

    /// Predicts the slot for `key`, clamped into `0..slots`. `#[inline]`
    /// because it is the LIA's hot-path call, which might otherwise not be
    /// inlined across codegen units.
    #[inline]
    pub fn predict(&self, key: u32) -> usize {
        let p = self.slope * key as f64 + self.intercept;
        if p <= 0.0 {
            0
        } else {
            (p as usize).min(self.slots - 1)
        }
    }

    /// Bytes of model parameters (for Table 3 index accounting).
    pub fn param_bytes(&self) -> usize {
        core::mem::size_of::<Self>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn uniform_keys_predict_nearly_exactly() {
        let keys: Vec<u32> = (0..1024u32).map(|i| i * 10).collect();
        let m = LinearModel::fit(&keys, 2048);
        for (i, &k) in keys.iter().enumerate() {
            let target = (i as f64 * 2047.0 / 1023.0) as isize;
            let got = m.predict(k) as isize;
            assert!(
                (got - target).abs() <= 1,
                "key {k}: got {got}, want ~{target}"
            );
        }
    }

    #[test]
    fn empty_and_singleton() {
        let m = LinearModel::fit(&[], 16);
        assert_eq!(m.predict(123), 0);
        let m = LinearModel::fit(&[42], 16);
        assert_eq!(m.predict(42), 0);
    }

    #[test]
    fn predictions_clamped_to_range() {
        let keys = [100u32, 200, 300];
        let m = LinearModel::fit(&keys, 8);
        assert_eq!(m.predict(0), 0);
        assert!(m.predict(u32::MAX) < 8);
    }

    #[test]
    fn huge_keys_remain_finite() {
        let keys = [u32::MAX - 2, u32::MAX - 1, u32::MAX];
        let m = LinearModel::fit(&keys, 64);
        for &k in &keys {
            assert!(m.predict(k) < 64);
        }
        assert!(m.predict(u32::MAX) >= m.predict(u32::MAX - 2));
    }

    #[test]
    fn two_keys() {
        let m = LinearModel::fit(&[10, 20], 10);
        assert_eq!(m.predict(10), 0);
        assert_eq!(m.predict(20), 9);
        assert!(m.predict(15) >= 1 && m.predict(15) <= 8);
    }
}
