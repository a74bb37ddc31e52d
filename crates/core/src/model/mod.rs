//! Learned-index models for LIA (paper §3.1–§3.2).
//!
//! LSGraph approximates the CDF of a sorted key set with a *linear
//! regression* (LR) model: cheap to train, cheap to evaluate, and — crucially
//! for the LIA layout — monotone, so predicted slots never invert key order.
//! A piecewise linear regression (PLR) model is provided for the paper's
//! comparison (§3.2: LR beats PLR by an order of magnitude on update
//! throughput because of training/prediction cost); LSGraph itself always
//! uses LR.

mod linear;
mod plr;

pub use linear::LinearModel;
pub use plr::PlrModel;

/// A monotone model mapping a key to a predicted slot in `0..slots`.
pub trait PositionModel {
    /// Predicts the slot for `key`, clamped into `0..slots`.
    fn predict(&self, key: u32) -> usize;

    /// Bytes of model parameters (for Table 3 index accounting).
    fn param_bytes(&self) -> usize;
}

#[cfg(test)]
mod tests {
    use super::*;

    fn check_monotone(model: &dyn PositionModel, keys: &[u32], slots: usize) {
        let mut prev = 0usize;
        for &k in keys {
            let p = model.predict(k);
            assert!(p >= prev, "model not monotone at key {k}: {p} < {prev}");
            assert!(p < slots);
            prev = p;
        }
    }

    #[test]
    fn linear_model_is_monotone_on_skewed_keys() {
        let keys: Vec<u32> = (0..1000u32).map(|i| i * i / 4).collect();
        let mut dedup = keys.clone();
        dedup.dedup();
        let m = LinearModel::fit(&dedup, dedup.len() * 2);
        check_monotone(&m, &dedup, dedup.len() * 2);
    }

    #[test]
    fn plr_model_is_monotone() {
        // Strictly increasing but jittery keys (step between 3 and 11).
        let keys: Vec<u32> = (0..500u32).map(|i| i * 7 + (i % 5)).collect();
        let m = PlrModel::fit(&keys, keys.len() * 2, 8);
        check_monotone(&m, &keys, keys.len() * 2);
    }
}
