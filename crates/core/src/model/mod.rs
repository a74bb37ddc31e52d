//! Learned-index model for LIA (paper §3.1–§3.2).
//!
//! LSGraph approximates the CDF of a sorted key set with a *linear
//! regression* (LR) model: cheap to train, cheap to evaluate, and — crucially
//! for the LIA layout — monotone, so predicted slots never invert key order.

mod linear;

pub(crate) use linear::LinearModel;

#[cfg(test)]
mod tests {
    use super::*;

    fn check_monotone(model: &LinearModel, keys: &[u32], slots: usize) {
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
}
