//! Engine configuration: the paper's tuning knobs and ablation switches.

/// Number of neighbor ids stored inline in one cache-line vertex block.
///
/// A 64-byte line holds a `u32` degree, 13 inline `u32` neighbors, and an
/// 8-byte spill pointer (paper §5: "each vertex is assigned the size of a
/// single cache line within the vertex blocks").
pub const INLINE_CAP: usize = 13;

/// Elements per block in RIA and LIA: one 64-byte cache line of `u32` ids
/// (paper §5: "the BKS in RIA and LIA also fits within a cache line").
pub const BKS: usize = 16;

/// How the LIA locates the block for a key (ablation §6.2).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum LiaSearch {
    /// Predict the slot with the learned linear model (the paper's design).
    Learned,
    /// Binary-search the per-block minima instead of consulting the model.
    ///
    /// Placement is unchanged, so this isolates exactly the *search* benefit
    /// of the learned index, which the paper reports as 1.8%–7.2%.
    Binary,
}

/// Which container stores medium-degree spill edges (ablation §6.2).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum MediumStore {
    /// Redundant Indexed Array (the paper's design).
    Ria,
    /// Per-vertex Packed Memory Array (the "PMA instead of RIA" ablation).
    Pma,
}

/// Whether high-degree vertices upgrade to HITree (ablation §6.2).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum HighDegreeStore {
    /// HITree above threshold `M` (the paper's design).
    HiTree,
    /// Keep using RIA regardless of degree ("RIA instead of HITree").
    RiaOnly,
}

/// Configuration of an [`LsGraph`](crate::LsGraph) instance.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Config {
    /// Space amplification factor `α` (paper default 1.2; must be > 1.0).
    pub alpha: f64,
    /// Spill-size threshold above which an array upgrades to RIA
    /// (paper §5: two cache lines of ids).
    pub a: usize,
    /// Spill-size threshold `M` above which RIA upgrades to HITree
    /// (paper default 2^12).
    pub m: usize,
    /// LIA block-location strategy.
    pub lia_search: LiaSearch,
    /// Medium-degree container choice.
    pub medium: MediumStore,
    /// High-degree container choice.
    pub high: HighDegreeStore,
}

impl Default for Config {
    fn default() -> Self {
        Config {
            alpha: 1.2,
            a: 2 * BKS,
            m: 1 << 12,
            lia_search: LiaSearch::Learned,
            medium: MediumStore::Ria,
            high: HighDegreeStore::HiTree,
        }
    }
}

impl Config {
    /// Validates the configuration.
    ///
    /// `alpha` must exceed 1.0 (a gapped array with no gaps degenerates into
    /// unbounded rebuild loops) and the tier thresholds must be ordered.
    pub fn validate(&self) -> Result<(), ConfigError> {
        if !self.alpha.is_finite() || self.alpha <= 1.0 {
            return Err(ConfigError::InvalidAlpha(self.alpha));
        }
        if self.a == 0 || self.m < self.a {
            return Err(ConfigError::InvalidThresholds {
                a: self.a,
                m: self.m,
            });
        }
        Ok(())
    }

    /// Returns a copy with a different `alpha` (sensitivity sweeps, Fig. 14).
    pub fn with_alpha(mut self, alpha: f64) -> Self {
        self.alpha = alpha;
        self
    }

    /// Returns a copy with a different `M` (sensitivity sweeps, Fig. 14).
    pub fn with_m(mut self, m: usize) -> Self {
        self.m = m;
        self
    }
}

/// Rejected configuration.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum ConfigError {
    /// `alpha` was not a finite value greater than 1.0.
    InvalidAlpha(f64),
    /// The tier thresholds were zero or out of order.
    InvalidThresholds {
        /// Offending `a`.
        a: usize,
        /// Offending `m`.
        m: usize,
    },
}

impl core::fmt::Display for ConfigError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            ConfigError::InvalidAlpha(a) => {
                write!(
                    f,
                    "space amplification factor must be finite and > 1.0, got {a}"
                )
            }
            ConfigError::InvalidThresholds { a, m } => {
                write!(f, "thresholds must satisfy 0 < a <= m, got a={a}, m={m}")
            }
        }
    }
}

impl std::error::Error for ConfigError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_valid_and_matches_paper() {
        let c = Config::default();
        c.validate().unwrap();
        assert_eq!(c.m, 4096);
        assert!((c.alpha - 1.2).abs() < 1e-12);
        assert_eq!(c.a, 32);
    }

    #[test]
    fn rejects_alpha_at_or_below_one() {
        assert!(Config::default().with_alpha(1.0).validate().is_err());
        assert!(Config::default().with_alpha(0.5).validate().is_err());
        assert!(Config::default().with_alpha(f64::NAN).validate().is_err());
        assert!(Config::default()
            .with_alpha(f64::INFINITY)
            .validate()
            .is_err());
    }

    #[test]
    fn rejects_misordered_thresholds() {
        let mut c = Config {
            m: 8,
            ..Config::default()
        };
        assert!(c.validate().is_err());
        c.a = 0;
        assert!(c.validate().is_err());
    }

    #[test]
    fn vertex_block_geometry() {
        // One cache line: degree + inline ids + spill pointer.
        assert_eq!(4 + INLINE_CAP * 4 + 8, 64);
        // One cache line of ids per block.
        assert_eq!(BKS * 4, 64);
    }
}
