//! Cache geometry and latency configuration (Table III).

/// Geometry of one cache level.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheGeometry {
    /// Total capacity in bytes.
    pub capacity: usize,
    /// Associativity (ways per set).
    pub ways: usize,
    /// Access latency in cycles.
    pub hit_cycles: u64,
}

impl CacheGeometry {
    /// Number of sets (`capacity / (ways * 64)`).
    ///
    /// # Panics
    ///
    /// Panics if the geometry does not divide into whole sets, or if
    /// the set count is not a power of two (lines map to sets by mask).
    pub fn sets(&self) -> usize {
        let line = slpmt_pmem::LINE_BYTES;
        assert!(
            self.capacity.is_multiple_of(self.ways * line),
            "capacity must be a multiple of ways × line size"
        );
        let sets = self.capacity / (self.ways * line);
        assert!(
            sets.is_power_of_two(),
            "set count {sets} must be a power of two"
        );
        sets
    }

    /// Total number of lines the level can hold.
    pub fn lines(&self) -> usize {
        self.capacity / slpmt_pmem::LINE_BYTES
    }
}

/// The three-level hierarchy of Table III.
///
/// ```
/// use slpmt_cache::CacheConfig;
/// let c = CacheConfig::default();
/// assert_eq!(c.l1.sets(), 64);   // 32 KB, 8-way
/// assert_eq!(c.l2.sets(), 1024); // 256 KB, 4-way
/// assert_eq!(c.l3.sets(), 2048); // 2 MB, 16-way
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheConfig {
    /// L1 data cache: 8-way 32 KB, 4 cycles.
    pub l1: CacheGeometry,
    /// L2 cache: 4-way 256 KB, 12 cycles.
    pub l2: CacheGeometry,
    /// L3 cache: 16-way 2 MB, 40 cycles.
    pub l3: CacheGeometry,
}

impl Default for CacheConfig {
    fn default() -> Self {
        CacheConfig {
            l1: CacheGeometry {
                capacity: 32 << 10,
                ways: 8,
                hit_cycles: 4,
            },
            l2: CacheGeometry {
                capacity: 256 << 10,
                ways: 4,
                hit_cycles: 12,
            },
            l3: CacheGeometry {
                capacity: 2 << 20,
                ways: 16,
                hit_cycles: 40,
            },
        }
    }
}

impl CacheConfig {
    /// A deliberately tiny hierarchy for tests that need to exercise
    /// evictions and overflow paths quickly.
    pub fn tiny() -> Self {
        CacheConfig {
            l1: CacheGeometry {
                capacity: 512,
                ways: 2,
                hit_cycles: 4,
            },
            l2: CacheGeometry {
                capacity: 2048,
                ways: 2,
                hit_cycles: 12,
            },
            l3: CacheGeometry {
                capacity: 8192,
                ways: 4,
                hit_cycles: 40,
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_matches_table_iii() {
        let c = CacheConfig::default();
        assert_eq!(c.l1.capacity, 32 * 1024);
        assert_eq!(c.l1.ways, 8);
        assert_eq!(c.l1.hit_cycles, 4);
        assert_eq!(c.l2.capacity, 256 * 1024);
        assert_eq!(c.l2.ways, 4);
        assert_eq!(c.l2.hit_cycles, 12);
        assert_eq!(c.l3.capacity, 2 * 1024 * 1024);
        assert_eq!(c.l3.ways, 16);
        assert_eq!(c.l3.hit_cycles, 40);
    }

    #[test]
    fn line_counts() {
        let c = CacheConfig::default();
        assert_eq!(c.l1.lines(), 512);
        assert_eq!(c.l2.lines(), 4096);
        assert_eq!(c.l3.lines(), 32768);
    }

    #[test]
    fn tiny_is_valid() {
        let c = CacheConfig::tiny();
        assert_eq!(c.l1.sets(), 4);
        assert_eq!(c.l2.sets(), 16);
        assert_eq!(c.l3.sets(), 32);
    }

    #[test]
    #[should_panic(expected = "multiple of ways")]
    fn ragged_geometry_rejected() {
        let g = CacheGeometry {
            capacity: 1000,
            ways: 3,
            hit_cycles: 1,
        };
        let _ = g.sets();
    }
}
