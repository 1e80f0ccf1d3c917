//! LLC traffic: the quantity the DSE consumes.

/// LLC traffic under continuous execution: read and write accesses per
/// second, the x-axes of the paper's Fig. 5 and Fig. 7.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LlcTraffic {
    /// LLC read accesses per second.
    pub reads_per_sec: f64,
    /// LLC write accesses per second.
    pub writes_per_sec: f64,
}

impl LlcTraffic {
    /// Builds a traffic record from rates (zero is legal: an idle
    /// cache).
    ///
    /// Precondition: both rates are finite and non-negative.
    ///
    /// # Panics
    ///
    /// Panics with `read rate must be finite and non-negative` (or
    /// `write rate ...`) if that rate is negative or not finite.
    #[must_use]
    pub fn new(reads_per_sec: f64, writes_per_sec: f64) -> Self {
        assert!(
            reads_per_sec.is_finite() && reads_per_sec >= 0.0,
            "read rate must be finite and non-negative"
        );
        assert!(
            writes_per_sec.is_finite() && writes_per_sec >= 0.0,
            "write rate must be finite and non-negative"
        );
        Self {
            reads_per_sec,
            writes_per_sec,
        }
    }

    /// Total accesses per second.
    #[must_use]
    pub fn total_per_sec(&self) -> f64 {
        self.reads_per_sec + self.writes_per_sec
    }

    /// Write share of the traffic, in `[0, 1]`; zero for no traffic.
    #[must_use]
    pub fn write_fraction(&self) -> f64 {
        let total = self.total_per_sec();
        if total == 0.0 {
            0.0
        } else {
            self.writes_per_sec / total
        }
    }
}

/// A dense struct-of-arrays traffic table: the read and write rates of
/// a benchmark list, each in its own contiguous slice.
///
/// Batched evaluation reads traffic once per benchmark into this table
/// and then streams the columns, instead of chasing one
/// [`LlcTraffic`] record per (configuration, benchmark) grid cell.
/// The stored rates are the exact `f64`s pushed in, so a row
/// reconstructed via [`TrafficTable::get`] is bit-identical to the
/// original record.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct TrafficTable {
    reads_per_sec: Vec<f64>,
    writes_per_sec: Vec<f64>,
}

impl TrafficTable {
    /// An empty table.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Empties the table, keeping its allocated capacity (so a reused
    /// table reaches a steady state with zero reallocations).
    pub fn clear(&mut self) {
        self.reads_per_sec.clear();
        self.writes_per_sec.clear();
    }

    /// Appends one traffic record's rates.
    pub fn push(&mut self, traffic: LlcTraffic) {
        self.reads_per_sec.push(traffic.reads_per_sec);
        self.writes_per_sec.push(traffic.writes_per_sec);
    }

    /// Number of records in the table.
    #[must_use]
    pub fn len(&self) -> usize {
        self.reads_per_sec.len()
    }

    /// Whether the table holds no records.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.reads_per_sec.is_empty()
    }

    /// Reconstructs the record at `index`, bit-identical to the pushed
    /// original.
    ///
    /// # Panics
    ///
    /// Panics if `index` is out of bounds.
    #[must_use]
    pub fn get(&self, index: usize) -> LlcTraffic {
        LlcTraffic {
            reads_per_sec: self.reads_per_sec[index],
            writes_per_sec: self.writes_per_sec[index],
        }
    }

    /// The dense read-rate column.
    #[must_use]
    pub fn reads_per_sec(&self) -> &[f64] {
        &self.reads_per_sec
    }

    /// The dense write-rate column.
    #[must_use]
    pub fn writes_per_sec(&self) -> &[f64] {
        &self.writes_per_sec
    }
}

impl FromIterator<LlcTraffic> for TrafficTable {
    fn from_iter<I: IntoIterator<Item = LlcTraffic>>(iter: I) -> Self {
        let mut table = Self::new();
        for traffic in iter {
            table.push(traffic);
        }
        table
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn derived_quantities() {
        let t = LlcTraffic::new(3e6, 1e6);
        assert_eq!(t.total_per_sec(), 4e6);
        assert!((t.write_fraction() - 0.25).abs() < 1e-12);
        assert_eq!(LlcTraffic::new(0.0, 0.0).write_fraction(), 0.0);
    }

    #[test]
    #[should_panic(expected = "finite and non-negative")]
    fn negative_rate_rejected() {
        let _ = LlcTraffic::new(-1.0, 0.0);
    }

    #[test]
    fn traffic_table_round_trips_records_bit_identically() {
        let records = [
            LlcTraffic::new(3e6, 1e6),
            LlcTraffic::new(0.0, 0.0),
            LlcTraffic::new(1.25e9, 7.5e3),
        ];
        let table: TrafficTable = records.iter().copied().collect();
        assert_eq!(table.len(), 3);
        assert!(!table.is_empty());
        for (i, record) in records.iter().enumerate() {
            assert_eq!(&table.get(i), record);
            assert_eq!(
                table.reads_per_sec()[i].to_bits(),
                record.reads_per_sec.to_bits()
            );
            assert_eq!(
                table.writes_per_sec()[i].to_bits(),
                record.writes_per_sec.to_bits()
            );
        }
    }

    #[test]
    fn traffic_table_clear_keeps_capacity() {
        let mut table = TrafficTable::new();
        for _ in 0..64 {
            table.push(LlcTraffic::new(1.0, 2.0));
        }
        let capacity = table.reads_per_sec.capacity();
        table.clear();
        assert!(table.is_empty());
        assert_eq!(
            table.reads_per_sec.capacity(),
            capacity,
            "clear must not shed capacity"
        );
        table.push(LlcTraffic::new(3.0, 4.0));
        assert_eq!(table.get(0), LlcTraffic::new(3.0, 4.0));
        assert_eq!(table.reads_per_sec.capacity(), capacity);
    }
}
