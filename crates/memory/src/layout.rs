//! Data layout organization (§V-A).
//!
//! Keys are stored non-interleaved — one key vector per memory-mat
//! column — so that in-memory thresholding can process them in place.
//! Adjacent key vectors are distributed across **different channels**:
//! because unpruned indices cluster spatially (Fig. 2), striping
//! neighbours across channels turns a clustered fetch set into
//! balanced per-channel work. Within a channel, consecutive keys fill
//! the same row before moving on, preserving row-buffer locality.

use crate::MemoryError;

/// Physical location of one key/value vector.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct KeyLocation {
    /// Memory channel.
    pub channel: usize,
    /// Bank within the channel.
    pub bank: usize,
    /// Row within the bank.
    pub row: usize,
    /// Vector slot within the row.
    pub slot: usize,
}

/// Channel/bank/row geometry of the ReRAM main memory.
///
/// The default mirrors Table I: 16 channels per CORELET, 64-bit bus,
/// with rows sized so 32 key/value vector pairs share one row buffer.
///
/// # Example
///
/// ```
/// use sprint_memory::MemoryGeometry;
///
/// let g = MemoryGeometry::default();
/// let a = g.key_location(0).unwrap();
/// let b = g.key_location(1).unwrap();
/// assert_ne!(a.channel, b.channel, "adjacent keys go to different channels");
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MemoryGeometry {
    /// Number of channels (Table I: 16 × 64-bit @ 1 GHz per CORELET).
    pub channels: usize,
    /// Banks per channel.
    pub banks_per_channel: usize,
    /// Key/value vector pairs per row buffer.
    pub vectors_per_row: usize,
    /// Rows per bank.
    pub rows_per_bank: usize,
    /// Bytes fetched per unpruned key (K LSB nibbles + V vector; the
    /// MSBs arrive from the transposable arrays): 32 + 64 at d = 64.
    pub bytes_per_fetch: usize,
    /// Data-bus bursts needed per vector fetch.
    pub bursts_per_fetch: usize,
}

impl Default for MemoryGeometry {
    fn default() -> Self {
        MemoryGeometry {
            channels: 16,
            banks_per_channel: 8,
            vectors_per_row: 32,
            rows_per_bank: 4096,
            bytes_per_fetch: 96,
            bursts_per_fetch: 3,
        }
    }
}

impl MemoryGeometry {
    /// Validates the geometry.
    ///
    /// # Errors
    ///
    /// Returns [`MemoryError::InvalidGeometry`] for any zero field.
    pub fn validate(&self) -> Result<(), MemoryError> {
        for (name, v) in [
            ("channels", self.channels),
            ("banks_per_channel", self.banks_per_channel),
            ("vectors_per_row", self.vectors_per_row),
            ("rows_per_bank", self.rows_per_bank),
            ("bytes_per_fetch", self.bytes_per_fetch),
            ("bursts_per_fetch", self.bursts_per_fetch),
        ] {
            if v == 0 {
                return Err(MemoryError::InvalidGeometry { name, value: v });
            }
        }
        Ok(())
    }

    /// Total key vectors addressable.
    pub fn capacity_vectors(&self) -> usize {
        self.channels * self.banks_per_channel * self.rows_per_bank * self.vectors_per_row
    }

    /// Maps key index `j` to its physical location.
    ///
    /// Striping: channel = `j mod channels`; within the channel, keys
    /// fill a row's vector slots before moving to the next bank, and
    /// banks rotate before rows advance (maximizing bank-level
    /// parallelism for clustered key sets).
    ///
    /// # Errors
    ///
    /// Returns [`MemoryError::AddressOutOfRange`] beyond capacity.
    pub fn key_location(&self, j: usize) -> Result<KeyLocation, MemoryError> {
        if j >= self.capacity_vectors() {
            return Err(MemoryError::AddressOutOfRange {
                what: "key",
                index: j,
                bound: self.capacity_vectors(),
            });
        }
        let channel = j % self.channels;
        let within = j / self.channels;
        let slot = within % self.vectors_per_row;
        let after_row = within / self.vectors_per_row;
        let bank = after_row % self.banks_per_channel;
        let row = after_row / self.banks_per_channel;
        Ok(KeyLocation {
            channel,
            bank,
            row,
            slot,
        })
    }

    /// The key index stored at a location (inverse of
    /// [`MemoryGeometry::key_location`]).
    pub fn key_at(&self, loc: KeyLocation) -> usize {
        let after_row = loc.row * self.banks_per_channel + loc.bank;
        let within = after_row * self.vectors_per_row + loc.slot;
        within * self.channels + loc.channel
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn default_geometry_is_valid() {
        MemoryGeometry::default().validate().unwrap();
    }

    #[test]
    fn zero_fields_are_rejected() {
        let g = MemoryGeometry {
            channels: 0,
            ..Default::default()
        };
        assert!(g.validate().is_err());
    }

    #[test]
    fn adjacent_keys_stripe_across_channels() {
        let g = MemoryGeometry::default();
        for j in 0..64 {
            let loc = g.key_location(j).unwrap();
            assert_eq!(loc.channel, j % 16);
        }
    }

    #[test]
    fn same_channel_keys_share_rows_first() {
        let g = MemoryGeometry::default();
        // Keys 0, 16, 32, ... are consecutive on channel 0 and should
        // fill the same row before any bank/row change.
        let first = g.key_location(0).unwrap();
        for i in 1..g.vectors_per_row {
            let loc = g.key_location(i * g.channels).unwrap();
            assert_eq!(loc.bank, first.bank);
            assert_eq!(loc.row, first.row);
            assert_eq!(loc.slot, i);
        }
        // The next one rolls to the next bank, same row index.
        let next = g.key_location(g.vectors_per_row * g.channels).unwrap();
        assert_eq!(next.bank, first.bank + 1);
        assert_eq!(next.row, first.row);
        assert_eq!(next.slot, 0);
    }

    #[test]
    fn capacity_bound_is_enforced() {
        let g = MemoryGeometry {
            channels: 2,
            banks_per_channel: 2,
            vectors_per_row: 2,
            rows_per_bank: 2,
            bytes_per_fetch: 96,
            bursts_per_fetch: 3,
        };
        assert_eq!(g.capacity_vectors(), 16);
        assert!(g.key_location(15).is_ok());
        assert!(g.key_location(16).is_err());
    }

    proptest! {
        #[test]
        fn prop_location_round_trips(j in 0usize..100_000) {
            let g = MemoryGeometry::default();
            let loc = g.key_location(j).unwrap();
            prop_assert_eq!(g.key_at(loc), j);
            prop_assert!(loc.channel < g.channels);
            prop_assert!(loc.bank < g.banks_per_channel);
            prop_assert!(loc.slot < g.vectors_per_row);
            prop_assert!(loc.row < g.rows_per_bank);
        }

        #[test]
        fn prop_locations_are_injective(a in 0usize..50_000, b in 0usize..50_000) {
            let g = MemoryGeometry::default();
            if a != b {
                prop_assert_ne!(
                    g.key_location(a).unwrap(),
                    g.key_location(b).unwrap()
                );
            }
        }
    }
}
