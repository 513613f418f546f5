//! The memory-request generator engine (§V-C).
//!
//! One MRG per memory controller/channel turns the SLD's memory-request
//! vector into addressed fetches for the keys *resident on that
//! channel*. It walks the bit vector with a **base register** (the
//! channel's first key index) and a **shared up-counter** stepping by
//! the channel count.

use crate::{KeyLocation, MemoryError, MemoryGeometry};

/// One generated key fetch: logical key index plus physical location.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct KeyAddress {
    /// Logical key index within the sequence.
    pub key: usize,
    /// Physical location in the memory geometry.
    pub location: KeyLocation,
}

/// The per-channel memory request generator. The paper's key index
/// generator (KIG) is the same walk over the spatial-locality vector,
/// so it has no type of its own.
///
/// # Example
///
/// ```
/// use sprint_memory::{MemoryGeometry, MemoryRequestGenerator};
///
/// let g = MemoryGeometry { channels: 4, ..MemoryGeometry::default() };
/// let mrg = MemoryRequestGenerator::new(1, g).unwrap();
/// // Keys 1 and 5 live on channel 1 (j mod 4 == 1); key 2 does not.
/// let req = vec![false, true, true, false, false, true, false, false];
/// let out = mrg.generate(&req);
/// let keys: Vec<usize> = out.iter().map(|a| a.key).collect();
/// assert_eq!(keys, vec![1, 5]);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MemoryRequestGenerator {
    /// Base register: the first key index on this channel.
    base: usize,
    geometry: MemoryGeometry,
}

impl MemoryRequestGenerator {
    /// Creates the generator for `channel`.
    ///
    /// # Errors
    ///
    /// Returns [`MemoryError::AddressOutOfRange`] if the channel does
    /// not exist, or geometry validation errors.
    pub fn new(channel: usize, geometry: MemoryGeometry) -> Result<Self, MemoryError> {
        geometry.validate()?;
        if channel >= geometry.channels {
            return Err(MemoryError::AddressOutOfRange {
                what: "channel",
                index: channel,
                bound: geometry.channels,
            });
        }
        Ok(MemoryRequestGenerator {
            base: channel,
            geometry,
        })
    }

    /// The channel this engine serves.
    pub fn channel(&self) -> usize {
        self.base
    }

    /// Walks `vector` (`true` = generate) and emits an address for
    /// every set bit belonging to this channel.
    ///
    /// Mirrors the hardware: the up-counter starts at the base register
    /// and increments by the channel count, so only this channel's
    /// positions are ever inspected.
    pub fn generate(&self, vector: &[bool]) -> Vec<KeyAddress> {
        let mut out = Vec::new();
        let mut j = self.base;
        while j < vector.len() {
            if vector[j] {
                // By construction j is within this channel; location
                // lookup cannot fail for indices under capacity.
                if let Ok(location) = self.geometry.key_location(j) {
                    debug_assert_eq!(location.channel, self.base % self.geometry.channels);
                    out.push(KeyAddress { key: j, location });
                }
            }
            j += self.geometry.channels;
        }
        out
    }
}

/// What every channel's MRG emits for one request vector, built at
/// once: the requested keys, addressed and grouped by home channel,
/// each channel's ascending — exactly the lists the per-channel
/// [`MemoryRequestGenerator`] walks would emit — in one stable counting
/// pass over the ascending request list, into storage reused from
/// query to query. A key past the geometry's capacity has no address
/// and is left out, as the walks leave it out.
#[derive(Debug, Clone, Default)]
pub(crate) struct ChannelBatches {
    /// The addressable requests in request order, then grouped by
    /// channel into `fetches`.
    addressed: Vec<KeyAddress>,
    fetches: Vec<KeyAddress>,
    /// `ends[c]`: one past channel `c`'s last fetch.
    ends: Vec<usize>,
}

impl ChannelBatches {
    /// Splits `requested` (ascending key indices) by channel.
    pub(crate) fn split(&mut self, geometry: &MemoryGeometry, requested: &[usize]) {
        self.addressed.clear();
        self.ends.clear();
        self.ends.resize(geometry.channels, 0);
        for &j in requested {
            if let Ok(location) = geometry.key_location(j) {
                self.ends[location.channel] += 1;
                self.addressed.push(KeyAddress { key: j, location });
            }
        }
        // Counts to starts, then each placement advances its channel's
        // start to where the channel ends.
        let mut start = 0;
        for end in &mut self.ends {
            (*end, start) = (start, start + *end);
        }
        self.fetches.clear();
        self.fetches.resize(start, KeyAddress::default());
        for &fetch in &self.addressed {
            let at = &mut self.ends[fetch.location.channel];
            self.fetches[*at] = fetch;
            *at += 1;
        }
    }

    /// Each channel's fetches, in channel order.
    pub(crate) fn iter(&self) -> impl Iterator<Item = &[KeyAddress]> {
        self.ends.iter().scan(0, |start, &end| {
            let batch = &self.fetches[*start..end];
            *start = end;
            Some(batch)
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn small_geometry() -> MemoryGeometry {
        MemoryGeometry {
            channels: 4,
            banks_per_channel: 2,
            vectors_per_row: 4,
            rows_per_bank: 64,
            bytes_per_fetch: 96,
            bursts_per_fetch: 3,
        }
    }

    #[test]
    fn construction_validates_channel() {
        assert!(MemoryRequestGenerator::new(4, small_geometry()).is_err());
        assert!(MemoryRequestGenerator::new(3, small_geometry()).is_ok());
    }

    #[test]
    fn generator_only_emits_its_channel() {
        let g = small_geometry();
        let vector = vec![true; 32];
        for ch in 0..4 {
            let mrg = MemoryRequestGenerator::new(ch, g).unwrap();
            let out = mrg.generate(&vector);
            assert_eq!(out.len(), 8, "32 keys / 4 channels");
            assert!(out.iter().all(|a| a.key % 4 == ch));
            assert!(out.iter().all(|a| a.location.channel == ch));
        }
    }

    #[test]
    fn generators_cover_every_set_bit_exactly_once() {
        let g = small_geometry();
        let vector: Vec<bool> = (0..40).map(|j| j % 3 == 0).collect();
        let mut seen = Vec::new();
        for ch in 0..4 {
            let mrg = MemoryRequestGenerator::new(ch, g).unwrap();
            seen.extend(mrg.generate(&vector).into_iter().map(|a| a.key));
        }
        seen.sort_unstable();
        let expected: Vec<usize> = (0..40).filter(|j| j % 3 == 0).collect();
        assert_eq!(seen, expected);
    }

    #[test]
    fn empty_vector_generates_nothing() {
        let mrg = MemoryRequestGenerator::new(0, small_geometry()).unwrap();
        assert!(mrg.generate(&[]).is_empty());
        assert!(mrg.generate(&[false; 16]).is_empty());
    }

    proptest! {
        #[test]
        fn prop_channel_batches_are_the_walks(
            bits in proptest::collection::vec(proptest::bool::ANY, 0..128),
        ) {
            let g = small_geometry();
            let requested: Vec<usize> =
                bits.iter().enumerate().filter_map(|(j, &b)| b.then_some(j)).collect();
            let mut batches = ChannelBatches::default();
            batches.split(&g, &requested);
            let walks: Vec<Vec<KeyAddress>> = (0..g.channels)
                .map(|ch| MemoryRequestGenerator::new(ch, g).unwrap().generate(&bits))
                .collect();
            let split: Vec<Vec<KeyAddress>> = batches.iter().map(<[_]>::to_vec).collect();
            prop_assert_eq!(split, walks);
        }

        #[test]
        fn prop_partition_over_channels(
            bits in proptest::collection::vec(proptest::bool::ANY, 0..128),
        ) {
            let g = small_geometry();
            let mut all = Vec::new();
            for ch in 0..g.channels {
                let mrg = MemoryRequestGenerator::new(ch, g).unwrap();
                all.extend(mrg.generate(&bits).into_iter().map(|a| a.key));
            }
            all.sort_unstable();
            let expected: Vec<usize> =
                bits.iter().enumerate().filter_map(|(j, &b)| b.then_some(j)).collect();
            prop_assert_eq!(all, expected);
        }
    }
}
