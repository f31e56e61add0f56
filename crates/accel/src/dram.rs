//! Byte-addressable DRAM model that holds only the bytes written so far.
//!
//! The emulated DRAM has a *logical* capacity (`AccelConfig::dram_capacity`,
//! 256 MiB by default) against which every access is bounds-checked, but
//! its backing store holds only the bytes from address 0 up to the highest
//! byte ever written — the *held length*. A loaded plan therefore costs its
//! own footprint in host memory, and cloning a device (one per pool thread
//! in a campaign) copies that footprint instead of the whole capacity.

use crate::error::AccelError;

/// The emulated DRAM: a flat byte store of the held length plus the logical
/// capacity.
///
/// Reads that reach past the held length return zeros for that part, exactly
/// as an untouched dense DRAM would; writes first grow the store with zeros
/// up to the end of the write. Out-of-range accesses fail against the
/// logical capacity, whatever the held length.
#[derive(Clone, Debug)]
pub struct Dram {
    /// Bytes `0..data.len()`; every byte above reads as zero.
    data: Vec<u8>,
    capacity: u64,
}

impl Dram {
    /// Creates a zeroed DRAM of logical `capacity` bytes. Nothing is
    /// allocated until the first write.
    #[must_use]
    pub fn new(capacity: u64) -> Self {
        Dram {
            data: Vec::new(),
            capacity,
        }
    }

    /// Logical capacity in bytes.
    #[must_use]
    pub fn capacity(&self) -> u64 {
        self.capacity
    }

    /// Held length: bytes `0..held_len()` are backed by host memory.
    #[cfg(test)]
    pub(crate) fn held_len(&self) -> usize {
        self.data.len()
    }

    fn check(&self, addr: u64, len: u64) -> Result<(usize, usize), AccelError> {
        let end = addr.checked_add(len).ok_or(AccelError::DramOutOfBounds {
            addr,
            len,
            capacity: self.capacity,
        })?;
        if end > self.capacity {
            return Err(AccelError::DramOutOfBounds {
                addr,
                len,
                capacity: self.capacity,
            });
        }
        Ok((addr as usize, end as usize))
    }

    /// The held part of the checked range `a..b`; the rest reads as zero.
    fn held(&self, a: usize, b: usize) -> &[u8] {
        self.data.get(a..b.min(self.data.len())).unwrap_or_default()
    }

    /// The checked range `a..b` for writing, after growing the held store
    /// with zeros to cover it. An empty range grows nothing.
    fn held_mut(&mut self, a: usize, b: usize) -> &mut [u8] {
        if a == b {
            return &mut [];
        }
        if self.data.len() < b {
            self.data.resize(b, 0);
        }
        &mut self.data[a..b]
    }

    /// Reads `len` bytes as i8.
    ///
    /// # Errors
    ///
    /// Returns [`AccelError::DramOutOfBounds`] on a bad range.
    pub fn read_i8(&self, addr: u64, len: u64) -> Result<Vec<i8>, AccelError> {
        let mut out = Vec::new();
        self.read_i8_into(addr, len, &mut out)?;
        Ok(out)
    }

    /// Buffer-reusing [`Dram::read_i8`]: clears `out` and fills it with the
    /// `len` bytes at `addr`. Steady-state readers keep one buffer and never
    /// reallocate once its capacity has grown to the largest read.
    ///
    /// # Errors
    ///
    /// Returns [`AccelError::DramOutOfBounds`] on a bad range.
    pub fn read_i8_into(&self, addr: u64, len: u64, out: &mut Vec<i8>) -> Result<(), AccelError> {
        let (a, b) = self.check(addr, len)?;
        out.clear();
        out.extend(self.held(a, b).iter().map(|&v| v as i8));
        out.resize(b - a, 0);
        Ok(())
    }

    /// Writes an i8 slice.
    ///
    /// # Errors
    ///
    /// Returns [`AccelError::DramOutOfBounds`] on a bad range.
    pub fn write_i8(&mut self, addr: u64, bytes: &[i8]) -> Result<(), AccelError> {
        let (a, b) = self.check(addr, bytes.len() as u64)?;
        for (dst, &src) in self.held_mut(a, b).iter_mut().zip(bytes) {
            *dst = src as u8;
        }
        Ok(())
    }

    /// Reads `count` little-endian i32 words.
    ///
    /// # Errors
    ///
    /// Returns [`AccelError::DramOutOfBounds`] on a bad range.
    pub fn read_i32(&self, addr: u64, count: usize) -> Result<Vec<i32>, AccelError> {
        let (a, b) = self.check(addr, count as u64 * 4)?;
        let mut bytes = self.held(a, b).to_vec();
        bytes.resize(b - a, 0);
        Ok(bytes
            .chunks_exact(4)
            .map(|c| i32::from_le_bytes([c[0], c[1], c[2], c[3]]))
            .collect())
    }

    /// Writes little-endian i32 words.
    ///
    /// # Errors
    ///
    /// Returns [`AccelError::DramOutOfBounds`] on a bad range.
    pub fn write_i32(&mut self, addr: u64, words: &[i32]) -> Result<(), AccelError> {
        let (a, b) = self.check(addr, words.len() as u64 * 4)?;
        for (dst, w) in self.held_mut(a, b).chunks_exact_mut(4).zip(words) {
            dst.copy_from_slice(&w.to_le_bytes());
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn i8_roundtrip() {
        let mut d = Dram::new(64);
        d.write_i8(8, &[-1, 2, -3]).unwrap();
        assert_eq!(d.read_i8(8, 3).unwrap(), vec![-1, 2, -3]);
    }

    #[test]
    fn i32_roundtrip_little_endian() {
        let mut d = Dram::new(64);
        d.write_i32(0, &[-2, 0x01020304]).unwrap();
        assert_eq!(d.read_i32(0, 2).unwrap(), vec![-2, 0x01020304]);
        // LE byte order check.
        assert_eq!(d.read_i8(4, 1).unwrap(), vec![4]);
    }

    #[test]
    fn bounds_enforced() {
        let mut d = Dram::new(16);
        assert!(d.write_i8(15, &[0, 0]).is_err());
        assert!(d.read_i32(14, 1).is_err());
        assert!(
            d.read_i8(u64::MAX, 2).is_err(),
            "overflowing range must fail"
        );
        let err = d.read_i8(20, 1).unwrap_err();
        assert!(err.to_string().contains("out of bounds"));
    }

    /// Asserts that `err` is an out-of-range error reporting `capacity`.
    fn assert_out_of_bounds(err: AccelError, capacity: u64) {
        match err {
            AccelError::DramOutOfBounds { capacity: c, .. } => assert_eq!(c, capacity),
            other => panic!("expected DramOutOfBounds, got {other:?}"),
        }
    }

    #[test]
    fn fresh_dram_reports_logical_capacity_and_holds_nothing() {
        let d = Dram::new(1 << 28);
        assert_eq!(d.capacity(), 1 << 28);
        assert_eq!(d.held_len(), 0);
    }

    #[test]
    fn unwritten_and_straddling_reads_are_zero() {
        let mut d = Dram::new(1 << 28);
        assert_eq!(d.read_i8(1 << 20, 8).unwrap(), vec![0; 8]);
        d.write_i8(4, &[1, -2, 3]).unwrap();
        assert_eq!(d.held_len(), 7);
        // Bytes 2..10 straddle the highest byte written (6).
        assert_eq!(d.read_i8(2, 8).unwrap(), vec![0, 0, 1, -2, 3, 0, 0, 0]);
        let mut buf = vec![9; 3];
        d.read_i8_into(5, 4, &mut buf).unwrap();
        assert_eq!(buf, vec![-2, 3, 0, 0]);
        // A read entirely above the held length leaves it alone.
        assert_eq!(d.held_len(), 7);
    }

    #[test]
    fn write_at_last_byte_succeeds_and_reads_back() {
        let cap = 4096;
        let mut d = Dram::new(cap);
        d.write_i8(cap - 1, &[-7]).unwrap();
        assert_eq!(d.read_i8(cap - 1, 1).unwrap(), vec![-7]);
        assert_eq!(d.read_i8(cap - 3, 3).unwrap(), vec![0, 0, -7]);
        assert_eq!(d.held_len(), cap as usize);
    }

    #[test]
    fn read_i32_above_held_length_is_zero() {
        let mut d = Dram::new(1 << 28);
        d.write_i32(0, &[-1]).unwrap();
        assert_eq!(d.read_i32(64, 2).unwrap(), vec![0, 0]);
        // Bytes 2..6 are [0xff, 0xff, 0, 0]: half held, half zero.
        assert_eq!(d.read_i32(2, 1).unwrap(), vec![0xffff]);
    }

    #[test]
    fn out_of_range_fails_against_the_logical_capacity() {
        let cap = 1 << 28;
        let mut d = Dram::new(cap);
        assert_out_of_bounds(d.write_i8(cap - 1, &[0, 0]).unwrap_err(), cap);
        assert_out_of_bounds(d.write_i32(cap - 2, &[0]).unwrap_err(), cap);
        assert_out_of_bounds(d.read_i8(cap, 1).unwrap_err(), cap);
        assert_out_of_bounds(d.read_i32(cap - 4, 2).unwrap_err(), cap);
        assert_out_of_bounds(d.read_i8(u64::MAX, 2).unwrap_err(), cap);
        // Failed writes grow nothing, and neither does an empty one.
        d.write_i8(cap, &[]).unwrap();
        assert_eq!(d.held_len(), 0);
    }
}
