//! Cache-line-aligned `f32` storage: the one home of the weights the
//! kernels stream, FC panels ([`crate::PackedWeights`]) and embedding
//! rows alike.

use std::ops::{Deref, DerefMut};

/// `f32`s per 64-byte cache line: the alignment slack a slab carries.
pub(crate) const LINE: usize = 16;

/// `len` floats whose first element starts a 64-byte cache line, so
/// rows of a multiple of 16 floats each start one (a 64-float row
/// touches four lines, not five). The floats live at `skip`, the first 64-byte boundary of a
/// `Vec` with under one line of slack; moving the `Vec` never moves its
/// heap block, so the alignment holds for the value's lifetime, and a
/// [`Clone`] draws a fresh aligned block. `==` compares the floats, not
/// the slack. It dereferences to the `len` floats.
#[derive(Debug)]
pub struct AlignedSlab {
    buf: Vec<f32>,
    skip: usize,
    len: usize,
}

impl AlignedSlab {
    /// `len` zeros, to be written in place by their producer.
    #[must_use]
    pub fn zeroed(len: usize) -> Self {
        let buf = vec![0.0f32; len + LINE - 1];
        let misalign = buf.as_ptr() as usize % 64;
        let skip = if misalign == 0 { 0 } else { (64 - misalign) / 4 };
        Self { buf, skip, len }
    }

    /// Heap bytes held, alignment slack included.
    #[must_use]
    pub fn heap_bytes(&self) -> usize {
        self.buf.len() * std::mem::size_of::<f32>()
    }
}

impl Deref for AlignedSlab {
    type Target = [f32];

    fn deref(&self) -> &[f32] {
        &self.buf[self.skip..self.skip + self.len]
    }
}

impl DerefMut for AlignedSlab {
    fn deref_mut(&mut self) -> &mut [f32] {
        &mut self.buf[self.skip..self.skip + self.len]
    }
}

impl Clone for AlignedSlab {
    fn clone(&self) -> Self {
        let mut copy = Self::zeroed(self.len);
        copy.copy_from_slice(self);
        copy
    }
}

impl PartialEq for AlignedSlab {
    fn eq(&self, other: &Self) -> bool {
        **self == **other
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_slab_and_its_clone_start_a_line_and_compare_without_slack() {
        for len in [0, 1, 15, 16, 17, 1000] {
            let mut slab = AlignedSlab::zeroed(len);
            slab.iter_mut().enumerate().for_each(|(i, v)| *v = i as f32);
            let mut copy = slab.clone();
            for s in [&slab, &copy] {
                assert_eq!((s.as_ptr() as usize % 64, s.len()), (0, len));
                assert!(s.heap_bytes() < (len + LINE) * 4);
            }
            copy.buf.iter_mut().take(copy.skip).for_each(|v| *v = f32::NAN);
            copy.buf.iter_mut().skip(copy.skip + len).for_each(|v| *v = f32::NAN);
            assert_eq!(copy, slab, "len {len}");
        }
    }
}
