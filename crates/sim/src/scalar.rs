//! The scalar widths a load or store moves.

/// A value one load or store moves: `u8`, `u16`, `u32`, `u64` or `f64`
/// (its bit pattern), little-endian. [`Machine::try_read`] and
/// [`Machine::try_write`] are generic over it; width is `SIZE` and
/// nothing else.
///
/// Sealed: a recorded access carries its width in MTR1's `size` field,
/// which holds 1, 2, 4 or 8, so no other crate can add a width.
///
/// [`Machine::try_read`]: crate::Machine::try_read
/// [`Machine::try_write`]: crate::Machine::try_write
pub trait Scalar: sealed::Sealed + Copy {
    /// Bytes moved: 1, 2, 4 or 8.
    const SIZE: u8;
    /// The value whose little-endian bytes are the low `SIZE` bytes of
    /// `bits`.
    fn from_bits(bits: u64) -> Self;
    /// This value's little-endian bytes, zero-extended to a `u64`.
    fn to_bits(self) -> u64;
}

mod sealed {
    pub trait Sealed {}
}

macro_rules! scalar {
    ($($t:ty: |$bits:ident| $from:expr, |$v:ident| $to:expr;)*) => {$(
        impl sealed::Sealed for $t {}
        impl Scalar for $t {
            const SIZE: u8 = std::mem::size_of::<$t>() as u8;
            #[inline]
            fn from_bits($bits: u64) -> Self {
                $from
            }
            #[inline]
            fn to_bits(self) -> u64 {
                let $v = self;
                $to
            }
        }
    )*};
}

scalar! {
    u8: |bits| bits as u8, |v| u64::from(v);
    u16: |bits| bits as u16, |v| u64::from(v);
    u32: |bits| bits as u32, |v| u64::from(v);
    u64: |bits| bits, |v| v;
    f64: |bits| f64::from_bits(bits), |v| v.to_bits();
}
