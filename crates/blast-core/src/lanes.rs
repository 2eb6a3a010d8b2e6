//! Eight signed integer lanes for the extension DPs in [`crate::extend`].
//!
//! Each DP is one kernel generic over [`Lanes`], instantiated with 16-bit
//! lanes ([`I16x8`]) when its scores provably fit and with 32-bit lanes
//! ([`I32x8`]) otherwise. On x86_64 the 16-bit lanes are an SSE2 register:
//! SSE2 is part of the x86_64 baseline, so there is no runtime detection
//! and no build option. Everywhere else they are a plain `[i16; 8]`, and
//! the 32-bit lanes always are a plain `[i32; 8]`. The SSE2 backend is the
//! crate's only `unsafe` code.
//!
//! Arithmetic saturates, so [`Elem::MIN`] — the DPs' dead-cell sentinel —
//! stays `MIN` under every subtraction and stays within a few scores of
//! `MIN` under an addition. A mask is a vector whose lanes are all ones
//! (true) or all zeros (false).

use std::ops::{BitAnd, BitOr, Not};

/// Lanes per vector.
pub(crate) const LANES: usize = 8;

/// A lane's integer type.
pub(crate) trait Elem:
    Copy + Ord + Default + BitAnd<Output = Self> + BitOr<Output = Self> + Not<Output = Self>
{
    /// The dead-cell sentinel, and where saturation stops.
    const MIN: Self;
    /// `x`, saturated into this type.
    fn sat(x: i32) -> Self;
    /// The value as an `i32`.
    fn get(self) -> i32;
}

impl Elem for i16 {
    const MIN: i16 = i16::MIN;
    fn sat(x: i32) -> i16 {
        x.clamp(i16::MIN.into(), i16::MAX.into()) as i16
    }
    fn get(self) -> i32 {
        self.into()
    }
}

impl Elem for i32 {
    const MIN: i32 = i32::MIN;
    fn sat(x: i32) -> i32 {
        x
    }
    fn get(self) -> i32 {
        self
    }
}

/// Eight lanes of [`Elem`]. Every operation works lane by lane unless it
/// says otherwise.
pub(crate) trait Lanes: Copy {
    /// The lane type.
    type Elem: Elem;
    /// Every lane `x`.
    fn splat(x: Self::Elem) -> Self;
    /// The lanes `a[0..8]`.
    fn load(a: &[Self::Elem; LANES]) -> Self;
    /// Write the lanes to `a[0..8]`.
    fn store(self, a: &mut [Self::Elem; LANES]);
    /// `self + o`, saturating.
    fn add(self, o: Self) -> Self;
    /// `self - o`, saturating.
    fn sub(self, o: Self) -> Self;
    /// The larger of `self` and `o`.
    fn max(self, o: Self) -> Self;
    /// Mask of `self > o`.
    fn gt(self, o: Self) -> Self;
    /// Mask of `self == o`.
    fn eq(self, o: Self) -> Self;
    /// Bitwise `self & o`.
    fn and(self, o: Self) -> Self;
    /// Bitwise `self & !o`.
    fn and_not(self, o: Self) -> Self;
    /// Bitwise `self | o`.
    fn or(self, o: Self) -> Self;
    /// A mask as bits: bit `l` is set when lane `l` is true.
    fn bits(self) -> u32;
    /// Every lane moved up one, lane 7 of `prev` entering lane 0 (lane 7
    /// leaves): the lanes one column to the left, when `prev` is the
    /// chunk before.
    fn shift_in(self, prev: Self) -> Self;
    /// Every lane set to lane 7.
    fn broadcast_last(self) -> Self;
    /// Inclusive prefix maximum: lane `l` is the maximum of lanes `0..=l`.
    fn prefix_max(self) -> Self;
    /// Lane 7.
    fn last(self) -> Self::Elem;
    /// The lanes, each in `0..=255`, as bytes.
    fn bytes(self) -> [u8; LANES];

    /// `a` where `mask` is true, `b` elsewhere.
    #[inline(always)]
    fn select(mask: Self, a: Self, b: Self) -> Self {
        a.and(mask).or(b.and_not(mask))
    }
}

/// The `len` cells of `row` from `at`, as chunks of eight (`len` is a
/// multiple of eight).
#[inline(always)]
pub(crate) fn chunks<E>(row: &[E], at: usize, len: usize) -> &[[E; LANES]] {
    row[at..at + len].as_chunks().0
}

/// [`chunks`], writable.
#[inline(always)]
pub(crate) fn chunks_mut<E>(row: &mut [E], at: usize, len: usize) -> &mut [[E; LANES]] {
    row[at..at + len].as_chunks_mut().0
}

/// Eight lanes as a plain array: the portable backend.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) struct Array<T>([T; LANES]);

impl<T: Elem> Array<T> {
    #[inline(always)]
    fn zip(self, o: Self, f: impl Fn(T, T) -> T) -> Self {
        Array(std::array::from_fn(|l| f(self.0[l], o.0[l])))
    }

    #[inline(always)]
    fn mask(self, o: Self, f: impl Fn(T, T) -> bool) -> Self {
        self.zip(o, |a, b| if f(a, b) { !T::default() } else { T::default() })
    }
}

impl<T: Elem> Lanes for Array<T> {
    type Elem = T;

    #[inline(always)]
    fn splat(x: T) -> Self {
        Array([x; LANES])
    }
    #[inline(always)]
    fn load(a: &[T; LANES]) -> Self {
        Array(*a)
    }
    #[inline(always)]
    fn store(self, a: &mut [T; LANES]) {
        *a = self.0;
    }
    #[inline(always)]
    fn add(self, o: Self) -> Self {
        self.zip(o, |a, b| T::sat(a.get().saturating_add(b.get())))
    }
    #[inline(always)]
    fn sub(self, o: Self) -> Self {
        self.zip(o, |a, b| T::sat(a.get().saturating_sub(b.get())))
    }
    #[inline(always)]
    fn max(self, o: Self) -> Self {
        self.zip(o, Ord::max)
    }
    #[inline(always)]
    fn gt(self, o: Self) -> Self {
        self.mask(o, |a, b| a > b)
    }
    #[inline(always)]
    fn eq(self, o: Self) -> Self {
        self.mask(o, |a, b| a == b)
    }
    #[inline(always)]
    fn and(self, o: Self) -> Self {
        self.zip(o, |a, b| a & b)
    }
    #[inline(always)]
    fn and_not(self, o: Self) -> Self {
        self.zip(o, |a, b| a & !b)
    }
    #[inline(always)]
    fn or(self, o: Self) -> Self {
        self.zip(o, |a, b| a | b)
    }
    #[inline(always)]
    fn bits(self) -> u32 {
        (0..LANES).fold(0, |bits, l| {
            bits | (u32::from(self.0[l] != T::default()) << l)
        })
    }
    #[inline(always)]
    fn shift_in(self, prev: Self) -> Self {
        Array(std::array::from_fn(|l| {
            if l == 0 {
                prev.last()
            } else {
                self.0[l - 1]
            }
        }))
    }
    #[inline(always)]
    fn broadcast_last(self) -> Self {
        Array([self.last(); LANES])
    }
    #[inline(always)]
    fn prefix_max(mut self) -> Self {
        for l in 1..LANES {
            self.0[l] = self.0[l].max(self.0[l - 1]);
        }
        self
    }
    #[inline(always)]
    fn last(self) -> T {
        self.0[LANES - 1]
    }
    #[inline(always)]
    fn bytes(self) -> [u8; LANES] {
        self.0.map(|x| x.get() as u8)
    }
}

#[cfg(all(target_arch = "x86_64", target_feature = "sse2"))]
#[allow(unsafe_code)]
mod sse2 {
    use super::{Lanes, LANES};
    use std::arch::x86_64::*;

    /// Calls SSE2 intrinsics. An intrinsic is a `#[target_feature]`
    /// function, which a function without that attribute may only call
    /// in `unsafe` — and trait methods cannot carry the attribute.
    macro_rules! sse2 {
        ($e:expr) => {
            // SAFETY: this module compiles only where the target enables
            // SSE2 (every x86_64 target does), and the intrinsics called
            // here take no pointers.
            unsafe { $e }
        };
    }

    /// Eight `i16` lanes in one SSE2 register.
    #[derive(Clone, Copy, Debug)]
    pub(crate) struct Sse2(__m128i);

    impl Lanes for Sse2 {
        type Elem = i16;

        #[inline(always)]
        fn splat(x: i16) -> Self {
            Sse2(sse2!(_mm_set1_epi16(x)))
        }
        #[inline(always)]
        fn load(a: &[i16; LANES]) -> Self {
            // SAFETY: SSE2 is enabled (see `sse2!`); `a` is 16 readable
            // bytes, and an unaligned load has no alignment requirement.
            Sse2(unsafe { _mm_loadu_si128(a.as_ptr().cast()) })
        }
        #[inline(always)]
        fn store(self, a: &mut [i16; LANES]) {
            // SAFETY: SSE2 is enabled (see `sse2!`); `a` is 16 writable
            // bytes borrowed exclusively, and an unaligned store has no
            // alignment requirement.
            unsafe { _mm_storeu_si128(a.as_mut_ptr().cast(), self.0) }
        }
        #[inline(always)]
        fn add(self, o: Self) -> Self {
            Sse2(sse2!(_mm_adds_epi16(self.0, o.0)))
        }
        #[inline(always)]
        fn sub(self, o: Self) -> Self {
            Sse2(sse2!(_mm_subs_epi16(self.0, o.0)))
        }
        #[inline(always)]
        fn max(self, o: Self) -> Self {
            Sse2(sse2!(_mm_max_epi16(self.0, o.0)))
        }
        #[inline(always)]
        fn gt(self, o: Self) -> Self {
            Sse2(sse2!(_mm_cmpgt_epi16(self.0, o.0)))
        }
        #[inline(always)]
        fn eq(self, o: Self) -> Self {
            Sse2(sse2!(_mm_cmpeq_epi16(self.0, o.0)))
        }
        #[inline(always)]
        fn and(self, o: Self) -> Self {
            Sse2(sse2!(_mm_and_si128(self.0, o.0)))
        }
        #[inline(always)]
        fn and_not(self, o: Self) -> Self {
            Sse2(sse2!(_mm_andnot_si128(o.0, self.0)))
        }
        #[inline(always)]
        fn or(self, o: Self) -> Self {
            Sse2(sse2!(_mm_or_si128(self.0, o.0)))
        }
        #[inline(always)]
        fn bits(self) -> u32 {
            // Narrow each all-ones/all-zeros lane to one byte, then take
            // the bytes' sign bits.
            sse2!(_mm_movemask_epi8(_mm_packs_epi16(
                self.0,
                _mm_setzero_si128()
            ))) as u32
        }
        #[inline(always)]
        fn shift_in(self, prev: Self) -> Self {
            Sse2(sse2!(_mm_or_si128(
                _mm_slli_si128::<2>(self.0),
                _mm_srli_si128::<14>(prev.0)
            )))
        }
        #[inline(always)]
        fn broadcast_last(self) -> Self {
            sse2!({
                let high = _mm_shufflehi_epi16::<0xff>(self.0);
                Sse2(_mm_unpackhi_epi64(high, high))
            })
        }
        #[inline(always)]
        fn prefix_max(self) -> Self {
            // Three shift-and-max steps. A byte shift brings in zeros,
            // which would win the max against negative lanes; OR-ing
            // `i16::MIN`'s bit pattern into the vacated lanes turns them
            // into `i16::MIN`, which never does.
            const M: i16 = i16::MIN;
            sse2!({
                let x = self.0;
                let x = _mm_max_epi16(
                    x,
                    _mm_or_si128(
                        _mm_slli_si128::<2>(x),
                        _mm_set_epi16(0, 0, 0, 0, 0, 0, 0, M),
                    ),
                );
                let x = _mm_max_epi16(
                    x,
                    _mm_or_si128(
                        _mm_slli_si128::<4>(x),
                        _mm_set_epi16(0, 0, 0, 0, 0, 0, M, M),
                    ),
                );
                Sse2(_mm_max_epi16(
                    x,
                    _mm_or_si128(
                        _mm_slli_si128::<8>(x),
                        _mm_set_epi16(0, 0, 0, 0, M, M, M, M),
                    ),
                ))
            })
        }
        #[inline(always)]
        fn last(self) -> i16 {
            sse2!(_mm_extract_epi16::<7>(self.0)) as i16
        }
        #[inline(always)]
        fn bytes(self) -> [u8; LANES] {
            let packed = sse2!(_mm_cvtsi128_si64(_mm_packus_epi16(self.0, self.0)));
            packed.to_le_bytes()
        }
    }
}

/// 16-bit lanes: SSE2 where the target has it (every x86_64 target).
#[cfg(all(target_arch = "x86_64", target_feature = "sse2"))]
pub(crate) type I16x8 = sse2::Sse2;
/// 16-bit lanes: a plain array elsewhere.
#[cfg(not(all(target_arch = "x86_64", target_feature = "sse2")))]
pub(crate) type I16x8 = Array<i16>;
/// 32-bit lanes, for DPs whose scores may not fit 16 bits.
pub(crate) type I32x8 = Array<i32>;

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// Every operation of `L` on `(a, b)` as arrays.
    fn run_ops<L: Lanes<Elem = i16>>(a: [i16; LANES], b: [i16; LANES]) -> Vec<[i16; LANES]> {
        let (x, y) = (L::load(&a), L::load(&b));
        let out = |v: L| {
            let mut o = [0; LANES];
            v.store(&mut o);
            o
        };
        let mask = x.gt(y);
        let bytes = L::load(&a.map(|v| v & 0xff)).bytes().map(i16::from);
        vec![
            out(L::splat(a[3])),
            out(x.add(y)),
            out(x.sub(y)),
            out(x.max(y)),
            out(mask),
            out(x.eq(y)),
            out(x.and(y)),
            out(x.and_not(y)),
            out(x.or(y)),
            [mask.bits() as i16; LANES],
            out(x.shift_in(y)),
            out(x.broadcast_last()),
            out(x.prefix_max()),
            [x.last(); LANES],
            bytes,
            out(L::select(mask, x, y)),
        ]
    }

    /// Eight lanes, drawn so that the extremes and near-equal small values
    /// are common.
    fn lanes() -> impl Strategy<Value = [i16; LANES]> {
        prop::collection::vec((0u8..4, any::<i16>()), LANES).prop_map(|draws| {
            std::array::from_fn(|l| match draws[l] {
                (0, _) => i16::MIN,
                (1, _) => i16::MAX,
                (2, x) => x % 4,
                (_, x) => x,
            })
        })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(2048))]

        /// The SSE2 lanes and the plain-array lanes agree on every
        /// operation, saturation included.
        #[test]
        fn i16_backends_agree_on_every_operation(a in lanes(), b in lanes()) {
            prop_assert_eq!(run_ops::<I16x8>(a, b), run_ops::<Array<i16>>(a, b));
        }
    }
}
