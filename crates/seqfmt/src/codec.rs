//! The one door for untrusted bytes: every message, checkpoint blob and
//! index table of the stack is a [`Wire`] type — a field list written
//! through a [`Writer`] and read back through a [`Reader`].
//!
//! Everything is little-endian; strings, byte strings and lists carry a
//! `u32` length prefix. A count read from the input is bounded by the
//! bytes that remain *before* anything is allocated for it
//! ([`Reader::list_of`]), so no input, however garbled, can make a
//! decoder panic or allocate more than a small multiple of its own
//! length.

use blast_core::alphabet::Molecule;
use blast_core::hsp::Hsp;
use blast_core::search::SubjectHit;
use blast_core::stats::DbStats;

/// Decoding errors shared by all seqfmt readers.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CodecError {
    /// Input ended before a field was complete.
    Truncated {
        /// What was being read.
        what: &'static str,
    },
    /// A magic tag or enum byte had an unexpected value.
    BadValue {
        /// What was being read.
        what: &'static str,
    },
}

impl std::fmt::Display for CodecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CodecError::Truncated { what } => write!(f, "truncated input while reading {what}"),
            CodecError::BadValue { what } => write!(f, "invalid value for {what}"),
        }
    }
}

impl std::error::Error for CodecError {}

/// A value with one byte layout, shared by its sender and its receiver.
pub trait Wire: Sized {
    /// Fewest bytes any encoding of this type occupies.
    /// [`Reader::list_of`] divides the remaining input by it to bound a
    /// count, so it must never exceed a real encoding's length.
    const MIN_SIZE: usize;

    /// Append this value's fields.
    fn put(&self, w: &mut Writer);

    /// Read the fields back, in the order [`Wire::put`] wrote them.
    fn get(r: &mut Reader<'_>) -> Result<Self, CodecError>;

    /// Append `items` back to back (`u8` copies them in one piece).
    fn put_all(items: &[Self], w: &mut Writer) {
        for item in items {
            item.put(w);
        }
    }

    /// Read `n` values back to back (`u8` copies them in one piece).
    fn get_all(r: &mut Reader<'_>, n: u64) -> Result<Vec<Self>, CodecError> {
        r.list_of(n, Self::MIN_SIZE, Self::get)
    }

    /// Serialize into a fresh buffer.
    fn encode(&self) -> Vec<u8> {
        let mut w = Writer::default();
        self.put(&mut w);
        w.finish()
    }

    /// Parse a whole buffer: truncation, a bad value and bytes left over
    /// after the last field are all errors.
    fn decode(buf: &[u8]) -> Result<Self, CodecError> {
        decode_with(buf, Self::get)
    }
}

/// Run `read` over all of `buf`; bytes it leaves unread are an error.
pub fn decode_with<'a, T>(
    buf: &'a [u8],
    read: impl FnOnce(&mut Reader<'a>) -> Result<T, CodecError>,
) -> Result<T, CodecError> {
    let mut r = Reader::new(buf);
    let value = read(&mut r)?;
    if r.remaining() != 0 {
        return Err(CodecError::BadValue {
            what: "trailing bytes",
        });
    }
    Ok(value)
}

/// A cursor over a byte slice.
pub struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
    what: &'static str,
}

impl<'a> Reader<'a> {
    /// Wrap a buffer.
    pub fn new(buf: &'a [u8]) -> Reader<'a> {
        Reader {
            buf,
            pos: 0,
            what: "input",
        }
    }

    /// Name what is read next; errors carry the latest name.
    pub fn at(&mut self, what: &'static str) -> &mut Self {
        self.what = what;
        self
    }

    /// Bytes remaining.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// The error for a value that was read but makes no sense.
    pub fn bad_value(&self) -> CodecError {
        CodecError::BadValue { what: self.what }
    }

    /// Read `n` raw bytes.
    pub fn bytes(&mut self, n: usize) -> Result<&'a [u8], CodecError> {
        if self.remaining() < n {
            return Err(CodecError::Truncated { what: self.what });
        }
        let out = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(out)
    }

    fn array<const N: usize>(&mut self) -> Result<[u8; N], CodecError> {
        let mut out = [0u8; N];
        out.copy_from_slice(self.bytes(N)?);
        Ok(out)
    }

    /// Read `n` elements of at least `min_size` bytes each with `get`.
    /// This is the one place a count read from the input sizes anything:
    /// a count the remaining bytes cannot hold is rejected first, which
    /// is what makes the one exact allocation safe.
    pub fn list_of<T>(
        &mut self,
        n: u64,
        min_size: usize,
        mut get: impl FnMut(&mut Self) -> Result<T, CodecError>,
    ) -> Result<Vec<T>, CodecError> {
        if n > (self.remaining() / min_size.max(1)) as u64 {
            return Err(CodecError::Truncated { what: self.what });
        }
        let mut items = Vec::with_capacity(n as usize);
        for _ in 0..n {
            items.push(get(self)?);
        }
        Ok(items)
    }

    /// Read `n` values back to back.
    pub fn list<T: Wire>(&mut self, n: u64) -> Result<Vec<T>, CodecError> {
        T::get_all(self, n)
    }

    /// Read a `u32`-length-prefixed byte string without copying it: the
    /// frame of a nested message, decoded strictly on its own.
    pub fn blob(&mut self) -> Result<&'a [u8], CodecError> {
        let n = u32::get(self)?;
        self.bytes(n as usize)
    }
}

/// An append-only output buffer.
#[derive(Default)]
pub struct Writer {
    buf: Vec<u8>,
}

impl Writer {
    /// Append raw bytes.
    pub fn bytes(&mut self, b: &[u8]) {
        self.buf.extend_from_slice(b);
    }

    /// Take the finished buffer.
    pub fn finish(self) -> Vec<u8> {
        self.buf
    }
}

impl Wire for u8 {
    const MIN_SIZE: usize = 1;
    fn put(&self, w: &mut Writer) {
        w.bytes(&[*self]);
    }
    fn get(r: &mut Reader<'_>) -> Result<u8, CodecError> {
        Ok(r.bytes(1)?[0])
    }
    fn put_all(items: &[u8], w: &mut Writer) {
        w.bytes(items);
    }
    fn get_all(r: &mut Reader<'_>, n: u64) -> Result<Vec<u8>, CodecError> {
        Ok(r.bytes(usize::try_from(n).unwrap_or(usize::MAX))?.to_vec())
    }
}

/// One byte, `0` or `1`; any other is a bad value.
impl Wire for bool {
    const MIN_SIZE: usize = 1;
    fn put(&self, w: &mut Writer) {
        u8::from(*self).put(w);
    }
    fn get(r: &mut Reader<'_>) -> Result<bool, CodecError> {
        match u8::get(r)? {
            0 => Ok(false),
            1 => Ok(true),
            _ => Err(r.bad_value()),
        }
    }
}

/// Fixed-width little-endian numbers. `i32` travels as its two's
/// complement `u32`, `f64` as its bit pattern.
macro_rules! wire_le {
    ($($t:ty),*) => {$(
        impl Wire for $t {
            const MIN_SIZE: usize = std::mem::size_of::<$t>();
            fn put(&self, w: &mut Writer) {
                w.bytes(&self.to_le_bytes());
            }
            fn get(r: &mut Reader<'_>) -> Result<$t, CodecError> {
                Ok(<$t>::from_le_bytes(r.array()?))
            }
        }
    )*};
}
wire_le!(u32, u64, i32, f64);

/// Indexes (a volume, a fragment) travel as `u32`.
impl Wire for usize {
    const MIN_SIZE: usize = 4;
    fn put(&self, w: &mut Writer) {
        (*self as u32).put(w);
    }
    fn get(r: &mut Reader<'_>) -> Result<usize, CodecError> {
        Ok(u32::get(r)? as usize)
    }
}

/// A `u32` count, then the elements.
impl<T: Wire> Wire for Vec<T> {
    const MIN_SIZE: usize = 4;
    fn put(&self, w: &mut Writer) {
        (self.len() as u32).put(w);
        T::put_all(self, w);
    }
    fn get(r: &mut Reader<'_>) -> Result<Vec<T>, CodecError> {
        let n = u32::get(r)?;
        r.list(u64::from(n))
    }
}

/// A byte string that must be UTF-8.
impl Wire for String {
    const MIN_SIZE: usize = 4;
    fn put(&self, w: &mut Writer) {
        (self.len() as u32).put(w);
        w.bytes(self.as_bytes());
    }
    fn get(r: &mut Reader<'_>) -> Result<String, CodecError> {
        String::from_utf8(Vec::get(r)?).map_err(|_| r.bad_value())
    }
}

impl<A: Wire, B: Wire> Wire for (A, B) {
    const MIN_SIZE: usize = A::MIN_SIZE + B::MIN_SIZE;
    fn put(&self, w: &mut Writer) {
        self.0.put(w);
        self.1.put(w);
    }
    fn get(r: &mut Reader<'_>) -> Result<(A, B), CodecError> {
        Ok((A::get(r)?, B::get(r)?))
    }
}

impl<A: Wire, B: Wire, C: Wire> Wire for (A, B, C) {
    const MIN_SIZE: usize = A::MIN_SIZE + B::MIN_SIZE + C::MIN_SIZE;
    fn put(&self, w: &mut Writer) {
        self.0.put(w);
        self.1.put(w);
        self.2.put(w);
    }
    fn get(r: &mut Reader<'_>) -> Result<(A, B, C), CodecError> {
        Ok((A::get(r)?, B::get(r)?, C::get(r)?))
    }
}

/// Implement [`Wire`] for a struct as the list of its fields, in wire
/// order; a decode error names the field it stopped in.
#[macro_export]
macro_rules! wire_struct {
    ($ty:ident { $($field:ident: $ft:ty),+ $(,)? }) => {
        impl $crate::codec::Wire for $ty {
            const MIN_SIZE: usize = 0 $(+ <$ft as $crate::codec::Wire>::MIN_SIZE)+;
            fn put(&self, w: &mut $crate::codec::Writer) {
                $($crate::codec::Wire::put(&self.$field, w);)+
            }
            fn get(r: &mut $crate::codec::Reader<'_>) -> Result<$ty, $crate::codec::CodecError> {
                Ok($ty {
                    $($field: $crate::codec::Wire::get(
                        r.at(concat!(stringify!($ty), ".", stringify!($field))),
                    )?,)+
                })
            }
        }
    };
}

/// One tag byte.
impl Wire for Molecule {
    const MIN_SIZE: usize = 1;
    fn put(&self, w: &mut Writer) {
        self.tag().put(w);
    }
    fn get(r: &mut Reader<'_>) -> Result<Molecule, CodecError> {
        Molecule::from_tag(u8::get(r)?).ok_or_else(|| r.bad_value())
    }
}

wire_struct!(DbStats {
    num_sequences: u64,
    total_residues: u64,
});

wire_struct!(Hsp {
    query_idx: u32,
    oid: u32,
    q_start: u32,
    q_end: u32,
    s_start: u32,
    s_end: u32,
    score: i32,
    bit_score: f64,
    evalue: f64,
});

wire_struct!(SubjectHit {
    oid: u32,
    subject_len: u32,
    hsps: Vec<Hsp>,
});

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_count_is_bounded_by_the_bytes_that_follow_it() {
        let lie = u32::MAX.encode();
        for decoded in [
            Vec::<u64>::decode(&lie).map(drop),
            Vec::<u8>::decode(&lie).map(drop),
            String::decode(&lie).map(drop),
            Reader::new(&[0; 15]).list::<u64>(2).map(drop),
            Reader::new(&[0; 15]).list::<u64>(u64::MAX).map(drop),
        ] {
            assert_eq!(decoded, Err(CodecError::Truncated { what: "input" }));
        }
        assert_eq!(Reader::new(&[0; 16]).list::<u64>(2), Ok(vec![0, 0]));
    }

    #[test]
    fn errors_name_the_field_they_stopped_in() {
        let bytes = Hsp::decode(&[0; 44]).expect("44 zero bytes").encode();
        assert_eq!(
            Hsp::decode(&bytes[..5]),
            Err(CodecError::Truncated { what: "Hsp.oid" })
        );
        assert_eq!(
            Molecule::decode(b"?"),
            Err(CodecError::BadValue { what: "input" })
        );
        assert_eq!(
            String::decode(&vec![0xffu8, 0xfe].encode()),
            Err(CodecError::BadValue { what: "input" })
        );
        assert_eq!(
            u32::decode(&[0; 5]),
            Err(CodecError::BadValue {
                what: "trailing bytes"
            })
        );
    }

    #[test]
    fn bytes_travel_in_one_piece_and_numbers_little_endian() {
        let value = (7u8, vec![1u8, 2, 3], (-2i32, 1.5f64, usize::MAX >> 32));
        let bytes = value.encode();
        assert_eq!(bytes[..8], [7, 3, 0, 0, 0, 1, 2, 3]);
        assert_eq!(bytes[8..12], [0xfe, 0xff, 0xff, 0xff]);
        assert_eq!(Wire::decode(&bytes), Ok(value));
    }
}
