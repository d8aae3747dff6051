//! A simple binary type-length-value format.
//!
//! Wire structures in the workspace (certificates, SGX reports and quotes,
//! sealed blobs, IMA lists, TLS handshake messages) are encoded as a sequence
//! of TLV records: a 1-byte tag, a 4-byte big-endian length and `length`
//! bytes of value. Records may nest, producing a DER-like (but deliberately
//! simpler) canonical encoding: encoding is a pure function of the structure,
//! which makes the format safe to hash and sign.

use crate::EncodingError;

/// Serializer producing a TLV byte stream.
#[derive(Debug, Default)]
pub struct TlvWriter {
    buf: Vec<u8>,
}

impl TlvWriter {
    pub fn new() -> TlvWriter {
        TlvWriter::default()
    }

    /// An empty writer with room for `capacity` bytes, for an encoding
    /// whose size is known up front.
    pub fn with_capacity(capacity: usize) -> TlvWriter {
        TlvWriter {
            buf: Vec::with_capacity(capacity),
        }
    }

    /// Append a record with raw bytes as the value.
    pub fn bytes(&mut self, tag: u8, value: &[u8]) -> &mut Self {
        self.joined(tag, &[value])
    }

    /// Append a record whose value is `parts` one after another, with no
    /// buffer of its own for the join.
    pub fn joined(&mut self, tag: u8, parts: &[&[u8]]) -> &mut Self {
        let len: usize = parts.iter().map(|part| part.len()).sum();
        let len = u32::try_from(len).expect("a TLV value fits in 4 GiB");
        self.buf.push(tag);
        self.buf.extend_from_slice(&len.to_be_bytes());
        for part in parts {
            self.buf.extend_from_slice(part);
        }
        self
    }

    /// Append a UTF-8 string record.
    pub fn string(&mut self, tag: u8, value: &str) -> &mut Self {
        self.bytes(tag, value.as_bytes())
    }

    /// Append a big-endian u64 record.
    pub fn u64(&mut self, tag: u8, value: u64) -> &mut Self {
        self.bytes(tag, &value.to_be_bytes())
    }

    /// Append a u32 record.
    pub fn u32(&mut self, tag: u8, value: u32) -> &mut Self {
        self.bytes(tag, &value.to_be_bytes())
    }

    /// Append a single-byte record.
    pub fn u8(&mut self, tag: u8, value: u8) -> &mut Self {
        self.bytes(tag, &[value])
    }

    /// Append a nested structure built by `f`, in one pass: the tag and a
    /// length placeholder go into this writer's buffer, `f` appends the
    /// value right behind them, and the length is patched in afterwards.
    /// The bytes are those of encoding the value on its own and appending
    /// it with [`bytes`](Self::bytes), with no buffer of its own.
    pub fn nested(&mut self, tag: u8, f: impl FnOnce(&mut TlvWriter)) -> &mut Self {
        self.buf.push(tag);
        let at = self.buf.len();
        self.buf.extend_from_slice(&[0; 4]);
        f(self);
        let len = u32::try_from(self.buf.len() - at - 4).expect("a TLV value fits in 4 GiB");
        self.buf[at..at + 4].copy_from_slice(&len.to_be_bytes());
        self
    }

    /// Consume the writer and return the encoded bytes.
    pub fn finish(self) -> Vec<u8> {
        self.buf
    }
}

/// Cursor-style reader over a TLV byte stream.
#[derive(Debug, Clone)]
pub struct TlvReader<'a> {
    data: &'a [u8],
    pos: usize,
}

impl<'a> TlvReader<'a> {
    pub fn new(data: &'a [u8]) -> TlvReader<'a> {
        TlvReader { data, pos: 0 }
    }

    /// True when every byte has been consumed.
    pub fn is_empty(&self) -> bool {
        self.pos >= self.data.len()
    }

    /// Read the next record as `(tag, value)`.
    #[allow(clippy::should_implement_trait)] // cursor API, not an Iterator
    pub fn next(&mut self) -> Result<(u8, &'a [u8]), EncodingError> {
        if self.pos >= self.data.len() {
            return Err(EncodingError::UnexpectedEnd);
        }
        if self.data.len() - self.pos < 5 {
            return Err(EncodingError::UnexpectedEnd);
        }
        let tag = self.data[self.pos];
        let len = u32::from_be_bytes(
            self.data[self.pos + 1..self.pos + 5]
                .try_into()
                .expect("4 bytes"),
        ) as usize;
        let start = self.pos + 5;
        let available = self.data.len() - start;
        if len > available {
            return Err(EncodingError::LengthOverrun {
                declared: len,
                available,
            });
        }
        self.pos = start + len;
        Ok((tag, &self.data[start..start + len]))
    }

    /// Read the next record, checking it carries the expected tag.
    pub fn expect(&mut self, tag: u8) -> Result<&'a [u8], EncodingError> {
        let (got, value) = self.next()?;
        if got != tag {
            return Err(EncodingError::Malformed(format!(
                "expected tag 0x{tag:02x}, found 0x{got:02x}"
            )));
        }
        Ok(value)
    }

    /// Read the next record as a UTF-8 string.
    pub fn expect_string(&mut self, tag: u8) -> Result<String, EncodingError> {
        let bytes = self.expect(tag)?;
        String::from_utf8(bytes.to_vec())
            .map_err(|_| EncodingError::Malformed("invalid utf-8 in string record".into()))
    }

    /// Read the next record as a big-endian u64.
    pub fn expect_u64(&mut self, tag: u8) -> Result<u64, EncodingError> {
        let bytes = self.expect(tag)?;
        let arr: [u8; 8] = bytes
            .try_into()
            .map_err(|_| EncodingError::InvalidLength(bytes.len()))?;
        Ok(u64::from_be_bytes(arr))
    }

    /// Read the next record as a big-endian u32.
    pub fn expect_u32(&mut self, tag: u8) -> Result<u32, EncodingError> {
        let bytes = self.expect(tag)?;
        let arr: [u8; 4] = bytes
            .try_into()
            .map_err(|_| EncodingError::InvalidLength(bytes.len()))?;
        Ok(u32::from_be_bytes(arr))
    }

    /// Read the next record as a single byte.
    pub fn expect_u8(&mut self, tag: u8) -> Result<u8, EncodingError> {
        let bytes = self.expect(tag)?;
        if bytes.len() != 1 {
            return Err(EncodingError::InvalidLength(bytes.len()));
        }
        Ok(bytes[0])
    }

    /// Read the next record as a fixed-length array.
    pub fn expect_array<const N: usize>(&mut self, tag: u8) -> Result<[u8; N], EncodingError> {
        let bytes = self.expect(tag)?;
        bytes
            .try_into()
            .map_err(|_| EncodingError::InvalidLength(bytes.len()))
    }

    /// Descend into a nested record.
    pub fn expect_nested(&mut self, tag: u8) -> Result<TlvReader<'a>, EncodingError> {
        Ok(TlvReader::new(self.expect(tag)?))
    }

    /// Require that no bytes remain.
    pub fn finish(&self) -> Result<(), EncodingError> {
        if self.is_empty() {
            Ok(())
        } else {
            Err(EncodingError::Malformed(format!(
                "{} trailing bytes in TLV structure",
                self.data.len() - self.pos
            )))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// A TLV tree: a record, or a nested structure of trees.
    #[derive(Debug, Clone)]
    enum Node {
        Leaf(u8, Vec<u8>),
        Nest(u8, Vec<Node>),
    }

    fn tree() -> impl Strategy<Value = Node> {
        let leaf = (any::<u8>(), proptest::collection::vec(any::<u8>(), 0..40))
            .prop_map(|(tag, value)| Node::Leaf(tag, value));
        leaf.prop_recursive(6, 64, 5, |inner| {
            (any::<u8>(), proptest::collection::vec(inner, 0..5))
                .prop_map(|(tag, children)| Node::Nest(tag, children))
        })
    }

    /// One-pass: every level writes into the parent's buffer.
    fn one_pass(w: &mut TlvWriter, node: &Node) {
        match node {
            Node::Leaf(tag, value) => {
                w.bytes(*tag, value);
            }
            Node::Nest(tag, children) => {
                w.nested(*tag, |inner| {
                    children.iter().for_each(|c| one_pass(inner, c))
                });
            }
        }
    }

    /// The reference: each level encoded in a writer of its own and
    /// appended with `bytes`.
    fn separately(w: &mut TlvWriter, node: &Node) {
        match node {
            Node::Leaf(tag, value) => {
                w.bytes(*tag, value);
            }
            Node::Nest(tag, children) => {
                let mut inner = TlvWriter::new();
                children.iter().for_each(|c| separately(&mut inner, c));
                w.bytes(*tag, &inner.finish());
            }
        }
    }

    proptest! {
        #[test]
        fn prop_one_pass_nesting_matches_separate_encoding(
            prefix in proptest::collection::vec(any::<u8>(), 0..8),
            trees in proptest::collection::vec(tree(), 0..4),
        ) {
            let (mut fast, mut reference) = (TlvWriter::new(), TlvWriter::new());
            for w in [&mut fast, &mut reference] {
                w.bytes(0xff, &prefix);
            }
            for node in &trees {
                one_pass(&mut fast, node);
                separately(&mut reference, node);
            }
            prop_assert_eq!(fast.finish(), reference.finish());
        }
    }

    #[test]
    fn roundtrip_flat_records() {
        let mut w = TlvWriter::new();
        w.string(1, "hello").u64(2, 0xdead_beef_0102_0304).u8(3, 7);
        let bytes = w.finish();

        let mut r = TlvReader::new(&bytes);
        assert_eq!(r.expect_string(1).unwrap(), "hello");
        assert_eq!(r.expect_u64(2).unwrap(), 0xdead_beef_0102_0304);
        assert_eq!(r.expect_u8(3).unwrap(), 7);
        r.finish().unwrap();
    }

    #[test]
    fn roundtrip_nested() {
        let mut w = TlvWriter::new();
        w.nested(10, |inner| {
            inner.u32(1, 42).bytes(2, &[9, 9, 9]);
        })
        .string(11, "after");
        let bytes = w.finish();

        let mut r = TlvReader::new(&bytes);
        let mut inner = r.expect_nested(10).unwrap();
        assert_eq!(inner.expect_u32(1).unwrap(), 42);
        assert_eq!(inner.expect(2).unwrap(), &[9, 9, 9]);
        inner.finish().unwrap();
        assert_eq!(r.expect_string(11).unwrap(), "after");
        r.finish().unwrap();
    }

    #[test]
    fn wrong_tag_is_error() {
        let mut w = TlvWriter::new();
        w.u8(1, 0);
        let bytes = w.finish();
        let mut r = TlvReader::new(&bytes);
        assert!(r.expect(2).is_err());
    }

    #[test]
    fn truncated_header_is_error() {
        let mut r = TlvReader::new(&[1, 0, 0]);
        assert_eq!(r.next(), Err(EncodingError::UnexpectedEnd));
    }

    #[test]
    fn overrun_length_is_error() {
        // Tag 1, declared length 100, only 2 bytes of value.
        let mut data = vec![1u8];
        data.extend_from_slice(&100u32.to_be_bytes());
        data.extend_from_slice(&[0, 0]);
        let mut r = TlvReader::new(&data);
        assert_eq!(
            r.next(),
            Err(EncodingError::LengthOverrun {
                declared: 100,
                available: 2
            })
        );
    }

    #[test]
    fn trailing_bytes_detected() {
        let mut w = TlvWriter::new();
        w.u8(1, 0).u8(2, 0);
        let bytes = w.finish();
        let mut r = TlvReader::new(&bytes);
        r.expect_u8(1).unwrap();
        assert!(r.finish().is_err());
        r.expect_u8(2).unwrap();
        r.finish().unwrap();
    }

    #[test]
    fn fixed_array_length_checked() {
        let mut w = TlvWriter::new();
        w.bytes(5, &[1, 2, 3, 4]);
        let bytes = w.finish();
        let mut r = TlvReader::new(&bytes);
        assert!(r.clone().expect_array::<3>(5).is_err());
        assert_eq!(r.expect_array::<4>(5).unwrap(), [1, 2, 3, 4]);
    }

    #[test]
    fn empty_value_roundtrips() {
        let mut w = TlvWriter::new();
        w.bytes(9, &[]);
        let bytes = w.finish();
        let mut r = TlvReader::new(&bytes);
        assert_eq!(r.expect(9).unwrap(), &[] as &[u8]);
        r.finish().unwrap();
    }
}
