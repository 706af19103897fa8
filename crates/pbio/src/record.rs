//! Record encoding and decoding against a schema.

use bytes::{Buf, BufMut};

use crate::schema::{FieldType, Schema};
use crate::varint::{read_u64, write_u64, zigzag_decode, zigzag_encode};
use crate::PbioError;

/// A decoded field value.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// Unsigned integer.
    U64(u64),
    /// Signed integer.
    I64(i64),
    /// Double.
    F64(f64),
    /// Boolean.
    Bool(bool),
    /// String.
    Str(String),
    /// Opaque bytes.
    Bytes(Vec<u8>),
}

impl Value {
    /// The value's raw-row bits (the convention of
    /// [`BatchEncoder`](crate::BatchEncoder): integers as-is, doubles via
    /// `f64::to_bits`, bools 0/1), or `None` for strings and bytes, which
    /// have no raw form.
    pub fn to_raw(&self) -> Option<i64> {
        match self {
            Value::U64(v) => Some(*v as i64),
            Value::I64(v) => Some(*v),
            Value::F64(v) => Some(v.to_bits() as i64),
            Value::Bool(v) => Some(*v as i64),
            Value::Str(_) | Value::Bytes(_) => None,
        }
    }

    /// The value as u64, if it is one.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Value::U64(v) => Some(*v),
            _ => None,
        }
    }

    /// The value as a string slice, if it is one.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }
}

/// Lifts a raw row (one `i64` per field of a numeric `schema`,
/// [`Value::to_raw`]'s convention) to the dynamic form — what a
/// [`RecordReader`] would decode from the row's encoding.
///
/// # Errors
///
/// [`PbioError::MissingFields`] if `row` is not one value per field;
/// [`PbioError::TypeMismatch`] at a string/bytes field.
pub fn row_to_values(schema: &Schema, row: &[i64]) -> Result<Vec<Value>, PbioError> {
    if row.len() != schema.len() {
        return Err(PbioError::MissingFields {
            got: row.len(),
            want: schema.len(),
        });
    }
    schema
        .fields()
        .iter()
        .zip(row)
        .enumerate()
        .map(|(index, (f, &bits))| match f.ty {
            FieldType::U64 => Ok(Value::U64(bits as u64)),
            FieldType::I64 => Ok(Value::I64(bits)),
            FieldType::F64 => Ok(Value::F64(f64::from_bits(bits as u64))),
            FieldType::Bool => Ok(Value::Bool(bits != 0)),
            expected @ (FieldType::Str | FieldType::Bytes) => {
                Err(PbioError::TypeMismatch { index, expected })
            }
        })
        .collect()
}

/// Encodes one record against a schema, field by field, in order.
#[derive(Debug)]
pub struct RecordWriter<'s> {
    schema: &'s Schema,
    buf: Vec<u8>,
    next_field: usize,
}

impl<'s> RecordWriter<'s> {
    /// Starts a record of the given schema.
    pub fn new(schema: &'s Schema) -> Self {
        RecordWriter {
            schema,
            buf: Vec::with_capacity(32),
            next_field: 0,
        }
    }

    fn expect(&mut self, ty: FieldType) -> Result<(), PbioError> {
        let Some(field) = self.schema.fields().get(self.next_field) else {
            return Err(PbioError::TooManyFields);
        };
        if field.ty != ty {
            return Err(PbioError::TypeMismatch {
                index: self.next_field,
                expected: field.ty,
            });
        }
        self.next_field += 1;
        Ok(())
    }

    /// Appends a u64 field.
    ///
    /// # Errors
    ///
    /// Type mismatch or too many fields.
    pub fn push_u64(&mut self, v: u64) -> Result<&mut Self, PbioError> {
        self.expect(FieldType::U64)?;
        write_u64(&mut self.buf, v);
        Ok(self)
    }

    /// Appends an i64 field.
    ///
    /// # Errors
    ///
    /// Type mismatch or too many fields.
    pub fn push_i64(&mut self, v: i64) -> Result<&mut Self, PbioError> {
        self.expect(FieldType::I64)?;
        write_u64(&mut self.buf, zigzag_encode(v));
        Ok(self)
    }

    /// Appends an f64 field.
    ///
    /// # Errors
    ///
    /// Type mismatch or too many fields.
    pub fn push_f64(&mut self, v: f64) -> Result<&mut Self, PbioError> {
        self.expect(FieldType::F64)?;
        self.buf.put_f64_le(v);
        Ok(self)
    }

    /// Appends a bool field.
    ///
    /// # Errors
    ///
    /// Type mismatch or too many fields.
    pub fn push_bool(&mut self, v: bool) -> Result<&mut Self, PbioError> {
        self.expect(FieldType::Bool)?;
        self.buf.put_u8(v as u8);
        Ok(self)
    }

    /// Appends a string field.
    ///
    /// # Errors
    ///
    /// Type mismatch or too many fields.
    pub fn push_str(&mut self, v: &str) -> Result<&mut Self, PbioError> {
        self.expect(FieldType::Str)?;
        write_u64(&mut self.buf, v.len() as u64);
        self.buf.put_slice(v.as_bytes());
        Ok(self)
    }

    /// Appends a bytes field.
    ///
    /// # Errors
    ///
    /// Type mismatch or too many fields.
    pub fn push_bytes(&mut self, v: &[u8]) -> Result<&mut Self, PbioError> {
        self.expect(FieldType::Bytes)?;
        write_u64(&mut self.buf, v.len() as u64);
        self.buf.put_slice(v);
        Ok(self)
    }

    /// Appends a dynamic [`Value`].
    ///
    /// # Errors
    ///
    /// Type mismatch or too many fields.
    pub fn push_value(&mut self, v: &Value) -> Result<&mut Self, PbioError> {
        match v {
            Value::U64(x) => self.push_u64(*x),
            Value::I64(x) => self.push_i64(*x),
            Value::F64(x) => self.push_f64(*x),
            Value::Bool(x) => self.push_bool(*x),
            Value::Str(x) => self.push_str(x),
            Value::Bytes(x) => self.push_bytes(x),
        }
    }

    /// Finishes the record, returning the encoded bytes.
    ///
    /// # Errors
    ///
    /// [`PbioError::MissingFields`] if fewer fields were pushed than the
    /// schema declares.
    pub fn finish(self) -> Result<Vec<u8>, PbioError> {
        if self.next_field != self.schema.len() {
            return Err(PbioError::MissingFields {
                got: self.next_field,
                want: self.schema.len(),
            });
        }
        Ok(self.buf)
    }
}

/// Decodes a record encoded by [`RecordWriter`] with the same schema.
#[derive(Debug)]
pub struct RecordReader<'s, 'b> {
    schema: &'s Schema,
    buf: &'b [u8],
    next_field: usize,
}

/// A length-prefixed byte string from the front of `buf`.
fn read_bytes(buf: &mut &[u8]) -> Result<Vec<u8>, PbioError> {
    let len = read_u64(buf)? as usize;
    let (bytes, rest) = buf.split_at_checked(len).ok_or(PbioError::UnexpectedEof)?;
    *buf = rest;
    Ok(bytes.to_vec())
}

impl<'s, 'b> RecordReader<'s, 'b> {
    /// Starts decoding `buf` against `schema`.
    pub fn new(schema: &'s Schema, buf: &'b [u8]) -> Self {
        RecordReader {
            schema,
            buf,
            next_field: 0,
        }
    }

    /// Decodes the next field, or `None` when all fields are read.
    ///
    /// # Errors
    ///
    /// EOF / malformed data errors.
    pub fn next_value(&mut self) -> Result<Option<Value>, PbioError> {
        let Some(field) = self.schema.fields().get(self.next_field) else {
            return Ok(None);
        };
        self.next_field += 1;
        let buf = &mut self.buf;
        let v = match field.ty {
            FieldType::U64 => Value::U64(read_u64(buf)?),
            FieldType::I64 => Value::I64(zigzag_decode(read_u64(buf)?)),
            FieldType::F64 => {
                if buf.remaining() < 8 {
                    return Err(PbioError::UnexpectedEof);
                }
                Value::F64(buf.get_f64_le())
            }
            FieldType::Bool => {
                if !buf.has_remaining() {
                    return Err(PbioError::UnexpectedEof);
                }
                Value::Bool(buf.get_u8() != 0)
            }
            FieldType::Str => {
                Value::Str(String::from_utf8(read_bytes(buf)?).map_err(|_| PbioError::BadUtf8)?)
            }
            FieldType::Bytes => Value::Bytes(read_bytes(buf)?),
        };
        Ok(Some(v))
    }

    /// Decodes the whole record into a vector of values.
    ///
    /// # Errors
    ///
    /// EOF / malformed data errors.
    pub fn read_all(mut self) -> Result<Vec<Value>, PbioError> {
        let mut out = Vec::with_capacity(self.schema.len());
        while let Some(v) = self.next_value()? {
            out.push(v);
        }
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn schema() -> Schema {
        Schema::build("t")
            .field("a", FieldType::U64)
            .field("b", FieldType::I64)
            .field("c", FieldType::F64)
            .field("d", FieldType::Bool)
            .field("e", FieldType::Str)
            .field("f", FieldType::Bytes)
            .finish()
            .unwrap()
    }

    #[test]
    fn full_round_trip() {
        let s = schema();
        let mut w = RecordWriter::new(&s);
        w.push_u64(7)
            .unwrap()
            .push_i64(-99)
            .unwrap()
            .push_f64(2.5)
            .unwrap()
            .push_bool(true)
            .unwrap()
            .push_str("proxy")
            .unwrap()
            .push_bytes(&[1, 2, 3])
            .unwrap();
        let bytes = w.finish().unwrap();
        let values = RecordReader::new(&s, &bytes).read_all().unwrap();
        assert_eq!(
            values,
            vec![
                Value::U64(7),
                Value::I64(-99),
                Value::F64(2.5),
                Value::Bool(true),
                Value::Str("proxy".into()),
                Value::Bytes(vec![1, 2, 3]),
            ]
        );
    }

    #[test]
    fn type_mismatch_detected() {
        let s = schema();
        let mut w = RecordWriter::new(&s);
        assert_eq!(
            w.push_i64(1).unwrap_err(),
            PbioError::TypeMismatch {
                index: 0,
                expected: FieldType::U64
            }
        );
    }

    #[test]
    fn missing_fields_detected() {
        let s = schema();
        let mut w = RecordWriter::new(&s);
        w.push_u64(1).unwrap();
        assert_eq!(
            w.finish().unwrap_err(),
            PbioError::MissingFields { got: 1, want: 6 }
        );
    }

    #[test]
    fn too_many_fields_detected() {
        let s = Schema::build("one")
            .field("a", FieldType::U64)
            .finish()
            .unwrap();
        let mut w = RecordWriter::new(&s);
        w.push_u64(1).unwrap();
        assert_eq!(w.push_u64(2).unwrap_err(), PbioError::TooManyFields);
    }

    #[test]
    fn truncated_record_errors() {
        let s = Schema::build("s")
            .field("e", FieldType::Str)
            .finish()
            .unwrap();
        let mut w = RecordWriter::new(&s);
        w.push_str("hello").unwrap();
        let bytes = w.finish().unwrap();
        let truncated = &bytes[..bytes.len() - 2];
        assert_eq!(
            RecordReader::new(&s, truncated).read_all().unwrap_err(),
            PbioError::UnexpectedEof
        );
    }

    #[test]
    fn compactness_beats_text() {
        // A typical interaction record: 6 small integers. The binary form
        // must be far smaller than any plausible XML/JSON rendering
        // (the paper's argument against CBE-style formats).
        let s = Schema::build("iact")
            .field("start_us", FieldType::U64)
            .field("kernel_us", FieldType::U64)
            .field("user_us", FieldType::U64)
            .field("pkts", FieldType::U64)
            .field("bytes", FieldType::U64)
            .field("blocked_us", FieldType::U64)
            .finish()
            .unwrap();
        let mut w = RecordWriter::new(&s);
        w.push_u64(1_000_000)
            .unwrap()
            .push_u64(1500)
            .unwrap()
            .push_u64(300)
            .unwrap()
            .push_u64(12)
            .unwrap()
            .push_u64(17_000)
            .unwrap()
            .push_u64(0)
            .unwrap();
        let bytes = w.finish().unwrap();
        assert!(bytes.len() <= 16, "encoded {} bytes", bytes.len());
    }

    #[test]
    fn value_accessors() {
        assert_eq!(Value::U64(3).as_u64(), Some(3));
        assert_eq!(Value::F64(1.5).as_u64(), None);
        assert_eq!(Value::Str("x".into()).as_str(), Some("x"));
    }

    proptest! {
        #[test]
        fn prop_round_trip_numeric(a in any::<u64>(), b in any::<i64>(), c in any::<f64>()) {
            let s = Schema::build("n")
                .field("a", FieldType::U64)
                .field("b", FieldType::I64)
                .field("c", FieldType::F64)
                .finish()
                .unwrap();
            let mut w = RecordWriter::new(&s);
            w.push_u64(a).unwrap().push_i64(b).unwrap().push_f64(c).unwrap();
            let bytes = w.finish().unwrap();
            let vals = RecordReader::new(&s, &bytes).read_all().unwrap();
            prop_assert_eq!(vals[0].clone(), Value::U64(a));
            prop_assert_eq!(vals[1].clone(), Value::I64(b));
            match (vals[2].clone(), c) {
                (Value::F64(x), c) if c.is_nan() => prop_assert!(x.is_nan()),
                (Value::F64(x), c) => prop_assert_eq!(x, c),
                _ => prop_assert!(false),
            }
        }

        #[test]
        fn prop_round_trip_strings(s1 in ".*", raw in proptest::collection::vec(any::<u8>(), 0..256)) {
            let s = Schema::build("sb")
                .field("s", FieldType::Str)
                .field("b", FieldType::Bytes)
                .finish()
                .unwrap();
            let mut w = RecordWriter::new(&s);
            w.push_str(&s1).unwrap().push_bytes(&raw).unwrap();
            let bytes = w.finish().unwrap();
            let vals = RecordReader::new(&s, &bytes).read_all().unwrap();
            prop_assert_eq!(vals[0].clone(), Value::Str(s1));
            prop_assert_eq!(vals[1].clone(), Value::Bytes(raw));
        }
    }
}

#[cfg(test)]
#[allow(unused)] // a typecheck-only proptest elides macro bodies, orphaning these imports
mod decode_fuzz {
    use super::*;
    use crate::{FieldType, Schema};
    use proptest::prelude::*;

    proptest! {
        /// Decoding arbitrary bytes against any schema never panics: it
        /// returns values or a typed error. (The GPA decodes data received
        /// from the network; a malformed record must not take it down.)
        #[test]
        fn prop_decode_total(bytes in proptest::collection::vec(any::<u8>(), 0..256)) {
            let schema = Schema::build("fuzz")
                .field("a", FieldType::U64)
                .field("b", FieldType::I64)
                .field("c", FieldType::F64)
                .field("d", FieldType::Bool)
                .field("e", FieldType::Str)
                .field("f", FieldType::Bytes)
                .finish()
                .unwrap();
            let _ = RecordReader::new(&schema, &bytes).read_all();
        }

        /// Schema descriptions decode totally as well.
        #[test]
        fn prop_schema_decode_total(bytes in proptest::collection::vec(any::<u8>(), 0..256)) {
            let _ = Schema::decode(&mut &bytes[..]);
        }
    }
}
