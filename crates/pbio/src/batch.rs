//! The raw-row codec for numeric record streams.
//!
//! The per-record [`RecordWriter`](crate::RecordWriter) /
//! [`RecordReader`](crate::RecordReader) pair pays, for every record: a
//! fresh output `Vec`, a schema type check per field, a dynamic
//! [`Value`](crate::Value) match per field, and a grow check per byte
//! written. Monitoring hot paths (a dissemination daemon draining
//! thousands of interaction records per wake, a GPA ingesting them)
//! code the *same* all-numeric schema over and over, so all of that is
//! loop-invariant:
//!
//! * [`BatchEncoder::new`] validates the schema **once** and freezes the
//!   per-field wire kinds — neither direction has type checks left.
//! * Records are *raw rows*: one `i64` per field, the same bit
//!   convention as E-Code digest rows — a `U64` or `I64` field holds the
//!   integer itself (width-extended), an `F64` field holds
//!   `f64::to_bits`, a `Bool` field is nonzero-for-true (decoded as
//!   0/1). Both directions append to a caller-owned, reusable buffer,
//!   reserving the row's worst case up front.
//! * Encoding writes every varint through
//!   [`write_u64`](crate::varint::write_u64), PBIO's one writer: a
//!   one- to three-byte value is one fixed-size append, a longer one a
//!   loop into a stack scratch.
//! * All-`U64` schemas — the interaction-record hot case — take a
//!   monomorphic inner loop with no per-field kind dispatch at all.
//! * Decoding reads every varint through
//!   [`read_u64`](crate::varint::read_u64), PBIO's one reader (straight
//!   line for one to three bytes), and writes a row by index into the
//!   slot one `resize` made for it, cut off again on error.
//!
//! Bytes are **identical** to a `RecordWriter`'s, and rows,
//! accept/reject and errors identical to a `RecordReader`'s (the tests
//! pin both), so neither peer can tell which path coded a record.

use crate::schema::{FieldType, Schema};
use crate::varint::{read_u64, write_u64, zigzag_decode, zigzag_encode};
use crate::PbioError;

/// Per-field wire kind with the schema validation already spent.
/// `repr(u8)` and kind-only (no names) so the dispatch table is a dense
/// byte array.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
enum Kind {
    U64,
    I64,
    F64,
    Bool,
}

/// A schema compiled to a raw-row codec: field kinds frozen, type
/// checks hoisted out of the encode and decode loops. Build once per
/// schema, reuse for every record.
#[derive(Debug, Clone)]
pub struct BatchEncoder {
    kinds: Box<[Kind]>,
    /// Every field is `U64` — the interaction-record hot case, which
    /// takes a dispatch-free inner loop.
    all_u64: bool,
}

/// Worst-case encoded bytes per value (a 10-byte varint dominates the
/// 8-byte fixed double and 1-byte bool).
const MAX_VALUE_BYTES: usize = 10;

impl BatchEncoder {
    /// Compiles `schema` to its row codec.
    ///
    /// # Errors
    ///
    /// [`PbioError::BadSchema`] if the schema has `Str`/`Bytes` fields —
    /// variable-length payloads have no raw-row form; such records keep
    /// using [`RecordWriter`](crate::RecordWriter).
    pub fn new(schema: &Schema) -> Result<BatchEncoder, PbioError> {
        let kinds = schema
            .fields()
            .iter()
            .map(|f| match f.ty {
                FieldType::U64 => Ok(Kind::U64),
                FieldType::I64 => Ok(Kind::I64),
                FieldType::F64 => Ok(Kind::F64),
                FieldType::Bool => Ok(Kind::Bool),
                FieldType::Str | FieldType::Bytes => Err(PbioError::BadSchema(format!(
                    "batch encoding requires numeric/bool fields; `{}` is {:?}",
                    f.name, f.ty
                ))),
            })
            .collect::<Result<Box<[Kind]>, PbioError>>()?;
        let all_u64 = kinds.iter().all(|&k| k == Kind::U64);
        Ok(BatchEncoder { kinds, all_u64 })
    }

    /// Raw values per row (= schema field count).
    pub fn stride(&self) -> usize {
        self.kinds.len()
    }

    /// Encodes one raw row, appending to `out`; byte-identical to a
    /// [`RecordWriter`](crate::RecordWriter).
    ///
    /// # Errors
    ///
    /// [`PbioError::MissingFields`] if `row` is not exactly one stride.
    pub fn encode_row_into(&self, row: &[i64], out: &mut Vec<u8>) -> Result<(), PbioError> {
        if row.len() != self.stride() {
            return Err(PbioError::MissingFields {
                got: row.len(),
                want: self.stride(),
            });
        }
        // One reservation for the row: every grow check in the pushes
        // below is dead (capacity is proven sufficient).
        out.reserve(row.len() * MAX_VALUE_BYTES);
        if self.all_u64 {
            for &v in row {
                write_u64(out, v as u64);
            }
            return Ok(());
        }
        for (&k, &v) in self.kinds.iter().zip(row) {
            match k {
                Kind::U64 => write_u64(out, v as u64),
                Kind::I64 => write_u64(out, zigzag_encode(v)),
                // Raw bits are already `f64::to_bits`; LE bytes match
                // `RecordWriter::push_f64`'s `put_f64_le`.
                Kind::F64 => out.extend_from_slice(&(v as u64).to_le_bytes()),
                Kind::Bool => out.push((v != 0) as u8),
            }
        }
        Ok(())
    }

    /// Decodes one record from the front of `buf`, appending its raw row
    /// to `out`: the inverse of
    /// [`encode_row_into`](BatchEncoder::encode_row_into), and value for
    /// value what a [`RecordReader`](crate::RecordReader) yields. Like
    /// it, bytes past the last field are ignored.
    ///
    /// # Errors
    ///
    /// Exactly a `RecordReader`'s: [`PbioError::UnexpectedEof`] on a
    /// truncated record, [`PbioError::BadVarint`] on an overlong varint.
    /// `out` is left as it was.
    pub fn decode_row_into(&self, buf: &[u8], out: &mut Vec<i64>) -> Result<(), PbioError> {
        let start = out.len();
        out.resize(start + self.stride(), 0);
        let decoded = self.decode_fields(buf, &mut out[start..]);
        if decoded.is_err() {
            out.truncate(start);
        }
        decoded
    }

    /// Decodes one record's fields into `row`, one stride long, by index.
    fn decode_fields(&self, mut buf: &[u8], row: &mut [i64]) -> Result<(), PbioError> {
        if self.all_u64 {
            for v in row {
                *v = read_u64(&mut buf)? as i64;
            }
            return Ok(());
        }
        for (v, &k) in row.iter_mut().zip(self.kinds.iter()) {
            *v = match k {
                Kind::U64 => read_u64(&mut buf)? as i64,
                Kind::I64 => zigzag_decode(read_u64(&mut buf)?),
                Kind::F64 => {
                    let (bits, rest) = buf
                        .split_first_chunk::<8>()
                        .ok_or(PbioError::UnexpectedEof)?;
                    buf = rest;
                    u64::from_le_bytes(*bits) as i64
                }
                Kind::Bool => {
                    let (&b, rest) = buf.split_first().ok_or(PbioError::UnexpectedEof)?;
                    buf = rest;
                    (b != 0) as i64
                }
            };
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::{row_to_values, RecordReader, RecordWriter};
    use proptest::prelude::*;

    fn numeric_schema() -> Schema {
        Schema::build("mix")
            .field("a", FieldType::U64)
            .field("b", FieldType::I64)
            .field("c", FieldType::F64)
            .field("d", FieldType::Bool)
            .finish()
            .unwrap()
    }

    /// Reference encoding: one RecordWriter per row.
    fn reference(schema: &Schema, rows: &[i64]) -> Vec<u8> {
        let mut out = Vec::new();
        for row in rows.chunks_exact(schema.len()) {
            let mut w = RecordWriter::new(schema);
            for (f, &v) in schema.fields().iter().zip(row) {
                match f.ty {
                    FieldType::U64 => w.push_u64(v as u64).map(|_| ()).unwrap(),
                    FieldType::I64 => w.push_i64(v).map(|_| ()).unwrap(),
                    FieldType::F64 => w.push_f64(f64::from_bits(v as u64)).map(|_| ()).unwrap(),
                    FieldType::Bool => w.push_bool(v != 0).map(|_| ()).unwrap(),
                    _ => unreachable!(),
                }
            }
            out.extend_from_slice(&w.finish().unwrap());
        }
        out
    }

    /// The codec over a run of rows, appending to one buffer.
    fn encode_rows(enc: &BatchEncoder, rows: &[i64]) -> Vec<u8> {
        let mut out = Vec::new();
        for row in rows.chunks_exact(enc.stride()) {
            enc.encode_row_into(row, &mut out).unwrap();
        }
        out
    }

    #[test]
    fn row_bytes_identical_to_record_writer() {
        let schema = numeric_schema();
        let enc = BatchEncoder::new(&schema).unwrap();
        let mut rows = Vec::new();
        for i in 0..257i64 {
            rows.extend_from_slice(&[
                i * 1_000_003,                     // U64 spanning several varint lengths
                -i * 7 + 3,                        // I64 both signs
                (0.5 + i as f64).to_bits() as i64, // F64 raw bits
                i % 3,                             // Bool, non-canonical truthiness
            ]);
        }
        assert_eq!(encode_rows(&enc, &rows), reference(&schema, &rows));
    }

    #[test]
    fn all_u64_fast_path_identical_too() {
        let schema = Schema::build("u")
            .field("a", FieldType::U64)
            .field("b", FieldType::U64)
            .field("c", FieldType::U64)
            .finish()
            .unwrap();
        let enc = BatchEncoder::new(&schema).unwrap();
        let rows: Vec<i64> = (0..300)
            .map(|i| (i as i64).wrapping_mul(0x9e37_79b9_7f4a_7c15_u64 as i64))
            .collect();
        assert_eq!(encode_rows(&enc, &rows), reference(&schema, &rows));
    }

    #[test]
    fn string_schema_rejected_at_build() {
        let schema = Schema::build("s")
            .field("a", FieldType::U64)
            .field("s", FieldType::Str)
            .finish()
            .unwrap();
        assert!(matches!(
            BatchEncoder::new(&schema),
            Err(PbioError::BadSchema(_))
        ));
    }

    #[test]
    fn encode_appends_and_rejects_wrong_arity() {
        let schema = numeric_schema();
        let enc = BatchEncoder::new(&schema).unwrap();
        let row = [77, -5, 1.25f64.to_bits() as i64, 0];
        let mut out = vec![0xEE];
        enc.encode_row_into(&row, &mut out).unwrap();
        assert_eq!(out[0], 0xEE);
        assert_eq!(out[1..], reference(&schema, &row));
        let len = out.len();
        assert_eq!(
            enc.encode_row_into(&row[..2], &mut out),
            Err(PbioError::MissingFields { got: 2, want: 4 })
        );
        assert_eq!(out.len(), len, "nothing is written on error");
    }

    #[test]
    fn decode_appends_and_restores_on_error() {
        let schema = numeric_schema();
        let enc = BatchEncoder::new(&schema).unwrap();
        let row = [77, -5, 1.25f64.to_bits() as i64, 1];
        let mut bytes = Vec::new();
        enc.encode_row_into(&row, &mut bytes).unwrap();
        let mut out = vec![9];
        enc.decode_row_into(&bytes, &mut out).unwrap();
        assert_eq!(out[0], 9);
        assert_eq!(out[1..], row);
        assert_eq!(
            enc.decode_row_into(&bytes[..bytes.len() - 1], &mut out),
            Err(PbioError::UnexpectedEof)
        );
        assert_eq!(out.len(), 5, "a failed decode leaves no partial row");
        assert_eq!(
            row_to_values(&schema, &row).unwrap(),
            RecordReader::new(&schema, &bytes).read_all().unwrap()
        );
    }

    /// A schema of `codes.len()` numeric fields (0..4 → U64/I64/F64/Bool).
    fn schema_of(codes: &[u8]) -> Schema {
        let mut b = Schema::build("gen");
        for (i, c) in codes.iter().enumerate() {
            let ty = [
                FieldType::U64,
                FieldType::I64,
                FieldType::F64,
                FieldType::Bool,
            ][*c as usize];
            b = b.field(&format!("f{i}"), ty);
        }
        b.finish().unwrap()
    }

    /// Reference decoding: a RecordReader, its values lowered to raw bits.
    fn reference_decode(schema: &Schema, frame: &[u8]) -> Result<Vec<i64>, PbioError> {
        let values = RecordReader::new(schema, frame).read_all()?;
        Ok(values.iter().map(|v| v.to_raw().unwrap()).collect())
    }

    proptest! {
        /// The row codec against RecordWriter/RecordReader over random
        /// numeric schemas: same bytes out, and on intact, truncated,
        /// overlong, junk and kind-mismatched (other-schema) frames the
        /// same accept/reject, the same error, the same values.
        #[test]
        fn prop_row_codec_matches_reference(
            codes in proptest::collection::vec(0u8..4, 1..12),
            other in proptest::collection::vec(0u8..4, 1..12),
            raw in proptest::collection::vec(any::<i64>(), 12),
            cut in any::<usize>(),
            junk in proptest::collection::vec(any::<u8>(), 0..40),
        ) {
            let schema = schema_of(&codes);
            let codec = BatchEncoder::new(&schema).unwrap();
            let row = &raw[..codes.len()];
            let mut bytes = Vec::new();
            codec.encode_row_into(row, &mut bytes).unwrap();
            prop_assert_eq!(&bytes, &reference(&schema, row));

            let cut = cut % (bytes.len() + 1);
            let frames = [
                bytes.clone(),
                bytes[..cut].to_vec(),
                [&bytes[..], &junk[..]].concat(),
                [&bytes[..cut], &[0xFF; 11][..]].concat(),
                junk,
            ];
            let other = schema_of(&other);
            let other_codec = BatchEncoder::new(&other).unwrap();
            for (schema, codec) in [(&schema, &codec), (&other, &other_codec)] {
                for frame in &frames {
                    let mut got = vec![7];
                    let res = codec.decode_row_into(frame, &mut got);
                    match reference_decode(schema, frame) {
                        Ok(want) => {
                            prop_assert_eq!(res, Ok(()));
                            prop_assert_eq!(&got[1..], &want[..]);
                        }
                        Err(e) => {
                            prop_assert_eq!(res, Err(e));
                            prop_assert_eq!(&got[..], &[7][..]);
                        }
                    }
                }
            }
        }

        /// Row encoding is byte-identical to per-record RecordWriter
        /// encoding for arbitrary numeric rows.
        #[test]
        fn prop_rows_match_record_writer(
            raw in proptest::collection::vec(any::<i64>(), 0..25 * 4)
        ) {
            let rows = &raw[..raw.len() - raw.len() % 4];
            let schema = numeric_schema();
            let enc = BatchEncoder::new(&schema).unwrap();
            prop_assert_eq!(encode_rows(&enc, rows), reference(&schema, rows));
        }
    }
}
