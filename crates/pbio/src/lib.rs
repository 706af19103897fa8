//! A self-describing binary record format — the stand-in for Georgia
//! Tech's PBIO library, which SysProf's dissemination daemon uses for
//! "binary encodings for monitoring data".
//!
//! The design follows PBIO's key idea: records travel as raw binary close
//! to the in-memory layout; the *schema* (field names, types, order)
//! travels once, out of band, so a stream of thousands of monitoring
//! records pays the description cost once instead of per record (unlike
//! XML-based formats such as the Common Base Event standard the paper
//! contrasts against).
//!
//! * [`Schema`] — an ordered list of named, typed fields,
//! * [`SchemaRegistry`] — assigns stable ids; encodes/decodes schemas
//!   themselves so receivers can learn formats dynamically,
//! * [`RecordWriter`] / [`RecordReader`] — the general, string-capable
//!   record codecs (varint-compressed integers, fixed-width floats),
//!   with [`Value`] as their dynamic decoded form,
//! * [`BatchEncoder`] — the same bytes to and from raw `i64` rows for
//!   all-numeric schemas: the form monitoring records travel in.
//!
//! # Example
//!
//! ```
//! use pbio::{FieldType, Schema, RecordWriter, RecordReader, Value};
//!
//! let schema = Schema::build("interaction")
//!     .field("latency_us", FieldType::U64)
//!     .field("node", FieldType::Str)
//!     .finish()?;
//! let mut w = RecordWriter::new(&schema);
//! w.push_u64(1500)?.push_str("proxy")?;
//! let bytes = w.finish()?;
//!
//! let mut r = RecordReader::new(&schema, &bytes);
//! assert_eq!(r.next_value()?, Some(Value::U64(1500)));
//! assert_eq!(r.next_value()?, Some(Value::Str("proxy".into())));
//! # Ok::<(), pbio::PbioError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod batch;
mod record;
mod schema;
mod varint;

pub use batch::BatchEncoder;
pub use record::{row_to_values, RecordReader, RecordWriter, Value};
pub use schema::{Field, FieldType, Schema, SchemaBuilder, SchemaId, SchemaRegistry};
pub use varint::{read_u64, write_u64, zigzag_decode, zigzag_encode};

use std::fmt;

/// Errors from encoding or decoding.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PbioError {
    /// A record field did not match the schema's type at that position.
    TypeMismatch {
        /// Field index in the schema.
        index: usize,
        /// What the schema expects.
        expected: FieldType,
    },
    /// More fields were pushed than the schema declares.
    TooManyFields,
    /// The writer finished before all schema fields were pushed.
    MissingFields {
        /// How many fields were provided.
        got: usize,
        /// How many the schema declares.
        want: usize,
    },
    /// Decoding ran off the end of the buffer.
    UnexpectedEof,
    /// A varint was malformed (continuation past 10 bytes).
    BadVarint,
    /// A string field was not valid UTF-8.
    BadUtf8,
    /// A schema had no fields or a duplicate field name.
    BadSchema(String),
    /// An unknown schema id was referenced.
    UnknownSchema(u32),
    /// A schema description could not be decoded.
    BadSchemaEncoding,
}

impl fmt::Display for PbioError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PbioError::TypeMismatch { index, expected } => {
                write!(f, "field {index} expects {expected:?}")
            }
            PbioError::TooManyFields => f.write_str("more fields than the schema declares"),
            PbioError::MissingFields { got, want } => {
                write!(f, "record has {got} of {want} fields")
            }
            PbioError::UnexpectedEof => f.write_str("unexpected end of buffer"),
            PbioError::BadVarint => f.write_str("malformed varint"),
            PbioError::BadUtf8 => f.write_str("string field is not valid utf-8"),
            PbioError::BadSchema(why) => write!(f, "invalid schema: {why}"),
            PbioError::UnknownSchema(id) => write!(f, "unknown schema id {id}"),
            PbioError::BadSchemaEncoding => f.write_str("malformed schema description"),
        }
    }
}

impl std::error::Error for PbioError {}
