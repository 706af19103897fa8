//! Schemas: the out-of-band record descriptions, and the registry that
//! assigns them wire ids and serializes them for dynamic discovery.

use std::collections::HashMap;
use std::sync::Arc;

use bytes::Buf;

use crate::varint::{read_u64, write_u64};
use crate::PbioError;

/// Wire types a field may have.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FieldType {
    /// Unsigned integer, varint-encoded.
    U64,
    /// Signed integer, zigzag-varint-encoded.
    I64,
    /// IEEE-754 double, 8 bytes little-endian.
    F64,
    /// Boolean, one byte.
    Bool,
    /// UTF-8 string, length-prefixed.
    Str,
    /// Opaque bytes, length-prefixed.
    Bytes,
}

impl FieldType {
    fn code(self) -> u8 {
        match self {
            FieldType::U64 => 0,
            FieldType::I64 => 1,
            FieldType::F64 => 2,
            FieldType::Bool => 3,
            FieldType::Str => 4,
            FieldType::Bytes => 5,
        }
    }

    fn from_code(c: u8) -> Option<FieldType> {
        Some(match c {
            0 => FieldType::U64,
            1 => FieldType::I64,
            2 => FieldType::F64,
            3 => FieldType::Bool,
            4 => FieldType::Str,
            5 => FieldType::Bytes,
            _ => return None,
        })
    }
}

/// One named, typed field.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Field {
    /// Field name.
    pub name: String,
    /// Wire type.
    pub ty: FieldType,
}

/// An ordered record description. Cheap to clone (fields are shared).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Schema {
    name: Arc<str>,
    fields: Arc<[Field]>,
}

impl Schema {
    /// Starts building a schema with the given record-type name.
    pub fn build(name: &str) -> SchemaBuilder {
        SchemaBuilder {
            name: name.to_owned(),
            fields: Vec::new(),
        }
    }

    /// The record-type name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The fields in wire order.
    pub fn fields(&self) -> &[Field] {
        &self.fields
    }

    /// Number of fields.
    pub fn len(&self) -> usize {
        self.fields.len()
    }

    /// Always false: schemas have at least one field.
    pub fn is_empty(&self) -> bool {
        false
    }

    /// Serializes the schema description (for the registry handshake).
    pub fn encode(&self, buf: &mut Vec<u8>) {
        write_u64(buf, self.name.len() as u64);
        buf.extend_from_slice(self.name.as_bytes());
        write_u64(buf, self.fields.len() as u64);
        for f in self.fields.iter() {
            write_u64(buf, f.name.len() as u64);
            buf.extend_from_slice(f.name.as_bytes());
            buf.push(f.ty.code());
        }
    }

    /// Decodes a schema description.
    ///
    /// # Errors
    ///
    /// [`PbioError::BadSchemaEncoding`] on malformed input.
    pub fn decode(buf: &mut &[u8]) -> Result<Schema, PbioError> {
        fn read_string(buf: &mut &[u8]) -> Result<String, PbioError> {
            let len = read_u64(buf)? as usize;
            let (head, rest) = buf
                .split_at_checked(len)
                .ok_or(PbioError::BadSchemaEncoding)?;
            *buf = rest;
            String::from_utf8(head.to_vec()).map_err(|_| PbioError::BadSchemaEncoding)
        }
        let name = read_string(buf)?;
        let nfields = read_u64(buf)? as usize;
        if nfields == 0 || nfields > 10_000 {
            return Err(PbioError::BadSchemaEncoding);
        }
        let mut builder = Schema::build(&name);
        for _ in 0..nfields {
            let fname = read_string(buf)?;
            if !buf.has_remaining() {
                return Err(PbioError::BadSchemaEncoding);
            }
            let ty = FieldType::from_code(buf.get_u8()).ok_or(PbioError::BadSchemaEncoding)?;
            builder = builder.field(&fname, ty);
        }
        builder.finish().map_err(|_| PbioError::BadSchemaEncoding)
    }
}

/// Builder returned by [`Schema::build`].
#[derive(Debug)]
pub struct SchemaBuilder {
    name: String,
    fields: Vec<Field>,
}

impl SchemaBuilder {
    /// Appends a field.
    #[must_use]
    pub fn field(mut self, name: &str, ty: FieldType) -> Self {
        self.fields.push(Field {
            name: name.to_owned(),
            ty,
        });
        self
    }

    /// Validates and produces the schema.
    ///
    /// # Errors
    ///
    /// [`PbioError::BadSchema`] if the schema has no fields or duplicate
    /// field names.
    pub fn finish(self) -> Result<Schema, PbioError> {
        if self.fields.is_empty() {
            return Err(PbioError::BadSchema("no fields".into()));
        }
        let mut seen = std::collections::HashSet::new();
        for f in &self.fields {
            if !seen.insert(f.name.as_str()) {
                return Err(PbioError::BadSchema(format!(
                    "duplicate field {:?}",
                    f.name
                )));
            }
        }
        Ok(Schema {
            name: self.name.into(),
            fields: self.fields.into(),
        })
    }
}

/// A stable wire id for a registered schema.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct SchemaId(pub u32);

/// Assigns wire ids to a sender's schemas; the sender transmits a schema
/// description (once) before the first record of that type, and the
/// receiver files it under the id it arrived with.
#[derive(Debug, Default)]
pub struct SchemaRegistry {
    by_id: HashMap<u32, Schema>,
    by_name: HashMap<String, SchemaId>,
    next: u32,
}

impl SchemaRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        SchemaRegistry::default()
    }

    /// Registers a schema, returning its id. Re-registering the same name
    /// returns the existing id (schemas are append-only per name).
    pub fn register(&mut self, schema: &Schema) -> SchemaId {
        if let Some(&id) = self.by_name.get(schema.name()) {
            return id;
        }
        let id = SchemaId(self.next);
        self.next += 1;
        self.by_id.insert(id.0, schema.clone());
        self.by_name.insert(schema.name().to_owned(), id);
        id
    }

    /// Looks up a schema by id.
    ///
    /// # Errors
    ///
    /// [`PbioError::UnknownSchema`] if the id was never registered.
    pub fn get(&self, id: SchemaId) -> Result<&Schema, PbioError> {
        self.by_id.get(&id.0).ok_or(PbioError::UnknownSchema(id.0))
    }

    /// Number of registered schemas.
    pub fn len(&self) -> usize {
        self.by_id.len()
    }

    /// True if no schemas are registered.
    pub fn is_empty(&self) -> bool {
        self.by_id.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Schema {
        Schema::build("iact")
            .field("latency", FieldType::U64)
            .field("node", FieldType::Str)
            .field("user_frac", FieldType::F64)
            .field("ok", FieldType::Bool)
            .finish()
            .unwrap()
    }

    #[test]
    fn builder_validates() {
        assert!(matches!(
            Schema::build("x").finish(),
            Err(PbioError::BadSchema(_))
        ));
        assert!(matches!(
            Schema::build("x")
                .field("a", FieldType::U64)
                .field("a", FieldType::I64)
                .finish(),
            Err(PbioError::BadSchema(_))
        ));
    }

    #[test]
    fn schema_encode_decode_round_trip() {
        let s = sample();
        let mut buf = Vec::new();
        s.encode(&mut buf);
        let decoded = Schema::decode(&mut &buf[..]).unwrap();
        assert_eq!(decoded, s);
    }

    #[test]
    fn schema_decode_rejects_garbage() {
        let garbage = [0xFFu8; 4];
        assert!(Schema::decode(&mut &garbage[..]).is_err());
        let empty: [u8; 0] = [];
        assert!(Schema::decode(&mut &empty[..]).is_err());
    }

    #[test]
    fn registry_assigns_stable_ids() {
        let mut reg = SchemaRegistry::new();
        let s = sample();
        let id1 = reg.register(&s);
        let id2 = reg.register(&s);
        assert_eq!(id1, id2);
        assert_eq!(reg.get(id1).unwrap(), &s);
        assert_eq!(reg.len(), 1);
    }

    #[test]
    fn registry_unknown_id_errors() {
        let reg = SchemaRegistry::new();
        assert_eq!(reg.get(SchemaId(9)), Err(PbioError::UnknownSchema(9)));
    }
}
