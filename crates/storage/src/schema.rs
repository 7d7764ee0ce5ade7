//! Table schemas.

use crate::cell::Cell;
use crate::error::{Result, StorageError};
use std::fmt;

/// Physical column types supported by Norc.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ColumnType {
    /// 64-bit signed integer.
    Int64,
    /// 64-bit float.
    Float64,
    /// UTF-8 string. JSON payload columns are stored as strings, exactly as
    /// in the paper's warehouse (§II-A: "JSON data is often stored as
    /// String Types").
    Utf8,
    /// Boolean.
    Bool,
}

impl ColumnType {
    /// Short type tag used in serialized footers.
    pub fn tag(self) -> u8 {
        match self {
            ColumnType::Int64 => 0,
            ColumnType::Float64 => 1,
            ColumnType::Utf8 => 2,
            ColumnType::Bool => 3,
        }
    }

    /// Inverse of [`ColumnType::tag`].
    pub fn from_tag(tag: u8) -> Result<Self> {
        Ok(match tag {
            0 => ColumnType::Int64,
            1 => ColumnType::Float64,
            2 => ColumnType::Utf8,
            3 => ColumnType::Bool,
            t => {
                return Err(StorageError::corrupt(format!(
                    "unknown column type tag {t}"
                )))
            }
        })
    }

    /// Human-readable name (also used in SQL error messages).
    pub fn name(self) -> &'static str {
        match self {
            ColumnType::Int64 => "BIGINT",
            ColumnType::Float64 => "DOUBLE",
            ColumnType::Utf8 => "STRING",
            ColumnType::Bool => "BOOLEAN",
        }
    }

    /// Whether `cell` is storable in a column of this type (NULL always is).
    pub fn accepts(self, cell: &Cell) -> bool {
        matches!(
            (self, cell),
            (_, Cell::Null)
                | (ColumnType::Int64, Cell::Int(_))
                | (ColumnType::Float64, Cell::Float(_))
                | (ColumnType::Float64, Cell::Int(_))
                | (ColumnType::Utf8, Cell::Str(_))
                | (ColumnType::Bool, Cell::Bool(_))
        )
    }
}

impl fmt::Display for ColumnType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// One column definition.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Field {
    /// Column name (case-sensitive; the SQL layer lowercases identifiers).
    pub name: String,
    /// Physical type.
    pub ty: ColumnType,
}

impl Field {
    /// Construct a field.
    pub fn new(name: impl Into<String>, ty: ColumnType) -> Self {
        Field {
            name: name.into(),
            ty,
        }
    }
}

/// An ordered list of fields.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Schema {
    fields: Vec<Field>,
}

impl Schema {
    /// Build a schema from fields. Duplicate names are rejected.
    pub fn new(fields: Vec<Field>) -> Result<Self> {
        for (i, f) in fields.iter().enumerate() {
            if fields[..i].iter().any(|g| g.name == f.name) {
                return Err(StorageError::InvalidOperation {
                    detail: format!("duplicate column name '{}'", f.name),
                });
            }
        }
        Ok(Schema { fields })
    }

    /// The fields in declaration order.
    pub fn fields(&self) -> &[Field] {
        &self.fields
    }

    /// Number of columns.
    pub fn len(&self) -> usize {
        self.fields.len()
    }

    /// `true` when the schema has no columns.
    pub fn is_empty(&self) -> bool {
        self.fields.is_empty()
    }

    /// Index of the column named `name`.
    pub fn index_of(&self, name: &str) -> Option<usize> {
        self.fields.iter().position(|f| f.name == name)
    }

    /// Field of the column named `name`.
    pub fn field(&self, name: &str) -> Option<&Field> {
        self.fields.iter().find(|f| f.name == name)
    }

    /// Project a subset of columns by name, preserving the requested order.
    pub fn project(&self, names: &[&str]) -> Result<Schema> {
        let mut fields = Vec::with_capacity(names.len());
        for n in names {
            let f = self.field(n).ok_or_else(|| StorageError::NotFound {
                what: format!("column '{n}'"),
            })?;
            fields.push(f.clone());
        }
        Schema::new(fields)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Schema {
        Schema::new(vec![
            Field::new("mall_id", ColumnType::Utf8),
            Field::new("date", ColumnType::Int64),
            Field::new("sale_logs", ColumnType::Utf8),
        ])
        .unwrap()
    }

    #[test]
    fn index_and_field_lookup() {
        let s = sample();
        assert_eq!(s.index_of("date"), Some(1));
        assert_eq!(s.index_of("nope"), None);
        assert_eq!(s.field("mall_id").unwrap().ty, ColumnType::Utf8);
        assert_eq!(s.len(), 3);
    }

    #[test]
    fn duplicate_names_rejected() {
        assert!(Schema::new(vec![
            Field::new("a", ColumnType::Int64),
            Field::new("a", ColumnType::Utf8),
        ])
        .is_err());
    }

    #[test]
    fn projection_preserves_order() {
        let s = sample();
        let p = s.project(&["sale_logs", "mall_id"]).unwrap();
        assert_eq!(p.fields()[0].name, "sale_logs");
        assert_eq!(p.fields()[1].name, "mall_id");
        assert!(s.project(&["missing"]).is_err());
    }

    #[test]
    fn type_tags_round_trip() {
        for ty in [
            ColumnType::Int64,
            ColumnType::Float64,
            ColumnType::Utf8,
            ColumnType::Bool,
        ] {
            assert_eq!(ColumnType::from_tag(ty.tag()).unwrap(), ty);
        }
        assert!(ColumnType::from_tag(99).is_err());
    }

    #[test]
    fn accepts_rules() {
        use crate::cell::Cell;
        assert!(ColumnType::Int64.accepts(&Cell::Int(1)));
        assert!(ColumnType::Int64.accepts(&Cell::Null));
        assert!(!ColumnType::Int64.accepts(&Cell::Str("x".into())));
        assert!(ColumnType::Float64.accepts(&Cell::Int(1)));
        assert!(ColumnType::Utf8.accepts(&Cell::Str("x".into())));
    }
}
