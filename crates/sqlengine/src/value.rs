//! Runtime values and data types.

use std::cmp::Ordering;
use std::fmt;

use dbgpt_obs::hash::mix64;
use serde::{Deserialize, Serialize};

use crate::error::SqlError;

/// Declared column types.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum DataType {
    /// 64-bit signed integer (`INT`, `INTEGER`, `BIGINT`).
    Int,
    /// 64-bit float (`FLOAT`, `DOUBLE`, `REAL`, `DECIMAL`).
    Float,
    /// UTF-8 string (`TEXT`, `VARCHAR`, `CHAR`, `STRING`).
    Text,
    /// Boolean (`BOOL`, `BOOLEAN`).
    Bool,
}

impl DataType {
    /// Parse a SQL type name (case-insensitive; length args like
    /// `VARCHAR(32)` must be stripped by the parser first).
    pub fn parse(name: &str) -> Option<DataType> {
        match name.to_ascii_uppercase().as_str() {
            "INT" | "INTEGER" | "BIGINT" | "SMALLINT" | "TINYINT" => Some(DataType::Int),
            "FLOAT" | "DOUBLE" | "REAL" | "DECIMAL" | "NUMERIC" => Some(DataType::Float),
            "TEXT" | "VARCHAR" | "CHAR" | "STRING" | "DATE" | "DATETIME" | "TIMESTAMP" => {
                Some(DataType::Text)
            }
            "BOOL" | "BOOLEAN" => Some(DataType::Bool),
            _ => None,
        }
    }

    /// Canonical SQL name.
    pub fn name(&self) -> &'static str {
        match self {
            DataType::Int => "INT",
            DataType::Float => "FLOAT",
            DataType::Text => "TEXT",
            DataType::Bool => "BOOL",
        }
    }
}

impl fmt::Display for DataType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// A runtime value. `Null` is typeless, as in SQL.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub enum Value {
    /// SQL NULL.
    Null,
    /// Integer.
    Int(i64),
    /// Float.
    Float(f64),
    /// String.
    Text(String),
    /// Boolean.
    Bool(bool),
}

impl Value {
    /// This value's type, or `None` for NULL.
    pub fn data_type(&self) -> Option<DataType> {
        match self {
            Value::Null => None,
            Value::Int(_) => Some(DataType::Int),
            Value::Float(_) => Some(DataType::Float),
            Value::Text(_) => Some(DataType::Text),
            Value::Bool(_) => Some(DataType::Bool),
        }
    }

    /// Is this NULL?
    pub fn is_null(&self) -> bool {
        matches!(self, Value::Null)
    }

    /// Numeric view (ints widen to float); `None` for non-numerics.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Int(i) => Some(*i as f64),
            Value::Float(f) => Some(*f),
            _ => None,
        }
    }

    /// Integer view; `None` for non-ints.
    pub fn as_i64(&self) -> Option<i64> {
        match self {
            Value::Int(i) => Some(*i),
            _ => None,
        }
    }

    /// String view; `None` for non-text.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Text(s) => Some(s),
            _ => None,
        }
    }

    /// Boolean view; `None` for non-bools.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Value::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// Truthiness for WHERE clauses: only `Bool(true)` passes; NULL and
    /// non-booleans do not (SQL three-valued logic collapses to false).
    pub fn is_truthy(&self) -> bool {
        matches!(self, Value::Bool(true))
    }

    /// Coerce into the target column type where SQL allows it (int→float,
    /// anything→text is NOT implicit; NULL passes any type).
    pub fn coerce_to(self, ty: DataType) -> Result<Value, SqlError> {
        match (&self, ty) {
            (Value::Null, _) => Ok(Value::Null),
            (Value::Int(_), DataType::Int)
            | (Value::Float(_), DataType::Float)
            | (Value::Text(_), DataType::Text)
            | (Value::Bool(_), DataType::Bool) => Ok(self),
            (Value::Int(i), DataType::Float) => Ok(Value::Float(*i as f64)),
            // Whole floats narrow to INT only when the exact value fits in
            // an i64. `1e300.fract() == 0.0`, so a plain whole-number check
            // would let `as i64` saturate to i64::MAX and corrupt the
            // stored data; non-finite floats have no integer value at all.
            // -2^63 is exactly representable as f64; 2^63 is the first
            // unrepresentable magnitude above i64::MAX, so the upper bound
            // is a strict `<`.
            (Value::Float(f), DataType::Int)
                if f.fract() == 0.0
                    && f.is_finite()
                    && *f >= -9_223_372_036_854_775_808.0_f64
                    && *f < 9_223_372_036_854_775_808.0_f64 =>
            {
                Ok(Value::Int(*f as i64))
            }
            _ => Err(SqlError::TypeMismatch {
                expected: ty.name().to_string(),
                found: self
                    .data_type()
                    .map(|t| t.name().to_string())
                    .unwrap_or_else(|| "NULL".into()),
            }),
        }
    }

    /// SQL comparison: NULL compares as unknown (`None`); numerics compare
    /// across INT and FLOAT by exact value, `-0.0` equals `0.0`, and NaN
    /// equals NaN and sorts above every other number; other cross-type
    /// comparisons are `None`.
    pub fn sql_cmp(&self, other: &Value) -> Option<Ordering> {
        match (self, other) {
            (Value::Null, _) | (_, Value::Null) => None,
            (Value::Int(a), Value::Int(b)) => Some(a.cmp(b)),
            (Value::Float(a), Value::Float(b)) => Some(float_cmp(*a, *b)),
            (Value::Int(a), Value::Float(b)) => Some(int_float_cmp(*a, *b)),
            (Value::Float(a), Value::Int(b)) => Some(int_float_cmp(*b, *a).reverse()),
            (Value::Text(a), Value::Text(b)) => Some(a.cmp(b)),
            (Value::Bool(a), Value::Bool(b)) => Some(a.cmp(b)),
            _ => None,
        }
    }

    /// Total ordering for ORDER BY / grouping: NULLs first, then by type
    /// (BOOL < numeric < TEXT), then as [`Value::sql_cmp`] orders them.
    pub fn total_cmp(&self, other: &Value) -> Ordering {
        fn rank(v: &Value) -> u8 {
            match v {
                Value::Null => 0,
                Value::Bool(_) => 1,
                Value::Int(_) | Value::Float(_) => 2,
                Value::Text(_) => 3,
            }
        }
        rank(self)
            .cmp(&rank(other))
            .then_with(|| self.sql_cmp(other).unwrap_or(Ordering::Equal))
    }

    /// Equality for grouping/DISTINCT: NULL equals NULL here (SQL GROUP BY
    /// semantics), floats compare by bits-equal-enough.
    pub fn group_eq(&self, other: &Value) -> bool {
        match (self, other) {
            (Value::Null, Value::Null) => true,
            (Value::Null, _) | (_, Value::Null) => false,
            _ => self.sql_cmp(other) == Some(Ordering::Equal),
        }
    }

    /// A hashable group key. Floats are keyed by their bit pattern, with
    /// `-0.0` read as `0.0` and every NaN as one, as `=` and index probes
    /// see them.
    pub fn group_key(&self) -> GroupKey {
        match self {
            Value::Null => GroupKey::Null,
            Value::Int(i) => GroupKey::Int(*i),
            Value::Float(f) => GroupKey::Float(float_key(*f)),
            Value::Text(s) => GroupKey::Text(s.clone()),
            Value::Bool(b) => GroupKey::Bool(*b),
        }
    }

    /// Whether two values fall in one group: equal [`Value::group_key`]s,
    /// without the copy.
    pub(crate) fn same_group(&self, other: &Value) -> bool {
        match (self, other) {
            (Value::Null, Value::Null) => true,
            (Value::Int(a), Value::Int(b)) => a == b,
            (Value::Float(a), Value::Float(b)) => float_key(*a) == float_key(*b),
            (Value::Text(a), Value::Text(b)) => a == b,
            (Value::Bool(a), Value::Bool(b)) => a == b,
            _ => false,
        }
    }

    /// Whether SQL `=` holds: neither side NULL, numerics compared across
    /// INT and FLOAT as [`Value::sql_cmp`] compares them.
    pub(crate) fn sql_eq(&self, other: &Value) -> bool {
        self.sql_cmp(other) == Some(Ordering::Equal)
    }

    /// Fold this value into the key hash `h` with
    /// [`dbgpt_obs::hash::mix64`]. Values in one group hash alike, and so
    /// do values [`Value::sql_eq`] holds for: INT and FLOAT hash by their
    /// `f64` widening.
    #[inline]
    pub(crate) fn key_hash(&self, h: u64) -> u64 {
        let word = |h: u64, w: u64| mix64(h ^ w);
        match self {
            Value::Null => word(h, NULL_HASH),
            Value::Int(i) => word(h, float_key(*i as f64)),
            Value::Float(f) => word(h, float_key(*f)),
            Value::Bool(b) => word(h, BOOL_HASH + *b as u64),
            Value::Text(s) => {
                let mut chunks = s.as_bytes().chunks_exact(8);
                let mut h = h;
                for c in &mut chunks {
                    h = word(h, u64::from_le_bytes(c.try_into().expect("8-byte chunk")));
                }
                // At most 7 tail bytes, so the top byte is free for the
                // length: `"a"` and `"a\0"` differ.
                let tail = chunks.remainder().iter().rev();
                let tail = tail.fold(0, |w, &b| w << 8 | u64::from(b));
                word(h, TEXT_HASH ^ tail ^ ((s.len() as u64) << 56))
            }
        }
    }
}

/// A float's key bits: its bit pattern, with `-0.0` read as `0.0` and
/// every NaN as one NaN, so floats [`Value::sql_cmp`] calls equal share
/// their bits.
pub(crate) fn float_key(f: f64) -> u64 {
    if f == 0.0 {
        0
    } else if f.is_nan() {
        f64::NAN.to_bits()
    } else {
        f.to_bits()
    }
}

/// Floats in numeric order, with every NaN equal to NaN and above every
/// other float (`-0.0` equals `0.0`).
fn float_cmp(a: f64, b: f64) -> Ordering {
    a.partial_cmp(&b)
        .unwrap_or_else(|| a.is_nan().cmp(&b.is_nan()))
}

/// `i` against `f` by exact value, NaN above every INT. Widening `i` to
/// `f64` would round past 2^53 and make INT 2^53 + 1 equal FLOAT 2^53.
fn int_float_cmp(i: i64, f: f64) -> Ordering {
    // 2^63: the least float above every i64.
    const TWO_63: f64 = 9_223_372_036_854_775_808.0;
    if f.is_nan() || f >= TWO_63 {
        Ordering::Less
    } else if f < -TWO_63 {
        Ordering::Greater
    } else {
        // In range, the whole part converts exactly.
        let whole = f.trunc();
        i.cmp(&(whole as i64))
            .then_with(|| 0.0.partial_cmp(&(f - whole)).expect("finite"))
    }
}

/// Tags [`Value::key_hash`] folds for NULL, BOOL and TEXT keys.
const NULL_HASH: u64 = 0x6e75_6c6c_0000_0001;
const BOOL_HASH: u64 = 0x626f_6f6c_0000_0002;
const TEXT_HASH: u64 = 0x0074_6578_7400_0003;

/// Hashable projection of a [`Value`] (`COUNT(DISTINCT)`, value dedupe).
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum GroupKey {
    /// NULL key (groups together).
    Null,
    /// Integer key.
    Int(i64),
    /// Float key by bit pattern (`-0.0` as `0.0`, one NaN).
    Float(u64),
    /// Text key.
    Text(String),
    /// Bool key.
    Bool(bool),
}

impl PartialEq for Value {
    fn eq(&self, other: &Self) -> bool {
        self.group_eq(other)
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Null => f.write_str("NULL"),
            Value::Int(i) => write!(f, "{i}"),
            Value::Float(v) => {
                if v.fract() == 0.0 && v.abs() < 1e15 {
                    write!(f, "{v:.1}")
                } else {
                    write!(f, "{v}")
                }
            }
            Value::Text(s) => f.write_str(s),
            Value::Bool(b) => write!(f, "{b}"),
        }
    }
}

impl From<i64> for Value {
    fn from(v: i64) -> Self {
        Value::Int(v)
    }
}
impl From<f64> for Value {
    fn from(v: f64) -> Self {
        Value::Float(v)
    }
}
impl From<&str> for Value {
    fn from(v: &str) -> Self {
        Value::Text(v.to_string())
    }
}
impl From<String> for Value {
    fn from(v: String) -> Self {
        Value::Text(v)
    }
}
impl From<bool> for Value {
    fn from(v: bool) -> Self {
        Value::Bool(v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn datatype_parse_aliases() {
        assert_eq!(DataType::parse("integer"), Some(DataType::Int));
        assert_eq!(DataType::parse("VARCHAR"), Some(DataType::Text));
        assert_eq!(DataType::parse("double"), Some(DataType::Float));
        assert_eq!(DataType::parse("BOOLEAN"), Some(DataType::Bool));
        assert_eq!(DataType::parse("blob"), None);
    }

    #[test]
    fn coerce_int_to_float() {
        assert_eq!(
            Value::Int(3).coerce_to(DataType::Float).unwrap(),
            Value::Float(3.0)
        );
    }

    #[test]
    fn coerce_whole_float_to_int() {
        assert_eq!(
            Value::Float(4.0).coerce_to(DataType::Int).unwrap(),
            Value::Int(4)
        );
        assert!(Value::Float(4.5).coerce_to(DataType::Int).is_err());
    }

    #[test]
    fn coerce_rejects_out_of_range_and_non_finite_floats() {
        // Pre-fix, `1e300.fract() == 0.0` let `as i64` saturate silently.
        for f in [1e300, -1e300, f64::INFINITY, f64::NEG_INFINITY, f64::NAN] {
            assert!(
                Value::Float(f).coerce_to(DataType::Int).is_err(),
                "{f} must not coerce to INT"
            );
        }
        // Boundary behaviour: -2^63 is exactly representable and fits;
        // 2^63 (the float just above i64::MAX) does not.
        assert_eq!(
            Value::Float(-9_223_372_036_854_775_808.0)
                .coerce_to(DataType::Int)
                .unwrap(),
            Value::Int(i64::MIN)
        );
        assert!(Value::Float(9_223_372_036_854_775_808.0)
            .coerce_to(DataType::Int)
            .is_err());
    }

    #[test]
    fn coerce_null_passes_any_type() {
        for ty in [DataType::Int, DataType::Float, DataType::Text, DataType::Bool] {
            assert!(Value::Null.coerce_to(ty).unwrap().is_null());
        }
    }

    #[test]
    fn coerce_rejects_text_to_int() {
        assert!(Value::Text("5".into()).coerce_to(DataType::Int).is_err());
    }

    #[test]
    fn sql_cmp_null_is_unknown() {
        assert_eq!(Value::Null.sql_cmp(&Value::Int(1)), None);
        assert_eq!(Value::Int(1).sql_cmp(&Value::Null), None);
    }

    #[test]
    fn sql_cmp_cross_numeric() {
        assert_eq!(
            Value::Int(2).sql_cmp(&Value::Float(1.5)),
            Some(Ordering::Greater)
        );
        assert_eq!(
            Value::Float(2.0).sql_cmp(&Value::Int(2)),
            Some(Ordering::Equal)
        );
    }

    #[test]
    fn sql_cmp_text_and_bool() {
        assert_eq!(
            Value::Text("a".into()).sql_cmp(&Value::Text("b".into())),
            Some(Ordering::Less)
        );
        assert_eq!(
            Value::Bool(false).sql_cmp(&Value::Bool(true)),
            Some(Ordering::Less)
        );
        // Cross-type non-numeric: unknown.
        assert_eq!(Value::Text("1".into()).sql_cmp(&Value::Int(1)), None);
    }

    #[test]
    fn int_and_float_compare_exactly() {
        let big = 1i64 << 53;
        let (int, float) = (Value::Int, Value::Float);
        assert_eq!(int(big + 1).sql_cmp(&float(big as f64)), Some(Ordering::Greater));
        assert_eq!(float(big as f64).sql_cmp(&int(big)), Some(Ordering::Equal));
        assert_eq!(int(-big - 1).sql_cmp(&float(-big as f64)), Some(Ordering::Less));
        assert_eq!(int(2).sql_cmp(&float(2.5)), Some(Ordering::Less));
        assert_eq!(int(-2).sql_cmp(&float(-2.5)), Some(Ordering::Greater));
        assert_eq!(int(0).sql_cmp(&float(-0.0)), Some(Ordering::Equal));
        assert_eq!(int(i64::MAX).sql_cmp(&float(i64::MAX as f64)), Some(Ordering::Less));
        assert_eq!(int(i64::MIN).sql_cmp(&float(i64::MIN as f64)), Some(Ordering::Equal));
        assert_eq!(int(i64::MIN).sql_cmp(&float(f64::NEG_INFINITY)), Some(Ordering::Greater));
        assert_eq!(int(i64::MAX).sql_cmp(&float(f64::NAN)), Some(Ordering::Less));
    }

    #[test]
    fn total_cmp_sorts_nulls_first() {
        let mut vals = [Value::Int(2), Value::Null, Value::Int(1)];
        vals.sort_by(|a, b| a.total_cmp(b));
        assert!(vals[0].is_null());
        assert_eq!(vals[1], Value::Int(1));
    }

    #[test]
    fn total_cmp_is_total_over_nan() {
        // Pre-fix, NaN compared Equal to every numeric (sql_cmp's None
        // collapsed to Equal), which is non-transitive. NaN must order
        // strictly after every finite float and after +inf.
        let nan = Value::Float(f64::NAN);
        assert_eq!(nan.total_cmp(&Value::Float(1.0)), Ordering::Greater);
        assert_eq!(Value::Float(1.0).total_cmp(&nan), Ordering::Less);
        assert_eq!(nan.total_cmp(&Value::Float(f64::INFINITY)), Ordering::Greater);
        assert_eq!(nan.total_cmp(&Value::Int(5)), Ordering::Greater);
        assert_eq!(nan.total_cmp(&Value::Float(f64::NAN)), Ordering::Equal);
        // Sorting rows containing NaN is deterministic and does not panic.
        let mut vals = [
            Value::Float(1.0),
            Value::Float(f64::NAN),
            Value::Float(0.5),
            Value::Float(f64::NAN),
            Value::Float(2.0),
        ];
        vals.sort_by(|a, b| a.total_cmp(b));
        assert_eq!(vals[0], Value::Float(0.5));
        assert_eq!(vals[1], Value::Float(1.0));
        assert_eq!(vals[2], Value::Float(2.0));
        assert!(matches!(vals[3], Value::Float(f) if f.is_nan()));
        assert!(matches!(vals[4], Value::Float(f) if f.is_nan()));
    }

    #[test]
    fn group_eq_nulls_group_together() {
        assert!(Value::Null.group_eq(&Value::Null));
        assert!(!Value::Null.group_eq(&Value::Int(0)));
    }

    #[test]
    fn group_key_distinguishes_types() {
        assert_ne!(Value::Int(1).group_key(), Value::Bool(true).group_key());
        assert_ne!(Value::Int(1).group_key(), Value::Text("1".into()).group_key());
        assert_eq!(Value::Float(1.5).group_key(), Value::Float(1.5).group_key());
    }

    #[test]
    fn signed_zeros_share_a_key() {
        assert_eq!(
            Value::Float(-0.0).group_key(),
            Value::Float(0.0).group_key()
        );
        assert!(Value::Float(-0.0).same_group(&Value::Float(0.0)));
        assert!(!Value::Int(0).same_group(&Value::Float(0.0)));
        let (nan, neg_nan) = (Value::Float(f64::NAN), Value::Float(-f64::NAN));
        assert!(nan.same_group(&neg_nan));
        assert!(nan.sql_eq(&neg_nan));
        assert_eq!(nan.group_key(), neg_nan.group_key());
    }

    #[test]
    fn sql_equal_values_hash_alike() {
        let big = 1i64 << 53;
        let pairs = [
            (Value::Int(1), Value::Float(1.0)),
            (Value::Int(0), Value::Float(-0.0)),
            (Value::Float(0.0), Value::Float(-0.0)),
            (Value::Int(big), Value::Float(big as f64)),
            (Value::Float(f64::NAN), Value::Float(-f64::NAN)),
            (Value::Text("books".into()), Value::Text("books".into())),
        ];
        for (a, b) in pairs {
            assert_eq!(a.key_hash(7), b.key_hash(7), "{a:?} vs {b:?}");
        }
        let text = |s: &str| Value::Text(s.into()).key_hash(7);
        assert_ne!(text("books"), text("book"));
        assert_ne!(text("abcdefgh"), text("abcdefgh\0"));
        assert_ne!(text("a"), text("a\0"));
        assert_ne!(text(""), Value::Null.key_hash(7));
        assert_ne!(Value::Int(1).key_hash(7), Value::Int(1).key_hash(8));
    }

    #[test]
    fn display_formats() {
        assert_eq!(Value::Null.to_string(), "NULL");
        assert_eq!(Value::Int(5).to_string(), "5");
        assert_eq!(Value::Float(2.0).to_string(), "2.0");
        assert_eq!(Value::Float(2.25).to_string(), "2.25");
        assert_eq!(Value::Text("hi".into()).to_string(), "hi");
        assert_eq!(Value::Bool(true).to_string(), "true");
    }

    #[test]
    fn truthiness() {
        assert!(Value::Bool(true).is_truthy());
        assert!(!Value::Bool(false).is_truthy());
        assert!(!Value::Null.is_truthy());
        assert!(!Value::Int(1).is_truthy());
    }

    #[test]
    fn from_conversions() {
        assert_eq!(Value::from(1i64), Value::Int(1));
        assert_eq!(Value::from(1.5), Value::Float(1.5));
        assert_eq!(Value::from("x"), Value::Text("x".into()));
        assert_eq!(Value::from(true), Value::Bool(true));
    }
}
