//! Aggregate accumulators.

use std::collections::HashSet;

use crate::error::SqlError;
use crate::plan::logical::AggFunc;
use crate::value::{GroupKey, Value};

/// Running state for one aggregate over one group.
#[derive(Debug, Clone)]
pub enum Accumulator {
    /// `COUNT(*)`.
    CountStar(i64),
    /// `COUNT(expr)` — non-NULL count.
    Count(i64),
    /// `COUNT(DISTINCT expr)` — distinct non-NULL values.
    CountDistinct(HashSet<GroupKey>),
    /// `SUM(expr)` — NULL until the first non-NULL input; integer sums stay
    /// integers, any float input promotes.
    Sum(SumState),
    /// `AVG(expr)`.
    Avg {
        /// Running sum.
        sum: f64,
        /// Non-NULL input count.
        n: i64,
    },
    /// `MIN(expr)`.
    Min(Option<Value>),
    /// `MAX(expr)`.
    Max(Option<Value>),
}

/// Sum state: empty (→ NULL), integer, or float.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum SumState {
    /// No non-NULL input yet.
    Empty,
    /// All-integer sum.
    Int(i64),
    /// Float-promoted sum.
    Float(f64),
}

impl Accumulator {
    /// Fresh accumulator for `func`.
    pub fn new(func: AggFunc) -> Self {
        match func {
            AggFunc::CountStar => Accumulator::CountStar(0),
            AggFunc::Count => Accumulator::Count(0),
            AggFunc::CountDistinct => Accumulator::CountDistinct(HashSet::new()),
            AggFunc::Sum => Accumulator::Sum(SumState::Empty),
            AggFunc::Avg => Accumulator::Avg { sum: 0.0, n: 0 },
            AggFunc::Min => Accumulator::Min(None),
            AggFunc::Max => Accumulator::Max(None),
        }
    }

    /// Fold one input value. For `COUNT(*)` the value is ignored.
    pub fn update(&mut self, value: &Value) -> Result<(), SqlError> {
        match self {
            Accumulator::CountStar(n) => *n += 1,
            Accumulator::Count(n) => {
                if !value.is_null() {
                    *n += 1;
                }
            }
            Accumulator::CountDistinct(seen) => {
                if !value.is_null() {
                    seen.insert(value.group_key());
                }
            }
            Accumulator::Sum(state) => match value {
                Value::Null => {}
                Value::Int(i) => {
                    *state = match *state {
                        SumState::Empty => SumState::Int(*i),
                        SumState::Int(s) => SumState::Int(s.wrapping_add(*i)),
                        SumState::Float(s) => SumState::Float(s + *i as f64),
                    }
                }
                Value::Float(f) => {
                    *state = match *state {
                        SumState::Empty => SumState::Float(*f),
                        SumState::Int(s) => SumState::Float(s as f64 + *f),
                        SumState::Float(s) => SumState::Float(s + *f),
                    }
                }
                other => {
                    return Err(SqlError::Execution(format!(
                        "SUM over non-numeric value {other:?}"
                    )))
                }
            },
            Accumulator::Avg { sum, n } => match value.as_f64() {
                Some(f) => {
                    *sum += f;
                    *n += 1;
                }
                None if value.is_null() => {}
                None => {
                    return Err(SqlError::Execution(format!(
                        "AVG over non-numeric value {value:?}"
                    )))
                }
            },
            Accumulator::Min(best) => {
                if !value.is_null() {
                    let replace = match best {
                        None => true,
                        Some(b) => {
                            value.sql_cmp(b) == Some(std::cmp::Ordering::Less)
                        }
                    };
                    if replace {
                        *best = Some(value.clone());
                    }
                }
            }
            Accumulator::Max(best) => {
                if !value.is_null() {
                    let replace = match best {
                        None => true,
                        Some(b) => {
                            value.sql_cmp(b) == Some(std::cmp::Ordering::Greater)
                        }
                    };
                    if replace {
                        *best = Some(value.clone());
                    }
                }
            }
        }
        Ok(())
    }

    /// Final value of the aggregate.
    pub fn finish(&self) -> Value {
        match self {
            Accumulator::CountStar(n) | Accumulator::Count(n) => Value::Int(*n),
            Accumulator::CountDistinct(seen) => Value::Int(seen.len() as i64),
            Accumulator::Sum(SumState::Empty) => Value::Null,
            Accumulator::Sum(SumState::Int(s)) => Value::Int(*s),
            Accumulator::Sum(SumState::Float(s)) => Value::Float(*s),
            Accumulator::Avg { n: 0, .. } => Value::Null,
            Accumulator::Avg { sum, n } => Value::Float(sum / *n as f64),
            Accumulator::Min(v) | Accumulator::Max(v) => {
                v.clone().unwrap_or(Value::Null)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run(func: AggFunc, vals: &[Value]) -> Value {
        let mut acc = Accumulator::new(func);
        for v in vals {
            acc.update(v).unwrap();
        }
        acc.finish()
    }

    #[test]
    fn count_star_counts_everything() {
        assert_eq!(
            run(AggFunc::CountStar, &[Value::Null, Value::Int(1)]),
            Value::Int(2)
        );
    }

    #[test]
    fn count_skips_nulls() {
        assert_eq!(
            run(AggFunc::Count, &[Value::Null, Value::Int(1), Value::Null]),
            Value::Int(1)
        );
    }

    #[test]
    fn sum_integer_stays_integer() {
        assert_eq!(
            run(AggFunc::Sum, &[Value::Int(1), Value::Int(2)]),
            Value::Int(3)
        );
    }

    #[test]
    fn sum_promotes_on_float() {
        assert_eq!(
            run(AggFunc::Sum, &[Value::Int(1), Value::Float(0.5)]),
            Value::Float(1.5)
        );
    }

    #[test]
    fn sum_of_empty_or_all_null_is_null() {
        assert_eq!(run(AggFunc::Sum, &[]), Value::Null);
        assert_eq!(run(AggFunc::Sum, &[Value::Null]), Value::Null);
    }

    #[test]
    fn sum_rejects_text() {
        let mut acc = Accumulator::new(AggFunc::Sum);
        assert!(acc.update(&Value::Text("x".into())).is_err());
    }

    #[test]
    fn avg_mean_and_empty() {
        assert_eq!(
            run(AggFunc::Avg, &[Value::Int(1), Value::Int(2), Value::Null]),
            Value::Float(1.5)
        );
        assert_eq!(run(AggFunc::Avg, &[]), Value::Null);
    }

    #[test]
    fn min_max_with_nulls() {
        let vals = [Value::Int(3), Value::Null, Value::Int(1), Value::Int(2)];
        assert_eq!(run(AggFunc::Min, &vals), Value::Int(1));
        assert_eq!(run(AggFunc::Max, &vals), Value::Int(3));
        assert_eq!(run(AggFunc::Min, &[Value::Null]), Value::Null);
    }

    #[test]
    fn min_max_over_text() {
        let vals = [Value::Text("pear".into()), Value::Text("apple".into())];
        assert_eq!(run(AggFunc::Min, &vals), Value::Text("apple".into()));
        assert_eq!(run(AggFunc::Max, &vals), Value::Text("pear".into()));
    }
}
