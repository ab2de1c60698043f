//! Key sets for multi-value equality lookups (bind-join bindings, `IN`
//! lists): one hash probe per row value, answering exactly what the linear
//! test `keys.iter().filter(|k| *k == v)` answers.
//!
//! `Value` equality is not transitive across numeric types: `Int(2^53)` and
//! `Int(2^53 + 1)` differ, yet both equal `Float(2^53)`. A plain
//! `HashSet<Value>` folds such keys together and can disagree with the
//! linear test. [`KeySet`] groups keys by their hash class instead (numerics
//! by the bits of their `f64` image, which is what `Value`'s `Hash` feeds;
//! everything else by value) and compares with `==` inside the class, which
//! almost always holds a single key.

use std::collections::HashMap;
use std::hash::{Hash, Hasher};

use eii_data::Value;

/// A value compared by hash class: an equivalence relation that `Value`'s
/// `Hash` is consistent with.
#[derive(Clone, Copy)]
struct HashClass<'a>(&'a Value);

impl Hash for HashClass<'_> {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.0.hash(state);
    }
}

impl PartialEq for HashClass<'_> {
    fn eq(&self, other: &Self) -> bool {
        match (self.0.as_float(), other.0.as_float()) {
            (Some(a), Some(b)) => a.to_bits() == b.to_bits(),
            _ => self.0 == other.0,
        }
    }
}

impl Eq for HashClass<'_> {}

/// The distinct keys of a key list, indexed for probing.
#[derive(Clone)]
pub struct KeySet<'a> {
    /// Distinct keys, first occurrence first. Keys are distinct when they
    /// differ in value or in type, so `2` and `2.0` are both kept.
    distinct: Vec<&'a Value>,
    /// Hash class -> indices into `distinct`.
    classes: HashMap<HashClass<'a>, Vec<usize>>,
    /// For each input key, in input order, its index in `distinct`.
    positions: Vec<usize>,
}

impl<'a> KeySet<'a> {
    /// Index `keys` (duplicates allowed).
    pub fn new(keys: &'a [Value]) -> Self {
        let mut set = KeySet {
            distinct: Vec::new(),
            classes: HashMap::with_capacity(keys.len()),
            positions: Vec::with_capacity(keys.len()),
        };
        for key in keys {
            let class = set.classes.entry(HashClass(key)).or_default();
            let known = class.iter().copied().find(|&i| {
                let seen = set.distinct[i];
                seen == key && seen.data_type() == key.data_type()
            });
            let index = known.unwrap_or_else(|| {
                class.push(set.distinct.len());
                set.distinct.push(key);
                set.distinct.len() - 1
            });
            set.positions.push(index);
        }
        set
    }

    /// Number of distinct keys.
    pub fn distinct_len(&self) -> usize {
        self.distinct.len()
    }

    /// For each input key, in input order, the index of its distinct key.
    pub fn positions(&self) -> &[usize] {
        &self.positions
    }

    /// Indices of the distinct keys equal to `v`.
    pub fn matches<'s>(&'s self, v: &'s Value) -> impl Iterator<Item = usize> + 's {
        self.classes
            .get(&HashClass(v))
            .into_iter()
            .flatten()
            .copied()
            .filter(move |&i| self.distinct[i] == v)
    }

    /// Whether some key equals `v`.
    pub fn contains(&self, v: &Value) -> bool {
        self.matches(v).next().is_some()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn duplicates_share_a_distinct_key() {
        let keys = [Value::Int(1), Value::str("a"), Value::Int(1)];
        let set = KeySet::new(&keys);
        assert_eq!(set.distinct_len(), 2);
        assert_eq!(set.positions(), &[0, 1, 0]);
    }

    #[test]
    fn int_and_float_keys_stay_distinct_but_both_match() {
        let keys = [Value::Int(2), Value::Float(2.0)];
        let set = KeySet::new(&keys);
        assert_eq!(set.distinct_len(), 2);
        assert_eq!(set.matches(&Value::Int(2)).collect::<Vec<_>>(), vec![0, 1]);
        assert_eq!(
            set.matches(&Value::Float(2.0)).collect::<Vec<_>>(),
            vec![0, 1]
        );
        assert!(!set.contains(&Value::Int(3)));
    }

    #[test]
    fn membership_matches_the_linear_test_past_f64_precision() {
        let big = 1i64 << 53;
        let keys = [Value::Int(big), Value::Float(big as f64)];
        let set = KeySet::new(&keys);
        // Int(2^53 + 1) differs from Int(2^53) but equals Float(2^53).
        let probe = Value::Int(big + 1);
        assert!(keys.contains(&probe));
        assert!(set.contains(&probe));
        assert_eq!(set.matches(&probe).collect::<Vec<_>>(), vec![1]);
    }

    #[test]
    fn null_key_matches_null() {
        let keys = [Value::Null];
        let set = KeySet::new(&keys);
        assert!(set.contains(&Value::Null));
        assert!(!set.contains(&Value::Int(0)));
    }
}
