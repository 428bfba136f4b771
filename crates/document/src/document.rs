//! [`Document`]: a record or nested object, as one sorted field vector.

use std::fmt;
use std::ops::Index;

use crate::string::Str;
use crate::value::Value;

/// A record or nested object: its fields in one vector, sorted by key,
/// each key once. Records have a handful of fields, so one allocation
/// holds them all, and a lookup bisects a few adjacent keys.
///
/// The methods are those of a `BTreeMap<Str, Value>`: iteration is in
/// key order, and a repeated key keeps its last value. Documents always
/// carry their primary key in the `_id` field when stored.
#[derive(Clone, Default, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Document {
    fields: Vec<(Str, Value)>,
}

impl Document {
    /// An empty document.
    pub const fn new() -> Document {
        Document { fields: Vec::new() }
    }

    /// An empty document with room for `n` fields.
    pub fn with_capacity(n: usize) -> Document {
        Document {
            fields: Vec::with_capacity(n),
        }
    }

    /// Number of fields.
    pub fn len(&self) -> usize {
        self.fields.len()
    }

    /// True when there are no fields.
    pub fn is_empty(&self) -> bool {
        self.fields.is_empty()
    }

    /// `Ok(index)` of `key`, or `Err(index)` where it would go. The
    /// bisection stops at the first equal key: on a record's few fields
    /// that takes fewer string comparisons than `binary_search_by`, which
    /// always narrows to one field before it compares for equality.
    fn find(&self, key: &str) -> Result<usize, usize> {
        let (mut lo, mut hi) = (0, self.fields.len());
        while lo < hi {
            let mid = lo + (hi - lo) / 2;
            match self.fields[mid].0.as_str().cmp(key) {
                std::cmp::Ordering::Less => lo = mid + 1,
                std::cmp::Ordering::Greater => hi = mid,
                std::cmp::Ordering::Equal => return Ok(mid),
            }
        }
        Err(lo)
    }

    /// The value of `key`.
    pub fn get(&self, key: &str) -> Option<&Value> {
        self.find(key).ok().map(|i| &self.fields[i].1)
    }

    /// The value of `key`, mutably.
    pub fn get_mut(&mut self, key: &str) -> Option<&mut Value> {
        self.find(key).ok().map(|i| &mut self.fields[i].1)
    }

    /// True when `key` has a value.
    pub fn contains_key(&self, key: &str) -> bool {
        self.find(key).is_ok()
    }

    /// Set `key` to `value`; returns the value it replaced. A new key
    /// shifts every field that sorts after it, so a document of many
    /// fields in any order is built with `collect`, which sorts once.
    pub fn insert(&mut self, key: impl Into<Str>, value: Value) -> Option<Value> {
        let key = key.into();
        match self.find(&key) {
            Ok(i) => Some(std::mem::replace(&mut self.fields[i].1, value)),
            Err(i) => {
                self.fields.insert(i, (key, value));
                None
            }
        }
    }

    /// Remove `key`; returns its value.
    pub fn remove(&mut self, key: &str) -> Option<Value> {
        self.find(key).ok().map(|i| self.fields.remove(i).1)
    }

    /// The slot of `key`, for in-place insertion.
    pub fn entry(&mut self, key: impl Into<Str>) -> Entry<'_> {
        Entry {
            doc: self,
            key: key.into(),
        }
    }

    /// The fields in key order.
    pub fn iter(&self) -> Iter<'_> {
        Iter(self.fields.iter())
    }

    /// The keys in order.
    pub fn keys(&self) -> impl Iterator<Item = &Str> {
        self.fields.iter().map(|(k, _)| k)
    }

    /// The values in key order.
    pub fn values(&self) -> impl Iterator<Item = &Value> {
        self.fields.iter().map(|(_, v)| v)
    }

    /// Release spare capacity: a stored record keeps no room to grow.
    pub fn shrink_to_fit(&mut self) {
        self.fields.shrink_to_fit();
    }
}

/// A slot in a [`Document`], from [`Document::entry`].
pub struct Entry<'a> {
    doc: &'a mut Document,
    key: Str,
}

impl<'a> Entry<'a> {
    /// The value of the key, inserting `default()` first if it has none.
    pub fn or_insert_with(self, default: impl FnOnce() -> Value) -> &'a mut Value {
        let i = match self.doc.find(&self.key) {
            Ok(i) => i,
            Err(i) => {
                self.doc.fields.insert(i, (self.key, default()));
                i
            }
        };
        &mut self.doc.fields[i].1
    }
}

/// The fields of a [`Document`] in key order, from [`Document::iter`].
#[derive(Clone)]
pub struct Iter<'a>(std::slice::Iter<'a, (Str, Value)>);

impl<'a> Iterator for Iter<'a> {
    type Item = (&'a Str, &'a Value);

    fn next(&mut self) -> Option<Self::Item> {
        self.0.next().map(|(k, v)| (k, v))
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        self.0.size_hint()
    }
}

impl<'a> IntoIterator for &'a Document {
    type Item = (&'a Str, &'a Value);
    type IntoIter = Iter<'a>;

    fn into_iter(self) -> Iter<'a> {
        self.iter()
    }
}

impl IntoIterator for Document {
    type Item = (Str, Value);
    type IntoIter = std::vec::IntoIter<(Str, Value)>;

    fn into_iter(self) -> Self::IntoIter {
        self.fields.into_iter()
    }
}

impl Document {
    /// A document of `fields` in any order; a repeated key keeps its last
    /// value. Fields that arrive in key order, as every decoder sees them,
    /// stay in the vector they came in.
    pub(crate) fn from_fields(mut fields: Vec<(Str, Value)>) -> Document {
        if !fields.windows(2).all(|w| w[0].0 < w[1].0) {
            // Stable, so among equal keys the last one stays last; each
            // dropped duplicate hands its value to the earlier copy.
            fields.sort_by(|a, b| a.0.cmp(&b.0));
            fields.dedup_by(|later, kept| {
                let same = later.0 == kept.0;
                if same {
                    std::mem::swap(&mut later.1, &mut kept.1);
                }
                same
            });
        }
        Document { fields }
    }
}

impl<K: Into<Str>> FromIterator<(K, Value)> for Document {
    /// Fields in any order; a repeated key keeps its last value.
    fn from_iter<I: IntoIterator<Item = (K, Value)>>(iter: I) -> Document {
        Document::from_fields(iter.into_iter().map(|(k, v)| (k.into(), v)).collect())
    }
}

impl<Q: AsRef<str> + ?Sized> Index<&Q> for Document {
    type Output = Value;

    /// The value of `key`; panics when there is none, as a map does.
    fn index(&self, key: &Q) -> &Value {
        self.get(key.as_ref()).expect("no field with this key")
    }
}

impl fmt::Debug for Document {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_map().entries(self.iter()).finish()
    }
}

#[cfg(test)]
mod tests {
    use std::collections::BTreeMap;

    use proptest::prelude::*;

    use super::*;

    #[derive(Debug, Clone)]
    enum Step {
        Insert(String, i64),
        Remove(String),
        Get(String),
        GetMut(String, i64),
        Entry(String, i64),
    }

    /// Keys from a small alphabet so steps collide, plus a few long ones
    /// past the inline limit.
    fn arb_key() -> impl Strategy<Value = String> {
        prop_oneof![
            "[a-z]{1,2}",
            "[a-c]{1,3}".prop_map(|k| format!("{k}{}", "x".repeat(24))),
        ]
    }

    fn arb_step() -> impl Strategy<Value = Step> {
        prop_oneof![
            (arb_key(), any::<i64>()).prop_map(|(k, v)| Step::Insert(k, v)),
            arb_key().prop_map(Step::Remove),
            arb_key().prop_map(Step::Get),
            (arb_key(), any::<i64>()).prop_map(|(k, v)| Step::GetMut(k, v)),
            (arb_key(), any::<i64>()).prop_map(|(k, v)| Step::Entry(k, v)),
        ]
    }

    fn same_contents(doc: &Document, oracle: &BTreeMap<String, Value>) -> bool {
        doc.len() == oracle.len()
            && doc
                .iter()
                .zip(oracle)
                .all(|((k, v), (ok, ov))| k == ok && v == ov)
            && doc.keys().eq(oracle.keys())
            && doc.values().eq(oracle.values())
            && doc
                .clone()
                .into_iter()
                .map(|(k, v)| (String::from(k), v))
                .eq(oracle.clone())
    }

    proptest! {
        #[test]
        fn document_behaves_like_a_btree_map(steps in proptest::collection::vec(arb_step(), 0..120)) {
            let mut doc = Document::new();
            let mut oracle: BTreeMap<String, Value> = BTreeMap::new();
            for step in steps {
                match step {
                    Step::Insert(k, v) => prop_assert_eq!(
                        doc.insert(k.as_str(), Value::Int(v)),
                        oracle.insert(k, Value::Int(v))
                    ),
                    Step::Remove(k) => prop_assert_eq!(doc.remove(&k), oracle.remove(&k)),
                    Step::Get(k) => {
                        prop_assert_eq!(doc.get(&k), oracle.get(&k));
                        prop_assert_eq!(doc.contains_key(&k), oracle.contains_key(&k));
                    }
                    Step::GetMut(k, v) => {
                        let (a, b) = (doc.get_mut(&k), oracle.get_mut(&k));
                        prop_assert_eq!(a.is_some(), b.is_some());
                        if let (Some(a), Some(b)) = (a, b) {
                            *a = Value::Int(v);
                            *b = Value::Int(v);
                        }
                    }
                    Step::Entry(k, v) => {
                        let a = doc.entry(k.as_str()).or_insert_with(|| Value::Int(v)).clone();
                        let b = oracle.entry(k).or_insert_with(|| Value::Int(v)).clone();
                        prop_assert_eq!(a, b);
                    }
                }
                prop_assert!(same_contents(&doc, &oracle), "{:?} vs {:?}", doc, oracle);
            }
        }

        #[test]
        fn from_iter_keeps_the_last_of_repeated_keys(
            fields in proptest::collection::vec((arb_key(), any::<i64>()), 0..40),
        ) {
            let doc: Document = fields.iter().map(|(k, v)| (k.as_str(), Value::Int(*v))).collect();
            let oracle: BTreeMap<String, Value> =
                fields.into_iter().map(|(k, v)| (k, Value::Int(v))).collect();
            prop_assert!(same_contents(&doc, &oracle), "{:?} vs {:?}", doc, oracle);
        }
    }

    #[test]
    fn index_and_debug_read_like_a_map() {
        let doc: Document = [("b", Value::Int(2)), ("a", Value::Int(1))]
            .into_iter()
            .collect();
        assert_eq!(doc["a"], Value::Int(1));
        assert_eq!(doc[&String::from("b")], Value::Int(2));
        assert_eq!(format!("{doc:?}"), r#"{"a": Int(1), "b": Int(2)}"#);
    }
}
