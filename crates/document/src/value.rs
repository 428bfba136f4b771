//! The [`Value`] type.

use std::cmp::Ordering;
use std::fmt;

use serde::{Deserialize, Serialize};

use crate::canonical;
use crate::document::Document;
use crate::path::Path;
use crate::string::Str;

/// A JSON-like value with MongoDB/BSON-flavoured total ordering.
///
/// Numbers are split into `Int`/`Float` but compare numerically with each
/// other, as in MongoDB. Objects are [`Document`]s, whose fields stay
/// sorted by key, so that field order is canonical — important because
/// the *normalized query string is the cache key* in Quaestor: two
/// structurally equal literals must serialize identically. Strings are
/// [`Str`]s, inline up to 22 bytes; a `Value` is 32 bytes.
#[derive(Debug, Clone, Serialize, Deserialize)]
#[serde(untagged)]
pub enum Value {
    /// Null / absent marker.
    Null,
    /// Boolean.
    Bool(bool),
    /// 64-bit signed integer.
    Int(i64),
    /// 64-bit float.
    Float(f64),
    /// UTF-8 string.
    Str(Str),
    /// Ordered array.
    Array(Vec<Value>),
    /// Nested document with canonically sorted keys.
    Object(Document),
}

/// Type-rank for cross-type ordering, following BSON's canonical order:
/// Null < Numbers < Strings < Objects < Arrays < Booleans.
fn type_rank(v: &Value) -> u8 {
    match v {
        Value::Null => 0,
        Value::Int(_) | Value::Float(_) => 1,
        Value::Str(_) => 2,
        Value::Object(_) => 3,
        Value::Array(_) => 4,
        Value::Bool(_) => 5,
    }
}

impl Value {
    /// String value constructor convenience.
    pub fn str(s: impl Into<Str>) -> Value {
        Value::Str(s.into())
    }

    /// Array constructor convenience.
    pub fn array(items: impl IntoIterator<Item = Value>) -> Value {
        Value::Array(items.into_iter().collect())
    }

    /// True if this is `Value::Null`.
    pub fn is_null(&self) -> bool {
        matches!(self, Value::Null)
    }

    /// Numeric view (ints widen to f64), `None` for non-numbers.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Int(i) => Some(*i as f64),
            Value::Float(f) => Some(*f),
            _ => None,
        }
    }

    /// Integer view, `None` for non-ints.
    pub fn as_i64(&self) -> Option<i64> {
        match self {
            Value::Int(i) => Some(*i),
            _ => None,
        }
    }

    /// String view.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// Array view.
    pub fn as_array(&self) -> Option<&[Value]> {
        match self {
            Value::Array(a) => Some(a),
            _ => None,
        }
    }

    /// Object view.
    pub fn as_object(&self) -> Option<&Document> {
        match self {
            Value::Object(o) => Some(o),
            _ => None,
        }
    }

    /// Resolve a dotted path against this value. Array elements are
    /// addressed by numeric path segments.
    pub fn get_path(&self, path: &Path) -> Option<&Value> {
        let mut cur = self;
        for seg in path.segments() {
            match cur {
                Value::Object(map) => cur = map.get(seg)?,
                Value::Array(items) => {
                    let idx: usize = seg.parse().ok()?;
                    cur = items.get(idx)?;
                }
                _ => return None,
            }
        }
        Some(cur)
    }

    /// Approximate in-memory footprint in bytes; used by the cost model
    /// that decides between id-list and object-list representations.
    pub fn size_bytes(&self) -> usize {
        match self {
            Value::Null => 1,
            Value::Bool(_) => 1,
            Value::Int(_) | Value::Float(_) => 8,
            Value::Str(s) => 8 + s.len(),
            Value::Array(a) => 8 + a.iter().map(Value::size_bytes).sum::<usize>(),
            Value::Object(o) => {
                8 + o
                    .iter()
                    .map(|(k, v)| k.len() + 2 + v.size_bytes())
                    .sum::<usize>()
            }
        }
    }

    /// Canonical string rendering. Deterministic: objects print keys in
    /// sorted order, floats use Rust's shortest-roundtrip formatting.
    /// Used for query-string normalization (the cache key) and for cached
    /// bodies; [`crate::canonical`] states the format and holds its reader.
    pub fn canonical(&self) -> String {
        let mut out = String::new();
        canonical::write_value(self, &mut out);
        out
    }

    /// Append to `out` a rendering that agrees with [`Value`]'s *equality*:
    /// any two values comparing `Equal` render identically, and distinct
    /// renderings imply distinct values. Appending to a caller-owned buffer
    /// lets the hot path reuse one scratch `String` per event.
    ///
    /// [`Value::canonical`] does not have this property for integers above
    /// 2^53: numeric comparison goes through `f64`, so e.g.
    /// `Int(9007199254740993) == Float(9007199254740992.0)` — yet their
    /// canonical strings differ. Here numeric leaves render through their
    /// `f64` projection (recursively inside arrays/objects), collapsing
    /// each equality class to one string. InvaliDB's predicate index keys
    /// on this rendering; keying on `canonical()` would miss matches.
    pub fn eq_canonical_into(&self, out: &mut String) {
        match self {
            Value::Int(i) => canonical::write_float(*i as f64, out),
            Value::Array(items) => {
                out.push('[');
                for (i, v) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    v.eq_canonical_into(out);
                }
                out.push(']');
            }
            Value::Object(map) => {
                out.push('{');
                for (i, (k, v)) in map.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    canonical::write_str(k, out);
                    out.push(':');
                    v.eq_canonical_into(out);
                }
                out.push('}');
            }
            other => canonical::write_value(other, out),
        }
    }
}

impl PartialEq for Value {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == Ordering::Equal
    }
}

impl Eq for Value {}

impl PartialOrd for Value {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Value {
    /// BSON-style total order. NaN sorts below all other numbers (MongoDB
    /// treats NaN as the smallest number), giving a genuine total order
    /// despite `f64`.
    fn cmp(&self, other: &Self) -> Ordering {
        let (ra, rb) = (type_rank(self), type_rank(other));
        if ra != rb {
            return ra.cmp(&rb);
        }
        match (self, other) {
            (Value::Null, Value::Null) => Ordering::Equal,
            (Value::Bool(a), Value::Bool(b)) => a.cmp(b),
            (a, b) if ra == 1 => {
                let fa = a.as_f64().unwrap();
                let fb = b.as_f64().unwrap();
                match (fa.is_nan(), fb.is_nan()) {
                    (true, true) => Ordering::Equal,
                    (true, false) => Ordering::Less,
                    (false, true) => Ordering::Greater,
                    (false, false) => fa.partial_cmp(&fb).unwrap(),
                }
            }
            (Value::Str(a), Value::Str(b)) => a.cmp(b),
            (Value::Array(a), Value::Array(b)) => a.cmp(b),
            (Value::Object(a), Value::Object(b)) => a.cmp(b),
            _ => unreachable!("type ranks matched but variants differ"),
        }
    }
}

impl std::hash::Hash for Value {
    /// Hashes what equality compares, so any two values comparing `Equal`
    /// hash identically, and allocates nothing. Equality projects numbers
    /// through f64, so above 2^53 an `Int` and a `Float` can compare
    /// equal; both hash as their f64 projection. A hash map keyed on
    /// `Value` (the store's hash index) stays exact.
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        state.write_u8(type_rank(self));
        match self {
            Value::Null => {}
            Value::Bool(b) => state.write_u8(u8::from(*b)),
            Value::Int(_) | Value::Float(_) => {
                let f = self.as_f64().unwrap_or_default();
                if f.is_nan() {
                    state.write_u64(f64::NAN.to_bits());
                } else if f.fract() == 0.0 && f.abs() < 9.0e18 {
                    // An integral value (`-0.0` too) hashes as its integer:
                    // the f64 bits of small integers differ only in their
                    // high bits, and the store's multiplicative hasher
                    // buckets by the low ones.
                    state.write_i64(f as i64);
                } else {
                    state.write_u64(f.to_bits());
                }
            }
            Value::Str(s) => s.hash(state),
            Value::Array(items) => items.hash(state),
            Value::Object(doc) => doc.hash(state),
        }
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.canonical())
    }
}

impl From<i64> for Value {
    fn from(v: i64) -> Self {
        Value::Int(v)
    }
}
impl From<i32> for Value {
    fn from(v: i32) -> Self {
        Value::Int(v as i64)
    }
}
impl From<f64> for Value {
    fn from(v: f64) -> Self {
        Value::Float(v)
    }
}
impl From<bool> for Value {
    fn from(v: bool) -> Self {
        Value::Bool(v)
    }
}
impl From<&str> for Value {
    fn from(v: &str) -> Self {
        Value::Str(v.into())
    }
}
impl From<String> for Value {
    fn from(v: String) -> Self {
        Value::Str(v.into())
    }
}
impl<T: Into<Value>> From<Vec<T>> for Value {
    fn from(v: Vec<T>) -> Self {
        Value::Array(v.into_iter().map(Into::into).collect())
    }
}

/// Build a [`Document`] with a terse literal syntax:
///
/// ```
/// use quaestor_document::{doc, Value};
/// let d = doc! { "title" => "First Post", "likes" => 42 };
/// assert_eq!(d["likes"], Value::Int(42));
/// ```
#[macro_export]
macro_rules! doc {
    () => { $crate::Document::new() };
    ( $( $k:expr => $v:expr ),+ $(,)? ) => {{
        let mut m = $crate::Document::new();
        $( m.insert($k, $crate::Value::from($v)); )+
        m
    }};
}

/// Build a [`Value`] array from heterogeneous literals.
#[macro_export]
macro_rules! varray {
    ( $( $v:expr ),* $(,)? ) => {
        $crate::Value::Array(vec![ $( $crate::Value::from($v) ),* ])
    };
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn obj(pairs: &[(&str, Value)]) -> Value {
        Value::Object(pairs.iter().map(|(k, v)| (*k, v.clone())).collect())
    }

    #[test]
    fn cross_type_order_is_bson_like() {
        let vals = [
            Value::Null,
            Value::Int(1),
            Value::str("a"),
            obj(&[("a", Value::Int(1))]),
            Value::array([Value::Int(1)]),
            Value::Bool(false),
        ];
        for w in vals.windows(2) {
            assert!(w[0] < w[1], "{} should sort before {}", w[0], w[1]);
        }
    }

    #[test]
    fn a_value_is_32_bytes() {
        assert_eq!(std::mem::size_of::<Value>(), 32);
    }

    /// The store's hash index is an `FxHashMap<Value, _>`, whose buckets
    /// come from the hash's low bits: 1 024 integer keys must fill most of
    /// 1 024 buckets, not share one.
    #[test]
    fn integer_keys_spread_over_the_low_bits_of_fx_hash() {
        use std::collections::HashSet;
        use std::hash::{Hash, Hasher};
        let buckets: HashSet<u64> = (0..1024)
            .map(|i| {
                let mut h = quaestor_common::hash::FxHasher::default();
                Value::Int(i).hash(&mut h);
                h.finish() & 1023
            })
            .collect();
        assert!(buckets.len() > 512, "{} buckets", buckets.len());
    }

    #[test]
    fn numeric_cross_compare() {
        assert_eq!(Value::Int(3), Value::Float(3.0));
        assert!(Value::Int(3) < Value::Float(3.5));
        assert!(Value::Float(2.5) < Value::Int(3));
    }

    #[test]
    fn nan_is_smallest_number() {
        assert!(Value::Float(f64::NAN) < Value::Float(-1e308));
        assert!(Value::Float(f64::NAN) > Value::Null);
        assert_eq!(Value::Float(f64::NAN), Value::Float(f64::NAN));
    }

    #[test]
    fn canonical_is_deterministic_and_key_sorted() {
        let a = obj(&[("b", Value::Int(2)), ("a", Value::Int(1))]);
        assert_eq!(a.canonical(), r#"{"a":1,"b":2}"#);
        // Int/Float at the same numeric point canonicalize identically.
        assert_eq!(Value::Int(3).canonical(), Value::Float(3.0).canonical());
    }

    #[test]
    fn eq_canonical_agrees_with_equality_for_giant_integers() {
        let eq_key = |v: &Value| {
            let mut s = String::new();
            v.eq_canonical_into(&mut s);
            s
        };
        // 2^53 + 1 == 2^53 under the (f64-mediated) numeric order; their
        // canonical strings differ but their eq-canonical strings must not.
        let a = Value::Int(9_007_199_254_740_993);
        let b = Value::Float(9_007_199_254_740_992.0);
        assert_eq!(a, b);
        assert_ne!(a.canonical(), b.canonical());
        assert_eq!(eq_key(&a), eq_key(&b));
        // Recursion: equality classes collapse inside containers too.
        let na = obj(&[("n", a)]);
        let nb = obj(&[("n", b)]);
        assert_eq!(na, nb);
        assert_eq!(eq_key(&na), eq_key(&nb));
        assert_eq!(
            eq_key(&Value::array([Value::Int(3)])),
            eq_key(&Value::array([Value::Float(3.0)]))
        );
        // Ordinary values keep their canonical rendering.
        assert_eq!(eq_key(&Value::Int(5)), "5");
        assert_eq!(eq_key(&Value::str("5")), "\"5\"");
        // Hash agrees with equality across the 2^53 boundary, so hash
        // maps keyed on Value (the store's hash index) stay exact.
        let h = |v: &Value| {
            use std::hash::{Hash, Hasher};
            let mut s = std::collections::hash_map::DefaultHasher::new();
            v.hash(&mut s);
            s.finish()
        };
        assert_eq!(
            h(&Value::Int(9_007_199_254_740_993)),
            h(&Value::Float(9_007_199_254_740_992.0))
        );
        let big_int = Value::Int(1 << 60);
        let big_float = Value::Float((1u64 << 60) as f64);
        assert_eq!(big_int, big_float);
        assert_eq!(h(&big_int), h(&big_float));
    }

    #[test]
    fn get_path_traverses_objects_and_arrays() {
        let v = obj(&[
            (
                "author",
                obj(&[("name", Value::str("ada")), ("age", Value::Int(36))]),
            ),
            ("tags", varray!["example", "music"]),
        ]);
        assert_eq!(
            v.get_path(&Path::new("author.name")),
            Some(&Value::str("ada"))
        );
        assert_eq!(v.get_path(&Path::new("tags.1")), Some(&Value::str("music")));
        assert_eq!(v.get_path(&Path::new("tags.7")), None);
        assert_eq!(v.get_path(&Path::new("author.name.x")), None);
    }

    #[test]
    fn doc_macro_builds_documents() {
        let d = doc! { "title" => "post", "likes" => 42, "hot" => true };
        assert_eq!(d["title"], Value::str("post"));
        assert_eq!(d["likes"], Value::Int(42));
        assert_eq!(d["hot"], Value::Bool(true));
    }

    #[test]
    fn json_roundtrip() {
        let v = obj(&[
            ("n", Value::Int(1)),
            ("f", Value::Float(1.5)),
            ("s", Value::str("x")),
            ("a", varray![1, 2]),
        ]);
        use crate::canonical::tests::{from_json, to_json};
        let back = from_json(to_json(v.clone()));
        assert_eq!(v, back);
    }

    #[test]
    fn size_bytes_grows_with_content() {
        let small = Value::str("a");
        let big = Value::str("a".repeat(100));
        assert!(big.size_bytes() > small.size_bytes());
        let nested = obj(&[("x", big.clone())]);
        assert!(nested.size_bytes() > big.size_bytes());
    }

    fn arb_value() -> impl Strategy<Value = Value> {
        let leaf = prop_oneof![
            Just(Value::Null),
            any::<bool>().prop_map(Value::Bool),
            any::<i64>().prop_map(Value::Int),
            (-1e12f64..1e12).prop_map(Value::Float),
            "[a-z]{0,8}".prop_map(Value::str),
        ];
        leaf.prop_recursive(3, 24, 4, |inner| {
            prop_oneof![
                proptest::collection::vec(inner.clone(), 0..4).prop_map(Value::Array),
                proptest::collection::btree_map("[a-z]{1,4}", inner, 0..4)
                    .prop_map(|m| Value::Object(m.into_iter().collect())),
            ]
        })
    }

    proptest! {
        #[test]
        fn ordering_is_total_and_antisymmetric(a in arb_value(), b in arb_value()) {
            let ab = a.cmp(&b);
            let ba = b.cmp(&a);
            prop_assert_eq!(ab, ba.reverse());
        }

        #[test]
        fn ordering_is_transitive(a in arb_value(), b in arb_value(), c in arb_value()) {
            let mut v = [a, b, c];
            v.sort();
            prop_assert!(v[0] <= v[1] && v[1] <= v[2] && v[0] <= v[2]);
        }

        #[test]
        fn equal_values_have_equal_canonical(a in arb_value(), b in arb_value()) {
            if a == b {
                prop_assert_eq!(a.canonical(), b.canonical());
            }
        }

        #[test]
        fn equal_values_hash_equal(a in arb_value(), b in arb_value()) {
            fn h(v: &Value) -> u64 {
                use std::hash::{Hash, Hasher};
                let mut s = std::collections::hash_map::DefaultHasher::new();
                v.hash(&mut s);
                s.finish()
            }
            if a == b {
                prop_assert_eq!(h(&a), h(&b));
            }
        }

        #[test]
        fn canonical_deterministic(a in arb_value()) {
            prop_assert_eq!(a.canonical(), a.clone().canonical());
        }
    }
}
