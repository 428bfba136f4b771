//! Partial update operators.
//!
//! The paper's workloads include "partial updates" (§6.1) and the InvaliDB
//! example walks a blog post through `+'example'`, `+'music'`,
//! `-'example'` tag mutations (Figure 5). These are exactly `$push` /
//! `$pull` on an array field; this module implements the MongoDB-style
//! operator set the store applies to produce after-images.

use std::collections::BTreeMap;

use quaestor_common::{Error, Result};
use serde::{Deserialize, Serialize};

use crate::document::Document;
use crate::path::Path;
use crate::string::Str;
use crate::value::Value;

/// A single update operator applied to one field path.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum UpdateOp {
    /// `$set`: write `value` at the path, creating intermediate objects.
    Set(Path, Value),
    /// `$unset`: remove the field at the path.
    Unset(Path),
    /// `$inc`: numeric increment (creates the field as `delta` if absent).
    Inc(Path, f64),
    /// `$push`: append to an array (creates a one-element array if absent).
    Push(Path, Value),
    /// `$pull`: remove all array elements equal to `value`.
    Pull(Path, Value),
    /// `$rename`: move the value from one top-level-or-nested path to another.
    Rename(Path, Path),
}

/// A batch of update operators applied atomically to one document.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct Update {
    ops: Vec<UpdateOp>,
}

impl Update {
    /// An empty update (applying it is a no-op touch that still bumps the
    /// version — useful for cache-invalidation tests).
    pub fn new() -> Update {
        Update::default()
    }

    /// Add a `$set`.
    pub fn set(mut self, path: impl Into<Path>, value: impl Into<Value>) -> Self {
        self.ops.push(UpdateOp::Set(path.into(), value.into()));
        self
    }

    /// Add a `$unset`.
    pub fn unset(mut self, path: impl Into<Path>) -> Self {
        self.ops.push(UpdateOp::Unset(path.into()));
        self
    }

    /// Add an `$inc`.
    pub fn inc(mut self, path: impl Into<Path>, delta: f64) -> Self {
        self.ops.push(UpdateOp::Inc(path.into(), delta));
        self
    }

    /// Add a `$push`.
    pub fn push(mut self, path: impl Into<Path>, value: impl Into<Value>) -> Self {
        self.ops.push(UpdateOp::Push(path.into(), value.into()));
        self
    }

    /// Add a `$pull`.
    pub fn pull(mut self, path: impl Into<Path>, value: impl Into<Value>) -> Self {
        self.ops.push(UpdateOp::Pull(path.into(), value.into()));
        self
    }

    /// Add a `$rename`.
    pub fn rename(mut self, from: impl Into<Path>, to: impl Into<Path>) -> Self {
        self.ops.push(UpdateOp::Rename(from.into(), to.into()));
        self
    }

    /// The operator list.
    pub fn ops(&self) -> &[UpdateOp] {
        &self.ops
    }

    /// True if there are no operators.
    pub fn is_empty(&self) -> bool {
        self.ops.is_empty()
    }

    /// Apply all operators to `doc` in order, mutating it into the
    /// after-image. Fails atomically: on error the document may be
    /// partially modified, so the store applies updates to a clone.
    pub fn apply(&self, doc: &mut Document) -> Result<()> {
        let mut root = Object::Fields(std::mem::take(doc), false);
        let applied = self.ops.iter().try_for_each(|op| apply_op(&mut root, op));
        *doc = root.into_document();
        applied
    }
}

/// An object while an update runs. It stays its field vector while the
/// operators only replace values at its keys, and the first key they add
/// or remove shifts the vector in place, which costs about what cloning
/// the document does. The next key added or removed, or an operator that
/// enters an object inside it, turns it into a map for the rest of the
/// update: on the vector, every such key shifts the fields after it, so
/// an update of many keys in descending order would take quadratic time;
/// on the map each costs O(log n), and each object converts at most once.
#[derive(Clone)]
enum Object {
    /// The fields, and whether an operator has added or removed a key.
    Fields(Document, bool),
    Map(BTreeMap<Str, Slot>),
}

/// A field of an [`Object::Map`].
#[derive(Clone)]
enum Slot {
    Value(Value),
    Object(Object),
}

/// What an operator finds at the end of its path: a value, or an object
/// an earlier operator entered.
type Target<'a> = std::result::Result<&'a mut Value, &'a Object>;

impl Object {
    /// The fields as a map, converting the vector on first use.
    fn map(&mut self) -> &mut BTreeMap<Str, Slot> {
        if let Object::Fields(doc, _) = self {
            let fields = std::mem::take(doc).into_iter();
            *self = Object::Map(fields.map(|(k, v)| (k, Slot::Value(v))).collect());
        }
        match self {
            Object::Map(map) => map,
            Object::Fields(..) => unreachable!("converted above"),
        }
    }

    /// The object at `key`, entered for the operators to come. With
    /// `create`, a missing key or a non-object gets a new empty object,
    /// like MongoDB's `$set` with dotted paths does for upserted
    /// structure.
    fn child(&mut self, key: &str, create: bool) -> Option<&mut Object> {
        let map = self.map();
        let slot = if create {
            map.entry(Str::new(key))
                .or_insert_with(|| Slot::Object(Object::Map(BTreeMap::new())))
        } else {
            map.get_mut(key)?
        };
        if let Slot::Value(Value::Object(doc)) = slot {
            *slot = Slot::Object(Object::Fields(std::mem::take(doc), false));
        }
        if create && !matches!(slot, Slot::Object(_)) {
            *slot = Slot::Object(Object::Map(BTreeMap::new()));
        }
        match slot {
            Slot::Object(object) => Some(object),
            Slot::Value(_) => None,
        }
    }

    fn get_mut(&mut self, key: &str) -> Option<Target<'_>> {
        match self {
            Object::Fields(doc, _) => doc.get_mut(key).map(Ok),
            Object::Map(map) => map.get_mut(key).map(|slot| match slot {
                Slot::Value(v) => Ok(v),
                Slot::Object(object) => Err(&*object),
            }),
        }
    }

    /// Set `key` to `value` where no value is there to replace in place:
    /// the key is missing, or holds an object an operator entered.
    fn add(&mut self, key: &str, value: Value) {
        match self {
            Object::Fields(doc, shifted @ false) => {
                *shifted = true;
                doc.insert(key, value);
            }
            _ => {
                self.map().insert(Str::new(key), Slot::Value(value));
            }
        }
    }

    /// The value at `key`, inserting `default()` first if there is none.
    fn get_or_insert(&mut self, key: &str, default: impl FnOnce() -> Value) -> Target<'_> {
        if self.get_mut(key).is_none() {
            self.add(key, default());
        }
        self.get_mut(key).expect("the key is present")
    }

    fn insert(&mut self, key: &str, slot: Slot) {
        match slot {
            Slot::Value(v) => match self.get_mut(key) {
                Some(Ok(cur)) => *cur = v,
                _ => self.add(key, v),
            },
            slot => {
                self.map().insert(Str::new(key), slot);
            }
        }
    }

    fn remove(&mut self, key: &str) -> Option<Slot> {
        match self {
            Object::Fields(doc, _) if !doc.contains_key(key) => None,
            Object::Fields(doc, shifted @ false) => {
                *shifted = true;
                doc.remove(key).map(Slot::Value)
            }
            _ => self.map().remove(key),
        }
    }

    fn into_document(self) -> Document {
        match self {
            Object::Fields(doc, _) => doc,
            Object::Map(map) => map
                .into_iter()
                .map(|(k, slot)| (k, slot.into_value()))
                .collect(),
        }
    }
}

impl Slot {
    fn into_value(self) -> Value {
        match self {
            Slot::Value(v) => v,
            Slot::Object(object) => Value::Object(object.into_document()),
        }
    }
}

/// Run `f` on the value an operator targets. An object an earlier
/// operator entered is neither a number nor an array, so `$inc` and
/// `$push` get a copy of it, which they only read to report the error.
fn with_value<R>(target: Target<'_>, f: impl FnOnce(&mut Value) -> R) -> R {
    match target {
        Ok(v) => f(v),
        Err(object) => f(&mut Value::Object(object.clone().into_document())),
    }
}

fn apply_op(root: &mut Object, op: &UpdateOp) -> Result<()> {
    match op {
        UpdateOp::Set(path, value) => {
            set_path(root, path, Slot::Value(value.clone()));
            Ok(())
        }
        UpdateOp::Unset(path) => {
            take_path(root, path);
            Ok(())
        }
        UpdateOp::Inc(path, delta) => with_value(
            get_mut_or_insert(root, path, || Value::Int(0)),
            |cur| match cur {
                Value::Int(i) => {
                    if delta.fract() == 0.0 {
                        *i += *delta as i64;
                    } else {
                        *cur = Value::Float(*i as f64 + delta);
                    }
                    Ok(())
                }
                Value::Float(f) => {
                    *f += delta;
                    Ok(())
                }
                other => Err(Error::BadRequest(format!(
                    "$inc on non-numeric field '{path}' ({})",
                    other.canonical()
                ))),
            },
        ),
        UpdateOp::Push(path, value) => {
            let target = get_mut_or_insert(root, path, || Value::Array(Vec::new()));
            with_value(target, |cur| match cur {
                Value::Array(items) => {
                    items.push(value.clone());
                    Ok(())
                }
                other => Err(Error::BadRequest(format!(
                    "$push on non-array field '{path}' ({})",
                    other.canonical()
                ))),
            })
        }
        UpdateOp::Pull(path, value) => {
            if let Some(Ok(Value::Array(items))) = get_path_mut(root, path) {
                items.retain(|v| v != value);
            }
            // $pull on a missing/non-array field is a silent no-op, like
            // MongoDB.
            Ok(())
        }
        UpdateOp::Rename(from, to) => {
            if let Some(v) = take_path(root, from) {
                set_path(root, to, v);
            }
            Ok(())
        }
    }
}

/// The object that holds the last segment of `path`, and that segment.
/// With `create`, intermediate objects are made where they are missing.
fn parent<'a, 'p>(
    root: &'a mut Object,
    path: &'p Path,
    create: bool,
) -> Option<(&'a mut Object, &'p str)> {
    let segs: Vec<&str> = path.segments().collect();
    let (last, init) = segs.split_last()?;
    let mut cur = root;
    for seg in init {
        cur = cur.child(seg, create)?;
    }
    Some((cur, *last))
}

fn set_path(root: &mut Object, path: &Path, value: Slot) {
    if let Some((parent, key)) = parent(root, path, true) {
        parent.insert(key, value);
    }
}

fn take_path(root: &mut Object, path: &Path) -> Option<Slot> {
    let (parent, key) = parent(root, path, false)?;
    parent.remove(key)
}

fn get_path_mut<'a>(root: &'a mut Object, path: &Path) -> Option<Target<'a>> {
    let (parent, key) = parent(root, path, false)?;
    parent.get_mut(key)
}

fn get_mut_or_insert<'a>(
    root: &'a mut Object,
    path: &Path,
    default: impl FnOnce() -> Value,
) -> Target<'a> {
    let (parent, key) = parent(root, path, true).expect("path has at least one segment");
    parent.get_or_insert(key, default)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{doc, varray};
    use proptest::prelude::*;

    #[test]
    fn set_creates_nested_structure() {
        let mut d = doc! { "title" => "post" };
        Update::new()
            .set("author.name", "ada")
            .apply(&mut d)
            .unwrap();
        let v = Value::Object(d.clone());
        assert_eq!(
            v.get_path(&Path::new("author.name")),
            Some(&Value::str("ada"))
        );
    }

    #[test]
    fn unset_removes_field() {
        let mut d = doc! { "a" => 1, "b" => 2 };
        Update::new().unset("a").apply(&mut d).unwrap();
        assert!(!d.contains_key("a"));
        assert!(d.contains_key("b"));
    }

    #[test]
    fn inc_int_and_float() {
        let mut d = doc! { "likes" => 10 };
        Update::new().inc("likes", 5.0).apply(&mut d).unwrap();
        assert_eq!(d["likes"], Value::Int(15));
        Update::new().inc("likes", 0.5).apply(&mut d).unwrap();
        assert_eq!(d["likes"], Value::Float(15.5));
        Update::new().inc("views", 1.0).apply(&mut d).unwrap();
        assert_eq!(d["views"], Value::Int(1));
    }

    #[test]
    fn inc_on_string_fails() {
        let mut d = doc! { "title" => "post" };
        let err = Update::new().inc("title", 1.0).apply(&mut d).unwrap_err();
        assert_eq!(err.status_code(), 400);
    }

    #[test]
    fn push_and_pull_mirror_figure5() {
        // Figure 5: tags {} -> +example -> +music -> -example
        let mut d = doc! { "title" => "post" };
        Update::new().push("tags", "example").apply(&mut d).unwrap();
        assert_eq!(d["tags"], varray!["example"]);
        Update::new().push("tags", "music").apply(&mut d).unwrap();
        assert_eq!(d["tags"], varray!["example", "music"]);
        Update::new().pull("tags", "example").apply(&mut d).unwrap();
        assert_eq!(d["tags"], varray!["music"]);
    }

    #[test]
    fn pull_missing_field_is_noop() {
        let mut d = doc! { "a" => 1 };
        Update::new().pull("tags", "x").apply(&mut d).unwrap();
        assert_eq!(d, doc! { "a" => 1 });
    }

    #[test]
    fn push_on_scalar_fails() {
        let mut d = doc! { "tags" => "not-an-array" };
        let err = Update::new().push("tags", "x").apply(&mut d).unwrap_err();
        assert_eq!(err.status_code(), 400);
    }

    #[test]
    fn rename_moves_value() {
        let mut d = doc! { "old" => 7 };
        Update::new().rename("old", "new").apply(&mut d).unwrap();
        assert!(!d.contains_key("old"));
        assert_eq!(d["new"], Value::Int(7));
    }

    #[test]
    fn rename_missing_is_noop() {
        let mut d = doc! { "a" => 1 };
        Update::new().rename("x", "y").apply(&mut d).unwrap();
        assert_eq!(d, doc! { "a" => 1 });
    }

    /// Many `$set`s of new keys in descending order, each of which would
    /// go to the front of the field vector, at the top level and in a
    /// nested object.
    #[test]
    fn many_new_keys_in_descending_order_end_in_key_order() {
        let n = 100_000;
        let key = |i: usize| format!("k{i:06}");
        let mut update = Update::new();
        for i in (0..n).rev() {
            update = update.set(key(i).as_str(), i as i64);
            update = update.set(format!("nested.{}", key(i)).as_str(), i as i64);
        }
        let mut d = doc! { "nested" => Value::Object(Document::new()) };
        update.apply(&mut d).unwrap();
        assert_eq!(d.len(), n + 1);
        let nested = d["nested"].as_object().unwrap();
        for fields in [&d, nested] {
            let ks: Vec<&str> = fields
                .keys()
                .map(|k| k.as_str())
                .filter(|k| *k != "nested")
                .collect();
            assert_eq!(ks.len(), n);
            assert!(ks.iter().enumerate().all(|(i, k)| *k == key(i)));
        }
    }

    /// The reference for `Update::apply`: each operator in turn, straight
    /// on the [`Document`], with no map.
    mod oracle {
        use super::*;

        pub fn apply(update: &Update, doc: &mut Document) -> Result<()> {
            update.ops().iter().try_for_each(|op| apply_op(doc, op))
        }

        fn apply_op(doc: &mut Document, op: &UpdateOp) -> Result<()> {
            match op {
                UpdateOp::Set(path, value) => {
                    set_path(doc, path, value.clone());
                    Ok(())
                }
                UpdateOp::Unset(path) => {
                    take_path(doc, path);
                    Ok(())
                }
                UpdateOp::Inc(path, delta) => {
                    let cur = get_mut_or_insert(doc, path, || Value::Int(0));
                    match cur {
                        Value::Int(i) => {
                            if delta.fract() == 0.0 {
                                *i += *delta as i64;
                            } else {
                                *cur = Value::Float(*i as f64 + delta);
                            }
                            Ok(())
                        }
                        Value::Float(f) => {
                            *f += delta;
                            Ok(())
                        }
                        other => Err(Error::BadRequest(format!(
                            "$inc on non-numeric field '{path}' ({})",
                            other.canonical()
                        ))),
                    }
                }
                UpdateOp::Push(path, value) => {
                    match get_mut_or_insert(doc, path, || Value::Array(Vec::new())) {
                        Value::Array(items) => {
                            items.push(value.clone());
                            Ok(())
                        }
                        other => Err(Error::BadRequest(format!(
                            "$push on non-array field '{path}' ({})",
                            other.canonical()
                        ))),
                    }
                }
                UpdateOp::Pull(path, value) => {
                    if let Some(Value::Array(items)) = get_path_mut(doc, path) {
                        items.retain(|v| v != value);
                    }
                    Ok(())
                }
                UpdateOp::Rename(from, to) => {
                    if let Some(v) = take_path(doc, from) {
                        set_path(doc, to, v);
                    }
                    Ok(())
                }
            }
        }

        fn parent_object<'a, 'p>(
            doc: &'a mut Document,
            path: &'p Path,
        ) -> Option<(&'a mut Document, &'p str)> {
            let segs: Vec<&str> = path.segments().collect();
            let (last, init) = segs.split_last()?;
            let mut cur: &mut Document = doc;
            for seg in init {
                let entry = cur
                    .entry(*seg)
                    .or_insert_with(|| Value::Object(Document::new()));
                match entry {
                    Value::Object(map) => cur = map,
                    other => {
                        *other = Value::Object(Document::new());
                        match other {
                            Value::Object(map) => cur = map,
                            _ => unreachable!(),
                        }
                    }
                }
            }
            Some((cur, *last))
        }

        fn set_path(doc: &mut Document, path: &Path, value: Value) {
            if let Some((parent, key)) = parent_object(doc, path) {
                parent.insert(key, value);
            }
        }

        fn take_path(doc: &mut Document, path: &Path) -> Option<Value> {
            let segs: Vec<&str> = path.segments().collect();
            let (last, init) = segs.split_last()?;
            let mut cur: &mut Document = doc;
            for seg in init {
                match cur.get_mut(seg) {
                    Some(Value::Object(map)) => cur = map,
                    _ => return None,
                }
            }
            cur.remove(last)
        }

        fn get_path_mut<'a>(doc: &'a mut Document, path: &Path) -> Option<&'a mut Value> {
            let segs: Vec<&str> = path.segments().collect();
            let (last, init) = segs.split_last()?;
            let mut cur: &mut Document = doc;
            for seg in init {
                match cur.get_mut(seg) {
                    Some(Value::Object(map)) => cur = map,
                    _ => return None,
                }
            }
            cur.get_mut(last)
        }

        fn get_mut_or_insert<'a>(
            doc: &'a mut Document,
            path: &Path,
            default: impl FnOnce() -> Value,
        ) -> &'a mut Value {
            let (parent, key) = parent_object(doc, path).expect("path has at least one segment");
            parent.entry(key).or_insert_with(default)
        }
    }

    /// Paths of one to three segments over a small alphabet, so operators
    /// meet each other's fields, objects and non-objects in their way.
    fn arb_path() -> impl Strategy<Value = String> {
        proptest::collection::vec(prop_oneof!["a", "b", "c"], 1..=3).prop_map(|s| s.join("."))
    }

    fn arb_value() -> impl Strategy<Value = Value> {
        let leaf = prop_oneof![
            (-3i64..3).prop_map(Value::Int),
            Just(Value::Float(0.5)),
            Just(Value::str("s")),
        ];
        leaf.prop_recursive(2, 8, 3, |inner| {
            prop_oneof![
                proptest::collection::vec(inner.clone(), 0..3).prop_map(Value::Array),
                proptest::collection::vec((prop_oneof!["a", "b", "c"], inner), 0..3)
                    .prop_map(|fields| Value::Object(fields.into_iter().collect())),
            ]
        })
    }

    fn arb_op() -> impl Strategy<Value = UpdateOp> {
        prop_oneof![
            (arb_path(), arb_value()).prop_map(|(p, v)| UpdateOp::Set(p.into(), v)),
            arb_path().prop_map(|p| UpdateOp::Unset(p.into())),
            (arb_path(), prop_oneof![Just(1.0), Just(0.5), Just(-2.0)])
                .prop_map(|(p, d)| UpdateOp::Inc(p.into(), d)),
            (arb_path(), arb_value()).prop_map(|(p, v)| UpdateOp::Push(p.into(), v)),
            (arb_path(), arb_value()).prop_map(|(p, v)| UpdateOp::Pull(p.into(), v)),
            (arb_path(), arb_path()).prop_map(|(a, b)| UpdateOp::Rename(a.into(), b.into())),
        ]
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(1024))]

        #[test]
        fn operators_match_operators_applied_straight_to_the_field_vector(
            start in arb_value(),
            ops in proptest::collection::vec(arb_op(), 0..12),
        ) {
            let start = match start {
                Value::Object(doc) => doc,
                other => doc! { "a" => other },
            };
            let update = Update { ops };
            let (mut got, mut want) = (start.clone(), start);
            prop_assert_eq!(update.apply(&mut got), oracle::apply(&update, &mut want));
            prop_assert_eq!(got, want);
        }
    }

    #[test]
    fn multi_op_update_applies_in_order() {
        let mut d = doc! { "n" => 0 };
        Update::new()
            .inc("n", 1.0)
            .set("m", 10)
            .inc("m", 5.0)
            .apply(&mut d)
            .unwrap();
        assert_eq!(d["n"], Value::Int(1));
        assert_eq!(d["m"], Value::Int(15));
    }
}
