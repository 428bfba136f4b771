//! [`Str`]: the string type of document keys and string values.

use std::borrow::Borrow;
use std::cmp::Ordering;
use std::fmt;
use std::hash::{Hash, Hasher};
use std::ops::Deref;

/// The longest string a [`Str`] keeps inline, in bytes.
pub const INLINE_CAP: usize = 22;

/// An immutable UTF-8 string the size of a `String` (24 bytes). Up to
/// [`INLINE_CAP`] bytes live inline; a longer string is one boxed `str`.
/// Field names and most string values in a document are short, so they
/// cost no allocation of their own.
///
/// It dereferences to `str` and orders, compares and hashes like one.
#[derive(Clone)]
pub struct Str(Repr);

#[derive(Clone)]
enum Repr {
    /// `buf[..len]` holds the string. Only [`Str::new`] builds this
    /// variant, from a whole `&str` of at most `INLINE_CAP` bytes, so the
    /// bytes are always UTF-8.
    Inline {
        len: u8,
        buf: [u8; INLINE_CAP],
    },
    Heap(Box<str>),
}

impl Str {
    /// A copy of `s`: inline when it fits, else one allocation.
    pub fn new(s: &str) -> Str {
        if s.len() <= INLINE_CAP {
            let mut buf = [0; INLINE_CAP];
            buf[..s.len()].copy_from_slice(s.as_bytes());
            Str(Repr::Inline {
                len: s.len() as u8,
                buf,
            })
        } else {
            Str(Repr::Heap(s.into()))
        }
    }

    /// The string.
    pub fn as_str(&self) -> &str {
        match &self.0 {
            Repr::Inline { len, buf } => {
                // SAFETY: an `Inline` is only built by `Str::new`, which
                // copies a whole `&str` into `buf[..len]`, and a `Str` is
                // immutable, so these bytes are UTF-8.
                unsafe { std::str::from_utf8_unchecked(&buf[..usize::from(*len)]) }
            }
            Repr::Heap(s) => s,
        }
    }

    #[cfg(test)]
    fn is_inline(&self) -> bool {
        matches!(self.0, Repr::Inline { .. })
    }
}

impl Deref for Str {
    type Target = str;

    fn deref(&self) -> &str {
        self.as_str()
    }
}

impl Borrow<str> for Str {
    fn borrow(&self) -> &str {
        self.as_str()
    }
}

impl PartialEq for Str {
    fn eq(&self, other: &Str) -> bool {
        self.as_str() == other.as_str()
    }
}

impl Eq for Str {}

impl PartialOrd for Str {
    fn partial_cmp(&self, other: &Str) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Str {
    fn cmp(&self, other: &Str) -> Ordering {
        self.as_str().cmp(other.as_str())
    }
}

impl Hash for Str {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.as_str().hash(state)
    }
}

impl PartialEq<str> for Str {
    fn eq(&self, other: &str) -> bool {
        self.as_str() == other
    }
}

impl PartialEq<String> for Str {
    fn eq(&self, other: &String) -> bool {
        self.as_str() == other
    }
}

impl fmt::Debug for Str {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(self.as_str(), f)
    }
}

impl fmt::Display for Str {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

impl From<&str> for Str {
    fn from(s: &str) -> Str {
        Str::new(s)
    }
}

impl From<&String> for Str {
    fn from(s: &String) -> Str {
        Str::new(s)
    }
}

impl From<String> for Str {
    fn from(s: String) -> Str {
        if s.len() <= INLINE_CAP {
            Str::new(&s)
        } else {
            Str(Repr::Heap(s.into_boxed_str()))
        }
    }
}

impl From<Str> for String {
    fn from(s: Str) -> String {
        match s.0 {
            Repr::Heap(b) => b.into_string(),
            Repr::Inline { .. } => s.as_str().to_owned(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn str_is_the_size_of_a_string() {
        assert_eq!(std::mem::size_of::<Str>(), std::mem::size_of::<String>());
    }

    #[test]
    fn strings_round_trip_at_the_inline_limit() {
        for len in [0, 1, INLINE_CAP, INLINE_CAP + 1, 100] {
            let s = "x".repeat(len);
            for str in [Str::new(&s), Str::from(s.clone())] {
                assert_eq!(str.as_str(), s);
                assert_eq!(str.len(), len);
                assert_eq!(str.is_inline(), len <= INLINE_CAP, "{len} bytes");
                assert_eq!(String::from(str.clone()), s);
                assert_eq!(str.clone(), str);
            }
        }
    }

    #[test]
    fn a_multi_byte_character_across_the_inline_limit_goes_to_the_heap() {
        // 21 ASCII bytes and a two-byte 'é': 23 bytes, the 'é' straddles
        // the limit.
        let s = format!("{}é", "a".repeat(INLINE_CAP - 1));
        assert_eq!(s.len(), INLINE_CAP + 1);
        let str = Str::new(&s);
        assert!(!str.is_inline());
        assert_eq!(str.as_str(), s);
        // 20 ASCII bytes and 'é' end exactly at the limit.
        let s = format!("{}é", "a".repeat(INLINE_CAP - 2));
        let str = Str::from(s.clone());
        assert!(str.is_inline());
        assert_eq!(str.as_str(), s);
        assert_eq!(str.chars().last(), Some('é'));
    }

    #[test]
    fn orders_and_hashes_like_str() {
        use std::collections::hash_map::DefaultHasher;
        let h = |v: &dyn Fn(&mut DefaultHasher)| {
            let mut s = DefaultHasher::new();
            v(&mut s);
            s.finish()
        };
        let long = "b".repeat(40);
        let words = ["", "a", "ab", "b", long.as_str(), "é"];
        for a in words {
            for b in words {
                assert_eq!(Str::new(a).cmp(&Str::new(b)), a.cmp(b));
            }
            assert_eq!(h(&|s| Str::new(a).hash(s)), h(&|s| a.hash(s)));
            assert_eq!(format!("{:?}", Str::new(a)), format!("{a:?}"));
        }
    }
}
