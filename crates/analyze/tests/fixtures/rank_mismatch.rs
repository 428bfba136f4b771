//! A runtime rank table that disagrees with the fixture config.

pub type LockRank = (&'static str, u32);

pub const SHARD: LockRank = ("store.shard", 20);
pub const INDEX: LockRank = ("store.index", 35); // line 6: wrong rank
pub const EXTRA: LockRank = ("store.extra", 50); // line 7: undeclared
