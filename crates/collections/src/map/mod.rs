//! Map variants: [`ChainedHashMap`], [`OpenHashMap`], [`LinkedHashMap`],
//! [`ArrayMap`], [`CompactHashMap`].
//!
//! The sixth map variant of the paper, `AdaptiveMap`, lives in
//! [`crate::adaptive`].

mod array;
mod chained;
mod compact;
mod linked;
mod open;
mod sharded;

pub use array::ArrayMap;
pub use chained::ChainedHashMap;
pub use compact::CompactHashMap;
pub use linked::LinkedHashMap;
pub use open::OpenHashMap;
pub use sharded::ShardedHashMap;
