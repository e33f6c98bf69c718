//! Framework-side extension traits over the variant-kind enums.

use std::fmt::{Debug, Display};
use std::hash::Hash;
use std::str::FromStr;

use cs_collections::kind::ParseKindError;
use cs_collections::{adaptive, Abstraction, ListKind, MapKind, SetKind};
use cs_model::PerformanceModel;

use crate::engine::Models;

/// What the selection machinery needs from a variant-kind enum
/// ([`ListKind`], [`SetKind`], [`MapKind`]): a stable index (for the atomic
/// current-kind cell in each context) and the identity of the adaptive
/// variant (for the paper's eligibility gate, §3.2: adaptive variants are
/// candidates "only if the previously created collection instances had
/// widely ranging sizes").
///
/// # Examples
///
/// ```
/// use cs_collections::ListKind;
/// use cs_core::Kind;
///
/// assert_eq!(ListKind::from_index(ListKind::Array.index()), ListKind::Array);
/// assert_eq!(ListKind::adaptive_kind(), ListKind::Adaptive);
/// ```
pub trait Kind: Copy + Eq + Hash + Display + Send + Sync + 'static {
    /// Which abstraction this kind family belongs to.
    const ABSTRACTION: Abstraction;

    /// All kinds of this abstraction.
    fn all() -> &'static [Self];

    /// Stable index of this kind within [`Kind::all`].
    fn index(self) -> usize {
        Self::all()
            .iter()
            .position(|k| *k == self)
            .expect("kind missing from ALL")
    }

    /// Inverse of [`Kind::index`].
    ///
    /// # Panics
    ///
    /// Panics if `index` is out of range.
    fn from_index(index: usize) -> Self {
        Self::all()[index]
    }

    /// The size-adaptive kind of this abstraction.
    fn adaptive_kind() -> Self;

    /// The adaptive kind's default transition threshold (paper Table 1).
    fn adaptive_threshold() -> usize;
}

/// A kind family the engine holds a model for: [`ListKind`], [`SetKind`]
/// and [`MapKind`]. It names the family's slot in [`Models`] and the
/// family's name in model files and snapshots, so a
/// [`ContextCore`](crate::ContextCore) of the family can run its own
/// analysis pass behind [`AnyContext`](crate::AnyContext).
pub(crate) trait ModelFamily: Kind + Debug + FromStr<Err = ParseKindError> {
    /// `"lists"`, `"sets"` or `"maps"`: the stem of the family's model file
    /// (`lists.model`) and the family of its snapshot model blob.
    const FAMILY: &'static str;

    /// The family's model in `models`.
    fn model(models: &Models) -> &PerformanceModel<Self>;

    /// The family's model slot in `models`, for installing a loaded model.
    fn model_mut(models: &mut Models) -> &mut PerformanceModel<Self>;
}

impl Kind for ListKind {
    const ABSTRACTION: Abstraction = Abstraction::List;

    fn all() -> &'static [Self] {
        &ListKind::ALL
    }

    fn adaptive_kind() -> Self {
        ListKind::Adaptive
    }

    fn adaptive_threshold() -> usize {
        adaptive::LIST_THRESHOLD
    }
}

impl Kind for SetKind {
    const ABSTRACTION: Abstraction = Abstraction::Set;

    fn all() -> &'static [Self] {
        &SetKind::ALL
    }

    fn adaptive_kind() -> Self {
        SetKind::Adaptive
    }

    fn adaptive_threshold() -> usize {
        adaptive::SET_THRESHOLD
    }
}

impl Kind for MapKind {
    const ABSTRACTION: Abstraction = Abstraction::Map;

    fn all() -> &'static [Self] {
        &MapKind::ALL
    }

    fn adaptive_kind() -> Self {
        MapKind::Adaptive
    }

    fn adaptive_threshold() -> usize {
        adaptive::MAP_THRESHOLD
    }
}

macro_rules! model_family {
    ($kind:ty, $family:literal, $field:ident) => {
        impl ModelFamily for $kind {
            const FAMILY: &'static str = $family;

            fn model(models: &Models) -> &PerformanceModel<Self> {
                &models.$field
            }

            fn model_mut(models: &mut Models) -> &mut PerformanceModel<Self> {
                &mut models.$field
            }
        }
    };
}

model_family!(ListKind, "lists", list);
model_family!(SetKind, "sets", set);
model_family!(MapKind, "maps", map);

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn index_round_trips_for_every_kind() {
        for k in ListKind::ALL {
            assert_eq!(ListKind::from_index(k.index()), k);
        }
        for k in SetKind::ALL {
            assert_eq!(SetKind::from_index(k.index()), k);
        }
        for k in MapKind::ALL {
            assert_eq!(MapKind::from_index(k.index()), k);
        }
    }

    #[test]
    fn adaptive_kinds_and_thresholds_match_table_1() {
        assert_eq!(ListKind::adaptive_threshold(), 80);
        assert_eq!(SetKind::adaptive_threshold(), 40);
        assert_eq!(MapKind::adaptive_threshold(), 50);
        assert_eq!(SetKind::adaptive_kind(), SetKind::Adaptive);
    }

    #[test]
    fn abstractions_are_correct() {
        assert_eq!(ListKind::ABSTRACTION, Abstraction::List);
        assert_eq!(SetKind::ABSTRACTION, Abstraction::Set);
        assert_eq!(MapKind::ABSTRACTION, Abstraction::Map);
    }
}
