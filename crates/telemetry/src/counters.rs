//! [`counters!`](crate::counters): one field list declares a counter set
//! and everything that walks its fields.

/// Declares a struct of monotone `u64` counters from one field list, and
/// with it every per-field walk the figures and exporters need, so a new
/// counter is one line that nothing else has to repeat.
///
/// The struct derives `Clone, Copy, Debug, Default, PartialEq, Eq` and
/// gains:
/// - `delta(&self, earlier)`: per-field `self - earlier`;
/// - `merge(&self, other)`: per-field `self + other` (summing per-shard or
///   per-node views);
/// - `to_json(self)`: a [`Json`](crate::Json) object with one key per
///   field, named as the field, in declaration order.
///
/// Attributes and doc comments on the struct and its fields are kept.
///
/// ```
/// telemetry::counters! {
///     /// Two counters.
///     pub struct Hits {
///         /// Served from the cache.
///         pub hits: u64,
///         pub misses: u64,
///     }
/// }
///
/// let earlier = Hits { hits: 1, misses: 2 };
/// let later = Hits { hits: 4, misses: 2 };
/// assert_eq!(later.delta(&earlier), Hits { hits: 3, misses: 0 });
/// assert_eq!(later.merge(&earlier), Hits { hits: 5, misses: 4 });
/// assert_eq!(later.to_json().render(), r#"{"hits":4,"misses":2}"#);
/// ```
#[macro_export]
macro_rules! counters {
    (
        $(#[$meta:meta])*
        $vis:vis struct $name:ident {
            $($(#[$field_meta:meta])* $field_vis:vis $field:ident: u64),* $(,)?
        }
    ) => {
        $(#[$meta])*
        #[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
        $vis struct $name {
            $($(#[$field_meta])* $field_vis $field: u64,)*
        }

        impl $name {
            /// Per-field difference `self - earlier` (counters are monotone).
            pub fn delta(&self, earlier: &Self) -> Self {
                Self { $($field: self.$field - earlier.$field,)* }
            }

            /// Per-field sum `self + other`.
            pub fn merge(&self, other: &Self) -> Self {
                Self { $($field: self.$field + other.$field,)* }
            }

            /// One key per field, in declaration order.
            pub fn to_json(self) -> $crate::Json {
                $crate::Json::obj(vec![$((stringify!($field), self.$field.into()),)*])
            }
        }
    };
}

#[cfg(test)]
mod tests {
    crate::counters! {
        /// Every field distinct, so a dropped or swapped field shows.
        struct Probe {
            first: u64,
            /// A documented field.
            second: u64,
            third: u64,
        }
    }

    const LATER: Probe = Probe {
        first: 100,
        second: 200,
        third: 300,
    };
    const EARLIER: Probe = Probe {
        first: 1,
        second: 20,
        third: 3,
    };

    #[test]
    fn every_field_is_walked_in_declaration_order() {
        let d = Probe {
            first: 99,
            second: 180,
            third: 297,
        };
        assert_eq!(LATER.delta(&EARLIER), d);
        let m = Probe {
            first: 101,
            second: 220,
            third: 303,
        };
        assert_eq!(LATER.merge(&EARLIER), m);
        assert_eq!(
            LATER.to_json().render(),
            r#"{"first":100,"second":200,"third":300}"#
        );
        assert_eq!(Probe::default().merge(&LATER), LATER);
    }
}
