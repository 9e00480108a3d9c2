//! Typed label sets for metric series.
//!
//! Labels are an enum of the entity shapes the simulation actually measures,
//! not free-form string maps: keying series by `(static name, Labels)`
//! gives every series set a total order for deterministic export.

use std::fmt;

use openoptics_proto::NodeId;

/// The label set of one metric series.
///
/// Ordering is derived, so series with the same name sort by label value
/// in snapshots.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Labels {
    /// A network-wide series.
    None,
    /// Per endpoint node (ToR or NIC).
    Node(NodeId),
}

impl fmt::Display for Labels {
    /// Rendered in the conventional `{k=v,…}` suffix form; [`Labels::None`]
    /// renders as the empty string so unlabeled series keep bare names.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Labels::None => Ok(()),
            Labels::Node(n) => write!(f, "{{node={n}}}"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn render_forms() {
        assert_eq!(Labels::None.to_string(), "");
        assert_eq!(Labels::Node(NodeId(3)).to_string(), "{node=N3}");
    }

    #[test]
    fn ordering_sorts_by_value() {
        assert!(Labels::Node(NodeId(2)) < Labels::Node(NodeId(10)));
        assert!(Labels::None < Labels::Node(NodeId(0)));
    }
}
