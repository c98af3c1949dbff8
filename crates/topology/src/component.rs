//! Infrastructure component descriptions.
//!
//! The paper's fault model (§2.1) considers three classes of components:
//! hardware (servers, switches, power supplies, cooling systems), software
//! (OS, libraries, firmware deployed on hardware), and network (connectivity
//! between hardware). Every one of them is representable here; every one is
//! in exactly one of two states per sampling round — alive or failed —
//! with partially-failed treated as failed.

use crate::id::ComponentId;
use std::fmt;

/// The role a component plays in the infrastructure.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum ComponentKind {
    /// A physical server that can run application instances.
    Host,
    /// Top-of-rack / edge-tier switch (hosts hang off these).
    EdgeSwitch,
    /// Aggregation-tier switch inside a pod.
    AggSwitch,
    /// Core-tier switch.
    CoreSwitch,
    /// Switch peering with external entities (the dedicated border pod in
    /// the paper's Google-style external connectivity, §3.1).
    BorderSwitch,
    /// A generic switch for builder-made topologies that do not fit the
    /// edge/agg/core taxonomy (e.g. Jellyfish).
    Switch,
    /// The external world. Exactly one per topology; always alive.
    External,
    /// A power supply feeding switches and host groups (§4.1 adds five of
    /// these per data center as the representative shared dependency).
    PowerSupply,
    /// A cooling unit (rack- or room-level).
    CoolingUnit,
    /// A software component deployed on hardware.
    Software(SoftwareKind),
    /// A network link between two network components. Optional: generators
    /// only create link components when asked, since the paper's evaluation
    /// fails hosts/switches/power, not cables.
    Link,
}

/// Sub-classification of software components: the shared OS images and
/// library that `FaultModel::attach_shared_software` (recloud-faults)
/// attaches to hosts.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum SoftwareKind {
    /// An operating system image.
    Os,
    /// A shared library / package (what `apt-rdepends` would surface).
    Library,
    /// Device firmware (what `lshw` would surface).
    Firmware,
    /// Anything else.
    Other,
}

impl ComponentKind {
    /// True for components that participate in the routing graph
    /// (hosts, switches and the external node). Dependency-only components
    /// (power, cooling, software) never carry traffic.
    pub fn is_network_node(self) -> bool {
        matches!(
            self,
            ComponentKind::Host
                | ComponentKind::EdgeSwitch
                | ComponentKind::AggSwitch
                | ComponentKind::CoreSwitch
                | ComponentKind::BorderSwitch
                | ComponentKind::Switch
                | ComponentKind::External
        )
    }

    /// True for any kind of switch.
    pub fn is_switch(self) -> bool {
        matches!(
            self,
            ComponentKind::EdgeSwitch
                | ComponentKind::AggSwitch
                | ComponentKind::CoreSwitch
                | ComponentKind::BorderSwitch
                | ComponentKind::Switch
        )
    }

    /// Short human-readable tag used in component names and debug output.
    pub fn tag(self) -> &'static str {
        match self {
            ComponentKind::Host => "host",
            ComponentKind::EdgeSwitch => "edge",
            ComponentKind::AggSwitch => "agg",
            ComponentKind::CoreSwitch => "core",
            ComponentKind::BorderSwitch => "border",
            ComponentKind::Switch => "switch",
            ComponentKind::External => "external",
            ComponentKind::PowerSupply => "power",
            ComponentKind::CoolingUnit => "cooling",
            ComponentKind::Software(SoftwareKind::Os) => "os",
            ComponentKind::Software(SoftwareKind::Library) => "lib",
            ComponentKind::Software(SoftwareKind::Firmware) => "firmware",
            ComponentKind::Software(SoftwareKind::Other) => "software",
            ComponentKind::Link => "link",
        }
    }
}

impl fmt::Display for ComponentKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.tag())
    }
}

/// One infrastructure component in the arena.
#[derive(Clone, Debug, PartialEq)]
pub struct Component {
    /// The component's dense id (equal to its arena position).
    pub id: ComponentId,
    /// What the component is.
    pub kind: ComponentKind,
    /// Index of this component among components of the same kind, in
    /// creation order. E.g. `host 17` or `agg 3`. Together with `kind`
    /// this names the component uniquely.
    pub ordinal: u32,
}

impl Component {
    /// Canonical name, e.g. `host17` or `border3`.
    pub fn name(&self) -> String {
        format!("{}{}", self.kind.tag(), self.ordinal)
    }
}

impl fmt::Display for Component {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}{}", self.kind.tag(), self.ordinal)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn network_node_classification() {
        assert!(ComponentKind::Host.is_network_node());
        assert!(ComponentKind::BorderSwitch.is_network_node());
        assert!(ComponentKind::External.is_network_node());
        assert!(!ComponentKind::PowerSupply.is_network_node());
        assert!(!ComponentKind::Software(SoftwareKind::Os).is_network_node());
        assert!(!ComponentKind::Link.is_network_node());
    }

    #[test]
    fn switch_classification() {
        assert!(ComponentKind::EdgeSwitch.is_switch());
        assert!(ComponentKind::AggSwitch.is_switch());
        assert!(ComponentKind::CoreSwitch.is_switch());
        assert!(ComponentKind::BorderSwitch.is_switch());
        assert!(ComponentKind::Switch.is_switch());
        assert!(!ComponentKind::Host.is_switch());
        assert!(!ComponentKind::External.is_switch());
    }

    #[test]
    fn component_names() {
        let c = Component { id: ComponentId(3), kind: ComponentKind::EdgeSwitch, ordinal: 7 };
        assert_eq!(c.name(), "edge7");
        assert_eq!(c.to_string(), "edge7");
    }

    #[test]
    fn kind_tags_are_distinct_for_taxonomy() {
        let kinds = [
            ComponentKind::Host,
            ComponentKind::EdgeSwitch,
            ComponentKind::AggSwitch,
            ComponentKind::CoreSwitch,
            ComponentKind::BorderSwitch,
            ComponentKind::Switch,
            ComponentKind::External,
            ComponentKind::PowerSupply,
            ComponentKind::CoolingUnit,
            ComponentKind::Link,
        ];
        let mut tags: Vec<_> = kinds.iter().map(|k| k.tag()).collect();
        tags.sort();
        tags.dedup();
        assert_eq!(tags.len(), kinds.len());
    }
}
