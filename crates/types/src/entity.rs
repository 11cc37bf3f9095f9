//! Network entities: datacenters, devices (switches/routers), links, paths.
//!
//! Statesman's storage keys every state variable by the *entity* it belongs
//! to (paper §6.4: "A NetworkState object consists of the entity name (i.e.,
//! the switch, link, or path name) ..."). Entities also carry the
//! datacenter they live in, because the storage service is partitioned with
//! one Paxos ring per datacenter (§6.1) and the proxy layer routes requests
//! by entity name.
//!
//! Naming conventions used by the topology builders (mirroring the paper's
//! Fig 7 / Fig 9 layouts):
//!
//! * devices: `tor-<pod>-<idx>`, `agg-<pod>-<idx>`, `core-<idx>`, `br-<idx>`
//! * links:   `<deviceA>~<deviceB>` with endpoint names ordered
//!   lexicographically so the link name is canonical.
//! * paths:   free-form, e.g. `te:dc1>dc3:via-br3`.

use serde::{Deserialize, Serialize};
use std::fmt;
use std::sync::Arc;

/// Identifier of a datacenter (e.g. `"dc1"`). Also identifies the storage
/// partition (Paxos ring) that owns entities homed in that datacenter. The
/// special WAN "impact group" uses [`DatacenterId::wan`]. Like every
/// name newtype here it holds a shared `Arc<str>`: a clone bumps a
/// refcount, and the wire form is the plain string.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
#[serde(transparent)]
pub struct DatacenterId(pub Arc<str>);

impl DatacenterId {
    /// The pseudo-datacenter that owns WAN entities: border routers and
    /// inter-DC links. The paper partitions checker responsibility into one
    /// impact group per DC "plus one additional impact group with border
    /// routers of all DCs and the WAN links" (§5 / slides).
    pub const WAN_NAME: &'static str = "wan";

    /// Construct from any string-like name.
    pub fn new(name: impl Into<String>) -> Self {
        DatacenterId(name.into().into())
    }

    /// The WAN pseudo-datacenter.
    pub fn wan() -> Self {
        DatacenterId(Self::WAN_NAME.into())
    }

    /// True if this is the WAN pseudo-datacenter.
    pub fn is_wan(&self) -> bool {
        &*self.0 == Self::WAN_NAME
    }

    /// The raw name.
    pub fn as_str(&self) -> &str {
        &self.0
    }
}

impl fmt::Display for DatacenterId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0)
    }
}

impl From<&str> for DatacenterId {
    fn from(s: &str) -> Self {
        DatacenterId(s.into())
    }
}

impl From<String> for DatacenterId {
    fn from(s: String) -> Self {
        DatacenterId(s.into())
    }
}

/// The role a device plays in the datacenter fabric. Used by topology
/// builders and invariant evaluators (e.g. the ToR-pair capacity invariant
/// of §7.2 cares about ToRs; the WAN scenarios of §7.3 care about border
/// routers).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub enum DeviceRole {
    /// Top-of-rack switch.
    ToR,
    /// Pod aggregation switch.
    Agg,
    /// Datacenter core router.
    Core,
    /// WAN-facing border router.
    Border,
}

impl DeviceRole {
    /// Human-readable short name matching the device-name prefixes used by
    /// the topology builders.
    pub fn prefix(self) -> &'static str {
        match self {
            DeviceRole::ToR => "tor",
            DeviceRole::Agg => "agg",
            DeviceRole::Core => "core",
            DeviceRole::Border => "br",
        }
    }
}

impl fmt::Display for DeviceRole {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.prefix())
    }
}

/// A switch or router name, unique within its datacenter. Shared
/// `Arc<str>`: a row's entity points at the topology's allocation.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
#[serde(transparent)]
pub struct DeviceName(pub Arc<str>);

impl DeviceName {
    /// Construct from any string-like name.
    pub fn new(name: impl Into<String>) -> Self {
        DeviceName(name.into().into())
    }

    /// The raw name.
    pub fn as_str(&self) -> &str {
        &self.0
    }

    /// Infer the device role from the canonical name prefix, if it follows
    /// the builder conventions.
    pub fn role(&self) -> Option<DeviceRole> {
        let head = self.0.split('-').next()?;
        match head {
            "tor" => Some(DeviceRole::ToR),
            "agg" => Some(DeviceRole::Agg),
            "core" => Some(DeviceRole::Core),
            "br" => Some(DeviceRole::Border),
            _ => None,
        }
    }

    /// For pod-scoped devices (`tor-<pod>-<idx>`, `agg-<pod>-<idx>`),
    /// the pod number.
    pub fn pod(&self) -> Option<u32> {
        let mut parts = self.0.split('-');
        let head = parts.next()?;
        if head != "tor" && head != "agg" {
            return None;
        }
        parts.next()?.parse().ok()
    }

    /// The trailing index in the canonical name, e.g. `2` for `agg-1-2` or
    /// `core-2`.
    pub fn index(&self) -> Option<u32> {
        self.0.rsplit('-').next()?.parse().ok()
    }
}

impl fmt::Display for DeviceName {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0)
    }
}

impl From<&str> for DeviceName {
    fn from(s: &str) -> Self {
        DeviceName(s.into())
    }
}

impl From<String> for DeviceName {
    fn from(s: String) -> Self {
        DeviceName(s.into())
    }
}

/// A (physical, undirected) link name, canonicalized so that the two
/// endpoint device names appear in lexicographic order joined by `~`.
///
/// Directed quantities (traffic load per direction, Fig 10's "12 physical
/// links × 2 directions") are modelled as per-direction attributes on the
/// canonical link, not as two entities.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct LinkName {
    /// Lexicographically smaller endpoint.
    pub a: DeviceName,
    /// Lexicographically larger endpoint.
    pub b: DeviceName,
}

impl LinkName {
    /// Build the canonical link between two devices (order-insensitive).
    pub fn between(x: impl Into<DeviceName>, y: impl Into<DeviceName>) -> Self {
        let (x, y) = (x.into(), y.into());
        if x <= y {
            LinkName { a: x, b: y }
        } else {
            LinkName { a: y, b: x }
        }
    }

    /// Parse `"devA~devB"`; returns `None` if there is no `~` separator.
    pub fn parse(s: &str) -> Option<Self> {
        let (a, b) = s.split_once('~')?;
        if a.is_empty() || b.is_empty() {
            return None;
        }
        Some(LinkName::between(a, b))
    }

    /// True if `dev` is one of the link's endpoints.
    pub fn touches(&self, dev: &DeviceName) -> bool {
        &self.a == dev || &self.b == dev
    }

    /// Given one endpoint, the other; `None` if `dev` is not an endpoint.
    pub fn peer_of(&self, dev: &DeviceName) -> Option<&DeviceName> {
        if &self.a == dev {
            Some(&self.b)
        } else if &self.b == dev {
            Some(&self.a)
        } else {
            None
        }
    }
}

impl fmt::Display for LinkName {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}~{}", self.a, self.b)
    }
}

/// A tunnel/path name (paper Fig 4 top level: "Path/Traffic Setup"). Paths
/// are created by applications such as inter-DC TE; the path's state
/// variables are translated by Statesman into the routing states of every
/// switch on the path (§4.1).
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
#[serde(transparent)]
pub struct PathName(pub Arc<str>);

impl PathName {
    /// Construct from any string-like name.
    pub fn new(name: impl Into<String>) -> Self {
        PathName(name.into().into())
    }

    /// The raw name.
    pub fn as_str(&self) -> &str {
        &self.0
    }
}

impl fmt::Display for PathName {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0)
    }
}

/// Which kind of entity a name refers to. Useful for validating that an
/// attribute applies to the entity it is written against (e.g.
/// `DeviceFirmwareVersion` makes no sense on a link).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum EntityKind {
    /// A switch or router.
    Device,
    /// A physical link.
    Link,
    /// A multi-hop tunnel/path.
    Path,
}

impl fmt::Display for EntityKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EntityKind::Device => f.write_str("device"),
            EntityKind::Link => f.write_str("link"),
            EntityKind::Path => f.write_str("path"),
        }
    }
}

/// A fully qualified entity: the datacenter that homes it plus the
/// device/link/path name. This is the storage key prefix and the unit of
/// locking (§4.2: conflict resolution happens "at the level of individual
/// switches and links").
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct EntityName {
    /// Home datacenter — determines the owning storage partition.
    pub datacenter: DatacenterId,
    /// The entity proper.
    pub body: EntityBody,
}

/// The device/link/path discriminant inside an [`EntityName`].
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub enum EntityBody {
    /// A switch or router.
    Device(DeviceName),
    /// A physical link.
    Link(LinkName),
    /// A multi-hop tunnel/path.
    Path(PathName),
}

impl EntityName {
    /// A device entity homed in `dc`.
    pub fn device(dc: impl Into<DatacenterId>, name: impl Into<DeviceName>) -> Self {
        EntityName {
            datacenter: dc.into(),
            body: EntityBody::Device(name.into()),
        }
    }

    /// A link entity homed in `dc` (endpoint order-insensitive).
    pub fn link(
        dc: impl Into<DatacenterId>,
        x: impl Into<DeviceName>,
        y: impl Into<DeviceName>,
    ) -> Self {
        EntityName {
            datacenter: dc.into(),
            body: EntityBody::Link(LinkName::between(x, y)),
        }
    }

    /// A link entity from an already-canonical [`LinkName`].
    pub fn link_named(dc: impl Into<DatacenterId>, link: LinkName) -> Self {
        EntityName {
            datacenter: dc.into(),
            body: EntityBody::Link(link),
        }
    }

    /// A path entity homed in `dc`.
    pub fn path(dc: impl Into<DatacenterId>, name: impl Into<String>) -> Self {
        EntityName {
            datacenter: dc.into(),
            body: EntityBody::Path(PathName::new(name)),
        }
    }

    /// Which kind of entity this is.
    pub fn kind(&self) -> EntityKind {
        match &self.body {
            EntityBody::Device(_) => EntityKind::Device,
            EntityBody::Link(_) => EntityKind::Link,
            EntityBody::Path(_) => EntityKind::Path,
        }
    }

    /// The device name, if this is a device entity.
    pub fn as_device(&self) -> Option<&DeviceName> {
        match &self.body {
            EntityBody::Device(d) => Some(d),
            _ => None,
        }
    }

    /// The link name, if this is a link entity.
    pub fn as_link(&self) -> Option<&LinkName> {
        match &self.body {
            EntityBody::Link(l) => Some(l),
            _ => None,
        }
    }

    /// The path name, if this is a path entity.
    pub fn as_path(&self) -> Option<&PathName> {
        match &self.body {
            EntityBody::Path(p) => Some(p),
            _ => None,
        }
    }

    /// Canonical wire form: `<dc>/<kind>/<name>`. Used by the HTTP API and
    /// as the storage key prefix. Allocates one `String`; serialization
    /// paths that already hold a formatter should use `Display` instead,
    /// which writes the same bytes component-by-component without an
    /// intermediate allocation.
    pub fn wire_name(&self) -> String {
        self.to_string()
    }

    /// Parse the wire form produced by [`EntityName::wire_name`].
    pub fn parse_wire_name(s: &str) -> Option<Self> {
        let mut parts = s.splitn(3, '/');
        let dc = parts.next()?;
        let kind = parts.next()?;
        let name = parts.next()?;
        if dc.is_empty() || name.is_empty() {
            return None;
        }
        let dc = DatacenterId::new(dc);
        match kind {
            "device" => Some(EntityName::device(dc, name)),
            "link" => Some(EntityName::link_named(dc, LinkName::parse(name)?)),
            "path" => Some(EntityName::path(dc, name)),
            _ => None,
        }
    }
}

impl fmt::Display for EntityName {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match &self.body {
            EntityBody::Device(d) => write!(f, "{}/device/{}", self.datacenter, d),
            EntityBody::Link(l) => write!(f, "{}/link/{}", self.datacenter, l),
            EntityBody::Path(p) => write!(f, "{}/path/{}", self.datacenter, p),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn link_names_are_canonical() {
        let l1 = LinkName::between("tor-1-1", "agg-1-2");
        let l2 = LinkName::between("agg-1-2", "tor-1-1");
        assert_eq!(l1, l2);
        assert_eq!(l1.to_string(), "agg-1-2~tor-1-1");
    }

    #[test]
    fn link_parse_round_trip() {
        let l = LinkName::between("br-1", "br-3");
        assert_eq!(LinkName::parse(&l.to_string()), Some(l));
        assert_eq!(LinkName::parse("nolink"), None);
        assert_eq!(LinkName::parse("~x"), None);
    }

    #[test]
    fn link_peers() {
        let l = LinkName::between("a", "b");
        assert!(l.touches(&DeviceName::new("a")));
        assert_eq!(
            l.peer_of(&DeviceName::new("a")),
            Some(&DeviceName::new("b"))
        );
        assert_eq!(l.peer_of(&DeviceName::new("c")), None);
    }

    #[test]
    fn device_role_and_pod_inference() {
        assert_eq!(DeviceName::new("tor-4-1").role(), Some(DeviceRole::ToR));
        assert_eq!(DeviceName::new("agg-10-4").pod(), Some(10));
        assert_eq!(DeviceName::new("agg-10-4").index(), Some(4));
        assert_eq!(DeviceName::new("core-2").role(), Some(DeviceRole::Core));
        assert_eq!(DeviceName::new("core-2").pod(), None);
        assert_eq!(DeviceName::new("br-7").role(), Some(DeviceRole::Border));
        assert_eq!(DeviceName::new("weird").role(), None);
    }

    #[test]
    fn entity_wire_names_round_trip() {
        let cases = vec![
            EntityName::device("dc1", "agg-1-1"),
            EntityName::link("dc2", "tor-1-1", "agg-1-1"),
            EntityName::path(DatacenterId::wan(), "te:dc1>dc3:0"),
        ];
        for e in cases {
            let wire = e.wire_name();
            assert_eq!(EntityName::parse_wire_name(&wire), Some(e), "{wire}");
        }
        assert_eq!(EntityName::parse_wire_name("dc1/blob/x"), None);
        assert_eq!(EntityName::parse_wire_name("dc1/device"), None);
    }

    #[test]
    fn wan_pseudo_datacenter() {
        assert!(DatacenterId::wan().is_wan());
        assert!(!DatacenterId::new("dc1").is_wan());
    }

    #[test]
    fn entity_kind_accessors() {
        let d = EntityName::device("dc1", "core-1");
        assert_eq!(d.kind(), EntityKind::Device);
        assert!(d.as_device().is_some());
        assert!(d.as_link().is_none());
        assert!(d.as_path().is_none());

        let l = EntityName::link("dc1", "a", "b");
        assert_eq!(l.kind(), EntityKind::Link);
        assert!(l.as_link().is_some());

        let p = EntityName::path("dc1", "p0");
        assert_eq!(p.kind(), EntityKind::Path);
        assert!(p.as_path().is_some());
    }
}
