//! Hierarchical interconnect topologies.
//!
//! A [`Topology`] maps the *distance* between two ranks in the linearized
//! processor grid to a [`Link`]: a pair of multipliers applied to the flat
//! [`gcomm_machine::NetworkModel`]'s startup cost and bandwidth. This is a
//! translation-invariant approximation — a shift by `d` is priced by the
//! magnitude of `d`, not by which concrete boundary each rank pair
//! crosses — which keeps the bulk-synchronous simulator's "one message per
//! processor" abstraction intact while still making locality visible:
//! unit-distance neighbours ride the cheap tier, far partners pay the
//! expensive one (DESIGN.md §17).

/// Cost multipliers of one link tier. Applied to a step's startup cost
/// (`× startup_mult`) and bandwidth (`× bw_mult`).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Link {
    /// Startup-cost multiplier (≥ 1 is slower, < 1 faster).
    pub startup_mult: f64,
    /// Bandwidth multiplier (< 1 is slower, > 1 faster).
    pub bw_mult: f64,
}

impl Link {
    /// The flat-model link: no topology effect.
    pub const UNIT: Link = Link {
        startup_mult: 1.0,
        bw_mult: 1.0,
    };
}

// Fat-tree tier calibration: node-local transfers skip the NIC (shared
// memory), same-switch hops pay the flat model, cross-switch hops pay the
// oversubscribed uplink.
const NODE_LOCAL: Link = Link {
    startup_mult: 0.4,
    bw_mult: 2.0,
};
const CROSS_SWITCH: Link = Link {
    startup_mult: 1.6,
    bw_mult: 0.7,
};
// Torus per-hop calibration: every extra hop adds router latency and
// shares links with pass-through traffic.
const TORUS_HOP_STARTUP: f64 = 0.25;
const TORUS_HOP_CONGESTION: f64 = 0.15;

/// An interconnect topology, selected with `--machine` on `gcommc`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Topology {
    /// The flat 1996 model: every rank pair is equidistant.
    Flat,
    /// A two-level fat-tree: `node` ranks share a node, `switch` nodes
    /// share a leaf switch, everything else crosses the spine.
    FatTree {
        /// Ranks per node (node-local tier below this distance).
        node: u64,
        /// Nodes per leaf switch (same-switch tier below `node·switch`).
        switch: u64,
    },
    /// A 2D torus of `x` × `y` routers, one rank each, with wraparound
    /// links; cost grows with the minimal Manhattan hop count.
    Torus {
        /// Ranks along the x dimension.
        x: u64,
        /// Ranks along the y dimension.
        y: u64,
    },
}

impl Topology {
    /// Parses a `--machine` topology spec:
    ///
    /// * `flat`
    /// * `fat-tree` (= `fat-tree:4x4`) or `fat-tree:<ranks/node>x<nodes/switch>`
    /// * `torus` (= `torus:5x5`, the paper's P=25 SP2 grid) or `torus:<X>x<Y>`
    pub fn parse(spec: &str) -> Result<Topology, String> {
        let (head, dims) = match spec.split_once(':') {
            Some((h, d)) => (h, Some(d)),
            None => (spec, None),
        };
        let parse_dims = |d: Option<&str>, da: u64, db: u64| -> Result<(u64, u64), String> {
            match d {
                None => Ok((da, db)),
                Some(d) => {
                    let (a, b) = d
                        .split_once('x')
                        .ok_or_else(|| format!("bad topology dims `{d}` (want AxB)"))?;
                    let a: u64 = a.parse().map_err(|_| format!("bad topology dim `{a}`"))?;
                    let b: u64 = b.parse().map_err(|_| format!("bad topology dim `{b}`"))?;
                    if a == 0 || b == 0 {
                        return Err(format!("topology dims must be positive, got `{d}`"));
                    }
                    Ok((a, b))
                }
            }
        };
        match head {
            "flat" => match dims {
                None => Ok(Topology::Flat),
                Some(d) => Err(format!("`flat` takes no dims, got `{d}`")),
            },
            "fat-tree" => {
                let (node, switch) = parse_dims(dims, 4, 4)?;
                Ok(Topology::FatTree { node, switch })
            }
            "torus" => {
                let (x, y) = parse_dims(dims, 5, 5)?;
                Ok(Topology::Torus { x, y })
            }
            _ => Err(format!(
                "unknown topology `{head}` (want flat, fat-tree[:NxS], or torus[:XxY])"
            )),
        }
    }

    /// Canonical spec string: `parse(describe()) == self`, and the string
    /// is what cache keys embed.
    pub fn describe(&self) -> String {
        match self {
            Topology::Flat => "flat".into(),
            Topology::FatTree { node, switch } => format!("fat-tree:{node}x{switch}"),
            Topology::Torus { x, y } => format!("torus:{x}x{y}"),
        }
    }

    /// The link tier crossed by a transfer between ranks `dist` apart in
    /// the linearized grid (`dist` 0 is clamped to 1).
    pub fn link(&self, dist: u64) -> Link {
        let d = dist.max(1);
        match self {
            Topology::Flat => Link::UNIT,
            Topology::FatTree { node, switch } => {
                if d < *node {
                    NODE_LOCAL
                } else if d < node.saturating_mul(*switch) {
                    Link::UNIT
                } else {
                    CROSS_SWITCH
                }
            }
            Topology::Torus { x, y } => {
                let n = x.saturating_mul(*y).max(1);
                let d = d % n;
                let (dx, dy) = (d % x, d / x);
                let hops = dx.min(x - dx) + dy.min(y - dy);
                let h = hops.max(1) as f64;
                Link {
                    startup_mult: 1.0 + TORUS_HOP_STARTUP * (h - 1.0),
                    bw_mult: 1.0 / (1.0 + TORUS_HOP_CONGESTION * (h - 1.0)),
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_roundtrips_through_describe() {
        for spec in [
            "flat",
            "fat-tree:4x4",
            "fat-tree:2x8",
            "torus:5x5",
            "torus:8x4",
        ] {
            let t = Topology::parse(spec).unwrap();
            assert_eq!(t.describe(), spec);
            assert_eq!(Topology::parse(&t.describe()).unwrap(), t);
        }
        assert_eq!(
            Topology::parse("fat-tree").unwrap(),
            Topology::FatTree { node: 4, switch: 4 }
        );
        assert_eq!(
            Topology::parse("torus").unwrap(),
            Topology::Torus { x: 5, y: 5 }
        );
    }

    #[test]
    fn parse_rejects_garbage() {
        for bad in [
            "mesh",
            "fat-tree:0x4",
            "torus:5",
            "torus:ax5",
            "flat:2x2",
            "",
        ] {
            assert!(Topology::parse(bad).is_err(), "`{bad}` must not parse");
        }
    }

    #[test]
    fn flat_is_distance_blind() {
        for d in [1, 3, 17, 1000] {
            assert_eq!(Topology::Flat.link(d), Link::UNIT);
        }
    }

    #[test]
    fn fat_tree_tiers_are_ordered() {
        let t = Topology::FatTree { node: 4, switch: 4 };
        let local = t.link(1);
        let switch = t.link(4);
        let cross = t.link(16);
        assert!(local.startup_mult < switch.startup_mult);
        assert!(switch.startup_mult < cross.startup_mult);
        assert!(local.bw_mult > switch.bw_mult);
        assert!(switch.bw_mult > cross.bw_mult);
        assert_eq!(switch, Link::UNIT);
        // Tier boundaries: distances 1..3 are node-local, 4..15 same-switch.
        assert_eq!(t.link(3), local);
        assert_eq!(t.link(15), switch);
    }

    #[test]
    fn torus_cost_grows_with_hops_and_wraps_around() {
        let t = Topology::Torus { x: 5, y: 5 };
        let near = t.link(1);
        let mid = t.link(2);
        let far = t.link(2 + 2 * 5); // (2, 2): 4 hops
        assert_eq!(near, Link::UNIT);
        assert!(mid.startup_mult > near.startup_mult);
        assert!(far.startup_mult > mid.startup_mult);
        assert!(far.bw_mult < mid.bw_mult);
        // Wraparound: 4 hops along x is 1 hop the other way.
        assert_eq!(t.link(4), t.link(1));
        // Distances reduce mod the torus size.
        assert_eq!(t.link(26), t.link(1));
    }
}
