// Package cluster assembles simulated computer clusters matching the four
// I/O configurations of the paper's evaluation (Tables VI and VII):
//
//	Configuration A — Aohyper, NFS v3 over 1 GbE, NAS with RAID5 (5 disks,
//	                  256 KiB stripe), ext4, async export (write-back cache).
//	Configuration B — Aohyper, PVFS2 over 1 GbE, 3 NASD I/O nodes, JBOD,
//	                  ext3.
//	Configuration C — 32 IBM x3550 nodes, NFS v3 over 1 GbE, SAS RAID5.
//	Finisterrae     — CESGA, Lustre (HP SFS) over 20 Gb/s InfiniBand,
//	                  18 OSS with SFS20 RAID5 cabins, 2 MDS.
//
// Every configuration is built from mechanisms (disks, links, servers) so
// measured bandwidths emerge from contention rather than lookup tables; the
// constants below are calibrated to the hardware classes the paper names,
// not to its result tables.
package cluster

import (
	"fmt"

	"iophases/internal/des"
	"iophases/internal/disksim"
	"iophases/internal/faults"
	"iophases/internal/fsim"
	"iophases/internal/netsim"
	"iophases/internal/units"
)

// RAIDSpec selects an array organization for an I/O node.
type RAIDSpec struct {
	Level      disksim.RAIDLevel
	StripeUnit int64
}

// StorageSpec describes the global filesystem's server side.
type StorageSpec struct {
	Kind            string // "nfs" | "pvfs2" | "lustre"
	IONodes         int
	DisksPerNode    int
	Disk            disksim.DiskParams
	RAID            *RAIDSpec            // nil: single disk (or JBOD member) per node
	Cache           *disksim.CacheParams // nil: no server write-back cache
	FSStripe        int64                // filesystem striping unit across I/O nodes
	FileStripeCount int                  // 0 = stripe every file over all I/O nodes
	// ServerRequest is the server-side request granularity (NFS wsize,
	// PVFS2 flow buffer, Lustre RPC size); see fsim.Params.
	ServerRequest int64
	MetaCost      units.Duration
}

// Spec is a complete cluster description.
type Spec struct {
	// Name labels the configuration in reports and error messages. It
	// also prefixes the name of every simulated link and the filesystem
	// ("configA/cn00/up"), which a fault effect's Match selects on, so
	// a renamed configuration is a different input to the simulation.
	Name         string
	Description  string
	ComputeNodes int
	CoresPerNode int
	Net          netsim.LinkParams
	Storage      StorageSpec
	// Faults, when non-nil, attaches a deterministic fault schedule to the
	// cluster: the service layers consult it on every request, so the
	// configuration runs degraded. It is part of the spec's physical
	// identity — simcache fingerprints it, so healthy and degraded runs
	// never share cache entries.
	Faults *faults.Schedule
}

// MaxProcs reports the process capacity of the cluster.
func (s Spec) MaxProcs() int { return s.ComputeNodes * s.CoresPerNode }

// Cluster is a built, runnable configuration. Each Cluster owns a private
// engine; build a fresh one per experiment run.
type Cluster struct {
	Spec   Spec
	Eng    *des.Engine
	Fabric *netsim.Fabric
	FS     *fsim.FS

	computeNodes []string
	ioNodes      []string
	ioDevices    []disksim.Device // per-I/O-node device (cache-wrapped if configured)
	memberDisks  [][]*disksim.Disk
}

// Build constructs the cluster on a fresh engine.
func Build(spec Spec) *Cluster {
	if spec.ComputeNodes <= 0 || spec.CoresPerNode <= 0 {
		panic(fmt.Sprintf("cluster: %q has no compute capacity", spec.Name))
	}
	if spec.Storage.IONodes <= 0 || spec.Storage.DisksPerNode <= 0 {
		panic(fmt.Sprintf("cluster: %q has no storage", spec.Name))
	}
	eng := des.NewEngine()
	if spec.Faults != nil {
		// Attach before any device exists: constructors capture the
		// engine's injector handle once, at build time.
		faults.Attach(eng, spec.Faults, spec.Name)
	}
	fab := netsim.NewFabric(eng, spec.Name, spec.Net)
	c := &Cluster{
		Spec:   spec,
		Eng:    eng,
		Fabric: fab,
	}
	for i := 0; i < spec.ComputeNodes; i++ {
		node := fmt.Sprintf("cn%02d", i)
		fab.AddEndpoint(node)
		c.computeNodes = append(c.computeNodes, node)
	}
	var targets []fsim.Target
	for i := 0; i < spec.Storage.IONodes; i++ {
		node := fmt.Sprintf("ion%02d", i)
		fab.AddEndpoint(node)
		c.ioNodes = append(c.ioNodes, node)
		var members []*disksim.Disk
		for d := 0; d < spec.Storage.DisksPerNode; d++ {
			members = append(members, disksim.NewDisk(eng,
				fmt.Sprintf("%s/d%d", node, d), spec.Storage.Disk))
		}
		c.memberDisks = append(c.memberDisks, members)
		var dev disksim.Device
		if spec.Storage.RAID != nil {
			dev = disksim.NewArray(eng, node+"/raid", spec.Storage.RAID.Level,
				members, spec.Storage.RAID.StripeUnit)
		} else {
			dev = members[0]
			if len(members) > 1 {
				// Multiple independent disks on one node without
				// RAID: concatenate by treating them as a RAID0
				// with a huge stripe so whole files land on one
				// member — JBOD placement.
				dev = disksim.NewArray(eng, node+"/jbod", disksim.RAID0,
					members, disksim.JBODStripe)
			}
		}
		if spec.Storage.Cache != nil {
			dev = disksim.NewWriteCache(eng, node+"/cache", dev, *spec.Storage.Cache)
		}
		c.ioDevices = append(c.ioDevices, dev)
		targets = append(targets, fsim.Target{Node: node, Dev: dev})
	}
	c.FS = fsim.New(eng, fab, fsim.Params{
		Name:             spec.Name + "/fs",
		Kind:             spec.Storage.Kind,
		Targets:          targets,
		StripeSize:       spec.Storage.FSStripe,
		FileStripeCount:  spec.Storage.FileStripeCount,
		MaxServerRequest: spec.Storage.ServerRequest,
		MetaCost:         spec.Storage.MetaCost,
	})
	return c
}

// ComputeNodes lists compute node endpoint names.
func (c *Cluster) ComputeNodes() []string { return c.computeNodes }

// IONodes lists I/O node endpoint names.
func (c *Cluster) IONodes() []string { return c.ioNodes }

// NodeOfRank maps MPI rank to its compute node under the default block
// (fill-node-cores-first) placement.
func (c *Cluster) NodeOfRank(rank, np int) string {
	return c.Place(rank, np, PlaceBlock)
}

// Placement selects a rank-to-node mapping strategy. The paper's §IV-A
// notes the phase view "can be useful for the matching of processes that
// do I/O operations near to I/O nodes"; in a star fabric the lever is NIC
// multiplicity: block packing shares few NICs but keeps halo exchanges
// intra-node, scatter placement gives every rank more NIC headroom at the
// price of network communication.
type Placement string

// Placement strategies.
const (
	// PlaceBlock fills each node's cores before the next node (the MPI
	// default).
	PlaceBlock Placement = "block"
	// PlaceScatter round-robins ranks across nodes (cyclic placement).
	PlaceScatter Placement = "scatter"
)

// Place maps a rank to its node under the given strategy.
func (c *Cluster) Place(rank, np int, strategy Placement) string {
	if np > c.Spec.MaxProcs() {
		panic(fmt.Sprintf("cluster: %d ranks exceed %s capacity %d",
			np, c.Spec.Name, c.Spec.MaxProcs()))
	}
	if rank < 0 || rank >= np {
		panic(fmt.Sprintf("cluster: rank %d out of range 0..%d", rank, np-1))
	}
	switch strategy {
	case PlaceScatter:
		return c.computeNodes[rank%len(c.computeNodes)]
	default:
		return c.computeNodes[rank/c.Spec.CoresPerNode]
	}
}

// IODevice returns I/O node i's device (cache-wrapped if configured).
func (c *Cluster) IODevice(i int) disksim.Device { return c.ioDevices[i] }

// MemberDisks returns the physical disks behind I/O node i, for
// device-level monitoring (Figure 8).
func (c *Cluster) MemberDisks(i int) []*disksim.Disk { return c.memberDisks[i] }

// ConfigA returns the Aohyper NFS configuration (Table VI, left column).
func ConfigA() Spec {
	return Spec{
		Name:         "configA",
		Description:  "Aohyper: NFS v3, 1GbE, NAS with RAID5 (5 SATA disks, 256KiB stripe), ext4, async export",
		ComputeNodes: 8,
		CoresPerNode: 2, // AMD Athlon 64 X2
		Net:          netsim.Ethernet1G(),
		Storage: StorageSpec{
			Kind:          "nfs",
			IONodes:       1,
			DisksPerNode:  5,
			Disk:          disksim.SATA7200(917 * units.GiB / 4), // 917 GB usable over 4 data disks
			RAID:          &RAIDSpec{Level: disksim.RAID5, StripeUnit: 256 * units.KiB},
			Cache:         &disksim.CacheParams{Capacity: 512 * units.MiB, MemBW: units.GBps(2), Chunk: 4 * units.MiB},
			FSStripe:      64 * units.KiB,
			ServerRequest: units.MiB, // NFS wsize/rsize with server merging
		},
	}
}

// ConfigB returns the Aohyper PVFS2 configuration (Table VI, right column).
func ConfigB() Spec {
	return Spec{
		Name:         "configB",
		Description:  "Aohyper: PVFS2 2.8.2, 1GbE, 3 NASD I/O nodes, JBOD (1 disk each), ext3",
		ComputeNodes: 8,
		CoresPerNode: 2,
		Net:          netsim.Ethernet1G(),
		Storage: StorageSpec{
			Kind:         "pvfs2",
			IONodes:      3,
			DisksPerNode: 1,
			Disk:         disksim.SATA7200(130 * units.GiB),
			// PVFS2's Trove writes through to the local filesystem
			// without an async dirty window (unlike an NFS async
			// export), so no server write-back cache is modeled.
			Cache:         nil,
			FSStripe:      64 * units.KiB,
			ServerRequest: 256 * units.KiB, // PVFS2 flow buffer
		},
	}
}

// ConfigC returns the 32-node NFS configuration (Table VII, left column).
func ConfigC() Spec {
	return Spec{
		Name:         "configC",
		Description:  "32x IBM x3550: NFS v3, 1GbE, NAS with RAID5 (5 SAS disks), ext4",
		ComputeNodes: 32,
		CoresPerNode: 4, // 2x dual-core Xeon 5160
		Net:          netsim.Ethernet1G(),
		Storage: StorageSpec{
			Kind:          "nfs",
			IONodes:       1,
			DisksPerNode:  5,
			Disk:          disksim.SAS15K(1800 * units.GiB / 4),
			RAID:          &RAIDSpec{Level: disksim.RAID5, StripeUnit: 256 * units.KiB},
			Cache:         &disksim.CacheParams{Capacity: 1 * units.GiB, MemBW: units.GBps(3), Chunk: 4 * units.MiB},
			FSStripe:      64 * units.KiB,
			ServerRequest: units.MiB,
		},
	}
}

// Finisterrae returns the CESGA Lustre configuration (Table VII, right
// column). The 866 SFS20 disks are modeled as 18 OSS each fronting a RAID5
// cabin; HP SFS assigns each file a small stripe count, so a single shared
// file does not reach the full 18-OSS aggregate — the mechanism behind the
// modest shared-file bandwidths the paper measures on this machine.
func Finisterrae() Spec {
	return Spec{
		Name:         "finisterrae",
		Description:  "CESGA Finisterrae: Lustre (HP SFS), InfiniBand 20Gb/s, 18 OSS, RAID5 SFS20 cabins",
		ComputeNodes: 142,
		CoresPerNode: 16, // HP rx7640, 16 Itanium cores
		Net:          netsim.Infiniband20G(),
		Storage: StorageSpec{
			Kind:         "lustre",
			IONodes:      18,
			DisksPerNode: 5, // one RAID5 cabin slice per OSS (4 data + parity)
			Disk:         disksim.SAS15K(250 * units.GiB),
			RAID:         &RAIDSpec{Level: disksim.RAID5, StripeUnit: 256 * units.KiB},
			Cache:        &disksim.CacheParams{Capacity: 512 * units.MiB, MemBW: units.GBps(3), Chunk: 4 * units.MiB},
			FSStripe:     1 * units.MiB,
			// HP SFS default stripe count: one OST per file unless
			// tuned; BT-IO's shared file therefore runs against a
			// single RAID cabin.
			FileStripeCount: 1,
			ServerRequest:   units.MiB, // Lustre RPC size
			MetaCost:        300 * units.Microsecond,
		},
	}
}

// Presets lists the four paper configurations in presentation order.
func Presets() []Spec {
	return []Spec{ConfigA(), ConfigB(), ConfigC(), Finisterrae()}
}

// PresetByName resolves a configuration by its Name field.
func PresetByName(name string) (Spec, bool) {
	for _, s := range Presets() {
		if s.Name == name {
			return s, true
		}
	}
	return Spec{}, false
}
