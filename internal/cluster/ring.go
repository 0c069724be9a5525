// Package cluster turns a set of tcserved nodes into one horizontally
// scalable service: a consistent-hash sharding gateway routes each job
// by its canonical config key (a client-side sweep is just jobs), checks
// node health (demoted nodes re-hash to the next ring replica), and
// serves a content-addressed trace CDN so every workload is captured at
// most once cluster-wide.
package cluster

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"sort"
)

// DefaultReplicas is the virtual-node count per physical node. 128
// points per node keeps the expected load imbalance across a handful of
// nodes under a few percent while the ring stays tiny (3 nodes = 384
// points, one binary search per route).
const DefaultReplicas = 128

// Ring is an immutable consistent-hash ring over node names. Hashing
// keys on stable logical names — not URLs — means a node restarted on a
// new address keeps its shard, and any party that knows the names can
// compute placement offline (the cluster tests do exactly that).
type Ring struct {
	points []ringPoint // sorted by hash
	nodes  int
}

type ringPoint struct {
	hash uint64
	node int // index into the node list the ring was built from
}

// hash64 maps a string onto the ring: the first 8 bytes of its sha256,
// little-endian. sha256 (rather than a fast non-cryptographic hash)
// keeps placement deterministic across architectures and Go versions —
// ring layout is part of the cluster's observable contract.
func hash64(s string) uint64 {
	h := sha256.Sum256([]byte(s))
	return binary.LittleEndian.Uint64(h[:8])
}

// NewRing builds a ring over nodes[0..n-1] named by the given stable
// names, with the given virtual-node count per node (<= 0 selects
// DefaultReplicas).
func NewRing(names []string, replicas int) *Ring {
	if replicas <= 0 {
		replicas = DefaultReplicas
	}
	r := &Ring{nodes: len(names), points: make([]ringPoint, 0, len(names)*replicas)}
	for i, name := range names {
		for v := 0; v < replicas; v++ {
			r.points = append(r.points, ringPoint{hash: hash64(fmt.Sprintf("%s#%d", name, v)), node: i})
		}
	}
	sort.Slice(r.points, func(a, b int) bool { return r.points[a].hash < r.points[b].hash })
	return r
}

// Owner returns the index of the node owning key: the first ring point
// clockwise from the key's hash.
func (r *Ring) Owner(key string) int {
	return r.points[r.successor(hash64(key))].node
}

// Order returns every node index in the key's preference order: the
// owner first, then each distinct node met walking the ring clockwise.
// When the owner is demoted the gateway re-hashes by simply taking the
// next entry, so failover placement is as deterministic as primary
// placement.
func (r *Ring) Order(key string) []int {
	out := make([]int, 0, r.nodes)
	seen := make([]bool, r.nodes)
	i := r.successor(hash64(key))
	for n := 0; n < len(r.points) && len(out) < r.nodes; n++ {
		p := r.points[(i+n)%len(r.points)]
		if !seen[p.node] {
			seen[p.node] = true
			out = append(out, p.node)
		}
	}
	return out
}

// successor finds the first point with hash >= h, wrapping at the top.
func (r *Ring) successor(h uint64) int {
	i := sort.Search(len(r.points), func(i int) bool { return r.points[i].hash >= h })
	if i == len(r.points) {
		i = 0
	}
	return i
}
