package serve

import (
	"fmt"
	"sort"
)

// Router maps keys to shards with a consistent-hash ring: every shard owns
// VNodes points on a 64-bit ring and a key belongs to the first point at
// or after its hash. Adding or removing one shard therefore remaps only
// ~1/n of the keyspace — the property a cache tier needs so a DIMM
// replacement does not flush every shard's working set.
type Router struct {
	points []ringPoint
	shards int
}

type ringPoint struct {
	h     uint64
	shard int
}

// DefaultVNodes is the per-shard virtual-node count; 64 keeps the load
// spread within a few percent of even for single-digit shard counts.
const DefaultVNodes = 64

// fnv64 is FNV-1a, the ring's hash for both vnode labels and keys.
func fnv64(s string) uint64 {
	h := uint64(14695981039346656037)
	for i := 0; i < len(s); i++ {
		h = (h ^ uint64(s[i])) * 1099511628211
	}
	// One splitmix finalizer: FNV alone clusters for sequential suffixes.
	h += 0x9e3779b97f4a7c15
	h = (h ^ (h >> 30)) * 0xbf58476d1ce4e5b9
	h = (h ^ (h >> 27)) * 0x94d049bb133111eb
	return h ^ (h >> 31)
}

// NewRouter builds a ring over nShards shards with vnodes points each
// (0 = DefaultVNodes).
func NewRouter(nShards, vnodes int) *Router {
	if nShards <= 0 {
		panic("serve: router needs at least one shard")
	}
	if vnodes <= 0 {
		vnodes = DefaultVNodes
	}
	r := &Router{shards: nShards, points: make([]ringPoint, 0, nShards*vnodes)}
	for s := 0; s < nShards; s++ {
		for v := 0; v < vnodes; v++ {
			r.points = append(r.points, ringPoint{h: fnv64(fmt.Sprintf("shard%d/vn%d", s, v)), shard: s})
		}
	}
	sort.Slice(r.points, func(i, j int) bool {
		if r.points[i].h != r.points[j].h {
			return r.points[i].h < r.points[j].h
		}
		return r.points[i].shard < r.points[j].shard
	})
	return r
}

// Shard returns the shard owning key.
func (r *Router) Shard(key string) int {
	h := fnv64(key)
	i := sort.Search(len(r.points), func(i int) bool { return r.points[i].h >= h })
	if i == len(r.points) {
		i = 0 // wrap around the ring
	}
	return r.points[i].shard
}

// Owners returns the first n distinct shards met walking the ring from
// key's hash: Owners(key, n)[0] == Shard(key), and each following entry is
// the next vnode owner — the shard the admission layer re-routes to when
// everything before it is open. n is clamped to the shard count.
func (r *Router) Owners(key string, n int) []int {
	if n > r.shards {
		n = r.shards
	}
	h := fnv64(key)
	i := sort.Search(len(r.points), func(i int) bool { return r.points[i].h >= h })
	out := make([]int, 0, n)
	seen := make([]bool, r.shards)
	for off := 0; off < len(r.points) && len(out) < n; off++ {
		p := r.points[(i+off)%len(r.points)]
		if !seen[p.shard] {
			seen[p.shard] = true
			out = append(out, p.shard)
		}
	}
	return out
}
