package cluster

import (
	"hash/fnv"
	"sort"
	"strconv"
)

// ring is a consistent-hash ring over backend names. Each member owns
// vnodes points on a 64-bit circle; a key's preference order is the walk
// clockwise from the key's hash, collecting distinct members. The ring is
// immutable once built — a new member rebuilds it (cheap: members are
// few); the router skips closed members during the walk.
type ring struct {
	points []ringPoint
	n      int // distinct members
}

type ringPoint struct {
	hash   uint64
	member string
}

// hash64 is the ring's hash: FNV-1a through a 64-bit avalanche finalizer.
// Raw FNV clusters short keys ("a#0", "a#1", …) into a narrow band of the
// circle — the finalizer (Murmur3's fmix64) spreads them uniformly. Both
// steps are fixed arithmetic, stable across processes and Go versions, so
// every router instance computes identical placements.
func hash64(s string) uint64 {
	h := fnv.New64a()
	h.Write([]byte(s))
	x := h.Sum64()
	x ^= x >> 33
	x *= 0xff51afd7ed558ccd
	x ^= x >> 33
	x *= 0xc4ceb9fe1a85ec53
	x ^= x >> 33
	return x
}

// buildRing places every member's virtual nodes on the circle. Member
// order does not matter: point positions depend only on the member names,
// and equal hashes (vanishingly rare) tie-break on member name so the ring
// is a pure function of the membership set.
func buildRing(members []string, perMember int) *ring {
	r := &ring{points: make([]ringPoint, 0, len(members)*perMember), n: len(members)}
	for _, m := range members {
		for i := 0; i < perMember; i++ {
			r.points = append(r.points, ringPoint{hash: hash64(m + "#" + strconv.Itoa(i)), member: m})
		}
	}
	sort.Slice(r.points, func(i, j int) bool {
		if r.points[i].hash != r.points[j].hash {
			return r.points[i].hash < r.points[j].hash
		}
		return r.points[i].member < r.points[j].member
	})
	return r
}

// preference returns every member exactly once, in the deterministic walk
// order clockwise from the key's hash: the first entry is the key's hash
// owner, the rest are the successor replicas hedges and retries fail over
// to.
func (r *ring) preference(key string) []string {
	if len(r.points) == 0 {
		return nil
	}
	h := hash64(key)
	start := sort.Search(len(r.points), func(i int) bool { return r.points[i].hash >= h })
	out := make([]string, 0, r.n)
	seen := make(map[string]bool, r.n)
	for i := 0; i < len(r.points) && len(out) < r.n; i++ {
		p := r.points[(start+i)%len(r.points)]
		if !seen[p.member] {
			seen[p.member] = true
			out = append(out, p.member)
		}
	}
	return out
}
