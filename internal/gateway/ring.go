// ring.go: the consistent-hash ring that pins sessions to backends.
// Each backend contributes Replicas virtual points — FNV-1a hashes of
// "addr#vnode" — sorted around a 64-bit circle; a session key is mixed
// through a 64-bit finalizer and routed to the first point clockwise.
// The properties that matter for the fleet:
//
//   - Stability: a session keeps hitting the same backend for its whole
//     life, so backend-side state (shard pinning, warmed offloader cores)
//     stays warm.
//   - Minimal disruption: removing one backend from the ring remaps only
//     the keys that were on its arcs; every other session stays put.
//     That is what makes a rolling restart cheap — the drained backend's
//     sessions slide to their clockwise successors and everyone else is
//     untouched.
//   - Sibling selection: the retry path walks clockwise past the failed
//     backend's points to the next distinct backend, so a retried frame
//     lands deterministically rather than on a random pick.
//
// Rings are immutable once built; the gateway swaps a new ring in (ring
// rebuild) whenever a backend's readiness flips.
package gateway

import (
	"fmt"
	"hash/fnv"
	"sort"
)

// DefaultReplicas is the virtual-node count per backend the gateway
// builds its ring with: enough points that three backends split the
// circle within a few percent of evenly.
const DefaultReplicas = 128

// ringPoint is one virtual node: a position on the hash circle owned by a
// backend.
type ringPoint struct {
	hash    uint64
	backend int
}

// Ring is an immutable consistent-hash ring over backend indexes.
type Ring struct {
	points   []ringPoint
	backends int // distinct backends on the ring
}

// BuildRing places replicas virtual points per backend for every listed
// backend index, labeling points by the backend's address so the layout
// is stable across processes and restarts.  An empty backend list yields
// an empty ring (every lookup misses).
func BuildRing(backends []int, addr func(int) string, replicas int) *Ring {
	if replicas <= 0 {
		replicas = DefaultReplicas
	}
	r := &Ring{backends: len(backends)}
	r.points = make([]ringPoint, 0, len(backends)*replicas)
	for _, b := range backends {
		for v := 0; v < replicas; v++ {
			h := fnv.New64a()
			fmt.Fprintf(h, "%s#%d", addr(b), v)
			// Finalize through mix64: raw FNV over near-identical strings
			// ("addr#0", "addr#1", …) clusters on the circle badly enough
			// to skew a three-backend split past 50/20/30.
			r.points = append(r.points, ringPoint{hash: mix64(h.Sum64()), backend: b})
		}
	}
	sort.Slice(r.points, func(i, j int) bool {
		if r.points[i].hash != r.points[j].hash {
			return r.points[i].hash < r.points[j].hash
		}
		return r.points[i].backend < r.points[j].backend
	})
	return r
}

// Backends returns how many distinct backends the ring was built over.
func (r *Ring) Backends() int { return r.backends }

// mix64 is the SplitMix64 finalizer: small sequential session ids become
// uniformly spread circle positions.
func mix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// Pick routes key to a backend: the owner of the first point clockwise
// from the key's circle position, skipping every point owned by avoid
// (pass avoid < 0 to skip nothing — the primary lookup).  It reports
// false when the ring is empty or holds only the avoided backend.
func (r *Ring) Pick(key uint64, avoid int) (int, bool) {
	if len(r.points) == 0 {
		return 0, false
	}
	h := mix64(key)
	start := sort.Search(len(r.points), func(i int) bool { return r.points[i].hash >= h })
	for i := 0; i < len(r.points); i++ {
		p := r.points[(start+i)%len(r.points)]
		if p.backend != avoid {
			return p.backend, true
		}
	}
	return 0, false
}
