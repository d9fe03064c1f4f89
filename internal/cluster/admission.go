package cluster

import (
	"net/http"
	"strings"
	"sync/atomic"

	"drainnet/internal/serve"
)

// Class is a request priority class.
type Class int

const (
	// ClassInteractive is latency-sensitive traffic: /v1/detect and
	// /v1/detect/batch, unless tagged bulk.
	ClassInteractive Class = iota
	// ClassBulk is throughput traffic that should yield under load:
	// /v1/sweep routes, and anything tagged X-Drainnet-Class: bulk
	// (sweep drivers tag their detect traffic this way).
	ClassBulk
)

// String implements fmt.Stringer ("interactive"/"bulk").
func (c Class) String() string {
	if c == ClassBulk {
		return "bulk"
	}
	return "interactive"
}

// ClassHeader tags a request's priority class explicitly; the value
// "bulk" demotes a request that would otherwise classify interactive.
// It is the worker's header too: forwarded bulk detects ride the
// worker pool's bulk lane.
const ClassHeader = serve.ClassHeader

// classify derives a request's priority class from its route and the
// optional class header. Control-plane reads (metrics, stats, health)
// classify interactive: they are cheap and must work during overload.
func classify(r *http.Request) Class {
	if strings.EqualFold(r.Header.Get(ClassHeader), "bulk") {
		return ClassBulk
	}
	if strings.HasPrefix(r.URL.Path, "/v1/sweep") {
		return ClassBulk
	}
	return ClassInteractive
}

// AdmissionPolicy bounds each priority class's concurrent admitted
// requests at the router. The zero value derives defaults from the
// worker count.
type AdmissionPolicy struct {
	// MaxInteractive is the interactive class's concurrency budget
	// (default 64 × workers).
	MaxInteractive int
	// MaxBulk is the bulk class's concurrency budget when the system is
	// otherwise idle (default 2 × workers). It is deliberately small:
	// admitted bulk sits in worker queues ahead of later interactive
	// arrivals, so the budget bounds the queueing delay bulk can impose
	// (~two service times per worker) and overload is absorbed by
	// shedding, not queueing. The *effective* budget shrinks further as
	// interactive load rises — see EffectiveBulkLimit — so bulk traffic
	// is what sheds first.
	MaxBulk int
}

func (p AdmissionPolicy) withDefaults(workers int) AdmissionPolicy {
	if p.MaxInteractive <= 0 {
		p.MaxInteractive = 64 * workers
	}
	if p.MaxBulk <= 0 {
		p.MaxBulk = 2 * workers
	}
	return p
}

// EffectiveBulkLimit is the bulk budget at a given interactive
// occupancy: MaxBulk scaled by the interactive headroom fraction,
// rounded down. At zero interactive load bulk gets its full budget; at
// interactive saturation bulk is fully shed. This is the graceful-
// degradation rule: overload starves bulk instead of growing queues.
func (p AdmissionPolicy) EffectiveBulkLimit(interactiveInflight int) int {
	if interactiveInflight <= 0 {
		return p.MaxBulk
	}
	if interactiveInflight >= p.MaxInteractive {
		return 0
	}
	headroom := 1 - float64(interactiveInflight)/float64(p.MaxInteractive)
	return int(float64(p.MaxBulk) * headroom)
}

// admission tracks per-class occupancy with lock-free counters.
type admission struct {
	pol   AdmissionPolicy
	inter atomic.Int64
	bulk  atomic.Int64
}

// acquire admits one request of class c, returning its release func, or
// (nil, false) when the class budget is exhausted and the request must
// be shed.
func (a *admission) acquire(c Class) (func(), bool) {
	if c == ClassInteractive {
		if a.inter.Add(1) > int64(a.pol.MaxInteractive) {
			a.inter.Add(-1)
			return nil, false
		}
		return func() { a.inter.Add(-1) }, true
	}
	limit := int64(a.pol.EffectiveBulkLimit(int(a.inter.Load())))
	if a.bulk.Add(1) > limit {
		a.bulk.Add(-1)
		return nil, false
	}
	return func() { a.bulk.Add(-1) }, true
}

// occupancy reports the current admitted counts per class.
func (a *admission) occupancy() (interactive, bulk int64) {
	return a.inter.Load(), a.bulk.Load()
}
