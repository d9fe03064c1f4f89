// Package batcher implements batched, multi-replica inference serving.
//
// The paper's efficiency metric is latency per image *at a batch size*
// (§6.4). Batching pays only when a clip costs less inside a batch, so
// this package forms batches from backlog, never by waiting: dispatch is
// work-conserving. An idle replica takes the oldest pending group of
// same-shape requests at once, up to MaxBatch clips; requests coalesce
// into larger batches only while every replica is busy. MaxWait is an
// opt-in hold (0 by default): with it set, an idle replica may wait up
// to MaxWait for a partial group to fill. Every replica runs the one
// network handed to New — Infer is reentrant — and owns only its
// scratch arena, so replicas run concurrently without a copy of the
// model each. Trace-sampled batches run that same served path with a
// timing hook, so a traced answer equals an untraced one.
//
// Requests come in two classes. Interactive requests (the default) are
// latency-sensitive; bulk requests (contexts marked with WithBulk, such
// as sweep clips) are throughput work. The classes never share a batch,
// an idle replica serves the oldest interactive group before any bulk
// group, and bulk batches occupy at most max(1, R−1) of the R replicas,
// so with R ≥ 2 an interactive arrival always finds a replica that bulk
// work cannot take.
//
// Backpressure is a bounded queue per class: the dispatcher holds at
// most MaxBatch requests per class, the rest wait in the queue, and when
// it is full Submit fails fast with ErrQueueFull so the HTTP layer can
// answer 429 with Retry-After instead of letting latency grow without
// bound. Close drains both classes gracefully: everything already
// accepted is served, new submissions are refused with ErrClosed.
package batcher

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync/atomic"
	"time"

	"drainnet/internal/metrics"
	"drainnet/internal/model"
	"drainnet/internal/nn"
	"drainnet/internal/telemetry"
	"drainnet/internal/tensor"
)

// Errors returned by Submit.
var (
	// ErrQueueFull means the bounded request queue is at capacity; the
	// caller should shed load (HTTP 429).
	ErrQueueFull = errors.New("batcher: request queue full")
	// ErrClosed means the pool is draining or closed.
	ErrClosed = errors.New("batcher: pool closed")
)

// Options configures a Pool. The zero value selects sensible defaults.
type Options struct {
	// Replicas is the number of batches served concurrently (default
	// GOMAXPROCS). Every replica runs the pool's one shared network and
	// owns only its scratch arena.
	Replicas int
	// MaxBatch is the largest batch a single forward pass may carry
	// (default 8), and the most requests the dispatcher holds per class.
	MaxBatch int
	// MaxWait is an opt-in hold: how long an idle replica may wait for a
	// partial group to fill before taking it. The default 0 is
	// work-conserving — an idle replica takes whatever is pending at
	// once, and batches form only from backlog while every replica is
	// busy. Larger values trade latency for bigger batches (the §6.4
	// knob), which pays only when a clip costs less inside a batch.
	MaxWait time.Duration
	// QueueSize is the capacity of each class's bounded queue (default
	// 64). When a queue is full Submit returns ErrQueueFull.
	QueueSize int
	// Telemetry receives serving metrics and span events. Nil selects a
	// private registry-only instance (metrics still accumulate and feed
	// Stats; no span pipeline runs). Pools sharing one Telemetry share
	// its registry metrics.
	Telemetry *telemetry.Telemetry
	// Plan enables IOS-scheduled inference: each replica compiles the
	// plan's measured-cost-optimal schedules into its own executors over
	// the shared network and serves batches stage by stage (concurrent
	// operator groups) instead of layer by layer. Nil serves with the plain
	// sequential fast path. The plan must have been optimized for the
	// same config and a compatible MaxBatch (model.OptimizeSchedules).
	Plan *model.SchedulePlan
	// Precision labels the numeric precision the pool's network serves at
	// (empty → fp32). Informational: the network handed to New is already
	// quantized (or not) by the caller. The label joins the request
	// latency histogram, so fp32 and int8 latencies are separate series
	// in /v1/metrics.
	Precision model.Precision
	// Dynamic enables the accuracy-gated dynamic inference path (early-
	// exit negatives, spatial masking, per-request precision routing).
	// Nil serves the static path. Does not compose with Plan: the IOS
	// executors bypass the dynamic seam.
	Dynamic *Dynamic
}

// Dynamic configures the pool's dynamic inference path.
type Dynamic struct {
	// Spec is the calibrated plan from model.PlanDynamic (required).
	// The pool applies its mask spec to the network, so every replica
	// masks into the plan's shared counters.
	Spec *model.DynamicPlan
	// Int8Net, with a router-enabled plan, backs the int8 path: easy
	// clips run on it, hard clips on the fp32 network. It must validate
	// against the same config as the fp32 network. Nil (or a plan
	// without a router) serves every clip on the fp32 path.
	Int8Net *nn.Sequential
}

func (o Options) withDefaults() Options {
	if o.Replicas <= 0 {
		o.Replicas = runtime.GOMAXPROCS(0)
	}
	if o.Telemetry == nil {
		o.Telemetry = telemetry.NewDisabled()
	}
	if o.MaxBatch <= 0 {
		o.MaxBatch = 8
	}
	if o.MaxWait < 0 {
		o.MaxWait = 0
	}
	if o.QueueSize <= 0 {
		o.QueueSize = 64
	}
	if o.Precision == "" {
		o.Precision = model.PrecisionFP32
	}
	return o
}

// request is one queued clip awaiting inference.
type request struct {
	ctx  context.Context
	x    *tensor.Tensor // 1×C×H×W
	id   uint64         // telemetry span ID
	enq  time.Time
	done chan result // buffered(1); worker always delivers
	// path is the serving precision the difficulty router assigned
	// (empty without dynamic routing). It joins the batching key, so a
	// batch never mixes paths.
	path model.Precision
}

// Request classes: each has its own bounded queue and dispatcher lane.
const (
	classInteractive = iota
	classBulk
	numClasses
)

type bulkKey struct{}

// WithBulk marks submissions made with the returned context as bulk
// work: they ride the bulk lane, never share a batch with interactive
// clips, and run on at most max(1, R−1) replicas. Sweep jobs submit
// this way.
func WithBulk(ctx context.Context) context.Context {
	return context.WithValue(ctx, bulkKey{}, true)
}

// IsBulk reports whether ctx was marked with WithBulk.
func IsBulk(ctx context.Context) bool {
	b, _ := ctx.Value(bulkKey{}).(bool)
	return b
}

func classOf(ctx context.Context) int {
	if IsBulk(ctx) {
		return classBulk
	}
	return classInteractive
}

type result struct {
	det metrics.Detection
	err error
}

// job is a formed batch bound for an idle replica.
type job struct {
	reqs []*request
	bulk bool
}

// Pool coalesces single-clip requests into batches and runs them across
// independent model replicas. Create one with New; it is safe for
// concurrent use by any number of goroutines.
type Pool struct {
	opts Options
	// queues are the per-class bounded queues Submit fails fast on.
	queues [numClasses]chan *request
	// work carries formed batches to replicas; the dispatcher sends only
	// for an idle replica. freed carries each finished batch's class back.
	work  chan *job
	freed chan bool
	// held mirrors each lane's count of requests the dispatcher holds in
	// groups (reported in Stats).
	held [numClasses]atomic.Int64

	// curMaxBatch/curMaxWaitNs are the *effective* batching knobs the
	// dispatcher reads each iteration. They start at the configured
	// Options values and move under Retune (the adaptive batching
	// controller's lever); Options.MaxBatch stays the hard ceiling
	// because the batch-size histogram buckets are sized from it.
	curMaxBatch  atomic.Int64
	curMaxWaitNs atomic.Int64

	// closing is closed-state coordination: Submit holds a read lock
	// across its queue send so Close can safely close the queues once no
	// sender is in flight.
	closing closeGate

	dispatcherDone chan struct{}
	workersDone    chan struct{}

	stats *statsAccum
	tel   *telemetry.Telemetry
	reps  []*replica

	// net is the one network every replica runs.
	net *nn.Sequential

	// dyn/router drive the dynamic inference path (nil when off). The
	// router runs in Submit — routing must precede batching because the
	// two paths run different networks. dynFP32 and dynI8 are the
	// dynamic executors over net and the int8 network; each serves every
	// replica (its per-call scratch lives in the replica's arena).
	dyn            *model.DynamicPlan
	router         *model.Router
	dynFP32, dynI8 *model.DynamicExec

	// detect overrides the forward pass; tests substitute a stub to make
	// timing-sensitive behavior deterministic. When nil (production), the
	// zero-allocation inference fast path runs instead.
	detect func(net *nn.Sequential, x *tensor.Tensor) []metrics.Detection
}

// dynExec picks the dynamic executor for a routed path.
func (p *Pool) dynExec(path model.Precision) *model.DynamicExec {
	if path == model.PrecisionInt8 && p.dynI8 != nil {
		return p.dynI8
	}
	return p.dynFP32
}

// replica is one serving lane: the scratch one in-flight batch needs
// over the pool's shared network — an arena for all inference
// temporaries (including the stacked batch tensor) and a reusable
// detection slice. The network, its weights and packed panels exist
// once per pool, so per-replica memory is scratch only.
type replica struct {
	arena *tensor.Arena
	dets  []metrics.Detection
	// exec1/execN are the replica's compiled IOS executors (nil without a
	// plan): exec1 serves single-clip batches, execN everything larger.
	// They are per replica because an executor owns its group arenas.
	exec1 *nn.ScheduleExecutor
	execN *nn.ScheduleExecutor
}

// exec picks the executor for a batch of n clips (nil when unscheduled).
func (rep *replica) exec(n int) *nn.ScheduleExecutor {
	if n == 1 {
		return rep.exec1
	}
	return rep.execN
}

// New builds a pool of opts.Replicas replicas over net, which must have
// been built from cfg (layer kinds, channel counts and geometry are
// checked first). Every replica runs net itself: New packs its weights
// and, with Options.Dynamic, applies the plan's mask spec, and each
// replica owns only its arena. The caller may run Infer on net
// concurrently with the pool, since Infer is reentrant, but must not run
// Forward (training or model.Detect), which writes layer caches, nor
// change net's weights or kernels while the pool serves.
func New(cfg model.Config, net *nn.Sequential, opts Options) (*Pool, error) {
	opts = opts.withDefaults()
	if err := validateConfig(cfg, net); err != nil {
		return nil, fmt.Errorf("batcher: %w", err)
	}
	if opts.Dynamic != nil {
		if opts.Dynamic.Spec == nil {
			return nil, errors.New("batcher: Options.Dynamic needs a plan (model.PlanDynamic)")
		}
		if opts.Plan != nil {
			return nil, errors.New("batcher: dynamic inference does not compose with IOS schedules")
		}
		if opts.Dynamic.Int8Net != nil {
			if err := validateConfig(cfg, opts.Dynamic.Int8Net); err != nil {
				return nil, fmt.Errorf("batcher: int8 path: %w", err)
			}
		}
		opts.Dynamic.Spec.Apply(net)
	}
	nn.PrepareInferenceParallel(net)
	replicas := make([]*replica, opts.Replicas)
	for i := range replicas {
		rep := &replica{arena: tensor.NewArena()}
		if opts.Plan != nil {
			exec1, execN, err := opts.Plan.CompileExecutors(net)
			if err != nil {
				return nil, fmt.Errorf("batcher: replica %d schedule: %w", i, err)
			}
			rep.exec1, rep.execN = exec1, execN
		}
		replicas[i] = rep
	}
	p := &Pool{
		opts:           opts,
		work:           make(chan *job, opts.Replicas),
		freed:          make(chan bool, opts.Replicas),
		dispatcherDone: make(chan struct{}),
		workersDone:    make(chan struct{}),
		stats:          newStatsAccum(opts),
		tel:            opts.Telemetry,
		reps:           replicas,
		net:            net,
	}
	if opts.Dynamic != nil {
		p.dyn = opts.Dynamic.Spec
		p.dynFP32 = model.NewDynamicExec(net, p.dyn)
		if i8 := opts.Dynamic.Int8Net; i8 != nil {
			nn.PrepareInferenceParallel(i8)
			p.dynI8 = model.NewDynamicExec(i8, p.dyn)
			if p.dyn.RouterEnabled {
				p.router = p.dyn.Router
			}
		}
	}
	for c := range p.queues {
		p.queues[c] = make(chan *request, opts.QueueSize)
	}
	p.curMaxBatch.Store(int64(opts.MaxBatch))
	p.curMaxWaitNs.Store(int64(opts.MaxWait))
	p.stats.setTuning(opts.MaxBatch, opts.MaxWait)
	go p.dispatch()
	go p.runWorkers(replicas)
	return p, nil
}

// validateConfig walks the network's module sequence against the layer
// sequence cfg.Build would produce, checking layer kinds, channel counts
// and geometry, so a config/network mismatch is caught at pool
// construction instead of panicking mid-inference. Quantized layers are
// unwrapped to their fp32 base first, so an int8 network validates
// against the same config it was quantized from.
func validateConfig(cfg model.Config, net *nn.Sequential) error {
	if err := cfg.Validate(); err != nil {
		return err
	}
	mods := net.Modules()
	idx := 0
	next := func() nn.Module {
		if idx >= len(mods) {
			return nil
		}
		m := mods[idx]
		idx++
		return nn.Unwrap(m)
	}
	inC := cfg.InBands
	for i, cv := range cfg.Convs {
		f := cfg.ScaledWidth(cv.Filters)
		conv, ok := next().(*nn.Conv2D)
		if !ok || conv.InC != inC || conv.OutC != f ||
			conv.Geom.KH != cv.Kernel || conv.Geom.StrideH != cv.Stride {
			return fmt.Errorf("conv block %d does not match config (want C%d→%d,%d,%d)", i, inC, f, cv.Kernel, cv.Stride)
		}
		if _, ok := next().(*nn.ReLU); !ok {
			return fmt.Errorf("conv block %d missing ReLU", i)
		}
		if cv.PoolSize > 0 {
			pool, ok := next().(*nn.MaxPool2D)
			if !ok || pool.Geom.KH != cv.PoolSize || pool.Geom.StrideH != cv.PoolStride {
				return fmt.Errorf("conv block %d missing P%d,%d", i, cv.PoolSize, cv.PoolStride)
			}
		}
		inC = f
	}
	spp, ok := next().(*nn.SPP)
	if !ok || len(spp.Levels) != len(cfg.SPPLevels) {
		return fmt.Errorf("SPP layer does not match config levels %v", cfg.SPPLevels)
	}
	for i, l := range cfg.SPPLevels {
		if spp.Levels[i] != l {
			return fmt.Errorf("SPP layer does not match config levels %v", cfg.SPPLevels)
		}
	}
	fcw := cfg.ScaledWidth(cfg.FCWidth)
	fc, ok := next().(*nn.Linear)
	if !ok || fc.In != cfg.SPPFeatures() || fc.Out != fcw {
		return fmt.Errorf("hidden FC does not match config (want %d→%d)", cfg.SPPFeatures(), fcw)
	}
	if _, ok := next().(*nn.ReLU); !ok {
		return fmt.Errorf("hidden FC missing ReLU")
	}
	head, ok := next().(*nn.Linear)
	if !ok || head.In != fcw || head.Out != cfg.HeadOut {
		return fmt.Errorf("head does not match config (want %d→%d)", fcw, cfg.HeadOut)
	}
	if idx != len(mods) {
		return fmt.Errorf("network has %d trailing modules beyond the config's architecture", len(mods)-idx)
	}
	return nil
}

// Options returns the pool's resolved configuration.
func (p *Pool) Options() Options { return p.opts }

// Dynamic returns the dynamic inference plan the pool serves with (nil
// when the dynamic path is off). The plan's ExitStats and Stats carry
// the live serving counters.
func (p *Pool) Dynamic() *model.DynamicPlan { return p.dyn }

// Accepting reports whether the pool still admits new submissions (false
// once Close has begun). The /v1/healthz readiness check reads this.
func (p *Pool) Accepting() bool { return !p.closing.isClosed() }

// Tuning returns the pool's effective batching knobs: the live values
// the dispatcher uses, which start at Options.MaxBatch/MaxWait and move
// under Retune.
func (p *Pool) Tuning() (maxBatch int, maxWait time.Duration) {
	return int(p.curMaxBatch.Load()), time.Duration(p.curMaxWaitNs.Load())
}

// retuneWaitCeiling bounds how far an adaptive controller can raise the
// flush wait: beyond this, batching stops trading latency for anything.
const retuneWaitCeiling = 100 * time.Millisecond

// Retune adjusts the effective max-batch and max-wait without restarting
// the pool — the adaptive batching controller's lever. maxBatch clamps
// to [1, Options.MaxBatch] (the configured value is the ceiling: batch
// histogram buckets and replica arenas are sized from it); maxWait
// clamps to [0, 100ms]. Values ≤ 0 for maxBatch or < 0 for maxWait keep
// the current setting. The resolved values are returned and take effect
// on the next dispatch iteration; in-flight batches are unaffected.
func (p *Pool) Retune(maxBatch int, maxWait time.Duration) (int, time.Duration) {
	changed := false
	if maxBatch > 0 {
		if maxBatch > p.opts.MaxBatch {
			maxBatch = p.opts.MaxBatch
		}
		p.curMaxBatch.Store(int64(maxBatch))
		changed = true
	}
	if maxWait >= 0 {
		if maxWait > retuneWaitCeiling {
			maxWait = retuneWaitCeiling
		}
		p.curMaxWaitNs.Store(int64(maxWait))
		changed = true
	}
	mb, mw := p.Tuning()
	if changed {
		p.stats.retune(mb, mw)
	}
	return mb, mw
}

// maxBatch/maxWait are the dispatcher's reads of the effective knobs.
func (p *Pool) maxBatch() int          { return int(p.curMaxBatch.Load()) }
func (p *Pool) maxWait() time.Duration { return time.Duration(p.curMaxWaitNs.Load()) }

// Submit enqueues one 1×C×H×W clip and blocks until its detection is
// ready, the context is done, or the pool rejects it. It is safe to call
// from many goroutines; same-shape, same-class submissions that queue up
// while every replica is busy are coalesced into shared batches. A
// context marked with WithBulk submits on the bulk lane.
func (p *Pool) Submit(ctx context.Context, x *tensor.Tensor) (metrics.Detection, error) {
	if x == nil || x.Rank() != 4 || x.Dim(0) != 1 {
		return metrics.Detection{}, errors.New("batcher: Submit wants a 1×C×H×W tensor")
	}
	id, ok := telemetry.RequestID(ctx)
	if !ok {
		id = p.tel.NextRequestID()
	}
	req := &request{ctx: ctx, x: x, id: id, enq: time.Now(), done: make(chan result, 1)}
	queue := p.queues[classOf(ctx)]
	if p.router != nil {
		req.path = p.router.Route(x, 0)
		p.stats.route(req.path)
	}

	if !p.closing.enter() {
		p.stats.reject()
		return metrics.Detection{}, ErrClosed
	}
	select {
	case queue <- req:
		p.closing.leave()
		p.stats.setQueueDepth(p.queueDepth())
		p.tel.Emit(telemetry.Event{Kind: telemetry.EvEnqueued, Req: req.id, At: req.enq})
	default:
		p.closing.leave()
		p.stats.reject()
		return metrics.Detection{}, ErrQueueFull
	}

	select {
	case res := <-req.done:
		return res.det, res.err
	case <-ctx.Done():
		// Prefer a result that raced the cancellation.
		select {
		case res := <-req.done:
			return res.det, res.err
		default:
		}
		// The request stays queued; the dispatcher drops it when it
		// notices the dead context. The buffered done channel lets the
		// worker deliver without blocking even though nobody reads it.
		p.stats.cancel()
		return metrics.Detection{}, ctx.Err()
	}
}

// Stats returns a snapshot of serving statistics.
func (p *Pool) Stats() Stats {
	st := p.stats.snapshot(len(p.queues[classInteractive]), len(p.queues[classBulk]))
	st.Interactive.Held = int(p.held[classInteractive].Load())
	st.Bulk.Held = int(p.held[classBulk].Load())
	return st
}

// queueDepth is the number of requests waiting in both class queues.
func (p *Pool) queueDepth() int {
	return len(p.queues[classInteractive]) + len(p.queues[classBulk])
}

// Close drains the pool: new Submits fail with ErrClosed, every request
// already accepted in either class is served, and Close returns once all
// replicas are idle. Close is idempotent.
func (p *Pool) Close() {
	if p.closing.close() {
		for _, q := range p.queues {
			close(q)
		}
	}
	<-p.dispatcherDone
	<-p.workersDone
}

// dispatcher is the dispatch goroutine's state: the groups each lane
// holds and the replica accounting workers report into through freed.
type dispatcher struct {
	p     *Pool
	lanes [numClasses]lane
	// idle counts replicas with no batch; bulkBusy counts replicas
	// running a bulk batch, capped at bulkCap = max(1, R−1).
	idle, bulkBusy, bulkCap int
}

// lane is one class's side of the dispatcher: its bounded queue (nil
// once closed and emptied) and the same-key groups received from it.
type lane struct {
	queue  chan *request
	groups []group
	held   int // requests across groups
}

// group is a run of same-key requests that may share a forward pass.
type group struct {
	key  groupKey
	reqs []*request
}

// groupKey groups requests that may share a forward pass: same shape
// and, under dynamic routing, the same precision path.
type groupKey struct {
	c, h, w int
	path    model.Precision
}

func keyOf(req *request) groupKey {
	return groupKey{c: req.x.Dim(1), h: req.x.Dim(2), w: req.x.Dim(3), path: req.path}
}

// dispatch is work-conserving: after every event (an arrival, a freed
// replica, a hold expiring) each idle replica takes the next ready group
// at once, up to MaxBatch clips, so groups grow only while no replica
// can take them. Interactive groups go first; bulk groups run on at most
// bulkCap replicas, so R ≥ 2 always leaves a replica for interactive
// arrivals. Each lane holds at most MaxBatch requests; the rest wait in
// its bounded queue, which fills and turns Submit away (ErrQueueFull).
func (p *Pool) dispatch() {
	defer close(p.dispatcherDone)
	defer close(p.work)

	d := &dispatcher{p: p, idle: len(p.reps), bulkCap: max(1, len(p.reps)-1)}
	for c := range d.lanes {
		d.lanes[c].queue = p.queues[c]
	}
	timer := time.NewTimer(time.Hour)
	if !timer.Stop() {
		<-timer.C
	}
	defer timer.Stop()

	for {
		hold := d.assign(time.Now())
		if d.drained() {
			return
		}
		var in [numClasses]chan *request
		for c := range d.lanes {
			if l := &d.lanes[c]; l.held < p.maxBatch() {
				in[c] = l.queue
			}
		}
		var timerC <-chan time.Time
		if hold > 0 {
			timer.Reset(hold)
			timerC = timer.C
		}
		fired := false
		select {
		case req, ok := <-in[classInteractive]:
			d.accept(classInteractive, req, ok)
		case req, ok := <-in[classBulk]:
			d.accept(classBulk, req, ok)
		case bulk := <-p.freed:
			d.idle++
			if bulk {
				d.bulkBusy--
				p.stats.setBusyBulk(d.bulkBusy)
			}
		case <-timerC:
			fired = true
		}
		if timerC != nil && !fired && !timer.Stop() {
			<-timer.C
		}
	}
}

// accept adds one received request to its lane's group, or marks the
// lane closed when its queue is closed and empty.
func (d *dispatcher) accept(c int, req *request, ok bool) {
	l := &d.lanes[c]
	if !ok {
		l.queue = nil
		return
	}
	l.held++
	d.p.held[c].Store(int64(l.held))
	key := keyOf(req)
	for i := range l.groups {
		if l.groups[i].key == key {
			l.groups[i].reqs = append(l.groups[i].reqs, req)
			return
		}
	}
	l.groups = append(l.groups, group{key: key, reqs: []*request{req}})
}

// drained reports that both queues are closed and emptied and nothing
// is held: Close's drain is complete on the dispatcher's side.
func (d *dispatcher) drained() bool {
	for c := range d.lanes {
		if l := &d.lanes[c]; l.queue != nil || l.held > 0 {
			return false
		}
	}
	return true
}

// assign hands ready groups to idle replicas until one runs out. It
// returns how long until the earliest held group becomes ready (0 when
// none is held or no replica could take it).
func (d *dispatcher) assign(now time.Time) time.Duration {
	for d.idle > 0 {
		c, gi, hold := d.pick(now)
		if gi < 0 {
			return hold
		}
		d.send(c, gi)
	}
	return 0
}

// pick returns the group an idle replica takes next: the oldest ready
// interactive group, else the oldest ready bulk group while bulk is
// under its replica cap. A group is ready when it is full, its oldest
// request has waited MaxWait (0 by default: always), or its lane is
// closed. With nothing ready, gi is -1 and hold is the time until the
// earliest eligible group becomes ready (0 when there is none).
func (d *dispatcher) pick(now time.Time) (c, gi int, hold time.Duration) {
	mb, wait := d.p.maxBatch(), d.p.maxWait()
	for c := range d.lanes {
		if c == classBulk && d.bulkBusy >= d.bulkCap {
			break
		}
		l := &d.lanes[c]
		best := -1
		for i := range l.groups {
			g := &l.groups[i]
			left := wait - now.Sub(g.reqs[0].enq)
			if len(g.reqs) < mb && left > 0 && l.queue != nil {
				if hold == 0 || left < hold {
					hold = left
				}
				continue
			}
			if best < 0 || g.reqs[0].enq.Before(l.groups[best].reqs[0].enq) {
				best = i
			}
		}
		if best >= 0 {
			return c, best, 0
		}
	}
	return 0, -1, hold
}

// send hands up to MaxBatch clips of lane c's group gi to an idle
// replica, dropping requests whose context has already ended. A job is
// sent only for an idle replica, so it never waits behind a busy one.
func (d *dispatcher) send(c, gi int) {
	p := d.p
	l := &d.lanes[c]
	g := &l.groups[gi]
	reqs := g.reqs
	if mb := p.maxBatch(); len(reqs) > mb {
		// A retune lowered MaxBatch below the group: the remainder stays
		// held. The two slices share a backing array but not elements.
		reqs, g.reqs = reqs[:mb:mb], reqs[mb:]
	} else {
		last := len(l.groups) - 1
		copy(l.groups[gi:], l.groups[gi+1:])
		l.groups[last] = group{}
		l.groups = l.groups[:last]
	}
	l.held -= len(reqs)
	p.held[c].Store(int64(l.held))
	live := reqs[:0]
	for _, r := range reqs {
		if r.ctx.Err() != nil {
			// Close the span before delivering: the emit must be in the
			// ring before the waiter can emit EvResponseWritten.
			p.tel.Emit(telemetry.Event{Kind: telemetry.EvInferenceDone, Req: r.id, At: time.Now()})
			r.done <- result{err: r.ctx.Err()}
			continue
		}
		live = append(live, r)
	}
	if len(live) == 0 {
		return
	}
	if p.tel.Enabled() {
		now := time.Now()
		for _, r := range live {
			p.tel.Emit(telemetry.Event{Kind: telemetry.EvBatchFormed, Req: r.id, At: now, Batch: len(live)})
		}
	}
	d.idle--
	bulk := c == classBulk
	if bulk {
		d.bulkBusy++
		p.stats.setBusyBulk(d.bulkBusy)
	}
	p.work <- &job{reqs: live, bulk: bulk}
}

// runWorkers starts one goroutine per replica and closes workersDone when
// the last one drains. A worker reports back through freed after every
// batch; freed holds one slot per replica, so that send never blocks.
func (p *Pool) runWorkers(replicas []*replica) {
	done := make(chan struct{}, len(replicas))
	for id, rep := range replicas {
		go func(id int, rep *replica) {
			defer func() { done <- struct{}{} }()
			for j := range p.work {
				p.runBatch(id, rep, j)
				p.freed <- j.bulk
			}
		}(id, rep)
	}
	for range replicas {
		<-done
	}
	close(p.workersDone)
}

// runBatch stacks a job's clips into one N×C×H×W tensor drawn from the
// replica's arena, runs a single forward pass, and delivers per-request
// results. In the fast path (no stub, no trace hook) the batch tensor,
// every layer temporary and the decoded detections all come from
// replica-owned storage, so a warm replica serves a batch with zero heap
// allocations in the model forward.
func (p *Pool) runBatch(id int, rep *replica, j *job) {
	n := len(j.reqs)
	first := j.reqs[0].x
	c, h, w := first.Dim(1), first.Dim(2), first.Dim(3)
	rep.arena.Reset()
	batch := rep.arena.Get(n, c, h, w)
	stride := c * h * w
	for i, r := range j.reqs {
		copy(batch.Data()[i*stride:(i+1)*stride], r.x.Data())
	}

	// Emit dispatch events and, when the batch carries a trace-sampled
	// request, time the served path through a hook so the sampled span's
	// Chrome trace shows the breakdown: per-layer slices on the plain and
	// dynamic paths, per-stage-group slices on the scheduled (IOS) path.
	var hook nn.LayerHook
	var stageHook nn.StageHook
	if p.tel.Enabled() {
		start := time.Now()
		var sampled []uint64
		for _, r := range j.reqs {
			p.tel.Emit(telemetry.Event{Kind: telemetry.EvDispatch, Req: r.id, At: start, Replica: id, Batch: n})
			if p.tel.Sampled(r.id) {
				sampled = append(sampled, r.id)
			}
		}
		if len(sampled) > 0 {
			if rep.exec(n) != nil {
				stageHook = func(stage, group, groups int, label string, at time.Time, d time.Duration) {
					for _, rid := range sampled {
						p.tel.Emit(telemetry.Event{Kind: telemetry.EvStageRun,
							Req: rid, At: at, Dur: d, Replica: id,
							Stage: stage, Group: group, Groups: groups, Name: label})
					}
				}
			} else {
				hook = func(layer int, m nn.Module, d time.Duration) {
					name := model.LayerName(m)
					for _, rid := range sampled {
						p.tel.Emit(telemetry.Event{Kind: telemetry.EvLayerForward,
							Req: rid, Layer: layer, Name: name, Dur: d, Replica: id})
					}
				}
			}
		}
	}

	// Record stats and emit EvInferenceDone *before* delivering each
	// result: once a waiter unblocks it may immediately read /v1/stats or
	// emit EvResponseWritten, so both must already be ordered ahead.
	dets, err := p.safeDetect(rep, batch, j.reqs[0].path, hook, stageHook)
	if err != nil {
		now := time.Now()
		for _, r := range j.reqs {
			p.tel.Emit(telemetry.Event{Kind: telemetry.EvInferenceDone, Req: r.id, At: now})
			r.done <- result{err: err}
		}
		return
	}
	now := time.Now()
	lats := make([]time.Duration, n)
	for i, r := range j.reqs {
		lats[i] = now.Sub(r.enq)
	}
	p.stats.record(id, n, lats, j.reqs[0].path, j.bulk)
	if p.dyn != nil {
		p.stats.setDynamicRates(p.dyn.ExitStats.Rate(), p.dyn.Stats.Rate())
	}
	for i, r := range j.reqs {
		p.tel.Emit(telemetry.Event{Kind: telemetry.EvInferenceDone, Req: r.id, At: now})
		r.done <- result{det: dets[i]}
	}
}

// safeDetect converts a panicking forward pass (bad shapes reaching a
// layer, etc.) into an error for this batch instead of killing the worker.
// A test stub in p.detect overrides inference; otherwise the dynamic
// executor runs when configured (picked by the batch's routed path),
// then the replica's IOS executor, else the plain zero-alloc inference
// fast path. Static paths produce bit-identical detections for the same
// weights and input; the dynamic path is bit-identical whenever its exit
// head is disabled or does not fire. The trace hooks (nil on untraced
// batches) time whichever path runs without changing it, so a traced
// batch answers exactly as an untraced one.
func (p *Pool) safeDetect(rep *replica, x *tensor.Tensor, path model.Precision, hook nn.LayerHook, stageHook nn.StageHook) (dets []metrics.Detection, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("batcher: inference failed: %v", r)
		}
	}()
	switch {
	case p.detect != nil:
		dets = p.detect(p.net, x)
	case p.dynFP32 != nil:
		rep.dets = p.dynExec(path).InferDetect(x, rep.arena, rep.dets, hook)
		dets = rep.dets
	case rep.exec1 != nil:
		rep.dets = model.InferDetectScheduled(rep.exec(x.Dim(0)), x, rep.arena, rep.dets, stageHook)
		dets = rep.dets
	default:
		rep.dets = model.InferDetectHook(p.net, x, rep.arena, rep.dets, hook)
		dets = rep.dets
	}
	if len(dets) != x.Dim(0) {
		return nil, fmt.Errorf("batcher: detector returned %d results for batch of %d", len(dets), x.Dim(0))
	}
	return dets, nil
}
