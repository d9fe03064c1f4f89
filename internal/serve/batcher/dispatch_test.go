package batcher

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"drainnet/internal/metrics"
	"drainnet/internal/nn"
	"drainnet/internal/tensor"
)

// gate is a controllable forward pass: each batch reports the tags
// (first pixels) of its clips on entered, then blocks until released.
type gate struct {
	entered chan []float32
	release chan struct{}
	once    sync.Once
}

// newGate installs a gate as p's forward pass. Its cleanup releases
// every blocked batch before the pool's own cleanup Close runs.
func newGate(t *testing.T, p *Pool) *gate {
	g := &gate{entered: make(chan []float32, 64), release: make(chan struct{}, 64)}
	inner := stubDetect(nil)
	p.detect = func(net *nn.Sequential, x *tensor.Tensor) []metrics.Detection {
		stride := x.Dim(1) * x.Dim(2) * x.Dim(3)
		tags := make([]float32, x.Dim(0))
		for i := range tags {
			tags[i] = x.Data()[i*stride]
		}
		g.entered <- tags
		<-g.release
		return inner(net, x)
	}
	t.Cleanup(g.open)
	return g
}

// next returns the tags of the next batch to enter the forward pass.
func (g *gate) next(t *testing.T) []float32 {
	t.Helper()
	select {
	case tags := <-g.entered:
		return tags
	case <-time.After(10 * time.Second):
		t.Fatal("no batch entered the forward pass")
		return nil
	}
}

// step lets one blocked batch finish.
func (g *gate) step() { g.release <- struct{}{} }

// open lets every blocked and future batch through.
func (g *gate) open() { g.once.Do(func() { close(g.release) }) }

// tagged is a 40×40 clip whose pixels all equal tag.
func tagged(tag float32) *tensor.Tensor {
	x := tensor.New(1, 4, 40, 40)
	for i := range x.Data() {
		x.Data()[i] = tag
	}
	return x
}

// submitAsync submits a tagged clip in the background; the returned
// channel yields its error.
func submitAsync(p *Pool, ctx context.Context, tag float32) <-chan error {
	done := make(chan error, 1)
	go func() {
		_, err := p.Submit(ctx, tagged(tag))
		done <- err
	}()
	return done
}

// waitFor polls p's stats until cond holds; the deadline only bounds a
// broken test, it asserts nothing about timing.
func waitFor(t *testing.T, p *Pool, what string, cond func(Stats) bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for !cond(p.Stats()) {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(100 * time.Microsecond)
	}
}

func gatedPool(t *testing.T, opts Options) (*Pool, *gate) {
	p := newTestPool(t, opts)
	return p, newGate(t, p)
}

func sameTags(got []float32, want ...float32) bool {
	if len(got) != len(want) {
		return false
	}
	for i := range got {
		if got[i] != want[i] {
			return false
		}
	}
	return true
}

func TestZeroMaxWaitIsWorkConserving(t *testing.T) {
	p, g := gatedPool(t, Options{Replicas: 1, MaxBatch: 8, QueueSize: 16})
	if p.Options().MaxWait != 0 {
		t.Fatalf("zero-value MaxWait resolved to %v, want 0 (work-conserving)", p.Options().MaxWait)
	}
	if _, w := p.Tuning(); w != 0 {
		t.Fatalf("effective max-wait %v, want 0", w)
	}
	// A lone request on an idle pool reaches the replica as a batch of
	// one without any hold, even though MaxBatch could take 7 more.
	done := submitAsync(p, context.Background(), 1)
	if tags := g.next(t); !sameTags(tags, 1) {
		t.Fatalf("first batch %v, want [1]", tags)
	}
	g.step()
	if err := <-done; err != nil {
		t.Fatal(err)
	}
}

func TestBacklogCoalescesWhileReplicaBusy(t *testing.T) {
	p, g := gatedPool(t, Options{Replicas: 1, MaxBatch: 4, QueueSize: 16})
	errs := []<-chan error{submitAsync(p, context.Background(), 1)}
	if tags := g.next(t); !sameTags(tags, 1) {
		t.Fatalf("first batch %v, want [1]", tags)
	}
	for _, tag := range []float32{2, 3, 4} {
		errs = append(errs, submitAsync(p, context.Background(), tag))
	}
	waitFor(t, p, "3 held requests", func(s Stats) bool { return s.Interactive.Held == 3 })
	g.step()
	// The backlog that built up behind the busy replica rides one batch.
	if tags := g.next(t); len(tags) != 3 {
		t.Fatalf("backlog batch %v, want 3 clips", tags)
	}
	g.step()
	for _, e := range errs {
		if err := <-e; err != nil {
			t.Fatal(err)
		}
	}
	if st := p.Stats(); st.Batches != 2 || st.Served != 4 {
		t.Fatalf("batches %d served %d, want 2/4", st.Batches, st.Served)
	}
}

func TestInteractiveBeforeOlderBulk(t *testing.T) {
	p, g := gatedPool(t, Options{Replicas: 1, MaxBatch: 4, QueueSize: 16})
	bulk := WithBulk(context.Background())
	errs := []<-chan error{submitAsync(p, context.Background(), 1)}
	g.next(t)
	errs = append(errs, submitAsync(p, bulk, 20), submitAsync(p, bulk, 20))
	waitFor(t, p, "2 held bulk requests", func(s Stats) bool { return s.Bulk.Held == 2 })
	errs = append(errs, submitAsync(p, context.Background(), 10))
	waitFor(t, p, "1 held interactive request", func(s Stats) bool { return s.Interactive.Held == 1 })
	g.step()
	if tags := g.next(t); !sameTags(tags, 10) {
		t.Fatalf("after the busy batch the replica took %v, want the interactive [10]", tags)
	}
	g.step()
	if tags := g.next(t); !sameTags(tags, 20, 20) {
		t.Fatalf("then %v, want the bulk [20 20]", tags)
	}
	g.step()
	for _, e := range errs {
		if err := <-e; err != nil {
			t.Fatal(err)
		}
	}
}

func TestBulkNeverSharesAnInteractiveBatch(t *testing.T) {
	p, g := gatedPool(t, Options{Replicas: 1, MaxBatch: 8, QueueSize: 16})
	bulk := WithBulk(context.Background())
	errs := []<-chan error{submitAsync(p, context.Background(), 1)}
	g.next(t)
	// Same shape, both classes queued behind the busy replica.
	for i := 0; i < 3; i++ {
		errs = append(errs, submitAsync(p, bulk, 20), submitAsync(p, context.Background(), 10))
	}
	waitFor(t, p, "3+3 held requests", func(s Stats) bool { return s.Interactive.Held == 3 && s.Bulk.Held == 3 })
	g.open()
	for _, want := range []float32{10, 20} {
		tags := g.next(t)
		for _, tag := range tags {
			if tag != want {
				t.Fatalf("batch %v mixes classes, want only %v", tags, want)
			}
		}
	}
	for _, e := range errs {
		if err := <-e; err != nil {
			t.Fatal(err)
		}
	}
	st := p.Stats()
	if st.Bulk.Served != 3 || st.Bulk.Batches != 1 || st.Interactive.Served != 4 || st.Interactive.Batches != 2 {
		t.Fatalf("per-class stats interactive %+v bulk %+v", st.Interactive, st.Bulk)
	}
}

func TestBulkLeavesAReplicaForInteractive(t *testing.T) {
	for _, replicas := range []int{2, 3} {
		t.Run(fmt.Sprintf("R=%d", replicas), func(t *testing.T) {
			p, g := gatedPool(t, Options{Replicas: replicas, MaxBatch: 1, QueueSize: 16})
			bulk := WithBulk(context.Background())
			var errs []<-chan error
			for i := 0; i < replicas; i++ {
				errs = append(errs, submitAsync(p, bulk, 20))
			}
			// R−1 bulk batches run; the last bulk clip is held although a
			// replica is idle.
			for i := 0; i < replicas-1; i++ {
				if tags := g.next(t); !sameTags(tags, 20) {
					t.Fatalf("batch %v, want bulk [20]", tags)
				}
			}
			waitFor(t, p, "1 held bulk request", func(s Stats) bool { return s.Bulk.Held == 1 })
			if st := p.Stats(); st.BusyBulkReplicas != replicas-1 {
				t.Fatalf("busy bulk replicas %d, want %d", st.BusyBulkReplicas, replicas-1)
			}
			// An interactive arrival is served on the free replica while
			// every bulk batch is still blocked.
			errs = append(errs, submitAsync(p, context.Background(), 10))
			if tags := g.next(t); !sameTags(tags, 10) {
				t.Fatalf("batch %v, want interactive [10] on the free replica", tags)
			}
			g.open()
			if tags := g.next(t); !sameTags(tags, 20) {
				t.Fatalf("batch %v, want the held bulk [20]", tags)
			}
			for _, e := range errs {
				if err := <-e; err != nil {
					t.Fatal(err)
				}
			}
		})
	}
}

func TestBulkProgressesOnOneReplica(t *testing.T) {
	p, g := gatedPool(t, Options{Replicas: 1, MaxBatch: 2, QueueSize: 16})
	g.open()
	bulk := WithBulk(context.Background())
	var errs []<-chan error
	for i := 0; i < 5; i++ {
		errs = append(errs, submitAsync(p, bulk, 20))
	}
	for _, e := range errs {
		if err := <-e; err != nil {
			t.Fatal(err)
		}
	}
	if st := p.Stats(); st.Bulk.Served != 5 || st.Interactive.Served != 0 {
		t.Fatalf("bulk served %d interactive %d, want 5/0", st.Bulk.Served, st.Interactive.Served)
	}
}

func TestEachLaneQueueFills(t *testing.T) {
	p, g := gatedPool(t, Options{Replicas: 1, MaxBatch: 1, QueueSize: 1})
	bulk := WithBulk(context.Background())
	errs := []<-chan error{submitAsync(p, context.Background(), 1)}
	g.next(t)
	// Per class while the replica is blocked: 1 held, 1 queued.
	for _, ctx := range []context.Context{context.Background(), bulk} {
		errs = append(errs, submitAsync(p, ctx, 2))
	}
	waitFor(t, p, "1 held per class", func(s Stats) bool { return s.Interactive.Held == 1 && s.Bulk.Held == 1 })
	for _, ctx := range []context.Context{context.Background(), bulk} {
		errs = append(errs, submitAsync(p, ctx, 3))
	}
	waitFor(t, p, "1 queued per class", func(s Stats) bool {
		return s.Interactive.QueueDepth == 1 && s.Bulk.QueueDepth == 1
	})
	for _, ctx := range []context.Context{context.Background(), bulk} {
		if _, err := p.Submit(ctx, tagged(4)); !errors.Is(err, ErrQueueFull) {
			t.Fatalf("overflow submit (bulk=%v): err=%v, want ErrQueueFull", IsBulk(ctx), err)
		}
	}
	g.open()
	for _, e := range errs {
		if err := <-e; err != nil {
			t.Fatal(err)
		}
	}
	if st := p.Stats(); st.Served != 5 || st.Rejected != 2 {
		t.Fatalf("served %d rejected %d, want 5/2", st.Served, st.Rejected)
	}
}

func TestCloseDrainsBothLanes(t *testing.T) {
	p, g := gatedPool(t, Options{Replicas: 2, MaxBatch: 2, QueueSize: 8})
	bulk := WithBulk(context.Background())
	errs := []<-chan error{submitAsync(p, context.Background(), 1), submitAsync(p, bulk, 2)}
	g.next(t)
	g.next(t)
	for i := 0; i < 5; i++ {
		errs = append(errs, submitAsync(p, context.Background(), 10), submitAsync(p, bulk, 20))
	}
	waitFor(t, p, "every request accepted", func(s Stats) bool {
		return s.Interactive.Held+s.Interactive.QueueDepth == 5 && s.Bulk.Held+s.Bulk.QueueDepth == 5
	})
	closed := make(chan struct{})
	go func() {
		p.Close()
		close(closed)
	}()
	waitFor(t, p, "the pool to stop accepting", func(Stats) bool { return !p.Accepting() })
	g.open()
	select {
	case <-closed:
	case <-time.After(10 * time.Second):
		t.Fatal("Close did not drain")
	}
	for i, e := range errs {
		if err := <-e; err != nil {
			t.Fatalf("request %d failed during drain: %v", i, err)
		}
	}
	if st := p.Stats(); st.Interactive.Served != 6 || st.Bulk.Served != 6 {
		t.Fatalf("served interactive %d bulk %d, want 6/6", st.Interactive.Served, st.Bulk.Served)
	}
	if _, err := p.Submit(bulk, tagged(1)); !errors.Is(err, ErrClosed) {
		t.Fatalf("bulk submit after close: err=%v, want ErrClosed", err)
	}
}
