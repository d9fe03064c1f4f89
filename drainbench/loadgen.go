package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"drainnet/internal/serve"
)

// poissonSchedule returns n send offsets of a Poisson arrival process at
// rate requests per second. The same rng state gives the same schedule.
func poissonSchedule(rng *rand.Rand, rate float64, n int) []time.Duration {
	out := make([]time.Duration, n)
	t := 0.0
	for i := range out {
		t += rng.ExpFloat64() / rate
		out[i] = time.Duration(t * float64(time.Second))
	}
	return out
}

// op is one scheduled /v1/detect request.
type op struct {
	due  time.Duration // offset from the phase start
	clip int           // index into the clip set
}

// outcome is what one request returned. Latency is timed from the due
// time, so a generator stall counts against the server's latency the way
// it would against a user's.
type outcome struct {
	clip      int
	status    int // 0 for a transport error or timeout
	latencyMs float64
	lagMs     float64 // how late the request left against its schedule
	hit       serve.Hit
	err       error
}

func (o outcome) ok() bool { return o.err == nil && o.status == http.StatusOK }

// loadgen sends scheduled requests over at most conns keep-alive
// connections: an open loop whose backlog grows at the client when the
// server falls behind.
type loadgen struct {
	client *http.Client
	url    string
	conns  int
	bodies [][]byte // pre-encoded request bodies, one per clip
}

func newLoadgen(base string, conns int, bodies [][]byte) *loadgen {
	tr := &http.Transport{
		MaxConnsPerHost:     conns,
		MaxIdleConnsPerHost: conns,
		DisableCompression:  true,
	}
	return &loadgen{
		client: &http.Client{Transport: tr, Timeout: 10 * time.Second},
		url:    base + "/v1/detect",
		conns:  conns,
		bodies: bodies,
	}
}

func (g *loadgen) close() { g.client.CloseIdleConnections() }

// run sends ops at their due times and returns the outcomes of the ops
// it sent, in schedule order. Closing stop (nil = never) ends pacing:
// ops not yet due are dropped, requests in flight complete.
func (g *loadgen) run(stop <-chan struct{}, ops []op) []outcome {
	out := make([]outcome, len(ops))
	// Sized to every op so the pacing loop never blocks on a busy
	// sender: a late send must show up as lag, not as a shifted schedule.
	ready := make(chan int, len(ops))
	start := time.Now()
	var wg sync.WaitGroup
	wg.Add(g.conns)
	for w := 0; w < g.conns; w++ {
		go func() {
			defer wg.Done()
			for i := range ready {
				out[i] = g.send(start, ops[i])
			}
		}()
	}
	sent := 0
pace:
	for _, o := range ops {
		if d := time.Until(start.Add(o.due)); d > 0 {
			select {
			case <-stop:
				break pace
			case <-time.After(d):
			}
		}
		ready <- sent
		sent++
	}
	close(ready)
	wg.Wait()
	return out[:sent]
}

// closedLoop keeps every connection busy for d, each sending its next
// request as soon as the previous one returns: the rate the server
// sustains for conns waiting clients. Clips cycle in the given order.
func (g *loadgen) closedLoop(d time.Duration, order []int) ([]outcome, float64) {
	var (
		mu   sync.Mutex
		outs []outcome
		next atomic.Int64
		wg   sync.WaitGroup
	)
	start := time.Now()
	deadline := start.Add(d)
	wg.Add(g.conns)
	for w := 0; w < g.conns; w++ {
		go func() {
			defer wg.Done()
			for time.Now().Before(deadline) {
				i := int(next.Add(1)) - 1
				o := g.send(time.Now(), op{clip: order[i%len(order)]})
				mu.Lock()
				outs = append(outs, o)
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	return outs, time.Since(start).Seconds()
}

func (g *loadgen) send(start time.Time, o op) outcome {
	due := start.Add(o.due)
	res := outcome{clip: o.clip, lagMs: ms(time.Since(due))}
	req, err := http.NewRequest(http.MethodPost, g.url, bytes.NewReader(g.bodies[o.clip]))
	if err != nil {
		res.err = err
		return res
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := g.client.Do(req)
	if err != nil {
		res.err = err
		res.latencyMs = ms(time.Since(due))
		return res
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	res.latencyMs = ms(time.Since(due))
	res.status = resp.StatusCode
	if err != nil {
		res.err = err
		return res
	}
	if resp.StatusCode == http.StatusOK {
		res.err = checkHit(body, &res.hit)
	}
	return res
}

// checkHit parses a 200 /v1/detect body and checks it: a score in [0,1]
// and a box in normalized coordinates.
func checkHit(body []byte, h *serve.Hit) error {
	if err := json.Unmarshal(body, h); err != nil {
		return fmt.Errorf("detect response does not parse: %v", err)
	}
	if h.Score < 0 || h.Score > 1 {
		return fmt.Errorf("detect score %v outside [0,1]", h.Score)
	}
	b := h.Box
	if b == nil {
		return fmt.Errorf("detect response has no box")
	}
	for _, v := range []float64{b.CX, b.CY, b.W, b.H} {
		if v < 0 || v > 1 {
			return fmt.Errorf("detect box %+v not normalized", *b)
		}
	}
	return nil
}

// phaseOps draws n requests at rate from rng, cycling through the clips
// in a seeded order.
func phaseOps(rng *rand.Rand, rate float64, n, clips int) []op {
	due := poissonSchedule(rng, rate, n)
	order := rng.Perm(clips)
	ops := make([]op, n)
	for i := range ops {
		ops[i] = op{due: due[i], clip: order[i%clips]}
	}
	return ops
}

// phaseStats summarizes a phase's outcomes.
type phaseStats struct {
	attempted, failed int
	lat, lag          []float64 // ms; latency counts only successes
}

func summarize(outs []outcome) phaseStats {
	s := phaseStats{attempted: len(outs)}
	for _, o := range outs {
		s.lag = append(s.lag, o.lagMs)
		if !o.ok() {
			s.failed++
			continue
		}
		s.lat = append(s.lat, o.latencyMs)
	}
	return s
}

// tailLatency is the q-quantile of latency where every failed request
// counts as missing any limit (+Inf).
func (s phaseStats) tailLatency(q float64) (float64, bool) {
	xs := append([]float64(nil), s.lat...)
	for i := 0; i < s.failed; i++ {
		xs = append(xs, inf)
	}
	return percentile(xs, q)
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
