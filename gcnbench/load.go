package main

import (
	"math"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/clock"
	"repro/internal/xrand"
)

// serveFunc sends request i on behalf of client (or sender) c. It
// returns when the call was made, when it returned, and whether the
// request succeeded; any output check runs after the return time is
// taken. It must not panic.
type serveFunc func(c, i int) (call, ret time.Time, ok bool)

// closedResult is one closed-loop phase.
type closedResult struct {
	LatMs     []float64 // call to return, per request
	GapMs     []float64 // a client's previous return to its next call
	Attempted int
	Failed    int
	Elapsed   time.Duration
}

// runClosed runs clients closed-loop clients for dur: each sends its
// next request only after the previous one returned. Request indices
// are per client.
func runClosed(clients int, dur time.Duration, serve serveFunc) closedResult {
	type clientRes struct {
		lat, gap []float64
		failed   int
	}
	res := make([]clientRes, clients)
	start := time.Now()
	deadline := start.Add(dur)
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			r := &res[c]
			r.lat = make([]float64, 0, 1024)
			r.gap = make([]float64, 0, 1024)
			prev := time.Time{}
			for i := 0; time.Now().Before(deadline); i++ {
				call, ret, ok := serve(c, i)
				if !prev.IsZero() {
					r.gap = append(r.gap, ms(call.Sub(prev)))
				}
				prev = ret
				r.lat = append(r.lat, ms(ret.Sub(call)))
				if !ok {
					r.failed++
				}
			}
		}(c)
	}
	wg.Wait()
	out := closedResult{Elapsed: time.Since(start)}
	for _, r := range res {
		out.LatMs = append(out.LatMs, r.lat...)
		out.GapMs = append(out.GapMs, r.gap...)
		out.Failed += r.failed
	}
	out.Attempted = len(out.LatMs)
	return out
}

// poissonSchedule returns the arrival offsets of a Poisson process at
// rate req/s over dur, drawn from seed.
func poissonSchedule(rate float64, dur time.Duration, seed uint64) []time.Duration {
	rng := xrand.New(seed)
	offs := make([]time.Duration, 0, int(rate*dur.Seconds()*1.2)+16)
	t := 0.0
	for {
		t += -math.Log(1-rng.Float64()) / rate
		off := time.Duration(t * float64(time.Second))
		if off >= dur {
			return offs
		}
		offs = append(offs, off)
	}
}

// openResult is one open-loop phase.
type openResult struct {
	LatMs     []float64 // due time to completion, per request
	LateMs    []float64 // how late the generator sent each request
	Backlog   []int     // requests sent but not completed, at each send
	Attempted int
	Failed    int
	Elapsed   time.Duration // first due time to last completion
}

// runOpen sends one request per schedule offset from a single
// generator goroutine and serves them with senders sender goroutines.
// Each request is timed from its due time, not from when a sender
// picked it up, so a stalled request charges its delay to every
// request queued behind it. The queue holds the whole schedule, so the
// generator never blocks and never drops a request.
func runOpen(clk clock.Clock, offsets []time.Duration, senders int, serve serveFunc) openResult {
	n := len(offsets)
	res := openResult{
		LatMs:     make([]float64, n),
		LateMs:    make([]float64, n),
		Backlog:   make([]int, n),
		Attempted: n,
	}
	done := make([]time.Time, n)
	queue := make(chan int, n)
	var completed atomic.Int64
	var failed atomic.Int64
	var wg sync.WaitGroup
	for s := 0; s < senders; s++ {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			for i := range queue {
				_, ret, ok := serve(s, i)
				if !ok {
					failed.Add(1)
				}
				done[i] = ret
				completed.Add(1)
			}
		}(s)
	}
	start := clk.Now()
	timer := clk.NewTimer()
	for i, off := range offsets {
		due := start.Add(off)
		if d := due.Sub(clk.Now()); d > 0 {
			timer.Reset(d)
			<-timer.C()
		}
		res.LateMs[i] = ms(clk.Now().Sub(due))
		res.Backlog[i] = i - int(completed.Load())
		queue <- i
	}
	close(queue)
	wg.Wait()
	last := start
	for i, off := range offsets {
		res.LatMs[i] = ms(done[i].Sub(start.Add(off)))
		if done[i].After(last) {
			last = done[i]
		}
	}
	res.Failed = int(failed.Load())
	res.Elapsed = last.Sub(start)
	return res
}

// backlogGrows reports whether the mean backlog over the second half
// of the sends exceeds that over the first half by more than slack
// requests: a queue the servers are not keeping up with.
func backlogGrows(backlog []int, slack int) bool {
	n := len(backlog)
	if n < 2 {
		return false
	}
	var first, second float64
	for i, b := range backlog {
		if i < n/2 {
			first += float64(b)
		} else {
			second += float64(b)
		}
	}
	return second/float64(n-n/2)-first/float64(n/2) > float64(slack)
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
