package main

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"time"

	"repro/client"
	"repro/internal/engine"
)

// sample is one reply kept for verification. A read in a workload with
// mutations ran at some graph epoch in [epochLo, epochHi].
type sample struct {
	o                *op
	r                *reply
	epochLo, epochHi uint64
}

// outcome is what one drive measured.
type outcome struct {
	lat       [numKinds][]time.Duration
	attempted int
	failed    int
	errCodes  map[string]int
	late      []time.Duration   // how late each send started
	taken     []int             // ops taken per lane
	sent      [][]time.Duration // per lane, when each op was sent, by sequence
	samples   []sample
	elapsed   time.Duration
}

func (o *outcome) all() []time.Duration {
	var out []time.Duration
	for _, l := range o.lat {
		out = append(out, l...)
	}
	return out
}

// driveOpts bounds one drive: measured runs stop taking ops after window;
// replays send exactly limit[i] ops of lane i, and a closed lane's op no
// earlier than pace gives, so reads meet the writes they met when recorded.
type driveOpts struct {
	window time.Duration
	limit  []int
	pace   [][]time.Duration
	sample bool // keep the first maxSamples replies of each class for verification
}

// maxSamples caps the replies kept per request class.
const maxSamples = 24

// drive runs the lanes against tg. Open lanes send each op at its due
// time and time it from then, so a stall also delays the ops queued
// behind it; closed lanes send the next op when the previous one returns.
// Each sender is one goroutine; their total is the workload's client count.
func drive(tg target, lanes []*lane, opt driveOpts) *outcome {
	out := &outcome{errCodes: map[string]int{}, taken: make([]int, len(lanes)), sent: make([][]time.Duration, len(lanes))}
	var mu sync.Mutex
	var kept [numKinds]int
	var reqID, mutStarted, mutDone atomic.Int64
	start := time.Now()
	var wg sync.WaitGroup
	for li, l := range lanes {
		var lmu sync.Mutex
		for s := 0; s < l.senders; s++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				free := time.Now()
				for {
					lmu.Lock()
					if opt.limit != nil && out.taken[li] >= opt.limit[li] ||
						opt.limit == nil && !l.open && time.Since(start) >= opt.window {
						lmu.Unlock()
						return
					}
					o := l.gen()
					if opt.limit == nil && l.open && o.due >= opt.window {
						lmu.Unlock()
						return
					}
					seq := out.taken[li]
					out.taken[li]++
					lmu.Unlock()

					due := free
					switch {
					case l.open:
						due = start.Add(o.due)
					case opt.pace != nil && seq < len(opt.pace[li]):
						due = maxTime(free, start.Add(opt.pace[li][seq]))
					}
					time.Sleep(time.Until(due))
					sent := time.Now()
					lo := uint64(mutDone.Load())
					if o.kind == opMutate {
						mutStarted.Add(1)
					}
					ctx, cancel := context.WithTimeout(withRequest(context.Background(), reqID.Add(1)), time.Minute)
					r, err := tg.call(ctx, o)
					cancel()
					end := time.Now()
					free = end
					if err == nil && o.kind == opMutate {
						for {
							d := mutDone.Load()
							if int64(r.epoch) <= d || mutDone.CompareAndSwap(d, int64(r.epoch)) {
								break
							}
						}
					}
					mu.Lock()
					for len(out.sent[li]) <= seq {
						out.sent[li] = append(out.sent[li], 0)
					}
					out.sent[li][seq] = sent.Sub(start)
					out.attempted++
					out.late = append(out.late, sent.Sub(due))
					if err != nil {
						out.failed++
						out.errCodes[errCode(err)]++
					} else {
						out.lat[o.kind] = append(out.lat[o.kind], end.Sub(due))
						if opt.sample && o.kind != opMutate && kept[o.kind] < maxSamples {
							kept[o.kind]++
							out.samples = append(out.samples, sample{o: o, r: r, epochLo: lo, epochHi: uint64(mutStarted.Load())})
						}
					}
					mu.Unlock()
				}
			}()
		}
	}
	wg.Wait()
	out.elapsed = time.Since(start)
	return out
}

// errCode names a failure for the record: the wire or engine error code,
// or client_timeout.
func errCode(err error) string {
	var ee *engine.Error
	switch {
	case errors.Is(err, context.DeadlineExceeded):
		return "client_timeout"
	case errors.As(err, &ee):
		return string(ee.Code)
	}
	return client.CodeOf(err)
}

func maxTime(a, b time.Time) time.Time {
	if a.After(b) {
		return a
	}
	return b
}
