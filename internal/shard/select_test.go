package shard

import (
	"context"
	"fmt"
	"sync/atomic"
	"testing"

	"repro/internal/engine"
	"repro/internal/graph"
	"repro/internal/testleak"
)

// failNthGainConn wraps a real worker conn; its failAt-th PartialGain call
// answers a non-retryable internal error, and every later call succeeds.
type failNthGainConn struct {
	Conn
	failAt int64
	calls  atomic.Int64
	fired  atomic.Bool
}

func (c *failNthGainConn) PartialGain(ctx context.Context, req engine.PartialGainRequest) (*engine.PartialGainResult, error) {
	if c.calls.Add(1) == c.failAt {
		c.fired.Store(true)
		return nil, &engine.Error{Code: engine.CodeInternal, Message: "injected: worker failed mid-select"}
	}
	return c.Conn.PartialGain(ctx, req)
}

// A shard failing mid-select must fail the selection with that shard's
// code — not the draining or timeout its cancellation causes elsewhere —
// and a stream must emit no round once the failure has happened: the
// driver commits a round's pick after its sweep, so a pick made over the
// failed sweep's placeholder gains must not surface.
func TestSelectShardFailsMidRun(t *testing.T) {
	testleak.Check(t)
	g := testGraph(t, 400, 11)
	graphs := map[string]*graph.Graph{"test": g}
	for name, strategy := range map[string]engine.Strategy{"lazy": engine.Lazy, "plain": engine.Plain} {
		for _, stream := range []bool{false, true} {
			t.Run(fmt.Sprintf("%s/stream=%t", name, stream), func(t *testing.T) {
				mkEngine := func() *engine.Engine {
					eng, err := engine.New(engine.Config{Graphs: graphs})
					if err != nil {
						t.Fatal(err)
					}
					t.Cleanup(func() { eng.Close() })
					return eng
				}
				// Round 1 costs at most two calls per shard (the empty-set
				// sweep over two workers), so the third lands in a later round.
				bad := &failNthGainConn{Conn: NewLocalConn(mkEngine(), "local/1"), failAt: 3}
				co, err := New(Config{Graphs: graphs}, []Conn{NewLocalConn(mkEngine(), "local/0"), bad})
				if err != nil {
					t.Fatal(err)
				}
				t.Cleanup(func() { co.Close() })
				req := engine.SelectRequest{Graph: "test", K: 7, L: 5, R: 25, Seed: 9, Strategy: strategy, Workers: 2}
				emitted := 0
				if stream {
					_, err = co.SelectStream(context.Background(), req, func(engine.Round) error {
						if bad.fired.Load() {
							t.Errorf("round %d emitted after the shard failed", emitted+1)
						}
						emitted++
						return nil
					})
				} else {
					_, err = co.Select(context.Background(), req)
				}
				if !bad.fired.Load() {
					t.Fatalf("the injected failure never fired (%d calls)", bad.calls.Load())
				}
				if engine.CodeOf(err) != engine.CodeInternal {
					t.Fatalf("select over a failing shard: code %q (err %v), want internal", engine.CodeOf(err), err)
				}
				if stream && emitted == 0 {
					t.Fatalf("no round emitted before the failure; the test no longer fails mid-run")
				}
			})
		}
	}
}
