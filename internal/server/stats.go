package server

import (
	"sync/atomic"

	"repro/internal/latency"
)

// endpointMetrics tracks one route.
type endpointMetrics struct {
	requests atomic.Int64
	errors   atomic.Int64
	lat      latency.Histogram
}

// EndpointSnapshot is the JSON form of endpointMetrics.
type EndpointSnapshot struct {
	Requests int64            `json:"requests"`
	Errors   int64            `json:"errors"`
	Latency  latency.Snapshot `json:"latency"`
}

func (m *endpointMetrics) Snapshot(withBuckets bool) EndpointSnapshot {
	return EndpointSnapshot{
		Requests: m.requests.Load(),
		Errors:   m.errors.Load(),
		Latency:  m.lat.Snapshot(withBuckets),
	}
}
