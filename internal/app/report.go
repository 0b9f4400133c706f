package app

import (
	"sort"

	"floodgate/internal/units"
)

// Record is the terminal outcome of one request.
type Record struct {
	Start, End units.Time
	OK         bool // quorum reached
	Shed       bool // rejected by an open circuit breaker
	Attempts   int  // including the first (0 when shed or never injected)
	Hedges     int
	Timeouts   int
	RespBytes  units.ByteSize // counted response payload (OK requests)
}

// SLO is the service-level scorecard of one closed-loop run.
type SLO struct {
	Requests  int
	Completed int // quorum reached
	Failed    int // exhausted attempts/budget without quorum
	Shed      int // rejected by an open breaker
	Unfired   int // never injected (run ended first)

	P50, P99, P999 units.Duration // completed-request latency
	TimeoutRate    float64        // requests with >= 1 deadline expiry
	Amplification  float64        // attempts per injected request
	Hedges         int
	Goodput        units.BitRate // counted response payload / duration
	ShedRate       float64
}

// Records returns every request's outcome in request order.
func (p *Plane) Records() []Record {
	recs := make([]Record, len(p.states))
	for i, rs := range p.states {
		recs[i] = Record{
			Start: rs.start, End: rs.end,
			OK: rs.ok, Shed: rs.shed,
			Attempts: rs.attempts, Hedges: rs.hedges,
			Timeouts: rs.timeouts, RespBytes: rs.respRecv,
		}
	}
	return recs
}

// BuildSLO scores the records over the run duration.
func BuildSLO(recs []Record, dur units.Duration) SLO {
	s := SLO{Requests: len(recs)}
	var lats []units.Duration
	var bytes units.ByteSize
	injected, attempts := 0, 0
	timedOut := 0
	for i := range recs {
		r := &recs[i]
		switch {
		case r.Shed:
			s.Shed++
		case r.Attempts == 0:
			s.Unfired++
		case r.OK:
			s.Completed++
			lats = append(lats, r.End.Sub(r.Start))
			bytes += r.RespBytes
		default:
			s.Failed++
		}
		if r.Attempts > 0 {
			injected++
			attempts += r.Attempts
		}
		if r.Timeouts > 0 {
			timedOut++
		}
		s.Hedges += r.Hedges
	}
	if len(lats) > 0 {
		sort.Slice(lats, func(a, b int) bool { return lats[a] < lats[b] })
		s.P50 = pctl(lats, 500)
		s.P99 = pctl(lats, 990)
		s.P999 = pctl(lats, 999)
	}
	if n := s.Requests - s.Unfired; n > 0 {
		s.TimeoutRate = float64(timedOut) / float64(n)
		s.ShedRate = float64(s.Shed) / float64(n)
	}
	if injected > 0 {
		s.Amplification = float64(attempts) / float64(injected)
	}
	s.Goodput = units.Rate(bytes, dur)
	return s
}

// pctl is the nearest-rank permille percentile of sorted values.
func pctl(sorted []units.Duration, permille int) units.Duration {
	idx := (permille*len(sorted) + 999) / 1000
	if idx < 1 {
		idx = 1
	}
	return sorted[idx-1]
}
