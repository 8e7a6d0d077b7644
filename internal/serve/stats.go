package serve

import (
	"net/http"
	"sync/atomic"
)

// counters is the server's atomic request tally, exported by
// GET /metrics.
type counters struct {
	requests     atomic.Int64
	inFlight     atomic.Int64
	clientErrors atomic.Int64
	serverErrors atomic.Int64
}

// statusRecorder captures the response status for error counting.
type statusRecorder struct {
	http.ResponseWriter
	status int
}

func (r *statusRecorder) WriteHeader(code int) {
	r.status = code
	r.ResponseWriter.WriteHeader(code)
}

func (r *statusRecorder) Write(b []byte) (int, error) {
	if r.status == 0 {
		r.status = http.StatusOK
	}
	return r.ResponseWriter.Write(b)
}

// countRequest wraps the whole mux so every endpoint is counted,
// timed, and subject to admission control.
func (s *Server) countRequest(w http.ResponseWriter, r *http.Request) {
	start := nowMono()
	s.ctr.requests.Add(1)
	s.ctr.inFlight.Add(1)
	defer s.ctr.inFlight.Add(-1)
	rec := &statusRecorder{ResponseWriter: w}
	s.admitAndServe(rec, r)
	s.lat.observe(nowMono().Sub(start))
	switch {
	case rec.status >= 500:
		s.ctr.serverErrors.Add(1)
	case rec.status >= 400:
		s.ctr.clientErrors.Add(1)
	}
}
