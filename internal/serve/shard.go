package serve

import (
	"net/http"
	"time"

	"repro/internal/sweep"
)

// ShardRequest is the wire form of one sweep shard: a sweep request
// plus the half-open flat-index range [Start, End) this node scores.
// End == 0 selects the rest of the space, so a zero range sweeps it
// all — a one-node "cluster" degenerates to the full engine run.
type ShardRequest struct {
	SweepRequest
	Start int `json:"start,omitempty"`
	End   int `json:"end,omitempty"`
}

// ShardResponse carries one computed shard back to the coordinator:
// the deterministic partial reduction, plus this node's measured
// throughput — the signal coordinators use to weight shard dispatch,
// and the only field that varies between bit-identical runs. It
// travels only as the binary frame (see wire.go).
type ShardResponse struct {
	Partial      *sweep.Partial
	PointsPerSec float64
}

// handleSweepShard runs one shard synchronously — unlike /v1/sweep it
// needs no job store, so any serving node can join a sweep cluster.
// The response partial is a pure function of (registered bundles,
// request), whatever node answers; a disconnect cancels the engine via
// the request context.
//
// The request is JSON; a 200 is always the binary ShardResponse frame
// (ShardResponseMediaType), whatever the Accept header says. Errors
// are JSON.
func (s *Server) handleSweepShard(w http.ResponseWriter, r *http.Request) {
	var req ShardRequest
	if err := decodeBody(r, &req); err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	set, sp, err := resolveSweepRequest(s.reg, req.SweepRequest)
	if err != nil {
		writeError(w, sweepErrorStatus(err), "%v", err)
		return
	}
	cfg := sweep.Config{
		TopK:      req.TopK,
		ChunkSize: req.Chunk,
		Workers:   req.engineWorkers(),
		Kernel:    req.kernelMode(s.kernel),
		Start:     req.Start,
		End:       req.End,
	}
	start := time.Now()
	p, err := sweep.RunPartial(r.Context(), sp, set, cfg)
	if err != nil {
		if r.Context().Err() != nil {
			return // client gone; nobody is listening for the error
		}
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	resp := ShardResponse{Partial: p}
	if secs := time.Since(start).Seconds(); secs > 0 {
		resp.PointsPerSec = float64(p.End-p.Start) / secs
	}
	data, err := resp.MarshalBinary()
	if err != nil {
		writeError(w, http.StatusInternalServerError, "%v", err)
		return
	}
	w.Header().Set("Content-Type", ShardResponseMediaType)
	w.WriteHeader(http.StatusOK)
	w.Write(data)
}
