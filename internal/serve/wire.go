package serve

import (
	"fmt"

	"repro/internal/sweep"
)

// Wire format of /v1/sweep/shard. Each direction has exactly one
// format, so nothing is negotiated:
//
//   - Requests are JSON (a ShardRequest), decoded like every other
//     endpoint's body: size-limited, unknown fields rejected.
//   - A 200 response is always the binary frame below, labelled
//     ShardResponseMediaType, whatever the Accept header says. Shard
//     partials dominate coordination cost — textual float64s are ~24
//     bytes each versus 8 raw bits — so this is where binary pays.
//   - Errors are JSON, like every other endpoint's.
//
// The frame is magic "RSR2", the node's points/s as raw float64 bits,
// then the partial's own binary encoding (sweep.Partial.MarshalBinary)
// to the end of the frame. A coordinator and its nodes must run the
// same release: a frame from another version fails the magic check.
const (
	// ShardResponseMediaType is the Content-Type of a binary
	// ShardResponse body.
	ShardResponseMediaType = "application/x-repro-shard-response"
	// shardResponseMagic tags (and versions) the response frame.
	shardResponseMagic = "RSR2"
)

// MarshalBinary encodes the shard response frame.
func (r *ShardResponse) MarshalBinary() ([]byte, error) {
	if r.Partial == nil {
		return nil, fmt.Errorf("serve: binary shard response needs a partial")
	}
	p, err := r.Partial.MarshalBinary()
	if err != nil {
		return nil, err
	}
	w := &sweep.WireWriter{}
	w.Grow(len(shardResponseMagic) + 8 + len(p))
	w.Raw([]byte(shardResponseMagic))
	w.F64(r.PointsPerSec)
	w.Raw(p)
	return w.Bytes(), nil
}

// UnmarshalBinary decodes a shard response frame, rejecting a bad
// magic, truncation and trailing bytes.
func (r *ShardResponse) UnmarshalBinary(data []byte) error {
	rd := sweep.NewWireReader(data)
	if magic := rd.Take(len(shardResponseMagic)); magic == nil || string(magic) != shardResponseMagic {
		return fmt.Errorf("serve: not a binary shard response (bad magic/version)")
	}
	*r = ShardResponse{}
	r.PointsPerSec = rd.F64()
	rest := rd.Rest()
	if err := rd.Err(); err != nil {
		return err
	}
	r.Partial = &sweep.Partial{}
	return r.Partial.UnmarshalBinary(rest)
}
