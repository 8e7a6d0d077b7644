package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"testing"

	"repro/internal/ann"
	"repro/internal/bundle"
	"repro/internal/sweep"
)

// postShardRaw sends one JSON shard request, with an optional Accept
// header, and returns the response Content-Type and body.
func postShardRaw(t *testing.T, url string, body []byte, accept string) (string, []byte) {
	t.Helper()
	req, err := http.NewRequest(http.MethodPost, url+"/v1/sweep/shard", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	if accept != "" {
		req.Header.Set("Accept", accept)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(resp.Body)
		t.Fatalf("shard status %d: %s", resp.StatusCode, msg)
	}
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.Header.Get("Content-Type"), raw
}

// TestServerDefaultKernel pins the -kernel server default: a shard
// request that leaves "kernel" unset runs the configured tier, while
// an explicit "exact" overrides the default back to the bit-identical
// kernel (the empty partial label).
func TestServerDefaultKernel(t *testing.T) {
	b := trainedBundle(t)
	reg := NewRegistry()
	if _, err := reg.Add("synth", b, CoalesceOpts{}); err != nil {
		t.Fatal(err)
	}
	srv := New(reg)
	srv.SetDefaultKernel(ann.KernelFast)
	ts := httptest.NewServer(srv)
	t.Cleanup(func() {
		ts.Close()
		reg.Close()
	})
	for _, tc := range []struct {
		body, want string
	}{
		{`{"model":"synth","topk":3,"chunk":16}`, ann.KernelFast.String()},
		{`{"model":"synth","topk":3,"chunk":16,"kernel":"exact"}`, ""},
		{`{"model":"synth","topk":3,"chunk":16,"kernel":"fast32"}`, ann.KernelFast32.String()},
	} {
		_, raw := postShardRaw(t, ts.URL, []byte(tc.body), "")
		var resp ShardResponse
		if err := resp.UnmarshalBinary(raw); err != nil {
			t.Fatal(err)
		}
		if resp.Partial.Kernel != tc.want {
			t.Fatalf("request %s ran kernel %q, want %q", tc.body, resp.Partial.Kernel, tc.want)
		}
	}
}

// TestShardResponseBinary drives the one shard wire format against a
// live server: a 200 is the binary frame whatever the Accept header
// says, its partial is byte-identical to the in-process RunPartial
// over the same range on the exact and fast32 tiers, and a truncated
// or overlong frame never decodes.
func TestShardResponseBinary(t *testing.T) {
	ts, _, b := newTestServer(t, CoalesceOpts{})
	set, sp, err := sweep.Resolve(sweep.DefaultSpecs([]string{"synth"}),
		map[string]*bundle.Bundle{"synth": b})
	if err != nil {
		t.Fatal(err)
	}
	start, end := 16, sp.Size()-5
	for _, mode := range []ann.KernelMode{ann.KernelExact, ann.KernelFast32} {
		req := ShardRequest{
			SweepRequest: SweepRequest{Model: "synth", TopK: 5, Chunk: 16, Kernel: mode.String()},
			Start:        start,
			End:          end,
		}
		body, err := json.Marshal(req)
		if err != nil {
			t.Fatal(err)
		}
		local, err := sweep.RunPartial(context.Background(), sp, set,
			sweep.Config{TopK: 5, ChunkSize: 16, Kernel: mode, Start: start, End: end})
		if err != nil {
			t.Fatal(err)
		}
		want, _ := json.Marshal(local)
		for _, accept := range []string{"", "application/json"} {
			ct, raw := postShardRaw(t, ts.URL, body, accept)
			if ct != ShardResponseMediaType {
				t.Fatalf("%s, Accept %q: response Content-Type %q, want %q", mode, accept, ct, ShardResponseMediaType)
			}
			var got ShardResponse
			if err := got.UnmarshalBinary(raw); err != nil {
				t.Fatalf("%s, Accept %q: %v", mode, accept, err)
			}
			if have, _ := json.Marshal(got.Partial); !bytes.Equal(want, have) {
				t.Fatalf("%s, Accept %q: served partial diverged from RunPartial:\nwant %s\ngot  %s", mode, accept, want, have)
			}
			var cut ShardResponse
			for n := 0; n < len(raw); n += 7 {
				if err := cut.UnmarshalBinary(raw[:n]); err == nil {
					t.Fatalf("%s: truncation to %d of %d bytes decoded", mode, n, len(raw))
				}
			}
			if err := cut.UnmarshalBinary(append(append([]byte(nil), raw...), 0)); err == nil {
				t.Fatalf("%s: trailing byte decoded", mode)
			}
		}
	}
}
